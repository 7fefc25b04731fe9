//! Simulated-cluster substrate for the EC/LRC software DSM reproduction.
//!
//! The paper ran on 8 DECstation-5000/240 workstations connected by a 100-Mbps
//! point-to-point ATM LAN, with protocol handlers driven by `SIGIO` and page
//! protection driven by `mprotect`/`SIGSEGV`.  This crate replaces that
//! hardware with an explicit, deterministic *cost model*: every protocol
//! action (message, page fault, twin creation, diff application, timestamp
//! scan, instrumented store, ...) is **counted** and converted into simulated
//! time through [`CostModel`].  The DSM protocols in `dsm-core` drive these
//! counters; the benchmark harness reads them back as execution times, message
//! counts and data volumes — the quantities the paper's tables are built from.
//!
//! # Quick example
//!
//! ```
//! use dsm_sim::{CostModel, NodeClock, NodeStats, MsgKind};
//!
//! let cost = CostModel::atm_lan_1996();
//! let mut clock = NodeClock::new();
//! let mut stats = NodeStats::default();
//!
//! // Charge one lock-request round trip carrying 64 bytes of payload.
//! let t = cost.message(64);
//! clock.advance(t);
//! stats.record_msg(MsgKind::LockRequest, 64);
//!
//! assert!(clock.now().as_nanos() > 0);
//! assert_eq!(stats.messages(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod clock;
mod cost;
mod msg;
mod node;
mod stats;
mod work;

pub use clock::{NodeClock, SimTime};
pub use cost::CostModel;
pub use msg::MsgKind;
pub use node::NodeId;
pub use stats::{ClusterStats, NodeStats, RegionSharing, TrafficReport};
pub use work::Work;
