//! Data-plane building blocks for the EC/LRC software DSM reproduction.
//!
//! This crate contains the *mechanism* pieces that both consistency models
//! share: shared-memory regions and page arithmetic, block granularities,
//! bitsets for software dirty bits, the two word-run scans a write travels
//! through (changed words against a twin, and runs of equal per-block
//! **timestamps**), vector clocks and their compact encodings, twin buffer
//! pools, page-sharing statistics, checkpoint images, the transport's
//! wire codec, and the seeded generator ([`XorShift64`]) that workload
//! traces and property tests draw from.
//!
//! The protocol logic that decides *when* these mechanisms are invoked lives
//! in `dsm-core`; the applications that drive them live in `dsm-apps`.
//!
//! # Example: publishing a write as stamped runs and applying it
//!
//! ```
//! use dsm_mem::{changed_word_runs, same_stamp_runs};
//!
//! // Release: compare the page with its twin and publish each changed run
//! // into the master copy, stamping its words with the publish (7).
//! let twin = vec![0u8; 64];
//! let mut page = twin.clone();
//! page[8..16].copy_from_slice(&[1, 0, 0, 0, 2, 0, 0, 0]);
//! let mut master = twin.clone();
//! let mut stamps = vec![0u64; 16];
//! changed_word_runs(&twin, &page, 0..16, |s, e| {
//!     master[s * 4..e * 4].copy_from_slice(&page[s * 4..e * 4]);
//!     stamps[s..e].fill(7);
//! });
//!
//! // Acquire: a node that has applied every publish up to stamp 3 copies
//! // the newer runs, one decision and one copy per same-stamp run.
//! let mut copy = twin.clone();
//! let mut applied = 0;
//! same_stamp_runs(&stamps, 0..16, |s, e, stamp| {
//!     if stamp > 3 {
//!         copy[s * 4..e * 4].copy_from_slice(&master[s * 4..e * 4]);
//!         applied += e - s;
//!     }
//! });
//! assert_eq!((copy, applied), (page, 2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bitset;
mod cclock;
mod ckpt;
mod diff;
mod granularity;
mod page;
mod pool;
mod region;
mod rng;
mod sharing;
#[doc(hidden)]
pub mod testutil;
mod vclock;
pub mod wire;

pub use bitset::{BitRuns, BitSet};
pub use cclock::{put_varint, ClockDelta, CompactClock};
pub use ckpt::CkptImage;
pub use diff::{changed_word_runs, same_stamp_runs};
pub use granularity::BlockGranularity;
pub use page::{for_each_page, page_of, page_range, pages_in, PAGE_SIZE};
pub use pool::BufferPool;
pub use region::{MemRange, RegionDesc, RegionId};
pub use rng::XorShift64;
pub use sharing::{PageMode, PageModeChange, PageSharing};
pub use vclock::{ClockOrd, VectorClock};
