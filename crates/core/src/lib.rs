//! Software distributed shared memory with **entry consistency** (EC) and
//! **lazy release consistency** (LRC), reproducing the implementation study of
//! Adve, Cox, Dwarkadas, Rajamony and Zwaenepoel, *"A Comparison of Entry
//! Consistency and Lazy Release Consistency Implementations"* (HPCA 1996).
//!
//! The crate provides the six implementations of the paper's Table 1 — the
//! two consistency models crossed with two write-trapping mechanisms
//! (compiler instrumentation, twinning) and two write-collection mechanisms
//! (timestamps, diffs), minus the prohibitive instrumentation+diffs
//! combination — plus the three home-based LRC (HLRC) variants and the three
//! adaptive LRC (ALRC) variants, twelve implementations in total:
//!
//! | | compiler instrumentation | twinning |
//! |---|---|---|
//! | **timestamps** | `EC-ci`, `LRC-ci`, `HLRC-ci`, `ALRC-ci` | `EC-time`, `LRC-time`, `HLRC-time`, `ALRC-time` |
//! | **diffs** | — | `EC-diff`, `LRC-diff`, `HLRC-diff`, `ALRC-diff` |
//!
//! # Architecture
//!
//! All models plug into the runtime through an internal `ProtocolEngine`
//! trait: the runtime owns the mechanics the models share (lock hand-off,
//! barrier rendezvous, typed access) and calls model hooks for everything
//! else (grant payloads, publishes, write trapping, access misses).  The two
//! LRC models are one engine: a shared *ordering* core (intervals, vector
//! clocks, write notices, freshness generations) parameterized by a
//! *data policy* that decides where published data lives — homeless
//! (TreadMarks: data moves lazily, from the writers, at the miss) or
//! home-based (every page has a static home; releasers flush to it eagerly
//! and a miss is one whole-page round trip).  All cluster-wide state is
//! **sharded** — each lock and barrier has its own slot, mutex and condition
//! variable, and each region's published master copy sits behind its own
//! reader/writer lock — so simulated processors synchronising on independent
//! objects run truly in parallel on the host.  See `DESIGN.md` for the
//! sharding layout and the cost-substitution table.
//!
//! # Choosing a policy
//!
//! Prefer homeless LRC (`LRC-*`) when pages have few concurrent writers or
//! sharing is migratory: only the encoded modifications move, and only on
//! demand.  Prefer home-based LRC (`HLRC-*`) when pages are write-shared
//! (falsely or truly) by several processors between synchronizations: the
//! faulting node pays exactly one round trip to the page's home instead of
//! one per concurrent writer, at the price of an eager flush per remote
//! release and whole-page replies.  Entry consistency (`EC-*`) remains the
//! choice when the program can name its sharing — data bound to locks moves
//! on the grant, and nothing else moves at all.  When no single static
//! policy fits — the common case, per the paper's §5 — adaptive LRC
//! (`ALRC-*`) decides *per page, online*: it watches each page's publishes,
//! misses, diff bytes and writer set and migrates the page between homeless
//! diffing, a home at its dominant writer, and single-writer pinning (which
//! suppresses twin/diff work entirely until a second sharer appears).  The
//! LRC policies all share their ordering layer, so switching between them
//! never changes program results, only traffic and timing; see
//! [`RunResult::migrations`] and [`RunResult::sharing`] for the adaptive
//! controller's trace and the per-region sharing profile behind it.
//!
//! Applications are written SPMD-style against [`Dsm`] and
//! [`ProcessContext`]; the runtime executes them on simulated processors,
//! charging every protocol action (messages, page faults, twin copies, diff
//! creation, timestamp scans, instrumented stores) through the
//! [`CostModel`] of the `dsm-sim` crate, and reports
//! simulated execution time plus the traffic statistics the paper's tables
//! are built from.
//!
//! # Example
//!
//! ```
//! use dsm_core::{BarrierId, Dsm, DsmConfig, ImplKind, LockId, LockMode};
//! use dsm_mem::BlockGranularity;
//!
//! // A tiny producer/consumer program run under TreadMarks-style LRC.  The
//! // typed handle returned by `alloc_array` carries the element type, so
//! // access sites never spell it out.
//! let mut dsm = Dsm::new(DsmConfig::with_procs(ImplKind::lrc_diff(), 2))?;
//! let data = dsm.alloc_array::<f64>("data", 16, BlockGranularity::DoubleWord);
//!
//! // One barrier id per rendezvous keeps the program readable, although
//! // reusing an id is legal (each slot counts episodes by generation).
//! let produced = BarrierId::new(0);
//! let consumed = BarrierId::new(1);
//!
//! let result = dsm.run(|ctx| {
//!     if ctx.node() == 0 {
//!         let line: Vec<f64> = (0..16).map(|i| i as f64).collect();
//!         ctx.write_from(data, 0, &line); // one span write, page-batched
//!     }
//!     ctx.barrier(produced);
//!     if ctx.node() == 1 {
//!         assert_eq!(ctx.get(data, 7), 7.0);
//!     }
//!     ctx.barrier(consumed);
//! });
//! assert_eq!(result.final_at(data, 15), 15.0);
//! # Ok::<(), dsm_core::DsmError>(())
//! ```
//!
//! The same program runs unchanged under any [`ImplKind`]; EC programs
//! additionally bind their shared data to locks — in one step with
//! [`Dsm::alloc_bound`], or piecewise with [`Dsm::bind`] /
//! [`ProcessContext::rebind`] — and take RAII [`LockGuard`]s
//! ([`ProcessContext::lock`]), or a [`LockSet`] ([`ProcessContext::lock_set`])
//! where they hold a set of locks whose size is known only at run time,
//! using read-only locks ([`LockMode::ReadOnly`]) where LRC programs rely on
//! barriers alone.  The typed handles, guards and views (see
//! [`SharedArray`]) are the crate's whole shared-data surface: locks are
//! taken and released only through a guard or a set.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod api;
mod config;
mod context;
mod ec;
mod engine;
mod error;
mod ids;
mod local;
mod lrc;
mod recovery;
mod runtime;
mod scalar;
mod sync;
mod transport;

pub use api::{ArrayView, ArrayViewMut, Binding, LockGuard, LockSet, SharedArray, SharedScalar};
pub use config::{Collection, DsmConfig, ImplKind, Model, Trapping};
pub use context::ProcessContext;
pub use error::DsmError;
pub use ids::{BarrierId, LockId, LockMode};
pub use recovery::{FaultPlan, RecoveryReport};
pub use runtime::{Dsm, RunResult};
pub use scalar::Scalar;
pub use transport::{serve_transport_peer, TransportKind, TransportReport};

// Re-export the vocabulary types callers need to use the API.
pub use dsm_mem::{BlockGranularity, MemRange, PageMode, PageModeChange};
pub use dsm_sim::{CostModel, RegionSharing, SimTime, Work};
