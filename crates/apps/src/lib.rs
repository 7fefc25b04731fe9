//! The application suite of the EC/LRC comparison study.
//!
//! Six applications (plus the SOR+ variant), each written three times:
//!
//! * a **sequential** version used for verification and for the paper's
//!   "1 proc." column,
//! * an **LRC-style** parallel version (barriers and exclusive locks only, no
//!   binding — the program a TreadMarks user would write),
//! * an **EC-style** parallel version (every shared object bound to a lock,
//!   read-only locks for data read across barriers, extra synchronization for
//!   task queues, lock rebinding, per-object granularity decisions — the
//!   program a Midway user would write, Section 3.3 of the paper).
//!
//! The suite is written against the typed API of `dsm-core` —
//! `SharedArray<T>`/`Binding<T>` handles, one RAII lock guard
//! (`ctx.lock`/`ctx.lock_if`, whose conditional form carries the EC-only
//! annotations, and `ctx.lock_set`, which opens it empty where a program
//! holds a dynamic set of locks at once: 3D-FFT's transpose chunks, SOR's
//! boundary read locks, Quicksort's rebound queue-entry lock), and typed
//! element/span accessors.  `tests/tests/typed_api_equivalence.rs` pins that this
//! surface costs nothing: reports are byte-identical to the pre-redesign
//! raw-API programs.
//!
//! The [`runner`] module provides a uniform entry point used by the benchmark
//! harness and the integration tests.
//!
//! Beyond the paper's suite, the [`mixed`] module provides a synthetic
//! three-phase mixed-sharing workload (false sharing, single writer,
//! migratory lock) built to exercise the adaptive LRC data policy; it is not
//! part of [`App`] and is driven directly by the `adaptive` benchmark and the
//! adaptive determinism tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod barnes_hut;
pub mod fft;
pub mod is;
pub mod mixed;
pub mod params;
pub mod quicksort;
pub mod runner;
pub mod sor;
pub mod water;

pub use params::{AppParams, Scale};
pub use runner::{run_app, run_app_opts, sequential_time, App, AppReport, RunOpts};
