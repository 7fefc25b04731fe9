//! Typed-API equivalence: the typed surface (`SharedArray` handles, the
//! `LockGuard` and typed element/span accessors) must charge exactly what
//! the raw `Region` programs it replaced charged — not a single simulated
//! byte or cost may move.
//!
//! The golden files under `tests/golden/typed_api_*` were blessed from the
//! raw-API programs *before* the typed layer existed; the ported programs
//! must keep reproducing them byte for byte (contents fnv, `TrafficReport`,
//! per-node statistics), across the nine static implementations at 1 and 4
//! processors.  The three adaptive implementations, added later, have their
//! own `typed_api_*_alrc_*` goldens so the static files stay byte-identical
//! to their original blessing.

use dsm_apps::{run_app, App, Scale};
use dsm_core::{ImplKind, Model};
use dsm_tests::{canon_app, canon_run, canon_time, check_golden, golden_trace};

/// The nine static implementations, in `ImplKind::all()` order (the order
/// the pre-adaptive goldens were blessed in).
fn static_kinds() -> impl Iterator<Item = ImplKind> {
    ImplKind::all()
        .into_iter()
        .filter(|k| k.model() != Model::Adaptive)
}

/// The typed seeded trace reproduces the goldens blessed from its raw-API
/// original for every implementation at 1 and 4 processors (contents fnv,
/// `TrafficReport`, per-node statistics).
#[test]
fn trace_matches_pre_redesign_goldens_raw_and_typed() {
    for nprocs in [1usize, 4] {
        let mut found = String::new();
        for kind in static_kinds() {
            let (result, arrays) = golden_trace(kind, nprocs);
            found.push_str(&canon_run(kind, nprocs, &result, &arrays));
            found.push_str(&canon_time(kind, nprocs, result.time, &result.node_times));
        }
        check_golden(&format!("typed_api_trace_p{nprocs}.txt"), &found);
    }
}

/// SOR reproduces the pre-redesign goldens for every implementation at 1 and
/// 4 processors.
#[test]
fn sor_matches_pre_redesign_goldens() {
    for nprocs in [1usize, 4] {
        let mut found = String::new();
        for kind in static_kinds() {
            let report = run_app(App::Sor, kind, nprocs, Scale::Tiny);
            assert!(report.verified, "{kind} SOR diverged from sequential");
            found.push_str(&canon_app(&report));
            found.push_str(&canon_time(kind, nprocs, report.time, &report.node_times));
        }
        check_golden(&format!("typed_api_sor_p{nprocs}.txt"), &found);
    }
}

/// The adaptive family reproduces its own goldens — same trace, same SOR,
/// same canonical format — so its cost accounting is pinned the way the
/// static families' is.
#[test]
fn adaptive_family_matches_its_own_goldens() {
    for nprocs in [1usize, 4] {
        let mut trace = String::new();
        let mut sor = String::new();
        for kind in ImplKind::adaptive_all() {
            let (result, arrays) = golden_trace(kind, nprocs);
            trace.push_str(&canon_run(kind, nprocs, &result, &arrays));
            trace.push_str(&canon_time(kind, nprocs, result.time, &result.node_times));
            let report = run_app(App::Sor, kind, nprocs, Scale::Tiny);
            assert!(report.verified, "{kind} SOR diverged from sequential");
            sor.push_str(&canon_app(&report));
            sor.push_str(&canon_time(kind, nprocs, report.time, &report.node_times));
        }
        check_golden(&format!("typed_api_trace_alrc_p{nprocs}.txt"), &trace);
        check_golden(&format!("typed_api_sor_alrc_p{nprocs}.txt"), &sor);
    }
}
