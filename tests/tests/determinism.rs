//! Multi-processor output determinism for the LRC protocol family.
//!
//! PR 2 observed that `traffic`/table output differed between runs at
//! `--procs > 1`.  The cause was not aggregation order (reports are built in
//! node-id order) but two races in the engine's shared-state approximation:
//! freshness checks read the racy per-page `latest` high-water marks, and
//! responder counts read `last_publisher` state that concurrent *unentitled*
//! publishes could overwrite.  Both decisions now read only
//! entitlement-visible publish-history records, so for data-race-free,
//! barrier-deterministic programs every counter in the report is a pure
//! function of the program.  These tests pin that at 4 processors for all
//! six LRC-family implementations.
//!
//! (EC programs synchronize through contended locks, whose grant *order* is
//! genuinely scheduling-dependent; their totals are covered by the
//! cross-implementation equivalence tests instead.)

use dsm_apps::{run_app, App, Scale};
use dsm_core::ImplKind;
use dsm_sim::MsgKind;
use dsm_tests::{canon_node_stats, canon_run, golden_trace};

fn lrc_family() -> [ImplKind; 6] {
    [
        ImplKind::lrc_ci(),
        ImplKind::lrc_time(),
        ImplKind::lrc_diff(),
        ImplKind::hlrc_ci(),
        ImplKind::hlrc_time(),
        ImplKind::hlrc_diff(),
    ]
}

/// The seeded trace (single-writer pages, a falsely shared page, span and
/// scalar accesses) reports identically on repeated 4-processor runs.
#[test]
fn trace_reports_are_identical_across_runs() {
    for kind in lrc_family() {
        let mut first: Option<String> = None;
        for run in 0..3 {
            let (result, arrays) = golden_trace(kind, 4);
            let found = canon_run(kind, 4, &result, &arrays);
            match &first {
                None => first = Some(found),
                Some(want) => assert_eq!(
                    want, &found,
                    "{kind}: run {run} diverged from run 0 at 4 processors"
                ),
            }
        }
    }
}

/// A real application: SOR under the LRC family is barrier-structured, so
/// traffic and per-node statistics are deterministic at any `--procs`.
#[test]
fn sor_reports_are_identical_across_runs() {
    for kind in lrc_family() {
        let mut first: Option<String> = None;
        for run in 0..3 {
            let report = run_app(App::Sor, kind, 4, Scale::Tiny);
            assert!(report.verified);
            let mut found = format!("traffic: {}\n", report.traffic);
            for i in 0..report.stats.num_nodes() {
                canon_node_stats(&mut found, i, report.stats.node(i));
            }
            match &first {
                None => first = Some(found),
                Some(want) => assert_eq!(
                    want, &found,
                    "{kind}: SOR run {run} diverged from run 0 at 4 processors"
                ),
            }
        }
    }
}

/// Reports aggregate in node-id order: node `i` of the cluster statistics is
/// processor `i`, and the totals are the node-wise sums — no map/hash
/// iteration order is involved anywhere in a report.
#[test]
fn reports_aggregate_in_node_id_order() {
    let (result, _) = golden_trace(ImplKind::lrc_diff(), 4);
    assert_eq!(result.stats.num_nodes(), 4);
    assert_eq!(result.node_times.len(), 4);
    let total = result.stats.total();
    for kind in MsgKind::ALL {
        let sum: u64 = (0..4).map(|i| result.stats.node(i).messages_of(kind)).sum();
        assert_eq!(total.messages_of(kind), sum);
    }
    assert_eq!(result.traffic.messages, total.messages());
    assert_eq!(result.traffic.bytes, total.bytes());
}
