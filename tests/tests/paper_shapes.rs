//! Qualitative "shape" checks against the paper's findings: who wins, and in
//! which direction the traffic differences go.  Absolute numbers differ (the
//! substrate is a simulator, not the authors' DECstation/ATM testbed), but
//! these relationships are what the paper's conclusions rest on.

use dsm_apps::{run_app, App, Scale};
use dsm_core::ImplKind;

const PROCS: usize = 8;

/// Section 7.2, 3D-FFT: the data bound to a lock spans several pages, so EC's
/// update protocol needs far fewer messages (and fewer access misses) than
/// LRC's per-page invalidate protocol.  (The resulting execution-time win for
/// EC only materialises at the paper's full problem size, which this test
/// does not run.)
#[test]
fn fft_favours_ec_update_protocol() {
    let ec = run_app(App::Fft3d, ImplKind::ec_ci(), PROCS, Scale::Small);
    let lrc = run_app(App::Fft3d, ImplKind::lrc_diff(), PROCS, Scale::Small);
    assert!(ec.verified && lrc.verified);
    assert!(
        ec.traffic.messages < lrc.traffic.messages,
        "EC messages ({}) should be below LRC messages ({})",
        ec.traffic.messages,
        lrc.traffic.messages
    );
    assert!(
        ec.traffic.access_misses == 0,
        "EC never takes access misses"
    );
    assert!(
        lrc.traffic.access_misses > 0,
        "LRC fetches the transpose page by page"
    );
}

/// Section 7.2, Water and Barnes-Hut: LRC's page-grain prefetching and the
/// absence of per-object read locks make it faster than EC.
#[test]
fn water_and_barnes_favour_lrc() {
    for app in [App::Water, App::BarnesHut] {
        let ec = run_app(app, ImplKind::ec_time(), PROCS, Scale::Small);
        let lrc = run_app(app, ImplKind::lrc_diff(), PROCS, Scale::Small);
        assert!(ec.verified && lrc.verified, "{app} verification");
        assert!(
            lrc.time < ec.time,
            "{app}: LRC ({:.2}s) should beat EC ({:.2}s)",
            lrc.time.as_secs_f64(),
            ec.time.as_secs_f64()
        );
    }
    // Barnes-Hut is the extreme case: every cell/body read needs a read-only
    // lock under EC, so LRC needs far fewer messages (prefetching).
    let ec = run_app(App::BarnesHut, ImplKind::ec_time(), PROCS, Scale::Small);
    let lrc = run_app(App::BarnesHut, ImplKind::lrc_diff(), PROCS, Scale::Small);
    assert!(
        lrc.traffic.messages < ec.traffic.messages,
        "Barnes-Hut: LRC should need fewer messages (prefetching, no read locks)"
    );
}

/// Section 8.2, IS: the shared bucket array is migratory, so diffing sends
/// multiple overlapping diffs while timestamping sends each block once.
#[test]
fn migratory_is_data_makes_diffing_send_more() {
    let time = run_app(App::IntegerSort, ImplKind::ec_time(), PROCS, Scale::Small);
    let diff = run_app(App::IntegerSort, ImplKind::ec_diff(), PROCS, Scale::Small);
    assert!(time.verified && diff.verified);
    assert!(
        diff.traffic.bytes > time.traffic.bytes,
        "EC-diff bytes ({}) should exceed EC-time bytes ({}) for migratory data",
        diff.traffic.bytes,
        time.traffic.bytes
    );
}

/// Section 8.1: the write-trapping mechanisms do fundamentally different
/// work.  LRC-ci pays per-store instrumentation plus hierarchical page-bit
/// scans and never takes a write fault; LRC-diff pays write faults, twin
/// copies and diff creations and executes no instrumented stores.
#[test]
fn trapping_mechanisms_do_different_work() {
    let ci = run_app(App::Sor, ImplKind::lrc_ci(), PROCS, Scale::Small);
    let diff = run_app(App::Sor, ImplKind::lrc_diff(), PROCS, Scale::Small);
    assert!(ci.verified && diff.verified);
    let ci_total = ci.stats.total();
    let diff_total = diff.stats.total();
    assert!(ci_total.instrumented_writes > 0);
    assert!(ci_total.page_bits_checked > 0);
    assert_eq!(ci_total.write_faults, 0);
    assert!(diff_total.write_faults > 0);
    assert!(diff_total.diffs_created > 0);
    assert_eq!(diff_total.instrumented_writes, 0);
    // And the instrumentation overhead is proportional to the stores the
    // application actually performs.
    assert!(ci_total.instrumented_writes >= (ci_total.shared_accesses / 8));
}

/// Section 7.2, QS: false sharing within pages makes LRC transfer more data
/// than EC for the task-queue Quicksort.
#[test]
fn quicksort_false_sharing_makes_lrc_move_more_data() {
    let ec = run_app(App::Quicksort, ImplKind::ec_diff(), PROCS, Scale::Small);
    let lrc = run_app(App::Quicksort, ImplKind::lrc_time(), PROCS, Scale::Small);
    assert!(ec.verified && lrc.verified);
    assert!(
        lrc.traffic.bytes > ec.traffic.bytes,
        "LRC bytes ({}) should exceed EC bytes ({}) for QS",
        lrc.traffic.bytes,
        ec.traffic.bytes
    );
}
