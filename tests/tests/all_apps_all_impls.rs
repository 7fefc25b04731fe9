//! Every application of the suite, under every one of the twelve
//! implementations (EC, homeless LRC, home-based LRC and adaptive LRC
//! crossed with the trapping/collection mechanisms), must produce the same
//! answer as its sequential version.

use dsm_apps::{run_app, App, Scale};
use dsm_core::ImplKind;

#[test]
fn every_app_matches_sequential_under_every_implementation() {
    assert_eq!(
        ImplKind::all().len(),
        12,
        "the full twelve-member matrix runs"
    );
    for app in App::ALL {
        for kind in ImplKind::all() {
            let report = run_app(app, kind, 4, Scale::Tiny);
            assert!(
                report.verified,
                "{app} under {kind} diverged from the sequential version"
            );
            assert!(
                report.time.as_nanos() > 0,
                "{app} under {kind} took no time"
            );
        }
    }
}

#[test]
fn single_processor_runs_work_for_every_model() {
    for app in [App::Sor, App::IntegerSort, App::Quicksort] {
        for kind in [
            ImplKind::ec_time(),
            ImplKind::lrc_diff(),
            ImplKind::hlrc_diff(),
        ] {
            let report = run_app(app, kind, 1, Scale::Tiny);
            assert!(report.verified, "{app} under {kind} on 1 processor");
        }
    }
}

/// SOR, IS and Water under one representative per protocol family, at 2 to
/// 32 processors: every run verifies and communicates.
#[test]
fn more_processors_mean_more_traffic_not_less_correctness() {
    for app in [App::Sor, App::IntegerSort, App::Water] {
        for kind in [
            ImplKind::ec_time(),
            ImplKind::lrc_diff(),
            ImplKind::hlrc_diff(),
            ImplKind::adaptive_diff(),
        ] {
            for nprocs in [2usize, 4, 6, 8, 16, 32] {
                let report = run_app(app, kind, nprocs, Scale::Tiny);
                assert!(report.verified, "{app} under {kind} at {nprocs} procs");
                assert!(
                    report.traffic.messages > 0,
                    "{app} under {kind} at {nprocs} procs sent nothing"
                );
            }
        }
    }
}

#[test]
fn speedup_is_reported_relative_to_the_sequential_time() {
    let report = run_app(App::Water, ImplKind::lrc_diff(), 4, Scale::Tiny);
    assert!(report.verified);
    assert!(report.speedup() > 0.0);
    assert!(report.seq_time.as_nanos() > 0);
}
