//! Crash-at-every-boundary sweep: over a short SOR run at 4 processors,
//! kill a node at *each* barrier index in turn — under one implementation
//! from each protocol family — and assert that recovery converges to the
//! uncrashed run's canonical output at every crash point.
//!
//! This is the systematic companion to `recovery_equivalence.rs` (which
//! pins the full 12-implementation matrix at one mid-run crash point):
//! equivalence must hold whether the node dies at the very first barrier
//! (recovering from the initial cut), in the middle (redoing one epoch from
//! the last checkpoint), or at the final barrier (where every peer is
//! already waiting to finish).

use dsm_apps::{run_app_opts, App, RunOpts, Scale};
use dsm_core::{FaultPlan, ImplKind, TransportKind};
use dsm_tests::canon_app;

/// Tiny SOR executes 4 iterations x 2 colour barriers plus the final
/// barrier: 9 barrier episodes, indices 0..=8.
const BARRIERS: u64 = 9;

fn sweep(kind: ImplKind) {
    let base = run_app_opts(App::Sor, kind, 4, Scale::Tiny, RunOpts::default());
    assert!(base.verified, "{kind}: uncrashed run failed");
    let want = canon_app(&base);
    for barrier in 0..BARRIERS {
        // Rotate the victim so the sweep also varies which band crashes.
        let node = (barrier % 4) as u32;
        let crashed = run_app_opts(
            App::Sor,
            kind,
            4,
            Scale::Tiny,
            RunOpts {
                transport: TransportKind::Simulated,
                fault: FaultPlan::KillAt { node, barrier },
                ..RunOpts::default()
            },
        );
        assert!(
            crashed.verified,
            "{kind}: crash of P{node} at barrier {barrier} diverged from sequential output"
        );
        assert_eq!(
            want,
            canon_app(&crashed),
            "{kind}: crash of P{node} at barrier {barrier} did not recover equivalently"
        );
        assert_eq!(
            crashed.recovery.crashes, 1,
            "{kind}: fault at barrier {barrier} never fired"
        );
        // Rollback work is always charged; simulated time is lost whenever
        // the crash epoch did any work (barrier 0 starts from the initial
        // cut, and the final barrier follows the last loop barrier with no
        // work in between — those two may lose nothing).
        assert!(crashed.recovery.restore_ns > 0, "{kind}: free restore");
        assert!(
            crashed.recovery.lost_ns > 0 || barrier == 0 || barrier == BARRIERS - 1,
            "{kind}: mid-run crash at barrier {barrier} lost no simulated time"
        );
    }
}

#[test]
fn ec_time_recovers_at_every_barrier() {
    sweep(ImplKind::ec_time());
}

#[test]
fn lrc_diff_recovers_at_every_barrier() {
    sweep(ImplKind::lrc_diff());
}

#[test]
fn hlrc_diff_recovers_at_every_barrier() {
    sweep(ImplKind::hlrc_diff());
}

#[test]
fn adaptive_diff_recovers_at_every_barrier() {
    sweep(ImplKind::adaptive_diff());
}
