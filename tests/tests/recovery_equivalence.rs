//! Recovery equivalence: a run that crashes a node mid-flight and recovers
//! it from its last checkpoint must be observably identical to the run that
//! never crashed.
//!
//! "Observably identical" is the canonical application serialization of
//! `dsm_tests::canon_app` — verified output contents, the aggregate
//! `TrafficReport`, and every per-node statistics counter.  Simulated
//! *times* are outside the comparison: checkpoint capture and rollback
//! restore charge real (simulated) memory-copy time to the recovering node,
//! so the crashed run finishes later — but it must not send one extra
//! protocol byte or publish one different word (`DESIGN.md` §8).
//!
//! The suite pins the whole 12-implementation matrix at 1 and 4 processors
//! on SOR, and exercises the channel transport (checkpoint images and the
//! rollback notice travel the wire to every replica, which verifies count
//! and fingerprint at finish).

use dsm_apps::{run_app_opts, App, AppReport, RunOpts, Scale};
use dsm_core::{FaultPlan, ImplKind, TransportKind};
use dsm_tests::canon_app;

/// Runs tiny SOR at `nprocs` under `kind` with the given options.
fn sor(kind: ImplKind, nprocs: usize, opts: RunOpts) -> AppReport {
    run_app_opts(App::Sor, kind, nprocs, Scale::Tiny, opts)
}

/// Asserts that a run crashed at `fault` is canonically identical to the
/// uncrashed run, and that recovery actually happened.
fn assert_equivalent(kind: ImplKind, nprocs: usize, fault: FaultPlan) {
    let base = sor(kind, nprocs, RunOpts::default());
    let crashed = sor(
        kind,
        nprocs,
        RunOpts {
            transport: TransportKind::Simulated,
            fault,
            ..RunOpts::default()
        },
    );
    assert!(base.verified, "{kind}/{nprocs}p: uncrashed run failed");
    assert!(
        crashed.verified,
        "{kind}/{nprocs}p: crashed run diverged from sequential output"
    );
    assert_eq!(
        canon_app(&base),
        canon_app(&crashed),
        "{kind}/{nprocs}p: crashed-and-recovered run is not equivalent"
    );
    // The fault actually fired and was recovered from.
    assert_eq!(crashed.recovery.crashes, 1, "{kind}/{nprocs}p");
    assert!(crashed.recovery.checkpoints > 0, "{kind}/{nprocs}p");
    assert!(crashed.recovery.checkpoint_bytes > 0, "{kind}/{nprocs}p");
    assert!(crashed.recovery.restore_ns > 0, "{kind}/{nprocs}p");
    // The uncrashed run carries no recovery machinery at all.
    assert_eq!(base.recovery.checkpoints, 0, "{kind}/{nprocs}p");
    assert_eq!(base.recovery.crashes, 0, "{kind}/{nprocs}p");
}

/// Tiny SOR runs 4 iterations of 2 barriers plus a final one: 9 barriers.
/// Barrier 5 is mid-run — past several checkpoints, with work left to redo.
const MID_RUN: u64 = 5;

#[test]
fn crashed_runs_recover_equivalently_across_the_matrix_at_4_procs() {
    for kind in ImplKind::all() {
        assert_equivalent(
            kind,
            4,
            FaultPlan::KillAt {
                node: 1,
                barrier: MID_RUN,
            },
        );
    }
}

#[test]
fn crashed_runs_recover_equivalently_across_the_matrix_at_1_proc() {
    for kind in ImplKind::all() {
        assert_equivalent(
            kind,
            1,
            FaultPlan::KillAt {
                node: 0,
                barrier: MID_RUN,
            },
        );
    }
}

#[test]
fn killing_the_last_arriving_node_at_the_first_barrier_recovers() {
    // Barrier 0 exercises recovery from the initial cut: the only
    // checkpoint is the pre-run image.
    for kind in [ImplKind::lrc_diff(), ImplKind::ec_time()] {
        assert_equivalent(
            kind,
            4,
            FaultPlan::KillAt {
                node: 3,
                barrier: 0,
            },
        );
    }
}

#[test]
fn checkpoint_images_and_rollback_notices_survive_the_channel_transport() {
    // Under the channel transport every replica receives the checkpoint
    // images and the rollback notice out of band and verifies count and
    // XOR-FNV fingerprint against the senders' totals at finish (an assert
    // inside the transport, so reaching the report is the proof).
    let report = sor(
        ImplKind::lrc_diff(),
        4,
        RunOpts {
            transport: TransportKind::Channel,
            fault: FaultPlan::KillAt {
                node: 2,
                barrier: MID_RUN,
            },
            ..RunOpts::default()
        },
    );
    assert!(report.verified);
    assert_eq!(report.recovery.crashes, 1);
    assert_eq!(report.wire.replicas_verified, 4);
    assert!(
        report.wire.ckpt_frames > 0,
        "no checkpoint crossed the wire"
    );
    assert_eq!(report.wire.rollback_frames, 1);
}

#[test]
fn checkpoint_images_and_rollback_notices_survive_the_socket_transport() {
    let report = sor(
        ImplKind::hlrc_diff(),
        2,
        RunOpts {
            transport: TransportKind::SocketLocal(1),
            fault: FaultPlan::KillAt {
                node: 0,
                barrier: MID_RUN,
            },
            ..RunOpts::default()
        },
    );
    assert!(report.verified);
    assert_eq!(report.recovery.crashes, 1);
    assert_eq!(report.wire.replicas_verified, 1);
    assert!(
        report.wire.ckpt_frames > 0,
        "no checkpoint crossed the wire"
    );
    assert_eq!(report.wire.rollback_frames, 1);
}
