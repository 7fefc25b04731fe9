//! The transport backends must be invisible to the application: a run over
//! real threads (channel backend) or real loopback sockets (socket backend)
//! must still verify against the sequential program, and its replicas must
//! reconstruct the final shared memory contents independently from the
//! publish stream.
//!
//! Replica-vs-master verification happens inside the transport's `finish`
//! (it panics on divergence), so a completed run with `replicas_verified > 0`
//! *is* the proof that every frame arrived, reordered into sequence order,
//! and applied to exactly the engines' master bytes — per run, for every app,
//! deterministic or not.  The same `finish` checks that every replica
//! tallied every out-of-band message, and that every replica, on both
//! backends, received exactly the bytes the endpoints accounted.
//!
//! Cross-run comparison (channel/socket contents vs. a separate simulated
//! run) is additionally asserted for the apps whose contents are bitwise
//! deterministic.  Lock-grant order between real worker threads is a genuine
//! race, so apps that sum floats under contended locks (Water) or leave
//! scheduling-dependent task-queue words in shared memory (Quicksort)
//! legitimately differ bitwise from one run to the next; SOR, SOR+,
//! Barnes-Hut, IS and 3D-FFT write every shared word from a deterministic
//! owner and reproduce identical bytes every run.

use dsm_apps::{run_app, run_app_opts, App, AppReport, RunOpts, Scale};
use dsm_core::{ImplKind, Model, TransportKind};

/// True if `app` produces bitwise-identical shared contents on every run
/// (established empirically; see the module docs).
fn contents_deterministic(app: App) -> bool {
    !matches!(app, App::Water | App::Quicksort)
}

fn run_over(app: App, kind: ImplKind, nprocs: usize, transport: TransportKind) -> AppReport {
    run_app_opts(app, kind, nprocs, Scale::Tiny, RunOpts::on(transport))
}

/// Runs `app` under `kind` on the simulated, channel and socket backends and
/// returns the channel and socket reports.
fn assert_backends_agree(app: App, kind: ImplKind, nprocs: usize) -> [AppReport; 2] {
    let base = run_app(app, kind, nprocs, Scale::Tiny);
    assert!(base.verified, "{app}/{kind}: simulated run not verified");
    assert_eq!(base.wire.backend, "sim");
    assert_eq!(base.wire.replicas_verified, 0);

    [TransportKind::Channel, TransportKind::SocketLocal(2)].map(|transport| {
        let label = transport.label();
        let r = run_over(app, kind, nprocs, transport);
        assert!(r.verified, "{app}/{kind} over {label}: run not verified");
        assert_eq!(r.wire.backend, label);
        assert!(
            r.wire.replicas_verified > 0,
            "{app}/{kind} over {label}: no replica verified the contents"
        );
        assert!(
            r.wire.frames_sent > 0,
            "{app}/{kind} over {label}: publish stream was empty"
        );
        assert_eq!(
            r.wire.frames_applied,
            r.wire.frames_sent * r.wire.replicas_verified as u64,
            "{app}/{kind} over {label}: replicas dropped frames"
        );
        assert!(r.wire.wire_bytes > 0, "{app}/{kind} over {label}: no bytes");
        assert_eq!(
            r.wire.wire_bytes,
            r.wire.wire_bytes_payload + r.wire.wire_bytes_meta,
            "{app}/{kind} over {label}: byte split does not add up"
        );
        if contents_deterministic(app) {
            assert_eq!(
                r.wire.master_fnv, base.wire.master_fnv,
                "{app}/{kind} over {label}: final contents differ from simulated"
            );
        }
        r
    })
}

#[test]
fn every_app_agrees_across_backends_on_four_nodes() {
    for app in App::ALL {
        for kind in [ImplKind::ec_time(), ImplKind::lrc_diff()] {
            assert_backends_agree(app, kind, 4);
        }
    }
}

#[test]
fn every_app_agrees_across_backends_on_two_nodes() {
    for app in App::ALL {
        assert_backends_agree(app, ImplKind::hlrc_diff(), 2);
    }
}

/// SOR under one implementation per protocol family, over threads and over
/// sockets: every epoch's frames coalesce into one batch per peer (LRC
/// publishes a whole interval's dirty pages at once; EC buffers each
/// release's grant frames until the barrier closes the epoch), and adaptive
/// LRC's one migration commit reaches every replica as a control message
/// while the static policies send none.
#[test]
fn sor_coalesces_and_ships_control_messages_on_both_backends() {
    for kind in [
        ImplKind::ec_time(),
        ImplKind::lrc_diff(),
        ImplKind::hlrc_diff(),
        ImplKind::adaptive_diff(),
    ] {
        for r in assert_backends_agree(App::Sor, kind, 4) {
            let label = r.wire.backend;
            assert!(
                r.wire.frames_coalesced > 0,
                "SOR/{kind} over {label}: no epoch coalescing happened"
            );
            assert_eq!(
                r.wire.ctrl_frames,
                u64::from(kind.model() == Model::Adaptive),
                "SOR/{kind} over {label}: control messages"
            );
        }
    }
}

#[test]
fn the_full_twelve_member_matrix_replicates_over_the_channel_backend() {
    for kind in ImplKind::all() {
        let r = run_over(App::IntegerSort, kind, 4, TransportKind::Channel);
        assert!(r.verified, "IS/{kind} over channel: run not verified");
        assert_eq!(
            r.wire.replicas_verified, 4,
            "IS/{kind} over channel: every node carries a replica"
        );
        assert_eq!(
            r.wire.frames_applied,
            r.wire.frames_sent * 4,
            "IS/{kind} over channel: replicas dropped frames"
        );
    }
}

#[test]
fn socket_peer_count_scales_independently_of_node_count() {
    for npeers in [1usize, 3] {
        let r = run_over(
            App::Sor,
            ImplKind::lrc_diff(),
            4,
            TransportKind::SocketLocal(npeers),
        );
        assert!(r.verified);
        assert_eq!(r.wire.replicas_verified, npeers);
        assert_eq!(r.wire.frames_applied, r.wire.frames_sent * npeers as u64);
    }
}

/// The two real backends move the same encoded messages: per receiver, a
/// channel inbox (one per node) and a socket peer get the same payload and
/// metadata bytes, out of the same frames in the same batches.  Left out are
/// the runs whose lock-grant order changes the clocks the frames carry from
/// run to run (IS under the LRC family, Water), and for Quicksort also the
/// coalescing.
#[test]
fn channel_and_socket_receivers_get_the_same_bytes() {
    let lrc_family = [
        ImplKind::lrc_diff(),
        ImplKind::hlrc_diff(),
        ImplKind::adaptive_diff(),
    ];
    let mut runs = vec![(App::IntegerSort, ImplKind::ec_time())];
    for app in [App::Sor, App::SorPlus, App::BarnesHut, App::Fft3d] {
        for kind in std::iter::once(ImplKind::ec_time()).chain(lrc_family) {
            runs.push((app, kind));
        }
    }
    for (app, kind) in runs {
        let [channel, socket] = assert_backends_agree(app, kind, 4);
        let (c, s) = (channel.wire, socket.wire);
        assert_eq!((c.replicas_verified, s.replicas_verified), (4, 2));
        assert_eq!(
            (c.wire_bytes_payload / 4, c.wire_bytes_meta / 4),
            (s.wire_bytes_payload / 2, s.wire_bytes_meta / 2),
            "{app}/{kind}: per-receiver payload and meta bytes"
        );
        assert_eq!(
            (c.frames_sent, c.frames_coalesced),
            (s.frames_sent, s.frames_coalesced),
            "{app}/{kind}: frames and coalescing"
        );
    }
}
