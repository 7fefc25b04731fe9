//! Equivalence guarantees for the layered LRC protocol family.
//!
//! Two classes of pins:
//!
//! * **Golden byte-identity** — the homeless (`LRC-*`) policy of the layered
//!   engine must produce output byte-identical to the pre-refactor monolithic
//!   engine: region contents, `TrafficReport`, and per-node statistics, on
//!   the seeded deterministic trace and on a barrier-structured application,
//!   at 1 and at 4 processors.  The golden files under `tests/golden/` were
//!   blessed from the pre-refactor engine.
//! * **HLRC content equivalence** — the home-based policy moves data
//!   differently (eager flush to a static home, whole-page fetch from one
//!   node) but must converge to the same memory contents as homeless LRC.

use dsm_apps::{run_app, App, Scale};
use dsm_core::{
    BarrierId, BlockGranularity, Dsm, DsmConfig, ImplKind, LockId, LockMode, Model, RunResult,
};
use dsm_mem::testutil::TestRng as Rng;
use dsm_sim::MsgKind;
use dsm_tests::{canon_app, canon_run, canon_time, check_golden, golden_trace};

/// The homeless LRC engine reproduces the pre-refactor engine byte for byte
/// on the seeded trace: contents, traffic, and per-node stats, at 1 and 4
/// processors, under all three LRC implementations.
#[test]
fn homeless_lrc_matches_pre_refactor_golden_trace() {
    for nprocs in [1usize, 4] {
        let mut found = String::new();
        for kind in [
            ImplKind::lrc_ci(),
            ImplKind::lrc_time(),
            ImplKind::lrc_diff(),
        ] {
            let (result, arrays) = golden_trace(kind, nprocs);
            found.push_str(&canon_run(kind, nprocs, &result, &arrays));
            found.push_str(&canon_time(kind, nprocs, result.time, &result.node_times));
        }
        check_golden(&format!("homeless_lrc_trace_p{nprocs}.txt"), &found);
    }
}

/// Same pin on a real application: SOR under LRC is barrier-structured, so
/// its report is deterministic at any processor count.
#[test]
fn homeless_lrc_matches_pre_refactor_golden_sor() {
    for nprocs in [1usize, 4] {
        let mut found = String::new();
        for kind in [
            ImplKind::lrc_ci(),
            ImplKind::lrc_time(),
            ImplKind::lrc_diff(),
        ] {
            let report = run_app(App::Sor, kind, nprocs, Scale::Tiny);
            assert!(report.verified);
            found.push_str(&canon_app(&report));
            found.push_str(&canon_time(kind, nprocs, report.time, &report.node_times));
        }
        check_golden(&format!("homeless_lrc_sor_p{nprocs}.txt"), &found);
    }
}

/// Every paper application runs under every home-based implementation and
/// matches the sequential output — and since the homeless implementations
/// match it too (`all_apps_all_impls`), the final region contents of HLRC and
/// homeless LRC agree on every app.
#[test]
fn hlrc_runs_every_app_and_matches_homeless_contents() {
    for app in App::ALL {
        for kind in ImplKind::hlrc_all() {
            let hlrc = run_app(app, kind, 4, Scale::Tiny);
            assert!(hlrc.verified, "{app} under {kind} diverged from sequential");
            assert!(hlrc.time.as_nanos() > 0, "{app} under {kind} took no time");
        }
    }
}

/// A randomly generated multi-writer program — several nodes write disjoint
/// word ranges of the *same* pages between barriers — produces identical
/// final contents under the homeless and the home-based policy.  (The two
/// policies share the ordering layer; only data movement differs.)
#[test]
fn hlrc_contents_match_homeless_on_random_false_sharing_programs() {
    for seed in 0..8 {
        let mut rng = Rng::new(seed + 900);
        let nprocs = 4;
        let elems = 2048usize; // two pages of u32, both falsely shared
        let phases = rng.in_range(2, 5);
        let writes: Vec<(usize, usize, u32)> = (0..phases * 8)
            .map(|_| (rng.below(4), rng.below(elems / 4), rng.next_u64() as u32))
            .collect();

        let mut reference: Option<Vec<u32>> = None;
        for kind in [ImplKind::lrc_diff(), ImplKind::hlrc_diff()] {
            let mut dsm = Dsm::new(DsmConfig::with_procs(kind, nprocs)).unwrap();
            let region = dsm.alloc_array::<u32>("fs", elems, BlockGranularity::Word);
            let writes = writes.clone();
            let phases_per_chunk = writes.len() / phases.max(1);
            let result = dsm.run(|ctx| {
                let me = ctx.node();
                let n = ctx.nprocs();
                // Interleaved quarters: node q owns elements where
                // (idx / 16) % n == q, so every page is written by every
                // node (maximal false sharing) yet the program is race-free.
                for phase in writes.chunks(phases_per_chunk.max(1)) {
                    for &(proc, at, val) in phase {
                        if proc != me {
                            continue;
                        }
                        let chunk = at / 16;
                        let idx = ((chunk * n + me) * 16 + at % 16) % elems;
                        ctx.set(region, idx, val);
                    }
                    ctx.barrier(BarrierId::new(0));
                    let mut sum = 0u64;
                    for i in 0..elems {
                        sum = sum.wrapping_add(ctx.get(region, i) as u64);
                    }
                    assert!(sum != u64::MAX);
                    ctx.barrier(BarrierId::new(1));
                }
            });
            let finals = result.final_array(region);
            match &reference {
                None => reference = Some(finals),
                Some(expected) => {
                    assert_eq!(
                        expected, &finals,
                        "seed {seed}: contents diverged under {kind}"
                    )
                }
            }
        }
    }
}

/// The multi-writer false-sharing scenario the home-based design targets:
/// four nodes write disjoint quarters of one page each phase, then everyone
/// reads the page.  Homeless LRC pays one round trip per concurrent writer
/// at every miss; HLRC pays one flush per remote release and exactly one
/// round trip per miss, so it moves strictly fewer data messages per miss
/// (and in total).
fn false_sharing_run(kind: ImplKind) -> RunResult {
    let nprocs = 4;
    let mut dsm = Dsm::new(DsmConfig::with_procs(kind, nprocs)).unwrap();
    let region = dsm.alloc_array::<u32>("page", 1024, BlockGranularity::Word);
    dsm.run(|ctx| {
        let me = ctx.node();
        let quarter = 1024 / ctx.nprocs();
        for phase in 0..4u32 {
            let mut g = ctx.lock(LockId::new(me as u32), LockMode::Exclusive);
            for k in 0..quarter {
                g.set(region, me * quarter + k, phase * 100 + me as u32 + k as u32);
            }
            drop(g);
            ctx.barrier(BarrierId::new(0));
            let mut sum = 0u64;
            for i in 0..1024 {
                sum = sum.wrapping_add(ctx.get(region, i) as u64);
            }
            assert!(sum != u64::MAX);
            ctx.barrier(BarrierId::new(1));
        }
    })
}

#[test]
fn hlrc_needs_fewer_messages_per_miss_under_false_sharing() {
    for (lrc_kind, hlrc_kind) in [
        (ImplKind::lrc_diff(), ImplKind::hlrc_diff()),
        (ImplKind::lrc_time(), ImplKind::hlrc_time()),
        (ImplKind::lrc_ci(), ImplKind::hlrc_ci()),
    ] {
        let lrc = false_sharing_run(lrc_kind);
        let hlrc = false_sharing_run(hlrc_kind);
        assert_eq!(
            lrc.traffic.access_misses, hlrc.traffic.access_misses,
            "{lrc_kind} vs {hlrc_kind}: the invalidate protocol is shared, misses must agree"
        );
        assert!(lrc.traffic.access_misses > 0);
        let per_miss =
            |r: &RunResult| r.traffic.data_messages as f64 / r.traffic.access_misses as f64;
        assert!(
            per_miss(&hlrc) < per_miss(&lrc),
            "{hlrc_kind} should need fewer data messages per miss than {lrc_kind} \
             ({} vs {} data messages over {} misses)",
            hlrc.traffic.data_messages,
            lrc.traffic.data_messages,
            lrc.traffic.access_misses,
        );
        // Stronger: even counting the eager home flushes, total data traffic
        // is lower, because every homeless miss pays 3 concurrent writers.
        assert!(
            hlrc.traffic.data_messages < lrc.traffic.data_messages,
            "{hlrc_kind}: {} data msgs should undercut {lrc_kind}: {}",
            hlrc.traffic.data_messages,
            lrc.traffic.data_messages,
        );
    }
}

/// HLRC flushes are data-reply-class traffic recorded at release time: a
/// remote writer's release produces data-reply messages even before any
/// reader misses.
#[test]
fn hlrc_flushes_are_data_reply_traffic_at_release() {
    let mut dsm = Dsm::new(DsmConfig::with_procs(ImplKind::hlrc_diff(), 2)).unwrap();
    let region = dsm.alloc_array::<u32>("r", 1024, BlockGranularity::Word);
    let result = dsm.run(|ctx| {
        // Page 0's round-robin home is node 0, so only node 1's publish
        // crosses the network; nobody ever reads remotely.
        if ctx.node() == 1 {
            ctx.set(region, 0, 7);
        }
        ctx.barrier(BarrierId::new(0));
    });
    let flusher = result.stats.node(1);
    assert_eq!(flusher.messages_of(MsgKind::DataReply), 1);
    assert_eq!(flusher.messages_of(MsgKind::DataRequest), 0);
    assert_eq!(result.stats.node(0).messages_of(MsgKind::DataReply), 0);
    assert_eq!(result.final_at(region, 0), 7);
}

/// The twelve-member matrix is what the family exposes.
#[test]
fn family_is_twelve_wide() {
    assert_eq!(ImplKind::all().len(), 12);
    for model in [Model::Hlrc, Model::Adaptive] {
        assert_eq!(
            ImplKind::all()
                .iter()
                .filter(|k| k.model() == model)
                .count(),
            3
        );
    }
}
