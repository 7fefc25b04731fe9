//! The KV tier must serve the same answers whatever protocol carries it:
//! one seeded op trace replayed across {EC-time, LRC-diff, HLRC-diff,
//! ALRC-diff} × {simulated, channel} × {1, 4} processors must land on
//! identical final bucket contents and identical get-result streams.
//!
//! Determinism strategy: the trace is partitioned by shard ownership.  With
//! *static* ownership (processor `p` owns shard `s` iff `s % nprocs == p`)
//! each shard's op sequence is a fixed subsequence of the trace regardless
//! of processor count, so the per-shard get-fingerprint chains are
//! comparable across every configuration.  The *rotating* variant reassigns
//! ownership every chunk (barrier-separated), forcing the shards — data,
//! locks and all — to migrate between nodes mid-run; chains fragment across
//! workers there, so that variant compares final contents and the summed
//! op-outcome counters instead, which the per-shard sequences still fully
//! determine.
//!
//! A separate conflict test aims every processor at the same small key set
//! (no ownership, genuine cas/delete races at 4 procs) and checks the
//! invariants racing cannot break: every surviving value is internally
//! consistent, every cas resolved exactly one way, and the store never
//! reports an impossible outcome.
//!
//! An accounting test runs the benchmark's store shape under all twelve
//! implementations and checks that every op a worker issues is counted in
//! its `KvStats` exactly once.

use dsm_core::{BarrierId, Dsm, DsmConfig, ImplKind, TransportKind};
use dsm_kvservice::workload::{gen_trace, KeySampler, MixSpec};
use dsm_kvservice::{fill_value, KvConfig, KvOp, KvScratch, KvStats, KvStore, ReadConsistency};
use std::sync::Mutex;

/// The four headline implementations the suite replays across.
fn kinds() -> [ImplKind; 4] {
    [
        ImplKind::ec_time(),
        ImplKind::lrc_diff(),
        ImplKind::hlrc_diff(),
        ImplKind::adaptive_diff(),
    ]
}

fn transports() -> [TransportKind; 2] {
    [TransportKind::Simulated, TransportKind::Channel]
}

/// Ops applied together between barriers; ownership rotates per chunk in
/// the rotating variant.
const CHUNK: usize = 256;

/// What one configuration's run boiled down to.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Outcome {
    contents_fnv: u64,
    /// Summed across workers: (gets, hits, puts, inserted, updated, cas_ok,
    /// cas_miss, cas_absent, deletes, deleted).
    counters: [u64; 10],
}

fn summed(stats: &[KvStats]) -> [u64; 10] {
    let mut t = [0u64; 10];
    for s in stats {
        for (slot, v) in t.iter_mut().zip([
            s.gets,
            s.hits,
            s.puts,
            s.inserted,
            s.updated,
            s.cas_ok,
            s.cas_miss,
            s.cas_absent,
            s.deletes,
            s.deleted,
        ]) {
            *slot += v;
        }
    }
    t
}

/// Replays `trace` under one configuration with shard-ownership
/// partitioning.  Returns the run outcome plus the canonical per-shard get
/// chains (static ownership only; `None` when rotating).
fn replay(
    kind: ImplKind,
    transport: TransportKind,
    nprocs: usize,
    trace: &[KvOp],
    rotate: bool,
) -> (Outcome, Option<Vec<u64>>) {
    let mut cfg = DsmConfig::with_procs(kind, nprocs);
    cfg.transport = transport;
    let mut dsm = Dsm::new(cfg).expect("valid config");
    let store = KvStore::alloc(&mut dsm, kind.model(), KvConfig::small());
    let st = store.clone();
    let per_proc: Mutex<Vec<Option<KvStats>>> = Mutex::new(vec![None; nprocs]);
    let result = dsm.run(|ctx| {
        let me = ctx.node();
        let mut scratch = KvScratch::new(st.config());
        let mut stats = KvStats::new(st.config().shards());
        let mut owned: Vec<KvOp> = Vec::with_capacity(CHUNK);
        for (c, chunk) in trace.chunks(CHUNK).enumerate() {
            let twist = if rotate { c } else { 0 };
            owned.clear();
            owned.extend(
                chunk
                    .iter()
                    .filter(|op| (st.shard_of(op.key()) + twist) % nprocs == me)
                    .copied(),
            );
            st.apply_batch(ctx, &owned, ReadConsistency::Lock, &mut scratch, &mut stats);
            // The chunk boundary is a barrier: it hands shard ownership to
            // the next chunk's owner and closes the wire epoch.
            ctx.barrier(BarrierId::new(0));
        }
        ctx.barrier(BarrierId::new(1));
        per_proc.lock().unwrap()[me] = Some(stats);
    });
    let stats: Vec<KvStats> = per_proc
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|s| s.expect("every worker reported"))
        .collect();
    let chains = (!rotate).then(|| {
        (0..store.config().shards())
            .map(|s| stats[s % nprocs].get_fnv[s])
            .collect()
    });
    let outcome = Outcome {
        contents_fnv: store.contents_fnv(&result),
        counters: summed(&stats),
    };
    (outcome, chains)
}

fn balanced_trace(len: usize) -> Vec<KvOp> {
    let sampler = KeySampler::zipf(500, 0.99);
    gen_trace(0xD15C_0BA1, len, &sampler, &MixSpec::ALL[1])
}

#[test]
fn one_trace_many_protocols_static_ownership() {
    let trace = balanced_trace(4096);
    let mut baseline: Option<(Outcome, Vec<u64>)> = None;
    for kind in kinds() {
        for transport in transports() {
            for nprocs in [1usize, 4] {
                let (outcome, chains) = replay(kind, transport.clone(), nprocs, &trace, false);
                let chains = chains.expect("static ownership yields chains");
                assert_ne!(outcome.contents_fnv, 0);
                match &baseline {
                    None => baseline = Some((outcome, chains)),
                    Some((base_out, base_chains)) => {
                        assert_eq!(
                            &outcome,
                            base_out,
                            "{kind}/{}/{nprocs}p diverged from the baseline outcome",
                            transport.label(),
                        );
                        assert_eq!(
                            &chains,
                            base_chains,
                            "{kind}/{}/{nprocs}p: get-result streams differ",
                            transport.label(),
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn one_trace_many_protocols_rotating_ownership() {
    // Shards migrate between owners every chunk: the protocols genuinely
    // move the data, and every configuration must still converge to the
    // same contents and op outcomes.
    let trace = balanced_trace(4096);
    let mut baseline: Option<Outcome> = None;
    for kind in kinds() {
        for transport in transports() {
            for nprocs in [1usize, 4] {
                let (outcome, _) = replay(kind, transport.clone(), nprocs, &trace, true);
                assert_ne!(outcome.contents_fnv, 0);
                match &baseline {
                    None => baseline = Some(outcome),
                    Some(base) => assert_eq!(
                        &outcome,
                        base,
                        "{kind}/{}/{nprocs}p diverged under rotating ownership",
                        transport.label(),
                    ),
                }
            }
        }
    }
}

/// All four processors fire cas/put/delete at the same 32 keys with no
/// ownership discipline: the interleaving is a real race, so exact outcomes
/// vary — the invariants must not.
#[test]
fn contended_cas_delete_interleavings_keep_invariants() {
    const KEYS: u64 = 32;
    const NPROCS: usize = 4;
    for kind in kinds() {
        for transport in transports() {
            let mut cfg = DsmConfig::with_procs(kind, NPROCS);
            cfg.transport = transport.clone();
            let mut dsm = Dsm::new(cfg).expect("valid config");
            let store = KvStore::alloc(&mut dsm, kind.model(), KvConfig::small());
            let st = store.clone();
            let per_proc: Mutex<Vec<Option<KvStats>>> = Mutex::new(vec![None; NPROCS]);
            let final_values: Mutex<Vec<(u64, Vec<u64>)>> = Mutex::new(Vec::new());
            dsm.run(|ctx| {
                let me = ctx.node();
                let sampler = KeySampler::uniform(KEYS);
                // Write-heavy: plenty of put/cas/delete on 32 hot keys.
                let trace = gen_trace(100 + me as u64, 1024, &sampler, &MixSpec::ALL[2]);
                let mut scratch = KvScratch::new(st.config());
                let mut stats = KvStats::new(st.config().shards());
                for chunk in trace.chunks(64) {
                    st.apply_batch(ctx, chunk, ReadConsistency::Lock, &mut scratch, &mut stats);
                }
                ctx.barrier(BarrierId::new(0));
                // One node reads everything back, sequentially consistent,
                // after the barrier ordered every write.
                if me == 0 {
                    let words = st.config().value_words;
                    let mut out = vec![0u64; words];
                    let mut survivors = Vec::new();
                    for key in 1..=KEYS {
                        if st.get_into(ctx, key, ReadConsistency::Lock, &mut out) {
                            survivors.push((key, out.clone()));
                        }
                    }
                    *final_values.lock().unwrap() = survivors;
                }
                ctx.barrier(BarrierId::new(1));
                per_proc.lock().unwrap()[me] = Some(stats);
            });
            let stats: Vec<KvStats> = per_proc
                .into_inner()
                .unwrap()
                .into_iter()
                .map(|s| s.expect("every worker reported"))
                .collect();
            let sums = summed(&stats);
            let [gets, hits, puts, inserted, updated, cas_ok, cas_miss, cas_absent, deletes, deleted] =
                sums;
            let label = transport.label();
            // Every op resolved exactly one way.
            assert_eq!(
                gets + puts + cas_ok + cas_miss + cas_absent + deletes,
                (1024 * NPROCS) as u64,
                "{kind}/{label}: ops lost or double-counted"
            );
            assert!(hits <= gets, "{kind}/{label}: more hits than gets");
            assert_eq!(
                puts,
                inserted + updated,
                "{kind}/{label}: a put neither inserted nor updated"
            );
            assert!(deleted <= deletes, "{kind}/{label}: phantom deletes");
            // The race is real: all three cas outcomes and some deletes
            // actually occur at this contention level.
            assert!(
                cas_ok > 0 && cas_miss > 0 && cas_absent > 0 && deleted > 0,
                "{kind}/{label}: contention did not exercise the conflict paths \
                 (cas {cas_ok}/{cas_miss}/{cas_absent}, deleted {deleted})"
            );
            // Whatever interleaving won, every surviving value is one some
            // put/cas actually wrote: word 0 names the seed and the
            // remaining words must be that seed's fill pattern.
            let survivors = final_values.into_inner().unwrap();
            let words = store.config().value_words;
            for (key, value) in &survivors {
                let mut expect = vec![0u64; words];
                fill_value(*key, value[0], &mut expect);
                assert_eq!(
                    value, &expect,
                    "{kind}/{label}: key {key} holds a torn value"
                );
                assert!(
                    value[0] <= 0xf,
                    "{kind}/{label}: key {key} seed out of window"
                );
            }
        }
    }
}

/// Ops each processor issues in the accounting test.
const ACCOUNTED_OPS: usize = 1024;

/// Replays `ACCOUNTED_OPS` ops of `mix` per processor in `batch`-op critical
/// sections against the benchmark's store shape (16 shards × 2048 slots,
/// 4-word values; zipf(0.99) keys over half the slots, so puts never fill a
/// shard), and asserts that the workers' stats count every op exactly once.
fn check_accounting(
    kind: ImplKind,
    transport: TransportKind,
    nprocs: usize,
    mix: &MixSpec,
    reads: ReadConsistency,
    batch: usize,
) {
    let label = format!(
        "{kind}/{}/{nprocs}p/{}/{reads:?} x{batch}",
        transport.label(),
        mix.name
    );
    let shape = KvConfig {
        shard_bits: 4,
        slot_bits: 11,
        value_words: 4,
        base_lock: 0,
    };
    let sampler = KeySampler::zipf((shape.capacity() / 2) as u64, 0.99);
    let mut cfg = DsmConfig::with_procs(kind, nprocs);
    cfg.transport = transport;
    let mut dsm = Dsm::new(cfg).expect("valid config");
    let store = KvStore::alloc(&mut dsm, kind.model(), shape);
    let total = Mutex::new(0u64);
    dsm.run(|ctx| {
        let trace = gen_trace(ctx.node() as u64 + 1, ACCOUNTED_OPS, &sampler, mix);
        let mut scratch = KvScratch::new(store.config());
        let mut stats = KvStats::new(store.config().shards());
        for chunk in trace.chunks(batch) {
            store.apply_batch(ctx, chunk, reads, &mut scratch, &mut stats);
        }
        ctx.barrier(BarrierId::new(0));
        *total.lock().unwrap() += stats.ops();
    });
    assert_eq!(
        total.into_inner().unwrap(),
        (ACCOUNTED_OPS * nprocs) as u64,
        "{label}: ops lost or double-counted"
    );
}

#[test]
fn every_op_is_accounted_for_under_every_implementation() {
    use ReadConsistency::{Local, Lock};
    // The whole matrix: every mix, one op per locked critical section.
    for kind in ImplKind::all() {
        for mix in &MixSpec::ALL {
            check_accounting(kind, TransportKind::Simulated, 4, mix, Lock, 1);
        }
    }
    // The headline four across processor counts: batched local reads on the
    // read-mostly mix, and per-op locked writes over the channel transport.
    for kind in kinds() {
        for nprocs in [1usize, 4, 8] {
            check_accounting(
                kind,
                TransportKind::Simulated,
                nprocs,
                &MixSpec::ALL[0],
                Local,
                64,
            );
            check_accounting(
                kind,
                TransportKind::Channel,
                nprocs,
                &MixSpec::ALL[2],
                Lock,
                1,
            );
        }
    }
}
