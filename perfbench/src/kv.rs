//! The two KV workloads: closed-loop traffic against `dsm-kvservice` from
//! two simulated processors, one op per critical section, reads locked
//! (`ReadConsistency::Lock`).
//!
//! A run is a series of rounds.  Each round makes its traces from the seed
//! (before any timing), sets up a fresh store (`Dsm::new`, `KvStore::alloc`
//! and a preload that puts every key once), replays the traces, and checks
//! the results.  Rounds repeat until the time budget is spent, and the
//! reported figures are medians over rounds.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dsm_core::{
    BarrierId, Dsm, DsmConfig, ImplKind, LockMode, Model, ProcessContext, RunResult, TransportKind,
};
use dsm_kvservice::workload::{gen_trace, KeySampler, MixSpec};
use dsm_kvservice::{
    fill_value, CasOutcome, KvConfig, KvOp, KvStats, KvStore, PutOutcome, ReadConsistency,
};

use crate::layers::{Counters, LayerReport, SpanStat, OP_SPANS};
use crate::report::{latency_summary, median, quantile, Metrics, Outcome};
use crate::trace::{durations, write_chrome_trace, Span, SpanBuf, SpanKind, NO_OP};
use crate::PROCS;

/// Ops per processor between barriers.  The barrier closes the wire epoch,
/// which bounds how many frames the channel backend buffers under EC.
const OPS_PER_BARRIER: usize = 4096;

/// Span samples kept per kind for the traced percentiles (4 bytes each).
const SPAN_POOL: usize = 1 << 20;

/// Spans written to the Chrome trace file (from the first traced round).
const CHROME_EVENTS: usize = 20_000;

/// One KV workload.
#[derive(Debug, Clone)]
pub struct KvWorkload {
    pub name: &'static str,
    pub kind: ImplKind,
    pub transport: TransportKind,
    pub mix: MixSpec,
    /// Ops each processor applies per round.
    pub ops_per_proc: usize,
    pub shape: KvConfig,
}

/// 16 shards × 2048 slots of 4-word values.  The key space is half the
/// capacity, so puts never fill a shard.
fn shape() -> KvConfig {
    KvConfig {
        shard_bits: 4,
        slot_bits: 11,
        value_words: 4,
        base_lock: 0,
    }
}

impl KvWorkload {
    /// Read-mostly (95/5) zipf traffic under LRC-diff, simulated transport.
    pub fn read() -> Self {
        KvWorkload {
            name: "kv-read",
            kind: ImplKind::lrc_diff(),
            transport: TransportKind::Simulated,
            mix: MixSpec::ALL[0],
            ops_per_proc: 1 << 17,
            shape: shape(),
        }
    }

    /// Write-heavy (10/90) zipf traffic under EC-time on the channel backend.
    pub fn write() -> Self {
        KvWorkload {
            name: "kv-write",
            kind: ImplKind::ec_time(),
            transport: TransportKind::Channel,
            mix: MixSpec::ALL[2],
            ops_per_proc: 1 << 15,
            shape: shape(),
        }
    }

    /// The same workload with `ops_per_proc` ops per round (smoke tests).
    pub fn with_ops(mut self, ops_per_proc: usize) -> Self {
        self.ops_per_proc = ops_per_proc;
        self
    }

    pub fn keys(&self) -> u64 {
        (self.shape.capacity() / 2) as u64
    }

    /// The mode a locked read takes: read-only under EC, exclusive under the
    /// LRC family, which has no read-only locks (DESIGN.md §12).
    fn read_mode(&self) -> LockMode {
        if self.kind.model() == Model::Ec {
            LockMode::ReadOnly
        } else {
            LockMode::Exclusive
        }
    }

    /// Processor `node`'s trace for `round`: byte-identical for one seed.
    pub fn trace(&self, sampler: &KeySampler, seed: u64, round: u64, node: usize) -> Vec<KvOp> {
        let stream = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(round.wrapping_mul(PROCS as u64) + node as u64 + 1)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9);
        gen_trace(stream, self.ops_per_proc, sampler, &self.mix)
    }
}

/// What one worker leaves behind after a round.
struct NodeState {
    started: Instant,
    ready: Instant,
    done: Instant,
    stats: KvStats,
    /// Per-op host latency (ns), untraced rounds only.
    lat: Vec<u64>,
    spans: Option<SpanBuf>,
    /// Reads that returned a value not of `fill_value` shape.
    torn: u64,
    /// Puts that found their shard full.
    full: u64,
}

/// What one round measured.
struct Round {
    ops: u64,
    ops_per_s: f64,
    p50_us: f64,
    tail_us: f64,
    setup_s: f64,
    new_s: f64,
    alloc_s: f64,
    spawn_s: f64,
    preload_s: f64,
    host_s: f64,
    finish_s: f64,
    sim_s: f64,
    sim_mb: f64,
    stats: KvStats,
    spans: Vec<Span>,
}

/// The checks a finished round must pass; returns the number of failed ops
/// and a line per broken gate.
fn check_round(
    w: &KvWorkload,
    store: &KvStore,
    result: &RunResult,
    nodes: &[NodeState],
    attempted: u64,
    stats: &KvStats,
) -> (u64, Vec<String>) {
    let mut failed = 0;
    let mut problems = Vec::new();
    if stats.ops() != attempted {
        problems.push(format!(
            "{}: KvStats counted {} ops, {} attempted",
            w.name,
            stats.ops(),
            attempted
        ));
        failed += attempted.abs_diff(stats.ops());
    }
    let torn: u64 = nodes.iter().map(|n| n.torn).sum();
    let full: u64 = nodes.iter().map(|n| n.full).sum();
    if torn + full > 0 {
        problems.push(format!(
            "{}: {torn} torn reads, {full} puts into a full shard",
            w.name
        ));
        failed += torn + full;
    }
    let bad = bad_slots(w, store, result);
    if bad > 0 {
        problems.push(format!("{}: {bad} bad slots in the final store", w.name));
        failed += bad;
    }
    if w.transport != TransportKind::Simulated && result.wire.replicas_verified != PROCS {
        problems.push(format!(
            "{}: {} of {PROCS} replicas verified",
            w.name, result.wire.replicas_verified
        ));
        failed += attempted;
    }
    (failed, problems)
}

/// Counts final-store slots that break the store's invariants: a live key
/// outside the key space or the wrong shard, a key stored twice, or a
/// value that is not the `fill_value` of its key and first word (torn).
fn bad_slots(w: &KvWorkload, store: &KvStore, result: &RunResult) -> u64 {
    let cfg = store.config();
    let stride = cfg.stride();
    let mut seen = vec![false; w.keys() as usize + 1];
    let mut want = vec![0u64; cfg.value_words];
    let mut bad = 0;
    for s in 0..cfg.shards() {
        let words = result.final_array(store.shard_array(s));
        for slot in words.chunks_exact(stride) {
            let key = slot[0];
            if key == 0 || key == u64::MAX {
                continue;
            }
            let value = &slot[1..];
            fill_value(key, value[0], &mut want);
            let ok = key <= w.keys()
                && store.shard_of(key) == s
                && !std::mem::replace(&mut seen[key as usize], true)
                && value == want.as_slice();
            bad += u64::from(!ok);
        }
    }
    bad
}

/// Applies one op as one critical section and folds its outcome into
/// `st`.  A traced read is split into the calls `get_into(.., Lock, ..)`
/// makes: the lock, the probe under the guard, and dropping the guard.
#[inline]
fn apply(
    w: &KvWorkload,
    store: &KvStore,
    ctx: &mut ProcessContext<'_>,
    op: KvOp,
    i: u32,
    value: &mut [u64],
    st: &mut NodeState,
) {
    let t0 = Instant::now();
    let mut hit_key = None;
    let kind = match op {
        KvOp::Get { key } => {
            st.stats.gets += 1;
            let hit = match st.spans.as_mut() {
                None => store.get_into(ctx, key, ReadConsistency::Lock, value),
                Some(spans) => {
                    let mut g = ctx.lock(store.shard_lock(store.shard_of(key)), w.read_mode());
                    let t1 = Instant::now();
                    let hit = store.get_into(&mut g, key, ReadConsistency::Local, value);
                    let t2 = Instant::now();
                    drop(g);
                    let t3 = Instant::now();
                    spans.record(SpanKind::Acquire, i, t0, t1);
                    spans.record(SpanKind::Probe, i, t1, t2);
                    spans.record(SpanKind::Release, i, t2, t3);
                    hit
                }
            };
            if hit {
                st.stats.hits += 1;
                hit_key = Some(key);
            }
            SpanKind::Get
        }
        KvOp::Put { key, seed } => {
            st.stats.puts += 1;
            fill_value(key, seed, value);
            match store.put(ctx, key, value) {
                PutOutcome::Inserted => st.stats.inserted += 1,
                PutOutcome::Updated => st.stats.updated += 1,
                PutOutcome::Full => st.full += 1,
            }
            SpanKind::Put
        }
        KvOp::Cas { key, expect, seed } => {
            fill_value(key, seed, value);
            match store.cas(ctx, key, expect, value) {
                CasOutcome::Swapped => st.stats.cas_ok += 1,
                CasOutcome::Mismatch => st.stats.cas_miss += 1,
                CasOutcome::Absent => st.stats.cas_absent += 1,
            }
            SpanKind::Cas
        }
        KvOp::Delete { key } => {
            st.stats.deletes += 1;
            st.stats.deleted += u64::from(store.delete(ctx, key));
            SpanKind::Delete
        }
    };
    let t_end = Instant::now();
    match st.spans.as_mut() {
        None => st.lat.push(t_end.duration_since(t0).as_nanos() as u64),
        Some(spans) => spans.record(kind, i, t0, t_end),
    }
    // Checked outside the timed call: a hit must carry a whole value.
    if let Some(key) = hit_key {
        let mut want = [0u64; 8];
        let want = &mut want[..value.len()];
        fill_value(key, value[0], want);
        st.torn += u64::from(value != &*want);
    }
}

fn timed_barrier(ctx: &mut ProcessContext<'_>, id: u32, st: &mut NodeState) {
    let t0 = Instant::now();
    ctx.barrier(BarrierId::new(id));
    if let Some(spans) = st.spans.as_mut() {
        spans.record(SpanKind::Barrier, NO_OP, t0, Instant::now());
    }
}

/// Runs one round.  `Err` carries the panic message of a round that died.
fn run_round(
    w: &KvWorkload,
    traces: &[Vec<KvOp>],
    traced: bool,
) -> Result<(Round, RunResult, u64, Vec<String>), String> {
    let span_cap = w.ops_per_proc * 4 + w.ops_per_proc / OPS_PER_BARRIER + 8;
    let epoch = Instant::now();
    let nodes: Vec<Mutex<NodeState>> = (0..PROCS)
        .map(|p| {
            Mutex::new(NodeState {
                started: epoch,
                ready: epoch,
                done: epoch,
                stats: KvStats::new(w.shape.shards()),
                lat: if traced {
                    Vec::new()
                } else {
                    Vec::with_capacity(w.ops_per_proc)
                },
                spans: traced.then(|| SpanBuf::new(p, span_cap, epoch)),
                torn: 0,
                full: 0,
            })
        })
        .collect();

    let t_new = Instant::now();
    let mut cfg = DsmConfig::with_procs(w.kind, PROCS);
    cfg.transport = w.transport.clone();
    let mut dsm = Dsm::new(cfg).expect("valid config");
    let t_alloc = Instant::now();
    let store = KvStore::alloc(&mut dsm, w.kind.model(), w.shape);
    let t_call = Instant::now();
    let keys = w.keys();
    let run = catch_unwind(AssertUnwindSafe(|| {
        dsm.run(|ctx| {
            let started = Instant::now();
            let me = ctx.node();
            let mut guard = nodes[me].lock().expect("node state lock");
            let st = &mut *guard;
            st.started = started;
            let mut value = vec![0u64; w.shape.value_words];
            // Each worker preloads the keys of its own shards, so set-up
            // takes no lock away from the other worker.
            for key in (1..=keys).filter(|&k| store.shard_of(k) % PROCS == me) {
                fill_value(key, key & 0xf, &mut value);
                if store.put(ctx, key, &value) == PutOutcome::Full {
                    st.full += 1;
                }
            }
            ctx.barrier(BarrierId::new(0));
            st.ready = Instant::now();
            if let Some(spans) = st.spans.as_mut() {
                spans.record(SpanKind::Preload, NO_OP, started, st.ready);
            }
            for (i, op) in traces[me].iter().enumerate() {
                apply(w, &store, ctx, *op, i as u32, &mut value, st);
                if (i + 1) % OPS_PER_BARRIER == 0 {
                    timed_barrier(ctx, 1, st);
                }
            }
            timed_barrier(ctx, 2, st);
            st.done = Instant::now();
        })
    }));
    let t_ret = Instant::now();
    let result = run.map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string())
    })?;

    let nodes: Vec<NodeState> = nodes
        .into_iter()
        .map(|m| m.into_inner().expect("worker finished"))
        .collect();
    let ops: u64 = traces.iter().map(|t| t.len() as u64).sum();
    let mut stats = KvStats::new(w.shape.shards());
    for n in &nodes {
        stats.merge(&n.stats);
    }
    let (failed, problems) = check_round(w, &store, &result, &nodes, ops, &stats);

    let first_start = nodes.iter().map(|n| n.started).min().expect("nodes");
    let last_start = nodes.iter().map(|n| n.started).max().expect("nodes");
    let first_ready = nodes.iter().map(|n| n.ready).min().expect("nodes");
    let last_ready = nodes.iter().map(|n| n.ready).max().expect("nodes");
    let last_done = nodes.iter().map(|n| n.done).max().expect("nodes");
    let window = last_done.duration_since(first_ready).as_secs_f64();
    let mut lat: Vec<u64> = nodes.iter().flat_map(|n| n.lat.iter().copied()).collect();
    let (p50_us, tail_us) = if lat.is_empty() {
        (0.0, 0.0)
    } else {
        latency_summary(&mut lat)
    };
    let mut spans: Vec<Span> = Vec::new();
    if traced {
        let mut round_spans = SpanBuf::new(PROCS, 2 * PROCS + 1, epoch);
        for n in &nodes {
            round_spans.record(SpanKind::Spawn, NO_OP, t_call, n.started);
        }
        round_spans.record(SpanKind::Finish, NO_OP, last_done, t_ret);
        spans.extend_from_slice(round_spans.spans());
        for n in &nodes {
            let buf = n.spans.as_ref().expect("traced round");
            assert_eq!(buf.dropped, 0, "span buffer sized too small");
            spans.extend_from_slice(buf.spans());
        }
    }
    let round = Round {
        ops,
        ops_per_s: ops as f64 / window,
        p50_us,
        tail_us,
        setup_s: last_ready.duration_since(t_new).as_secs_f64(),
        new_s: t_alloc.duration_since(t_new).as_secs_f64(),
        alloc_s: t_call.duration_since(t_alloc).as_secs_f64(),
        spawn_s: last_start.duration_since(t_call).as_secs_f64(),
        preload_s: last_ready.duration_since(first_start).as_secs_f64(),
        host_s: t_ret.duration_since(first_ready).as_secs_f64(),
        finish_s: t_ret.duration_since(last_done).as_secs_f64(),
        sim_s: result.seconds(),
        sim_mb: result.traffic.bytes as f64 / 1e6,
        stats,
        spans,
    };
    Ok((round, result, failed, problems))
}

/// Runs rounds until `budget` is spent (at least three untraced rounds, so
/// medians exist, or one traced round), feeding each finished round to
/// `sink`.  Returns (attempted, failed, problems).
fn run_phase(
    w: &KvWorkload,
    sampler: &KeySampler,
    seed: u64,
    first_round: u64,
    budget: Duration,
    traced: bool,
    mut sink: impl FnMut(Round, &RunResult),
) -> (u64, u64, Vec<String>) {
    let min_rounds = if traced { 1 } else { 3 };
    let start = Instant::now();
    let (mut attempted, mut failed, mut problems) = (0u64, 0u64, Vec::new());
    let mut round = first_round;
    while round - first_round < min_rounds || start.elapsed() < budget {
        let traces: Vec<Vec<KvOp>> = (0..PROCS)
            .map(|p| w.trace(sampler, seed, round, p))
            .collect();
        let ops: u64 = traces.iter().map(|t| t.len() as u64).sum();
        attempted += ops;
        match run_round(w, &traces, traced) {
            Ok((r, result, f, p)) => {
                failed += f;
                problems.extend(p);
                sink(r, &result);
            }
            Err(msg) => {
                failed += ops;
                problems.push(format!("{} round {round} panicked: {msg}", w.name));
            }
        }
        round += 1;
    }
    (attempted, failed, problems)
}

fn med(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    let mut v: Vec<f64> = rounds.iter().map(f).collect();
    if v.is_empty() {
        0.0
    } else {
        median(&mut v)
    }
}

/// The end-to-end metrics of untraced rounds.
fn end_to_end(rounds: &[Round], m: &mut Metrics) {
    let n = rounds.len() as u64;
    let samples: u64 = rounds.iter().map(|r| r.ops).sum();
    m.push("ops_per_s", "1/s", med(rounds, |r| r.ops_per_s), samples);
    m.push("op_p50_us", "us", med(rounds, |r| r.p50_us), samples);
    m.push("op_p99_us", "us", med(rounds, |r| r.tail_us), samples);
    m.push("host_s", "s", med(rounds, |r| r.host_s), n);
    m.push("sim_s", "s", med(rounds, |r| r.sim_s), n);
    m.push("sim_mb", "MB", med(rounds, |r| r.sim_mb), n);
    m.push("setup_s", "s", med(rounds, |r| r.setup_s), n);
}

/// Runs `w` for `seconds`: untraced rounds only, or (traced) half the
/// budget untraced for counters and the overhead baseline, then half traced
/// for spans.  `out_dir` receives the Chrome trace of a traced run.
pub fn run(
    w: &KvWorkload,
    seed: u64,
    seconds: f64,
    traced: bool,
    out_dir: Option<&std::path::Path>,
) -> Outcome {
    let sampler = KeySampler::zipf(w.keys(), 0.99);
    let mut metrics = Metrics::default();
    let budget = Duration::from_secs_f64(if traced { seconds / 2.0 } else { seconds });
    let mut plain: Vec<Round> = Vec::new();
    let mut counters = Counters::default();
    let (mut attempted, mut failed, mut problems) =
        run_phase(w, &sampler, seed, 0, budget, false, |r, result| {
            counters.add(result);
            plain.push(r);
        });
    if !traced {
        end_to_end(&plain, &mut metrics);
        if let Some(rss) = crate::report::peak_rss_mb() {
            metrics.push("peak_rss_mb", "MB", rss, 1);
        }
        return Outcome {
            attempted,
            failed,
            problems,
            metrics,
        };
    }

    let mut traced_rounds: Vec<Round> = Vec::new();
    let mut pools: Vec<Vec<u32>> = vec![Vec::new(); OP_SPANS.len()];
    let mut chrome: Option<Vec<Span>> = None;
    let first = plain.len() as u64;
    let (a, f, p) = run_phase(w, &sampler, seed, first, budget, true, |mut r, _| {
        for (pool, &kind) in pools.iter_mut().zip(OP_SPANS.iter()) {
            for d in durations(&r.spans, kind) {
                if pool.len() < SPAN_POOL {
                    pool.push(u32::try_from(d).unwrap_or(u32::MAX));
                }
            }
        }
        if chrome.is_none() {
            chrome = Some(std::mem::take(&mut r.spans));
        } else {
            r.spans = Vec::new();
        }
        traced_rounds.push(r);
    });
    attempted += a;
    failed += f;
    problems.extend(p);

    let mut layers = LayerReport {
        counters,
        ..LayerReport::default()
    };
    for (stat, pool) in layers.spans.iter_mut().zip(pools.iter_mut()) {
        if pool.is_empty() {
            continue;
        }
        pool.sort_unstable();
        let v: Vec<f64> = pool.iter().map(|&d| d as f64).collect();
        *stat = SpanStat {
            p50_ns: quantile(&v, 0.5),
            p99_ns: quantile(&v, 0.99),
            samples: v.len() as u64,
        };
    }
    let mut total = KvStats::new(w.shape.shards());
    for r in &plain {
        total.merge(&r.stats);
    }
    layers.hit_ratio = total.hits as f64 / total.gets.max(1) as f64;
    let cas = total.cas_ok + total.cas_miss + total.cas_absent;
    layers.cas_ok_ratio = total.cas_ok as f64 / cas.max(1) as f64;
    layers.new_s = med(&traced_rounds, |r| r.new_s);
    layers.alloc_s = med(&traced_rounds, |r| r.alloc_s);
    layers.preload_s = med(&traced_rounds, |r| r.preload_s);
    layers.spawn_ms = med(&traced_rounds, |r| r.spawn_s) * 1e3;
    layers.finish_ms = med(&traced_rounds, |r| r.finish_s) * 1e3;
    layers.trace_overhead =
        med(&traced_rounds, |r| r.ops_per_s) / med(&plain, |r| r.ops_per_s).max(1e-9);
    layers.rounds = traced_rounds.len() as u64;
    layers.push(&mut metrics);

    if let (Some(dir), Some(mut spans)) = (out_dir, chrome) {
        // The file keeps a prefix in time order, so both workers show.
        spans.sort_by_key(|s| s.start_ns);
        let path = dir.join(format!("{}-seed{seed}.trace.json", w.name));
        if let Err(e) = write_chrome_trace(&path, &spans, CHROME_EVENTS) {
            problems.push(format!("writing {}: {e}", path.display()));
        }
    }
    Outcome {
        attempted,
        failed,
        problems,
        metrics,
    }
}
