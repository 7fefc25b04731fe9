//! The per-layer report: counters the library keeps in `RunResult`, span
//! percentiles the benchmark times around its calls, and the fixed list of
//! `<module>.<metric>` names every traced run prints, whichever workload
//! ran (a layer a workload does not reach reads 0).

use dsm_core::RunResult;

use crate::report::Metrics;
use crate::trace::SpanKind;

/// `RunResult` counters summed over the runs of a phase.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub runs: u64,
    lock_acquires: u64,
    local_lock_acquires: u64,
    lock_transfers: u64,
    barriers: u64,
    shared_accesses: u64,
    access_misses: u64,
    pages_invalidated: u64,
    write_notices_received: u64,
    diffs_created: u64,
    diff_words: u64,
    diffs_applied: u64,
    words_applied: u64,
    page_bits_checked: u64,
    migrations: u64,
    twins_created: u64,
    twin_words: u64,
    ts_blocks_scanned: u64,
    pool_recycled: u64,
    pool_allocated: u64,
    frames_sent: u64,
    frames_coalesced: u64,
    wire_bytes_payload: u64,
    wire_bytes_meta: u64,
    frames_applied: u64,
    messages: u64,
    sync_messages: u64,
    data_messages: u64,
}

impl Counters {
    pub fn add(&mut self, r: &RunResult) {
        let n = r.stats.total();
        let t = &r.traffic;
        let w = &r.wire;
        self.runs += 1;
        self.lock_acquires += n.lock_acquires;
        self.local_lock_acquires += n.local_lock_acquires;
        self.lock_transfers += t.lock_transfers;
        self.barriers += n.barriers;
        self.shared_accesses += n.shared_accesses;
        self.access_misses += n.access_misses;
        self.pages_invalidated += n.pages_invalidated;
        self.write_notices_received += n.write_notices_received;
        self.diffs_created += n.diffs_created;
        self.diff_words += n.diff_words;
        self.diffs_applied += n.diffs_applied;
        self.words_applied += n.words_applied;
        self.page_bits_checked += n.page_bits_checked;
        self.migrations += r.migrations.len() as u64;
        self.twins_created += n.twins_created;
        self.twin_words += n.twin_words;
        self.ts_blocks_scanned += n.ts_blocks_scanned;
        self.pool_recycled += n.pool_recycled;
        self.pool_allocated += n.pool_allocated;
        self.frames_sent += w.frames_sent;
        self.frames_coalesced += w.frames_coalesced;
        self.wire_bytes_payload += w.wire_bytes_payload;
        self.wire_bytes_meta += w.wire_bytes_meta;
        self.frames_applied += w.frames_applied;
        self.messages += t.messages;
        self.sync_messages += t.sync_messages;
        self.data_messages += t.data_messages;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// p50 and p99 of one span kind (ns) with the number of spans behind them.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStat {
    pub p50_ns: f64,
    pub p99_ns: f64,
    pub samples: u64,
}

/// The span kinds reported as `<name>_ns.p50` / `.p99`: the per-operation
/// boundaries.  Spawn, preload and finish happen once per round and are
/// reported under `runtime` and `transport` instead.
pub const OP_SPANS: [SpanKind; 8] = [
    SpanKind::Acquire,
    SpanKind::Release,
    SpanKind::Barrier,
    SpanKind::Probe,
    SpanKind::Get,
    SpanKind::Put,
    SpanKind::Cas,
    SpanKind::Delete,
];

/// Everything a traced run reports.  Counters are per run of the phase that
/// produced them: per KV round (a fixed number of ops) or per paper-apps
/// suite (the 24 app × implementation runs).
#[derive(Debug, Clone, Default)]
pub struct LayerReport {
    pub counters: Counters,
    /// Indexed like [`OP_SPANS`].
    pub spans: [SpanStat; 8],
    pub hit_ratio: f64,
    pub cas_ok_ratio: f64,
    pub new_s: f64,
    pub alloc_s: f64,
    pub preload_s: f64,
    pub spawn_ms: f64,
    pub finish_ms: f64,
    /// `(App, impl) -> host seconds`, in [`crate::apps::pair_names`] order.
    pub app_host_s: Vec<f64>,
    /// Host seconds of each app's sequential reference, in
    /// [`crate::apps::APPS`] order.
    pub reference_s: Vec<f64>,
    pub trace_overhead: f64,
    /// Samples behind the round-level timings (rounds, or runs).
    pub rounds: u64,
}

impl LayerReport {
    /// Pushes the full per-layer metric list, in a fixed order.
    pub fn push(&self, m: &mut Metrics) {
        let c = &self.counters;
        let runs = c.runs.max(1);
        let per = |v: u64| v as f64 / runs as f64;
        let count = |m: &mut Metrics, name: &str, v: u64| m.push(name, "count", per(v), c.runs);
        count(m, "sync.lock_acquires", c.lock_acquires);
        count(m, "sync.local_lock_acquires", c.local_lock_acquires);
        count(m, "sync.lock_transfers", c.lock_transfers);
        count(m, "sync.barriers", c.barriers);
        self.push_spans(m, &OP_SPANS[..3]);
        count(m, "context.shared_accesses", c.shared_accesses);
        self.push_spans(m, &OP_SPANS[3..4]);
        count(m, "lrc.access_misses", c.access_misses);
        count(m, "lrc.pages_invalidated", c.pages_invalidated);
        count(m, "lrc.write_notices_received", c.write_notices_received);
        count(m, "lrc.diffs_created", c.diffs_created);
        count(m, "lrc.diff_words", c.diff_words);
        count(m, "lrc.diffs_applied", c.diffs_applied);
        count(m, "lrc.words_applied", c.words_applied);
        count(m, "lrc.page_bits_checked", c.page_bits_checked);
        count(m, "lrc.migrations", c.migrations);
        count(m, "ec.twins_created", c.twins_created);
        count(m, "ec.twin_words", c.twin_words);
        count(m, "ec.ts_blocks_scanned", c.ts_blocks_scanned);
        m.push(
            "mem.pool_hit_ratio",
            "ratio",
            ratio(c.pool_recycled, c.pool_recycled + c.pool_allocated),
            c.runs,
        );
        count(m, "transport.frames_sent", c.frames_sent);
        count(m, "transport.frames_coalesced", c.frames_coalesced);
        m.push(
            "transport.coalesce_ratio",
            "ratio",
            ratio(c.frames_coalesced, c.frames_sent),
            c.runs,
        );
        count(m, "transport.wire_bytes_payload", c.wire_bytes_payload);
        count(m, "transport.wire_bytes_meta", c.wire_bytes_meta);
        count(m, "transport.frames_applied", c.frames_applied);
        m.push("transport.finish_ms", "ms", self.finish_ms, self.rounds);
        count(m, "sim.messages", c.messages);
        count(m, "sim.sync_messages", c.sync_messages);
        count(m, "sim.data_messages", c.data_messages);
        m.push("kvservice.hit_ratio", "ratio", self.hit_ratio, c.runs);
        m.push("kvservice.cas_ok_ratio", "ratio", self.cas_ok_ratio, c.runs);
        self.push_spans(m, &OP_SPANS[4..]);
        m.push("runtime.new_s", "s", self.new_s, self.rounds);
        m.push("runtime.alloc_s", "s", self.alloc_s, self.rounds);
        m.push("runtime.preload_s", "s", self.preload_s, self.rounds);
        m.push("runtime.spawn_ms", "ms", self.spawn_ms, self.rounds);
        let pairs = crate::apps::pair_names();
        for (i, name) in pairs.iter().enumerate() {
            let v = self.app_host_s.get(i).copied().unwrap_or(0.0);
            m.push(format!("apps.{name}.host_s"), "s", v, u64::from(v > 0.0));
        }
        for (i, app) in crate::apps::APPS.iter().enumerate() {
            let v = self.reference_s.get(i).copied().unwrap_or(0.0);
            m.push(
                format!("apps.{}.reference_s", crate::apps::metric_name(*app)),
                "s",
                v,
                u64::from(v > 0.0),
            );
        }
        m.push("trace_overhead", "ratio", self.trace_overhead, self.rounds);
    }

    fn push_spans(&self, m: &mut Metrics, kinds: &[SpanKind]) {
        for &k in kinds {
            let i = OP_SPANS.iter().position(|&o| o == k).expect("op span");
            let s = self.spans[i];
            m.push(format!("{}_ns.p50", k.name()), "ns", s.p50_ns, s.samples);
            m.push(format!("{}_ns.p99", k.name()), "ns", s.p99_ns, s.samples);
        }
    }
}
