//! Cross-crate integration tests for the EC/LRC DSM reproduction.
//!
//! The tests live in the `tests/` subdirectory of this package; this library
//! target additionally provides the shared *golden trace* machinery: a seeded,
//! barrier-deterministic workload plus a canonical serialization of a run's
//! observable output (region contents, `TrafficReport`, per-node statistics,
//! simulated clocks), stable across refactors of the engine internals.  Golden files are
//! (re)generated by running the golden tests with `DSM_BLESS_GOLDEN=1`.

use dsm_core::{
    BarrierId, BlockGranularity, Collection, Dsm, DsmConfig, ImplKind, LockId, LockMode, Model,
    RunResult, SharedArray, SimTime,
};
use dsm_mem::wire::fnv64;
use dsm_sim::{MsgKind, NodeStats};

/// Number of pages in the private-page region of the golden trace.
const TRACE_PAGES: usize = 4;
/// u32 words per page.
const WORDS_PER_PAGE: usize = dsm_mem::PAGE_SIZE / 4;

/// Allocates and initialises the two trace regions on a fresh DSM.
fn trace_dsm(kind: ImplKind, nprocs: usize) -> (Dsm, SharedArray<u32>, SharedArray<u32>) {
    assert!(
        nprocs <= TRACE_PAGES,
        "more nodes than pages would make nodes race on a shared page of region A"
    );
    assert!(
        WORDS_PER_PAGE % nprocs == 0,
        "the false-sharing quarters must be disjoint"
    );
    let mut dsm = Dsm::new(DsmConfig::with_procs(kind, nprocs)).expect("valid config");
    // Region A: one page per writer slot, written element-wise and via spans.
    let a = dsm.alloc_array::<u32>(
        "trace-a",
        TRACE_PAGES * WORDS_PER_PAGE,
        BlockGranularity::Word,
    );
    // Region B: a single page every node writes a disjoint slice of (false
    // sharing, the multiple-writer case).
    let b = dsm.alloc_array::<u32>("trace-b", WORDS_PER_PAGE, BlockGranularity::Word);
    dsm.init_array(a, |i| i as u32);
    (dsm, a, b)
}

/// Runs the seeded equivalence trace under `kind` with `nprocs` processors and
/// returns the run result plus the array handles (for content hashing).
///
/// The program is written against the typed API — `SharedArray<u32>`
/// handles, RAII [`dsm_core::LockGuard`]s and typed element/span accessors —
/// and reproduces, byte for byte, the goldens blessed from its raw-API
/// original before the typed layer existed.
///
/// The trace is *deterministic at any supported processor count* — a
/// divisor of the per-page word count no larger than the page count of
/// region A (1, 2 or 4), so every node owns a distinct page of region A and
/// a disjoint slice of the falsely shared page; both preconditions are
/// asserted:
/// synchronization is barrier-structured (each node's lock is private to it,
/// so grants never race), every node writes pages — or disjoint word ranges
/// of a falsely shared page — that no other node writes in the same
/// interval, and all publishes complete at a barrier before any node reads.
/// Under those conditions every counter in the report is a pure function of
/// the program, which is what makes byte-identical golden comparisons
/// meaningful.
pub fn golden_trace(kind: ImplKind, nprocs: usize) -> (RunResult, [SharedArray<u32>; 2]) {
    let (dsm, a, b) = trace_dsm(kind, nprocs);

    let result = dsm.run(|ctx| {
        let me = ctx.node();
        let n = ctx.nprocs();
        let my_lock = LockId::new(me as u32);
        let mut span = vec![0u32; 64];
        let mut buf = vec![0u32; WORDS_PER_PAGE];
        let mut sink = 0u64;
        for phase in 0..4u32 {
            // Interval 1: scattered writes to this node's own page of A.
            {
                let mut g = ctx.lock(my_lock, LockMode::Exclusive);
                let base = me * WORDS_PER_PAGE;
                for k in 0..(32 + phase as usize * 7) {
                    let idx = base + (k * 13 + phase as usize * 29) % WORDS_PER_PAGE;
                    let val = (phase * 100_000 + me as u32 * 1_000 + k as u32) ^ 0x5a5a;
                    g.set(a, idx, val);
                }
                for (k, slot) in span.iter_mut().enumerate() {
                    *slot = phase * 7 + me as u32 + k as u32;
                }
                g.write_from(a, base + 256 + phase as usize * 16, &span);
            }
            ctx.barrier(BarrierId::new(0));

            // Interval 2: this node's quarter of the falsely shared page B.
            let quarter = WORDS_PER_PAGE / n;
            {
                let mut g = ctx.lock(my_lock, LockMode::Exclusive);
                for k in 0..quarter / 2 {
                    g.set(b, me * quarter + k, phase * 31 + me as u32 * 17 + k as u32);
                }
            }
            ctx.barrier(BarrierId::new(1));

            // Read phase: every node sweeps both regions (missing on every
            // page other nodes published).
            for w in 0..TRACE_PAGES * WORDS_PER_PAGE {
                sink = sink.wrapping_add(ctx.get(a, w) as u64);
            }
            ctx.read_into(b, 0, &mut buf);
            sink = sink.wrapping_add(buf[me] as u64);
            ctx.barrier(BarrierId::new(2));
        }
        assert!(sink != u64::MAX, "keep the reads live");
    });
    (result, [a, b])
}

/// Canonical serialization of one node's statistics: every public counter and
/// the per-kind message/byte breakdown, field by field (never `Debug`, whose
/// shape may change).
pub fn canon_node_stats(out: &mut String, idx: usize, s: &NodeStats) {
    use std::fmt::Write;
    write!(out, "node {idx}:").unwrap();
    for kind in MsgKind::ALL {
        write!(
            out,
            " {}={}/{}",
            kind.label(),
            s.messages_of(kind),
            s.bytes_of(kind)
        )
        .unwrap();
    }
    writeln!(
        out,
        " wf={} am={} tw={} tww={} dc={} dw={} da={} wa={} ts={} pb={} iw={} sa={} la={} lla={} \
         ba={} wu={} wn={} pi={}",
        s.write_faults,
        s.access_misses,
        s.twins_created,
        s.twin_words,
        s.diffs_created,
        s.diff_words,
        s.diffs_applied,
        s.words_applied,
        s.ts_blocks_scanned,
        s.page_bits_checked,
        s.instrumented_writes,
        s.shared_accesses,
        s.lock_acquires,
        s.local_lock_acquires,
        s.barriers,
        s.work_units,
        s.write_notices_received,
        s.pages_invalidated,
    )
    .unwrap();
}

/// Canonical serialization of one golden-trace run: a header, a content
/// fingerprint per array (over its little-endian bytes), the aggregate
/// `TrafficReport`, and the per-node statistics in node-id order.
pub fn canon_run(
    kind: ImplKind,
    nprocs: usize,
    result: &RunResult,
    arrays: &[SharedArray<u32>],
) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "impl={} procs={}", kind.name(), nprocs).unwrap();
    for (i, &arr) in arrays.iter().enumerate() {
        let bytes: Vec<u8> = result
            .final_array(arr)
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect();
        writeln!(
            out,
            "region {i}: len={} fnv={:016x}",
            bytes.len(),
            fnv64(&bytes)
        )
        .unwrap();
    }
    writeln!(out, "traffic: {}", result.traffic).unwrap();
    for i in 0..result.stats.num_nodes() {
        canon_node_stats(&mut out, i, result.stats.node(i));
    }
    out
}

/// Canonical serialization of an application report: header, the aggregate
/// `TrafficReport`, and the per-node statistics in node-id order (no region
/// handles are exposed by `AppReport`, so contents are covered by the
/// `verified` flag).
pub fn canon_app(report: &dsm_apps::AppReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "app={} impl={} procs={} verified={}",
        report.app,
        report.kind.name(),
        report.nprocs,
        report.verified
    )
    .unwrap();
    writeln!(out, "traffic: {}", report.traffic).unwrap();
    for i in 0..report.stats.num_nodes() {
        canon_node_stats(&mut out, i, report.stats.node(i));
    }
    out
}

/// Canonical serialization of a run's simulated clocks in integer
/// nanoseconds: the run's time, then every node's clock in node-id order.
///
/// Empty where the time is not a function of the program.  Under homeless
/// diff collection (`LRC-diff`, and `ALRC-diff`, whose pages start homeless)
/// on more than one processor, a miss bills the lazy creation of a writer's
/// diff to whichever fetcher takes the region's write lock first, so which
/// node's clock pays it follows host scheduling (DESIGN.md §10).  Every
/// counter of those runs stays pinned.
pub fn canon_time(kind: ImplKind, nprocs: usize, time: SimTime, node_times: &[SimTime]) -> String {
    let homeless_diffs = kind.collection() == Collection::Diffs
        && matches!(kind.model(), Model::Lrc | Model::Adaptive);
    if nprocs > 1 && homeless_diffs {
        return String::new();
    }
    let nodes: Vec<String> = node_times
        .iter()
        .map(|t| t.as_nanos().to_string())
        .collect();
    format!("time: {} ns, nodes: {}\n", time.as_nanos(), nodes.join(" "))
}

/// Compares `found` against the golden file at `tests/golden/<name>`, or
/// rewrites the file when `DSM_BLESS_GOLDEN` is set, so every golden in the
/// workspace shares one bless/compare protocol.
pub fn check_golden(name: &str, found: &str) {
    let dir = format!("{}/golden", env!("CARGO_MANIFEST_DIR"));
    let path = format!("{dir}/{name}");
    if std::env::var_os("DSM_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, found).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("golden file {path} unreadable ({e}); bless with DSM_BLESS_GOLDEN=1")
    });
    assert_eq!(
        want, found,
        "output diverged from the committed golden file {path}"
    );
}
