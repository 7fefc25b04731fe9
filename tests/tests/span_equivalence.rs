//! Span-API equivalence: `read_into`/`write_from` must be observationally
//! identical to element-wise `get`/`set` — same final region contents,
//! same traffic report, same per-node statistics counters, same page-sharing
//! rows — under every implementation (EC/LRC × twinning/instrumentation ×
//! collection).
//!
//! Deterministic xorshift-driven traces replace `proptest` (the build
//! environment is offline); every case is reproducible from its printed
//! seed.  The traces are race-free (each processor writes only its own
//! page-aligned slab, reads happen between barriers) so per-node counters
//! are scheduling-independent; simulated *times* are not compared because
//! the lazy diff-creation charge goes to whichever racing reader reaches
//! the page first, which the paper's protocol itself leaves unordered.

use dsm_core::{
    BarrierId, BlockGranularity, Dsm, DsmConfig, ImplKind, LockId, LockMode, Model, RunResult,
};
use dsm_mem::testutil::TestRng as Rng;

/// u32 elements in one page.
const PAGE_ELEMS: usize = dsm_mem::PAGE_SIZE / 4;
/// Region size: four full pages plus a partial fifth page.
const ELEMS: usize = 4 * PAGE_ELEMS + 100;

/// One span access: `len` elements starting at `start` (plus a value seed
/// for writes).
#[derive(Debug, Clone)]
struct Op {
    start: usize,
    len: usize,
    seed: u64,
}

/// One bulk-synchronous phase: per-processor writes (own slab only), then a
/// barrier, then per-processor reads (anywhere), then a barrier.
#[derive(Debug, Clone)]
struct Phase {
    writes: Vec<Vec<Op>>,
    reads: Vec<Vec<Op>>,
}

/// The page-aligned slab of elements owned by processor `me` (the last
/// processor also takes the partial tail page), keeping every page
/// single-writer so the trace is race-free under both models.
fn slab(me: usize, nprocs: usize) -> (usize, usize) {
    let per = (ELEMS / nprocs) / PAGE_ELEMS * PAGE_ELEMS;
    let lo = me * per;
    let hi = if me == nprocs - 1 { ELEMS } else { lo + per };
    (lo, hi)
}

fn gen_phases(rng: &mut Rng, nprocs: usize) -> Vec<Phase> {
    (0..3)
        .map(|_| Phase {
            writes: (0..nprocs)
                .map(|p| {
                    let (lo, hi) = slab(p, nprocs);
                    (0..rng.in_range(1, 4))
                        .map(|_| {
                            let len = rng.in_range(1, (hi - lo).min(600));
                            Op {
                                start: lo + rng.below(hi - lo - len + 1),
                                len,
                                seed: rng.next_u64(),
                            }
                        })
                        .collect()
                })
                .collect(),
            reads: (0..nprocs)
                .map(|_| {
                    (0..rng.in_range(1, 4))
                        .map(|_| {
                            // Read spans cross slab and page boundaries.
                            let len = rng.in_range(1, 1500);
                            Op {
                                start: rng.below(ELEMS - len + 1),
                                len,
                                seed: 0,
                            }
                        })
                        .collect()
                })
                .collect(),
        })
        .collect()
}

fn value(seed: u64, k: usize) -> u32 {
    (seed as u32)
        .wrapping_add(k as u32)
        .wrapping_mul(0x9E37_79B9)
}

/// Executes the trace with either the span APIs or the element-wise loop.
fn run_trace(kind: ImplKind, nprocs: usize, phases: &[Phase], slices: bool) -> RunResult {
    let mut dsm = Dsm::new(DsmConfig::with_procs(kind, nprocs)).expect("valid config");
    let data = dsm.alloc_array::<u32>("span-data", ELEMS, BlockGranularity::Word);
    // One full page per checksum slot: a shared page would have several
    // writers, whose publish-vs-trap races make miss counts scheduling
    // dependent (legitimately — for both access styles).
    let sums = dsm.alloc_array::<u32>("span-sums", nprocs * PAGE_ELEMS, BlockGranularity::Word);
    dsm.init_array(data, |i| i as u32);
    if kind.model() == Model::Ec {
        for p in 0..nprocs {
            let (lo, hi) = slab(p, nprocs);
            dsm.bind(LockId::new(p as u32), [data.range(lo, hi - lo)]);
            dsm.bind(
                LockId::new((nprocs + p) as u32),
                [sums.range(p * PAGE_ELEMS, 1)],
            );
        }
    }
    let barrier = BarrierId::new(0);
    dsm.run(|ctx| {
        let me = ctx.node();
        let own = LockId::new(me as u32);
        let mut buf = vec![0u32; ELEMS];
        let mut checksum = 0u64;
        for phase in phases {
            let mut g = ctx.lock(own, LockMode::Exclusive);
            for op in &phase.writes[me] {
                for (k, slot) in buf[..op.len].iter_mut().enumerate() {
                    *slot = value(op.seed, k);
                }
                if slices {
                    g.write_from(data, op.start, &buf[..op.len]);
                } else {
                    for (k, &v) in buf[..op.len].iter().enumerate() {
                        g.set(data, op.start + k, v);
                    }
                }
            }
            drop(g);
            ctx.barrier(barrier);
            for op in &phase.reads[me] {
                if slices {
                    ctx.read_into(data, op.start, &mut buf[..op.len]);
                    for &v in &buf[..op.len] {
                        checksum = checksum.wrapping_add(v as u64);
                    }
                } else {
                    for k in 0..op.len {
                        checksum = checksum.wrapping_add(ctx.get(data, op.start + k) as u64);
                    }
                }
            }
            ctx.barrier(barrier);
        }
        // Publishing the checksum makes "the reads saw the same bytes" part
        // of the final-contents comparison.
        let sum_lock = LockId::new((ctx.nprocs() + me) as u32);
        ctx.lock(sum_lock, LockMode::Exclusive)
            .set(sums, me * PAGE_ELEMS, checksum as u32);
        ctx.barrier(barrier);
    })
}

#[test]
fn span_apis_match_element_wise_access_exactly() {
    for seed in 0..4u64 {
        for nprocs in [1usize, 4] {
            let mut rng = Rng::new(seed * 131 + 7);
            let phases = gen_phases(&mut rng, nprocs);
            for kind in ImplKind::all() {
                let by_elem = run_trace(kind, nprocs, &phases, false);
                let by_span = run_trace(kind, nprocs, &phases, true);
                let ctxt = format!("seed {seed}, {kind}, {nprocs} procs");
                assert_eq!(
                    by_elem.stats, by_span.stats,
                    "{ctxt}: per-node statistics diverged"
                );
                assert_eq!(
                    by_elem.traffic, by_span.traffic,
                    "{ctxt}: traffic report diverged"
                );
                assert_eq!(
                    by_elem.sharing, by_span.sharing,
                    "{ctxt}: page-sharing rows diverged"
                );
            }
        }
    }
}

#[test]
fn span_apis_produce_identical_region_contents() {
    for seed in 0..4u64 {
        for nprocs in [1usize, 4] {
            let mut rng = Rng::new(seed * 977 + 13);
            let phases = gen_phases(&mut rng, nprocs);
            for kind in ImplKind::all() {
                let run = |slices| {
                    let result = run_trace(kind, nprocs, &phases, slices);
                    // Array handles are per-`Dsm`; rebuild them for reading.
                    let mut probe = Dsm::new(DsmConfig::with_procs(kind, nprocs)).unwrap();
                    let data = probe.alloc_array::<u32>("span-data", ELEMS, BlockGranularity::Word);
                    let sums = probe.alloc_array::<u32>(
                        "span-sums",
                        nprocs * PAGE_ELEMS,
                        BlockGranularity::Word,
                    );
                    (result.final_array(data), result.final_array(sums))
                };
                let (data_e, sums_e) = run(false);
                let (data_s, sums_s) = run(true);
                let ctxt = format!("seed {seed}, {kind}, {nprocs} procs");
                assert_eq!(data_e, data_s, "{ctxt}: final data contents diverged");
                assert_eq!(sums_e, sums_s, "{ctxt}: read checksums diverged");
            }
        }
    }
}
