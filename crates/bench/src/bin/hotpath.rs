//! Micro-benchmark of the per-access hot path: shared reads/sec and shared
//! writes/sec of the simulator itself (host throughput, not simulated time).
//!
//! The paper's thesis is that per-access software overhead decides the
//! EC-vs-LRC contest; this binary measures what *our* per-access pipeline
//! costs.  The workload deliberately churns epochs (one acquire/release per
//! sweep) so that LRC's per-page freshness validation — the part the
//! generation-counter fast path and the span APIs optimise — stays on the
//! measured path instead of being amortised away by a single long epoch.
//!
//! Emits one JSON object per line; `BENCH_hotpath.json` at the repo root
//! records the trajectory across commits.
//!
//! Usage: `cargo run --release -p dsm-bench --bin hotpath [-- --scale tiny|small|paper --procs N]`

use std::time::Instant;

use dsm_apps::Scale;
use dsm_core::{BarrierId, BlockGranularity, Dsm, DsmConfig, ImplKind, LockId, LockMode};

/// Elements (u32) in the shared region: 16 pages.
const ELEMS: usize = 16 * 1024;

fn sweeps(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 24,
        Scale::Small => 96,
        Scale::Paper => 384,
    }
}

struct Row {
    kind: ImplKind,
    op: &'static str,
    api: &'static str,
    accesses: u64,
    pool_recycled: u64,
    pool_allocated: u64,
    sharing: dsm_sim::SharingSummary,
    wall_ms: f64,
    /// Host latency of each critical section (acquire → release), merged
    /// across processors, from the best repetition.
    lat: dsm_bench::LatencyHistogram,
}

impl Row {
    fn print(&self, scale_name: &str, nprocs: usize) {
        println!(
            "{{\"bench\":\"hotpath\",\"impl\":\"{}\",\"op\":\"{}\",\"api\":\"{}\",\
             \"scale\":\"{}\",\"procs\":{},\"accesses\":{},\"wall_ms\":{:.3},\
             \"accesses_per_sec\":{:.0},\"pool_recycled\":{},\"pool_allocated\":{},\
             {},{}}}",
            self.kind.name(),
            self.op,
            self.api,
            scale_name,
            nprocs,
            self.accesses,
            self.wall_ms,
            self.accesses as f64 / (self.wall_ms / 1e3),
            self.pool_recycled,
            self.pool_allocated,
            sharing_fields(&self.sharing),
            self.lat.json_fields("section_"),
        );
    }
}

/// The per-region sharing aggregates as JSON fields (no braces), shared by
/// every row shape this binary emits.
fn sharing_fields(s: &dsm_sim::SharingSummary) -> String {
    format!(
        "\"sharing_publishes\":{},\"sharing_misses\":{},\
         \"sharing_diff_bytes\":{},\"max_region_writers\":{}",
        s.publishes, s.misses, s.diff_bytes, s.max_region_writers
    )
}

/// One timed run: every processor sweeps the whole region (reads) or its own
/// slice (writes) once per acquire/release epoch.  Returns (accesses, best
/// wall ms of 3 repetitions).
fn measure(kind: ImplKind, nprocs: usize, iters: usize, op: &'static str, slices: bool) -> Row {
    let mut best = f64::INFINITY;
    let mut accesses = 0u64;
    let mut totals = dsm_sim::NodeStats::new();
    let mut sharing = dsm_sim::SharingSummary::default();
    let mut lat = dsm_bench::LatencyHistogram::new();
    for _ in 0..3 {
        let mut dsm = Dsm::new(DsmConfig::with_procs(kind, nprocs)).expect("valid config");
        let region = dsm.alloc_array::<u32>("hot", ELEMS, BlockGranularity::Word);
        dsm.init_array(region, |i| i as u32);
        // One lock per processor; under EC nothing is bound to it, so the
        // acquire is pure epoch churn for both models.  The typed accessors
        // are zero-cost wrappers over the raw hot path, so the measured
        // throughput is the same pipeline the apps exercise.
        let per = ELEMS / nprocs;
        let lat_mx = std::sync::Mutex::new(dsm_bench::LatencyHistogram::new());
        let start = Instant::now();
        let result = dsm.run(|ctx| {
            let me = ctx.node();
            let mut buf = vec![0u32; per.max(1)];
            let mut sink = 0u64;
            let mut local = dsm_bench::LatencyHistogram::new();
            for it in 0..iters {
                let t0 = Instant::now();
                {
                    let mut g = ctx.lock(LockId::new(me as u32), LockMode::Exclusive);
                    match (op, slices) {
                        ("read", false) => {
                            for e in 0..ELEMS {
                                sink = sink.wrapping_add(g.get(region, e) as u64);
                            }
                        }
                        ("read", true) => {
                            for chunk in 0..nprocs {
                                g.read_into(region, chunk * per, &mut buf[..per]);
                                sink = sink.wrapping_add(buf[0] as u64);
                            }
                        }
                        ("write", false) => {
                            for e in 0..per {
                                g.set(region, me * per + e, (it + e) as u32);
                            }
                        }
                        ("write", true) => {
                            for (e, slot) in buf[..per].iter_mut().enumerate() {
                                *slot = (it + e) as u32;
                            }
                            g.write_from(region, me * per, &buf[..per]);
                        }
                        _ => unreachable!("op is read|write"),
                    }
                }
                local.record_duration(t0.elapsed());
            }
            std::hint::black_box(sink);
            lat_mx.lock().unwrap().merge(&local);
            ctx.barrier(BarrierId::new(0));
        });
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        if wall_ms < best {
            best = wall_ms;
            lat = lat_mx.into_inner().unwrap();
        }
        totals = result.stats.total();
        accesses = totals.shared_accesses;
        sharing = result.traffic.sharing;
    }
    Row {
        kind,
        op,
        api: if slices { "slice" } else { "scalar" },
        accesses,
        pool_recycled: totals.pool_recycled,
        pool_allocated: totals.pool_allocated,
        sharing,
        wall_ms: best,
        lat,
    }
}

/// One timed *epoch* run, measuring the write/publish/apply data plane rather
/// than per-access overhead: every processor, under one shared lock, first
/// touches one element of every page (an LRC access miss applies the *whole*
/// page, so this drives the full miss/apply path for every foreign publish
/// while keeping read-path time negligible), then rewrites its own slice
/// (write trapping + twin creation) and releases (write collection and
/// publication).  The region is bound to the lock so the EC implementations
/// publish and apply through the same cycle (the grant applies the bound
/// data).  Returns the total number of publish events (releases) and the
/// best wall time of 3 repetitions.
fn measure_epoch(
    kind: ImplKind,
    nprocs: usize,
    iters: usize,
) -> (
    u64,
    dsm_sim::NodeStats,
    dsm_sim::SharingSummary,
    f64,
    dsm_bench::LatencyHistogram,
) {
    const WORDS_PER_PAGE: usize = 1024;
    let mut best = f64::INFINITY;
    let mut totals = dsm_sim::NodeStats::new();
    let mut sharing = dsm_sim::SharingSummary::default();
    let mut lat = dsm_bench::LatencyHistogram::new();
    for _ in 0..3 {
        let mut dsm = Dsm::new(DsmConfig::with_procs(kind, nprocs)).expect("valid config");
        let region = dsm.alloc_array::<u32>("hot", ELEMS, BlockGranularity::Word);
        dsm.init_array(region, |i| i as u32);
        dsm.bind(LockId::new(0), [region.whole()]);
        let per = ELEMS / nprocs;
        let lat_mx = std::sync::Mutex::new(dsm_bench::LatencyHistogram::new());
        let start = Instant::now();
        let result = dsm.run(|ctx| {
            let me = ctx.node();
            let mut mine = vec![0u32; per.max(1)];
            let mut sink = 0u64;
            let mut local = dsm_bench::LatencyHistogram::new();
            for it in 0..iters {
                let t0 = Instant::now();
                let mut g = ctx.lock(LockId::new(0), LockMode::Exclusive);
                for page in 0..ELEMS / WORDS_PER_PAGE {
                    sink = sink.wrapping_add(g.get(region, page * WORDS_PER_PAGE) as u64);
                }
                for (e, slot) in mine[..per].iter_mut().enumerate() {
                    *slot = (it + e) as u32;
                }
                g.write_from(region, me * per, &mine[..per]);
                drop(g);
                local.record_duration(t0.elapsed());
            }
            std::hint::black_box(sink);
            lat_mx.lock().unwrap().merge(&local);
            ctx.barrier(BarrierId::new(0));
        });
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        if wall_ms < best {
            best = wall_ms;
            lat = lat_mx.into_inner().unwrap();
        }
        totals = result.stats.total();
        sharing = result.traffic.sharing;
    }
    ((iters * nprocs) as u64, totals, sharing, best, lat)
}

fn print_epoch(kind: ImplKind, scale_name: &str, nprocs: usize, iters: usize) {
    let (publishes, totals, sharing, wall_ms, lat) = measure_epoch(kind, nprocs, iters);
    println!(
        "{{\"bench\":\"hotpath\",\"impl\":\"{}\",\"op\":\"epoch\",\"api\":\"slice\",\
         \"scale\":\"{}\",\"procs\":{},\"epochs\":{},\"publishes\":{},\"accesses\":{},\
         \"wall_ms\":{:.3},\"publishes_per_sec\":{:.0},\
         \"pool_recycled\":{},\"pool_allocated\":{},{},{}}}",
        kind.name(),
        scale_name,
        nprocs,
        iters,
        publishes,
        totals.shared_accesses,
        wall_ms,
        publishes as f64 / (wall_ms / 1e3),
        totals.pool_recycled,
        totals.pool_allocated,
        sharing_fields(&sharing),
        lat.json_fields("epoch_"),
    );
}

fn main() {
    let opts = dsm_bench::HarnessOpts::from_args();
    let scale_name = match opts.scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Paper => "paper",
    };
    let iters = sweeps(opts.scale);
    dsm_bench::print_json_header(
        "hotpath",
        "best-of-3 wall clock; per-access read/write sweeps plus write+release+acquire epochs",
    );
    let kinds = opts.filter_nonempty(&[
        ImplKind::ec_time(),
        ImplKind::lrc_diff(),
        ImplKind::hlrc_diff(),
        ImplKind::adaptive_diff(),
    ]);
    for kind in kinds {
        for op in ["read", "write"] {
            for slices in [false, true] {
                measure(kind, opts.nprocs, iters, op, slices).print(scale_name, opts.nprocs);
            }
        }
        // 4x the sweep count: one epoch does far less per-access work than a
        // read/write sweep, so extra iterations amortise the run setup
        // (thread spawn, region init) out of the publish-rate measurement.
        print_epoch(kind, scale_name, opts.nprocs, iters * 4);
    }
}
