//! The paper-apps workload: the paper's table applications at paper scale,
//! each under EC-time, LRC-diff, HLRC-diff and ALRC-diff, two processors.
//!
//! Each app is called through its own `<app>::run_opts`, which checks its
//! output against the sequential program once; `run_app` would run the
//! sequential program a second time to price the speedup.  QS is left out
//! (see the README).  The inputs are the paper's, so the seed changes
//! nothing here.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use dsm_apps::runner::RunOpts;
use dsm_apps::{barnes_hut, fft, is, sor, water, App, AppParams, Scale};
use dsm_core::{ImplKind, RunResult};

use crate::layers::{Counters, LayerReport};
use crate::report::{latency_summary, median, Metrics, Outcome};
use crate::PROCS;

/// The apps, in the paper's table order.
pub const APPS: [App; 6] = [
    App::Sor,
    App::SorPlus,
    App::Water,
    App::BarnesHut,
    App::IntegerSort,
    App::Fft3d,
];

/// The implementations each app runs under.
pub fn impls() -> [ImplKind; 4] {
    [
        ImplKind::ec_time(),
        ImplKind::lrc_diff(),
        ImplKind::hlrc_diff(),
        ImplKind::adaptive_diff(),
    ]
}

/// The app's name as it appears in metric names (`SOR+` has a character
/// metric names may not use).
pub fn metric_name(app: App) -> &'static str {
    match app {
        App::SorPlus => "SORplus",
        other => other.name(),
    }
}

/// `<App>.<impl>` for every pair, app-major.
pub fn pair_names() -> Vec<String> {
    APPS.iter()
        .flat_map(|&a| {
            impls()
                .into_iter()
                .map(move |k| format!("{}.{}", metric_name(a), k.name()))
        })
        .collect()
}

fn run_one(app: App, kind: ImplKind, p: &AppParams) -> (RunResult, bool) {
    let opts = RunOpts::default();
    match app {
        App::Sor => sor::run_opts(kind, PROCS, &p.sor, false, opts),
        App::SorPlus => sor::run_opts(kind, PROCS, &p.sor, true, opts),
        App::Water => water::run_opts(kind, PROCS, &p.water, opts),
        App::BarnesHut => barnes_hut::run_opts(kind, PROCS, &p.barnes, opts),
        App::IntegerSort => is::run_opts(kind, PROCS, &p.is, opts),
        App::Fft3d => fft::run_opts(kind, PROCS, &p.fft, opts),
        App::Quicksort => unreachable!("QS is not in the suite"),
    }
}

/// Runs the app's sequential program (the reference `run_opts` checks
/// against) and returns its host seconds.
fn time_reference(app: App, p: &AppParams) -> f64 {
    let t0 = Instant::now();
    match app {
        App::Sor | App::SorPlus => {
            black_box(sor::sequential(&p.sor));
        }
        App::Water => {
            black_box(water::sequential(&p.water));
        }
        App::BarnesHut => {
            black_box(barnes_hut::sequential(&p.barnes));
        }
        App::IntegerSort => {
            black_box(is::sequential(&p.is));
        }
        App::Fft3d => {
            black_box(fft::sequential(&p.fft));
        }
        App::Quicksort => unreachable!("QS is not in the suite"),
    }
    t0.elapsed().as_secs_f64()
}

/// One pass over the 24 pairs.
struct Suite {
    wall_s: f64,
    /// Host seconds per pair, in [`pair_names`] order.
    run_s: Vec<f64>,
    sim_s: f64,
    sim_mb: f64,
    counters: Counters,
    failed: u64,
    problems: Vec<String>,
}

fn run_suite(p: &AppParams) -> Suite {
    let start = Instant::now();
    let mut s = Suite {
        wall_s: 0.0,
        run_s: Vec::with_capacity(APPS.len() * impls().len()),
        sim_s: 0.0,
        sim_mb: 0.0,
        counters: Counters::default(),
        failed: 0,
        problems: Vec::new(),
    };
    for app in APPS {
        for kind in impls() {
            let t0 = Instant::now();
            let run = catch_unwind(AssertUnwindSafe(|| run_one(app, kind, p)));
            s.run_s.push(t0.elapsed().as_secs_f64());
            match run {
                Ok((result, verified)) => {
                    if !verified {
                        s.failed += 1;
                        s.problems
                            .push(format!("{app} {kind}: output not verified"));
                    }
                    s.sim_s += result.seconds();
                    s.sim_mb += result.traffic.bytes as f64 / 1e6;
                    s.counters.add(&result);
                }
                Err(_) => {
                    s.failed += 1;
                    s.problems.push(format!("{app} {kind}: run panicked"));
                }
            }
        }
    }
    s.wall_s = start.elapsed().as_secs_f64();
    s
}

/// Warm-up passes at tiny scale: the workload's set-up.  They fault in the
/// code and allocator and time the fixed cost of 24 runs (`Dsm::new`,
/// engine build, spawn, finish) that paper-scale host time hides.
const WARMUPS: usize = 30;

/// Paper-scale passes an untraced run makes at least.
const MIN_PASSES: usize = 3;

/// Runs the suite at `scale`: at least [`MIN_PASSES`] passes, more while
/// the next is expected to end within `seconds`.  An op is one app run.
/// `host_s` sums each pair's median over the passes, so load that disturbs
/// part of one pass moves only the pairs it overlapped.  The latency pair
/// describes whole passes (median and slowest): the 24 runs of a pass are
/// 24 different programs, not samples of one.  Traced: one pass, plus the
/// per-pair host times and the sequential references.
pub fn run(scale: Scale, seconds: f64, traced: bool) -> Outcome {
    let p = AppParams::at(scale);
    let pairs = APPS.len() * impls().len();
    let (mut attempted, mut failed, mut problems) = (0u64, 0u64, Vec::new());
    let mut absorb = |s: &Suite, attempted: &mut u64| {
        *attempted += pairs as u64;
        failed += s.failed;
        problems.extend(s.problems.iter().cloned());
    };
    let mut metrics = Metrics::default();

    if traced {
        let suite = run_suite(&p);
        absorb(&suite, &mut attempted);
        let layers = LayerReport {
            counters: suite.counters.clone(),
            app_host_s: suite.run_s.clone(),
            reference_s: APPS.iter().map(|&a| time_reference(a, &p)).collect(),
            // The untraced run times the same calls the same way: no spans
            // are added on this workload.
            trace_overhead: 1.0,
            rounds: 1,
            ..LayerReport::default()
        };
        layers.push(&mut metrics);
    } else {
        let tiny = AppParams::at(Scale::Tiny);
        let mut setup: Vec<f64> = (0..WARMUPS)
            .map(|_| {
                let s = run_suite(&tiny);
                absorb(&s, &mut attempted);
                s.wall_s
            })
            .collect();
        let budget = Duration::from_secs_f64(seconds);
        let start = Instant::now();
        let mut suites: Vec<Suite> = Vec::new();
        while suites.len() < MIN_PASSES
            || suites.last().is_some_and(|last| {
                start.elapsed() + Duration::from_secs_f64(last.wall_s) <= budget
            })
        {
            let s = run_suite(&p);
            absorb(&s, &mut attempted);
            suites.push(s);
        }
        let med = |f: &dyn Fn(&Suite) -> f64| {
            let mut v: Vec<f64> = suites.iter().map(f).collect();
            median(&mut v)
        };
        let n = suites.len() as u64;
        let host_s: f64 = (0..pairs).map(|i| med(&|s| s.run_s[i])).sum();
        let mut pass_ns: Vec<u64> = suites.iter().map(|s| (s.wall_s * 1e9) as u64).collect();
        let (p50, slowest) = latency_summary(&mut pass_ns);
        metrics.push("ops_per_s", "1/s", pairs as f64 / host_s, pairs as u64 * n);
        metrics.push("op_p50_us", "us", p50, n);
        metrics.push("op_p99_us", "us", slowest, n);
        metrics.push("host_s", "s", host_s, pairs as u64 * n);
        metrics.push("sim_s", "s", med(&|s| s.sim_s), n);
        metrics.push("sim_mb", "MB", med(&|s| s.sim_mb), n);
        metrics.push("setup_s", "s", median(&mut setup), WARMUPS as u64);
        if let Some(rss) = crate::report::peak_rss_mb() {
            metrics.push("peak_rss_mb", "MB", rss, 1);
        }
    }
    Outcome {
        attempted,
        failed,
        problems,
        metrics,
    }
}
