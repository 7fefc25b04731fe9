//! A uniform entry point over the application suite, used by the benchmark
//! harness, the examples and the integration tests.

use std::fmt;

use dsm_core::{
    CostModel, DsmConfig, FaultPlan, ImplKind, RecoveryReport, SimTime, TransportKind,
    TransportReport,
};
use dsm_sim::{Charge, ClusterStats, RegionSharing, TrafficReport};

use crate::params::{AppParams, Scale};
use crate::{barnes_hut, fft, is, quicksort, sor, water};

/// The applications of the study (Table 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    /// Red-Black Successive Over-Relaxation.
    Sor,
    /// SOR with only the boundary rows shared.
    SorPlus,
    /// Task-queue Quicksort.
    Quicksort,
    /// Water molecular dynamics.
    Water,
    /// Barnes-Hut N-body simulation.
    BarnesHut,
    /// NAS Integer Sort.
    IntegerSort,
    /// NAS 3D-FFT.
    Fft3d,
}

impl App {
    /// All applications in the order the paper's tables list them.
    pub const ALL: [App; 7] = [
        App::Sor,
        App::SorPlus,
        App::Quicksort,
        App::Water,
        App::BarnesHut,
        App::IntegerSort,
        App::Fft3d,
    ];

    /// The name used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            App::Sor => "SOR",
            App::SorPlus => "SOR+",
            App::Quicksort => "QS",
            App::Water => "Water",
            App::BarnesHut => "Barnes-Hut",
            App::IntegerSort => "IS",
            App::Fft3d => "3D-FFT",
        }
    }
}

impl fmt::Display for App {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Optional knobs for an application run beyond implementation, scale and
/// processor count.
///
/// The default (`RunOpts::default()`) is the paper's configuration over the
/// simulated transport with no fault plan, which leaves every run
/// byte-identical to the plain [`run_app`] path.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Transport backend carrying the publish stream.
    pub transport: TransportKind,
    /// Deterministic crash-injection plan (see `DESIGN.md` §8); recovery
    /// statistics come back in [`AppReport::recovery`].
    pub fault: FaultPlan,
    /// EC objects of at most this many bytes are twinned eagerly at
    /// write-lock acquire (see [`DsmConfig::ec_small_object_limit`]); 0
    /// falls back to Midway-style copy-on-write faults for every object
    /// (the Section 4.2 ablation).
    pub ec_small_object_limit: usize,
    /// The dirty-bit loop-splitting optimisation (see
    /// [`DsmConfig::ci_loop_optimization`]); `false` is the Section 8.1
    /// ablation.
    pub ci_loop_optimization: bool,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts::on(TransportKind::Simulated)
    }
}

impl RunOpts {
    /// The paper's options over the given transport backend (no fault plan).
    pub fn on(transport: TransportKind) -> Self {
        RunOpts {
            transport,
            fault: FaultPlan::None,
            ec_small_object_limit: dsm_mem::PAGE_SIZE,
            ci_loop_optimization: true,
        }
    }

    /// The configuration an application runs `kind` under on `nprocs`
    /// processors with these options.
    pub fn config(self, kind: ImplKind, nprocs: usize) -> DsmConfig {
        DsmConfig {
            transport: self.transport,
            fault: self.fault,
            ec_small_object_limit: self.ec_small_object_limit,
            ci_loop_optimization: self.ci_loop_optimization,
            ..DsmConfig::with_procs(kind, nprocs)
        }
    }
}

/// The outcome of one application run under one implementation.
#[derive(Debug, Clone)]
pub struct AppReport {
    /// Which application ran.
    pub app: App,
    /// Which implementation ran it.
    pub kind: ImplKind,
    /// Number of simulated processors.
    pub nprocs: usize,
    /// Simulated parallel execution time.
    pub time: SimTime,
    /// Per-node simulated completion times.
    pub node_times: Vec<SimTime>,
    /// Simulated single-processor time of the sequential program.
    pub seq_time: SimTime,
    /// Traffic statistics (messages, bytes, misses, ...).
    pub traffic: TrafficReport,
    /// Per-region page-sharing aggregates (publishes, misses, diff bytes,
    /// distinct writers) — the adaptive policy's decision inputs, surfaced
    /// for the bench bins' JSON rows.  Empty under the EC engines, which
    /// track sharing per bound object rather than per page.
    pub sharing: Vec<RegionSharing>,
    /// Full per-node statistics.
    pub stats: ClusterStats,
    /// Whether the parallel output matched the sequential version.
    pub verified: bool,
    /// Transport-backend report: the FNV-1a fingerprint of the final shared
    /// memory contents and, for the channel/socket backends, how many replicas
    /// independently reconstructed those contents from the publish stream.
    pub wire: TransportReport,
    /// Checkpoint/recovery statistics (all zero unless a
    /// [`FaultPlan`] was armed via [`RunOpts::fault`]).
    pub recovery: RecoveryReport,
}

impl AppReport {
    /// Speedup over the sequential version.
    pub fn speedup(&self) -> f64 {
        if self.time.as_nanos() == 0 {
            return 0.0;
        }
        self.seq_time.as_secs_f64() / self.time.as_secs_f64()
    }
}

/// Simulated single-processor execution time of the sequential version of an
/// application at the given scale: the price of the work its `sequential`
/// function reports.
pub fn sequential_time(app: App, scale: Scale, cost: &CostModel) -> SimTime {
    let p = AppParams::at(scale);
    let work = match app {
        App::Sor | App::SorPlus => sor::sequential(&p.sor).1,
        App::Quicksort => quicksort::sequential(&p.quicksort).1,
        App::Water => water::sequential(&p.water).1,
        App::BarnesHut => barnes_hut::sequential(&p.barnes).1,
        App::IntegerSort => is::sequential(&p.is).1,
        App::Fft3d => fft::sequential(&p.fft).2,
    };
    cost.price(Charge::Compute(work))
}

/// Runs one application under one implementation at the given scale and
/// processor count, over the default simulated transport.
pub fn run_app(app: App, kind: ImplKind, nprocs: usize, scale: Scale) -> AppReport {
    run_app_opts(app, kind, nprocs, scale, RunOpts::default())
}

/// Like [`run_app`], but with the full option set: a transport backend
/// ([`RunOpts::on`]) whose replicas rebuild the final memory contents on
/// real threads or sockets and verify them against the engines' master
/// copies (see `AppReport::wire`), and a [`FaultPlan`] that kills one node
/// at a chosen barrier and recovers it from its last checkpoint (the
/// crash/checkpoint/recover subsystem of `DESIGN.md` §8).  With
/// `RunOpts::default()` this is exactly [`run_app`].
pub fn run_app_opts(
    app: App,
    kind: ImplKind,
    nprocs: usize,
    scale: Scale,
    opts: RunOpts,
) -> AppReport {
    let p = AppParams::at(scale);
    let cost = DsmConfig::paper(kind).cost;
    let seq_time = sequential_time(app, scale, &cost);
    let (result, verified) = match app {
        App::Sor => sor::run_opts(kind, nprocs, &p.sor, false, opts),
        App::SorPlus => sor::run_opts(kind, nprocs, &p.sor, true, opts),
        App::Quicksort => quicksort::run_opts(kind, nprocs, &p.quicksort, opts),
        App::Water => water::run_opts(kind, nprocs, &p.water, opts),
        App::BarnesHut => barnes_hut::run_opts(kind, nprocs, &p.barnes, opts),
        App::IntegerSort => is::run_opts(kind, nprocs, &p.is, opts),
        App::Fft3d => fft::run_opts(kind, nprocs, &p.fft, opts),
    };
    AppReport {
        app,
        kind,
        nprocs,
        time: result.time,
        node_times: result.node_times,
        seq_time,
        traffic: result.traffic,
        sharing: result.sharing,
        stats: result.stats,
        verified,
        wire: result.wire,
        recovery: result.recovery,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_names_match_the_paper() {
        let names: Vec<&str> = App::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            vec!["SOR", "SOR+", "QS", "Water", "Barnes-Hut", "IS", "3D-FFT"]
        );
    }

    #[test]
    fn run_app_produces_a_verified_report() {
        let report = run_app(App::IntegerSort, ImplKind::lrc_diff(), 2, Scale::Tiny);
        assert!(report.verified);
        assert!(report.time.as_nanos() > 0);
        assert!(report.seq_time.as_nanos() > 0);
        assert!(report.speedup() > 0.0);
        assert!(report.traffic.messages > 0);
    }

    #[test]
    fn small_object_twinning_is_a_run_option() {
        let water = |opts| run_app_opts(App::Water, ImplKind::ec_time(), 2, Scale::Tiny, opts);
        let eager = water(RunOpts::default());
        let faulting = water(RunOpts {
            ec_small_object_limit: 0,
            ..RunOpts::default()
        });
        assert!(eager.verified && faulting.verified);
        assert!(
            faulting.traffic.write_faults > eager.traffic.write_faults,
            "copy-on-write twinning must take more write faults"
        );
    }

    #[test]
    fn loop_splitting_is_a_run_option() {
        let sor = |opts| run_app_opts(App::Sor, ImplKind::ec_ci(), 2, Scale::Tiny, opts);
        let split = sor(RunOpts::default());
        let naive = sor(RunOpts {
            ci_loop_optimization: false,
            ..RunOpts::default()
        });
        assert!(split.verified && naive.verified);
        // The same stores, each one dearer without loop splitting.
        assert_eq!(
            naive.stats.total().instrumented_writes,
            split.stats.total().instrumented_writes
        );
        assert!(naive.time > split.time);
    }

    #[test]
    fn sequential_times_are_positive_for_every_app() {
        let cost = dsm_sim::CostModel::atm_lan_1996();
        for app in App::ALL {
            assert!(
                sequential_time(app, Scale::Tiny, &cost).as_nanos() > 0,
                "{app}"
            );
        }
    }
}
