//! The DSM runtime: region allocation, initialisation, and SPMD execution.

use dsm_mem::{BlockGranularity, MemRange, PageModeChange, RegionDesc, RegionId};
use dsm_sim::{ClusterStats, RegionSharing, SimTime, TrafficReport};

use crate::api::SharedArray;
use crate::config::DsmConfig;
use crate::context::ProcessContext;
use crate::engine::{build_engine, ProtocolEngine};
use crate::error::DsmError;
use crate::ids::LockId;
use crate::local::NodeLocal;
use crate::recovery::{self, FaultPlan, RecoveryReport};
use crate::scalar::Scalar;
use crate::sync::{PeerPanicked, SyncTables};
use crate::transport::{Transport, TransportReport, WireEndpoint};

/// Result of one DSM run: simulated execution time, per-node times, traffic
/// statistics, and the final contents of every shared region.
#[derive(Debug)]
pub struct RunResult {
    /// Simulated execution time (the slowest node's clock), the quantity
    /// reported in the paper's Tables 3-5.
    pub time: SimTime,
    /// Per-node simulated completion times.
    pub node_times: Vec<SimTime>,
    /// Per-node statistics.
    pub stats: ClusterStats,
    /// Aggregate traffic report (messages, bytes, misses, ...), including the
    /// lock-transfer totals aggregated from the sharded lock table.
    pub traffic: TrafficReport,
    /// Transport summary: which backend carried the run's publish frames,
    /// how many replicas were verified byte-identical to the master copies,
    /// and the frame/byte traffic on the real backends.
    pub wire: TransportReport,
    /// Per-region sharing profile (publishes, misses, diff bytes, distinct
    /// writers) under the LRC family; empty under EC.
    pub sharing: Vec<RegionSharing>,
    /// The adaptive policy's committed per-page mode changes, in commit
    /// order; empty for every static policy.
    pub migrations: Vec<PageModeChange>,
    /// Checkpoint and rollback counters, summed over all nodes; all zero
    /// under the default [`FaultPlan::None`](crate::FaultPlan::None).
    pub recovery: RecoveryReport,
    region_data: Vec<Vec<u8>>,
}

impl RunResult {
    /// Simulated execution time in seconds.
    pub fn seconds(&self) -> f64 {
        self.time.as_secs_f64()
    }

    /// Reads element `idx` of the final contents of a typed array (the
    /// published master copy).
    ///
    /// For LRC runs the application must end with a barrier (all the paper's
    /// applications do) so that every node's last interval has been published.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn final_at<T: Scalar>(&self, arr: impl Into<SharedArray<T>>, idx: usize) -> T {
        let bytes = &self.region_data[arr.into().ridx()];
        let off = idx * T::SIZE;
        T::read_le(&bytes[off..off + T::SIZE])
    }

    /// Copies the final contents of a typed array out as a vector, decoding
    /// whole chunks at a time ([`Scalar::read_slice_le`]) rather than
    /// element by element.
    pub fn final_array<T: Scalar>(&self, arr: impl Into<SharedArray<T>>) -> Vec<T> {
        let arr = arr.into();
        let bytes = &self.region_data[arr.ridx()];
        let mut out = vec![T::default(); arr.len()];
        T::read_slice_le(&bytes[..out.len() * T::SIZE], &mut out);
        out
    }
}

/// Global state shared by all worker threads of one run: the engine-agnostic
/// sharded synchronization tables plus the consistency engine itself.
pub(crate) struct RunGlobal {
    pub cfg: DsmConfig,
    pub regions: Vec<RegionDesc>,
    pub sync: SyncTables,
    pub engine: Box<dyn ProtocolEngine>,
}

impl std::fmt::Debug for RunGlobal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunGlobal")
            .field("cfg", &self.cfg)
            .field("regions", &self.regions.len())
            .field("engine", &self.engine)
            .finish()
    }
}

/// Fails the run when a panic escapes the worker thread that holds it, so
/// that peers blocked on that worker wake up instead of waiting forever.  It
/// sits outside the recovery supervisor: an injected crash never reaches it.
struct FailOnPanic<'a>(&'a SyncTables);

impl Drop for FailOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.fail();
        }
    }
}

/// The software distributed shared memory system.
///
/// A `Dsm` is configured with one of the twelve implementations of the
/// protocol family ([`ImplKind`](crate::ImplKind)), populated with shared
/// regions, lock bindings (for EC) and initial data, and then executes an
/// SPMD worker closure on every simulated processor.
///
/// # Examples
///
/// ```
/// use dsm_core::{Dsm, DsmConfig, ImplKind, LockId, LockMode, BarrierId};
/// use dsm_mem::BlockGranularity;
/// use dsm_sim::Work;
///
/// let mut dsm = Dsm::new(DsmConfig::with_procs(ImplKind::lrc_diff(), 4))?;
/// let counter = dsm.alloc_array::<u32>("counter", 1, BlockGranularity::Word);
///
/// let result = dsm.run(|ctx| {
///     // Every processor increments the shared counter under a lock; the
///     // guard releases it when dropped.
///     let mut guard = ctx.lock(LockId::new(0), LockMode::Exclusive);
///     guard.modify(counter, 0, |v| v + 1);
///     guard.compute(Work::ops(10));
///     drop(guard);
///     ctx.barrier(BarrierId::new(0));
/// });
///
/// assert_eq!(result.final_at(counter, 0), 4);
/// assert!(result.seconds() > 0.0);
/// assert_eq!(result.traffic.lock_transfers, 4);
/// # Ok::<(), dsm_core::DsmError>(())
/// ```
#[derive(Debug)]
pub struct Dsm {
    cfg: DsmConfig,
    regions: Vec<RegionDesc>,
    init: Vec<Vec<u8>>,
    binds: Vec<(LockId, Vec<MemRange>)>,
}

impl Dsm {
    /// Creates a DSM with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid.
    pub fn new(cfg: DsmConfig) -> Result<Self, DsmError> {
        cfg.validate()?;
        Ok(Dsm {
            cfg,
            regions: Vec::new(),
            init: Vec::new(),
            binds: Vec::new(),
        })
    }

    /// The configuration of this DSM.
    pub fn config(&self) -> &DsmConfig {
        &self.cfg
    }

    /// Allocates a zero-initialised shared region holding `count` elements
    /// of type `T` and returns its typed [`SharedArray`] handle.
    pub fn alloc_array<T: Scalar>(
        &mut self,
        name: impl Into<String>,
        count: usize,
        granularity: BlockGranularity,
    ) -> SharedArray<T> {
        let id = RegionId::new(self.regions.len() as u32);
        let len = count * T::SIZE;
        self.regions
            .push(RegionDesc::new(id, name, len, granularity));
        self.init.push(vec![0; len]);
        SharedArray::new(id, count, granularity)
    }

    /// Initialises a typed array with values produced by `f` (called with
    /// each element index).  Initial data is distributed to all nodes before
    /// the run starts and is not charged any communication cost, mirroring
    /// the paper's practice of excluding input distribution from the timed
    /// section.
    ///
    /// # Panics
    ///
    /// Panics if the array does not belong to this DSM.
    pub fn init_array<T: Scalar>(
        &mut self,
        arr: impl Into<SharedArray<T>>,
        f: impl Fn(usize) -> T,
    ) {
        let arr = arr.into();
        let buf = &mut self.init[arr.ridx()];
        for i in 0..arr.len() {
            f(i).write_le(&mut buf[i * T::SIZE..(i + 1) * T::SIZE]);
        }
    }

    /// Binds shared data to a lock (EC only; ignored under LRC so that the
    /// same setup code can be reused).  The binding may list several
    /// non-contiguous ranges; binding the same lock again replaces its
    /// previous ranges.
    pub fn bind(&mut self, lock: LockId, ranges: impl IntoIterator<Item = MemRange>) {
        self.binds.push((lock, ranges.into_iter().collect()));
    }

    /// Runs `worker` on every simulated processor and returns the result.
    ///
    /// The closure is executed by `nprocs` OS threads, each with its own copy
    /// of the shared regions; it receives a [`ProcessContext`] identifying the
    /// processor and providing the shared-memory and synchronization API.
    ///
    /// # Panics
    ///
    /// If a worker panics, `run` re-raises that panic once every worker has
    /// ended.  Workers blocked on a lock or barrier the failed worker would
    /// have released give up instead of waiting for it.
    pub fn run<F>(&self, worker: F) -> RunResult
    where
        F: Fn(&mut ProcessContext<'_>) + Sync,
    {
        let engine = build_engine(&self.cfg, &self.regions, &self.init);
        // Apply the bindings declared during setup (a no-op under LRC).
        for (lock, ranges) in &self.binds {
            engine.bind(*lock, ranges.clone());
        }

        let global = RunGlobal {
            cfg: self.cfg.clone(),
            regions: self.regions.clone(),
            sync: SyncTables::new(self.cfg.nprocs),
            engine,
        };

        let nprocs = self.cfg.nprocs;
        // The transport hands one endpoint to each worker (None under the
        // default simulated backend) and collects them back after the join
        // to drain and verify the replicas.
        let mut transport = Transport::new(&self.cfg.transport, nprocs, &self.init);
        let mut endpoints: Vec<Option<Box<WireEndpoint>>> = (0..nprocs)
            .map(|p| transport.take_endpoint(dsm_sim::NodeId::new(p as u32)))
            .collect();
        let mut locals = Vec::with_capacity(nprocs);
        let mut panics = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(nprocs);
            for (p, endpoint) in endpoints.iter_mut().enumerate() {
                let global = &global;
                let worker = &worker;
                let regions = &self.regions;
                let init = &self.init;
                let endpoint = endpoint.take();
                handles.push(scope.spawn(move || {
                    let _fail = FailOnPanic(&global.sync);
                    let node = dsm_sim::NodeId::new(p as u32);
                    let cost = global.cfg.cost.clone();
                    let mut local = NodeLocal::new(node, nprocs, regions, init, cost);
                    local.wire = endpoint;
                    let plan = global.cfg.fault;
                    let supervised = plan != FaultPlan::None;
                    if supervised {
                        recovery::install_quiet_hook();
                        recovery::arm(&mut local, plan);
                    }
                    let mut ctx = ProcessContext::new(global, local);
                    if supervised {
                        // Supervisor: run the worker, and when it dies of the
                        // *injected* crash, roll it back to its checkpoint and
                        // replay it.  Genuine panics propagate as before.
                        loop {
                            let run =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    worker(&mut ctx)
                                }));
                            match run {
                                Ok(()) => break,
                                Err(p) if p.is::<recovery::InjectedCrash>() => {
                                    ctx.recover_from_crash();
                                }
                                Err(p) => std::panic::resume_unwind(p),
                            }
                        }
                    } else {
                        worker(&mut ctx);
                    }
                    ctx.into_local()
                }));
            }
            for h in handles {
                match h.join() {
                    Ok(local) => locals.push(local),
                    Err(payload) => panics.push(payload),
                }
            }
        });
        if !panics.is_empty() {
            // A worker that met a peer's panic in a wait has no failure of
            // its own to report: re-raise the first one that does.
            let first = panics.iter().position(|p| !p.is::<PeerPanicked>());
            std::panic::resume_unwind(panics.swap_remove(first.unwrap_or(0)));
        }

        let node_times: Vec<SimTime> = locals.iter().map(|l| l.clock.now()).collect();
        let time = node_times.iter().copied().fold(SimTime::ZERO, SimTime::max);
        let wires: Vec<WireEndpoint> = locals
            .iter_mut()
            .filter_map(|l| l.wire.take())
            .map(|b| *b)
            .collect();
        for l in &mut locals {
            l.stats.pool_recycled = l.pool.recycled();
            l.stats.pool_allocated = l.pool.allocated();
        }
        let stats = ClusterStats::from_nodes(locals.iter().map(|l| l.stats.clone()).collect());
        let mut traffic = stats.traffic();
        traffic.lock_transfers = global.sync.total_lock_transfers();
        let sharing = global.engine.sharing_report();
        let mut recovery_report = RecoveryReport::default();
        for l in &locals {
            if let Some(r) = l.recovery.as_deref() {
                recovery_report.merge(&r.report);
            }
        }
        let migrations = global.engine.migration_trace();
        let region_data = global.engine.final_regions();
        let wire = transport.finish(wires, &region_data);

        RunResult {
            time,
            node_times,
            stats,
            traffic,
            wire,
            sharing,
            migrations,
            recovery: recovery_report,
            region_data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ImplKind;

    #[test]
    fn region_handles_and_ranges() {
        // Each allocation is its own region; ranges are in bytes of it.
        let mut dsm = Dsm::new(DsmConfig::with_procs(ImplKind::ec_time(), 2)).unwrap();
        let a = dsm.alloc_array::<f64>("m", 100, BlockGranularity::DoubleWord);
        let b = dsm.alloc_array::<u32>("n", 3, BlockGranularity::Word);
        assert_eq!(a.range(10, 5), MemRange::new(RegionId::new(0), 80, 40));
        assert_eq!(a.whole(), MemRange::new(RegionId::new(0), 0, 800));
        assert_eq!(b.whole(), MemRange::new(RegionId::new(1), 0, 12));
    }

    #[test]
    fn init_region_fills_typed_values() {
        let mut dsm = Dsm::new(DsmConfig::with_procs(ImplKind::lrc_diff(), 1)).unwrap();
        let a = dsm.alloc_array::<u32>("a", 8, BlockGranularity::Word);
        dsm.init_array(a, |i| i as u32 * 10);
        let result = dsm.run(|ctx| {
            assert_eq!(ctx.get(a, 3), 30);
            ctx.barrier(crate::BarrierId::new(0));
        });
        assert_eq!(result.final_at(a, 7), 70);
        assert_eq!(result.final_array(a).len(), 8);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = DsmConfig::paper(ImplKind::ec_ci());
        cfg.nprocs = 0;
        assert!(Dsm::new(cfg).is_err());
    }

    #[test]
    fn sharing_report_reaches_the_run_result() {
        let mut dsm = Dsm::new(DsmConfig::with_procs(ImplKind::lrc_diff(), 2)).unwrap();
        let a = dsm.alloc_array::<u32>("shared", 4, BlockGranularity::Word);
        let result = dsm.run(|ctx| {
            if ctx.node() == 0 {
                ctx.modify(a, 0, |v| v + 1);
            }
            ctx.barrier(crate::BarrierId::new(0));
            if ctx.node() == 1 {
                assert_eq!(ctx.get(a, 0), 1);
            }
            ctx.barrier(crate::BarrierId::new(1));
        });
        assert_eq!(result.sharing.len(), 1);
        assert_eq!(result.sharing[0].region, "shared");
        assert!(result.sharing[0].publishes >= 1);
        assert!(result.sharing[0].distinct_writers >= 1);
        assert!(
            result.migrations.is_empty(),
            "static policies never migrate"
        );
    }

    #[test]
    fn lock_transfers_are_aggregated_from_the_sharded_table() {
        let mut dsm = Dsm::new(DsmConfig::with_procs(ImplKind::lrc_diff(), 2)).unwrap();
        let a = dsm.alloc_array::<u32>("c", 1, BlockGranularity::Word);
        let result = dsm.run(|ctx| {
            ctx.lock(LockId::new(0), crate::LockMode::Exclusive)
                .modify(a, 0, |v| v + 1);
            ctx.barrier(crate::BarrierId::new(0));
        });
        assert_eq!(result.final_at(a, 0), 2);
        // Each node takes ownership once: two transfers in total.
        assert_eq!(result.traffic.lock_transfers, 2);
    }
}
