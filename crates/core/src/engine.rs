//! The protocol-engine abstraction the two consistency models plug into.
//!
//! The runtime and [`ProcessContext`](crate::ProcessContext) are written
//! against [`ProtocolEngine`] alone: the common mechanics of lock hand-off,
//! barrier rendezvous and typed shared access live in `context.rs`, and every
//! model-specific action — what a grant carries, what a release publishes,
//! what a barrier exchanges, how writes are trapped and how stale pages are
//! refreshed — is a hook on this trait.  `EcEngine` (Midway-style entry
//! consistency) and `LrcEngine` (every LRC family, told apart by a per-page
//! placement table, see `lrc/`) are the implementations; [`build_engine`]
//! picks between them.
//!
//! Engines are shared by every worker thread (`&self` receivers) and shard
//! their own state internally — per-lock metadata behind per-slot mutexes and
//! per-region published state behind per-region `RwLock`s — so hooks for
//! independent locks and regions run concurrently.  See `DESIGN.md` for the
//! sharding layout and the lock-ordering rules.

use dsm_mem::{MemRange, PageModeChange, RegionDesc, VectorClock};
use dsm_sim::{NodeId, RegionSharing};

use crate::config::{DsmConfig, Model};
use crate::ec::EcEngine;
use crate::ids::{LockId, LockMode};
use crate::local::{HeldLock, NodeLocal};
use crate::lrc::LrcEngine;

/// Size of a small control message payload (lock request/forward, barrier
/// bookkeeping) in bytes.
pub(crate) const CTRL_MSG_BYTES: usize = 16;

/// How many publish records (diffs) are retained per lock (EC) or page
/// (LRC) for diff-collection traffic accounting.
pub(crate) const DIFF_RING: usize = 64;

/// Wire size of a run-length encoded diff of `words` changed words in
/// `runs` runs: the words themselves plus a 4-byte offset and a 4-byte
/// length per run.
pub(crate) fn diff_size(words: usize, runs: usize) -> usize {
    words * 4 + runs * 8
}

/// One EC publish record: the modifications one release made to a lock's
/// bound data.  Retained in a bounded ring of [`DIFF_RING`] records per lock
/// for diff-collection traffic accounting.
#[derive(Debug, Clone)]
pub(crate) struct PublishRec {
    /// Global publish sequence number.
    pub stamp: u64,
    /// Wire size of the run-length encoded diff for this publish (see
    /// [`diff_size`]).
    pub encoded_size: usize,
    /// Number of words that had to be compared against the twin to build the
    /// diff (charged lazily to the first requester under diff collection).
    pub compare_words: usize,
    /// Whether the lazy diff-creation cost has been charged yet.
    pub creation_charged: bool,
}

/// The hooks a consistency model implements to run on the sharded runtime.
///
/// Every hook takes `&self` — the engine is shared across worker threads and
/// guards its own state — plus the calling processor's private
/// [`NodeLocal`], whose clock and statistics the hook charges.
pub(crate) trait ProtocolEngine: Send + Sync + std::fmt::Debug {
    /// Declares the memory ranges bound to a lock during setup (EC; a no-op
    /// under LRC so the same setup code serves both models).
    fn bind(&self, lock: LockId, ranges: Vec<MemRange>);

    /// Rebinds a lock to new ranges mid-run (EC; no-op under LRC).
    fn rebind(&self, lock: LockId, ranges: Vec<MemRange>);

    /// Validates an acquire request before any state changes (LRC rejects
    /// read-only locks, as in the paper).
    fn validate_acquire(&self, lock: LockId, mode: LockMode);

    /// Called when a lock is granted from a remote owner: make the data the
    /// model promises consistent at this node and return the grant-message
    /// payload size in bytes.  The caller records the message and charges its
    /// latency.
    fn remote_grant(&self, local: &mut NodeLocal, lock: LockId) -> usize;

    /// Called after an acquire completes (local or remote): arm write
    /// trapping (EC exclusive) or open a new interval epoch (LRC).
    fn after_acquire(&self, local: &mut NodeLocal, lock: LockId, held: &mut HeldLock);

    /// Called before a released lock is made available: publish the
    /// modifications made while it was held.  The held-lock state is mutable
    /// so the hook can retire per-holding buffers (EC small-object twins)
    /// into the node's pool.
    fn before_release(&self, local: &mut NodeLocal, lock: LockId, held: &mut HeldLock);

    /// End-of-interval work at a barrier arrival; returns the arrival-message
    /// payload size in bytes.
    fn barrier_arrive(&self, local: &mut NodeLocal) -> usize;

    /// Departure-side barrier work (LRC: write notices and vector merge);
    /// returns the release-message payload size in bytes.
    fn barrier_depart(
        &self,
        local: &mut NodeLocal,
        old_vector: &VectorClock,
        released_vector: &VectorClock,
    ) -> usize;

    /// Ensures the local copy of a page is fresh before an access (LRC access
    /// miss; EC data is only made consistent at acquires, so this is a no-op
    /// there).
    fn ensure_read_fresh(&self, local: &mut NodeLocal, ridx: usize, page: usize);

    /// Traps a shared write according to the configured mechanism.
    fn trap_write(&self, local: &mut NodeLocal, ridx: usize, off: usize, size: usize) {
        self.trap_write_span(local, ridx, off, size, 1);
    }

    /// Bulk write trap behind [`write_from`](crate::ProcessContext::write_from):
    /// traps `count` contiguous scalar writes covering bytes `off..off + len`
    /// of region `ridx` in one call.
    ///
    /// Contract: the charged costs and statistics must be *identical* to
    /// `count` individual [`trap_write`](ProtocolEngine::trap_write) calls
    /// over the same span (per-access charges are linear in the access
    /// count), but each page's trapping state — twin creation, dirty
    /// arming, written bits — is touched once per page instead of once per
    /// word, by walking the span with [`dsm_mem::for_each_page`].
    fn trap_write_span(
        &self,
        local: &mut NodeLocal,
        ridx: usize,
        off: usize,
        len: usize,
        count: usize,
    );

    /// Reads the most recently published bytes at `off` into `out` without
    /// any consistency action or cost (the [`peek`](crate::ProcessContext::peek)
    /// fast path).
    fn read_master(&self, ridx: usize, off: usize, out: &mut [u8]);

    /// The final published contents of every region, in region order.
    fn final_regions(&self) -> Vec<Vec<u8>>;

    /// Commit-side barrier work, run exactly once per barrier episode by the
    /// last arriver while every other node is blocked in the rendezvous (the
    /// `ALRC-*` controller migrates page modes here); returns the extra payload
    /// (in bytes) every departer's release message must carry.  No-op for
    /// engines without a barrier-time controller.
    fn barrier_commit(&self, _local: &mut NodeLocal) -> usize {
        0
    }

    /// The committed page-mode migration decisions in commit order (empty
    /// for every engine without an adaptive controller).
    fn migration_trace(&self) -> Vec<PageModeChange> {
        Vec::new()
    }

    /// Per-region aggregates of the page sharing statistics the engine
    /// accumulated (empty for engines that do not track them, i.e. EC).
    fn sharing_report(&self) -> Vec<RegionSharing> {
        Vec::new()
    }

    /// Unwinds the crash-epoch mutations `node` made to this engine's shared
    /// state (publish rings, grant watermarks, sharing accumulators).  The
    /// records are in program order; implementations apply the variants they
    /// own **in reverse** and ignore the rest.  No-op for engines whose
    /// shared state the generic rollback already covers.
    fn rollback_undo(&self, _node: NodeId, _undo: &[crate::recovery::UndoRec]) {}
}

/// Builds the engine for a run.  Everything downstream goes through the
/// trait; the LRC families are told apart only when `LrcEngine` builds its
/// placement table.
pub(crate) fn build_engine(
    cfg: &DsmConfig,
    regions: &[RegionDesc],
    init: &[Vec<u8>],
) -> Box<dyn ProtocolEngine> {
    match cfg.kind.model() {
        Model::Ec => Box::new(EcEngine::new(cfg, regions, init)),
        Model::Lrc | Model::Hlrc | Model::Adaptive => Box::new(LrcEngine::new(cfg, regions, init)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ImplKind;
    use dsm_mem::{BlockGranularity, RegionId};

    fn region_setup() -> (Vec<RegionDesc>, Vec<Vec<u8>>) {
        let regions = vec![RegionDesc::new(
            RegionId::new(0),
            "r",
            8192,
            BlockGranularity::Word,
        )];
        let init = vec![vec![0u8; 8192]];
        (regions, init)
    }

    #[test]
    fn build_engine_selects_by_model() {
        let (regions, init) = region_setup();
        for kind in ImplKind::all() {
            let cfg = DsmConfig::with_procs(kind, 4);
            let engine = build_engine(&cfg, &regions, &init);
            // Every engine starts from the initial contents.
            assert_eq!(engine.final_regions(), init);
            let name = format!("{engine:?}");
            assert_eq!(
                name.contains("EcEngine"),
                kind.model() == crate::config::Model::Ec,
                "{kind}: {name}"
            );
        }
    }

    #[test]
    fn read_master_returns_initial_bytes() {
        let (regions, mut init) = region_setup();
        init[0][100] = 42;
        for kind in [ImplKind::ec_time(), ImplKind::lrc_diff()] {
            let cfg = DsmConfig::with_procs(kind, 2);
            let engine = build_engine(&cfg, &regions, &init);
            let mut buf = [0u8; 4];
            engine.read_master(0, 100, &mut buf);
            assert_eq!(buf, [42, 0, 0, 0]);
        }
    }

    #[test]
    fn encoded_size_includes_run_headers() {
        assert_eq!(diff_size(0, 0), 0);
        // Two one-word runs: 8 bytes of data plus two 8-byte run headers.
        assert_eq!(diff_size(2, 2), 8 + 2 * 8);
    }
}
