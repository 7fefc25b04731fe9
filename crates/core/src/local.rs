//! Per-node (per simulated processor) private state.
//!
//! Each node owns a full copy of every shared region, plus the bookkeeping
//! the write-trapping mechanisms need: per-page twins, written-block bits
//! (software dirty bits), and — for LRC — per-page records of which remote
//! intervals have already been applied.

use dsm_mem::{pages_in, BitSet, BufferPool, RegionDesc, PAGE_SIZE};
use dsm_sim::{Charge, CostModel, NodeClock, NodeId, NodeStats, SimTime};

use crate::ids::{LockId, LockMode};

/// Number of word-granularity blocks in one page.
pub(crate) const WORDS_PER_PAGE: usize = PAGE_SIZE / 4;

/// Per-page private state of one node.
#[derive(Debug, Default)]
pub(crate) struct LocalPage {
    /// Twin (unmodified copy) of the page, present while the page is dirty
    /// under twinning write trapping.
    pub twin: Option<Vec<u8>>,
    /// Word-level written bits (software dirty bits) for this page, allocated
    /// lazily on the first write.
    pub written: Option<BitSet>,
    /// True if the page has been modified since the start of the current
    /// interval (LRC) and is awaiting publication.
    pub dirty: bool,
    /// EC large-object twinning: the number of exclusive holdings that armed
    /// (write-protected) this page.  While it is non-zero the next write to
    /// the page takes a simulated protection fault and creates a twin, and
    /// the twin lives until the last of those holdings releases: two held
    /// locks whose bindings share the page both compare against it.
    pub armed: u32,
    /// LRC: per-processor interval index whose modifications to this page
    /// have been applied to the local copy.
    pub applied: Vec<u32>,
    /// LRC: the node-local epoch at which this page's freshness was last
    /// verified; if it equals the node's current epoch the page is known
    /// up to date and accesses proceed without consulting the shared state.
    pub checked_epoch: u64,
    /// LRC: the region's publish generation *plus one* as of the last
    /// freshness check that left this page fully caught up (every publish to
    /// the page applied, `applied[q] >= latest[q]` for all `q`), or 0 if the
    /// last check left entitled-but-unseen intervals pending.  While the
    /// region generation still equals `checked_gen - 1` the page is fresh in
    /// *every* epoch — no publish exists that any acquire could entitle us
    /// to — so the check is a single atomic load, with no region lock and no
    /// per-processor scan.
    pub checked_gen: u64,
}

impl LocalPage {
    /// Returns the written-bit set, allocating it on first use.
    pub fn written_mut(&mut self) -> &mut BitSet {
        self.written
            .get_or_insert_with(|| BitSet::new(WORDS_PER_PAGE))
    }

    /// True if the given word block (page-relative) was written in the
    /// current interval.  The per-word reference walks ask; the library
    /// walks the written bits' runs.
    #[cfg(test)]
    pub fn was_written(&self, word_in_page: usize) -> bool {
        self.written.as_ref().is_some_and(|w| w.get(word_in_page))
    }

    /// Clears all per-interval write-trapping state.
    pub fn clear_interval_state(&mut self) {
        self.twin = None;
        if let Some(w) = &mut self.written {
            w.clear_all();
        }
        self.dirty = false;
    }
}

/// One node's private copy of a shared region plus its page table.
#[derive(Debug)]
pub(crate) struct LocalRegion {
    /// The node's copy of the region contents.
    pub data: Vec<u8>,
    /// Per-page private state.
    pub pages: Vec<LocalPage>,
}

impl LocalRegion {
    /// Creates the node's copy of a region, initialised with `init`.
    pub fn new(desc: &RegionDesc, init: &[u8], nprocs: usize) -> Self {
        let npages = pages_in(desc.len).max(1);
        let mut pages = Vec::with_capacity(npages);
        for _ in 0..npages {
            pages.push(LocalPage {
                applied: vec![0; nprocs],
                ..LocalPage::default()
            });
        }
        LocalRegion {
            data: init.to_vec(),
            pages,
        }
    }

    /// The byte range of page `page`, clamped to the region length.
    pub fn page_span(&self, page: usize) -> std::ops::Range<usize> {
        dsm_mem::page_range(page, self.data.len())
    }
}

/// State of a lock currently held by this node.
#[derive(Debug)]
pub(crate) struct HeldLock {
    /// The mode it was acquired in.
    pub mode: LockMode,
    /// EC small-object twinning: a copy of every bound range's word cover
    /// (the word blocks it touches) taken at acquire time, concatenated in
    /// binding order into one pooled buffer (the layout is recomputed from
    /// the binding at release, which must therefore not change while the
    /// lock is held), compared against the current data at release and then
    /// returned to the node's [`BufferPool`].
    pub small_twins: Option<Vec<u8>>,
    /// EC large-object twinning: the pages that were armed (write-protected)
    /// at acquire, so release can disarm exactly those.
    pub armed_pages: Vec<(usize, usize)>,
}

/// All private state of one simulated processor.
#[derive(Debug)]
pub(crate) struct NodeLocal {
    /// This node's identity.
    pub node: NodeId,
    /// Number of processors in the run.
    pub nprocs: usize,
    /// The node's simulated clock.
    pub clock: NodeClock,
    /// The node's statistics counters.
    pub stats: NodeStats,
    /// The run's cost model, which prices every [`charge`](Self::charge).
    pub cost: CostModel,
    /// The node's copy of every shared region.
    pub regions: Vec<LocalRegion>,
    /// LRC: completed-interval vector (own entry = number of completed
    /// intervals of this node).
    pub vector: dsm_mem::VectorClock,
    /// Bumped at every acquire and barrier; used to avoid re-checking page
    /// freshness on every access (LRC).
    pub epoch: u64,
    /// Locks currently held by this node, keyed by lock id and searched
    /// linearly from the most recent: a node holds a handful of locks at
    /// once (SOR+'s final band, the largest case, holds two per row of its
    /// band).  Kept in acquisition order — a [`LockGuard`](crate::LockGuard)'s
    /// locks are the tail it added, released from the end.
    pub held: Vec<(u32, HeldLock)>,
    /// Pages dirtied during the current interval, awaiting publication at the
    /// next release or barrier (LRC).
    pub dirty_pages: Vec<(usize, usize)>,
    /// The value of this node's own interval counter at its last barrier
    /// arrival (used to size barrier arrival messages).
    pub intervals_at_last_barrier: u32,
    /// Scratch buffer for the LRC stale-source scan, reused across access
    /// misses so the slow path never allocates.  Ownership rule: a hook that
    /// needs it takes it with `std::mem::take` (so `self` stays borrowable)
    /// and must move it back before returning on every path.
    pub scratch_stale: Vec<(usize, u32, u32)>,
    /// Per-node scratch for the LRC publish-history pass (largest entitled
    /// publish interval per node), reused under the same ownership rule as
    /// `scratch_stale` so the freshness check stays O(history + nprocs)
    /// without allocating.
    pub scratch_upto: Vec<u32>,
    /// Scratch vector clock for grant-time merges, reused so `remote_grant`
    /// never clones a release vector.
    pub scratch_clock: dsm_mem::VectorClock,
    /// Reusable buffer pool backing this node's twins (LRC pages, EC pages
    /// and EC small objects).  Twins are taken at the first write (or EC
    /// acquire) of an interval and returned when the interval's publish
    /// retires them, so steady-state epochs allocate nothing.  The pool is
    /// strictly node-private: buffers never cross threads.
    pub pool: BufferPool,
    /// Spare buffer swapped with `dirty_pages` at each publish, so draining
    /// the dirty list does not surrender its capacity (the publish path would
    /// otherwise reallocate the list every interval).
    pub scratch_dirty: Vec<(usize, usize)>,
    /// Emptied [`HeldLock::armed_pages`] lists of released locks, handed to
    /// the next acquires so arming keeps their capacity (a node may hold
    /// several locks at once, hence a stack rather than one spare).
    pub spare_armed: Vec<Vec<(usize, usize)>>,
    /// This node's transport endpoint: where publish frames go under the
    /// channel and socket backends.  `None` under the default simulated
    /// backend, which keeps the publish path branch-only.  Ownership rule:
    /// a publish hook takes it with `Option::take` (so `self` stays
    /// borrowable) and must put it back before returning on every path.
    pub wire: Option<Box<crate::transport::WireEndpoint>>,
    /// Checkpoint/rollback state, `Some` only while a
    /// [`FaultPlan`](crate::FaultPlan) other than `None` is armed — the
    /// fault-free paths pay at most one pointer test for it.
    pub recovery: Option<Box<crate::recovery::RecoveryState>>,
}

impl NodeLocal {
    /// Creates the private state of node `node`, priced by `cost`.
    pub fn new(
        node: NodeId,
        nprocs: usize,
        regions: &[RegionDesc],
        init: &[Vec<u8>],
        cost: CostModel,
    ) -> Self {
        let local_regions = regions
            .iter()
            .zip(init.iter())
            .map(|(desc, init)| LocalRegion::new(desc, init, nprocs))
            .collect();
        NodeLocal {
            node,
            nprocs,
            clock: NodeClock::new(),
            stats: NodeStats::new(),
            cost,
            regions: local_regions,
            vector: dsm_mem::VectorClock::new(nprocs),
            epoch: 1,
            held: Vec::new(),
            dirty_pages: Vec::new(),
            intervals_at_last_barrier: 0,
            scratch_stale: Vec::new(),
            scratch_upto: Vec::new(),
            scratch_clock: dsm_mem::VectorClock::new(nprocs),
            pool: BufferPool::new(),
            scratch_dirty: Vec::new(),
            spare_armed: Vec::new(),
            wire: None,
            recovery: None,
        }
    }

    /// Charges one protocol event or local mechanism: moves the clock by its
    /// price and counts it in the statistics.  Every clock move of the
    /// protocols goes through here, except the `sync_to` waits.
    #[inline(always)]
    pub fn charge(&mut self, charge: Charge) -> SimTime {
        self.stats.count(charge);
        self.clock.charge(&self.cost, charge)
    }

    /// The position of `lock` in [`held`](NodeLocal::held), if this node
    /// holds it.
    pub fn held_index(&self, lock: LockId) -> Option<usize> {
        self.held.iter().rposition(|(id, _)| *id == lock.0)
    }

    /// Appends an undo record for a crash-epoch mutation to shared state,
    /// but only on the fault plan's target node while its crash is still
    /// pending — every other configuration (no plan, non-target node, crash
    /// already fired) records nothing.  The closure keeps the record's
    /// construction off the fault-free fast path.
    #[inline]
    pub fn undo(&mut self, f: impl FnOnce() -> crate::recovery::UndoRec) {
        if let Some(r) = self.recovery.as_deref_mut() {
            if r.is_target && !r.fired {
                r.undo.push(f());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_mem::{BlockGranularity, RegionId};

    fn desc(len: usize) -> RegionDesc {
        RegionDesc::new(RegionId::new(0), "r", len, BlockGranularity::Word)
    }

    #[test]
    fn local_region_has_one_page_table_entry_per_page() {
        let d = desc(PAGE_SIZE * 2 + 10);
        let r = LocalRegion::new(&d, &vec![0u8; d.len], 4);
        assert_eq!(r.pages.len(), 3);
        assert_eq!(r.page_span(2), 2 * PAGE_SIZE..2 * PAGE_SIZE + 10);
        assert_eq!(r.pages[0].applied.len(), 4);
    }

    #[test]
    fn written_bits_are_lazy() {
        let d = desc(100);
        let mut r = LocalRegion::new(&d, &[0u8; 100], 2);
        assert!(r.pages[0].written.is_none());
        assert!(!r.pages[0].was_written(3));
        r.pages[0].written_mut().set(3);
        assert!(r.pages[0].was_written(3));
        r.pages[0].clear_interval_state();
        assert!(!r.pages[0].was_written(3));
    }

    #[test]
    fn node_local_copies_initial_contents() {
        let d = desc(16);
        let init = vec![vec![7u8; 16]];
        let n = NodeLocal::new(NodeId::new(1), 2, &[d], &init, CostModel::free());
        assert_eq!(n.regions[0].data, vec![7u8; 16]);
        assert_eq!(n.vector.len(), 2);
        assert_eq!(n.epoch, 1);
    }
}
