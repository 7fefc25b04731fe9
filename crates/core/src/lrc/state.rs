//! Shared (engine-side) state of the LRC protocol family: master copies,
//! block stamps, per-page publish history and per-lock release vectors.
//!
//! The state is placement-independent: every page mode operates on the same
//! structures — a page's [`PageMode`](dsm_mem::PageMode) only changes *where
//! data moves* (and what that movement costs), never what the ordering core
//! records.

use std::collections::VecDeque;

use dsm_mem::{PageSharing, VectorClock};
use dsm_sim::NodeId;

/// Wire size of an LRC `(processor, interval)` timestamp: "each of the
/// timestamps consists of a processor identifier and an interval index"
/// (Section 5.3); charged as 2 + 4 bytes.
pub(crate) const STAMP_WIRE_BYTES: usize = 6;

/// Wire size of a write notice: region id, page index and the interval that
/// modified the page.
pub(crate) const NOTICE_WIRE_BYTES: usize = 4 + 4 + STAMP_WIRE_BYTES;

/// Packs an LRC `(node, interval)` timestamp into a `u64` (0 = never written).
pub(crate) fn pack_stamp(node: NodeId, interval: u32) -> u64 {
    ((node.index() as u64 + 1) << 32) | interval as u64
}

/// Unpacks a stamp produced by [`pack_stamp`]; `None` for the never-written
/// sentinel.
pub(crate) fn unpack_stamp(stamp: u64) -> Option<(NodeId, u32)> {
    if stamp == 0 {
        None
    } else {
        Some((
            NodeId::new((stamp >> 32) as u32 - 1),
            (stamp & 0xffff_ffff) as u32,
        ))
    }
}

/// One publish to a page: the writer, its interval, its publish-time
/// vector, and the encoded diff's traffic accounting.  The bounded per-page
/// history of these records is the simulation's stand-in for the write
/// notices a real node would have received, and for the diffs its writers
/// keep: freshness and responder decisions read only the records the
/// faulting node's vector *entitles* it to, so a concurrent publish the node
/// has not yet synchronized with can never change the outcome of its check.
/// (The raw `latest` high water marks are updated racily by design and must
/// only feed monotone, stats-neutral fast paths such as the caught-up
/// check.)
#[derive(Debug, Clone)]
pub(crate) struct PagePub {
    /// The publishing node.
    pub node: NodeId,
    /// The interval the publish ended.
    pub interval: u32,
    /// The publisher's vector at publish time (own entry already bumped).
    pub clock: VectorClock,
    /// Wire size of the run-length encoded diff of this publish (see
    /// [`diff_size`](crate::engine::diff_size)); 0 for a pinned owner's.
    pub encoded_size: usize,
    /// Words compared against the twin to build the diff (charged lazily to
    /// the first requester under homeless diff collection).
    pub compare_words: usize,
    /// Whether the diff-creation cost has been charged yet.
    pub creation_charged: bool,
}

/// Per-page lazy-release-consistency state.
#[derive(Debug, Clone)]
pub(crate) struct LrcPageState {
    /// Per node: the latest interval in which that node published
    /// modifications to this page (0 = never).
    pub latest: Vec<u32>,
    /// Ring of recent publishes to this page, oldest first, at most
    /// [`DIFF_RING`](crate::engine::DIFF_RING) long (see [`PagePub`]).
    pub history: VecDeque<PagePub>,
    /// Per node: the largest publish interval that has been evicted from
    /// `history` (0 = none).  Below this mark the engine conservatively
    /// assumes the page was touched.
    pub evicted_latest: Vec<u32>,
    /// Sharing-statistics accumulator: publish/miss/diff-byte counts per
    /// observation window plus run totals.  Every LRC family records into
    /// it (the totals feed [`TrafficReport`](dsm_sim::TrafficReport)
    /// sharing roll-ups); only the `ALRC-*` controller closes windows and
    /// acts on them.  Recorded strictly under the region write lock.
    pub sharing: PageSharing,
}

impl LrcPageState {
    /// Empty page state for a cluster of `nprocs` processors.
    pub fn new(nprocs: usize) -> Self {
        LrcPageState {
            latest: vec![0; nprocs],
            history: VecDeque::new(),
            evicted_latest: vec![0; nprocs],
            sharing: PageSharing::new(nprocs),
        }
    }

    /// Appends a publish record for `node` ending `interval` with
    /// publish-time vector `clock`, keeping at most `ring` records, and
    /// returns it for the caller to fill in the diff's accounting.
    ///
    /// A full ring evicts its oldest record into [`evicted_latest`] and
    /// recycles the record's vector buffer, so steady-state publishes
    /// allocate nothing.
    ///
    /// [`evicted_latest`]: LrcPageState::evicted_latest
    pub fn push_pub(
        &mut self,
        node: NodeId,
        interval: u32,
        clock: &VectorClock,
        ring: usize,
    ) -> &mut PagePub {
        let rec = if self.history.len() >= ring {
            let mut old = self.history.pop_front().expect("non-empty ring");
            let slot = &mut self.evicted_latest[old.node.index()];
            *slot = (*slot).max(old.interval);
            old.node = node;
            old.interval = interval;
            old.clock.copy_from(clock);
            old
        } else {
            PagePub {
                node,
                interval,
                clock: clock.clone(),
                encoded_size: 0,
                compare_words: 0,
                creation_charged: false,
            }
        };
        self.history.push_back(rec);
        self.history.back_mut().expect("just pushed")
    }

    /// The most recent publish to this page that `vector` entitles its owner
    /// to see, as an index into `history`, if any record of it is still
    /// retained.
    pub fn last_entitled_pub(&self, vector: &VectorClock) -> Option<usize> {
        self.history
            .iter()
            .enumerate()
            .rev()
            .find(|(_, rec)| rec.interval <= vector.entry(rec.node))
            .map(|(i, _)| i)
    }
}

/// Per-region lazy-release-consistency state.
#[derive(Debug)]
pub(crate) struct LrcRegionState {
    /// Latest published value of every byte.
    pub master: Vec<u8>,
    /// Per word block: packed `(node, interval)` timestamp of the last
    /// publish (0 = never).  See [`pack_stamp`]/[`unpack_stamp`].
    pub stamp: Vec<u64>,
    /// Per page metadata.
    pub pages: Vec<LrcPageState>,
}

/// Per-lock lazy-release-consistency state.
#[derive(Debug)]
pub(crate) struct LrcLockState {
    /// The releaser's vector at the last release of the lock.
    pub release_vec: VectorClock,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_packing_roundtrips() {
        assert_eq!(unpack_stamp(0), None);
        let s = pack_stamp(NodeId::new(3), 17);
        assert_eq!(unpack_stamp(s), Some((NodeId::new(3), 17)));
        let s = pack_stamp(NodeId::new(0), 0);
        assert_ne!(s, 0, "node 0 interval 0 must not collide with the sentinel");
    }

    #[test]
    fn last_entitled_pub_skips_unentitled_records() {
        let mut ps = LrcPageState::new(4);
        let mut v1 = VectorClock::new(4);
        v1.set_entry(NodeId::new(1), 3);
        ps.push_pub(NodeId::new(1), 3, &v1, 8);
        let mut v2 = VectorClock::new(4);
        v2.set_entry(NodeId::new(2), 9);
        ps.push_pub(NodeId::new(2), 9, &v2, 8);

        // Entitled to node 1's interval 3 but not node 2's interval 9: the
        // newest *entitled* record wins, whatever landed after it.
        let mut mine = VectorClock::new(4);
        mine.set_entry(NodeId::new(1), 5);
        mine.set_entry(NodeId::new(2), 8);
        let last = ps.last_entitled_pub(&mine).expect("one entitled record");
        assert_eq!(ps.history[last].node, NodeId::new(1));
        assert_eq!(ps.history[last].interval, 3);

        // Entitled to both: the newest record wins.
        mine.set_entry(NodeId::new(2), 9);
        let last = ps.last_entitled_pub(&mine).unwrap();
        assert_eq!(ps.history[last].node, NodeId::new(2));

        // Entitled to neither.
        let nothing = VectorClock::new(4);
        assert!(ps.last_entitled_pub(&nothing).is_none());
    }

    #[test]
    fn ring_recycles_evicted_records() {
        // Push five records through a ring of three: the retained records
        // keep their exact publish-time vectors, and the evicted ones raise
        // their writers' `evicted_latest` marks.
        let mut ps = LrcPageState::new(3);
        let mut clocks = Vec::new();
        let mut v = VectorClock::new(3);
        for i in 1..=5u32 {
            let node = NodeId::new(i % 3);
            v.bump(node);
            v.set_entry(NodeId::new(2), v.entry(NodeId::new(2)) + i);
            clocks.push(v.clone());
            ps.push_pub(node, v.entry(node), &v, 3);
        }
        assert_eq!(ps.history.len(), 3);
        // Records 0 and 1 were evicted; 2, 3, 4 remain at indices 0, 1, 2.
        for (rec, want) in ps.history.iter().zip(&clocks[2..]) {
            assert_eq!(&rec.clock, want, "record of {:?}", rec.node);
        }
        // Record 0 was node 1's interval 1, record 1 node 2's interval 4.
        assert_eq!(ps.evicted_latest, vec![0, 1, 4]);
    }
}
