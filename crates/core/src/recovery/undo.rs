//! Undo records: the target node's log of crash-epoch mutations to shared
//! state.
//!
//! Between its last clean barrier cut and the injected crash, the doomed
//! node keeps touching structures other nodes can observe: the lock table
//! (transfer counters, last-owner fields), the EC publish rings (incarnation
//! numbers, grant watermarks, publish records, first-miss diff charges) and
//! the LRC sharing accumulators (miss counts, homeless diff charges).  A
//! rollback must unwind those effects so the replayed epoch re-applies them
//! and the cluster-wide counters come out identical to a fault-free run.
//!
//! Records are appended in program order and applied **in reverse**; each
//! names the shared slot it touched so the engines can find it again under
//! the appropriate lock.  Everything the crash epoch publishes *by value*
//! (EC publish frames, flushed data) is either suppressed — the crash fires
//! before the barrier's interval publication — or idempotent on replay, so
//! only these counter-and-ring effects need explicit undo; the argument per
//! variant is spelled out in `DESIGN.md` §8.

use dsm_sim::NodeId;

/// One reversible crash-epoch mutation to shared state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum UndoRec {
    /// `LockSync::transfers` was incremented when the target acquired a
    /// lock it did not own.
    LockTransfer {
        /// Lock slot index.
        lock: usize,
    },
    /// `LockSync::last_owner` was overwritten by the target's exclusive
    /// acquire; restore `prev` (only if the target is still the recorded
    /// owner — a later legitimate acquire by a peer must win).
    LockOwner {
        /// Lock slot index.
        lock: usize,
        /// The owner before the target's acquire.
        prev: Option<NodeId>,
    },
    /// An EC grant to the target bumped the lock's incarnation and advanced
    /// the target's seen-sequence/seen-epoch watermarks.
    EcGrant {
        /// Lock slot index.
        lock: usize,
        /// `seen_seq[target]` before the grant.
        prev_seen_seq: u64,
        /// `seen_epoch[target]` before the grant.
        prev_seen_epoch: u64,
    },
    /// The target pushed a publish record with this stamp onto the EC ring.
    EcPublish {
        /// Lock slot index.
        lock: usize,
        /// `PublishRec::stamp` of the pushed record.
        stamp: u64,
    },
    /// The target's release published over a bound range: the per-word
    /// stamp array and the master copy of the range, captured *before* the
    /// publish overwrote them.  Restoring both makes a replayed first-ever
    /// acquire see exactly the stamps the original run saw — the grant scan
    /// treats `stamp == 0` ("never published") specially, so a retracted
    /// publish must not leave its stamps behind.
    EcRange {
        /// Region index.
        ridx: usize,
        /// First word-block of the captured span.
        start_block: usize,
        /// The stamps of the span before the publish.
        stamps: Box<[u64]>,
        /// The master bytes of the span before the publish.
        master: Box<[u8]>,
    },
    /// A first-miss grant to the target charged another node's EC publish
    /// record with its diff-creation cost.
    EcDiffCharge {
        /// Lock slot index.
        lock: usize,
        /// `PublishRec::stamp` of the charged record.
        stamp: u64,
    },
    /// A homeless-LRC miss by the target charged another node's publish
    /// record with its diff-creation cost.
    LrcDiffCharge {
        /// Region index.
        ridx: usize,
        /// Page index within the region.
        page: usize,
        /// The node whose publish record was charged.
        node: NodeId,
        /// Interval of the charged publish record.
        interval: u32,
    },
    /// The target recorded an access miss in a page's sharing accumulator.
    SharingMiss {
        /// Region index.
        ridx: usize,
        /// Page index within the region.
        page: usize,
    },
}
