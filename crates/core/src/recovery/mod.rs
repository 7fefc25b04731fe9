//! Crash injection, barrier-cut checkpoints, and rollback recovery.
//!
//! The paper's protocols are compared on failure-free executions; this
//! subsystem adds the classic DSM recovery experiment on top of them without
//! disturbing those executions: under the default [`FaultPlan::None`] not a
//! single branch of the protocol paths changes behaviour and every result
//! stays byte-identical.  With a plan armed, every node snapshots itself at
//! each barrier cut, a chosen node is killed deterministically at a chosen
//! barrier, and the runtime rolls it back to its last checkpoint and replays
//! it until it rejoins the peers blocked in the rendezvous.  See `DESIGN.md`
//! §8 ("Checkpoint & recovery") for the cut argument, the image format and
//! the re-admission protocol.
//!
//! The moving parts:
//!
//! * [`FaultPlan`] — the deterministic crash schedule carried by
//!   [`DsmConfig`](crate::DsmConfig).
//! * [`NodeCheckpoint`] — one node's in-memory barrier-cut snapshot (full
//!   region copies: restore is a `memcpy`).  Its compact wire form is
//!   [`dsm_mem::CkptImage`], a changed-run delta against the previous cut
//!   that travels to the transport replicas as a `Ckpt` frame.
//! * [`UndoRec`](undo::UndoRec) — the target node's log of crash-epoch
//!   mutations to *shared* state (lock table entries, publish rings, sharing
//!   accumulators), applied in reverse at rollback so the replayed epoch
//!   finds the cluster exactly as the checkpoint left it.
//! * [`RecoveryReport`] — checkpoint/rollback counters aggregated into
//!   [`RunResult::recovery`](crate::RunResult::recovery).
//!
//! Determinism contract (enforced by the recovery-equivalence suite): the
//! crash epoch's control flow must be a function of the node id and barrier
//! index alone, private state carried across barriers must not depend on
//! shared reads, and a lock the target touches in the crash epoch must not
//! be contended by another node in that same epoch.  All the paper's
//! barrier-structured kernels satisfy this; task-queue programs (Quicksort)
//! do not and are documented out of recovery scope.

use dsm_mem::wire::WireMsgKind;
use dsm_mem::{CkptImage, CkptRegion, VectorClock};
use dsm_sim::{Charge, NodeClock, NodeStats, SimTime};

use crate::local::NodeLocal;

pub(crate) mod undo;

pub(crate) use undo::UndoRec;

/// Deterministic crash schedule for a run.
///
/// The default `None` disables the recovery subsystem entirely — no
/// checkpoints are taken, no undo is logged, and every protocol path is
/// byte-identical to a build without the subsystem.  `KillAt` arms it:
/// every node checkpoints at each barrier cut, and the named node panics at
/// the entry of its `barrier`-th barrier call (0-based, counting completed
/// barriers), to be rolled back and replayed by the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultPlan {
    /// Fault-free execution (the default).
    #[default]
    None,
    /// Kill node `node` when it enters its `barrier`-th barrier call.
    KillAt {
        /// The node to kill (must be `< nprocs`).
        node: u32,
        /// How many barriers the node has completed when the crash fires
        /// (`0` kills it before its first barrier).
        barrier: u64,
    },
}

/// The panic payload of an injected crash.  The runtime's supervisor catches
/// exactly this type and turns it into a rollback; any other panic is
/// resumed and fails the run as before.
#[derive(Debug)]
pub(crate) struct InjectedCrash;

/// Installs (once per process) a panic hook that stays silent for
/// [`InjectedCrash`] payloads and delegates everything else to the previous
/// hook, so injected crashes do not spray backtraces over test output.
pub(crate) fn install_quiet_hook() {
    static QUIET: std::sync::Once = std::sync::Once::new();
    QUIET.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedCrash>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Checkpoint and rollback counters of one run, summed over all nodes.
///
/// All byte and word counts are logical (what a real implementation would
/// write); the `_ns` fields are simulated time charged to the node clocks
/// (checkpoint capture and state restore are modelled as memory-bandwidth
/// work, [`Charge::Checkpoint`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Checkpoint images captured (one per node per barrier cut, plus the
    /// initial cut of each node).
    pub checkpoints: u64,
    /// Total encoded size of every checkpoint image, in bytes (delta
    /// encoding: unchanged regions cost a few bytes).
    pub checkpoint_bytes: u64,
    /// Injected crashes recovered from.
    pub crashes: u64,
    /// Undo records applied while rolling shared state back.
    pub undo_applied: u64,
    /// Words of region data restored from checkpoints.
    pub restored_words: u64,
    /// Simulated time the crashed node lost (progress past the checkpoint
    /// that the rollback discarded), in nanoseconds.
    pub lost_ns: u64,
    /// Simulated time charged for restoring checkpointed state, in
    /// nanoseconds.
    pub restore_ns: u64,
    /// Simulated time charged for capturing checkpoints, in nanoseconds.
    pub ckpt_ns: u64,
}

impl RecoveryReport {
    /// Accumulates another node's counters into this report.
    pub(crate) fn merge(&mut self, other: &RecoveryReport) {
        self.checkpoints += other.checkpoints;
        self.checkpoint_bytes += other.checkpoint_bytes;
        self.crashes += other.crashes;
        self.undo_applied += other.undo_applied;
        self.restored_words += other.restored_words;
        self.lost_ns += other.lost_ns;
        self.restore_ns += other.restore_ns;
        self.ckpt_ns += other.ckpt_ns;
    }
}

/// Per-page state a checkpoint must carry: what the node has applied and the
/// freshness-cache marks that are only valid together with the saved vector.
/// Everything else in [`LocalPage`](crate::local::LocalPage) is per-interval
/// state that a clean barrier cut has already retired (twins, written bits,
/// dirty/armed flags), so restore resets it instead of saving it.
#[derive(Debug, Clone, Default)]
pub(crate) struct PageCkpt {
    /// `LocalPage::applied` at the cut.
    pub applied: Vec<u32>,
    /// `LocalPage::checked_epoch` at the cut.
    pub checked_epoch: u64,
    /// `LocalPage::checked_gen` at the cut.
    pub checked_gen: u64,
}

/// One region's checkpointed state: a full copy of the node's data (restore
/// is a `memcpy`) plus the per-page marks.
#[derive(Debug, Clone, Default)]
pub(crate) struct RegionCkpt {
    /// The node's copy of the region contents at the cut.
    pub data: Vec<u8>,
    /// Per-page saved state.
    pub pages: Vec<PageCkpt>,
}

/// One node's in-memory barrier-cut snapshot: everything `recover` needs to
/// put the node's private state back exactly as the cut left it.
#[derive(Debug, Clone)]
pub(crate) struct NodeCheckpoint {
    /// Barriers the node had completed at the cut.
    pub barriers: u64,
    /// The node's access epoch at the cut.
    pub epoch: u64,
    /// The node's simulated clock at the cut.
    pub time: SimTime,
    /// The node's vector clock at the cut.
    pub vector: VectorClock,
    /// The node's statistics counters at the cut.
    pub stats: NodeStats,
    /// `NodeLocal::intervals_at_last_barrier` at the cut.
    pub intervals_at_last_barrier: u32,
    /// Per-region data and page marks.
    pub regions: Vec<RegionCkpt>,
}

impl NodeCheckpoint {
    /// Snapshots the node's current state as a fresh checkpoint.
    fn capture(local: &NodeLocal) -> NodeCheckpoint {
        NodeCheckpoint {
            barriers: local.stats.barriers,
            epoch: local.epoch,
            time: local.clock.now(),
            vector: local.vector.clone(),
            stats: local.stats.clone(),
            intervals_at_last_barrier: local.intervals_at_last_barrier,
            regions: local
                .regions
                .iter()
                .map(|r| RegionCkpt {
                    data: r.data.clone(),
                    pages: r.pages.iter().map(page_ckpt).collect(),
                })
                .collect(),
        }
    }

    /// Re-snapshots into the existing buffers (no reallocation in steady
    /// state).
    fn recapture(&mut self, local: &NodeLocal) {
        self.barriers = local.stats.barriers;
        self.epoch = local.epoch;
        self.time = local.clock.now();
        self.vector.copy_from(&local.vector);
        self.stats = local.stats.clone();
        self.intervals_at_last_barrier = local.intervals_at_last_barrier;
        for (rc, r) in self.regions.iter_mut().zip(local.regions.iter()) {
            rc.data.copy_from_slice(&r.data);
            for (pc, p) in rc.pages.iter_mut().zip(r.pages.iter()) {
                pc.applied.copy_from_slice(&p.applied);
                pc.checked_epoch = p.checked_epoch;
                pc.checked_gen = p.checked_gen;
            }
        }
    }
}

fn page_ckpt(p: &crate::local::LocalPage) -> PageCkpt {
    PageCkpt {
        applied: p.applied.clone(),
        checked_epoch: p.checked_epoch,
        checked_gen: p.checked_gen,
    }
}

/// The recovery state a node carries while a fault plan is armed (boxed
/// behind an `Option` on [`NodeLocal`], `None` under [`FaultPlan::None`] so
/// the fault-free paths pay one pointer test at most).
#[derive(Debug)]
pub(crate) struct RecoveryState {
    /// The run's fault plan (never `None` here).
    pub plan: FaultPlan,
    /// Whether this node is the one the plan kills.
    pub is_target: bool,
    /// Whether the injected crash has fired already (it fires once).
    pub fired: bool,
    /// Barriers left to skip in replay mode: while positive, every
    /// `ProcessContext` operation is a no-op and each `barrier` call counts
    /// this down instead of synchronizing.
    pub skip: u64,
    /// Crash-epoch mutations to shared state, applied in reverse at
    /// rollback.  Recorded only on the target node, only until the crash
    /// fires, and cleared at every checkpoint.
    pub undo: Vec<UndoRec>,
    /// The node's last barrier-cut snapshot.
    pub ckpt: NodeCheckpoint,
    /// This node's share of the run's recovery counters.
    pub report: RecoveryReport,
}

/// Arms the recovery subsystem on one node before its worker starts: takes
/// the initial checkpoint (cut 0, an empty delta on the wire) and installs
/// the per-node state.
pub(crate) fn arm(local: &mut NodeLocal, plan: FaultPlan) {
    let is_target =
        matches!(plan, FaultPlan::KillAt { node, .. } if node == local.node.index() as u32);
    let mut state = Box::new(RecoveryState {
        plan,
        is_target,
        fired: false,
        skip: 0,
        undo: Vec::new(),
        ckpt: NodeCheckpoint::capture(local),
        report: RecoveryReport::default(),
    });
    // Cut 0: the initial contents, which every node already holds, encode as
    // an all-empty delta — the image is a few dozen bytes of header.
    let image = build_image(local, &state.ckpt.regions);
    state.report.checkpoints = 1;
    state.report.checkpoint_bytes = image.encoded_len() as u64;
    local.recovery = Some(state);
    send_image(local, &image);
}

/// Builds the wire image of the node's *current* state as a delta against
/// `prev` (the region copies of the previous checkpoint).
fn build_image(local: &NodeLocal, prev: &[RegionCkpt]) -> CkptImage {
    let stamp = local.stats.barriers;
    CkptImage {
        node: local.node.index() as u32,
        barriers: stamp,
        epoch: local.epoch,
        time_ns: local.clock.now().as_nanos(),
        clock: local.vector.clone(),
        regions: local
            .regions
            .iter()
            .zip(prev.iter())
            .map(|(r, p)| CkptRegion::delta(&p.data, &r.data, stamp))
            .collect(),
        locks: local.held.iter().map(|&(id, _)| id).collect(),
    }
}

/// Ships a checkpoint image to the transport replicas, when a real backend
/// is attached.
fn send_image(local: &mut NodeLocal, image: &CkptImage) {
    if let Some(w) = local.wire.as_deref_mut() {
        let mut bytes = Vec::with_capacity(image.encoded_len());
        image.encode_into(&mut bytes);
        w.send_oob(WireMsgKind::Ckpt, &bytes);
    }
}

/// True while the node is replaying skipped barriers: every shared-memory
/// and synchronization operation must be a no-op.
#[inline]
pub(crate) fn skipping(local: &NodeLocal) -> bool {
    matches!(local.recovery.as_deref(), Some(r) if r.skip > 0)
}

/// Fires the injected crash if this barrier entry is the planned kill point.
/// Called at the top of every `barrier` before any cost or statistic is
/// charged, so the crash epoch never publishes its interval and the barrier
/// slot never sees the doomed arrival.
pub(crate) fn maybe_fire(local: &mut NodeLocal) {
    let target_barrier = match local.recovery.as_deref() {
        Some(r) if r.is_target && !r.fired && r.skip == 0 => match r.plan {
            FaultPlan::KillAt { barrier, .. } => barrier,
            FaultPlan::None => return,
        },
        _ => return,
    };
    if local.stats.barriers != target_barrier {
        return;
    }
    assert!(
        local.held.is_empty(),
        "fault plan kills {} at barrier {target_barrier} while it holds a lock; crashes are \
         injected only at clean cuts",
        local.node
    );
    local.recovery.as_deref_mut().expect("checked above").fired = true;
    std::panic::panic_any(InjectedCrash);
}

/// Takes a barrier-cut checkpoint if a plan is armed.  Called at the end of
/// every completed `barrier` call on every node; a node replaying skipped
/// barriers never reaches this (its `barrier` returns early).
///
/// Capture is charged to the node's clock as memory-bandwidth work over the
/// changed words ([`Charge::Checkpoint`]) — clock only, no statistics
/// counter and no message record, so a crashed-and-recovered run's traffic
/// and statistics stay comparable to the fault-free run.
pub(crate) fn checkpoint_if_armed(local: &mut NodeLocal) {
    if local.recovery.is_none() {
        return;
    }
    if !local.held.is_empty() {
        // A mid-critical-section barrier is not a clean cut: keep the old
        // checkpoint and keep accumulating undo until the next clean one.
        return;
    }
    let image = {
        let state = local.recovery.as_deref().expect("checked above");
        build_image(local, &state.ckpt.regions)
    };
    // The capture cost lands on the clock before the snapshot freezes the
    // time, so restore resumes from after-capture time.
    let charge = local.charge(Charge::Checkpoint(image.words() as u64));
    let state = local.recovery.as_deref_mut().expect("checked above");
    state.report.checkpoints += 1;
    state.report.checkpoint_bytes += image.encoded_len() as u64;
    state.report.ckpt_ns += charge.as_nanos();
    state.undo.clear();
    send_image(local, &image);
    let mut state = local.recovery.take().expect("checked above");
    state.ckpt.recapture(local);
    local.recovery = Some(state);
}

/// Restores the node's private state from its last checkpoint.  The caller
/// (the `ProcessContext` rollback path) has already unwound the crash-epoch
/// mutations to shared state from the undo log.
///
/// Returns the number of undo records that were pending (for the report) —
/// the caller passes the drained log in.
pub(crate) fn restore(local: &mut NodeLocal, undo_applied: usize) {
    let mut state = local
        .recovery
        .take()
        .expect("restore without an armed fault plan");
    let ckpt = &state.ckpt;
    let lost = local.clock.now().saturating_sub(ckpt.time);

    let mut words = 0u64;
    for (r, rc) in local.regions.iter_mut().zip(ckpt.regions.iter()) {
        r.data.copy_from_slice(&rc.data);
        words += (rc.data.len() / 4) as u64;
        for (p, pc) in r.pages.iter_mut().zip(rc.pages.iter()) {
            if let Some(twin) = p.twin.take() {
                local.pool.put(twin);
            }
            if let Some(w) = &mut p.written {
                w.clear_all();
            }
            p.dirty = false;
            p.armed = 0;
            p.applied.copy_from_slice(&pc.applied);
            p.checked_epoch = pc.checked_epoch;
            p.checked_gen = pc.checked_gen;
        }
    }
    local.stats = ckpt.stats.clone();
    local.vector.copy_from(&ckpt.vector);
    local.epoch = ckpt.epoch;
    local.intervals_at_last_barrier = ckpt.intervals_at_last_barrier;
    local.held.clear();
    local.dirty_pages.clear();

    // The restore itself is memory-bandwidth work over the full restored
    // state, charged on top of the checkpoint's frozen time.
    local.clock = NodeClock::new();
    local.clock.sync_to(ckpt.time);
    let charge = local.charge(Charge::Checkpoint(words));

    state.report.crashes += 1;
    state.report.undo_applied += undo_applied as u64;
    state.report.restored_words += words;
    state.report.lost_ns += lost.as_nanos();
    state.report.restore_ns += charge.as_nanos();
    state.skip = state.ckpt.barriers;
    local.recovery = Some(state);

    // A tiny rollback notice keeps the replica transcript honest about the
    // re-admission (replayed publish frames follow with fresh sequences).
    let node = local.node.index() as u32;
    let barriers = local.stats.barriers;
    if let Some(w) = local.wire.as_deref_mut() {
        let mut payload = Vec::with_capacity(12);
        payload.extend_from_slice(&node.to_le_bytes());
        payload.extend_from_slice(&barriers.to_le_bytes());
        w.send_oob(WireMsgKind::Rollback, &payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_mem::{BlockGranularity, RegionDesc, RegionId};
    use dsm_sim::{CostModel, NodeId};

    fn local() -> NodeLocal {
        let regions = vec![RegionDesc::new(
            RegionId::new(0),
            "r",
            256,
            BlockGranularity::Word,
        )];
        let init = vec![vec![0u8; 256]];
        NodeLocal::new(NodeId::new(1), 2, &regions, &init, CostModel::free())
    }

    #[test]
    fn arm_takes_an_empty_initial_cut() {
        let mut l = local();
        arm(
            &mut l,
            FaultPlan::KillAt {
                node: 1,
                barrier: 3,
            },
        );
        let r = l.recovery.as_deref().expect("armed");
        assert!(r.is_target && !r.fired && r.skip == 0);
        assert_eq!(r.report.checkpoints, 1);
        assert!(r.report.checkpoint_bytes > 0, "header bytes still count");
        assert_eq!(r.ckpt.barriers, 0);
    }

    #[test]
    fn capture_and_restore_round_trip_the_local_state() {
        let mut l = local();
        arm(
            &mut l,
            FaultPlan::KillAt {
                node: 1,
                barrier: 1,
            },
        );

        // Progress to a cut: mutate data, stats and the clock, checkpoint.
        l.regions[0].data[0..4].copy_from_slice(&9u32.to_le_bytes());
        l.stats.barriers = 1;
        l.stats.shared_accesses = 42;
        l.epoch = 7;
        l.clock.sync_to(SimTime::from_nanos(1000));
        checkpoint_if_armed(&mut l);
        assert_eq!(l.recovery.as_deref().expect("armed").report.checkpoints, 2);

        // Diverge past the cut, then crash and restore.
        l.regions[0].data[0..4].copy_from_slice(&0xdeadu32.to_le_bytes());
        l.stats.shared_accesses = 99;
        l.epoch = 9;
        l.clock.sync_to(SimTime::from_nanos(1500));
        restore(&mut l, 3);

        assert_eq!(l.regions[0].data[0..4], 9u32.to_le_bytes());
        assert_eq!(l.stats.shared_accesses, 42);
        assert_eq!(l.epoch, 7);
        assert_eq!(l.clock.now(), SimTime::from_nanos(1000));
        let r = l.recovery.as_deref().expect("still armed");
        assert_eq!(r.skip, 1, "replay skips the one completed barrier");
        assert_eq!(r.report.crashes, 1);
        assert_eq!(r.report.undo_applied, 3);
        assert_eq!(r.report.lost_ns, 500);
    }

    #[test]
    fn fire_panics_exactly_at_the_planned_barrier() {
        let mut l = local();
        arm(
            &mut l,
            FaultPlan::KillAt {
                node: 1,
                barrier: 2,
            },
        );
        maybe_fire(&mut l); // barriers == 0: no fire
        l.stats.barriers = 2;
        install_quiet_hook();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| maybe_fire(&mut l)))
            .expect_err("must fire");
        assert!(err.downcast_ref::<InjectedCrash>().is_some());
        assert!(l.recovery.as_deref().expect("armed").fired);
        // Fired once: never again.
        maybe_fire(&mut l);
    }

    #[test]
    fn report_merge_sums_every_field() {
        let a = RecoveryReport {
            checkpoints: 1,
            checkpoint_bytes: 2,
            crashes: 3,
            undo_applied: 4,
            restored_words: 5,
            lost_ns: 6,
            restore_ns: 7,
            ckpt_ns: 8,
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.checkpoints, 2);
        assert_eq!(b.ckpt_ns, 16);
    }
}
