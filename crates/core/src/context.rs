//! The per-processor programming interface.
//!
//! All consistency-model behaviour is delegated to the run's
//! [`ProtocolEngine`](crate::engine::ProtocolEngine); this module owns only
//! the mechanics the models share — lock hand-off accounting, barrier
//! rendezvous, bounds checking and typed access — operating on the sharded
//! per-lock and per-barrier slots of [`SyncTables`](crate::sync::SyncTables).

use dsm_mem::{MemRange, VectorClock, PAGE_SIZE};
use dsm_sim::{Charge, SimTime, Work};

use crate::api::SharedArray;
use crate::config::DsmConfig;
use crate::engine::CTRL_MSG_BYTES;
use crate::ids::{BarrierId, LockId, LockMode};
use crate::local::{HeldLock, NodeLocal};
use crate::recovery::{self, UndoRec};
use crate::runtime::RunGlobal;
use crate::scalar::Scalar;
use crate::sync;

/// The interface a worker closure uses to access shared memory and
/// synchronize, playing the role of the TreadMarks/Midway runtime API
/// (`Tmk_malloc`, `Tmk_lock_acquire`, `Tmk_barrier`, ...).
///
/// One `ProcessContext` exists per simulated processor; it owns that
/// processor's copy of every shared region, its simulated clock and its
/// statistics.  All methods panic on protocol misuse (releasing a lock that is
/// not held, out-of-bounds accesses) because such misuse is a bug in the
/// application, not a runtime condition.
#[derive(Debug)]
pub struct ProcessContext<'a> {
    pub(crate) global: &'a RunGlobal,
    pub(crate) local: NodeLocal,
}

impl<'a> ProcessContext<'a> {
    pub(crate) fn new(global: &'a RunGlobal, local: NodeLocal) -> Self {
        ProcessContext { global, local }
    }

    pub(crate) fn into_local(self) -> NodeLocal {
        self.local
    }

    /// The index of this simulated processor (0-based).
    pub fn node(&self) -> usize {
        self.local.node.index()
    }

    /// The number of simulated processors in the run.
    pub fn nprocs(&self) -> usize {
        self.local.nprocs
    }

    /// The run configuration.
    pub fn config(&self) -> &DsmConfig {
        &self.global.cfg
    }

    /// The current simulated time of this processor.
    pub fn now(&self) -> SimTime {
        self.local.clock.now()
    }

    /// Charges `work` units of application computation to this processor's
    /// simulated clock.
    pub fn compute(&mut self, work: Work) {
        if recovery::skipping(&self.local) {
            return;
        }
        self.local.charge(Charge::Compute(work));
    }

    fn check_bounds(&self, ridx: usize, offset: usize, size: usize) {
        let desc = &self.global.regions[ridx];
        // `checked_add`: an adversarial index near `usize::MAX` must fail the
        // bounds check, not wrap around it.
        assert!(
            offset.checked_add(size).is_some_and(|end| end <= desc.len),
            "shared access at byte {offset}..{offset}+{size} is outside region {} of {} bytes",
            desc.name,
            desc.len
        );
    }

    /// Reads element `idx` of a typed array.
    ///
    /// Under LRC this may take an access miss (the page is invalid because a
    /// write notice arrived for it), in which case the modifications are
    /// fetched and the miss costs are charged.
    ///
    /// # Panics
    ///
    /// Panics if the access is out of bounds.
    pub fn get<T: Scalar>(&mut self, arr: impl Into<SharedArray<T>>, idx: usize) -> T {
        let ridx = arr.into().ridx();
        let off = idx.saturating_mul(T::SIZE);
        self.check_bounds(ridx, off, T::SIZE);
        if recovery::skipping(&self.local) {
            // Replay of an already-checkpointed epoch: serve the restored
            // local copy with no cost, statistic or freshness action.
            let data = &self.local.regions[ridx].data;
            return T::read_le(&data[off..off + T::SIZE]);
        }
        self.local.charge(Charge::SharedAccess(1));
        self.global
            .engine
            .ensure_read_fresh(&mut self.local, ridx, off / PAGE_SIZE);
        let data = &self.local.regions[ridx].data;
        T::read_le(&data[off..off + T::SIZE])
    }

    /// Writes element `idx` of a typed array.
    ///
    /// The write is trapped according to the configured mechanism: a software
    /// dirty bit is set (compiler instrumentation) or a twin is created on the
    /// first write to the page/object (twinning).
    ///
    /// # Panics
    ///
    /// Panics if the access is out of bounds.
    pub fn set<T: Scalar>(&mut self, arr: impl Into<SharedArray<T>>, idx: usize, value: T) {
        let ridx = arr.into().ridx();
        let off = idx.saturating_mul(T::SIZE);
        self.check_bounds(ridx, off, T::SIZE);
        if recovery::skipping(&self.local) {
            // Replay: the restored copy already holds this epoch's outcome
            // (it was checkpointed later); writing would clobber newer data.
            return;
        }
        self.local.charge(Charge::SharedAccess(1));
        self.global
            .engine
            .trap_write(&mut self.local, ridx, off, T::SIZE);
        let data = &mut self.local.regions[ridx].data;
        value.write_le(&mut data[off..off + T::SIZE]);
    }

    /// Applies `f` to element `idx` of a typed array: a [`get`](Self::get)
    /// followed by a [`set`](Self::set).
    pub fn modify<T: Scalar>(
        &mut self,
        arr: impl Into<SharedArray<T>>,
        idx: usize,
        f: impl FnOnce(T) -> T,
    ) {
        let arr = arr.into();
        let v = self.get(arr, idx);
        self.set(arr, idx, f(v));
    }

    /// Reads `out.len()` consecutive elements of a typed array starting at
    /// element `start`.
    ///
    /// Semantically identical to calling [`get`](Self::get) once per
    /// element — the simulated cost, statistics and any access misses are
    /// exactly those of the element-wise loop — but the bounds check,
    /// per-page freshness validation and engine dispatch run once per *page*
    /// instead of once per word, which is what makes this the preferred form
    /// for an application's inner loops.
    ///
    /// # Panics
    ///
    /// Panics if the span is out of bounds.
    pub fn read_into<T: Scalar>(
        &mut self,
        arr: impl Into<SharedArray<T>>,
        start: usize,
        out: &mut [T],
    ) {
        if out.is_empty() {
            return;
        }
        let ridx = arr.into().ridx();
        let off = start.saturating_mul(T::SIZE);
        let len = out.len() * T::SIZE;
        self.check_bounds(ridx, off, len);
        if recovery::skipping(&self.local) {
            let data = &self.local.regions[ridx].data;
            T::read_slice_le(&data[off..off + len], out);
            return;
        }
        self.local.charge(Charge::SharedAccess(out.len() as u64));
        dsm_mem::for_each_page(off, len, |page, _| {
            self.global
                .engine
                .ensure_read_fresh(&mut self.local, ridx, page);
        });
        let data = &self.local.regions[ridx].data;
        T::read_slice_le(&data[off..off + len], out);
    }

    /// Writes `values.len()` consecutive elements of a typed array starting
    /// at element `start`.
    ///
    /// Semantically identical to calling [`set`](Self::set) once per
    /// element — same simulated cost, statistics, dirty bits and twin
    /// creation — but the write trap runs once per *page* of the span (via
    /// the engine's bulk `trap_write_span` hook) instead of once per word.
    ///
    /// # Panics
    ///
    /// Panics if the span is out of bounds.
    pub fn write_from<T: Scalar>(
        &mut self,
        arr: impl Into<SharedArray<T>>,
        start: usize,
        values: &[T],
    ) {
        if values.is_empty() {
            return;
        }
        let ridx = arr.into().ridx();
        let off = start.saturating_mul(T::SIZE);
        let len = values.len() * T::SIZE;
        self.check_bounds(ridx, off, len);
        if recovery::skipping(&self.local) {
            return;
        }
        self.local.charge(Charge::SharedAccess(values.len() as u64));
        self.global
            .engine
            .trap_write_span(&mut self.local, ridx, off, len, values.len());
        let data = &mut self.local.regions[ridx].data;
        T::write_slice_le(values, &mut data[off..off + len]);
    }

    /// Reads the most recently *published* value of element `idx` without
    /// any consistency action, message, or simulated cost.
    ///
    /// This is a simulation-only convenience used by applications that poll a
    /// flag or queue state while idle (e.g. Quicksort's task queue): in a real
    /// system the idle processor would block or poll cheaply, and charging a
    /// full protocol acquire per poll iteration would let host-scheduling
    /// noise leak into the simulated clock.  Never use it for data the
    /// algorithm actually consumes — follow it with a proper
    /// [`lock`](Self::lock) and [`get`](Self::get).
    ///
    /// # Panics
    ///
    /// Panics if the access is out of bounds.
    pub fn peek<T: Scalar>(&mut self, arr: impl Into<SharedArray<T>>, idx: usize) -> T {
        let ridx = arr.into().ridx();
        let off = idx.saturating_mul(T::SIZE);
        self.check_bounds(ridx, off, T::SIZE);
        let mut buf = [0u8; 16];
        self.global
            .engine
            .read_master(ridx, off, &mut buf[..T::SIZE]);
        T::read_le(&buf[..T::SIZE])
    }

    /// The acquire beneath [`lock`](Self::lock), [`lock_if`](Self::lock_if)
    /// and [`LockGuard::acquire`](crate::LockGuard::acquire), whose docs give
    /// its semantics and panics.  The holding is appended to
    /// [`NodeLocal::held`].
    pub(crate) fn acquire(&mut self, lock: LockId, mode: LockMode) {
        if recovery::skipping(&self.local) {
            return;
        }
        assert!(
            self.local.held_index(lock).is_none(),
            "lock {lock} acquired twice by {}",
            self.local.node
        );
        self.global.engine.validate_acquire(lock, mode);
        self.local.charge(Charge::Acquire);
        let me = self.local.node;
        let nprocs = self.local.nprocs;

        let slot = self.global.sync.lock_slot(lock.index());
        let local_grant;
        {
            let mut l = sync::lock(&slot.sync);
            loop {
                let ok = match mode {
                    LockMode::Exclusive => l.can_acquire_exclusive(),
                    LockMode::ReadOnly => l.can_acquire_read(),
                };
                if ok {
                    break;
                }
                l.waiters += 1;
                l = sync::wait(&slot.cv, l);
                l.waiters -= 1;
            }

            let manager = lock.manager(nprocs);
            local_grant = l.last_owner == Some(me);
            if local_grant {
                self.local.stats.local_lock_acquires += 1;
            } else {
                if me != manager {
                    self.local.charge(Charge::LockRequest(CTRL_MSG_BYTES));
                }
                // Never-owned locks are granted by their manager; otherwise the
                // manager forwards the request to the last owner.
                let owner = l.last_owner.unwrap_or(manager);
                if manager != owner {
                    self.local.charge(Charge::LockForward(CTRL_MSG_BYTES));
                }
            }
            // The request reaches the owner after its messages, and the
            // grant leaves no earlier than the lock was freed.
            self.local.clock.sync_to(l.free_time);

            if l.last_owner != Some(me) {
                l.transfers += 1;
                self.local
                    .undo(|| UndoRec::LockTransfer { lock: lock.index() });
            }
            match mode {
                LockMode::Exclusive => {
                    let prev = l.last_owner;
                    l.exclusive_holder = Some(me);
                    l.last_owner = Some(me);
                    if prev != Some(me) {
                        self.local.undo(|| UndoRec::LockOwner {
                            lock: lock.index(),
                            prev,
                        });
                    }
                }
                LockMode::ReadOnly => {
                    l.readers += 1;
                }
            }
        }
        // The lock is claimed in its slot; the grant-payload work below needs
        // only the engine's own (sharded) state, so the slot mutex is free
        // for other contenders' bookkeeping.

        if !local_grant {
            self.local.charge(Charge::Interrupt);
            let payload = self.global.engine.remote_grant(&mut self.local, lock);
            self.local.charge(Charge::LockGrant(payload));
        }

        let mut held = HeldLock {
            mode,
            small_twins: None,
            armed_pages: self.local.spare_armed.pop().unwrap_or_default(),
        };
        self.global
            .engine
            .after_acquire(&mut self.local, lock, &mut held);
        self.local.held.push((lock.0, held));
    }

    /// The release beneath dropping a [`LockGuard`](crate::LockGuard) and
    /// beneath [`LockGuard::release`](crate::LockGuard::release).  Under EC
    /// an exclusive release publishes the modifications made to the bound
    /// data; under LRC it ends the current interval.
    ///
    /// # Panics
    ///
    /// Panics if the lock is not held.
    pub(crate) fn release(&mut self, lock: LockId) {
        if recovery::skipping(&self.local) {
            return;
        }
        let Some(pos) = self.local.held_index(lock) else {
            panic!(
                "release of lock {lock} that {} does not hold",
                self.local.node
            );
        };
        self.local.charge(Charge::Release);
        // `remove`, not `swap_remove`: the held list stays in acquisition
        // order, which a `LockGuard` relies on to release in reverse.
        let (_, mut held) = self.local.held.remove(pos);
        // Publish before the lock becomes available so the next acquirer's
        // grant sees everything this holding modified.
        self.global
            .engine
            .before_release(&mut self.local, lock, &mut held);
        held.armed_pages.clear();
        self.local.spare_armed.push(held.armed_pages);

        let slot = self.global.sync.lock_slot(lock.index());
        let contended = {
            let mut l = sync::lock(&slot.sync);
            match held.mode {
                LockMode::Exclusive => l.exclusive_holder = None,
                LockMode::ReadOnly => l.readers = l.readers.saturating_sub(1),
            }
            l.free_time = l.free_time.max(self.local.clock.now());
            l.waiters > 0
        };
        // Only contenders for *this* lock wake up, and only if there are any:
        // the futex wake is a syscall even with nobody to wake.
        if contended {
            slot.cv.notify_all();
        }
    }

    /// Rebinds a lock to a new set of memory ranges (EC only; a no-op under
    /// LRC, which has no notion of binding).
    ///
    /// After a rebind the next grant conservatively transfers all bound data,
    /// because neither side knows which part of it the acquirer already has
    /// (Section 7.1, "Rebinding").
    pub fn rebind(&mut self, lock: LockId, ranges: impl IntoIterator<Item = MemRange>) {
        if recovery::skipping(&self.local) {
            return;
        }
        self.global
            .engine
            .rebind(lock, ranges.into_iter().collect());
    }

    /// Waits at a barrier until every processor has arrived.
    ///
    /// Under LRC the barrier also exchanges write notices for every interval
    /// completed before it, and each node leaves with the global maximum
    /// vector.
    pub fn barrier(&mut self, barrier: BarrierId) {
        if let Some(r) = self.local.recovery.as_deref_mut() {
            if r.skip > 0 {
                // Replay: the restored statistics and epoch already count
                // this barrier, and the peers are past it (they block in the
                // rendezvous of the *crash* barrier) — just consume it.
                r.skip -= 1;
                return;
            }
        }
        // An injected crash fires before any cost, statistic or arrival is
        // recorded, so the crash epoch's interval is never published and the
        // barrier slot never counts the doomed arrival.
        recovery::maybe_fire(&mut self.local);
        self.local.charge(Charge::Barrier);
        let me = self.local.node;
        let nprocs = self.local.nprocs;
        let is_mgr = barrier.manager(nprocs) == me;

        // Model-specific arrival work (LRC: end the current interval).
        let arrival_payload = self.global.engine.barrier_arrive(&mut self.local);
        let old_vector = self.local.vector.clone();

        if !is_mgr {
            self.local.charge(Charge::BarrierArrival(arrival_payload));
        }

        let slot = self.global.sync.barrier_slot(barrier.index());
        let (release_time, released_vector, commit_payload) = {
            let mut b = sync::lock(&slot.sync);
            let my_gen = b.generation;
            b.pending_max = b.pending_max.max(self.local.clock.now());
            b.pending_vector.merge_max(&self.local.vector);
            b.arrived += 1;

            if b.arrived == nprocs {
                // Commit point: every node has arrived (their intervals are
                // published and no region lock is held), so the engine's
                // barrier-time controller runs here, exactly once per
                // episode, on inputs that all happen-before this barrier —
                // which node ran it cannot matter.  Any broadcast bytes it
                // produces ride every departer's release message.
                b.commit_payload = self.global.engine.barrier_commit(&mut self.local);
                b.release_time = b.pending_max;
                b.released_vector = b.pending_vector.clone();
                b.generation = b.generation.wrapping_add(1);
                b.arrived = 0;
                b.pending_max = SimTime::ZERO;
                b.pending_vector = VectorClock::new(nprocs);
                slot.cv.notify_all();
            } else {
                while b.generation == my_gen {
                    b = sync::wait(&slot.cv, b);
                }
            }
            (b.release_time, b.released_vector.clone(), b.commit_payload)
        };
        self.local.clock.sync_to(release_time);

        let depart_payload = commit_payload
            + self
                .global
                .engine
                .barrier_depart(&mut self.local, &old_vector, &released_vector);
        if !is_mgr {
            self.local.charge(Charge::BarrierDeparture(depart_payload));
        }
        self.local.epoch += 1;
        recovery::checkpoint_if_armed(&mut self.local);
    }

    /// Rolls this processor back to its last barrier-cut checkpoint after an
    /// injected crash: unwinds the crash epoch's mutations to shared state
    /// (lock table here, engine-owned rings and accumulators via the
    /// engine's hook), then restores the private state and enters replay
    /// mode.  Called by the runtime's supervisor between `catch_unwind` and
    /// the worker's re-invocation.
    pub(crate) fn recover_from_crash(&mut self) {
        let undo = {
            let state = self
                .local
                .recovery
                .as_deref_mut()
                .expect("injected crash without an armed fault plan");
            std::mem::take(&mut state.undo)
        };
        let me = self.local.node;
        for rec in undo.iter().rev() {
            match *rec {
                UndoRec::LockTransfer { lock } => {
                    let slot = self.global.sync.lock_slot(lock);
                    let mut l = sync::lock(&slot.sync);
                    l.transfers = l.transfers.saturating_sub(1);
                }
                UndoRec::LockOwner { lock, prev } => {
                    let slot = self.global.sync.lock_slot(lock);
                    let mut l = sync::lock(&slot.sync);
                    // A peer may have legitimately acquired the lock since;
                    // its ownership must survive the rollback.
                    if l.last_owner == Some(me) {
                        l.last_owner = prev;
                    }
                }
                _ => {} // engine-owned records, handled below
            }
        }
        self.global.engine.rollback_undo(me, &undo);
        recovery::restore(&mut self.local, undo.len());
    }
}
