//! The typed shared-data API: `SharedArray<T>` handles, one RAII lock guard
//! for a single lock or a run-time set of them, a scoped mutable array view,
//! and first-class EC bindings.
//!
//! This is the crate's only public surface for shared data and locks.  Its
//! operations charge exactly what the `Region`-based accessors it replaced
//! charged, so the simulated costs, statistics and traffic of a typed
//! program are **byte-identical** to the original raw program
//! (`tests/tests/typed_api_equivalence.rs` pins this against goldens
//! blessed from the raw programs before the typed layer existed).
//!
//! The paper's central programmability finding is that entry consistency
//! makes the programmer associate data with synchronization objects while
//! lazy release consistency needs no annotations (Section 3).  The typed API
//! makes that burden visible and checkable instead of burying it in
//! turbofish calls and scattered `bind` invocations:
//!
//! * [`SharedArray<T>`] handles carry their element type, so
//!   access sites ([`ProcessContext::get`], [`ProcessContext::set`], ...)
//!   infer `T` from the handle.
//! * A [`LockGuard`] holds the locks a program holds at once: one from
//!   [`ProcessContext::lock`], or a set whose size is known only at run time
//!   from [`ProcessContext::lock_set`] (3D-FFT's per-(owner, reader) chunk
//!   locks, SOR's boundary read locks).  It releases any of them early, the
//!   rest in reverse acquisition order on drop, and gates mutable views on
//!   the acquisition mode — a guard holding a read-only EC lock cannot hand
//!   out an [`ArrayViewMut`].
//! * [`Binding<T>`] from [`Dsm::alloc_bound`] constructs the lock→data
//!   association of Section 3 in one place (a no-op under LRC, so the same
//!   setup code serves every model).
//! * [`ArrayViewMut`] bulk operations lower onto the allocation-free span hot
//!   path ([`ProcessContext::read_into`] / [`ProcessContext::write_from`]).

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};

use dsm_mem::{BlockGranularity, MemRange, RegionId};

use crate::context::ProcessContext;
use crate::ids::{LockId, LockMode};
use crate::local::HeldLock;
use crate::runtime::Dsm;
use crate::scalar::Scalar;

// ---------------------------------------------------------------------------
// Typed handles
// ---------------------------------------------------------------------------

/// Typed handle to a shared region holding elements of type `T`.
///
/// Returned by [`Dsm::alloc_array`]; carries the element type and the
/// region's trapping granularity so access sites never repeat them.  Handles
/// are plain `Copy` values (no data is stored inside), freely shared with
/// worker closures.
///
/// ```
/// use dsm_core::{Dsm, DsmConfig, ImplKind, BarrierId, BlockGranularity};
///
/// let mut dsm = Dsm::new(DsmConfig::with_procs(ImplKind::lrc_diff(), 2))?;
/// let data = dsm.alloc_array::<f64>("data", 16, BlockGranularity::DoubleWord);
/// let result = dsm.run(|ctx| {
///     if ctx.node() == 0 {
///         ctx.set(data, 3, 2.5); // element type inferred from the handle
///     }
///     ctx.barrier(BarrierId::new(0));
/// });
/// assert_eq!(result.final_at(data, 3), 2.5);
/// # Ok::<(), dsm_core::DsmError>(())
/// ```
pub struct SharedArray<T: Scalar> {
    id: RegionId,
    len: usize,
    granularity: BlockGranularity,
    _elem: PhantomData<fn() -> T>,
}

impl<T: Scalar> SharedArray<T> {
    pub(crate) fn new(id: RegionId, len: usize, granularity: BlockGranularity) -> Self {
        SharedArray {
            id,
            len,
            granularity,
            _elem: PhantomData,
        }
    }

    /// The index of the array's region in the run's per-region tables.
    pub(crate) fn ridx(&self) -> usize {
        self.id.index()
    }

    /// Number of elements the array holds.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the array holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The block granularity writes are trapped at under compiler
    /// instrumentation.
    pub fn granularity(&self) -> BlockGranularity {
        self.granularity
    }

    /// A [`MemRange`] covering elements `start..start + count`, for binding
    /// part of the array to an EC lock ([`Dsm::bind`]).
    pub fn range(&self, start: usize, count: usize) -> MemRange {
        MemRange::new(self.id, start * T::SIZE, count * T::SIZE)
    }

    /// A [`MemRange`] covering the whole array.
    pub fn whole(&self) -> MemRange {
        self.range(0, self.len)
    }
}

impl<T: Scalar> Clone for SharedArray<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Scalar> Copy for SharedArray<T> {}

impl<T: Scalar> PartialEq for SharedArray<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.id, self.len, self.granularity) == (other.id, other.len, other.granularity)
    }
}
impl<T: Scalar> Eq for SharedArray<T> {}

impl<T: Scalar> fmt::Debug for SharedArray<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedArray")
            .field("region", &self.id)
            .field("len", &self.len)
            .field("elem", &std::any::type_name::<T>())
            .finish()
    }
}

/// A lock→data association under entry consistency: the typed array allocated
/// by [`Dsm::alloc_bound`] together with the lock its data is bound to.
///
/// Under EC the bound data is made consistent at each acquire of the lock
/// (Section 3 of the paper); under LRC the binding is a no-op, so the same
/// setup code serves every implementation.  A `Binding<T>` converts into its
/// [`SharedArray<T>`] wherever a typed handle is expected, so access sites
/// read identically for bound and unbound data.
pub struct Binding<T: Scalar> {
    lock: LockId,
    array: SharedArray<T>,
}

impl<T: Scalar> Binding<T> {
    pub(crate) fn new(lock: LockId, array: SharedArray<T>) -> Self {
        Binding { lock, array }
    }

    /// The lock the data is bound to.
    pub fn lock(&self) -> LockId {
        self.lock
    }

    /// The bound array.
    pub fn array(&self) -> SharedArray<T> {
        self.array
    }
}

impl<T: Scalar> Clone for Binding<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Scalar> Copy for Binding<T> {}

impl<T: Scalar> fmt::Debug for Binding<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Binding")
            .field("lock", &self.lock)
            .field("array", &self.array)
            .finish()
    }
}

impl<T: Scalar> From<Binding<T>> for SharedArray<T> {
    fn from(b: Binding<T>) -> SharedArray<T> {
        b.array
    }
}

// ---------------------------------------------------------------------------
// The RAII lock guard
// ---------------------------------------------------------------------------

/// RAII guard over the locks a program holds at once: one from
/// [`ProcessContext::lock`] (or none, from [`ProcessContext::lock_if`] with a
/// false condition), or a set whose size is known only at run time, opened
/// empty with [`ProcessContext::lock_set`].
///
/// Some EC programs hold such a set: 3D-FFT takes one chunk lock per reader,
/// SOR+ a whole band of row locks, and Quicksort releases, rebinds and
/// re-acquires its queue-entry lock mid-task.  [`acquire`](Self::acquire)
/// adds a lock to the guard, [`release`](Self::release) releases one early,
/// and dropping the guard releases the rest, with the releases' charges, in
/// reverse acquisition order; [`unlock`](Self::unlock) drops it at a precise
/// program point (or at once, for EC's read-lock "pulse" that fetches bound
/// data: `ctx.lock(l, LockMode::ReadOnly).unlock()`).
///
/// The guard mutably borrows the context and dereferences to it, so all
/// shared access while its locks are held flows *through* the guard — and a
/// nested guard (`guard.lock(inner, mode)`) borrows the outer one, letting
/// the borrow checker enforce LIFO release order.  Entitlement is checked at
/// the view layer: [`LockGuard::view_mut`] panics if the guard holds any
/// read-only lock, mirroring EC's rule that only an exclusive holder may
/// modify bound data.
///
/// The guard keeps no list of its own: its locks are the entries the node's
/// held-lock list gained after the guard was opened, so acquiring through a
/// guard allocates nothing once that list has grown to its working size.
///
/// ```
/// use dsm_core::{BarrierId, BlockGranularity, Dsm, DsmConfig, ImplKind, LockId, LockMode};
///
/// let mut dsm = Dsm::new(DsmConfig::with_procs(ImplKind::ec_time(), 2))?;
/// let data = dsm.alloc_array::<u32>("data", 8, BlockGranularity::Word);
/// for l in 0..4 {
///     dsm.bind(LockId::new(l), [data.range(2 * l as usize, 2)]);
/// }
/// let result = dsm.run(|ctx| {
///     if ctx.node() == 0 {
///         let mut set = ctx.lock_set();
///         for l in 0..4 {
///             set.acquire(LockId::new(l), LockMode::Exclusive);
///         }
///         for i in 0..8 {
///             set.set(data, i, 10 * i as u32);
///         }
///     } // the guard releases locks 3, 2, 1 and 0 here
///     ctx.barrier(BarrierId::new(0));
/// });
/// assert_eq!(result.final_at(data, 7), 70);
/// # Ok::<(), dsm_core::DsmError>(())
/// ```
///
/// Locks are taken only through a guard; the context has no public acquire
/// or release:
///
/// ```compile_fail,E0624
/// use dsm_core::{Dsm, DsmConfig, ImplKind, LockId};
///
/// let dsm = Dsm::new(DsmConfig::with_procs(ImplKind::ec_time(), 1))?;
/// dsm.run(|ctx| ctx.release(LockId::new(0)));
/// # Ok::<(), dsm_core::DsmError>(())
/// ```
#[must_use = "the guard releases its locks when it drops; an unused guard releases at once"]
pub struct LockGuard<'c, 'a> {
    ctx: &'c mut ProcessContext<'a>,
    /// Length of the node's held-lock list when the guard was opened.  The
    /// guard's locks are the entries after it, in acquisition order: a nested
    /// guard borrows this one, so its own entries are gone again whenever
    /// this guard is used.
    base: usize,
}

impl<'a> LockGuard<'_, 'a> {
    /// The guard's locks: the held-list entries after its base.
    fn held(&self) -> &[(u32, HeldLock)] {
        self.ctx.local.held.get(self.base..).unwrap_or_default()
    }

    /// Acquires `lock` in `mode` and adds it to the guard.
    ///
    /// # Panics
    ///
    /// Panics if this processor already holds the lock, or if a read-only
    /// acquire is attempted under LRC (which provides only exclusive locks,
    /// as in the paper).
    pub fn acquire(&mut self, lock: LockId, mode: LockMode) {
        self.ctx.acquire(lock, mode);
    }

    /// Releases `lock` now, before the guard drops.
    ///
    /// # Panics
    ///
    /// Panics if the guard does not hold the lock.
    pub fn release(&mut self, lock: LockId) {
        assert!(
            !matches!(self.ctx.local.held_index(lock), Some(pos) if pos < self.base),
            "lock {lock} was not acquired through this guard"
        );
        self.ctx.release(lock);
    }

    /// Releases the guard's locks now (equivalent to dropping the guard, but
    /// reads as an action at the release point).
    pub fn unlock(self) {}

    /// A mutable typed view of `arr`, scoped to this guard's borrow.
    ///
    /// # Panics
    ///
    /// Panics if the guard holds any read-only lock: under EC only an
    /// exclusive holder may modify bound data, and handing out a mutable
    /// view from a read-only acquisition is exactly the annotation bug the
    /// typed API exists to catch.  A guard holding one lock refuses exactly
    /// when that lock is read-only; an empty guard never refuses.
    pub fn view_mut<T: Scalar>(
        &mut self,
        arr: impl Into<SharedArray<T>>,
    ) -> ArrayViewMut<'_, 'a, T> {
        if let Some((id, _)) = self.held().iter().find(|(_, h)| !h.mode.is_exclusive()) {
            panic!(
                "mutable view through a guard that holds read-only lock {}",
                LockId::new(*id)
            );
        }
        self.ctx.view_mut(arr)
    }
}

impl<'a> Deref for LockGuard<'_, 'a> {
    type Target = ProcessContext<'a>;

    fn deref(&self) -> &ProcessContext<'a> {
        self.ctx
    }
}

impl<'a> DerefMut for LockGuard<'_, 'a> {
    fn deref_mut(&mut self) -> &mut ProcessContext<'a> {
        self.ctx
    }
}

impl Drop for LockGuard<'_, '_> {
    fn drop(&mut self) {
        // The guard's locks are the held list's tail: release it from the end.
        for _ in self.base..self.ctx.local.held.len() {
            if let Some(&(id, _)) = self.ctx.local.held.last() {
                self.ctx.release(LockId::new(id));
            }
        }
    }
}

impl fmt::Debug for LockGuard<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.held().iter().map(|(id, h)| (LockId::new(*id), h.mode)))
            .finish()
    }
}

// ---------------------------------------------------------------------------
// The scoped typed view
// ---------------------------------------------------------------------------

/// Mutable typed view of a [`SharedArray<T>`], obtained from
/// [`ProcessContext::view_mut`] or [`LockGuard::view_mut`] (the latter only
/// through a guard that holds no read-only lock).
///
/// Bulk writes ([`ArrayViewMut::write`], [`ArrayViewMut::fill_from`]) lower onto
/// the span hot path ([`ProcessContext::write_from`]): the write trap runs
/// once per page instead of once per word, with identical simulated costs.
#[derive(Debug)]
pub struct ArrayViewMut<'c, 'a, T: Scalar> {
    ctx: &'c mut ProcessContext<'a>,
    arr: SharedArray<T>,
}

impl<T: Scalar> ArrayViewMut<'_, '_, T> {
    /// The array this view accesses.
    pub fn array(&self) -> SharedArray<T> {
        self.arr
    }

    /// Number of elements in the array.
    pub fn len(&self) -> usize {
        self.arr.len()
    }

    /// True if the array holds no elements.
    pub fn is_empty(&self) -> bool {
        self.arr.is_empty()
    }

    /// Reads element `idx`.
    pub fn get(&mut self, idx: usize) -> T {
        self.ctx.get(self.arr, idx)
    }

    /// Writes element `idx`.
    pub fn set(&mut self, idx: usize, value: T) {
        self.ctx.set(self.arr, idx, value);
    }

    /// Applies `f` to element `idx` (read-modify-write).
    pub fn modify(&mut self, idx: usize, f: impl FnOnce(T) -> T) {
        self.ctx.modify(self.arr, idx, f);
    }

    /// Reads `out.len()` consecutive elements starting at `start` (one span
    /// read on the hot path).
    pub fn read_into(&mut self, start: usize, out: &mut [T]) {
        self.ctx.read_into(self.arr, start, out);
    }

    /// Writes `values.len()` consecutive elements starting at `start` (one
    /// span write on the hot path).
    pub fn write(&mut self, start: usize, values: &[T]) {
        self.ctx.write_from(self.arr, start, values);
    }

    /// Writes `values` over the whole array (one span write).
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the array length.
    pub fn fill_from(&mut self, values: &[T]) {
        assert_eq!(values.len(), self.len(), "fill_from length mismatch");
        self.write(0, values);
    }
}

// ---------------------------------------------------------------------------
// ProcessContext: guards and views
// ---------------------------------------------------------------------------

/// Lock guards and views (the element and span accessors they build on live
/// beside the lock bodies in `context.rs`).
impl<'a> ProcessContext<'a> {
    /// Acquires `lock` in `mode` and returns an RAII guard that releases it
    /// when dropped.
    ///
    /// Under EC the acquire makes the data bound to the lock consistent (the
    /// update protocol piggybacks the modifications on the grant message)
    /// and the release publishes what an exclusive holder modified; under
    /// LRC the acquire merges the releaser's vector and receives write
    /// notices that invalidate stale pages, and the release ends the
    /// current interval.
    ///
    /// The guard dereferences to the context, so data access while the lock
    /// is held flows through it; a nested `guard.lock(..)` borrows the outer
    /// guard, making out-of-order release a borrow error.
    ///
    /// # Panics
    ///
    /// Panics if this processor already holds the lock, or if a read-only
    /// acquire is attempted under LRC (which provides only exclusive locks,
    /// as in the paper).
    pub fn lock(&mut self, lock: LockId, mode: LockMode) -> LockGuard<'_, 'a> {
        self.lock_if(true, lock, mode)
    }

    /// Acquires `lock` only if `cond` is true, returning a guard either way.
    ///
    /// This fits the application suite's idiom of one worker body shared by
    /// the EC and LRC versions: EC programs pass `cond = true` (the
    /// annotation), LRC programs pass `false`, and the body is written once
    /// against the guard.  With `cond` false the guard holds nothing,
    /// releases nothing, and charges nothing.
    pub fn lock_if(&mut self, cond: bool, lock: LockId, mode: LockMode) -> LockGuard<'_, 'a> {
        let mut guard = self.lock_set();
        if cond {
            guard.acquire(lock, mode);
        }
        guard
    }

    /// Opens an empty [`LockGuard`], for a set of locks whose size is known
    /// only at run time.
    pub fn lock_set(&mut self) -> LockGuard<'_, 'a> {
        LockGuard {
            base: self.local.held.len(),
            ctx: self,
        }
    }

    /// A mutable typed view of `arr` (no lock required — use
    /// [`LockGuard::view_mut`] to get the EC entitlement check).
    pub fn view_mut<T: Scalar>(
        &mut self,
        arr: impl Into<SharedArray<T>>,
    ) -> ArrayViewMut<'_, 'a, T> {
        ArrayViewMut {
            arr: arr.into(),
            ctx: self,
        }
    }
}

// ---------------------------------------------------------------------------
// Dsm: typed allocation
// ---------------------------------------------------------------------------

/// Bound allocation.
impl Dsm {
    /// Allocates a shared array of `count` elements of type `T` and binds it
    /// to `lock`, constructing the EC lock→data association of Section 3 in
    /// one place.  Under LRC the binding is a no-op, so the same call serves
    /// every implementation.
    pub fn alloc_bound<T: Scalar>(
        &mut self,
        name: impl Into<String>,
        count: usize,
        granularity: BlockGranularity,
        lock: LockId,
    ) -> Binding<T> {
        let array = self.alloc_array::<T>(name, count, granularity);
        self.bind(lock, [array.whole()]);
        Binding::new(lock, array)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DsmConfig, ImplKind};
    use crate::ids::BarrierId;

    fn dsm(kind: ImplKind, nprocs: usize) -> Dsm {
        Dsm::new(DsmConfig::with_procs(kind, nprocs)).expect("valid config")
    }

    #[test]
    fn handles_carry_type_and_shape() {
        let mut d = dsm(ImplKind::ec_time(), 2);
        let a = d.alloc_array::<f64>("m", 100, BlockGranularity::DoubleWord);
        assert_eq!(a.len(), 100);
        assert!(!a.is_empty());
        assert_eq!(a.granularity(), BlockGranularity::DoubleWord);
        let r = a.range(10, 5);
        assert_eq!((r.start, r.len), (80, 40));
        assert_eq!(a.whole().len, 800);
    }

    #[test]
    fn typed_accessors_roundtrip_and_match_raw() {
        let mut d = dsm(ImplKind::lrc_diff(), 1);
        let a = d.alloc_array::<u32>("a", 64, BlockGranularity::Word);
        d.init_array(a, |i| i as u32);
        let result = d.run(|ctx| {
            assert_eq!(ctx.get(a, 7), 7);
            ctx.set(a, 7, 70);
            ctx.modify(a, 7, |v| v + 1);
            let mut buf = [0u32; 4];
            ctx.read_into(a, 6, &mut buf);
            assert_eq!(buf, [6, 71, 8, 9]);
            ctx.write_from(a, 0, &[100, 101]);
            // peek reads the raw *published* master copy: local writes are
            // not published until the release/barrier, so it still sees the
            // initial value.
            assert_eq!(ctx.peek(a, 1), 1);
            ctx.barrier(BarrierId::new(0));
        });
        assert_eq!(result.final_at(a, 0), 100);
        assert_eq!(result.final_array(a)[7], 71);
    }

    #[test]
    fn lock_set_releases_early_and_the_rest_in_reverse_on_drop() {
        let mut d = dsm(ImplKind::ec_time(), 1);
        let a = d.alloc_array::<u32>("a", 4, BlockGranularity::Word);
        for l in 0..4 {
            d.bind(LockId::new(l), [a.range(l as usize, 1)]);
        }
        let result = d.run(|ctx| {
            let mut set = ctx.lock_set();
            for l in 0..3 {
                set.acquire(LockId::new(l), LockMode::Exclusive);
                set.set(a, l as usize, l + 1);
            }
            {
                // A nested guard borrows the set and is gone before the set
                // is used again.
                let mut inner = set.lock(LockId::new(3), LockMode::Exclusive);
                inner.set(a, 3, 4);
            }
            set.release(LockId::new(1));
            assert_eq!(
                format!("{set:?}"),
                "[(LockId(0), Exclusive), (LockId(2), Exclusive)]"
            );
            drop(set);
            // Each release advances the clock, so a lock's free time orders
            // the releases: 1 went early, then 2 before 0.
            let free = |ctx: &ProcessContext<'_>, l: usize| {
                crate::sync::lock(&ctx.global.sync.lock_slot(l).sync).free_time
            };
            assert!(free(ctx, 1) < free(ctx, 2) && free(ctx, 2) < free(ctx, 0));
            // Every lock is free again: re-acquiring one that is still held
            // would panic.
            let mut again = ctx.lock_set();
            for l in 0..4 {
                again.acquire(LockId::new(l), LockMode::Exclusive);
            }
        });
        assert_eq!(result.final_array(a), [1, 2, 3, 4]);
        assert_eq!(result.traffic.lock_acquires, 8);
    }

    #[test]
    // The worker's panic message ("was not acquired through this lock set")
    // is replaced by the runtime's join message when it propagates.
    #[should_panic(expected = "worker thread panicked")]
    fn lock_set_refuses_to_release_an_outer_guards_lock() {
        let d = dsm(ImplKind::lrc_diff(), 1);
        d.run(|ctx| {
            let mut outer = ctx.lock(LockId::new(0), LockMode::Exclusive);
            let mut set = outer.lock_set();
            set.release(LockId::new(0));
        });
    }

    /// Two locks, each bound to half of page 0 plus a page of its own (6 KiB,
    /// over the 4 KiB small-object limit, so both are page-twinned), held
    /// together; one word is written in each half of the shared page, and
    /// the first lock is released first (`first_out`) or last.  Returns the
    /// final words of both halves.
    fn page_shared_release(kind: ImplKind, first_out: bool) -> (u32, u32) {
        const HALF: usize = dsm_mem::PAGE_SIZE / 8;
        let mut d = dsm(kind, 1);
        let a = d.alloc_array::<u32>("a", 3 * 2 * HALF, BlockGranularity::Word);
        let (la, lb) = (LockId::new(0), LockId::new(1));
        d.bind(la, [a.range(0, HALF), a.range(2 * HALF, 2 * HALF)]);
        d.bind(lb, [a.range(HALF, HALF), a.range(4 * HALF, 2 * HALF)]);
        let result = d.run(|ctx| {
            let mut set = ctx.lock_set();
            set.acquire(la, LockMode::Exclusive);
            set.acquire(lb, LockMode::Exclusive);
            set.set(a, 0, 7);
            set.set(a, HALF, 9);
            if first_out {
                set.release(la);
            }
        });
        (result.final_at(a, 0), result.final_at(a, HALF))
    }

    #[test]
    fn ec_page_shared_bindings_publish_in_either_release_order() {
        // A page two held locks armed keeps its twin until the last of them
        // releases; releasing the first-armed lock first once handed the
        // twin back to the pool, and the second release then published
        // nothing for the page.
        for kind in ImplKind::ec_all() {
            for first_out in [true, false] {
                assert_eq!(
                    page_shared_release(kind, first_out),
                    (7, 9),
                    "{kind}, first-acquired lock released first: {first_out}"
                );
            }
        }
    }
    #[test]
    fn lock_if_false_holds_and_charges_nothing() {
        let mut d = dsm(ImplKind::lrc_diff(), 1);
        let a = d.alloc_array::<u32>("a", 4, BlockGranularity::Word);
        let result = d.run(|ctx| {
            let mut g = ctx.lock_if(false, LockId::new(9), LockMode::Exclusive);
            assert_eq!(format!("{g:?}"), "[]");
            g.set(a, 0, 1);
            // A mutable view is fine without a lock (the LRC case).
            g.view_mut(a).set(1, 2);
            drop(g);
            ctx.barrier(BarrierId::new(0));
        });
        assert_eq!(result.final_at(a, 1), 2);
        assert_eq!(result.traffic.lock_acquires, 0);
    }

    #[test]
    fn nested_guards_release_in_lifo_order() {
        let mut d = dsm(ImplKind::ec_time(), 2);
        let a = d.alloc_bound::<u32>("a", 8, BlockGranularity::Word, LockId::new(0));
        let b = d.alloc_bound::<u32>("b", 8, BlockGranularity::Word, LockId::new(1));
        let result = d.run(|ctx| {
            let mut outer = ctx.lock(a.lock(), LockMode::Exclusive);
            {
                let mut inner = outer.lock(b.lock(), LockMode::Exclusive);
                inner.modify(b, 0, |v: u32| v + 1);
            }
            outer.modify(a, 0, |v: u32| v + 1);
            drop(outer);
            ctx.barrier(BarrierId::new(0));
        });
        assert_eq!(result.final_at(a, 0), 2);
        assert_eq!(result.final_at(b, 0), 2);
    }

    #[test]
    // The worker's panic message ("mutable view through a read-only lock
    // guard") is replaced by the runtime's join message when it propagates.
    #[should_panic(expected = "worker thread panicked")]
    fn read_only_guard_refuses_mutable_views() {
        let mut d = dsm(ImplKind::ec_time(), 1);
        let a = d.alloc_bound::<u32>("a", 8, BlockGranularity::Word, LockId::new(0));
        d.run(|ctx| {
            let mut g = ctx.lock(a.lock(), LockMode::ReadOnly);
            let _ = g.view_mut(a);
        });
    }

    #[test]
    fn multi_lock_guard_refuses_mutable_views_while_it_holds_a_read_only_lock() {
        let mut d = dsm(ImplKind::ec_time(), 1);
        let a = d.alloc_bound::<u32>("a", 8, BlockGranularity::Word, LockId::new(0));
        let b = d.alloc_bound::<u32>("b", 8, BlockGranularity::Word, LockId::new(1));
        let result = d.run(|ctx| {
            // Two exclusive locks: the guard hands out views, and their
            // writes publish at the release.
            let mut g = ctx.lock_set();
            g.acquire(a.lock(), LockMode::Exclusive);
            g.acquire(b.lock(), LockMode::Exclusive);
            g.view_mut(a).set(0, 5);
            g.view_mut(b).set(0, 6);
            drop(g);
            // One exclusive and one read-only lock, in either order: no
            // mutable view, not even of the exclusively held array.
            let (x, r) = (LockMode::Exclusive, LockMode::ReadOnly);
            for (mode_a, mode_b, read_only) in [(x, r, "L1"), (r, x, "L0")] {
                let mut g = ctx.lock_set();
                g.acquire(a.lock(), mode_a);
                g.acquire(b.lock(), mode_b);
                let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _ = g.view_mut(if mode_a == x { a } else { b });
                }));
                let msg = refused.expect_err("mutable view through a read-only lock");
                let msg = msg.downcast_ref::<String>().expect("formatted message");
                assert!(
                    msg.contains(&format!("read-only lock {read_only}")),
                    "{msg}"
                );
            }
        });
        assert_eq!(result.final_at(a, 0), 5);
        assert_eq!(result.final_at(b, 0), 6);
    }

    #[test]
    fn views_cover_bulk_and_element_ops() {
        let mut d = dsm(ImplKind::hlrc_diff(), 2);
        let a = d.alloc_array::<i64>("a", 32, BlockGranularity::DoubleWord);
        d.init_array(a, |i| i as i64);
        let result = d.run(|ctx| {
            if ctx.node() == 0 {
                let mut v = ctx.view_mut(a);
                assert_eq!(v.len(), 32);
                assert!(!v.is_empty());
                assert_eq!(v.array(), a);
                v.set(0, -1);
                v.modify(0, |x| x - 1);
                v.write(1, &[10, 11]);
                let mut all = vec![0i64; 32];
                v.read_into(0, &mut all);
                assert_eq!(&all[..3], &[-2, 10, 11]);
            }
            ctx.barrier(BarrierId::new(0));
            assert_eq!(ctx.get(a, 1), 10);
            assert_eq!(ctx.get(a, 2), 11);
            ctx.barrier(BarrierId::new(1));
        });
        assert_eq!(result.final_array(a)[0], -2);
    }

    #[test]
    fn bindings_convert_to_arrays_everywhere() {
        let mut d = dsm(ImplKind::ec_ci(), 2);
        let b = d.alloc_bound::<f32>("b", 16, BlockGranularity::Word, LockId::new(3));
        assert_eq!(b.lock(), LockId::new(3));
        assert_eq!(b.array().len(), 16);
        d.init_array(b, |i| i as f32);
        let result = d.run(|ctx| {
            let mut g = ctx.lock(b.lock(), LockMode::Exclusive);
            let v = g.get(b, 2);
            g.set(b, 2, v + 1.0);
            g.unlock();
            ctx.barrier(BarrierId::new(0));
        });
        assert_eq!(result.final_at(b, 2), 4.0);
    }

    #[test]
    fn handles_are_copy_eq_and_debuggable() {
        let mut d = dsm(ImplKind::lrc_ci(), 1);
        let a = d.alloc_array::<f64>("a", 4, BlockGranularity::DoubleWord);
        let b = d.alloc_array::<f64>("b", 4, BlockGranularity::DoubleWord);
        let a2 = a;
        assert_eq!(a, a2);
        assert_ne!(a, b);
        let dbg = format!("{a:?}");
        assert!(dbg.contains("SharedArray") && dbg.contains("f64"));
    }
}
