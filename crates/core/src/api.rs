//! The typed shared-data API: `SharedArray<T>` handles, RAII lock guards,
//! scoped array views, and first-class EC bindings.
//!
//! This layer is pure ergonomics over the raw [`ProcessContext`] accessors —
//! every typed operation lowers onto exactly one raw call (`read`, `write`,
//! `read_slice`, `write_slice`, `acquire`, `release`, ...), so the simulated
//! costs, statistics and traffic of a typed program are **byte-identical** to
//! its raw-API equivalent (`tests/tests/typed_api_equivalence.rs` pins this
//! against goldens blessed before the layer existed).
//!
//! The paper's central programmability finding is that entry consistency
//! makes the programmer associate data with synchronization objects while
//! lazy release consistency needs no annotations (Section 3).  The typed API
//! makes that burden visible and checkable instead of burying it in
//! turbofish calls and scattered `bind` invocations:
//!
//! * [`SharedArray<T>`] / [`SharedScalar<T>`] carry their element type, so
//!   access sites infer `T` from the handle instead of spelling
//!   `read::<f64>(region, i)`.
//! * [`LockGuard`]s from [`ProcessContext::lock`] release on drop and gate
//!   mutable views on the acquisition mode — a read-only EC lock cannot hand
//!   out an [`ArrayViewMut`].
//! * [`Binding<T>`] from [`Dsm::alloc_bound`] constructs the lock→data
//!   association of Section 3 in one place (a no-op under LRC, so the same
//!   setup code serves every model).
//! * [`ArrayView`] / [`ArrayViewMut`] bulk operations lower onto the
//!   allocation-free span hot path ([`ProcessContext::read_slice`] /
//!   [`ProcessContext::write_slice`]).
//!
//! The raw `Region`-based accessors remain available as the documented
//! low-level escape hatch — programs with dynamic lock sets (e.g. 3D-FFT's
//! per-(owner, reader) chunk locks) interleave raw `acquire`/`release` with
//! typed data access freely, and equivalence suites use the raw API to pin
//! byte-identity across the two surfaces.

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};

use dsm_mem::{BlockGranularity, MemRange};

use crate::context::ProcessContext;
use crate::ids::{LockId, LockMode};
use crate::runtime::{Dsm, Region, RunResult};
use crate::scalar::Scalar;

// ---------------------------------------------------------------------------
// Typed handles
// ---------------------------------------------------------------------------

/// `Debug` body shared by the typed handles (they differ only in the struct
/// name and all delegate to the inner region).
macro_rules! fmt_debug_handle {
    ($name:literal) => {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct($name)
                .field("region", &self.region())
                .field("elem", &std::any::type_name::<T>())
                .finish()
        }
    };
}

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
    region: Region,
    _elem: PhantomData<fn() -> T>,
}

impl<T: Scalar> SharedArray<T> {
    /// Types a raw region handle as an array of `T`.
    ///
    /// This is the escape-hatch constructor for code that allocated with the
    /// raw [`Dsm::alloc`]; [`Dsm::alloc_array`] is the normal way to obtain a
    /// typed handle.
    ///
    /// # Panics
    ///
    /// Panics if the region's byte length is not a multiple of `T`'s size.
    pub fn from_region(region: Region) -> Self {
        assert!(
            region.len() % T::SIZE == 0,
            "region of {} bytes does not hold whole elements of {} bytes",
            region.len(),
            T::SIZE
        );
        SharedArray {
            region,
            _elem: PhantomData,
        }
    }

    /// The underlying raw region handle (the escape hatch back to the
    /// untyped API).
    pub fn region(&self) -> Region {
        self.region
    }

    /// Number of elements the array holds.
    pub fn len(&self) -> usize {
        self.region.len() / T::SIZE
    }

    /// True if the array holds no elements.
    pub fn is_empty(&self) -> bool {
        self.region.len() == 0
    }

    /// The block granularity writes are trapped at under compiler
    /// instrumentation.
    pub fn granularity(&self) -> BlockGranularity {
        self.region.granularity()
    }

    /// A [`MemRange`] covering elements `start..start + count`, for binding
    /// part of the array to an EC lock ([`Dsm::bind`]).
    pub fn range(&self, start: usize, count: usize) -> MemRange {
        self.region.range_of::<T>(start, count)
    }

    /// A [`MemRange`] covering the whole array.
    pub fn whole(&self) -> MemRange {
        self.region.whole()
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
        self.region == other.region
    }
}
impl<T: Scalar> Eq for SharedArray<T> {}

impl<T: Scalar> fmt::Debug for SharedArray<T> {
    fmt_debug_handle!("SharedArray");
}

impl<T: Scalar> From<SharedArray<T>> for Region {
    fn from(arr: SharedArray<T>) -> Region {
        arr.region
    }
}

/// Typed handle to a single shared value of type `T`.
///
/// Returned by [`Dsm::alloc_scalar`]; accessed with [`ProcessContext::load`]
/// / [`ProcessContext::store`] / [`ProcessContext::fetch_update`] and read
/// out with [`RunResult::final_scalar`].
pub struct SharedScalar<T: Scalar> {
    array: SharedArray<T>,
}

impl<T: Scalar> SharedScalar<T> {
    pub(crate) fn new(array: SharedArray<T>) -> Self {
        SharedScalar { array }
    }

    /// The scalar viewed as a one-element array.
    pub fn array(&self) -> SharedArray<T> {
        self.array
    }

    /// The underlying raw region handle.
    pub fn region(&self) -> Region {
        self.array.region()
    }
}

impl<T: Scalar> Clone for SharedScalar<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Scalar> Copy for SharedScalar<T> {}

impl<T: Scalar> PartialEq for SharedScalar<T> {
    fn eq(&self, other: &Self) -> bool {
        self.array == other.array
    }
}
impl<T: Scalar> Eq for SharedScalar<T> {}

impl<T: Scalar> fmt::Debug for SharedScalar<T> {
    fmt_debug_handle!("SharedScalar");
}

impl<T: Scalar> From<SharedScalar<T>> for SharedArray<T> {
    fn from(s: SharedScalar<T>) -> SharedArray<T> {
        s.array
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
// RAII lock guards
// ---------------------------------------------------------------------------

/// RAII guard for a lock acquired with [`ProcessContext::lock`] (or
/// conditionally with [`ProcessContext::lock_if`]): the lock is released when
/// the guard is dropped.
///
/// The guard mutably borrows the context and dereferences to it, so all
/// shared access while the lock is held flows *through* the guard — and a
/// nested acquire (`guard.lock(inner, mode)`) borrows the outer guard,
/// letting the borrow checker enforce LIFO release order.  Entitlement is
/// checked at the view layer: [`LockGuard::view_mut`] panics if the guard
/// holds a read-only lock, mirroring EC's rule that only an exclusive holder
/// may modify bound data.
///
/// Releasing charges exactly what a raw [`ProcessContext::release`] charges,
/// at the point the guard drops; use [`LockGuard::unlock`] to release at a
/// precise program point (or immediately, for EC's read-lock "pulse" that
/// fetches bound data: `ctx.lock(l, LockMode::ReadOnly).unlock()`).
#[must_use = "the lock is released when the guard drops; an unused guard releases immediately"]
pub struct LockGuard<'c, 'a> {
    ctx: &'c mut ProcessContext<'a>,
    lock: Option<LockId>,
    mode: LockMode,
}

impl<'c, 'a> LockGuard<'c, 'a> {
    /// The lock this guard holds, or `None` for a [`ProcessContext::lock_if`]
    /// guard whose condition was false.
    pub fn lock_id(&self) -> Option<LockId> {
        self.lock
    }

    /// The mode the lock was requested in.
    pub fn mode(&self) -> LockMode {
        self.mode
    }

    /// True if this guard actually holds a lock.
    pub fn holds(&self) -> bool {
        self.lock.is_some()
    }

    /// Releases the lock now (equivalent to dropping the guard, but reads as
    /// an action at the release point).
    pub fn unlock(self) {}

    /// A read-only typed view of `arr`, scoped to this guard's borrow.
    ///
    /// Under EC the view should cover data bound to the held lock — that is
    /// what the acquire made consistent.
    pub fn view<T: Scalar>(&mut self, arr: impl Into<SharedArray<T>>) -> ArrayView<'_, 'a, T> {
        self.ctx.view(arr)
    }

    /// A mutable typed view of `arr`, scoped to this guard's borrow.
    ///
    /// # Panics
    ///
    /// Panics if the guard holds a read-only lock: under EC only an exclusive
    /// holder may modify bound data, and handing out a mutable view from a
    /// read-only acquisition is exactly the annotation bug the typed API
    /// exists to catch.
    pub fn view_mut<T: Scalar>(
        &mut self,
        arr: impl Into<SharedArray<T>>,
    ) -> ArrayViewMut<'_, 'a, T> {
        assert!(
            !self.holds() || self.mode.is_exclusive(),
            "mutable view through a read-only lock guard ({})",
            self.lock.expect("held")
        );
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
        if let Some(lock) = self.lock {
            self.ctx.release(lock);
        }
    }
}

impl fmt::Debug for LockGuard<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockGuard")
            .field("lock", &self.lock)
            .field("mode", &self.mode)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Scoped typed views
// ---------------------------------------------------------------------------

/// Read-only typed view of a [`SharedArray<T>`], obtained from
/// [`ProcessContext::view`] or [`LockGuard::view`].
///
/// Bulk operations ([`ArrayView::read_into`], [`ArrayView::to_vec`]) lower
/// onto the allocation-free span hot path
/// ([`ProcessContext::read_slice`]) — per-page freshness validation instead
/// of per-word — with costs identical to the element-wise loop.
#[derive(Debug)]
pub struct ArrayView<'c, 'a, T: Scalar> {
    ctx: &'c mut ProcessContext<'a>,
    arr: SharedArray<T>,
}

impl<T: Scalar> ArrayView<'_, '_, T> {
    /// The array this view reads.
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

    /// Reads `out.len()` consecutive elements starting at `start` (one span
    /// read on the hot path).
    pub fn read_into(&mut self, start: usize, out: &mut [T]) {
        self.ctx.read_into(self.arr, start, out);
    }

    /// Copies the whole array out as a vector (one span read).
    pub fn to_vec(&mut self) -> Vec<T> {
        let mut out = vec![T::default(); self.len()];
        self.read_into(0, &mut out);
        out
    }
}

/// Mutable typed view of a [`SharedArray<T>`], obtained from
/// [`ProcessContext::view_mut`] or [`LockGuard::view_mut`] (the latter only
/// through an exclusive lock).
///
/// Bulk writes ([`ArrayViewMut::write`], [`ArrayViewMut::fill_from`]) lower onto
/// the span hot path ([`ProcessContext::write_slice`]): the write trap runs
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
// ProcessContext: typed accessors and guards
// ---------------------------------------------------------------------------

/// Typed shared-data accessors.  Each method lowers onto exactly one raw
/// accessor with the element type inferred from the handle; costs and
/// statistics are identical to the raw call.
impl<'a> ProcessContext<'a> {
    /// Reads element `idx` of a typed array
    /// (lowers onto [`read`](ProcessContext::read)).
    pub fn get<T: Scalar>(&mut self, arr: impl Into<SharedArray<T>>, idx: usize) -> T {
        self.read::<T>(arr.into().region(), idx)
    }

    /// Writes element `idx` of a typed array
    /// (lowers onto [`write`](ProcessContext::write)).
    pub fn set<T: Scalar>(&mut self, arr: impl Into<SharedArray<T>>, idx: usize, value: T) {
        self.write::<T>(arr.into().region(), idx, value);
    }

    /// Applies `f` to element `idx` of a typed array
    /// (lowers onto [`update`](ProcessContext::update)).
    pub fn modify<T: Scalar>(
        &mut self,
        arr: impl Into<SharedArray<T>>,
        idx: usize,
        f: impl FnOnce(T) -> T,
    ) {
        self.update::<T>(arr.into().region(), idx, f);
    }

    /// Reads `out.len()` consecutive elements starting at element `start`
    /// (lowers onto the span hot path, [`read_slice`](ProcessContext::read_slice)).
    pub fn read_into<T: Scalar>(
        &mut self,
        arr: impl Into<SharedArray<T>>,
        start: usize,
        out: &mut [T],
    ) {
        self.read_slice::<T>(arr.into().region(), start, out);
    }

    /// Writes `values.len()` consecutive elements starting at element `start`
    /// (lowers onto the span hot path, [`write_slice`](ProcessContext::write_slice)).
    pub fn write_from<T: Scalar>(
        &mut self,
        arr: impl Into<SharedArray<T>>,
        start: usize,
        values: &[T],
    ) {
        self.write_slice::<T>(arr.into().region(), start, values);
    }

    /// Reads the most recently published value of element `idx` without any
    /// consistency action or cost (lowers onto
    /// [`poll`](ProcessContext::poll); see that method's caveats — never use
    /// it for data the algorithm consumes).
    pub fn peek<T: Scalar>(&mut self, arr: impl Into<SharedArray<T>>, idx: usize) -> T {
        self.poll::<T>(arr.into().region(), idx)
    }

    /// Reads a shared scalar.
    pub fn load<T: Scalar>(&mut self, scalar: SharedScalar<T>) -> T {
        self.get(scalar.array(), 0)
    }

    /// Writes a shared scalar.
    pub fn store<T: Scalar>(&mut self, scalar: SharedScalar<T>, value: T) {
        self.set(scalar.array(), 0, value);
    }

    /// Applies `f` to a shared scalar (read-modify-write).
    pub fn fetch_update<T: Scalar>(&mut self, scalar: SharedScalar<T>, f: impl FnOnce(T) -> T) {
        self.modify(scalar.array(), 0, f);
    }

    /// Acquires `lock` in `mode` and returns an RAII guard that releases it
    /// when dropped (lowers onto [`acquire`](ProcessContext::acquire) /
    /// [`release`](ProcessContext::release) with identical costs).
    ///
    /// The guard dereferences to the context, so data access while the lock
    /// is held flows through it; a nested `guard.lock(..)` borrows the outer
    /// guard, making out-of-order release a borrow error.
    pub fn lock(&mut self, lock: LockId, mode: LockMode) -> LockGuard<'_, 'a> {
        self.acquire(lock, mode);
        LockGuard {
            ctx: self,
            lock: Some(lock),
            mode,
        }
    }

    /// Acquires `lock` only if `cond` is true, returning a guard either way.
    ///
    /// This fits the application suite's idiom of one worker body shared by
    /// the EC and LRC versions: EC programs pass `cond = true` (the
    /// annotation), LRC programs pass `false`, and the body is written once
    /// against the guard.  With `cond` false the guard holds nothing,
    /// releases nothing, and charges nothing.
    pub fn lock_if(&mut self, cond: bool, lock: LockId, mode: LockMode) -> LockGuard<'_, 'a> {
        if cond {
            self.acquire(lock, mode);
        }
        LockGuard {
            ctx: self,
            lock: cond.then_some(lock),
            mode,
        }
    }

    /// A read-only typed view of `arr` (no lock required — under LRC,
    /// barriers provide the ordering).
    pub fn view<T: Scalar>(&mut self, arr: impl Into<SharedArray<T>>) -> ArrayView<'_, 'a, T> {
        ArrayView {
            arr: arr.into(),
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

/// Typed allocation.
impl Dsm {
    /// Allocates a shared scalar of type `T`, zero-initialised.
    pub fn alloc_scalar<T: Scalar>(
        &mut self,
        name: impl Into<String>,
        granularity: BlockGranularity,
    ) -> SharedScalar<T> {
        SharedScalar::new(self.alloc_array::<T>(name, 1, granularity))
    }

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

    /// Initialises a typed array with values produced by `f` (called with
    /// each element index).  Like [`Dsm::init_region`], initial data is
    /// distributed before the run and charged no communication cost.
    pub fn init_array<T: Scalar>(
        &mut self,
        arr: impl Into<SharedArray<T>>,
        f: impl Fn(usize) -> T,
    ) {
        self.init_region::<T>(arr.into().region(), f);
    }

    /// Initialises a shared scalar.
    pub fn init_scalar<T: Scalar>(&mut self, scalar: SharedScalar<T>, value: T) {
        self.init_region::<T>(scalar.region(), move |_| value);
    }
}

// ---------------------------------------------------------------------------
// RunResult: typed finals
// ---------------------------------------------------------------------------

/// Typed access to the final published contents.
impl RunResult {
    /// Reads element `idx` of the final contents of a typed array.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn final_at<T: Scalar>(&self, arr: impl Into<SharedArray<T>>, idx: usize) -> T {
        self.read_final::<T>(arr.into().region(), idx)
    }

    /// Copies the final contents of a typed array out as a vector.
    pub fn final_array<T: Scalar>(&self, arr: impl Into<SharedArray<T>>) -> Vec<T> {
        self.final_vec::<T>(arr.into().region())
    }

    /// Reads the final value of a shared scalar.
    pub fn final_scalar<T: Scalar>(&self, scalar: SharedScalar<T>) -> T {
        self.final_at(scalar.array(), 0)
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
        assert_eq!(a.region().len(), 800);
        assert_eq!(a.granularity(), BlockGranularity::DoubleWord);
        let r = a.range(10, 5);
        assert_eq!((r.start, r.len), (80, 40));
        assert_eq!(a.whole().len, 800);
        assert_eq!(Region::from(a), a.region());
    }

    #[test]
    fn from_region_roundtrips() {
        let mut d = dsm(ImplKind::lrc_diff(), 1);
        let raw = d.alloc("raw", 64, BlockGranularity::Word);
        let typed = SharedArray::<u32>::from_region(raw);
        assert_eq!(typed.len(), 16);
        assert_eq!(typed.region(), raw);
    }

    #[test]
    #[should_panic(expected = "whole elements")]
    fn from_region_rejects_partial_elements() {
        let mut d = dsm(ImplKind::lrc_diff(), 1);
        let raw = d.alloc("raw", 6, BlockGranularity::Word);
        let _ = SharedArray::<u32>::from_region(raw);
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
            // peek reads the *published* master copy: local writes are not
            // published until the release/barrier, so it still sees the
            // initial value.
            assert_eq!(ctx.peek(a, 1), 1);
            // Raw escape hatch agrees with the typed surface.
            assert_eq!(ctx.read::<u32>(a.region(), 7), 71);
            ctx.barrier(BarrierId::new(0));
        });
        assert_eq!(result.final_at(a, 0), 100);
        assert_eq!(result.final_array(a)[7], 71);
    }

    #[test]
    fn scalars_load_store_and_update() {
        let mut d = dsm(ImplKind::ec_diff(), 2);
        let s = d.alloc_scalar::<u32>("counter", BlockGranularity::Word);
        d.init_scalar(s, 5);
        let lock = LockId::new(0);
        d.bind(lock, [s.array().whole()]);
        let result = d.run(|ctx| {
            let mut g = ctx.lock(lock, LockMode::Exclusive);
            g.fetch_update(s, |v| v + 1);
            g.unlock();
            ctx.barrier(BarrierId::new(0));
        });
        assert_eq!(result.final_scalar(s), 7);
    }

    #[test]
    fn guards_release_on_drop_with_raw_costs() {
        // A guard-based program and a raw program must produce identical
        // traffic (the guard is sugar, not semantics).  The nodes take the
        // lock in turn, one per barrier episode: the traffic depends on which
        // node is granted the lock first, so a race for it would make the
        // two runs differ by schedule alone.
        let run = |guards: bool| {
            let mut d = dsm(ImplKind::lrc_diff(), 2);
            let a = d.alloc_array::<u32>("a", 16, BlockGranularity::Word);
            let result = d.run(|ctx| {
                for turn in 0..ctx.nprocs() {
                    if ctx.node() == turn {
                        if guards {
                            let mut g = ctx.lock(LockId::new(0), LockMode::Exclusive);
                            g.modify(a, 0, |v: u32| v + 1);
                        } else {
                            ctx.acquire(LockId::new(0), LockMode::Exclusive);
                            ctx.update::<u32>(a.region(), 0, |v| v + 1);
                            ctx.release(LockId::new(0));
                        }
                    }
                    ctx.barrier(BarrierId::new(0));
                }
            });
            (
                result.final_at(a, 0),
                result.traffic.messages,
                result.traffic.bytes,
                result.traffic.lock_transfers,
            )
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn lock_if_false_holds_and_charges_nothing() {
        let mut d = dsm(ImplKind::lrc_diff(), 1);
        let a = d.alloc_array::<u32>("a", 4, BlockGranularity::Word);
        let result = d.run(|ctx| {
            let mut g = ctx.lock_if(false, LockId::new(9), LockMode::Exclusive);
            assert!(!g.holds());
            assert_eq!(g.lock_id(), None);
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
            let mut r = ctx.view(a);
            assert_eq!(r.get(1), 10);
            assert_eq!(r.to_vec()[2], 11);
            assert_eq!(r.array(), a);
            assert_eq!(r.len(), 32);
            assert!(!r.is_empty());
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
        let s = d.alloc_scalar::<u32>("s", BlockGranularity::Word);
        assert_eq!(s, s);
        let dbg = format!("{a:?} {s:?}");
        assert!(dbg.contains("SharedArray") && dbg.contains("f64"));
        assert!(dbg.contains("SharedScalar") && dbg.contains("u32"));
    }
}
