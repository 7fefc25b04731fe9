//! Steady-state allocation test for the epoch loop.
//!
//! The write/publish data plane is pooled and scratch-buffered: twins come
//! from the node's `BufferPool`, the dirty-page list ping-pongs with a spare,
//! the publish history recycles its records and the interval log grows in
//! coarse reserved chunks.  After a warm-up long enough to fill every ring
//! and pool, a whole window of write → release → acquire epochs must
//! therefore allocate *nothing*.  A counting global allocator pins that: the
//! counter is armed inside the worker after warm-up and must not move.
//!
//! The run is single-processor so the armed window counts only the epoch
//! loop itself (the main thread is parked in `join`, and no other worker
//! exists); multi-processor byte-equivalence is covered by the golden suites.
//! The implementations run one after another inside the one test, because
//! the counter is process-wide and tests run on parallel threads.  Under EC
//! the region is bound to the lock and spans four pages, so every acquire
//! arms those pages (the large-object path).  One more EC-time case splits
//! the region between two locks whose bindings share a page and holds both
//! through one `LockGuard` opened with `lock_set`, so the shared page is
//! armed twice and its twin outlives the first release.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use dsm_core::{BlockGranularity, Dsm, DsmConfig, ImplKind, LockId, LockMode};

/// Counts every allocator entry point while armed; delegates to the system
/// allocator.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Warm-up epochs: enough to fill the publish-history and diff rings (64
/// records each), the twin pool, and the first 1024-entry reservation of
/// the interval log.
const WARMUP: usize = 1200;
/// Armed window: stays well inside the interval log's second reservation
/// (next growth at epoch 2048+).
const WINDOW: usize = 256;

#[test]
fn steady_state_epochs_allocate_nothing() {
    let allocs: Vec<(&str, bool, u64)> = [
        ("LRC-diff", false),
        ("EC-time", false),
        ("EC-diff", false),
        ("EC-time", true),
    ]
    .into_iter()
    .map(|(name, lock_set)| (name, lock_set, window_allocations(name, lock_set)))
    .collect();
    assert!(
        allocs.iter().all(|&(_, _, n)| n == 0),
        "a steady-state write/release/acquire epoch must not allocate: {allocs:?}"
    );
}

/// Allocations during the armed window of `WINDOW` epochs under `impl_name`.
/// With `lock_set`, two locks split the region (bound ranges of 6 and 10 KiB
/// that share its second page), each epoch holds both through one guard,
/// and the first-acquired lock is released first.
fn window_allocations(impl_name: &str, lock_set: bool) -> u64 {
    let kind = ImplKind::from_name(impl_name).expect("known impl");
    let mut dsm = Dsm::new(DsmConfig::with_procs(kind, 1)).expect("valid config");
    // Four pages of shared u32s, all rewritten every epoch.
    let elems = 4 * 1024;
    let region = dsm.alloc_array::<u32>("hot", elems, BlockGranularity::Word);
    if lock_set {
        let split = elems * 3 / 8;
        dsm.bind(LockId::new(0), [region.range(0, split)]);
        dsm.bind(LockId::new(1), [region.range(split, elems - split)]);
    } else {
        dsm.bind(LockId::new(0), [region.whole()]);
    }
    ALLOCS.store(0, Ordering::SeqCst);

    dsm.run(|ctx| {
        let mut values = vec![7u32; elems];
        for epoch in 0..WARMUP + WINDOW {
            if epoch == WARMUP {
                ARMED.store(true, Ordering::SeqCst);
            }
            // Fresh values every epoch (in place, no allocation), so the
            // publish really collects and stamps every page each interval.
            for (i, v) in values.iter_mut().enumerate() {
                *v = (epoch + i) as u32;
            }
            if lock_set {
                let mut set = ctx.lock_set();
                set.acquire(LockId::new(0), LockMode::Exclusive);
                set.acquire(LockId::new(1), LockMode::Exclusive);
                set.write_from(region, 0, &values);
                set.release(LockId::new(0));
            } else {
                let mut g = ctx.lock(LockId::new(0), LockMode::Exclusive);
                g.write_from(region, 0, &values);
                drop(g);
            }
        }
        ARMED.store(false, Ordering::SeqCst);
    });
    ALLOCS.load(Ordering::SeqCst)
}
