//! Sharded synchronization state: one slot per lock and per barrier.
//!
//! The seed implementation kept the entire cluster state behind a single
//! `Mutex<Shared>` with one `Condvar`, so every acquire, release, barrier
//! arrival and page fault on every simulated processor serialized on one OS
//! lock, and every wakeup was a thundering herd.  This module replaces that
//! with *sharded* tables: each lock and each barrier lives in its own slot
//! with its own mutex and condition variable, so independent synchronization
//! objects never contend and waiters wake only when *their* object changes
//! state.  The model-specific protocol state is sharded separately by the
//! engines (see `DESIGN.md`, "Sharding layout").
//!
//! The tables are append-only, so finding an existing slot is one acquire
//! load and an index: no table lock and no reference count.  Each slot
//! starts on a cache line of its own, so no two slots share one.  A lock slot
//! counts the threads blocked on its condition variable, and a release
//! signals it only when that count is non-zero, so an uncontended
//! acquire/release pair takes the slot mutex twice and makes no syscall.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

use dsm_mem::VectorClock;
use dsm_sim::{NodeId, SimTime};

/// Locks a mutex, recovering the data if another worker panicked while
/// holding it.  The protocol state is plain data that stays structurally
/// valid across a panic, and the panic itself is re-raised when the runtime
/// joins the worker, so continuing here never masks a failure.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// [`lock`] for read-locking an `RwLock`.
pub(crate) fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// [`lock`] for write-locking an `RwLock`.
pub(crate) fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// [`lock`] for condition-variable waits.
pub(crate) fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard)
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Slots in a [`SlotTable`]'s first segment; segment `k` holds
/// `FIRST_SEGMENT << k` slots.
const FIRST_SEGMENT: usize = 64;

/// Segments needed to cover every `usize` index.
const SEGMENTS: usize = (usize::BITS - FIRST_SEGMENT.trailing_zeros()) as usize;

/// The segment holding slot `index`, and the slot's offset in it.  Segment
/// `k` covers indices `FIRST_SEGMENT * (2^k - 1)..FIRST_SEGMENT * (2^(k+1) - 1)`.
fn locate(index: usize) -> (usize, usize) {
    let biased = index
        .checked_add(FIRST_SEGMENT)
        .expect("slot index overflows usize");
    let seg = (biased.ilog2() - FIRST_SEGMENT.ilog2()) as usize;
    (seg, biased - (FIRST_SEGMENT << seg))
}

/// A slot that starts on a cache line of its own.
///
/// A segment lays its slots side by side.  Unaligned, a slot could straddle
/// two lines and share each with a neighbour, so two workers taking
/// adjacent locks would pass lines back and forth, and which slots shared
/// would change with where the allocator put the segment, from one run (or
/// round) to the next.
#[repr(align(64))]
struct CacheAligned<T>(T);

/// An append-only table of slots, indexed densely and created on demand.
///
/// Slots live in geometrically growing segments, each built whole (every
/// slot by `make`, with its own index) the first time one of its indices is
/// used, and never moved or freed before the table.  A lookup is therefore
/// one acquire load and an index, and it hands out a plain reference: no
/// table lock is taken and no reference count is touched, so lookups from
/// different workers share cache lines only for reading.  No two slots
/// share a cache line.  Per-slot mutexes are the callers' business.
pub(crate) struct SlotTable<T> {
    segments: [OnceLock<Box<[CacheAligned<T>]>>; SEGMENTS],
    /// One past the highest index looked up so far.  Relaxed throughout: it
    /// publishes no slot (every slot is reached through its segment's
    /// `OnceLock`, which orders the segment's construction before any use),
    /// it only sizes [`len`](SlotTable::len) and [`iter`](SlotTable::iter).
    len: AtomicUsize,
    make: Box<dyn Fn(usize) -> T + Send + Sync>,
}

impl<T> SlotTable<T> {
    /// Creates an empty table whose slots are built by `make` (called with
    /// the slot index).
    pub fn new(make: impl Fn(usize) -> T + Send + Sync + 'static) -> Self {
        SlotTable {
            segments: std::array::from_fn(|_| OnceLock::new()),
            len: AtomicUsize::new(0),
            make: Box::new(make),
        }
    }

    /// Returns the slot at `index`, creating its segment on first use.
    pub fn get(&self, index: usize) -> &T {
        let (seg, offset) = locate(index);
        let slots = self.segments[seg].get_or_init(|| {
            let first = FIRST_SEGMENT * ((1 << seg) - 1);
            (first..first + (FIRST_SEGMENT << seg))
                .map(|i| CacheAligned((self.make)(i)))
                .collect()
        });
        // Read before writing, so lookups of known slots leave the counter's
        // cache line shared.
        if self.len.load(Ordering::Relaxed) <= index {
            self.len.fetch_max(index + 1, Ordering::Relaxed);
        }
        &slots[offset].0
    }

    /// One past the highest index looked up so far: every slot below it
    /// counts as created, as if the table filled gaps on demand.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Every slot below [`len`](SlotTable::len), in index order (used for
    /// end-of-run stats aggregation).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        (0..self.len()).map(|i| self.get(i))
    }
}

impl<T> std::fmt::Debug for SlotTable<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotTable")
            .field("len", &self.len())
            .finish()
    }
}

/// Synchronization status of one lock (shared between EC and LRC).
#[derive(Debug, Clone)]
pub(crate) struct LockSync {
    /// The node currently holding the lock exclusively, if any.
    pub exclusive_holder: Option<NodeId>,
    /// Number of read-only holders.
    pub readers: usize,
    /// The node that last held the lock exclusively (the processor a request
    /// is forwarded to, and the grantor of the next acquire).
    pub last_owner: Option<NodeId>,
    /// Simulated time at which the lock last became available.
    pub free_time: SimTime,
    /// Number of times the lock has been transferred between processors.
    pub transfers: u64,
    /// Threads blocked on the slot's condition variable.  Raised and lowered
    /// under the slot mutex around each wait, and read under it by release,
    /// which signals only when it is non-zero: a waiter is counted before it
    /// blocks, so no wake-up can be lost.
    pub waiters: usize,
}

impl LockSync {
    fn new() -> Self {
        LockSync {
            exclusive_holder: None,
            readers: 0,
            last_owner: None,
            free_time: SimTime::ZERO,
            transfers: 0,
            waiters: 0,
        }
    }

    /// True if an exclusive acquire can proceed.
    pub fn can_acquire_exclusive(&self) -> bool {
        self.exclusive_holder.is_none() && self.readers == 0
    }

    /// True if a read-only acquire can proceed.
    pub fn can_acquire_read(&self) -> bool {
        self.exclusive_holder.is_none()
    }
}

/// One lock's slot: its synchronization status plus the condition variable
/// its waiters block on.  Waiters of different locks never share a wakeup,
/// and a release with no waiter wakes nobody.
#[derive(Debug)]
pub(crate) struct LockSlot {
    /// The lock's synchronization status.
    pub sync: Mutex<LockSync>,
    /// Woken when the lock becomes available and [`LockSync::waiters`] is
    /// non-zero.
    pub cv: Condvar,
}

impl LockSlot {
    fn new() -> Self {
        LockSlot {
            sync: Mutex::new(LockSync::new()),
            cv: Condvar::new(),
        }
    }
}

/// Synchronization status of one barrier episode.
#[derive(Debug, Clone)]
pub(crate) struct BarrierSync {
    /// Nodes that have arrived in the current episode.
    pub arrived: usize,
    /// Episode counter; waiters block until it advances.
    pub generation: u64,
    /// Accumulated maximum of (arrival time + arrival-message latency) for
    /// the current episode.
    pub pending_max: SimTime,
    /// Accumulated vector-clock maximum over arrivals (LRC; stays zero under
    /// EC).
    pub pending_vector: VectorClock,
    /// Release time of the last completed episode.
    pub release_time: SimTime,
    /// Vector released by the last completed episode (LRC).
    pub released_vector: VectorClock,
    /// Extra release-payload bytes produced by the engine's barrier-commit
    /// hook for the last completed episode (adaptive LRC's migration
    /// broadcast; zero for every other engine).
    pub commit_payload: usize,
}

impl BarrierSync {
    fn new(nprocs: usize) -> Self {
        BarrierSync {
            arrived: 0,
            generation: 0,
            pending_max: SimTime::ZERO,
            pending_vector: VectorClock::new(nprocs),
            release_time: SimTime::ZERO,
            released_vector: VectorClock::new(nprocs),
            commit_payload: 0,
        }
    }
}

/// One barrier's slot: episode state plus its own condition variable.
#[derive(Debug)]
pub(crate) struct BarrierSlot {
    /// The barrier's episode state.
    pub sync: Mutex<BarrierSync>,
    /// Woken when the current episode completes.
    pub cv: Condvar,
}

impl BarrierSlot {
    fn new(nprocs: usize) -> Self {
        BarrierSlot {
            sync: Mutex::new(BarrierSync::new(nprocs)),
            cv: Condvar::new(),
        }
    }
}

/// The engine-agnostic synchronization tables of one run: one slot per lock
/// and per barrier, created on demand.
#[derive(Debug)]
pub(crate) struct SyncTables {
    locks: SlotTable<LockSlot>,
    barriers: SlotTable<BarrierSlot>,
}

impl SyncTables {
    /// Creates empty tables for a cluster of `nprocs` processors.
    pub fn new(nprocs: usize) -> Self {
        SyncTables {
            locks: SlotTable::new(|_| LockSlot::new()),
            barriers: SlotTable::new(move |_| BarrierSlot::new(nprocs)),
        }
    }

    /// The slot of lock `index`, created on first use.
    pub fn lock_slot(&self, index: usize) -> &LockSlot {
        self.locks.get(index)
    }

    /// The slot of barrier `index`, created on first use.
    pub fn barrier_slot(&self, index: usize) -> &BarrierSlot {
        self.barriers.get(index)
    }

    /// Number of lock slots created so far.
    #[cfg(test)]
    pub fn num_locks(&self) -> usize {
        self.locks.len()
    }

    /// Total lock ownership transfers across all lock slots (aggregated into
    /// the run's [`TrafficReport`](dsm_sim::TrafficReport)).
    pub fn total_lock_transfers(&self) -> u64 {
        self.locks
            .iter()
            .map(|slot| lock(&slot.sync).transfers)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn slot_tables_grow_on_demand() {
        let tables = SyncTables::new(4);
        let slot = tables.lock_slot(5);
        assert!(lock(&slot.sync).can_acquire_exclusive());
        assert_eq!(tables.num_locks(), 6);
        let bar = tables.barrier_slot(2);
        assert_eq!(lock(&bar.sync).pending_vector.len(), 4);
    }

    #[test]
    fn slots_are_shared_not_recreated() {
        let tables = SyncTables::new(2);
        let a = tables.lock_slot(0);
        lock(&a.sync).transfers = 7;
        let b = tables.lock_slot(0);
        assert_eq!(lock(&b.sync).transfers, 7);
        assert!(std::ptr::eq(a, b));
        assert_eq!(tables.total_lock_transfers(), 7);
    }

    #[test]
    fn lock_sync_admission_rules() {
        let mut l = LockSync::new();
        assert!(l.can_acquire_exclusive());
        l.readers = 1;
        assert!(!l.can_acquire_exclusive());
        assert!(l.can_acquire_read());
        l.readers = 0;
        l.exclusive_holder = Some(NodeId::new(1));
        assert!(!l.can_acquire_read());
    }

    #[test]
    fn slot_table_creates_gaps_with_indices() {
        let t: SlotTable<usize> = SlotTable::new(|i| i * 10);
        assert_eq!(*t.get(3), 30);
        assert_eq!(t.len(), 4);
        assert_eq!(*t.get(1), 10);
        assert_eq!(t.iter().count(), 4);
    }

    /// A table whose `make` counts its calls per index, for indices below
    /// `max` (a call for any other index panics on the count's index).
    fn counting_table(max: usize) -> (SlotTable<usize>, Arc<Vec<AtomicUsize>>) {
        let made: Arc<Vec<AtomicUsize>> = Arc::new((0..max).map(|_| AtomicUsize::new(0)).collect());
        let counts = Arc::clone(&made);
        let t = SlotTable::new(move |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        (t, made)
    }

    #[test]
    fn segment_boundaries_map_to_distinct_stable_slots() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(63), (0, 63));
        assert_eq!(locate(64), (1, 0));
        assert_eq!(locate(191), (1, 127));
        assert_eq!(locate(192), (2, 0));
        assert_eq!(locate(447), (2, 255));
        assert_eq!(locate(448), (3, 0));

        // Two slots on each side of the first five boundaries: 64, 192, 448,
        // 960, 1984.
        let boundaries: Vec<usize> = (1..=5).map(|k| FIRST_SEGMENT * ((1 << k) - 1)).collect();
        let built = FIRST_SEGMENT * ((1 << 6) - 1);
        let (t, made) = counting_table(built);
        let mut seen: Vec<(usize, *const usize)> = Vec::new();
        for &b in &boundaries {
            for i in [b - 2, b - 1, b, b + 1] {
                let slot = t.get(i);
                assert_eq!(*slot, i, "slot {i} built with another index");
                seen.push((i, slot as *const usize));
            }
        }
        let line = |p: *const usize| p as usize / 64;
        for (n, &(i, addr)) in seen.iter().enumerate() {
            assert!(std::ptr::eq(t.get(i), addr), "slot {i} moved");
            assert_eq!(addr as usize % 64, 0, "slot {i} is not line-aligned");
            assert!(
                seen[n + 1..]
                    .iter()
                    .all(|&(_, other)| line(other) != line(addr)),
                "slot {i} shares its cache line"
            );
        }
        // Every segment touched was built exactly once, each slot by its own
        // index; building the next segment would have indexed past `made`.
        for (i, count) in made.iter().enumerate() {
            assert_eq!(count.load(Ordering::Relaxed), 1, "slot {i}");
        }
        assert_eq!(t.len(), boundaries[4] + 2);
    }

    #[test]
    fn racing_first_use_builds_each_slot_once() {
        const THREADS: usize = 8;
        // 500 lies in the 512-slot segment starting at 448.
        let (t, made) = counting_table(960);
        let start = std::sync::Barrier::new(THREADS);
        let addrs: Vec<usize> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        t.get(500) as *const usize as usize
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(addrs.iter().all(|&a| a == addrs[0]), "{addrs:?}");
        assert_eq!(*t.get(500), 500);
        for (i, count) in made.iter().enumerate() {
            let want = usize::from(i >= 448);
            assert_eq!(count.load(Ordering::Relaxed), want, "slot {i}");
        }
    }

    #[test]
    fn len_and_order_match_a_gap_filling_vec() {
        let t: SlotTable<usize> = SlotTable::new(|i| i * 10);
        // The table this one replaced: a vector that fills gaps up to every
        // index looked up.
        let mut old: Vec<usize> = Vec::new();
        for index in [3, 1, 70, 0, 200, 65, 63, 1000, 4] {
            assert_eq!(*t.get(index), index * 10);
            while old.len() <= index {
                old.push(old.len() * 10);
            }
            assert_eq!(t.len(), old.len());
            assert_eq!(t.iter().copied().collect::<Vec<_>>(), old);
        }
    }
}
