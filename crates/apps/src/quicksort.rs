//! Quicksort (QS) with a centralised task queue.
//!
//! The array to sort lives in shared memory.  A processor dequeues a
//! sub-array, partitions it around a pivot, enqueues the smaller partition
//! and keeps working on the larger one; partitions below a threshold are
//! sorted in place with bubblesort.
//!
//! * LRC version: the queue lock alone orders both the queue *and* the task
//!   data (the dequeuer sees the data the enqueuer produced).
//! * EC version: the queue lock is bound to the queue only, so the program
//!   additionally associates a lock with every queue entry and **rebinds** it
//!   to the sub-array of the task placed in that entry (Sections 3.3 and
//!   7.2); the task data is read and written under that lock.

use dsm_core::{BarrierId, BlockGranularity, Dsm, ImplKind, LockId, LockMode, Model, RunResult};
use dsm_sim::Work;

/// Quicksort problem parameters.
#[derive(Debug, Clone)]
pub struct QsParams {
    /// Number of integers to sort (the paper uses 262,144).
    pub n: usize,
    /// Partitions at or below this size are bubble-sorted (the paper uses
    /// 1024).
    pub threshold: usize,
    /// Work units charged per element visited during partitioning.
    pub work_partition: u64,
    /// Work units charged per comparison during bubblesort.
    pub work_bubble: u64,
}

impl QsParams {
    /// Table 2 parameters.
    pub fn paper() -> Self {
        QsParams {
            n: 262_144,
            threshold: 1024,
            work_partition: 4,
            work_bubble: 1,
        }
    }

    /// A reduced instance.
    pub fn small() -> Self {
        QsParams {
            n: 32_768,
            threshold: 512,
            work_partition: 4,
            work_bubble: 1,
        }
    }

    /// A very small instance for tests.
    pub fn tiny() -> Self {
        QsParams {
            n: 2048,
            threshold: 128,
            work_partition: 4,
            work_bubble: 1,
        }
    }

    /// Deterministic pseudo-random initial value of element `i`.
    fn value(&self, i: usize) -> i32 {
        let x = (i as u64)
            .wrapping_mul(0xD134_2543_DE82_EF95)
            .rotate_left(29)
            .wrapping_add(0x9E37_79B9);
        (x % (self.n as u64 * 4)) as i32
    }
}

/// Sequential sort of the same input, plus the work a sequential quicksort
/// with the same threshold/bubblesort structure performs.
pub fn sequential(p: &QsParams) -> (Vec<i32>, Work) {
    let mut v: Vec<i32> = (0..p.n).map(|i| p.value(i)).collect();
    let mut work = 0u64;
    seq_qsort(&mut v, p, &mut work);
    (v, Work::ops(work))
}

fn seq_qsort(v: &mut [i32], p: &QsParams, work: &mut u64) {
    if v.len() <= p.threshold {
        *work += bubble_work(v.len(), p);
        v.sort_unstable();
        return;
    }
    let pivot = v[v.len() / 2];
    *work += v.len() as u64 * p.work_partition;
    let (mut i, mut j) = (0usize, v.len() - 1);
    loop {
        while v[i] < pivot {
            i += 1;
        }
        while v[j] > pivot {
            j -= 1;
        }
        if i >= j {
            break;
        }
        v.swap(i, j);
        i += 1;
        j = j.saturating_sub(1);
    }
    let (a, b) = v.split_at_mut(i.max(1).min(v.len() - 1));
    seq_qsort(a, p, work);
    seq_qsort(b, p, work);
}

fn bubble_work(len: usize, p: &QsParams) -> u64 {
    (len as u64 * len.saturating_sub(1) as u64 / 2) * p.work_bubble
}

/// Queue slot layout inside the shared queue region (all `u32` words):
/// `[head, tail, pending, _pad, entry0.start, entry0.len, entry1.start, ...]`.
const Q_HEAD: usize = 0;
const Q_TAIL: usize = 1;
const Q_PENDING: usize = 2;
const Q_ENTRIES: usize = 4;

const QUEUE_LOCK: LockId = LockId(0);

fn entry_lock(slot: usize) -> LockId {
    LockId::new(1 + slot as u32)
}

/// Runs Quicksort under the given implementation.  Returns the run result and
/// whether the final array is correctly sorted.
pub fn run(kind: ImplKind, nprocs: usize, p: &QsParams) -> (RunResult, bool) {
    run_opts(kind, nprocs, p, crate::runner::RunOpts::default())
}

/// Like [`run`], but with the full option set.  Note that the task-queue
/// program is *outside* the crash-recovery determinism contract (its control
/// flow depends on lock-ordered shared reads), so a fault plan targeting
/// Quicksort is plumbed through for API uniformity but not supported by the
/// recovery equivalence guarantees (`DESIGN.md` §8).
pub fn run_opts(
    kind: ImplKind,
    nprocs: usize,
    p: &QsParams,
    opts: crate::runner::RunOpts,
) -> (RunResult, bool) {
    let p = p.clone();
    let mut dsm = Dsm::new(opts.config(kind, nprocs)).expect("valid config");
    let array = dsm.alloc_array::<i32>("qs-array", p.n, BlockGranularity::Word);
    dsm.init_array(array, |i| p.value(i));

    // Enough queue entries for the worst case: every leaf task plus the
    // partition chain.
    let capacity = (p.n / p.threshold).max(8) * 4;
    // The queue is bound to its lock in one step; under LRC the binding is a
    // no-op and the lock alone orders both queue and task data.
    let queue = dsm.alloc_bound::<u32>(
        "qs-queue",
        Q_ENTRIES + capacity * 2,
        BlockGranularity::Word,
        QUEUE_LOCK,
    );
    // The whole array is initially one task in the queue.
    dsm.init_array(queue, |i| match i {
        x if x == Q_HEAD => 0,
        x if x == Q_TAIL => 1,
        x if x == Q_PENDING => 1,
        x if x == Q_ENTRIES => 0,              // entry 0: start
        x if x == Q_ENTRIES + 1 => p.n as u32, // entry 0: len
        _ => 0,
    });

    let ec = kind.model() == Model::Ec;
    if ec {
        // Entry 0 initially holds the whole array; the entry locks are
        // *rebound* to their task's sub-array as tasks are created.
        dsm.bind(entry_lock(0), [array.whole()]);
    }
    let barrier = BarrierId::new(0);

    let result = dsm.run(|ctx| {
        loop {
            // Try to dequeue a task.
            let (task, tail, pending) = {
                let mut q = ctx.lock(queue.lock(), LockMode::Exclusive);
                let head = q.get(queue, Q_HEAD) as usize;
                let tail = q.get(queue, Q_TAIL) as usize;
                let pending = q.get(queue, Q_PENDING);
                let task = if head < tail {
                    let slot = head % capacity;
                    let start = q.get(queue, Q_ENTRIES + slot * 2) as usize;
                    let len = q.get(queue, Q_ENTRIES + slot * 2 + 1) as usize;
                    q.set(queue, Q_HEAD, (head + 1) as u32);
                    Some((slot, start, len))
                } else {
                    None
                };
                (task, tail, pending)
            };

            let (slot, mut start, mut len) = match task {
                Some(t) => t,
                None if pending == 0 => break,
                None => {
                    // Wait (without charging protocol traffic) until another
                    // processor enqueues a task or everything is done; the
                    // simulated clock is synchronised by the dequeue that
                    // follows.
                    let tail_seen = tail as u32;
                    while ctx.peek(queue, Q_TAIL) == tail_seen && ctx.peek(queue, Q_PENDING) != 0 {
                        std::thread::yield_now();
                    }
                    continue;
                }
            };

            // The entry lock stays held across the queue-lock critical
            // sections below (and is released, rebound and reacquired
            // mid-task), so it lives in one guard for the whole task.
            let mut entry = ctx.lock_set();
            if ec {
                entry.acquire(entry_lock(slot), LockMode::Exclusive);
            }

            // Keep splitting the larger partition until it is small enough.
            while len > p.threshold {
                // Partition [start, start+len) around a pivot using a local
                // buffer (one read and one write of each element, page-batched
                // through the span API).
                let mut buf = vec![0i32; len];
                entry.read_into(array, start, &mut buf);
                entry.compute(Work::ops(len as u64 * p.work_partition));
                let pivot = buf[len / 2];
                let mut lower: Vec<i32> = Vec::with_capacity(len);
                let mut upper: Vec<i32> = Vec::with_capacity(len);
                let mut equal = 0usize;
                for &x in &buf {
                    if x < pivot {
                        lower.push(x);
                    } else if x > pivot {
                        upper.push(x);
                    } else {
                        equal += 1;
                    }
                }
                buf.clear();
                buf.extend_from_slice(&lower);
                buf.extend(std::iter::repeat(pivot).take(equal));
                buf.extend_from_slice(&upper);
                entry.write_from(array, start, &buf);
                let split = lower.len() + equal / 2 + 1;
                let split = split.clamp(1, len - 1);
                // Smaller partition goes to the queue, larger stays with us.
                let (small_start, small_len, large_start, large_len) = if split <= len / 2 {
                    (start, split, start + split, len - split)
                } else {
                    (start + split, len - split, start, split)
                };

                if ec {
                    // Publish the writes made so far and narrow the binding
                    // of our entry lock to the partition we keep.
                    entry.release(entry_lock(slot));
                    entry.rebind(entry_lock(slot), [array.range(large_start, large_len)]);
                    entry.acquire(entry_lock(slot), LockMode::Exclusive);
                }

                // Enqueue the smaller partition.
                {
                    let mut q = entry.lock(queue.lock(), LockMode::Exclusive);
                    let tail = q.get(queue, Q_TAIL) as usize;
                    let new_slot = tail % capacity;
                    q.set(queue, Q_ENTRIES + new_slot * 2, small_start as u32);
                    q.set(queue, Q_ENTRIES + new_slot * 2 + 1, small_len as u32);
                    q.set(queue, Q_TAIL, (tail + 1) as u32);
                    q.modify(queue, Q_PENDING, |pending: u32| pending + 1);
                    if ec {
                        q.rebind(entry_lock(new_slot), [array.range(small_start, small_len)]);
                    }
                }

                // The entry lock we hold (slot) now covers [start, len).
                start = large_start;
                len = large_len;
            }

            // Leaf: bubblesort the remaining partition in a local buffer.
            let mut buf = vec![0i32; len];
            entry.read_into(array, start, &mut buf);
            entry.compute(Work::ops(bubble_work(len, &p)));
            for i in 0..buf.len() {
                for j in 0..buf.len().saturating_sub(1 + i) {
                    if buf[j] > buf[j + 1] {
                        buf.swap(j, j + 1);
                    }
                }
            }
            entry.write_from(array, start, &buf);
            drop(entry);

            // Mark the task done.
            ctx.lock(queue.lock(), LockMode::Exclusive)
                .modify(queue, Q_PENDING, |pending: u32| pending - 1);
        }
        ctx.barrier(barrier);
    });

    let (expected, _) = sequential(&p);
    let got = result.final_array(array);
    let mut got_sorted_check = got.clone();
    got_sorted_check.sort_unstable();
    let ok = got == expected && got == got_sorted_check;
    (result, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_sorts() {
        let p = QsParams::tiny();
        let (v, work) = sequential(&p);
        assert!(work.units() > 0);
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(v.len(), p.n);
    }

    #[test]
    fn parallel_sorts_under_lrc_and_ec() {
        let p = QsParams::tiny();
        for kind in [
            ImplKind::lrc_diff(),
            ImplKind::lrc_time(),
            ImplKind::ec_diff(),
        ] {
            let (result, ok) = run(kind, 4, &p);
            assert!(ok, "{kind} quicksort output mismatch");
            assert!(result.traffic.lock_acquires > 0);
        }
    }

    #[test]
    fn ec_ci_also_sorts() {
        let p = QsParams::tiny();
        let (_, ok) = run(ImplKind::ec_ci(), 2, &p);
        assert!(ok, "EC-ci quicksort output mismatch");
    }
}
