//! Tests specific to the sharded runtime: cross-implementation equivalence on
//! a contended multi-lock workload, and many-processor stress tests that
//! exercise exactly the shape the old single-mutex/single-condvar design
//! serialized (and whose thundering-herd wakeups it amplified).
//!
//! Each case runs under a deadline, so a lost wake-up (a release that skips
//! the signal while a contender is blocked) fails in bounded time instead
//! of hanging the suite.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use dsm_core::{
    BarrierId, BlockGranularity, Dsm, DsmConfig, ImplKind, LockId, LockMode, TransportKind,
};

/// How long one case may run before it counts as hung.  Every case finishes
/// in a few seconds even in an unoptimized build.
const DEADLINE: Duration = Duration::from_secs(120);

/// Runs `case` on its own thread and fails if it has not finished within
/// [`DEADLINE`]; a panic inside `case` is re-raised here.
fn within_deadline(what: &str, case: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let worker = thread::spawn(move || {
        case();
        let _ = done.send(());
    });
    match finished.recv_timeout(DEADLINE) {
        Ok(()) => worker.join().expect("case finished"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The case panicked before reporting: surface its panic.
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
        // The hung worker cannot be joined; it ends with the test process.
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{what} did not finish within {DEADLINE:?}: a lock waiter was never woken")
        }
    }
}

/// All twelve implementations (`ImplKind::all()`) must produce identical
/// final region contents on a workload where every processor repeatedly
/// acquires *other* processors' locks (migratory data, heavy contention on
/// every lock).
///
/// The updates commute (wrapping adds of per-(processor, round) constants),
/// so the final contents are independent of the order in which the lock
/// transfers happen to interleave — any divergence is a protocol bug, not
/// scheduling noise.
#[test]
fn six_impls_agree_on_contended_multilock_workload() {
    within_deadline(
        "contended multi-lock workload",
        contended_multilock_workload,
    );
}

fn contended_multilock_workload() {
    const NPROCS: usize = 4;
    const NLOCKS: usize = 8;
    const SLOTS_PER_LOCK: usize = 16;
    const ROUNDS: usize = 6;

    let mut reference: Option<Vec<u32>> = None;
    for kind in ImplKind::all() {
        let mut dsm = Dsm::new(DsmConfig::with_procs(kind, NPROCS)).unwrap();
        let region =
            dsm.alloc_array::<u32>("slots", NLOCKS * SLOTS_PER_LOCK, BlockGranularity::Word);
        // Under EC, each lock protects (and is bound to) its own slice.
        for l in 0..NLOCKS {
            dsm.bind(
                LockId::new(l as u32),
                [region.range(l * SLOTS_PER_LOCK, SLOTS_PER_LOCK)],
            );
        }

        let result = dsm.run(|ctx| {
            let me = ctx.node();
            for round in 0..ROUNDS {
                // Every processor walks all locks, starting at a different
                // offset each round so ownership migrates constantly.
                for step in 0..NLOCKS {
                    let l = (me + round + step) % NLOCKS;
                    let mut g = ctx.lock(LockId::new(l as u32), LockMode::Exclusive);
                    for s in 0..SLOTS_PER_LOCK {
                        let idx = l * SLOTS_PER_LOCK + s;
                        let bump = (me * 31 + round * 7 + s) as u32 + 1;
                        g.modify(region, idx, |v: u32| v.wrapping_add(bump));
                    }
                }
                ctx.barrier(BarrierId::new(0));
            }
        });

        let finals = result.final_array(region);
        // Independent cross-check: the commutative sum every slot must reach.
        let mut expected = vec![0u32; NLOCKS * SLOTS_PER_LOCK];
        for me in 0..NPROCS {
            for round in 0..ROUNDS {
                for l in 0..NLOCKS {
                    for s in 0..SLOTS_PER_LOCK {
                        let bump = (me * 31 + round * 7 + s) as u32 + 1;
                        expected[l * SLOTS_PER_LOCK + s] =
                            expected[l * SLOTS_PER_LOCK + s].wrapping_add(bump);
                    }
                }
            }
        }
        assert_eq!(finals, expected, "wrong slot sums under {kind}");
        match &reference {
            None => reference = Some(finals),
            Some(r) => assert_eq!(r, &finals, "final contents diverge under {kind}"),
        }
        assert!(
            result.traffic.lock_transfers > 0,
            "a migratory workload must transfer locks under {kind}"
        );
    }
}

/// Many locks × many processors: with per-slot condition variables each
/// release wakes only that lock's contenders, and disjoint lock/region pairs
/// proceed in parallel.  Under the old design every one of these operations
/// took the single cluster mutex and every release woke every waiter in the
/// cluster; the test pins down that the sharded runtime still executes the
/// workload correctly at a thread count well above the paper's 8.  Lock ids
/// are spread (`l * 37`) over several segments of the slot tables, so first
/// uses race on segment creation too.
#[test]
fn many_locks_many_processors_stress() {
    within_deadline("many-locks stress", many_locks_many_processors);
}

fn many_locks_many_processors() {
    const NPROCS: usize = 16;
    const NLOCKS: usize = 64;
    const ACQUIRES_PER_PROC: usize = 200;
    let lock_of = |l: usize| LockId::new((l * 37) as u32);

    for kind in [ImplKind::ec_diff(), ImplKind::lrc_diff()] {
        let mut dsm = Dsm::new(DsmConfig::with_procs(kind, NPROCS)).unwrap();
        // One counter per lock, page-interleaved to also exercise false
        // sharing under LRC.
        let counters = dsm.alloc_array::<u32>("counters", NLOCKS, BlockGranularity::Word);
        for l in 0..NLOCKS {
            dsm.bind(lock_of(l), [counters.range(l, 1)]);
        }

        let result = dsm.run(|ctx| {
            let me = ctx.node();
            // A deterministic per-node walk over the lock space; different
            // nodes collide on some locks and run alone on others.
            let mut x = (me as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            for _ in 0..ACQUIRES_PER_PROC {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let l = (x % NLOCKS as u64) as usize;
                ctx.lock(lock_of(l), LockMode::Exclusive)
                    .modify(counters, l, |v: u32| v + 1);
            }
            ctx.barrier(BarrierId::new(0));
        });

        // Every increment must have survived the contention: the counters sum
        // to the exact number of acquires performed.
        let finals = result.final_array(counters);
        let total: u64 = finals.iter().map(|&v| v as u64).sum();
        assert_eq!(
            total,
            (NPROCS * ACQUIRES_PER_PROC) as u64,
            "lost updates under {kind}"
        );
        assert_eq!(
            result.traffic.lock_acquires,
            (NPROCS * ACQUIRES_PER_PROC) as u64,
            "acquire count under {kind}"
        );
        assert!(result.traffic.lock_transfers > 0);
    }
}

/// One hot lock, sixteen processors, both modes: under EC-time each node
/// mixes read-only and exclusive acquires of the same lock, so releases in
/// both modes find blocked contenders of either kind.  Writers set the two
/// bound words together; a reader that saw them differ would have entered
/// while a writer held the lock, or been granted a torn copy.
#[test]
fn hot_lock_mixed_modes_stress() {
    within_deadline("hot-lock mixed-mode stress", hot_lock_mixed_modes);
}

fn hot_lock_mixed_modes() {
    const NPROCS: usize = 16;
    const ACQUIRES_PER_PROC: usize = 200;
    /// One acquire in this many is exclusive.
    const WRITE_EVERY: usize = 4;

    let mut dsm = Dsm::new(DsmConfig::with_procs(ImplKind::ec_time(), NPROCS)).unwrap();
    let pair = dsm.alloc_array::<u32>("pair", 2, BlockGranularity::Word);
    let hot = LockId::new(0);
    dsm.bind(hot, [pair.whole()]);

    let result = dsm.run(|ctx| {
        let me = ctx.node();
        for i in 0..ACQUIRES_PER_PROC {
            if (me + i) % WRITE_EVERY == 0 {
                let mut g = ctx.lock(hot, LockMode::Exclusive);
                let next = g.get(pair, 0) + 1;
                g.set(pair, 0, next);
                g.set(pair, 1, next);
            } else {
                let mut g = ctx.lock(hot, LockMode::ReadOnly);
                let (a, b) = (g.get(pair, 0), g.get(pair, 1));
                g.unlock();
                assert_eq!(a, b, "node {me} read a torn pair");
            }
        }
        ctx.barrier(BarrierId::new(0));
    });

    let writes = (0..NPROCS)
        .map(|me| {
            (0..ACQUIRES_PER_PROC)
                .filter(|i| (me + i) % WRITE_EVERY == 0)
                .count()
        })
        .sum::<usize>() as u32;
    assert_eq!(result.final_array(pair), vec![writes, writes]);
    assert_eq!(
        result.traffic.lock_acquires,
        (NPROCS * ACQUIRES_PER_PROC) as u64
    );
}

/// Read-only EC locks admit concurrent readers per slot; a writer phase
/// followed by a fan-out read phase must see the published value everywhere.
#[test]
fn read_only_locks_share_a_slot() {
    within_deadline("read-only fan-out", read_only_fan_out);
}

fn read_only_fan_out() {
    const NPROCS: usize = 8;
    let kind = ImplKind::ec_time();
    let mut dsm = Dsm::new(DsmConfig::with_procs(kind, NPROCS)).unwrap();
    let data = dsm.alloc_array::<u32>("data", 64, BlockGranularity::Word);
    dsm.bind(LockId::new(0), [data.whole()]);

    let result = dsm.run(|ctx| {
        if ctx.node() == 0 {
            let mut g = ctx.lock(LockId::new(0), LockMode::Exclusive);
            for i in 0..64 {
                g.set(data, i, 1000 + i as u32);
            }
        }
        ctx.barrier(BarrierId::new(0));
        // Everyone (including the writer) reads under a read-only lock.
        let mut g = ctx.lock(LockId::new(0), LockMode::ReadOnly);
        let me = g.node();
        assert_eq!(g.get(data, me), 1000 + me as u32);
        drop(g);
        ctx.barrier(BarrierId::new(1));
    });
    assert_eq!(result.final_at(data, 63), 1063);
}

/// A worker's panic ends the run with that panic, even while its peers are
/// blocked on it: node 0 waits at a barrier holding lock 0, node 1 waits for
/// lock 0, and node 2 panics instead of arriving.  The real backends end too,
/// with their replicas never finished.
#[test]
fn a_worker_panic_ends_the_run() {
    within_deadline("run with a panicking worker", worker_panic_ends_the_run);
}

fn worker_panic_ends_the_run() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, Ordering};

    for kind in [ImplKind::ec_time(), ImplKind::lrc_diff()] {
        for transport in [
            TransportKind::Simulated,
            TransportKind::Channel,
            TransportKind::SocketLocal(2),
        ] {
            let mut cfg = DsmConfig::with_procs(kind, 3);
            cfg.transport = transport.clone();
            let mut dsm = Dsm::new(cfg).unwrap();
            let a = dsm.alloc_bound::<u32>("a", 4, BlockGranularity::Word, LockId::new(0));
            let held = AtomicBool::new(false);
            let run = catch_unwind(AssertUnwindSafe(|| {
                dsm.run(|ctx| {
                    if ctx.node() != 0 {
                        // Node 0 takes the lock first.
                        while !held.load(Ordering::Acquire) {
                            thread::yield_now();
                        }
                    }
                    match ctx.node() {
                        0 => {
                            let mut g = ctx.lock(a.lock(), LockMode::Exclusive);
                            g.set(a, 0, 1);
                            held.store(true, Ordering::Release);
                            g.barrier(BarrierId::new(0));
                        }
                        1 => {
                            ctx.lock(a.lock(), LockMode::Exclusive).set(a, 1, 1);
                            ctx.barrier(BarrierId::new(0));
                        }
                        _ => panic!("node 2 fails on purpose"),
                    }
                })
            }));
            let payload = run.expect_err("the run must fail");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"node 2 fails on purpose"),
                "{kind} over {}: the run fails with the worker's own panic",
                transport.label()
            );
        }
    }
}
