//! Integer Sort (IS), from the NAS parallel benchmarks.
//!
//! Each processor ranks its block of keys into a private histogram, then adds
//! its counts to a shared bucket array inside a critical section (the bucket
//! array is *migratory* data), and after a barrier reads the final bucket
//! array to compute the global ranks of its keys.  The shared array (Bmax
//! buckets) is smaller than a page.
//!
//! * LRC version: one exclusive lock around the bucket update; barriers.
//! * EC version: the bucket array is bound to the lock; the second phase
//!   additionally takes a read-only lock on the bucket array (Section 3.3).

use dsm_core::{BarrierId, BlockGranularity, Dsm, ImplKind, LockId, LockMode, Model, RunResult};
use dsm_sim::Work;

/// IS problem parameters.
#[derive(Debug, Clone)]
pub struct IsParams {
    /// Number of keys (the paper uses 2^20).
    pub keys: usize,
    /// Number of buckets / maximum key value (the paper uses 2^9).
    pub buckets: usize,
    /// Number of ranking repetitions (the paper uses 10).
    pub rankings: usize,
    /// Work units charged per key per ranking.
    pub work_per_key: u64,
}

impl IsParams {
    /// Table 2 parameters: N = 2^20, Bmax = 2^9, 10 rankings.
    pub fn paper() -> Self {
        IsParams {
            keys: 1 << 20,
            buckets: 1 << 9,
            rankings: 10,
            work_per_key: 5,
        }
    }

    /// A reduced instance.
    pub fn small() -> Self {
        IsParams {
            keys: 1 << 16,
            buckets: 1 << 9,
            rankings: 4,
            work_per_key: 5,
        }
    }

    /// A very small instance for tests.
    pub fn tiny() -> Self {
        IsParams {
            keys: 1 << 10,
            buckets: 1 << 6,
            rankings: 2,
            work_per_key: 5,
        }
    }

    /// Deterministic pseudo-random key `i`.
    fn key(&self, i: usize) -> u32 {
        // A small multiplicative hash keeps generation deterministic and
        // independent of any RNG crate version.
        let x = (i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(17);
        (x % self.buckets as u64) as u32
    }
}

/// Sequential bucket counts after one ranking (identical for every
/// repetition) plus the total work of all repetitions.
pub fn sequential(p: &IsParams) -> (Vec<u32>, Work) {
    let mut counts = vec![0u32; p.buckets];
    for i in 0..p.keys {
        counts[p.key(i) as usize] += 1;
    }
    let work = Work::ops(p.work_per_key * p.keys as u64 * p.rankings as u64);
    (counts, work)
}

const BUCKET_LOCK: LockId = LockId(0);

/// Runs IS under the given implementation.  Returns the run result and
/// whether the final shared bucket counts match the sequential version.
pub fn run(kind: ImplKind, nprocs: usize, p: &IsParams) -> (RunResult, bool) {
    run_opts(kind, nprocs, p, crate::runner::RunOpts::default())
}

/// Like [`run`], but with the full option set, including a fault plan
/// for crash-injection/recovery runs.
pub fn run_opts(
    kind: ImplKind,
    nprocs: usize,
    p: &IsParams,
    opts: crate::runner::RunOpts,
) -> (RunResult, bool) {
    let p = p.clone();
    let mut dsm = Dsm::new(opts.config(kind, nprocs)).expect("valid config");
    // The lock→data association is constructed in one place: under EC every
    // acquire of BUCKET_LOCK makes the bucket array consistent, under LRC
    // the binding is a no-op.
    let buckets =
        dsm.alloc_bound::<u32>("is-buckets", p.buckets, BlockGranularity::Word, BUCKET_LOCK);
    let barrier = BarrierId::new(0);
    let ec = kind.model() == Model::Ec;

    let result = dsm.run(|ctx| {
        let me = ctx.node();
        let n = ctx.nprocs();
        let per = p.keys / n;
        let lo = me * per;
        let hi = if me == n - 1 { p.keys } else { lo + per };
        let zeros = vec![0u32; p.buckets];
        let mut counts = vec![0u32; p.buckets];

        for rep in 0..p.rankings {
            // Phase 0 (first repetition excluded): processor 0 clears the
            // shared array under the lock so every ranking starts fresh.
            if rep > 0 {
                if me == 0 {
                    let mut g = ctx.lock(buckets.lock(), LockMode::Exclusive);
                    g.view_mut(buckets).fill_from(&zeros);
                }
                ctx.barrier(barrier);
            }

            // Phase 1: rank local keys privately, then add the counts to the
            // shared array inside the critical section (migratory data).
            let mut local = vec![0u32; p.buckets];
            for i in lo..hi {
                local[p.key(i) as usize] += 1;
            }
            ctx.compute(Work::ops(p.work_per_key * (hi - lo) as u64));

            {
                let mut g = ctx.lock(buckets.lock(), LockMode::Exclusive);
                for (b, &c) in local.iter().enumerate() {
                    if c != 0 {
                        g.modify(buckets, b, |cur: u32| cur + c);
                    }
                }
            }
            ctx.barrier(barrier);

            // Phase 2: read the final counts to compute global ranks of the
            // local keys (the reads themselves are what matters to the DSM).
            // EC takes a read-only lock (Section 3.3); LRC relies on the
            // barrier alone.
            {
                let mut g = ctx.lock_if(ec, buckets.lock(), LockMode::ReadOnly);
                g.read_into(buckets, 0, &mut counts);
                let checksum: u64 = counts.iter().map(|&c| c as u64).sum();
                assert_eq!(checksum, p.keys as u64, "bucket counts must sum to N");
            }
            ctx.barrier(barrier);
        }
    });

    let (expected, _) = sequential(&p);
    let got = result.final_array(buckets);
    let ok = expected == got;
    (result, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_in_range_and_spread() {
        let p = IsParams::tiny();
        let (counts, _) = sequential(&p);
        assert_eq!(counts.iter().map(|&c| c as usize).sum::<usize>(), p.keys);
        let nonempty = counts.iter().filter(|&&c| c > 0).count();
        assert!(
            nonempty > p.buckets / 2,
            "keys should spread across buckets"
        );
    }

    #[test]
    fn parallel_matches_sequential_for_all_models() {
        let p = IsParams::tiny();
        for kind in [
            ImplKind::ec_time(),
            ImplKind::ec_diff(),
            ImplKind::lrc_time(),
            ImplKind::lrc_diff(),
        ] {
            let (result, ok) = run(kind, 4, &p);
            assert!(ok, "{kind} IS bucket counts mismatch");
            assert!(result.traffic.lock_acquires > 0);
        }
    }

    #[test]
    fn migratory_data_makes_diffing_send_more_than_timestamping() {
        // The key write-collection result for IS (Section 8.2): the diffing
        // version sends multiple overlapping diffs of the bucket array while
        // timestamping sends each block once.
        let p = IsParams::tiny();
        let (ec_time, _) = run(ImplKind::ec_time(), 4, &p);
        let (ec_diff, _) = run(ImplKind::ec_diff(), 4, &p);
        assert!(
            ec_diff.traffic.bytes > ec_time.traffic.bytes,
            "EC-diff ({} B) should transfer more than EC-time ({} B) for migratory data",
            ec_diff.traffic.bytes,
            ec_time.traffic.bytes
        );
    }
}
