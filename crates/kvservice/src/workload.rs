//! Seeded, closed-loop workload generation for the KV tier: key samplers
//! (uniform and zipf), operation mixes, and replayable op traces.
//!
//! Everything here is deterministic from its seed — no global state, no
//! `std` randomness — so the same `(seed, sampler, mix, len)` tuple produces
//! the byte-identical op sequence on every run, host and OS.  That is what
//! lets the equivalence suites replay one trace across all twelve protocol
//! implementations and both transports and demand identical answers
//! (`dsm-tests/tests/kv_equivalence.rs`), and what pins the samplers'
//! distribution shape in property tests.

use crate::store::KvOp;
pub use dsm_mem::XorShift64;

/// A key distribution over the id space `1..=keys` (ids are raw keys; the
/// store's hash decorrelates them, so sampling ids *is* sampling slots).
#[derive(Debug, Clone)]
pub struct KeySampler {
    keys: u64,
    /// Zipf cumulative weight table (`cdf[r]` = P(rank ≤ r)), or `None` for
    /// the uniform sampler.  Rank `r` maps to key `r + 1`: rank 0 is the
    /// hottest key.
    cdf: Option<Vec<f64>>,
}

impl KeySampler {
    /// Uniform over `1..=keys`.
    pub fn uniform(keys: u64) -> Self {
        assert!(keys > 0, "empty key space");
        KeySampler { keys, cdf: None }
    }

    /// Zipf with exponent `theta` over `1..=keys` (θ = 0.99 is the YCSB
    /// default shape): P(key = r+1) ∝ 1/(r+1)^θ, materialized as a cumulative
    /// table binary-searched per draw.  Setup is O(keys), draws are
    /// O(log keys) and allocation-free.
    pub fn zipf(keys: u64, theta: f64) -> Self {
        assert!(keys > 0, "empty key space");
        assert!(theta > 0.0, "zipf exponent must be positive");
        let mut cdf = Vec::with_capacity(keys as usize);
        let mut total = 0.0f64;
        for rank in 0..keys {
            total += 1.0 / ((rank + 1) as f64).powf(theta);
            cdf.push(total);
        }
        for w in cdf.iter_mut() {
            *w /= total;
        }
        KeySampler {
            keys,
            cdf: Some(cdf),
        }
    }

    /// Size of the key space.
    pub fn keys(&self) -> u64 {
        self.keys
    }

    /// Draws one key in `1..=keys`.
    pub fn sample(&self, rng: &mut XorShift64) -> u64 {
        match &self.cdf {
            None => 1 + rng.below(self.keys),
            Some(cdf) => {
                let u = rng.unit_f64();
                1 + cdf.partition_point(|&c| c < u) as u64
            }
        }
    }

    /// The smallest rank whose cumulative probability reaches `q` — the
    /// distribution's `q`-quantile in ranks.  Uniform: `q * keys`.  Property
    /// tests compare this against empirical counts.
    pub fn quantile_rank(&self, q: f64) -> u64 {
        match &self.cdf {
            None => ((q * self.keys as f64).ceil() as u64).clamp(1, self.keys) - 1,
            Some(cdf) => cdf.partition_point(|&c| c < q) as u64,
        }
    }
}

/// An operation mix: what fraction of ops read, and how the write side
/// splits between put, cas and delete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixSpec {
    /// Label used in bench rows and test names.
    pub name: &'static str,
    /// Reads per 100 ops; the rest are writes.
    pub read_pct: u32,
    /// Of 100 write ops: how many are puts (cas and delete split the rest
    /// 2:1; see [`MixSpec::op`]).
    pub put_share: u32,
}

impl MixSpec {
    /// The three mixes of the bench matrix: read-mostly 95/5, balanced
    /// 50/50 and write-heavy 10/90.
    pub const ALL: [MixSpec; 3] = [
        MixSpec {
            name: "read_mostly_95_5",
            read_pct: 95,
            put_share: 80,
        },
        MixSpec {
            name: "balanced_50_50",
            read_pct: 50,
            put_share: 80,
        },
        MixSpec {
            name: "write_heavy_10_90",
            read_pct: 10,
            put_share: 80,
        },
    ];

    /// Draws the next operation of this mix.  Value seeds come from a small
    /// window (0..16) and cas expectations from its lower half (0..8), both
    /// landing in the stored value's first word, so some cas ops genuinely
    /// succeed and some genuinely miss whatever the interleaving.
    pub fn op(&self, rng: &mut XorShift64, sampler: &KeySampler) -> KvOp {
        let key = sampler.sample(rng);
        let roll = rng.below(100) as u32;
        if roll < self.read_pct {
            return KvOp::Get { key };
        }
        let wroll = rng.below(100) as u32;
        let seed = rng.next_u64() & 0xf;
        if wroll < self.put_share {
            KvOp::Put { key, seed }
        } else if wroll < self.put_share + (100 - self.put_share) * 2 / 3 {
            KvOp::Cas {
                key,
                expect: seed & 0x7,
                seed,
            }
        } else {
            KvOp::Delete { key }
        }
    }
}

/// Generates a replayable trace: `len` ops drawn from `mix` over `sampler`,
/// deterministic from `seed` (byte-identical across runs and hosts).
pub fn gen_trace(seed: u64, len: usize, sampler: &KeySampler, mix: &MixSpec) -> Vec<KvOp> {
    let mut rng = XorShift64::new(seed);
    (0..len).map(|_| mix.op(&mut rng, sampler)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_is_deterministic_and_nonzero() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..1000 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64());
            assert_ne!(x, 0, "xorshift64* never yields 0 from a nonzero state");
        }
        assert_eq!(
            XorShift64::new(0).next_u64(),
            XorShift64::new(0).next_u64(),
            "zero seed is remapped, not absorbing"
        );
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = XorShift64::new(7);
        for n in [1u64, 2, 3, 10, 1000] {
            for _ in 0..100 {
                assert!(rng.below(n) < n);
            }
        }
    }

    #[test]
    fn samplers_stay_in_the_key_space() {
        let mut rng = XorShift64::new(9);
        for s in [KeySampler::uniform(100), KeySampler::zipf(100, 0.99)] {
            for _ in 0..1000 {
                let k = s.sample(&mut rng);
                assert!((1..=100).contains(&k));
            }
        }
    }

    #[test]
    fn zipf_cdf_is_monotone_and_normalized() {
        let s = KeySampler::zipf(1000, 0.99);
        let cdf = s.cdf.as_ref().expect("zipf has a table");
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]));
        assert!((cdf.last().copied().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mixes_respect_read_fraction() {
        let sampler = KeySampler::uniform(1000);
        for mix in MixSpec::ALL {
            let trace = gen_trace(1, 20_000, &sampler, &mix);
            let reads = trace
                .iter()
                .filter(|o| matches!(o, KvOp::Get { .. }))
                .count() as f64;
            let frac = reads / trace.len() as f64;
            let want = mix.read_pct as f64 / 100.0;
            assert!(
                (frac - want).abs() < 0.02,
                "{}: read fraction {frac} != {want}",
                mix.name
            );
        }
    }
}
