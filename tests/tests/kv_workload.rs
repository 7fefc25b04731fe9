//! Property tests for the KV workload generators: the traces the bench and
//! equivalence suites replay must be byte-identical per seed on every host,
//! and the key samplers must actually have the distribution shape their
//! names claim (pinned through the sampler's own `quantile_rank`, so a
//! regression in either the sampler or the quantile math trips the test).

use dsm_kvservice::workload::{gen_trace, KeySampler, MixSpec, XorShift64};
use dsm_kvservice::KvOp;

/// Draw count for the empirical-shape checks: big enough that a mismatched
/// distribution fails by a wide margin, small enough for CI.
const DRAWS: usize = 200_000;

/// Empirical rank counts from `DRAWS` samples.
fn empirical_counts(sampler: &KeySampler, seed: u64) -> Vec<u64> {
    let mut rng = XorShift64::new(seed);
    let mut counts = vec![0u64; sampler.keys() as usize];
    for _ in 0..DRAWS {
        let k = sampler.sample(&mut rng);
        counts[(k - 1) as usize] += 1;
    }
    counts
}

/// The smallest rank whose cumulative empirical mass reaches `q`.
fn empirical_quantile_rank(counts: &[u64], q: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    let target = (q * total as f64).ceil() as u64;
    let mut seen = 0u64;
    for (rank, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= target {
            return rank as u64;
        }
    }
    counts.len() as u64 - 1
}

#[test]
fn traces_are_byte_identical_per_seed() {
    let sampler = KeySampler::zipf(1000, 0.99);
    for mix in MixSpec::ALL {
        for seed in [0u64, 1, 42, u64::MAX] {
            let a = gen_trace(seed, 5000, &sampler, &mix);
            let b = gen_trace(seed, 5000, &sampler, &mix);
            assert_eq!(a, b, "{}/seed {seed}: trace not reproducible", mix.name);
        }
        let a = gen_trace(7, 5000, &sampler, &mix);
        let b = gen_trace(8, 5000, &sampler, &mix);
        assert_ne!(a, b, "{}: distinct seeds produced one trace", mix.name);
    }
}

#[test]
fn trace_prefixes_are_stable_across_lengths() {
    // Extending a trace must not perturb its prefix — the bench relies on
    // this to scale op counts without changing what the short runs did.
    let sampler = KeySampler::uniform(512);
    let mix = MixSpec::ALL[1];
    let short = gen_trace(99, 1000, &sampler, &mix);
    let long = gen_trace(99, 4000, &sampler, &mix);
    assert_eq!(short[..], long[..1000]);
}

#[test]
fn the_exact_head_of_a_known_trace_is_pinned() {
    // A golden prefix: if the PRNG, the sampler walk or the mix's draw
    // order ever changes, perfbench's KV traces silently change and its
    // runs stop being comparable across commits — make that loud instead.
    let sampler = KeySampler::zipf(100, 0.99);
    let trace = gen_trace(12345, 4, &sampler, &MixSpec::ALL[1]);
    let mut rng = XorShift64::new(12345);
    let replay: Vec<KvOp> = (0..4)
        .map(|_| MixSpec::ALL[1].op(&mut rng, &sampler))
        .collect();
    assert_eq!(trace, replay);
    // And the raw generator itself is pinned to a known constant (the
    // xorshift64* step from state 1).
    let mut rng = XorShift64::new(1);
    assert_eq!(rng.next_u64(), 0xbafa_cf62_4f01_c45d);
}

#[test]
fn uniform_sampler_is_flat() {
    let sampler = KeySampler::uniform(64);
    let counts = empirical_counts(&sampler, 3);
    let expect = DRAWS as f64 / 64.0;
    for (rank, &c) in counts.iter().enumerate() {
        let dev = (c as f64 - expect).abs() / expect;
        assert!(
            dev < 0.10,
            "uniform rank {rank}: {c} vs {expect} (dev {dev})"
        );
    }
    // Quantile ranks scale linearly.
    for q in [0.25, 0.5, 0.75] {
        let want = sampler.quantile_rank(q);
        let got = empirical_quantile_rank(&counts, q);
        assert!(
            want.abs_diff(got) <= 1,
            "uniform q={q}: sampler says rank {want}, empirical {got}"
        );
    }
}

#[test]
fn zipf_sampler_matches_its_own_quantiles_and_is_skewed() {
    let sampler = KeySampler::zipf(1000, 0.99);
    let counts = empirical_counts(&sampler, 11);
    // Shape agreement: empirical quantile ranks track the analytic table.
    for q in [0.25, 0.5, 0.75, 0.9, 0.99] {
        let want = sampler.quantile_rank(q) as i64;
        let got = empirical_quantile_rank(&counts, q) as i64;
        let slack = (want / 10).max(2);
        assert!(
            (want - got).abs() <= slack,
            "zipf q={q}: analytic rank {want}, empirical {got}"
        );
    }
    // Genuine skew: the hottest key draws far more than uniform would, and
    // the head dominates the tail.
    let hottest = counts[0] as f64 / DRAWS as f64;
    assert!(
        hottest > 0.05,
        "zipf head mass {hottest} too flat for theta=0.99"
    );
    let head: u64 = counts[..10].iter().sum();
    let tail: u64 = counts[500..].iter().sum();
    assert!(
        head > tail,
        "zipf: 10 hottest keys ({head}) drew less than the cold half ({tail})"
    );
    // Monotone-ish head: rank 0 beats rank 9 decisively.
    assert!(counts[0] > counts[9] * 2);
}

#[test]
fn mix_op_kinds_cover_the_advertised_shares() {
    let sampler = KeySampler::uniform(100);
    for mix in MixSpec::ALL {
        let trace = gen_trace(5, 50_000, &sampler, &mix);
        let mut gets = 0u64;
        let (mut puts, mut cas, mut dels) = (0u64, 0u64, 0u64);
        for op in &trace {
            match op {
                KvOp::Get { .. } => gets += 1,
                KvOp::Put { .. } => puts += 1,
                KvOp::Cas { .. } => cas += 1,
                KvOp::Delete { .. } => dels += 1,
            }
        }
        let n = trace.len() as f64;
        let read_frac = gets as f64 / n;
        let want_reads = mix.read_pct as f64 / 100.0;
        assert!(
            (read_frac - want_reads).abs() < 0.01,
            "{}: reads {read_frac} vs {want_reads}",
            mix.name
        );
        // Every write kind occurs, and puts dominate the write side.
        assert!(
            puts > 0 && cas > 0 && dels > 0,
            "{}: a write kind vanished",
            mix.name
        );
        assert!(
            puts > cas && cas > dels,
            "{}: write split out of order",
            mix.name
        );
    }
}
