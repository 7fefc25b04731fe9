//! The workspace's one seeded pseudo-random generator.

/// xorshift64* PRNG: 8 bytes of state, passes BigCrush's basic batteries,
/// and — the property its users rely on — identical output for identical
/// seeds on every run, host and OS.  The KV tier's workload generator draws
/// its op traces from it, and the property tests draw their cases from it
/// through the test-only `testutil::TestRng`.  Zero seeds are remapped
/// (the xorshift orbit of 0 is 0).
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeds the generator (any value; 0 is remapped to a fixed non-zero).
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 {
                0x9e37_79b9_7f4a_7c15
            } else {
                seed
            },
        }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform draw from `0..n` (n > 0) by 128-bit multiply, bias ≤ 2⁻⁶⁴.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        (((self.next_u64() as u128) * (n as u128)) >> 64) as u64
    }

    /// Uniform draw from `[0, 1)` with 53 bits of precision.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}
