//! Deterministic pseudo-random generation for property-style tests.
//!
//! The build environment is offline (no `proptest`), so the workspace's
//! property tests drive themselves with [`XorShift64`]: every case is
//! reproducible from its printed seed.  Test-only API — hidden from the
//! documented surface and semver-exempt.

use crate::XorShift64;

/// [`XorShift64`] with the `usize`-sized helpers property tests draw with.
#[derive(Debug, Clone)]
pub struct TestRng(XorShift64);

impl TestRng {
    /// Creates a generator from a seed ([`XorShift64::new`]'s seeding rule).
    pub fn new(seed: u64) -> Self {
        TestRng(XorShift64::new(seed))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        self.0.below(bound as u64) as usize
    }

    /// Value in `lo..hi`.
    pub fn in_range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo)
    }

    /// Uniform byte.
    pub fn byte(&mut self) -> u8 {
        (self.next_u64() & 0xff) as u8
    }

    /// Uniform boolean.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// `len` uniform bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.byte()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_in_bounds() {
        let mut a = TestRng::new(42);
        let mut b = TestRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut r = TestRng::new(7);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            let v = r.in_range(5, 9);
            assert!((5..9).contains(&v));
        }
        let mut z = TestRng::new(0);
        assert_ne!(
            z.next_u64(),
            z.next_u64(),
            "zero seed must not be a fixed point"
        );
    }
}
