//! A compact bitset used for software dirty bits.
//!
//! Both write-trapping mechanisms need to remember which blocks (and, for the
//! hierarchical LRC scheme, which pages) were touched: compiler
//! instrumentation sets a software dirty bit on every shared store, and the
//! twinning implementation records which pages have live twins.

/// A growable bitset over dense `usize` indices.
///
/// # Examples
///
/// ```
/// use dsm_mem::BitSet;
///
/// let mut bits = BitSet::new(100);
/// bits.set(3);
/// bits.set(64);
/// assert!(bits.get(3));
/// assert!(!bits.get(4));
/// assert_eq!(bits.iter_set().collect::<Vec<_>>(), vec![3, 64]);
/// assert_eq!(bits.count(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates a bitset able to hold `len` bits, all clear.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits the set can hold.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the set holds no bits at all (zero capacity).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `index`, returning whether it was previously clear.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn set(&mut self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        let (w, b) = (index / 64, index % 64);
        let was_clear = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        was_clear
    }

    /// Clears bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn clear(&mut self, index: usize) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        let (w, b) = (index / 64, index % 64);
        self.words[w] &= !(1 << b);
    }

    /// Reads bit `index` (out-of-range indices read as clear).
    pub fn get(&self, index: usize) -> bool {
        if index >= self.len {
            return false;
        }
        let (w, b) = (index / 64, index % 64);
        self.words[w] & (1 << b) != 0
    }

    /// Clears all bits.
    pub fn clear_all(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterator over the indices of the set bits, in increasing order.
    pub fn iter_set(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// Sets every bit in `range` (clamped to the capacity).
    ///
    /// Whole 64-bit words are filled with one masked OR each — this sits on
    /// the write-trap path (a span write marks its dirty bits with one call),
    /// so it must not loop bit by bit.
    pub fn set_range(&mut self, range: std::ops::Range<usize>) {
        self.update_range(range, |word, mask| *word |= mask);
    }

    /// Clears every bit in `range` (clamped to the capacity): the mirror of
    /// [`BitSet::set_range`], one masked AND per word, for a release that
    /// retires the dirty bits of the data it published.
    pub fn clear_range(&mut self, range: std::ops::Range<usize>) {
        self.update_range(range, |word, mask| *word &= !mask);
    }

    /// Calls `op(word, mask)` on every word `range` (clamped to the
    /// capacity) touches, `mask` selecting the range's bits in that word.
    fn update_range(&mut self, range: std::ops::Range<usize>, op: impl Fn(&mut u64, u64)) {
        let start = range.start.min(self.len);
        let end = range.end.min(self.len);
        if start >= end {
            return;
        }
        let (sw, sb) = (start / 64, start % 64);
        let (ew, eb) = (end / 64, end % 64);
        if sw == ew {
            // Within one word; `end > start` guarantees `eb > 0` here.
            op(&mut self.words[sw], (!0u64 << sb) & (!0u64 >> (64 - eb)));
        } else {
            op(&mut self.words[sw], !0u64 << sb);
            for w in &mut self.words[sw + 1..ew] {
                op(w, !0);
            }
            if eb > 0 {
                op(&mut self.words[ew], !0u64 >> (64 - eb));
            }
        }
    }

    /// Iterator over maximal runs of consecutive set bits as `(start, len)`
    /// pairs, in increasing order.
    ///
    /// This is the batched form of [`BitSet::iter_set`]: instead of yielding
    /// every dirty block, it yields each contiguous dirty *span* once, found
    /// with `trailing_zeros` on the underlying words — the shape the publish
    /// path wants, since a run maps to one `memcpy` and one diff run.
    ///
    /// ```
    /// use dsm_mem::BitSet;
    ///
    /// let mut bits = BitSet::new(200);
    /// bits.set_range(3..7);
    /// bits.set_range(62..70);
    /// assert_eq!(bits.iter_runs().collect::<Vec<_>>(), vec![(3, 4), (62, 8)]);
    /// ```
    pub fn iter_runs(&self) -> BitRuns<'_> {
        BitRuns {
            words: &self.words,
            wi: 0,
            cur: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// Iterator over maximal runs of set bits; see [`BitSet::iter_runs`].
#[derive(Debug, Clone)]
pub struct BitRuns<'a> {
    words: &'a [u64],
    /// Index of the word `cur` was taken from.
    wi: usize,
    /// Unconsumed bits of word `wi` (consumed bits are cleared).
    cur: u64,
}

impl Iterator for BitRuns<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        while self.cur == 0 {
            self.wi += 1;
            self.cur = *self.words.get(self.wi)?;
        }
        let tz = self.cur.trailing_zeros() as usize;
        let start = self.wi * 64 + tz;
        let ones = (!(self.cur >> tz)).trailing_zeros() as usize;
        let mut len = ones;
        if tz + ones < 64 {
            // The run ends inside this word; drop its bits (bits below `tz`
            // are already zero).
            self.cur &= !0u64 << (tz + ones);
        } else {
            // The run reaches the word boundary; follow it into later words.
            self.cur = 0;
            loop {
                self.wi += 1;
                let Some(&w) = self.words.get(self.wi) else {
                    break;
                };
                if w == u64::MAX {
                    len += 64;
                    continue;
                }
                let ones = (!w).trailing_zeros() as usize;
                len += ones;
                self.cur = w & (!0u64 << ones);
                break;
            }
        }
        Some((start, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut b = BitSet::new(130);
        assert!(b.set(0));
        assert!(!b.set(0));
        assert!(b.set(129));
        assert!(b.get(0));
        assert!(b.get(129));
        assert!(!b.get(1));
        assert!(!b.get(1000)); // out of range reads as clear
        b.clear(0);
        assert!(!b.get(0));
        assert_eq!(b.count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        let mut b = BitSet::new(8);
        b.set(8);
    }

    #[test]
    fn iter_set_in_order() {
        let mut b = BitSet::new(200);
        for i in [5usize, 63, 64, 65, 199] {
            b.set(i);
        }
        assert_eq!(b.iter_set().collect::<Vec<_>>(), vec![5, 63, 64, 65, 199]);
    }

    #[test]
    fn clear_all_and_none_set() {
        let mut b = BitSet::new(70);
        b.set_range(10..20);
        assert_eq!(b.count(), 10);
        b.clear_all();
        assert_eq!(b.count(), 0);
    }

    #[test]
    fn set_range_clamps() {
        let mut b = BitSet::new(16);
        b.set_range(10..100);
        assert_eq!(b.count(), 6);
        b.set_range(40..50); // entirely out of range
        assert_eq!(b.count(), 6);
    }

    #[test]
    fn set_range_matches_bitwise_loop_on_random_ranges() {
        let mut rng = crate::testutil::TestRng::new(9);
        for _ in 0..256 {
            let len = rng.in_range(1, 300);
            let lo = rng.below(len + 64);
            let hi = lo + rng.below(200);
            let mut fast = BitSet::new(len);
            fast.set_range(lo..hi);
            let mut slow = BitSet::new(len);
            for i in lo..hi.min(len) {
                slow.set(i);
            }
            assert_eq!(fast, slow, "len {len} range {lo}..{hi}");
        }
    }

    #[test]
    fn clear_range_matches_bitwise_loop_on_random_ranges() {
        let mut rng = crate::testutil::TestRng::new(10);
        for _ in 0..256 {
            let len = rng.in_range(1, 300);
            let mut fast = BitSet::new(len);
            for _ in 0..rng.below(8) {
                let lo = rng.below(len);
                fast.set_range(lo..lo + rng.below(len));
            }
            let mut slow = fast.clone();
            let lo = rng.below(len + 64);
            let hi = lo + rng.below(200);
            fast.clear_range(lo..hi);
            for i in lo..hi.min(len) {
                slow.clear(i);
            }
            assert_eq!(fast, slow, "len {len} range {lo}..{hi}");
        }
    }

    #[test]
    fn empty_set() {
        let b = BitSet::new(0);
        assert!(b.is_empty());
        assert_eq!(b.count(), 0);
        assert_eq!(b.iter_set().count(), 0);
        assert_eq!(b.iter_runs().count(), 0);
    }

    #[test]
    fn runs_within_and_across_words() {
        let mut b = BitSet::new(300);
        b.set(0);
        b.set_range(10..13);
        b.set_range(60..68); // straddles the first word boundary
        b.set_range(128..256); // two full words
        b.set(299);
        assert_eq!(
            b.iter_runs().collect::<Vec<_>>(),
            vec![(0, 1), (10, 3), (60, 8), (128, 128), (299, 1)]
        );
    }

    #[test]
    fn runs_match_iter_set_on_random_patterns() {
        let mut rng = crate::testutil::TestRng::new(42);
        for _ in 0..64 {
            let len = rng.in_range(1, 400);
            let mut b = BitSet::new(len);
            for _ in 0..rng.below(64) {
                if rng.bool() {
                    b.set_range(rng.below(len)..rng.below(len).max(1));
                } else {
                    b.set(rng.below(len));
                }
            }
            // Expanding the runs must reproduce iter_set exactly.
            let expanded: Vec<usize> = b
                .iter_runs()
                .flat_map(|(start, run)| start..start + run)
                .collect();
            assert_eq!(expanded, b.iter_set().collect::<Vec<_>>());
        }
    }
}
