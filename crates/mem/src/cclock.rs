//! Compact ordering metadata: run-length clock deltas and a stateful
//! baseline codec.
//!
//! A full [`VectorClock`](crate::VectorClock) record costs 4 bytes per
//! processor per message — the O(nprocs) consistency-metadata overhead the
//! paper's §4 charges against LRC, and exactly what the 256-node transport
//! sweep measures.  But the *information* in consecutive clocks is tiny:
//! between two publishes most entries either do not move or all advance
//! together (a barrier advances every peer by one interval).  Following
//! Louvre's compact scoped versions, this module represents a clock as a
//! **delta against a baseline**: runs of consecutive entries that changed by
//! the same signed amount, zero runs skipped entirely, everything
//! varint-encoded.
//!
//! [`ClockDelta`] is the delta itself; its one consumer is
//! [`CompactClock`], a per-stream codec holding the *last clock sent* as its
//! baseline, so each encoded record is the delta from the previous one.  The
//! sender and every receiver of the same stream advance identical baselines,
//! so the encoding is exact, not approximate.  The transport's v2 wire
//! frames carry their clocks this way.
//!
//! # Encoding (all varint, see [`put_varint`])
//!
//! | Record       | Layout                                                     |
//! |--------------|------------------------------------------------------------|
//! | varint       | LEB128: 7 bits per byte, low first, high bit = continue    |
//! | `ClockDelta` | `nruns` · `nruns × (gap, len, zigzag(diff))`               |
//! | clock record | `clock_len` · `ClockDelta`                                 |
//!
//! `gap` is the run's distance from the end of the previous run (from entry
//! 0 for the first), `len ≥ 1` is the run length, and `diff ≠ 0` is the
//! signed per-entry change, zigzag-mapped to unsigned.  Malformed input
//! decodes to `None`; a corrupt peer must not be able to panic the decoder.

/// Upper bound on a decoded clock length (entries), as a sanity check
/// against corrupt varints (2^28 entries; real clocks have a few hundred).
pub const MAX_CLOCK_LEN: usize = 1 << 28;

/// Appends the LEB128 varint encoding of `v` to `out`.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Number of bytes [`put_varint`] writes for `v` (1..=10).
pub(crate) fn varint_len(v: u64) -> usize {
    (64 - v.max(1).leading_zeros() as usize).div_ceil(7)
}

/// Decodes one varint from the front of `buf`; returns the value and the
/// bytes consumed, or `None` if the buffer is truncated or the value
/// overflows 64 bits.
pub(crate) fn get_varint(buf: &[u8]) -> Option<(u64, usize)> {
    let mut v = 0u64;
    for (i, &b) in buf.iter().enumerate().take(10) {
        let bits = (b & 0x7f) as u64;
        v |= bits.checked_shl(7 * i as u32).filter(|_| {
            // The 10th byte may only contribute the top bit of a u64.
            i < 9 || bits <= 1
        })?;
        if b & 0x80 == 0 {
            return Some((v, i + 1));
        }
    }
    None
}

/// Maps a signed value to unsigned so small magnitudes of either sign get
/// short varints (0 → 0, −1 → 1, 1 → 2, −2 → 3, …).
pub(crate) fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
pub(crate) fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// One run of a [`ClockDelta`]: entries `start..start + len` all changed by
/// `diff`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaRun {
    /// First entry index of the run.
    pub start: u32,
    /// Number of consecutive entries covered (≥ 1).
    pub len: u32,
    /// Signed per-entry change, never 0.
    pub diff: i64,
}

/// The difference between two vector clocks as runs of equal change.
///
/// # Examples
///
/// ```
/// use dsm_mem::ClockDelta;
///
/// // A barrier epoch: every peer advanced one interval → one run.
/// let base = [3u32, 5, 1, 7];
/// let new = [4u32, 6, 2, 8];
/// let d = ClockDelta::from_entries(&base, &new);
/// assert_eq!(d.runs().len(), 1);
/// let mut buf = Vec::new();
/// d.encode_into(&mut buf);
/// assert_eq!(buf.len(), 4); // nruns·gap·len·diff, one byte each
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClockDelta {
    runs: Vec<DeltaRun>,
}

impl ClockDelta {
    /// An empty delta (the two clocks were identical).
    pub fn new() -> Self {
        ClockDelta::default()
    }

    /// The delta taking `base` to `new`.  Entries past either slice's end
    /// are treated as zero, so the clocks may differ in length.
    pub fn from_entries(base: &[u32], new: &[u32]) -> Self {
        let mut d = ClockDelta::new();
        d.compute(base, new);
        d
    }

    /// Recomputes this delta as the change taking `base` to `new`, reusing
    /// the existing run allocation (what a [`CompactClock`] does for every
    /// record it encodes).
    pub fn compute(&mut self, base: &[u32], new: &[u32]) {
        self.runs.clear();
        let n = base.len().max(new.len());
        for i in 0..n {
            let b = base.get(i).copied().unwrap_or(0);
            let v = new.get(i).copied().unwrap_or(0);
            let diff = v as i64 - b as i64;
            if diff == 0 {
                continue;
            }
            match self.runs.last_mut() {
                Some(run) if run.diff == diff && run.start as usize + run.len as usize == i => {
                    run.len += 1;
                }
                _ => self.runs.push(DeltaRun {
                    start: i as u32,
                    len: 1,
                    diff,
                }),
            }
        }
    }

    /// The runs, in increasing `start` order, non-adjacent and non-empty.
    pub fn runs(&self) -> &[DeltaRun] {
        &self.runs
    }

    /// True if the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// One past the last entry index any run touches (0 when empty).
    pub fn max_end(&self) -> usize {
        self.runs
            .last()
            .map_or(0, |r| r.start as usize + r.len as usize)
    }

    /// Fallible slice application for untrusted (decoded) deltas: `None` if
    /// a run reaches past `entries` or an entry would leave `u32` range.
    fn checked_apply(&self, entries: &mut [u32]) -> Option<()> {
        if self.max_end() > entries.len() {
            return None;
        }
        for run in &self.runs {
            for e in &mut entries[run.start as usize..(run.start + run.len) as usize] {
                *e = u32::try_from(*e as i64 + run.diff).ok()?;
            }
        }
        Some(())
    }

    /// Encoded size in bytes (exactly what [`ClockDelta::encode_into`]
    /// appends).
    pub fn encoded_len(&self) -> usize {
        let mut n = varint_len(self.runs.len() as u64);
        let mut prev_end = 0u64;
        for run in &self.runs {
            n += varint_len(run.start as u64 - prev_end)
                + varint_len(run.len as u64)
                + varint_len(zigzag_encode(run.diff));
            prev_end = run.start as u64 + run.len as u64;
        }
        n
    }

    /// Appends the encoded delta to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint(out, self.runs.len() as u64);
        let mut prev_end = 0u64;
        for run in &self.runs {
            put_varint(out, run.start as u64 - prev_end);
            put_varint(out, run.len as u64);
            put_varint(out, zigzag_encode(run.diff));
            prev_end = run.start as u64 + run.len as u64;
        }
    }

    /// Decodes a delta from the front of `buf`; returns it and the bytes
    /// consumed.
    pub fn decode(buf: &[u8]) -> Option<(ClockDelta, usize)> {
        let mut d = ClockDelta::new();
        let used = d.decode_from(buf)?;
        Some((d, used))
    }

    /// Decodes into `self` (reusing the run allocation) from the front of
    /// `buf`; returns the bytes consumed.  Rejects non-canonical input:
    /// zero-length or zero-diff runs, runs out of order, or runs adjacent
    /// enough that the encoder would have merged them.
    pub fn decode_from(&mut self, buf: &[u8]) -> Option<usize> {
        self.runs.clear();
        let mut at = 0usize;
        let next = |at: &mut usize| -> Option<u64> {
            let (v, n) = get_varint(&buf[*at..])?;
            *at += n;
            Some(v)
        };
        let nruns = next(&mut at)?;
        if nruns as usize > MAX_CLOCK_LEN {
            return None;
        }
        let mut prev_end = 0u64;
        let mut prev_diff = 0i64;
        for _ in 0..nruns {
            let gap = next(&mut at)?;
            let len = next(&mut at)?;
            let diff = zigzag_decode(next(&mut at)?);
            let start = prev_end.checked_add(gap)?;
            let end = start.checked_add(len)?;
            if len == 0 || diff == 0 || end > MAX_CLOCK_LEN as u64 {
                return None;
            }
            if gap == 0 && diff == prev_diff && !self.runs.is_empty() {
                return None; // adjacent equal-diff runs: not canonical
            }
            self.runs.push(DeltaRun {
                start: start as u32,
                len: len as u32,
                diff,
            });
            prev_end = end;
            prev_diff = diff;
        }
        Some(at)
    }
}

/// A stateful delta codec over a stream of clocks: each record is the
/// [`ClockDelta`] from the previous clock on the same stream.
///
/// The sender keeps one `CompactClock` per outgoing stream, each receiver
/// one per incoming stream; both sides advance the baseline on every record,
/// so decode reconstructs the sender's clock exactly.  The first record of a
/// stream (or any record a receiver may decode without its predecessor, e.g.
/// when a receiver rejoins mid-stream) must be sent in *full* mode: the delta
/// is taken from the all-zero clock, which is still naturally sparse.
///
/// # Examples
///
/// ```
/// use dsm_mem::CompactClock;
///
/// let (mut enc, mut dec) = (CompactClock::new(), CompactClock::new());
/// let mut buf = Vec::new();
/// enc.encode_next(&[1, 0, 3], true, &mut buf); // first record: full mode
/// enc.encode_next(&[2, 0, 3], false, &mut buf);
/// let used = dec.decode_next(&buf, true).unwrap();
/// assert_eq!(dec.baseline(), &[1, 0, 3]);
/// dec.decode_next(&buf[used..], false).unwrap();
/// assert_eq!(dec.baseline(), &[2, 0, 3]);
/// ```
#[derive(Debug, Default)]
pub struct CompactClock {
    baseline: Vec<u32>,
    scratch: ClockDelta,
}

impl CompactClock {
    /// A codec with an empty baseline (before any record).
    pub fn new() -> Self {
        CompactClock::default()
    }

    /// The last clock encoded or decoded on this stream.
    pub fn baseline(&self) -> &[u32] {
        &self.baseline
    }

    /// Appends one clock record for `entries` to `out` and advances the
    /// baseline.  `full` encodes against the all-zero clock instead of the
    /// baseline (required for the first record of a stream).  Returns the
    /// bytes appended.
    pub fn encode_next(&mut self, entries: &[u32], full: bool, out: &mut Vec<u8>) -> usize {
        if full {
            self.baseline.clear();
        }
        self.scratch.compute(&self.baseline, entries);
        let start = out.len();
        put_varint(out, entries.len() as u64);
        self.scratch.encode_into(out);
        self.baseline.clear();
        self.baseline.extend_from_slice(entries);
        out.len() - start
    }

    /// Decodes one clock record from the front of `buf`, advancing the
    /// baseline to the decoded clock (readable via
    /// [`CompactClock::baseline`]).  Returns the bytes consumed, or `None`
    /// on malformed input — after which the stream state is unusable.
    pub fn decode_next(&mut self, buf: &[u8], full: bool) -> Option<usize> {
        let (len, n) = get_varint(buf)?;
        let len = usize::try_from(len).ok().filter(|&l| l <= MAX_CLOCK_LEN)?;
        let used = self.scratch.decode_from(&buf[n..])?;
        if full {
            self.baseline.clear();
        }
        self.baseline.resize(len, 0);
        if self.scratch.max_end() > len {
            return None;
        }
        self.scratch.checked_apply(&mut self.baseline)?;
        Some(n + used)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip_at_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "len of {v}");
            assert_eq!(get_varint(&buf), Some((v, buf.len())), "value {v}");
        }
        assert_eq!(get_varint(&[]), None);
        assert_eq!(get_varint(&[0x80]), None, "truncated");
        assert_eq!(get_varint(&[0xff; 11]), None, "overlong");
    }

    #[test]
    fn zigzag_is_an_involution() {
        for v in [0i64, 1, -1, 2, -2, i64::MAX, i64::MIN] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
    }

    #[test]
    fn delta_coalesces_equal_runs() {
        let base = [1u32, 2, 3, 4, 5];
        let new = [2u32, 3, 3, 6, 7];
        let d = ClockDelta::from_entries(&base, &new);
        assert_eq!(
            d.runs(),
            &[
                DeltaRun {
                    start: 0,
                    len: 2,
                    diff: 1
                },
                DeltaRun {
                    start: 3,
                    len: 2,
                    diff: 2
                },
            ]
        );
        assert_eq!(d.max_end(), 5);
    }

    #[test]
    fn delta_handles_length_mismatch_as_zero_extension() {
        let d = ClockDelta::from_entries(&[1, 2], &[1, 2, 7]);
        assert_eq!(
            d.runs(),
            &[DeltaRun {
                start: 2,
                len: 1,
                diff: 7
            }]
        );
        let shrink = ClockDelta::from_entries(&[1, 2, 7], &[1, 2]);
        assert_eq!(
            shrink.runs(),
            &[DeltaRun {
                start: 2,
                len: 1,
                diff: -7
            }]
        );
    }

    #[test]
    fn delta_round_trip_and_rejections() {
        let d = ClockDelta::from_entries(&[0, 0, 9], &[1, 1, 2]);
        let mut buf = Vec::new();
        d.encode_into(&mut buf);
        assert_eq!(buf.len(), d.encoded_len());
        assert_eq!(ClockDelta::decode(&buf), Some((d, buf.len())));
        assert!(ClockDelta::decode(&buf[..buf.len() - 1]).is_none(), "trunc");
        // Zero-length run.
        let mut bad = Vec::new();
        for v in [1u64, 0, 0, 2] {
            put_varint(&mut bad, v);
        }
        assert!(ClockDelta::decode(&bad).is_none(), "len 0");
        // Zero diff.
        bad.clear();
        for v in [1u64, 0, 1, 0] {
            put_varint(&mut bad, v);
        }
        assert!(ClockDelta::decode(&bad).is_none(), "diff 0");
        // Two adjacent runs with the same diff: the encoder would merge.
        bad.clear();
        for v in [2u64, 0, 1, 2, 0, 1, 2] {
            put_varint(&mut bad, v);
        }
        assert!(ClockDelta::decode(&bad).is_none(), "non-canonical");
    }

    #[test]
    fn compact_clock_streams_exactly() {
        let mut enc = CompactClock::new();
        let mut dec = CompactClock::new();
        let clocks: [&[u32]; 4] = [&[0, 0, 0], &[1, 0, 0], &[2, 5, 1], &[2, 5, 1]];
        let mut buf = Vec::new();
        for (i, c) in clocks.iter().enumerate() {
            enc.encode_next(c, i == 0, &mut buf);
        }
        let mut at = 0;
        for (i, c) in clocks.iter().enumerate() {
            at += dec.decode_next(&buf[at..], i == 0).expect("decodes");
            assert_eq!(&dec.baseline(), c, "record {i}");
        }
        assert_eq!(at, buf.len());
    }

    #[test]
    fn compact_clock_identical_record_is_three_bytes() {
        let mut enc = CompactClock::new();
        let mut buf = Vec::new();
        enc.encode_next(&[7; 200], true, &mut buf);
        let first = buf.len();
        // Same clock again: varint(len) + empty delta.
        let n = enc.encode_next(&[7; 200], false, &mut buf);
        assert_eq!(n, 3);
        assert!(first < 10, "one run even in full mode, got {first}");
        assert_eq!(buf.len(), first + n);
    }

    #[test]
    fn compact_clock_rejects_out_of_range_runs() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 2); // clock_len = 2
        for v in [1u64, 3, 1, 2] {
            put_varint(&mut buf, v); // one run at entry 3: past the clock
        }
        assert!(CompactClock::new().decode_next(&buf, true).is_none());
        // Negative entry: delta −1 from a zero baseline.
        buf.clear();
        put_varint(&mut buf, 2);
        for v in [1u64, 0, 1, zigzag_encode(-1)] {
            put_varint(&mut buf, v);
        }
        assert!(CompactClock::new().decode_next(&buf, true).is_none());
    }
}
