//! Run-length encoded records of modifications to shared data ("diffs").
//!
//! A diff records the changes made to an object (EC) or a page (LRC) during
//! one execution interval, as a run-length encoding of the modified blocks and
//! their new values (Section 5.2 of the paper).  Diffs are created lazily from
//! a *twin* (an unmodified copy) or from software dirty bits, shipped to the
//! acquirer/faulting processor, applied there, and saved for possible future
//! transmission to other processors.
//!
//! # Representation
//!
//! The payload is stored *flat*: one contiguous byte buffer holding every
//! run's bytes back to back, plus a small offset table describing the runs —
//! not one allocation per run.  The whole record sits behind an [`Arc`], so
//! cloning a diff (to fan it out to several consumers, or to retain it for a
//! later requester) is a reference-count bump, never a copy of the payload.
//! Diffs are immutable once built; the shared payload is never written again.
//!
//! Write collection ([`Diff::from_compare`]) compares the twin and the
//! current copy eight bytes at a time (`u64` loads), falling back to
//! per-block comparison only inside a chunk that differs and for a tail
//! shorter than one chunk.  The produced diff is byte-identical to the
//! per-block reference implementation ([`Diff::from_compare_reference`]),
//! which is retained for the property tests that pin this equivalence.

use std::sync::Arc;

use crate::BlockGranularity;

/// One run of consecutive modified bytes within a diff, borrowed from the
/// diff's flat payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffRun<'a> {
    /// Region-absolute byte offset of the start of the run.
    pub offset: usize,
    /// The new bytes for the run.
    pub data: &'a [u8],
}

impl DiffRun<'_> {
    /// Length of the run in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the run carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Run descriptor in the flat offset table: where the run lives in the
/// region (`offset`) and in the shared payload (`pos..pos + len`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RunDesc {
    offset: usize,
    pos: usize,
    len: usize,
}

/// The shared (immutable) body of a diff: the offset table and the flat
/// payload every run's bytes live in.
#[derive(Debug, Default, PartialEq, Eq)]
struct DiffBody {
    runs: Vec<RunDesc>,
    payload: Vec<u8>,
}

/// A run-length encoded record of the changes to a contiguous piece of shared
/// data (an EC object or an LRC page).
///
/// Cloning is cheap (the run table and payload are `Arc`-shared), so a diff
/// can be handed to several consumers without copying its bytes.
///
/// # Examples
///
/// ```
/// use dsm_mem::{BlockGranularity, Diff};
///
/// // Twin (old) and current (new) copy of a 32-byte object.
/// let twin = vec![0u8; 32];
/// let mut current = twin.clone();
/// current[4..8].copy_from_slice(&1u32.to_le_bytes());
/// current[8..12].copy_from_slice(&2u32.to_le_bytes());
/// current[28..32].copy_from_slice(&3u32.to_le_bytes());
///
/// let diff = Diff::from_compare(&twin, &current, 0, BlockGranularity::Word);
/// assert_eq!(diff.runs().len(), 2);       // [4..12] and [28..32]
/// assert_eq!(diff.modified_blocks(), 3);
///
/// let mut target = vec![0u8; 32];
/// diff.apply(&mut target);
/// assert_eq!(target, current);
/// ```
#[derive(Debug, Clone, Default, Eq)]
pub struct Diff {
    body: Arc<DiffBody>,
    granularity: BlockGranularity,
}

impl PartialEq for Diff {
    fn eq(&self, other: &Self) -> bool {
        self.granularity == other.granularity
            && (Arc::ptr_eq(&self.body, &other.body) || self.body == other.body)
    }
}

/// Per-run header bytes a diff costs on the simulated wire: a 4-byte offset
/// and a 4-byte length, as a run-length encoding would carry.
const RUN_HEADER_BYTES: usize = 8;

/// Streaming builder: accepts changed byte ranges in increasing order and
/// coalesces adjacent ones into runs appended to the flat payload.
struct Builder<'a> {
    current: &'a [u8],
    base_offset: usize,
    body: DiffBody,
    /// Open run as a slice-relative byte range.
    open: Option<(usize, usize)>,
}

impl<'a> Builder<'a> {
    fn new(current: &'a [u8], base_offset: usize) -> Self {
        Builder {
            current,
            base_offset,
            body: DiffBody::default(),
            open: None,
        }
    }

    /// Adds the changed byte range `start..end` (must not start before the
    /// open run's end; callers feed ranges in increasing order).
    fn push_range(&mut self, start: usize, end: usize) {
        match &mut self.open {
            Some((_, e)) if *e == start => *e = end,
            Some(_) => {
                self.close();
                self.open = Some((start, end));
            }
            None => self.open = Some((start, end)),
        }
    }

    fn close(&mut self) {
        if let Some((s, e)) = self.open.take() {
            let pos = self.body.payload.len();
            self.body.payload.extend_from_slice(&self.current[s..e]);
            self.body.runs.push(RunDesc {
                offset: self.base_offset + s,
                pos,
                len: e - s,
            });
        }
    }

    fn finish(mut self, granularity: BlockGranularity) -> Diff {
        self.close();
        Diff {
            body: Arc::new(self.body),
            granularity,
        }
    }
}

impl Diff {
    /// Creates an empty diff.
    pub fn empty(granularity: BlockGranularity) -> Self {
        Diff {
            body: Arc::new(DiffBody::default()),
            granularity,
        }
    }

    /// Builds a diff by comparing `current` against its `twin`.  `base_offset`
    /// is the region-absolute offset of byte 0 of the two slices (e.g. the
    /// page's start offset).
    ///
    /// This is the write-collection step of the twinning implementations.
    /// The copies are compared eight bytes at a time; the result is
    /// byte-identical to [`Diff::from_compare_reference`] (the per-block
    /// reference the property tests pin it against).
    ///
    /// # Panics
    ///
    /// Panics if the twin and current slices have different lengths.
    pub fn from_compare(
        twin: &[u8],
        current: &[u8],
        base_offset: usize,
        granularity: BlockGranularity,
    ) -> Self {
        assert_eq!(
            twin.len(),
            current.len(),
            "twin and current copies must be the same size"
        );
        let len = current.len();
        let mut b = Builder::new(current, base_offset);
        match granularity {
            // Word blocks are exactly the runs `changed_word_runs` delivers
            // (the one chunked scan in this crate); a run's byte end is
            // clamped for a trailing word shorter than 4 bytes.
            BlockGranularity::Word => {
                changed_word_runs(twin, current, 0..len.div_ceil(4), |s, e| {
                    b.push_range(s * 4, (e * 4).min(len));
                });
            }
            BlockGranularity::DoubleWord => {
                let chunks = len / 8;
                for c in 0..chunks {
                    let at = c * 8;
                    if twin[at..at + 8] != current[at..at + 8] {
                        b.push_range(at, at + 8);
                    }
                }
                // Trailing partial block.
                let at = chunks * 8;
                if at < len && twin[at..] != current[at..] {
                    b.push_range(at, len);
                }
            }
        }
        b.finish(granularity)
    }

    /// The straightforward block-by-block form of [`Diff::from_compare`],
    /// retained as the executable specification the chunked comparison is
    /// property-tested against.  Not for production use.
    pub fn from_compare_reference(
        twin: &[u8],
        current: &[u8],
        base_offset: usize,
        granularity: BlockGranularity,
    ) -> Self {
        assert_eq!(
            twin.len(),
            current.len(),
            "twin and current copies must be the same size"
        );
        let bs = granularity.bytes();
        let nblocks = granularity.blocks_in(current.len());
        let mut b = Builder::new(current, base_offset);
        for block in 0..nblocks {
            let start = block * bs;
            let end = (start + bs).min(current.len());
            if twin[start..end] != current[start..end] {
                b.push_range(start, end);
            }
        }
        b.finish(granularity)
    }

    /// Builds a diff from an explicit set of modified block indices (indices
    /// are relative to `current`, i.e. block 0 starts at byte 0 of the
    /// slice).  Indices past the end of `current` are ignored; duplicates
    /// are tolerated.
    ///
    /// This is the write-collection step when software dirty bits (compiler
    /// instrumentation) identify the modified blocks.  The indices are
    /// consumed streaming — no per-call scratch is allocated — which is why
    /// they must arrive in non-decreasing order, the order a dirty-bit scan
    /// naturally produces.  (Callers holding a [`BitSet`](crate::BitSet)
    /// should prefer [`Diff::from_block_runs`] with
    /// [`iter_runs`](crate::BitSet::iter_runs).)
    ///
    /// # Panics
    ///
    /// Panics if the indices are not in non-decreasing order.
    pub fn from_blocks<I>(
        current: &[u8],
        base_offset: usize,
        blocks: I,
        granularity: BlockGranularity,
    ) -> Self
    where
        I: IntoIterator<Item = usize>,
    {
        let bs = granularity.bytes();
        let nblocks = granularity.blocks_in(current.len());
        let mut b = Builder::new(current, base_offset);
        let mut prev = 0usize;
        for block in blocks {
            assert!(
                block >= prev,
                "block indices must be non-decreasing (got {block} after {prev})"
            );
            prev = block;
            if block >= nblocks {
                continue;
            }
            let start = block * bs;
            let end = (start + bs).min(current.len());
            if b.open.is_some_and(|(_, e)| e >= end) {
                continue; // duplicate of the open run's last block
            }
            b.push_range(start, end);
        }
        b.finish(granularity)
    }

    /// Builds a diff from maximal runs of modified blocks, as `(first_block,
    /// block_count)` pairs in increasing order — the shape
    /// [`BitSet::iter_runs`](crate::BitSet::iter_runs) yields.  Each run
    /// becomes (at most) one diff run with one payload copy, and nothing is
    /// allocated beyond the diff itself.
    ///
    /// # Panics
    ///
    /// Panics if the runs overlap or are not in increasing order.
    pub fn from_block_runs<I>(
        current: &[u8],
        base_offset: usize,
        runs: I,
        granularity: BlockGranularity,
    ) -> Self
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let bs = granularity.bytes();
        let len = current.len();
        let mut b = Builder::new(current, base_offset);
        let mut prev_end = 0usize;
        for (first, count) in runs {
            let start = (first * bs).min(len);
            let end = (first.saturating_add(count).saturating_mul(bs)).min(len);
            assert!(
                start >= prev_end,
                "block runs must be disjoint and in increasing order"
            );
            prev_end = end;
            if start < end {
                b.push_range(start, end);
            }
        }
        b.finish(granularity)
    }

    /// The runs of this diff, in increasing offset order.
    pub fn runs(&self) -> DiffRuns<'_> {
        DiffRuns {
            body: &self.body,
            next: 0,
        }
    }

    /// The block granularity the diff was created at.
    pub fn granularity(&self) -> BlockGranularity {
        self.granularity
    }

    /// True if the diff records no modifications.
    pub fn is_empty(&self) -> bool {
        self.body.runs.is_empty()
    }

    /// Total number of modified bytes carried by the diff.
    pub fn modified_bytes(&self) -> usize {
        self.body.payload.len()
    }

    /// Total number of modified blocks carried by the diff.
    pub fn modified_blocks(&self) -> usize {
        self.body
            .runs
            .iter()
            .map(|r| self.granularity.blocks_in(r.len))
            .sum()
    }

    /// Size of the diff on the wire: modified bytes plus a per-run header.
    pub fn encoded_size(&self) -> usize {
        self.modified_bytes() + self.body.runs.len() * RUN_HEADER_BYTES
    }

    /// Applies the diff to a region-sized buffer.
    ///
    /// # Panics
    ///
    /// Panics if a run extends past the end of `target`.
    pub fn apply(&self, target: &mut [u8]) {
        for r in &self.body.runs {
            target[r.offset..r.offset + r.len]
                .copy_from_slice(&self.body.payload[r.pos..r.pos + r.len]);
        }
    }

    /// Iterator over `(block_index, block_bytes)` pairs, where block indices
    /// are region-absolute (i.e. `offset / granularity`).
    pub fn blocks(&self) -> impl Iterator<Item = (usize, &[u8])> + '_ {
        let bs = self.granularity.bytes();
        let body = &*self.body;
        body.runs.iter().flat_map(move |run| {
            let data = &body.payload[run.pos..run.pos + run.len];
            (0..run.len.div_ceil(bs)).map(move |i| {
                let start = i * bs;
                let end = (start + bs).min(data.len());
                ((run.offset + start) / bs, &data[start..end])
            })
        })
    }
}

/// Calls `f(start_word, end_word)` for every maximal run of changed 4-byte
/// words in `words`, comparing `current` against `twin` (equal-length
/// slices; a trailing word may be shorter than 4 bytes).
///
/// This is the raw scan underneath twinning write collection, exposed so
/// protocol engines that publish straight into a master copy can reuse the
/// chunked comparison without building a [`Diff`]: words are compared eight
/// bytes (two words) at a time and only a differing chunk is refined to word
/// granularity.  The runs delivered are exactly the maximal runs a
/// word-by-word comparison would find.
///
/// ```
/// use dsm_mem::changed_word_runs;
///
/// let twin = [0u8; 16];
/// let mut cur = [0u8; 16];
/// cur[0] = 1; // word 0
/// cur[12] = 2; // word 3
/// let mut runs = Vec::new();
/// changed_word_runs(&twin, &cur, 0..4, |s, e| runs.push((s, e)));
/// assert_eq!(runs, vec![(0, 1), (3, 4)]);
/// ```
///
/// # Panics
///
/// Panics if the twin and current slices have different lengths.
pub fn changed_word_runs(
    twin: &[u8],
    current: &[u8],
    words: std::ops::Range<usize>,
    mut f: impl FnMut(usize, usize),
) {
    assert_eq!(
        twin.len(),
        current.len(),
        "twin and current copies must be the same size"
    );
    let len = current.len();
    let mut open: Option<usize> = None;
    let mut w = words.start;
    while w < words.end {
        if w + 2 <= words.end && w * 4 + 8 <= len {
            let at = w * 4;
            let t = u64::from_le_bytes(twin[at..at + 8].try_into().expect("8-byte chunk"));
            let u = u64::from_le_bytes(current[at..at + 8].try_into().expect("8-byte chunk"));
            if t == u {
                if let Some(s) = open.take() {
                    f(s, w);
                }
                w += 2;
                continue;
            }
            let x = t ^ u;
            // Little-endian interpretation: the low 32 bits are word `w`.
            if x & 0xffff_ffff != 0 {
                open.get_or_insert(w);
            } else if let Some(s) = open.take() {
                f(s, w);
            }
            if x >> 32 != 0 {
                open.get_or_insert(w + 1);
            } else if let Some(s) = open.take() {
                f(s, w + 1);
            }
            w += 2;
            continue;
        }
        let sb = (w * 4).min(len);
        let eb = (sb + 4).min(len);
        if twin[sb..eb] != current[sb..eb] {
            open.get_or_insert(w);
        } else if let Some(s) = open.take() {
            f(s, w);
        }
        w += 1;
    }
    if let Some(s) = open.take() {
        f(s, words.end);
    }
}

/// Iterator over a diff's runs; see [`Diff::runs`].
#[derive(Debug, Clone)]
pub struct DiffRuns<'a> {
    body: &'a DiffBody,
    next: usize,
}

impl<'a> Iterator for DiffRuns<'a> {
    type Item = DiffRun<'a>;

    fn next(&mut self) -> Option<DiffRun<'a>> {
        let r = self.body.runs.get(self.next)?;
        self.next += 1;
        Some(DiffRun {
            offset: r.offset,
            data: &self.body.payload[r.pos..r.pos + r.len],
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.body.runs.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for DiffRuns<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn word_diff(twin: &[u8], current: &[u8]) -> Diff {
        Diff::from_compare(twin, current, 0, BlockGranularity::Word)
    }

    fn first_run<'a>(d: &'a Diff) -> DiffRun<'a> {
        d.runs().next().expect("at least one run")
    }

    #[test]
    fn identical_data_gives_empty_diff() {
        let data = vec![42u8; 128];
        let d = word_diff(&data, &data);
        assert!(d.is_empty());
        assert_eq!(d.encoded_size(), 0);
        assert_eq!(d.modified_blocks(), 0);
    }

    #[test]
    fn adjacent_changes_coalesce_into_one_run() {
        let twin = vec![0u8; 64];
        let mut cur = twin.clone();
        cur[16..28].fill(9);
        let d = word_diff(&twin, &cur);
        assert_eq!(d.runs().len(), 1);
        assert_eq!(first_run(&d).offset, 16);
        assert_eq!(first_run(&d).len(), 12);
        assert_eq!(d.modified_blocks(), 3);
    }

    #[test]
    fn base_offset_is_added_to_run_offsets() {
        let twin = vec![0u8; 16];
        let mut cur = twin.clone();
        cur[0..4].fill(1);
        let d = Diff::from_compare(&twin, &cur, 4096, BlockGranularity::Word);
        assert_eq!(first_run(&d).offset, 4096);
        let mut target = vec![0u8; 4096 + 16];
        d.apply(&mut target);
        assert_eq!(&target[4096..4100], &[1, 1, 1, 1]);
    }

    #[test]
    fn from_blocks_matches_explicit_dirty_set() {
        let mut cur = vec![0u8; 32];
        cur[8..12].fill(5);
        cur[12..16].fill(6);
        cur[24..28].fill(7);
        // Blocks 2,3 and 6 marked dirty; block 5 dirty but unchanged in value
        // (instrumentation reports it anyway).
        let d = Diff::from_blocks(&cur, 0, [2usize, 3, 5, 6], BlockGranularity::Word);
        assert_eq!(d.modified_blocks(), 4);
        assert_eq!(d.runs().len(), 2); // [8..16], [20..28]
        let mut target = vec![0u8; 32];
        d.apply(&mut target);
        assert_eq!(target, cur);
    }

    #[test]
    fn from_blocks_tolerates_duplicates_and_ignores_out_of_range() {
        let cur = vec![7u8; 16];
        let d = Diff::from_blocks(&cur, 0, [1usize, 1, 2, 9, 12], BlockGranularity::Word);
        assert_eq!(d.runs().len(), 1);
        assert_eq!(first_run(&d).offset, 4);
        assert_eq!(first_run(&d).len(), 8);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn from_blocks_rejects_unsorted_indices() {
        let cur = vec![0u8; 32];
        let _ = Diff::from_blocks(&cur, 0, [3usize, 1], BlockGranularity::Word);
    }

    #[test]
    fn from_block_runs_matches_from_blocks() {
        let mut cur = vec![0u8; 64];
        cur[4..20].fill(3);
        cur[40..44].fill(4);
        let a = Diff::from_blocks(&cur, 16, [1usize, 2, 3, 4, 10], BlockGranularity::Word);
        let b = Diff::from_block_runs(
            &cur,
            16,
            [(1usize, 4usize), (10, 1)],
            BlockGranularity::Word,
        );
        assert_eq!(a, b);
        // A run past the end is clamped; an empty run is dropped.
        let c = Diff::from_block_runs(
            &cur,
            16,
            [(1usize, 4usize), (10, 1), (16, 4)],
            BlockGranularity::Word,
        );
        assert_eq!(b, c);
    }

    #[test]
    fn double_word_granularity_coarsens() {
        let twin = vec![0u8; 32];
        let mut cur = twin.clone();
        cur[4..8].fill(3); // one word touched -> whole double-word included
        let d = Diff::from_compare(&twin, &cur, 0, BlockGranularity::DoubleWord);
        assert_eq!(d.runs().len(), 1);
        assert_eq!(first_run(&d).offset, 0);
        assert_eq!(first_run(&d).len(), 8);
    }

    #[test]
    fn tail_shorter_than_block_is_handled() {
        let twin = vec![0u8; 10];
        let mut cur = twin.clone();
        cur[9] = 1;
        let d = word_diff(&twin, &cur);
        assert_eq!(d.runs().len(), 1);
        assert_eq!(first_run(&d).offset, 8);
        assert_eq!(first_run(&d).len(), 2);
        let mut target = vec![0u8; 10];
        d.apply(&mut target);
        assert_eq!(target, cur);
    }

    #[test]
    fn blocks_iterator_yields_absolute_block_indices() {
        let twin = vec![0u8; 32];
        let mut cur = twin.clone();
        cur[8..16].fill(1);
        let d = Diff::from_compare(&twin, &cur, 64, BlockGranularity::Word);
        let blocks: Vec<usize> = d.blocks().map(|(b, _)| b).collect();
        assert_eq!(blocks, vec![18, 19]); // (64 + 8)/4 and (64 + 12)/4
    }

    #[test]
    fn encoded_size_includes_run_headers() {
        let twin = vec![0u8; 64];
        let mut cur = twin.clone();
        cur[0..4].fill(1);
        cur[32..36].fill(2);
        let d = word_diff(&twin, &cur);
        assert_eq!(d.encoded_size(), 8 + 2 * RUN_HEADER_BYTES);
    }

    #[test]
    fn clones_share_the_payload() {
        let twin = vec![0u8; 64];
        let mut cur = twin.clone();
        cur[0..12].fill(9);
        let d = word_diff(&twin, &cur);
        let d2 = d.clone();
        assert!(Arc::ptr_eq(&d.body, &d2.body));
        assert_eq!(d, d2);
    }

    #[test]
    fn chunked_compare_matches_reference_on_edge_shapes() {
        // Lengths around the 8-byte chunk boundary, with changes at the edges.
        for len in [0usize, 1, 3, 4, 7, 8, 9, 12, 15, 16, 17, 23, 24] {
            for flip in 0..len {
                let twin = vec![0u8; len];
                let mut cur = twin.clone();
                cur[flip] ^= 0x80;
                for gran in [BlockGranularity::Word, BlockGranularity::DoubleWord] {
                    let fast = Diff::from_compare(&twin, &cur, 32, gran);
                    let slow = Diff::from_compare_reference(&twin, &cur, 32, gran);
                    assert_eq!(fast, slow, "len {len} flip {flip} gran {gran}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "same size")]
    fn mismatched_lengths_panic() {
        let _ = Diff::from_compare(&[0u8; 8], &[0u8; 12], 0, BlockGranularity::Word);
    }

    #[test]
    fn changed_word_runs_matches_word_walk() {
        let mut rng = crate::testutil::TestRng::new(77);
        for _ in 0..256 {
            let len = rng.in_range(1, 120);
            let twin = rng.bytes(len);
            let mut cur = twin.clone();
            for _ in 0..rng.below(12) {
                let p = rng.below(len);
                cur[p] = rng.byte();
            }
            let nwords = len.div_ceil(4);
            let w0 = rng.below(nwords + 1);
            let w1 = w0 + rng.below(nwords + 1 - w0);
            // Reference: word-by-word comparison over the same range.
            let mut expect = Vec::new();
            let mut open: Option<usize> = None;
            for w in w0..w1 {
                let sb = (w * 4).min(len);
                let eb = (sb + 4).min(len);
                if twin[sb..eb] != cur[sb..eb] {
                    open.get_or_insert(w);
                } else if let Some(s) = open.take() {
                    expect.push((s, w));
                }
            }
            if let Some(s) = open {
                expect.push((s, w1));
            }
            let mut got = Vec::new();
            changed_word_runs(&twin, &cur, w0..w1, |s, e| got.push((s, e)));
            assert_eq!(got, expect, "len {len} words {w0}..{w1}");
        }
    }
}
