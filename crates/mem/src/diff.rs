//! The two word-run scans every write in this system travels through.
//!
//! A release publishes a write as *stamped word runs*: the changed words go
//! into the region's master copy and each one gets the stamp of the publish
//! that wrote it (an EC publish sequence number or a packed LRC
//! `(processor, interval)` pair).  The acquire or access miss that consumes
//! the write reads it back out of the same stamp array.  Two scans cover both
//! ends:
//!
//! * [`changed_word_runs`] finds what a twinning release publishes: the
//!   maximal runs of words that differ between a page (or object) and its
//!   twin.  It skips every 256-byte block equal to the twin with one slice
//!   comparison, so a release pays for the words it changed, not for every
//!   word it twinned.
//! * [`same_stamp_runs`] finds what a grant or miss may apply: the maximal
//!   runs of words that share one stamp, so the apply decision is made once
//!   per run and each applied run is one copy.
//!
//! The paper's two collection schemes (§5) are charged from the counts these
//! scans produce — changed words and runs for a run-length diff, applied
//! words and same-stamp runs for a timestamp reply — so no separate diff
//! object is ever built.  Those counts are logical: a caller charges every
//! word it asked the scan to compare, whatever the scan skipped.

use std::ops::Range;

/// Calls `f(start_word, end_word)` for every maximal run of changed 4-byte
/// words in `words`, comparing `current` against `twin` (equal-length
/// slices; a trailing word may be shorter than 4 bytes).
///
/// This is the write-collection scan of the twinning implementations.  Its
/// host cost follows what changed, not what was twinned: each block of 64
/// words (256 bytes) is first compared with one slice comparison and
/// skipped whole when equal; only a differing block is walked eight bytes
/// (two words) at a time, and only a differing eight-byte chunk is refined
/// to word granularity.  The runs delivered are exactly the maximal runs a
/// word-by-word comparison would find, runs that cross a block edge
/// included.
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
    words: Range<usize>,
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
        let block_end = (w + SCAN_BLOCK_WORDS).min(words.end);
        let bytes = (w * 4).min(len)..(block_end * 4).min(len);
        let (t, c) = (&twin[bytes.clone()], &current[bytes]);
        if t == c {
            if let Some(s) = open.take() {
                f(s, w);
            }
            w = block_end;
            continue;
        }
        // A differing block: walk it eight bytes (two words) at a time, then
        // word by word through a tail shorter than a chunk.  `open` carries a
        // run across the block edges, so one crossing them is delivered once.
        for (t, c) in t.chunks_exact(8).zip(c.chunks_exact(8)) {
            let t = u64::from_le_bytes(t.try_into().expect("8-byte chunk"));
            let c = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            let x = t ^ c;
            if x == 0 {
                if let Some(s) = open.take() {
                    f(s, w);
                }
            } else {
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
            }
            w += 2;
        }
        while w < block_end {
            let sb = (w * 4).min(len);
            let eb = (sb + 4).min(len);
            if twin[sb..eb] != current[sb..eb] {
                open.get_or_insert(w);
            } else if let Some(s) = open.take() {
                f(s, w);
            }
            w += 1;
        }
    }
    if let Some(s) = open.take() {
        f(s, words.end);
    }
}

/// Words per block of `changed_word_runs`'s skip test (256 bytes): a KV
/// slot or a few matrix elements changed on a 4 KiB page leave all but one
/// or two of the page's sixteen blocks equal to the twin.
const SCAN_BLOCK_WORDS: usize = 64;

/// Calls `f(start, end, stamp)` for every maximal run of equal stamps in
/// `stamps[blocks]`, in increasing order.  Indices are positions in
/// `stamps`.  Every block of the range is covered by exactly one run, the
/// never-published stamp 0 included; adjacent runs never share a stamp.
///
/// ```
/// use dsm_mem::same_stamp_runs;
///
/// let stamps = [0, 7, 7, 7, 9, 0, 9];
/// let mut runs = Vec::new();
/// same_stamp_runs(&stamps, 1..7, |s, e, stamp| runs.push((s, e, stamp)));
/// assert_eq!(runs, vec![(1, 4, 7), (4, 5, 9), (5, 6, 0), (6, 7, 9)]);
/// ```
///
/// # Panics
///
/// Panics if `blocks` reaches past the end of `stamps`.
pub fn same_stamp_runs(stamps: &[u64], blocks: Range<usize>, mut f: impl FnMut(usize, usize, u64)) {
    let base = blocks.start;
    let stamps = &stamps[blocks];
    let mut i = 0;
    while i < stamps.len() {
        let (start, stamp) = (i, stamps[i]);
        i += 1;
        while i < stamps.len() && stamps[i] == stamp {
            i += 1;
        }
        f(base + start, base + i, stamp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The word-by-word comparison `changed_word_runs` must agree with.
    fn word_walk(twin: &[u8], cur: &[u8], words: Range<usize>) -> Vec<(usize, usize)> {
        let len = cur.len();
        let mut runs = Vec::new();
        let mut open: Option<usize> = None;
        for w in words.clone() {
            let sb = (w * 4).min(len);
            let eb = (sb + 4).min(len);
            if twin[sb..eb] != cur[sb..eb] {
                open.get_or_insert(w);
            } else if let Some(s) = open.take() {
                runs.push((s, w));
            }
        }
        if let Some(s) = open {
            runs.push((s, words.end));
        }
        runs
    }

    fn scan(twin: &[u8], cur: &[u8], words: Range<usize>) -> Vec<(usize, usize)> {
        let mut runs = Vec::new();
        changed_word_runs(twin, cur, words, |s, e| runs.push((s, e)));
        runs
    }

    #[test]
    fn identical_data_gives_empty_diff() {
        let data = vec![42u8; 128];
        assert!(scan(&data, &data, 0..32).is_empty());
    }

    #[test]
    fn adjacent_changes_coalesce_into_one_run() {
        let twin = vec![0u8; 64];
        let mut cur = twin.clone();
        cur[16..28].fill(9);
        assert_eq!(scan(&twin, &cur, 0..16), vec![(4, 7)]);
    }

    #[test]
    fn tail_shorter_than_block_is_handled() {
        let twin = vec![0u8; 10];
        let mut cur = twin.clone();
        cur[9] = 1;
        // Word 2 is the two-byte tail.
        assert_eq!(scan(&twin, &cur, 0..3), vec![(2, 3)]);
    }

    #[test]
    fn chunked_compare_matches_reference_on_edge_shapes() {
        // Lengths around the 8-byte chunk and around one and two 256-byte
        // skip blocks, with a one-byte and a nine-byte change starting at
        // every byte (the nine-byte one crosses chunk and block edges).  Up
        // to 24 bytes every word range is tried; longer lengths try every
        // range whose ends lie on, just before or just after a block edge,
        // at the ends of the data or mid-block.
        for len in [
            0usize, 1, 3, 4, 7, 8, 9, 12, 15, 16, 17, 23, 24, 250, 255, 256, 257, 262, 508, 511,
            512, 513, 518,
        ] {
            let nwords = len.div_ceil(4);
            let ends: BTreeSet<usize> = if len <= 24 {
                (0..=nwords).collect()
            } else {
                let edges = [0, 1, 2, 31, 63, 64, 65, 97, 127, 128, 129];
                edges
                    .into_iter()
                    .chain([nwords - 1, nwords])
                    .filter(|&w| w <= nwords)
                    .collect()
            };
            for flip in 0..len {
                for span in [1, 9] {
                    let twin = vec![0u8; len];
                    let mut cur = twin.clone();
                    cur[flip..(flip + span).min(len)].fill(0x80);
                    for &w0 in &ends {
                        for &w1 in ends.range(w0..) {
                            assert_eq!(
                                scan(&twin, &cur, w0..w1),
                                word_walk(&twin, &cur, w0..w1),
                                "len {len} flip {flip}+{span} words {w0}..{w1}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "same size")]
    fn mismatched_lengths_panic() {
        changed_word_runs(&[0u8; 8], &[0u8; 12], 0..2, |_, _| {});
    }

    #[test]
    fn changed_word_runs_matches_word_walk() {
        let mut rng = crate::testutil::TestRng::new(77);
        for _ in 0..512 {
            // Up to six skip blocks, changed by single bytes and by spans
            // long enough to fill or straddle a block.
            let len = rng.in_range(1, 1536);
            let twin = rng.bytes(len);
            let mut cur = twin.clone();
            for _ in 0..rng.below(12) {
                let p = rng.below(len);
                if rng.below(4) == 0 {
                    let end = (p + 1 + rng.below(600)).min(len);
                    cur[p..end].copy_from_slice(&rng.bytes(end - p));
                } else {
                    cur[p] = rng.byte();
                }
            }
            let nwords = len.div_ceil(4);
            let w0 = rng.below(nwords + 1);
            let w1 = w0 + rng.below(nwords + 1 - w0);
            assert_eq!(
                scan(&twin, &cur, w0..w1),
                word_walk(&twin, &cur, w0..w1),
                "len {len} words {w0}..{w1}"
            );
        }
    }

    #[test]
    fn same_stamp_runs_tile_the_range_with_maximal_runs() {
        let mut rng = crate::testutil::TestRng::new(91);
        for _ in 0..256 {
            let n = rng.below(80);
            // Few distinct stamps, so runs of every length occur.
            let stamps: Vec<u64> = (0..n).map(|_| rng.below(3) as u64).collect();
            let b0 = rng.below(n + 1);
            let b1 = b0 + rng.below(n + 1 - b0);
            let mut runs = Vec::new();
            same_stamp_runs(&stamps, b0..b1, |s, e, stamp| runs.push((s, e, stamp)));
            let mut at = b0;
            for (i, &(s, e, stamp)) in runs.iter().enumerate() {
                assert_eq!(s, at, "runs tile {b0}..{b1}");
                assert!(s < e);
                assert!(stamps[s..e].iter().all(|&x| x == stamp));
                if i > 0 {
                    assert_ne!(runs[i - 1].2, stamp, "adjacent runs are merged");
                }
                at = e;
            }
            assert_eq!(at, b1, "runs cover {b0}..{b1}");
        }
    }
}
