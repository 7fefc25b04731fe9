//! Checkpoint images: the serialized form of one node's barrier-cut snapshot.
//!
//! The recovery subsystem (`dsm-core`) snapshots every node at barrier
//! boundaries.  Barriers are the natural consistent cut for this protocol
//! family: all dirty pages have been published (or deliberately retained,
//! under EC's lock-scoped publishes), no locks are held by a well-formed
//! program, and the vector clocks of all nodes are mutually reconciled by
//! the rendezvous.  The in-memory snapshot keeps full region copies (restore
//! is a `memcpy`); *this* module defines the compact image that travels to
//! the transport replicas as a [`WireMsgKind::Ckpt`](crate::wire::WireMsgKind)
//! message and whose size the recovery bench reports.
//!
//! An image carries a node's changed words since its previous cut, which is
//! the shape of a publish.  So its regions travel as a batch body of v2
//! frames, one per region, and decode through the [`BatchReader`] that every
//! publish batch goes through.
//!
//! # Image layout
//!
//! | Field   | Layout                                                           |
//! |---------|------------------------------------------------------------------|
//! | header  | varints: `node` · `barriers` · `epoch` · `time_ns`               |
//! | clock   | the node's vector clock as one full-mode [`CompactClock`] record |
//! | regions | batch body: `u32 nregions` · `nregions × (varint len, frame v2)` |
//!
//! Frame `i` is region `i`'s delta against the node's previous cut: its runs
//! are the word runs that changed ([`changed_word_runs`]) as byte ranges, its
//! `seq` is the cut's barrier count, and its clock is empty, as an EC
//! publish's is.
//!
//! Malformed input decodes to `None`, as everywhere in the wire codec.

use crate::cclock::{get_varint, put_varint, CompactClock};
use crate::wire::{encode_frame_v2, BatchReader, FrameV2, WireFrame};
use crate::{changed_word_runs, BufferPool};

/// The header of one node's checkpoint image: the barrier cut's identity
/// (node, barrier count, epoch, simulated time) and the node's vector clock
/// at the cut.  The region deltas that follow it are built by
/// [`CkptImage::encode`] and come back from [`CkptImage::decode`] as frames.
///
/// ```
/// use dsm_mem::CkptImage;
///
/// let image = CkptImage { node: 1, barriers: 3, clock: vec![2, 5], ..CkptImage::default() };
/// let (prev, cur) = (vec![0u8; 16], vec![0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0]);
/// let mut bytes = Vec::new();
/// assert_eq!(image.encode([(&prev[..], &cur[..])].into_iter(), &mut bytes), 2);
///
/// let (back, frames) = CkptImage::decode(&bytes).unwrap();
/// assert_eq!(back, image);
/// let mut copy = prev.clone();
/// assert!(frames[0].apply(&mut copy));
/// assert_eq!(copy, cur);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CkptImage {
    /// The checkpointing node.
    pub node: u32,
    /// Barriers the node had completed at the cut: the cut's index, and the
    /// `seq` of every region frame.
    pub barriers: u64,
    /// The node's interval/epoch counter at the cut.
    pub epoch: u64,
    /// The node's simulated clock at the cut, in nanoseconds.
    pub time_ns: u64,
    /// The node's vector-clock entries at the cut.
    pub clock: Vec<u32>,
}

impl CkptImage {
    /// Appends the image to `out`: this header, then one frame per
    /// `(prev, cur)` pair of region copies, carrying the words of `cur` that
    /// differ from `prev`.  Returns the number of words the frames carry.
    ///
    /// # Panics
    ///
    /// Panics if a pair's copies differ in length or are not word-granular —
    /// every region in this system is, and a silent ragged tail would make
    /// the image lossy.
    pub fn encode<'r>(
        &self,
        regions: impl ExactSizeIterator<Item = (&'r [u8], &'r [u8])>,
        out: &mut Vec<u8>,
    ) -> usize {
        for v in [self.node as u64, self.barriers, self.epoch, self.time_ns] {
            put_varint(out, v);
        }
        let mut codec = CompactClock::new();
        codec.encode_next(&self.clock, true, out);
        out.extend_from_slice(&(regions.len() as u32).to_le_bytes());
        let (mut runs, mut frame, mut words) = (Vec::new(), Vec::new(), 0);
        for (region, (prev, cur)) in regions.enumerate() {
            assert_eq!(prev.len(), cur.len(), "checkpoint copies must match");
            assert_eq!(cur.len() % 4, 0, "regions are word-granular");
            runs.clear();
            changed_word_runs(prev, cur, 0..cur.len() / 4, |start, end| {
                runs.push(((start * 4) as u32, ((end - start) * 4) as u32));
                words += end - start;
            });
            frame.clear();
            let f = FrameV2 {
                region: region as u32,
                seq: self.barriers,
                clock: &[],
                full: true,
                runs: &runs,
                data: cur,
            };
            encode_frame_v2(&f, &mut codec, &mut frame);
            put_varint(out, frame.len() as u64);
            out.extend_from_slice(&frame);
        }
        words
    }

    /// Decodes an image; the buffer must hold exactly one.  Returns the
    /// header and one frame per region, in region order: applying frame `i`
    /// ([`WireFrame::apply`]) to region `i`'s copy at the previous cut
    /// rebuilds its copy at this one.
    ///
    /// Beyond what [`BatchReader`] refuses, a frame out of region order, one
    /// whose `seq` is not the cut's barrier count, one with a non-empty
    /// clock, and trailing bytes all return `None`.
    pub fn decode(buf: &[u8]) -> Option<(CkptImage, Vec<WireFrame>)> {
        let mut at = 0usize;
        let mut next = || -> Option<u64> {
            let (v, n) = get_varint(buf.get(at..)?)?;
            at += n;
            Some(v)
        };
        let node = u32::try_from(next()?).ok()?;
        let (barriers, epoch, time_ns) = (next()?, next()?, next()?);
        let mut codec = CompactClock::new();
        at += codec.decode_next(buf.get(at..)?, true)?;
        let clock = codec.baseline().to_vec();
        let mut reader = BatchReader::new(buf.get(at..)?)?;
        let (mut pool, mut frames) = (BufferPool::new(), Vec::new());
        while reader.remaining() > 0 {
            let f = reader.next(&mut codec, &mut pool)?;
            let in_place = f.region as usize == frames.len() && f.seq == barriers;
            if !in_place || !codec.baseline().is_empty() {
                return None;
            }
            frames.push(f);
        }
        let image = CkptImage {
            node,
            barriers,
            epoch,
            time_ns,
            clock,
        };
        reader.finished().then_some((image, frames))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TestRng;

    /// A random image header and `prev`/`cur` copies of 1–3 regions, each
    /// `cur` a few words off its `prev`.
    fn sample_image(rng: &mut TestRng) -> (CkptImage, Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let image = CkptImage {
            node: rng.below(8) as u32,
            barriers: rng.below(100) as u64,
            epoch: rng.below(100) as u64,
            time_ns: rng.next_u64(),
            clock: (0..rng.below(6)).map(|_| rng.below(50) as u32).collect(),
        };
        let (mut prevs, mut curs) = (Vec::new(), Vec::new());
        for _ in 0..rng.in_range(1, 4) {
            let words = rng.in_range(4, 68);
            let prev = rng.bytes(words * 4);
            let mut cur = prev.clone();
            for _ in 0..rng.below(20) {
                let w = rng.below(words);
                cur[w * 4..w * 4 + 4].copy_from_slice(&(rng.next_u64() as u32).to_le_bytes());
            }
            prevs.push(prev);
            curs.push(cur);
        }
        (image, prevs, curs)
    }

    fn encode(image: &CkptImage, prevs: &[Vec<u8>], curs: &[Vec<u8>]) -> (Vec<u8>, usize) {
        let mut buf = Vec::new();
        let pairs = prevs.iter().zip(curs).map(|(p, c)| (&p[..], &c[..]));
        let words = image.encode(pairs, &mut buf);
        (buf, words)
    }

    #[test]
    fn image_round_trip_reconstructs_contents_seeded_property() {
        let mut rng = TestRng::new(0x2545_f491_4f6c_dd1d);
        for case in 0..128 {
            let (image, prevs, curs) = sample_image(&mut rng);
            let (buf, words) = encode(&image, &prevs, &curs);
            let (back, frames) = CkptImage::decode(&buf).expect("round trip");
            assert_eq!(back, image, "case {case}: header and clock");
            assert_eq!(
                frames.len(),
                prevs.len(),
                "case {case}: one frame per region"
            );
            // Applying each frame to the previous copy rebuilds the cut.
            let mut carried = 0;
            for (ridx, frame) in frames.iter().enumerate() {
                let mut target = prevs[ridx].clone();
                assert!(frame.apply(&mut target));
                assert_eq!(target, curs[ridx], "case {case} region {ridx}");
                carried += frame.payload.len() / 4;
            }
            assert_eq!(carried, words, "case {case}: words carried");
            for cut in 0..buf.len() {
                assert!(
                    CkptImage::decode(&buf[..cut]).is_none(),
                    "case {case}: truncation at {cut} refused"
                );
            }
            let mut long = buf.clone();
            long.push(0);
            assert!(CkptImage::decode(&long).is_none(), "case {case}: trailing");
        }
    }

    #[test]
    fn decode_rejects_inconsistent_run_tables() {
        let prev = vec![0u8; 32];
        let mut cur = prev.clone();
        cur[4..8].fill(9);
        let (mut buf, words) = encode(&CkptImage::default(), &[prev], &[cur]);
        assert_eq!(words, 1);
        assert!(CkptImage::decode(&buf).is_some());
        // The frame's last two bytes are its one run's length (4) and
        // payload; claiming a 5-byte run leaves the payload one byte short.
        let len_at = buf.len() - 4 - 1;
        assert_eq!(buf[len_at], 4);
        buf[len_at] = 5;
        assert!(CkptImage::decode(&buf).is_none(), "payload mismatch");
    }

    #[test]
    fn empty_delta_is_compact() {
        let data = vec![vec![7u8; 64], vec![1u8; 4096]];
        let image = CkptImage {
            clock: vec![3, 3, 3, 3],
            ..CkptImage::default()
        };
        let (buf, words) = encode(&image, &data, &data);
        assert_eq!(words, 0);
        let (_, frames) = CkptImage::decode(&buf).expect("decodes");
        assert!(frames.iter().all(|f| f.runs.is_empty()));
        // Header 4, clock 5 (length, one run), count 4, and per frame a
        // length byte and 6 bytes: region, seq, mode, clock, nruns.
        assert_eq!(buf.len(), 4 + 5 + 4 + 2 * (1 + 6));
    }

    #[test]
    fn zero_region_image_keeps_its_clock() {
        let image = CkptImage {
            node: 3,
            barriers: 9,
            epoch: 4,
            time_ns: 1 << 40,
            clock: vec![0, 7, 7, 1],
        };
        let (buf, words) = encode(&image, &[], &[]);
        assert_eq!(words, 0);
        assert_eq!(CkptImage::decode(&buf), Some((image, Vec::new())));
    }

    #[test]
    fn frames_must_carry_the_cut_and_region_order() {
        let image = CkptImage {
            barriers: 5,
            ..CkptImage::default()
        };
        let regions = vec![vec![0u8; 8], vec![0u8; 8]];
        let (buf, _) = encode(&image, &regions, &regions);
        assert!(CkptImage::decode(&buf).is_some());
        // Header: node 0, barriers 5, epoch 0, time 0; then the clock record
        // (two bytes), the frame count, and frame 0's length byte, region
        // and seq.
        let (region0_at, seq0_at) = (4 + 2 + 4 + 1, 4 + 2 + 4 + 2);
        assert_eq!((buf[1], buf[region0_at], buf[seq0_at]), (5, 0, 5));
        let mut other_cut = buf.clone();
        other_cut[seq0_at] = 4;
        assert!(
            CkptImage::decode(&other_cut).is_none(),
            "seq is not the cut"
        );
        let mut reordered = buf.clone();
        reordered[region0_at] = 1;
        assert!(
            CkptImage::decode(&reordered).is_none(),
            "region out of order"
        );
    }

    #[test]
    fn corrupt_images_never_panic() {
        let mut rng = TestRng::new(0x51a7_c0de);
        for case in 0..64 {
            let (image, prevs, curs) = sample_image(&mut rng);
            let (buf, _) = encode(&image, &prevs, &curs);
            for _ in 0..64 {
                let mut bad = buf.clone();
                for _ in 0..rng.in_range(1, 4) {
                    let at = rng.below(bad.len());
                    bad[at] = rng.next_u64() as u8;
                }
                // Refused or decoded, never a panic; what decodes applies
                // safely, refusing runs past a region's end.
                if let Some((_, frames)) = CkptImage::decode(&bad) {
                    for f in &frames {
                        let _ = f.apply(&mut [0u8; 64]);
                    }
                }
            }
            assert!(CkptImage::decode(&buf).is_some(), "case {case}");
        }
    }
}
