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
//! frame and whose size the recovery bench reports: word-granular
//! changed-run deltas against the node's previous checkpoint, encoded with
//! the same flat-payload codec the data plane already uses
//! ([`encode_flat_update`](crate::wire::encode_flat_update) — no serde tree
//! walk).
//!
//! # Image layout (all integers little-endian)
//!
//! | Field        | Layout                                                    |
//! |--------------|-----------------------------------------------------------|
//! | header       | `u32 node` · `u64 barriers` · `u64 epoch` · `u64 time_ns` |
//! | vector clock | `u32 n` · `n × u32 entry`                                 |
//! | regions      | `u32 nregions` · per region: flat-update record · `u32 payload_len` · payload |
//! | lock table   | `u32 nlocks` · `nlocks × u32 lock`                        |
//!
//! The per-region run table is a [`FlatUpdate`] whose runs are *word*
//! indices stamped with the cut's barrier count; the payload carries each
//! run's bytes back to back.  A clean barrier cut has an empty lock table —
//! it is present so the image format can describe mid-critical-section cuts
//! if a future protocol needs them.
//!
//! Malformed input decodes to `None`: truncations, overstated run counts,
//! payload/run-table length mismatches and unsorted runs are all rejected,
//! matching the rest of the wire codec.

use crate::wire::{
    decode_flat_update, decode_vclock, encode_flat_update, encode_vclock, MAX_WIRE_MSG,
};
use crate::{changed_word_runs, VectorClock};

/// One run of a [`FlatUpdate`]: `len` consecutive word blocks from `start`,
/// all carrying `stamp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlatRun {
    /// First block index of the run.
    pub start: usize,
    /// Number of consecutive blocks in the run.
    pub len: usize,
    /// The stamp every block of the run carries.
    pub stamp: u64,
}

/// A checkpoint image's run table: the stamped word runs of one region's
/// delta, in increasing block order.  It carries no bytes; the image's
/// payload holds each run's words back to back.
///
/// ```
/// use dsm_mem::{FlatRun, FlatUpdate};
///
/// let table = FlatUpdate::from_runs(vec![FlatRun { start: 2, len: 3, stamp: 1 }]);
/// assert_eq!(table.runs()[0].start + table.runs()[0].len, 5);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlatUpdate {
    runs: Vec<FlatRun>,
}

impl FlatUpdate {
    /// A run table over `runs`, which must be in increasing block order.
    pub fn from_runs(runs: Vec<FlatRun>) -> Self {
        FlatUpdate { runs }
    }

    /// The runs, in increasing block order.
    pub fn runs(&self) -> &[FlatRun] {
        &self.runs
    }
}

/// One region's contribution to a checkpoint image: the word runs that
/// changed since the node's previous checkpoint, plus their bytes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CkptRegion {
    /// Changed word runs (run starts/lengths are word indices), every run
    /// stamped with the cut's barrier count.
    pub update: FlatUpdate,
    /// Each run's bytes, back to back in run order.
    pub payload: Vec<u8>,
}

impl CkptRegion {
    /// Builds the delta of one region against its previous checkpoint copy,
    /// stamping every run `stamp` (the cut's barrier count).
    ///
    /// # Panics
    ///
    /// Panics if the copies differ in length or are not word-granular —
    /// every region in this system is, and a silent ragged tail would make
    /// the image lossy.
    pub fn delta(prev: &[u8], cur: &[u8], stamp: u64) -> CkptRegion {
        assert_eq!(prev.len(), cur.len(), "checkpoint copies must match");
        assert_eq!(cur.len() % 4, 0, "regions are word-granular");
        let mut runs = Vec::new();
        changed_word_runs(prev, cur, 0..cur.len() / 4, |start, end| {
            runs.push(FlatRun {
                start,
                len: end - start,
                stamp,
            })
        });
        let mut payload = Vec::with_capacity(runs.iter().map(|r| r.len * 4).sum());
        for r in &runs {
            payload.extend_from_slice(&cur[r.start * 4..(r.start + r.len) * 4]);
        }
        CkptRegion {
            update: FlatUpdate::from_runs(runs),
            payload,
        }
    }

    /// Number of words the delta covers.
    pub fn words(&self) -> usize {
        self.payload.len() / 4
    }

    /// Copies the delta into a region-sized buffer (the previous checkpoint
    /// copy), reconstructing the checkpointed contents.  Returns `false`,
    /// leaving a suffix unapplied, if a run falls outside the buffer.
    pub fn apply_to(&self, target: &mut [u8]) -> bool {
        let mut pos = 0usize;
        for r in self.update.runs() {
            let (start, len) = (r.start * 4, r.len * 4);
            let Some(dst) = target.get_mut(start..start + len) else {
                return false;
            };
            dst.copy_from_slice(&self.payload[pos..pos + len]);
            pos += len;
        }
        true
    }
}

/// One node's checkpoint image: the barrier cut's identity (node, barrier
/// count, epoch, simulated time), the node's vector clock at the cut, the
/// per-region changed-run deltas and the (normally empty) held-lock table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CkptImage {
    /// The checkpointing node.
    pub node: u32,
    /// Barriers the node had completed at the cut (cut index; doubles as the
    /// run stamp of every delta run).
    pub barriers: u64,
    /// The node's interval/epoch counter at the cut.
    pub epoch: u64,
    /// The node's simulated clock at the cut, in nanoseconds.
    pub time_ns: u64,
    /// The node's vector clock at the cut.
    pub clock: VectorClock,
    /// Per-region deltas against the node's previous checkpoint, in region
    /// index order (one entry per region, empty delta if unchanged).
    pub regions: Vec<CkptRegion>,
    /// Locks held across the cut (empty at a clean barrier cut).
    pub locks: Vec<u32>,
}

fn get_u32(buf: &[u8], at: &mut usize) -> Option<u32> {
    let end = at.checked_add(4)?;
    let v = u32::from_le_bytes(buf.get(*at..end)?.try_into().expect("4 bytes"));
    *at = end;
    Some(v)
}

fn get_u64(buf: &[u8], at: &mut usize) -> Option<u64> {
    let end = at.checked_add(8)?;
    let v = u64::from_le_bytes(buf.get(*at..end)?.try_into().expect("8 bytes"));
    *at = end;
    Some(v)
}

impl CkptImage {
    /// Appends the encoded image to `out` (see the module docs for the
    /// layout).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.node.to_le_bytes());
        out.extend_from_slice(&self.barriers.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.time_ns.to_le_bytes());
        encode_vclock(&self.clock, out);
        out.extend_from_slice(&(self.regions.len() as u32).to_le_bytes());
        for r in &self.regions {
            encode_flat_update(&r.update, out);
            out.extend_from_slice(&(r.payload.len() as u32).to_le_bytes());
            out.extend_from_slice(&r.payload);
        }
        out.extend_from_slice(&(self.locks.len() as u32).to_le_bytes());
        for &l in &self.locks {
            out.extend_from_slice(&l.to_le_bytes());
        }
    }

    /// Decodes an image; the buffer must contain exactly one record.
    /// Malformed input — truncation, trailing garbage, run/payload length
    /// mismatches, unsorted or overlapping runs — returns `None`.
    pub fn decode(buf: &[u8]) -> Option<CkptImage> {
        let mut at = 0usize;
        let node = get_u32(buf, &mut at)?;
        let barriers = get_u64(buf, &mut at)?;
        let epoch = get_u64(buf, &mut at)?;
        let time_ns = get_u64(buf, &mut at)?;
        let (clock, used) = decode_vclock(buf.get(at..)?)?;
        at += used;
        let nregions = get_u32(buf, &mut at)? as usize;
        if nregions > MAX_WIRE_MSG / 8 {
            return None;
        }
        let mut regions = Vec::with_capacity(nregions);
        for _ in 0..nregions {
            let (update, used) = decode_flat_update(buf.get(at..)?)?;
            at += used;
            let plen = get_u32(buf, &mut at)? as usize;
            let end = at.checked_add(plen)?;
            let payload = buf.get(at..end)?.to_vec();
            at = end;
            let mut words = 0usize;
            let mut prev_end = 0usize;
            for r in update.runs() {
                if r.len == 0 || r.start < prev_end {
                    return None;
                }
                prev_end = r.start.checked_add(r.len)?;
                words = words.checked_add(r.len)?;
            }
            if words.checked_mul(4)? != plen {
                return None;
            }
            regions.push(CkptRegion { update, payload });
        }
        let nlocks = get_u32(buf, &mut at)? as usize;
        if nlocks > MAX_WIRE_MSG / 4 {
            return None;
        }
        let mut locks = Vec::with_capacity(nlocks);
        for _ in 0..nlocks {
            locks.push(get_u32(buf, &mut at)?);
        }
        if at != buf.len() {
            return None;
        }
        Some(CkptImage {
            node,
            barriers,
            epoch,
            time_ns,
            clock,
            regions,
            locks,
        })
    }

    /// Length of the encoded image in bytes — what the recovery bench
    /// reports as the per-checkpoint wire cost.
    pub fn encoded_len(&self) -> usize {
        let mut n = 4 + 8 + 8 + 8; // header
        n += 4 + self.clock.len() * 4; // vector clock
        n += 4; // nregions
        for r in &self.regions {
            n += 4 + r.update.runs().len() * 16 + 4 + r.payload.len();
        }
        n + 4 + self.locks.len() * 4
    }

    /// Total words of region data the image carries.
    pub fn words(&self) -> usize {
        self.regions.iter().map(CkptRegion::words).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_sim::NodeId;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn sample_image(seed: &mut u64) -> (CkptImage, Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let nregions = 1 + (xorshift(seed) % 3) as usize;
        let mut prevs = Vec::new();
        let mut curs = Vec::new();
        let mut image = CkptImage {
            node: (xorshift(seed) % 8) as u32,
            barriers: xorshift(seed) % 100,
            epoch: xorshift(seed) % 100,
            time_ns: xorshift(seed),
            clock: {
                let mut c = VectorClock::new(4);
                for i in 0..4 {
                    c.set_entry(NodeId::new(i), (xorshift(seed) % 50) as u32);
                }
                c
            },
            regions: Vec::new(),
            locks: (0..xorshift(seed) % 3).map(|i| i as u32).collect(),
        };
        for _ in 0..nregions {
            let words = 4 + (xorshift(seed) % 64) as usize;
            let prev: Vec<u8> = (0..words * 4).map(|_| xorshift(seed) as u8).collect();
            let mut cur = prev.clone();
            for _ in 0..xorshift(seed) % 20 {
                let w = (xorshift(seed) as usize) % words;
                cur[w * 4..w * 4 + 4].copy_from_slice(&(xorshift(seed) as u32).to_le_bytes());
            }
            image
                .regions
                .push(CkptRegion::delta(&prev, &cur, image.barriers));
            prevs.push(prev);
            curs.push(cur);
        }
        (image, prevs, curs)
    }

    #[test]
    fn image_round_trip_reconstructs_contents_seeded_property() {
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        for case in 0..128 {
            let (image, prevs, curs) = sample_image(&mut seed);
            let mut buf = Vec::new();
            image.encode_into(&mut buf);
            assert_eq!(buf.len(), image.encoded_len(), "case {case}: length");
            let back = CkptImage::decode(&buf).expect("round trip");
            assert_eq!(back, image, "case {case}");
            // Applying the delta to the previous copy reconstructs the cut.
            for (ridx, prev) in prevs.iter().enumerate() {
                let mut target = prev.clone();
                assert!(back.regions[ridx].apply_to(&mut target));
                assert_eq!(target, curs[ridx], "case {case} region {ridx}");
            }
            // Every truncation of the image is rejected.
            let cut = (xorshift(&mut seed) as usize) % buf.len();
            assert!(
                CkptImage::decode(&buf[..cut]).is_none(),
                "case {case}: truncation at {cut} rejected"
            );
            // As is trailing garbage.
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
        let image = CkptImage {
            regions: vec![CkptRegion::delta(&prev, &cur, 3)],
            clock: VectorClock::new(2),
            ..CkptImage::default()
        };
        let mut buf = Vec::new();
        image.encode_into(&mut buf);
        assert!(CkptImage::decode(&buf).is_some());
        // Shrink the payload length field without shrinking the run table:
        // the words/payload cross-check must fire.
        let plen_at = buf.len() - 4 /* nlocks */ - 4 /* payload */ - 4;
        buf[plen_at..plen_at + 4].copy_from_slice(&0u32.to_le_bytes());
        assert!(CkptImage::decode(&buf).is_none(), "payload mismatch");
    }

    #[test]
    fn empty_delta_is_compact() {
        let data = vec![7u8; 64];
        let r = CkptRegion::delta(&data, &data, 1);
        assert!(r.update.runs().is_empty());
        assert_eq!(r.words(), 0);
    }

    #[test]
    fn apply_rejects_out_of_range_runs() {
        let prev = vec![0u8; 16];
        let mut cur = prev.clone();
        cur[12..16].fill(1);
        let r = CkptRegion::delta(&prev, &cur, 1);
        let mut short = vec![0u8; 8];
        assert!(!r.apply_to(&mut short));
    }
}
