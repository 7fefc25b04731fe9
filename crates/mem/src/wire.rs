//! Length-prefixed wire codec for the transport layer.
//!
//! The simulated backend never serializes anything — messages are cost
//! accounting.  The real backends (in-process channels, sockets) move actual
//! bytes, and this module is the dependency-free codec they move them with.
//! Everything is encoded straight from the representation the data plane
//! already keeps (the engines' run tables and the regions' master copies):
//! encoding is a header write plus one payload `memcpy` per run, never a
//! tree walk.
//!
//! # Record layouts (fixed-width integers little-endian)
//!
//! | Record         | Layout                                                             |
//! |----------------|--------------------------------------------------------------------|
//! | message        | `u32 len` · `u8 kind` · `body[len-1]`                              |
//! | frame v2       | varints: `region` · `seq` · `u8 mode` · clock record · runs · payload |
//! | batch body     | `u32 nframes` · `nframes × (varint len, frame v2)`                 |
//! | [`CkptImage`](crate::CkptImage) | varints: `node` · `barriers` · `epoch` · `time_ns` · clock record · batch body |
//! | [`WireInit`]   | `u32 nprocs` · `u32 nregions` · `nregions × (u32 len, bytes)`      |
//! | [`WireReport`] | `u64 fnv` · `u64 frames` · `u64 bytes` · 3 × (`u64 count` · `u64 fnv`) for ctrl/ckpt/rollback |
//!
//! Publish frames travel only in v2 form (see [`encode_frame_v2`]), batched
//! per epoch: the clock travels as a [`CompactClock`] delta record against
//! the stream's previous clock (`mode` 1 = encoded from the all-zero clock,
//! required on the first frame of a stream), and run offsets are gap-encoded
//! varints.  [`WireFrame`] is the decoded form a replica applies.  A
//! checkpoint image is a batch body of such frames behind a short header.
//!
//! Malformed input decodes to `None` (in-memory records) or
//! `io::ErrorKind::InvalidData` (streamed messages); a corrupt peer must not
//! be able to panic the decoder, nor make it allocate more than the bytes it
//! sent can describe.

use std::io::{self, Read, Write};

use crate::cclock::{get_varint, put_varint, CompactClock};
use crate::BufferPool;

/// Upper bound on one framed message, as a sanity check against corrupt
/// length prefixes (1 GiB; real frames are a few KiB).
pub const MAX_WIRE_MSG: usize = 1 << 30;

/// The FNV-1a 64-bit offset basis: the state every [`fnv64`] chain starts
/// from.
pub const FNV64_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit hash of a byte slice — the contents fingerprint the
/// transport backends compare replicas with.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_extend(FNV64_OFFSET_BASIS, bytes)
}

/// Folds more bytes into a running [`fnv64`] state.
pub fn fnv64_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a fingerprint of a sequence of regions.  Each region's length is
/// folded in before its contents, so `["ab", "c"]` and `["a", "bc"]` hash
/// differently.
pub fn fnv64_regions<'a>(regions: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut hash = FNV64_OFFSET_BASIS;
    for r in regions {
        hash = fnv64_extend(hash, &(r.len() as u64).to_le_bytes());
        hash = fnv64_extend(hash, r);
    }
    hash
}

/// Bounds-checked little-endian cursor over a decode buffer.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let s = self.buf.get(self.at..end)?;
        self.at = end;
        Some(s)
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }

    fn done(&self) -> bool {
        self.at == self.buf.len()
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// One replicated publish, as a replica applies it: the bytes one publish
/// event wrote into a region's master copy, plus the per-region sequence
/// number that totally orders it.
///
/// The publisher's vector clock is not part of the frame: it travels as a
/// delta record, and [`decode_frame_v2`] leaves it in the receiving codec's
/// [`CompactClock::baseline`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFrame {
    /// Dense index of the region the frame belongs to.
    pub region: u32,
    /// Per-region publish sequence number (1-based, dense): a replica applies
    /// frames of a region strictly in `seq` order.
    pub seq: u64,
    /// Changed-byte runs as region-absolute `(offset, len)` pairs, in
    /// increasing offset order.
    pub runs: Vec<(u32, u32)>,
    /// Every run's bytes, back to back in run order.
    pub payload: Vec<u8>,
}

impl WireFrame {
    /// Copies the frame's runs into a region-sized buffer.  Returns `false`
    /// (leaving a suffix unapplied) if a run falls outside the region.
    pub fn apply(&self, region: &mut [u8]) -> bool {
        let mut pos = 0usize;
        for &(offset, len) in &self.runs {
            let (offset, len) = (offset as usize, len as usize);
            let Some(dst) = region.get_mut(offset..offset + len) else {
                return false;
            };
            dst.copy_from_slice(&self.payload[pos..pos + len]);
            pos += len;
        }
        true
    }
}

/// Kind byte of a framed transport message.  Code 1 is unassigned:
/// [`read_msg`] rejects it like any other unknown kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum WireMsgKind {
    /// Replica bootstrap: cluster shape and initial region contents.
    Init = 0,
    /// End of stream from one sender; no body.
    Fin = 2,
    /// Replica's end-of-run [`WireReport`].
    Report = 3,
    /// An epoch's worth of v2 frames, coalesced (see [`BatchReader`]).
    Batch = 4,
    /// An engine control broadcast (adaptive LRC's migration commits).
    /// Out of band, like every kind in [`WireMsgKind::OOB`].
    Ctrl = 5,
    /// A checkpoint image (encoded [`CkptImage`](crate::CkptImage)) taken at
    /// a barrier cut.  Out of band.
    Ckpt = 6,
    /// A rollback announcement: a crashed node rewinding to its last
    /// checkpoint before replaying.  Out of band.
    Rollback = 7,
}

impl WireMsgKind {
    /// The out-of-band kinds, in [`OobTally`] (and [`WireReport`]) order.
    /// Their bodies are opaque to the transport: replicas tally them instead
    /// of applying them, so the end-of-run report proves every replica saw
    /// every message.
    pub const OOB: [WireMsgKind; 3] = [WireMsgKind::Ctrl, WireMsgKind::Ckpt, WireMsgKind::Rollback];

    fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(WireMsgKind::Init),
            2 => Some(WireMsgKind::Fin),
            3 => Some(WireMsgKind::Report),
            4 => Some(WireMsgKind::Batch),
            5 => Some(WireMsgKind::Ctrl),
            6 => Some(WireMsgKind::Ckpt),
            7 => Some(WireMsgKind::Rollback),
            _ => None,
        }
    }
}

/// `mode` byte of a v2 frame: the clock record is a delta against the
/// stream's previous clock.
pub const CLOCK_MODE_DELTA: u8 = 0;
/// `mode` byte of a v2 frame: the clock record is encoded from the all-zero
/// clock (first frame of a stream, or whenever a receiver has no baseline).
pub const CLOCK_MODE_FULL: u8 = 1;

/// Borrowed view of one publish, as [`encode_frame_v2`] consumes it: the
/// engines' run table plus the region's master copy the payload is cut from.
#[derive(Debug, Clone, Copy)]
pub struct FrameV2<'a> {
    /// Dense index of the region the frame belongs to.
    pub region: u32,
    /// Per-region publish sequence number (1-based, dense).
    pub seq: u64,
    /// The publisher's vector-clock entries (empty under EC).
    pub clock: &'a [u32],
    /// Encode the clock in full mode (required on a stream's first frame).
    pub full: bool,
    /// Region-absolute changed-byte `(offset, len)` runs, in increasing
    /// offset order, non-overlapping.
    pub runs: &'a [(u32, u32)],
    /// The region's master copy; payload bytes are copied out at the run
    /// offsets.
    pub data: &'a [u8],
}

/// Appends one v2 frame body to `out`, advancing `codec`'s baseline:
/// varint `region` · varint `seq` · `u8 mode` · clock record ·
/// varint `nruns` · `nruns × (varint gap, varint len)` · payload.
///
/// Run offsets are gap-encoded (distance from the previous run's end), so
/// overlap is unrepresentable on the wire.  Returns
/// `(meta_bytes, payload_bytes)` appended — the split the transport report
/// surfaces.
pub fn encode_frame_v2(
    f: &FrameV2<'_>,
    codec: &mut CompactClock,
    out: &mut Vec<u8>,
) -> (usize, usize) {
    let start = out.len();
    put_varint(out, f.region as u64);
    put_varint(out, f.seq);
    out.push(if f.full {
        CLOCK_MODE_FULL
    } else {
        CLOCK_MODE_DELTA
    });
    codec.encode_next(f.clock, f.full, out);
    put_varint(out, f.runs.len() as u64);
    let mut prev_end = 0u64;
    for &(off, len) in f.runs {
        debug_assert!(off as u64 >= prev_end, "unsorted or overlapping runs");
        put_varint(out, off as u64 - prev_end);
        put_varint(out, len as u64);
        prev_end = off as u64 + len as u64;
    }
    let meta = out.len() - start;
    for &(off, len) in f.runs {
        out.extend_from_slice(&f.data[off as usize..(off + len) as usize]);
    }
    (meta, out.len() - start - meta)
}

/// Decodes one v2 frame body (the buffer must contain exactly one frame),
/// advancing `codec`'s baseline.  The payload buffer is drawn from `pool`
/// so a replica's read loop recycles instead of allocating per frame.
pub fn decode_frame_v2(
    buf: &[u8],
    codec: &mut CompactClock,
    pool: &mut BufferPool,
) -> Option<WireFrame> {
    let mut at = 0usize;
    let next = |at: &mut usize| -> Option<u64> {
        let (v, n) = get_varint(buf.get(*at..)?)?;
        *at += n;
        Some(v)
    };
    let region = u32::try_from(next(&mut at)?).ok()?;
    let seq = next(&mut at)?;
    let mode = *buf.get(at)?;
    at += 1;
    let full = match mode {
        CLOCK_MODE_DELTA => false,
        CLOCK_MODE_FULL => true,
        _ => return None,
    };
    at += codec.decode_next(buf.get(at..)?, full)?;
    // Each run takes at least two varint bytes, so a count the rest of the
    // frame cannot hold is refused before it sizes an allocation.
    let nruns = next(&mut at)?;
    if nruns > (buf.len() - at) as u64 / 2 {
        return None;
    }
    let mut runs = Vec::with_capacity(nruns as usize);
    let mut payload_len = 0usize;
    let mut prev_end = 0u64;
    for _ in 0..nruns {
        let gap = next(&mut at)?;
        let len = next(&mut at)?;
        let off = prev_end.checked_add(gap)?;
        prev_end = off.checked_add(len)?;
        if len == 0 || prev_end > u32::MAX as u64 {
            return None;
        }
        payload_len = payload_len.checked_add(len as usize)?;
        runs.push((off as u32, len as u32));
    }
    let end = at.checked_add(payload_len)?;
    let bytes = buf.get(at..end)?;
    if end != buf.len() {
        return None; // trailing garbage
    }
    let mut payload = pool.take_empty(payload_len);
    payload.extend_from_slice(bytes);
    Some(WireFrame {
        region,
        seq,
        runs,
        payload,
    })
}

/// Byte length of a framed message's header: `u32 len` · `u8 kind`.
pub const MSG_HEADER_LEN: usize = 5;

/// Byte length of the batch message header [`begin_batch`] reserves: the
/// message header and a `u32 nframes`, all backpatched by [`finish_batch`].
pub const BATCH_HEADER_LEN: usize = MSG_HEADER_LEN + 4;

/// Starts a batch message in an empty buffer by reserving
/// [`BATCH_HEADER_LEN`] placeholder bytes.  The caller appends each frame as
/// varint `len` + v2 body, then calls [`finish_batch`]; the completed buffer
/// is one framed message, written to a stream verbatim.
pub fn begin_batch(out: &mut Vec<u8>) {
    debug_assert!(out.is_empty(), "batch buffer must start empty");
    out.resize(BATCH_HEADER_LEN, 0);
}

/// Backpatches the batch header: the message length prefix, the
/// [`WireMsgKind::Batch`] kind byte and the frame count.
pub fn finish_batch(out: &mut [u8], nframes: u32) {
    let len = out.len() - 4; // kind byte + body, per the message framing
    out[0..4].copy_from_slice(&(len as u32).to_le_bytes());
    out[4] = WireMsgKind::Batch as u8;
    out[5..9].copy_from_slice(&nframes.to_le_bytes());
}

/// Iterates the v2 frames of one [`WireMsgKind::Batch`] body
/// (`u32 nframes` · `nframes × (varint len, frame body)`).
///
/// Call [`BatchReader::next`] until [`BatchReader::remaining`] hits zero,
/// then check [`BatchReader::finished`] — a batch with leftover bytes after
/// its last frame is malformed.
#[derive(Debug)]
pub struct BatchReader<'a> {
    buf: &'a [u8],
    at: usize,
    remaining: u32,
}

impl<'a> BatchReader<'a> {
    /// Wraps a batch message body; `None` if it lacks the frame count.
    pub fn new(body: &'a [u8]) -> Option<Self> {
        let count = body.get(..4)?;
        Some(BatchReader {
            buf: body,
            at: 4,
            remaining: u32::from_le_bytes(count.try_into().expect("4 bytes")),
        })
    }

    /// Frames not yet decoded.
    pub fn remaining(&self) -> u32 {
        self.remaining
    }

    /// Decodes the next frame, or `None` if the batch is exhausted *or*
    /// malformed (distinguish with [`BatchReader::remaining`]).
    pub fn next(&mut self, codec: &mut CompactClock, pool: &mut BufferPool) -> Option<WireFrame> {
        if self.remaining == 0 {
            return None;
        }
        let (flen, n) = get_varint(self.buf.get(self.at..)?)?;
        let flen = usize::try_from(flen).ok().filter(|&l| l <= MAX_WIRE_MSG)?;
        let start = self.at + n;
        let frame = decode_frame_v2(self.buf.get(start..start + flen)?, codec, pool)?;
        self.at = start + flen;
        self.remaining -= 1;
        Some(frame)
    }

    /// True once every frame decoded and no bytes trail the last one.
    pub fn finished(&self) -> bool {
        self.remaining == 0 && self.at == self.buf.len()
    }
}

/// Replica bootstrap message: how many senders will connect and the initial
/// contents of every region (a replica must start from the same initial
/// image the engine's master copies start from).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WireInit {
    /// Number of node connections (senders) the replica should expect.
    pub nprocs: u32,
    /// Initial contents of each region, in region-index order.
    pub regions: Vec<Vec<u8>>,
}

impl WireInit {
    /// Appends the encoded body to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_u32(out, self.nprocs);
        put_u32(out, self.regions.len() as u32);
        for r in &self.regions {
            put_u32(out, r.len() as u32);
            out.extend_from_slice(r);
        }
    }

    /// Decodes a body; the buffer must contain exactly one record.
    pub fn decode(buf: &[u8]) -> Option<WireInit> {
        let mut r = Reader::new(buf);
        let nprocs = r.u32()?;
        let nregions = r.u32()? as usize;
        if nregions > MAX_WIRE_MSG / 4 {
            return None;
        }
        let mut regions = Vec::with_capacity(nregions);
        for _ in 0..nregions {
            let len = r.u32()? as usize;
            regions.push(r.take(len)?.to_vec());
        }
        if !r.done() {
            return None;
        }
        Some(WireInit { nprocs, regions })
    }
}

/// Count and fingerprint of the out-of-band messages one endpoint sent or
/// one replica received, per kind.  The fingerprint is the XOR of every
/// body's [`fnv64`]: order-independent, so it compares equal however the
/// senders' messages interleaved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OobTally {
    /// `(messages, fingerprint)` per kind, in [`WireMsgKind::OOB`] order.
    kinds: [(u64, u64); 3],
}

impl OobTally {
    fn slot(kind: WireMsgKind) -> usize {
        WireMsgKind::OOB
            .iter()
            .position(|&k| k == kind)
            .unwrap_or_else(|| panic!("{kind:?} is not an out-of-band kind"))
    }

    /// Folds one message body of `kind` in.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not in [`WireMsgKind::OOB`].
    pub fn add(&mut self, kind: WireMsgKind, body: &[u8]) {
        let (count, fnv) = &mut self.kinds[Self::slot(kind)];
        *count += 1;
        *fnv ^= fnv64(body);
    }

    /// Messages of `kind` tallied.
    pub fn count(&self, kind: WireMsgKind) -> u64 {
        self.kinds[Self::slot(kind)].0
    }

    /// Folds another tally in: counts add, fingerprints XOR.
    pub fn merge(&mut self, other: &OobTally) {
        for (mine, theirs) in self.kinds.iter_mut().zip(other.kinds) {
            mine.0 += theirs.0;
            mine.1 ^= theirs.1;
        }
    }
}

/// A replica holder's end-of-run report, sent back on the control connection
/// once every sender has finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireReport {
    /// [`fnv64_regions`] fingerprint of the replica's final contents.
    pub contents_fnv: u64,
    /// Frames the replica applied.
    pub frames_applied: u64,
    /// Bytes the replica received on node streams, message framing included.
    pub bytes_received: u64,
    /// Out-of-band messages the replica received.
    pub oob: OobTally,
}

impl WireReport {
    /// Appends the encoded body to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.contents_fnv);
        put_u64(out, self.frames_applied);
        put_u64(out, self.bytes_received);
        for (count, fnv) in self.oob.kinds {
            put_u64(out, count);
            put_u64(out, fnv);
        }
    }

    /// Decodes a body; the buffer must contain exactly one record.
    pub fn decode(buf: &[u8]) -> Option<WireReport> {
        let mut r = Reader::new(buf);
        let mut report = WireReport {
            contents_fnv: r.u64()?,
            frames_applied: r.u64()?,
            bytes_received: r.u64()?,
            oob: OobTally::default(),
        };
        for slot in report.oob.kinds.iter_mut() {
            *slot = (r.u64()?, r.u64()?);
        }
        if !r.done() {
            return None;
        }
        Some(report)
    }
}

/// Writes one framed message: `u32` length prefix (kind byte + body), the
/// kind byte, then the body.
pub fn write_msg(w: &mut impl Write, kind: WireMsgKind, body: &[u8]) -> io::Result<()> {
    let len = body.len() + 1;
    if len > MAX_WIRE_MSG {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "wire message too large",
        ));
    }
    w.write_all(&(len as u32).to_le_bytes())?;
    w.write_all(&[kind as u8])?;
    w.write_all(body)
}

/// Reads one framed message into `body` (reused across calls).  Returns the
/// message kind, or `None` on a clean end of stream (EOF exactly at a
/// message boundary).  A truncated message or an unknown kind byte is an
/// [`io::ErrorKind::InvalidData`] error.
pub fn read_msg(r: &mut impl Read, body: &mut Vec<u8>) -> io::Result<Option<WireMsgKind>> {
    let mut prefix = [0u8; 4];
    match r.read_exact(&mut prefix) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len == 0 || len > MAX_WIRE_MSG {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad wire message length",
        ));
    }
    let mut kind_byte = [0u8; 1];
    r.read_exact(&mut kind_byte)?;
    let kind = WireMsgKind::from_code(kind_byte[0])
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unknown wire message kind"))?;
    body.clear();
    body.resize(len - 1, 0);
    r.read_exact(body)?;
    Ok(Some(kind))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_length_sensitive() {
        // Reference value of FNV-1a 64 for "hello".
        assert_eq!(fnv64(b"hello"), 0xa430_d846_80aa_bd0b);
        assert_ne!(
            fnv64_regions([b"ab".as_slice(), b"c".as_slice()]),
            fnv64_regions([b"a".as_slice(), b"bc".as_slice()])
        );
        assert_eq!(fnv64_regions([]), fnv64_regions([]));
    }

    #[test]
    fn frame_round_trip_and_apply() {
        let data: Vec<u8> = (1..=16).collect();
        let mut buf = Vec::new();
        encode_frame_v2(
            &FrameV2 {
                region: 2,
                seq: 17,
                clock: &[1, 0, 4],
                full: true,
                runs: &[(0, 4), (8, 8)],
                data: &data,
            },
            &mut CompactClock::new(),
            &mut buf,
        );
        let mut dec = CompactClock::new();
        let back = decode_frame_v2(&buf, &mut dec, &mut BufferPool::new()).expect("decodes");
        assert_eq!((back.region, back.seq), (2, 17));
        assert_eq!(dec.baseline(), &[1, 0, 4], "the clock lands in the codec");
        let mut region = vec![0u8; 16];
        assert!(back.apply(&mut region));
        assert_eq!(&region[0..4], &[1, 2, 3, 4]);
        assert_eq!(&region[4..8], &[0; 4], "the gap stays untouched");
        assert_eq!(&region[8..16], &[9, 10, 11, 12, 13, 14, 15, 16]);
        // A run past the end of the region is rejected, not a panic.
        let mut short = vec![0u8; 8];
        assert!(!back.apply(&mut short));
    }

    #[test]
    fn init_and_report_round_trip() {
        let init = WireInit {
            nprocs: 8,
            regions: vec![vec![1, 2, 3], vec![], vec![9; 10]],
        };
        let mut buf = Vec::new();
        init.encode_into(&mut buf);
        assert_eq!(WireInit::decode(&buf), Some(init));

        let rep = WireReport {
            contents_fnv: 0xdead_beef,
            frames_applied: 42,
            bytes_received: 4096,
            oob: OobTally {
                kinds: [(3, 0x1234), (5, 0x5678), (1, 0x9abc)],
            },
        };
        let mut rbuf = Vec::new();
        rep.encode_into(&mut rbuf);
        assert_eq!(rbuf.len(), 9 * 8, "three u64s, then three count/fnv pairs");
        assert_eq!(WireReport::decode(&rbuf), Some(rep));
        assert!(
            WireReport::decode(&rbuf[..rbuf.len() - 1]).is_none(),
            "short"
        );
    }

    #[test]
    fn oob_tally_is_per_kind_and_order_independent() {
        let mut a = OobTally::default();
        a.add(WireMsgKind::Ctrl, b"one");
        a.add(WireMsgKind::Ctrl, b"two");
        a.add(WireMsgKind::Rollback, b"back");
        let mut b = OobTally::default();
        b.add(WireMsgKind::Rollback, b"back");
        let mut c = OobTally::default();
        c.add(WireMsgKind::Ctrl, b"two");
        c.add(WireMsgKind::Ctrl, b"one");
        b.merge(&c);
        assert_eq!(a, b);
        assert_eq!(a.count(WireMsgKind::Ctrl), 2);
        assert_eq!(a.count(WireMsgKind::Ckpt), 0);
        assert_eq!(a.count(WireMsgKind::Rollback), 1);
    }

    #[test]
    fn framed_messages_round_trip_over_a_stream() {
        let mut stream = Vec::new();
        write_msg(&mut stream, WireMsgKind::Init, &[1, 2, 3]).expect("write");
        write_msg(&mut stream, WireMsgKind::Fin, &[]).expect("write");
        let mut r = &stream[..];
        let mut body = Vec::new();
        assert_eq!(
            read_msg(&mut r, &mut body).expect("read"),
            Some(WireMsgKind::Init)
        );
        assert_eq!(body, &[1, 2, 3]);
        assert_eq!(
            read_msg(&mut r, &mut body).expect("read"),
            Some(WireMsgKind::Fin)
        );
        assert!(body.is_empty());
        assert_eq!(
            read_msg(&mut r, &mut body).expect("read"),
            None,
            "clean EOF"
        );
    }

    #[test]
    fn frame_v2_round_trip_through_a_batch() {
        let data = {
            let mut d = vec![0u8; 64];
            for (i, b) in d.iter_mut().enumerate() {
                *b = i as u8;
            }
            d
        };
        type TestFrame = (u32, u64, Vec<u32>, Vec<(u32, u32)>);
        let frames: [TestFrame; 3] = [
            (0, 1, vec![1, 0, 0], vec![(0, 4), (8, 8)]),
            (2, 1, vec![2, 0, 0], vec![(60, 4)]),
            (0, 2, vec![2, 1, 1], vec![(4, 2)]),
        ];
        let mut enc = CompactClock::new();
        let mut batch = Vec::new();
        begin_batch(&mut batch);
        let mut frame_buf = Vec::new();
        for (i, (region, seq, clock, runs)) in frames.iter().enumerate() {
            frame_buf.clear();
            let (meta, payload) = encode_frame_v2(
                &FrameV2 {
                    region: *region,
                    seq: *seq,
                    clock,
                    full: i == 0,
                    runs,
                    data: &data,
                },
                &mut enc,
                &mut frame_buf,
            );
            assert_eq!(meta + payload, frame_buf.len());
            put_varint(&mut batch, frame_buf.len() as u64);
            batch.extend_from_slice(&frame_buf);
        }
        finish_batch(&mut batch, frames.len() as u32);

        // The completed buffer is a well-formed framed message.
        let mut stream = &batch[..];
        let mut body = Vec::new();
        assert_eq!(
            read_msg(&mut stream, &mut body).expect("read"),
            Some(WireMsgKind::Batch)
        );
        let mut dec = CompactClock::new();
        let mut pool = BufferPool::new();
        let mut reader = BatchReader::new(&body).expect("frame count");
        assert_eq!(reader.remaining(), 3);
        for (region, seq, clock, runs) in &frames {
            let f = reader.next(&mut dec, &mut pool).expect("frame decodes");
            assert_eq!(f.region, *region);
            assert_eq!(f.seq, *seq);
            assert_eq!(dec.baseline(), clock);
            assert_eq!(&f.runs, runs);
            let expect: Vec<u8> = runs
                .iter()
                .flat_map(|&(off, len)| data[off as usize..(off + len) as usize].to_vec())
                .collect();
            assert_eq!(f.payload, expect);
        }
        assert!(reader.finished());
        assert!(reader.next(&mut dec, &mut pool).is_none(), "exhausted");
    }

    #[test]
    fn frame_v2_decode_rejects_malformed_input() {
        let data = vec![7u8; 32];
        let mut enc = CompactClock::new();
        let mut buf = Vec::new();
        encode_frame_v2(
            &FrameV2 {
                region: 1,
                seq: 1,
                clock: &[3, 0],
                full: true,
                runs: &[(0, 8)],
                data: &data,
            },
            &mut enc,
            &mut buf,
        );
        let mut pool = BufferPool::new();
        let fresh = || CompactClock::new();
        assert!(decode_frame_v2(&buf, &mut fresh(), &mut pool).is_some());
        assert!(
            decode_frame_v2(&buf[..buf.len() - 1], &mut fresh(), &mut pool).is_none(),
            "truncated payload"
        );
        let mut extra = buf.clone();
        extra.push(0);
        assert!(
            decode_frame_v2(&extra, &mut fresh(), &mut pool).is_none(),
            "trailing garbage"
        );
        let mut bad_mode = buf.clone();
        bad_mode[2] = 9; // region and seq are one varint byte each here
        assert!(
            decode_frame_v2(&bad_mode, &mut fresh(), &mut pool).is_none(),
            "unknown clock mode"
        );
        // A delta-mode first frame decodes against an empty baseline — legal
        // for the codec — but a zero-length run is not.
        let mut zrun = Vec::new();
        let mut enc2 = CompactClock::new();
        encode_frame_v2(
            &FrameV2 {
                region: 0,
                seq: 1,
                clock: &[],
                full: true,
                runs: &[],
                data: &data,
            },
            &mut enc2,
            &mut zrun,
        );
        let nruns_at = zrun.len() - 1;
        zrun[nruns_at] = 1; // claim one run, provide no run table
        assert!(
            decode_frame_v2(&zrun, &mut fresh(), &mut pool).is_none(),
            "missing run table"
        );
    }

    #[test]
    fn batch_reader_rejects_truncation() {
        let data = vec![1u8; 16];
        let mut enc = CompactClock::new();
        let mut batch = Vec::new();
        begin_batch(&mut batch);
        let mut frame_buf = Vec::new();
        encode_frame_v2(
            &FrameV2 {
                region: 0,
                seq: 1,
                clock: &[5],
                full: true,
                runs: &[(0, 4)],
                data: &data,
            },
            &mut enc,
            &mut frame_buf,
        );
        put_varint(&mut batch, frame_buf.len() as u64);
        batch.extend_from_slice(&frame_buf);
        finish_batch(&mut batch, 1);
        let body = &batch[MSG_HEADER_LEN..];

        let mut pool = BufferPool::new();
        assert!(BatchReader::new(&body[..3]).is_none(), "no frame count");
        // Truncated inside the frame: next() fails with frames remaining.
        let mut r = BatchReader::new(&body[..body.len() - 2]).expect("count");
        assert!(r.next(&mut CompactClock::new(), &mut pool).is_none());
        assert_eq!(r.remaining(), 1, "failure, not exhaustion");
        assert!(!r.finished());
        // Trailing garbage after the last frame: finished() stays false.
        let mut long = body.to_vec();
        long.push(0);
        let mut r = BatchReader::new(&long).expect("count");
        assert!(r.next(&mut CompactClock::new(), &mut pool).is_some());
        assert_eq!(r.remaining(), 0);
        assert!(!r.finished(), "trailing garbage detected");
    }

    #[test]
    fn read_msg_rejects_corrupt_streams() {
        // Zero length prefix.
        let zero = 0u32.to_le_bytes().to_vec();
        let mut body = Vec::new();
        assert!(read_msg(&mut &zero[..], &mut body).is_err());
        // Unknown kind bytes, including the unassigned code 1.
        for code in [1u8, 99] {
            let mut unk = Vec::new();
            unk.extend_from_slice(&1u32.to_le_bytes());
            unk.push(code);
            assert!(read_msg(&mut &unk[..], &mut body).is_err(), "kind {code}");
        }
        // Truncated body.
        let mut trunc = Vec::new();
        trunc.extend_from_slice(&10u32.to_le_bytes());
        trunc.push(WireMsgKind::Batch as u8);
        trunc.extend_from_slice(&[0, 0]);
        assert!(read_msg(&mut &trunc[..], &mut body).is_err());
    }
}
