//! Property-style tests for the data-plane building blocks.
//!
//! The container has no network access, so instead of `proptest` these use a
//! small deterministic xorshift generator: every case is reproducible from
//! its printed seed, and the loops cover the same input shapes the original
//! properties did.

use dsm_mem::testutil::TestRng as Rng;
use dsm_mem::{
    page_of, pages_in, wire, BitSet, BufferPool, MemRange, RegionId, VectorClock, PAGE_SIZE,
};
use dsm_sim::NodeId;

const CASES: u64 = 64;

/// BitSet set/clear/count behave like a reference `Vec<bool>`.
#[test]
fn bitset_matches_reference() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 2000);
        let mut bits = BitSet::new(200);
        let mut reference = [false; 200];
        for _ in 0..rng.below(200) {
            let idx = rng.below(200);
            if rng.bool() {
                bits.set(idx);
                reference[idx] = true;
            } else {
                bits.clear(idx);
                reference[idx] = false;
            }
        }
        assert_eq!(
            bits.count(),
            reference.iter().filter(|&&b| b).count(),
            "seed {seed}"
        );
        let from_iter: Vec<usize> = bits.iter_set().collect();
        let expected: Vec<usize> = reference
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(from_iter, expected, "seed {seed}");
    }
}

/// Random publish frames survive encode → one-frame batch on a
/// length-prefixed stream → decode → apply: the decoded frame rebuilds
/// exactly the run bytes of the publisher's master copy, and leaves every
/// other byte of the replica alone.
#[test]
fn wire_frame_round_trips_through_stream() {
    use dsm_mem::CompactClock;
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 9000);
        let region_len = rng.in_range(64, 1024);
        let mut region = rng.bytes(region_len);
        let master = rng.bytes(region_len);
        let clock: Vec<u32> = (0..rng.below(16)).map(|_| rng.next_u64() as u32).collect();
        // Disjoint increasing runs.
        let mut runs = Vec::new();
        let mut at = 0usize;
        while at + 4 <= region_len && runs.len() < 8 {
            at += rng.below(96);
            let len = rng.in_range(1, 32).min(region_len.saturating_sub(at));
            if len == 0 {
                break;
            }
            runs.push((at as u32, len as u32));
            at += len + 1;
        }
        let mut batch = Vec::new();
        wire::begin_batch(&mut batch);
        let mut frame = Vec::new();
        wire::encode_frame_v2(
            &wire::FrameV2 {
                region: rng.below(8) as u32,
                seq: rng.next_u64() % 1000,
                clock: &clock,
                full: true,
                runs: &runs,
                data: &master,
            },
            &mut CompactClock::new(),
            &mut frame,
        );
        dsm_mem::put_varint(&mut batch, frame.len() as u64);
        batch.extend_from_slice(&frame);
        wire::finish_batch(&mut batch, 1);
        let mut stream = batch;
        wire::write_msg(&mut stream, wire::WireMsgKind::Fin, &[]).expect("write");
        let mut r = &stream[..];
        let mut msg = Vec::new();
        assert_eq!(
            wire::read_msg(&mut r, &mut msg).expect("read"),
            Some(wire::WireMsgKind::Batch),
            "seed {seed}"
        );
        let mut dec = CompactClock::new();
        let back = wire::BatchReader::new(&msg)
            .and_then(|mut b| b.next(&mut dec, &mut BufferPool::new()))
            .expect("well-formed frame");
        assert_eq!(back.runs, runs, "seed {seed}");
        assert_eq!(dec.baseline(), &clock[..], "seed {seed}");
        let mut expect = region.clone();
        for &(off, len) in &runs {
            let span = off as usize..(off + len) as usize;
            expect[span.clone()].copy_from_slice(&master[span]);
        }
        assert!(back.apply(&mut region), "seed {seed}");
        assert_eq!(region, expect, "seed {seed}");
        assert_eq!(
            wire::read_msg(&mut r, &mut msg).expect("read"),
            Some(wire::WireMsgKind::Fin)
        );
        assert_eq!(wire::read_msg(&mut r, &mut msg).expect("read"), None);
    }
}

/// Delta-encoded clock streams reconstruct the exact `VectorClock` sequence:
/// a `CompactClock` encoder and an independent decoder walk a random clock
/// history (sparse bumps, dense bumps, big jumps, idle steps) and the
/// decoder's baseline must equal the sender's clock after every record.
#[test]
fn compact_clock_stream_tracks_vector_clocks() {
    use dsm_mem::CompactClock;
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 10_000);
        let n = match seed % 4 {
            0 => 1,
            1 => 256, // the scaling-sweep shape
            _ => rng.in_range(2, 64),
        };
        let mut clock = VectorClock::new(n);
        let mut enc = CompactClock::new();
        let mut dec = CompactClock::new();
        let mut buf = Vec::new();
        for step in 0..rng.in_range(2, 12) {
            match rng.below(4) {
                // Sparse: bump a few entries.
                0 => {
                    for _ in 0..rng.in_range(1, 4).min(n) {
                        clock.bump(NodeId::new(rng.below(n) as u32));
                    }
                }
                // Dense: everyone advances by one (the global-lock shape —
                // must encode as a single run).
                1 => {
                    for i in 0..n {
                        clock.bump(NodeId::new(i as u32));
                    }
                }
                // A big jump on one entry.
                2 => {
                    let i = NodeId::new(rng.below(n) as u32);
                    clock.set_entry(i, clock.entry(i) + rng.next_u64() as u32 % 100_000);
                }
                // Idle: publish again with an unchanged clock.
                _ => {}
            }
            buf.clear();
            let full = step == 0;
            let rec = enc.encode_next(clock.entries(), full, &mut buf);
            assert_eq!(rec, buf.len(), "seed {seed} step {step}");
            let used = dec
                .decode_next(&buf, full)
                .unwrap_or_else(|| panic!("seed {seed} step {step}: decode failed"));
            assert_eq!(used, buf.len(), "seed {seed} step {step}");
            assert_eq!(dec.baseline(), clock.entries(), "seed {seed} step {step}");
            if matches!(seed % 4, 1) && rng.below(4) == 1 {
                // Dense advance of 256 entries must stay O(runs), not
                // O(nprocs): one run is at most ~16 bytes of record.
                assert!(rec <= 3 + 16, "seed {seed} step {step}: record {rec}B");
            }
        }
        // First contact (full mode) resets any stale receiver baseline.
        buf.clear();
        enc.encode_next(clock.entries(), true, &mut buf);
        let mut fresh = CompactClock::new();
        assert!(fresh.decode_next(&buf, true).is_some(), "seed {seed}");
        assert_eq!(fresh.baseline(), clock.entries(), "seed {seed}");
    }
}

/// `ClockDelta` is exact over random base/new pairs — including all-zero
/// clocks and identical clocks — and survives its wire encoding, both alone
/// and as the second record of a `CompactClock` stream (the path the wire
/// uses); truncated records never decode.
#[test]
fn clock_delta_round_trips_and_rejects_truncation() {
    use dsm_mem::{ClockDelta, CompactClock};
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 11_000);
        let n = rng.in_range(1, 48);
        let gen = |rng: &mut Rng, zeros: bool| -> Vec<u32> {
            (0..n)
                .map(|_| {
                    if zeros || rng.below(3) == 0 {
                        0
                    } else {
                        rng.next_u64() as u32 % 1000
                    }
                })
                .collect()
        };
        let base = gen(&mut rng, seed % 5 == 0);
        let new = if seed % 7 == 0 {
            base.clone() // identical: the delta must be empty
        } else {
            gen(&mut rng, false)
        };
        let delta = ClockDelta::from_entries(&base, &new);
        if new == base {
            assert!(delta.is_empty(), "seed {seed}");
        }
        let mut buf = Vec::new();
        delta.encode_into(&mut buf);
        assert_eq!(delta.encoded_len(), buf.len(), "seed {seed}");
        let (back, used) = ClockDelta::decode(&buf).expect("well-formed delta");
        assert_eq!(used, buf.len(), "seed {seed}");
        assert_eq!(back, delta, "seed {seed}");
        // A stream carrying `base` then `new` decodes to both exactly.
        let (mut enc, mut dec) = (CompactClock::new(), CompactClock::new());
        let mut stream = Vec::new();
        let first = enc.encode_next(&base, true, &mut stream);
        enc.encode_next(&new, false, &mut stream);
        assert_eq!(dec.decode_next(&stream, true), Some(first), "seed {seed}");
        assert_eq!(dec.baseline(), &base[..], "seed {seed}");
        let rest = dec.decode_next(&stream[first..], false);
        assert_eq!(rest, Some(stream.len() - first), "seed {seed}");
        assert_eq!(dec.baseline(), &new[..], "seed {seed}");
        // Every strict prefix of a non-empty record must fail to decode
        // cleanly or consume fewer bytes than the full record.
        if !delta.is_empty() {
            for cut in 0..buf.len() {
                if let Some((_, used)) = ClockDelta::decode(&buf[..cut]) {
                    assert!(used < buf.len(), "seed {seed} cut {cut}");
                }
            }
        }
    }
}

/// Random frame sequences survive the full v2 batch wire: encode with a
/// sender `CompactClock`, frame into a batch message, stream it, and decode
/// with an independent receiver codec — clocks, runs and payloads all
/// reconstruct exactly, and truncated batches are rejected.
#[test]
fn wire_v2_batch_round_trips() {
    use dsm_mem::CompactClock;
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 12_000);
        let nprocs = rng.in_range(1, 32);
        let region_len = rng.in_range(64, 512);
        let mut enc = CompactClock::new();
        let mut clock = VectorClock::new(nprocs);
        let mut batch = Vec::new();
        wire::begin_batch(&mut batch);
        let nframes = rng.in_range(1, 6);
        let mut expect: Vec<(wire::WireFrame, Vec<u32>)> = Vec::new();
        let mut frame_buf = Vec::new();
        for f in 0..nframes {
            clock.bump(NodeId::new(rng.below(nprocs) as u32));
            let data = rng.bytes(region_len);
            let mut runs = Vec::new();
            let mut at = 0usize;
            while at + 1 < region_len && runs.len() < 4 {
                at += rng.below(64);
                let len = rng.in_range(1, 24).min(region_len.saturating_sub(at));
                if len == 0 {
                    break;
                }
                runs.push((at as u32, len as u32));
                at += len + 1;
            }
            let mut payload = Vec::new();
            for &(off, len) in &runs {
                payload.extend_from_slice(&data[off as usize..(off + len) as usize]);
            }
            let region = rng.below(4) as u32;
            frame_buf.clear();
            wire::encode_frame_v2(
                &wire::FrameV2 {
                    region,
                    seq: f as u64 + 1,
                    clock: clock.entries(),
                    full: f == 0,
                    runs: &runs,
                    data: &data,
                },
                &mut enc,
                &mut frame_buf,
            );
            dsm_mem::put_varint(&mut batch, frame_buf.len() as u64);
            batch.extend_from_slice(&frame_buf);
            let frame = wire::WireFrame {
                region,
                seq: f as u64 + 1,
                runs,
                payload,
            };
            expect.push((frame, clock.entries().to_vec()));
        }
        wire::finish_batch(&mut batch, nframes as u32);

        // Stream it and decode with a fresh receiver codec.
        let mut stream = Vec::new();
        let body = &batch[4 + 1..]; // strip the u32 length + kind byte
        wire::write_msg(&mut stream, wire::WireMsgKind::Batch, body).expect("write");
        let mut r = &stream[..];
        let mut msg = Vec::new();
        assert_eq!(
            wire::read_msg(&mut r, &mut msg).expect("read"),
            Some(wire::WireMsgKind::Batch),
            "seed {seed}"
        );
        let mut dec = CompactClock::new();
        let mut pool = BufferPool::new();
        let mut frames = wire::BatchReader::new(&msg).expect("frame count");
        for (f, (want, want_clock)) in expect.iter().enumerate() {
            let got = frames
                .next(&mut dec, &mut pool)
                .unwrap_or_else(|| panic!("seed {seed} frame {f}: decode failed"));
            assert_eq!(&got, want, "seed {seed} frame {f}");
            assert_eq!(dec.baseline(), &want_clock[..], "seed {seed} frame {f}");
        }
        assert!(frames.finished(), "seed {seed}");

        // Any truncation of the message body must surface as a failed frame
        // or an unfinished reader, never as a silently short batch.
        let cut = rng.below(msg.len().max(1));
        let mut dec = CompactClock::new();
        let mut truncated = wire::BatchReader::new(&msg[..cut.min(msg.len())]);
        if let Some(reader) = truncated.as_mut() {
            let mut ok = 0usize;
            while reader.remaining() > 0 {
                match reader.next(&mut dec, &mut pool) {
                    Some(_) => ok += 1,
                    None => break,
                }
            }
            assert!(
                ok < expect.len() || !reader.finished() || cut == msg.len(),
                "seed {seed} cut {cut}: truncated batch decoded fully"
            );
        }
    }
}

/// Page arithmetic is consistent: every byte of a range falls in one of the
/// pages the range reports.
#[test]
fn ranges_cover_their_pages() {
    for seed in 0..CASES * 4 {
        let mut rng = Rng::new(seed + 3000);
        let start = rng.below(100_000);
        let len = rng.below(20_000);
        let range = MemRange::new(RegionId::new(0), start, len);
        let pages = range.pages();
        if len == 0 {
            assert!(pages.is_empty(), "seed {seed}");
        } else {
            for offset in [start, start + len / 2, start + len - 1] {
                assert!(pages.contains(&page_of(offset)), "seed {seed}");
            }
            assert!(pages.end <= pages_in(start + len) + 1, "seed {seed}");
            assert!(pages.len() <= len / PAGE_SIZE + 2, "seed {seed}");
        }
    }
}
