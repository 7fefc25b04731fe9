//! Microbenchmarks of the protocol building blocks, driven by a minimal
//! self-contained harness (`harness = false`; the offline build environment
//! has no criterion): the two word-run scans a write travels through (twin
//! compare at release, on an interleaved, a sparse and a dense page;
//! same-stamp runs at a grant or miss), the vector-clock merge, and the
//! typed span codec on one SOR half-row of 501 `f32`
//! (`scalar_span_decode_half_row`: bytes to floats, what `read_into` does
//! per page; `scalar_span_encode_half_row`: floats to bytes, `write_from`).
//! The codec is called from this crate, so it is timed across the crate
//! boundary, as the applications call it.
//! Whole-application host time is perfbench's `paper-apps` workload.
//!
//! Run with `cargo bench -p dsm-bench`.  Each benchmark reports the minimum
//! and mean wall-clock time per call over its samples; the minimum is the
//! stable number to compare across runs.

use std::time::{Duration, Instant};

use dsm_core::Scalar;
use dsm_mem::{changed_word_runs, same_stamp_runs, VectorClock};
use dsm_sim::NodeId;

const SAMPLES: usize = 10;

/// Calls per sample: a page scan takes about a microsecond, too close to the
/// cost and resolution of the timer itself to time one call at a time.
const CALLS: u32 = 1000;

/// Times `f` over [`SAMPLES`] samples of [`CALLS`] calls each and prints
/// `group/name: min .. mean` per call.
fn bench<R>(group: &str, name: &str, mut f: impl FnMut() -> R) {
    let mut sample = || {
        let start = Instant::now();
        for _ in 0..CALLS {
            std::hint::black_box(f());
        }
        start.elapsed() / CALLS
    };
    // One warm-up sample so lazily-allocated tables do not skew the first.
    sample();
    let mut total = Duration::ZERO;
    let mut min = Duration::MAX;
    for _ in 0..SAMPLES {
        let dt = sample();
        total += dt;
        min = min.min(dt);
    }
    let mean = total / SAMPLES as u32;
    println!("{group}/{name}: min {min:>12.3?}  mean {mean:>12.3?}  ({SAMPLES} samples of {CALLS} calls)");
}

/// Times the release-time twin compare of one 4 KiB page changed as `cur`.
fn bench_page_scan(name: &str, twin: &[u8], cur: &[u8]) {
    bench("mechanisms", name, || {
        let mut words = 0;
        changed_word_runs(twin, cur, 0..1024, |s, e| words += e - s);
        words
    });
}

fn main() {
    // Three shapes of a written page: one changed word in four
    // (interleaved), one 40-byte KV slot put (sparse: what a `kv-write`
    // release compares), and every word changed (dense: a SOR row sweep).
    let twin = vec![0u8; 4096];
    let mut interleaved = twin.clone();
    for i in (0..4096).step_by(16) {
        interleaved[i] = 1;
    }
    bench_page_scan("changed_word_runs_page", &twin, &interleaved);
    let mut sparse = twin.clone();
    sparse[1000..1040].fill(1);
    bench_page_scan("changed_word_runs_sparse_page", &twin, &sparse);
    bench_page_scan("changed_word_runs_dense_page", &twin, &[1u8; 4096]);
    // One page of stamps: a published word every fourth, the rest unwritten.
    let stamps: Vec<u64> = (0..1024).map(|w| if w % 4 == 0 { 7 } else { 0 }).collect();
    bench("mechanisms", "same_stamp_runs_page", || {
        let mut runs = 0;
        same_stamp_runs(&stamps, 0..1024, |_, _, stamp| {
            runs += usize::from(stamp != 0)
        });
        runs
    });
    let mut a = VectorClock::new(8);
    let mut v = VectorClock::new(8);
    for i in 0..8 {
        v.set_entry(NodeId::new(i), i + 3);
    }
    bench("mechanisms", "vector_clock_merge", || {
        a.merge_max(&v);
        a.dominates(&v)
    });
    // One paper-scale SOR half-row: 1002 columns, 501 of each colour.
    let floats: Vec<f32> = (0..501).map(|i| i as f32 * 0.25 + 1.0).collect();
    let mut bytes = vec![0u8; floats.len() * 4];
    f32::write_slice_le(&floats, &mut bytes);
    let mut decoded = vec![0f32; floats.len()];
    bench("mechanisms", "scalar_span_decode_half_row", || {
        f32::read_slice_le(std::hint::black_box(&bytes), &mut decoded);
        decoded[500]
    });
    bench("mechanisms", "scalar_span_encode_half_row", || {
        f32::write_slice_le(std::hint::black_box(&floats), &mut bytes);
        bytes[2000]
    });
}
