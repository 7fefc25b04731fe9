//! Microbenchmarks of the protocol building blocks, driven by a minimal
//! self-contained harness (`harness = false`; the offline build environment
//! has no criterion): the two word-run scans a write travels through (twin
//! compare at release, same-stamp runs at a grant or miss) and the
//! vector-clock merge.  Whole-application host time is perfbench's
//! `paper-apps` workload.
//!
//! Run with `cargo bench -p dsm-bench`.  Each benchmark reports the minimum
//! and mean wall-clock time over its samples; the minimum is the stable
//! number to compare across runs.

use std::time::{Duration, Instant};

use dsm_mem::{changed_word_runs, same_stamp_runs, VectorClock};
use dsm_sim::NodeId;

const SAMPLES: usize = 10;

/// Times `f` over [`SAMPLES`] runs and prints `group/name: min .. mean`.
fn bench<R>(group: &str, name: &str, mut f: impl FnMut() -> R) {
    // One warm-up run so lazily-allocated tables do not skew the first sample.
    std::hint::black_box(f());
    let mut total = Duration::ZERO;
    let mut min = Duration::MAX;
    for _ in 0..SAMPLES {
        let start = Instant::now();
        std::hint::black_box(f());
        let dt = start.elapsed();
        total += dt;
        min = min.min(dt);
    }
    let mean = total / SAMPLES as u32;
    println!("{group}/{name}: min {min:>12.3?}  mean {mean:>12.3?}  ({SAMPLES} samples)");
}

fn main() {
    let twin = vec![0u8; 4096];
    let mut cur = twin.clone();
    for i in (0..4096).step_by(16) {
        cur[i] = 1;
    }
    bench("mechanisms", "changed_word_runs_page", || {
        let mut words = 0;
        changed_word_runs(&twin, &cur, 0..1024, |s, e| words += e - s);
        words
    });
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
}
