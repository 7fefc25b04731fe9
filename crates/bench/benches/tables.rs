//! Microbenchmarks over the table experiments (scaled down so each sample
//! completes quickly), driven by a minimal self-contained harness (`harness =
//! false`; the offline build environment has no criterion).  One benchmark
//! group per paper table, plus a group for the protocol building blocks.
//!
//! Run with `cargo bench -p dsm-bench`.  Each benchmark reports the minimum
//! and mean wall-clock time over its samples; the minimum is the stable
//! number to compare across runs.

use std::time::{Duration, Instant};

use dsm_apps::{run_app, App, Scale};
use dsm_core::ImplKind;
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

/// Table 3: best-EC vs best-LRC candidates per application (tiny scale).
fn table3() {
    for app in [App::Sor, App::IntegerSort, App::Quicksort, App::Fft3d] {
        for kind in [
            ImplKind::ec_time(),
            ImplKind::lrc_diff(),
            ImplKind::hlrc_diff(),
        ] {
            bench(
                "table3_ec_vs_lrc",
                &format!("{}/{}", app.name(), kind.name()),
                || run_app(app, kind, 4, Scale::Tiny),
            );
        }
    }
}

/// Table 4: the three EC implementations (tiny scale).
fn table4() {
    for kind in ImplKind::ec_all() {
        bench("table4_ec_impls", &format!("IS/{}", kind.name()), || {
            run_app(App::IntegerSort, kind, 4, Scale::Tiny)
        });
    }
}

/// Table 5: the three homeless LRC implementations (tiny scale).
fn table5() {
    for kind in ImplKind::lrc_all() {
        bench("table5_lrc_impls", &format!("SOR/{}", kind.name()), || {
            run_app(App::Sor, kind, 4, Scale::Tiny)
        });
    }
}

/// Table 6: the three home-based LRC implementations (tiny scale).
fn table6() {
    for kind in ImplKind::hlrc_all() {
        bench("table6_hlrc_impls", &format!("SOR/{}", kind.name()), || {
            run_app(App::Sor, kind, 4, Scale::Tiny)
        });
    }
}

/// Protocol building blocks: the two word-run scans a write travels
/// through (twin compare at release, same-stamp runs at a grant or miss),
/// and vector-clock operations.
fn mechanisms() {
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

fn main() {
    table3();
    table4();
    table5();
    table6();
    mechanisms();
}
