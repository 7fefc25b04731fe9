//! Beyond the paper: the adaptive data policy against every static LRC
//! policy on the mixed-sharing workload (`dsm_apps::mixed`) — a
//! false-sharing phase, a single-writer phase and a migratory-lock phase
//! back to back, so no static policy wins all three.
//!
//! Prints one JSON row per implementation (total simulated traffic, the
//! page-sharing aggregates and the migration counts per target mode), a
//! Table 6-style summary table, and a final JSON verdict row comparing the
//! best adaptive implementation against every static one on total bytes.
//! `BENCH_adaptive.json` at the repo root records the trajectory across
//! commits.
//!
//! Usage: `cargo run --release -p dsm-bench --bin adaptive [-- --scale tiny|small|paper --procs N --impls NAME,...]`

use dsm_apps::mixed::{self, MixedParams};
use dsm_apps::Scale;
use dsm_bench::{print_json_header, print_table, secs, HarnessOpts};
use dsm_core::{ImplKind, Model, PageMode};

struct Row {
    kind: ImplKind,
    time: dsm_core::SimTime,
    messages: u64,
    bytes: u64,
    misses: u64,
    pinned: usize,
    homed: usize,
    unhomed: usize,
}

fn main() {
    let opts = HarnessOpts::from_args();
    let (scale_name, p) = match opts.scale {
        Scale::Tiny => ("tiny", MixedParams::tiny()),
        Scale::Small => ("small", MixedParams::small()),
        Scale::Paper => ("paper", MixedParams::paper()),
    };
    print_json_header(
        "adaptive",
        "mixed-sharing workload (false sharing + single writer + migratory lock), \
         total simulated traffic per LRC-family implementation",
    );
    // The mixed workload is barriers-and-locks only, so the EC family sits
    // this comparison out; every static and adaptive LRC policy runs.
    let mut all: Vec<ImplKind> = ImplKind::lrc_all().to_vec();
    all.extend(ImplKind::hlrc_all());
    all.extend(ImplKind::adaptive_all());
    let kinds = opts.filter_nonempty(&all);

    let mut rows = Vec::new();
    // Host wall time of each implementation's whole run, pooled into one
    // histogram so the verdict row can report the sweep's host-latency shape
    // alongside the simulated-traffic comparison.
    let mut host_lat = dsm_bench::LatencyHistogram::new();
    for &kind in &kinds {
        let t0 = std::time::Instant::now();
        let (r, ok) = mixed::run(kind, opts.nprocs, &p);
        let host = t0.elapsed();
        host_lat.record_duration(host);
        assert!(ok, "{kind}: mixed-workload contents mismatch");
        let count = |m: fn(&PageMode) -> bool| r.migrations.iter().filter(|c| m(&c.mode)).count();
        let row = Row {
            kind,
            time: r.time,
            messages: r.traffic.messages,
            bytes: r.traffic.bytes,
            misses: r.traffic.access_misses,
            pinned: count(|m| matches!(m, PageMode::Pinned(_))),
            homed: count(|m| matches!(m, PageMode::Home(_))),
            unhomed: count(|m| matches!(m, PageMode::Homeless)),
        };
        println!(
            "{{\"bench\":\"adaptive\",\"impl\":\"{}\",\"scale\":\"{}\",\"procs\":{},\
             \"pages\":{},\"iterations\":{},\"sim_s\":{:.6},\"messages\":{},\"bytes\":{},\
             \"access_misses\":{},\"lock_transfers\":{},\
             \"sharing_publishes\":{},\"sharing_misses\":{},\"sharing_diff_bytes\":{},\
             \"max_region_writers\":{},\
             \"migrations_pinned\":{},\"migrations_homed\":{},\"migrations_homeless\":{},\
             \"host_wall_ms\":{:.3}}}",
            kind.name(),
            scale_name,
            opts.nprocs,
            p.pages,
            p.iterations,
            r.time.as_secs_f64(),
            r.traffic.messages,
            r.traffic.bytes,
            r.traffic.access_misses,
            r.traffic.lock_transfers,
            r.traffic.sharing.publishes,
            r.traffic.sharing.misses,
            r.traffic.sharing.diff_bytes,
            r.traffic.sharing.max_region_writers,
            row.pinned,
            row.homed,
            row.unhomed,
            host.as_secs_f64() * 1e3,
        );
        rows.push(row);
    }

    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.kind.name().to_string(),
                secs(r.time),
                r.messages.to_string(),
                format!("{:.2}", r.bytes as f64 / 1e6),
                r.misses.to_string(),
                format!("{}/{}/{}", r.pinned, r.homed, r.unhomed),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Mixed-sharing workload: static vs adaptive data policies ({})",
            opts.describe()
        ),
        &[
            "Impl",
            "Time (s)",
            "Msgs",
            "MB",
            "Misses",
            "Pin/Home/Homeless",
        ],
        &cells,
    );

    // The verdict the adaptive policy is judged on: whether its best
    // implementation moves fewer total bytes than *every* static policy
    // (`adaptive_determinism` asserts it at 4 processors).  Only meaningful
    // when `--impls` left both sides represented and the run had more than
    // one processor (alone, nothing communicates and every policy ties at
    // zero traffic).
    let statics: Vec<&Row> = rows
        .iter()
        .filter(|r| r.kind.model() != Model::Adaptive)
        .collect();
    let adaptive = rows
        .iter()
        .filter(|r| r.kind.model() == Model::Adaptive)
        .min_by_key(|r| r.bytes);
    if opts.nprocs < 2 {
        return;
    }
    if let (Some(a), false) = (adaptive, statics.is_empty()) {
        let beats_all = statics.iter().all(|s| a.bytes < s.bytes);
        let best_static = statics.iter().min_by_key(|s| s.bytes).expect("non-empty");
        // The margin: how many bytes (and what fraction of the best static
        // policy's traffic) adapting saved.  Signed — a regression shows up
        // as a negative margin in the trajectory file, not just a flipped
        // boolean.
        let margin_bytes = best_static.bytes as i64 - a.bytes as i64;
        let margin_pct = if best_static.bytes > 0 {
            margin_bytes as f64 * 100.0 / best_static.bytes as f64
        } else {
            0.0
        };
        println!(
            "{{\"bench\":\"adaptive\",\"row\":\"verdict\",\"scale\":\"{}\",\"procs\":{},\
             \"best_adaptive\":\"{}\",\"best_adaptive_bytes\":{},\
             \"best_static\":\"{}\",\"best_static_bytes\":{},\
             \"margin_bytes\":{},\"margin_pct\":{:.2},\
             \"adaptive_beats_every_static\":{},{}}}",
            scale_name,
            opts.nprocs,
            a.kind.name(),
            a.bytes,
            best_static.kind.name(),
            best_static.bytes,
            margin_bytes,
            margin_pct,
            beats_all,
            host_lat.json_fields("host_run_"),
        );
    }
}
