//! Beyond the paper: the cost of crash tolerance under each protocol
//! family — checkpoint size and capture time, rollback latency, and lost
//! work — measured by killing one node mid-run on SOR and recovering it
//! from its last barrier checkpoint (`DESIGN.md` §8).
//!
//! For one representative implementation per family (EC-time, LRC-diff,
//! HLRC-diff, ALRC-diff; `--impls` restricts the set) the bin prints a
//! `pre` row (the fault-free baseline) and a `post` row (the same run with
//! a deterministic mid-run crash) and reports the recovery economics: how
//! many checkpoints were cut, their total encoded bytes, the simulated time
//! spent capturing them, and the rollback's restore and lost-work
//! latencies.  That the two runs verify, that the crash fires, and that
//! they are canonically equivalent — identical contents, traffic and
//! per-node statistics — is pinned by the `recovery_equivalence` and
//! `crash_matrix` tests of `dsm-tests`.
//! `BENCH_recovery.json` at the repo root records the trajectory across
//! commits.
//!
//! Usage: `cargo run --release -p dsm-bench --bin recovery [-- --scale tiny|small|paper --procs N --impls NAME,...]`

use dsm_apps::{run_app_opts, App, AppParams, AppReport, RunOpts, Scale};
use dsm_bench::{check, print_json_header, print_table, secs, HarnessOpts};
use dsm_core::{FaultPlan, ImplKind};

/// One implementation's fault-free and crashed-and-recovered runs.
struct Pair {
    kind: ImplKind,
    pre: AppReport,
    post: AppReport,
    host_pre_ms: f64,
    host_post_ms: f64,
}

fn row_json(scale: &str, nprocs: usize, which: &str, kind: ImplKind, r: &AppReport, host_ms: f64) {
    println!(
        "{{\"bench\":\"recovery\",\"row\":\"{which}\",\"impl\":\"{}\",\"scale\":\"{scale}\",\
         \"procs\":{nprocs},\"sim_s\":{:.6},\"messages\":{},\"bytes\":{},\"verified\":{},\
         \"checkpoints\":{},\"checkpoint_bytes\":{},\"ckpt_sim_ns\":{},\
         \"crashes\":{},\"undo_applied\":{},\"restored_words\":{},\
         \"restore_sim_ns\":{},\"lost_sim_ns\":{},\"host_ms\":{host_ms:.1}}}",
        kind.name(),
        r.time.as_secs_f64(),
        r.traffic.messages,
        r.traffic.bytes,
        r.verified,
        r.recovery.checkpoints,
        r.recovery.checkpoint_bytes,
        r.recovery.ckpt_ns,
        r.recovery.crashes,
        r.recovery.undo_applied,
        r.recovery.restored_words,
        r.recovery.restore_ns,
        r.recovery.lost_ns,
    );
}

fn main() {
    let opts = HarnessOpts::from_args();
    let scale_name = match opts.scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Paper => "paper",
    };
    print_json_header(
        "recovery",
        "SOR with one node killed mid-run and rolled back to its last barrier \
         checkpoint; pre = fault-free baseline, post = crashed and recovered",
    );

    // One representative per family: the strongest combination of each
    // (the table3 winners' column picks).
    let families = [
        ImplKind::ec_time(),
        ImplKind::lrc_diff(),
        ImplKind::hlrc_diff(),
        ImplKind::adaptive_diff(),
    ];
    let kinds = opts.filter_nonempty(&families);

    // SOR runs `iterations` red/black pairs plus one final barrier; crash
    // in the middle of that episode sequence, on a node that owns an
    // interior band when there are enough processors.
    let barriers = AppParams::at(opts.scale).sor.iterations as u64 * 2 + 1;
    let fault = FaultPlan::KillAt {
        node: 1 % opts.nprocs as u32,
        barrier: barriers / 2,
    };

    let mut pairs = Vec::new();
    for &kind in &kinds {
        let t0 = std::time::Instant::now();
        let pre = run_app_opts(App::Sor, kind, opts.nprocs, opts.scale, RunOpts::default());
        let host_pre_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = std::time::Instant::now();
        let post = run_app_opts(
            App::Sor,
            kind,
            opts.nprocs,
            opts.scale,
            RunOpts {
                fault,
                ..RunOpts::default()
            },
        );
        let host_post_ms = t1.elapsed().as_secs_f64() * 1e3;

        check(&pre);
        check(&post);

        row_json(scale_name, opts.nprocs, "pre", kind, &pre, host_pre_ms);
        row_json(scale_name, opts.nprocs, "post", kind, &post, host_post_ms);
        pairs.push(Pair {
            kind,
            pre,
            post,
            host_pre_ms,
            host_post_ms,
        });
    }

    let cells: Vec<Vec<String>> = pairs
        .iter()
        .map(|p| {
            let rec = &p.post.recovery;
            vec![
                p.kind.name().to_string(),
                secs(p.pre.time),
                secs(p.post.time),
                rec.checkpoints.to_string(),
                format!("{:.1}", rec.checkpoint_bytes as f64 / 1e3),
                format!("{:.1}", rec.ckpt_ns as f64 / 1e3),
                format!("{:.1}", rec.restore_ns as f64 / 1e3),
                format!("{:.1}", rec.lost_ns as f64 / 1e3),
                format!("{:.0}/{:.0}", p.host_pre_ms, p.host_post_ms),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Crash, checkpoint, recover: SOR with one mid-run crash ({})",
            opts.describe()
        ),
        &[
            "Impl",
            "Pre (s)",
            "Post (s)",
            "Ckpts",
            "Ckpt KB",
            "Ckpt us",
            "Restore us",
            "Lost us",
            "Host ms",
        ],
        &cells,
    );
}
