//! Section 8.1 ablation: the compiler optimisation that splits the dirty-bit
//! stores out of the computation loop (the paper reports a 16% improvement
//! for SOR under EC-ci, 5% for SOR+, 2% for Water, and none elsewhere).

use dsm_apps::{run_app_opts, App, RunOpts, Scale};
use dsm_bench::{check, print_table, secs, HarnessOpts};
use dsm_core::ImplKind;

fn run_at(app: App, nprocs: usize, scale: Scale, naive: bool) -> (String, String) {
    let opts = RunOpts {
        ci_loop_optimization: !naive,
        ..RunOpts::default()
    };
    let r = run_app_opts(app, ImplKind::ec_ci(), nprocs, scale, opts);
    check(&r);
    (
        secs(r.time),
        format!("{}", r.stats.total().instrumented_writes),
    )
}

fn main() {
    let opts = HarnessOpts::from_args();
    let mut rows = Vec::new();
    for app in [App::Sor, App::SorPlus, App::Water] {
        let (opt_t, opt_w) = run_at(app, opts.nprocs, opts.scale, false);
        let (naive_t, naive_w) = run_at(app, opts.nprocs, opts.scale, true);
        rows.push(vec![app.name().to_string(), opt_t, opt_w, naive_t, naive_w]);
    }
    print_table(
        &format!(
            "Section 8.1: dirty-bit loop-splitting optimisation under EC-ci ({})",
            opts.describe()
        ),
        &[
            "Application",
            "optimised (s)",
            "instr/node",
            "naive (s)",
            "instr/node",
        ],
        &rows,
    );
}
