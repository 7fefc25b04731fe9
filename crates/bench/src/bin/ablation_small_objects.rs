//! Section 4.2 ablation: eager twinning of small EC objects at write-lock
//! acquire (this paper's improvement) vs. the Midway VM implementation that
//! write-protects every object and takes a fault on the first write.
//!
//! The difference shows up as protection faults and execution time for the
//! applications dominated by small bound objects (Water, Barnes-Hut, IS).

use dsm_apps::{run_app_opts, App, RunOpts, Scale};
use dsm_bench::{print_table, secs, HarnessOpts};
use dsm_core::ImplKind;

fn row(app: App, nprocs: usize, scale: Scale) -> Vec<String> {
    let run = |opts| run_app_opts(app, ImplKind::ec_time(), nprocs, scale, opts);
    let eager = run(RunOpts::default());
    let faulting = run(RunOpts {
        ec_small_object_limit: 0,
        ..RunOpts::default()
    });
    vec![
        app.name().to_string(),
        secs(eager.time),
        format!("{}", eager.traffic.write_faults),
        secs(faulting.time),
        format!("{}", faulting.traffic.write_faults),
    ]
}

fn main() {
    let opts = HarnessOpts::from_args();
    let rows: Vec<Vec<String>> = [App::Water, App::BarnesHut, App::IntegerSort, App::Quicksort]
        .into_iter()
        .map(|app| row(app, opts.nprocs, opts.scale))
        .collect();
    print_table(
        &format!(
            "Section 4.2: eager small-object twins vs. copy-on-write faults, EC-time ({})",
            opts.describe()
        ),
        &[
            "Application",
            "eager (s)",
            "eager faults",
            "CoW (s)",
            "CoW faults",
        ],
        &rows,
    );
}
