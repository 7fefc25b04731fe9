//! Shared harness code for the table-regeneration binaries.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` that re-runs the corresponding experiment on the simulated
//! cluster and prints the same rows the paper reports:
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table 1 — the trapping x collection combinations |
//! | `table2` | Table 2 — application parameters |
//! | `table3` | Table 3 — best EC vs best LRC vs best HLRC execution times (+ 1 proc.) |
//! | `tables` | Tables 4–6 — per-combination execution times of the EC, LRC, HLRC and ALRC families |
//! | `traffic` | Section 7.2 — message counts and megabytes per application |
//! | `scaling` | host wall-clock vs simulated time at 8/16/32 processors (JSON) |
//! | `adaptive` | beyond the paper — mixed-sharing workload, static vs adaptive policies (JSON) |
//! | `kv` | beyond the paper — closed-loop sharded KV/cache tier, throughput + p50/p99/p999 (JSON) |
//! | `water_restructured` | Section 7.2 — the restructured Water experiment |
//! | `ablation_ci_opt` | Section 8.1 — the dirty-bit loop-splitting optimisation |
//! | `ablation_small_objects` | Section 4.2 — eager small-object twins vs page faults |
//!
//! All binaries accept `--scale tiny|small|paper` (default `small`) and
//! `--procs N` (default 8).  The binaries that sweep implementations —
//! `table3`, `tables`, `traffic`, `scaling`, `hotpath`, `adaptive`, the
//! transport bins — also honor `--impls NAME[,NAME...]` (a comma-separated
//! subset of the twelve implementation names, e.g.
//! `--impls EC-time,HLRC-diff,ALRC-diff`; default: all); the parameter
//! tables (`table1`, `table2`) and the fixed-pair experiments
//! (`water_restructured`, the ablations) ignore it.
//!
//! The repository's end-to-end benchmark is a separate package, `perfbench`
//! (see its README):
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload kv-read|kv-write|paper-apps --seed N --seconds S --trace 0|1`.
//!
//! The JSON-emitting binaries all start their output with the standard
//! header line from [`print_json_header`], so the `BENCH_*.json` trajectory
//! files at the repo root carry a `date` and `host_note` alongside the data
//! rows regardless of which binary produced them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;

pub use hist::LatencyHistogram;

use dsm_apps::{run_app, App, AppReport, Scale};
use dsm_core::ImplKind;

/// Command-line options shared by the table binaries.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// Problem scale.
    pub scale: Scale,
    /// Number of simulated processors.
    pub nprocs: usize,
    /// Implementations to run (`--impls`); `None` means every implementation
    /// a binary would normally run.
    pub impls: Option<Vec<ImplKind>>,
}

impl Default for HarnessOpts {
    fn default() -> Self {
        HarnessOpts {
            scale: Scale::Small,
            nprocs: 8,
            impls: None,
        }
    }
}

impl HarnessOpts {
    /// Parses `--scale`, `--procs` and `--impls` from the process arguments.
    pub fn from_args() -> Self {
        let mut opts = HarnessOpts::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" if i + 1 < args.len() => {
                    opts.scale = match args[i + 1].as_str() {
                        "tiny" => Scale::Tiny,
                        "small" => Scale::Small,
                        "paper" => Scale::Paper,
                        other => panic!("unknown scale '{other}' (use tiny|small|paper)"),
                    };
                    i += 2;
                }
                "--procs" if i + 1 < args.len() => {
                    opts.nprocs = args[i + 1].parse().expect("--procs takes a number");
                    i += 2;
                }
                "--impls" if i + 1 < args.len() => {
                    let kinds: Vec<ImplKind> = args[i + 1]
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(|name| {
                            ImplKind::from_name(name.trim()).unwrap_or_else(|e| panic!("{e}"))
                        })
                        .collect();
                    assert!(!kinds.is_empty(), "--impls takes at least one name");
                    opts.impls = Some(kinds);
                    i += 2;
                }
                other => panic!("unknown argument '{other}'"),
            }
        }
        opts
    }

    /// Restricts `kinds` to the `--impls` selection, preserving order.  With
    /// no `--impls` the input is returned unchanged; the result may be empty
    /// (the caller skips that family).
    pub fn filter(&self, kinds: &[ImplKind]) -> Vec<ImplKind> {
        match &self.impls {
            None => kinds.to_vec(),
            Some(sel) => kinds.iter().copied().filter(|k| sel.contains(k)).collect(),
        }
    }

    /// [`HarnessOpts::filter`] for bins that sweep a fixed implementation
    /// list: panics when `--impls` matches none of them, because a silent
    /// empty sweep would look like a green run to CI.
    pub fn filter_nonempty(&self, kinds: &[ImplKind]) -> Vec<ImplKind> {
        let filtered = self.filter(kinds);
        assert!(
            !filtered.is_empty(),
            "--impls matched none of the implementations this bin offers ({})",
            kinds
                .iter()
                .map(|k| k.name())
                .collect::<Vec<_>>()
                .join(", ")
        );
        filtered
    }

    /// A short human-readable description of the options.
    pub fn describe(&self) -> String {
        let mut s = format!("{:?} scale, {} processors", self.scale, self.nprocs);
        if let Some(sel) = &self.impls {
            let names: Vec<String> = sel.iter().map(|k| k.name()).collect();
            s.push_str(&format!(", impls {}", names.join(",")));
        }
        s
    }
}

/// The applications in the order the paper's tables use.
pub fn table_apps() -> Vec<App> {
    App::ALL.to_vec()
}

/// Prints the standard one-line JSON metadata header every JSON-emitting
/// bench binary starts with, so the rows collected into the `BENCH_*.json`
/// trajectory files are self-describing: which bench produced them, on what
/// date, and under what conditions.
pub fn print_json_header(bench: &str, host_note: &str) {
    println!(
        "{{\"bench\":\"{bench}\",\"row\":\"header\",\"date\":\"{}\",\"host_note\":\"{host_note}\"}}",
        today_utc()
    );
}

/// Today's UTC date as `YYYY-MM-DD`, from the system clock alone (the
/// harness takes no date-handling dependency).
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    civil_from_days((secs / 86_400) as i64)
}

/// Converts days since 1970-01-01 to a civil `YYYY-MM-DD` date (the
/// era-decomposition algorithm commonly used for proleptic-Gregorian
/// conversions).
fn civil_from_days(days: i64) -> String {
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Runs one application under every implementation of one model family
/// (restricted by `--impls`) and returns the reports in the same order.  An
/// empty result means the whole family was filtered out.
pub fn run_family(app: App, kinds: &[ImplKind], opts: &HarnessOpts) -> Vec<AppReport> {
    opts.filter(kinds)
        .into_iter()
        .map(|kind| run_app(app, kind, opts.nprocs, opts.scale))
        .collect()
}

/// Picks the report with the lowest simulated time, if any survived the
/// `--impls` filter.
pub fn best(reports: &[AppReport]) -> Option<&AppReport> {
    reports.iter().min_by(|a, b| a.time.cmp(&b.time))
}

/// Formats a simulated time in seconds with two decimals, like the paper.
pub fn secs(t: dsm_core::SimTime) -> String {
    format!("{:.2}", t.as_secs_f64())
}

/// Prints a table header followed by aligned rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n{title}");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats one table cell from a family's best report, or the `-`
/// placeholder when the whole family was filtered out by `--impls`.
pub fn opt_col(report: Option<&AppReport>, f: impl Fn(&AppReport) -> String) -> String {
    report.map_or_else(|| "-".to_string(), f)
}

/// Prints one family table (tables 4, 5 and 6): one row per application, one
/// execution-time column per implementation of the family that survived the
/// `--impls` filter.  `check` is called on every report (the bins pass
/// [`check`]; tests can pass a recording closure).
pub fn print_family_times(
    title: &str,
    family: &[ImplKind],
    apps: &[App],
    opts: &HarnessOpts,
    check: impl Fn(&AppReport),
) {
    let kinds = opts.filter(family);
    if kinds.is_empty() {
        println!("\n{title}: every implementation filtered out by --impls");
        return;
    }
    let mut rows = Vec::new();
    for &app in apps {
        let reports = run_family(app, &kinds, opts);
        for r in &reports {
            check(r);
        }
        let mut row = vec![app.name().to_string()];
        row.extend(reports.iter().map(|r| secs(r.time)));
        rows.push(row);
    }
    let mut header = vec!["Application".to_string()];
    header.extend(kinds.iter().map(|k| k.name()));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    print_table(
        &format!("{title} ({})", opts.describe()),
        &header_refs,
        &rows,
    );
}

/// Warns (loudly) if a run failed verification against the sequential output.
pub fn check(report: &AppReport) {
    if !report.verified {
        eprintln!(
            "WARNING: {} under {} did not match the sequential output",
            report.app, report.kind
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_picks_the_fastest() {
        let opts = HarnessOpts {
            scale: Scale::Tiny,
            nprocs: 2,
            impls: None,
        };
        let reports = run_family(App::IntegerSort, &ImplKind::ec_all(), &opts);
        let b = best(&reports).expect("unfiltered family is non-empty");
        assert!(reports.iter().all(|r| r.time >= b.time));
    }

    #[test]
    fn impls_filter_restricts_families() {
        let opts = HarnessOpts {
            scale: Scale::Tiny,
            nprocs: 2,
            impls: Some(vec![ImplKind::lrc_diff(), ImplKind::hlrc_diff()]),
        };
        assert_eq!(opts.filter(&ImplKind::ec_all()), vec![]);
        assert_eq!(
            opts.filter(&ImplKind::lrc_all()),
            vec![ImplKind::lrc_diff()]
        );
        assert_eq!(
            opts.filter(&ImplKind::hlrc_all()),
            vec![ImplKind::hlrc_diff()]
        );
        let reports = run_family(App::IntegerSort, &ImplKind::ec_all(), &opts);
        assert!(reports.is_empty());
        assert!(best(&reports).is_none());
        assert!(opts.describe().contains("LRC-diff,HLRC-diff"));
    }

    #[test]
    fn secs_formats_two_decimals() {
        assert_eq!(secs(dsm_core::SimTime::from_millis(1500)), "1.50");
    }

    #[test]
    fn civil_dates_match_known_days() {
        assert_eq!(civil_from_days(0), "1970-01-01");
        assert_eq!(civil_from_days(10_957), "2000-01-01");
        assert_eq!(civil_from_days(19_782), "2024-02-29");
        assert_eq!(civil_from_days(-1), "1969-12-31");
    }

    #[test]
    fn today_is_a_plausible_iso_date() {
        let d = today_utc();
        assert_eq!(d.len(), 10);
        assert_eq!(d.as_bytes()[4], b'-');
        assert_eq!(d.as_bytes()[7], b'-');
        assert!(d[..4].parse::<i32>().expect("year") >= 2024);
    }
}
