//! The DSM's benchmark: KV read and write traffic plus the paper's apps,
//! end to end (`--trace 0`) and per layer (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload kv-read|kv-write|paper-apps --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a row envelope (the run's identity, then every metric with its
//! unit and sample count) and, as the last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}`.  A traced run also
//! writes a Chrome trace-event file under `perfbench/out/`.  See
//! `perfbench/README.md` for the workloads and metrics.

mod apps;
mod kv;
mod layers;
mod report;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{Envelope, Outcome};

/// Simulated processors per run: one worker thread each, so a run needs at
/// most two cores.
pub const PROCS: usize = 2;

/// The workload names `--workload` accepts.
pub const WORKLOADS: [&str; 3] = ["kv-read", "kv-write", "paper-apps"];

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?} (one of {WORKLOADS:?})"));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// How big a run is: the sizes the benchmark reports, or a smoke-test size.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Size {
    Full,
    Smoke,
}

/// Runs one workload and describes it.
fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    size: Size,
    out_dir: Option<&Path>,
) -> (Outcome, Envelope) {
    let mut env = Envelope {
        rev: revision(),
        date: report::today_utc(),
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        workload: workload.to_string(),
        seed,
        impls: String::new(),
        backend: "sim".to_string(),
        procs: PROCS,
        trace: traced,
    };
    let outcome = match workload {
        "kv-read" | "kv-write" => {
            let mut w = if workload == "kv-read" {
                kv::KvWorkload::read()
            } else {
                kv::KvWorkload::write()
            };
            if size == Size::Smoke {
                w = w.with_ops(4096);
            }
            env.impls = w.kind.name();
            env.backend = w.transport.label().to_string();
            kv::run(&w, seed, seconds, traced, out_dir)
        }
        "paper-apps" => {
            env.impls = apps::impls().map(|k| k.name()).join(",");
            let scale = match size {
                Size::Full => dsm_apps::Scale::Paper,
                Size::Smoke => dsm_apps::Scale::Tiny,
            };
            apps::run(scale, seconds, traced)
        }
        other => unreachable!("parse_args admits only known workloads, got {other}"),
    };
    (outcome, env)
}

/// The source revision: `BENCH_REV` when set, else `git rev-parse` inside a
/// git checkout, else `unknown`.
fn revision() -> String {
    if let Ok(rev) = std::env::var("BENCH_REV") {
        return rev;
    }
    if Path::new(".git").exists() {
        if let Ok(out) = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
        {
            if out.status.success() {
                return String::from_utf8_lossy(&out.stdout).trim().to_string();
            }
        }
    }
    "unknown".to_string()
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let (outcome, env) = run_workload(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Size::Full,
        Some(&out_dir),
    );
    for p in &outcome.problems {
        eprintln!("perfbench: {p}");
    }
    println!("{}", report::envelope_json(&env, &outcome));
    println!("{}", report::result_json(&outcome));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_kvservice::workload::KeySampler;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_and_reject() {
        assert_eq!(
            args("--workload kv-read --seed 7 --seconds 2.5 --trace 1"),
            Ok(Args {
                workload: "kv-read".into(),
                seed: 7,
                seconds: 2.5,
                trace: true
            })
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload kv-read --trace 2").is_err());
        assert!(args("--workload kv-read --seconds -1").is_err());
        assert!(args("--workload kv-read --seed").is_err());
        assert!(args("--workload kv-read --bogus 1").is_err());
    }

    #[test]
    fn same_seed_same_trace_other_seed_other_trace() {
        for w in [kv::KvWorkload::read(), kv::KvWorkload::write()] {
            let w = w.with_ops(2000);
            let s = KeySampler::zipf(w.keys(), 0.99);
            let a = w.trace(&s, 42, 3, 1);
            assert_eq!(a, w.trace(&s, 42, 3, 1), "{}: not replayable", w.name);
            assert_ne!(a, w.trace(&s, 43, 3, 1), "{}: seed ignored", w.name);
            assert_ne!(a, w.trace(&s, 42, 4, 1), "{}: round ignored", w.name);
            assert_ne!(a, w.trace(&s, 42, 3, 0), "{}: node ignored", w.name);
        }
    }

    /// The metric names BENCHMARK.json declares in its `section` list.
    fn declared(section: &str) -> Vec<String> {
        let text = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json next to the benchmark directory");
        let start = text
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
        let body = &text[start..];
        let body = &body[..body.find(']').expect("list ends")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn smoke_every_workload_reports_exactly_the_declared_metrics() {
        let e2e = declared("end_to_end");
        let per_layer = declared("per_layer");
        assert!(e2e.contains(&"setup_s".to_string()));
        for workload in WORKLOADS {
            for traced in [false, true] {
                let (out, env) = run_workload(workload, 5, 0.0, traced, Size::Smoke, None);
                assert!(
                    out.correct(),
                    "{workload} trace={traced}: {:?} failed={}",
                    out.problems,
                    out.failed
                );
                assert_eq!(env.procs, PROCS);
                let names: Vec<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
                let want = if traced { &per_layer } else { &e2e };
                assert_eq!(&names, want, "{workload} trace={traced}");
                if !traced {
                    for m in out.metrics.iter() {
                        assert!(m.value > 0.0, "{workload}: {} is {}", m.name, m.value);
                    }
                }
                let last = report::result_json(&out);
                assert!(last.starts_with("{\"correct\":true,\"attempted\":"));
            }
        }
    }
}
