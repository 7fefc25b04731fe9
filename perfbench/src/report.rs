//! What a run reports: named metrics with units and sample counts, the
//! percentile and median helpers behind them, and the two JSON lines the
//! benchmark prints (the row envelope and the final result object).

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// How many measurements the value summarises.
    pub samples: u64,
}

/// An ordered set of metrics with unique, checked names.
#[derive(Debug, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Adds a metric.
    ///
    /// # Panics
    ///
    /// Panics if the name or unit breaks the charset rules or the name is
    /// already present: both are bugs in this benchmark, not in its input.
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64, samples: u64) {
        let name = name.into();
        assert!(valid_name(&name), "bad metric name {name:?}");
        assert!(valid_unit(unit), "bad unit {unit:?} for {name}");
        assert!(value.is_finite(), "{name} is not finite: {value}");
        assert!(self.get(&name).is_none(), "duplicate metric {name}");
        self.0.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }
}

/// A metric name: starts with a letter or digit, at most 64 characters of
/// letters, digits, `_`, `.` and `-`.
pub fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 characters of letters, digits, `_`, `/`, `%`, `.`, `-`.
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The `q`-quantile of ascending `sorted` samples, interpolating linearly
/// between the two nearest order statistics.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unordered samples (sorts them in place).
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(v, 0.5)
}

/// The tail quantile a timing is reported at: p99 when at least ten
/// samples lie beyond it (1000 samples or more), else the slowest sample.
pub fn tail_quantile(samples: usize) -> f64 {
    if samples >= 1000 {
        0.99
    } else {
        1.0
    }
}

/// Median and tail of one round's latency samples (ns), in µs, as
/// `(p50, tail)`, the tail following [`tail_quantile`].
pub fn latency_summary(samples: &mut [u64]) -> (f64, f64) {
    samples.sort_unstable();
    let us: Vec<f64> = samples.iter().map(|&ns| ns as f64 / 1e3).collect();
    (quantile(&us, 0.5), quantile(&us, tail_quantile(us.len())))
}

/// Identifies the run a row came from.
#[derive(Debug, Clone)]
pub struct Envelope {
    pub rev: String,
    pub date: String,
    pub host_cores: usize,
    pub workload: String,
    pub seed: u64,
    pub impls: String,
    pub backend: String,
    pub procs: usize,
    pub trace: bool,
}

/// The outcome of one benchmark invocation.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness gates that did not hold, one line each.
    pub problems: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }
}

/// Formats a float so it parses back to the same value (JSON has no NaN or
/// infinity; [`Metrics::push`] rejects those).
fn num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The row envelope: the run's identity, then every metric with its unit
/// and sample count, then the correctness verdict.
pub fn envelope_json(env: &Envelope, out: &Outcome) -> String {
    let mut s = format!(
        "{{\"bench\":\"perfbench\",\"rev\":\"{}\",\"date\":\"{}\",\"host_cores\":{},\
         \"workload\":\"{}\",\"seed\":{},\"impl\":\"{}\",\"backend\":\"{}\",\"procs\":{},\
         \"trace\":{},\"metrics\":{{",
        escape(&env.rev),
        escape(&env.date),
        env.host_cores,
        escape(&env.workload),
        env.seed,
        escape(&env.impls),
        escape(&env.backend),
        env.procs,
        u8::from(env.trace),
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\",\"samples\":{}}}",
            m.name,
            num(m.value),
            m.unit,
            m.samples
        );
    }
    let _ = write!(
        s,
        "}},\"attempted\":{},\"failed\":{},\"error_rate\":{},\"problems\":[",
        out.attempted,
        out.failed,
        num(out.failed as f64 / out.attempted.max(1) as f64)
    );
    for (i, p) in out.problems.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(s, "{sep}\"{}\"", escape(p));
    }
    s.push_str("]}");
    s
}

/// The final line: exactly `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(out: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        out.correct(),
        out.attempted,
        out.failed
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name,
            num(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Today's UTC date as `YYYY-MM-DD` from the system clock (kept here so
/// the benchmark depends on the library crates only).
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let z = (secs / 86_400) as i64 + 719_468;
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

/// Peak resident set of this process in MB (`VmHWM`), or `None` where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_charset() {
        for ok in [
            "ops_per_s",
            "sync.acquire_ns.p99",
            "apps.Barnes-Hut.ALRC-diff.host_s",
            "apps.3D-FFT.reference_s",
            "0",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "apps.SOR+.EC-time.host_s",
            "has space",
            "ünïcode",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "MB", "ratio"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "µs", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "duplicate metric")]
    fn metric_names_are_unique() {
        let mut m = Metrics::default();
        m.push("a", "s", 1.0, 1);
        m.push("a", "s", 2.0, 1);
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        let mut odd = [5.0, 1.0, 3.0];
        assert_eq!(median(&mut odd), 3.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        for n in [1000usize, 1001, 100_000] {
            let q = tail_quantile(n);
            assert_eq!(q, 0.99);
            assert!((n as f64 * (1.0 - q)).round() as usize >= 10, "n={n}");
        }
        for n in [1usize, 3, 24, 999] {
            assert_eq!(tail_quantile(n), 1.0, "n={n}: the slowest sample");
        }
    }

    #[test]
    fn latency_summary_reports_microseconds() {
        let mut ns: Vec<u64> = (1..=2000).map(|i| i * 1000).collect();
        let (p50, tail) = latency_summary(&mut ns);
        assert!((p50 - 1000.5).abs() < 1e-9);
        assert!((tail - 1980.01).abs() < 1e-6);
        let mut few = vec![7_000, 3_000];
        assert_eq!(latency_summary(&mut few), (5.0, 7.0));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut metrics = Metrics::default();
        metrics.push("latency_ms", "ms", 1.25, 10);
        metrics.push("setup_s", "s", 2.0, 3);
        let out = Outcome {
            attempted: 10,
            failed: 0,
            problems: Vec::new(),
            metrics,
        };
        assert_eq!(
            result_json(&out),
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\
             \"latency_ms\":{\"value\":1.25,\"unit\":\"ms\"},\
             \"setup_s\":{\"value\":2.0,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn dates_are_civil() {
        let d = today_utc();
        assert_eq!(d.len(), 10);
        assert_eq!(&d[4..5], "-");
    }
}
