//! Spans for the traced run: fixed-size records kept in per-worker buffers
//! that are allocated before the run, merged after it, summarised into
//! per-layer percentiles and written out as Chrome trace-event JSON (the
//! format `chrome://tracing` and Perfetto load).

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// A layer boundary the benchmark times around its calls into the library.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// `Dsm::run` called until the worker closure starts.
    Spawn,
    /// The preload that puts every key once, up to its barrier.
    Preload,
    /// `ctx.lock(shard_lock, mode)` of a read.
    Acquire,
    /// `get_into(.., Local, ..)` under the read's guard.
    Probe,
    /// Dropping the read's guard.
    Release,
    /// A whole read: acquire, probe and release.
    Get,
    Put,
    Cas,
    Delete,
    /// `ctx.barrier`.
    Barrier,
    /// The last worker's exit until `Dsm::run` returns.
    Finish,
}

impl SpanKind {
    #[cfg(test)]
    const ALL: [SpanKind; 11] = [
        SpanKind::Spawn,
        SpanKind::Preload,
        SpanKind::Acquire,
        SpanKind::Probe,
        SpanKind::Release,
        SpanKind::Get,
        SpanKind::Put,
        SpanKind::Cas,
        SpanKind::Delete,
        SpanKind::Barrier,
        SpanKind::Finish,
    ];

    /// `<layer>.<span>`: the layer whose public function the span covers.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Spawn => "runtime.spawn",
            SpanKind::Preload => "runtime.preload",
            SpanKind::Acquire => "sync.acquire",
            SpanKind::Probe => "context.probe",
            SpanKind::Release => "sync.release",
            SpanKind::Get => "kvservice.get",
            SpanKind::Put => "kvservice.put",
            SpanKind::Cas => "kvservice.cas",
            SpanKind::Delete => "kvservice.delete",
            SpanKind::Barrier => "sync.barrier",
            SpanKind::Finish => "transport.finish",
        }
    }

    /// True for the spans that a whole read is split into.
    fn is_child(self) -> bool {
        matches!(
            self,
            SpanKind::Acquire | SpanKind::Probe | SpanKind::Release
        )
    }
}

/// One timed interval.  `op` is the index of the operation within its
/// worker's trace (shared by a read and the three spans it splits into), or
/// `u32::MAX` for spans that belong to no operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub kind: SpanKind,
    pub node: u16,
    pub op: u32,
    /// Start, in ns since the round's epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// No operation: the span is round-level.
pub const NO_OP: u32 = u32::MAX;

/// A worker's span buffer.  Its capacity is fixed when it is made; a span
/// that would not fit is counted in `dropped` instead of growing the buffer,
/// so recording never allocates inside the timed section.
#[derive(Debug)]
pub struct SpanBuf {
    epoch: Instant,
    node: u16,
    spans: Vec<Span>,
    pub dropped: u64,
}

impl SpanBuf {
    pub fn new(node: usize, capacity: usize, epoch: Instant) -> Self {
        SpanBuf {
            epoch,
            node: u16::try_from(node).expect("node index fits in u16"),
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, kind: SpanKind, op: u32, start: Instant, end: Instant) {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            kind,
            node: self.node,
            op,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Durations (ns) of every span of `kind`, in recording order.
pub fn durations(spans: &[Span], kind: SpanKind) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| s.dur_ns)
        .collect()
}

/// Writes up to `limit` spans as a Chrome trace-event JSON file: one
/// complete (`"ph":"X"`) event per span, the worker as the thread, the
/// operation index in `args` so a read's parts line up under it.
pub fn write_chrome_trace(path: &Path, spans: &[Span], limit: usize) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    w.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")?;
    for (i, s) in spans.iter().take(limit).enumerate() {
        let sep = if i == 0 { "" } else { ",\n" };
        let (layer, _) = s.kind.name().split_once('.').unwrap_or((s.kind.name(), ""));
        write!(
            w,
            "{sep}{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{}",
            s.kind.name(),
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.node
        )?;
        if s.op != NO_OP {
            write!(
                w,
                ",\"args\":{{\"op\":{},\"child\":{}}}",
                s.op,
                s.kind.is_child()
            )?;
        }
        w.write_all(b"}")?;
    }
    w.write_all(b"\n]}\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_never_grow_past_their_capacity() {
        let t0 = Instant::now();
        let mut b = SpanBuf::new(1, 2, t0);
        for op in 0..5 {
            b.record(SpanKind::Put, op, t0, Instant::now());
        }
        assert_eq!(b.spans().len(), 2);
        assert_eq!(b.spans.capacity(), 2);
        assert_eq!(b.dropped, 3);
        assert_eq!(durations(b.spans(), SpanKind::Put).len(), 2);
        assert!(durations(b.spans(), SpanKind::Get).is_empty());
    }

    #[test]
    fn span_names_are_layer_qualified_metric_names() {
        for k in SpanKind::ALL {
            let name = k.name();
            assert!(crate::report::valid_name(name), "{name}");
            assert!(name.contains('.'), "{name}");
        }
    }

    #[test]
    fn chrome_trace_is_one_event_per_span() {
        let t0 = Instant::now();
        let mut b = SpanBuf::new(0, 4, t0);
        b.record(SpanKind::Acquire, 0, t0, t0);
        b.record(SpanKind::Barrier, NO_OP, t0, t0);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}", std::process::id()));
        let path = dir.join("t.json");
        write_chrome_trace(&path, b.spans(), 10).expect("write trace");
        let text = std::fs::read_to_string(&path).expect("read back");
        std::fs::remove_dir_all(&dir).expect("clean up");
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 2);
        assert!(text.contains("\"name\":\"sync.acquire\",\"cat\":\"sync\""));
        assert!(text.contains("\"args\":{\"op\":0,\"child\":true}"));
        assert!(text.trim_end().ends_with("]}"));
    }
}
