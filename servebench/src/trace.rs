//! Spans around the benchmark's calls into each crate's public functions.
//!
//! Each client thread owns one [`SpanBuf`]; nothing is shared while the run
//! measures, and nothing is written until it ends. An untraced run never
//! creates a buffer, so its request path does no span work at all.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. Spans of one request share `request`; `parent` names the
/// span that caused this one (`None` for the request's root span).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index of the request in the workload's stream.
    pub request: u64,
    /// The layer boundary, e.g. `query.encode` or `serve.submit`.
    pub name: &'static str,
    /// The enclosing span's name.
    pub parent: Option<&'static str>,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn micros(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1000.0
    }
}

/// A thread's in-memory span buffer.
#[derive(Debug)]
pub struct SpanBuf {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanBuf {
    /// An empty buffer timing against `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self { epoch, spans: Vec::with_capacity(1 << 14) }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<T>(
        &mut self,
        request: u64,
        name: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span { request, name, parent, start_ns, end_ns });
        out
    }

    /// Records an already-timed span.
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Durations (µs) of every span named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(Span::micros).collect()
}

/// Renders spans as JSON lines, one span per line.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = s.parent.map_or_else(|| "null".to_owned(), |p| format!("\"{p}\""));
        let _ = writeln!(
            out,
            "{{\"request\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.request, s.name, parent, s.start_ns, s.end_ns
        );
    }
    out
}
