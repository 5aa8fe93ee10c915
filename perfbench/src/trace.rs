//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! A traced run records a span around every `Statement::parse`,
//! `Toorjah::prepare`, `Prepared::execute` and wire round trip: name,
//! start, end, the span that caused it and the statement it belongs to.
//! Source calls are timed one by one too, but folded into their enclosing
//! `execute` span when it closes (count, summed duration, and the time at
//! least one was in flight): `paper_fig6` makes about 165,000 source calls
//! per pass, and a span each would take hundreds of megabytes. Spans stay
//! in memory and are written out when the run ends; the per-layer metrics
//! are computed from them. An untraced run records nothing and pays one
//! branch per boundary.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Marks "no span".
pub const NONE: usize = usize::MAX;

/// The source calls made while an `execute` span was open.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SourceCalls {
    pub calls: u64,
    /// Summed duration of the calls.
    pub busy_ns: u64,
    /// Wall time with at least one call in flight.
    pub covered_ns: u64,
}

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub statement: u64,
    pub source: SourceCalls,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder. Source calls happen on the engine's worker threads;
/// the in-process workloads run one statement at a time, so every call in
/// flight belongs to the one open `execute` span.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    calls: Mutex<Vec<(u64, u64)>>,
    statement: AtomicU64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            calls: Mutex::new(Vec::new()),
            statement: AtomicU64::new(0),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span and returns its id ([`NONE`] when tracing is off).
    pub fn begin(&self, name: &'static str, parent: usize) -> usize {
        if !self.enabled {
            return NONE;
        }
        let span = Span {
            name,
            start_ns: self.ns(Instant::now()),
            end_ns: 0,
            parent: (parent != NONE).then_some(parent),
            statement: self.statement.load(Ordering::Relaxed),
            source: SourceCalls::default(),
        };
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Closes a span opened by [`Tracer::begin`], folding into it the
    /// source calls made since the previous span closed.
    pub fn end(&self, id: usize) {
        if id == NONE {
            return;
        }
        let now = self.ns(Instant::now());
        let calls = std::mem::take(&mut *self.calls.lock().expect("call recorder poisoned"));
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        let span = &mut spans[id];
        span.end_ns = now;
        span.source = SourceCalls {
            calls: calls.len() as u64,
            busy_ns: calls.iter().map(|&(a, b)| b - a).sum(),
            covered_ns: covered_ns(calls),
        };
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Times one source call.
    pub fn source_call<T>(&self, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let interval = (self.ns(start), self.ns(Instant::now()));
        self.calls
            .lock()
            .expect("call recorder poisoned")
            .push(interval);
        out
    }

    /// Records a finished root span of `statement`, for callers on several
    /// threads that time the interval themselves.
    pub fn record(&self, name: &'static str, statement: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: None,
            statement,
            source: SourceCalls::default(),
        };
        self.spans
            .lock()
            .expect("span recorder poisoned")
            .push(span);
    }

    /// Sets the statement id later spans are tagged with.
    pub fn set_statement(&self, statement: u64) {
        self.statement.store(statement, Ordering::Relaxed);
    }

    /// Drops what was recorded so far (the warm-up's), so the trace and the
    /// per-layer metrics cover the timed phase. No span may be open.
    pub fn clear(&self) {
        self.spans.lock().expect("span recorder poisoned").clear();
        self.calls.lock().expect("call recorder poisoned").clear();
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"statement\":{},\"source_calls\":{},\"source_busy_ns\":{},\"source_covered_ns\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.statement,
                s.source.calls,
                s.source.busy_ns,
                s.source.covered_ns
            )?;
        }
        out.flush()
    }
}

/// Total length covered by a set of intervals, overlaps counted once.
pub fn covered_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0u64, 0u64);
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Per-layer times of the in-process workloads, summed over statements.
#[derive(Debug, Default, PartialEq)]
pub struct LayerTimes {
    pub statements: u64,
    pub parse_ns: u64,
    pub prepare_ns: u64,
    pub execute_ns: u64,
    /// `execute` time not covered by a source call.
    pub execute_self_ns: u64,
    /// Summed duration of source calls.
    pub source_busy_ns: u64,
    /// Wall time with at least one source call in flight.
    pub source_wait_ns: u64,
}

/// Folds the spans of an in-process run into per-layer times.
pub fn layer_times(spans: &[Span]) -> LayerTimes {
    let mut t = LayerTimes::default();
    for s in spans {
        match s.name {
            "statement" => t.statements += 1,
            "parse" => t.parse_ns += s.duration_ns(),
            "prepare" => t.prepare_ns += s.duration_ns(),
            "execute" => {
                let waited = s.source.covered_ns.min(s.duration_ns());
                t.execute_ns += s.duration_ns();
                t.execute_self_ns += s.duration_ns() - waited;
                t.source_wait_ns += waited;
                t.source_busy_ns += s.source.busy_ns;
            }
            _ => {}
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_counts_overlaps_once() {
        assert_eq!(covered_ns(vec![]), 0);
        assert_eq!(covered_ns(vec![(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(covered_ns(vec![(20, 30), (0, 100)]), 100);
        assert_eq!(covered_ns(vec![(0, 10), (10, 20)]), 20);
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_source_calls_cover() {
        let span = |name, start_ns, end_ns, source| Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            statement: 1,
            source,
        };
        let none = SourceCalls::default();
        // Two overlapping calls on two threads (60..100, 80..120) and one
        // more (150..160): 90 ns busy, 70 ns in flight.
        let calls = SourceCalls {
            calls: 3,
            busy_ns: 90,
            covered_ns: covered_ns(vec![(60, 100), (80, 120), (150, 160)]),
        };
        let spans = vec![
            span("statement", 0, 200, none),
            span("parse", 0, 10, none),
            span("prepare", 10, 40, none),
            span("execute", 40, 200, calls),
        ];
        let t = layer_times(&spans);
        assert_eq!(t.statements, 1);
        assert_eq!((t.parse_ns, t.prepare_ns, t.execute_ns), (10, 30, 160));
        assert_eq!((t.source_busy_ns, t.source_wait_ns), (90, 70));
        assert_eq!(t.execute_self_ns, 160 - 70);
    }

    #[test]
    fn source_calls_fold_into_the_span_that_closes_next() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("parse", NONE, || 7), 7);
        assert_eq!(tracer.source_call(|| 8), 8);
        assert!(tracer.spans().is_empty());

        let tracer = Tracer::new(true);
        let root = tracer.begin("statement", NONE);
        tracer.span("parse", root, || ());
        let execute = tracer.begin("execute", root);
        tracer.source_call(|| std::thread::sleep(std::time::Duration::from_millis(1)));
        tracer.source_call(|| ());
        tracer.end(execute);
        tracer.end(root);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].source.calls, 0);
        assert_eq!(spans[2].source.calls, 2);
        assert!(spans[2].source.busy_ns >= 1_000_000);
        assert!(spans[2].source.covered_ns <= spans[2].duration_ns());
        assert_eq!(spans[0].source.calls, 0);
        assert!(spans[0].end_ns >= spans[2].end_ns);
    }
}
