//! What the two in-process workloads share: one statement as the three
//! facade calls `ask` is made of, and the layer times folded from its
//! spans.

use std::time::{Duration, Instant};

use toorjah_system::{ExecMode, Response, Statement, Toorjah};

use crate::layers::Times;
use crate::trace::{layer_times, Span, Tracer, NONE};

/// Parses, prepares and executes `text`, timing the three calls together.
pub fn run_statement(
    system: &Toorjah,
    text: &str,
    mode: ExecMode,
    tracer: &Tracer,
    id: u64,
) -> Result<(Response, Duration), String> {
    tracer.set_statement(id);
    let started = Instant::now();
    let root = tracer.begin("statement", NONE);
    let statement = tracer
        .span("parse", root, || Statement::parse(text, system.schema()))
        .map_err(|e| format!("{text}: {e}"))?;
    let prepared = tracer
        .span("prepare", root, || system.prepare(&statement))
        .map_err(|e| format!("{text}: {e}"))?;
    let response = tracer.span("execute", root, || prepared.execute(mode));
    tracer.end(root);
    let latency = started.elapsed();
    Ok((response.map_err(|e| format!("{text}: {e}"))?, latency))
}

/// The layer times of an in-process run. No wire is crossed, so the
/// server's overhead and reply size are zero.
pub fn times(spans: &[Span]) -> Times {
    let t = layer_times(spans);
    let n = t.statements.max(1) as f64;
    Times {
        parse_us: t.parse_ns as f64 / n / 1e3,
        prepare_us: t.prepare_ns as f64 / n / 1e3,
        execute_us: t.execute_ns as f64 / n / 1e3,
        execute_self_ns: t.execute_self_ns as f64,
        source_busy_ns: t.source_busy_ns as f64,
        source_wait_ns: t.source_wait_ns as f64,
        server_overhead_us: 0.0,
        reply_bytes: 0.0,
    }
}
