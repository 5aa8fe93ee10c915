//! The per-layer metrics, from the counts and times each workload collects
//! on its side of the layer boundaries.

use toorjah_system::Response;

use crate::{metric, Metric};

/// Engine, source and cache counts summed over the timed statements.
#[derive(Default)]
pub struct Tally {
    pub statements: u64,
    pub performed: u64,
    pub served: u64,
    pub pruned: u64,
    pub frontiers: u64,
    pub batches: u64,
    pub round_trips: u64,
    pub evictions: u64,
}

impl Tally {
    pub fn add(&mut self, r: &Response) {
        self.statements += 1;
        self.performed += r.profile.accesses_performed;
        self.served += r.profile.accesses_served_by_cache;
        self.pruned += r.profile.dispatch.accesses_pruned as u64;
        self.frontiers += r.profile.dispatch.frontiers() as u64;
        self.batches += r.profile.dispatch.batches as u64;
    }
}

/// Layer times: per-statement means in microseconds, and totals over the
/// timed statements in nanoseconds.
pub struct Times {
    pub parse_us: f64,
    pub prepare_us: f64,
    pub execute_us: f64,
    /// Execute time not covered by a source call.
    pub execute_self_ns: f64,
    pub source_busy_ns: f64,
    /// Wall time with at least one source call in flight.
    pub source_wait_ns: f64,
    pub server_overhead_us: f64,
    pub reply_bytes: f64,
}

/// Every per-layer metric, in `BENCHMARK.json`'s order.
pub fn metrics(c: &Tally, t: &Times) -> Vec<Metric> {
    let n = c.statements.max(1) as f64;
    let requested = (c.performed + c.served + c.pruned) as f64;
    let per = |x: u64| x as f64 / n;
    vec![
        metric("query.parse_us", t.parse_us, "us"),
        metric("core.prepare_us", t.prepare_us, "us"),
        metric("engine.execute_us", t.execute_us, "us"),
        metric(
            "engine.self_ns_per_request",
            t.execute_self_ns / requested.max(1.0),
            "ns",
        ),
        metric("engine.requested_per_statement", requested / n, "accesses"),
        metric(
            "engine.performed_per_statement",
            per(c.performed),
            "accesses",
        ),
        metric(
            "engine.performed_per_requested",
            c.performed as f64 / requested.max(1.0),
            "ratio",
        ),
        metric("engine.frontiers_per_statement", per(c.frontiers), "count"),
        metric("engine.batches_per_statement", per(c.batches), "count"),
        metric(
            "source.round_trips_per_statement",
            per(c.round_trips),
            "count",
        ),
        metric(
            "source.busy_ms_per_statement",
            t.source_busy_ns / n / 1e6,
            "ms",
        ),
        metric(
            "source.wait_ms_per_statement",
            t.source_wait_ns / n / 1e6,
            "ms",
        ),
        metric(
            "cache.hit_ratio",
            c.served as f64 / (c.served + c.performed).max(1) as f64,
            "ratio",
        ),
        metric("cache.evictions_per_statement", per(c.evictions), "count"),
        metric("server.overhead_us", t.server_overhead_us, "us"),
        metric("server.reply_bytes", t.reply_bytes, "bytes"),
    ]
}
