//! The system-level metrics surface: one [`MetricsReport`] combining the
//! observability registry's instruments with the interner and cache
//! accounting the engine keeps anyway.
//!
//! The report is a point-in-time snapshot, available from two places:
//!
//! * [`crate::Toorjah::metrics`] — the instance-level view (session cache,
//!   when installed);
//! * [`crate::Response::metrics`] — captured at the end of every execution
//!   against the cache that execution actually used, so per-query metrics
//!   work even without a session cache (then from the access log, as one
//!   shard).
//!
//! Serialization is hand-rolled JSON with a stable key order
//! (`interner`, `counters`, `gauges`, `histograms`, `cache`), pinned by
//! `tests/cli.rs`. The shard-wise cache counters sum exactly to the
//! `cache` totals — the cache keeps its counters per shard by
//! construction (see `toorjah-cache`).

use std::fmt::Write as _;

use toorjah_cache::{CacheStats, ShardCounters};
use toorjah_catalog::InternerStats;
use toorjah_obs::MetricsSnapshot;

/// A point-in-time snapshot of everything the system measures: registry
/// instruments (kernel, dispatcher, relevance pruner), interner occupancy,
/// and the totals + per-shard breakdown of one access cache.
#[derive(Clone, Debug, Default)]
pub struct MetricsReport {
    /// The observability registry's counters, gauges and histograms —
    /// including the per-source `dispatch.latency_us.<relation>`
    /// histograms.
    pub snapshot: MetricsSnapshot,
    /// Process-wide interner occupancy (distinct symbols, payload bytes).
    pub interner: InternerStats,
    /// Cache totals (counters summed across shards, plus occupancy).
    pub cache: CacheStats,
    /// Per-shard cache counters; sums to the `cache` totals field-wise.
    pub shards: Vec<ShardCounters>,
}

impl MetricsReport {
    /// Renders the report as one JSON object with the stable key order
    /// `interner`, `counters`, `gauges`, `histograms`, `cache` (shards
    /// nested last inside `cache`).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        self.write_json(&mut out);
        out
    }

    /// [`MetricsReport::to_json`], appending to an existing buffer.
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"interner\":{{\"symbols\":{},\"bytes\":{}}}",
            self.interner.symbols, self.interner.bytes
        );
        // Splice the snapshot's `"counters":…,"gauges":…,"histograms":…`
        // body in between the interner and cache sections.
        let mut snapshot = String::new();
        self.snapshot.write_json(&mut snapshot);
        out.push(',');
        out.push_str(&snapshot[1..snapshot.len() - 1]);
        let c = &self.cache;
        let _ = write!(
            out,
            ",\"cache\":{{\"hits\":{},\"coalesced_hits\":{},\"misses\":{},\
             \"load_failures\":{},\"insertions\":{},\"evictions\":{},\
             \"oversized\":{},\"entries\":{},\"bytes\":{},\"shards\":[",
            c.hits,
            c.coalesced_hits,
            c.misses,
            c.load_failures,
            c.insertions,
            c.evictions,
            c.oversized,
            c.entries,
            c.bytes,
        );
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"hits\":{},\"coalesced_hits\":{},\"misses\":{},\
                 \"load_failures\":{},\"insertions\":{},\"evictions\":{},\
                 \"oversized\":{}}}",
                s.hits,
                s.coalesced_hits,
                s.misses,
                s.load_failures,
                s.insertions,
                s.evictions,
                s.oversized,
            );
        }
        out.push_str("]}}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_key_order_is_stable() {
        let report = MetricsReport {
            shards: vec![ShardCounters::default(), ShardCounters::default()],
            ..MetricsReport::default()
        };
        let json = report.to_json();
        let order = [
            "\"interner\"",
            "\"counters\"",
            "\"gauges\"",
            "\"histograms\"",
            "\"cache\"",
            "\"shards\"",
        ];
        let positions: Vec<usize> = order
            .iter()
            .map(|k| {
                json.find(k)
                    .unwrap_or_else(|| panic!("{k} missing in {json}"))
            })
            .collect();
        assert!(positions.windows(2).all(|w| w[0] < w[1]), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // The cache totals object plus one object per shard.
        assert_eq!(json.matches("{\"hits\"").count(), 3);
    }
}
