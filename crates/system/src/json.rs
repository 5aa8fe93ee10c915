//! Machine-readable rendering of a [`Response`] (used by the CLI's
//! `--json` flag).
//!
//! Hand-rolled emission — the workspace stays dependency-free — producing a
//! stable shape:
//!
//! ```json
//! {
//!   "statement": "cq",
//!   "mode": "sequential",
//!   "answers": [["italy"]],
//!   "answer_count": 1,
//!   "rejected": 0,
//!   "skipped_disjuncts": [],
//!   "time_to_first_answer_us": null,
//!   "profile": {
//!     "prune_level": "static",
//!     "accesses_performed": 2,
//!     "accesses_served_by_cache": 0,
//!     "total_accesses": 2,
//!     "per_relation": {"r1": {"accesses": 1, "extracted": 1}},
//!     "dispatch": {"frontiers": 2, "largest_frontier": 1,
//!                  "batches": 2, "total_requested": 2,
//!                  "accesses_pruned": 0, "derivations_suppressed": 0,
//!                  "pruned_per_frontier": [0, 0],
//!                  "delta_schedule": [1, 1]},
//!     "timings_us": {"parse": 10, "plan": 120, "execute": 80,
//!                    "cumulative_execute": 80, "total": 210},
//!     "execution": 1
//!   },
//!   "metrics": {"interner": {...}, "counters": {...}, "gauges": {...},
//!               "histograms": {...}, "cache": {..., "shards": [...]}}
//! }
//! ```
//!
//! `metrics` is `null` when the instance's observability handle is
//! disabled; the builder's default enables it (see
//! [`crate::MetricsReport`] for the block's exact shape).

use std::fmt::Write as _;
use std::time::Duration;

use toorjah_catalog::{Schema, Tuple, Value};

use crate::Response;

impl Response {
    /// Renders the response as a single-line JSON object. Relation names
    /// come from `schema` (relations never accessed are omitted from
    /// `per_relation`); durations are integral microseconds.
    pub fn to_json(&self, schema: &Schema) -> String {
        let mut out = self.to_json_without_metrics(schema);
        out.pop(); // the closing brace
        out.push_str(",\"metrics\":");
        match &self.metrics {
            Some(m) => m.write_json(&mut out),
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }

    /// [`Response::to_json`] without the `metrics` member: the statement's
    /// own account only. The process-wide metrics report can be as large as
    /// the rest of the response, so the daemon renders its replies this way
    /// and serves the report through its `metrics` verb instead.
    pub fn to_json_without_metrics(&self, schema: &Schema) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"statement\":");
        push_str_json(&mut out, self.profile.statement.name());
        out.push_str(",\"mode\":");
        push_str_json(&mut out, self.profile.mode.name());
        out.push_str(",\"answers\":[");
        for (i, answer) in self.answers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_tuple_json(&mut out, answer);
        }
        out.push(']');
        let _ = write!(out, ",\"answer_count\":{}", self.answers.len());
        let _ = write!(out, ",\"rejected\":{}", self.rejected);
        out.push_str(",\"skipped_disjuncts\":[");
        for (i, idx) in self.skipped_disjuncts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{idx}");
        }
        out.push(']');
        out.push_str(",\"time_to_first_answer_us\":");
        push_duration_json(&mut out, self.time_to_first_answer);

        let p = &self.profile;
        out.push_str(",\"profile\":{");
        out.push_str("\"prune_level\":");
        push_str_json(&mut out, p.prune_level.name());
        let _ = write!(out, ",\"accesses_performed\":{}", p.accesses_performed);
        let _ = write!(
            out,
            ",\"accesses_served_by_cache\":{}",
            p.accesses_served_by_cache
        );
        let _ = write!(out, ",\"total_accesses\":{}", p.stats.total_accesses);
        out.push_str(",\"per_relation\":{");
        let mut first = true;
        for (id, rel) in schema.iter() {
            let accesses = p.stats.accesses_to(id);
            let extracted = p.stats.extracted_from(id);
            if accesses == 0 && extracted == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            push_str_json(&mut out, rel.name());
            let _ = write!(
                out,
                ":{{\"accesses\":{accesses},\"extracted\":{extracted}}}"
            );
        }
        out.push('}');
        let _ = write!(
            out,
            ",\"dispatch\":{{\"frontiers\":{},\"largest_frontier\":{},\
             \"batches\":{},\"total_requested\":{},\"accesses_pruned\":{},\
             \"derivations_suppressed\":{}",
            p.dispatch.frontiers(),
            p.dispatch.largest_frontier(),
            p.dispatch.batches,
            p.dispatch.total_requested(),
            p.dispatch.accesses_pruned,
            p.dispatch.derivations_suppressed,
        );
        out.push_str(",\"pruned_per_frontier\":[");
        for (i, pruned) in p.dispatch.pruned_per_frontier.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{pruned}");
        }
        out.push(']');
        out.push_str(",\"delta_schedule\":[");
        for (i, delta) in p.dispatch.delta_schedule.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{delta}");
        }
        out.push_str("]}");
        out.push_str(",\"timings_us\":{\"parse\":");
        push_duration_json(&mut out, p.timings.parse);
        out.push_str(",\"plan\":");
        push_duration_json(&mut out, p.timings.plan);
        let _ = write!(
            out,
            ",\"execute\":{},\"cumulative_execute\":{},\"total\":{}}}",
            p.timings.execute.as_micros(),
            p.timings.cumulative_execute.as_micros(),
            p.timings.total.as_micros()
        );
        let _ = write!(out, ",\"execution\":{}", p.execution);
        out.push_str("}}");
        out
    }
}

fn push_tuple_json(out: &mut String, tuple: &Tuple) {
    out.push('[');
    for (i, value) in tuple.values().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match value {
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Str(s) => push_str_json(out, s),
        }
    }
    out.push(']');
}

fn push_duration_json(out: &mut String, duration: Option<Duration>) {
    match duration {
        Some(d) => {
            let _ = write!(out, "{}", d.as_micros());
        }
        None => out.push_str("null"),
    }
}

/// JSON string escaping for the characters that can occur in relation
/// names, constants and answer values.
fn push_str_json(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Toorjah;
    use toorjah_catalog::{tuple, Instance};
    use toorjah_engine::InstanceSource;

    #[test]
    fn json_shape_is_stable() {
        let schema = Schema::parse("r1^io(A, B) r2^io(B, C)").unwrap();
        let db = Instance::with_data(
            &schema,
            [
                ("r1", vec![tuple!["a", "b1"]]),
                ("r2", vec![tuple!["b1", "c1"]]),
            ],
        )
        .unwrap();
        let system = Toorjah::new(InstanceSource::new(schema.clone(), db));
        let response = system.ask("q(C) <- r1('a', B), r2(B, C)").unwrap();
        let json = response.to_json(&schema);
        assert!(json.starts_with("{\"statement\":\"cq\""), "{json}");
        assert!(json.contains("\"mode\":\"sequential\""), "{json}");
        assert!(json.contains("\"answers\":[[\"c1\"]]"), "{json}");
        assert!(json.contains("\"prune_level\":\"static\""), "{json}");
        assert!(json.contains("\"accesses_performed\":2"), "{json}");
        assert!(json.contains("\"accesses_pruned\":0"), "{json}");
        assert!(json.contains("\"derivations_suppressed\":0"), "{json}");
        assert!(json.contains("\"pruned_per_frontier\":["), "{json}");
        // One delta entry per fixpoint step: positions with no caches flush
        // a bare 0, each populated cache contributes its dispatch step (1
        // new access) plus the barren confirmation step (0). Their sum is
        // total_requested.
        assert!(json.contains("\"delta_schedule\":[0,0,1,0,1,0]"), "{json}");
        assert!(
            json.contains("\"r1\":{\"accesses\":1,\"extracted\":1}"),
            "{json}"
        );
        assert!(json.contains("\"time_to_first_answer_us\":null"), "{json}");
        assert!(json.contains("\"execution\":1"), "{json}");
        assert!(json.contains("\"cumulative_execute\":"), "{json}");
        // `Toorjah::new` leaves observability disabled: no metrics block.
        assert!(json.ends_with("\"metrics\":null}"), "{json}");
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "{json}"
        );
    }

    #[test]
    fn builder_instances_emit_the_metrics_block() {
        let schema = Schema::parse("r1^io(A, B)").unwrap();
        let db = Instance::with_data(&schema, [("r1", vec![tuple!["a", "b1"]])]).unwrap();
        let system = Toorjah::builder(InstanceSource::new(schema.clone(), db)).build();
        let response = system.ask("q(B) <- r1('a', B)").unwrap();
        let json = response.to_json(&schema);
        assert!(json.contains("\"metrics\":{\"interner\":{"), "{json}");
        assert!(json.contains("\"kernel.rounds\":"), "{json}");
        assert!(json.contains("\"dispatch.latency_us.r1\":"), "{json}");
        assert!(json.contains("\"shards\":["), "{json}");
        assert!(json.ends_with("}}"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn escaping_and_integers() {
        let mut s = String::new();
        push_str_json(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
        let mut t = String::new();
        push_tuple_json(&mut t, &tuple![2008, "x"]);
        assert_eq!(t, "[2008,\"x\"]");
    }
}
