//! The typed trace-event taxonomy and its JSON-lines rendering.

use toorjah_catalog::{AccessKey, Symbol, Value};

/// What happened, with the payload that identifies it. Key-carrying
/// variants hold the `(relation, binding)` access key of the paper's cost
/// model; durations are wall-clock microseconds.
#[derive(Clone, Debug)]
pub enum EventKind {
    /// A kernel round began with `requested` frontier entries (duplicates
    /// included, before relevance pruning).
    RoundStart {
        /// Requested frontier size.
        requested: usize,
    },
    /// The round's dispatch completed after `micros` microseconds.
    RoundEnd {
        /// Wall-clock duration of the round.
        micros: u64,
    },
    /// One frontier entry was requested by the evaluator. Every requested
    /// access is terminally resolved by exactly one of
    /// [`EventKind::AccessServedCache`], [`EventKind::AccessServedSource`],
    /// [`EventKind::AccessPruned`] or [`EventKind::AccessFailed`].
    AccessRequested {
        /// The access key.
        key: AccessKey,
    },
    /// A deduplicated access was handed to the dispatcher as part of batch
    /// `batch` (0-based within its round).
    AccessDispatched {
        /// The access key.
        key: AccessKey,
        /// 0-based batch index within the round.
        batch: usize,
    },
    /// The access was served without touching the source: retained in the
    /// cache, coalesced onto an in-flight load, or a duplicate within its
    /// frontier.
    AccessServedCache {
        /// The access key.
        key: AccessKey,
    },
    /// The access was performed against the source, extracting `tuples`
    /// tuples in (an attributed share of) `micros` microseconds.
    AccessServedSource {
        /// The access key.
        key: AccessKey,
        /// Attributed source latency.
        micros: u64,
        /// Number of extracted tuples.
        tuples: usize,
    },
    /// The kernel's runtime relevance filter dropped the access before
    /// dispatch.
    AccessPruned {
        /// The access key.
        key: AccessKey,
    },
    /// The access (or its batch) failed or was never attempted; the
    /// execution is about to surface an error.
    AccessFailed {
        /// The access key.
        key: AccessKey,
    },
    /// The cache's eviction policy discarded a retained extraction of
    /// `bytes` estimated bytes.
    CacheEvict {
        /// The evicted entry's access key.
        key: AccessKey,
        /// Estimated retained bytes freed.
        bytes: usize,
    },
    /// A caller coalesced onto an identical in-flight access instead of
    /// repeating it (the cache's single-flight path).
    BatchCoalesced {
        /// The access key.
        key: AccessKey,
    },
    /// An evaluator's round loop reached its fixpoint after `rounds`
    /// rounds (including the barren round that confirmed it).
    FixpointReached {
        /// Rounds executed.
        rounds: usize,
    },
    /// One semi-naive evaluation round completed having requested `delta`
    /// *new* frontier bindings — the round's delta. Emitted once per
    /// fixpoint step (and once per standalone kernel round), so the decay
    /// of the delta toward the fixpoint is visible in a trace.
    DeltaRound {
        /// New frontier bindings requested this round.
        delta: usize,
    },
    /// The query service accepted an execution-bearing request from a
    /// tenant session. Every accepted request is terminally resolved by
    /// exactly one of [`EventKind::RequestCompleted`] (it ran, successfully
    /// or with a typed error response) or [`EventKind::RequestRejected`]
    /// (admission control turned it away) — so at any instant
    /// `accepted = completed + rejected + in-flight`, and after a graceful
    /// drain the in-flight term is zero (validated by `trace_check`).
    RequestAccepted {
        /// The requesting tenant.
        tenant: Symbol,
        /// The request verb (`execute`, `ask`).
        verb: Symbol,
    },
    /// Admission control rejected the request: the in-flight cap and the
    /// bounded wait queue were both saturated. The client is told to retry
    /// after `retry_after_ms` milliseconds.
    RequestRejected {
        /// The requesting tenant.
        tenant: Symbol,
        /// The request verb (`execute`, `ask`).
        verb: Symbol,
        /// Suggested client back-off, milliseconds.
        retry_after_ms: u64,
    },
    /// An admitted request ran to completion — a full response or a typed
    /// error (budget exhaustion included) — after `micros` microseconds of
    /// wall-clock inside the service.
    RequestCompleted {
        /// The requesting tenant.
        tenant: Symbol,
        /// The request verb (`execute`, `ask`).
        verb: Symbol,
        /// Wall-clock from admission to response, microseconds.
        micros: u64,
    },
}

impl EventKind {
    /// The stable snake_case name serialized as the `event` field.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::RoundStart { .. } => "round_start",
            EventKind::RoundEnd { .. } => "round_end",
            EventKind::AccessRequested { .. } => "access_requested",
            EventKind::AccessDispatched { .. } => "access_dispatched",
            EventKind::AccessServedCache { .. } => "access_served_cache",
            EventKind::AccessServedSource { .. } => "access_served_source",
            EventKind::AccessPruned { .. } => "access_pruned",
            EventKind::AccessFailed { .. } => "access_failed",
            EventKind::CacheEvict { .. } => "cache_evict",
            EventKind::BatchCoalesced { .. } => "batch_coalesced",
            EventKind::FixpointReached { .. } => "fixpoint_reached",
            EventKind::DeltaRound { .. } => "delta_round",
            EventKind::RequestAccepted { .. } => "request_accepted",
            EventKind::RequestRejected { .. } => "request_rejected",
            EventKind::RequestCompleted { .. } => "request_completed",
        }
    }

    /// The access key, for key-carrying variants.
    pub fn key(&self) -> Option<&AccessKey> {
        match self {
            EventKind::AccessRequested { key }
            | EventKind::AccessDispatched { key, .. }
            | EventKind::AccessServedCache { key }
            | EventKind::AccessServedSource { key, .. }
            | EventKind::AccessPruned { key }
            | EventKind::AccessFailed { key }
            | EventKind::CacheEvict { key, .. }
            | EventKind::BatchCoalesced { key } => Some(key),
            EventKind::RoundStart { .. }
            | EventKind::RoundEnd { .. }
            | EventKind::FixpointReached { .. }
            | EventKind::DeltaRound { .. }
            | EventKind::RequestAccepted { .. }
            | EventKind::RequestRejected { .. }
            | EventKind::RequestCompleted { .. } => None,
        }
    }

    /// The `(tenant, verb)` pair, for the query-service request variants.
    pub fn request(&self) -> Option<(Symbol, Symbol)> {
        match self {
            EventKind::RequestAccepted { tenant, verb }
            | EventKind::RequestRejected { tenant, verb, .. }
            | EventKind::RequestCompleted { tenant, verb, .. } => Some((*tenant, *verb)),
            _ => None,
        }
    }
}

/// One trace event: a monotonic per-handle sequence id, the 1-based kernel
/// round it belongs to (0 for events outside a round, e.g. cache activity
/// from direct API use), and the typed payload.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Monotonic sequence id, 1-based per [`crate::Obs`] handle.
    pub seq: u64,
    /// 1-based kernel round; 0 outside any round.
    pub round: u32,
    /// The typed payload.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Appends this event as one JSON object (no trailing newline). Every
    /// line carries the uniform fields `seq`, `round`, `event` and `us`
    /// (`0` where no duration applies); key-carrying events add `relation`
    /// (numeric id) and `binding` (value array), and variants append their
    /// own payload fields.
    pub fn write_json(&self, out: &mut String) {
        use std::fmt::Write;
        let micros = match self.kind {
            EventKind::RoundEnd { micros }
            | EventKind::AccessServedSource { micros, .. }
            | EventKind::RequestCompleted { micros, .. } => micros,
            _ => 0,
        };
        write!(
            out,
            "{{\"seq\":{},\"round\":{},\"event\":\"{}\",\"us\":{micros}",
            self.seq,
            self.round,
            self.kind.name()
        )
        .expect("writing to a String cannot fail");
        if let Some((relation, binding)) = self.kind.key() {
            write!(out, ",\"relation\":{},\"binding\":[", relation.0)
                .expect("writing to a String cannot fail");
            for (i, value) in binding.values().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                match value {
                    Value::Int(n) => {
                        write!(out, "{n}").expect("writing to a String cannot fail");
                    }
                    Value::Str(s) => push_json_string(out, s.as_str()),
                }
            }
            out.push(']');
        }
        if let Some((tenant, verb)) = self.kind.request() {
            out.push_str(",\"tenant\":");
            push_json_string(out, tenant.as_str());
            out.push_str(",\"verb\":");
            push_json_string(out, verb.as_str());
        }
        match self.kind {
            EventKind::RoundStart { requested } => {
                write!(out, ",\"requested\":{requested}").expect("writing to a String cannot fail");
            }
            EventKind::AccessDispatched { batch, .. } => {
                write!(out, ",\"batch\":{batch}").expect("writing to a String cannot fail");
            }
            EventKind::AccessServedSource { tuples, .. } => {
                write!(out, ",\"tuples\":{tuples}").expect("writing to a String cannot fail");
            }
            EventKind::CacheEvict { bytes, .. } => {
                write!(out, ",\"bytes\":{bytes}").expect("writing to a String cannot fail");
            }
            EventKind::FixpointReached { rounds } => {
                write!(out, ",\"rounds\":{rounds}").expect("writing to a String cannot fail");
            }
            EventKind::DeltaRound { delta } => {
                write!(out, ",\"delta\":{delta}").expect("writing to a String cannot fail");
            }
            EventKind::RequestRejected { retry_after_ms, .. } => {
                write!(out, ",\"retry_after_ms\":{retry_after_ms}")
                    .expect("writing to a String cannot fail");
            }
            _ => {}
        }
        out.push('}');
    }
}

/// Appends `s` as a JSON string literal with the minimal escapes.
pub(crate) fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write;
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use toorjah_catalog::{tuple, RelationId};

    fn line(event: &TraceEvent) -> String {
        let mut out = String::new();
        event.write_json(&mut out);
        out
    }

    #[test]
    fn uniform_fields_are_always_present() {
        let events = vec![
            TraceEvent {
                seq: 1,
                round: 1,
                kind: EventKind::RoundStart { requested: 3 },
            },
            TraceEvent {
                seq: 2,
                round: 1,
                kind: EventKind::AccessServedSource {
                    key: (RelationId(4), tuple!["modugno", 1958]),
                    micros: 250,
                    tuples: 2,
                },
            },
            TraceEvent {
                seq: 3,
                round: 0,
                kind: EventKind::FixpointReached { rounds: 2 },
            },
        ];
        for event in &events {
            let text = line(event);
            for field in ["\"seq\":", "\"round\":", "\"event\":\"", "\"us\":"] {
                assert!(text.contains(field), "missing {field} in {text}");
            }
            assert_eq!(text.matches('{').count(), text.matches('}').count());
        }
        assert!(line(&events[1]).contains("\"relation\":4"));
        assert!(line(&events[1]).contains("\"binding\":[\"modugno\",1958]"));
        assert!(line(&events[1]).contains("\"us\":250"));
        assert!(line(&events[1]).contains("\"tuples\":2"));
        assert!(line(&events[2]).contains("\"rounds\":2"));
    }

    #[test]
    fn binding_strings_are_escaped() {
        let event = TraceEvent {
            seq: 9,
            round: 2,
            kind: EventKind::CacheEvict {
                key: (RelationId(0), tuple!["he said \"hi\"\n"]),
                bytes: 128,
            },
        };
        let text = line(&event);
        assert!(text.contains("\\\"hi\\\"\\n"), "{text}");
        assert!(text.contains("\"bytes\":128"));
    }

    #[test]
    fn every_kind_has_a_stable_name() {
        let key = (RelationId(0), tuple![1]);
        let kinds = [
            EventKind::RoundStart { requested: 0 },
            EventKind::RoundEnd { micros: 0 },
            EventKind::AccessRequested { key: key.clone() },
            EventKind::AccessDispatched {
                key: key.clone(),
                batch: 0,
            },
            EventKind::AccessServedCache { key: key.clone() },
            EventKind::AccessServedSource {
                key: key.clone(),
                micros: 0,
                tuples: 0,
            },
            EventKind::AccessPruned { key: key.clone() },
            EventKind::AccessFailed { key: key.clone() },
            EventKind::CacheEvict {
                key: key.clone(),
                bytes: 0,
            },
            EventKind::BatchCoalesced { key },
            EventKind::FixpointReached { rounds: 0 },
            EventKind::DeltaRound { delta: 0 },
            EventKind::RequestAccepted {
                tenant: Symbol::intern("t0"),
                verb: Symbol::intern("execute"),
            },
            EventKind::RequestRejected {
                tenant: Symbol::intern("t0"),
                verb: Symbol::intern("execute"),
                retry_after_ms: 0,
            },
            EventKind::RequestCompleted {
                tenant: Symbol::intern("t0"),
                verb: Symbol::intern("execute"),
                micros: 0,
            },
        ];
        let names: std::collections::HashSet<&str> = kinds.iter().map(EventKind::name).collect();
        assert_eq!(names.len(), kinds.len(), "names are distinct");
        assert!(kinds.iter().all(|k| !k.name().is_empty()));
    }

    #[test]
    fn request_events_carry_tenant_and_verb() {
        let accepted = TraceEvent {
            seq: 1,
            round: 0,
            kind: EventKind::RequestAccepted {
                tenant: Symbol::intern("acme"),
                verb: Symbol::intern("execute"),
            },
        };
        let text = line(&accepted);
        assert!(text.contains("\"event\":\"request_accepted\""), "{text}");
        assert!(text.contains("\"tenant\":\"acme\""), "{text}");
        assert!(text.contains("\"verb\":\"execute\""), "{text}");

        let rejected = TraceEvent {
            seq: 2,
            round: 0,
            kind: EventKind::RequestRejected {
                tenant: Symbol::intern("acme"),
                verb: Symbol::intern("ask"),
                retry_after_ms: 50,
            },
        };
        let text = line(&rejected);
        assert!(text.contains("\"retry_after_ms\":50"), "{text}");

        let completed = TraceEvent {
            seq: 3,
            round: 0,
            kind: EventKind::RequestCompleted {
                tenant: Symbol::intern("acme"),
                verb: Symbol::intern("execute"),
                micros: 1234,
            },
        };
        let text = line(&completed);
        // The request duration rides in the uniform `us` field.
        assert!(text.contains("\"us\":1234"), "{text}");
        assert_eq!(text.matches('{').count(), text.matches('}').count());
    }
}
