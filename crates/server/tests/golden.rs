//! Wire-protocol golden tests: one request/response fixture per verb plus
//! every error shape, pinned byte-for-byte (like the CLI's `tests/cli.rs`
//! golden suite). Runs against [`Service::handle_line`] directly — the
//! protocol is transport-free, so no sockets are involved and the bytes
//! are exactly what a TCP client would read (minus the trailing newline).
//!
//! Responses embedding wall-clock (execute/ask timings, metrics uptime)
//! are pinned as deterministic byte prefixes and suffixes around the
//! timing fields; everything else — all seven error shapes, `prepare`,
//! `cache_stats`, `shutdown` — is pinned whole.

use std::time::Duration;

use toorjah_cache::SharedAccessCache;
use toorjah_catalog::{tuple, Instance, Schema};
use toorjah_engine::{InstanceSource, LatencySource};
use toorjah_obs::Obs;
use toorjah_server::{Service, ServiceConfig};
use toorjah_system::Toorjah;

/// A two-hop fixture with observability disabled, so the `metrics` verb's
/// registry block is the deterministic `null`.
fn service_with(config: ServiceConfig) -> Service {
    service_observed(config, Obs::disabled())
}

fn service_observed(config: ServiceConfig, obs: Obs) -> Service {
    let schema = Schema::parse("r1^io(A, B) r2^io(B, C)").unwrap();
    let db = Instance::with_data(
        &schema,
        [
            ("r1", vec![tuple!["a", "b1"]]),
            ("r2", vec![tuple!["b1", "c1"]]),
        ],
    )
    .unwrap();
    let system = Toorjah::builder(InstanceSource::new(schema, db))
        .cache(SharedAccessCache::unbounded())
        .observability(obs)
        .build();
    Service::new(system, config)
}

fn service() -> Service {
    service_with(ServiceConfig::default())
}

#[test]
fn golden_prepare() {
    let service = service();
    assert_eq!(
        service
            .handle_line(r#"{"id":1,"verb":"prepare","query":"q(C) <-  r1('a', B),  r2(B, C)"}"#),
        "{\"id\":1,\"ok\":true,\"verb\":\"prepare\",\
         \"statement\":\"q(C) <- r1('a', B), r2(B, C)\",\"cached\":false}"
    );
    // Re-preparing (any whitespace variant) reports the registry hit.
    assert_eq!(
        service.handle_line(r#"{"id":2,"verb":"prepare","query":"q(C) <- r1('a', B), r2(B, C)"}"#),
        "{\"id\":2,\"ok\":true,\"verb\":\"prepare\",\
         \"statement\":\"q(C) <- r1('a', B), r2(B, C)\",\"cached\":true}"
    );
}

#[test]
fn golden_execute() {
    let service = service();
    let reply =
        service.handle_line(r#"{"id":3,"verb":"execute","query":"q(C) <- r1('a', B), r2(B, C)"}"#);
    // Byte-pinned prefix: everything before the timing fields.
    let prefix = format!(
        "{{\"id\":3,\"ok\":true,\"verb\":\"execute\",\"budget_remaining\":{},\
         \"response\":{{\"statement\":\"cq\",\"mode\":\"sequential\",\
         \"answers\":[[\"c1\"]],\"answer_count\":1,\"rejected\":0,\
         \"skipped_disjuncts\":[],\"time_to_first_answer_us\":null,\
         \"profile\":{{\"prune_level\":\"static\",\
         \"accesses_performed\":2,\"accesses_served_by_cache\":0,\
         \"total_accesses\":2,\"per_relation\":{{\"r1\":{{\"accesses\":1,\"extracted\":1}},\
         \"r2\":{{\"accesses\":1,\"extracted\":1}}}},\"dispatch\":{{\"frontiers\":2,\
         \"largest_frontier\":1,\"batches\":2,\"total_requested\":2,\"accesses_pruned\":0,\
         \"pruned_per_frontier\":[0,0],\"delta_schedule\":[0,0,1,0,1,0]}},\
         \"timings_us\":{{\"parse\":null,\"plan\":null,",
        toorjah_server::DEFAULT_TENANT_BUDGET - 2,
    );
    assert!(reply.starts_with(&prefix), "prefix mismatch:\n{reply}");
    // Byte-pinned suffix: everything after the timing fields. Replies
    // carry the statement's own account only — no metrics member.
    assert!(
        reply.ends_with(",\"execution\":1}}}"),
        "suffix mismatch:\n{reply}"
    );
}

#[test]
fn golden_execute_leaves_process_metrics_to_the_metrics_verb() {
    // With observability on, every execution captures a metrics report;
    // the wire reply still ends with the profile, and the report is what
    // the `metrics` verb serves.
    let service = service_observed(ServiceConfig::default(), Obs::enabled());
    let reply =
        service.handle_line(r#"{"id":3,"verb":"execute","query":"q(C) <- r1('a', B), r2(B, C)"}"#);
    assert!(reply.ends_with(",\"execution\":1}}}"), "{reply}");
    assert!(!reply.contains("\"metrics\""), "{reply}");
    let metrics = service.handle_line(r#"{"id":4,"verb":"metrics"}"#);
    assert!(metrics.contains("\"metrics\":{\"interner\":{"), "{metrics}");
}

#[test]
fn golden_ask() {
    let service = service();
    let reply = service.handle_line(
        r#"{"id":4,"verb":"ask","tenant":"alice","query":"q(C) <- r1('a', B), r2(B, C)"}"#,
    );
    let prefix = format!(
        "{{\"id\":4,\"ok\":true,\"verb\":\"ask\",\"budget_remaining\":{},\
         \"response\":{{\"statement\":\"cq\",\"mode\":\"sequential\",\
         \"answers\":[[\"c1\"]],\"answer_count\":1,",
        toorjah_server::DEFAULT_TENANT_BUDGET - 2,
    );
    assert!(reply.starts_with(&prefix), "prefix mismatch:\n{reply}");
    // Unlike execute-via-registry, the one-shot ask reports parse timing.
    assert!(reply.contains("\"timings_us\":{\"parse\":"), "{reply}");
    assert!(!reply.contains("\"parse\":null"), "{reply}");
    assert!(reply.ends_with(",\"execution\":1}}}"), "{reply}");
}

#[test]
fn golden_explain() {
    let service = service();
    let reply =
        service.handle_line(r#"{"id":5,"verb":"explain","query":"q(C) <- r1('a', B), r2(B, C)"}"#);
    assert!(
        reply.starts_with(
            "{\"id\":5,\"ok\":true,\"verb\":\"explain\",\"explanation\":\
             \"query (minimized): q(C) ← r1('a', B), r2(B, C)\\n"
        ),
        "{reply}"
    );
    assert!(reply.contains("datalog program:"), "{reply}");
    assert!(reply.ends_with("\"}"), "{reply}");
}

#[test]
fn golden_cache_stats() {
    let service = service();
    // Cold cache: all-zero counters, fully deterministic.
    assert_eq!(
        service.handle_line(r#"{"id":6,"verb":"cache_stats"}"#),
        "{\"id\":6,\"ok\":true,\"verb\":\"cache_stats\",\
         \"cache\":{\"hits\":0,\"coalesced_hits\":0,\"misses\":0,\
         \"load_failures\":0,\"insertions\":0,\"evictions\":0,\
         \"oversized\":0,\"entries\":0,\"bytes\":0}}"
    );
}

#[test]
fn golden_metrics() {
    let service = service();
    service.handle_line(r#"{"id":7,"verb":"ask","tenant":"alice","query":"q(B) <- r1('a', B)"}"#);
    let reply = service.handle_line(r#"{"id":8,"verb":"metrics"}"#);
    // Byte-pinned prefix up to the wall-clock uptime.
    assert!(
        reply.starts_with(
            "{\"id\":8,\"ok\":true,\"verb\":\"metrics\",\
             \"server\":{\"sessions\":1,\"inflight\":0,\"accepted\":1,\
             \"completed\":1,\"rejected\":0,\"statements\":0,\"uptime_us\":"
        ),
        "{reply}"
    );
    // The tenant block is deterministic (performed accesses are data-, not
    // schedule-dependent).
    assert!(
        reply.contains(
            "\"tenants\":{\"alice\":{\"budget_limit\":100000,\"budget_used\":1,\
             \"budget_remaining\":99999,\"requests\":1}}"
        ),
        "{reply}"
    );
    // Observability disabled: the registry block degrades to null.
    assert!(reply.ends_with(",\"metrics\":null}"), "{reply}");
}

#[test]
fn golden_shutdown() {
    let service = service();
    assert_eq!(
        service.handle_line(r#"{"id":9,"verb":"shutdown"}"#),
        "{\"id\":9,\"ok\":true,\"verb\":\"shutdown\",\"draining\":true}"
    );
    // Post-shutdown execution requests get the shutting_down error shape.
    assert_eq!(
        service.handle_line(r#"{"id":10,"verb":"ask","query":"q(B) <- r1('a', B)"}"#),
        "{\"id\":10,\"ok\":false,\"error\":{\"code\":\"shutting_down\",\
         \"message\":\"the server is draining\",\"retry_after_ms\":null}}"
    );
}

#[test]
fn golden_error_unknown_verb() {
    assert_eq!(
        service().handle_line(r#"{"id":11,"verb":"frobnicate"}"#),
        "{\"id\":11,\"ok\":false,\"error\":{\"code\":\"unknown_verb\",\
         \"message\":\"no verb \\\"frobnicate\\\"\",\"retry_after_ms\":null}}"
    );
}

#[test]
fn golden_error_malformed_json() {
    let service = service();
    assert_eq!(
        service.handle_line("this is not json"),
        "{\"id\":null,\"ok\":false,\"error\":{\"code\":\"malformed_request\",\
         \"message\":\"expected '{'\",\"retry_after_ms\":null}}"
    );
    assert_eq!(
        service.handle_line(r#"{"id":12,"verb":{"nested":true}}"#),
        "{\"id\":null,\"ok\":false,\"error\":{\"code\":\"malformed_request\",\
         \"message\":\"nested objects and arrays are not part of the request grammar\",\
         \"retry_after_ms\":null}}"
    );
    // A well-formed object missing the required id.
    assert_eq!(
        service.handle_line(r#"{"verb":"metrics"}"#),
        "{\"id\":null,\"ok\":false,\"error\":{\"code\":\"malformed_request\",\
         \"message\":\"missing required integer field \\\"id\\\"\",\"retry_after_ms\":null}}"
    );
}

#[test]
fn golden_error_missing_query() {
    assert_eq!(
        service().handle_line(r#"{"id":13,"verb":"execute"}"#),
        "{\"id\":13,\"ok\":false,\"error\":{\"code\":\"missing_query\",\
         \"message\":\"this verb requires a string field \\\"query\\\"\",\
         \"retry_after_ms\":null}}"
    );
}

#[test]
fn golden_error_query_error() {
    let reply = service().handle_line(r#"{"id":14,"verb":"ask","query":"q(X) <- nope(X)"}"#);
    assert!(
        reply.starts_with("{\"id\":14,\"ok\":false,\"error\":{\"code\":\"query_error\","),
        "{reply}"
    );
    assert!(reply.ends_with(",\"retry_after_ms\":null}}"), "{reply}");
}

#[test]
fn golden_error_budget_exhausted() {
    let service = service_with(ServiceConfig {
        default_budget: 0,
        ..ServiceConfig::default()
    });
    assert_eq!(
        service
            .handle_line(r#"{"id":15,"verb":"ask","tenant":"broke","query":"q(B) <- r1('a', B)"}"#),
        "{\"id\":15,\"ok\":false,\"error\":{\"code\":\"budget_exhausted\",\
         \"message\":\"tenant \\\"broke\\\" has no access budget remaining\",\
         \"retry_after_ms\":null}}"
    );
}

#[test]
fn golden_error_admission_rejected() {
    // A single slot, no queue, slow sources: while one thread's execution
    // holds the slot, any concurrent request is rejected with the exact
    // bytes below. The `metrics` verb bypasses admission, so the contender
    // can wait for the holder to actually occupy the slot before asking —
    // its 500ms execution window then makes the rejection deterministic.
    let schema = Schema::parse("r1^io(A, B)").unwrap();
    let db = Instance::with_data(&schema, [("r1", vec![tuple!["a", "b1"]])]).unwrap();
    let slow = LatencySource::new(InstanceSource::new(schema, db), Duration::from_millis(500))
        .with_real_sleep();
    let system = Toorjah::builder(slow)
        .cache(SharedAccessCache::unbounded())
        .observability(Obs::disabled())
        .build();
    let service = std::sync::Arc::new(Service::new(
        system,
        ServiceConfig {
            max_inflight: 1,
            max_queue: 0,
            retry_after_ms: 25,
            ..ServiceConfig::default()
        },
    ));
    let holder = {
        let service = std::sync::Arc::clone(&service);
        std::thread::spawn(move || {
            service.handle_line(r#"{"id":16,"verb":"ask","query":"q(B) <- r1('a', B)"}"#)
        })
    };
    for _ in 0..2_000 {
        let metrics = service.handle_line(r#"{"id":0,"verb":"metrics"}"#);
        if metrics.contains("\"inflight\":1") {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let reply = service
        .handle_line(r#"{"id":17,"verb":"ask","tenant":"pushy","query":"q(B) <- r1('a', B)"}"#);
    assert_eq!(
        reply,
        "{\"id\":17,\"ok\":false,\"error\":{\"code\":\"admission_rejected\",\
         \"message\":\"all execution slots busy and the wait queue is full\",\
         \"retry_after_ms\":25}}"
    );
    let held = holder.join().expect("holder thread");
    assert!(held.contains("\"ok\":true"), "{held}");
}
