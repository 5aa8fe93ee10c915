//! Acceptance suite for the query service (`toorjah-server`): the daemon
//! serving 8 concurrent tenants over one shared cache must return answers
//! bit-identical to sequential local execution, pay the cold-miss set
//! exactly once, enforce per-tenant access budgets with typed errors
//! (never partial answers), reject over-admission with `retry_after_ms`
//! rather than queuing unboundedly, and drain in-flight requests on
//! shutdown.

use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use toorjah::cache::SharedAccessCache;
use toorjah::catalog::{RelationId, Schema, Tuple};
use toorjah::engine::{EngineError, InstanceSource, SourceProvider};
use toorjah::server::{
    reply_answers, reply_error_code, reply_number, reply_ok, Server, Service, ServiceConfig,
    WireClient, MAX_REQUEST_LINE,
};
use toorjah::system::Toorjah;
use toorjah::workload::{music_instance, music_schema, traffic, MusicConfig, TrafficParams};

fn music_system() -> Toorjah {
    let schema = music_schema();
    let db = music_instance(&schema, &MusicConfig::small());
    Toorjah::builder(InstanceSource::new(schema, db))
        .cache(SharedAccessCache::unbounded())
        .build()
}

/// A one-shot gate: closed until [`Gate::open`], or until [`GATE_TIMEOUT`]
/// passes, so a test that never opens it fails instead of hanging.
struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
}

const GATE_TIMEOUT: Duration = Duration::from_secs(10);

impl Gate {
    fn open(&self) {
        *self.open.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.opened.notify_all();
    }

    fn pass(&self) {
        let open = self.open.lock().unwrap_or_else(|e| e.into_inner());
        let _open = self
            .opened
            .wait_timeout_while(open, GATE_TIMEOUT, |open| !*open)
            .unwrap_or_else(|e| e.into_inner());
    }
}

/// A source whose accesses wait at a [`Gate`]. A request over it provably
/// holds its execution slot until the test opens the gate; a real-sleep
/// latency instead leaves that window to the scheduler, which misses it
/// when sibling tests load the machine.
struct GatedSource {
    inner: InstanceSource,
    gate: Arc<Gate>,
}

impl SourceProvider for GatedSource {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn access(&self, relation: RelationId, binding: &Tuple) -> Result<Vec<Tuple>, EngineError> {
        self.gate.pass();
        self.inner.access(relation, binding)
    }

    fn full_scan(&self, relation: RelationId) -> Option<Vec<Tuple>> {
        self.inner.full_scan(relation)
    }
}

/// [`music_system`] over a [`GatedSource`], plus its (closed) gate.
fn gated_music_system() -> (Toorjah, Arc<Gate>) {
    let schema = music_schema();
    let db = music_instance(&schema, &MusicConfig::small());
    let gate = Arc::new(Gate {
        open: Mutex::new(false),
        opened: Condvar::new(),
    });
    let source = GatedSource {
        inner: InstanceSource::new(schema, db),
        gate: Arc::clone(&gate),
    };
    let system = Toorjah::builder(source)
        .cache(SharedAccessCache::unbounded())
        .build();
    (system, gate)
}

/// Polls the daemon's metrics over `client` until a request holds an
/// execution slot.
fn await_inflight(client: &mut WireClient) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let metrics = client.metrics().expect("metrics");
        if reply_number(&metrics, "inflight") == Some(1) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "no request entered execution: {metrics}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Starts a server over the small music instance and returns its address
/// plus the join handle of the accept loop.
fn start_server(config: ServiceConfig) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", Service::new(music_system(), config))
        .expect("bind an ephemeral port");
    let addr = server.local_addr().expect("read the bound address");
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

/// The tentpole acceptance: 8 concurrent tenants replay the seeded traffic
/// mix through the daemon; every answer matches a sequential local run of
/// the same statement bit-for-bit, and the shared cache pays the union of
/// cold misses exactly once — the same misses a sequential local session
/// over one cache pays.
#[test]
fn eight_concurrent_tenants_match_local_execution_and_share_cold_misses() {
    let params = TrafficParams::default();
    assert_eq!(
        params.tenants, 8,
        "the acceptance criterion names 8 tenants"
    );
    let streams = traffic(&params);

    let (addr, server) = start_server(ServiceConfig::default());
    let workers: Vec<_> = streams
        .iter()
        .cloned()
        .map(|stream| {
            std::thread::spawn(move || {
                let mut client = WireClient::connect(addr, &stream.tenant).expect("connect tenant");
                stream
                    .requests
                    .iter()
                    .map(|q| {
                        let reply = client.ask(q).expect("round trip");
                        assert!(reply_ok(&reply), "{reply}");
                        (q.clone(), reply)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut by_statement: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for worker in workers {
        for (q, reply) in worker.join().expect("tenant thread") {
            by_statement.entry(q).or_default().push(reply);
        }
    }

    // Scrape the daemon's cache stats before shutting it down.
    let mut control = WireClient::connect(addr, "control").expect("connect control");
    let cache_stats = control.cache_stats().expect("cache_stats");
    let server_misses = reply_number(&cache_stats, "misses").expect("misses field");
    control.shutdown().expect("shutdown");
    server.join().expect("server drained");

    // The local baseline: the same distinct statements, sequentially, over
    // one fresh shared cache.
    let local = music_system();
    let mut local_answers = BTreeMap::new();
    for statement in by_statement.keys() {
        let response = local.ask(statement).expect("local ask");
        let json = response.to_json(local.schema());
        local_answers.insert(
            statement.clone(),
            reply_answers(&json).expect("answers fragment").to_string(),
        );
    }

    // Answers bit-identical to local execution, for every tenant and every
    // repetition (answers are sorted, so the JSON fragments are canonical).
    for (statement, replies) in &by_statement {
        let expected = &local_answers[statement];
        for reply in replies {
            assert_eq!(
                reply_answers(reply).expect("answers fragment"),
                expected.as_str(),
                "daemon answer diverged for {statement}"
            );
        }
    }

    // The cold-miss set is shared exactly once: the concurrent daemon run
    // paid exactly the misses the sequential local session paid (the
    // single-flight cache coalesces concurrent cold hits on one key).
    let local_misses = local.cache_stats().expect("local cache stats").misses;
    assert_eq!(
        server_misses as u64, local_misses,
        "the daemon must pay the sequential cold-miss set exactly once"
    );
}

/// Budgets: a tenant whose budget cannot cover an execution gets the typed
/// `budget_exhausted` error and no partial answer; an untouched tenant on
/// the same daemon keeps answering.
#[test]
fn budget_exhaustion_is_a_typed_error_and_tenant_scoped() {
    let (addr, server) = start_server(ServiceConfig {
        default_budget: 4,
        ..ServiceConfig::default()
    });
    // This statement needs more than 4 accesses on the small instance.
    let expensive = "q(N) <- r1(A, N, Y1), r2('t0', Y2, A)";
    let mut broke = WireClient::connect(addr, "broke").expect("connect");
    let reply = broke.ask(expensive).expect("round trip");
    assert!(!reply_ok(&reply), "{reply}");
    assert_eq!(
        reply_error_code(&reply),
        Some("budget_exhausted"),
        "{reply}"
    );
    assert!(
        !reply.contains("\"answers\""),
        "partial answer leaked: {reply}"
    );

    // Failed executions charge nothing: cheap statements still fit. Drain
    // the budget with distinct bound-artist lookups until the typed error
    // fires (each cold lookup performs at least one access, so a 4-access
    // budget exhausts within the instance's 10 artists).
    let mut exhausted_at = None;
    for i in 0..10 {
        let q = format!("q(N) <- r1('a{i}', N, Y)");
        let reply = broke.ask(&q).expect("round trip");
        if !reply_ok(&reply) {
            assert_eq!(
                reply_error_code(&reply),
                Some("budget_exhausted"),
                "{reply}"
            );
            assert!(!reply.contains("\"answers\""), "{reply}");
            exhausted_at = Some(i);
            break;
        }
    }
    let blocked = exhausted_at.expect("a 4-access budget must exhaust within 10 cold unit lookups");

    // Budgets are tenant-scoped: a fresh tenant runs the very statement
    // that was just refused for the drained one.
    let mut fresh = WireClient::connect(addr, "fresh").expect("connect");
    let reply = fresh
        .ask(&format!("q(N) <- r1('a{blocked}', N, Y)"))
        .expect("round trip");
    assert!(reply_ok(&reply), "budget must be per-tenant: {reply}");

    let mut control = WireClient::connect(addr, "control").expect("connect");
    control.shutdown().expect("shutdown");
    server.join().expect("server drained");
}

/// Admission: with one execution slot, a zero-length wait queue and slow
/// sources, concurrent requests are rejected with `retry_after_ms` —
/// bounded refusal, not unbounded queuing — and a later retry succeeds.
#[test]
fn over_admission_rejects_with_retry_after() {
    let (system, gate) = gated_music_system();
    let config = ServiceConfig {
        max_inflight: 1,
        max_queue: 0,
        retry_after_ms: 10,
        ..ServiceConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Service::new(system, config)).expect("bind");
    let addr = server.local_addr().expect("addr");
    let server = std::thread::spawn(move || server.run().expect("server run"));

    let statement = "q(N) <- r1('a0', N, Y)";
    // The holder's execution waits at the closed gate, so it holds the
    // only slot until the gate opens.
    let holder = std::thread::spawn(move || {
        let mut client = WireClient::connect(addr, "holder").expect("connect");
        client.ask(statement).expect("round trip")
    });
    let mut client = WireClient::connect(addr, "pushy").expect("connect");
    await_inflight(&mut client);
    let rejected = client.ask(statement).expect("round trip");
    assert!(
        !reply_ok(&rejected),
        "a single-slot daemon under load must reject: {rejected}"
    );
    assert_eq!(
        reply_error_code(&rejected),
        Some("admission_rejected"),
        "{rejected}"
    );
    assert_eq!(
        reply_number(&rejected, "retry_after_ms"),
        Some(10),
        "{rejected}"
    );
    gate.open();
    let held = holder.join().expect("holder");
    assert!(reply_ok(&held), "the slot holder must be answered: {held}");
    // After the slot frees, the same tenant's retry succeeds.
    let reply = client.ask(statement).expect("round trip");
    assert!(
        reply_ok(&reply),
        "retry after the hint must succeed: {reply}"
    );

    let mut control = WireClient::connect(addr, "control").expect("connect");
    control.shutdown().expect("shutdown");
    server.join().expect("server drained");
}

/// Graceful drain: a shutdown issued while an execution is in flight lets
/// that execution finish and answer; the accept loop then stops and the
/// server exits cleanly.
#[test]
fn shutdown_drains_in_flight_requests() {
    let (system, gate) = gated_music_system();
    let server = Server::bind(
        "127.0.0.1:0",
        Service::new(system, ServiceConfig::default()),
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let server = std::thread::spawn(move || server.run().expect("server run"));

    let in_flight = std::thread::spawn(move || {
        let mut client = WireClient::connect(addr, "slowpoke").expect("connect");
        client
            .ask("q(N) <- r1('a0', N, Y)")
            .expect("the in-flight request must be answered, not dropped")
    });
    // Shut down while the slow request is executing, then let it finish.
    let mut control = WireClient::connect(addr, "control").expect("connect");
    await_inflight(&mut control);
    let reply = control.shutdown().expect("shutdown");
    assert!(reply_ok(&reply), "{reply}");
    gate.open();

    let reply = in_flight.join().expect("in-flight thread");
    assert!(
        reply_ok(&reply),
        "drain must complete the in-flight request: {reply}"
    );
    server.join().expect("the drained server must exit cleanly");

    // The drained daemon is gone: new connections are refused.
    std::thread::sleep(Duration::from_millis(20));
    assert!(
        std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err(),
        "the listener must be closed after the drain"
    );
}

/// The statement registry is cross-tenant: two tenants preparing the same
/// normalized text share one plan (the second sees `"cached":true`).
#[test]
fn prepared_statements_are_shared_across_tenants() {
    let (addr, server) = start_server(ServiceConfig::default());
    let mut alice = WireClient::connect(addr, "alice").expect("connect");
    let reply = alice.prepare("q(N)   <- r1('a0', N, Y)").expect("prepare");
    assert!(reply.contains("\"cached\":false"), "{reply}");
    let mut bob = WireClient::connect(addr, "bob").expect("connect");
    let reply = bob.prepare("q(N) <- r1('a0',  N, Y)").expect("prepare");
    assert!(
        reply.contains("\"cached\":true"),
        "whitespace-normalized texts must share a plan: {reply}"
    );
    let mut control = WireClient::connect(addr, "control").expect("connect");
    control.shutdown().expect("shutdown");
    server.join().expect("server drained");
}

/// `Arc<Service>` note: the `Server` owns its service behind an `Arc`, so a
/// test (or embedder) can hold a handle across `run()` to observe drain
/// state after the accept loop exits.
#[test]
fn service_handle_outlives_the_run() {
    let server = Server::bind(
        "127.0.0.1:0",
        Service::new(music_system(), ServiceConfig::default()),
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let service: Arc<Service> = server.service();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    let mut control = WireClient::connect(addr, "control").expect("connect");
    control.shutdown().expect("shutdown");
    handle.join().expect("server drained");
    assert!(service.is_draining());
}

/// A client that never ends its request line cannot grow the server's
/// buffer without limit: one byte past the cap it gets one
/// `malformed_request` reply and the connection is closed, while other
/// clients are still served.
#[test]
fn an_over_long_request_line_is_refused_and_closed() {
    use std::io::{BufRead as _, BufReader, Write as _};

    let (addr, server) = start_server(ServiceConfig::default());
    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    raw.write_all(&vec![b'x'; MAX_REQUEST_LINE + 1])
        .expect("send an over-long line");
    let mut reader = BufReader::new(raw);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("the error line");
    assert_eq!(
        reply_error_code(&reply),
        Some("malformed_request"),
        "{reply}"
    );
    assert!(reply.contains("\"id\":null"), "{reply}");
    let mut rest = String::new();
    assert_eq!(
        reader.read_line(&mut rest).expect("a clean close"),
        0,
        "the connection is closed after the error: {rest}"
    );

    let mut client = WireClient::connect(addr, "next").expect("connect");
    let reply = client.ask("q(N) <- r1('a0', N, Y)").expect("ask");
    assert!(reply_ok(&reply), "{reply}");
    client.shutdown().expect("shutdown");
    server.join().expect("server drained");
}

/// Panics on any access whose binding holds the constant `boom`; every
/// other access is served.
struct PanicOnBoom(InstanceSource);

impl SourceProvider for PanicOnBoom {
    fn schema(&self) -> &Schema {
        self.0.schema()
    }

    fn access(&self, relation: RelationId, binding: &Tuple) -> Result<Vec<Tuple>, EngineError> {
        if binding
            .values()
            .contains(&toorjah::catalog::Value::from("boom"))
        {
            panic!("source exploded on boom");
        }
        self.0.access(relation, binding)
    }
}

#[test]
fn a_panicking_source_is_a_typed_error_and_the_connection_survives() {
    let schema = music_schema();
    let db = music_instance(&schema, &MusicConfig::small());
    let system = Toorjah::builder(PanicOnBoom(InstanceSource::new(schema, db)))
        .cache(SharedAccessCache::unbounded())
        .build();
    let server = Server::bind(
        "127.0.0.1:0",
        Service::new(system, ServiceConfig::default()),
    )
    .expect("bind an ephemeral port");
    let addr = server.local_addr().expect("read the bound address");
    let handle = std::thread::spawn(move || server.run().expect("server run"));

    let mut mallory = WireClient::connect(addr, "mallory").expect("connect");
    let mut alice = WireClient::connect(addr, "alice").expect("connect");
    let reply = mallory
        .ask("q(N) <- r1('boom', N, Y)")
        .expect("a reply, not a hang-up");
    assert_eq!(
        reply_error_code(&reply),
        Some("execution_panicked"),
        "{reply}"
    );
    assert!(reply.contains("source exploded on boom"), "{reply}");
    // The same connection serves its next request, and another tenant is
    // served alongside.
    let reply = mallory
        .ask("q(N) <- r1('a0', N, Y)")
        .expect("connection open");
    assert!(reply_ok(&reply), "{reply}");
    let reply = alice.ask("q(N) <- r1('a0', N, Y)").expect("connect");
    assert!(reply_ok(&reply), "{reply}");
    // The panicking request counts as completed: accepted = completed +
    // rejected still holds.
    let metrics = alice.metrics().expect("metrics");
    assert!(
        metrics.contains("\"accepted\":3,\"completed\":3,\"rejected\":0"),
        "{metrics}"
    );
    alice.shutdown().expect("shutdown");
    handle.join().expect("server drained");
}
