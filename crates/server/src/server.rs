//! The query service: a transport-free [`Service`] core and the TCP
//! [`Server`] that hosts it.
//!
//! The split keeps the wire protocol testable byte-for-byte without
//! sockets: [`Service::handle_line`] maps one request line to one response
//! line, and the TCP layer only moves lines. Inside the service, the four
//! tentpole mechanisms compose:
//!
//! * a [`StatementRegistry`](crate::StatementRegistry) plans each distinct
//!   statement once and shares the `Arc<Prepared>` across tenants;
//! * a [`SessionRegistry`](crate::SessionRegistry) accounts per-tenant
//!   access budgets, enforced by threading the remaining budget into
//!   [`Prepared::execute_capped`](toorjah_system::Prepared::execute_capped)
//!   — over-budget executions abort atomically, never answering partially;
//! * an [`Admission`](crate::Admission) controller caps concurrent
//!   executions and rejects with `retry_after_ms` once its bounded wait
//!   queue fills;
//! * every execution-bearing request emits `request_accepted` and exactly
//!   one terminal `request_completed`/`request_rejected` trace event, so
//!   `trace_check --drained` can reconcile accepted = completed + rejected
//!   at exit.
//!
//! Shutdown is graceful by construction: the `shutdown` verb flips the
//! draining flag and drains admission; connection loops finish the line
//! they are on, new requests get the `shutting_down` error, and
//! [`Server::run`] joins every connection thread before returning.

use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use toorjah_catalog::Symbol;
use toorjah_engine::EngineError;
use toorjah_obs::EventKind;
use toorjah_system::{Toorjah, ToorjahError};

use crate::admission::{Admission, Admit};
use crate::registry::{normalize, StatementRegistry};
use crate::session::SessionRegistry;
use crate::wire::{self, ErrorCode, WireValue};

/// The default per-tenant access budget: generous for interactive use,
/// finite so a runaway tenant cannot monopolize the sources.
pub const DEFAULT_TENANT_BUDGET: usize = 100_000;

/// Service tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Performed-access budget handed to each new tenant session.
    pub default_budget: usize,
    /// Maximum concurrent statement executions.
    pub max_inflight: usize,
    /// Maximum requests waiting for an execution slot before rejection.
    pub max_queue: usize,
    /// The `retry_after_ms` hint sent with admission rejections.
    pub retry_after_ms: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            default_budget: DEFAULT_TENANT_BUDGET,
            max_inflight: 8,
            max_queue: 16,
            retry_after_ms: 25,
        }
    }
}

/// The transport-free request processor: one request line in, one response
/// line out. `Send + Sync`; connection threads share one instance.
pub struct Service {
    system: Toorjah,
    statements: StatementRegistry,
    sessions: SessionRegistry,
    admission: Admission,
    started: Instant,
    draining: AtomicBool,
    accepted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
}

impl Service {
    /// Wraps a [`Toorjah`] instance. Install a session cache on the
    /// instance (the builder's `.cache()`/`.cache_config()`) — without one
    /// every statement is served by its own access log alone and tenants
    /// share nothing, which defeats the daemon's purpose (the `serve` CLI mode
    /// always installs one).
    pub fn new(system: Toorjah, config: ServiceConfig) -> Self {
        Service {
            system,
            statements: StatementRegistry::new(),
            sessions: SessionRegistry::new(config.default_budget),
            admission: Admission::new(config.max_inflight, config.max_queue, config.retry_after_ms),
            started: Instant::now(),
            draining: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// The wrapped system.
    pub fn system(&self) -> &Toorjah {
        &self.system
    }

    /// Whether a `shutdown` request has started the drain.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Flips the service into draining: new execution requests are refused
    /// (`shutting_down`), queued admissions are woken and refused,
    /// in-flight executions run to completion.
    pub fn begin_shutdown(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.admission.drain();
    }

    /// Blocks until no execution is in flight. Call after
    /// [`Service::begin_shutdown`].
    pub fn await_idle(&self) {
        self.admission.await_idle();
    }

    /// Maps one request line to one response line — the whole wire
    /// protocol lives behind this function.
    pub fn handle_line(&self, line: &str) -> String {
        let request = match wire::parse_request(line) {
            Ok(r) => r,
            Err(message) => {
                return wire::error_line(None, ErrorCode::MalformedRequest, &message, None)
            }
        };
        let id = match request.get("id") {
            Some(WireValue::Num(id)) => *id,
            _ => {
                return wire::error_line(
                    None,
                    ErrorCode::MalformedRequest,
                    "missing required integer field \"id\"",
                    None,
                )
            }
        };
        let verb = match request.str_field("verb") {
            Some(v) => v,
            None => {
                return wire::error_line(
                    Some(id),
                    ErrorCode::MalformedRequest,
                    "missing required string field \"verb\"",
                    None,
                )
            }
        };
        let tenant = request.str_field("tenant").unwrap_or("default");
        match verb {
            "prepare" => self.handle_prepare(id, &request),
            "execute" => self.handle_execution(id, verb, tenant, &request, false),
            "ask" => self.handle_execution(id, verb, tenant, &request, true),
            "explain" => self.handle_explain(id, &request),
            "cache_stats" => self.handle_cache_stats(id),
            "metrics" => self.handle_metrics(id),
            "shutdown" => {
                self.begin_shutdown();
                let mut out = wire::ok_head(id, "shutdown");
                out.push_str(",\"draining\":true}");
                out
            }
            other => wire::error_line(
                Some(id),
                ErrorCode::UnknownVerb,
                &format!("no verb \"{other}\""),
                None,
            ),
        }
    }

    fn query_field<'r>(&self, id: i64, request: &'r wire::WireRequest) -> Result<&'r str, String> {
        request.str_field("query").ok_or_else(|| {
            wire::error_line(
                Some(id),
                ErrorCode::MissingQuery,
                "this verb requires a string field \"query\"",
                None,
            )
        })
    }

    fn handle_prepare(&self, id: i64, request: &wire::WireRequest) -> String {
        let text = match self.query_field(id, request) {
            Ok(t) => t,
            Err(reply) => return reply,
        };
        match self.statements.get_or_prepare(&self.system, text) {
            Ok((_, cached)) => {
                let mut out = wire::ok_head(id, "prepare");
                out.push_str(",\"statement\":");
                wire::push_json_string(&mut out, &normalize(text));
                out.push_str(if cached {
                    ",\"cached\":true}"
                } else {
                    ",\"cached\":false}"
                });
                out
            }
            Err(e) => wire::error_line(Some(id), ErrorCode::QueryError, &e.to_string(), None),
        }
    }

    /// The `execute`/`ask` path: admission → budget → capped execution →
    /// charge. `ad_hoc` distinguishes `ask` (one-shot parse + plan, parse
    /// and plan timings in the profile) from `execute` (plan shared via
    /// the statement registry).
    fn handle_execution(
        &self,
        id: i64,
        verb: &str,
        tenant: &str,
        request: &wire::WireRequest,
        ad_hoc: bool,
    ) -> String {
        let text = match self.query_field(id, request) {
            Ok(t) => t,
            Err(reply) => return reply,
        };
        if self.is_draining() {
            return wire::error_line(
                Some(id),
                ErrorCode::ShuttingDown,
                "the server is draining",
                None,
            );
        }
        let obs = self.system.obs();
        let tenant_sym = Symbol::intern(tenant);
        let verb_sym = Symbol::intern(verb);
        let accepted_at = Instant::now();
        self.accepted.fetch_add(1, Ordering::Relaxed);
        if let Some(c) = obs.counter("server.accepted") {
            c.inc();
        }
        obs.trace(0, || EventKind::RequestAccepted {
            tenant: tenant_sym,
            verb: verb_sym,
        });
        let permit = match self.admission.admit() {
            Admit::Admitted(permit) => permit,
            Admit::Rejected { retry_after_ms } => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                if let Some(c) = obs.counter("server.rejected") {
                    c.inc();
                }
                obs.trace(0, || EventKind::RequestRejected {
                    tenant: tenant_sym,
                    verb: verb_sym,
                    retry_after_ms,
                });
                return wire::error_line(
                    Some(id),
                    ErrorCode::AdmissionRejected,
                    "all execution slots busy and the wait queue is full",
                    Some(retry_after_ms),
                );
            }
            Admit::Draining => {
                // Drain began while we queued: terminal like any other
                // completed-with-typed-error request.
                return self.complete(
                    id,
                    tenant_sym,
                    verb_sym,
                    accepted_at,
                    Err((
                        ErrorCode::ShuttingDown,
                        "the server is draining".to_string(),
                        None,
                    )),
                );
            }
        };
        if let Some(g) = obs.gauge("server.inflight") {
            g.set(self.admission.inflight() as u64);
        }
        let remaining = self.sessions.begin(tenant);
        if let Some(g) = obs.gauge("server.sessions") {
            g.set(self.sessions.len() as u64);
        }
        let outcome = if remaining == 0 {
            Err((
                ErrorCode::BudgetExhausted,
                format!("tenant \"{tenant}\" has no access budget remaining"),
                None,
            ))
        } else {
            let mode = self.system.default_mode();
            let result = if ad_hoc {
                self.system.ask_capped(text, mode, Some(remaining))
            } else {
                self.statements
                    .get_or_prepare(&self.system, text)
                    .and_then(|(prepared, _)| prepared.execute_capped(mode, Some(remaining)))
            };
            match result {
                Ok(response) => {
                    let performed =
                        usize::try_from(response.profile.accesses_performed).unwrap_or(usize::MAX);
                    let budget_remaining = self.sessions.charge(tenant, performed);
                    let mut out = wire::ok_head(id, verb);
                    out.push_str(",\"budget_remaining\":");
                    out.push_str(&budget_remaining.to_string());
                    out.push_str(",\"response\":");
                    out.push_str(&response.to_json_without_metrics(self.system.schema()));
                    out.push('}');
                    Ok(out)
                }
                Err(ToorjahError::Execution(EngineError::AccessBudgetExceeded { limit })) => Err((
                    ErrorCode::BudgetExhausted,
                    format!(
                        "tenant \"{tenant}\" exhausted its access budget \
                             (remaining {limit} access(es) did not cover the execution)"
                    ),
                    None,
                )),
                Err(e) => Err((ErrorCode::QueryError, e.to_string(), None)),
            }
        };
        drop(permit);
        if let Some(g) = obs.gauge("server.inflight") {
            g.set(self.admission.inflight() as u64);
        }
        self.complete(id, tenant_sym, verb_sym, accepted_at, outcome)
    }

    /// The terminal bookkeeping of an accepted request: one
    /// `request_completed` event whether it answered or failed with a
    /// typed error (rejections take the other terminal path).
    fn complete(
        &self,
        id: i64,
        tenant: Symbol,
        verb: Symbol,
        accepted_at: Instant,
        outcome: Result<String, (ErrorCode, String, Option<u64>)>,
    ) -> String {
        self.completed.fetch_add(1, Ordering::Relaxed);
        let obs = self.system.obs();
        if let Some(c) = obs.counter("server.completed") {
            c.inc();
        }
        let micros = u64::try_from(accepted_at.elapsed().as_micros()).unwrap_or(u64::MAX);
        obs.trace(0, || EventKind::RequestCompleted {
            tenant,
            verb,
            micros,
        });
        match outcome {
            Ok(reply) => reply,
            Err((code, message, retry_after_ms)) => {
                wire::error_line(Some(id), code, &message, retry_after_ms)
            }
        }
    }

    fn handle_explain(&self, id: i64, request: &wire::WireRequest) -> String {
        let text = match self.query_field(id, request) {
            Ok(t) => t,
            Err(reply) => return reply,
        };
        match self.system.explain(text) {
            Ok(explanation) => {
                let mut out = wire::ok_head(id, "explain");
                out.push_str(",\"explanation\":");
                wire::push_json_string(&mut out, &explanation);
                out.push('}');
                out
            }
            Err(e) => wire::error_line(Some(id), ErrorCode::QueryError, &e.to_string(), None),
        }
    }

    fn handle_cache_stats(&self, id: i64) -> String {
        let stats = self.system.cache_stats().unwrap_or_default();
        let mut out = wire::ok_head(id, "cache_stats");
        out.push_str(&format!(
            ",\"cache\":{{\"hits\":{},\"coalesced_hits\":{},\"misses\":{},\
             \"load_failures\":{},\"insertions\":{},\"evictions\":{},\
             \"oversized\":{},\"entries\":{},\"bytes\":{}}}}}",
            stats.hits,
            stats.coalesced_hits,
            stats.misses,
            stats.load_failures,
            stats.insertions,
            stats.evictions,
            stats.oversized,
            stats.entries,
            stats.bytes,
        ));
        out
    }

    fn handle_metrics(&self, id: i64) -> String {
        let mut out = wire::ok_head(id, "metrics");
        let uptime_us = u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX);
        out.push_str(&format!(
            ",\"server\":{{\"sessions\":{},\"inflight\":{},\"accepted\":{},\
             \"completed\":{},\"rejected\":{},\"statements\":{},\"uptime_us\":{}}}",
            self.sessions.len(),
            self.admission.inflight(),
            self.accepted.load(Ordering::Relaxed),
            self.completed.load(Ordering::Relaxed),
            self.rejected.load(Ordering::Relaxed),
            self.statements.len(),
            uptime_us,
        ));
        out.push_str(",\"tenants\":");
        self.sessions.write_json(&mut out);
        out.push_str(",\"metrics\":");
        match self.system.metrics() {
            Some(report) => report.write_json(&mut out),
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }
}

/// The TCP host: accepts connections, runs one line loop per connection,
/// and drains gracefully when a `shutdown` request arrives.
pub struct Server {
    listener: TcpListener,
    service: Arc<Service>,
}

/// How long a connection loop waits on its socket before re-checking the
/// draining flag. Bounds shutdown latency without busy-waiting.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// The longest request line a connection buffers, newline excluded. A
/// client that sends more without a newline gets one `malformed_request`
/// reply and the connection is closed, so a peer that never ends its line
/// cannot grow the server's buffer without limit.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port; read it back with
    /// [`Server::local_addr`]).
    pub fn bind(addr: &str, service: Service) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            service: Arc::new(service),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The hosted service (shareable before `run`, e.g. to pre-prepare
    /// statements).
    pub fn service(&self) -> Arc<Service> {
        Arc::clone(&self.service)
    }

    /// Serves until a `shutdown` request, then drains: stops accepting,
    /// joins every connection thread (each finishes the request it is on),
    /// and returns once no execution is in flight.
    pub fn run(self) -> std::io::Result<()> {
        let addr = self.listener.local_addr()?;
        let mut connections = Vec::new();
        for stream in self.listener.incoming() {
            if self.service.is_draining() {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) if self.service.is_draining() => break,
                Err(e) => return Err(e),
            };
            if self.service.is_draining() {
                break;
            }
            reap_finished(&mut connections);
            let service = Arc::clone(&self.service);
            connections.push(std::thread::spawn(move || {
                let _ = serve_connection(stream, &service, addr);
            }));
        }
        for connection in connections {
            let _ = connection.join();
        }
        self.service.await_idle();
        Ok(())
    }
}

/// Joins the connection threads that have already returned, so a
/// long-lived daemon holds handles only for the connections still open.
fn reap_finished(connections: &mut Vec<JoinHandle<()>>) {
    let mut i = 0;
    while i < connections.len() {
        if connections[i].is_finished() {
            let _ = connections.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

/// One connection's line loop: read a request line, write the response
/// line, until EOF, drain, or a line longer than [`MAX_REQUEST_LINE`]. The
/// read timeout keeps the loop responsive to a drain initiated on another
/// connection; the dummy self-connect at the end wakes the accept loop out
/// of `incoming()`.
fn serve_connection(
    stream: TcpStream,
    service: &Service,
    server_addr: SocketAddr,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut buf: Vec<u8> = Vec::new();
    loop {
        // Buffer at most the cap plus the newline: one more byte without
        // one proves the line too long.
        let room = (MAX_REQUEST_LINE + 1).saturating_sub(buf.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut buf) {
            Ok(0) => break,
            Ok(_) if buf.len() > MAX_REQUEST_LINE && buf.last() != Some(&b'\n') => {
                let message = format!("request line exceeds {MAX_REQUEST_LINE} bytes");
                let mut reply = wire::error_line(None, ErrorCode::MalformedRequest, &message, None);
                reply.push('\n');
                writer.write_all(reply.as_bytes())?;
                writer.flush()?;
                break;
            }
            Ok(_) => {
                let line = String::from_utf8_lossy(&buf).into_owned();
                let line = line.trim_end_matches(['\n', '\r']);
                if !line.trim().is_empty() {
                    let mut reply = service.handle_line(line);
                    reply.push('\n');
                    writer.write_all(reply.as_bytes())?;
                    writer.flush()?;
                }
                buf.clear();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Timeout with a partial line buffered: keep accumulating.
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        if service.is_draining() {
            break;
        }
    }
    if service.is_draining() {
        // Wake `TcpListener::incoming` so the accept loop observes the
        // drain; the throwaway connection is dropped unserved.
        let _ = TcpStream::connect(server_addr);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use toorjah_cache::SharedAccessCache;
    use toorjah_catalog::{tuple, Instance, Schema};
    use toorjah_engine::InstanceSource;

    fn service(config: ServiceConfig) -> Service {
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
            .build();
        Service::new(system, config)
    }

    #[test]
    fn execute_charges_the_budget_and_embeds_the_response() {
        let service = service(ServiceConfig::default());
        let reply = service.handle_line(
            r#"{"id":1,"verb":"execute","tenant":"alice","query":"q(C) <- r1('a', B), r2(B, C)"}"#,
        );
        assert!(
            reply.starts_with("{\"id\":1,\"ok\":true,\"verb\":\"execute\""),
            "{reply}"
        );
        assert!(
            reply.contains(&format!(
                "\"budget_remaining\":{}",
                DEFAULT_TENANT_BUDGET - 2
            )),
            "{reply}"
        );
        assert!(reply.contains("\"answers\":[[\"c1\"]]"), "{reply}");
        // The second run is fully cache-served: the budget does not move.
        let reply = service.handle_line(
            r#"{"id":2,"verb":"execute","tenant":"alice","query":"q(C) <- r1('a', B), r2(B, C)"}"#,
        );
        assert!(
            reply.contains(&format!(
                "\"budget_remaining\":{}",
                DEFAULT_TENANT_BUDGET - 2
            )),
            "{reply}"
        );
        assert!(reply.contains("\"accesses_served_by_cache\":2"), "{reply}");
    }

    #[test]
    fn a_zero_budget_tenant_gets_the_typed_error() {
        let service = service(ServiceConfig {
            default_budget: 0,
            ..ServiceConfig::default()
        });
        let reply = service.handle_line(
            r#"{"id":1,"verb":"ask","tenant":"broke","query":"q(C) <- r1('a', B), r2(B, C)"}"#,
        );
        assert_eq!(
            reply,
            "{\"id\":1,\"ok\":false,\"error\":{\"code\":\"budget_exhausted\",\
             \"message\":\"tenant \\\"broke\\\" has no access budget remaining\",\
             \"retry_after_ms\":null}}"
        );
    }

    #[test]
    fn a_binding_cap_is_a_typed_error_with_no_partial_answer() {
        let service = service(ServiceConfig {
            default_budget: 1,
            ..ServiceConfig::default()
        });
        let reply = service.handle_line(
            r#"{"id":1,"verb":"ask","tenant":"thin","query":"q(C) <- r1('a', B), r2(B, C)"}"#,
        );
        assert!(reply.contains("\"code\":\"budget_exhausted\""), "{reply}");
        assert!(!reply.contains("\"answers\""), "{reply}");
    }

    #[test]
    fn shutdown_flips_the_service_into_draining() {
        let service = service(ServiceConfig::default());
        let reply = service.handle_line(r#"{"id":9,"verb":"shutdown"}"#);
        assert_eq!(
            reply,
            "{\"id\":9,\"ok\":true,\"verb\":\"shutdown\",\"draining\":true}"
        );
        assert!(service.is_draining());
        let reply = service.handle_line(r#"{"id":10,"verb":"ask","query":"q(B) <- r1('a', B)"}"#);
        assert!(reply.contains("\"code\":\"shutting_down\""), "{reply}");
    }

    #[test]
    fn metrics_folds_server_tenants_and_registry() {
        let service = service(ServiceConfig::default());
        service.handle_line(
            r#"{"id":1,"verb":"execute","tenant":"alice","query":"q(B) <- r1('a', B)"}"#,
        );
        let reply = service.handle_line(r#"{"id":2,"verb":"metrics"}"#);
        assert!(
            reply.contains(
                "\"server\":{\"sessions\":1,\"inflight\":0,\"accepted\":1,\
             \"completed\":1,\"rejected\":0,\"statements\":1,\"uptime_us\":"
            ),
            "{reply}"
        );
        assert!(
            reply.contains("\"tenants\":{\"alice\":{\"budget_limit\":"),
            "{reply}"
        );
        assert!(reply.contains("\"metrics\":{\"interner\":{"), "{reply}");
        assert_eq!(
            reply.matches('{').count(),
            reply.matches('}').count(),
            "{reply}"
        );
    }

    #[test]
    fn reap_finished_joins_only_returned_threads() {
        let (release, blocked) = std::sync::mpsc::channel::<()>();
        let done = std::thread::spawn(|| {});
        let open = std::thread::spawn(move || {
            let _ = blocked.recv();
        });
        while !done.is_finished() {
            std::thread::yield_now();
        }
        let mut connections = vec![done, open];
        reap_finished(&mut connections);
        assert_eq!(connections.len(), 1, "the open thread is kept");
        release.send(()).unwrap();
        while !connections[0].is_finished() {
            std::thread::yield_now();
        }
        reap_finished(&mut connections);
        assert!(connections.is_empty());
    }
}
