//! `daemon_traffic`: the repository's `toorjah serve`, started as a child
//! process over a music instance the benchmark writes out, driven by two
//! connections that replay seeded `workload::traffic` tenant streams in a
//! closed loop. Three requests in four are `execute` (the plan is shared
//! through the registry), one in four is `ask` (parsed and planned on every
//! call). The sources are in memory and the daemon's unbounded cache holds
//! the whole working set after the warm-up, so the costs measured are the
//! wire, the server, the cache hit path, JSON rendering and, on `ask`, the
//! planner.
//!
//! The benchmark speaks the line protocol itself, one write per request on
//! a socket with `TCP_NODELAY`.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use toorjah_catalog::{Instance, Schema, Tuple, Value};
use toorjah_workload::{
    music_instance, music_schema, traffic, traffic_statements, MusicConfig, OverlapParams,
    TrafficParams,
};

use crate::json::{self, Json};
use crate::layers::{self, Tally, Times};
use crate::trace::Tracer;
use crate::{
    check, end_to_end, latency_details, metric, oracle, quantile, Args, Metric, Outcome, SplitMix,
};

/// Client connections, each a closed loop on its own thread.
const CONNECTIONS: usize = 2;
/// Tenants; connection `c` sends as tenants `c, c + 2, c + 4, …`.
const TENANTS: usize = 8;
/// Requests generated per tenant stream; streams repeat when exhausted.
const REQUESTS_PER_TENANT: usize = 512;
/// Large enough that the timed phase never exhausts a tenant's budget.
const BUDGET: &str = "1000000000";
/// How long the daemon may take to listen, and to exit after `shutdown`.
const START_TIMEOUT: Duration = Duration::from_secs(60);
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);

/// A directory inside the checkout, removed when dropped.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The daemon child process. Dropping it on any path that did not shut it
/// down cleanly kills it and waits for it, so no run leaves it behind.
struct Daemon {
    child: Child,
}

impl Daemon {
    fn start(bin: &Path, source: &Path, dir: &Path) -> Result<(Daemon, SocketAddr), String> {
        let port_file = dir.join("port");
        let log = std::fs::File::create(dir.join("daemon.log")).map_err(|e| e.to_string())?;
        let child = Command::new(bin)
            .arg("serve")
            .arg(source)
            .args(["--addr", "127.0.0.1:0", "--budget", BUDGET, "--port-file"])
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut daemon = Daemon { child };
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            // The port file is written whole with a trailing newline.
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Some(addr) = text.strip_suffix('\n').and_then(|a| a.parse().ok()) {
                    return Ok((daemon, addr));
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                let log = std::fs::read_to_string(dir.join("daemon.log")).unwrap_or_default();
                return Err(format!(
                    "the daemon exited with {status} before listening: {log}"
                ));
            }
            if Instant::now() > deadline {
                return Err("the daemon did not listen in time".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Waits for the daemon to exit after `shutdown`, and checks it exited
    /// cleanly.
    fn finish(mut self) -> Result<(), String> {
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("the daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("the daemon did not exit after shutdown".to_string()),
                Err(e) => return Err(format!("cannot wait for the daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One connection speaking the line protocol.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
    next_id: u64,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            writer: stream,
            reader,
            line: String::new(),
            next_id: 0,
        })
    }

    /// Sends one request in one write and reads its reply line.
    fn request(
        &mut self,
        verb: &str,
        tenant: &str,
        query: Option<&str>,
    ) -> Result<(u64, String), String> {
        self.next_id += 1;
        let id = self.next_id;
        self.line.clear();
        let _ = write!(
            self.line,
            "{{\"id\":{id},\"verb\":\"{verb}\",\"tenant\":\"{tenant}\""
        );
        if let Some(query) = query {
            self.line.push_str(",\"query\":\"");
            for c in query.chars() {
                match c {
                    '"' => self.line.push_str("\\\""),
                    '\\' => self.line.push_str("\\\\"),
                    c => self.line.push(c),
                }
            }
            self.line.push('"');
        }
        self.line.push_str("}\n");
        self.writer
            .write_all(self.line.as_bytes())
            .map_err(|e| format!("request {id}: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => return Err(format!("request {id}: the daemon closed the connection")),
            Ok(_) => {}
            Err(e) => return Err(format!("request {id}: {e}")),
        }
        reply.truncate(reply.trim_end().len());
        check::reply_ok(id, &reply)?;
        Ok((id, reply))
    }
}

/// The answers array of an `execute`/`ask` reply, as its JSON text.
fn answers_text(reply: &str) -> Option<&str> {
    let start = reply.find("\"answers\":")? + "\"answers\":".len();
    let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
    for (i, b) in reply[start..].bytes().enumerate() {
        match b {
            _ if escaped => escaped = false,
            b'\\' if in_string => escaped = true,
            b'"' => in_string = !in_string,
            b'[' if !in_string => depth += 1,
            b']' if !in_string => {
                depth -= 1;
                if depth == 0 {
                    return Some(&reply[start..start + i + 1]);
                }
            }
            _ => {}
        }
    }
    None
}

fn json_tuples(text: &str) -> Result<Vec<Tuple>, String> {
    let Json::Arr(rows) = json::parse(text)? else {
        return Err("answers are not an array".to_string());
    };
    rows.iter()
        .map(|row| match row {
            Json::Arr(values) => values
                .iter()
                .map(|v| match v {
                    Json::Str(s) => Ok(Value::str(s)),
                    Json::Num(n) => Ok(Value::int(*n as i64)),
                    other => Err(format!("unexpected answer value {other:?}")),
                })
                .collect::<Result<Vec<_>, _>>()
                .map(Tuple::new),
            other => Err(format!("unexpected answer row {other:?}")),
        })
        .collect()
}

/// Checks replies' answers against the evaluator's, remembering the answer
/// texts already verified for each statement so repeats cost a comparison.
struct Verifier<'a> {
    expected: &'a HashMap<String, Vec<Tuple>>,
    verified: HashMap<&'a str, Vec<String>>,
}

impl<'a> Verifier<'a> {
    fn new(expected: &'a HashMap<String, Vec<Tuple>>) -> Self {
        Verifier {
            expected,
            verified: HashMap::new(),
        }
    }

    fn check(&mut self, statement: &'a str, reply: &str) -> Result<(), String> {
        let text =
            answers_text(reply).ok_or_else(|| format!("{statement}: no answers in the reply"))?;
        let seen = self.verified.entry(statement).or_default();
        if seen.iter().any(|s| s == text) {
            return Ok(());
        }
        let want = self
            .expected
            .get(statement)
            .ok_or_else(|| format!("{statement}: not in the statement pool"))?;
        check::answers(statement, json_tuples(text)?, want)?;
        seen.push(text.to_string());
        Ok(())
    }
}

/// The daemon's view of one request, read from its reply in a traced run.
#[derive(Default, Clone, Copy)]
struct ServerSide {
    total_us: f64,
    parse_us: f64,
    plan_us: f64,
    execute_us: f64,
    performed: f64,
    served: f64,
    pruned: f64,
    frontiers: f64,
    batches: f64,
}

fn server_side(reply: &str) -> Result<ServerSide, String> {
    let v = json::parse(reply)?;
    let t = |k: &str| v.num_at(&["response", "profile", "timings_us", k]);
    let p = |path: &[&str]| {
        let mut full = vec!["response", "profile"];
        full.extend_from_slice(path);
        v.num_at(&full)
    };
    Ok(ServerSide {
        total_us: t("total")?,
        parse_us: t("parse").unwrap_or(0.0),
        plan_us: t("plan").unwrap_or(0.0),
        execute_us: t("execute")?,
        performed: p(&["accesses_performed"])?,
        served: p(&["accesses_served_by_cache"])?,
        pruned: p(&["dispatch", "accesses_pruned"])?,
        frontiers: p(&["dispatch", "frontiers"])?,
        batches: p(&["dispatch", "batches"])?,
    })
}

struct Sample {
    ask: bool,
    latency: Duration,
    reply_bytes: usize,
    server: ServerSide,
}

/// Writes the instance in the `.toorjah` source format the CLI loads.
fn write_source(path: &Path, schema: &Schema, instance: &Instance) -> Result<(), String> {
    let mut text = String::new();
    for (id, rel) in schema.iter() {
        let _ = writeln!(text, "relation {}", rel.display(schema.domains()));
        for t in instance.full_extension(id) {
            let values: Vec<String> = t
                .values()
                .iter()
                .map(|v| match v.as_int() {
                    Some(i) => i.to_string(),
                    None => format!("\"{}\"", v.as_str().unwrap_or_default()),
                })
                .collect();
            let _ = writeln!(text, "{}({})", rel.name(), values.join(", "));
        }
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

pub fn run(args: &Args, started: Instant, tracer: &Arc<Tracer>) -> Result<Outcome, String> {
    let bin = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("toorjah");
    let dir = TempDir(args.out.join(format!("daemon-{}", std::process::id())));
    std::fs::create_dir_all(&dir.0)
        .map_err(|e| format!("cannot create {}: {e}", dir.0.display()))?;
    let schema = music_schema();
    let instance = music_instance(&schema, &MusicConfig::default());
    let source = dir.0.join("music.toorjah");
    write_source(&source, &schema, &instance)?;
    let (daemon, addr) = Daemon::start(&bin, &source, &dir.0)?;

    // The seed draws the tenants' streams and the order of the statement
    // pool; the pool is large enough to hold every distinct statement the
    // generator makes, so its make-up does not depend on the seed.
    let mut rng = SplitMix(args.seed);
    let params = TrafficParams {
        tenants: TENANTS,
        requests_per_tenant: REQUESTS_PER_TENANT,
        statement_pool: 64,
        overlap: OverlapParams {
            seed: rng.next_u64(),
            ..OverlapParams::default()
        },
        seed: rng.next_u64(),
    };
    let pool = traffic_statements(&params);
    let streams = traffic(&params);
    let mut expected = HashMap::new();
    for text in &pool {
        let q = oracle::parse(text, &schema)?;
        expected.insert(
            text.clone(),
            oracle::evaluate(&q, &schema, &instance).answers,
        );
    }

    let mut clients: Vec<Client> = (0..CONNECTIONS)
        .map(|_| Client::connect(addr))
        .collect::<Result<_, _>>()?;
    let mut sent = 0u64;
    // Warm-up: every statement once per verb, so the registry holds every
    // plan and the cache every extraction.
    let mut verifier = Verifier::new(&expected);
    for text in &pool {
        for verb in ["execute", "ask"] {
            let (_, reply) = clients[0].request(verb, "warmup", Some(text))?;
            verifier.check(text, &reply)?;
            sent += 1;
        }
    }
    let evictions_before = cache_evictions(&mut clients[0])?;
    let setup = started.elapsed();

    let budget = Duration::from_secs_f64(args.seconds);
    let timed = Instant::now();
    let results: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let streams = &streams;
                let expected = &expected;
                scope.spawn(move || {
                    let mut verifier = Verifier::new(expected);
                    let tenants: Vec<&_> = streams.iter().skip(c).step_by(CONNECTIONS).collect();
                    let mut next = vec![0usize; tenants.len()];
                    let mut samples = Vec::new();
                    let mut i = 0usize;
                    while timed.elapsed() < budget {
                        // Every tenant takes its turn at `ask`.
                        let t = (i + i / 4) % tenants.len();
                        let ask = i % 4 == 3;
                        let requests = &tenants[t].requests;
                        let text = requests[next[t] % requests.len()].as_str();
                        next[t] += 1;
                        let start = Instant::now();
                        let verb = if ask { "ask" } else { "execute" };
                        let (id, reply) = client.request(verb, &tenants[t].tenant, Some(text))?;
                        let end = Instant::now();
                        tracer.record("wire", (c as u64) << 32 | id, start, end);
                        verifier.check(text, &reply)?;
                        let server = if tracer.enabled() {
                            server_side(&reply)?
                        } else {
                            ServerSide::default()
                        };
                        samples.push(Sample {
                            ask,
                            latency: end - start,
                            reply_bytes: reply.len() + 1,
                            server,
                        });
                        i += 1;
                    }
                    Ok(samples)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a client thread panicked".to_string()))
            })
            .collect()
    });
    let elapsed = timed.elapsed();
    let mut samples = Vec::new();
    for r in results {
        samples.extend(r?);
    }
    sent += samples.len() as u64;

    let evictions = cache_evictions(&mut clients[0])? - evictions_before;
    let (_, reply) = clients[0].request("metrics", "warmup", None)?;
    let m = json::parse(&reply)?;
    check::server_counts(
        sent,
        m.num_at(&["server", "accepted"])? as u64,
        m.num_at(&["server", "completed"])? as u64,
        m.num_at(&["server", "rejected"])? as u64,
    )?;
    let rss_mb = crate::peak_rss_mb(&daemon.pid())?;
    clients[0].request("shutdown", "warmup", None)?;
    drop(clients);
    daemon.finish()?;

    let us = |s: &Sample| s.latency.as_secs_f64() * 1e6;
    let all: Vec<f64> = samples
        .iter()
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect();
    let execute: Vec<f64> = samples.iter().filter(|s| !s.ask).map(us).collect();
    let ask: Vec<f64> = samples.iter().filter(|s| s.ask).map(us).collect();
    let mut details = latency_details(&all);
    details.extend([
        metric("execute_p50_us", quantile(&execute, 0.5), "us"),
        metric("execute_p99_us", quantile(&execute, 0.99), "us"),
        metric("ask_p50_us", quantile(&ask, 0.5), "us"),
        metric("ask_p99_us", quantile(&ask, 0.99), "us"),
        metric("requests", samples.len() as f64, "count"),
        metric("distinct_statements", pool.len() as f64, "count"),
    ]);
    let metrics = if args.trace {
        layer_metrics(&samples, evictions)
    } else {
        end_to_end(setup, elapsed, &all, rss_mb)
    };
    Ok(Outcome {
        attempted: samples.len() as u64,
        metrics,
        details,
    })
}

/// The daemon cache's eviction counter.
fn cache_evictions(client: &mut Client) -> Result<f64, String> {
    let (_, reply) = client.request("cache_stats", "warmup", None)?;
    json::parse(&reply)?.num_at(&["cache", "evictions"])
}

/// The per-layer metrics of the daemon, from the replies' own accounts.
/// The daemon's sources are in its memory and every timed access is served
/// by its cache, so no source time is observed; it dispatches one access
/// per round trip.
fn layer_metrics(samples: &[Sample], evictions: f64) -> Vec<Metric> {
    let sum = |f: fn(&ServerSide) -> f64| samples.iter().map(|s| f(&s.server)).sum::<f64>();
    let mean = |xs: Vec<f64>| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let asks = || samples.iter().filter(|s| s.ask).map(|s| &s.server);
    let performed = sum(|s| s.performed) as u64;
    let tally = Tally {
        statements: samples.len() as u64,
        performed,
        served: sum(|s| s.served) as u64,
        pruned: sum(|s| s.pruned) as u64,
        frontiers: sum(|s| s.frontiers) as u64,
        batches: sum(|s| s.batches) as u64,
        round_trips: performed,
        evictions: evictions as u64,
    };
    let overhead: Vec<f64> = samples
        .iter()
        .map(|s| s.latency.as_secs_f64() * 1e6 - s.server.total_us)
        .collect();
    let times = Times {
        parse_us: mean(asks().map(|s| s.parse_us).collect()),
        prepare_us: mean(asks().map(|s| s.plan_us).collect()),
        execute_us: sum(|s| s.execute_us) / samples.len().max(1) as f64,
        execute_self_ns: sum(|s| s.execute_us) * 1e3,
        source_busy_ns: 0.0,
        source_wait_ns: 0.0,
        server_overhead_us: quantile(&overhead, 0.5),
        reply_bytes: mean(samples.iter().map(|s| s.reply_bytes as f64).collect()),
    };
    layers::metrics(&tally, &times)
}

#[cfg(test)]
mod tests {
    use super::*;
    use toorjah_catalog::tuple;

    #[test]
    fn answers_text_spans_the_array_only() {
        let reply = r#"{"id":1,"ok":true,"response":{"answers":[["a]"],[1958]],"answer_count":2}}"#;
        assert_eq!(answers_text(reply), Some(r#"[["a]"],[1958]]"#));
        assert_eq!(answers_text(r#"{"id":1,"ok":true}"#), None);
    }

    #[test]
    fn verifier_fails_on_wrong_answers() {
        let q = "q(N) <- r1('a1', N, Y)".to_string();
        let want = oracle::normalize(vec![tuple!["n1"], tuple![1958]]);
        let expected = HashMap::from([(q.clone(), want)]);
        let mut v = Verifier::new(&expected);
        let good = r#"{"id":1,"ok":true,"response":{"answers":[[1958],["n1"]]}}"#;
        assert!(v.check(&q, good).is_ok());
        assert!(v.check(&q, good).is_ok());
        let mut v = Verifier::new(&expected);
        let wrong = r#"{"id":1,"ok":true,"response":{"answers":[["n2"],[1958]]}}"#;
        assert!(v.check(&q, wrong).is_err());
        let short = r#"{"id":1,"ok":true,"response":{"answers":[["n1"]]}}"#;
        assert!(v.check(&q, short).is_err());
        assert!(v.check("q(X) <- r3(X, Y)", good).is_err());
    }
}
