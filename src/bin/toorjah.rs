//! `toorjah` — command-line interface to the Toorjah system.
//!
//! Load a *source file* describing a schema with access limitations and its
//! data, then answer queries with access-minimal plans:
//!
//! ```console
//! $ toorjah examples/music.toorjah --query "q(N) <- r1(A, N, Y1), r2('volare', Y2, A)"
//! $ toorjah examples/music.toorjah --explain "q(N) <- ..."
//! $ toorjah examples/music.toorjah --json --query "q(N) <- ..."
//! $ toorjah examples/music.toorjah --parallelism 8 --batch-size 16 --query "..."
//! $ toorjah examples/music.toorjah          # interactive REPL
//! ```
//!
//! Queries are *statements*: a plain conjunctive query, a union
//! (`;`-separated disjuncts) or safe negation (`!`-prefixed literals) all
//! go through the same `--query` flag (and the same `Toorjah::ask`).
//!
//! `--parallelism <n>` fans each round's access frontier out over `n`
//! worker threads; `--batch-size <n>` groups up to `n` accesses per source
//! round trip. Answers and access counts are invariant in both — only
//! wall-clock changes. `--prune-level <off|static|runtime>` selects the
//! pruning tier (answers invariant at every level): `off` disables the
//! planner's static strong-arc pruning, `static` is the default, `runtime`
//! adds the kernel's access-relevance pruner. `--first-k <n>` stops as
//! soon as `n` answers are certain.
//! `--json` emits the full `Response` (answers plus the
//! `ExecutionProfile`: access stats, cache attribution, dispatch account
//! incl. pruned-access counters, phase timings) as one JSON object on
//! stdout. `--trace` streams per-access trace events as JSON lines to
//! stderr (`--trace=<path>` writes them to a file instead); `--metrics`
//! prints the metrics snapshot — kernel/dispatch counters, per-source
//! latency histograms, interner occupancy and per-shard cache counters —
//! as one JSON object after the query.
//!
//! Source-file format (`#` comments; one statement per line):
//!
//! ```text
//! # relations, paper notation
//! relation r1^ioo(Artist, Nation, Year)
//! relation r3^oo(Artist, Album)
//! # tuples: relation(value, ...); numbers are ints, anything else a string
//! r1(modugno, italy, 1928)
//! r3(modugno, "nel blu dipinto di blu")
//! ```
//!
//! REPL commands: a query (`q(X) <- ...`), `:explain <query>`, `:schema`,
//! `:naive <query>` (run the Fig. 1 baseline and compare), `:help`, `:quit`.
//!
//! **Daemon mode** — `toorjah serve <source-file>` starts the long-running
//! query service (see DESIGN.md §10 and the `toorjah-server` crate): a TCP
//! daemon speaking line-delimited JSON with per-tenant access budgets,
//! admission control and one shared access cache across all tenants:
//!
//! ```console
//! $ toorjah serve examples/music.toorjah --addr 127.0.0.1:0 --trace=/tmp/t.jsonl
//! listening on 127.0.0.1:40123
//! ```

use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::sync::Arc;

use toorjah::cache::SharedAccessCache;
use toorjah::catalog::{Instance, Schema, Tuple, Value};
use toorjah::engine::{naive_evaluate, DispatchOptions, InstanceSource, NaiveOptions};
use toorjah::obs::{Obs, WriterSink};
use toorjah::query::parse_query;
use toorjah::server::{Server, Service, ServiceConfig};
use toorjah::system::Toorjah;

const USAGE: &str = "usage: toorjah <source-file> [--parallelism <n>] [--batch-size <n>] \
                     [--prune-level <off|static|runtime>] [--first-k <n>] [--json] \
                     [--trace[=<path>]] [--metrics] \
                     [--query <q> | --explain <q> | --naive <q>]\n\
                     \x20      toorjah serve <source-file> [--addr <host:port>] \
                     [--port-file <path>] [--budget <n>] [--max-inflight <n>] \
                     [--max-queue <n>] [--retry-after-ms <n>] [--parallelism <n>] \
                     [--batch-size <n>] [--trace=<path>]";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if path == "serve" {
        return run_serve(args);
    }
    if path == "--help" || path == "-h" {
        eprintln!("{USAGE}");
        eprintln!("With no flags, starts an interactive REPL; see :help inside.");
        eprintln!(
            "--parallelism <n>  fan each access frontier out over n worker threads\n\
             --batch-size <n>   group up to n accesses per source round trip\n\
             --prune-level <l>  pruning tier: off | static (default) | runtime\n\
             --first-k <n>      stop as soon as n answers are certain\n\
             --json             emit the full response (answers + execution profile) as JSON\n\
             --trace[=<path>]   export per-access trace events as JSON lines (stderr, or <path>)\n\
             --metrics          print the metrics snapshot (counters, histograms, cache shards)"
        );
        return ExitCode::SUCCESS;
    }

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (schema, instance) = match load_source(&text) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("cannot load {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "loaded {} relations, {} tuples from {path}",
        schema.relation_count(),
        instance.total_tuples()
    );
    let provider = InstanceSource::new(schema.clone(), instance);

    // One-shot modes and dispatch flags.
    let mut mode: Option<(String, String)> = None;
    let mut dispatch = DispatchOptions::default();
    let mut json = false;
    let mut prune_level = toorjah::engine::PruningLevel::default();
    let mut first_k = None;
    // None = tracing off; Some(None) = stderr; Some(Some(path)) = file.
    let mut trace: Option<Option<String>> = None;
    let mut show_metrics = false;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--query" | "--explain" | "--naive" => {
                let Some(q) = args.next() else {
                    eprintln!("{flag} needs a query argument");
                    return ExitCode::from(2);
                };
                mode = Some((flag, q));
            }
            "--json" => json = true,
            "--prune-level" => {
                let level = args.next().map(|v| v.parse());
                match level {
                    Some(Ok(level)) => prune_level = level,
                    Some(Err(e)) => {
                        eprintln!("{e}");
                        return ExitCode::from(2);
                    }
                    None => {
                        eprintln!("--prune-level needs an argument (off|static|runtime)");
                        return ExitCode::from(2);
                    }
                }
            }
            "--metrics" => show_metrics = true,
            "--trace" => trace = Some(None),
            other if other.starts_with("--trace=") => {
                trace = Some(Some(other["--trace=".len()..].to_string()));
            }
            "--parallelism" | "--batch-size" | "--first-k" => {
                let value = match args.next().map(|v| v.parse::<usize>()) {
                    Some(Ok(n)) if n > 0 => n,
                    _ => {
                        eprintln!("{flag} needs a positive integer argument");
                        return ExitCode::from(2);
                    }
                };
                match flag.as_str() {
                    "--parallelism" => dispatch.parallelism = value,
                    "--batch-size" => dispatch.batch_size = value,
                    _ => first_k = Some(value),
                }
            }
            other => {
                eprintln!("unknown flag {other}");
                return ExitCode::from(2);
            }
        }
    }
    let mut builder = Toorjah::builder(provider.clone())
        .dispatch(dispatch)
        .prune_level(prune_level);
    if let Some(k) = first_k {
        builder = builder.first_k(k);
    }
    match trace {
        None => {}
        Some(None) => {
            builder =
                builder.observability(Obs::with_sink(Arc::new(WriterSink::new(std::io::stderr()))))
        }
        Some(Some(path)) => match std::fs::File::create(&path) {
            Ok(file) => {
                builder = builder.observability(Obs::with_sink(Arc::new(WriterSink::new(file))));
            }
            Err(e) => {
                eprintln!("cannot create trace file {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
    }
    let system = builder.build();
    if let Some((flag, q)) = mode {
        let code = match flag.as_str() {
            "--query" => run_query(&system, &q, json),
            "--explain" => run_explain(&system, &q),
            "--naive" => run_naive(&system, &provider, &schema, dispatch, &q),
            _ => unreachable!(),
        };
        if show_metrics {
            emit_metrics(&system);
        }
        system.obs().flush();
        return code;
    }

    // REPL.
    eprintln!("toorjah repl — :help for commands");
    let stdin = std::io::stdin();
    loop {
        eprint!("toorjah> ");
        let _ = std::io::stderr().flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => return ExitCode::SUCCESS, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                return ExitCode::FAILURE;
            }
        }
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match line {
            ":quit" | ":q" | ":exit" => return ExitCode::SUCCESS,
            ":schema" => println!("{schema}"),
            ":help" => {
                println!(
                    ":schema            show the loaded schema\n\
                     :explain <query>   show the optimized plan(s)\n\
                     :naive <query>     run the Fig. 1 baseline and compare accesses\n\
                     :quit              exit\n\
                     <query>            e.g. q(X) <- r(X, Y); disjuncts join with ';',\n\
                                        negated literals start with '!'"
                );
            }
            _ if line.starts_with(":explain ") => {
                let _ = run_explain(&system, line.trim_start_matches(":explain "));
            }
            _ if line.starts_with(":naive ") => {
                let _ = run_naive(
                    &system,
                    &provider,
                    &schema,
                    dispatch,
                    line.trim_start_matches(":naive "),
                );
            }
            _ if line.starts_with(':') => eprintln!("unknown command; :help"),
            query => {
                let _ = run_query(&system, query, json);
                if show_metrics {
                    emit_metrics(&system);
                }
                system.obs().flush();
            }
        }
    }
}

/// Prints the instance-level metrics snapshot as one JSON object on stdout.
fn emit_metrics(system: &Toorjah) {
    match system.metrics() {
        Some(report) => println!("{}", report.to_json()),
        None => eprintln!("metrics unavailable: observability is disabled"),
    }
}

fn run_query(system: &Toorjah, q: &str, json: bool) -> ExitCode {
    match system.ask(q) {
        Ok(response) => {
            if json {
                println!("{}", response.to_json(system.schema()));
                return ExitCode::SUCCESS;
            }
            for answer in &response.answers {
                println!("{answer}");
            }
            eprintln!(
                "{} answer(s), {} access(es) ({} cache-served); dispatch: {}",
                response.answer_count(),
                response.profile.accesses_performed,
                response.profile.accesses_served_by_cache,
                response.profile.dispatch.summary()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_explain(system: &Toorjah, q: &str) -> ExitCode {
    match system.explain(q) {
        Ok(text) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_naive(
    system: &Toorjah,
    provider: &InstanceSource,
    schema: &Schema,
    dispatch: DispatchOptions,
    q: &str,
) -> ExitCode {
    let query = match parse_query(q, schema) {
        Ok(q) => q,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let naive_options = NaiveOptions {
        dispatch,
        ..NaiveOptions::default()
    };
    let naive = match naive_evaluate(&query, schema, provider, naive_options) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("naive evaluation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    match system.ask_query(&query) {
        Ok(optimized) => {
            println!(
                "naive: {} accesses; optimized: {} accesses ({:.1}% saved); {} answer(s)",
                naive.stats.total_accesses,
                optimized.profile.stats.total_accesses,
                100.0
                    * (1.0
                        - optimized.profile.stats.total_accesses as f64
                            / naive.stats.total_accesses.max(1) as f64),
                optimized.answer_count(),
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `toorjah serve` daemon mode: load the source file, build one
/// `Toorjah` instance over one shared cache, and serve the wire protocol
/// until a `shutdown` request drains the server. Prints
/// `listening on <addr>` on stdout (and into `--port-file` when given) so
/// callers binding port 0 can discover the ephemeral port.
fn run_serve(mut args: impl Iterator<Item = String>) -> ExitCode {
    let Some(path) = args.next() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let mut addr = "127.0.0.1:0".to_string();
    let mut port_file = None;
    let mut config = ServiceConfig::default();
    let mut dispatch = DispatchOptions::default();
    let mut trace_path = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--addr" => {
                let Some(a) = args.next() else {
                    eprintln!("--addr needs a host:port argument");
                    return ExitCode::from(2);
                };
                addr = a;
            }
            "--port-file" => {
                let Some(p) = args.next() else {
                    eprintln!("--port-file needs a path argument");
                    return ExitCode::from(2);
                };
                port_file = Some(p);
            }
            other if other.starts_with("--trace=") => {
                trace_path = Some(other["--trace=".len()..].to_string());
            }
            "--budget" | "--max-inflight" | "--max-queue" | "--retry-after-ms"
            | "--parallelism" | "--batch-size" => {
                let value = match args.next().map(|v| v.parse::<usize>()) {
                    Some(Ok(n)) => n,
                    _ => {
                        eprintln!("{flag} needs a non-negative integer argument");
                        return ExitCode::from(2);
                    }
                };
                match flag.as_str() {
                    "--budget" => config.default_budget = value,
                    "--max-inflight" => config.max_inflight = value.max(1),
                    "--max-queue" => config.max_queue = value,
                    "--retry-after-ms" => config.retry_after_ms = value as u64,
                    "--parallelism" => dispatch.parallelism = value.max(1),
                    _ => dispatch.batch_size = value.max(1),
                }
            }
            other => {
                eprintln!("unknown flag {other}");
                return ExitCode::from(2);
            }
        }
    }
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (schema, instance) = match load_source(&text) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("cannot load {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "loaded {} relations, {} tuples from {path}",
        schema.relation_count(),
        instance.total_tuples()
    );
    let mut builder = Toorjah::builder(InstanceSource::new(schema, instance))
        .dispatch(dispatch)
        .cache(SharedAccessCache::unbounded());
    if let Some(trace_path) = trace_path {
        match std::fs::File::create(&trace_path) {
            Ok(file) => {
                builder = builder.observability(Obs::with_sink(Arc::new(WriterSink::new(file))));
            }
            Err(e) => {
                eprintln!("cannot create trace file {trace_path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let system = builder.build();
    let obs = system.obs();
    let server = match Server::bind(&addr, Service::new(system, config)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let local = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cannot read the bound address: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {local}");
    let _ = std::io::stdout().flush();
    if let Some(port_file) = port_file {
        if let Err(e) = std::fs::write(&port_file, format!("{local}\n")) {
            eprintln!("cannot write port file {port_file}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let result = server.run();
    obs.flush();
    match result {
        Ok(()) => {
            eprintln!("drained; bye");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("server error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses a source file into a schema and instance.
fn load_source(text: &str) -> Result<(Schema, Instance), String> {
    let mut schema_decls = String::new();
    let mut data_lines: Vec<(usize, &str)> = Vec::new();
    for (no, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("relation ") {
            schema_decls.push_str(rest.trim());
            schema_decls.push('\n');
        } else {
            data_lines.push((no + 1, line));
        }
    }
    let schema = Schema::parse(&schema_decls).map_err(|e| format!("schema error: {e}"))?;
    let mut instance = Instance::new(&schema);
    for (no, line) in data_lines {
        let (name, tuple) = parse_fact(line).map_err(|e| format!("line {no}: {e} in {line:?}"))?;
        instance
            .insert(&name, tuple)
            .map_err(|e| format!("line {no}: {e}"))?;
    }
    Ok((schema, instance))
}

/// Parses `relname(v1, v2, ...)`; numbers become ints, quoted or bare words
/// become strings.
fn parse_fact(line: &str) -> Result<(String, Tuple), String> {
    let open = line.find('(').ok_or("missing '('")?;
    if !line.ends_with(')') {
        return Err("missing trailing ')'".to_string());
    }
    let name = line[..open].trim().to_string();
    if name.is_empty() {
        return Err("empty relation name".to_string());
    }
    let body = &line[open + 1..line.len() - 1];
    let mut values = Vec::new();
    if !body.trim().is_empty() {
        for part in split_values(body)? {
            values.push(parse_value(&part)?);
        }
    }
    Ok((name, Tuple::new(values)))
}

/// Splits on commas outside quotes.
fn split_values(body: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    for c in body.chars() {
        match c {
            '"' => {
                in_quotes = !in_quotes;
                current.push(c);
            }
            ',' if !in_quotes => {
                out.push(current.trim().to_string());
                current.clear();
            }
            _ => current.push(c),
        }
    }
    if in_quotes {
        return Err("unterminated quote".to_string());
    }
    out.push(current.trim().to_string());
    Ok(out)
}

fn parse_value(s: &str) -> Result<Value, String> {
    if s.is_empty() {
        return Err("empty value".to_string());
    }
    if let Some(stripped) = s.strip_prefix('"') {
        let inner = stripped.strip_suffix('"').ok_or("unterminated quote")?;
        return Ok(Value::str(inner));
    }
    if let Ok(n) = s.parse::<i64>() {
        return Ok(Value::int(n));
    }
    Ok(Value::str(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# music sources
relation r1^ioo(Artist, Nation, Year)
relation r3^oo(Artist, Album)

r1(modugno, italy, 1928)
r3(modugno, "nel blu dipinto di blu")  # quoted string
"#;

    #[test]
    fn load_sample_source() {
        let (schema, db) = load_source(SAMPLE).unwrap();
        assert_eq!(schema.relation_count(), 2);
        assert_eq!(db.total_tuples(), 2);
        let r1 = schema.relation_id("r1").unwrap();
        let row = &db.full_extension(r1)[0];
        assert_eq!(row[2], Value::int(1928));
    }

    #[test]
    fn quoted_strings_keep_commas_out() {
        let vals = split_values(r#"a, "b, c", 3"#).unwrap();
        assert_eq!(vals, vec!["a", r#""b, c""#, "3"]);
        assert_eq!(parse_value(r#""b, c""#).unwrap(), Value::str("b, c"));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "relation r^o(A)\nr(1, 2)\n";
        let err = load_source(bad).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn fact_parse_errors() {
        assert!(parse_fact("r(1, 2").is_err());
        assert!(parse_fact("(1)").is_err());
        assert!(parse_fact("r 1, 2)").is_err());
        assert!(split_values(r#""unterminated"#).is_err());
    }

    #[test]
    fn nullary_fact() {
        let (name, t) = parse_fact("flag()").unwrap();
        assert_eq!(name, "flag");
        assert!(t.is_empty());
    }
}
