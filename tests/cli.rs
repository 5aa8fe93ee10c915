//! End-to-end tests of the `toorjah` CLI binary: one-shot queries, plan
//! explanation, the naive comparison, the REPL loop, and error paths.

use std::io::Write;
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_toorjah");

fn sample_file() -> tempfile::NamedFile {
    tempfile::NamedFile::new(
        "relation r1^ioo(Artist, Nation, Year)\n\
         relation r2^oio(Title, Year, Artist)\n\
         relation r3^oo(Artist, Album)\n\
         r1(modugno, italy, 1928)\n\
         r1(mina, italy, 1958)\n\
         r2(volare, 1958, modugno)\n\
         r3(modugno, \"nel blu\")\n\
         r3(mina, \"studio uno\")\n",
    )
}

/// Minimal self-cleaning temp file (no external crates).
mod tempfile {
    use std::path::PathBuf;

    pub struct NamedFile {
        path: PathBuf,
    }

    impl NamedFile {
        pub fn new(contents: &str) -> Self {
            let path = std::env::temp_dir().join(format!(
                "toorjah-cli-test-{}-{:?}.toorjah",
                std::process::id(),
                std::thread::current().id(),
            ));
            std::fs::write(&path, contents).expect("temp file written");
            NamedFile { path }
        }

        pub fn path(&self) -> &std::path::Path {
            &self.path
        }
    }

    impl Drop for NamedFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

#[test]
fn one_shot_query() {
    let file = sample_file();
    let out = Command::new(BIN)
        .arg(file.path())
        .args(["--query", "q(N) <- r1(A, N, Y1), r2('volare', Y2, A)"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("italy"), "{stdout}");
}

#[test]
fn explain_shows_the_program() {
    let file = sample_file();
    let out = Command::new(BIN)
        .arg(file.path())
        .args(["--explain", "q(N) <- r1(A, N, Y1), r2('volare', Y2, A)"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("datalog program"), "{stdout}");
    assert!(stdout.contains("r1_hat1"), "{stdout}");
    assert!(stdout.contains("pruning level: static"), "{stdout}");
}

#[test]
fn naive_comparison() {
    let file = sample_file();
    let out = Command::new(BIN)
        .arg(file.path())
        .args(["--naive", "q(N) <- r1(A, N, Y1), r2('volare', Y2, A)"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("naive:") && stdout.contains("optimized:"),
        "{stdout}"
    );
}

#[test]
fn repl_session() {
    let file = sample_file();
    let mut child = Command::new(BIN)
        .arg(file.path())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("repl starts");
    let mut stdin = child.stdin.take().unwrap();
    writeln!(stdin, ":schema").unwrap();
    writeln!(stdin, "q(A) <- r3(A, B)").unwrap();
    writeln!(stdin, ":quit").unwrap();
    drop(stdin);
    let out = child.wait_with_output().expect("repl exits");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("r1^ioo"), "schema shown: {stdout}");
    assert!(
        stdout.contains("modugno") && stdout.contains("mina"),
        "{stdout}"
    );
}

#[test]
fn json_output_has_the_response_shape() {
    let file = sample_file();
    let out = Command::new(BIN)
        .arg(file.path())
        .args([
            "--json",
            "--query",
            "q(N) <- r1(A, N, Y1), r2('volare', Y2, A)",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json = stdout.trim();
    // One JSON object with the Response/ExecutionProfile shape.
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    assert_eq!(json.lines().count(), 1, "single-line JSON: {json}");
    for key in [
        "\"statement\":\"cq\"",
        "\"mode\":\"sequential\"",
        "\"answers\":[[\"italy\"]]",
        "\"answer_count\":1",
        "\"rejected\":0",
        "\"skipped_disjuncts\":[]",
        "\"prune_level\":\"static\"",
        "\"accesses_performed\":",
        "\"accesses_served_by_cache\":",
        "\"per_relation\":",
        "\"dispatch\":",
        "\"accesses_pruned\":",
        "\"pruned_per_frontier\":[",
        "\"timings_us\":",
        "\"parse\":",
        "\"plan\":",
        "\"execute\":",
        "\"execution\":1",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

#[test]
fn interned_plane_keeps_display_and_json_goldens_byte_identical() {
    // The interned data plane must be invisible at the serialization
    // boundary: answer rendering (Display) and the machine-readable JSON
    // are pinned byte-for-byte against pre-interning goldens.
    let file = sample_file();
    let out = Command::new(BIN)
        .arg(file.path())
        .args(["--query", "q(A, B) <- r3(A, B)"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let answer_lines: Vec<&str> = stdout.lines().filter(|l| l.starts_with('⟨')).collect();
    assert_eq!(
        answer_lines,
        vec!["⟨'modugno', 'nel blu'⟩", "⟨'mina', 'studio uno'⟩"],
        "Display golden drifted: {stdout}"
    );

    let out = Command::new(BIN)
        .arg(file.path())
        .args(["--json", "--query", "q(A, B) <- r3(A, B)"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"answers\":[[\"modugno\",\"nel blu\"],[\"mina\",\"studio uno\"]]"),
        "JSON golden drifted: {stdout}"
    );
}

#[test]
fn union_and_negated_statements_run_through_the_same_flag() {
    let file = sample_file();
    // A union statement: two disjuncts over r3.
    let out = Command::new(BIN)
        .arg(file.path())
        .args(["--query", "q(A) <- r3(A, B); q(A) <- r1(A, N, Y)"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("modugno") && stdout.contains("mina"),
        "{stdout}"
    );
    // A negated statement emitted as JSON: ¬r1(A, 'italy', 1928) rejects
    // modugno (an exact witness) and keeps mina (1958 ≠ 1928).
    let out = Command::new(BIN)
        .arg(file.path())
        .args([
            "--json",
            "--query",
            "q(A) <- r3(A, B), !r1(A, 'italy', 1928)",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"statement\":\"negated\""), "{stdout}");
    assert!(stdout.contains("\"rejected\":1"), "{stdout}");
    assert!(stdout.contains("\"answers\":[[\"mina\"]]"), "{stdout}");
}

#[test]
fn prune_and_first_k_flags() {
    let file = sample_file();
    // Runtime pruning: answers unchanged, and the JSON carries the pruned
    // counter.
    let out = Command::new(BIN)
        .arg(file.path())
        .args([
            "--prune-level",
            "runtime",
            "--json",
            "--query",
            "q(N) <- r1(A, N, Y1), r2('volare', Y2, A)",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"answers\":[[\"italy\"]]"), "{stdout}");
    assert!(stdout.contains("\"accesses_pruned\":"), "{stdout}");
    // --first-k 1 on a query with two answers returns exactly one.
    let out = Command::new(BIN)
        .arg(file.path())
        .args(["--first-k", "1", "--json", "--query", "q(A) <- r3(A, B)"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"answer_count\":1"), "{stdout}");
    // --first-k without a value fails cleanly.
    let out = Command::new(BIN)
        .arg(file.path())
        .args(["--first-k"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn prune_level_flag() {
    let file = sample_file();
    // Every tier answers the query identically; the JSON reports the level.
    for level in ["off", "static", "runtime"] {
        let out = Command::new(BIN)
            .arg(file.path())
            .args([
                "--prune-level",
                level,
                "--json",
                "--query",
                "q(N) <- r1(A, N, Y1), r2('volare', Y2, A)",
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("\"answers\":[[\"italy\"]]"), "{stdout}");
        assert!(
            stdout.contains(&format!("\"prune_level\":\"{level}\"")),
            "{level}: {stdout}"
        );
    }
    // An unknown level fails cleanly, `magic` included.
    for level in ["bogus", "magic"] {
        let out = Command::new(BIN)
            .arg(file.path())
            .args(["--prune-level", level])
            .output()
            .expect("binary runs");
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown pruning level '{level}'")),
            "{stderr}"
        );
        assert!(stderr.contains("off|static|runtime)"), "{stderr}");
    }
    // A missing argument fails cleanly too.
    let out = Command::new(BIN)
        .arg(file.path())
        .args(["--prune-level"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}

/// First number following `key` inside `s`.
fn number_after(s: &str, key: &str) -> u64 {
    let rest = &s[s
        .find(key)
        .unwrap_or_else(|| panic!("{key} missing in {s}"))
        + key.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("no number after {key} in {s}"))
}

/// Sum of every number following `key` inside `s`.
fn sum_after(s: &str, key: &str) -> u64 {
    let mut total = 0;
    let mut rest = s;
    while let Some(i) = rest.find(key) {
        rest = &rest[i + key.len()..];
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        total += digits.parse::<u64>().unwrap();
    }
    total
}

/// The golden shape of the `metrics` block: stable key order, kernel and
/// per-source dispatch instruments present, and per-shard cache counters
/// summing exactly to the `cache` totals.
#[test]
fn json_metrics_block_golden_shape() {
    let file = sample_file();
    let out = Command::new(BIN)
        .arg(file.path())
        .args([
            "--json",
            "--query",
            "q(N) <- r1(A, N, Y1), r2('volare', Y2, A)",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json = stdout.trim();
    let metrics_at = json.find("\"metrics\":{").expect("metrics block present");
    let metrics = &json[metrics_at..];
    // Stable key order within the block.
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
            metrics
                .find(k)
                .unwrap_or_else(|| panic!("{k} missing in {metrics}"))
        })
        .collect();
    assert!(positions.windows(2).all(|w| w[0] < w[1]), "{metrics}");
    // The kernel and dispatcher instruments are populated.
    assert!(number_after(metrics, "\"kernel.rounds\":") > 0, "{metrics}");
    assert!(
        number_after(metrics, "\"kernel.accesses_requested\":") > 0,
        "{metrics}"
    );
    assert!(
        metrics.contains("\"kernel.round_us\":{\"count\":"),
        "{metrics}"
    );
    assert!(metrics.contains("\"dispatch.batch_size\":"), "{metrics}");
    assert!(metrics.contains("\"dispatch.latency_us.r1\":"), "{metrics}");
    assert!(metrics.contains("\"dispatch.latency_us.r2\":"), "{metrics}");
    assert!(number_after(metrics, "\"symbols\":") > 0, "{metrics}");
    // Shard counters sum to the cache totals, field by field.
    let cache = &metrics[metrics.find("\"cache\":{").unwrap()..];
    let shards = &cache[cache.find("\"shards\":[").unwrap()..];
    let totals = &cache[..cache.len() - shards.len()];
    for key in [
        "\"hits\":",
        "\"coalesced_hits\":",
        "\"misses\":",
        "\"load_failures\":",
        "\"insertions\":",
        "\"evictions\":",
        "\"oversized\":",
    ] {
        assert_eq!(
            number_after(totals, key),
            sum_after(shards, key),
            "shard counters sum to the cache total for {key} in {metrics}"
        );
    }
    // The execution actually exercised the cache (misses were recorded).
    assert!(number_after(totals, "\"misses\":") > 0, "{metrics}");
}

/// `--metrics` prints the instance-level snapshot as one JSON object on
/// stdout, after the answers.
#[test]
fn metrics_flag_prints_a_snapshot() {
    let file = sample_file();
    let out = Command::new(BIN)
        .arg(file.path())
        .args([
            "--metrics",
            "--query",
            "q(N) <- r1(A, N, Y1), r2('volare', Y2, A)",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let snapshot = stdout
        .lines()
        .find(|l| l.starts_with("{\"interner\":"))
        .unwrap_or_else(|| panic!("no metrics line in {stdout}"));
    assert!(snapshot.contains("\"kernel.rounds\":"), "{snapshot}");
    assert!(snapshot.contains("\"dispatch.latency_us."), "{snapshot}");
    assert_eq!(snapshot.matches('{').count(), snapshot.matches('}').count());
}

/// `--trace=<path>` writes parseable JSON lines whose lifecycle events
/// reconcile: every requested access is terminally resolved.
#[test]
fn trace_flag_writes_reconciling_json_lines() {
    let file = sample_file();
    let trace_path =
        std::env::temp_dir().join(format!("toorjah-cli-trace-{}.jsonl", std::process::id()));
    let out = Command::new(BIN)
        .arg(file.path())
        .arg(format!("--trace={}", trace_path.display()))
        .args(["--query", "q(N) <- r1(A, N, Y1), r2('volare', Y2, A)"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    let _ = std::fs::remove_file(&trace_path);
    assert!(!text.is_empty());
    for line in text.lines() {
        assert!(
            line.starts_with("{\"seq\":") && line.ends_with('}'),
            "malformed trace line: {line}"
        );
        assert!(line.contains("\"event\":\""), "{line}");
    }
    let requested = text.matches("\"event\":\"access_requested\"").count();
    let terminal = text.matches("\"event\":\"access_served_cache\"").count()
        + text.matches("\"event\":\"access_served_source\"").count()
        + text.matches("\"event\":\"access_pruned\"").count()
        + text.matches("\"event\":\"access_failed\"").count();
    assert!(requested > 0, "{text}");
    assert_eq!(requested, terminal, "{text}");
}

#[test]
fn bad_query_fails_cleanly() {
    let file = sample_file();
    let out = Command::new(BIN)
        .arg(file.path())
        .args(["--query", "q(N) <- nope(N)"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown relation"), "{stderr}");
}

#[test]
fn missing_file_fails_cleanly() {
    let out = Command::new(BIN)
        .arg("/definitely/not/a/file.toorjah")
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn malformed_source_reports_line() {
    let file = tempfile::NamedFile::new("relation r^o(A)\nr(1, 2)\n");
    let out = Command::new(BIN)
        .arg(file.path())
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2"), "{stderr}");
}
