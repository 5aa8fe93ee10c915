//! Validates the committed `BENCH_<area>.json` performance trajectory.
//!
//! The vendored criterion harness persists each bench target's medians to
//! `BENCH_<area>.json` at the workspace root (committed per PR) and, in
//! smoke mode, to `target/bench-smoke/` (freshly produced by the CI smoke
//! steps, never committed). This validator cross-checks the two:
//!
//! 1. every required area has a committed file that parses, names its area,
//!    and lists at least one benchmark with a positive `median_ns`;
//! 2. when a smoke snapshot exists for an area, the committed file's
//!    benchmark *name set* matches it — a committed file that still lists
//!    renamed or deleted benchmarks (or misses new ones) is stale and fails
//!    the build. Medians are not compared: smoke numbers are unmeasured.
//!
//! Usage: `cargo run -p toorjah-bench --bin bench_trajectory [--root DIR]`.
//! Exits non-zero with a per-file report on any failure.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The bench areas every PR must keep a trajectory snapshot for.
const REQUIRED_AREAS: [&str; 8] = [
    "cache",
    "dispatch",
    "relevance",
    "execution",
    "datalog",
    "obs",
    "kernel",
    "server",
];

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    let root = root.unwrap_or_else(|| {
        workspace_root().unwrap_or_else(|| {
            eprintln!("cannot locate the workspace root (no Cargo.lock upward of cwd)");
            std::process::exit(1);
        })
    });

    let mut failures = 0usize;
    for area in REQUIRED_AREAS {
        match check_area(&root, area) {
            Ok(report) => println!("ok: {report}"),
            Err(e) => {
                eprintln!("FAIL [{area}]: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!(
            "{failures} of {} trajectory files failed",
            REQUIRED_AREAS.len()
        );
        ExitCode::FAILURE
    } else {
        println!("bench trajectory valid: {} areas", REQUIRED_AREAS.len());
        ExitCode::SUCCESS
    }
}

fn workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("Cargo.lock").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn check_area(root: &Path, area: &str) -> Result<String, String> {
    let committed_path = root.join(format!("BENCH_{area}.json"));
    let text = std::fs::read_to_string(&committed_path)
        .map_err(|e| format!("missing committed {}: {e}", committed_path.display()))?;
    let snapshot = parse_snapshot(&text)
        .map_err(|e| format!("malformed {}: {e}", committed_path.display()))?;
    if snapshot.area != area {
        return Err(format!(
            "area field is {:?}, expected {area:?}",
            snapshot.area
        ));
    }
    if snapshot.benchmarks.is_empty() {
        return Err("no benchmarks recorded".into());
    }
    for (name, median_ns) in &snapshot.benchmarks {
        if name.is_empty() {
            return Err("empty benchmark name".into());
        }
        if *median_ns == 0 {
            return Err(format!("benchmark {name:?} has median_ns 0 (unmeasured?)"));
        }
    }

    // The kernel area carries a speedup guard: the committed medians must
    // show the delta-join evaluator at least 2× ahead of the full-join
    // reference on the 120-chain transitive closure. A refactor that quietly
    // loses the semi-naive advantage fails here, not in a reviewer's head.
    if area == "kernel" {
        let median = |wanted: &str| {
            snapshot
                .benchmarks
                .iter()
                .find(|(n, _)| n == wanted)
                .map(|&(_, m)| m)
                .ok_or_else(|| format!("missing benchmark {wanted:?}"))
        };
        let semi = median("seminaive_transitive_closure_120")?;
        let full = median("fulljoin_transitive_closure_120")?;
        if full < semi.saturating_mul(2) {
            return Err(format!(
                "semi-naive speedup guard: full-join median {full} ns is \
                 under 2x the delta-join median {semi} ns"
            ));
        }
    }

    // Staleness: compare the name set against a fresh smoke snapshot, when
    // the smoke steps produced one.
    let smoke_path = root
        .join("target")
        .join("bench-smoke")
        .join(format!("BENCH_{area}.json"));
    let freshness = match std::fs::read_to_string(&smoke_path) {
        Err(_) => "no smoke snapshot to cross-check".to_string(),
        Ok(smoke_text) => {
            let smoke = parse_snapshot(&smoke_text)
                .map_err(|e| format!("malformed smoke snapshot {}: {e}", smoke_path.display()))?;
            let committed: BTreeSet<&str> = snapshot
                .benchmarks
                .iter()
                .map(|(n, _)| n.as_str())
                .collect();
            let fresh: BTreeSet<&str> = smoke.benchmarks.iter().map(|(n, _)| n.as_str()).collect();
            if committed != fresh {
                let missing: Vec<&&str> = fresh.difference(&committed).collect();
                let extra: Vec<&&str> = committed.difference(&fresh).collect();
                return Err(format!(
                    "stale: committed names diverge from the current bench target \
                     (missing {missing:?}, stale {extra:?}) — re-run \
                     `cargo bench -p toorjah-bench --bench {area}` and commit the result"
                ));
            }
            "names match smoke snapshot".to_string()
        }
    };
    Ok(format!(
        "BENCH_{area}.json: {} benchmarks, {freshness}",
        snapshot.benchmarks.len()
    ))
}

struct Snapshot {
    area: String,
    benchmarks: Vec<(String, u64)>,
}

/// Hand-rolled parser for the snapshot shape `{"area": "...",
/// "benchmarks": [{"name": "...", "median_ns": N}, ...]}` — the workspace
/// has no JSON dependency, and the emitter (vendored criterion) produces
/// exactly this shape.
fn parse_snapshot(text: &str) -> Result<Snapshot, String> {
    let area = string_field(text, "area").ok_or("missing \"area\" string field")?;
    let list_start = text
        .find("\"benchmarks\"")
        .ok_or("missing \"benchmarks\" field")?;
    let open = text[list_start..]
        .find('[')
        .ok_or("\"benchmarks\" is not an array")?
        + list_start;
    let close = text[open..]
        .rfind(']')
        .ok_or("unterminated \"benchmarks\" array")?
        + open;
    let body = &text[open + 1..close];

    let mut benchmarks = Vec::new();
    for entry in split_objects(body)? {
        let name = string_field(&entry, "name")
            .ok_or_else(|| format!("entry without \"name\": {entry}"))?;
        let median = number_field(&entry, "median_ns")
            .ok_or_else(|| format!("entry without numeric \"median_ns\": {entry}"))?;
        benchmarks.push((name, median));
    }
    Ok(Snapshot { area, benchmarks })
}

/// Splits the inside of a JSON array into its top-level `{...}` objects.
fn split_objects(body: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = None;
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => {
                if depth == 0 {
                    start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth = depth.checked_sub(1).ok_or("unbalanced braces")?;
                if depth == 0 {
                    let s = start.take().ok_or("unbalanced braces")?;
                    out.push(body[s..=i].to_string());
                }
            }
            _ => {}
        }
    }
    if depth != 0 || in_string {
        return Err("unterminated object or string".into());
    }
    Ok(out)
}

/// The value of `"key": "..."`, unescaping the minimal JSON escapes the
/// emitter produces.
fn string_field(text: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\"");
    let at = text.find(&pat)? + pat.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'u' => {
                    let code: String = chars.by_ref().take(4).collect();
                    let n = u32::from_str_radix(&code, 16).ok()?;
                    out.push(char::from_u32(n)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

/// The value of `"key": <integer>`.
fn number_field(text: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\"");
    let at = text.find(&pat)? + pat.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    if digits.is_empty() {
        return None;
    }
    digits.parse().ok()
}
