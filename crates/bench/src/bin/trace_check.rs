//! Validates a JSON-lines trace file produced by the CLI's `--trace=<path>`
//! flag (a `toorjah_obs::WriterSink` export).
//!
//! Checks, per line and across the stream:
//!
//! 1. every line is one JSON object with numeric `seq`, `round` and `us`
//!    fields and a string `event` field naming a known event kind;
//! 2. sequence ids are strictly increasing (the sink preserves the
//!    emitter's deterministic order);
//! 3. the access lifecycle reconciles: the number of `access_requested`
//!    events equals `access_served_cache + access_served_source +
//!    access_pruned + access_failed` — every requested access is
//!    terminally resolved exactly once;
//! 4. the server request lifecycle reconciles: `request_accepted` equals
//!    `request_completed + request_rejected` plus the requests still in
//!    flight when the trace ended (every accepted request reaches exactly
//!    one terminal event — see the `toorjah-server` crate);
//! 5. with `--drained`, that in-flight remainder must be zero — the
//!    property of a *graceful* shutdown, where the server finishes every
//!    admitted request before exiting;
//! 6. with `--monotone-deltas`, at least one `delta_round` event is present
//!    and, within each fixpoint segment (between `fixpoint_reached`
//!    boundaries), the per-round `delta` sizes never increase. This is an
//!    opt-in property: it holds for straight-line frontier schedules like
//!    the paper's Example 1, not for every workload.
//!
//! Usage: `cargo run -p toorjah-bench --bin trace_check <trace.jsonl>
//! [--monotone-deltas] [--drained]`. Prints a one-line summary and exits
//! non-zero on any violation.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// The event names the trace taxonomy can emit (`EventKind::name`).
const KNOWN_EVENTS: [&str; 15] = [
    "round_start",
    "round_end",
    "access_requested",
    "access_dispatched",
    "access_served_cache",
    "access_served_source",
    "access_pruned",
    "access_failed",
    "cache_evict",
    "batch_coalesced",
    "fixpoint_reached",
    "delta_round",
    "request_accepted",
    "request_rejected",
    "request_completed",
];

fn main() -> ExitCode {
    let mut path = None;
    let mut monotone_deltas = false;
    let mut drained = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--monotone-deltas" => monotone_deltas = true,
            "--drained" => drained = true,
            _ if path.is_none() => path = Some(arg),
            other => {
                eprintln!("unexpected argument: {other}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: trace_check <trace.jsonl> [--monotone-deltas] [--drained]");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match check_full(&text, monotone_deltas, drained) {
        Ok(summary) => {
            println!("ok: {path}: {summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("FAIL: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
fn check(text: &str) -> Result<String, String> {
    check_full(text, false, false)
}

#[cfg(test)]
fn check_with(text: &str, monotone_deltas: bool) -> Result<String, String> {
    check_full(text, monotone_deltas, false)
}

fn check_full(text: &str, monotone_deltas: bool, drained: bool) -> Result<String, String> {
    let mut last_seq = 0u64;
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut lines = 0usize;
    // The previous `delta_round` size within the current fixpoint segment;
    // `fixpoint_reached` closes a segment and resets the baseline.
    let mut last_delta: Option<u64> = None;
    for (no, line) in text.lines().enumerate() {
        let no = no + 1;
        if line.trim().is_empty() {
            return Err(format!("line {no}: empty line in the stream"));
        }
        if !(line.starts_with('{') && line.ends_with('}')) {
            return Err(format!("line {no}: not a JSON object: {line}"));
        }
        let seq = number_field(line, "seq").ok_or(format!("line {no}: no numeric \"seq\""))?;
        number_field(line, "round").ok_or(format!("line {no}: no numeric \"round\""))?;
        number_field(line, "us").ok_or(format!("line {no}: no numeric \"us\""))?;
        let event = string_field(line, "event").ok_or(format!("line {no}: no string \"event\""))?;
        if !KNOWN_EVENTS.contains(&event.as_str()) {
            return Err(format!("line {no}: unknown event {event:?}"));
        }
        if seq <= last_seq {
            return Err(format!(
                "line {no}: sequence id {seq} not strictly above {last_seq}"
            ));
        }
        last_seq = seq;
        match event.as_str() {
            "delta_round" => {
                let delta = number_field(line, "delta")
                    .ok_or(format!("line {no}: delta_round without numeric \"delta\""))?;
                if monotone_deltas {
                    if let Some(prev) = last_delta {
                        if delta > prev {
                            return Err(format!(
                                "line {no}: delta grew from {prev} to {delta} within a \
                                 fixpoint segment (--monotone-deltas)"
                            ));
                        }
                    }
                    last_delta = Some(delta);
                }
            }
            "fixpoint_reached" => last_delta = None,
            _ => {}
        }
        *counts.entry(event).or_default() += 1;
        lines += 1;
    }
    if lines == 0 {
        return Err("empty trace".into());
    }
    if monotone_deltas && !counts.contains_key("delta_round") {
        return Err("--monotone-deltas: trace contains no delta_round events".into());
    }

    let count = |name: &str| counts.get(name).copied().unwrap_or(0);
    let requested = count("access_requested");
    let terminal = count("access_served_cache")
        + count("access_served_source")
        + count("access_pruned")
        + count("access_failed");
    if requested != terminal {
        return Err(format!(
            "lifecycle does not reconcile: {requested} requested vs {terminal} \
             terminal events ({counts:?})"
        ));
    }

    // The server request lifecycle: every accepted request must reach one
    // terminal event (completed or rejected); the remainder was in flight
    // when the trace ended, which a drained trace forbids.
    let accepted = count("request_accepted");
    let request_terminal = count("request_completed") + count("request_rejected");
    if request_terminal > accepted {
        return Err(format!(
            "request lifecycle does not reconcile: {request_terminal} terminal \
             events for only {accepted} accepted requests ({counts:?})"
        ));
    }
    let in_flight = accepted - request_terminal;
    if drained && in_flight != 0 {
        return Err(format!(
            "--drained: {in_flight} of {accepted} accepted request(s) never \
             reached a terminal event ({counts:?})"
        ));
    }

    Ok(format!(
        "{lines} events, {requested} accesses requested and terminally resolved \
         ({} from source, {} from cache, {} pruned, {} failed), {} delta round(s), \
         {accepted} request(s) accepted ({} completed, {} rejected, {in_flight} in flight)",
        count("access_served_source"),
        count("access_served_cache"),
        count("access_pruned"),
        count("access_failed"),
        count("delta_round"),
        count("request_completed"),
        count("request_rejected"),
    ))
}

/// The value of `"key": <integer>` (first occurrence).
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

/// The value of `"key": "..."` (first occurrence, minimal unescaping).
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reconciling_trace_passes() {
        let trace = "\
{\"seq\":1,\"round\":1,\"event\":\"round_start\",\"us\":0,\"requested\":1}\n\
{\"seq\":2,\"round\":1,\"event\":\"access_requested\",\"us\":0,\"relation\":0,\"binding\":[]}\n\
{\"seq\":3,\"round\":1,\"event\":\"access_served_source\",\"us\":4,\"relation\":0,\"binding\":[],\"tuples\":2}\n\
{\"seq\":4,\"round\":1,\"event\":\"round_end\",\"us\":9}\n";
        let summary = check(trace).unwrap();
        assert!(summary.contains("4 events"), "{summary}");
        assert!(summary.contains("1 accesses requested"), "{summary}");
    }

    #[test]
    fn violations_fail() {
        // Unresolved request.
        let unresolved = "{\"seq\":1,\"round\":1,\"event\":\"access_requested\",\"us\":0}\n";
        assert!(check(unresolved).unwrap_err().contains("reconcile"));
        // Non-increasing sequence ids.
        let stuck = "\
{\"seq\":2,\"round\":1,\"event\":\"round_start\",\"us\":0}\n\
{\"seq\":2,\"round\":1,\"event\":\"round_end\",\"us\":0}\n";
        assert!(check(stuck).unwrap_err().contains("strictly above"));
        // Unknown event name and missing fields.
        assert!(
            check("{\"seq\":1,\"round\":1,\"event\":\"nope\",\"us\":0}\n")
                .unwrap_err()
                .contains("unknown event")
        );
        assert!(check("{\"seq\":1,\"event\":\"round_end\",\"us\":0}\n")
            .unwrap_err()
            .contains("round"));
        assert!(check("").unwrap_err().contains("empty trace"));
    }

    #[test]
    fn monotone_deltas_flag() {
        let shrinking = "\
{\"seq\":1,\"round\":1,\"event\":\"delta_round\",\"us\":0,\"delta\":3}\n\
{\"seq\":2,\"round\":2,\"event\":\"delta_round\",\"us\":0,\"delta\":1}\n\
{\"seq\":3,\"round\":2,\"event\":\"fixpoint_reached\",\"us\":0}\n\
{\"seq\":4,\"round\":3,\"event\":\"delta_round\",\"us\":0,\"delta\":2}\n";
        // Non-increasing within each segment; the post-fixpoint rebound to 2
        // starts a fresh segment and is fine.
        let summary = check_with(shrinking, true).unwrap();
        assert!(summary.contains("3 delta round(s)"), "{summary}");

        let growing = "\
{\"seq\":1,\"round\":1,\"event\":\"delta_round\",\"us\":0,\"delta\":1}\n\
{\"seq\":2,\"round\":2,\"event\":\"delta_round\",\"us\":0,\"delta\":4}\n";
        let err = check_with(growing, true).unwrap_err();
        assert!(err.contains("delta grew from 1 to 4"), "{err}");
        // Without the flag the same trace passes: growth is workload-legal.
        assert!(check_with(growing, false).is_ok());

        // The flag demands evidence: a trace with no delta_round fails.
        let silent = "{\"seq\":1,\"round\":1,\"event\":\"round_start\",\"us\":0}\n";
        let err = check_with(silent, true).unwrap_err();
        assert!(err.contains("no delta_round"), "{err}");

        // A delta_round without its payload is malformed either way.
        let bare = "{\"seq\":1,\"round\":1,\"event\":\"delta_round\",\"us\":0}\n";
        assert!(check(bare).unwrap_err().contains("delta"));
    }

    #[test]
    fn request_lifecycle_reconciles() {
        let served = "\
{\"seq\":1,\"round\":0,\"event\":\"request_accepted\",\"us\":0,\"tenant\":\"a\",\"verb\":\"ask\"}\n\
{\"seq\":2,\"round\":0,\"event\":\"request_accepted\",\"us\":0,\"tenant\":\"b\",\"verb\":\"ask\"}\n\
{\"seq\":3,\"round\":0,\"event\":\"request_rejected\",\"us\":0,\"tenant\":\"b\",\"verb\":\"ask\",\"retry_after_ms\":25}\n\
{\"seq\":4,\"round\":0,\"event\":\"request_completed\",\"us\":12,\"tenant\":\"a\",\"verb\":\"ask\"}\n";
        let summary = check_full(served, false, true).unwrap();
        assert!(
            summary.contains("2 request(s) accepted (1 completed, 1 rejected, 0 in flight)"),
            "{summary}"
        );

        // An accepted request with no terminal event: fine by default
        // (it was in flight when the trace ended), fatal under --drained.
        let in_flight = "\
{\"seq\":1,\"round\":0,\"event\":\"request_accepted\",\"us\":0,\"tenant\":\"a\",\"verb\":\"ask\"}\n";
        let summary = check(in_flight).unwrap();
        assert!(summary.contains("1 in flight"), "{summary}");
        let err = check_full(in_flight, false, true).unwrap_err();
        assert!(err.contains("--drained"), "{err}");

        // More terminal events than acceptances is corrupt either way.
        let excess = "\
{\"seq\":1,\"round\":0,\"event\":\"request_completed\",\"us\":3,\"tenant\":\"a\",\"verb\":\"ask\"}\n";
        let err = check(excess).unwrap_err();
        assert!(err.contains("request lifecycle"), "{err}");
    }
}
