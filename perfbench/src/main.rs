//! End-to-end benchmark of Toorjah.
//!
//! ```text
//! perfbench --workload <paper_fig6|remote_sources|daemon_traffic> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Each run sets the workload up (timed as `setup_s`, from the process's
//! start to the end of one untimed warm-up pass), drives it in a closed
//! loop for `--seconds`, checks every answer against the independent
//! evaluator in [`oracle`], and prints as its last line one JSON object:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics (computed
//! from the spans of [`trace`]) with `--trace 1`. A failed check exits
//! with code 1 and prints no result. See README.md for the workloads.

mod check;
mod daemon;
mod fig6;
mod inprocess;
mod json;
mod layers;
mod oracle;
mod remote;
mod source;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use trace::Tracer;

/// The command-line arguments of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
}

/// A named measurement with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a workload hands back: the statements it attempted, the metrics
/// of the mode it ran in, and the workload-specific figures printed above
/// the result line.
pub struct Outcome {
    pub attempted: u64,
    pub metrics: Vec<Metric>,
    pub details: Vec<Metric>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = PathBuf::from("perfbench/out");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tracer = Arc::new(Tracer::new(args.trace));
    let outcome = match args.workload.as_str() {
        "paper_fig6" => fig6::run(&args, started, &tracer),
        "remote_sources" => remote::run(&args, started, &tracer),
        "daemon_traffic" => daemon::run(&args, started, &tracer),
        other => Err(format!("unknown workload {other}")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let path = args
            .out
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::create_dir_all(&args.out).and_then(|_| tracer.write(&path)) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    for d in &outcome.details {
        println!("# {} {} {} {}", args.workload, d.name, d.value, d.unit);
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
        outcome.attempted,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// The `q`-quantile of `samples` (linear interpolation between ranks).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The `VmHWM` (peak resident set) of a process, in MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read the status of process {pid}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM for process {pid}"))
}

/// The end-to-end metrics every workload reports, from the client-observed
/// statement latencies of its timed phase.
pub fn end_to_end(
    setup: Duration,
    timed: Duration,
    latencies_ms: &[f64],
    rss_mb: f64,
) -> Vec<Metric> {
    vec![
        metric("setup_s", setup.as_secs_f64(), "s"),
        metric(
            "statements_per_s",
            latencies_ms.len() as f64 / timed.as_secs_f64(),
            "1/s",
        ),
        metric(
            "mean_ms",
            latencies_ms.iter().sum::<f64>() / latencies_ms.len().max(1) as f64,
            "ms",
        ),
        metric("peak_rss_mb", rss_mb, "MiB"),
    ]
}

/// The median and 90th percentile of the statement latencies, printed with
/// the workload's own figures.
pub fn latency_details(latencies_ms: &[f64]) -> Vec<Metric> {
    vec![
        metric("p50_ms", quantile(latencies_ms, 0.5), "ms"),
        metric("p90_ms", quantile(latencies_ms, 0.9), "ms"),
    ]
}

/// A deterministic stream of pseudo-random numbers (SplitMix64), so the
/// benchmark derives its inputs from `--seed` without a dependency.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert_eq!(quantile(&s, 0.9), 4.6);
    }

    #[test]
    fn splitmix_is_deterministic() {
        let (mut a, mut b) = (SplitMix(7), SplitMix(7));
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), SplitMix(8).next_u64());
    }
}
