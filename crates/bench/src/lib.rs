//! # toorjah-bench
//!
//! Benchmark harness reproducing every table and figure of the ICDE 2008
//! evaluation (§V). One binary per artifact:
//!
//! | binary | paper artifact |
//! |--------|----------------|
//! | `fig6` | Fig. 6 — accesses & returned rows per relation, naive vs optimized, q1–q3 |
//! | `figs7to9` | Figs. 7–9 — d-graphs and optimized d-graphs of q1–q3 (DOT + summaries) |
//! | `fig10` | Fig. 10 — arc/deletion/strong statistics and saved accesses over random workloads |
//! | `fig11` | Fig. 11 — average execution time by number of atoms, naive vs optimized |
//! | `connection_stats` | §VI — fraction of synthetic queries that are connection queries |
//! | `distillation` | §V — time-to-first-answer vs total time of streamed answers |
//! | `orderings` | §IV/§V — accesses under the join-count ordering heuristic vs a plain order |
//!
//! The figure binaries accept `--full` to run at the paper's scale and
//! `--seed <n>` for reproducibility; defaults are scaled down to finish in
//! seconds. Two more binaries are checks rather than artifacts:
//!
//! | binary | checks |
//! |--------|--------|
//! | `overhead_budgets` | disabled observability probes ≤ +2%, daemon wire ≤ 3× direct `execute` (release build, no flags) |
//! | `trace_check` | a JSONL trace export is well formed and its lifecycles reconcile |
//!
//! Timing lives in perfbench (`perfbench/README.md`), the repository's one
//! end-to-end benchmark.

#![warn(missing_docs)]

use std::time::Duration;

/// Minimal command-line options shared by the figure binaries.
#[derive(Clone, Debug)]
pub struct Cli {
    /// Run at the paper's full scale.
    pub full: bool,
    /// Base RNG seed.
    pub seed: u64,
    /// Override for the number of schemas (fig10/fig11/connection_stats).
    pub schemas: Option<usize>,
    /// Override for the number of queries per schema.
    pub queries: Option<usize>,
}

impl Cli {
    /// Parses `--full`, `--seed <n>`, `--schemas <n>`, `--queries <n>`.
    pub fn parse() -> Cli {
        let mut cli = Cli {
            full: false,
            seed: 2008,
            schemas: None,
            queries: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--full" => cli.full = true,
                "--seed" => {
                    cli.seed = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--seed needs an integer");
                }
                "--schemas" => {
                    cli.schemas = args.next().and_then(|v| v.parse().ok());
                }
                "--queries" => {
                    cli.queries = args.next().and_then(|v| v.parse().ok());
                }
                other => {
                    eprintln!("unknown argument {other}; supported: --full --seed N --schemas N --queries N");
                    std::process::exit(2);
                }
            }
        }
        cli
    }
}

/// Accumulates min/max/avg like Fig. 10's rows.
#[derive(Clone, Debug, Default)]
pub struct MinMaxAvg {
    values: Vec<f64>,
}

impl MinMaxAvg {
    /// Records one observation.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Mean (0 when empty).
    pub fn avg(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.values.len()
    }
}

/// Formats a duration in the paper's milliseconds style.
pub fn fmt_ms(d: Duration) -> String {
    format!("{:.0} ms", d.as_secs_f64() * 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_max_avg() {
        let mut m = MinMaxAvg::default();
        for v in [10.0, 66.0, 20.0] {
            m.push(v);
        }
        assert_eq!(m.min(), 10.0);
        assert_eq!(m.max(), 66.0);
        assert!((m.avg() - 32.0).abs() < 1e-9);
        assert_eq!(m.count(), 3);
    }

    #[test]
    fn fmt_ms_rounds() {
        assert_eq!(fmt_ms(Duration::from_millis(9310)), "9310 ms");
    }
}
