//! §V observation — under the distillation strategy "the time needed to
//! retrieve the first answers […] is only a small fraction of the total
//! query execution time".
//!
//! Measures time-to-first-answer vs total time for the publication queries
//! under a real per-round-trip sleep, streamed through `Prepared::stream`:
//! every frontier leaves as one round trip and each answer surfaces in the
//! kernel round that derives it.
//!
//! Run: `cargo run --release -p toorjah-bench --bin distillation`

use std::sync::Arc;
use std::time::Duration;

use toorjah_bench::{fmt_ms, Cli};
use toorjah_engine::{InstanceSource, LatencySource};
use toorjah_system::{Statement, Toorjah};
use toorjah_workload::{
    paper_queries, publication_instance, publication_schema, PublicationConfig,
};

fn main() {
    let cli = Cli::parse();
    let schema = publication_schema();
    // A smaller instance keeps the real-sleep demo short.
    let config = if cli.full {
        PublicationConfig::paper()
    } else {
        PublicationConfig {
            papers: 60,
            persons: 60,
            conferences: 10,
            years: 6,
            tuples_per_relation: 150,
            seed: 0x1CDE_2008,
        }
    };
    let instance = publication_instance(&schema, &config);
    let system = Toorjah::from_arc(Arc::new(
        LatencySource::new(
            InstanceSource::new(schema.clone(), instance),
            Duration::from_micros(500),
        )
        .with_real_sleep(),
    ));

    println!("§V — distillation: time to first answer vs total time\n");
    println!(
        "{:<6}{:>10}{:>16}{:>14}{:>10}{:>10}",
        "query", "answers", "first answer", "total", "ratio", "accesses"
    );
    for (name, query) in paper_queries(&schema) {
        let stream = match system
            .prepare(&Statement::Cq(query))
            .and_then(|prepared| prepared.stream())
        {
            Ok(stream) => stream,
            Err(e) => {
                println!("{name}: planning failed: {e}");
                continue;
            }
        };
        match stream.wait() {
            Ok(report) => {
                let first = report.time_to_first_answer;
                let ratio = first.map_or(f64::NAN, |f| {
                    100.0 * f.as_secs_f64() / report.total_time.as_secs_f64().max(1e-9)
                });
                println!(
                    "{:<6}{:>10}{:>16}{:>14}{:>9.1}%{:>10}",
                    name,
                    report.answers.len(),
                    first.map_or("-".to_string(), fmt_ms),
                    fmt_ms(report.total_time),
                    ratio,
                    report.stats.total_accesses,
                );
            }
            Err(e) => println!("{name}: execution failed: {e}"),
        }
    }
}
