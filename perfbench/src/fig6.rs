//! `paper_fig6`: the paper's own experiment. The §V publication instance
//! is served from memory and q1, q2, q3 are sent in turn as one-shot
//! statements to a system built as the CLI builds it (sequential dispatch,
//! static pruning, no session cache). CPU-bound in the engine. The inputs
//! are the paper's fixed instance and queries, so the seed changes nothing.

use std::sync::Arc;
use std::time::{Duration, Instant};

use toorjah_engine::InstanceSource;
use toorjah_system::{ExecMode, Toorjah};
use toorjah_workload::{publication_instance, publication_schema, PublicationConfig};

use crate::inprocess::{run_statement, times};
use crate::layers::{self, Tally};
use crate::oracle::{self, Expected};
use crate::source::Counting;
use crate::trace::Tracer;
use crate::{check, end_to_end, latency_details, metric, quantile, Args, Outcome};

/// The §V queries in the paper's notation (as `toorjah_workload::paper_queries`
/// builds them), sent as text so every statement is parsed and planned.
const QUERIES: [(&str, &str); 3] = [
    ("q1", "q1(R) <- pub1(P, R), conf(P, C, Y), rev(R, C, Y)"),
    (
        "q2",
        "q2(R) <- rev_icde(R, P, rej), conf(P, C, Y), rev(R, C, Y)",
    ),
    (
        "q3",
        "q3(R) <- rev_icde(R, S, acc), sub(S, A), pub1(P, R), pub1(P, A), \
         rev(R, icde, 2008), conf(P, icde, Y)",
    ),
];

pub fn run(args: &Args, started: Instant, tracer: &Arc<Tracer>) -> Result<Outcome, String> {
    let schema = publication_schema();
    let instance = publication_instance(&schema, &PublicationConfig::paper());
    let expected: Vec<Expected> = QUERIES
        .iter()
        .map(|(_, text)| {
            oracle::parse(text, &schema).map(|q| oracle::evaluate(&q, &schema, &instance))
        })
        .collect::<Result<_, _>>()?;
    let source = Arc::new(Counting::new(
        InstanceSource::new(schema, instance),
        Arc::clone(tracer),
    ));
    let system = Toorjah::builder_from_arc(source.clone()).build();

    let mut id = 0u64;
    let mut pass = |samples: &mut Vec<(usize, f64)>, tally: &mut Tally| {
        for q in 0..QUERIES.len() {
            let (name, text) = QUERIES[q];
            id += 1;
            let before = source.counts();
            let (response, latency) =
                run_statement(&system, text, ExecMode::Sequential, tracer, id)?;
            let counted = source.counts().since(before);
            let performed = response.profile.accesses_performed;
            check::answers(name, response.answers.clone(), &expected[q].answers)?;
            check::within_naive(name, performed, expected[q].naive_accesses)?;
            check::wrapper_count(name, counted.accesses, performed)?;
            samples.push((q, latency.as_secs_f64() * 1e3));
            tally.add(&response);
            tally.round_trips += counted.round_trips;
        }
        Ok::<(), String>(())
    };

    pass(&mut Vec::new(), &mut Tally::default())?;
    let setup = started.elapsed();
    tracer.clear();

    let mut samples = Vec::new();
    let mut tally = Tally::default();
    let budget = Duration::from_secs_f64(args.seconds);
    let timed = Instant::now();
    while timed.elapsed() < budget {
        pass(&mut samples, &mut tally)?;
    }
    let elapsed = timed.elapsed();

    let all: Vec<f64> = samples.iter().map(|s| s.1).collect();
    let mut details = latency_details(&all);
    for (q, name) in ["q1_ms", "q2_ms", "q3_ms"].into_iter().enumerate() {
        let ms: Vec<f64> = samples.iter().filter(|s| s.0 == q).map(|s| s.1).collect();
        details.push(metric(name, quantile(&ms, 0.5), "ms"));
    }
    details.push(metric(
        "accesses_per_statement",
        tally.performed as f64 / tally.statements as f64,
        "accesses",
    ));
    details.push(metric(
        "naive_accesses_per_statement",
        expected
            .iter()
            .map(|e| e.naive_accesses as f64)
            .sum::<f64>()
            / 3.0,
        "accesses",
    ));
    let metrics = if args.trace {
        layers::metrics(&tally, &times(&tracer.spans()))
    } else {
        end_to_end(setup, elapsed, &all, crate::peak_rss_mb("self")?)
    };
    Ok(Outcome {
        attempted: all.len() as u64,
        metrics,
        details,
    })
}
