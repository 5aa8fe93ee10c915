//! The §V distillation strategy: every frontier of accesses leaves as one
//! round trip to the slow sources, and each answer streams out in the
//! kernel round that derives it, so the time-to-first-answer is a fraction
//! of the total execution time.
//!
//! Run with: `cargo run --release --example streaming_answers`

use std::time::Duration;

use toorjah::catalog::{tuple, Instance, Schema};
use toorjah::engine::{InstanceSource, LatencySource};
use toorjah::system::{Statement, StreamEvent, Toorjah};

fn main() {
    // A three-hop integration scenario: flights must be probed airport by
    // airport, hotel lookups need a city, and a free city directory
    // bootstraps everything.
    let schema = Schema::parse(
        "cities^oo(City, Country)
         flights^io(City, City)
         hotels^io(City, Hotel)",
    )
    .expect("schema parses");

    let mut db = Instance::new(&schema);
    let city = |i: usize| format!("city{i}");
    for i in 0..12 {
        db.insert("cities", tuple![city(i), "somewhere"]).unwrap();
        // A ring of flights plus a couple of chords.
        db.insert("flights", tuple![city(i), city((i + 1) % 12)])
            .unwrap();
        db.insert("hotels", tuple![city(i), format!("hotel-{i}")])
            .unwrap();
    }

    // 3 ms per round trip, really slept.
    let provider = LatencySource::new(
        InstanceSource::new(schema.clone(), db),
        Duration::from_millis(3),
    )
    .with_real_sleep();

    let system = Toorjah::new(provider);
    // Streaming is an execution mode of a prepared statement, not a
    // separate entry point: `stream()` hands back the incremental answers
    // (`execute(ExecMode::Streaming)` would collect them into a Response).
    let statement = Statement::parse("q(C, H) <- flights(X, C), hotels(C, H)", system.schema())
        .expect("statement parses");
    let stream = system
        .prepare(&statement)
        .expect("query plans")
        .stream()
        .expect("CQ statements stream");

    println!("answers as they arrive:");
    let mut report = None;
    while let Some(event) = stream.next_event() {
        match event {
            StreamEvent::Answer { tuple, at } => {
                println!("  [{:>7.1?}] {tuple}", at);
            }
            StreamEvent::Done(r) => {
                report = Some(r);
            }
            StreamEvent::Failed(e) => {
                eprintln!("execution failed: {e}");
                return;
            }
        }
    }
    let report = report.expect("stream ends with Done");
    println!(
        "\n{} answers, {} accesses; first answer after {:.1?} of {:.1?} total ({:.0}%)",
        report.answers.len(),
        report.stats.total_accesses,
        report.time_to_first_answer.unwrap_or_default(),
        report.total_time,
        100.0
            * report
                .time_to_first_answer
                .unwrap_or_default()
                .as_secs_f64()
            / report.total_time.as_secs_f64().max(1e-9),
    );
}
