//! `remote_sources`: sources that pay a real, fixed latency per round trip,
//! so wall-clock is set by how many round trips the engine makes. A round
//! is one `workload::sparse` star join at `PruningLevel::Runtime` with
//! 2-way parallel batched dispatch, then a pass of 24 `workload::overlapping`
//! music statements streamed over a session cache that is emptied before
//! the pass and byte-capped below the pass's working set, so it evicts.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use toorjah_catalog::{Instance, Schema, Tuple};
use toorjah_engine::{
    CacheConfig, DispatchOptions, InstanceSource, LatencySource, PruningLevel, SharedAccessCache,
};
use toorjah_system::{ExecMode, Toorjah};
use toorjah_workload::{
    music_instance, music_schema, overlapping_queries, sparse_instance, sparse_query,
    sparse_schema, MusicConfig, OverlapParams, SparseConfig,
};

use crate::inprocess::{run_statement, times};
use crate::layers::{self, Tally};
use crate::oracle;
use crate::source::{Counting, Counts};
use crate::trace::Tracer;
use crate::{check, end_to_end, latency_details, metric, quantile, Args, Outcome, SplitMix};

/// Real latency of one source round trip.
const ROUND_TRIP: Duration = Duration::from_micros(500);
/// Statements per music pass (the overlapping generator's default).
const PASS: usize = 24;
/// Distinct passes generated per run; rounds cycle through them.
const PASSES: usize = 256;
/// The star join's dispatch: two workers, eight accesses per round trip.
const STAR_DISPATCH: (usize, usize) = (2, 8);

type Remote = Counting<LatencySource<InstanceSource>>;

fn remote(schema: Schema, instance: Instance, tracer: &Arc<Tracer>) -> Arc<Remote> {
    let slow =
        LatencySource::new(InstanceSource::new(schema, instance), ROUND_TRIP).with_real_sleep();
    Arc::new(Counting::new(slow, Arc::clone(tracer)))
}

pub fn run(args: &Args, started: Instant, tracer: &Arc<Tracer>) -> Result<Outcome, String> {
    let mut rng = SplitMix(args.seed);

    // The star join: the seed picks which keys match, not how many.
    let star_schema = sparse_schema();
    let star_config = SparseConfig {
        seed: rng.next_u64(),
        ..SparseConfig::default()
    };
    let star_instance = sparse_instance(&star_schema, &star_config);
    let star_query = sparse_query();
    let star_expected = oracle::evaluate(
        &oracle::parse(star_query, &star_schema)?,
        &star_schema,
        &star_instance,
    )
    .answers;
    let star_source = remote(star_schema, star_instance, tracer);
    let (workers, batch) = STAR_DISPATCH;
    let star_mode = ExecMode::Parallel(DispatchOptions::parallel(workers).with_batch_size(batch));
    let star = Toorjah::builder_from_arc(star_source.clone())
        .prune_level(PruningLevel::Runtime)
        .build();

    // The music passes: the seed draws the statement mix of every pass.
    let music_schema = music_schema();
    let music_data = music_instance(&music_schema, &MusicConfig::default());
    let statements = overlapping_queries(&OverlapParams {
        queries: PASS * PASSES,
        seed: rng.next_u64(),
        ..OverlapParams::default()
    });
    // Every distinct statement's answers: the independent evaluator's, which
    // the sequential in-memory execution must match; streamed executions
    // are then held to the sequential answers.
    let sequential = Toorjah::new(InstanceSource::new(
        music_schema.clone(),
        music_data.clone(),
    ));
    let mut reference: HashMap<&str, Vec<Tuple>> = HashMap::new();
    for text in &statements {
        if reference.contains_key(text.as_str()) {
            continue;
        }
        let want = oracle::evaluate(
            &oracle::parse(text, &music_schema)?,
            &music_schema,
            &music_data,
        );
        let got = sequential.ask(text).map_err(|e| format!("{text}: {e}"))?;
        check::answers(text, got.answers, &want.answers)?;
        reference.insert(text, want.answers);
    }
    // The session cache holds half of what one pass extracts (the mean over
    // the first passes, measured on the in-memory system).
    let working_set = {
        let cache = SharedAccessCache::unbounded();
        let measure = sequential.with_cache(cache.clone());
        let mut bytes = 0;
        for pass in statements.chunks(PASS).take(8) {
            cache.clear();
            for text in pass {
                measure.ask(text).map_err(|e| format!("{text}: {e}"))?;
            }
            bytes += cache.bytes();
        }
        bytes / 8
    };
    let cache_cap = working_set / 2;
    let music_source = remote(music_schema, music_data, tracer);
    let music = Toorjah::builder_from_arc(music_source.clone())
        .cache_config(CacheConfig::max_bytes(cache_cap))
        .build();
    let session = music
        .session_cache()
        .ok_or("the music system has no session cache")?
        .clone();

    struct Samples {
        star: Vec<f64>,
        stream: Vec<f64>,
        first_answer: Vec<f64>,
        all: Vec<f64>,
        star_calls: Counts,
        tally: Tally,
    }
    let mut id = 0u64;
    let mut next_pass = 0usize;
    let mut round = |s: &mut Samples| -> Result<(), String> {
        id += 1;
        let before = star_source.counts();
        let (r, latency) = run_statement(&star, star_query, star_mode, tracer, id)?;
        let counted = star_source.counts().since(before);
        let p = &r.profile;
        check::answers("star join", r.answers.clone(), &star_expected)?;
        check::accounting(
            "star join",
            p.accesses_performed,
            p.accesses_served_by_cache,
            p.dispatch.accesses_pruned as u64,
            p.dispatch.total_requested() as u64,
        )?;
        check::wrapper_count("star join", counted.accesses, p.accesses_performed)?;
        s.star.push(latency.as_secs_f64() * 1e3);
        s.all.push(latency.as_secs_f64() * 1e3);
        s.tally.add(&r);
        s.tally.round_trips += counted.round_trips;
        s.star_calls.round_trips += counted.round_trips;
        s.star_calls.accesses += counted.accesses;

        let pass = &statements[next_pass * PASS..(next_pass + 1) * PASS];
        next_pass = (next_pass + 1) % PASSES;
        session.clear();
        for text in pass {
            id += 1;
            let before = music_source.counts();
            let (r, latency) = run_statement(&music, text, ExecMode::Streaming, tracer, id)?;
            let counted = music_source.counts().since(before);
            check::answers(text, r.answers.clone(), &reference[text.as_str()])?;
            check::wrapper_count(text, counted.accesses, r.profile.accesses_performed)?;
            s.stream.push(latency.as_secs_f64() * 1e3);
            s.all.push(latency.as_secs_f64() * 1e3);
            if let Some(first) = r.time_to_first_answer {
                s.first_answer.push(first.as_secs_f64() * 1e3);
            }
            s.tally.add(&r);
            s.tally.round_trips += counted.round_trips;
        }
        Ok(())
    };
    let empty = || Samples {
        star: Vec::new(),
        stream: Vec::new(),
        first_answer: Vec::new(),
        all: Vec::new(),
        star_calls: Counts::default(),
        tally: Tally::default(),
    };

    round(&mut empty())?;
    let setup = started.elapsed();
    tracer.clear();

    let mut s = empty();
    let evictions_before = session.stats().evictions;
    let budget = Duration::from_secs_f64(args.seconds);
    let timed = Instant::now();
    while timed.elapsed() < budget {
        round(&mut s)?;
    }
    let elapsed = timed.elapsed();
    s.tally.evictions = session.stats().evictions - evictions_before;

    let n = s.tally.statements as f64;
    let mut details = latency_details(&s.all);
    details.extend([
        metric("star_join_ms", quantile(&s.star, 0.5), "ms"),
        metric("stream_ms", quantile(&s.stream, 0.5), "ms"),
        metric("first_answer_ms", quantile(&s.first_answer, 0.5), "ms"),
        metric(
            "accesses_per_statement",
            s.tally.performed as f64 / n,
            "accesses",
        ),
        metric(
            "round_trips_per_statement",
            s.tally.round_trips as f64 / n,
            "round_trips",
        ),
        metric("cache_cap_bytes", cache_cap as f64, "bytes"),
        metric("pass_working_set_bytes", working_set as f64, "bytes"),
        metric("distinct_statements", reference.len() as f64, "count"),
        metric(
            "star_join_round_trips",
            s.star_calls.round_trips as f64 / s.star.len().max(1) as f64,
            "round_trips",
        ),
        metric(
            "star_join_accesses",
            s.star_calls.accesses as f64 / s.star.len().max(1) as f64,
            "accesses",
        ),
    ]);
    let metrics = if args.trace {
        layers::metrics(&s.tally, &times(&tracer.spans()))
    } else {
        end_to_end(setup, elapsed, &s.all, crate::peak_rss_mb("self")?)
    };
    Ok(Outcome {
        attempted: s.all.len() as u64,
        metrics,
        details,
    })
}
