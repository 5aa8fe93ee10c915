//! Parallel execution is answer-invariant.
//!
//! Two paths are covered: the §V distillation strategy (`Streaming`: every
//! frontier as one round trip, answers streamed from the fold stage) and
//! the frontier-batched dispatcher that fans each round's access frontier
//! over a worker pool. Both compute exactly the sequential executor's
//! answers; the dispatcher additionally
//! keeps access counts, log order and cache hit/miss totals bit-identical
//! for every `parallelism`/`batch_size` setting, and under
//! `LatencySource::with_real_sleep` cuts wall-clock by roughly the
//! parallelism factor on access-heavy plans.

use std::sync::Arc;
use std::time::{Duration, Instant};

use toorjah::catalog::{tuple, Instance, Schema, Tuple};
use toorjah::core::{plan_query, CoreError};
use toorjah::engine::{
    execute_plan, execute_plan_cached, naive_evaluate, AccessLog, DispatchOptions, EngineError,
    ExecOptions, FlakySource, InstanceSource, LatencySource, NaiveOptions, SharedAccessCache,
};
use toorjah::system::{Statement, Toorjah};
use toorjah::workload::random::seeded_rng;
use toorjah::workload::{random_instance, random_query, random_schema, RandomParams};

fn sorted(mut v: Vec<Tuple>) -> Vec<Tuple> {
    v.sort();
    v
}

#[test]
fn distillation_equals_sequential_on_random_workloads() {
    let params = RandomParams::small();
    let mut checked = 0;
    for seed in 0..60 {
        let mut rng = seeded_rng(seed);
        let generated = random_schema(&mut rng, &params);
        let Some(query) = random_query(&mut rng, &generated, &params) else {
            continue;
        };
        let instance = random_instance(&mut rng, &generated, &params);
        let provider = Arc::new(InstanceSource::new(generated.schema.clone(), instance));

        let planned = match plan_query(&query, &generated.schema) {
            Ok(p) => p,
            Err(CoreError::NotAnswerable { .. }) => continue,
            Err(e) => panic!("planning failed: {e}"),
        };

        let sequential = execute_plan(&planned.plan, provider.as_ref(), ExecOptions::default())
            .expect("sequential runs");
        let system = Toorjah::from_arc(provider.clone());
        let prepared = system.prepare(&Statement::Cq(query.clone())).unwrap();
        let parallel = prepared.stream().unwrap().wait().expect("streaming runs");
        assert_eq!(
            parallel.answers, sequential.answers,
            "answers and their order differ on seed {seed}"
        );
        assert_eq!(
            sorted(parallel.answers.clone()),
            sorted(sequential.answers.clone()),
            "answers differ on seed {seed} for {}",
            query.display(&generated.schema),
        );
        if sequential.failed_at_position.is_none() {
            assert_eq!(
                parallel.stats.total_accesses, sequential.stats.total_accesses,
                "access counts differ on seed {seed}",
            );
        } else {
            assert!(
                sequential.stats.total_accesses <= parallel.stats.total_accesses,
                "fast-failing must not access more on seed {seed}",
            );
        }
        checked += 1;
    }
    assert!(checked > 20, "enough workloads were checked ({checked}/60)");
}

/// A chain schema whose optimized plan has one big frontier: the free
/// relation `f` yields `n` values, each requiring one access to `g`.
fn chain_setup(n: usize) -> (Schema, Instance) {
    let schema = Schema::parse("f^oo(A, B) g^io(B, C)").unwrap();
    let mut db = Instance::new(&schema);
    for i in 0..n {
        db.insert("f", tuple![format!("a{i}"), format!("b{i}")])
            .unwrap();
        db.insert("g", tuple![format!("b{i}"), format!("c{i}")])
            .unwrap();
    }
    (schema, db)
}

#[test]
fn frontier_dispatch_is_invariant_across_parallelism_on_random_workloads() {
    let params = RandomParams::small();
    let mut checked = 0;
    for seed in 0..40 {
        let mut rng = seeded_rng(seed);
        let generated = random_schema(&mut rng, &params);
        let Some(query) = random_query(&mut rng, &generated, &params) else {
            continue;
        };
        let instance = random_instance(&mut rng, &generated, &params);
        let provider = InstanceSource::new(generated.schema.clone(), instance);
        let Ok(planned) = plan_query(&query, &generated.schema) else {
            continue;
        };

        let mut runs = Vec::new();
        for dispatch in [
            DispatchOptions::sequential(),
            DispatchOptions::parallel(4),
            DispatchOptions::parallel(16).with_batch_size(4),
        ] {
            let cache = SharedAccessCache::unbounded();
            let mut log = AccessLog::new();
            let options = ExecOptions {
                dispatch,
                ..ExecOptions::default()
            };
            let report =
                execute_plan_cached(&planned.plan, &provider, options, Some(&cache), &mut log)
                    .expect("plan runs");
            runs.push((report, log.sequence().to_vec(), cache.stats()));
        }
        let (base, base_seq, base_cache) = &runs[0];
        for (report, seq, cache_stats) in &runs[1..] {
            // Bit-identical: answer order, stats, log order, cache totals.
            assert_eq!(report.answers, base.answers, "answers on seed {seed}");
            assert_eq!(report.stats, base.stats, "stats on seed {seed}");
            assert_eq!(seq, base_seq, "access order on seed {seed}");
            assert_eq!(
                cache_stats.misses, base_cache.misses,
                "cache misses on seed {seed}"
            );
            assert_eq!(
                report.dispatch.frontier_sizes, base.dispatch.frontier_sizes,
                "frontiers on seed {seed}"
            );
        }
        checked += 1;
    }
    assert!(checked > 15, "enough workloads were checked ({checked}/40)");
}

#[test]
fn naive_evaluation_is_invariant_under_parallel_dispatch() {
    let (schema, db) = chain_setup(12);
    let src = InstanceSource::new(schema.clone(), db);
    let q = toorjah::query::parse_query("q(C) <- f(A, B), g(B, C)", &schema).unwrap();
    let sequential = naive_evaluate(&q, &schema, &src, NaiveOptions::default()).unwrap();
    let parallel = naive_evaluate(
        &q,
        &schema,
        &src,
        NaiveOptions {
            dispatch: DispatchOptions::parallel(8).with_batch_size(3),
            ..NaiveOptions::default()
        },
    )
    .unwrap();
    assert_eq!(parallel.answers, sequential.answers);
    assert_eq!(parallel.stats, sequential.stats);
    assert_eq!(parallel.rounds, sequential.rounds);
    assert!(parallel.dispatch.batches < sequential.dispatch.batches);
}

#[test]
fn simulated_cost_counts_critical_path_round_trips() {
    // 24 g-accesses in batches of 8 are 3 round trips, plus 1 for f: the
    // virtual cost is 4 round trips, not 25 summed access latencies.
    let latency = Duration::from_millis(10);
    let (schema, db) = chain_setup(24);
    let src = LatencySource::new(InstanceSource::new(schema.clone(), db), latency);
    let q = toorjah::query::parse_query("q(C) <- f(A, B), g(B, C)", &schema).unwrap();
    let planned = plan_query(&q, &schema).unwrap();
    let report = execute_plan(
        &planned.plan,
        &src,
        ExecOptions {
            dispatch: DispatchOptions::sequential().with_batch_size(8),
            ..ExecOptions::default()
        },
    )
    .unwrap();
    assert_eq!(report.stats.total_accesses, 25);
    // 5 batches dispatched (f's second fixpoint pass re-requests the free
    // access), but the cache serves that one — only 4 reach the source.
    assert_eq!(report.dispatch.batches, 5);
    assert_eq!(src.simulated_cost(), latency * 4, "per-round-trip cost");

    // The same plan under parallel workers performs the same round trips:
    // the accumulated virtual cost is unchanged.
    src.reset_cost();
    let cache = SharedAccessCache::unbounded();
    let mut log = AccessLog::new();
    let parallel = execute_plan_cached(
        &planned.plan,
        &src,
        ExecOptions {
            dispatch: DispatchOptions::parallel(4).with_batch_size(8),
            ..ExecOptions::default()
        },
        Some(&cache),
        &mut log,
    )
    .unwrap();
    assert_eq!(parallel.answers, report.answers);
    assert_eq!(src.simulated_cost(), latency * 4);
}

/// The ISSUE 3 acceptance criterion: on an access-heavy plan over a 2 ms
/// real-sleep source, parallelism 8 is ≥ 3× faster than the sequential
/// path, with identical answers, access counts and cache hit/miss totals.
#[test]
fn parallel_dispatch_cuts_wall_clock_on_slow_sources() {
    let n = 96;
    let (schema, db) = chain_setup(n);
    let q = toorjah::query::parse_query("q(C) <- f(A, B), g(B, C)", &schema).unwrap();
    let planned = plan_query(&q, &schema).unwrap();
    let latency = Duration::from_millis(2);

    let run = |dispatch: DispatchOptions| {
        let src = LatencySource::new(InstanceSource::new(schema.clone(), db.clone()), latency)
            .with_real_sleep();
        let cache = SharedAccessCache::unbounded();
        let mut log = AccessLog::new();
        let options = ExecOptions {
            dispatch,
            ..ExecOptions::default()
        };
        let started = Instant::now();
        let report = execute_plan_cached(&planned.plan, &src, options, Some(&cache), &mut log)
            .expect("plan runs");
        (started.elapsed(), report, log.cache_served(), cache.stats())
    };

    let (seq_time, seq_report, seq_served, seq_cache) = run(DispatchOptions::sequential());
    let (par_time, par_report, par_served, par_cache) = run(DispatchOptions::parallel(8));

    // Identical results, bit for bit.
    assert_eq!(par_report.answers, seq_report.answers);
    assert_eq!(par_report.answers.len(), n);
    assert_eq!(par_report.stats, seq_report.stats);
    assert_eq!(par_report.stats.total_accesses, n + 1);
    assert_eq!(par_served, seq_served, "cache-served totals");
    assert_eq!(par_cache.hits, seq_cache.hits, "cache hits");
    assert_eq!(par_cache.misses, seq_cache.misses, "cache misses");
    assert_eq!(par_report.dispatch.largest_frontier(), n);

    // ≥ 3× lower wall-clock (the sleeps alone are 97 × 2 ms sequential vs
    // ⌈96/8⌉ × 2 ms + 2 ms parallel, so ~7× is expected; 3× leaves slack
    // for a loaded CI machine).
    assert!(
        par_time * 3 <= seq_time,
        "parallelism 8 must be ≥ 3× faster: sequential {seq_time:?}, parallel {par_time:?}"
    );
}

#[test]
fn mid_batch_failure_keeps_the_log_consistent() {
    // Batched dispatch over a flaky source: the failing batch aborts the
    // run, and the log records exactly the accesses whose tuples were
    // returned — no phantom entries for the skipped batch remainder.
    let (schema, db) = chain_setup(16);
    let src = FlakySource::new(InstanceSource::new(schema.clone(), db), 5);
    let q = toorjah::query::parse_query("q(C) <- f(A, B), g(B, C)", &schema).unwrap();
    let planned = plan_query(&q, &schema).unwrap();
    let cache = SharedAccessCache::unbounded();
    let mut log = AccessLog::new();
    let err = execute_plan_cached(
        &planned.plan,
        &src,
        ExecOptions {
            dispatch: DispatchOptions::sequential().with_batch_size(4),
            ..ExecOptions::default()
        },
        Some(&cache),
        &mut log,
    )
    .unwrap_err();
    assert!(matches!(err, EngineError::SourceFailure { .. }));
    // Access #5 (the 4th g access, mid-batch) failed: accesses 1–4 are
    // logged, the skipped remainder is not — and the injection counter
    // agrees (5 attempts, nothing counted for the skipped tail).
    assert_eq!(log.total(), 4);
    assert_eq!(src.attempted(), 5);
    let g = schema.relation_id("g").unwrap();
    assert_eq!(log.stats().accesses_to(g), 3);
    assert_eq!(log.stats().extracted_from(g), 3);
    assert_eq!(
        cache.stats().misses,
        4,
        "only returned extractions retained"
    );
}

#[test]
fn distillation_time_to_first_answer_is_populated() {
    let params = RandomParams::small();
    for seed in 0..40 {
        let mut rng = seeded_rng(seed);
        let generated = random_schema(&mut rng, &params);
        let Some(query) = random_query(&mut rng, &generated, &params) else {
            continue;
        };
        let instance = random_instance(&mut rng, &generated, &params);
        let provider = Arc::new(InstanceSource::new(generated.schema.clone(), instance));
        if plan_query(&query, &generated.schema).is_err() {
            continue;
        }
        let system = Toorjah::from_arc(provider);
        let stream = system
            .prepare(&Statement::Cq(query.clone()))
            .unwrap()
            .stream()
            .unwrap();
        let report = stream.wait().expect("runs");
        match report.answers.len() {
            0 => assert!(report.time_to_first_answer.is_none()),
            _ => {
                let first = report.time_to_first_answer.expect("first answer stamped");
                assert!(first <= report.total_time);
            }
        }
    }
}
