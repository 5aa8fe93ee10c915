//! The access log is each execution's meta-cache; a session cache only
//! shares accesses across executions.
//!
//! Differential check over statement kind × dispatch mode (sequential,
//! parallel batched, and streamed: whole-frontier round trips with the
//! fold-stage answer emitter) × pruning level × session cache: without a session cache, over a cold unbounded one and
//! over a cold one capped at three entries (which evicts mid-execution), an
//! execution has the same answers, access sequence, access statistics,
//! dispatch report and cache-served requests — and the source sees exactly
//! the accesses the log records: an access made once is never made again,
//! whatever the session cache evicted.

use toorjah::cache::{CacheConfig, SharedAccessCache};
use toorjah::catalog::{RelationId, Tuple};
use toorjah::core::{plan_query, Planner, QueryPlan};
use toorjah::engine::{
    execute_negated_plan, execute_plan_cached, execute_plan_streamed, execute_union_cached,
    execute_union_streamed, naive_evaluate, plan_negated, AccessLog, AccessStats, AnswerEmitter,
    DispatchOptions, DispatchReport, ExecOptions, FlakySource, InstanceSource, NaiveOptions,
    NegatedPlan, PruningLevel,
};
use toorjah::query::Statement;
use toorjah::workload::publications::{
    paper_queries, publication_instance, publication_schema, PublicationConfig,
};

/// Never fails; counts the accesses that reach the source.
type Counting = FlakySource<InstanceSource>;

enum Plans {
    Cq(Box<QueryPlan>),
    Union(Vec<QueryPlan>),
    Negated(Box<NegatedPlan>),
}

/// What one execution did, as the paper counts it.
#[derive(PartialEq, Debug)]
struct Run {
    answers: Vec<Tuple>,
    sequence: Vec<(RelationId, Tuple)>,
    stats: AccessStats,
    served: usize,
    dispatch: DispatchReport,
}

/// Runs `plans` once; `streamed` attaches an answer emitter (CQs and
/// unions emit; a negated statement's checks come first) and holds what it
/// emitted to the final answers.
fn run(
    plans: &Plans,
    source: &Counting,
    options: ExecOptions,
    cache: Option<&SharedAccessCache>,
    streamed: bool,
) -> Run {
    let mut log = AccessLog::new();
    let before = source.attempted();
    let mut emitted: Vec<Tuple> = Vec::new();
    let mut sink = |t: &Tuple| emitted.push(t.clone());
    let mut emitter = AnswerEmitter::new(&mut sink);
    let (answers, dispatch) = match plans {
        Plans::Cq(plan) => {
            let r = if streamed {
                execute_plan_streamed(plan, source, options, cache, &mut log, &mut emitter)
            } else {
                execute_plan_cached(plan, source, options, cache, &mut log)
            }
            .unwrap();
            (r.answers, r.dispatch)
        }
        Plans::Union(plans) => {
            let plans: Vec<&QueryPlan> = plans.iter().collect();
            let r = if streamed {
                execute_union_streamed(&plans, source, options, cache, &mut log, &mut emitter)
            } else {
                execute_union_cached(&plans, source, options, cache, &mut log)
            }
            .unwrap();
            (r.answers, r.dispatch)
        }
        Plans::Negated(plan) => {
            let r = execute_negated_plan(plan, source, options, cache, &mut log).unwrap();
            (r.answers, r.dispatch)
        }
    };
    drop(emitter);
    if streamed && !matches!(plans, Plans::Negated(_)) {
        let (mut emitted, mut expected) = (emitted, answers.clone());
        emitted.sort();
        expected.sort();
        assert_eq!(emitted, expected, "every answer is emitted exactly once");
    }
    let reached = source.attempted() - before;
    assert_eq!(
        reached,
        log.total(),
        "each performed access reached the source once"
    );
    Run {
        answers,
        sequence: log.sequence().to_vec(),
        stats: log.stats(),
        served: log.cache_served(),
        dispatch,
    }
}

/// Beyond q1–q3: a CQ, a union whose disjuncts share the free `conf`
/// access, and a negated statement whose checks repeat bindings and
/// accesses the positive part already made.
const STATEMENTS: [&str; 3] = [
    "q(R, A) <- pub2(P, R), sub(P, A)",
    "q(R) <- pub1(P, R), conf(P, icde, Y); q(R) <- rev(R, C, Y), conf(P, C, Y)",
    "q(R) <- rev(R, C, Y), conf(P, C, Y), !rev(R, icde, Y)",
];

#[test]
fn the_log_is_the_meta_cache_under_every_session_cache() {
    let schema = publication_schema();
    let config = PublicationConfig {
        papers: 40,
        persons: 40,
        conferences: 8,
        years: 5,
        tuples_per_relation: 120,
        seed: 0x1CDE_2008,
    };
    let instance = publication_instance(&schema, &config);
    let source = FlakySource::new(InstanceSource::new(schema.clone(), instance), usize::MAX);
    let mut statements: Vec<(String, Plans)> = Vec::new();
    for (name, query) in paper_queries(&schema) {
        let plans = Plans::Cq(Box::new(plan_query(&query, &schema).unwrap().plan));
        let mut answers = run(&plans, &source, ExecOptions::default(), None, false).answers;
        let naive = naive_evaluate(&query, &schema, &source, NaiveOptions::default()).unwrap();
        let mut expected = naive.answers;
        answers.sort();
        expected.sort();
        assert_eq!(answers, expected, "{name}: answers equal naive Fig. 1's");
        statements.push((name.to_string(), plans));
    }
    for text in STATEMENTS {
        let plans = match Statement::parse(text, &schema).unwrap() {
            Statement::Cq(q) => Plans::Cq(Box::new(plan_query(&q, &schema).unwrap().plan)),
            Statement::Union(u) => Plans::Union(
                u.cqs()
                    .iter()
                    .map(|q| plan_query(q, &schema).unwrap().plan)
                    .collect(),
            ),
            Statement::Negated(q) => Plans::Negated(Box::new(
                plan_negated(&q, &schema, &Planner::default()).unwrap(),
            )),
        };
        statements.push((text.to_string(), plans));
    }

    let mut served_anywhere = 0;
    for (name, plans) in &statements {
        for prune_level in [PruningLevel::Static, PruningLevel::Runtime] {
            let mut runs = [
                (DispatchOptions::sequential(), false),
                (DispatchOptions::parallel(4).with_batch_size(2), false),
                (DispatchOptions::whole_frontier(), true),
            ]
            .map(|(dispatch, streamed)| {
                let options = ExecOptions {
                    dispatch,
                    prune_level,
                    ..ExecOptions::default()
                };
                let alone = run(plans, &source, options, None, streamed);
                let capped = SharedAccessCache::new(CacheConfig::max_entries(3).with_shards(2));
                for cache in [SharedAccessCache::unbounded(), capped] {
                    let shared = run(plans, &source, options, Some(&cache), streamed);
                    assert_eq!(shared, alone, "{name} at {prune_level} under {dispatch:?}");
                }
                alone
            });
            // Batched dispatch, streamed or not, changes how accesses are
            // grouped into round trips, nothing else.
            for i in 1..runs.len() {
                runs[i].dispatch.batches = runs[0].dispatch.batches;
                assert_eq!(runs[i], runs[0], "{name} at {prune_level}, mode {i}");
            }
            served_anywhere += runs[0].served;
        }
    }
    assert!(served_anywhere > 0, "some request was served by the log");
}
