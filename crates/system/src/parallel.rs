//! The distillation executor (§V, Fig. 5).
//!
//! Architecture, mirroring the paper:
//!
//! * the **cache database** (a [`FactStore`]) collects extracted tuples;
//! * **access tables** hold the access tuples generated from the caches
//!   according to the minimal plan;
//! * one **wrapper** thread per source relation owns a *bounded queue* of
//!   access tuples and performs the (slow) remote accesses;
//! * the coordinator **distills** access tuples to wrappers as soon as they
//!   can be generated from the cache database, inserts extraction results,
//!   and emits answers incrementally via delta evaluation of the rewritten
//!   query.
//!
//! Every access tuple is sent at most once per relation (the meta-cache
//! discipline), so the access set equals the sequential executor's — only
//! the schedule differs. Answers therefore coincide with
//! [`toorjah_engine::execute_plan`]; the integration tests assert this.
//!
//! The wrappers route their accesses through a [`SharedAccessCache`]
//! ([`run_distillation_cached`]): a warm session cache turns remote accesses
//! into local reads, and concurrent distillations over one handle coalesce
//! identical in-flight accesses instead of duplicating them. The per-run
//! [`AccessLog`] records only the accesses this run actually performed.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{bounded, unbounded, Sender};
use parking_lot::Mutex;
use toorjah_cache::SharedAccessCache;
use toorjah_catalog::{RelationId, Tuple, Value};
use toorjah_core::{DomainMode, QueryPlan};
use toorjah_datalog::{rule_head_instances_pinned, FactStore};
use toorjah_engine::{AccessLog, EngineError, SourceProvider};

use crate::{AnswerStream, StreamEvent, StreamReport};

/// Options for the distillation executor.
#[derive(Clone, Copy, Debug)]
pub struct DistillationOptions {
    /// Capacity of each wrapper's queue of pending access tuples.
    pub queue_capacity: usize,
    /// Hard cap on distinct accesses.
    pub max_accesses: usize,
}

impl Default for DistillationOptions {
    fn default() -> Self {
        DistillationOptions {
            queue_capacity: 64,
            max_accesses: toorjah_engine::DEFAULT_ACCESS_BUDGET,
        }
    }
}

struct WorkItem {
    cache_idx: usize,
    relation: RelationId,
    binding: Tuple,
}

struct WorkResult {
    cache_idx: usize,
    relation: RelationId,
    binding: Tuple,
    /// The extraction plus whether this run actually performed the access
    /// (`false`: served or coalesced by the shared cache at zero cost).
    outcome: Result<(Arc<[Tuple]>, bool), EngineError>,
}

/// Starts a distillation execution of `plan` on a background coordinator
/// thread; answers stream through the returned [`AnswerStream`]. Each run
/// gets a private access cache — use [`run_distillation_cached`] to share
/// one across runs and sessions.
pub fn run_distillation(
    plan: QueryPlan,
    provider: Arc<dyn SourceProvider>,
    options: DistillationOptions,
) -> AnswerStream {
    run_distillation_cached(plan, provider, options, SharedAccessCache::unbounded())
}

/// [`run_distillation`] over a caller-provided [`SharedAccessCache`]:
/// retained accesses are applied directly by the coordinator (never
/// dispatched to a wrapper), and wrapper accesses are performed *through*
/// the cache, so identical accesses of concurrent runs coalesce.
pub fn run_distillation_cached(
    plan: QueryPlan,
    provider: Arc<dyn SourceProvider>,
    options: DistillationOptions,
    cache: SharedAccessCache,
) -> AnswerStream {
    let (event_tx, event_rx) = unbounded::<StreamEvent>();
    let handle = std::thread::spawn(move || {
        coordinate(plan, provider, options, &cache, &event_tx);
    });
    AnswerStream {
        receiver: event_rx,
        handle,
    }
}

fn coordinate(
    plan: QueryPlan,
    provider: Arc<dyn SourceProvider>,
    options: DistillationOptions,
    access_cache: &SharedAccessCache,
    events: &Sender<StreamEvent>,
) {
    let started = Instant::now();

    // Resolve provider relations by name.
    let mut provider_rel: Vec<Option<RelationId>> = Vec::with_capacity(plan.caches.len());
    for cache in &plan.caches {
        if cache.is_constant_source {
            provider_rel.push(None);
            continue;
        }
        let name = plan.schema.relation(cache.relation).name();
        match provider.schema().relation_id(name) {
            Some(id) => provider_rel.push(Some(id)),
            None => {
                let _ = events.send(StreamEvent::Failed(EngineError::PlanMismatch(format!(
                    "provider lacks relation {name}"
                ))));
                return;
            }
        }
    }

    let Some(answer_rule) = plan.program.rules_for(plan.answer_pred).next().cloned() else {
        let _ = events.send(StreamEvent::Failed(EngineError::PlanMismatch(
            "plan has no answer rule".to_string(),
        )));
        return;
    };

    // One wrapper per distinct provider relation.
    let mut wrapper_tx: HashMap<RelationId, Sender<WorkItem>> = HashMap::new();
    let (result_tx, result_rx) = unbounded::<WorkResult>();
    let mut wrapper_handles = Vec::new();
    for rel in provider_rel.iter().flatten().copied() {
        if wrapper_tx.contains_key(&rel) {
            continue;
        }
        let (tx, rx) = bounded::<WorkItem>(options.queue_capacity);
        wrapper_tx.insert(rel, tx);
        let provider = Arc::clone(&provider);
        let result_tx = result_tx.clone();
        let shared = access_cache.clone();
        wrapper_handles.push(std::thread::spawn(move || {
            while let Ok(item) = rx.recv() {
                // The access goes through the shared cache: a concurrent
                // identical access (another run, another session) is
                // coalesced rather than duplicated, and the result is
                // retained for everyone.
                let outcome = shared
                    .get_or_load(item.relation, &item.binding, || {
                        provider.access(item.relation, &item.binding)
                    })
                    .map(|lookup| (lookup.tuples, lookup.outcome.loaded()));
                let sent = result_tx.send(WorkResult {
                    cache_idx: item.cache_idx,
                    relation: item.relation,
                    binding: item.binding,
                    outcome,
                });
                if sent.is_err() {
                    break;
                }
            }
        }));
    }
    drop(result_tx);

    // Shared state (single coordinator thread; the mutex documents the
    // hand-off discipline and keeps the borrow checker happy across the
    // closure boundaries below).
    let facts = Mutex::new(FactStore::new());
    let mut log = AccessLog::new();
    // Extractions available to this run: (relation, binding) → tuples.
    // Results are *pinned* here for the run's lifetime, so an eviction from
    // the shared cache mid-run can never starve a sibling cache of data it
    // still needs.
    let mut extractions: HashMap<(RelationId, Tuple), Arc<[Tuple]>> = HashMap::new();
    // Bindings already dispatched per relation (the meta-cache discipline).
    let mut requested: HashSet<(RelationId, Tuple)> = HashSet::new();
    // Bindings already applied per cache.
    let mut served: Vec<HashSet<Tuple>> = vec![HashSet::new(); plan.caches.len()];
    let mut answers_seen: HashSet<Tuple> = HashSet::new();
    let mut answers: Vec<Tuple> = Vec::new();
    let mut first_answer_at = None;
    let mut in_flight = 0usize;

    // Seed the constant caches.
    {
        let mut facts = facts.lock();
        for (cache_idx, cache) in plan.caches.iter().enumerate() {
            if !cache.is_constant_source {
                continue;
            }
            let mut delta = FactStore::new();
            for (rel, _pred, value) in &plan.constant_facts {
                if *rel == cache.relation {
                    let t = Tuple::new(vec![*value]);
                    if facts.insert(cache.cache_pred, t.clone()) {
                        delta.insert(cache.cache_pred, t);
                    }
                }
            }
            emit_delta_answers(
                &plan,
                &answer_rule,
                &facts,
                cache_idx,
                &delta,
                &mut answers_seen,
                &mut answers,
                &mut first_answer_at,
                started,
                events,
            );
        }
    }

    loop {
        // Distillation pass: generate every access tuple currently derivable.
        let mut dispatched_or_applied = false;
        for (cache_idx, cache) in plan.caches.iter().enumerate() {
            let Some(relation) = provider_rel[cache_idx] else {
                continue;
            };
            let pools: Vec<Vec<Value>> = {
                let facts = facts.lock();
                cache
                    .input_domains
                    .iter()
                    .map(|dp| domain_values(&plan, dp, &facts))
                    .collect()
            };
            if pools.iter().any(Vec::is_empty) && !pools.is_empty() {
                continue;
            }
            for binding in CartesianProduct::new(&pools) {
                if served[cache_idx].contains(&binding) {
                    continue;
                }
                let key = (relation, binding.clone());
                if let Some(tuples) = extractions.get(&key) {
                    // Already available to this run: applied at zero cost
                    // (the meta-cache discipline — counted as cache-served,
                    // like a repeated frontier request in the sequential
                    // path).
                    log.record_cache_served();
                    apply_extraction(
                        &plan,
                        &answer_rule,
                        &facts,
                        cache_idx,
                        tuples,
                        &mut answers_seen,
                        &mut answers,
                        &mut first_answer_at,
                        started,
                        events,
                    );
                    served[cache_idx].insert(binding);
                    dispatched_or_applied = true;
                } else if !requested.contains(&key) {
                    if let Some(tuples) = access_cache.try_get(relation, &binding) {
                        // Retained by the shared cache (a previous query or
                        // a warm-started snapshot): no wrapper involved.
                        log.record_cache_served();
                        apply_extraction(
                            &plan,
                            &answer_rule,
                            &facts,
                            cache_idx,
                            &tuples,
                            &mut answers_seen,
                            &mut answers,
                            &mut first_answer_at,
                            started,
                            events,
                        );
                        served[cache_idx].insert(binding);
                        extractions.insert(key, tuples);
                        dispatched_or_applied = true;
                        continue;
                    }
                    // Budget: count performed plus in-flight accesses, since
                    // dispatched work is only logged on completion.
                    if log.total() + in_flight >= options.max_accesses {
                        let _ =
                            events.send(StreamEvent::Failed(EngineError::AccessBudgetExceeded {
                                limit: options.max_accesses,
                            }));
                        return;
                    }
                    requested.insert(key);
                    in_flight += 1;
                    dispatched_or_applied = true;
                    let item = WorkItem {
                        cache_idx,
                        relation,
                        binding,
                    };
                    if wrapper_tx[&relation].send(item).is_err() {
                        let _ = events.send(StreamEvent::Failed(EngineError::SourceFailure {
                            relation: plan.schema.relation(cache.relation).name().to_string(),
                            detail: "wrapper terminated".to_string(),
                        }));
                        return;
                    }
                }
            }
        }

        if in_flight == 0 {
            if dispatched_or_applied {
                continue; // meta-cache applications may enable more work
            }
            break; // quiescent: nothing in flight, nothing derivable
        }

        // Apply one extraction result (blocking).
        match result_rx.recv() {
            Ok(result) => {
                in_flight -= 1;
                match result.outcome {
                    Ok((tuples, performed)) => {
                        if performed {
                            // This run paid for the access; coalesced and
                            // cache-served wrapper results are free.
                            log.record(
                                result.relation,
                                result.binding.clone(),
                                Arc::clone(&tuples),
                            );
                        } else {
                            log.record_cache_served();
                        }
                        apply_extraction(
                            &plan,
                            &answer_rule,
                            &facts,
                            result.cache_idx,
                            &tuples,
                            &mut answers_seen,
                            &mut answers,
                            &mut first_answer_at,
                            started,
                            events,
                        );
                        served[result.cache_idx].insert(result.binding.clone());
                        extractions.insert((result.relation, result.binding), tuples);
                    }
                    Err(e) => {
                        let _ = events.send(StreamEvent::Failed(e));
                        return;
                    }
                }
            }
            Err(_) => break,
        }
    }

    // Shut the wrappers down and finish.
    drop(wrapper_tx);
    for h in wrapper_handles {
        let _ = h.join();
    }
    let report = StreamReport {
        answers,
        stats: log.stats(),
        log,
        time_to_first_answer: first_answer_at,
        total_time: started.elapsed(),
    };
    let _ = events.send(StreamEvent::Done(Box::new(report)));
}

/// Inserts an extraction into a cache and streams the answers newly
/// derivable through the inserted tuples.
#[allow(clippy::too_many_arguments)]
fn apply_extraction(
    plan: &QueryPlan,
    answer_rule: &toorjah_datalog::Rule,
    facts: &Mutex<FactStore>,
    cache_idx: usize,
    tuples: &[Tuple],
    answers_seen: &mut HashSet<Tuple>,
    answers: &mut Vec<Tuple>,
    first_answer_at: &mut Option<std::time::Duration>,
    started: Instant,
    events: &Sender<StreamEvent>,
) {
    let cache_pred = plan.caches[cache_idx].cache_pred;
    let mut facts = facts.lock();
    let mut delta = FactStore::new();
    for t in tuples {
        if facts.insert(cache_pred, t.clone()) {
            delta.insert(cache_pred, t.clone());
        }
    }
    emit_delta_answers(
        plan,
        answer_rule,
        &facts,
        cache_idx,
        &delta,
        answers_seen,
        answers,
        first_answer_at,
        started,
        events,
    );
}

/// Delta evaluation of the answer rule: pin, in turn, every body literal
/// over the updated cache to the freshly inserted tuples.
#[allow(clippy::too_many_arguments)]
fn emit_delta_answers(
    plan: &QueryPlan,
    answer_rule: &toorjah_datalog::Rule,
    facts: &FactStore,
    cache_idx: usize,
    delta: &FactStore,
    answers_seen: &mut HashSet<Tuple>,
    answers: &mut Vec<Tuple>,
    first_answer_at: &mut Option<std::time::Duration>,
    started: Instant,
    events: &Sender<StreamEvent>,
) {
    let cache_pred = plan.caches[cache_idx].cache_pred;
    if delta.is_empty(cache_pred) {
        return;
    }
    for (idx, lit) in answer_rule.body.iter().enumerate() {
        if lit.pred != cache_pred {
            continue;
        }
        for answer in rule_head_instances_pinned(answer_rule, facts, idx, delta) {
            if answers_seen.insert(answer.clone()) {
                let at = started.elapsed();
                answers.push(answer.clone());
                if first_answer_at.is_none() {
                    *first_answer_at = Some(at);
                }
                let _ = events.send(StreamEvent::Answer { tuple: answer, at });
            }
        }
    }
}

/// The union/intersection of provider-column projections (same semantics as
/// the sequential executor).
fn domain_values(
    plan: &QueryPlan,
    dp: &toorjah_core::DomainPredInfo,
    facts: &FactStore,
) -> Vec<Value> {
    let project = |provider: &toorjah_core::Provider| -> Vec<Value> {
        let cache = &plan.caches[provider.cache];
        let mut seen = HashSet::new();
        facts
            .tuples(cache.cache_pred)
            .iter()
            .map(|t| t[provider.column])
            .filter(|v| seen.insert(*v))
            .collect()
    };
    match dp.mode {
        DomainMode::Union => {
            let mut seen = HashSet::new();
            let mut out = Vec::new();
            for p in &dp.providers {
                for v in project(p) {
                    if seen.insert(v) {
                        out.push(v);
                    }
                }
            }
            out
        }
        DomainMode::Join => {
            let mut iter = dp.providers.iter();
            let Some(first) = iter.next() else {
                return Vec::new();
            };
            let mut out = project(first);
            for p in iter {
                let other: HashSet<Value> = project(p).into_iter().collect();
                out.retain(|v| other.contains(v));
            }
            out
        }
    }
}

/// Odometer-style cartesian product over value pools; an empty pool list
/// yields exactly the empty binding (free relations).
struct CartesianProduct<'a> {
    pools: &'a [Vec<Value>],
    odometer: Vec<usize>,
    done: bool,
}

impl<'a> CartesianProduct<'a> {
    fn new(pools: &'a [Vec<Value>]) -> Self {
        let done = pools.iter().any(Vec::is_empty) && !pools.is_empty();
        CartesianProduct {
            pools,
            odometer: vec![0; pools.len()],
            done,
        }
    }
}

impl Iterator for CartesianProduct<'_> {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        if self.done {
            return None;
        }
        let binding: Tuple = self
            .odometer
            .iter()
            .zip(self.pools)
            .map(|(&i, p)| p[i])
            .collect();
        // Advance.
        let mut pos = 0;
        loop {
            if pos == self.odometer.len() {
                self.done = true;
                break;
            }
            self.odometer[pos] += 1;
            if self.odometer[pos] < self.pools[pos].len() {
                break;
            }
            self.odometer[pos] = 0;
            pos += 1;
        }
        Some(binding)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use toorjah_catalog::{tuple, Instance, Schema};
    use toorjah_core::plan_query;
    use toorjah_engine::{execute_plan, ExecOptions, InstanceSource, LatencySource};
    use toorjah_query::parse_query;

    fn example_plan_and_source() -> (QueryPlan, Arc<dyn SourceProvider>) {
        let schema = Schema::parse("r1^io(A, B) r2^io(B, C) r3^io(C, A)").unwrap();
        let db = Instance::with_data(
            &schema,
            [
                ("r1", vec![tuple!["a", "b1"], tuple!["a", "b2"]]),
                ("r2", vec![tuple!["b1", "c1"], tuple!["b2", "c2"]]),
                ("r3", vec![tuple!["c1", "a"]]),
            ],
        )
        .unwrap();
        let q = parse_query("q(C) <- r1('a', B), r2(B, C)", &schema).unwrap();
        let planned = plan_query(&q, &schema).unwrap();
        (planned.plan, Arc::new(InstanceSource::new(schema, db)))
    }

    #[test]
    fn distillation_matches_sequential_execution() {
        let (plan, provider) = example_plan_and_source();
        let sequential = execute_plan(&plan, provider.as_ref(), ExecOptions::default()).unwrap();
        let stream = run_distillation(
            plan.clone(),
            Arc::clone(&provider),
            DistillationOptions::default(),
        );
        let report = stream.wait().unwrap();
        let mut a = report.answers.clone();
        let mut b = sequential.answers.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(report.stats.total_accesses, sequential.stats.total_accesses);
        assert!(report.time_to_first_answer.is_some());
        assert!(report.time_to_first_answer.unwrap() <= report.total_time);
    }

    #[test]
    fn answers_stream_incrementally() {
        let (plan, provider) = example_plan_and_source();
        let stream = run_distillation(plan, provider, DistillationOptions::default());
        let mut events = Vec::new();
        while let Some(e) = stream.next_event() {
            events.push(e);
        }
        let answer_count = events
            .iter()
            .filter(|e| matches!(e, StreamEvent::Answer { .. }))
            .count();
        assert_eq!(answer_count, 2); // c1 and c2
        assert!(matches!(events.last(), Some(StreamEvent::Done(_))));
    }

    #[test]
    fn latency_source_shows_first_answer_before_total() {
        let schema = Schema::parse("f^oo(A, B) g^io(B, C)").unwrap();
        let mut db = Instance::new(&schema);
        for i in 0..20 {
            db.insert("f", tuple![format!("a{i}"), format!("b{i}")])
                .unwrap();
            db.insert("g", tuple![format!("b{i}"), format!("c{i}")])
                .unwrap();
        }
        let src = LatencySource::new(
            InstanceSource::new(schema.clone(), db),
            std::time::Duration::from_millis(2),
        )
        .with_real_sleep();
        let q = parse_query("q(C) <- f(A, B), g(B, C)", &schema).unwrap();
        let planned = plan_query(&q, &schema).unwrap();
        let stream = run_distillation(planned.plan, Arc::new(src), DistillationOptions::default());
        let report = stream.wait().unwrap();
        assert_eq!(report.answers.len(), 20);
        // 21 accesses of ≥2 ms each happen on the wrapper threads; the first
        // answer requires only 2 of them.
        let first = report.time_to_first_answer.unwrap();
        assert!(
            first < report.total_time,
            "first answer should arrive before the run completes ({first:?} vs {:?})",
            report.total_time
        );
    }

    #[test]
    fn warm_cache_distillation_performs_no_accesses() {
        let (plan, provider) = example_plan_and_source();
        let cache = SharedAccessCache::unbounded();
        let cold = run_distillation_cached(
            plan.clone(),
            Arc::clone(&provider),
            DistillationOptions::default(),
            cache.clone(),
        )
        .wait()
        .unwrap();
        assert!(cold.stats.total_accesses > 0);
        let warm = run_distillation_cached(
            plan,
            provider,
            DistillationOptions::default(),
            cache.clone(),
        )
        .wait()
        .unwrap();
        let mut a = warm.answers.clone();
        let mut b = cold.answers.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b, "answers invariant under cache reuse");
        assert_eq!(warm.stats.total_accesses, 0, "warm run pays nothing");
        assert_eq!(cache.stats().misses as usize, cold.stats.total_accesses);
    }

    #[test]
    fn failure_is_reported() {
        let (plan, _) = example_plan_and_source();
        let schema = Schema::parse("r1^io(A, B) r2^io(B, C) r3^io(C, A)").unwrap();
        let db = Instance::with_data(&schema, [("r1", vec![tuple!["a", "b1"]])]).unwrap();
        let flaky = toorjah_engine::FlakySource::new(
            InstanceSource::new(schema, db),
            1, // every access fails
        );
        let stream = run_distillation(plan, Arc::new(flaky), DistillationOptions::default());
        assert!(stream.wait().is_err());
    }

    #[test]
    fn budget_failure() {
        let (plan, provider) = example_plan_and_source();
        let stream = run_distillation(
            plan,
            provider,
            DistillationOptions {
                max_accesses: 1,
                ..DistillationOptions::default()
            },
        );
        assert!(matches!(
            stream.wait(),
            Err(EngineError::AccessBudgetExceeded { limit: 1 })
        ));
    }

    #[test]
    fn cartesian_product_shapes() {
        let pools = vec![vec![Value::from(1), Value::from(2)], vec![Value::from(10)]];
        let all: Vec<Tuple> = CartesianProduct::new(&pools).collect();
        assert_eq!(all.len(), 2);
        // Empty pool list → single empty binding.
        let empty: Vec<Tuple> = CartesianProduct::new(&[]).collect();
        assert_eq!(empty, vec![Tuple::empty()]);
        // A pool with an empty list → nothing.
        let none: Vec<Tuple> = CartesianProduct::new(&[vec![]]).collect();
        assert!(none.is_empty());
    }
}
