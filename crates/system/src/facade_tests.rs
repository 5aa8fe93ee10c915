//! Unit tests of the facade's statement lifecycle.

use std::sync::Arc;

use toorjah_cache::SharedAccessCache;
use toorjah_catalog::{tuple, Instance, Schema};
use toorjah_core::CoreError;
use toorjah_engine::{
    DispatchOptions, EngineError, ExecOptions, FlakySource, InstanceSource, LatencySource,
    NegationError, SourceProvider,
};

use crate::{ExecMode, Statement, StatementKind, StreamEvent, Toorjah, ToorjahError};

fn example_system() -> Toorjah {
    let schema = Schema::parse("r1^io(A, B) r2^io(B, C) r3^io(C, A)").unwrap();
    let db = Instance::with_data(
        &schema,
        [
            ("r1", vec![tuple!["a", "b1"]]),
            ("r2", vec![tuple!["b1", "c1"]]),
            ("r3", vec![tuple!["c1", "a"]]),
        ],
    )
    .unwrap();
    Toorjah::new(InstanceSource::new(schema, db))
}

#[test]
fn ask_end_to_end() {
    let system = example_system();
    let response = system.ask("q(C) <- r1('a', B), r2(B, C)").unwrap();
    assert_eq!(response.answers, vec![tuple!["c1"]]);
    assert_eq!(response.profile.stats.total_accesses, 2);
    assert_eq!(response.profile.accesses_performed, 2);
    assert_eq!(response.profile.statement, StatementKind::Cq);
    assert_eq!(response.profile.mode, ExecMode::Sequential);
    // One-shot calls report all three lifecycle phases.
    assert!(response.profile.timings.parse.is_some());
    assert!(response.profile.timings.plan.is_some());
    assert!(response.profile.timings.total >= response.profile.timings.execute);
}

#[test]
fn prepare_execute_skips_parse_and_plan() {
    let system = example_system();
    let statement = Statement::parse("q(C) <- r1('a', B), r2(B, C)", system.schema()).unwrap();
    let prepared = system.prepare(&statement).unwrap();
    assert!(prepared.planned().unwrap().minimality.forall_minimal);
    for i in 1..=3 {
        let response = prepared.execute(ExecMode::Sequential).unwrap();
        assert_eq!(response.answers, vec![tuple!["c1"]]);
        assert!(response.profile.timings.parse.is_none());
        assert!(response.profile.timings.plan.is_none());
        assert_eq!(response.profile.execution, i);
    }
    assert_eq!(prepared.executions(), 3);
}

#[test]
fn parse_errors_are_surfaced() {
    let system = example_system();
    assert!(matches!(
        system.ask("q(C) <- nope(C)"),
        Err(ToorjahError::Query(_))
    ));
}

#[test]
fn non_answerable_queries_fail_at_planning() {
    let schema = Schema::parse("r1^io(A, C) r2^io(B, C)").unwrap();
    let system = Toorjah::new(InstanceSource::new(schema.clone(), Instance::new(&schema)));
    assert!(matches!(
        system.ask("q(C) <- r1(X, C)"),
        Err(ToorjahError::Planning(CoreError::NotAnswerable { .. }))
    ));
}

#[test]
fn explain_mentions_program_and_relevance() {
    let system = example_system();
    let text = system.explain("q(C) <- r1('a', B), r2(B, C)").unwrap();
    assert!(text.contains("datalog program"));
    assert!(text.contains("r1_hat1"));
    assert!(
        !text.contains("r3_hat"),
        "irrelevant r3 must not be cached:\n{text}"
    );
    assert!(text.contains("forall-minimal: yes"));
    // The dependency-graph program is recursive: explain reports how many
    // delta-join passes each semi-naive round will run.
    assert!(text.contains("semi-naive: "), "{text}");
    assert!(text.contains("delta-join pass(es) per round"), "{text}");
}

#[test]
fn explain_renders_union_and_negated_statements() {
    let schema = Schema::parse("r^io(A, B) s^io(A, B) f^o(A) banned^io(A, B)").unwrap();
    let db = Instance::with_data(&schema, [("f", vec![tuple!["a"]])]).unwrap();
    let system = Toorjah::new(InstanceSource::new(schema, db));
    let text = system
        .explain("q(B) <- f(X), r(X, B); q(B) <- f(X), s(X, B)")
        .unwrap();
    assert!(text.contains("== disjunct 0 =="), "{text}");
    assert!(text.contains("== disjunct 1 =="), "{text}");
    let text = system
        .explain("q(B) <- f(X), r(X, B), !banned(X, B)")
        .unwrap();
    assert!(text.contains("negation checks"), "{text}");
    assert!(text.contains("not banned/2"), "{text}");
}

#[test]
fn schema_accessor() {
    let system = example_system();
    assert_eq!(system.schema().relation_count(), 3);
}

#[test]
fn parallel_mode_is_answer_invariant_and_reported() {
    let sequential = example_system()
        .ask_with("q(C) <- r1('a', B), r2(B, C)", ExecMode::Sequential)
        .unwrap();
    let parallel = example_system()
        .ask_with(
            "q(C) <- r1('a', B), r2(B, C)",
            ExecMode::Parallel(DispatchOptions::parallel(4).with_batch_size(2)),
        )
        .unwrap();
    assert_eq!(parallel.answers, sequential.answers);
    assert_eq!(parallel.profile.stats, sequential.profile.stats);
    assert_eq!(
        parallel.profile.dispatch.frontier_sizes, sequential.profile.dispatch.frontier_sizes,
        "the frontiers themselves are dispatch-invariant"
    );
    assert!(parallel.profile.dispatch.frontiers() > 0);
    assert!(
        parallel.profile.dispatch.batches <= sequential.profile.dispatch.batches,
        "batching can only reduce round trips"
    );
}

#[test]
fn configured_dispatch_sets_the_default_mode() {
    let system = example_system();
    assert_eq!(system.default_mode(), ExecMode::Sequential);
    let system = system.with_dispatch(DispatchOptions::parallel(8));
    assert_eq!(
        system.default_mode(),
        ExecMode::Parallel(DispatchOptions::parallel(8))
    );
    let text = system.explain("q(C) <- r1('a', B), r2(B, C)").unwrap();
    assert!(text.contains("parallelism=8"), "{text}");
    assert!(text.contains("batch_size=1"), "{text}");
}

#[test]
fn session_cache_makes_repeat_queries_free() {
    let system = example_system().with_cache(SharedAccessCache::unbounded());
    let cold = system.ask("q(C) <- r1('a', B), r2(B, C)").unwrap();
    assert_eq!(cold.profile.stats.total_accesses, 2);
    assert_eq!(cold.profile.accesses_performed, 2);
    let warm = system.ask("q(C) <- r1('a', B), r2(B, C)").unwrap();
    assert_eq!(warm.answers, cold.answers);
    assert_eq!(
        warm.profile.stats.total_accesses, 0,
        "warm query pays nothing"
    );
    assert_eq!(warm.profile.accesses_served_by_cache, 2);
    assert_eq!(warm.profile.accesses_performed, 0);
    let stats = system.cache_stats().unwrap();
    assert_eq!(stats.entries, 2);
    assert_eq!(stats.misses, 2);
}

#[test]
fn without_session_cache_queries_stay_independent() {
    let system = example_system();
    assert!(system.cache_stats().is_none());
    assert!(system.session_cache().is_none());
    let first = system.ask("q(C) <- r1('a', B), r2(B, C)").unwrap();
    let second = system.ask("q(C) <- r1('a', B), r2(B, C)").unwrap();
    // No sharing: both runs pay the full access count.
    assert_eq!(first.profile.stats.total_accesses, 2);
    assert_eq!(second.profile.stats.total_accesses, 2);
    assert_eq!(second.profile.accesses_performed, 2);
}

#[test]
fn two_sessions_share_one_cache_handle() {
    let schema = Schema::parse("r1^io(A, B) r2^io(B, C) r3^io(C, A)").unwrap();
    let db = Instance::with_data(
        &schema,
        [
            ("r1", vec![tuple!["a", "b1"]]),
            ("r2", vec![tuple!["b1", "c1"]]),
            ("r3", vec![tuple!["c1", "a"]]),
        ],
    )
    .unwrap();
    let provider: Arc<dyn SourceProvider> = Arc::new(InstanceSource::new(schema, db));
    let cache = SharedAccessCache::unbounded();
    let one = Toorjah::from_arc(Arc::clone(&provider)).with_cache(cache.clone());
    let two = Toorjah::builder_from_arc(provider).cache(cache).build();
    one.ask("q(C) <- r1('a', B), r2(B, C)").unwrap();
    let warm = two.ask("q(C) <- r1('a', B), r2(B, C)").unwrap();
    assert_eq!(
        warm.profile.stats.total_accesses, 0,
        "cross-session sharing"
    );
}

#[test]
fn explain_surfaces_session_cache_stats() {
    let system = example_system().with_cache(SharedAccessCache::unbounded());
    system.ask("q(C) <- r1('a', B), r2(B, C)").unwrap();
    let text = system.explain("q(C) <- r1('a', B), r2(B, C)").unwrap();
    assert!(text.contains("session cache: 2 entries"), "{text}");
    // Without a session cache the line is absent.
    let text = example_system()
        .explain("q(C) <- r1('a', B), r2(B, C)")
        .unwrap();
    assert!(!text.contains("session cache"), "{text}");
}

#[test]
fn builder_consolidates_configuration() {
    let schema = Schema::parse("r^oo(A, B)").unwrap();
    let db = Instance::with_data(&schema, [("r", vec![tuple!["a", "b"]])]).unwrap();
    let system = Toorjah::builder(InstanceSource::new(schema, db))
        .dispatch(DispatchOptions::parallel(4))
        .cache(SharedAccessCache::unbounded())
        .build();
    assert!(system.session_cache().is_some());
    assert_eq!(
        system.default_mode(),
        ExecMode::Parallel(DispatchOptions::parallel(4))
    );
    let response = system.ask("q(A) <- r(A, B)").unwrap();
    assert_eq!(response.answers, vec![tuple!["a"]]);
}

#[test]
fn negation_error_converts_via_from() {
    let planning: ToorjahError =
        NegationError::Planning(CoreError::Internal("x".to_string())).into();
    assert!(matches!(planning, ToorjahError::Planning(_)));
    let internal: ToorjahError = NegationError::Internal("y".to_string()).into();
    assert!(matches!(
        internal,
        ToorjahError::Planning(CoreError::Internal(_))
    ));
}

mod union_statements {
    use super::*;

    fn union_system() -> Toorjah {
        let schema = Schema::parse("r^io(A, B) s^io(A, B) f^o(A) dead^io(Z, B)").unwrap();
        let db = Instance::with_data(
            &schema,
            [
                ("r", vec![tuple!["a", "rb"]]),
                ("s", vec![tuple!["a", "sb"]]),
                ("f", vec![tuple!["a"]]),
            ],
        )
        .unwrap();
        Toorjah::new(InstanceSource::new(schema, db))
    }

    #[test]
    fn union_statement_merges_and_skips() {
        let system = union_system();
        let response = system
            .ask(
                "q(B) <- f(X), r(X, B); \
                 q(B) <- f(X), s(X, B); \
                 q(B) <- dead(Z, B)",
            )
            .unwrap();
        let mut answers = response.answers.clone();
        answers.sort();
        assert_eq!(answers, vec![tuple!["rb"], tuple!["sb"]]);
        // The third disjunct is not answerable: skipped, not fatal.
        assert_eq!(response.skipped_disjuncts, vec![2]);
        assert_eq!(response.profile.statement, StatementKind::Union);
        // f accessed once for both disjuncts.
        let f = system.schema().relation_id("f").unwrap();
        assert_eq!(response.profile.stats.accesses_to(f), 1);
    }

    #[test]
    fn union_statement_rejects_mixed_arity() {
        let system = union_system();
        assert!(system.ask("q(X) <- r(X, Y); q(X, Y) <- s(X, Y)").is_err());
    }
}

mod negated_statements {
    use super::*;

    fn negated_system() -> Toorjah {
        let schema = Schema::parse("works^oo(Person, City) banned^io(Person, City)").unwrap();
        let db = Instance::with_data(
            &schema,
            [
                (
                    "works",
                    vec![
                        tuple!["ann", "rome"],
                        tuple!["bob", "milan"],
                        tuple!["cal", "rome"],
                    ],
                ),
                (
                    "banned",
                    vec![tuple!["bob", "milan"], tuple!["cal", "paris"]],
                ),
            ],
        )
        .unwrap();
        Toorjah::new(InstanceSource::new(schema, db))
    }

    #[test]
    fn negated_statement_filters_witnessed_candidates() {
        let system = negated_system();
        let response = system.ask("q(P) <- works(P, C), !banned(P, C)").unwrap();
        let mut answers = response.answers.clone();
        answers.sort();
        assert_eq!(answers, vec![tuple!["ann"], tuple!["cal"]]);
        assert_eq!(response.rejected, 1);
        assert_eq!(response.profile.statement, StatementKind::Negated);
    }

    #[test]
    fn prepared_negated_statement_is_reusable() {
        let system = negated_system();
        let statement =
            Statement::parse("q(P) <- works(P, C), !banned(P, C)", system.schema()).unwrap();
        let prepared = system.prepare(&statement).unwrap();
        let first = prepared.execute(ExecMode::Sequential).unwrap();
        let second = prepared.execute(ExecMode::Sequential).unwrap();
        assert_eq!(first.answers, second.answers);
        assert_eq!(first.profile.stats, second.profile.stats);
        assert_eq!(second.profile.execution, 2);
    }
}

mod streaming {
    use super::*;

    fn system() -> Toorjah {
        let schema = Schema::parse("f^oo(A, B) g^io(B, C)").unwrap();
        let db = Instance::with_data(
            &schema,
            [
                ("f", vec![tuple!["a1", "b1"], tuple!["a2", "b2"]]),
                ("g", vec![tuple!["b1", "c1"], tuple!["b2", "c2"]]),
            ],
        )
        .unwrap();
        Toorjah::new(InstanceSource::new(schema, db))
    }

    fn prepared(system: &Toorjah) -> crate::Prepared {
        let statement = Statement::parse("q(C) <- f(A, B), g(B, C)", system.schema()).unwrap();
        system.prepare(&statement).unwrap()
    }

    #[test]
    fn streaming_answers_iterator() {
        let system = system();
        let stream = prepared(&system).stream().unwrap();
        let mut answers: Vec<_> = stream.answers().collect();
        answers.sort();
        assert_eq!(answers, vec![tuple!["c1"], tuple!["c2"]]);
    }

    #[test]
    fn streaming_events_are_timestamped_and_terminated() {
        let system = system();
        let stream = prepared(&system).stream().unwrap();
        let mut saw_done = false;
        while let Some(event) = stream.next_event() {
            match event {
                StreamEvent::Answer { at, .. } => assert!(at.as_nanos() > 0),
                StreamEvent::Done(report) => {
                    saw_done = true;
                    assert_eq!(report.answers.len(), 2);
                }
                StreamEvent::Failed(e) => panic!("unexpected failure: {e}"),
            }
        }
        assert!(saw_done);
    }

    #[test]
    fn streaming_mode_collects_the_same_answers() {
        let system = system();
        let sequential = system.ask("q(C) <- f(A, B), g(B, C)").unwrap();
        let streamed = system
            .ask_with("q(C) <- f(A, B), g(B, C)", ExecMode::Streaming)
            .unwrap();
        let mut a = streamed.answers.clone();
        let mut b = sequential.answers.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(
            streamed.profile.stats.total_accesses,
            sequential.profile.stats.total_accesses
        );
        assert!(streamed.time_to_first_answer.is_some());
        assert_eq!(streamed.profile.mode, ExecMode::Streaming);
    }

    #[test]
    fn incremental_streaming_is_cq_only() {
        let schema = Schema::parse("r^oo(A, B) banned^io(A, B)").unwrap();
        let db = Instance::with_data(&schema, [("r", vec![tuple!["a", "b"]])]).unwrap();
        let system = Toorjah::new(InstanceSource::new(schema, db));
        let union = Statement::parse("q(A) <- r(A, B); q(B) <- r(A, B)", system.schema()).unwrap();
        assert!(matches!(
            system.prepare(&union).unwrap().stream(),
            Err(ToorjahError::Unsupported(_))
        ));
        let negated = Statement::parse("q(A) <- r(A, B), !banned(A, B)", system.schema()).unwrap();
        assert!(matches!(
            system.prepare(&negated).unwrap().stream(),
            Err(ToorjahError::Unsupported(_))
        ));
        // But collected streaming executions work for both.
        let response = system
            .prepare(&union)
            .unwrap()
            .execute(ExecMode::Streaming)
            .unwrap();
        assert_eq!(response.answer_count(), 2);
        let response = system
            .prepare(&negated)
            .unwrap()
            .execute(ExecMode::Streaming)
            .unwrap();
        assert_eq!(response.answers, vec![tuple!["a"]]);
    }

    /// Example 5's chain: two answers (c1, c2) over two r2 accesses.
    fn chain_system(provider: impl SourceProvider + 'static) -> Toorjah {
        Toorjah::new(provider)
    }

    fn chain_source() -> InstanceSource {
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
        InstanceSource::new(schema, db)
    }

    const CHAIN: &str = "q(C) <- r1('a', B), r2(B, C)";

    fn chain_prepared(system: &Toorjah) -> crate::Prepared {
        system
            .prepare(&Statement::parse(CHAIN, system.schema()).unwrap())
            .unwrap()
    }

    #[test]
    fn distillation_matches_sequential_execution() {
        let system = chain_system(chain_source());
        let prepared = chain_prepared(&system);
        let sequential = prepared.execute(ExecMode::Sequential).unwrap();
        let report = prepared.stream().unwrap().wait().unwrap();
        assert_eq!(report.answers, sequential.answers);
        assert_eq!(
            report.stats.total_accesses,
            sequential.profile.stats.total_accesses
        );
        assert!(report.time_to_first_answer.is_some());
        assert!(report.time_to_first_answer.unwrap() <= report.total_time);
    }

    #[test]
    fn answers_stream_incrementally() {
        let system = chain_system(chain_source());
        let stream = chain_prepared(&system).stream().unwrap();
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
        let system = Toorjah::new(src);
        let statement = Statement::parse("q(C) <- f(A, B), g(B, C)", system.schema()).unwrap();
        let report = system
            .prepare(&statement)
            .unwrap()
            .stream()
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(report.answers.len(), 20);
        // Two round trips of ≥2 ms each: the f frontier, then all 20 g
        // accesses at once; the answers surface as the second one folds.
        let first = report.time_to_first_answer.unwrap();
        assert!(first >= std::time::Duration::from_millis(4));
        assert!(
            first < report.total_time,
            "first answer should arrive before the run completes ({first:?} vs {:?})",
            report.total_time
        );
    }

    #[test]
    fn warm_cache_distillation_performs_no_accesses() {
        let cache = SharedAccessCache::unbounded();
        let system = chain_system(chain_source()).with_cache(cache.clone());
        let prepared = chain_prepared(&system);
        let cold = prepared.stream().unwrap().wait().unwrap();
        assert!(cold.stats.total_accesses > 0);
        let warm = prepared.stream().unwrap().wait().unwrap();
        assert_eq!(
            warm.answers, cold.answers,
            "answers invariant under cache reuse"
        );
        assert_eq!(warm.stats.total_accesses, 0, "warm run pays nothing");
        assert_eq!(cache.stats().misses as usize, cold.stats.total_accesses);
    }

    #[test]
    fn failure_is_reported() {
        let flaky = FlakySource::new(chain_source(), 1); // every access fails
        let system = chain_system(flaky);
        assert!(matches!(
            chain_prepared(&system).stream().unwrap().wait(),
            Err(EngineError::SourceFailure { .. })
        ));
    }

    #[test]
    fn budget_failure() {
        let system = Toorjah::builder(chain_source())
            .exec(ExecOptions {
                max_accesses: 1,
                ..ExecOptions::default()
            })
            .build();
        assert!(matches!(
            chain_prepared(&system).stream().unwrap().wait(),
            Err(EngineError::AccessBudgetExceeded { limit: 1 })
        ));
    }

    /// Panics on every access.
    struct PanickingSource(InstanceSource);

    impl SourceProvider for PanickingSource {
        fn schema(&self) -> &Schema {
            self.0.schema()
        }

        fn access(
            &self,
            _: toorjah_catalog::RelationId,
            _: &toorjah_catalog::Tuple,
        ) -> Result<Vec<toorjah_catalog::Tuple>, EngineError> {
            panic!("source exploded")
        }
    }

    #[test]
    fn a_panicking_source_fails_the_stream_with_a_typed_error() {
        let system = chain_system(PanickingSource(chain_source()));
        match chain_prepared(&system).stream().unwrap().wait() {
            Err(EngineError::Panicked(detail)) => assert!(detail.contains("source exploded")),
            other => panic!("expected a typed panic failure, got {other:?}"),
        }
    }

    #[test]
    fn the_execution_cap_binds_under_streaming() {
        // Example 5: a two-access statement (r1 once, r2 once).
        let system = example_system();
        let prepared = system
            .prepare(&Statement::parse("q(C) <- r1('a', B), r2(B, C)", system.schema()).unwrap())
            .unwrap();
        let uncapped = prepared.execute(ExecMode::Streaming).unwrap();
        assert_eq!(uncapped.profile.accesses_performed, 2);
        assert!(matches!(
            prepared.execute_capped(ExecMode::Streaming, Some(1)),
            Err(ToorjahError::Execution(EngineError::AccessBudgetExceeded {
                limit: 1
            }))
        ));
    }

    #[test]
    fn streamed_answers_equal_sequential_in_order_and_first_k_binds() {
        let system = Toorjah::builder(chain_source()).first_k(1).build();
        let prepared = chain_prepared(&system);
        let sequential = prepared.execute(ExecMode::Sequential).unwrap();
        let streamed = prepared.execute(ExecMode::Streaming).unwrap();
        assert_eq!(streamed.answers, sequential.answers);
        assert_eq!(streamed.answers.len(), 1);
        let stream = prepared.stream().unwrap();
        assert_eq!(stream.answers().count(), 1, "the stream emits at most k");
    }
}
