//! The central correctness properties of the reproduction, checked over
//! hundreds of random schemas, queries and instances:
//!
//! 1. **Answer equivalence** — the optimized ⊂-minimal plan, the naive
//!    Fig. 1 algorithm, and the plain Datalog fixpoint semantics of the plan
//!    program compute the same set of obtainable answers.
//! 2. **Access dominance** — the optimized plan's access set is a subset of
//!    the naive plan's on every instance (optimization never pays more).
//! 3. **Soundness** — every obtainable answer is an answer of the query
//!    over the full (unrestricted) instance.
//! 4. **GFP invariants** — the solution is disjoint, incoming live arcs are
//!    homogeneous per node, and free-reachability of relevant sources is
//!    preserved.
//! 5. **Non-answerable queries** have no obtainable answers at all.

use proptest::prelude::*;
use toorjah::catalog::Tuple;
use toorjah::core::{plan_query, CoreError};
use toorjah::datalog::{evaluate, FactStore};
use toorjah::engine::{
    evaluate_cq, execute_plan, naive_evaluate, ExecOptions, InstanceSource, NaiveOptions,
    SourceProvider,
};
use toorjah::workload::random::seeded_rng;
use toorjah::workload::{random_instance, random_query, random_schema, RandomParams};

fn sorted(mut v: Vec<Tuple>) -> Vec<Tuple> {
    v.sort();
    v
}

/// One full random scenario driven by a seed; returns false when the seed
/// produced no usable query (which proptest simply skips).
fn check_scenario(seed: u64) -> bool {
    let params = RandomParams::small();
    let mut rng = seeded_rng(seed);
    let generated = random_schema(&mut rng, &params);
    let Some(query) = random_query(&mut rng, &generated, &params) else {
        return false;
    };
    let instance = random_instance(&mut rng, &generated, &params);
    let provider = InstanceSource::new(generated.schema.clone(), instance);

    let naive = naive_evaluate(
        &query,
        &generated.schema,
        &provider,
        NaiveOptions::default(),
    )
    .expect("naive evaluation terminates within budget on small workloads");

    match plan_query(&query, &generated.schema) {
        Err(CoreError::NotAnswerable { .. }) => {
            // Property 5: nothing is obtainable.
            assert!(
                naive.answers.is_empty(),
                "non-answerable query {} produced answers {:?}",
                query.display(&generated.schema),
                naive.answers,
            );
        }
        Err(e) => panic!("unexpected planning failure: {e}"),
        Ok(planned) => {
            // Property 4: structural invariants of the marking.
            planned
                .optimized
                .check_invariants()
                .expect("GFP invariants hold");

            let report = execute_plan(&planned.plan, &provider, ExecOptions::default())
                .expect("plan executes");

            // Property 1a: optimized == naive answers.
            assert_eq!(
                sorted(report.answers.clone()),
                sorted(naive.answers.clone()),
                "optimized vs naive answers differ for {} on seed {seed}",
                query.display(&generated.schema),
            );

            // Property 1b: optimized == Datalog fixpoint of the plan program.
            let mut edb = FactStore::new();
            for cache in &planned.plan.caches {
                if cache.is_constant_source {
                    continue;
                }
                let name = planned.plan.schema.relation(cache.relation).name();
                let rel = provider.schema().relation_id(name).unwrap();
                edb.extend(
                    cache.edb_pred,
                    provider.instance().full_extension(rel).iter().cloned(),
                );
            }
            let (idb, _) = evaluate(&planned.plan.program, &edb);
            assert_eq!(
                sorted(report.answers.clone()),
                sorted(idb.tuples(planned.plan.answer_pred).to_vec()),
                "fast-failing vs fixpoint answers differ on seed {seed}",
            );

            // The kernel's delta schedule partitions its dispatched
            // accesses: one entry per fixpoint step, summing to the total.
            assert_eq!(
                report.dispatch.delta_schedule.iter().sum::<usize>(),
                report.dispatch.total_requested(),
                "delta schedule sums to total_requested on seed {seed}",
            );

            // Property 2: optimized accesses never exceed the naive per
            // relation (the naive probes every domain-compatible binding the
            // optimized plan could ever generate).
            for (rel, &count) in &report.stats.accesses {
                let naive_count = naive.stats.accesses_to(*rel);
                assert!(
                    count <= naive_count,
                    "relation {rel:?}: optimized {count} > naive {naive_count} on seed {seed}",
                );
            }

            // Property 3: soundness w.r.t. the unrestricted evaluation.
            let extensions: Vec<&[Tuple]> = query
                .atoms()
                .iter()
                .map(|atom| provider.instance().full_extension(atom.relation()))
                .collect();
            let full = evaluate_cq(&query, &extensions);
            for answer in &report.answers {
                assert!(
                    full.contains(answer),
                    "obtained answer {answer} is not a real answer on seed {seed}",
                );
            }
        }
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    #[test]
    fn optimized_naive_and_fixpoint_agree(seed in 0u64..1_000_000) {
        check_scenario(seed);
    }
}

/// The prepare/execute lifecycle is a pure refactoring of one-shot `ask`:
/// for every statement kind (CQ, union, negated), every `ExecMode`
/// (sequential, parallel, streaming) and every cache configuration
/// (per-query, shared unbounded, shared entry-capped), a `Prepared`
/// executed any number of times produces the one-shot answers — and, on a
/// cold cache, the one-shot access counts.
mod prepared_matches_one_shot {
    use super::sorted;
    use toorjah::cache::{CacheConfig, SharedAccessCache};
    use toorjah::catalog::{tuple, Instance, Schema};
    use toorjah::engine::{DispatchOptions, InstanceSource};
    use toorjah::system::{ExecMode, Statement, Toorjah};

    fn schema_and_instance() -> (Schema, Instance) {
        let schema = Schema::parse("f^oo(A, B) g^io(B, C) h^io(B, C) banned^io(B, C)").unwrap();
        let db = Instance::with_data(
            &schema,
            [
                (
                    "f",
                    vec![tuple!["a1", "b1"], tuple!["a2", "b2"], tuple!["a3", "b3"]],
                ),
                (
                    "g",
                    vec![tuple!["b1", "c1"], tuple!["b2", "c2"], tuple!["b3", "c3"]],
                ),
                ("h", vec![tuple!["b1", "c9"], tuple!["b2", "c2"]]),
                ("banned", vec![tuple!["b1", "c1"], tuple!["b3", "c9"]]),
            ],
        )
        .unwrap();
        (schema, db)
    }

    const STATEMENTS: [&str; 3] = [
        // Plain CQ.
        "q(C) <- f(A, B), g(B, C)",
        // Union: overlapping disjuncts sharing the f accesses.
        "q(C) <- f(A, B), g(B, C); q(C) <- f(A, B), h(B, C)",
        // Safe negation: rejects (b1, c1), keeps the rest.
        "q(B, C) <- f(A, B), g(B, C), !banned(B, C)",
    ];

    const MODES: [ExecMode; 3] = [
        ExecMode::Sequential,
        ExecMode::Parallel(DispatchOptions {
            parallelism: 4,
            batch_size: 2,
        }),
        ExecMode::Streaming,
    ];

    fn fresh_system(cache: Option<SharedAccessCache>) -> Toorjah {
        let (schema, db) = schema_and_instance();
        let mut builder = Toorjah::builder(InstanceSource::new(schema, db));
        if let Some(cache) = cache {
            builder = builder.cache(cache);
        }
        builder.build()
    }

    #[test]
    fn all_kinds_all_modes_all_cache_configs() {
        for text in STATEMENTS {
            for mode in MODES {
                // One-shot reference on a cold, session-less system: every
                // mode makes Sequential's accesses and returns its answers,
                // order included.
                let one_shot = fresh_system(None).ask_with(text, mode).unwrap();
                assert!(!one_shot.answers.is_empty(), "{text} has answers");
                let sequential = fresh_system(None).ask(text).unwrap();
                assert_eq!(
                    one_shot.answers, sequential.answers,
                    "{text} under {mode:?}"
                );
                assert_eq!(
                    one_shot.profile.stats, sequential.profile.stats,
                    "{text} under {mode:?}"
                );

                let cache_configs: [(Option<SharedAccessCache>, bool); 3] = [
                    (None, false),
                    (Some(SharedAccessCache::unbounded()), false),
                    (
                        // Entry-capped: evictions force re-accesses, but
                        // answers must stay invariant.
                        Some(SharedAccessCache::new(
                            CacheConfig::max_entries(3).with_shards(2),
                        )),
                        true,
                    ),
                ];
                for (session_cache, evicting) in cache_configs {
                    let shared = session_cache.is_some();
                    let system = fresh_system(session_cache);
                    let statement = Statement::parse(text, system.schema()).unwrap();
                    let prepared = system.prepare(&statement).unwrap();

                    let first = prepared.execute(mode).unwrap();
                    // Answer-identical to the one-shot, order included.
                    assert_eq!(first.answers, one_shot.answers, "{text} under {mode:?}");
                    // Access-count-identical on the cold execution.
                    assert_eq!(
                        first.profile.accesses_performed, one_shot.profile.accesses_performed,
                        "cold access count for {text} under {mode:?}"
                    );
                    assert_eq!(
                        first.profile.stats, one_shot.profile.stats,
                        "cold per-relation stats for {text} under {mode:?}"
                    );
                    assert_eq!(first.rejected, one_shot.rejected);
                    assert_eq!(first.skipped_disjuncts, one_shot.skipped_disjuncts);
                    // The delta schedule partitions the dispatched accesses
                    // in every statement kind × mode combination…
                    assert_eq!(
                        first.profile.dispatch.delta_schedule.iter().sum::<usize>(),
                        first.profile.dispatch.total_requested(),
                        "delta schedule reconciles for {text} under {mode:?}"
                    );
                    // …and the per-step sizes themselves are deterministic:
                    // prepared matches one-shot exactly.
                    assert_eq!(
                        first.profile.dispatch.delta_schedule,
                        one_shot.profile.dispatch.delta_schedule,
                        "delta schedule for {text} under {mode:?}"
                    );

                    // Re-execution: same answers, no parse, no plan.
                    let second = prepared.execute(mode).unwrap();
                    assert_eq!(
                        sorted(second.answers.clone()),
                        sorted(first.answers.clone()),
                        "re-execution answers for {text} under {mode:?}"
                    );
                    assert!(second.profile.timings.parse.is_none());
                    assert!(second.profile.timings.plan.is_none());
                    assert_eq!(second.profile.execution, 2);
                    if shared && !evicting {
                        assert_eq!(
                            second.profile.accesses_performed, 0,
                            "a warm unbounded session serves everything: \
                             {text} under {mode:?}"
                        );
                    }
                    if !shared {
                        // Private per-execution caches: every run pays the
                        // full cold cost, like consecutive one-shot asks.
                        assert_eq!(
                            second.profile.accesses_performed, first.profile.accesses_performed,
                            "{text} under {mode:?}"
                        );
                    }
                }
            }
        }
    }
}

/// A deterministic sweep over fixed seeds, so CI failures are reproducible
/// without proptest shrinking.
#[test]
fn fixed_seed_sweep() {
    let mut usable = 0;
    for seed in 0..160 {
        if check_scenario(seed) {
            usable += 1;
        }
    }
    assert!(
        usable > 80,
        "the generator should produce usable queries ({usable}/160)"
    );
}
