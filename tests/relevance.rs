//! Acceptance suite for the evaluation kernel's runtime access-relevance
//! pruning and first-k early termination:
//!
//! 1. On the sparse star-join workload, pruning cuts `accesses_performed`
//!    by ≥ 30% with bit-identical answers — across statement kinds and
//!    execution modes (streaming executes unpruned by design and is
//!    checked for answer equivalence only).
//! 2. The account always closes: every requested access is performed,
//!    cache-served or pruned, and the counters surface end-to-end through
//!    `Response::to_json`.
//! 3. First-k early termination returns exactly the first `k` certain
//!    answers and saves accesses when a union's later disjuncts become
//!    unnecessary.

use toorjah::cache::SharedAccessCache;
use toorjah::engine::{DispatchOptions, InstanceSource, PruningLevel};
use toorjah::system::{ExecMode, Response, Toorjah};
use toorjah::workload::{sparse_instance, sparse_query, sparse_schema, SparseConfig};

fn sparse_system(prune: bool) -> Toorjah {
    let schema = sparse_schema();
    let db = sparse_instance(&schema, &SparseConfig::default());
    let level = if prune {
        PruningLevel::Runtime
    } else {
        PruningLevel::Static
    };
    Toorjah::builder(InstanceSource::new(schema, db))
        .prune_level(level)
        .build()
}

fn sorted(mut v: Vec<toorjah::catalog::Tuple>) -> Vec<toorjah::catalog::Tuple> {
    v.sort();
    v
}

fn assert_account_closes(response: &Response) {
    assert_eq!(
        response.profile.accesses_performed
            + response.profile.accesses_served_by_cache
            + response.profile.dispatch.accesses_pruned as u64,
        response.profile.dispatch.total_requested() as u64,
        "performed + served + pruned must equal requested"
    );
}

#[test]
fn sparse_workload_prunes_at_least_30_percent() {
    let config = SparseConfig::default();
    let off = sparse_system(false).ask(sparse_query()).unwrap();
    let on = sparse_system(true).ask(sparse_query()).unwrap();

    assert_eq!(on.answers, off.answers, "answers are bit-identical");
    assert!(!on.answers.is_empty(), "the workload has answers");
    assert_eq!(
        off.profile.accesses_performed as usize,
        config.unpruned_accesses(),
        "the unpruned run probes every key against both branches"
    );
    assert!(
        on.profile.accesses_performed * 10 <= off.profile.accesses_performed * 7,
        ">=30% fewer accesses: {} vs {}",
        on.profile.accesses_performed,
        off.profile.accesses_performed
    );
    assert_eq!(
        on.profile.dispatch.accesses_pruned as u64,
        off.profile.accesses_performed - on.profile.accesses_performed,
        "every saved access was pruned, none skipped silently"
    );
    assert_eq!(off.profile.dispatch.accesses_pruned, 0);
    assert_account_closes(&off);
    assert_account_closes(&on);
}

#[test]
fn pruning_is_mode_and_kind_invariant() {
    // Statement kinds over the sparse schema: plain CQ, union (second
    // disjunct swaps the branches), safe negation.
    let statements = [
        sparse_query().to_string(),
        format!(
            "{}; q(V, W) <- gen(K), audit(K, W), probe(K, V)",
            sparse_query()
        ),
        // ¬probe(K, 'v0') rejects exactly the candidates of key k0.
        "q(V, W) <- gen(K), probe(K, V), audit(K, W), !probe(K, 'v0')".to_string(),
    ];
    let modes = [
        ExecMode::Sequential,
        ExecMode::Parallel(DispatchOptions::parallel(4).with_batch_size(8)),
        ExecMode::Streaming,
    ];
    for text in &statements {
        for mode in modes {
            let off = sparse_system(false).ask_with(text, mode).unwrap();
            let on = sparse_system(true).ask_with(text, mode).unwrap();
            assert_eq!(
                sorted(on.answers.clone()),
                sorted(off.answers.clone()),
                "{text} under {mode:?}"
            );
            assert!(
                on.profile.accesses_performed <= off.profile.accesses_performed,
                "{text} under {mode:?}: pruning may only reduce accesses"
            );
            assert_account_closes(&off);
            assert_account_closes(&on);
        }
    }
}

#[test]
fn pruned_counters_surface_in_json() {
    let system = sparse_system(true);
    let response = system.ask(sparse_query()).unwrap();
    assert!(response.profile.dispatch.accesses_pruned > 0);
    let json = response.to_json(system.schema());
    assert!(
        json.contains(&format!(
            "\"accesses_pruned\":{}",
            response.profile.dispatch.accesses_pruned
        )),
        "{json}"
    );
    assert!(json.contains("\"pruned_per_frontier\":["), "{json}");
    // The per-round counters reconcile with the total.
    assert_eq!(
        response
            .profile
            .dispatch
            .pruned_per_frontier
            .iter()
            .sum::<usize>(),
        response.profile.dispatch.accesses_pruned
    );
}

#[test]
fn pruned_accesses_never_reach_the_session_cache() {
    let schema = sparse_schema();
    let db = sparse_instance(&schema, &SparseConfig::default());
    let cache = SharedAccessCache::unbounded();
    let system = Toorjah::builder(InstanceSource::new(schema.clone(), db.clone()))
        .cache(cache.clone())
        .prune_level(PruningLevel::Runtime)
        .build();
    let response = system.ask(sparse_query()).unwrap();
    assert!(response.profile.dispatch.accesses_pruned > 0);
    // Every cache lookup corresponds to a non-pruned request: pruning
    // happens before the cache, so the pruned keys never cost a probe.
    let stats = cache.stats();
    assert_eq!(
        stats.lookups() as usize,
        response.profile.dispatch.total_requested() - response.profile.dispatch.accesses_pruned
    );
}

#[test]
fn explain_reports_prunable_caches_and_pruning_state() {
    let on = sparse_system(true);
    let text = on.explain(sparse_query()).unwrap();
    assert!(text.contains("runtime pruning: enabled"), "{text}");
    assert!(text.contains("runtime-prunable caches:"), "{text}");
    assert!(
        text.contains("probe(1)") && text.contains("audit(1)"),
        "both star branches are prunable: {text}"
    );
    let off = sparse_system(false);
    let text = off.explain(sparse_query()).unwrap();
    assert!(text.contains("runtime pruning: disabled"), "{text}");
}

#[test]
fn first_k_on_a_union_skips_later_disjuncts() {
    // Disjuncts over disjoint relations, so the later disjunct's accesses
    // are genuinely saved (they cannot be cache-served by the first).
    let schema = toorjah::catalog::Schema::parse("f1^o(A) f2^o(A)").unwrap();
    let db = toorjah::catalog::Instance::with_data(
        &schema,
        [
            ("f1", vec![toorjah::catalog::tuple!["x1"]]),
            ("f2", vec![toorjah::catalog::tuple!["x2"]]),
        ],
    )
    .unwrap();
    let make = |first_k: Option<usize>| {
        let mut builder = Toorjah::builder(InstanceSource::new(schema.clone(), db.clone()));
        if let Some(k) = first_k {
            builder = builder.first_k(k);
        }
        builder.build()
    };
    let union = "q(X) <- f1(X); q(X) <- f2(X)";
    let full = make(None).ask(union).unwrap();
    assert_eq!(full.answers.len(), 2);
    assert_eq!(full.profile.accesses_performed, 2);
    let capped = make(Some(1)).ask(union).unwrap();
    assert_eq!(capped.answers.len(), 1);
    assert_eq!(capped.answers[0], full.answers[0], "the first answer");
    assert_eq!(
        capped.profile.accesses_performed, 1,
        "the second disjunct never runs"
    );
}

#[test]
fn first_k_caps_negated_statements_after_the_checks() {
    let schema = sparse_schema();
    let db = sparse_instance(&schema, &SparseConfig::default());
    let negated = "q(V, W) <- gen(K), probe(K, V), audit(K, W), !probe(K, 'v0')";
    let full = Toorjah::new(InstanceSource::new(schema.clone(), db.clone()))
        .ask(negated)
        .unwrap();
    let capped = Toorjah::builder(InstanceSource::new(schema.clone(), db.clone()))
        .first_k(1)
        .build()
        .ask(negated)
        .unwrap();
    assert_eq!(capped.answers.len(), 1.min(full.answers.len()));
    if let Some(first) = capped.answers.first() {
        assert!(full.answers.contains(first), "a certain answer");
    }
}

#[test]
fn streaming_prunes_exactly_like_sequential() {
    let system = sparse_system(true);
    let sequential = system
        .ask_with(sparse_query(), ExecMode::Sequential)
        .unwrap();
    let streamed = system
        .ask_with(sparse_query(), ExecMode::Streaming)
        .unwrap();
    assert!(sequential.profile.dispatch.accesses_pruned > 0);
    assert_eq!(streamed.answers, sequential.answers);
    assert_eq!(
        streamed.profile.dispatch.accesses_pruned,
        sequential.profile.dispatch.accesses_pruned
    );
    assert_eq!(
        streamed.profile.accesses_performed,
        sequential.profile.accesses_performed
    );
}
