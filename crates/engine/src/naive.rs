//! The naive evaluation algorithm (Fig. 1 of the paper, after
//! [Li & Chang, ICDE 2000]), as a strategy over the evaluation kernel.
//!
//! ```text
//! 1) Initialize B with the set of constants in the query
//! 2) while accesses can be made with new values
//!    a) Access all possible relations, according to their access patterns,
//!       using values in B
//!    b) Put the obtained tuples in the cache
//!    c) Put the obtained constants in B
//! 3) Evaluate the query over the cache
//! ```
//!
//! The binding set `B` is partitioned by abstract domain (a value extracted
//! from a `Year` position never binds a `Person` input). The algorithm
//! accesses *every* relation of the schema — including relations irrelevant
//! to the query — with *every* domain-compatible combination of known
//! values, which is exactly the waste §III's relevance pruning eliminates.
//!
//! The loop mechanics live in [`crate::kernel`]: step 2 is the kernel's
//! fixpoint driver, each relation's fresh bindings per round come from the
//! shared pivot decomposition ([`crate::kernel::fresh_bindings`], so every
//! binding is generated exactly once across the run and the algorithm
//! terminates — the value universe is bounded by the instance), and every
//! frontier is dispatched through a kernel round (accesses deduplicated;
//! the metric is a set, §IV). What this module owns is the strategy: the
//! per-domain binding pools and the all-relations access policy. The
//! kernel's *relevance filter* stays off here by design — this evaluator
//! exists to measure the unpruned baseline.

use std::collections::{HashMap, HashSet};

use toorjah_catalog::{AccessKey, DomainId, Schema, Tuple, Value};
use toorjah_obs::Obs;
use toorjah_query::ConjunctiveQuery;

use crate::kernel::{fresh_bindings, Kernel, PoolView};
use crate::{
    evaluate_cq, AccessLog, AccessStats, DispatchOptions, DispatchReport, EngineError,
    SourceProvider, DEFAULT_ACCESS_BUDGET,
};

/// Options for the naive evaluator.
#[derive(Clone, Copy, Debug)]
pub struct NaiveOptions {
    /// Hard cap on the number of (distinct) accesses; exceeded ⇒
    /// [`EngineError::AccessBudgetExceeded`]. Guards against combinatorial
    /// blow-ups on relations with many input positions.
    pub max_accesses: usize,
    /// How each round's access frontier is dispatched (worker threads,
    /// batched round trips). The default is the sequential path.
    pub dispatch: DispatchOptions,
    /// Observability handle threaded into the kernel (disabled by
    /// default), as in [`crate::ExecOptions::obs`].
    pub obs: Obs,
}

impl Default for NaiveOptions {
    fn default() -> Self {
        NaiveOptions {
            max_accesses: DEFAULT_ACCESS_BUDGET,
            dispatch: DispatchOptions::default(),
            obs: Obs::disabled(),
        }
    }
}

/// Result of a naive evaluation.
#[derive(Clone, Debug)]
pub struct NaiveResult {
    /// The distinct answers to the query.
    pub answers: Vec<Tuple>,
    /// Access counters (the "naive" columns of Fig. 6).
    pub stats: AccessStats,
    /// Number of fixpoint rounds.
    pub rounds: usize,
    /// Total distinct values accumulated in the binding set `B`.
    pub binding_values: usize,
    /// Frontier/batch accounting: one frontier per (relation, round) with
    /// fresh bindings.
    pub dispatch: DispatchReport,
}

/// Runs the Fig. 1 algorithm for `query` over the relations served by
/// `provider` (whose schema must be the one the query was parsed against).
///
/// ```
/// use toorjah_catalog::{tuple, Instance, Schema};
/// use toorjah_engine::{naive_evaluate, InstanceSource, NaiveOptions};
/// use toorjah_query::parse_query;
///
/// // Example 2 of the paper.
/// let schema = Schema::parse("r1^io(A, C) r2^io(B, C) r3^io(C, B)").unwrap();
/// let db = Instance::with_data(&schema, [
///     ("r1", vec![tuple!["a1", "c1"], tuple!["a1", "c3"]]),
///     ("r2", vec![tuple!["b1", "c1"], tuple!["b2", "c2"], tuple!["b3", "c3"]]),
///     ("r3", vec![tuple!["c1", "b2"], tuple!["c2", "b1"]]),
/// ]).unwrap();
/// let src = InstanceSource::new(schema.clone(), db);
/// let q = parse_query("q1(B) <- r1('a1', C), r2(B, C)", &schema).unwrap();
///
/// let result = naive_evaluate(&q, &schema, &src, NaiveOptions::default()).unwrap();
/// // ⟨b3⟩ is not obtainable under the access limitations.
/// assert_eq!(result.answers, vec![tuple!["b1"]]);
/// ```
pub fn naive_evaluate(
    query: &ConjunctiveQuery,
    schema: &Schema,
    provider: &dyn SourceProvider,
    options: NaiveOptions,
) -> Result<NaiveResult, EngineError> {
    // B: per-domain value sets, with deterministic iteration order.
    let mut b_vec: HashMap<DomainId, Vec<Value>> = HashMap::new();
    let mut b_set: HashMap<DomainId, HashSet<Value>> = HashMap::new();
    let add_value = |b_vec: &mut HashMap<DomainId, Vec<Value>>,
                     b_set: &mut HashMap<DomainId, HashSet<Value>>,
                     d: DomainId,
                     v: Value| {
        if b_set.entry(d).or_default().insert(v) {
            b_vec.entry(d).or_default().push(v);
        }
    };

    // 1) Seed with the query's constants.
    for (value, domain) in query.constants(schema) {
        add_value(&mut b_vec, &mut b_set, domain, value);
    }

    // Cache: one tuple list per relation (deduplicated).
    let mut cache: Vec<Vec<Tuple>> = vec![Vec::new(); schema.relation_count()];
    let mut cache_seen: Vec<HashSet<Tuple>> = vec![HashSet::new(); schema.relation_count()];

    // The access log is the meta-cache; the frontier bookkeeping below
    // never generates a binding twice, so in practice it serves nothing.
    let mut log = AccessLog::new();
    let mut dispatch_report = DispatchReport::default();

    // Per-relation, per-input-position pool length already enumerated (the
    // semi-naive frontier): a round only enumerates combinations with at
    // least one value that is *new* since the relation's previous round,
    // via the kernel's shared pivot decomposition. Every binding is
    // therefore generated exactly once across the whole run, keeping the
    // fixpoint linear in the number of accesses.
    let mut frontier: Vec<Vec<usize>> = schema
        .iter()
        .map(|(_, rel)| vec![0usize; rel.pattern().input_count()])
        .collect();

    // 2) Fixpoint over accesses, driven by the kernel. Each relation's
    // fresh bindings for the round are *collected* into one frontier and
    // dispatched as a kernel round — the binding set is fully determined by
    // the round's snapshot of B, so collecting before accessing cannot
    // change it, and the extractions are folded back in binding order,
    // keeping the run bit-identical to one-at-a-time dispatch.
    let rounds;
    {
        let mut kernel = Kernel::new(
            None,
            provider,
            &mut log,
            &mut dispatch_report,
            options.dispatch,
            options.max_accesses,
            options.obs,
        );
        rounds = kernel.fixpoint(|kernel, round| {
            let mut new_access = false;
            // Snapshot B as per-domain *lengths*: a round enumerates only
            // the prefix of each pool that existed when the round began
            // (values folded in mid-round belong to the next round), so the
            // snapshot costs O(#domains) instead of cloning every value —
            // per-round overhead stays proportional to the delta, not the
            // accumulated binding set.
            let snapshot: HashMap<DomainId, usize> =
                b_vec.iter().map(|(&d, v)| (d, v.len())).collect();
            let mut requests: Vec<AccessKey> = Vec::new();
            for (rel_id, rel) in schema.iter() {
                let input_domains: Vec<DomainId> = rel
                    .pattern()
                    .input_positions()
                    .map(|k| rel.domain(k))
                    .collect();
                requests.clear();
                if input_domains.is_empty() {
                    // Free relation: a single access, in the first round
                    // only.
                    if round == 1 {
                        requests.push((rel_id, Tuple::empty()));
                    }
                } else {
                    // Scoped borrow of B: the pool slices (truncated to the
                    // snapshot lengths; a domain first seen mid-round has
                    // length 0) are dropped before the fold below mutates B.
                    let pools: Vec<&[Value]> = input_domains
                        .iter()
                        .map(|d| {
                            let len = snapshot.get(d).copied().unwrap_or(0);
                            b_vec.get(d).map_or(&[][..], |v| &v[..len])
                        })
                        .collect();
                    if pools.iter().any(|p| p.is_empty()) {
                        continue; // some input domain has no known values yet
                    }
                    let views: Vec<PoolView> = pools
                        .iter()
                        .zip(&frontier[rel_id.index()])
                        .map(|(values, &old)| PoolView { values, old })
                        .collect();
                    fresh_bindings(rel_id, &views, &mut requests);
                    // The frontier advances to the snapshot sizes just
                    // enumerated.
                    for (p, pool) in pools.iter().enumerate() {
                        frontier[rel_id.index()][p] = pool.len();
                    }
                }
                if requests.is_empty() {
                    continue;
                }
                debug_assert!(
                    requests.iter().all(|(r, b)| !kernel.log.contains(*r, b)),
                    "the semi-naive frontier never repeats a binding"
                );
                let extractions = kernel.round(&requests, None)?;
                new_access = true;
                for tuples in &extractions {
                    for t in tuples.iter() {
                        if cache_seen[rel_id.index()].insert(t.clone()) {
                            for (k, v) in t.values().iter().enumerate() {
                                add_value(&mut b_vec, &mut b_set, rel.domain(k), *v);
                            }
                            cache[rel_id.index()].push(t.clone());
                        }
                    }
                }
            }
            Ok(new_access)
        })?;
    }

    // 3) Evaluate the query over the cache.
    let extensions: Vec<&[Tuple]> = query
        .atoms()
        .iter()
        .map(|atom| cache[atom.relation().index()].as_slice())
        .collect();
    let answers = evaluate_cq(query, &extensions);

    Ok(NaiveResult {
        answers,
        stats: log.stats(),
        rounds,
        binding_values: b_vec.values().map(Vec::len).sum(),
        dispatch: dispatch_report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InstanceSource;
    use toorjah_catalog::{tuple, Instance};
    use toorjah_query::parse_query;

    /// Example 2 of the paper, reproduced exactly.
    fn example2() -> (Schema, InstanceSource) {
        let schema = Schema::parse("r1^io(A, C) r2^io(B, C) r3^io(C, B)").unwrap();
        let db = Instance::with_data(
            &schema,
            [
                ("r1", vec![tuple!["a1", "c1"], tuple!["a1", "c3"]]),
                (
                    "r2",
                    vec![tuple!["b1", "c1"], tuple!["b2", "c2"], tuple!["b3", "c3"]],
                ),
                ("r3", vec![tuple!["c1", "b2"], tuple!["c2", "b1"]]),
            ],
        )
        .unwrap();
        (schema.clone(), InstanceSource::new(schema, db))
    }

    #[test]
    fn example2_obtainable_answer() {
        // q1(B) ← r1(a1, C), r2(B, C): the paper walks the extraction chain
        // a1 → r1 → {c1, c3} → r3 → b2 → r2 → c2 → r3 → b1 → r2 → ⟨b1, c1⟩,
        // giving answer {b1}; ⟨b3⟩ is not obtainable.
        let (schema, src) = example2();
        let q = parse_query("q1(B) <- r1('a1', C), r2(B, C)", &schema).unwrap();
        let result = naive_evaluate(&q, &schema, &src, NaiveOptions::default()).unwrap();
        assert_eq!(result.answers, vec![tuple!["b1"]]);
        // b3 was never extracted from r2.
        let r2 = schema.relation_id("r2").unwrap();
        assert_eq!(result.stats.extracted_from(r2), 2); // ⟨b2,c2⟩ and ⟨b1,c1⟩
    }

    #[test]
    fn accesses_are_deduplicated_and_counted() {
        let (schema, src) = example2();
        let q = parse_query("q1(B) <- r1('a1', C), r2(B, C)", &schema).unwrap();
        let result = naive_evaluate(&q, &schema, &src, NaiveOptions::default()).unwrap();
        // Accesses: r1 with every A-value (only a1): 1. r2 with every
        // B-value (b2, b1 extracted): 2. r3 with every C-value
        // (c1, c3, c2): 3.
        let r1 = schema.relation_id("r1").unwrap();
        let r2 = schema.relation_id("r2").unwrap();
        let r3 = schema.relation_id("r3").unwrap();
        assert_eq!(result.stats.accesses_to(r1), 1);
        assert_eq!(result.stats.accesses_to(r2), 2);
        assert_eq!(result.stats.accesses_to(r3), 3);
        assert_eq!(result.stats.total_accesses, 6);
        assert!(result.rounds >= 3);
    }

    #[test]
    fn free_relations_accessed_once() {
        let schema = Schema::parse("free^oo(A, B)").unwrap();
        let mut db = Instance::new(&schema);
        db.insert("free", tuple!["a", "b"]).unwrap();
        let src = InstanceSource::new(schema.clone(), db);
        let q = parse_query("q(X) <- free(X, Y)", &schema).unwrap();
        let result = naive_evaluate(&q, &schema, &src, NaiveOptions::default()).unwrap();
        assert_eq!(result.stats.total_accesses, 1);
        assert_eq!(result.answers, vec![tuple!["a"]]);
    }

    #[test]
    fn irrelevant_relations_are_accessed_by_naive() {
        // The naive algorithm pays for the irrelevant relation r3
        // (Example 3's point).
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
        let src = InstanceSource::new(schema.clone(), db);
        let q = parse_query("q(C) <- r1('a', B), r2(B, C)", &schema).unwrap();
        let result = naive_evaluate(&q, &schema, &src, NaiveOptions::default()).unwrap();
        let r3 = schema.relation_id("r3").unwrap();
        assert!(result.stats.accesses_to(r3) > 0);
        assert_eq!(result.answers, vec![tuple!["c1"]]);
    }

    #[test]
    fn budget_is_enforced() {
        let (schema, src) = example2();
        let q = parse_query("q1(B) <- r1('a1', C), r2(B, C)", &schema).unwrap();
        let err = naive_evaluate(
            &q,
            &schema,
            &src,
            NaiveOptions {
                max_accesses: 2,
                ..NaiveOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            EngineError::AccessBudgetExceeded { limit: 2 }
        ));
    }

    #[test]
    fn no_constants_and_no_free_relations_means_no_accesses() {
        let schema = Schema::parse("r^io(A, B)").unwrap();
        let mut db = Instance::new(&schema);
        db.insert("r", tuple!["a", "b"]).unwrap();
        let src = InstanceSource::new(schema.clone(), db);
        let q = parse_query("q(Y) <- r(X, Y)", &schema).unwrap();
        let result = naive_evaluate(&q, &schema, &src, NaiveOptions::default()).unwrap();
        assert_eq!(result.stats.total_accesses, 0);
        assert!(result.answers.is_empty());
    }

    #[test]
    fn multi_input_relations_get_cartesian_bindings() {
        let schema = Schema::parse("pair^iio(A, B, C) fa^o(A) fb^o(B)").unwrap();
        let db = Instance::with_data(
            &schema,
            [
                ("pair", vec![tuple!["a1", "b1", "c1"]]),
                ("fa", vec![tuple!["a1"], tuple!["a2"]]),
                ("fb", vec![tuple!["b1"], tuple!["b2"], tuple!["b3"]]),
            ],
        )
        .unwrap();
        let src = InstanceSource::new(schema.clone(), db);
        let q = parse_query("q(C) <- pair(X, Y, C)", &schema).unwrap();
        let result = naive_evaluate(&q, &schema, &src, NaiveOptions::default()).unwrap();
        let pair = schema.relation_id("pair").unwrap();
        // 2 × 3 combinations.
        assert_eq!(result.stats.accesses_to(pair), 6);
        assert_eq!(result.answers, vec![tuple!["c1"]]);
    }

    #[test]
    fn nullary_free_relation() {
        let schema = Schema::parse("flag^() r^oo(A, B)").unwrap();
        let db = Instance::with_data(
            &schema,
            [
                ("flag", vec![Tuple::empty()]),
                ("r", vec![tuple!["a", "b"]]),
            ],
        )
        .unwrap();
        let src = InstanceSource::new(schema.clone(), db);
        let q = parse_query("q(X) <- r(X, Y), flag()", &schema).unwrap();
        let result = naive_evaluate(&q, &schema, &src, NaiveOptions::default()).unwrap();
        assert_eq!(result.answers, vec![tuple!["a"]]);
        let flag = schema.relation_id("flag").unwrap();
        assert_eq!(result.stats.accesses_to(flag), 1);
    }
}
