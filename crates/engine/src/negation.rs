//! Execution of conjunctive queries with safe negation (the §VII / [18]
//! extension).
//!
//! Strategy:
//!
//! 1. plan and execute the **positive part** with an *extended head* that
//!    additionally exposes every variable the negated atoms mention, so
//!    each answer comes with a full enough assignment;
//! 2. for each negated atom `¬r(t̄)` in turn, *collect* the frontier of
//!    access bindings `θ(t̄|inputs)` of every surviving candidate `θ` and
//!    hand it to one round of the evaluation kernel (`crate::kernel`),
//!    which dispatches it through the shared cache (repeated checks are
//!    free, identical checks of different candidates are loaded once);
//!    a candidate is rejected iff some returned tuple matches `θ(t̄)` on
//!    every position, and rejected candidates never reach the next atom —
//!    so the access *set* equals the one-candidate-at-a-time strategy's,
//!    only batched per level. Every check access is *needed* (it decides
//!    its candidates exactly), so the kernel's relevance filter has
//!    nothing to drop here and stays off;
//! 3. project the survivors onto the original head.
//!
//! Because the access retrieves *all* source tuples with those input
//! values, step 2 decides the negated atom exactly (not merely "absent
//! from the extracted data"), so the computed answers are certain.

use std::collections::{HashMap, HashSet};

use toorjah_cache::SharedAccessCache;
use toorjah_catalog::{AccessKey, RelationId, Schema, Tuple};
use toorjah_core::{CoreError, Planned, Planner};
use toorjah_query::{Atom, ConjunctiveQuery, NegatedQuery, Term, VarId};

use crate::kernel::Kernel;
use crate::{
    execute_plan_cached, AccessLog, AccessStats, DispatchReport, EngineError, ExecOptions,
    SourceProvider,
};

/// Result of executing a negated query.
#[derive(Clone, Debug)]
pub struct NegationReport {
    /// The certain answers of `positive ∧ ¬n1 ∧ … ∧ ¬nk`.
    pub answers: Vec<Tuple>,
    /// Combined access counters (positive plan + negation checks, shared
    /// meta-cache).
    pub stats: AccessStats,
    /// How many candidate assignments the negation checks rejected.
    pub rejected: usize,
    /// Frontier/batch accounting: the positive plan's rounds plus one
    /// frontier per negated atom with surviving candidates.
    pub dispatch: DispatchReport,
}

/// Errors from [`execute_negated`].
#[derive(Clone, Debug)]
pub enum NegationError {
    /// Planning the positive part failed.
    Planning(CoreError),
    /// Execution failed.
    Execution(EngineError),
    /// Internal invariant violated while rewriting the head.
    Internal(String),
}

impl std::fmt::Display for NegationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NegationError::Planning(e) => write!(f, "planning error: {e}"),
            NegationError::Execution(e) => write!(f, "execution error: {e}"),
            NegationError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for NegationError {}

/// A negated query planned once and executable many times: the positive
/// part's plan (with the head extended by every negation variable) plus the
/// validated negated atoms. Produced by [`plan_negated`], consumed by
/// [`execute_negated_plan`] and [`negation_checks`].
#[derive(Clone, Debug)]
pub struct NegatedPlan {
    planned: Planned,
    negated: Vec<Atom>,
    var_slot: HashMap<VarId, usize>,
    original_arity: usize,
    schema: Schema,
}

impl NegatedPlan {
    /// Everything the planner produced for the extended positive part.
    pub fn planned(&self) -> &Planned {
        &self.planned
    }

    /// The negated atoms, in check order.
    pub fn negated(&self) -> &[Atom] {
        &self.negated
    }

    /// The schema the query was planned against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }
}

/// The outcome of the negation-check phase ([`negation_checks`]).
#[derive(Clone, Debug)]
pub struct NegationChecks {
    /// Surviving candidates projected onto the original head, deduplicated
    /// in candidate order.
    pub answers: Vec<Tuple>,
    /// How many candidates a negated atom rejected.
    pub rejected: usize,
}

/// Plans a negated query: the positive part is planned with an *extended
/// head* that additionally exposes every variable the negated atoms
/// mention, so each candidate answer comes with a full enough assignment
/// for the checks. The plan depends only on query and schema — execute it
/// any number of times with [`execute_negated_plan`].
pub fn plan_negated(
    query: &NegatedQuery,
    schema: &Schema,
    planner: &Planner,
) -> Result<NegatedPlan, NegationError> {
    let positive = query.positive();

    // Extended head: original head followed by the negation variables that
    // are not already in it.
    let mut extended_head: Vec<VarId> = positive.head().to_vec();
    for v in query.negation_variables() {
        if !extended_head.contains(&v) {
            extended_head.push(v);
        }
    }
    let extended = ConjunctiveQuery::from_parts(
        schema,
        positive.head_name(),
        extended_head.clone(),
        positive.atoms().to_vec(),
        positive.var_names().to_vec(),
    )
    .map_err(|e| NegationError::Internal(format!("extended head rewrite failed: {e}")))?;

    // Minimization is safe here: negation variables are in the extended
    // head, so CQ minimization preserves every binding the checks need.
    let planned = planner
        .plan(&extended, schema)
        .map_err(NegationError::Planning)?;
    let var_slot = extended_head
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i))
        .collect();
    Ok(NegatedPlan {
        planned,
        negated: query.negated().to_vec(),
        var_slot,
        original_arity: positive.head().len(),
        schema: schema.clone(),
    })
}

/// Executes a negated query against `provider`, returning certain answers.
pub fn execute_negated(
    query: &NegatedQuery,
    schema: &Schema,
    provider: &dyn SourceProvider,
    options: ExecOptions,
) -> Result<NegationReport, NegationError> {
    let plan = plan_negated(query, schema, &Planner::default())?;
    execute_negated_plan(&plan, provider, options, None, &mut AccessLog::new())
}

/// Executes an already planned negated query ([`plan_negated`]): the
/// positive plan runs through the fast-failing executor, then
/// [`negation_checks`] decides every negated atom exactly. All accesses are
/// accounted in `log`, and shared through the session `cache` when given.
pub fn execute_negated_plan(
    plan: &NegatedPlan,
    provider: &dyn SourceProvider,
    options: ExecOptions,
    cache: Option<&SharedAccessCache>,
    log: &mut AccessLog,
) -> Result<NegationReport, NegationError> {
    // The positive part must surface every candidate — first-k applies
    // only to the certain answers after the checks.
    let mut positive_options = options;
    positive_options.first_k = None;
    let report = execute_plan_cached(&plan.planned.plan, provider, positive_options, cache, log)
        .map_err(NegationError::Execution)?;
    let mut dispatch = report.dispatch.clone();
    let checks = negation_checks(
        plan,
        &report.answers,
        provider,
        options,
        cache,
        log,
        &mut dispatch,
    )?;
    let mut answers = checks.answers;
    if let Some(k) = options.first_k {
        answers.truncate(k);
    }
    Ok(NegationReport {
        answers,
        stats: log.stats(),
        rejected: checks.rejected,
        dispatch,
    })
}

/// The negation-check phase, one frontier per negated atom: every surviving
/// candidate's binding is collected and dispatched as one batch, then the
/// witnessed candidates are rejected before the next atom — the accesses
/// performed are exactly those of the candidate-at-a-time strategy (a
/// candidate reaches atom j iff atoms before j produced no witness for it),
/// only batched. `candidates` are extended-head tuples as produced by the
/// positive plan of a [`NegatedPlan`] — by any schedule (whole, first-k or
/// streamed): the checks only need the assignments, not the schedule that
/// found them.
#[allow(clippy::too_many_arguments)]
pub fn negation_checks(
    plan: &NegatedPlan,
    candidates: &[Tuple],
    provider: &dyn SourceProvider,
    options: ExecOptions,
    cache: Option<&SharedAccessCache>,
    log: &mut AccessLog,
    dispatch: &mut DispatchReport,
) -> Result<NegationChecks, NegationError> {
    // Resolve negated relations inside the provider's schema by name.
    let mut negated_rels: Vec<RelationId> = Vec::with_capacity(plan.negated.len());
    for atom in &plan.negated {
        let name = plan.schema.relation(atom.relation()).name();
        let id = provider.schema().relation_id(name).ok_or_else(|| {
            NegationError::Execution(EngineError::PlanMismatch(format!(
                "provider lacks negated relation {name}"
            )))
        })?;
        negated_rels.push(id);
    }

    let mut rejected = 0usize;
    let mut survivors: Vec<&Tuple> = candidates.iter().collect();
    let mut kernel = Kernel::new(
        cache,
        provider,
        log,
        dispatch,
        options.dispatch,
        options.max_accesses,
        options.obs,
    );
    for (atom, &rel) in plan.negated.iter().zip(&negated_rels) {
        if survivors.is_empty() {
            break;
        }
        let rel_schema = plan.schema.relation(atom.relation());
        // Bind the atom's terms under each surviving candidate.
        let mut bounds: Vec<Vec<toorjah_catalog::Value>> = Vec::with_capacity(survivors.len());
        let mut requests: Vec<AccessKey> = Vec::with_capacity(survivors.len());
        for candidate in &survivors {
            let bound: Vec<toorjah_catalog::Value> = atom
                .terms()
                .iter()
                .map(|t| match t {
                    Term::Const(c) => Ok(*c),
                    Term::Var(v) => plan
                        .var_slot
                        .get(v)
                        .map(|&slot| candidate[slot])
                        .ok_or_else(|| {
                            NegationError::Internal("unbound negation variable".to_string())
                        }),
                })
                .collect::<Result<_, _>>()?;
            requests.push((rel, rel_schema.pattern().binding_of(&bound)));
            bounds.push(bound);
        }
        let extractions = kernel
            .round(&requests, None)
            .map_err(NegationError::Execution)?;
        let mut next = Vec::with_capacity(survivors.len());
        for ((candidate, bound), extraction) in survivors.into_iter().zip(&bounds).zip(&extractions)
        {
            let witness = extraction.iter().any(|t| t.values() == bound.as_slice());
            if witness {
                rejected += 1;
            } else {
                next.push(candidate);
            }
        }
        survivors = next;
    }

    let mut answers = Vec::new();
    let mut seen: HashSet<Tuple> = HashSet::new();
    for candidate in survivors {
        let answer: Tuple = (0..plan.original_arity).map(|i| candidate[i]).collect();
        if seen.insert(answer.clone()) {
            answers.push(answer);
        }
    }

    Ok(NegationChecks { answers, rejected })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InstanceSource;
    use toorjah_catalog::{tuple, Instance};
    use toorjah_query::{parse_query, Atom};

    fn setup() -> (Schema, InstanceSource) {
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
        (schema.clone(), InstanceSource::new(schema, db))
    }

    fn negated_atom(schema: &Schema, q: &ConjunctiveQuery, rel: &str, vars: &[&str]) -> Atom {
        let id = schema.relation_id(rel).unwrap();
        let terms = vars
            .iter()
            .map(|name| {
                let v = q.var_names().iter().position(|n| n == name).unwrap();
                Term::Var(VarId(v as u32))
            })
            .collect();
        Atom::new(id, terms)
    }

    #[test]
    fn negation_filters_witnessed_candidates() {
        let (schema, src) = setup();
        let q = parse_query("q(P) <- works(P, C)", &schema).unwrap();
        let neg = negated_atom(&schema, &q, "banned", &["P", "C"]);
        let nq = NegatedQuery::new(q, vec![neg], &schema).unwrap();
        let report = execute_negated(&nq, &schema, &src, ExecOptions::default()).unwrap();
        let mut answers = report.answers.clone();
        answers.sort();
        // bob is banned in milan (rejected); cal is banned in *paris* only,
        // so cal in rome survives; ann survives.
        assert_eq!(answers, vec![tuple!["ann"], tuple!["cal"]]);
        assert_eq!(report.rejected, 1);
    }

    #[test]
    fn negation_accesses_are_counted_and_deduplicated() {
        let (schema, src) = setup();
        let q = parse_query("q(P) <- works(P, C)", &schema).unwrap();
        let neg = negated_atom(&schema, &q, "banned", &["P", "C"]);
        let nq = NegatedQuery::new(q, vec![neg], &schema).unwrap();
        let report = execute_negated(&nq, &schema, &src, ExecOptions::default()).unwrap();
        let banned = schema.relation_id("banned").unwrap();
        // One access per distinct Person bound in a candidate: ann, bob, cal.
        assert_eq!(report.stats.accesses_to(banned), 3);
    }

    #[test]
    fn no_negated_atoms_is_plain_execution() {
        let (schema, src) = setup();
        let q = parse_query("q(P) <- works(P, C)", &schema).unwrap();
        let nq = NegatedQuery::new(q.clone(), vec![], &schema).unwrap();
        let report = execute_negated(&nq, &schema, &src, ExecOptions::default()).unwrap();
        assert_eq!(report.answers.len(), 3);
        assert_eq!(report.rejected, 0);
    }

    #[test]
    fn constant_in_negated_atom() {
        let (schema, src) = setup();
        let q = parse_query("q(P) <- works(P, C)", &schema).unwrap();
        // ¬banned(P, 'milan'): only bob/milan is a witness, and only when P
        // binds to bob.
        let banned = schema.relation_id("banned").unwrap();
        let p = q.var_names().iter().position(|n| n == "P").unwrap();
        let neg = Atom::new(
            banned,
            vec![Term::Var(VarId(p as u32)), Term::Const("milan".into())],
        );
        let nq = NegatedQuery::new(q, vec![neg], &schema).unwrap();
        let report = execute_negated(&nq, &schema, &src, ExecOptions::default()).unwrap();
        let mut answers = report.answers.clone();
        answers.sort();
        assert_eq!(answers, vec![tuple!["ann"], tuple!["cal"]]);
    }

    #[test]
    fn planned_once_executes_many_times() {
        let (schema, src) = setup();
        let q = parse_query("q(P) <- works(P, C)", &schema).unwrap();
        let neg = negated_atom(&schema, &q, "banned", &["P", "C"]);
        let nq = NegatedQuery::new(q, vec![neg], &schema).unwrap();
        let reference = execute_negated(&nq, &schema, &src, ExecOptions::default()).unwrap();

        let plan = plan_negated(&nq, &schema, &Planner::default()).unwrap();
        for _ in 0..3 {
            let cache = SharedAccessCache::unbounded();
            let mut log = AccessLog::new();
            let report =
                execute_negated_plan(&plan, &src, ExecOptions::default(), Some(&cache), &mut log)
                    .unwrap();
            assert_eq!(report.answers, reference.answers);
            assert_eq!(report.stats, reference.stats);
            assert_eq!(report.rejected, reference.rejected);
        }
    }

    #[test]
    fn negation_against_oracle() {
        // Cross-check against a full-scan anti-join for several instances.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..20 {
            let schema = Schema::parse("works^oo(Person, City) banned^io(Person, City)").unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut db = Instance::new(&schema);
            for _ in 0..rng.gen_range(0..20) {
                let p = format!("p{}", rng.gen_range(0..5));
                let c = format!("c{}", rng.gen_range(0..4));
                let _ = db.insert("works", tuple![p, c]);
            }
            for _ in 0..rng.gen_range(0..15) {
                let p = format!("p{}", rng.gen_range(0..5));
                let c = format!("c{}", rng.gen_range(0..4));
                let _ = db.insert("banned", tuple![p, c]);
            }
            let src = InstanceSource::new(schema.clone(), db);
            let q = parse_query("q(P, C) <- works(P, C)", &schema).unwrap();
            let neg = negated_atom(&schema, &q, "banned", &["P", "C"]);
            let nq = NegatedQuery::new(q, vec![neg], &schema).unwrap();
            let report = execute_negated(&nq, &schema, &src, ExecOptions::default()).unwrap();
            // Oracle: full anti-join.
            let works = schema.relation_id("works").unwrap();
            let banned = schema.relation_id("banned").unwrap();
            let banned_set: HashSet<Tuple> = src
                .instance()
                .full_extension(banned)
                .iter()
                .cloned()
                .collect();
            let mut oracle: Vec<Tuple> = src
                .instance()
                .full_extension(works)
                .iter()
                .filter(|t| !banned_set.contains(*t))
                .cloned()
                .collect();
            oracle.sort();
            let mut got = report.answers.clone();
            got.sort();
            assert_eq!(got, oracle, "seed {seed}");
        }
    }
}
