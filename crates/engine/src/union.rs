//! Union-of-conjunctive-queries execution (§II UCQs; the §VII extension).
//!
//! A UCQ is answered by executing one ⊂-minimal plan per disjunct — each an
//! evaluation-kernel run of the fast-failing executor, so runtime relevance
//! pruning ([`ExecOptions::prune_level`]) applies per disjunct. The disjuncts
//! **share the access log**, the meta-cache, so an access performed for one
//! disjunct is free for every other — the natural generalization of the
//! paper's "never repeat an access" discipline.
//!
//! With [`ExecOptions::first_k`], execution stops *between* disjuncts once
//! `k` distinct union answers are certain (a disjunct's answers are final —
//! the union is monotone in its disjuncts); only the first disjunct may
//! additionally terminate early *within* its run, since deduplication
//! against earlier disjuncts cannot shrink its contribution.

use std::collections::HashSet;

use toorjah_cache::SharedAccessCache;
use toorjah_catalog::Tuple;
use toorjah_core::QueryPlan;

use crate::{
    execute_plan_cached, execute_plan_streamed, AccessLog, AccessStats, AnswerEmitter,
    DispatchReport, EngineError, ExecOptions, ExecutionReport, SourceProvider,
};

/// Result of executing a union of plans.
#[derive(Clone, Debug)]
pub struct UnionReport {
    /// Distinct answers across all disjuncts, in production order.
    pub answers: Vec<Tuple>,
    /// Combined access counters (shared across disjuncts).
    pub stats: AccessStats,
    /// Per-disjunct reports (their `stats` fields are snapshots of the
    /// shared log *after* the disjunct ran).
    pub per_disjunct: Vec<ExecutionReport>,
    /// Frontier/batch accounting folded across all disjuncts, in execution
    /// order (disjuncts share the cache, so a later disjunct's frontiers
    /// are often fully cache-served).
    pub dispatch: DispatchReport,
}

/// Executes the plans of a UCQ's disjuncts with a shared meta-cache.
///
/// All plans must share one head arity (guaranteed when they come from a
/// validated [`toorjah_query::UnionQuery`]).
pub fn execute_union(
    plans: &[&QueryPlan],
    provider: &dyn SourceProvider,
    options: ExecOptions,
) -> Result<UnionReport, EngineError> {
    execute_union_cached(plans, provider, options, None, &mut AccessLog::new())
}

/// [`execute_union`] with a caller-provided access log and an optional
/// session [`SharedAccessCache`]: disjuncts share the log — the meta-cache
/// — with each other, and the session cache with any other query executed
/// over the same handle — the cross-query generalization of the meta-cache
/// discipline.
pub fn execute_union_cached(
    plans: &[&QueryPlan],
    provider: &dyn SourceProvider,
    options: ExecOptions,
    cache: Option<&SharedAccessCache>,
    log: &mut AccessLog,
) -> Result<UnionReport, EngineError> {
    run_union(plans, provider, options, cache, log, None)
}

/// [`execute_union_cached`] streaming its answers through one emitter
/// shared by every disjunct (see [`crate::execute_plan_streamed`]), so an
/// answer a later disjunct derives again is not emitted twice.
pub fn execute_union_streamed(
    plans: &[&QueryPlan],
    provider: &dyn SourceProvider,
    options: ExecOptions,
    cache: Option<&SharedAccessCache>,
    log: &mut AccessLog,
    emitter: &mut AnswerEmitter<'_>,
) -> Result<UnionReport, EngineError> {
    run_union(plans, provider, options, cache, log, Some(emitter))
}

fn run_union(
    plans: &[&QueryPlan],
    provider: &dyn SourceProvider,
    options: ExecOptions,
    cache: Option<&SharedAccessCache>,
    log: &mut AccessLog,
    mut emitter: Option<&mut AnswerEmitter<'_>>,
) -> Result<UnionReport, EngineError> {
    let mut answers = Vec::new();
    let mut seen: HashSet<Tuple> = HashSet::new();
    let mut per_disjunct = Vec::with_capacity(plans.len());
    let mut dispatch = DispatchReport::default();
    for (i, plan) in plans.iter().enumerate() {
        // In-run first-k is sound only for the first disjunct: later
        // disjuncts' answers may deduplicate against earlier ones, so they
        // must run to completion and the union stops between disjuncts.
        let mut disjunct_options = options;
        if i > 0 {
            disjunct_options.first_k = None;
        }
        let report = match emitter.as_deref_mut() {
            Some(emitter) => {
                execute_plan_streamed(plan, provider, disjunct_options, cache, log, emitter)?
            }
            None => execute_plan_cached(plan, provider, disjunct_options, cache, log)?,
        };
        for t in &report.answers {
            if seen.insert(t.clone()) {
                answers.push(t.clone());
            }
        }
        dispatch.merge(&report.dispatch);
        per_disjunct.push(report);
        if let Some(k) = options.first_k {
            if answers.len() >= k {
                answers.truncate(k);
                break;
            }
        }
    }
    Ok(UnionReport {
        answers,
        stats: log.stats(),
        per_disjunct,
        dispatch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{execute_plan, InstanceSource};
    use toorjah_catalog::{tuple, Instance, Schema};
    use toorjah_core::plan_query;
    use toorjah_query::parse_query;

    fn setup() -> (Schema, InstanceSource) {
        let schema = Schema::parse("r^io(A, B) s^io(A, B) f^o(A)").unwrap();
        let db = Instance::with_data(
            &schema,
            [
                ("r", vec![tuple!["a", "rb"], tuple!["c", "shared"]]),
                ("s", vec![tuple!["a", "sb"], tuple!["c", "shared"]]),
                ("f", vec![tuple!["a"], tuple!["c"]]),
            ],
        )
        .unwrap();
        (schema.clone(), InstanceSource::new(schema, db))
    }

    #[test]
    fn union_answers_are_the_union() {
        let (schema, src) = setup();
        let q1 = parse_query("q(B) <- f(X), r(X, B)", &schema).unwrap();
        let q2 = parse_query("q(B) <- f(X), s(X, B)", &schema).unwrap();
        let p1 = plan_query(&q1, &schema).unwrap();
        let p2 = plan_query(&q2, &schema).unwrap();
        let report = execute_union(&[&p1.plan, &p2.plan], &src, ExecOptions::default()).unwrap();
        let mut answers = report.answers.clone();
        answers.sort();
        assert_eq!(answers, vec![tuple!["rb"], tuple!["sb"], tuple!["shared"]]);
    }

    #[test]
    fn shared_meta_cache_dedups_across_disjuncts() {
        let (schema, src) = setup();
        // Both disjuncts access f (and therefore share its single access).
        let q1 = parse_query("q(B) <- f(X), r(X, B)", &schema).unwrap();
        let q2 = parse_query("q(B) <- f(X), s(X, B)", &schema).unwrap();
        let p1 = plan_query(&q1, &schema).unwrap();
        let p2 = plan_query(&q2, &schema).unwrap();
        let union = execute_union(&[&p1.plan, &p2.plan], &src, ExecOptions::default()).unwrap();
        let solo1 = execute_plan(&p1.plan, &src, ExecOptions::default()).unwrap();
        let solo2 = execute_plan(&p2.plan, &src, ExecOptions::default()).unwrap();
        let f = schema.relation_id("f").unwrap();
        assert_eq!(solo1.stats.accesses_to(f), 1);
        assert_eq!(solo2.stats.accesses_to(f), 1);
        // Shared: one access to f total, not two.
        assert_eq!(union.stats.accesses_to(f), 1);
        assert!(
            union.stats.total_accesses < solo1.stats.total_accesses + solo2.stats.total_accesses
        );
    }

    #[test]
    fn single_disjunct_matches_plain_execution() {
        let (schema, src) = setup();
        let q = parse_query("q(B) <- f(X), r(X, B)", &schema).unwrap();
        let p = plan_query(&q, &schema).unwrap();
        let union = execute_union(&[&p.plan], &src, ExecOptions::default()).unwrap();
        let solo = execute_plan(&p.plan, &src, ExecOptions::default()).unwrap();
        let mut a = union.answers.clone();
        let mut b = solo.answers;
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(union.stats.total_accesses, solo.stats.total_accesses);
        assert_eq!(union.per_disjunct.len(), 1);
    }

    #[test]
    fn empty_plan_list() {
        let (_, src) = setup();
        let report = execute_union(&[], &src, ExecOptions::default()).unwrap();
        assert!(report.answers.is_empty());
        assert_eq!(report.stats.total_accesses, 0);
    }
}
