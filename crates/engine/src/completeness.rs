//! Answer completeness and stability ([Li, VLDB J. 2003], discussed in
//! §VI).
//!
//! Under access limitations a plan computes the *obtainable* answers, which
//! may be a strict subset of the *complete* answer (the one computable with
//! no limitations — Example 2's `⟨b3⟩` is a complete-answer tuple that is
//! not obtainable). A query is **stable** when the two coincide on every
//! instance.
//!
//! This module provides:
//!
//! * [`complete_answer`]: the oracle — evaluates the query over full scans
//!   (only possible for providers that expose them, e.g. in-memory
//!   instances);
//! * [`check_completeness`]: executes the optimized plan and compares the
//!   obtainable answers against the oracle on the given instance;
//! * a *static sufficient condition* for stability: if the (minimized)
//!   query is **feasible** — an equivalent left-to-right executable
//!   ordering exists ([`toorjah_core::is_feasible`]) — then the obtainable
//!   answer is complete on every instance: bindings flowing left to right
//!   restrict each atom exactly to the tuples that can join, so nothing
//!   contributing to the answer is missed.

use toorjah_catalog::{Schema, Tuple};
use toorjah_core::{is_feasible, plan_query, CoreError};
use toorjah_query::ConjunctiveQuery;

use crate::{evaluate_cq, execute_plan, EngineError, ExecOptions, SourceProvider};

/// The complete answer to `query`, ignoring access limitations. `None` when
/// the provider cannot serve full scans (remote sources).
pub fn complete_answer(
    query: &ConjunctiveQuery,
    provider: &dyn SourceProvider,
) -> Option<Vec<Tuple>> {
    let mut extensions = Vec::with_capacity(query.atoms().len());
    for atom in query.atoms() {
        extensions.push(provider.full_scan(atom.relation())?);
    }
    let extensions: Vec<&[Tuple]> = extensions.iter().map(Vec::as_slice).collect();
    Some(evaluate_cq(query, &extensions))
}

/// Outcome of a completeness check on one instance.
#[derive(Clone, Debug)]
pub struct CompletenessReport {
    /// The obtainable answers (via the optimized plan).
    pub obtainable: Vec<Tuple>,
    /// The complete answer, when the provider supports full scans.
    pub complete: Option<Vec<Tuple>>,
    /// `Some(true)` when obtainable == complete on this instance.
    pub is_complete_here: Option<bool>,
    /// The static sufficient condition: feasible queries are stable (their
    /// obtainable answer is complete on *every* instance).
    pub statically_stable: bool,
}

/// Plans and executes `query`, then compares the obtainable answers against
/// the complete answer (when available) and reports the static stability
/// condition.
pub fn check_completeness(
    query: &ConjunctiveQuery,
    schema: &Schema,
    provider: &dyn SourceProvider,
    options: ExecOptions,
) -> Result<CompletenessReport, CompletenessError> {
    let statically_stable = is_feasible(query, schema);
    let planned = plan_query(query, schema).map_err(CompletenessError::Planning)?;
    let report =
        execute_plan(&planned.plan, provider, options).map_err(CompletenessError::Execution)?;
    let complete = complete_answer(query, provider);
    let is_complete_here = complete.as_ref().map(|c| {
        let mut a = report.answers.clone();
        let mut b = c.clone();
        a.sort();
        b.sort();
        a == b
    });
    Ok(CompletenessReport {
        obtainable: report.answers,
        complete,
        is_complete_here,
        statically_stable,
    })
}

/// Errors from [`check_completeness`].
#[derive(Clone, Debug)]
pub enum CompletenessError {
    /// Planning failed (e.g. the query is not answerable; the obtainable
    /// answer is then empty, but the complete answer may not be).
    Planning(CoreError),
    /// Plan execution failed.
    Execution(EngineError),
}

impl std::fmt::Display for CompletenessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompletenessError::Planning(e) => write!(f, "planning error: {e}"),
            CompletenessError::Execution(e) => write!(f, "execution error: {e}"),
        }
    }
}

impl std::error::Error for CompletenessError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InstanceSource;
    use toorjah_catalog::{tuple, Instance};
    use toorjah_query::parse_query;

    /// Example 2: ⟨b3⟩ is complete-but-not-obtainable.
    #[test]
    fn example2_is_incomplete() {
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
        let src = InstanceSource::new(schema.clone(), db);
        let q = parse_query("q1(B) <- r1('a1', C), r2(B, C)", &schema).unwrap();
        let report = check_completeness(&q, &schema, &src, ExecOptions::default()).unwrap();
        assert_eq!(report.obtainable, vec![tuple!["b1"]]);
        let complete = report.complete.unwrap();
        assert_eq!(complete.len(), 2); // b1 and b3
        assert!(complete.contains(&tuple!["b3"]));
        assert_eq!(report.is_complete_here, Some(false));
        assert!(!report.statically_stable);
    }

    #[test]
    fn free_relations_are_stable() {
        let schema = Schema::parse("r^oo(A, B) s^oo(B, C)").unwrap();
        let db = Instance::with_data(
            &schema,
            [
                ("r", vec![tuple!["a", "b"]]),
                ("s", vec![tuple!["b", "c"], tuple!["zz", "c2"]]),
            ],
        )
        .unwrap();
        let src = InstanceSource::new(schema.clone(), db);
        let q = parse_query("q(X, Z) <- r(X, Y), s(Y, Z)", &schema).unwrap();
        let report = check_completeness(&q, &schema, &src, ExecOptions::default()).unwrap();
        assert!(report.statically_stable);
        assert_eq!(report.is_complete_here, Some(true));
    }

    #[test]
    fn orderable_chain_is_stable_and_complete() {
        // r binds B, then s consumes it: executable left to right.
        let schema = Schema::parse("r^oo(A, B) s^io(B, C)").unwrap();
        let db = Instance::with_data(
            &schema,
            [
                ("r", vec![tuple!["a1", "b1"], tuple!["a2", "b2"]]),
                ("s", vec![tuple!["b1", "c1"], tuple!["b9", "c9"]]),
            ],
        )
        .unwrap();
        let src = InstanceSource::new(schema.clone(), db);
        let q = parse_query("q(X, Z) <- r(X, Y), s(Y, Z)", &schema).unwrap();
        let report = check_completeness(&q, &schema, &src, ExecOptions::default()).unwrap();
        assert!(report.statically_stable);
        assert_eq!(report.is_complete_here, Some(true));
        assert_eq!(report.obtainable, vec![tuple!["a1", "c1"]]);
    }

    #[test]
    fn static_condition_is_sound_on_random_instances() {
        // For a feasible query, obtainable == complete on arbitrary data.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let schema = Schema::parse("r^oo(A, B) s^io(B, C)").unwrap();
        let q = parse_query("q(X, Z) <- r(X, Y), s(Y, Z)", &schema).unwrap();
        assert!(is_feasible(&q, &schema));
        for seed in 0..25 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut db = Instance::new(&schema);
            for _ in 0..rng.gen_range(0..25) {
                let _ = db.insert(
                    "r",
                    tuple![
                        format!("a{}", rng.gen_range(0..5)),
                        format!("b{}", rng.gen_range(0..5))
                    ],
                );
                let _ = db.insert(
                    "s",
                    tuple![
                        format!("b{}", rng.gen_range(0..5)),
                        format!("c{}", rng.gen_range(0..5))
                    ],
                );
            }
            let src = InstanceSource::new(schema.clone(), db);
            let report = check_completeness(&q, &schema, &src, ExecOptions::default()).unwrap();
            assert_eq!(report.is_complete_here, Some(true), "seed {seed}");
        }
    }

    #[test]
    fn complete_answer_unavailable_without_full_scans() {
        struct Opaque(InstanceSource);
        impl SourceProvider for Opaque {
            fn schema(&self) -> &Schema {
                self.0.schema()
            }
            fn access(
                &self,
                relation: toorjah_catalog::RelationId,
                binding: &Tuple,
            ) -> Result<Vec<Tuple>, EngineError> {
                self.0.access(relation, binding)
            }
            // full_scan: default None — a genuinely remote source.
        }
        let schema = Schema::parse("r^oo(A, B)").unwrap();
        let db = Instance::with_data(&schema, [("r", vec![tuple!["a", "b"]])]).unwrap();
        let src = Opaque(InstanceSource::new(schema.clone(), db));
        let q = parse_query("q(X) <- r(X, Y)", &schema).unwrap();
        let report = check_completeness(&q, &schema, &src, ExecOptions::default()).unwrap();
        assert!(report.complete.is_none());
        assert_eq!(report.is_complete_here, None);
        assert_eq!(report.obtainable, vec![tuple!["a"]]);
    }
}
