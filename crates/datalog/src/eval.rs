//! Bottom-up semi-naive least-fixpoint evaluation.
//!
//! This is the reference semantics for the paper's query plans: §IV states
//! that the fast-failing strategy "is guaranteed to always calculate the same
//! answer as the fixpoint semantics for the Datalog program". The engine's
//! executor is property-tested against this evaluator.
//!
//! Two evaluators share the same round skeleton (initialization round, then
//! one pass per rule per delta pivot until the delta is empty):
//!
//! * [`evaluate`] — the **delta-join** evaluator: every pass enumerates the
//!   pivot literal's *delta first*, then joins the remaining literals (in a
//!   greedy bound-variable order) against the full extents through the
//!   column-index probes of the search kernel ([`Search`]). Per-round work
//!   is proportional to the delta, not the total, and the kernel's shared
//!   bind trail keeps the inner join loop allocation-free.
//! * [`evaluate_full_join`] — the historical evaluator enumerating every
//!   body in literal order from the full extents. It is kept as the oracle
//!   the delta evaluator is property-tested against: answers, rounds,
//!   derived counts, derivation counts and per-round delta sizes are
//!   identical, because a conjunctive body's satisfaction set does not
//!   depend on enumeration order.

use std::collections::HashSet;

use toorjah_catalog::Tuple;
use toorjah_obs::Obs;

use crate::search::instantiate;
use crate::{
    head_instances, satisfiable, DTerm, FactStore, Goal, Literal, PredId, Program, Rule, Search,
};

/// Counters describing one evaluation run.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct EvalStats {
    /// Number of fixpoint rounds (including the initialization round).
    pub rounds: usize,
    /// Number of IDB facts derived.
    pub derived: usize,
    /// Number of rule-body satisfactions considered (including rederivations).
    pub derivations: usize,
    /// Facts newly derived per round, aligned with the rounds (the
    /// initialization round first; the final barren round contributes `0`).
    /// The entries sum to [`EvalStats::derived`], and the semi-naive
    /// invariant holds round by round: the delta is disjoint from the
    /// previous total, and delta ∪ total is closed under the rules applied
    /// so far.
    pub delta_sizes: Vec<usize>,
}

/// Evaluates `program` over the extensional facts in `edb`, returning the
/// derived intensional facts and run statistics.
///
/// The program must be positive (no negation — the AST cannot express it)
/// and range-restricted (validated by [`Program::add_rule`]), so the least
/// fixpoint exists and is finite over a finite EDB.
///
/// ```
/// use toorjah_catalog::tuple;
/// use toorjah_datalog::{evaluate, DTerm, FactStore, Literal, Program, Rule};
///
/// // path(X,Y) ← edge(X,Y);  path(X,Z) ← edge(X,Y), path(Y,Z)
/// let mut p = Program::new();
/// let edge = p.predicate("edge", 2).unwrap();
/// let path = p.predicate("path", 2).unwrap();
/// let v = |i| DTerm::Var(i);
/// p.add_rule(Rule::new(
///     Literal::new(path, vec![v(0), v(1)]),
///     vec![Literal::new(edge, vec![v(0), v(1)])],
///     vec!["X".into(), "Y".into()],
/// )).unwrap();
/// p.add_rule(Rule::new(
///     Literal::new(path, vec![v(0), v(2)]),
///     vec![Literal::new(edge, vec![v(0), v(1)]), Literal::new(path, vec![v(1), v(2)])],
///     vec!["X".into(), "Y".into(), "Z".into()],
/// )).unwrap();
///
/// let mut edb = FactStore::new();
/// edb.extend(edge, [tuple![1, 2], tuple![2, 3]]);
/// let (idb, stats) = evaluate(&p, &edb);
/// assert_eq!(idb.len(path), 3); // (1,2), (2,3), (1,3)
/// assert!(stats.rounds >= 2);
/// assert_eq!(stats.delta_sizes.iter().sum::<usize>(), stats.derived);
/// ```
pub fn evaluate(program: &Program, edb: &FactStore) -> (FactStore, EvalStats) {
    evaluate_with_obs(program, edb, Obs::disabled())
}

/// [`evaluate`] with an observability handle: per-round delta sizes are
/// recorded into the `datalog.delta_facts` histogram (when metrics are on),
/// so delta decay toward the fixpoint is visible next to the kernel's
/// `kernel.delta_size` in a metrics snapshot.
pub fn evaluate_with_obs(program: &Program, edb: &FactStore, obs: Obs) -> (FactStore, EvalStats) {
    let idb_preds = program.idb_predicates();
    let is_idb = |p: PredId| idb_preds.contains(&p);
    let delta_hist = obs.histogram("datalog.delta_facts");

    // Per rule: the IDB body positions (the pivot set) and, per pivot, the
    // delta-join enumeration order starting at the pivot. Computed once —
    // the round loop only walks precomputed orders.
    let rule_plans: Vec<(Vec<usize>, Vec<Vec<usize>>)> = program
        .rules()
        .iter()
        .map(|rule| {
            let idb_positions: Vec<usize> = rule
                .body
                .iter()
                .enumerate()
                .filter(|(_, l)| is_idb(l.pred))
                .map(|(i, _)| i)
                .collect();
            let orders = idb_positions
                .iter()
                .map(|&pivot| pivot_order(rule, pivot))
                .collect();
            (idb_positions, orders)
        })
        .collect();

    let max_vars = program
        .rules()
        .iter()
        .map(|r| r.var_names.len())
        .max()
        .unwrap_or(0);

    // The total store is only ever probed by a bound column when some rule
    // joins the pivot's delta against *another* IDB literal (`Source::Total`
    // arises for non-pivot IDB positions alone). Linear-recursive programs —
    // one IDB literal per body, transitive closure being the canonical case —
    // never probe it, so skip index maintenance on their hot insert path.
    let total_probed = rule_plans
        .iter()
        .any(|(idb_positions, _)| idb_positions.len() >= 2);
    let mut total = if total_probed {
        FactStore::new()
    } else {
        FactStore::unindexed()
    };
    // The delta and pending stores are refilled every round and probed only
    // through verifying search loops, where an unindexed full-extent scan of
    // a small delta beats maintaining per-column posting lists.
    let mut delta = FactStore::unindexed();
    // Initialization counts as the first round: facts and rules whose bodies
    // contain no IDB literal fire exactly once, here.
    let mut stats = EvalStats {
        rounds: 1,
        ..EvalStats::default()
    };
    // Shared scratch: the search state is reused across every pass (a
    // completed run leaves it all-unbound), as are the head-tuple and
    // new-fact buffers and — via [`FactStore::clear`] — the delta store
    // itself.
    let mut search = Search::new(max_vars);
    let mut out: Vec<Tuple> = Vec::new();
    let mut new_facts: Vec<(PredId, Tuple)> = Vec::new();
    let mut pending = FactStore::unindexed();

    for (rule, (idb_positions, _)) in program.rules().iter().zip(&rule_plans) {
        if !idb_positions.is_empty() {
            continue;
        }
        let goals: Vec<Goal<'_>> = rule.body.iter().map(|l| goal(l, edb)).collect();
        out.clear();
        search.run(&goals, &mut |binding| {
            stats.derivations += 1;
            out.push(instantiate(&rule.head.terms, binding));
            true
        });
        for t in out.drain(..) {
            if total.insert(rule.head.pred, t.clone()) {
                delta.insert(rule.head.pred, t);
                stats.derived += 1;
            }
        }
    }
    stats.delta_sizes.push(stats.derived);
    if let Some(h) = &delta_hist {
        h.record(stats.derived as u64);
    }

    // Semi-naive rounds: one delta-seeded pass per rule per pivot. The
    // pivot literal ranges over the delta — enumerated *first*, so the
    // remaining literals are joined through index probes on the variables
    // the pivot tuple bound — every other literal over the running total
    // (for IDB) or the EDB. Using the full total for non-pivot IDB literals
    // may rederive facts but never misses a new combination, because any
    // new derivation uses at least one delta tuple.
    while delta.total() > 0 {
        stats.rounds += 1;
        new_facts.clear();
        for (rule, (idb_positions, orders)) in program.rules().iter().zip(&rule_plans) {
            for (k, &pivot) in idb_positions.iter().enumerate() {
                // An empty pivot delta admits no satisfaction: skip the
                // pass without touching the other literals at all.
                if delta.is_empty(rule.body[pivot].pred) {
                    continue;
                }
                let goals: Vec<Goal<'_>> = orders[k]
                    .iter()
                    .map(|&i| {
                        let lit = &rule.body[i];
                        let store = if !is_idb(lit.pred) {
                            edb
                        } else if i == pivot {
                            &delta
                        } else {
                            &total
                        };
                        goal(lit, store)
                    })
                    .collect();
                out.clear();
                search.run(&goals, &mut |binding| {
                    stats.derivations += 1;
                    out.push(instantiate(&rule.head.terms, binding));
                    true
                });
                for t in out.drain(..) {
                    if !total.contains(rule.head.pred, &t) {
                        new_facts.push((rule.head.pred, t));
                    }
                }
            }
        }
        // The new facts become the next delta, deduplicated against the
        // total — preserving the invariant that the delta is disjoint from
        // the previous total while delta ∪ total stays closed.
        std::mem::swap(&mut delta, &mut pending);
        delta.clear();
        let mut added = 0usize;
        for (pred, t) in new_facts.drain(..) {
            if total.insert(pred, t.clone()) {
                delta.insert(pred, t);
                stats.derived += 1;
                added += 1;
            }
        }
        stats.delta_sizes.push(added);
        if let Some(h) = &delta_hist {
            h.record(added as u64);
        }
    }

    (total, stats)
}

/// The delta-join enumeration order for one `(rule, pivot)` pass: the pivot
/// literal first, then greedily the lowest-index remaining literal sharing
/// a variable with the literals already placed (so its probe has a bound
/// column), falling back to the lowest-index remaining literal when the
/// body is variable-disconnected.
fn pivot_order(rule: &Rule, pivot: usize) -> Vec<usize> {
    let n = rule.body.len();
    let vars_of = |i: usize| rule.body[i].terms.iter().filter_map(DTerm::as_var);
    let mut order = Vec::with_capacity(n);
    let mut used = vec![false; n];
    let mut bound: HashSet<u32> = HashSet::new();
    order.push(pivot);
    used[pivot] = true;
    bound.extend(vars_of(pivot));
    while order.len() < n {
        let next = (0..n)
            .find(|&i| !used[i] && vars_of(i).any(|v| bound.contains(&v)))
            .or_else(|| (0..n).find(|&i| !used[i]))
            .expect("unplaced literals remain");
        order.push(next);
        used[next] = true;
        bound.extend(vars_of(next));
    }
    order
}

/// The full-join oracle: the schedule [`evaluate`] replaced, kept as its
/// differential-testing reference. Bodies are enumerated in literal order
/// from the full extents (delta only at the pivot), recomputing the
/// IDB positions per rule and round. Answers and every [`EvalStats`]
/// counter — including per-round delta sizes — match [`evaluate`] exactly;
/// only internal tuple production order differs.
pub fn evaluate_full_join(program: &Program, edb: &FactStore) -> (FactStore, EvalStats) {
    let idb_preds = program.idb_predicates();
    let is_idb = |p: PredId| idb_preds.contains(&p);

    let mut total = FactStore::new();
    let mut delta = FactStore::new();
    let mut stats = EvalStats {
        rounds: 1,
        ..EvalStats::default()
    };
    for rule in program.rules() {
        if rule.body.iter().any(|l| is_idb(l.pred)) {
            continue;
        }
        let mut out = Vec::new();
        apply_rule(
            rule,
            |_| Source::Edb,
            edb,
            &total,
            &delta,
            &mut out,
            &mut stats,
        );
        for t in out {
            if total.insert(rule.head.pred, t.clone()) {
                delta.insert(rule.head.pred, t);
                stats.derived += 1;
            }
        }
    }
    stats.delta_sizes.push(stats.derived);

    while delta.total() > 0 {
        stats.rounds += 1;
        let mut new_facts: Vec<(PredId, Tuple)> = Vec::new();
        for rule in program.rules() {
            let idb_positions: Vec<usize> = rule
                .body
                .iter()
                .enumerate()
                .filter(|(_, l)| is_idb(l.pred))
                .map(|(i, _)| i)
                .collect();
            if idb_positions.is_empty() {
                continue;
            }
            for &pivot in &idb_positions {
                let mut out = Vec::new();
                apply_rule(
                    rule,
                    |i| {
                        if !is_idb(rule.body[i].pred) {
                            Source::Edb
                        } else if i == pivot {
                            Source::Delta
                        } else {
                            Source::Total
                        }
                    },
                    edb,
                    &total,
                    &delta,
                    &mut out,
                    &mut stats,
                );
                for t in out {
                    if !total.contains(rule.head.pred, &t) {
                        new_facts.push((rule.head.pred, t));
                    }
                }
            }
        }
        delta = FactStore::new();
        let mut added = 0usize;
        for (pred, t) in new_facts {
            if total.insert(pred, t.clone()) {
                delta.insert(pred, t);
                stats.derived += 1;
                added += 1;
            }
        }
        stats.delta_sizes.push(added);
    }

    (total, stats)
}

/// Evaluates a single rule once against `facts`, returning its distinct
/// head instances — the plan executor's final answer computation. The body
/// is enumerated in literal order through [`head_instances`]: components
/// binding no head variable reduce to satisfiability checks, so a
/// disconnected guard atom multiplies nothing.
pub fn rule_head_instances(rule: &Rule, facts: &FactStore) -> Vec<Tuple> {
    let goals: Vec<Goal<'_>> = rule.body.iter().map(|l| goal(l, facts)).collect();
    let order: Vec<usize> = (0..goals.len()).collect();
    head_instances(&rule.head.terms, &goals, &order, rule.var_names.len())
}

/// A body literal over `store`'s extent of its predicate.
fn goal<'a>(lit: &'a Literal, store: &'a FactStore) -> Goal<'a> {
    Goal {
        terms: &lit.terms,
        extent: store.extent(lit.pred),
    }
}

/// Evaluates a single rule with body literal `pinned_idx` restricted to the
/// tuples in `pinned` (all other literals range over `facts`). This is the
/// delta step of incremental answer computation: when a cache gains
/// `pinned` new tuples, the new answers are exactly the head instances
/// derivable through them.
pub fn rule_head_instances_pinned(
    rule: &Rule,
    facts: &FactStore,
    pinned_idx: usize,
    pinned: &FactStore,
) -> Vec<Tuple> {
    let source_of = |i| {
        if i == pinned_idx {
            Source::Delta
        } else {
            Source::Edb
        }
    };
    let mut out = Vec::new();
    apply_rule(
        rule,
        source_of,
        facts,
        facts,
        pinned,
        &mut out,
        &mut EvalStats::default(),
    );
    out
}

/// `true` when the conjunction of the body literals selected by `subset`
/// (indexes into `rule.body`) is satisfiable over `facts` — the §IV early
/// non-emptiness test. An empty subset is trivially satisfiable. Stops at
/// the first witness.
///
/// Variable-disconnected parts of the subset are checked independently, so
/// an unsatisfiable component is discovered without iterating the others,
/// and each part searches its bound literals first (see [`satisfiable`]).
pub fn rule_body_satisfiable(rule: &Rule, subset: &[usize], facts: &FactStore) -> bool {
    let goals: Vec<Goal<'_>> = subset.iter().map(|&i| goal(&rule.body[i], facts)).collect();
    satisfiable(&goals, rule.var_names.len())
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Source {
    Edb,
    Total,
    Delta,
}

/// Enumerates all satisfactions of `rule`'s body in literal order and
/// collects the resulting head tuples into `out`. `source_of(i)` selects
/// which store body literal `i` ranges over.
fn apply_rule(
    rule: &Rule,
    source_of: impl Fn(usize) -> Source,
    edb: &FactStore,
    total: &FactStore,
    delta: &FactStore,
    out: &mut Vec<Tuple>,
    stats: &mut EvalStats,
) {
    let goals: Vec<Goal<'_>> = rule
        .body
        .iter()
        .enumerate()
        .map(|(i, lit)| {
            let store = match source_of(i) {
                Source::Edb => edb,
                Source::Total => total,
                Source::Delta => delta,
            };
            goal(lit, store)
        })
        .collect();
    Search::new(rule.var_names.len()).run(&goals, &mut |binding| {
        stats.derivations += 1;
        out.push(instantiate(&rule.head.terms, binding));
        true
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use toorjah_catalog::{tuple, Value};

    fn v(i: u32) -> DTerm {
        DTerm::Var(i)
    }

    fn transitive_closure() -> (Program, PredId, PredId) {
        let mut p = Program::new();
        let edge = p.predicate("edge", 2).unwrap();
        let path = p.predicate("path", 2).unwrap();
        p.add_rule(Rule::new(
            Literal::new(path, vec![v(0), v(1)]),
            vec![Literal::new(edge, vec![v(0), v(1)])],
            vec!["X".into(), "Y".into()],
        ))
        .unwrap();
        p.add_rule(Rule::new(
            Literal::new(path, vec![v(0), v(2)]),
            vec![
                Literal::new(edge, vec![v(0), v(1)]),
                Literal::new(path, vec![v(1), v(2)]),
            ],
            vec!["X".into(), "Y".into(), "Z".into()],
        ))
        .unwrap();
        (p, edge, path)
    }

    #[test]
    fn chain_closure() {
        let (p, edge, path) = transitive_closure();
        let mut edb = FactStore::new();
        edb.extend(edge, (1..5).map(|i| tuple![i, i + 1]));
        let (idb, stats) = evaluate(&p, &edb);
        // 4+3+2+1 = 10 pairs.
        assert_eq!(idb.len(path), 10);
        assert!(idb.contains(path, &tuple![1, 5]));
        assert!(!idb.contains(path, &tuple![5, 1]));
        assert_eq!(stats.derived, 10);
        assert!(stats.rounds >= 4);
    }

    #[test]
    fn cycle_closure_terminates() {
        let (p, edge, path) = transitive_closure();
        let mut edb = FactStore::new();
        edb.extend(edge, [tuple![1, 2], tuple![2, 3], tuple![3, 1]]);
        let (idb, _) = evaluate(&p, &edb);
        // All 9 ordered pairs over {1,2,3}.
        assert_eq!(idb.len(path), 9);
    }

    #[test]
    fn facts_seed_the_fixpoint() {
        let mut p = Program::new();
        let ra = p.predicate("ra", 1).unwrap();
        let q = p.predicate("q", 1).unwrap();
        p.add_rule(Rule::new(
            Literal::new(ra, vec![DTerm::Const(Value::from("a"))]),
            vec![],
            vec![],
        ))
        .unwrap();
        p.add_rule(Rule::new(
            Literal::new(q, vec![v(0)]),
            vec![Literal::new(ra, vec![v(0)])],
            vec!["X".into()],
        ))
        .unwrap();
        let (idb, _) = evaluate(&p, &FactStore::new());
        assert_eq!(idb.tuples(q), &[tuple!["a"]]);
    }

    #[test]
    fn constants_in_bodies_filter() {
        let mut p = Program::new();
        let r = p.predicate("r", 2).unwrap();
        let q = p.predicate("q", 1).unwrap();
        // q(X) ← r(X, 'keep')
        p.add_rule(Rule::new(
            Literal::new(q, vec![v(0)]),
            vec![Literal::new(
                r,
                vec![v(0), DTerm::Const(Value::from("keep"))],
            )],
            vec!["X".into()],
        ))
        .unwrap();
        let mut edb = FactStore::new();
        edb.extend(r, [tuple![1, "keep"], tuple![2, "drop"], tuple![3, "keep"]]);
        let (idb, _) = evaluate(&p, &edb);
        assert_eq!(idb.len(q), 2);
        assert!(idb.contains(q, &tuple![1]));
        assert!(idb.contains(q, &tuple![3]));
    }

    #[test]
    fn join_through_shared_variable() {
        let mut p = Program::new();
        let r = p.predicate("r", 2).unwrap();
        let s = p.predicate("s", 2).unwrap();
        let q = p.predicate("q", 2).unwrap();
        // q(X,Z) ← r(X,Y), s(Y,Z)
        p.add_rule(Rule::new(
            Literal::new(q, vec![v(0), v(2)]),
            vec![
                Literal::new(r, vec![v(0), v(1)]),
                Literal::new(s, vec![v(1), v(2)]),
            ],
            vec!["X".into(), "Y".into(), "Z".into()],
        ))
        .unwrap();
        let mut edb = FactStore::new();
        edb.extend(r, [tuple![1, 10], tuple![2, 20]]);
        edb.extend(s, [tuple![10, 100], tuple![10, 101], tuple![30, 300]]);
        let (idb, _) = evaluate(&p, &edb);
        assert_eq!(idb.len(q), 2);
        assert!(idb.contains(q, &tuple![1, 100]));
        assert!(idb.contains(q, &tuple![1, 101]));
    }

    #[test]
    fn empty_edb_derives_nothing_but_facts() {
        let (p, _, path) = transitive_closure();
        let (idb, stats) = evaluate(&p, &FactStore::new());
        assert_eq!(idb.len(path), 0);
        assert_eq!(stats.derived, 0);
        assert_eq!(stats.rounds, 1);
    }

    #[test]
    fn repeated_variable_in_literal_requires_equality() {
        let mut p = Program::new();
        let r = p.predicate("r", 2).unwrap();
        let q = p.predicate("q", 1).unwrap();
        // q(X) ← r(X, X)
        p.add_rule(Rule::new(
            Literal::new(q, vec![v(0)]),
            vec![Literal::new(r, vec![v(0), v(0)])],
            vec!["X".into()],
        ))
        .unwrap();
        let mut edb = FactStore::new();
        edb.extend(r, [tuple![1, 1], tuple![1, 2], tuple![3, 3]]);
        let (idb, _) = evaluate(&p, &edb);
        assert_eq!(idb.len(q), 2);
    }

    #[test]
    fn delta_join_matches_full_join_oracle() {
        let (p, edge, path) = transitive_closure();
        let mut edb = FactStore::new();
        edb.extend(edge, (1..8).map(|i| tuple![i, i + 1]));
        edb.insert(edge, tuple![8, 1]); // close the cycle
        let (fast, fast_stats) = evaluate(&p, &edb);
        let (slow, slow_stats) = evaluate_full_join(&p, &edb);
        assert_eq!(fast_stats, slow_stats, "stats incl. delta_sizes match");
        let mut a: Vec<Tuple> = fast.tuples(path).to_vec();
        let mut b: Vec<Tuple> = slow.tuples(path).to_vec();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn delta_sizes_align_with_rounds() {
        let (p, edge, _) = transitive_closure();
        let mut edb = FactStore::new();
        edb.extend(edge, (1..5).map(|i| tuple![i, i + 1]));
        let (_, stats) = evaluate(&p, &edb);
        assert_eq!(stats.delta_sizes.len(), stats.rounds);
        assert_eq!(stats.delta_sizes.iter().sum::<usize>(), stats.derived);
        // The final round is the barren one that confirmed the fixpoint.
        assert_eq!(*stats.delta_sizes.last().unwrap(), 0);
        // On a chain the delta shrinks monotonically after initialization.
        let mid = &stats.delta_sizes[..stats.delta_sizes.len() - 1];
        assert!(
            mid.windows(2).all(|w| w[1] <= w[0]),
            "{:?}",
            stats.delta_sizes
        );
    }

    #[test]
    fn mutually_recursive_predicates() {
        let mut p = Program::new();
        let e = p.predicate("e", 1).unwrap();
        let odd = p.predicate("odd", 1).unwrap();
        let even = p.predicate("even", 1).unwrap();
        let succ = p.predicate("succ", 2).unwrap();
        // even(X) ← e(X); odd(Y) ← even(X), succ(X,Y); even(Y) ← odd(X), succ(X,Y)
        p.add_rule(Rule::new(
            Literal::new(even, vec![v(0)]),
            vec![Literal::new(e, vec![v(0)])],
            vec!["X".into()],
        ))
        .unwrap();
        p.add_rule(Rule::new(
            Literal::new(odd, vec![v(1)]),
            vec![
                Literal::new(even, vec![v(0)]),
                Literal::new(succ, vec![v(0), v(1)]),
            ],
            vec!["X".into(), "Y".into()],
        ))
        .unwrap();
        p.add_rule(Rule::new(
            Literal::new(even, vec![v(1)]),
            vec![
                Literal::new(odd, vec![v(0)]),
                Literal::new(succ, vec![v(0), v(1)]),
            ],
            vec!["X".into(), "Y".into()],
        ))
        .unwrap();
        let mut edb = FactStore::new();
        edb.insert(e, tuple![0]);
        edb.extend(succ, (0..6).map(|i| tuple![i, i + 1]));
        let (idb, _) = evaluate(&p, &edb);
        assert_eq!(idb.len(even), 4); // 0, 2, 4, 6
        assert_eq!(idb.len(odd), 3); // 1, 3, 5
    }
}

#[cfg(test)]
mod rule_helper_tests {
    use super::*;
    use toorjah_catalog::tuple;

    fn v(i: u32) -> DTerm {
        DTerm::Var(i)
    }

    fn setup() -> (Program, PredId, PredId, PredId, FactStore) {
        let mut p = Program::new();
        let r = p.predicate("r", 2).unwrap();
        let s = p.predicate("s", 2).unwrap();
        let q = p.predicate("q", 2).unwrap();
        p.add_rule(Rule::new(
            Literal::new(q, vec![v(0), v(2)]),
            vec![
                Literal::new(r, vec![v(0), v(1)]),
                Literal::new(s, vec![v(1), v(2)]),
            ],
            vec!["X".into(), "Y".into(), "Z".into()],
        ))
        .unwrap();
        let mut facts = FactStore::new();
        facts.extend(r, [tuple![1, 10], tuple![2, 20]]);
        facts.extend(s, [tuple![10, 100], tuple![30, 300]]);
        (p, r, s, q, facts)
    }

    #[test]
    fn rule_head_instances_joins() {
        let (p, _, _, _, facts) = setup();
        let heads = rule_head_instances(&p.rules()[0], &facts);
        assert_eq!(heads, vec![tuple![1, 100]]);
    }

    #[test]
    fn body_satisfiability_subsets() {
        let (p, _, _, _, facts) = setup();
        let rule = &p.rules()[0];
        assert!(rule_body_satisfiable(rule, &[], &facts));
        assert!(rule_body_satisfiable(rule, &[0], &facts));
        assert!(rule_body_satisfiable(rule, &[1], &facts));
        assert!(rule_body_satisfiable(rule, &[0, 1], &facts));
    }

    #[test]
    fn body_unsatisfiable_when_join_fails() {
        let (p, r, s, _, _) = setup();
        let rule = &p.rules()[0];
        let mut facts = FactStore::new();
        facts.insert(r, tuple![1, 10]);
        facts.insert(s, tuple![11, 100]);
        assert!(rule_body_satisfiable(rule, &[0], &facts));
        assert!(!rule_body_satisfiable(rule, &[0, 1], &facts));
    }

    #[test]
    fn empty_store_unsatisfiable() {
        let (p, _, _, _, _) = setup();
        let rule = &p.rules()[0];
        assert!(!rule_body_satisfiable(rule, &[0], &FactStore::new()));
        assert!(rule_head_instances(rule, &FactStore::new()).is_empty());
    }
}
