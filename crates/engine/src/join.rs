//! Conjunctive-query evaluation over extracted caches.
//!
//! Both the naive algorithm ("evaluate the query over the cache", Fig. 1)
//! and the fast-failing executor (early non-emptiness checks, final answer
//! computation) evaluate a CQ against per-atom tuple collections. Both run
//! on the Datalog crate's search kernel ([`toorjah_datalog::Search`]): the
//! executor over its caches directly, this module over the atoms'
//! extensions loaded into an indexed [`FactStore`] (one predicate per atom)
//! once per call. Enumeration takes the atoms in a greedy order — bound
//! atoms first, smaller extensions breaking ties — so joins stay bound; the
//! satisfiability check uses the kernel's own bound-first order. Answers
//! are distinct by construction (see [`toorjah_datalog::head_instances`]),
//! so no final deduplication pass runs.

use toorjah_catalog::{FastSet, Tuple, Value};
use toorjah_datalog::{head_instances, satisfiable, DTerm, FactStore, Goal, PredId, Search};
use toorjah_query::{ConjunctiveQuery, Term};

/// Evaluates `query` over per-atom extensions, returning the distinct
/// answer tuples (projections onto the head).
///
/// `extensions[i]` holds the tuples the `i`-th body atom ranges over (for
/// the naive algorithm: the cache of the atom's relation), borrowed — the
/// evaluation indexes its own copy once.
///
/// The body is decomposed into variable-connected components: components
/// binding no head variable reduce to satisfiability checks, and the head
/// components are enumerated independently and combined — so a disconnected
/// guard atom multiplies nothing.
pub fn evaluate_cq(query: &ConjunctiveQuery, extensions: &[&[Tuple]]) -> Vec<Tuple> {
    let atoms: Vec<usize> = (0..query.atoms().len()).collect();
    let body = Body::load(query, &atoms, extensions);
    let goals = body.goals();
    let head: Vec<DTerm> = query.head().iter().map(|v| DTerm::Var(v.0)).collect();
    head_instances(&head, &goals, &greedy_order(&goals), query.var_count())
}

/// Evaluates the restriction of `query` to the body atoms in `atoms` and
/// returns all satisfying assignments projected onto the variables bound by
/// those atoms (deduplicated, as full binding vectors aligned with
/// [`ConjunctiveQuery::var_names`]). `extensions` is indexed by body atom,
/// as for [`evaluate_cq`].
pub fn evaluate_cq_subset(
    query: &ConjunctiveQuery,
    atoms: &[usize],
    extensions: &[&[Tuple]],
) -> Vec<Vec<Option<Value>>> {
    let body = Body::load(query, atoms, extensions);
    let goals = body.goals();
    let ordered: Vec<Goal<'_>> = greedy_order(&goals).iter().map(|&i| goals[i]).collect();
    let mut out = Vec::new();
    let mut seen: FastSet<Vec<Option<Value>>> = FastSet::default();
    Search::new(query.var_count()).run(&ordered, &mut |binding| {
        if seen.insert(binding.to_vec()) {
            out.push(binding.to_vec());
        }
        true
    });
    out
}

/// `true` when the restriction of `query` to `atoms` has at least one
/// satisfying assignment — the §IV early non-emptiness test. Stops at the
/// first witness per variable-connected component (disconnected components
/// are checked independently, so a failing one is found without iterating
/// the others).
pub fn cq_satisfiable(query: &ConjunctiveQuery, atoms: &[usize], extensions: &[&[Tuple]]) -> bool {
    let body = Body::load(query, atoms, extensions);
    satisfiable(&body.goals(), query.var_count())
}

/// Selected body atoms in the kernel's terms: each atom's terms as Datalog
/// terms, and its extension indexed under the atom's own predicate id.
struct Body {
    terms: Vec<Vec<DTerm>>,
    preds: Vec<PredId>,
    store: FactStore,
}

impl Body {
    fn load(query: &ConjunctiveQuery, atoms: &[usize], extensions: &[&[Tuple]]) -> Self {
        let mut store = FactStore::new();
        let mut terms = Vec::with_capacity(atoms.len());
        let mut preds = Vec::with_capacity(atoms.len());
        for &i in atoms {
            let pred = PredId(i as u32);
            store.extend(pred, extensions[i].iter().cloned());
            terms.push(
                query.atoms()[i]
                    .terms()
                    .iter()
                    .map(|t| match t {
                        Term::Var(v) => DTerm::Var(v.0),
                        Term::Const(c) => DTerm::Const(*c),
                    })
                    .collect(),
            );
            preds.push(pred);
        }
        Body {
            terms,
            preds,
            store,
        }
    }

    fn goals(&self) -> Vec<Goal<'_>> {
        self.terms
            .iter()
            .zip(&self.preds)
            .map(|(terms, &pred)| Goal {
                terms,
                extent: self.store.extent(pred),
            })
            .collect()
    }
}

/// The enumeration order: repeatedly the remaining goal with the most
/// bound terms (constants, or variables an earlier goal binds), smaller
/// extensions and then lower indexes breaking ties.
fn greedy_order(goals: &[Goal<'_>]) -> Vec<usize> {
    let mut remaining: Vec<usize> = (0..goals.len()).collect();
    let mut order = Vec::with_capacity(goals.len());
    let mut bound_vars: Vec<u32> = Vec::new();
    while !remaining.is_empty() {
        let (pos, _) = remaining
            .iter()
            .enumerate()
            .max_by_key(|&(_, &i)| {
                let bound = goals[i]
                    .terms
                    .iter()
                    .filter(|t| match t {
                        DTerm::Const(_) => true,
                        DTerm::Var(v) => bound_vars.contains(v),
                    })
                    .count();
                (bound, usize::MAX - goals[i].extent.len(), usize::MAX - i)
            })
            .expect("remaining is non-empty");
        let best = remaining.remove(pos);
        bound_vars.extend(goals[best].terms.iter().filter_map(DTerm::as_var));
        order.push(best);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use toorjah_catalog::{tuple, Schema};
    use toorjah_query::parse_query;

    fn fixtures() -> (Schema, ConjunctiveQuery, HashMap<usize, Vec<Tuple>>) {
        let schema = Schema::parse("r^oo(A, B) s^oo(B, C)").unwrap();
        let q = parse_query("q(X, Z) <- r(X, Y), s(Y, Z)", &schema).unwrap();
        let mut data = HashMap::new();
        data.insert(
            0,
            vec![tuple!["a1", "b1"], tuple!["a2", "b2"], tuple!["a3", "b1"]],
        );
        data.insert(
            1,
            vec![tuple!["b1", "c1"], tuple!["b2", "c2"], tuple!["b9", "c9"]],
        );
        (schema, q, data)
    }

    #[test]
    fn chain_join() {
        let (_, q, data) = fixtures();
        let answers = evaluate_cq(&q, &[&data[&0], &data[&1]]);
        assert_eq!(answers.len(), 3);
        assert!(answers.contains(&tuple!["a1", "c1"]));
        assert!(answers.contains(&tuple!["a3", "c1"]));
        assert!(answers.contains(&tuple!["a2", "c2"]));
    }

    #[test]
    fn constants_filter() {
        let schema = Schema::parse("r^oo(A, B)").unwrap();
        let q = parse_query("q(X) <- r(X, 'b1')", &schema).unwrap();
        let data = vec![tuple!["a1", "b1"], tuple!["a2", "b2"]];
        let answers = evaluate_cq(&q, &[&data]);
        assert_eq!(answers, vec![tuple!["a1"]]);
    }

    #[test]
    fn duplicate_answers_are_deduplicated() {
        let schema = Schema::parse("r^oo(A, B)").unwrap();
        let q = parse_query("q(X) <- r(X, Y)", &schema).unwrap();
        let data = vec![tuple!["a", "b1"], tuple!["a", "b2"]];
        let answers = evaluate_cq(&q, &[&data]);
        assert_eq!(answers, vec![tuple!["a"]]);
    }

    #[test]
    fn boolean_query_yields_empty_tuple() {
        let schema = Schema::parse("r^oo(A, B)").unwrap();
        let q = parse_query("q() <- r(X, Y)", &schema).unwrap();
        let answers = evaluate_cq(&q, &[&[tuple!["a", "b"]]]);
        assert_eq!(answers, vec![Tuple::empty()]);
        let none = evaluate_cq(&q, &[&[]]);
        assert!(none.is_empty());
    }

    #[test]
    fn satisfiability_stops_early() {
        let (_, q, data) = fixtures();
        assert!(cq_satisfiable(&q, &[0, 1], &[&data[&0], &data[&1]]));
        assert!(cq_satisfiable(&q, &[0], &[&data[&0], &data[&1]]));
        // Empty subset: trivially satisfiable.
        assert!(cq_satisfiable(&q, &[], &[&data[&0], &data[&1]]));
        // Empty extension: unsatisfiable.
        assert!(!cq_satisfiable(&q, &[0, 1], &[&[], &data[&1]]));
    }

    #[test]
    fn failing_join_is_unsatisfiable() {
        let (_, q, _) = fixtures();
        let data_r = vec![tuple!["a1", "b7"]];
        let data_s = vec![tuple!["b8", "c1"]];
        assert!(!cq_satisfiable(&q, &[0, 1], &[&data_r, &data_s]));
    }

    #[test]
    fn subset_bindings_are_partial() {
        let (_, q, data) = fixtures();
        let rows = evaluate_cq_subset(&q, &[0], &[&data[&0], &data[&1]]);
        assert_eq!(rows.len(), 3);
        // Variable Z (index of Z in q) is unbound in every row.
        let z = q.var_names().iter().position(|n| n == "Z").unwrap();
        assert!(rows.iter().all(|r| r[z].is_none()));
    }

    #[test]
    fn self_join_on_same_atom_extension() {
        let schema = Schema::parse("e^oo(V, V)").unwrap();
        let q = parse_query("q(X, Z) <- e(X, Y), e(Y, Z)", &schema).unwrap();
        let data = vec![tuple![1, 2], tuple![2, 3]];
        let answers = evaluate_cq(&q, &[&data, &data]);
        assert_eq!(answers, vec![tuple![1, 3]]);
    }

    #[test]
    fn repeated_variable_inside_atom() {
        let schema = Schema::parse("e^oo(V, V)").unwrap();
        let q = parse_query("q(X) <- e(X, X)", &schema).unwrap();
        let data = vec![tuple![1, 1], tuple![1, 2], tuple![3, 3]];
        let answers = evaluate_cq(&q, &[&data]);
        assert_eq!(answers.len(), 2);
    }

    #[test]
    fn larger_join_uses_indexes() {
        // 1000×1000 chain join completes instantly only if indexed.
        let schema = Schema::parse("r^oo(A, B) s^oo(B, C)").unwrap();
        let q = parse_query("q(X, Z) <- r(X, Y), s(Y, Z)", &schema).unwrap();
        let r: Vec<Tuple> = (0..1000).map(|i| tuple![i, i + 1000]).collect();
        let s: Vec<Tuple> = (0..1000).map(|i| tuple![i + 1000, i + 2000]).collect();
        let answers = evaluate_cq(&q, &[&r, &s]);
        assert_eq!(answers.len(), 1000);
    }
}
