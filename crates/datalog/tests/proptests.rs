//! Property-based tests of the Datalog evaluator: the semi-naive engine is
//! compared against a naive reference (repeated whole-rule application until
//! fixpoint), monotonicity of the least fixpoint is checked, and the search
//! kernel's single-rule evaluation is compared against plain nested loops.

use proptest::prelude::*;
use toorjah_catalog::{Tuple, Value};
use toorjah_datalog::{
    evaluate, evaluate_demand, evaluate_full_join, rule_body_satisfiable, rule_head_instances,
    DTerm, FactStore, Literal, PredId, Program, Rule,
};

/// Naive reference evaluator: apply every rule to (EDB ∪ IDB) until nothing
/// new is derived.
fn naive_reference(program: &Program, edb: &FactStore) -> FactStore {
    let mut everything = edb.clone();
    let mut idb = FactStore::new();
    loop {
        let mut changed = false;
        for rule in program.rules() {
            for head in rule_head_instances(rule, &everything) {
                if idb.insert(rule.head.pred, head.clone()) {
                    everything.insert(rule.head.pred, head);
                    changed = true;
                }
            }
        }
        if !changed {
            return idb;
        }
    }
}

/// A random linear-rule program over binary predicates p0..p3 plus an EDB
/// predicate e, generated from a seed.
fn random_program(seed: u64) -> (Program, PredId, Vec<PredId>) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut program = Program::new();
    let e = program.predicate("e", 2).unwrap();
    let preds: Vec<PredId> = (0..3)
        .map(|i| program.predicate(&format!("p{i}"), 2).unwrap())
        .collect();
    let rule_count = rng.gen_range(1..=5);
    for _ in 0..rule_count {
        let head = preds[rng.gen_range(0..preds.len())];
        let body_len = rng.gen_range(1..=2);
        let mut body = Vec::new();
        // Chain pattern: head(X0, Xn) ← b1(X0, X1), b2(X1, X2)…
        for j in 0..body_len {
            let pred = if rng.gen_bool(0.5) {
                e
            } else {
                preds[rng.gen_range(0..preds.len())]
            };
            body.push(Literal::new(
                pred,
                vec![DTerm::Var(j as u32), DTerm::Var(j as u32 + 1)],
            ));
        }
        let head_lit = Literal::new(head, vec![DTerm::Var(0), DTerm::Var(body_len as u32)]);
        let var_names = (0..=body_len).map(|i| format!("X{i}")).collect();
        program
            .add_rule(Rule::new(head_lit, body, var_names))
            .unwrap();
    }
    (program, e, preds)
}

fn random_edb(seed: u64, e: PredId) -> FactStore {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD_BEEF);
    let mut edb = FactStore::new();
    let n = rng.gen_range(0..12);
    for _ in 0..n {
        let a = Value::from(rng.gen_range(0..6i64));
        let b = Value::from(rng.gen_range(0..6i64));
        edb.insert(e, Tuple::new(vec![a, b]));
    }
    edb
}

fn sorted(mut v: Vec<Tuple>) -> Vec<Tuple> {
    v.sort();
    v
}

proptest! {
    /// Semi-naive and naive evaluation agree on every predicate.
    #[test]
    fn semi_naive_equals_naive(seed in 0u64..50_000) {
        let (program, e, preds) = random_program(seed);
        let edb = random_edb(seed, e);
        let (semi, _) = evaluate(&program, &edb);
        let reference = naive_reference(&program, &edb);
        for &p in &preds {
            prop_assert_eq!(
                sorted(semi.tuples(p).to_vec()),
                sorted(reference.tuples(p).to_vec()),
                "predicate {:?} differs on seed {}", p, seed
            );
        }
    }

    /// The delta-join evaluator and the full-join reference agree not just
    /// on answers but on the whole derivation trajectory: rounds, derived
    /// counts, rule firings, and the per-round delta sizes. This pins the
    /// semi-naive rewrite as a pure scheduling change.
    #[test]
    fn delta_join_matches_full_join_trajectory(seed in 0u64..50_000) {
        let (program, e, preds) = random_program(seed);
        let edb = random_edb(seed, e);
        let (fast, fast_stats) = evaluate(&program, &edb);
        let (slow, slow_stats) = evaluate_full_join(&program, &edb);
        prop_assert_eq!(&fast_stats, &slow_stats, "stats diverge on seed {}", seed);
        for &p in &preds {
            prop_assert_eq!(
                sorted(fast.tuples(p).to_vec()),
                sorted(slow.tuples(p).to_vec()),
                "predicate {:?} differs on seed {}", p, seed
            );
        }
        // Delta-schedule shape invariants: one entry per round, summing to
        // the number of derived facts, ending on the barren fixpoint round.
        prop_assert_eq!(fast_stats.delta_sizes.len(), fast_stats.rounds);
        prop_assert_eq!(
            fast_stats.delta_sizes.iter().sum::<usize>(),
            fast_stats.derived
        );
        if fast_stats.rounds > 1 {
            prop_assert_eq!(*fast_stats.delta_sizes.last().unwrap(), 0);
        }
    }

    /// Monotonicity: adding EDB facts never removes IDB facts.
    #[test]
    fn evaluation_is_monotone(seed in 0u64..50_000) {
        let (program, e, preds) = random_program(seed);
        let edb_small = random_edb(seed, e);
        let mut edb_big = edb_small.clone();
        edb_big.insert(e, Tuple::new(vec![Value::from(0), Value::from(1)]));
        edb_big.insert(e, Tuple::new(vec![Value::from(1), Value::from(2)]));
        let (small, _) = evaluate(&program, &edb_small);
        let (big, _) = evaluate(&program, &edb_big);
        for &p in &preds {
            for t in small.tuples(p) {
                prop_assert!(big.contains(p, t), "lost fact {} on seed {}", t, seed);
            }
        }
    }

    /// The magic-sets rewrite is answer-preserving on every random program:
    /// demand-driven evaluation of a bound query returns exactly the facts
    /// of the full fixpoint that match the bindings, never deriving more
    /// facts than the unrestricted run.
    #[test]
    fn demand_evaluation_equals_filtered_fixpoint(seed in 0u64..50_000) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (program, e, preds) = random_program(seed);
        let edb = random_edb(seed, e);
        let (full, full_stats) = evaluate(&program, &edb);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4D41_4749);
        let query = preds[rng.gen_range(0..preds.len())];
        let bound = Value::from(rng.gen_range(0..6i64));
        let bindings = [Some(bound), None];
        let (demand, stats) = evaluate_demand(&program, &edb, query, &bindings)
            .expect("random linear programs admit a magic rewrite");
        let expected: Vec<Tuple> = full
            .tuples(query)
            .iter()
            .filter(|t| t.values()[0] == bound)
            .cloned()
            .collect();
        prop_assert_eq!(
            sorted(demand.tuples(query).to_vec()),
            sorted(expected),
            "demanded answers diverge from the filtered fixpoint on seed {}",
            seed
        );
        prop_assert!(
            stats.derived <= full_stats.derived,
            "demand derived more facts ({} > {}) on seed {}",
            stats.derived, full_stats.derived, seed
        );
    }

    /// Every derived fact is supported by some rule body over the final
    /// state (soundness of derivation).
    #[test]
    fn derived_facts_are_supported(seed in 0u64..50_000) {
        let (program, e, preds) = random_program(seed);
        let edb = random_edb(seed, e);
        let (idb, _) = evaluate(&program, &edb);
        let mut everything = edb.clone();
        everything.absorb(&idb);
        for &p in &preds {
            for fact in idb.tuples(p) {
                let supported = program.rules_for(p).any(|rule| {
                    rule_head_instances(rule, &everything).contains(fact)
                });
                prop_assert!(supported, "unsupported fact {} on seed {}", fact, seed);
            }
        }
    }
}

/// A random rule over p0/1, p1/2, p2/2 and p3/3 with up to four body
/// literals drawing on five variables — so bodies have repeated variables,
/// constants, ground literals and several variable-connected components —
/// and a head over some of the body's variables (none: a boolean head),
/// possibly repeating one and adding a constant. Facts over the domain
/// 0..4 leave some predicates empty.
fn random_rule_and_facts(seed: u64) -> (Rule, FactStore) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4B45_524E);
    let arities = [1usize, 2, 2, 3];
    let body_len = rng.gen_range(1..=4);
    let body: Vec<Literal> = (0..body_len)
        .map(|_| {
            let p = rng.gen_range(0..arities.len());
            let terms = (0..arities[p])
                .map(|_| {
                    if rng.gen_bool(0.2) {
                        DTerm::Const(Value::from(rng.gen_range(0..4i64)))
                    } else {
                        DTerm::Var(rng.gen_range(0..5u32))
                    }
                })
                .collect();
            Literal::new(PredId(p as u32), terms)
        })
        .collect();
    let mut body_vars: Vec<u32> = body
        .iter()
        .flat_map(|l| l.terms.iter().filter_map(DTerm::as_var))
        .collect();
    body_vars.sort_unstable();
    body_vars.dedup();
    let mut head: Vec<DTerm> = body_vars
        .iter()
        .filter(|_| rng.gen_bool(0.5))
        .map(|&v| DTerm::Var(v))
        .collect();
    if !head.is_empty() && rng.gen_bool(0.2) {
        let again = head[rng.gen_range(0..head.len())].clone();
        head.push(again);
    }
    if rng.gen_bool(0.2) {
        head.insert(0, DTerm::Const(Value::from(9)));
    }
    let rule = Rule::new(
        Literal::new(PredId(9), head),
        body,
        (0..5).map(|i| format!("X{i}")).collect(),
    );
    let mut facts = FactStore::new();
    for (p, &arity) in arities.iter().enumerate() {
        if rng.gen_bool(0.15) {
            continue;
        }
        for _ in 0..rng.gen_range(0..9) {
            let t: Tuple = (0..arity)
                .map(|_| Value::from(rng.gen_range(0..4i64)))
                .collect();
            facts.insert(PredId(p as u32), t);
        }
    }
    (rule, facts)
}

/// The rule body's variable-connected components, as ascending literal
/// indexes, ordered by first index.
fn body_components(rule: &Rule) -> Vec<Vec<usize>> {
    let n = rule.body.len();
    let mut component: Vec<usize> = (0..n).collect();
    loop {
        let mut changed = false;
        for i in 0..n {
            for j in 0..n {
                let shared = rule.body[i]
                    .terms
                    .iter()
                    .filter_map(DTerm::as_var)
                    .any(|v| rule.body[j].terms.contains(&DTerm::Var(v)));
                if shared && component[j] < component[i] {
                    component[i] = component[j];
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    let mut out: Vec<Vec<usize>> = Vec::new();
    for i in 0..n {
        match out.iter_mut().find(|c| component[c[0]] == component[i]) {
            Some(c) => c.push(i),
            None => out.push(vec![i]),
        }
    }
    out
}

/// Plain nested loops over the literals in `nest`, each scanning its whole
/// extent in insertion order; calls `emit` per satisfying assignment.
fn nested_loops(
    rule: &Rule,
    facts: &FactStore,
    nest: &[usize],
    binding: &mut Vec<Option<Value>>,
    emit: &mut dyn FnMut(&[Option<Value>]),
) {
    let Some((&i, rest)) = nest.split_first() else {
        emit(binding);
        return;
    };
    let lit = &rule.body[i];
    for t in facts.tuples(lit.pred) {
        let saved = binding.clone();
        let fits = lit
            .terms
            .iter()
            .zip(t.values())
            .all(|(term, v)| match term {
                DTerm::Const(c) => c == v,
                DTerm::Var(x) => match binding[*x as usize] {
                    Some(b) => b == *v,
                    None => {
                        binding[*x as usize] = Some(*v);
                        true
                    }
                },
            });
        if fits {
            nested_loops(rule, facts, rest, binding, emit);
        }
        *binding = saved;
    }
}

/// The reference head-instance sequence: nested loops in body order, with
/// first-encounter deduplication of head tuples. The loops are grouped by
/// component, the last component outermost, so the sequence follows the
/// documented answer order (the first component varies fastest); within a
/// component the literals keep body order.
fn reference_head_instances(rule: &Rule, facts: &FactStore) -> Vec<Tuple> {
    let nest: Vec<usize> = body_components(rule).into_iter().rev().flatten().collect();
    let mut out: Vec<Tuple> = Vec::new();
    let mut binding = vec![None; rule.var_names.len()];
    nested_loops(rule, facts, &nest, &mut binding, &mut |b| {
        let head: Tuple = rule
            .head
            .terms
            .iter()
            .map(|t| match t {
                DTerm::Const(c) => *c,
                DTerm::Var(v) => b[*v as usize].expect("head variables are bound"),
            })
            .collect();
        if !out.contains(&head) {
            out.push(head);
        }
    });
    out
}

proptest! {
    /// The search kernel against plain nested loops: the same head
    /// instances in the same order, and the same satisfiability verdict
    /// for every subset of the body.
    #[test]
    fn kernel_matches_nested_loop_reference(seed in 0u64..50_000) {
        let (rule, facts) = random_rule_and_facts(seed);
        prop_assert_eq!(
            rule_head_instances(&rule, &facts),
            reference_head_instances(&rule, &facts),
            "head instances differ on seed {}", seed
        );
        let n = rule.body.len();
        for mask in 0u32..(1 << n) {
            let subset: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
            let mut witnessed = false;
            let mut binding = vec![None; rule.var_names.len()];
            nested_loops(&rule, &facts, &subset, &mut binding, &mut |_| witnessed = true);
            prop_assert_eq!(
                rule_body_satisfiable(&rule, &subset, &facts),
                witnessed,
                "satisfiability of {:?} differs on seed {}", subset, seed
            );
        }
    }
}
