//! Answer preservation of the evaluation kernel's runtime pruning, checked
//! over hundreds of random workloads:
//!
//! 1. **Oracle equivalence** — the kernel path with pruning enabled
//!    computes exactly the answers of the naive Fig. 1 oracle (and of the
//!    unpruned kernel path).
//! 2. **Monotone cost** — pruning only ever *removes* accesses: the pruned
//!    run's access set is a subset of the unpruned run's, so
//!    `accesses_performed` never grows, per relation or in total.
//! 3. **First-k soundness** — with `first_k = Some(k)`, the reported
//!    answers are `min(k, |answers|)` of the real answers, at no higher
//!    access cost.
//! 4. **Join kernel** — [`evaluate_cq`] and [`cq_satisfiable`] agree with
//!    plain nested loops over random bodies (constants, repeated
//!    variables, disconnected components, boolean heads, empty relations),
//!    and so do the answers of [`naive_evaluate`], which over free access
//!    patterns extracts every relation whole.

use proptest::prelude::*;
use toorjah_cache::SharedAccessCache;
use toorjah_core::{plan_query, CoreError};
use toorjah_engine::{
    cq_satisfiable, evaluate_cq, execute_plan_cached, naive_evaluate, AccessLog, ExecOptions,
    InstanceSource, NaiveOptions, PruningLevel,
};
use toorjah_workload::random::seeded_rng;
use toorjah_workload::{random_instance, random_query, random_schema, RandomParams};

use std::collections::HashSet;

use toorjah_catalog::{Instance, Schema, Tuple, Value};
use toorjah_query::{parse_query, ConjunctiveQuery, Term};

fn sorted(mut v: Vec<Tuple>) -> Vec<Tuple> {
    v.sort();
    v
}

fn run(
    plan: &toorjah_core::QueryPlan,
    provider: &InstanceSource,
    options: ExecOptions,
) -> (toorjah_engine::ExecutionReport, AccessLog) {
    let cache = SharedAccessCache::unbounded();
    let mut log = AccessLog::new();
    let report = execute_plan_cached(plan, provider, options, Some(&cache), &mut log)
        .expect("plan executes on small workloads");
    (report, log)
}

/// One full random scenario driven by a seed; returns false when the seed
/// produced no usable (answerable) query, which the sweep simply skips.
fn check_scenario(seed: u64) -> bool {
    let params = RandomParams::small();
    let mut rng = seeded_rng(seed);
    let generated = random_schema(&mut rng, &params);
    let Some(query) = random_query(&mut rng, &generated, &params) else {
        return false;
    };
    let instance = random_instance(&mut rng, &generated, &params);
    let provider = InstanceSource::new(generated.schema.clone(), instance);

    let planned = match plan_query(&query, &generated.schema) {
        Err(CoreError::NotAnswerable { .. }) => return false,
        Err(e) => panic!("unexpected planning failure: {e}"),
        Ok(planned) => planned,
    };

    let naive = naive_evaluate(
        &query,
        &generated.schema,
        &provider,
        NaiveOptions::default(),
    )
    .expect("naive evaluation terminates within budget on small workloads");

    let (base, base_log) = run(&planned.plan, &provider, ExecOptions::default());
    let (pruned, pruned_log) = run(
        &planned.plan,
        &provider,
        ExecOptions {
            prune_level: PruningLevel::Runtime,
            ..ExecOptions::default()
        },
    );

    // Property 1: pruned == unpruned == naive oracle answers.
    assert_eq!(
        sorted(pruned.answers.clone()),
        sorted(base.answers.clone()),
        "pruning changed the answers of {} on seed {seed}",
        query.display(&generated.schema),
    );
    assert_eq!(
        sorted(pruned.answers.clone()),
        sorted(naive.answers.clone()),
        "pruned kernel vs naive oracle differ for {} on seed {seed}",
        query.display(&generated.schema),
    );

    // Property 2: the pruned access set is a subset of the unpruned one.
    let base_set: HashSet<_> = base_log.sequence().iter().cloned().collect();
    for access in pruned_log.sequence() {
        assert!(
            base_set.contains(access),
            "pruning introduced access {access:?} on seed {seed}"
        );
    }
    assert!(
        pruned.stats.total_accesses <= base.stats.total_accesses,
        "pruning increased accesses on seed {seed}"
    );
    for (rel, &count) in &pruned.stats.accesses {
        assert!(
            count <= base.stats.accesses_to(*rel),
            "pruning increased accesses to {rel:?} on seed {seed}"
        );
    }
    // The per-round counters always reconcile with the total.
    assert_eq!(
        pruned.dispatch.pruned_per_frontier.iter().sum::<usize>(),
        pruned.dispatch.accesses_pruned,
        "per-round pruned counters reconcile on seed {seed}"
    );
    // The delta schedule partitions the dispatched accesses: every access
    // belongs to exactly one fixpoint step's delta, so the schedule sums to
    // the total requested in every mode.
    for (name, report) in [("base", &base), ("pruned", &pruned)] {
        assert_eq!(
            report.dispatch.delta_schedule.iter().sum::<usize>(),
            report.dispatch.total_requested(),
            "{name} delta schedule sums to total_requested on seed {seed}"
        );
    }

    // The Magic tier (demand-driven derivation suppression on top of
    // runtime access pruning) is also answer-invariant; it never performs
    // more accesses and never grows a cache beyond the unpruned run's.
    let (magic, _magic_log) = run(
        &planned.plan,
        &provider,
        ExecOptions {
            prune_level: PruningLevel::Magic,
            ..ExecOptions::default()
        },
    );
    assert_eq!(
        sorted(magic.answers.clone()),
        sorted(naive.answers.clone()),
        "magic tier vs naive oracle differ for {} on seed {seed}",
        query.display(&generated.schema),
    );
    assert!(
        magic.stats.total_accesses <= base.stats.total_accesses,
        "magic tier increased accesses on seed {seed}"
    );
    for (m, b) in magic.cache_sizes.iter().zip(&base.cache_sizes) {
        assert!(m <= b, "magic tier grew a cache ({m} > {b}) on seed {seed}");
    }

    // Parallel dispatch (threads > 1) is a scheduling change only: answers
    // and the access *multiset* per relation match the sequential kernel,
    // and the delta schedule still partitions the dispatched accesses.
    let (par, _par_log) = run(
        &planned.plan,
        &provider,
        ExecOptions {
            dispatch: toorjah_engine::DispatchOptions {
                parallelism: 3,
                batch_size: 2,
            },
            ..ExecOptions::default()
        },
    );
    assert_eq!(
        sorted(par.answers.clone()),
        sorted(naive.answers.clone()),
        "parallel kernel vs naive oracle differ for {} on seed {seed}",
        query.display(&generated.schema),
    );
    assert_eq!(
        par.stats.total_accesses, base.stats.total_accesses,
        "parallel dispatch changed the access count on seed {seed}"
    );
    assert_eq!(
        par.dispatch.delta_schedule.iter().sum::<usize>(),
        par.dispatch.total_requested(),
        "parallel delta schedule sums to total_requested on seed {seed}"
    );

    // Property 3: first-k returns min(k, |answers|) real answers at no
    // higher cost.
    let full: HashSet<Tuple> = base.answers.iter().cloned().collect();
    for k in [1usize, 2] {
        let (capped, _) = run(
            &planned.plan,
            &provider,
            ExecOptions {
                first_k: Some(k),
                ..ExecOptions::default()
            },
        );
        assert_eq!(
            capped.answers.len(),
            k.min(full.len()),
            "first-{k} answer count on seed {seed}"
        );
        for answer in &capped.answers {
            assert!(
                full.contains(answer),
                "first-{k} produced non-answer {answer} on seed {seed}"
            );
        }
        assert!(
            capped.stats.total_accesses <= base.stats.total_accesses,
            "first-{k} increased accesses on seed {seed}"
        );
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 160, ..ProptestConfig::default() })]

    #[test]
    fn pruned_kernel_matches_naive_oracle(seed in 0u64..1_000_000) {
        check_scenario(seed);
    }
}

/// A deterministic sweep over fixed seeds, so CI failures are reproducible
/// without proptest shrinking.
#[test]
fn fixed_seed_sweep() {
    let mut usable = 0;
    for seed in 0..120 {
        if check_scenario(seed) {
            usable += 1;
        }
    }
    assert!(
        usable > 60,
        "the generator should produce usable queries ({usable}/120)"
    );
}

/// A random query over free relations p0/1, p1/2, p2/2 and p3/3 with up to
/// four atoms drawing on five variables and the constants 0..4, its head a
/// random subset of the body's variables (possibly none), and a random
/// instance over the same constants that leaves some relations empty.
fn random_cq(seed: u64) -> (Schema, ConjunctiveQuery, InstanceSource) {
    use rand::Rng;
    let mut rng = seeded_rng(seed ^ 0x4A4F_494E);
    let schema = Schema::parse("p0^o(D) p1^oo(D, D) p2^oo(D, D) p3^ooo(D, D, D)").unwrap();
    let arities = [1usize, 2, 2, 3];
    let mut vars: Vec<usize> = Vec::new();
    let atoms: Vec<String> = (0..rng.gen_range(1..=4))
        .map(|_| {
            let p = rng.gen_range(0..arities.len());
            let terms: Vec<String> = (0..arities[p])
                .map(|_| {
                    if rng.gen_bool(0.2) {
                        rng.gen_range(0..4i64).to_string()
                    } else {
                        let v = rng.gen_range(0..5);
                        vars.push(v);
                        format!("X{v}")
                    }
                })
                .collect();
            format!("p{p}({})", terms.join(", "))
        })
        .collect();
    vars.sort_unstable();
    vars.dedup();
    let head: Vec<String> = vars
        .iter()
        .filter(|_| rng.gen_bool(0.5))
        .map(|v| format!("X{v}"))
        .collect();
    let text = format!("q({}) <- {}", head.join(", "), atoms.join(", "));
    let query = parse_query(&text, &schema).unwrap_or_else(|e| panic!("{text}: {e}"));
    let data: Vec<(&str, Vec<Tuple>)> = ["p0", "p1", "p2", "p3"]
        .into_iter()
        .zip(arities)
        .map(|(name, arity)| {
            let n = if rng.gen_bool(0.15) {
                0
            } else {
                rng.gen_range(0..9)
            };
            let tuples = (0..n)
                .map(|_| {
                    (0..arity)
                        .map(|_| Value::from(rng.gen_range(0..4i64)))
                        .collect()
                })
                .collect();
            (name, tuples)
        })
        .collect();
    let instance = Instance::with_data(&schema, data).unwrap();
    (schema.clone(), query, InstanceSource::new(schema, instance))
}

/// Plain nested loops over the atoms in `atoms`, in that order, each
/// scanning its relation's whole extension; calls `emit` per satisfying
/// assignment.
fn nested_loops(
    query: &ConjunctiveQuery,
    extensions: &[Vec<Tuple>],
    atoms: &[usize],
    binding: &mut Vec<Option<Value>>,
    emit: &mut dyn FnMut(&[Option<Value>]),
) {
    let Some((&i, rest)) = atoms.split_first() else {
        emit(binding);
        return;
    };
    for t in &extensions[i] {
        let saved = binding.clone();
        let fits = query.atoms()[i]
            .terms()
            .iter()
            .zip(t.values())
            .all(|(term, v)| match term {
                Term::Const(c) => c == v,
                Term::Var(x) => match binding[x.index()] {
                    Some(b) => b == *v,
                    None => {
                        binding[x.index()] = Some(*v);
                        true
                    }
                },
            });
        if fits {
            nested_loops(query, extensions, rest, binding, emit);
        }
        *binding = saved;
    }
}

fn check_join_kernel(seed: u64) {
    let (schema, query, provider) = random_cq(seed);
    let extensions: Vec<Vec<Tuple>> = query
        .atoms()
        .iter()
        .map(|a| provider.instance().full_extension(a.relation()).to_vec())
        .collect();
    let all: Vec<usize> = (0..query.atoms().len()).collect();
    let mut reference: HashSet<Tuple> = HashSet::new();
    let mut binding = vec![None; query.var_count()];
    nested_loops(&query, &extensions, &all, &mut binding, &mut |b| {
        reference.insert(query.head().iter().map(|v| b[v.index()].unwrap()).collect());
    });
    let mut expected: Vec<Tuple> = reference.into_iter().collect();
    expected.sort();

    let borrowed: Vec<&[Tuple]> = extensions.iter().map(Vec::as_slice).collect();
    let answers = evaluate_cq(&query, &borrowed);
    let distinct: HashSet<&Tuple> = answers.iter().collect();
    assert_eq!(
        distinct.len(),
        answers.len(),
        "duplicate answers on seed {seed}"
    );
    assert_eq!(
        sorted(answers),
        expected,
        "evaluate_cq differs on seed {seed}"
    );

    let naive = naive_evaluate(&query, &schema, &provider, NaiveOptions::default())
        .expect("naive evaluation of free relations");
    assert_eq!(
        sorted(naive.answers),
        expected,
        "naive differs on seed {seed}"
    );

    for mask in 0u32..(1 << all.len()) {
        let subset: Vec<usize> = all
            .iter()
            .copied()
            .filter(|i| mask & (1 << i) != 0)
            .collect();
        let mut witnessed = false;
        nested_loops(&query, &extensions, &subset, &mut binding, &mut |_| {
            witnessed = true
        });
        assert_eq!(
            cq_satisfiable(&query, &subset, &borrowed),
            witnessed,
            "satisfiability of {subset:?} differs on seed {seed}"
        );
    }
}

proptest! {
    #[test]
    fn join_kernel_matches_nested_loops(seed in 0u64..1_000_000) {
        check_join_kernel(seed);
    }
}
