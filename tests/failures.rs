//! Failure-injection tests: source failures and access budgets must surface
//! as errors (never wrong answers) through every execution path, and the
//! access trace must respect the plan's ordering discipline.

use toorjah::catalog::{tuple, Instance, Schema};
use toorjah::core::plan_query;
use toorjah::engine::{
    execute_plan, execute_plan_cached, naive_evaluate, AccessLog, EngineError, ExecOptions,
    FlakySource, InstanceSource, NaiveOptions, SourceProvider,
};
use toorjah::query::parse_query;

fn chain_setup() -> (Schema, InstanceSource) {
    let schema = Schema::parse("a^oo(X, Y) b^io(Y, Z) c^io(Z, W)").unwrap();
    let db = Instance::with_data(
        &schema,
        [
            ("a", vec![tuple!["x1", "y1"], tuple!["x2", "y2"]]),
            ("b", vec![tuple!["y1", "z1"], tuple!["y2", "z2"]]),
            ("c", vec![tuple!["z1", "w1"]]),
        ],
    )
    .unwrap();
    (schema.clone(), InstanceSource::new(schema, db))
}

#[test]
fn executor_surfaces_source_failures() {
    let (schema, src) = chain_setup();
    let q = parse_query("q(W) <- a(X, Y), b(Y, Z), c(Z, W)", &schema).unwrap();
    let planned = plan_query(&q, &schema).unwrap();
    // Fail at various points of the access sequence; every failure must be
    // reported, never swallowed.
    for fail_at in 1..=4 {
        let flaky = FlakySource::new(src.clone(), fail_at);
        let result = execute_plan(&planned.plan, &flaky, ExecOptions::default());
        assert!(
            matches!(result, Err(EngineError::SourceFailure { .. })),
            "failure at access #{fail_at} must surface"
        );
    }
    // A provider that fails beyond the plan's total accesses succeeds.
    let total = execute_plan(&planned.plan, &src, ExecOptions::default())
        .unwrap()
        .stats
        .total_accesses;
    let flaky = FlakySource::new(src.clone(), total + 1);
    assert!(execute_plan(&planned.plan, &flaky, ExecOptions::default()).is_ok());
}

#[test]
fn naive_surfaces_source_failures() {
    let (schema, src) = chain_setup();
    let q = parse_query("q(W) <- a(X, Y), b(Y, Z), c(Z, W)", &schema).unwrap();
    let flaky = FlakySource::new(src, 2);
    assert!(matches!(
        naive_evaluate(&q, &schema, &flaky, NaiveOptions::default()),
        Err(EngineError::SourceFailure { .. })
    ));
}

#[test]
fn budget_zero_blocks_the_first_access() {
    let (schema, src) = chain_setup();
    let q = parse_query("q(W) <- a(X, Y), b(Y, Z), c(Z, W)", &schema).unwrap();
    let planned = plan_query(&q, &schema).unwrap();
    let result = execute_plan(
        &planned.plan,
        &src,
        ExecOptions {
            max_accesses: 0,
            ..ExecOptions::default()
        },
    );
    assert!(matches!(
        result,
        Err(EngineError::AccessBudgetExceeded { limit: 0 })
    ));
}

#[test]
fn access_trace_respects_plan_positions() {
    let (schema, src) = chain_setup();
    let q = parse_query("q(W) <- a(X, Y), b(Y, Z), c(Z, W)", &schema).unwrap();
    let planned = plan_query(&q, &schema).unwrap();
    let mut log = AccessLog::new();
    execute_plan_cached(&planned.plan, &src, ExecOptions::default(), None, &mut log).unwrap();

    // Map relations to their cache positions; the trace must be
    // non-decreasing in position (a chain plan: a ≺ b ≺ c).
    let position_of = |rel: toorjah::catalog::RelationId| {
        let name = src.schema().relation(rel).name().to_string();
        planned
            .plan
            .caches
            .iter()
            .find(|c| planned.plan.schema.relation(c.relation).name() == name)
            .map(|c| c.position)
            .expect("accessed relations are planned")
    };
    let positions: Vec<usize> = log
        .sequence()
        .iter()
        .map(|(r, _)| position_of(*r))
        .collect();
    assert!(!positions.is_empty());
    assert!(
        positions.windows(2).all(|w| w[0] <= w[1]),
        "trace positions must be non-decreasing: {positions:?}"
    );
}

#[test]
fn meta_cache_reuse_across_plans_counts_once() {
    let (schema, src) = chain_setup();
    let q1 = parse_query("q(Z) <- a(X, Y), b(Y, Z)", &schema).unwrap();
    let q2 = parse_query("q(W) <- a(X, Y), b(Y, Z), c(Z, W)", &schema).unwrap();
    let p1 = plan_query(&q1, &schema).unwrap();
    let p2 = plan_query(&q2, &schema).unwrap();
    let mut log = AccessLog::new();
    execute_plan_cached(&p1.plan, &src, ExecOptions::default(), None, &mut log).unwrap();
    let after_first = log.total();
    execute_plan_cached(&p2.plan, &src, ExecOptions::default(), None, &mut log).unwrap();
    // q2 only pays for relation c on top of q1's accesses.
    let c = schema.relation_id("c").unwrap();
    assert_eq!(log.total(), after_first + log.stats().accesses_to(c));
}
