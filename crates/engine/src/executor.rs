//! The fast-failing plan executor (§IV), as a strategy over the
//! evaluation kernel.
//!
//! The executor is a configuration of [`crate::kernel`]'s round loop
//! (collect frontier → relevance filter → dispatch → fold → fixpoint); what
//! it owns is plan interpretation, not loop mechanics:
//!
//! 1. caches are populated by increasing ordering position; for every
//!    position the group of caches is iterated to a kernel fixpoint (groups
//!    contain cyclic d-paths, so a cache may feed itself or a sibling);
//! 2. before populating position `i`, the subquery over the already fully
//!    populated caches is tested for satisfiability; on failure the
//!    execution stops and reports the empty answer (*fast failing*);
//! 3. each pass collects a cache's fresh bindings — the pivot decomposition
//!    over its domain pools, shared with the naive evaluator through
//!    [`crate::kernel::fresh_bindings`] — and hands them to the kernel,
//!    which (at [`PruningLevel::Runtime`]) drops accesses whose
//!    outputs provably cannot reach the query head and dispatches the rest;
//!    the access log, the execution's meta-cache, serves every access
//!    already made, so no access is ever repeated — or, through
//!    [`execute_plan_cached`] and a session cache
//!    ([`toorjah_cache::SharedAccessCache`]), ever repeated across whole
//!    queries and sessions;
//! 4. a relation is accessed only with bindings produced by its domain
//!    predicates ("the relation is accessed only if all the other
//!    conditions succeed");
//! 5. finally the rewritten query is evaluated over the caches — or, with
//!    [`ExecOptions::first_k`], re-evaluated after every changed kernel
//!    round, so execution stops as soon as the requested number of answers
//!    is certain (answers are monotone under growing caches). The
//!    re-evaluation trades local join work for source accesses, the right
//!    trade in the paper's access-dominated setting.
//!
//! The paper proves the strategy computes the same answer as the plain
//! least-fixpoint semantics of the plan's Datalog program while never
//! repeating an access and stopping as early as possible — together a
//! ⊂-minimal plan. Runtime pruning preserves that answer (see
//! `crate::kernel` for the argument) while performing strictly fewer
//! accesses. The engine's tests check the answer equivalence against
//! [`toorjah_datalog::evaluate`], and `tests/proptests.rs` checks the
//! pruned path against the naive oracle.

use toorjah_cache::SharedAccessCache;
use toorjah_catalog::{AccessKey, FastMap, FastSet, RelationId, Tuple, Value};
use toorjah_core::{DomainMode, QueryPlan};
use toorjah_datalog::{rule_body_satisfiable, rule_head_instances, FactStore, Rule};
use toorjah_obs::Obs;

use crate::kernel::{fresh_bindings, Kernel, PoolView, RelevancePruner};
use crate::{
    AccessLog, AccessStats, AnswerEmitter, DispatchOptions, DispatchReport, EngineError,
    SourceProvider, DEFAULT_ACCESS_BUDGET,
};

/// How aggressively an execution avoids provably useless work. The tiers
/// are totally ordered — each level includes everything below it — so each
/// tier's savings is independently measurable (`tests/relevance.rs`).
///
/// * [`PruningLevel::Off`] — no relevance reasoning at all. The engine
///   treats it like `Static` (plan interpretation cannot un-minimize a
///   plan); the system facade additionally plans with strong-arc analysis
///   disabled, reproducing the unoptimized d-graph ablation.
/// * [`PruningLevel::Static`] — plan-time relevance only (the optimized
///   d-graph drops irrelevant relations); no runtime filtering. The
///   default: the run reproduces the paper's access counts exactly.
/// * [`PruningLevel::Runtime`] — adds the kernel's runtime
///   access-relevance stage: before dispatch, accesses whose outputs
///   provably cannot reach the query head are dropped (conservative
///   semi-join reachability over the plan's dependency arcs). Answers are
///   invariant; `accesses_performed` drops.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PruningLevel {
    /// No relevance reasoning, not even plan-time minimization.
    Off,
    /// Plan-time (static) relevance only — the paper's optimized plan.
    #[default]
    Static,
    /// `Static` plus runtime access-relevance pruning.
    Runtime,
}

impl PruningLevel {
    /// The stable lowercase name (`off`, `static`, `runtime`).
    pub fn name(self) -> &'static str {
        match self {
            PruningLevel::Off => "off",
            PruningLevel::Static => "static",
            PruningLevel::Runtime => "runtime",
        }
    }
}

impl std::fmt::Display for PruningLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for PruningLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(PruningLevel::Off),
            "static" => Ok(PruningLevel::Static),
            "runtime" => Ok(PruningLevel::Runtime),
            other => Err(format!(
                "unknown pruning level '{other}' (expected off|static|runtime)"
            )),
        }
    }
}

/// Options for plan execution.
#[derive(Clone, Copy, Debug)]
pub struct ExecOptions {
    /// Hard cap on distinct accesses.
    pub max_accesses: usize,
    /// How each round's access frontier is dispatched (worker threads,
    /// batched round trips). The default is the sequential path.
    pub dispatch: DispatchOptions,
    /// The tiered pruning configuration; replaces the old boolean `prune`
    /// (`false` ≙ [`PruningLevel::Static`], `true` ≙
    /// [`PruningLevel::Runtime`]). Answers are invariant across every
    /// level.
    pub prune_level: PruningLevel,
    /// Opt-in first-k early termination: stop dispatching as soon as `k`
    /// distinct answers are certain (derived answers are monotone, so any
    /// derived answer is final) and return exactly the first `k`. `None`
    /// computes all obtainable answers. Unions stop between disjuncts; negated statements apply it only
    /// after the negation checks. Checking costs one answer-rule
    /// evaluation per changed round — worthwhile when accesses dominate
    /// (the paper's setting), not when local joins do.
    pub first_k: Option<usize>,
    /// Observability handle threaded into the kernel's round loop, the
    /// dispatcher and the relevance pruner. The default is
    /// [`Obs::disabled`] — a no-op handle whose probes cost one branch and
    /// allocate nothing, keeping the hot path byte-identical to an
    /// uninstrumented build (pinned by `tests/alloc_probes.rs`).
    pub obs: Obs,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            max_accesses: DEFAULT_ACCESS_BUDGET,
            dispatch: DispatchOptions::default(),
            prune_level: PruningLevel::default(),
            first_k: None,
            obs: Obs::disabled(),
        }
    }
}

/// Result of executing a plan.
#[derive(Clone, Debug)]
pub struct ExecutionReport {
    /// The distinct answers.
    pub answers: Vec<Tuple>,
    /// Access counters (the "optimized" columns of Fig. 6).
    pub stats: AccessStats,
    /// When the fast-failing check cut execution short: the 1-based position
    /// whose check failed.
    pub failed_at_position: Option<usize>,
    /// Number of ordering positions whose caches were (fully) populated.
    pub positions_executed: usize,
    /// Final cache sizes, aligned with [`QueryPlan::caches`].
    pub cache_sizes: Vec<usize>,
    /// What the kernel did: per-round frontier sizes, batch counts and
    /// pruned-access counters.
    pub dispatch: DispatchReport,
    /// `true` when [`ExecOptions::first_k`] stopped the execution before
    /// every position was populated.
    pub terminated_early: bool,
}

/// Executes `plan` against `provider` under the fast-failing strategy.
///
/// The provider's schema must contain every non-artificial relation of the
/// plan (matched by name, arity-checked) — artificial constant relations are
/// served locally from the plan's facts at zero access cost.
///
/// ```
/// use toorjah_catalog::{tuple, Instance, Schema};
/// use toorjah_core::plan_query;
/// use toorjah_engine::{execute_plan, ExecOptions, InstanceSource};
/// use toorjah_query::parse_query;
///
/// // Example 5: the optimized plan never touches the irrelevant r3.
/// let schema = Schema::parse("r1^io(A, B) r2^io(B, C) r3^io(C, A)").unwrap();
/// let db = Instance::with_data(&schema, [
///     ("r1", vec![tuple!["a", "b1"]]),
///     ("r2", vec![tuple!["b1", "c1"]]),
///     ("r3", vec![tuple!["c1", "a"]]),
/// ]).unwrap();
/// let src = InstanceSource::new(schema.clone(), db);
/// let q = parse_query("q(C) <- r1('a', B), r2(B, C)", &schema).unwrap();
/// let planned = plan_query(&q, &schema).unwrap();
///
/// let report = execute_plan(&planned.plan, &src, ExecOptions::default()).unwrap();
/// assert_eq!(report.answers, vec![tuple!["c1"]]);
/// let r3 = schema.relation_id("r3").unwrap();
/// assert_eq!(report.stats.accesses_to(r3), 0);
/// ```
pub fn execute_plan(
    plan: &QueryPlan,
    provider: &dyn SourceProvider,
    options: ExecOptions,
) -> Result<ExecutionReport, EngineError> {
    execute_plan_cached(plan, provider, options, None, &mut AccessLog::new())
}

/// [`execute_plan`] over two tiers of caching. The access `log` is the
/// execution's meta-cache: an access it holds is served from it and never
/// made again. The optional session `cache` shares extractions *across*
/// executions: accesses it retains (from a previous query, another session,
/// or a warm-started snapshot) are served at zero cost and do **not**
/// appear in `log` — the per-query log records exactly the accesses this
/// execution performed against the provider, which is the paper's cost
/// metric. Answers are invariant under cache reuse and eviction; see
/// DESIGN.md for the consistency discipline.
pub fn execute_plan_cached(
    plan: &QueryPlan,
    provider: &dyn SourceProvider,
    options: ExecOptions,
    cache: Option<&SharedAccessCache>,
    log: &mut AccessLog,
) -> Result<ExecutionReport, EngineError> {
    run_plan(plan, provider, options, cache, log, None)
}

/// [`execute_plan_cached`] streaming its answers: after every kernel round
/// that grows a cache the answer rule reads, `emitter` receives the
/// answers derived through the new tuples (see [`AnswerEmitter`]). The
/// accesses, the log and the returned report are exactly
/// [`execute_plan_cached`]'s; the emitter only adds local work.
pub fn execute_plan_streamed(
    plan: &QueryPlan,
    provider: &dyn SourceProvider,
    options: ExecOptions,
    cache: Option<&SharedAccessCache>,
    log: &mut AccessLog,
    emitter: &mut AnswerEmitter<'_>,
) -> Result<ExecutionReport, EngineError> {
    run_plan(plan, provider, options, cache, log, Some(emitter))
}

fn run_plan(
    plan: &QueryPlan,
    provider: &dyn SourceProvider,
    options: ExecOptions,
    cache: Option<&SharedAccessCache>,
    log: &mut AccessLog,
    mut emitter: Option<&mut AnswerEmitter<'_>>,
) -> Result<ExecutionReport, EngineError> {
    // Resolve each cache's relation inside the provider's schema.
    let provider_schema = provider.schema();
    let mut provider_rel: Vec<Option<RelationId>> = Vec::with_capacity(plan.caches.len());
    for cache in &plan.caches {
        if cache.is_constant_source {
            provider_rel.push(None);
            continue;
        }
        let name = plan.schema.relation(cache.relation).name();
        let id = provider_schema
            .relation_id(name)
            .ok_or_else(|| EngineError::PlanMismatch(format!("provider lacks relation {name}")))?;
        if provider_schema.relation(id).arity() != plan.schema.relation(cache.relation).arity() {
            return Err(EngineError::PlanMismatch(format!(
                "relation {name} has different arities in plan and provider"
            )));
        }
        provider_rel.push(Some(id));
    }

    let answer_rule = plan
        .program
        .rules_for(plan.answer_pred)
        .next()
        .cloned()
        .ok_or_else(|| EngineError::PlanMismatch("plan has no answer rule".to_string()))?;

    let mut facts = FactStore::new();
    let mut failed_at_position = None;
    let mut positions_executed = 0usize;
    let mut dispatch_report = DispatchReport::default();
    let pruner = if options.prune_level >= PruningLevel::Runtime {
        RelevancePruner::for_plan(plan, options.obs)
    } else {
        None
    };
    // Semi-naive frontier per cache and input position: the values already
    // used in bindings for that position. A population pass enumerates only
    // binding combinations containing at least one *new* value, so every
    // binding is generated exactly once per cache across the whole run.
    let mut frontiers: Vec<Vec<PoolFrontier>> = plan
        .caches
        .iter()
        .map(|c| {
            c.input_domains
                .iter()
                .map(|_| PoolFrontier::default())
                .collect()
        })
        .collect();

    // With first-k, answers are accumulated incrementally after each kernel
    // round; `early_answers` holds the truncated set once `k` are certain.
    let mut early_answers: Option<Vec<Tuple>> = None;
    {
        let mut kernel = Kernel::new(
            cache,
            provider,
            log,
            &mut dispatch_report,
            options.dispatch,
            options.max_accesses,
            options.obs,
        );
        'positions: for position in 1..=plan.k {
            // Fast-failing check over the fully populated query-atom caches.
            if !subquery_satisfiable(plan, &answer_rule, position, &facts) {
                failed_at_position = Some(position);
                break 'positions;
            }

            // Populate the group at this position to a kernel fixpoint.
            let group = plan.caches_at_position(position);
            let mut satisfied_early = false;
            kernel.fixpoint(|kernel, _round| {
                let mut changed = false;
                for &cache_idx in &group {
                    let pred = plan.caches[cache_idx].cache_pred;
                    let before = facts.len(pred);
                    changed |= populate_cache(
                        plan,
                        cache_idx,
                        provider_rel[cache_idx],
                        &mut facts,
                        &mut frontiers[cache_idx],
                        pruner.as_ref(),
                        kernel,
                    )?;
                    if let Some(emitter) = emitter.as_deref_mut() {
                        if facts.len(pred) > before {
                            emitter.fold(&answer_rule, &facts, pred, before);
                        }
                    }
                }
                // First-k early termination: any answer derivable now stays
                // derivable (caches grow monotonically), so `k` derived
                // answers are `k` certain answers — stop pumping.
                if changed {
                    if let Some(k) = options.first_k {
                        let current = rule_head_instances(&answer_rule, &facts);
                        if current.len() >= k {
                            let mut current = current;
                            current.truncate(k);
                            early_answers = Some(current);
                            satisfied_early = true;
                            return Ok(false);
                        }
                    }
                }
                Ok(changed)
            })?;
            if satisfied_early {
                break 'positions;
            }
            positions_executed += 1;
        }
    }

    // Final answer: evaluate the rewritten query over the caches (empty when
    // the fast-failing check tripped — the paper's guarantee makes skipping
    // the remaining accesses sound; the first `k` when first-k terminated).
    let terminated_early = early_answers.is_some();
    let answers = if failed_at_position.is_some() {
        Vec::new()
    } else if let Some(early) = early_answers {
        early
    } else {
        let mut answers = rule_head_instances(&answer_rule, &facts);
        if let Some(k) = options.first_k {
            answers.truncate(k);
        }
        answers
    };

    let cache_sizes = plan
        .caches
        .iter()
        .map(|c| facts.len(c.cache_pred))
        .collect();

    Ok(ExecutionReport {
        answers,
        stats: log.stats(),
        failed_at_position,
        positions_executed,
        cache_sizes,
        dispatch: dispatch_report,
        terminated_early,
    })
}

/// The §IV early test: the conjunction of the answer-rule literals whose
/// caches are fully populated (position < `position`) must be satisfiable.
fn subquery_satisfiable(
    plan: &QueryPlan,
    answer_rule: &Rule,
    position: usize,
    facts: &FactStore,
) -> bool {
    let ready: Vec<usize> = answer_rule
        .body
        .iter()
        .enumerate()
        .filter(|(_, lit)| {
            plan.caches
                .iter()
                .any(|c| c.cache_pred == lit.pred && c.position < position)
        })
        .map(|(i, _)| i)
        .collect();
    rule_body_satisfiable(answer_rule, &ready, facts)
}

/// Per-input-position enumeration frontier: the pool of values already
/// known, with `old` marking how many of them earlier rounds enumerated
/// (the kernel's [`PoolView`] over it), plus the membership set and the
/// incremental domain-scan state.
#[derive(Clone, Default, Debug)]
struct PoolFrontier {
    values: Vec<Value>,
    old: usize,
    seen: FastSet<Value>,
    delta: DomainDelta,
}

/// Incremental domain-pool state for one cache input position: instead of
/// re-projecting every provider's full cache each pass, only the tuples a
/// provider gained since the last committed scan are read — per-pass domain
/// work is O(|delta|), not O(|total|). Caches only ever append, so the
/// consumed positions are stable cursors.
#[derive(Clone, Default, Debug)]
struct DomainDelta {
    /// Per provider: tuples of its cache already scanned.
    consumed: Vec<usize>,
    /// Join mode, per provider: values present in its scanned projection.
    present: Vec<FastSet<Value>>,
    /// Join mode: first-encounter rank of each value in provider 0's
    /// projection — the order the full pool recomputation would emit
    /// values in, which newly completed values are sorted by.
    first_rank: FastMap<Value, usize>,
}

impl DomainDelta {
    fn ensure_providers(&mut self, n: usize) {
        if self.consumed.len() < n {
            self.consumed.resize(n, 0);
            self.present.resize_with(n, FastSet::default);
        }
    }
}

/// One pass's staged domain scan: the new pool values (in exactly the order
/// a full recomputation would first encounter them) plus the cursor and
/// membership updates that produced them. Staging keeps early-returning
/// passes side-effect free — an uncommitted scan is simply redone next
/// pass, matching the full-recompute semantics value for value.
struct StagedScan {
    /// New pool values, in the full pool's first-encounter order.
    news: Vec<Value>,
    /// Per provider: consumed position after this scan.
    scanned: Vec<usize>,
    /// Join mode, per provider: values newly present in its projection.
    memberships: Vec<Vec<Value>>,
    /// Join mode: provider-0 values first encountered this scan, in order.
    ranked: Vec<Value>,
}

impl StagedScan {
    /// Folds the staged scan into its frontier: cursors advance, join
    /// memberships and ranks persist, and the new values enter the pool.
    fn commit(self, fr: &mut PoolFrontier) {
        fr.delta.consumed.copy_from_slice(&self.scanned);
        for (present, mem) in fr.delta.present.iter_mut().zip(self.memberships) {
            present.extend(mem);
        }
        for v in self.ranked {
            let rank = fr.delta.first_rank.len();
            fr.delta.first_rank.insert(v, rank);
        }
        for v in self.news {
            if fr.seen.insert(v) {
                fr.values.push(v);
            }
        }
    }
}

/// Stages one pass's new domain values for `dp`: the values entering the
/// domain-predicate extension since the frontier's last committed scan.
///
/// Order is identical to the full recomputation the scan replaces. Union:
/// a new value's first encounter necessarily sits in some provider's
/// unscanned region (scanned regions hold only already-emitted values), and
/// those regions are visited in the same provider-major, insertion order.
/// Join: the pool's order is provider 0's first-encounter order, persisted
/// as ranks; a value completes the intersection exactly in the pass where
/// its last missing provider gains it, so every newly complete value is
/// among this scan's touched values, and sorting them by rank restores the
/// pool order.
fn stage_new_values(
    plan: &QueryPlan,
    dp: &toorjah_core::DomainPredInfo,
    facts: &FactStore,
    fr: &PoolFrontier,
) -> StagedScan {
    let delta = &fr.delta;
    let mut news: Vec<Value> = Vec::new();
    let mut scanned: Vec<usize> = Vec::with_capacity(dp.providers.len());
    let mut memberships: Vec<Vec<Value>> = Vec::new();
    let mut ranked: Vec<Value> = Vec::new();
    match dp.mode {
        DomainMode::Union => {
            let mut fresh: FastSet<Value> = FastSet::default();
            for (j, p) in dp.providers.iter().enumerate() {
                let tuples = facts.tuples(plan.caches[p.cache].cache_pred);
                scanned.push(tuples.len());
                for t in &tuples[delta.consumed[j]..] {
                    let v = t[p.column];
                    if !fr.seen.contains(&v) && fresh.insert(v) {
                        news.push(v);
                    }
                }
            }
        }
        DomainMode::Join => {
            let mut touched: Vec<Value> = Vec::new();
            let mut touched_set: FastSet<Value> = FastSet::default();
            let mut staged_rank: FastMap<Value, usize> = FastMap::default();
            let mut mem_sets: Vec<FastSet<Value>> = Vec::with_capacity(dp.providers.len());
            for (j, p) in dp.providers.iter().enumerate() {
                let tuples = facts.tuples(plan.caches[p.cache].cache_pred);
                scanned.push(tuples.len());
                let mut mem: Vec<Value> = Vec::new();
                let mut mem_set: FastSet<Value> = FastSet::default();
                for t in &tuples[delta.consumed[j]..] {
                    let v = t[p.column];
                    if !delta.present[j].contains(&v) && mem_set.insert(v) {
                        mem.push(v);
                        if j == 0 {
                            staged_rank.insert(v, delta.first_rank.len() + ranked.len());
                            ranked.push(v);
                        }
                        if touched_set.insert(v) {
                            touched.push(v);
                        }
                    }
                }
                memberships.push(mem);
                mem_sets.push(mem_set);
            }
            news = touched
                .into_iter()
                .filter(|v| !fr.seen.contains(v))
                .filter(|v| {
                    (0..dp.providers.len())
                        .all(|j| delta.present[j].contains(v) || mem_sets[j].contains(v))
                })
                .collect();
            news.sort_by_key(|v| {
                delta
                    .first_rank
                    .get(v)
                    .or_else(|| staged_rank.get(v))
                    .copied()
                    .expect("a complete value is in provider 0's projection")
            });
        }
    }
    StagedScan {
        news,
        scanned,
        memberships,
        ranked,
    }
}

/// Populates one cache from the current domain-predicate values; returns
/// `true` when new tuples were added.
///
/// One kernel round per pass: the fresh bindings (fully determined by the
/// domain-pool snapshot taken here, so collecting before accessing cannot
/// change them) go through the kernel's filter → dispatch stages, and the
/// extractions are folded into the fact store in frontier order. Answers
/// are bit-identical to one-at-a-time dispatch; only wall-clock differs.
fn populate_cache(
    plan: &QueryPlan,
    cache_idx: usize,
    provider_rel: Option<RelationId>,
    facts: &mut FactStore,
    frontier: &mut [PoolFrontier],
    pruner: Option<&RelevancePruner>,
    kernel: &mut Kernel<'_>,
) -> Result<bool, EngineError> {
    let cache = &plan.caches[cache_idx];
    let mut changed = false;

    // Artificial constant relations are local facts: copy them into the
    // cache once, at zero access cost.
    if cache.is_constant_source {
        for (rel, _pred, value) in &plan.constant_facts {
            if *rel == cache.relation {
                changed |= facts.insert(cache.cache_pred, Tuple::new(vec![*value]));
            }
        }
        return Ok(changed);
    }

    let relation = provider_rel
        .ok_or_else(|| EngineError::PlanMismatch("unresolved provider relation".into()))?;

    // New value per input position = values entering the domain-predicate
    // extension since this frontier's last committed scan. The scan is
    // incremental — only tuples a provider's cache gained since the last
    // pass are read — and *staged*: an early-returning pass commits
    // nothing, so its values simply reappear next pass, exactly as under
    // full recomputation. Both union and join (intersection) extensions
    // are monotone, so values never leave a pool.
    let mut staged: Vec<StagedScan> = Vec::with_capacity(cache.input_domains.len());
    for (dp, fr) in cache.input_domains.iter().zip(frontier.iter_mut()) {
        fr.delta.ensure_providers(dp.providers.len());
        staged.push(stage_new_values(plan, dp, facts, fr));
    }
    // Any empty (old ∪ new) pool means the cache cannot be accessed yet.
    if frontier
        .iter()
        .zip(staged.iter())
        .any(|(fr, scan)| fr.values.is_empty() && scan.news.is_empty())
    {
        return Ok(false);
    }

    // Commit the scans — appending the new values — and collect the round's
    // fresh bindings: the shared pivot decomposition; a free relation
    // contributes the single empty binding (the access cache makes repeats
    // free).
    for (fr, scan) in frontier.iter_mut().zip(staged) {
        scan.commit(fr);
    }
    let mut requests: Vec<AccessKey> = Vec::new();
    if frontier.is_empty() {
        requests.push((relation, Tuple::empty()));
    } else {
        let pools: Vec<PoolView> = frontier
            .iter()
            .map(|fr| PoolView {
                values: &fr.values,
                old: fr.old,
            })
            .collect();
        fresh_bindings(relation, &pools, &mut requests);
    }

    let extractions = match pruner.filter(|p| p.cache_prunable(cache_idx)) {
        Some(p) => {
            let keep = |key: &AccessKey| p.keep(cache_idx, &key.1, facts);
            kernel.round(&requests, Some(&keep))?
        }
        None => kernel.round(&requests, None)?,
    };
    for tuples in &extractions {
        for t in tuples.iter() {
            changed |= facts.insert(cache.cache_pred, t.clone());
        }
    }

    // Advance the frontier.
    for fr in frontier.iter_mut() {
        fr.old = fr.values.len();
    }
    Ok(changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{naive_evaluate, InstanceSource, NaiveOptions};
    use toorjah_catalog::{tuple, Instance, Schema};
    use toorjah_core::plan_query;
    use toorjah_datalog::evaluate;
    use toorjah_query::parse_query;

    fn example2_source() -> (Schema, InstanceSource) {
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

    /// Oracle: evaluate the plan's Datalog program under plain fixpoint
    /// semantics with the full relations as EDB.
    fn fixpoint_answers(plan: &QueryPlan, provider: &InstanceSource) -> Vec<Tuple> {
        let mut edb = FactStore::new();
        for cache in &plan.caches {
            if cache.is_constant_source {
                continue;
            }
            let name = plan.schema.relation(cache.relation).name();
            let rel = provider.schema().relation_id(name).unwrap();
            edb.extend(
                cache.edb_pred,
                provider.instance().full_extension(rel).iter().cloned(),
            );
        }
        let (idb, _) = evaluate(&plan.program, &edb);
        idb.tuples(plan.answer_pred).to_vec()
    }

    #[test]
    fn example2_plan_matches_naive_and_fixpoint() {
        let (schema, src) = example2_source();
        let q = parse_query("q1(B) <- r1('a1', C), r2(B, C)", &schema).unwrap();
        let planned = plan_query(&q, &schema).unwrap();
        let report = execute_plan(&planned.plan, &src, ExecOptions::default()).unwrap();
        assert_eq!(report.answers, vec![tuple!["b1"]]);

        let naive = naive_evaluate(&q, &schema, &src, NaiveOptions::default()).unwrap();
        let mut a = report.answers.clone();
        let mut b = naive.answers.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b, "optimized and naive answers must agree");

        let mut oracle = fixpoint_answers(&planned.plan, &src);
        oracle.sort();
        assert_eq!(a, oracle, "fast-failing equals fixpoint semantics");
    }

    #[test]
    fn example5_plan_skips_irrelevant_relation() {
        let schema = Schema::parse("r1^io(A, B) r2^io(B, C) r3^io(C, A)").unwrap();
        let db = Instance::with_data(
            &schema,
            [
                ("r1", vec![tuple!["a", "b1"], tuple!["z", "b9"]]),
                ("r2", vec![tuple!["b1", "c1"], tuple!["b9", "c9"]]),
                ("r3", vec![tuple!["c1", "z"], tuple!["c9", "a"]]),
            ],
        )
        .unwrap();
        let src = InstanceSource::new(schema.clone(), db);
        let q = parse_query("q(C) <- r1('a', B), r2(B, C)", &schema).unwrap();
        let planned = plan_query(&q, &schema).unwrap();
        let report = execute_plan(&planned.plan, &src, ExecOptions::default()).unwrap();
        // r3 is irrelevant: never accessed by the optimized plan.
        let r3 = schema.relation_id("r3").unwrap();
        assert_eq!(report.stats.accesses_to(r3), 0);
        // Answers still complete: r1(a, b1), r2(b1, c1) → c1.
        assert_eq!(report.answers, vec![tuple!["c1"]]);
        // The naive approach pays for r3 (and for the extra r1 value z it
        // provides) but finds the same answers.
        let naive = naive_evaluate(&q, &schema, &src, NaiveOptions::default()).unwrap();
        assert!(naive.stats.accesses_to(r3) > 0);
        assert_eq!(naive.answers, report.answers);
        assert!(report.stats.total_accesses < naive.stats.total_accesses);
    }

    #[test]
    fn fast_fail_stops_on_empty_cache() {
        // r1 has nothing for 'a': the position-2 check fails before r2 is
        // ever accessed.
        let schema = Schema::parse("r1^io(A, B) r2^io(B, C)").unwrap();
        let db = Instance::with_data(
            &schema,
            [
                ("r1", vec![tuple!["other", "b1"]]),
                ("r2", vec![tuple!["b1", "c1"]]),
            ],
        )
        .unwrap();
        let src = InstanceSource::new(schema.clone(), db);
        let q = parse_query("q(C) <- r1('a', B), r2(B, C)", &schema).unwrap();
        let planned = plan_query(&q, &schema).unwrap();
        let report = execute_plan(&planned.plan, &src, ExecOptions::default()).unwrap();
        assert!(report.answers.is_empty());
        assert!(report.failed_at_position.is_some());
        let r2 = schema.relation_id("r2").unwrap();
        assert_eq!(report.stats.accesses_to(r2), 0, "r2 must not be probed");
        // Plain fixpoint semantics computes the same (empty) answer.
        assert!(fixpoint_answers(&planned.plan, &src).is_empty());
    }

    #[test]
    fn meta_cache_dedups_across_occurrences() {
        // pub1 appears twice; accesses with equal bindings are shared.
        let schema =
            Schema::parse("pub1^io(Paper, Person) conf^ooo(Paper, C, Y) sub^oi(Paper, Person)")
                .unwrap();
        let db = Instance::with_data(
            &schema,
            [
                ("pub1", vec![tuple!["p1", "alice"], tuple!["p2", "bob"]]),
                (
                    "conf",
                    vec![tuple!["p1", "icde", 2008], tuple!["p2", "icde", 2008]],
                ),
                ("sub", vec![tuple!["p1", "alice"]]),
            ],
        )
        .unwrap();
        let src = InstanceSource::new(schema.clone(), db);
        let q = parse_query(
            "q(R, A) <- pub1(P, R), pub1(P2, A), conf(P, C, Y), conf(P2, C2, Y2)",
            &schema,
        )
        .unwrap();
        let planned = plan_query(&q, &schema).unwrap();
        let report = execute_plan(&planned.plan, &src, ExecOptions::default()).unwrap();
        let pub1 = schema.relation_id("pub1").unwrap();
        // Both occurrences need p1 and p2: 2 distinct accesses, not 4.
        assert_eq!(report.stats.accesses_to(pub1), 2);
        assert!(report.answers.contains(&tuple!["alice", "bob"]));
    }

    #[test]
    fn budget_is_enforced() {
        let (schema, src) = example2_source();
        let q = parse_query("q1(B) <- r1('a1', C), r2(B, C)", &schema).unwrap();
        let planned = plan_query(&q, &schema).unwrap();
        let err = execute_plan(
            &planned.plan,
            &src,
            ExecOptions {
                max_accesses: 1,
                ..ExecOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            EngineError::AccessBudgetExceeded { limit: 1 }
        ));
    }

    #[test]
    fn constant_relations_cost_nothing() {
        let schema = Schema::parse("r^io(A, B)").unwrap();
        let db = Instance::with_data(&schema, [("r", vec![tuple!["a", "b"]])]).unwrap();
        let src = InstanceSource::new(schema.clone(), db);
        let q = parse_query("q(B) <- r('a', B)", &schema).unwrap();
        let planned = plan_query(&q, &schema).unwrap();
        let report = execute_plan(&planned.plan, &src, ExecOptions::default()).unwrap();
        // Only the single access to r; the artificial r_a is free.
        assert_eq!(report.stats.total_accesses, 1);
        assert_eq!(report.answers, vec![tuple!["b"]]);
    }

    #[test]
    fn cyclic_group_reaches_fixpoint() {
        // r1 → r2 → r3 → r1 weak cycle must pump values to a fixpoint.
        let schema = Schema::parse("r1^io(A, B) r2^io(B, C) r3^io(C, A) seed^o(A)").unwrap();
        let db = Instance::with_data(
            &schema,
            [
                ("seed", vec![tuple!["a1"]]),
                ("r1", vec![tuple!["a1", "b1"], tuple!["a2", "b2"]]),
                ("r2", vec![tuple!["b1", "c1"], tuple!["b2", "c2"]]),
                ("r3", vec![tuple!["c1", "a2"], tuple!["c2", "a1"]]),
            ],
        )
        .unwrap();
        let src = InstanceSource::new(schema.clone(), db);
        let q = parse_query("q(A) <- r1(A, B), r2(B, C), r3(C, A), seed(A2)", &schema).unwrap();
        let planned = plan_query(&q, &schema).unwrap();
        let report = execute_plan(&planned.plan, &src, ExecOptions::default()).unwrap();
        // Chain: a1 → b1 → c1 → a2 → b2 → c2 → a1; cycle closes. The query
        // asks for A with r1(A,B), r2(B,C), r3(C,A): a1→b1→c1→a2? r3(c1,a2)
        // means q(A)=a1 requires r3(C, a1): c2. a1→b1→c1 gives r3(c1,a2):
        // no. But a2→b2→c2→a1: r3(c2, a1) ≠ a2. Hmm: no tuple satisfies the
        // cycle... verify against the naive evaluation instead of guessing.
        let naive = naive_evaluate(&q, &schema, &src, NaiveOptions::default()).unwrap();
        let mut a = report.answers.clone();
        let mut b = naive.answers.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // The cycle pumped everything reachable: r1 saw both a1 and a2.
        let r1 = schema.relation_id("r1").unwrap();
        assert_eq!(report.stats.accesses_to(r1), 2);
    }

    #[test]
    fn warm_cache_serves_repeat_executions_for_free() {
        let (schema, src) = example2_source();
        let q = parse_query("q1(B) <- r1('a1', C), r2(B, C)", &schema).unwrap();
        let planned = plan_query(&q, &schema).unwrap();
        let cache = SharedAccessCache::unbounded();
        let mut cold_log = AccessLog::new();
        let cold = execute_plan_cached(
            &planned.plan,
            &src,
            ExecOptions::default(),
            Some(&cache),
            &mut cold_log,
        )
        .unwrap();
        assert!(cold.stats.total_accesses > 0);
        // Same plan again over the warm cache: identical answers, zero new
        // accesses.
        let mut warm_log = AccessLog::new();
        let warm = execute_plan_cached(
            &planned.plan,
            &src,
            ExecOptions::default(),
            Some(&cache),
            &mut warm_log,
        )
        .unwrap();
        assert_eq!(warm.answers, cold.answers);
        assert_eq!(warm.stats.total_accesses, 0, "all accesses cache-served");
        assert_eq!(cache.stats().misses as usize, cold.stats.total_accesses);
    }

    #[test]
    fn plan_mismatch_detected() {
        let (schema, _) = example2_source();
        let q = parse_query("q1(B) <- r1('a1', C), r2(B, C)", &schema).unwrap();
        let planned = plan_query(&q, &schema).unwrap();
        // A provider over a different schema lacking r1.
        let other_schema = Schema::parse("zz^oo(A, B)").unwrap();
        let other = InstanceSource::new(other_schema.clone(), Instance::new(&other_schema));
        assert!(matches!(
            execute_plan(&planned.plan, &other, ExecOptions::default()),
            Err(EngineError::PlanMismatch(_))
        ));
    }

    #[test]
    fn boolean_query_over_free_relations() {
        let schema = Schema::parse("r^oo(A, B) s^oo(B, C)").unwrap();
        let db = Instance::with_data(
            &schema,
            [("r", vec![tuple!["a", "b"]]), ("s", vec![tuple!["b", "c"]])],
        )
        .unwrap();
        let src = InstanceSource::new(schema.clone(), db);
        let q = parse_query("q() <- r(X, Y), s(Y, Z)", &schema).unwrap();
        let planned = plan_query(&q, &schema).unwrap();
        let report = execute_plan(&planned.plan, &src, ExecOptions::default()).unwrap();
        assert_eq!(report.answers, vec![Tuple::empty()]);
        assert_eq!(report.stats.total_accesses, 2);
    }
}

#[cfg(test)]
mod pruning_tests {
    use super::*;
    use crate::InstanceSource;
    use toorjah_catalog::{tuple, Instance, Schema};
    use toorjah_core::plan_query;
    use toorjah_query::parse_query;

    /// A star join whose later terminal cache is probed with many keys the
    /// earlier sibling never matched: the kernel prunes those accesses.
    fn star_source(keys: usize, probe_matches: usize) -> (Schema, InstanceSource) {
        let schema = Schema::parse("gen^o(K) probe^io(K, V) audit^io(K, W)").unwrap();
        let mut db = Instance::new(&schema);
        for i in 0..keys {
            db.insert("gen", tuple![format!("k{i}")]).unwrap();
            db.insert("audit", tuple![format!("k{i}"), format!("w{i}")])
                .unwrap();
            if i < probe_matches {
                db.insert("probe", tuple![format!("k{i}"), format!("v{i}")])
                    .unwrap();
            }
        }
        (schema.clone(), InstanceSource::new(schema, db))
    }

    #[test]
    fn pruning_preserves_answers_and_reduces_accesses() {
        let (schema, src) = star_source(40, 5);
        let q = parse_query("q(V, W) <- gen(K), probe(K, V), audit(K, W)", &schema).unwrap();
        let planned = plan_query(&q, &schema).unwrap();
        let base = execute_plan(&planned.plan, &src, ExecOptions::default()).unwrap();
        let mut pruned_log = AccessLog::new();
        let pruned = execute_plan_cached(
            &planned.plan,
            &src,
            ExecOptions {
                prune_level: PruningLevel::Runtime,
                ..ExecOptions::default()
            },
            None,
            &mut pruned_log,
        )
        .unwrap();
        assert_eq!(pruned.answers, base.answers, "answers are bit-identical");
        assert_eq!(pruned.answers.len(), 5);
        assert!(
            pruned.stats.total_accesses < base.stats.total_accesses,
            "pruned {} vs {}",
            pruned.stats.total_accesses,
            base.stats.total_accesses
        );
        assert_eq!(
            pruned.dispatch.accesses_pruned,
            base.stats.total_accesses - pruned.stats.total_accesses
        );
        // Every requested access is performed, cache-served or pruned.
        assert_eq!(
            pruned.dispatch.total_requested(),
            pruned.stats.total_accesses
                + pruned_log.cache_served()
                + pruned.dispatch.accesses_pruned
        );
        // The per-round counters line up with the frontier account.
        assert_eq!(
            pruned.dispatch.pruned_per_frontier.len(),
            pruned.dispatch.frontier_sizes.len()
        );
        assert_eq!(
            pruned.dispatch.pruned_per_frontier.iter().sum::<usize>(),
            pruned.dispatch.accesses_pruned
        );
        // With pruning disabled nothing changes and nothing is counted.
        assert_eq!(base.dispatch.accesses_pruned, 0);
        assert!(base.dispatch.pruned_per_frontier.iter().all(|&p| p == 0));
    }

    #[test]
    fn pruning_is_a_noop_when_pools_are_join_dominated() {
        // Example 5's chain: every pool value of the terminal cache comes
        // from its own semi-join partner, so nothing is ever pruned — and
        // the run stays byte-identical to the unpruned one.
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
        let planned = plan_query(&q, &schema).unwrap();
        let base = execute_plan(&planned.plan, &src, ExecOptions::default()).unwrap();
        let pruned = execute_plan(
            &planned.plan,
            &src,
            ExecOptions {
                prune_level: PruningLevel::Runtime,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        assert_eq!(pruned.answers, base.answers);
        assert_eq!(pruned.stats, base.stats);
        assert_eq!(pruned.dispatch.accesses_pruned, 0);
    }

    #[test]
    fn pruning_levels_are_ordered_and_parse() {
        assert!(PruningLevel::Off < PruningLevel::Static);
        assert!(PruningLevel::Static < PruningLevel::Runtime);
        assert_eq!(PruningLevel::default(), PruningLevel::Static);
        for level in [
            PruningLevel::Off,
            PruningLevel::Static,
            PruningLevel::Runtime,
        ] {
            assert_eq!(level.name().parse::<PruningLevel>().unwrap(), level);
            assert_eq!(level.to_string(), level.name());
        }
        for bogus in ["verymagic", "magic"] {
            let err = bogus.parse::<PruningLevel>().unwrap_err();
            assert!(err.contains("off|static|runtime"), "{err}");
        }
    }

    #[test]
    fn first_k_stops_a_cyclic_pump_early() {
        // A long extraction chain inside one cyclic order group: each pump
        // round reaches one more key and yields one more answer, so asking
        // for the first answer stops the pump almost immediately.
        let schema = Schema::parse("r1^io(A, B) r2^io(B, C) r3^io(C, A) seed^o(A)").unwrap();
        let mut db = Instance::new(&schema);
        db.insert("seed", tuple!["a0"]).unwrap();
        let n = 30;
        for i in 0..n {
            db.insert("r1", tuple![format!("a{i}"), format!("b{i}")])
                .unwrap();
            db.insert("r2", tuple![format!("b{i}"), format!("c{i}")])
                .unwrap();
            // Close the per-key cycle (an answer) and chain to the next key.
            db.insert("r3", tuple![format!("c{i}"), format!("a{i}")])
                .unwrap();
            db.insert("r3", tuple![format!("c{i}"), format!("a{}", i + 1)])
                .unwrap();
        }
        let src = InstanceSource::new(schema.clone(), db);
        let q = parse_query("q(A) <- r1(A, B), r2(B, C), r3(C, A), seed(A2)", &schema).unwrap();
        let planned = plan_query(&q, &schema).unwrap();
        let full = execute_plan(&planned.plan, &src, ExecOptions::default()).unwrap();
        assert_eq!(full.answers.len(), n, "every key closes its cycle");
        assert!(!full.terminated_early);

        let first = execute_plan(
            &planned.plan,
            &src,
            ExecOptions {
                first_k: Some(1),
                ..ExecOptions::default()
            },
        )
        .unwrap();
        assert_eq!(first.answers.len(), 1);
        assert!(first.terminated_early);
        assert!(
            full.answers.contains(&first.answers[0]),
            "the early answer is a real answer"
        );
        assert!(
            first.stats.total_accesses < full.stats.total_accesses / 2,
            "stopping the pump saves accesses: {} vs {}",
            first.stats.total_accesses,
            full.stats.total_accesses
        );
    }

    #[test]
    fn first_k_larger_than_answer_set_changes_nothing() {
        let (schema, src) = star_source(10, 4);
        let q = parse_query("q(V, W) <- gen(K), probe(K, V), audit(K, W)", &schema).unwrap();
        let planned = plan_query(&q, &schema).unwrap();
        let full = execute_plan(&planned.plan, &src, ExecOptions::default()).unwrap();
        let capped = execute_plan(
            &planned.plan,
            &src,
            ExecOptions {
                first_k: Some(1000),
                ..ExecOptions::default()
            },
        )
        .unwrap();
        assert_eq!(capped.answers, full.answers);
        assert_eq!(capped.stats, full.stats);
        assert!(!capped.terminated_early);
    }
}
