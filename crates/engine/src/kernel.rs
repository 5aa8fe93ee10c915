//! The round-based evaluation kernel.
//!
//! Every evaluator of this crate — the fast-failing plan executor, the
//! naive Fig. 1 algorithm, the negation checks and (through the executor)
//! union execution — is one loop shape: **collect** a frontier of
//! `(relation, binding)` accesses, **filter** it for runtime relevance,
//! **dispatch** the survivors (the access log serves the ones already
//! made), **fold** the extractions back into evaluator state, and repeat
//! to a fixpoint. Until this module existed that loop was hand-copied per
//! evaluator; now the evaluators are thin strategy configurations over
//! three primitives:
//!
//! * [`Kernel::round`] — one collect→filter→dispatch step. Accounting is
//!   uniform: the *requested* frontier size is recorded, pruned accesses
//!   are counted per round, and the extractions come back aligned with the
//!   requested frontier (pruned entries yield empty extractions), so
//!   `accesses_performed + accesses_served_by_cache + accesses_pruned`
//!   always equals `DispatchReport::total_requested`.
//! * [`Kernel::fixpoint`] — the driver looping `round`-producing steps
//!   until a step reports no change, counting rounds.
//! * [`fresh_bindings`] — the pivot decomposition enumerating every *new*
//!   binding combination exactly once from per-position value pools (the
//!   semi-naive frontier both the executor and the naive algorithm use).
//!
//! # Runtime access-relevance pruning
//!
//! [`RelevancePruner`] is the kernel's filter stage, driven by the plan's
//! [`PlanRelevance`] metadata (see `toorjah-core`): an access to a
//! *terminal* cache — one whose columns feed no domain predicate — is
//! dropped when some fully-populated earlier answer-rule cache sharing a
//! binding variable has no tuple matching the bound value. Such an access
//! can neither complete a satisfying assignment of the answer rule (the
//! shared variable cannot be matched) nor feed any pool (terminal), so
//! answers are provably unchanged; only `accesses_performed` drops. The
//! stage is conservative by construction — static analysis cannot decide
//! this (relevance of individual accesses is a runtime property, and even
//! relation-level relevance is undecidable in general), which is exactly
//! why it lives in the kernel and not the planner.

use std::sync::Arc;
use std::time::Instant;

use toorjah_cache::SharedAccessCache;
use toorjah_catalog::{AccessKey, RelationId, Tuple, Value};
use toorjah_core::{PlanRelevance, QueryPlan};
use toorjah_datalog::FactStore;
use toorjah_obs::{Counter, EventKind, Histogram, Obs};

use crate::dispatch::dispatch_keys;
use crate::{AccessLog, DispatchOptions, DispatchReport, EngineError, SourceProvider};

/// Kernel-level instruments, resolved once per execution so the round loop
/// never takes the registry lock.
struct KernelMetrics {
    rounds: Arc<Counter>,
    requested: Arc<Counter>,
    pruned: Arc<Counter>,
    round_us: Arc<Histogram>,
    delta_size: Arc<Histogram>,
}

impl KernelMetrics {
    fn resolve(obs: Obs) -> Option<Self> {
        let registry = obs.registry()?;
        Some(KernelMetrics {
            rounds: registry.counter("kernel.rounds"),
            requested: registry.counter("kernel.accesses_requested"),
            pruned: registry.counter("kernel.accesses_pruned"),
            round_us: registry.histogram("kernel.round_us"),
            delta_size: registry.histogram("kernel.delta_size"),
        })
    }
}

/// Execution-scoped kernel state: the optional session cache, the
/// provider, the per-query access log (the meta-cache) and the dispatch
/// accounting every evaluator strategy routes its rounds through.
pub(crate) struct Kernel<'a> {
    /// The session cache, when there is one; the log is the execution's
    /// meta-cache either way.
    cache: Option<&'a SharedAccessCache>,
    provider: &'a dyn SourceProvider,
    pub(crate) log: &'a mut AccessLog,
    report: &'a mut DispatchReport,
    dispatch: DispatchOptions,
    max_accesses: usize,
    obs: Obs,
    metrics: Option<KernelMetrics>,
    /// Rounds this kernel has dispatched (empty frontiers excluded), the
    /// `round` stamp on every emitted trace event.
    round_no: u32,
    /// Whether a [`Kernel::fixpoint`] loop is driving the rounds. Inside a
    /// fixpoint, each `round` accumulates its frontier into
    /// `current_delta` and the driver flushes once per step; a standalone
    /// round (e.g. a negation check) flushes its own delta immediately.
    in_fixpoint: bool,
    /// Frontier entries requested by the rounds of the current fixpoint
    /// step — the step's delta. Frontiers contain only *fresh* binding
    /// combinations (see [`fresh_bindings`]), so this is the semi-naive
    /// delta, not a running total.
    current_delta: usize,
}

impl<'a> Kernel<'a> {
    pub(crate) fn new(
        cache: Option<&'a SharedAccessCache>,
        provider: &'a dyn SourceProvider,
        log: &'a mut AccessLog,
        report: &'a mut DispatchReport,
        dispatch: DispatchOptions,
        max_accesses: usize,
        obs: Obs,
    ) -> Self {
        Kernel {
            cache,
            provider,
            log,
            report,
            dispatch,
            max_accesses,
            obs,
            metrics: KernelMetrics::resolve(obs),
            round_no: 0,
            in_fixpoint: false,
            current_delta: 0,
        }
    }

    /// Records one completed delta (a fixpoint step's fresh frontier total,
    /// or a standalone round's frontier) in the dispatch report's schedule,
    /// the `kernel.delta_size` histogram, and the trace.
    fn flush_delta(&mut self, delta: usize) {
        self.report.delta_schedule.push(delta);
        if let Some(m) = &self.metrics {
            m.delta_size.record(delta as u64);
        }
        self.obs
            .trace(self.round_no, || EventKind::DeltaRound { delta });
    }

    /// One kernel round: records the requested frontier, applies the
    /// relevance filter (`keep`, when given), dispatches the survivors,
    /// and returns the extractions aligned with the *requested* frontier —
    /// pruned entries yield empty extractions. The frontier is borrowed all
    /// the way down: the filter leaves a mask, not a copy of the kept keys.
    ///
    /// With no filter the round is byte-identical to handing the frontier
    /// straight to the dispatcher: same accesses, same log order, same
    /// cache hit/miss totals, same batch counts.
    pub(crate) fn round(
        &mut self,
        frontier: &[AccessKey],
        keep: Option<&dyn Fn(&AccessKey) -> bool>,
    ) -> Result<Vec<Arc<[Tuple]>>, EngineError> {
        if frontier.is_empty() {
            return Ok(Vec::new());
        }
        let kept: Option<Vec<bool>> = keep.map(|keep| frontier.iter().map(keep).collect());
        let pruned = kept
            .as_ref()
            .map_or(0, |kept| kept.iter().filter(|&&k| !k).count());
        self.report.frontier_sizes.push(frontier.len());
        self.report.pruned_per_frontier.push(pruned);
        self.report.accesses_pruned += pruned;

        self.round_no += 1;
        let round = self.round_no;
        let started = self.obs.is_enabled().then(Instant::now);
        if let Some(m) = &self.metrics {
            m.rounds.inc();
            m.requested.add(frontier.len() as u64);
            m.pruned.add(pruned as u64);
        }
        if self.obs.is_tracing() {
            self.obs.trace(round, || EventKind::RoundStart {
                requested: frontier.len(),
            });
            // Every requested access gets an `access_requested` event —
            // pruned entries and duplicates included — so the trace can be
            // reconciled request-by-request against the dispatch report.
            for (f, key) in frontier.iter().enumerate() {
                self.obs
                    .trace(round, || EventKind::AccessRequested { key: key.clone() });
                if kept.as_ref().is_some_and(|kept| !kept[f]) {
                    self.obs
                        .trace(round, || EventKind::AccessPruned { key: key.clone() });
                }
            }
        }

        let dispatched = dispatch_keys(
            self.cache,
            self.provider,
            self.log,
            frontier,
            kept.as_deref(),
            self.dispatch,
            self.max_accesses,
            self.report,
            self.obs,
            round,
        );
        if let Some(started) = started {
            let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            if let Some(m) = &self.metrics {
                m.round_us.record(micros);
            }
            self.obs.trace(round, || EventKind::RoundEnd { micros });
        }
        let dispatched = dispatched?;

        // Frontiers are deltas (fresh combinations only): inside a fixpoint
        // the driver flushes once per step, a standalone round is its own
        // delta entry. Either way `sum(delta_schedule)` stays equal to
        // `sum(frontier_sizes)`.
        if self.in_fixpoint {
            self.current_delta += frontier.len();
        } else {
            self.flush_delta(frontier.len());
        }

        Ok(dispatched)
    }

    /// The round-loop driver: calls `step` (with the 1-based round number)
    /// until it reports no change, and returns the number of rounds
    /// executed — including the final barren round that confirmed the
    /// fixpoint.
    pub(crate) fn fixpoint(
        &mut self,
        mut step: impl FnMut(&mut Self, usize) -> Result<bool, EngineError>,
    ) -> Result<usize, EngineError> {
        let was_in_fixpoint = self.in_fixpoint;
        self.in_fixpoint = true;
        let mut rounds = 0;
        let result = loop {
            rounds += 1;
            self.current_delta = 0;
            match step(self, rounds) {
                Err(e) => break Err(e),
                Ok(changed) => {
                    // One delta entry per step — the barren step that
                    // confirms the fixpoint contributes its (zero) delta
                    // too, closing the schedule.
                    let delta = std::mem::take(&mut self.current_delta);
                    self.flush_delta(delta);
                    if !changed {
                        self.obs
                            .trace(self.round_no, || EventKind::FixpointReached { rounds });
                        break Ok(rounds);
                    }
                }
            }
        };
        self.in_fixpoint = was_in_fixpoint;
        result
    }
}

/// One input position's enumeration pool: `values[..old]` were already
/// enumerated in earlier rounds, `values[old..]` are new this round.
pub(crate) struct PoolView<'a> {
    pub values: &'a [Value],
    pub old: usize,
}

/// Appends every *fresh* binding combination over the pools to `out`: the
/// standard pivot decomposition (positions before the pivot take old
/// values, the pivot takes new values, positions after take all), so each
/// combination containing at least one new value is generated exactly once
/// across the whole run. Pools must be non-empty overall (the caller
/// checks); an empty *new* section simply contributes no pivot.
pub(crate) fn fresh_bindings(relation: RelationId, pools: &[PoolView], out: &mut Vec<AccessKey>) {
    let arity = pools.len();
    debug_assert!(arity > 0, "free relations are handled by the caller");
    for pivot in 0..arity {
        let ranges: Vec<std::ops::Range<usize>> = (0..arity)
            .map(|p| match p.cmp(&pivot) {
                std::cmp::Ordering::Less => 0..pools[p].old,
                std::cmp::Ordering::Equal => pools[p].old..pools[p].values.len(),
                std::cmp::Ordering::Greater => 0..pools[p].values.len(),
            })
            .collect();
        if ranges.iter().any(|r| r.is_empty()) {
            continue;
        }
        let mut odometer: Vec<usize> = ranges.iter().map(|r| r.start).collect();
        // One scratch buffer for the whole enumeration: each combination is
        // written in place and snapshotted via `Tuple::from_slice`, which is
        // allocation-free at the arities the paper's schemas use (≤ 3).
        let mut scratch: Vec<Value> = Vec::with_capacity(arity);
        loop {
            scratch.clear();
            scratch.extend(odometer.iter().zip(pools).map(|(&i, pool)| pool.values[i]));
            out.push((relation, Tuple::from_slice(&scratch)));
            let mut pos = 0;
            loop {
                if pos == arity {
                    break;
                }
                odometer[pos] += 1;
                if odometer[pos] < ranges[pos].end {
                    break;
                }
                odometer[pos] = ranges[pos].start;
                pos += 1;
            }
            if pos == arity {
                break;
            }
        }
    }
}

/// The kernel's runtime access-relevance filter over one plan.
///
/// Construction is free (the reachability metadata was computed at plan
/// build time); [`RelevancePruner::keep`] is the per-access membership
/// test against the current fact store.
pub(crate) struct RelevancePruner<'p> {
    relevance: &'p PlanRelevance,
    /// `(probes, pruned)` counters, resolved once at construction; `None`
    /// when metrics are off so `keep` stays branch-cheap.
    counters: Option<(Arc<Counter>, Arc<Counter>)>,
}

impl<'p> RelevancePruner<'p> {
    /// The pruner for a plan, or `None` when the metadata shows nothing is
    /// ever prunable (the filter stage then costs strictly nothing).
    pub(crate) fn for_plan(plan: &'p QueryPlan, obs: Obs) -> Option<Self> {
        plan.relevance.any_prunable().then(|| RelevancePruner {
            relevance: &plan.relevance,
            counters: obs
                .registry()
                .map(|r| (r.counter("relevance.probes"), r.counter("relevance.pruned"))),
        })
    }

    /// Whether accesses collected for this cache can ever be pruned.
    pub(crate) fn cache_prunable(&self, cache_idx: usize) -> bool {
        self.relevance.cache(cache_idx).prunable
    }

    /// `true` when the access must be dispatched: every semi-join partner
    /// of every input position has a tuple matching the bound value.
    /// Partners sit at strictly earlier ordering positions, so their
    /// extensions are final when this runs — a failed probe proves the
    /// access's outputs cannot reach the query head.
    pub(crate) fn keep(&self, cache_idx: usize, binding: &Tuple, facts: &FactStore) -> bool {
        if let Some((probes, _)) = &self.counters {
            probes.inc();
        }
        let semijoins = &self.relevance.cache(cache_idx).semijoins;
        debug_assert_eq!(semijoins.len(), binding.values().len());
        for (value, partners) in binding.values().iter().zip(semijoins) {
            for partner in partners {
                if !facts.has_matching(partner.pred, partner.column, value) {
                    if let Some((_, pruned)) = &self.counters {
                        pruned.inc();
                    }
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InstanceSource;
    use toorjah_catalog::{tuple, Instance, Schema};

    fn sample() -> InstanceSource {
        let schema = Schema::parse("r^io(A, B)").unwrap();
        let db = Instance::with_data(
            &schema,
            [(
                "r",
                vec![tuple!["a", "b1"], tuple!["a", "b2"], tuple!["c", "d"]],
            )],
        )
        .unwrap();
        InstanceSource::new(schema, db)
    }

    #[test]
    fn round_counts_pruned_and_aligns_extractions() {
        let src = sample();
        let r = src.schema().relation_id("r").unwrap();
        let frontier: Vec<AccessKey> = ["a", "c", "zz"].iter().map(|v| (r, tuple![*v])).collect();
        let cache = SharedAccessCache::unbounded();
        let mut log = AccessLog::new();
        let mut report = DispatchReport::default();
        let mut kernel = Kernel::new(
            Some(&cache),
            &src,
            &mut log,
            &mut report,
            DispatchOptions::sequential(),
            usize::MAX,
            Obs::disabled(),
        );
        // Drop everything but the binding "a".
        let keep = |key: &AccessKey| key.1 == tuple!["a"];
        let extractions = kernel.round(&frontier, Some(&keep)).unwrap();
        assert_eq!(extractions.len(), 3);
        assert_eq!(extractions[0].len(), 2, "kept access extracts");
        assert!(extractions[1].is_empty() && extractions[2].is_empty());
        assert_eq!(log.total(), 1, "only the kept access was performed");
        assert_eq!(report.accesses_pruned, 2);
        assert_eq!(report.frontier_sizes, vec![3], "requested size recorded");
        assert_eq!(report.pruned_per_frontier, vec![2]);
        assert_eq!(cache.stats().misses, 1, "pruned keys never reach the cache");
    }

    #[test]
    fn fixpoint_counts_rounds_including_the_barren_one() {
        let src = sample();
        let mut log = AccessLog::new();
        let mut report = DispatchReport::default();
        let mut kernel = Kernel::new(
            None,
            &src,
            &mut log,
            &mut report,
            DispatchOptions::sequential(),
            usize::MAX,
            Obs::disabled(),
        );
        let rounds = kernel.fixpoint(|_, round| Ok(round < 3)).unwrap();
        assert_eq!(rounds, 3);
    }

    #[test]
    fn fresh_bindings_pivot_decomposition() {
        let r = RelationId(0);
        let a = [Value::from("a1"), Value::from("a2")];
        let b = [Value::from("b1"), Value::from("b2"), Value::from("b3")];
        // First round: everything is new.
        let mut out = Vec::new();
        fresh_bindings(
            r,
            &[
                PoolView {
                    values: &a[..1],
                    old: 0,
                },
                PoolView {
                    values: &b[..2],
                    old: 0,
                },
            ],
            &mut out,
        );
        assert_eq!(out.len(), 2, "1×2 fresh combinations");
        // Second round: one new value per pool; only combinations touching
        // a new value appear, each exactly once.
        let mut second = Vec::new();
        fresh_bindings(
            r,
            &[
                PoolView { values: &a, old: 1 },
                PoolView { values: &b, old: 2 },
            ],
            &mut second,
        );
        assert_eq!(second.len(), 2 * 3 - 2, "new total minus old total");
        let mut all: Vec<_> = out.into_iter().chain(second).collect();
        let len = all.len();
        all.dedup();
        assert_eq!(all.len(), len, "no combination is generated twice");
    }
}
