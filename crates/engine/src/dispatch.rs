//! Frontier-batched parallel access dispatch.
//!
//! The paper's cost model makes the *set* of accesses the only quantity that
//! matters (§IV): the answer computed by a plan is determined by which
//! accesses are performed, never by the order they are performed in — the
//! observation "Determining Relevance of Accesses at Runtime"
//! (Benedikt–Gottlob–Senellart) and the result-bounded-interface line of
//! work (Amarilli–Benedikt) both build on. This module exploits that
//! freedom for wall-clock: the evaluation kernel (`crate::kernel`)
//! *collects* the frontier of new `(relation, binding)` pairs each round
//! derives, filters it for runtime relevance, and hands the survivors to
//! [`dispatch_keys`], which chunks them into batches of
//! [`DispatchOptions::batch_size`] and fans the batches out over
//! [`DispatchOptions::parallelism`] scoped worker threads
//! (`crossbeam::thread::scope`). Every load is routed through
//! [`SharedAccessCache::get_or_load_batch`]'s single-flight path, so access
//! deduplication, budget enforcement and cross-query sharing survive
//! concurrency unchanged — no access is ever repeated, by any number of
//! threads.
//!
//! **Determinism.** Extraction results are folded into the [`AccessLog`] and
//! returned to the caller in frontier order, whatever order the workers
//! finished in. Answers, access counts and cache hit/miss totals are
//! therefore invariant in `parallelism` and `batch_size`; only wall-clock
//! (and, for latency-accounted sources, the number of round trips) changes.
//! `tests/parallel.rs` asserts this invariance.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use toorjah_cache::{BatchLoader, BatchLookup, LoadResult, SharedAccessCache};
use toorjah_catalog::{AccessKey, FastMap, RelationId, Tuple};
use toorjah_obs::{EventKind, Gauge, Histogram, Obs};

use crate::{AccessLog, AccessResult, EngineError, SourceProvider};

/// How a frontier of accesses is fanned out; threaded through
/// [`crate::ExecOptions`] and [`crate::NaiveOptions`] into every evaluator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DispatchOptions {
    /// Number of worker threads the frontier's batches are spread over.
    /// `1` (the default) keeps dispatch on the calling thread — the
    /// sequential path, byte-for-byte the paper's execution.
    pub parallelism: usize,
    /// Number of accesses handed to one source round trip
    /// ([`SourceProvider::access_batch`]) at once. `1` (the default)
    /// reproduces one-access-per-round-trip sources.
    pub batch_size: usize,
}

impl Default for DispatchOptions {
    fn default() -> Self {
        DispatchOptions {
            parallelism: 1,
            batch_size: 1,
        }
    }
}

impl DispatchOptions {
    /// The sequential path: one access per round trip, on the calling
    /// thread. This is the default.
    pub fn sequential() -> Self {
        DispatchOptions::default()
    }

    /// Fan accesses out over `parallelism` worker threads (round trips stay
    /// one access each; combine with [`DispatchOptions::with_batch_size`]
    /// for batched round trips).
    pub fn parallel(parallelism: usize) -> Self {
        DispatchOptions {
            parallelism,
            batch_size: 1,
        }
    }

    /// Replaces the batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    fn effective(self) -> (usize, usize) {
        (self.parallelism.max(1), self.batch_size.max(1))
    }
}

/// What the dispatcher did during one execution: per-round frontier sizes
/// and batch counts, surfaced in [`crate::ExecutionReport`],
/// [`crate::NaiveResult`], [`crate::UnionReport`] and the system layer's
/// `AskResult`.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct DispatchReport {
    /// Size of every non-empty frontier the kernel collected, in dispatch
    /// order — one entry per evaluator round that had work. Sizes are as
    /// *requested* by the evaluator, before relevance pruning.
    pub frontier_sizes: Vec<usize>,
    /// Total number of batches the frontiers were chunked into (each batch
    /// is at most one source round trip; batches fully served by the cache
    /// never reach the source).
    pub batches: usize,
    /// Accesses the kernel's runtime relevance pruner dropped before
    /// dispatch — requested accesses whose outputs provably could not
    /// reach the query head. In the frontier-dispatched modes
    /// `accesses_performed + accesses_served_by_cache + accesses_pruned`
    /// equals [`DispatchReport::total_requested`].
    pub accesses_pruned: usize,
    /// Per-round pruned counts, aligned with
    /// [`DispatchReport::frontier_sizes`] (all zeros when pruning is
    /// disabled).
    pub pruned_per_frontier: Vec<usize>,
    /// Extracted tuples the `Magic` tier's demand filter kept out of
    /// terminal caches — derivations whose shared-variable value provably
    /// cannot join the answer rule. Always zero below
    /// `PruningLevel::Magic`.
    pub derivations_suppressed: usize,
    /// The semi-naive delta schedule: fresh frontier entries per evaluator
    /// fixpoint step (one entry per step, including the barren step's `0`)
    /// and per standalone round. Frontiers enumerate only binding
    /// combinations new since the previous round, so these are deltas and
    /// their sum equals [`DispatchReport::total_requested`].
    pub delta_schedule: Vec<usize>,
}

impl DispatchReport {
    /// Number of frontiers dispatched (evaluator rounds with work).
    pub fn frontiers(&self) -> usize {
        self.frontier_sizes.len()
    }

    /// Total accesses requested across all frontiers (before cache dedup).
    pub fn total_requested(&self) -> usize {
        self.frontier_sizes.iter().sum()
    }

    /// The largest single frontier — the available parallelism ceiling.
    pub fn largest_frontier(&self) -> usize {
        self.frontier_sizes.iter().copied().max().unwrap_or(0)
    }

    /// Folds another report into this one (union execution, negation
    /// levels).
    pub fn merge(&mut self, other: &DispatchReport) {
        self.frontier_sizes.extend_from_slice(&other.frontier_sizes);
        self.batches += other.batches;
        self.accesses_pruned += other.accesses_pruned;
        self.pruned_per_frontier
            .extend_from_slice(&other.pruned_per_frontier);
        self.derivations_suppressed += other.derivations_suppressed;
        self.delta_schedule.extend_from_slice(&other.delta_schedule);
    }

    /// One-line rendering for reports and the CLI.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "{} frontier(s), largest {}, {} batch(es)",
            self.frontiers(),
            self.largest_frontier(),
            self.batches
        );
        if self.accesses_pruned > 0 {
            out.push_str(&format!(", {} pruned", self.accesses_pruned));
        }
        if self.derivations_suppressed > 0 {
            out.push_str(&format!(", {} suppressed", self.derivations_suppressed));
        }
        if !self.delta_schedule.is_empty() {
            out.push_str(", deltas [");
            for (i, d) in self.delta_schedule.iter().take(12).enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                out.push_str(&d.to_string());
            }
            if self.delta_schedule.len() > 12 {
                out.push_str(" …");
            }
            out.push(']');
        }
        out
    }
}

/// Performs every kept access of `frontier` through the shared cache and
/// returns the extractions aligned with the frontier — entries `kept`
/// marks `false` (pruned by the kernel's relevance filter) extract nothing
/// and never reach the cache. This is the dispatch stage of the evaluation
/// kernel — evaluators reach it through `crate::kernel::Kernel::round`,
/// which owns the per-round frontier accounting and the relevance filter.
///
/// Keys are borrowed from the frontier throughout; the log stores the one
/// copy of each performed access. Duplicate keys are loaded once; later
/// occurrences share the extraction and are logged as cache-served, exactly
/// as under one-at-a-time dispatch. The budget is enforced with a shared
/// reservation counter seeded from `log.total()`, so no more than
/// `max_accesses` distinct accesses are ever performed regardless of thread
/// interleaving; accesses the log already contains (re-performed after an
/// eviction) stay exempt, mirroring the sequential path. On failure, every
/// access that *did* reach the source is still folded into the log before
/// the error is returned — the log reports reality.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dispatch_keys(
    cache: &SharedAccessCache,
    provider: &dyn SourceProvider,
    log: &mut AccessLog,
    frontier: &[AccessKey],
    kept: Option<&[bool]>,
    options: DispatchOptions,
    max_accesses: usize,
    report: &mut DispatchReport,
    obs: Obs,
    round: u32,
) -> Result<Vec<Arc<[Tuple]>>, EngineError> {
    let (parallelism, batch_size) = options.effective();

    // Deduplicate the kept entries, first occurrence first: `slots[f]` is
    // frontier entry `f`'s index into `unique`, or `PRUNED`.
    let mut unique: Vec<&AccessKey> = Vec::with_capacity(frontier.len());
    let mut slots: Vec<u32> = Vec::with_capacity(frontier.len());
    {
        let mut slot_of: FastMap<&AccessKey, u32> =
            FastMap::with_capacity_and_hasher(frontier.len(), Default::default());
        for (f, key) in frontier.iter().enumerate() {
            if kept.is_some_and(|kept| !kept[f]) {
                slots.push(PRUNED);
                continue;
            }
            slots.push(*slot_of.entry(key).or_insert_with(|| {
                unique.push(key);
                u32::try_from(unique.len() - 1)
                    .ok()
                    .filter(|&slot| slot != PRUNED)
                    .expect("frontiers hold fewer than 2^32 - 1 accesses")
            }));
        }
    }
    if unique.is_empty() {
        let empty: Arc<[Tuple]> = Vec::new().into();
        return Ok(slots.iter().map(|_| Arc::clone(&empty)).collect());
    }

    report.batches += unique.len().div_ceil(batch_size);
    if let Some(h) = obs.histogram("dispatch.batch_size") {
        for chunk in unique.chunks(batch_size) {
            h.record(chunk.len() as u64);
        }
    }
    if obs.is_tracing() {
        for (u, key) in unique.iter().enumerate() {
            obs.trace(round, || EventKind::AccessDispatched {
                key: (*key).clone(),
                batch: u / batch_size,
            });
        }
    }

    let trips = RoundTrips {
        provider,
        log,
        performed: AtomicUsize::new(log.total()),
        budget_binds: log.total().saturating_add(unique.len()) > max_accesses,
        max_accesses,
        queue_wait: obs.gauge("dispatch.queue_wait_us"),
        dispatch_start: obs.is_enabled().then(Instant::now),
    };
    let mut outcomes = Outcomes {
        served: unique.iter().map(|_| None).collect(),
        failure: None,
    };
    let chunks: Vec<&[&AccessKey]> = unique.chunks(batch_size).collect();
    let workers = parallelism.min(chunks.len());
    if workers <= 1 {
        let mut loader = cache.batch_loader();
        for (b, chunk) in chunks.iter().enumerate() {
            let complete = trips.run(&mut loader, chunk, |offset, lookup, micros| {
                outcomes.settle(b * batch_size + offset, lookup, micros);
            });
            if !complete {
                break;
            }
        }
    } else {
        let next = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let completed = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut loader = cache.batch_loader();
                        let mut done: Vec<(usize, BatchLookup<EngineError>, u64)> = Vec::new();
                        loop {
                            if abort.load(Ordering::Relaxed) {
                                break;
                            }
                            let b = next.fetch_add(1, Ordering::Relaxed);
                            let Some(chunk) = chunks.get(b) else {
                                break;
                            };
                            let complete =
                                trips.run(&mut loader, chunk, |offset, lookup, micros| {
                                    done.push((b * batch_size + offset, lookup, micros));
                                });
                            if !complete {
                                abort.store(true, Ordering::Relaxed);
                            }
                        }
                        done
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("dispatch worker panicked"))
                .collect::<Vec<_>>()
        })
        .expect("dispatch scope");
        for (u, lookup, micros) in completed {
            outcomes.settle(u, lookup, micros);
        }
    }
    let Outcomes { served, failure } = outcomes;

    // Fold reality into the log first — every access that reached the
    // source is recorded (in deterministic first-occurrence order), even
    // when a sibling batch failed.
    for (key, served) in unique.iter().zip(&served) {
        if let Some(served) = served.as_ref().filter(|s| s.loaded) {
            log.record(key.0, key.1.clone());
            log.record_extracted(key.0, served.tuples.iter());
        }
    }
    // Propagate the first failure (in frontier order). Unserved entries
    // without a recorded failure cannot happen with a contract-abiding
    // provider; surface them instead of panicking.
    let failure = match failure {
        Some((_, e)) => Some(e),
        None if served.iter().any(Option::is_none) => Some(EngineError::SourceFailure {
            relation: "<batch>".to_string(),
            detail: "provider skipped accesses without reporting a failure".to_string(),
        }),
        None => None,
    };
    if let Some(err) = failure {
        // The trace reports reality before the error surfaces: every
        // request still gets its terminal event — served outcomes as such,
        // everything else as failed.
        if obs.is_tracing() {
            let mut first_unseen = 0u32;
            for &slot in slots.iter().filter(|&&slot| slot != PRUNED) {
                let first = slot == first_unseen;
                first_unseen += u32::from(first);
                let key = unique[slot as usize];
                match &served[slot as usize] {
                    Some(s) if first && s.loaded => {
                        obs.trace(round, || EventKind::AccessServedSource {
                            key: key.clone(),
                            micros: s.micros,
                            tuples: s.tuples.len(),
                        });
                    }
                    Some(_) => {
                        obs.trace(round, || EventKind::AccessServedCache { key: key.clone() })
                    }
                    None => obs.trace(round, || EventKind::AccessFailed { key: key.clone() }),
                }
            }
        }
        return Err(err);
    }

    // Per-source latency histograms, one instrument per provider relation
    // that actually performed accesses this frontier.
    if obs.is_enabled() {
        let mut per_rel: Vec<(RelationId, Arc<Histogram>)> = Vec::new();
        for (key, served) in unique.iter().zip(&served) {
            let Some(served) = served.as_ref().filter(|s| s.loaded) else {
                continue;
            };
            let at = match per_rel.iter().position(|(rel, _)| *rel == key.0) {
                Some(at) => at,
                None => {
                    let name = provider.schema().relation(key.0).name();
                    let histogram = obs
                        .histogram(&format!("dispatch.latency_us.{name}"))
                        .expect("enabled metrics resolve histograms");
                    per_rel.push((key.0, histogram));
                    per_rel.len() - 1
                }
            };
            per_rel[at].1.record(served.micros);
        }
    }
    let performed_ctr = obs.counter("dispatch.performed");
    let served_cache_ctr = obs.counter("dispatch.served_cache");

    // Success: account cache service per *request* (duplicates and warm
    // hits are free under the set semantics) and hand back the extractions
    // aligned with the frontier. A unique key's first occurrence is the
    // next one not yet seen, since `unique` is in first-occurrence order.
    let mut pruned_extraction: Option<Arc<[Tuple]>> = None;
    let mut first_unseen = 0u32;
    let mut extractions = Vec::with_capacity(frontier.len());
    for &slot in &slots {
        if slot == PRUNED {
            // Pruned entries extract nothing, by construction of the
            // relevance filter.
            extractions.push(Arc::clone(
                pruned_extraction.get_or_insert_with(|| Vec::new().into()),
            ));
            continue;
        }
        let first = slot == first_unseen;
        first_unseen += u32::from(first);
        let key = unique[slot as usize];
        let served = served[slot as usize].as_ref().expect("checked above");
        if first && served.loaded {
            if let Some(c) = &performed_ctr {
                c.inc();
            }
            obs.trace(round, || EventKind::AccessServedSource {
                key: key.clone(),
                micros: served.micros,
                tuples: served.tuples.len(),
            });
        } else {
            log.record_cache_served();
            if let Some(c) = &served_cache_ctr {
                c.inc();
            }
            obs.trace(round, || EventKind::AccessServedCache { key: key.clone() });
        }
        extractions.push(Arc::clone(&served.tuples));
    }
    Ok(extractions)
}

/// The `slots` entry of a frontier entry the relevance filter pruned.
const PRUNED: u32 = u32::MAX;

/// A served unique key.
struct Served {
    tuples: Arc<[Tuple]>,
    /// Whether this dispatch performed the access (not a cache hit).
    loaded: bool,
    /// The source latency attributed to the access, in µs (0 when it was
    /// not performed here or metrics are off).
    micros: u64,
}

/// What became of each unique key, in first-occurrence order.
struct Outcomes {
    served: Vec<Option<Served>>,
    /// The failure with the smallest unique index, and that index.
    failure: Option<(usize, EngineError)>,
}

impl Outcomes {
    fn settle(&mut self, u: usize, lookup: BatchLookup<EngineError>, micros: u64) {
        match lookup {
            BatchLookup::Served(lookup) => {
                let loaded = lookup.outcome.loaded();
                self.served[u] = Some(Served {
                    tuples: lookup.tuples,
                    loaded,
                    micros: if loaded { micros } else { 0 },
                });
            }
            BatchLookup::Failed(e) => {
                if self.failure.as_ref().is_none_or(|(first, _)| u < *first) {
                    self.failure = Some((u, e));
                }
            }
            BatchLookup::Skipped => {}
        }
    }
}

/// What every batch of one frontier shares: the provider, the budget
/// reservation and the queue-wait probe.
struct RoundTrips<'a> {
    provider: &'a dyn SourceProvider,
    /// The log as of the frontier's start: its accesses are exempt from the
    /// budget.
    log: &'a AccessLog,
    /// Distinct accesses performed so far (shared budget reservation).
    performed: AtomicUsize,
    /// Whether the budget can bind within this frontier at all. When the
    /// log plus every unique key fits, no reservation can fail, so neither
    /// the reservations nor the exemption checks are made.
    budget_binds: bool,
    max_accesses: usize,
    queue_wait: Option<Arc<Gauge>>,
    /// When dispatch began; `Some` exactly when metrics are on, which also
    /// turns on per-round-trip latency attribution.
    dispatch_start: Option<Instant>,
}

impl RoundTrips<'_> {
    /// Resolves one batch through the cache, its misses loaded in one
    /// source round trip; hands each outcome to `settle` with its offset in
    /// the batch and its attributed latency. Returns `false` when some
    /// request was not served.
    fn run(
        &self,
        loader: &mut BatchLoader<'_>,
        batch: &[&AccessKey],
        mut settle: impl FnMut(usize, BatchLookup<EngineError>, u64),
    ) -> bool {
        let share = Cell::new(0u64);
        let mut complete = true;
        loader.load(
            batch,
            |led| self.round_trip(led, &share),
            |offset, lookup| {
                complete &= lookup.served().is_some();
                settle(offset, lookup, share.get());
            },
        );
        complete
    }

    /// One source round trip for the keys a batch leads. Reserves budget
    /// for every non-exempt key, in order; the first key that cannot be
    /// reserved fails the batch there, and the remainder is never
    /// attempted. With metrics on, the round trip's wall-clock is split
    /// evenly over the keys it attempted, into `share`.
    fn round_trip(&self, led: &[AccessKey], share: &Cell<u64>) -> Vec<AccessResult> {
        if let (Some(g), Some(t0)) = (&self.queue_wait, &self.dispatch_start) {
            g.record_max(micros_since(t0));
        }
        let mut attempt = led.len();
        let mut busted = false;
        if self.budget_binds {
            for (j, (relation, binding)) in led.iter().enumerate() {
                if self.log.contains(*relation, binding) {
                    continue;
                }
                if !reserve(&self.performed, self.max_accesses) {
                    attempt = j;
                    busted = true;
                    break;
                }
            }
        }
        let load_start = self.dispatch_start.map(|_| Instant::now());
        let mut out = self.provider.access_batch(&led[..attempt]);
        if let Some(start) = &load_start {
            share.set(micros_since(start) / attempt.max(1) as u64);
        }
        out.truncate(attempt);
        if busted {
            out.push(LoadResult::Failed(EngineError::AccessBudgetExceeded {
                limit: self.max_accesses,
            }));
        }
        while out.len() < led.len() {
            out.push(LoadResult::Skipped);
        }
        out
    }
}

/// Microseconds elapsed since `start`, saturating instead of truncating.
fn micros_since(start: &Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Reserves one unit of access budget; `false` when the budget is
/// exhausted.
fn reserve(counter: &AtomicUsize, max: usize) -> bool {
    let mut n = counter.load(Ordering::Relaxed);
    loop {
        if n >= max {
            return false;
        }
        match counter.compare_exchange_weak(n, n + 1, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return true,
            Err(current) => n = current,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Kernel;
    use crate::InstanceSource;
    use toorjah_catalog::{tuple, Instance, RelationId, Schema};

    /// One unfiltered kernel round — the path every evaluator takes.
    fn round(
        cache: &SharedAccessCache,
        provider: &dyn SourceProvider,
        log: &mut AccessLog,
        frontier: &[AccessKey],
        options: DispatchOptions,
        max_accesses: usize,
        report: &mut DispatchReport,
    ) -> Result<Vec<Arc<[Tuple]>>, EngineError> {
        Kernel::new(
            cache,
            provider,
            log,
            report,
            options,
            max_accesses,
            Obs::disabled(),
        )
        .round(frontier, None)
    }

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

    fn frontier_of(r: RelationId, values: &[&str]) -> Vec<AccessKey> {
        values.iter().map(|v| (r, tuple![*v])).collect()
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let src = sample();
        let r = src.schema().relation_id("r").unwrap();
        let frontier = frontier_of(r, &["a", "c", "zz", "a"]);
        let mut runs = Vec::new();
        for options in [
            DispatchOptions::sequential(),
            DispatchOptions::parallel(4),
            DispatchOptions::parallel(16).with_batch_size(2),
        ] {
            let cache = SharedAccessCache::unbounded();
            let mut log = AccessLog::new();
            let mut report = DispatchReport::default();
            let extractions = round(
                &cache,
                &src,
                &mut log,
                &frontier,
                options,
                usize::MAX,
                &mut report,
            )
            .unwrap();
            assert_eq!(extractions.len(), 4);
            assert_eq!(
                extractions[0], extractions[3],
                "duplicate shares extraction"
            );
            runs.push((
                log.stats(),
                log.sequence().to_vec(),
                log.cache_served(),
                cache.stats().misses,
                extractions,
            ));
        }
        for run in &runs[1..] {
            assert_eq!(run.0, runs[0].0, "stats invariant");
            assert_eq!(run.1, runs[0].1, "log order invariant");
            assert_eq!(run.2, runs[0].2, "cache-served invariant");
            assert_eq!(run.3, runs[0].3, "cache misses invariant");
            assert_eq!(run.4, runs[0].4, "extractions invariant");
        }
        assert_eq!(runs[0].0.total_accesses, 3, "3 distinct accesses");
        assert_eq!(runs[0].2, 1, "the duplicate was cache-served");
    }

    #[test]
    fn budget_is_enforced_under_parallel_dispatch() {
        let src = sample();
        let r = src.schema().relation_id("r").unwrap();
        let frontier = frontier_of(r, &["a", "b", "c", "d", "e", "f", "g", "h"]);
        let cache = SharedAccessCache::unbounded();
        let mut log = AccessLog::new();
        let mut report = DispatchReport::default();
        let err = round(
            &cache,
            &src,
            &mut log,
            &frontier,
            DispatchOptions::parallel(4),
            3,
            &mut report,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            EngineError::AccessBudgetExceeded { limit: 3 }
        ));
        assert!(
            log.total() <= 3,
            "never more than the budget is performed, got {}",
            log.total()
        );
    }

    #[test]
    fn report_counts_frontiers_and_batches() {
        let src = sample();
        let r = src.schema().relation_id("r").unwrap();
        let cache = SharedAccessCache::unbounded();
        let mut log = AccessLog::new();
        let mut report = DispatchReport::default();
        let options = DispatchOptions::parallel(2).with_batch_size(2);
        for values in [&["a", "b", "c"][..], &["d"][..]] {
            round(
                &cache,
                &src,
                &mut log,
                &frontier_of(r, values),
                options,
                usize::MAX,
                &mut report,
            )
            .unwrap();
        }
        assert_eq!(report.frontier_sizes, vec![3, 1]);
        assert_eq!(report.frontiers(), 2);
        assert_eq!(report.batches, 3, "ceil(3/2) + ceil(1/2)");
        assert_eq!(report.largest_frontier(), 3);
        assert_eq!(report.total_requested(), 4);
        assert!(report.summary().contains("2 frontier(s)"));
    }
}
