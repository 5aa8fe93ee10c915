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
//! (`crossbeam::thread::scope`).
//!
//! **Two tiers.** The [`AccessLog`] is the execution's meta-cache (§IV):
//! it keeps every performed access with its extraction, so within one
//! execution an access is checked with one probe and never made twice —
//! by any number of threads, since the calling thread classifies the whole
//! frontier before any batch leaves. A session [`SharedAccessCache`], when
//! there is one, is only for sharing across executions and sessions: the
//! accesses the log does not hold go through its single-flight
//! [`BatchLoader`]; without one they go straight to the source.
//!
//! **Determinism.** Extraction results are folded into the [`AccessLog`] and
//! returned to the caller in frontier order, whatever order the workers
//! finished in. Answers, access counts and cache hit/miss totals are
//! therefore invariant in `parallelism` and `batch_size`; only wall-clock
//! (and, for latency-accounted sources, the number of round trips) changes.
//! `tests/parallel.rs` asserts this invariance.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use toorjah_cache::{
    extraction, BatchLoader, BatchLookup, LoadResult, Lookup, LookupOutcome, SharedAccessCache,
};
use toorjah_catalog::{AccessKey, RelationId, Tuple};
use toorjah_obs::{EventKind, Gauge, Histogram, Obs};

use crate::access::Probe;
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

/// Performs every kept access of `frontier` that this execution has not
/// made yet and returns the extractions aligned with the frontier. This is
/// the dispatch stage of the evaluation kernel — evaluators reach it
/// through `crate::kernel::Kernel::round`, which owns the per-round
/// frontier accounting and the relevance filter.
///
/// One pass over the frontier settles each entry with one probe of the
/// log, the execution's meta-cache:
///
/// 1. an entry `kept` marks `false` (pruned) gets an empty extraction and
///    is never looked up;
/// 2. an access the log holds is served from it, as cache-served (a
///    session cache counts it as a hit, as it would have served it);
/// 3. a repeat of an access reserved earlier in the frontier is served, as
///    cache-served, once that access lands;
/// 4. any other access is reserved in the log and joins the current batch.
///
/// Batches are cut from the frontier's distinct requests in request order,
/// [`DispatchOptions::batch_size`] at a time; a batch's one source round
/// trip carries the accesses the log does not hold, and a batch the log
/// serves entirely makes none. Without a session cache a batch goes
/// straight to [`SourceProvider::access_batch`]; with one it goes through
/// the cache's single-flight [`BatchLoader`], so other executions and
/// sessions share its accesses. With [`DispatchOptions::parallelism`] above
/// one, the batches — every one classified by the calling thread — are
/// fanned out over scoped worker threads.
///
/// The budget is enforced with a shared reservation counter seeded from
/// `log.total()`, so no more than `max_accesses` distinct accesses are ever
/// performed regardless of thread interleaving. On failure, every access
/// that *did* reach the source is still recorded in the log before the
/// error is returned — the log reports reality.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dispatch_keys(
    cache: Option<&SharedAccessCache>,
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
    log.open_frontier(frontier.len());
    let base = log.total();

    // `later`: (frontier entry, log position) of every entry served once a
    // reserved access lands. `batches`: the reservations of each batch that
    // has any, as a range of reservation indexes.
    let mut extractions: Vec<Arc<[Tuple]>> = Vec::with_capacity(frontier.len());
    let mut later: Vec<(usize, usize)> = Vec::new();
    let mut batches: Vec<Range<usize>> = Vec::new();
    let mut open_batch = usize::MAX;
    let mut distinct = 0usize;
    for (f, key) in frontier.iter().enumerate() {
        if kept.is_some_and(|kept| !kept[f]) {
            extractions.push(log.nothing());
            continue;
        }
        let (pos, first) = match log.probe_or_reserve(key) {
            Probe::Logged { pos, first } => {
                extractions.push(Arc::clone(log.extraction_at(pos)));
                if let Some(cache) = cache.filter(|_| first) {
                    // The session cache still sees the request: its
                    // counters account for every distinct request of a
                    // frontier, and the entry stays recently used.
                    cache.try_get(key.0, &key.1);
                }
                (None, first)
            }
            Probe::Reserved { pos, new } => {
                later.push((f, pos));
                extractions.push(log.nothing());
                (new.then_some(pos - base), new)
            }
        };
        if !first {
            continue;
        }
        let batch = distinct / batch_size;
        distinct += 1;
        obs.trace(round, || EventKind::AccessDispatched {
            key: key.clone(),
            batch,
        });
        if let Some(at) = pos {
            if batch == open_batch {
                batches.last_mut().expect("the open batch").end = at + 1;
            } else {
                open_batch = batch;
                batches.push(at..at + 1);
            }
        }
    }
    report.batches += distinct.div_ceil(batch_size);
    if let Some(h) = obs.histogram("dispatch.batch_size") {
        for b in 0..distinct.div_ceil(batch_size) {
            h.record((distinct - b * batch_size).min(batch_size) as u64);
        }
    }

    let (keys, slots) = log.reserved();
    let mut landing = Landing {
        landed: vec![Landed::Waiting; keys.len()],
        failure: None,
    };
    let trips = RoundTrips {
        provider,
        performed: AtomicUsize::new(base),
        budget_binds: base.saturating_add(keys.len()) > max_accesses,
        max_accesses,
        clock: obs
            .gauge("dispatch.queue_wait_us")
            .map(|queue_wait| (Instant::now(), queue_wait)),
    };
    let workers = parallelism.min(batches.len());
    if workers <= 1 {
        let mut loader = cache.map(SharedAccessCache::batch_loader);
        for batch in &batches {
            let complete = trips.run(
                loader.as_mut(),
                &keys[batch.clone()],
                |offset, lookup, micros| {
                    landing.settle(slots, batch.start + offset, lookup, micros)
                },
            );
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
                        let mut loader = cache.map(SharedAccessCache::batch_loader);
                        let mut done: Vec<(usize, BatchLookup<EngineError>, u64)> = Vec::new();
                        while !abort.load(Ordering::Relaxed) {
                            let Some(batch) = batches.get(next.fetch_add(1, Ordering::Relaxed))
                            else {
                                break;
                            };
                            let complete = trips.run(
                                loader.as_mut(),
                                &keys[batch.clone()],
                                |offset, lookup, micros| {
                                    done.push((batch.start + offset, lookup, micros));
                                },
                            );
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
        for (i, lookup, micros) in completed {
            landing.settle(slots, i, lookup, micros);
        }
    }
    let Landing { landed, failure } = landing;
    let performed = |i: usize| matches!(landed[i], Landed::Performed { .. });

    // Every kept request in frontier order: hand it the extraction it
    // waited for and its terminal trace event. A request is cache-served
    // unless it is the first request of an access this frontier performed;
    // reservations take positions in first-request order, so the first
    // request of position `p` is the one met while `p` is the next unseen.
    let mut waiting = later.iter().peekable();
    let (mut served, mut next_first) = (0, base);
    for (f, key) in frontier.iter().enumerate() {
        if kept.is_some_and(|kept| !kept[f]) {
            continue;
        }
        let outcome = match waiting.next_if(|(at, _)| *at == f) {
            None => Landed::Served,
            Some(&(_, pos)) => {
                let first = pos == next_first;
                next_first += usize::from(first);
                extractions[f] = Arc::clone(log.extraction_at(pos));
                match landed[pos - base] {
                    Landed::Performed { .. } if !first => Landed::Served,
                    outcome => outcome,
                }
            }
        };
        match outcome {
            Landed::Performed { micros } => obs.trace(round, || EventKind::AccessServedSource {
                key: key.clone(),
                micros,
                tuples: extractions[f].len(),
            }),
            Landed::Served => {
                served += 1;
                obs.trace(round, || EventKind::AccessServedCache { key: key.clone() });
            }
            Landed::Waiting => obs.trace(round, || EventKind::AccessFailed { key: key.clone() }),
        }
    }

    // Propagate the first failure (in request order), once the log holds
    // every access that did reach the source. Unserved accesses without a
    // recorded failure cannot happen with a contract-abiding provider;
    // surface them instead of panicking.
    let failure = match failure {
        Some((_, e)) => Some(e),
        None if landed.iter().any(|l| matches!(l, Landed::Waiting)) => {
            Some(EngineError::SourceFailure {
                relation: "<batch>".to_string(),
                detail: "provider skipped accesses without reporting a failure".to_string(),
            })
        }
        None => None,
    };
    if let Some(err) = failure {
        log.close_frontier(performed);
        return Err(err);
    }

    // Per-source latency histograms, one instrument per provider relation
    // that actually performed accesses this frontier.
    if obs.is_enabled() {
        let mut per_rel: Vec<(RelationId, Arc<Histogram>)> = Vec::new();
        for ((relation, _), landed) in log.reserved().0.iter().zip(&landed) {
            let Landed::Performed { micros } = *landed else {
                continue;
            };
            let at = match per_rel.iter().position(|(rel, _)| rel == relation) {
                Some(at) => at,
                None => {
                    let name = provider.schema().relation(*relation).name();
                    let histogram = obs
                        .histogram(&format!("dispatch.latency_us.{name}"))
                        .expect("enabled metrics resolve histograms");
                    per_rel.push((*relation, histogram));
                    per_rel.len() - 1
                }
            };
            per_rel[at].1.record(micros);
        }
    }
    if let Some(c) = obs.counter("dispatch.performed") {
        c.add((0..landed.len()).filter(|&i| performed(i)).count() as u64);
    }
    if let Some(c) = obs.counter("dispatch.served_cache") {
        c.add(served as u64);
    }
    log.add_cache_served(served);
    log.close_frontier(performed);
    Ok(extractions)
}

/// How a reserved access landed.
#[derive(Clone, Copy)]
enum Landed {
    /// Not (yet) served: never attempted, skipped or failed.
    Waiting,
    /// Performed by this dispatch, with the source latency attributed to it
    /// in µs (0 when metrics are off).
    Performed { micros: u64 },
    /// Served by the session cache: retained, or loaded by a concurrent
    /// caller.
    Served,
}

/// The reservations' outcomes as their batches come back.
struct Landing {
    landed: Vec<Landed>,
    /// The failure of the earliest reservation that failed, and its index.
    failure: Option<(usize, EngineError)>,
}

impl Landing {
    /// Settles reservation `i`, storing what it extracted in its log slot.
    fn settle(
        &mut self,
        slots: &mut [Arc<[Tuple]>],
        i: usize,
        lookup: BatchLookup<EngineError>,
        micros: u64,
    ) {
        match lookup {
            BatchLookup::Served(lookup) => {
                self.landed[i] = if lookup.outcome.loaded() {
                    Landed::Performed { micros }
                } else {
                    Landed::Served
                };
                slots[i] = lookup.tuples;
            }
            BatchLookup::Failed(e) => {
                if self.failure.as_ref().is_none_or(|(first, _)| i < *first) {
                    self.failure = Some((i, e));
                }
            }
            BatchLookup::Skipped => {}
        }
    }
}

/// What every batch of one frontier shares: the provider, the budget
/// reservation and the clock.
struct RoundTrips<'a> {
    provider: &'a dyn SourceProvider,
    /// Distinct accesses performed so far (shared budget reservation).
    performed: AtomicUsize,
    /// Whether the budget can bind within this frontier at all. When the
    /// log plus every reserved access fits, no reservation can fail, so
    /// none is made.
    budget_binds: bool,
    max_accesses: usize,
    /// When dispatch began and the queue-wait gauge; `Some` exactly when
    /// metrics are on, which also turns on per-round-trip latency
    /// attribution.
    clock: Option<(Instant, Arc<Gauge>)>,
}

impl RoundTrips<'_> {
    /// Resolves one batch — through the session cache's `loader`, its
    /// misses loaded in one source round trip, or without one straight
    /// from the source — and hands each outcome to `settle` with its offset
    /// in the batch and its attributed latency. Returns `false` when some
    /// request was not served.
    fn run(
        &self,
        loader: Option<&mut BatchLoader<'_>>,
        batch: &[AccessKey],
        mut settle: impl FnMut(usize, BatchLookup<EngineError>, u64),
    ) -> bool {
        let share = Cell::new(0u64);
        let mut complete = true;
        let mut resolve = |offset, lookup: BatchLookup<EngineError>| {
            complete &= lookup.served().is_some();
            settle(offset, lookup, share.get());
        };
        match loader {
            Some(loader) => loader.load(batch, |led| self.round_trip(led, &share), resolve),
            None => {
                for (offset, result) in self.round_trip(batch, &share).into_iter().enumerate() {
                    let lookup = match result {
                        LoadResult::Loaded(tuples) => BatchLookup::Served(Lookup {
                            tuples: extraction(tuples),
                            outcome: LookupOutcome::Loaded,
                        }),
                        LoadResult::Failed(e) => BatchLookup::Failed(e),
                        LoadResult::Skipped => BatchLookup::Skipped,
                    };
                    resolve(offset, lookup);
                }
            }
        }
        complete
    }

    /// One source round trip for `led`. Reserves budget for every key, in
    /// order; the first key that cannot be reserved fails the batch there,
    /// and the remainder is never attempted. With metrics on, the clock is
    /// read once as the round trip starts — the queue wait so far — and
    /// once as it ends, and the round trip's wall-clock is split evenly
    /// over the keys it attempted, into `share`.
    fn round_trip(&self, led: &[AccessKey], share: &Cell<u64>) -> Vec<AccessResult> {
        let started = self.clock.as_ref().map(|(dispatch_start, queue_wait)| {
            let now = Instant::now();
            queue_wait.record_max(micros(now.duration_since(*dispatch_start)));
            now
        });
        let mut attempt = led.len();
        let mut busted = false;
        if self.budget_binds {
            for j in 0..led.len() {
                if !reserve(&self.performed, self.max_accesses) {
                    attempt = j;
                    busted = true;
                    break;
                }
            }
        }
        let mut out = self.provider.access_batch(&led[..attempt]);
        if let Some(started) = started {
            share.set(micros(started.elapsed()) / attempt.max(1) as u64);
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

/// Whole microseconds in `elapsed`, saturating instead of truncating.
fn micros(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX)
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
        cache: Option<&SharedAccessCache>,
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
            for session in [None, Some(SharedAccessCache::unbounded())] {
                let mut log = AccessLog::new();
                let mut report = DispatchReport::default();
                let extractions = round(
                    session.as_ref(),
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
                if let Some(cache) = &session {
                    assert_eq!(cache.stats().misses, 3, "the session cache saw each access");
                }
                runs.push((
                    log.stats(),
                    log.sequence().to_vec(),
                    log.cache_served(),
                    report,
                    extractions,
                ));
            }
        }
        for run in &runs[1..] {
            assert_eq!(run.0, runs[0].0, "stats invariant");
            assert_eq!(run.1, runs[0].1, "log order invariant");
            assert_eq!(run.2, runs[0].2, "cache-served invariant");
            assert_eq!(run.3.frontier_sizes, runs[0].3.frontier_sizes);
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
        let mut log = AccessLog::new();
        let mut report = DispatchReport::default();
        let err = round(
            None,
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
        let mut log = AccessLog::new();
        let mut report = DispatchReport::default();
        let options = DispatchOptions::parallel(2).with_batch_size(2);
        for values in [&["a", "b", "c"][..], &["d"][..]] {
            round(
                None,
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

    /// A repeated access is served from the log, the meta-cache; distinct
    /// bindings are distinct accesses.
    #[test]
    fn access_is_memoized() {
        let src = sample();
        let r = src.schema().relation_id("r").unwrap();
        let (mut log, mut report) = (AccessLog::new(), DispatchReport::default());
        let frontier = frontier_of(r, &["a"]);
        let options = DispatchOptions::sequential();
        let first = round(None, &src, &mut log, &frontier, options, 10, &mut report).unwrap();
        let second = round(None, &src, &mut log, &frontier, options, 10, &mut report).unwrap();
        assert_eq!((first[0].len(), &second), (2, &first));
        assert_eq!(
            (log.total(), log.cache_served()),
            (1, 1),
            "the repeat is served"
        );
        assert!(log.contains(r, &tuple!["a"]) && !log.contains(r, &tuple!["b"]));
    }

    #[test]
    fn distinct_bindings_are_distinct_accesses() {
        let src = sample();
        let r = src.schema().relation_id("r").unwrap();
        let (mut log, mut report) = (AccessLog::new(), DispatchReport::default());
        let frontier = frontier_of(r, &["a", "b"]);
        let options = DispatchOptions::sequential();
        round(None, &src, &mut log, &frontier, options, 10, &mut report).unwrap();
        assert_eq!(log.total(), 2);
    }

    #[test]
    fn failed_accesses_are_not_memoized() {
        let src = crate::FlakySource::new(sample(), 1); // always fails
        let r = src.schema().relation_id("r").unwrap();
        let (mut log, mut report) = (AccessLog::new(), DispatchReport::default());
        let frontier = frontier_of(r, &["a", "c", "a"]);
        for options in [DispatchOptions::sequential(), DispatchOptions::parallel(2)] {
            assert!(round(None, &src, &mut log, &frontier, options, 10, &mut report).is_err());
            assert_eq!((log.total(), log.cache_served()), (0, 0));
        }
    }

    /// Over a session cache, one execution's accesses are free for the
    /// next: its log records nothing and counts the request cache-served.
    #[test]
    fn over_a_shared_handle_accesses_are_shared() {
        let src = sample();
        let r = src.schema().relation_id("r").unwrap();
        let shared = SharedAccessCache::unbounded();
        let frontier = frontier_of(r, &["a"]);
        let (options, mut report) = (DispatchOptions::sequential(), DispatchReport::default());
        for performed in [1, 0] {
            let mut log = AccessLog::new();
            let cache = Some(&shared);
            let tuples = round(cache, &src, &mut log, &frontier, options, 10, &mut report);
            assert_eq!(tuples.unwrap()[0].len(), 2);
            assert_eq!(
                (log.total(), log.cache_served()),
                (performed, 1 - performed)
            );
        }
    }
}
