//! Source providers: the remote-source abstraction.
//!
//! The paper's Toorjah accesses remote web/legacy sources through wrappers
//! (§V, Fig. 5); here a [`SourceProvider`] answers accesses from an
//! in-memory instance, optionally accounting a per-access latency
//! ([`LatencySource`], simulating the slow sources that make access count
//! the dominant cost) or injecting failures ([`FlakySource`], for tests).
//! The substitution of real remote sources by indexed in-memory relations is
//! documented in DESIGN.md: every reported metric is an access count, which
//! is invariant under this substitution.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use toorjah_cache::LoadResult;
use toorjah_catalog::{AccessKey, Instance, RelationId, Schema, Tuple};

use crate::EngineError;

/// The per-request outcome of a batched access round trip; see
/// [`SourceProvider::access_batch`]. This is [`toorjah_cache::LoadResult`]
/// instantiated at the engine's error type, so batch extractions flow into
/// [`toorjah_cache::SharedAccessCache::get_or_load_batch`] without mapping.
pub type AccessResult = LoadResult<EngineError>;

/// Answers accesses (single-atom CQs with bound input attributes) against
/// relations with access limitations.
pub trait SourceProvider: Send + Sync {
    /// The schema of the provided relations.
    fn schema(&self) -> &Schema;

    /// Performs an access: returns all tuples of `relation` whose input
    /// positions equal `binding` (one value per input position, in order).
    fn access(&self, relation: RelationId, binding: &Tuple) -> Result<Vec<Tuple>, EngineError>;

    /// Performs a *batch* of accesses in one round trip, returning one
    /// [`AccessResult`] per request, in request order.
    ///
    /// The default delegates to [`SourceProvider::access`] sequentially and
    /// **stops at the first failure**: the failing request reports
    /// `Failed`, every request after it reports `Skipped` (never attempted)
    /// — so a caller's access accounting only ever sees accesses whose
    /// tuples were actually extracted, exactly as under one-at-a-time
    /// dispatch. Wrappers with a real batched endpoint (or a per-round-trip
    /// cost model, like [`LatencySource`]) override this to pay the round
    /// trip once for the whole batch.
    fn access_batch(&self, requests: &[AccessKey]) -> Vec<AccessResult> {
        let mut out = Vec::with_capacity(requests.len());
        let mut failed = false;
        for (relation, binding) in requests {
            if failed {
                out.push(LoadResult::Skipped);
                continue;
            }
            match self.access(*relation, binding) {
                Ok(tuples) => out.push(LoadResult::Loaded(tuples)),
                Err(e) => {
                    failed = true;
                    out.push(LoadResult::Failed(e));
                }
            }
        }
        out
    }

    /// The full extension of a relation, bypassing the access pattern — the
    /// oracle used by completeness checking ([Li, VLDB J. 2003] *stability*).
    /// Remote sources cannot support this; the default returns `None`.
    fn full_scan(&self, relation: RelationId) -> Option<Vec<Tuple>> {
        let _ = relation;
        None
    }
}

/// An in-memory provider over a [`toorjah_catalog::Instance`].
#[derive(Clone, Debug)]
pub struct InstanceSource {
    schema: Schema,
    instance: Instance,
}

impl InstanceSource {
    /// Wraps a schema and an instance of it.
    pub fn new(schema: Schema, instance: Instance) -> Self {
        InstanceSource { schema, instance }
    }

    /// The wrapped instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }
}

impl SourceProvider for InstanceSource {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn access(&self, relation: RelationId, binding: &Tuple) -> Result<Vec<Tuple>, EngineError> {
        Ok(self.instance.access(relation, binding)?)
    }

    fn full_scan(&self, relation: RelationId) -> Option<Vec<Tuple>> {
        Some(self.instance.full_extension(relation).to_vec())
    }
}

/// A latency round trip: one [`SourceProvider::access_batch`] call on a
/// [`LatencySource`] costs a single latency, however many requests it
/// carries — the requests travel concurrently, like a batched wrapper
/// endpoint. [`LatencySource::simulated_cost`] therefore measures the
/// *critical path* of a batched execution (number of round trips × latency),
/// not the summed per-access latency.
impl<S: SourceProvider> LatencySource<S> {
    fn charge_round_trip(&self) {
        self.accumulated_nanos
            .fetch_add(self.latency.as_nanos() as u64, Ordering::Relaxed);
        if self.sleep {
            std::thread::sleep(self.latency);
        }
    }
}

/// A wrapper accounting a fixed latency per access.
///
/// Latency is *virtual* by default: it accumulates into a counter readable
/// via [`LatencySource::simulated_cost`], so experiments over hundreds of
/// thousands of accesses finish quickly while still reporting realistic
/// shapes (Fig. 11). With [`LatencySource::with_real_sleep`] the wrapper
/// additionally sleeps per round trip, which the streaming demo uses to make
/// time-to-first-answer observable.
pub struct LatencySource<S> {
    inner: S,
    latency: Duration,
    sleep: bool,
    accumulated_nanos: AtomicU64,
}

impl<S: SourceProvider> LatencySource<S> {
    /// Wraps `inner` with a per-access virtual latency.
    pub fn new(inner: S, latency: Duration) -> Self {
        LatencySource {
            inner,
            latency,
            sleep: false,
            accumulated_nanos: AtomicU64::new(0),
        }
    }

    /// Makes every access actually sleep for the configured latency.
    pub fn with_real_sleep(mut self) -> Self {
        self.sleep = true;
        self
    }

    /// Total simulated time spent in accesses so far.
    pub fn simulated_cost(&self) -> Duration {
        Duration::from_nanos(self.accumulated_nanos.load(Ordering::Relaxed))
    }

    /// Resets the simulated-cost accumulator.
    pub fn reset_cost(&self) {
        self.accumulated_nanos.store(0, Ordering::Relaxed);
    }
}

impl<S: SourceProvider> SourceProvider for LatencySource<S> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn access(&self, relation: RelationId, binding: &Tuple) -> Result<Vec<Tuple>, EngineError> {
        self.charge_round_trip();
        self.inner.access(relation, binding)
    }

    fn access_batch(&self, requests: &[AccessKey]) -> Vec<AccessResult> {
        if requests.is_empty() {
            return Vec::new();
        }
        // One round trip for the whole batch; see `charge_round_trip`.
        self.charge_round_trip();
        self.inner.access_batch(requests)
    }

    fn full_scan(&self, relation: RelationId) -> Option<Vec<Tuple>> {
        self.inner.full_scan(relation)
    }
}

/// A wrapper that fails every `n`-th access (1-based), for failure-injection
/// tests of executor error paths.
pub struct FlakySource<S> {
    inner: S,
    fail_every: usize,
    counter: AtomicUsize,
}

impl<S: SourceProvider> FlakySource<S> {
    /// Fails accesses number `fail_every`, `2·fail_every`, … (1-based).
    pub fn new(inner: S, fail_every: usize) -> Self {
        assert!(fail_every > 0, "fail_every must be positive");
        FlakySource {
            inner,
            fail_every,
            counter: AtomicUsize::new(0),
        }
    }

    /// How many accesses have been attempted (1-based ordinals; skipped
    /// batch remainders are **not** attempts). Exposed so failure-injection
    /// tests can assert the injection schedule stays aligned with the
    /// accesses that really reached the source.
    pub fn attempted(&self) -> usize {
        self.counter.load(Ordering::Relaxed)
    }

    fn injected_failure(&self, relation: RelationId) -> Option<EngineError> {
        let n = self.counter.fetch_add(1, Ordering::Relaxed) + 1;
        n.is_multiple_of(self.fail_every)
            .then(|| EngineError::SourceFailure {
                relation: self.inner.schema().relation(relation).name().to_string(),
                detail: format!("injected failure on access #{n}"),
            })
    }
}

impl<S: SourceProvider> SourceProvider for FlakySource<S> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn access(&self, relation: RelationId, binding: &Tuple) -> Result<Vec<Tuple>, EngineError> {
        match self.injected_failure(relation) {
            Some(e) => Err(e),
            None => self.inner.access(relation, binding),
        }
    }

    // `access_batch` is deliberately the trait default: it calls
    // `FlakySource::access` per request and stops at the first failure, so
    // the injection schedule stays aligned with reality — the skipped batch
    // remainder never advances the counter and no access is ever counted
    // for tuples that were never returned (pinned by
    // `flaky_mid_batch_failure_skips_without_phantom_attempts`).
}

#[cfg(test)]
mod tests {
    use super::*;
    use toorjah_catalog::tuple;

    fn sample() -> InstanceSource {
        let schema = Schema::parse("r^io(A, B)").unwrap();
        let mut db = Instance::new(&schema);
        db.insert("r", tuple!["a", "b1"]).unwrap();
        db.insert("r", tuple!["a", "b2"]).unwrap();
        InstanceSource::new(schema, db)
    }

    #[test]
    fn instance_source_answers_accesses() {
        let src = sample();
        let r = src.schema().relation_id("r").unwrap();
        assert_eq!(src.access(r, &tuple!["a"]).unwrap().len(), 2);
        assert!(src.access(r, &tuple!["zz"]).unwrap().is_empty());
        assert!(src.access(r, &Tuple::empty()).is_err());
    }

    #[test]
    fn latency_source_accumulates_virtual_time() {
        let src = LatencySource::new(sample(), Duration::from_millis(5));
        let r = src.schema().relation_id("r").unwrap();
        src.access(r, &tuple!["a"]).unwrap();
        src.access(r, &tuple!["b"]).unwrap();
        assert_eq!(src.simulated_cost(), Duration::from_millis(10));
        src.reset_cost();
        assert_eq!(src.simulated_cost(), Duration::ZERO);
    }

    #[test]
    fn flaky_source_fails_periodically() {
        let src = FlakySource::new(sample(), 2);
        let r = src.schema().relation_id("r").unwrap();
        assert!(src.access(r, &tuple!["a"]).is_ok());
        assert!(src.access(r, &tuple!["a"]).is_err());
        assert!(src.access(r, &tuple!["a"]).is_ok());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn flaky_zero_is_rejected() {
        let _ = FlakySource::new(sample(), 0);
    }

    #[test]
    fn default_access_batch_stops_at_the_first_failure() {
        let src = sample();
        let r = src.schema().relation_id("r").unwrap();
        // The empty binding is invalid for r^io: request #2 fails, #3 is
        // never attempted.
        let requests = vec![(r, tuple!["a"]), (r, Tuple::empty()), (r, tuple!["a"])];
        let results = src.access_batch(&requests);
        assert!(matches!(&results[0], LoadResult::Loaded(t) if t.len() == 2));
        assert!(matches!(results[1], LoadResult::Failed(_)));
        assert!(matches!(results[2], LoadResult::Skipped));
    }

    #[test]
    fn latency_source_charges_one_round_trip_per_batch() {
        let src = LatencySource::new(sample(), Duration::from_millis(5));
        let r = src.schema().relation_id("r").unwrap();
        let requests = vec![(r, tuple!["a"]), (r, tuple!["zz"]), (r, tuple!["b"])];
        let results = src.access_batch(&requests);
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(|o| matches!(o, LoadResult::Loaded(_))));
        // Three accesses, one round trip: critical-path cost, not 15 ms.
        assert_eq!(src.simulated_cost(), Duration::from_millis(5));
        // An empty batch is no round trip at all.
        assert!(src.access_batch(&[]).is_empty());
        assert_eq!(src.simulated_cost(), Duration::from_millis(5));
    }

    #[test]
    fn flaky_mid_batch_failure_skips_without_phantom_attempts() {
        // Regression: a failure injected mid-batch must leave the injection
        // schedule aligned with the accesses that actually reached the
        // source — the skipped remainder is not attempted and not counted.
        let src = FlakySource::new(sample(), 3);
        let r = src.schema().relation_id("r").unwrap();
        let requests: Vec<_> = (0..5).map(|_| (r, tuple!["a"])).collect();
        let results = src.access_batch(&requests);
        assert!(matches!(results[0], LoadResult::Loaded(_)));
        assert!(matches!(results[1], LoadResult::Loaded(_)));
        assert!(matches!(results[2], LoadResult::Failed(_)));
        assert!(matches!(results[3], LoadResult::Skipped));
        assert!(matches!(results[4], LoadResult::Skipped));
        // Exactly 3 attempts happened; the two skips advanced nothing, so
        // the next single access is attempt #4 and succeeds.
        assert_eq!(src.attempted(), 3);
        assert!(src.access(r, &tuple!["a"]).is_ok());
        assert_eq!(src.attempted(), 4);
    }
}
