//! Acceptance suite for the shared-cache subsystem (`toorjah-cache`).
//!
//! The contract under test, on the overlapping music workload (≥ 20
//! conjunctive queries over Example 1's schema):
//!
//! * a shared session cache reduces total source accesses by ≥ 40%
//!   versus per-query caches;
//! * byte-accounted GreedyDual-Size eviction keeps the cache under its
//!   configured budget at every point of the workload, and performs the
//!   same accesses whatever shard count the cache asks for;
//! * answers are identical to cold execution in **all** modes (unbounded,
//!   entry-capped, byte-capped, warm-started, concurrent, flaky);
//! * parallel `ask` calls over one `SharedAccessCache` never duplicate a
//!   successful access, even against a failure-injecting source.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use toorjah::cache::{CacheConfig, SharedAccessCache};
use toorjah::catalog::{RelationId, Schema, Tuple};
use toorjah::engine::{EngineError, FlakySource, InstanceSource, SourceProvider};
use toorjah::system::{ExecMode, Statement, Toorjah};
use toorjah::workload::{
    music_instance, music_schema, overlapping_queries, MusicConfig, OverlapParams,
};

/// A provider wrapper counting raw access attempts and successes — the
/// ground truth the cache's "never duplicate an access" promise is checked
/// against.
struct CountingSource<S> {
    inner: S,
    attempts: AtomicUsize,
    successes: AtomicUsize,
}

impl<S> CountingSource<S> {
    fn new(inner: S) -> Self {
        CountingSource {
            inner,
            attempts: AtomicUsize::new(0),
            successes: AtomicUsize::new(0),
        }
    }

    fn attempts(&self) -> usize {
        self.attempts.load(Ordering::SeqCst)
    }

    fn successes(&self) -> usize {
        self.successes.load(Ordering::SeqCst)
    }
}

impl<S: SourceProvider> SourceProvider for CountingSource<S> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn access(&self, relation: RelationId, binding: &Tuple) -> Result<Vec<Tuple>, EngineError> {
        self.attempts.fetch_add(1, Ordering::SeqCst);
        let result = self.inner.access(relation, binding);
        if result.is_ok() {
            self.successes.fetch_add(1, Ordering::SeqCst);
        }
        result
    }

    fn full_scan(&self, relation: RelationId) -> Option<Vec<Tuple>> {
        self.inner.full_scan(relation)
    }
}

fn provider() -> InstanceSource {
    let schema = music_schema();
    let db = music_instance(&schema, &MusicConfig::default());
    InstanceSource::new(schema, db)
}

fn workload() -> Vec<String> {
    let queries = overlapping_queries(&OverlapParams::default());
    assert!(queries.len() >= 20, "the acceptance workload needs ≥ 20");
    queries
}

fn sorted(mut answers: Vec<Tuple>) -> Vec<Tuple> {
    answers.sort();
    answers
}

/// Cold reference: per-query caches (the pre-subsystem behavior). Returns
/// each query's sorted answers and the total access count.
fn cold_reference(system: &Toorjah, queries: &[String]) -> (Vec<Vec<Tuple>>, usize) {
    let mut answers = Vec::with_capacity(queries.len());
    let mut total = 0usize;
    for q in queries {
        let result = system.ask(q).expect("workload queries are answerable");
        total += result.profile.stats.total_accesses;
        answers.push(sorted(result.answers));
    }
    (answers, total)
}

#[test]
fn shared_cache_cuts_accesses_by_at_least_40_percent() {
    let provider: Arc<dyn SourceProvider> = Arc::new(provider());
    let queries = workload();
    let cold_system = Toorjah::from_arc(Arc::clone(&provider));
    let (cold_answers, cold_total) = cold_reference(&cold_system, &queries);
    assert!(cold_total > 0);

    let cache = SharedAccessCache::unbounded();
    let session = Toorjah::from_arc(provider).with_cache(cache.clone());
    let mut warm_total = 0usize;
    for (q, cold) in queries.iter().zip(&cold_answers) {
        let result = session.ask(q).unwrap();
        warm_total += result.profile.stats.total_accesses;
        assert_eq!(&sorted(result.answers), cold, "answers invariant: {q}");
    }
    assert!(
        warm_total * 10 <= cold_total * 6,
        "shared cache must cut ≥ 40% of {cold_total} accesses, kept {warm_total}"
    );
    // The session performed exactly the distinct accesses of the workload.
    assert_eq!(cache.stats().misses as usize, warm_total);
    assert_eq!(cache.len(), warm_total);
}

#[test]
fn byte_budget_holds_throughout_the_workload() {
    let provider: Arc<dyn SourceProvider> = Arc::new(provider());
    let queries = workload();
    let (cold_answers, _) = cold_reference(&Toorjah::from_arc(Arc::clone(&provider)), &queries);

    let budget = 8 * 1024;
    let cache = SharedAccessCache::new(CacheConfig::max_bytes(budget).with_shards(2));
    let session = Toorjah::from_arc(provider).with_cache(cache.clone());
    for (q, cold) in queries.iter().zip(&cold_answers) {
        let result = session.ask(q).unwrap();
        assert_eq!(&sorted(result.answers), cold, "answers invariant: {q}");
        let stats = cache.stats();
        assert!(
            stats.bytes <= budget,
            "cache holds {} bytes over the {budget}-byte budget",
            stats.bytes
        );
    }
    assert!(
        cache.stats().evictions > 0,
        "the workload must be large enough to trigger eviction"
    );
}

#[test]
fn entry_cap_holds_throughout_the_workload() {
    let provider: Arc<dyn SourceProvider> = Arc::new(provider());
    let queries = workload();
    let (cold_answers, _) = cold_reference(&Toorjah::from_arc(Arc::clone(&provider)), &queries);

    let cap = 8;
    let cache = SharedAccessCache::new(CacheConfig::max_entries(cap).with_shards(2));
    let session = Toorjah::from_arc(provider).with_cache(cache.clone());
    for (q, cold) in queries.iter().zip(&cold_answers) {
        let result = session.ask(q).unwrap();
        assert_eq!(&sorted(result.answers), cold, "answers invariant: {q}");
        assert!(cache.len() <= cap, "{} entries over the cap", cache.len());
    }
    assert!(cache.stats().evictions > 0);
}

#[test]
fn concurrent_sessions_never_duplicate_an_access() {
    let counting = Arc::new(CountingSource::new(provider()));
    let queries = workload();
    let (cold_answers, _) = cold_reference(&Toorjah::from_arc(Arc::new(provider())), &queries);

    let cache = SharedAccessCache::unbounded();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let provider: Arc<dyn SourceProvider> = Arc::clone(&counting) as _;
            let session = Toorjah::from_arc(provider).with_cache(cache.clone());
            let queries = &queries;
            let cold_answers = &cold_answers;
            scope.spawn(move || {
                for (q, cold) in queries.iter().zip(cold_answers) {
                    let result = session.ask(q).unwrap();
                    assert_eq!(&sorted(result.answers), cold, "answers invariant: {q}");
                }
            });
        }
    });
    // Every successful source access is retained exactly once: 4 sessions ×
    // the whole workload cost exactly the distinct access set.
    assert_eq!(counting.attempts(), counting.successes());
    assert_eq!(counting.successes(), cache.len());
    assert_eq!(cache.stats().misses as usize, cache.len());
}

#[test]
fn flaky_source_never_duplicates_a_successful_access() {
    let counting = Arc::new(CountingSource::new(FlakySource::new(provider(), 7)));
    let queries = workload();
    let (cold_answers, _) = cold_reference(&Toorjah::from_arc(Arc::new(provider())), &queries);

    let cache = SharedAccessCache::unbounded();
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let provider: Arc<dyn SourceProvider> = Arc::clone(&counting) as _;
            let session = Toorjah::from_arc(provider).with_cache(cache.clone());
            let queries = &queries;
            let cold_answers = &cold_answers;
            scope.spawn(move || {
                for (q, cold) in queries.iter().zip(cold_answers) {
                    // Failed asks abort but keep every access made before
                    // the failure; progress is monotone, so a bounded retry
                    // loop always converges.
                    let mut result = None;
                    for _ in 0..50 {
                        match session.ask(q) {
                            Ok(r) => {
                                result = Some(r);
                                break;
                            }
                            Err(toorjah::system::ToorjahError::Execution(_)) => continue,
                            Err(e) => panic!("unexpected error class: {e}"),
                        }
                    }
                    let result = result.expect("retries must converge");
                    assert_eq!(&sorted(result.answers), cold, "answers invariant: {q}");
                }
            });
        }
    });
    // Failures were injected (so the retry path really ran) …
    assert!(counting.attempts() > counting.successes());
    // … yet no successful access was ever repeated.
    assert_eq!(counting.successes(), cache.len());
    assert_eq!(cache.stats().misses as usize, cache.len());
    assert!(cache.stats().load_failures > 0);
}

#[test]
fn snapshot_warm_start_replays_no_accesses() {
    let schema = music_schema();
    let provider: Arc<dyn SourceProvider> = Arc::new(provider());
    let queries = workload();

    // First process lifetime: run the workload, snapshot the cache.
    let cache = SharedAccessCache::unbounded();
    let session = Toorjah::from_arc(Arc::clone(&provider)).with_cache(cache.clone());
    let mut first_answers = Vec::new();
    for q in &queries {
        first_answers.push(sorted(session.ask(q).unwrap().answers));
    }
    let text = cache.snapshot(&schema);

    // "Restart": a fresh cache warm-started from the snapshot.
    let restarted = SharedAccessCache::unbounded();
    let report = restarted.load_snapshot(&schema, &text).unwrap();
    assert_eq!(report.loaded, cache.len());
    assert_eq!(report.incompatible, 0);

    let counting = Arc::new(CountingSource::new(provider2()));
    let warm_provider: Arc<dyn SourceProvider> = Arc::clone(&counting) as _;
    let warm = Toorjah::from_arc(warm_provider).with_cache(restarted.clone());
    for (q, cold) in queries.iter().zip(&first_answers) {
        let result = warm.ask(q).unwrap();
        assert_eq!(&sorted(result.answers), cold, "answers invariant: {q}");
        assert_eq!(
            result.profile.accesses_performed, 0,
            "warm-started query pays nothing"
        );
    }
    assert_eq!(counting.attempts(), 0, "the sources were never touched");
    // The warm-started cache snapshots back to the identical text.
    assert_eq!(restarted.snapshot(&schema), text);
}

/// A second, independently built provider — the "restarted process" of the
/// warm-start test.
fn provider2() -> InstanceSource {
    provider()
}

#[test]
fn streaming_distillation_respects_the_session_cache() {
    let counting = Arc::new(CountingSource::new(provider()));
    let provider: Arc<dyn SourceProvider> = Arc::clone(&counting) as _;
    let cache = SharedAccessCache::unbounded();
    let session = Toorjah::from_arc(provider).with_cache(cache.clone());
    let query = "q(N) <- r1(A, N, Y1), r2('t0', Y2, A)";
    let statement = Statement::parse(query, session.schema()).unwrap();
    let prepared = session.prepare(&statement).unwrap();

    let cold = prepared.execute(ExecMode::Streaming).unwrap();
    let cold_count = counting.attempts();
    assert!(cold_count > 0);
    // Warm streaming run: the session cache serves everything.
    let warm = prepared.execute(ExecMode::Streaming).unwrap();
    assert_eq!(warm.answers, cold.answers);
    assert_eq!(warm.profile.stats.total_accesses, 0);
    assert_eq!(counting.attempts(), cold_count, "no new source accesses");
    // The incremental stream shares the cache too…
    let stream_report = prepared.stream().unwrap().wait().unwrap();
    assert_eq!(stream_report.answers, cold.answers);
    assert_eq!(stream_report.stats.total_accesses, 0);
    // …and so does the sequential path.
    let sequential = session.ask(query).unwrap();
    assert_eq!(sequential.profile.stats.total_accesses, 0);
}

#[test]
fn union_and_negation_share_the_session_cache() {
    let provider: Arc<dyn SourceProvider> = Arc::new(provider());
    let cache = SharedAccessCache::unbounded();
    let session = Toorjah::from_arc(provider).with_cache(cache.clone());
    // Seed the cache through a union statement; both disjuncts touch r1/r3.
    let union = session
        .ask("q(N) <- r1('a0', N, Y); q(Al) <- r3(A, Al)")
        .unwrap();
    assert!(union.skipped_disjuncts.is_empty());
    assert!(union.profile.stats.total_accesses > 0);
    // A plain ask over the warmed entries is free.
    let warm = session.ask("q(N) <- r1('a0', N, Y)").unwrap();
    assert_eq!(warm.profile.stats.total_accesses, 0);
    assert!(warm.profile.accesses_served_by_cache > 0);
}

/// Statements per pass, as perfbench's `remote_sources` runs them.
const PASS: usize = 24;

/// Runs each pass of `passes` as `remote_sources` does: the session cache
/// emptied first, then every statement streamed over it. Returns every
/// statement's answers, in order, and the accesses performed in total.
fn streamed_passes(cache: &SharedAccessCache, passes: &[String]) -> (Vec<Vec<Tuple>>, u64) {
    let session = Toorjah::new(provider()).with_cache(cache.clone());
    let mut answers = Vec::with_capacity(passes.len());
    let mut performed = 0;
    for pass in passes.chunks(PASS) {
        cache.clear();
        for text in pass {
            let result = session.ask_with(text, ExecMode::Streaming).unwrap();
            performed += result.profile.accesses_performed;
            answers.push(result.answers);
        }
    }
    (answers, performed)
}

#[test]
fn a_bounded_cache_performs_the_same_accesses_under_any_shard_count() {
    let statements = overlapping_queries(&OverlapParams {
        queries: 16 * PASS,
        seed: 2,
        ..OverlapParams::default()
    });
    // The cap is half of what one pass retains unbounded, averaged over the
    // passes (perfbench's `remote_sources` averages its first eight and
    // arrives at the same 17,960 bytes).
    let unbounded = SharedAccessCache::unbounded();
    let mut working_set = 0;
    for pass in statements.chunks(PASS) {
        streamed_passes(&unbounded, pass);
        working_set += unbounded.bytes();
    }
    let cap = working_set / (statements.len() / PASS) / 2;
    assert_eq!(cap, 17_960);
    let (reference, floor) = streamed_passes(&unbounded, &statements);
    assert_eq!(floor, 832, "the unbounded floor");

    for shards in [1, 8, 16] {
        let cache = SharedAccessCache::new(CacheConfig::max_bytes(cap).with_shards(shards));
        let (answers, performed) = streamed_passes(&cache, &statements);
        assert_eq!(answers, reference, "answers invariant at {shards} shards");
        // One global budget under GreedyDual-Size: the same count whatever
        // the shard count asked for.
        assert_eq!(performed, 1_417, "accesses performed at {shards} shards");
        assert!(cache.bytes() <= cap);
    }
}
