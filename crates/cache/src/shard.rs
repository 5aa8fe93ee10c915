//! The sharded store: per-shard maps under `parking_lot` locks, single-flight
//! miss coalescing, and lazy-LRU eviction.

use std::borrow::Borrow;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::{
    Arc, Condvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, OnceLock, PoisonError,
};

use parking_lot::Mutex;
use toorjah_catalog::{AccessKey, FastHasher, RelationId, Tuple};
use toorjah_obs::{EventKind, Obs};

use crate::{CacheConfig, CacheStats, Counters, ShardCounters};

/// Cache key: one access in the paper's sense (§II) — a relation plus the
/// tuple of values bound to its input positions.
pub(crate) type Key = AccessKey;

/// Builds the shard maps' hashers: [`FastHasher`]'s word-at-a-time rounds,
/// started from a seed drawn per cache instance and finished with a seeded
/// folded multiply.
///
/// A shared cache keys on constants that clients supply (the daemon's
/// tenants), so with a fixed hash a client could choose keys that all land
/// in one bucket. The seed enters before the first word and again in the
/// finish, which carries every state bit into the low (bucket-index) bits,
/// so which keys collide differs from one cache to the next. This hardens
/// the maps against hash flooding; it is not a cryptographic MAC.
#[derive(Clone, Copy, Debug)]
pub(crate) struct KeyHashing {
    seed: u64,
}

impl KeyHashing {
    /// A fresh, unpredictable seed: `RandomState` is keyed from the
    /// operating system's randomness and stepped per instance, so hashing
    /// nothing through a new one yields a new word each time.
    fn random() -> Self {
        KeyHashing {
            seed: RandomState::new().build_hasher().finish(),
        }
    }
}

impl BuildHasher for KeyHashing {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        let mut fast = FastHasher::default();
        fast.write_u64(self.seed);
        KeyHasher {
            fast,
            seed: self.seed,
        }
    }
}

/// The hasher [`KeyHashing`] builds.
pub(crate) struct KeyHasher {
    fast: FastHasher,
    seed: u64,
}

impl Hasher for KeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let full = u128::from(self.fast.finish() ^ self.seed) * u128::from(FOLD);
        (full as u64) ^ ((full >> 64) as u64)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.fast.write(bytes);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.fast.write_u8(i);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.fast.write_u16(i);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.fast.write_u32(i);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.fast.write_u64(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.fast.write_usize(i);
    }
}

/// The finish's multiplier (odd; the 64-bit golden ratio).
const FOLD: u64 = 0x9E37_79B9_7F4A_7C15;

/// How a lookup was satisfied.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LookupOutcome {
    /// Served from a retained extraction; the source was not touched.
    Hit,
    /// Waited for an identical concurrent access instead of repeating it;
    /// the source was not touched *by this caller*.
    CoalescedHit,
    /// The access was performed against the source by this caller.
    Loaded,
}

impl LookupOutcome {
    /// Whether this caller actually performed the source access — the only
    /// outcome that costs anything under the paper's access-count metric,
    /// and the only one per-query [`AccessLog`]s should record.
    ///
    /// [`AccessLog`]: https://docs.rs/toorjah-engine
    pub fn loaded(self) -> bool {
        matches!(self, LookupOutcome::Loaded)
    }
}

/// A satisfied lookup: the extraction (shared, cheap to clone) plus how it
/// was obtained.
#[derive(Clone, Debug)]
pub struct Lookup {
    /// The extracted tuples.
    pub tuples: Arc<[Tuple]>,
    /// How the lookup was satisfied.
    pub outcome: LookupOutcome,
}

/// Per-request outcome reported by a batch loader (the closure handed to
/// [`SharedAccessCache::get_or_load_batch`]). Mirrors the semantics of a
/// batched source round trip: some requests return extractions, one may
/// fail, and requests after a failure may never have been attempted.
#[derive(Clone, Debug)]
pub enum LoadResult<E> {
    /// The access was performed and returned these tuples.
    Loaded(Vec<Tuple>),
    /// The access was attempted and failed; nothing is retained for it.
    Failed(E),
    /// The access was never attempted (the loader aborted the batch after an
    /// earlier failure, or refused it — e.g. a budget check); nothing is
    /// retained for it.
    Skipped,
}

/// Per-request outcome of [`SharedAccessCache::get_or_load_batch`], aligned
/// with the request slice.
#[derive(Clone, Debug)]
pub enum BatchLookup<E> {
    /// The request was satisfied — retained, coalesced, or loaded by this
    /// call; see [`Lookup::outcome`].
    Served(Lookup),
    /// The loader attempted this access and it failed.
    Failed(E),
    /// The loader never attempted this access.
    Skipped,
}

impl<E> BatchLookup<E> {
    /// The extraction, when the request was served.
    pub fn served(&self) -> Option<&Lookup> {
        match self {
            BatchLookup::Served(lookup) => Some(lookup),
            _ => None,
        }
    }
}

/// The in-flight accesses of one led batch, shared between the thread
/// performing them (the *leader*) and any threads that requested one of its
/// keys meanwhile (the *waiters*). A key's `Pending` slot names the flight
/// and the key's position in the batch.
struct Flight {
    state: StdMutex<FlightState>,
    cv: Condvar,
}

#[derive(Default)]
struct FlightState {
    /// Set once the leader has settled every position.
    done: bool,
    /// Per batch position: the extraction, or `None` when that access
    /// failed or was never attempted (its waiters then retry).
    results: Vec<Option<Arc<[Tuple]>>>,
    /// Threads that found the batch unsettled and block on the condvar.
    /// Registered under the state lock, so the leader's `finish` — which
    /// takes the same lock — either sees them or settled first.
    waiters: usize,
}

impl Flight {
    fn new() -> Arc<Self> {
        Arc::new(Flight {
            state: StdMutex::new(FlightState::default()),
            cv: Condvar::new(),
        })
    }

    /// Blocks until the leader has settled the batch; `None` means the
    /// access at `pos` failed and the caller should retry (becoming a
    /// leader itself).
    fn wait(&self, pos: usize) -> Option<Arc<[Tuple]>> {
        let mut state = lock(&self.state);
        if !state.done {
            state.waiters += 1;
            while !state.done {
                state = self.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
        }
        state.results.get(pos).cloned().flatten()
    }

    /// Marks the batch settled and wakes every waiter. Most batches have
    /// none, and then the wake-up (a futex syscall on Linux) is skipped.
    fn finish(&self, mut state: StdMutexGuard<'_, FlightState>) {
        state.done = true;
        let watched = state.waiters > 0;
        drop(state);
        if watched {
            self.cv.notify_all();
        }
    }
}

/// Locks a flight's state; a leader that panicked mid-settlement leaves it
/// consistent (unsettled positions read as failed), so poison is ignored.
fn lock(state: &StdMutex<FlightState>) -> StdMutexGuard<'_, FlightState> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The extraction of a performed access, as caches and access logs keep
/// it. Accesses that return nothing — most of them, on selective sources —
/// share one empty extraction instead of allocating one each.
pub fn extraction(tuples: Vec<Tuple>) -> Arc<[Tuple]> {
    static EMPTY: OnceLock<Arc<[Tuple]>> = OnceLock::new();
    if tuples.is_empty() {
        Arc::clone(EMPTY.get_or_init(|| Arc::from(Vec::new())))
    } else {
        tuples.into()
    }
}

/// A retained extraction.
struct Ready {
    tuples: Arc<[Tuple]>,
    bytes: usize,
    last_used: u64,
}

enum Slot {
    Ready(Ready),
    /// Claimed by a led batch: its flight and this key's position in it.
    Pending(Arc<Flight>, usize),
}

/// Lazy recency queue: `(tick, key)` pushed on every touch; stale pairs
/// (the entry was touched again, or is gone) are skipped at eviction time
/// and dropped wholesale by [`Shard::compact_recency`]. Amortized O(1) per
/// touch and per eviction, O(retained entries) in space.
#[derive(Default)]
struct Recency {
    queue: VecDeque<(u64, Key)>,
    /// `false` for unbounded caches: nothing will ever be evicted, so
    /// recency bookkeeping would only leak memory per lookup.
    tracks: bool,
    tick: u64,
}

impl Recency {
    fn touch(&mut self, key: &Key) -> u64 {
        self.tick += 1;
        if self.tracks {
            self.queue.push_back((self.tick, key.clone()));
        }
        self.tick
    }
}

/// One independently locked slice of the cache.
pub(crate) struct Shard {
    map: HashMap<Key, Slot, KeyHashing>,
    recency: Recency,
    ready_entries: usize,
    bytes: usize,
}

impl Shard {
    fn new(tracks_recency: bool, hashing: KeyHashing) -> Self {
        Shard {
            map: HashMap::with_hasher(hashing),
            recency: Recency {
                tracks: tracks_recency,
                ..Recency::default()
            },
            ready_entries: 0,
            bytes: 0,
        }
    }

    /// Rebuilds the recency queue from the live entries once stale pairs
    /// dominate it, so hit-heavy workloads between evictions cannot grow
    /// the bookkeeping beyond O(retained entries).
    fn compact_recency(&mut self) {
        let queue = &mut self.recency.queue;
        if queue.len() < 64 || queue.len() < 4 * self.ready_entries {
            return;
        }
        let mut live: Vec<(u64, Key)> = self
            .map
            .iter()
            .filter_map(|(key, slot)| match slot {
                Slot::Ready(ready) => Some((ready.last_used, key.clone())),
                Slot::Pending(..) => None,
            })
            .collect();
        live.sort_unstable_by_key(|(last_used, _)| *last_used);
        *queue = live.into();
    }

    /// Evicts least-recently-used ready entries until the shard respects its
    /// `(max_entries, max_bytes)` slice. Pending entries are never evicted.
    fn evict_to_budget(
        &mut self,
        max_entries: usize,
        max_bytes: usize,
        counters: &Counters,
        obs: Obs,
    ) {
        while self.ready_entries > max_entries || self.bytes > max_bytes {
            let Some((tick, key)) = self.recency.queue.pop_front() else {
                // Only pending entries remain; nothing evictable.
                break;
            };
            let evict = matches!(
                self.map.get(&key),
                Some(Slot::Ready(ready)) if ready.last_used == tick
            );
            if !evict {
                continue; // stale recency pair
            }
            if let Some(Slot::Ready(ready)) = self.map.remove(&key) {
                self.ready_entries -= 1;
                self.bytes -= ready.bytes;
                Counters::bump(&counters.evictions);
                obs.trace(0, || EventKind::CacheEvict {
                    key: key.clone(),
                    bytes: ready.bytes,
                });
            }
        }
    }
}

/// Estimated retained size of one cache entry: the key's binding plus the
/// extraction, via [`Tuple::estimated_bytes`], plus a fixed per-entry
/// overhead for the map slot and recency bookkeeping.
///
/// Under the interned data plane every value is fixed-size, so an entry's
/// charge is determined by tuple count and arity alone — string payloads are
/// accounted once at the [`Interner`](toorjah_catalog::Interner), never per
/// retained copy, and two extractions of equal shape always cost the same.
fn entry_bytes(binding: &Tuple, tuples: &[Tuple]) -> usize {
    const ENTRY_OVERHEAD: usize = 96;
    ENTRY_OVERHEAD
        + binding.estimated_bytes()
        + tuples.iter().map(Tuple::estimated_bytes).sum::<usize>()
}

/// A shared, concurrency-safe, cross-query access cache.
///
/// The cache generalizes the paper's per-query meta-cache (§IV) into a
/// process-wide structure: extractions are keyed by `(relation, binding)`,
/// partitioned into independently locked shards, and retained according to a
/// configurable [`EvictionPolicy`]. Cloning the handle is cheap and shares
/// the underlying storage, so any number of sessions and threads can serve
/// overlapping queries without ever repeating a retained access.
///
/// Concurrent misses on one key are *coalesced*: the first requester
/// performs the access while the others block on it and share the result —
/// a parallel workload never duplicates an access. Failed accesses are not
/// retained; waiters of a failed access retry it themselves, so transient
/// source failures stay per-caller events.
///
/// [`EvictionPolicy`]: crate::EvictionPolicy
///
/// ```
/// use toorjah_cache::SharedAccessCache;
/// use toorjah_catalog::{tuple, RelationId, Tuple};
///
/// let cache = SharedAccessCache::unbounded();
/// let r = RelationId(0);
/// let first = cache
///     .get_or_load(r, &tuple!["a"], || Ok::<_, ()>(vec![tuple!["a", "b"]]))
///     .unwrap();
/// assert!(first.outcome.loaded());
/// // The identical access is now free — the closure is not called again.
/// let again = cache
///     .get_or_load(r, &tuple!["a"], || -> Result<_, ()> {
///         panic!("must not re-access")
///     })
///     .unwrap();
/// assert!(!again.outcome.loaded());
/// assert_eq!(again.tuples, first.tuples);
/// ```
pub struct SharedAccessCache {
    inner: Arc<Inner>,
}

pub(crate) struct Inner {
    pub(crate) shards: Vec<Mutex<Shard>>,
    /// Per-shard counters, aligned with `shards`: every bump touches the
    /// shard that owns the key, so shard-wise snapshots sum exactly to the
    /// [`CacheStats`] totals.
    pub(crate) counters: Vec<Counters>,
    pub(crate) config: CacheConfig,
    obs: Obs,
    max_entries_per_shard: usize,
    max_bytes_per_shard: usize,
}

impl Clone for SharedAccessCache {
    fn clone(&self) -> Self {
        SharedAccessCache {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Default for SharedAccessCache {
    fn default() -> Self {
        SharedAccessCache::unbounded()
    }
}

impl std::fmt::Debug for SharedAccessCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedAccessCache")
            .field("config", &self.inner.config)
            .field("stats", &self.stats())
            .finish()
    }
}

impl SharedAccessCache {
    /// Creates a cache with the given configuration.
    pub fn new(config: CacheConfig) -> Self {
        SharedAccessCache::with_obs(config, Obs::disabled())
    }

    /// [`SharedAccessCache::new`] with an observability handle: evictions
    /// and single-flight coalesces are emitted as trace events (round 0 —
    /// cache activity is not tied to a kernel round). Counters are kept per
    /// shard either way; `obs` only controls event emission.
    pub fn with_obs(config: CacheConfig, obs: Obs) -> Self {
        let shards = config.effective_shards();
        let (max_entries_per_shard, max_bytes_per_shard) = config.shard_budget();
        let tracks_recency =
            max_entries_per_shard != usize::MAX || max_bytes_per_shard != usize::MAX;
        // One seed per instance, shared by its shards' maps.
        let hashing = KeyHashing::random();
        SharedAccessCache {
            inner: Arc::new(Inner {
                shards: (0..shards)
                    .map(|_| Mutex::new(Shard::new(tracks_recency, hashing)))
                    .collect(),
                counters: (0..shards).map(|_| Counters::default()).collect(),
                config,
                obs,
                max_entries_per_shard,
                max_bytes_per_shard,
            }),
        }
    }

    /// Creates an unbounded cache (the paper's meta-cache semantics).
    pub fn unbounded() -> Self {
        SharedAccessCache::new(CacheConfig::unbounded())
    }

    /// The configuration the cache was created with.
    pub fn config(&self) -> &CacheConfig {
        &self.inner.config
    }

    /// The index of the shard owning `key`; every lock acquisition and
    /// counter bump for the key goes through this one index, computed once
    /// per request.
    ///
    /// The partition is a fixed function of the key (`std`'s SipHash under
    /// its default keys), independent of the seeded hash a shard's map
    /// indexes its buckets by. A bounded cache splits its budget evenly
    /// over the shards, so the partition decides which entries compete for
    /// room: a per-instance random partition would make evictions — and
    /// with them hits, misses and access counts — differ from one run of
    /// the same workload to the next. Piling keys into one shard costs an
    /// adversary nothing it could not do by requesting more keys; piling
    /// them into one bucket is what the seeded map hash prevents.
    fn shard_index(&self, key: &Key) -> usize {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() as usize) % self.inner.shards.len()
    }

    /// Serves the access for `(relation, binding)` from the cache, or
    /// performs it via `load` and retains the extraction: a one-request
    /// [`SharedAccessCache::get_or_load_batch`].
    ///
    /// Concurrency: if an identical access is already in flight, the caller
    /// blocks until it completes and shares its result
    /// ([`LookupOutcome::CoalescedHit`]) instead of duplicating the access.
    /// A failed `load` retains nothing; its error is returned to the
    /// performing caller only, and any waiters retry from scratch.
    pub fn get_or_load<E>(
        &self,
        relation: RelationId,
        binding: &Tuple,
        load: impl FnOnce() -> Result<Vec<Tuple>, E>,
    ) -> Result<Lookup, E> {
        let key: Key = (relation, binding.clone());
        let mut load = Some(load);
        let mut outcome = None;
        self.batch_loader().load(
            std::slice::from_ref(&key),
            |_| {
                let load = load.take().expect("a caller leads a key at most once");
                vec![match load() {
                    Ok(tuples) => LoadResult::Loaded(tuples),
                    Err(e) => LoadResult::Failed(e),
                }]
            },
            |_, lookup| outcome = Some(lookup),
        );
        match outcome.expect("the request is resolved") {
            BatchLookup::Served(lookup) => Ok(lookup),
            BatchLookup::Failed(e) => Err(e),
            BatchLookup::Skipped => unreachable!("a one-key load reports its outcome"),
        }
    }

    /// Batched [`SharedAccessCache::get_or_load`]: resolves every request of
    /// `requests` with (at most) one loader invocation per resolution round,
    /// and returns the outcomes aligned with `requests`. See
    /// [`BatchLoader::load`] for the semantics; this is a one-call loader
    /// that collects the outcomes.
    pub fn get_or_load_batch<E>(
        &self,
        requests: &[impl Borrow<Key>],
        load: impl FnMut(&[Key]) -> Vec<LoadResult<E>>,
    ) -> Vec<BatchLookup<E>> {
        let mut out: Vec<Option<BatchLookup<E>>> = requests.iter().map(|_| None).collect();
        self.batch_loader()
            .load(requests, load, |i, lookup| out[i] = Some(lookup));
        out.into_iter()
            .map(|o| o.expect("every request is resolved"))
            .collect()
    }

    /// A loader for a run of batched lookups against this cache; keep one
    /// per thread for as long as batches keep coming (see [`BatchLoader`]).
    pub fn batch_loader(&self) -> BatchLoader<'_> {
        BatchLoader {
            cache: self,
            flight: None,
            hits: Vec::new(),
            led: Vec::new(),
            keys: Vec::new(),
            waits: Vec::new(),
            repeats: Vec::new(),
            retry: Vec::new(),
        }
    }

    /// Replaces this caller's pending slot with the loaded extraction and
    /// enforces the shard budget.
    fn complete_load(&self, idx: usize, key: &Key, tuples: &Arc<[Tuple]>) {
        let bytes = entry_bytes(&key.1, tuples);
        let mut guard = self.inner.shards[idx].lock();
        let shard = &mut *guard;
        if bytes > self.inner.max_bytes_per_shard {
            // Oversized for its shard's budget slice: hand the extraction
            // to the caller without retaining it, instead of flushing every
            // smaller (collectively more useful) entry to make room.
            if matches!(shard.map.get(key), Some(Slot::Pending(..))) {
                shard.map.remove(key);
            }
            drop(guard);
            Counters::bump(&self.inner.counters[idx].oversized);
            return;
        }
        let ready = Slot::Ready(Ready {
            tuples: Arc::clone(tuples),
            bytes,
            last_used: shard.recency.touch(key),
        });
        match shard.map.get_mut(key) {
            Some(slot) => *slot = ready,
            None => {
                shard.map.insert(key.clone(), ready);
            }
        }
        shard.ready_entries += 1;
        shard.bytes += bytes;
        shard.compact_recency();
        shard.evict_to_budget(
            self.inner.max_entries_per_shard,
            self.inner.max_bytes_per_shard,
            &self.inner.counters[idx],
            self.inner.obs,
        );
    }

    /// Removes this caller's pending slot after a failed load.
    fn abort_load(&self, idx: usize, key: &Key) {
        let mut shard = self.inner.shards[idx].lock();
        if matches!(shard.map.get(key), Some(Slot::Pending(..))) {
            shard.map.remove(key);
        }
    }

    /// Non-blocking lookup: the retained extraction, if any. Counts as a hit
    /// and refreshes recency when present; in-flight accesses return `None`.
    /// The engine's dispatcher calls it for an access its log already holds,
    /// so the session cache still counts the request and keeps the entry
    /// recently used.
    pub fn try_get(&self, relation: RelationId, binding: &Tuple) -> Option<Arc<[Tuple]>> {
        let key: Key = (relation, binding.clone());
        let idx = self.shard_index(&key);
        let mut guard = self.inner.shards[idx].lock();
        let shard = &mut *guard;
        let Some(Slot::Ready(ready)) = shard.map.get_mut(&key) else {
            return None;
        };
        ready.last_used = shard.recency.touch(&key);
        let tuples = Arc::clone(&ready.tuples);
        shard.compact_recency();
        drop(guard);
        Counters::bump(&self.inner.counters[idx].hits);
        Some(tuples)
    }

    /// Inserts an extraction directly (warm-start, externally performed
    /// access). Existing or in-flight entries win: the insert is skipped and
    /// `false` is returned.
    pub fn insert(&self, relation: RelationId, binding: &Tuple, tuples: Vec<Tuple>) -> bool {
        let key: Key = (relation, binding.clone());
        let bytes = entry_bytes(binding, &tuples);
        let idx = self.shard_index(&key);
        let mut guard = self.inner.shards[idx].lock();
        let shard = &mut *guard;
        if bytes > self.inner.max_bytes_per_shard {
            let present = shard.map.contains_key(&key);
            drop(guard);
            if !present {
                Counters::bump(&self.inner.counters[idx].oversized);
            }
            return false;
        }
        match shard.map.entry(key) {
            Entry::Occupied(_) => return false,
            Entry::Vacant(vacant) => {
                let last_used = shard.recency.touch(vacant.key());
                vacant.insert(Slot::Ready(Ready {
                    tuples: extraction(tuples),
                    bytes,
                    last_used,
                }));
            }
        }
        shard.ready_entries += 1;
        shard.bytes += bytes;
        shard.compact_recency();
        shard.evict_to_budget(
            self.inner.max_entries_per_shard,
            self.inner.max_bytes_per_shard,
            &self.inner.counters[idx],
            self.inner.obs,
        );
        drop(guard);
        Counters::bump(&self.inner.counters[idx].insertions);
        true
    }

    /// Whether the access is retained or currently in flight. A `true`
    /// result means requesting it will not start a *new* source access.
    pub fn contains(&self, relation: RelationId, binding: &Tuple) -> bool {
        let key: Key = (relation, binding.clone());
        self.inner.shards[self.shard_index(&key)]
            .lock()
            .map
            .contains_key(&key)
    }

    /// Number of retained extractions (in-flight accesses excluded).
    pub fn len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.lock().ready_entries)
            .sum()
    }

    /// Whether no extraction is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated retained bytes across all shards.
    pub fn bytes(&self) -> usize {
        self.inner.shards.iter().map(|s| s.lock().bytes).sum()
    }

    /// Drops every retained extraction. Cumulative counters are kept;
    /// in-flight accesses complete normally and are retained afterwards.
    pub fn clear(&self) {
        for shard in &self.inner.shards {
            let mut shard = shard.lock();
            shard
                .map
                .retain(|_, slot| matches!(slot, Slot::Pending(..)));
            shard.recency.queue.clear();
            shard.ready_entries = 0;
            shard.bytes = 0;
        }
    }

    /// A point-in-time snapshot of counters and occupancy. Counter totals
    /// are the sum of the per-shard counters (see
    /// [`SharedAccessCache::shard_counters`]).
    pub fn stats(&self) -> CacheStats {
        let (mut entries, mut bytes) = (0usize, 0usize);
        for shard in &self.inner.shards {
            let shard = shard.lock();
            entries += shard.ready_entries;
            bytes += shard.bytes;
        }
        let mut stats = CacheStats {
            entries,
            bytes,
            ..CacheStats::default()
        };
        for counters in &self.inner.counters {
            let shard = counters.snapshot();
            stats.hits += shard.hits;
            stats.coalesced_hits += shard.coalesced_hits;
            stats.misses += shard.misses;
            stats.load_failures += shard.load_failures;
            stats.insertions += shard.insertions;
            stats.evictions += shard.evictions;
            stats.oversized += shard.oversized;
        }
        stats
    }

    /// Point-in-time snapshots of every shard's counters, in shard order.
    /// Each counter bump touches exactly the shard owning the key, so the
    /// shard-wise sums equal the [`SharedAccessCache::stats`] totals.
    pub fn shard_counters(&self) -> Vec<ShardCounters> {
        self.inner.counters.iter().map(Counters::snapshot).collect()
    }

    /// Iterates the retained extractions, shard by shard (used by the
    /// snapshot writer; order is unspecified).
    pub(crate) fn for_each_entry(&self, mut f: impl FnMut(RelationId, &Tuple, &[Tuple])) {
        for shard in &self.inner.shards {
            let shard = shard.lock();
            for ((relation, binding), slot) in &shard.map {
                if let Slot::Ready(ready) = slot {
                    f(*relation, binding, &ready.tuples);
                }
            }
        }
    }
}

/// How one request was classified under its shard's lock.
enum Class {
    /// Retained: served from the cache.
    Hit(Arc<[Tuple]>),
    /// Claimed by this batch at the given position.
    Led,
    /// A repeat of a key this batch already leads, at that position.
    Repeat(usize),
    /// In flight in another caller's batch, at that position.
    Wait(Arc<Flight>, usize),
}

/// Reusable working state for batched lookups against one cache: the flight
/// of the batch being led and the classification lists.
///
/// A dispatcher keeps one loader per frontier and worker thread and feeds
/// it batch after batch. A batch whose keys no concurrent caller waited on
/// hands its flight back for the next one, and the lists keep their
/// capacity, so past the first batch a lookup allocates nothing of its own.
pub struct BatchLoader<'c> {
    cache: &'c SharedAccessCache,
    /// The flight of the batch being led; recycled once nobody else holds
    /// it, created on the first miss.
    flight: Option<Arc<Flight>>,
    /// `(request, extraction)` of retained requests, resolved once the
    /// batch's claims are settled, so a panicking `resolve` cannot strand
    /// a claim.
    hits: Vec<(usize, Arc<[Tuple]>)>,
    /// `(request, shard)` per led position.
    led: Vec<(usize, usize)>,
    /// The led keys, gathered for the loader when there is more than one.
    keys: Vec<Key>,
    /// `(request, shard, flight, position)` of requests another caller
    /// leads.
    waits: Vec<(usize, usize, Arc<Flight>, usize)>,
    /// `(request, shard, position)` of repeats of keys this batch leads.
    repeats: Vec<(usize, usize, usize)>,
    /// Requests to classify again because their leader's access failed.
    retry: Vec<usize>,
}

impl BatchLoader<'_> {
    /// Resolves every request of `requests`, handing each outcome to
    /// `resolve` together with the request's index.
    ///
    /// Each request is classified with one probe of its shard's map:
    /// retained requests are served as hits; requests currently led by a
    /// concurrent caller are waited on and coalesced; every remaining
    /// request is *claimed at once* — its `Pending` slot inserted under the
    /// shard lock — and the full set of claimed keys is handed to `load` in
    /// a single call, so a provider with a batched endpoint pays one round
    /// trip for the whole miss set. The loader must return one
    /// [`LoadResult`] per key it was given, in order (missing entries are
    /// treated as `Skipped`): `Loaded` extractions are retained and their
    /// single-flight waiters woken; `Failed` and `Skipped` entries retain
    /// nothing, and waiters retry from scratch — exactly the failure
    /// semantics of a single-key load. The outcomes of the claimed keys are
    /// resolved right after the loader call that produced them.
    ///
    /// Duplicate keys within `requests` are loaded once: later occurrences
    /// are served as plain hits of the first occurrence's extraction, or
    /// mirror its failure as `Skipped`.
    ///
    /// `load` is `FnMut` because a wait on a concurrent leader's flight can
    /// fail (that leader's access errored), in which case this caller
    /// re-classifies the key — possibly leading it — and invokes the loader
    /// again with the smaller key set.
    pub fn load<E>(
        &mut self,
        requests: &[impl Borrow<Key>],
        mut load: impl FnMut(&[Key]) -> Vec<LoadResult<E>>,
        mut resolve: impl FnMut(usize, BatchLookup<E>),
    ) {
        // Lists a caller-caught panic may have left behind.
        self.hits.clear();
        self.led.clear();
        self.repeats.clear();
        self.waits.clear();
        let mut todo = std::mem::take(&mut self.retry);
        todo.clear();
        let mut first_round = true;
        loop {
            self.recycle_flight();
            if first_round {
                for (i, request) in requests.iter().enumerate() {
                    self.classify(i, request.borrow());
                }
            } else {
                for &i in &todo {
                    self.classify(i, requests[i].borrow());
                }
            }
            todo.clear();
            self.lead(requests, &mut load, &mut resolve);
            self.settle(requests, &mut resolve, &mut todo);
            if todo.is_empty() {
                break;
            }
            first_round = false;
        }
        self.retry = todo;
    }

    /// Readies the flight for a new batch: the previous one is reset in
    /// place when no waiter still holds it, and replaced otherwise.
    fn recycle_flight(&mut self) {
        if let Some(flight) = &mut self.flight {
            match Arc::get_mut(flight) {
                Some(exclusive) => {
                    let state = exclusive
                        .state
                        .get_mut()
                        .unwrap_or_else(PoisonError::into_inner);
                    state.done = false;
                    state.results.clear();
                    state.waiters = 0;
                }
                None => *flight = Flight::new(),
            }
        }
    }

    /// Classifies one request with a single probe of its shard's map.
    fn classify(&mut self, i: usize, key: &Key) {
        let cache = self.cache;
        let idx = cache.shard_index(key);
        let mut guard = cache.inner.shards[idx].lock();
        let shard = &mut *guard;
        let class = match shard.map.entry(key.clone()) {
            Entry::Occupied(mut occupied) => match occupied.get_mut() {
                Slot::Ready(ready) => {
                    ready.last_used = shard.recency.touch(key);
                    Class::Hit(Arc::clone(&ready.tuples))
                }
                Slot::Pending(flight, pos) => {
                    if self
                        .flight
                        .as_ref()
                        .is_some_and(|own| Arc::ptr_eq(own, flight))
                    {
                        Class::Repeat(*pos)
                    } else {
                        Class::Wait(Arc::clone(flight), *pos)
                    }
                }
            },
            Entry::Vacant(vacant) => {
                let flight = self.flight.get_or_insert_with(Flight::new);
                vacant.insert(Slot::Pending(Arc::clone(flight), self.led.len()));
                Class::Led
            }
        };
        match class {
            Class::Hit(tuples) => {
                shard.compact_recency();
                drop(guard);
                Counters::bump(&cache.inner.counters[idx].hits);
                self.hits.push((i, tuples));
            }
            Class::Led => self.led.push((i, idx)),
            Class::Repeat(pos) => self.repeats.push((i, idx, pos)),
            Class::Wait(flight, pos) => self.waits.push((i, idx, flight, pos)),
        }
    }

    /// Loads the claimed keys in one loader call, retains what loaded,
    /// settles the flight and resolves each claimed request.
    fn lead<K: Borrow<Key>, E>(
        &mut self,
        requests: &[K],
        load: &mut impl FnMut(&[Key]) -> Vec<LoadResult<E>>,
        resolve: &mut impl FnMut(usize, BatchLookup<E>),
    ) {
        if self.led.is_empty() {
            return;
        }
        let cache = self.cache;
        let flight = Arc::clone(self.flight.as_ref().expect("a led batch has a flight"));
        let keys: &[Key] = if let [(i, _)] = self.led.as_slice() {
            std::slice::from_ref(requests[*i].borrow())
        } else {
            self.keys.clear();
            self.keys
                .extend(self.led.iter().map(|&(i, _)| requests[i].borrow().clone()));
            &self.keys
        };

        // Panic safety: if `load` or `resolve` (user code) unwinds, the
        // guard clears the still-pending slots and settles the flight with
        // them failed, so waiters retry instead of blocking forever on keys
        // nobody will ever complete.
        struct LeadGuard<'a, K: Borrow<Key>> {
            cache: &'a SharedAccessCache,
            requests: &'a [K],
            led: &'a [(usize, usize)],
            flight: &'a Flight,
            settled: usize,
        }
        impl<K: Borrow<Key>> Drop for LeadGuard<'_, K> {
            fn drop(&mut self) {
                if self.settled < self.led.len() {
                    for &(i, idx) in &self.led[self.settled..] {
                        self.cache.abort_load(idx, self.requests[i].borrow());
                    }
                    self.flight.finish(lock(&self.flight.state));
                }
            }
        }
        let mut guard = LeadGuard {
            cache,
            requests,
            led: &self.led,
            flight: &flight,
            settled: 0,
        };

        let results = load(keys);
        debug_assert_eq!(results.len(), self.led.len(), "one LoadResult per led key");
        let mut results = results.into_iter();
        let mut state = lock(&flight.state);
        for (pos, &(i, idx)) in self.led.iter().enumerate() {
            let key = requests[i].borrow();
            let counters = &cache.inner.counters[idx];
            let lookup = match results.next().unwrap_or(LoadResult::Skipped) {
                LoadResult::Loaded(tuples) => {
                    let tuples = extraction(tuples);
                    cache.complete_load(idx, key, &tuples);
                    Counters::bump(&counters.misses);
                    state.results.push(Some(Arc::clone(&tuples)));
                    BatchLookup::Served(Lookup {
                        tuples,
                        outcome: LookupOutcome::Loaded,
                    })
                }
                LoadResult::Failed(e) => {
                    cache.abort_load(idx, key);
                    Counters::bump(&counters.load_failures);
                    state.results.push(None);
                    BatchLookup::Failed(e)
                }
                LoadResult::Skipped => {
                    cache.abort_load(idx, key);
                    state.results.push(None);
                    BatchLookup::Skipped
                }
            };
            guard.settled = pos + 1;
            resolve(i, lookup);
        }
        flight.finish(state);
        drop(guard);
        self.led.clear();
    }

    /// Resolves the retained requests, then the repeats of this batch's
    /// keys from its flight, then waits on concurrent leaders; a failed
    /// flight sends its request to `retry` (this caller may lead it next
    /// round).
    fn settle<E>(
        &mut self,
        requests: &[impl Borrow<Key>],
        resolve: &mut impl FnMut(usize, BatchLookup<E>),
        retry: &mut Vec<usize>,
    ) {
        let cache = self.cache;
        for (i, tuples) in self.hits.drain(..) {
            resolve(
                i,
                BatchLookup::Served(Lookup {
                    tuples,
                    outcome: LookupOutcome::Hit,
                }),
            );
        }
        for (i, idx, pos) in self.repeats.drain(..) {
            let flight = self.flight.as_ref().expect("a repeat follows a led key");
            let lookup = match lock(&flight.state).results.get(pos).cloned().flatten() {
                // The sequential path would find them retained.
                Some(tuples) => {
                    Counters::bump(&cache.inner.counters[idx].hits);
                    BatchLookup::Served(Lookup {
                        tuples,
                        outcome: LookupOutcome::Hit,
                    })
                }
                None => BatchLookup::Skipped,
            };
            resolve(i, lookup);
        }
        for (i, idx, flight, pos) in self.waits.drain(..) {
            match flight.wait(pos) {
                Some(tuples) => {
                    Counters::bump(&cache.inner.counters[idx].coalesced_hits);
                    cache.inner.obs.trace(0, || EventKind::BatchCoalesced {
                        key: requests[i].borrow().clone(),
                    });
                    resolve(
                        i,
                        BatchLookup::Served(Lookup {
                            tuples,
                            outcome: LookupOutcome::CoalescedHit,
                        }),
                    );
                }
                None => retry.push(i),
            }
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use toorjah_catalog::tuple;

    fn k(i: i64) -> Tuple {
        tuple![i]
    }

    fn extraction(i: i64) -> Vec<Tuple> {
        vec![tuple![i, "payload"], tuple![i, "more"]]
    }

    #[test]
    fn load_once_then_hit() {
        let cache = SharedAccessCache::unbounded();
        let r = RelationId(0);
        let mut loads = 0;
        for _ in 0..3 {
            let lookup = cache
                .get_or_load(r, &k(1), || {
                    loads += 1;
                    Ok::<_, ()>(extraction(1))
                })
                .unwrap();
            assert_eq!(lookup.tuples.len(), 2);
        }
        assert_eq!(loads, 1);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > 0);
    }

    #[test]
    fn failed_loads_retain_nothing() {
        let cache = SharedAccessCache::unbounded();
        let r = RelationId(0);
        let err = cache.get_or_load(r, &k(1), || Err::<Vec<Tuple>, _>("boom"));
        assert_eq!(err.unwrap_err(), "boom");
        assert!(cache.is_empty());
        assert!(!cache.contains(r, &k(1)));
        assert_eq!(cache.stats().load_failures, 1);
        // A later attempt loads for real.
        let ok = cache.get_or_load(r, &k(1), || Ok::<_, &str>(extraction(1)));
        assert!(ok.unwrap().outcome.loaded());
    }

    #[test]
    fn distinct_relations_are_distinct_keys() {
        let cache = SharedAccessCache::unbounded();
        cache
            .get_or_load(RelationId(0), &k(1), || Ok::<_, ()>(extraction(1)))
            .unwrap();
        let second = cache
            .get_or_load(RelationId(1), &k(1), || Ok::<_, ()>(extraction(2)))
            .unwrap();
        assert!(second.outcome.loaded());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lru_entry_cap_is_respected_and_recency_aware() {
        let cache = SharedAccessCache::new(CacheConfig::max_entries(2).with_shards(1));
        let r = RelationId(0);
        for i in 0..2 {
            cache
                .get_or_load(r, &k(i), || Ok::<_, ()>(extraction(i)))
                .unwrap();
        }
        // Touch key 0 so key 1 becomes the LRU victim.
        cache.get_or_load(r, &k(0), || Ok::<_, ()>(vec![])).unwrap();
        cache
            .get_or_load(r, &k(2), || Ok::<_, ()>(extraction(2)))
            .unwrap();
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(r, &k(0)), "recently used entry survives");
        assert!(!cache.contains(r, &k(1)), "LRU entry is evicted");
        assert!(cache.contains(r, &k(2)));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn byte_budget_is_never_exceeded() {
        let budget = 2048usize;
        let cache = SharedAccessCache::new(CacheConfig::max_bytes(budget).with_shards(2));
        let r = RelationId(0);
        for i in 0..200 {
            cache
                .get_or_load(r, &k(i), || Ok::<_, ()>(extraction(i)))
                .unwrap();
            assert!(
                cache.bytes() <= budget,
                "bytes {} exceed budget {budget}",
                cache.bytes()
            );
        }
        assert!(cache.stats().evictions > 0);
        assert!(cache.len() < 200);
    }

    #[test]
    fn entry_charges_are_payload_independent() {
        // Fixed-size accounting: two extractions of equal shape charge the
        // byte budget identically no matter how long their string payloads
        // are — the payload bytes live in the interner, counted once
        // process-wide, not once per retained copy.
        let short: Vec<Tuple> = (0..4).map(|i| tuple![i, "ab"]).collect();
        let long: Vec<Tuple> = (0..4)
            .map(|i| tuple![i, "a considerably longer payload string than ab"])
            .collect();
        assert_eq!(entry_bytes(&k(1), &short), entry_bytes(&k(2), &long));
        // More tuples still cost more: the budget keeps ordering entries by
        // retained shape.
        let wider: Vec<Tuple> = (0..5).map(|i| tuple![i, "ab"]).collect();
        assert!(entry_bytes(&k(1), &wider) > entry_bytes(&k(1), &short));
    }

    #[test]
    fn oversized_entries_pass_through_without_flushing_the_shard() {
        let cache = SharedAccessCache::new(CacheConfig::max_bytes(1000).with_shards(1));
        let r = RelationId(0);
        cache
            .get_or_load(r, &k(1), || Ok::<_, ()>(extraction(1)))
            .unwrap();
        assert!(cache.contains(r, &k(1)));
        let big: Vec<Tuple> = (0..50).map(|i| tuple![i, "some padding text"]).collect();
        let lookup = cache
            .get_or_load(r, &k(2), || Ok::<_, ()>(big.clone()))
            .unwrap();
        assert_eq!(lookup.tuples.len(), 50, "caller still gets the data");
        assert!(cache.bytes() <= 1000);
        assert!(!cache.contains(r, &k(2)), "oversized entry is not retained");
        assert!(
            cache.contains(r, &k(1)),
            "smaller entries survive an oversized pass-through"
        );
        let stats = cache.stats();
        assert_eq!(stats.oversized, 1);
        assert_eq!(stats.evictions, 0, "pass-through is not an eviction");
    }

    #[test]
    fn a_panicking_leader_does_not_wedge_the_key() {
        let cache = SharedAccessCache::unbounded();
        let r = RelationId(0);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cache.get_or_load(r, &k(1), || -> Result<Vec<Tuple>, ()> {
                panic!("buggy provider")
            });
        }));
        assert!(unwound.is_err());
        assert!(!cache.contains(r, &k(1)), "no pending slot is left behind");
        // The key is immediately usable again.
        let ok = cache
            .get_or_load(r, &k(1), || Ok::<_, ()>(extraction(1)))
            .unwrap();
        assert!(ok.outcome.loaded());
    }

    #[test]
    fn unbounded_caches_keep_no_recency_bookkeeping() {
        let cache = SharedAccessCache::new(CacheConfig::unbounded().with_shards(1));
        let r = RelationId(0);
        cache
            .get_or_load(r, &k(1), || Ok::<_, ()>(extraction(1)))
            .unwrap();
        for _ in 0..10_000 {
            cache.get_or_load(r, &k(1), || Ok::<_, ()>(vec![])).unwrap();
        }
        let recency_len = cache.inner.shards[0].lock().recency.queue.len();
        assert_eq!(recency_len, 0, "nothing can ever be evicted — no queue");
    }

    #[test]
    fn bounded_recency_bookkeeping_is_compacted() {
        let cache = SharedAccessCache::new(CacheConfig::max_entries(4).with_shards(1));
        let r = RelationId(0);
        for i in 0..4 {
            cache
                .get_or_load(r, &k(i), || Ok::<_, ()>(extraction(i)))
                .unwrap();
        }
        // A hit-heavy phase with no evictions must not grow the queue
        // linearly with the lookup count.
        for _ in 0..10_000 {
            cache.get_or_load(r, &k(0), || Ok::<_, ()>(vec![])).unwrap();
        }
        let recency_len = cache.inner.shards[0].lock().recency.queue.len();
        assert!(
            recency_len <= 64,
            "stale pairs must be compacted, found {recency_len}"
        );
        // Recency is still honored after compaction: key 0 is hottest.
        for i in 4..7 {
            cache
                .get_or_load(r, &k(i), || Ok::<_, ()>(extraction(i)))
                .unwrap();
        }
        assert!(cache.contains(r, &k(0)), "hot key survives eviction");
    }

    #[test]
    fn concurrent_same_key_loads_are_coalesced() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = SharedAccessCache::unbounded();
        let loads = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    barrier.wait();
                    let lookup = cache
                        .get_or_load(RelationId(0), &k(7), || {
                            loads.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok::<_, ()>(extraction(7))
                        })
                        .unwrap();
                    assert_eq!(lookup.tuples.len(), 2);
                });
            }
        });
        assert_eq!(loads.load(Ordering::SeqCst), 1, "a single source access");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits + stats.coalesced_hits, 7);
    }

    /// `finish` skips the wake-up when no waiter registered; one that
    /// registered while the load was still running must still be woken.
    #[test]
    fn a_waiter_registered_before_the_batch_settles_is_woken() {
        use std::sync::mpsc::channel;
        let cache = SharedAccessCache::unbounded();
        let key: Key = (RelationId(0), k(5));
        let (claimed_tx, claimed_rx) = channel::<()>();
        let (release_tx, release_rx) = channel::<()>();
        let (done_tx, done_rx) = channel::<Lookup>();
        let leader = {
            let cache = cache.clone();
            std::thread::spawn(move || {
                cache.get_or_load(RelationId(0), &k(5), || {
                    claimed_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Ok::<_, ()>(extraction(5))
                })
            })
        };
        claimed_rx.recv().unwrap();
        let waiter = {
            let cache = cache.clone();
            std::thread::spawn(move || {
                let lookup = cache
                    .get_or_load(RelationId(0), &k(5), || Err("the key is in flight"))
                    .expect("served by the leader");
                done_tx.send(lookup).unwrap();
            })
        };
        // The waiter registers on the flight under its lock; release the
        // leader only once it has.
        let flight = match &cache.inner.shards[cache.shard_index(&key)].lock().map[&key] {
            Slot::Pending(flight, _) => Arc::clone(flight),
            Slot::Ready(_) => panic!("the leader's load is still running"),
        };
        while lock(&flight.state).waiters == 0 {
            std::thread::yield_now();
        }
        release_tx.send(()).unwrap();
        assert!(leader.join().unwrap().is_ok());
        let lookup = done_rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the registered waiter is woken");
        waiter.join().unwrap();
        assert_eq!(lookup.outcome, LookupOutcome::CoalescedHit);
        assert_eq!(lookup.tuples.len(), 2);
        assert_eq!(cache.stats().coalesced_hits, 1);
    }

    #[test]
    fn waiters_of_a_failed_leader_retry() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = SharedAccessCache::unbounded();
        let attempts = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    barrier.wait();
                    // First attempt fails; retries succeed. Each thread
                    // retries its own failures.
                    for _ in 0..4 {
                        let result = cache.get_or_load(RelationId(0), &k(9), || {
                            let n = attempts.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(std::time::Duration::from_millis(5));
                            if n == 0 {
                                Err("transient")
                            } else {
                                Ok(extraction(9))
                            }
                        });
                        if result.is_ok() {
                            return;
                        }
                    }
                    panic!("no attempt succeeded");
                });
            }
        });
        assert!(cache.contains(RelationId(0), &k(9)));
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "exactly one successful source access");
        assert_eq!(stats.load_failures, 1);
    }

    #[test]
    fn batch_load_serves_hits_misses_and_duplicates() {
        let cache = SharedAccessCache::unbounded();
        let r = RelationId(0);
        cache
            .get_or_load(r, &k(1), || Ok::<_, ()>(extraction(1)))
            .unwrap();
        let requests = vec![(r, k(1)), (r, k(2)), (r, k(2)), (r, k(3))];
        let mut loaded_keys = Vec::new();
        let results = cache.get_or_load_batch::<()>(&requests, |keys| {
            loaded_keys = keys.to_vec();
            keys.iter()
                .map(|(_, b)| LoadResult::Loaded(vec![b.clone()]))
                .collect()
        });
        // One loader call, exactly the missing distinct keys.
        assert_eq!(loaded_keys, vec![(r, k(2)), (r, k(3))]);
        let outcomes: Vec<LookupOutcome> = results
            .iter()
            .map(|b| b.served().expect("all served").outcome)
            .collect();
        assert_eq!(
            outcomes,
            vec![
                LookupOutcome::Hit,
                LookupOutcome::Loaded,
                LookupOutcome::Hit, // duplicate of the in-batch load
                LookupOutcome::Loaded,
            ]
        );
        let stats = cache.stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 2);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn batch_mid_failure_retains_the_loaded_prefix_only() {
        let cache = SharedAccessCache::unbounded();
        let r = RelationId(0);
        let requests = vec![(r, k(1)), (r, k(2)), (r, k(3))];
        let results = cache.get_or_load_batch::<&str>(&requests, |_| {
            vec![
                LoadResult::Loaded(extraction(1)),
                LoadResult::Failed("boom"),
                LoadResult::Skipped,
            ]
        });
        assert!(matches!(&results[0], BatchLookup::Served(l) if l.outcome.loaded()));
        assert!(matches!(results[1], BatchLookup::Failed("boom")));
        assert!(matches!(results[2], BatchLookup::Skipped));
        assert!(cache.contains(r, &k(1)));
        assert!(!cache.contains(r, &k(2)), "failed access retains nothing");
        assert!(!cache.contains(r, &k(3)), "skipped access retains nothing");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.load_failures, 1);
    }

    #[test]
    fn concurrent_batches_coalesce_to_one_load_per_key() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = SharedAccessCache::unbounded();
        let r = RelationId(0);
        let loads = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(4);
        let requests: Vec<Key> = (0..6).map(|i| (r, k(i))).collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    barrier.wait();
                    let results = cache.get_or_load_batch::<()>(&requests, |keys| {
                        keys.iter()
                            .map(|_| {
                                loads.fetch_add(1, Ordering::SeqCst);
                                std::thread::sleep(std::time::Duration::from_millis(5));
                                LoadResult::Loaded(extraction(0))
                            })
                            .collect()
                    });
                    assert!(results.iter().all(|b| b.served().is_some()));
                });
            }
        });
        assert_eq!(
            loads.load(Ordering::SeqCst),
            6,
            "each key loaded exactly once across all concurrent batches"
        );
        assert_eq!(cache.stats().misses, 6);
    }

    #[test]
    fn a_panicking_batch_loader_does_not_wedge_its_keys() {
        let cache = SharedAccessCache::unbounded();
        let r = RelationId(0);
        let requests = vec![(r, k(1)), (r, k(2))];
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cache.get_or_load_batch::<()>(&requests, |_| panic!("buggy batch provider"));
        }));
        assert!(unwound.is_err());
        assert!(!cache.contains(r, &k(1)));
        assert!(!cache.contains(r, &k(2)));
        // Both keys immediately usable again.
        let results = cache.get_or_load_batch::<()>(&requests, |keys| {
            keys.iter()
                .map(|_| LoadResult::Loaded(extraction(1)))
                .collect()
        });
        assert!(results.iter().all(|b| b.served().is_some()));
    }

    #[test]
    fn cache_instances_hash_keys_with_their_own_seeds() {
        let a = SharedAccessCache::unbounded();
        let b = SharedAccessCache::unbounded();
        let hash = |cache: &SharedAccessCache, shard: usize, key: &Key| {
            cache.inner.shards[shard].lock().map.hasher().hash_one(key)
        };
        let keys: Vec<Key> = (0..64).map(|i| (RelationId(0), k(i))).collect();
        let differing = keys
            .iter()
            .filter(|key| hash(&a, 0, key) != hash(&b, 0, key))
            .count();
        assert_eq!(
            differing,
            keys.len(),
            "every key hashes differently per cache"
        );
        // Within one instance every shard hashes alike, and deterministically.
        assert_eq!(hash(&a, 0, &keys[0]), hash(&a, 7, &keys[0]));
        assert_eq!(hash(&a, 0, &keys[0]), hash(&a, 0, &keys[0]));
    }

    #[test]
    fn shard_choice_leaves_the_bucket_bits_spread() {
        // Integer keys that differ only in high bits — the shape a client
        // can pick to pile keys into one bucket of a weak hash — spread
        // over the shards, and the keys of one shard over its buckets.
        let cache = SharedAccessCache::new(CacheConfig::unbounded().with_shards(8));
        let keys: Vec<Key> = (0..4096).map(|i| (RelationId(0), k(i << 32))).collect();
        let mut shards = [0usize; 8];
        let mut low_bits = std::collections::HashSet::new();
        for key in &keys {
            let shard = cache.shard_index(key);
            shards[shard] += 1;
            if shard == 0 {
                let hash = cache.inner.shards[0].lock().map.hasher().hash_one(key);
                low_bits.insert(hash & 0xff);
            }
        }
        assert!(shards.iter().all(|&n| n > 256), "shards {shards:?}");
        assert!(
            low_bits.len() > 200,
            "only {} bucket indexes",
            low_bits.len()
        );
    }

    #[test]
    fn a_loader_recycles_its_flight_between_unwatched_batches() {
        let cache = SharedAccessCache::unbounded();
        let r = RelationId(0);
        let mut loader = cache.batch_loader();
        let flight_of = |loader: &BatchLoader<'_>| Arc::as_ptr(loader.flight.as_ref().unwrap());
        let load = |keys: &[Key]| -> Vec<LoadResult<()>> {
            keys.iter()
                .map(|(_, b)| LoadResult::Loaded(vec![b.clone()]))
                .collect()
        };
        loader.load(&[(r, k(1)), (r, k(2))], load, |_, _| {});
        let first = flight_of(&loader);
        loader.load(&[(r, k(3))], load, |_, _| {});
        assert_eq!(
            flight_of(&loader),
            first,
            "nobody waited: the flight is reused"
        );
        // A waiter still holding the flight forces a fresh one.
        let held = Arc::clone(loader.flight.as_ref().unwrap());
        loader.load(&[(r, k(4))], load, |_, _| {});
        assert_ne!(flight_of(&loader), Arc::as_ptr(&held));
        assert_eq!(cache.stats().misses, 4);
    }

    /// The leader's outcomes (or its panic), the key sets the waiter's
    /// loader was handed, and the waiter's outcomes.
    type Race = (
        std::thread::Result<Vec<BatchLookup<&'static str>>>,
        Vec<Vec<Key>>,
        Vec<BatchLookup<&'static str>>,
    );

    /// Runs `leader` (leading `led` through a gated loader) and `waiter`
    /// (requesting `wanted` once every `led` key is claimed) concurrently.
    /// The leader's loader is held until the waiter's own loader runs —
    /// i.e. until the waiter has classified every request — so the waiter
    /// deterministically finds the shared keys in flight. The waiter also
    /// requests a private marker key, so its loader always runs; the
    /// marker is skipped (nothing retained or counted) and left out of the
    /// returned loads and outcomes.
    fn leader_and_waiter(
        cache: &SharedAccessCache,
        led: &[Key],
        leader_results: impl Fn(&[Key]) -> Vec<LoadResult<&'static str>> + Send + Sync,
        wanted: &[Key],
    ) -> Race {
        let (claimed_tx, claimed_rx) = std::sync::mpsc::channel::<()>();
        let (waiting_tx, waiting_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let leader = scope.spawn(move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.get_or_load_batch(led, |keys| {
                        claimed_tx.send(()).unwrap();
                        waiting_rx.recv().unwrap();
                        leader_results(keys)
                    })
                }))
            });
            let waiter = scope.spawn(move || {
                claimed_rx.recv().unwrap();
                let marker: Key = (RelationId(1), Tuple::empty());
                let mut requests = wanted.to_vec();
                requests.push(marker.clone());
                let mut loaded = Vec::new();
                let mut waiting_tx = Some(waiting_tx);
                let mut results = cache.get_or_load_batch(&requests, |keys| {
                    let own: Vec<Key> = keys.iter().filter(|k| **k != marker).cloned().collect();
                    if !own.is_empty() {
                        loaded.push(own);
                    }
                    if let Some(tx) = waiting_tx.take() {
                        tx.send(()).unwrap();
                    }
                    keys.iter()
                        .map(|key| match key {
                            key if *key == marker => LoadResult::Skipped,
                            (_, b) => LoadResult::Loaded(vec![tuple![b[0], "waiter"]]),
                        })
                        .collect()
                });
                results.truncate(wanted.len());
                (loaded, results)
            });
            let leader = leader.join().unwrap();
            let (loaded, results) = waiter.join().unwrap();
            (leader, loaded, results)
        })
    }

    fn loaded_by_leader(keys: &[Key]) -> Vec<LoadResult<&'static str>> {
        keys.iter()
            .map(|(_, b)| LoadResult::Loaded(vec![tuple![b[0], "leader"]]))
            .collect()
    }

    fn served(lookup: &BatchLookup<&'static str>) -> (LookupOutcome, Tuple) {
        let lookup = lookup.served().expect("served");
        (lookup.outcome, lookup.tuples[0].clone())
    }

    #[test]
    fn a_waiter_on_a_foreign_batch_gets_its_own_position() {
        let cache = SharedAccessCache::unbounded();
        let r = RelationId(0);
        // The leader's batch repeats k(2): the repeat is a hit of the
        // leader's own load, and the waiter reads k(2)'s position.
        let led = [(r, k(1)), (r, k(2)), (r, k(2)), (r, k(3))];
        let wanted = [(r, k(2)), (r, k(4))];
        let (leader, waiter_loads, waiter) =
            leader_and_waiter(&cache, &led, loaded_by_leader, &wanted);
        let leader = leader.expect("the leader completes");
        let outcomes: Vec<LookupOutcome> = leader.iter().map(|l| served(l).0).collect();
        use LookupOutcome::{CoalescedHit, Hit, Loaded};
        assert_eq!(outcomes, vec![Loaded, Loaded, Hit, Loaded]);
        assert_eq!(
            waiter_loads,
            vec![vec![(r, k(4))]],
            "the waiter loads only k(4)"
        );
        assert_eq!(served(&waiter[0]), (CoalescedHit, tuple![2, "leader"]));
        assert_eq!(served(&waiter[1]), (Loaded, tuple![4, "waiter"]));
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits, stats.coalesced_hits), (4, 1, 1));
    }

    #[test]
    fn a_waiter_sees_an_oversized_extraction_that_was_never_retained() {
        let cache = SharedAccessCache::new(CacheConfig::max_bytes(1000).with_shards(1));
        let r = RelationId(0);
        let big = |keys: &[Key]| -> Vec<LoadResult<&'static str>> {
            keys.iter()
                .map(|(_, b)| {
                    LoadResult::Loaded((0..50).map(|i| tuple![b[0], i, "padding"]).collect())
                })
                .collect()
        };
        let (leader, _, waiter) = leader_and_waiter(&cache, &[(r, k(1))], big, &[(r, k(1))]);
        assert!(leader.is_ok());
        let lookup = waiter[0].served().expect("served");
        assert_eq!(lookup.outcome, LookupOutcome::CoalescedHit);
        assert_eq!(lookup.tuples.len(), 50, "the waiter shares the extraction");
        assert!(!cache.contains(r, &k(1)), "oversized: not retained");
        assert_eq!(cache.stats().oversized, 1);
    }

    #[test]
    fn a_waiter_sees_an_extraction_evicted_by_its_own_batch() {
        // One entry of room: completing k(2) evicts k(1), which the waiter
        // still receives from the flight.
        let cache = SharedAccessCache::new(CacheConfig::max_entries(1).with_shards(1));
        let r = RelationId(0);
        let led = [(r, k(1)), (r, k(2))];
        let (leader, _, waiter) = leader_and_waiter(&cache, &led, loaded_by_leader, &[(r, k(1))]);
        assert!(leader.is_ok());
        assert_eq!(
            served(&waiter[0]),
            (LookupOutcome::CoalescedHit, tuple![1, "leader"])
        );
        assert!(!cache.contains(r, &k(1)), "evicted by k(2)");
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn waiters_of_a_panicking_batch_loader_retry_and_lead() {
        let cache = SharedAccessCache::unbounded();
        let r = RelationId(0);
        let led = [(r, k(1)), (r, k(2))];
        let (leader, waiter_loads, waiter) = leader_and_waiter(
            &cache,
            &led,
            |_| panic!("buggy batch provider"),
            &[(r, k(2)), (r, k(3))],
        );
        assert!(leader.is_err(), "the leader's panic propagates to it");
        // The waiter loaded k(3), then found k(2)'s flight failed and led
        // it itself.
        assert_eq!(waiter_loads, vec![vec![(r, k(3))], vec![(r, k(2))]]);
        assert_eq!(
            served(&waiter[0]),
            (LookupOutcome::Loaded, tuple![2, "waiter"])
        );
        assert!(!cache.contains(r, &k(1)), "the panicked batch left no slot");
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn waiters_of_a_failed_batch_position_retry_while_its_siblings_serve() {
        let cache = SharedAccessCache::unbounded();
        let r = RelationId(0);
        let led = [(r, k(1)), (r, k(2))];
        let (leader, waiter_loads, waiter) = leader_and_waiter(
            &cache,
            &led,
            |_| {
                vec![
                    LoadResult::Loaded(vec![tuple![1, "leader"]]),
                    LoadResult::Failed("boom"),
                ]
            },
            &[(r, k(1)), (r, k(2))],
        );
        let leader = leader.expect("no panic");
        assert!(matches!(leader[1], BatchLookup::Failed("boom")));
        assert_eq!(waiter_loads, vec![vec![(r, k(2))]], "only the failed key");
        assert_eq!(
            served(&waiter[0]),
            (LookupOutcome::CoalescedHit, tuple![1, "leader"])
        );
        assert_eq!(
            served(&waiter[1]),
            (LookupOutcome::Loaded, tuple![2, "waiter"])
        );
        assert_eq!(cache.stats().load_failures, 1);
    }

    #[test]
    fn try_get_and_insert() {
        let cache = SharedAccessCache::unbounded();
        let r = RelationId(0);
        assert!(cache.try_get(r, &k(1)).is_none());
        assert!(cache.insert(r, &k(1), extraction(1)));
        assert!(!cache.insert(r, &k(1), vec![]), "existing entry wins");
        let got = cache.try_get(r, &k(1)).unwrap();
        assert_eq!(got.len(), 2);
        let stats = cache.stats();
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn clear_keeps_counters() {
        let cache = SharedAccessCache::unbounded();
        cache
            .get_or_load(RelationId(0), &k(1), || Ok::<_, ()>(extraction(1)))
            .unwrap();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn shard_counters_sum_to_the_stats_totals() {
        let cache = SharedAccessCache::new(CacheConfig::max_entries(4).with_shards(4));
        let r = RelationId(0);
        for i in 0..32 {
            cache
                .get_or_load(r, &k(i), || Ok::<_, ()>(extraction(i)))
                .unwrap();
        }
        for i in 24..32 {
            let _ = cache.get_or_load(r, &k(i), || Ok::<_, ()>(vec![]));
        }
        let _ = cache.get_or_load(r, &k(1000), || Err::<Vec<Tuple>, _>("boom"));
        let shards = cache.shard_counters();
        assert_eq!(shards.len(), 4, "one snapshot per shard");
        let stats = cache.stats();
        assert_eq!(shards.iter().map(|s| s.hits).sum::<u64>(), stats.hits);
        assert_eq!(shards.iter().map(|s| s.misses).sum::<u64>(), stats.misses);
        assert_eq!(
            shards.iter().map(|s| s.evictions).sum::<u64>(),
            stats.evictions
        );
        assert_eq!(
            shards.iter().map(|s| s.load_failures).sum::<u64>(),
            stats.load_failures
        );
        assert!(stats.evictions > 0, "the workload actually evicted");
        assert!(
            shards.iter().filter(|s| s.misses > 0).count() > 1,
            "keys spread over more than one shard"
        );
    }

    #[test]
    fn evictions_and_coalesces_emit_trace_events() {
        use toorjah_obs::{Obs, RingBufferSink, TraceSink};
        let sink = Arc::new(RingBufferSink::new(256));
        let obs = Obs::with_sink(Arc::clone(&sink) as Arc<dyn TraceSink>);
        let cache = SharedAccessCache::with_obs(CacheConfig::max_entries(2).with_shards(1), obs);
        let r = RelationId(0);
        for i in 0..4 {
            cache
                .get_or_load(r, &k(i), || Ok::<_, ()>(extraction(i)))
                .unwrap();
        }
        let evicts: Vec<_> = sink
            .events()
            .into_iter()
            .filter(|e| matches!(e.kind, toorjah_obs::EventKind::CacheEvict { .. }))
            .collect();
        assert_eq!(evicts.len() as u64, cache.stats().evictions);
        assert!(
            evicts.iter().all(|e| e.round == 0),
            "cache events use round 0"
        );
        match &evicts[0].kind {
            toorjah_obs::EventKind::CacheEvict { key, bytes } => {
                assert_eq!(key.0, r);
                assert!(*bytes > 0, "evicted bytes are reported");
            }
            other => panic!("not an eviction: {other:?}"),
        }

        // A coalesced waiter emits BatchCoalesced.
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    barrier.wait();
                    let _ = cache.get_or_load(r, &k(99), || {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        Ok::<_, ()>(extraction(99))
                    });
                });
            }
        });
        let coalesces = sink
            .events()
            .into_iter()
            .filter(|e| matches!(e.kind, toorjah_obs::EventKind::BatchCoalesced { .. }))
            .count() as u64;
        assert_eq!(coalesces, cache.stats().coalesced_hits);
    }

    #[test]
    fn clones_share_storage() {
        let cache = SharedAccessCache::unbounded();
        let other = cache.clone();
        cache
            .get_or_load(RelationId(0), &k(1), || Ok::<_, ()>(extraction(1)))
            .unwrap();
        let lookup = other
            .get_or_load(RelationId(0), &k(1), || -> Result<_, ()> {
                panic!("clone must share the entry")
            })
            .unwrap();
        assert_eq!(lookup.outcome, LookupOutcome::Hit);
    }
}
