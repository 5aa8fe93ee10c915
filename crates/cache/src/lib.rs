//! # toorjah-cache
//!
//! A **shared, concurrent, cross-query access cache** for the Toorjah
//! reproduction of *"Querying Data under Access Limitations"* (Calì &
//! Martinenghi, ICDE 2008).
//!
//! The paper's meta-cache (§IV) guarantees that no access is ever repeated
//! *within one query*. Benedikt, Gottlob & Senellart's *Determining
//! Relevance of Accesses at Runtime* (arXiv:1104.0553) observes that which
//! accesses are worth making or keeping is a property of the accumulated
//! extension at runtime — a signal that outlives any single query. This
//! crate generalizes the meta-cache accordingly into a process-wide
//! subsystem, so a service answering many overlapping queries ("heavy
//! traffic from millions of users") pays for each access once *across* the
//! whole workload:
//!
//! * [`SharedAccessCache`] — extractions keyed by `(relation, binding)`,
//!   partitioned into independently locked shards (`parking_lot` mutexes),
//!   cheap to clone and share between sessions and threads;
//! * **single-flight coalescing** — concurrent misses on one key perform
//!   the source access exactly once; everyone else blocks on the in-flight
//!   access and shares its extraction;
//! * [`EvictionPolicy`] — unbounded (the paper's semantics), LRU by entry
//!   count, or LRU by a byte budget accounted through
//!   [`toorjah_catalog::Tuple::estimated_bytes`];
//! * [`CacheStats`] — hit / coalesced-hit / miss / eviction counters plus
//!   occupancy, with [`CacheStats::delta_since`] for per-query attribution.
//!   Counters are kept **per shard** ([`ShardCounters`], surfaced by
//!   [`SharedAccessCache::shard_counters`]) and summed on read, so the
//!   shard-wise breakdown always reconciles with the totals; with an
//!   [`Obs`](toorjah_obs::Obs) handle ([`SharedAccessCache::with_obs`])
//!   evictions and single-flight coalesces are additionally emitted as
//!   trace events;
//! * **snapshot / warm-start** — [`SharedAccessCache::snapshot`] serializes
//!   the retained extractions to a sorted line format that
//!   [`SharedAccessCache::load_snapshot`] reloads in a fresh process.
//!
//! The consistency discipline (why eviction and sharing never change
//! answers) is documented in the repository's `DESIGN.md`.

#![warn(missing_docs)]

mod config;
mod shard;
mod snapshot;
mod stats;

pub use config::{CacheConfig, EvictionPolicy};
pub use shard::{
    extraction, BatchLoader, BatchLookup, LoadResult, Lookup, LookupOutcome, SharedAccessCache,
};
pub use snapshot::{SnapshotError, SnapshotReport};
pub use stats::{CacheStats, ShardCounters};

pub(crate) use stats::Counters;
