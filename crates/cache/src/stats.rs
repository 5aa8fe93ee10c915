//! Cache observability: cumulative counters and point-in-time snapshots.

use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative cache counters, updated lock-free by every operation.
#[derive(Default, Debug)]
pub(crate) struct Counters {
    pub hits: AtomicU64,
    pub coalesced_hits: AtomicU64,
    pub misses: AtomicU64,
    pub load_failures: AtomicU64,
    pub insertions: AtomicU64,
    pub evictions: AtomicU64,
    pub oversized: AtomicU64,
}

impl Counters {
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> ShardCounters {
        ShardCounters {
            hits: self.hits.load(Ordering::Relaxed),
            coalesced_hits: self.coalesced_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            load_failures: self.load_failures.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            oversized: self.oversized.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time snapshot of one shard's counters.
///
/// Counters are kept per shard (each bump touches only the shard that owns
/// the key), so the shard-wise snapshots returned by
/// [`crate::SharedAccessCache::shard_counters`] sum exactly to the
/// corresponding [`CacheStats`] totals — by construction, not by a second
/// accounting pass.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct ShardCounters {
    /// Lookups this shard served from a retained extraction.
    pub hits: u64,
    /// Lookups that coalesced onto an in-flight access of this shard.
    pub coalesced_hits: u64,
    /// Lookups that performed the access against the source.
    pub misses: u64,
    /// Failed source accesses attempted through this shard.
    pub load_failures: u64,
    /// Extractions inserted directly into this shard.
    pub insertions: u64,
    /// Extractions this shard's eviction policy discarded.
    pub evictions: u64,
    /// Extractions larger than the whole budget, which this shard refused
    /// to retain.
    pub oversized: u64,
}

/// A point-in-time snapshot of a cache's counters and occupancy.
///
/// Counters are cumulative since the cache was created (they survive
/// [`crate::SharedAccessCache::clear`]); `entries` and `bytes` describe the
/// current contents. Deltas between two snapshots attribute cache activity
/// to a span of work, e.g. one query of a session.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct CacheStats {
    /// Lookups served from a retained extraction, at zero access cost.
    pub hits: u64,
    /// Lookups that waited for an identical in-flight access instead of
    /// duplicating it (also zero access cost).
    pub coalesced_hits: u64,
    /// Lookups that performed the access against the source.
    pub misses: u64,
    /// Accesses attempted on a miss that failed (nothing was retained).
    pub load_failures: u64,
    /// Extractions inserted directly (snapshot warm-start, external fetch).
    pub insertions: u64,
    /// Extractions discarded by the eviction policy.
    pub evictions: u64,
    /// Extractions larger than the whole budget — handed to the caller but
    /// never retained.
    pub oversized: u64,
    /// Extractions currently retained.
    pub entries: usize,
    /// Estimated bytes currently retained (keys + tuples).
    pub bytes: usize,
}

impl CacheStats {
    /// Total lookups the cache answered, however they went (hit, coalesced
    /// wait, miss-and-load, or failed load). Attribution anchor for the
    /// engine's request account: with the kernel's runtime pruning enabled,
    /// requested-but-pruned accesses never reach the cache, so `lookups()`
    /// equals requested minus pruned (pinned by `tests/relevance.rs`).
    pub fn lookups(&self) -> u64 {
        self.hits + self.coalesced_hits + self.misses + self.load_failures
    }

    /// Hits (direct + coalesced) as a fraction of all lookups; `None` before
    /// the first lookup.
    pub fn hit_rate(&self) -> Option<f64> {
        let served = self.hits + self.coalesced_hits;
        let total = self.lookups();
        if total == 0 {
            return None;
        }
        #[allow(clippy::cast_precision_loss)]
        Some(served as f64 / total as f64)
    }

    /// Counter-wise difference `self − earlier`, for attributing activity to
    /// a span of work. Saturates at zero so concurrent sessions interleaving
    /// on one cache cannot produce wrap-around.
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            coalesced_hits: self.coalesced_hits.saturating_sub(earlier.coalesced_hits),
            misses: self.misses.saturating_sub(earlier.misses),
            load_failures: self.load_failures.saturating_sub(earlier.load_failures),
            insertions: self.insertions.saturating_sub(earlier.insertions),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            oversized: self.oversized.saturating_sub(earlier.oversized),
            entries: self.entries,
            bytes: self.bytes,
        }
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} entries ({} bytes), {} hits + {} coalesced / {} misses, {} evictions",
            self.entries, self.bytes, self.hits, self.coalesced_hits, self.misses, self.evictions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_edge_cases() {
        assert_eq!(CacheStats::default().hit_rate(), None);
        let s = CacheStats {
            hits: 3,
            coalesced_hits: 1,
            misses: 4,
            ..CacheStats::default()
        };
        assert_eq!(s.hit_rate(), Some(0.5));
        assert_eq!(s.lookups(), 8);
        assert_eq!(CacheStats::default().lookups(), 0);
    }

    #[test]
    fn delta_attributes_a_span() {
        let before = CacheStats {
            hits: 10,
            misses: 5,
            ..CacheStats::default()
        };
        let after = CacheStats {
            hits: 14,
            misses: 5,
            entries: 5,
            bytes: 640,
            ..CacheStats::default()
        };
        let d = after.delta_since(&before);
        assert_eq!(d.hits, 4);
        assert_eq!(d.misses, 0);
        assert_eq!(d.entries, 5);
        // Saturation under out-of-order snapshots.
        assert_eq!(before.delta_since(&after).hits, 0);
    }

    #[test]
    fn display_is_compact() {
        let s = CacheStats {
            entries: 2,
            bytes: 128,
            hits: 1,
            misses: 2,
            ..CacheStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("2 entries"));
        assert!(text.contains("128 bytes"));
    }
}
