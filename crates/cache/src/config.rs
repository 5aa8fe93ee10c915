//! Cache configuration: sharding and eviction policy.

/// When (and what) the cache evicts.
///
/// Eviction never affects answers: an evicted extraction is simply re-fetched
/// from the source on the next request, paying one more access. The paper's
/// "never repeat an access" guarantee therefore degrades gracefully into
/// "never repeat an access *while the extraction is retained*" — the access
/// *set semantics* of per-query statistics are unaffected (see DESIGN.md).
///
/// A bounded cache holds its whole budget in one shard and evicts by
/// GreedyDual-Size: each entry is valued at one saved access per unit of
/// budget it holds, aged by the priority of the last eviction (see
/// DESIGN.md).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EvictionPolicy {
    /// Keep every extraction forever (the paper's meta-cache behavior).
    #[default]
    Unbounded,
    /// Keep at most this many extractions. Every entry is charged 1, so
    /// GreedyDual-Size evicts the least recently used.
    MaxEntries(usize),
    /// Keep at most this many bytes of extractions (keys and tuples
    /// accounted via [`toorjah_catalog::Tuple::estimated_bytes`]), evicting
    /// the entry that saves the fewest accesses per byte retained.
    MaxBytes(usize),
}

/// Configuration of a [`crate::SharedAccessCache`].
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Number of independently locked shards of an unbounded cache. More
    /// shards reduce contention between concurrent queries. A bounded cache
    /// is always one shard, so its [`CacheConfig::eviction`] budget is one
    /// pool that no partition of the keys can fragment.
    pub shards: usize,
    /// The eviction policy.
    pub eviction: EvictionPolicy,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            shards: 8,
            eviction: EvictionPolicy::Unbounded,
        }
    }
}

impl CacheConfig {
    /// An unbounded cache with the default shard count.
    pub fn unbounded() -> Self {
        CacheConfig::default()
    }

    /// A one-shard cache keeping at most `entries` extractions, evicting
    /// the least recently used.
    pub fn max_entries(entries: usize) -> Self {
        CacheConfig {
            eviction: EvictionPolicy::MaxEntries(entries),
            ..CacheConfig::default()
        }
    }

    /// A one-shard cache keeping at most `bytes` estimated bytes, evicting
    /// by GreedyDual-Size.
    pub fn max_bytes(bytes: usize) -> Self {
        CacheConfig {
            eviction: EvictionPolicy::MaxBytes(bytes),
            ..CacheConfig::default()
        }
    }

    /// Overrides the shard count of an unbounded cache; a bounded cache
    /// stays one shard, so on one this has no effect.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// The effective shard count: one for a bounded cache, whose budget is
    /// one pool, and at least one otherwise.
    pub(crate) fn effective_shards(&self) -> usize {
        match self.eviction {
            EvictionPolicy::Unbounded => self.shards.max(1),
            EvictionPolicy::MaxEntries(_) | EvictionPolicy::MaxBytes(_) => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SharedAccessCache;
    use toorjah_catalog::{tuple, RelationId};

    #[test]
    fn shard_clamping_keeps_budgets_positive() {
        // A bounded cache is one shard holding the whole budget, whatever
        // shard count it asks for.
        let c = CacheConfig::max_entries(3).with_shards(16);
        assert_eq!(c.effective_shards(), 1);
        assert_eq!(c.eviction, EvictionPolicy::MaxEntries(3));
        let c = CacheConfig::max_bytes(100).with_shards(8);
        assert_eq!(c.effective_shards(), 1);
        assert_eq!(c.eviction, EvictionPolicy::MaxBytes(100));
        assert_eq!(
            CacheConfig::unbounded().with_shards(16).effective_shards(),
            16
        );
    }

    #[test]
    fn totals_never_exceed_configured_budget() {
        // Under any shard count the whole budget is usable and never
        // exceeded: an entry cap fills to exactly its total, and a byte
        // budget retains an entry as large as the budget itself.
        let r = RelationId(0);
        for total in [1usize, 2, 7, 100] {
            for shards in [1usize, 2, 3, 8, 64] {
                let cache =
                    SharedAccessCache::new(CacheConfig::max_entries(total).with_shards(shards));
                for i in 0..2 * total as i64 {
                    assert!(cache.insert(r, &tuple![i], vec![tuple![i]]));
                    assert!(cache.len() <= total);
                }
                assert_eq!(cache.len(), total);
            }
        }
        let sized = |n: i64| (0..n).map(|i| tuple![i, i]).collect::<Vec<_>>();
        let one = SharedAccessCache::unbounded();
        one.insert(r, &tuple![0], sized(20));
        let total = one.bytes();
        for shards in [1usize, 2, 3, 8, 64] {
            let cache = SharedAccessCache::new(CacheConfig::max_bytes(total).with_shards(shards));
            assert!(
                cache.insert(r, &tuple![0], sized(20)),
                "fits the whole budget"
            );
            assert_eq!(cache.bytes(), total);
            for i in 1..40 {
                cache.insert(r, &tuple![i], sized(i % 7));
                assert!(cache.bytes() <= total);
            }
            assert!(
                !cache.insert(r, &tuple![99], sized(21)),
                "larger than the budget"
            );
            assert_eq!(cache.stats().oversized, 1);
        }
    }

    #[test]
    fn zero_shards_is_clamped_to_one() {
        let c = CacheConfig::unbounded().with_shards(0);
        assert_eq!(c.effective_shards(), 1);
    }
}
