//! Access accounting: the paper's cost metric.
//!
//! An *access* is the evaluation of a single-atom CQ over one relation with
//! all input attributes selected by constants (§II). `Acc(D, Π)` — the set
//! of accesses a plan executes on an instance — is the quantity both
//! minimality notions of §IV compare, and the quantity Figures 6 and 10
//! report. The log therefore stores accesses as a *set* keyed by
//! `(relation, binding)`.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use toorjah_catalog::{FastHasher, FastMap, FastSet, RelationId, Schema, Tuple};

/// Default hard cap on distinct accesses per execution, shared by every
/// evaluator ([`crate::ExecOptions`], [`crate::NaiveOptions`], and the
/// distillation executor). Large enough to never bind on the paper's
/// workloads, small enough to stop a combinatorial blow-up (many-input
/// relations under the naive algorithm) before it exhausts memory.
pub const DEFAULT_ACCESS_BUDGET: usize = 10_000_000;

/// A deduplicating log of performed accesses with per-relation counters.
///
/// Each access is stored once, in `sequence`; the set semantics come from
/// `index`, an open-addressed table of positions into `sequence`, so a
/// membership test or a record is one hash and one probe run, and nothing
/// is cloned to ask.
#[derive(Clone, Default, Debug)]
pub struct AccessLog {
    sequence: Vec<(RelationId, Tuple)>,
    /// Positions into `sequence` ([`VACANT`] marks a free slot), linearly
    /// probed from the top bits of the access's hash; empty or a power of
    /// two at most half full.
    index: Vec<u32>,
    accesses_per_relation: FastMap<RelationId, usize>,
    extracted_per_relation: FastMap<RelationId, FastSet<Tuple>>,
    cache_served: usize,
}

/// A free [`AccessLog::index`] slot.
const VACANT: u32 = u32::MAX;

fn access_hash(relation: RelationId, binding: &Tuple) -> u64 {
    let mut hasher = FastHasher::default();
    relation.hash(&mut hasher);
    binding.hash(&mut hasher);
    hasher.finish()
}

impl AccessLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// The index slot holding `(relation, binding)`, or the vacant slot
    /// where it belongs (`Err`). The index must be non-empty.
    fn probe(&self, hash: u64, relation: RelationId, binding: &Tuple) -> Result<usize, usize> {
        let mask = self.index.len() - 1;
        // The multiplicative hash mixes upward: its top bits are its best.
        let mut slot = (hash >> (64 - self.index.len().trailing_zeros())) as usize;
        loop {
            match self.index[slot] {
                VACANT => return Err(slot),
                pos => {
                    let (r, b) = &self.sequence[pos as usize];
                    if *r == relation && b == binding {
                        return Ok(slot);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Doubles the index (at least 16 slots) and re-files every access.
    fn grow_index(&mut self) {
        let slots = (self.index.len() * 2).max(16);
        self.index = vec![VACANT; slots];
        for pos in 0..self.sequence.len() {
            let (relation, binding) = &self.sequence[pos];
            let Err(slot) = self.probe(access_hash(*relation, binding), *relation, binding) else {
                unreachable!("logged accesses are distinct");
            };
            self.index[slot] = pos as u32;
        }
    }

    /// Records an access; returns `true` if it was new (i.e. it actually
    /// costs something under the set semantics).
    pub fn record(&mut self, relation: RelationId, binding: Tuple) -> bool {
        if 2 * (self.sequence.len() + 1) > self.index.len() {
            self.grow_index();
        }
        let slot = match self.probe(access_hash(relation, &binding), relation, &binding) {
            Ok(_) => return false,
            Err(slot) => slot,
        };
        let pos = u32::try_from(self.sequence.len())
            .ok()
            .filter(|&pos| pos != VACANT)
            .expect("fewer than 2^32 - 1 accesses per log");
        self.index[slot] = pos;
        self.sequence.push((relation, binding));
        *self.accesses_per_relation.entry(relation).or_insert(0) += 1;
        true
    }

    /// The accesses in the order they were performed — an execution trace
    /// useful for debugging plans and asserting scheduling properties.
    pub fn sequence(&self) -> &[(RelationId, Tuple)] {
        &self.sequence
    }

    /// Records the tuples extracted by an access.
    pub fn record_extracted<'a>(
        &mut self,
        relation: RelationId,
        tuples: impl IntoIterator<Item = &'a Tuple>,
    ) {
        let set = self.extracted_per_relation.entry(relation).or_default();
        for t in tuples {
            set.insert(t.clone());
        }
    }

    /// Records that an access this execution requested was served from a
    /// cache at zero cost (a meta-cache repeat or a warm shared-cache
    /// entry). Kept outside [`AccessStats`]: it is an observability
    /// counter, not part of the paper's access-set cost.
    pub fn record_cache_served(&mut self) {
        self.cache_served += 1;
    }

    /// How many requested accesses were served from a cache at zero cost.
    pub fn cache_served(&self) -> usize {
        self.cache_served
    }

    /// Folds another log into this one under the set semantics: accesses
    /// already performed here are not re-counted, extracted-tuple sets are
    /// unioned, and cache-served counters add up. Used to combine the
    /// phases of a composite execution (e.g. per-disjunct streaming runs)
    /// into one per-query account.
    pub fn merge(&mut self, other: &AccessLog) {
        for (relation, binding) in &other.sequence {
            self.record(*relation, binding.clone());
        }
        for (&relation, tuples) in &other.extracted_per_relation {
            self.extracted_per_relation
                .entry(relation)
                .or_default()
                .extend(tuples.iter().cloned());
        }
        self.cache_served += other.cache_served;
    }

    /// Whether an access was already performed.
    pub fn contains(&self, relation: RelationId, binding: &Tuple) -> bool {
        !self.index.is_empty()
            && self
                .probe(access_hash(relation, binding), relation, binding)
                .is_ok()
    }

    /// Total number of distinct accesses.
    pub fn total(&self) -> usize {
        self.sequence.len()
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> AccessStats {
        AccessStats {
            total_accesses: self.sequence.len(),
            accesses: self
                .accesses_per_relation
                .iter()
                .map(|(&r, &n)| (r, n))
                .collect(),
            extracted: self
                .extracted_per_relation
                .iter()
                .map(|(&r, set)| (r, set.len()))
                .collect(),
        }
    }
}

/// Immutable access counters (the rows of the paper's Fig. 6).
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct AccessStats {
    /// Total distinct accesses across all relations.
    pub total_accesses: usize,
    /// Distinct accesses per relation.
    pub accesses: HashMap<RelationId, usize>,
    /// Distinct tuples extracted per relation ("returned rows").
    pub extracted: HashMap<RelationId, usize>,
}

impl AccessStats {
    /// Accesses performed on one relation (0 when never accessed).
    pub fn accesses_to(&self, relation: RelationId) -> usize {
        self.accesses.get(&relation).copied().unwrap_or(0)
    }

    /// Distinct tuples extracted from one relation.
    pub fn extracted_from(&self, relation: RelationId) -> usize {
        self.extracted.get(&relation).copied().unwrap_or(0)
    }

    /// Renders a per-relation table in schema order, like Fig. 6's blocks.
    pub fn table(&self, schema: &Schema) -> String {
        let mut out = String::new();
        out.push_str("relation            accesses   extracted\n");
        for (id, rel) in schema.iter() {
            let a = self.accesses_to(id);
            let e = self.extracted_from(id);
            let (a, e) = if a == 0 && e == 0 {
                ("-".to_string(), "-".to_string())
            } else {
                (a.to_string(), e.to_string())
            };
            out.push_str(&format!("{:<20}{:>8}{:>12}\n", rel.name(), a, e));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use toorjah_catalog::tuple;

    #[test]
    fn set_semantics() {
        let mut log = AccessLog::new();
        let r = RelationId(0);
        assert!(log.record(r, tuple!["a"]));
        assert!(!log.record(r, tuple!["a"]));
        assert!(log.record(r, tuple!["b"]));
        assert_eq!(log.total(), 2);
        assert!(log.contains(r, &tuple!["a"]));
        assert!(!log.contains(RelationId(1), &tuple!["a"]));
    }

    #[test]
    fn set_semantics_survive_index_growth() {
        // Enough accesses to double the position table many times; every
        // access stays findable and is recorded once, in order.
        let mut log = AccessLog::new();
        let key = |i: i64| (RelationId((i % 3) as u32), tuple![i, i / 7]);
        for i in 0..10_000 {
            let (r, b) = key(i);
            assert!(log.record(r, b));
        }
        for i in 0..10_000 {
            let (r, b) = key(i);
            assert!(log.contains(r, &b), "access {i} is found");
            assert!(!log.record(r, b), "access {i} is not re-recorded");
        }
        assert!(!log.contains(RelationId(1), &tuple![0, 0]));
        assert_eq!(log.total(), 10_000);
        assert!(log
            .sequence()
            .iter()
            .zip(0..)
            .all(|(seen, i)| *seen == key(i)));
    }

    #[test]
    fn sequence_preserves_order() {
        let mut log = AccessLog::new();
        log.record(RelationId(1), tuple!["b"]);
        log.record(RelationId(0), tuple!["a"]);
        log.record(RelationId(1), tuple!["b"]); // duplicate: not re-recorded
        let seq = log.sequence();
        assert_eq!(seq.len(), 2);
        assert_eq!(seq[0], (RelationId(1), tuple!["b"]));
        assert_eq!(seq[1], (RelationId(0), tuple!["a"]));
    }

    #[test]
    fn per_relation_counters() {
        let mut log = AccessLog::new();
        log.record(RelationId(0), tuple!["a"]);
        log.record(RelationId(1), Tuple::empty());
        log.record_extracted(RelationId(0), &[tuple!["a", 1], tuple!["a", 2]]);
        log.record_extracted(RelationId(0), &[tuple!["a", 1]]);
        let stats = log.stats();
        assert_eq!(stats.accesses_to(RelationId(0)), 1);
        assert_eq!(stats.accesses_to(RelationId(1)), 1);
        assert_eq!(stats.extracted_from(RelationId(0)), 2);
        assert_eq!(stats.extracted_from(RelationId(2)), 0);
        assert_eq!(stats.total_accesses, 2);
    }

    #[test]
    fn merge_is_set_semantic() {
        let mut a = AccessLog::new();
        a.record(RelationId(0), tuple!["x"]);
        a.record_extracted(RelationId(0), &[tuple!["x", 1]]);
        a.record_cache_served();
        let mut b = AccessLog::new();
        b.record(RelationId(0), tuple!["x"]); // duplicate of a's access
        b.record(RelationId(1), tuple!["y"]);
        b.record_extracted(RelationId(0), &[tuple!["x", 1], tuple!["x", 2]]);
        b.record_cache_served();
        b.record_cache_served();
        a.merge(&b);
        assert_eq!(a.total(), 2, "duplicate access not re-counted");
        assert_eq!(a.stats().accesses_to(RelationId(1)), 1);
        assert_eq!(a.stats().extracted_from(RelationId(0)), 2, "tuple union");
        assert_eq!(a.cache_served(), 3);
        assert_eq!(a.sequence().len(), 2);
    }

    #[test]
    fn table_renders_dashes_for_untouched_relations() {
        let schema = toorjah_catalog::Schema::parse("a^o(X) b^o(Y)").unwrap();
        let mut log = AccessLog::new();
        log.record(RelationId(0), Tuple::empty());
        let text = log.stats().table(&schema);
        assert!(text.contains('a'));
        assert!(text.contains('-'));
    }
}
