//! Fact storage with eager single-column hash indexes over interned values.
//!
//! A store is what every local evaluation reads: the semi-naive evaluator's
//! extents, the executor's caches, the engine's per-atom extensions. The
//! search kernel ([`crate::Search`]) resolves each literal's [`Extent`] once
//! and then probes its column indexes through borrowed posting lists, so
//! neither a probe nor a fold allocates per value: a column value held by a
//! single tuple — most of them, on the paper's instances — keeps its one
//! position inline in the index entry, and only a value shared by several
//! tuples owns a position list.

use std::collections::hash_map::Entry;

use toorjah_catalog::{FastMap, FastSet, IVal, Tuple, Value};

use crate::PredId;

/// Facts for one predicate: a deduplicated tuple list with one hash index
/// per column, keyed by the compact [`IVal`] representation — probes hash a
/// `u32` symbol id or an `i64` with the cheap [`FastMap`] hasher, never a
/// string payload through SipHash.
///
/// Indexes are built **eagerly**: the first insert fixes the arity and
/// allocates one map per column, and every later insert appends its position
/// to each column's posting list. Lookups therefore work through plain
/// shared borrows (no interior mutability), the store is `Sync`, and a probe
/// can hand out its posting list as a borrowed slice — see
/// [`FactStore::candidates`] — instead of cloning it.
#[derive(Clone, Default, Debug)]
struct PredFacts {
    tuples: Vec<Tuple>,
    seen: FastSet<Tuple>,
    /// `indexes[col]` maps a column value to the positions of tuples
    /// carrying it at `col`, in insertion order. Empty in an
    /// [unindexed](FactStore::unindexed) store.
    indexes: Vec<FastMap<IVal, Postings>>,
}

/// One index entry's posting list. A single position stays inline; the
/// list is allocated only when a second tuple shares the value.
#[derive(Clone, Debug)]
enum Postings {
    One(u32),
    Many(Vec<u32>),
}

impl Postings {
    fn push(&mut self, pos: u32) {
        match self {
            Postings::One(first) => *self = Postings::Many(vec![*first, pos]),
            Postings::Many(list) => list.push(pos),
        }
    }

    fn as_slice(&self) -> &[u32] {
        match self {
            Postings::One(pos) => std::slice::from_ref(pos),
            Postings::Many(list) => list,
        }
    }
}

impl PredFacts {
    fn insert(&mut self, t: Tuple, indexed: bool) -> bool {
        if !self.seen.insert(t.clone()) {
            return false;
        }
        let pos = u32::try_from(self.tuples.len()).expect("fewer than 2^32 facts per predicate");
        if indexed {
            if self.indexes.len() != t.len() {
                self.indexes = vec![FastMap::default(); t.len()];
            }
            for (index, &v) in self.indexes.iter_mut().zip(t.values()) {
                match index.entry(IVal::from(v)) {
                    Entry::Occupied(mut postings) => postings.get_mut().push(pos),
                    Entry::Vacant(vacant) => {
                        vacant.insert(Postings::One(pos));
                    }
                }
            }
        }
        self.tuples.push(t);
        true
    }

    fn extent(&self) -> Extent<'_> {
        Extent {
            tuples: &self.tuples,
            indexes: &self.indexes,
        }
    }
}

/// One predicate's facts as a search reads them: the tuples, in insertion
/// order, and (in an indexed store) one index per column. Resolving a
/// literal's extent once — [`FactStore::extent`] — takes the predicate
/// lookup out of the search's inner loop.
#[derive(Clone, Copy, Debug)]
pub struct Extent<'a> {
    tuples: &'a [Tuple],
    indexes: &'a [FastMap<IVal, Postings>],
}

impl<'a> Extent<'a> {
    /// The facts, in insertion order.
    pub fn tuples(&self) -> &'a [Tuple] {
        self.tuples
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// The facts from position `start` on, unindexed: a store only ever
    /// appends, so the tuples a predicate gained since it held `start`
    /// facts are its delta. A search over the suffix scans it in order.
    pub fn suffix(self, start: usize) -> Extent<'a> {
        Extent {
            tuples: &self.tuples[start..],
            indexes: &[],
        }
    }

    /// Whether there is no fact.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Candidate positions (into [`Extent::tuples`]): the posting list of
    /// `value` at `col` when a bound column is given and the extent is
    /// indexed, every position otherwise — a superset in the same
    /// (insertion) order, so a search that re-verifies each tuple visits the
    /// same matches in the same sequence either way. Borrows the index: no
    /// allocation per probe.
    pub fn candidates(&self, bound: Option<(usize, Value)>) -> Candidates<'a> {
        match bound {
            Some((col, value)) if !self.indexes.is_empty() => {
                Candidates::Indexed(self.positions(col, value).iter())
            }
            _ => Candidates::All(0..self.tuples.len()),
        }
    }

    /// The posting list for `value` at `col`, borrowed from the index.
    fn positions(&self, col: usize, value: Value) -> &'a [u32] {
        self.indexes
            .get(col)
            .and_then(|index| index.get(&IVal::from(value)))
            .map_or(&[], Postings::as_slice)
    }
}

/// Tuple positions produced by a probe: either a borrowed posting list from
/// a column index or the full extent. Iterating allocates nothing — this is
/// what the evaluator's recursive join loops drive.
#[derive(Clone, Debug)]
pub enum Candidates<'a> {
    /// Positions from a column index, in insertion order.
    Indexed(std::slice::Iter<'a, u32>),
    /// Every position: the literal had no bound column to probe with.
    All(std::ops::Range<usize>),
}

impl Iterator for Candidates<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            Candidates::Indexed(iter) => iter.next().map(|&p| p as usize),
            Candidates::All(range) => range.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Candidates::Indexed(iter) => iter.size_hint(),
            Candidates::All(range) => range.size_hint(),
        }
    }
}

impl ExactSizeIterator for Candidates<'_> {}

/// A set of facts per predicate, the input/output format of
/// [`crate::evaluate`].
///
/// Insertion order is preserved per predicate, making iteration — and hence
/// evaluation traces and test expectations — deterministic.
#[derive(Clone, Debug)]
pub struct FactStore {
    facts: FastMap<PredId, PredFacts>,
    /// Whether inserts maintain the per-column posting lists. An unindexed
    /// store skips them and answers probes by scanning; see
    /// [`FactStore::unindexed`].
    indexed: bool,
}

impl Default for FactStore {
    fn default() -> Self {
        FactStore {
            facts: FastMap::default(),
            indexed: true,
        }
    }
}

impl FactStore {
    /// Creates an empty store with eager column indexes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty store that skips index maintenance entirely.
    ///
    /// Probes stay correct — [`FactStore::candidates`] falls back to the
    /// full extent (callers re-verify every column against the tuple, so a
    /// superset is safe) and [`FactStore::matching`] /
    /// [`FactStore::has_matching`] scan. Worth it for stores that are
    /// written far more than probed: the semi-naive evaluator's delta and
    /// pending stores are refilled every round but probed only through
    /// verifying search loops, so the two index-map operations per inserted
    /// fact are pure overhead.
    pub fn unindexed() -> Self {
        FactStore {
            facts: FastMap::default(),
            indexed: false,
        }
    }

    /// Inserts a fact; returns `true` if it was new.
    pub fn insert(&mut self, pred: PredId, tuple: Tuple) -> bool {
        let indexed = self.indexed;
        self.facts.entry(pred).or_default().insert(tuple, indexed)
    }

    /// Inserts many facts.
    pub fn extend(&mut self, pred: PredId, tuples: impl IntoIterator<Item = Tuple>) {
        let indexed = self.indexed;
        let facts = self.facts.entry(pred).or_default();
        for t in tuples {
            facts.insert(t, indexed);
        }
    }

    /// All facts for a predicate, in insertion order.
    pub fn tuples(&self, pred: PredId) -> &[Tuple] {
        self.facts.get(&pred).map_or(&[], |f| &f.tuples)
    }

    /// Whether the predicate has any fact.
    pub fn is_empty(&self, pred: PredId) -> bool {
        self.tuples(pred).is_empty()
    }

    /// Number of facts for a predicate.
    pub fn len(&self, pred: PredId) -> usize {
        self.tuples(pred).len()
    }

    /// Total number of facts across predicates.
    pub fn total(&self) -> usize {
        self.facts.values().map(|f| f.tuples.len()).sum()
    }

    /// Whether a specific fact is present.
    pub fn contains(&self, pred: PredId, tuple: &Tuple) -> bool {
        self.facts
            .get(&pred)
            .is_some_and(|f| f.seen.contains(tuple))
    }

    /// The facts of `pred` as a search reads them; empty when the predicate
    /// has none.
    pub fn extent(&self, pred: PredId) -> Extent<'_> {
        self.facts.get(&pred).map_or(
            Extent {
                tuples: &[],
                indexes: &[],
            },
            PredFacts::extent,
        )
    }

    /// Candidate positions (into [`FactStore::tuples`]) for a body literal:
    /// [`Extent::candidates`] of the predicate's extent. On an
    /// [unindexed](FactStore::unindexed) store a bound column yields the
    /// full extent.
    pub fn candidates(&self, pred: PredId, bound: Option<(usize, Value)>) -> Candidates<'_> {
        self.extent(pred).candidates(bound)
    }

    /// Positions of facts matching `value` at `col`, as an owned vector.
    /// Prefer [`FactStore::candidates`] in loops — this exists for callers
    /// that need to keep the positions around.
    pub fn matching(&self, pred: PredId, col: usize, value: &Value) -> Vec<usize> {
        if self.indexed {
            self.candidates(pred, Some((col, *value))).collect()
        } else {
            self.tuples(pred)
                .iter()
                .enumerate()
                .filter(|(_, t)| t.values().get(col) == Some(value))
                .map(|(pos, _)| pos)
                .collect()
        }
    }

    /// Whether any fact matches `value` at `col` — the allocation-free
    /// membership probe behind the engine's runtime semi-join pruning.
    pub fn has_matching(&self, pred: PredId, col: usize, value: &Value) -> bool {
        if self.indexed {
            !self.extent(pred).positions(col, *value).is_empty()
        } else {
            self.tuples(pred)
                .iter()
                .any(|t| t.values().get(col) == Some(value))
        }
    }

    /// Removes every fact while keeping the per-predicate allocations
    /// (tuple vectors, seen sets, index maps) for reuse — the semi-naive
    /// evaluator clears and refills its delta store every round instead of
    /// reallocating one.
    pub fn clear(&mut self) {
        for facts in self.facts.values_mut() {
            facts.tuples.clear();
            facts.seen.clear();
            for index in &mut facts.indexes {
                index.clear();
            }
        }
    }

    /// Merges all facts of `other` into `self`.
    pub fn absorb(&mut self, other: &FactStore) {
        let indexed = self.indexed;
        for (&pred, facts) in &other.facts {
            let target = self.facts.entry(pred).or_default();
            for t in &facts.tuples {
                target.insert(t.clone(), indexed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use toorjah_catalog::tuple;

    #[test]
    fn insert_dedups() {
        let mut s = FactStore::new();
        let p = PredId(0);
        assert!(s.insert(p, tuple!["a", 1]));
        assert!(!s.insert(p, tuple!["a", 1]));
        assert_eq!(s.len(p), 1);
        assert!(s.contains(p, &tuple!["a", 1]));
        assert!(!s.contains(p, &tuple!["a", 2]));
    }

    #[test]
    fn missing_predicate_is_empty() {
        let s = FactStore::new();
        assert!(s.is_empty(PredId(7)));
        assert_eq!(s.tuples(PredId(7)), &[]);
        assert!(s.matching(PredId(7), 0, &Value::from(1)).is_empty());
        assert_eq!(s.candidates(PredId(7), None).count(), 0);
        assert_eq!(
            s.candidates(PredId(7), Some((0, Value::from(1)))).count(),
            0
        );
    }

    #[test]
    fn index_lookup_finds_positions() {
        let mut s = FactStore::new();
        let p = PredId(0);
        s.extend(p, [tuple!["a", 1], tuple!["b", 2], tuple!["a", 3]]);
        let pos = s.matching(p, 0, &Value::from("a"));
        assert_eq!(pos, vec![0, 2]);
        assert!(s.matching(p, 0, &Value::from("zz")).is_empty());
    }

    #[test]
    fn index_extends_after_inserts() {
        let mut s = FactStore::new();
        let p = PredId(0);
        s.insert(p, tuple!["a", 1]);
        assert_eq!(s.matching(p, 0, &Value::from("a")).len(), 1);
        s.insert(p, tuple!["a", 2]);
        assert_eq!(s.matching(p, 0, &Value::from("a")).len(), 2);
    }

    #[test]
    fn candidates_without_bound_column_cover_extent() {
        let mut s = FactStore::new();
        let p = PredId(0);
        s.extend(p, [tuple![3], tuple![1], tuple![2]]);
        let all: Vec<usize> = s.candidates(p, None).collect();
        assert_eq!(all, vec![0, 1, 2]);
    }

    #[test]
    fn candidates_probe_every_column() {
        let mut s = FactStore::new();
        let p = PredId(0);
        s.extend(p, [tuple!["a", 1, "x"], tuple!["b", 1, "y"]]);
        let by_mid: Vec<usize> = s.candidates(p, Some((1, Value::from(1)))).collect();
        assert_eq!(by_mid, vec![0, 1]);
        let by_last: Vec<usize> = s.candidates(p, Some((2, Value::from("y")))).collect();
        assert_eq!(by_last, vec![1]);
    }

    #[test]
    fn store_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<FactStore>();
    }

    #[test]
    fn absorb_merges() {
        let mut a = FactStore::new();
        let mut b = FactStore::new();
        let p = PredId(0);
        a.insert(p, tuple![1]);
        b.insert(p, tuple![1]);
        b.insert(p, tuple![2]);
        a.absorb(&b);
        assert_eq!(a.len(p), 2);
        assert_eq!(a.total(), 2);
    }

    #[test]
    fn insertion_order_preserved() {
        let mut s = FactStore::new();
        let p = PredId(0);
        s.extend(p, [tuple![3], tuple![1], tuple![2]]);
        let order: Vec<_> = s.tuples(p).to_vec();
        assert_eq!(order, vec![tuple![3], tuple![1], tuple![2]]);
    }

    #[test]
    fn clear_empties_but_keeps_indexes_working() {
        let mut s = FactStore::new();
        let p = PredId(0);
        s.extend(p, [tuple!["a", 1], tuple!["b", 2]]);
        s.clear();
        assert_eq!(s.total(), 0);
        assert!(s.is_empty(p));
        assert!(!s.contains(p, &tuple!["a", 1]));
        assert!(s.matching(p, 0, &Value::from("a")).is_empty());
        // Refilling after a clear keeps dedup and indexing intact.
        assert!(s.insert(p, tuple!["a", 7]));
        assert!(!s.insert(p, tuple!["a", 7]));
        assert_eq!(s.matching(p, 0, &Value::from("a")), vec![0]);
    }

    #[test]
    fn unindexed_store_answers_probes_by_scanning() {
        let mut indexed = FactStore::new();
        let mut plain = FactStore::unindexed();
        let p = PredId(0);
        for s in [&mut indexed, &mut plain] {
            s.extend(p, [tuple!["a", 1], tuple!["b", 2], tuple!["a", 3]]);
        }
        // matching/has_matching agree with the indexed store exactly.
        assert_eq!(
            plain.matching(p, 0, &Value::from("a")),
            indexed.matching(p, 0, &Value::from("a"))
        );
        assert!(plain.has_matching(p, 1, &Value::from(2)));
        assert!(!plain.has_matching(p, 1, &Value::from(9)));
        assert!(plain.matching(p, 0, &Value::from("zz")).is_empty());
        // candidates with a bound column fall back to the full extent — a
        // superset of the posting list, in insertion order.
        let all: Vec<usize> = plain.candidates(p, Some((0, Value::from("a")))).collect();
        assert_eq!(all, vec![0, 1, 2]);
        // Dedup and membership are index-free and unaffected.
        assert!(!plain.insert(p, tuple!["a", 1]));
        assert!(plain.contains(p, &tuple!["b", 2]));
        assert_eq!(plain.len(p), 3);
    }

    #[test]
    fn unindexed_store_clears_and_refills() {
        let mut s = FactStore::unindexed();
        let p = PredId(0);
        s.extend(p, [tuple![1, 2], tuple![2, 3]]);
        s.clear();
        assert_eq!(s.total(), 0);
        assert!(s.insert(p, tuple![5, 6]));
        assert!(!s.insert(p, tuple![5, 6]));
        assert_eq!(s.matching(p, 1, &Value::from(6)), vec![0]);
    }

    #[test]
    fn clone_keeps_indexes_independent() {
        let mut s = FactStore::new();
        let p = PredId(0);
        s.insert(p, tuple!["a", 1]);
        let c = s.clone();
        s.insert(p, tuple!["a", 2]);
        assert_eq!(c.matching(p, 0, &Value::from("a")).len(), 1);
        assert_eq!(s.matching(p, 0, &Value::from("a")).len(), 2);
    }
}
