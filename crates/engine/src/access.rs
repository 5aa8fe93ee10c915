//! Access accounting and the per-execution meta-cache (§IV).
//!
//! An *access* is the evaluation of a single-atom CQ over one relation with
//! all input attributes selected by constants (§II). `Acc(D, Π)` — the set
//! of accesses a plan executes on an instance — is the quantity both
//! minimality notions of §IV compare, and the quantity Figures 6 and 10
//! report. The log therefore stores accesses as a *set* keyed by
//! `(relation, binding)`.
//!
//! The same set is the paper's meta-cache:
//!
//! > *"Since there may be several sources for the same relation, we have to
//! > make sure to not repeat any access to a relation. For this purpose, we
//! > keep track of all access tuples used to access relations […] Toorjah
//! > uses, for each relation, a sort of 'meta-cache' […] Then, before
//! > accessing a relation for the evaluation of a cache rule, we check
//! > whether the access was already made by consulting its meta-cache. If
//! > so, we read the extraction from the corresponding cache; else we make
//! > the access proper."*
//!
//! [`AccessLog`] keeps each performed access's extraction next to its key,
//! so the check before an access and the read-back of its extraction are
//! one probe of the log's index. Sharing extractions *across* executions
//! and sessions is the job of `toorjah_cache::SharedAccessCache`; within
//! one execution the log alone decides whether an access is made.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use toorjah_catalog::{AccessKey, FastHasher, FastMap, FastSet, RelationId, Schema, Tuple};

/// Default hard cap on distinct accesses per execution, shared by every
/// evaluator ([`crate::ExecOptions`] and [`crate::NaiveOptions`]). Large
/// enough to never bind on the paper's workloads, small enough to stop a
/// combinatorial blow-up (many-input relations under the naive algorithm)
/// before it exhausts memory.
pub const DEFAULT_ACCESS_BUDGET: usize = 10_000_000;

/// A deduplicating log of performed accesses and their extractions, with
/// per-relation counters: the execution's meta-cache.
///
/// Each access is stored once, in `sequence`, with its extraction; the set
/// semantics come from `index`, an open-addressed table of positions into
/// `sequence`, so a membership test, a read-back or a record is one hash
/// and one probe run, and nothing is cloned to ask.
///
/// While the dispatcher works through a frontier, the accesses it is about
/// to make are *reserved* at the end of `sequence`: a repeat of a reserved
/// access finds it, and a batch of reserved accesses is one contiguous
/// slice to hand to the source. Closing the frontier keeps the
/// reservations that were performed and drops the rest, so outside a
/// frontier every stored access is a performed one.
#[derive(Clone, Default, Debug)]
pub struct AccessLog {
    sequence: Vec<AccessKey>,
    /// The extraction of each access in `sequence`.
    extractions: Vec<Arc<[Tuple]>>,
    /// Per access in `sequence`, the last frontier that requested it (see
    /// [`Probe::Logged`]).
    requested_in: Vec<u32>,
    /// Positions into `sequence` ([`VACANT`] marks a free slot), linearly
    /// probed from the top bits of the access's hash; empty or a power of
    /// two at most half full.
    index: Vec<u32>,
    extracted_per_relation: FastMap<RelationId, FastSet<Tuple>>,
    cache_served: usize,
    /// Frontiers opened so far; the stamp of the open one.
    frontiers: u32,
    /// The performed accesses: `sequence[..performed]`. Equal to
    /// `sequence.len()` outside a frontier.
    performed: usize,
    /// The extraction of reservations and of requests still waiting for
    /// one. Each log has its own, so concurrent executions never contend
    /// on one reference count.
    nothing: Arc<[Tuple]>,
}

/// A free [`AccessLog::index`] slot.
const VACANT: u32 = u32::MAX;

/// Adds the tuples an access to `relation` extracted to the relation's set.
fn fold_extracted(
    sets: &mut FastMap<RelationId, FastSet<Tuple>>,
    relation: RelationId,
    tuples: &[Tuple],
) {
    if tuples.is_empty() {
        return;
    }
    let set = sets.entry(relation).or_default();
    for t in tuples {
        set.insert(t.clone());
    }
}

fn access_hash(relation: RelationId, binding: &Tuple) -> u64 {
    let mut hasher = FastHasher::default();
    relation.hash(&mut hasher);
    binding.hash(&mut hasher);
    hasher.finish()
}

/// What the log knows of an access requested in the open frontier.
pub(crate) enum Probe {
    /// Performed before the frontier opened; `first` is whether this is its
    /// first request in the frontier.
    Logged { pos: usize, first: bool },
    /// Reserved in the open frontier: just now (`new`), or by an earlier
    /// request of the frontier.
    Reserved { pos: usize, new: bool },
}

impl AccessLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// The index slot holding `(relation, binding)`, or the vacant slot
    /// where it belongs (`Err`). The index must be non-empty.
    fn probe(&self, relation: RelationId, binding: &Tuple) -> Result<usize, usize> {
        let mask = self.index.len() - 1;
        // The multiplicative hash mixes upward: its top bits are its best.
        let hash = access_hash(relation, binding);
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

    /// Makes room in the index for `more` accesses beyond those stored, so
    /// filing them never re-files the others.
    fn reserve_index(&mut self, more: usize) {
        let needed = 2 * (self.sequence.len() + more);
        if needed <= self.index.len() {
            return;
        }
        self.index = vec![VACANT; needed.next_power_of_two().max(16)];
        for pos in 0..self.sequence.len() {
            let (relation, binding) = &self.sequence[pos];
            let Err(slot) = self.probe(*relation, binding) else {
                unreachable!("logged accesses are distinct");
            };
            self.index[slot] = pos as u32;
        }
    }

    /// Stores an access at the vacant index slot `slot`; returns its
    /// position.
    fn push(&mut self, slot: usize, key: AccessKey, extraction: Arc<[Tuple]>) -> usize {
        let pos = u32::try_from(self.sequence.len())
            .ok()
            .filter(|&pos| pos != VACANT)
            .expect("fewer than 2^32 - 1 accesses per log");
        self.index[slot] = pos;
        self.sequence.push(key);
        self.extractions.push(extraction);
        self.requested_in.push(self.frontiers);
        pos as usize
    }

    /// Records a performed access and what it extracted; returns `true` if
    /// it was new (i.e. it actually costs something under the set
    /// semantics). A repeat records nothing.
    pub fn record(
        &mut self,
        relation: RelationId,
        binding: Tuple,
        extraction: Arc<[Tuple]>,
    ) -> bool {
        debug_assert_eq!(self.performed, self.sequence.len(), "no frontier is open");
        self.reserve_index(1);
        let Err(slot) = self.probe(relation, &binding) else {
            return false;
        };
        fold_extracted(&mut self.extracted_per_relation, relation, &extraction);
        self.push(slot, (relation, binding), extraction);
        self.performed += 1;
        true
    }

    /// Opens a frontier of `requests` accesses: the index is sized for all
    /// of them at once, so it never grows while they are reserved.
    pub(crate) fn open_frontier(&mut self, requests: usize) {
        debug_assert_eq!(
            self.performed,
            self.sequence.len(),
            "one frontier at a time"
        );
        self.reserve_index(requests);
        self.frontiers = self.frontiers.wrapping_add(1);
    }

    /// Looks a requested access up in the open frontier with one probe,
    /// reserving it when the log has not seen it.
    pub(crate) fn probe_or_reserve(&mut self, key: &AccessKey) -> Probe {
        match self.probe(key.0, &key.1) {
            Ok(slot) => {
                let pos = self.index[slot] as usize;
                if pos >= self.performed {
                    return Probe::Reserved { pos, new: false };
                }
                let first = std::mem::replace(&mut self.requested_in[pos], self.frontiers)
                    != self.frontiers;
                Probe::Logged { pos, first }
            }
            Err(slot) => {
                let nothing = self.nothing();
                Probe::Reserved {
                    pos: self.push(slot, key.clone(), nothing),
                    new: true,
                }
            }
        }
    }

    /// An empty extraction, to stand in for one not known yet.
    pub(crate) fn nothing(&self) -> Arc<[Tuple]> {
        Arc::clone(&self.nothing)
    }

    /// The stored extraction at a position of `sequence`.
    pub(crate) fn extraction_at(&self, pos: usize) -> &Arc<[Tuple]> {
        &self.extractions[pos]
    }

    /// The open frontier's reservations, in order, with their extraction
    /// slots to fill as the accesses land.
    pub(crate) fn reserved(&mut self) -> (&[AccessKey], &mut [Arc<[Tuple]>]) {
        (
            &self.sequence[self.performed..],
            &mut self.extractions[self.performed..],
        )
    }

    /// Closes the open frontier: the reservations for which `performed`
    /// holds (by their index among the reservations) become performed
    /// accesses, in order; the others are dropped.
    pub(crate) fn close_frontier(&mut self, performed: impl Fn(usize) -> bool) {
        let start = self.performed;
        let reserved = self.sequence.len() - start;
        if !(0..reserved).all(&performed) {
            // Newest first, every reservation is at the end of its probe
            // run — the older entries it passed are all still filed — so
            // vacating in that order restores the index as the frontier
            // found it. The performed ones are then moved up, in order,
            // and filed again.
            for pos in (start..self.sequence.len()).rev() {
                let (relation, binding) = &self.sequence[pos];
                let Ok(slot) = self.probe(*relation, binding) else {
                    unreachable!("reserved accesses are filed");
                };
                self.index[slot] = VACANT;
            }
            let mut kept = start;
            for i in (0..reserved).filter(|&i| performed(i)) {
                self.sequence.swap(kept, start + i);
                self.extractions.swap(kept, start + i);
                kept += 1;
            }
            self.sequence.truncate(kept);
            self.extractions.truncate(kept);
            self.requested_in.truncate(kept);
            for pos in start..kept {
                let (relation, binding) = &self.sequence[pos];
                let Err(slot) = self.probe(*relation, binding) else {
                    unreachable!("reserved accesses are distinct");
                };
                self.index[slot] = pos as u32;
            }
        }
        for ((relation, _), extraction) in self.sequence[start..]
            .iter()
            .zip(&self.extractions[start..])
        {
            fold_extracted(&mut self.extracted_per_relation, *relation, extraction);
        }
        self.performed = self.sequence.len();
    }

    /// The accesses in the order they were performed — an execution trace
    /// useful for debugging plans and asserting scheduling properties.
    pub fn sequence(&self) -> &[(RelationId, Tuple)] {
        &self.sequence[..self.performed]
    }

    /// Records that an access this execution requested was served from a
    /// cache at zero cost (a meta-cache repeat or a warm shared-cache
    /// entry). Kept outside [`AccessStats`]: it is an observability
    /// counter, not part of the paper's access-set cost.
    pub fn record_cache_served(&mut self) {
        self.cache_served += 1;
    }

    /// [`AccessLog::record_cache_served`], `n` times.
    pub(crate) fn add_cache_served(&mut self, n: usize) {
        self.cache_served += n;
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
        for ((relation, binding), extraction) in other.sequence().iter().zip(&other.extractions) {
            self.record(*relation, binding.clone(), Arc::clone(extraction));
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
                .probe(relation, binding)
                .is_ok_and(|slot| (self.index[slot] as usize) < self.performed)
    }

    /// Total number of distinct accesses.
    pub fn total(&self) -> usize {
        self.performed
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> AccessStats {
        let mut accesses: HashMap<RelationId, usize> = HashMap::new();
        for (relation, _) in self.sequence() {
            *accesses.entry(*relation).or_insert(0) += 1;
        }
        let mut extracted: HashMap<RelationId, usize> = self
            .extracted_per_relation
            .iter()
            .map(|(&r, set)| (r, set.len()))
            .collect();
        for &relation in accesses.keys() {
            extracted.entry(relation).or_insert(0);
        }
        AccessStats {
            total_accesses: self.performed,
            accesses,
            extracted,
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

    fn extracting(tuples: &[Tuple]) -> Arc<[Tuple]> {
        tuples.into()
    }

    fn no_tuples() -> Arc<[Tuple]> {
        extracting(&[])
    }

    #[test]
    fn set_semantics() {
        let mut log = AccessLog::new();
        let r = RelationId(0);
        assert!(log.record(r, tuple!["a"], no_tuples()));
        assert!(!log.record(r, tuple!["a"], no_tuples()));
        assert!(log.record(r, tuple!["b"], no_tuples()));
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
            assert!(log.record(r, b, no_tuples()));
        }
        for i in 0..10_000 {
            let (r, b) = key(i);
            assert!(log.contains(r, &b), "access {i} is found");
            assert!(
                !log.record(r, b, no_tuples()),
                "access {i} is not re-recorded"
            );
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
        log.record(RelationId(1), tuple!["b"], no_tuples());
        log.record(RelationId(0), tuple!["a"], no_tuples());
        log.record(RelationId(1), tuple!["b"], no_tuples()); // duplicate: not re-recorded
        let seq = log.sequence();
        assert_eq!(seq.len(), 2);
        assert_eq!(seq[0], (RelationId(1), tuple!["b"]));
        assert_eq!(seq[1], (RelationId(0), tuple!["a"]));
    }

    #[test]
    fn per_relation_counters() {
        let mut log = AccessLog::new();
        log.record(
            RelationId(0),
            tuple!["a"],
            extracting(&[tuple!["a", 1], tuple!["a", 2]]),
        );
        log.record(RelationId(1), Tuple::empty(), no_tuples());
        // A repeat records nothing, whatever it claims to extract.
        assert!(!log.record(RelationId(0), tuple!["a"], extracting(&[tuple!["a", 3]])));
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
        a.record(RelationId(0), tuple!["x"], extracting(&[tuple!["x", 1]]));
        a.record_cache_served();
        let mut b = AccessLog::new();
        // A duplicate of a's access, seen extracting more.
        b.record(
            RelationId(0),
            tuple!["x"],
            extracting(&[tuple!["x", 1], tuple!["x", 2]]),
        );
        b.record(RelationId(1), tuple!["y"], no_tuples());
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
    fn a_frontier_keeps_only_the_reservations_performed() {
        let mut log = AccessLog::new();
        let r = RelationId(0);
        for i in 0..20 {
            log.record(r, tuple![i], no_tuples());
        }
        log.open_frontier(4);
        let keys: Vec<AccessKey> = (18..23).map(|i| (r, tuple![i])).collect();
        let probes: Vec<Probe> = keys.iter().map(|k| log.probe_or_reserve(k)).collect();
        assert!(matches!(
            probes[0],
            Probe::Logged {
                pos: 18,
                first: true
            }
        ));
        assert!(matches!(probes[2], Probe::Reserved { pos: 20, new: true }));
        assert!(matches!(
            log.probe_or_reserve(&keys[2]),
            Probe::Reserved {
                pos: 20,
                new: false
            }
        ));
        assert!(matches!(
            log.probe_or_reserve(&keys[0]),
            Probe::Logged { first: false, .. }
        ));
        assert_eq!(log.total(), 20, "reservations are not accesses yet");
        let (reserved, slots) = log.reserved();
        assert_eq!(reserved, &keys[2..]);
        slots[1] = extracting(&[tuple![21, 1]]);
        // Only the middle reservation was performed.
        log.close_frontier(|i| i == 1);
        assert_eq!(log.total(), 21);
        assert_eq!(log.sequence()[20], keys[3]);
        assert!(!log.contains(r, &tuple![20]) && !log.contains(r, &tuple![22]));
        assert_eq!(log.stats().extracted_from(r), 1);
        for i in 0..20 {
            assert!(log.contains(r, &tuple![i]), "access {i} is still found");
        }
        assert!(
            log.record(r, tuple![20], no_tuples()),
            "a dropped reservation is new"
        );
    }

    #[test]
    fn table_renders_dashes_for_untouched_relations() {
        let schema = toorjah_catalog::Schema::parse("a^o(X) b^o(Y)").unwrap();
        let mut log = AccessLog::new();
        log.record(RelationId(0), Tuple::empty(), no_tuples());
        let text = log.stats().table(&schema);
        assert!(text.contains('a'));
        assert!(text.contains('-'));
    }
}
