//! The sparse star-join workload: a high-irrelevance access graph for the
//! engine's runtime relevance pruning.
//!
//! The schema is a star around a shared key domain:
//!
//! ```text
//! gen^o(K)          — free: enumerates every key
//! probe^io(K, V)    — sparse: only a small fraction of keys have tuples
//! audit^io(K, W)    — dense: every key has a tuple
//! ```
//!
//! and the query joins all three on `K`. The planner feeds both `probe`
//! and `audit` their `K` inputs from `gen` (strong arcs), so *statically*
//! every key must be tried against both relations — `2·keys + 1` accesses.
//! At runtime, however, whichever of the two is populated second can only
//! contribute to an answer for keys the *first* one matched: the kernel's
//! relevance pruner drops the rest before dispatch, cutting
//! `accesses_performed` by roughly the miss rate of the sparse relation
//! (≈ 45% at the defaults) with bit-identical answers. Which accesses
//! those are depends on the data — exactly the relevance that static
//! analysis cannot decide.
//!
//! Everything is deterministic given the seed, so `tests/relevance.rs`
//! and perfbench's `remote_sources` workload are reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use toorjah_catalog::{Instance, Schema, Tuple, Value};

/// The sparse star schema: a free key generator, a sparse branch and a
/// dense branch, all keyed by the shared domain `K`.
pub fn sparse_schema() -> Schema {
    Schema::parse("gen^o(K) probe^io(K, V) audit^io(K, W)")
        .expect("the sparse schema is well-formed")
}

/// The star query joining all three relations on the key.
pub fn sparse_query() -> &'static str {
    "q(V, W) <- gen(K), probe(K, V), audit(K, W)"
}

/// Knobs for the sparse instance.
#[derive(Clone, Copy, Debug)]
pub struct SparseConfig {
    /// Distinct keys `gen` enumerates (`k0`, `k1`, …).
    pub keys: usize,
    /// Keys with a `probe` tuple (the sparse branch). Key `k0` always
    /// matches, so the query has answers.
    pub probe_matches: usize,
    /// Keys with an `audit` tuple (the dense branch by default).
    pub audit_matches: usize,
    /// RNG seed (generation is fully deterministic).
    pub seed: u64,
}

impl Default for SparseConfig {
    fn default() -> Self {
        SparseConfig {
            keys: 400,
            probe_matches: 40,
            audit_matches: 400,
            seed: 0x5AB5_E001,
        }
    }
}

impl SparseConfig {
    /// A reduced configuration for fast tests.
    pub fn small() -> Self {
        SparseConfig {
            keys: 60,
            probe_matches: 6,
            audit_matches: 60,
            seed: 11,
        }
    }

    /// The access count of the unpruned run: one free access to `gen` plus
    /// one access per key to each of `probe` and `audit`.
    pub fn unpruned_accesses(&self) -> usize {
        1 + 2 * self.keys
    }
}

/// Generates a deterministic sparse instance: every key in `gen`, a random
/// `probe_matches`-sized key subset (always containing `k0`) in `probe`,
/// and likewise for `audit`.
pub fn sparse_instance(schema: &Schema, config: &SparseConfig) -> Instance {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let key = |i: usize| Value::str(format!("k{i}"));

    let pick = |rng: &mut StdRng, wanted: usize| -> Vec<usize> {
        let wanted = wanted.min(config.keys);
        let mut chosen = vec![false; config.keys];
        // Key 0 is always a match, so probe ∩ audit is non-empty and the
        // query has at least one answer.
        let mut picked = 0usize;
        if wanted > 0 {
            chosen[0] = true;
            picked = 1;
        }
        while picked < wanted {
            let i = rng.gen_range(0..config.keys);
            if !chosen[i] {
                chosen[i] = true;
                picked += 1;
            }
        }
        (0..config.keys).filter(|&i| chosen[i]).collect()
    };

    let mut db = Instance::new(schema);
    for i in 0..config.keys {
        db.insert("gen", Tuple::new(vec![key(i)]))
            .expect("gen tuple matches the schema");
    }
    for i in pick(&mut rng, config.probe_matches) {
        db.insert(
            "probe",
            Tuple::new(vec![key(i), Value::str(format!("v{i}"))]),
        )
        .expect("probe tuple matches the schema");
    }
    for i in pick(&mut rng, config.audit_matches) {
        db.insert(
            "audit",
            Tuple::new(vec![key(i), Value::str(format!("w{i}"))]),
        )
        .expect("audit tuple matches the schema");
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use toorjah_query::parse_query;

    #[test]
    fn instance_is_deterministic_and_sparse() {
        let schema = sparse_schema();
        let config = SparseConfig::small();
        let db = sparse_instance(&schema, &config);
        let again = sparse_instance(&schema, &config);
        for (id, _) in schema.iter() {
            assert_eq!(db.full_extension(id), again.full_extension(id));
        }
        let gen = schema.relation_id("gen").unwrap();
        let probe = schema.relation_id("probe").unwrap();
        let audit = schema.relation_id("audit").unwrap();
        assert_eq!(db.full_extension(gen).len(), config.keys);
        assert_eq!(db.full_extension(probe).len(), config.probe_matches);
        assert_eq!(db.full_extension(audit).len(), config.audit_matches);
        // The guaranteed overlap key.
        assert!(db
            .full_extension(probe)
            .iter()
            .any(|t| t[0] == Value::str("k0")));
    }

    #[test]
    fn query_parses_and_counts_add_up() {
        let schema = sparse_schema();
        parse_query(sparse_query(), &schema).unwrap();
        assert_eq!(SparseConfig::default().unpruned_accesses(), 801);
    }
}
