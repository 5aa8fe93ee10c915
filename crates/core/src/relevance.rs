//! Runtime access-relevance metadata (§III relevance, carried to runtime).
//!
//! The optimized d-graph decides relevance per *relation* statically; which
//! individual *accesses* matter can in general only be decided during
//! execution ("Determining Relevance of Accesses at Runtime",
//! Benedikt–Gottlob–Senellart, arXiv:1104.0553) — and even relation-level
//! relevance is undecidable in full generality (Martinenghi,
//! arXiv:1401.0069). This module therefore computes a *conservative*
//! per-plan reachability summary the engine's evaluation kernel uses to
//! drop accesses whose outputs provably cannot reach the query head:
//!
//! * a cache is **terminal** when no column of it provides values to any
//!   domain predicate (its own or another cache's) — its tuples are
//!   consumed by the answer rule alone, never by the plan's
//!   dependency-graph arcs;
//! * each input position of a terminal query-atom cache carries its
//!   **semi-join partners**: the answer-rule caches at strictly earlier
//!   ordering positions whose literals share the variable at that
//!   position. By the time the cache is populated those partners are fully
//!   populated and final, so a binding value absent from every matching
//!   partner column can never participate in a satisfying assignment of
//!   the answer rule — and, the cache being terminal, the extraction feeds
//!   nothing else. Dropping the access is answer-preserving.
//!
//! The metadata depends only on the plan (program, caches, ordering
//! positions, domain providers), never on data, and is computed once at
//! plan-build time ([`crate::QueryPlan::relevance`]).

use std::collections::HashSet;

use toorjah_datalog::{DTerm, Literal, PredId, Program, Rule};

use crate::CacheInfo;

/// One semi-join partner of an input position: an answer-rule cache at a
/// strictly earlier ordering position sharing the variable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SemijoinPartner {
    /// Index into [`crate::QueryPlan::caches`].
    pub cache: usize,
    /// The partner's cache predicate (its extension holds the tuples the
    /// runtime membership test probes).
    pub pred: PredId,
    /// The partner column carrying the shared variable.
    pub column: usize,
}

/// Runtime-relevance metadata for one cache of a plan.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CacheRelevance {
    /// `true` when no domain predicate consumes any column of this cache —
    /// its extraction results reach the query head only through the answer
    /// rule.
    pub terminal: bool,
    /// Per input position (aligned with [`CacheInfo::input_domains`]): the
    /// semi-join partners of the variable at that position.
    pub semijoins: Vec<Vec<SemijoinPartner>>,
    /// `true` when the kernel's relevance pruner can drop accesses to this
    /// cache: terminal, a query-atom (answer-rule) cache, not a constant
    /// source, and at least one input position has a partner.
    pub prunable: bool,
}

/// Per-plan runtime-relevance metadata, one entry per cache.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PlanRelevance {
    caches: Vec<CacheRelevance>,
}

impl PlanRelevance {
    /// Analyzes a plan's caches: inverts the domain-provider arcs to find
    /// terminal caches, then collects semi-join partners from the answer
    /// rule and the ordering positions.
    pub fn analyze(program: &Program, answer_pred: PredId, caches: &[CacheInfo]) -> PlanRelevance {
        let answer_rule = program.rules_for(answer_pred).next();

        // Columns consumed by any domain predicate, as (cache index, column).
        let consumed: HashSet<(usize, usize)> = caches
            .iter()
            .flat_map(|c| &c.input_domains)
            .flat_map(|dp| &dp.providers)
            .map(|p| (p.cache, p.column))
            .collect();

        // The answer-rule literal of each query-atom cache (cache predicates
        // are distinct per occurrence, so the first match is the match).
        let literal_of: Vec<Option<&Literal>> = caches
            .iter()
            .map(|c| {
                answer_rule
                    .and_then(|rule: &Rule| rule.body.iter().find(|lit| lit.pred == c.cache_pred))
            })
            .collect();

        let entries = caches
            .iter()
            .enumerate()
            .map(|(idx, cache)| {
                let terminal = !consumed.iter().any(|&(c, _)| c == idx);
                // Partners of `term` (when it is a variable): answer-rule
                // caches at strictly earlier ordering positions whose
                // literal shares the variable.
                let partners_of = |term: &DTerm| {
                    let DTerm::Var(var) = *term else {
                        return Vec::new();
                    };
                    let mut partners = Vec::new();
                    for (other_idx, other) in caches.iter().enumerate() {
                        if other.position >= cache.position {
                            continue;
                        }
                        let Some(other_lit) = literal_of[other_idx] else {
                            continue;
                        };
                        for (column, term) in other_lit.terms.iter().enumerate() {
                            if *term == DTerm::Var(var) {
                                partners.push(SemijoinPartner {
                                    cache: other_idx,
                                    pred: other.cache_pred,
                                    column,
                                });
                            }
                        }
                    }
                    partners
                };
                let semijoins: Vec<Vec<SemijoinPartner>> = cache
                    .input_domains
                    .iter()
                    .map(|dp| match literal_of[idx] {
                        Some(lit) => partners_of(&lit.terms[dp.input_position]),
                        None => Vec::new(),
                    })
                    .collect();
                let prunable = terminal
                    && !cache.is_constant_source
                    && literal_of[idx].is_some()
                    && semijoins.iter().any(|p| !p.is_empty());
                CacheRelevance {
                    terminal,
                    semijoins,
                    prunable,
                }
            })
            .collect();
        PlanRelevance { caches: entries }
    }

    /// The metadata of one cache (by index into the plan's caches).
    pub fn cache(&self, idx: usize) -> &CacheRelevance {
        &self.caches[idx]
    }

    /// Whether the pruner can act on any cache of the plan at all.
    pub fn any_prunable(&self) -> bool {
        self.caches.iter().any(|c| c.prunable)
    }

    /// Indexes of the prunable caches.
    pub fn prunable_caches(&self) -> Vec<usize> {
        (0..self.caches.len())
            .filter(|&i| self.caches[i].prunable)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan_query;
    use toorjah_catalog::Schema;
    use toorjah_query::parse_query;

    fn analyze(schema_text: &str, query_text: &str) -> (crate::QueryPlan, PlanRelevance) {
        let schema = Schema::parse(schema_text).unwrap();
        let q = parse_query(query_text, &schema).unwrap();
        let planned = plan_query(&q, &schema).unwrap();
        let plan = planned.plan;
        let rel = PlanRelevance::analyze(&plan.program, plan.answer_pred, &plan.caches);
        (plan, rel)
    }

    #[test]
    fn chain_last_cache_is_terminal_but_dominated() {
        // Example 5's plan: r2 is terminal; its only partner for B is r1,
        // which also feeds its domain pool — prunable in principle, and the
        // runtime test simply never fires (every pool value is in r1).
        let (plan, rel) = analyze(
            "r1^io(A, B) r2^io(B, C) r3^io(C, A)",
            "q(C) <- r1('a', B), r2(B, C)",
        );
        let r2 = plan.caches.iter().position(|c| c.label == "r2(1)").unwrap();
        assert!(rel.cache(r2).terminal);
        assert!(rel.cache(r2).prunable);
        // r1 feeds r2's pool: not terminal, not prunable.
        let r1 = plan.caches.iter().position(|c| c.label == "r1(1)").unwrap();
        assert!(!rel.cache(r1).terminal);
        assert!(!rel.cache(r1).prunable);
    }

    #[test]
    fn star_join_partners_cross_atoms() {
        // q(V, W) ← gen(K), probe(K, V), audit(K, W): probe and audit are
        // both terminal; the later of the two gets the other as a partner
        // for K in addition to gen.
        let (plan, rel) = analyze(
            "gen^o(K) probe^io(K, V) audit^io(K, W)",
            "q(V, W) <- gen(K), probe(K, V), audit(K, W)",
        );
        let by_label = |l: &str| plan.caches.iter().position(|c| c.label == l).unwrap();
        let probe = by_label("probe(1)");
        let audit = by_label("audit(1)");
        assert!(rel.cache(probe).terminal && rel.cache(audit).terminal);
        let (early, late) = if plan.caches[probe].position < plan.caches[audit].position {
            (probe, audit)
        } else {
            (audit, probe)
        };
        // The later cache sees both gen and the earlier sibling as
        // partners; the earlier one sees only gen.
        assert!(rel.cache(late).prunable);
        assert_eq!(rel.cache(late).semijoins.len(), 1);
        assert!(rel.cache(late).semijoins[0]
            .iter()
            .any(|p| p.cache == early));
        assert_eq!(rel.cache(early).semijoins[0].len(), 1);
        assert_eq!(rel.prunable_caches().len(), 2);
        assert!(rel.any_prunable());
    }

    #[test]
    fn demand_partners_cover_output_columns() {
        // A free relation's K *column* shares a variable with the earlier
        // gen cache, but partners are computed per input position only:
        // a free relation has none, so its accesses have nothing to
        // filter and it is terminal yet not prunable.
        let (plan, rel) = analyze("gen^o(K) out^oo(K, V)", "q(V) <- gen(K), out(K, V)");
        let out = plan
            .caches
            .iter()
            .position(|c| c.label == "out(1)")
            .unwrap();
        let entry = rel.cache(out);
        assert!(entry.terminal);
        assert!(entry.semijoins.is_empty(), "no input positions");
        assert!(!entry.prunable, "no input positions to filter");
        assert!(!rel.any_prunable());
    }

    #[test]
    fn constant_sources_and_free_relations_are_not_prunable() {
        let (plan, rel) = analyze("r^io(A, B)", "q(B) <- r('a', B)");
        for (idx, cache) in plan.caches.iter().enumerate() {
            if cache.is_constant_source {
                assert!(!rel.cache(idx).prunable);
            }
        }
    }
}
