//! Incremental answers at the kernel's fold stage (§V).
//!
//! *"Toorjah presents the result tuples incrementally, as soon as they are
//! generated."* A streamed execution is the ordinary fast-failing executor
//! with an [`AnswerEmitter`] attached: after every kernel round that adds
//! tuples to a cache an answer-rule literal reads, the emitter evaluates
//! the answer rule with that literal pinned to the round's new tuples and
//! hands each answer it has not emitted before to its sink. Caches only
//! grow, so every emitted answer is final, and every answer of the
//! execution is emitted in the round that completes its first derivation.

use toorjah_catalog::{FastSet, Tuple};
use toorjah_datalog::{head_instances, FactStore, Goal, PredId, Rule};

/// The answer emitter of a streamed execution: the answers emitted so far
/// and the sink that receives each new one.
pub struct AnswerEmitter<'s> {
    seen: FastSet<Tuple>,
    limit: usize,
    sink: &'s mut dyn FnMut(&Tuple),
}

impl<'s> AnswerEmitter<'s> {
    /// An emitter handing every new answer to `sink`, in emission order.
    pub fn new(sink: &'s mut dyn FnMut(&Tuple)) -> Self {
        AnswerEmitter {
            seen: FastSet::default(),
            limit: usize::MAX,
            sink,
        }
    }

    /// Stops emitting after `limit` answers.
    pub fn with_limit(mut self, limit: usize) -> Self {
        self.limit = limit;
        self
    }

    /// Number of answers emitted so far.
    pub fn emitted(&self) -> usize {
        self.seen.len()
    }

    /// Emits the answers derivable through the tuples `pred` gained since
    /// it held `since` facts: one delta evaluation per answer-rule literal
    /// over `pred`, that literal ranging over the new tuples and every
    /// other literal over the whole store.
    pub(crate) fn fold(&mut self, rule: &Rule, facts: &FactStore, pred: PredId, since: usize) {
        for pinned in (0..rule.body.len()).filter(|&i| rule.body[i].pred == pred) {
            if self.seen.len() >= self.limit {
                return;
            }
            let goals: Vec<Goal<'_>> = rule
                .body
                .iter()
                .enumerate()
                .map(|(i, lit)| Goal {
                    terms: &lit.terms,
                    extent: if i == pinned {
                        facts.extent(pred).suffix(since)
                    } else {
                        facts.extent(lit.pred)
                    },
                })
                .collect();
            let order = delta_first_order(rule, pinned);
            for answer in head_instances(&rule.head.terms, &goals, &order, rule.var_names.len()) {
                if self.seen.len() >= self.limit {
                    return;
                }
                if self.seen.insert(answer.clone()) {
                    (self.sink)(&answer);
                }
            }
        }
    }
}

/// The pinned literal first, then repeatedly the first remaining literal
/// sharing a variable with those already placed (or the first remaining
/// one), so each later literal is reached through an index probe.
fn delta_first_order(rule: &Rule, pinned: usize) -> Vec<usize> {
    let mut order = vec![pinned];
    let mut bound: FastSet<u32> = rule.body[pinned]
        .terms
        .iter()
        .filter_map(|t| t.as_var())
        .collect();
    let mut rest: Vec<usize> = (0..rule.body.len()).filter(|&i| i != pinned).collect();
    while !rest.is_empty() {
        let at = rest
            .iter()
            .position(|&i| {
                rule.body[i]
                    .terms
                    .iter()
                    .any(|t| t.as_var().is_some_and(|v| bound.contains(&v)))
            })
            .unwrap_or(0);
        let next = rest.remove(at);
        bound.extend(rule.body[next].terms.iter().filter_map(|t| t.as_var()));
        order.push(next);
    }
    order
}
