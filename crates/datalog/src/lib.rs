//! # toorjah-datalog
//!
//! A small Datalog substrate for the Toorjah reproduction of *"Querying Data
//! under Access Limitations"* (Calì & Martinenghi, ICDE 2008).
//!
//! §IV of the paper expresses ⊂-minimal query plans as Datalog programs with
//! *cache* predicates `r̂⁽ᵏ⁾` and *domain* predicates `s` (Example 7), to be
//! evaluated under the usual least-fixpoint semantics "with a few extra
//! expedients" (the fast-failing strategy, implemented in `toorjah-engine`).
//! This crate provides:
//!
//! * [`Program`], [`Rule`], [`Literal`], [`DTerm`]: positive Datalog ASTs
//!   with interned predicates ([`PredId`]) and per-rule variable names;
//! * [`FactStore`]: indexed fact storage;
//! * [`Search`], [`head_instances`], [`satisfiable`]: the one backtracking
//!   join kernel every local evaluation runs on — the evaluators below, the
//!   engine's fast-failing executor and its conjunctive-query evaluator;
//! * [`evaluate`]: bottom-up **semi-naive** least-fixpoint evaluation, used
//!   as the reference semantics the fast-failing executor is tested against
//!   (the paper guarantees both compute the same answer);
//! * a pretty-printer matching the paper's rule notation.

#![warn(missing_docs)]

mod ast;
mod error;
mod eval;
mod search;
mod store;

pub use ast::{adornment_string, DTerm, Literal, PredId, Predicate, Program, Rule};
pub use error::DatalogError;
pub use eval::{
    evaluate, evaluate_full_join, rule_body_satisfiable, rule_head_instances, EvalStats,
};
pub use search::{head_instances, satisfiable, Goal, Search};
pub use store::{Candidates, Extent, FactStore};
