//! # toorjah-engine
//!
//! Execution engine for the Toorjah reproduction of *"Querying Data under
//! Access Limitations"* (Calì & Martinenghi, ICDE 2008).
//!
//! The engine executes queries against *sources with access limitations*,
//! counting **accesses** — the paper's cost metric (`Acc(D, Π)` is a set of
//! accesses, so repeating an access is free only if it is never issued, which
//! the meta-cache guarantees). It provides:
//!
//! * [`SourceProvider`]: the remote-source abstraction, with an in-memory
//!   implementation ([`InstanceSource`]), a latency-accounting wrapper
//!   ([`LatencySource`]) simulating slow web/legacy sources, and a
//!   failure-injecting wrapper ([`FlakySource`]) for tests;
//! * [`AccessLog`] / [`AccessStats`]: per-relation access and extraction
//!   accounting — and the paper's meta-cache ("we keep track of all access
//!   tuples used to access relations"): the log keeps each performed
//!   access's extraction, so within one execution no access is ever made
//!   twice. Sharing across executions and sessions is the second tier,
//!   [`SharedAccessCache`] (re-exported from [`toorjah_cache`]), which
//!   [`execute_plan_cached`], [`execute_union_cached`] and
//!   [`execute_negated_cached`] take;
//! * the **evaluation kernel** (`kernel`, internal): the single
//!   round-based loop — collect frontier → runtime relevance filter →
//!   dispatch → fold, iterated to a fixpoint — that every evaluator is a
//!   thin strategy configuration over, including the
//!   [`PruningLevel`]-gated runtime access pruning (`Runtime`) dropping
//!   accesses whose outputs provably cannot reach the query head — plus the
//!   opt-in [`first-k`](crate::ExecOptions::first_k) early termination;
//! * [`naive_evaluate`]: the Fig. 1 algorithm (after [Li & Chang 2000]) that
//!   accesses *every* relation of the schema with *every* domain-compatible
//!   binding until fixpoint — the unoptimized baseline of the evaluation;
//! * [`execute_plan`]: the §IV **fast-failing strategy** interpreting a
//!   [`toorjah_core::QueryPlan`]: caches are populated by increasing
//!   ordering position, an early non-emptiness check precedes each position,
//!   no access is ever repeated, and relations are accessed only after all
//!   other rule conditions succeed;
//! * [`evaluate_cq`] / [`cq_satisfiable`]: conjunctive-query evaluation over
//!   extracted caches, on the same search kernel as the executor
//!   ([`toorjah_datalog::Search`]).

#![warn(missing_docs)]

mod access;
mod completeness;
mod containment_testing;
mod dispatch;
mod error;
mod executor;
mod join;
mod kernel;
mod naive;
mod negation;
mod source;
mod union;

pub use access::{AccessLog, AccessStats, DEFAULT_ACCESS_BUDGET};
pub use completeness::{
    check_completeness, complete_answer, CompletenessError, CompletenessReport,
};
pub use containment_testing::{
    refute_obtainable_containment, ContainmentCounterexample, RefutationOptions,
};
pub use dispatch::{DispatchOptions, DispatchReport};
pub use error::EngineError;
pub use executor::{
    execute_plan, execute_plan_cached, execute_plan_with, ExecOptions, ExecutionReport,
    PruningLevel,
};
pub use join::{cq_satisfiable, evaluate_cq, evaluate_cq_subset};
pub use naive::{naive_evaluate, NaiveOptions, NaiveResult};
pub use negation::{
    execute_negated, execute_negated_cached, execute_negated_plan, negation_checks, plan_negated,
    NegatedPlan, NegationChecks, NegationError, NegationReport,
};
pub use source::{AccessResult, FlakySource, InstanceSource, LatencySource, SourceProvider};
pub use union::{execute_union, execute_union_cached, UnionReport};

// The shared-cache subsystem, re-exported so engine users configure and
// share caches without a separate dependency.
pub use toorjah_cache::{
    BatchLookup, CacheConfig, CacheStats, EvictionPolicy, LoadResult, Lookup, LookupOutcome,
    ShardCounters, SharedAccessCache, SnapshotError, SnapshotReport,
};

// The observability handle threaded through `ExecOptions` / `NaiveOptions`,
// re-exported with its sink types so engine users can enable tracing
// without a separate dependency.
pub use toorjah_obs::{EventKind, Obs, RingBufferSink, TraceEvent, TraceSink, WriterSink};
