//! # toorjah-system
//!
//! The **Toorjah** system facade (§V of *"Querying Data under Access
//! Limitations"*, Calì & Martinenghi, ICDE 2008): a prototype that answers
//! conjunctive queries over sources with access limitations by means of
//! access-minimal query plans.
//!
//! The API is a **statement lifecycle** — parse → prepare → execute — with
//! one request type ([`Statement`]) and one response type ([`Response`]):
//!
//! ```
//! use toorjah_catalog::{Instance, Schema, tuple};
//! use toorjah_engine::InstanceSource;
//! use toorjah_system::{ExecMode, Statement, Toorjah};
//!
//! let schema = Schema::parse("r1^io(A, B) r2^io(B, C) r3^io(C, A)").unwrap();
//! let db = Instance::with_data(&schema, [
//!     ("r1", vec![tuple!["a", "b1"]]),
//!     ("r2", vec![tuple!["b1", "c1"]]),
//!     ("r3", vec![tuple!["c1", "a"]]),
//! ]).unwrap();
//! let system = Toorjah::new(InstanceSource::new(schema, db));
//!
//! // Parse once, plan once, execute as often as you like:
//! let statement = Statement::parse("q(C) <- r1('a', B), r2(B, C)", system.schema()).unwrap();
//! let prepared = system.prepare(&statement).unwrap();
//! let response = prepared.execute(ExecMode::Sequential).unwrap();
//! assert_eq!(response.answers, vec![tuple!["c1"]]);
//! // r3 is irrelevant: the optimized plan never touches it.
//! assert_eq!(response.profile.stats.total_accesses, 2);
//!
//! // Or one-shot, any statement kind (CQ, `;`-union, `!`-negation):
//! let response = system.ask("q(C) <- r1('a', B), r2(B, C)").unwrap();
//! assert_eq!(response.answers, vec![tuple!["c1"]]);
//! ```
//!
//! Execution modes ([`ExecMode`]) cover the paper's strategies without
//! separate entry points, all on the one kernel executor: `Sequential`
//! (the §IV fast-failing executor), `Parallel` (frontier-batched dispatch
//! over worker threads), and `Streaming` (§V: every frontier leaves as one
//! round trip and the fold stage emits each answer as soon as it is
//! derived; use [`Prepared::stream`] for the incremental answers). Answers
//! and access counts are mode-invariant.
//!
//! For serving workloads, [`Toorjah::builder`] installs a session-level
//! [`toorjah_cache::SharedAccessCache`]: consecutive (and concurrent)
//! statements over the same provider skip accesses that are already
//! retained, with per-execution effectiveness surfaced through the
//! [`ExecutionProfile`]'s `accesses_served_by_cache` /
//! `accesses_performed` counters.

#![warn(missing_docs)]

mod answers;
mod facade;
mod json;
mod metrics;
mod prepared;
mod response;

pub use answers::{AnswerStream, StreamEvent, StreamReport};
pub use facade::{Toorjah, ToorjahBuilder, ToorjahConfig, ToorjahError};
pub use metrics::MetricsReport;
pub use prepared::Prepared;
pub use response::{ExecMode, ExecutionProfile, PhaseTimings, Response};
// The statement types, re-exported so facade users need no direct
// `toorjah-query` dependency.
pub use toorjah_query::{Statement, StatementKind};

#[cfg(test)]
mod facade_tests;
