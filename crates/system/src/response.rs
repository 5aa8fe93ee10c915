//! The unified response type of the prepare/execute lifecycle.
//!
//! Every execution — any statement kind, any [`ExecMode`] — returns one
//! [`Response`]: the answers plus an [`ExecutionProfile`] with access
//! statistics, cache attribution, the dispatcher's frontier/batch account
//! and per-phase wall-clock timings. The profile is the API's first timing
//! surface: `timings.parse`/`timings.plan` are `Some` exactly when this
//! call did that work, so a prepared statement's re-executions are
//! observably parse- and plan-free.

use std::time::Duration;

use toorjah_catalog::Tuple;
use toorjah_engine::{AccessStats, DispatchOptions, DispatchReport};
use toorjah_query::StatementKind;

use crate::MetricsReport;

/// How a prepared statement is executed.
///
/// Answers and access counts are invariant across modes (the paper's §IV
/// guarantee — the access *set* determines the answer); the modes differ
/// only in scheduling:
///
/// * [`ExecMode::Sequential`] — the paper's synchronous path, one access
///   per round trip on the calling thread;
/// * [`ExecMode::Parallel`] — the same evaluator with each round's access
///   frontier fanned out over worker threads / batched round trips;
/// * [`ExecMode::Streaming`] — the §V distillation schedule on the same
///   executor: every frontier leaves as one round trip and the fold stage
///   emits each answer as soon as it is derived
///   ([`Response::time_to_first_answer`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ExecMode {
    /// Synchronous one-access-per-round-trip execution (the default).
    #[default]
    Sequential,
    /// Frontier-parallel execution with the given dispatch settings.
    Parallel(DispatchOptions),
    /// Whole-frontier round trips with fold-stage answer emission (§V).
    Streaming,
}

impl ExecMode {
    /// Stable lowercase name (used by machine-readable reports).
    pub fn name(self) -> &'static str {
        match self {
            ExecMode::Sequential => "sequential",
            ExecMode::Parallel(_) => "parallel",
            ExecMode::Streaming => "streaming",
        }
    }
}

/// Wall-clock spent in each phase of the statement lifecycle.
///
/// `parse` and `plan` are `Some` only when the work happened *in this
/// call*: a one-shot [`crate::Toorjah::ask`] reports all three phases,
/// while [`crate::Prepared::execute`] reports `None` for both — the
/// prepared statement's whole point is that those phases already happened.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    /// Time spent parsing the statement text (`None`: no parse happened in
    /// this call).
    pub parse: Option<Duration>,
    /// Time spent planning (`None`: executed from an existing
    /// [`crate::Prepared`]).
    pub plan: Option<Duration>,
    /// Time spent executing against the sources.
    pub execute: Duration,
    /// Total lifecycle time of this call.
    pub total: Duration,
    /// Execute time summed over every successful execution of the
    /// [`crate::Prepared`] this response came from, **including this one**
    /// — so re-executions accumulate instead of silently resetting.
    /// Equals `execute` on the first execution (and on every one-shot
    /// call, which prepares privately).
    pub cumulative_execute: Duration,
}

/// How an execution went: access statistics, cache attribution, dispatch
/// accounting and phase timings.
#[derive(Clone, Debug)]
pub struct ExecutionProfile {
    /// The statement class that was executed.
    pub statement: StatementKind,
    /// The execution mode.
    pub mode: ExecMode,
    /// The configured [`toorjah_engine::PruningLevel`] the execution ran at.
    pub prune_level: toorjah_engine::PruningLevel,
    /// Access counters — the paper's cost metric (accesses actually
    /// performed against the sources, per relation).
    pub stats: AccessStats,
    /// Requested accesses served by a cache at zero cost: the per-query
    /// meta-cache discipline (an access repeated within the statement) plus
    /// warm session-cache entries.
    pub accesses_served_by_cache: u64,
    /// Distinct accesses this execution performed against the sources
    /// (equals `stats.total_accesses`). Every
    /// requested access is performed, cache-served, or dropped by the
    /// kernel's runtime relevance pruner, in every mode:
    /// `accesses_performed + accesses_served_by_cache +
    /// dispatch.accesses_pruned == dispatch.total_requested()` (pinned by
    /// `tests/prepared.rs` and `tests/relevance.rs`).
    pub accesses_performed: u64,
    /// Frontier/batch accounting of the dispatcher, in every mode.
    pub dispatch: DispatchReport,
    /// Per-phase wall-clock timings.
    pub timings: PhaseTimings,
    /// 1-based execution sequence number of the [`crate::Prepared`] this
    /// response came from (one-shot calls prepare privately, so theirs is
    /// always 1). Together with `timings`, this makes plan reuse
    /// observable.
    pub execution: u64,
}

/// The unified outcome of executing any [`toorjah_query::Statement`].
///
/// ```
/// use toorjah_catalog::{tuple, Instance, Schema};
/// use toorjah_engine::InstanceSource;
/// use toorjah_system::Toorjah;
///
/// let schema = Schema::parse("r1^io(A, B) r2^io(B, C)").unwrap();
/// let db = Instance::with_data(&schema, [
///     ("r1", vec![tuple!["a", "b1"]]),
///     ("r2", vec![tuple!["b1", "c1"]]),
/// ]).unwrap();
/// let system = Toorjah::new(InstanceSource::new(schema, db));
///
/// let response = system.ask("q(C) <- r1('a', B), r2(B, C)").unwrap();
/// assert_eq!(response.answers, vec![tuple!["c1"]]);
/// assert_eq!(response.profile.accesses_performed, 2);
/// // One-shot calls parse and plan, and the profile shows it:
/// assert!(response.profile.timings.parse.is_some());
/// assert!(response.profile.timings.plan.is_some());
/// ```
#[derive(Clone, Debug)]
pub struct Response {
    /// The distinct answers, in production order.
    pub answers: Vec<Tuple>,
    /// Candidates the negation checks rejected (0 for non-negated
    /// statements).
    pub rejected: usize,
    /// Indexes of union disjuncts skipped as not answerable (empty for
    /// non-union statements).
    pub skipped_disjuncts: Vec<usize>,
    /// Time until the first answer surfaced — populated by
    /// [`ExecMode::Streaming`], `None` otherwise (and when the answer set
    /// is empty).
    pub time_to_first_answer: Option<Duration>,
    /// How the execution went.
    pub profile: ExecutionProfile,
    /// Point-in-time metrics captured when the execution finished, against
    /// the cache it actually used. `Some` exactly when the instance's
    /// observability handle is enabled (the builder's default); `None`
    /// under a disabled handle, whose probes cost nothing.
    pub metrics: Option<MetricsReport>,
}

impl Response {
    /// Number of distinct answers.
    pub fn answer_count(&self) -> usize {
        self.answers.len()
    }

    /// Shorthand for the profile's access counters.
    pub fn stats(&self) -> &AccessStats {
        &self.profile.stats
    }
}
