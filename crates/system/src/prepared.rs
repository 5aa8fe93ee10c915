//! Prepared statements: plan once, execute many times.
//!
//! The paper's plans depend only on the query and the schema — nothing
//! about an execution changes them. [`crate::Toorjah::prepare`] therefore
//! splits the lifecycle: it parses nothing (it takes a
//! [`Statement`]) and plans exactly once; the returned [`Prepared`] is
//! `Send + Sync` and re-executable from any number of threads, each call
//! paying only the execution phase. Combined with a session cache, a
//! serving deployment prepares its query set once and answers repeated
//! traffic at cache speed.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use toorjah_cache::{CacheStats, ShardCounters, SharedAccessCache};
use toorjah_core::Planned;
use toorjah_engine::{
    execute_plan_cached, execute_union_cached, negation_checks, AccessLog, DispatchOptions,
    DispatchReport, NegatedPlan, PruningLevel, SourceProvider,
};
use toorjah_obs::EventKind;
use toorjah_query::Statement;

use crate::facade::{Toorjah, ToorjahConfig, ToorjahError};
use crate::response::{ExecMode, ExecutionProfile, PhaseTimings, Response};
use crate::{run_distillation_cached, AnswerStream, MetricsReport};

/// The cache counters of an execution without a cache, read off its log,
/// the meta-cache, as one shard: every performed access was a miss and
/// every served repeat a hit. The log keeps no byte account.
fn log_cache_counters(log: &AccessLog) -> (CacheStats, Vec<ShardCounters>) {
    let shard = ShardCounters {
        hits: log.cache_served() as u64,
        misses: log.total() as u64,
        ..ShardCounters::default()
    };
    let totals = CacheStats {
        hits: shard.hits,
        misses: shard.misses,
        entries: log.total(),
        ..CacheStats::default()
    };
    (totals, vec![shard])
}

/// The planned form of one statement kind (large payloads boxed: a
/// `Prepared` is built once and moved around rarely).
#[derive(Clone, Debug)]
pub(crate) enum PreparedKind {
    Cq(Box<Planned>),
    Union {
        planned: Vec<Planned>,
        /// Disjunct indexes skipped as not answerable.
        skipped: Vec<usize>,
    },
    Negated(Box<NegatedPlan>),
}

/// A statement planned against a [`Toorjah`] instance, cheaply
/// re-executable — and shareable across threads (`Prepared: Send + Sync`)
/// — any number of times.
///
/// Re-executions skip the parse and plan phases entirely; the
/// [`ExecutionProfile`] of every [`Prepared::execute`] response shows
/// `timings.parse == None`, `timings.plan == None` and the 1-based
/// execution sequence number.
///
/// ```
/// use toorjah_catalog::{tuple, Instance, Schema};
/// use toorjah_engine::InstanceSource;
/// use toorjah_system::{ExecMode, Statement, Toorjah};
///
/// let schema = Schema::parse("r1^io(A, B) r2^io(B, C)").unwrap();
/// let db = Instance::with_data(&schema, [
///     ("r1", vec![tuple!["a", "b1"]]),
///     ("r2", vec![tuple!["b1", "c1"]]),
/// ]).unwrap();
/// let system = Toorjah::new(InstanceSource::new(schema, db));
///
/// let statement = Statement::parse("q(C) <- r1('a', B), r2(B, C)", system.schema()).unwrap();
/// let prepared = system.prepare(&statement).unwrap();
/// for i in 1..=3 {
///     let response = prepared.execute(ExecMode::Sequential).unwrap();
///     assert_eq!(response.answers, vec![tuple!["c1"]]);
///     // No parse, no plan — only execution:
///     assert!(response.profile.timings.parse.is_none());
///     assert!(response.profile.timings.plan.is_none());
///     assert_eq!(response.profile.execution, i);
/// }
/// ```
pub struct Prepared {
    pub(crate) provider: Arc<dyn SourceProvider>,
    pub(crate) config: ToorjahConfig,
    pub(crate) session_cache: Option<SharedAccessCache>,
    pub(crate) statement: Statement,
    pub(crate) kind: PreparedKind,
    pub(crate) executions: AtomicU64,
    /// Execute-phase nanoseconds accumulated across successful executions,
    /// surfaced as `PhaseTimings::cumulative_execute`.
    pub(crate) cumulative_execute_ns: AtomicU64,
}

impl Prepared {
    /// The statement this plan was prepared from.
    pub fn statement(&self) -> &Statement {
        &self.statement
    }

    /// Everything the planner produced: the plan of a CQ statement, or the
    /// extended positive part of a negated statement. `None` for unions —
    /// see [`Prepared::disjunct_plans`].
    pub fn planned(&self) -> Option<&Planned> {
        match &self.kind {
            PreparedKind::Cq(p) => Some(p),
            PreparedKind::Union { .. } => None,
            PreparedKind::Negated(n) => Some(n.planned()),
        }
    }

    /// The per-disjunct plans of a union statement (empty otherwise).
    pub fn disjunct_plans(&self) -> &[Planned] {
        match &self.kind {
            PreparedKind::Union { planned, .. } => planned,
            _ => &[],
        }
    }

    /// Union disjuncts skipped at prepare time as not answerable (empty
    /// for other statement kinds).
    pub fn skipped_disjuncts(&self) -> &[usize] {
        match &self.kind {
            PreparedKind::Union { skipped, .. } => skipped,
            _ => &[],
        }
    }

    /// How many times this plan has been executed to completion so far
    /// (failed executions are not counted).
    pub fn executions(&self) -> u64 {
        self.executions.load(Ordering::Relaxed)
    }

    /// Executes the plan with the instance's configured dispatch settings
    /// (`execute(mode)` with the mode [`Toorjah::default_mode`] reports).
    pub fn run(&self) -> Result<Response, ToorjahError> {
        self.execute(Toorjah::mode_for(&self.config))
    }

    /// Executes the plan under `mode`, returning the unified [`Response`].
    /// Answers and access counts are mode-invariant; only scheduling (and
    /// therefore wall-clock) differs. Takes `&self`: any number of threads
    /// may execute one `Prepared` concurrently, sharing the session cache
    /// it was prepared with.
    pub fn execute(&self, mode: ExecMode) -> Result<Response, ToorjahError> {
        self.execute_capped(mode, None)
    }

    /// [`Prepared::execute`] under a per-execution access cap: at most
    /// `max_accesses` of `Some(n)` distinct source accesses may be
    /// performed (cache-served lookups stay free). When the cap binds, the
    /// whole execution fails with
    /// [`toorjah_engine::EngineError::AccessBudgetExceeded`] — no partial
    /// answer is ever returned. This is the enforcement point for the query
    /// service's per-tenant access budgets: the remaining budget rides in
    /// as the cap, so a session can never overdraw mid-execution. `None`
    /// keeps the instance's configured limit. The cap governs the kernel
    /// executors (`Sequential`/`Parallel`, plus a negated statement's
    /// checks under `Streaming`); the distillation phase itself keeps its
    /// own [`crate::DistillationOptions`] budget.
    pub fn execute_capped(
        &self,
        mode: ExecMode,
        max_accesses: Option<usize>,
    ) -> Result<Response, ToorjahError> {
        let started = Instant::now();
        // The log is the execution's meta-cache; the session cache, when
        // installed, shares accesses across executions. Only the
        // distillation coordinator behind `Streaming` shares extractions
        // through a cache of its own.
        let cache = match mode {
            ExecMode::Streaming => Some(self.execution_cache()),
            _ => self.session_cache.clone(),
        };
        let distillation_cache = || cache.clone().expect("a streaming execution has a cache");
        let mut exec = self.exec_options(mode);
        if let Some(cap) = max_accesses {
            exec.max_accesses = cap.min(exec.max_accesses);
        }

        let mut log = AccessLog::new();
        let mut dispatch = DispatchReport::default();
        let mut rejected = 0usize;
        let mut skipped_disjuncts = Vec::new();
        let mut time_to_first_answer = None;

        let answers = match (&self.kind, mode) {
            (PreparedKind::Cq(planned), ExecMode::Sequential | ExecMode::Parallel(_)) => {
                let report = execute_plan_cached(
                    &planned.plan,
                    self.provider.as_ref(),
                    exec,
                    cache.as_ref(),
                    &mut log,
                )?;
                dispatch = report.dispatch;
                report.answers
            }
            (PreparedKind::Cq(planned), ExecMode::Streaming) => {
                let report = run_distillation_cached(
                    planned.plan.clone(),
                    Arc::clone(&self.provider),
                    self.config.distillation,
                    distillation_cache(),
                )
                .wait()
                .map_err(ToorjahError::Execution)?;
                log = report.log;
                time_to_first_answer = report.time_to_first_answer;
                report.answers
            }
            (
                PreparedKind::Union { planned, skipped },
                ExecMode::Sequential | ExecMode::Parallel(_),
            ) => {
                skipped_disjuncts = skipped.clone();
                let plans: Vec<&toorjah_core::QueryPlan> =
                    planned.iter().map(|p| &p.plan).collect();
                let report = execute_union_cached(
                    &plans,
                    self.provider.as_ref(),
                    exec,
                    cache.as_ref(),
                    &mut log,
                )?;
                dispatch = report.dispatch;
                report.answers
            }
            (PreparedKind::Union { planned, skipped }, ExecMode::Streaming) => {
                // One distillation run per disjunct over the shared cache:
                // a later disjunct never repeats an earlier one's accesses,
                // exactly like the sequential union.
                skipped_disjuncts = skipped.clone();
                let mut answers = Vec::new();
                let mut seen: HashSet<toorjah_catalog::Tuple> = HashSet::new();
                for p in planned {
                    // Rebase the disjunct-relative first-answer stamp onto
                    // this execution's clock before comparing/recording.
                    let disjunct_started = started.elapsed();
                    let report = run_distillation_cached(
                        p.plan.clone(),
                        Arc::clone(&self.provider),
                        self.config.distillation,
                        distillation_cache(),
                    )
                    .wait()
                    .map_err(ToorjahError::Execution)?;
                    if time_to_first_answer.is_none() {
                        time_to_first_answer =
                            report.time_to_first_answer.map(|t| disjunct_started + t);
                    }
                    for t in report.answers {
                        if seen.insert(t.clone()) {
                            answers.push(t);
                        }
                    }
                    log.merge(&report.log);
                }
                answers
            }
            (PreparedKind::Negated(plan), ExecMode::Sequential | ExecMode::Parallel(_)) => {
                let report = toorjah_engine::execute_negated_plan(
                    plan,
                    self.provider.as_ref(),
                    exec,
                    cache.as_ref(),
                    &mut log,
                )?;
                dispatch = report.dispatch;
                rejected = report.rejected;
                report.answers
            }
            (PreparedKind::Negated(plan), ExecMode::Streaming) => {
                // Stream the positive part, then decide the negated atoms
                // exactly. Candidates are only *certain* answers after the
                // checks, so no time-to-first-answer is reported.
                let report = run_distillation_cached(
                    plan.planned().plan.clone(),
                    Arc::clone(&self.provider),
                    self.config.distillation,
                    distillation_cache(),
                )
                .wait()
                .map_err(ToorjahError::Execution)?;
                log = report.log;
                let checks = negation_checks(
                    plan,
                    &report.answers,
                    self.provider.as_ref(),
                    exec,
                    cache.as_ref(),
                    &mut log,
                    &mut dispatch,
                )?;
                rejected = checks.rejected;
                checks.answers
            }
        };

        // Counted on completion only: a failed execution does not consume a
        // sequence number, so `profile.execution` tracks successful runs.
        let execution = self.executions.fetch_add(1, Ordering::Relaxed) + 1;
        let elapsed = started.elapsed();
        let elapsed_ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        let cumulative_ns = self
            .cumulative_execute_ns
            .fetch_add(elapsed_ns, Ordering::Relaxed)
            .saturating_add(elapsed_ns);
        // Metrics are captured against the cache this execution actually
        // used — the session cache, the private one of a distillation, or
        // else the log.
        let metrics = self.config.exec.obs.snapshot().map(|snapshot| {
            let (cache, shards) = match &cache {
                Some(cache) => (cache.stats(), cache.shard_counters()),
                None => log_cache_counters(&log),
            };
            MetricsReport {
                snapshot,
                interner: toorjah_catalog::Interner::global().stats(),
                cache,
                shards,
            }
        });
        Ok(Response {
            answers,
            rejected,
            skipped_disjuncts,
            time_to_first_answer,
            profile: ExecutionProfile {
                statement: self.statement.kind(),
                mode,
                prune_level: exec.prune_level,
                stats: log.stats(),
                accesses_served_by_cache: log.cache_served() as u64,
                accesses_performed: log.total() as u64,
                dispatch,
                timings: PhaseTimings {
                    parse: None,
                    plan: None,
                    execute: elapsed,
                    total: elapsed,
                    cumulative_execute: Duration::from_nanos(cumulative_ns),
                },
                execution,
            },
            metrics,
        })
    }

    /// Starts a streaming execution and hands back the live
    /// [`AnswerStream`] for incremental consumption (`execute(Streaming)`
    /// collects the same stream into a [`Response`] instead). Only CQ
    /// statements stream incrementally; unions and negated statements
    /// return [`ToorjahError::Unsupported`].
    pub fn stream(&self) -> Result<AnswerStream, ToorjahError> {
        match &self.kind {
            PreparedKind::Cq(planned) => Ok(run_distillation_cached(
                planned.plan.clone(),
                Arc::clone(&self.provider),
                self.config.distillation,
                self.execution_cache(),
            )),
            PreparedKind::Union { .. } => Err(ToorjahError::Unsupported(
                "incremental streaming of a union statement (use execute(ExecMode::Streaming))"
                    .to_string(),
            )),
            PreparedKind::Negated(_) => Err(ToorjahError::Unsupported(
                "incremental streaming of a negated statement (answers are certain only after \
                 the negation checks; use execute(ExecMode::Streaming))"
                    .to_string(),
            )),
        }
    }

    /// The cache a distillation run shares extractions through: the
    /// session cache the plan was prepared with, or a fresh private one.
    fn execution_cache(&self) -> SharedAccessCache {
        self.session_cache.clone().unwrap_or_else(|| {
            SharedAccessCache::with_obs(
                toorjah_cache::CacheConfig::unbounded(),
                self.config.exec.obs,
            )
        })
    }

    /// The executor options for one mode: `Sequential` forces the
    /// one-access-per-round-trip dispatch, `Parallel` substitutes its own,
    /// `Streaming` leaves the configured dispatch for any frontier work
    /// outside the distillation executor (negation checks).
    ///
    /// Negated statements refuse [`PruningLevel::Magic`]: the demand
    /// filter reasons over a *positive* answer rule, and recursion through
    /// negation is exactly the case magic-sets rewriting is unsound for —
    /// so the execution falls back to [`PruningLevel::Runtime`] and says
    /// so with a `rewrite_fallback` trace event rather than silently
    /// mis-evaluating. The response profile reports the effective level.
    fn exec_options(&self, mode: ExecMode) -> toorjah_engine::ExecOptions {
        let mut exec = self.config.exec;
        if exec.prune_level == PruningLevel::Magic && matches!(self.kind, PreparedKind::Negated(_))
        {
            exec.prune_level = PruningLevel::Runtime;
            exec.obs.trace(0, || EventKind::RewriteFallback {
                level: toorjah_catalog::Symbol::intern(PruningLevel::Runtime.name()),
            });
        }
        exec.dispatch = match mode {
            ExecMode::Sequential => DispatchOptions::sequential(),
            ExecMode::Parallel(d) => d,
            ExecMode::Streaming => self.config.exec.dispatch,
        };
        exec
    }
}
