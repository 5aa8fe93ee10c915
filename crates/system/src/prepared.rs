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

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::unbounded;
use toorjah_cache::{CacheStats, ShardCounters, SharedAccessCache};
use toorjah_catalog::Tuple;
use toorjah_core::{Planned, QueryPlan};
use toorjah_engine::{
    execute_negated_plan, execute_plan_cached, execute_plan_streamed, execute_union_cached,
    execute_union_streamed, AccessLog, AnswerEmitter, DispatchOptions, DispatchReport, EngineError,
    ExecOptions, NegatedPlan, SourceProvider,
};
use toorjah_query::Statement;

use crate::facade::{Toorjah, ToorjahConfig, ToorjahError};
use crate::response::{ExecMode, ExecutionProfile, PhaseTimings, Response};
use crate::{AnswerStream, MetricsReport, StreamEvent, StreamReport};

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
    /// keeps the instance's configured limit. The cap, the pruning level
    /// and first-k bind in every mode, `Streaming` included.
    pub fn execute_capped(
        &self,
        mode: ExecMode,
        max_accesses: Option<usize>,
    ) -> Result<Response, ToorjahError> {
        let started = Instant::now();
        let mut exec = self.exec_options(mode);
        if let Some(cap) = max_accesses {
            exec.max_accesses = cap.min(exec.max_accesses);
        }
        let mut log = AccessLog::new();
        let mut time_to_first_answer = None;
        let run = if mode == ExecMode::Streaming {
            // The response reports when the first answer surfaced, so the
            // emitter stops after one.
            let mut first_answer = |_: &Tuple| {
                time_to_first_answer.get_or_insert_with(|| started.elapsed());
            };
            let mut emitter = AnswerEmitter::new(&mut first_answer).with_limit(1);
            self.run_kernel(exec, &mut log, Some(&mut emitter))?
        } else {
            self.run_kernel(exec, &mut log, None)?
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
        // used — the session cache, or else the log.
        let metrics = self.config.exec.obs.snapshot().map(|snapshot| {
            let (cache, shards) = match &self.session_cache {
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
            answers: run.answers,
            rejected: run.rejected,
            skipped_disjuncts: self.skipped_disjuncts().to_vec(),
            time_to_first_answer,
            profile: ExecutionProfile {
                statement: self.statement.kind(),
                mode,
                prune_level: exec.prune_level,
                stats: log.stats(),
                accesses_served_by_cache: log.cache_served() as u64,
                accesses_performed: log.total() as u64,
                dispatch: run.dispatch,
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

    /// Runs the plan on the kernel executor of its statement kind, over the
    /// session cache and `log`. With an emitter, CQs and unions stream their
    /// answers into it; a negated statement's candidates are certain only
    /// after the negation checks, so it emits nothing.
    fn run_kernel(
        &self,
        exec: ExecOptions,
        log: &mut AccessLog,
        emitter: Option<&mut AnswerEmitter<'_>>,
    ) -> Result<Run, ToorjahError> {
        let provider = self.provider.as_ref();
        let cache = self.session_cache.as_ref();
        let run = match &self.kind {
            PreparedKind::Cq(planned) => {
                let report = match emitter {
                    Some(e) => execute_plan_streamed(&planned.plan, provider, exec, cache, log, e),
                    None => execute_plan_cached(&planned.plan, provider, exec, cache, log),
                }?;
                Run {
                    answers: report.answers,
                    rejected: 0,
                    dispatch: report.dispatch,
                }
            }
            PreparedKind::Union { planned, .. } => {
                let plans: Vec<&QueryPlan> = planned.iter().map(|p| &p.plan).collect();
                let report = match emitter {
                    Some(e) => execute_union_streamed(&plans, provider, exec, cache, log, e),
                    None => execute_union_cached(&plans, provider, exec, cache, log),
                }?;
                Run {
                    answers: report.answers,
                    rejected: 0,
                    dispatch: report.dispatch,
                }
            }
            PreparedKind::Negated(plan) => {
                let report = execute_negated_plan(plan, provider, exec, cache, log)?;
                Run {
                    answers: report.answers,
                    rejected: report.rejected,
                    dispatch: report.dispatch,
                }
            }
        };
        Ok(run)
    }

    /// Starts a streaming execution and hands back the live
    /// [`AnswerStream`] for incremental consumption: one thread runs the
    /// `Streaming` execution and sends each answer as soon as the kernel's
    /// fold stage derives it (`execute(Streaming)` runs the same execution
    /// inline and collects a [`Response`] instead). A failure, a panic
    /// included, ends the stream with [`StreamEvent::Failed`]. Only CQ
    /// statements stream incrementally; unions and negated statements
    /// return [`ToorjahError::Unsupported`].
    pub fn stream(&self) -> Result<AnswerStream, ToorjahError> {
        match self.kind {
            PreparedKind::Cq(_) => {}
            PreparedKind::Union { .. } => {
                return Err(ToorjahError::Unsupported(
                    "incremental streaming of a union statement (use execute(ExecMode::Streaming))"
                        .to_string(),
                ))
            }
            PreparedKind::Negated(_) => {
                return Err(ToorjahError::Unsupported(
                    "incremental streaming of a negated statement (answers are certain only after \
                     the negation checks; use execute(ExecMode::Streaming))"
                        .to_string(),
                ))
            }
        }
        let prepared = Prepared {
            provider: Arc::clone(&self.provider),
            config: self.config.clone(),
            session_cache: self.session_cache.clone(),
            statement: self.statement.clone(),
            kind: self.kind.clone(),
            executions: AtomicU64::new(0),
            cumulative_execute_ns: AtomicU64::new(0),
        };
        let (events, receiver) = unbounded::<StreamEvent>();
        let handle = std::thread::spawn(move || {
            let started = Instant::now();
            let exec = prepared.exec_options(ExecMode::Streaming);
            let mut log = AccessLog::new();
            let mut time_to_first_answer = None;
            let run = {
                let mut send = |tuple: &Tuple| {
                    let at = started.elapsed();
                    time_to_first_answer.get_or_insert(at);
                    let _ = events.send(StreamEvent::Answer {
                        tuple: tuple.clone(),
                        at,
                    });
                };
                let mut emitter =
                    AnswerEmitter::new(&mut send).with_limit(exec.first_k.unwrap_or(usize::MAX));
                panic::catch_unwind(AssertUnwindSafe(|| {
                    prepared.run_kernel(exec, &mut log, Some(&mut emitter))
                }))
                .unwrap_or_else(|payload| Err(EngineError::from_panic(payload.as_ref()).into()))
            };
            let event = match run {
                Ok(run) => StreamEvent::Done(Box::new(StreamReport {
                    answers: run.answers,
                    stats: log.stats(),
                    log,
                    time_to_first_answer,
                    total_time: started.elapsed(),
                })),
                Err(ToorjahError::Execution(e)) => StreamEvent::Failed(e),
                Err(e) => StreamEvent::Failed(EngineError::PlanMismatch(e.to_string())),
            };
            let _ = events.send(event);
        });
        Ok(AnswerStream { receiver, handle })
    }

    /// The executor options for one mode: `Sequential` forces the
    /// one-access-per-round-trip dispatch, `Parallel` substitutes its own,
    /// `Streaming` sends every frontier as one round trip.
    fn exec_options(&self, mode: ExecMode) -> ExecOptions {
        let mut exec = self.config.exec;
        exec.dispatch = match mode {
            ExecMode::Sequential => DispatchOptions::sequential(),
            ExecMode::Parallel(d) => d,
            ExecMode::Streaming => DispatchOptions::whole_frontier(),
        };
        exec
    }
}

/// What one kernel execution of a prepared statement produced.
struct Run {
    answers: Vec<Tuple>,
    rejected: usize,
    dispatch: DispatchReport,
}
