//! The `Toorjah` facade: parse → prepare → execute.
//!
//! The lifecycle has three phases, each its own API step:
//!
//! 1. **parse** — [`Statement::parse`] turns text into a [`Statement`]
//!    (plain CQ, `;`-separated union, or `!`-negated query);
//! 2. **prepare** — [`Toorjah::prepare`] plans the statement once,
//!    returning a [`crate::Prepared`] that is `Send + Sync` and cheaply
//!    re-executable;
//! 3. **execute** — [`crate::Prepared::execute`] runs the plan under an
//!    [`ExecMode`] and returns the unified [`Response`].
//!
//! [`Toorjah::ask`] remains as the one-shot convenience: it chains the
//! three phases and stitches the parse/plan timings into the response's
//! [`crate::ExecutionProfile`].

use std::error::Error;
use std::fmt;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

use toorjah_cache::{CacheConfig, CacheStats, SharedAccessCache};
use toorjah_catalog::Schema;
use toorjah_core::{plan_query, CoreError, Planned, Planner};
use toorjah_engine::{
    plan_negated, DispatchOptions, EngineError, ExecOptions, NegationError, PruningLevel,
    SourceProvider,
};
use toorjah_obs::{Obs, TraceSink};
use toorjah_query::{ConjunctiveQuery, QueryError, Statement};

use crate::prepared::PreparedKind;
use crate::{DistillationOptions, ExecMode, MetricsReport, Prepared, Response};

/// Configuration of a [`Toorjah`] instance.
#[derive(Clone, Debug, Default)]
pub struct ToorjahConfig {
    /// Planner settings (CQ minimization, ordering heuristic).
    pub planner: Planner,
    /// Sequential execution settings.
    pub exec: ExecOptions,
    /// Distillation (streaming) settings.
    pub distillation: DistillationOptions,
}

/// Errors surfaced by the facade.
#[derive(Clone, Debug)]
pub enum ToorjahError {
    /// Statement parsing/validation failed.
    Query(QueryError),
    /// Planning failed (e.g. the query is not answerable).
    Planning(CoreError),
    /// Execution failed.
    Execution(EngineError),
    /// The requested operation is not supported for this statement kind.
    Unsupported(String),
}

impl fmt::Display for ToorjahError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ToorjahError::Query(e) => write!(f, "query error: {e}"),
            ToorjahError::Planning(e) => write!(f, "planning error: {e}"),
            ToorjahError::Execution(e) => write!(f, "execution error: {e}"),
            ToorjahError::Unsupported(what) => write!(f, "unsupported: {what}"),
        }
    }
}

impl Error for ToorjahError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ToorjahError::Query(e) => Some(e),
            ToorjahError::Planning(e) => Some(e),
            ToorjahError::Execution(e) => Some(e),
            ToorjahError::Unsupported(_) => None,
        }
    }
}

impl From<QueryError> for ToorjahError {
    fn from(e: QueryError) -> Self {
        ToorjahError::Query(e)
    }
}

impl From<CoreError> for ToorjahError {
    fn from(e: CoreError) -> Self {
        ToorjahError::Planning(e)
    }
}

impl From<EngineError> for ToorjahError {
    fn from(e: EngineError) -> Self {
        ToorjahError::Execution(e)
    }
}

impl From<NegationError> for ToorjahError {
    fn from(e: NegationError) -> Self {
        match e {
            NegationError::Planning(e) => ToorjahError::Planning(e),
            NegationError::Execution(e) => ToorjahError::Execution(e),
            NegationError::Internal(msg) => ToorjahError::Planning(CoreError::Internal(msg)),
        }
    }
}

/// Builds a [`Toorjah`] instance: provider, planner/executor configuration,
/// dispatch settings and an optional session cache in one fluent chain.
///
/// ```
/// use toorjah_catalog::{Instance, Schema};
/// use toorjah_engine::{DispatchOptions, InstanceSource};
/// use toorjah_system::Toorjah;
/// use toorjah_cache::SharedAccessCache;
///
/// let schema = Schema::parse("r^oo(A, B)").unwrap();
/// let provider = InstanceSource::new(schema.clone(), Instance::new(&schema));
/// let system = Toorjah::builder(provider)
///     .dispatch(DispatchOptions::parallel(4).with_batch_size(8))
///     .cache(SharedAccessCache::unbounded())
///     .build();
/// assert!(system.session_cache().is_some());
/// ```
pub struct ToorjahBuilder {
    provider: Arc<dyn SourceProvider>,
    config: ToorjahConfig,
    session_cache: Option<SharedAccessCache>,
    /// Cache configuration for a session cache built at [`ToorjahBuilder::build`]
    /// time, wired to the instance's observability handle.
    session_cache_config: Option<CacheConfig>,
    /// `None` means "default": a metrics-only [`Obs::enabled`] handle.
    obs: Option<Obs>,
}

impl ToorjahBuilder {
    /// Replaces the whole configuration at once.
    pub fn config(mut self, config: ToorjahConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces the planner settings.
    pub fn planner(mut self, planner: Planner) -> Self {
        self.config.planner = planner;
        self
    }

    /// Replaces the executor settings.
    pub fn exec(mut self, exec: ExecOptions) -> Self {
        self.config.exec = exec;
        self
    }

    /// Replaces the distillation (streaming) settings.
    pub fn distillation(mut self, distillation: DistillationOptions) -> Self {
        self.config.distillation = distillation;
        self
    }

    /// Configures how each round's access frontier is dispatched (worker
    /// threads, batched round trips). Answers and access counts are
    /// invariant in these settings; only wall-clock changes.
    pub fn dispatch(mut self, dispatch: DispatchOptions) -> Self {
        self.config.exec.dispatch = dispatch;
        self
    }

    /// Selects the tiered pruning configuration (see
    /// [`PruningLevel`](toorjah_engine::PruningLevel)):
    ///
    /// | level     | adds                                               |
    /// |-----------|----------------------------------------------------|
    /// | `off`     | nothing — plans with strong-arc analysis disabled  |
    /// | `static`  | plan-time relevance (the default)                  |
    /// | `runtime` | kernel access-relevance pruning before dispatch    |
    ///
    /// Answers are invariant across every level; `accesses_performed`
    /// drops at `runtime` (surfaced as
    /// `profile.dispatch.accesses_pruned`). Ignored by the streaming
    /// executor.
    pub fn prune_level(mut self, level: PruningLevel) -> Self {
        self.config.exec.prune_level = level;
        self
    }

    /// Opt-in first-k early termination: executions stop as soon as `k`
    /// answers are certain and return exactly the first `k`. Unions stop
    /// between disjuncts; negated statements apply the cap after the
    /// negation checks; the streaming executor ignores it.
    pub fn first_k(mut self, k: usize) -> Self {
        self.config.exec.first_k = Some(k);
        self
    }

    /// Installs a session cache shared by every statement this instance
    /// (and any other holder of the handle) executes. The cache keeps its
    /// own per-shard counters regardless; to additionally have it *trace*
    /// evictions and coalesces, build it from a config with
    /// [`ToorjahBuilder::cache_config`] instead (or construct it yourself
    /// with [`SharedAccessCache::with_obs`]).
    pub fn cache(mut self, cache: SharedAccessCache) -> Self {
        self.session_cache = Some(cache);
        self
    }

    /// Builds the session cache from `config` at [`ToorjahBuilder::build`]
    /// time, wired to the instance's observability handle — evictions and
    /// single-flight coalesces then emit trace events when a sink is
    /// installed. Overrides [`ToorjahBuilder::cache`].
    pub fn cache_config(mut self, config: CacheConfig) -> Self {
        self.session_cache_config = Some(config);
        self
    }

    /// Replaces the observability handle. The default is a metrics-only
    /// [`Obs::enabled`] handle — counters, gauges and latency histograms
    /// are collected (lock-free atomic bumps) and surfaced through
    /// [`Toorjah::metrics`] / [`Response::metrics`]. Pass
    /// [`Obs::disabled`] to opt out entirely (every probe then costs one
    /// branch and allocates nothing), or a tracing handle from
    /// [`Obs::with_sink`] — which [`ToorjahBuilder::trace_sink`]
    /// abbreviates — for the full structured event stream.
    pub fn observability(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Enables structured execution tracing into `sink`: every kernel
    /// round, access, cache eviction and coalesce is exported as a typed
    /// [`toorjah_obs::TraceEvent`] (metrics stay on too). Shorthand for
    /// `observability(Obs::with_sink(sink))`.
    pub fn trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.obs = Some(Obs::with_sink(sink));
        self
    }

    /// Finishes the build.
    pub fn build(self) -> Toorjah {
        let obs = self.obs.unwrap_or_else(Obs::enabled);
        let mut config = self.config;
        config.exec.obs = obs;
        let session_cache = self
            .session_cache_config
            .map(|c| SharedAccessCache::with_obs(c, obs))
            .or(self.session_cache);
        Toorjah {
            provider: self.provider,
            config,
            session_cache,
        }
    }
}

/// The Toorjah system: a source provider plus the planner/executor pipeline.
///
/// By default a statement shares nothing with other statements: its access
/// log is its meta-cache (the paper's one-shot semantics). Install a
/// session cache with
/// [`Toorjah::builder`] (or [`Toorjah::with_cache`]) to share extractions
/// across statements — and, since [`SharedAccessCache`] handles are cheaply
/// cloneable, across any number of `Toorjah` instances and threads serving
/// the same provider.
pub struct Toorjah {
    pub(crate) provider: Arc<dyn SourceProvider>,
    pub(crate) config: ToorjahConfig,
    pub(crate) session_cache: Option<SharedAccessCache>,
}

impl Toorjah {
    /// Wraps a source provider with the default configuration.
    pub fn new(provider: impl SourceProvider + 'static) -> Self {
        Toorjah {
            provider: Arc::new(provider),
            config: ToorjahConfig::default(),
            session_cache: None,
        }
    }

    /// Wraps an already-shared provider.
    pub fn from_arc(provider: Arc<dyn SourceProvider>) -> Self {
        Toorjah {
            provider,
            config: ToorjahConfig::default(),
            session_cache: None,
        }
    }

    /// Starts a [`ToorjahBuilder`] over a provider — the one-stop
    /// configuration surface consolidating [`Toorjah::with_config`],
    /// [`Toorjah::with_cache`] and [`Toorjah::with_dispatch`].
    pub fn builder(provider: impl SourceProvider + 'static) -> ToorjahBuilder {
        Self::builder_from_arc(Arc::new(provider))
    }

    /// [`Toorjah::builder`] over an already-shared provider.
    pub fn builder_from_arc(provider: Arc<dyn SourceProvider>) -> ToorjahBuilder {
        ToorjahBuilder {
            provider,
            config: ToorjahConfig::default(),
            session_cache: None,
            session_cache_config: None,
            obs: None,
        }
    }

    /// Replaces the configuration (shorthand for the builder's
    /// [`ToorjahBuilder::config`]).
    pub fn with_config(mut self, config: ToorjahConfig) -> Self {
        self.config = config;
        self
    }

    /// Installs a session cache: consecutive statements (and any other
    /// session holding a clone of the handle) skip accesses that are
    /// already retained. Answers are invariant under cache reuse; only the
    /// access counts drop (see DESIGN.md).
    pub fn with_cache(mut self, cache: SharedAccessCache) -> Self {
        self.session_cache = Some(cache);
        self
    }

    /// Configures how each round's access frontier is dispatched: worker
    /// threads and batched round trips. Answers, access counts and cache
    /// hit/miss totals are invariant in these settings (see DESIGN.md,
    /// "Frontier batching & the access cost model"); only wall-clock
    /// changes.
    pub fn with_dispatch(mut self, dispatch: DispatchOptions) -> Self {
        self.config.exec.dispatch = dispatch;
        self
    }

    /// The session cache, when one is installed.
    pub fn session_cache(&self) -> Option<&SharedAccessCache> {
        self.session_cache.as_ref()
    }

    /// Statistics of the session cache, when one is installed.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.session_cache.as_ref().map(SharedAccessCache::stats)
    }

    /// The observability handle this instance threads through every
    /// execution. [`Toorjah::new`] leaves it disabled; the builder enables
    /// metrics by default (see [`ToorjahBuilder::observability`]).
    pub fn obs(&self) -> Obs {
        self.config.exec.obs
    }

    /// A point-in-time [`MetricsReport`]: the registry's instruments plus
    /// interner occupancy and the session cache's totals + per-shard
    /// counters (defaults when no session cache is installed). `None`
    /// under a disabled observability handle. For per-execution metrics —
    /// including executions without a session cache — read
    /// [`Response::metrics`] instead.
    pub fn metrics(&self) -> Option<MetricsReport> {
        self.config
            .exec
            .obs
            .snapshot()
            .map(|snapshot| MetricsReport {
                snapshot,
                interner: self.interner().stats(),
                cache: self.cache_stats().unwrap_or_default(),
                shards: self
                    .session_cache
                    .as_ref()
                    .map(SharedAccessCache::shard_counters)
                    .unwrap_or_default(),
            })
    }

    /// The string interner this session's values resolve against.
    ///
    /// The interner is process-wide — cache keys built by one session must
    /// hash and compare identically in every other session sharing a
    /// [`SharedAccessCache`] — but it is surfaced here as session-level
    /// observability: [`Interner::stats`](toorjah_catalog::Interner::stats)
    /// reports the distinct-symbol count and the payload bytes accounted
    /// once at the interner instead of per retained value.
    pub fn interner(&self) -> &'static toorjah_catalog::Interner {
        toorjah_catalog::Interner::global()
    }

    /// The schema of the underlying sources.
    pub fn schema(&self) -> &Schema {
        self.provider.schema()
    }

    /// The [`ExecMode`] one-shot calls use: [`ExecMode::Sequential`], or
    /// [`ExecMode::Parallel`] when dispatch settings were configured.
    pub fn default_mode(&self) -> ExecMode {
        Self::mode_for(&self.config)
    }

    pub(crate) fn mode_for(config: &ToorjahConfig) -> ExecMode {
        if config.exec.dispatch == DispatchOptions::sequential() {
            ExecMode::Sequential
        } else {
            ExecMode::Parallel(config.exec.dispatch)
        }
    }

    /// Plans a statement once, returning a [`Prepared`] that executes any
    /// number of times — from any thread — without re-planning. The plan
    /// depends only on statement and schema, never on data seen during an
    /// execution.
    ///
    /// Non-answerable statements fail here for CQs and negated queries;
    /// non-answerable *union disjuncts* are skipped (their indexes are
    /// reported by [`Prepared::skipped_disjuncts`] and every
    /// [`Response::skipped_disjuncts`]), mirroring the union semantics of
    /// §II: a disjunct with no obtainable answers contributes nothing.
    pub fn prepare(&self, statement: &Statement) -> Result<Prepared, ToorjahError> {
        let schema = self.provider.schema();
        let planner = self.effective_planner();
        let kind = match statement {
            Statement::Cq(q) => PreparedKind::Cq(Box::new(planner.plan(q, schema)?)),
            Statement::Union(u) => {
                let mut planned = Vec::new();
                let mut skipped = Vec::new();
                for (i, cq) in u.cqs().iter().enumerate() {
                    match planner.plan(cq, schema) {
                        Ok(p) => planned.push(p),
                        Err(CoreError::NotAnswerable { .. }) => skipped.push(i),
                        Err(e) => return Err(e.into()),
                    }
                }
                PreparedKind::Union { planned, skipped }
            }
            Statement::Negated(nq) => {
                PreparedKind::Negated(Box::new(plan_negated(nq, schema, &planner)?))
            }
        };
        Ok(Prepared {
            provider: Arc::clone(&self.provider),
            config: self.config.clone(),
            session_cache: self.session_cache.clone(),
            statement: statement.clone(),
            kind,
            executions: AtomicU64::new(0),
            cumulative_execute_ns: AtomicU64::new(0),
        })
    }

    /// The planner [`Toorjah::prepare`] actually uses: at
    /// [`PruningLevel::Off`] the strong-arc machinery is disabled —
    /// reproducing the [`toorjah_core::gfp_relevance_only`] ablation, so
    /// `off` really means *no* relevance reasoning at any layer. Every
    /// other level plans with the configured settings.
    fn effective_planner(&self) -> Planner {
        if self.config.exec.prune_level == PruningLevel::Off {
            Planner {
                strong_arcs: false,
                ..self.config.planner
            }
        } else {
            self.config.planner
        }
    }

    /// One-shot convenience: parse → prepare → execute under the
    /// configured [`Toorjah::default_mode`], with all three phase timings
    /// stitched into the response profile. Handles every statement kind —
    /// plain CQs, `;`-separated unions, `!`-negated queries.
    pub fn ask(&self, text: &str) -> Result<Response, ToorjahError> {
        self.ask_with(text, self.default_mode())
    }

    /// [`Toorjah::ask`] under an explicit [`ExecMode`].
    pub fn ask_with(&self, text: &str, mode: ExecMode) -> Result<Response, ToorjahError> {
        self.ask_capped(text, mode, None)
    }

    /// [`Toorjah::ask_with`] under a per-execution access cap (see
    /// [`crate::Prepared::execute_capped`]): at most `max_accesses` of
    /// `Some(n)` distinct source accesses, or a typed
    /// [`EngineError::AccessBudgetExceeded`] failure with no partial
    /// answer. The query service threads each tenant's remaining budget
    /// through here.
    pub fn ask_capped(
        &self,
        text: &str,
        mode: ExecMode,
        max_accesses: Option<usize>,
    ) -> Result<Response, ToorjahError> {
        let parse_started = Instant::now();
        let statement = Statement::parse(text, self.provider.schema())?;
        let parse = parse_started.elapsed();
        let plan_started = Instant::now();
        let prepared = self.prepare(&statement)?;
        let plan = plan_started.elapsed();
        let mut response = prepared.execute_capped(mode, max_accesses)?;
        response.profile.timings.parse = Some(parse);
        response.profile.timings.plan = Some(plan);
        response.profile.timings.total += parse + plan;
        Ok(response)
    }

    /// [`Toorjah::ask`] for an already parsed conjunctive query (no parse
    /// phase; the plan timing is still reported).
    pub fn ask_query(&self, query: &ConjunctiveQuery) -> Result<Response, ToorjahError> {
        let plan_started = Instant::now();
        let prepared = self.prepare(&Statement::Cq(query.clone()))?;
        let plan = plan_started.elapsed();
        let mut response = prepared.execute(self.default_mode())?;
        response.profile.timings.plan = Some(plan);
        response.profile.timings.total += plan;
        Ok(response)
    }

    /// Plans a query without executing it.
    pub fn plan(&self, query_text: &str) -> Result<Planned, ToorjahError> {
        let query = toorjah_query::parse_query(query_text, self.provider.schema())?;
        Ok(plan_query(&query, self.provider.schema())?)
    }

    /// A human-readable explanation of a statement's plan(s): the minimized
    /// quer(ies), the relevant sources with their ordering positions,
    /// ∀-minimality, and the generated Datalog program — per disjunct for
    /// unions, plus the negated atoms for negated statements.
    pub fn explain(&self, text: &str) -> Result<String, ToorjahError> {
        let statement = Statement::parse(text, self.provider.schema())?;
        let prepared = self.prepare(&statement)?;
        let mut out = String::new();
        match &statement {
            Statement::Cq(_) => {
                let planned = prepared.planned().expect("CQ statements are planned");
                out.push_str(&self.explain_planned(planned));
            }
            Statement::Union(_) => {
                for (i, planned) in prepared.disjunct_plans().iter().enumerate() {
                    out.push_str(&format!("== disjunct {i} ==\n"));
                    out.push_str(&self.explain_planned(planned));
                }
                for &i in prepared.skipped_disjuncts() {
                    out.push_str(&format!("== disjunct {i}: not answerable (skipped) ==\n"));
                }
            }
            Statement::Negated(nq) => {
                let planned = prepared.planned().expect("negated statements are planned");
                out.push_str(&self.explain_planned(planned));
                out.push_str("negation checks (decided exactly, per candidate):\n");
                for atom in nq.negated() {
                    out.push_str(&format!(
                        "  not {}/{}\n",
                        self.provider.schema().relation(atom.relation()).name(),
                        atom.arity(),
                    ));
                }
            }
        }
        let dispatch = self.config.exec.dispatch;
        out.push_str(&format!(
            "dispatch: parallelism={}, batch_size={}\n",
            dispatch.parallelism, dispatch.batch_size
        ));
        out.push_str(&format!(
            "pruning level: {}\n",
            self.config.exec.prune_level
        ));
        out.push_str(&format!(
            "runtime pruning: {}\n",
            if self.config.exec.prune_level >= PruningLevel::Runtime {
                "enabled"
            } else {
                "disabled"
            }
        ));
        if let Some(k) = self.config.exec.first_k {
            out.push_str(&format!("first-k: stop after {k} certain answer(s)\n"));
        }
        if let Some(stats) = self.cache_stats() {
            out.push_str(&format!("session cache: {stats}\n"));
        }
        let interner = self.interner().stats();
        out.push_str(&format!(
            "interner: {} symbol(s), {} payload byte(s)\n",
            interner.symbols, interner.bytes
        ));
        let obs = self.config.exec.obs;
        out.push_str(&format!(
            "observability: {}\n",
            if obs.is_tracing() {
                "metrics + tracing"
            } else if obs.is_enabled() {
                "metrics (tracing off)"
            } else {
                "disabled"
            }
        ));
        Ok(out)
    }

    fn explain_planned(&self, planned: &Planned) -> String {
        let schema = &planned.plan.schema;
        let mut out = String::new();
        out.push_str(&format!(
            "query (minimized): {}\n",
            planned.minimized.display(self.provider.schema())
        ));
        out.push_str(&format!(
            "d-graph: {} sources, {} arcs ({} strong, {} weak, {} deleted after GFP)\n",
            planned.optimized.graph().sources().len(),
            planned.optimized.graph().arcs().len(),
            planned.optimized.strong_count(),
            planned.optimized.weak_count(),
            planned.optimized.deleted_count(),
        ));
        out.push_str("relevant sources (by position, with adornment):\n");
        for cache in &planned.plan.caches {
            out.push_str(&format!(
                "  {}. {} over {} [{}]\n",
                cache.position,
                cache.label,
                schema.relation(cache.relation).name(),
                cache.adornment,
            ));
        }
        out.push_str(&format!(
            "forall-minimal: {}\n",
            if planned.minimality.forall_minimal {
                "yes"
            } else {
                "no"
            }
        ));
        let prunable = planned.plan.relevance.prunable_caches();
        if prunable.is_empty() {
            out.push_str("runtime-prunable caches: none\n");
        } else {
            let labels: Vec<&str> = prunable
                .iter()
                .map(|&i| planned.plan.caches[i].label.as_str())
                .collect();
            out.push_str(&format!("runtime-prunable caches: {}\n", labels.join(", ")));
        }
        out.push_str("datalog program:\n");
        for rule in planned.plan.program.rules() {
            out.push_str(&format!("  {}\n", planned.plan.program.render_rule(rule)));
        }
        // The static delta schedule: each round of semi-naive evaluation runs
        // one delta-join pass per (recursive rule, IDB body literal) pair,
        // joining that literal's delta against the totals of the rest.
        let program = &planned.plan.program;
        let idb = program.idb_predicates();
        let mut recursive_rules = 0usize;
        let mut delta_passes = 0usize;
        for rule in program.rules() {
            let pivots = rule.body.iter().filter(|l| idb.contains(&l.pred)).count();
            if pivots > 0 {
                recursive_rules += 1;
                delta_passes += pivots;
            }
        }
        if delta_passes == 0 {
            out.push_str("semi-naive: no recursive rules, single-round evaluation\n");
        } else {
            out.push_str(&format!(
                "semi-naive: {recursive_rules} recursive rule(s), \
                 {delta_passes} delta-join pass(es) per round\n"
            ));
        }
        out
    }
}
