//! The two overhead budgets that guard live code paths, checked in one
//! release run:
//!
//! 1. **Disabled observability probes ≤ +2%** (DESIGN.md §8): with
//!    observability *disabled*, the probes threaded through the kernel round
//!    loop are branch-on-`None` no-ops, so the instrumented loop must stay
//!    within 2% of an identical loop with no probes at all.
//! 2. **Daemon wire ≤ 3× direct `execute`** (DESIGN.md §10): the service
//!    tax — request parsing, admission, session bookkeeping and response
//!    rendering around an execution — must stay within 3× of the direct
//!    facade call on a cache-warm prepared statement, where the execution
//!    itself is cheapest and the wrapper is proportionally largest.
//!
//! Both compare the minimum over interleaved trials, so scheduler noise
//! cannot produce a false pass. Each prints its ratio; the run exits
//! non-zero when either bound is violated.
//!
//! Run: `cargo run --release -p toorjah-bench --bin overhead_budgets`

use std::process::ExitCode;
use std::time::Instant;

use toorjah_cache::SharedAccessCache;
use toorjah_engine::InstanceSource;
use toorjah_obs::{EventKind, Obs};
use toorjah_query::Statement;
use toorjah_server::{Service, ServiceConfig};
use toorjah_system::{ExecMode, Toorjah};
use toorjah_workload::{music_instance, music_schema, MusicConfig};

const QUERY: &str = "q(N) <- r1(A, N, Y1), r2('t0', Y2, A)";

/// Per-iteration "round work" standing in for frontier processing. Sized
/// at ~150ns — still orders of magnitude below a real kernel round (tens
/// of microseconds of dispatch work), so the bound checked here is far
/// stricter than the production budget — yet small enough that a probe
/// that allocated or took a lock would blow it immediately.
#[inline(never)]
fn round_work(mut x: u64) -> u64 {
    for _ in 0..128 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// The kernel round loop with no observability probes at all.
fn loop_plain(rounds: u64) -> u64 {
    let mut acc = 0u64;
    for round in 1..=rounds {
        acc = acc.wrapping_add(round_work(round));
    }
    acc
}

/// The same loop with the exact probe pattern the kernel uses per round:
/// an enabled check, a metrics-handle check, and two trace probes whose
/// closures are never invoked on a disabled handle.
fn loop_probed(obs: Obs, rounds: u64) -> u64 {
    let registry = obs.registry();
    let mut acc = 0u64;
    for round in 1..=rounds {
        let started = obs.is_enabled().then(Instant::now);
        obs.trace(round as u32, || EventKind::RoundStart {
            requested: round as usize,
        });
        acc = acc.wrapping_add(round_work(round));
        if let Some(registry) = registry {
            registry.counter("kernel.rounds").inc();
        }
        if let Some(started) = started {
            let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            obs.trace(round as u32, || EventKind::RoundEnd { micros });
        }
    }
    acc
}

/// The disabled-path budget: min-of-interleaved-trials of the probed loop
/// within 2% of the plain loop.
fn disabled_overhead_within_budget() -> bool {
    const TRIALS: usize = 9;
    const ROUNDS: u64 = 150_000;
    let obs = Obs::disabled();
    // Warm-up, and keep the results observable so neither loop folds away.
    let mut sink = loop_plain(ROUNDS) ^ loop_probed(obs, ROUNDS);
    let mut plain_min = u128::MAX;
    let mut probed_min = u128::MAX;
    for _ in 0..TRIALS {
        let t = Instant::now();
        sink ^= loop_plain(std::hint::black_box(ROUNDS));
        plain_min = plain_min.min(t.elapsed().as_nanos());
        let t = Instant::now();
        sink ^= loop_probed(std::hint::black_box(obs), std::hint::black_box(ROUNDS));
        probed_min = probed_min.min(t.elapsed().as_nanos());
    }
    std::hint::black_box(sink);
    let ok = probed_min * 100 <= plain_min * 102;
    println!(
        "disabled-path overhead: plain {plain_min}ns, probed {probed_min}ns \
         ({:+.2}%, budget +2%): {}",
        100.0 * (probed_min as f64 - plain_min as f64) / plain_min as f64,
        verdict(ok)
    );
    ok
}

fn warm_service() -> Service {
    let schema = music_schema();
    let db = music_instance(&schema, &MusicConfig::default());
    let system = Toorjah::builder(InstanceSource::new(schema, db))
        .cache(SharedAccessCache::unbounded())
        .observability(Obs::disabled())
        .build();
    let service = Service::new(system, ServiceConfig::default());
    // Pay the cold misses and the plan once; the measured loops below run
    // entirely cache- and registry-warm (cache-served lookups are free, so
    // the tenant budget never depletes).
    let reply = service.handle_line(&execute_line(QUERY));
    assert!(reply.contains("\"ok\":true"), "{reply}");
    service
}

fn execute_line(query: &str) -> String {
    format!("{{\"id\":1,\"verb\":\"execute\",\"query\":\"{query}\"}}")
}

/// The wire-tax budget: min-of-interleaved-trials of the warm wire
/// `execute` within 3× of the direct facade execution it wraps.
fn wire_overhead_within_budget() -> bool {
    const TRIALS: usize = 9;
    const ITERS: usize = 300;
    let service = warm_service();
    let system = service.system();
    let statement = Statement::parse(QUERY, system.schema()).expect("parses");
    let prepared = system.prepare(&statement).expect("answerable");
    let line = execute_line(QUERY);
    let mut sink = 0usize;
    let mut direct_min = u128::MAX;
    let mut wire_min = u128::MAX;
    for _ in 0..TRIALS {
        let t = Instant::now();
        for _ in 0..ITERS {
            sink ^= prepared
                .execute(ExecMode::Sequential)
                .expect("answerable")
                .answers
                .len();
        }
        direct_min = direct_min.min(t.elapsed().as_nanos());
        let t = Instant::now();
        for _ in 0..ITERS {
            sink ^= service.handle_line(std::hint::black_box(&line)).len();
        }
        wire_min = wire_min.min(t.elapsed().as_nanos());
    }
    std::hint::black_box(sink);
    let ok = wire_min <= direct_min * 3;
    println!(
        "wire tax on a warm statement: direct {direct_min}ns, wire {wire_min}ns \
         per {ITERS} executions ({:.2}x, budget 3x): {}",
        wire_min as f64 / direct_min as f64,
        verdict(ok)
    );
    ok
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "VIOLATED"
    }
}

fn main() -> ExitCode {
    // Run both, so one report shows every violated budget.
    let obs_ok = disabled_overhead_within_budget();
    let wire_ok = wire_overhead_within_budget();
    if obs_ok && wire_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
