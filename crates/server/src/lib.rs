//! The Toorjah query service: a long-running, multi-tenant daemon over the
//! [`toorjah_system`] facade.
//!
//! The paper's sources are *services* with access limitations; this crate
//! makes Toorjah itself one. A [`Server`] hosts a [`Service`] over TCP,
//! speaking line-delimited JSON (see [`wire`]): clients `prepare`
//! statements into a shared plan registry, `execute`/`ask` under per-tenant
//! access budgets, and read `cache_stats`/`metrics`; `shutdown` drains
//! gracefully. One [`SharedAccessCache`](toorjah_cache::SharedAccessCache)
//! backs every tenant, so overlapping statements share extractions exactly
//! once — the cross-query caching story of DESIGN.md, now cross-*tenant*.
//!
//! Admission control ([`Admission`]) bounds concurrent executions and the
//! wait queue; saturation is a typed `admission_rejected` error with a
//! `retry_after_ms` hint, never an unbounded backlog. Budget exhaustion is
//! a typed `budget_exhausted` error, never a partial answer — the
//! remaining budget rides into the kernel as its access cap, so an
//! execution that would overdraw aborts atomically.
//!
//! Transport and protocol are separable: [`Service::handle_line`] is the
//! whole protocol (one request line → one response line), which is how the
//! wire golden tests pin response bytes without opening a socket.

#![warn(missing_docs)]

mod admission;
mod client;
mod registry;
mod server;
mod session;
pub mod wire;

pub use admission::{Admission, Admit, Permit};
pub use client::{reply_answers, reply_error_code, reply_number, reply_ok, WireClient};
pub use registry::{normalize, StatementRegistry};
pub use server::{Server, Service, ServiceConfig, DEFAULT_TENANT_BUDGET, MAX_REQUEST_LINE};
pub use session::{SessionRegistry, SessionSnapshot};
