//! # toorjah-workload
//!
//! Workload substrate for the Toorjah reproduction of *"Querying Data under
//! Access Limitations"* (Calì & Martinenghi, ICDE 2008):
//!
//! * [`publications`]: the fixed §V schema (`pub1`, `pub2`, `conf`, `rev`,
//!   `sub`, `rev_icde`), its seeded synthetic instance generator, and the
//!   three hand-written queries `q1`–`q3` of Fig. 6;
//! * [`random`]: the synthetic workload of Figs. 10/11 — random schemata
//!   (5–10 relations of arity 1–5 with random access patterns), random CQs
//!   (2–6 atoms, at least one join), and random instances (10–10,000 tuples
//!   per relation drawn from per-domain value pools of 100–1,000 values);
//! * [`overlapping`]: the serving workload for the shared-cache subsystem —
//!   Example 1's music schema with many conjunctive queries whose access
//!   sets heavily intersect (popular-entity traffic);
//! * [`sparse`]: the high-irrelevance star-join workload for the engine's
//!   runtime relevance pruning — statically every access is needed, at
//!   runtime most provably cannot reach the query head;
//! * [`mod@traffic`]: multi-tenant streams for the query service — N tenants ×
//!   M overlapping statements in a seeded mix, replayed by the server load
//!   test and the CI daemon smoke step.
//!
//! All generators are deterministic given a seed, so experiments and tests
//! are reproducible.

#![warn(missing_docs)]

pub mod overlapping;
pub mod publications;
pub mod random;
pub mod sparse;
pub mod traffic;

pub use overlapping::{
    music_instance, music_schema, overlapping_queries, MusicConfig, OverlapParams,
};
pub use publications::{
    paper_queries, publication_instance, publication_schema, PublicationConfig,
};
pub use random::{random_instance, random_query, random_schema, GeneratedSchema, RandomParams};
pub use sparse::{sparse_instance, sparse_query, sparse_schema, SparseConfig};
pub use traffic::{traffic, traffic_statements, TenantTraffic, TrafficParams};
