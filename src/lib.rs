//! # toorjah
//!
//! A Rust reproduction of **"Querying Data under Access Limitations"**
//! (Andrea Calì and Davide Martinenghi, ICDE 2008): answering conjunctive
//! queries over relational sources whose access patterns require certain
//! attributes to be bound (web forms, legacy wrappers), using query plans
//! that are minimal in the number of accesses.
//!
//! This facade crate re-exports the workspace members:
//!
//! | module | contents |
//! |--------|----------|
//! | [`catalog`] | abstract domains, access patterns, schemas, instances |
//! | [`obs`] | observability: structured trace events, sinks, the metrics registry |
//! | [`cache`] | the shared cross-query access cache: sharding, eviction, warm-start |
//! | [`query`] | conjunctive queries, parsing, preprocessing, containment, minimization |
//! | [`datalog`] | Datalog programs and semi-naive evaluation (plan representation) |
//! | [`core`] | d-graphs, the GFP algorithm, relevance, orderings, ⊂-minimal plans |
//! | [`engine`] | sources, access accounting, the naive baseline, the fast-failing executor |
//! | [`system`] | the Toorjah facade; `Streaming` runs the §V schedule on the kernel |
//! | [`server`] | the query service: wire protocol, sessions/budgets, admission control |
//! | [`workload`] | the §V publication workload and the random workloads of Figs. 10–11 |
//!
//! ## Quickstart
//!
//! ```
//! use toorjah::catalog::{Instance, Schema, tuple};
//! use toorjah::engine::InstanceSource;
//! use toorjah::system::Toorjah;
//!
//! // Example 1 of the paper: music sources behind web forms. r1 requires
//! // the artist to be given, r2 requires the year, r3 is free.
//! let schema = Schema::parse(
//!     "r1^ioo(Artist, Nation, Year)
//!      r2^oio(Title, Year, Artist)
//!      r3^oo(Artist, Album)",
//! ).unwrap();
//! let db = Instance::with_data(&schema, [
//!     ("r1", vec![tuple!["modugno", "italy", 1928], tuple!["mina", "italy", 1958]]),
//!     ("r2", vec![tuple!["volare", 1958, "modugno"]]),
//!     ("r3", vec![tuple!["modugno", "nel blu"], tuple!["mina", "studio uno"]]),
//! ]).unwrap();
//!
//! let system = Toorjah::new(InstanceSource::new(schema, db));
//! // "Nationality of the artist(s) who wrote 'volare'" — answerable only
//! // through a recursive plan that bootstraps from the free relation r3
//! // (not even mentioned in the query!): artist names from r3 unlock r1,
//! // whose years unlock r2, whose artists feed r1 again.
//! let result = system.ask("q(N) <- r1(A, N, Y1), r2('volare', Y2, A)").unwrap();
//! assert_eq!(result.answers, vec![tuple!["italy"]]);
//! ```

#![warn(missing_docs)]

pub use toorjah_cache as cache;
pub use toorjah_catalog as catalog;
pub use toorjah_core as core;
pub use toorjah_datalog as datalog;
pub use toorjah_engine as engine;
pub use toorjah_obs as obs;
pub use toorjah_query as query;
pub use toorjah_server as server;
pub use toorjah_system as system;
pub use toorjah_workload as workload;
