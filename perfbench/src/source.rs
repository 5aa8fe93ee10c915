//! The benchmark's counting source wrapper: it counts round trips and the
//! accesses they carry, and in a traced run times each call for the
//! `execute` span it belongs to.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use toorjah_catalog::{AccessKey, RelationId, Schema, Tuple};
use toorjah_engine::{AccessResult, EngineError, SourceProvider};

use crate::trace::Tracer;

pub struct Counting<S> {
    inner: S,
    tracer: Arc<Tracer>,
    round_trips: AtomicU64,
    accesses: AtomicU64,
}

/// Round trips and accesses seen so far.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counts {
    pub round_trips: u64,
    pub accesses: u64,
}

impl Counts {
    pub fn since(self, earlier: Counts) -> Counts {
        Counts {
            round_trips: self.round_trips - earlier.round_trips,
            accesses: self.accesses - earlier.accesses,
        }
    }
}

impl<S: SourceProvider> Counting<S> {
    pub fn new(inner: S, tracer: Arc<Tracer>) -> Self {
        Counting {
            inner,
            tracer,
            round_trips: AtomicU64::new(0),
            accesses: AtomicU64::new(0),
        }
    }

    pub fn counts(&self) -> Counts {
        Counts {
            round_trips: self.round_trips.load(Ordering::Relaxed),
            accesses: self.accesses.load(Ordering::Relaxed),
        }
    }

    fn call<T>(&self, accesses: usize, f: impl FnOnce() -> T) -> T {
        self.round_trips.fetch_add(1, Ordering::Relaxed);
        self.accesses.fetch_add(accesses as u64, Ordering::Relaxed);
        self.tracer.source_call(f)
    }
}

impl<S: SourceProvider> SourceProvider for Counting<S> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn access(&self, relation: RelationId, binding: &Tuple) -> Result<Vec<Tuple>, EngineError> {
        self.call(1, || self.inner.access(relation, binding))
    }

    fn access_batch(&self, requests: &[AccessKey]) -> Vec<AccessResult> {
        if requests.is_empty() {
            return Vec::new();
        }
        self.call(requests.len(), || self.inner.access_batch(requests))
    }
}
