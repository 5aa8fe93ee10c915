//! Incremental answer delivery.
//!
//! §V: *"Toorjah presents the result tuples incrementally, as soon as they
//! are generated; this is particularly suitable when the results are
//! paginated. Therefore, the user can interactively stop the lengthy
//! answering process, once (s)he is satisfied with the answers."*

use std::time::Duration;

use crossbeam::channel::Receiver;
use toorjah_catalog::Tuple;
use toorjah_engine::{AccessLog, AccessStats, EngineError};

/// An event on the answer stream.
#[derive(Clone, Debug)]
pub enum StreamEvent {
    /// A new answer tuple, stamped with the elapsed time since execution
    /// started.
    Answer {
        /// The answer.
        tuple: Tuple,
        /// Elapsed time when it was produced.
        at: Duration,
    },
    /// Execution finished; no more events follow. Boxed: the report
    /// (answers + full access log) dwarfs the per-answer events.
    Done(Box<StreamReport>),
    /// Execution failed; no more events follow.
    Failed(EngineError),
}

/// Final statistics of a streaming execution.
#[derive(Clone, Debug)]
pub struct StreamReport {
    /// The executor's final answers, in the order `execute` returns them
    /// (the [`StreamEvent::Answer`] events carry them in emission order).
    pub answers: Vec<Tuple>,
    /// Access counters (a snapshot of `log`).
    pub stats: AccessStats,
    /// The run's full access log: exactly the accesses this run performed,
    /// plus its cache-served counter.
    pub log: AccessLog,
    /// Time until the first answer was produced (`None` when the answer set
    /// is empty).
    pub time_to_first_answer: Option<Duration>,
    /// Total execution time.
    pub total_time: Duration,
}

/// A handle to a running streaming execution: iterate [`StreamEvent`]s or
/// block for the final report.
pub struct AnswerStream {
    pub(crate) receiver: Receiver<StreamEvent>,
    pub(crate) handle: std::thread::JoinHandle<()>,
}

impl AnswerStream {
    /// Receives the next event, blocking until one is available. Returns
    /// `None` after the terminal event has been consumed.
    pub fn next_event(&self) -> Option<StreamEvent> {
        self.receiver.recv().ok()
    }

    /// Iterates answers only (silently dropping the terminal event), in
    /// production order. The iterator ends when execution completes.
    pub fn answers(&self) -> impl Iterator<Item = Tuple> + '_ {
        self.receiver.iter().filter_map(|e| match e {
            StreamEvent::Answer { tuple, .. } => Some(tuple),
            _ => None,
        })
    }

    /// Drains the stream and returns the final report.
    pub fn wait(self) -> Result<StreamReport, EngineError> {
        let mut report = None;
        for event in self.receiver.iter() {
            match event {
                StreamEvent::Answer { .. } => {}
                StreamEvent::Done(r) => report = Some(Ok(*r)),
                StreamEvent::Failed(e) => report = Some(Err(e)),
            }
        }
        let _ = self.handle.join();
        report.expect("a stream always ends with a terminal event")
    }
}
