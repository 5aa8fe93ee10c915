//! Error type for query execution.

use std::error::Error;
use std::fmt;

use toorjah_catalog::CatalogError;
use toorjah_datalog::DatalogError;

/// Errors raised while executing queries against limited sources.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EngineError {
    /// The configured access budget was exhausted before the fixpoint.
    AccessBudgetExceeded {
        /// The configured limit.
        limit: usize,
    },
    /// A remote source failed to answer an access.
    SourceFailure {
        /// Relation being accessed.
        relation: String,
        /// Failure detail.
        detail: String,
    },
    /// The plan and the provided source disagree (e.g. unknown relation).
    PlanMismatch(String),
    /// An underlying catalog error.
    Catalog(CatalogError),
    /// An underlying Datalog error.
    Datalog(DatalogError),
    /// The execution panicked (a panicking source, say); the detail is the
    /// panic message.
    Panicked(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::AccessBudgetExceeded { limit } => {
                write!(f, "access budget of {limit} accesses exhausted")
            }
            EngineError::SourceFailure { relation, detail } => {
                write!(f, "source {relation} failed: {detail}")
            }
            EngineError::PlanMismatch(msg) => write!(f, "plan/source mismatch: {msg}"),
            EngineError::Catalog(e) => write!(f, "catalog error: {e}"),
            EngineError::Datalog(e) => write!(f, "datalog error: {e}"),
            EngineError::Panicked(detail) => write!(f, "execution panicked: {detail}"),
        }
    }
}

impl Error for EngineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EngineError::Catalog(e) => Some(e),
            EngineError::Datalog(e) => Some(e),
            _ => None,
        }
    }
}

impl EngineError {
    /// The typed error of a caught panic, from its payload.
    pub fn from_panic(payload: &(dyn std::any::Any + Send)) -> Self {
        let detail = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        EngineError::Panicked(detail)
    }
}

impl From<CatalogError> for EngineError {
    fn from(e: CatalogError) -> Self {
        EngineError::Catalog(e)
    }
}

impl From<DatalogError> for EngineError {
    fn from(e: DatalogError) -> Self {
        EngineError::Datalog(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        assert!(EngineError::AccessBudgetExceeded { limit: 7 }
            .to_string()
            .contains('7'));
        let e = EngineError::SourceFailure {
            relation: "r".into(),
            detail: "down".into(),
        };
        assert!(e.to_string().contains("down"));
    }

    #[test]
    fn wraps_sources() {
        let e: EngineError = CatalogError::UnknownRelation("x".into()).into();
        assert!(Error::source(&e).is_some());
    }
}
