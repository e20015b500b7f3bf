//! Error type shared by the core crate.

use std::fmt;

/// Errors raised by CP-network, document, and presentation operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// A variable id does not exist in the network.
    UnknownVariable(u32),
    /// A value index is outside the variable's domain.
    ValueOutOfRange {
        /// The offending variable.
        var: u32,
        /// The out-of-range value index.
        value: u16,
        /// The size of the variable's domain.
        domain: usize,
    },
    /// A variable domain was empty or exceeded the supported size.
    BadDomain(String),
    /// Setting the requested parent set would create a directed cycle.
    CycleDetected(String),
    /// A conditional preference table row is not a permutation of the domain.
    BadRanking(String),
    /// The network failed validation (message describes the first failure).
    Invalid(String),
    /// A parent assignment did not cover exactly the parent set.
    BadParentAssignment(String),
    /// A component id does not exist in the document.
    UnknownComponent(u32),
    /// A document-structure invariant was violated.
    BadStructure(String),
    /// An online update was rejected by the update policy.
    UpdateRejected(String),
    /// Persistence: the byte stream could not be decoded.
    Codec(String),
    /// The dominance query exceeded its node budget without an answer.
    SearchBudgetExhausted,
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnknownVariable(v) => write!(f, "unknown variable id {v}"),
            CoreError::ValueOutOfRange { var, value, domain } => write!(
                f,
                "value {value} out of range for variable {var} (domain size {domain})"
            ),
            CoreError::BadDomain(m) => write!(f, "bad domain: {m}"),
            CoreError::CycleDetected(m) => write!(f, "cycle detected: {m}"),
            CoreError::BadRanking(m) => write!(f, "bad ranking: {m}"),
            CoreError::Invalid(m) => write!(f, "invalid network: {m}"),
            CoreError::BadParentAssignment(m) => write!(f, "bad parent assignment: {m}"),
            CoreError::UnknownComponent(c) => write!(f, "unknown component id {c}"),
            CoreError::BadStructure(m) => write!(f, "bad document structure: {m}"),
            CoreError::UpdateRejected(m) => write!(f, "update rejected: {m}"),
            CoreError::Codec(m) => write!(f, "codec error: {m}"),
            CoreError::SearchBudgetExhausted => write!(f, "dominance search budget exhausted"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<rcmo_obs::wire::WireError> for CoreError {
    fn from(e: rcmo_obs::wire::WireError) -> Self {
        CoreError::Codec(e.to_string())
    }
}

/// Convenient result alias for the core crate.
pub type Result<T> = std::result::Result<T, CoreError>;
