//! The one error type every pipeline stage resolves to.
//!
//! Each layer of the flow keeps its own structured error — parse
//! diagnostics carry spans, estimation errors carry PUM context, platform
//! errors name the offending element — and all of them convert into
//! [`PipelineError`] via `From`, so drivers match on one type instead of
//! stringifying at every boundary.

use std::error::Error;
use std::fmt;

use tlm_cdfg::lower::LowerError;
use tlm_core::store::StoreError;
use tlm_core::EstimateError;
use tlm_minic::ParseError;
use tlm_platform::desc::PlatformError;

/// Any failure along `Source → … → Report`.
///
/// Clones cheaply: pipeline stages cache *deterministic* failures exactly
/// like successes (the same inputs deterministically fail the same way),
/// so the error must be replayable to later demanders. Transient failures
/// ([`PipelineError::Transient`]) are the exception: they are never
/// cached — see [`PipelineError::is_deterministic`].
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// MiniC source does not parse.
    Parse(ParseError),
    /// The AST does not lower to a CDFG.
    Lower(LowerError),
    /// Estimation (Algorithm 1/2 or PUM validation) failed.
    Estimate(EstimateError),
    /// Platform construction or decoding failed.
    Platform(PlatformError),
    /// A transient, environment-dependent failure — an injected fault, an
    /// I/O hiccup, resource pressure. Retrying the same inputs may well
    /// succeed, so a stage must **not** cache it: caching would poison the
    /// slot forever (the store tests in `tlm_core::store` lock this down).
    Transient(String),
}

impl PipelineError {
    /// Wraps a transient (retryable, never-cached) failure message.
    pub fn transient(message: impl Into<String>) -> PipelineError {
        PipelineError::Transient(message.into())
    }

    /// Whether the failure is a deterministic property of the inputs.
    ///
    /// Deterministic failures (parse, lower, estimate, platform) are
    /// cached like successes — re-running could not change them.
    /// Non-deterministic ones must be recomputed on the next demand.
    pub fn is_deterministic(&self) -> bool {
        !matches!(self, PipelineError::Transient(_))
    }
}

impl StoreError for PipelineError {
    fn is_deterministic(&self) -> bool {
        PipelineError::is_deterministic(self)
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Parse(e) => write!(f, "source does not parse: {e}"),
            PipelineError::Lower(e) => write!(f, "source does not lower: {e}"),
            PipelineError::Estimate(e) => e.fmt(f),
            PipelineError::Platform(e) => e.fmt(f),
            PipelineError::Transient(msg) => write!(f, "transient failure (retryable): {msg}"),
        }
    }
}

impl Error for PipelineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PipelineError::Parse(e) => Some(e),
            PipelineError::Lower(e) => Some(e),
            PipelineError::Estimate(e) => Some(e),
            PipelineError::Platform(e) => Some(e),
            PipelineError::Transient(_) => None,
        }
    }
}

impl From<ParseError> for PipelineError {
    fn from(e: ParseError) -> Self {
        PipelineError::Parse(e)
    }
}

impl From<LowerError> for PipelineError {
    fn from(e: LowerError) -> Self {
        PipelineError::Lower(e)
    }
}

impl From<EstimateError> for PipelineError {
    fn from(e: EstimateError) -> Self {
        PipelineError::Estimate(e)
    }
}

impl From<PlatformError> for PipelineError {
    fn from(e: PlatformError) -> Self {
        PipelineError::Platform(e)
    }
}
