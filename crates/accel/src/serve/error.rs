//! Errors of the serving layer.

use std::fmt;

use topick_core::CoreError;

/// Errors of the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// A request had a zero prompt or zero token target.
    InvalidRequest(&'static str),
    /// Requests are queued but the admission limits can never admit the
    /// next one (e.g. `max_batch` is zero), so no progress is possible.
    AdmissionStalled {
        /// Requests stuck in the queue.
        pending: usize,
    },
    /// The workload did not finish within the step limit.
    StepLimitExceeded {
        /// The configured limit.
        max_steps: usize,
        /// Requests still unfinished when it was hit.
        unfinished: usize,
    },
    /// A configured value makes a step's cycle count overflow `u64`.
    CycleOverflow {
        /// The [`ServingConfig`](super::ServingConfig) field at fault.
        field: &'static str,
    },
    /// An attention simulation failed.
    Core(CoreError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidRequest(why) => write!(f, "invalid request: {why}"),
            Self::AdmissionStalled { pending } => write!(
                f,
                "admission stalled: {pending} queued request(s) can never be admitted \
                 under the configured batch limits"
            ),
            Self::StepLimitExceeded {
                max_steps,
                unfinished,
            } => write!(
                f,
                "workload incomplete after {max_steps} steps ({unfinished} requests left)"
            ),
            Self::CycleOverflow { field } => {
                write!(f, "'{field}' is too large: a step's cycles overflow u64")
            }
            Self::Core(e) => write!(f, "attention simulation failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        Self::Core(e)
    }
}
