//! The sweep types of the fail-soft batch interface
//! [`Engine::run_sweep`](crate::Engine::run_sweep): its configuration
//! ([`SweepConfig`]), the per-trial [`TrialOutcome`] and
//! [`TrialFailure`] records, and [`payload_message`], which renders a
//! caught panic for those records.

use crate::scenario::TrialResult;
use std::any::Any;

/// Render a caught panic payload the way `panic!` would display it.
pub fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Structured failure record for one trial in a fail-soft sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialFailure {
    /// Index of the failing scenario in the sweep's input order.
    pub index: usize,
    /// The error (panic message, budget trip, or audit violation).
    pub error: String,
    /// Human-readable scenario summary for the report.
    pub context: String,
}

/// The fail-soft result of one trial: the measurement, or a structured
/// failure that the rest of the sweep survived.
#[derive(Debug, Clone)]
pub enum TrialOutcome {
    Ok(TrialResult),
    Failed(TrialFailure),
}

impl TrialOutcome {
    /// The result, if the trial succeeded.
    pub fn ok(&self) -> Option<&TrialResult> {
        match self {
            TrialOutcome::Ok(r) => Some(r),
            TrialOutcome::Failed(_) => None,
        }
    }

    /// The failure, if the trial failed.
    pub fn failure(&self) -> Option<&TrialFailure> {
        match self {
            TrialOutcome::Ok(_) => None,
            TrialOutcome::Failed(f) => Some(f),
        }
    }
}

/// Configuration for a fail-soft sweep
/// ([`Engine::run_sweep`](crate::Engine::run_sweep)).
#[derive(Debug, Clone, Default)]
pub struct SweepConfig {
    /// Worker threads (`None` = the engine's configured pool size).
    pub jobs: Option<usize>,
    /// Per-scenario event budget (livelock guard; `None` = unlimited).
    pub event_budget: Option<u64>,
    /// Per-scenario wall-clock budget (`None` = unlimited).
    pub wall_budget: Option<std::time::Duration>,
}
