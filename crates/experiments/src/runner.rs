//! The sweep types of the fail-soft batch interface
//! [`Engine::run_sweep`](crate::Engine::run_sweep): the per-trial
//! [`TrialOutcome`] and [`TrialFailure`] records, [`payload_message`],
//! which renders a caught panic for those records, and the empty
//! [`SweepConfig`] placeholder. Every trial takes one path: build, run
//! to the scenario's horizon, reduce.

use crate::scenario::TrialResult;
use std::any::Any;
use std::sync::Arc;

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
    /// The error (panic message, invalid configuration, or audit
    /// violation).
    pub error: String,
    /// Human-readable scenario summary for the report.
    pub context: String,
}

/// The fail-soft result of one trial: the measurement, or a structured
/// failure that the rest of the sweep survived. A measurement is shared,
/// not copied: the engine's memo, the result store's entry and every
/// outcome that served it point at one allocation.
#[derive(Debug, Clone)]
pub enum TrialOutcome {
    Ok(Arc<TrialResult>),
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

/// A placeholder that selects nothing: a sweep has no options, and the
/// engine's [`EngineConfig::jobs`](crate::EngineConfig::jobs) sizes its
/// pool. It stays only because e2ebench calls
/// `run_sweep(&all, &SweepConfig)`; the benchmark-only change
/// (ROADMAP, "One benchmark-only change") deletes it.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepConfig;
