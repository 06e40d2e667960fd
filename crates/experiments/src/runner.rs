//! Parallel scenario execution — the public façade over the
//! [`crate::engine`] worker-pool/cache engine.
//!
//! Simulations are CPU-bound and independent, so batches fan out over a
//! fixed pool of OS threads (per the networking guides: an async runtime
//! buys nothing for compute-bound work). Results come back in input
//! order regardless of completion order, and — because every simulation
//! is a pure function of its [`Scenario`] — a parallel run is
//! bit-identical to a serial one. Pool size comes from `--jobs` /
//! `BBRDOM_JOBS` / the machine's parallelism; identical and previously
//! seen scenarios are served from the engine's content-addressed result
//! cache instead of being re-simulated.
//!
//! Two interfaces:
//!
//! * [`run_all`] — strict: a failing scenario panics, naming the lowest
//!   failing index (figure sweeps, where any failure is a bug);
//! * [`run_sweep`] — fail-soft and resumable: failures become structured
//!   [`TrialOutcome::Failed`] records and budgets guard against livelock.
//!   Resume is a rerun against the same cache directory: the result
//!   store and the disk cache answer every trial that finished.

use crate::engine::Engine;
use crate::scenario::{Scenario, TrialResult};
use std::any::Any;

/// Number of worker threads to use by default.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Render a caught panic payload the way `panic!` would display it.
pub(crate) fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Run all scenarios, in parallel, returning results in input order.
///
/// # Panics
///
/// If any scenario fails, re-raises the first (lowest-index) failure as
/// `"scenario <i> failed: <error>"`.
pub fn run_all(scenarios: &[Scenario]) -> Vec<TrialResult> {
    Engine::global().run_all(scenarios)
}

/// Run with an explicit worker count (tests use specific counts to pin
/// determinism; results are order-stable and bit-identical regardless).
pub fn run_all_with_workers(scenarios: &[Scenario], workers: usize) -> Vec<TrialResult> {
    Engine::global().run_all_jobs(scenarios, workers)
}

/// Convenience: run `trials` seeds of a scenario template and return the
/// per-seed results. `make` receives the seed.
pub fn run_trials<F>(trials: u32, make: F) -> Vec<TrialResult>
where
    F: Fn(u64) -> Scenario,
{
    let scenarios: Vec<Scenario> = (0..trials as u64).map(make).collect();
    run_all(&scenarios)
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

/// Configuration for a fail-soft sweep ([`run_sweep`]).
#[derive(Debug, Clone, Default)]
pub struct SweepConfig {
    /// Worker threads (`None` = the engine's configured `--jobs`).
    pub jobs: Option<usize>,
    /// Per-scenario event budget (livelock guard; `None` = unlimited).
    pub event_budget: Option<u64>,
    /// Per-scenario wall-clock budget (`None` = unlimited).
    pub wall_budget: Option<std::time::Duration>,
}

/// Run all scenarios fail-soft: one panicking, livelocked, or invalid
/// scenario becomes a structured [`TrialOutcome::Failed`] while the rest
/// of the sweep completes. Outcomes come back in input order.
///
/// Resuming is rerunning: with a disk cache configured, every finished
/// success is cached (and, with the result store on, indexed in strict
/// index order), so a rerun of the same sweep serves those trials
/// without simulating and runs only the rest. Failures are never served
/// from the cache; they run again, so a raised budget takes effect. The
/// only sweep-level errors are supervised bring-up failures (an
/// unwritable state dir, an unspawnable worker), reported as a typed
/// [`ConfigError::Io`](bbrdom_netsim::ConfigError::Io) — per-trial
/// failures stay fail-soft inside the `Ok` outcome vector.
pub fn run_sweep(
    scenarios: &[Scenario],
    config: &SweepConfig,
) -> Result<Vec<TrialOutcome>, bbrdom_netsim::ConfigError> {
    Engine::global().run_sweep(scenarios, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbrdom_cca::CcaKind;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn tiny(seed: u64) -> Scenario {
        Scenario::versus(10.0, 20.0, 2.0, 1, CcaKind::Bbr, 1, 3.0, seed)
    }

    #[test]
    fn results_are_in_input_order() {
        let scenarios: Vec<Scenario> = (0..6).map(tiny).collect();
        let parallel = run_all_with_workers(&scenarios, 4);
        let serial: Vec<_> = scenarios.iter().map(|s| s.run()).collect();
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(p.throughput_mbps, s.throughput_mbps);
        }
    }

    #[test]
    fn single_worker_works() {
        let scenarios: Vec<Scenario> = (0..3).map(tiny).collect();
        let results = run_all_with_workers(&scenarios, 1);
        assert_eq!(results.len(), 3);
    }

    #[test]
    fn run_trials_uses_distinct_seeds() {
        let results = run_trials(3, tiny);
        assert_eq!(results.len(), 3);
        assert_ne!(results[0].throughput_mbps, results[1].throughput_mbps);
    }

    #[test]
    fn empty_input_is_fine() {
        let results = run_all(&[]);
        assert!(results.is_empty());
    }

    #[test]
    fn worker_failure_reports_scenario_index_and_message() {
        // Scenario 1 has no flows: the engine surfaces the validation
        // error, tagged with the failing index.
        let mut scenarios: Vec<Scenario> = (0..3).map(tiny).collect();
        scenarios[1].flows.clear();
        let caught = catch_unwind(AssertUnwindSafe(|| run_all_with_workers(&scenarios, 2)))
            .expect_err("sweep with a failing scenario must panic");
        let msg = payload_message(&*caught);
        assert!(
            msg.contains("scenario 1") && msg.contains("no flows"),
            "unhelpful panic message: {msg}"
        );
    }

    #[test]
    fn earliest_failing_scenario_wins() {
        let mut scenarios: Vec<Scenario> = (0..4).map(tiny).collect();
        scenarios[0].flows.clear();
        scenarios[2].flows.clear();
        let caught = catch_unwind(AssertUnwindSafe(|| run_all_with_workers(&scenarios, 4)))
            .expect_err("sweep must panic");
        let msg = payload_message(&*caught);
        assert!(
            msg.contains("scenario 0"),
            "expected scenario 0 first: {msg}"
        );
    }

    #[test]
    fn sweep_survives_a_failing_scenario() {
        // Scenario 1 is invalid (no flows): the sweep must record a
        // structured failure at index 1 and still run the other two.
        let mut scenarios: Vec<Scenario> = (0..3).map(tiny).collect();
        scenarios[1].flows.clear();
        let cfg = SweepConfig {
            jobs: Some(2),
            ..SweepConfig::default()
        };
        let outcomes = run_sweep(&scenarios, &cfg).expect("sweep runs");
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[0].ok().is_some());
        assert!(outcomes[2].ok().is_some());
        let failure = outcomes[1].failure().expect("scenario 1 must fail");
        assert_eq!(failure.index, 1);
        assert!(
            failure.error.contains("no flows"),
            "unhelpful error: {}",
            failure.error
        );
        assert!(failure.context.contains("0 flows"));
    }

    #[test]
    fn sweep_event_budget_fails_soft() {
        // 1000 events is far too few for a 3-second trial: the budget
        // trips and is reported as a structured failure, not a panic.
        let scenarios: Vec<Scenario> = (0..2).map(tiny).collect();
        let cfg = SweepConfig {
            jobs: Some(2),
            event_budget: Some(1_000),
            ..SweepConfig::default()
        };
        let outcomes = run_sweep(&scenarios, &cfg).expect("sweep runs");
        for o in &outcomes {
            let f = o.failure().expect("budget must trip");
            assert!(
                f.error.contains("event budget"),
                "unhelpful error: {}",
                f.error
            );
        }
    }
}
