//! Quick vs. full reproduction profiles.
//!
//! The paper's experiments run 2-minute flows with 10 trials per
//! configuration on a testbed. A faithful rerun of every figure at that
//! scale is hours of simulation; the default **quick** profile preserves
//! every experimental *shape* while thinning durations, trial counts and
//! sweep grids so `repro all` completes in minutes. `--full` restores
//! the paper-scale parameters.

/// Global experiment sizing knobs.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// Flow duration, seconds (paper: 120).
    pub duration_secs: f64,
    /// Trials per configuration (paper: 10).
    pub trials: u32,
    /// Maximum number of buffer points per sweep.
    pub buffer_points: usize,
    /// Flow-count scale for the big NE searches: the paper's Fig. 9 uses
    /// 50 flows; quick mode uses 20 (the paper itself notes 25-flow runs
    /// show the same trends).
    pub ne_flows: u32,
    /// Trials for NE searches (cheaper per-point grids).
    pub ne_trials: u32,
    /// Forward-path (data) random wire-loss probability applied to every
    /// scenario (`repro --loss`; the paper's testbed is clean, so 0).
    pub loss: f64,
    /// Reverse-path (ACK) random wire-loss probability (`repro --ack-loss`).
    pub ack_loss: f64,
    /// Convergence-aware early termination (`repro --early-stop`):
    /// `(epsilon, dwell)` for the per-flow steady-state detector, `None`
    /// for fixed-horizon runs (the bit-identical default).
    pub early_stop: Option<(f64, u32)>,
    /// Which simulation backend runs the scenarios (`repro --backend`):
    /// the packet DES (default, ground truth) or the fluid/ODE model
    /// (µs-scale, envelope-restricted; see `bbrdom-fluid`).
    pub backend: crate::scenario::BackendSpec,
    /// Open-loop background workload attached to every scenario
    /// (`repro --workload`): finite flows arriving during each run,
    /// reported as per-CCA FCT percentiles. `None` (the default) keeps
    /// every experiment bit-identical to historical behavior.
    pub workload: Option<crate::scenario::WorkloadSpec>,
    /// Bottleneck count of the `ext-parkinglot` chain (`repro
    /// --parkinglot-hops`).
    pub parkinglot_hops: u32,
}

impl Profile {
    /// Paper-scale reproduction.
    pub fn full() -> Self {
        Profile {
            duration_secs: 120.0,
            trials: 10,
            buffer_points: 60,
            ne_flows: 50,
            ne_trials: 3,
            loss: 0.0,
            ack_loss: 0.0,
            early_stop: None,
            backend: crate::scenario::BackendSpec::Des,
            workload: None,
            parkinglot_hops: 3,
        }
    }

    /// Laptop-scale reproduction (default).
    pub fn quick() -> Self {
        Profile {
            duration_secs: 30.0,
            trials: 3,
            buffer_points: 12,
            ne_flows: 20,
            ne_trials: 1,
            loss: 0.0,
            ack_loss: 0.0,
            early_stop: None,
            backend: crate::scenario::BackendSpec::Des,
            workload: None,
            parkinglot_hops: 3,
        }
    }

    /// Even smaller: used by `cargo test`/`cargo bench` so the harness
    /// code paths are exercised end-to-end in seconds.
    pub fn smoke() -> Self {
        Profile {
            duration_secs: 8.0,
            trials: 1,
            buffer_points: 4,
            ne_flows: 6,
            ne_trials: 1,
            loss: 0.0,
            ack_loss: 0.0,
            early_stop: None,
            backend: crate::scenario::BackendSpec::Des,
            workload: None,
            parkinglot_hops: 2,
        }
    }

    /// Attach the profile's open-loop workload (`--workload`), if any,
    /// to every scenario of a figure batch. A no-op for the default
    /// `workload: None`, so historical figures stay bit-identical.
    /// Scenarios that already carry a workload (e.g. `ext-churn`'s own
    /// grid) are left alone.
    pub fn apply_workload(&self, scenarios: &mut [crate::scenario::Scenario]) {
        if let Some(wl) = self.workload {
            for s in scenarios.iter_mut() {
                s.workload.get_or_insert(wl);
            }
        }
    }

    /// The [`crate::scenario::FaultSpec`] implied by the profile's
    /// `--loss`/`--ack-loss` impairments (no-op for the clean default).
    pub fn fault_spec(&self) -> crate::scenario::FaultSpec {
        crate::scenario::FaultSpec {
            loss_fwd: self.loss,
            loss_ack: self.ack_loss,
            ..Default::default()
        }
    }

    /// Thin `points` down to at most `self.buffer_points`, always keeping
    /// the first and last.
    pub fn thin(&self, points: Vec<f64>) -> Vec<f64> {
        if points.len() <= self.buffer_points || self.buffer_points < 2 {
            return points;
        }
        let n = points.len();
        let m = self.buffer_points;
        (0..m).map(|i| points[i * (n - 1) / (m - 1)]).collect()
    }
}

impl Default for Profile {
    fn default() -> Self {
        Profile::quick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_workload_fills_only_bare_scenarios() {
        use crate::scenario::{Scenario, WorkloadSpec};
        use bbrdom_cca::CcaKind;

        let own = WorkloadSpec::web(CcaKind::Bbr, 10.0, 15.0);
        let mut scenarios = vec![
            Scenario::versus(50.0, 40.0, 4.0, 1, CcaKind::Bbr, 1, 10.0, 1),
            Scenario::versus(50.0, 40.0, 4.0, 1, CcaKind::Bbr, 1, 10.0, 2).with_workload(Some(own)),
        ];

        let quiet = Profile::smoke();
        quiet.apply_workload(&mut scenarios);
        assert_eq!(scenarios[0].workload, None);

        let mut churned = Profile::smoke();
        let flag = WorkloadSpec::web(CcaKind::Cubic, 80.0, 20.0);
        churned.workload = Some(flag);
        churned.apply_workload(&mut scenarios);
        assert_eq!(scenarios[0].workload, Some(flag));
        // A scenario that already carries its own workload keeps it.
        assert_eq!(scenarios[1].workload, Some(own));
    }

    #[test]
    fn thinning_keeps_endpoints() {
        let p = Profile {
            buffer_points: 5,
            ..Profile::quick()
        };
        let pts: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let thinned = p.thin(pts);
        assert_eq!(thinned.len(), 5);
        assert_eq!(thinned[0], 0.0);
        assert_eq!(*thinned.last().unwrap(), 29.0);
    }

    #[test]
    fn thinning_noop_when_short() {
        let p = Profile::quick();
        let pts = vec![1.0, 2.0, 3.0];
        assert_eq!(p.thin(pts.clone()), pts);
    }

    #[test]
    fn profiles_are_ordered_by_cost() {
        let f = Profile::full();
        let q = Profile::quick();
        let s = Profile::smoke();
        assert!(f.duration_secs > q.duration_secs);
        assert!(q.duration_secs > s.duration_secs);
        assert!(f.trials >= q.trials && q.trials >= s.trials);
    }
}
