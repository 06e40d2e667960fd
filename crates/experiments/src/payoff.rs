//! Empirical payoff curves and the §4.4 Nash-equilibrium search.
//!
//! For a fixed network `(C, RTT, B)` and `n` flows, the paper measures
//! the per-flow throughput of every distribution (`k` challenger flows vs
//! `n − k` CUBIC, for `k = 0..=n`), then checks each distribution for the
//! equilibrium property: no single flow can raise its throughput by
//! switching algorithm. Multiple trials give multiple (possibly
//! different) equilibria — exactly what Fig. 9 plots.

use crate::engine::Engine;
use crate::profile::Profile;
use crate::scenario::{DisciplineSpec, FaultSpec, Scenario, TrialResult};
use bbrdom_cca::CcaKind;
use bbrdom_core::game::symmetric::{SymmetricGame, SymmetricNe};
use std::sync::Arc;

/// Per-distribution payoff measurements for one trial (or averaged).
#[derive(Debug, Clone)]
pub struct PayoffCurves {
    pub n: u32,
    /// Challenger algorithm name (e.g. "bbr").
    pub challenger: String,
    /// `x_per_flow[k]`: challenger per-flow Mbps with `k` challengers
    /// (`k = 0` entry is 0.0 and unused).
    pub x_per_flow: Vec<f64>,
    /// `cubic_per_flow[k]`: CUBIC per-flow Mbps with `k` challengers
    /// (`k = n` entry is 0.0 and unused).
    pub cubic_per_flow: Vec<f64>,
    /// Shared average queuing delay per distribution, ms (Fig. 8b).
    pub queuing_delay_ms: Vec<f64>,
}

impl PayoffCurves {
    /// Fair share of the link per flow, given its capacity in Mbps.
    pub fn fair_share_mbps(mbps: f64, n: u32) -> f64 {
        mbps / n as f64
    }

    /// Convert to the game-theory form (payoffs = Mbps).
    pub fn to_game(&self, epsilon_mbps: f64) -> SymmetricGame {
        SymmetricGame::new(self.n, self.x_per_flow.clone(), self.cubic_per_flow.clone())
            .with_epsilon(epsilon_mbps)
    }

    /// Nash equilibria of this trial's measured game.
    pub fn nash_equilibria(&self, epsilon_mbps: f64) -> Vec<SymmetricNe> {
        self.to_game(epsilon_mbps).nash_equilibria()
    }
}

/// All per-trial curves for one network setting.
#[derive(Debug, Clone)]
pub struct PayoffMeasurement {
    pub mbps: f64,
    pub rtt_ms: f64,
    pub buffer_bdp: f64,
    pub trials: Vec<PayoffCurves>,
}

impl PayoffMeasurement {
    /// Mean curves across trials.
    pub fn mean_curves(&self) -> PayoffCurves {
        let n = self.trials[0].n;
        let t = self.trials.len() as f64;
        let mut x = vec![0.0; n as usize + 1];
        let mut c = vec![0.0; n as usize + 1];
        let mut q = vec![0.0; n as usize + 1];
        for trial in &self.trials {
            for k in 0..=n as usize {
                x[k] += trial.x_per_flow[k] / t;
                c[k] += trial.cubic_per_flow[k] / t;
                q[k] += trial.queuing_delay_ms[k] / t;
            }
        }
        PayoffCurves {
            n,
            challenger: self.trials[0].challenger.clone(),
            x_per_flow: x,
            cubic_per_flow: c,
            queuing_delay_ms: q,
        }
    }

    /// The union of per-trial NE states (number of CUBIC flows), sorted —
    /// the paper's "empirically observed NE" points.
    pub fn observed_ne_cubic_counts(&self, epsilon_mbps: f64) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .trials
            .iter()
            .flat_map(|t| t.nash_equilibria(epsilon_mbps))
            .map(|ne| ne.n_cubic)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Measure payoff curves for every distribution of `n` flows between
/// CUBIC and `challenger` (Fig. 5/7/8/9 workhorse), under a bottleneck
/// discipline and path impairments (`ext-aqm`, `ext-faults`).
///
/// Runs `profile.ne_trials` trials × `n + 1` distributions as one batch
/// on `engine` and reduces to per-trial curves: exactly
/// [`measure_payoffs_at_on`] over every distribution.
#[allow(clippy::too_many_arguments)]
pub fn measure_payoffs(
    engine: &Engine,
    mbps: f64,
    rtt_ms: f64,
    buffer_bdp: f64,
    n: u32,
    challenger: CcaKind,
    profile: &Profile,
    base_seed: u64,
    discipline: DisciplineSpec,
    faults: &FaultSpec,
) -> PayoffMeasurement {
    let ks: Vec<u32> = (0..=n).collect();
    measure_payoffs_at_on(
        engine, mbps, rtt_ms, buffer_bdp, n, &ks, challenger, profile, base_seed, discipline,
        faults,
    )
}

/// The scenario for one distribution cell `(trial, k)` of an NE grid.
///
/// This is the single place the per-cell seed formula lives: every
/// measurement of an NE grid, whole or partial, builds its scenarios
/// here, so a cell is *the same scenario* — same seed, same content
/// hash — whichever call evaluates it, and the engine's cache can serve
/// one to the other.
#[allow(clippy::too_many_arguments)]
pub fn distribution_scenario(
    mbps: f64,
    rtt_ms: f64,
    buffer_bdp: f64,
    n: u32,
    k: u32,
    trial: u32,
    challenger: CcaKind,
    profile: &Profile,
    base_seed: u64,
    discipline: DisciplineSpec,
    faults: &FaultSpec,
) -> Scenario {
    Scenario::versus(
        mbps,
        rtt_ms,
        buffer_bdp,
        n - k,
        challenger,
        k,
        profile.duration_secs,
        base_seed
            .wrapping_add(trial as u64 * 7919)
            .wrapping_add(k as u64 * 104729),
    )
    .with_discipline(discipline)
    .with_faults(faults.clone())
    .with_backend(profile.backend)
    .with_workload(profile.workload)
}

/// Measure payoff curves from arbitrary per-cell scenarios — the
/// multi-bottleneck workhorse (`ext-parkinglot`). `build(k, trial)`
/// returns the cell's scenario; its first `n` flows must be the game's
/// own long flows (`n − k` CUBIC then `k` challengers, the
/// [`Scenario::versus`] order). Any flows after the first `n` are cross
/// traffic: they shape the network but are excluded from the payoffs
/// (the per-flow means use [`TrialResult::mean_throughput_of_first`]).
pub fn measure_payoffs_from(
    engine: &Engine,
    n: u32,
    challenger: CcaKind,
    trials: u32,
    build: impl Fn(u32, u32) -> Scenario,
) -> PayoffMeasurement {
    let trials = trials.max(1);
    let ks: Vec<u32> = (0..=n).collect();
    let mut scenarios = Vec::with_capacity(ks.len() * trials as usize);
    for trial in 0..trials {
        for &k in &ks {
            scenarios.push(build(k, trial));
        }
    }
    let results = engine.run_all(&scenarios);
    PayoffMeasurement {
        mbps: scenarios[0].mbps,
        rtt_ms: scenarios[0].reference_rtt_ms,
        buffer_bdp: scenarios[0].buffer_bdp,
        trials: trial_curves(&results, n, &ks, trials, challenger),
    }
}

/// Measure payoffs at a *subset* `ks` of the distributions;
/// [`measure_payoffs`] passes every `k`. Unevaluated entries of the
/// returned curves are `NaN`, so any consumer that reads a cell the
/// caller never simulated fails loudly instead of treating it as a
/// measured zero.
#[allow(clippy::too_many_arguments)]
pub fn measure_payoffs_at_on(
    engine: &Engine,
    mbps: f64,
    rtt_ms: f64,
    buffer_bdp: f64,
    n: u32,
    ks: &[u32],
    challenger: CcaKind,
    profile: &Profile,
    base_seed: u64,
    discipline: DisciplineSpec,
    faults: &FaultSpec,
) -> PayoffMeasurement {
    let trials = profile.ne_trials.max(1);
    let mut scenarios = Vec::with_capacity(ks.len() * trials as usize);
    for trial in 0..trials {
        for &k in ks {
            debug_assert!(k <= n);
            scenarios.push(distribution_scenario(
                mbps, rtt_ms, buffer_bdp, n, k, trial, challenger, profile, base_seed, discipline,
                faults,
            ));
        }
    }
    let results = engine.run_all(&scenarios);
    PayoffMeasurement {
        mbps,
        rtt_ms,
        buffer_bdp,
        trials: trial_curves(&results, n, ks, trials, challenger),
    }
}

/// Reduce a trial-major batch (`trials` × `ks`) to per-trial curves.
/// Payoffs average over the first `n` flows of each cell, the game's
/// own players: cross traffic appended after them is excluded, and on a
/// [`Scenario::versus`] cell, whose report lists exactly its `n` static
/// flows, this is the plain per-CCA mean. Entries for distributions
/// outside `ks` stay `NaN`.
fn trial_curves(
    results: &[Arc<TrialResult>],
    n: u32,
    ks: &[u32],
    trials: u32,
    challenger: CcaKind,
) -> Vec<PayoffCurves> {
    let challenger_name = challenger.name();
    (0..trials as usize)
        .map(|trial| {
            let mut x = vec![f64::NAN; n as usize + 1];
            let mut c = vec![f64::NAN; n as usize + 1];
            let mut q = vec![f64::NAN; n as usize + 1];
            for (pos, &k) in ks.iter().enumerate() {
                let r = &results[trial * ks.len() + pos];
                x[k as usize] = r
                    .mean_throughput_of_first(n as usize, challenger_name)
                    .unwrap_or(0.0);
                c[k as usize] = r
                    .mean_throughput_of_first(n as usize, "cubic")
                    .unwrap_or(0.0);
                q[k as usize] = r.avg_queuing_delay_ms;
            }
            PayoffCurves {
                n,
                challenger: challenger_name.to_string(),
                x_per_flow: x,
                cubic_per_flow: c,
                queuing_delay_ms: q,
            }
        })
        .collect()
}

/// Default NE tolerance: switches must gain more than 2% of fair share
/// to count (absorbs simulation noise, as the paper's multiple-NE
/// observation implies).
pub fn default_epsilon_mbps(mbps: f64, n: u32) -> f64 {
    0.02 * mbps / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_engine;

    fn tiny_measurement() -> PayoffMeasurement {
        // 4 flows, smoke profile: fast but end-to-end real.
        let profile = Profile::smoke();
        measure_payoffs(
            &crate::engine::test_engine(),
            20.0,
            20.0,
            2.0,
            4,
            CcaKind::Bbr,
            &profile,
            99,
            DisciplineSpec::DropTail,
            &FaultSpec::default(),
        )
    }

    /// The shared reduction averages over the first `n` flows. On a
    /// versus cell that is bit for bit the all-flow mean, even under
    /// churn: a report lists only the static flows, never workload ones.
    #[test]
    fn first_n_mean_is_the_plain_mean_on_versus_cells() {
        let r = Scenario::versus(10.0, 20.0, 2.0, 2, CcaKind::Bbr, 2, 3.0, 5)
            .with_workload(Some(crate::scenario::WorkloadSpec::poisson_fixed(
                CcaKind::Cubic,
                20.0,
                30_000,
                20.0,
            )))
            .run();
        assert!(r.workload_spawned > 0);
        assert_eq!(r.cc_names.len(), 4);
        for name in ["bbr", "cubic"] {
            assert_eq!(
                r.mean_throughput_of_first(4, name).map(f64::to_bits),
                r.mean_throughput_of(name).map(f64::to_bits),
            );
        }
    }

    #[test]
    fn curves_have_expected_shape_and_bounds() {
        let m = tiny_measurement();
        assert_eq!(m.trials.len(), 1);
        let c = &m.trials[0];
        assert_eq!(c.x_per_flow.len(), 5);
        // All-BBR state: per-flow ≈ fair share (20/4 = 5 Mbps).
        let all_bbr = c.x_per_flow[4];
        assert!((all_bbr - 5.0).abs() < 2.0, "all-BBR per-flow={all_bbr}");
        // Physicality: nothing exceeds the link.
        for k in 1..=4usize {
            assert!(c.x_per_flow[k] > 0.0 && c.x_per_flow[k] < 21.0);
        }
        for k in 0..4usize {
            assert!(c.cubic_per_flow[k] > 0.0 && c.cubic_per_flow[k] < 21.0);
        }
    }

    #[test]
    fn mean_curves_average_trials() {
        let mut m = tiny_measurement();
        // Duplicate the trial with doubled values; mean must be 1.5×.
        let mut t2 = m.trials[0].clone();
        for v in &mut t2.x_per_flow {
            *v *= 2.0;
        }
        for v in &mut t2.cubic_per_flow {
            *v *= 2.0;
        }
        for v in &mut t2.queuing_delay_ms {
            *v *= 2.0;
        }
        m.trials.push(t2);
        let mean = m.mean_curves();
        let orig = &m.trials[0];
        for k in 0..=4usize {
            assert!((mean.x_per_flow[k] - 1.5 * orig.x_per_flow[k]).abs() < 1e-9);
        }
    }

    #[test]
    fn ne_search_returns_some_distribution() {
        let m = tiny_measurement();
        let eps = default_epsilon_mbps(20.0, 4);
        let ne = m.observed_ne_cubic_counts(eps);
        assert!(
            !ne.is_empty(),
            "at least one NE must exist (finite game with symmetric states along a line)"
        );
        for &c in &ne {
            assert!(c <= 4);
        }
    }

    /// `measure_payoffs` (the dense path) and a subset measurement on a
    /// separate engine agree cell for cell — one seed formula.
    #[test]
    fn dense_grid_uses_the_shared_cell_builder() {
        let profile = Profile::smoke();
        let dense = measure_payoffs(
            &test_engine(),
            20.0,
            20.0,
            2.0,
            4,
            CcaKind::Bbr,
            &profile,
            7,
            DisciplineSpec::DropTail,
            &FaultSpec::default(),
        );
        let subset = measure_payoffs_at_on(
            &test_engine(),
            20.0,
            20.0,
            2.0,
            4,
            &[1, 2, 3],
            CcaKind::Bbr,
            &profile,
            7,
            DisciplineSpec::DropTail,
            &FaultSpec::default(),
        );
        for k in 1..=3usize {
            assert_eq!(
                dense.trials[0].x_per_flow[k], subset.trials[0].x_per_flow[k],
                "cell k={k} differs between dense and subset measurement"
            );
            assert_eq!(
                dense.trials[0].cubic_per_flow[k],
                subset.trials[0].cubic_per_flow[k]
            );
        }
        assert!(subset.trials[0].x_per_flow[0].is_nan());
        assert!(subset.trials[0].x_per_flow[4].is_nan());
    }
}
