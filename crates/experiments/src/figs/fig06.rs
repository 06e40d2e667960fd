//! Fig. 6 — the Nash-equilibrium crossing construction.
//!
//! The paper's Fig. 6 is a schematic: BBR's per-flow bandwidth declines
//! from point A (few BBR flows, above fair share) to point B (all BBR,
//! exactly fair share); where the line crosses the fair-share line is
//! the stable equilibrium C. We regenerate it with real numbers: the
//! model's per-distribution curve, the fair-share line, and the measured
//! curve from the simulator, plus the switch-incentive at each state
//! (positive left of the crossing, negative right of it).

use super::FigResult;
use crate::engine::Engine;
use crate::output::Table;
use crate::payoff::{default_epsilon_mbps, measure_payoffs};
use crate::profile::Profile;
use crate::scenario::{DisciplineSpec, FaultSpec};
use bbrdom_cca::CcaKind;
use bbrdom_core::model::multi_flow::SyncMode;
use bbrdom_core::model::nash::NashPredictor;

pub const MBPS: f64 = 100.0;
pub const RTT_MS: f64 = 40.0;
pub const BUFFER_BDP: f64 = 3.0;
pub const N: u32 = 10;

pub fn run(engine: &Engine, profile: &Profile) -> FigResult {
    let n = N.min(profile.ne_flows);
    let predictor = NashPredictor::from_paper_units(MBPS, RTT_MS, BUFFER_BDP, n);
    let fair = predictor.fair_share() * 8.0 / 1e6;

    let mut table = Table::new(
        format!("Fig 6: NE construction, {n} flows, {MBPS} Mbps, {BUFFER_BDP} BDP"),
        &[
            "n_bbr",
            "model_bbr_per_flow_mbps",
            "measured_bbr_per_flow_mbps",
            "fair_share_mbps",
            "switch_incentive_mbps",
        ],
    );

    let mut p = *profile;
    p.ne_trials = profile.trials;
    let measured = measure_payoffs(
        engine,
        MBPS,
        RTT_MS,
        BUFFER_BDP,
        n,
        CcaKind::Bbr,
        &p,
        0x0606,
        DisciplineSpec::DropTail,
        &FaultSpec::default(),
    );
    let curves = measured.mean_curves();

    let model_curve = predictor
        .distribution_curve(SyncMode::Synchronized)
        .unwrap_or_default();

    for k in 1..=n {
        let model = model_curve
            .iter()
            .find(|(nb, _)| *nb == k)
            .map(|(_, bw)| bw * 8.0 / 1e6)
            .unwrap_or(f64::NAN);
        let meas = curves.x_per_flow[k as usize];
        // Incentive for a CUBIC flow at state k−1 to become the k-th BBR
        // flow: bbr(k) − cubic(k−1).
        let incentive = meas - curves.cubic_per_flow[(k - 1) as usize];
        table.push_floats(&[k as f64, model, meas, fair, incentive]);
    }

    let ne_pred = predictor
        .predict(SyncMode::Synchronized)
        .map(|ne| ne.n_bbr)
        .unwrap_or(f64::NAN);
    let eps = default_epsilon_mbps(MBPS, n);
    let observed = measured.observed_ne_cubic_counts(eps);

    FigResult {
        id: "fig06",
        tables: vec![table],
        notes: vec![
            format!("model NE crossing at n_bbr ≈ {ne_pred:.2} (point C)"),
            format!(
                "empirical NE states (as #CUBIC): {:?} out of {n} flows",
                observed
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_has_rows_for_every_bbr_count() {
        let r = run(&crate::engine::test_engine(), &Profile::smoke());
        // n is clamped to the profile's ne_flows.
        let n = N.min(Profile::smoke().ne_flows);
        assert_eq!(r.tables[0].rows.len(), n as usize);
    }
}
