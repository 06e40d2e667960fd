//! Fig. 3a–d — our 2-flow model vs. Ware et al. vs. actual throughput.
//!
//! Paper setup: one CUBIC vs. one BBR flow; panels (a)–(d) are the four
//! combinations of {50, 100} Mbps × {40, 80} ms; buffer swept 1–30 BDP
//! in 0.5-BDP steps. Headline claim: the new model is within ~5% of the
//! measured BBR throughput over this range, while Ware et al. err ≥30%
//! in shallow buffers.

use super::FigResult;
use crate::engine::Engine;
use crate::output::{mean, Table};
use crate::profile::Profile;
use crate::scenario::Scenario;
use bbrdom_cca::CcaKind;
use bbrdom_core::model::two_flow::TwoFlowModel;
use bbrdom_core::model::ware::WareModel;
use bbrdom_core::model::LinkParams;

/// The four panels: (mbps, rtt_ms).
pub const PANELS: [(f64, f64); 4] = [(50.0, 40.0), (50.0, 80.0), (100.0, 40.0), (100.0, 80.0)];

pub fn buffer_sweep(profile: &Profile) -> Vec<f64> {
    let full: Vec<f64> = (2..=60).map(|i| i as f64 * 0.5).collect();
    profile.thin(full)
}

/// Data for one panel; exposed so benches/tests can run a single panel.
pub fn run_panel(engine: &Engine, mbps: f64, rtt_ms: f64, profile: &Profile) -> (Table, f64) {
    let buffers = buffer_sweep(profile);
    let mut table = Table::new(
        format!("Fig 3: model vs actual, {mbps} Mbps, {rtt_ms} ms"),
        &[
            "buffer_bdp",
            "ware_mbps",
            "our_model_mbps",
            "actual_bbr_mbps",
            "model_rel_err",
        ],
    );
    let mut scenarios = Vec::new();
    for &b in &buffers {
        for t in 0..profile.trials {
            scenarios.push(Scenario::versus(
                mbps,
                rtt_ms,
                b,
                1,
                CcaKind::Bbr,
                1,
                profile.duration_secs,
                0x0303_0000
                    + (mbps as u64) * 17
                    + (rtt_ms as u64) * 29
                    + t as u64 * 131
                    + (b * 10.0) as u64,
            ));
        }
    }
    profile.apply_workload(&mut scenarios);
    let results = engine.run_all(&scenarios);
    let mut errs = Vec::new();
    for (bi, &b) in buffers.iter().enumerate() {
        let trials: Vec<f64> = (0..profile.trials as usize)
            .map(|t| {
                results[bi * profile.trials as usize + t]
                    .mean_throughput_of("bbr")
                    .unwrap_or(0.0)
            })
            .collect();
        let actual = mean(&trials);
        let ours = TwoFlowModel::from_paper_units(mbps, rtt_ms, b)
            .solve()
            .map(|p| p.bbr_mbps())
            .unwrap_or(f64::NAN);
        let ware = WareModel::new(
            LinkParams::from_paper_units(mbps, rtt_ms, b),
            1,
            profile.duration_secs,
        )
        .predict()
        .map(|p| p.bbr_mbps())
        .unwrap_or(f64::NAN);
        let rel = if actual > 0.5 {
            (ours - actual).abs() / actual
        } else {
            f64::NAN
        };
        if rel.is_finite() {
            errs.push(rel);
        }
        table.push_floats(&[b, ware, ours, actual, rel]);
    }
    (table, mean(&errs))
}

pub fn run(engine: &Engine, profile: &Profile) -> FigResult {
    let mut tables = Vec::new();
    let mut notes = Vec::new();
    for (mbps, rtt_ms) in PANELS {
        let (table, mean_err) = run_panel(engine, mbps, rtt_ms, profile);
        // Deep buffers need runs much longer than one CUBIC epoch
        // (K ≈ 25 s at 30 BDP/80 ms) to reach steady state; short-profile
        // errors there measure the transient, not the model. Report the
        // shallow range separately.
        let shallow: Vec<f64> = table
            .rows
            .iter()
            .filter(|r| r[0].parse::<f64>().unwrap_or(99.0) <= 8.0)
            .filter_map(|r| r[4].parse::<f64>().ok())
            .filter(|e| e.is_finite())
            .collect();
        let shallow_err = crate::output::mean(&shallow);
        notes.push(format!(
            "{mbps} Mbps/{rtt_ms} ms: mean |model error| = {:.1}% overall, {:.1}% for ≤8 BDP              (deep-buffer error at short durations is CUBIC's convergence transient)",
            mean_err * 100.0,
            shallow_err * 100.0
        ));
        tables.push(table);
    }
    FigResult {
        id: "fig03",
        tables,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_panel_smoke() {
        let (table, err) = run_panel(&crate::engine::test_engine(), 50.0, 40.0, &Profile::smoke());
        assert!(!table.rows.is_empty());
        // Even the smoke profile should land in the right ballpark.
        assert!(err.is_finite());
    }
}
