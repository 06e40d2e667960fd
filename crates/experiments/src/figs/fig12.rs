//! Fig. 12 — where the model breaks: ultra-deep buffers.
//!
//! Paper setup: one CUBIC vs. one BBR flow at 50 Mbps / 40 ms, buffer
//! swept 1–250 BDP. In buffers beyond ~60 BDP BBR's actual throughput
//! decays (it stops being cwnd-limited: after ProbeRTT it restarts from
//! ~1 BDP in flight and the 8-RTT gain cycles are too slow, at bloated
//! RTTs, to climb back to the 2×BDP cap before the next ProbeRTT), so
//! the model — which assumes a permanent 2×BDP in-flight — increasingly
//! over-estimates BBR. The paper annotates three regimes: cwnd-limited,
//! partially limited, and not limited.

use super::FigResult;
use crate::engine::Engine;
use crate::output::{mean, Table};
use crate::profile::Profile;
use crate::scenario::Scenario;
use bbrdom_cca::CcaKind;
use bbrdom_core::model::two_flow::TwoFlowModel;
use bbrdom_core::model::ware::WareModel;
use bbrdom_core::model::LinkParams;

pub const MBPS: f64 = 50.0;
pub const RTT_MS: f64 = 40.0;

pub fn buffer_sweep(profile: &Profile) -> Vec<f64> {
    let full: Vec<f64> = vec![
        1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0, 100.0, 125.0, 150.0, 200.0, 250.0,
    ];
    profile.thin(full)
}

pub fn run(engine: &Engine, profile: &Profile) -> FigResult {
    let buffers = buffer_sweep(profile);
    let mut table = Table::new(
        format!("Fig 12: ultra-deep buffers, 1v1, {MBPS} Mbps, {RTT_MS} ms"),
        &[
            "buffer_bdp",
            "ware_mbps",
            "our_model_mbps",
            "actual_bbr_mbps",
        ],
    );
    let mut scenarios = Vec::new();
    for &b in &buffers {
        for t in 0..profile.trials {
            scenarios.push(Scenario::versus(
                MBPS,
                RTT_MS,
                b,
                1,
                CcaKind::Bbr,
                1,
                profile.duration_secs,
                0x1212_0000 + t as u64 * 131 + (b * 10.0) as u64,
            ));
        }
    }
    profile.apply_workload(&mut scenarios);
    let results = engine.run_all(&scenarios);
    let mut overestimates_deep = 0usize;
    let mut deep_points = 0usize;
    for (bi, &b) in buffers.iter().enumerate() {
        let trials: Vec<f64> = (0..profile.trials as usize)
            .map(|t| {
                results[bi * profile.trials as usize + t]
                    .mean_throughput_of("bbr")
                    .unwrap_or(0.0)
            })
            .collect();
        let actual = mean(&trials);
        let ours = TwoFlowModel::from_paper_units(MBPS, RTT_MS, b)
            .solve()
            .map(|p| p.bbr_mbps())
            .unwrap_or(f64::NAN);
        let ware = WareModel::new(
            LinkParams::from_paper_units(MBPS, RTT_MS, b),
            1,
            profile.duration_secs,
        )
        .predict()
        .map(|p| p.bbr_mbps())
        .unwrap_or(f64::NAN);
        if b >= 100.0 && ours.is_finite() {
            deep_points += 1;
            if ours > actual {
                overestimates_deep += 1;
            }
        }
        table.push_floats(&[b, ware, ours, actual]);
    }
    FigResult {
        id: "fig12",
        tables: vec![table],
        notes: vec![format!(
            "model over-estimates BBR at {overestimates_deep}/{deep_points} points ≥100 BDP \
             (expected: all — BBR stops being cwnd-limited there)"
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_reaches_ultra_deep() {
        let s = buffer_sweep(&Profile::full());
        assert_eq!(*s.last().unwrap(), 250.0);
    }
}
