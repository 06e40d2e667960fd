//! Fig. 1 — Ware et al.'s model vs. BBR's actual bandwidth share.
//!
//! Paper setup: one CUBIC vs. one BBR flow, 50 Mbps bottleneck, 40 ms
//! RTT, 2-minute flows, buffer swept 0.5–50 BDP. The figure motivates
//! the paper: the Ware model (which ignores buffer emptiness) diverges
//! ≥30% from reality in shallow/moderate buffers.

use super::FigResult;
use crate::engine::Engine;
use crate::output::{mean, Table};
use crate::profile::Profile;
use crate::scenario::Scenario;
use bbrdom_cca::CcaKind;
use bbrdom_core::model::ware::WareModel;
use bbrdom_core::model::LinkParams;

pub const MBPS: f64 = 50.0;
pub const RTT_MS: f64 = 40.0;

/// Buffer sweep in BDP (paper: 0.5–50).
pub fn buffer_sweep(profile: &Profile) -> Vec<f64> {
    let full: Vec<f64> = (1..=100).map(|i| i as f64 * 0.5).collect();
    profile.thin(full)
}

pub fn run(engine: &Engine, profile: &Profile) -> FigResult {
    let buffers = buffer_sweep(profile);
    let mut table = Table::new(
        format!("Fig 1: BBR share, 1 CUBIC vs 1 BBR, {MBPS} Mbps, {RTT_MS} ms"),
        &["buffer_bdp", "ware_mbps", "actual_bbr_mbps"],
    );

    // All (buffer × trial) scenarios at once for parallel fan-out.
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
                0x0101_0000 + t as u64 * 131 + (b * 10.0) as u64,
            ));
        }
    }
    profile.apply_workload(&mut scenarios);
    let results = engine.run_all(&scenarios);

    let mut max_ware_err: f64 = 0.0;
    for (bi, &b) in buffers.iter().enumerate() {
        let trials: Vec<f64> = (0..profile.trials as usize)
            .map(|t| {
                results[bi * profile.trials as usize + t]
                    .mean_throughput_of("bbr")
                    .unwrap_or(0.0)
            })
            .collect();
        let actual = mean(&trials);
        let ware = WareModel::new(
            LinkParams::from_paper_units(MBPS, RTT_MS, b),
            1,
            profile.duration_secs,
        )
        .predict()
        .map(|p| p.bbr_mbps())
        .unwrap_or(f64::NAN);
        if actual > 1.0 {
            max_ware_err = max_ware_err.max((ware - actual).abs() / actual);
        }
        table.push_floats(&[b, ware, actual]);
    }

    FigResult {
        id: "fig01",
        tables: vec![table],
        notes: vec![format!(
            "max relative error of the Ware model vs simulation: {:.0}%",
            max_ware_err * 100.0
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_table() {
        let r = run(&crate::engine::test_engine(), &Profile::smoke());
        assert_eq!(r.tables.len(), 1);
        assert_eq!(
            r.tables[0].rows.len(),
            buffer_sweep(&Profile::smoke()).len()
        );
        assert!(!r.notes.is_empty());
    }
}
