//! Fig. 4a–b — multi-flow predicted region vs. actual per-flow BBR
//! throughput.
//!
//! Paper setup: (a) 5 CUBIC vs. 5 BBR and (b) 10 CUBIC vs. 10 BBR at a
//! 100 Mbps / 40 ms bottleneck, buffer 1–30 BDP. The measured BBR
//! per-flow average must fall inside the band between the
//! CUBIC-synchronized and de-synchronized bounds; the paper found the
//! empirical points near the *de-synchronized* bound and verified from
//! traces that CUBIC was indeed not synchronized in these runs.

use super::FigResult;
use crate::engine::Engine;
use crate::output::{mean, Table};
use crate::profile::Profile;
use crate::scenario::Scenario;
use crate::sync::synchronization_index;
use bbrdom_cca::CcaKind;
use bbrdom_core::model::multi_flow::{MultiFlowModel, SyncMode};
use bbrdom_core::model::ware::WareModel;
use bbrdom_core::model::LinkParams;

pub const MBPS: f64 = 100.0;
pub const RTT_MS: f64 = 40.0;
/// The two panels: (n_cubic, n_bbr).
pub const PANELS: [(u32, u32); 2] = [(5, 5), (10, 10)];

pub fn buffer_sweep(profile: &Profile) -> Vec<f64> {
    let full: Vec<f64> = (1..=30).map(|i| i as f64).collect();
    profile.thin(full)
}

pub fn run_panel(engine: &Engine, n_cubic: u32, n_bbr: u32, profile: &Profile) -> (Table, f64) {
    let buffers = buffer_sweep(profile);
    let mut table = Table::new(
        format!("Fig 4: {n_cubic} CUBIC vs {n_bbr} BBR, {MBPS} Mbps, {RTT_MS} ms"),
        &[
            "buffer_bdp",
            "ware_mbps",
            "sync_bound_mbps",
            "desync_bound_mbps",
            "actual_bbr_mbps",
            "sync_index",
        ],
    );
    let mut scenarios = Vec::new();
    for &b in &buffers {
        for t in 0..profile.trials {
            scenarios.push(Scenario::versus(
                MBPS,
                RTT_MS,
                b,
                n_cubic,
                CcaKind::Bbr,
                n_bbr,
                profile.duration_secs,
                0x0404_0000 + n_cubic as u64 * 53 + t as u64 * 131 + (b * 10.0) as u64,
            ));
        }
    }
    profile.apply_workload(&mut scenarios);
    let results = engine.run_all(&scenarios);
    let mut inside = 0usize;
    let mut total = 0usize;
    for (bi, &b) in buffers.iter().enumerate() {
        let mut actuals = Vec::new();
        let mut sync_idx = Vec::new();
        for t in 0..profile.trials as usize {
            let r = &results[bi * profile.trials as usize + t];
            actuals.push(r.mean_throughput_of("bbr").unwrap_or(0.0));
            // Synchronization of the CUBIC flows only (first n_cubic).
            let cubic_backoffs: Vec<Vec<f64>> = r
                .backoff_times_secs
                .iter()
                .zip(&r.cc_names)
                .filter(|(_, n)| n.as_str() == "cubic")
                .map(|(b, _)| b.clone())
                .collect();
            if let Some(ix) = synchronization_index(&cubic_backoffs, RTT_MS / 1e3) {
                sync_idx.push(ix);
            }
        }
        let actual = mean(&actuals);
        let m = MultiFlowModel::from_paper_units(MBPS, RTT_MS, b, n_cubic, n_bbr);
        let sync = m
            .solve(SyncMode::Synchronized)
            .map(|p| p.bbr_per_flow_mbps())
            .unwrap_or(f64::NAN);
        let desync = m
            .solve(SyncMode::DeSynchronized)
            .map(|p| p.bbr_per_flow_mbps())
            .unwrap_or(f64::NAN);
        let ware = WareModel::new(
            LinkParams::from_paper_units(MBPS, RTT_MS, b),
            n_bbr,
            profile.duration_secs,
        )
        .predict()
        .map(|p| p.bbr_mbps() / n_bbr as f64)
        .unwrap_or(f64::NAN);
        if sync.is_finite() && desync.is_finite() {
            total += 1;
            // The region spans [desync, sync] with ~10% slack for noise.
            let lo = desync.min(sync) * 0.85;
            let hi = desync.max(sync) * 1.15;
            if actual >= lo && actual <= hi {
                inside += 1;
            }
        }
        table.push_floats(&[b, ware, sync, desync, actual, mean(&sync_idx)]);
    }
    let frac = if total > 0 {
        inside as f64 / total as f64
    } else {
        f64::NAN
    };
    (table, frac)
}

pub fn run(engine: &Engine, profile: &Profile) -> FigResult {
    let mut tables = Vec::new();
    let mut notes = Vec::new();
    for (nc, nb) in PANELS {
        let (t, frac) = run_panel(engine, nc, nb, profile);
        notes.push(format!(
            "{nc}v{nb}: {:.0}% of measured points inside the predicted region (±15% slack)",
            frac * 100.0
        ));
        tables.push(t);
    }
    FigResult {
        id: "fig04",
        tables,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_panel_has_band_ordering() {
        let (table, _) = run_panel(&crate::engine::test_engine(), 2, 2, &Profile::smoke());
        for row in &table.rows {
            let sync: f64 = row[2].parse().unwrap();
            let desync: f64 = row[3].parse().unwrap();
            if sync.is_finite() && desync.is_finite() {
                // De-synchronized CUBIC is BBR's upper edge (§2.4).
                assert!(desync >= sync - 1e-6, "desync bound must be ≥ sync bound");
            }
        }
    }
}
