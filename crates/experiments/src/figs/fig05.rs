//! Fig. 5a–d — diminishing returns for BBR as its share of flows grows.
//!
//! Paper setup: 10 or 20 flows through a 100 Mbps / 40 ms bottleneck at
//! buffer sizes of 3 and 10 BDP. The x-axis is the number of BBR flows;
//! the measured BBR per-flow average falls inside the model's predicted
//! region and *decreases* as BBR flows multiply — the observation that
//! drives the whole Nash-equilibrium argument.

use super::FigResult;
use crate::engine::Engine;
use crate::output::{mean, Table};
use crate::payoff::measure_payoffs;
use crate::profile::Profile;
use crate::scenario::{DisciplineSpec, FaultSpec};
use bbrdom_cca::CcaKind;
use bbrdom_core::model::multi_flow::{MultiFlowModel, SyncMode};

pub const MBPS: f64 = 100.0;
pub const RTT_MS: f64 = 40.0;
/// The four panels: (total flows, buffer in BDP).
pub const PANELS: [(u32, f64); 4] = [(10, 3.0), (20, 3.0), (10, 10.0), (20, 10.0)];

pub fn run_panel(engine: &Engine, n: u32, buffer_bdp: f64, profile: &Profile) -> (Table, bool) {
    let mut table = Table::new(
        format!("Fig 5: {n} flows, {buffer_bdp} BDP buffer, {MBPS} Mbps, {RTT_MS} ms"),
        &[
            "n_bbr",
            "sync_bound_mbps",
            "desync_bound_mbps",
            "actual_bbr_mbps",
            "fair_share_mbps",
        ],
    );
    // Use the payoff machinery but with `profile.trials` trials.
    let mut p = *profile;
    p.ne_trials = profile.trials;
    let measured = measure_payoffs(
        engine,
        MBPS,
        RTT_MS,
        buffer_bdp,
        n,
        CcaKind::Bbr,
        &p,
        0x0505,
        DisciplineSpec::DropTail,
        &FaultSpec::default(),
    );
    let curves = measured.mean_curves();
    let fair = MBPS / n as f64;
    let mut per_flow: Vec<f64> = Vec::new();
    for k in 1..=n {
        let m = MultiFlowModel::from_paper_units(MBPS, RTT_MS, buffer_bdp, n - k, k);
        let sync = m
            .solve(SyncMode::Synchronized)
            .map(|x| x.bbr_per_flow_mbps())
            .unwrap_or(f64::NAN);
        let desync = m
            .solve(SyncMode::DeSynchronized)
            .map(|x| x.bbr_per_flow_mbps())
            .unwrap_or(f64::NAN);
        let actual = curves.x_per_flow[k as usize];
        per_flow.push(actual);
        table.push_floats(&[k as f64, sync, desync, actual, fair]);
    }
    // Diminishing returns: the measured curve trends downward. Compare
    // first-third vs last-third means to be robust to noise.
    let third = (per_flow.len() / 3).max(1);
    let head = mean(&per_flow[..third]);
    let tail = mean(&per_flow[per_flow.len() - third..]);
    (table, head > tail)
}

pub fn run(engine: &Engine, profile: &Profile) -> FigResult {
    let mut tables = Vec::new();
    let mut notes = Vec::new();
    for (n, b) in PANELS {
        // Scale panel size down with cheap profiles (smoke runs 4+ flows;
        // quick/full keep the paper's 10/20).
        let n = n.min(profile.ne_flows.max(4));
        let (t, diminishing) = run_panel(engine, n, b, profile);
        notes.push(format!(
            "{n} flows @ {b} BDP: diminishing returns {}",
            if diminishing { "CONFIRMED" } else { "NOT seen" }
        ));
        tables.push(t);
    }
    FigResult {
        id: "fig05",
        tables,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_panel_rows_cover_all_counts() {
        let (table, _) = run_panel(&crate::engine::test_engine(), 4, 3.0, &Profile::smoke());
        assert_eq!(table.rows.len(), 4);
    }
}
