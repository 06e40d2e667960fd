//! Fig. 7 — do other post-BBR algorithms also start above fair share?
//!
//! Paper setup: 10 flows, 100 Mbps, 2 BDP buffer; for each challenger
//! X ∈ {PCC-Vivace, BBR, BBRv2, Copa}, measure the per-flow average
//! throughput of the X flows across all 11 CUBIC/X splits. BBR, BBRv2
//! and Vivace obtain a disproportionately large share with few flows
//! (so a mixed NE must exist); Copa stays below fair share everywhere.

use super::FigResult;
use crate::engine::Engine;
use crate::output::Table;
use crate::payoff::measure_payoffs;
use crate::profile::Profile;
use crate::scenario::{DisciplineSpec, FaultSpec};
use bbrdom_cca::CcaKind;

pub const MBPS: f64 = 100.0;
pub const RTT_MS: f64 = 40.0;
pub const BUFFER_BDP: f64 = 2.0;
pub const N: u32 = 10;

pub fn run(engine: &Engine, profile: &Profile) -> FigResult {
    let n = N.min(profile.ne_flows);
    let fair = MBPS / n as f64;
    let mut table = Table::new(
        format!("Fig 7: per-flow throughput of X vs #X flows ({n} flows, {BUFFER_BDP} BDP)"),
        &["n_x", "fair_share", "pcc_vivace", "bbr", "bbrv2", "copa"],
    );
    let mut p = *profile;
    p.ne_trials = profile.trials;
    let challengers = [CcaKind::Vivace, CcaKind::Bbr, CcaKind::BbrV2, CcaKind::Copa];
    let curves: Vec<Vec<f64>> = challengers
        .iter()
        .map(|&x| {
            measure_payoffs(
                engine,
                MBPS,
                RTT_MS,
                BUFFER_BDP,
                n,
                x,
                &p,
                0x0707,
                DisciplineSpec::DropTail,
                &FaultSpec::default(),
            )
            .mean_curves()
            .x_per_flow
        })
        .collect();
    #[allow(clippy::needless_range_loop)] // k is data (col 1), not just an index
    for k in 1..=n as usize {
        table.push_floats(&[
            k as f64,
            fair,
            curves[0][k],
            curves[1][k],
            curves[2][k],
            curves[3][k],
        ]);
    }

    // Property (i) of §4.2: disproportionate share at small k.
    let mut notes = Vec::new();
    for (i, x) in challengers.iter().enumerate() {
        let above = curves[i][1] > fair;
        notes.push(format!(
            "{}: starts {} fair share at n_x=1 ({:.1} vs {:.1} Mbps) → NE with CUBIC {}",
            x.name(),
            if above { "ABOVE" } else { "BELOW" },
            curves[i][1],
            fair,
            if above { "expected" } else { "not implied" },
        ));
    }
    FigResult {
        id: "fig07",
        tables: vec![table],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_table_has_all_challengers() {
        let r = run(&crate::engine::test_engine(), &Profile::smoke());
        assert_eq!(r.tables[0].columns.len(), 6);
        assert_eq!(r.notes.len(), 4);
    }
}
