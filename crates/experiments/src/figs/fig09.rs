//! Fig. 9a–f — predicted Nash region vs. empirically-found equilibria.
//!
//! Paper setup: 50 flows, {50, 100} Mbps × {20, 40, 80} ms, buffer
//! 0.5–50 BDP; for each buffer, run all 51 CUBIC/BBR splits, find every
//! distribution where no flow gains by switching, and plot the number of
//! CUBIC flows at those equilibria against the model's predicted band
//! (Eq. (25) under the two synchronization bounds).
//!
//! Two paper observations this module verifies:
//! * more CUBIC at the NE in deeper buffers;
//! * the predicted region is identical across panels once the buffer is
//!   normalized by BDP (it depends on neither C nor RTT individually).

use super::FigResult;
use crate::engine::Engine;
use crate::output::Table;
use crate::payoff::{default_epsilon_mbps, measure_payoffs};
use crate::profile::Profile;
use crate::scenario::{DisciplineSpec, FaultSpec};
use bbrdom_cca::CcaKind;
use bbrdom_core::model::multi_flow::SyncMode;
use bbrdom_core::model::nash::NashPredictor;

/// The six panels: (mbps, rtt_ms).
pub const PANELS: [(f64, f64); 6] = [
    (50.0, 20.0),
    (50.0, 40.0),
    (50.0, 80.0),
    (100.0, 20.0),
    (100.0, 40.0),
    (100.0, 80.0),
];

pub fn buffer_sweep(profile: &Profile) -> Vec<f64> {
    let full: Vec<f64> = (1..=100).map(|i| i as f64 * 0.5).collect();
    profile.thin(full)
}

/// One panel: per buffer size, the model band and the observed NE set.
pub fn run_panel(
    engine: &Engine,
    mbps: f64,
    rtt_ms: f64,
    profile: &Profile,
    challenger: CcaKind,
) -> Table {
    let n = profile.ne_flows;
    let buffers = buffer_sweep(profile);
    let mut table = Table::new(
        format!(
            "Fig 9: #CUBIC at NE, {n} flows ({} challenger), {mbps} Mbps, {rtt_ms} ms",
            challenger.name()
        ),
        &[
            "buffer_bdp",
            "pred_cubic_sync",
            "pred_cubic_desync",
            "observed_ne_cubic",
        ],
    );
    let eps = default_epsilon_mbps(mbps, n);
    for &b in &buffers {
        let predictor = NashPredictor::from_paper_units(mbps, rtt_ms, b, n);
        let sync = predictor
            .predict(SyncMode::Synchronized)
            .map(|p| p.n_cubic)
            .unwrap_or(f64::NAN);
        let desync = predictor
            .predict(SyncMode::DeSynchronized)
            .map(|p| p.n_cubic)
            .unwrap_or(f64::NAN);
        let seed = 0x0909 + (mbps as u64) * 31 + (rtt_ms as u64) * 7 + (b * 100.0) as u64;
        let observed = if profile.adaptive {
            // Model-guided search: simulate only the cells needed to
            // certify equilibria near the Eq. (25) crossing (dense
            // fallback inside when model and measurement disagree).
            crate::adaptive::find_ne_adaptive(
                engine,
                mbps,
                rtt_ms,
                b,
                n,
                challenger,
                profile,
                seed,
                DisciplineSpec::DropTail,
                &FaultSpec::default(),
            )
            .ne_cubic
        } else {
            measure_payoffs(
                engine,
                mbps,
                rtt_ms,
                b,
                n,
                challenger,
                profile,
                seed,
                DisciplineSpec::DropTail,
                &FaultSpec::default(),
            )
            .observed_ne_cubic_counts(eps)
        };
        let observed_str = observed
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(";");
        table.push_row(vec![
            format!("{b:.1}"),
            format!("{sync:.2}"),
            format!("{desync:.2}"),
            observed_str,
        ]);
    }
    table
}

pub fn run(engine: &Engine, profile: &Profile) -> FigResult {
    let mut tables = Vec::new();
    for (mbps, rtt_ms) in PANELS {
        tables.push(run_panel(engine, mbps, rtt_ms, profile, CcaKind::Bbr));
    }
    // BDP-invariance note: the model columns must agree across panels.
    let invariant = {
        let reference: Vec<(String, String)> = tables[0]
            .rows
            .iter()
            .map(|r| (r[1].clone(), r[2].clone()))
            .collect();
        tables.iter().all(|t| {
            t.rows
                .iter()
                .map(|r| (r[1].clone(), r[2].clone()))
                .collect::<Vec<_>>()
                == reference
        })
    };
    FigResult {
        id: "fig09",
        tables,
        notes: vec![format!(
            "predicted region identical across all 6 panels (BDP invariance): {}",
            if invariant { "YES" } else { "NO" }
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_panel_runs() {
        let t = run_panel(
            &crate::engine::test_engine(),
            50.0,
            20.0,
            &Profile::smoke(),
            CcaKind::Bbr,
        );
        assert!(!t.rows.is_empty());
        // Observed NE column is a ;-separated list, possibly empty.
        for row in &t.rows {
            assert_eq!(row.len(), 4);
        }
    }

    #[test]
    fn adaptive_smoke_panel_matches_dense_shape() {
        let engine = crate::engine::test_engine();
        let dense = run_panel(&engine, 50.0, 20.0, &Profile::smoke(), CcaKind::Bbr);
        let adaptive_profile = Profile {
            adaptive: true,
            ..Profile::smoke()
        };
        let adaptive = run_panel(&engine, 50.0, 20.0, &adaptive_profile, CcaKind::Bbr);
        assert_eq!(adaptive.rows.len(), dense.rows.len());
        // Model columns are identical; only the observed column may
        // differ (and then only within the certification tolerance).
        for (a, d) in adaptive.rows.iter().zip(&dense.rows) {
            assert_eq!(a[..3], d[..3]);
        }
    }
}
