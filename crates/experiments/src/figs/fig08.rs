//! Fig. 8a–b — throughput is the asymmetric metric; queuing delay is
//! shared.
//!
//! Paper setup: the 10-flow CUBIC/BBR evolution at 100 Mbps, 2 BDP,
//! 40 ms. Panel (a): per-algorithm average throughput across the splits
//! (the curves cross). Panel (b): the average queuing delay — a metric
//! *shared* by all flows at the bottleneck — barely moves until the
//! all-BBR point, so throughput, not delay, is what drives switching
//! (§4.3's argument for simple utility functions).

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
        0x0808,
        DisciplineSpec::DropTail,
        &FaultSpec::default(),
    );
    let curves = measured.mean_curves();

    let mut tp = Table::new(
        format!("Fig 8a: average per-flow throughput ({n} flows, {BUFFER_BDP} BDP)"),
        &["n_bbr", "cubic_mbps", "bbr_mbps"],
    );
    let mut qd = Table::new(
        "Fig 8b: average queuing delay (shared by all flows)",
        &["n_bbr", "queuing_delay_ms"],
    );
    for k in 0..=n as usize {
        let cubic = if k < n as usize {
            curves.cubic_per_flow[k]
        } else {
            f64::NAN
        };
        let bbr = if k > 0 {
            curves.x_per_flow[k]
        } else {
            f64::NAN
        };
        tp.push_floats(&[k as f64, cubic, bbr]);
        qd.push_floats(&[k as f64, curves.queuing_delay_ms[k]]);
    }

    // §4.3's claim: delay varies far less (relatively) across mixed
    // states than the throughput asymmetry does.
    let mixed: Vec<f64> = (1..n as usize)
        .map(|k| curves.queuing_delay_ms[k])
        .collect();
    let d_min = mixed.iter().cloned().fold(f64::INFINITY, f64::min);
    let d_max = mixed.iter().cloned().fold(0.0, f64::max);
    FigResult {
        id: "fig08",
        tables: vec![tp, qd],
        notes: vec![format!(
            "queuing delay across mixed states spans {d_min:.1}–{d_max:.1} ms; \
             only the all-BBR state departs (BBR drains the standing queue)"
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_produces_two_panels() {
        let r = run(&crate::engine::test_engine(), &Profile::smoke());
        assert_eq!(r.tables.len(), 2);
        let n = N.min(Profile::smoke().ne_flows) as usize;
        assert_eq!(r.tables[0].rows.len(), n + 1);
    }
}
