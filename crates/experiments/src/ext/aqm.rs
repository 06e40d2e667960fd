//! ext-aqm — the CUBIC/BBR contest under RED and CoDel bottlenecks.
//!
//! The paper's analysis assumes a drop-tail FIFO; its §1/§5 argue that a
//! mixed CUBIC/BBR Internet stresses AQM and buffer-sizing assumptions.
//! Here we re-run two core measurements under each discipline:
//!
//! 1. the 1-vs-1 split across buffer sizes (the Fig.-3 shape), and
//! 2. the Nash mix for `n` flows at one representative buffer,
//!
//! and report queuing delay alongside. Expected outcome (and what we
//! observe): AQMs compress the game — CoDel keeps the standing queue
//! near its target, which removes CUBIC's ability to fill deep buffers
//! *and* curbs BBR's RTT⁺ inflation, pulling the split toward fairness
//! and shifting the NE mix relative to drop-tail.

use super::FigResult;
use crate::engine::Engine;
use crate::output::{mean, Table};
use crate::payoff::{default_epsilon_mbps, measure_payoffs};
use crate::profile::Profile;
use crate::scenario::{DisciplineSpec, FaultSpec, Scenario};
use bbrdom_cca::CcaKind;

pub const MBPS: f64 = 50.0;
pub const RTT_MS: f64 = 40.0;
pub const DISCIPLINES: [DisciplineSpec; 3] = [
    DisciplineSpec::DropTail,
    DisciplineSpec::Red,
    DisciplineSpec::Codel,
];

pub fn buffer_sweep(profile: &Profile) -> Vec<f64> {
    profile.thin(vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
}

pub fn run(engine: &Engine, profile: &Profile) -> FigResult {
    let buffers = buffer_sweep(profile);

    // Part 1: 1v1 split per discipline and buffer.
    let mut split = Table::new(
        format!("ext-aqm: 1 CUBIC vs 1 BBR split by discipline ({MBPS} Mbps, {RTT_MS} ms)"),
        &[
            "buffer_bdp",
            "discipline",
            "bbr_mbps",
            "cubic_mbps",
            "qdelay_ms",
            "aqm_drops",
        ],
    );
    let mut scenarios = Vec::new();
    for &b in &buffers {
        for d in DISCIPLINES {
            for t in 0..profile.trials {
                scenarios.push(
                    Scenario::versus(
                        MBPS,
                        RTT_MS,
                        b,
                        1,
                        CcaKind::Bbr,
                        1,
                        profile.duration_secs,
                        0xA0_0000 + t as u64 * 131 + (b * 10.0) as u64,
                    )
                    .with_discipline(d),
                );
            }
        }
    }
    profile.apply_workload(&mut scenarios);
    let results = engine.run_all(&scenarios);
    let mut idx = 0;
    let mut codel_delay = Vec::new();
    let mut droptail_delay = Vec::new();
    for &b in &buffers {
        for d in DISCIPLINES {
            let mut bbr = Vec::new();
            let mut cubic = Vec::new();
            let mut qd = Vec::new();
            let mut aqm = 0u64;
            for _ in 0..profile.trials {
                let r = &results[idx];
                idx += 1;
                bbr.push(r.mean_throughput_of("bbr").unwrap_or(0.0));
                cubic.push(r.mean_throughput_of("cubic").unwrap_or(0.0));
                qd.push(r.avg_queuing_delay_ms);
                aqm += r.aqm_drops;
            }
            match d {
                DisciplineSpec::Codel => codel_delay.push(mean(&qd)),
                DisciplineSpec::DropTail => droptail_delay.push(mean(&qd)),
                _ => {}
            }
            split.push_row(vec![
                format!("{b:.1}"),
                d.name().to_string(),
                format!("{:.2}", mean(&bbr)),
                format!("{:.2}", mean(&cubic)),
                format!("{:.1}", mean(&qd)),
                aqm.to_string(),
            ]);
        }
    }

    // Part 2: the NE mix per discipline at a mid-depth buffer.
    let n = (profile.ne_flows / 2).max(4);
    let buffer = 8.0;
    let mut ne_table = Table::new(
        format!("ext-aqm: observed NE (#CUBIC of {n} flows) at {buffer} BDP"),
        &["discipline", "observed_ne_cubic"],
    );
    let eps = default_epsilon_mbps(MBPS, n);
    for d in DISCIPLINES {
        let m = measure_payoffs(
            engine,
            MBPS,
            RTT_MS,
            buffer,
            n,
            CcaKind::Bbr,
            profile,
            0xA1_0000,
            d,
            &FaultSpec::default(),
        );
        let observed = m.observed_ne_cubic_counts(eps);
        ne_table.push_row(vec![
            d.name().to_string(),
            observed
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(";"),
        ]);
    }

    let delay_note = if !codel_delay.is_empty() && !droptail_delay.is_empty() {
        format!(
            "CoDel holds mean queuing delay at {:.1} ms vs drop-tail's {:.1} ms (deepest buffer)",
            codel_delay.last().unwrap(),
            droptail_delay.last().unwrap()
        )
    } else {
        String::new()
    };
    FigResult {
        id: "ext-aqm",
        tables: vec![split, ne_table],
        notes: vec![
            delay_note,
            "AQM changes the game's substrate: the paper's drop-tail NE analysis \
             is a special case, not the general Internet."
                .to_string(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_both_tables() {
        let r = run(&crate::engine::test_engine(), &Profile::smoke());
        assert_eq!(r.tables.len(), 2);
        assert!(!r.tables[0].rows.is_empty());
        assert_eq!(r.tables[1].rows.len(), 3);
    }

    #[test]
    fn codel_caps_queueing_delay_vs_droptail() {
        // Direct check of the AQM's effect with CUBIC (the buffer-filler):
        // CoDel should hold delay near its 5 ms target even in a deep
        // buffer, where drop-tail lets CUBIC fill it.
        let deep = 16.0;
        let base = Scenario::versus(20.0, 40.0, deep, 2, CcaKind::Cubic, 0, 15.0, 5);
        let droptail = base.clone().run();
        let codel = base.with_discipline(DisciplineSpec::Codel).run();
        assert!(
            codel.avg_queuing_delay_ms < droptail.avg_queuing_delay_ms / 2.0,
            "codel {} vs droptail {}",
            codel.avg_queuing_delay_ms,
            droptail.avg_queuing_delay_ms
        );
        assert!(codel.aqm_drops > 0);
    }
}
