//! ext-shortflows — short transfers over a mixed long-flow Internet
//! (the paper's §5 future work: "more diverse workloads").
//!
//! Setup: `n` backlogged long flows whose CUBIC/BBR mix we sweep, plus a
//! train of short CUBIC transfers (ad-sized, 30 kB, and page-sized,
//! 300 kB) arriving at fixed intervals. We report the short flows' mean
//! completion time (FCT) per long-flow mix.
//!
//! Why it matters for the paper's thesis: the NE analysis uses long-flow
//! throughput as the utility. Short flows care about FCT, which is
//! dominated by the *standing queue* — so as the long-flow mix shifts
//! toward BBR (smaller standing queue in shallow buffers, ProbeRTT
//! drains), short-flow latency changes even though the long flows'
//! throughput equilibrium logic is untouched.

use super::FigResult;
use crate::engine::Engine;
use crate::output::{mean, Table};
use crate::profile::Profile;
use crate::scenario::{BackendSpec, DisciplineSpec, FaultSpec, FlowSpec, Scenario};
use bbrdom_cca::CcaKind;
use bbrdom_netsim::hash::{StableHash, StableHasher};

pub const MBPS: f64 = 50.0;
pub const RTT_MS: f64 = 40.0;
pub const BUFFER_BDP: f64 = 8.0;
/// Short-transfer sizes: an ad beacon and a small page.
pub const SHORT_SIZES: [u64; 2] = [30_000, 300_000];

/// Trial seed for grid cell `(n_bbr, si, t)`, derived through the FNV
/// stable hash. The old affine formula (`0x5F_0000 + n_bbr·1009 +
/// si·53 + t·131`) could collide across cells (e.g. `si+1, t-?` vs a
/// `n_bbr` bump once the grid grows), silently correlating trials that
/// must be independent; the hash keeps every cell's seed distinct (see
/// the grid-uniqueness test).
pub fn trial_seed(n_bbr: u32, si: usize, t: u32) -> u64 {
    let mut h = StableHasher::new();
    h.write_bytes(b"ext-shortflows");
    (n_bbr as u64).stable_hash(&mut h);
    (si as u64).stable_hash(&mut h);
    (t as u64).stable_hash(&mut h);
    h.finish() as u64
}

/// Build a scenario: `n_bbr` of `n_long` long flows run BBR, the rest
/// CUBIC; short CUBIC transfers of `size` bytes arrive every
/// `interval_s` from `warmup_s` on.
pub fn scenario(n_long: u32, n_bbr: u32, size: u64, duration: f64, seed: u64) -> Scenario {
    let mut flows = Vec::new();
    for _ in 0..(n_long - n_bbr) {
        flows.push(FlowSpec::long(CcaKind::Cubic, RTT_MS));
    }
    for _ in 0..n_bbr {
        flows.push(FlowSpec::long(CcaKind::Bbr, RTT_MS));
    }
    // Short flows: start after a warmup third, spaced evenly.
    let warmup = duration / 3.0;
    let n_short = 8u32;
    let spacing = (duration - warmup) / (n_short as f64 + 1.0);
    for i in 0..n_short {
        flows.push(FlowSpec::short(
            CcaKind::Cubic,
            RTT_MS,
            warmup + spacing * i as f64,
            size,
        ));
    }
    Scenario {
        mbps: MBPS,
        buffer_bdp: BUFFER_BDP,
        reference_rtt_ms: RTT_MS,
        flows,
        duration_secs: duration,
        seed,
        discipline: DisciplineSpec::DropTail,
        faults: FaultSpec::default(),
        backend: BackendSpec::Des,
        workload: None,
        topology: None,
    }
}

/// Mean FCT (seconds) of the completed short flows in a trial result.
pub fn mean_fct(result: &crate::scenario::TrialResult) -> Option<f64> {
    let fcts: Vec<f64> = result
        .completion_times_secs
        .iter()
        .filter_map(|c| *c)
        .collect();
    if fcts.is_empty() {
        None
    } else {
        Some(mean(&fcts))
    }
}

pub fn run(engine: &Engine, profile: &Profile) -> FigResult {
    let n_long = (profile.ne_flows / 2).clamp(4, 10);
    let duration = profile.duration_secs.max(15.0);
    let mut table = Table::new(
        format!(
            "ext-shortflows: short-transfer FCT vs long-flow mix \
             ({n_long} long flows, {MBPS} Mbps, {BUFFER_BDP} BDP)"
        ),
        &["n_bbr_long", "fct_30kB_ms", "fct_300kB_ms", "qdelay_ms"],
    );
    let mut scenarios = Vec::new();
    for n_bbr in 0..=n_long {
        for (si, &size) in SHORT_SIZES.iter().enumerate() {
            for t in 0..profile.trials {
                scenarios.push(scenario(
                    n_long,
                    n_bbr,
                    size,
                    duration,
                    trial_seed(n_bbr, si, t),
                ));
            }
        }
    }
    profile.apply_workload(&mut scenarios);
    let results = engine.run_all(&scenarios);
    let mut idx = 0;
    let mut fct_all_cubic = None;
    let mut fct_all_bbr = None;
    for n_bbr in 0..=n_long {
        let mut per_size = Vec::new();
        let mut qd = Vec::new();
        for _ in &SHORT_SIZES {
            let mut fcts = Vec::new();
            for _ in 0..profile.trials {
                let r = &results[idx];
                idx += 1;
                if let Some(f) = mean_fct(r) {
                    fcts.push(f);
                }
                qd.push(r.avg_queuing_delay_ms);
            }
            per_size.push(if fcts.is_empty() {
                f64::NAN
            } else {
                mean(&fcts)
            });
        }
        // NaN means no short flow of that size completed; the headline
        // note must not claim a "NaN ms" FCT for the run.
        if n_bbr == 0 && per_size[0].is_finite() {
            fct_all_cubic = Some(per_size[0]);
        }
        if n_bbr == n_long && per_size[0].is_finite() {
            fct_all_bbr = Some(per_size[0]);
        }
        table.push_floats(&[
            n_bbr as f64,
            per_size[0] * 1e3,
            per_size[1] * 1e3,
            mean(&qd),
        ]);
    }
    let note = match (fct_all_cubic, fct_all_bbr) {
        (Some(c), Some(b)) => format!(
            "30 kB FCT: {:.0} ms under all-CUBIC vs {:.0} ms under all-BBR long flows \
             — the CCA mix is a latency externality for short flows",
            c * 1e3,
            b * 1e3
        ),
        _ => "some short flows did not complete within the run".to_string(),
    };
    FigResult {
        id: "ext-shortflows",
        tables: vec![table],
        notes: vec![note],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_flows_complete_and_report_fct() {
        let s = scenario(2, 1, 30_000, 15.0, 3);
        let r = s.run();
        let fct = mean_fct(&r).expect("short flows should complete");
        // A 30 kB transfer at ≥ a few Mbps with 40 ms RTT: tens of ms to
        // a few seconds, certainly inside the run.
        assert!(fct > 0.01 && fct < 10.0, "fct={fct}");
        // Long flows report no completion time.
        assert!(r.completion_times_secs[0].is_none());
        assert!(r.completion_times_secs[1].is_none());
    }

    #[test]
    fn trial_seeds_are_unique_over_the_full_grid() {
        // Full-profile grid and then some: every (n_bbr, size, trial)
        // cell must draw a distinct seed — collisions silently correlate
        // trials that the FCT averaging assumes independent.
        let mut seen = std::collections::HashSet::new();
        for n_bbr in 0..=50u32 {
            for si in 0..SHORT_SIZES.len() {
                for t in 0..10u32 {
                    assert!(
                        seen.insert(trial_seed(n_bbr, si, t)),
                        "seed collision at n_bbr={n_bbr} si={si} t={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn smoke_run_covers_every_mix() {
        let mut p = Profile::smoke();
        p.duration_secs = 9.0;
        let r = run(&crate::engine::test_engine(), &p);
        let n_long = (p.ne_flows / 2).clamp(4, 10);
        assert_eq!(r.tables[0].rows.len(), n_long as usize + 1);
    }
}
