//! ext-parkinglot — the CUBIC/BBR game over a multi-bottleneck chain.
//!
//! Every experiment in the paper shares a single dumbbell bottleneck:
//! all flows contend at one queue. Real Internet paths traverse several
//! potentially-congested hops, each shared with *different* cross
//! traffic — the classic parking-lot topology of the fairness
//! literature. This experiment re-measures the game there: `n` long
//! flows traverse a chain of equal bottlenecks end to end
//! ([`TopologySpec::parking_lot`]), while every hop also carries CUBIC
//! cross flows that enter and leave at that hop alone.
//!
//! 1. the long flows' payoff curves as the BBR share rises, over the
//!    chain (cross traffic shapes the network but is excluded from the
//!    game's payoffs — [`crate::payoff::measure_payoffs_from`]), and
//! 2. the observed Nash mix on the single-bottleneck dumbbell vs the chain.
//!
//! Expected outcome (and what we observe): the chain squeezes the long
//! flows — they pay the parking-lot penalty of contending at every hop
//! while each cross flow contends at one — and it squeezes CUBIC
//! hardest, because the loss-based response compounds across hops. The
//! game keeps a pure equilibrium, but the observed mix shifts sharply
//! toward the all-BBR corner relative to the dumbbell: multiple shared
//! bottlenecks *accelerate* the paper's drift toward BBR dominance.

use super::FigResult;
use crate::output::Table;
use crate::payoff::{default_epsilon_mbps, measure_payoffs, measure_payoffs_from};
use crate::profile::Profile;
use crate::scenario::{FlowSpec, Scenario, TopologySpec};
use bbrdom_cca::CcaKind;
use bbrdom_netsim::hash::{StableHash, StableHasher};

/// Per-hop bottleneck rate, Mbps.
pub const MBPS: f64 = 20.0;
/// End-to-end base RTT of the long flows, ms.
pub const RTT_MS: f64 = 40.0;
pub const BUFFER_BDP: f64 = 2.0;
/// Extra one-way propagation delay per hop, ms.
pub const PER_HOP_DELAY_MS: f64 = 2.0;
/// CUBIC cross flows entering and leaving at each hop.
pub const CROSS_PER_HOP: u32 = 1;
/// Base RTT of the cross-traffic flows' single-hop paths, ms.
pub const CROSS_RTT_MS: f64 = 20.0;
/// Base seed of the dumbbell-reference NE search.
pub const DUMBBELL_SEED: u64 = 0xD7_0000;

/// Trial seed for chain cell `(k, t)`, derived through the FNV stable
/// hash so no two cells can collide (same scheme as `ext-churn`).
pub fn trial_seed(k: u32, t: u32) -> u64 {
    let mut h = StableHasher::new();
    h.write_bytes(b"ext-parkinglot");
    (k as u64).stable_hash(&mut h);
    (t as u64).stable_hash(&mut h);
    h.finish() as u64
}

/// The scenario for one payoff cell: `n − k` CUBIC and `k` BBR long
/// flows over the full `hops`-bottleneck chain (the
/// [`Scenario::versus`] order the payoff assembly expects), plus
/// [`CROSS_PER_HOP`] CUBIC cross flows pinned to each single-hop route.
pub fn chain_scenario(hops: u32, n: u32, k: u32, duration_secs: f64, seed: u64) -> Scenario {
    let mut topo = TopologySpec::parking_lot(hops, MBPS, PER_HOP_DELAY_MS, BUFFER_BDP);
    let mut flow_routes: Vec<usize> = vec![0; n as usize];
    let mut s = Scenario::versus(
        MBPS,
        RTT_MS,
        BUFFER_BDP,
        n - k,
        CcaKind::Bbr,
        k,
        duration_secs,
        seed,
    );
    for h in 0..hops as usize {
        for _ in 0..CROSS_PER_HOP {
            s.flows.push(FlowSpec::long(CcaKind::Cubic, CROSS_RTT_MS));
            flow_routes.push(1 + h);
        }
    }
    topo.flow_routes = flow_routes;
    s.with_topology(Some(topo))
}

pub fn run(profile: &Profile) -> FigResult {
    let hops = profile.parkinglot_hops.max(2);
    let n = (profile.ne_flows / 2).max(4);
    let trials = profile.ne_trials.max(1);

    // Part 1: the long flows' payoff curves over the chain.
    let chain = measure_payoffs_from(n, CcaKind::Bbr, trials, |k, t| {
        chain_scenario(hops, n, k, profile.duration_secs, trial_seed(k, t))
    });
    let mean = chain.mean_curves();
    let mut curves = Table::new(
        format!(
            "ext-parkinglot: long-flow payoffs over a {hops}-hop chain \
             ({MBPS} Mbps/hop, {PER_HOP_DELAY_MS} ms/hop, {CROSS_PER_HOP} CUBIC \
             cross flow(s) per hop, {BUFFER_BDP} BDP)"
        ),
        &[
            "k_bbr",
            "bbr_per_flow_mbps",
            "cubic_per_flow_mbps",
            "queuing_delay_ms",
        ],
    );
    for k in 0..=n as usize {
        curves.push_row(vec![
            k.to_string(),
            format!("{:.3}", mean.x_per_flow[k]),
            format!("{:.3}", mean.cubic_per_flow[k]),
            format!("{:.2}", mean.queuing_delay_ms[k]),
        ]);
    }

    // Part 2: the observed NE mix, dumbbell vs parking lot.
    let eps = default_epsilon_mbps(MBPS, n);
    let dumbbell = measure_payoffs(
        MBPS,
        RTT_MS,
        BUFFER_BDP,
        n,
        CcaKind::Bbr,
        profile,
        DUMBBELL_SEED,
    );
    let fmt_ne = |ne: &[u32]| {
        ne.iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(";")
    };
    let dumbbell_ne = dumbbell.observed_ne_cubic_counts(eps);
    let chain_ne = chain.observed_ne_cubic_counts(eps);
    let mut ne_table = Table::new(
        format!("ext-parkinglot: observed NE (#CUBIC of {n} long flows) at {BUFFER_BDP} BDP"),
        &["topology", "observed_ne_cubic"],
    );
    ne_table.push_row(vec!["dumbbell".to_string(), fmt_ne(&dumbbell_ne)]);
    ne_table.push_row(vec![
        format!("parking-lot ({hops} hops)"),
        fmt_ne(&chain_ne),
    ]);

    let mut notes = Vec::new();
    let all_bbr = mean.x_per_flow[n as usize];
    let all_cubic = mean.cubic_per_flow[0];
    notes.push(format!(
        "over the {hops}-hop chain a long flow gets {all_cubic:.2} Mbps in the all-CUBIC \
         state and {all_bbr:.2} Mbps in the all-BBR state (fair share against the per-hop \
         cross flow would be {:.2} Mbps) — the parking-lot penalty of contending at every hop",
        MBPS / (n + CROSS_PER_HOP) as f64
    ));
    notes.push(format!(
        "observed NE mix moves from [{}] CUBIC on the dumbbell to [{}] on the chain — \
         per-hop cross traffic taxes the loss-based strategy at every bottleneck, so a \
         pure equilibrium persists but shifts toward the all-BBR corner",
        fmt_ne(&dumbbell_ne),
        fmt_ne(&chain_ne)
    ));
    FigResult {
        id: "ext-parkinglot",
        tables: vec![curves, ne_table],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_seeds_are_unique_over_the_grid() {
        let mut seen = std::collections::HashSet::new();
        for k in 0..12 {
            for t in 0..10 {
                assert!(seen.insert(trial_seed(k, t)));
            }
        }
    }

    #[test]
    fn chain_scenario_validates_and_runs() {
        let s = chain_scenario(2, 2, 1, 4.0, trial_seed(1, 0));
        s.validate().unwrap();
        let r = s.run();
        // 2 long + 2 cross flows, all active.
        assert_eq!(r.throughput_mbps.len(), 4);
        assert!(r.throughput_mbps.iter().all(|&t| t > 0.0));
        // The long flows' payoffs exclude the cross traffic.
        assert!(r.mean_throughput_of_first(2, "cubic").is_some());
        assert!(r.mean_throughput_of_first(2, "bbr").is_some());
    }

    #[test]
    fn smoke_run_produces_both_tables() {
        let r = run(&Profile::smoke());
        assert_eq!(r.tables.len(), 2);
        // n = max(6/2, 4) = 4 long flows -> 5 payoff rows.
        assert_eq!(r.tables[0].rows.len(), 5);
        assert_eq!(r.tables[1].rows.len(), 2);
        // Both topologies report at least one equilibrium.
        assert!(!r.tables[1].rows[0][1].is_empty());
        assert!(!r.tables[1].rows[1][1].is_empty());
    }
}
