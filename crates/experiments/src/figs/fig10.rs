//! Fig. 10 — Nash equilibria with heterogeneous RTTs (§4.5).
//!
//! Paper setup: 30 flows in three groups of 10 with RTTs 10/30/50 ms,
//! 100 Mbps bottleneck, buffer in multiples of the *shortest* RTT's BDP.
//! The paper ran all 2³⁰ CUBIC/BBR assignments; we exploit within-group
//! symmetry — payoffs depend only on `(k₁, k₂, k₃)` — to enumerate
//! `(n+1)³` states exactly (the paper's own methodology implies this
//! reduction; flows within a group are interchangeable).
//!
//! Verified observations:
//! * at least one NE exists at every buffer size;
//! * at the NE, CUBIC concentrates in the short-RTT groups (loss-based
//!   CCAs favour short RTTs; BBR favours long RTTs).

use super::FigResult;
use crate::engine::Engine;
use crate::output::Table;
use crate::profile::Profile;
use crate::scenario::{BackendSpec, FlowSpec, Scenario};
use bbrdom_cca::CcaKind;
use bbrdom_core::game::multigroup::{GroupPayoffs, MultiGroupGame};
use std::collections::HashMap;

pub const MBPS: f64 = 100.0;
pub const GROUP_RTTS_MS: [f64; 3] = [10.0, 30.0, 50.0];

/// Buffer sizes (in BDP of the shortest RTT) to test.
pub fn buffer_sweep(profile: &Profile) -> Vec<f64> {
    profile.thin(vec![2.0, 5.0, 10.0, 20.0, 35.0, 50.0])
}

/// Per-group size: the paper uses 10; quick profiles shrink it.
pub fn group_size(profile: &Profile) -> u32 {
    (profile.ne_flows / 6).clamp(2, 10)
}

fn scenario_for_state(
    state: &[u32],
    g: u32,
    buffer_bdp: f64,
    duration: f64,
    seed: u64,
) -> Scenario {
    let mut flows = Vec::new();
    for (gi, &k) in state.iter().enumerate() {
        let rtt = GROUP_RTTS_MS[gi];
        for _ in 0..(g - k) {
            flows.push(FlowSpec::long(CcaKind::Cubic, rtt));
        }
        for _ in 0..k {
            flows.push(FlowSpec::long(CcaKind::Bbr, rtt));
        }
    }
    Scenario {
        mbps: MBPS,
        buffer_bdp,
        reference_rtt_ms: GROUP_RTTS_MS[0], // normalize by shortest RTT
        flows,
        duration_secs: duration,
        seed,
        discipline: Default::default(),
        faults: Default::default(),
        early_stop: None,
        backend: BackendSpec::Des,
        workload: None,
        topology: None,
    }
}

/// Measure per-group payoffs for every state at one buffer size, then
/// enumerate the equilibria.
pub fn find_equilibria(
    engine: &Engine,
    buffer_bdp: f64,
    profile: &Profile,
) -> (Vec<Vec<u32>>, u32) {
    let g = group_size(profile);
    let n_states = ((g + 1) as usize).pow(3);
    // Enumerate states and build scenarios.
    let mut states = Vec::with_capacity(n_states);
    for k1 in 0..=g {
        for k2 in 0..=g {
            for k3 in 0..=g {
                states.push(vec![k1, k2, k3]);
            }
        }
    }
    let mut scenarios: Vec<Scenario> = states
        .iter()
        .enumerate()
        .map(|(i, s)| {
            scenario_for_state(
                s,
                g,
                buffer_bdp,
                profile.duration_secs,
                0x1010 + i as u64 * 97 + (buffer_bdp * 100.0) as u64,
            )
        })
        .collect();
    profile.apply_workload(&mut scenarios);
    let results = engine.run_all(&scenarios);

    // Per-state, per-group mean throughput of each algorithm. Flows are
    // laid out group-major: group gi occupies [gi*g, (gi+1)*g), CUBIC
    // flows first.
    let mut payoffs: HashMap<Vec<u32>, GroupPayoffs> = HashMap::new();
    for (state, result) in states.iter().zip(&results) {
        let mut bbr = vec![0.0; 3];
        let mut cubic = vec![0.0; 3];
        for gi in 0..3usize {
            let k = state[gi] as usize;
            let base = gi * g as usize;
            let cubic_slice = &result.throughput_mbps[base..base + (g as usize - k)];
            let bbr_slice = &result.throughput_mbps[base + (g as usize - k)..base + g as usize];
            cubic[gi] = if cubic_slice.is_empty() {
                0.0
            } else {
                cubic_slice.iter().sum::<f64>() / cubic_slice.len() as f64
            };
            bbr[gi] = if bbr_slice.is_empty() {
                0.0
            } else {
                bbr_slice.iter().sum::<f64>() / bbr_slice.len() as f64
            };
        }
        payoffs.insert(state.clone(), GroupPayoffs { bbr, cubic });
    }

    // The paper notes throughput gains are marginal near the NE and that
    // noise shifts equilibria between neighbouring states; a 5%-of-fair-
    // share tolerance absorbs single-trial noise at quick scale.
    let eps = 0.05 * MBPS / (3.0 * g as f64);
    let game = MultiGroupGame::new(vec![g; 3], move |state: &[u32]| {
        payoffs.get(state).cloned().expect("state measured")
    })
    .with_epsilon(eps);
    (game.nash_equilibria(), g)
}

pub fn run(engine: &Engine, profile: &Profile) -> FigResult {
    let buffers = buffer_sweep(profile);
    let mut table = Table::new(
        format!(
            "Fig 10: multi-RTT NE (groups of {} flows at {:?} ms, {MBPS} Mbps)",
            group_size(profile),
            GROUP_RTTS_MS
        ),
        &[
            "buffer_bdp",
            "ne_count",
            "ne_states_bbr(k10,k30,k50)",
            "total_cubic_at_ne",
            "cubic_in_shortest_rtt",
        ],
    );
    let mut all_have_ne = true;
    let mut ordering_holds = true;
    for &b in &buffers {
        let (nes, g) = find_equilibria(engine, b, profile);
        all_have_ne &= !nes.is_empty();
        for ne in &nes {
            // Paper's ordering: CUBIC concentrates at short RTTs, i.e.
            // BBR count is non-decreasing with group RTT.
            if !(ne[0] <= ne[1] && ne[1] <= ne[2]) {
                ordering_holds = false;
            }
        }
        let states_str = nes
            .iter()
            .map(|s| format!("({},{},{})", s[0], s[1], s[2]))
            .collect::<Vec<_>>()
            .join(" ");
        let total_cubic: Vec<String> = nes
            .iter()
            .map(|s| (3 * g - s.iter().sum::<u32>()).to_string())
            .collect();
        let short_cubic: Vec<String> = nes.iter().map(|s| (g - s[0]).to_string()).collect();
        table.push_row(vec![
            format!("{b:.1}"),
            nes.len().to_string(),
            states_str,
            total_cubic.join(";"),
            short_cubic.join(";"),
        ]);
    }
    FigResult {
        id: "fig10",
        tables: vec![table],
        notes: vec![
            format!(
                "NE exists at every buffer size: {}",
                if all_have_ne { "YES" } else { "NO" }
            ),
            format!(
                "CUBIC concentrates in short-RTT groups at every NE: {}",
                if ordering_holds {
                    "YES"
                } else {
                    "NO (see table)"
                }
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_size_scales_with_profile() {
        assert!(group_size(&Profile::smoke()) >= 2);
        assert_eq!(group_size(&Profile::full()), 8);
    }

    #[test]
    fn scenario_layout_is_group_major_cubic_first() {
        let s = scenario_for_state(&[1, 0, 2], 2, 5.0, 1.0, 0);
        assert_eq!(s.flows.len(), 6);
        // Group 0: 1 cubic then 1 bbr at 10ms.
        assert_eq!(s.flows[0].rtt_ms, 10.0);
        assert_eq!(s.flows[1].rtt_ms, 10.0);
        // Group 2: two bbr at 50ms.
        assert_eq!(s.flows[4].rtt_ms, 50.0);
        assert_eq!(s.flows[5].rtt_ms, 50.0);
    }
}
