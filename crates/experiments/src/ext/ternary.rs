//! ext-ternary — three congestion-control algorithms at one bottleneck
//! (the paper's §4.2 future work).
//!
//! Strategies: CUBIC, BBR, BBRv2. We measure the per-flow payoff of
//! every *composition* `(k_cubic, k_bbr, k_bbrv2)` of `n` flows —
//! `C(n+2, 2)` simulator runs — and enumerate the pure Nash equilibria
//! of the resulting symmetric three-strategy game, plus a best-response
//! trajectory from the all-CUBIC Internet.
//!
//! Outcome to look for: whether the two-strategy result generalizes —
//! i.e. the game still settles on *mixed* deployments (no algorithm
//! sweeps the board), with BBRv2 displacing some of both.

use super::FigResult;
use crate::engine::Engine;
use crate::output::Table;
use crate::profile::Profile;
use crate::scenario::{BackendSpec, DisciplineSpec, FaultSpec, FlowSpec, Scenario};
use bbrdom_cca::CcaKind;
use bbrdom_core::game::multistrategy::MultiStrategyGame;
use std::collections::HashMap;

pub const MBPS: f64 = 60.0;
pub const RTT_MS: f64 = 40.0;
pub const BUFFER_BDP: f64 = 4.0;
pub const STRATEGIES: [CcaKind; 3] = [CcaKind::Cubic, CcaKind::Bbr, CcaKind::BbrV2];

fn scenario_for(state: &[u32], duration: f64, seed: u64) -> Scenario {
    let mut flows = Vec::new();
    for (i, &k) in state.iter().enumerate() {
        for _ in 0..k {
            flows.push(FlowSpec::long(STRATEGIES[i], RTT_MS));
        }
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

/// Boxed payoff oracle: composition state -> per-strategy payoffs.
pub type PayoffOracle = Box<dyn Fn(&[u32]) -> Vec<f64>>;

/// A measured game plus the composition states backing its payoff oracle.
pub type MeasuredGame = (MultiStrategyGame<PayoffOracle>, Vec<Vec<u32>>);

/// Measure all compositions and build the payoff oracle.
pub fn measure_game(engine: &Engine, n: u32, profile: &Profile) -> MeasuredGame {
    // Enumerate compositions via a scratch game (payoffs unused).
    let scratch = MultiStrategyGame::new(n, 3, |_: &[u32]| vec![0.0; 3]);
    let states = scratch.states();
    let mut scenarios: Vec<Scenario> = states
        .iter()
        .enumerate()
        .map(|(i, st)| scenario_for(st, profile.duration_secs, 0xE3_0000 + i as u64 * 89))
        .collect();
    profile.apply_workload(&mut scenarios);
    let results = engine.run_all(&scenarios);
    let mut payoffs: HashMap<Vec<u32>, Vec<f64>> = HashMap::new();
    for (state, result) in states.iter().zip(&results) {
        let per_strategy: Vec<f64> = STRATEGIES
            .iter()
            .map(|s| result.mean_throughput_of(s.name()).unwrap_or(0.0))
            .collect();
        payoffs.insert(state.clone(), per_strategy);
    }
    let eps = 0.03 * MBPS / n as f64;
    let oracle: PayoffOracle =
        Box::new(move |st: &[u32]| payoffs.get(st).cloned().expect("state measured"));
    let game = MultiStrategyGame::new(n, 3, oracle).with_epsilon(eps);
    (game, states)
}

pub fn run(engine: &Engine, profile: &Profile) -> FigResult {
    let n = (profile.ne_flows / 2).clamp(4, 12);
    let (game, states) = measure_game(engine, n, profile);

    let mut table = Table::new(
        format!(
            "ext-ternary: pure NE of the CUBIC/BBR/BBRv2 game \
             ({n} flows, {MBPS} Mbps, {BUFFER_BDP} BDP) over {} states",
            states.len()
        ),
        &["k_cubic", "k_bbr", "k_bbrv2"],
    );
    let nes = game.nash_equilibria();
    for ne in &nes {
        table.push_row(vec![
            ne[0].to_string(),
            ne[1].to_string(),
            ne[2].to_string(),
        ]);
    }

    // Best-response path from the all-CUBIC Internet.
    let mut path = vec![vec![n, 0, 0]];
    let mut state = vec![n, 0, 0];
    for _ in 0..(states.len() * 2) {
        match game.best_response_step(&state) {
            Some(next) => {
                state = next;
                path.push(state.clone());
            }
            None => break,
        }
    }
    let settled = game.is_nash(&state);
    let path_str = path
        .iter()
        .map(|s| format!("({},{},{})", s[0], s[1], s[2]))
        .collect::<Vec<_>>()
        .join(" → ");

    let mixed = nes.iter().filter(|ne| ne.iter().all(|&k| k > 0)).count();
    FigResult {
        id: "ext-ternary",
        tables: vec![table],
        notes: vec![
            format!("pure NE count: {} ({} fully mixed)", nes.len(), mixed),
            format!(
                "best-response path from all-CUBIC ({}settled): {}",
                if settled { "" } else { "NOT " },
                path_str
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_game_measures_all_compositions() {
        let mut p = Profile::smoke();
        p.duration_secs = 5.0;
        let (game, states) = measure_game(&crate::engine::test_engine(), 4, &p);
        assert_eq!(states.len(), 15); // C(6,2)
                                      // Every state's oracle answers without panicking.
        for st in &states {
            let _ = game.is_nash(st);
        }
    }
}
