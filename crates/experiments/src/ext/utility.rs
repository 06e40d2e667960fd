//! ext-utility — Nash equilibria under throughput–delay utilities
//! (the paper's §4.3).
//!
//! The paper conjectures that for utilities of the form
//! `u = throughput − w·delay`, equilibria still exist and sit where the
//! throughput analysis puts them, because queuing delay is *shared* by
//! every flow at the bottleneck (Fig. 8b) while throughput is the
//! asymmetric, switch-driving metric. We test that directly: reuse the
//! measured Fig.-8 curves (throughput per algorithm + shared delay per
//! split), build the utility game for a sweep of delay weights `w`, and
//! report the equilibrium set per `w`.
//!
//! Expected (and observed): the NE set is essentially `w`-invariant
//! until `w` becomes large enough that the *all-BBR* state's much lower
//! delay dominates — at which point the game tips to all-BBR, which is
//! still an equilibrium structure, just a corner one. Either way, a
//! pure NE exists for every `w` (guaranteed for two-strategy symmetric
//! games; see `game::symmetric`).

use super::FigResult;
use crate::engine::Engine;
use crate::output::Table;
use crate::payoff::measure_payoffs;
use crate::profile::Profile;
use crate::scenario::{DisciplineSpec, FaultSpec};
use bbrdom_cca::CcaKind;
use bbrdom_core::game::symmetric::SymmetricGame;

pub const MBPS: f64 = 100.0;
pub const RTT_MS: f64 = 40.0;
pub const BUFFER_BDP: f64 = 2.0;
/// Delay weights, in Mbps per second of queuing delay.
pub const WEIGHTS: [f64; 5] = [0.0, 50.0, 200.0, 1000.0, 5000.0];

pub fn run(engine: &Engine, profile: &Profile) -> FigResult {
    let n = (profile.ne_flows / 2).clamp(4, 10);
    let mut p = *profile;
    p.ne_trials = profile.trials;
    let curves = measure_payoffs(
        engine,
        MBPS,
        RTT_MS,
        BUFFER_BDP,
        n,
        CcaKind::Bbr,
        &p,
        0xE4_0000,
        DisciplineSpec::DropTail,
        &FaultSpec::default(),
    )
    .mean_curves();

    let mut table = Table::new(
        format!(
            "ext-utility: NE of u = throughput − w·delay ({n} flows, {MBPS} Mbps, {BUFFER_BDP} BDP)"
        ),
        &["w_mbps_per_sec_delay", "ne_n_cubic_states"],
    );
    let mut always_exists = true;
    let mut ne_sets = Vec::new();
    for &w in &WEIGHTS {
        // Utility per state: Mbps − w · (shared queuing delay in s).
        let bbr_u: Vec<f64> = (0..=n as usize)
            .map(|k| curves.x_per_flow[k] - w * curves.queuing_delay_ms[k] / 1e3)
            .collect();
        let cubic_u: Vec<f64> = (0..=n as usize)
            .map(|k| curves.cubic_per_flow[k] - w * curves.queuing_delay_ms[k] / 1e3)
            .collect();
        let eps = 0.02 * MBPS / n as f64;
        let game = SymmetricGame::new(n, bbr_u, cubic_u).with_epsilon(eps);
        let nes: Vec<u32> = game.nash_equilibria().iter().map(|e| e.n_cubic).collect();
        always_exists &= !nes.is_empty();
        ne_sets.push(nes.clone());
        table.push_row(vec![
            format!("{w}"),
            nes.iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(";"),
        ]);
    }
    let stable_until_heavy = ne_sets
        .windows(2)
        .take(2) // compare the small-w regimes
        .all(|w2| w2[0] == w2[1]);
    FigResult {
        id: "ext-utility",
        tables: vec![table],
        notes: vec![
            format!(
                "a pure NE exists at every delay weight: {}",
                if always_exists { "YES" } else { "NO" }
            ),
            format!(
                "NE set unchanged across small delay weights (throughput dominates, §4.3): {}",
                if stable_until_heavy { "YES" } else { "NO" }
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_has_row_per_weight() {
        let r = run(&crate::engine::test_engine(), &Profile::smoke());
        assert_eq!(r.tables[0].rows.len(), WEIGHTS.len());
        assert!(!r.notes.is_empty());
    }
}
