//! End-to-end Nash-equilibrium pipeline: simulate all distributions,
//! build the empirical game, find equilibria, compare with the model —
//! the §4.4 methodology at test scale.

use bbrdom::cca::CcaKind;
use bbrdom::experiments::payoff::{default_epsilon_mbps, measure_payoffs, PayoffMeasurement};
use bbrdom::experiments::{DisciplineSpec, Engine, EngineConfig, FaultSpec, Profile};
use bbrdom::game::dynamics::{best_response_dynamics, BestResponseOutcome};
use bbrdom::model::multi_flow::SyncMode;
use bbrdom::model::nash::NashPredictor;

const MBPS: f64 = 40.0;
const RTT_MS: f64 = 30.0;
const N: u32 = 6;

/// The §4.4 payoff grid of `N` flows at one buffer size, on a serial
/// uncached engine.
fn measure(buffer_bdp: f64, seed: u64) -> PayoffMeasurement {
    let mut profile = Profile::smoke();
    profile.duration_secs = 20.0;
    profile.ne_trials = 1;
    measure_payoffs(
        &Engine::new(EngineConfig::serial_uncached()),
        MBPS,
        RTT_MS,
        buffer_bdp,
        N,
        CcaKind::Bbr,
        &profile,
        seed,
        DisciplineSpec::DropTail,
        &FaultSpec::default(),
    )
}

#[test]
fn empirical_ne_exists_and_is_mixed_in_shallow_buffer() {
    let m = measure(2.0, 0xAA);
    let eps = default_epsilon_mbps(MBPS, N);
    let ne = m.observed_ne_cubic_counts(eps);
    assert!(!ne.is_empty(), "an NE must exist (finite symmetric game)");
    // At a 2 BDP buffer BBR is strong but not unstoppable: the NE should
    // not be the all-CUBIC corner.
    assert!(
        ne.iter().any(|&c| c < N),
        "expected some BBR flows at the NE, got all-CUBIC: {ne:?}"
    );
}

#[test]
fn empirical_ne_not_far_from_model_region() {
    let buffer = 5.0;
    let m = measure(buffer, 0xBB);
    let eps = default_epsilon_mbps(MBPS, N);
    let ne = m.observed_ne_cubic_counts(eps);
    assert!(!ne.is_empty());
    let predictor = NashPredictor::from_paper_units(MBPS, RTT_MS, buffer, N);
    let (sync, desync) = predictor.predict_region().unwrap();
    let lo = desync.n_cubic.min(sync.n_cubic) - 2.0;
    let hi = desync.n_cubic.max(sync.n_cubic) + 2.0;
    // At least one observed NE within the (slack-extended) region.
    assert!(
        ne.iter().any(|&c| (c as f64) >= lo && (c as f64) <= hi),
        "no observed NE {ne:?} within model region [{lo:.1}, {hi:.1}]"
    );
}

#[test]
fn best_response_dynamics_converge_on_measured_game() {
    let m = measure(3.0, 0xCC);
    let eps = default_epsilon_mbps(MBPS, N);
    let game = m.mean_curves().to_game(eps);
    for start in [0, N / 2, N] {
        let trace = best_response_dynamics(&game, start, 200);
        assert_ne!(
            trace.outcome,
            BestResponseOutcome::Exhausted,
            "dynamics should settle from start={start}"
        );
        if trace.outcome == BestResponseOutcome::Converged {
            assert!(game.is_nash(trace.final_state()));
        }
    }
}

#[test]
fn model_region_bdp_invariance_matches_game_reduction() {
    // The model's region is a pure function of buffer-in-BDP — verify at
    // two (C, RTT) pairs sharing a BDP multiple (no simulation needed).
    let a = NashPredictor::from_paper_units(40.0, 30.0, 6.0, N)
        .predict(SyncMode::Synchronized)
        .unwrap();
    let b = NashPredictor::from_paper_units(80.0, 60.0, 6.0, N)
        .predict(SyncMode::Synchronized)
        .unwrap();
    assert!((a.n_cubic - b.n_cubic).abs() < 1e-9);
}
