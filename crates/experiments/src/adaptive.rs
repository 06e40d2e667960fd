//! Model-guided adaptive Nash-equilibrium search.
//!
//! The dense §4.4 search simulates every distribution `k = 0..=n` of a
//! payoff grid — `(n + 1) × trials` full simulations per network
//! setting — even though the analytical model (Eq. (25)) already
//! brackets where the equilibrium must lie. This module uses the
//! model's crossing as a *seed bracket* and simulates only the
//! distributions needed to certify equilibria inside it:
//!
//! 1. ask each *oracle* for an integer bracket: first the fluid/ODE
//!    fast backend (a single-trial payoff sweep over every
//!    distribution, milliseconds of work — see
//!    [`crate::fluid_backend`]), then the closed-form Eq. (25)
//!    crossing ([`NashPredictor::ne_band`]). Each band is widened by a
//!    guard of [`GUARD`] cells, and the search simulates the bracket
//!    plus one neighbour on each side (certifying state `k` needs
//!    payoffs at `k − 1`, `k`, and `k + 1`);
//! 2. certify each in-bracket state with exactly the dense search's NE
//!    test (no flow gains more than ε by switching) — certification
//!    always runs on the DES cells the dense grid would run; the fluid
//!    oracle only chooses *which* cells to pay for;
//! 3. if an equilibrium sits on the bracket edge, widen and re-check,
//!    so a contiguous equilibrium run is never truncated;
//! 4. if *no* equilibrium is certified inside one oracle's guarded
//!    bracket, log which oracle's band disagreed and retry with the
//!    next oracle's (distinct) band; only when every oracle's band has
//!    disagreed does the search pay for the dense grid — so the
//!    adaptive path can narrow the search but never change its answer
//!    class.
//!
//! Every simulated cell is built by
//! [`crate::payoff::distribution_scenario`] — the same scenario (same
//! seed, same content hash) the dense grid would run — so the engine's
//! cache makes widening rounds and adaptive-vs-dense comparisons
//! cheap, and the adaptive answer is drawn from the same sample space
//! as the dense one.

use crate::engine::Engine;
use crate::payoff::{default_epsilon_mbps, measure_payoffs_at_on, PayoffCurves};
use crate::profile::Profile;
use crate::scenario::{DisciplineSpec, FaultSpec};
use bbrdom_cca::CcaKind;
use bbrdom_core::model::nash::NashPredictor;

/// Extra cells simulated on each side of an oracle's integer bracket.
/// Within the guard band, oracle error is absorbed silently; beyond it,
/// the search retries the next oracle and finally the dense grid.
pub const GUARD: u32 = 1;

/// An oracle that proposes the bracket the DES then certifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeOracle {
    /// The fluid/ODE fast backend: a single-trial payoff sweep over all
    /// `n + 1` distributions (milliseconds), higher fidelity than the
    /// closed-form model but only defined inside its validity envelope.
    Fluid,
    /// The closed-form Eq. (25) crossing.
    Model,
}

impl NeOracle {
    /// Stable lowercase name, used in logs and JSON.
    pub fn name(self) -> &'static str {
        match self {
            NeOracle::Fluid => "fluid",
            NeOracle::Model => "model",
        }
    }
}

/// The result of one adaptive NE search.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveNe {
    /// Observed NE states as CUBIC-flow counts (union across trials,
    /// sorted, deduplicated) — the same quantity
    /// [`crate::payoff::PayoffMeasurement::observed_ne_cubic_counts`]
    /// reports for the dense grid.
    pub ne_cubic: Vec<u32>,
    /// Distinct distributions (BBR-flow counts `k`) that were simulated.
    pub evaluated: Vec<u32>,
    /// Eq. (25)'s seed bracket in BBR-flow counts, when it solved.
    pub model_band: Option<(u32, u32)>,
    /// The fluid backend's bracket in BBR-flow counts — `None` when the
    /// setting is outside the fluid validity envelope (AQM, faults,
    /// unmodelled CCAs) or the fluid sweep certified no equilibrium.
    pub fluid_band: Option<(u32, u32)>,
    /// The oracle whose band the answer was certified in; `None` when
    /// the search ran (or fell back to) the dense grid.
    pub oracle: Option<NeOracle>,
    /// Oracle bands tried and abandoned before the answer (0 = the
    /// first oracle's band certified).
    pub oracle_retries: u32,
    /// True when the search widened to the full grid — either no oracle
    /// could bracket the crossing, or nothing inside any oracle's
    /// guarded bracket certified as an equilibrium.
    pub dense_fallback: bool,
}

/// Is state `k` an NE of this trial's (possibly partial) curves?
/// Mirrors `SymmetricGame::is_nash`, reading only the cells the search
/// simulated; a `NaN` read means the caller's bracket bookkeeping is
/// wrong, and the `debug_assert` makes that loud.
fn is_nash_partial(t: &PayoffCurves, k: u32, n: u32, eps: f64) -> bool {
    if k < n {
        let stay = t.cubic_per_flow[k as usize];
        let switch = t.x_per_flow[(k + 1) as usize];
        debug_assert!(
            stay.is_finite() && switch.is_finite(),
            "certifying k={k} reads an unevaluated cell"
        );
        if switch > stay + eps {
            return false;
        }
    }
    if k > 0 {
        let stay = t.x_per_flow[k as usize];
        let switch = t.cubic_per_flow[(k - 1) as usize];
        debug_assert!(
            stay.is_finite() && switch.is_finite(),
            "certifying k={k} reads an unevaluated cell"
        );
        if switch > stay + eps {
            return false;
        }
    }
    true
}

/// Model-guided adaptive NE search: the fluid and Eq. (25) oracles
/// propose brackets, and `engine` simulates the DES cells that certify
/// equilibria inside them.
#[allow(clippy::too_many_arguments)]
pub fn find_ne_adaptive(
    engine: &Engine,
    mbps: f64,
    rtt_ms: f64,
    buffer_bdp: f64,
    n: u32,
    challenger: CcaKind,
    profile: &Profile,
    base_seed: u64,
    discipline: DisciplineSpec,
    faults: &FaultSpec,
) -> AdaptiveNe {
    let model_band = NashPredictor::from_paper_units(mbps, rtt_ms, buffer_bdp, n)
        .ne_band()
        .ok();
    let fluid_band = fluid_ne_band(
        mbps, rtt_ms, buffer_bdp, n, challenger, profile, base_seed, discipline, faults,
    );
    // Oracle order is fidelity order: the fluid sweep sees the same
    // dynamics the DES does (it is a simulation, not a formula), so its
    // band goes first; Eq. (25) is the retry. Identical bands would
    // re-certify the same cells, so they are collapsed.
    let mut bands: Vec<(NeOracle, (u32, u32))> = Vec::new();
    if let Some(b) = fluid_band {
        bands.push((NeOracle::Fluid, b));
    }
    if let Some(b) = model_band {
        if bands.iter().all(|&(_, fb)| fb != b) {
            bands.push((NeOracle::Model, b));
        }
    }
    certify_with_bands(
        engine, &bands, model_band, fluid_band, mbps, rtt_ms, buffer_bdp, n, challenger, profile,
        base_seed, discipline, faults,
    )
}

/// What certifying one guarded bracket concluded.
enum BandOutcome {
    /// NE states (BBR-flow counts) certified strictly inside the band.
    Certified(Vec<u32>),
    /// The band grew to cover the whole grid and certified nothing —
    /// the dense search would report the same empty set, so this is a
    /// final answer, not a disagreement.
    EmptyFullGrid,
    /// Nothing certified inside the (partial) band: the oracle and the
    /// measurement disagree beyond the guard band.
    Disagreed,
}

/// Run the certify-and-widen loop over each oracle band in turn, then
/// the dense grid. Split from [`find_ne_adaptive`] so the retry
/// logic can be tested with hand-picked (including wrong) bands.
#[allow(clippy::too_many_arguments)]
fn certify_with_bands(
    engine: &Engine,
    bands: &[(NeOracle, (u32, u32))],
    model_band: Option<(u32, u32)>,
    fluid_band: Option<(u32, u32)>,
    mbps: f64,
    rtt_ms: f64,
    buffer_bdp: f64,
    n: u32,
    challenger: CcaKind,
    profile: &Profile,
    base_seed: u64,
    discipline: DisciplineSpec,
    faults: &FaultSpec,
) -> AdaptiveNe {
    let eps = default_epsilon_mbps(mbps, n);
    let mut evaluated: Vec<u32> = Vec::new();
    let certify = |lo0: u32, hi0: u32, evaluated: &mut Vec<u32>| -> BandOutcome {
        let (mut lo, mut hi) = (lo0, hi0.min(n));
        loop {
            // Certifying [lo, hi] needs payoffs on [lo − 1, hi + 1].
            // The engine memoizes by content hash, so widening rounds
            // and later bands only simulate newly uncovered cells.
            let ks: Vec<u32> = (lo.saturating_sub(1)..=(hi + 1).min(n)).collect();
            let m = measure_payoffs_at_on(
                engine, mbps, rtt_ms, buffer_bdp, n, &ks, challenger, profile, base_seed,
                discipline, faults,
            );
            for &k in &ks {
                if !evaluated.contains(&k) {
                    evaluated.push(k);
                }
            }

            let mut ne_k: Vec<u32> = m
                .trials
                .iter()
                .flat_map(|t| (lo..=hi).filter(|&k| is_nash_partial(t, k, n, eps)))
                .collect();
            ne_k.sort_unstable();
            ne_k.dedup();

            if !ne_k.is_empty() {
                // An equilibrium on the bracket edge may continue beyond
                // it; widen until the certified set is interior (or the
                // grid ends), so a contiguous NE run is reported whole.
                let grow_lo = ne_k.contains(&lo) && lo > 0;
                let grow_hi = ne_k.contains(&hi) && hi < n;
                if grow_lo || grow_hi {
                    lo = lo.saturating_sub(if grow_lo { 1 } else { 0 });
                    hi = (hi + if grow_hi { 1 } else { 0 }).min(n);
                    continue;
                }
                return BandOutcome::Certified(ne_k);
            }
            return if lo == 0 && hi == n {
                BandOutcome::EmptyFullGrid
            } else {
                BandOutcome::Disagreed
            };
        }
    };
    let finish = |ne_k: Vec<u32>,
                  mut evaluated: Vec<u32>,
                  oracle: Option<NeOracle>,
                  oracle_retries: u32,
                  dense_fallback: bool| {
        evaluated.sort_unstable();
        AdaptiveNe {
            ne_cubic: ne_k.iter().rev().map(|&k| n - k).collect(),
            evaluated,
            model_band,
            fluid_band,
            oracle,
            oracle_retries,
            dense_fallback,
        }
    };

    for (i, &(oracle, (l, h))) in bands.iter().enumerate() {
        let outcome = certify(l.saturating_sub(GUARD), h + GUARD, &mut evaluated);
        match outcome {
            BandOutcome::Certified(ne_k) => {
                return finish(ne_k, evaluated, Some(oracle), i as u32, false);
            }
            BandOutcome::EmptyFullGrid => {
                return finish(Vec::new(), evaluated, Some(oracle), i as u32, false);
            }
            BandOutcome::Disagreed => {
                let next = bands
                    .get(i + 1)
                    .map(|&(o, _)| format!("retrying with the {} oracle's band", o.name()))
                    .unwrap_or_else(|| "falling back to the dense grid".to_string());
                eprintln!(
                    "adaptive NE: {} band [{l}, {h}] certified nothing at \
                     (C={mbps} Mbps, RTT={rtt_ms} ms, {buffer_bdp} BDP, n={n}); {next}",
                    oracle.name()
                );
            }
        }
    }
    // Every oracle band disagreed (or none solved): pay for the grid.
    let retries = bands.len() as u32;
    match certify(0, n, &mut evaluated) {
        BandOutcome::Certified(ne_k) => finish(ne_k, evaluated, None, retries, true),
        _ => finish(Vec::new(), evaluated, None, retries, true),
    }
}

/// NE band proposed by a single-trial fluid sweep over every
/// distribution `k = 0..=n`, in BBR-flow counts.
///
/// The sweep builds the *same* cells as the dense grid
/// ([`crate::payoff::distribution_scenario`], trial 0) and re-targets
/// them at the fluid backend, stripping the early-stop policy (the
/// fluid integrator always runs the full horizon). It runs beside the
/// engine — never through it — so engine statistics and the cache keep
/// counting only certification (DES) work. Returns `None` when any
/// cell is outside the fluid validity envelope (AQM, faults,
/// unmodelled CCAs) or the fluid payoff game has no equilibrium.
#[allow(clippy::too_many_arguments)]
fn fluid_ne_band(
    mbps: f64,
    rtt_ms: f64,
    buffer_bdp: f64,
    n: u32,
    challenger: CcaKind,
    profile: &Profile,
    base_seed: u64,
    discipline: DisciplineSpec,
    faults: &FaultSpec,
) -> Option<(u32, u32)> {
    use crate::payoff::PayoffCurves;
    let name = challenger.name();
    let mut x = vec![0.0; n as usize + 1];
    let mut c = vec![0.0; n as usize + 1];
    for k in 0..=n {
        let mut s = crate::payoff::distribution_scenario(
            mbps, rtt_ms, buffer_bdp, n, k, 0, challenger, profile, base_seed, discipline, faults,
        );
        s.backend = crate::scenario::BackendSpec::Fluid;
        s.early_stop = None;
        let r = s.try_run_with(None, None).ok()?;
        x[k as usize] = r.mean_throughput_of(name).unwrap_or(0.0);
        c[k as usize] = r.mean_throughput_of("cubic").unwrap_or(0.0);
    }
    let curves = PayoffCurves {
        n,
        challenger: name.to_string(),
        x_per_flow: x,
        cubic_per_flow: c,
        queuing_delay_ms: vec![0.0; n as usize + 1],
    };
    let ne = curves.nash_equilibria(default_epsilon_mbps(mbps, n));
    let ks: Vec<u32> = ne.iter().map(|e| n - e.n_cubic).collect();
    Some((*ks.iter().min()?, *ks.iter().max()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_engine;
    use crate::payoff::measure_payoffs;

    /// The dense grid's observed NE set for one pinned case.
    fn dense_ne(engine: &Engine, profile: &Profile, n: u32, seed: u64) -> Vec<u32> {
        measure_payoffs(
            engine,
            20.0,
            20.0,
            2.0,
            n,
            CcaKind::Bbr,
            profile,
            seed,
            DisciplineSpec::DropTail,
            &FaultSpec::default(),
        )
        .observed_ne_cubic_counts(default_epsilon_mbps(20.0, n))
    }

    /// The satellite tolerance test: on a small pinned case the adaptive
    /// search must land within one grid step of the dense-grid NE.
    #[test]
    fn adaptive_ne_is_within_one_grid_step_of_dense() {
        let profile = Profile::smoke();
        let (mbps, rtt_ms, buffer_bdp, n, seed) = (20.0, 20.0, 2.0, 6u32, 0xada7);
        let engine = test_engine();
        let dense = dense_ne(&engine, &profile, n, seed);
        let adaptive = find_ne_adaptive(
            &engine,
            mbps,
            rtt_ms,
            buffer_bdp,
            n,
            CcaKind::Bbr,
            &profile,
            seed,
            DisciplineSpec::DropTail,
            &FaultSpec::default(),
        );
        assert!(
            !adaptive.ne_cubic.is_empty(),
            "adaptive search must certify an equilibrium (dense found {dense:?})"
        );
        for &a in &adaptive.ne_cubic {
            let nearest = dense
                .iter()
                .map(|&d| a.abs_diff(d))
                .min()
                .expect("dense search found no NE to compare against");
            assert!(
                nearest <= 1,
                "adaptive NE {a} is {nearest} steps from the dense set {dense:?}"
            );
        }
    }

    /// Interior equilibria (certified without touching a grid edge) are
    /// exactly the dense equilibria: both run the same per-cell
    /// scenarios and the same NE test.
    #[test]
    fn interior_adaptive_ne_matches_dense_exactly() {
        let profile = Profile::smoke();
        let (mbps, rtt_ms, buffer_bdp, n, seed) = (20.0, 20.0, 2.0, 6u32, 0xada7);
        let engine = test_engine();
        let adaptive = find_ne_adaptive(
            &engine,
            mbps,
            rtt_ms,
            buffer_bdp,
            n,
            CcaKind::Bbr,
            &profile,
            seed,
            DisciplineSpec::DropTail,
            &FaultSpec::default(),
        );
        let dense = dense_ne(&engine, &profile, n, seed);
        if !adaptive.dense_fallback {
            for &a in &adaptive.ne_cubic {
                assert!(
                    dense.contains(&a),
                    "adaptive certified n_cubic={a} but dense set is {dense:?}"
                );
            }
        }
    }

    /// The point of the exercise: the adaptive search simulates a strict
    /// subset of the dense grid when the model bracket holds.
    #[test]
    fn adaptive_search_simulates_fewer_cells_than_dense() {
        let profile = Profile::smoke();
        let (mbps, rtt_ms, buffer_bdp, n, seed) = (20.0, 20.0, 2.0, 8u32, 0xada8);
        let engine = test_engine();
        let adaptive = find_ne_adaptive(
            &engine,
            mbps,
            rtt_ms,
            buffer_bdp,
            n,
            CcaKind::Bbr,
            &profile,
            seed,
            DisciplineSpec::DropTail,
            &FaultSpec::default(),
        );
        if !adaptive.dense_fallback {
            assert!(
                (adaptive.evaluated.len() as u32) < n + 1,
                "evaluated {:?} of a {}-cell grid",
                adaptive.evaluated,
                n + 1
            );
            assert_eq!(
                engine.stats().simulated,
                adaptive.evaluated.len() as u64 * profile.ne_trials.max(1) as u64,
                "each evaluated cell simulates once per trial"
            );
        }
    }

    /// Adaptive cells are the dense grid's cells: identical scenarios,
    /// identical content hashes, so the cache serves one to the other.
    #[test]
    fn adaptive_cells_share_the_dense_grid_cache() {
        let profile = Profile::smoke();
        let (mbps, rtt_ms, buffer_bdp, n, seed) = (20.0, 20.0, 2.0, 6u32, 0xada7);
        let engine = test_engine();
        // Warm the engine with the full dense grid…
        let mut dense_cells = Vec::new();
        for k in 0..=n {
            dense_cells.push(crate::payoff::distribution_scenario(
                mbps,
                rtt_ms,
                buffer_bdp,
                n,
                k,
                0,
                CcaKind::Bbr,
                &profile,
                seed,
                DisciplineSpec::DropTail,
                &FaultSpec::default(),
            ));
        }
        engine.run_all(&dense_cells);
        let warm = engine.stats();
        // …then the adaptive search on the same engine must be all hits.
        let _ = find_ne_adaptive(
            &engine,
            mbps,
            rtt_ms,
            buffer_bdp,
            n,
            CcaKind::Bbr,
            &profile,
            seed,
            DisciplineSpec::DropTail,
            &FaultSpec::default(),
        );
        let after = engine.stats().since(&warm);
        assert_eq!(after.simulated, 0, "adaptive re-simulated a dense cell");
        assert_eq!(after.events_simulated, 0);
    }

    /// An early-stop profile changes the per-cell scenarios (and their
    /// hashes), so stopped and fixed-horizon grids can never alias.
    #[test]
    fn early_stop_profile_changes_the_cells() {
        let profile = Profile::smoke();
        let stopped = Profile {
            early_stop: Some((0.05, 3)),
            ..profile
        };
        let make = |p: &Profile| {
            crate::payoff::distribution_scenario(
                20.0,
                20.0,
                2.0,
                4,
                2,
                0,
                CcaKind::Bbr,
                p,
                7,
                DisciplineSpec::DropTail,
                &FaultSpec::default(),
            )
        };
        assert_ne!(
            crate::engine::scenario_hash(&make(&profile)),
            crate::engine::scenario_hash(&make(&stopped))
        );
    }

    /// Regression for the oracle-retry bugfix: a wrong first band no
    /// longer drops straight to the dense grid — the second oracle's
    /// band is tried, certifies, and is credited.
    #[test]
    fn wrong_first_band_retries_second_oracle_before_dense() {
        let profile = Profile::smoke();
        let (mbps, rtt_ms, buffer_bdp, n, seed) = (20.0, 20.0, 2.0, 6u32, 0xada7);
        let engine = test_engine();
        let dense = dense_ne(&engine, &profile, n, seed);
        let ne_bbr: Vec<u32> = dense.iter().map(|&c| n - c).collect();
        let good = (*ne_bbr.iter().min().unwrap(), *ne_bbr.iter().max().unwrap());
        // A band (plus guard and the widening neighbours) that misses
        // every dense equilibrium: the far end of the grid.
        let wrong_k = if good.0 > n / 2 { 0 } else { n };
        assert!(
            dense.iter().all(|&c| (n - c).abs_diff(wrong_k) > GUARD + 1),
            "need a band at least GUARD+1 cells from every NE to force a disagreement"
        );
        let result = certify_with_bands(
            &engine,
            &[
                (NeOracle::Fluid, (wrong_k, wrong_k)),
                (NeOracle::Model, good),
            ],
            Some(good),
            Some((wrong_k, wrong_k)),
            mbps,
            rtt_ms,
            buffer_bdp,
            n,
            CcaKind::Bbr,
            &profile,
            seed,
            DisciplineSpec::DropTail,
            &FaultSpec::default(),
        );
        assert!(!result.dense_fallback, "retry must spare the dense grid");
        assert_eq!(result.oracle, Some(NeOracle::Model));
        assert_eq!(result.oracle_retries, 1);
        for &a in &result.ne_cubic {
            assert!(dense.contains(&a), "certified {a} not in dense {dense:?}");
        }
    }

    /// When every oracle band is wrong the search still falls back to
    /// the dense grid and reports the dense answer class.
    #[test]
    fn all_wrong_bands_fall_back_to_dense() {
        let profile = Profile::smoke();
        let (mbps, rtt_ms, buffer_bdp, n, seed) = (20.0, 20.0, 2.0, 6u32, 0xada7);
        let engine = test_engine();
        let dense = dense_ne(&engine, &profile, n, seed);
        let wrong_k = if dense.iter().all(|&c| n - c > n / 2) {
            0
        } else {
            n
        };
        let result = certify_with_bands(
            &engine,
            &[(NeOracle::Fluid, (wrong_k, wrong_k))],
            None,
            Some((wrong_k, wrong_k)),
            mbps,
            rtt_ms,
            buffer_bdp,
            n,
            CcaKind::Bbr,
            &profile,
            seed,
            DisciplineSpec::DropTail,
            &FaultSpec::default(),
        );
        assert!(result.dense_fallback);
        assert_eq!(result.oracle, None);
        assert_eq!(result.oracle_retries, 1);
        assert_eq!(
            result.ne_cubic, dense,
            "dense fallback must equal the dense answer"
        );
    }

    /// The fluid oracle proposes a band on an ordinary drop-tail cell
    /// and abstains (rather than erroring) outside its envelope.
    #[test]
    fn fluid_oracle_bands_and_abstains_by_envelope() {
        let profile = Profile::smoke();
        let band = fluid_ne_band(
            20.0,
            20.0,
            2.0,
            6,
            CcaKind::Bbr,
            &profile,
            7,
            DisciplineSpec::DropTail,
            &FaultSpec::default(),
        );
        let (l, h) = band.expect("drop-tail CUBIC-vs-BBR is inside the fluid envelope");
        assert!(l <= h && h <= 6);
        let aqm = fluid_ne_band(
            20.0,
            20.0,
            2.0,
            6,
            CcaKind::Bbr,
            &profile,
            7,
            DisciplineSpec::Codel,
            &FaultSpec::default(),
        );
        assert_eq!(aqm, None, "AQM cells are outside the fluid envelope");
    }

    /// `measure_payoffs` (the dense path) and a subset measurement on a
    /// separate engine agree cell for cell — one seed formula.
    #[test]
    fn dense_grid_uses_the_shared_cell_builder() {
        let profile = Profile::smoke();
        let dense = measure_payoffs(
            &test_engine(),
            20.0,
            20.0,
            2.0,
            4,
            CcaKind::Bbr,
            &profile,
            7,
            DisciplineSpec::DropTail,
            &FaultSpec::default(),
        );
        let subset = measure_payoffs_at_on(
            &test_engine(),
            20.0,
            20.0,
            2.0,
            4,
            &[1, 2, 3],
            CcaKind::Bbr,
            &profile,
            7,
            DisciplineSpec::DropTail,
            &FaultSpec::default(),
        );
        for k in 1..=3usize {
            assert_eq!(
                dense.trials[0].x_per_flow[k], subset.trials[0].x_per_flow[k],
                "cell k={k} differs between dense and subset measurement"
            );
            assert_eq!(
                dense.trials[0].cubic_per_flow[k],
                subset.trials[0].cubic_per_flow[k]
            );
        }
        assert!(subset.trials[0].x_per_flow[0].is_nan());
        assert!(subset.trials[0].x_per_flow[4].is_nan());
    }
}
