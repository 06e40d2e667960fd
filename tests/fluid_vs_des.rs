//! Fluid ↔ DES cross-validation: the documented tolerance contract.
//!
//! The fluid backend's job is to *rank and bracket* — locate the NE band
//! and reproduce steady-state share structure — not to match the DES
//! per-packet. These tests pin the tolerances EXPERIMENTS.md documents
//! ("Fluid backend — cross-validation tolerances"): inside the validity
//! envelope (drop-tail, clean path, backlogged CUBIC/NewReno/BBR/BBRv2,
//! buffers 0.5–8 BDP, ≤ 8 flows, ≥ 20 s horizons) the fluid model's
//!
//! * **BBR aggregate share** stays within `SHARE_TOL` (absolute) of the
//!   DES's window-averaged share, and
//! * **link utilization** stays within `UTIL_TOL` (absolute),
//!
//! where both sides are averaged over `SEEDS` independent seeds (the
//! DES itself spreads ±0.1 in share across seeds at multi-flow mid
//! buffers, so single-seed comparisons would mostly measure DES noise).
//!
//! The envelope is where a continuum model is *valid*: per-flow windows
//! ≳ 10 MSS (C·RTT ≈ 80–170 MSS here) and horizons long enough for the
//! DES's window average to reach steady state (≥ 1000 RTTs). Outside it
//! agreement degrades for known, documented reasons (DESIGN.md): tiny
//! windows break the continuum assumption; large-BDP deep buffers make
//! a fixed 30 s DES window a transient measurement while the fluid
//! model reports steady state. Tolerances were calibrated at
//! `BW_SAMPLE_HEADROOM = 1.2` (worst seed-averaged share delta 0.16,
//! worst utilization delta 0.02); recalibrating means editing that
//! constant in `crates/fluid/src/lib.rs` and rerunning this suite. They
//! are deliberately loose: the two-tier pipeline (fluid locates, DES
//! certifies) only needs the fluid NE band to usually contain the true
//! NE — `crates/experiments/src/adaptive.rs` retries with the Eq. (25)
//! band and then the dense grid when it does not.

use bbrdom_cca::CcaKind;
use bbrdom_experiments::{scenario_hash, BackendSpec, Scenario};
use proptest::prelude::*;

/// Absolute tolerance on the seed-averaged BBR throughput share.
const SHARE_TOL: f64 = 0.25;
/// Absolute tolerance on the seed-averaged link utilization.
const UTIL_TOL: f64 = 0.05;
/// Seeds averaged per comparison (DES share spreads ±0.1 across seeds).
const SEEDS: u64 = 3;

/// BBR aggregate share and utilization of one scenario on one backend.
fn measure(s: &Scenario) -> (f64, f64) {
    let r = s.run();
    let bbr = r.total_throughput_of("bbr") + r.total_throughput_of("bbrv2");
    let total = r.total_throughput();
    (bbr / total.max(1e-12), r.utilization)
}

fn check_agreement(mbps: f64, rtt_ms: f64, buffer_bdp: f64, n_cubic: u32, n_bbr: u32, seed: u64) {
    let (mut des_share, mut des_util, mut fluid_share, mut fluid_util) = (0.0, 0.0, 0.0, 0.0);
    for i in 0..SEEDS {
        let des = Scenario::versus(
            mbps,
            rtt_ms,
            buffer_bdp,
            n_cubic,
            CcaKind::Bbr,
            n_bbr,
            30.0,
            seed.wrapping_add(i * 101),
        );
        let fluid = des.clone().with_backend(BackendSpec::Fluid);
        let (ds, du) = measure(&des);
        let (fs, fu) = measure(&fluid);
        let w = 1.0 / SEEDS as f64;
        des_share += w * ds;
        des_util += w * du;
        fluid_share += w * fs;
        fluid_util += w * fu;
    }
    println!(
        "C={mbps} rtt={rtt_ms} buf={buffer_bdp} {n_cubic}c/{n_bbr}b: \
         share des={des_share:.3} fluid={fluid_share:.3} (Δ{:+.3}) \
         util des={des_util:.3} fluid={fluid_util:.3} (Δ{:+.3})",
        fluid_share - des_share,
        fluid_util - des_util,
    );
    assert!(
        (fluid_share - des_share).abs() <= SHARE_TOL,
        "BBR share disagreement beyond ±{SHARE_TOL}: \
         des={des_share:.3} fluid={fluid_share:.3} \
         (C={mbps} rtt={rtt_ms} buf={buffer_bdp} {n_cubic}c/{n_bbr}b seed={seed})"
    );
    assert!(
        (fluid_util - des_util).abs() <= UTIL_TOL,
        "utilization disagreement beyond ±{UTIL_TOL}: \
         des={des_util:.3} fluid={fluid_util:.3} \
         (C={mbps} rtt={rtt_ms} buf={buffer_bdp} {n_cubic}c/{n_bbr}b seed={seed})"
    );
}

/// The golden cross-validation suite: the paper's canonical operating
/// points (fig 5's 1-vs-1 sweep corners, fig 9's panel parameters).
#[test]
fn fluid_matches_des_on_golden_scenarios() {
    // (mbps, rtt_ms, buffer_bdp, n_cubic, n_bbr) — inside the
    // agreement envelope (see module docs); 1-vs-1 rows only at the
    // 50 Mbps/20 ms operating point where the DES converges fast.
    let suite = [
        (50.0, 20.0, 0.5, 1, 1),
        (50.0, 20.0, 2.0, 1, 1),
        (50.0, 20.0, 8.0, 1, 1),
        (50.0, 20.0, 2.0, 3, 3),
        (50.0, 20.0, 4.0, 2, 4),
        (100.0, 20.0, 1.0, 2, 2),
        (100.0, 20.0, 4.0, 2, 2),
        (100.0, 20.0, 8.0, 3, 3),
    ];
    for (i, &(mbps, rtt, buf, nc, nb)) in suite.iter().enumerate() {
        check_agreement(mbps, rtt, buf, nc, nb, 0x60D + i as u64);
    }
}

/// The qualitative contract the NE search leans on: both backends agree
/// on the *direction* of the buffer asymmetry (the paper's core claim).
#[test]
fn both_backends_agree_bbr_share_falls_with_buffer_depth() {
    for backend in [BackendSpec::Des, BackendSpec::Fluid] {
        let share = |buf: f64| {
            let s = Scenario::versus(50.0, 20.0, buf, 1, CcaKind::Bbr, 1, 30.0, 11)
                .with_backend(backend);
            measure(&s).0
        };
        let shallow = share(0.5);
        let deep = share(8.0);
        assert!(
            shallow > deep,
            "{}: BBR share must fall with buffer depth (0.5 BDP: {shallow:.3}, 8 BDP: {deep:.3})",
            backend.name()
        );
    }
}

proptest! {
    // DES runs are seconds each; a handful of random configs per CI run
    // keeps the property honest without dominating the suite.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Randomized envelope sweep: share/utilization agreement holds
    /// across (C, buffer, N) draws inside the agreement envelope, not
    /// just the pinned suite. Flow counts start at 2-per-side (≥ 4
    /// total) — the NE-search regime the fluid oracle actually serves.
    #[test]
    fn fluid_tracks_des_across_random_configs(
        mbps_i in 0usize..2,
        buffer_bdp in 0.5f64..8.0,
        n_cubic in 2u32..4,
        n_bbr in 2u32..4,
        seed in 1u64..1000,
    ) {
        let mbps = [50.0, 100.0][mbps_i];
        check_agreement(mbps, 20.0, buffer_bdp, n_cubic, n_bbr, seed);
    }
}

/// Same scenario, different backend → different cache key (the
/// stable-hash domain separation the engine's cache depends on), and the
/// key is insensitive to which backend ran first.
#[test]
fn backend_changes_the_cache_key() {
    let des = Scenario::versus(50.0, 20.0, 2.0, 2, CcaKind::Bbr, 2, 10.0, 9);
    let fluid = des.clone().with_backend(BackendSpec::Fluid);
    assert_ne!(scenario_hash(&des), scenario_hash(&fluid));
    // Round-tripping through JSON preserves the domain.
    let back = Scenario::from_json(&fluid.to_json()).unwrap();
    assert_eq!(scenario_hash(&back), scenario_hash(&fluid));
    let back_des = Scenario::from_json(&des.to_json()).unwrap();
    assert_eq!(scenario_hash(&back_des), scenario_hash(&des));
}

/// The fluid backend is bit-deterministic per (scenario, seed) and
/// decorrelated across seeds, like the DES.
#[test]
fn fluid_backend_is_deterministic_and_seed_sensitive() {
    let s = |seed| {
        Scenario::versus(50.0, 20.0, 2.0, 2, CcaKind::Bbr, 2, 15.0, seed)
            .with_backend(BackendSpec::Fluid)
    };
    let a = s(1).run();
    let b = s(1).run();
    assert_eq!(a.throughput_mbps, b.throughput_mbps);
    let c = s(2).run();
    assert_ne!(a.throughput_mbps, c.throughput_mbps);
}
