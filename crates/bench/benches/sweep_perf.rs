//! Sweep-scale performance: adaptive NE search + early termination vs
//! the dense fixed-horizon grid.
//!
//! Not a paper figure — this pins the PR's perf claim on one case: the
//! dense §4.4 NE search simulates every distribution `k = 0..=n` to the
//! full horizon, while the model-guided adaptive search
//! (`bbrdom_experiments::adaptive`, `repro --adaptive`) simulates only
//! the cells near the Eq. (25) crossing, each run cut short by the
//! convergence detector (`--early-stop`). Both paths must land on the
//! same equilibrium cell (within one grid step); the adaptive path must
//! simulate at least 3× fewer events and finish in less wall-clock.
//! These are asserted inline, so a regression fails the bench run.
//!
//! Besides the stdout report, the run writes `BENCH_sweep.json` at the
//! repo root (format documented in `EXPERIMENTS.md`). Event counts are
//! machine-independent; the wall-clock columns are not, so the file
//! records the core count next to them.

use bbrdom_cca::CcaKind;
use bbrdom_experiments::adaptive::find_ne_adaptive;
use bbrdom_experiments::engine::{Engine, EngineConfig};
use bbrdom_experiments::payoff::{default_epsilon_mbps, measure_payoffs_at_on};
use bbrdom_experiments::{DisciplineSpec, FaultSpec, Profile};
use std::time::{Duration, Instant};

/// The pinned case: 8 flows on a 30 Mbps / 20 ms / 5 BDP bottleneck,
/// 40 s horizon — big enough that the dense grid visibly pays for its
/// 9 full-horizon cells, small enough for a CI smoke.
const MBPS: f64 = 30.0;
const RTT_MS: f64 = 20.0;
const BUFFER_BDP: f64 = 5.0;
const N: u32 = 8;
const SEED: u64 = 0x57e9;
const DURATION_SECS: f64 = 40.0;

/// Early-stop policy for the adaptive side. The per-flow goodput of an
/// 8-flow CUBIC/BBR mix keeps trading ~10-20% between 1 s windows even
/// in steady state, so the detector tolerance sits above that band.
const EARLY_STOP: (f64, u32) = (0.4, 2);

fn engine(jobs: usize) -> Engine {
    Engine::new(EngineConfig {
        jobs,
        disk_cache: None,
        memory_cache: true,
        supervise: None,
        result_store: false,
    })
}

fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Smallest grid distance between the two observed NE sets (`None` when
/// exactly one side is empty — an automatic failure).
fn ne_distance(a: &[u32], b: &[u32]) -> Option<u32> {
    match (a.is_empty(), b.is_empty()) {
        (true, true) => Some(0),
        (true, false) | (false, true) => None,
        _ => a
            .iter()
            .flat_map(|&x| b.iter().map(move |&y| x.abs_diff(y)))
            .min(),
    }
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let jobs = cores.min(4);
    let dense_profile = Profile {
        duration_secs: DURATION_SECS,
        ne_flows: N,
        ne_trials: 1,
        ..Profile::smoke()
    };
    let adaptive_profile = Profile {
        adaptive: true,
        early_stop: Some(EARLY_STOP),
        ..dense_profile
    };
    let all_ks: Vec<u32> = (0..=N).collect();
    let eps = default_epsilon_mbps(MBPS, N);

    // Dense baseline: every distribution, full horizon.
    let dense_engine = engine(jobs);
    let (dense_ne, dense_wall) = time(|| {
        measure_payoffs_at_on(
            &dense_engine,
            MBPS,
            RTT_MS,
            BUFFER_BDP,
            N,
            &all_ks,
            CcaKind::Bbr,
            &dense_profile,
            SEED,
            DisciplineSpec::DropTail,
            &FaultSpec::default(),
        )
        .observed_ne_cubic_counts(eps)
    });
    let dense_events = dense_engine.stats().events_simulated;

    // Adaptive: model-seeded bracket, convergence-stopped runs.
    let adaptive_engine = engine(jobs);
    let (adaptive, adaptive_wall) = time(|| {
        find_ne_adaptive(
            &adaptive_engine,
            MBPS,
            RTT_MS,
            BUFFER_BDP,
            N,
            CcaKind::Bbr,
            &adaptive_profile,
            SEED,
            DisciplineSpec::DropTail,
            &FaultSpec::default(),
        )
    });
    let adaptive_events = adaptive_engine.stats().events_simulated;

    let distance = ne_distance(&adaptive.ne_cubic, &dense_ne);
    let reduction = dense_events as f64 / adaptive_events.max(1) as f64;
    println!(
        "sweep/n={N}: dense {} cells {dense_events} events {dense_wall:>8.3?}  \
         adaptive {} cells {adaptive_events} events {adaptive_wall:>8.3?}  \
         ({reduction:.1}x fewer events; NE dense {dense_ne:?} vs adaptive {:?}; \
         band {:?}; fallback {})",
        all_ks.len(),
        adaptive.evaluated.len(),
        adaptive.ne_cubic,
        adaptive.model_band,
        adaptive.dense_fallback,
    );

    assert!(
        distance.is_some_and(|d| d <= 1),
        "adaptive NE {:?} must land within one grid step of dense {:?}",
        adaptive.ne_cubic,
        dense_ne
    );
    assert!(
        adaptive_events * 3 <= dense_events,
        "adaptive simulated {adaptive_events} events, need <= 1/3 of dense {dense_events}"
    );
    assert!(
        adaptive_wall < dense_wall,
        "adaptive wall-clock {adaptive_wall:?} must beat dense {dense_wall:?}"
    );

    let fmt_set = |s: &[u32]| {
        let inner = s
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        format!("[{inner}]")
    };
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json");
    let json = format!(
        "{{\n  \"schema\": \"sweep-perf-v1\",\n  \"cores\": {cores},\n  \"jobs\": {jobs},\n  \
         \"case\": {{\"mbps\": {MBPS}, \"rtt_ms\": {RTT_MS}, \"buffer_bdp\": {BUFFER_BDP}, \
         \"n\": {N}, \"duration_secs\": {DURATION_SECS}, \"seed\": {SEED}}},\n  \
         \"early_stop\": {{\"epsilon\": {}, \"dwell\": {}}},\n  \
         \"dense_cells\": {},\n  \"dense_events\": {dense_events},\n  \
         \"dense_secs\": {:.6},\n  \
         \"adaptive_cells\": {},\n  \"adaptive_events\": {adaptive_events},\n  \
         \"adaptive_secs\": {:.6},\n  \"event_reduction\": {reduction:.2},\n  \
         \"dense_ne_cubic\": {},\n  \"adaptive_ne_cubic\": {},\n  \
         \"ne_grid_distance\": {},\n  \"dense_fallback\": {}\n}}\n",
        EARLY_STOP.0,
        EARLY_STOP.1,
        all_ks.len(),
        dense_wall.as_secs_f64(),
        adaptive.evaluated.len(),
        adaptive_wall.as_secs_f64(),
        fmt_set(&dense_ne),
        fmt_set(&adaptive.ne_cubic),
        distance.expect("checked above"),
        adaptive.dense_fallback,
    );
    std::fs::write(out, json).expect("write BENCH_sweep.json");
    println!("wrote {out}");
}
