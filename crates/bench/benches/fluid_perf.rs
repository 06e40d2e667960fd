//! Fluid-backend performance: the simulate-cheap/verify-expensive claim.
//!
//! Not a paper figure — this pins the fluid backend's two promises on
//! one fig 9 panel (100 Mbps / 40 ms, a buffer sweep, every distribution
//! of `n` flows):
//!
//! 1. **Speed**: running the whole payoff grid on the fluid backend is
//!    at least 15× faster wall-clock than the same grid on the packet
//!    DES, both timed in this run through the same engine with the same
//!    job count. A same-run ratio cancels machine speed and load; what it
//!    guards is the fluid backend's cost relative to the DES, so a DES
//!    speedup lowers it (see `MIN_SPEEDUP`).
//! 2. **Fidelity where it counts**: the two-tier adaptive search (fluid
//!    oracle locates the band, DES certifies only the bracket —
//!    `bbrdom_experiments::adaptive`) lands within one grid step of the
//!    dense DES answer on every buffer point of the panel.
//!
//! Both are asserted inline, so a regression fails the bench run.
//! Besides the stdout report, the run writes `BENCH_fluid.json` at the
//! repo root (format documented in `EXPERIMENTS.md`). The speedup is
//! hardware-dependent, so the file records the core count next to it.

use bbrdom_cca::CcaKind;
use bbrdom_experiments::adaptive::find_ne_adaptive_on;
use bbrdom_experiments::engine::{Engine, EngineConfig};
use bbrdom_experiments::payoff::{
    default_epsilon_mbps, distribution_scenario, measure_payoffs_at_on,
};
use bbrdom_experiments::{BackendSpec, DisciplineSpec, FaultSpec, Profile};
use std::time::{Duration, Instant};

/// The pinned fig 9 panel: 100 Mbps / 40 ms, four buffer depths
/// spanning shallow to deep, 6 flows, 20 s horizon. DES cost scales
/// with bandwidth (packets to schedule) while fluid cost scales with
/// steps-per-horizon (inversely with RTT), so the speedup below is
/// panel-dependent; this is a *central* fig 9 panel, not the most
/// favourable one.
const MBPS: f64 = 100.0;
const RTT_MS: f64 = 40.0;
const BUFFERS: [f64; 4] = [0.5, 2.0, 8.0, 32.0];
const N: u32 = 6;
const SEED: u64 = 0xf1d0;
const DURATION_SECS: f64 = 20.0;
/// The pinned speedup floor for the full grid, fluid vs DES.
///
/// Re-based on measurement: eighteen runs on a 2-vCPU Xeon VM (`nproc`
/// 2, jobs 2) measured 29–49× (median ~38×; DES 0.95–1.31 s, fluid
/// 21–40 ms), so 15× sits at half the slowest run. The old 100× floor
/// was set when this DES grid took 21 s on one core (762×); loss-marking
/// and event-path speedups since then brought the ratio under 100×.
const MIN_SPEEDUP: f64 = 15.0;

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

/// Smallest grid distance between two observed NE sets (`None` when
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

fn fmt_set(s: &[u32]) -> String {
    let inner = s
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    format!("[{inner}]")
}

fn main() {
    let (model, nproc) = bbrdom_bench::machine();
    let jobs = nproc.min(4);
    let profile = Profile {
        duration_secs: DURATION_SECS,
        ne_flows: N,
        ne_trials: 1,
        ..Profile::smoke()
    };
    let eps = default_epsilon_mbps(MBPS, N);
    let all_ks: Vec<u32> = (0..=N).collect();

    // The full panel grid: every (buffer, k) cell, on each backend.
    let grid = |backend: BackendSpec| -> Vec<bbrdom_experiments::Scenario> {
        BUFFERS
            .iter()
            .flat_map(|&buf| {
                all_ks.iter().map(move |&k| {
                    let mut s = distribution_scenario(
                        MBPS,
                        RTT_MS,
                        buf,
                        N,
                        k,
                        0,
                        CcaKind::Bbr,
                        &profile,
                        SEED,
                        DisciplineSpec::DropTail,
                        &FaultSpec::default(),
                    );
                    s.backend = backend;
                    s
                })
            })
            .collect()
    };

    let des_engine = engine(jobs);
    let des_grid = grid(BackendSpec::Des);
    let (_, des_wall) = time(|| des_engine.run_all(&des_grid));

    let fluid_engine = engine(jobs);
    let fluid_grid = grid(BackendSpec::Fluid);
    let (_, fluid_wall) = time(|| fluid_engine.run_all(&fluid_grid));

    let speedup = des_wall.as_secs_f64() / fluid_wall.as_secs_f64().max(1e-9);
    println!(
        "fluid_perf/grid: {} cells  DES {des_wall:>8.3?}  fluid {fluid_wall:>8.3?}  ({speedup:.0}x)",
        des_grid.len()
    );
    assert!(
        speedup >= MIN_SPEEDUP,
        "fluid grid must be >= {MIN_SPEEDUP}x faster than DES (measured {speedup:.1}x)"
    );

    // Two-tier NE per buffer point vs the dense DES answer.
    let mut rows = Vec::new();
    for &buf in &BUFFERS {
        let dense_ne = measure_payoffs_at_on(
            &engine(jobs),
            MBPS,
            RTT_MS,
            buf,
            N,
            &all_ks,
            CcaKind::Bbr,
            &profile,
            SEED,
            DisciplineSpec::DropTail,
            &FaultSpec::default(),
        )
        .observed_ne_cubic_counts(eps);
        let two_tier = find_ne_adaptive_on(
            &engine(jobs),
            MBPS,
            RTT_MS,
            buf,
            N,
            CcaKind::Bbr,
            &profile,
            SEED,
            DisciplineSpec::DropTail,
            &FaultSpec::default(),
        );
        let distance = ne_distance(&two_tier.ne_cubic, &dense_ne);
        println!(
            "fluid_perf/ne buf={buf}: dense {dense_ne:?} two-tier {:?} \
             (fluid band {:?}, oracle {:?}, retries {}, fallback {})",
            two_tier.ne_cubic,
            two_tier.fluid_band,
            two_tier.oracle.map(|o| o.name()),
            two_tier.oracle_retries,
            two_tier.dense_fallback,
        );
        assert!(
            distance.is_some_and(|d| d <= 1),
            "two-tier NE {:?} must land within one grid step of dense {dense_ne:?} at buf={buf}",
            two_tier.ne_cubic
        );
        rows.push(format!(
            "    {{\"buffer_bdp\": {buf}, \"dense_ne_cubic\": {}, \"two_tier_ne_cubic\": {}, \
             \"ne_grid_distance\": {}, \"oracle\": {}, \"oracle_retries\": {}, \
             \"dense_fallback\": {}}}",
            fmt_set(&dense_ne),
            fmt_set(&two_tier.ne_cubic),
            distance.expect("checked above"),
            two_tier
                .oracle
                .map(|o| format!("\"{}\"", o.name()))
                .unwrap_or_else(|| "null".to_string()),
            two_tier.oracle_retries,
            two_tier.dense_fallback,
        ));
    }

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fluid.json");
    let json = format!(
        "{{\n  \"schema\": \"fluid-perf-v2\",\n  \"machine\": {},\n  \"nproc\": {nproc},\n  \
         \"jobs\": {jobs},\n  \
         \"panel\": {{\"mbps\": {MBPS}, \"rtt_ms\": {RTT_MS}, \"buffers_bdp\": [0.5, 2.0, 8.0, 32.0], \
         \"n\": {N}, \"duration_secs\": {DURATION_SECS}, \"seed\": {SEED}}},\n  \
         \"grid_cells\": {},\n  \"des_secs\": {:.6},\n  \"fluid_secs\": {:.6},\n  \
         \"speedup\": {speedup:.1},\n  \"min_speedup\": {MIN_SPEEDUP},\n  \
         \"ne_rows\": [\n{}\n  ]\n}}\n",
        bbrdom_netsim::json::Value::Str(model).to_json(),
        des_grid.len(),
        des_wall.as_secs_f64(),
        fluid_wall.as_secs_f64(),
        rows.join(",\n"),
    );
    std::fs::write(out, json).expect("write BENCH_fluid.json");
    println!("wrote {out}");
}
