//! Fluid-backend performance: the simulate-cheap/verify-expensive claim.
//!
//! Not a paper figure — this times the fluid kernel alone and pins the
//! fluid backend's speed on one fig 9 panel (100 Mbps / 40 ms, a buffer
//! sweep, every distribution of `n` flows):
//!
//! 0. **Kernel**: `bbrdom_fluid::simulate` alone, with no engine, over an
//!    n = 50 grid shaped like the `ne-fluid` workload of `e2ebench`,
//!    costs at most [`MAX_NS_PER_FLOW_STEP`] per flow-step in the median
//!    of `BENCH_SAMPLES` passes (default 15).
//! 1. **Speed**: running the whole payoff grid on the fluid backend is
//!    at least 15× faster wall-clock than the same grid on the packet
//!    DES, both timed in this run through the same engine with the same
//!    job count. A same-run ratio cancels machine speed and load; what it
//!    guards is the fluid backend's cost relative to the DES, so a DES
//!    speedup lowers it (see `MIN_SPEEDUP`).
//!
//! Both are asserted inline, so a regression fails the bench run.
//! Besides the stdout report, the run writes `BENCH_fluid.json` at the
//! repo root (format documented in `EXPERIMENTS.md`). The speedup is
//! hardware-dependent, so the file records the core count next to it.

use bbrdom_cca::CcaKind;
use bbrdom_experiments::engine::{Engine, EngineConfig};
use bbrdom_experiments::payoff::distribution_scenario;
use bbrdom_experiments::{fluid_backend, BackendSpec, DisciplineSpec, FaultSpec, Profile};
use bbrdom_fluid::FluidConfig;
use std::hint::black_box;
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

/// The kernel case's grid: `ne-fluid`'s two panels and four buffers, n =
/// 50 flows, 10 s cells, at every tenth split (48 cells, 432k steps).
const KERNEL_PANELS: [(f64, f64); 2] = [(50.0, 20.0), (100.0, 40.0)];
const KERNEL_N: u32 = 50;
const KERNEL_SPLIT_STEP: usize = 10;
const KERNEL_DURATION_SECS: f64 = 10.0;
/// The pinned ceiling on the kernel's median cost per flow-step, about
/// twice the measured median (a floor on flow-steps/s at about half):
/// eleven runs on a 2-vCPU Xeon VM measured medians of 6.5–11.4 ns
/// (median 8.2; the highest while other tenants loaded the VM), against
/// 9.9–16.9 ns for the kernel that looped over a vector of per-flow
/// enums, alternated with them.
const MAX_NS_PER_FLOW_STEP: f64 = 16.0;

/// The kernel case's configurations, lowered as the engine lowers them.
fn kernel_grid() -> Vec<FluidConfig> {
    let profile = &Profile {
        duration_secs: KERNEL_DURATION_SECS,
        ne_flows: KERNEL_N,
        ne_trials: 1,
        backend: BackendSpec::Fluid,
        ..Profile::quick()
    };
    KERNEL_PANELS
        .iter()
        .flat_map(|&(mbps, rtt_ms)| {
            BUFFERS.iter().flat_map(move |&buf| {
                (0..=KERNEL_N).step_by(KERNEL_SPLIT_STEP).map(move |k| {
                    let s = distribution_scenario(
                        mbps,
                        rtt_ms,
                        buf,
                        KERNEL_N,
                        k,
                        0,
                        CcaKind::Bbr,
                        profile,
                        SEED,
                        DisciplineSpec::DropTail,
                        &FaultSpec::default(),
                    );
                    fluid_backend::lower(&s).expect("the kernel grid lies in the fluid envelope")
                })
            })
        })
        .collect()
}

/// Nanoseconds per flow-step of one pass of `simulate` over `grid`.
fn kernel_pass(grid: &[FluidConfig], flow_steps: u64) -> f64 {
    let start = Instant::now();
    for cfg in grid {
        black_box(bbrdom_fluid::simulate(cfg).expect("valid config"));
    }
    start.elapsed().as_secs_f64() * 1e9 / flow_steps as f64
}

fn engine(jobs: usize) -> Engine {
    Engine::new(EngineConfig {
        jobs,
        disk_cache: None,
        memory_cache: true,
        result_store: false,
        ..EngineConfig::default()
    })
}

fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

fn main() {
    let (model, nproc) = bbrdom_bench::machine();
    let jobs = nproc.min(4);
    let samples: usize = std::env::var("BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or(15);

    // The kernel alone: one untimed pass, then `samples` timed ones.
    let kernel = kernel_grid();
    let flow_steps: u64 = kernel
        .iter()
        .map(|cfg| cfg.steps() * cfg.flows.len() as u64)
        .sum();
    kernel_pass(&kernel, flow_steps);
    let mut ns: Vec<f64> = (0..samples)
        .map(|_| kernel_pass(&kernel, flow_steps))
        .collect();
    ns.sort_by(f64::total_cmp);
    let (ns_min, ns_median, ns_max) = (ns[0], ns[samples / 2], ns[samples - 1]);
    println!(
        "fluid_perf/kernel: {} cells, {flow_steps} flow-steps  median {ns_median:.2} ns/flow-step \
         (min {ns_min:.2}, max {ns_max:.2}, {samples} samples)",
        kernel.len()
    );
    assert!(
        ns_median <= MAX_NS_PER_FLOW_STEP,
        "fluid kernel must cost <= {MAX_NS_PER_FLOW_STEP} ns per flow-step (median {ns_median:.2})"
    );
    let profile = Profile {
        duration_secs: DURATION_SECS,
        ne_flows: N,
        ne_trials: 1,
        ..Profile::smoke()
    };
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

    let json = format!(
        "{{\n  \"schema\": \"fluid-perf-v4\",\n  \"machine\": {},\n  \"nproc\": {nproc},\n  \
         \"jobs\": {jobs},\n  \
         \"kernel\": {{\"panels\": [[50, 20], [100, 40]], \"buffers_bdp\": [0.5, 2.0, 8.0, 32.0], \
         \"n\": {KERNEL_N}, \"split_step\": {KERNEL_SPLIT_STEP}, \"duration_secs\": {KERNEL_DURATION_SECS}, \
         \"seed\": {SEED}, \"cells\": {}, \"flow_steps\": {flow_steps}, \"samples\": {samples}, \
         \"ns_per_flow_step\": {{\"min\": {ns_min:.3}, \"median\": {ns_median:.3}, \"max\": {ns_max:.3}}}, \
         \"max_ns_per_flow_step\": {MAX_NS_PER_FLOW_STEP}}},\n  \
         \"panel\": {{\"mbps\": {MBPS}, \"rtt_ms\": {RTT_MS}, \"buffers_bdp\": [0.5, 2.0, 8.0, 32.0], \
         \"n\": {N}, \"duration_secs\": {DURATION_SECS}, \"seed\": {SEED}}},\n  \
         \"grid_cells\": {},\n  \"des_secs\": {:.6},\n  \"fluid_secs\": {:.6},\n  \
         \"speedup\": {speedup:.1},\n  \"min_speedup\": {MIN_SPEEDUP}\n}}\n",
        bbrdom_netsim::json::Value::Str(model).to_json(),
        kernel.len(),
        des_grid.len(),
        des_wall.as_secs_f64(),
        fluid_wall.as_secs_f64(),
    );
    bbrdom_bench::write_record("BENCH_fluid.json", &json);
}
