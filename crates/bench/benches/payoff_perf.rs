//! Payoff-engine performance: parallel speedup and cache effectiveness.
//!
//! Not a paper figure — this tracks the scenario engine
//! (`bbrdom_experiments::engine`) that every payoff matrix and NE search
//! runs through: a payoff-shaped batch of simulations timed three ways —
//! serial and uncached (the PR-3 baseline), parallel across the
//! machine's cores, and a warm rerun against a populated disk cache. The
//! run also verifies the engine's core guarantee inline: the parallel
//! result vector must be bit-identical to the serial one.
//!
//! Besides the stdout report, the run writes `BENCH_payoff.json` at the
//! repo root (format documented in `EXPERIMENTS.md`). Speedup is
//! machine-relative — the file records the CPU model and count next to
//! the numbers, so a 1-core box reporting ~1.0x is expected, not a
//! regression.

use bbrdom_cca::CcaKind;
use bbrdom_experiments::engine::{Engine, EngineConfig};
use bbrdom_experiments::Scenario;
use std::time::{Duration, Instant};

/// A payoff-matrix-shaped batch: every CUBIC/BBR split of `n` flows,
/// several trial seeds each — the workload `payoff::measure_payoffs`
/// fans out.
fn payoff_batch() -> Vec<Scenario> {
    let n = 4u32;
    let trials = 3u64;
    let mut scenarios = Vec::new();
    for n_bbr in 0..=n {
        for trial in 0..trials {
            scenarios.push(Scenario::versus(
                20.0,
                20.0,
                2.0,
                n - n_bbr,
                CcaKind::Bbr,
                n_bbr,
                2.0,
                1 + trial * 7919,
            ));
        }
    }
    scenarios
}

fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

fn result_fingerprint(results: &[std::sync::Arc<bbrdom_experiments::TrialResult>]) -> String {
    results
        .iter()
        .map(|r| r.to_json_value().to_json())
        .collect::<Vec<_>>()
        .join("\n")
}

fn main() {
    let scenarios = payoff_batch();
    let (model, nproc) = bbrdom_bench::machine();
    let jobs = nproc.min(4);

    let uncached = || Engine::new(EngineConfig::serial_uncached());
    // Warm-up: fault the code paths and page in the batch once.
    uncached().run_all_jobs(&scenarios[..2.min(scenarios.len())], 1);

    let (serial_results, serial) = time(|| uncached().run_all_jobs(&scenarios, 1));
    let (parallel_results, parallel) = time(|| uncached().run_all_jobs(&scenarios, jobs));

    let bit_identical =
        result_fingerprint(&serial_results) == result_fingerprint(&parallel_results);
    assert!(
        bit_identical,
        "parallel payoff results diverged from serial — engine determinism is broken"
    );

    // Disk cache: one cold populating run, then a timed warm rerun.
    let cache_dir =
        std::env::temp_dir().join(format!("bbrdom-payoff-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let with_cache = || {
        Engine::new(EngineConfig {
            jobs,
            disk_cache: Some(cache_dir.clone()),
            memory_cache: false,
            result_store: true,
            ..EngineConfig::default()
        })
    };
    with_cache().run_all(&scenarios);
    let warm_engine = with_cache();
    let (_, warm) = time(|| warm_engine.run_all(&scenarios));
    let stats = warm_engine.stats();
    let skipped_pct = 100.0 * stats.skipped() as f64 / stats.total().max(1) as f64;
    let _ = std::fs::remove_dir_all(&cache_dir);

    let speedup = serial.as_secs_f64() / parallel.as_secs_f64().max(1e-9);
    let warm_speedup = serial.as_secs_f64() / warm.as_secs_f64().max(1e-9);
    println!(
        "payoff/{} scenarios: serial {:>9.3?}  jobs={jobs} {:>9.3?} ({speedup:.2}x)  \
         warm-cache {:>9.3?} ({warm_speedup:.1}x, {skipped_pct:.0}% skipped)  \
         [{nproc} CPUs, bit-identical: {bit_identical}]",
        scenarios.len(),
        serial,
        parallel,
        warm,
    );

    // Repo root: two levels up from this crate's manifest.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_payoff.json");
    let json = format!(
        "{{\n  \"schema\": \"payoff-perf-v2\",\n  \"machine\": {},\n  \"nproc\": {nproc},\n  \
         \"jobs\": {jobs},\n  \
         \"scenarios\": {},\n  \"serial_secs\": {:.6},\n  \"parallel_secs\": {:.6},\n  \
         \"speedup\": {:.3},\n  \"warm_cache_secs\": {:.6},\n  \"warm_cache_speedup\": {:.1},\n  \
         \"cache_skipped_pct\": {:.1},\n  \"bit_identical\": {bit_identical}\n}}\n",
        bbrdom_netsim::json::Value::Str(model).to_json(),
        scenarios.len(),
        serial.as_secs_f64(),
        parallel.as_secs_f64(),
        speedup,
        warm.as_secs_f64(),
        warm_speedup,
        skipped_pct,
    );
    std::fs::write(out, json).expect("write BENCH_payoff.json");
    println!("wrote {out}");
}
