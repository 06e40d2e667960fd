//! Result-store performance: store-hit figure assembly vs the warm
//! disk-hit path that reads each cell's cache entry.
//!
//! Not a paper figure — this pins the indexed result store's perf
//! claim on a fig 9/11-shaped grid: once the index is populated,
//! assembling the whole grid from store hits (no simulation, no file
//! read) must be at least `MIN_SPEEDUP` times faster than the warm
//! disk-hit path, which opens and parses one cache entry (the cell's
//! index line) per cell. Both paths are timed in this run on the same
//! grid, so the ratio cancels machine speed and load; what it guards is
//! the store's lookup against a per-cell read. Bit-identity between the
//! two paths is asserted inline, as is the zero-simulation /
//! zero-entry-read invariant on the store engine.
//!
//! Besides the stdout report, the run writes `BENCH_store.json` at the
//! repo root (format documented in `EXPERIMENTS.md`). The index-load
//! cost is reported separately (`store_open_secs`) because it is paid
//! once per process, not per cell. Each path is timed over `SAMPLES`
//! passes and the ratio is of their medians. Set `BENCH_STORE_CELLS` to
//! resize the grid (default 1000) and `BENCH_NO_FLOOR=1` to report
//! without gating.

use bbrdom_cca::CcaKind;
use bbrdom_experiments::engine::{Engine, EngineConfig};
use bbrdom_experiments::Scenario;
use std::path::Path;
use std::time::{Duration, Instant};

/// The pinned floor on median disk-hit time over median store-hit time.
///
/// Re-based on measurement when cache entries became index lines: 24
/// runs on a 2-vCPU Xeon VM (`nproc` 2, jobs 2, 15 samples each)
/// measured 3.5–7.2× (1000 cells: disk hit 18–30 ms, store 3.3–6.0 ms;
/// 200 cells: 3.8–7.1×), so 1.75× sits at half the slowest run. The old
/// 10× floor was against parsing a full `SimReport` per cell, a path
/// that no longer exists.
const MIN_SPEEDUP: f64 = 1.75;

/// Timed whole-grid passes per path; `MIN_SPEEDUP` was measured at this
/// count.
const SAMPLES: usize = 15;

/// A ~1k-cell figure-shaped grid: short trials, distinct seeds, a few
/// capacity rows — the workload a fig 9/11 assembly fans out after a
/// sweep has already filled the cache.
fn grid(cells: usize) -> Vec<Scenario> {
    (0..cells)
        .map(|k| {
            Scenario::versus(
                10.0 + (k % 16) as f64,
                20.0,
                1.0,
                1,
                CcaKind::Bbr,
                1,
                0.3,
                100_000 + k as u64,
            )
        })
        .collect()
}

fn engine(cache: &Path, jobs: usize, store: bool) -> Engine {
    Engine::new(EngineConfig {
        jobs,
        disk_cache: Some(cache.to_path_buf()),
        memory_cache: false,
        supervise: None,
        result_store: store,
    })
}

fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

fn fingerprint(results: &[bbrdom_experiments::TrialResult]) -> String {
    results
        .iter()
        .map(|r| r.to_json_value().to_json())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Sorted pass times of `SAMPLES` whole-grid assemblies.
struct Passes(Vec<Duration>);

impl Passes {
    fn median(&self) -> Duration {
        self.0[self.0.len() / 2]
    }

    fn json(&self) -> String {
        format!(
            "{{\"median_secs\": {:.6}, \"min_secs\": {:.6}, \"max_secs\": {:.6}}}",
            self.median().as_secs_f64(),
            self.0[0].as_secs_f64(),
            self.0[self.0.len() - 1].as_secs_f64(),
        )
    }
}

/// Time `SAMPLES` assemblies of the grid on one engine, checking that
/// every pass returns the `expected` results.
fn passes(engine: &Engine, scenarios: &[Scenario], expected: &str) -> Passes {
    let mut times: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let (results, t) = time(|| engine.run_all(scenarios));
            assert_eq!(
                fingerprint(&results),
                expected,
                "warm results diverged from the simulated ones"
            );
            t
        })
        .collect();
    times.sort();
    Passes(times)
}

fn main() {
    let cells = std::env::var("BENCH_STORE_CELLS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000usize)
        .max(1);
    let (model, nproc) = bbrdom_bench::machine();
    let jobs = nproc.min(8);
    let scenarios = grid(cells);

    let cache = std::env::temp_dir().join(format!("bbrdom-store-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);

    // Cold populate: simulate every cell once, writing cache + index.
    let populate_engine = engine(&cache, jobs, true);
    let (populated, cold) = time(|| populate_engine.run_all(&scenarios));
    assert_eq!(populate_engine.stats().simulated, cells as u64);
    let expected = fingerprint(&populated);

    // Disk-hit baseline: the store off, so every cell reads and parses
    // its cache entry. One untimed pass first so both contenders run
    // against a hot page cache.
    let disk_engine = engine(&cache, jobs, false);
    disk_engine.run_all(&scenarios);
    let disk = passes(&disk_engine, &scenarios, &expected);
    assert_eq!(
        disk_engine.stats().disk_hits,
        (cells * (SAMPLES + 1)) as u64
    );

    // Store path: index load (once per process, timed separately),
    // then pure in-memory lookups.
    let store_engine = engine(&cache, jobs, true);
    let (_, store_open) = time(|| store_engine.store().expect("store configured").len());
    let store = passes(&store_engine, &scenarios, &expected);
    let stats = store_engine.stats();
    assert_eq!(stats.simulated, 0, "warm store must simulate nothing");
    assert_eq!(stats.disk_hits, 0, "warm store must read no cache entries");
    assert_eq!(stats.store_hits, (cells * SAMPLES) as u64);
    let _ = std::fs::remove_dir_all(&cache);

    let speedup = disk.median().as_secs_f64() / store.median().as_secs_f64().max(1e-9);
    let gated = std::env::var("BENCH_NO_FLOOR").map_or(true, |v| v != "1");
    let per_cell_us = |p: &Passes| p.median().as_secs_f64() * 1e6 / cells as f64;
    println!(
        "store/{cells} cells: cold {cold:>9.3?}  disk-hit {:>9.3?} ({:.1} us/cell)  \
         store-open {store_open:>9.3?} + assembly {:>9.3?} ({:.2} us/cell)  ({speedup:.1}x)  \
         [{nproc} cpus, jobs={jobs}, {SAMPLES} samples, medians]",
        disk.median(),
        per_cell_us(&disk),
        store.median(),
        per_cell_us(&store),
    );
    if gated {
        assert!(
            speedup >= MIN_SPEEDUP,
            "store-hit assembly is {speedup:.1}x vs the disk-hit path, need >= {MIN_SPEEDUP}x \
             (BENCH_NO_FLOOR=1 to report without gating)"
        );
    }

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_store.json");
    let json = format!(
        "{{\n  \"schema\": \"store-perf-v2\",\n  \"machine\": {},\n  \"nproc\": {nproc},\n  \
         \"jobs\": {jobs},\n  \"samples\": {SAMPLES},\n  \"cells\": {cells},\n  \
         \"cold_populate_secs\": {:.6},\n  \"disk_hit\": {},\n  \
         \"store_open_secs\": {:.6},\n  \"store_assembly\": {},\n  \
         \"speedup\": {speedup:.1},\n  \"min_speedup\": {MIN_SPEEDUP},\n  \
         \"floor_gated\": {gated},\n  \"bit_identical\": true\n}}\n",
        bbrdom_netsim::json::Value::Str(model).to_json(),
        cold.as_secs_f64(),
        disk.json(),
        store_open.as_secs_f64(),
        store.json(),
    );
    std::fs::write(out, json).expect("write BENCH_store.json");
    println!("wrote {out}");
}
