//! Result-store performance: store-hit figure assembly vs cold
//! simulation of the same grid, and the rate at which `Store::open`
//! reads an index of n = 50 fluid cells.
//!
//! Not a paper figure — this pins the indexed result store's perf
//! claims on a fig 9/11-shaped grid: once the index is populated,
//! assembling the whole grid from store hits (no simulation, no file
//! read) must be at least `MIN_SPEEDUP` times faster than the cold pass
//! that simulated the grid and wrote the index. Both are timed in this
//! run on the same grid, so the ratio cancels machine speed and load;
//! what it guards is that a store hit stays a lookup, not a per-cell
//! cost of the order of a short simulation. Bit-identity between the
//! two paths is asserted inline, as is the zero-simulation invariant on
//! the store engine.
//!
//! The second claim is the warm-rerun set-up: an index of n = 50 fluid
//! cells (a fig 9 panel at the paper's scale, whose lines carry fifty
//! flows and long backoff lists) is opened `SAMPLES` times, and the
//! median read rate must reach `MIN_OPEN_MB_PER_S`. Alternating with the
//! opens, the same lines are parsed into `json::Value` trees; the open
//! rate must be at least `MIN_OPEN_VS_TREE` times the tree rate, so
//! reading index lines through a tree again fails on any machine.
//! Alternating with both, every entry of that index is written back to
//! its line with `StoreEntry::to_json_line`, byte for byte the index,
//! and the median write rate must reach `MIN_WRITE_MB_PER_S`.
//!
//! Besides the stdout report, the run writes `BENCH_store.json` at the
//! repo root (format documented in `EXPERIMENTS.md`). The index-load
//! cost of the DES grid is reported separately (`store_open_secs`)
//! because it is paid once per process, not per cell. The cold pass
//! runs once; store assembly is timed over `SAMPLES` passes and the
//! ratio is against their median. Set `BENCH_STORE_CELLS` to resize the
//! DES grid (default 1000) and `BENCH_NO_FLOOR=1` to report without
//! gating.

use bbrdom_cca::CcaKind;
use bbrdom_experiments::engine::{Engine, EngineConfig};
use bbrdom_experiments::store::{Store, INDEX_FILE};
use bbrdom_experiments::{BackendSpec, Scenario};
use bbrdom_netsim::json;
use std::path::Path;
use std::time::{Duration, Instant};

/// The pinned floor on cold-pass time over median store-hit time.
///
/// Re-based when the per-cell entry files, and with them the disk-hit
/// path the old 1.75× floor was measured against, were deleted: 24 runs
/// on a 2-vCPU Xeon VM (`nproc` 2, jobs 2, 15 samples each) measured
/// 37.6–61.1× at 1000 cells (cold 119–184 ms, store 2.7–4.0 ms) and
/// 36.0–52.5× at 200 cells, so 18× sits at half the slowest run.
const MIN_SPEEDUP: f64 = 18.0;

/// Timed store-hit passes and timed opens of the fluid index;
/// `MIN_SPEEDUP`, `MIN_OPEN_MB_PER_S` and `MIN_OPEN_VS_TREE` were
/// measured at this count.
const SAMPLES: usize = 15;

/// The pinned floor on the median rate at which `Store::open` reads the
/// n = 50 fluid index, MB/s. 10 runs on a 2-vCPU Xeon VM (`nproc` 2,
/// 15 samples each, 5.4 MB index) measured medians of 159–241 MB/s, so
/// 79 sits at half the slowest; the tree-building reader it replaced
/// read the same index at 81–120 MB/s in the same runs. This floor does
/// not separate the two readers (the machine's speed moves both);
/// `MIN_OPEN_VS_TREE` does.
const MIN_OPEN_MB_PER_S: f64 = 79.0;

/// The pinned floor on the open rate over the rate of `json::parse` on
/// the same lines, both medians of one run. A reader that builds the
/// tree and then copies it into structs cannot pass: in 10 runs
/// alternated with the parent on the VM above, the typed readers read
/// 1.13–1.24× the tree rate and the tree reader they replaced
/// 0.75–0.80×. 0.95 sits between the two with room for noise.
const MIN_OPEN_VS_TREE: f64 = 0.95;

/// The pinned floor on the median rate at which `StoreEntry::to_json_line`
/// writes the n = 50 fluid index back, MB/s. 5 runs on a 2-vCPU Xeon VM
/// (`nproc` 2, 15 samples each) measured medians of 89.3–121.0 MB/s,
/// 92.4 the middle one, so 46 sits at half of it. Writing is slower
/// than reading (the open rate above) because most of a line's cost is
/// std's shortest-round-trip float formatting.
const MIN_WRITE_MB_PER_S: f64 = 46.0;

/// A fig 9 panel at the paper's scale on the fluid backend: 50 Mbps,
/// 20 ms, four buffer depths, every CUBIC/BBR split of n = 50, 10 s
/// cells.
fn fluid_panel() -> Vec<Scenario> {
    [0.5, 2.0, 8.0, 32.0]
        .into_iter()
        .flat_map(|buffer| {
            (0..=50).map(move |k| {
                Scenario::versus(
                    50.0,
                    20.0,
                    buffer,
                    50 - k,
                    CcaKind::Bbr,
                    k,
                    10.0,
                    7_000 + k as u64,
                )
                .with_backend(BackendSpec::Fluid)
            })
        })
        .collect()
}

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

fn engine(cache: &Path, jobs: usize) -> Engine {
    Engine::new(EngineConfig {
        jobs,
        disk_cache: Some(cache.to_path_buf()),
        memory_cache: false,
        result_store: true,
        ..EngineConfig::default()
    })
}

fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

fn fingerprint(results: &[std::sync::Arc<bbrdom_experiments::TrialResult>]) -> String {
    results
        .iter()
        .map(|r| r.to_json_value().to_json())
        .collect::<Vec<_>>()
        .join("\n")
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

    // Cold populate: simulate every cell once, writing the index.
    let populate_engine = engine(&cache, jobs);
    let (populated, cold) = time(|| populate_engine.run_all(&scenarios));
    assert_eq!(populate_engine.stats().simulated, cells as u64);
    let expected = fingerprint(&populated);

    // Store path: index load (once per process, timed separately),
    // then `SAMPLES` passes of pure in-memory lookups.
    let store_engine = engine(&cache, jobs);
    let (_, store_open) = time(|| store_engine.store().expect("store configured").len());
    let mut store: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let (results, t) = time(|| store_engine.run_all(&scenarios));
            assert_eq!(
                fingerprint(&results),
                expected,
                "store-served results diverged from the simulated ones"
            );
            t
        })
        .collect();
    store.sort();
    let stats = store_engine.stats();
    assert_eq!(stats.simulated, 0, "warm store must simulate nothing");
    assert_eq!(stats.store_hits, (cells * SAMPLES) as u64);
    let _ = std::fs::remove_dir_all(&cache);

    // Fluid index open: write the panel's index once, then time opens.
    let fluid_cache = cache.with_extension("fluid");
    let _ = std::fs::remove_dir_all(&fluid_cache);
    let panel = fluid_panel();
    engine(&fluid_cache, jobs).run_all(&panel);
    let index_bytes = std::fs::metadata(fluid_cache.join(INDEX_FILE))
        .expect("the fluid pass wrote an index")
        .len();
    let index_mb = index_bytes as f64 / 1e6;
    let text = std::fs::read_to_string(fluid_cache.join(INDEX_FILE)).expect("read the index");
    let entries = Store::open(&fluid_cache).entries();
    let (mut rates, mut tree_rates, mut write_rates) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SAMPLES {
        let (opened, t) = time(|| Store::open(&fluid_cache));
        assert_eq!(opened.len(), panel.len(), "every fluid line loads");
        rates.push(index_mb / t.as_secs_f64().max(1e-9));
        let (parsed, t) = time(|| text.lines().filter(|l| json::parse(l).is_ok()).count());
        assert_eq!(parsed, panel.len(), "every fluid line parses");
        tree_rates.push(index_mb / t.as_secs_f64().max(1e-9));
        let (written, t) = time(|| {
            entries
                .iter()
                .map(|e| e.to_json_line().len() + 1)
                .sum::<usize>()
        });
        assert_eq!(written as u64, index_bytes, "the lines rewrite the index");
        write_rates.push(index_mb / t.as_secs_f64().max(1e-9));
    }
    rates.sort_by(f64::total_cmp);
    tree_rates.sort_by(f64::total_cmp);
    write_rates.sort_by(f64::total_cmp);
    let _ = std::fs::remove_dir_all(&fluid_cache);
    let open_median = rates[SAMPLES / 2];
    let tree_median = tree_rates[SAMPLES / 2];
    let open_vs_tree = open_median / tree_median;
    let write_median = write_rates[SAMPLES / 2];

    let median = store[SAMPLES / 2];
    let speedup = cold.as_secs_f64() / median.as_secs_f64().max(1e-9);
    let gated = std::env::var("BENCH_NO_FLOOR").map_or(true, |v| v != "1");
    println!(
        "store/fluid open: {} cells of n = 50, {index_mb:.3} MB index: \
         {open_median:.1} MB/s median (min {:.1}, max {:.1}); json::parse \
         {tree_median:.1} MB/s median ({open_vs_tree:.2}x)  [{SAMPLES} samples]",
        panel.len(),
        rates[0],
        rates[SAMPLES - 1],
    );
    println!(
        "store/fluid write: to_json_line {write_median:.1} MB/s median (min {:.1}, max {:.1})",
        write_rates[0],
        write_rates[SAMPLES - 1],
    );
    println!(
        "store/{cells} cells: cold {cold:>9.3?} ({:.1} us/cell)  \
         store-open {store_open:>9.3?} + assembly {median:>9.3?} ({:.2} us/cell)  \
         ({speedup:.1}x)  [{nproc} cpus, jobs={jobs}, {SAMPLES} samples, median]",
        cold.as_secs_f64() * 1e6 / cells as f64,
        median.as_secs_f64() * 1e6 / cells as f64,
    );
    if gated {
        assert!(
            speedup >= MIN_SPEEDUP,
            "store-hit assembly is {speedup:.1}x vs cold simulation, need >= {MIN_SPEEDUP}x \
             (BENCH_NO_FLOOR=1 to report without gating)"
        );
        assert!(
            open_median >= MIN_OPEN_MB_PER_S,
            "Store::open reads the fluid index at {open_median:.1} MB/s, need >= \
             {MIN_OPEN_MB_PER_S} MB/s (BENCH_NO_FLOOR=1 to report without gating)"
        );
        assert!(
            open_vs_tree >= MIN_OPEN_VS_TREE,
            "Store::open reads the fluid index at {open_vs_tree:.2}x the json::parse rate, \
             need >= {MIN_OPEN_VS_TREE}x (BENCH_NO_FLOOR=1 to report without gating)"
        );
        assert!(
            write_median >= MIN_WRITE_MB_PER_S,
            "to_json_line writes the fluid index at {write_median:.1} MB/s, need >= \
             {MIN_WRITE_MB_PER_S} MB/s (BENCH_NO_FLOOR=1 to report without gating)"
        );
    }

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_store.json");
    let json = format!(
        "{{\n  \"schema\": \"store-perf-v6\",\n  \"machine\": {},\n  \"nproc\": {nproc},\n  \
         \"jobs\": {jobs},\n  \"samples\": {SAMPLES},\n  \"cells\": {cells},\n  \
         \"cold_populate_secs\": {:.6},\n  \"store_open_secs\": {:.6},\n  \
         \"store_assembly\": {{\"median_secs\": {:.6}, \"min_secs\": {:.6}, \"max_secs\": {:.6}}},\n  \
         \"speedup\": {speedup:.1},\n  \"min_speedup\": {MIN_SPEEDUP},\n  \
         \"fluid_open\": {{\"cells\": {}, \"flows\": 50, \"index_mb\": {index_mb:.3}, \
         \"mb_per_s\": {{\"median\": {open_median:.1}, \"min\": {:.1}, \"max\": {:.1}}}, \
         \"min_mb_per_s\": {MIN_OPEN_MB_PER_S}, \"tree_mb_per_s\": {tree_median:.1}, \
         \"open_vs_tree\": {open_vs_tree:.2}, \"min_open_vs_tree\": {MIN_OPEN_VS_TREE}}},\n  \
         \"fluid_write\": {{\"mb_per_s\": {{\"median\": {write_median:.1}, \"min\": {:.1}, \
         \"max\": {:.1}}}, \"min_mb_per_s\": {MIN_WRITE_MB_PER_S}}},\n  \
         \"floor_gated\": {gated},\n  \"bit_identical\": true\n}}\n",
        json::Value::Str(model).to_json(),
        cold.as_secs_f64(),
        store_open.as_secs_f64(),
        median.as_secs_f64(),
        store[0].as_secs_f64(),
        store[SAMPLES - 1].as_secs_f64(),
        panel.len(),
        rates[0],
        rates[SAMPLES - 1],
        write_rates[0],
        write_rates[SAMPLES - 1],
    );
    std::fs::write(out, json).expect("write BENCH_store.json");
    println!("wrote {out}");
}
