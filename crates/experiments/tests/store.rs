//! End-to-end tests for the indexed result store.
//!
//! The contract under test: a warm store serves whole batches with zero
//! simulations AND zero full-report parses, byte-identical to both the
//! simulated and the disk-parse paths; the index survives torn tails
//! and rebuilds from the cache alone; a supervised sweep produces a
//! byte-identical index to a serial one (the parent is the single
//! writer); and opening a store sweeps orphaned tmp files without
//! touching live writers or published entries.

use bbrdom_cca::CcaKind;
use bbrdom_experiments::engine::{scenario_hash, Engine, EngineConfig};
use bbrdom_experiments::runner::SweepConfig;
use bbrdom_experiments::store::{Store, INDEX_FILE};
use bbrdom_experiments::{Scenario, SupervisorConfig, TrialResult};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn temp_dir(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("bbrdom-store-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).expect("create scratch dir");
    p
}

/// Short scenarios with distinct cache keys (same shape as the
/// supervisor suite's batches).
fn batch(n: usize) -> Vec<Scenario> {
    (0..n)
        .map(|i| {
            Scenario::versus(
                10.0 + (i % 3) as f64 * 5.0,
                20.0,
                1.0,
                1,
                CcaKind::Bbr,
                1,
                0.4,
                7_000 + i as u64,
            )
        })
        .collect()
}

fn engine(cache: &Path, memory: bool, store: bool) -> Engine {
    Engine::new(EngineConfig {
        jobs: 2,
        disk_cache: Some(cache.to_path_buf()),
        memory_cache: memory,
        supervise: None,
        result_store: store,
    })
}

fn fingerprints(results: &[TrialResult]) -> Vec<String> {
    results
        .iter()
        .map(|r| r.to_json_value().to_json())
        .collect()
}

/// A miniature figure assembly: the goodput columns a fig 9/11-style
/// grid would emit, rendered to CSV bytes.
fn figure_csv(scenarios: &[Scenario], results: &[TrialResult]) -> String {
    let mut table = bbrdom_experiments::output::Table::new("store-vs-sim", &["mbps", "goodput"]);
    for (s, r) in scenarios.iter().zip(results) {
        let total: f64 = r.throughput_mbps.iter().sum();
        table.push_row(vec![format!("{}", s.mbps), format!("{total:.6}")]);
    }
    table.to_csv()
}

/// The pinned byte-identity contract: a warm store answers the whole
/// batch with zero simulations and zero full-report parses, and the
/// figure output it produces is byte-identical to the simulated path
/// AND the disk-parse path.
#[test]
fn warm_store_serves_batches_with_zero_sims_and_zero_parses() {
    let dir = temp_dir("identity");
    let cache = dir.join("cache");
    let scenarios = batch(6);

    // Cold: simulate everything, populating cache + index.
    let cold = engine(&cache, true, true);
    let simulated = cold.run_all(&scenarios);
    assert_eq!(cold.stats().simulated, 6);
    assert!(cache.join(INDEX_FILE).exists(), "index populated on write");

    // Warm store (no memory memo): every cell is a store hit.
    let store_engine = engine(&cache, false, true);
    let from_store = store_engine.run_all(&scenarios);
    let s = store_engine.stats();
    assert_eq!(s.simulated, 0, "warm store must simulate nothing");
    assert_eq!(s.disk_hits, 0, "warm store must parse no full reports");
    assert_eq!(s.store_hits, 6);

    // Warm disk cache with the store disabled: the old parse path.
    let parse_engine = engine(&cache, false, false);
    let from_parse = parse_engine.run_all(&scenarios);
    assert_eq!(parse_engine.stats().disk_hits, 6);
    assert_eq!(parse_engine.stats().store_hits, 0);

    assert_eq!(
        fingerprints(&simulated),
        fingerprints(&from_store),
        "store-served results must be bit-identical to fresh simulation"
    );
    assert_eq!(fingerprints(&from_store), fingerprints(&from_parse));
    assert_eq!(
        figure_csv(&scenarios, &simulated),
        figure_csv(&scenarios, &from_store),
        "store-served figure output must be byte-identical to the sim path"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn index tail (crash mid-append) is skipped on load and
/// truncated back to the last complete line by the next append.
#[test]
fn index_torn_tail_recovers_on_reopen() {
    let dir = temp_dir("torn");
    let cache = dir.join("cache");
    let scenarios = batch(4);
    engine(&cache, true, true).run_all(&scenarios);

    // Simulate a crash mid-append: garbage line, then a torn fragment
    // with no trailing newline.
    let index = cache.join(INDEX_FILE);
    let intact = std::fs::read_to_string(&index).expect("index exists");
    assert_eq!(intact.lines().count(), 4);
    let mut torn = intact.clone();
    torn.push_str("not json at all\n");
    torn.push_str("{\"v\":1,\"key\":\"torn-fragm");
    std::fs::write(&index, &torn).unwrap();

    // Load: the 4 good entries survive, the junk reads as misses.
    let store = Store::open(&cache);
    assert_eq!(store.len(), 4);
    for s in &scenarios {
        assert!(store.lookup(scenario_hash(s), None).is_some());
    }

    // Next write-mode open repairs the tail before appending: run one
    // new scenario through a store-backed engine and verify the file
    // ends up fully well-formed again.
    let mut extended = scenarios.clone();
    extended.push(Scenario::versus(
        40.0,
        20.0,
        1.0,
        1,
        CcaKind::Bbr,
        1,
        0.4,
        7_777,
    ));
    let e = engine(&cache, false, true);
    e.run_all(&extended);
    assert_eq!(e.stats().store_hits, 4);
    assert_eq!(e.stats().simulated, 1);
    let repaired = std::fs::read_to_string(&index).unwrap();
    assert_eq!(
        Store::open(&cache).len(),
        5,
        "all five entries load after repair"
    );
    assert!(
        !repaired.contains("torn-fragm"),
        "append-mode open must truncate the torn fragment"
    );
    // The garbage *complete* line is preserved as an ignored line (the
    // repair only owns the tail), but every reader treats it as a miss.
    let _ = std::fs::remove_dir_all(&dir);
}

/// Single-writer discipline across process boundaries: a supervised
/// sweep's index (written only by the parent, from worker-reported
/// results) is byte-identical to the serial run's.
#[test]
fn supervised_index_is_byte_identical_to_serial() {
    let dir = temp_dir("supervised");
    let scenarios = batch(6);

    let serial_cache = dir.join("serial-cache");
    engine(&serial_cache, true, true)
        .run_sweep(&scenarios, &SweepConfig::default())
        .expect("serial sweep runs");

    let sup_cache = dir.join("sup-cache");
    let mut sup = SupervisorConfig::new(2, dir.join("state"));
    sup.worker_exe = PathBuf::from(env!("CARGO_BIN_EXE_repro"));
    sup.backoff_base = Duration::from_millis(50);
    let supervised = Engine::new(EngineConfig {
        jobs: 2,
        disk_cache: Some(sup_cache.clone()),
        memory_cache: true,
        supervise: Some(sup),
        result_store: true,
    });
    supervised
        .run_sweep(&scenarios, &SweepConfig::default())
        .expect("supervised sweep runs");

    let serial_index = std::fs::read(serial_cache.join(INDEX_FILE)).expect("serial index");
    let sup_index = std::fs::read(sup_cache.join(INDEX_FILE)).expect("supervised index");
    assert_eq!(
        String::from_utf8_lossy(&serial_index),
        String::from_utf8_lossy(&sup_index),
        "supervised index must be byte-identical to the serial one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Opening a store sweeps tmp files orphaned by SIGKILLed writers —
/// and only those: live writers' tmps and published entries survive.
#[test]
fn store_open_sweeps_orphan_tmps_without_touching_entries() {
    let dir = temp_dir("orphans");
    let cache = dir.join("cache");
    let scenarios = batch(2);
    engine(&cache, true, true).run_all(&scenarios);

    let entry_name = format!("{:032x}.json", scenario_hash(&scenarios[0]));
    assert!(cache.join(&entry_name).exists());

    // An orphan from a provably dead writer (spawn-and-reap `true`).
    let dead_pid = {
        let mut child = std::process::Command::new("true").spawn().expect("spawn");
        let pid = child.id();
        child.wait().expect("reap");
        pid
    };
    let orphan = cache.join(format!(".{:032x}.tmp.{dead_pid}.0", 3u128));
    std::fs::write(&orphan, "half-written entry").unwrap();
    // A live writer's tmp (this process).
    let live = cache.join(format!(".{:032x}.tmp.{}.0", 4u128, std::process::id()));
    std::fs::write(&live, "in flight").unwrap();

    let store = Store::open(&cache);
    if cfg!(target_os = "linux") {
        assert!(!orphan.exists(), "dead writer's tmp must be swept");
        assert_eq!(store.orphans_swept(), 1);
    }
    assert!(live.exists(), "live writer's tmp must survive");
    assert!(cache.join(&entry_name).exists(), "entries must survive");
    assert_eq!(store.len(), 2, "index must survive the sweep");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `repro index rebuild`'s scanner: backfills the index from cache
/// entries alone, skipping corrupt or key-mismatched files as misses,
/// and the rebuilt index serves batches with zero parses.
#[test]
fn rebuild_backfills_from_cache_and_tolerates_corruption() {
    let dir = temp_dir("rebuild");
    let cache = dir.join("cache");
    let scenarios = batch(5);
    // Populate the cache with the store disabled: entries exist (with
    // embedded scenarios), but no index — the pre-store state.
    let cold = engine(&cache, true, false);
    let simulated = cold.run_all(&scenarios);
    assert!(!cache.join(INDEX_FILE).exists());

    // Sabotage: a garbled entry and a valid entry copied under the
    // wrong key (hash self-check must reject it).
    std::fs::write(cache.join(format!("{:032x}.json", 1u128)), "{garbled").unwrap();
    let donor = cache.join(format!("{:032x}.json", scenario_hash(&scenarios[0])));
    std::fs::copy(&donor, cache.join(format!("{:032x}.json", 2u128))).unwrap();

    let (store, stats) = Store::rebuild(&cache).expect("rebuild scans");
    assert_eq!(stats.scanned, 7);
    assert_eq!(stats.indexed, 5);
    assert_eq!(stats.corrupt, 2);
    assert_eq!(stats.no_scenario, 0);
    assert_eq!(store.len(), 5);

    // The rebuilt index serves the whole batch without re-parsing.
    let warm = engine(&cache, false, true);
    let from_store = warm.run_all(&scenarios);
    assert_eq!(warm.stats().store_hits, 5);
    assert_eq!(warm.stats().simulated, 0);
    assert_eq!(warm.stats().disk_hits, 0);
    assert_eq!(fingerprints(&simulated), fingerprints(&from_store));

    // Rebuild is idempotent: a second scan produces the same bytes.
    let first = std::fs::read(cache.join(INDEX_FILE)).unwrap();
    Store::rebuild(&cache).expect("rebuild again");
    let second = std::fs::read(cache.join(INDEX_FILE)).unwrap();
    assert_eq!(first, second);
    let _ = std::fs::remove_dir_all(&dir);
}
