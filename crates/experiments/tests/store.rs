//! End-to-end tests for the indexed result store, the result cache's
//! one on-disk record.
//!
//! The contract under test: a warm store serves whole batches with zero
//! simulations, byte-identical to the simulated path; a cold run leaves
//! exactly one file, `index.jsonl`, and files of other layouts in the
//! cache directory are neither read nor deleted; the index survives
//! torn tails.

use bbrdom_cca::CcaKind;
use bbrdom_experiments::engine::{scenario_hash, scenario_hash_hex, Engine, EngineConfig};
use bbrdom_experiments::store::{Store, StoreEntry, INDEX_FILE};
use bbrdom_experiments::{Scenario, TrialResult};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn temp_dir(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("bbrdom-store-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).expect("create scratch dir");
    p
}

/// Short scenarios with distinct cache keys.
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

fn engine(cache: &Path, memory: bool) -> Engine {
    Engine::new(EngineConfig {
        jobs: 2,
        disk_cache: Some(cache.to_path_buf()),
        memory_cache: memory,
        result_store: true,
        ..EngineConfig::default()
    })
}

fn fingerprints(results: &[Arc<TrialResult>]) -> Vec<String> {
    results
        .iter()
        .map(|r| r.to_json_value().to_json())
        .collect()
}

/// A miniature figure assembly: the goodput columns a fig 9/11-style
/// grid would emit, rendered to CSV bytes.
fn figure_csv(scenarios: &[Scenario], results: &[Arc<TrialResult>]) -> String {
    let mut table = bbrdom_experiments::output::Table::new("store-vs-sim", &["mbps", "goodput"]);
    for (s, r) in scenarios.iter().zip(results) {
        let total: f64 = r.throughput_mbps.iter().sum();
        table.push_row(vec![format!("{}", s.mbps), format!("{total:.6}")]);
    }
    table.to_csv()
}

/// The pinned byte-identity contract: a warm store answers the whole
/// batch with zero simulations, and the figure output it produces is
/// byte-identical to the simulated path.
#[test]
fn warm_store_serves_batches_with_zero_sims_and_zero_parses() {
    let dir = temp_dir("identity");
    let cache = dir.join("cache");
    let scenarios = batch(6);

    // Cold: simulate everything, populating the index.
    let cold = engine(&cache, true);
    let simulated = cold.run_all(&scenarios);
    assert_eq!(cold.stats().simulated, 6);
    assert!(cache.join(INDEX_FILE).exists(), "index populated on write");

    // Warm store (no memory memo): every cell is a store hit.
    let store_engine = engine(&cache, false);
    let from_store = store_engine.run_all(&scenarios);
    let s = store_engine.stats();
    assert_eq!(s.simulated, 0, "warm store must simulate nothing");
    assert_eq!(s.store_hits, 6);

    assert_eq!(
        fingerprints(&simulated),
        fingerprints(&from_store),
        "store-served results must be bit-identical to fresh simulation"
    );
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
    engine(&cache, true).run_all(&scenarios);

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
    let e = engine(&cache, false);
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

/// One on-disk record: a cold run on a fresh cache directory leaves
/// exactly `index.jsonl`. A per-cell `<hash>.json` entry or a `*.tmp.*`
/// file left in the directory is neither read nor deleted: the cell
/// re-simulates, and the index comes out byte-identical to the one a
/// clean directory gets.
#[test]
fn a_cold_run_writes_only_the_index_and_ignores_other_files() {
    let dir = temp_dir("one-record");
    let scenarios = batch(3);

    let clean = dir.join("clean");
    engine(&clean, true).run_all(&scenarios);
    let files: Vec<String> = std::fs::read_dir(&clean)
        .expect("cache dir exists")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(files, [INDEX_FILE]);
    let index = std::fs::read(clean.join(INDEX_FILE)).unwrap();

    // A leftover entry holding a valid line for the first cell, and a
    // leftover tmp file.
    let cluttered = dir.join("cluttered");
    std::fs::create_dir_all(&cluttered).unwrap();
    let first_line = String::from_utf8_lossy(&index)
        .lines()
        .next()
        .unwrap()
        .to_string();
    let entry = cluttered.join(format!("{:032x}.json", scenario_hash(&scenarios[0])));
    let tmp = cluttered.join(format!(".{:032x}.tmp.1.0", scenario_hash(&scenarios[1])));
    std::fs::write(&entry, first_line).unwrap();
    std::fs::write(&tmp, "half-written").unwrap();
    let e = engine(&cluttered, true);
    e.run_all(&scenarios);
    assert_eq!(e.stats().simulated, 3, "a leftover entry file is not read");
    assert!(
        entry.exists() && tmp.exists(),
        "leftover files are not deleted"
    );
    assert_eq!(std::fs::read(cluttered.join(INDEX_FILE)).unwrap(), index);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `repro query --missing` hashes every scenario line it reads; a line
/// whose fault spec cannot be compiled (a negative outage start) is
/// reported as missing like any other unserved scenario, not a panic.
#[test]
fn query_missing_reports_an_unlowerable_fault_line() {
    let dir = temp_dir("missing-faults");
    let mut scenarios = batch(2);
    scenarios[0].faults.outages = vec![(-1.0, 0.5)];
    let list = dir.join("scenarios.jsonl");
    let lines: Vec<String> = scenarios.iter().map(Scenario::to_json).collect();
    std::fs::write(&list, lines.join("\n") + "\n").unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("query")
        .arg("--cache-dir")
        .arg(dir.join("cache"))
        .arg("--missing")
        .arg(&list)
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        lines.join("\n") + "\n"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A line written while the key still hashed a hand-written field walk
/// (`CACHE_FORMAT_VERSION` 1), pasted from such an index. The layout is
/// unchanged, so it reads; only its key is stale.
const VERSION_1_LINE: &str = r#"{"events":98595,"key":"dabf0ed5b45f89ff7b84d62818addf45","ok":true,"result":{"aqm_drops":0,"avg_queue_occupancy_bytes":[522668.87434106844,20375371.441123966],"avg_queuing_delay_ms":3343.6864504744376,"backoff_times_secs":[[],[]],"cc_names":["cubic","bbr"],"completion_times_secs":[null,null],"dropped_packets":0,"throughput_mbps":[4.4505,44.6715],"utilization":0.98244},"scenario":{"buffer_bdp":250.0,"discipline":"droptail","duration_secs":8.0,"flows":[{"byte_limit":null,"cca":"cubic","rtt_ms":40.0,"start_s":0.0},{"byte_limit":null,"cca":"bbr","rtt_ms":40.0,"start_s":0.0}],"mbps":50.0,"reference_rtt_ms":40.0,"seed":303172036},"v":1}"#;

/// A stale-key line is not loaded: the cell simulates once and is
/// appended under its new key, byte for byte the old line apart from the
/// key, the next engine serves it from there, and the store lists the
/// scenario once.
#[test]
fn a_version_1_key_is_a_miss_and_the_cell_is_rewritten_under_its_new_key() {
    let dir = temp_dir("version-1-key");
    let index = dir.join(INDEX_FILE);
    std::fs::write(&index, format!("{VERSION_1_LINE}\n")).unwrap();
    let old = StoreEntry::from_json_line(VERSION_1_LINE).expect("the old line reads");
    let scenario = old.scenario.clone();
    let key = scenario_hash_hex(&scenario);
    assert_ne!(old.key, key);
    assert!(
        Store::open(&dir).is_empty(),
        "the old line is ignored on open"
    );

    let cold = engine(&dir, false);
    let results = cold.run_all(std::slice::from_ref(&scenario));
    assert_eq!((cold.stats().simulated, cold.stats().store_hits), (1, 0));
    let text = std::fs::read_to_string(&index).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2);
    assert_eq!(lines[0], VERSION_1_LINE, "the file is only appended to");
    assert_eq!(lines[1].replace(&key, &old.key), VERSION_1_LINE);
    let keys: Vec<String> = Store::open(&dir)
        .entries()
        .iter()
        .map(|e| e.key.clone())
        .collect();
    assert_eq!(keys, [key], "listed once, under the new key");

    let warm = engine(&dir, false);
    let again = warm.run_all(&[scenario]);
    assert_eq!((warm.stats().simulated, warm.stats().store_hits), (0, 1));
    assert_eq!(fingerprints(&again), fingerprints(&results));
    let _ = std::fs::remove_dir_all(&dir);
}
