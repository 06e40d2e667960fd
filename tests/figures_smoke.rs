//! Every figure module runs end-to-end at smoke scale and produces
//! non-empty, well-formed output — the cheapest full-pipeline guarantee
//! that `repro all` cannot bit-rot.
//!
//! These are real simulations (seconds each); heavier figures are marked
//! `#[ignore]` for the default test run and exercised by `repro`/benches.

use bbrdom::experiments::figs::{run_figure, ALL_FIGURES};
use bbrdom::experiments::{Engine, EngineConfig, Profile};

fn smoke() -> Profile {
    Profile::smoke()
}

fn engine() -> Engine {
    Engine::new(EngineConfig::serial_uncached())
}

fn check(id: &str) {
    let result =
        run_figure(id, &engine(), &smoke()).unwrap_or_else(|| panic!("unknown figure {id}"));
    assert_eq!(result.id, id);
    assert!(!result.tables.is_empty(), "{id}: no tables");
    for t in &result.tables {
        assert!(!t.rows.is_empty(), "{id}: empty table '{}'", t.title);
        assert!(!t.columns.is_empty());
        // Render paths must not panic and must contain the title.
        assert!(t.render().contains('#'));
        assert!(t.to_csv().contains(','));
    }
}

#[test]
fn fig01_smoke() {
    check("fig01");
}

#[test]
fn fig03_smoke() {
    check("fig03");
}

#[test]
fn fig04_smoke() {
    check("fig04");
}

#[test]
fn fig05_smoke() {
    check("fig05");
}

#[test]
fn fig06_smoke() {
    check("fig06");
}

#[test]
fn fig07_smoke() {
    check("fig07");
}

#[test]
fn fig08_smoke() {
    check("fig08");
}

#[test]
#[ignore = "heavier: 6 panels × (n+1) splits; covered by repro/benches"]
fn fig09_smoke() {
    check("fig09");
}

#[test]
#[ignore = "heavier: (g+1)^3 states; covered by repro and tests/multi_rtt.rs"]
fn fig10_smoke() {
    check("fig10");
}

#[test]
#[ignore = "heavier: 6 panels × (n+1) splits with BBRv2; covered by repro"]
fn fig11_smoke() {
    check("fig11");
}

#[test]
fn fig12_smoke() {
    check("fig12");
}

/// The engine's configuration is invisible in a figure's output: fig05
/// on a serial uncached engine, on a two-worker memory-only engine (memo,
/// no disk, run twice so the second pass is served by the memo), on a
/// serial and a two-worker engine each with a cold disk cache and the
/// result store, and on a second two-worker engine over the now warm
/// cache writes byte-identical CSVs. The two cold caches hold
/// byte-identical `index.jsonl` files, and the warm pass simulates
/// nothing.
#[test]
fn engine_config_is_invisible_in_figure_output() {
    let csvs = |engine: &Engine| -> Vec<String> {
        run_figure("fig05", engine, &smoke())
            .expect("fig05 exists")
            .tables
            .iter()
            .map(|t| t.to_csv())
            .collect()
    };
    let base =
        std::env::temp_dir().join(format!("bbrdom-figures-smoke-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let (serial_cache, pooled_cache) = (base.join("serial"), base.join("pooled"));
    let cached = |jobs: usize, cache: &std::path::Path| {
        Engine::new(EngineConfig {
            jobs,
            disk_cache: Some(cache.to_path_buf()),
            memory_cache: true,
            supervise: None,
            result_store: true,
        })
    };

    let serial = csvs(&engine());
    let memory_only = Engine::new(EngineConfig {
        jobs: 2,
        disk_cache: None,
        memory_cache: true,
        supervise: None,
        result_store: false,
    });
    assert_eq!(csvs(&memory_only), serial, "cold memory-only run differs");
    let simulated = memory_only.stats().simulated;
    assert_eq!(csvs(&memory_only), serial, "memo-served run differs");
    assert_eq!(
        memory_only.stats().simulated,
        simulated,
        "memo missed a cell"
    );
    assert_eq!(
        csvs(&cached(1, &serial_cache)),
        serial,
        "cold serial cached run differs"
    );
    assert_eq!(
        csvs(&cached(2, &pooled_cache)),
        serial,
        "cold parallel cached run differs"
    );
    let index = |cache: &std::path::Path| std::fs::read(cache.join("index.jsonl")).unwrap();
    assert!(
        index(&serial_cache) == index(&pooled_cache),
        "serial and parallel runs wrote different indexes"
    );
    let warm = cached(2, &pooled_cache);
    assert_eq!(csvs(&warm), serial, "warm cached run differs");
    assert_eq!(warm.stats().simulated, 0, "warm run simulated a cell");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn unknown_figure_rejected() {
    assert!(run_figure("fig02", &engine(), &smoke()).is_none());
    assert_eq!(ALL_FIGURES.len(), 11);
}
