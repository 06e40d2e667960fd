//! End-to-end tests for the crash-safe sweep supervisor.
//!
//! The contract under test: a supervised sweep (`--supervise N`) is
//! bit-identical to a serial one — same outcome vector, byte-identical
//! result-store index — on every cell whose worker survives; a scenario
//! that kills its worker repeatedly is quarantined as a structured
//! failure while the rest of the batch completes; killed or stalled
//! workers are replaced without losing or duplicating results; and a
//! rerun against the same cache resumes from the store.
//!
//! Sabotage is injected through the `BBRDOM_TEST_POISON_*` hooks,
//! delivered per-engine via `SupervisorConfig::worker_env` so parallel
//! tests never race on this process's environment.

use bbrdom_cca::CcaKind;
use bbrdom_experiments::engine::{scenario_hash_hex, Engine, EngineConfig};
use bbrdom_experiments::runner::{SweepConfig, TrialOutcome};
use bbrdom_experiments::store::INDEX_FILE;
use bbrdom_experiments::{Scenario, SupervisorConfig};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A fresh scratch dir per test (and per process, so `cargo test`
/// reruns never collide with a previous run's leftovers).
fn temp_dir(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("bbrdom-supervise-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).expect("create scratch dir");
    p
}

/// Short but non-trivial scenarios: fractions of a simulated second,
/// varied enough that every index has a distinct cache key.
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
                9_000 + i as u64,
            )
        })
        .collect()
}

/// The supervised engine under test: `workers` subprocesses re-execing
/// this suite's `repro` binary, sharing `dir/cache`, with fast-failure
/// tuning so sabotage tests finish in seconds.
fn supervised_engine(dir: &Path, workers: usize, env: Vec<(String, String)>) -> Engine {
    let mut sup = SupervisorConfig::new(workers, dir.join("state"));
    sup.worker_exe = PathBuf::from(env!("CARGO_BIN_EXE_repro"));
    sup.backoff_base = Duration::from_millis(50);
    sup.worker_env = env;
    Engine::new(EngineConfig {
        jobs: 2,
        disk_cache: Some(dir.join("cache")),
        memory_cache: true,
        supervise: Some(sup),
        result_store: true,
    })
}

/// A serial reference engine over the same (separate) disk cache layout.
fn serial_engine(dir: &Path) -> Engine {
    Engine::new(EngineConfig {
        jobs: 1,
        disk_cache: Some(dir.join("serial-cache")),
        memory_cache: true,
        supervise: None,
        result_store: true,
    })
}

/// Canonical comparable form of an outcome vector.
fn fingerprints(outcomes: &[TrialOutcome]) -> Vec<String> {
    outcomes
        .iter()
        .map(|o| match o {
            TrialOutcome::Ok(r) => r.to_json_value().to_json(),
            TrialOutcome::Failed(f) => format!("FAILED[{}]: {}", f.index, f.error),
        })
        .collect()
}

/// Healthy workers: the supervised sweep reproduces the serial sweep
/// bit-for-bit — same outcomes, byte-identical result-store index.
#[test]
fn supervised_sweep_is_bit_identical_to_serial() {
    let dir = temp_dir("identical");
    let scenarios = batch(8);

    let serial = serial_engine(&dir)
        .run_sweep(&scenarios, &SweepConfig::default())
        .expect("serial sweep runs");

    let supervised = supervised_engine(&dir, 2, Vec::new())
        .run_sweep(&scenarios, &SweepConfig::default())
        .expect("supervised sweep runs");

    assert_eq!(fingerprints(&serial), fingerprints(&supervised));
    let serial_bytes =
        std::fs::read(dir.join("serial-cache").join(INDEX_FILE)).expect("serial index exists");
    let sup_bytes =
        std::fs::read(dir.join("cache").join(INDEX_FILE)).expect("supervised index exists");
    assert_eq!(
        serial_bytes, sup_bytes,
        "supervised index must be byte-identical to the serial one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A scenario that aborts its worker on every claim is quarantined
/// after `max_strikes` deaths; every other cell still matches the
/// serial run. Rerunning the batch against the same cache serves every
/// healthy cell from the store and quarantines the poisoned one again.
#[test]
fn poisoned_scenario_is_quarantined_and_the_rest_match_serial() {
    let dir = temp_dir("quarantine");
    let scenarios = batch(6);
    let poisoned = 2usize;
    let key = scenario_hash_hex(&scenarios[poisoned]);

    let serial = serial_engine(&dir)
        .run_sweep(&scenarios, &SweepConfig::default())
        .expect("serial sweep runs");

    let env = vec![("BBRDOM_TEST_POISON_HASH".to_string(), key)];
    let outcomes = supervised_engine(&dir, 2, env.clone())
        .run_sweep(&scenarios, &SweepConfig::default())
        .expect("supervised sweep survives the poison");

    let serial_fp = fingerprints(&serial);
    let fp = fingerprints(&outcomes);
    for i in 0..scenarios.len() {
        if i == poisoned {
            let f = outcomes[i].failure().expect("poisoned cell must fail");
            assert_eq!(f.index, poisoned);
            assert!(
                f.error.contains("quarantined"),
                "expected a quarantine verdict, got: {}",
                f.error
            );
        } else {
            assert_eq!(fp[i], serial_fp[i], "healthy cell {i} must match serial");
        }
    }

    // Rerun against the same cache: failures are never served, so the
    // poisoned cell runs (and is quarantined) again, while every healthy
    // cell comes from the store.
    let resumed_engine = supervised_engine(&dir, 2, env);
    let resumed = resumed_engine
        .run_sweep(&scenarios, &SweepConfig::default())
        .expect("rerun runs");
    assert_eq!(
        fingerprints(&resumed),
        fp,
        "rerun must reproduce the first run"
    );
    let stats = resumed_engine.stats();
    assert_eq!(stats.simulated, 0, "healthy cells come from the store");
    assert_eq!(stats.store_hits, scenarios.len() as u64 - 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker SIGKILLed mid-sweep forfeits its leases; the survivors (or
/// a replacement) absorb them and the final outcomes match serial.
#[test]
fn sigkilled_worker_is_replaced_and_results_match_serial() {
    let dir = temp_dir("sigkill");
    let scenarios = batch(10);

    let serial = serial_engine(&dir)
        .run_sweep(&scenarios, &SweepConfig::default())
        .expect("serial sweep runs");

    // Hunt for worker pid files while the sweep runs and SIGKILL the
    // first worker we see. The pid files live under
    // `<state>/work-<parent-pid>-<batch-seq>/worker-<id>.pid`.
    let state = dir.join("state");
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let killer = {
        let state = state.clone();
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let pid = std::fs::read_dir(&state)
                    .ok()
                    .into_iter()
                    .flatten()
                    .flatten()
                    .filter(|e| e.path().is_dir())
                    .filter_map(|e| std::fs::read_dir(e.path()).ok())
                    .flatten()
                    .flatten()
                    .find(|e| {
                        e.file_name().to_string_lossy().starts_with("worker-")
                            && e.path().extension().is_some_and(|x| x == "pid")
                    })
                    .and_then(|e| std::fs::read_to_string(e.path()).ok());
                if let Some(pid) = pid {
                    let _ = std::process::Command::new("kill")
                        .args(["-9", pid.trim()])
                        .status();
                    return;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };

    let outcomes = supervised_engine(&dir, 2, Vec::new())
        .run_sweep(&scenarios, &SweepConfig::default())
        .expect("supervised sweep survives a SIGKILL");
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    killer.join().expect("killer thread");

    // One SIGKILL is one strike — below the quarantine threshold — so
    // every cell must still complete and match the serial reference.
    assert_eq!(fingerprints(&serial), fingerprints(&outcomes));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A scenario that kills its worker exactly once (flaky, not poisonous)
/// is retried on a fresh worker and ends up indistinguishable from a
/// clean serial run.
#[test]
fn single_crash_is_retried_to_success() {
    let dir = temp_dir("poison-once");
    let scenarios = batch(5);
    let flaky = 1usize;
    let key = scenario_hash_hex(&scenarios[flaky]);

    let serial = serial_engine(&dir)
        .run_sweep(&scenarios, &SweepConfig::default())
        .expect("serial sweep runs");

    let marker = dir.join("poisoned-once.marker");
    let env = vec![
        ("BBRDOM_TEST_POISON_HASH".to_string(), key),
        (
            "BBRDOM_TEST_POISON_ONCE".to_string(),
            marker.display().to_string(),
        ),
    ];
    let outcomes = supervised_engine(&dir, 2, env)
        .run_sweep(&scenarios, &SweepConfig::default())
        .expect("supervised sweep survives one crash");

    assert!(marker.exists(), "the sabotage hook must have fired");
    assert_eq!(
        fingerprints(&serial),
        fingerprints(&outcomes),
        "a single crash must be absorbed by retry, not surfaced"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A livelocked worker stops heartbeating, trips the watchdog, is
/// killed, and its scenario is retried to success elsewhere.
#[test]
fn stalled_worker_trips_the_watchdog_and_work_is_retried() {
    let dir = temp_dir("stall");
    let scenarios = batch(4);
    let stuck = 0usize;
    let key = scenario_hash_hex(&scenarios[stuck]);

    let serial = serial_engine(&dir)
        .run_sweep(&scenarios, &SweepConfig::default())
        .expect("serial sweep runs");

    let marker = dir.join("stalled-once.marker");
    let env = vec![
        ("BBRDOM_TEST_POISON_HASH".to_string(), key),
        ("BBRDOM_TEST_POISON_MODE".to_string(), "stall".to_string()),
        (
            "BBRDOM_TEST_POISON_ONCE".to_string(),
            marker.display().to_string(),
        ),
    ];
    // One single-threaded worker and a sub-second watchdog: the stalled
    // trial is the only thing in flight, so the heartbeat goes quiet at
    // watchdog/2 and the kill lands about a watchdog later.
    let mut sup = SupervisorConfig::new(1, dir.join("state"));
    sup.worker_exe = PathBuf::from(env!("CARGO_BIN_EXE_repro"));
    sup.watchdog = Duration::from_millis(800);
    sup.backoff_base = Duration::from_millis(50);
    sup.worker_env = env;
    let engine = Engine::new(EngineConfig {
        jobs: 1,
        disk_cache: Some(dir.join("cache")),
        memory_cache: true,
        supervise: Some(sup),
        result_store: false,
    });
    let started = std::time::Instant::now();
    let outcomes = engine
        .run_sweep(&scenarios, &SweepConfig::default())
        .expect("supervised sweep survives a stall");

    assert!(marker.exists(), "the stall hook must have fired");
    assert!(
        started.elapsed() > Duration::from_millis(800),
        "completion implies the watchdog actually waited out the stall"
    );
    assert_eq!(
        fingerprints(&serial),
        fingerprints(&outcomes),
        "a stalled-then-retried sweep must match serial"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A supervisor that cannot create its state dir fails the sweep with a
/// typed `ConfigError::Io` on `run_sweep`'s `Result` path, not a panic.
#[test]
fn unwritable_state_dir_is_a_typed_error() {
    let dir = temp_dir("blocked-state");
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, "not a directory").unwrap();
    let mut sup = SupervisorConfig::new(1, blocker.join("state"));
    sup.worker_exe = PathBuf::from(env!("CARGO_BIN_EXE_repro"));
    let engine = Engine::new(EngineConfig {
        jobs: 1,
        disk_cache: None,
        memory_cache: false,
        supervise: Some(sup),
        result_store: false,
    });
    let err = engine
        .run_sweep(&batch(1), &SweepConfig::default())
        .expect_err("a state dir under a plain file must fail");
    match &err {
        bbrdom_netsim::ConfigError::Io { what, path, .. } => {
            assert_eq!(*what, "supervisor state dir");
            assert!(path.contains("blocker"), "unhelpful path: {path}");
        }
        other => panic!("expected ConfigError::Io, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resume without workers: once a batch has finished, a supervised rerun
/// against the same cache is answered from the store by the parent
/// alone — it succeeds even when no worker binary could be spawned.
#[test]
fn warm_rerun_spawns_no_workers() {
    let dir = temp_dir("warm-rerun");
    let scenarios = batch(4);
    let first = supervised_engine(&dir, 2, Vec::new())
        .run_sweep(&scenarios, &SweepConfig::default())
        .expect("supervised sweep runs");

    let mut sup = SupervisorConfig::new(2, dir.join("state"));
    sup.worker_exe = dir.join("no-such-worker");
    let rerun_engine = Engine::new(EngineConfig {
        jobs: 2,
        disk_cache: Some(dir.join("cache")),
        memory_cache: true,
        supervise: Some(sup),
        result_store: true,
    });
    let rerun = rerun_engine
        .run_sweep(&scenarios, &SweepConfig::default())
        .expect("a warm rerun needs no workers");
    assert_eq!(fingerprints(&rerun), fingerprints(&first));
    assert_eq!(rerun_engine.stats().store_hits, scenarios.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}
