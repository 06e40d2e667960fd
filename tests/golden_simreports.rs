//! Golden-seed regression harness for the simulator engine.
//!
//! The discrete-event engine (event queue, sender scoreboard, dispatch
//! loop) may be rebuilt for speed, but never at the cost of changing
//! results: a given scenario + seed must stay **bit-identical** across
//! engine rewrites. This harness runs a matrix of CCAs × buffer sizes ×
//! seeds, reduces every [`bbrdom_netsim::SimReport`] to an FNV-1a
//! fingerprint over the exact bit patterns of all its fields, and
//! compares against the checked-in goldens captured from the original
//! `BinaryHeap`/`BTreeMap` engine.
//!
//! The matrix and fingerprint live in `tests/common/mod.rs`, shared
//! with the `topology_equivalence` suite. [`golden_only`] adds the cases
//! that suite cannot re-spell as an explicit topology (an early-stopped
//! run, which explicit topologies reject) or that it covers separately (a
//! workload under a fault schedule); they are pinned here alone.
//!
//! If an intentional behavior change invalidates the goldens (this
//! should be rare and deliberate), regenerate with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --release --test golden_simreports
//! ```
//!
//! and explain the change in the commit message.

mod common;

use bbrdom_cca::CcaKind;
use bbrdom_experiments::scenario::{EarlyStopSpec, FaultSpec, Scenario, WorkloadSpec};
use bbrdom_netsim::json::{self, Value};
use common::{fingerprint, matrix, run_report};
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/simreports.json")
}

/// Golden cases kept out of the shared [`matrix`]: an early-stopped cell
/// and an open-loop workload under wire loss plus an outage.
fn golden_only() -> Vec<(String, Scenario)> {
    let early = Scenario::versus(10.0, 20.0, 2.0, 1, CcaKind::Bbr, 1, 20.0, 5)
        .with_early_stop(Some(EarlyStopSpec::new(0.2, 3)));
    let churn = Scenario::versus(20.0, 20.0, 2.0, 1, CcaKind::Bbr, 1, 5.0, 19)
        .with_workload(Some(WorkloadSpec::web(CcaKind::Cubic, 40.0, 15.0)))
        .with_faults(FaultSpec {
            loss_fwd: 0.005,
            loss_ack: 0.002,
            outages: vec![(2.0, 0.3)],
            ..FaultSpec::default()
        });
    vec![
        ("early_stop_bbr_b2_s5".to_string(), early),
        ("workload_faults_s19".to_string(), churn),
    ]
}

fn cases() -> Vec<(String, Scenario)> {
    let mut cases = matrix();
    cases.extend(golden_only());
    cases
}

#[test]
fn simreports_match_goldens() {
    let mut current = Value::object();
    for (key, scenario) in cases() {
        let fp = fingerprint(&run_report(&scenario));
        current.set(&key, Value::Str(format!("{fp:016x}")));
    }

    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::create_dir_all(golden_path().parent().unwrap()).unwrap();
        std::fs::write(golden_path(), current.to_json() + "\n").unwrap();
        eprintln!("regenerated {}", golden_path().display());
        return;
    }

    let text = std::fs::read_to_string(golden_path()).unwrap_or_else(|e| {
        panic!(
            "missing goldens at {} ({e}); generate with GOLDEN_REGEN=1",
            golden_path().display()
        )
    });
    let golden = json::parse(&text).expect("goldens parse");
    let mut mismatches = Vec::new();
    for (key, scenario) in cases() {
        let fp = format!("{:016x}", fingerprint(&run_report(&scenario)));
        match golden.get(&key).and_then(Value::as_str) {
            Some(want) if want == fp => {}
            Some(want) => mismatches.push(format!("{key}: golden {want}, got {fp}")),
            None => mismatches.push(format!("{key}: missing from goldens")),
        }
    }
    assert!(
        mismatches.is_empty(),
        "engine output diverged from the golden seed runs:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn fingerprint_is_sensitive_to_results() {
    // Sanity: two different seeds must fingerprint differently, and the
    // same run twice must fingerprint identically.
    let a = Scenario::versus(10.0, 20.0, 1.0, 1, bbrdom_cca::CcaKind::Bbr, 1, 3.0, 1);
    let b = Scenario::versus(10.0, 20.0, 1.0, 1, bbrdom_cca::CcaKind::Bbr, 1, 3.0, 2);
    assert_eq!(fingerprint(&run_report(&a)), fingerprint(&run_report(&a)));
    assert_ne!(fingerprint(&run_report(&a)), fingerprint(&run_report(&b)));
}

#[test]
fn golden_only_cases_exercise_their_features() {
    let cases = golden_only();
    let early = run_report(&cases[0].1);
    assert!(
        early.early_stopped && early.effective_duration_secs < cases[0].1.duration_secs,
        "the early-stop case ran its full horizon"
    );
    let churn = run_report(&cases[1].1);
    assert!(
        churn.workload_spawned > 0,
        "the workload case spawned nothing"
    );
}
