//! Runs the `e2e` binary in smoke mode on every workload of
//! `BENCHMARK.json`, measured and traced, and checks that each run
//! prints exactly the metrics the file declares, passes its output
//! checks, and (traced) explains its cold wall time by layer spans.

use bbrdom_netsim::json::{self, Value};
use std::process::Command;

fn names(bench: &Value, section: &str) -> Vec<String> {
    let mut out: Vec<String> = bench
        .get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_string()
        })
        .collect();
    out.sort();
    out
}

fn run(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_e2e"))
        .args([
            "--workload",
            workload,
            "--smoke",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .output()
        .expect("the e2e binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    json::parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

#[test]
fn smoke_runs_print_every_metric_and_pass_their_checks() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let bench = json::parse(&text).expect("BENCHMARK.json is JSON");
    for workload in names(&bench, "workloads") {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = run(&workload, trace);
            assert_eq!(
                result.get("correct").and_then(Value::as_bool),
                Some(true),
                "{workload}"
            );
            assert!(
                result.get("attempted").and_then(Value::as_u64) >= Some(1),
                "{workload}"
            );
            assert_eq!(
                result.get("failed").and_then(Value::as_u64),
                Some(0),
                "{workload}"
            );
            let Some(Value::Object(metrics)) = result.get("metrics") else {
                panic!("{workload}: no metrics object");
            };
            let printed: Vec<String> = metrics.keys().cloned().collect();
            assert_eq!(printed, names(&bench, section), "{workload} trace={trace}");
            for (name, m) in metrics {
                let value = m.get("value").and_then(Value::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload} {name}: {m:?}"
                );
            }
            if trace == "1" {
                let coverage = metrics["trace.coverage"]
                    .get("value")
                    .and_then(Value::as_f64)
                    .unwrap();
                assert!(
                    (0.95..=1.0).contains(&coverage),
                    "{workload}: layer self times cover {coverage} of the traced cold wall"
                );
            }
        }
    }
}
