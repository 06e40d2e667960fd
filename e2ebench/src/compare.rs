//! `e2e compare PARENT.jsonl CHANGE.jsonl`: judge a change against its
//! parent from paired runs.
//!
//! Each file holds the records `--record` appends, one run per line.
//! The i-th measured run of a workload in one file pairs with the i-th
//! in the other, so alternate the two builds run by run. Every
//! end-to-end metric of `BENCHMARK.json` gets one row per workload with
//! its verdict (see [`crate::stats::verdict`]). The exit code is 1 when
//! any row regressed.

use crate::stats::{median, quartiles, verdict, Verdict};
use crate::workloads::NAMES;
use bbrdom_netsim::json::{self, Value};
use std::process::ExitCode;

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// A metric of `BENCHMARK.json` with its direction and bound.
struct MetricSpec {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

/// The end-to-end metrics `BENCHMARK.json` declares.
fn end_to_end() -> Vec<MetricSpec> {
    let bench = json::parse(BENCHMARK).expect("BENCHMARK.json is valid JSON");
    bench
        .get("end_to_end")
        .and_then(Value::as_array)
        .expect("BENCHMARK.json lists end_to_end metrics")
        .iter()
        .map(|m| MetricSpec {
            name: m
                .get("name")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .into(),
            unit: m
                .get("unit")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .into(),
            lower_is_better: m.get("better").and_then(Value::as_str) == Some("lower"),
            bound: m.get("bound").and_then(Value::as_f64).unwrap_or(0.0),
        })
        .collect()
}

/// A measured run read from a record file.
struct Record {
    workload: String,
    failed: u64,
    metrics: Value,
}

fn load(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if v.get("trace").and_then(Value::as_u64) != Some(0) {
            continue;
        }
        out.push(Record {
            workload: v
                .get("workload")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .into(),
            failed: v.get("failed").and_then(Value::as_u64).unwrap_or(0),
            metrics: v.get("metrics").cloned().unwrap_or(Value::Null),
        });
    }
    Ok(out)
}

fn values(runs: &[&Record], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.metrics.get(metric)?.get("value")?.as_f64())
        .collect()
}

pub fn main(args: &[String]) -> ExitCode {
    let [parent, change] = args else {
        eprintln!("usage: e2e compare PARENT.jsonl CHANGE.jsonl");
        return ExitCode::from(2);
    };
    let (parent, change) = match (load(parent), load(change)) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<11} {:<13} {:>5}  {:>48}  {:>48}  {:>7}  verdict",
        "workload", "metric", "pairs", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let metrics = end_to_end();
    let mut regressed = false;
    for workload in NAMES {
        let p: Vec<&Record> = parent.iter().filter(|r| r.workload == workload).collect();
        let c: Vec<&Record> = change.iter().filter(|r| r.workload == workload).collect();
        if p.is_empty() && c.is_empty() {
            continue;
        }
        let more_failures =
            c.iter().map(|r| r.failed).sum::<u64>() > p.iter().map(|r| r.failed).sum::<u64>();
        for m in &metrics {
            let (pv, cv) = (values(&p, &m.name), values(&c, &m.name));
            let pairs = pv.len().min(cv.len());
            let mut v = verdict(&pv, &cv, m.lower_is_better, m.bound);
            // A gain does not count when more operations failed.
            if v == Verdict::Improved && more_failures {
                v = Verdict::Unresolved;
            }
            regressed |= v == Verdict::Regressed;
            let wins = pv
                .iter()
                .zip(&cv)
                .filter(|&(p, c)| if m.lower_is_better { c < p } else { c > p })
                .count();
            let show = |xs: &[f64]| {
                let (q1, q3) = quartiles(xs);
                let v = |x: f64| format!("{x:.6e}");
                format!("{} [{}, {}] {}", v(median(xs)), v(q1), v(q3), m.unit)
            };
            println!(
                "{workload:<11} {:<13} {pairs:>5}  {:>48}  {:>48}  {:>7}  {}",
                m.name,
                show(&pv),
                show(&cv),
                format!("{wins}/{pairs}"),
                v.name()
            );
        }
    }
    if regressed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
