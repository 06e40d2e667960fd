//! `e2e`: the end-to-end figure benchmark. See the README.
//!
//! ```text
//! e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--record FILE]
//! e2e compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! With `--workload` the run happens in this process and its last
//! stdout line is the result object. Without it every workload runs in
//! a child process of its own, one after another.

mod compare;
mod forwarding;
mod layers;
mod pins;
mod pipeline;
mod run;
mod stats;
mod trace;
mod workloads;

use bbrdom_netsim::json::{self, Value};
use run::{RunResult, Settings};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::{DEFAULT_SEED, NAMES};

/// Seconds one run measures unless `--seconds` says otherwise; the same
/// as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;

const USAGE: &str =
    "usage: e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--record FILE]
       e2e compare PARENT.jsonl CHANGE.jsonl
workloads: ne-des, ne-fluid, churn, forwarding";

struct Options {
    workload: Option<String>,
    settings: Settings,
    record: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        settings: Settings {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            smoke: false,
        },
        record: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            o.settings.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if NAMES.contains(&value.as_str()) => o.workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => o.settings.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                o.settings.seconds = value.parse().map_err(|_| bad())?;
                if !(o.settings.seconds > 0.0 && o.settings.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                o.settings.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--record" => o.record = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(o)
}

/// Append a run to a `--record` file for `e2e compare`.
fn record(path: &PathBuf, s: &Settings, r: &RunResult) -> std::io::Result<()> {
    let mut v = r.to_json();
    v.set("workload", s.workload.as_str().into())
        .set("seed", Value::U64(s.seed))
        .set("trace", Value::U64(u64::from(s.trace)));
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{}", v.to_json())
}

fn run_one(o: &Options, workload: &str) -> ExitCode {
    let settings = Settings {
        workload: workload.to_string(),
        ..o.settings.clone()
    };
    let result = run::run(&settings);
    for line in &result.lines {
        println!("{line}");
    }
    if let Some(path) = &o.record {
        if let Err(e) = record(path, &settings, &result) {
            eprintln!("cannot append to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result.to_json().to_json());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload in a child process of its own, one at a time.
fn run_all(o: &Options, args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut summary = Vec::new();
    for name in NAMES {
        let output = Command::new(&exe)
            .args(["--workload", name])
            .args(args)
            .output();
        let output = match output {
            Ok(out) => out,
            Err(e) => {
                eprintln!("cannot run workload {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        std::io::stderr().write_all(&output.stderr).ok();
        let result = stdout.lines().last().and_then(|l| json::parse(l).ok());
        let correct = result.as_ref().and_then(|v| v.get("correct")?.as_bool()) == Some(true);
        ok &= output.status.success() && correct;
        if let Some(Value::Object(metrics)) = result.as_ref().and_then(|v| v.get("metrics")) {
            for (metric, m) in metrics {
                let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
                summary.push(format!("{name:<11} {metric:<32} {value:>16.6} {unit}"));
            }
        }
        if !correct {
            summary.push(format!("{name:<11} FAILED (exit {})", output.status));
        }
    }
    println!(
        "\n== summary (seed {}, trace {}) ==",
        o.settings.seed,
        u8::from(o.settings.trace)
    );
    for line in summary {
        println!("{line}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let o = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match o.workload.clone() {
        Some(w) => run_one(&o, &w),
        None => run_all(&o, &args),
    }
}
