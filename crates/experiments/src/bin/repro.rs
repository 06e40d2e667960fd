//! `repro` — regenerate the paper's figures from the command line.
//!
//! ```text
//! repro all                 # every figure, quick profile
//! repro fig03 --full        # one figure at paper scale
//! repro 9 --out results/    # figure 9, CSVs into results/
//! repro 9 --jobs 4          # four simulation workers
//! repro 9 --no-cache        # bypass the scenario result cache
//! repro list                # what's available
//!
//! repro query --cca bbr --mbps 10        # query the indexed result store
//! repro cache stats                      # index entry counts and size
//! ```

use bbrdom_cca::CcaKind;
use bbrdom_experiments::engine::{
    install_signal_handlers, interrupted, scenario_hash, Engine, EngineConfig,
};
use bbrdom_experiments::ext::{run_extension, ALL_EXTENSIONS};
use bbrdom_experiments::figs::{run_figure, ALL_FIGURES};
use bbrdom_experiments::output::Table;
use bbrdom_experiments::runner::payload_message;
use bbrdom_experiments::store::{Store, StoreOutcome};
use bbrdom_experiments::{BackendSpec, Profile, Scenario, WorkloadSpec};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    targets: Vec<String>,
    profile: Profile,
    out_dir: PathBuf,
    jobs: Option<usize>,
    no_cache: bool,
    cache_dir: Option<PathBuf>,
}

/// Optional per-knob overrides applied on top of the chosen profile.
#[derive(Default)]
struct Overrides {
    ne_flows: Option<u32>,
    duration: Option<f64>,
    trials: Option<u32>,
    buffer_points: Option<usize>,
    loss: Option<f64>,
    ack_loss: Option<f64>,
    early_stop: Option<Option<(f64, u32)>>,
    backend: Option<BackendSpec>,
    workload: Option<WorkloadSpec>,
    parkinglot_hops: Option<u32>,
}

/// Default detector knobs for a bare `--early-stop`.
const DEFAULT_EARLY_STOP: (f64, u32) = (0.05, 3);

/// Base RTT of `--workload` flows, ms.
const WORKLOAD_RTT_MS: f64 = 20.0;

/// Parse `--workload CCA:RATE:SIZE` where `RATE` is Poisson arrivals
/// per second and `SIZE` is a fixed transfer size in kB or the word
/// `pareto` (web-like bounded-Pareto sizes).
fn parse_workload(spec: &str) -> Result<WorkloadSpec, String> {
    let err = || {
        format!(
            "--workload {spec} must be CCA:RATE:SIZE \
             (e.g. cubic:80:pareto or bbr:50:30 — SIZE in kB or 'pareto')"
        )
    };
    let mut parts = spec.split(':');
    let (Some(cca), Some(rate), Some(size), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(err());
    };
    let cca: CcaKind = cca.trim().parse().map_err(|_| err())?;
    let rate: f64 = rate.trim().parse().map_err(|_| err())?;
    if !rate.is_finite() || rate <= 0.0 {
        return Err(err());
    }
    if size.trim() == "pareto" {
        Ok(WorkloadSpec::web(cca, rate, WORKLOAD_RTT_MS))
    } else {
        let kb: f64 = size.trim().parse().map_err(|_| err())?;
        if !kb.is_finite() || kb <= 0.0 {
            return Err(err());
        }
        Ok(WorkloadSpec::poisson_fixed(
            cca,
            rate,
            (kb * 1e3) as u64,
            WORKLOAD_RTT_MS,
        ))
    }
}

/// Parse `--early-stop` / `--early-stop=EPS,DWELL`.
fn parse_early_stop(arg: &str) -> Result<(f64, u32), String> {
    let Some(spec) = arg.strip_prefix("--early-stop=") else {
        return Ok(DEFAULT_EARLY_STOP);
    };
    let err = || format!("--early-stop={spec} must be EPS,DWELL (e.g. 0.05,3)");
    let (eps, dwell) = spec.split_once(',').ok_or_else(err)?;
    let eps: f64 = eps.trim().parse().map_err(|_| err())?;
    let dwell: u32 = dwell.trim().parse().map_err(|_| err())?;
    if eps.is_nan() || eps <= 0.0 || dwell == 0 {
        return Err(err());
    }
    Ok((eps, dwell))
}

fn parse_args() -> Result<Args, String> {
    let mut targets = Vec::new();
    let mut profile = Profile::quick();
    let mut out_dir = PathBuf::from("results");
    let mut jobs = None;
    let mut no_cache = false;
    let mut cache_dir = None;
    let mut overrides = Overrides::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--full" => profile = Profile::full(),
            "--quick" => profile = Profile::quick(),
            "--smoke" => profile = Profile::smoke(),
            "--out" => {
                out_dir = PathBuf::from(
                    args.next()
                        .ok_or_else(|| "--out needs a directory".to_string())?,
                );
            }
            "--jobs" => {
                jobs = Some(
                    args.next()
                        .and_then(|v| v.parse::<usize>().ok())
                        .filter(|&n| n > 0)
                        .ok_or_else(|| "--jobs needs a positive number".to_string())?,
                );
            }
            "--no-cache" => no_cache = true,
            "--cache-dir" => {
                cache_dir =
                    Some(PathBuf::from(args.next().ok_or_else(|| {
                        "--cache-dir needs a directory".to_string()
                    })?));
            }
            "--ne-flows" => {
                overrides.ne_flows = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| "--ne-flows needs a number".to_string())?,
                );
            }
            "--duration" => {
                overrides.duration = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| "--duration needs seconds".to_string())?,
                );
            }
            "--trials" => {
                overrides.trials = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| "--trials needs a number".to_string())?,
                );
            }
            "--buffer-points" => {
                overrides.buffer_points = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| "--buffer-points needs a number".to_string())?,
                );
            }
            "--loss" => {
                overrides.loss = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|p| (0.0..=1.0).contains(p))
                        .ok_or_else(|| "--loss needs a probability in [0, 1]".to_string())?,
                );
            }
            "--ack-loss" => {
                overrides.ack_loss = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|p| (0.0..=1.0).contains(p))
                        .ok_or_else(|| "--ack-loss needs a probability in [0, 1]".to_string())?,
                );
            }
            "--backend" => {
                let name = args
                    .next()
                    .ok_or_else(|| "--backend needs 'des' or 'fluid'".to_string())?;
                overrides.backend =
                    Some(BackendSpec::from_name(&name).ok_or_else(|| {
                        format!("--backend must be 'des' or 'fluid', got '{name}'")
                    })?);
            }
            "--parkinglot-hops" => {
                overrides.parkinglot_hops = Some(
                    args.next()
                        .and_then(|v| v.parse::<u32>().ok())
                        .filter(|&n| n >= 2)
                        .ok_or_else(|| "--parkinglot-hops needs a count >= 2".to_string())?,
                );
            }
            "--workload" => {
                let spec = args
                    .next()
                    .ok_or_else(|| "--workload needs CCA:RATE:SIZE".to_string())?;
                overrides.workload = Some(parse_workload(&spec)?);
            }
            s if s == "--early-stop" || s.starts_with("--early-stop=") => {
                overrides.early_stop = Some(Some(parse_early_stop(s)?));
            }
            "--no-early-stop" => overrides.early_stop = Some(None),
            "--help" | "-h" => {
                return Err(usage());
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag '{other}'\n{}", usage()));
            }
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        return Err(usage());
    }
    if let Some(n) = overrides.ne_flows {
        profile.ne_flows = n;
    }
    if let Some(d) = overrides.duration {
        profile.duration_secs = d;
    }
    if let Some(t) = overrides.trials {
        profile.trials = t;
        profile.ne_trials = t;
    }
    if let Some(b) = overrides.buffer_points {
        profile.buffer_points = b;
    }
    if let Some(p) = overrides.loss {
        profile.loss = p;
    }
    if let Some(p) = overrides.ack_loss {
        profile.ack_loss = p;
    }
    if let Some(e) = overrides.early_stop {
        profile.early_stop = e;
    }
    if let Some(b) = overrides.backend {
        profile.backend = b;
    }
    if let Some(w) = overrides.workload {
        profile.workload = Some(w);
    }
    if let Some(h) = overrides.parkinglot_hops {
        profile.parkinglot_hops = h;
    }
    if profile.workload.is_some() {
        if profile.early_stop.is_some() {
            return Err(
                "--workload is incompatible with --early-stop: goodput never quiesces \
                 under open-loop churn"
                    .to_string(),
            );
        }
        if profile.backend == BackendSpec::Fluid {
            return Err(
                "--workload is incompatible with --backend fluid: churn is outside the \
                 fluid model's envelope"
                    .to_string(),
            );
        }
    }
    Ok(Args {
        targets,
        profile,
        out_dir,
        jobs,
        no_cache,
        cache_dir,
    })
}

fn usage() -> String {
    format!(
        "usage: repro <figure>... [--full|--quick|--smoke] [--out DIR]\n\
         \n\
         figures: {}  (or 'all', or bare numbers like '3')\n\
         extensions: {}  (or 'ext' for all of them)\n\
         profiles: --quick (default, minutes), --full (paper scale), --smoke (seconds)\n\
         overrides: --ne-flows N  --duration SECS  --trials N  --buffer-points N\n\
         impairments (ext-faults): --loss P  --ack-loss P  (wire-loss probability, 0-1)\n\
         workload: --workload CCA:RATE:SIZE (open-loop churn on every scenario; RATE in\n\
         \x20          flows/s, SIZE in kB or 'pareto', e.g. cubic:80:pareto)\n\
         topology: --parkinglot-hops N (bottleneck count of the ext-parkinglot chain; >= 2)\n\
         perf: --backend des|fluid (packet DES, default, or the fluid/ODE fast model)\n\
         \x20     --early-stop[=EPS,DWELL] (stop converged runs early; default 0.05,3)\n\
         \x20     --no-early-stop (fixed horizon, default)\n\
         engine: --jobs N (or BBRDOM_JOBS; default: all cores)\n\
         \x20        --no-cache (always re-simulate)  --cache-dir DIR (default: <out>/cache)\n\
         store:  repro query [FILTERS] (search the indexed result store; see repro query -h)\n\
         \x20        repro cache stats [--cache-dir DIR] (index entry counts and bytes)\n",
        ALL_FIGURES.join(" "),
        ALL_EXTENSIONS.join(" ")
    )
}

/// Parse a `BBRDOM_JOBS` value: a positive worker count, surrounding
/// whitespace allowed; anything else is ignored.
fn parse_jobs(value: &str) -> Option<usize> {
    value.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// The machine's parallelism, the default worker count.
fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Default store location when a subcommand gets no `--cache-dir`:
/// matches the figure path's `<out>/cache` with the default `--out`.
fn default_cache_dir() -> PathBuf {
    PathBuf::from("results").join("cache")
}

fn query_usage() -> String {
    "usage: repro query [--cache-dir DIR] [FILTERS] [OUTPUT]\n\
     \n\
     Search the indexed result store (<cache>/index.jsonl) without\n\
     simulating. Filters AND together:\n\
     \x20 --cca MIX        flow mix: 'bbr' (present, any count) or exact 'cubic:4+bbr:2'\n\
     \x20 --mbps X --rtt MS --buffer BDP   bottleneck capacity / base RTT / buffer size\n\
     \x20 --n N            total flow count      --seed N   trial seed\n\
     \x20 --backend des|fluid               simulation backend\n\
     \x20 --workload yes|no --topology yes|no   presence of churn / an explicit topology\n\
     \x20 --ok | --failed  outcome status (default: both)\n\
     output:\n\
     \x20 aligned table (default)  --jsonl (raw index lines)  --count (matches only)\n\
     \x20 --missing FILE   read scenario-JSON lines from FILE ('-' = stdin) and print\n\
     \x20                  the ones the store cannot serve — sweep planning\n"
        .to_string()
}

struct QueryFilter {
    cca: Option<String>,
    mbps: Option<f64>,
    rtt: Option<f64>,
    buffer: Option<f64>,
    n: Option<usize>,
    seed: Option<u64>,
    backend: Option<BackendSpec>,
    workload: Option<bool>,
    topology: Option<bool>,
    ok_only: bool,
    failed_only: bool,
}

impl QueryFilter {
    fn matches(&self, entry: &bbrdom_experiments::StoreEntry) -> bool {
        let s = &entry.scenario;
        let ok = entry.ok().is_some();
        if self.ok_only && !ok {
            return false;
        }
        if self.failed_only && ok {
            return false;
        }
        if let Some(mix) = &self.cca {
            if !entry.mix_matches(mix) {
                return false;
            }
        }
        self.mbps.is_none_or(|v| s.mbps == v)
            && self.rtt.is_none_or(|v| s.reference_rtt_ms == v)
            && self.buffer.is_none_or(|v| s.buffer_bdp == v)
            && self.n.is_none_or(|v| s.flows.len() == v)
            && self.seed.is_none_or(|v| s.seed == v)
            && self.backend.is_none_or(|v| s.backend == v)
            && self.workload.is_none_or(|v| s.workload.is_some() == v)
            && self.topology.is_none_or(|v| s.topology.is_some() == v)
    }
}

fn parse_yes_no(flag: &str, v: Option<String>) -> Result<bool, String> {
    match v.as_deref() {
        Some("yes") => Ok(true),
        Some("no") => Ok(false),
        _ => Err(format!("{flag} needs 'yes' or 'no'")),
    }
}

/// `repro query ...` — answer filters from the index alone.
fn query_subcommand() -> ExitCode {
    let mut cache_dir = default_cache_dir();
    let mut filter = QueryFilter {
        cca: None,
        mbps: None,
        rtt: None,
        buffer: None,
        n: None,
        seed: None,
        backend: None,
        workload: None,
        topology: None,
        ok_only: false,
        failed_only: false,
    };
    let mut jsonl = false;
    let mut count = false;
    let mut missing: Option<String> = None;
    let mut args = std::env::args().skip(2);
    let fail = |msg: String| -> ExitCode {
        eprintln!("{msg}\n{}", query_usage());
        ExitCode::from(2)
    };
    while let Some(a) = args.next() {
        let num = |flag: &str, v: Option<String>| -> Result<f64, String> {
            v.and_then(|v| v.parse::<f64>().ok())
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("{flag} needs a number"))
        };
        match a.as_str() {
            "--cache-dir" => match args.next() {
                Some(d) => cache_dir = PathBuf::from(d),
                None => return fail("--cache-dir needs a directory".into()),
            },
            "--cca" => match args.next() {
                Some(m) => filter.cca = Some(m),
                None => return fail("--cca needs a mix like 'bbr' or 'cubic:4+bbr:2'".into()),
            },
            "--mbps" => match num("--mbps", args.next()) {
                Ok(v) => filter.mbps = Some(v),
                Err(e) => return fail(e),
            },
            "--rtt" => match num("--rtt", args.next()) {
                Ok(v) => filter.rtt = Some(v),
                Err(e) => return fail(e),
            },
            "--buffer" => match num("--buffer", args.next()) {
                Ok(v) => filter.buffer = Some(v),
                Err(e) => return fail(e),
            },
            "--n" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(v) => filter.n = Some(v),
                None => return fail("--n needs a flow count".into()),
            },
            "--seed" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(v) => filter.seed = Some(v),
                None => return fail("--seed needs a number".into()),
            },
            "--backend" => match args.next().as_deref().and_then(BackendSpec::from_name) {
                Some(b) => filter.backend = Some(b),
                None => return fail("--backend needs 'des' or 'fluid'".into()),
            },
            "--workload" => match parse_yes_no("--workload", args.next()) {
                Ok(v) => filter.workload = Some(v),
                Err(e) => return fail(e),
            },
            "--topology" => match parse_yes_no("--topology", args.next()) {
                Ok(v) => filter.topology = Some(v),
                Err(e) => return fail(e),
            },
            "--ok" => filter.ok_only = true,
            "--failed" => filter.failed_only = true,
            "--jsonl" => jsonl = true,
            "--count" => count = true,
            "--missing" => match args.next() {
                Some(p) => missing = Some(p),
                None => {
                    return fail(
                        "--missing needs a file of scenario-JSON lines ('-' = stdin)".into(),
                    )
                }
            },
            "--help" | "-h" => {
                print!("{}", query_usage());
                return ExitCode::SUCCESS;
            }
            other => return fail(format!("unknown query argument '{other}'")),
        }
    }
    if filter.ok_only && filter.failed_only {
        return fail("--ok and --failed are mutually exclusive".into());
    }
    let store = Store::open(&cache_dir);

    // Sweep planning: which of the given scenarios can the store NOT
    // serve? Prints the unservable lines (or their count) so a caller
    // can pipe them straight into a sweep.
    if let Some(src) = missing {
        let text = if src == "-" {
            use std::io::Read as _;
            let mut buf = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
                eprintln!("repro query: cannot read stdin: {e}");
                return ExitCode::FAILURE;
            }
            buf
        } else {
            match std::fs::read_to_string(&src) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("repro query: cannot read {src}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        };
        let mut missing_count = 0usize;
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let Ok(scenario) = Scenario::from_json(line) else {
                eprintln!(
                    "repro query: --missing line {} is not a scenario",
                    lineno + 1
                );
                return ExitCode::from(2);
            };
            let served = store
                .get(scenario_hash(&scenario))
                .is_some_and(|e| e.ok().is_some());
            if !served {
                missing_count += 1;
                if !count {
                    println!("{line}");
                }
            }
        }
        if count {
            println!("{missing_count}");
        }
        return ExitCode::SUCCESS;
    }

    let matches: Vec<_> = store
        .entries()
        .into_iter()
        .filter(|e| filter.matches(e))
        .collect();
    if count {
        println!("{}", matches.len());
        return ExitCode::SUCCESS;
    }
    if jsonl {
        for e in &matches {
            println!("{}", e.to_json_line());
        }
        return ExitCode::SUCCESS;
    }
    let mut table = Table::new(
        format!("store query — {} of {} entries", matches.len(), store.len()),
        &[
            "key",
            "mix",
            "mbps",
            "rtt_ms",
            "buf_bdp",
            "n",
            "seed",
            "backend",
            "status",
            "events",
            "util",
            "goodput_mbps",
        ],
    );
    for e in &matches {
        let s = &e.scenario;
        let (status, events, util, goodput) = match &e.outcome {
            StoreOutcome::Ok { events, result } => (
                "ok".to_string(),
                events.map_or_else(|| "-".to_string(), |v| v.to_string()),
                format!("{:.3}", result.utilization),
                e.goodput_by_cca()
                    .iter()
                    .map(|(cca, g)| format!("{cca}={g:.2}"))
                    .collect::<Vec<_>>()
                    .join(" "),
            ),
            StoreOutcome::Failed { error, .. } => (
                format!("failed: {}", error.chars().take(24).collect::<String>()),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
            ),
        };
        table.push_row(vec![
            e.key[..12].to_string(),
            e.mix(),
            format!("{}", s.mbps),
            format!("{}", s.reference_rtt_ms),
            format!("{}", s.buffer_bdp),
            s.flows.len().to_string(),
            s.seed.to_string(),
            s.backend.name().to_string(),
            status,
            events,
            util,
            goodput,
        ]);
    }
    print!("{}", table.render());
    ExitCode::SUCCESS
}

/// `repro cache stats [--cache-dir DIR]` — index entry counts and bytes.
fn cache_subcommand() -> ExitCode {
    let mut cache_dir = default_cache_dir();
    let mut args = std::env::args().skip(2);
    let usage = "usage: repro cache stats [--cache-dir DIR]";
    match args.next().as_deref() {
        Some("stats") => {}
        _ => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    }
    while let Some(a) = args.next() {
        match a.as_str() {
            "--cache-dir" => match args.next() {
                Some(d) => cache_dir = PathBuf::from(d),
                None => {
                    eprintln!("--cache-dir needs a directory\n{usage}");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown argument '{other}'\n{usage}");
                return ExitCode::from(2);
            }
        }
    }
    match Store::cache_stats(&cache_dir) {
        Ok(s) => {
            println!("cache {}", cache_dir.display());
            println!(
                "  index : {} ok + {} failed ({} bytes)",
                s.index_ok, s.index_failed, s.index_bytes
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!(
                "repro cache stats: cannot scan {}: {e}",
                cache_dir.display()
            );
            ExitCode::FAILURE
        }
    }
}

/// Peak resident set of this process so far (`VmHWM`), MB; `None`
/// where `/proc/self/status` cannot be read.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024.0 / 1e6)
}

fn main() -> ExitCode {
    match std::env::args().nth(1).as_deref() {
        Some("query") => return query_subcommand(),
        Some("cache") => return cache_subcommand(),
        _ => {}
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if args.targets.iter().any(|t| t == "list") {
        println!("{}", ALL_FIGURES.join("\n"));
        return ExitCode::SUCCESS;
    }
    // Ctrl-C / SIGTERM finish recording the finished trials and print a
    // resume hint instead of tearing the process down mid-write.
    install_signal_handlers();
    // One scenario engine for every target, so `repro all` shares its
    // memo and cache across figures. Disk cache defaults to <out>/cache
    // so warm reruns of the same figure skip the work.
    let disk_cache = if args.no_cache {
        None
    } else {
        Some(
            args.cache_dir
                .clone()
                .unwrap_or_else(|| args.out_dir.join("cache")),
        )
    };
    let env_jobs = std::env::var("BBRDOM_JOBS").ok();
    let jobs = args
        .jobs
        .or_else(|| env_jobs.as_deref().and_then(parse_jobs))
        .unwrap_or_else(available_cores);
    let engine = Engine::new(EngineConfig {
        jobs,
        disk_cache,
        memory_cache: !args.no_cache,
        result_store: !args.no_cache,
        ..EngineConfig::default()
    });
    eprintln!("engine: {jobs} jobs");
    let mut targets: Vec<String> = Vec::new();
    for t in &args.targets {
        match t.as_str() {
            "all" => {
                targets.extend(ALL_FIGURES.iter().map(|s| s.to_string()));
            }
            "ext" => {
                targets.extend(ALL_EXTENSIONS.iter().map(|s| s.to_string()));
            }
            other => targets.push(other.to_string()),
        }
    }
    // Fail-soft across targets: a figure that panics is reported and the
    // remaining figures still run; the exit code records the damage.
    let mut failed: Vec<(String, String)> = Vec::new();
    for target in &targets {
        if interrupted() {
            eprintln!("interrupted — skipping remaining targets");
            return ExitCode::from(130);
        }
        eprintln!("== running {target} ==");
        let started = std::time::Instant::now();
        let stats_before = engine.stats();
        let ran = std::panic::catch_unwind(|| {
            run_figure(target, &engine, &args.profile)
                .or_else(|| run_extension(target, &engine, &args.profile))
        });
        match ran {
            Ok(Some(result)) => {
                print!("{}", result.render());
                match result.write_csvs(&args.out_dir) {
                    Ok(paths) => {
                        for p in paths {
                            eprintln!("wrote {}", p.display());
                        }
                    }
                    Err(e) => {
                        eprintln!("error writing CSVs for {target}: {e}");
                        failed.push((target.clone(), format!("CSV write failed: {e}")));
                        continue;
                    }
                }
                let spent = engine.stats().since(&stats_before);
                eprintln!(
                    "== {target} done in {:.1}s ({}){} ==",
                    started.elapsed().as_secs_f64(),
                    spent.summary(),
                    peak_rss_mb().map_or_else(String::new, |mb| format!(", peak RSS {mb:.1} MB"))
                );
            }
            Ok(None) => {
                eprintln!("unknown figure '{target}'\n{}", usage());
                return ExitCode::from(2);
            }
            Err(payload) => {
                let msg = payload_message(&*payload);
                eprintln!("== {target} FAILED: {msg} ==");
                failed.push((target.clone(), msg));
            }
        }
    }
    if !failed.is_empty() {
        eprintln!("\n{} of {} targets failed:", failed.len(), targets.len());
        for (target, msg) in &failed {
            eprintln!("  {target}: {msg}");
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bbrdom_jobs_parses_positive_counts_only() {
        assert_eq!(parse_jobs("3"), Some(3));
        assert_eq!(parse_jobs(" 3 "), Some(3));
        assert_eq!(parse_jobs("0"), None);
        assert_eq!(parse_jobs("x"), None);
        assert_eq!(parse_jobs(""), None);
    }
}
