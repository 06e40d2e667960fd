//! One workload run: timed passes, output checks and metrics.
//!
//! A measured run (`--trace 0`) spends most of `--seconds` on cold
//! passes (fresh engine, empty cache) and the rest on warm passes
//! (fresh engine over the last cold pass's cache), then reports the
//! end-to-end metrics. A traced run (`--trace 1`) alternates untraced
//! engine passes with traced mirror passes and reports the per-layer
//! metrics. Both check their outputs as they go.

use crate::forwarding;
use crate::layers::{self, TraceFacts};
use crate::pins;
use crate::pipeline::{
    engine_pass, mirror_cold, mirror_parse, mirror_warm, EnginePass, Figure, Output,
};
use crate::stats::{median, sum_of_minima};
use crate::trace::{self, Tracer};
use crate::workloads::{forwarding_cases, DEFAULT_SEED};
use bbrdom_experiments::output::mean;
use bbrdom_netsim::json::Value;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Scratch space of every run, relative to the working directory.
const WORK_ROOT: &str = ".e2e_work";

/// At least this many cold passes, so every part is timed several times.
const MIN_COLD: usize = 3;
/// At least this many warm passes.
const MIN_WARM: usize = 20;
/// Warm passes after each cold pass run for this share of its time.
const WARM_SHARE: f64 = 0.25;

/// What to run.
#[derive(Debug, Clone)]
pub struct Settings {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a run measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Failed output checks; empty when every check passed.
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> Value {
        let mut metrics = Value::object();
        for &(name, value, unit) in &self.metrics {
            let mut m = Value::object();
            m.set("value", Value::F64(value)).set("unit", unit.into());
            metrics.set(name, m);
        }
        let mut v = Value::object();
        v.set("correct", self.correct().into())
            .set("attempted", Value::U64(self.attempted))
            .set("failed", Value::U64(self.failed))
            .set("metrics", metrics);
        v
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, how: String) {
        self.lines
            .push(format!("  {name:<14} {value:>14.6} {unit:<9} {how}"));
        self.metrics.push((name, value, unit));
    }

    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    fn check_pin(&mut self, s: &Settings, digest: u128, events: u64) {
        if s.seed == DEFAULT_SEED {
            if let Err(e) = pins::check(&pins::key(&s.workload, s.smoke), digest, events) {
                self.problems.push(e);
            }
        }
    }
}

/// One run's scratch directory, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(workload: &str) -> WorkDir {
        let dir = Path::new(WORK_ROOT).join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        WorkDir(dir)
    }

    fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no run's directory and no trace is left.
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

/// Paces a run's phases against its `--seconds` budget.
struct Clock {
    start: Instant,
    budget: f64,
}

impl Clock {
    fn new(budget: f64) -> Clock {
        Clock {
            start: Instant::now(),
            budget,
        }
    }

    /// Whether to start another pass: below `min` passes always; after
    /// that only if a pass as long as the mean so far (`spent / done`)
    /// still ends by `end_share` of the budget.
    fn more(&self, done: usize, min: usize, end_share: f64, spent: f64) -> bool {
        done < min
            || self.start.elapsed().as_secs_f64() + spent / done as f64 <= end_share * self.budget
    }
}

/// A warm pass over `cache`, checked against the cold pass's output.
fn warm_pass(s: &Settings, cache: &Path, reference: &Output, r: &mut RunResult) -> EnginePass {
    let pass = engine_pass(&s.workload, s.seed, s.smoke, cache);
    r.check(&pass.output == reference, || {
        "a warm pass differs from the cold pass".into()
    });
    r.check(pass.events == 0, || {
        format!("a warm pass simulated {} events", pass.events)
    });
    pass
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Bytes of the cache entries and of the store index in `dir`.
fn cache_bytes(dir: &Path) -> (u64, u64) {
    let (mut entries, mut index) = (0, 0);
    for e in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let len = e.metadata().map_or(0, |m| m.len());
        match e.file_name().to_string_lossy() {
            name if name == bbrdom_experiments::store::INDEX_FILE => index += len,
            name if name.ends_with(".json") => entries += len,
            _ => {}
        }
    }
    (entries, index)
}

/// How a time was estimated from repeated passes of parts.
fn passes_note(passes: &[Vec<f64>], what: &str) -> String {
    let totals: Vec<f64> = passes.iter().map(|p| p.iter().sum()).collect();
    let min = totals.iter().copied().fold(f64::INFINITY, f64::min);
    let max = totals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "{} parts, each at its fastest of {} {what} passes; pass median {:.6}, min {min:.6}, max {max:.6}",
        passes.first().map_or(0, Vec::len),
        passes.len(),
        median(&totals),
    )
}

/// The timed end-to-end metrics of a measured run.
fn timing_metrics(
    r: &mut RunResult,
    setups: &[f64],
    cold: &[Vec<f64>],
    warm: &[Vec<f64>],
    events: u64,
    warm_what: &str,
) {
    let wall = sum_of_minima(cold);
    r.metric(
        "setup_s",
        median(setups),
        "s",
        format!("median of {} set-ups", setups.len()),
    );
    r.metric("wall_s", wall, "s", passes_note(cold, "cold"));
    r.metric(
        "events_per_s",
        events as f64 / wall,
        "events/s",
        format!("{events} events per cold pass / wall_s"),
    );
    r.metric(
        "warm_s",
        sum_of_minima(warm),
        "s",
        passes_note(warm, warm_what),
    );
}

/// Run one workload as `s` says.
pub fn run(s: &Settings) -> RunResult {
    let work = WorkDir::new(&s.workload);
    let mut r = match (s.workload == "forwarding", s.trace) {
        (false, false) => measure_figure(s, &work),
        (false, true) => trace_figure(s, &work),
        (true, false) => measure_forwarding(s),
        (true, true) => trace_forwarding(s),
    };
    r.lines.insert(
        0,
        format!(
            "e2e {} seed={} seconds={} trace={} smoke={} jobs=1 nproc={}",
            s.workload,
            s.seed,
            s.seconds,
            u8::from(s.trace),
            s.smoke,
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        ),
    );
    if !s.trace {
        match peak_rss_mb() {
            Some(mb) => r.metric("peak_rss_mb", mb, "MB", "VmHWM of this process".into()),
            None => r
                .problems
                .push("cannot read VmHWM from /proc/self/status".into()),
        }
    }
    r.lines.push(if r.problems.is_empty() {
        "  checks: ok".into()
    } else {
        format!("  checks FAILED: {}", r.problems.join("; "))
    });
    r
}

fn measure_figure(s: &Settings, work: &WorkDir) -> RunResult {
    let clock = Clock::new(s.seconds);
    let mut r = RunResult::default();
    let mut cold: Vec<EnginePass> = Vec::new();
    let mut warm: Vec<EnginePass> = Vec::new();
    let mut cache = PathBuf::new();
    let mut spent = 0.0;
    // Rounds of one cold pass and then warm passes over its cache for
    // a quarter of its time, so both kinds sample the whole run.
    while clock.more(cold.len(), MIN_COLD, 0.95, spent) {
        let round = Instant::now();
        let dir = work.join(&format!("cold-{}", cold.len()));
        let pass = engine_pass(&s.workload, s.seed, s.smoke, &dir);
        let cold_s = round.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&cache);
        cache = dir;
        let reference = &cold.first().unwrap_or(&pass).output;
        r.check(
            &pass.output == reference && cold.first().is_none_or(|c| c.events == pass.events),
            || format!("cold pass {} differs from cold pass 0", cold.len()),
        );
        let warm_start = Instant::now();
        while warm_start.elapsed().as_secs_f64() < WARM_SHARE * cold_s {
            warm.push(warm_pass(s, &cache, reference, &mut r));
        }
        cold.push(pass);
        spent += round.elapsed().as_secs_f64();
    }
    let reference = &cold[0].output;
    while warm.len() < MIN_WARM {
        warm.push(warm_pass(s, &cache, reference, &mut r));
    }
    let events = cold[0].events;

    let cells = reference.cell_digests.len() as u64;
    r.attempted = cells * (cold.len() + warm.len()) as u64;
    r.failed = cold
        .iter()
        .chain(&warm)
        .map(|p| p.output.failed as u64)
        .sum();
    r.check_pin(s, reference.digest(), events);

    let (entries, index) = cache_bytes(&cache);
    r.lines.push(format!(
        "  {cells} cells, {events} events per cold pass; cache {:.3} MB + index {:.3} MB; \
         NE band gap {:.4} of n; digest {:032x}",
        entries as f64 / 1e6,
        index as f64 / 1e6,
        reference.band_gap,
        reference.digest(),
    ));
    let parts =
        |passes: &[EnginePass]| passes.iter().map(|p| p.parts_s.clone()).collect::<Vec<_>>();
    let setups: Vec<f64> = warm.iter().map(|p| p.setup_s).collect();
    timing_metrics(
        &mut r,
        &setups,
        &parts(&cold),
        &parts(&warm),
        events,
        "warm",
    );
    r
}

fn measure_forwarding(s: &Settings) -> RunResult {
    let cases = forwarding_cases(s.seed, s.smoke);
    let clock = Clock::new(s.seconds);
    let mut r = RunResult::default();
    // Forwarding keeps no state between passes, so its warm passes
    // simulate again; they alternate with the cold ones.
    let mut phases: [Vec<forwarding::ForwardingPass>; 2] = Default::default();
    let mut spent = 0.0;
    while clock.more(phases[1].len(), MIN_COLD, 0.95, spent) {
        let round = Instant::now();
        for phase in 0..2 {
            let pass = match forwarding::pass(&cases) {
                Ok(p) => p,
                Err(e) => {
                    r.failed += cases.len() as u64;
                    r.problems.push(e);
                    return r;
                }
            };
            let first = phases[0].first().unwrap_or(&pass);
            r.check(
                pass.digest == first.digest && pass.events == first.events,
                || "a forwarding pass differs from pass 0".into(),
            );
            phases[phase].push(pass);
        }
        spent += round.elapsed().as_secs_f64();
    }
    let [cold, warm] = &phases;
    r.attempted = ((cold.len() + warm.len()) * cases.len()) as u64;
    let first = &cold[0];
    let events: u64 = first.events.iter().sum();
    r.check_pin(s, first.digest, events);
    r.lines.push(format!(
        "  {} cases, {events} events per cold pass; digest {:032x}",
        cases.len(),
        first.digest,
    ));
    let parts = |passes: &[forwarding::ForwardingPass]| {
        passes.iter().map(|p| p.parts_s.clone()).collect::<Vec<_>>()
    };
    let setups: Vec<f64> = cold.iter().chain(warm).map(|p| p.setup_s).collect();
    timing_metrics(
        &mut r,
        &setups,
        &parts(cold),
        &parts(warm),
        events,
        "warm (re-simulated)",
    );
    r
}

/// Where a traced run writes its spans.
fn trace_path(workload: &str) -> PathBuf {
    Path::new(WORK_ROOT)
        .join("traces")
        .join(format!("{workload}.jsonl"))
}

fn finish_trace(r: &mut RunResult, s: &Settings, t: &Tracer, facts: &TraceFacts) {
    r.metrics = layers::per_layer(t, facts);
    let path = trace_path(&s.workload);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| t.write_jsonl(&path));
    match written {
        Ok(()) => r.lines.push(format!(
            "  {} spans written to {}",
            t.spans().len(),
            path.display()
        )),
        Err(e) => r
            .problems
            .push(format!("cannot write {}: {e}", path.display())),
    }
    for &(name, value, unit) in &r.metrics {
        r.lines.push(format!("  {name:<32} {value:>16.6} {unit}"));
    }
}

fn trace_figure(s: &Settings, work: &WorkDir) -> RunResult {
    let fig = Figure::generate(&s.workload, s.seed, s.smoke).expect("a figure workload");
    let span_cost_s = trace::calibrate_span_cost();
    let clock = Clock::new(s.seconds);
    let mut r = RunResult::default();
    let mut t = Tracer::new();
    let mut cells = HashMap::new();
    let mut reference: Option<(Output, u64)> = None;
    let mut engine_walls = Vec::new();
    let (mut engine_dir, mut mirror_dir) = (PathBuf::new(), PathBuf::new());
    let mut spent = 0.0;
    while clock.more(engine_walls.len(), 1, 0.85, spent) {
        let round = engine_walls.len();
        let start = Instant::now();
        let (e_dir, m_dir) = (
            work.join(&format!("engine-{round}")),
            work.join(&format!("mirror-{round}")),
        );
        let pass = engine_pass(&s.workload, s.seed, s.smoke, &e_dir);
        let (mirrored, infos) = mirror_cold(&mut t, &fig, &m_dir);
        spent += start.elapsed().as_secs_f64();
        r.check(mirrored == pass.output, || {
            format!("traced pass {round} differs from the engine's results")
        });
        match &reference {
            Some((out, events)) => r.check(&pass.output == out && pass.events == *events, || {
                format!("engine pass {round} differs from engine pass 0")
            }),
            None => reference = Some((pass.output.clone(), pass.events)),
        }
        cells.extend(infos);
        engine_walls.push(pass.parts_s.iter().sum());
        for old in [&engine_dir, &mirror_dir] {
            let _ = std::fs::remove_dir_all(old);
        }
        (engine_dir, mirror_dir) = (e_dir, m_dir);
    }
    let (reference, events) = reference.expect("at least one round");
    let rounds = engine_walls.len();

    // Warm passes are short: a fixed count keeps them from crowding out
    // the cold rounds.
    let warm = MIN_WARM;
    for i in 0..warm {
        let out = mirror_warm(&mut t, &fig, &engine_dir, &work.join("warm-csv"));
        r.check(out == reference, || {
            format!("traced warm pass {i} differs from the cold pass")
        });
    }
    r.check(
        mirror_parse(&mut t, &fig, &mirror_dir) == reference.cell_digests,
        || "parsed cache entries differ from the cold pass".into(),
    );

    let n = reference.cell_digests.len() as u64;
    r.attempted = n * (2 * rounds + warm + 1) as u64;
    r.failed = reference.failed as u64;
    r.check_pin(s, reference.digest(), events);
    let (cache_bytes, index_bytes) = cache_bytes(&engine_dir);
    r.lines.push(format!(
        "  {rounds} engine + traced cold passes, {warm} traced warm passes, 1 parse pass; {n} cells"
    ));
    let facts = TraceFacts {
        cells: &cells,
        cases: &[],
        untraced_wall_s: mean(&engine_walls),
        span_cost_s,
        cache_bytes,
        index_bytes,
        band_gap: reference.band_gap,
    };
    finish_trace(&mut r, s, &t, &facts);
    r
}

fn trace_forwarding(s: &Settings) -> RunResult {
    let cases = forwarding_cases(s.seed, s.smoke);
    let span_cost_s = trace::calibrate_span_cost();
    let clock = Clock::new(s.seconds);
    let mut r = RunResult::default();
    let mut t = Tracer::new();
    let mut untraced = Vec::new();
    let mut reference: Option<(u128, Vec<u64>)> = None;
    let mut spent = 0.0;
    while clock.more(untraced.len(), 2, 0.9, spent) {
        let start = Instant::now();
        let passes = forwarding::pass(&cases)
            .and_then(|p| Ok((p, forwarding::traced_pass(&mut t, &cases)?)));
        spent += start.elapsed().as_secs_f64();
        let (plain, traced) = match passes {
            Ok(p) => p,
            Err(e) => {
                r.failed += cases.len() as u64;
                r.problems.push(e);
                return r;
            }
        };
        r.check(traced == plain.digest, || {
            "traced forwarding results differ".into()
        });
        let (digest, events) =
            reference.get_or_insert_with(|| (plain.digest, plain.events.clone()));
        r.check(plain.digest == *digest && plain.events == *events, || {
            format!("forwarding pass {} differs from pass 0", untraced.len())
        });
        untraced.push(plain.setup_s + plain.parts_s.iter().sum::<f64>());
    }
    r.attempted = (2 * untraced.len() * cases.len()) as u64;
    let (digest, events) = reference.expect("at least two rounds");
    r.check_pin(s, digest, events.iter().sum());
    r.lines
        .push(format!("  {} untraced + traced passes", untraced.len()));
    let cells = HashMap::new();
    let named: Vec<(&'static str, u64)> = cases.iter().map(|c| c.name).zip(events).collect();
    let facts = TraceFacts {
        cells: &cells,
        cases: &named,
        untraced_wall_s: mean(&untraced),
        span_cost_s,
        cache_bytes: 0,
        index_bytes: 0,
        band_gap: 0.0,
    };
    finish_trace(&mut r, s, &t, &facts);
    r
}
