//! Crash-safe multi-process sweep supervision.
//!
//! The engine's thread pool survives trial *errors* (fail-soft budgets,
//! `catch_unwind`), but not trial *deaths*: a scenario that aborts the
//! process, exhausts memory, or livelocks past every budget takes the
//! whole sweep with it. This module adds a process boundary around the
//! blast radius. The parent partitions a batch across N `repro worker`
//! subprocesses, leases scenario indices to workers over stdin, and
//! collects claim/result lines over stdout. Liveness is tracked two ways:
//!
//! * **exit** — a worker that dies (non-zero exit, signal) forfeits its
//!   leased scenarios;
//! * **heartbeat** — each worker writes a counter file every few hundred
//!   milliseconds; the write is skipped while every in-flight trial has
//!   exceeded the stall limit, so a livelocked worker goes quiet and the
//!   parent's watchdog kills it.
//!
//! Forfeited scenarios that had been *claimed* (the worker announced it
//! was running them) earn a strike and are retried on surviving workers
//! with exponential backoff; at [`SupervisorConfig::max_strikes`]
//! strikes the scenario is **quarantined** — recorded as a structured
//! [`TrialOutcome::Failed`] so the sweep completes and the caller's
//! fail-soft contract (degraded figure, non-zero exit) takes over.
//! Assigned-but-unclaimed scenarios are requeued without blame.
//!
//! Determinism is preserved by construction: every result is slotted by
//! scenario index in the parent, which remains the result store index's
//! single writer, so a supervised sweep is bit-identical to a serial one
//! on every non-quarantined cell (see `tests/supervisor.rs`). Workers
//! write nothing to disk: the parent records every result a worker
//! reports, so a parent killed mid-batch resumes by rerunning against
//! the same cache, which serves every trial its index recorded.
//!
//! Test hooks: `BBRDOM_TEST_POISON_HASH` (comma-separated scenario
//! keys) makes a worker abort — or stall forever with
//! `BBRDOM_TEST_POISON_MODE=stall` — after claiming a matching
//! scenario; `BBRDOM_TEST_POISON_ONCE=<marker-path>` limits the
//! sabotage to the first encounter so retries succeed.

use crate::engine::{scenario_context, CacheStats, Engine, EngineConfig};
use crate::runner::{TrialFailure, TrialOutcome};
use crate::scenario::{Scenario, TrialResult};
use bbrdom_netsim::json::{self, Value};
use bbrdom_netsim::ConfigError;
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// How a supervised batch is sharded and policed.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Worker subprocesses to shard the batch across.
    pub workers: usize,
    /// Kill a worker whose heartbeat has not advanced for this long
    /// while it holds leased scenarios. Workers stop heartbeating once
    /// every in-flight trial has run longer than `watchdog / 2`, so the
    /// effective livelock detection latency is about `1.5 * watchdog`.
    pub watchdog: Duration,
    /// Worker deaths a single scenario may cause before it is
    /// quarantined as [`TrialOutcome::Failed`].
    pub max_strikes: u32,
    /// First retry delay after a strike; doubles per strike.
    pub backoff_base: Duration,
    /// The binary to spawn as `<worker_exe> worker --dir .. --id ..`
    /// (defaults to the current executable).
    pub worker_exe: PathBuf,
    /// Directory for batch manifests and heartbeat/pid files.
    pub state_dir: PathBuf,
    /// Extra environment for workers (test hooks use this so parallel
    /// tests never race on the parent's own environment).
    pub worker_env: Vec<(String, String)>,
}

impl SupervisorConfig {
    /// Production defaults: 30 s watchdog, 2 strikes, 250 ms backoff,
    /// re-exec the current binary.
    pub fn new(workers: usize, state_dir: impl Into<PathBuf>) -> Self {
        SupervisorConfig {
            workers: workers.max(1),
            watchdog: Duration::from_secs(30),
            max_strikes: 2,
            backoff_base: Duration::from_millis(250),
            worker_exe: std::env::current_exe().unwrap_or_else(|_| PathBuf::from("repro")),
            state_dir: state_dir.into(),
            worker_env: Vec::new(),
        }
    }
}

/// Heartbeat cadence implied by a watchdog interval: frequent enough
/// that several beats fit in one watchdog window, bounded on both ends.
fn heartbeat_interval(watchdog: Duration) -> Duration {
    (watchdog / 8).clamp(Duration::from_millis(25), Duration::from_secs(1))
}

enum WorkerEvent {
    Line(u64, String),
    Eof,
}

struct WorkerSlot {
    id: u64,
    child: Child,
    stdin: Option<ChildStdin>,
    /// Indices sent over stdin and not yet resulted.
    assigned: HashSet<usize>,
    /// Subset of `assigned` the worker has announced it is running.
    claimed: HashSet<usize>,
    last_beat: String,
    beat_seen: Instant,
}

fn io_err(what: &'static str, path: &Path, e: &std::io::Error) -> ConfigError {
    ConfigError::Io {
        what,
        path: path.display().to_string(),
        reason: e.to_string(),
    }
}

fn spawn_worker(
    config: &SupervisorConfig,
    work_dir: &Path,
    id: u64,
    tx: &mpsc::Sender<WorkerEvent>,
) -> std::io::Result<WorkerSlot> {
    let mut cmd = Command::new(&config.worker_exe);
    cmd.arg("worker")
        .arg("--dir")
        .arg(work_dir)
        .arg("--id")
        .arg(id.to_string())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    for (k, v) in &config.worker_env {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn()?;
    let _ = std::fs::write(
        work_dir.join(format!("worker-{id}.pid")),
        child.id().to_string(),
    );
    let stdin = child.stdin.take();
    let stdout = child.stdout.take().expect("worker stdout is piped");
    let tx = tx.clone();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send(WorkerEvent::Line(id, line)).is_err() {
                return;
            }
        }
        let _ = tx.send(WorkerEvent::Eof);
    });
    Ok(WorkerSlot {
        id,
        child,
        stdin,
        assigned: HashSet::new(),
        claimed: HashSet::new(),
        last_beat: String::new(),
        beat_seen: Instant::now(),
    })
}

/// Parse a worker's end-of-life cache-counter report, if `line` is one.
fn parse_stats_line(line: &str) -> Option<CacheStats> {
    let v = json::parse(line).ok()?;
    let s = v.get("stats")?;
    let g = |k: &str| s.get(k).and_then(Value::as_u64).unwrap_or(0);
    Some(CacheStats {
        memory_hits: g("memory_hits"),
        store_hits: g("store_hits"),
        deduped: g("deduped"),
        simulated: g("simulated"),
        events_simulated: g("events_simulated"),
    })
}

/// Serialize a worker's result line: the trial's index and content key,
/// its outcome, and the recorded event count when known (the parent's
/// result store needs it to stay budget-admissible).
fn result_line(index: usize, key: &str, outcome: &TrialOutcome, events: Option<u64>) -> String {
    let mut v = Value::object();
    v.set("index", Value::U64(index as u64))
        .set("key", key.into());
    match outcome {
        TrialOutcome::Ok(r) => {
            v.set("ok", true.into()).set("result", r.to_json_value());
        }
        TrialOutcome::Failed(f) => {
            v.set("ok", false.into())
                .set("error", Value::Str(f.error.clone()))
                .set("context", Value::Str(f.context.clone()));
        }
    }
    if let Some(e) = events {
        v.set("events", Value::U64(e));
    }
    v.to_json()
}

/// Parse a worker's result line into `(index, key, outcome, events)`;
/// `None` for anything else (claims, stats, garbage). Read field by
/// field, like an index line ([`crate::store::StoreEntry::from_json_line`]).
fn parse_result_line(line: &str) -> Option<(usize, String, TrialOutcome, Option<u64>)> {
    let (mut index, mut key, mut ok, mut result) = (None, None, None, None);
    let (mut error, mut context, mut events) = (None, None, None);
    json::Reader::document(line, |r| {
        r.object(|r, k| {
            match k {
                "index" => index = Some(r.u64()?),
                "key" => key = Some(r.str()?),
                "ok" => ok = Some(r.bool()?),
                "result" => result = Some(TrialResult::read(r)?),
                "error" => error = Some(r.str()?),
                "context" => context = r.str()?,
                "events" => events = r.u64()?,
                _ => r.skip()?,
            }
            Ok(())
        })
    })
    .ok()?;
    let index = index?? as usize;
    let key = key??.into_owned();
    let outcome = match ok?? {
        true => TrialOutcome::Ok(Arc::new(result?.ok()?)),
        false => TrialOutcome::Failed(TrialFailure {
            index,
            error: error??.into_owned(),
            context: context.unwrap_or_default().into_owned(),
        }),
    };
    Some((index, key, outcome, events))
}

fn add_stats(total: &mut CacheStats, part: &CacheStats) {
    total.memory_hits += part.memory_hits;
    total.store_hits += part.store_hits;
    total.deduped += part.deduped;
    total.simulated += part.simulated;
    total.events_simulated += part.events_simulated;
}

/// Run the `pending` indices of a batch across worker subprocesses.
/// Calls `on_result(index, outcome, events)` exactly once per pending
/// index, in completion order (the caller slots by index and owns the
/// result store — `events` is the worker-reported event count feeding
/// it). Returns the workers' aggregated cache counters.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_supervised(
    config: &SupervisorConfig,
    scenarios: &[Scenario],
    keys: &[String],
    pending: &[usize],
    event_budget: Option<u64>,
    wall_budget_ns: Option<u64>,
    jobs_per_worker: usize,
    cache_dir: Option<&Path>,
    on_result: &mut dyn FnMut(usize, TrialOutcome, Option<u64>),
) -> Result<CacheStats, ConfigError> {
    // One work dir per batch: the pid separates concurrent parents, the
    // sequence number separates this process's batches.
    static BATCH_SEQ: AtomicU64 = AtomicU64::new(0);
    let work_dir = config.state_dir.join(format!(
        "work-{}-{}",
        std::process::id(),
        BATCH_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| io_err("supervisor state dir", &work_dir, &e))?;

    // The worker-facing batch description: one scenario record per
    // pending index, plus a manifest with budgets and tuning.
    let mut records = String::new();
    for &i in pending {
        let mut v = Value::object();
        v.set("index", Value::U64(i as u64))
            .set("key", keys[i].as_str().into())
            .set("scenario", scenarios[i].to_json_value());
        records.push_str(&v.to_json());
        records.push('\n');
    }
    let scenarios_path = work_dir.join("scenarios.jsonl");
    std::fs::write(&scenarios_path, records)
        .map_err(|e| io_err("supervisor batch file", &scenarios_path, &e))?;

    let hb_interval = heartbeat_interval(config.watchdog);
    let stall_limit = config.watchdog / 2;
    let mut manifest = Value::object();
    manifest
        .set("version", Value::U64(1))
        .set("jobs", Value::U64(jobs_per_worker.max(1) as u64))
        .set("hb_interval_ms", Value::U64(hb_interval.as_millis() as u64))
        .set(
            "stall_limit_ms",
            Value::U64((stall_limit.as_millis() as u64).max(1)),
        );
    if let Some(b) = event_budget {
        manifest.set("event_budget", Value::U64(b));
    }
    if let Some(b) = wall_budget_ns {
        manifest.set("wall_budget_ns", Value::U64(b));
    }
    let manifest_path = work_dir.join("manifest.json");
    std::fs::write(&manifest_path, manifest.to_json())
        .map_err(|e| io_err("supervisor manifest", &manifest_path, &e))?;

    let (tx, rx) = mpsc::channel::<WorkerEvent>();
    let mut workers: HashMap<u64, WorkerSlot> = HashMap::new();
    let mut next_id: u64 = 0;
    let mut spawned = 0usize;
    // Hard cap on lifetime spawns: crashes are bounded by quarantine, so
    // anything past this is a spawn loop bug, not recoverable load.
    let spawn_cap = config.workers * (config.max_strikes as usize + 2) + 8;
    let mut unresolved: HashSet<usize> = pending.iter().copied().collect();
    let mut queue: Vec<(Instant, usize)> = pending.iter().map(|&i| (Instant::now(), i)).collect();
    let mut strikes: HashMap<usize, u32> = HashMap::new();
    let mut stats = CacheStats::default();
    // Leases outstanding per worker: enough to keep its threads busy
    // while bounding how much work one death forfeits.
    let window = jobs_per_worker.max(1) * 2;

    let target = config.workers.min(pending.len()).max(1);
    for _ in 0..target {
        match spawn_worker(config, &work_dir, next_id, &tx) {
            Ok(w) => {
                workers.insert(w.id, w);
                next_id += 1;
                spawned += 1;
            }
            Err(e) => {
                if workers.is_empty() {
                    let _ = std::fs::remove_dir_all(&work_dir);
                    return Err(io_err("supervise worker", &config.worker_exe, &e));
                }
                eprintln!(
                    "warning: spawned only {} of {} supervise workers: {e}",
                    workers.len(),
                    target
                );
                break;
            }
        }
    }

    while !unresolved.is_empty() {
        if interrupted() {
            for w in workers.values_mut() {
                let _ = w.child.kill();
            }
            exit_interrupted(cache_dir);
        }

        // 1. Drain worker output (briefly block for the first event so
        // an idle supervisor doesn't spin).
        let mut events: Vec<WorkerEvent> = Vec::new();
        if let Ok(ev) = rx.recv_timeout(Duration::from_millis(20)) {
            events.push(ev);
        }
        while let Ok(ev) = rx.try_recv() {
            events.push(ev);
        }
        for ev in events {
            let WorkerEvent::Line(id, line) = ev else {
                continue; // EOF: the exit itself is handled by try_wait
            };
            if let Ok(v) = json::parse(&line) {
                if let Some(c) = v.get("claim").and_then(Value::as_u64) {
                    if let Some(w) = workers.get_mut(&id) {
                        w.claimed.insert(c as usize);
                    }
                    continue;
                }
            }
            if let Some(part) = parse_stats_line(&line) {
                add_stats(&mut stats, &part);
                continue;
            }
            let Some((i, key, outcome, events)) = parse_result_line(&line) else {
                continue;
            };
            if i >= keys.len() || key != keys[i] {
                continue;
            }
            if let Some(w) = workers.get_mut(&id) {
                w.assigned.remove(&i);
                w.claimed.remove(&i);
            }
            // A late result from a since-killed worker still counts —
            // but only once per index, and its retry lease is revoked.
            if unresolved.remove(&i) {
                strikes.remove(&i);
                queue.retain(|&(_, q)| q != i);
                on_result(i, outcome, events);
            }
        }

        // 2. Reap exited workers and kill stalled ones.
        let mut dead: Vec<(WorkerSlot, String)> = Vec::new();
        let ids: Vec<u64> = workers.keys().copied().collect();
        for id in ids {
            let Ok(Some(status)) = workers
                .get_mut(&id)
                .expect("worker id just listed")
                .child
                .try_wait()
            else {
                continue;
            };
            let w = workers.remove(&id).expect("worker id just listed");
            let _ = std::fs::remove_file(work_dir.join(format!("worker-{id}.pid")));
            if status.success() && w.assigned.is_empty() {
                continue; // clean exit with nothing leased
            }
            let fate = if status.success() {
                "exited before finishing its lease".to_string()
            } else {
                format!("died ({status})")
            };
            dead.push((w, fate));
        }
        let mut stalled: Vec<u64> = Vec::new();
        for (id, w) in workers.iter_mut() {
            if w.assigned.is_empty() {
                // Idle workers aren't watched (and shouldn't accumulate
                // staleness while waiting for backoff timers).
                w.beat_seen = Instant::now();
                continue;
            }
            let beat =
                std::fs::read_to_string(work_dir.join(format!("hb-{id}"))).unwrap_or_default();
            if beat != w.last_beat {
                w.last_beat = beat;
                w.beat_seen = Instant::now();
            } else if w.beat_seen.elapsed() > config.watchdog {
                let _ = w.child.kill();
                stalled.push(*id);
            }
        }
        for id in stalled {
            let w = workers.remove(&id).expect("stalled worker id just listed");
            let _ = std::fs::remove_file(work_dir.join(format!("worker-{id}.pid")));
            dead.push((
                w,
                format!(
                    "stalled (no heartbeat for {:.1}s)",
                    config.watchdog.as_secs_f64()
                ),
            ));
        }

        // 3. Strike claimed work from dead workers; requeue or quarantine.
        for (mut w, fate) in dead {
            let _ = w.child.wait();
            for &i in &w.claimed {
                if !unresolved.contains(&i) {
                    continue;
                }
                let s = strikes.entry(i).or_insert(0);
                *s += 1;
                if *s >= config.max_strikes {
                    unresolved.remove(&i);
                    eprintln!(
                        "warning: quarantined scenario {i} after {s} worker deaths (last: {fate})"
                    );
                    on_result(
                        i,
                        TrialOutcome::Failed(TrialFailure {
                            index: i,
                            error: format!(
                                "quarantined: worker {fate}, {s} strikes — scenario poisons its worker process"
                            ),
                            context: scenario_context(&scenarios[i]),
                        }),
                        None,
                    );
                } else {
                    let delay = config.backoff_base * 2u32.saturating_pow(*s - 1);
                    queue.push((Instant::now() + delay, i));
                }
            }
            for &i in w.assigned.difference(&w.claimed) {
                if unresolved.contains(&i) {
                    queue.push((Instant::now(), i));
                }
            }
        }

        // 4. Respawn replacements while unfinished work remains.
        let desired = config.workers.min(unresolved.len()).max(1);
        while workers.len() < desired && spawned < spawn_cap && !queue.is_empty() {
            match spawn_worker(config, &work_dir, next_id, &tx) {
                Ok(w) => {
                    workers.insert(w.id, w);
                    next_id += 1;
                    spawned += 1;
                }
                Err(e) => {
                    eprintln!("warning: cannot respawn supervise worker: {e}");
                    break;
                }
            }
        }
        if workers.is_empty() {
            // No capacity and no way to get more: fail the remainder
            // soft so the sweep still completes.
            let mut rest: Vec<usize> = unresolved.iter().copied().collect();
            rest.sort_unstable();
            for i in rest {
                unresolved.remove(&i);
                on_result(
                    i,
                    TrialOutcome::Failed(TrialFailure {
                        index: i,
                        error: "supervisor: no workers available (spawn failed or retry cap hit)"
                            .to_string(),
                        context: scenario_context(&scenarios[i]),
                    }),
                    None,
                );
            }
            break;
        }

        // 5. Lease ready work to the least-loaded workers.
        let now = Instant::now();
        while let Some(w) = workers
            .values_mut()
            .filter(|w| w.stdin.is_some() && w.assigned.len() < window)
            .min_by_key(|w| (w.assigned.len(), w.id))
        {
            let mut best: Option<usize> = None;
            for (pos, &(ready, idx)) in queue.iter().enumerate() {
                if ready <= now && best.is_none_or(|b| queue[b].1 > idx) {
                    best = Some(pos);
                }
            }
            let Some(pos) = best else { break };
            let (_, idx) = queue.swap_remove(pos);
            let sent = w
                .stdin
                .as_mut()
                .is_some_and(|s| writeln!(s, "{idx}").and_then(|()| s.flush()).is_ok());
            if sent {
                w.assigned.insert(idx);
            } else {
                // Broken pipe: the worker is dying; requeue and let the
                // next reap pass handle the body.
                queue.push((now, idx));
                w.stdin = None;
                break;
            }
        }
    }

    // Batch done: close leases, give workers a moment to flush their
    // cache counters and exit, then force the stragglers.
    for w in workers.values_mut() {
        w.stdin = None;
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while !workers.is_empty() && Instant::now() < deadline {
        while let Ok(ev) = rx.try_recv() {
            if let WorkerEvent::Line(_, line) = ev {
                if let Some(part) = parse_stats_line(&line) {
                    add_stats(&mut stats, &part);
                }
            }
        }
        let ids: Vec<u64> = workers.keys().copied().collect();
        for id in ids {
            if let Ok(Some(_)) = workers
                .get_mut(&id)
                .expect("worker id just listed")
                .child
                .try_wait()
            {
                workers.remove(&id);
                let _ = std::fs::remove_file(work_dir.join(format!("worker-{id}.pid")));
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    for (_, mut w) in workers {
        let _ = w.child.kill();
        let _ = w.child.wait();
    }
    while let Ok(ev) = rx.try_recv() {
        if let WorkerEvent::Line(_, line) = ev {
            if let Some(part) = parse_stats_line(&line) {
                add_stats(&mut stats, &part);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&work_dir);
    Ok(stats)
}

enum PoisonMode {
    Abort,
    Stall,
}

/// The `BBRDOM_TEST_POISON_*` sabotage hooks (see the module docs).
fn poison_armed(key: &str) -> Option<PoisonMode> {
    let spec = std::env::var("BBRDOM_TEST_POISON_HASH").ok()?;
    if !spec.split(',').any(|k| k.trim().eq_ignore_ascii_case(key)) {
        return None;
    }
    if let Ok(once) = std::env::var("BBRDOM_TEST_POISON_ONCE") {
        let marker = Path::new(&once);
        if marker.exists() {
            return None;
        }
        let _ = std::fs::write(marker, key);
    }
    match std::env::var("BBRDOM_TEST_POISON_MODE").as_deref() {
        Ok("stall") => Some(PoisonMode::Stall),
        _ => Some(PoisonMode::Abort),
    }
}

/// Entry point of the hidden `repro worker --dir D --id K` subcommand:
/// load the batch manifest, lease scenario indices from stdin, emit
/// claim/result lines on stdout, and heartbeat until the parent closes
/// the lease pipe. Returns the process exit code.
pub fn worker_main(dir: &Path, id: &str) -> i32 {
    ignore_interrupts();
    let Some(manifest) = std::fs::read_to_string(dir.join("manifest.json"))
        .ok()
        .and_then(|t| json::parse(&t).ok())
    else {
        eprintln!("worker {id}: cannot read manifest in {}", dir.display());
        return 3;
    };
    let jobs = manifest
        .get("jobs")
        .and_then(Value::as_u64)
        .unwrap_or(1)
        .max(1) as usize;
    let hb_interval = Duration::from_millis(
        manifest
            .get("hb_interval_ms")
            .and_then(Value::as_u64)
            .unwrap_or(250),
    );
    let stall_limit = manifest
        .get("stall_limit_ms")
        .and_then(Value::as_u64)
        .map(Duration::from_millis);
    let event_budget = manifest.get("event_budget").and_then(Value::as_u64);
    let wall_budget = manifest
        .get("wall_budget_ns")
        .and_then(Value::as_u64)
        .map(Duration::from_nanos);

    let mut table: HashMap<usize, (String, Result<Scenario, String>)> = HashMap::new();
    let Ok(file) = std::fs::File::open(dir.join("scenarios.jsonl")) else {
        eprintln!("worker {id}: cannot open batch file in {}", dir.display());
        return 3;
    };
    for line in BufReader::new(file).lines() {
        let Ok(line) = line else { break };
        let (mut index, mut key, mut scenario) = (None, None, None);
        let read = json::Reader::document(&line, |r| {
            r.object(|r, k| {
                match k {
                    "index" => index = r.u64()?,
                    "key" => key = r.str()?,
                    "scenario" => scenario = Some(Scenario::read(r)?),
                    _ => r.skip()?,
                }
                Ok(())
            })
        });
        let (Ok(_), Some(i), Some(key)) = (read, index, key) else {
            continue;
        };
        let parsed = scenario.unwrap_or_else(|| Err("record has no scenario".to_string()));
        table.insert(i as usize, (key.into_owned(), parsed));
    }

    let engine = Engine::new(EngineConfig {
        jobs,
        // Workers keep nothing on disk: the parent answered every store
        // hit before sharding, and it records what workers report, so it
        // stays the index's single writer.
        disk_cache: None,
        memory_cache: true,
        supervise: None,
        result_store: false,
    });

    let inflight: Arc<Mutex<HashMap<usize, Instant>>> = Arc::new(Mutex::new(HashMap::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let hb_path = dir.join(format!("hb-{id}"));
    let hb = {
        let inflight = Arc::clone(&inflight);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut n: u64 = 0;
            while !stop.load(Ordering::Relaxed) {
                let all_stuck = stall_limit.is_some_and(|lim| {
                    let inf = inflight.lock().expect("inflight lock");
                    !inf.is_empty() && inf.values().all(|t| t.elapsed() > lim)
                });
                if !all_stuck {
                    n += 1;
                    let _ = std::fs::write(&hb_path, n.to_string());
                }
                std::thread::sleep(hb_interval);
            }
        })
    };

    let (wtx, wrx) = mpsc::channel::<usize>();
    let wrx = Arc::new(Mutex::new(wrx));
    std::thread::scope(|scope| {
        // Lease feeder: one index per stdin line; the channel closes on
        // EOF, which is the parent's "no more work" signal.
        scope.spawn(move || {
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                let Ok(line) = line else { break };
                let Ok(i) = line.trim().parse::<usize>() else {
                    continue;
                };
                if wtx.send(i).is_err() {
                    break;
                }
            }
        });
        for _ in 0..jobs {
            let wrx = Arc::clone(&wrx);
            let table = &table;
            let engine = &engine;
            let inflight = &inflight;
            scope.spawn(move || loop {
                let msg = wrx.lock().expect("lease lock").recv();
                let Ok(i) = msg else { break };
                let Some((key, parsed)) = table.get(&i) else {
                    // The parent only leases indices it wrote into the
                    // batch file, so this is unrecoverable skew: die and
                    // let supervision retry elsewhere.
                    eprintln!("worker: leased unknown scenario index {i}");
                    std::process::exit(4);
                };
                emit(&format!("{{\"claim\":{i}}}"));
                inflight
                    .lock()
                    .expect("inflight lock")
                    .insert(i, Instant::now());
                match poison_armed(key) {
                    Some(PoisonMode::Abort) => {
                        eprintln!("worker: test poison abort on {key}");
                        std::process::abort();
                    }
                    Some(PoisonMode::Stall) => loop {
                        std::thread::sleep(Duration::from_secs(3600));
                    },
                    None => {}
                }
                let (outcome, events) = match parsed {
                    Ok(s) => engine.run_single_traced(s, i, event_budget, wall_budget),
                    Err(e) => (
                        TrialOutcome::Failed(TrialFailure {
                            index: i,
                            error: format!("worker: bad scenario record: {e}"),
                            context: String::new(),
                        }),
                        None,
                    ),
                };
                inflight.lock().expect("inflight lock").remove(&i);
                emit(&result_line(i, key, &outcome, events));
            });
        }
    });

    stop.store(true, Ordering::Relaxed);
    let _ = hb.join();
    let s = engine.stats();
    emit(&format!(
        "{{\"stats\":{{\"memory_hits\":{},\"store_hits\":{},\"deduped\":{},\"simulated\":{},\"events_simulated\":{}}}}}",
        s.memory_hits, s.store_hits, s.deduped, s.simulated, s.events_simulated
    ));
    0
}

/// Line-atomic stdout write (claim/result/stats protocol lines).
fn emit(line: &str) {
    let mut out = std::io::stdout().lock();
    let _ = out.write_all(line.as_bytes());
    let _ = out.write_all(b"\n");
    let _ = out.flush();
}

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sig {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    extern "C" fn note(_: i32) {
        super::INTERRUPTED.store(true, std::sync::atomic::Ordering::SeqCst);
    }
    extern "C" fn swallow(_: i32) {}
    pub(super) fn install() {
        unsafe {
            signal(SIGINT, note);
            signal(SIGTERM, note);
        }
    }
    pub(super) fn ignore() {
        unsafe {
            signal(SIGINT, swallow);
            signal(SIGTERM, swallow);
        }
    }
}

#[cfg(not(unix))]
mod sig {
    pub(super) fn install() {}
    pub(super) fn ignore() {}
}

/// Install SIGINT/SIGTERM handlers that request a graceful stop: the
/// engine finishes recording the contiguous prefix of finished trials,
/// prints a resume hint, and exits with code 130. Only the `repro`
/// binary calls this; library users keep default signal behavior.
pub fn install_signal_handlers() {
    sig::install();
}

/// Workers swallow terminal-delivered SIGINT/SIGTERM: orderly shutdown
/// is the parent's job (lease-pipe EOF or SIGKILL).
fn ignore_interrupts() {
    sig::ignore();
}

/// Whether a graceful-stop signal has arrived.
pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::SeqCst)
}

/// Terminate after a graceful-stop signal. With the result store on,
/// its index already holds every trial up to the first unfinished one,
/// so the hint names the cache as the resume point; without it, a rerun
/// restarts the batch.
pub(crate) fn exit_interrupted(cache_dir: Option<&Path>) -> ! {
    match cache_dir {
        Some(dir) => eprintln!(
            "\ninterrupted: cache {} holds the trials recorded so far; rerun the same command with the same --cache-dir to resume",
            dir.display()
        ),
        None => eprintln!("\ninterrupted: no disk cache configured — a rerun restarts this batch"),
    }
    std::process::exit(130);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeat_interval_is_bounded() {
        assert_eq!(
            heartbeat_interval(Duration::from_millis(80)),
            Duration::from_millis(25)
        );
        assert_eq!(
            heartbeat_interval(Duration::from_secs(8)),
            Duration::from_secs(1)
        );
        assert_eq!(
            heartbeat_interval(Duration::from_secs(4)),
            Duration::from_millis(500)
        );
    }

    #[test]
    fn stats_lines_round_trip() {
        let s = CacheStats {
            memory_hits: 1,
            store_hits: 6,
            deduped: 3,
            simulated: 4,
            events_simulated: 5,
        };
        let line = format!(
            "{{\"stats\":{{\"memory_hits\":{},\"store_hits\":{},\"deduped\":{},\"simulated\":{},\"events_simulated\":{}}}}}",
            s.memory_hits, s.store_hits, s.deduped, s.simulated, s.events_simulated
        );
        assert_eq!(parse_stats_line(&line), Some(s));
        // Missing counters read as zero.
        let partial = parse_stats_line("{\"stats\":{\"memory_hits\":1,\"simulated\":4}}")
            .expect("partial line parses");
        assert_eq!(partial.store_hits, 0);
        assert_eq!(partial.simulated, 4);
        assert_eq!(parse_stats_line("{\"claim\":3}"), None);
        assert_eq!(parse_stats_line("not json"), None);
    }

    #[test]
    fn poison_hook_matches_keys_case_insensitively() {
        // The hook reads the environment; exercised end to end (with
        // worker_env isolation) in tests/supervisor.rs. Here: the
        // default, unarmed path.
        assert!(
            poison_armed("deadbeef").is_none() || std::env::var("BBRDOM_TEST_POISON_HASH").is_ok()
        );
    }

    #[test]
    fn result_lines_round_trip() {
        let failed = TrialOutcome::Failed(TrialFailure {
            index: 3,
            error: "event budget exceeded".into(),
            context: "2 flows".into(),
        });
        let line = result_line(3, "abc", &failed, None);
        let (i, key, outcome, events) = parse_result_line(&line).expect("line parses");
        assert_eq!((i, key.as_str(), events), (3, "abc", None));
        assert_eq!(outcome.failure(), failed.failure());
        assert!(!line.contains("budget\":"), "no budget fields: {line}");

        let ok = TrialOutcome::Ok(
            Scenario::versus(10.0, 20.0, 2.0, 1, bbrdom_cca::CcaKind::Bbr, 1, 0.5, 1)
                .run()
                .into(),
        );
        let line = result_line(0, "def", &ok, Some(42));
        let (_, _, outcome, events) = parse_result_line(&line).expect("line parses");
        assert_eq!(events, Some(42));
        assert_eq!(
            outcome.ok().unwrap().to_json_value().to_json(),
            ok.ok().unwrap().to_json_value().to_json()
        );

        assert!(parse_result_line("{\"claim\":3}").is_none());
        assert!(parse_result_line(&line[..line.len() / 2]).is_none());
    }

    #[test]
    fn config_defaults_are_sane() {
        let c = SupervisorConfig::new(0, "/tmp/x");
        assert_eq!(c.workers, 1, "worker count is clamped to >= 1");
        assert_eq!(c.max_strikes, 2);
        assert!(c.watchdog >= Duration::from_secs(1));
        assert!(c.backoff_base > Duration::ZERO);
    }

    /// One real entry in each format a reader consumes: an index line
    /// and a worker result line.
    fn on_disk_samples() -> [String; 2] {
        use crate::store::{StoreEntry, StoreOutcome};
        let scenario = Scenario::versus(10.0, 20.0, 1.0, 1, bbrdom_cca::CcaKind::Bbr, 1, 1.0, 3);
        let report = scenario.try_report_with(None, None).unwrap();
        let hash = crate::engine::scenario_hash(&scenario);
        let result = Arc::new(TrialResult::from_report(&report));
        let entry = StoreEntry {
            key: format!("{hash:032x}"),
            scenario,
            outcome: StoreOutcome::Ok {
                events: Some(report.events_processed),
                result: Arc::clone(&result),
            },
        };
        let result_line = result_line(
            3,
            &entry.key,
            &TrialOutcome::Ok(result),
            Some(report.events_processed),
        );
        [entry.to_json_line(), result_line]
    }

    /// Which of the readers accept `text`: the index line reader and the
    /// worker result line reader. Neither may panic, whatever the bytes.
    fn read_all(text: &str) -> [bool; 2] {
        [
            crate::store::StoreEntry::from_json_line(text).is_some(),
            parse_result_line(text).is_some(),
        ]
    }

    /// Torn writes: every prefix of a valid entry is rejected without a
    /// panic, and the whole entry is accepted by exactly the reader of
    /// its format.
    #[test]
    fn readers_reject_every_prefix_of_a_valid_entry() {
        let samples = on_disk_samples();
        let accepts = [[true, false], [false, true]];
        for (text, want) in samples.iter().zip(accepts) {
            assert_eq!(read_all(text), want, "readers accepting {text}");
            for end in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
                assert_eq!(
                    read_all(&text[..end]),
                    [false; 2],
                    "prefix of {end} bytes accepted"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Hostile bytes: arbitrary input never panics a reader.
        #[test]
        fn readers_survive_arbitrary_bytes(
            bytes in proptest::prelude::prop::collection::vec(0u8..=255, 0..512),
        ) {
            read_all(&String::from_utf8_lossy(&bytes));
        }

        /// Corrupted entries: random bytes spliced into a valid entry
        /// reach the readers' field checks, not just the tokenizer.
        #[test]
        fn readers_survive_corrupted_entries(
            which in 0usize..2,
            at in 0.0f64..1.0,
            junk in proptest::prelude::prop::collection::vec(0u8..=255, 1..8),
        ) {
            let samples = on_disk_samples();
            let mut bytes = samples[which].clone().into_bytes();
            let at = (at * bytes.len() as f64) as usize;
            let end = (at + junk.len()).min(bytes.len());
            bytes.splice(at..end, junk);
            read_all(&String::from_utf8_lossy(&bytes));
        }
    }
}
