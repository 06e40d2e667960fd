//! The parallel payoff/sweep engine with a content-addressed scenario
//! result cache.
//!
//! Every payoff matrix, NE search, and figure sweep in this crate is a
//! batch of independent `Scenario → TrialResult` runs. The engine executes
//! such batches on a fixed-size pool of OS worker threads (std threads +
//! channels; simulations are CPU-bound, so an async runtime buys
//! nothing), sized by [`EngineConfig::jobs`] — while keeping the repo's
//! central guarantee intact:
//! **output is bit-identical to a serial run.** Three mechanisms deliver
//! that:
//!
//! 1. results are gathered by *scenario index*, never by completion
//!    order;
//! 2. the result store's index ([`crate::store`]) is appended by a single
//!    writer (the thread that owns the receive side of the results
//!    channel), strictly in index order, so `--jobs 1` and `--jobs 8`
//!    produce byte-identical index files and a crash can only truncate
//!    the index at a line boundary;
//! 3. each simulation is a pure function of its [`Scenario`], so the
//!    engine may memoize: a **content-addressed cache** keyed by a
//!    stable 128-bit hash of the *full* scenario (every field its index
//!    line writes: link, buffer, flows, CCAs, RTTs, seed, discipline,
//!    faults, backend, workload, topology — see [`scenario_hash`])
//!    returns a previous run's [`TrialResult`] and event count instead
//!    of re-simulating, in-process always and on disk when enabled. The
//!    full `SimReport` is never kept: it is reduced to its
//!    `TrialResult` as the run ends, and that result is held once,
//!    behind an `Arc`: the memo, the result store's entry and
//!    every outcome that serves it share the one allocation. On disk the
//!    result store's `index.jsonl` (`results/cache/index.jsonl`) is the
//!    one record: a cell's line holds its scenario, result and event
//!    count.
//!    NE searches re-evaluate neighboring strategy profiles constantly;
//!    warm reruns skip the work entirely.
//!
//! Fail-soft sweep semantics ([`Engine::run_sweep`]) ride on the
//! same machinery: every trial is built, run to its scenario's horizon
//! and reduced, and one that cannot run becomes a per-trial
//! [`TrialOutcome::Failed`]. Resuming an interrupted sweep is rerunning
//! it against the same cache: the store answers every trial the index
//! recorded before the stop (a trial that finished past the first
//! unfinished one is not yet recorded, so it runs again), and failed
//! trials run again.
//!
//! A SIGINT or SIGTERM (once [`install_signal_handlers`] has run, as
//! `repro` does) stops a batch gracefully: the executor checks
//! [`interrupted`] between trials, and once the index holds every trial
//! up to the first unfinished one it prints a resume hint and exits with
//! code 130.

use crate::runner::{payload_message, SweepConfig, TrialFailure, TrialOutcome};
use crate::scenario::{Scenario, Sink, TrialResult};
use bbrdom_netsim::hash::{StableHash, StableHasher};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, OnceLock};

/// Salts [`scenario_hash`]: bumped whenever the hash's coverage or the
/// meaning of a result changes, so every stale key is orphaned at once.
/// It does not version the on-disk layout: an index line
/// ([`crate::store::StoreEntry::to_json_line`]) is versioned by its own
/// `"v"` ([`crate::store::INDEX_FORMAT_VERSION`]).
pub const CACHE_FORMAT_VERSION: u32 = 2;

/// Stable content hash of everything that determines a scenario's
/// simulation output: FNV-1a-128 over [`CACHE_FORMAT_VERSION`] and the
/// fields [`Scenario::to_json_value`] writes, read off the same field
/// list (`Scenario::emit`), so the key covers exactly what the index
/// line records. Two scenarios whose lines write the same scenario hash
/// alike.
///
/// It feeds values, not text: an `f64` as its bits (so `-0.0` and `0.0`
/// are two keys, as they are two spellings on the line; a non-finite
/// value, which the line writes as `null`, keys by its bits too), a
/// `u64` little-endian, strings and arrays length-prefixed, and the
/// name of each member the line writes only sometimes (faults, backend,
/// workload and its arrival and size variants, topology, and a
/// topology's link `mbps`, `flow_routes`, `workload_route` and
/// `fault_link`).
///
/// The simulation *backend* is part of the identity: the same scenario
/// run on the fluid model hashes to a different key than the DES run,
/// so the two can never alias in the result cache.
///
/// ```
/// use bbrdom_cca::CcaKind;
/// use bbrdom_experiments::{scenario_hash, BackendSpec, Scenario};
///
/// let des = Scenario::versus(50.0, 20.0, 2.0, 1, CcaKind::Bbr, 1, 10.0, 1);
/// let fluid = des.clone().with_backend(BackendSpec::Fluid);
/// assert_ne!(scenario_hash(&des), scenario_hash(&fluid));
/// ```
pub fn scenario_hash(s: &Scenario) -> u128 {
    let mut h = KeyHasher(StableHasher::new());
    CACHE_FORMAT_VERSION.stable_hash(&mut h.0);
    s.emit(&mut h);
    h.0.finish()
}

/// The [`Sink`] behind [`scenario_hash`]. Allocation-free: every value
/// goes straight into the hasher.
struct KeyHasher(StableHasher);

impl Sink for KeyHasher {
    fn key(&mut self, _: &'static str) -> &mut Self {
        self
    }
    fn opt_key(&mut self, key: &'static str) -> &mut Self {
        key.stable_hash(&mut self.0);
        self
    }
    fn f64(&mut self, v: f64) {
        v.stable_hash(&mut self.0);
    }
    fn u64(&mut self, v: u64) {
        v.stable_hash(&mut self.0);
    }
    fn opt_u64(&mut self, v: Option<u64>) {
        v.stable_hash(&mut self.0);
    }
    fn str(&mut self, v: &str) {
        v.stable_hash(&mut self.0);
    }
    fn object(&mut self, fill: impl FnOnce(&mut Self)) {
        fill(self);
    }
    fn array<T>(&mut self, items: &[T], mut each: impl FnMut(&mut Self, &T)) {
        (items.len() as u64).stable_hash(&mut self.0);
        items.iter().for_each(|item| each(self, item));
    }
}

/// [`scenario_hash`] as the fixed-width hex string used for store index
/// keys.
pub fn scenario_hash_hex(s: &Scenario) -> String {
    format!("{:032x}", scenario_hash(s))
}

/// Engine configuration: pool size and cache policy. `Default` is
/// [`EngineConfig::serial_uncached`] with `jobs: 0`, which runs as one
/// worker.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Worker threads for scenario batches.
    pub jobs: usize,
    /// Directory of the persistent result cache, the result store's
    /// `index.jsonl` (`None` = memory only).
    pub disk_cache: Option<PathBuf>,
    /// Keep an in-process memo of completed results (cheap; only worth
    /// disabling for determinism tests that must re-simulate).
    pub memory_cache: bool,
    /// A placeholder that selects nothing: `Some` cannot be built. It
    /// stays only because e2ebench's `EngineConfig` literal names it
    /// (`supervise: None`); the benchmark-only change that drops it there
    /// (ROADMAP, "One benchmark-only change") deletes it together with
    /// `result_store`.
    pub supervise: Option<std::convert::Infallible>,
    /// Maintain (and serve from) the indexed result store in
    /// `disk_cache` ([`crate::store`]), the only on-disk record: `false`
    /// means nothing is read from or written to disk, even with
    /// `disk_cache` set. No effect without `disk_cache`. Transitional:
    /// the benchmark-only change that drops it from e2ebench's
    /// `EngineConfig` literal (ROADMAP, "One benchmark-only change")
    /// deletes the field, leaving `disk_cache` to select the store.
    pub result_store: bool,
}

impl EngineConfig {
    /// A hermetic single-threaded engine with caching off — every run
    /// re-simulates. The baseline for determinism and perf comparisons.
    pub fn serial_uncached() -> Self {
        EngineConfig {
            jobs: 1,
            ..EngineConfig::default()
        }
    }
}

/// Cache/dedup counters for one engine, cumulative across batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Results served from the in-process memo.
    pub memory_hits: u64,
    /// Results served from the indexed result store (an in-memory
    /// lookup — no file read).
    pub store_hits: u64,
    /// Results copied from an identical scenario in the same batch.
    pub deduped: u64,
    /// Scenarios actually simulated.
    pub simulated: u64,
    /// Total simulator events processed by fresh simulations (cache hits
    /// contribute nothing — the work was never redone).
    pub events_simulated: u64,
}

impl CacheStats {
    /// Counter movement since an earlier snapshot (per-target deltas).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            memory_hits: self.memory_hits - earlier.memory_hits,
            store_hits: self.store_hits - earlier.store_hits,
            deduped: self.deduped - earlier.deduped,
            simulated: self.simulated - earlier.simulated,
            events_simulated: self.events_simulated - earlier.events_simulated,
        }
    }

    /// Simulations skipped thanks to the cache (all sources).
    pub fn skipped(&self) -> u64 {
        self.memory_hits + self.store_hits + self.deduped
    }

    /// Total scenario slots served.
    pub fn total(&self) -> u64 {
        self.skipped() + self.simulated
    }

    /// One-line human summary (the sweep-summary cache counter).
    pub fn summary(&self) -> String {
        let total = self.total();
        let pct = if total == 0 {
            0.0
        } else {
            100.0 * self.skipped() as f64 / total as f64
        };
        format!(
            "{} simulated ({} events), {} cache hits ({} memory, {} store, {} deduped) — {:.0}% skipped",
            self.simulated,
            self.events_simulated,
            self.skipped(),
            self.memory_hits,
            self.store_hits,
            self.deduped,
            pct
        )
    }
}

/// One-line scenario summary used as failure context.
pub(crate) fn scenario_context(s: &Scenario) -> String {
    format!(
        "{} flows, {} Mbps, buffer {} BDP, {} s, seed {}",
        s.flows.len(),
        s.mbps,
        s.buffer_bdp,
        s.duration_secs,
        s.seed
    )
}

/// The parallel scenario engine. Callers build one and pass it to every
/// batch that should share its pool, memo and cache (`repro` builds one
/// per process from its flags).
pub struct Engine {
    config: EngineConfig,
    /// Completed results with their event counts, by content hash. Each
    /// result is the one the batch returned and the store recorded.
    memo: Mutex<HashMap<u128, (Arc<TrialResult>, u64)>>,
    /// The indexed result store over `disk_cache`, opened lazily on
    /// first use (so engines that never touch a cache never scan one).
    store: OnceLock<crate::store::Store>,
    memory_hits: AtomicU64,
    store_hits: AtomicU64,
    deduped: AtomicU64,
    simulated: AtomicU64,
    events_simulated: AtomicU64,
}

impl Engine {
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            config,
            memo: Mutex::new(HashMap::new()),
            store: OnceLock::new(),
            memory_hits: AtomicU64::new(0),
            store_hits: AtomicU64::new(0),
            deduped: AtomicU64::new(0),
            simulated: AtomicU64::new(0),
            events_simulated: AtomicU64::new(0),
        }
    }

    /// Cumulative cache counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            memory_hits: self.memory_hits.load(Ordering::Relaxed),
            store_hits: self.store_hits.load(Ordering::Relaxed),
            deduped: self.deduped.load(Ordering::Relaxed),
            simulated: self.simulated.load(Ordering::Relaxed),
            events_simulated: self.events_simulated.load(Ordering::Relaxed),
        }
    }

    /// The indexed result store, if this engine maintains one
    /// (`result_store` on and a disk cache configured). Opened lazily:
    /// the first call loads `index.jsonl`.
    pub fn store(&self) -> Option<&crate::store::Store> {
        if !self.config.result_store {
            return None;
        }
        let dir = self.config.disk_cache.as_deref()?;
        Some(self.store.get_or_init(|| crate::store::Store::open(dir)))
    }

    /// Run all scenarios with the engine's pool, panicking on the first
    /// (lowest-index) failure — the strict interface figure sweeps use.
    /// Results come back in input order, each shared with the memo and
    /// the store rather than copied out of them.
    ///
    /// ```
    /// use bbrdom_cca::CcaKind;
    /// use bbrdom_experiments::{BackendSpec, Engine, EngineConfig, Scenario};
    ///
    /// let engine = Engine::new(EngineConfig {
    ///     jobs: 1,
    ///     memory_cache: true,
    ///     ..EngineConfig::default()
    /// });
    /// // Two cells of a payoff sweep on the fluid fast backend.
    /// let cells: Vec<Scenario> = [1u32, 2]
    ///     .iter()
    ///     .map(|&k| {
    ///         Scenario::versus(20.0, 20.0, 2.0, 2 - k, CcaKind::Bbr, k, 5.0, 7)
    ///             .with_backend(BackendSpec::Fluid)
    ///     })
    ///     .collect();
    /// let results = engine.run_all(&cells);
    /// assert_eq!(results.len(), 2);
    /// assert!(results.iter().all(|r| r.utilization > 0.5));
    /// // Re-running the same cells is served from the cache.
    /// engine.run_all(&cells);
    /// assert_eq!(engine.stats().memory_hits, 2);
    /// ```
    pub fn run_all(&self, scenarios: &[Scenario]) -> Vec<Arc<TrialResult>> {
        self.execute(scenarios)
            .into_iter()
            .map(|outcome| match outcome {
                TrialOutcome::Ok(r) => r,
                TrialOutcome::Failed(f) => panic!("scenario {} failed: {}", f.index, f.error),
            })
            .collect()
    }

    /// Run all scenarios fail-soft: one panicking or invalid scenario
    /// becomes a structured [`TrialOutcome::Failed`] while the rest of
    /// the sweep completes. Outcomes come back in input order.
    ///
    /// Resuming is rerunning: with the result store on, every finished
    /// trial is indexed in strict index order, so a rerun of the same
    /// sweep serves the recorded successes without simulating and runs
    /// only the rest.
    /// Failures are never served from the cache; they run again. A sweep
    /// as a whole cannot fail: every per-trial failure stays inside the
    /// outcome vector. The `Result` and the [`SweepConfig`] placeholder
    /// stay for callers outside this workspace.
    pub fn run_sweep(
        &self,
        scenarios: &[Scenario],
        _: &SweepConfig,
    ) -> Result<Vec<TrialOutcome>, std::convert::Infallible> {
        Ok(self.execute(scenarios))
    }

    /// The shared batch executor. Deterministic contract: the returned
    /// vector is indexed by scenario, and the result store's index is
    /// appended in strict index order by the single thread that owns the
    /// channel's receive side.
    fn execute(&self, scenarios: &[Scenario]) -> Vec<TrialOutcome> {
        let n = scenarios.len();
        let hashes: Vec<u128> = scenarios.iter().map(scenario_hash).collect();
        let mut done: Vec<Option<TrialOutcome>> = (0..n).map(|_| None).collect();
        // Recorded event counts, alongside `done`: fed to the result
        // store, whose lines carry them. Unknown (`None`) for failures.
        let mut done_events: Vec<Option<u64>> = vec![None; n];

        // Intra-batch dedup: identical scenarios (payoff matrices share
        // cells) are simulated once; duplicates copy the representative.
        let mut rep_of_hash: HashMap<u128, usize> = HashMap::new();
        let mut aliases: HashMap<usize, Vec<usize>> = HashMap::new();
        let mut pending: Vec<usize> = Vec::new();
        for (i, &hash) in hashes.iter().enumerate() {
            match rep_of_hash.entry(hash) {
                Entry::Vacant(slot) => {
                    slot.insert(i);
                    pending.push(i);
                }
                Entry::Occupied(slot) => {
                    aliases.entry(*slot.get()).or_default().push(i);
                    self.deduped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }

        // Slot a finished trial (and its duplicates) by index, then record
        // the contiguous prefix of finished indices in the result store,
        // in strict index order — one cursor, one writer, so serial and
        // pooled runs produce byte-identical index files, and an
        // interrupted batch leaves every trial before the cursor
        // recorded for the rerun to serve.
        let store = self.store();
        let mut cursor = 0usize;
        let mut finish = |i: usize, outcome: TrialOutcome, events: Option<u64>| {
            for &alias in aliases.get(&i).map(Vec::as_slice).unwrap_or(&[]) {
                done[alias] = Some(retarget(&outcome, alias));
                done_events[alias] = events;
            }
            done[i] = Some(outcome);
            done_events[i] = events;
            while let Some(Some(outcome)) = done.get(cursor) {
                if let Some(store) = store {
                    store.record(
                        hashes[cursor],
                        &scenarios[cursor],
                        outcome,
                        done_events[cursor],
                    );
                }
                cursor += 1;
            }
        };
        let cache_dir = store.and(self.config.disk_cache.as_deref());
        let pool = self.config.jobs.max(1).min(pending.len().max(1));

        if pool == 1 {
            // Serial path: a one-worker pool still pays for thread spawn,
            // channel traffic, and cross-core cache misses with nothing
            // to show for it (measured ~6% slower than inline on a
            // single-core box). Run the batch inline instead; the
            // ordering contract holds trivially.
            for &i in &pending {
                if interrupted() {
                    exit_interrupted(cache_dir);
                }
                let (outcome, events) = self.run_one(&scenarios[i], hashes[i], i);
                finish(i, outcome, events);
            }
        } else {
            let next = AtomicUsize::new(0);
            let (tx, rx) = mpsc::channel::<(usize, TrialOutcome, Option<u64>)>();
            std::thread::scope(|scope| {
                for _ in 0..pool {
                    let tx = tx.clone();
                    let pending = &pending;
                    let next = &next;
                    let hashes = &hashes;
                    scope.spawn(move || loop {
                        let slot = next.fetch_add(1, Ordering::Relaxed);
                        if slot >= pending.len() {
                            break;
                        }
                        let i = pending[slot];
                        let (outcome, events) = self.run_one(&scenarios[i], hashes[i], i);
                        if tx.send((i, outcome, events)).is_err() {
                            break;
                        }
                    });
                }
                drop(tx);

                // Single writer: results arrive in completion order, are
                // slotted by index, and the index advances only over the
                // contiguous prefix of finished indices.
                for (i, outcome, events) in rx {
                    finish(i, outcome, events);
                    // `finish` already recorded the contiguous prefix; a
                    // graceful stop loses only the results past it.
                    if interrupted() {
                        exit_interrupted(cache_dir);
                    }
                }
            });
        }

        done.into_iter()
            .map(|slot| slot.expect("scenario not executed"))
            .collect()
    }

    /// The memo's or the result store's answer for a content hash, with
    /// its recorded event count: both are in-memory lookups.
    fn cached(&self, hash: u128) -> Option<(Arc<TrialResult>, Option<u64>)> {
        if self.config.memory_cache {
            let memo = self.memo.lock().expect("engine memo lock");
            if let Some((result, events)) = memo.get(&hash) {
                self.memory_hits.fetch_add(1, Ordering::Relaxed);
                return Some((Arc::clone(result), Some(*events)));
            }
        }

        // Store hit: the index holds the entire answer. The memo is not
        // populated; the store lookup itself is as cheap as the memo's.
        let hit = self.store()?.lookup(hash)?;
        self.store_hits.fetch_add(1, Ordering::Relaxed);
        Some(hit)
    }

    /// Run (or fetch) one scenario, also returning the recorded event
    /// count when known. Cache policy: only successful results are
    /// cached. Lookup order: memory memo, then the indexed result store,
    /// then simulation.
    fn run_one(
        &self,
        scenario: &Scenario,
        hash: u128,
        index: usize,
    ) -> (TrialOutcome, Option<u64>) {
        if let Some((result, events)) = self.cached(hash) {
            return (TrialOutcome::Ok(result), events);
        }

        self.simulated.fetch_add(1, Ordering::Relaxed);
        match catch_unwind(AssertUnwindSafe(|| scenario.try_report())) {
            Ok(Ok(report)) => {
                // The report is reduced to what the engine reads back and
                // dropped here: neither the memo nor the index keeps it.
                // The batch executor's single writer records the result.
                let events = report.events_processed;
                let result = Arc::new(TrialResult::from_report(&report));
                drop(report);
                self.events_simulated.fetch_add(events, Ordering::Relaxed);
                if self.config.memory_cache {
                    self.memo
                        .lock()
                        .expect("engine memo lock")
                        .insert(hash, (Arc::clone(&result), events));
                }
                (TrialOutcome::Ok(result), Some(events))
            }
            Ok(Err(err)) => (
                TrialOutcome::Failed(TrialFailure {
                    index,
                    error: err.to_string(),
                    context: scenario_context(scenario),
                }),
                None,
            ),
            Err(payload) => (
                TrialOutcome::Failed(TrialFailure {
                    index,
                    error: format!("panic: {}", payload_message(&*payload)),
                    context: scenario_context(scenario),
                }),
                None,
            ),
        }
    }
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
    pub(super) fn install() {
        unsafe {
            signal(SIGINT, note);
            signal(SIGTERM, note);
        }
    }
}

#[cfg(not(unix))]
mod sig {
    pub(super) fn install() {}
}

/// Install SIGINT/SIGTERM handlers that request a graceful stop: the
/// engine finishes recording the contiguous prefix of finished trials,
/// prints a resume hint, and exits with code 130. Only the `repro`
/// binary calls this; library users keep default signal behavior.
pub fn install_signal_handlers() {
    sig::install();
}

/// Whether a graceful-stop signal has arrived.
pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::SeqCst)
}

/// Terminate after a graceful-stop signal. With the result store on,
/// its index already holds every trial up to the first unfinished one,
/// so the hint names the cache as the resume point; without it, a rerun
/// restarts the batch.
fn exit_interrupted(cache_dir: Option<&Path>) -> ! {
    match cache_dir {
        Some(dir) => eprintln!(
            "\ninterrupted: cache {} holds the trials recorded so far; rerun the same command with the same --cache-dir to resume",
            dir.display()
        ),
        None => eprintln!("\ninterrupted: no disk cache configured — a rerun restarts this batch"),
    }
    std::process::exit(130);
}

/// Copy a representative's outcome onto a duplicate scenario's slot.
fn retarget(outcome: &TrialOutcome, index: usize) -> TrialOutcome {
    match outcome {
        TrialOutcome::Ok(r) => TrialOutcome::Ok(Arc::clone(r)),
        TrialOutcome::Failed(f) => TrialOutcome::Failed(TrialFailure {
            index,
            error: f.error.clone(),
            context: f.context.clone(),
        }),
    }
}

/// The engine this crate's unit tests run figures and payoff sweeps on:
/// one worker, in-process memo on, no disk cache.
#[cfg(test)]
pub(crate) fn test_engine() -> Engine {
    Engine::new(EngineConfig {
        jobs: 1,
        memory_cache: true,
        ..EngineConfig::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbrdom_cca::CcaKind;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn tiny(seed: u64) -> Scenario {
        Scenario::versus(10.0, 20.0, 2.0, 1, CcaKind::Bbr, 1, 3.0, seed)
    }

    /// [`test_engine`] with a pool of `jobs` workers.
    fn pooled(jobs: usize) -> Engine {
        Engine::new(EngineConfig {
            jobs,
            memory_cache: true,
            ..EngineConfig::default()
        })
    }

    #[test]
    fn results_are_in_input_order() {
        let scenarios: Vec<Scenario> = (0..6).map(tiny).collect();
        let parallel = pooled(4).run_all(&scenarios);
        let serial: Vec<_> = scenarios.iter().map(|s| s.run()).collect();
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(p.throughput_mbps, s.throughput_mbps);
        }
    }

    #[test]
    fn single_worker_works() {
        let scenarios: Vec<Scenario> = (0..3).map(tiny).collect();
        let results = test_engine().run_all(&scenarios);
        assert_eq!(results.len(), 3);
    }

    #[test]
    fn empty_input_is_fine() {
        let results = test_engine().run_all(&[]);
        assert!(results.is_empty());
    }

    #[test]
    fn worker_failure_reports_scenario_index_and_message() {
        // Scenario 1 has no flows: the engine surfaces the validation
        // error, tagged with the failing index.
        let mut scenarios: Vec<Scenario> = (0..3).map(tiny).collect();
        scenarios[1].flows.clear();
        let caught = catch_unwind(AssertUnwindSafe(|| pooled(2).run_all(&scenarios)))
            .expect_err("sweep with a failing scenario must panic");
        let msg = payload_message(&*caught);
        assert!(
            msg.contains("scenario 1") && msg.contains("no flows"),
            "unhelpful panic message: {msg}"
        );
    }

    #[test]
    fn earliest_failing_scenario_wins() {
        let mut scenarios: Vec<Scenario> = (0..4).map(tiny).collect();
        scenarios[0].flows.clear();
        scenarios[2].flows.clear();
        let caught = catch_unwind(AssertUnwindSafe(|| pooled(4).run_all(&scenarios)))
            .expect_err("sweep must panic");
        let msg = payload_message(&*caught);
        assert!(
            msg.contains("scenario 0"),
            "expected scenario 0 first: {msg}"
        );
    }

    #[test]
    fn sweep_survives_a_failing_scenario() {
        // Scenario 1 is invalid (no flows): the sweep must record a
        // structured failure at index 1 and still run the other two.
        let mut scenarios: Vec<Scenario> = (0..3).map(tiny).collect();
        scenarios[1].flows.clear();
        let outcomes = pooled(2)
            .run_sweep(&scenarios, &SweepConfig)
            .expect("sweep runs");
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[0].ok().is_some());
        assert!(outcomes[2].ok().is_some());
        let failure = outcomes[1].failure().expect("scenario 1 must fail");
        assert_eq!(failure.index, 1);
        assert!(
            failure.error.contains("no flows"),
            "unhelpful error: {}",
            failure.error
        );
        assert!(failure.context.contains("0 flows"));
    }

    /// One allocation per result: after a cold batch with memo and store,
    /// the memo, the store's entry and the returned outcome of each cell
    /// (a deduplicated alias included) point at the same `TrialResult`,
    /// and a warm engine's outcomes point at its store's entries.
    #[test]
    fn a_result_is_held_once_and_shared() {
        use crate::store::StoreOutcome;
        let dir = std::env::temp_dir().join(format!("bbrdom-engine-share-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = EngineConfig {
            jobs: 2,
            disk_cache: Some(dir.clone()),
            memory_cache: true,
            result_store: true,
            ..EngineConfig::default()
        };
        let mut scenarios: Vec<Scenario> = (0..3).map(tiny).collect();
        scenarios.push(tiny(1));
        let stored = |engine: &Engine, s: &Scenario| -> Arc<TrialResult> {
            let entry = engine.store().unwrap().get(scenario_hash(s)).unwrap();
            let StoreOutcome::Ok { result, .. } = &entry.outcome else {
                panic!("a successful entry");
            };
            Arc::clone(result)
        };
        let ok = |outcome: &TrialOutcome| -> Arc<TrialResult> {
            let TrialOutcome::Ok(result) = outcome else {
                panic!("a successful outcome");
            };
            Arc::clone(result)
        };

        let cold = Engine::new(config.clone());
        let outcomes = cold.run_sweep(&scenarios, &SweepConfig).unwrap();
        assert_eq!((cold.stats().simulated, cold.stats().deduped), (3, 1));
        for (s, outcome) in scenarios.iter().zip(&outcomes) {
            let memo = Arc::clone(&cold.memo.lock().unwrap()[&scenario_hash(s)].0);
            assert!(Arc::ptr_eq(&ok(outcome), &memo), "outcome copies the memo");
            assert!(
                Arc::ptr_eq(&memo, &stored(&cold, s)),
                "store copies the memo"
            );
        }

        let warm = Engine::new(config);
        let outcomes = warm.run_sweep(&scenarios, &SweepConfig).unwrap();
        let results = warm.run_all(&scenarios);
        assert_eq!((warm.stats().simulated, warm.stats().store_hits), (0, 6));
        for ((s, outcome), result) in scenarios.iter().zip(&outcomes).zip(&results) {
            assert!(
                Arc::ptr_eq(&ok(outcome), &stored(&warm, s)),
                "store hit copied"
            );
            assert!(Arc::ptr_eq(result, &stored(&warm, s)), "run_all copied");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
