//! The parallel payoff/sweep engine with a content-addressed scenario
//! result cache.
//!
//! Every payoff matrix, NE search, and figure sweep in this crate is a
//! batch of independent `Scenario → SimReport` runs. The engine executes
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
//!    stable 128-bit hash of the *full* scenario (link, buffer, flows,
//!    CCAs, RTTs, seeds, discipline, fault schedule — see
//!    [`scenario_hash`]) returns previous `SimReport`s instead of
//!    re-simulating, in-process always and on disk (`results/cache/`)
//!    when enabled. NE searches re-evaluate neighboring strategy
//!    profiles constantly; warm reruns skip the work entirely.
//!
//! Fail-soft sweep semantics ([`Engine::run_sweep`]) ride on the
//! same machinery: per-trial [`TrialOutcome`]s and event/wall-clock
//! budgets. Resuming an interrupted sweep is rerunning it against the
//! same cache: the store and the disk cache answer every trial that
//! finished, and failed trials run again. A cached success is only
//! reused under an event budget when the recorded run fit that budget
//! (`events_processed <= budget`), so caching never flips a
//! budget-failure into a success or vice versa.

use crate::runner::{payload_message, SweepConfig, TrialFailure, TrialOutcome};
use crate::scenario::{Scenario, TrialResult};
use bbrdom_netsim::hash::{StableHash, StableHasher};
use bbrdom_netsim::json::{self, Value};
use bbrdom_netsim::SimReport;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, OnceLock};

/// Bumped whenever [`scenario_hash`] coverage or the on-disk entry
/// layout changes, so stale cache files can never alias a new format.
pub const CACHE_FORMAT_VERSION: u32 = 1;

/// Stable content hash of everything that determines a scenario's
/// simulation output. Two scenarios hash alike iff a run of one is
/// bit-identical to a run of the other; see the completeness test,
/// which mutates every public field and asserts the hash moves.
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
    use crate::scenario::{
        ArrivalSpec, BackendSpec, EarlyStopSpec, FlowSpec, SizeSpec, TopoLinkSpec, TopologySpec,
        WorkloadSpec,
    };
    // Every struct hashed field by field is destructured without `..`,
    // so adding a field breaks the build here until the field is hashed.
    // Faults are hashed as the schedule they lower to, which is what the
    // simulator runs.
    let Scenario {
        mbps,
        buffer_bdp,
        reference_rtt_ms,
        flows,
        duration_secs,
        seed,
        discipline,
        faults,
        early_stop,
        backend,
        workload,
        topology,
    } = s;
    let mut h = StableHasher::new();
    CACHE_FORMAT_VERSION.stable_hash(&mut h);
    mbps.stable_hash(&mut h);
    buffer_bdp.stable_hash(&mut h);
    reference_rtt_ms.stable_hash(&mut h);
    duration_secs.stable_hash(&mut h);
    seed.stable_hash(&mut h);
    discipline.name().stable_hash(&mut h);
    (flows.len() as u64).stable_hash(&mut h);
    for FlowSpec {
        cca,
        rtt_ms,
        start_s,
        byte_limit,
    } in flows
    {
        cca.name().stable_hash(&mut h);
        rtt_ms.stable_hash(&mut h);
        start_s.stable_hash(&mut h);
        byte_limit.stable_hash(&mut h);
    }
    // Hash the *compiled* netsim fault schedule: it already folds in the
    // derived per-trial RNG stream seed.
    faults.to_schedule(*seed).stable_hash(&mut h);
    // Opt-in stop policy extends the byte stream only when engaged: every
    // pre-existing scenario keeps its hash, and an early-stopped run can
    // never alias the fixed-horizon run of the same scenario (the marker
    // bytes make the extension unambiguous).
    if let Some(EarlyStopSpec {
        epsilon,
        dwell,
        window_secs,
        min_secs,
    }) = early_stop
    {
        h.write_bytes(b"early_stop");
        epsilon.stable_hash(&mut h);
        dwell.stable_hash(&mut h);
        window_secs.stable_hash(&mut h);
        min_secs.stable_hash(&mut h);
    }
    // Backend domain separation, by the same opt-in marker scheme: DES
    // scenarios (the default) keep their historical hashes, while a fluid
    // run of the same scenario lives under a distinct key.
    if *backend != BackendSpec::Des {
        h.write_bytes(b"backend");
        backend.name().stable_hash(&mut h);
    }
    // Open-loop workload, same opt-in marker scheme: workload-free
    // scenarios keep their historical hashes; every workload field feeds
    // the key (the simulator output depends on all of them).
    if let Some(WorkloadSpec {
        cca,
        arrival,
        size,
        rtt_ms,
    }) = workload
    {
        h.write_bytes(b"workload");
        cca.name().stable_hash(&mut h);
        match arrival {
            ArrivalSpec::Poisson { rate_per_sec } => {
                h.write_bytes(&[0]);
                rate_per_sec.stable_hash(&mut h);
            }
            ArrivalSpec::Deterministic { interval_s } => {
                h.write_bytes(&[1]);
                interval_s.stable_hash(&mut h);
            }
        }
        match size {
            SizeSpec::Fixed { bytes } => {
                h.write_bytes(&[0]);
                bytes.stable_hash(&mut h);
            }
            SizeSpec::Pareto {
                alpha,
                min_bytes,
                max_bytes,
            } => {
                h.write_bytes(&[1]);
                alpha.stable_hash(&mut h);
                min_bytes.stable_hash(&mut h);
                max_bytes.stable_hash(&mut h);
            }
        }
        rtt_ms.stable_hash(&mut h);
    }
    // Explicit topology, same opt-in marker scheme: implicit-dumbbell
    // scenarios keep their historical hashes, and every topology field
    // feeds the key — including the fields that only *select* behavior
    // (routes, flow_routes, fault_link), since the simulator output
    // depends on all of them.
    if let Some(TopologySpec {
        nodes,
        links,
        routes,
        flow_routes,
        workload_route,
        fault_link,
    }) = topology
    {
        h.write_bytes(b"topology");
        (nodes.len() as u64).stable_hash(&mut h);
        for name in nodes {
            name.as_str().stable_hash(&mut h);
        }
        (links.len() as u64).stable_hash(&mut h);
        for TopoLinkSpec {
            from,
            to,
            mbps: link_mbps,
            delay_ms,
            buffer_bdp: link_buffer_bdp,
        } in links
        {
            from.as_str().stable_hash(&mut h);
            to.as_str().stable_hash(&mut h);
            link_mbps.stable_hash(&mut h);
            delay_ms.stable_hash(&mut h);
            link_buffer_bdp.stable_hash(&mut h);
        }
        (routes.len() as u64).stable_hash(&mut h);
        for route in routes {
            (route.len() as u64).stable_hash(&mut h);
            for &link in route {
                (link as u64).stable_hash(&mut h);
            }
        }
        (flow_routes.len() as u64).stable_hash(&mut h);
        for &r in flow_routes {
            (r as u64).stable_hash(&mut h);
        }
        workload_route.map(|r| r as u64).stable_hash(&mut h);
        fault_link.map(|l| l as u64).stable_hash(&mut h);
    }
    h.finish()
}

/// [`scenario_hash`] as the fixed-width hex string used for cache file
/// names and store index keys.
pub fn scenario_hash_hex(s: &Scenario) -> String {
    format!("{:032x}", scenario_hash(s))
}

/// Engine configuration: pool size and cache policy.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads for scenario batches. Under supervision this is
    /// the thread count *per worker subprocess*.
    pub jobs: usize,
    /// Directory for the persistent result cache (`None` = memory only).
    pub disk_cache: Option<PathBuf>,
    /// Keep an in-process memo of completed reports (cheap; only worth
    /// disabling for determinism tests that must re-simulate).
    pub memory_cache: bool,
    /// Shard batches across crash-isolated worker subprocesses
    /// (`repro --supervise N`; see [`crate::supervisor`]). `None` (the
    /// default) executes in-process.
    pub supervise: Option<crate::supervisor::SupervisorConfig>,
    /// Maintain (and serve from) the indexed result store over the disk
    /// cache ([`crate::store`]): a store hit skips full-report parsing,
    /// not just simulation. No effect without `disk_cache`.
    pub result_store: bool,
}

impl EngineConfig {
    /// A hermetic single-threaded engine with caching off — every run
    /// re-simulates. The baseline for determinism and perf comparisons.
    pub fn serial_uncached() -> Self {
        EngineConfig {
            jobs: 1,
            disk_cache: None,
            memory_cache: false,
            supervise: None,
            result_store: false,
        }
    }
}

/// Cache/dedup counters for one engine, cumulative across batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Results served from the in-process memo.
    pub memory_hits: u64,
    /// Results served from the indexed result store (metric lookup — no
    /// full-report parse).
    pub store_hits: u64,
    /// Results served by parsing a full on-disk cache entry.
    pub disk_hits: u64,
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
            disk_hits: self.disk_hits - earlier.disk_hits,
            deduped: self.deduped - earlier.deduped,
            simulated: self.simulated - earlier.simulated,
            events_simulated: self.events_simulated - earlier.events_simulated,
        }
    }

    /// Simulations skipped thanks to the cache (all sources).
    pub fn skipped(&self) -> u64 {
        self.memory_hits + self.store_hits + self.disk_hits + self.deduped
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
            "{} simulated ({} events), {} cache hits ({} memory, {} store, {} disk-parse, {} deduped) — {:.0}% skipped",
            self.simulated,
            self.events_simulated,
            self.skipped(),
            self.memory_hits,
            self.store_hits,
            self.disk_hits,
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
    memo: Mutex<HashMap<u128, Arc<SimReport>>>,
    /// The indexed result store over `disk_cache`, opened lazily on
    /// first use (so engines that never touch a cache never scan one).
    store: OnceLock<crate::store::Store>,
    memory_hits: AtomicU64,
    store_hits: AtomicU64,
    disk_hits: AtomicU64,
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
            disk_hits: AtomicU64::new(0),
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
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            deduped: self.deduped.load(Ordering::Relaxed),
            simulated: self.simulated.load(Ordering::Relaxed),
            events_simulated: self.events_simulated.load(Ordering::Relaxed),
        }
    }

    /// The indexed result store, if this engine maintains one
    /// (`result_store` on and a disk cache configured). Opened lazily:
    /// the first call sweeps orphan tmps and loads `index.jsonl`.
    pub fn store(&self) -> Option<&crate::store::Store> {
        if !self.config.result_store {
            return None;
        }
        let dir = self.config.disk_cache.as_deref()?;
        Some(self.store.get_or_init(|| crate::store::Store::open(dir)))
    }

    /// Run all scenarios with the engine's pool, panicking on the first
    /// (lowest-index) failure — the strict interface figure sweeps use.
    /// Results come back in input order.
    ///
    /// ```
    /// use bbrdom_cca::CcaKind;
    /// use bbrdom_experiments::{BackendSpec, Engine, EngineConfig, Scenario};
    ///
    /// let engine = Engine::new(EngineConfig {
    ///     jobs: 1,
    ///     disk_cache: None,
    ///     memory_cache: true,
    ///     supervise: None,
    ///     result_store: false,
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
    pub fn run_all(&self, scenarios: &[Scenario]) -> Vec<TrialResult> {
        self.run_all_jobs(scenarios, self.config.jobs)
    }

    /// [`Engine::run_all`] with an explicit pool size.
    pub fn run_all_jobs(&self, scenarios: &[Scenario], jobs: usize) -> Vec<TrialResult> {
        let outcomes = self
            .execute(scenarios, jobs, None, None)
            .unwrap_or_else(|e| panic!("sweep failed: {e}"));
        let mut results = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            match outcome {
                TrialOutcome::Ok(r) => results.push(r),
                TrialOutcome::Failed(f) => {
                    panic!("scenario {} failed: {}", f.index, f.error)
                }
            }
        }
        results
    }

    /// Run all scenarios fail-soft: one panicking, livelocked, or
    /// invalid scenario becomes a structured [`TrialOutcome::Failed`]
    /// while the rest of the sweep completes. Outcomes come back in
    /// input order.
    ///
    /// Resuming is rerunning: with a disk cache configured, every
    /// finished success is cached (and, with the result store on,
    /// indexed in strict index order), so a rerun of the same sweep
    /// serves those trials without simulating and runs only the rest.
    /// Failures are never served from the cache; they run again, so a
    /// raised budget takes effect. The only sweep-level errors are
    /// supervised bring-up failures (an unwritable state dir, an
    /// unspawnable worker), reported as a typed
    /// [`ConfigError::Io`](bbrdom_netsim::ConfigError::Io) — per-trial
    /// failures stay fail-soft inside the `Ok` outcome vector.
    pub fn run_sweep(
        &self,
        scenarios: &[Scenario],
        config: &SweepConfig,
    ) -> Result<Vec<TrialOutcome>, bbrdom_netsim::ConfigError> {
        self.execute(
            scenarios,
            config.jobs.unwrap_or(self.config.jobs),
            config.event_budget,
            config.wall_budget,
        )
    }

    /// The shared batch executor. Deterministic contract: the returned
    /// vector is indexed by scenario, and the result store's index is
    /// appended in strict index order by the single thread that owns the
    /// channel's receive side.
    fn execute(
        &self,
        scenarios: &[Scenario],
        jobs: usize,
        event_budget: Option<u64>,
        wall_budget: Option<std::time::Duration>,
    ) -> Result<Vec<TrialOutcome>, bbrdom_netsim::ConfigError> {
        let n = scenarios.len();
        let hashes: Vec<u128> = scenarios.iter().map(scenario_hash).collect();
        let keys: Vec<String> = hashes.iter().map(|h| format!("{h:032x}")).collect();
        let wall_budget_ns = wall_budget.map(|d| d.as_nanos() as u64);
        let mut done: Vec<Option<TrialOutcome>> = (0..n).map(|_| None).collect();
        // Recorded event counts, alongside `done`: fed to the result
        // store so its entries stay budget-admissible. Unknown (`None`)
        // for failures.
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
        // in strict index order — one cursor, one writer, so serial,
        // pooled, and supervised runs produce byte-identical index files,
        // and an interrupted batch leaves every trial before the cursor
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
                        &keys[cursor],
                        &scenarios[cursor],
                        outcome,
                        done_events[cursor],
                        event_budget,
                        wall_budget_ns,
                    );
                }
                cursor += 1;
            }
        };
        let cache_dir = self.config.disk_cache.as_deref();
        let pool = jobs.max(1).min(pending.len().max(1));

        if let Some(sup) = &self.config.supervise {
            // Supervised execution: memo and store hits are answered here
            // (a rerun of a finished batch spawns no workers); the rest is
            // sharded across worker subprocesses. This process slots
            // results by index and remains the index's single writer, so
            // the output is bit-identical to the in-process paths below.
            let mut remote = Vec::new();
            for &i in &pending {
                match self.cached(hashes[i], event_budget) {
                    Some((result, events)) => finish(i, TrialOutcome::Ok(result), events),
                    None => remote.push(i),
                }
            }
            if !remote.is_empty() {
                let stats = crate::supervisor::run_supervised(
                    sup,
                    scenarios,
                    &keys,
                    &remote,
                    event_budget,
                    wall_budget_ns,
                    jobs.max(1),
                    cache_dir,
                    &mut finish,
                )?;
                self.absorb(&stats);
            }
        } else if pool == 1 {
            // Serial path: a one-worker pool still pays for thread spawn,
            // channel traffic, and cross-core cache misses with nothing
            // to show for it (measured ~6% slower than inline on a
            // single-core box). Run the batch inline instead; the
            // ordering contract holds trivially.
            for &i in &pending {
                if crate::supervisor::interrupted() {
                    crate::supervisor::exit_interrupted(cache_dir);
                }
                let (outcome, events) =
                    self.run_one(&scenarios[i], hashes[i], i, event_budget, wall_budget);
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
                        let (outcome, events) =
                            self.run_one(&scenarios[i], hashes[i], i, event_budget, wall_budget);
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
                    // `finish` already recorded the contiguous prefix, so
                    // a graceful stop loses nothing a rerun could reuse.
                    if crate::supervisor::interrupted() {
                        crate::supervisor::exit_interrupted(cache_dir);
                    }
                }
            });
        }

        Ok(done
            .into_iter()
            .map(|slot| slot.expect("scenario not executed"))
            .collect())
    }

    /// Run (or fetch) a single scenario outside a batch — the
    /// supervised-worker entry point ([`crate::supervisor::worker_main`]).
    /// Cache, budget, and failure semantics are identical to batch
    /// execution, so a supervised sweep stays bit-identical to a serial
    /// one. Also returns the recorded event count (when known), which
    /// supervised workers report back to the parent so *its* result
    /// store stays budget-admissible.
    pub(crate) fn run_single_traced(
        &self,
        scenario: &Scenario,
        index: usize,
        event_budget: Option<u64>,
        wall_budget: Option<std::time::Duration>,
    ) -> (TrialOutcome, Option<u64>) {
        self.run_one(
            scenario,
            scenario_hash(scenario),
            index,
            event_budget,
            wall_budget,
        )
    }

    /// Fold worker-subprocess cache counters into this engine's, so the
    /// sweep summary reflects work done across process boundaries.
    pub(crate) fn absorb(&self, s: &CacheStats) {
        self.memory_hits.fetch_add(s.memory_hits, Ordering::Relaxed);
        self.store_hits.fetch_add(s.store_hits, Ordering::Relaxed);
        self.disk_hits.fetch_add(s.disk_hits, Ordering::Relaxed);
        self.deduped.fetch_add(s.deduped, Ordering::Relaxed);
        self.simulated.fetch_add(s.simulated, Ordering::Relaxed);
        self.events_simulated
            .fetch_add(s.events_simulated, Ordering::Relaxed);
    }

    /// The memo's or the result store's answer for a content hash, with
    /// its recorded event count: the cheap lookups, no report parse.
    /// Under an event budget a cached result is reused only if its
    /// recorded event count fits the budget.
    fn cached(&self, hash: u128, event_budget: Option<u64>) -> Option<(TrialResult, Option<u64>)> {
        if self.config.memory_cache {
            let memo = self.memo.lock().expect("engine memo poisoned");
            if let Some(report) = memo.get(&hash) {
                if event_budget.is_none_or(|budget| report.events_processed <= budget) {
                    self.memory_hits.fetch_add(1, Ordering::Relaxed);
                    return Some((
                        TrialResult::from_report(report),
                        Some(report.events_processed),
                    ));
                }
            }
        }

        // Store hit: the extracted metrics are the entire answer — no
        // SimReport is materialized (so the memo is not populated; the
        // store lookup itself is as cheap as the memo's).
        let hit = self.store()?.lookup(hash, event_budget)?;
        self.store_hits.fetch_add(1, Ordering::Relaxed);
        Some(hit)
    }

    /// Run (or fetch) one scenario, also returning the recorded event
    /// count when known. Cache policy: only successful reports are
    /// cached; under an event budget a cached result is reused only if
    /// its recorded event count fits the budget, which keeps cached and
    /// fresh outcomes identical. Lookup order is cheapest-first: memory
    /// memo, then the indexed result store (metric lookup, no parse),
    /// then the full on-disk report, then simulation.
    fn run_one(
        &self,
        scenario: &Scenario,
        hash: u128,
        index: usize,
        event_budget: Option<u64>,
        wall_budget: Option<std::time::Duration>,
    ) -> (TrialOutcome, Option<u64>) {
        let admits = |report: &SimReport| {
            event_budget.is_none_or(|budget| report.events_processed <= budget)
        };

        if let Some((result, events)) = self.cached(hash, event_budget) {
            return (TrialOutcome::Ok(result), events);
        }

        if let Some(dir) = &self.config.disk_cache {
            if let Some(report) = load_cache_entry(dir, hash) {
                if admits(&report) {
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                    let events = report.events_processed;
                    let result = TrialResult::from_report(&report);
                    if self.config.memory_cache {
                        self.memo
                            .lock()
                            .expect("engine memo poisoned")
                            .insert(hash, Arc::new(report));
                    }
                    return (TrialOutcome::Ok(result), Some(events));
                }
            }
        }

        self.simulated.fetch_add(1, Ordering::Relaxed);
        match catch_unwind(AssertUnwindSafe(|| {
            scenario.try_report_with(event_budget, wall_budget)
        })) {
            Ok(Ok(report)) => {
                self.events_simulated
                    .fetch_add(report.events_processed, Ordering::Relaxed);
                let events = report.events_processed;
                let result = TrialResult::from_report(&report);
                if let Some(dir) = &self.config.disk_cache {
                    store_cache_entry(dir, hash, scenario, &report);
                }
                if self.config.memory_cache {
                    self.memo
                        .lock()
                        .expect("engine memo poisoned")
                        .insert(hash, Arc::new(report));
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

/// Copy a representative's outcome onto a duplicate scenario's slot.
fn retarget(outcome: &TrialOutcome, index: usize) -> TrialOutcome {
    match outcome {
        TrialOutcome::Ok(r) => TrialOutcome::Ok(r.clone()),
        TrialOutcome::Failed(f) => TrialOutcome::Failed(TrialFailure {
            index,
            error: f.error.clone(),
            context: f.context.clone(),
        }),
    }
}

fn cache_entry_path(dir: &Path, hash: u128) -> PathBuf {
    dir.join(format!("{hash:032x}.json"))
}

/// Load a disk cache entry. Any failure — missing file, truncation,
/// garbled JSON, version or key mismatch — is a miss, never a panic:
/// the scenario is simply re-simulated (and the entry rewritten).
fn load_cache_entry(dir: &Path, hash: u128) -> Option<SimReport> {
    parse_cache_entry(
        &std::fs::read_to_string(cache_entry_path(dir, hash)).ok()?,
        hash,
    )
}

/// Parse the text of the cache entry for `hash` (see
/// [`load_cache_entry`]); `None` for anything but a well-formed entry of
/// this format version and key.
pub(crate) fn parse_cache_entry(text: &str, hash: u128) -> Option<SimReport> {
    let v = json::parse(text).ok()?;
    if v.get("version").and_then(Value::as_u64) != Some(CACHE_FORMAT_VERSION as u64) {
        return None;
    }
    if v.get("key").and_then(Value::as_str) != Some(format!("{hash:032x}").as_str()) {
        return None;
    }
    SimReport::from_json_value(v.get("report")?).ok()
}

/// Persist a report. Written to a temp file then renamed, so concurrent
/// readers never observe a torn entry; I/O errors are ignored (the
/// cache is an accelerator, not a store of record). The temp name
/// carries the pid *and* a process-global sequence number: two threads
/// of one process racing the same key must not share a temp file, or
/// the interleaved writes could be published by the rename.
///
/// The entry embeds the scenario (reports don't echo their parameters),
/// so `repro index rebuild` can recover a queryable index from the
/// cache alone. Same format version: readers ignore unknown fields, and
/// pre-existing entries simply rebuild as unindexable.
fn store_cache_entry(dir: &Path, hash: u128, scenario: &Scenario, report: &SimReport) {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let tmp = dir.join(format!(
        ".{hash:032x}.tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    if std::fs::write(&tmp, cache_entry_json(hash, scenario, report)).is_ok() {
        let _ = std::fs::rename(&tmp, cache_entry_path(dir, hash));
    }
}

/// The text of the cache entry for `hash` (inverse of
/// [`parse_cache_entry`]).
pub(crate) fn cache_entry_json(hash: u128, scenario: &Scenario, report: &SimReport) -> String {
    let mut v = Value::object();
    v.set("version", Value::U64(CACHE_FORMAT_VERSION as u64))
        .set("key", format!("{hash:032x}").as_str().into())
        .set("scenario", scenario.to_json_value())
        .set("report", report.to_json_value());
    v.to_json()
}

/// The engine this crate's unit tests run figures and payoff sweeps on:
/// one worker, in-process memo on, no disk cache.
#[cfg(test)]
pub(crate) fn test_engine() -> Engine {
    Engine::new(EngineConfig {
        jobs: 1,
        disk_cache: None,
        memory_cache: true,
        supervise: None,
        result_store: false,
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

    #[test]
    fn results_are_in_input_order() {
        let scenarios: Vec<Scenario> = (0..6).map(tiny).collect();
        let parallel = test_engine().run_all_jobs(&scenarios, 4);
        let serial: Vec<_> = scenarios.iter().map(|s| s.run()).collect();
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(p.throughput_mbps, s.throughput_mbps);
        }
    }

    #[test]
    fn single_worker_works() {
        let scenarios: Vec<Scenario> = (0..3).map(tiny).collect();
        let results = test_engine().run_all_jobs(&scenarios, 1);
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
        let caught = catch_unwind(AssertUnwindSafe(|| {
            test_engine().run_all_jobs(&scenarios, 2)
        }))
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
        let caught = catch_unwind(AssertUnwindSafe(|| {
            test_engine().run_all_jobs(&scenarios, 4)
        }))
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
        let cfg = SweepConfig {
            jobs: Some(2),
            ..SweepConfig::default()
        };
        let outcomes = test_engine()
            .run_sweep(&scenarios, &cfg)
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

    #[test]
    fn sweep_event_budget_fails_soft() {
        // 1000 events is far too few for a 3-second trial: the budget
        // trips and is reported as a structured failure, not a panic.
        let scenarios: Vec<Scenario> = (0..2).map(tiny).collect();
        let cfg = SweepConfig {
            jobs: Some(2),
            event_budget: Some(1_000),
            ..SweepConfig::default()
        };
        let outcomes = test_engine()
            .run_sweep(&scenarios, &cfg)
            .expect("sweep runs");
        for o in &outcomes {
            let f = o.failure().expect("budget must trip");
            assert!(
                f.error.contains("event budget"),
                "unhelpful error: {}",
                f.error
            );
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bbrdom-engine-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The satellite race test: threads hammering the same cache key
    /// with tmp+rename writes while readers poll must never produce a
    /// torn read — every load is either a miss or the exact report.
    #[test]
    fn concurrent_cache_writers_never_tear() {
        let dir = temp_dir("race");
        let scenario = Scenario::versus(10.0, 20.0, 2.0, 1, CcaKind::Bbr, 1, 2.0, 7);
        let report = scenario
            .try_report_with(None, None)
            .expect("tiny scenario runs");
        let hash = scenario_hash(&scenario);
        let expected = report.to_json_value().to_json();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        store_cache_entry(&dir, hash, &scenario, &report);
                    }
                });
            }
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..200 {
                        if let Some(r) = load_cache_entry(&dir, hash) {
                            assert_eq!(r.to_json_value().to_json(), expected, "torn cache read");
                        }
                    }
                });
            }
        });
        assert!(load_cache_entry(&dir, hash).is_some());
        let leaked = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .count();
        assert_eq!(leaked, 0, "temp files must not leak");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
