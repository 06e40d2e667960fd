//! The indexed result store over the content-addressed SimReport cache.
//!
//! The disk cache (`<cache>/<hash>.json`, see [`crate::engine`]) already
//! makes warm sweeps skip 100% of *simulation* — but answering a figure
//! from it still opens and parses one full `SimReport` JSON per cell.
//! At sweep-service scale (millions of accumulated runs) that parse tax
//! dominates: a fig 9/11 grid re-assembled from cache spends its time
//! deserializing queue telemetry and trace fields no figure reads.
//!
//! This module adds the metric layer: an append-only **index**
//! (`<cache>/index.jsonl` plus an in-memory map) mapping a scenario's
//! content hash to exactly what the read side consumes — the scenario
//! parameters (for `repro query`) and the extracted [`TrialResult`]
//! (per-CCA goodput, queuing delay, FCT percentiles, backoff times),
//! plus the recorded event count so budget admission works without
//! touching the report. A store hit therefore short-circuits both
//! simulation *and* full-report deserialization, and `TrialResult`'s
//! bit-exact JSON round-trip guarantees store-served figures are
//! byte-identical to freshly simulated ones.
//!
//! The store is also what makes sweeps resumable: the batch executor
//! records every finished trial here in index order, so rerunning an
//! interrupted sweep against the same cache serves each finished trial
//! without simulating it.
//!
//! Disciplines:
//!
//! * **single writer** — only the batch executor's single-writer thread
//!   appends (`Store::record`), in strict scenario-index order;
//!   supervised workers open the store read-only by construction (they
//!   never run the batch executor), so a supervised sweep produces a
//!   byte-identical index to a serial run;
//! * **torn-tail tolerance** — a crash mid-append leaves a partial last
//!   line; loading skips it (and any malformed line) as a miss, and the
//!   next append-mode open truncates the tail to the last complete line;
//! * **tmp+rename compaction** — [`Store::rebuild`] re-derives the index
//!   from the cache entries themselves (corrupt or scenario-less entries
//!   are skipped as misses) and publishes it atomically;
//! * **orphan-tmp sweep** — opening the store removes stale `*.tmp.*`
//!   files left behind by SIGKILLed writers (the supervisor kills
//!   workers mid-write by design), identified by a dead writer pid.

use crate::engine::{scenario_hash, CACHE_FORMAT_VERSION};
use crate::runner::TrialOutcome;
use crate::scenario::{Scenario, TrialResult};
use bbrdom_netsim::json::{self, Value};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Bumped whenever the index line layout changes; lines with another
/// version are skipped on load (and swept away by the next rebuild).
pub const INDEX_FORMAT_VERSION: u32 = 1;

/// Index file name inside the cache directory.
pub const INDEX_FILE: &str = "index.jsonl";

/// Orphaned tmp files whose writer pid cannot be checked (non-Linux, or
/// an unparsable name) are removed only past this age.
const ORPHAN_TMP_MAX_AGE: std::time::Duration = std::time::Duration::from_secs(3600);

/// How one indexed trial ended.
#[derive(Debug, Clone)]
pub enum StoreOutcome {
    /// The trial succeeded: the extracted metrics, plus the simulator
    /// event count when known (budget admission needs it; entries
    /// written by older builds may lack it).
    Ok {
        events: Option<u64>,
        result: TrialResult,
    },
    /// The trial failed (budget trip, invalid config, quarantine). Kept
    /// for `repro query --failed` sweep planning; never served as a
    /// result — failures are always re-run, exactly like the engine's
    /// cache policy.
    Failed {
        error: String,
        context: String,
        event_budget: Option<u64>,
        wall_budget_ns: Option<u64>,
    },
}

/// One indexed trial: content hash, full scenario (the queryable
/// parameters), and outcome.
#[derive(Debug, Clone)]
pub struct StoreEntry {
    /// The scenario content hash, as the 32-hex-digit cache key.
    pub key: String,
    /// The scenario that produced the result.
    pub scenario: Scenario,
    /// The extracted metrics (or the structured failure).
    pub outcome: StoreOutcome,
}

impl StoreEntry {
    /// The result, if the trial succeeded.
    pub fn ok(&self) -> Option<&TrialResult> {
        match &self.outcome {
            StoreOutcome::Ok { result, .. } => Some(result),
            StoreOutcome::Failed { .. } => None,
        }
    }

    /// Canonical CCA mix of the scenario's flows, e.g. `cubic:4+bbr:2`
    /// (names in first-appearance order, which matches the paper's
    /// CUBIC-first scenario builders).
    pub fn mix(&self) -> String {
        let mut counts: Vec<(&str, u32)> = Vec::new();
        for f in &self.scenario.flows {
            let name = f.cca.name();
            match counts.iter_mut().find(|(n, _)| *n == name) {
                Some((_, c)) => *c += 1,
                None => counts.push((name, 1)),
            }
        }
        counts
            .iter()
            .map(|(n, c)| format!("{n}:{c}"))
            .collect::<Vec<_>>()
            .join("+")
    }

    /// Whether the scenario's flow mix matches a user spec like
    /// `cubic:4+bbr:2` (order-insensitive, exact counts) or `bbr`
    /// (presence of the CCA, any count). Components may be separated by
    /// `+` or `,`.
    pub fn mix_matches(&self, spec: &str) -> bool {
        let mut counts: HashMap<&str, u32> = HashMap::new();
        for f in &self.scenario.flows {
            *counts.entry(f.cca.name()).or_insert(0) += 1;
        }
        let mut exact = false;
        let mut want: HashMap<String, u32> = HashMap::new();
        for part in spec.split(['+', ',']).filter(|p| !p.trim().is_empty()) {
            match part.trim().split_once(':') {
                Some((name, count)) => {
                    exact = true;
                    let Ok(c) = count.trim().parse::<u32>() else {
                        return false;
                    };
                    want.insert(name.trim().to_ascii_lowercase(), c);
                }
                None => {
                    // Bare CCA name: presence test only.
                    if counts
                        .get(part.trim().to_ascii_lowercase().as_str())
                        .copied()
                        .unwrap_or(0)
                        == 0
                    {
                        return false;
                    }
                }
            }
        }
        if exact {
            if want.len() != counts.len() {
                return false;
            }
            for (name, c) in &want {
                if counts.get(name.as_str()).copied().unwrap_or(0) != *c {
                    return false;
                }
            }
        }
        true
    }

    /// Mean goodput per CCA (first-appearance order), from the stored
    /// metrics. Empty for failed entries.
    pub fn goodput_by_cca(&self) -> Vec<(String, f64)> {
        let Some(result) = self.ok() else {
            return Vec::new();
        };
        let mut order: Vec<String> = Vec::new();
        let mut sums: HashMap<&str, (f64, u32)> = HashMap::new();
        for (name, tput) in result.cc_names.iter().zip(&result.throughput_mbps) {
            if !sums.contains_key(name.as_str()) {
                order.push(name.clone());
            }
            let slot = sums.entry(name.as_str()).or_insert((0.0, 0));
            slot.0 += tput;
            slot.1 += 1;
        }
        order
            .into_iter()
            .map(|name| {
                let (sum, n) = sums[name.as_str()];
                (name, sum / n as f64)
            })
            .collect()
    }

    /// Serialize as one index line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut v = Value::object();
        v.set("v", Value::U64(INDEX_FORMAT_VERSION as u64))
            .set("key", self.key.as_str().into())
            .set("scenario", self.scenario.to_json_value());
        match &self.outcome {
            StoreOutcome::Ok { events, result } => {
                v.set("ok", true.into());
                if let Some(e) = events {
                    v.set("events", Value::U64(*e));
                }
                v.set("result", result.to_json_value());
            }
            StoreOutcome::Failed {
                error,
                context,
                event_budget,
                wall_budget_ns,
            } => {
                v.set("ok", false.into())
                    .set("error", Value::Str(error.clone()))
                    .set("context", Value::Str(context.clone()));
                if let Some(b) = event_budget {
                    v.set("event_budget", Value::U64(*b));
                }
                if let Some(b) = wall_budget_ns {
                    v.set("wall_budget_ns", Value::U64(*b));
                }
            }
        }
        v.to_json()
    }

    /// Parse one index line; `None` for anything torn, malformed, or of
    /// another format version — the caller treats it as a miss.
    pub fn from_json_line(line: &str) -> Option<StoreEntry> {
        let v = json::parse(line).ok()?;
        if v.get("v").and_then(Value::as_u64) != Some(INDEX_FORMAT_VERSION as u64) {
            return None;
        }
        let key = v.get("key")?.as_str()?.to_string();
        key_hash(&key)?;
        let scenario = Scenario::from_json_value(v.get("scenario")?).ok()?;
        let outcome = match v.get("ok")? {
            Value::Bool(true) => StoreOutcome::Ok {
                events: v.get("events").and_then(Value::as_u64),
                result: TrialResult::from_json_value(v.get("result")?).ok()?,
            },
            Value::Bool(false) => StoreOutcome::Failed {
                error: v.get("error")?.as_str()?.to_string(),
                context: v
                    .get("context")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                event_budget: v.get("event_budget").and_then(Value::as_u64),
                wall_budget_ns: v.get("wall_budget_ns").and_then(Value::as_u64),
            },
            _ => return None,
        };
        Some(StoreEntry {
            key,
            scenario,
            outcome,
        })
    }
}

/// Parse a 32-hex cache key back to the u128 content hash.
fn key_hash(key: &str) -> Option<u128> {
    if key.len() != 32 {
        return None;
    }
    u128::from_str_radix(key, 16).ok()
}

/// What [`Store::rebuild`] found while scanning the cache directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebuildStats {
    /// Cache entry files scanned.
    pub scanned: usize,
    /// Entries successfully indexed.
    pub indexed: usize,
    /// Unreadable, truncated, version- or key-mismatched entries
    /// (skipped as misses — same policy as the engine's cache loads).
    pub corrupt: usize,
    /// Valid entries predating the scenario-embedding format: their
    /// metrics are recoverable but their parameters are not, so they
    /// cannot be indexed (a fresh run of the scenario re-indexes them).
    pub no_scenario: usize,
}

/// Aggregate cache-directory statistics for `repro cache stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheDirStats {
    /// Cache entry files (`<hash>.json`) on disk.
    pub disk_entries: usize,
    /// Total bytes of those entry files.
    pub disk_bytes: u64,
    /// Index entries with a successful result.
    pub index_ok: usize,
    /// Index entries recording a structured failure.
    pub index_failed: usize,
    /// Bytes of the index file.
    pub index_bytes: u64,
    /// Disk entries whose key is covered by the index.
    pub covered: usize,
    /// Stale tmp files swept while opening.
    pub orphans_swept: usize,
}

/// The indexed result store for one cache directory. See the module
/// docs for the write/repair disciplines.
pub struct Store {
    dir: PathBuf,
    index_path: PathBuf,
    map: Mutex<HashMap<u128, Arc<StoreEntry>>>,
    writer: Mutex<Option<std::fs::File>>,
    orphans_swept: usize,
}

impl Store {
    /// Open (or lazily create) the store for a cache directory: sweep
    /// orphaned tmp files, then load every well-formed index line —
    /// torn tails and malformed lines are skipped, and for a duplicated
    /// key the last line wins (appends supersede).
    pub fn open(dir: &Path) -> Store {
        let orphans_swept = clean_orphan_tmps(dir);
        let index_path = dir.join(INDEX_FILE);
        let mut map = HashMap::new();
        if let Ok(text) = std::fs::read_to_string(&index_path) {
            for line in text.lines() {
                if let Some(entry) = StoreEntry::from_json_line(line) {
                    if let Some(hash) = key_hash(&entry.key) {
                        map.insert(hash, Arc::new(entry));
                    }
                }
            }
        }
        Store {
            dir: dir.to_path_buf(),
            index_path,
            map: Mutex::new(map),
            writer: Mutex::new(None),
            orphans_swept,
        }
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.map.lock().expect("store map poisoned").len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stale tmp files swept when this store was opened.
    pub fn orphans_swept(&self) -> usize {
        self.orphans_swept
    }

    /// The full entry for a content hash, if indexed.
    pub fn get(&self, hash: u128) -> Option<Arc<StoreEntry>> {
        self.map
            .lock()
            .expect("store map poisoned")
            .get(&hash)
            .cloned()
    }

    /// Serve a successful result for a content hash, if the index holds
    /// one that an event budget admits (mirroring the engine's cache
    /// admission: a result whose recorded event count is unknown is
    /// never served under a budget). Returns the result and the
    /// recorded event count.
    pub fn lookup(
        &self,
        hash: u128,
        event_budget: Option<u64>,
    ) -> Option<(TrialResult, Option<u64>)> {
        let map = self.map.lock().expect("store map poisoned");
        let entry = map.get(&hash)?;
        let StoreOutcome::Ok { events, result } = &entry.outcome else {
            return None;
        };
        match (event_budget, events) {
            (None, ev) => Some((result.clone(), *ev)),
            (Some(budget), Some(ev)) if *ev <= budget => Some((result.clone(), Some(*ev))),
            (Some(_), _) => None,
        }
    }

    /// All entries, sorted by key — the deterministic order `repro
    /// query` renders.
    pub fn entries(&self) -> Vec<Arc<StoreEntry>> {
        let mut all: Vec<Arc<StoreEntry>> = self
            .map
            .lock()
            .expect("store map poisoned")
            .values()
            .cloned()
            .collect();
        all.sort_by(|a, b| a.key.cmp(&b.key));
        all
    }

    /// Append one finished trial (the batch executor's single-writer
    /// thread calls this in strict scenario-index order). Append policy:
    /// a key already indexed with a success is immutable (content
    /// addressing — the result can never change); a failure may be
    /// superseded by a later success (e.g. a raised budget); repeated
    /// failures are not re-appended. I/O errors are swallowed — the
    /// index, like the cache, is an accelerator, not a store of record.
    pub(crate) fn record(
        &self,
        key: &str,
        scenario: &Scenario,
        outcome: &TrialOutcome,
        events: Option<u64>,
        event_budget: Option<u64>,
        wall_budget_ns: Option<u64>,
    ) {
        let Some(hash) = key_hash(key) else { return };
        let mut map = self.map.lock().expect("store map poisoned");
        match (map.get(&hash).map(|e| &e.outcome), outcome) {
            (Some(StoreOutcome::Ok { .. }), _) => return,
            (Some(StoreOutcome::Failed { .. }), TrialOutcome::Failed(_)) => return,
            _ => {}
        }
        let entry = StoreEntry {
            key: key.to_string(),
            scenario: scenario.clone(),
            outcome: match outcome {
                TrialOutcome::Ok(r) => StoreOutcome::Ok {
                    events,
                    result: r.clone(),
                },
                TrialOutcome::Failed(f) => StoreOutcome::Failed {
                    error: f.error.clone(),
                    context: f.context.clone(),
                    event_budget,
                    wall_budget_ns,
                },
            },
        };
        let line = entry.to_json_line();
        let mut writer = self.writer.lock().expect("store writer poisoned");
        if writer.is_none() {
            *writer = open_append(&self.index_path).ok();
        }
        if let Some(file) = writer.as_mut() {
            use std::io::Write as _;
            let ok = writeln!(file, "{line}").and_then(|()| file.flush()).is_ok();
            if ok {
                map.insert(hash, Arc::new(entry));
            }
        }
    }

    /// Rewrite the index from the in-memory map, sorted by key, via
    /// tmp+rename — compaction for an index that accumulated superseded
    /// lines. Concurrent readers never observe a torn file.
    pub fn compact(&self) -> std::io::Result<()> {
        let entries = self.entries();
        let mut text = String::new();
        for e in &entries {
            text.push_str(&e.to_json_line());
            text.push('\n');
        }
        std::fs::create_dir_all(&self.dir)?;
        let tmp = self.dir.join(format!(
            ".{INDEX_FILE}.tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, &self.index_path)?;
        // Drop the append handle: it points at the replaced inode.
        *self.writer.lock().expect("store writer poisoned") = None;
        Ok(())
    }

    /// Rebuild the index by scanning every cache entry in `dir` —
    /// the `repro index rebuild` backfill for caches that predate the
    /// store (or whose index was lost). Corrupt entries are skipped as
    /// misses, mirroring the engine's load policy; the fresh index is
    /// published atomically (tmp+rename, sorted by key). Failure
    /// records (which live only in the index — failures are never
    /// cached on disk) are dropped: the rebuilt index reflects exactly
    /// the reusable on-disk results.
    pub fn rebuild(dir: &Path) -> std::io::Result<(Store, RebuildStats)> {
        let mut stats = RebuildStats::default();
        let mut entries: Vec<StoreEntry> = Vec::new();
        for name in cache_entry_names(dir)? {
            stats.scanned += 1;
            let key = name.trim_end_matches(".json");
            match read_cache_entry(&dir.join(&name), key) {
                CacheEntryScan::Indexed(entry) => {
                    stats.indexed += 1;
                    entries.push(*entry);
                }
                CacheEntryScan::NoScenario => stats.no_scenario += 1,
                CacheEntryScan::Corrupt => stats.corrupt += 1,
            }
        }
        entries.sort_by(|a, b| a.key.cmp(&b.key));
        let mut text = String::new();
        for e in &entries {
            text.push_str(&e.to_json_line());
            text.push('\n');
        }
        std::fs::create_dir_all(dir)?;
        let tmp = dir.join(format!(
            ".{INDEX_FILE}.tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, dir.join(INDEX_FILE))?;
        Ok((Store::open(dir), stats))
    }

    /// Cache-directory statistics for `repro cache stats`.
    pub fn cache_stats(dir: &Path) -> std::io::Result<(Store, CacheDirStats)> {
        let store = Store::open(dir);
        let mut stats = CacheDirStats {
            orphans_swept: store.orphans_swept,
            ..CacheDirStats::default()
        };
        for name in cache_entry_names(dir)? {
            let path = dir.join(&name);
            stats.disk_entries += 1;
            stats.disk_bytes += std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            let key = name.trim_end_matches(".json");
            if key_hash(key).is_some_and(|h| store.get(h).is_some()) {
                stats.covered += 1;
            }
        }
        stats.index_bytes = std::fs::metadata(dir.join(INDEX_FILE))
            .map(|m| m.len())
            .unwrap_or(0);
        for e in store.map.lock().expect("store map poisoned").values() {
            match e.outcome {
                StoreOutcome::Ok { .. } => stats.index_ok += 1,
                StoreOutcome::Failed { .. } => stats.index_failed += 1,
            }
        }
        Ok((store, stats))
    }
}

static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Truncate a JSONL file to its last complete line. A crash (or SIGKILL)
/// mid-write can leave a partial record with no trailing newline;
/// appending to it would glue the next record onto the fragment and
/// corrupt *both*.
fn repair_tail(path: &Path) -> std::io::Result<()> {
    let data = match std::fs::read(path) {
        Ok(d) => d,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    if data.last().is_some_and(|&b| b != b'\n') {
        let keep = data.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(keep as u64)?;
    }
    Ok(())
}

/// Open a JSONL file for appending: create parent directories, drop any
/// torn final line, then open in append mode.
fn open_append(path: &Path) -> std::io::Result<std::fs::File> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    repair_tail(path)?;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
}

fn cache_entry_names(dir: &Path) -> std::io::Result<Vec<String>> {
    let mut names: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let Ok(entry) = entry else { continue };
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(stem) = name.strip_suffix(".json") else {
            continue;
        };
        if key_hash(stem).is_some() {
            names.push(name);
        }
    }
    names.sort();
    Ok(names)
}

enum CacheEntryScan {
    Indexed(Box<StoreEntry>),
    NoScenario,
    Corrupt,
}

/// Parse one on-disk cache entry for the rebuild scan. The layout is
/// the engine's (`{version, key, scenario?, report}`); anything that
/// would be a miss for the engine is `Corrupt` here.
fn read_cache_entry(path: &Path, key: &str) -> CacheEntryScan {
    let Ok(text) = std::fs::read_to_string(path) else {
        return CacheEntryScan::Corrupt;
    };
    let Ok(v) = json::parse(&text) else {
        return CacheEntryScan::Corrupt;
    };
    if v.get("version").and_then(Value::as_u64) != Some(CACHE_FORMAT_VERSION as u64) {
        return CacheEntryScan::Corrupt;
    }
    if v.get("key").and_then(Value::as_str) != Some(key) {
        return CacheEntryScan::Corrupt;
    }
    let Some(report) = v
        .get("report")
        .and_then(|r| bbrdom_netsim::SimReport::from_json_value(r).ok())
    else {
        return CacheEntryScan::Corrupt;
    };
    let Some(scenario) = v
        .get("scenario")
        .and_then(|s| Scenario::from_json_value(s).ok())
    else {
        return CacheEntryScan::NoScenario;
    };
    // Self-check: an entry whose embedded scenario does not hash to its
    // key would poison every query that trusts the parameters.
    if format!("{:032x}", scenario_hash(&scenario)) != key {
        return CacheEntryScan::Corrupt;
    }
    CacheEntryScan::Indexed(Box::new(StoreEntry {
        key: key.to_string(),
        scenario,
        outcome: StoreOutcome::Ok {
            events: Some(report.events_processed),
            result: TrialResult::from_report(&report),
        },
    }))
}

/// Remove stale tmp files (`<stem>.tmp.<pid>.<seq>`) left by writers
/// that died mid-write — SIGKILLed supervised workers never reach their
/// rename. A tmp file is an orphan when its embedded writer pid is
/// provably dead; when the pid cannot be checked the file must instead
/// outlive `ORPHAN_TMP_MAX_AGE` (one hour). Live writers (including this
/// process) are never touched, and neither are published entries.
/// Returns the number of files removed.
pub fn clean_orphan_tmps(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut removed = 0;
    for entry in entries.filter_map(Result::ok) {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(pos) = name.find(".tmp.") else {
            continue;
        };
        let mut parts = name[pos + ".tmp.".len()..].split('.');
        let pid = parts.next().and_then(|p| p.parse::<u32>().ok());
        let orphaned = match pid {
            Some(pid) if pid == std::process::id() => false,
            Some(pid) => match pid_alive(pid) {
                Some(alive) => !alive,
                None => aged_out(&entry.path()),
            },
            None => aged_out(&entry.path()),
        };
        if orphaned && std::fs::remove_file(entry.path()).is_ok() {
            removed += 1;
        }
    }
    removed
}

/// Whether a pid is alive — `Some(alive)` where checkable, `None` where
/// the platform offers no cheap answer (callers fall back to file age).
#[cfg(target_os = "linux")]
fn pid_alive(pid: u32) -> Option<bool> {
    Some(Path::new("/proc").join(pid.to_string()).exists())
}

#[cfg(not(target_os = "linux"))]
fn pid_alive(_pid: u32) -> Option<bool> {
    None
}

fn aged_out(path: &Path) -> bool {
    std::fs::metadata(path)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.elapsed().ok())
        .is_some_and(|age| age > ORPHAN_TMP_MAX_AGE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::TrialFailure;
    use bbrdom_cca::CcaKind;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bbrdom-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tiny(seed: u64) -> Scenario {
        Scenario::versus(10.0, 20.0, 2.0, 1, CcaKind::Bbr, 1, 1.0, seed)
    }

    fn entry_for(seed: u64) -> (String, Scenario, TrialOutcome) {
        let s = tiny(seed);
        let r = s.run();
        let key = crate::engine::scenario_hash_hex(&s);
        (key, s, TrialOutcome::Ok(r))
    }

    #[test]
    fn entry_lines_round_trip_bit_exactly() {
        let (key, s, outcome) = entry_for(1);
        let entry = StoreEntry {
            key: key.clone(),
            scenario: s,
            outcome: StoreOutcome::Ok {
                events: Some(12345),
                result: outcome.ok().unwrap().clone(),
            },
        };
        let line = entry.to_json_line();
        let back = StoreEntry::from_json_line(&line).expect("line parses");
        assert_eq!(back.key, key);
        assert_eq!(back.to_json_line(), line, "round trip is bit-exact");
        let StoreOutcome::Ok { events, result } = &back.outcome else {
            panic!("ok entry");
        };
        assert_eq!(*events, Some(12345));
        assert_eq!(
            result.to_json_value().to_json(),
            outcome.ok().unwrap().to_json_value().to_json()
        );
    }

    #[test]
    fn failed_entry_lines_round_trip() {
        let entry = StoreEntry {
            key: format!("{:032x}", 7u128),
            scenario: tiny(7),
            outcome: StoreOutcome::Failed {
                error: "event budget exceeded".into(),
                context: "2 flows".into(),
                event_budget: Some(1000),
                wall_budget_ns: None,
            },
        };
        let line = entry.to_json_line();
        let back = StoreEntry::from_json_line(&line).expect("line parses");
        assert_eq!(back.to_json_line(), line);
        assert!(back.ok().is_none());
    }

    #[test]
    fn malformed_and_wrong_version_lines_are_misses() {
        assert!(StoreEntry::from_json_line("{torn").is_none());
        assert!(StoreEntry::from_json_line("not json").is_none());
        let (key, s, outcome) = entry_for(2);
        let entry = StoreEntry {
            key,
            scenario: s,
            outcome: StoreOutcome::Ok {
                events: None,
                result: outcome.ok().unwrap().clone(),
            },
        };
        let line = entry.to_json_line().replace("\"v\":1", "\"v\":999");
        assert!(StoreEntry::from_json_line(&line).is_none());
    }

    #[test]
    fn record_supersedes_failure_with_success_but_never_the_reverse() {
        let dir = temp_dir("supersede");
        let store = Store::open(&dir);
        let (key, s, ok) = entry_for(3);
        let failed = TrialOutcome::Failed(TrialFailure {
            index: 0,
            error: "event budget exceeded".into(),
            context: "ctx".into(),
        });
        store.record(&key, &s, &failed, None, Some(10), None);
        assert!(store.lookup(key_hash(&key).unwrap(), None).is_none());
        // Failure -> success upgrades.
        store.record(&key, &s, &ok, Some(42), None, None);
        let (_, events) = store
            .lookup(key_hash(&key).unwrap(), None)
            .expect("success served");
        assert_eq!(events, Some(42));
        // Success is immutable: a later failure cannot clobber it.
        store.record(&key, &s, &failed, None, Some(10), None);
        assert!(store.lookup(key_hash(&key).unwrap(), None).is_some());
        // Reopen sees the same state (last line wins).
        let reopened = Store::open(&dir);
        assert!(reopened.lookup(key_hash(&key).unwrap(), None).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_admission_mirrors_the_engine() {
        let dir = temp_dir("budget");
        let store = Store::open(&dir);
        let (key, s, ok) = entry_for(4);
        let hash = key_hash(&key).unwrap();
        store.record(&key, &s, &ok, Some(500), None, None);
        assert!(store.lookup(hash, None).is_some());
        assert!(store.lookup(hash, Some(500)).is_some());
        assert!(store.lookup(hash, Some(499)).is_none(), "over budget");
        // An entry with an unknown event count is never served under a
        // budget.
        let (key2, s2, ok2) = entry_for(5);
        store.record(&key2, &s2, &ok2, None, None, None);
        let hash2 = key_hash(&key2).unwrap();
        assert!(store.lookup(hash2, None).is_some());
        assert!(store.lookup(hash2, Some(u64::MAX)).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mix_and_goodput_helpers() {
        let s = Scenario::versus(50.0, 20.0, 2.0, 4, CcaKind::Bbr, 2, 1.0, 1);
        let entry = StoreEntry {
            key: format!("{:032x}", 1u128),
            scenario: s,
            outcome: StoreOutcome::Ok {
                events: None,
                result: TrialResult {
                    throughput_mbps: vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0],
                    cc_names: vec![
                        "cubic".into(),
                        "cubic".into(),
                        "cubic".into(),
                        "cubic".into(),
                        "bbr".into(),
                        "bbr".into(),
                    ],
                    avg_queue_occupancy_bytes: vec![0.0; 6],
                    backoff_times_secs: vec![Vec::new(); 6],
                    avg_queuing_delay_ms: 0.0,
                    utilization: 1.0,
                    dropped_packets: 0,
                    aqm_drops: 0,
                    completion_times_secs: vec![None; 6],
                    workload_spawned: 0,
                    workload_completed: 0,
                    workload_fct: Vec::new(),
                },
            },
        };
        assert_eq!(entry.mix(), "cubic:4+bbr:2");
        assert!(entry.mix_matches("cubic:4+bbr:2"));
        assert!(entry.mix_matches("bbr:2,cubic:4"), "order-insensitive");
        assert!(entry.mix_matches("bbr"), "bare name is a presence test");
        assert!(!entry.mix_matches("bbr:3+cubic:4"));
        assert!(!entry.mix_matches("cubic:4"), "exact specs match exactly");
        assert!(!entry.mix_matches("bbrv2"));
        let goodput = entry.goodput_by_cca();
        assert_eq!(goodput[0], ("cubic".to_string(), 2.5));
        assert_eq!(goodput[1], ("bbr".to_string(), 15.0));
    }

    #[test]
    fn append_open_truncates_partial_final_line() {
        let dir = temp_dir("tail");
        let path = dir.join("index.jsonl");

        std::fs::write(&path, "{\"a\":1}\n{\"b\":2}\n{\"partia").unwrap();
        drop(open_append(&path).unwrap());
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"a\":1}\n{\"b\":2}\n",
            "torn tail must be dropped, complete lines kept"
        );

        std::fs::write(&path, "{\"no-newline-at-al").unwrap();
        drop(open_append(&path).unwrap());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "");

        // A missing file (and missing parent dir) is created.
        let fresh = dir.join("sub/dir/new.jsonl");
        drop(open_append(&fresh).unwrap());
        assert!(fresh.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphan_sweep_spares_live_writers_and_entries() {
        let dir = temp_dir("orphans");
        // A published entry and the index itself are never candidates.
        std::fs::write(dir.join(format!("{:032x}.json", 9u128)), "{}").unwrap();
        std::fs::write(dir.join(INDEX_FILE), "").unwrap();
        // This process's own tmp (a writer mid-flight).
        let mine = dir.join(format!(".{:032x}.tmp.{}.0", 1u128, std::process::id()));
        std::fs::write(&mine, "x").unwrap();
        // A provably dead writer: spawn-and-reap a child for a pid that
        // is gone by the time we sweep.
        let dead_pid = {
            let mut child = std::process::Command::new("true")
                .spawn()
                .expect("spawn true");
            let pid = child.id();
            child.wait().expect("reap");
            pid
        };
        let dead = dir.join(format!(".{:032x}.tmp.{dead_pid}.3", 2u128));
        std::fs::write(&dead, "y").unwrap();
        // A fresh tmp with an unparsable pid: too young to age out.
        let young = dir.join(".cafe.tmp.notapid");
        std::fs::write(&young, "z").unwrap();

        let removed = clean_orphan_tmps(&dir);
        if cfg!(target_os = "linux") {
            assert_eq!(removed, 1);
            assert!(!dead.exists(), "dead writer's tmp is swept");
        }
        assert!(mine.exists(), "own tmp is never swept");
        assert!(young.exists(), "age fallback keeps fresh files");
        assert!(dir.join(format!("{:032x}.json", 9u128)).exists());
        assert!(dir.join(INDEX_FILE).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
