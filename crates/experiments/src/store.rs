//! The indexed result store: the result cache's one on-disk record.
//!
//! An append-only **index** (`<cache>/index.jsonl` plus an in-memory
//! map) maps a scenario's content hash to exactly what the read side
//! consumes — the scenario parameters (for `repro query`) and the
//! extracted [`TrialResult`] (per-CCA goodput, queuing delay, FCT
//! percentiles, backoff times), plus the recorded event count. A store hit short-circuits simulation with an
//! in-memory lookup, and `TrialResult`'s bit-exact JSON round-trip
//! guarantees store-served figures are byte-identical to freshly
//! simulated ones. [`StoreEntry::to_json_line`] writes a line and
//! [`StoreEntry::from_json_line`] is its one parser.
//!
//! The store is also what makes sweeps resumable: the batch executor
//! records every finished trial here in index order, so rerunning an
//! interrupted sweep against the same cache serves each recorded trial
//! without simulating it.
//!
//! Disciplines:
//!
//! * **single writer** — only the batch executor's single-writer thread
//!   appends (`Store::record`), in strict scenario-index order, so a
//!   pooled sweep produces a byte-identical index to a serial run. The
//!   price of the order: a crash loses the trials that finished past
//!   the first unfinished one, and the rerun simulates them again;
//! * **hostile-byte tolerance** — loading skips every line that is
//!   torn, malformed, not UTF-8 or of another format version as a miss,
//!   and keeps every other line; the next append-mode open truncates a
//!   torn tail to the last complete line;
//! * **one copy per result** — [`Store::open`] reads the index a line at
//!   a time through one reused buffer, never the whole file, and each
//!   entry's [`TrialResult`] sits behind an `Arc` that a hit
//!   ([`Store::lookup`]) and a record (`Store::record`) share with the
//!   engine's memo and its outcomes instead of copying.
//!
//! Files of other layouts in the cache directory (per-cell
//! `<hash>.json` entries, `*.tmp.*` files) are neither read nor
//! deleted.

use crate::runner::TrialOutcome;
use crate::scenario::{Scenario, TrialResult};
use bbrdom_netsim::json::{self, Value};
use std::collections::HashMap;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Bumped whenever the index line layout changes; lines with another
/// version are skipped on load.
pub const INDEX_FORMAT_VERSION: u32 = 1;

/// Index file name inside the cache directory.
pub const INDEX_FILE: &str = "index.jsonl";

/// How one indexed trial ended.
#[derive(Debug, Clone)]
pub enum StoreOutcome {
    /// The trial succeeded: the extracted metrics, plus the simulator
    /// event count when known (entries written by older builds may lack
    /// it).
    Ok {
        events: Option<u64>,
        result: Arc<TrialResult>,
    },
    /// The trial failed (invalid config, audit violation, panic). Kept
    /// for `repro query --failed` sweep planning; never served as a
    /// result — failures are always re-run, exactly like the engine's
    /// cache policy. A line written when sweeps had event and wall-clock
    /// budgets also carries them; they are skipped on read.
    Failed { error: String, context: String },
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
            StoreOutcome::Failed { error, context } => {
                v.set("ok", false.into())
                    .set("error", Value::Str(error.clone()))
                    .set("context", Value::Str(context.clone()));
            }
        }
        v.to_json()
    }

    /// Parse one index line; `None` for anything torn, malformed, or of
    /// another format version — the caller treats it as a miss. The line
    /// is read field by field off one [`json::Reader`], with no
    /// [`Value`] tree in between; as with [`json::parse`], a repeated key's
    /// last value wins and unknown keys are ignored.
    pub fn from_json_line(line: &str) -> Option<StoreEntry> {
        let (mut version, mut key, mut scenario, mut ok) = (None, None, None, None);
        let (mut events, mut result, mut error, mut context) = (None, None, None, None);
        json::Reader::document(line, |r| {
            r.object(|r, k| {
                match k {
                    "v" => version = r.u64()?,
                    "key" => key = Some(r.str()?),
                    "scenario" => scenario = Some(Scenario::read(r)?),
                    "ok" => ok = Some(r.bool()?),
                    "events" => events = r.u64()?,
                    "result" => result = Some(TrialResult::read(r)?),
                    "error" => error = Some(r.str()?),
                    "context" => context = r.str()?,
                    _ => r.skip()?,
                }
                Ok(())
            })
        })
        .ok()?;
        if version != Some(INDEX_FORMAT_VERSION as u64) {
            return None;
        }
        let key = key??.into_owned();
        key_hash(&key)?;
        let scenario = scenario?.ok()?;
        let outcome = match ok?? {
            true => StoreOutcome::Ok {
                events,
                result: Arc::new(result?.ok()?),
            },
            false => StoreOutcome::Failed {
                error: error??.into_owned(),
                context: context.unwrap_or_default().into_owned(),
            },
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

/// Capacity of the buffer [`Store::open`] reads the index through; a
/// longer line is gathered across refills.
const OPEN_BUFFER: usize = 64 * 1024;

/// Index statistics for `repro cache stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheDirStats {
    /// Index entries with a successful result.
    pub index_ok: usize,
    /// Index entries recording a structured failure.
    pub index_failed: usize,
    /// Bytes of the index file.
    pub index_bytes: u64,
}

/// The indexed result store for one cache directory. See the module
/// docs for the write/repair disciplines.
pub struct Store {
    index_path: PathBuf,
    map: Mutex<HashMap<u128, Arc<StoreEntry>>>,
    writer: Mutex<Option<std::fs::File>>,
}

impl Store {
    /// Open (or lazily create) the store for a cache directory: load
    /// every well-formed index line. Torn, malformed and non-UTF-8 lines,
    /// and lines keyed under an older `CACHE_FORMAT_VERSION`, are skipped,
    /// each on its own, and for a duplicated key the last
    /// line wins (appends supersede). The file is streamed, so the open
    /// holds one line at a time, not the index.
    pub fn open(dir: &Path) -> Store {
        let index_path = dir.join(INDEX_FILE);
        let map = match std::fs::File::open(&index_path) {
            Ok(file) => read_index(std::io::BufReader::with_capacity(OPEN_BUFFER, file)),
            Err(_) => HashMap::new(),
        };
        Store {
            index_path,
            map: Mutex::new(map),
            writer: Mutex::new(None),
        }
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.map.lock().expect("store map lock").len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The full entry for a content hash, if indexed.
    pub fn get(&self, hash: u128) -> Option<Arc<StoreEntry>> {
        self.map.lock().expect("store map lock").get(&hash).cloned()
    }

    /// Serve a successful result for a content hash, if the index holds
    /// one. Returns the result and the recorded event count.
    pub fn lookup(&self, hash: u128) -> Option<(Arc<TrialResult>, Option<u64>)> {
        let map = self.map.lock().expect("store map lock");
        let StoreOutcome::Ok { events, result } = &map.get(&hash)?.outcome else {
            return None;
        };
        Some((Arc::clone(result), *events))
    }

    /// All entries, sorted by key — the deterministic order `repro
    /// query` renders.
    pub fn entries(&self) -> Vec<Arc<StoreEntry>> {
        let mut all: Vec<Arc<StoreEntry>> = self
            .map
            .lock()
            .expect("store map lock")
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
    /// superseded by a later success (e.g. after a fix); repeated
    /// failures are not re-appended. I/O errors are swallowed — the
    /// index is an accelerator, not a store of record.
    pub(crate) fn record(
        &self,
        hash: u128,
        scenario: &Scenario,
        outcome: &TrialOutcome,
        events: Option<u64>,
    ) {
        let mut map = self.map.lock().expect("store map lock");
        match (map.get(&hash).map(|e| &e.outcome), outcome) {
            (Some(StoreOutcome::Ok { .. }), _) => return,
            (Some(StoreOutcome::Failed { .. }), TrialOutcome::Failed(_)) => return,
            _ => {}
        }
        let entry = StoreEntry {
            key: format!("{hash:032x}"),
            scenario: scenario.clone(),
            outcome: match outcome {
                TrialOutcome::Ok(r) => StoreOutcome::Ok {
                    events,
                    result: Arc::clone(r),
                },
                TrialOutcome::Failed(f) => StoreOutcome::Failed {
                    error: f.error.clone(),
                    context: f.context.clone(),
                },
            },
        };
        let mut writer = self.writer.lock().expect("store writer lock");
        if writer.is_none() {
            *writer = open_append(&self.index_path).ok();
        }
        if let Some(file) = writer.as_mut() {
            if append_line(file, entry.to_json_line()).is_ok() {
                map.insert(hash, Arc::new(entry));
            }
        }
    }

    /// Index statistics for `repro cache stats`; an error when `dir`
    /// itself cannot be read.
    pub fn cache_stats(dir: &Path) -> std::io::Result<CacheDirStats> {
        std::fs::metadata(dir)?;
        let store = Store::open(dir);
        let mut stats = CacheDirStats {
            index_bytes: std::fs::metadata(&store.index_path).map_or(0, |m| m.len()),
            ..CacheDirStats::default()
        };
        for e in store.map.lock().expect("store map lock").values() {
            match e.outcome {
                StoreOutcome::Ok { .. } => stats.index_ok += 1,
                StoreOutcome::Failed { .. } => stats.index_failed += 1,
            }
        }
        Ok(stats)
    }
}

/// Load index lines from `reader` into a map by content hash, one line
/// at a time through one reused buffer. A line ends at its `\n` (the
/// final one may lack it); a line that does not read, or whose key is
/// not its scenario's hash, is skipped, and an I/O error ends the load
/// with the lines before it kept.
fn read_index(mut reader: impl BufRead) -> HashMap<u128, Arc<StoreEntry>> {
    let mut map = HashMap::new();
    let mut line = Vec::new();
    loop {
        line.clear();
        match reader.read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => return map,
            Ok(_) => {}
        }
        let text = line.strip_suffix(b"\n").unwrap_or(&line);
        let Some(entry) = std::str::from_utf8(text)
            .ok()
            .and_then(StoreEntry::from_json_line)
        else {
            continue;
        };
        // A key that is not its scenario's hash (one written under an
        // older `CACHE_FORMAT_VERSION`) is one no lookup asks for.
        let hash = crate::engine::scenario_hash(&entry.scenario);
        if entry.key == format!("{hash:032x}") {
            map.insert(hash, Arc::new(entry));
        }
    }
}

/// Append `line` and its newline with one `write_all`, so the two never
/// reach the file in separate writes: a kill between them would leave a
/// complete record without its newline, which the next
/// [`repair_tail`] drops.
fn append_line(out: &mut impl std::io::Write, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    out.write_all(line.as_bytes())?;
    out.flush()
}

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
        (key, s, TrialOutcome::Ok(Arc::new(r)))
    }

    #[test]
    fn entry_lines_round_trip_bit_exactly() {
        let (key, s, outcome) = entry_for(1);
        let entry = StoreEntry {
            key: key.clone(),
            scenario: s,
            outcome: StoreOutcome::Ok {
                events: Some(12345),
                result: Arc::new(outcome.ok().unwrap().clone()),
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
                error: "audit failure".into(),
                context: "2 flows".into(),
            },
        };
        let line = entry.to_json_line();
        let back = StoreEntry::from_json_line(&line).expect("line parses");
        assert_eq!(back.to_json_line(), line);
        assert!(back.ok().is_none());
    }

    /// A failure line written when sweeps had event and wall-clock
    /// budgets still loads: the two budget members are skipped, and the
    /// line rewrites without them.
    #[test]
    fn a_failure_line_with_budgets_loads_without_them() {
        let line = r#"{"context":"2 flows, 10 Mbps, buffer 2 BDP, 1 s, seed 7","error":"event budget exceeded after 1000 events at t=0.353595s","event_budget":1000,"key":"c7b1b2d8ef44361280e460dcd1fa61c6","ok":false,"scenario":{"buffer_bdp":2.0,"discipline":"droptail","duration_secs":1.0,"flows":[{"byte_limit":null,"cca":"cubic","rtt_ms":20.0,"start_s":0.0},{"byte_limit":null,"cca":"bbr","rtt_ms":20.0,"start_s":0.0}],"mbps":10.0,"reference_rtt_ms":20.0,"seed":7},"v":1,"wall_budget_ns":5000000000}"#;
        let entry = StoreEntry::from_json_line(line).expect("line parses");
        assert_eq!(entry.key, crate::engine::scenario_hash_hex(&tiny(7)));
        let StoreOutcome::Failed { error, context } = &entry.outcome else {
            panic!("a failure line loads as a failure");
        };
        assert_eq!(
            error,
            "event budget exceeded after 1000 events at t=0.353595s"
        );
        assert_eq!(context, "2 flows, 10 Mbps, buffer 2 BDP, 1 s, seed 7");
        let rewritten = r#"{"context":"2 flows, 10 Mbps, buffer 2 BDP, 1 s, seed 7","error":"event budget exceeded after 1000 events at t=0.353595s","key":"c7b1b2d8ef44361280e460dcd1fa61c6","ok":false,"scenario":{"buffer_bdp":2.0,"discipline":"droptail","duration_secs":1.0,"flows":[{"byte_limit":null,"cca":"cubic","rtt_ms":20.0,"start_s":0.0},{"byte_limit":null,"cca":"bbr","rtt_ms":20.0,"start_s":0.0}],"mbps":10.0,"reference_rtt_ms":20.0,"seed":7},"v":1}"#;
        assert_eq!(entry.to_json_line(), rewritten);
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
                result: Arc::new(outcome.ok().unwrap().clone()),
            },
        };
        let line = entry.to_json_line().replace("\"v\":1", "\"v\":999");
        assert!(StoreEntry::from_json_line(&line).is_none());
    }

    /// Draws `TrialResult`s whose floats are the ones a JSON round-trip
    /// is most likely to get wrong — ±0, subnormals, extreme exponents,
    /// integral values — or any finite bit pattern, with empty vectors,
    /// `None` completion times and workload FCTs present and absent.
    struct AnyResult;

    fn any_finite(rng: &mut rand::rngs::StdRng) -> f64 {
        use rand::{Rng, RngCore};
        const EDGES: [f64; 11] = [
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            2.225_073_858_507_201e-308,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            1e22,
            -3.0,
            0.1,
        ];
        if rng.gen_bool(0.5) {
            return EDGES[rng.gen_range(0..EDGES.len())];
        }
        loop {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                return x;
            }
        }
    }

    impl proptest::Strategy for AnyResult {
        type Value = TrialResult;

        fn sample(&self, rng: &mut rand::rngs::StdRng) -> TrialResult {
            use rand::{Rng, RngCore};
            const NAMES: [&str; 3] = ["cubic", "bbr", "q\"uo\\te\u{e9}\n"];
            let flows = rng.gen_range(0..5usize);
            let floats = |rng: &mut rand::rngs::StdRng, n: usize| -> Vec<f64> {
                (0..n).map(|_| any_finite(rng)).collect()
            };
            let (spawned, completed, fct) = if rng.gen_bool(0.5) {
                let spawned = rng.gen_range(1..1_000u64);
                let fct = (0..rng.gen_range(0..3usize))
                    .map(|_| bbrdom_netsim::FctPercentiles {
                        cc_name: NAMES[rng.gen_range(0..NAMES.len())].to_string(),
                        count: rng.next_u64(),
                        p50_secs: any_finite(rng),
                        p95_secs: any_finite(rng),
                        p99_secs: any_finite(rng),
                    })
                    .collect();
                (spawned, rng.gen_range(0..spawned + 1), fct)
            } else {
                (0, 0, Vec::new())
            };
            TrialResult {
                throughput_mbps: floats(rng, flows),
                cc_names: (0..flows)
                    .map(|_| NAMES[rng.gen_range(0..NAMES.len())].to_string())
                    .collect(),
                avg_queue_occupancy_bytes: floats(rng, flows),
                backoff_times_secs: (0..flows)
                    .map(|_| {
                        let n = rng.gen_range(0..4usize);
                        floats(rng, n)
                    })
                    .collect(),
                avg_queuing_delay_ms: any_finite(rng),
                utilization: any_finite(rng),
                dropped_packets: rng.next_u64(),
                aqm_drops: rng.next_u64(),
                completion_times_secs: (0..flows)
                    .map(|_| rng.gen_bool(0.6).then(|| any_finite(rng)))
                    .collect(),
                workload_spawned: spawned,
                workload_completed: completed,
                workload_fct: fct,
            }
        }
    }

    /// Every float of a result, in a fixed order.
    fn float_slots(r: &mut TrialResult) -> Vec<&mut f64> {
        let mut slots: Vec<&mut f64> = Vec::new();
        slots.extend(r.throughput_mbps.iter_mut());
        slots.extend(r.avg_queue_occupancy_bytes.iter_mut());
        slots.extend(r.backoff_times_secs.iter_mut().flatten());
        slots.push(&mut r.avg_queuing_delay_ms);
        slots.push(&mut r.utilization);
        slots.extend(r.completion_times_secs.iter_mut().flatten());
        for p in &mut r.workload_fct {
            slots.extend([&mut p.p50_secs, &mut p.p95_secs, &mut p.p99_secs]);
        }
        slots
    }

    fn float_bits(r: &TrialResult) -> Vec<u64> {
        float_slots(&mut r.clone())
            .into_iter()
            .map(|x| x.to_bits())
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Hostile bytes spliced anywhere into an index never panic the
        /// loader, and every line they leave intact still loads.
        #[test]
        fn an_index_with_spliced_bytes_loads_every_intact_line(
            at in 0.0f64..1.0,
            junk in proptest::prelude::prop::collection::vec(0u8..=255, 1..8),
        ) {
            let lines = synthetic_lines();
            let mut index = lines.join("\n").into_bytes();
            index.push(b'\n');
            let at = (at * index.len() as f64) as usize;
            let end = (at + junk.len()).min(index.len());
            index.splice(at..end, junk);
            let loaded = loaded("spliced", &index, &lines);
            for (line, loaded) in lines.iter().zip(loaded) {
                let intact = index.split(|&b| b == b'\n').any(|l| l == line.as_bytes());
                proptest::prop_assert!(loaded || !intact, "intact line not loaded: {line}");
            }
        }

        /// The record format round-trips: a cell's line reads back to the
        /// same bytes, a success with bitwise-equal floats, a failure
        /// with the same message and context.
        #[test]
        fn results_round_trip_through_the_record_format(
            result in AnyResult,
            events in (0u32..=u32::MAX, 0u32..=u32::MAX),
            failed in 0u8..4,
        ) {
            let scenario = tiny(1);
            let events = u64::from(events.0) << 32 | u64::from(events.1);
            let outcome = match failed {
                0 => StoreOutcome::Failed {
                    error: result.cc_names.join("\n"),
                    context: format!("{events}"),
                },
                _ => StoreOutcome::Ok {
                    events: (failed > 1).then_some(events),
                    result: Arc::new(result.clone()),
                },
            };
            let entry = StoreEntry {
                key: crate::engine::scenario_hash_hex(&scenario),
                scenario,
                outcome,
            };
            let line = entry.to_json_line();
            let back = StoreEntry::from_json_line(&line).expect("index line parses");
            proptest::prop_assert_eq!(back.to_json_line(), line);
            match (back.outcome, entry.outcome) {
                (
                    StoreOutcome::Ok { events: back_events, result: back },
                    StoreOutcome::Ok { events, .. },
                ) => {
                    proptest::prop_assert_eq!(back_events, events);
                    proptest::prop_assert_eq!(float_bits(&back), float_bits(&result));
                }
                (back, want) => proptest::prop_assert_eq!(format!("{back:?}"), format!("{want:?}")),
            }
        }

        /// A flipped byte or a spliced run of arbitrary bytes anywhere in
        /// either line shape never panics the reader, and every corrupted
        /// line `json::parse` rejects is a miss.
        #[test]
        fn corrupted_lines_never_panic_and_malformed_ones_are_misses(
            shape in 0usize..2,
            at in 0.0f64..1.0,
            flip in 1u8..=255,
            splice in proptest::prelude::prop::bool::weighted(0.5),
            junk in proptest::prelude::prop::collection::vec(0u8..=255, 0..8),
            cut in 0usize..8,
        ) {
            let mut bytes = line_shapes()[shape].clone().into_bytes();
            let at = (at * bytes.len() as f64) as usize;
            if splice {
                let end = (at + cut).min(bytes.len());
                bytes.splice(at..end, junk);
            } else {
                bytes[at] ^= flip;
            }
            let text = String::from_utf8_lossy(&bytes);
            let read = StoreEntry::from_json_line(&text);
            if json::parse(&text).is_err() {
                proptest::prop_assert!(read.is_none(), "{}", text);
            }
        }

        /// A non-finite float anywhere in a result makes its index line a
        /// miss, never a different value (JSON has no NaN or infinity).
        #[test]
        fn a_non_finite_float_is_a_miss(
            result in AnyResult,
            slot in 0.0f64..1.0,
            which in 0usize..3,
        ) {
            let mut result = result;
            let mut slots = float_slots(&mut result);
            let at = (slot * slots.len() as f64) as usize;
            if let Some(x) = slots.get_mut(at) {
                **x = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][which];
                let scenario = tiny(1);
                let line = StoreEntry {
                    key: crate::engine::scenario_hash_hex(&scenario),
                    scenario,
                    outcome: StoreOutcome::Ok {
                        events: Some(1),
                        result: Arc::new(result.clone()),
                    },
                }
                .to_json_line();
                proptest::prop_assert!(StoreEntry::from_json_line(&line).is_none(), "{line}");
            }
        }
    }

    /// The two line shapes an index holds at the paper's scale: an n = 50
    /// fluid cell (fifty long backoff lists) and a DES cell with faults,
    /// a workload and a topology (its result made up, not simulated).
    fn line_shapes() -> &'static [String; 2] {
        static SHAPES: std::sync::OnceLock<[String; 2]> = std::sync::OnceLock::new();
        SHAPES.get_or_init(|| {
            use crate::scenario::{BackendSpec, FaultSpec, TopologySpec, WorkloadSpec};
            let fluid = Scenario::versus(50.0, 20.0, 0.5, 25, CcaKind::Bbr, 25, 3.0, 7)
                .with_backend(BackendSpec::Fluid);
            let result = fluid.run();
            let cubic = &result.backoff_times_secs[..25];
            assert!(cubic.iter().all(|b| b.len() > 40), "long backoff lists");
            let fluid = StoreEntry {
                key: crate::engine::scenario_hash_hex(&fluid),
                scenario: fluid,
                outcome: StoreOutcome::Ok {
                    events: Some(9_000),
                    result: Arc::new(result),
                },
            };
            let mut topology = TopologySpec::parking_lot(2, 40.0, 2.0, 2.0);
            topology.flow_routes = vec![0, 0, 1];
            topology.fault_link = Some(1);
            let des = Scenario::versus(40.0, 40.0, 2.0, 2, CcaKind::Bbr, 1, 5.0, 3)
                .with_faults(FaultSpec {
                    loss_fwd: 0.01,
                    loss_ack: 0.002,
                    outages: vec![(2.0, 0.5)],
                    rate_steps: vec![(1.0, 5.0), (3.0, 10.0)],
                    delay_spikes: vec![(4.0, 0.25, 40.0)],
                })
                .with_workload(Some(WorkloadSpec::web(CcaKind::Cubic, 80.0, 30.0)))
                .with_topology(Some(topology));
            let des = StoreEntry {
                key: crate::engine::scenario_hash_hex(&des),
                scenario: des,
                outcome: StoreOutcome::Ok {
                    events: Some(123_456),
                    result: Arc::new(TrialResult {
                        throughput_mbps: vec![11.5, 9.25, 14.0],
                        cc_names: vec!["cubic".into(), "cubic".into(), "bbr".into()],
                        avg_queue_occupancy_bytes: vec![1e4, 0.0, 5e-324],
                        backoff_times_secs: vec![vec![0.1, 0.25], Vec::new(), vec![1.5]],
                        avg_queuing_delay_ms: 2.5,
                        utilization: 0.93,
                        dropped_packets: 17,
                        aqm_drops: 0,
                        completion_times_secs: vec![Some(1.25), None, None],
                        workload_spawned: 40,
                        workload_completed: 31,
                        workload_fct: vec![bbrdom_netsim::FctPercentiles {
                            cc_name: "cubic".into(),
                            count: 31,
                            p50_secs: 0.125,
                            p95_secs: 0.5,
                            p99_secs: 0.875,
                        }],
                    }),
                },
            };
            [fluid.to_json_line(), des.to_json_line()]
        })
    }

    /// A torn append leaves a strict prefix of a line: every one of them,
    /// in either line shape, is a miss that `json::parse` rejects too.
    #[test]
    fn every_strict_prefix_of_a_line_is_a_miss() {
        for line in line_shapes() {
            let entry = StoreEntry::from_json_line(line).expect("the whole line reads");
            assert_eq!(entry.to_json_line(), *line);
            for end in (0..line.len()).filter(|&i| line.is_char_boundary(i)) {
                let prefix = &line[..end];
                assert!(json::parse(prefix).is_err(), "prefix of {end} bytes parses");
                assert!(
                    StoreEntry::from_json_line(prefix).is_none(),
                    "prefix of {end} bytes reads"
                );
            }
        }
    }

    #[test]
    fn record_supersedes_failure_with_success_but_never_the_reverse() {
        let dir = temp_dir("supersede");
        let store = Store::open(&dir);
        let (_, s, ok) = entry_for(3);
        let hash = crate::engine::scenario_hash(&s);
        let failed = TrialOutcome::Failed(TrialFailure {
            index: 0,
            error: "audit failure".into(),
            context: "ctx".into(),
        });
        store.record(hash, &s, &failed, None);
        assert!(store.lookup(hash).is_none());
        // Failure -> success upgrades.
        store.record(hash, &s, &ok, Some(42));
        let (_, events) = store.lookup(hash).expect("success served");
        assert_eq!(events, Some(42));
        // Success is immutable: a later failure cannot clobber it.
        store.record(hash, &s, &failed, None);
        assert!(store.lookup(hash).is_some());
        // Reopen sees the same state (last line wins).
        let reopened = Store::open(&dir);
        assert!(reopened.lookup(hash).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A line and its newline reach the file in one write.
    #[test]
    fn a_line_is_appended_in_one_write() {
        struct Writes(Vec<Vec<u8>>);
        impl std::io::Write for Writes {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut out = Writes(Vec::new());
        append_line(&mut out, "{\"v\":1}".to_string()).unwrap();
        assert_eq!(out.0, [b"{\"v\":1}\n".to_vec()]);
    }

    #[test]
    fn mix_and_goodput_helpers() {
        let s = Scenario::versus(50.0, 20.0, 2.0, 4, CcaKind::Bbr, 2, 1.0, 1);
        let entry = StoreEntry {
            key: format!("{:032x}", 1u128),
            scenario: s,
            outcome: StoreOutcome::Ok {
                events: None,
                result: Arc::new(TrialResult {
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
                }),
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

    /// Four index lines with distinct keys, built without simulating.
    fn synthetic_lines() -> Vec<String> {
        (0..4)
            .map(|seed| {
                let scenario = tiny(seed);
                StoreEntry {
                    key: crate::engine::scenario_hash_hex(&scenario),
                    outcome: StoreOutcome::Ok {
                        events: Some(seed),
                        result: Arc::new(TrialResult {
                            throughput_mbps: vec![seed as f64 + 0.5],
                            cc_names: vec!["bbr".into()],
                            avg_queue_occupancy_bytes: vec![1.0],
                            backoff_times_secs: vec![Vec::new()],
                            avg_queuing_delay_ms: 2.0,
                            utilization: 0.9,
                            dropped_packets: 3,
                            aqm_drops: 0,
                            completion_times_secs: vec![None],
                            workload_spawned: 0,
                            workload_completed: 0,
                            workload_fct: Vec::new(),
                        }),
                    },
                    scenario,
                }
                .to_json_line()
            })
            .collect()
    }

    /// Which of `lines` a store opened over `index` bytes loads, each
    /// checked against its exact bytes.
    fn loaded(name: &str, index: &[u8], lines: &[String]) -> Vec<bool> {
        let dir = temp_dir(name);
        std::fs::write(dir.join(INDEX_FILE), index).unwrap();
        let store = Store::open(&dir);
        lines
            .iter()
            .map(|line| {
                let key = StoreEntry::from_json_line(line).unwrap().key;
                store
                    .get(key_hash(&key).unwrap())
                    .is_some_and(|e| e.to_json_line() == *line)
            })
            .collect()
    }

    /// One line that is not UTF-8 is a miss on its own: every other
    /// line still loads.
    #[test]
    fn a_non_utf8_line_does_not_hide_the_others() {
        let lines = synthetic_lines();
        let mut index = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            index.extend_from_slice(line.as_bytes());
            index.push(b'\n');
            if i == 1 {
                index.extend_from_slice(b"{\"v\":1,\"key\":\"\xFF\"}\n");
            }
        }
        assert_eq!(loaded("non-utf8", &index, &lines), [true; 4]);
    }

    /// An index line written by the deleted `--early-stop` option, as
    /// `repro 9 --smoke --early-stop` wrote it: this all-BBR cell stopped
    /// after 55,302 of its 89,350 fixed-horizon events, so its numbers
    /// are not those of its `duration_secs`. It is a miss, and the lines
    /// around it still load.
    #[test]
    fn an_early_stopped_line_is_a_miss() {
        const EARLY_STOPPED: &str = r#"{"events":55302,"key":"a7db9540762b16bba45cb9ab8a3db80a","ok":true,"result":{"aqm_drops":0,"avg_queue_occupancy_bytes":[53971.11808380093,24159.21206790481,57428.100682203345,40574.14529820134,47720.15601330073,43241.942596801026],"avg_queuing_delay_ms":42.73514795875128,"backoff_times_secs":[[],[],[],[],[],[]],"cc_names":["bbr","bbr","bbr","bbr","bbr","bbr"],"completion_times_secs":[null,null,null,null,null,null],"dropped_packets":0,"throughput_mbps":[9.6168,5.28,10.5672,8.1,8.3904,7.872],"utilization":0.996528},"scenario":{"buffer_bdp":17.0,"discipline":"droptail","duration_secs":8.0,"early_stop":{"dwell":3,"epsilon":0.05,"min_secs":3.0,"window_secs":1.0},"flows":[{"byte_limit":null,"cca":"bbr","rtt_ms":20.0,"start_s":0.0},{"byte_limit":null,"cca":"bbr","rtt_ms":20.0,"start_s":0.0},{"byte_limit":null,"cca":"bbr","rtt_ms":20.0,"start_s":0.0},{"byte_limit":null,"cca":"bbr","rtt_ms":20.0,"start_s":0.0},{"byte_limit":null,"cca":"bbr","rtt_ms":20.0,"start_s":0.0},{"byte_limit":null,"cca":"bbr","rtt_ms":20.0,"start_s":0.0}],"mbps":50.0,"reference_rtt_ms":20.0,"seed":634077},"v":1}"#;
        assert!(StoreEntry::from_json_line(EARLY_STOPPED).is_none());
        let stripped = EARLY_STOPPED.replace(
            r#""early_stop":{"dwell":3,"epsilon":0.05,"min_secs":3.0,"window_secs":1.0},"#,
            "",
        );
        assert!(
            StoreEntry::from_json_line(&stripped).is_some(),
            "the early_stop member alone makes the line a miss"
        );
        let lines = synthetic_lines();
        let mut index = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            index.extend_from_slice(line.as_bytes());
            index.push(b'\n');
            if i == 1 {
                index.extend_from_slice(EARLY_STOPPED.as_bytes());
                index.push(b'\n');
            }
        }
        assert_eq!(loaded("early-stopped", &index, &lines), [true; 4]);
    }

    /// What the whole-file loader that streaming replaced made of
    /// `index`: every `\n`-separated piece that reads, the last line of a
    /// repeated key winning, as lines sorted by key.
    fn whole_file_entries(index: &[u8]) -> Vec<String> {
        let mut by_key = std::collections::BTreeMap::new();
        for piece in index.split(|&b| b == b'\n') {
            if let Some(e) = std::str::from_utf8(piece)
                .ok()
                .and_then(StoreEntry::from_json_line)
                .filter(|e| e.key == crate::engine::scenario_hash_hex(&e.scenario))
            {
                by_key.insert(e.key.clone(), e.to_json_line());
            }
        }
        by_key.into_values().collect()
    }

    fn lines_of(map: &HashMap<u128, Arc<StoreEntry>>) -> Vec<String> {
        let mut entries: Vec<&Arc<StoreEntry>> = map.values().collect();
        entries.sort_by(|a, b| a.key.cmp(&b.key));
        entries.iter().map(|e| e.to_json_line()).collect()
    }

    /// A result whose line is longer than [`OPEN_BUFFER`].
    fn long_line() -> String {
        let scenario = tiny(99);
        let backoffs: Vec<f64> = (0..OPEN_BUFFER / 8).map(|i| i as f64 / 7.0).collect();
        let line = StoreEntry {
            key: crate::engine::scenario_hash_hex(&scenario),
            outcome: StoreOutcome::Ok {
                events: Some(1),
                result: Arc::new(TrialResult {
                    throughput_mbps: vec![1.5],
                    cc_names: vec!["bbr".into()],
                    avg_queue_occupancy_bytes: vec![1.0],
                    backoff_times_secs: vec![backoffs],
                    avg_queuing_delay_ms: 2.0,
                    utilization: 0.9,
                    dropped_packets: 3,
                    aqm_drops: 0,
                    completion_times_secs: vec![None],
                    workload_spawned: 0,
                    workload_completed: 0,
                    workload_fct: Vec::new(),
                }),
            },
            scenario,
        }
        .to_json_line();
        assert!(line.len() > 2 * OPEN_BUFFER);
        line
    }

    /// The streamed open reads what a whole-file split read: a line
    /// longer than the read buffer, empty lines, a non-UTF-8 line between
    /// valid ones, a CRLF line, a malformed line, a repeated key and a
    /// final line without a newline.
    #[test]
    fn the_streamed_open_reads_what_a_whole_file_split_read() {
        let lines = synthetic_lines();
        let mut superseded = StoreEntry::from_json_line(&lines[0]).unwrap();
        superseded.outcome = StoreOutcome::Failed {
            error: "audit failure".into(),
            context: "ctx".into(),
        };
        let mut index = Vec::new();
        for piece in [
            superseded.to_json_line().as_bytes(),
            b"\n\n",
            long_line().as_bytes(),
            b"\n",
            lines[0].as_bytes(),
            b"\n{\"v\":1,\"key\":\"\xFF\"}\n",
            lines[1].as_bytes(),
            b"\r\n{\"v\":1,\"key\":\n\n",
            lines[2].as_bytes(),
            b"\n",
            lines[3].as_bytes(),
        ] {
            index.extend_from_slice(piece);
        }
        let want = whole_file_entries(&index);
        assert_eq!(want.len(), 5, "every well-formed key reads");
        let dir = temp_dir("streamed");
        std::fs::write(dir.join(INDEX_FILE), &index).unwrap();
        let store = Store::open(&dir);
        let got: Vec<String> = store.entries().iter().map(|e| e.to_json_line()).collect();
        assert_eq!(got, want);
        assert!(got.contains(&lines[0]), "the last line of a key wins");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A reader that hands out `data` up to `fail_at`, then fails.
    struct FailsAt {
        data: Vec<u8>,
        pos: usize,
        fail_at: usize,
    }

    impl std::io::Read for FailsAt {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos == self.fail_at {
                return Err(std::io::Error::other("device error"));
            }
            let n = buf.len().min(self.fail_at - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// An I/O error partway through the index keeps every line read
    /// before it and drops the line it cut.
    #[test]
    fn an_io_error_keeps_the_lines_before_it() {
        let lines = synthetic_lines();
        let index = (lines.join("\n") + "\n").into_bytes();
        for fail_at in 0..=index.len() {
            let reader = std::io::BufReader::with_capacity(
                16,
                FailsAt {
                    data: index.clone(),
                    pos: 0,
                    fail_at,
                },
            );
            let whole = index[..fail_at].iter().rposition(|&b| b == b'\n');
            let want = whole_file_entries(&index[..whole.map_or(0, |p| p + 1)]);
            assert_eq!(lines_of(&read_index(reader)), want, "failing at {fail_at}");
        }
    }

    /// Lists read off an index line are allocated at their exact length:
    /// the store keeps them for the life of the process.
    #[test]
    fn lists_read_from_a_fluid_line_have_no_slack() {
        let entry = StoreEntry::from_json_line(&line_shapes()[0]).unwrap();
        let flows = &entry.scenario.flows;
        assert_eq!(flows.len(), 50);
        assert_eq!(flows.capacity(), flows.len());
        let r = entry.ok().unwrap();
        for (len, capacity) in [
            (r.throughput_mbps.len(), r.throughput_mbps.capacity()),
            (r.cc_names.len(), r.cc_names.capacity()),
            (
                r.avg_queue_occupancy_bytes.len(),
                r.avg_queue_occupancy_bytes.capacity(),
            ),
            (r.backoff_times_secs.len(), r.backoff_times_secs.capacity()),
            (
                r.completion_times_secs.len(),
                r.completion_times_secs.capacity(),
            ),
        ] {
            assert_eq!((len, capacity), (50, 50));
        }
        for backoffs in &r.backoff_times_secs {
            assert_eq!(backoffs.capacity(), backoffs.len());
        }
        for name in &r.cc_names {
            assert_eq!(name.capacity(), name.len());
        }
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
}
