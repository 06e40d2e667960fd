//! The NE-figure pipeline, driven two ways.
//!
//! [`engine_pass`] is what a user runs: rows through
//! `payoff::measure_payoffs_at_on` on a private `Engine` with a disk
//! cache and the result store on (the `repro --jobs 1` defaults), the
//! NE from `PayoffMeasurement::observed_ne_cubic_counts`, the Eq. 25
//! band from `NashPredictor::ne_band`, and a CSV. [`mirror_cold`],
//! [`mirror_warm`] and [`mirror_parse`] repeat the engine's per-cell
//! steps through each layer's public functions inside trace spans, so
//! the trace splits the same work by layer without instrumenting the
//! program. The output checks compare the two.

use crate::trace::Tracer;
use crate::workloads::{figure_rows, Row};
use bbrdom_cca::CcaKind;
use bbrdom_core::model::multi_flow::SyncMode;
use bbrdom_core::model::nash::NashPredictor;
use bbrdom_experiments::engine::CACHE_FORMAT_VERSION;
use bbrdom_experiments::output::Table;
use bbrdom_experiments::payoff::{measure_payoffs_at_on, PayoffCurves, PayoffMeasurement};
use bbrdom_experiments::runner::SweepConfig;
use bbrdom_experiments::{
    fluid_backend, scenario_hash, BackendSpec, DisciplineSpec, Engine, EngineConfig, FaultSpec,
    Scenario, Store, TrialResult,
};
use bbrdom_netsim::hash::StableHasher;
use bbrdom_netsim::json::{self, Value};
use bbrdom_netsim::SimReport;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// A figure workload's generated inputs.
pub struct Figure {
    pub rows: Vec<Row>,
    /// `cells[i]` are row `i`'s scenarios, in engine order.
    pub cells: Vec<Vec<Scenario>>,
}

impl Figure {
    pub fn generate(workload: &str, seed: u64, smoke: bool) -> Option<Figure> {
        let rows = figure_rows(workload, seed, smoke)?;
        let cells = rows.iter().map(Row::cells).collect();
        Some(Figure { rows, cells })
    }

    pub fn cell_count(&self) -> usize {
        self.cells.iter().map(Vec::len).sum()
    }
}

/// What one pass over a figure produced, for the output checks.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// Digest of each cell's `TrialResult` (0 for a failed cell).
    pub cell_digests: Vec<u128>,
    pub csv: String,
    pub failed: usize,
    /// Mean distance, as a fraction of `n`, from each row's observed
    /// NE set to its Eq. 25 band.
    pub band_gap: f64,
}

impl Output {
    /// One digest over every cell result and the CSV.
    pub fn digest(&self) -> u128 {
        let mut h = StableHasher::new();
        for d in &self.cell_digests {
            h.write_bytes(&d.to_le_bytes());
        }
        h.write_bytes(self.csv.as_bytes());
        h.finish()
    }
}

pub fn result_digest(r: &TrialResult) -> u128 {
    let mut h = StableHasher::new();
    h.write_bytes(r.to_json_value().to_json().as_bytes());
    h.finish()
}

/// One engine pass: its set-up time, the time of each of its parts
/// (every row, then the CSV), the events it simulated, and its output.
pub struct EnginePass {
    pub setup_s: f64,
    pub parts_s: Vec<f64>,
    pub events: u64,
    pub output: Output,
}

/// Run the figure through a fresh engine over `dir`. An empty `dir`
/// makes a cold pass that simulates every cell; the `dir` of an
/// earlier pass makes a warm pass that the result store answers.
///
/// Set-up is `Engine::new`, the store open (orphan sweep and index
/// load) and scenario generation. The NE search measures one split at
/// a time (`ks = [k]`, as the adaptive search calls it), so each split
/// is a timed part; so is each row's NE solve and band prediction, and
/// the CSV write.
pub fn engine_pass(workload: &str, seed: u64, smoke: bool, dir: &Path) -> EnginePass {
    let start = Instant::now();
    let engine = Engine::new(EngineConfig {
        jobs: 1,
        disk_cache: Some(dir.to_path_buf()),
        memory_cache: true,
        supervise: None,
        result_store: true,
    });
    engine.store();
    let fig = Figure::generate(workload, seed, smoke).expect("a figure workload");
    let setup_s = start.elapsed().as_secs_f64();

    let mut parts_s = Vec::with_capacity(fig.rows.len() + 1);
    let mut outcomes = Vec::with_capacity(fig.rows.len());
    let mut failed = 0;
    for row in &fig.rows {
        let mut merged: Option<PayoffMeasurement> = None;
        let mut row_failed = false;
        for k in row.ks() {
            let start = Instant::now();
            let measured = catch_unwind(AssertUnwindSafe(|| {
                measure_payoffs_at_on(
                    &engine,
                    row.mbps,
                    row.rtt_ms,
                    row.buffer_bdp,
                    row.n,
                    &[k],
                    CcaKind::Bbr,
                    &row.profile,
                    row.base_seed,
                    DisciplineSpec::DropTail,
                    &FaultSpec::default(),
                )
            }));
            parts_s.push(start.elapsed().as_secs_f64());
            match measured {
                Ok(m) => merge_split(&mut merged, m, k),
                Err(_) => {
                    failed += row.profile.ne_trials as usize;
                    row_failed = true;
                }
            }
        }
        let start = Instant::now();
        let ne = match merged {
            Some(m) if !row_failed => Some(m.observed_ne_cubic_counts(row.epsilon())),
            _ => None,
        };
        outcomes.push(RowOutcome {
            ne,
            prediction: predict(row),
        });
        parts_s.push(start.elapsed().as_secs_f64());
    }
    let start = Instant::now();
    let table = table(&fig.rows, &outcomes);
    table
        .write_csv(dir, "figure")
        .expect("the work directory is writable");
    parts_s.push(start.elapsed().as_secs_f64());
    let events = engine.stats().events_simulated;

    // Untimed: each cell's result as the engine now serves it.
    let all: Vec<Scenario> = fig.cells.iter().flatten().cloned().collect();
    let cell_digests = engine
        .run_sweep(&all, &SweepConfig::default())
        .expect("no journal to open")
        .iter()
        .map(|o| o.ok().map_or(0, result_digest))
        .collect();
    EnginePass {
        setup_s,
        parts_s,
        events,
        output: Output {
            cell_digests,
            csv: table.to_csv(),
            failed,
            band_gap: band_gap(&fig.rows, &outcomes),
        },
    }
}

/// Fold the measurement of split `k` into the row's measurement so far.
fn merge_split(into: &mut Option<PayoffMeasurement>, m: PayoffMeasurement, k: u32) {
    let Some(acc) = into else {
        *into = Some(m);
        return;
    };
    let k = k as usize;
    for (a, t) in acc.trials.iter_mut().zip(m.trials) {
        a.x_per_flow[k] = t.x_per_flow[k];
        a.cubic_per_flow[k] = t.cubic_per_flow[k];
        a.queuing_delay_ms[k] = t.queuing_delay_ms[k];
    }
}

/// Model predictions for one row.
struct Prediction {
    sync: f64,
    desync: f64,
    /// Eq. 25 band in BBR flows, when the model has one.
    band: Option<(u32, u32)>,
}

fn predict(row: &Row) -> Prediction {
    let p = NashPredictor::from_paper_units(row.mbps, row.rtt_ms, row.buffer_bdp, row.n);
    let cubic = |mode| p.predict(mode).map_or(f64::NAN, |x| x.n_cubic);
    Prediction {
        sync: cubic(SyncMode::Synchronized),
        desync: cubic(SyncMode::DeSynchronized),
        band: p.ne_band().ok(),
    }
}

struct RowOutcome {
    /// Observed NE (number of CUBIC flows); `None` when the row failed.
    ne: Option<Vec<u32>>,
    prediction: Prediction,
}

fn table(rows: &[Row], outcomes: &[RowOutcome]) -> Table {
    let mut t = Table::new(
        "e2e: #CUBIC at NE vs the Eq. 25 band",
        &[
            "mbps",
            "rtt_ms",
            "buffer_bdp",
            "churn_per_s",
            "pred_cubic_sync",
            "pred_cubic_desync",
            "band_bbr",
            "observed_ne_cubic",
        ],
    );
    for (row, o) in rows.iter().zip(outcomes) {
        let p = &o.prediction;
        t.push_row(vec![
            format!("{}", row.mbps),
            format!("{}", row.rtt_ms),
            format!("{:.1}", row.buffer_bdp),
            format!("{}", row.churn_rate()),
            format!("{:.2}", p.sync),
            format!("{:.2}", p.desync),
            p.band.map_or("-".into(), |(lo, hi)| format!("{lo}-{hi}")),
            o.ne.as_ref().map_or("failed".into(), |ne| {
                ne.iter().map(u32::to_string).collect::<Vec<_>>().join(";")
            }),
        ]);
    }
    t
}

/// Mean over rows with a band of the distance from the row's closest
/// observed NE to the band, as a fraction of `n`; a row with no NE (or
/// a failed row) scores 1.
fn band_gap(rows: &[Row], outcomes: &[RowOutcome]) -> f64 {
    let gaps: Vec<f64> = rows
        .iter()
        .zip(outcomes)
        .filter_map(|(row, o)| {
            let (lo, hi) = o.prediction.band?;
            let closest = o.ne.as_deref().unwrap_or(&[]).iter().map(|&cubic| {
                let bbr = row.n - cubic;
                lo.saturating_sub(bbr).max(bbr.saturating_sub(hi))
            });
            Some(closest.min().map_or(1.0, |d| d as f64 / row.n as f64))
        })
        .collect();
    if gaps.is_empty() {
        0.0
    } else {
        gaps.iter().sum::<f64>() / gaps.len() as f64
    }
}

/// The per-row reduction `measure_payoffs_at_on` applies to its cells.
fn measurement(row: &Row, results: &[Option<TrialResult>]) -> PayoffMeasurement {
    let ks = row.ks();
    let len = row.n as usize + 1;
    let trials = results
        .chunks(ks.len())
        .map(|trial| {
            let mut x = vec![f64::NAN; len];
            let mut c = vec![f64::NAN; len];
            let mut q = vec![f64::NAN; len];
            for (&k, r) in ks.iter().zip(trial) {
                let Some(r) = r else { continue };
                x[k as usize] = r.mean_throughput_of("bbr").unwrap_or(0.0);
                c[k as usize] = r.mean_throughput_of("cubic").unwrap_or(0.0);
                q[k as usize] = r.avg_queuing_delay_ms;
            }
            PayoffCurves {
                n: row.n,
                challenger: "bbr".into(),
                x_per_flow: x,
                cubic_per_flow: c,
                queuing_delay_ms: q,
            }
        })
        .collect();
    PayoffMeasurement {
        mbps: row.mbps,
        rtt_ms: row.rtt_ms,
        buffer_bdp: row.buffer_bdp,
        trials,
    }
}

/// What the mirror learned about a cell beyond its spans.
#[derive(Debug, Clone)]
pub struct CellInfo {
    pub events: u64,
    pub workload_spawned: u64,
    pub entry_bytes: usize,
    pub n_cubic: usize,
    pub n_bbr: usize,
    pub buffer_bdp: f64,
}

/// The NE solve, band prediction and CSV of a mirrored pass.
fn mirror_assemble(
    t: &mut Tracer,
    fig: &Figure,
    results: &[Vec<Option<TrialResult>>],
    dir: &Path,
) -> Output {
    let mut outcomes = Vec::with_capacity(fig.rows.len());
    for (row, row_results) in fig.rows.iter().zip(results) {
        let ok = row_results.iter().all(Option::is_some);
        let ne = t.span("core.ne_solve", None, |_| {
            ok.then(|| measurement(row, row_results).observed_ne_cubic_counts(row.epsilon()))
        });
        let prediction = t.span("core.predict", None, |_| predict(row));
        outcomes.push(RowOutcome { ne, prediction });
    }
    let table = t.span("output.csv", None, |_| {
        let table = table(&fig.rows, &outcomes);
        table
            .write_csv(dir, "figure")
            .expect("the work directory is writable");
        table
    });
    let flat = results.iter().flatten();
    Output {
        cell_digests: flat
            .clone()
            .map(|r| r.as_ref().map_or(0, result_digest))
            .collect(),
        csv: table.to_csv(),
        failed: flat.filter(|r| r.is_none()).count(),
        band_gap: band_gap(&fig.rows, &outcomes),
    }
}

/// A traced cold pass: each cell through hash → build → run → encode
/// → cache write (tmp + rename) → extract, as the engine does, into
/// `dir`. Returns the output and, per cell hash, what the cell did.
pub fn mirror_cold(t: &mut Tracer, fig: &Figure, dir: &Path) -> (Output, Vec<(u128, CellInfo)>) {
    std::fs::create_dir_all(dir).expect("the work directory is writable");
    let mut infos = Vec::with_capacity(fig.cell_count());
    let output = t.span("pass", None, |t| {
        let results: Vec<Vec<Option<TrialResult>>> = fig
            .cells
            .iter()
            .map(|cells| {
                cells
                    .iter()
                    .map(|s| {
                        t.span("cell", None, |t| {
                            let (hash, cell) = mirror_cell(t, s, dir);
                            cell.map(|(info, result)| {
                                infos.push((hash, info));
                                result
                            })
                        })
                    })
                    .collect()
            })
            .collect();
        mirror_assemble(t, fig, &results, dir)
    });
    (output, infos)
}

/// One cell's layer calls; `None` when the scenario cannot run, which
/// the output checks then report as a failed cell.
fn mirror_cell(
    t: &mut Tracer,
    s: &Scenario,
    dir: &Path,
) -> (u128, Option<(CellInfo, TrialResult)>) {
    let hash = t.span("engine.hash", None, |_| scenario_hash(s));
    t.tag_cell(hash);
    let report = match s.backend {
        BackendSpec::Des => t
            .span("scenario.build", None, |_| {
                s.try_build_simulator(None, None)
            })
            .ok()
            .and_then(|mut sim| t.span("netsim.run", None, |_| sim.try_run()).ok()),
        BackendSpec::Fluid => t
            .span("scenario.build", None, |_| fluid_backend::lower(s))
            .ok()
            .and_then(|cfg| {
                t.span("fluid.run", None, |_| bbrdom_fluid::simulate(&cfg))
                    .ok()
            }),
    };
    let cell = report.map(|report| {
        let text = t.span("engine.encode", None, |_| encode_entry(hash, s, &report));
        t.span("engine.cache_write", None, |_| {
            write_entry(dir, hash, &text)
        });
        let result = t.span("engine.extract", None, |_| {
            TrialResult::from_report(&report)
        });
        let info = CellInfo {
            events: report.events_processed,
            workload_spawned: report.workload_spawned,
            entry_bytes: text.len(),
            n_cubic: s.count_of(CcaKind::Cubic),
            n_bbr: s.count_of(CcaKind::Bbr),
            buffer_bdp: s.buffer_bdp,
        };
        (info, result)
    });
    (hash, cell)
}

/// A cache entry as the engine writes it.
fn encode_entry(hash: u128, s: &Scenario, report: &SimReport) -> String {
    let mut v = Value::object();
    v.set("version", Value::U64(CACHE_FORMAT_VERSION as u64))
        .set("key", format!("{hash:032x}").into())
        .set("scenario", s.to_json_value())
        .set("report", report.to_json_value());
    v.to_json()
}

/// Publish an entry as the engine does: write a temp file, then rename.
fn write_entry(dir: &Path, hash: u128, text: &str) {
    let tmp = dir.join(format!(".{hash:032x}.tmp.{}", std::process::id()));
    std::fs::write(&tmp, text)
        .and_then(|()| std::fs::rename(&tmp, dir.join(format!("{hash:032x}.json"))))
        .expect("the work directory is writable");
}

/// A traced warm pass over the cache an engine pass left in `dir`:
/// store open, a store lookup per cell, then the NE solve, band and
/// CSV. Writes its CSV to `csv_dir`.
pub fn mirror_warm(t: &mut Tracer, fig: &Figure, dir: &Path, csv_dir: &Path) -> Output {
    t.span("pass.warm", None, |t| {
        let store = t.span("store.open", None, |_| Store::open(dir));
        let results: Vec<Vec<Option<TrialResult>>> = fig
            .cells
            .iter()
            .map(|cells| {
                cells
                    .iter()
                    .map(|s| {
                        t.span("cell", None, |t| {
                            let hash = t.span("engine.hash", None, |_| scenario_hash(s));
                            t.tag_cell(hash);
                            t.span("store.get", None, |_| {
                                store.get(hash).and_then(|e| e.ok().cloned())
                            })
                        })
                    })
                    .collect()
            })
            .collect();
        mirror_assemble(t, fig, &results, csv_dir)
    })
}

/// A traced pass over the disk path the engine takes when the store
/// misses: read, `json::parse` and `SimReport::from_json_value` of
/// every cache entry, then the `TrialResult` extraction. Returns the
/// cell digests.
pub fn mirror_parse(t: &mut Tracer, fig: &Figure, dir: &Path) -> Vec<u128> {
    t.span("pass.parse", None, |t| {
        fig.cells
            .iter()
            .flatten()
            .map(|s| {
                t.span("cell", None, |t| {
                    let hash = t.span("engine.hash", None, |_| scenario_hash(s));
                    t.tag_cell(hash);
                    let report = t.span("engine.parse", None, |_| load_entry(dir, hash));
                    report.map_or(0, |r| {
                        result_digest(
                            &t.span("engine.extract", None, |_| TrialResult::from_report(&r)),
                        )
                    })
                })
            })
            .collect()
    })
}

/// Read a cache entry the way the engine's disk-hit path does.
fn load_entry(dir: &Path, hash: u128) -> Option<SimReport> {
    let text = std::fs::read_to_string(dir.join(format!("{hash:032x}.json"))).ok()?;
    let v = json::parse(&text).ok()?;
    if v.get("version").and_then(Value::as_u64) != Some(CACHE_FORMAT_VERSION as u64) {
        return None;
    }
    SimReport::from_json_value(v.get("report")?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("e2ebench-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn mirror_matches_engine_cold_and_warm() {
        let fig = Figure::generate("ne-fluid", 5, true).unwrap();
        let (engine_dir, mirror_dir) = (temp_dir("engine"), temp_dir("mirror"));
        let cold = engine_pass("ne-fluid", 5, true, &engine_dir);
        assert!(cold.events > 0);
        let warm = engine_pass("ne-fluid", 5, true, &engine_dir);
        assert_eq!(warm.events, 0, "the store answers a warm pass");
        assert_eq!(warm.output, cold.output);

        let mut t = Tracer::new();
        let (mirrored, infos) = mirror_cold(&mut t, &fig, &mirror_dir);
        assert_eq!(mirrored, cold.output);
        assert_eq!(
            infos.iter().map(|(_, i)| i.events).sum::<u64>(),
            cold.events
        );
        assert_eq!(
            mirror_warm(&mut t, &fig, &engine_dir, &mirror_dir),
            cold.output
        );
        assert_eq!(
            mirror_parse(&mut t, &fig, &mirror_dir),
            cold.output.cell_digests
        );
        for dir in [engine_dir, mirror_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn band_gap_scores_distance_to_band() {
        let row = figure_rows("ne-des", 1, true).unwrap().remove(0);
        let outcome = |ne: Option<Vec<u32>>, band| RowOutcome {
            ne,
            prediction: Prediction {
                sync: 0.0,
                desync: 0.0,
                band,
            },
        };
        let rows = vec![row.clone(), row.clone(), row.clone(), row];
        // n = 6. Inside the band: 0. Two BBR flows short of it: 2/6.
        // No NE: 1. No band: skipped.
        let outcomes = [
            outcome(Some(vec![3]), Some((2, 4))),
            outcome(Some(vec![6, 5]), Some((3, 4))),
            outcome(Some(vec![]), Some((3, 4))),
            outcome(Some(vec![0]), None),
        ];
        let gap = band_gap(&rows, &outcomes);
        assert!((gap - (0.0 + 2.0 / 6.0 + 1.0) / 3.0).abs() < 1e-12, "{gap}");
    }
}
