//! Per-layer metrics of a traced run.
//!
//! Every metric is printed for every workload; a layer a workload does
//! not exercise reads 0. Times are per pass of the kind that runs the
//! layer: cold passes for simulation and persistence, warm passes for
//! the store, parse passes for `engine.parse`. `trace.coverage` is the
//! share of the cold passes' traced wall time that layer spans explain;
//! warm-pass calls take microseconds, so there the spans' own cost
//! would dominate such a share.

use crate::pipeline::CellInfo;
use crate::run::Metric;
use crate::stats;
use crate::trace::Tracer;
use std::collections::HashMap;

/// Every per-layer metric, with its unit, in print order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netsim.run_s", "s"),
    ("netsim.events", "count"),
    ("netsim.ns_per_event", "ns"),
    ("netsim.ns_per_event.cubic_only", "ns"),
    ("netsim.ns_per_event.bbr_only", "ns"),
    ("netsim.ns_per_event.mixed", "ns"),
    ("netsim.ns_per_event.shallow", "ns"),
    ("netsim.ns_per_event.deep", "ns"),
    ("netsim.run_share.mixed_deep", "fraction"),
    ("netsim.us_per_spawn", "us"),
    ("netsim.workload_spawned", "count"),
    ("netsim.ns_per_event.dumbbell", "ns"),
    ("netsim.ns_per_event.parkinglot", "ns"),
    ("netsim.build_s", "s"),
    ("fluid.run_s", "s"),
    ("fluid.steps", "count"),
    ("fluid.ns_per_step", "ns"),
    ("scenario.build_s", "s"),
    ("engine.hash_us_per_cell", "us"),
    ("engine.encode_s", "s"),
    ("engine.report_kb_per_cell", "KB"),
    ("engine.cache_write_s", "s"),
    ("engine.extract_s", "s"),
    ("engine.cache_mb", "MB"),
    ("engine.parse_s", "s"),
    ("engine.unattributed_s", "s"),
    ("store.open_s", "s"),
    ("store.index_mb", "MB"),
    ("store.get_us_per_cell", "us"),
    ("core.ne_solve_s", "s"),
    ("core.predict_s", "s"),
    ("core.ne_band_gap", "fraction"),
    ("output.csv_s", "s"),
    ("cell.count", "count"),
    ("cell.ms_p50", "ms"),
    ("cell.ms_tail", "ms"),
    ("cell.tail_percentile", "percentile"),
    ("trace.wall_s", "s"),
    ("trace.coverage", "fraction"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
];

/// Root span names, one per pass kind; `cell` spans group one cell's
/// layer calls. Every other span is a layer call.
const ROOTS: [&str; 3] = ["pass", "pass.warm", "pass.parse"];

/// What a traced run measured besides its spans.
pub struct TraceFacts<'a> {
    /// Figure workloads: per cell hash, what the cell did.
    pub cells: &'a HashMap<u128, CellInfo>,
    /// Forwarding: name and events of each case, indexed by the spans'
    /// cell tag.
    pub cases: &'a [(&'static str, u64)],
    /// Mean untraced pass wall time (set-up included for forwarding),
    /// to set against the per-pass means of the traced layer times.
    pub untraced_wall_s: f64,
    pub span_cost_s: f64,
    pub cache_bytes: u64,
    pub index_bytes: u64,
    pub band_gap: f64,
}

fn mixed(c: &CellInfo) -> bool {
    c.n_cubic > 0 && c.n_bbr > 0
}

/// Deep buffers (at least 8 BDP); shallow ones hold at most 2.
fn deep(c: &CellInfo) -> bool {
    c.buffer_bdp >= 8.0
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Compute every metric of [`PER_LAYER`] from the trace.
pub fn per_layer(t: &Tracer, facts: &TraceFacts) -> Vec<Metric> {
    let spans = t.spans();
    let self_ns = t.self_times_ns();
    let mut root = vec![0usize; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        root[i] = s.parent.map_or(i, |p| root[p]);
    }
    let passes = |kind: &str| {
        spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == kind)
            .count() as f64
    };
    let (cold, warm, parse) = (passes("pass"), passes("pass.warm"), passes("pass.parse"));
    let in_kind = |i: usize, kind: &str| spans[root[i]].name == kind;
    // Seconds of self time and span count of `name` under roots of `kind`.
    let sum = |name: &str, kind: &str, keep: &dyn Fn(Option<u128>) -> bool| {
        let mut secs = 0.0;
        let mut count = 0.0;
        for (i, s) in spans.iter().enumerate() {
            if s.name == name && in_kind(i, kind) && keep(s.cell) {
                secs += self_ns[i] as f64 * 1e-9;
                count += 1.0;
            }
        }
        (secs, count)
    };
    let any = |_: Option<u128>| true;
    let info = |c: Option<u128>| c.and_then(|c| facts.cells.get(&c));
    let case = |c: Option<u128>| c.and_then(|c| facts.cases.get(usize::try_from(c).ok()?));
    let events_where = |name: &str, keep: &dyn Fn(Option<u128>) -> bool| {
        let mut events = 0.0;
        for (i, s) in spans.iter().enumerate() {
            if s.name == name && in_kind(i, "pass") && keep(s.cell) {
                events += match info(s.cell) {
                    Some(c) => c.events as f64,
                    None => case(s.cell).map_or(0, |&(_, events)| events) as f64,
                };
            }
        }
        events
    };
    let ns_per_event = |keep: &dyn Fn(Option<u128>) -> bool| {
        ratio(
            sum("netsim.run", "pass", keep).0 * 1e9,
            events_where("netsim.run", keep),
        )
    };
    let class = |pred: fn(&CellInfo) -> bool| move |c: Option<u128>| info(c).is_some_and(pred);

    let (run_s, _) = sum("netsim.run", "pass", &any);
    let spawned: f64 = spans
        .iter()
        .enumerate()
        .filter(|&(i, s)| s.name == "netsim.run" && in_kind(i, "pass"))
        .filter_map(|(_, s)| info(s.cell))
        .map(|c| c.workload_spawned as f64)
        .sum();
    let (fluid_s, _) = sum("fluid.run", "pass", &any);
    let steps = events_where("fluid.run", &any);
    let (hash_s, hashes) = sum("engine.hash", "pass", &any);
    let (get_s, gets) = sum("store.get", "pass.warm", &any);
    let entry_kb: Vec<f64> = facts
        .cells
        .values()
        .map(|c| c.entry_bytes as f64 / 1e3)
        .collect();

    let is_layer = |s: &crate::trace::Span| s.name != "cell" && !ROOTS.contains(&s.name);
    let cold_layer_s: f64 = spans
        .iter()
        .enumerate()
        .filter(|&(i, s)| is_layer(s) && in_kind(i, "pass"))
        .map(|(i, _)| self_ns[i] as f64 * 1e-9)
        .sum();
    let root_s: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .sum();
    let cold_root_s: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == "pass")
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .sum();
    let cell_ms: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|&(i, s)| s.name == "cell" && in_kind(i, "pass"))
        .map(|(_, s)| (s.end_ns - s.start_ns) as f64 * 1e-6)
        .collect();
    let tail = stats::tail_percentile(&cell_ms);

    let per_cold = |name: &str| ratio(sum(name, "pass", &any).0, cold);
    let values: HashMap<&str, f64> = [
        ("netsim.run_s", ratio(run_s, cold)),
        (
            "netsim.events",
            ratio(events_where("netsim.run", &any), cold),
        ),
        ("netsim.ns_per_event", ns_per_event(&any)),
        (
            "netsim.ns_per_event.cubic_only",
            ns_per_event(&class(|c| c.n_bbr == 0)),
        ),
        (
            "netsim.ns_per_event.bbr_only",
            ns_per_event(&class(|c| c.n_cubic == 0)),
        ),
        ("netsim.ns_per_event.mixed", ns_per_event(&class(mixed))),
        (
            "netsim.ns_per_event.shallow",
            ns_per_event(&class(|c| c.buffer_bdp <= 2.0)),
        ),
        ("netsim.ns_per_event.deep", ns_per_event(&class(deep))),
        (
            "netsim.run_share.mixed_deep",
            ratio(
                sum("netsim.run", "pass", &class(|c| mixed(c) && deep(c))).0,
                run_s,
            ),
        ),
        ("netsim.us_per_spawn", ratio(run_s * 1e6, spawned)),
        ("netsim.workload_spawned", ratio(spawned, cold)),
        (
            "netsim.ns_per_event.dumbbell",
            ns_per_event(&|c| case(c).is_some_and(|k| k.0 == "dumbbell")),
        ),
        (
            "netsim.ns_per_event.parkinglot",
            ns_per_event(&|c| case(c).is_some_and(|k| k.0 == "parkinglot")),
        ),
        ("netsim.build_s", per_cold("netsim.build")),
        ("fluid.run_s", ratio(fluid_s, cold)),
        ("fluid.steps", ratio(steps, cold)),
        ("fluid.ns_per_step", ratio(fluid_s * 1e9, steps)),
        ("scenario.build_s", per_cold("scenario.build")),
        ("engine.hash_us_per_cell", ratio(hash_s * 1e6, hashes)),
        ("engine.encode_s", per_cold("engine.encode")),
        (
            "engine.report_kb_per_cell",
            ratio(entry_kb.iter().sum(), entry_kb.len() as f64),
        ),
        ("engine.cache_write_s", per_cold("engine.cache_write")),
        ("engine.extract_s", per_cold("engine.extract")),
        ("engine.cache_mb", facts.cache_bytes as f64 / 1e6),
        (
            "engine.parse_s",
            ratio(sum("engine.parse", "pass.parse", &any).0, parse),
        ),
        (
            "engine.unattributed_s",
            facts.untraced_wall_s - ratio(cold_layer_s, cold),
        ),
        (
            "store.open_s",
            ratio(sum("store.open", "pass.warm", &any).0, warm),
        ),
        ("store.index_mb", facts.index_bytes as f64 / 1e6),
        ("store.get_us_per_cell", ratio(get_s * 1e6, gets)),
        ("core.ne_solve_s", per_cold("core.ne_solve")),
        ("core.predict_s", per_cold("core.predict")),
        ("core.ne_band_gap", facts.band_gap),
        ("output.csv_s", per_cold("output.csv")),
        ("cell.count", ratio(cell_ms.len() as f64, cold)),
        ("cell.ms_p50", stats::median(&cell_ms)),
        ("cell.ms_tail", tail.map_or(0.0, |(_, v)| v)),
        ("cell.tail_percentile", tail.map_or(0.0, |(p, _)| p)),
        ("trace.wall_s", root_s),
        ("trace.coverage", ratio(cold_layer_s, cold_root_s)),
        ("trace.overhead_s", spans.len() as f64 * facts.span_cost_s),
        ("trace.spans", spans.len() as f64),
    ]
    .into_iter()
    .collect();
    // `+ 0.0` turns the -0.0 of an empty float sum into 0.0.
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, values[name] + 0.0, unit))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_metric_is_computed_once() {
        let names: std::collections::HashSet<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), PER_LAYER.len());
        let mut t = Tracer::new();
        t.span("pass", None, |t| {
            t.span("netsim.build", Some(0), |_| ());
            t.span("netsim.run", Some(0), |_| std::hint::black_box(()));
        });
        let cells = HashMap::new();
        let facts = TraceFacts {
            cells: &cells,
            cases: &[("dumbbell", 1000)],
            untraced_wall_s: 0.0,
            span_cost_s: 0.0,
            cache_bytes: 0,
            index_bytes: 0,
            band_gap: 0.0,
        };
        let m = per_layer(&t, &facts);
        assert_eq!(m.len(), PER_LAYER.len());
        let get = |n: &str| m.iter().find(|(name, ..)| *name == n).unwrap().1;
        assert_eq!(get("netsim.events"), 1000.0);
        assert!(get("netsim.ns_per_event") >= 0.0);
        assert_eq!(get("fluid.steps"), 0.0);
        assert!(get("trace.coverage") <= 1.0);
    }
}
