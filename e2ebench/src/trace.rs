//! In-memory span recorder for the traced run.
//!
//! Spans are opened around calls into each layer's public functions
//! from the benchmark's own code (the program itself is not
//! instrumented). They stay in memory until the run ends, then
//! [`Tracer::write_jsonl`] writes one JSON object per span.

use crate::stats;
use bbrdom_netsim::json::Value;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// The cell (scenario content hash) the span works for, inherited
    /// from the enclosing span when not given.
    pub cell: Option<u128>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records nested spans; see the module docs.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`. Spans opened inside `f`
    /// become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        cell: Option<u128>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let parent = self.open.last().copied();
        let cell = cell.or_else(|| parent.and_then(|p| self.spans[p].cell));
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent,
            cell,
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        self.spans[id].start_ns = self.now_ns();
        let out = f(self);
        self.spans[id].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    /// Set the cell of the innermost open span and of every span opened
    /// inside it so far: a `cell` span learns its id only once its
    /// `engine.hash` child has run.
    pub fn tag_cell(&mut self, cell: u128) {
        if let Some(&open) = self.open.last() {
            for s in &mut self.spans[open..] {
                s.cell = Some(cell);
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in span order: its duration minus the
    /// union of its children's intervals.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, c)| stats::self_time(s.start_ns, s.end_ns, c))
            .collect()
    }

    /// Write every span as one JSON line:
    /// `{"id", "parent", "name", "cell", "start_ns", "end_ns", "self_ns"}`
    /// (`parent` and `cell` are `null` when absent; `cell` is the
    /// 32-digit hex content hash).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (id, (s, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let mut v = Value::object();
            v.set("id", Value::U64(id as u64))
                .set(
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                )
                .set("name", s.name.into())
                .set(
                    "cell",
                    s.cell.map_or(Value::Null, |c| format!("{c:032x}").into()),
                )
                .set("start_ns", Value::U64(s.start_ns))
                .set("end_ns", Value::U64(s.end_ns))
                .set("self_ns", Value::U64(self_ns));
            text.push_str(&v.to_json());
            text.push('\n');
        }
        std::fs::write(path, text)
    }
}

/// Cost of recording one empty span, in seconds, measured over many
/// spans on a scratch tracer.
pub fn calibrate_span_cost() -> f64 {
    const N: usize = 20_000;
    let mut t = Tracer::new();
    let start = Instant::now();
    t.span("calibrate", None, |t| {
        for _ in 0..N {
            t.span("empty", None, |_| ());
        }
    });
    start.elapsed().as_secs_f64() / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_inherit_cells() {
        let mut t = Tracer::new();
        t.span("cell", Some(7), |t| {
            t.span("a", None, |t| t.span("b", None, |_| ()));
            t.span("c", Some(9), |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[1].name, s[1].parent, s[1].cell), ("a", Some(0), Some(7)));
        assert_eq!((s[2].parent, s[2].cell), (Some(1), Some(7)));
        assert_eq!((s[3].parent, s[3].cell), (Some(0), Some(9)));
        assert!(s.iter().all(|x| x.start_ns <= x.end_ns));
    }

    #[test]
    fn tag_cell_reaches_spans_opened_inside() {
        let mut t = Tracer::new();
        t.span("other", None, |_| ());
        t.span("cell", None, |t| {
            t.span("engine.hash", None, |_| ());
            t.tag_cell(42);
            t.span("netsim.run", None, |_| ());
        });
        let cells: Vec<Option<u128>> = t.spans().iter().map(|s| s.cell).collect();
        assert_eq!(cells, [None, Some(42), Some(42), Some(42)]);
    }

    #[test]
    fn self_times_sum_to_root_duration() {
        let mut t = Tracer::new();
        t.span("root", None, |t| {
            for _ in 0..3 {
                t.span("child", None, |t| {
                    t.span("leaf", None, |_| std::hint::black_box(1 + 1))
                });
            }
        });
        let total: u64 = t.self_times_ns().iter().sum();
        let root = &t.spans()[0];
        assert_eq!(total, root.end_ns - root.start_ns);
    }
}
