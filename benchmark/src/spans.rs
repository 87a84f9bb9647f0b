//! The benchmark's own span recorder: spans are opened and closed around
//! calls into evprop's public functions, kept in memory, and written to
//! `benchmark/out/<workload>.spans.json` when the traced pass ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// One recorded interval. `parent` indexes the span that was open when
/// this one started; spans of one operation share `op`.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u64,
}

/// Handle returned by [`Recorder::begin`].
#[derive(Clone, Copy, Debug)]
pub struct Open(u32);

/// In-memory span store with a stack of open spans.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Identifier stamped on every span opened from now on.
    operation: u64,
}

/// At most this many spans are written to the JSON file (all of them
/// are kept in memory and counted in the statistics).
const MAX_SPANS_WRITTEN: usize = 20_000;

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            operation: 0,
        }
    }

    /// Spans opened from now on belong to operation `id`.
    pub fn set_operation(&mut self, id: u64) {
        self.operation = id;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op: self.operation,
        });
        self.open.push(id);
        Open(id)
    }

    /// Closes the innermost open span, which must be `span`.
    pub fn end(&mut self, span: Open) {
        assert_eq!(self.open.pop(), Some(span.0), "spans close innermost first");
        self.spans[span.0 as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Records a child of `parent` whose duration was measured by the
    /// program itself (`QueryTiming`). Its true start is unknown, so
    /// children reported this way are laid end to end from the
    /// parent's start: `offset` is the sum of the earlier siblings.
    pub fn reported_child(
        &mut self,
        name: &'static str,
        parent: Open,
        offset: Duration,
        duration: Duration,
    ) {
        let p = &self.spans[parent.0 as usize];
        let start_ns = p.start_ns + offset.as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + duration.as_nanos() as u64,
            parent: Some(parent.0),
            op: p.op,
        });
    }

    /// The typical duration in microseconds of the spans called `name`:
    /// durations are summed within an operation, the shortest sum is
    /// kept among operations that repeat the same question (ids equal
    /// modulo `period`), and the median over questions is returned.
    /// Repeats see the same input, so only interference separates them,
    /// and interference only ever adds time.
    pub fn typical_us(&self, name: &str, period: u64) -> f64 {
        let mut per_operation: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *per_operation.entry(s.op).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 / 1e3;
        }
        let mut per_question: BTreeMap<u64, f64> = BTreeMap::new();
        for (op, us) in per_operation {
            let best = per_question.entry(op % period).or_insert(f64::INFINITY);
            *best = best.min(us);
        }
        if per_question.is_empty() {
            return f64::NAN;
        }
        crate::stats::median(&per_question.into_values().collect::<Vec<_>>())
    }

    /// Self time per span name in microseconds: each span's duration
    /// minus the durations of its direct children, summed by name.
    pub fn self_times_us(&self) -> BTreeMap<&'static str, f64> {
        let mut self_ns: Vec<i64> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as i64)
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_ns[p as usize] -= (s.end_ns - s.start_ns) as i64;
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self_ns) {
            *by_name.entry(s.name).or_insert(0.0) += ns.max(0) as f64 / 1e3;
        }
        by_name
    }

    /// Writes one `"label": {…}` section of the spans document.
    fn write_section(&self, label: &str, out: &mut impl Write) -> std::io::Result<()> {
        let written = self.spans.len().min(MAX_SPANS_WRITTEN);
        writeln!(
            out,
            "\"{label}\":{{\"recorded\":{},\"written\":{written},\"spans\":[",
            self.spans.len()
        )?;
        for (i, s) in self.spans[..written].iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < written { "," } else { "" };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        write!(out, "]}}")
    }
}

/// Writes the labelled recorders as one JSON document at `path`.
pub fn write_json(path: &std::path::Path, sections: &[(&str, &Recorder)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{")?;
    for (i, (label, recorder)) in sections.iter().enumerate() {
        recorder.write_section(label, &mut out)?;
        writeln!(out, "{}", if i + 1 < sections.len() { "," } else { "" })?;
    }
    writeln!(out, "}}")?;
    out.flush()
}
