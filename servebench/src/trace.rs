//! The benchmark's own span recorder: one span per call it makes into a
//! serve-path layer, timed from outside. The program's telemetry stays
//! off; spans live in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;
use telemetry::json::Json;

/// One timed call: its layer name, interval, causing span and the tick
/// it served (the request id shared by every span of that tick).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub tick: u64,
    /// Items the call handled (reports pushed or encoded), 0 if none.
    pub items: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Which solve path a tick took, read from `SolveStats` deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolvePath {
    None,
    Cache,
    Incremental,
    Full,
}

impl SolvePath {
    fn as_str(self) -> &'static str {
        match self {
            SolvePath::None => "none",
            SolvePath::Cache => "cache",
            SolvePath::Incremental => "incremental",
            SolvePath::Full => "full",
        }
    }
}

/// Counts recorded at the `sharded.tick` boundary of one measured tick.
#[derive(Debug, Clone, Copy)]
pub struct TickCounts {
    pub tick: u64,
    pub tick_us: u64,
    pub solve_us: u64,
    /// Reports the tick drained through admission.
    pub drained: u64,
    pub evict: bool,
    pub path: SolvePath,
    pub rows_resolved: u64,
    pub sweeps: u64,
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    pub ticks: Vec<TickCounts>,
    /// Run-level counts keyed by layer metric (frame bytes and the like).
    pub counts: BTreeMap<&'static str, u64>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 12),
            ticks: Vec::new(),
            counts: BTreeMap::new(),
        }
    }
}

impl Recorder {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its index for children.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        tick: u64,
        items: u64,
    ) -> usize {
        let span =
            Span { name, start_ns: self.ns(start), end_ns: self.ns(end), parent, tick, items };
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn count(&mut self, key: &'static str, v: u64) {
        *self.counts.entry(key).or_insert(0) += v;
    }

    /// Durations (ns) of every span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_ns).collect()
    }

    /// Total duration and items of every span named `name`.
    pub fn totals(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(d, n), s| (d + s.dur_ns(), n + s.items))
    }

    /// Appends every span and tick count as JSON lines under `label`.
    pub fn write_jsonl(&self, out: &mut impl Write, label: &str) -> std::io::Result<()> {
        for s in &self.spans {
            let line = Json::Obj(vec![
                ("run".into(), Json::Str(label.into())),
                ("span".into(), Json::Str(s.name.into())),
                ("tick".into(), Json::Num(s.tick as f64)),
                ("start_ns".into(), Json::Num(s.start_ns as f64)),
                ("end_ns".into(), Json::Num(s.end_ns as f64)),
                ("parent".into(), s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                ("items".into(), Json::Num(s.items as f64)),
            ]);
            writeln!(out, "{}", line.encode())?;
        }
        for t in &self.ticks {
            let line = Json::Obj(vec![
                ("run".into(), Json::Str(label.into())),
                ("tick_counts".into(), Json::Num(t.tick as f64)),
                ("tick_us".into(), Json::Num(t.tick_us as f64)),
                ("solve_us".into(), Json::Num(t.solve_us as f64)),
                ("drained".into(), Json::Num(t.drained as f64)),
                ("evict".into(), Json::Bool(t.evict)),
                ("path".into(), Json::Str(t.path.as_str().into())),
                ("rows_resolved".into(), Json::Num(t.rows_resolved as f64)),
                ("sweeps".into(), Json::Num(t.sweeps as f64)),
            ]);
            writeln!(out, "{}", line.encode())?;
        }
        Ok(())
    }
}

/// Writes every recorder's spans to `path` (one JSON object a line).
pub fn write_all(path: &Path, recorders: &[(&str, &Recorder)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (label, rec) in recorders {
        rec.write_jsonl(&mut out, label)?;
    }
    out.flush()
}
