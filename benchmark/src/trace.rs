//! In-memory spans for the traced (ladder) run.
//!
//! A traced op sends the same generated input once per rung, each rung
//! one layer lower. Each rung is a span whose parent is the rung above;
//! a layer's self time is its rung minus the rung below. Spans stay in
//! memory and are written as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One rung (or one part of a rung) of one traced op.
#[derive(Debug, Clone)]
pub struct Span {
    /// `(client << 40) | op index` — shared by every span of the op.
    pub trace: u64,
    /// Unique within the client's tracer, never 0.
    pub id: u32,
    /// The span that caused this one; 0 for the top rung.
    pub parent: u32,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
}

/// One client's span buffer plus the per-layer samples derived from it.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    client: usize,
    /// Every span recorded, in order.
    pub spans: Vec<Span>,
    /// Per-layer latency samples in nanoseconds, keyed by metric name.
    pub samples: BTreeMap<&'static str, Vec<u64>>,
}

impl Tracer {
    /// A tracer for `client`; every client of a run shares `epoch`.
    pub fn new(epoch: Instant, client: usize) -> Self {
        Tracer {
            epoch,
            client,
            spans: Vec::new(),
            samples: BTreeMap::new(),
        }
    }

    /// The trace id of this client's op `i`.
    pub fn trace_id(&self, i: u64) -> u64 {
        ((self.client as u64) << 40) | i
    }

    /// Record a finished span; returns its id and duration in ns.
    pub fn record(
        &mut self,
        trace: u64,
        parent: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> (u32, u64) {
        let id = self.spans.len() as u32 + 1;
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            trace,
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        (id, end_ns - start_ns)
    }

    /// Time `f` as one span.
    pub fn span<R>(
        &mut self,
        trace: u64,
        parent: u32,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, u32, u64) {
        let start = Instant::now();
        let out = f();
        let (id, ns) = self.record(trace, parent, name, start, Instant::now());
        (out, id, ns)
    }

    /// Add one latency sample (ns) to a per-layer metric.
    pub fn sample(&mut self, metric: &'static str, ns: u64) {
        self.samples.entry(metric).or_default().push(ns);
    }
}

/// Merge every client's samples of each metric into one sorted vector.
pub fn merged_samples(tracers: &[Tracer]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut all: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for t in tracers {
        for (name, v) in &t.samples {
            all.entry(name).or_default().extend_from_slice(v);
        }
    }
    for v in all.values_mut() {
        v.sort_unstable();
    }
    all
}

/// Write every span as one JSON object per line.
pub fn write_jsonl(path: &Path, tracers: &[Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for t in tracers {
        for s in &t.spans {
            writeln!(
                out,
                "{{\"trace\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.trace, s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}
