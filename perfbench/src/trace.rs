//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around calls the benchmark itself makes into
//! a layer's public functions; the library is not instrumented. A span's
//! layer is the part of its name before the first `.`. With tracing off
//! every call is a no-op, so the untraced run executes the same code.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Identifier of an open span (`usize::MAX` when tracing is off).
pub type SpanId = usize;

/// One recorded span: nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return usize::MAX;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: SpanId) {
        if self.on {
            let end = self.now_ns();
            self.close(id, end);
        }
    }

    /// Close a span under a name decided by what the call did (a push
    /// that crossed a refit is a refit span, otherwise an ingest span).
    pub fn exit_as(&mut self, id: SpanId, name: &'static str) {
        if self.on {
            self.spans[id].name = name;
            self.exit(id);
        }
    }

    fn close(&mut self, id: SpanId, end_ns: u64) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = end_ns;
    }

    /// Time `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// The span tree under `root`: self time per layer (a span's
    /// duration minus its direct children's), and the root's own self
    /// time, which is the residual the layers do not explain.
    pub fn breakdown(&self, root: SpanId) -> Breakdown {
        let mut inside = vec![false; self.spans.len()];
        let mut child_time = vec![0u64; self.spans.len()];
        inside[root] = true;
        for (i, s) in self.spans.iter().enumerate().skip(root + 1) {
            if let Some(p) = s.parent {
                if inside[p] {
                    inside[i] = true;
                    child_time[p] += s.end_ns - s.start_ns;
                }
            }
        }
        let mut layer_self = BTreeMap::new();
        let mut name_self: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if !inside[i] || i == root {
                continue;
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(child_time[i]) as f64 * 1e-9;
            *layer_self.entry(s.layer()).or_insert(0.0) += own;
            *name_self.entry(s.name).or_insert(0.0) += own;
        }
        let r = &self.spans[root];
        let total = r.secs();
        Breakdown {
            total,
            residual: (r.end_ns - r.start_ns).saturating_sub(child_time[root]) as f64 * 1e-9,
            layer_self,
            name_self,
        }
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of one traced round, by layer and by span name.
#[derive(Debug)]
pub struct Breakdown {
    pub total: f64,
    pub residual: f64,
    pub layer_self: BTreeMap<&'static str, f64>,
    pub name_self: BTreeMap<&'static str, f64>,
}
