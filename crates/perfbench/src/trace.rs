//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a layer boundary crossed from the benchmark's own
//! code: its name, start, end and the span that caused it. Spans stay
//! in memory while the workload runs and are written out once at exit,
//! so recording one costs two clock reads and a `Vec` push.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// The span recorder of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a span that has already ended.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        let (start_ns, end_ns) = (ns(start), ns(end));
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Duration of span `id` in seconds.
    pub fn secs(&self, id: SpanId) -> f64 {
        let s = &self.spans[id];
        s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9
    }

    /// Durations in seconds of every span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.secs(i))
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Runs `f`, inside a span named `name` when tracing, and returns its
/// result with the elapsed seconds.
pub fn timed<T>(
    tracer: Option<&mut Tracer>,
    name: &'static str,
    parent: Option<SpanId>,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    match tracer {
        Some(t) => {
            let id = t.open(name, parent);
            let out = f();
            t.close(id);
            (out, t.secs(id))
        }
        None => {
            let start = Instant::now();
            let out = f();
            (out, start.elapsed().as_secs_f64())
        }
    }
}

/// Opens a span when tracing.
pub fn open(tracer: Option<&mut Tracer>, name: &'static str) -> Option<SpanId> {
    tracer.map(|t| t.open(name, None))
}

/// Closes a span opened by [`open`].
pub fn close(tracer: Option<&mut Tracer>, id: Option<SpanId>) {
    if let (Some(t), Some(id)) = (tracer, id) {
        t.close(id);
    }
}
