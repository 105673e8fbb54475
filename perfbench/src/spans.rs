//! The benchmark's own spans around each public call it makes (parse,
//! analyze, run_loop, eval_usr, client call). Spans of one job share
//! its id; they are kept in memory and written out when the run ends.

use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// The job this span belongs to.
    pub job: u64,
    /// The job's class (suite loop, or loop/warm|cold for `serve_mix`).
    pub class: String,
    /// The public call: `parse`, `analyze`, `run_loop`, `eval_usr` or
    /// `client.call`.
    pub name: &'static str,
    /// The enclosing span of the same job, by index into the log.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the log was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An in-memory span log.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the log was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// An instant on this log's clock, in nanoseconds.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Times `f` as a span of `job`.
    pub fn record<T>(
        &mut self,
        job: u64,
        class: &str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.push(Span {
            job,
            class: class.to_owned(),
            name,
            parent: None,
            start_ns,
            end_ns,
        });
        out
    }

    /// Appends a finished span.
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Appends every span of `other`, shifting its clock onto this one.
    pub fn absorb(&mut self, other: SpanLog) {
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.start_ns += shift;
            s.end_ns += shift;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of the spans named `name`, grouped by class.
    pub fn by_class(&self, name: &str) -> std::collections::BTreeMap<String, Vec<f64>> {
        let mut out: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            out.entry(s.class.clone()).or_default().push(s.ms());
        }
        out
    }

    /// Writes the log as JSON lines to `perfbench/out/<workload>-spans.jsonl`
    /// under the working directory. Failures are reported, not fatal:
    /// the spans are a by-product of the traced run.
    pub fn write(&self, workload: &str) {
        let dir = std::path::Path::new("perfbench").join("out");
        let path = dir.join(format!("{workload}-spans.jsonl"));
        let mut text = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            text.push_str(&format!(
                "{{\"id\": {i}, \"job\": {}, \"class\": {}, \"name\": \"{}\", \"parent\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}\n",
                s.job,
                lip_obs::json_str(&s.class),
                s.name,
                s.parent
                    .map_or_else(|| "null".to_owned(), |p| p.to_string()),
                s.start_ns,
                s.end_ns
            ));
        }
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}
