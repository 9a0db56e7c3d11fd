//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! They stay in memory while the run executes and are written out once,
//! as a Chrome trace-event file, after it ends.

use std::time::Instant;

use serde::Value;

/// Lane of the thread that runs the study.
pub const MAIN: u32 = 0;
/// Lane of the serve client thread.
pub const CLIENT: u32 = 1;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.operation`, e.g. `crawlkit.crawl`.
    pub name: &'static str,
    /// Index of the span that caused this one (a day groups its tick and
    /// stages).
    pub parent: Option<usize>,
    /// Thread lane ([`MAIN`] or [`CLIENT`]).
    pub lane: u32,
    /// Nanoseconds since the run's origin.
    pub start_ns: u64,
    /// Nanoseconds since the run's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    /// The layer prefix of the span name.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Spans of one run, on one shared clock origin.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    lane: u32,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder on `lane`, timing from `origin`.
    pub fn new(origin: Instant, lane: u32) -> Self {
        Spans {
            origin,
            lane,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            lane: self.lane,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Appends another recorder's spans (same origin), re-basing parents.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every recorded span.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of the spans named `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .fold(0.0, |a, b| a + b)
    }

    /// Longest span named `name`, seconds.
    pub fn max_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .fold(0.0, f64::max)
    }

    /// The spans as Chrome trace-event JSON (load in ui.perfetto.dev).
    pub fn chrome_trace(&self) -> String {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Value::Map(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("cat".into(), Value::Str(s.layer().into())),
                    ("ph".into(), Value::Str("X".into())),
                    ("ts".into(), Value::Float(s.start_ns as f64 / 1e3)),
                    (
                        "dur".into(),
                        Value::Float((s.end_ns - s.start_ns) as f64 / 1e3),
                    ),
                    ("pid".into(), Value::UInt(1)),
                    ("tid".into(), Value::UInt(u64::from(s.lane))),
                    (
                        "args".into(),
                        Value::Map(vec![(
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                        )]),
                    ),
                ])
            })
            .collect();
        serde_json::to_string(&Value::Map(vec![(
            "traceEvents".into(),
            Value::Seq(events),
        )]))
        .expect("a value tree always renders")
    }
}
