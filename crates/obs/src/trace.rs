//! Trace plane: the trace level and a Chrome-trace-event exporter.
//!
//! The deterministic record of a traced run is the world's event trail
//! (`ss_eco::World::event_trail`), retained while the [`TraceLevel`] is
//! [`TraceLevel::Event`]. [`ChromeTrace`] is the wall-clock half: it
//! renders the registry's wall-frame timeline as Chrome trace-event JSON
//! (loadable at `ui.perfetto.dev`), and — exactly like every wall-clock
//! export — never participates in determinism checks.

use serde::Value;

/// Whether a run keeps its trace-plane record (the world's event trail).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceLevel {
    /// Nothing is retained.
    #[default]
    Off,
    /// Intervention-relevant tick events are retained on the event trail.
    Event,
}

/// Builder for Chrome trace-event JSON (the format Perfetto and
/// `chrome://tracing` load). Wall-clock only: this export carries
/// wall-frame slices and counter samples and is **excluded** from every
/// determinism check, exactly like the other wall-clock exports.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    events: Vec<Value>,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of trace events buffered so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events have been added.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn meta(&mut self, name: &str, pid: u64, tid: u64, value: &str) {
        self.events.push(Value::Map(vec![
            ("name".into(), Value::Str(name.to_owned())),
            ("ph".into(), Value::Str("M".into())),
            ("pid".into(), Value::UInt(pid)),
            ("tid".into(), Value::UInt(tid)),
            (
                "args".into(),
                Value::Map(vec![("name".into(), Value::Str(value.to_owned()))]),
            ),
        ]));
    }

    /// Names a process lane (`ph: "M"` metadata event).
    pub fn name_process(&mut self, pid: u64, name: &str) {
        self.meta("process_name", pid, 0, name);
    }

    /// Names a thread lane within a process.
    pub fn name_thread(&mut self, pid: u64, tid: u64, name: &str) {
        self.meta("thread_name", pid, tid, name);
    }

    /// Adds one complete (`ph: "X"`) slice: `ts`/`dur` in microseconds.
    // The argument list mirrors the trace-event field set one-to-one; a
    // params struct would just rename the same seven fields.
    #[allow(clippy::too_many_arguments)]
    pub fn complete(
        &mut self,
        name: &str,
        cat: &str,
        pid: u64,
        tid: u64,
        ts_us: u64,
        dur_us: u64,
        args: Vec<(String, Value)>,
    ) {
        self.events.push(Value::Map(vec![
            ("name".into(), Value::Str(name.to_owned())),
            ("cat".into(), Value::Str(cat.to_owned())),
            ("ph".into(), Value::Str("X".into())),
            ("ts".into(), Value::UInt(ts_us)),
            ("dur".into(), Value::UInt(dur_us)),
            ("pid".into(), Value::UInt(pid)),
            ("tid".into(), Value::UInt(tid)),
            ("args".into(), Value::Map(args)),
        ]));
    }

    /// Adds one counter (`ph: "C"`) sample.
    pub fn counter(&mut self, name: &str, pid: u64, ts_us: u64, values: Vec<(String, f64)>) {
        let args = values
            .into_iter()
            .map(|(k, v)| (k, Value::Float(v)))
            .collect();
        self.events.push(Value::Map(vec![
            ("name".into(), Value::Str(name.to_owned())),
            ("ph".into(), Value::Str("C".into())),
            ("ts".into(), Value::UInt(ts_us)),
            ("pid".into(), Value::UInt(pid)),
            ("args".into(), Value::Map(args)),
        ]));
    }

    /// The full document as a JSON value (`{"traceEvents": [...]}`).
    pub fn to_value(&self) -> Value {
        Value::Map(vec![(
            "traceEvents".into(),
            Value::Seq(self.events.clone()),
        )])
    }

    /// Serializes the trace as Chrome trace-event JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("trace value renders")
    }

    /// Best-effort write: creates parent directories, never fails the
    /// run (a missing report is an inconvenience, not an error).
    pub fn write(&self, path: &str) {
        let p = std::path::Path::new(path);
        if let Some(dir) = p.parent() {
            if !dir.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(dir);
            }
        }
        if let Err(e) = std::fs::write(p, self.to_json() + "\n") {
            eprintln!("warning: could not write trace {path}: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_trace_is_valid_trace_event_json() {
        let mut t = ChromeTrace::new();
        t.name_process(1, "study");
        t.name_thread(1, 1, "stages");
        t.complete(
            "stage.crawl",
            "stage",
            1,
            1,
            100,
            250,
            vec![("day".into(), Value::UInt(3))],
        );
        t.counter("psrs", 1, 350, vec![("total".into(), 42.0)]);
        let json = t.to_json();
        assert!(json.trim_start().starts_with('{'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"ph\": \"M\""));
        assert!(json.contains("\"dur\": 250"));
        assert_eq!(t.len(), 4);
    }
}
