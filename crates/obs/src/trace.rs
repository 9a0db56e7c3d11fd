//! Trace plane: a deterministic flight recorder plus a Chrome-trace-event
//! exporter.
//!
//! The [`FlightRecorder`] captures typed [`TraceEvent`]s — day, stage,
//! entity id, free-form detail — into a bounded ring buffer guarded by a
//! [`TraceLevel`] knob. Like [`Registry`](crate::Registry), recorders are
//! created per work item (a crawl vertical, a scan shard) and folded back
//! into a parent recorder in item order; [`FlightRecorder::merge_from`]
//! **re-stamps** absorbed events with the destination's monotonic
//! sequence counter, so the merged sequence depends only on the merge
//! order, never on thread scheduling. That makes the recorder part of the
//! deterministic half of the telemetry contract: its rendered contents
//! are bit-identical at any `--threads` setting.
//!
//! [`ChromeTrace`] is the wall-clock half: it renders the registry's
//! wall-frame timeline as Chrome trace-event JSON (loadable at
//! `ui.perfetto.dev`), and — exactly like every wall-clock export —
//! never participates in determinism checks.

use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};

use serde::Value;
use ss_types::snapshot::{Reader, Snapshot, SnapshotError, Writer};

/// How much the flight recorder captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceLevel {
    /// Nothing is recorded; every trace call is a cheap branch.
    #[default]
    Off,
    /// Per-stage summary events only.
    Stage,
    /// Stage summaries plus per-entity events (the `trace!` macro).
    Event,
}

impl TraceLevel {
    /// Parses a CLI-style level name (`off` / `stage` / `event`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(Self::Off),
            "stage" => Some(Self::Stage),
            "event" => Some(Self::Event),
            _ => None,
        }
    }

    /// The canonical lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Off => "off",
            Self::Stage => "stage",
            Self::Event => "event",
        }
    }
}

/// One recorded trace event. The sequence number is assigned by the
/// recorder that currently owns the event — merging re-stamps it — so
/// equal recorders render byte-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotonic position in the owning recorder's stream.
    pub seq: u64,
    /// Simulation day index the event belongs to.
    pub day: u32,
    /// The stage that produced the event (a static span-style name).
    pub stage: &'static str,
    /// Entity the event is about (domain id, campaign index, row, ...).
    pub entity: u64,
    /// Human-readable detail line.
    pub detail: String,
}

#[derive(Debug, Default)]
struct RecorderInner {
    next_seq: u64,
    dropped: u64,
    events: VecDeque<TraceEvent>,
}

/// A bounded, thread-safe ring buffer of [`TraceEvent`]s.
///
/// Recording assigns each event the next sequence number; once the buffer
/// holds `cap` events the oldest is evicted (counted in
/// [`dropped`](Self::dropped)) so the newest events always survive.
/// Worker recorders should be [`unbounded`](Self::unbounded) and merged
/// into one bounded parent in work-item order — eviction then happens
/// only at the merge point, in a single deterministic stream.
#[derive(Debug)]
pub struct FlightRecorder {
    level: TraceLevel,
    cap: usize,
    inner: Mutex<RecorderInner>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::disabled()
    }
}

impl FlightRecorder {
    /// A recorder keeping at most `cap` events at `level`.
    pub fn new(level: TraceLevel, cap: usize) -> Self {
        Self {
            level,
            cap: cap.max(1),
            inner: Mutex::new(RecorderInner::default()),
        }
    }

    /// A recorder that never evicts — the right shape for per-work-item
    /// recorders whose contents are merged (and bounded) by the parent.
    pub fn unbounded(level: TraceLevel) -> Self {
        Self::new(level, usize::MAX)
    }

    /// The no-op recorder: level [`TraceLevel::Off`], records nothing.
    pub fn disabled() -> Self {
        Self::new(TraceLevel::Off, 1)
    }

    /// The configured capture level.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// `true` unless the level is [`TraceLevel::Off`].
    #[inline]
    pub fn enabled(&self) -> bool {
        self.level != TraceLevel::Off
    }

    /// `true` only at [`TraceLevel::Event`] — the gate the [`trace!`]
    /// macro checks before paying for `format!`.
    ///
    /// [`trace!`]: crate::trace!
    #[inline]
    pub fn detailed(&self) -> bool {
        self.level == TraceLevel::Event
    }

    /// Records one event (no-op when the recorder is off).
    pub fn record(&self, day: u32, stage: &'static str, entity: u64, detail: String) {
        if !self.enabled() {
            return;
        }
        let mut inner = self.inner.lock().expect("recorder lock");
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.events.push_back(TraceEvent {
            seq,
            day,
            stage,
            entity,
            detail,
        });
        if inner.events.len() > self.cap {
            inner.events.pop_front();
            inner.dropped += 1;
        }
    }

    /// Absorbs `other`'s events in their recorded order, **re-stamping**
    /// each with this recorder's sequence counter. Folding per-item
    /// recorders in item order therefore reproduces the single-threaded
    /// stream bit-for-bit — the same contract as
    /// [`Registry::merge_from`](crate::Registry::merge_from).
    pub fn merge_from(&self, other: &FlightRecorder) {
        if !self.enabled() {
            return;
        }
        let theirs = other.inner.lock().expect("recorder lock");
        let mut inner = self.inner.lock().expect("recorder lock");
        inner.dropped += theirs.dropped;
        for ev in &theirs.events {
            let seq = inner.next_seq;
            inner.next_seq += 1;
            inner.events.push_back(TraceEvent { seq, ..ev.clone() });
            if inner.events.len() > self.cap {
                inner.events.pop_front();
                inner.dropped += 1;
            }
        }
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("recorder lock").events.len()
    }

    /// `true` when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted from the ring so far (oldest-first casualties).
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("recorder lock").dropped
    }

    /// A snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner
            .lock()
            .expect("recorder lock")
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// Deterministic text rendering — the string thread-matrix tests
    /// compare, one line per retained event plus a header.
    pub fn render(&self) -> String {
        let inner = self.inner.lock().expect("recorder lock");
        let mut out = format!(
            "flight-recorder level={} events={} dropped={}\n",
            self.level.as_str(),
            inner.events.len(),
            inner.dropped
        );
        for ev in &inner.events {
            out.push_str(&format!(
                "seq={:08} day={:04} stage={} entity={} {}\n",
                ev.seq, ev.day, ev.stage, ev.entity, ev.detail
            ));
        }
        out
    }

    /// JSON value of the retained events (deterministic half).
    pub fn to_value(&self) -> Value {
        let inner = self.inner.lock().expect("recorder lock");
        let events = inner
            .events
            .iter()
            .map(|ev| {
                Value::Map(vec![
                    ("seq".into(), Value::UInt(ev.seq)),
                    ("day".into(), Value::UInt(u64::from(ev.day))),
                    ("stage".into(), Value::Str(ev.stage.to_owned())),
                    ("entity".into(), Value::UInt(ev.entity)),
                    ("detail".into(), Value::Str(ev.detail.clone())),
                ])
            })
            .collect();
        Value::Map(vec![
            ("level".into(), Value::Str(self.level.as_str().to_owned())),
            ("dropped".into(), Value::UInt(inner.dropped)),
            ("events".into(), Value::Seq(events)),
        ])
    }
}

/// Interns a stage name back to a `&'static str` when restoring trace
/// events from a snapshot. Stage names come from a tiny fixed vocabulary
/// (span-style literals), so the leak is bounded by that vocabulary, not
/// by the number of events or restores.
fn static_stage(name: &str) -> &'static str {
    static TABLE: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Mutex::new(Vec::new()));
    let mut table = table.lock().expect("stage intern lock");
    if let Some(found) = table.iter().find(|s| **s == name) {
        return found;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    table.push(leaked);
    leaked
}

impl Snapshot for FlightRecorder {
    const TAG: &'static str = "flight-recorder";
    const VERSION: u16 = 1;

    fn write_body(&self, w: &mut Writer) {
        let inner = self.inner.lock().expect("recorder lock");
        w.put_u8(match self.level {
            TraceLevel::Off => 0,
            TraceLevel::Stage => 1,
            TraceLevel::Event => 2,
        });
        w.put_u64(self.cap as u64);
        w.put_u64(inner.next_seq);
        w.put_u64(inner.dropped);
        w.put_len(inner.events.len());
        for ev in &inner.events {
            w.put_u64(ev.seq);
            w.put_u32(ev.day);
            w.put_str(ev.stage);
            w.put_u64(ev.entity);
            w.put_str(&ev.detail);
        }
    }

    fn read_body(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let level = match r.get_u8()? {
            0 => TraceLevel::Off,
            1 => TraceLevel::Stage,
            2 => TraceLevel::Event,
            b => return Err(SnapshotError::Corrupt(format!("trace level byte {b}"))),
        };
        let cap = r.get_u64()? as usize;
        let next_seq = r.get_u64()?;
        let dropped = r.get_u64()?;
        let n = r.get_len()?;
        let mut events = VecDeque::with_capacity(n);
        for _ in 0..n {
            let seq = r.get_u64()?;
            let day = r.get_u32()?;
            let stage = static_stage(r.get_str_ref()?);
            let entity = r.get_u64()?;
            let detail = r.get_str()?;
            events.push_back(TraceEvent {
                seq,
                day,
                stage,
                entity,
                detail,
            });
        }
        Ok(FlightRecorder {
            level,
            cap: cap.max(1),
            inner: Mutex::new(RecorderInner {
                next_seq,
                dropped,
                events,
            }),
        })
    }
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
    use proptest::proptest;

    #[test]
    fn off_recorder_records_nothing() {
        let rec = FlightRecorder::disabled();
        rec.record(1, "stage.crawl", 7, "ignored".into());
        assert!(rec.is_empty());
        assert_eq!(rec.dropped(), 0);
        assert!(!rec.enabled());
        assert!(!rec.detailed());
    }

    #[test]
    fn eviction_keeps_newest_events_with_sequence_intact() {
        let rec = FlightRecorder::new(TraceLevel::Event, 4);
        for i in 0..10u64 {
            rec.record(1, "s", i, format!("e{i}"));
        }
        let evs = rec.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(rec.dropped(), 6);
        // The newest four survive, sequence numbers untouched by eviction.
        assert_eq!(
            evs.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(evs.last().unwrap().detail, "e9");
    }

    #[test]
    fn merge_restamps_in_destination_order() {
        let a = FlightRecorder::unbounded(TraceLevel::Event);
        let b = FlightRecorder::unbounded(TraceLevel::Event);
        a.record(1, "s", 0, "a0".into());
        b.record(1, "s", 0, "b0".into());
        b.record(1, "s", 1, "b1".into());
        let parent = FlightRecorder::new(TraceLevel::Event, 64);
        parent.merge_from(&a);
        parent.merge_from(&b);
        let evs = parent.events();
        assert_eq!(evs.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(
            evs.iter().map(|e| e.detail.as_str()).collect::<Vec<_>>(),
            vec!["a0", "b0", "b1"]
        );
    }

    #[test]
    fn recorder_snapshot_roundtrip_renders_identically() {
        let rec = FlightRecorder::new(TraceLevel::Event, 4);
        for i in 0..9u64 {
            rec.record(3, "stage.crawl", i, format!("e{i}"));
        }
        let back = FlightRecorder::decode(&rec.encode()).unwrap();
        assert_eq!(back.render(), rec.render());
        assert_eq!(back.dropped(), rec.dropped());
        // Recording continues with the preserved sequence counter.
        back.record(4, "stage.crawl", 99, "next".into());
        rec.record(4, "stage.crawl", 99, "next".into());
        assert_eq!(back.render(), rec.render());
    }

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

    /// Replays `ops` through `shards` unbounded work-item recorders
    /// merged in item order into a bounded parent; must equal direct
    /// bounded recording of the same stream.
    fn recorder_by_split(ops: &[(u8, u32)], shards: usize, cap: usize) -> (String, String) {
        let direct = FlightRecorder::new(TraceLevel::Event, cap);
        let parts: Vec<FlightRecorder> = (0..shards)
            .map(|_| FlightRecorder::unbounded(TraceLevel::Event))
            .collect();
        // Contiguous split, like day-shards over the PSR store: item i
        // owns an equal contiguous slice of the op stream.
        let chunk = ops.len().div_ceil(shards.max(1)).max(1);
        for (i, (entity, day)) in ops.iter().enumerate() {
            let detail = format!("op{i}");
            direct.record(*day, "s", u64::from(*entity), detail.clone());
            parts[(i / chunk).min(shards - 1)].record(*day, "s", u64::from(*entity), detail);
        }
        let merged = FlightRecorder::new(TraceLevel::Event, cap);
        for p in &parts {
            merged.merge_from(p);
        }
        (direct.render(), merged.render())
    }

    proptest! {
        /// Shard-order merge is bit-identical at 1, 2, and 8 "threads":
        /// re-stamping makes the merged stream depend only on shard
        /// order, so any worker count reproduces direct recording.
        #[test]
        fn merge_is_bit_identical_across_shard_counts(
            ops in proptest::collection::vec((0u8..16, 0u32..400), 1..96)
        ) {
            for shards in [1usize, 2, 8] {
                let (direct, merged) = recorder_by_split(&ops, shards, 1 << 10);
                assert_eq!(direct, merged, "diverged at {shards} shards");
            }
        }

        /// Eviction under any pressure keeps exactly the newest `cap`
        /// events, their sequence numbers contiguous and intact.
        #[test]
        fn eviction_is_newest_wins_with_intact_sequences(
            n in 1usize..200, cap in 1usize..32
        ) {
            let rec = FlightRecorder::new(TraceLevel::Event, cap);
            for i in 0..n {
                rec.record(0, "s", i as u64, String::new());
            }
            let evs = rec.events();
            let kept = n.min(cap);
            assert_eq!(evs.len(), kept);
            assert_eq!(rec.dropped() as usize, n - kept);
            let first = (n - kept) as u64;
            for (i, ev) in evs.iter().enumerate() {
                assert_eq!(ev.seq, first + i as u64);
            }
        }
    }
}
