//! # ss-obs
//!
//! Zero-dependency telemetry for the study pipeline: a thread-safe
//! [`Registry`] of named [`Counter`](Registry::count)s, log-scale
//! [`Histogram`]s (fixed power-of-two buckets with `p50`/`p95`/`max`),
//! and one per-thread frame stack ([`CostScope`]) that meters phase
//! costs and is the library's only wall-clock record — plus label
//! support (`crawl.psr{vertical=Uggs}`), a macro-lite recording API
//! ([`count!`], [`observe!`]), registry merging, and JSON export
//! through the vendored `serde_json`.
//!
//! ## Determinism contract
//!
//! The registry is split into a **deterministic half** (counters,
//! histograms and the cost rows' work and heap columns — pure integer
//! aggregates of what the program *did*) and a **wall-clock half** (the
//! rows' nanosecond fields, the wall rows [`Registry::span`] records,
//! and the [`Registry::timeline`]). [`Registry::merge_from`] on the
//! deterministic half is associative and commutative, so per-worker
//! registries merged in any fixed order reproduce the single-threaded
//! registry bit-for-bit; [`Registry::metrics_json`] and
//! [`Registry::costs_json`] export only that half and are the strings
//! thread-matrix tests compare. Wall time is exported separately
//! ([`Registry::cost_timings_value`]) and never participates in
//! determinism checks.
//!
//! ## Usage
//!
//! ```
//! use ss_obs::Registry;
//!
//! let reg = Registry::new();
//! ss_obs::count!(reg, "crawl.fetch");
//! ss_obs::count!(reg, "crawl.fetch", 2, vertical = "Uggs");
//! ss_obs::observe!(reg, "crawl.psr_rank", 7);
//! let stage = reg.span("stage.crawl");
//! let elapsed_ns = stage.finish();
//! assert_eq!(reg.counter_total("crawl.fetch"), 3);
//! assert_eq!(reg.counter("crawl.fetch{vertical=Uggs}"), 2);
//! let row = reg.cost_stats("stage.crawl").unwrap();
//! assert_eq!((row.enters, row.total_ns, row.wall), (1, elapsed_ns, true));
//! assert_eq!(reg.timeline()[0].path, "stage.crawl");
//! ```

#![deny(unsafe_code)] // `allow`ed only for the counting global allocator.
#![warn(missing_docs)]

mod alloc;
mod cost;
mod histogram;
mod registry;
mod trace;

pub use crate::alloc::{pause_metering, thread_alloc_counts, CountingAlloc, MeterPause};
pub use cost::{
    charge, folded_cost, folded_wall, render_tree, CostScope, CostStats, Slice, WorkKind,
};
pub use histogram::{Histogram, BUCKETS};
pub use registry::{MetricKey, Registry};
pub use trace::{ChromeTrace, FlightRecorder, TraceEvent, TraceLevel};

/// A rendered metric label value — borrowed when the source type already
/// is a string, owned only when rendering had to allocate (numbers).
pub enum Label<'a> {
    /// Borrowed straight from the labeled value.
    Str(&'a str),
    /// Rendered into an owned string.
    Owned(String),
}

impl Label<'_> {
    /// The label text.
    pub fn as_str(&self) -> &str {
        match self {
            Label::Str(s) => s,
            Label::Owned(s) => s,
        }
    }
}

/// Conversion into a metric [`Label`], used by the [`count!`] and
/// [`observe!`] macros. String-like values and booleans convert without
/// allocating — the hot-path contract the allocation meter pinned down;
/// numeric labels render through an owned string.
pub trait ToLabel {
    /// Renders the value as a label.
    fn to_label(&self) -> Label<'_>;
}

impl ToLabel for str {
    fn to_label(&self) -> Label<'_> {
        Label::Str(self)
    }
}

impl ToLabel for String {
    fn to_label(&self) -> Label<'_> {
        Label::Str(self)
    }
}

impl ToLabel for bool {
    fn to_label(&self) -> Label<'_> {
        Label::Str(if *self { "true" } else { "false" })
    }
}

impl<T: ToLabel + ?Sized> ToLabel for &T {
    fn to_label(&self) -> Label<'_> {
        (**self).to_label()
    }
}

macro_rules! impl_to_label_numeric {
    ($($t:ty),+) => {$(
        impl ToLabel for $t {
            fn to_label(&self) -> Label<'_> {
                Label::Owned(self.to_string())
            }
        }
    )+};
}
impl_to_label_numeric!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

/// Increments a counter: `count!(reg, "name")`, `count!(reg, "name", n)`,
/// or with labels `count!(reg, "name", n, vertical = name, kind = "x")`.
/// Label values go through [`ToLabel`], so string-like labels don't
/// allocate.
#[macro_export]
macro_rules! count {
    ($reg:expr, $name:expr) => {
        $reg.count($name, 1)
    };
    ($reg:expr, $name:expr, $n:expr) => {
        $reg.count($name, $n as u64)
    };
    ($reg:expr, $name:expr, $n:expr, $($k:ident = $v:expr),+ $(,)?) => {{
        // Borrow-then-shadow: the first binding keeps any temporary the
        // label expression produced alive for the whole block.
        $(let $k = &$v; let $k = $crate::ToLabel::to_label(&$k);)+
        $reg.count_with($name, &[$((stringify!($k), $k.as_str())),+], $n as u64)
    }};
}

/// Records a histogram observation: `observe!(reg, "name", value)`, or
/// with labels `observe!(reg, "name", value, vertical = name)`. Label
/// values go through [`ToLabel`], so string-like labels don't allocate.
#[macro_export]
macro_rules! observe {
    ($reg:expr, $name:expr, $v:expr) => {
        $reg.observe($name, $v as u64)
    };
    ($reg:expr, $name:expr, $v:expr, $($k:ident = $lv:expr),+ $(,)?) => {{
        $(let $k = &$lv; let $k = $crate::ToLabel::to_label(&$k);)+
        $reg.observe_with($name, &[$((stringify!($k), $k.as_str())),+], $v as u64)
    }};
}

/// Records a per-entity [`TraceEvent`] into a [`FlightRecorder`]:
/// `trace!(rec, day_index, "stage.crawl", domain_id, "psr rank={rank}")`.
///
/// Compile-cheap no-op below [`TraceLevel::Event`]: the `format!` (and
/// every argument expression inside it) is only evaluated after the
/// level check passes, so a disabled recorder costs one branch.
#[macro_export]
macro_rules! trace {
    ($rec:expr, $day:expr, $stage:expr, $entity:expr, $($arg:tt)+) => {
        if $rec.detailed() {
            $rec.record($day, $stage, ($entity) as u64, format!($($arg)+));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::proptest;

    #[test]
    fn labels_are_order_insensitive() {
        let reg = Registry::new();
        reg.count_with("m", &[("b", "2"), ("a", "1")], 1);
        reg.count_with("m", &[("a", "1"), ("b", "2")], 2);
        assert_eq!(reg.counter("m{a=1,b=2}"), 3);
        assert_eq!(reg.metric_names(), vec!["m{a=1,b=2}".to_owned()]);
    }

    /// Opens and closes one wall frame under `path` with a synthetic
    /// duration (the clock-free half of [`Registry::span`]).
    fn wall_frame(reg: &Registry, path: &'static str, elapsed_ns: u64) {
        cost::enter_frame(cost::FrameKind::Wall);
        reg.cost_exit(path, elapsed_ns);
    }

    #[test]
    fn merge_folds_counters_histograms_and_spans() {
        let a = Registry::new();
        let b = Registry::new();
        a.count("c", 2);
        b.count("c", 3);
        a.observe("h", 10);
        b.observe("h", 20);
        wall_frame(&a, "s", 100);
        wall_frame(&b, "s", 50);
        drop(b.span("t"));
        a.merge_from(&b);
        assert_eq!(a.counter("c"), 5);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        let s = a.cost_stats("s").unwrap();
        assert_eq!(
            (s.enters, s.total_ns, s.self_ns, s.wall),
            (2, 150, 150, true)
        );
        // The other registry's timeline is appended to this one's.
        let paths: Vec<&str> = a.timeline().iter().map(|s| s.path).collect();
        assert_eq!(paths, ["t"]);
    }

    /// Merging under a metered scope reads the same heap columns whether
    /// the destination is empty or already holds every key: the merge's
    /// own bookkeeping counts nowhere.
    #[test]
    fn merge_under_a_metered_scope_is_independent_of_the_destination() {
        let worker = Registry::new();
        worker.count_with("fetch", &[("vertical", "bags")], 3);
        worker.observe("latency", 40);
        worker.record_cost("crawl/fetch", CostStats::default());
        drop(worker.span("crawl.day"));
        let merge_cost = |dest: &Registry| {
            let probe = Registry::new();
            drop(probe.cost_scope("warm"));
            {
                let _scope = probe.cost_scope("merge");
                dest.merge_from(&worker);
            }
            let s = probe.cost_stats("merge").expect("merge row");
            (s.allocs, s.bytes, s.frees)
        };
        let empty = Registry::new();
        let full = Registry::new();
        for _ in 0..3 {
            full.merge_from(&worker);
        }
        let (into_empty, into_full) = (merge_cost(&empty), merge_cost(&full));
        assert_eq!(into_empty, into_full);
        assert_eq!(into_empty, (0, 0, 0), "the merge's bookkeeping was metered");
    }

    #[test]
    fn wall_rows_stay_out_of_the_deterministic_exports() {
        use ss_types::snapshot::Snapshot;
        let reg = Registry::new();
        reg.count("c", 1);
        {
            let _wall = reg.span("study.wall");
            let _scope = reg.cost_scope("t/phase");
        }
        assert!(!reg.metrics_json().contains("study.wall"));
        assert!(!reg.costs_json().contains("study.wall"));
        assert!(reg.costs_json().contains("t/phase"));
        let restored = Registry::decode(&reg.encode()).expect("registry round-trips");
        assert_eq!(restored.cost_stats("study.wall"), None);
        assert!(restored.timeline().is_empty());
        assert_eq!(restored.costs_json(), reg.costs_json());
        assert!(serde_json::to_string(&reg.cost_timings_value())
            .expect("renders")
            .contains("study.wall"));
        let paths: Vec<&str> = reg.timeline().iter().map(|s| s.path).collect();
        assert_eq!(paths, ["study.wall"]);
    }

    #[test]
    fn trace_macro_is_a_noop_when_disabled() {
        let off = FlightRecorder::disabled();
        let mut evaluated = false;
        crate::trace!(off, 3, "stage.crawl", 9, "{}", {
            evaluated = true;
            "side effect"
        });
        assert!(!evaluated, "format args must not run when disabled");
        assert!(off.is_empty());

        let on = FlightRecorder::new(TraceLevel::Event, 8);
        crate::trace!(on, 3, "stage.crawl", 9, "rank={}", 4);
        assert_eq!(on.len(), 1);
        assert_eq!(on.events()[0].detail, "rank=4");
    }

    #[test]
    fn span_timer_nests_via_raii() {
        let reg = Registry::new();
        {
            let _outer = reg.span("outer");
            let _inner = reg.span("inner");
        }
        let outer = reg.cost_stats("outer").unwrap();
        let inner = reg.cost_stats("inner").unwrap();
        assert_eq!(outer.enters, 1);
        assert_eq!(inner.enters, 1);
        // The child's full elapsed time was carved out of the parent.
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        // The child had no children: all its time is self time.
        assert_eq!(inner.self_ns, inner.total_ns);
        // The timeline lists the child first (close order), inside its
        // parent's slice.
        let [i, o] = reg.timeline()[..] else {
            panic!("two slices expected")
        };
        assert_eq!((i.path, o.path), ("inner", "outer"));
        assert!(o.start_us <= i.start_us && i.start_us + i.dur_us <= o.start_us + o.dur_us);
    }

    /// Replays a generated sequence of counter increments split across
    /// `k` registries, merged in two different groupings; both must equal
    /// the registry that saw every increment directly.
    fn counters_by_split(ops: &[(u8, u8, u32)]) -> (Registry, Registry, Registry) {
        let direct = Registry::new();
        let parts: Vec<Registry> = (0..4).map(|_| Registry::new()).collect();
        for (part, name, n) in ops {
            let name = format!("c{}", name % 5);
            direct.count(&name, u64::from(*n));
            parts[(*part % 4) as usize].count(&name, u64::from(*n));
        }
        // Left fold: ((p0 + p1) + p2) + p3.
        let left = Registry::new();
        for p in &parts {
            left.merge_from(p);
        }
        // Right-ish fold with a different association and order:
        // p3 + (p2 + (p1 + p0)).
        let right = Registry::new();
        for p in parts.iter().rev() {
            right.merge_from(p);
        }
        (direct, left, right)
    }

    proptest! {
        /// Counter merge is associative and commutative: any grouping or
        /// order of per-worker registries equals direct recording.
        #[test]
        fn counter_merge_is_associative_and_commutative(
            ops in proptest::collection::vec((0u8..4, 0u8..5, 0u32..1000), 0..64)
        ) {
            let (direct, left, right) = counters_by_split(&ops);
            assert_eq!(direct.metrics_json(), left.metrics_json());
            assert_eq!(direct.metrics_json(), right.metrics_json());
        }

        /// Histogram merge is order-independent: observations scattered
        /// across workers and merged in opposite orders produce the exact
        /// histogram of the full observation stream.
        #[test]
        fn histogram_merge_is_order_independent(
            obs in proptest::collection::vec((0u8..4, 0u64..1_000_000), 0..64)
        ) {
            let direct = Registry::new();
            let parts: Vec<Registry> = (0..4).map(|_| Registry::new()).collect();
            for (part, v) in &obs {
                direct.observe("h", *v);
                parts[(*part % 4) as usize].observe("h", *v);
            }
            let fwd = Registry::new();
            for p in &parts {
                fwd.merge_from(p);
            }
            let rev = Registry::new();
            for p in parts.iter().rev() {
                rev.merge_from(p);
            }
            assert_eq!(direct.metrics_json(), fwd.metrics_json());
            assert_eq!(direct.metrics_json(), rev.metrics_json());
            assert_eq!(direct.histogram("h"), fwd.histogram("h"));
        }

        /// Cost-row merge is associative and commutative: synthetic
        /// per-phase deltas scattered across worker registries and
        /// folded in different groupings always equal direct recording.
        #[test]
        fn cost_merge_is_associative_and_commutative(
            ops in proptest::collection::vec(
                ((0u8..4, 0u8..3), (0u64..1000, 0u64..4096), (0usize..WorkKind::COUNT, 0u64..100)),
                0..64,
            )
        ) {
            const PATHS: [&str; 3] = ["p/a", "p/b", "q"];
            let direct = Registry::new();
            let parts: Vec<Registry> = (0..4).map(|_| Registry::new()).collect();
            for ((part, path), (allocs, bytes), (kind, n)) in &ops {
                let mut stats = CostStats {
                    enters: 1,
                    allocs: *allocs,
                    bytes: *bytes,
                    frees: *allocs,
                    ..CostStats::default()
                };
                stats.work[*kind] = *n;
                let path = PATHS[(*path % 3) as usize];
                direct.record_cost(path, stats);
                parts[(*part % 4) as usize].record_cost(path, stats);
            }
            let left = Registry::new();
            for p in &parts {
                left.merge_from(p);
            }
            let right = Registry::new();
            for p in parts.iter().rev() {
                right.merge_from(p);
            }
            assert_eq!(direct.costs_json(), left.costs_json());
            assert_eq!(direct.costs_json(), right.costs_json());
        }

        /// Frame nesting never double-counts: for any well-formed nesting
        /// of metered, work and wall frames replayed with synthetic
        /// durations, the exclusive (self) times across all rows sum
        /// exactly to the root frames' total elapsed time — every
        /// nanosecond attributed once, none twice, whatever the kind.
        #[test]
        fn frame_nesting_never_double_counts(
            shape in proptest::collection::vec((0u8..3, 0u8..2, 1u64..1_000_000), 1..32)
        ) {
            const KINDS: [(cost::FrameKind, &str); 3] = [
                (cost::FrameKind::Metered, "p/metered"),
                (cost::FrameKind::Work, "p/work"),
                (cost::FrameKind::Wall, "p.wall"),
            ];
            let reg = Registry::new();
            // Shadow stack mirroring the registry's frames: each open frame
            // carries its own exclusive work `own` and accumulates its
            // children's elapsed time, exactly like a real timed region.
            let mut shadow: Vec<(&'static str, u64, u64)> = Vec::new(); // (path, own, child)
            let mut roots_elapsed = 0u64;
            let mut own_work_total = 0u64;
            let close_innermost = |reg: &Registry,
                                   shadow: &mut Vec<(&'static str, u64, u64)>,
                                   roots: &mut u64| {
                let Some((path, own, child)) = shadow.pop() else { return };
                let elapsed = own + child;
                reg.cost_exit(path, elapsed);
                match shadow.last_mut() {
                    Some(parent) => parent.2 += elapsed,
                    None => *roots += elapsed,
                }
            };
            for (kind, close_after, dur) in &shape {
                let (kind, path) = KINDS[*kind as usize];
                cost::enter_frame(kind);
                shadow.push((path, *dur, 0));
                own_work_total += *dur;
                if *close_after == 1 {
                    close_innermost(&reg, &mut shadow, &mut roots_elapsed);
                }
            }
            while !shadow.is_empty() {
                close_innermost(&reg, &mut shadow, &mut roots_elapsed);
            }
            let sum_self: u64 = reg.costs().iter().map(|(_, s)| s.self_ns).sum();
            // Exclusive times partition the root elapsed exactly: nothing
            // double-counted (sum equals the work actually performed),
            // nothing lost (it also equals the roots' elapsed total).
            // Note `total_ns` is *inclusive* and aggregates per path, so
            // it can legitimately exceed the roots' elapsed when a frame
            // nests inside a same-path frame; only self time partitions.
            assert_eq!(sum_self, roots_elapsed);
            assert_eq!(sum_self, own_work_total);
        }
    }
}

#[cfg(test)]
mod cost_tests {
    use super::*;
    use serde::Value;

    #[test]
    fn cost_scope_attributes_exclusively() {
        let reg = Registry::new();
        {
            let _outer = reg.cost_scope("t/outer");
            let outer_buf: Vec<u8> = Vec::with_capacity(64);
            {
                let _inner = reg.cost_scope("t/outer/inner");
                let inner_buf: Vec<u8> = Vec::with_capacity(128);
                charge(WorkKind::DocsFetched, 3);
                drop(inner_buf);
            }
            charge(WorkKind::JsVmSteps, 5);
            drop(outer_buf);
        }
        let outer = reg.cost_stats("t/outer").unwrap();
        let inner = reg.cost_stats("t/outer/inner").unwrap();
        assert_eq!((inner.enters, inner.allocs, inner.frees), (1, 1, 1));
        assert_eq!(inner.bytes, 128);
        assert_eq!(inner.work[WorkKind::DocsFetched as usize], 3);
        // The child's heap traffic and work were carved out of the parent.
        assert_eq!((outer.enters, outer.allocs, outer.frees), (1, 1, 1));
        assert_eq!(outer.bytes, 64);
        assert_eq!(outer.work[WorkKind::DocsFetched as usize], 0);
        assert_eq!(outer.work[WorkKind::JsVmSteps as usize], 5);
        assert!(outer.total_ns >= inner.total_ns);
    }

    #[test]
    fn work_scope_records_work_but_zero_alloc_columns() {
        let reg = Registry::new();
        {
            let _w = reg.work_scope("t/work");
            let buf: Vec<u8> = Vec::with_capacity(256);
            charge(WorkKind::EventsPlanned, 7);
            drop(buf);
        }
        let s = reg.cost_stats("t/work").unwrap();
        assert_eq!((s.enters, s.allocs, s.bytes, s.frees), (0, 0, 0, 0));
        assert_eq!(s.work[WorkKind::EventsPlanned as usize], 7);
        assert!(s.total_ns > 0);
    }

    #[test]
    fn charge_without_open_scope_is_a_noop() {
        let reg = Registry::new();
        charge(WorkKind::PsrRowsScanned, 100);
        assert!(reg.costs().is_empty());
    }

    /// Runs the same metered and work scopes, with wall frames between
    /// them when `walls` is set: allocations and charges made while a
    /// wall frame is innermost, a cost child under a wall frame, a wall
    /// frame under a work scope, and a charge with only a wall frame open.
    fn scripted_scopes(reg: &Registry, walls: bool) {
        let wall = |path| walls.then(|| reg.span(path));
        let outer = wall("t.outer");
        {
            let _metered = reg.cost_scope("t/metered");
            let a: Vec<u8> = Vec::with_capacity(64);
            let inner = wall("t.inner");
            let b: Vec<u8> = Vec::with_capacity(128);
            charge(WorkKind::DocsFetched, 2);
            {
                let _child = reg.cost_scope("t/metered/child");
                let c: Vec<u8> = Vec::with_capacity(32);
                charge(WorkKind::JsVmSteps, 3);
                drop(c);
            }
            drop(inner);
            {
                let _work = reg.work_scope("t/work");
                let deep = wall("t.deep");
                charge(WorkKind::EventsPlanned, 5);
                drop(deep);
            }
            drop((a, b));
        }
        charge(WorkKind::PsrRowsScanned, 7);
        drop(outer);
    }

    #[test]
    fn wall_frames_leave_cost_columns_untouched() {
        let without = Registry::new();
        scripted_scopes(&without, false);
        let with = Registry::new();
        scripted_scopes(&with, true);
        assert_eq!(with.costs_json(), without.costs_json());
        // The allocation made while `t.inner` was innermost stays with
        // the enclosing metered scope; only the cost child is carved out.
        let m = with.cost_stats("t/metered").unwrap();
        assert_eq!((m.allocs, m.bytes), (2, 64 + 128));
        assert_eq!(m.work[WorkKind::DocsFetched as usize], 2);
        // Wall rows take no charge, so the charge made with only
        // `t.outer` open was dropped.
        let walls: Vec<_> = with.costs().into_iter().filter(|(_, s)| s.wall).collect();
        assert_eq!(walls.len(), 3);
        for (path, s) in &walls {
            assert_eq!(
                (s.enters, s.allocs, s.bytes, s.frees, s.work_total()),
                (1, 0, 0, 0, 0),
                "{path}"
            );
        }
        assert!(!with.costs_json().contains("psr_rows_scanned"));
    }

    /// The crawl-plane merge pattern: per-item registries, items
    /// partitioned across worker threads, merged in item order. The
    /// deterministic cost columns must be byte-identical at 1/2/8
    /// threads — the contract `repro profile --threads` relies on.
    fn matrix_run(threads: usize) -> String {
        let items = 12;
        let regs: Vec<Registry> = (0..items).map(|_| Registry::new()).collect();
        std::thread::scope(|s| {
            for t in 0..threads {
                let regs = &regs;
                s.spawn(move || {
                    for i in (t..items).step_by(threads) {
                        let _scope = regs[i].cost_scope("w/phase");
                        let mut v: Vec<u64> = Vec::new();
                        for j in 0..(i + 1) * 3 {
                            v.push(j as u64);
                        }
                        charge(WorkKind::PostingsWalked, v.len() as u64);
                    }
                });
            }
        });
        let merged = Registry::new();
        for r in &regs {
            merged.merge_from(r);
        }
        merged.costs_json()
    }

    #[test]
    fn cost_matrix_is_bit_identical_across_thread_counts() {
        let serial = matrix_run(1);
        assert_eq!(serial, matrix_run(2));
        assert_eq!(serial, matrix_run(8));
        assert!(serial.contains("postings_walked"));
    }

    #[test]
    fn costs_json_excludes_wall_clock_fields() {
        let reg = Registry::new();
        {
            let _scope = reg.cost_scope("t/phase");
        }
        assert!(!reg.costs_json().contains("_ms"));
        assert!(!reg.costs_json().contains("_ns"));
        let Value::Map(timings) = reg.cost_timings_value() else {
            panic!("timings are a map")
        };
        assert_eq!(timings[0].0, "t/phase");
    }

    #[test]
    fn folded_exports_use_semicolon_stacks() {
        let reg = Registry::new();
        let mut stats = CostStats {
            allocs: 10,
            self_ns: 5_000_000,
            ..CostStats::default()
        };
        stats.work[WorkKind::DocsFetched as usize] = 4;
        reg.record_cost("crawl/fetch", stats);
        assert_eq!(folded_cost(&reg), "crawl;fetch 14\n");
        assert_eq!(folded_wall(&reg), "crawl;fetch 5000\n");
        assert!(render_tree(&reg).contains("docs_fetched=4"));
    }

    #[test]
    fn registry_snapshot_round_trips_cost_rows() {
        use ss_types::snapshot::Snapshot;
        let reg = Registry::new();
        reg.count("c", 3);
        {
            let _scope = reg.cost_scope("t/a");
            let buf: Vec<u8> = Vec::with_capacity(32);
            charge(WorkKind::JsCompiles, 2);
            drop(buf);
        }
        let restored = Registry::decode(&reg.encode()).expect("registry round-trips");
        // Deterministic columns round-trip; wall-clock fields reset.
        let before = reg.cost_stats("t/a").unwrap();
        let after = restored.cost_stats("t/a").unwrap();
        assert_eq!(
            (before.enters, before.allocs, before.bytes, before.frees),
            (after.enters, after.allocs, after.bytes, after.frees)
        );
        assert_eq!(before.work, after.work);
        assert_eq!((after.total_ns, after.self_ns), (0, 0));
        assert_eq!(reg.costs_json(), restored.costs_json());
        assert_eq!(restored.counter("c"), 3);
    }
}
