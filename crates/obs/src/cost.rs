//! The cost-scope frame stack: deterministic work accounting per phase,
//! and the library's one wall-clock record.
//!
//! Wall-clock profiles are noise on shared hardware, so perf regressions
//! here gate on *countable work* instead: a [`CostScope`] meters the
//! heap traffic (allocations / bytes / frees, via the counting global
//! allocator in [`crate::alloc`]) and typed work units ([`WorkKind`])
//! performed inside a hierarchical phase like `crawl/render`. Each
//! thread keeps one stack of open frames; a closing frame's inclusive
//! heap delta is credited to its parent, and the recorded columns are
//! **exclusive** (self) values, so summing any column over all phases
//! never double-counts. Every frame also credits its elapsed time to its
//! parent, so self times split each thread's wall clock across the open
//! frames with no overlap and nothing uncounted.
//!
//! ## Determinism rule
//!
//! Three frame flavours share the stack and encode the determinism
//! contract:
//!
//! - [`Registry::cost_scope`](crate::Registry::cost_scope) — full
//!   metering. Only for code that is a *stable parallel unit*: the same
//!   work lands in the same scope on the same thread no matter the
//!   thread count (the crawl's per-vertical phases, recorded into
//!   per-vertical registries merged in vertical order).
//! - [`Registry::work_scope`](crate::Registry::work_scope) — work units
//!   and wall time only; the enter and allocation columns stay zero.
//!   For driver-side code whose entry counts or heap pattern would be
//!   thread-schedule-dependent.
//! - [`Registry::span`](crate::Registry::span) — wall time only. A wall
//!   frame takes no work charge (a [`charge`] goes to the innermost
//!   non-wall frame) and passes its parent only the heap traffic its
//!   cost children carved out, so opening or removing one never moves a
//!   deterministic column. Its row counts closes in `enters` and is
//!   flagged [`CostStats::wall`]; each close also appends a [`Slice`]
//!   to the registry's timeline.
//!
//! Everything except `total_ns`/`self_ns` of the unflagged rows is
//! deterministic and appears in
//! [`Registry::costs_value`](crate::Registry::costs_value) — the export
//! goldens compare. Wall time and wall rows are exported separately and
//! never participate in determinism checks.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::alloc::{pause_metering, thread_alloc_counts};
use crate::Registry;

/// The typed work-unit ledger: each variant is one countable unit of
/// work the pipeline performs at a known choke point. Charged into the
/// innermost open scope via [`charge`], or directly onto a phase row via
/// [`Registry::add_work`](crate::Registry::add_work).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum WorkKind {
    /// Pages fetched by the crawler (crawler + user-agent fetches).
    DocsFetched,
    /// Distinct scripts compiled by the JS bytecode cache.
    JsCompiles,
    /// Bytecode VM step-budget units consumed executing scripts.
    JsVmSteps,
    /// Postings entries walked by the SERP top-k heap walk.
    PostingsWalked,
    /// Candidate pushes into the SERP top-k heap.
    SerpHeapPushes,
    /// PSR rows scanned by the fused analysis pass.
    PsrRowsScanned,
    /// World events emitted by tick planners.
    EventsPlanned,
    /// World events applied at the commit choke point.
    EventsApplied,
}

impl WorkKind {
    /// Number of work kinds (the width of [`CostStats::work`]).
    pub const COUNT: usize = 8;

    /// Every kind, in column order.
    pub const ALL: [WorkKind; WorkKind::COUNT] = [
        WorkKind::DocsFetched,
        WorkKind::JsCompiles,
        WorkKind::JsVmSteps,
        WorkKind::PostingsWalked,
        WorkKind::SerpHeapPushes,
        WorkKind::PsrRowsScanned,
        WorkKind::EventsPlanned,
        WorkKind::EventsApplied,
    ];

    /// The stable snake_case column name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            WorkKind::DocsFetched => "docs_fetched",
            WorkKind::JsCompiles => "js_compiles",
            WorkKind::JsVmSteps => "js_vm_steps",
            WorkKind::PostingsWalked => "postings_walked",
            WorkKind::SerpHeapPushes => "serp_heap_pushes",
            WorkKind::PsrRowsScanned => "psr_rows_scanned",
            WorkKind::EventsPlanned => "events_planned",
            WorkKind::EventsApplied => "events_applied",
        }
    }
}

/// Aggregated cost for one phase path. All columns except the two
/// nanosecond fields are deterministic; merging is pure integer
/// addition, so per-worker registries merged in any fixed order
/// reproduce the single-threaded profile bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostStats {
    /// Completed metered scopes, or closes of a wall row (0 for
    /// work-only scopes, whose entry count may be thread-dependent).
    pub enters: u64,
    /// Heap allocations performed inside the phase (exclusive of child
    /// phases; 0 for work-only scopes and wall rows).
    pub allocs: u64,
    /// Heap bytes requested inside the phase (exclusive; 0 for
    /// work-only scopes and wall rows).
    pub bytes: u64,
    /// Heap frees inside the phase (exclusive; 0 for work-only scopes
    /// and wall rows).
    pub frees: u64,
    /// Work units by [`WorkKind`], charged to the innermost open
    /// non-wall scope.
    pub work: [u64; WorkKind::COUNT],
    /// Wall-clock nanoseconds, inclusive of children. **Not**
    /// deterministic — excluded from goldens.
    pub total_ns: u64,
    /// Wall-clock nanoseconds, children subtracted. **Not**
    /// deterministic — excluded from goldens.
    pub self_ns: u64,
    /// Recorded by a wall frame ([`Registry::span`](crate::Registry::span)):
    /// the row is left out of the deterministic exports and snapshots.
    pub wall: bool,
}

impl Default for CostStats {
    fn default() -> Self {
        CostStats {
            enters: 0,
            allocs: 0,
            bytes: 0,
            frees: 0,
            work: [0; WorkKind::COUNT],
            total_ns: 0,
            self_ns: 0,
            wall: false,
        }
    }
}

impl CostStats {
    /// Folds another phase aggregate into this one (integer addition —
    /// associative and commutative).
    pub fn merge(&mut self, other: &CostStats) {
        self.enters = self.enters.saturating_add(other.enters);
        self.allocs = self.allocs.saturating_add(other.allocs);
        self.bytes = self.bytes.saturating_add(other.bytes);
        self.frees = self.frees.saturating_add(other.frees);
        for (w, o) in self.work.iter_mut().zip(other.work.iter()) {
            *w = w.saturating_add(*o);
        }
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.self_ns = self.self_ns.saturating_add(other.self_ns);
        self.wall |= other.wall;
    }

    /// Sum of every work-unit column.
    pub fn work_total(&self) -> u64 {
        self.work.iter().sum()
    }
}

/// One closed wall frame on the registry's timeline. Microseconds since
/// the process's first wall frame opened; never compared across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slice {
    /// The frame's path (`study.day`, `stage.crawl`, …).
    pub path: &'static str,
    /// Start, in microseconds since the timeline origin.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// What a frame records when it closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameKind {
    /// Enters, exclusive heap traffic, work units and wall time.
    Metered,
    /// Work units and wall time.
    Work,
    /// Wall time only.
    Wall,
}

/// One open scope on this thread's stack.
struct Frame {
    kind: FrameKind,
    /// Thread allocation counters at entry.
    allocs0: u64,
    bytes0: u64,
    frees0: u64,
    /// Inclusive heap traffic of already-closed cost children (subtracted
    /// to make the recorded columns exclusive).
    child_allocs: u64,
    child_bytes: u64,
    child_frees: u64,
    /// Elapsed nanoseconds of already-closed children.
    child_ns: u64,
    /// Work units charged while this frame was the innermost non-wall one.
    work: [u64; WorkKind::COUNT],
}

thread_local! {
    /// Per-thread stack of open frames.
    static FRAMES: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Pushes a fresh frame, snapshotting the thread's allocation counters.
pub(crate) fn enter_frame(kind: FrameKind) {
    // The push itself (and any Vec growth) must not count against the
    // enclosing scope.
    let _p = pause_metering();
    let (a, b, f) = thread_alloc_counts();
    FRAMES.with(|fr| {
        fr.borrow_mut().push(Frame {
            kind,
            allocs0: a,
            bytes0: b,
            frees0: f,
            child_allocs: 0,
            child_bytes: 0,
            child_frees: 0,
            child_ns: 0,
            work: [0; WorkKind::COUNT],
        });
    });
}

/// Pops the innermost frame and returns its recorded [`CostStats`]
/// delta, crediting its elapsed time to the parent frame together with
/// its inclusive heap traffic (a wall frame passes on only what its cost
/// children carved out). Returns zeros when no frame is open.
pub(crate) fn exit_frame(elapsed_ns: u64) -> CostStats {
    let _p = pause_metering();
    let (a, b, f) = thread_alloc_counts();
    FRAMES.with(|fr| {
        let mut frames = fr.borrow_mut();
        let Some(frame) = frames.pop() else {
            return CostStats::default();
        };
        let wall = frame.kind == FrameKind::Wall;
        let (incl_allocs, incl_bytes, incl_frees) = if wall {
            (frame.child_allocs, frame.child_bytes, frame.child_frees)
        } else {
            (
                a.saturating_sub(frame.allocs0),
                b.saturating_sub(frame.bytes0),
                f.saturating_sub(frame.frees0),
            )
        };
        if let Some(parent) = frames.last_mut() {
            parent.child_allocs = parent.child_allocs.saturating_add(incl_allocs);
            parent.child_bytes = parent.child_bytes.saturating_add(incl_bytes);
            parent.child_frees = parent.child_frees.saturating_add(incl_frees);
            parent.child_ns = parent.child_ns.saturating_add(elapsed_ns);
        }
        let mut stats = CostStats {
            enters: u64::from(frame.kind != FrameKind::Work),
            work: frame.work,
            total_ns: elapsed_ns,
            self_ns: elapsed_ns.saturating_sub(frame.child_ns),
            wall,
            ..CostStats::default()
        };
        if frame.kind == FrameKind::Metered {
            stats.allocs = incl_allocs.saturating_sub(frame.child_allocs);
            stats.bytes = incl_bytes.saturating_sub(frame.child_bytes);
            stats.frees = incl_frees.saturating_sub(frame.child_frees);
        }
        stats
    })
}

/// Charges `n` work units of `kind` to the innermost open non-wall scope
/// on this thread. Silently a no-op when none is open, so library code
/// can charge unconditionally.
pub fn charge(kind: WorkKind, n: u64) {
    let _ = FRAMES.try_with(|fr| {
        let mut frames = fr.borrow_mut();
        if let Some(frame) = frames.iter_mut().rev().find(|f| f.kind != FrameKind::Wall) {
            frame.work[kind as usize] = frame.work[kind as usize].saturating_add(n);
        }
    });
}

/// The timeline origin: the start of the process's first wall frame, so
/// slices from every registry (and merged registries) share one axis.
static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// RAII frame opened by [`Registry::cost_scope`](crate::Registry::cost_scope),
/// [`Registry::work_scope`](crate::Registry::work_scope) or
/// [`Registry::span`](crate::Registry::span); records the phase's delta
/// under its path when dropped or [finished](CostScope::finish).
#[must_use = "a cost scope meters the region it is bound to; binding it to _ drops it immediately"]
pub struct CostScope<'a> {
    registry: &'a Registry,
    path: &'static str,
    start: Instant,
}

impl<'a> CostScope<'a> {
    pub(crate) fn new(registry: &'a Registry, path: &'static str, kind: FrameKind) -> Self {
        enter_frame(kind);
        let start = Instant::now();
        if kind == FrameKind::Wall {
            ORIGIN.get_or_init(|| start);
        }
        CostScope {
            registry,
            path,
            start,
        }
    }

    /// Closes the scope now and returns its elapsed nanoseconds.
    pub fn finish(self) -> u64 {
        std::mem::ManuallyDrop::new(self).close()
    }

    fn close(&self) -> u64 {
        let elapsed = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let stats = exit_frame(elapsed);
        if stats.wall {
            let origin = *ORIGIN.get_or_init(|| self.start);
            let start_ns = self.start.saturating_duration_since(origin).as_nanos() as u64;
            // Both ends round down, so a child's slice never pokes out of
            // its parent's.
            let start_us = start_ns / 1_000;
            self.registry.record_slice(Slice {
                path: self.path,
                start_us,
                dur_us: start_ns.saturating_add(elapsed) / 1_000 - start_us,
            });
        }
        self.registry.record_cost(self.path, stats);
        elapsed
    }
}

impl Drop for CostScope<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

/// Interns a phase path restored from a snapshot, so deserialized cost
/// rows share the `&'static str` keying of live call sites. The leak is
/// bounded by the number of distinct phase paths (a few dozen).
pub(crate) fn intern_path(path: &str) -> &'static str {
    static INTERNED: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let set = INTERNED.get_or_init(|| Mutex::new(BTreeSet::new()));
    let mut set = set.lock().expect("path intern poisoned");
    if let Some(existing) = set.get(path) {
        return existing;
    }
    let leaked: &'static str = Box::leak(path.to_owned().into_boxed_str());
    set.insert(leaked);
    leaked
}

// ---- rendering ----

/// A node of the phase tree assembled from `/`-separated paths.
struct Node {
    stats: CostStats,
    recorded: bool,
    children: std::collections::BTreeMap<String, Node>,
}

impl Node {
    fn new() -> Self {
        Node {
            stats: CostStats::default(),
            recorded: false,
            children: std::collections::BTreeMap::new(),
        }
    }

    /// Stats to display: own recording, or the subtree sum for implicit
    /// parents that were never directly recorded.
    fn display(&self) -> CostStats {
        if self.recorded {
            return self.stats;
        }
        let mut sum = CostStats::default();
        for child in self.children.values() {
            sum.merge(&child.display());
        }
        sum
    }
}

fn build_tree(costs: &[(&'static str, CostStats)]) -> Node {
    let mut root = Node::new();
    for (path, stats) in costs {
        let mut node = &mut root;
        for part in path.split('/') {
            node = node
                .children
                .entry(part.to_owned())
                .or_insert_with(Node::new);
        }
        node.stats = *stats;
        node.recorded = true;
    }
    root
}

/// Renders the hierarchical phase tree as an aligned text table:
/// deterministic columns (enters, allocs, bytes, frees, work units)
/// followed by wall-clock self/total milliseconds. Implicit parent rows
/// show their subtree's sums; wall rows (`study.day`, `stage.*`, …) show
/// their closes under `enters` and zeros in the heap and work columns.
pub fn render_tree(registry: &Registry) -> String {
    let costs = registry.costs();
    if costs.is_empty() {
        return "no cost scopes recorded\n".to_owned();
    }
    let mut rows: Vec<(String, CostStats)> = Vec::new();
    fn walk(node: &Node, name: &str, depth: usize, rows: &mut Vec<(String, CostStats)>) {
        if !name.is_empty() {
            rows.push((
                format!("{}{}", "  ".repeat(depth - 1), name),
                node.display(),
            ));
        }
        for (child_name, child) in &node.children {
            walk(child, child_name, depth + 1, rows);
        }
    }
    let root = build_tree(&costs);
    walk(&root, "", 0, &mut rows);

    let name_w = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(5).max(5);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<name_w$}  {:>8}  {:>12}  {:>14}  {:>12}  {:>10}  {:>10}  work\n",
        "phase", "enters", "allocs", "bytes", "frees", "self_ms", "total_ms",
    ));
    for (name, s) in &rows {
        let work: Vec<String> = WorkKind::ALL
            .iter()
            .filter(|k| s.work[**k as usize] > 0)
            .map(|k| format!("{}={}", k.name(), s.work[*k as usize]))
            .collect();
        out.push_str(&format!(
            "{:<name_w$}  {:>8}  {:>12}  {:>14}  {:>12}  {:>10.2}  {:>10.2}  {}\n",
            name,
            s.enters,
            s.allocs,
            s.bytes,
            s.frees,
            s.self_ns as f64 / 1e6,
            s.total_ns as f64 / 1e6,
            work.join(" "),
        ));
    }
    out
}

/// Collapsed-stack ("folded") flamegraph lines weighted by wall-clock
/// self time in microseconds — one `a;b;c weight` line per phase, wall
/// rows included, ready for `flamegraph.pl` / speedscope. Wall-clock:
/// not comparable across runs.
pub fn folded_wall(registry: &Registry) -> String {
    folded_by(registry, |s| s.self_ns / 1_000)
}

/// Collapsed-stack flamegraph lines weighted by deterministic cost —
/// exclusive allocations plus work units — so two runs of the same
/// program produce byte-identical output at any thread count. Wall rows
/// weigh zero and drop out.
pub fn folded_cost(registry: &Registry) -> String {
    folded_by(registry, |s| s.allocs.saturating_add(s.work_total()))
}

fn folded_by(registry: &Registry, weight: impl Fn(&CostStats) -> u64) -> String {
    let mut out = String::new();
    for (path, stats) in registry.costs() {
        let w = weight(&stats);
        if w > 0 {
            out.push_str(&path.replace('/', ";"));
            out.push(' ');
            out.push_str(&w.to_string());
            out.push('\n');
        }
    }
    out
}
