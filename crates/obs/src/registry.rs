//! The metric registry: named counters, histograms, per-phase cost rows
//! (wall rows among them), and the wall-frame timeline.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Mutex;

use serde::Value;
use ss_types::snapshot::{Reader, Snapshot, SnapshotError, Writer};

use crate::cost::{self, CostScope, CostStats, FrameKind, Slice, WorkKind};
use crate::histogram::Histogram;

/// A metric identity: a name plus an ordered set of label pairs.
///
/// Rendered as `name` or `name{k=v,k2=v2}` with labels sorted by key, so
/// the same logical metric always maps to the same key no matter how the
/// labels were listed at the call site.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    name: String,
    labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Builds a key; labels are sorted by label name.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_owned(),
            labels,
        }
    }

    /// The metric name without labels.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Display for MetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        if !self.labels.is_empty() {
            write!(f, "{{")?;
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{k}={v}")?;
            }
            write!(f, "}}")?;
        }
        Ok(())
    }
}

// ---- interned key lookup ----

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Widest label set served by the allocation-free fast path; wider sets
/// (which don't occur in practice) fall back to building a [`MetricKey`].
const MAX_INLINE_LABELS: usize = 16;

/// Stable insertion sort of label indices by `(key, value)` pair —
/// the same order `MetricKey::new` produces, computed without allocating.
fn sorted_order(labels: &[(&str, &str)]) -> [usize; MAX_INLINE_LABELS] {
    let mut order = [0usize; MAX_INLINE_LABELS];
    let n = labels.len().min(MAX_INLINE_LABELS);
    for (i, slot) in order.iter_mut().enumerate().take(n) {
        *slot = i;
    }
    for i in 1..n {
        let mut j = i;
        while j > 0 && labels[order[j - 1]] > labels[order[j]] {
            order.swap(j - 1, j);
            j -= 1;
        }
    }
    order
}

/// FNV-1a over the canonical (sorted-label) rendering of a key, fed
/// field-by-field so no intermediate string is built.
fn hash_parts<'a>(name: &str, sorted_labels: impl Iterator<Item = (&'a str, &'a str)>) -> u64 {
    let mut h = fnv_extend(FNV_OFFSET, name.as_bytes());
    h = fnv_extend(h, &[0xFE]);
    for (k, v) in sorted_labels {
        h = fnv_extend(h, k.as_bytes());
        h = fnv_extend(h, &[0xFF]);
        h = fnv_extend(h, v.as_bytes());
        h = fnv_extend(h, &[0xFF]);
    }
    h
}

fn hash_call_site(name: &str, labels: &[(&str, &str)], order: &[usize]) -> u64 {
    hash_parts(name, order.iter().map(|&i| labels[i]))
}

fn hash_key(key: &MetricKey) -> u64 {
    hash_parts(
        &key.name,
        key.labels.iter().map(|(k, v)| (k.as_str(), v.as_str())),
    )
}

/// True when `key` identifies the same metric as the call-site
/// `(name, labels)` — the full equality check behind the hash lookup,
/// so hash collisions are served correctly.
fn key_matches(key: &MetricKey, name: &str, labels: &[(&str, &str)], order: &[usize]) -> bool {
    key.name == name
        && key.labels.len() == labels.len()
        && key
            .labels
            .iter()
            .zip(order.iter())
            .all(|((kk, kv), &i)| kk == labels[i].0 && kv == labels[i].1)
}

/// Interned metric storage: values live in a slot vector, a sorted index
/// keeps deterministic export order, and a hash table of candidate slots
/// serves repeat lookups without building a [`MetricKey`] — the hot path
/// (an existing metric) allocates nothing.
#[derive(Debug, Default)]
struct Bank<V> {
    /// Deterministic iteration order: key → slot.
    index: BTreeMap<MetricKey, usize>,
    /// Slot → key, for the fast path's equality check.
    keys: Vec<MetricKey>,
    vals: Vec<V>,
    /// Canonical key hash → candidate slots (collisions share a list).
    hot: HashMap<u64, Vec<usize>>,
}

impl<V: Default> Bank<V> {
    /// The value slot for `(name, labels)`, creating it on first sight.
    fn slot(&mut self, name: &str, labels: &[(&str, &str)]) -> &mut V {
        if labels.len() > MAX_INLINE_LABELS {
            let key = MetricKey::new(name, labels);
            let h = hash_key(&key);
            return self.slot_for_hashed(key, h);
        }
        let order = sorted_order(labels);
        let order = &order[..labels.len()];
        let h = hash_call_site(name, labels, order);
        let mut found = None;
        if let Some(cands) = self.hot.get(&h) {
            for &i in cands {
                if key_matches(&self.keys[i], name, labels, order) {
                    found = Some(i);
                    break;
                }
            }
        }
        match found {
            Some(i) => &mut self.vals[i],
            None => self.slot_for_hashed(MetricKey::new(name, labels), h),
        }
    }

    /// The value slot for an already-built key (merge / snapshot restore).
    fn slot_for_key(&mut self, key: MetricKey) -> &mut V {
        let h = hash_key(&key);
        self.slot_for_hashed(key, h)
    }

    fn slot_for_hashed(&mut self, key: MetricKey, h: u64) -> &mut V {
        if let Some(&i) = self.index.get(&key) {
            return &mut self.vals[i];
        }
        let i = self.vals.len();
        self.vals.push(V::default());
        self.keys.push(key.clone());
        self.index.insert(key, i);
        self.hot.entry(h).or_default().push(i);
        &mut self.vals[i]
    }

    /// Entries in sorted key order.
    fn iter(&self) -> impl Iterator<Item = (&MetricKey, &V)> {
        self.index.iter().map(|(k, &i)| (k, &self.vals[i]))
    }

    fn len(&self) -> usize {
        self.vals.len()
    }
}

/// A thread-safe registry of counters, histograms, per-phase cost rows,
/// and the wall-frame timeline.
///
/// All mutation goes through `&self`, so a registry can be shared freely
/// across stages and threads. Counters, histograms, and the
/// deterministic cost columns are pure integer aggregates:
/// [`Registry::merge_from`] is associative and commutative, and the
/// deterministic exports ([`Registry::metrics_json`],
/// [`Registry::costs_json`]) contain only them — wall rows, the cost
/// rows' wall-clock fields and the timeline live in separate
/// projections so run-to-run comparisons stay bit-stable.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<Bank<u64>>,
    histograms: Mutex<Bank<Histogram>>,
    costs: Mutex<BTreeMap<&'static str, CostStats>>,
    timeline: Mutex<Vec<Slice>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    // ---- counters ----

    /// Adds `n` to the unlabeled counter `name`.
    pub fn count(&self, name: &str, n: u64) {
        self.count_with(name, &[], n);
    }

    /// Adds `n` to the counter `name` with the given labels.
    pub fn count_with(&self, name: &str, labels: &[(&str, &str)], n: u64) {
        let mut counters = self.counters.lock().expect("obs counters poisoned");
        *counters.slot(name, labels) += n;
    }

    /// Current value of a counter by rendered key (`name` or
    /// `name{k=v}`), 0 when absent. Label-blind totals are available via
    /// [`Registry::counter_total`].
    pub fn counter(&self, rendered: &str) -> u64 {
        let counters = self.counters.lock().expect("obs counters poisoned");
        let found = counters
            .iter()
            .find(|(k, _)| k.to_string() == rendered)
            .map(|(_, v)| *v);
        found.unwrap_or(0)
    }

    /// Sum of every counter sharing `name`, across all label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        let counters = self.counters.lock().expect("obs counters poisoned");
        counters
            .iter()
            .filter(|(k, _)| k.name() == name)
            .map(|(_, v)| *v)
            .sum()
    }

    // ---- histograms ----

    /// Records an observation into the unlabeled histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        self.observe_with(name, &[], value);
    }

    /// Records an observation into the histogram `name` with labels.
    pub fn observe_with(&self, name: &str, labels: &[(&str, &str)], value: u64) {
        let mut hists = self.histograms.lock().expect("obs histograms poisoned");
        hists.slot(name, labels).observe(value);
    }

    /// Snapshot of a histogram by rendered key.
    pub fn histogram(&self, rendered: &str) -> Option<Histogram> {
        let hists = self.histograms.lock().expect("obs histograms poisoned");
        let found = hists
            .iter()
            .find(|(k, _)| k.to_string() == rendered)
            .map(|(_, h)| h.clone());
        found
    }

    // ---- costs ----

    /// Opens a fully-metered cost scope under the hierarchical `path`
    /// (`/`-separated, e.g. `"crawl/render"`): heap allocations, bytes,
    /// frees, work units, and wall time are attributed to the phase when
    /// the guard drops. Only for *stable parallel units* — code where
    /// the same work lands in the same scope regardless of thread count;
    /// driver-side phases use [`Registry::work_scope`] instead.
    pub fn cost_scope(&self, path: &'static str) -> CostScope<'_> {
        CostScope::new(self, path, FrameKind::Metered)
    }

    /// Opens a work-only cost scope: work units and wall time record,
    /// but the enter and allocation columns stay zero. For phases whose
    /// entry counts or heap pattern would be thread-schedule-dependent.
    pub fn work_scope(&self, path: &'static str) -> CostScope<'_> {
        CostScope::new(self, path, FrameKind::Work)
    }

    /// Opens a wall frame under the dotted `path` (`"study.day"`,
    /// `"stage.crawl"`): wall time only, on the same frame stack as the
    /// cost scopes. Work charged while it is innermost goes to the
    /// nearest enclosing cost scope, so it never moves a deterministic
    /// column. Its row (closes in `enters`, total and self time) is
    /// flagged [`CostStats::wall`], and each close appends a [`Slice`] to
    /// [`Registry::timeline`].
    pub fn span(&self, path: &'static str) -> CostScope<'_> {
        CostScope::new(self, path, FrameKind::Wall)
    }

    /// Manually opens a cost frame (the testable half of
    /// [`Registry::cost_scope`] / [`Registry::work_scope`]). Pair with
    /// exactly one [`Registry::cost_exit`] on the same thread, LIFO.
    pub fn cost_enter(&self, metered: bool) {
        cost::enter_frame(if metered {
            FrameKind::Metered
        } else {
            FrameKind::Work
        });
    }

    /// Manually closes the innermost cost frame under `path` with a
    /// caller-supplied duration, recording its exclusive cost delta.
    pub fn cost_exit(&self, path: &'static str, elapsed_ns: u64) {
        let stats = cost::exit_frame(elapsed_ns);
        self.record_cost(path, stats);
    }

    /// Folds a pre-built cost delta into the row for `path` (integer
    /// addition). The merge primitive behind [`Registry::cost_exit`] and
    /// [`Registry::merge_from`], public so tests and drains can record
    /// synthetic rows directly.
    pub fn record_cost(&self, path: &'static str, stats: CostStats) {
        // Row bookkeeping must never count against an enclosing scope.
        let _p = crate::alloc::pause_metering();
        let mut costs = self.costs.lock().expect("obs costs poisoned");
        costs.entry(path).or_default().merge(&stats);
    }

    /// Adds `n` work units of `kind` directly onto the row for `path`,
    /// bypassing the thread-local scope stack. For drains that move
    /// internally-counted work (e.g. the engine's SERP walk counters)
    /// onto a fixed phase row at a deterministic choke point.
    pub fn add_work(&self, path: &'static str, kind: WorkKind, n: u64) {
        if n == 0 {
            return;
        }
        let _p = crate::alloc::pause_metering();
        let mut costs = self.costs.lock().expect("obs costs poisoned");
        let row = costs.entry(path).or_default();
        row.work[kind as usize] = row.work[kind as usize].saturating_add(n);
    }

    /// Aggregate for one phase path.
    pub fn cost_stats(&self, path: &str) -> Option<CostStats> {
        let costs = self.costs.lock().expect("obs costs poisoned");
        costs.get(path).copied()
    }

    /// All phase rows, wall rows included, sorted by path.
    pub fn costs(&self) -> Vec<(&'static str, CostStats)> {
        let costs = self.costs.lock().expect("obs costs poisoned");
        costs.iter().map(|(k, v)| (*k, *v)).collect()
    }

    /// Appends one closed wall frame to the timeline.
    pub(crate) fn record_slice(&self, slice: Slice) {
        let _p = crate::alloc::pause_metering();
        self.timeline
            .lock()
            .expect("obs timeline poisoned")
            .push(slice);
    }

    /// Every closed wall frame, in close order (a parent after its
    /// children). Wall-clock and per-process: never snapshotted.
    pub fn timeline(&self) -> Vec<Slice> {
        self.timeline.lock().expect("obs timeline poisoned").clone()
    }

    // ---- merge ----

    /// Folds another registry's contents into this one. Counter,
    /// histogram, and cost merging is integer addition, so any merge
    /// order or grouping produces the identical registry; the other
    /// registry's timeline is appended to this one's.
    pub fn merge_from(&self, other: &Registry) {
        // Key clones and bank growth depend on what this registry already
        // holds, so they must not count against an enclosing scope.
        let _p = crate::alloc::pause_metering();
        {
            let theirs = other.counters.lock().expect("obs counters poisoned");
            let mut ours = self.counters.lock().expect("obs counters poisoned");
            for (k, v) in theirs.iter() {
                *ours.slot_for_key(k.clone()) += v;
            }
        }
        {
            let theirs = other.histograms.lock().expect("obs histograms poisoned");
            let mut ours = self.histograms.lock().expect("obs histograms poisoned");
            for (k, h) in theirs.iter() {
                ours.slot_for_key(k.clone()).merge(h);
            }
        }
        {
            let theirs = other.costs.lock().expect("obs costs poisoned");
            let mut ours = self.costs.lock().expect("obs costs poisoned");
            for (path, s) in theirs.iter() {
                ours.entry(path).or_default().merge(s);
            }
        }
        let theirs = other.timeline();
        self.timeline
            .lock()
            .expect("obs timeline poisoned")
            .extend(theirs);
    }

    /// Rendered keys of every counter and histogram, sorted.
    pub fn metric_names(&self) -> Vec<String> {
        let counters = self.counters.lock().expect("obs counters poisoned");
        let hists = self.histograms.lock().expect("obs histograms poisoned");
        let mut names: Vec<String> = counters
            .iter()
            .map(|(k, _)| k.to_string())
            .chain(hists.iter().map(|(k, _)| k.to_string()))
            .collect();
        names.sort();
        names
    }

    // ---- export ----

    /// The deterministic half of the registry — counters and histograms,
    /// sorted by rendered key — as a JSON value tree. Two runs of the
    /// same deterministic program produce byte-identical output here, at
    /// any thread count; wall-clock rows are deliberately excluded.
    pub fn metrics_value(&self) -> Value {
        let counters = self.counters.lock().expect("obs counters poisoned");
        let hists = self.histograms.lock().expect("obs histograms poisoned");
        let counter_map: Vec<(String, Value)> = counters
            .iter()
            .map(|(k, v)| (k.to_string(), Value::UInt(*v)))
            .collect();
        let hist_map: Vec<(String, Value)> = hists
            .iter()
            .map(|(k, h)| {
                let buckets = h
                    .nonzero_buckets()
                    .into_iter()
                    .map(|(bound, n)| Value::Seq(vec![Value::UInt(bound), Value::UInt(n)]))
                    .collect();
                (
                    k.to_string(),
                    Value::Map(vec![
                        ("count".into(), Value::UInt(h.count())),
                        (
                            "sum".into(),
                            Value::UInt(u64::try_from(h.sum()).unwrap_or(u64::MAX)),
                        ),
                        ("min".into(), opt_uint(h.min())),
                        ("max".into(), opt_uint(h.max())),
                        ("p50".into(), opt_uint(h.p50())),
                        ("p95".into(), opt_uint(h.p95())),
                        ("buckets".into(), Value::Seq(buckets)),
                    ]),
                )
            })
            .collect();
        Value::Map(vec![
            ("counters".into(), Value::Map(counter_map)),
            ("histograms".into(), Value::Map(hist_map)),
        ])
    }

    /// The deterministic columns of every phase row — enters, allocs,
    /// bytes, frees, and nonzero work units, sorted by path — as a JSON
    /// value tree. Byte-identical across runs and thread counts of a
    /// deterministic program; wall rows and the wall-clock fields live in
    /// [`Registry::cost_timings_value`].
    pub fn costs_value(&self) -> Value {
        let costs = self.costs.lock().expect("obs costs poisoned");
        let map = costs
            .iter()
            .filter(|(_, s)| !s.wall)
            .map(|(path, s)| {
                let work: Vec<(String, Value)> = WorkKind::ALL
                    .iter()
                    .filter(|k| s.work[**k as usize] > 0)
                    .map(|k| (k.name().to_owned(), Value::UInt(s.work[*k as usize])))
                    .collect();
                (
                    (*path).to_owned(),
                    Value::Map(vec![
                        ("enters".into(), Value::UInt(s.enters)),
                        ("allocs".into(), Value::UInt(s.allocs)),
                        ("bytes".into(), Value::UInt(s.bytes)),
                        ("frees".into(), Value::UInt(s.frees)),
                        ("work".into(), Value::Map(work)),
                    ]),
                )
            })
            .collect();
        Value::Map(map)
    }

    /// The wall-clock columns of every phase row, wall rows included
    /// (milliseconds — not comparable across runs; see
    /// [`Registry::costs_value`]).
    pub fn cost_timings_value(&self) -> Value {
        let costs = self.costs.lock().expect("obs costs poisoned");
        let map = costs
            .iter()
            .map(|(path, s)| {
                (
                    (*path).to_owned(),
                    Value::Map(vec![
                        ("total_ms".into(), Value::Float(ns_to_ms(s.total_ns))),
                        ("self_ms".into(), Value::Float(ns_to_ms(s.self_ns))),
                    ]),
                )
            })
            .collect();
        Value::Map(map)
    }

    /// Deterministic metrics (counters + histograms) as pretty JSON.
    /// Bit-identical across runs and thread counts of a deterministic
    /// program — the string the thread-matrix tests compare.
    pub fn metrics_json(&self) -> String {
        serde_json::to_string_pretty(&self.metrics_value()).expect("value tree renders")
    }

    /// Deterministic cost profile (phase rows, wall-clock excluded) as
    /// pretty JSON — the string the cost thread-matrix tests and the
    /// cost-profile golden compare.
    pub fn costs_json(&self) -> String {
        serde_json::to_string_pretty(&self.costs_value()).expect("value tree renders")
    }
}

fn write_key(w: &mut Writer, k: &MetricKey) {
    w.put_str(&k.name);
    w.put_seq(&k.labels, |w, (lk, lv)| {
        w.put_str(lk);
        w.put_str(lv);
    });
}

fn read_key(r: &mut Reader<'_>) -> Result<MetricKey, SnapshotError> {
    let name = r.get_str()?;
    let labels = r.get_seq(|r| Ok((r.get_str()?, r.get_str()?)))?;
    Ok(MetricKey { name, labels })
}

impl Snapshot for Registry {
    const TAG: &'static str = "obs-registry";
    const VERSION: u16 = 2;

    /// Serializes the deterministic half of the registry: counters,
    /// histograms, and the deterministic columns of the unflagged cost
    /// rows, in key order. Wall rows, the timeline and the cost rows'
    /// nanosecond fields are wall-clock measurements of *this* process
    /// and are deliberately not captured — a restored registry starts
    /// those empty, exactly as the manifest's deterministic projection
    /// expects. The cost rows
    /// *must* round-trip: a resumed run continues accumulating phase
    /// costs from the checkpointed totals, so the final profile matches
    /// an uninterrupted run bit-for-bit.
    fn write_body(&self, w: &mut Writer) {
        let counters = self.counters.lock().expect("obs counters poisoned");
        w.put_len(counters.len());
        for (k, v) in counters.iter() {
            write_key(w, k);
            w.put_u64(*v);
        }
        drop(counters);
        let hists = self.histograms.lock().expect("obs histograms poisoned");
        w.put_len(hists.len());
        for (k, h) in hists.iter() {
            write_key(w, k);
            w.put_nested(h);
        }
        drop(hists);
        let costs = self.costs.lock().expect("obs costs poisoned");
        w.put_len(costs.values().filter(|s| !s.wall).count());
        for (path, s) in costs.iter().filter(|(_, s)| !s.wall) {
            w.put_str(path);
            w.put_u64(s.enters);
            w.put_u64(s.allocs);
            w.put_u64(s.bytes);
            w.put_u64(s.frees);
            w.put_len(s.work.len());
            for v in &s.work {
                w.put_u64(*v);
            }
        }
    }

    fn read_body(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let reg = Registry::new();
        {
            let mut counters = reg.counters.lock().expect("obs counters poisoned");
            for _ in 0..r.get_len()? {
                let k = read_key(r)?;
                let v = r.get_u64()?;
                *counters.slot_for_key(k) = v;
            }
        }
        {
            let mut hists = reg.histograms.lock().expect("obs histograms poisoned");
            for _ in 0..r.get_len()? {
                let k = read_key(r)?;
                let h: Histogram = r.get_nested()?;
                *hists.slot_for_key(k) = h;
            }
        }
        {
            let mut costs = reg.costs.lock().expect("obs costs poisoned");
            for _ in 0..r.get_len()? {
                let path = cost::intern_path(r.get_str_ref()?);
                let mut s = CostStats {
                    enters: r.get_u64()?,
                    allocs: r.get_u64()?,
                    bytes: r.get_u64()?,
                    frees: r.get_u64()?,
                    ..CostStats::default()
                };
                let n = r.get_len()?;
                for i in 0..n {
                    let v = r.get_u64()?;
                    if i < s.work.len() {
                        s.work[i] = v;
                    }
                }
                costs.insert(path, s);
            }
        }
        Ok(reg)
    }
}

fn opt_uint(v: Option<u64>) -> Value {
    match v {
        Some(v) => Value::UInt(v),
        None => Value::Null,
    }
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1.0e6
}
