//! The shared aggregation layer: every analysis family's per-row work is
//! an [`Aggregator`], and [`run_scan`] fuses any set of them into one
//! pass over the PSR columns.
//!
//! # One-pass invariant
//!
//! [`StudyScan::compute`] registers all five aggregator families —
//! counts/labels, per-class series, per-vertical breakdowns, per-landing
//! series, and per-day churn sets — as one fused tuple, so the whole
//! analysis suite reads the corpus exactly once. `Study::run` computes it
//! once and hands it to the analyses through `StudyOutput::scan`; the
//! `analysis.passes` / `analysis.rows_scanned` counters in the run
//! manifest record that exactly one pass happened (`repro all` asserts
//! it). Analyses over *other* corpora — the term-bias probe crawl and the
//! detector ablation build their own crawlers — are outside the
//! invariant by construction.
//!
//! # Parallel scan discipline
//!
//! The driver shards the row range at day boundaries
//! ([`PsrStore::day_shards`]) and merges shard aggregates in shard-index
//! order — the same order-insensitive merge rule `ss-obs` registries and
//! the crawl reduce follow. Because shards are contiguous and merged in
//! order, even order-dependent accumulators see concatenation semantics;
//! because no day straddles a shard, every daily slot of every series is
//! filled by exactly one worker. Counts are integer-valued (`u64` adds,
//! set unions, integer-valued `f64` day slots), so results are
//! bit-identical at any thread count.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ss_crawl::db::{ColumnView, CrawlDb, PsrStore};
use ss_obs::Registry;
use ss_stats::DailySeries;
use ss_types::SimDate;

use crate::attribution::Attribution;

/// One analysis's streaming state over a PSR scan. `observe` folds in one
/// row; `merge` combines two partial states (shards merge in shard-index
/// order, and every implementation here is order-insensitive besides);
/// `finish` extracts the result.
pub trait Aggregator: Send + Sized {
    /// What the aggregator yields once the scan completes.
    type Output;
    /// Folds one row into the state.
    fn observe(&mut self, cols: &ColumnView<'_>, row: usize);
    /// Absorbs another partial state (produced over a disjoint row range).
    fn merge(&mut self, other: Self);
    /// Extracts the result.
    fn finish(self) -> Self::Output;
}

/// Tuples of aggregators fuse into one: a single scan feeds every member.
macro_rules! impl_aggregator_tuple {
    ($($name:ident . $idx:tt),+) => {
        impl<$($name: Aggregator),+> Aggregator for ($($name,)+) {
            type Output = ($($name::Output,)+);
            fn observe(&mut self, cols: &ColumnView<'_>, row: usize) {
                $(self.$idx.observe(cols, row);)+
            }
            fn merge(&mut self, other: Self) {
                $(self.$idx.merge(other.$idx);)+
            }
            fn finish(self) -> Self::Output {
                ($(self.$idx.finish(),)+)
            }
        }
    };
}

impl_aggregator_tuple!(A.0, B.1);
impl_aggregator_tuple!(A.0, B.1, C.2);
impl_aggregator_tuple!(A.0, B.1, C.2, D.3);
impl_aggregator_tuple!(A.0, B.1, C.2, D.3, E.4);
impl_aggregator_tuple!(A.0, B.1, C.2, D.3, E.4, F.5);

/// Wraps an aggregator so its merge and finish phases record wall time
/// into the cost ledger under `path` (a work-only scope — shard merges
/// run on the reducing thread, whose heap pattern is not part of the
/// deterministic contract). `observe` delegates with no bookkeeping: it
/// runs once per PSR row and must stay allocation- and branch-free.
pub struct Timed<'a, A> {
    path: &'static str,
    obs: &'a Registry,
    agg: A,
}

impl<'a, A> Timed<'a, A> {
    /// Wraps `agg`, recording merge/finish cost under `path`.
    pub fn new(path: &'static str, obs: &'a Registry, agg: A) -> Self {
        Timed { path, obs, agg }
    }
}

impl<A: Aggregator> Aggregator for Timed<'_, A> {
    type Output = A::Output;
    #[inline]
    fn observe(&mut self, cols: &ColumnView<'_>, row: usize) {
        self.agg.observe(cols, row);
    }
    fn merge(&mut self, other: Self) {
        let _scope = self.obs.work_scope(self.path);
        self.agg.merge(other.agg);
    }
    fn finish(self) -> Self::Output {
        let _scope = self.obs.work_scope(self.path);
        self.agg.finish()
    }
}

/// Runs one pass of `make()`'s aggregator over the store: serial when
/// `threads <= 1`, otherwise sharded at day boundaries across scoped
/// crossbeam workers and merged in shard-index order. Records one
/// `analysis.passes` tick and the row count into `obs`. Bit-identical at
/// any thread count.
pub fn run_scan<A, F>(store: &PsrStore, threads: usize, obs: &Registry, make: F) -> A::Output
where
    A: Aggregator,
    F: Fn() -> A + Sync,
{
    ss_obs::count!(obs, "analysis.passes");
    ss_obs::count!(obs, "analysis.rows_scanned", store.len() as u64);
    // Work-only scope: shard observe loops run on worker threads (whose
    // allocations aren't metered here anyway), but the row count is exact
    // and deterministic.
    let _scan_scope = obs.work_scope("analysis/scan");
    ss_obs::charge(ss_obs::WorkKind::PsrRowsScanned, store.len() as u64);
    let cols = store.columns();
    let shards = store.day_shards(threads.max(1));
    if threads <= 1 || shards.len() <= 1 {
        let mut agg = make();
        for row in 0..store.len() {
            agg.observe(&cols, row);
        }
        return agg.finish();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<A>>> = Mutex::new(shards.iter().map(|_| None).collect());
    crossbeam::thread::scope(|s| {
        for _ in 0..threads.min(shards.len()) {
            s.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= shards.len() {
                    break;
                }
                let mut agg = make();
                for row in shards[i].clone() {
                    agg.observe(&cols, row);
                }
                slots
                    .lock()
                    .expect("no scan worker panicked holding the lock")[i] = Some(agg);
            });
        }
    })
    .expect("scan worker panicked");
    slots
        .into_inner()
        .expect("workers joined")
        .into_iter()
        .map(|slot| slot.expect("every shard aggregated"))
        .reduce(|mut a, b| {
            a.merge(b);
            a
        })
        .unwrap_or_else(make)
        .finish()
}

/// Read-only context the aggregators share: attribution plus the maps
/// precomputed from the (small) doorway/store tables, so the per-row work
/// is pure lookups.
struct ScanCtx<'a> {
    window: (SimDate, SimDate),
    n_classes: usize,
    n_verticals: usize,
    /// landing id → attributed class (from [`Attribution::store_class`]).
    store_class: &'a HashMap<u32, Option<usize>>,
    /// Landing ids that passed store detection.
    is_store: HashSet<u32>,
    /// Store id → first seizure-notice observation day.
    seizure_day: HashMap<u32, SimDate>,
    /// Doorway id → first labeled-sighting day. `label_seen` is set by the
    /// label events that pair 1:1 with PSR events, so this equals the
    /// first labeled-PSR day per labeled doorway.
    first_label_day: HashMap<u32, SimDate>,
}

impl<'a> ScanCtx<'a> {
    fn new(
        db: &CrawlDb,
        attribution: &'a Attribution,
        n_verticals: usize,
        window: (SimDate, SimDate),
    ) -> Self {
        ScanCtx {
            window,
            n_classes: attribution.class_names.len(),
            n_verticals,
            store_class: &attribution.store_class,
            is_store: db
                .store_info
                .iter()
                .filter(|(_, s)| s.is_store)
                .map(|(id, _)| *id)
                .collect(),
            seizure_day: db
                .store_info
                .iter()
                .filter_map(|(id, s)| s.seizure.as_ref().map(|(d, _)| (*id, *d)))
                .collect(),
            first_label_day: db
                .doorway_info
                .iter()
                .filter_map(|(id, i)| i.label_seen.map(|(f, _)| (*id, f)))
                .collect(),
        }
    }

    fn class_of(&self, cols: &ColumnView<'_>, row: usize) -> Option<usize> {
        self.store_class.get(&cols.landing(row)?).copied().flatten()
    }

    fn series(&self) -> DailySeries {
        DailySeries::new(self.window.0, self.window.1)
    }
}

/// Adds `b`'s observed days into `a`. Day slots hold integer-valued
/// counts, so the fold is exact and order-insensitive.
fn merge_series(a: &mut DailySeries, b: &DailySeries) {
    for (day, v) in b.observed() {
        a.add(day, v);
    }
}

/// Totals and label coverage (feeds `interventions::labels`).
struct CountsAgg<'a> {
    ctx: &'a ScanCtx<'a>,
    rows: u64,
    labeled: u64,
    missed: u64,
}

impl Aggregator for CountsAgg<'_> {
    type Output = (u64, u64, u64);
    fn observe(&mut self, cols: &ColumnView<'_>, row: usize) {
        self.rows += 1;
        if cols.labeled[row] {
            self.labeled += 1;
        } else if self
            .ctx
            .first_label_day
            .get(&cols.domain[row])
            .map(|f| cols.day[row] >= *f)
            .unwrap_or(false)
        {
            self.missed += 1;
        }
    }
    fn merge(&mut self, other: Self) {
        self.rows += other.rows;
        self.labeled += other.labeled;
        self.missed += other.missed;
    }
    fn finish(self) -> Self::Output {
        (self.rows, self.labeled, self.missed)
    }
}

/// Per-class daily series, counts, and doorway sets (feeds the campaign
/// series, Table 2, top-k share, and Figure 4).
struct ClassAgg<'a> {
    ctx: &'a ScanCtx<'a>,
    daily: Vec<DailySeries>,
    daily_top10: Vec<DailySeries>,
    labeled: Vec<DailySeries>,
    psrs: Vec<u64>,
    doorways: Vec<HashSet<u32>>,
}

impl<'a> ClassAgg<'a> {
    fn new(ctx: &'a ScanCtx<'a>) -> Self {
        let n = ctx.n_classes;
        ClassAgg {
            ctx,
            daily: (0..n).map(|_| ctx.series()).collect(),
            daily_top10: (0..n).map(|_| ctx.series()).collect(),
            labeled: (0..n).map(|_| ctx.series()).collect(),
            psrs: vec![0; n],
            doorways: vec![HashSet::new(); n],
        }
    }
}

/// Per-class scan results.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassScan {
    /// Daily PSR counts over the crawled depth (sparse: only observed
    /// days are set).
    pub daily: DailySeries,
    /// Daily PSR counts within the top 10 (sparse).
    pub daily_top10: DailySeries,
    /// Daily labeled-PSR counts (sparse).
    pub labeled: DailySeries,
    /// Total PSRs attributed to the class.
    pub psrs: u64,
    /// Doorway domains attributed to the class.
    pub doorways: HashSet<u32>,
}

impl Aggregator for ClassAgg<'_> {
    type Output = Vec<ClassScan>;
    fn observe(&mut self, cols: &ColumnView<'_>, row: usize) {
        let Some(c) = self.ctx.class_of(cols, row) else {
            return;
        };
        let day = cols.day[row];
        self.psrs[c] += 1;
        self.doorways[c].insert(cols.domain[row]);
        self.daily[c].add(day, 1.0);
        if cols.rank[row] <= 10 {
            self.daily_top10[c].add(day, 1.0);
        }
        if cols.labeled[row] {
            self.labeled[c].add(day, 1.0);
        }
    }
    fn merge(&mut self, other: Self) {
        for c in 0..self.psrs.len() {
            merge_series(&mut self.daily[c], &other.daily[c]);
            merge_series(&mut self.daily_top10[c], &other.daily_top10[c]);
            merge_series(&mut self.labeled[c], &other.labeled[c]);
            self.psrs[c] += other.psrs[c];
            self.doorways[c].extend(&other.doorways[c]);
        }
    }
    fn finish(self) -> Self::Output {
        self.daily
            .into_iter()
            .zip(self.daily_top10)
            .zip(self.labeled)
            .zip(self.psrs)
            .zip(self.doorways)
            .map(
                |((((daily, daily_top10), labeled), psrs), doorways)| ClassScan {
                    daily,
                    daily_top10,
                    labeled,
                    psrs,
                    doorways,
                },
            )
            .collect()
    }
}

/// Per-vertical scan results (feeds Table 1 and Figure 2).
#[derive(Debug, Clone, PartialEq)]
pub struct VerticalScan {
    /// PSR observations in the vertical.
    pub psrs: u64,
    /// Unique doorway domains seen in the vertical's PSRs.
    pub doorways: HashSet<u32>,
    /// Unique detected stores reached from the vertical.
    pub stores: HashSet<u32>,
    /// Distinct attributed campaigns observed in the vertical.
    pub campaigns: HashSet<usize>,
    /// Daily PSR counts per attributed class (`None` = unattributed),
    /// sparse — only observed days are set, as Figure 2 requires.
    pub per_class: HashMap<Option<usize>, DailySeries>,
    /// Daily poisoned-result counts (sparse).
    pub poisoned: DailySeries,
    /// Daily penalized counts: labeled or landing on an observed-seized
    /// store (sparse).
    pub penalized: DailySeries,
}

struct VerticalAgg<'a> {
    ctx: &'a ScanCtx<'a>,
    verticals: Vec<VerticalScan>,
}

impl<'a> VerticalAgg<'a> {
    fn new(ctx: &'a ScanCtx<'a>) -> Self {
        VerticalAgg {
            ctx,
            verticals: (0..ctx.n_verticals)
                .map(|_| VerticalScan {
                    psrs: 0,
                    doorways: HashSet::new(),
                    stores: HashSet::new(),
                    campaigns: HashSet::new(),
                    per_class: HashMap::new(),
                    poisoned: ctx.series(),
                    penalized: ctx.series(),
                })
                .collect(),
        }
    }
}

impl Aggregator for VerticalAgg<'_> {
    type Output = Vec<VerticalScan>;
    fn observe(&mut self, cols: &ColumnView<'_>, row: usize) {
        let ctx = self.ctx;
        let day = cols.day[row];
        let landing = cols.landing(row);
        let class = ctx.class_of(cols, row);
        let v = &mut self.verticals[usize::from(cols.vertical[row])];
        v.psrs += 1;
        v.doorways.insert(cols.domain[row]);
        if let Some(l) = landing {
            if ctx.is_store.contains(&l) {
                v.stores.insert(l);
            }
        }
        if let Some(c) = class {
            v.campaigns.insert(c);
        }
        v.poisoned.add(day, 1.0);
        let seized = landing
            .and_then(|l| ctx.seizure_day.get(&l))
            .map(|d| *d <= day)
            .unwrap_or(false);
        if cols.labeled[row] || seized {
            v.penalized.add(day, 1.0);
        }
        v.per_class
            .entry(class)
            .or_insert_with(|| ctx.series())
            .add(day, 1.0);
    }
    fn merge(&mut self, other: Self) {
        for (v, o) in self.verticals.iter_mut().zip(other.verticals) {
            v.psrs += o.psrs;
            v.doorways.extend(o.doorways);
            v.stores.extend(o.stores);
            v.campaigns.extend(o.campaigns);
            merge_series(&mut v.poisoned, &o.poisoned);
            merge_series(&mut v.penalized, &o.penalized);
            for (k, s) in o.per_class {
                match v.per_class.entry(k) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        merge_series(e.get_mut(), &s)
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(s);
                    }
                }
            }
        }
    }
    fn finish(self) -> Self::Output {
        self.verticals
    }
}

/// Per-landing daily PSR series (feeds `landing_psr_series` / Figure 5).
#[derive(Debug, Clone, PartialEq)]
pub struct LandingScan {
    /// Daily PSR counts landing on the store, crawled depth (sparse).
    pub daily: DailySeries,
    /// Daily PSR counts landing on the store, top 10 only (sparse).
    pub daily_top10: DailySeries,
}

struct LandingAgg<'a> {
    ctx: &'a ScanCtx<'a>,
    daily: HashMap<u32, LandingScan>,
    verticals: HashSet<(u32, u16)>,
}

impl Aggregator for LandingAgg<'_> {
    type Output = (HashMap<u32, LandingScan>, HashSet<(u32, u16)>);
    fn observe(&mut self, cols: &ColumnView<'_>, row: usize) {
        let Some(l) = cols.landing(row) else {
            return;
        };
        let day = cols.day[row];
        self.verticals.insert((l, cols.vertical[row]));
        let entry = self.daily.entry(l).or_insert_with(|| LandingScan {
            daily: self.ctx.series(),
            daily_top10: self.ctx.series(),
        });
        entry.daily.add(day, 1.0);
        if cols.rank[row] <= 10 {
            entry.daily_top10.add(day, 1.0);
        }
    }
    fn merge(&mut self, other: Self) {
        self.verticals.extend(other.verticals);
        for (l, s) in other.daily {
            match self.daily.entry(l) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    merge_series(&mut e.get_mut().daily, &s.daily);
                    merge_series(&mut e.get_mut().daily_top10, &s.daily_top10);
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(s);
                }
            }
        }
    }
    fn finish(self) -> Self::Output {
        (self.daily, self.verticals)
    }
}

/// Per-day doorway-domain sets (feeds `mean_daily_churn`).
#[derive(Default)]
struct ChurnAgg {
    day_domains: HashMap<SimDate, HashSet<u32>>,
}

impl Aggregator for ChurnAgg {
    type Output = HashMap<SimDate, HashSet<u32>>;
    fn observe(&mut self, cols: &ColumnView<'_>, row: usize) {
        self.day_domains
            .entry(cols.day[row])
            .or_default()
            .insert(cols.domain[row]);
    }
    fn merge(&mut self, other: Self) {
        for (day, set) in other.day_domains {
            self.day_domains.entry(day).or_default().extend(set);
        }
    }
    fn finish(self) -> Self::Output {
        self.day_domains
    }
}

/// Everything the analysis suite needs from the PSR corpus, computed in
/// one fused pass by [`StudyScan::compute`] and carried on
/// `StudyOutput::scan`.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyScan {
    /// Crawl window `(first crawl day, last day)` the scan covered.
    pub window: (SimDate, SimDate),
    /// Total PSR rows scanned.
    pub rows: u64,
    /// PSRs carrying the hacked label.
    pub labeled_psrs: u64,
    /// Unlabeled PSRs on a doorway at/after its first labeled sighting
    /// (the root-only label policy's coverage gap).
    pub label_missed: u64,
    /// Per-class results, indexed by attribution class.
    pub classes: Vec<ClassScan>,
    /// Per-vertical results, indexed by monitored-vertical order.
    pub verticals: Vec<VerticalScan>,
    /// Per-landing-store daily series, keyed by interned store domain id.
    pub landings: HashMap<u32, LandingScan>,
    /// `(landing store id, vertical)` pairs observed in PSRs.
    pub landing_verticals: HashSet<(u32, u16)>,
    /// Doorway-domain sets per crawl day (for churn).
    pub day_domains: HashMap<SimDate, HashSet<u32>>,
}

impl StudyScan {
    /// Computes the full scan in **one** fused pass over the PSR columns,
    /// sharded over `threads` workers.
    pub fn compute(
        db: &CrawlDb,
        attribution: &Attribution,
        n_verticals: usize,
        window: (SimDate, SimDate),
        threads: usize,
        obs: &Registry,
    ) -> StudyScan {
        let ctx = ScanCtx::new(db, attribution, n_verticals, window);
        let (
            (rows, labeled_psrs, label_missed),
            classes,
            verticals,
            (landings, landing_verticals),
            day_domains,
        ) = run_scan(&db.psrs, threads, obs, || {
            (
                Timed::new(
                    "analysis/merge/counts",
                    obs,
                    CountsAgg {
                        ctx: &ctx,
                        rows: 0,
                        labeled: 0,
                        missed: 0,
                    },
                ),
                Timed::new("analysis/merge/classes", obs, ClassAgg::new(&ctx)),
                Timed::new("analysis/merge/verticals", obs, VerticalAgg::new(&ctx)),
                Timed::new(
                    "analysis/merge/landings",
                    obs,
                    LandingAgg {
                        ctx: &ctx,
                        daily: HashMap::new(),
                        verticals: HashSet::new(),
                    },
                ),
                Timed::new("analysis/merge/churn", obs, ChurnAgg::default()),
            )
        });
        StudyScan {
            window,
            rows,
            labeled_psrs,
            label_missed,
            classes,
            verticals,
            landings,
            landing_verticals,
            day_domains,
        }
    }
}
