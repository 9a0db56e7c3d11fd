//! The daily crawl orchestrator (§4.1.2).
//!
//! Each day, for every monitored term, the crawler pulls the top-k SERP,
//! records per-result observations (rank, root-ness, hacked label), and
//! resolves each result domain's cloaking status:
//!
//! * **new domains** run the full detection stack — Dagger first, then a
//!   VanGogh rendering pass of the result page when Dagger stays quiet;
//! * **known-clean domains are skipped** — the paper's churn trim ("we do
//!   not crawl domains previously seen and not detected as poisoned",
//!   viable because daily churn is only ~1.84%);
//! * **known-poisoned domains** get a cheap landing re-verification every
//!   few days, which is how landing rotations and seizure notices surface.
//!   A reverification fetches everything afresh but reuses the doorway's
//!   last render when the fetched page is unchanged ([`crate::recheck`]).
//!
//! Store detection and seizure parsing run on landing pages as they are
//! (re)resolved.
//!
//! # Parallelism and determinism
//!
//! A crawl day is a map/reduce over verticals. The **map** phase is pure:
//! each vertical worker sees only `&World` (the read-only fetch plane)
//! plus a borrowed, read-only [`DbView`] of yesterday's knowledge, and
//! emits a [`CrawlEvent`] log. Workers never write the database, so any
//! number of them can run concurrently on scoped threads. The **reduce**
//! phase replays the event logs into [`CrawlDb`] strictly in vertical-index
//! order on the calling thread — which is where all interning and
//! mutation happens. Because worker output depends only on
//! `(world, start-of-day database, vertical, day)` and the reduce order is
//! fixed, the database is bit-identical at any thread count, including
//! one. A doorway's [`LastCheck`] follows the same rule: workers read it
//! from the start-of-day database and return the new one in their
//! events, so whether a render is reused never depends on scheduling.
//!
//! # Telemetry
//!
//! Workers record per-vertical counters (fetches, detections, PSR hits,
//! store visits) into a private [`ss_obs::Registry`] carried alongside
//! the event log, and the reduce merges those registries into the
//! caller's registry strictly in vertical order — the same replay rule
//! the database follows, so instrumented runs stay bit-identical at any
//! thread count (counter/histogram merging is integer addition and
//! order-insensitive besides). The reduce itself runs in the work-only
//! `crawl/apply` scope, which gives its wall time a row but keeps its heap
//! traffic out of the deterministic columns: that traffic is the growth
//! of the database's containers and of the caller's registry, whose
//! capacities depend on history a checkpoint restore does not reproduce.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ss_obs::{FlightRecorder, Registry, TraceLevel};
use ss_types::snapshot::{Reader, Snapshot, SnapshotError, Writer};
use ss_types::{SimDate, Url};
use ss_web::http::{Fetcher, Request, UserAgent};
use ss_web::js::JsCache;

use ss_eco::World;

use crate::dagger::{self, CloakSignal};
use crate::db::{CrawlDb, DailyCount, DomainInfo, PsrRecord, StoreInfo};
use crate::recheck::LastCheck;
use crate::stores::{self, SeizureNotice};
use crate::terms::{query_by_text, MonitoredVertical, TermMethodology};
use crate::vangogh;

/// Crawler configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrawlerConfig {
    /// SERP depth to crawl daily (paper: 100).
    pub serp_depth: usize,
    /// Whether a new domain gets a VanGogh rendering pass when Dagger
    /// stays quiet: any value above 0 enables it. (The paper sampled up to
    /// three pages per doorway; the crawler renders the one result page
    /// it first sees, so no higher value changes anything.)
    pub render_sample: u8,
    /// Days between landing re-verifications of known-poisoned domains.
    pub reverify_days: u32,
    /// Maximum redirect hops to follow.
    pub max_hops: usize,
    /// Worker threads for the per-vertical map phase. The database is
    /// bit-identical at any value; 1 runs the map inline.
    pub threads: usize,
    /// Flight-recorder level for PSR provenance events. Off by default;
    /// enabling it changes no counter, histogram, or database byte.
    pub trace: TraceLevel,
}

impl Default for CrawlerConfig {
    fn default() -> Self {
        CrawlerConfig {
            serp_depth: 100,
            render_sample: 3,
            reverify_days: 3,
            max_hops: 6,
            threads: 1,
            trace: TraceLevel::Off,
        }
    }
}

/// Ring capacity of the crawler's merged flight recorder.
const CRAWL_TRACE_CAP: usize = 1 << 16;

/// Yesterday's crawl knowledge as the vertical workers read it: the
/// database and the churn-trim clean set, borrowed for the map phase —
/// nothing is copied. Names resolve through the database's interner.
#[derive(Debug, Clone, Copy)]
struct DbView<'a> {
    db: &'a CrawlDb,
    clean: &'a HashSet<u32>,
}

/// What a vertical worker knows about a result domain.
#[derive(Debug, Clone, Copy)]
enum Prior<'a> {
    /// Confirmed cloaked: its start-of-day record, or `None` when this
    /// worker detected or re-verified it today.
    Poisoned(CloakSignal, Option<&'a DomainInfo>),
    /// Checked and found clean (the churn trim skips it).
    Clean,
    /// Never checked.
    New,
}

impl<'a> DbView<'a> {
    /// The start-of-day verdict on `name`. A poisoned record wins over a
    /// clean one.
    fn prior(self, name: &str) -> Prior<'a> {
        let Some(id) = self.db.domains.get(name) else {
            return Prior::New;
        };
        match self.db.doorway_info.get(&id) {
            Some(info) => match info.cloak {
                Some(signal) => Prior::Poisoned(signal, Some(info)),
                None => Prior::Clean,
            },
            None if self.clean.contains(&id) => Prior::Clean,
            None => Prior::New,
        }
    }
}

/// What a vertical worker saw when it visited a landing (store) page.
#[derive(Debug, Clone)]
enum StoreObservation {
    /// The page was a seizure notice.
    Notice(SeizureNotice),
    /// A live page: store-detection verdict plus captured evidence.
    Page {
        is_store: bool,
        html: String,
        cookie_names: Vec<String>,
    },
}

/// One entry in a vertical worker's output log. Replaying a day's logs in
/// vertical order reproduces exactly the mutations the sequential crawler
/// performed; every field is a plain string or value so the map phase
/// never touches the interner.
#[derive(Debug, Clone)]
enum CrawlEvent {
    /// A known-poisoned domain appeared in a SERP again.
    Seen { domain: String },
    /// Detection ran on a new domain and found it clean.
    Clean { domain: String },
    /// Detection ran on a new domain and confirmed cloaking.
    Detected {
        domain: String,
        signal: CloakSignal,
        landing: Option<String>,
        check: Option<LastCheck>,
    },
    /// A known-poisoned doorway's landing was re-resolved.
    Reverified {
        domain: String,
        landing: Option<String>,
        check: Option<LastCheck>,
    },
    /// Hacked-label state observed for a poisoned domain.
    Label { domain: String, labeled: bool },
    /// A poisoned search result to record.
    Psr {
        term: String,
        rank: u8,
        domain: String,
        is_root: bool,
        labeled: bool,
    },
    /// A landing page was fetched and parsed.
    StoreVisit {
        domain: String,
        outcome: StoreObservation,
    },
}

/// A vertical worker's complete output for one day: the event log, the
/// SERP tallies, the worker's private metric registry, and its private
/// (unbounded) flight recorder.
struct VerticalLog {
    count: DailyCount,
    events: Vec<CrawlEvent>,
    metrics: Registry,
    trace: FlightRecorder,
}

/// The crawler: monitored terms plus accumulated database.
pub struct Crawler {
    /// Configuration.
    pub cfg: CrawlerConfig,
    /// Monitored verticals with their term lists.
    pub monitored: Vec<MonitoredVertical>,
    /// The accumulated crawl database.
    pub db: CrawlDb,
    /// PSR provenance flight recorder: per-vertical worker recorders
    /// folded in vertical order (the same replay rule the database
    /// follows), so its contents are bit-identical at any thread count.
    pub recorder: FlightRecorder,
    /// Domains checked and found clean (skipped until they disappear —
    /// the churn trim).
    clean: HashSet<u32>,
    /// Per-run JS compile cache shared by all vertical workers. Scripts
    /// are generated per page *template*, so a whole crawl compiles a
    /// handful of chunks and replays them for every render.
    js_cache: JsCache,
}

impl Crawler {
    /// Creates a crawler over a monitored term set.
    pub fn new(cfg: CrawlerConfig, monitored: Vec<MonitoredVertical>) -> Self {
        let recorder = FlightRecorder::new(cfg.trace, CRAWL_TRACE_CAP);
        Crawler {
            cfg,
            monitored,
            db: CrawlDb::new(),
            recorder,
            clean: HashSet::new(),
            js_cache: JsCache::new(),
        }
    }

    /// `(compiles, cache hits)` of this crawler's JS compile cache so far.
    pub fn js_cache_stats(&self) -> (u64, u64) {
        self.js_cache.stats()
    }

    /// Domains checked and found clean (for methodology validation).
    pub fn known_clean(&self) -> impl Iterator<Item = &u32> {
        self.clean.iter()
    }

    /// Crawls one day across all monitored verticals: a map (possibly
    /// threaded) over a read-only view of the database, then an ordered
    /// reduce. The world is only read — crawling never perturbs the
    /// ecosystem it measures.
    /// Telemetry is discarded; use [`Crawler::crawl_day_metered`] to keep it.
    pub fn crawl_day(&mut self, world: &World, day: SimDate) {
        self.crawl_day_metered(world, day, &Registry::new());
    }

    /// [`Crawler::crawl_day`], recording crawl telemetry into `obs`:
    /// per-vertical fetch/detection/PSR counters and rank histograms,
    /// aggregated from per-worker registries merged in vertical order.
    pub fn crawl_day_metered(&mut self, world: &World, day: SimDate, obs: &Registry) {
        let _day = obs.span("crawl.day");
        let (compiles_before, hits_before) = self.js_cache.stats();
        let view = DbView {
            db: &self.db,
            clean: &self.clean,
        };
        let n = self.monitored.len();
        let logs: Vec<VerticalLog> = if self.cfg.threads <= 1 || n <= 1 {
            (0..n)
                .map(|vi| {
                    crawl_vertical(
                        world,
                        &self.cfg,
                        view,
                        &self.monitored[vi],
                        vi,
                        day,
                        &self.js_cache,
                    )
                })
                .collect()
        } else {
            self.map_parallel(world, view, day)
        };
        let _apply = obs.work_scope("crawl/apply");
        for (vi, log) in logs.into_iter().enumerate() {
            self.apply_log(day, vi as u16, log, obs);
        }
        // Per-day compile/hit deltas. Compiles happen under the cache lock,
        // so both totals are sums over the day's work items — independent
        // of thread count and interleaving, like every other counter here.
        // Which *phase* takes a given compile is a thread race (Dagger and
        // VanGogh share the cache), so compile work is charged here, at
        // the day choke point, onto a fixed row rather than via the
        // scope stack; the cache pauses the allocation meter for the same
        // reason.
        let (compiles, hits) = self.js_cache.stats();
        obs.count("simweb.js_compile", compiles - compiles_before);
        obs.count("simweb.js_cache_hit", hits - hits_before);
        obs.add_work(
            "crawl/render",
            ss_obs::WorkKind::JsCompiles,
            compiles - compiles_before,
        );
    }

    /// Runs the map phase on `cfg.threads` scoped worker threads pulling
    /// vertical indices from a shared counter. Results land in their
    /// vertical's slot, so scheduling order cannot leak into the output.
    fn map_parallel(&self, world: &World, view: DbView<'_>, day: SimDate) -> Vec<VerticalLog> {
        let n = self.monitored.len();
        let cfg = &self.cfg;
        let monitored = &self.monitored;
        let js_cache = &self.js_cache;
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<VerticalLog>>> = Mutex::new((0..n).map(|_| None).collect());
        crossbeam::thread::scope(|s| {
            for _ in 0..cfg.threads.min(n) {
                s.spawn(|_| loop {
                    let vi = next.fetch_add(1, Ordering::Relaxed);
                    if vi >= n {
                        break;
                    }
                    let log = crawl_vertical(world, cfg, view, &monitored[vi], vi, day, js_cache);
                    slots.lock().expect("no worker panicked holding the lock")[vi] = Some(log);
                });
            }
        })
        .expect("crawl worker panicked");
        slots
            .into_inner()
            .expect("workers joined")
            .into_iter()
            .map(|slot| slot.expect("every vertical produced a log"))
            .collect()
    }

    /// Reduce: replays one vertical's event log into the database (the
    /// only place crawl results touch the interner or the maps) and folds
    /// the worker's metric registry into the caller's — in vertical
    /// order, mirroring the event-replay determinism rule.
    fn apply_log(&mut self, day: SimDate, vertical: u16, log: VerticalLog, obs: &Registry) {
        obs.merge_from(&log.metrics);
        self.recorder.merge_from(&log.trace);
        for event in log.events {
            match event {
                CrawlEvent::Seen { domain } => {
                    let id = self.db.domains.intern(&domain);
                    if let Some(info) = self.db.doorway_info.get_mut(&id) {
                        info.last_seen = day;
                    }
                }
                CrawlEvent::Clean { domain } => {
                    let id = self.db.domains.intern(&domain);
                    // A domain another vertical already confirmed poisoned
                    // today stays poisoned (positive detections win).
                    if !self.db.doorway_info.contains_key(&id) {
                        self.clean.insert(id);
                    }
                }
                CrawlEvent::Detected {
                    domain,
                    signal,
                    landing,
                    check,
                } => {
                    let id = self.db.domains.intern(&domain);
                    self.clean.remove(&id);
                    let landing_id = landing.map(|l| self.db.domains.intern(&l));
                    match self.db.doorway_info.get_mut(&id) {
                        // Another vertical detected it earlier today.
                        Some(info) => {
                            info.last_seen = day;
                            info.last_check = check;
                            if let Some(lid) = landing_id {
                                let changed =
                                    info.landings.last().map(|(_, l)| *l != lid).unwrap_or(true);
                                if changed {
                                    info.landings.push((day, lid));
                                }
                            }
                        }
                        None => {
                            self.db.doorway_info.insert(
                                id,
                                DomainInfo {
                                    first_seen: day,
                                    last_seen: day,
                                    cloak: Some(signal),
                                    landings: landing_id.map(|l| (day, l)).into_iter().collect(),
                                    label_seen: None,
                                    last_unlabeled_before: None,
                                    last_verified: day,
                                    last_check: check,
                                },
                            );
                        }
                    }
                }
                CrawlEvent::Reverified {
                    domain,
                    landing,
                    check,
                } => {
                    let id = self.db.domains.intern(&domain);
                    let landing_id = landing.map(|l| self.db.domains.intern(&l));
                    if let Some(info) = self.db.doorway_info.get_mut(&id) {
                        info.last_verified = day;
                        info.last_check = check;
                        if let Some(lid) = landing_id {
                            let changed =
                                info.landings.last().map(|(_, l)| *l != lid).unwrap_or(true);
                            if changed {
                                info.landings.push((day, lid));
                            }
                        }
                    }
                }
                CrawlEvent::Label { domain, labeled } => {
                    let id = self.db.domains.intern(&domain);
                    self.observe_label(id, day, labeled);
                }
                CrawlEvent::Psr {
                    term,
                    rank,
                    domain,
                    is_root,
                    labeled,
                } => {
                    let term_id = self.db.terms.intern(&term);
                    let domain_id = self.db.domains.intern(&domain);
                    // The landing is read back from the database, after the
                    // Detected/Reverified events preceding this record have
                    // been applied — same read-your-writes order as the
                    // sequential crawler.
                    let landing = self
                        .db
                        .doorway_info
                        .get(&domain_id)
                        .and_then(|i| i.landings.last().map(|(_, l)| *l));
                    self.db.psrs.push(PsrRecord {
                        day,
                        vertical,
                        term: term_id,
                        rank,
                        domain: domain_id,
                        is_root,
                        labeled,
                        landing,
                    });
                }
                CrawlEvent::StoreVisit { domain, outcome } => {
                    let landing_id = self.db.domains.intern(&domain);
                    self.apply_store_visit(day, landing_id, outcome);
                }
            }
        }
        self.db.daily_counts.push(log.count);
    }

    /// Replays one landing-page observation into the store table.
    fn apply_store_visit(&mut self, day: SimDate, landing_id: u32, outcome: StoreObservation) {
        let fresh = || StoreInfo {
            first_seen: day,
            last_seen: day,
            is_store: false,
            html: String::new(),
            cookie_names: Vec::new(),
            seizure: None,
            last_alive_before_seizure: None,
        };
        match outcome {
            StoreObservation::Notice(notice) => {
                let last_alive = self.db.store_info.get(&landing_id).map(|s| s.last_seen);
                let entry = self.db.store_info.entry(landing_id).or_insert_with(fresh);
                if entry.seizure.is_none() {
                    entry.seizure = Some((day, notice));
                    entry.last_alive_before_seizure = last_alive;
                }
            }
            StoreObservation::Page {
                is_store,
                html,
                cookie_names,
            } => {
                let entry = self.db.store_info.entry(landing_id).or_insert_with(fresh);
                entry.last_seen = day;
                if is_store {
                    entry.is_store = true;
                    if entry.html.is_empty() {
                        entry.html = html;
                        entry.cookie_names = cookie_names;
                    }
                }
            }
        }
    }

    /// New-domain fraction among today's results (the paper reports 1.84%
    /// average daily churn) — measured over the most recent crawl day.
    pub fn last_day_churn(&self, day: SimDate) -> f64 {
        let cols = self.db.psrs.columns();
        let seen_today: HashSet<u32> = self.db.psrs.day_rows(day).map(|i| cols.domain[i]).collect();
        if seen_today.is_empty() {
            return 0.0;
        }
        let new = seen_today
            .iter()
            .filter(|d| {
                self.db
                    .doorway_info
                    .get(d)
                    .map(|i| i.first_seen == day)
                    .unwrap_or(false)
            })
            .count();
        new as f64 / seen_today.len() as f64
    }

    /// Records hacked-label state transitions for delay estimation.
    fn observe_label(&mut self, domain_id: u32, day: SimDate, labeled: bool) {
        let Some(info) = self.db.doorway_info.get_mut(&domain_id) else {
            return;
        };
        match (labeled, info.label_seen) {
            (true, None) => info.label_seen = Some((day, day)),
            (true, Some((first, _))) => info.label_seen = Some((first, day)),
            (false, None) => info.last_unlabeled_before = Some(day),
            (false, Some(_)) => {}
        }
    }
}

/// The pure map phase for one vertical: crawl every monitored term's SERP
/// against `&World`, deciding each domain from the start-of-day view plus
/// a thread-local overlay of this day's own verdicts. Counters land in
/// the log's private registry, labeled with the vertical name.
fn crawl_vertical(
    world: &World,
    cfg: &CrawlerConfig,
    view: DbView<'_>,
    mv: &MonitoredVertical,
    vi: usize,
    day: SimDate,
    js_cache: &JsCache,
) -> VerticalLog {
    let vertical = mv.name.as_str();
    let metrics = Registry::new();
    // Per-work-item recorder: unbounded here, bounded at the merge point,
    // so eviction happens once in a single deterministic stream.
    let trace = FlightRecorder::unbounded(cfg.trace);
    // This vertical's same-day verdicts, layered over the view so a domain
    // appearing under several terms is only checked once — the same
    // memoization the sequential crawler got from its database. A domain
    // in `local_poisoned` was detected or re-verified today.
    let mut local_poisoned: HashMap<String, CloakSignal> = HashMap::new();
    let mut local_clean: HashSet<String> = HashSet::new();

    let mut count = DailyCount {
        day,
        vertical: vi as u16,
        top10_seen: 0,
        top10_poisoned: 0,
        total_seen: 0,
        total_poisoned: 0,
    };
    let mut events: Vec<CrawlEvent> = Vec::new();
    let mut renders_reused = 0u64;

    for term in &mv.terms {
        let Some(serp) = query_by_text(world, term, day, cfg.serp_depth) else {
            continue;
        };
        let results = serp.results();
        ss_obs::count!(metrics, "crawl.serp_queries", 1, vertical = vertical);
        ss_obs::observe!(metrics, "crawl.serp_results", results.len());
        for hit in results {
            let (rank, labeled) = (hit.rank, hit.hacked_label);
            let url = &world.engine.doc(hit.doc).url;
            count.total_seen += 1;
            if rank <= 10 {
                count.top10_seen += 1;
            }
            let name = url.host.as_str();

            let prior = match local_poisoned.get(name) {
                Some(&signal) => Prior::Poisoned(signal, None),
                None => match view.prior(name) {
                    Prior::New if local_clean.contains(name) => Prior::Clean,
                    prior => prior,
                },
            };
            let poisoned = if let Prior::Poisoned(signal, info) = prior {
                events.push(CrawlEvent::Seen {
                    domain: name.to_owned(),
                });
                let (last_verified, last_check) =
                    info.map_or((day, None), |i| (i.last_verified, i.last_check.as_ref()));
                // Known poisoned: periodic cheap landing re-verification.
                if day.days_since(last_verified) >= i64::from(cfg.reverify_days) {
                    ss_obs::count!(metrics, "crawl.fetches", 1, vertical = vertical);
                    ss_obs::count!(metrics, "crawl.reverifies", 1, vertical = vertical);
                    let verdict = match signal {
                        CloakSignal::Iframe => vangogh::check_with(
                            world,
                            url,
                            term,
                            cfg.max_hops,
                            last_check,
                            js_cache,
                            &metrics,
                        ),
                        _ => dagger::check_with(
                            world,
                            url,
                            term,
                            cfg.max_hops,
                            last_check,
                            js_cache,
                            &metrics,
                        ),
                    };
                    renders_reused += u64::from(verdict.reused);
                    local_poisoned.insert(name.to_owned(), signal);
                    let landing = verdict.landing;
                    events.push(CrawlEvent::Reverified {
                        domain: name.to_owned(),
                        landing: landing.as_ref().map(|l| l.host.as_str().to_owned()),
                        check: verdict.last_check,
                    });
                    if let Some(landing) = landing {
                        events.push(visit_store(world, &landing, &metrics, vertical));
                    }
                }
                true
            } else if matches!(prior, Prior::Clean) {
                false // churn trim: known clean
            } else {
                // First sighting: run the detection stack — Dagger, then
                // a rendering pass when Dagger stays quiet.
                ss_obs::count!(metrics, "crawl.fetches", 2, vertical = vertical);
                ss_obs::count!(metrics, "crawl.detector_runs", 1, vertical = vertical);
                let mut verdict =
                    dagger::check_with(world, url, term, cfg.max_hops, None, js_cache, &metrics);
                if verdict.cloaked.is_none() && cfg.render_sample > 0 {
                    ss_obs::count!(metrics, "crawl.fetches", 1, vertical = vertical);
                    ss_obs::count!(metrics, "crawl.render_passes", 1, vertical = vertical);
                    verdict = vangogh::check_with(
                        world,
                        url,
                        term,
                        cfg.max_hops,
                        None,
                        js_cache,
                        &metrics,
                    );
                }
                match verdict.cloaked {
                    None => {
                        ss_obs::count!(metrics, "crawl.clean_verdicts", 1, vertical = vertical);
                        local_clean.insert(name.to_owned());
                        events.push(CrawlEvent::Clean {
                            domain: name.to_owned(),
                        });
                        false
                    }
                    Some(signal) => {
                        ss_obs::count!(metrics, "crawl.cloak_detections", 1, vertical = vertical);
                        ss_obs::trace!(
                            trace,
                            day.day_index(),
                            "crawl.detect",
                            rank,
                            "detected {name} vertical={vertical} signal={signal:?} landing={:?}",
                            verdict.landing.as_ref().map(|l| l.host.as_str())
                        );
                        local_poisoned.insert(name.to_owned(), signal);
                        let landing = verdict.landing;
                        events.push(CrawlEvent::Detected {
                            domain: name.to_owned(),
                            signal,
                            landing: landing.as_ref().map(|l| l.host.as_str().to_owned()),
                            check: verdict.last_check,
                        });
                        if let Some(landing) = landing {
                            events.push(visit_store(world, &landing, &metrics, vertical));
                        }
                        true
                    }
                }
            };

            if poisoned {
                let _psr_log = metrics.cost_scope("crawl/psr_log");
                ss_obs::count!(metrics, "crawl.psrs", 1, vertical = vertical);
                ss_obs::observe!(metrics, "crawl.psr_rank", rank);
                count.total_poisoned += 1;
                if rank <= 10 {
                    count.top10_poisoned += 1;
                }
                events.push(CrawlEvent::Label {
                    domain: name.to_owned(),
                    labeled,
                });
                ss_obs::trace!(
                    trace,
                    day.day_index(),
                    "crawl.psr",
                    rank,
                    "psr {name} vertical={vertical} term={term:?} rank={rank} labeled={labeled}"
                );
                events.push(CrawlEvent::Psr {
                    term: term.clone(),
                    rank: rank.min(255) as u8,
                    domain: name.to_owned(),
                    is_root: url.is_root_page(),
                    labeled,
                });
            }
        }
    }
    if renders_reused > 0 {
        ss_obs::count!(
            metrics,
            "crawl.renders_reused",
            renders_reused,
            vertical = vertical
        );
    }
    if trace.enabled() {
        trace.record(
            day.day_index(),
            "crawl.vertical",
            vi as u64,
            format!(
                "vertical={vertical} psrs={} serp_rows={}",
                count.total_poisoned, count.total_seen
            ),
        );
    }
    VerticalLog {
        count,
        events,
        metrics,
        trace,
    }
}

/// Visits a landing (store) domain read-only: store detection, HTML
/// capture, seizure observation — packaged as an event for the reduce.
fn visit_store(world: &World, landing: &Url, metrics: &Registry, vertical: &str) -> CrawlEvent {
    ss_obs::count!(metrics, "crawl.fetches", 1, vertical = vertical);
    ss_obs::count!(metrics, "crawl.store_visits", 1, vertical = vertical);
    let root = Url::root(landing.host.clone());
    let (resp, _) = {
        let _fetch = metrics.cost_scope("crawl/fetch");
        ss_obs::charge(ss_obs::WorkKind::DocsFetched, 1);
        world.fetch(&Request {
            url: root,
            user_agent: UserAgent::Browser,
            referrer: Some(dagger::google_referrer("landing")),
        })
    };
    let domain = landing.host.as_str().to_owned();
    let notice = {
        let _detect = metrics.cost_scope("crawl/detect");
        stores::parse_seizure_notice(&resp.body)
    };
    if let Some(notice) = notice {
        ss_obs::count!(metrics, "crawl.seizure_notices", 1, vertical = vertical);
        return CrawlEvent::StoreVisit {
            domain,
            outcome: StoreObservation::Notice(notice),
        };
    }
    let verdict = {
        let _detect = metrics.cost_scope("crawl/detect");
        stores::detect_store(&resp.body, &resp.cookies)
    };
    CrawlEvent::StoreVisit {
        domain,
        outcome: StoreObservation::Page {
            is_store: verdict.is_store(),
            html: resp.body,
            cookie_names: resp.cookies.into_iter().map(|c| c.name).collect(),
        },
    }
}

impl Snapshot for Crawler {
    const TAG: &'static str = "crawler";
    const VERSION: u16 = 2;

    /// Captures everything a resumed crawl reads: config, the monitored
    /// term lists (fixed at crawl start in the study, so they must survive
    /// a checkpoint rather than be re-derived from a later world), the
    /// database, the provenance recorder, the churn-trim clean set, and
    /// the JS cache with its per-run counters.
    fn write_body(&self, w: &mut Writer) {
        w.put_u64(self.cfg.serp_depth as u64);
        w.put_u8(self.cfg.render_sample);
        w.put_u32(self.cfg.reverify_days);
        w.put_u64(self.cfg.max_hops as u64);
        w.put_u64(self.cfg.threads as u64);
        w.put_u8(match self.cfg.trace {
            TraceLevel::Off => 0,
            TraceLevel::Stage => 1,
            TraceLevel::Event => 2,
        });
        w.put_seq(&self.monitored, |w, m| {
            w.put_str(&m.name);
            w.put_u8(match m.methodology {
                TermMethodology::DoorwayExtraction => 0,
                TermMethodology::SuggestExpansion => 1,
            });
            w.put_seq(&m.terms, |w, t| w.put_str(t));
        });
        w.put_nested(&self.db);
        w.put_nested(&self.recorder);
        let mut clean: Vec<u32> = self.clean.iter().copied().collect();
        clean.sort_unstable();
        w.put_seq(&clean, |w, id| w.put_u32(*id));
        w.put_nested(&self.js_cache);
    }

    fn read_body(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let cfg = CrawlerConfig {
            serp_depth: r.get_u64()? as usize,
            render_sample: r.get_u8()?,
            reverify_days: r.get_u32()?,
            max_hops: r.get_u64()? as usize,
            threads: r.get_u64()? as usize,
            trace: match r.get_u8()? {
                0 => TraceLevel::Off,
                1 => TraceLevel::Stage,
                2 => TraceLevel::Event,
                b => return Err(SnapshotError::Corrupt(format!("trace level byte {b}"))),
            },
        };
        let monitored = r.get_seq(|r| {
            Ok(MonitoredVertical {
                name: r.get_str()?,
                methodology: match r.get_u8()? {
                    0 => TermMethodology::DoorwayExtraction,
                    1 => TermMethodology::SuggestExpansion,
                    b => {
                        return Err(SnapshotError::Corrupt(format!("methodology byte {b}")));
                    }
                },
                terms: r.get_seq(|r| r.get_str())?,
            })
        })?;
        let db = r.get_nested()?;
        let recorder = r.get_nested()?;
        let clean: HashSet<u32> = r.get_seq(|r| r.get_u32())?.into_iter().collect();
        let js_cache = r.get_nested()?;
        Ok(Crawler {
            cfg,
            monitored,
            db,
            recorder,
            clean,
            js_cache,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::terms;
    use ss_eco::ScenarioConfig;

    fn crawl_world_threaded(days: u32, threads: usize) -> (World, Crawler, Registry) {
        crawl_scenario(ScenarioConfig::tiny(23), 6, days, threads)
    }

    fn crawl_scenario(
        scenario: ScenarioConfig,
        terms_per_vertical: usize,
        days: u32,
        threads: usize,
    ) -> (World, Crawler, Registry) {
        let mut w = World::build(scenario).unwrap();
        let start = SimDate::from_day_index(ss_types::CRAWL_START_DAY);
        w.run_until(start);
        let monitored = terms::select_all(&w, start, terms_per_vertical, 5);
        let mut crawler = Crawler::new(
            CrawlerConfig {
                serp_depth: 30,
                threads,
                trace: TraceLevel::Event,
                ..CrawlerConfig::default()
            },
            monitored,
        );
        let obs = Registry::new();
        for d in 0..days {
            let day = start + 1 + d;
            w.run_until(day);
            crawler.crawl_day_metered(&w, day, &obs);
        }
        (w, crawler, obs)
    }

    fn crawl_world(days: u32) -> (World, Crawler) {
        let (w, crawler, _) = crawl_world_threaded(days, 1);
        (w, crawler)
    }

    #[test]
    fn crawl_accumulates_psrs_and_counts() {
        let (_w, crawler) = crawl_world(6);
        assert!(!crawler.db.psrs.is_empty(), "no PSRs found");
        assert!(!crawler.db.daily_counts.is_empty());
        let poisoned = crawler.db.poisoned_domains().count();
        assert!(poisoned > 0);
        // Every PSR's rank is within the crawled depth.
        assert!(crawler.db.psrs.iter().all(|p| (1..=30).contains(&p.rank)));
    }

    #[test]
    fn detected_domains_are_really_doorways() {
        // Methodology validation in miniature: zero false positives
        // against ground truth (§4.1.3 found none either).
        let (w, crawler) = crawl_world(5);
        for (id, _) in crawler.db.poisoned_domains() {
            let name = crawler.db.domains.resolve(*id);
            let domain = w
                .domains
                .lookup(&ss_types::DomainName::parse(name).unwrap())
                .unwrap();
            assert!(
                w.doorway_truth(domain).is_some(),
                "crawler flagged non-doorway {name}"
            );
        }
    }

    #[test]
    fn stores_are_detected_behind_doorways() {
        let (w, crawler) = crawl_world(6);
        let stores: Vec<&u32> = crawler.db.detected_stores().map(|(id, _)| id).collect();
        assert!(!stores.is_empty(), "no stores detected");
        for id in stores {
            let name = crawler.db.domains.resolve(*id);
            let domain = w
                .domains
                .lookup(&ss_types::DomainName::parse(name).unwrap())
                .unwrap();
            let kind = &w.domains.get(domain).kind;
            assert!(
                matches!(kind, ss_eco::domains::SiteKind::Storefront { .. }),
                "{name} flagged as store but is {kind:?}"
            );
        }
        // Store HTML was captured for the classifier.
        assert!(crawler
            .db
            .detected_stores()
            .all(|(_, s)| !s.html.is_empty()));
    }

    #[test]
    fn snapshot_roundtrip_resumes_the_crawl_bit_identically() {
        // Crawl 4 days, checkpoint, then crawl 3 more on both the original
        // and the restored crawler against the same world: databases,
        // clean sets, cache counters, and recorder contents must match.
        let mut w = World::build(ScenarioConfig::tiny(23)).unwrap();
        let start = SimDate::from_day_index(ss_types::CRAWL_START_DAY);
        w.run_until(start);
        let monitored = terms::select_all(&w, start, 6, 5);
        let mut a = Crawler::new(
            CrawlerConfig {
                serp_depth: 30,
                trace: TraceLevel::Event,
                ..CrawlerConfig::default()
            },
            monitored,
        );
        for d in 0..4 {
            let day = start + 1 + d;
            w.run_until(day);
            a.crawl_day(&w, day);
        }
        let mut b = Crawler::decode(&a.encode()).unwrap();
        assert_eq!(b.cfg, a.cfg);
        assert_eq!(b.db.psrs, a.db.psrs);
        assert_eq!(b.db.psrs.state_fingerprint(), a.db.psrs.state_fingerprint());
        assert_eq!(b.clean, a.clean);
        assert_eq!(b.js_cache.stats(), a.js_cache.stats());
        assert_eq!(b.recorder.render(), a.recorder.render());
        for d in 4..7 {
            let day = start + 1 + d;
            w.run_until(day);
            a.crawl_day(&w, day);
            b.crawl_day(&w, day);
        }
        assert_eq!(b.db.psrs, a.db.psrs);
        assert_eq!(b.db.daily_counts, a.db.daily_counts);
        assert_eq!(b.clean, a.clean);
        assert_eq!(b.js_cache.stats(), a.js_cache.stats());
        assert_eq!(b.recorder.render(), a.recorder.render());
        assert_eq!(b.encode(), a.encode());
    }

    #[test]
    fn churn_trim_skips_known_clean_domains() {
        let (_w, crawler) = crawl_world(4);
        assert!(!crawler.clean.is_empty(), "no clean domains cached");
        // Clean domains never appear among poisoned.
        for id in &crawler.clean {
            assert!(!crawler.db.doorway_info.contains_key(id));
        }
    }

    #[test]
    fn churn_rate_is_low_after_warmup() {
        let (_w, crawler) = crawl_world(8);
        let last = SimDate::from_day_index(ss_types::CRAWL_START_DAY + 8);
        let churn = crawler.last_day_churn(last);
        assert!(churn < 0.5, "churn {churn} implausibly high after warmup");
    }

    /// The tentpole determinism guarantee at the crawler level: the entire
    /// database — PSR stream, doorway table with each doorway's remembered
    /// check, store table, daily counts, and both interners — is
    /// bit-identical at any thread count.
    #[test]
    fn crawl_is_bit_identical_across_thread_counts() {
        let (_w1, serial, serial_obs) = crawl_world_threaded(5, 1);
        assert!(
            serial
                .db
                .doorway_info
                .values()
                .any(|i| i.last_check.is_some()),
            "no doorway remembers a check"
        );
        assert!(
            serial_obs.counter_total("crawl.renders_reused") > 0,
            "no reverification reused a render"
        );
        for threads in [2, 8] {
            let (_w, parallel, parallel_obs) = crawl_world_threaded(5, threads);
            // Telemetry follows the same replay rule as the database:
            // per-worker registries merged in vertical order, so the
            // deterministic half renders byte-identically.
            assert_eq!(
                serial_obs.metrics_json(),
                parallel_obs.metrics_json(),
                "{threads} threads: merged metric registries differ"
            );
            assert_eq!(
                serial.db.psrs, parallel.db.psrs,
                "{threads} threads: PSRs differ"
            );
            assert_eq!(
                serial.db.daily_counts, parallel.db.daily_counts,
                "{threads} threads: daily counts differ"
            );
            assert_eq!(
                serial.db.domains.len(),
                parallel.db.domains.len(),
                "{threads} threads: interner sizes differ"
            );
            for id in 0..serial.db.domains.len() as u32 {
                assert_eq!(
                    serial.db.domains.resolve(id),
                    parallel.db.domains.resolve(id)
                );
            }
            assert_eq!(serial.db.doorway_info.len(), parallel.db.doorway_info.len());
            for (id, info) in &serial.db.doorway_info {
                let other = &parallel.db.doorway_info[id];
                assert_eq!(info.cloak, other.cloak);
                assert_eq!(info.landings, other.landings);
                assert_eq!(info.first_seen, other.first_seen);
                assert_eq!(info.last_verified, other.last_verified);
                assert_eq!(
                    info.last_check, other.last_check,
                    "{threads} threads: remembered checks differ"
                );
            }
            assert_eq!(serial.db.store_info.len(), parallel.db.store_info.len());
            for (id, info) in &serial.db.store_info {
                let other = &parallel.db.store_info[id];
                assert_eq!(info.is_store, other.is_store);
                assert_eq!(info.html, other.html);
                assert_eq!(info.seizure.is_some(), other.seizure.is_some());
            }
            assert_eq!(
                serial.clean, parallel.clean,
                "{threads} threads: clean sets differ"
            );
            // The flight recorder is part of the deterministic half:
            // worker recorders merged in vertical order re-stamp their
            // sequence numbers, so the rendered stream is byte-identical.
            assert!(!serial.recorder.is_empty(), "recorder captured nothing");
            assert_eq!(
                serial.recorder.render(),
                parallel.recorder.render(),
                "{threads} threads: flight recorders differ"
            );
        }
    }

    /// Crawls `days` days at one thread, so every reuse runs through the
    /// exactness oracle on this test's thread, and returns the reuses it
    /// confirmed per detector plus the crawl's reuse counter.
    fn confirmed_reuses(scenario: ScenarioConfig, terms: usize, days: u32) -> ([u64; 2], u64) {
        let before = crate::recheck::oracle::confirmed();
        let (_w, _crawler, obs) = crawl_scenario(scenario, terms, days, 1);
        let after = crate::recheck::oracle::confirmed();
        (
            [after[0] - before[0], after[1] - before[1]],
            obs.counter_total("crawl.renders_reused"),
        )
    }

    /// Render reuse is exact: over a 14-day crawl, every reused conclusion
    /// equals a fresh render of the same inputs on a throwaway cache (the
    /// oracle panics otherwise), on both detectors' paths.
    #[test]
    fn reuse_oracle_confirms_every_reused_render() {
        let ([dagger, vangogh], reused) = confirmed_reuses(ScenarioConfig::tiny(23), 6, 14);
        assert!(dagger > 0, "no Dagger reverification reused a render");
        assert!(vangogh > 0, "no VanGogh reverification reused a render");
        assert_eq!(
            reused,
            dagger + vangogh,
            "every reuse went through the oracle"
        );
    }

    /// The oracle over a longer, denser crawl: the small preset for 30
    /// days. Release-only (`--include-ignored`): a debug build renders
    /// too slowly.
    #[test]
    #[ignore = "release-scale oracle; run with --release -- --include-ignored"]
    fn reuse_oracle_confirms_every_reused_render_at_small_scale() {
        let ([dagger, vangogh], reused) = confirmed_reuses(ScenarioConfig::small(7), 12, 30);
        assert!(dagger > 0 && vangogh > 0, "reuses {dagger}/{vangogh}");
        assert_eq!(reused, dagger + vangogh);
    }

    /// The crawl records a meaningful per-vertical metric surface: fetch,
    /// detection, and PSR counters plus the rank histogram, all labeled.
    #[test]
    fn crawl_metrics_cover_fetches_detections_and_psrs() {
        let (_w, crawler, obs) = crawl_world_threaded(5, 2);
        assert!(obs.counter_total("crawl.serp_queries") > 0);
        assert!(obs.counter_total("crawl.fetches") > 0);
        assert!(obs.counter_total("crawl.cloak_detections") > 0);
        assert_eq!(
            obs.counter_total("crawl.psrs"),
            crawler.db.psrs.len() as u64
        );
        let ranks = obs
            .histogram("crawl.psr_rank")
            .expect("rank histogram recorded");
        assert_eq!(ranks.count(), crawler.db.psrs.len() as u64);
        assert!(
            ranks.max().unwrap_or(0) <= 30,
            "ranks bounded by crawl depth"
        );
        // Labels carry the vertical name.
        assert!(obs
            .metric_names()
            .iter()
            .any(|n| n.starts_with("crawl.psrs{vertical=")));
    }

    /// The VM compile cache works at crawl scale: pages are generated from
    /// a handful of templates, so compiles stay tiny while hits track the
    /// render volume — and both surface as counters in the registry.
    /// Repeat renders of unchanged pages are reused above the cache, so
    /// the hit volume is measured on the same crawl with every remembered
    /// check forgotten before each day (all reverifications render).
    #[test]
    fn js_compile_cache_counters_recorded_under_vm() {
        let (_w, crawler, obs) = crawl_world_threaded(5, 2);
        let (compiles, hits) = crawler.js_cache_stats();
        assert!(compiles > 0, "rendering crawls must compile some scripts");
        assert_eq!(obs.counter_total("simweb.js_compile"), compiles);
        assert_eq!(obs.counter_total("simweb.js_cache_hit"), hits);

        let mut w = World::build(ScenarioConfig::tiny(23)).unwrap();
        let start = SimDate::from_day_index(ss_types::CRAWL_START_DAY);
        w.run_until(start);
        let mut forgetful = Crawler::new(crawler.cfg.clone(), crawler.monitored.clone());
        for d in 0..5 {
            let day = start + 1 + d;
            w.run_until(day);
            for info in forgetful.db.doorway_info.values_mut() {
                info.last_check = None;
            }
            forgetful.crawl_day(&w, day);
        }
        let (all_compiles, all_hits) = forgetful.js_cache_stats();
        assert_eq!(
            all_compiles, compiles,
            "a reused render never skips a compile"
        );
        assert!(
            all_hits > all_compiles,
            "template reuse should make hits ({all_hits}) dominate compiles ({all_compiles})"
        );
        assert!(hits < all_hits, "reused renders should skip cache lookups");
    }
}
