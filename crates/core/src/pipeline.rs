//! The study pipeline: §4's data-collection programme run end to end.
//!
//! The daily programme is a schedule of [`DailyStage`]s — crawl, store
//! enrollment, purchase-pair sampling, real purchases, AWStats sweeps —
//! each a self-contained unit over the shared [`DailyState`]. [`Study::run`]
//! iterates the registered schedule for every day of the window, so the
//! programme can be reordered, trimmed, or extended without touching the
//! driver loop. Stages receive `&mut World` but only the purchase-plane
//! stages use it mutably (via `Web::fetch_apply`); observation stages go
//! through the read-only fetch plane.
//!
//! # Telemetry
//!
//! The run owns one [`ss_obs::Registry`]. Every stage executes under a
//! `stage.{name}` span and records `pipeline.*` counters through
//! [`StageContext::obs`]; the crawler, sampler, and world contribute
//! `crawl.*`, `orders.*`, and `eco.*` metrics of their own. At the end of
//! the run everything is folded into one registry, summarized as a
//! [`RunManifest`], and (when [`StudyConfig::manifest_path`] is set)
//! written to disk. The counters and histograms are deterministic for a
//! given config — identical at any crawl thread count — while span
//! timings are wall-clock and live in a separate, non-compared section.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use ss_obs::{Registry, TraceLevel};
use ss_types::{DomainName, SimDate};

use ss_crawl::crawler::{Crawler, CrawlerConfig};
use ss_crawl::terms::MonitoredVertical;
use ss_eco::{ScenarioConfig, World};
use ss_orders::analytics::{self, ParsedReport};
use ss_orders::purchasepair::{OrderSampler, SamplerConfig};
use ss_orders::supplier_scrape::{self, SupplierDataset};
use ss_orders::transactions::{self, Transaction};

use crate::analysis::scan::StudyScan;
use crate::attribution::{self, Attribution, AttributionConfig};
use crate::manifest::{self, CalibrationTarget, DayRecord, RunManifest, StageSlice};
use crate::state::{self, RunCheckpoint, RunOptions, RunState};

/// Study configuration: the scenario plus every §4 programme knob.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// The world scenario.
    pub scenario: ScenarioConfig,
    /// Crawler configuration (§4.1.2).
    pub crawler: CrawlerConfig,
    /// Purchase-pair sampler configuration (§4.3.1).
    pub sampler: SamplerConfig,
    /// Monitored terms per vertical (§4.1.1; paper: 100).
    pub monitored_terms: usize,
    /// Cap on stores enrolled in order monitoring (paper: 290 stores).
    pub monitor_store_cap: usize,
    /// Target number of real purchases (§4.3.2; paper: 16).
    pub purchase_target: usize,
    /// Campaign-identification configuration (§4.2).
    pub attribution: AttributionConfig,
    /// First crawl day (defaults to the paper's 2013-11-13).
    pub crawl_start: SimDate,
    /// Last crawl day inclusive (defaults to 2014-07-15, clamped to the
    /// scenario's end).
    pub crawl_end: SimDate,
    /// Days between AWStats collection sweeps (§4.4: "periodically").
    pub awstats_interval: u32,
    /// Where to write the run manifest; `None` disables the write (the
    /// manifest is still built and returned in [`StudyOutput`]).
    pub manifest_path: Option<String>,
    /// Worker threads for the simulation's tick-stage planners (`<= 1`
    /// runs serially). Usually set together with `crawler.threads` via
    /// [`StudyConfig::set_threads`]; any value is bit-identical.
    pub tick_threads: usize,
    /// Worker threads for the post-crawl analysis scan (`<= 1` runs
    /// serially). Usually set via [`StudyConfig::set_threads`]; the scan
    /// is bit-identical at any value.
    pub analysis_threads: usize,
    /// Trace-plane level: flight recorders (crawl + tick) and the world
    /// event-trail retention that powers `repro explain`. Off by default
    /// so benches and plain studies pay nothing; set together with the
    /// crawler's knob via [`StudyConfig::set_trace`]. Enabling it changes
    /// no deterministic metric byte.
    pub trace_level: TraceLevel,
    /// Where to write the Chrome trace-event timeline (wall-clock half);
    /// `None` disables the export.
    pub trace_path: Option<String>,
    /// Declared calibration target bands, evaluated against this run's
    /// headline observables into the manifest's `calibration` section.
    pub calibration: Vec<CalibrationTarget>,
}

impl StudyConfig {
    /// Paper-faithful defaults over a given scenario.
    pub fn new(scenario: ScenarioConfig) -> Self {
        let crawl_end_day = ss_types::CRAWL_END_DAY.min(scenario.scale.end_day);
        StudyConfig {
            crawler: CrawlerConfig {
                serp_depth: scenario.scale.serp_depth,
                ..CrawlerConfig::default()
            },
            sampler: SamplerConfig::default(),
            monitored_terms: scenario.scale.terms_per_vertical,
            monitor_store_cap: 290,
            purchase_target: 16,
            attribution: AttributionConfig::default(),
            crawl_start: SimDate::from_day_index(ss_types::CRAWL_START_DAY),
            crawl_end: SimDate::from_day_index(crawl_end_day),
            awstats_interval: 14,
            manifest_path: Some("reports/run_manifest.json".to_owned()),
            tick_threads: 1,
            analysis_threads: 1,
            trace_level: TraceLevel::Off,
            trace_path: None,
            calibration: Vec::new(),
            scenario,
        }
    }

    /// Points every worker pool at `n` threads: the crawler's
    /// per-vertical fan-out, the tick planners' shard fan-out, and the
    /// analysis scan's day-range shards. Output is bit-identical for
    /// every `n`.
    pub fn set_threads(&mut self, n: usize) {
        self.crawler.threads = n.max(1);
        self.tick_threads = n.max(1);
        self.analysis_threads = n.max(1);
    }

    /// Points the whole trace plane at `level`: the crawler's PSR
    /// provenance recorder, the tick plane's recorder, and the world
    /// event-trail retention. The plumbing mirror of
    /// [`StudyConfig::set_threads`].
    pub fn set_trace(&mut self, level: TraceLevel) {
        self.trace_level = level;
        self.crawler.trace = level;
    }

    /// A fast configuration for tests: tiny world, short crawl, light
    /// training.
    pub fn fast_test(seed: u64) -> Self {
        let mut cfg = StudyConfig::new(ScenarioConfig::tiny(seed));
        cfg.monitored_terms = 6;
        cfg.crawler.serp_depth = 30;
        cfg.crawl_end = cfg.crawl_start + 16;
        cfg.attribution.train.epochs = 120;
        cfg.attribution.refine_rounds = 1;
        cfg.awstats_interval = 7;
        cfg.manifest_path = None;
        cfg
    }
}

/// Everything the study produced; the analyses feed on this.
pub struct StudyOutput {
    /// The (post-run) world — used for truth scoring and late fetches.
    pub world: World,
    /// The crawler with its database.
    pub crawler: Crawler,
    /// The purchase-pair sampler.
    pub sampler: OrderSampler,
    /// Completed purchases.
    pub transactions: Vec<Transaction>,
    /// AWStats reports per store domain, in collection order.
    pub awstats: HashMap<String, Vec<ParsedReport>>,
    /// Supplier dataset, when the portal was discovered.
    pub supplier: Option<SupplierDataset>,
    /// Campaign attribution artifacts.
    pub attribution: Attribution,
    /// The shared one-pass aggregation over the PSR corpus; every
    /// analysis module reads this instead of re-scanning the rows.
    pub scan: StudyScan,
    /// Monitored term sets per vertical.
    pub monitored: Vec<MonitoredVertical>,
    /// Crawl window actually executed.
    pub window: (SimDate, SimDate),
    /// The run's merged telemetry registry (crawl, eco, orders, pipeline).
    pub metrics: Registry,
    /// The run manifest (also written to [`StudyConfig::manifest_path`]).
    pub manifest: RunManifest,
}

impl StudyOutput {
    /// Fingerprint of the run's final mutable state: the world hash
    /// folded with the search engine's and the PSR store's (see
    /// [`state::run_fingerprint`]). Equal fingerprints mean an
    /// uninterrupted run and a checkpoint-resumed run ended in the same
    /// place — the state plane's equivalence tests pin this at several
    /// thread counts.
    pub fn run_fingerprint(&self) -> u64 {
        state::run_fingerprint(&self.world, &self.crawler)
    }
}

/// Mutable programme state threaded through the daily stage schedule.
pub struct DailyState {
    /// The crawler with its accumulating database.
    pub crawler: Crawler,
    /// The purchase-pair sampler.
    pub sampler: OrderSampler,
    /// Completed real purchases.
    pub transactions: Vec<Transaction>,
    /// Collected AWStats reports per store domain.
    pub awstats: HashMap<String, Vec<ParsedReport>>,
    /// Stores already purchased from (at most one real order per store),
    /// by interned domain id — resolved to strings only at the purchase
    /// boundary.
    pub purchased: HashSet<u32>,
}

/// Read-only context shared by every stage invocation.
pub struct StageContext<'a> {
    /// The study configuration.
    pub cfg: &'a StudyConfig,
    /// First day of the crawl window (cadence anchors key off it).
    pub start: SimDate,
    /// The run's telemetry registry; stages record `pipeline.*` metrics
    /// here and pass it down to metered subsystems.
    pub obs: &'a Registry,
}

/// One unit of the daily programme. Implementations must be independent
/// of wall-clock and thread scheduling: everything they need arrives via
/// the context, the state, the world, and the day.
pub trait DailyStage {
    /// Stable stage name (for schedules, logs, and tests).
    fn name(&self) -> &'static str;
    /// Static span key (`stage.{name}`), interned at compile time so the
    /// daily loop never allocates a span-name `String` per (day × stage).
    fn span_name(&self) -> &'static str;
    /// Runs the stage for one day.
    fn run(&self, ctx: &StageContext<'_>, state: &mut DailyState, world: &mut World, day: SimDate);
}

/// The daily SERP crawl (§4.1.2). Pure observation: the crawler sees only
/// the world's read plane.
pub struct CrawlStage;

impl DailyStage for CrawlStage {
    fn name(&self) -> &'static str {
        "crawl"
    }
    fn span_name(&self) -> &'static str {
        "stage.crawl"
    }
    fn run(&self, ctx: &StageContext<'_>, state: &mut DailyState, world: &mut World, day: SimDate) {
        state.crawler.crawl_day_metered(world, day, ctx.obs);
    }
}

/// Newly detected stores join order monitoring, up to the cap, keyed
/// initially by their own domain; attribution re-groups them later.
pub struct EnrollStoresStage;

impl DailyStage for EnrollStoresStage {
    fn name(&self) -> &'static str {
        "enroll-stores"
    }
    fn span_name(&self) -> &'static str {
        "stage.enroll-stores"
    }
    fn run(
        &self,
        ctx: &StageContext<'_>,
        state: &mut DailyState,
        _world: &mut World,
        _day: SimDate,
    ) {
        let cap = ctx.cfg.monitor_store_cap;
        if state.sampler.stores.len() >= cap {
            return;
        }
        for id in state.crawler.db.detected_store_ids() {
            if state.sampler.stores.len() >= cap {
                break;
            }
            let domain = state.crawler.db.domains.resolve(id);
            if !state.sampler.stores.contains_key(domain) {
                ss_obs::count!(ctx.obs, "pipeline.stores_enrolled");
            }
            state.sampler.monitor(domain, domain);
        }
    }
}

/// Purchase-pair sampling (§4.3.1): test orders at stores due for their
/// weekly sample. These are real orders, so the stage commits effects.
pub struct SamplePairsStage;

impl DailyStage for SamplePairsStage {
    fn name(&self) -> &'static str {
        "purchase-pairs"
    }
    fn span_name(&self) -> &'static str {
        "stage.purchase-pairs"
    }
    fn run(&self, ctx: &StageContext<'_>, state: &mut DailyState, world: &mut World, day: SimDate) {
        state.sampler.sample_day_metered(world, day, ctx.obs);
    }
}

/// Real purchases (§4.3.2): spread through the window until the target is
/// hit, at most one per store, two candidate stores per purchase day.
pub struct PurchaseStage;

impl DailyStage for PurchaseStage {
    fn name(&self) -> &'static str {
        "purchases"
    }
    fn span_name(&self) -> &'static str {
        "stage.purchases"
    }
    fn run(&self, ctx: &StageContext<'_>, state: &mut DailyState, world: &mut World, day: SimDate) {
        if state.transactions.len() >= ctx.cfg.purchase_target || !day.day_index().is_multiple_of(9)
        {
            return;
        }
        let candidates: Vec<u32> = state
            .crawler
            .db
            .detected_store_ids()
            .into_iter()
            .filter(|id| !state.purchased.contains(id))
            .take(2)
            .collect();
        for id in candidates {
            ss_obs::count!(ctx.obs, "pipeline.purchase_attempts");
            let domain = state.crawler.db.domains.resolve(id);
            if let Some(tx) = transactions::purchase(world, domain, day) {
                ss_obs::count!(ctx.obs, "pipeline.purchases");
                state.purchased.insert(id);
                state.transactions.push(tx);
            }
        }
    }
}

/// Periodic AWStats sweep over detected stores (§4.4): most return 404;
/// the leaky ones yield reports. Read-only.
pub struct AwstatsSweepStage;

impl DailyStage for AwstatsSweepStage {
    fn name(&self) -> &'static str {
        "awstats-sweep"
    }
    fn span_name(&self) -> &'static str {
        "stage.awstats-sweep"
    }
    fn run(&self, ctx: &StageContext<'_>, state: &mut DailyState, world: &mut World, day: SimDate) {
        if day.days_since(ctx.start) % i64::from(ctx.cfg.awstats_interval) != 0 {
            return;
        }
        ss_obs::count!(ctx.obs, "pipeline.awstats_sweeps");
        for id in state.crawler.db.detected_store_ids() {
            ss_obs::count!(ctx.obs, "pipeline.awstats_probes");
            let site = state.crawler.db.domains.resolve(id);
            if let Some(report) = analytics::fetch_report(&*world, site, None) {
                ss_obs::count!(ctx.obs, "pipeline.awstats_reports");
                let entry = state.awstats.entry(site.to_owned()).or_default();
                // Keep at most one report per period (latest wins).
                entry.retain(|r| r.period != report.period);
                entry.push(report);
            }
        }
    }
}

/// The runnable study.
pub struct Study {
    /// Configuration.
    pub cfg: StudyConfig,
    /// The daily stage schedule, executed in order each day.
    stages: Vec<Box<dyn DailyStage>>,
}

impl Study {
    /// Creates a study with the default five-stage schedule.
    pub fn new(cfg: StudyConfig) -> Self {
        Study {
            cfg,
            stages: Self::default_schedule(),
        }
    }

    /// Creates a study with a custom stage schedule.
    pub fn with_schedule(cfg: StudyConfig, stages: Vec<Box<dyn DailyStage>>) -> Self {
        Study { cfg, stages }
    }

    /// The paper's daily programme, in order: crawl, enroll newly found
    /// stores, purchase-pair sampling, real purchases, AWStats sweep.
    pub fn default_schedule() -> Vec<Box<dyn DailyStage>> {
        vec![
            Box::new(CrawlStage),
            Box::new(EnrollStoresStage),
            Box::new(SamplePairsStage),
            Box::new(PurchaseStage),
            Box::new(AwstatsSweepStage),
        ]
    }

    /// Names of the registered stages, in execution order.
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.stages.iter().map(|s| s.name()).collect()
    }

    /// Runs the full programme and returns its outputs.
    pub fn run(self) -> ss_types::Result<StudyOutput> {
        self.run_with(RunOptions::default())
    }

    /// Runs the programme with explicit run-plane options: resume from a
    /// checkpoint file and/or write checkpoints at a fixed day cadence.
    /// A resumed run reproduces the uninterrupted run's deterministic
    /// output bit for bit (headline, metrics, fingerprints); only the
    /// wall-clock sections describe the post-resume half alone.
    pub fn run_with(self, opts: RunOptions) -> ss_types::Result<StudyOutput> {
        let state = match &opts.resume_from {
            Some(path) => {
                let ckpt = state::load_checkpoint(std::path::Path::new(path))
                    .map_err(|e| ss_types::Error::Checkpoint(format!("{path}: {e}")))?;
                RunState::restore(ckpt, &self.cfg)
                    .map_err(|e| ss_types::Error::Checkpoint(format!("{path}: {e}")))?
            }
            None => RunState::build(&self.cfg)?,
        };
        self.drive(state, &opts)
    }

    /// Resumes from an already-decoded checkpoint — the in-memory path
    /// the intervention sweep uses to fork one checkpoint into arms.
    pub fn resume(self, ckpt: RunCheckpoint) -> ss_types::Result<StudyOutput> {
        let state = RunState::restore(ckpt, &self.cfg)
            .map_err(|e| ss_types::Error::Checkpoint(e.to_string()))?;
        self.drive(state, &RunOptions::default())
    }

    /// The daily driver: executes the registered schedule over the
    /// remaining window of `state`, then runs post-crawl collection and
    /// assembles the outputs. [`RunState`]'s two constructors (day-0
    /// build, checkpoint restore) are the only ways in.
    fn drive(self, mut state: RunState, opts: &RunOptions) -> ss_types::Result<StudyOutput> {
        let cfg = &self.cfg;
        let start = cfg.crawl_start;
        let end = cfg.crawl_end;

        // Wall-clock timeline for the Chrome trace export (only kept when
        // a trace path is configured; never part of determinism checks).
        let timeline = cfg.trace_path.is_some();
        let mut slices: Vec<StageSlice> = Vec::new();
        let run_clock = Instant::now();
        let slice = |slices: &mut Vec<StageSlice>, day: SimDate, stage, since: Instant| {
            let dur = since.elapsed().as_micros() as u64;
            slices.push(StageSlice {
                day: day.day_index(),
                stage,
                ts_us: (run_clock.elapsed().as_micros() as u64).saturating_sub(dur),
                dur_us: dur,
            });
        };
        {
            // ---- the daily programme: run the registered schedule ----
            let ctx = StageContext {
                cfg,
                start,
                obs: &state.obs,
            };
            for day in SimDate::range_inclusive(state.next_day, end) {
                let day_clock = Instant::now();
                {
                    let _day_span = ctx.obs.span("study.day");
                    let tick_clock = Instant::now();
                    ss_obs::time!(ctx.obs, "study.world_tick", state.world.run_until(day));
                    if timeline {
                        slice(&mut slices, day, "world-tick", tick_clock);
                    }
                    for stage in &self.stages {
                        let stage_clock = Instant::now();
                        {
                            let _stage_span = ctx.obs.span(stage.span_name());
                            stage.run(&ctx, &mut state.daily, &mut state.world, day);
                        }
                        if timeline {
                            slice(&mut slices, day, stage.name(), stage_clock);
                        }
                    }
                }
                // Drain the query plane's counters into the world registry
                // at the day boundary, *before* any checkpoint: snapshots
                // must never carry undrained residue, so a resumed run
                // counts `engine.serp_queries` identically to a full one.
                state.world.drain_engine_metrics();
                state.day_records.push(DayRecord {
                    day: day.day_index(),
                    psrs: state.daily.crawler.db.psrs.len() as u64,
                    test_orders: state.daily.sampler.orders_created as u64,
                    purchases: state.daily.transactions.len() as u64,
                    elapsed_ms: day_clock.elapsed().as_secs_f64() * 1_000.0,
                });
                state.next_day = day + 1;
                // Checkpoint at the day boundary. Saving observes the run
                // without perturbing it: no RNG draw, no deterministic
                // counter — only a wall-clock span.
                if let Some(every) = opts.checkpoint_every {
                    if every > 0 && day < end && day.days_since(start) % i64::from(every) == 0 {
                        let dir = opts.checkpoint_dir.as_deref().unwrap_or("checkpoints");
                        let path = format!("{dir}/checkpoint-day{:04}.ssnp", day.day_index());
                        let _ckpt_span = ctx.obs.span("study.checkpoint");
                        state::save_checkpoint(&state, cfg, std::path::Path::new(&path))
                            .map_err(|e| ss_types::Error::Checkpoint(format!("{path}: {e}")))?;
                    }
                }
            }
        }
        let RunState {
            mut world,
            daily,
            monitored,
            obs,
            day_records,
            next_day: _,
        } = state;
        let DailyState {
            crawler,
            sampler,
            mut transactions,
            awstats,
            purchased: _,
        } = daily;

        // ---- post-crawl collection ----

        // Supplier discovery via packing slips of completed purchases.
        let _supplier_span = obs.span("study.supplier");
        let mut supplier = None;
        for tx in &transactions {
            let Ok(host) = DomainName::parse(&tx.store_domain) else {
                continue;
            };
            if let Some(portal) = world.packing_slip(&host) {
                if let Some(max) = supplier_scrape::probe_max_order(&world, &portal) {
                    supplier = Some(supplier_scrape::scrape(&world, &portal, max, 4));
                }
                break;
            }
        }
        // The study's purchases *did* reach the supplier; if the random
        // purchase set missed every partnered store, buy once more from
        // one (still a legitimate purchase path).
        if supplier.is_none() {
            let partnered: Option<String> = crawler
                .db
                .detected_store_ids()
                .into_iter()
                .map(|id| crawler.db.domains.resolve(id))
                .find(|d| {
                    DomainName::parse(d)
                        .ok()
                        .and_then(|h| world.packing_slip(&h))
                        .is_some()
                })
                .map(str::to_owned);
            if let Some(domain) = partnered {
                if let Some(tx) = transactions::purchase(&mut world, &domain, end) {
                    transactions.push(tx);
                }
                let portal = world
                    .packing_slip(&DomainName::parse(&domain).expect("validated"))
                    .expect("checked above");
                if let Some(max) = supplier_scrape::probe_max_order(&world, &portal) {
                    supplier = Some(supplier_scrape::scrape(&world, &portal, max, 4));
                }
            }
        }

        drop(_supplier_span);

        // Campaign identification (§4.2).
        let attribution = ss_obs::time!(obs, "study.attribution", {
            attribution::attribute(&world, &crawler.db, &cfg.attribution, cfg.scenario.seed)
        });

        // The one shared aggregation pass every analysis reads from
        // (ticks the `analysis.passes` / `analysis.rows_scanned` counters).
        let scan = ss_obs::time!(obs, "study.analysis_scan", {
            StudyScan::compute(
                &crawler.db,
                &attribution,
                monitored.len(),
                (start + 1, end),
                cfg.analysis_threads,
                &obs,
            )
        });

        // Fold the ecosystem's own counters in and assemble the manifest.
        // Post-crawl collection (supplier probes, purchases) may have
        // queried the engine again — drain once more so nothing is lost.
        world.drain_engine_metrics();
        obs.merge_from(&world.metrics);
        let stage_names: Vec<&'static str> = self.stages.iter().map(|s| s.name()).collect();
        let measured = calibration_observables(&scan, (start + 1, end));
        if let Some(path) = &cfg.trace_path {
            manifest::chrome_trace(&obs, &slices, &day_records).write(path);
        }
        let run_manifest = RunManifest {
            config_hash: manifest::config_hash(cfg),
            seed: cfg.scenario.seed,
            window: ((start + 1).day_index(), end.day_index()),
            stage_timings: manifest::stage_timings(&obs, &stage_names),
            headline: manifest::headline(&crawler.db, &sampler, &transactions, &attribution),
            calibration: manifest::evaluate_calibration(&cfg.calibration, &measured),
            days: day_records,
            event_trail: manifest::trail_summary(&world.event_trail),
        };
        if let Some(path) = &cfg.manifest_path {
            run_manifest.write(&obs, path);
            // Collapsed-stack exports next to the manifest: wall-clock
            // self time (for flamegraph tooling) and the deterministic
            // cost weight (allocations + work units).
            if let Some(dir) = std::path::Path::new(path).parent() {
                let write = |name: &str, body: String| {
                    if let Err(e) = std::fs::write(dir.join(name), body) {
                        eprintln!("profile export: write {name} failed: {e}");
                    }
                };
                write("profile.folded", ss_obs::folded_wall(&obs));
                write("profile.cost.folded", ss_obs::folded_cost(&obs));
            }
        }

        Ok(StudyOutput {
            world,
            crawler,
            sampler,
            transactions,
            awstats,
            supplier,
            attribution,
            scan,
            monitored,
            window: (start + 1, end),
            metrics: obs,
            manifest: run_manifest,
        })
    }
}

/// Measures the calibration observables from the shared scan: total PSR
/// rows, the top-5 attributed campaigns' share of attributed PSRs
/// (paper: the top 5 account for ~60%), and the mean peak-range duration
/// across attributed campaigns (the Table 2 mean, paper: 51.3 days).
/// Mirrors `analysis::ecosystem::{top_k_psr_share, table2}` so the gate
/// and the report can never silently disagree.
fn calibration_observables(
    scan: &StudyScan,
    window: (SimDate, SimDate),
) -> Vec<(&'static str, f64)> {
    let attributed: u64 = scan.classes.iter().map(|c| c.psrs).sum();
    let mut counts: Vec<u64> = scan
        .classes
        .iter()
        .map(|c| c.psrs)
        .filter(|&n| n > 0)
        .collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let top5 = if attributed == 0 {
        0.0
    } else {
        counts.iter().take(5).sum::<u64>() as f64 / attributed as f64
    };
    let (start, end) = window;
    let mut peak_sum = 0.0;
    let mut peak_n = 0usize;
    for c in &scan.classes {
        let mut s = ss_stats::series::DailySeries::new(start, end);
        for day in SimDate::range_inclusive(start, end) {
            s.set(day, 0.0);
        }
        for (day, v) in c.daily.observed() {
            s.add(day, v);
        }
        if let Some(p) = ss_stats::peak::peak_range(&s, 0.6) {
            peak_sum += f64::from(p.days);
            peak_n += 1;
        }
    }
    vec![
        ("total_psrs", scan.rows as f64),
        ("top5_campaign_share", top5),
        (
            "mean_peak_days",
            if peak_n == 0 {
                0.0
            } else {
                peak_sum / peak_n as f64
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_pipeline_produces_all_datasets() {
        let out = Study::new(StudyConfig::fast_test(71)).run().unwrap();
        assert!(!out.crawler.db.psrs.is_empty(), "no PSRs");
        assert!(out.crawler.db.detected_stores().count() > 0, "no stores");
        assert!(out.sampler.orders_created > 0, "no test orders");
        assert!(!out.transactions.is_empty(), "no purchases");
        assert!(out.supplier.is_some(), "supplier never scraped");
        assert!(!out.supplier.as_ref().unwrap().records.is_empty());
        assert_eq!(out.monitored.len(), out.world.verticals.len());
        // Attribution classified at least one store.
        assert!(out.attribution.store_class.values().any(|c| c.is_some()));
    }

    #[test]
    fn pipeline_is_deterministic() {
        let a = Study::new(StudyConfig::fast_test(72)).run().unwrap();
        let b = Study::new(StudyConfig::fast_test(72)).run().unwrap();
        assert_eq!(a.crawler.db.psrs.len(), b.crawler.db.psrs.len());
        assert_eq!(a.sampler.orders_created, b.sampler.orders_created);
        assert_eq!(a.transactions.len(), b.transactions.len());
        assert_eq!(
            a.attribution.store_class.len(),
            b.attribution.store_class.len()
        );
    }

    /// Enabling the full trace plane (recorders, event trail, calibration
    /// gate) must not perturb a single deterministic metric byte — the
    /// trace plane observes the run, it never steers it.
    #[test]
    fn trace_plane_records_without_perturbing_metrics() {
        let base = StudyConfig::fast_test(75);
        let mut traced = StudyConfig::fast_test(75);
        traced.set_trace(TraceLevel::Event);
        traced.calibration = vec![
            CalibrationTarget::new("total_psrs", 3_570_000.0, (1.0, 1e12), (1.0, 1e12)),
            CalibrationTarget::new("no_such_observable", 1.0, (0.0, 1.0), (0.0, 1.0)),
        ];
        let a = Study::new(base).run().unwrap();
        let b = Study::new(traced).run().unwrap();
        assert_eq!(a.metrics.metrics_json(), b.metrics.metrics_json());
        assert!(a.world.event_trail.is_empty(), "retention must default off");
        assert!(a.crawler.recorder.is_empty());
        assert!(!b.world.event_trail.is_empty(), "no tick events retained");
        assert!(!b.crawler.recorder.is_empty(), "no crawl events recorded");
        assert_eq!(b.manifest.calibration[0].status, "ok");
        assert_eq!(b.manifest.calibration[1].status, "warn");
    }

    #[test]
    fn default_schedule_registers_the_five_stages() {
        let study = Study::new(StudyConfig::fast_test(73));
        assert_eq!(
            study.stage_names(),
            [
                "crawl",
                "enroll-stores",
                "purchase-pairs",
                "purchases",
                "awstats-sweep"
            ]
        );
    }

    /// The schedule is genuinely what drives the loop: dropping stages
    /// changes what gets produced, without touching the driver.
    #[test]
    fn trimmed_schedule_skips_omitted_programmes() {
        let mut cfg = StudyConfig::fast_test(74);
        cfg.crawl_end = cfg.crawl_start + 10;
        let study = Study::with_schedule(cfg, vec![Box::new(CrawlStage)]);
        let out = study.run().unwrap();
        assert!(
            !out.crawler.db.psrs.is_empty(),
            "crawl stage must still run"
        );
        assert_eq!(out.sampler.orders_created, 0, "sampling was not scheduled");
        assert!(out.awstats.is_empty(), "awstats was not scheduled");
    }
}
