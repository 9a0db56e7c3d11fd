//! The traced run: the benchmark drives the layers itself.
//!
//! It makes the same public calls `Study::run_with` makes, in the same
//! order, and records a span around each: world build, warm-up and term
//! selection, every day's tick and daily stages, the mid-window
//! checkpoint encode, load and restore (after which the run continues
//! from the restored state), the post-crawl supplier step, attribution
//! and the analysis scan. The run must end on the untraced study's
//! `run_fingerprint`; that keeps this replay honest when `Study::run`
//! changes.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::time::Instant;

use search_seizure::analysis::scan::StudyScan;
use search_seizure::attribution::{self, Attribution};
use search_seizure::manifest::DayRecord;
use search_seizure::pipeline::{DailyStage, DailyState, StageContext};
use search_seizure::{state, RunState};
use ss_crawl::crawler::Crawler;
use ss_eco::World;
use ss_obs::Registry;
use ss_orders::purchasepair::OrderSampler;
use ss_orders::supplier_scrape;
use ss_orders::transactions::{self, Transaction};
use ss_types::{DomainName, SimDate};

use crate::cpu::{process_cpu_s, thread_cpu_s};
use crate::serve::ClientReport;
use crate::spans::{Spans, CLIENT, MAIN};
use crate::workload::Plan;

/// What the traced run produced.
pub struct Traced {
    /// `run_fingerprint` of the final world and crawl database.
    pub fingerprint: u64,
    /// Wall clock from world build to the end of the analysis scan.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    /// CPU seconds of the checkpoint reload (state drop, decode and
    /// restore), which the untraced study does not do.
    pub reload_cpu_s: f64,
    /// The main thread's spans, and the live client's when `serve` ran.
    pub spans: Spans,
    /// The run's merged registry, as `StudyOutput::metrics` holds it.
    pub obs: Registry,
    /// Campaign attribution.
    pub attribution: Attribution,
    /// Heap allocations and bytes of the (serial) attribution call.
    pub attribution_allocs: (u64, u64),
    /// Size of the mid-window checkpoint frame, 0 without a restore.
    pub checkpoint_bytes: u64,
    /// The live client's report (`serve`).
    pub client: Option<ClientReport>,
}

/// The span each daily stage runs under.
fn stage_span(name: &str) -> &'static str {
    match name {
        "crawl" => "crawlkit.crawl",
        "enroll-stores" => "orderlab.enroll",
        "purchase-pairs" => "orderlab.pairs",
        "purchases" => "orderlab.purchases",
        "awstats-sweep" => "orderlab.awstats",
        "publish-epoch" => "searchsim.publish",
        _ => "study.stage",
    }
}

/// Runs the plan's study traced. With `restore`, the state is encoded to
/// a checkpoint file in `dir` at the checkpoint day, loaded back and
/// restored, and the run continues from the restored state.
pub fn run_traced(plan: &Plan, dir: &Path, restore: bool) -> Result<Traced, String> {
    let origin = Instant::now();
    let (traced, client) = plan.with_programme(origin, |stages| {
        drive(plan, dir, restore, stages, Spans::new(origin, MAIN))
    });
    let mut traced = traced?;
    if let Some(report) = client {
        let mut report = report.map_err(|e| format!("serve client: {e}"))?;
        traced.spans.absorb(std::mem::replace(
            &mut report.spans,
            Spans::new(origin, CLIENT),
        ));
        traced.client = Some(report);
    }
    Ok(traced)
}

fn drive(
    plan: &Plan,
    dir: &Path,
    restore: bool,
    stages: Vec<Box<dyn DailyStage>>,
    mut spans: Spans,
) -> Result<Traced, String> {
    let cfg = &plan.cfg;
    let (start, end) = (cfg.crawl_start, cfg.crawl_end);
    let started = Instant::now();
    let cpu0 = process_cpu_s().ok_or("the CPU clock is unreadable")?;
    let mut reload_cpu_s = 0.0;

    let mut world = spans
        .time("ecosim.build", None, || World::build(cfg.scenario.clone()))
        .map_err(|e| e.to_string())?;
    world.tick_threads = cfg.tick_threads;
    world.set_trace(cfg.trace_level);
    spans.time("ecosim.warmup", None, || world.run_until(start));
    let monitored = spans.time("crawlkit.select_terms", None, || {
        ss_crawl::terms::select_all(&world, start, cfg.monitored_terms, cfg.scenario.seed)
    });
    world.drain_engine_metrics();
    let mut state = RunState {
        world,
        daily: DailyState {
            crawler: Crawler::new(cfg.crawler.clone(), monitored.clone()),
            sampler: OrderSampler::new(cfg.sampler.clone()),
            transactions: Vec::new(),
            awstats: HashMap::new(),
            purchased: HashSet::new(),
        },
        monitored,
        obs: Registry::new(),
        day_records: Vec::new(),
        next_day: start + 1,
    };

    let mut checkpoint_bytes = 0;
    for day in SimDate::range_inclusive(state.next_day, end) {
        let clock = Instant::now();
        let day_span = spans.open("study.day", None);
        spans.time("ecosim.tick", Some(day_span), || state.world.run_until(day));
        let ctx = StageContext {
            cfg,
            start,
            obs: &state.obs,
        };
        for stage in &stages {
            spans.time(stage_span(stage.name()), Some(day_span), || {
                stage.run(&ctx, &mut state.daily, &mut state.world, day)
            });
        }
        spans.close(day_span);
        state.world.drain_engine_metrics();
        state.day_records.push(DayRecord {
            day: day.day_index(),
            psrs: state.daily.crawler.db.psrs.len() as u64,
            test_orders: state.daily.sampler.orders_created as u64,
            purchases: state.daily.transactions.len() as u64,
            elapsed_ms: clock.elapsed().as_secs_f64() * 1e3,
        });
        state.next_day = day + 1;
        if restore && day == plan.checkpoint_day() {
            let path = dir.join("traced-checkpoint.ssnp");
            let bytes = spans.time("state.encode", None, || {
                let bytes = state.checkpoint_bytes(cfg);
                std::fs::write(&path, &bytes).map(|()| bytes.len() as u64)
            });
            checkpoint_bytes = bytes.map_err(|e| format!("{}: {e}", path.display()))?;
            let reload0 = thread_cpu_s().unwrap_or(0.0);
            spans.time("state.drop", None, || drop(state));
            let frame = spans
                .time("state.decode", None, || state::load_checkpoint(&path))
                .map_err(|e| e.to_string())?;
            state = spans
                .time("state.restore", None, || RunState::restore(frame, cfg))
                .map_err(|e| e.to_string())?;
            reload_cpu_s = thread_cpu_s().unwrap_or(0.0) - reload0;
        }
    }

    let RunState {
        mut world,
        daily,
        monitored,
        obs,
        ..
    } = state;
    let DailyState {
        crawler,
        mut transactions,
        ..
    } = daily;
    spans.time("orderlab.supplier", None, || {
        supplier_step(&mut world, &crawler, &mut transactions, end)
    });
    let (attribution, attribution_allocs) = spans.time("attribution.attribute", None, || {
        let (allocs, bytes, _) = ss_obs::thread_alloc_counts();
        let a = attribution::attribute(&world, &crawler.db, &cfg.attribution, cfg.scenario.seed);
        let (allocs_after, bytes_after, _) = ss_obs::thread_alloc_counts();
        (a, (allocs_after - allocs, bytes_after - bytes))
    });
    spans.time("analysis.scan", None, || {
        StudyScan::compute(
            &crawler.db,
            &attribution,
            monitored.len(),
            (start + 1, end),
            cfg.analysis_threads,
            &obs,
        )
    });
    world.drain_engine_metrics();
    obs.merge_from(&world.metrics);
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s().ok_or("the CPU clock is unreadable")? - cpu0;
    drop(stages);

    Ok(Traced {
        fingerprint: state::run_fingerprint(&world, &crawler),
        wall_s,
        cpu_s,
        reload_cpu_s,
        spans,
        obs,
        attribution,
        attribution_allocs,
        checkpoint_bytes,
        client: None,
    })
}

/// The post-crawl supplier discovery, as `Study::run` performs it: follow
/// the packing slip of the first purchase that has one; failing that,
/// buy once more from a detected store whose campaign ships through the
/// supplier, and follow its slip.
fn supplier_step(
    world: &mut World,
    crawler: &Crawler,
    transactions: &mut Vec<Transaction>,
    end: SimDate,
) {
    let scrape = |world: &World, portal: &str| {
        supplier_scrape::probe_max_order(world, portal)
            .map(|max| std::hint::black_box(supplier_scrape::scrape(world, portal, max, 4)))
            .is_some()
    };
    let mut found = false;
    for tx in transactions.iter() {
        let Ok(host) = DomainName::parse(&tx.store_domain) else {
            continue;
        };
        if let Some(portal) = world.packing_slip(&host) {
            found = scrape(world, &portal);
            break;
        }
    }
    if found {
        return;
    }
    let partnered = crawler
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
    let Some(domain) = partnered else {
        return;
    };
    if let Some(tx) = transactions::purchase(world, &domain, end) {
        transactions.push(tx);
    }
    if let Some(portal) = DomainName::parse(&domain)
        .ok()
        .and_then(|h| world.packing_slip(&h))
    {
        scrape(world, &portal);
    }
}
