//! Criterion benchmarks of the measurement-pipeline stages: Dagger checks,
//! VanGogh renders, a full crawl day, and purchase-pair estimation — the
//! costs that scale with crawl size.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use search_seizure::analysis::scan::StudyScan;
use search_seizure::{Study, StudyConfig};
use ss_crawl::crawler::{Crawler, CrawlerConfig};
use ss_crawl::{dagger, terms, vangogh};
use ss_eco::{ScenarioConfig, World};
use ss_obs::Registry;
use ss_orders::purchasepair::{OrderSampler, SamplerConfig};
use ss_types::{SimDate, Url};

/// A warmed world plus a live doorway URL and term to probe.
fn probe_setup() -> (World, Url, String) {
    let mut w = World::build(ScenarioConfig::tiny(5)).expect("world");
    let start = SimDate::from_day_index(ss_types::CRAWL_START_DAY + 5);
    w.run_until(start);
    let day = w.day;
    let d = w
        .campaigns
        .iter()
        .flat_map(|c| c.doorways.iter())
        .find(|d| d.is_live(day))
        .expect("a live doorway");
    let term = w.term_text(d.terms[0]).to_owned();
    let url = Url::root(w.domains.get(d.domain).name.clone());
    (w, url, term)
}

fn bench_detectors(c: &mut Criterion) {
    let (w, url, term) = probe_setup();
    c.bench_function("crawl/dagger_check", |b| {
        b.iter(|| dagger::check(&w, &url, &term, 6))
    });
    c.bench_function("crawl/vangogh_render_check", |b| {
        b.iter(|| vangogh::check(&w, &url, &term, 6))
    });
}

fn bench_crawl_day(c: &mut Criterion) {
    c.bench_function("crawl/full_day_tiny", |b| {
        b.iter_batched(
            || {
                let mut w = World::build(ScenarioConfig::tiny(7)).expect("world");
                let start = SimDate::from_day_index(ss_types::CRAWL_START_DAY);
                w.run_until(start + 1);
                let monitored = terms::select_all(&w, start, 6, 5);
                let crawler = Crawler::new(
                    CrawlerConfig {
                        serp_depth: 30,
                        ..CrawlerConfig::default()
                    },
                    monitored,
                );
                (w, crawler)
            },
            |(w, mut crawler)| {
                let day = SimDate::from_day_index(ss_types::CRAWL_START_DAY + 1);
                crawler.crawl_day(&w, day);
                crawler.db.psrs.len()
            },
            BatchSize::LargeInput,
        )
    });
}

/// Serial vs. parallel crawl of one day at `Scale::small`: same world, same
/// verticals, only `CrawlerConfig::threads` differs. The crawl phase reads
/// a frozen `&World`, so the (expensive) world build happens once and each
/// iteration only rebuilds the cheap crawler state.
fn bench_crawl_day_scaling(c: &mut Criterion) {
    let mut w = World::build(ScenarioConfig::small(13)).expect("world");
    let start = SimDate::from_day_index(ss_types::CRAWL_START_DAY);
    w.run_until(start + 1);
    let day = start + 1;
    let monitored = terms::select_all(&w, start, 8, 5);
    for (name, threads) in [
        ("crawl/full_day_small_serial", 1usize),
        ("crawl/full_day_small_4threads", 4),
    ] {
        c.bench_function(name, |b| {
            b.iter_batched(
                || {
                    Crawler::new(
                        CrawlerConfig {
                            serp_depth: 30,
                            threads,
                            ..CrawlerConfig::default()
                        },
                        monitored.clone(),
                    )
                },
                |mut crawler| {
                    crawler.crawl_day(&w, day);
                    // Benches run with tracing disabled; the recorder
                    // must stay empty or the "zero overhead off" claim
                    // (and the ≤2% regression budget) is broken.
                    assert!(crawler.recorder.is_empty());
                    crawler.db.psrs.len()
                },
                BatchSize::LargeInput,
            )
        });
    }
}

fn bench_world_tick(c: &mut Criterion) {
    let mut w = World::build(ScenarioConfig::small(9)).expect("world");
    w.run_until(SimDate::from_day_index(ss_types::CRAWL_START_DAY));
    c.bench_function("eco/world_tick_small", |b| b.iter(|| w.tick()));
}

/// Serial vs. parallel simulation of one full day at `Scale::small`: the
/// same warmed world, only `tick_threads` differs. Stage planners fan out
/// over verticals/store shards; `apply_plan` replays sequentially either
/// way, so the committed state is bit-identical — only wall-clock moves.
fn bench_tick_scaling(c: &mut Criterion) {
    for (name, threads) in [
        ("tick/full_day_small_serial", 1usize),
        ("tick/full_day_small_4threads", 4),
    ] {
        let mut w = World::build(ScenarioConfig::small(13)).expect("world");
        w.run_until(SimDate::from_day_index(ss_types::CRAWL_START_DAY));
        w.tick_threads = threads;
        c.bench_function(name, |b| b.iter(|| w.tick()));
        // Tracing is off by default: the flight recorder and the
        // persisted event trail must both stay empty during benches.
        assert!(!w.recorder.enabled() && w.recorder.is_empty() && w.event_trail.is_empty());
    }
}

fn bench_purchase_pair(c: &mut Criterion) {
    let mut w = World::build(ScenarioConfig::tiny(11)).expect("world");
    let start = SimDate::from_day_index(ss_types::CRAWL_START_DAY);
    w.run_until(start + 1);
    let mut sampler = OrderSampler::new(SamplerConfig::default());
    let domains: Vec<String> = w
        .stores
        .iter()
        .filter(|s| !s.retired)
        .take(20)
        .map(|s| w.domains.get(s.current_domain).name.as_str().to_owned())
        .collect();
    for d in &domains {
        sampler.monitor(d, d);
    }
    // Collect a few weeks of samples to make estimation non-trivial.
    for k in 0..5u32 {
        let day = start + 1 + k * 7;
        w.run_until(day);
        sampler.sample_day(&mut w, day);
    }
    let end = start + 29;
    c.bench_function("orders/rate_estimation_20stores", |b| {
        b.iter(|| {
            domains
                .iter()
                .filter_map(|d| sampler.rate_series(d, start, end))
                .map(|r| r.sum())
                .sum::<f64>()
        })
    });
}

/// The analysis data plane over a `Scale::small` crawl corpus: the one
/// fused pass, serial and sharded over four threads. Same aggregators,
/// same outputs — the delta is pure scheduling.
fn bench_analysis_scan(c: &mut Criterion) {
    let mut cfg = StudyConfig::new(ScenarioConfig::small(13));
    cfg.monitored_terms = 8;
    cfg.crawler.serp_depth = 30;
    cfg.crawl_end = cfg.crawl_start + 12;
    cfg.attribution.train.epochs = 120;
    cfg.attribution.refine_rounds = 1;
    cfg.manifest_path = None;
    let out = Study::new(cfg).run().expect("study runs");
    let obs = Registry::new();
    c.bench_function("analysis/one_pass_small", |b| {
        b.iter(|| {
            StudyScan::compute(
                &out.crawler.db,
                &out.attribution,
                out.monitored.len(),
                out.window,
                1,
                &obs,
            )
        })
    });
    c.bench_function("analysis/one_pass_small_4threads", |b| {
        b.iter(|| {
            StudyScan::compute(
                &out.crawler.db,
                &out.attribution,
                out.monitored.len(),
                out.window,
                4,
                &obs,
            )
        })
    });
}

criterion_group! {
    name = benches;
    // World builds and crawl days are hundreds of ms each; a small sample
    // budget keeps `cargo bench` wall time reasonable.
    config = Criterion::default().sample_size(10);
    targets = bench_detectors, bench_crawl_day, bench_crawl_day_scaling, bench_world_tick, bench_tick_scaling, bench_purchase_pair, bench_analysis_scan
}
criterion_main!(benches);
