//! Criterion microbenchmarks of the substrate layers: HTML parsing, JS
//! rendering, SERP generation, feature extraction, classifier training.
//! These are the per-page costs the paper's workload-trimming decisions
//! (churn caching, ≤3 renders per domain) were designed around.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use ss_eco::{ScenarioConfig, World};
use ss_ml::logreg::{MulticlassModel, TrainConfig};
use ss_ml::{extract_features, Dictionary};
use ss_types::rng::sub_rng;
use ss_types::{SimDate, TermId};
use ss_web::http::UserAgent;
use ss_web::js::render::{render, render_with};
use ss_web::js::JsCache;
use ss_web::pagegen::storefront::{home_page, product_page, StoreCtx, StoreTemplate};
use ss_web::pagegen::{doorway, obfuscate};
use ss_web::Document;

const SAMPLE_DOORWAY: doorway::DoorwayCtx<'static> = doorway::DoorwayCtx {
    domain: "hacked-blog.com",
    term: "cheap louis vuitton",
    brand: "Louis Vuitton",
    backlinks: &[],
    seed: 11,
};

fn sample_store_ctx(template: &StoreTemplate) -> StoreCtx<'_> {
    StoreCtx {
        domain: "cocovipbags.com",
        store_name: "coco vip bags",
        template,
        brands: &["Chanel", "Louis Vuitton"],
        locale: "us",
        merchant_id: "m-889231",
        seed: 7,
    }
}

fn sample_store_page() -> String {
    let t = StoreTemplate::for_campaign("BIGLOVE", 42);
    home_page(&sample_store_ctx(&t))
}

fn sample_iframe_page(level: u8) -> String {
    doorway::iframe_page(&SAMPLE_DOORWAY, "http://store.com/", level)
}

/// The pages a crawl day renders: every doorway flavour plus the scripted
/// storefront pages.
fn render_corpus() -> Vec<String> {
    let t = StoreTemplate::for_campaign("BIGLOVE", 42);
    let store = sample_store_ctx(&t);
    let mut pages = vec![
        doorway::seo_page(&SAMPLE_DOORWAY),
        doorway::seo_page_with_js_redirect(&SAMPLE_DOORWAY, "http://store.com/"),
    ];
    pages.extend((0..=3).map(sample_iframe_page));
    pages.push(home_page(&store));
    pages.push(product_page(&store, 2));
    pages
}

fn bench_html(c: &mut Criterion) {
    let page = sample_store_page();
    c.bench_function("html/parse_store_page", |b| {
        b.iter(|| Document::parse(std::hint::black_box(&page)))
    });
    let doc = Document::parse(&page);
    c.bench_function("html/text_extraction", |b| b.iter(|| doc.text_content()));
}

fn bench_js(c: &mut Criterion) {
    for level in [1u8, 2, 3] {
        let page = sample_iframe_page(level);
        c.bench_function(&format!("js/render_iframe_obf{level}"), |b| {
            b.iter(|| {
                render(
                    std::hint::black_box(&page),
                    "http://d.com/",
                    UserAgent::Browser,
                    None,
                )
            })
        });
    }
    let mut rng = sub_rng(1, "bench");
    c.bench_function("js/payload_generation_obf3", |b| {
        b.iter(|| obfuscate::iframe_payload("http://store.com/", 3, &mut rng))
    });
}

/// The bytecode VM over a pagegen corpus on a warm chunk cache: the
/// crawler's steady state, where every page template compiles once per
/// run. `js/render_vm` isolates the work of the `crawl/render` cost
/// row (parse, run scripts, fold), so a win here can be checked against
/// the same row of the end-to-end profile. The VM's ≥2× script speedup
/// over the tree-walking reference is gated in `ss-web`'s differential
/// harness, where that test-only reference lives.
fn bench_js_render(c: &mut Criterion) {
    let corpus = render_corpus();
    let cache = JsCache::new();
    // Renders every page as a search-referred browser; the summed
    // script-error count is a cheap anti-DCE sink.
    let sweep = || {
        corpus
            .iter()
            .map(|page| {
                render_with(
                    std::hint::black_box(page),
                    "http://d.com/",
                    UserAgent::Browser,
                    Some("http://google.com/search?q=x"),
                    &cache,
                )
                .script_errors
            })
            .sum::<usize>()
    };
    sweep(); // warm the chunk cache
    c.bench_function("js/render_vm", |b| b.iter(sweep));
}

/// The `serp/*` benches isolate the walk that the `engine/serp` cost row
/// counts and the repo benchmark's `searchsim.walk_p99_us` times, so a win
/// here can be checked against the same row of the end-to-end profile.
fn bench_serp(c: &mut Criterion) {
    let world = World::build(ScenarioConfig::small(5)).expect("world");
    let day = SimDate::from_day_index(ss_types::CRAWL_START_DAY + 10);
    c.bench_function("search/serp_top100", |b| {
        b.iter(|| world.engine.serp(TermId(0), day, 100))
    });
    // The epoch's bounded walk down score-sorted postings, plus the
    // (term, day)-cached steady state the crawler and `repro serve`
    // actually hit.
    let epoch = world.engine.epoch();
    c.bench_function("serp/epoch_walk", |b| {
        b.iter(|| epoch.ranked_uncached(TermId(0), day, 100))
    });
    c.bench_function("serp/epoch_cached", |b| {
        b.iter(|| epoch.ranked(TermId(0), day, 100))
    });
    // The traffic planner's access pattern: every term of a paper-scale
    // index walked once at the paper's depth, so the postings come from
    // memory rather than staying in cache as `serp/epoch_walk`'s one term
    // does.
    let paper = World::build(ScenarioConfig::paper(5)).expect("world");
    let paper_epoch = paper.engine.epoch();
    let terms: Vec<TermId> = (0..paper_epoch.term_count())
        .map(TermId::from_index)
        .collect();
    c.bench_function("serp/epoch_walk_all_terms", |b| {
        b.iter(|| {
            terms
                .iter()
                .map(|&t| paper_epoch.ranked_uncached(t, day, 100).len())
                .sum::<usize>()
        })
    });
    c.bench_function("eco/world_build_tiny", |b| {
        b.iter(|| World::build(ScenarioConfig::tiny(9)).expect("world"))
    });
}

fn bench_ml(c: &mut Criterion) {
    let page = sample_store_page();
    c.bench_function("ml/feature_extraction", |b| {
        b.iter_batched(
            Dictionary::new,
            |mut dict| extract_features(std::hint::black_box(&page), &mut dict, true),
            BatchSize::SmallInput,
        )
    });

    // Attribution's training shape: 52 campaign classes at the default 300
    // epochs over about two storefronts per class (the study-small seed set
    // is 104 labeled pages). Training is nearly all of attribution, so this
    // isolates the `attribution.attribute_s` layer of the repo benchmark.
    let mut dict = Dictionary::new();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for class in 0..52 {
        let t = StoreTemplate::for_campaign(&format!("C{class}"), 42);
        for seed in 0..2 {
            let html = home_page(&StoreCtx {
                domain: "x.com",
                store_name: "x",
                template: &t,
                brands: &["Chanel"],
                locale: "us",
                merchant_id: "m",
                seed,
            });
            xs.push(extract_features(&html, &mut dict, true));
            ys.push(class);
        }
    }
    let names: Vec<String> = (0..52).map(|c| format!("C{c}")).collect();
    let cfg = TrainConfig::default();
    c.bench_function("ml/train_52class_104docs", |b| {
        b.iter(|| {
            let samples = xs.iter().zip(ys.iter().copied());
            MulticlassModel::train(samples, names.clone(), dict.len(), &cfg)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_html, bench_js, bench_js_render, bench_serp, bench_ml
}
criterion_main!(benches);
