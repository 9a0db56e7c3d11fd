//! The differential harness that locks the bytecode VM to the test-only
//! tree-walking reference ([`super::interp`]).
//!
//! Four layers of evidence that the engines are observably identical:
//!
//! 1. a seeded property generator over the whole Stmt/Expr grammar
//!    (shadowing, bounded loops, DOM builtins, deliberate error paths),
//!    asserting identical effects *and* identical `JsError`s;
//! 2. the pinned pagegen corpus — every page template the generators can
//!    emit, rendered by both engines under every visitor class;
//! 3. a seed sweep over the scripted pages a crawl renders, for the
//!    payload variety one seed per template leaves out;
//! 4. compile-cache correctness: caching must change performance, never
//!    results or determinism.
//!
//! It also holds the VM's reason to exist, the ≥2× script speedup over the
//! reference, as an `#[ignore]`d wall-clock gate for release CI.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::Rng;
use ss_types::rng::{sub_rng, SimRng};

use super::interp::run_tree;
use super::render::{render_by, render_with};
use super::{run_script_with, JsCache, JsError, PageEnv};
use crate::html::Document;
use crate::pagegen::{awstats, doorway, legit, notice, storefront};
use crate::UserAgent;

/// Runs one source string through both engines against identical
/// environments and asserts every observable agrees.
fn assert_engines_agree(src: &str, ctx: &str) {
    let mk_env = || PageEnv {
        user_agent: UserAgent::Browser.header_value().to_owned(),
        referrer: "http://www.google.com/search?q=x".to_owned(),
        title: "seed title".to_owned(),
        location_href: "http://doorway.example.com/page".to_owned(),
        dom_ids: vec!["main".to_owned(), "footer".to_owned()],
        effects: Default::default(),
    };
    let mut tw_env = mk_env();
    let mut vm_env = mk_env();
    let tw = run_tree(src, &mut tw_env);
    let vm = run_script_with(src, &mut vm_env, &JsCache::new());
    assert_eq!(tw, vm, "result diverged ({ctx})\nsource:\n{src}");
    assert_eq!(
        tw_env.effects, vm_env.effects,
        "effects diverged ({ctx})\nsource:\n{src}"
    );
    assert_eq!(
        tw_env.title, vm_env.title,
        "title diverged ({ctx})\nsource:\n{src}"
    );
}

// ------------------------------------------------- hand-picked programs ----

/// Semantic corner cases worth pinning explicitly, beyond what random
/// generation reliably hits.
#[test]
fn pinned_semantic_corpus() {
    let cases: &[&str] = &[
        // Dynamic scoping: inner function reads and writes outer locals.
        "var x = 1; function f() { x = x + 1; return x; } f(); f(); document.write('' + x);",
        // Shadowing: parameter hides a global of the same name.
        "var x = 'outer'; function f(x) { return x; } document.write(f('inner') + x);",
        // Assignment without `var` creates a global from inside a call.
        "function f() { g = 'made'; } f(); document.write(g);",
        // Reading a declared-but-unassigned local falls through to outer.
        "var y = 'outer'; function f() { if (false) { var y = 'in'; } return y; } document.write('' + f());",
        // Duplicate parameter names: the later binding wins.
        "function f(a, a) { return a; } document.write('' + f(1, 2));",
        // Function value flowing through a variable and truthiness.
        "function f() { return 1; } var g = f; if (g) { document.write('' + g()); }",
        // `undefined` is a constant even when evaluated as an identifier.
        "document.write('' + undefined);",
        // eval declares into the *calling* frame.
        "function f() { eval('var z = 42;'); return z; } document.write('' + f());",
        // A top-level return inside eval is swallowed.
        "eval('return 9;'); document.write('after');",
        // eval parse errors surface as runtime errors with the eval prefix.
        "eval('var = ;');",
        // Errors after effects: the write must land in both engines.
        "document.write('pre'); nosuch();",
        // Evaluation order: arguments run before the callee is examined.
        "var log = ''; function t(v) { log = log + v; return v; } missing(t('a'), t('b')); ",
        // Assignment evaluates the value before the (invalid) target.
        "var log = ''; function t(v) { log = log + v; return v; } var arr = [1]; arr[nosuchfn()] = t('x');",
        // Ternary / short-circuit only evaluate the taken branch.
        "var n = 0; function bump() { n = n + 1; return n; } var v = (1 ? bump() : bump()) + (0 && bump()) + (0 || bump()); document.write('' + n + '/' + v);",
        // String/array method zoo through both engines.
        "var s = 'Hello World'; document.write(s.toLowerCase() + s.indexOf('o') + s.substring(1, 4) + s.split(' ').join('-') + s.charAt(4) + s.length);",
        "var a = [3, 1, 2]; a.push(9); document.write(a.join(',') + a.length + a[0]);",
        // String.fromCharCode + unescape + parseInt round trip.
        "document.write(String.fromCharCode(104, 105) + unescape('%41') + parseInt('12px') + parseInt('x'));",
        // DOM construction, attach, attributes, innerHTML.
        "var d = document.createElement('div'); d.setAttribute('ID', 'x'); d.innerHTML = '<b>b</b>'; document.body.appendChild(d); var e = document.createElement('span'); e.className = 'c';",
        // getElementById against static ids and dynamic elements.
        "var m = document.getElementById('main'); var n = document.getElementById('nope'); document.write('' + (m ? 1 : 0) + (n ? 1 : 0));",
        // Redirect via the three supported forms (last wins).
        "window.location = 'http://a.com/'; window.location.href = 'http://b.com/'; window.location.replace('http://c.com/');",
        // Cloaking branch on referrer and user agent.
        "if (document.referrer.indexOf('google') >= 0 && navigator.userAgent.indexOf('bot') < 0) { document.write('cloaked'); } else { document.write('clean'); }",
        // document.title read/write.
        "document.title = document.title + '!';",
        // Step budget: both engines exhaust at the same instant.
        "var i = 0; while (true) { i = i + 1; }",
        "for (;;) { var q = 1; }",
        // Call-depth cap.
        "function r() { return r(); } r();",
        // Mutual recursion under the cap.
        "function even(n) { if (n == 0) { return true; } return odd(n - 1); } function odd(n) { if (n == 0) { return false; } return even(n - 1); } document.write('' + even(10) + odd(7));",
        // Numeric coercion edge cases through +, comparison, and write.
        "document.write('' + (1 / 0) + (0 / 0) + ('5' - 2) + ('5' + 2) + (true + 1) + (null + 1) + ([] + 1) + ([2] * 3));",
        // Loose equality table corners.
        "document.write('' + (null == undefined) + (0 == '0') + ('' == 0) + (1 == true) + ([1] == 1));",
        // Member access on primitives and errors.
        "var v = 'abc'.length; document.write('' + v); var bad = (5).foo;",
        // Empty statements, nested blocks, and fall-through returns.
        ";;; if (1) {} else {}; function f() {}; document.write('' + f());",
    ];
    for (i, src) in cases.iter().enumerate() {
        assert_engines_agree(src, &format!("pinned case {i}"));
    }
}

// --------------------------------------------------- program generation ----

/// Grammar-directed program generator. Emits fully parenthesized source so
/// the printed text round-trips through the parser unambiguously; biases
/// toward name collisions (a tiny identifier pool) to exercise shadowing
/// and dynamic scope, and toward DOM builtins so effects actually differ
/// when engines diverge.
struct GenCtx {
    rng: SimRng,
    /// Function declarations hoisted to the program prologue.
    funcs: Vec<String>,
    fuel: u32,
}

const VARS: &[&str] = &["a", "b", "c", "x", "y"];

impl GenCtx {
    fn var(&mut self) -> &'static str {
        VARS[self.rng.gen_range(0..VARS.len())]
    }

    fn expr(&mut self, depth: u32) -> String {
        if depth >= 4 || self.fuel == 0 {
            return match self.rng.gen_range(0..6) {
                0 => self.rng.gen_range(0..20u32).to_string(),
                1 => format!("'{}'", "s".repeat(self.rng.gen_range(1..3))),
                2 => "true".into(),
                3 => "null".into(),
                4 => "undefined".into(),
                _ => self.var().to_owned(),
            };
        }
        self.fuel -= 1;
        match self.rng.gen_range(0..14) {
            0 => self.rng.gen_range(0..100u32).to_string(),
            1 => format!("'t{}'", self.rng.gen_range(0..9u32)),
            2 => self.var().to_owned(),
            3 => {
                let op = ["+", "-", "*", "/", "%"][self.rng.gen_range(0..5)];
                format!("({} {} {})", self.expr(depth + 1), op, self.expr(depth + 1))
            }
            4 => {
                let op = ["==", "!=", "<", ">", "<=", ">=", "===", "!=="][self.rng.gen_range(0..8)];
                format!("({} {} {})", self.expr(depth + 1), op, self.expr(depth + 1))
            }
            5 => {
                let op = ["&&", "||"][self.rng.gen_range(0..2)];
                format!("({} {} {})", self.expr(depth + 1), op, self.expr(depth + 1))
            }
            6 => format!(
                "({}{})",
                ["!", "-"][self.rng.gen_range(0..2)],
                self.expr(depth + 1)
            ),
            7 => format!(
                "({} ? {} : {})",
                self.expr(depth + 1),
                self.expr(depth + 1),
                self.expr(depth + 1)
            ),
            8 => format!("[{}, {}]", self.expr(depth + 1), self.expr(depth + 1)),
            9 => format!("({})[{}]", self.expr(depth + 1), self.expr(depth + 1)),
            10 => format!("({} = {})", self.var(), self.expr(depth + 1)),
            11 => match self.rng.gen_range(0..6) {
                0 => format!("('' + {})", self.expr(depth + 1)),
                1 => format!(
                    "String.fromCharCode((65 + ({} % 26)))",
                    self.expr(depth + 1)
                ),
                2 => format!("parseInt({})", self.expr(depth + 1)),
                3 => "navigator.userAgent.length".into(),
                4 => "document.referrer.indexOf('google')".into(),
                _ => format!("unescape({})", self.expr(depth + 1)),
            },
            12 => {
                // Call a generated function (may not exist yet → the
                // "not a function" path is part of the contract).
                let name = format!("fn{}", self.rng.gen_range(0..3u32));
                format!("{}({})", name, self.expr(depth + 1))
            }
            _ => format!("({}).length", self.expr(depth + 1)),
        }
    }

    fn stmt(&mut self, depth: u32) -> String {
        if self.fuel == 0 {
            return ";".into();
        }
        self.fuel -= 1;
        match self.rng.gen_range(0..10) {
            0 => format!("var {} = {};", self.var(), self.expr(depth)),
            1 => format!("{} = {};", self.var(), self.expr(depth)),
            2 if depth < 3 => format!(
                "if ({}) {{ {} }} else {{ {} }}",
                self.expr(depth + 1),
                self.stmt(depth + 1),
                self.stmt(depth + 1)
            ),
            3 if depth < 3 => {
                // Bounded loop over a dedicated counter so generated loops
                // terminate (the budget case is pinned separately).
                let i = format!("i{}", self.rng.gen_range(0..100u32));
                format!(
                    "for (var {i} = 0; {i} < {}; {i} = ({i} + 1)) {{ {} }}",
                    self.rng.gen_range(1..4u32),
                    self.stmt(depth + 1)
                )
            }
            4 if depth < 3 => {
                let i = format!("w{}", self.rng.gen_range(0..100u32));
                format!(
                    "var {i} = 0; while ({i} < {}) {{ {i} = ({i} + 1); {} }}",
                    self.rng.gen_range(1..4u32),
                    self.stmt(depth + 1)
                )
            }
            5 => {
                // Declare a function into the hoisted prologue; bodies use
                // the same tiny name pool, so they shadow globals.
                let name = format!("fn{}", self.rng.gen_range(0..3u32));
                let param = self.var().to_owned();
                let body = format!(
                    "{} return {};",
                    self.stmt(depth + 1),
                    self.expr(depth + 1)
                );
                self.funcs
                    .push(format!("function {name}({param}) {{ {body} }}"));
                format!("{name}({});", self.expr(depth + 1))
            }
            6 => format!("document.write('' + ({}));", self.expr(depth)),
            7 => match self.rng.gen_range(0..4) {
                0 => format!(
                    "var e{0} = document.createElement('div'); e{0}.setAttribute('data-k', '' + ({1})); document.body.appendChild(e{0});",
                    self.rng.gen_range(0..50u32),
                    self.expr(depth)
                ),
                1 => format!("document.title = '' + ({});", self.expr(depth)),
                2 => format!(
                    "if ({}) {{ window.location = 'http://g{}.com/'; }}",
                    self.expr(depth),
                    self.rng.gen_range(0..9u32)
                ),
                _ => format!(
                    "var ge = document.getElementById('main'); if (ge) {{ document.write('' + ({})); }}",
                    self.expr(depth)
                ),
            },
            8 => format!("{};", self.expr(depth)),
            _ => ";".into(),
        }
    }

    fn program(&mut self) -> String {
        let n = self.rng.gen_range(2..8);
        let body: Vec<String> = (0..n).map(|_| self.stmt(0)).collect();
        let mut out = self.funcs.join("\n");
        out.push('\n');
        out.push_str(&body.join("\n"));
        out
    }
}

fn differential_rounds(seed: u64, rounds: u32) {
    for round in 0..rounds {
        let mut g = GenCtx {
            rng: sub_rng(seed, &format!("js/differential/{round}")),
            funcs: Vec::new(),
            fuel: 60,
        };
        let src = g.program();
        assert_engines_agree(&src, &format!("generated round {round} (seed {seed})"));
    }
}

#[test]
fn generated_programs_agree() {
    differential_rounds(0xD1FF, 300);
}

/// The heavyweight sweep; run with `--include-ignored` in release CI.
#[test]
#[ignore = "heavyweight differential sweep; run in release CI"]
fn generated_programs_agree_deep() {
    for seed in [0xD1FF_u64, 0xBEEF, 0xA11CE, 7, 999] {
        differential_rounds(seed, 2_000);
    }
}

// ----------------------------------------------------- pagegen corpus ----

/// Every page template the generators emit, one seed apiece.
fn pagegen_corpus() -> Vec<(String, String)> {
    let mut out = Vec::new();
    let backlinks = vec![
        "peer1.example.net".to_owned(),
        "peer2.example.org".to_owned(),
    ];
    let dctx = doorway::DoorwayCtx {
        domain: "hacked-blog.com",
        term: "cheap louis vuitton",
        brand: "Louis Vuitton",
        backlinks: &backlinks,
        seed: 11,
    };
    out.push(("doorway/seo".into(), doorway::seo_page(&dctx)));
    out.push((
        "doorway/js-redirect".into(),
        doorway::seo_page_with_js_redirect(&dctx, "http://store.example.com/"),
    ));
    for level in 0..=3u8 {
        out.push((
            format!("doorway/iframe-obf{level}"),
            doorway::iframe_page(&dctx, "http://store.example.com/", level),
        ));
    }
    out.push(("doorway/original".into(), doorway::original_content(&dctx)));

    let template = storefront::StoreTemplate::for_campaign("coco vip bags", 5);
    let sctx = storefront::StoreCtx {
        domain: "cocovipbags.com",
        store_name: "coco vip bags",
        template: &template,
        brands: &["Louis Vuitton", "Gucci"],
        locale: "us",
        merchant_id: "M-1031",
        seed: 17,
    };
    out.push(("store/home".into(), storefront::home_page(&sctx)));
    out.push(("store/product".into(), storefront::product_page(&sctx, 2)));
    out.push((
        "store/checkout".into(),
        storefront::checkout_page(&sctx, 9001),
    ));
    out.push((
        "store/checkout-unavailable".into(),
        storefront::checkout_unavailable_page(&sctx, 9001),
    ));

    let lctx = legit::LegitCtx {
        domain: "forum.example.org",
        theme: legit::LegitTheme::Forum,
        brand: "Louis Vuitton",
        seed: 23,
    };
    out.push(("legit/forum".into(), legit::page(&lctx)));

    let seized = vec!["cocovipbags.com".to_owned(), "bestbags.net".to_owned()];
    let nctx = notice::NoticeCtx {
        domain: "cocovipbags.com",
        firm: "BrandGuard LLP",
        case_id: "14-cv-02317",
        brand: "Louis Vuitton",
        seized_domains: &seized,
    };
    out.push(("notice/seizure".into(), notice::page(&nctx)));

    let report = awstats::TrafficReport {
        period: "Jul 2014".into(),
        unique_visitors: 1200,
        visits: 1900,
        pages: 5400,
        hits: 21_000,
        referrers: vec![
            ("www.google.com".into(), 700),
            ("hacked-blog.com".into(), 300),
        ],
        direct_visits: 250,
        daily: vec![
            ("2014-07-01".into(), 60, 170),
            ("2014-07-02".into(), 65, 180),
        ],
    };
    out.push((
        "awstats/report".into(),
        awstats::page("hacked-blog.com", &report),
    ));
    out
}

/// The visitor classes the crawler renders as: a search-referred user, a
/// direct visit, and the crawler's own agent.
const VISITORS: [(UserAgent, Option<&str>); 3] = [
    (
        UserAgent::Browser,
        Some("http://www.google.com/search?q=bags"),
    ),
    (UserAgent::Browser, None),
    (UserAgent::GoogleBot, None),
];

/// Renders `html` through the reference and through the VM (on a fresh
/// cache) as every visitor class and asserts every observable agrees.
fn assert_renders_agree(name: &str, html: &str) {
    let url = "http://site.example.com/page";
    for (ua, referrer) in VISITORS {
        let tw = render_by(html, url, ua, referrer, run_tree);
        let vm = render_with(html, url, ua, referrer, &JsCache::new());
        assert_eq!(
            tw.doc, vm.doc,
            "DOM diverged: {name} ({ua:?}, {referrer:?})"
        );
        assert_eq!(
            tw.js_redirect, vm.js_redirect,
            "redirect diverged: {name} ({ua:?}, {referrer:?})"
        );
        assert_eq!(
            tw.script_errors, vm.script_errors,
            "error count diverged: {name} ({ua:?}, {referrer:?})"
        );
        assert_eq!(
            tw.effects, vm.effects,
            "effects diverged: {name} ({ua:?}, {referrer:?})"
        );
    }
}

#[test]
fn pagegen_corpus_renders_identically() {
    for (name, html) in pagegen_corpus() {
        assert_renders_agree(&name, &html);
    }
}

/// The world calls the same generators with a per-doorway (seed, term)
/// obfuscation RNG and a per-campaign store template, so the corpus's one
/// seed apiece covers a sliver of the payloads a crawl renders. Sweep the
/// scripted pages over 48 seeds, each with its own term, target and
/// campaign.
#[test]
fn pagegen_seed_sweep_renders_identically() {
    const TERMS: [&str; 4] = [
        "cheap louis vuitton",
        "gucci outlet online",
        "uggs on sale",
        "beats by dre",
    ];
    for seed in 0..48u64 {
        let term = TERMS[seed as usize % TERMS.len()];
        let domain = format!("doorway{seed}.example.com");
        let target = format!("http://store{seed}.example.com/");
        let dctx = doorway::DoorwayCtx {
            domain: &domain,
            term,
            brand: "Louis Vuitton",
            backlinks: &[],
            seed,
        };
        assert_renders_agree(
            &format!("doorway/js-redirect seed {seed}"),
            &doorway::seo_page_with_js_redirect(&dctx, &target),
        );
        for level in 0..=3u8 {
            assert_renders_agree(
                &format!("doorway/iframe-obf{level} seed {seed}"),
                &doorway::iframe_page(&dctx, &target, level),
            );
        }

        let campaign = format!("campaign {seed}");
        let template = storefront::StoreTemplate::for_campaign(&campaign, seed);
        let sctx = storefront::StoreCtx {
            domain: &domain,
            store_name: &campaign,
            template: &template,
            brands: &["Louis Vuitton", "Gucci"],
            locale: "us",
            merchant_id: "M-1031",
            seed,
        };
        assert_renders_agree(
            &format!("store/home seed {seed}"),
            &storefront::home_page(&sctx),
        );
        assert_renders_agree(
            &format!("store/product seed {seed}"),
            &storefront::product_page(&sctx, seed as u32 % 5),
        );
        assert_renders_agree(
            &format!("store/checkout seed {seed}"),
            &storefront::checkout_page(&sctx, 9000 + seed),
        );
    }
}

// ----------------------------------------------------- compile caching ----

#[test]
fn same_template_compiles_once() {
    let cache = JsCache::new();
    let html = pagegen_corpus()
        .into_iter()
        .find(|(name, _)| name == "doorway/iframe-obf1")
        .map(|(_, html)| html)
        .unwrap();
    let r1 = render_with(&html, "http://a.com/", UserAgent::Browser, None, &cache);
    let (compiles_first, hits_first) = cache.stats();
    assert!(compiles_first > 0, "rendering a JS page must compile");
    assert_eq!(hits_first, 0, "first render cannot hit the cache");

    // Re-render the *same template* many times: zero new compiles.
    for _ in 0..10 {
        let r = render_with(&html, "http://a.com/", UserAgent::Browser, None, &cache);
        assert_eq!(r.doc, r1.doc);
    }
    let (compiles_after, hits_after) = cache.stats();
    assert_eq!(
        compiles_after, compiles_first,
        "identical template re-compiled"
    );
    assert_eq!(
        hits_after,
        hits_first + 10 * compiles_first,
        "each re-render should hit once per script compile of the first"
    );
}

#[test]
fn mutated_content_invalidates() {
    let cache = JsCache::new();
    let src_a = "document.write('A');";
    let src_b = "document.write('B');";
    let mut env = PageEnv::default();
    run_script_with(src_a, &mut env, &cache).unwrap();
    run_script_with(src_b, &mut env, &cache).unwrap();
    run_script_with(src_a, &mut env, &cache).unwrap();
    assert_eq!(env.effects.written_html, "ABA");
    let (compiles, hits) = cache.stats();
    assert_eq!(compiles, 2, "two distinct sources, two compiles");
    assert_eq!(hits, 1, "the repeat of src_a hits");
}

#[test]
fn parse_failures_are_cached_too() {
    let cache = JsCache::new();
    let bad = "var = ((;";
    let mut env = PageEnv::default();
    for _ in 0..3 {
        let e = run_script_with(bad, &mut env, &cache).unwrap_err();
        assert!(matches!(e, JsError::Syntax(_)));
    }
    let (compiles, hits) = cache.stats();
    assert_eq!(
        compiles, 1,
        "a parse failure is compiled (to an error) once"
    );
    assert_eq!(hits, 2);
}

#[test]
fn eval_chunks_cache_across_renders() {
    // Level-3 obfuscation evals an identical payload string every render:
    // the eval-mode chunk must cache exactly like a top-level one.
    let cache = JsCache::new();
    let html = pagegen_corpus()
        .into_iter()
        .find(|(name, _)| name == "doorway/iframe-obf3")
        .map(|(_, html)| html)
        .unwrap();
    for _ in 0..3 {
        let r = render_with(&html, "http://a.com/", UserAgent::Browser, None, &cache);
        assert_eq!(r.iframes().len(), 1, "obf3 payload must attach its iframe");
    }
    let (compiles, hits) = cache.stats();
    assert!(compiles >= 2, "main chunk + eval chunk");
    let (c2, h2) = {
        let r = render_with(&html, "http://a.com/", UserAgent::Browser, None, &cache);
        assert_eq!(r.iframes().len(), 1);
        cache.stats()
    };
    assert_eq!(c2, compiles, "steady state: no new compiles");
    assert!(h2 > hits, "steady state renders are pure cache hits");
}

/// Cache stats must be deterministic for a fixed workload regardless of
/// interleaving — the crawler folds them into pinned metrics.
#[test]
fn cache_stats_deterministic_across_threads() {
    let corpus: Vec<(String, String)> = pagegen_corpus();
    let run_once = |threads: usize| -> (u64, u64) {
        let cache = JsCache::new();
        std::thread::scope(|s| {
            for t in 0..threads {
                let cache = &cache;
                let corpus = &corpus;
                s.spawn(move || {
                    for (i, (_, html)) in corpus.iter().enumerate() {
                        if i % threads == t {
                            for _ in 0..3 {
                                render_with(html, "http://a.com/", UserAgent::Browser, None, cache);
                            }
                        }
                    }
                });
            }
        });
        cache.stats()
    };
    let single = run_once(1);
    assert_eq!(single, run_once(2), "2-thread stats differ from 1-thread");
    assert_eq!(single, run_once(8), "8-thread stats differ from 1-thread");
}

// ------------------------------------------------------- speedup gate ----

/// A pre-parsed page: its scripts plus the environment a fresh visit
/// starts from, so a timed sweep runs scripts and nothing else.
fn script_case(html: &str) -> (Vec<String>, PageEnv) {
    let doc = Document::parse(html);
    let mut env = PageEnv::browser("http://d.com/", Some("http://google.com/search?q=x"));
    env.title = doc.title().unwrap_or_default();
    env.dom_ids = doc
        .elements()
        .iter()
        .filter_map(|e| e.attr("id").map(str::to_owned))
        .collect();
    (doc.scripts(), env)
}

/// Wall clock of `sweeps` passes over every case, with a fresh
/// environment per page visit.
fn time_sweeps(
    cases: &[(Vec<String>, PageEnv)],
    sweeps: usize,
    mut run: impl FnMut(&str, &mut PageEnv) -> Result<(), JsError>,
) -> Duration {
    let t0 = Instant::now();
    for _ in 0..sweeps {
        for (scripts, env) in cases {
            let mut env = env.clone();
            for src in scripts {
                let _ = black_box(run(black_box(src), &mut env));
            }
        }
    }
    t0.elapsed()
}

/// The VM must run the corpus's scripts at least 2× faster than the
/// reference on a warm chunk cache. A single timed round per engine swings
/// with host noise, so the two engines' rounds interleave and each
/// engine's fastest of seven, its least-disturbed run, is compared.
#[test]
#[ignore = "wall-clock gate; run single-threaded in release CI"]
fn vm_runs_scripts_at_least_twice_as_fast_as_the_reference() {
    const ROUNDS: usize = 7;
    const SWEEPS: usize = 40;
    let cases: Vec<(Vec<String>, PageEnv)> = pagegen_corpus()
        .iter()
        .map(|(_, html)| script_case(html))
        .collect();
    let cache = JsCache::new();
    let mut vm = |src: &str, env: &mut PageEnv| run_script_with(src, env, &cache);
    // Warm-up pass: compiles every chunk before the timed rounds.
    time_sweeps(&cases, 1, run_tree);
    time_sweeps(&cases, 1, &mut vm);

    let mut tree_best = Duration::MAX;
    let mut vm_best = Duration::MAX;
    for _ in 0..ROUNDS {
        tree_best = tree_best.min(time_sweeps(&cases, SWEEPS, run_tree));
        vm_best = vm_best.min(time_sweeps(&cases, SWEEPS, &mut vm));
    }
    let speedup = tree_best.as_secs_f64() / vm_best.as_secs_f64();
    println!(
        "[js speedup] {} pages x {SWEEPS} sweeps, fastest of {ROUNDS} rounds: \
         reference {:.2} ms, vm {:.2} ms, {speedup:.2}x",
        cases.len(),
        tree_best.as_secs_f64() * 1e3,
        vm_best.as_secs_f64() * 1e3,
    );
    assert!(
        speedup >= 2.0,
        "the VM runs scripts only {speedup:.2}x faster than the reference (bar: 2x)"
    );
}
