//! `repro` — regenerate every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! repro <experiment> [--preset tiny|small|paper|mega] [--seed N] [--out DIR]
//!                    [--threads N] [--no-trace] [--trace-level off|stage|event]
//! repro all          # every experiment + EXPERIMENTS.md
//! repro list         # experiment index
//! repro explain campaign <name|index>   # causal chain for one campaign
//! repro explain store <domain>          # causal chain for one store domain
//! repro explain psr <day> <rank>        # why a PSR appeared there
//!
//! repro <experiment> --checkpoint-every N [--checkpoint-dir DIR]
//!                    # drop a resumable checkpoint every N crawl days
//! repro <experiment> --resume-from DIR/checkpoint-dayNNNN.ssnp
//!                    # resume a checkpointed run; output is bit-identical
//! repro sweep <checkpoint.ssnp> [--offsets -14,-7,0,7,14]
//!                    # fork one checkpoint into seizure-offset arms
//! repro diff <manifest_a.json> <manifest_b.json> [--expect-equal]
//!                    # structural manifest diff, wall-clock ignored;
//!                    # includes a per-kind event-trail comparison
//! repro profile [--preset ...] [--threads N]
//!                    # run the study and print the hierarchical cost
//!                    # profile (deterministic columns + wall clock)
//! repro bench-report <base.json> <current.json> [--deny]
//!                    # compare the latest BENCH_paper.json entries;
//!                    # --deny exits non-zero on cost regressions
//! repro serve [days] [--preset ...] [--threads N]
//!                    # query-plane loadgen: workers hammer the published
//!                    # epoch while the world ticks and republishes
//! ```
//!
//! `--threads N` drives both planes — the crawler's per-vertical fan-out
//! and the simulation's tick-stage planners. Output is bit-identical for
//! every `N` (default: serial).
//!
//! Tracing is on by default for `repro` runs: the flight recorder and the
//! tick-plane event trail feed `repro explain`, and the registry's
//! wall-frame timeline is written to `reports/trace.json` (load it at
//! <https://ui.perfetto.dev>). `--no-trace` turns all of it off; benches
//! and library users default to off.
//!
//! Experiments: table1 table2 table3 fig1 fig2 fig3 fig4 fig5 fig6
//! classifier validation termbias labels seizures supplier conversion
//! purchases.

use std::collections::HashMap;
use std::io::Write as _;

use search_seizure::analysis::{ecosystem, figures, interventions, sidechannel, validation};
use search_seizure::report::{experiments_json, experiments_markdown, ExperimentReport};
use search_seizure::{explain, RunCheckpoint, RunOptions, StudyOutput};
use ss_bench::{manifest_diff, Preset};
use ss_obs::TraceLevel;
use ss_stats::render;

struct Args {
    experiment: String,
    /// Positional operands after the experiment name (`explain` takes
    /// `campaign <id>` / `store <domain>` / `psr <day> <rank>`).
    operands: Vec<String>,
    preset: Preset,
    seed: u64,
    out_dir: Option<String>,
    threads: usize,
    trace: TraceLevel,
    /// Drop a resumable checkpoint every N crawl days.
    checkpoint_every: Option<u32>,
    /// Directory for checkpoint frames (default `checkpoints/`).
    checkpoint_dir: Option<String>,
    /// Resume the study from a checkpoint frame instead of day 0.
    resume_from: Option<String>,
    /// Seizure-day offsets for `repro sweep` arms.
    offsets: Vec<i64>,
    /// `repro diff`: exit non-zero if the manifests differ.
    expect_equal: bool,
    /// `repro bench-report`: exit non-zero on gated cost regressions.
    deny: bool,
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let mut positional: Vec<String> = Vec::new();
    let mut preset = Preset::Small;
    let mut seed = 2014;
    let mut out_dir = None;
    let mut threads = 1;
    // Tracing defaults ON for repro runs: `repro explain` needs the
    // retained event trail, and the Perfetto timeline is ~free at this
    // scale. Benches and library users default to off.
    let mut trace = TraceLevel::Event;
    let mut checkpoint_every = None;
    let mut checkpoint_dir = None;
    let mut resume_from = None;
    let mut offsets = vec![-7, 0, 7];
    let mut expect_equal = false;
    let mut deny = false;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--preset" => {
                let v = args.next().expect("--preset needs a value");
                preset = Preset::parse(&v).unwrap_or_else(|| panic!("unknown preset {v:?}"));
            }
            "--seed" => {
                seed = args
                    .next()
                    .expect("--seed needs a value")
                    .parse()
                    .expect("numeric seed");
            }
            "--out" => out_dir = Some(args.next().expect("--out needs a directory")),
            "--threads" => {
                threads = args
                    .next()
                    .expect("--threads needs a value")
                    .parse()
                    .expect("numeric thread count");
            }
            "--no-trace" => trace = TraceLevel::Off,
            "--trace-level" => {
                let v = args.next().expect("--trace-level needs a value");
                trace = TraceLevel::parse(&v)
                    .unwrap_or_else(|| panic!("unknown trace level {v:?} (off|stage|event)"));
            }
            "--checkpoint-every" => {
                checkpoint_every = Some(
                    args.next()
                        .expect("--checkpoint-every needs a day count")
                        .parse()
                        .expect("numeric day count"),
                );
            }
            "--checkpoint-dir" => {
                checkpoint_dir = Some(args.next().expect("--checkpoint-dir needs a directory"));
            }
            "--resume-from" => {
                resume_from = Some(args.next().expect("--resume-from needs a checkpoint path"));
            }
            "--offsets" => {
                let v = args.next().expect("--offsets needs a comma-separated list");
                offsets = v
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .unwrap_or_else(|_| panic!("bad offset {s:?} in --offsets"))
                    })
                    .collect();
                assert!(!offsets.is_empty(), "--offsets needs at least one value");
            }
            "--expect-equal" => expect_equal = true,
            "--deny" => deny = true,
            other if other.starts_with("--") => panic!("unknown flag {other:?}"),
            operand => positional.push(operand.to_owned()),
        }
    }
    let mut positional = positional.into_iter();
    Args {
        experiment: positional.next().unwrap_or_else(|| "list".to_owned()),
        operands: positional.collect(),
        preset,
        seed,
        out_dir,
        threads,
        trace,
        checkpoint_every,
        checkpoint_dir,
        resume_from,
        offsets,
        expect_equal,
        deny,
    }
}

const EXPERIMENTS: &[(&str, &str)] = &[
    (
        "table1",
        "Table 1 — per-vertical PSRs/doorways/stores/campaigns",
    ),
    ("table2", "Table 2 — per-campaign fleets and peak durations"),
    ("table3", "Table 3 — seizures per brand-protection firm"),
    ("fig1", "Figure 1 — iframe cloaking, same URL two ways"),
    ("fig2", "Figure 2 — campaign attribution of PSRs over time"),
    ("fig3", "Figure 3 — poisoning envelopes per vertical"),
    (
        "fig4",
        "Figure 4 — PSR visibility vs order volume, four campaigns",
    ),
    ("fig5", "Figure 5 — coco*.com case study"),
    (
        "fig6",
        "Figure 6 — PHP?P= international stores around a seizure",
    ),
    ("classifier", "§4.2.2 — cross-validated campaign classifier"),
    (
        "validation",
        "§4.1.3 — detection validation vs ground truth",
    ),
    ("termbias", "§4.1.1 — term-selection bias check"),
    ("labels", "§5.2.2 — hacked-label coverage and delay"),
    ("seizures", "§5.3 — seizure coverage, lifetimes, reactions"),
    ("supplier", "§4.5 — supplier shipment ledger"),
    ("conversion", "§5.2.3 — conversion metrics"),
    ("purchases", "§4.3 — order-sampling and purchase programme"),
    (
        "ablation",
        "§3.1.1 — detector ablation: Dagger alone vs +VanGogh",
    ),
    (
        "manifest",
        "run manifest — stage timings, counters, headline observables",
    ),
    (
        "jsengine",
        "§3.1.2 — VanGogh execution engine: bytecode VM chunk cache",
    ),
    (
        "queryplane",
        "query plane — epoch SERP index: walk, cache, serve",
    ),
    (
        "profile",
        "cost-model profiler — hierarchical phase costs and work units",
    ),
];

fn main() {
    let args = parse_args();
    if args.experiment == "list" {
        println!("Experiments ({} total):", EXPERIMENTS.len());
        for (id, title) in EXPERIMENTS {
            println!("  {id:<11} {title}");
        }
        println!("  all         run everything and write EXPERIMENTS.md");
        println!("  explain     causal chain: campaign <id> | store <domain> | psr <day> <rank>");
        println!("  sweep       fork a checkpoint into seizure-offset intervention arms");
        println!("  diff        structural manifest diff (wall-clock fields ignored)");
        println!("  serve       SERP loadgen over published epochs while the world ticks");
        println!("  bench-report  compare two BENCH_paper.json logs; --deny gates regressions");
        return;
    }

    // diff needs no study run: it compares two manifests already on disk.
    if args.experiment == "diff" {
        run_diff(&args);
        return;
    }

    // bench-report compares two trajectory logs already on disk.
    if args.experiment == "bench-report" {
        run_bench_report(&args);
        return;
    }

    // sweep forks an existing checkpoint instead of building a world.
    if args.experiment == "sweep" {
        run_sweep(&args);
        return;
    }

    // serve needs a world but no study: it loadgens the query plane.
    if args.experiment == "serve" {
        run_serve(&args);
        return;
    }

    // fig1 needs no study run — it is a live demo against a fresh world.
    if args.experiment == "fig1" {
        let report = fig1_report(args.seed);
        print!("{}", report.to_markdown(true));
        return;
    }

    eprintln!(
        "[repro] running study: {} (this builds the world, crawls the window, \
         samples orders, classifies campaigns)",
        args.preset.describe(args.seed)
    );
    let t0 = std::time::Instant::now();
    let mut cfg = args.preset.config(args.seed);
    // One flag drives both planes: crawl fan-out and tick planners.
    cfg.set_threads(args.threads);
    cfg.set_trace(args.trace);
    if args.trace != TraceLevel::Off {
        // Wall-clock half of the trace plane: a Chrome-trace-event
        // timeline, excluded from every determinism comparison.
        cfg.trace_path
            .get_or_insert_with(|| "reports/trace.json".to_owned());
    }
    let trace_path = cfg.trace_path.clone();
    // Every repro run leaves a manifest behind (CI uploads it).
    cfg.manifest_path
        .get_or_insert_with(|| "reports/run_manifest.json".to_owned());
    let manifest_path = cfg.manifest_path.clone().expect("just set");
    if let Some(p) = &args.resume_from {
        eprintln!("[repro] resuming from {p}");
    }
    let mut out = search_seizure::Study::new(cfg)
        .run_with(RunOptions {
            resume_from: args.resume_from.clone(),
            checkpoint_every: args.checkpoint_every,
            checkpoint_dir: args.checkpoint_dir.clone(),
        })
        .expect("study preset runs");
    eprintln!("[repro] study done in {:.1?}", t0.elapsed());
    if let Some(every) = args.checkpoint_every {
        eprintln!(
            "[repro] checkpoints every {every} crawl days in {}/",
            args.checkpoint_dir.as_deref().unwrap_or("checkpoints")
        );
    }
    eprint!("{}", out.manifest.summary_table());
    eprintln!("[repro] wrote {manifest_path}");
    if let Some(p) = &trace_path {
        eprintln!("[repro] wrote {p} (open at https://ui.perfetto.dev)");
    }

    if args.experiment == "explain" {
        print!("{}", run_explain(&out, &args.operands));
        return;
    }

    let reports: Vec<ExperimentReport> = if args.experiment == "all" {
        let mut all = vec![fig1_report(args.seed)];
        for (id, _) in EXPERIMENTS.iter().filter(|(id, _)| *id != "fig1") {
            all.push(run_experiment(id, &mut out));
        }
        // The one-pass invariant: the full experiment suite rode the
        // shared aggregation scan — no analysis re-read the PSR corpus.
        let passes = out.metrics.counter_total("analysis.passes");
        assert_eq!(
            passes, 1,
            "repro all must perform exactly one PSR pass, measured {passes}"
        );
        all
    } else {
        vec![run_experiment(&args.experiment, &mut out)]
    };

    for r in &reports {
        print!("{}", r.to_markdown(true));
    }

    if let Some(dir) = &args.out_dir {
        std::fs::create_dir_all(dir).expect("create out dir");
        let md = experiments_markdown(&args.preset.describe(args.seed), &reports, true);
        write_file(&format!("{dir}/EXPERIMENTS.md"), &md);
        write_file(
            &format!("{dir}/experiments.json"),
            &experiments_json(&reports),
        );
        eprintln!("[repro] wrote {dir}/EXPERIMENTS.md and experiments.json");
    }
}

/// `repro diff a.json b.json` — structural manifest diff. Wall-clock
/// fields (stage and cost timings, per-day elapsed) are excluded, so two
/// runs of the same study diff clean regardless of machine speed.
fn run_diff(args: &Args) {
    let [a_path, b_path] = args.operands.as_slice() else {
        panic!("usage: repro diff <manifest_a.json> <manifest_b.json> [--expect-equal]");
    };
    let read = |p: &String| {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| panic!("read {p}: {e}"));
        manifest_diff::parse_json(&text).unwrap_or_else(|e| panic!("parse {p}: {e}"))
    };
    let (a, b) = (read(a_path), read(b_path));
    let entries = manifest_diff::diff(&a, &b);
    if entries.is_empty() {
        println!("manifests agree ({a_path} vs {b_path}; wall-clock fields ignored)");
        return;
    }
    println!(
        "{} difference(s) ({a_path} -> {b_path}; wall-clock fields ignored):",
        entries.len()
    );
    for e in &entries {
        println!("  {e}");
    }
    // The event trail pinpoints *when* two runs first made different
    // decisions — per event kind, the totals and the first divergent day.
    let trail = manifest_diff::trail_diff(&a, &b);
    if !trail.is_empty() {
        println!("event trail ({} kind(s) diverge):", trail.len());
        for t in &trail {
            println!("  {t}");
        }
    }
    if args.expect_equal {
        std::process::exit(1);
    }
}

/// `repro bench-report <base> <current>` — compares the latest entries of
/// two perf-trajectory logs (`BENCH_paper.json` envelopes or bare
/// profiles). Deterministic cost metrics gate at per-metric tolerances;
/// wall-clock rows are context only. `--deny` turns regressions into a
/// non-zero exit for CI.
fn run_bench_report(args: &Args) {
    let [base_path, cur_path] = args.operands.as_slice() else {
        panic!("usage: repro bench-report <base.json> <current.json> [--deny]");
    };
    let read = |p: &String| {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| panic!("read {p}: {e}"));
        ss_bench::trajectory::normalize_log(
            manifest_diff::parse_json(&text).unwrap_or_else(|e| panic!("parse {p}: {e}")),
        )
    };
    let deltas = ss_bench::trajectory::compare(&read(base_path), &read(cur_path));
    let changed: Vec<_> = deltas
        .iter()
        .filter(|d| d.rel.map(|r| r != 0.0).unwrap_or(true))
        .collect();
    println!(
        "bench report: {base_path} -> {cur_path} ({} metric(s), {} changed)",
        deltas.len(),
        changed.len()
    );
    for d in &changed {
        println!("  {d}");
    }
    let regressions: Vec<_> = deltas.iter().filter(|d| d.regressed).collect();
    if regressions.is_empty() {
        println!("no cost regressions beyond tolerance");
        return;
    }
    println!("{} cost regression(s) beyond tolerance:", regressions.len());
    for d in &regressions {
        println!("  {d}");
    }
    if args.deny {
        std::process::exit(1);
    }
}

/// `repro serve [days]` — the query-plane loadgen: build a world, advance
/// it to the crawl window, then let `--threads` workers hammer the
/// published epoch while the main thread keeps ticking and republishing.
/// Reports sustained queries/sec plus the engine's own query/cache-hit
/// counters for the run.
fn run_serve(args: &Args) {
    let days: u32 = args
        .operands
        .first()
        .map(|d| d.parse().unwrap_or_else(|_| panic!("bad day count {d:?}")))
        .unwrap_or(14);
    let threads = args.threads.max(1);
    eprintln!(
        "[repro] serve: {} — building world, advancing to the crawl window",
        args.preset.describe(args.seed)
    );
    let cfg = args.preset.config(args.seed);
    let mut world = ss_eco::World::build(cfg.scenario.clone()).expect("serve preset world builds");
    world.run_until(cfg.crawl_start);
    eprintln!("[repro] serve: {threads} worker(s), {days} day(s) of ticks");
    let report =
        ss_bench::serve::run_loadgen(&mut world, days, threads, std::time::Duration::from_secs(2));
    println!("# repro serve — epoch read-path throughput\n");
    println!("| metric | value |");
    println!("|---|---|");
    println!("| worker threads | {} |", report.threads);
    println!("| days ticked (epochs republished) | {} |", report.days);
    println!("| worker queries | {} |", report.queries);
    println!("| wall clock | {:.2}s |", report.wall_s);
    println!("| sustained qps | {:.0} |", report.qps);
    println!(
        "| engine queries (incl. tick planners) | {} |",
        report.engine_queries
    );
    println!("| engine SERP cache hits | {} |", report.engine_cache_hits);
}

/// `repro sweep <checkpoint>` — fork one checkpoint into K intervention
/// arms. Each arm shifts every still-scheduled scripted seizure by a
/// per-arm day offset, resumes to the end of the window in its own
/// thread, and reports headline deltas against the offset-0 baseline.
fn run_sweep(args: &Args) {
    use serde::Serialize as _;
    use ss_types::snapshot::Snapshot as _;

    let path = args.operands.first().unwrap_or_else(|| {
        panic!("usage: repro sweep <checkpoint.ssnp> [--offsets -14,-7,0,7,14]")
    });
    let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let probe = RunCheckpoint::decode(&bytes).unwrap_or_else(|e| panic!("decode {path}: {e}"));
    let mut offsets = args.offsets.clone();
    if !offsets.contains(&0) {
        // The baseline arm anchors every delta; always run it.
        offsets.insert(0, 0);
    }
    eprintln!(
        "[repro] sweep: {} arms forked from {path} (resumes {}; offsets {offsets:?})",
        offsets.len(),
        probe.next_day,
    );
    let t0 = std::time::Instant::now();
    let arms: Vec<(i64, StudyOutput)> = std::thread::scope(|scope| {
        let handles: Vec<_> = offsets
            .iter()
            .map(|&offset| {
                let bytes = &bytes;
                scope.spawn(move || {
                    let mut ckpt = RunCheckpoint::decode(bytes).expect("checkpoint decodes");
                    ckpt.world.shift_scripted_seizures(offset);
                    let mut cfg = args.preset.config(args.seed);
                    cfg.set_threads(args.threads);
                    cfg.set_trace(TraceLevel::Off);
                    let out = search_seizure::Study::new(cfg)
                        .resume(ckpt)
                        .unwrap_or_else(|e| {
                            panic!(
                                "arm {offset:+}: {e} (the sweep's --preset/--seed must match \
                             the run that wrote the checkpoint)"
                            )
                        });
                    (offset, out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("arm thread"))
            .collect()
    });
    eprintln!("[repro] sweep done in {:.1?}", t0.elapsed());

    let baseline = arms
        .iter()
        .find(|(o, _)| *o == 0)
        .map(|(_, out)| out.manifest.headline.serialize())
        .expect("baseline arm present");
    println!("# Intervention sweep — seizure-day offsets\n");
    for (offset, out) in &arms {
        let headline = out.manifest.headline.serialize();
        if *offset == 0 {
            println!(
                "## offset +0 (baseline)\n{}\n",
                serde_json::to_string_pretty(&headline).expect("headline renders")
            );
            continue;
        }
        let deltas = manifest_diff::diff(&baseline, &headline);
        println!(
            "## offset {offset:+} — {} headline change(s) vs baseline",
            deltas.len()
        );
        if deltas.is_empty() {
            println!("  (headline unchanged)");
        }
        for d in &deltas {
            println!("  {d}");
        }
        println!();
    }
}

/// Dispatches `repro explain <kind> …` to the provenance query layer and
/// returns the rendered chronological chain.
fn run_explain(out: &StudyOutput, operands: &[String]) -> String {
    let usage = "usage: repro explain campaign <name|index> | store <domain> | psr <day> <rank>";
    let chain = match operands {
        [kind, key] if kind == "campaign" => explain::explain_campaign(out, key),
        [kind, domain] if kind == "store" => explain::explain_store(out, domain),
        [kind, day, rank] if kind == "psr" => explain::explain_psr(
            out,
            day.parse().expect("numeric day index"),
            rank.parse().expect("numeric rank"),
        ),
        _ => panic!("{usage}"),
    };
    match chain {
        Some(c) => c.render(),
        None => "no causal chain found (unknown id, or nothing observed there)\n".to_owned(),
    }
}

fn write_file(path: &str, body: &str) {
    let mut f = std::fs::File::create(path).unwrap_or_else(|e| panic!("create {path}: {e}"));
    f.write_all(body.as_bytes()).expect("write file");
}

fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

fn run_experiment(id: &str, out: &mut StudyOutput) -> ExperimentReport {
    match id {
        "table1" => table1_report(out),
        "table2" => table2_report(out),
        "table3" | "seizures" => seizures_report(out, id),
        "fig2" => fig2_report(out),
        "fig3" => fig3_report(out),
        "fig4" => fig4_report(out),
        "fig5" => fig5_report(out),
        "fig6" => fig6_report(out),
        "classifier" => classifier_report(out),
        "validation" => validation_report(out),
        "termbias" => termbias_report(out),
        "labels" => labels_report(out),
        "supplier" => supplier_report(out),
        "conversion" => conversion_report(out),
        "purchases" => purchases_report(out),
        "ablation" => ablation_report(out.world.cfg.seed),
        "manifest" => manifest_report(out),
        "jsengine" => jsengine_report(out),
        "queryplane" => queryplane_report(out),
        "profile" => profile_report(out),
        other => panic!("unknown experiment {other:?}; try `repro list`"),
    }
}

fn profile_report(out: &StudyOutput) -> ExperimentReport {
    let tree = ss_obs::render_tree(&out.metrics);
    let phases = out.metrics.costs().len();
    ExperimentReport::new("S13", "cost-model profiler — phase costs")
        .narrate(
            "Hierarchical self-time and cost profile of this run: per phase, \
             scope entries, allocation deltas (count/bytes/frees), typed work \
             units, and wall clock. Every column except the `*_ms` pair is \
             deterministic — bit-identical at any `--threads` value and \
             golden-gated — while wall clock is context only. The same data \
             ships as `reports/profile.folded` (wall-clock flamegraph) and \
             `reports/profile.cost.folded` (deterministic cost weights).",
        )
        .compare("phases recorded", "≥ 8", phases, false)
        .compare(
            "crawl docs fetched",
            "—",
            out.metrics
                .cost_stats("crawl/fetch")
                .map(|s| s.work[ss_obs::WorkKind::DocsFetched as usize])
                .unwrap_or(0),
            false,
        )
        .artifact("phase tree (costs + wall clock)", tree)
}

fn manifest_report(out: &StudyOutput) -> ExperimentReport {
    let m = &out.manifest;
    ExperimentReport::new("S10", "run manifest — telemetry summary")
        .narrate(
            "Provenance and instrumentation of this very run: per-stage wall-clock \
             frames, the deterministic counter/histogram registry, and the headline \
             observables the golden test pins.",
        )
        .compare("stages timed", "5", m.stage_timings.len(), false)
        .compare(
            "distinct metrics recorded",
            "≥ 12",
            out.metrics.metric_names().len(),
            false,
        )
        .compare("PSR observations", "—", m.headline.psrs, false)
        .compare(
            "seizure notices observed",
            "—",
            m.headline.seizure_notices,
            false,
        )
        .compare("test orders", "—", m.headline.test_orders, false)
        .artifact("summary table", m.summary_table())
}

fn jsengine_report(out: &StudyOutput) -> ExperimentReport {
    // The cache counters come from the study run itself (deterministic).
    let compiles = out.metrics.counter_total("simweb.js_compile");
    let hits = out.metrics.counter_total("simweb.js_cache_hit");
    ExperimentReport::new("S11", "§3.1.2 — VanGogh execution engine")
        .narrate(
            "VanGogh runs page scripts on a bytecode VM compiling each page \
             template once into a cached chunk. The original tree-walking \
             interpreter survives only as the test-only reference of a \
             differential harness, which holds the VM to identical renders \
             and gates its script-only speedup at ≥2× in CI.",
        )
        .compare(
            "templates compiled this study (crawl window total)",
            "tiny vs renders",
            compiles,
            false,
        )
        .compare("chunk-cache hits this study", "—", hits, false)
        .compare(
            "cache hit rate",
            "→ 100% as the crawl proceeds",
            if compiles + hits > 0 {
                pct(hits as f64 / (compiles + hits) as f64)
            } else {
                "—".into()
            },
            false,
        )
}

fn queryplane_report(out: &StudyOutput) -> ExperimentReport {
    // Counters come from the study run itself (deterministic); the walk
    // timing and the serve loadgen run on this machine (indicative, not
    // pinned — the bit-identity of the SERPs is what the differential
    // suite gates).
    let queries = out.metrics.counter_total("engine.serp_queries");
    let hits = out.metrics.counter_total("engine.serp_cache_hits");

    // The epoch's bounded walk on the study's own final engine, uncached.
    let term = ss_types::TermId(0);
    let day = out.window.1;
    let k = 100;
    let iters = 2_000u32;
    let t0 = std::time::Instant::now();
    for _ in 0..iters {
        std::hint::black_box(out.world.engine.ranked_uncached(term, day, k));
    }
    let walk_us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(iters);

    // Sustained read-path throughput: workers on the published epoch of
    // a small ticking world (the `repro serve` loadgen, shortened).
    let mut w = ss_eco::World::build(ss_eco::ScenarioConfig::tiny(out.world.cfg.seed))
        .expect("tiny world builds");
    w.run_until(ss_types::SimDate::from_day_index(ss_types::CRAWL_START_DAY));
    let serve = ss_bench::serve::run_loadgen(&mut w, 3, 4, std::time::Duration::from_millis(500));

    ExperimentReport::new("S12", "query plane — epoch-published SERP index")
        .narrate(
            "The search engine publishes an immutable epoch at every commit; \
             the traffic planner, the crawler, and the `repro serve` loadgen \
             all read the same snapshot — score-sorted postings walked with a \
             top-k heap, per-(term, day) SERP cache, id-based hits with URLs \
             resolved only at boundaries. SERPs are bit-identical to the \
             test-only reference full scan (property-tested and CI-gated). \
             Timings below are from this machine and indicative.",
        )
        .compare("SERP queries this study", "—", queries, false)
        .compare(
            "SERP cache hits this study",
            "commit-stable days only",
            hits,
            false,
        )
        .compare(
            "epoch walk, µs/query (k=100)",
            "—",
            format!("{walk_us:.2}"),
            false,
        )
        .compare(
            "serve loadgen qps (tiny world, 4 workers, 3 ticked days)",
            "—",
            format!("{:.0}", serve.qps),
            false,
        )
}

fn ablation_report(seed: u64) -> ExperimentReport {
    let a = validation::detector_ablation(seed, 10);
    ExperimentReport::new("S9", "§3.1.1 — detector ablation (extension)")
        .narrate(
            "Two crawls over the same world and days: the full stack versus \
             Dagger fetch-and-diff alone (rendering disabled). The gap is \
             exactly the iframe-cloaking population — the paper's argument for \
             why detection \"requires a complete browser\", quantified.",
        )
        .compare("poisoned domains (full stack)", "—", a.full_poisoned, false)
        .compare(
            "poisoned domains (Dagger only)",
            "—",
            a.dagger_only_poisoned,
            false,
        )
        .compare(
            "rendering-exclusive catches",
            "the iframe-cloaked population",
            a.rendering_exclusive,
            false,
        )
        .compare(
            "of which truly iframe-cloaking",
            "all",
            format!(
                "{} / {}",
                a.rendering_exclusive_iframe, a.rendering_exclusive
            ),
            false,
        )
        .compare(
            "PSR observations (full vs Dagger-only)",
            "—",
            format!("{} vs {}", a.full_psrs, a.dagger_only_psrs),
            false,
        )
}

fn fig1_report(seed: u64) -> ExperimentReport {
    use ss_eco::{ScenarioConfig, World};
    use ss_types::{SimDate, Url};
    use ss_web::http::{Fetcher, Request, UserAgent};

    let mut w = World::build(ScenarioConfig::tiny(seed)).expect("world builds");
    w.run_until(SimDate::from_day_index(ss_types::CRAWL_START_DAY + 5));
    let day = w.day;
    // Find a live iframe-cloaking doorway.
    let target = w
        .campaigns
        .iter()
        .flat_map(|c| c.doorways.iter().map(move |d| (c.cloak, d)))
        .find(|(cloak, d)| {
            matches!(cloak, ss_web::cloak::CloakMode::Iframe { .. }) && d.is_live(day)
        })
        .map(|(_, d)| d.domain);
    let Some(domain) = target else {
        return ExperimentReport::new("F1", "Figure 1 — iframe cloaking").narrate(
            "No live iframe-cloaking doorway in this tiny world; rerun with another seed.",
        );
    };
    let host = w.domains.get(domain).name.clone();
    let url = Url::root(host);
    let (bot, _) = w.fetch(&Request::crawler(url.clone()));
    let (user, _) = w.fetch(&Request::browser_from(
        url.clone(),
        Url::parse("http://google.com/search?q=x").expect("static url"),
    ));
    let rendered =
        ss_web::js::render::render(&user.body, &url.to_string(), UserAgent::Browser, None);
    let frames = rendered.iframes();
    ExperimentReport::new("F1", "Figure 1 — iframe cloaking, same URL two ways")
        .narrate(format!(
            "Fetching {url} as Googlebot returns a keyword-stuffed page ({} bytes). \
             A search-referred browser receives byte-identical markup, but rendering \
             its JavaScript attaches {} full-viewport iframe(s) loading the store — \
             the detection blind spot §3.1.1 describes.",
            bot.body.len(),
            frames.len()
        ))
        .compare(
            "same bytes to crawler and user",
            "yes (iframe cloaking)",
            (bot.body == user.body).to_string(),
            false,
        )
        .compare("rendered full-page iframes", "1", frames.len(), false)
        .compare(
            "iframe geometry",
            "width/height 100% or >800px",
            frames
                .first()
                .map(|(w, h, _)| format!("{w}×{h}"))
                .unwrap_or_default(),
            false,
        )
}

fn table1_report(out: &StudyOutput) -> ExperimentReport {
    let t1 = ecosystem::table1(out);
    let churn = ecosystem::mean_daily_churn(out);
    ExperimentReport::new("T1", "Table 1 — vertical breakdown")
        .narrate(
            "Absolute counts scale with the preset; the reproduction claims are the \
             orderings (heavily-targeted verticals dominate) and the partial \
             attribution shares.",
        )
        .compare("total PSRs", "2,773,044", t1.total.0, true)
        .compare("unique doorways", "27,008", t1.total.1, true)
        .compare("unique stores", "7,484", t1.total.2, true)
        .compare("campaigns observed", "52", t1.total.3, false)
        .compare(
            "PSRs attributed to campaigns",
            "58%",
            pct(t1.attributed_psr_fraction),
            false,
        )
        .compare(
            "stores attributed",
            "11%",
            pct(t1.attributed_store_fraction),
            false,
        )
        .compare("mean daily domain churn", "1.84%", pct(churn), false)
        .artifact("Table 1 (measured, paper in parentheses)", t1.to_markdown())
}

fn table2_report(out: &StudyOutput) -> ExperimentReport {
    let t2 = ecosystem::table2(out);
    let top5 = ecosystem::top_k_psr_share(out, 5);
    ExperimentReport::new("T2", "Table 2 — campaign fleets and peaks")
        .narrate(
            "Campaign burstiness: the peak range is the shortest span holding ≥60% \
             of a campaign's PSRs (§5.1.2). The skew claim: a handful of campaigns \
             carry most attributed PSRs.",
        )
        .compare("campaigns tabulated", "38 (of 52)", t2.rows.len(), false)
        .compare(
            "mean peak duration",
            "51.3 days",
            format!("{:.1} days", t2.mean_peak_days),
            false,
        )
        .compare(
            "top-5 campaign share of attributed PSRs",
            "majority (skewed)",
            pct(top5),
            false,
        )
        .artifact("Table 2 (measured)", t2.to_markdown())
}

fn fig2_report(out: &StudyOutput) -> ExperimentReport {
    // The paper plots Abercrombie, Beats By Dre, Louis Vuitton, Uggs.
    let wanted = ["Abercrombie", "Beats By Dre", "Louis Vuitton", "Uggs"];
    let mut report = ExperimentReport::new("F2", "Figure 2 — stacked campaign attribution")
        .narrate(
            "Per-vertical stacked shares: % of crawled results poisoned, split by \
             attributed campaign, with the penalized share at the bottom — \
             regenerated as CSV per vertical plus terminal sparklines.",
        );
    for (vi, mv) in out.monitored.iter().enumerate() {
        if !wanted.contains(&mv.name.as_str()) && vi >= 4 {
            continue;
        }
        let f2 = figures::fig2(out, vi, 5);
        report = report
            .artifact(&format!("{} — sparklines", f2.name), f2.to_text(48))
            .artifact(&format!("{} — CSV", f2.name), f2.to_csv());
    }
    report
}

fn fig3_report(out: &StudyOutput) -> ExperimentReport {
    let (rows, series) = figures::fig3(out);
    let mut report = ExperimentReport::new("F3", "Figure 3 — poisoning envelopes").narrate(
        "Min/max daily poisoned share per vertical (top-10 and crawled depth). \
             The claim under test is the cross-vertical ordering: the heavily \
             targeted verticals of the paper should also lead here.",
    );
    // Rank correlation of vertical orderings (measured vs paper, by
    // top-100 max).
    let mut measured: Vec<(usize, f64)> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| (i, r.top100.1))
        .collect();
    let mut paper: Vec<(usize, f64)> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| (i, r.paper.3))
        .collect();
    measured.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    paper.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let m_rank: HashMap<usize, usize> = measured
        .iter()
        .enumerate()
        .map(|(r, (i, _))| (*i, r))
        .collect();
    let p_rank: HashMap<usize, usize> = paper
        .iter()
        .enumerate()
        .map(|(r, (i, _))| (*i, r))
        .collect();
    let xs: Vec<f64> = (0..rows.len()).map(|i| m_rank[&i] as f64).collect();
    let ys: Vec<f64> = (0..rows.len()).map(|i| p_rank[&i] as f64).collect();
    let rho = ss_stats::corr::pearson(&xs, &ys).unwrap_or(0.0);
    report = report.compare(
        "vertical intensity ordering (rank corr. vs paper)",
        "1.0 by definition",
        format!("{rho:.2}"),
        true,
    );
    report.artifact(
        "Figure 3 (sparklines)",
        figures::fig3_text(&rows, &series, 40),
    )
}

fn fig4_report(out: &StudyOutput) -> ExperimentReport {
    let mut report = ExperimentReport::new("F4", "Figure 4 — visibility vs orders").narrate(
        "Four campaign panels: PSR prevalence (top-100/top-10/labeled) and a \
             representative store's order volume and rate. The paper's claim is \
             the correlation between search visibility and order activity.",
    );
    for name in ["KEY", "MOONKIS", "VERA", "PHP?P="] {
        let Some(panel) = figures::fig4(out, name) else {
            continue;
        };
        if let Some(r) = panel.visibility_rate_correlation {
            report = report.compare(
                &format!("{name}: corr(PSRs, order rate)"),
                "positive",
                format!("{r:.2}"),
                false,
            );
        }
        let spark = format!(
            "top100 {}\ntop10  {}\nrate   {}",
            render::sparkline_compact(&panel.top100, 48),
            render::sparkline_compact(&panel.top10, 48),
            panel
                .rate
                .as_ref()
                .map(|r| render::sparkline_compact(r, 48))
                .unwrap_or_else(|| "(no sampled store)".into()),
        );
        report = report
            .artifact(&format!("{name} — panel sparklines"), spark)
            .artifact(&format!("{name} — CSV"), panel.to_csv());
    }
    report
}

fn fig5_report(out: &StudyOutput) -> ExperimentReport {
    match figures::fig5(out, "coco") {
        Some(f5) => {
            let rotations = f5.domains.len();
            ExperimentReport::new("F5", "Figure 5 — coco*.com case study")
                .narrate(
                    "One BIGLOVE Chanel storefront rotating across coco*.com domains: \
                     PSR visibility, AWStats daily traffic, and order activity move \
                     together across the rotations.",
                )
                .compare(
                    "storefront domains used",
                    "3 (two rotations)",
                    rotations,
                    true,
                )
                .compare(
                    "traffic observed (pages, window total)",
                    "14K–29K pages/day",
                    format!("{:.0} total", f5.traffic_pages.sum()),
                    false,
                )
                .artifact("Figure 5 — CSV", f5.to_csv())
        }
        None => ExperimentReport::new("F5", "Figure 5 — coco*.com case study").narrate(
            "The coco*.com storefront was not observed in this run (it goes live in \
             June 2014; use the paper preset or extend the crawl window).",
        ),
    }
}

fn fig6_report(out: &StudyOutput) -> ExperimentReport {
    let patterns = [
        "abercrombie-uk",
        "abercrombie-de",
        "hollister-uk",
        "woolrich-de",
    ];
    match figures::fig6(out, "PHP?P=", &patterns) {
        Some(f6) => {
            let mut lines = String::new();
            for (domain, samples) in &f6.stores {
                lines.push_str(&format!("{domain}: "));
                for (day, n) in samples {
                    lines.push_str(&format!("({day},{n}) "));
                }
                lines.push('\n');
            }
            for (domain, day) in &f6.seizures {
                lines.push_str(&format!("SEIZED {domain} on {day}\n"));
            }
            ExperimentReport::new("F6", "Figure 6 — PHP?P= international stores")
                .narrate(
                    "Order-number samples for the campaign's international stores. \
                     The seized store's slope dips at its seizure; siblings are \
                     unaffected — seizing one domain does not dent the campaign.",
                )
                .compare("international stores tracked", "4", f6.stores.len(), true)
                .compare(
                    "seizures observed among them",
                    "1 (Abercrombie UK, Feb 9)",
                    f6.seizures.len(),
                    true,
                )
                .artifact("order-number samples", lines)
        }
        None => ExperimentReport::new("F6", "Figure 6 — PHP?P= international stores").narrate(
            "The scripted PHP?P= stores were not sampled in this run (the Feb 2014 \
             seizure beat needs a crawl window covering day 219).",
        ),
    }
}

fn classifier_report(out: &StudyOutput) -> ExperimentReport {
    let v = validation::classifier(out);
    let mut report = ExperimentReport::new("S1", "§4.2.2 — campaign classifier")
        .narrate(
            "L1-regularized logistic regression over tag-attribute-value bag-of-words \
             features, one-vs-rest across the 52 campaigns, refined with expert \
             validation rounds. Ground-truth precision/recall are reproduction-only \
             scores the paper could not compute.",
        )
        .compare("k-fold CV accuracy", "86.8%", pct(v.cv_accuracy), false)
        .compare("chance baseline", "1.9%", pct(v.chance), false)
        .compare("labeled pages", "491", v.labeled, true)
        .compare(
            "ground-truth precision (confident)",
            "n/a in paper",
            pct(v.truth_precision),
            false,
        )
        .compare(
            "ground-truth recall",
            "n/a in paper",
            pct(v.truth_recall),
            false,
        );
    // Interpretability: top features for the biggest campaigns.
    let mut blob = String::new();
    for name in ["KEY", "BIGLOVE", "MSVALIDATE"] {
        if let Some(c) = out.attribution.class_index(name) {
            let feats = out.attribution.top_features_of(c, 5);
            if !feats.is_empty() {
                blob.push_str(&format!("{name}:\n"));
                for (tok, w) in feats {
                    blob.push_str(&format!("  {w:.3}  {tok}\n"));
                }
            }
        }
    }
    if !blob.is_empty() {
        report = report.artifact("most characteristic HTML features", blob);
    }
    report
}

fn validation_report(out: &StudyOutput) -> ExperimentReport {
    let v = validation::detection(out);
    ExperimentReport::new("S2", "§4.1.3 — detection validation")
        .narrate(
            "The paper hand-checked 1.8K sampled results (0 false positives, 1.2% \
             false negatives); the reproduction scores every verdict against \
             ground truth.",
        )
        .compare("doorway false positives", "0", v.false_positives, false)
        .compare("doorway false-negative rate", "1.2%", pct(v.fn_rate), false)
        .compare("store false positives", "0", v.store_false_positives, false)
        .compare("doorways confirmed", "n/a", v.true_positives, false)
}

fn termbias_report(out: &mut StudyOutput) -> ExperimentReport {
    let b = validation::term_bias(out);
    ExperimentReport::new("S3", "§4.1.1 — term-selection bias")
        .narrate(
            "Alternate suggest-derived term sets for the doorway-derived verticals, \
             crawled for one day: different strings, same campaigns.",
        )
        .compare(
            "term overlap",
            "4 / 1000",
            format!("{} / {}", b.overlapping_terms, b.total_terms),
            false,
        )
        .compare(
            "PSR rate (original terms)",
            "—",
            pct(b.original_psr_rate),
            false,
        )
        .compare(
            "PSR rate (alternate terms)",
            "no significant difference",
            pct(b.alternate_psr_rate),
            false,
        )
        .compare(
            "campaign-set Jaccard",
            "\"same campaigns\"",
            format!("{:.2}", b.campaign_jaccard),
            false,
        )
}

fn labels_report(out: &StudyOutput) -> ExperimentReport {
    let l = interventions::labels(out);
    ExperimentReport::new("S4", "§5.2.2 — hacked-label intervention")
        .narrate(
            "Coverage is thin, the root-only policy forgoes further coverage, and \
             labels land weeks after a doorway starts ranking — the three findings \
             that make the label ineffective against these campaigns.",
        )
        .compare("label coverage of PSRs", "2.5%", pct(l.coverage), true)
        .compare(
            "labelable under same-domain policy",
            "68,193 → 102,104 (+49%)",
            format!(
                "{} → {} (+{:.0}%)",
                l.labeled_psrs,
                l.could_have_labeled,
                l.policy_gain * 100.0
            ),
            false,
        )
        .compare(
            "labeling delay (days)",
            "13–32",
            l.delay
                .map(|d| format!("{:.0}–{:.0} (n={})", d.mean_lo, d.mean_hi, d.n))
                .unwrap_or_else(|| "no labeled doorways observed".into()),
            true,
        )
}

fn seizures_report(out: &StudyOutput, id: &str) -> ExperimentReport {
    let s = interventions::seizures(out);
    let lag = interventions::seizure_observation_lag(out);
    let mut report = ExperimentReport::new(
        if id == "table3" { "T3" } else { "S5" },
        "Table 3 / §5.3 — seizure intervention",
    )
    .narrate(
        "Brand holders seize in bulk but cover a sliver of the store population, \
         stores live for weeks before seizure, and campaigns re-point doorways to \
         backups within days — the asymmetry that blunts the intervention.",
    )
    .compare(
        "seized share of observed stores",
        "3.9%",
        pct(s.seized_store_fraction),
        false,
    )
    .compare(
        "seizure observation lag vs truth",
        "n/a in paper (footnote 7)",
        lag.map(|l| format!("{l:.1} days"))
            .unwrap_or_else(|| "—".into()),
        false,
    );
    for f in &s.firms {
        report = report.compare(
            &format!("{}: lifetime / redirected / reaction", f.firm),
            match f.firm.as_str() {
                "Greer, Burns & Crain" => "58–68 d / 130 of 214 / 7 d",
                "SMGPA" => "48–56 d / 57 of 76 / 15 d",
                _ => "—",
            },
            format!(
                "{} / {} of {} / {}",
                f.store_lifetime
                    .map(|l| format!("{:.0}–{:.0} d", l.mean_lo, l.mean_hi))
                    .unwrap_or_else(|| "—".into()),
                f.redirected,
                f.observed_stores,
                f.mean_reaction_days
                    .map(|d| format!("{d:.0} d"))
                    .unwrap_or_else(|| "—".into()),
            ),
            true,
        );
    }
    report.artifact("Table 3 (measured)", s.to_markdown())
}

fn supplier_report(out: &StudyOutput) -> ExperimentReport {
    match sidechannel::supplier(out) {
        Some(s) => {
            let countries = s
                .top_countries
                .iter()
                .map(|(c, n)| format!("{c}: {n}"))
                .collect::<Vec<_>>()
                .join(", ");
            ExperimentReport::new("S6", "§4.5 — supplier shipment ledger")
                .narrate(
                    "The portal's bulk lookup (20 order numbers per query) reconstructs \
                     the ledger; the delivery mix and destination skew carry over.",
                )
                .compare("records", "279K", s.records, true)
                .compare("delivered", "256K (91.7%)", s.delivered, true)
                .compare("seized at source", "4K", s.seized_source, true)
                .compare("seized at destination", "15K", s.seized_destination, true)
                .compare("returned", "1,319", s.returned, true)
                .compare(
                    "US+JP+AU+W.Europe share",
                    ">81%",
                    pct(s.top_market_share),
                    true,
                )
                .artifact("top destinations", countries)
        }
        None => ExperimentReport::new("S6", "§4.5 — supplier shipment ledger")
            .narrate("The supplier portal was not discovered in this run."),
    }
}

fn conversion_report(out: &StudyOutput) -> ExperimentReport {
    // Prefer the paper's coco store; otherwise the best-instrumented store.
    let analysis = sidechannel::conversion(out, "coco").or_else(|| {
        let best = out
            .awstats
            .iter()
            .max_by_key(|(_, reports)| reports.iter().map(|r| r.visits).sum::<u64>())
            .map(|(d, _)| d.clone())?;
        sidechannel::conversion(out, &best)
    });
    match analysis {
        Some(c) => ExperimentReport::new("S7", "§5.2.3 — conversion metrics")
            .narrate(format!(
                "AWStats-derived conversion arithmetic for {:?}.",
                c.domains
            ))
            .compare("visits observed", "93,509", c.visits, false)
            .compare(
                "referrer-set fraction",
                "60%",
                pct(c.referrer_fraction),
                true,
            )
            .compare(
                "pages per visit",
                "5.6",
                format!("{:.1}", c.pages_per_visit),
                true,
            )
            .compare(
                "conversion rate",
                "0.7% (a sale every 151 visits)",
                pct(c.conversion_rate),
                true,
            )
            .compare(
                "referrers seen as crawled doorways",
                "47.7%",
                pct(c.doorway_overlap),
                false,
            ),
        None => ExperimentReport::new("S7", "§5.2.3 — conversion metrics")
            .narrate("No store exposed AWStats in this run."),
    }
}

fn purchases_report(out: &StudyOutput) -> ExperimentReport {
    let p = sidechannel::purchases(out);
    let banks = p
        .banks
        .iter()
        .map(|(b, n)| format!("{b} ({n})"))
        .collect::<Vec<_>>()
        .join(", ");
    ExperimentReport::new("S8", "§4.3 — purchase programme")
        .narrate(
            "The order-sampling and real-purchase programme: breadth of coverage \
             and the payment-processing concentration.",
        )
        .compare("test orders created", "1,408", p.test_orders, false)
        .compare("stores sampled", "290", p.stores_sampled, true)
        .compare("campaigns touched", "24", p.campaigns_touched, false)
        .compare("verticals touched", "13", p.verticals_touched, false)
        .compare("purchases completed", "16", p.purchases, true)
        .compare("purchase campaigns", "12", p.purchase_campaigns, false)
        .compare("settling banks", "3 (2 CN, 1 KR)", p.banks.len(), true)
        .artifact("bank concentration", banks)
}
