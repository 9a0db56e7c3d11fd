//! Paper/mega-scale profiling harness.
//!
//! Builds the world for a preset, runs the study (optionally on a
//! shortened crawl horizon), and records a machine-readable profile —
//! total wall clock, the world-build split, the pipeline's per-stage
//! timing table, headline observables, and the calibration grade. CI's
//! non-blocking paper-smoke job uploads the result as `BENCH_paper.json`.
//!
//! ```text
//! # full paper-scale profile into BENCH_paper.json
//! cargo run --release -p ss-bench --example paper_smoke -- \
//!     --preset paper --out BENCH_paper.json
//!
//! # shortened-horizon CI smoke: build + 20 crawl days
//! cargo run --release -p ss-bench --example paper_smoke -- \
//!     --preset paper --days 20 --out BENCH_paper.json
//!
//! # stress scale
//! cargo run --release -p ss-bench --example paper_smoke -- --preset mega
//! ```
//!
//! `--checkpoint` additionally exercises the state plane: the run drops
//! a mid-window checkpoint, and the profile records its size on disk
//! plus save/load wall clock. Every entry records the process's peak
//! resident set (`VmHWM`, Linux only).

use search_seizure::manifest::{CalibrationEntry, Headline, StageTiming};
use search_seizure::{state, RunOptions, Study};
use ss_bench::Preset;
use ss_eco::World;

/// What `--out` records — one entry in the `BENCH_paper.json` run log.
/// Field names are the public contract of the artifact (and of
/// `repro bench-report`'s flattened metric names) — extend, don't rename.
#[derive(serde::Serialize)]
struct BenchProfile {
    preset: String,
    seed: u64,
    threads: usize,
    /// `git rev-parse --short HEAD` at run time, or "unknown" outside a
    /// work tree — lets a trajectory log entry be traced back to a commit.
    git_rev: String,
    /// Crawl window actually executed `(first, last)`, inclusive days.
    crawl_window: (u32, u32),
    /// Wall clock of a standalone world build (generation only).
    build_wall_s: f64,
    /// World size after build: domains, indexed docs, stores, campaigns.
    world: (usize, usize, usize, usize),
    /// Wall clock of the full study run (build + crawl + analysis).
    total_wall_s: f64,
    /// The pipeline's per-stage timing table.
    stage_timings: Vec<StageTiming>,
    headline: Headline,
    calibration: Vec<CalibrationEntry>,
    /// VanGogh bytecode-cache effect at scale: distinct page templates
    /// compiled vs. chunk-cache hits across the whole crawl window.
    js_compiles: u64,
    js_cache_hits: u64,
    /// Query plane at scale: sustained worker queries/sec against the
    /// published epoch while the world ticks (the `repro serve` loadgen
    /// on the standalone build, before the study run).
    serve_qps: f64,
    /// Engine SERP queries and cache hits across the study run itself.
    serp_queries: u64,
    serp_cache_hits: u64,
    /// State plane at scale (present with `--checkpoint`): bytes of the
    /// mid-window checkpoint frame, and save/load wall clock.
    checkpoint_bytes: Option<u64>,
    checkpoint_save_s: Option<f64>,
    checkpoint_load_s: Option<f64>,
    /// Peak resident set of the whole process (standalone build, serve,
    /// study and any checkpoint load), MiB; `None` off Linux.
    peak_rss_mib: Option<f64>,
    /// Deterministic cost-profile rows (allocs/bytes/work units per
    /// phase; no wall clock) — what `repro bench-report` gates on.
    costs: serde::Value,
}

/// Short git revision for trajectory entries; tolerant of running
/// outside a repository (release tarballs, sandboxes).
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// This process's peak resident set in MiB, from the `VmHWM` line of
/// `/proc/self/status`; `None` where that file does not exist.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

fn main() {
    let mut preset = Preset::Paper;
    let mut seed = 1u64;
    let mut days: Option<u32> = None;
    let mut threads = 1usize;
    let mut out: Option<String> = None;
    let mut checkpoint = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--preset" => {
                let v = args.next().expect("--preset needs a value");
                preset = Preset::parse(&v).unwrap_or_else(|| panic!("unknown preset {v:?}"));
            }
            "--seed" => seed = args.next().expect("--seed needs a value").parse().unwrap(),
            "--days" => days = Some(args.next().expect("--days needs a value").parse().unwrap()),
            "--threads" => {
                threads = args
                    .next()
                    .expect("--threads needs a value")
                    .parse()
                    .unwrap();
            }
            "--out" => out = Some(args.next().expect("--out needs a path")),
            "--checkpoint" => checkpoint = true,
            other => panic!("unknown argument {other:?}"),
        }
    }

    let mut cfg = preset.config(seed);
    if let Some(d) = days {
        cfg.crawl_end = cfg.crawl_start + d;
        // Don't simulate months past a shortened crawl.
        cfg.scenario.scale.end_day = cfg
            .scenario
            .scale
            .end_day
            .min(cfg.crawl_end.day_index() + 10);
    }
    cfg.set_threads(threads);
    cfg.manifest_path = None;

    // Build once standalone so world generation gets its own wall-clock
    // split (the study rebuilds internally; generation is deterministic).
    let t0 = std::time::Instant::now();
    let mut w = World::build(cfg.scenario.clone()).expect("world builds");
    let build_wall_s = t0.elapsed().as_secs_f64();
    let world = (
        w.domains.len(),
        w.engine.doc_count(),
        w.stores.len(),
        w.campaigns.len(),
    );
    eprintln!(
        "[paper_smoke] {} world built in {build_wall_s:.1}s: {} domains, {} docs, {} stores, {} campaigns",
        preset.describe(seed),
        world.0,
        world.1,
        world.2,
        world.3
    );
    // Query-plane throughput on the fresh build: loadgen workers hammer
    // the published epoch while the world ticks a few days. (The SERP mix
    // at day 0 differs from mid-window, but walk cost per query doesn't.)
    let serve =
        ss_bench::serve::run_loadgen(&mut w, 5, threads.max(2), std::time::Duration::from_secs(2));
    eprintln!(
        "[paper_smoke] serve: {:.0} qps sustained over {} worker(s), {} epoch republishes",
        serve.qps, serve.threads, serve.days
    );
    drop(w);

    // With --checkpoint, drop one resumable frame mid-window so the
    // profile captures the state plane's cost at this scale.
    let ckpt_dir = std::env::temp_dir().join(format!("ss-smoke-ckpt-{}", std::process::id()));
    let window_days = cfg.crawl_end.day_index() - cfg.crawl_start.day_index();
    let opts = if checkpoint {
        RunOptions {
            resume_from: None,
            checkpoint_every: Some(window_days.max(2) / 2),
            checkpoint_dir: Some(ckpt_dir.to_string_lossy().into_owned()),
        }
    } else {
        RunOptions::default()
    };

    let t1 = std::time::Instant::now();
    let output = Study::new(cfg).run_with(opts).expect("study runs");
    let total_wall_s = t1.elapsed().as_secs_f64();

    let (mut checkpoint_bytes, mut checkpoint_load_s) = (None, None);
    let checkpoint_save_s = output
        .metrics
        .cost_stats("study.checkpoint")
        .map(|s| s.total_ns as f64 / 1e9);
    if checkpoint {
        let first = std::fs::read_dir(&ckpt_dir)
            .expect("checkpoint dir")
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .min()
            .expect("a checkpoint was written");
        checkpoint_bytes = Some(std::fs::metadata(&first).expect("checkpoint stat").len());
        let t = std::time::Instant::now();
        state::load_checkpoint(&first).expect("checkpoint loads");
        checkpoint_load_s = Some(t.elapsed().as_secs_f64());
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }

    let profile = BenchProfile {
        preset: format!("{preset:?}").to_ascii_lowercase(),
        seed,
        threads,
        git_rev: git_rev(),
        crawl_window: (output.window.0.day_index(), output.window.1.day_index()),
        build_wall_s,
        world,
        total_wall_s,
        stage_timings: output.manifest.stage_timings.clone(),
        headline: output.manifest.headline.clone(),
        calibration: output.manifest.calibration.clone(),
        js_compiles: output.metrics.counter_total("simweb.js_compile"),
        js_cache_hits: output.metrics.counter_total("simweb.js_cache_hit"),
        serve_qps: serve.qps,
        serp_queries: output.metrics.counter_total("engine.serp_queries"),
        serp_cache_hits: output.metrics.counter_total("engine.serp_cache_hits"),
        checkpoint_bytes,
        checkpoint_save_s,
        checkpoint_load_s,
        peak_rss_mib: peak_rss_mib(),
        costs: output.metrics.costs_value(),
    };
    if let (Some(b), Some(l)) = (profile.checkpoint_bytes, profile.checkpoint_load_s) {
        eprintln!(
            "[paper_smoke] checkpoint: {:.1} MiB, save {:.2}s, load {l:.2}s",
            b as f64 / (1024.0 * 1024.0),
            profile.checkpoint_save_s.unwrap_or(0.0),
        );
    }

    eprintln!(
        "[paper_smoke] study ran in {total_wall_s:.1}s: {} PSRs, {} seizure notices, \
         js cache {} compiles / {} hits, serp {} queries / {} cache hits, calibration [{}]",
        profile.headline.psrs,
        profile.headline.seizure_notices,
        profile.js_compiles,
        profile.js_cache_hits,
        profile.serp_queries,
        profile.serp_cache_hits,
        profile
            .calibration
            .iter()
            .map(|c| format!("{}={}", c.observable, c.status))
            .collect::<Vec<_>>()
            .join(", ")
    );

    let rendered = serde_json::to_string_pretty(&profile).expect("profile serializes");
    match out {
        Some(path) => {
            // The artifact is an append-only run log: keep every prior
            // entry (migrating a pre-envelope single-object file on the
            // way) and push this run onto `runs`.
            let run = ss_bench::manifest_diff::parse_json(&rendered).expect("profile re-parses");
            let mut log = match std::fs::read_to_string(&path) {
                Ok(existing) => ss_bench::trajectory::normalize_log(
                    ss_bench::manifest_diff::parse_json(&existing)
                        .unwrap_or_else(|e| panic!("existing {path} is not JSON: {e}")),
                ),
                Err(_) => ss_bench::trajectory::empty_log(),
            };
            ss_bench::trajectory::append_run(&mut log, run);
            let runs = ss_bench::trajectory::run_count(&log);
            std::fs::write(
                &path,
                serde_json::to_string_pretty(&log).expect("log serializes"),
            )
            .expect("profile written");
            eprintln!("[paper_smoke] wrote {path} ({runs} run(s) in log)");
        }
        None => println!("{rendered}"),
    }
}
