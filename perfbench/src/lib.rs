//! # perfbench
//!
//! The repository's benchmark: three workloads over the program's real
//! entry points, end-to-end metrics from an untraced run and per-layer
//! metrics from a separate traced run. `README.md` beside this crate
//! explains the workloads, the metrics and how to run them.
//!
//! An untraced invocation repeats [`workload`] passes until the requested
//! seconds have elapsed (at least one pass) and reports medians; a traced
//! invocation makes one untraced pass as the reference and one
//! [`traced`] run, and reports the layers' busy times and counts.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cpu;
pub mod report;
pub mod serve;
pub mod spans;
pub mod traced;
pub mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use search_seizure::attribution::Attribution;
use ss_obs::{CostStats, Registry, WorkKind};

use crate::report::{median, peak_rss_mib, quantile_us, Metric};
use crate::serve::ClientReport;
use crate::spans::{Span, Spans, MAIN};
use crate::traced::{run_traced, Traced};
use crate::workload::{check_client, check_output, panic_text, resume, run_study, Pass, Plan};

/// Checkpoint round trips per pass repeat until they take this many CPU
/// seconds in all ...
const MIN_ROUND_TRIP_S: f64 = 3.0;
/// ... or this many have run.
const MAX_ROUND_TRIPS: usize = 9;

/// Trace coverage the study workloads must reach.
pub const MIN_COVERAGE: f64 = 0.95;

/// The counts that must repeat exactly across runs of one seed, and
/// between the untraced and the traced run. Engine-side query totals are
/// left out on `serve`, whose client is still querying when the study's
/// registry takes its last drain.
const DETERMINISTIC: &[&str] = &[
    "crawlkit.fetches",
    "crawlkit.render_passes",
    "crawlkit.detector_runs",
    "crawlkit.psrs",
    "crawlkit.allocs",
    "crawlkit.alloc_bytes",
    "simweb.js_compiles",
    "simweb.js_cache_hits",
    "simweb.js_vm_steps",
    "searchsim.postings_walked",
    "searchsim.client_queries",
    "searchsim.first_touch_queries",
    "attribution.pool_stores",
    "attribution.features",
    "attribution.labeled",
    "attribution.oracle_queries",
    "attribution.allocs",
    "attribution.alloc_bytes",
    "state.checkpoint_bytes",
];

/// What one invocation measured.
pub struct Outcome {
    /// Every operation succeeded and every check passed.
    pub correct: bool,
    /// Operations attempted: studies, checkpoint round trips, queries.
    pub attempted: u64,
    /// Operations that panicked, returned an error or failed a check.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// One line per failed operation or benchmark defect.
    pub problems: Vec<String>,
    /// The traced run's spans.
    pub spans: Option<Spans>,
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    defects: bool,
    problems: Vec<String>,
}

impl Tally {
    fn op(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.problems.push(format!("{what} failed: {e}"));
        }
    }

    fn queries(&mut self, client: &ClientReport) {
        self.attempted += client.queries;
        self.failed += client.mismatches;
        if client.mismatches > 0 {
            self.problems.push(format!(
                "{} of {} checked SERPs differ from an uncached walk",
                client.mismatches, client.checked
            ));
        }
    }

    fn defect(&mut self, what: String) {
        self.defects = true;
        self.problems.push(format!("benchmark defect: {what}"));
    }

    fn outcome(self, metrics: Vec<Metric>, spans: Option<Spans>) -> Outcome {
        Outcome {
            correct: self.failed == 0 && !self.defects,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            problems: self.problems,
            spans,
        }
    }
}

/// `Ok` when no check failed, else the failures joined.
fn all_passed(failures: Vec<String>) -> Result<(), String> {
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|p| Err(format!("panicked: {}", panic_text(&*p))))
}

/// Runs `plan` for at least `seconds` (untraced) or once traced, keeping
/// checkpoints and determinism records under `dir`.
pub fn measure(plan: &Plan, seconds: f64, trace: bool, dir: &Path) -> Outcome {
    if trace {
        measure_traced(plan, dir)
    } else {
        measure_untraced(plan, seconds, dir)
    }
}

/// One untraced pass's measurements.
struct Sample {
    setup_s: f64,
    study_s: f64,
    resume_s: f64,
    peak_rss_mib: Option<f64>,
    client: ClientReport,
    fingerprint: u64,
    /// The registry's deterministic projection (counters, histograms and
    /// cost rows), compared with the traced run's.
    registry: String,
    counts: Vec<(&'static str, u64)>,
}

/// One study with its checks, its checkpoint round trip, and its queries.
fn untraced_pass(plan: &Plan, dir: &Path, tally: &mut Tally) -> Option<Sample> {
    let ckpt_dir = dir.join("checkpoints");
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let pass = std::fs::create_dir_all(&ckpt_dir)
        .map_err(|e| format!("{}: {e}", ckpt_dir.display()))
        .and_then(|()| guarded(|| run_study(plan, &ckpt_dir)));
    let pass = match pass {
        Ok(pass) => pass,
        Err(e) => {
            tally.op("study", Err(e));
            tally.op("checkpoint round trip", Err("the study failed".into()));
            return None;
        }
    };
    tally.op("study", all_passed(check_output(plan, &pass.out)));
    let Pass {
        out,
        setup_s,
        study_s,
        study_wall_s,
        live,
        checkpoint,
    } = pass;
    let checkpoint_bytes = std::fs::metadata(&checkpoint).map_or(0, |m| m.len());
    let fingerprint = out.run_fingerprint();
    let registry = deterministic_registry(&out.metrics);
    let (metrics, attribution) = (out.metrics, out.attribution);
    drop((out.world, out.crawler));
    // Round trips repeat while they add up to under three seconds, so the
    // figure is a median rather than one reading.
    let mut trips = Vec::new();
    let mut restored = None;
    while trips.len() < MAX_ROUND_TRIPS && trips.iter().sum::<f64>() < MIN_ROUND_TRIP_S {
        restored = None;
        match guarded(|| resume(plan, &checkpoint)) {
            Ok((state, s)) => {
                tally.op("checkpoint round trip", Ok(()));
                trips.push(s);
                restored = Some(state);
            }
            Err(e) => {
                tally.op("checkpoint round trip", Err(e));
                break;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let restored = restored?;
    let resume_s = median(trips);
    // Read before the probe, whose fresh keys fill the SERP cache.
    let peak_rss_mib = peak_rss_mib();
    let client = match live {
        Some(client) => client,
        None => plan.probe(&restored.world),
    };
    drop(restored);
    if let Err(e) = check_client(plan, &client) {
        tally.defect(e);
    }
    tally.queries(&client);
    eprintln!(
        "[perfbench] study: {study_wall_s:.3} s wall, {study_s:.3} s CPU; \
         {} queries ({} first-touch) in {:.3} CPU s",
        client.queries, client.first_touch, client.busy_s
    );
    let counts = counts(&metrics, &attribution, checkpoint_bytes, &client, None);
    Some(Sample {
        setup_s,
        study_s,
        resume_s,
        peak_rss_mib,
        fingerprint,
        registry,
        counts: deterministic(plan, counts),
        client,
    })
}

fn measure_untraced(plan: &Plan, seconds: f64, dir: &Path) -> Outcome {
    let mut tally = Tally::default();
    let started = Instant::now();
    let mut samples = Vec::new();
    loop {
        samples.extend(untraced_pass(plan, dir, &mut tally));
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    for s in samples.iter().skip(1) {
        if let Err(e) = same_counts(&samples[0].counts, &s.counts) {
            tally.defect(format!("counts differ between passes: {e}"));
        }
    }
    let Some(first) = samples.first() else {
        return tally.outcome(Vec::new(), None);
    };
    if let Err(e) = check_record(plan, dir, &first.counts) {
        tally.defect(e);
    }
    let rss = first.peak_rss_mib.unwrap_or_else(|| {
        tally.defect("no peak RSS reading".into());
        0.0
    });
    let of = |f: &dyn Fn(&Sample) -> f64| median(samples.iter().map(f).collect());
    let metrics = vec![
        Metric::new("setup_s", of(&|s| s.setup_s), "s"),
        Metric::new("study_s", of(&|s| s.study_s), "s"),
        Metric::new("resume_s", of(&|s| s.resume_s), "s"),
        Metric::new("peak_rss_mib", rss, "MiB"),
        Metric::new(
            "serve_qps",
            of(&|s| s.client.median_of(|e| e.qps)),
            "queries/s",
        ),
        Metric::new(
            "serve_p99_us",
            of(&|s| s.client.median_of(|e| e.p99_us)),
            "us",
        ),
    ];
    tally.outcome(metrics, None)
}

fn measure_traced(plan: &Plan, dir: &Path) -> Outcome {
    let mut tally = Tally::default();
    let reference = untraced_pass(plan, dir, &mut tally);
    let ckpt_dir = dir.join("checkpoints");
    let traced = std::fs::create_dir_all(&ckpt_dir)
        .map_err(|e| format!("{}: {e}", ckpt_dir.display()))
        .and_then(|()| guarded(|| run_traced(plan, &ckpt_dir, true)));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let (reference, mut traced) = match (reference, traced) {
        (Some(reference), Ok(traced)) => (reference, traced),
        (reference, traced) => {
            let why = traced.err().unwrap_or_default();
            let why = if reference.is_none() {
                format!("no untraced reference to compare with. {why}")
            } else {
                why
            };
            tally.op("traced study", Err(why));
            return tally.outcome(Vec::new(), None);
        }
    };

    let coverage = coverage(&traced);
    let mut failures = Vec::new();
    if traced.fingerprint != reference.fingerprint {
        failures.push(format!(
            "ended on fingerprint {:016x}, the untraced study on {:016x}",
            traced.fingerprint, reference.fingerprint
        ));
    }
    // On `serve` the engine counters also hold client queries that were
    // in flight at the last drain, so only the studies compare registries.
    if !plan.live() && deterministic_registry(&traced.obs) != reference.registry {
        failures.push("its registry differs from the untraced study's".into());
    }
    if !plan.live() && coverage < MIN_COVERAGE {
        failures.push(format!("trace coverage {coverage:.4} < {MIN_COVERAGE}"));
    }
    tally.op("traced study", all_passed(failures));

    // The studies' latencies come from the reference pass's probe: they
    // are client-side figures, which tracing would not change.
    let client = match traced.client.take() {
        Some(live) => {
            if let Err(e) = check_client(plan, &live) {
                tally.defect(e);
            }
            tally.queries(&live);
            live
        }
        None => reference.client,
    };
    let counts = counts(
        &traced.obs,
        &traced.attribution,
        traced.checkpoint_bytes,
        &client,
        Some(traced.attribution_allocs),
    );
    let det = deterministic(plan, counts.clone());
    if let Err(e) = same_counts(&reference.counts, &det) {
        tally.defect(format!("untraced and traced counts differ: {e}"));
    }
    if let Err(e) = check_record(plan, dir, &det) {
        tally.defect(e);
    }
    // The untraced study saves its checkpoint but never reloads it, so
    // the traced run's reload is left out of the comparison.
    let overhead = (traced.cpu_s - traced.reload_cpu_s) / reference.study_s - 1.0;
    let metrics = layer_metrics(&traced, &client, &counts, coverage, overhead);
    tally.outcome(metrics, Some(traced.spans))
}

/// Share of the traced wall clock the main thread's layer spans cover;
/// `study.*` spans only group a day's layer spans.
fn coverage(t: &Traced) -> f64 {
    let covered: f64 = t
        .spans
        .all()
        .iter()
        .filter(|s| s.lane == MAIN && s.layer() != "study")
        .map(Span::secs)
        .fold(0.0, |a, b| a + b);
    covered / t.wall_s
}

/// Counters, histograms and the cost rows' deterministic columns.
fn deterministic_registry(obs: &Registry) -> String {
    obs.metrics_json() + &obs.costs_json()
}

/// Summed cost rows under `prefix`.
fn cost_sum(obs: &Registry, prefix: &str) -> CostStats {
    let mut sum = CostStats::default();
    for (_, row) in obs.costs().iter().filter(|(p, _)| p.starts_with(prefix)) {
        sum.merge(row);
    }
    sum
}

/// Every count-valued per-layer metric, read back through public
/// accessors. `attribution_allocs` is known only in the traced run.
fn counts(
    obs: &Registry,
    attribution: &Attribution,
    checkpoint_bytes: u64,
    client: &ClientReport,
    attribution_allocs: Option<(u64, u64)>,
) -> Vec<(&'static str, u64)> {
    let crawl = cost_sum(obs, "crawl/");
    let serp = cost_sum(obs, "engine/serp");
    let c = |name| obs.counter_total(name);
    let mut counts = vec![
        ("ecosim.tick_events", c("eco.tick_events")),
        ("crawlkit.fetches", c("crawl.fetches")),
        ("crawlkit.render_passes", c("crawl.render_passes")),
        ("crawlkit.detector_runs", c("crawl.detector_runs")),
        ("crawlkit.psrs", c("crawl.psrs")),
        ("crawlkit.allocs", crawl.allocs),
        ("crawlkit.alloc_bytes", crawl.bytes),
        ("simweb.js_compiles", c("simweb.js_compile")),
        ("simweb.js_cache_hits", c("simweb.js_cache_hit")),
        (
            "simweb.js_vm_steps",
            crawl.work[WorkKind::JsVmSteps as usize],
        ),
        ("searchsim.queries", c("engine.serp_queries")),
        (
            "searchsim.postings_walked",
            serp.work[WorkKind::PostingsWalked as usize],
        ),
        (
            "searchsim.heap_pushes",
            serp.work[WorkKind::SerpHeapPushes as usize],
        ),
        ("searchsim.client_queries", client.queries),
        ("searchsim.first_touch_queries", client.first_touch),
        ("orderlab.sample_attempts", c("orders.sample_attempts")),
        ("orderlab.samples", c("orders.samples")),
        ("orderlab.awstats_probes", c("pipeline.awstats_probes")),
        ("orderlab.awstats_reports", c("pipeline.awstats_reports")),
        (
            "attribution.pool_stores",
            attribution.pool_domains.len() as u64,
        ),
        ("attribution.features", attribution.dict.len() as u64),
        ("attribution.labeled", attribution.labeled_count as u64),
        (
            "attribution.oracle_queries",
            attribution.oracle_queries as u64,
        ),
        ("analysis.rows_scanned", c("analysis.rows_scanned")),
        ("state.checkpoint_bytes", checkpoint_bytes),
    ];
    if let Some((allocs, bytes)) = attribution_allocs {
        counts.push(("attribution.allocs", allocs));
        counts.push(("attribution.alloc_bytes", bytes));
    }
    counts
}

/// The [`DETERMINISTIC`] subset of `counts` for this workload.
fn deterministic(plan: &Plan, counts: Vec<(&'static str, u64)>) -> Vec<(&'static str, u64)> {
    counts
        .into_iter()
        .filter(|(name, _)| DETERMINISTIC.contains(name))
        .filter(|(name, _)| !(plan.live() && *name == "searchsim.postings_walked"))
        .collect()
}

/// Compares the names two count lists share.
fn same_counts(a: &[(&str, u64)], b: &[(&str, u64)]) -> Result<(), String> {
    let diffs: Vec<String> = a
        .iter()
        .filter_map(|(name, va)| {
            let (_, vb) = b.iter().find(|(n, _)| n == name)?;
            (va != vb).then(|| format!("{name} {va} vs {vb}"))
        })
        .collect();
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(diffs.join(", "))
    }
}

/// Checks `counts` against those an earlier invocation of this same
/// benchmark binary recorded for the same workload and seed, then adds
/// any new names to the record.
fn check_record(plan: &Plan, dir: &Path, counts: &[(&'static str, u64)]) -> Result<(), String> {
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .map_err(|e| format!("reading the benchmark binary: {e}"))?;
    let path = dir.join("determinism").join(format!(
        "{}-seed{}-{:016x}.txt",
        plan.workload.name(),
        plan.cfg.scenario.seed,
        ss_types::snapshot::fnv1a64(&exe)
    ));
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    let mut record: Vec<(String, u64)> = text
        .lines()
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_owned(), value.parse().ok()?))
        })
        .collect();
    let earlier: Vec<(&str, u64)> = record.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    same_counts(&earlier, counts).map_err(|e| format!("counts differ from an earlier run: {e}"))?;
    for (name, value) in counts {
        if !record.iter().any(|(n, _)| n == name) {
            record.push(((*name).to_owned(), *value));
        }
    }
    let body: String = record.iter().map(|(n, v)| format!("{n} {v}\n")).collect();
    let tmp = path.with_extension("tmp");
    std::fs::create_dir_all(dir.join("determinism"))
        .and_then(|()| std::fs::write(&tmp, body))
        .and_then(|()| std::fs::rename(&tmp, &path))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The per-layer metrics of a traced run.
fn layer_metrics(
    t: &Traced,
    client: &ClientReport,
    counts: &[(&'static str, u64)],
    coverage: f64,
    overhead: f64,
) -> Vec<Metric> {
    let s = &t.spans;
    let count = |name: &str| {
        counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v as f64)
    };
    let ratio = |hits: f64, total: f64| if total > 0.0 { hits / total } else { 0.0 };
    let mut walk = client.walk_ns.clone();
    walk.sort_unstable();
    let mut hit = client.hit_ns.clone();
    hit.sort_unstable();
    let js = count("simweb.js_cache_hits");
    let mut metrics = vec![
        Metric::new("ecosim.build_s", s.total_s("ecosim.build"), "s"),
        Metric::new("ecosim.warmup_s", s.total_s("ecosim.warmup"), "s"),
        Metric::new("ecosim.tick_s", s.total_s("ecosim.tick"), "s"),
        Metric::new(
            "crawlkit.select_terms_s",
            s.total_s("crawlkit.select_terms"),
            "s",
        ),
        Metric::new("crawlkit.crawl_s", s.total_s("crawlkit.crawl"), "s"),
        Metric::new("crawlkit.day_max_s", s.max_s("crawlkit.crawl"), "s"),
        Metric::new(
            "simweb.js_cache_hit_ratio",
            ratio(js, js + count("simweb.js_compiles")),
            "ratio",
        ),
        Metric::new(
            "searchsim.cache_hit_ratio",
            ratio(
                t.obs.counter_total("engine.serp_cache_hits") as f64,
                count("searchsim.queries"),
            ),
            "ratio",
        ),
        Metric::new("searchsim.walk_p99_us", quantile_us(&walk, 0.99), "us"),
        Metric::new("searchsim.hit_p50_us", quantile_us(&hit, 0.50), "us"),
        Metric::new("searchsim.hit_p99_us", quantile_us(&hit, 0.99), "us"),
        Metric::new("searchsim.client_wait_s", client.wait_s, "s"),
        Metric::new("searchsim.publish_s", s.total_s("searchsim.publish"), "s"),
        Metric::new("orderlab.pairs_s", s.total_s("orderlab.pairs"), "s"),
        Metric::new("orderlab.awstats_s", s.total_s("orderlab.awstats"), "s"),
        Metric::new("orderlab.supplier_s", s.total_s("orderlab.supplier"), "s"),
        Metric::new(
            "attribution.attribute_s",
            s.total_s("attribution.attribute"),
            "s",
        ),
        Metric::new("analysis.scan_s", s.total_s("analysis.scan"), "s"),
        Metric::new("state.encode_s", s.total_s("state.encode"), "s"),
        Metric::new("state.decode_s", s.total_s("state.decode"), "s"),
        Metric::new("state.restore_s", s.total_s("state.restore"), "s"),
        Metric::new("trace.coverage", coverage, "ratio"),
        Metric::new("trace.overhead", overhead, "ratio"),
    ];
    for &(name, value) in counts {
        let unit = if name.ends_with("bytes") {
            "bytes"
        } else {
            "count"
        };
        metrics.push(Metric::new(name, value as f64, unit));
    }
    metrics
}
