//! The perf trajectory: an append-only log of profiled runs and the
//! regression gate over it.
//!
//! `paper_smoke` appends one entry per run to `BENCH_paper.json`; the
//! file is a versioned envelope `{"schema_version": 2, "runs": [...]}`.
//! Files written before the envelope existed (one bare profile object)
//! migrate on load: the object becomes `runs[0]`.
//!
//! `repro bench-report <base> <current>` compares the **latest** run of
//! two logs. Deterministic cost metrics — phase costs, work units, the
//! compile/query counters, headline observables — are gated: an increase
//! beyond the metric's tolerance (default 2%) is a regression and, with
//! `--deny`, a non-zero exit. Wall-clock metrics (`*_wall_s`, qps,
//! checkpoint timings) and the peak resident set are reported for context
//! but never gated — the machine's speed and memory are not part of the
//! contract.

use serde::Value;

/// Current envelope schema version.
pub const SCHEMA_VERSION: u64 = 2;

/// Default relative tolerance for gated metrics.
pub const DEFAULT_TOLERANCE: f64 = 0.02;

/// Per-metric tolerance overrides, matched by longest prefix. Work-unit
/// and allocation totals jitter zero across identical builds, but byte
/// totals shift slightly with allocator-visible layout changes, so they
/// get a little more headroom.
const TOLERANCES: &[(&str, f64)] = &[("costs.", 0.02), ("costs_bytes.", 0.05)];

/// Metric name prefixes that depend on the machine (wall clock, and the
/// resident set, which follows the allocator and the kernel): reported,
/// never gated.
const WALL_PREFIXES: &[&str] = &[
    "build_wall_s",
    "total_wall_s",
    "serve_qps",
    "checkpoint_save_s",
    "checkpoint_load_s",
    "peak_rss_mib",
];

fn lookup<'v>(map: &'v Value, key: &str) -> Option<&'v Value> {
    match map {
        Value::Map(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn numeric(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Normalizes a parsed `BENCH_paper.json` document to the v2 envelope.
/// A bare profile object (the pre-envelope format) becomes a one-run
/// log; an existing envelope passes through with its runs intact.
pub fn normalize_log(doc: Value) -> Value {
    let is_envelope = lookup(&doc, "schema_version").is_some() && lookup(&doc, "runs").is_some();
    let runs = if is_envelope {
        match lookup(&doc, "runs") {
            Some(Value::Seq(rs)) => rs.clone(),
            _ => Vec::new(),
        }
    } else {
        vec![doc]
    };
    Value::Map(vec![
        ("schema_version".into(), Value::UInt(SCHEMA_VERSION)),
        ("runs".into(), Value::Seq(runs)),
    ])
}

/// A fresh v2 envelope with no runs.
pub fn empty_log() -> Value {
    Value::Map(vec![
        ("schema_version".into(), Value::UInt(SCHEMA_VERSION)),
        ("runs".into(), Value::Seq(Vec::new())),
    ])
}

/// Number of run entries in a normalized log.
pub fn run_count(log: &Value) -> usize {
    match lookup(log, "runs") {
        Some(Value::Seq(runs)) => runs.len(),
        _ => 0,
    }
}

/// Appends one run entry to a normalized log (in place).
pub fn append_run(log: &mut Value, run: Value) {
    if let Some(Value::Seq(runs)) = match log {
        Value::Map(m) => m.iter_mut().find(|(k, _)| k == "runs").map(|(_, v)| v),
        _ => None,
    } {
        runs.push(run);
    }
}

/// The latest run entry of a normalized log (or of a bare profile).
pub fn latest_run(log: &Value) -> Option<&Value> {
    match lookup(log, "runs") {
        Some(Value::Seq(runs)) => runs.last(),
        _ => {
            // A bare profile object is its own single run.
            if matches!(log, Value::Map(_)) {
                Some(log)
            } else {
                None
            }
        }
    }
}

/// One metric's comparison between a base and a current run.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Flattened metric name (e.g. `headline.psrs`,
    /// `costs.crawl/render.allocs`, `total_wall_s`).
    pub name: String,
    /// Base-side value, `None` when the metric is new.
    pub base: Option<f64>,
    /// Current-side value, `None` when the metric disappeared.
    pub current: Option<f64>,
    /// Relative change `(current - base) / base`; `None` when either
    /// side is missing or the base is zero with a nonzero current.
    pub rel: Option<f64>,
    /// Whether the metric participates in the regression gate.
    pub gated: bool,
    /// The tolerance the gate applied.
    pub tolerance: f64,
    /// Gated, increased beyond tolerance.
    pub regressed: bool,
}

impl std::fmt::Display for MetricDelta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let side = |v: Option<f64>| v.map(|x| format!("{x}")).unwrap_or_else(|| "—".into());
        write!(
            f,
            "{:<44} {:>14} -> {:>14}",
            self.name,
            side(self.base),
            side(self.current)
        )?;
        if let Some(r) = self.rel {
            write!(f, "  {:+.2}%", r * 100.0)?;
        }
        if self.regressed {
            write!(f, "  REGRESSION (tolerance {:.0}%)", self.tolerance * 100.0)?;
        } else if !self.gated {
            write!(f, "  (wall-clock, not gated)")?;
        }
        Ok(())
    }
}

fn tolerance_for(name: &str) -> f64 {
    TOLERANCES
        .iter()
        .filter(|(prefix, _)| name.starts_with(prefix))
        .max_by_key(|(prefix, _)| prefix.len())
        .map(|(_, t)| *t)
        .unwrap_or(DEFAULT_TOLERANCE)
}

fn is_wall(name: &str) -> bool {
    WALL_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// Flattens one run entry into `(name, value)` metric rows: every
/// numeric headline field, the deterministic counters, the per-phase
/// cost columns (`costs.<path>.<column>` with bytes split out under
/// `costs_bytes.` for its wider tolerance), and the wall-clock scalars.
/// Stage timings are skipped entirely — the per-stage wall table has its
/// own manifest section and gates nothing.
pub fn flatten_metrics(run: &Value) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut push = |name: String, v: f64| out.push((name, v));
    let Value::Map(fields) = run else {
        return out;
    };
    for (key, value) in fields {
        match (key.as_str(), value) {
            ("stage_timings" | "calibration" | "world" | "crawl_window", _) => {}
            // Run parameters, not measurements: comparing a 2-thread entry
            // against a 4-thread baseline must not gate on the knob itself.
            ("seed" | "threads", _) => {}
            ("headline", Value::Map(h)) => {
                for (hk, hv) in h {
                    if let Some(n) = numeric(hv) {
                        push(format!("headline.{hk}"), n);
                    }
                }
            }
            ("costs", Value::Map(paths)) => {
                for (path, row) in paths {
                    let Value::Map(cols) = row else { continue };
                    for (col, cv) in cols {
                        match (col.as_str(), cv) {
                            ("work", Value::Map(work)) => {
                                for (wk, wv) in work {
                                    if let Some(n) = numeric(wv) {
                                        push(format!("costs.{path}.work.{wk}"), n);
                                    }
                                }
                            }
                            ("bytes", _) => {
                                if let Some(n) = numeric(cv) {
                                    push(format!("costs_bytes.{path}"), n);
                                }
                            }
                            (_, _) => {
                                if let Some(n) = numeric(cv) {
                                    push(format!("costs.{path}.{col}"), n);
                                }
                            }
                        }
                    }
                }
            }
            (_, v) => {
                if let Some(n) = numeric(v) {
                    push(key.clone(), n);
                }
            }
        }
    }
    out
}

/// Compares the latest runs of two logs. Returns every metric present
/// on either side, in base-side order with new metrics appended; the
/// caller decides what to print and whether `regressed` rows are fatal.
pub fn compare(base: &Value, current: &Value) -> Vec<MetricDelta> {
    let flat = |log: &Value| latest_run(log).map(flatten_metrics).unwrap_or_default();
    let b = flat(base);
    let c = flat(current);
    let mut names: Vec<&str> = b.iter().map(|(n, _)| n.as_str()).collect();
    for (n, _) in &c {
        if !names.contains(&n.as_str()) {
            names.push(n);
        }
    }
    names
        .into_iter()
        .map(|name| {
            let base_v = b.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            let cur_v = c.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            let rel = match (base_v, cur_v) {
                (Some(bv), Some(cv)) if bv != 0.0 => Some((cv - bv) / bv),
                (Some(bv), Some(cv)) if bv == 0.0 && cv == 0.0 => Some(0.0),
                _ => None,
            };
            let gated = !is_wall(name);
            let tolerance = tolerance_for(name);
            let regressed = gated
                && match rel {
                    Some(r) => r > tolerance,
                    // A gated metric appearing from zero (or from
                    // nothing) with a nonzero value is a regression
                    // only for cost rows; new headline fields are
                    // schema growth, not cost growth.
                    None => name.starts_with("costs") && cur_v.unwrap_or(0.0) > 0.0,
                };
            MetricDelta {
                name: name.to_owned(),
                base: base_v,
                current: cur_v,
                rel,
                gated,
                tolerance,
                regressed,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest_diff::parse_json;

    fn run(allocs: u64, wall: f64) -> String {
        format!(
            r#"{{
                "preset": "small", "seed": 2014,
                "headline": {{"psrs": 1200, "test_orders": 40}},
                "js_compiles": 62,
                "total_wall_s": {wall},
                "costs": {{
                    "crawl/render": {{"enters": 500, "allocs": {allocs}, "bytes": 4096, "frees": 500,
                                      "work": {{"js_compiles": 62}}}}
                }}
            }}"#
        )
    }

    #[test]
    fn bare_profile_migrates_to_envelope_and_appends() {
        let bare = parse_json(&run(1000, 5.0)).unwrap();
        let mut log = normalize_log(bare);
        match lookup(&log, "schema_version") {
            Some(Value::UInt(v)) => assert_eq!(*v, SCHEMA_VERSION),
            other => panic!("missing schema_version: {other:?}"),
        }
        append_run(&mut log, parse_json(&run(1001, 6.0)).unwrap());
        let Some(Value::Seq(runs)) = lookup(&log, "runs") else {
            panic!("runs missing")
        };
        assert_eq!(runs.len(), 2);
        // latest_run sees the appended entry.
        let latest = latest_run(&log).expect("latest");
        let flat = flatten_metrics(latest);
        assert!(flat.contains(&("costs.crawl/render.allocs".into(), 1001.0)));
        // An already-normalized log round-trips unchanged.
        let renorm = normalize_log(log.clone());
        assert_eq!(renorm, log);
    }

    #[test]
    fn five_percent_cost_regression_is_detected_and_wall_is_not_gated() {
        let base = normalize_log(parse_json(&run(1000, 5.0)).unwrap());
        // +5% allocations, wall clock doubled (machine noise).
        let cur = normalize_log(parse_json(&run(1050, 10.0)).unwrap());
        let deltas = compare(&base, &cur);
        let alloc = deltas
            .iter()
            .find(|d| d.name == "costs.crawl/render.allocs")
            .expect("alloc row");
        assert!(alloc.regressed, "5% > 2% tolerance must gate: {alloc}");
        let wall = deltas
            .iter()
            .find(|d| d.name == "total_wall_s")
            .expect("wall row");
        assert!(!wall.gated && !wall.regressed, "wall is never gated");
        // Identical runs: nothing regresses.
        assert!(compare(&base, &base).iter().all(|d| !d.regressed));
    }

    #[test]
    fn peak_rss_is_reported_but_never_gated() {
        let entry = |rss: f64| {
            normalize_log(
                parse_json(&format!(r#"{{"js_compiles": 62, "peak_rss_mib": {rss}}}"#)).unwrap(),
            )
        };
        let deltas = compare(&entry(300.0), &entry(600.0));
        let rss = deltas
            .iter()
            .find(|d| d.name == "peak_rss_mib")
            .expect("rss row");
        assert!(!rss.gated && !rss.regressed, "peak RSS is never gated");
    }

    #[test]
    fn tolerances_allow_small_drift_and_bytes_get_headroom() {
        let base = normalize_log(parse_json(&run(1000, 5.0)).unwrap());
        let cur = normalize_log(parse_json(&run(1010, 5.0)).unwrap());
        // +1% is inside the 2% default.
        assert!(compare(&base, &cur).iter().all(|d| !d.regressed));
        // Bytes use the wider 5% tolerance.
        assert!((tolerance_for("costs_bytes.crawl/render") - 0.05).abs() < 1e-12);
        assert!((tolerance_for("costs.crawl/render.allocs") - 0.02).abs() < 1e-12);
    }

    #[test]
    fn work_units_flatten_per_kind() {
        let flat = flatten_metrics(&parse_json(&run(7, 1.0)).unwrap());
        assert!(flat.contains(&("costs.crawl/render.work.js_compiles".into(), 62.0)));
        assert!(flat.contains(&("headline.psrs".into(), 1200.0)));
        assert!(flat.contains(&("js_compiles".into(), 62.0)));
    }
}
