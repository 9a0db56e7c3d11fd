//! The run manifest: a machine-readable record of what a study run did.
//!
//! [`RunManifest`] captures the provenance (config hash, seed, window),
//! the per-stage wall-clock timings, the headline observables (PSRs,
//! seizure notices, estimated orders per campaign), and a per-day
//! progress trace. [`RunManifest::write`] renders it, together with the
//! full metric registry, to `reports/run_manifest.json`; CI uploads that
//! file as the run's artifact, and the golden test pins the deterministic
//! half (see `tests/golden_manifest.rs`).
//!
//! Determinism: everything in the manifest except the `stage_timings` and
//! `cost_timings` sections and the `elapsed_ms` fields is a pure function
//! of the configuration — two runs with the same config produce identical
//! headline and metric sections at any crawl thread count (the crawl
//! merges per-worker registries in vertical order; see the `ss-obs` crate
//! docs). Every wall-clock field is read from the registry's wall frames.

use std::collections::HashMap;

use serde::{Serialize as _, Value};
use ss_obs::Registry;
use ss_orders::purchasepair::OrderSampler;
use ss_orders::transactions::Transaction;

use crate::attribution::Attribution;
use crate::pipeline::StudyConfig;
use ss_crawl::db::CrawlDb;

/// Wall-clock timing of one pipeline stage, aggregated across all days.
#[derive(Debug, Clone, serde::Serialize)]
pub struct StageTiming {
    /// Stage name, as registered in the schedule.
    pub stage: String,
    /// Number of days the stage ran.
    pub days: u64,
    /// Total wall-clock milliseconds across the run.
    pub total_ms: f64,
    /// Exclusive milliseconds (children's frames carved out).
    pub self_ms: f64,
    /// Slowest single day, milliseconds.
    pub max_ms: f64,
}

/// Cumulative progress at the end of one study day.
#[derive(Debug, Clone, serde::Serialize)]
pub struct DayRecord {
    /// Day index.
    pub day: u32,
    /// PSR observations so far.
    pub psrs: u64,
    /// Purchase-pair test orders created so far.
    pub test_orders: u64,
    /// Real purchases completed so far.
    pub purchases: u64,
    /// Wall-clock milliseconds this day took (its `study.day` frame).
    pub elapsed_ms: f64,
}

/// Purchase-pair order estimate for one attributed campaign.
#[derive(Debug, Clone, serde::Serialize)]
pub struct CampaignOrders {
    /// Classifier campaign name, or `"unattributed"`.
    pub campaign: String,
    /// Monitored stores attributed to the campaign with ≥ 2 samples.
    pub stores_sampled: u64,
    /// Sum over those stores of (last − first) order numbers: an upper
    /// bound on orders placed during monitoring (§4.3.1).
    pub estimated_orders: u64,
}

/// A declared target band for one calibration observable: the run is
/// `ok` inside `[ok_lo, ok_hi]`, `fail` outside `[fail_lo, fail_hi]`,
/// and `warn` in between. Declared per preset in the study config and
/// evaluated into the manifest's `calibration` section, so CI catches
/// silent drift instead of humans eyeballing EXPERIMENTS.md.
#[derive(Debug, Clone, serde::Serialize)]
pub struct CalibrationTarget {
    /// Observable name (`total_psrs`, `top5_campaign_share`,
    /// `mean_peak_days`).
    pub observable: String,
    /// The paper's reported value, for reference.
    pub paper: f64,
    /// Lower edge of the `ok` band (inclusive).
    pub ok_lo: f64,
    /// Upper edge of the `ok` band (inclusive).
    pub ok_hi: f64,
    /// Lower edge of the tolerated band; below this the entry fails.
    pub fail_lo: f64,
    /// Upper edge of the tolerated band; above this the entry fails.
    pub fail_hi: f64,
}

impl CalibrationTarget {
    /// Convenience constructor.
    pub fn new(
        observable: &str,
        paper: f64,
        ok: (f64, f64),
        fail: (f64, f64),
    ) -> CalibrationTarget {
        CalibrationTarget {
            observable: observable.to_owned(),
            paper,
            ok_lo: ok.0,
            ok_hi: ok.1,
            fail_lo: fail.0,
            fail_hi: fail.1,
        }
    }
}

/// One evaluated calibration row.
#[derive(Debug, Clone, serde::Serialize)]
pub struct CalibrationEntry {
    /// Observable name.
    pub observable: String,
    /// The paper's reported value.
    pub paper: f64,
    /// What this run measured (`None` when the observable is unknown).
    pub measured: Option<f64>,
    /// `ok`, `warn`, or `fail`.
    pub status: String,
}

/// Evaluates declared targets against measured observables. An unknown
/// observable name evaluates to `warn` (a band referencing nothing is a
/// config bug worth surfacing, not a drift failure).
pub fn evaluate_calibration(
    targets: &[CalibrationTarget],
    measured: &[(&'static str, f64)],
) -> Vec<CalibrationEntry> {
    targets
        .iter()
        .map(|t| {
            let value = measured
                .iter()
                .find(|(name, _)| *name == t.observable)
                .map(|(_, v)| *v);
            let status = match value {
                None => "warn",
                Some(v) if v >= t.ok_lo && v <= t.ok_hi => "ok",
                Some(v) if v >= t.fail_lo && v <= t.fail_hi => "warn",
                Some(_) => "fail",
            };
            CalibrationEntry {
                observable: t.observable.clone(),
                paper: t.paper,
                measured: value,
                status: status.to_owned(),
            }
        })
        .collect()
}

/// Assembles the Chrome trace-event document: the registry's whole
/// wall-frame timeline on one lane, where frames nest by time, and a
/// cumulative PSR counter sampled at the end of each `study.day` frame.
/// `days` may begin with days restored from a checkpoint, which another
/// process ran: the frames close only for this process's days, so they
/// pair with the last records. Load the written file at
/// `ui.perfetto.dev`.
pub fn chrome_trace(obs: &Registry, days: &[DayRecord]) -> ss_obs::ChromeTrace {
    let timeline = obs.timeline();
    let mut trace = ss_obs::ChromeTrace::new();
    trace.name_process(1, "study");
    trace.name_thread(1, 1, "wall frames");
    for s in &timeline {
        trace.complete(s.path, "wall", 1, 1, s.start_us, s.dur_us, Vec::new());
    }
    let day_ends: Vec<u64> = timeline
        .iter()
        .filter(|s| s.path == "study.day")
        .map(|s| s.start_us + s.dur_us)
        .collect();
    let ran = &days[days.len().saturating_sub(day_ends.len())..];
    for (end_us, d) in day_ends.into_iter().zip(ran) {
        trace.counter("psrs", 1, end_us, vec![("total".into(), d.psrs as f64)]);
    }
    trace
}

/// One event kind's slice of the committed event trail: total count plus
/// per-day rows with an order-sensitive content hash. Deterministic — the
/// trail is produced on the sequential commit path — so `repro diff` can
/// pinpoint the first divergent day per kind between two runs.
#[derive(Debug, Clone, serde::Serialize)]
pub struct TrailKindSummary {
    /// Stable event-kind tag (`WorldEvent::kind`).
    pub kind: String,
    /// Events of this kind across the run.
    pub count: u64,
    /// Per-day rows, in day order.
    pub days: Vec<TrailDayRow>,
}

/// One day's row in a [`TrailKindSummary`].
#[derive(Debug, Clone, serde::Serialize)]
pub struct TrailDayRow {
    /// Day index.
    pub day: u32,
    /// Events of the kind committed that day.
    pub count: u64,
    /// FNV-1a over the day's event debug renderings, in commit order
    /// (hex) — equal hashes mean identical event payloads.
    pub hash: String,
}

/// Buckets the world's committed event trail by kind and day. The hash
/// folds each event's `Debug` rendering in commit order, so two runs
/// agree on a row iff they committed the same events in the same order.
pub fn trail_summary(trail: &[ss_eco::TrailEvent]) -> Vec<TrailKindSummary> {
    use std::collections::BTreeMap;
    // Per-kind accumulator: total count plus per-day (count, FNV state).
    type KindAcc = (u64, BTreeMap<u32, (u64, u64)>);
    let mut kinds: BTreeMap<&'static str, KindAcc> = BTreeMap::new();
    for ev in trail {
        let (count, days) = kinds.entry(ev.event.kind()).or_default();
        *count += 1;
        let row = days
            .entry(ev.day.day_index())
            .or_insert((0, 0xcbf2_9ce4_8422_2325));
        row.0 += 1;
        for b in format!("{:?}", ev.event).bytes() {
            row.1 ^= u64::from(b);
            row.1 = row.1.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    kinds
        .into_iter()
        .map(|(kind, (count, days))| TrailKindSummary {
            kind: kind.to_owned(),
            count,
            days: days
                .into_iter()
                .map(|(day, (count, hash))| TrailDayRow {
                    day,
                    count,
                    hash: format!("{hash:016x}"),
                })
                .collect(),
        })
        .collect()
}

/// The run's headline observables — the numbers the paper leads with.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Headline {
    /// Total PSR observations.
    pub psrs: u64,
    /// Unique doorway domains confirmed cloaked.
    pub cloaked_doorways: u64,
    /// Unique detected store domains.
    pub detected_stores: u64,
    /// Store domains where a seizure notice was observed.
    pub seizure_notices: u64,
    /// Purchase-pair test orders created.
    pub test_orders: u64,
    /// Real purchases completed.
    pub purchases: u64,
    /// Per-campaign order estimates, sorted by campaign name.
    pub campaign_orders: Vec<CampaignOrders>,
}

/// The full manifest of one study run.
#[derive(Debug, Clone)]
pub struct RunManifest {
    /// FNV-1a hash of the study configuration's debug rendering.
    pub config_hash: u64,
    /// Scenario seed.
    pub seed: u64,
    /// Crawl window `(first, last)` day indices, inclusive.
    pub window: (u32, u32),
    /// Per-stage wall-clock timings (from the `stage.*` wall frames).
    pub stage_timings: Vec<StageTiming>,
    /// Headline observables.
    pub headline: Headline,
    /// Calibration drift gate: declared target bands evaluated against
    /// this run's headline observables.
    pub calibration: Vec<CalibrationEntry>,
    /// Per-day progress trace.
    pub days: Vec<DayRecord>,
    /// Committed event trail bucketed by kind and day (empty when the
    /// trace plane was off). Deterministic; `repro diff` compares it.
    pub event_trail: Vec<TrailKindSummary>,
}

/// FNV-1a over the configuration's `Debug` rendering: cheap, stable
/// within a build, and sensitive to every knob.
pub fn config_hash(cfg: &StudyConfig) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{cfg:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Sums each monitored store's purchase-pair span (last − first order
/// number) into its attributed campaign, `"unattributed"` when the
/// classifier abstained or never saw the domain. Sorted by campaign name.
pub fn campaign_orders(
    sampler: &OrderSampler,
    db: &CrawlDb,
    attribution: &Attribution,
) -> Vec<CampaignOrders> {
    let mut by_campaign: HashMap<String, (u64, u64)> = HashMap::new();
    let mut domains: Vec<&String> = sampler.stores.keys().collect();
    domains.sort();
    for domain in domains {
        let store = &sampler.stores[domain];
        let (Some(first), Some(last)) = (store.samples.first(), store.samples.last()) else {
            continue;
        };
        if store.samples.len() < 2 {
            continue;
        }
        let campaign = db
            .domains
            .get(domain)
            .and_then(|id| attribution.store_class.get(&id).copied().flatten())
            .and_then(|ci| attribution.class_names.get(ci).cloned())
            .unwrap_or_else(|| "unattributed".to_owned());
        let entry = by_campaign.entry(campaign).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += last.order_number.saturating_sub(first.order_number);
    }
    let mut rows: Vec<CampaignOrders> = by_campaign
        .into_iter()
        .map(
            |(campaign, (stores_sampled, estimated_orders))| CampaignOrders {
                campaign,
                stores_sampled,
                estimated_orders,
            },
        )
        .collect();
    rows.sort_by(|a, b| a.campaign.cmp(&b.campaign));
    rows
}

/// Assembles the headline section from the run's datasets.
pub fn headline(
    db: &CrawlDb,
    sampler: &OrderSampler,
    transactions: &[Transaction],
    attribution: &Attribution,
) -> Headline {
    Headline {
        psrs: db.psrs.len() as u64,
        cloaked_doorways: db.poisoned_domains().count() as u64,
        detected_stores: db.detected_stores().count() as u64,
        seizure_notices: db
            .store_info
            .values()
            .filter(|s| s.seizure.is_some())
            .count() as u64,
        test_orders: sampler.orders_created as u64,
        purchases: transactions.len() as u64,
        campaign_orders: campaign_orders(sampler, db, attribution),
    }
}

/// Reads the `stage.*` wall rows from the registry, in the schedule's
/// execution order: days from the row's closes, total and self time
/// from the row, and the slowest day from the timeline.
pub fn stage_timings(obs: &Registry, stage_names: &[&'static str]) -> Vec<StageTiming> {
    let ns_ms = |ns: u64| ns as f64 / 1_000_000.0;
    let timeline = obs.timeline();
    stage_names
        .iter()
        .filter_map(|name| {
            let path = format!("stage.{name}");
            let s = obs.cost_stats(&path)?;
            let max_us = timeline
                .iter()
                .filter(|slice| slice.path == path)
                .map(|slice| slice.dur_us)
                .max()
                .unwrap_or(0);
            Some(StageTiming {
                stage: (*name).to_owned(),
                days: s.enters,
                total_ms: ns_ms(s.total_ns),
                self_ms: ns_ms(s.self_ns),
                max_ms: max_us as f64 / 1_000.0,
            })
        })
        .collect()
}

impl RunManifest {
    /// Renders the manifest plus the registry's metric and cost sections
    /// as one JSON document.
    pub fn to_value(&self, obs: &Registry) -> Value {
        Value::Map(vec![
            (
                "config_hash".into(),
                Value::Str(format!("{:016x}", self.config_hash)),
            ),
            ("seed".into(), Value::UInt(self.seed)),
            (
                "window".into(),
                Value::Seq(vec![
                    Value::UInt(u64::from(self.window.0)),
                    Value::UInt(u64::from(self.window.1)),
                ]),
            ),
            ("stage_timings".into(), self.stage_timings.serialize()),
            ("headline".into(), self.headline.serialize()),
            ("calibration".into(), self.calibration.serialize()),
            ("days".into(), self.days.serialize()),
            ("event_trail".into(), self.event_trail.serialize()),
            ("metrics".into(), obs.metrics_value()),
            // Deterministic phase costs and their wall-clock companion
            // (the wall rows included) — kept as separate sections so
            // goldens and `repro diff` can pin the former and ignore the
            // latter.
            ("cost_profile".into(), obs.costs_value()),
            ("cost_timings".into(), obs.cost_timings_value()),
        ])
    }

    /// Writes the manifest (with metrics) to `path`, creating parent
    /// directories. Errors are reported, not fatal: telemetry must never
    /// kill a finished run.
    pub fn write(&self, obs: &Registry, path: &str) {
        let rendered = match serde_json::to_string_pretty(&self.to_value(obs)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("run manifest: render failed: {e:?}");
                return;
            }
        };
        if let Some(parent) = std::path::Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(parent);
            }
        }
        if let Err(e) = std::fs::write(path, rendered + "\n") {
            eprintln!("run manifest: write to {path} failed: {e}");
        }
    }

    /// A human-readable summary table for terminal output.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "run manifest  seed={}  config={:016x}  days {}..={}\n",
            self.seed, self.config_hash, self.window.0, self.window.1
        ));
        out.push_str(&format!(
            "  {:<16} {:>6} {:>12} {:>12} {:>10}\n",
            "stage", "days", "total_ms", "self_ms", "max_ms"
        ));
        for t in &self.stage_timings {
            out.push_str(&format!(
                "  {:<16} {:>6} {:>12.1} {:>12.1} {:>10.2}\n",
                t.stage, t.days, t.total_ms, t.self_ms, t.max_ms
            ));
        }
        let h = &self.headline;
        out.push_str(&format!(
            "  psrs={}  cloaked_doorways={}  stores={}  seizure_notices={}  test_orders={}  purchases={}\n",
            h.psrs, h.cloaked_doorways, h.detected_stores, h.seizure_notices, h.test_orders, h.purchases
        ));
        for c in &h.campaign_orders {
            out.push_str(&format!(
                "    {:<24} stores={:<4} est_orders={}\n",
                c.campaign, c.stores_sampled, c.estimated_orders
            ));
        }
        for c in &self.calibration {
            out.push_str(&format!(
                "  calibration {:<24} {:>6}  measured={}  paper={}\n",
                c.observable,
                c.status,
                c.measured
                    .map(|v| format!("{v:.3}"))
                    .unwrap_or_else(|| "—".into()),
                c.paper
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::StudyConfig;

    #[test]
    fn config_hash_is_stable_and_knob_sensitive() {
        let a = StudyConfig::fast_test(7);
        let b = StudyConfig::fast_test(7);
        assert_eq!(config_hash(&a), config_hash(&b));
        let mut c = StudyConfig::fast_test(7);
        c.monitor_store_cap += 1;
        assert_ne!(config_hash(&a), config_hash(&c));
    }

    #[test]
    fn summary_table_lists_stages_and_headline() {
        let m = RunManifest {
            config_hash: 0xabc,
            seed: 9,
            window: (1, 3),
            stage_timings: vec![StageTiming {
                stage: "crawl".into(),
                days: 3,
                total_ms: 12.0,
                self_ms: 12.0,
                max_ms: 5.0,
            }],
            headline: Headline {
                psrs: 10,
                cloaked_doorways: 4,
                detected_stores: 3,
                seizure_notices: 1,
                test_orders: 5,
                purchases: 2,
                campaign_orders: vec![CampaignOrders {
                    campaign: "Uggs".into(),
                    stores_sampled: 2,
                    estimated_orders: 77,
                }],
            },
            calibration: vec![CalibrationEntry {
                observable: "total_psrs".into(),
                paper: 357_0000.0,
                measured: Some(10.0),
                status: "warn".into(),
            }],
            days: Vec::new(),
            event_trail: Vec::new(),
        };
        let table = m.summary_table();
        assert!(table.contains("crawl"));
        assert!(table.contains("psrs=10"));
        assert!(table.contains("Uggs"));
        assert!(table.contains("est_orders=77"));
        assert!(table.contains("calibration total_psrs"));
    }

    #[test]
    fn calibration_bands_classify_ok_warn_fail() {
        let targets = vec![
            CalibrationTarget::new("a", 50.0, (40.0, 60.0), (20.0, 80.0)),
            CalibrationTarget::new("b", 50.0, (40.0, 60.0), (20.0, 80.0)),
            CalibrationTarget::new("c", 50.0, (40.0, 60.0), (20.0, 80.0)),
            CalibrationTarget::new("missing", 1.0, (0.0, 2.0), (0.0, 3.0)),
        ];
        let measured = [("a", 55.0), ("b", 70.0), ("c", 99.0)];
        let rows = evaluate_calibration(&targets, &measured);
        let statuses: Vec<&str> = rows.iter().map(|r| r.status.as_str()).collect();
        assert_eq!(statuses, vec!["ok", "warn", "fail", "warn"]);
        assert_eq!(rows[0].measured, Some(55.0));
        assert_eq!(rows[3].measured, None);
    }

    fn day(day: u32, psrs: u64) -> DayRecord {
        DayRecord {
            day,
            psrs,
            test_orders: 0,
            purchases: 0,
            elapsed_ms: 1.5,
        }
    }

    #[test]
    fn chrome_trace_renders_slices_spans_and_counters() {
        let obs = Registry::new();
        {
            let _day = obs.span("study.day");
            drop(obs.span("stage.crawl"));
        }
        let trace = chrome_trace(&obs, &[day(3, 7)]);
        let json = trace.to_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"study.day\""));
        assert!(json.contains("\"stage.crawl\""));
        assert!(json.contains("\"psrs\""));
    }

    /// A resumed run's records begin with days another process ran; only
    /// the days with a `study.day` frame here get a PSR sample, each at
    /// the end of its frame.
    #[test]
    fn restored_days_get_no_psr_sample() {
        let obs = Registry::new();
        drop(obs.span("study.warmup"));
        drop(obs.span("study.day"));
        let trace = chrome_trace(&obs, &[day(3, 7), day(4, 11)]);
        let Value::Map(root) = trace.to_value() else {
            panic!("trace is a map")
        };
        let Value::Seq(events) = &root[0].1 else {
            panic!("traceEvents is a list")
        };
        let field = |e: &Value, key: &str| match e {
            Value::Map(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone()),
            _ => None,
        };
        let samples: Vec<&Value> = events
            .iter()
            .filter(|e| field(e, "ph") == Some(Value::Str("C".into())))
            .collect();
        assert_eq!(samples.len(), 1, "one sample for the one day run here");
        let args = field(samples[0], "args").expect("counter args");
        assert_eq!(field(&args, "total"), Some(Value::Float(11.0)));
        let day_slice = obs
            .timeline()
            .into_iter()
            .find(|s| s.path == "study.day")
            .expect("day slice");
        assert_eq!(
            field(samples[0], "ts"),
            Some(Value::UInt(day_slice.start_us + day_slice.dur_us))
        );
    }
}
