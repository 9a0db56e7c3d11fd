//! End-to-end integration: run the complete study on a small world and
//! check that every dataset the paper collected exists and is coherent.

use search_seizure::analysis::{ecosystem, figures};
use search_seizure::manifest::CalibrationTarget;
use search_seizure::{Study, StudyConfig};

fn study() -> search_seizure::StudyOutput {
    Study::new(StudyConfig::fast_test(101))
        .run()
        .expect("study runs")
}

#[test]
fn tables_and_figures_regenerate() {
    let out = study();

    // Table 1: rows per monitored vertical, non-trivial counts.
    let t1 = ecosystem::table1(&out);
    assert_eq!(t1.rows.len(), out.monitored.len());
    assert!(t1.total.0 > 0, "no PSRs counted");
    assert!(t1.total.1 > 0, "no doorways counted");
    assert!(t1.total.2 > 0, "no stores counted");
    assert!(t1.attributed_psr_fraction > 0.0 && t1.attributed_psr_fraction <= 1.0);
    let md = t1.to_markdown();
    assert!(md.contains("| Vertical |"));

    // Table 2: campaigns with doorway counts and peaks.
    let t2 = ecosystem::table2(&out);
    assert!(!t2.rows.is_empty(), "no campaigns in Table 2");
    assert!(t2.rows.windows(2).all(|w| w[0].doorways >= w[1].doorways));
    assert!(t2.mean_peak_days >= 0.0);

    // Figure 2 for the first vertical.
    let f2 = figures::fig2(&out, 0, 4);
    assert!(f2.poisoned_pct.min_max().is_some());
    let csv = f2.to_csv();
    assert!(csv.lines().count() > 2);
    assert!(csv.starts_with("day,poisoned_pct"));

    // Figure 3: one row per vertical, envelopes ordered.
    let (rows, series) = figures::fig3(&out);
    assert_eq!(rows.len(), out.monitored.len());
    for r in &rows {
        assert!(r.top10.0 <= r.top10.1);
        assert!(r.top100.0 <= r.top100.1);
    }
    let text = figures::fig3_text(&rows, &series, 24);
    assert!(text.contains(&rows[0].name));
}

#[test]
fn ecosystem_is_skewed_and_churn_is_low() {
    let out = study();
    // §5.1: a handful of large campaigns should dominate attributed PSRs.
    let top5 = ecosystem::top_k_psr_share(&out, 5);
    let top_all = ecosystem::top_k_psr_share(&out, usize::MAX);
    assert!((top_all - 1.0).abs() < 1e-9);
    assert!(top5 > 0.5, "top-5 campaigns only carry {top5} of PSRs");

    // §4.1.2: daily churn settles low after warm-up.
    let churn = ecosystem::mean_daily_churn(&out);
    assert!(churn < 0.4, "mean churn {churn}");
}

#[test]
fn order_side_is_consistent_with_search_side() {
    let out = study();
    // Stores under order monitoring were all detected by the crawler.
    for domain in out.sampler.stores.keys() {
        assert!(
            out.crawler.db.domains.get(domain).is_some(),
            "monitored store {domain} never seen by the crawler"
        );
    }
    // Sampled order numbers are monotone per store.
    for mon in out.sampler.stores.values() {
        for pair in mon.samples.windows(2) {
            assert!(
                pair[1].order_number > pair[0].order_number,
                "order numbers must increase at {}",
                mon.domain
            );
        }
    }
}

#[test]
fn study_output_is_identical_across_crawl_thread_counts() {
    // The parallel crawl fan-out must not leak scheduling into results:
    // the whole study — PSRs, orders, purchases, attribution — has to be
    // identical whether verticals are crawled serially or on 2 or 8 threads.
    let run = |threads: usize| {
        let mut cfg = StudyConfig::fast_test(101);
        cfg.crawler.threads = threads;
        Study::new(cfg).run().expect("study runs")
    };
    let base = run(1);
    for threads in [2usize, 8] {
        let out = run(threads);
        assert_eq!(
            out.crawler.db.psrs, base.crawler.db.psrs,
            "PSR log diverged at {threads} threads"
        );
        assert_eq!(
            out.sampler.orders_created, base.sampler.orders_created,
            "test-order count diverged at {threads} threads"
        );
        assert_eq!(
            out.transactions.len(),
            base.transactions.len(),
            "purchase count diverged at {threads} threads"
        );
        assert_eq!(
            out.attribution.store_class.len(),
            base.attribution.store_class.len(),
            "attribution size diverged at {threads} threads"
        );
        // Telemetry rides the same determinism rule: per-worker crawl
        // registries merge in vertical order, so the deterministic half of
        // the study's registry (counters + histograms, wall time excluded)
        // renders byte-identically at any thread count.
        assert_eq!(
            out.metrics.metrics_json(),
            base.metrics.metrics_json(),
            "metric registry diverged at {threads} threads"
        );
        assert_eq!(
            out.manifest.headline.psrs, base.manifest.headline.psrs,
            "manifest headline diverged at {threads} threads"
        );
    }
}

#[test]
fn study_output_is_identical_across_tick_thread_counts() {
    // Same rule for the simulation plane: tick-stage planners draw from
    // keyed RNG streams and replay in index order, so the whole world —
    // event log, store counters, traffic, eco.* metrics — must be
    // bit-identical whether stages plan serially or on 2 or 8 workers.
    let run = |threads: usize| {
        let mut cfg = StudyConfig::fast_test(101);
        cfg.tick_threads = threads;
        Study::new(cfg).run().expect("study runs")
    };
    let base = run(1);
    let base_fp = base.world.state_fingerprint();
    for threads in [2usize, 8] {
        let out = run(threads);
        assert_eq!(
            out.world.events.all(),
            base.world.events.all(),
            "ground-truth event log diverged at {threads} tick threads"
        );
        assert_eq!(
            out.world.state_fingerprint(),
            base_fp,
            "world state diverged at {threads} tick threads"
        );
        assert_eq!(
            out.crawler.db.psrs, base.crawler.db.psrs,
            "PSR log diverged at {threads} tick threads"
        );
        assert_eq!(
            out.metrics.metrics_json(),
            base.metrics.metrics_json(),
            "metric registry diverged at {threads} tick threads"
        );
        assert_eq!(
            out.manifest.headline.psrs, base.manifest.headline.psrs,
            "manifest headline diverged at {threads} tick threads"
        );
    }
}

#[test]
fn set_threads_drives_all_planes() {
    let mut cfg = StudyConfig::fast_test(7);
    cfg.set_threads(4);
    assert_eq!(cfg.crawler.threads, 4);
    assert_eq!(cfg.tick_threads, 4);
    assert_eq!(cfg.analysis_threads, 4);
    cfg.set_threads(0); // clamped: 0 means "serial", never a dead pool
    assert_eq!(cfg.crawler.threads, 1);
    assert_eq!(cfg.tick_threads, 1);
    assert_eq!(cfg.analysis_threads, 1);
}

#[test]
fn telemetry_spans_every_stage_with_a_broad_metric_surface() {
    let study = Study::new(StudyConfig::fast_test(101));
    let stage_names = study.stage_names();
    let out = study.run().expect("study runs");

    // Every scheduled stage ran under its own wall frame, once per study
    // day.
    let study_days = out.window.1.days_since(out.window.0) + 1;
    for name in &stage_names {
        let frame = out
            .metrics
            .cost_stats(&format!("stage.{name}"))
            .unwrap_or_else(|| panic!("no wall row for stage {name}"));
        assert!(frame.wall, "stage {name} row is not a wall row");
        assert_eq!(frame.enters as i64, study_days, "stage {name} close count");
    }
    assert_eq!(out.manifest.stage_timings.len(), stage_names.len());

    // The registry spans all layers: crawl, ecosystem, orders, pipeline —
    // well past the 12-distinct-metric floor.
    let names = out.metrics.metric_names();
    let base_names: std::collections::HashSet<&str> = names
        .iter()
        .map(|n| n.split('{').next().expect("split never empty"))
        .collect();
    assert!(
        base_names.len() >= 12,
        "only {} distinct metrics: {base_names:?}",
        base_names.len()
    );
    for prefix in ["crawl.", "eco.", "orders.", "pipeline."] {
        assert!(
            base_names.iter().any(|n| n.starts_with(prefix)),
            "no {prefix}* metric recorded; have {base_names:?}"
        );
    }

    // Counters agree with the datasets they describe.
    assert_eq!(
        out.metrics.counter_total("crawl.psrs"),
        out.crawler.db.psrs.len() as u64
    );
    assert_eq!(
        out.metrics.counter_total("orders.samples"),
        out.sampler.orders_created as u64
    );
    assert_eq!(
        out.metrics.counter_total("pipeline.purchases"),
        out.transactions.len() as u64
    );

    // The manifest carries the per-day trace and the headline.
    assert_eq!(out.manifest.days.len() as i64, study_days);
    assert_eq!(out.manifest.headline.psrs, out.crawler.db.psrs.len() as u64);
    assert!(out.manifest.days.windows(2).all(|w| w[0].psrs <= w[1].psrs));
}

#[test]
fn supplier_ledger_matches_world_ledger() {
    let out = study();
    let ds = out.supplier.as_ref().expect("supplier scraped");
    assert_eq!(
        ds.records.len(),
        out.world.supplier.records.len(),
        "scrape should recover the full ledger"
    );
}

/// The calibration gate reads the same statistics as the reports: the
/// manifest's measured skew and mean peak equal the skew check and
/// Table 2's mean bit for bit.
#[test]
fn calibration_observables_match_the_reports_bit_for_bit() {
    let mut cfg = StudyConfig::fast_test(101);
    cfg.calibration = ["top5_campaign_share", "mean_peak_days"]
        .map(|name| CalibrationTarget::new(name, 0.0, (0.0, 1e9), (0.0, 1e9)))
        .to_vec();
    let out = Study::new(cfg).run().expect("study runs");
    let measured = |name: &str| {
        out.manifest
            .calibration
            .iter()
            .find(|c| c.observable == name)
            .and_then(|c| c.measured)
            .unwrap_or_else(|| panic!("{name} not measured"))
    };
    let top5 = ecosystem::top_k_psr_share(&out, 5);
    let mean_peak = ecosystem::table2(&out).mean_peak_days;
    assert!(top5 > 0.0 && mean_peak > 0.0, "{top5} {mean_peak}");
    assert_eq!(measured("top5_campaign_share").to_bits(), top5.to_bits());
    assert_eq!(measured("mean_peak_days").to_bits(), mean_peak.to_bits());
}
