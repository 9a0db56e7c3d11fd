//! The one-pass aggregation layer against ground truth: the fused scan
//! must equal a hand-written per-module recomputation (the pre-refactor
//! shape) on randomly seeded small worlds, stay bit-identical across
//! scan thread counts, and report exactly the pass counts it performs.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;
use search_seizure::analysis::scan::StudyScan;
use search_seizure::{Study, StudyConfig, StudyOutput};
use ss_obs::Registry;
use ss_stats::DailySeries;
use ss_types::SimDate;

fn study(seed: u64) -> StudyOutput {
    Study::new(StudyConfig::fast_test(seed))
        .run()
        .expect("study runs")
}

/// Recomputes every scan product with direct row loops (one independent
/// pass per module, exactly how the analyses worked before the shared
/// scan) and asserts the fused result matches.
fn assert_scan_matches_reference(out: &StudyOutput) {
    let db = &out.crawler.db;
    let scan = &out.scan;
    let (start, end) = out.window;
    let sparse = || DailySeries::new(start, end);

    // Counts module: totals and the root-only label policy's gap.
    assert_eq!(scan.rows, db.psrs.len() as u64);
    let labeled = db.psrs.iter().filter(|p| p.labeled).count() as u64;
    assert_eq!(scan.labeled_psrs, labeled);
    let labeled_domains: HashSet<u32> = db
        .psrs
        .iter()
        .filter(|p| p.labeled)
        .map(|p| p.domain)
        .collect();
    let first_label_day: HashMap<u32, SimDate> = labeled_domains
        .iter()
        .filter_map(|d| {
            db.doorway_info
                .get(d)
                .and_then(|i| i.label_seen)
                .map(|(f, _)| (*d, f))
        })
        .collect();
    let missed = db
        .psrs
        .iter()
        .filter(|p| {
            !p.labeled
                && first_label_day
                    .get(&p.domain)
                    .map(|f| p.day >= *f)
                    .unwrap_or(false)
        })
        .count() as u64;
    assert_eq!(scan.label_missed, missed);

    // Class module: per-campaign counts, doorway sets, daily series.
    for (c, cls) in scan.classes.iter().enumerate() {
        let of_class = || {
            db.psrs
                .iter()
                .filter(move |p| out.attribution.psr_class(p) == Some(c))
        };
        assert_eq!(cls.psrs, of_class().count() as u64, "class {c} psrs");
        let doorways: HashSet<u32> = of_class().map(|p| p.domain).collect();
        assert_eq!(cls.doorways, doorways, "class {c} doorways");
        let (mut daily, mut top10, mut lab) = (sparse(), sparse(), sparse());
        for p in of_class() {
            daily.add(p.day, 1.0);
            if p.rank <= 10 {
                top10.add(p.day, 1.0);
            }
            if p.labeled {
                lab.add(p.day, 1.0);
            }
        }
        assert_eq!(cls.daily, daily, "class {c} daily");
        assert_eq!(cls.daily_top10, top10, "class {c} top10");
        assert_eq!(cls.labeled, lab, "class {c} labeled");
    }

    // Vertical module: Table-1 sets and the Figure-2 series.
    let seizure_day: HashMap<u32, SimDate> = db
        .store_info
        .iter()
        .filter_map(|(id, s)| s.seizure.as_ref().map(|(d, _)| (*id, *d)))
        .collect();
    assert_eq!(scan.verticals.len(), out.monitored.len());
    for (vi, v) in scan.verticals.iter().enumerate() {
        let of_vert = || db.psrs.iter().filter(move |p| p.vertical == vi as u16);
        assert_eq!(v.psrs, of_vert().count() as u64, "vertical {vi} psrs");
        let doorways: HashSet<u32> = of_vert().map(|p| p.domain).collect();
        assert_eq!(v.doorways, doorways, "vertical {vi} doorways");
        let stores: HashSet<u32> = of_vert()
            .filter_map(|p| p.landing)
            .filter(|l| db.store_info.get(l).map(|s| s.is_store).unwrap_or(false))
            .collect();
        assert_eq!(v.stores, stores, "vertical {vi} stores");
        let campaigns: HashSet<usize> = of_vert()
            .filter_map(|p| out.attribution.psr_class(&p))
            .collect();
        assert_eq!(v.campaigns, campaigns, "vertical {vi} campaigns");
        let (mut poisoned, mut penalized) = (sparse(), sparse());
        let mut per_class: HashMap<Option<usize>, DailySeries> = HashMap::new();
        for p in of_vert() {
            poisoned.add(p.day, 1.0);
            let seized = p
                .landing
                .and_then(|l| seizure_day.get(&l))
                .map(|d| *d <= p.day)
                .unwrap_or(false);
            if p.labeled || seized {
                penalized.add(p.day, 1.0);
            }
            per_class
                .entry(out.attribution.psr_class(&p))
                .or_insert_with(sparse)
                .add(p.day, 1.0);
        }
        assert_eq!(v.poisoned, poisoned, "vertical {vi} poisoned");
        assert_eq!(v.penalized, penalized, "vertical {vi} penalized");
        assert_eq!(v.per_class, per_class, "vertical {vi} per-class");
    }

    // Landing module: per-store series and the (store, vertical) pairs.
    let mut landings: HashMap<u32, (DailySeries, DailySeries)> = HashMap::new();
    let mut landing_verticals: HashSet<(u32, u16)> = HashSet::new();
    for p in &db.psrs {
        let Some(l) = p.landing else { continue };
        landing_verticals.insert((l, p.vertical));
        let entry = landings.entry(l).or_insert_with(|| (sparse(), sparse()));
        entry.0.add(p.day, 1.0);
        if p.rank <= 10 {
            entry.1.add(p.day, 1.0);
        }
    }
    assert_eq!(scan.landing_verticals, landing_verticals);
    assert_eq!(scan.landings.len(), landings.len());
    for (l, (daily, top10)) in landings {
        let got = &scan.landings[&l];
        assert_eq!(got.daily, daily, "landing {l} daily");
        assert_eq!(got.daily_top10, top10, "landing {l} top10");
    }

    // Churn module: per-day doorway sets.
    let mut day_domains: HashMap<SimDate, HashSet<u32>> = HashMap::new();
    for p in &db.psrs {
        day_domains.entry(p.day).or_default().insert(p.domain);
    }
    assert_eq!(scan.day_domains, day_domains);
}

// Property test over randomly seeded worlds. Full studies are expensive,
// so the case count is capped by hand instead of using the `proptest!`
// driver's fixed budget — a few random worlds is the point here, not case
// volume: every case cross-checks ~20 scan products in full.
#[test]
fn fused_scan_equals_per_module_recomputation() {
    let mut rng = TestRng::for_test(concat!(
        module_path!(),
        "::fused_scan_equals_per_module_recomputation"
    ));
    for _ in 0..3 {
        let seed = rng.below(1000);
        assert_scan_matches_reference(&study(seed));
    }
}

#[test]
fn scan_is_bit_identical_across_thread_counts() {
    let out = study(101);
    for threads in [2usize, 8] {
        let obs = Registry::new();
        let scan = StudyScan::compute(
            &out.crawler.db,
            &out.attribution,
            out.monitored.len(),
            out.window,
            threads,
            &obs,
        );
        assert_eq!(
            scan, out.scan,
            "scan diverged at {threads} analysis threads"
        );
    }
}

#[test]
fn scan_counts_exactly_its_passes() {
    let out = study(101);
    // The study itself performed exactly one corpus pass.
    assert_eq!(out.metrics.counter_total("analysis.passes"), 1);
    assert_eq!(
        out.metrics.counter_total("analysis.rows_scanned"),
        out.crawler.db.psrs.len() as u64
    );

    // Fused recompute: one more pass, regardless of thread count.
    let obs = Registry::new();
    let _ = StudyScan::compute(
        &out.crawler.db,
        &out.attribution,
        out.monitored.len(),
        out.window,
        4,
        &obs,
    );
    assert_eq!(obs.counter_total("analysis.passes"), 1);
}
