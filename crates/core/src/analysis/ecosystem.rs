//! Ecosystem characterization: Table 1 and Table 2 (§5.1).

use std::collections::HashSet;

use ss_stats::{peak_range, render};
use ss_types::SimDate;

use crate::analysis::scan::StudyScan;
use crate::pipeline::StudyOutput;

/// Measured Table 1 row (per vertical).
#[derive(Debug, Clone, serde::Serialize)]
pub struct VerticalRow {
    /// Vertical name.
    pub name: String,
    /// PSR observations in the vertical.
    pub psrs: u64,
    /// Unique doorway domains seen in the vertical's PSRs.
    pub doorways: u64,
    /// Unique detected stores reached from the vertical.
    pub stores: u64,
    /// Distinct attributed campaigns observed in the vertical.
    pub campaigns: u64,
    /// Paper-reported values for the same row (for comparison).
    pub paper: (u32, u32, u32, u32),
}

/// Measured Table 1 (plus unique totals).
#[derive(Debug, Clone, serde::Serialize)]
pub struct Table1 {
    /// Per-vertical rows in Table 1 order.
    pub rows: Vec<VerticalRow>,
    /// Unique totals across verticals (doorways/stores dedup'd globally).
    pub total: (u64, u64, u64, u64),
    /// Fraction of PSRs attributed to a known campaign (paper: 58%).
    pub attributed_psr_fraction: f64,
    /// Fraction of detected stores attributed (paper: ~11%).
    pub attributed_store_fraction: f64,
}

/// Computes Table 1 from the shared one-pass scan plus attribution.
pub fn table1(out: &StudyOutput) -> Table1 {
    let db = &out.crawler.db;
    let mut rows = Vec::new();
    let mut all_doorways: HashSet<u32> = HashSet::new();
    let mut all_stores: HashSet<u32> = HashSet::new();
    let mut all_campaigns: HashSet<usize> = HashSet::new();
    let mut total_psrs = 0u64;
    let attributed_psrs: u64 = out.scan.classes.iter().map(|c| c.psrs).sum();

    for (vi, mv) in out.monitored.iter().enumerate() {
        let v = &out.scan.verticals[vi];
        total_psrs += v.psrs;
        all_doorways.extend(&v.doorways);
        all_stores.extend(&v.stores);
        all_campaigns.extend(&v.campaigns);
        let spec = out.world.verticals[vi].spec;
        rows.push(VerticalRow {
            name: mv.name.clone(),
            psrs: v.psrs,
            doorways: v.doorways.len() as u64,
            stores: v.stores.len() as u64,
            campaigns: v.campaigns.len() as u64,
            paper: (
                spec.table1.psrs,
                spec.table1.doorways,
                spec.table1.stores,
                spec.table1.campaigns,
            ),
        });
    }

    let attributed_stores = out
        .attribution
        .store_class
        .values()
        .filter(|c| c.is_some())
        .count() as f64;
    let detected_stores = db.detected_stores().count().max(1) as f64;

    Table1 {
        rows,
        total: (
            total_psrs,
            all_doorways.len() as u64,
            all_stores.len() as u64,
            all_campaigns.len() as u64,
        ),
        attributed_psr_fraction: if total_psrs == 0 {
            0.0
        } else {
            attributed_psrs as f64 / total_psrs as f64
        },
        attributed_store_fraction: attributed_stores / detected_stores,
    }
}

impl Table1 {
    /// Markdown rendering with paper columns side by side.
    pub fn to_markdown(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    format!("{} ({})", r.psrs, r.paper.0),
                    format!("{} ({})", r.doorways, r.paper.1),
                    format!("{} ({})", r.stores, r.paper.2),
                    format!("{} ({})", r.campaigns, r.paper.3),
                ]
            })
            .chain(std::iter::once(vec![
                "Total (unique)".to_owned(),
                self.total.0.to_string(),
                self.total.1.to_string(),
                self.total.2.to_string(),
                self.total.3.to_string(),
            ]))
            .collect();
        render::markdown_table(
            &[
                "Vertical",
                "PSRs (paper)",
                "Doorways (paper)",
                "Stores (paper)",
                "Campaigns (paper)",
            ],
            &rows,
        )
    }
}

/// Measured Table 2 row (per campaign).
#[derive(Debug, Clone, serde::Serialize)]
pub struct CampaignRow {
    /// Campaign name.
    pub name: String,
    /// Unique doorway domains attributed to the campaign.
    pub doorways: u64,
    /// Stores attributed to it.
    pub stores: u64,
    /// Brands seen on its store pages.
    pub brands: u64,
    /// Peak poisoning duration (days, 60% mass — §5.1.2).
    pub peak_days: Option<u32>,
    /// Paper values `(doorways, stores, brands, peak_days)` when the
    /// campaign is in the printed table.
    pub paper: Option<(u32, u32, u32, u32)>,
}

/// Measured Table 2.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Table2 {
    /// Per-campaign rows, by descending doorway count.
    pub rows: Vec<CampaignRow>,
    /// Mean peak duration across campaigns with a peak (paper: 51.3 days).
    pub mean_peak_days: f64,
}

/// Computes Table 2 from the shared scan plus attribution.
pub fn table2(out: &StudyOutput) -> Table2 {
    let db = &out.crawler.db;
    let brand_names = ss_types::market::all_brands();
    let n_classes = out.attribution.class_names.len();

    let doorways: Vec<&HashSet<u32>> = out.scan.classes.iter().map(|c| &c.doorways).collect();
    let mut stores: Vec<HashSet<u32>> = vec![HashSet::new(); n_classes];
    let mut brands: Vec<HashSet<&str>> = vec![HashSet::new(); n_classes];
    for (id, class) in &out.attribution.store_class {
        let Some(c) = class else { continue };
        stores[*c].insert(*id);
        if let Some(info) = db.store_info.get(id) {
            for b in &brand_names {
                if info.html.contains(b) {
                    brands[*c].insert(b);
                }
            }
        }
    }

    let peaks = class_peak_days(&out.scan, out.window);
    let mut rows = Vec::new();
    for c in 0..n_classes {
        if doorways[c].is_empty() && stores[c].is_empty() {
            continue; // campaign never observed in this run
        }
        let name = out.attribution.class_names[c].clone();
        let paper = ss_types::market::NAMED_CAMPAIGNS
            .iter()
            .find(|s| s.name == name)
            .map(|s| (s.doorways, s.stores, s.brands, s.peak_days));
        rows.push(CampaignRow {
            name,
            doorways: doorways[c].len() as u64,
            stores: stores[c].len() as u64,
            brands: brands[c].len() as u64,
            peak_days: peaks[c],
            paper,
        });
    }
    rows.sort_by(|a, b| b.doorways.cmp(&a.doorways).then(a.name.cmp(&b.name)));
    Table2 {
        rows,
        mean_peak_days: mean_peak_days(&peaks),
    }
}

/// Peak poisoning duration of every attribution class, indexed by class:
/// the shortest run of days in `window` holding 60% of the class's PSRs
/// (§5.1.2), `None` for a class with no PSRs.
pub fn class_peak_days(scan: &StudyScan, window: (SimDate, SimDate)) -> Vec<Option<u32>> {
    scan.classes
        .iter()
        .map(|c| peak_range(&super::dense_window(window, &c.daily), 0.6).map(|p| p.days))
        .collect()
}

/// Mean of the peak durations that exist (the Table 2 mean; paper: 51.3
/// days), 0 when no class has one. Sums in class order, so Table 2 and
/// the calibration gate read the same bits.
pub fn mean_peak_days(peaks: &[Option<u32>]) -> f64 {
    let (sum, n) = peaks
        .iter()
        .flatten()
        .fold((0.0, 0usize), |(sum, n), &d| (sum + f64::from(d), n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

impl Table2 {
    /// Markdown rendering.
    pub fn to_markdown(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                let paper = r
                    .paper
                    .map(|(d, s, b, p)| format!("{d}/{s}/{b}/{p}"))
                    .unwrap_or_else(|| "—".into());
                vec![
                    r.name.clone(),
                    r.doorways.to_string(),
                    r.stores.to_string(),
                    r.brands.to_string(),
                    r.peak_days
                        .map(|d| d.to_string())
                        .unwrap_or_else(|| "—".into()),
                    paper,
                ]
            })
            .collect();
        render::markdown_table(
            &[
                "Campaign",
                "Doorways",
                "Stores",
                "Brands",
                "Peak (days)",
                "Paper d/s/b/p",
            ],
            &rows,
        )
    }
}

/// Distribution skew check (§5.1): the largest campaigns should account
/// for the majority of attributed PSRs. Returns the attributed-PSR share
/// of the top-k campaigns.
pub fn top_k_psr_share(out: &StudyOutput, k: usize) -> f64 {
    class_top_k_share(&out.scan, k)
}

/// The attributed-PSR share of the `k` largest classes, straight off the
/// scan's per-class counts; 0 when nothing was attributed.
pub fn class_top_k_share(scan: &StudyScan, k: usize) -> f64 {
    let total: u64 = scan.classes.iter().map(|c| c.psrs).sum();
    if total == 0 {
        return 0.0;
    }
    let mut counts: Vec<u64> = scan
        .classes
        .iter()
        .map(|c| c.psrs)
        .filter(|&n| n > 0)
        .collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    counts.iter().take(k).sum::<u64>() as f64 / total as f64
}

/// Average observed daily churn across the crawl (paper: 1.84%), from the
/// scan's per-day doorway sets plus first-sighting days.
pub fn mean_daily_churn(out: &StudyOutput) -> f64 {
    let (start, end) = out.window;
    let db = &out.crawler.db;
    let mut sum = 0.0;
    let mut n = 0usize;
    // Skip the first day (everything is new on day one).
    for day in SimDate::range_inclusive(start + 1, end) {
        if let Some(seen) = out.scan.day_domains.get(&day).filter(|s| !s.is_empty()) {
            let new = seen
                .iter()
                .filter(|d| {
                    db.doorway_info
                        .get(d)
                        .map(|i| i.first_seen == day)
                        .unwrap_or(false)
                })
                .count();
            sum += new as f64 / seen.len() as f64;
        }
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}
