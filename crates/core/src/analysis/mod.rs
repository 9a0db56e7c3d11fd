//! One analysis module per family of paper artifacts (§5 + methodology
//! validation). Each function consumes the [`crate::pipeline::StudyOutput`]
//! and returns a structured result carrying both the measured quantities
//! and renderable views (markdown / CSV).

pub mod ecosystem;
pub mod figures;
pub mod interventions;
pub mod scan;
pub mod sidechannel;
pub mod validation;

use ss_types::SimDate;

use ss_stats::DailySeries;

use crate::pipeline::StudyOutput;

/// A dense all-days-zero series over `window`, onto which the scan's
/// sparse per-day counts are folded.
fn dense_window(window: (SimDate, SimDate), sparse: &DailySeries) -> DailySeries {
    let (start, end) = window;
    let mut s = DailySeries::new(start, end);
    for day in SimDate::range_inclusive(start, end) {
        s.set(day, 0.0);
    }
    for (day, v) in sparse.observed() {
        s.add(day, v);
    }
    s
}

/// Daily PSR-count series for one attributed campaign class across the
/// crawl window. `top10_only` restricts to ranks 1–10. Reads the shared
/// one-pass scan — no corpus iteration.
pub fn campaign_psr_series(out: &StudyOutput, class: usize, top10_only: bool) -> DailySeries {
    let c = &out.scan.classes[class];
    dense_window(
        out.window,
        if top10_only { &c.daily_top10 } else { &c.daily },
    )
}

/// Daily PSR-count series for PSRs landing on a specific store domain set.
/// Reads the shared one-pass scan — no corpus iteration.
pub fn landing_psr_series(out: &StudyOutput, landing_ids: &[u32], top10_only: bool) -> DailySeries {
    let (start, end) = out.window;
    let mut s = DailySeries::new(start, end);
    for day in SimDate::range_inclusive(start, end) {
        s.set(day, 0.0);
    }
    for id in landing_ids {
        if let Some(l) = out.scan.landings.get(id) {
            let sparse = if top10_only { &l.daily_top10 } else { &l.daily };
            for (day, v) in sparse.observed() {
                s.add(day, v);
            }
        }
    }
    s
}
