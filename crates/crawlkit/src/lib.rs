//! # ss-crawl
//!
//! The paper's measurement apparatus, rebuilt: everything in §4.1 that
//! turns daily search results into a PSR dataset.
//!
//! * [`terms`] — the two term-selection methodologies of §4.1.1
//!   (KEY-doorway keyword extraction via `site:` queries, and recursive
//!   Google-Suggest expansion);
//! * [`dagger`] — the Dagger cloaking detector: fetch each page as
//!   Googlebot and as a search-referred browser, follow redirects, diff the
//!   results semantically, and render to catch JS redirects;
//! * [`vangogh`] — the VanGogh renderer: full JS execution, flagging
//!   iframes that visually occupy the page (width/height 100% or >800px);
//! * [`recheck`] — reverification by digest: a doorway's last check, reused
//!   when a recheck fetches exactly the inputs it analysed;
//! * [`stores`] — storefront detection via cookie fingerprints and
//!   cart/checkout substrings (§4.1.3), plus seizure-notice parsing with
//!   court-document extraction (§5.3);
//! * [`db`] — the compact crawl database (interned strings; a paper-scale
//!   crawl holds millions of PSR records);
//! * [`crawler`] — the daily crawl orchestrator with churn-based workload
//!   trimming, exactly as §4.1.2 describes.
//!
//! **Honesty rule:** this crate observes the world only through
//! `ss_web::Web::fetch` and the public search interface. It never reads
//! ground-truth fields of the simulation; campaign attribution comes from
//! `ss-ml`, not from the simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crawler;
pub mod dagger;
pub mod db;
pub mod recheck;
pub mod stores;
pub mod terms;
pub mod vangogh;

pub use crawler::{Crawler, CrawlerConfig};
pub use db::CrawlDb;
