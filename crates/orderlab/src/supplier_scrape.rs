//! Scraping the supplier's shipping records (§4.5).
//!
//! The portal shows a scrolling list of recent orders plus a bulk lookup
//! taking 20 order numbers per query. The scraper reads the recent list to
//! find the high end of the order-number space, then walks backwards in
//! 20-number chunks until lookups run dry, reconstructing the ledger —
//! the paper collected 279K records this way over nine months of orders.

use std::collections::HashMap;

use ss_types::{SimDate, Url};
use ss_web::http::{Fetcher, Request, UserAgent};
use ss_web::pagegen::supplier::{parse_records, records_in, ShipRecord, ShipStatus};
use ss_web::Document;

/// The scraped ledger with aggregates.
#[derive(Debug, Clone)]
pub struct SupplierDataset {
    /// All recovered records, ascending by order number.
    pub records: Vec<ShipRecord>,
    /// Lookup queries issued.
    pub queries: usize,
}

impl SupplierDataset {
    /// Counts per delivery status.
    pub fn status_counts(&self) -> HashMap<ShipStatus, usize> {
        let mut out = HashMap::new();
        for r in &self.records {
            *out.entry(r.status).or_insert(0) += 1;
        }
        out
    }

    /// Counts per destination country, descending.
    pub fn country_counts(&self) -> Vec<(String, usize)> {
        let mut map: HashMap<&str, usize> = HashMap::new();
        for r in &self.records {
            *map.entry(r.country.as_str()).or_insert(0) += 1;
        }
        let mut out: Vec<(String, usize)> =
            map.into_iter().map(|(k, v)| (k.to_owned(), v)).collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Share of records whose destination is in `countries`.
    pub fn share_of(&self, countries: &[&str]) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let hit = self
            .records
            .iter()
            .filter(|r| countries.contains(&r.country.as_str()))
            .count();
        hit as f64 / self.records.len() as f64
    }

    /// Records dated within `[from, to]`.
    pub fn in_window(&self, from: SimDate, to: SimDate) -> usize {
        self.records
            .iter()
            .filter(|r| r.date >= from && r.date <= to)
            .count()
    }
}

/// Reads the portal's recent list to find the highest visible order number.
pub fn probe_max_order(web: &impl Fetcher, portal: &str) -> Option<u64> {
    let host = ss_types::DomainName::parse(portal).ok()?;
    let (resp, _) = web.fetch(&Request {
        url: Url::root(host),
        user_agent: UserAgent::Browser,
        referrer: None,
    });
    if resp.status != 200 {
        return None;
    }
    parse_records(&resp.body)
        .into_iter()
        .map(|r| r.order_no)
        .max()
}

/// Walks the order-number space backwards from `max_order`, 20 ids per
/// lookup, stopping after `dry_limit` consecutive all-missing chunks.
pub fn scrape(
    web: &impl Fetcher,
    portal: &str,
    max_order: u64,
    dry_limit: usize,
) -> SupplierDataset {
    let mut records = Vec::new();
    let mut queries = 0usize;
    let mut dry = 0usize;
    let mut hi = max_order + 1;
    let Ok(host) = ss_types::DomainName::parse(portal) else {
        return SupplierDataset { records, queries };
    };
    while dry < dry_limit && hi > 0 {
        let lo = hi.saturating_sub(20);
        let ids: Vec<String> = (lo..hi).map(|o| o.to_string()).collect();
        let url = Url::new(host.clone(), "/track", &format!("orders={}", ids.join(",")));
        let (resp, _) = web.fetch(&Request {
            url,
            user_agent: UserAgent::Browser,
            referrer: None,
        });
        queries += 1;
        let page = Document::parse(&resp.body);
        let found = if resp.status == 200 {
            records_in(&page)
        } else {
            Vec::new()
        };
        // The page also reports misses; an all-missing chunk counts as dry.
        let missing = page
            .find_all("li")
            .into_iter()
            .filter(|li| li.attr("class") == Some("missing"))
            .count();
        if found.is_empty() && missing >= (hi - lo) as usize {
            dry += 1;
        } else if !found.is_empty() {
            dry = 0;
        }
        records.extend(found);
        hi = lo;
    }
    records.sort_by_key(|r| r.order_no);
    records.dedup_by_key(|r| r.order_no);
    SupplierDataset { records, queries }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_eco::{ScenarioConfig, World};
    use ss_types::StoreId;

    fn world_with_supplier() -> (World, String) {
        let mut w = World::build(ScenarioConfig::tiny(41)).unwrap();
        // Hand-feed a burst of fulfillments so the ledger is non-trivial
        // even before traffic warms up.
        w.supplier
            .fulfill(StoreId(0), SimDate::from_day_index(10), 137);
        let portal = w.domains.get(w.supplier_domain).name.as_str().to_owned();
        (w, portal)
    }

    #[test]
    fn scrape_recovers_the_full_ledger() {
        let (w, portal) = world_with_supplier();
        let truth = w.supplier.records.len();
        let max = probe_max_order(&w, &portal).unwrap();
        let ds = scrape(&w, &portal, max, 3);
        assert_eq!(ds.records.len(), truth, "scrape missed records");
        assert!(ds.queries >= truth / 20);
        // Ascending and unique.
        for pair in ds.records.windows(2) {
            assert!(pair[0].order_no < pair[1].order_no);
        }
    }

    #[test]
    fn aggregates_compute() {
        let (w, portal) = world_with_supplier();
        let max = probe_max_order(&w, &portal).unwrap();
        let ds = scrape(&w, &portal, max, 3);
        let status = ds.status_counts();
        assert_eq!(status.values().sum::<usize>(), ds.records.len());
        let countries = ds.country_counts();
        assert!(!countries.is_empty());
        let share = ds.share_of(&[
            "United States",
            "Japan",
            "Australia",
            "United Kingdom",
            "Germany",
            "France",
            "Italy",
        ]);
        assert!(share > 0.5, "top-market share {share}");
    }

    #[test]
    fn scrape_handles_missing_portal() {
        let w = World::build(ScenarioConfig::tiny(43)).unwrap();
        assert_eq!(probe_max_order(&w, "not-the-portal.com"), None);
        let ds = scrape(&w, "not-the-portal.com", 100, 2);
        assert!(ds.records.is_empty());
    }
}
