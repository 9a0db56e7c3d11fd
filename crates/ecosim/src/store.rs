//! Storefront semantics: the monthly AWStats bucket, and tests pinning
//! what the paper's techniques rely on a store doing — monotone order
//! numbers (§4.3.1), domain rotation through a backup pool (§5.2.3) and
//! per-month traffic logs (§4.4). The store rows and their mutators live
//! in [`crate::tables::StoreTable`].

use ss_types::SimDate;

/// Monthly AWStats bucket for one store (what its public report exposes).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MonthStats {
    /// `(year, month)` of the bucket.
    pub year_month: (i32, u32),
    /// Visits this month.
    pub visits: u64,
    /// HTML pages served this month.
    pub pages: u64,
    /// Referrer host → visits (doorways and the search engine).
    pub referrers: Vec<(String, u64)>,
    /// Visits with no referrer.
    pub direct_visits: u64,
    /// Per-day `(day, visits, pages)` rows — AWStats' "days of month".
    pub daily: Vec<(SimDate, u64, u64)>,
}

impl MonthStats {
    /// Adds a referrer visit.
    pub fn add_referrer(&mut self, host: &str, n: u64) {
        match self.referrers.iter_mut().find(|(h, _)| h == host) {
            Some((_, c)) => *c += n,
            None => self.referrers.push((host.to_owned(), n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use ss_types::{BrandId, CampaignId, DomainId, StoreId};

    use super::*;
    use crate::tables::{NewStore, StoreTable};

    fn store() -> (StoreTable, StoreId) {
        let mut t = StoreTable::default();
        let id = t.push(NewStore {
            campaign: CampaignId(0),
            name: "Coco Vip Bags".into(),
            brands: vec![BrandId(0)],
            locale: "us".into(),
            domain: DomainId(10),
            backup_pool: vec![DomainId(11), DomainId(12)],
            order_counter: 5_000,
            merchant_id: "m-1".into(),
            awstats_public: true,
            created: SimDate::EPOCH,
            seed: 9,
        });
        (t, id)
    }

    #[test]
    fn order_numbers_are_monotone() {
        let (mut t, id) = store();
        let a = t.allocate_order(id);
        t.add_orders(id, 10);
        let b = t.allocate_order(id);
        assert_eq!(a, 5_001);
        assert_eq!(b, 5_012);
        assert!(b > a);
        assert_eq!(t.row(id).orders_accrued, 12);
    }

    #[test]
    fn rotation_walks_the_backup_pool() {
        let (mut t, id) = store();
        let (old, new) = t.rotate_domain(id, SimDate::from_day_index(100)).unwrap();
        assert_eq!((old, new), (DomainId(10), DomainId(11)));
        assert_eq!(t.row(id).current_domain, DomainId(11));
        let (_, new2) = t.rotate_domain(id, SimDate::from_day_index(150)).unwrap();
        assert_eq!(new2, DomainId(12));
        assert!(
            t.rotate_domain(id, SimDate::from_day_index(160)).is_none(),
            "pool exhausted"
        );
        assert_eq!(
            t.row(id).domain_history,
            [
                (SimDate::EPOCH, DomainId(10)),
                (SimDate::from_day_index(100), DomainId(11)),
                (SimDate::from_day_index(150), DomainId(12)),
            ]
        );
        assert!(t.row(id).backup_pool.is_empty());
    }

    #[test]
    fn traffic_buckets_by_month() {
        let (mut t, id) = store();
        let jan = SimDate::from_ymd(2014, 1, 30).unwrap();
        let feb = SimDate::from_ymd(2014, 2, 1).unwrap();
        t.record_traffic(id, jan, 100, 560, &[("google.com".into(), 40)], 60);
        t.record_traffic(id, jan + 1, 50, 280, &[("google.com".into(), 10)], 40);
        t.record_traffic(id, feb, 70, 392, &[("door.com".into(), 30)], 40);
        let s = t.row(id);
        assert_eq!(s.months.len(), 2);
        let jan_stats = s.month_for(jan).unwrap();
        assert_eq!(jan_stats.visits, 150);
        assert_eq!(jan_stats.pages, 840);
        assert_eq!(jan_stats.direct_visits, 100);
        assert_eq!(jan_stats.referrers, vec![("google.com".to_owned(), 50)]);
        assert_eq!(jan_stats.daily, vec![(jan, 100, 560), (jan + 1, 50, 280)]);
        assert_eq!(s.month_for(feb).unwrap().visits, 70);
    }
}
