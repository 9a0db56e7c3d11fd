//! SEO-campaign activity schedules, and tests pinning how a campaign's
//! juice follows them, when its doorways are live and which doorways a
//! re-point moves. The campaign and doorway rows live in
//! [`crate::tables::CampaignTable`].

use ss_types::SimDate;

/// An SEO activity window with an intensity level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivityWindow {
    /// First day.
    pub from: SimDate,
    /// Last day, inclusive.
    pub to: SimDate,
    /// Juice injected per live doorway domain during the window. Higher
    /// juice reaches higher ranks; ~0.28 parks results in the top-100 tail
    /// without cracking the top 10 (the MOONKIS March pattern, §5.2.1).
    pub juice: f64,
}

impl ActivityWindow {
    /// Whether `day` falls inside the window.
    pub fn contains(self, day: SimDate) -> bool {
        self.from <= day && day <= self.to
    }
}

#[cfg(test)]
mod tests {
    use ss_types::{CampaignId, DomainId, StoreId, TermId, VerticalId};
    use ss_web::cloak::CloakMode;

    use super::*;
    use crate::tables::{CampaignTable, NewCampaign, NewDoorway};

    fn day(n: u32) -> SimDate {
        SimDate::from_day_index(n)
    }

    fn campaign() -> CampaignTable {
        let mut t = CampaignTable::default();
        let id = t.push(NewCampaign {
            name: "KEY".into(),
            classified: true,
            verticals: vec![VerticalId(0)],
            cloak: CloakMode::Redirect,
            windows: vec![
                ActivityWindow {
                    from: day(131),
                    to: day(163),
                    juice: 0.6,
                },
                ActivityWindow {
                    from: day(200),
                    to: day(230),
                    juice: 0.28,
                },
            ],
            reaction_days: 7,
            supplier_partner: false,
        });
        t.push_doorway(id, doorway(1, 0));
        t
    }

    fn doorway(domain: u32, store: u32) -> NewDoorway {
        NewDoorway {
            domain: DomainId(domain),
            terms: vec![TermId(0)],
            vertical: VerticalId(0),
            target_store: StoreId(store),
            live_from: day(100),
            live_until: day(300),
        }
    }

    #[test]
    fn juice_follows_windows() {
        let t = campaign();
        let c = t.row(CampaignId(0));
        assert_eq!(c.juice_on(day(130)), 0.0);
        assert_eq!(c.juice_on(day(140)), 0.6);
        assert_eq!(c.juice_on(day(180)), 0.0);
        assert_eq!(c.juice_on(day(210)), 0.28);
        assert!(c.is_active(day(131)));
        assert!(!c.is_active(day(164)));
    }

    #[test]
    fn doorway_liveness_is_half_open() {
        let t = campaign();
        let d = t.row(CampaignId(0)).doorways.at(0);
        assert!(!d.is_live(day(99)));
        assert!(d.is_live(day(100)));
        assert!(d.is_live(day(299)));
        assert!(!d.is_live(day(300)));
    }

    #[test]
    fn repoint_moves_only_matching_doorways() {
        let mut t = campaign();
        let own = CampaignId(0);
        t.push_doorway(own, doorway(2, 1));
        // A second campaign funnelling to the same store is not re-pointed.
        let other = t.push(NewCampaign {
            name: "OTHER".into(),
            classified: false,
            verticals: vec![VerticalId(0)],
            cloak: CloakMode::Redirect,
            windows: Vec::new(),
            reaction_days: 15,
            supplier_partner: false,
        });
        t.push_doorway(other, doorway(3, 0));

        let moved = t.repoint_doorways(own, StoreId(0), StoreId(5));
        assert_eq!(moved, 1);
        let fleet = t.row(own).doorways;
        assert_eq!(fleet.at(0).target_store, StoreId(5));
        assert_eq!(fleet.at(1).target_store, StoreId(1));
        assert_eq!(t.row(other).doorways.at(0).target_store, StoreId(0));
        let to_new = t.iter().flat_map(|c| c.doorways.iter());
        assert_eq!(to_new.filter(|d| d.target_store == StoreId(5)).count(), 1);
    }
}
