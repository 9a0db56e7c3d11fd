//! Entity-plane gates.
//!
//! 1. **Round-trip properties** — on arbitrary (not just
//!    world-generator-shaped) creation records, pushing a store, campaign
//!    or doorway into its table and reading the row view back gives every
//!    creation field unchanged, including the nested ones (brand
//!    portfolios, backup pools, activity windows, doorway fleets and their
//!    terms), and starts the state the tick mutates.
//! 2. **Consistency after running** — on generated worlds that have run
//!    (rotations, penalties, traffic), the domain → doorway route agrees
//!    with each doorway's owner, and the world checkpoint decodes and
//!    re-encodes to the same bytes.
//! 3. **Pinned-seed goldens** — `World::state_fingerprint` values recorded
//!    on the nested-struct implementation immediately before the table
//!    refactor, and the tiny world's `world` checkpoint frame, checked at
//!    several tick thread counts. The frame golden holds the frame layout
//!    fixed across builds, so checkpoints written by older builds resume.

use std::collections::BTreeSet;

use proptest::prelude::*;
use ss_eco::campaign::ActivityWindow;
use ss_eco::tables::{NewCampaign, NewDoorway, NewStore};
use ss_eco::{CampaignTable, ScenarioConfig, StoreTable, World};
use ss_types::snapshot::{fnv1a64, Snapshot};
use ss_types::{BrandId, CampaignId, DomainId, DoorwayId, SimDate, StoreId, TermId, VerticalId};
use ss_web::cloak::CloakMode;

// ---- generators (the vendored proptest keeps strategies simple; rich
// ---- records are drawn from the test RNG directly) ----

fn day(rng: &mut TestRng) -> SimDate {
    SimDate::from_day_index(rng.below(500) as u32)
}

fn word(rng: &mut TestRng, len: u64) -> String {
    (0..2 + rng.below(len))
        .map(|_| (b'a' + rng.below(26) as u8) as char)
        .collect()
}

fn new_store(rng: &mut TestRng) -> NewStore {
    NewStore {
        campaign: CampaignId::from_index(rng.below(64) as usize),
        name: word(rng, 20),
        brands: (0..rng.below(5))
            .map(|_| BrandId::from_index(rng.below(40) as usize))
            .collect(),
        locale: ["us", "uk", "fr", "de", "jp"][rng.below(5) as usize].to_owned(),
        domain: DomainId::from_index(rng.below(4096) as usize),
        backup_pool: (0..rng.below(4))
            .map(|_| DomainId::from_index(rng.below(4096) as usize))
            .collect(),
        order_counter: rng.below(1_000_000),
        merchant_id: word(rng, 10),
        awstats_public: rng.next_u64() & 1 == 1,
        created: day(rng),
        seed: rng.next_u64(),
    }
}

fn new_doorway(rng: &mut TestRng) -> NewDoorway {
    NewDoorway {
        domain: DomainId::from_index(rng.below(4096) as usize),
        terms: (0..1 + rng.below(5))
            .map(|_| TermId::from_index(rng.below(2048) as usize))
            .collect(),
        vertical: VerticalId::from_index(rng.below(16) as usize),
        target_store: StoreId::from_index(rng.below(64) as usize),
        live_from: day(rng),
        live_until: day(rng),
    }
}

fn new_campaign(rng: &mut TestRng) -> NewCampaign {
    NewCampaign {
        name: word(rng, 12).to_ascii_uppercase(),
        classified: rng.next_u64() & 1 == 1,
        verticals: (0..1 + rng.below(3))
            .map(|_| VerticalId::from_index(rng.below(16) as usize))
            .collect(),
        cloak: match rng.below(3) {
            0 => CloakMode::Redirect,
            1 => CloakMode::JsRedirect,
            _ => CloakMode::Iframe {
                obfuscation: rng.below(4) as u8,
            },
        },
        windows: (0..rng.below(3))
            .map(|_| ActivityWindow {
                from: day(rng),
                to: day(rng),
                juice: rng.below(1000) as f64 / 1000.0,
            })
            .collect(),
        reaction_days: rng.below(30) as u32,
        supplier_partner: rng.next_u64() & 1 == 1,
    }
}

// ---- round-trip properties ----

proptest! {
    /// StoreTable: push → row view gives back every creation field, and
    /// starts the domain history, order ledger, traffic log and retired
    /// flag.
    #[test]
    fn store_rows_roundtrip_nested_values(seed: u64, n in 0usize..12) {
        let mut rng = TestRng::for_test(&format!("store-roundtrip-{seed}"));
        let specs: Vec<NewStore> = (0..n).map(|_| new_store(&mut rng)).collect();

        let mut table = StoreTable::default();
        for (i, s) in specs.iter().enumerate() {
            prop_assert_eq!(table.push(s.clone()), StoreId::from_index(i));
        }
        prop_assert_eq!(table.len(), specs.len());
        for (i, s) in specs.iter().enumerate() {
            let r = table.row(StoreId::from_index(i));
            prop_assert_eq!(r.id, StoreId::from_index(i));
            prop_assert_eq!(r.campaign, s.campaign);
            prop_assert_eq!(r.name, s.name.as_str());
            prop_assert_eq!(r.brands, s.brands.as_slice());
            prop_assert_eq!(r.locale, s.locale.as_str());
            prop_assert_eq!(r.current_domain, s.domain);
            prop_assert_eq!(r.domain_history, &[(s.created, s.domain)][..]);
            prop_assert_eq!(r.backup_pool, s.backup_pool.as_slice());
            prop_assert_eq!(r.order_counter, s.order_counter);
            prop_assert_eq!(r.orders_accrued, 0);
            prop_assert_eq!(r.merchant_id, s.merchant_id.as_str());
            prop_assert_eq!(r.awstats_public, s.awstats_public);
            prop_assert_eq!(r.created, s.created);
            prop_assert!(r.months.is_empty());
            prop_assert_eq!(r.seed, s.seed);
            prop_assert!(!r.retired);
        }
        // Interning conflates locales exactly when the strings match.
        let distinct: BTreeSet<&str> = specs.iter().map(|s| s.locale.as_str()).collect();
        prop_assert_eq!(table.locales().len(), distinct.len());
    }

    /// CampaignTable: push (fleet via `push_doorway`) → row view gives back
    /// every creation field, and doorway rows agree with the pushed fleet
    /// in order, under contiguous global ids, unpenalized.
    #[test]
    fn campaign_rows_roundtrip_nested_values(seed: u64, n in 0usize..8) {
        let mut rng = TestRng::for_test(&format!("campaign-roundtrip-{seed}"));
        let specs: Vec<(NewCampaign, Vec<NewDoorway>)> = (0..n)
            .map(|_| {
                let c = new_campaign(&mut rng);
                let fleet = (0..rng.below(6)).map(|_| new_doorway(&mut rng)).collect();
                (c, fleet)
            })
            .collect();

        let mut table = CampaignTable::default();
        for (i, (c, fleet)) in specs.iter().enumerate() {
            let id = table.push(c.clone());
            prop_assert_eq!(id, CampaignId::from_index(i));
            for d in fleet {
                table.push_doorway(id, d.clone());
            }
        }
        prop_assert_eq!(table.len(), specs.len());
        let mut next_doorway = 0;
        for (i, (c, fleet)) in specs.iter().enumerate() {
            let r = table.row(CampaignId::from_index(i));
            prop_assert_eq!(r.id, CampaignId::from_index(i));
            prop_assert_eq!(r.name, c.name.as_str());
            prop_assert_eq!(r.classified, c.classified);
            prop_assert_eq!(r.verticals, c.verticals.as_slice());
            prop_assert!(r.stores.is_empty());
            prop_assert_eq!(r.cloak, c.cloak);
            prop_assert_eq!(r.windows, c.windows.as_slice());
            prop_assert_eq!(r.reaction_days, c.reaction_days);
            prop_assert_eq!(r.supplier_partner, c.supplier_partner);
            prop_assert_eq!(r.doorways.len(), fleet.len());
            for (row, d) in r.doorways.iter().zip(fleet.iter()) {
                prop_assert_eq!(row.id, DoorwayId::from_index(next_doorway));
                prop_assert_eq!(table.doorway(row.id), row);
                prop_assert_eq!(row.campaign, r.id);
                prop_assert_eq!(row.domain, d.domain);
                prop_assert_eq!(row.terms, d.terms.as_slice());
                prop_assert_eq!(row.vertical, d.vertical);
                prop_assert_eq!(row.target_store, d.target_store);
                prop_assert_eq!(row.live_from, d.live_from);
                prop_assert_eq!(row.live_until, d.live_until);
                prop_assert_eq!(row.penalized, None);
                next_doorway += 1;
            }
        }
        prop_assert_eq!(table.doorway_table().len(), next_doorway);
    }
}

#[test]
fn world_rows_stay_consistent_after_running() {
    for seed in [7u64, 2014] {
        let mut w = World::build(ScenarioConfig::tiny(seed)).unwrap();
        w.run_until(SimDate::from_day_index(ss_types::CRAWL_START_DAY + 20));

        for c in w.campaigns.iter() {
            for d in c.doorways.iter() {
                let (owner, truth) = w
                    .doorway_truth(d.domain)
                    .expect("every doorway domain routes to its row");
                assert_eq!(owner, c.id);
                assert_eq!(truth, d);
            }
        }
        let bytes = w.encode();
        let restored = World::decode(&bytes).expect("checkpoint decodes");
        assert!(restored.encode() == bytes, "seed {seed}: re-encode differs");
    }
}

// ---- pinned goldens ----

fn run(cfg: ScenarioConfig, threads: usize, until: u32) -> World {
    let mut w = World::build(cfg).unwrap();
    w.tick_threads = threads;
    w.run_until(SimDate::from_day_index(until));
    w
}

/// The fingerprint golden was recorded on the nested-struct (pre-table)
/// implementation; the frame golden pins the `world` v2 checkpoint layout
/// (a trail-retention byte where v1 nested a tick-plane recorder) with its
/// nested `search-engine` v2 frame (docs as page shapes) and the word-wise
/// frame hash.
#[test]
fn state_fingerprint_golden_tiny() {
    for threads in [1usize, 2, 8] {
        let w = run(ScenarioConfig::tiny(2014), threads, 232);
        assert_eq!(
            w.state_fingerprint(),
            0x2415f1d4268869fb,
            "tiny fingerprint drifted at threads={threads}"
        );
        let frame = w.encode();
        assert_eq!(
            (frame.len(), fnv1a64(&frame)),
            (904_359, 0x8bbd_b133_c548_9230),
            "tiny world frame drifted at threads={threads}"
        );
        let restored = World::decode(&frame).expect("frame decodes");
        assert!(restored.encode() == frame, "re-encode differs");
    }
}

/// Golden recorded on the nested-struct (pre-table) implementation.
/// Slow in debug builds; CI runs it in release via `--include-ignored`.
#[test]
#[ignore = "slow in debug builds; CI runs it in release"]
fn state_fingerprint_golden_small() {
    for threads in [1usize, 2, 8] {
        assert_eq!(
            run(ScenarioConfig::small(2014), threads, 170).state_fingerprint(),
            0xc93edf15d4221787,
            "small fingerprint drifted at threads={threads}"
        );
    }
}
