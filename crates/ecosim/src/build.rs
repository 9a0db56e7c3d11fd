//! World generation: turning a [`ScenarioConfig`] into a live [`World`].
//!
//! Generation order matters for determinism: verticals/terms, legitimate
//! web, brands, firms, supplier, the 52 classified campaigns (with the
//! scripted case-study beats from §5 wired in), then the shadow tail.
//! Every stream derives from the scenario seed via labeled sub-RNGs, so a
//! seed fully determines the world.

use rand::seq::SliceRandom;
use rand::Rng;

use ss_search::DocPage;
use ss_types::market::{self, CampaignSpec};
use ss_types::rng::{derive_seed, sub_rng, SimRng};
use ss_types::{
    BrandId, CampaignId, DomainId, FirmId, SimDate, StoreId, TermId, VerticalId, CRAWL_END_DAY,
    CRAWL_START_DAY,
};
use ss_web::cloak::CloakMode;
use ss_web::pagegen::legit::LegitTheme;
use ss_web::pagegen::words;

use crate::campaign::ActivityWindow;
use crate::domains::{self, SiteKind};
use crate::legal::FirmState;
use crate::scenario::ScenarioConfig;
use crate::tables::{NewCampaign, NewDoorway, NewStore};
use crate::world::{VerticalState, World};

/// Multiple of the monitored term count that exists as a queryable term
/// universe (users and campaigns are not limited to the crawler's picks).
const TERM_UNIVERSE_FACTOR: usize = 2;

/// Builds the world.
pub fn build_world(cfg: ScenarioConfig) -> ss_types::Result<World> {
    cfg.validate()?;
    let seed = cfg.seed;
    let engine = ss_search::SearchEngine::new(derive_seed(seed, "engine"), 0.05);
    let mut w = World::new_shell(cfg, engine);

    build_brands(&mut w);
    build_verticals_and_terms(&mut w);
    build_legit_web(&mut w);
    build_firms(&mut w);
    build_supplier(&mut w);
    build_campaigns(&mut w);
    build_shadow_campaigns(&mut w);
    w.index_entities();
    record_campaign_windows(&mut w);
    plan_penalties(&mut w);

    Ok(w)
}

/// Stamps every campaign's activity windows into the ground-truth event
/// log, so provenance queries can anchor a causal chain at "campaign
/// created / active from-to" without re-deriving it from agent state.
fn record_campaign_windows(w: &mut World) {
    for ci in 0..w.campaigns.len() {
        let c = w.campaigns.row(CampaignId::from_index(ci));
        let (id, windows) = (c.id, c.windows.to_vec());
        for win in windows {
            w.events.push(crate::events::Event::CampaignActive {
                campaign: id,
                from: win.from,
                to: win.to,
            });
        }
    }
}

fn build_brands(w: &mut World) {
    w.brand_names = market::all_brands();
}

fn brand_id(w: &World, name: &str) -> BrandId {
    BrandId::from_index(
        w.brand_names
            .iter()
            .position(|b| *b == name)
            .expect("brand registered"),
    )
}

fn build_verticals_and_terms(w: &mut World) {
    let n = w.cfg.scale.verticals;
    let monitored = w.cfg.scale.terms_per_vertical;
    let universe = monitored * TERM_UNIVERSE_FACTOR;
    for (vi, spec) in market::VERTICALS.iter().take(n).enumerate() {
        let vid = VerticalId::from_index(vi);
        let mut rng = sub_rng(w.cfg.seed, &format!("terms/{}", spec.name));
        let brand = spec.brands[0];

        // Two dialects of terms, mirroring §4.1.1: "kit-style" strings the
        // SEO kits bake into doorway URLs, and suggest-style strings real
        // users type. Both join the universe.
        let mut texts: Vec<String> = Vec::new();
        let push_unique = |texts: &mut Vec<String>, t: String| {
            if !texts.contains(&t) {
                texts.push(t);
            }
        };
        // Kit-style: adjective + brand + optional noun.
        while texts.len() < universe / 2 {
            let adj = market::TERM_ADJECTIVES[rng.gen_range(0..market::TERM_ADJECTIVES.len())];
            let noun = market::PRODUCT_NOUNS[rng.gen_range(0..market::PRODUCT_NOUNS.len())];
            let b = spec.brands[rng.gen_range(0..spec.brands.len())].to_ascii_lowercase();
            let t = match rng.gen_range(0..3) {
                0 => format!("{adj} {b}"),
                1 => format!("{adj} {b} {noun}"),
                _ => format!("{b} {noun} {adj}"),
            };
            push_unique(&mut texts, t);
        }
        // Suggest-style: what the suggest service emits for the brand.
        let expansions = w.suggest.expand_recursive(brand, 2);
        for t in expansions {
            if texts.len() >= universe {
                break;
            }
            push_unique(&mut texts, t);
        }
        // Top up with composed strings if suggest ran dry.
        let mut salt = 0u32;
        while texts.len() < universe {
            push_unique(
                &mut texts,
                format!("{} style {salt}", brand.to_ascii_lowercase()),
            );
            salt += 1;
        }

        let terms: Vec<TermId> = texts.iter().map(|t| w.engine.add_term(vid, t)).collect();
        let popularity = (f64::from(spec.table1.psrs) / 170_000.0)
            .sqrt()
            .clamp(0.3, 2.2);
        let elite_prob = (0.03 + spec.fig3.top10_max / 300.0).clamp(0.03, 0.17);
        w.verticals.push(VerticalState {
            id: vid,
            spec,
            terms,
            popularity,
            elite_prob,
        });
    }
}

fn build_legit_web(w: &mut World) {
    let per_term = w.cfg.scale.legit_per_term;
    let themes = [
        LegitTheme::News,
        LegitTheme::Blog,
        LegitTheme::Retailer,
        LegitTheme::Forum,
        LegitTheme::Official,
    ];
    for vi in 0..w.verticals.len() {
        let mut rng = sub_rng(w.cfg.seed, &format!("legit/{vi}"));
        let terms = w.verticals[vi].terms.clone();
        let spec = w.verticals[vi].spec;
        // A pool of legit domains, each hosting ~3 term pages.
        let pool_size = (terms.len() * per_term / 3).max(1);
        let mut pool: Vec<DomainId> = Vec::with_capacity(pool_size);
        for _ in 0..pool_size {
            let theme = themes[rng.gen_range(0..themes.len())];
            let brand = spec.brands[rng.gen_range(0..spec.brands.len())];
            let name = domains::legit_name(&mut rng);
            pool.push(w.domains.register_unique(
                &name,
                SiteKind::Legit { theme, brand },
                SimDate::EPOCH,
            ));
        }
        let mut next = 0usize;
        for &term in &terms {
            for slot in 0..per_term {
                let domain = pool[next % pool.len()];
                next += 1;
                let page = if slot == 0 {
                    DocPage::Root
                } else {
                    // Drawn as the `i32` the formatted path drew, so
                    // every later draw of the generator is unchanged.
                    let n: i32 = rng.gen_range(0..10_000);
                    DocPage::Page(u16::try_from(n).expect("page numbers are below 10,000"))
                };
                let quality = rng.gen_range(0.2..0.95);
                let relevance = rng.gen_range(0.4..0.9);
                w.engine
                    .index_page(term, page, domain, quality, relevance, SimDate::EPOCH);
            }
        }
    }
}

fn build_firms(w: &mut World) {
    let specs = market::FIRMS;
    let names = market::all_brands();
    for (fi, (spec, policy)) in specs.iter().zip(w.cfg.seizure_policies.clone()).enumerate() {
        let mut rng = sub_rng(w.cfg.seed, &format!("firm/{fi}"));
        // Each firm represents a deterministic subset of the brand universe.
        let mut brand_pool: Vec<&str> = names.clone();
        brand_pool.shuffle(&mut rng);
        let brands: Vec<BrandId> = brand_pool
            .into_iter()
            .take(spec.brands as usize)
            .map(|b| brand_id(w, b))
            .collect();
        w.firms.push(FirmState {
            id: FirmId::from_index(fi),
            name: spec.name.to_owned(),
            brands,
            policy,
            cases: Vec::new(),
        });
    }
}

fn build_supplier(w: &mut World) {
    w.supplier_domain = w.domains.register_unique(
        "track-eastern-fulfillment.com",
        SiteKind::Supplier,
        SimDate::EPOCH,
    );
}

/// Which verticals a campaign targets, honouring KEY's exclusions and
/// weighting toward verticals with remaining target capacity (Table 1's
/// per-vertical campaign counts).
fn assign_verticals(
    w: &World,
    spec: &CampaignSpec,
    capacity: &mut [i32],
    rng: &mut SimRng,
) -> Vec<VerticalId> {
    let n_avail = w.verticals.len();
    if spec.name == "KEY" {
        return w
            .verticals
            .iter()
            .filter(|v| v.spec.key_targeted)
            .map(|v| v.id)
            .collect();
    }
    let want = ((spec.brands as f64 * 0.6).round() as usize).clamp(1, n_avail);
    let mut picks: Vec<VerticalId> = Vec::new();
    // Weighted sampling without replacement by remaining capacity.
    for _ in 0..want {
        let total: i32 = capacity
            .iter()
            .enumerate()
            .filter(|(i, _)| !picks.iter().any(|p| p.index() == *i))
            .map(|(_, c)| (*c).max(1))
            .sum();
        let mut x = rng.gen_range(0..total.max(1));
        for (i, c) in capacity.iter().enumerate() {
            if picks.iter().any(|p| p.index() == i) {
                continue;
            }
            let wgt = (*c).max(1);
            if x < wgt {
                picks.push(VerticalId::from_index(i));
                break;
            }
            x -= wgt;
        }
    }
    for p in &picks {
        capacity[p.index()] -= 1;
    }
    picks
}

fn scaled(n: u32, scale: f64) -> usize {
    ((f64::from(n) * scale).round() as usize).max(1)
}

/// Per-campaign activity schedule: a long background window plus the peak
/// window whose length Table 2 reports.
fn build_windows(spec_peak: u32, rng: &mut SimRng, early: bool) -> Vec<ActivityWindow> {
    let bg_start = if early {
        rng.gen_range(0..40)
    } else {
        rng.gen_range(60..160)
    };
    let bg_len = rng.gen_range(180..320);
    let background = ActivityWindow {
        from: SimDate::from_day_index(bg_start),
        to: SimDate::from_day_index((bg_start + bg_len).min(CRAWL_END_DAY + 40)),
        juice: 0.26,
    };
    let peak_len = spec_peak.max(3);
    let latest = CRAWL_END_DAY
        .saturating_sub(peak_len)
        .max(CRAWL_START_DAY + 1);
    let peak_start = rng.gen_range(CRAWL_START_DAY..=latest);
    let peak = ActivityWindow {
        from: SimDate::from_day_index(peak_start),
        to: SimDate::from_day_index(peak_start + peak_len),
        juice: 0.55,
    };
    vec![peak, background]
}

/// Creates one store for `campaign`, registering its domain and backups.
#[allow(clippy::too_many_arguments)]
fn create_store(
    w: &mut World,
    campaign: CampaignId,
    campaign_name: &str,
    vertical: VerticalId,
    brands: &[BrandId],
    rng: &mut SimRng,
    created: SimDate,
    named_domains: Option<Vec<String>>,
) -> StoreId {
    let id = StoreId::from_index(w.stores.len());
    let anchor = w.verticals[vertical.index()].spec.brands[0];
    let locale = market::STORE_LOCALES[rng.gen_range(0..market::STORE_LOCALES.len())];
    let (first, backups): (DomainId, Vec<DomainId>) = match named_domains {
        Some(names) => {
            let ids: Vec<DomainId> = names
                .iter()
                .map(|n| {
                    w.domains
                        .register_unique(n, SiteKind::Storefront { store: id }, created)
                })
                .collect();
            (ids[0], ids[1..].to_vec())
        }
        None => {
            let n_backups = rng.gen_range(2..6);
            let mut ids = Vec::new();
            for _ in 0..=n_backups {
                let name = domains::store_name(rng, anchor);
                ids.push(w.domains.register_unique(
                    &name,
                    SiteKind::Storefront { store: id },
                    created,
                ));
            }
            (ids[0], ids[1..].to_vec())
        }
    };
    let name = {
        let host = w.domains.get(first).name.clone();
        let stem = host
            .as_str()
            .split('.')
            .next()
            .unwrap_or("store")
            .replace('-', " ");
        format!("{} {}", stem, locale)
    };
    // Fields evaluate in source order, and this order is the seeded draw
    // order: keep `order_counter`, `merchant_id`, `awstats_public` as they are.
    w.stores.push(NewStore {
        campaign,
        name,
        brands: brands.to_vec(),
        locale: locale.to_owned(),
        domain: first,
        backup_pool: backups,
        order_counter: rng.gen_range(2_000..40_000),
        merchant_id: format!("m-{}", words::token(rng, 8)),
        awstats_public: rng.gen::<f64>() < 0.085,
        created,
        seed: derive_seed(w.cfg.seed, &format!("store/{campaign_name}/{}", id.0)),
    })
}

/// Creates the doorway fleet for a campaign across its verticals/windows.
fn create_doorways(w: &mut World, campaign: CampaignId, n_doorways: usize, rng: &mut SimRng) {
    let row = w.campaigns.row(campaign);
    let verticals = row.verticals.to_vec();
    let windows = row.windows.to_vec();
    let stores = row.stores.to_vec();
    let cloak = row.cloak;
    if verticals.is_empty() || stores.is_empty() {
        return;
    }
    for k in 0..n_doorways {
        let vertical = verticals[k % verticals.len()];
        let vstate = &w.verticals[vertical.index()];
        let intensity = (vstate.spec.fig3.top100_max / 42.0).clamp(0.08, 1.0);
        let n_terms = (1.0 + intensity * 5.0).round() as usize;
        // Cohorts: doorways distribute across the campaign's windows.
        let win = windows[k % windows.len()];
        let live_from = win.from + rng.gen_range(0..8);
        let live_until = win.to + rng.gen_range(10..40);
        // Target a store of the same vertical when one exists.
        let store = stores
            .iter()
            .copied()
            .filter(|s| {
                let brands = w.stores.row(*s).brands;
                w.verticals[vertical.index()]
                    .spec
                    .brands
                    .iter()
                    .any(|b| brands.iter().any(|sb| w.brand_names[sb.index()] == *b))
            })
            .nth(k % stores.len().max(1))
            .unwrap_or(stores[k % stores.len()]);

        let compromised = rng.gen::<f64>() < 0.85;
        let name = domains::doorway_name(rng);
        let domain = w.domains.register_unique(
            &name,
            SiteKind::Doorway {
                campaign,
                compromised,
                cloak,
                target_store: store,
            },
            live_from,
        );
        // Term targets: the first term is indexed at the site root (this is
        // what the root-only label policy can actually mark).
        let mut terms = Vec::with_capacity(n_terms);
        let term_pool = &w.verticals[vertical.index()].terms;
        for _ in 0..n_terms {
            let t = term_pool[rng.gen_range(0..term_pool.len())];
            if !terms.contains(&t) {
                terms.push(t);
            }
        }
        for (i, &t) in terms.iter().enumerate() {
            let page = if i == 0 {
                DocPage::Root
            } else {
                DocPage::TermKey
            };
            let quality = rng.gen_range(0.05..0.3);
            let relevance = rng.gen_range(0.55..0.85);
            w.engine
                .index_page(t, page, domain, quality, relevance, live_from);
        }
        w.campaigns.push_doorway(
            campaign,
            NewDoorway {
                domain,
                terms,
                vertical,
                target_store: store,
                live_from,
                live_until,
            },
        );
    }
}

fn build_campaigns(w: &mut World) {
    let specs = market::all_campaigns();
    let scale = w.cfg.scale.entity_scale;
    let mut capacity: Vec<i32> = w
        .verticals
        .iter()
        .map(|v| (f64::from(v.spec.table1.campaigns) * 0.9).round() as i32)
        .collect();

    for spec in &specs {
        let mut rng = sub_rng(w.cfg.seed, &format!("campaign/{}", spec.name));
        let verticals = assign_verticals(w, spec, &mut capacity, &mut rng);

        // Brand portfolio: vertical anchors first, extras after.
        let mut brands: Vec<BrandId> = Vec::new();
        for v in &verticals {
            for b in w.verticals[v.index()].spec.brands {
                let bid = brand_id(w, b);
                if !brands.contains(&bid) {
                    brands.push(bid);
                }
            }
        }
        let mut extras: Vec<&str> = market::EXTRA_BRANDS.to_vec();
        extras.shuffle(&mut rng);
        for e in extras {
            if brands.len() >= spec.brands as usize {
                break;
            }
            let bid = brand_id(w, e);
            if !brands.contains(&bid) {
                brands.push(bid);
            }
        }

        let cloak = match spec.name {
            "IFRAMEINJS" => CloakMode::Iframe { obfuscation: 3 },
            _ => match rng.gen_range(0..10) {
                0..=4 => CloakMode::Iframe {
                    obfuscation: rng.gen_range(0..4),
                },
                5..=7 => CloakMode::Redirect,
                _ => CloakMode::JsRedirect,
            },
        };

        let early = matches!(spec.name, "KEY" | "MSVALIDATE" | "PHP?P=" | "BIGLOVE")
            || rng.gen::<f64>() < 0.3;
        let mut windows = build_windows(spec.peak_days, &mut rng, early);
        let mut reaction_days = rng.gen_range(2..25);
        let mut supplier_partner = false;

        // ---- scripted case-study beats (§5) ----
        match spec.name {
            "KEY" => {
                // Active early, collapses mid-December 2013 (§5.2.1).
                windows = vec![
                    ActivityWindow {
                        from: SimDate::from_day_index(95),
                        to: SimDate::from_day_index(163),
                        juice: 0.62,
                    },
                    ActivityWindow {
                        from: SimDate::from_day_index(164),
                        to: SimDate::from_day_index(CRAWL_END_DAY),
                        juice: 0.08,
                    },
                ];
            }
            "MOONKIS" => {
                // §5.2.1: March 2014 — negligible top-10, hundreds in the
                // top-100, order volume steady.
                windows = vec![
                    ActivityWindow {
                        from: SimDate::from_day_index(180),
                        to: SimDate::from_day_index(239),
                        juice: 0.58,
                    },
                    ActivityWindow {
                        from: SimDate::from_day_index(240),
                        to: SimDate::from_day_index(270),
                        juice: 0.30,
                    },
                    ActivityWindow {
                        from: SimDate::from_day_index(271),
                        to: SimDate::from_day_index(CRAWL_END_DAY),
                        juice: 0.55,
                    },
                ];
            }
            "PHP?P=" => {
                reaction_days = 1; // re-pointed doorways within 24h (§5.3.2)
            }
            "MSVALIDATE" => {
                supplier_partner = true; // §4.5
            }
            _ => {}
        }

        let id = w.campaigns.push(NewCampaign {
            name: spec.name.to_owned(),
            classified: true,
            verticals: verticals.clone(),
            cloak,
            windows,
            reaction_days,
            supplier_partner,
        });

        // Stores: creation staggered across the study so store lifetimes
        // (first sighting → seizure) are not artificially compressed; real
        // storefronts spawn continuously.
        let n_stores = scaled(spec.stores, scale);
        for s in 0..n_stores {
            let created = SimDate::from_day_index(rng.gen_range(0..220));
            let vertical = verticals[s % verticals.len()];
            let anchor = brand_id(w, w.verticals[vertical.index()].spec.brands[0]);
            let mut store_brands = vec![anchor];
            for b in &brands {
                if store_brands.len() >= 4 {
                    break;
                }
                if !store_brands.contains(b) {
                    store_brands.push(*b);
                }
            }
            let sid = create_store(
                w,
                id,
                spec.name,
                vertical,
                &store_brands,
                &mut rng,
                created,
                None,
            );
            w.campaigns.add_store(id, sid);
        }

        // ---- scripted stores ----
        if spec.name == "BIGLOVE" {
            // The coco*.com Chanel storefront of §5.2.3 / Figure 5.
            let vertical = verticals[0];
            let chanel = brand_id(w, "Chanel");
            let sid = create_store(
                w,
                id,
                spec.name,
                vertical,
                &[chanel],
                &mut rng,
                SimDate::from_day_index(300),
                Some(vec![
                    "cocoviphandbags.com".into(),
                    "cocovipbags.com".into(),
                    "cocolovebags.com".into(),
                ]),
            );
            w.stores.set_awstats_public(sid, true);
            w.stores.set_name(sid, "coco vip bags");
            w.campaigns.add_store(id, sid);
            if w.cfg.proactive_rotation {
                // Rotations at end of June and mid-August 2014 (Fig. 5).
                for day in [357, 406] {
                    w.proactive_rotations
                        .entry(SimDate::from_day_index(day))
                        .or_default()
                        .push(sid);
                }
            }
            // cocoviphandbags.com seized July 11, 2014 — after the store
            // had already moved on (§5.2.3).
            let first_domain = w.stores.row(sid).domain_history[0].1;
            w.scripted_seizures
                .entry(SimDate::from_day_index(371))
                .or_default()
                .push((first_domain, FirmId(0)));
        }
        if spec.name == "PHP?P=" {
            // Figure 6: four international stores; the Abercrombie UK
            // domain is seized Feb 9, 2014.
            let vertical = verticals[0];
            let abercrombie = brand_id(w, "Abercrombie");
            let hollister = brand_id(w, "Hollister");
            let woolrich = brand_id(w, "Woolrich");
            let mut intl = Vec::new();
            for (label, brand, locale) in [
                ("abercrombie-uk", abercrombie, "uk"),
                ("abercrombie-de", abercrombie, "de"),
                ("hollister-uk", hollister, "uk"),
                ("woolrich-de", woolrich, "de"),
            ] {
                let sid = create_store(
                    w,
                    id,
                    spec.name,
                    vertical,
                    &[brand],
                    &mut rng,
                    SimDate::from_day_index(120),
                    Some(vec![
                        format!("{label}-outlet.com"),
                        format!("{label}-outlet2.com"),
                        format!("{label}-outlet3.com"),
                    ]),
                );
                w.stores.set_locale(sid, locale);
                w.campaigns.add_store(id, sid);
                intl.push(sid);
            }
            let uk_domain = w.stores.row(intl[0]).domain_history[0].1;
            w.scripted_seizures
                .entry(SimDate::from_day_index(219))
                .or_default()
                .push((uk_domain, FirmId(0)));
        }

        // Doorways last (they need stores to target).
        let n_doorways = scaled(spec.doorways, scale);
        create_doorways(w, id, n_doorways, &mut rng);
    }
}

fn build_shadow_campaigns(w: &mut World) {
    let n = w.cfg.scale.shadow_campaigns;
    let mut capacity: Vec<i32> = w.verticals.iter().map(|_| 10_000).collect();
    for k in 0..n {
        let name = format!("SHADOW.{k:03}");
        let mut rng = sub_rng(w.cfg.seed, &format!("shadow/{k}"));
        let spec = CampaignSpec {
            name: "shadow",
            doorways: rng.gen_range(8..130),
            stores: rng.gen_range(4..55),
            brands: rng.gen_range(1..5),
            peak_days: rng.gen_range(10..120),
        };
        let verticals = assign_verticals(w, &spec, &mut capacity, &mut rng);
        let early = rng.gen::<f64>() < 0.3;
        let windows = build_windows(spec.peak_days, &mut rng, early);
        let cloak = match rng.gen_range(0..10) {
            0..=4 => CloakMode::Iframe {
                obfuscation: rng.gen_range(0..4),
            },
            5..=7 => CloakMode::Redirect,
            _ => CloakMode::JsRedirect,
        };
        let id = w.campaigns.push(NewCampaign {
            name: name.clone(),
            classified: false,
            verticals: verticals.clone(),
            cloak,
            windows,
            reaction_days: rng.gen_range(3..30),
            supplier_partner: false,
        });

        let n_stores = scaled(spec.stores, w.cfg.scale.entity_scale);
        for s in 0..n_stores {
            let created = SimDate::from_day_index(rng.gen_range(0..220));
            let vertical = verticals[s % verticals.len()];
            let anchor = brand_id(w, w.verticals[vertical.index()].spec.brands[0]);
            let sid = create_store(w, id, &name, vertical, &[anchor], &mut rng, created, None);
            w.campaigns.add_store(id, sid);
        }
        let n_doorways = scaled(spec.doorways, w.cfg.scale.entity_scale);
        create_doorways(w, id, n_doorways, &mut rng);
    }
}

fn plan_penalties(w: &mut World) {
    let policy = &w.cfg.search_policy;
    let mut rng = sub_rng(w.cfg.seed, "abuse-team");
    let mut plans: std::collections::BTreeMap<SimDate, Vec<_>> = std::collections::BTreeMap::new();
    // Global doorway-table order is per-campaign build order, so this scan
    // consumes the abuse-team stream exactly as the nested walk did.
    let dt = w.campaigns.doorway_table();
    for di in 0..dt.len() {
        if rng.gen::<f64>() < policy.detect_prob {
            let delay = rng.gen_range(policy.delay_min..=policy.delay_max);
            plans
                .entry(dt.live_from[di] + delay)
                .or_default()
                .push(dt.domain[di]);
        }
    }
    w.penalty_due = plans;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scale, ScenarioConfig};

    fn tiny_world() -> World {
        World::build(ScenarioConfig::tiny(42)).unwrap()
    }

    #[test]
    fn build_is_deterministic() {
        let a = tiny_world();
        let b = tiny_world();
        assert_eq!(a.domains.len(), b.domains.len());
        assert_eq!(a.stores.len(), b.stores.len());
        assert_eq!(a.engine.doc_count(), b.engine.doc_count());
        let an: Vec<&str> = a.campaigns.iter().map(|c| c.name).collect();
        let bn: Vec<&str> = b.campaigns.iter().map(|c| c.name).collect();
        assert_eq!(an, bn);
    }

    #[test]
    fn classified_campaigns_come_first_and_complete() {
        let w = tiny_world();
        let classified: Vec<_> = w.campaigns.iter().filter(|c| c.classified).collect();
        assert_eq!(classified.len(), 52);
        assert!(w.campaigns.len() > 52, "shadow tail expected");
        for c in classified {
            assert!(!c.stores.is_empty(), "{} has no stores", c.name);
            assert!(!c.doorways.is_empty(), "{} has no doorways", c.name);
            assert!(!c.verticals.is_empty(), "{} has no verticals", c.name);
        }
    }

    #[test]
    fn key_targets_only_key_verticals() {
        let w = tiny_world();
        let key = w.campaigns.iter().find(|c| c.name == "KEY").unwrap();
        for v in key.verticals {
            assert!(w.verticals[v.index()].spec.key_targeted);
        }
    }

    #[test]
    fn doorway_roots_are_indexed() {
        let w = tiny_world();
        let key = w.campaigns.iter().find(|c| c.name == "KEY").unwrap();
        let d = key.doorways.at(0);
        let pages = w.engine.site_query(d.domain);
        assert!(!pages.is_empty());
        assert!(
            pages.iter().any(|p| p.page == DocPage::Root),
            "first term should be indexed at the root"
        );
    }

    #[test]
    fn scripted_stores_exist_at_small_scale() {
        let w = World::build(ScenarioConfig::small(7)).unwrap();
        assert!(w.stores.iter().any(|s| s.name == "coco vip bags"));
        let coco = w.stores.iter().find(|s| s.name == "coco vip bags").unwrap();
        assert_eq!(
            w.domains.get(coco.current_domain).name.as_str(),
            "cocoviphandbags.com"
        );
        assert_eq!(coco.backup_pool.len(), 2);
        assert!(!w.scripted_seizures.is_empty());
        assert_eq!(w.proactive_rotations.len(), 2);
    }

    #[test]
    fn term_universe_is_larger_than_monitored_set() {
        let cfg = ScenarioConfig::tiny(1);
        let monitored = cfg.scale.terms_per_vertical;
        let w = World::build(cfg).unwrap();
        for v in &w.verticals {
            assert_eq!(v.terms.len(), monitored * TERM_UNIVERSE_FACTOR);
        }
    }

    #[test]
    fn penalty_plans_cover_a_policy_fraction() {
        let w = tiny_world();
        let doorways: usize = w.campaigns.iter().map(|c| c.doorways.len()).sum();
        let planned: usize = w.penalty_due.values().map(Vec::len).sum();
        let frac = planned as f64 / doorways as f64;
        let p = w.cfg.search_policy.detect_prob;
        assert!((frac - p).abs() < 0.08, "planned {frac} vs policy {p}");
    }

    #[test]
    fn supplier_partner_is_msvalidate() {
        let w = tiny_world();
        let partners: Vec<&str> = w
            .campaigns
            .iter()
            .filter(|c| c.supplier_partner)
            .map(|c| c.name)
            .collect();
        assert_eq!(partners, ["MSVALIDATE"]);
    }

    #[test]
    fn scale_changes_world_size() {
        let tiny = World::build(ScenarioConfig::tiny(1)).unwrap();
        let small = World::build(ScenarioConfig::new(1, Scale::small())).unwrap();
        assert!(small.domains.len() > tiny.domains.len());
        assert!(small.engine.doc_count() > tiny.engine.doc_count());
    }
}
