//! The world: composed state, the day-tick loop, and the web façade —
//! a pure [`Fetcher`] read plane plus the [`Web::apply`] tick plane.
//!
//! The day-tick loop itself lives in [`crate::plan`]: each stage plans as
//! a pure function over `&World` and commits through `World::apply_plan`.
//!
//! Entity state lives in component tables ([`crate::tables`]): stores,
//! campaigns, doorways and domains are each a struct-of-arrays table
//! indexed by their dense id. Accessors here hand out borrowed row views;
//! the planners scan raw columns.

use std::collections::BTreeMap;

use ss_types::market::VerticalSpec;
use ss_types::url::{self, Scheme};
use ss_types::{
    BrandId, CampaignId, DomainId, DoorwayId, FirmId, SimDate, StoreId, TermId, Url, VerticalId,
};

use ss_search::{DocId, DocPage, SearchEngine};
use ss_web::cloak::{self, CloakMode, ServeDecision};
use ss_web::http::{Fetcher, Request, Response, SideEffect, Web};
use ss_web::pagegen::storefront::StoreTemplate;
use ss_web::pagegen::supplier::ShipStatus;
use ss_web::pagegen::{awstats, doorway, legit, notice, storefront, supplier as supplier_pages};

use crate::domains::{DomainTable, Seizure, SiteKind};
use crate::events::EventLog;
use crate::legal::FirmState;
use crate::scenario::ScenarioConfig;
use crate::supplier::SupplierState;
use crate::tables::{CampaignRow, CampaignTable, DomainRoute, DoorwayRow, StoreRow, StoreTable};

/// Per-vertical runtime state.
#[derive(Debug)]
pub struct VerticalState {
    /// Id.
    pub id: VerticalId,
    /// The static spec (Table 1 row etc.).
    pub spec: &'static VerticalSpec,
    /// Term ids, in registration order.
    pub terms: Vec<TermId>,
    /// Relative query popularity (scales impressions).
    pub popularity: f64,
    /// Probability that a doorway in this vertical is "elite" (top-10
    /// capable), derived from the Figure 3 top-10 envelope.
    pub elite_prob: f64,
}

/// The assembled world. Construct via [`World::build`], drive with
/// [`World::tick`] / [`World::run_until`], observe through `Web::fetch`
/// and the public state.
pub struct World {
    /// Scenario this world was built from.
    pub cfg: ScenarioConfig,
    /// Current day (the day `tick` will simulate next).
    pub day: SimDate,
    /// The search engine.
    pub engine: SearchEngine,
    /// The suggest service.
    pub suggest: ss_search::suggest::SuggestService,
    /// Domain table (the simulated DNS).
    pub domains: DomainTable,
    /// Monitored verticals.
    pub verticals: Vec<VerticalState>,
    /// Brand names by `BrandId` index.
    pub brand_names: Vec<&'static str>,
    /// Campaign component table (classified first, then the shadow tail),
    /// owning the global doorway table.
    pub campaigns: CampaignTable,
    /// Store component table.
    pub stores: StoreTable,
    /// Brand-protection firms.
    pub firms: Vec<FirmState>,
    /// The supplier.
    pub supplier: SupplierState,
    /// The supplier portal's domain.
    pub supplier_domain: DomainId,
    /// Ground-truth event log.
    pub events: EventLog,
    /// domain → doorway row for fetch routing (dense array lookup).
    pub(crate) route: DomainRoute,
    /// Penalization schedule, indexed by due day.
    pub(crate) penalty_due: BTreeMap<SimDate, Vec<DomainId>>,
    /// Store rotations queued by seizure reactions, indexed by due day.
    pub(crate) pending_rotations: BTreeMap<SimDate, Vec<StoreId>>,
    /// Scripted proactive rotations, indexed by day.
    pub(crate) proactive_rotations: BTreeMap<SimDate, Vec<StoreId>>,
    /// Scripted seizures, indexed by day.
    pub(crate) scripted_seizures: BTreeMap<SimDate, Vec<(DomainId, FirmId)>>,
    /// Per-campaign storefront templates (same index as `campaigns`).
    pub(crate) templates: Vec<StoreTemplate>,
    pub(crate) next_case: u32,
    /// Worker threads the tick-stage planners may fan out over (`<= 1`
    /// plans serially). Any value commits a bit-identical world: planners
    /// draw from keyed streams and replay merges in index order.
    pub tick_threads: usize,
    /// Telemetry registry: ecosystem-side counters and histograms
    /// (`eco.*`), recorded as ticks execute. Deterministic for a given
    /// seed at any `tick_threads`.
    pub metrics: ss_obs::Registry,
    /// Whether ticks retain intervention events on [`World::event_trail`]
    /// (set through [`World::set_trace`]). Off by default.
    pub(crate) retain_trail: bool,
    /// Retained intervention-relevant tick events — the persisted
    /// `WorldEvent` log that `repro explain` walks. Appended only on the
    /// sequential commit path (plan order), so it is bit-identical at any
    /// `tick_threads`, and only while retention is on.
    pub event_trail: Vec<crate::plan::TrailEvent>,
}

impl World {
    /// Builds a world from a scenario (see the [`crate::scenario`] knobs).
    pub fn build(cfg: ScenarioConfig) -> ss_types::Result<Self> {
        crate::build::build_world(cfg)
    }

    pub(crate) fn new_shell(cfg: ScenarioConfig, engine: SearchEngine) -> Self {
        let seed = cfg.seed;
        World {
            suggest: ss_search::suggest::SuggestService::new(ss_types::rng::derive_seed(
                seed, "suggest",
            )),
            cfg,
            day: SimDate::EPOCH,
            engine,
            domains: DomainTable::new(),
            verticals: Vec::new(),
            brand_names: Vec::new(),
            campaigns: CampaignTable::default(),
            stores: StoreTable::default(),
            firms: Vec::new(),
            supplier: SupplierState::new(seed, 100_000),
            supplier_domain: DomainId(u32::MAX),
            events: EventLog::new(),
            route: DomainRoute::default(),
            penalty_due: BTreeMap::new(),
            pending_rotations: BTreeMap::new(),
            proactive_rotations: BTreeMap::new(),
            scripted_seizures: BTreeMap::new(),
            templates: Vec::new(),
            next_case: 0,
            tick_threads: 1,
            metrics: ss_obs::Registry::new(),
            retain_trail: false,
            event_trail: Vec::new(),
        }
    }

    /// Derives what indexes the entity tables from their rows: the
    /// domain → doorway route and the per-campaign store templates. World
    /// generation and checkpoint decode both end here, so neither index is
    /// ever serialized.
    pub(crate) fn index_entities(&mut self) {
        for (i, &domain) in self.campaigns.doorways.domain.iter().enumerate() {
            self.route.set(domain, DoorwayId::from_index(i));
        }
        let seed = self.cfg.seed;
        self.templates = self
            .campaigns
            .iter()
            .map(|c| StoreTemplate::for_campaign(c.name, seed))
            .collect();
    }

    /// Turns the event-trail retention that powers `repro explain` on at
    /// [`TraceLevel::Event`](ss_obs::TraceLevel::Event) and off at
    /// [`TraceLevel::Off`](ss_obs::TraceLevel::Off). Off by default so
    /// benches and plain studies pay nothing.
    pub fn set_trace(&mut self, level: ss_obs::TraceLevel) {
        self.retain_trail = level == ss_obs::TraceLevel::Event;
    }

    /// Campaign template accessor.
    pub fn template_of(&self, campaign: CampaignId) -> &StoreTemplate {
        &self.templates[campaign.index()]
    }

    /// Store row accessor.
    pub fn store(&self, id: StoreId) -> StoreRow<'_> {
        self.stores.row(id)
    }

    /// Campaign row accessor.
    pub fn campaign(&self, id: CampaignId) -> CampaignRow<'_> {
        self.campaigns.row(id)
    }

    /// Brand name accessor.
    pub fn brand_name(&self, id: BrandId) -> &'static str {
        self.brand_names[id.index()]
    }

    /// Ground-truth lookup: is this domain a doorway, and for whom?
    pub fn doorway_truth(&self, domain: DomainId) -> Option<(CampaignId, DoorwayRow<'_>)> {
        self.route.doorway(domain).map(|did| {
            let d = self.campaigns.doorway(did);
            (d.campaign, d)
        })
    }

    /// Convenience: the term text for a term id.
    pub fn term_text(&self, term: TermId) -> &str {
        &self.engine.terms()[term.index()].text
    }

    /// The URL of an indexed page, built from its parts: the owning
    /// domain's name, the page's path, and for a keyword page its term's
    /// text as the `key` parameter. The engine stores no names, so only
    /// code that fetches a page builds its URL.
    pub fn doc_url(&self, id: DocId) -> Url {
        let doc = self.engine.doc(id);
        let (path, query) = match doc.page {
            DocPage::Root => ("/".to_owned(), String::new()),
            DocPage::Page(n) => (format!("/page/{n}"), String::new()),
            DocPage::TermKey => (
                "/".to_owned(),
                format!("key={}", url::encode_component(self.term_text(doc.term))),
            ),
        };
        Url {
            scheme: Scheme::Http,
            host: self.domains.get(doc.domain).name.clone(),
            path,
            query,
        }
    }

    /// Whether `campaign` can settle payments on `day` under the payment
    /// intervention (§4.3.2 extension). Campaigns migrate to a surviving
    /// processor after the policy's migration window when one exists.
    pub fn payment_available(&self, campaign: CampaignId, day: SimDate) -> bool {
        let policy = &self.cfg.payment_policy;
        if !policy.enabled || day.day_index() < policy.start_day {
            return true;
        }
        let current = self.templates[campaign.index()].payment.name();
        if !policy.blocked.iter().any(|b| b == current) {
            return true;
        }
        // Blocked: has the campaign migrated yet?
        match policy.migration_days {
            Some(migration) if day.day_index() >= policy.start_day + migration => {
                // A surviving processor exists iff not all three are blocked.
                policy.blocked.len() < 3
            }
            _ => false,
        }
    }

    /// The packing slip of a physical delivery from `store_domain` (§4.5:
    /// the study "discovered the supplier site from the packing slip of two
    /// of our purchases"). This models a physical-world channel, not a web
    /// observation: it returns the supplier portal's domain when the
    /// store's campaign fulfills through the tracked supplier.
    pub fn packing_slip(&self, store_domain: &ss_types::DomainName) -> Option<String> {
        let id = self.domains.lookup(store_domain)?;
        let SiteKind::Storefront { store } = self.domains.get(id).kind else {
            return None;
        };
        let campaign = self.stores.row(store).campaign;
        self.campaigns.row(campaign).supplier_partner.then(|| {
            self.domains
                .get(self.supplier_domain)
                .name
                .as_str()
                .to_owned()
        })
    }

    /// Runs `tick` until (and including) `last`.
    pub fn run_until(&mut self, last: SimDate) {
        while self.day <= last {
            self.tick();
        }
    }

    /// Folds the engine's query-plane counters (`engine.serp_queries`,
    /// `engine.serp_cache_hits`) into the world's metric registry and
    /// zeroes them. Callers drain at commit-adjacent points — after each
    /// day's stages and before any checkpoint is written — so snapshots
    /// never carry undrained residue and a resumed run counts identically
    /// to an uninterrupted one.
    pub fn drain_engine_metrics(&mut self) {
        let (queries, cache_hits) = self.engine.take_serp_stats();
        if queries > 0 {
            self.metrics.count("engine.serp_queries", queries);
        }
        if cache_hits > 0 {
            self.metrics.count("engine.serp_cache_hits", cache_hits);
        }
        let (postings, pushes) = self.engine.take_walk_work();
        self.metrics
            .add_work("engine/serp", ss_obs::WorkKind::PostingsWalked, postings);
        self.metrics
            .add_work("engine/serp", ss_obs::WorkKind::SerpHeapPushes, pushes);
    }

    /// A deterministic digest of the whole committed world: domains and
    /// seizures, SERP state per monitored term, store counters and AWStats
    /// months, court cases, supplier ledger, rotation queues, and the
    /// clock. Two worlds with equal fingerprints (plus equal event logs
    /// and metrics) are observably identical — the tick thread-matrix
    /// tests assert this across worker counts.
    pub fn state_fingerprint(&self) -> u64 {
        fn fold(h: u64, v: u64) -> u64 {
            ss_types::rng::mix(h, v, 0x5ca1_ab1e)
        }
        fn fold_str(h: u64, s: &str) -> u64 {
            fold(h, ss_types::rng::hash_str(s))
        }
        let mut h: u64 = 0x5176_ce87_2e4c_7db1;
        h = fold(h, u64::from(self.day.day_index()));

        // Domains + seizures.
        h = fold(h, self.domains.len() as u64);
        for rec in self.domains.iter() {
            h = fold_str(h, rec.name.as_str());
            if let Some(s) = rec.seized {
                h = fold(h, u64::from(s.day.day_index()));
                h = fold(h, u64::from(s.case.0));
                h = fold(h, s.firm.index() as u64);
            }
        }

        // Engine ranking state, probed through every monitored term's SERP.
        // The uncached walk keeps the probe free of side effects: it must
        // not bump the query-plane counters or warm any epoch cache, or a
        // checkpoint-enabled run would diverge from an uncheckpointed one.
        for v in &self.verticals {
            for &term in &v.terms {
                let hits = self
                    .engine
                    .ranked_uncached(term, self.day, self.cfg.scale.serp_depth);
                for r in &hits {
                    h = fold(h, u64::from(r.domain.0));
                    h = fold(h, u64::from(r.rank) ^ (u64::from(r.hacked_label) << 32));
                }
            }
        }

        // Stores: counters, serving domain, AWStats months.
        for s in self.stores.iter() {
            h = fold(h, s.order_counter);
            h = fold(h, s.orders_accrued);
            h = fold(h, u64::from(s.current_domain.0));
            h = fold(
                h,
                u64::from(s.retired) ^ ((s.backup_pool.len() as u64) << 1),
            );
            h = fold(h, s.domain_history.len() as u64);
            for m in s.months {
                h = fold(
                    h,
                    m.visits ^ m.pages.rotate_left(16) ^ m.direct_visits.rotate_left(32),
                );
                h = fold(h, m.daily.len() as u64);
                for (host, n) in &m.referrers {
                    h = fold_str(h, host);
                    h = fold(h, *n);
                }
            }
        }

        // Court cases.
        for f in &self.firms {
            for c in &f.cases {
                h = fold(h, u64::from(c.id.0));
                h = fold(h, u64::from(c.day.day_index()));
                h = fold(h, c.domains.len() as u64);
                h = fold_str(h, &c.docket);
            }
        }

        // Supplier ledger.
        for r in &self.supplier.records {
            let status = match r.status {
                ShipStatus::Delivered => 0u64,
                ShipStatus::SeizedAtSource => 1,
                ShipStatus::SeizedAtDestination => 2,
                ShipStatus::Returned => 3,
                ShipStatus::InTransit => 4,
            };
            h = fold(
                h,
                r.order_no ^ (u64::from(r.date.day_index()) << 32) ^ status,
            );
            h = fold_str(h, &r.country);
        }

        // Outstanding rotation schedules.
        for (d, stores) in &self.pending_rotations {
            h = fold(h, u64::from(d.day_index()));
            for s in stores {
                h = fold(h, s.index() as u64);
            }
        }
        for (d, stores) in &self.proactive_rotations {
            h = fold(h, u64::from(d.day_index()));
            for s in stores {
                h = fold(h, s.index() as u64);
            }
        }
        h
    }
}

/// Deterministic uniform draw deciding whether a doorway is "elite"
/// (top-10 capable); compared against the vertical's elite probability.
pub(crate) fn elite_draw(seed: u64, domain: DomainId) -> f64 {
    ss_types::rng::unit_f64(ss_types::rng::mix(seed, 0xe117e, u64::from(domain.0)))
}

// ---- the Web façade ----

impl Fetcher for World {
    /// Serves one request as a pure read. The only state change a visit
    /// can imply — a checkout allocating the next order number — comes
    /// back as a [`SideEffect`] for [`Web::apply`] to commit.
    fn fetch(&self, req: &Request) -> (Response, Vec<SideEffect>) {
        let Some(domain) = self.domains.lookup(&req.url.host) else {
            return (Response::not_found(), Vec::new());
        };
        let record = self.domains.get(domain);

        // Seized domains serve the notice page regardless of prior kind.
        if let Some(seizure) = record.seized {
            if seizure.day <= self.day {
                return (self.serve_notice(domain, seizure), Vec::new());
            }
        }

        match record.kind {
            SiteKind::Legit { theme, brand } => {
                let ctx = legit::LegitCtx {
                    domain: record.name.as_str(),
                    theme,
                    brand,
                    seed: ss_types::rng::derive_seed(self.cfg.seed, record.name.as_str()),
                };
                (Response::ok(legit::page(&ctx)), Vec::new())
            }
            SiteKind::Doorway {
                campaign,
                compromised,
                cloak: mode,
                target_store,
            } => (
                self.serve_doorway(domain, campaign, compromised, mode, target_store, req),
                Vec::new(),
            ),
            SiteKind::Storefront { store } => self.serve_store(domain, store, req),
            SiteKind::Supplier => (self.serve_supplier(req), Vec::new()),
            SiteKind::OffstageStore => (
                Response::ok(ss_web::pagegen::legit::page(&legit::LegitCtx {
                    domain: record.name.as_str(),
                    theme: legit::LegitTheme::Retailer,
                    brand: "Louis Vuitton",
                    seed: ss_types::rng::derive_seed(self.cfg.seed, record.name.as_str()),
                })),
                Vec::new(),
            ),
        }
    }
}

impl Web for World {
    /// The single choke point for fetch-time mutation. Effects resolve
    /// against the current state, which is exactly the state the fetch
    /// that produced them saw (callers apply immediately after fetching).
    fn apply(&mut self, effects: Vec<SideEffect>) {
        for effect in effects {
            match effect {
                SideEffect::OrderAllocated { host } => {
                    let store =
                        self.domains
                            .lookup(&host)
                            .and_then(|d| match self.domains.get(d).kind {
                                SiteKind::Storefront { store } => Some(store),
                                _ => None,
                            });
                    match store {
                        Some(id) => {
                            self.stores.allocate_order(id);
                        }
                        None => debug_assert!(
                            false,
                            "OrderAllocated for {host}, which is not a storefront"
                        ),
                    }
                }
            }
        }
    }
}

impl World {
    fn serve_notice(&self, domain: DomainId, seizure: Seizure) -> Response {
        let firm = &self.firms[seizure.firm.index()];
        let case = firm.cases.iter().find(|c| c.id == seizure.case);
        let (docket, brand, schedule) = match case {
            Some(c) => (
                c.docket.clone(),
                self.brand_name(c.brand).to_owned(),
                c.domains
                    .iter()
                    .map(|d| self.domains.get(*d).name.as_str().to_owned())
                    .collect::<Vec<_>>(),
            ),
            None => (format!("{}-cv-00000", 14), "Unknown".to_owned(), Vec::new()),
        };
        Response::ok(notice::page(&notice::NoticeCtx {
            domain: self.domains.get(domain).name.as_str(),
            firm: &firm.name,
            case_id: &docket,
            brand: &brand,
            seized_domains: &schedule,
        }))
    }

    fn serve_doorway(
        &self,
        domain: DomainId,
        _campaign: CampaignId,
        compromised: bool,
        mode: CloakMode,
        target_store: StoreId,
        req: &Request,
    ) -> Response {
        let name = self.domains.get(domain).name.as_str();
        let did = self.route.doorway(domain).expect("doorway kind is routed");
        let d = self.campaigns.doorway(did);
        let live = d.is_live(self.day);
        let seed = ss_types::rng::derive_seed(self.cfg.seed, name);

        // Which term does this URL carry?
        let term = req
            .url
            .query_param("key")
            .and_then(|key| {
                d.terms
                    .iter()
                    .copied()
                    .find(|t| self.engine.terms()[t.index()].text == key)
            })
            .or_else(|| d.terms.first().copied());
        let term_text = term.map(|t| self.term_text(t)).unwrap_or_default();
        let vertical = &self.verticals[d.vertical.index()];
        let brand = vertical.spec.brands.first().copied().unwrap_or("luxury");

        // Backlinks: a few sibling doorways of the same campaign.
        let backlinks: Vec<String> = self
            .campaigns
            .row(d.campaign)
            .doorways
            .iter()
            .filter(|o| o.domain != domain)
            .take(4)
            .map(|o| self.domains.get(o.domain).name.as_str().to_owned())
            .collect();
        let ctx = doorway::DoorwayCtx {
            domain: name,
            term: term_text,
            brand,
            backlinks: &backlinks,
            seed,
        };

        // A dead doorway (cleaned or cohort-retired) shows its original
        // face again — or nothing, for attacker-registered names.
        if !live {
            return if compromised {
                Response::ok(doorway::original_content(&ctx))
            } else {
                Response::not_found()
            };
        }

        // NOTE: the redirect target intentionally comes from the (possibly
        // stale) `SiteKind::Doorway::target_store`, not the campaign-side
        // doorway row — repointing updates only the campaign's state.
        let st = self.stores.row(target_store);
        let target = Url::root(self.domains.get(st.current_domain).name.clone());
        match cloak::decide(mode, compromised, &target, req, cloak::SEARCH_HOSTS) {
            ServeDecision::SeoPage => Response::ok(doorway::seo_page(&ctx)),
            ServeDecision::HttpRedirect(to) => Response::redirect(to),
            ServeDecision::SeoPageWithJsRedirect(to) => {
                Response::ok(doorway::seo_page_with_js_redirect(&ctx, &to.to_string()))
            }
            ServeDecision::IframePage {
                target,
                obfuscation,
            } => Response::ok(doorway::iframe_page(&ctx, &target.to_string(), obfuscation)),
            ServeDecision::OriginalContent => Response::ok(doorway::original_content(&ctx)),
        }
    }

    fn serve_store(
        &self,
        domain: DomainId,
        store: StoreId,
        req: &Request,
    ) -> (Response, Vec<SideEffect>) {
        let st = self.stores.row(store);
        // Former (rotated-away, unseized) domains bounce to the current one.
        if st.current_domain != domain {
            return (
                Response::redirect(Url::root(self.domains.get(st.current_domain).name.clone())),
                Vec::new(),
            );
        }
        if st.retired || st.created > self.day {
            return (Response::not_found(), Vec::new());
        }
        let template = &self.templates[st.campaign.index()];
        let brands: Vec<&str> = st
            .brands
            .iter()
            .map(|b| self.brand_names[b.index()])
            .collect();
        let ctx = storefront::StoreCtx {
            domain: self.domains.get(domain).name.as_str(),
            store_name: st.name,
            template,
            brands: &brands,
            locale: st.locale,
            merchant_id: st.merchant_id,
            seed: st.seed,
        };
        let cookies = storefront::cookies(template);
        let path = req.url.path.as_str();

        if path == "/" {
            (
                Response::ok(storefront::home_page(&ctx)).with_cookies(cookies),
                Vec::new(),
            )
        } else if let Some(idx) = path.strip_prefix("/product/") {
            let idx: u32 = idx.parse().unwrap_or(0);
            (
                Response::ok(storefront::product_page(&ctx, idx)).with_cookies(cookies),
                Vec::new(),
            )
        } else if path == "/cart" {
            (
                Response::ok(storefront::product_page(&ctx, 0)).with_cookies(cookies),
                Vec::new(),
            )
        } else if path == "/checkout" {
            // The page shows the order number this visit would be issued;
            // the counter itself only advances when the caller commits the
            // effect through `Web::apply`.
            let order = st.order_counter + 1;
            let payment_ok = self.payment_available(st.campaign, self.day);
            let body = if payment_ok {
                storefront::checkout_page(&ctx, order)
            } else {
                // Order numbers are still handed out before payment, so
                // purchase-pair sampling keeps working; only real payment
                // fails (§4.3.2 extension).
                storefront::checkout_unavailable_page(&ctx, order)
            };
            (
                Response::ok(body).with_cookies(cookies),
                vec![SideEffect::OrderAllocated {
                    host: self.domains.get(domain).name.clone(),
                }],
            )
        } else if path == "/awstats/awstats.pl" {
            if !st.awstats_public {
                return (Response::not_found(), Vec::new());
            }
            let report_month = req.url.query_param("month");
            (
                self.serve_awstats(store, report_month.as_deref()),
                Vec::new(),
            )
        } else {
            (Response::not_found(), Vec::new())
        }
    }

    fn serve_awstats(&self, store: StoreId, month: Option<&str>) -> Response {
        let st = self.stores.row(store);
        let bucket = match month {
            Some(m) => {
                let mut it = m.split('-');
                let (Some(y), Some(mm)) = (it.next(), it.next()) else {
                    return Response::not_found();
                };
                let (Ok(y), Ok(mm)) = (y.parse::<i32>(), mm.parse::<u32>()) else {
                    return Response::not_found();
                };
                st.months.iter().find(|b| b.year_month == (y, mm))
            }
            None => st.months.last(),
        };
        let Some(bucket) = bucket else {
            return Response::not_found();
        };
        let report = awstats::TrafficReport {
            period: format!("{:04}-{:02}", bucket.year_month.0, bucket.year_month.1),
            unique_visitors: bucket.visits * 7 / 10,
            visits: bucket.visits,
            pages: bucket.pages,
            hits: bucket.pages * 4,
            referrers: bucket.referrers.clone(),
            direct_visits: bucket.direct_visits,
            daily: bucket
                .daily
                .iter()
                .map(|(d, v, p)| (d.to_string(), *v, *p))
                .collect(),
        };
        let site = self.domains.get(st.current_domain).name.as_str();
        Response::ok(awstats::page(site, &report))
    }

    fn serve_supplier(&self, req: &Request) -> Response {
        match req.url.path.as_str() {
            "/" => Response::ok(supplier_pages::home_page(self.supplier.recent(50))),
            "/track" => {
                let orders: Vec<u64> = req
                    .url
                    .query_param("orders")
                    .map(|s| s.split(',').filter_map(|o| o.trim().parse().ok()).collect())
                    .unwrap_or_default();
                let (found, missing) = self.supplier.lookup(&orders);
                Response::ok(supplier_pages::lookup_page(&found, &missing))
            }
            _ => Response::not_found(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;

    fn run_world(seed: u64, until: u32) -> World {
        let mut w = World::build(ScenarioConfig::tiny(seed)).unwrap();
        w.run_until(SimDate::from_day_index(until));
        w
    }

    #[test]
    fn ticks_advance_and_orders_accumulate() {
        let w = run_world(11, ss_types::CRAWL_START_DAY + 30);
        assert_eq!(w.day.day_index(), ss_types::CRAWL_START_DAY + 31);
        // During the crawl window campaigns are active; someone sold something.
        let base_total: u64 = 0;
        let total: u64 = w.stores.iter().map(|s| s.order_counter).sum();
        assert!(total > base_total);
        // AWStats buckets exist and carry daily rows.
        let busy = w
            .stores
            .iter()
            .find(|s| !s.months.is_empty())
            .expect("some traffic");
        assert!(!busy.months.last().unwrap().daily.is_empty());
    }

    #[test]
    fn doorways_reach_serps_during_active_windows() {
        let mut w = World::build(ScenarioConfig::tiny(5)).unwrap();
        w.run_until(SimDate::from_day_index(ss_types::CRAWL_START_DAY + 10));
        let day = SimDate::from_day_index(ss_types::CRAWL_START_DAY + 10);
        let mut poisoned = 0usize;
        let mut total = 0usize;
        for v in &w.verticals {
            for &t in &v.terms {
                let serp = w.engine.serp(t, day, w.cfg.scale.serp_depth);
                total += serp.results().len();
                poisoned += serp
                    .results()
                    .iter()
                    .filter(|r| w.doorway_truth(r.domain).is_some())
                    .count();
            }
        }
        assert!(total > 0);
        assert!(poisoned > 0, "no poisoned results at all");
        let frac = poisoned as f64 / total as f64;
        assert!(frac < 0.6, "poisoning implausibly total: {frac}");
    }

    #[test]
    fn fetch_serves_every_site_kind() {
        let mut w = run_world(7, ss_types::CRAWL_START_DAY + 5);
        // Legit.
        let legit = w
            .domains
            .iter()
            .find(|r| matches!(r.kind, SiteKind::Legit { .. }))
            .map(|r| r.name.clone())
            .unwrap();
        let (resp, effects) = w.fetch(&Request::browser(Url::root(legit)));
        assert_eq!(resp.status, 200);
        assert!(effects.is_empty(), "legit pages have no side effects");

        // Storefront home sets cookies and has cart/checkout. The store
        // must still hold its serving domain: a store whose domain was
        // seized serves the notice page instead (also 200, no cookies).
        let today = w.day;
        let store = w
            .stores
            .iter()
            .find(|s| {
                !s.retired && s.created < today && w.domains.get(s.current_domain).seized.is_none()
            })
            .unwrap();
        let host = w.domains.get(store.current_domain).name.clone();
        let (resp, effects) = w.fetch(&Request::browser(Url::root(host.clone())));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.cookies.len(), 3);
        assert!(resp.body.to_ascii_lowercase().contains("checkout"));
        assert!(effects.is_empty(), "browsing the home page orders nothing");

        // Checkout allocates monotone order numbers — once applied.
        let co = Url::new(host.clone(), "/checkout", "");
        let r1 = w.fetch_apply(&Request::browser(co.clone()));
        let r2 = w.fetch_apply(&Request::browser(co.clone()));
        let n1 = extract_order(&r1.body);
        let n2 = extract_order(&r2.body);
        assert_eq!(n2, n1 + 1);

        // An unapplied checkout fetch is a pure read: the world keeps
        // quoting the same next order number.
        let (r3, fx3) = w.fetch(&Request::browser(co.clone()));
        let (r4, _) = w.fetch(&Request::browser(co));
        assert_eq!(extract_order(&r3.body), n2 + 1);
        assert_eq!(extract_order(&r4.body), n2 + 1);
        assert_eq!(fx3, vec![ss_web::SideEffect::OrderAllocated { host }]);

        // Supplier portal.
        let sup = w.domains.get(w.supplier_domain).name.clone();
        let (resp, _) = w.fetch(&Request::browser(Url::root(sup)));
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("Order Tracking"));

        // Unknown domain.
        let (resp, _) = w.fetch(&Request::browser(
            Url::parse("http://no-such-host.com/").unwrap(),
        ));
        assert_eq!(resp.status, 404);
    }

    fn extract_order(body: &str) -> u64 {
        let doc = ss_web::Document::parse(body);
        doc.by_id("order-no")
            .unwrap()
            .text_content()
            .parse()
            .unwrap()
    }

    #[test]
    fn doorway_cloaks_by_visitor_class() {
        let w = run_world(13, ss_types::CRAWL_START_DAY + 20);
        let day = w.day;
        // A live doorway.
        let (domain, _) = w
            .campaigns
            .iter()
            .flat_map(|c| c.doorways.iter())
            .find(|d| d.is_live(day))
            .map(|d| (d.domain, d.vertical))
            .expect("some live doorway");
        let host = w.domains.get(domain).name.clone();
        let url = Url::root(host);
        let (as_bot, _) = w.fetch(&Request::crawler(url.clone()));
        let (as_search_user, _) = w.fetch(&Request::browser_from(
            url.clone(),
            Url::parse("http://google.com/search?q=x").unwrap(),
        ));
        assert_eq!(as_bot.status, 200);
        // One of the cloaking signatures must show: different bytes, an HTTP
        // redirect, or an embedded payload script.
        let cloaked = as_search_user.is_redirect()
            || as_search_user.body != as_bot.body
            || as_search_user.body.contains("<script>");
        assert!(cloaked);
    }

    #[test]
    fn seizures_fire_and_stores_rotate() {
        let w = run_world(3, 240);
        let cases = w.events.cases().count();
        assert!(cases > 0, "no court cases by day 240");
        let seized = w.domains.iter().filter(|r| r.seized.is_some()).count();
        assert!(seized > 0);
        // The PHP?P= scripted seizure on day 219 triggers a reactive
        // rotation within its 1-day reaction window.
        let phpp = w.campaigns.iter().find(|c| c.name == "PHP?P=").unwrap();
        let uk_store = phpp
            .stores
            .iter()
            .copied()
            .find(|s| w.store(*s).name.contains("abercrombie uk"))
            .expect("scripted abercrombie-uk store");
        let rotations = w.events.rotations_of(uk_store);
        assert!(!rotations.is_empty(), "abercrombie-uk never rotated");
        assert_eq!(
            rotations[0].0.day_index(),
            220,
            "rotation lands a day after the seizure"
        );
        assert!(rotations[0].3, "rotation must be reactive");
    }

    #[test]
    fn seized_domain_serves_notice_with_court_doc() {
        let w = run_world(3, 240);
        let domain = w
            .domains
            .iter()
            .find(|r| r.seized.is_some() && matches!(r.kind, SiteKind::Storefront { .. }))
            .map(|r| r.id)
            .expect("a seized storefront");
        let host = w.domains.get(domain).name.clone();
        let (resp, effects) = w.fetch(&Request::browser(Url::root(host)));
        assert!(effects.is_empty(), "seizure notices allocate nothing");
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("has been seized"));
        let doc = ss_web::Document::parse(&resp.body);
        assert!(doc.by_id("court-doc").is_some());
    }

    #[test]
    fn supplier_accumulates_records_until_window_end() {
        let w = run_world(9, ss_types::SUPPLIER_END_DAY + 20);
        assert!(!w.supplier.records.is_empty());
        // Tracking dates trail the order day by at most the transit bound.
        let last = w.supplier.records.last().unwrap();
        assert!(last.date.day_index() <= w.day.day_index() + 18);
        // The bulk external volume stops with the record window, so most of
        // the ledger predates it.
        let in_window = w
            .supplier
            .records
            .iter()
            .filter(|r| r.date.day_index() <= ss_types::SUPPLIER_END_DAY + 18)
            .count();
        assert!(in_window as f64 > 0.9 * w.supplier.records.len() as f64);
    }

    #[test]
    fn world_is_deterministic_end_to_end() {
        let a = run_world(21, ss_types::CRAWL_START_DAY + 15);
        let b = run_world(21, ss_types::CRAWL_START_DAY + 15);
        let ta: u64 = a.stores.iter().map(|s| s.order_counter).sum();
        let tb: u64 = b.stores.iter().map(|s| s.order_counter).sum();
        assert_eq!(ta, tb);
        assert_eq!(a.events.all().len(), b.events.all().len());
        assert_eq!(a.supplier.records.len(), b.supplier.records.len());
    }
}

/// `World::doc_url` against the URLs the index stored before docs became
/// ids: the digests below were read from that doc table.
#[cfg(test)]
mod doc_url_tests {
    use super::*;
    use crate::scenario::ScenarioConfig;
    use ss_types::snapshot::fnv1a64;

    /// Doc count and FNV-1a of every doc URL, in doc order, each one
    /// followed by `\n`.
    fn doc_url_digest(w: &World) -> (usize, u64) {
        let n = w.engine.doc_count();
        let lines: String = (0..n)
            .map(|i| format!("{}\n", w.doc_url(DocId(i as u32))))
            .collect();
        (n, fnv1a64(lines.as_bytes()))
    }

    #[test]
    fn doc_urls_equal_the_stored_urls_tiny() {
        let w = World::build(ScenarioConfig::tiny(2014)).unwrap();
        assert_eq!(doc_url_digest(&w), (2_242, 0x2e84_6599_14a1_9173));
        let mut shapes = [0usize; 3];
        for i in 0..w.engine.doc_count() {
            let id = DocId(i as u32);
            let doc = w.engine.doc(id);
            let url = w.doc_url(id);
            let term = w.term_text(doc.term);
            assert_eq!(&url.host, w.domains.get(doc.domain).name, "{url}");
            assert_eq!(doc.page == DocPage::Root, url.is_root_page(), "{url}");
            let numbered = url.path.starts_with("/page/") && url.query.is_empty();
            match doc.page {
                DocPage::Page(n) => assert!(numbered && url.path == format!("/page/{n}"), "{url}"),
                _ => assert!(!numbered, "{url}"),
            }
            assert_eq!(
                doc.page == DocPage::TermKey,
                url.query_param("key").as_deref() == Some(term),
                "{url}"
            );
            assert_eq!(Url::parse(&url.to_string()).unwrap(), url);
            shapes[match doc.page {
                DocPage::Root => 0,
                DocPage::Page(_) => 1,
                DocPage::TermKey => 2,
            }] += 1;
        }
        assert!(
            shapes.iter().all(|&n| n > 0),
            "every page shape is indexed: {shapes:?}"
        );
    }

    #[test]
    #[ignore = "builds the paper world; CI runs it in release"]
    fn doc_urls_equal_the_stored_urls_paper() {
        let w = World::build(ScenarioConfig::paper(1)).unwrap();
        assert_eq!(doc_url_digest(&w), (565_636, 0x36df_6921_e359_c17e));
    }
}

#[cfg(test)]
mod payment_tests {
    use super::*;
    use crate::scenario::{PaymentPolicy, ScenarioConfig};

    fn policy(blocked: Vec<&str>, migration: Option<u32>) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::tiny(77);
        cfg.payment_policy = PaymentPolicy {
            enabled: true,
            start_day: ss_types::CRAWL_START_DAY + 10,
            blocked: blocked.into_iter().map(str::to_owned).collect(),
            migration_days: migration,
        };
        cfg
    }

    #[test]
    fn blocking_all_processors_freezes_customer_orders() {
        let cfg = policy(vec!["realypay", "mallpayment", "globalbill"], Some(5));
        let mut w = World::build(cfg).unwrap();
        let start = ss_types::CRAWL_START_DAY;
        w.run_until(SimDate::from_day_index(start + 9));
        let before: u64 = w.stores.iter().map(|s| s.order_counter).sum();
        w.run_until(SimDate::from_day_index(start + 30));
        let after: u64 = w.stores.iter().map(|s| s.order_counter).sum();
        // With every processor blocked and no survivor to migrate to, no
        // customer order completes after the start day.
        assert_eq!(
            before, after,
            "orders must freeze under a full payment block"
        );
    }

    #[test]
    fn migration_to_surviving_processor_restores_orders() {
        let cfg = policy(vec!["realypay"], Some(3));
        let mut w = World::build(cfg).unwrap();
        let day = SimDate::from_day_index(ss_types::CRAWL_START_DAY + 30);
        w.run_until(day);
        // Every campaign settles again: either it never used realypay, or
        // it migrated after 3 days.
        for c in w.campaigns.iter() {
            assert!(w.payment_available(c.id, day), "{} still blocked", c.name);
        }
        // But during the migration window, realypay campaigns were dark.
        let mid = SimDate::from_day_index(ss_types::CRAWL_START_DAY + 11);
        let blocked_then = w
            .campaigns
            .iter()
            .filter(|c| !w.payment_available(c.id, mid))
            .count();
        assert!(blocked_then > 0, "someone must have used realypay");
    }

    #[test]
    fn blocked_checkout_still_allocates_order_numbers() {
        let cfg = policy(vec!["realypay", "mallpayment", "globalbill"], None);
        let mut w = World::build(cfg).unwrap();
        w.run_until(SimDate::from_day_index(ss_types::CRAWL_START_DAY + 15));
        let today = w.day;
        let store = w
            .stores
            .iter()
            .find(|s| {
                !s.retired && s.created < today && w.domains.get(s.current_domain).seized.is_none()
            })
            .unwrap();
        let host = w.domains.get(store.current_domain).name.clone();
        let url = Url::new(host, "/checkout", "");
        let r1 = w.fetch_apply(&Request::browser(url.clone()));
        let r2 = w.fetch_apply(&Request::browser(url));
        assert!(
            r1.body.contains("payment-unavailable"),
            "body: {}",
            &r1.body[..r1.body.len().min(400)]
        );
        let doc1 = ss_web::Document::parse(&r1.body);
        let doc2 = ss_web::Document::parse(&r2.body);
        let n1: u64 = doc1
            .by_id("order-no")
            .unwrap()
            .text_content()
            .parse()
            .unwrap();
        let n2: u64 = doc2
            .by_id("order-no")
            .unwrap()
            .text_content()
            .parse()
            .unwrap();
        assert_eq!(n2, n1 + 1, "purchase-pair sampling must keep working");
        assert!(
            doc1.find_all("form").is_empty(),
            "no payment form when blocked"
        );
        let _ = doc2;
    }
}
