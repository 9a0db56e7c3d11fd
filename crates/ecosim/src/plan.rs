//! The tick plane's plan/commit protocol.
//!
//! Every tick stage is a **pure planner** over `&World`: it reads frozen
//! state, draws only from keyed RNG sub-streams
//! ([`ss_types::rng::stream_rng`], keyed by `(seed, stage, day, entity)`),
//! and emits an ordered [`WorldEvent`] log. [`World::apply_plan`] is the
//! single mutation choke point that replays the log sequentially — the same
//! architecture as the read plane's `Fetcher::fetch` → `Web::apply` and the
//! crawler's snapshot → `CrawlDb::apply_log`.
//!
//! Because a planner's output is a pure function of world state and the
//! stream keys, heavy planners fan out over scoped threads (traffic across
//! verticals and store shards, seizure scans across store shards) and the
//! committed world is bit-identical at any thread count.

use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ss_search::EngineOp;
use ss_types::rng::{derive_seed, stream_rng, stream_seed, unit_f64};
use ss_types::{BrandId, CaseId, DomainId, FirmId, SimDate, StoreId};

use crate::domains::{Seizure, SiteKind};
use crate::events::Event;
use crate::legal::CourtCase;
use crate::traffic;
use crate::world::{elite_draw, World};

/// Per-store search arrivals: total visits plus referrer rows
/// `(doorway host, clicks)`, merged in vertical order.
type StoreSearchVisits = HashMap<StoreId, (u64, Vec<(String, u64)>)>;

/// The five stages of one simulated day, in commit order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickStage {
    /// Campaigns push juice onto live doorway domains.
    Juice,
    /// The search engine's anti-abuse team lands due penalties.
    SearchPolicy,
    /// Brand-protection firms file seizure cases.
    Seizures,
    /// Due (reactive and scripted-proactive) store rotations execute.
    Rotations,
    /// Users search, click, browse, buy.
    Traffic,
}

impl TickStage {
    /// All stages, in the order `World::tick` runs them.
    pub const ALL: [TickStage; 5] = [
        TickStage::Juice,
        TickStage::SearchPolicy,
        TickStage::Seizures,
        TickStage::Rotations,
        TickStage::Traffic,
    ];

    /// Stable stage name (metric label and RNG stream key).
    pub fn name(self) -> &'static str {
        match self {
            TickStage::Juice => "juice",
            TickStage::SearchPolicy => "search-policy",
            TickStage::Seizures => "seizures",
            TickStage::Rotations => "rotations",
            TickStage::Traffic => "traffic",
        }
    }

    /// Cost-ledger phase path for this stage (`tick/<name>`).
    pub fn cost_path(self) -> &'static str {
        match self {
            TickStage::Juice => "tick/juice",
            TickStage::SearchPolicy => "tick/search-policy",
            TickStage::Seizures => "tick/seizures",
            TickStage::Rotations => "tick/rotations",
            TickStage::Traffic => "tick/traffic",
        }
    }
}

/// One committed world mutation, produced by a stage planner and replayed
/// by [`World::apply_plan`]. The log fully specifies the day's decisions:
/// applying it reads no RNG and makes no further choices.
#[derive(Debug, Clone, PartialEq)]
pub enum WorldEvent {
    /// A search-engine mutation (juice, demotion, hacked label), flushed
    /// through `SearchEngine::apply_batch` in plan order.
    Engine(EngineOp),
    /// Mark a doorway penalized in the campaign's ground truth.
    PenalizeDoorway {
        /// The doorway domain.
        domain: DomainId,
        /// Whether the hacked label was applied (vs. demotion only).
        labeled: bool,
    },
    /// File one court case seizing `targets` plus `bulk` offstage filler
    /// domains registered at apply time.
    FileCase {
        /// Executing firm.
        firm: FirmId,
        /// Brand the case is filed under.
        brand: BrandId,
        /// Observed storefront domains to seize.
        targets: Vec<DomainId>,
        /// Number of bulk offstage domains to register and seize.
        bulk: u32,
    },
    /// Remove every rotation due on or before the plan's day from the
    /// pending/proactive queues (the due entries are the `Rotate` events
    /// that follow in the same plan).
    DrainRotations,
    /// Rotate a store to its next backup domain (folding it if the pool
    /// is exhausted).
    Rotate {
        /// The store.
        store: StoreId,
        /// Whether this reacts to a seizure (vs. scripted-proactive).
        reactive: bool,
    },
    /// Commit one store's daily traffic: AWStats rows, order-counter
    /// advance, and supplier fulfillment for partnered campaigns.
    StoreTraffic {
        /// The store.
        store: StoreId,
        /// Total visits (search + direct).
        visits: u64,
        /// HTML page fetches.
        pages: u64,
        /// Referrer tallies `(doorway host, visits)`.
        referred: Vec<(String, u64)>,
        /// Visits carrying no referrer.
        direct: u64,
        /// Orders placed.
        orders: u64,
    },
    /// Supplier fulfillment for outside wholesale members the study never
    /// saw (§3.1.2).
    SupplierExternal {
        /// Order volume.
        orders: u64,
    },
    /// Advance the world clock to the next day.
    AdvanceDay,
}

impl WorldEvent {
    /// Stable kind tag, used to bucket trail entries in `repro diff`.
    pub fn kind(&self) -> &'static str {
        match self {
            WorldEvent::Engine(_) => "engine",
            WorldEvent::PenalizeDoorway { .. } => "penalize-doorway",
            WorldEvent::FileCase { .. } => "file-case",
            WorldEvent::DrainRotations => "drain-rotations",
            WorldEvent::Rotate { .. } => "rotate",
            WorldEvent::StoreTraffic { .. } => "store-traffic",
            WorldEvent::SupplierExternal { .. } => "supplier-external",
            WorldEvent::AdvanceDay => "advance-day",
        }
    }
}

/// One retained tick-plane event with its provenance — an entry in the
/// persisted `WorldEvent` log (`World::event_trail`) that the causal
/// `repro explain` queries walk.
#[derive(Debug, Clone, PartialEq)]
pub struct TrailEvent {
    /// Day the event was committed.
    pub day: SimDate,
    /// The tick stage that planned it.
    pub stage: &'static str,
    /// The committed mutation.
    pub event: WorldEvent,
}

impl World {
    /// Simulates the current day and advances the clock. Each stage plans
    /// against the state every earlier stage committed; all mutation goes
    /// through [`World::apply_plan`].
    pub fn tick(&mut self) {
        let today = self.day;
        for stage in TickStage::ALL {
            // Manual enter/exit (not the RAII scope): a guard would hold a
            // borrow of `self.metrics` across the `&mut self` calls below.
            // Work-only frames — stage planners may fan out internally, so
            // their heap pattern is thread-schedule-dependent.
            let started = std::time::Instant::now();
            self.metrics.cost_enter(false);
            let plan = self.plan_stage(stage, today);
            ss_obs::charge(ss_obs::WorkKind::EventsPlanned, plan.len() as u64);
            ss_obs::count!(
                self.metrics,
                "eco.tick_events",
                plan.len() as u64,
                stage = stage.name()
            );
            if self.retain_trail {
                self.retain_plan(today, stage, &plan);
            }
            self.apply_plan(today, plan);
            self.metrics
                .cost_exit(stage.cost_path(), started.elapsed().as_nanos() as u64);
        }
        self.apply_plan(today, vec![WorldEvent::AdvanceDay]);
    }

    /// Trace-plane hook: retains intervention-relevant events on the
    /// event trail. Runs on the sequential commit path between planning
    /// and apply, so its order is independent of `tick_threads`.
    fn retain_plan(&mut self, day: SimDate, stage: TickStage, plan: &[WorldEvent]) {
        for ev in plan {
            if matches!(
                ev,
                WorldEvent::PenalizeDoorway { .. }
                    | WorldEvent::FileCase { .. }
                    | WorldEvent::Rotate { .. }
            ) {
                self.event_trail.push(TrailEvent {
                    day,
                    stage: stage.name(),
                    event: ev.clone(),
                });
            }
        }
    }

    /// Runs one stage's pure planner over the current state. Calling a
    /// planner never mutates the world; the same state yields the same
    /// plan at any thread count.
    pub fn plan_stage(&self, stage: TickStage, today: SimDate) -> Vec<WorldEvent> {
        match stage {
            TickStage::Juice => self.plan_juice(today),
            TickStage::SearchPolicy => self.plan_search_policy(today),
            TickStage::Seizures => self.plan_seizures(today),
            TickStage::Rotations => self.plan_rotations(today),
            TickStage::Traffic => self.plan_traffic(today),
        }
    }

    // ---- planners ----

    /// Stage 1: juice every doorway carries today (zero when the campaign
    /// is dormant or the doorway is dead). Elite-vs-tail multipliers come
    /// from the pre-keyed [`elite_draw`], so no stream is consumed here.
    /// A columnar scan: per campaign one juice lookup, then only the
    /// liveness/vertical/domain columns of its doorway range.
    fn plan_juice(&self, today: SimDate) -> Vec<WorldEvent> {
        let dt = self.campaigns.doorway_table();
        let mut plan = Vec::with_capacity(dt.len());
        for ci in 0..self.campaigns.len() {
            let base = self.campaigns.juice_on_at(ci, today);
            for di in self.campaigns.doorway_range(ci) {
                let juice = if base > 0.0 && dt.is_live_at(di, today) {
                    // Per-doorway multiplier: elites carry full juice (they
                    // crack the top 10), the rest ride the top-100 tail.
                    let p_elite = self.verticals[dt.vertical[di].index()].elite_prob;
                    let elite = elite_draw(self.cfg.seed, dt.domain[di]) < p_elite;
                    base * if elite { 1.0 } else { 0.42 }
                } else {
                    0.0
                };
                plan.push(WorldEvent::Engine(EngineOp::SetJuice {
                    domain: dt.domain[di],
                    juice,
                }));
            }
        }
        plan
    }

    /// Stage 2: pre-scheduled penalties (demotion + hacked label) due
    /// today, looked up in the due-day index.
    fn plan_search_policy(&self, today: SimDate) -> Vec<WorldEvent> {
        let policy = &self.cfg.search_policy;
        let mut plan = Vec::new();
        let Some(due) = self.penalty_due.get(&today) else {
            return plan;
        };
        for &domain in due {
            let Some(did) = self.route.doorway(domain) else {
                continue;
            };
            if !self
                .campaigns
                .doorway_table()
                .is_live_at(did.index(), today)
            {
                continue; // doorway died before detection caught up
            }
            if policy.demote_penalty > 0.0 {
                plan.push(WorldEvent::Engine(EngineOp::Demote {
                    domain,
                    penalty: policy.demote_penalty,
                }));
            }
            if policy.apply_label {
                plan.push(WorldEvent::Engine(EngineOp::LabelHacked {
                    domain,
                    day: today,
                }));
            }
            plan.push(WorldEvent::PenalizeDoorway {
                domain,
                labeled: policy.apply_label,
            });
        }
        plan
    }

    /// Stage 3: scripted seizures land on their exact days, then each firm
    /// due to file scans the store population for targets. The planner
    /// tracks what it already seized this tick so the plan is fully
    /// specified before any of it commits.
    fn plan_seizures(&self, today: SimDate) -> Vec<WorldEvent> {
        let mut plan = Vec::new();
        let mut seized_today: HashSet<DomainId> = HashSet::new();
        let mut cases_planned: HashMap<usize, usize> = HashMap::new();

        if let Some(scripted) = self.scripted_seizures.get(&today) {
            for &(dom, firm) in scripted {
                let brand = self.firms[firm.index()]
                    .brands
                    .first()
                    .copied()
                    .unwrap_or(BrandId(0));
                seized_today.insert(dom);
                *cases_planned.entry(firm.index()).or_default() += 1;
                plan.push(WorldEvent::FileCase {
                    firm,
                    brand,
                    targets: vec![dom],
                    bulk: 0,
                });
            }
        }

        let scan_seed = derive_seed(self.cfg.seed, "tick/seizure-scan");
        for fi in 0..self.firms.len() {
            let firm = &self.firms[fi];
            if !firm.files_on(today) || firm.brands.is_empty() {
                continue;
            }
            // Rotate through the firm's brand portfolio case by case,
            // counting cases planned earlier in this same tick.
            let case_no = firm.cases.len() + cases_planned.get(&fi).copied().unwrap_or(0);
            let brand = firm.brands[case_no % firm.brands.len()];
            let targets = self.scan_seizure_targets(fi, brand, today, scan_seed, &seized_today);
            // Bulk offstage filler: the court schedules' long tail.
            let bulk = ((targets.len().max(1)) as f64 / firm.policy.observed_fraction
                * self.cfg.scale.entity_scale)
                .min(800.0) as u32;
            if targets.is_empty() && bulk == 0 {
                continue;
            }
            seized_today.extend(targets.iter().copied());
            *cases_planned.entry(fi).or_default() += 1;
            plan.push(WorldEvent::FileCase {
                firm: FirmId::from_index(fi),
                brand,
                targets,
                bulk,
            });
        }
        plan
    }

    /// Scans stores for a firm's seizure targets, sharded across the tick
    /// worker pool and merged back in store order. Each `(firm, store)`
    /// pair gets one keyed draw, so the verdict is independent of scan
    /// order and thread schedule.
    fn scan_seizure_targets(
        &self,
        fi: usize,
        brand: BrandId,
        today: SimDate,
        scan_seed: u64,
        seized_today: &HashSet<DomainId>,
    ) -> Vec<DomainId> {
        let policy = &self.firms[fi].policy;
        let day = today.day_index();
        let ranges = shard_ranges(self.tick_threads, self.stores.len());
        // Columnar scan: touches only the retired/created/brands/current-
        // domain/history columns instead of walking whole store structs.
        let st = &self.stores;
        let hits = shard_map(self.tick_threads, ranges.len(), |ri| {
            let mut found = Vec::new();
            for si in ranges[ri].clone() {
                if st.retired[si] || st.created[si] > today || !st.brands_of(si).contains(&brand) {
                    continue;
                }
                let cur = st.current_domain[si];
                if self.domains.seizure_of(cur).is_some() || seized_today.contains(&cur) {
                    continue;
                }
                let since = st.domain_history[si]
                    .last()
                    .map(|(d, _)| *d)
                    .unwrap_or(st.created[si]);
                let age = today.days_since(since);
                if age < i64::from(policy.target_lifetime) / 2 {
                    continue;
                }
                // Firms find a store with probability rising in its age.
                let p = (age as f64 / f64::from(policy.target_lifetime.max(1))).min(1.0) * 0.35;
                let key = ((fi as u64) << 32) | si as u64;
                if unit_f64(stream_seed(scan_seed, day, key)) < p {
                    found.push(cur);
                }
            }
            found
        });
        hits.into_iter().flatten().collect()
    }

    /// Stage 4: rotations due today (reactive queue entries at or past
    /// their due day, plus exact-day scripted proactive ones).
    fn plan_rotations(&self, today: SimDate) -> Vec<WorldEvent> {
        let mut due: Vec<(StoreId, bool)> = Vec::new();
        for (_, stores) in self.pending_rotations.range(..=today) {
            due.extend(stores.iter().map(|&s| (s, true)));
        }
        if let Some(stores) = self.proactive_rotations.get(&today) {
            due.extend(stores.iter().map(|&s| (s, false)));
        }
        if due.is_empty() {
            return Vec::new();
        }
        let mut plan = vec![WorldEvent::DrainRotations];
        plan.extend(
            due.into_iter()
                .map(|(store, reactive)| WorldEvent::Rotate { store, reactive }),
        );
        plan
    }

    /// Stage 5: the day's traffic. Per-term click sweeps fan out over
    /// verticals, the per-store fold fans out over store shards; both
    /// draw from per-entity keyed streams and merge in index order.
    fn plan_traffic(&self, today: SimDate) -> Vec<WorldEvent> {
        let day = today.day_index();
        let term_seed = derive_seed(self.cfg.seed, "tick/traffic-terms");
        let store_seed = derive_seed(self.cfg.seed, "tick/traffic-stores");

        // Phase A: rank-biased clicks per (vertical, term), in parallel.
        let per_vertical = shard_map(self.tick_threads, self.verticals.len(), |vi| {
            self.plan_vertical_clicks(vi, today, term_seed)
        });
        // store → (search visits, referred[(host, n)]), merged in vertical
        // order so referrer rows keep a deterministic order.
        let mut store_visits: StoreSearchVisits = HashMap::new();
        for clicks in per_vertical {
            for tc in clicks {
                let entry = store_visits.entry(tc.store).or_default();
                entry.0 += tc.clicks;
                if let Some(referral) = tc.referred {
                    entry.1.push(referral);
                }
            }
        }

        // Phase B: fold visits into stores over shards, merged in store
        // order: orders, AWStats, supplier fulfillment.
        let ranges = shard_ranges(self.tick_threads, self.stores.len());
        let per_shard = shard_map(self.tick_threads, ranges.len(), |ri| {
            let mut out = Vec::new();
            for si in ranges[ri].clone() {
                if let Some(e) = self.plan_store_traffic(si, today, store_seed, &store_visits) {
                    out.push(e);
                }
            }
            out
        });
        let mut plan: Vec<WorldEvent> = per_shard.into_iter().flatten().collect();

        // The supplier also serves outside wholesale members the study
        // never saw (§3.1.2: the portal "support[s] outside sales on an
        // á la carte basis"). Stops with the record window.
        if today.day_index() <= ss_types::SUPPLIER_END_DAY {
            let mut rng = stream_rng(derive_seed(self.cfg.seed, "tick/supplier-external"), day, 0);
            plan.push(WorldEvent::SupplierExternal {
                orders: traffic::poisson(&mut rng, 900.0 * self.cfg.scale.entity_scale.max(0.02)),
            });
        }
        plan
    }

    /// One vertical's term sweep: impressions, rank-biased clicks, and
    /// referrer draws, all from the per-term keyed stream.
    fn plan_vertical_clicks(&self, vi: usize, today: SimDate, term_seed: u64) -> Vec<TermClicks> {
        let v = &self.verticals[vi];
        let depth = self.cfg.scale.serp_depth;
        let deterrence = self.cfg.search_policy.label_deterrence;
        let lambda = self.cfg.impressions_per_term * v.popularity;
        let day = today.day_index();
        // All shards of a tick read the same published epoch: id-based
        // SERPs, (term, day)-cached, no URL clones on this hot path.
        let epoch = self.engine.epoch();
        let mut out = Vec::new();
        for &term in &v.terms {
            let mut rng = stream_rng(term_seed, day, term.index() as u64);
            let impressions = traffic::poisson(&mut rng, lambda);
            if impressions == 0 {
                continue;
            }
            let serp = epoch.ranked(term, today, depth);
            for r in serp.results() {
                // Branchless route probe, then raw doorway/store columns.
                let Some(did) = self.route.doorway(r.domain) else {
                    continue;
                };
                let dt = self.campaigns.doorway_table();
                let di = did.index();
                if !dt.is_live_at(di, today) {
                    continue;
                }
                let mut rate = traffic::ctr(r.rank);
                if r.hacked_label {
                    rate *= 1.0 - deterrence;
                }
                let clicks = traffic::binomial(&mut rng, impressions, rate);
                if clicks == 0 {
                    continue;
                }
                // Click lands on the doorway; the cloak forwards it to
                // the store unless the store's domain is seized.
                let store = dt.target_store[di];
                let si = store.index();
                if self.stores.retired[si]
                    || self.stores.created[si] > today
                    || self
                        .domains
                        .seizure_of(self.stores.current_domain[si])
                        .is_some()
                {
                    continue; // notice page or dead store: traffic lost
                }
                let referred = traffic::binomial(&mut rng, clicks, self.cfg.referrer_rate);
                out.push(TermClicks {
                    store,
                    clicks,
                    referred: (referred > 0).then(|| {
                        (
                            self.domains.get(r.domain).name.as_str().to_owned(),
                            referred,
                        )
                    }),
                });
            }
        }
        out
    }

    /// One store's daily fold: direct visits, page fetches, conversions,
    /// organic orders, payment gating — all from the per-store stream.
    fn plan_store_traffic(
        &self,
        si: usize,
        today: SimDate,
        store_seed: u64,
        store_visits: &StoreSearchVisits,
    ) -> Option<WorldEvent> {
        if self.stores.retired[si] || self.stores.created[si] > today {
            return None;
        }
        let store = StoreId::from_index(si);
        let mut rng = stream_rng(store_seed, today.day_index(), si as u64);
        let (search_visits, referred) =
            store_visits.get(&store).cloned().unwrap_or((0, Vec::new()));
        let seized = self
            .domains
            .seizure_of(self.stores.current_domain[si])
            .is_some();
        let direct_visits = if seized {
            0
        } else {
            traffic::poisson(&mut rng, self.cfg.organic_orders_per_day * 12.0)
        };
        let visits = search_visits + direct_visits;
        let referred_total: u64 = referred.iter().map(|(_, n)| n).sum();
        let direct = visits - referred_total.min(visits);
        let pages = traffic::poisson(&mut rng, visits as f64 * self.cfg.pages_per_visit);
        let mut orders = traffic::binomial(&mut rng, visits, self.cfg.conversion_rate)
            + if seized {
                0
            } else {
                traffic::poisson(&mut rng, self.cfg.organic_orders_per_day * 0.12)
            };
        // Payment intervention: customers cannot complete checkout, so
        // no order numbers are consumed by sales (§4.3.2 extension).
        if !self.payment_available(self.stores.campaign[si], today) {
            orders = 0;
        }
        Some(WorldEvent::StoreTraffic {
            store,
            visits,
            pages,
            referred,
            direct,
            orders,
        })
    }

    // ---- the reducer ----

    /// The tick plane's single mutation choke point: replays a stage plan
    /// sequentially, in plan order. Search-engine ops are batched through
    /// `SearchEngine::apply_batch` (nothing in a plan reads the engine, so
    /// the flush point is unobservable).
    pub fn apply_plan(&mut self, day: SimDate, plan: Vec<WorldEvent>) {
        // No-op outside a cost frame; under `tick` it lands on the stage.
        ss_obs::charge(ss_obs::WorkKind::EventsApplied, plan.len() as u64);
        let mut engine_ops: Vec<EngineOp> = Vec::new();
        for event in plan {
            match event {
                WorldEvent::Engine(op) => engine_ops.push(op),
                WorldEvent::PenalizeDoorway { domain, labeled } => {
                    let Some(did) = self.route.doorway(domain) else {
                        continue;
                    };
                    self.campaigns.penalize_doorway(did, day);
                    ss_obs::count!(self.metrics, "eco.doorways_penalized");
                    self.events.push(Event::DoorwayPenalized {
                        domain,
                        day,
                        labeled,
                    });
                }
                WorldEvent::FileCase {
                    firm,
                    brand,
                    targets,
                    bulk,
                } => {
                    let mut domains = targets;
                    for b in 0..bulk {
                        let name = format!("bulk-{}-{}-{}.com", firm.index(), day.day_index(), b);
                        let id = self
                            .domains
                            .register_unique(&name, SiteKind::OffstageStore, day);
                        domains.push(id);
                    }
                    if !domains.is_empty() {
                        self.execute_case(firm, brand, day, domains);
                    }
                }
                WorldEvent::DrainRotations => {
                    let due: Vec<SimDate> = self
                        .pending_rotations
                        .range(..=day)
                        .map(|(d, _)| *d)
                        .collect();
                    for d in due {
                        self.pending_rotations.remove(&d);
                    }
                    self.proactive_rotations.remove(&day);
                }
                WorldEvent::Rotate { store, reactive } => self.apply_rotation(day, store, reactive),
                WorldEvent::StoreTraffic {
                    store,
                    visits,
                    pages,
                    referred,
                    direct,
                    orders,
                } => {
                    ss_obs::count!(self.metrics, "eco.store_visits", visits);
                    ss_obs::count!(self.metrics, "eco.orders", orders);
                    self.stores.add_orders(store, orders);
                    self.stores
                        .record_traffic(store, day, visits, pages, &referred, direct);
                    let campaign = self.stores.campaign[store.index()];
                    if orders > 0 && self.campaigns.row(campaign).supplier_partner {
                        self.supplier.fulfill(store, day, orders);
                    }
                }
                WorldEvent::SupplierExternal { orders } => {
                    self.supplier.fulfill(StoreId(u32::MAX), day, orders);
                }
                WorldEvent::AdvanceDay => self.day = day + 1,
            }
        }
        self.engine.apply_batch(engine_ops);
    }

    fn apply_rotation(&mut self, day: SimDate, store: StoreId, reactive: bool) {
        if self.stores.retired[store.index()] {
            return;
        }
        match self.stores.rotate_domain(store, day) {
            Some((from, to)) => {
                ss_obs::count!(self.metrics, "eco.store_rotations", 1, reactive = reactive);
                self.events.push(Event::StoreRotated {
                    store,
                    day,
                    from,
                    to,
                    reactive,
                });
            }
            None => {
                ss_obs::count!(self.metrics, "eco.stores_folded");
                // Pool exhausted: the store folds; its doorways re-point
                // to a sibling store in the same campaign if one lives.
                self.stores.retire(store);
                let campaign = self.stores.campaign[store.index()];
                let sibling = self
                    .campaigns
                    .row(campaign)
                    .stores
                    .iter()
                    .copied()
                    .find(|s| *s != store && !self.stores.retired[s.index()]);
                if let Some(sib) = sibling {
                    self.campaigns.repoint_doorways(campaign, store, sib);
                }
            }
        }
    }

    fn execute_case(
        &mut self,
        firm: FirmId,
        brand: BrandId,
        today: SimDate,
        domains: Vec<DomainId>,
    ) {
        let case = CaseId(self.next_case);
        self.next_case += 1;
        ss_obs::count!(self.metrics, "eco.seizure_cases");
        ss_obs::count!(self.metrics, "eco.domains_seized", domains.len());
        ss_obs::observe!(self.metrics, "eco.case_size", domains.len());
        for &d in &domains {
            self.domains.seize(
                d,
                Seizure {
                    day: today,
                    case,
                    firm,
                },
            );
            // Stores whose current domain was seized schedule a reactive
            // rotation after the campaign's reaction delay.
            if let SiteKind::Storefront { store } = self.domains.kind_of(d) {
                let si = store.index();
                if self.stores.current_domain[si] == d && !self.stores.retired[si] {
                    let delay = self.campaigns.row(self.stores.campaign[si]).reaction_days;
                    self.pending_rotations
                        .entry(today + delay)
                        .or_default()
                        .push(store);
                }
            }
        }
        let docket = self.firms[firm.index()].next_docket(today);
        self.firms[firm.index()].cases.push(CourtCase {
            id: case,
            firm,
            brand,
            docket,
            day: today,
            domains: domains.clone(),
        });
        self.events.push(Event::CaseFiled {
            firm,
            case,
            day: today,
            domains,
        });
    }
}

/// One (term, SERP slot) click outcome from the traffic planner's phase A.
struct TermClicks {
    store: StoreId,
    clicks: u64,
    referred: Option<(String, u64)>,
}

/// Runs `f(0..n)` on the tick worker pool (serial when `threads <= 1`),
/// returning results in index order regardless of completion order — the
/// same work-stealing-counter idiom as the crawler's vertical fan-out.
fn shard_map<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    crossbeam::thread::scope(|s| {
        for _ in 0..threads.min(n) {
            s.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(i);
                slots.lock().expect("no worker panicked holding the lock")[i] = Some(out);
            });
        }
    })
    .expect("tick worker panicked");
    slots
        .into_inner()
        .expect("workers joined")
        .into_iter()
        .map(|slot| slot.expect("every shard produced output"))
        .collect()
}

/// Splits `0..n` into contiguous shard ranges sized for the worker pool
/// (a few shards per worker so stragglers rebalance).
fn shard_ranges(threads: usize, n: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let shards = if threads <= 1 {
        1
    } else {
        (threads * 4).min(n)
    };
    let chunk = n.div_ceil(shards);
    (0..shards)
        .map(|i| (i * chunk).min(n)..((i + 1) * chunk).min(n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;

    fn run_world(threads: usize, seed: u64, until: u32) -> World {
        let mut w = World::build(ScenarioConfig::tiny(seed)).unwrap();
        w.tick_threads = threads;
        w.run_until(SimDate::from_day_index(until));
        w
    }

    #[test]
    fn world_is_bit_identical_across_tick_thread_counts() {
        // Past the firm cadence and the scripted day-219 seizure, so every
        // stage (penalties, cases, rotations, traffic) has fired.
        let until = 230;
        let base = run_world(1, 3, until);
        let fp = base.state_fingerprint();
        assert!(
            base.events.cases().count() > 0 && !base.supplier.records.is_empty(),
            "run too short to exercise the tick stages"
        );
        for threads in [2, 8] {
            let w = run_world(threads, 3, until);
            assert_eq!(
                w.events.all(),
                base.events.all(),
                "event log diverged at {threads} threads"
            );
            assert_eq!(
                w.metrics.metrics_json(),
                base.metrics.metrics_json(),
                "eco.* metrics diverged at {threads} threads"
            );
            assert_eq!(
                w.state_fingerprint(),
                fp,
                "world state diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn planners_are_pure_functions_of_world_state() {
        let w = run_world(1, 11, ss_types::CRAWL_START_DAY + 3);
        let today = w.day;
        for stage in TickStage::ALL {
            assert_eq!(
                w.plan_stage(stage, today),
                w.plan_stage(stage, today),
                "{} planner is not deterministic over frozen state",
                stage.name()
            );
        }
        // Planning must not have mutated anything.
        let fp = w.state_fingerprint();
        for stage in TickStage::ALL {
            let _ = w.plan_stage(stage, today);
        }
        assert_eq!(w.state_fingerprint(), fp);
    }

    #[test]
    fn shard_ranges_cover_exactly_once() {
        for threads in [1, 2, 3, 8] {
            for n in [0usize, 1, 5, 17, 100] {
                let ranges = shard_ranges(threads, n);
                let covered: Vec<usize> = ranges.iter().flat_map(|r| r.clone()).collect();
                assert_eq!(covered, (0..n).collect::<Vec<_>>(), "{threads}/{n}");
            }
        }
    }

    #[test]
    fn shard_map_preserves_index_order() {
        let out = shard_map(4, 33, |i| i * 7);
        assert_eq!(out, (0..33).map(|i| i * 7).collect::<Vec<_>>());
    }
}
