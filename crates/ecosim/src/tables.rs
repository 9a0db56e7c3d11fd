//! Component tables: struct-of-arrays storage for the world's entities,
//! and their only representation.
//!
//! The entity plane mirrors what the crawl database does for PSRs with
//! `PsrStore`: one typed column per field, dense ids as row indices, and
//! two access disciplines layered on top:
//!
//! * **Row views** ([`StoreRow`], [`CampaignRow`], [`DoorwayRow`]) — cheap
//!   `Copy` structs of column references, built on demand. Use these
//!   everywhere ergonomics matter: report paths, analysis accessors,
//!   tests. Strings stay borrowed; nothing is cloned until a report
//!   boundary actually needs an owned value.
//! * **Columnar scans** — the tick planners in [`crate::plan`] iterate the
//!   raw columns (`pub(crate)`) directly, touching only the fields a scan
//!   needs. A seizure scan reads four columns of a few bytes each instead
//!   of walking whole nested structs.
//!
//! Rows enter a table one way. World generation hands `push` a creation
//! record ([`NewStore`], [`NewCampaign`], [`NewDoorway`]) holding only the
//! fields fixed at creation; the table assigns the id and starts the state
//! the tick mutates (domain history, order ledger, traffic log, penalty,
//! retired flag) itself. Checkpoints bypass the records: `write_rows`
//! writes each row from its view and `read_rows` decodes the bytes straight
//! back into the columns (the `world` frame's campaign and store sections).
//!
//! Id discipline: `StoreId`, `CampaignId`, `DoorwayId` and `DomainId` are
//! dense indices into their tables. Doorways live in one global
//! [`DoorwayTable`] owned by the [`CampaignTable`]; each campaign's fleet
//! is a contiguous row range (world generation builds one campaign at a
//! time), so a campaign's doorways are a [`DoorwaySlice`] — two ints —
//! and a domain routes to its doorway through [`DomainRoute`], a dense
//! `Vec` lookup instead of a `HashMap`.

use ss_types::snapshot::{Reader, SnapshotError, Writer};
use ss_types::{
    BrandId, CampaignId, DomainId, DoorwayId, Interner, LocaleId, SimDate, StoreId, TermId,
    VerticalId,
};
use ss_web::cloak::CloakMode;

use crate::campaign::ActivityWindow;
use crate::snapshot::{get_cloak, put_cloak};
use crate::store::MonthStats;

// ---- stores ----

/// Struct-of-arrays storage for every store in the world.
///
/// Fixed-at-creation, fixed-width fields are plain columns; per-store
/// growable collections (domain history, backup pool, AWStats months) are
/// `Vec<Vec<…>>` columns; brand portfolios are flattened into one arena
/// with prefix offsets; locales are interned into a shared table and
/// stored as a [`LocaleId`] column.
#[derive(Debug, Default)]
pub struct StoreTable {
    pub(crate) campaign: Vec<CampaignId>,
    name: Vec<String>,
    /// Flattened brand portfolios; store `i` owns
    /// `brands[brands_off[i] as usize..brands_off[i + 1] as usize]`.
    brands: Vec<BrandId>,
    brands_off: Vec<u32>,
    pub(crate) locale: Vec<LocaleId>,
    locales: Interner,
    pub(crate) current_domain: Vec<DomainId>,
    pub(crate) domain_history: Vec<Vec<(SimDate, DomainId)>>,
    backup_pool: Vec<Vec<DomainId>>,
    pub(crate) order_counter: Vec<u64>,
    orders_accrued: Vec<u64>,
    merchant_id: Vec<String>,
    awstats_public: Vec<bool>,
    pub(crate) created: Vec<SimDate>,
    months: Vec<Vec<MonthStats>>,
    seed: Vec<u64>,
    pub(crate) retired: Vec<bool>,
}

/// Borrowed view of one store row. `Copy`; strings resolve to `&str` at
/// view construction and are cloned only where a report boundary needs an
/// owned value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreRow<'a> {
    /// Id (row index).
    pub id: StoreId,
    /// Operating campaign.
    pub campaign: CampaignId,
    /// Display name.
    pub name: &'a str,
    /// Brands on sale.
    pub brands: &'a [BrandId],
    /// Locale ("us", "uk", …), resolved from the shared intern table.
    pub locale: &'a str,
    /// Current serving domain.
    pub current_domain: DomainId,
    /// Full domain history `(first_day, domain)`, current last.
    pub domain_history: &'a [(SimDate, DomainId)],
    /// Backup domains not yet used.
    pub backup_pool: &'a [DomainId],
    /// Monotone order counter.
    pub order_counter: u64,
    /// Orders accrued during the simulation.
    pub orders_accrued: u64,
    /// Merchant id with the payment processor.
    pub merchant_id: &'a str,
    /// Whether the AWStats report is publicly reachable.
    pub awstats_public: bool,
    /// Day the store went live.
    pub created: SimDate,
    /// Monthly traffic stats, newest last.
    pub months: &'a [MonthStats],
    /// Per-store render seed.
    pub seed: u64,
    /// Whether the campaign has stopped operating this store.
    pub retired: bool,
}

/// The fields of a store fixed at creation — what world generation hands
/// [`StoreTable::push`].
#[derive(Debug, Clone)]
pub struct NewStore {
    /// Operating campaign.
    pub campaign: CampaignId,
    /// Display name.
    pub name: String,
    /// Brands on sale.
    pub brands: Vec<BrandId>,
    /// Locale ("us", "uk", …) — campaigns run localized variants (§3.1.2).
    pub locale: String,
    /// First serving domain, which opens the domain history.
    pub domain: DomainId,
    /// Backup domains pre-registered against seizures.
    pub backup_pool: Vec<DomainId>,
    /// Starting value of the monotone order counter.
    pub order_counter: u64,
    /// Merchant id with the payment processor.
    pub merchant_id: String,
    /// Whether the AWStats report is publicly reachable (§4.4: 647 of
    /// thousands of stores leaked theirs).
    pub awstats_public: bool,
    /// Day the store went live.
    pub created: SimDate,
    /// Per-store render seed.
    pub seed: u64,
}

impl StoreRow<'_> {
    /// The monthly bucket covering `day`, if recorded.
    pub fn month_for(&self, day: SimDate) -> Option<&MonthStats> {
        let (y, m, _) = day.ymd();
        self.months.iter().find(|b| b.year_month == (y, m))
    }
}

fn put_month(w: &mut Writer, m: &MonthStats) {
    w.put_i64(i64::from(m.year_month.0));
    w.put_u32(m.year_month.1);
    w.put_u64(m.visits);
    w.put_u64(m.pages);
    w.put_seq(&m.referrers, |w, (host, n)| {
        w.put_str(host);
        w.put_u64(*n);
    });
    w.put_u64(m.direct_visits);
    w.put_seq(&m.daily, |w, (day, visits, pages)| {
        w.put_date(*day);
        w.put_u64(*visits);
        w.put_u64(*pages);
    });
}

fn get_month(r: &mut Reader<'_>) -> Result<MonthStats, SnapshotError> {
    Ok(MonthStats {
        year_month: (r.get_i64()? as i32, r.get_u32()?),
        visits: r.get_u64()?,
        pages: r.get_u64()?,
        referrers: r.get_seq(|r| Ok((r.get_str()?, r.get_u64()?)))?,
        direct_visits: r.get_u64()?,
        daily: r.get_seq(|r| Ok((r.get_date()?, r.get_u64()?, r.get_u64()?)))?,
    })
}

impl StoreTable {
    /// Number of stores.
    pub fn len(&self) -> usize {
        self.campaign.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.campaign.is_empty()
    }

    /// Appends a store and returns its id (the next row index). The store
    /// starts with a one-entry domain history, an empty order ledger and
    /// traffic log, and is not retired.
    pub fn push(&mut self, s: NewStore) -> StoreId {
        let id = StoreId::from_index(self.len());
        if self.brands_off.is_empty() {
            self.brands_off.push(0);
        }
        self.campaign.push(s.campaign);
        self.name.push(s.name);
        self.brands.extend_from_slice(&s.brands);
        self.brands_off.push(self.brands.len() as u32);
        self.locale.push(LocaleId(self.locales.intern(&s.locale)));
        self.current_domain.push(s.domain);
        self.domain_history.push(vec![(s.created, s.domain)]);
        self.backup_pool.push(s.backup_pool);
        self.order_counter.push(s.order_counter);
        self.orders_accrued.push(0);
        self.merchant_id.push(s.merchant_id);
        self.awstats_public.push(s.awstats_public);
        self.created.push(s.created);
        self.months.push(Vec::new());
        self.seed.push(s.seed);
        self.retired.push(false);
        id
    }

    /// Borrowed view of row `id`.
    pub fn row(&self, id: StoreId) -> StoreRow<'_> {
        self.get(id.index())
    }

    /// Borrowed view of raw row index `i`.
    pub fn get(&self, i: usize) -> StoreRow<'_> {
        StoreRow {
            id: StoreId::from_index(i),
            campaign: self.campaign[i],
            name: &self.name[i],
            brands: self.brands_of(i),
            locale: self.locales.resolve(self.locale[i].0),
            current_domain: self.current_domain[i],
            domain_history: &self.domain_history[i],
            backup_pool: &self.backup_pool[i],
            order_counter: self.order_counter[i],
            orders_accrued: self.orders_accrued[i],
            merchant_id: &self.merchant_id[i],
            awstats_public: self.awstats_public[i],
            created: self.created[i],
            months: &self.months[i],
            seed: self.seed[i],
            retired: self.retired[i],
        }
    }

    /// Iterates row views in id order.
    pub fn iter(&self) -> impl Iterator<Item = StoreRow<'_>> {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Brand portfolio of raw row `i` (columnar-scan access).
    pub(crate) fn brands_of(&self, i: usize) -> &[BrandId] {
        &self.brands[self.brands_off[i] as usize..self.brands_off[i + 1] as usize]
    }

    /// The shared locale intern table.
    pub fn locales(&self) -> &Interner {
        &self.locales
    }

    /// Writes every row in id order — the `world` frame's store section.
    pub(crate) fn write_rows(&self, w: &mut Writer) {
        w.put_len(self.len());
        for s in self.iter() {
            w.put_u32(s.campaign.0);
            w.put_str(s.name);
            w.put_seq(s.brands, |w, b| w.put_u32(b.0));
            w.put_str(s.locale);
            w.put_u32(s.current_domain.0);
            w.put_seq(s.domain_history, |w, (day, dom)| {
                w.put_date(*day);
                w.put_u32(dom.0);
            });
            w.put_seq(s.backup_pool, |w, d| w.put_u32(d.0));
            w.put_u64(s.order_counter);
            w.put_u64(s.orders_accrued);
            w.put_str(s.merchant_id);
            w.put_bool(s.awstats_public);
            w.put_date(s.created);
            w.put_seq(s.months, put_month);
            w.put_u64(s.seed);
            w.put_bool(s.retired);
        }
    }

    /// Decodes rows written by [`StoreTable::write_rows`] straight into
    /// the columns.
    pub(crate) fn read_rows(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let mut t = StoreTable {
            brands_off: vec![0],
            ..StoreTable::default()
        };
        for _ in 0..r.get_len()? {
            t.campaign.push(CampaignId(r.get_u32()?));
            t.name.push(r.get_str()?);
            for _ in 0..r.get_len()? {
                t.brands.push(BrandId(r.get_u32()?));
            }
            t.brands_off.push(t.brands.len() as u32);
            let locale = r.get_str()?;
            t.locale.push(LocaleId(t.locales.intern(&locale)));
            t.current_domain.push(DomainId(r.get_u32()?));
            t.domain_history
                .push(r.get_seq(|r| Ok((r.get_date()?, DomainId(r.get_u32()?))))?);
            t.backup_pool
                .push(r.get_seq(|r| Ok(DomainId(r.get_u32()?)))?);
            t.order_counter.push(r.get_u64()?);
            t.orders_accrued.push(r.get_u64()?);
            t.merchant_id.push(r.get_str()?);
            t.awstats_public.push(r.get_bool()?);
            t.created.push(r.get_date()?);
            t.months.push(r.get_seq(get_month)?);
            t.seed.push(r.get_u64()?);
            t.retired.push(r.get_bool()?);
        }
        Ok(t)
    }

    // ---- mutators (the apply-plan choke points) ----

    /// Allocates the next order number (monotonically increasing — the
    /// invariant the purchase-pair technique rests on).
    pub fn allocate_order(&mut self, id: StoreId) -> u64 {
        let i = id.index();
        self.order_counter[i] += 1;
        self.orders_accrued[i] += 1;
        self.order_counter[i]
    }

    /// Bulk-advances the counter by `n` customer orders.
    pub fn add_orders(&mut self, id: StoreId, n: u64) {
        let i = id.index();
        self.order_counter[i] += n;
        self.orders_accrued[i] += n;
    }

    /// Records a day of traffic into the right monthly bucket.
    pub fn record_traffic(
        &mut self,
        id: StoreId,
        day: SimDate,
        visits: u64,
        pages: u64,
        referred: &[(String, u64)],
        direct: u64,
    ) {
        let months = &mut self.months[id.index()];
        let (y, m, _) = day.ymd();
        if months.last().map(|b| b.year_month) != Some((y, m)) {
            months.push(MonthStats {
                year_month: (y, m),
                ..MonthStats::default()
            });
        }
        let bucket = months.last_mut().expect("just ensured");
        bucket.visits += visits;
        bucket.pages += pages;
        bucket.direct_visits += direct;
        for (host, n) in referred {
            bucket.add_referrer(host, *n);
        }
        bucket.daily.push((day, visits, pages));
    }

    /// Rotates to the next backup domain; returns `(old, new)` if a backup
    /// was available.
    pub fn rotate_domain(&mut self, id: StoreId, day: SimDate) -> Option<(DomainId, DomainId)> {
        let i = id.index();
        if self.backup_pool[i].is_empty() {
            return None;
        }
        let next = self.backup_pool[i].remove(0);
        let old = self.current_domain[i];
        self.current_domain[i] = next;
        self.domain_history[i].push((day, next));
        Some((old, next))
    }

    /// Marks the store retired.
    pub fn retire(&mut self, id: StoreId) {
        self.retired[id.index()] = true;
    }

    /// Scripted-beat override: exposes the AWStats report.
    pub fn set_awstats_public(&mut self, id: StoreId, public: bool) {
        self.awstats_public[id.index()] = public;
    }

    /// Scripted-beat override: renames the store.
    pub fn set_name(&mut self, id: StoreId, name: &str) {
        self.name[id.index()] = name.to_owned();
    }

    /// Scripted-beat override: re-localizes the store.
    pub fn set_locale(&mut self, id: StoreId, locale: &str) {
        self.locale[id.index()] = LocaleId(self.locales.intern(locale));
    }
}

// ---- doorways ----

/// Struct-of-arrays storage for every doorway in the world, owned by the
/// [`CampaignTable`]. Rows are contiguous per campaign, in build order.
#[derive(Debug, Default)]
pub struct DoorwayTable {
    pub(crate) campaign: Vec<CampaignId>,
    pub(crate) domain: Vec<DomainId>,
    pub(crate) vertical: Vec<VerticalId>,
    pub(crate) target_store: Vec<StoreId>,
    pub(crate) live_from: Vec<SimDate>,
    pub(crate) live_until: Vec<SimDate>,
    pub(crate) penalized: Vec<Option<SimDate>>,
    /// Flattened term targets; doorway `i` owns
    /// `terms[terms_off[i] as usize..terms_off[i + 1] as usize]`.
    terms: Vec<TermId>,
    terms_off: Vec<u32>,
}

/// Borrowed view of one doorway row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DoorwayRow<'a> {
    /// Id (row index in the global doorway table).
    pub id: DoorwayId,
    /// Operating campaign.
    pub campaign: CampaignId,
    /// The doorway's domain.
    pub domain: DomainId,
    /// Terms it targets (each indexed as a separate page).
    pub terms: &'a [TermId],
    /// Vertical the terms belong to.
    pub vertical: VerticalId,
    /// The store it funnels to (updated on rotation).
    pub target_store: StoreId,
    /// Day it was compromised / registered and SEO started.
    pub live_from: SimDate,
    /// Day it stops redirecting (cohort retirement), exclusive.
    pub live_until: SimDate,
    /// Whether the search engine has penalized it, and when.
    pub penalized: Option<SimDate>,
}

/// The fields of a doorway fixed at creation — what world generation hands
/// [`CampaignTable::push_doorway`]. Doorways start unpenalized.
#[derive(Debug, Clone)]
pub struct NewDoorway {
    /// The doorway's domain.
    pub domain: DomainId,
    /// Terms it targets (each indexed as a separate page).
    pub terms: Vec<TermId>,
    /// Vertical the terms belong to.
    pub vertical: VerticalId,
    /// The store it first funnels to.
    pub target_store: StoreId,
    /// Day it was compromised / registered and SEO started.
    pub live_from: SimDate,
    /// Day it stops redirecting (cohort retirement), exclusive.
    pub live_until: SimDate,
}

impl DoorwayRow<'_> {
    /// Whether the doorway actively serves the campaign on `day`.
    pub fn is_live(&self, day: SimDate) -> bool {
        self.live_from <= day && day < self.live_until
    }
}

impl DoorwayTable {
    /// Number of doorways (across all campaigns).
    pub fn len(&self) -> usize {
        self.domain.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.domain.is_empty()
    }

    /// Borrowed view of row `id`.
    pub fn row(&self, id: DoorwayId) -> DoorwayRow<'_> {
        self.get(id.index())
    }

    /// Borrowed view of raw row index `i`.
    pub fn get(&self, i: usize) -> DoorwayRow<'_> {
        DoorwayRow {
            id: DoorwayId::from_index(i),
            campaign: self.campaign[i],
            domain: self.domain[i],
            terms: &self.terms[self.terms_off[i] as usize..self.terms_off[i + 1] as usize],
            vertical: self.vertical[i],
            target_store: self.target_store[i],
            live_from: self.live_from[i],
            live_until: self.live_until[i],
            penalized: self.penalized[i],
        }
    }

    /// Columnar liveness check for raw row `i` (hot-path scans).
    pub(crate) fn is_live_at(&self, i: usize, day: SimDate) -> bool {
        self.live_from[i] <= day && day < self.live_until[i]
    }

    fn push(&mut self, campaign: CampaignId, d: NewDoorway) -> DoorwayId {
        if self.terms_off.is_empty() {
            self.terms_off.push(0);
        }
        let id = DoorwayId::from_index(self.len());
        self.campaign.push(campaign);
        self.domain.push(d.domain);
        self.vertical.push(d.vertical);
        self.target_store.push(d.target_store);
        self.live_from.push(d.live_from);
        self.live_until.push(d.live_until);
        self.penalized.push(None);
        self.terms.extend_from_slice(&d.terms);
        self.terms_off.push(self.terms.len() as u32);
        id
    }

    fn read_row(&mut self, campaign: CampaignId, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        self.campaign.push(campaign);
        self.domain.push(DomainId(r.get_u32()?));
        for _ in 0..r.get_len()? {
            self.terms.push(TermId(r.get_u32()?));
        }
        self.terms_off.push(self.terms.len() as u32);
        self.vertical.push(VerticalId(r.get_u32()?));
        self.target_store.push(StoreId(r.get_u32()?));
        self.live_from.push(r.get_date()?);
        self.live_until.push(r.get_date()?);
        self.penalized.push(r.get_opt(|r| r.get_date())?);
        Ok(())
    }
}

fn put_doorway(w: &mut Writer, d: DoorwayRow<'_>) {
    w.put_u32(d.domain.0);
    w.put_seq(d.terms, |w, t| w.put_u32(t.0));
    w.put_u32(d.vertical.0);
    w.put_u32(d.target_store.0);
    w.put_date(d.live_from);
    w.put_date(d.live_until);
    w.put_opt(d.penalized.as_ref(), |w, day| w.put_date(*day));
}

/// One campaign's contiguous doorway range — a borrowed, `Copy` window
/// into the global [`DoorwayTable`].
#[derive(Debug, Clone, Copy)]
pub struct DoorwaySlice<'a> {
    table: &'a DoorwayTable,
    start: u32,
    end: u32,
}

impl<'a> DoorwaySlice<'a> {
    /// Number of doorways in the fleet.
    pub fn len(self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the fleet is empty.
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }

    /// Iterates the fleet's row views in build order.
    pub fn iter(self) -> impl Iterator<Item = DoorwayRow<'a>> {
        (self.start as usize..self.end as usize).map(|i| self.table.get(i))
    }

    /// Row view of the `i`-th doorway of the fleet.
    pub fn at(self, i: usize) -> DoorwayRow<'a> {
        assert!(i < self.len(), "doorway index {i} out of fleet bounds");
        self.table.get(self.start as usize + i)
    }
}

// ---- campaigns ----

/// Struct-of-arrays storage for every campaign, owning the global
/// [`DoorwayTable`].
#[derive(Debug, Default)]
pub struct CampaignTable {
    name: Vec<String>,
    classified: Vec<bool>,
    verticals: Vec<Vec<VerticalId>>,
    stores: Vec<Vec<StoreId>>,
    cloak: Vec<CloakMode>,
    windows: Vec<Vec<ActivityWindow>>,
    reaction_days: Vec<u32>,
    supplier_partner: Vec<bool>,
    /// Per-campaign `[start, end)` row range in the doorway table.
    doorway_start: Vec<u32>,
    doorway_end: Vec<u32>,
    pub(crate) doorways: DoorwayTable,
}

/// Borrowed view of one campaign row.
#[derive(Debug, Clone, Copy)]
pub struct CampaignRow<'a> {
    /// Id (row index).
    pub id: CampaignId,
    /// Table 2 name, or `SHADOW.n` for the unclassified tail.
    pub name: &'a str,
    /// Whether the campaign is in the 52-campaign classified universe.
    pub classified: bool,
    /// Verticals targeted.
    pub verticals: &'a [VerticalId],
    /// Store fleet.
    pub stores: &'a [StoreId],
    /// Cloaking mechanism used by this campaign's kit.
    pub cloak: CloakMode,
    /// Activity schedule (non-overlapping, ordered).
    pub windows: &'a [ActivityWindow],
    /// Days the campaign takes to re-point doorways after a store seizure.
    pub reaction_days: u32,
    /// Whether the campaign partners with the tracked supplier.
    pub supplier_partner: bool,
    /// Doorway fleet (all cohorts, live and retired).
    pub doorways: DoorwaySlice<'a>,
}

/// The fields of a campaign fixed at creation — what world generation
/// hands [`CampaignTable::push`]. Store and doorway fleets start empty and
/// grow through [`CampaignTable::add_store`] and
/// [`CampaignTable::push_doorway`].
#[derive(Debug, Clone)]
pub struct NewCampaign {
    /// Table 2 name, or `SHADOW.n` for the unclassified tail.
    pub name: String,
    /// Whether the campaign is in the 52-campaign classified universe
    /// (false for the shadow tail the labeled set never covers).
    pub classified: bool,
    /// Verticals targeted.
    pub verticals: Vec<VerticalId>,
    /// Cloaking mechanism used by this campaign's kit.
    pub cloak: CloakMode,
    /// Activity schedule (non-overlapping, ordered).
    pub windows: Vec<ActivityWindow>,
    /// Days the campaign takes to re-point doorways after a store seizure
    /// (§5.3.2: 7 days for GBC-seized stores, 15 for SMGPA on average).
    pub reaction_days: u32,
    /// Whether the campaign partners with the tracked supplier (§4.5:
    /// MSVALIDATE does).
    pub supplier_partner: bool,
}

impl CampaignRow<'_> {
    /// Juice level on `day` (0 outside all windows). Overlapping windows
    /// combine by maximum.
    pub fn juice_on(&self, day: SimDate) -> f64 {
        self.windows
            .iter()
            .filter(|w| w.contains(day))
            .map(|w| w.juice)
            .fold(0.0, f64::max)
    }

    /// Whether the campaign is actively SEOing on `day`.
    pub fn is_active(&self, day: SimDate) -> bool {
        self.juice_on(day) > 0.0
    }
}

impl CampaignTable {
    /// Number of campaigns.
    pub fn len(&self) -> usize {
        self.name.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.name.is_empty()
    }

    /// Appends a campaign with empty store and doorway fleets and returns
    /// its id (the next row index).
    pub fn push(&mut self, c: NewCampaign) -> CampaignId {
        let id = CampaignId::from_index(self.len());
        self.name.push(c.name);
        self.classified.push(c.classified);
        self.verticals.push(c.verticals);
        self.stores.push(Vec::new());
        self.cloak.push(c.cloak);
        self.windows.push(c.windows);
        self.reaction_days.push(c.reaction_days);
        self.supplier_partner.push(c.supplier_partner);
        let n = self.doorways.len() as u32;
        self.doorway_start.push(n);
        self.doorway_end.push(n);
        id
    }

    /// Borrowed view of row `id`.
    pub fn row(&self, id: CampaignId) -> CampaignRow<'_> {
        self.get(id.index()).expect("campaign id in range")
    }

    /// Borrowed view of raw row index `i`, if in range.
    pub fn get(&self, i: usize) -> Option<CampaignRow<'_>> {
        if i >= self.len() {
            return None;
        }
        Some(CampaignRow {
            id: CampaignId::from_index(i),
            name: &self.name[i],
            classified: self.classified[i],
            verticals: &self.verticals[i],
            stores: &self.stores[i],
            cloak: self.cloak[i],
            windows: &self.windows[i],
            reaction_days: self.reaction_days[i],
            supplier_partner: self.supplier_partner[i],
            doorways: DoorwaySlice {
                table: &self.doorways,
                start: self.doorway_start[i],
                end: self.doorway_end[i],
            },
        })
    }

    /// Iterates row views in id order.
    pub fn iter(&self) -> impl Iterator<Item = CampaignRow<'_>> {
        (0..self.len()).map(|i| self.get(i).expect("index in range"))
    }

    /// The global doorway table (columnar-scan access for planners).
    pub fn doorway_table(&self) -> &DoorwayTable {
        &self.doorways
    }

    /// Row view of one doorway by global id.
    pub fn doorway(&self, id: DoorwayId) -> DoorwayRow<'_> {
        self.doorways.row(id)
    }

    /// Campaign `id`'s doorway rows as raw range bounds (columnar scans).
    pub(crate) fn doorway_range(&self, i: usize) -> std::ops::Range<usize> {
        self.doorway_start[i] as usize..self.doorway_end[i] as usize
    }

    /// Adds a store to campaign `id`'s fleet.
    pub fn add_store(&mut self, id: CampaignId, store: StoreId) {
        self.stores[id.index()].push(store);
    }

    /// Appends a doorway to campaign `id`'s fleet. Only the campaign with
    /// the last fleet range may grow (world generation builds one campaign
    /// at a time), which keeps every fleet contiguous.
    pub fn push_doorway(&mut self, id: CampaignId, d: NewDoorway) -> DoorwayId {
        let i = id.index();
        assert_eq!(
            self.doorway_end[i],
            self.doorways.len() as u32,
            "campaign {i} is not the tail of the doorway table"
        );
        let did = self.doorways.push(id, d);
        self.doorway_end[i] += 1;
        did
    }

    /// Marks a doorway penalized on `day` (first writer wins).
    pub fn penalize_doorway(&mut self, id: DoorwayId, day: SimDate) {
        self.doorways.penalized[id.index()] = Some(day);
    }

    /// Re-points every doorway of campaign `id` currently targeting `from`
    /// to `to` (the §5.3.2 counter-move); returns how many moved.
    pub fn repoint_doorways(&mut self, id: CampaignId, from: StoreId, to: StoreId) -> usize {
        let range = self.doorway_range(id.index());
        let mut n = 0;
        for t in &mut self.doorways.target_store[range] {
            if *t == from {
                *t = to;
                n += 1;
            }
        }
        n
    }

    /// Juice level of campaign at raw row `i` on `day` (columnar scans).
    pub(crate) fn juice_on_at(&self, i: usize, day: SimDate) -> f64 {
        self.windows[i]
            .iter()
            .filter(|w| w.contains(day))
            .map(|w| w.juice)
            .fold(0.0, f64::max)
    }

    /// Writes every row in id order, each campaign's doorway fleet inline —
    /// the `world` frame's campaign section.
    pub(crate) fn write_rows(&self, w: &mut Writer) {
        w.put_len(self.len());
        for c in self.iter() {
            w.put_str(c.name);
            w.put_bool(c.classified);
            w.put_seq(c.verticals, |w, v| w.put_u32(v.0));
            w.put_len(c.doorways.len());
            for d in c.doorways.iter() {
                put_doorway(w, d);
            }
            w.put_seq(c.stores, |w, s| w.put_u32(s.0));
            put_cloak(w, &c.cloak);
            w.put_seq(c.windows, |w, win| {
                w.put_date(win.from);
                w.put_date(win.to);
                w.put_f64(win.juice);
            });
            w.put_u32(c.reaction_days);
            w.put_bool(c.supplier_partner);
        }
    }

    /// Decodes rows written by [`CampaignTable::write_rows`] straight into
    /// the columns, appending each fleet to the doorway table in order so
    /// fleets stay contiguous.
    pub(crate) fn read_rows(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let mut t = CampaignTable::default();
        t.doorways.terms_off.push(0);
        for ci in 0..r.get_len()? {
            t.name.push(r.get_str()?);
            t.classified.push(r.get_bool()?);
            t.verticals
                .push(r.get_seq(|r| Ok(VerticalId(r.get_u32()?)))?);
            t.doorway_start.push(t.doorways.len() as u32);
            for _ in 0..r.get_len()? {
                t.doorways.read_row(CampaignId::from_index(ci), r)?;
            }
            t.doorway_end.push(t.doorways.len() as u32);
            t.stores.push(r.get_seq(|r| Ok(StoreId(r.get_u32()?)))?);
            t.cloak.push(get_cloak(r)?);
            t.windows.push(r.get_seq(|r| {
                Ok(ActivityWindow {
                    from: r.get_date()?,
                    to: r.get_date()?,
                    juice: r.get_f64()?,
                })
            })?);
            t.reaction_days.push(r.get_u32()?);
            t.supplier_partner.push(r.get_bool()?);
        }
        Ok(t)
    }
}

// ---- routing ----

/// Dense domain → doorway routing: a `Vec` indexed by `DomainId` (domain
/// ids are dense), `u32::MAX` marking non-doorway domains. Replaces the
/// former `HashMap<DomainId, (usize, usize)>` — fetch routing and the
/// per-SERP-slot planner probe become a branchless array lookup.
#[derive(Debug, Default)]
pub struct DomainRoute {
    to_doorway: Vec<u32>,
}

/// Route sentinel: "this domain is not a doorway".
const NO_DOORWAY: u32 = u32::MAX;

impl DomainRoute {
    /// Routes `domain` to `doorway`.
    pub fn set(&mut self, domain: DomainId, doorway: DoorwayId) {
        let i = domain.index();
        if i >= self.to_doorway.len() {
            self.to_doorway.resize(i + 1, NO_DOORWAY);
        }
        self.to_doorway[i] = doorway.0;
    }

    /// The doorway serving on `domain`, if any. Out-of-range ids (domains
    /// registered after the last doorway, e.g. bulk seizure filler) are
    /// simply not doorways.
    #[inline]
    pub fn doorway(&self, domain: DomainId) -> Option<DoorwayId> {
        match self.to_doorway.get(domain.index()) {
            Some(&d) if d != NO_DOORWAY => Some(DoorwayId(d)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::TestRng;

    use super::*;

    fn day(n: u32) -> SimDate {
        SimDate::from_day_index(n)
    }

    fn sample_store(i: usize, campaign: u32) -> NewStore {
        NewStore {
            campaign: CampaignId(campaign),
            name: format!("store {i}"),
            brands: vec![BrandId(i as u32), BrandId(7)],
            locale: if i.is_multiple_of(2) { "us" } else { "uk" }.into(),
            domain: DomainId(10 + i as u32),
            backup_pool: vec![DomainId(100 + i as u32)],
            order_counter: 2_000 + i as u64,
            merchant_id: format!("m-{i}"),
            awstats_public: i == 0,
            created: day(5),
            seed: 42 + i as u64,
        }
    }

    #[test]
    fn store_push_starts_the_row_state() {
        let mut t = StoreTable::default();
        for i in 0..4 {
            assert_eq!(t.push(sample_store(i, 1)), StoreId::from_index(i));
        }
        assert_eq!(t.len(), 4);
        // Locales interned: two distinct strings across four stores.
        assert_eq!(t.locales().len(), 2);
        for (i, r) in t.iter().enumerate() {
            let s = sample_store(i, 1);
            assert_eq!(r.name, s.name);
            assert_eq!(r.brands, s.brands);
            assert_eq!(r.locale, s.locale);
            assert_eq!(r.current_domain, s.domain);
            assert_eq!(r.domain_history, [(s.created, s.domain)]);
            assert_eq!(r.backup_pool, s.backup_pool);
            assert_eq!(r.order_counter, s.order_counter);
            assert_eq!((r.orders_accrued, r.months.len(), r.retired), (0, 0, false));
        }
    }

    fn sample_campaign(i: usize) -> NewCampaign {
        NewCampaign {
            name: format!("C{i}"),
            classified: i == 0,
            verticals: vec![VerticalId(0)],
            cloak: CloakMode::Redirect,
            windows: vec![ActivityWindow {
                from: day(100),
                to: day(200),
                juice: 0.5,
            }],
            reaction_days: 7,
            supplier_partner: false,
        }
    }

    fn sample_doorway(k: u32, store: u32) -> NewDoorway {
        NewDoorway {
            domain: DomainId(500 + k),
            terms: vec![TermId(k), TermId(k + 1)],
            vertical: VerticalId(0),
            target_store: StoreId(store),
            live_from: day(100 + k),
            live_until: day(300),
        }
    }

    #[test]
    fn campaign_fleets_stay_contiguous_and_roundtrip() {
        let mut t = CampaignTable::default();
        let a = t.push(sample_campaign(0));
        for k in 0..3 {
            t.push_doorway(a, sample_doorway(k, 0));
        }
        let b = t.push(sample_campaign(1));
        t.push_doorway(b, sample_doorway(10, 1));

        assert_eq!(t.row(a).doorways.len(), 3);
        assert_eq!(t.row(b).doorways.len(), 1);
        assert_eq!(t.row(b).doorways.at(0).domain, DomainId(510));
        assert_eq!(t.doorway_table().len(), 4);
        // Global ids are per-campaign contiguous.
        let ids: Vec<u32> = t.row(a).doorways.iter().map(|d| d.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);

        let d = t.row(a).doorways.at(2);
        assert_eq!(d.terms, [TermId(2), TermId(3)]);
        assert_eq!((d.campaign, d.live_from, d.penalized), (a, day(102), None));
        assert_eq!(t.juice_on_at(0, day(150)), t.row(a).juice_on(day(150)));
    }

    #[test]
    #[should_panic(expected = "not the tail")]
    fn out_of_order_doorway_push_panics() {
        let mut t = CampaignTable::default();
        let a = t.push(sample_campaign(0));
        let b = t.push(sample_campaign(1));
        t.push_doorway(b, sample_doorway(0, 1));
        t.push_doorway(a, sample_doorway(1, 0));
    }

    #[test]
    fn repoint_moves_only_matching_doorways() {
        let mut t = CampaignTable::default();
        let a = t.push(sample_campaign(0));
        t.push_doorway(a, sample_doorway(0, 0));
        t.push_doorway(a, sample_doorway(1, 1));
        let moved = t.repoint_doorways(a, StoreId(0), StoreId(5));
        assert_eq!(moved, 1);
        assert_eq!(t.row(a).doorways.at(0).target_store, StoreId(5));
        assert_eq!(t.row(a).doorways.at(1).target_store, StoreId(1));
    }

    #[test]
    fn route_is_dense_and_total() {
        let mut r = DomainRoute::default();
        r.set(DomainId(5), DoorwayId(2));
        assert_eq!(r.doorway(DomainId(5)), Some(DoorwayId(2)));
        assert_eq!(r.doorway(DomainId(4)), None);
        // Beyond the table: late-registered bulk domains are not doorways.
        assert_eq!(r.doorway(DomainId(1_000_000)), None);
    }

    // ---- checkpoint codec ----

    fn any_day(rng: &mut TestRng) -> SimDate {
        day(rng.below(500) as u32)
    }

    fn any_id(rng: &mut TestRng, below: usize) -> usize {
        rng.below(below as u64) as usize
    }

    fn word(rng: &mut TestRng) -> String {
        (0..2 + rng.below(10))
            .map(|_| (b'a' + rng.below(26) as u8) as char)
            .collect()
    }

    const LOCALES: [&str; 5] = ["us", "uk", "fr", "de", "jp"];

    fn any_store(rng: &mut TestRng) -> NewStore {
        NewStore {
            campaign: CampaignId::from_index(any_id(rng, 8)),
            name: word(rng),
            brands: (0..rng.below(5))
                .map(|_| BrandId::from_index(any_id(rng, 40)))
                .collect(),
            locale: LOCALES[any_id(rng, LOCALES.len())].into(),
            domain: DomainId::from_index(any_id(rng, 4096)),
            backup_pool: (0..rng.below(4))
                .map(|_| DomainId::from_index(any_id(rng, 4096)))
                .collect(),
            order_counter: rng.below(1_000_000),
            merchant_id: word(rng),
            awstats_public: rng.below(2) == 1,
            created: any_day(rng),
            seed: rng.next_u64(),
        }
    }

    fn any_campaign(rng: &mut TestRng) -> NewCampaign {
        NewCampaign {
            name: word(rng).to_ascii_uppercase(),
            classified: rng.below(2) == 1,
            verticals: (0..1 + rng.below(3))
                .map(|_| VerticalId::from_index(any_id(rng, 16)))
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
                    from: any_day(rng),
                    to: any_day(rng),
                    juice: rng.below(1000) as f64 / 1000.0,
                })
                .collect(),
            reaction_days: rng.below(30) as u32,
            supplier_partner: rng.below(2) == 1,
        }
    }

    fn any_doorway(rng: &mut TestRng) -> NewDoorway {
        NewDoorway {
            domain: DomainId::from_index(any_id(rng, 4096)),
            terms: (0..1 + rng.below(5))
                .map(|_| TermId::from_index(any_id(rng, 2048)))
                .collect(),
            vertical: VerticalId::from_index(any_id(rng, 16)),
            target_store: StoreId::from_index(any_id(rng, 16)),
            live_from: any_day(rng),
            live_until: any_day(rng),
        }
    }

    /// Grows both tables through `push` and every tick mutator.
    fn grown_tables(rng: &mut TestRng) -> (StoreTable, CampaignTable) {
        let (mut stores, mut campaigns) = (StoreTable::default(), CampaignTable::default());
        for _ in 0..rng.below(6) {
            let c = campaigns.push(any_campaign(rng));
            for _ in 0..rng.below(5) {
                campaigns.push_doorway(c, any_doorway(rng));
            }
        }
        for _ in 0..rng.below(12) {
            stores.push(any_store(rng));
        }
        for _ in 0..rng.below(60) {
            let today = any_day(rng);
            if !stores.is_empty() {
                let s = StoreId::from_index(any_id(rng, stores.len()));
                match rng.below(6) {
                    0 => {
                        stores.allocate_order(s);
                    }
                    1 => stores.add_orders(s, rng.below(50)),
                    2 => {
                        let referred = vec![(word(rng), rng.below(40))];
                        let (visits, pages) = (rng.below(500), rng.below(900));
                        stores.record_traffic(s, today, visits, pages, &referred, rng.below(60));
                    }
                    3 => {
                        stores.rotate_domain(s, today);
                    }
                    4 => stores.retire(s),
                    _ => stores.set_locale(s, &word(rng)),
                }
            }
            if !campaigns.is_empty() {
                let c = CampaignId::from_index(any_id(rng, campaigns.len()));
                let s = StoreId::from_index(any_id(rng, 16));
                match rng.below(3) {
                    0 => campaigns.add_store(c, s),
                    1 => {
                        campaigns.repoint_doorways(c, s, StoreId::from_index(any_id(rng, 16)));
                    }
                    _ if !campaigns.doorway_table().is_empty() => {
                        let d = DoorwayId::from_index(any_id(rng, campaigns.doorway_table().len()));
                        campaigns.penalize_doorway(d, today);
                    }
                    _ => {}
                }
            }
        }
        (stores, campaigns)
    }

    fn encode(write: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let mut w = Writer::new();
        write(&mut w);
        w.into_bytes()
    }

    fn decode<T>(
        bytes: &[u8],
        read: impl FnOnce(&mut Reader<'_>) -> Result<T, SnapshotError>,
    ) -> T {
        let mut r = Reader::new(bytes);
        let t = read(&mut r).expect("rows decode");
        assert_eq!(r.remaining(), 0, "rows decode to the end");
        t
    }

    /// `write_rows` → `read_rows` gives back the same rows, and the decoded
    /// tables re-encode to the same bytes.
    #[test]
    fn rows_survive_the_checkpoint_codec() {
        let mut rng = TestRng::for_test("tables::rows_survive_the_checkpoint_codec");
        for _ in 0..64 {
            let (stores, campaigns) = grown_tables(&mut rng);

            let bytes = encode(|w| stores.write_rows(w));
            let back = decode(&bytes, StoreTable::read_rows);
            assert!(stores.iter().eq(back.iter()), "store rows changed");
            assert_eq!(encode(|w| back.write_rows(w)), bytes);

            let bytes = encode(|w| campaigns.write_rows(w));
            let back = decode(&bytes, CampaignTable::read_rows);
            assert_eq!(back.len(), campaigns.len());
            for (a, b) in campaigns.iter().zip(back.iter()) {
                assert_eq!(
                    (a.name, a.classified, a.verticals),
                    (b.name, b.classified, b.verticals)
                );
                assert_eq!(
                    (a.stores, a.cloak, a.windows),
                    (b.stores, b.cloak, b.windows)
                );
                assert_eq!(
                    (a.reaction_days, a.supplier_partner),
                    (b.reaction_days, b.supplier_partner)
                );
                assert!(
                    a.doorways.iter().eq(b.doorways.iter()),
                    "doorway rows changed"
                );
            }
            assert_eq!(encode(|w| back.write_rows(w)), bytes);
        }
    }
}
