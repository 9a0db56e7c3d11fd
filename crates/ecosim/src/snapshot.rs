//! Snapshot codecs for the ecosystem state plane.
//!
//! Everything `World::tick` reads or writes is captured here: the scenario
//! config, the domain table, the ground-truth event log, and the full
//! [`World`] itself (which nests the engine, supplier, metrics registry,
//! flight recorder, and event trail). The entity tables carry their own
//! row codecs (`write_rows`/`read_rows` in [`crate::tables`]), which decode
//! straight into the columns. Decoding then rebuilds the rest the way
//! construction does — `new_shell`, then `World::index_entities` — so
//! derived structures (the domain→doorway route, per-campaign store
//! templates, interner ids, the suggest service) are re-derived rather
//! than serialized, and cannot drift from the columns they index.
//!
//! Not captured, by design: `tick_threads` (a runtime knob the resume
//! caller chooses; any value commits a bit-identical world) and wall-clock
//! span timings (excluded from the metrics registry's own snapshot).

use std::collections::BTreeMap;
use std::sync::OnceLock;

use ss_search::EngineOp;
use ss_types::snapshot::{Reader, Snapshot, SnapshotError, Writer};
use ss_types::{
    BrandId, CampaignId, CaseId, DomainId, DomainName, FirmId, SimDate, StoreId, TermId, VerticalId,
};
use ss_web::cloak::CloakMode;
use ss_web::pagegen::legit::LegitTheme;

use crate::domains::{DomainTable, Seizure, SiteKind};
use crate::events::{Event, EventLog};
use crate::legal::{CourtCase, FirmState};
use crate::plan::{TickStage, TrailEvent, WorldEvent};
use crate::scenario::{PaymentPolicy, Scale, ScenarioConfig, SearchPolicy, SeizurePolicy};
use crate::tables::{CampaignTable, StoreTable};
use crate::world::{VerticalState, World};

// ---- leaf helpers ----

pub(crate) fn put_cloak(w: &mut Writer, c: &CloakMode) {
    match c {
        CloakMode::Redirect => w.put_u8(0),
        CloakMode::JsRedirect => w.put_u8(1),
        CloakMode::Iframe { obfuscation } => {
            w.put_u8(2);
            w.put_u8(*obfuscation);
        }
    }
}

pub(crate) fn get_cloak(r: &mut Reader<'_>) -> Result<CloakMode, SnapshotError> {
    Ok(match r.get_u8()? {
        0 => CloakMode::Redirect,
        1 => CloakMode::JsRedirect,
        2 => CloakMode::Iframe {
            obfuscation: r.get_u8()?,
        },
        b => return Err(SnapshotError::Corrupt(format!("cloak mode byte {b}"))),
    })
}

fn put_theme(w: &mut Writer, t: LegitTheme) {
    w.put_u8(match t {
        LegitTheme::News => 0,
        LegitTheme::Blog => 1,
        LegitTheme::Retailer => 2,
        LegitTheme::Forum => 3,
        LegitTheme::Official => 4,
    });
}

fn get_theme(r: &mut Reader<'_>) -> Result<LegitTheme, SnapshotError> {
    Ok(match r.get_u8()? {
        0 => LegitTheme::News,
        1 => LegitTheme::Blog,
        2 => LegitTheme::Retailer,
        3 => LegitTheme::Forum,
        4 => LegitTheme::Official,
        b => return Err(SnapshotError::Corrupt(format!("legit theme byte {b}"))),
    })
}

/// Resolves a brand string back to the `&'static str` the market tables
/// own. Brand names live in static tables; state only ever references
/// them, so the lookup is total for uncorrupted snapshots. The brand
/// universe is collected once per process, not once per legit domain.
fn static_brand(name: &str) -> Result<&'static str, SnapshotError> {
    static BRANDS: OnceLock<Vec<&'static str>> = OnceLock::new();
    BRANDS
        .get_or_init(ss_types::market::all_brands)
        .iter()
        .find(|b| **b == name)
        .copied()
        .ok_or_else(|| SnapshotError::Corrupt(format!("unknown brand {name:?}")))
}

/// Resolves a tick-stage name back to its `&'static str` (the event
/// trail's stage vocabulary is exactly [`TickStage::ALL`]).
fn static_stage(name: &str) -> Result<&'static str, SnapshotError> {
    TickStage::ALL
        .iter()
        .map(|s| s.name())
        .find(|n| *n == name)
        .ok_or_else(|| SnapshotError::Corrupt(format!("unknown tick stage {name:?}")))
}

fn put_site_kind(w: &mut Writer, k: &SiteKind) {
    match k {
        SiteKind::Legit { theme, brand } => {
            w.put_u8(0);
            put_theme(w, *theme);
            w.put_str(brand);
        }
        SiteKind::Doorway {
            campaign,
            compromised,
            cloak,
            target_store,
        } => {
            w.put_u8(1);
            w.put_u32(campaign.0);
            w.put_bool(*compromised);
            put_cloak(w, cloak);
            w.put_u32(target_store.0);
        }
        SiteKind::Storefront { store } => {
            w.put_u8(2);
            w.put_u32(store.0);
        }
        SiteKind::Supplier => w.put_u8(3),
        SiteKind::OffstageStore => w.put_u8(4),
    }
}

fn get_site_kind(r: &mut Reader<'_>) -> Result<SiteKind, SnapshotError> {
    Ok(match r.get_u8()? {
        0 => {
            let theme = get_theme(r)?;
            let brand = static_brand(r.get_str_ref()?)?;
            SiteKind::Legit { theme, brand }
        }
        1 => SiteKind::Doorway {
            campaign: CampaignId(r.get_u32()?),
            compromised: r.get_bool()?,
            cloak: get_cloak(r)?,
            target_store: StoreId(r.get_u32()?),
        },
        2 => SiteKind::Storefront {
            store: StoreId(r.get_u32()?),
        },
        3 => SiteKind::Supplier,
        4 => SiteKind::OffstageStore,
        b => return Err(SnapshotError::Corrupt(format!("site kind byte {b}"))),
    })
}

fn put_seizure(w: &mut Writer, s: &Seizure) {
    w.put_date(s.day);
    w.put_u32(s.case.0);
    w.put_u32(s.firm.0);
}

fn get_seizure(r: &mut Reader<'_>) -> Result<Seizure, SnapshotError> {
    Ok(Seizure {
        day: r.get_date()?,
        case: CaseId(r.get_u32()?),
        firm: FirmId(r.get_u32()?),
    })
}

fn put_event(w: &mut Writer, e: &Event) {
    match e {
        Event::CampaignActive { campaign, from, to } => {
            w.put_u8(0);
            w.put_u32(campaign.0);
            w.put_date(*from);
            w.put_date(*to);
        }
        Event::DoorwayPenalized {
            domain,
            day,
            labeled,
        } => {
            w.put_u8(1);
            w.put_u32(domain.0);
            w.put_date(*day);
            w.put_bool(*labeled);
        }
        Event::CaseFiled {
            firm,
            case,
            day,
            domains,
        } => {
            w.put_u8(2);
            w.put_u32(firm.0);
            w.put_u32(case.0);
            w.put_date(*day);
            w.put_seq(domains, |w, d| w.put_u32(d.0));
        }
        Event::StoreRotated {
            store,
            day,
            from,
            to,
            reactive,
        } => {
            w.put_u8(3);
            w.put_u32(store.0);
            w.put_date(*day);
            w.put_u32(from.0);
            w.put_u32(to.0);
            w.put_bool(*reactive);
        }
    }
}

fn get_event(r: &mut Reader<'_>) -> Result<Event, SnapshotError> {
    Ok(match r.get_u8()? {
        0 => Event::CampaignActive {
            campaign: CampaignId(r.get_u32()?),
            from: r.get_date()?,
            to: r.get_date()?,
        },
        1 => Event::DoorwayPenalized {
            domain: DomainId(r.get_u32()?),
            day: r.get_date()?,
            labeled: r.get_bool()?,
        },
        2 => Event::CaseFiled {
            firm: FirmId(r.get_u32()?),
            case: CaseId(r.get_u32()?),
            day: r.get_date()?,
            domains: r.get_seq(|r| Ok(DomainId(r.get_u32()?)))?,
        },
        3 => Event::StoreRotated {
            store: StoreId(r.get_u32()?),
            day: r.get_date()?,
            from: DomainId(r.get_u32()?),
            to: DomainId(r.get_u32()?),
            reactive: r.get_bool()?,
        },
        b => return Err(SnapshotError::Corrupt(format!("event tag byte {b}"))),
    })
}

fn put_engine_op(w: &mut Writer, op: &EngineOp) {
    match op {
        EngineOp::SetJuice { domain, juice } => {
            w.put_u8(0);
            w.put_u32(domain.0);
            w.put_f64(*juice);
        }
        EngineOp::Demote { domain, penalty } => {
            w.put_u8(1);
            w.put_u32(domain.0);
            w.put_f64(*penalty);
        }
        EngineOp::LabelHacked { domain, day } => {
            w.put_u8(2);
            w.put_u32(domain.0);
            w.put_date(*day);
        }
    }
}

fn get_engine_op(r: &mut Reader<'_>) -> Result<EngineOp, SnapshotError> {
    Ok(match r.get_u8()? {
        0 => EngineOp::SetJuice {
            domain: DomainId(r.get_u32()?),
            juice: r.get_f64()?,
        },
        1 => EngineOp::Demote {
            domain: DomainId(r.get_u32()?),
            penalty: r.get_f64()?,
        },
        2 => EngineOp::LabelHacked {
            domain: DomainId(r.get_u32()?),
            day: r.get_date()?,
        },
        b => return Err(SnapshotError::Corrupt(format!("engine op byte {b}"))),
    })
}

fn put_world_event(w: &mut Writer, e: &WorldEvent) {
    match e {
        WorldEvent::Engine(op) => {
            w.put_u8(0);
            put_engine_op(w, op);
        }
        WorldEvent::PenalizeDoorway { domain, labeled } => {
            w.put_u8(1);
            w.put_u32(domain.0);
            w.put_bool(*labeled);
        }
        WorldEvent::FileCase {
            firm,
            brand,
            targets,
            bulk,
        } => {
            w.put_u8(2);
            w.put_u32(firm.0);
            w.put_u32(brand.0);
            w.put_seq(targets, |w, d| w.put_u32(d.0));
            w.put_u32(*bulk);
        }
        WorldEvent::DrainRotations => w.put_u8(3),
        WorldEvent::Rotate { store, reactive } => {
            w.put_u8(4);
            w.put_u32(store.0);
            w.put_bool(*reactive);
        }
        WorldEvent::StoreTraffic {
            store,
            visits,
            pages,
            referred,
            direct,
            orders,
        } => {
            w.put_u8(5);
            w.put_u32(store.0);
            w.put_u64(*visits);
            w.put_u64(*pages);
            w.put_seq(referred, |w, (host, n)| {
                w.put_str(host);
                w.put_u64(*n);
            });
            w.put_u64(*direct);
            w.put_u64(*orders);
        }
        WorldEvent::SupplierExternal { orders } => {
            w.put_u8(6);
            w.put_u64(*orders);
        }
        WorldEvent::AdvanceDay => w.put_u8(7),
    }
}

fn get_world_event(r: &mut Reader<'_>) -> Result<WorldEvent, SnapshotError> {
    Ok(match r.get_u8()? {
        0 => WorldEvent::Engine(get_engine_op(r)?),
        1 => WorldEvent::PenalizeDoorway {
            domain: DomainId(r.get_u32()?),
            labeled: r.get_bool()?,
        },
        2 => WorldEvent::FileCase {
            firm: FirmId(r.get_u32()?),
            brand: BrandId(r.get_u32()?),
            targets: r.get_seq(|r| Ok(DomainId(r.get_u32()?)))?,
            bulk: r.get_u32()?,
        },
        3 => WorldEvent::DrainRotations,
        4 => WorldEvent::Rotate {
            store: StoreId(r.get_u32()?),
            reactive: r.get_bool()?,
        },
        5 => WorldEvent::StoreTraffic {
            store: StoreId(r.get_u32()?),
            visits: r.get_u64()?,
            pages: r.get_u64()?,
            referred: r.get_seq(|r| Ok((r.get_str()?, r.get_u64()?)))?,
            direct: r.get_u64()?,
            orders: r.get_u64()?,
        },
        6 => WorldEvent::SupplierExternal {
            orders: r.get_u64()?,
        },
        7 => WorldEvent::AdvanceDay,
        b => return Err(SnapshotError::Corrupt(format!("world event byte {b}"))),
    })
}

// ---- scenario config ----

impl Snapshot for ScenarioConfig {
    const TAG: &'static str = "scenario";
    const VERSION: u16 = 1;

    fn write_body(&self, w: &mut Writer) {
        w.put_u64(self.seed);
        // Scalar counts use raw u64s: `put_len` is reserved for sequence
        // lengths, whose reader bounds-checks against remaining bytes.
        w.put_u64(self.scale.verticals as u64);
        w.put_u64(self.scale.terms_per_vertical as u64);
        w.put_u64(self.scale.legit_per_term as u64);
        w.put_u64(self.scale.serp_depth as u64);
        w.put_f64(self.scale.entity_scale);
        w.put_u64(self.scale.shadow_campaigns as u64);
        w.put_u32(self.scale.end_day);
        let sp = &self.search_policy;
        w.put_f64(sp.detect_prob);
        w.put_u32(sp.delay_min);
        w.put_u32(sp.delay_max);
        w.put_f64(sp.demote_penalty);
        w.put_bool(sp.apply_label);
        w.put_f64(sp.label_deterrence);
        w.put_seq(&self.seizure_policies, |w, p| {
            w.put_u32(p.case_interval);
            w.put_f64(p.observed_fraction);
            w.put_u32(p.target_lifetime);
        });
        w.put_f64(self.conversion_rate);
        w.put_f64(self.pages_per_visit);
        w.put_f64(self.referrer_rate);
        w.put_f64(self.impressions_per_term);
        w.put_f64(self.organic_orders_per_day);
        w.put_bool(self.proactive_rotation);
        let pp = &self.payment_policy;
        w.put_bool(pp.enabled);
        w.put_u32(pp.start_day);
        w.put_seq(&pp.blocked, |w, s| w.put_str(s));
        w.put_opt(pp.migration_days.as_ref(), |w, d| w.put_u32(*d));
    }

    fn read_body(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(ScenarioConfig {
            seed: r.get_u64()?,
            scale: Scale {
                verticals: r.get_u64()? as usize,
                terms_per_vertical: r.get_u64()? as usize,
                legit_per_term: r.get_u64()? as usize,
                serp_depth: r.get_u64()? as usize,
                entity_scale: r.get_f64()?,
                shadow_campaigns: r.get_u64()? as usize,
                end_day: r.get_u32()?,
            },
            search_policy: SearchPolicy {
                detect_prob: r.get_f64()?,
                delay_min: r.get_u32()?,
                delay_max: r.get_u32()?,
                demote_penalty: r.get_f64()?,
                apply_label: r.get_bool()?,
                label_deterrence: r.get_f64()?,
            },
            seizure_policies: r.get_seq(|r| {
                Ok(SeizurePolicy {
                    case_interval: r.get_u32()?,
                    observed_fraction: r.get_f64()?,
                    target_lifetime: r.get_u32()?,
                })
            })?,
            conversion_rate: r.get_f64()?,
            pages_per_visit: r.get_f64()?,
            referrer_rate: r.get_f64()?,
            impressions_per_term: r.get_f64()?,
            organic_orders_per_day: r.get_f64()?,
            proactive_rotation: r.get_bool()?,
            payment_policy: PaymentPolicy {
                enabled: r.get_bool()?,
                start_day: r.get_u32()?,
                blocked: r.get_seq(|r| r.get_str())?,
                migration_days: r.get_opt(|r| r.get_u32())?,
            },
        })
    }
}

// ---- domain table ----

impl Snapshot for DomainTable {
    const TAG: &'static str = "domain-table";
    const VERSION: u16 = 1;

    fn write_body(&self, w: &mut Writer) {
        w.put_len(self.len());
        for rec in self.iter() {
            w.put_str(rec.name.as_str());
            put_site_kind(w, &rec.kind);
            w.put_date(rec.created);
            w.put_opt(rec.seized.as_ref(), put_seizure);
        }
    }

    fn read_body(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        // The shortest record is a 3-byte name with its 8-byte length, a
        // kind byte, a date and an absent seizure: presize for the rows
        // the remaining bytes could hold, never for a hostile count.
        const MIN_RECORD: usize = 8 + 3 + 1 + 4 + 1;
        let n = r.get_len()?;
        let mut table = DomainTable::with_capacity(n.min(r.remaining() / MIN_RECORD));
        for _ in 0..n {
            let raw = r.get_str_ref()?;
            let name = DomainName::parse(raw)
                .map_err(|e| SnapshotError::Corrupt(format!("domain name {raw:?}: {e}")))?;
            if table.lookup(&name).is_some() {
                return Err(SnapshotError::Corrupt(format!("duplicate domain {name}")));
            }
            let kind = get_site_kind(r)?;
            let created = r.get_date()?;
            let seized = r.get_opt(get_seizure)?;
            let id = table.register(name, kind, created);
            if let Some(s) = seized {
                table.seize(id, s);
            }
        }
        Ok(table)
    }
}

// ---- event log ----

impl Snapshot for EventLog {
    const TAG: &'static str = "event-log";
    const VERSION: u16 = 1;

    fn write_body(&self, w: &mut Writer) {
        w.put_seq(self.all(), put_event);
    }

    fn read_body(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let mut log = EventLog::new();
        for _ in 0..r.get_len()? {
            log.push(get_event(r)?);
        }
        Ok(log)
    }
}

// ---- world sub-structure helpers ----

fn put_firm(w: &mut Writer, f: &FirmState) {
    w.put_str(&f.name);
    w.put_seq(&f.brands, |w, b| w.put_u32(b.0));
    w.put_u32(f.policy.case_interval);
    w.put_f64(f.policy.observed_fraction);
    w.put_u32(f.policy.target_lifetime);
    w.put_seq(&f.cases, |w, c| {
        w.put_u32(c.id.0);
        w.put_u32(c.brand.0);
        w.put_str(&c.docket);
        w.put_date(c.day);
        w.put_seq(&c.domains, |w, d| w.put_u32(d.0));
    });
}

fn get_firm(r: &mut Reader<'_>, id: FirmId) -> Result<FirmState, SnapshotError> {
    Ok(FirmState {
        id,
        name: r.get_str()?,
        brands: r.get_seq(|r| Ok(BrandId(r.get_u32()?)))?,
        policy: SeizurePolicy {
            case_interval: r.get_u32()?,
            observed_fraction: r.get_f64()?,
            target_lifetime: r.get_u32()?,
        },
        cases: r.get_seq(|r| {
            Ok(CourtCase {
                id: CaseId(r.get_u32()?),
                firm: id,
                brand: BrandId(r.get_u32()?),
                docket: r.get_str()?,
                day: r.get_date()?,
                domains: r.get_seq(|r| Ok(DomainId(r.get_u32()?)))?,
            })
        })?,
    })
}

fn put_day_map<T>(
    w: &mut Writer,
    map: &BTreeMap<SimDate, Vec<T>>,
    mut f: impl FnMut(&mut Writer, &T),
) {
    w.put_len(map.len());
    for (day, items) in map {
        w.put_date(*day);
        w.put_len(items.len());
        for item in items {
            f(w, item);
        }
    }
}

fn get_day_map<T>(
    r: &mut Reader<'_>,
    mut f: impl FnMut(&mut Reader<'_>) -> Result<T, SnapshotError>,
) -> Result<BTreeMap<SimDate, Vec<T>>, SnapshotError> {
    let mut map = BTreeMap::new();
    for _ in 0..r.get_len()? {
        let day = r.get_date()?;
        let n = r.get_len()?;
        let mut items = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            items.push(f(r)?);
        }
        if map.insert(day, items).is_some() {
            return Err(SnapshotError::Corrupt(format!("duplicate day key {day}")));
        }
    }
    Ok(map)
}

// ---- the world ----

impl Snapshot for World {
    const TAG: &'static str = "world";
    const VERSION: u16 = 1;

    fn write_body(&self, w: &mut Writer) {
        w.put_nested(&self.cfg);
        w.put_nested(&self.engine);
        w.put_date(self.day);
        w.put_nested(&self.domains);
        w.put_seq(&self.verticals, |w, v| {
            w.put_str(v.spec.name);
            w.put_u32(v.id.0);
            w.put_seq(&v.terms, |w, t| w.put_u32(t.0));
            w.put_f64(v.popularity);
            w.put_f64(v.elite_prob);
        });
        w.put_seq(&self.brand_names, |w, b| w.put_str(b));
        self.campaigns.write_rows(w);
        self.stores.write_rows(w);
        w.put_seq(&self.firms, put_firm);
        w.put_nested(&self.supplier);
        w.put_u32(self.supplier_domain.0);
        w.put_nested(&self.events);
        put_day_map(w, &self.penalty_due, |w, d| w.put_u32(d.0));
        put_day_map(w, &self.pending_rotations, |w, s| w.put_u32(s.0));
        put_day_map(w, &self.proactive_rotations, |w, s| w.put_u32(s.0));
        put_day_map(w, &self.scripted_seizures, |w, (d, f)| {
            w.put_u32(d.0);
            w.put_u32(f.0);
        });
        w.put_u32(self.next_case);
        w.put_nested(&self.metrics);
        w.put_nested(&self.recorder);
        w.put_seq(&self.event_trail, |w, t| {
            w.put_date(t.day);
            w.put_str(t.stage);
            put_world_event(w, &t.event);
        });
    }

    fn read_body(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let cfg: ScenarioConfig = r.get_nested()?;
        let engine = r.get_nested()?;
        let mut world = World::new_shell(cfg, engine);
        world.day = r.get_date()?;
        world.domains = r.get_nested()?;

        world.verticals = r.get_seq(|r| {
            let name = r.get_str_ref()?;
            let spec = ss_types::market::VERTICALS
                .iter()
                .find(|s| s.name == name)
                .ok_or_else(|| SnapshotError::Corrupt(format!("unknown vertical {name:?}")))?;
            Ok(VerticalState {
                id: VerticalId(r.get_u32()?),
                spec,
                terms: r.get_seq(|r| Ok(TermId(r.get_u32()?)))?,
                popularity: r.get_f64()?,
                elite_prob: r.get_f64()?,
            })
        })?;
        world.brand_names = r.get_seq(|r| static_brand(r.get_str_ref()?))?;

        world.campaigns = CampaignTable::read_rows(r)?;
        world.stores = StoreTable::read_rows(r)?;
        world.index_entities();

        let n_firms = r.get_len()?;
        world.firms = Vec::with_capacity(n_firms.min(1 << 10));
        for fi in 0..n_firms {
            let f = get_firm(r, FirmId::from_index(fi))?;
            world.firms.push(f);
        }
        world.supplier = r.get_nested()?;
        world.supplier_domain = DomainId(r.get_u32()?);
        world.events = r.get_nested()?;
        world.penalty_due = get_day_map(r, |r| Ok(DomainId(r.get_u32()?)))?;
        world.pending_rotations = get_day_map(r, |r| Ok(StoreId(r.get_u32()?)))?;
        world.proactive_rotations = get_day_map(r, |r| Ok(StoreId(r.get_u32()?)))?;
        world.scripted_seizures =
            get_day_map(r, |r| Ok((DomainId(r.get_u32()?), FirmId(r.get_u32()?))))?;
        world.next_case = r.get_u32()?;
        world.metrics = r.get_nested()?;
        world.recorder = r.get_nested()?;
        world.event_trail = r.get_seq(|r| {
            Ok(TrailEvent {
                day: r.get_date()?,
                stage: static_stage(r.get_str_ref()?)?,
                event: get_world_event(r)?,
            })
        })?;
        Ok(world)
    }
}

impl World {
    /// Shifts every not-yet-simulated scripted seizure by `offset` days
    /// (negative = earlier). Shifted days clamp to the current day so no
    /// pending seizure silently lands in the already-simulated past. This
    /// is the intervention knob `repro sweep` turns on each forked arm of
    /// a checkpoint: one decode per arm, one offset per arm.
    pub fn shift_scripted_seizures(&mut self, offset: i64) {
        if offset == 0 {
            return;
        }
        let floor = i64::from(self.day.day_index());
        let pending = self.scripted_seizures.split_off(&self.day);
        for (day, items) in pending {
            let shifted = (i64::from(day.day_index()) + offset).max(floor);
            self.scripted_seizures
                .entry(SimDate::from_day_index(shifted as u32))
                .or_default()
                .extend(items);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    fn ticked_world(days: u32) -> World {
        let mut w = World::build(ScenarioConfig::tiny(11)).unwrap();
        w.set_trace(ss_obs::TraceLevel::Event);
        for _ in 0..days {
            w.tick();
        }
        w
    }

    #[test]
    fn world_snapshot_roundtrip_preserves_fingerprint_and_replay() {
        let mut a = ticked_world(60);
        let bytes = a.encode();
        let mut b = World::decode(&bytes).unwrap();

        assert_eq!(a.day, b.day);
        assert_eq!(a.state_fingerprint(), b.state_fingerprint());
        assert_eq!(a.engine.state_fingerprint(), b.engine.state_fingerprint());
        assert_eq!(a.events.all(), b.events.all());
        assert_eq!(a.event_trail, b.event_trail);
        assert_eq!(a.recorder.render(), b.recorder.render());
        assert_eq!(a.metrics.metrics_json(), b.metrics.metrics_json());

        // The restored world replays the future bit-identically — the
        // resume contract the state plane exists for.
        for _ in 0..15 {
            a.tick();
            b.tick();
        }
        assert_eq!(a.state_fingerprint(), b.state_fingerprint());
        assert_eq!(a.events.all(), b.events.all());
        assert_eq!(a.event_trail, b.event_trail);
    }

    /// Encoding builds every nested frame inside the one output buffer,
    /// so the allocation count is that buffer's doublings plus a few
    /// sorted key lists (22–24 here, for frames of 0.33–0.55 MB): it
    /// stays under a fixed bound as the tables grow, where one copy per
    /// nested frame and one string per doc URL would not.
    #[test]
    fn world_encode_allocations_stay_fixed_as_rows_grow() {
        let mut w = ticked_world(20);
        let mut last_len = 0;
        for _ in 0..3 {
            let (a0, _, _) = ss_obs::thread_alloc_counts();
            let frame = w.encode();
            let allocs = ss_obs::thread_alloc_counts().0 - a0;
            assert!(
                allocs <= 40,
                "{allocs} allocations for {} bytes",
                frame.len()
            );
            assert!(frame.len() > last_len, "the tables did not grow");
            last_len = frame.len();
            for _ in 0..40 {
                w.tick();
            }
        }
    }

    /// A hash-valid `domain-table` frame naming one domain twice is a
    /// typed error, not a panic in `register`.
    #[test]
    fn duplicate_domain_is_a_typed_error() {
        let frame =
            ss_types::snapshot::encode_framed(DomainTable::TAG, DomainTable::VERSION, |w| {
                w.put_len(2);
                for _ in 0..2 {
                    w.put_str("dup.com");
                    put_site_kind(w, &SiteKind::Supplier);
                    w.put_date(SimDate::from_day_index(3));
                    w.put_opt(None, put_seizure);
                }
            });
        match DomainTable::decode(&frame) {
            Err(SnapshotError::Corrupt(why)) => assert!(why.contains("dup.com"), "{why}"),
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("a duplicate domain decoded"),
        }
    }

    #[test]
    fn world_snapshot_is_deterministic() {
        let a = ticked_world(40);
        let b = ticked_world(40);
        assert_eq!(a.encode(), b.encode());
    }

    #[test]
    fn corrupted_world_snapshots_are_rejected() {
        let w = ticked_world(10);
        let bytes = w.encode();
        assert!(matches!(
            World::decode(&bytes[..bytes.len() - 1]),
            Err(SnapshotError::IntegrityMismatch | SnapshotError::Truncated)
        ));
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(World::decode(&flipped).is_err());
    }

    #[test]
    fn shifting_scripted_seizures_moves_only_the_future() {
        let mut w = ticked_world(30);
        let today = w.day;
        let past: Vec<SimDate> = w
            .scripted_seizures
            .keys()
            .copied()
            .filter(|d| *d < today)
            .collect();
        let future: Vec<SimDate> = w
            .scripted_seizures
            .keys()
            .copied()
            .filter(|d| *d >= today)
            .collect();
        assert!(!future.is_empty(), "tiny world should script seizures late");
        w.shift_scripted_seizures(7);
        for d in &past {
            assert!(w.scripted_seizures.contains_key(d), "past entry moved");
        }
        for d in &future {
            assert!(w.scripted_seizures.contains_key(&(*d + 7u32)));
        }
        // Large negative offsets clamp to today instead of vanishing.
        let mut v = ticked_world(30);
        let pending: usize = v
            .scripted_seizures
            .iter()
            .filter(|(d, _)| **d >= v.day)
            .map(|(_, items)| items.len())
            .sum();
        v.shift_scripted_seizures(-10_000);
        assert_eq!(v.scripted_seizures.get(&v.day).map_or(0, Vec::len), pending);
    }

    #[test]
    fn scenario_config_roundtrips() {
        for cfg in [
            ScenarioConfig::tiny(3),
            ScenarioConfig::small(9),
            ScenarioConfig::paper(1),
        ] {
            assert_eq!(ScenarioConfig::decode(&cfg.encode()).unwrap(), cfg);
        }
        let mut cfg = ScenarioConfig::tiny(4);
        cfg.payment_policy = PaymentPolicy {
            enabled: true,
            start_day: 150,
            blocked: vec!["realypay".into()],
            migration_days: Some(14),
        };
        assert_eq!(ScenarioConfig::decode(&cfg.encode()).unwrap(), cfg);
    }
}
