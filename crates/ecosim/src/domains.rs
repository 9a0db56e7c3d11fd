//! The domain table: the simulated DNS plus per-domain site bindings,
//! stored struct-of-arrays like the rest of the entity plane.

use rand::Rng;
use ss_types::rng::SimRng;
use ss_types::{CampaignId, CaseId, DomainId, DomainName, FirmId, SimDate, StoreId};

use ss_web::cloak::CloakMode;
use ss_web::pagegen::legit::LegitTheme;

/// What a domain hosts. Small and `Copy` — it lives in a dense column and
/// is read by value on every fetch dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// A legitimate site competing in organic results.
    Legit {
        /// Content theme.
        theme: LegitTheme,
        /// Brand the site's content centers on.
        brand: &'static str,
    },
    /// A doorway redirecting search traffic to a store.
    Doorway {
        /// Operating campaign.
        campaign: CampaignId,
        /// Whether this is a compromised innocent site (vs. attacker-owned).
        compromised: bool,
        /// Cloaking mechanism.
        cloak: CloakMode,
        /// The store the doorway currently targets (rotated on seizure).
        target_store: StoreId,
    },
    /// A counterfeit storefront (current or former domain of `store`).
    Storefront {
        /// The logical store.
        store: StoreId,
    },
    /// The supplier's order-tracking portal.
    Supplier,
    /// A storefront domain never surfaced via our monitored terms — the
    /// "offstage" bulk that court seizure schedules are full of.
    OffstageStore,
}

/// Seizure state of a domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seizure {
    /// Day the court order took effect.
    pub day: SimDate,
    /// Court case.
    pub case: CaseId,
    /// Executing firm.
    pub firm: FirmId,
}

/// Borrowed view of one registered domain. `Copy`; the kind is read by
/// value so `match rec.kind { … }` dispatch needs no clone.
#[derive(Debug, Clone, Copy)]
pub struct DomainRef<'a> {
    /// Id (row index).
    pub id: DomainId,
    /// The name.
    pub name: &'a DomainName,
    /// What it hosts.
    pub kind: SiteKind,
    /// Registration day.
    pub created: SimDate,
    /// Seizure, if any (a seized domain serves the notice page).
    pub seized: Option<Seizure>,
}

/// The domain table. Ids are dense row indices; each field is its own
/// column so hot paths (seizure checks, kind dispatch) touch only the
/// bytes they need. Lookups by name are hashed.
#[derive(Debug, Default)]
pub struct DomainTable {
    name: Vec<DomainName>,
    kind: Vec<SiteKind>,
    created: Vec<SimDate>,
    pub(crate) seized: Vec<Option<Seizure>>,
    by_name: std::collections::HashMap<DomainName, DomainId>,
}

impl DomainTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table with room for `n` domains.
    pub(crate) fn with_capacity(n: usize) -> Self {
        DomainTable {
            name: Vec::with_capacity(n),
            kind: Vec::with_capacity(n),
            created: Vec::with_capacity(n),
            seized: Vec::with_capacity(n),
            by_name: std::collections::HashMap::with_capacity(n),
        }
    }

    /// Registers a domain; panics on duplicate names (world-generation bug).
    pub fn register(&mut self, name: DomainName, kind: SiteKind, created: SimDate) -> DomainId {
        let id = DomainId::from_index(self.name.len());
        let prev = self.by_name.insert(name.clone(), id);
        assert!(prev.is_none(), "duplicate domain registration: {name}");
        self.name.push(name);
        self.kind.push(kind);
        self.created.push(created);
        self.seized.push(None);
        id
    }

    /// Registers, appending a numeric suffix on collision (name generators
    /// can collide at scale; the web has no shortage of `-2` domains).
    pub fn register_unique(&mut self, base: &str, kind: SiteKind, created: SimDate) -> DomainId {
        if let Ok(name) = DomainName::parse(base) {
            if !self.by_name.contains_key(&name) {
                return self.register(name, kind, created);
            }
        }
        let (stem, tld) = base.rsplit_once('.').unwrap_or((base, "com"));
        for i in 2.. {
            let candidate = format!("{stem}-{i}.{tld}");
            if let Ok(name) = DomainName::parse(&candidate) {
                if !self.by_name.contains_key(&name) {
                    return self.register(name, kind, created);
                }
            }
        }
        unreachable!("suffix space is unbounded")
    }

    /// Looks up a domain id by name.
    pub fn lookup(&self, name: &DomainName) -> Option<DomainId> {
        self.by_name.get(name).copied()
    }

    /// Row view of `id`.
    pub fn get(&self, id: DomainId) -> DomainRef<'_> {
        let i = id.index();
        DomainRef {
            id,
            name: &self.name[i],
            kind: self.kind[i],
            created: self.created[i],
            seized: self.seized[i],
        }
    }

    /// The site kind column entry alone (hot-path dispatch).
    #[inline]
    pub(crate) fn kind_of(&self, id: DomainId) -> SiteKind {
        self.kind[id.index()]
    }

    /// The seizure column entry alone (hot-path checks touch one column
    /// instead of constructing a full [`DomainRef`]).
    #[inline]
    pub fn seizure_of(&self, id: DomainId) -> Option<Seizure> {
        self.seized[id.index()]
    }

    /// Number of registered domains.
    pub fn len(&self) -> usize {
        self.name.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.name.is_empty()
    }

    /// Iterates row views in id order.
    pub fn iter(&self) -> impl Iterator<Item = DomainRef<'_>> {
        (0..self.len()).map(|i| self.get(DomainId::from_index(i)))
    }

    /// Marks a domain seized (first writer wins).
    pub fn seize(&mut self, id: DomainId, seizure: Seizure) {
        self.seized[id.index()].get_or_insert(seizure);
    }
}

// ---- name generation ----

const LEGIT_STEMS: &[&str] = &[
    "daily", "north", "green", "river", "cedar", "sunny", "global", "metro", "prime", "bright",
    "summit", "harbor", "valley", "golden", "rapid", "silver", "stone", "maple", "crystal",
];
const LEGIT_TAILS: &[&str] = &[
    "news", "review", "journal", "blog", "times", "post", "shop", "market", "style", "life",
    "world", "report", "gazette", "digest", "weekly",
];
const STORE_ADJ: &[&str] = &[
    "cheap", "discount", "outlet", "vip", "best", "top", "luxe", "official", "mall", "super",
];
const TLDS: &[&str] = &["com", "net", "org", "biz", "info", "co"];

/// Generates a legitimate-looking domain name.
pub fn legit_name(rng: &mut SimRng) -> String {
    format!(
        "{}{}{}.{}",
        LEGIT_STEMS[rng.gen_range(0..LEGIT_STEMS.len())],
        LEGIT_TAILS[rng.gen_range(0..LEGIT_TAILS.len())],
        rng.gen_range(0..100),
        TLDS[rng.gen_range(0..TLDS.len())],
    )
}

/// Generates a compromised-doorway name (an innocent site's name).
pub fn doorway_name(rng: &mut SimRng) -> String {
    format!(
        "{}-{}{}.{}",
        LEGIT_STEMS[rng.gen_range(0..LEGIT_STEMS.len())],
        LEGIT_TAILS[rng.gen_range(0..LEGIT_TAILS.len())],
        rng.gen_range(0..1000),
        TLDS[rng.gen_range(0..TLDS.len())],
    )
}

/// Generates a storefront name shilling `brand`.
pub fn store_name(rng: &mut SimRng, brand: &str) -> String {
    let slug: String = brand
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_ascii_lowercase();
    format!(
        "{}-{}-{}{}.{}",
        STORE_ADJ[rng.gen_range(0..STORE_ADJ.len())],
        slug,
        ["store", "outlet", "shop", "sale", "online"][rng.gen_range(0..5)],
        rng.gen_range(0..100),
        TLDS[rng.gen_range(0..TLDS.len())],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_types::rng::sub_rng;

    fn day0() -> SimDate {
        SimDate::EPOCH
    }

    #[test]
    fn register_and_lookup() {
        let mut reg = DomainTable::new();
        let name = DomainName::parse("example.com").unwrap();
        let id = reg.register(name.clone(), SiteKind::Supplier, day0());
        assert_eq!(reg.lookup(&name), Some(id));
        assert_eq!(reg.get(id).kind, SiteKind::Supplier);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn register_unique_suffixes_on_collision() {
        let mut reg = DomainTable::new();
        let a = reg.register_unique("shop.com", SiteKind::OffstageStore, day0());
        let b = reg.register_unique("shop.com", SiteKind::OffstageStore, day0());
        assert_ne!(a, b);
        assert_eq!(reg.get(b).name.as_str(), "shop-2.com");
        let c = reg.register_unique("shop.com", SiteKind::OffstageStore, day0());
        assert_eq!(reg.get(c).name.as_str(), "shop-3.com");
    }

    #[test]
    #[should_panic(expected = "duplicate domain registration")]
    fn duplicate_register_panics() {
        let mut reg = DomainTable::new();
        let name = DomainName::parse("dup.com").unwrap();
        reg.register(name.clone(), SiteKind::Supplier, day0());
        reg.register(name, SiteKind::Supplier, day0());
    }

    #[test]
    fn seizure_is_first_writer_wins() {
        let mut reg = DomainTable::new();
        let id = reg.register(
            DomainName::parse("s.com").unwrap(),
            SiteKind::OffstageStore,
            day0(),
        );
        let first = Seizure {
            day: SimDate::from_day_index(10),
            case: CaseId(1),
            firm: FirmId(0),
        };
        reg.seize(id, first);
        reg.seize(
            id,
            Seizure {
                day: SimDate::from_day_index(99),
                case: CaseId(2),
                firm: FirmId(1),
            },
        );
        assert_eq!(reg.get(id).seized, Some(first));
    }

    #[test]
    fn generated_names_parse() {
        let mut rng = sub_rng(1, "names");
        for _ in 0..200 {
            DomainName::parse(&legit_name(&mut rng)).unwrap();
            DomainName::parse(&doorway_name(&mut rng)).unwrap();
            DomainName::parse(&store_name(&mut rng, "Louis Vuitton")).unwrap();
        }
    }

    #[test]
    fn store_names_embed_brand_slug() {
        let mut rng = sub_rng(2, "names");
        assert!(store_name(&mut rng, "Beats By Dre").contains("beatsbydre"));
    }
}
