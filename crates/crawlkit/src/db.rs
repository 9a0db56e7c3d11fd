//! The crawl database: compact, interned, columnar storage for a
//! paper-scale crawl (millions of PSR observations).
//!
//! Crawler-side identifiers are deliberately independent of the
//! simulator's ids — the apparatus only ever sees strings on the wire,
//! exactly like the original study.
//!
//! # Columnar layout
//!
//! PSR observations live in [`PsrStore`], a struct-of-arrays store: one
//! typed column per field (day, vertical, term, rank, domain, root-ness,
//! label, landing). Analyses that touch one or two fields per row scan
//! only those columns, and a borrowed [`ColumnView`] hands the whole set
//! to aggregation code without copying. Because the crawler replays event
//! logs day by day and vertical by vertical, rows arrive sorted by
//! `(day, vertical)`; the store records the start of each such run, which
//! turns day queries and day-aligned shards into range lookups instead of
//! full scans. That order is an invariant: an out-of-order `push` panics,
//! and a checkpoint frame holding out-of-order rows decodes to
//! [`SnapshotError::Corrupt`].

use std::collections::HashMap;
use std::ops::Range;

use ss_types::snapshot::{fnv1a64, Reader, Snapshot, SnapshotError, Writer};
use ss_types::SimDate;

use crate::dagger::CloakSignal;
use crate::stores::SeizureNotice;

// The intern table moved to `ss_types` so the simulator's component tables
// can share it; the crawl-side path stays stable.
pub use ss_types::Interner;

/// One observed poisoned search result (a cloaked result in a monitored
/// SERP on one day).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PsrRecord {
    /// Observation day.
    pub day: SimDate,
    /// Vertical index (crawler-side, ordered as monitored).
    pub vertical: u16,
    /// Interned term text.
    pub term: u32,
    /// 1-based rank in the SERP.
    pub rank: u8,
    /// Interned doorway domain name.
    pub domain: u32,
    /// Whether the result URL was the domain root (label policy analysis).
    pub is_root: bool,
    /// Whether the result carried the "hacked" label.
    pub labeled: bool,
    /// Interned landing (store) domain at observation time, if resolved.
    pub landing: Option<u32>,
}

/// Landing-column sentinel for "no landing resolved". Interner ids are
/// dense from zero, so the maximum is unreachable as a real id.
const NO_LANDING: u32 = u32::MAX;

/// Start of one maximal `(day, vertical)` run of rows.
#[derive(Debug, Clone, Copy)]
struct Run {
    day: SimDate,
    vertical: u16,
    start: u32,
}

/// Columnar (struct-of-arrays) PSR storage with a `(day, vertical)` run
/// index. Logically a `Vec<PsrRecord>` in append order — `push`, `len`,
/// `get`, and `iter` behave exactly like the row-store it replaced, and
/// equality compares only row content — but scans read per-field column
/// slices via [`PsrStore::columns`]. Rows append in `(day, vertical)`
/// order (the crawler's replay order).
#[derive(Debug, Clone, Default)]
pub struct PsrStore {
    day: Vec<SimDate>,
    vertical: Vec<u16>,
    term: Vec<u32>,
    rank: Vec<u8>,
    domain: Vec<u32>,
    is_root: Vec<bool>,
    labeled: Vec<bool>,
    landing: Vec<u32>,
    /// Start row of each maximal `(day, vertical)` run.
    runs: Vec<Run>,
}

impl PartialEq for PsrStore {
    /// Row-content equality; the index is derived state and two stores
    /// holding the same rows are equal however they were built.
    fn eq(&self, other: &Self) -> bool {
        self.day == other.day
            && self.vertical == other.vertical
            && self.term == other.term
            && self.rank == other.rank
            && self.domain == other.domain
            && self.is_root == other.is_root
            && self.labeled == other.labeled
            && self.landing == other.landing
    }
}

impl Eq for PsrStore {}

impl PsrStore {
    /// Appends a record, extending the run index.
    ///
    /// # Panics
    ///
    /// If `r` sorts before the last row by `(day, vertical)`.
    pub fn push(&mut self, r: PsrRecord) {
        debug_assert_ne!(
            r.landing,
            Some(NO_LANDING),
            "landing id collides with sentinel"
        );
        assert!(
            self.in_order(&r),
            "PSR rows append in (day, vertical) order"
        );
        if self.runs.last().map(|l| (l.day, l.vertical)) != Some((r.day, r.vertical)) {
            self.runs.push(Run {
                day: r.day,
                vertical: r.vertical,
                start: self.day.len() as u32,
            });
        }
        self.day.push(r.day);
        self.vertical.push(r.vertical);
        self.term.push(r.term);
        self.rank.push(r.rank);
        self.domain.push(r.domain);
        self.is_root.push(r.is_root);
        self.labeled.push(r.labeled);
        self.landing.push(r.landing.unwrap_or(NO_LANDING));
    }

    /// Whether `r` may follow the last row (`push` would accept it).
    fn in_order(&self, r: &PsrRecord) -> bool {
        self.runs
            .last()
            .is_none_or(|last| (r.day, r.vertical) >= (last.day, last.vertical))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.day.len()
    }

    /// Whether the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.day.is_empty()
    }

    /// The row at `row`, materialized.
    pub fn get(&self, row: usize) -> PsrRecord {
        self.columns().record(row)
    }

    /// Iterates rows in append order.
    pub fn iter(&self) -> PsrIter<'_> {
        PsrIter {
            cols: self.columns(),
            next: 0,
        }
    }

    /// Borrowed views of every column.
    pub fn columns(&self) -> ColumnView<'_> {
        ColumnView {
            day: &self.day,
            vertical: &self.vertical,
            term: &self.term,
            rank: &self.rank,
            domain: &self.domain,
            is_root: &self.is_root,
            labeled: &self.labeled,
            landing: &self.landing,
        }
    }

    /// Row indices observed on `day`: a binary-searched range of the run
    /// index.
    pub fn day_rows(&self, day: SimDate) -> Range<usize> {
        let at = |run: usize| {
            self.runs
                .get(run)
                .map(|r| r.start as usize)
                .unwrap_or(self.len())
        };
        at(self.runs.partition_point(|r| r.day < day))
            ..at(self.runs.partition_point(|r| r.day <= day))
    }

    /// Splits the rows into at most `max_shards` contiguous chunks that
    /// never split a day, for parallel scans whose per-day accumulators
    /// must each be filled by exactly one worker. Deterministic for a
    /// given `(rows, max_shards)`; a single full-range chunk when
    /// `max_shards <= 1`.
    pub fn day_shards(&self, max_shards: usize) -> Vec<Range<usize>> {
        let len = self.len();
        if len == 0 {
            return Vec::new();
        }
        if max_shards <= 1 {
            return std::iter::once(0..len).collect();
        }
        let mut day_starts: Vec<usize> = Vec::new();
        let mut prev_day = None;
        for r in &self.runs {
            if prev_day != Some(r.day) {
                day_starts.push(r.start as usize);
                prev_day = Some(r.day);
            }
        }
        day_starts.push(len);
        let target = len.div_ceil(max_shards);
        let mut shards = Vec::new();
        let mut begin = 0usize;
        for w in day_starts.windows(2) {
            if w[1] - begin >= target && shards.len() + 1 < max_shards {
                shards.push(begin..w[1]);
                begin = w[1];
            }
        }
        if begin < len {
            shards.push(begin..len);
        }
        shards
    }
}

impl PsrStore {
    /// Order-sensitive fingerprint of the full row set — folded into the
    /// study-level `run_fingerprint` so checkpoint/resume equivalence
    /// covers the measurement plane, not just the `World`.
    pub fn state_fingerprint(&self) -> u64 {
        fnv1a64(&self.encode())
    }
}

impl Snapshot for PsrStore {
    const TAG: &'static str = "psr-store";
    const VERSION: u16 = 1;

    /// Rows in append order. Decode replays them through [`PsrStore::push`],
    /// which rebuilds the `(day, vertical)` run index rather than trusting
    /// serialized derived state; a row out of that order is corrupt input.
    fn write_body(&self, w: &mut Writer) {
        w.put_len(self.len());
        for i in 0..self.len() {
            w.put_date(self.day[i]);
            w.put_u16(self.vertical[i]);
            w.put_u32(self.term[i]);
            w.put_u8(self.rank[i]);
            w.put_u32(self.domain[i]);
            w.put_bool(self.is_root[i]);
            w.put_bool(self.labeled[i]);
            w.put_u32(self.landing[i]);
        }
    }

    fn read_body(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let mut store = PsrStore::default();
        for row in 0..r.get_len()? {
            let day = r.get_date()?;
            let vertical = r.get_u16()?;
            let term = r.get_u32()?;
            let rank = r.get_u8()?;
            let domain = r.get_u32()?;
            let is_root = r.get_bool()?;
            let labeled = r.get_bool()?;
            let landing = r.get_u32()?;
            let rec = PsrRecord {
                day,
                vertical,
                term,
                rank,
                domain,
                is_root,
                labeled,
                landing: (landing != NO_LANDING).then_some(landing),
            };
            if !store.in_order(&rec) {
                return Err(SnapshotError::Corrupt(format!(
                    "PSR row {row} (day {day}, vertical {vertical}) is out of (day, vertical) order"
                )));
            }
            store.push(rec);
        }
        Ok(store)
    }
}

impl<'a> IntoIterator for &'a PsrStore {
    type Item = PsrRecord;
    type IntoIter = PsrIter<'a>;
    fn into_iter(self) -> PsrIter<'a> {
        self.iter()
    }
}

/// Row iterator over a [`PsrStore`], yielding materialized records.
#[derive(Debug, Clone)]
pub struct PsrIter<'a> {
    cols: ColumnView<'a>,
    next: usize,
}

impl Iterator for PsrIter<'_> {
    type Item = PsrRecord;
    fn next(&mut self) -> Option<PsrRecord> {
        if self.next >= self.cols.len() {
            return None;
        }
        let r = self.cols.record(self.next);
        self.next += 1;
        Some(r)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.cols.len() - self.next;
        (n, Some(n))
    }
}

impl ExactSizeIterator for PsrIter<'_> {}

/// Borrowed column slices of a [`PsrStore`] — what aggregation code scans.
#[derive(Debug, Clone, Copy)]
pub struct ColumnView<'a> {
    /// Observation day per row.
    pub day: &'a [SimDate],
    /// Vertical index per row.
    pub vertical: &'a [u16],
    /// Interned term id per row.
    pub term: &'a [u32],
    /// SERP rank per row.
    pub rank: &'a [u8],
    /// Interned doorway domain id per row.
    pub domain: &'a [u32],
    /// Root-URL flag per row.
    pub is_root: &'a [bool],
    /// Hacked-label flag per row.
    pub labeled: &'a [bool],
    landing: &'a [u32],
}

impl ColumnView<'_> {
    /// Number of rows in view.
    pub fn len(&self) -> usize {
        self.day.len()
    }

    /// Whether the view covers no rows.
    pub fn is_empty(&self) -> bool {
        self.day.is_empty()
    }

    /// Landing (store) domain id of a row, if one was resolved.
    pub fn landing(&self, row: usize) -> Option<u32> {
        let l = self.landing[row];
        (l != NO_LANDING).then_some(l)
    }

    /// Materializes one row.
    pub fn record(&self, row: usize) -> PsrRecord {
        PsrRecord {
            day: self.day[row],
            vertical: self.vertical[row],
            term: self.term[row],
            rank: self.rank[row],
            domain: self.domain[row],
            is_root: self.is_root[row],
            labeled: self.labeled[row],
            landing: self.landing(row),
        }
    }
}

/// Per-doorway-domain knowledge accumulated by the crawler.
#[derive(Debug, Clone)]
pub struct DomainInfo {
    /// First day the domain appeared in any monitored SERP.
    pub first_seen: SimDate,
    /// Last day it appeared.
    pub last_seen: SimDate,
    /// Cloaking verdict (None = checked and clean).
    pub cloak: Option<CloakSignal>,
    /// Landing history: `(day, interned store domain)` transitions.
    pub landings: Vec<(SimDate, u32)>,
    /// Days on which this domain's results carried the hacked label
    /// (first and last observation).
    pub label_seen: Option<(SimDate, SimDate)>,
    /// Last day the result was seen *without* a label before the first
    /// labeled sighting (for censored delay estimation).
    pub last_unlabeled_before: Option<SimDate>,
    /// How many pages VanGogh has rendered for this domain (≤ sample cap).
    pub rendered_pages: u8,
    /// Day the landing was last re-verified.
    pub last_verified: SimDate,
}

/// Per-store-domain knowledge.
#[derive(Debug, Clone)]
pub struct StoreInfo {
    /// First day this store domain was reached through a PSR.
    pub first_seen: SimDate,
    /// Last day it was reached.
    pub last_seen: SimDate,
    /// Store-detection verdict.
    pub is_store: bool,
    /// Captured landing-page HTML (classifier input).
    pub html: String,
    /// Cookie names observed.
    pub cookie_names: Vec<String>,
    /// Seizure notice observed at this domain, with first observation day.
    pub seizure: Option<(SimDate, SeizureNotice)>,
    /// Last day the store was seen alive (non-notice) before the first
    /// notice observation.
    pub last_alive_before_seizure: Option<SimDate>,
}

/// The crawl database.
#[derive(Debug, Default)]
pub struct CrawlDb {
    /// Interned domain names (doorways and stores share the table).
    pub domains: Interner,
    /// Interned term texts.
    pub terms: Interner,
    /// All PSR observations, columnar, in crawl order.
    pub psrs: PsrStore,
    /// Doorway knowledge, keyed by interned domain id.
    pub doorway_info: HashMap<u32, DomainInfo>,
    /// Store knowledge, keyed by interned domain id.
    pub store_info: HashMap<u32, StoreInfo>,
    /// Total results crawled (PSR or not), for rate denominators:
    /// `(day, vertical, top10_seen, top10_poisoned, total_seen, total_poisoned)`.
    pub daily_counts: Vec<DailyCount>,
}

/// Per-(day, vertical) SERP counting for Figures 2 and 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DailyCount {
    /// Day.
    pub day: SimDate,
    /// Crawler-side vertical index.
    pub vertical: u16,
    /// Results seen in top-10 positions.
    pub top10_seen: u32,
    /// Poisoned results among them.
    pub top10_poisoned: u32,
    /// Results seen across the crawled depth.
    pub total_seen: u32,
    /// Poisoned results among them.
    pub total_poisoned: u32,
}

impl CrawlDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Unique doorway domains confirmed cloaked.
    pub fn poisoned_domains(&self) -> impl Iterator<Item = (&u32, &DomainInfo)> {
        self.doorway_info.iter().filter(|(_, i)| i.cloak.is_some())
    }

    /// Unique store domains that passed store detection.
    pub fn detected_stores(&self) -> impl Iterator<Item = (&u32, &StoreInfo)> {
        self.store_info.iter().filter(|(_, s)| s.is_store)
    }

    /// Interned ids of detected stores, sorted by domain name. `store_info`
    /// is a `HashMap` with unstable iteration order; every consumer that
    /// enrolls, caps, or sweeps the store set needs the same deterministic
    /// order, so the sort lives here once. Names are unique per id, so
    /// sorting ids by resolved name equals sorting the names themselves.
    pub fn detected_store_ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.detected_stores().map(|(id, _)| *id).collect();
        ids.sort_unstable_by(|a, b| self.domains.resolve(*a).cmp(self.domains.resolve(*b)));
        ids
    }

    /// Detected store domain names, sorted — the owned-string view of
    /// [`CrawlDb::detected_store_ids`] for report boundaries.
    pub fn detected_store_domains(&self) -> Vec<String> {
        self.detected_store_ids()
            .into_iter()
            .map(|id| self.domains.resolve(id).to_owned())
            .collect()
    }
}

fn put_cloak_signal(w: &mut Writer, c: &CloakSignal) {
    w.put_u8(match c {
        CloakSignal::HttpRedirect => 0,
        CloakSignal::JsRedirect => 1,
        CloakSignal::ContentDiff => 2,
        CloakSignal::Iframe => 3,
    });
}

fn get_cloak_signal(r: &mut Reader<'_>) -> Result<CloakSignal, SnapshotError> {
    Ok(match r.get_u8()? {
        0 => CloakSignal::HttpRedirect,
        1 => CloakSignal::JsRedirect,
        2 => CloakSignal::ContentDiff,
        3 => CloakSignal::Iframe,
        b => return Err(SnapshotError::Corrupt(format!("cloak signal byte {b}"))),
    })
}

fn put_domain_info(w: &mut Writer, i: &DomainInfo) {
    w.put_date(i.first_seen);
    w.put_date(i.last_seen);
    w.put_opt(i.cloak.as_ref(), put_cloak_signal);
    w.put_seq(&i.landings, |w, (day, store)| {
        w.put_date(*day);
        w.put_u32(*store);
    });
    w.put_opt(i.label_seen.as_ref(), |w, (first, last)| {
        w.put_date(*first);
        w.put_date(*last);
    });
    w.put_opt(i.last_unlabeled_before.as_ref(), |w, d| w.put_date(*d));
    w.put_u8(i.rendered_pages);
    w.put_date(i.last_verified);
}

fn get_domain_info(r: &mut Reader<'_>) -> Result<DomainInfo, SnapshotError> {
    Ok(DomainInfo {
        first_seen: r.get_date()?,
        last_seen: r.get_date()?,
        cloak: r.get_opt(get_cloak_signal)?,
        landings: r.get_seq(|r| Ok((r.get_date()?, r.get_u32()?)))?,
        label_seen: r.get_opt(|r| Ok((r.get_date()?, r.get_date()?)))?,
        last_unlabeled_before: r.get_opt(|r| r.get_date())?,
        rendered_pages: r.get_u8()?,
        last_verified: r.get_date()?,
    })
}

fn put_store_info(w: &mut Writer, s: &StoreInfo) {
    w.put_date(s.first_seen);
    w.put_date(s.last_seen);
    w.put_bool(s.is_store);
    w.put_str(&s.html);
    w.put_seq(&s.cookie_names, |w, c| w.put_str(c));
    w.put_opt(s.seizure.as_ref(), |w, (day, notice)| {
        w.put_date(*day);
        w.put_str(&notice.firm);
        w.put_str(&notice.case_id);
        w.put_str(&notice.brand);
        w.put_seq(&notice.seized_domains, |w, d| w.put_str(d));
    });
    w.put_opt(s.last_alive_before_seizure.as_ref(), |w, d| w.put_date(*d));
}

fn get_store_info(r: &mut Reader<'_>) -> Result<StoreInfo, SnapshotError> {
    Ok(StoreInfo {
        first_seen: r.get_date()?,
        last_seen: r.get_date()?,
        is_store: r.get_bool()?,
        html: r.get_str()?,
        cookie_names: r.get_seq(|r| r.get_str())?,
        seizure: r.get_opt(|r| {
            Ok((
                r.get_date()?,
                SeizureNotice {
                    firm: r.get_str()?,
                    case_id: r.get_str()?,
                    brand: r.get_str()?,
                    seized_domains: r.get_seq(|r| r.get_str())?,
                },
            ))
        })?,
        last_alive_before_seizure: r.get_opt(|r| r.get_date())?,
    })
}

impl Snapshot for CrawlDb {
    const TAG: &'static str = "crawl-db";
    const VERSION: u16 = 1;

    fn write_body(&self, w: &mut Writer) {
        w.put_nested(&self.domains);
        w.put_nested(&self.terms);
        w.put_nested(&self.psrs);
        // HashMap iteration order is unstable; the frame is canonical, so
        // both maps are written sorted by interned key.
        let mut doorways: Vec<(&u32, &DomainInfo)> = self.doorway_info.iter().collect();
        doorways.sort_by_key(|(id, _)| **id);
        w.put_len(doorways.len());
        for (id, info) in doorways {
            w.put_u32(*id);
            put_domain_info(w, info);
        }
        let mut stores: Vec<(&u32, &StoreInfo)> = self.store_info.iter().collect();
        stores.sort_by_key(|(id, _)| **id);
        w.put_len(stores.len());
        for (id, info) in stores {
            w.put_u32(*id);
            put_store_info(w, info);
        }
        w.put_seq(&self.daily_counts, |w, c| {
            w.put_date(c.day);
            w.put_u16(c.vertical);
            w.put_u32(c.top10_seen);
            w.put_u32(c.top10_poisoned);
            w.put_u32(c.total_seen);
            w.put_u32(c.total_poisoned);
        });
    }

    fn read_body(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let domains = r.get_nested()?;
        let terms = r.get_nested()?;
        let psrs = r.get_nested()?;
        let mut doorway_info = HashMap::new();
        for _ in 0..r.get_len()? {
            let id = r.get_u32()?;
            if doorway_info.insert(id, get_domain_info(r)?).is_some() {
                return Err(SnapshotError::Corrupt(format!(
                    "duplicate doorway key {id}"
                )));
            }
        }
        let mut store_info = HashMap::new();
        for _ in 0..r.get_len()? {
            let id = r.get_u32()?;
            if store_info.insert(id, get_store_info(r)?).is_some() {
                return Err(SnapshotError::Corrupt(format!("duplicate store key {id}")));
            }
        }
        let daily_counts = r.get_seq(|r| {
            Ok(DailyCount {
                day: r.get_date()?,
                vertical: r.get_u16()?,
                top10_seen: r.get_u32()?,
                top10_poisoned: r.get_u32()?,
                total_seen: r.get_u32()?,
                total_poisoned: r.get_u32()?,
            })
        })?;
        Ok(CrawlDb {
            domains,
            terms,
            psrs,
            doorway_info,
            store_info,
            daily_counts,
        })
    }
}

#[cfg(test)]
mod tests {
    use ss_types::snapshot::encode_framed;

    use super::*;

    #[test]
    fn interner_roundtrips() {
        let mut i = Interner::default();
        let a = i.intern("door.com");
        let b = i.intern("store.com");
        let a2 = i.intern("door.com");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "door.com");
        assert_eq!(i.get("store.com"), Some(b));
        assert_eq!(i.get("missing.com"), None);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn interner_len_and_resolve_roundtrip_many() {
        let mut i = Interner::default();
        let names: Vec<String> = (0..100).map(|k| format!("host{k}.com")).collect();
        let ids: Vec<u32> = names.iter().map(|n| i.intern(n)).collect();
        assert_eq!(i.len(), names.len());
        for (n, id) in names.iter().zip(&ids) {
            assert_eq!(i.resolve(*id), n.as_str());
            assert_eq!(i.get(n), Some(*id));
            // Re-interning is id-stable and does not grow the table.
            assert_eq!(i.intern(n), *id);
        }
        assert_eq!(i.len(), names.len());
    }

    fn rec(day: u32, vertical: u16, domain: u32, rank: u8, landing: Option<u32>) -> PsrRecord {
        PsrRecord {
            day: SimDate::from_day_index(day),
            vertical,
            term: 0,
            rank,
            domain,
            is_root: rank == 1,
            labeled: domain.is_multiple_of(2),
            landing,
        }
    }

    /// Rows in crawl order: days ascending, verticals ascending per day.
    fn ordered_store() -> PsrStore {
        let mut s = PsrStore::default();
        for day in 140..145 {
            for vertical in 0..3u16 {
                for k in 0..(1 + (day + u32::from(vertical)) % 3) {
                    s.push(rec(day, vertical, day * 10 + k, (k + 1) as u8, Some(7)));
                }
            }
        }
        s
    }

    #[test]
    fn store_round_trips_records() {
        let s = ordered_store();
        assert!(!s.is_empty());
        let via_iter: Vec<PsrRecord> = s.iter().collect();
        let via_get: Vec<PsrRecord> = (0..s.len()).map(|i| s.get(i)).collect();
        assert_eq!(via_iter, via_get);
        assert_eq!(s.iter().len(), s.len());
        let cols = s.columns();
        assert_eq!(cols.len(), s.len());
        assert_eq!(cols.landing(0), Some(7));
    }

    #[test]
    fn indexed_queries_match_filtered_scans() {
        let s = ordered_store();
        for day in 139..146 {
            let d = SimDate::from_day_index(day);
            let fast: Vec<usize> = s.day_rows(d).collect();
            let slow: Vec<usize> = (0..s.len()).filter(|&i| s.get(i).day == d).collect();
            assert_eq!(fast, slow, "day {day}");
        }
    }

    #[test]
    #[should_panic(expected = "PSR rows append in (day, vertical) order")]
    fn out_of_order_append_panics() {
        let mut s = ordered_store();
        s.push(rec(140, 0, 999, 3, None)); // day earlier than the tail
    }

    #[test]
    fn out_of_order_frames_are_corrupt() {
        let frame = encode_framed(PsrStore::TAG, PsrStore::VERSION, |w| {
            w.put_len(2);
            for day in [141, 140] {
                let r = rec(day, 0, 7, 1, None);
                w.put_date(r.day);
                w.put_u16(r.vertical);
                w.put_u32(r.term);
                w.put_u8(r.rank);
                w.put_u32(r.domain);
                w.put_bool(r.is_root);
                w.put_bool(r.labeled);
                w.put_u32(NO_LANDING);
            }
        });
        match PsrStore::decode(&frame) {
            Err(SnapshotError::Corrupt(why)) => assert!(why.contains("PSR row 1"), "{why}"),
            other => panic!("expected a corrupt-frame error, got {other:?}"),
        }
    }

    #[test]
    fn day_shards_cover_all_rows_and_respect_day_boundaries() {
        let s = ordered_store();
        for max_shards in [1usize, 2, 3, 8, 64] {
            let shards = s.day_shards(max_shards);
            assert!(shards.len() <= max_shards);
            let mut next = 0usize;
            for r in &shards {
                assert_eq!(r.start, next, "shards must be contiguous");
                assert!(r.end > r.start);
                next = r.end;
                // A day never straddles a shard boundary.
                if r.end < s.len() {
                    assert_ne!(s.get(r.end - 1).day, s.get(r.end).day);
                }
            }
            assert_eq!(next, s.len());
        }
        assert!(PsrStore::default().day_shards(4).is_empty());
    }

    #[test]
    fn psr_store_snapshot_roundtrips_and_rebuilds_the_index() {
        let s = ordered_store();
        let restored = PsrStore::decode(&s.encode()).unwrap();
        assert_eq!(restored, s);
        assert_eq!(restored.state_fingerprint(), s.state_fingerprint());
        for day in 139..146 {
            let d = SimDate::from_day_index(day);
            assert_eq!(
                restored.day_rows(d).collect::<Vec<_>>(),
                s.day_rows(d).collect::<Vec<_>>()
            );
        }
        assert_eq!(restored.day_shards(4), s.day_shards(4));
    }

    #[test]
    fn crawl_db_snapshot_roundtrips() {
        let mut db = CrawlDb::new();
        let d1 = db.domains.intern("door.com");
        let store = db.domains.intern("store.com");
        let t = db.terms.intern("cheap gucci");
        let day = SimDate::from_day_index(140);
        db.psrs.push(rec(140, 0, d1, 1, Some(store)));
        db.doorway_info.insert(
            d1,
            DomainInfo {
                first_seen: day,
                last_seen: day + 3,
                cloak: Some(CloakSignal::JsRedirect),
                landings: vec![(day, store)],
                label_seen: Some((day + 1, day + 2)),
                last_unlabeled_before: Some(day),
                rendered_pages: 2,
                last_verified: day + 3,
            },
        );
        db.store_info.insert(
            store,
            StoreInfo {
                first_seen: day,
                last_seen: day + 3,
                is_store: true,
                html: "<html>store</html>".into(),
                cookie_names: vec!["cart".into()],
                seizure: Some((
                    day + 2,
                    SeizureNotice {
                        firm: "GBC".into(),
                        case_id: "14-cv-00100".into(),
                        brand: "Gucci".into(),
                        seized_domains: vec!["store.com".into()],
                    },
                )),
                last_alive_before_seizure: Some(day + 1),
            },
        );
        db.daily_counts.push(DailyCount {
            day,
            vertical: 0,
            top10_seen: 10,
            top10_poisoned: 2,
            total_seen: 50,
            total_poisoned: 5,
        });

        let restored = CrawlDb::decode(&db.encode()).unwrap();
        assert_eq!(restored.domains.resolve(d1), "door.com");
        assert_eq!(restored.terms.resolve(t), "cheap gucci");
        assert_eq!(restored.psrs, db.psrs);
        assert_eq!(
            restored.doorway_info[&d1].label_seen,
            db.doorway_info[&d1].label_seen
        );
        assert_eq!(
            restored.store_info[&store].seizure,
            db.store_info[&store].seizure
        );
        assert_eq!(restored.daily_counts, db.daily_counts);
        // Canonical frame: re-encoding the restored database is
        // byte-identical despite the HashMap columns.
        assert_eq!(restored.encode(), db.encode());
    }

    #[test]
    fn db_filters_poisoned_and_stores() {
        let mut db = CrawlDb::new();
        let d1 = db.domains.intern("clean.com");
        let d2 = db.domains.intern("dirty.com");
        let day = SimDate::from_day_index(140);
        db.doorway_info.insert(
            d1,
            DomainInfo {
                first_seen: day,
                last_seen: day,
                cloak: None,
                landings: vec![],
                label_seen: None,
                last_unlabeled_before: None,
                rendered_pages: 0,
                last_verified: day,
            },
        );
        db.doorway_info.insert(
            d2,
            DomainInfo {
                first_seen: day,
                last_seen: day,
                cloak: Some(CloakSignal::Iframe),
                landings: vec![(day, 7)],
                label_seen: None,
                last_unlabeled_before: None,
                rendered_pages: 1,
                last_verified: day,
            },
        );
        assert_eq!(db.poisoned_domains().count(), 1);
        assert_eq!(*db.poisoned_domains().next().unwrap().0, d2);
        assert_eq!(db.detected_stores().count(), 0);
    }
}
