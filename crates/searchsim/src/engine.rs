//! The index, the ranking function, SERP generation, and penalization.
//!
//! # The query plane
//!
//! The engine is split writer/reader. [`SearchEngine`] is the mutable
//! writer: construction (`add_term`/`index_page`) and the tick plane's
//! committed [`EngineOp`] batches go through it. Readers get an
//! [`EngineEpoch`] — an immutable snapshot published lazily at the
//! plan/commit choke points — and query it concurrently between commits.
//!
//! Inside an epoch each term's postings are packed 16-byte entries
//! (static score, doc, indexing day) pre-sorted by *static* score
//! (relevance/quality/juice/penalty, maintained incrementally as ops
//! apply), so a SERP is one streaming pass plus a top-k heap that only
//! adds the per-(doc, day) jitter, instead of scoring and fully sorting
//! every posting. Built SERPs are cached per `(term, day)` within an
//! epoch and shared by reference ([`RankedSerp`] holds ids, not URLs).
//! A mutation that actually changes ranking state invalidates the epoch;
//! bitwise no-op mutations (the common case — juice re-asserted at its
//! current level every day) keep the epoch and its cache alive.
//!
//! SERPs from the walk are bit-identical to the reference full scan, a
//! test-only `SearchEngine::serp_full_scan`; the differential tests in
//! `src/epoch_differential.rs` hold the two paths together.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrder};
use std::sync::{Arc, Mutex};

use ss_types::rng::{mix, unit_f64};
use ss_types::snapshot::{fnv1a64, Reader, Snapshot, SnapshotError, Writer};
use ss_types::{DomainId, SimDate, TermId, Url, VerticalId};

/// A document id, dense per engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DocId(pub u32);

/// A monitored search term.
#[derive(Debug, Clone)]
pub struct TermRecord {
    /// The vertical this term belongs to.
    pub vertical: VerticalId,
    /// The query string, e.g. "cheap louis vuitton".
    pub text: String,
}

/// One indexed page, attached to exactly one term's posting list.
#[derive(Debug, Clone)]
pub struct Doc {
    /// The result URL.
    pub url: Url,
    /// Owning registered domain.
    pub domain: DomainId,
    /// The term whose postings this document sits in.
    pub term: TermId,
    /// Query-independent quality (reputation) in `[0, 1]`.
    pub quality: f64,
    /// Query-dependent relevance in `[0, 1]`.
    pub relevance: f64,
    /// When the page entered the index.
    pub first_indexed: SimDate,
}

/// One search result as the engine presents it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchResult {
    /// 1-based rank.
    pub rank: u32,
    /// Result URL.
    pub url: Url,
    /// Owning domain.
    pub domain: DomainId,
    /// Whether the result carries the "This site may be hacked" label.
    /// Under the root-only policy (§5.2.2) this is set only on the result
    /// whose URL is the site root, even when the whole domain is flagged.
    pub hacked_label: bool,
}

/// A search-engine results page: the top-k results for one term on one day.
#[derive(Debug, Clone)]
pub struct Serp {
    /// The queried term.
    pub term: TermId,
    /// The day of the query.
    pub day: SimDate,
    /// Results in rank order.
    pub results: Vec<SearchResult>,
}

/// One SERP hit as the epoch stores it: ids only, no URL clone on the hot
/// path. Resolve URLs at report/PSR boundaries via [`SearchEngine::doc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankedHit {
    /// 1-based rank.
    pub rank: u32,
    /// The ranked document.
    pub doc: DocId,
    /// Owning domain.
    pub domain: DomainId,
    /// "This site may be hacked" label (root-page-only policy, §5.2.2).
    pub hacked_label: bool,
}

/// An id-based SERP served by an [`EngineEpoch`]. The hit vector is shared
/// by reference with the epoch's `(term, day)` cache, so handing one out
/// costs an `Arc` clone, not a per-result URL clone.
#[derive(Debug, Clone)]
pub struct RankedSerp {
    /// The queried term.
    pub term: TermId,
    /// The day of the query.
    pub day: SimDate,
    hits: Arc<Vec<RankedHit>>,
    k: usize,
}

impl RankedSerp {
    /// Results in rank order, at most `k` of them. A cached hit vector may
    /// be longer than this query's `k`; the top-k is a prefix of the full
    /// ordering, so a prefix view is exact.
    pub fn results(&self) -> &[RankedHit] {
        &self.hits[..self.k.min(self.hits.len())]
    }
}

/// One ranking mutation, planned against a frozen engine and committed in
/// batch via [`SearchEngine::apply_batch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineOp {
    /// Set a domain's SEO juice to an absolute level.
    SetJuice {
        /// Target domain.
        domain: DomainId,
        /// New juice level.
        juice: f64,
    },
    /// Add a demotion penalty to a domain.
    Demote {
        /// Target domain.
        domain: DomainId,
        /// Penalty to add (score units).
        penalty: f64,
    },
    /// Mark a domain "hacked" as of `day` (first writer wins).
    LabelHacked {
        /// Target domain.
        domain: DomainId,
        /// Label day.
        day: SimDate,
    },
}

/// The structural half of the engine: terms, documents, raw postings, and
/// the per-domain doc index. Frozen once the world is built; runtime
/// mutation is confined to [`RankState`].
#[derive(Debug, Clone)]
struct EngineIndex {
    terms: Vec<TermRecord>,
    docs: Vec<Doc>,
    postings: Vec<Vec<DocId>>,
    /// Every doc of a domain (including deindexed ones) in id order —
    /// `site:` query semantics without a full doc-table scan.
    by_domain: Vec<Vec<DocId>>,
    /// Per-doc owning domain: a compact copy of `Doc::domain` for the
    /// walk, which never touches the doc table.
    domain: Vec<DomainId>,
    /// Precomputed `url.is_root_page()` per doc (hacked-label policy).
    root_page: Vec<bool>,
}

/// The mutable half of ranking state, copied on write when an epoch still
/// holds the previous version.
#[derive(Debug, Clone)]
struct RankState {
    /// Per-domain SEO juice, indexed by `DomainId` (grown on demand).
    juice: Vec<f64>,
    /// Per-domain demotion penalty.
    penalty: Vec<f64>,
    /// Day the domain was labeled "hacked", if ever.
    hacked_since: HashMap<DomainId, SimDate>,
    /// Per-term postings sorted by (static score desc, `DocId` asc) —
    /// excludes deindexed docs, mirrors `postings` membership.
    sorted: Vec<Vec<Posting>>,
}

/// One entry of a term's sorted postings: everything the walk reads per
/// candidate, packed into 16 bytes so a walk streams one array.
#[derive(Debug, Clone, Copy)]
struct Posting {
    /// Day-independent score: bitwise-equal to [`static_score`] of the doc
    /// under its domain's current juice and penalty, i.e. to
    /// [`SearchEngine::score`] without the jitter term.
    score: f64,
    doc: DocId,
    first_indexed: SimDate,
}

impl Posting {
    fn key(&self) -> (f64, DocId) {
        (self.score, self.doc)
    }
}

/// The static part of a doc's score. Every stored [`Posting::score`] is
/// computed here from the doc's fields and its domain's current juice and
/// penalty, so any past score can be recomputed bit for bit from the
/// juice and penalty it was computed under.
fn static_score(d: &Doc, juice: f64, penalty: f64) -> f64 {
    0.45 * d.relevance + 0.35 * d.quality + juice - penalty
}

/// Position of `key` in a sorted posting list: `Ok` if listed, else the
/// insertion point.
fn locate(list: &[Posting], key: (f64, DocId)) -> Result<usize, usize> {
    list.binary_search_by(|p| better_first(&p.key(), &key))
}

/// Query-plane counters, shared between the writer and every epoch it
/// publishes so counts survive republication.
#[derive(Debug, Default)]
struct EngineStats {
    queries: AtomicU64,
    cache_hits: AtomicU64,
    /// Postings examined by cache-miss SERP walks — deterministic per run
    /// because a walk happens once per distinct `(term, day, k-extension)`
    /// cache key regardless of which thread takes the miss.
    postings_walked: AtomicU64,
    /// Top-k heap insertions performed by those walks.
    heap_pushes: AtomicU64,
}

/// Work performed by one SERP walk, for the deterministic cost ledger.
#[derive(Debug, Default, Clone, Copy)]
struct WalkWork {
    postings: u64,
    pushes: u64,
}

/// One cached SERP build for a `(term, day)` key.
#[derive(Debug)]
struct CacheEntry {
    hits: Arc<Vec<RankedHit>>,
    /// The walk consumed every eligible candidate — the hit vector is the
    /// complete ranking, so any larger `k` can be served from it too.
    exhausted: bool,
}

/// Per-term cache shard: day index → built SERP. The shard lock is held
/// across a rebuild so concurrent same-key readers serialize and the
/// second one takes the deterministic cache hit.
type TermCache = Mutex<HashMap<u32, CacheEntry>>;

/// Deterministic per-(doc, day) jitter in `[-amp/2, amp/2)`. Uses the
/// allocation-free numeric mixer — this runs per document per SERP.
fn jitter(seed: u64, amp: f64, doc: DocId, day: SimDate) -> f64 {
    let h = mix(seed, u64::from(doc.0), u64::from(day.day_index()));
    (unit_f64(h) - 0.5) * amp
}

/// SERP ordering: higher score first, ties broken by lower `DocId`.
/// `total_cmp` keeps the sort lawful even on adversarial inputs (the old
/// `partial_cmp(..).unwrap_or(Equal)` silently mis-sorted on NaN); finite
/// scores — asserted in debug builds — order identically under both.
fn better_first(a: &(f64, DocId), b: &(f64, DocId)) -> Ordering {
    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
}

/// A top-k heap entry whose `Ord` puts the *weakest* kept candidate at the
/// max-heap root: `better_first` already sorts better-first ascending, so
/// the heap's maximum is the candidate next in line to be evicted.
#[derive(Debug, Clone, Copy)]
struct WeakestFirst(f64, DocId);

impl PartialEq for WeakestFirst {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for WeakestFirst {}
impl PartialOrd for WeakestFirst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for WeakestFirst {
    fn cmp(&self, other: &Self) -> Ordering {
        better_first(&(self.0, self.1), &(other.0, other.1))
    }
}

/// The bounded candidate walk: per-term postings are pre-sorted by static
/// score, so once the top-k heap is full and even a maximal jitter cannot
/// lift the next candidate past the weakest kept score, no later candidate
/// can either (IEEE addition is monotone and the walk is static-descending)
/// and the walk stops. Equality keeps walking: a later, smaller `DocId`
/// could still tie and win the deterministic tie-break.
///
/// The first `k` eligible postings are all kept, so they are collected
/// unordered and heapified once; after that each candidate that beats the
/// weakest kept hit replaces it in place. `k = 0` walks nothing.
///
/// Returns the hits plus whether the walk consumed every eligible
/// candidate (in which case the result is the complete ranking for `day`).
fn walk_serp(
    index: &EngineIndex,
    rank: &RankState,
    seed: u64,
    jitter_amp: f64,
    term: TermId,
    day: SimDate,
    k: usize,
) -> (Vec<RankedHit>, bool, WalkWork) {
    let mut work = WalkWork::default();
    if k == 0 {
        // Not exhausted: a cached empty build must not serve a wider query.
        return (Vec::new(), false, work);
    }
    let score = |p: &Posting| {
        let s = p.score + jitter(seed, jitter_amp, p.doc, day);
        debug_assert!(s.is_finite(), "non-finite SERP score for {:?}", p.doc);
        WeakestFirst(s, p.doc)
    };
    let mut postings = rank.sorted[term.index()].iter();
    let mut kept: Vec<WeakestFirst> = Vec::with_capacity(k);
    for p in postings.by_ref() {
        work.postings += 1;
        if p.first_indexed <= day {
            kept.push(score(p));
            if kept.len() == k {
                break;
            }
        }
    }
    work.pushes = kept.len() as u64;
    let mut exhausted = true;
    if kept.len() == k {
        let half_amp = 0.5 * jitter_amp;
        let mut heap = BinaryHeap::from(kept);
        for p in postings {
            work.postings += 1;
            if p.first_indexed > day {
                continue;
            }
            // More than `k` eligible candidates: the hits are not the
            // complete ranking, whether or not this one is kept.
            exhausted = false;
            let mut weakest = heap.peek_mut().expect("k > 0");
            if p.score + half_amp < weakest.0 {
                break;
            }
            let cand = score(p);
            if cand < *weakest {
                work.pushes += 1;
                *weakest = cand;
            }
        }
        kept = heap.into_vec();
    }
    // `DocId`s are distinct, so the order is total and an unstable sort
    // is exact.
    kept.sort_unstable();
    let hits = kept
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let di = c.1 .0 as usize;
            let domain = index.domain[di];
            let labeled = index.root_page[di]
                && rank
                    .hacked_since
                    .get(&domain)
                    .is_some_and(|since| *since <= day);
            RankedHit {
                rank: (i + 1) as u32,
                doc: c.1,
                domain,
                hacked_label: labeled,
            }
        })
        .collect();
    (hits, exhausted, work)
}

/// An immutable snapshot of the engine, published at the tick plane's
/// commit choke points and queried concurrently by every reader — the
/// traffic planner, the crawler, and the `repro serve` loadgen — between
/// commits. Holds its own `(term, day)` SERP cache; the cache dies with
/// the epoch when a real mutation publishes a successor.
#[derive(Debug)]
pub struct EngineEpoch {
    index: Arc<EngineIndex>,
    rank: Arc<RankState>,
    jitter_amp: f64,
    seed: u64,
    stats: Arc<EngineStats>,
    cache: Vec<TermCache>,
}

impl EngineEpoch {
    /// The top-`k` SERP for `term` on `day`, cached per `(term, day)`
    /// within this epoch. Counted in the `engine.serp_queries` /
    /// `engine.serp_cache_hits` metrics.
    pub fn ranked(&self, term: TermId, day: SimDate, k: usize) -> RankedSerp {
        self.stats.queries.fetch_add(1, AtomicOrder::Relaxed);
        let mut slot = self.cache[term.index()].lock().expect("serp cache lock");
        let key = day.day_index();
        if let Some(entry) = slot.get(&key) {
            if entry.hits.len() >= k || entry.exhausted {
                self.stats.cache_hits.fetch_add(1, AtomicOrder::Relaxed);
                return RankedSerp {
                    term,
                    day,
                    hits: Arc::clone(&entry.hits),
                    k,
                };
            }
        }
        let (hits, exhausted, work) = walk_serp(
            &self.index,
            &self.rank,
            self.seed,
            self.jitter_amp,
            term,
            day,
            k,
        );
        self.stats
            .postings_walked
            .fetch_add(work.postings, AtomicOrder::Relaxed);
        self.stats
            .heap_pushes
            .fetch_add(work.pushes, AtomicOrder::Relaxed);
        let hits = Arc::new(hits);
        slot.insert(
            key,
            CacheEntry {
                hits: Arc::clone(&hits),
                exhausted,
            },
        );
        RankedSerp { term, day, hits, k }
    }

    /// The same walk with no cache read/write and no counter traffic —
    /// for state-fingerprint probes and differential tests, which must
    /// not perturb the metrics or warm the cache.
    pub fn ranked_uncached(&self, term: TermId, day: SimDate, k: usize) -> Vec<RankedHit> {
        walk_serp(
            &self.index,
            &self.rank,
            self.seed,
            self.jitter_amp,
            term,
            day,
            k,
        )
        .0
    }

    /// Document lookup (immutable across the epoch's lifetime).
    pub fn doc(&self, id: DocId) -> &Doc {
        &self.index.docs[id.0 as usize]
    }

    /// Number of registered terms.
    pub fn term_count(&self) -> usize {
        self.index.terms.len()
    }
}

/// The engine.
///
/// Scoring model (per document, per day):
///
/// ```text
/// score = 0.45·relevance + 0.35·quality + juice(domain) − penalty(domain) + jitter(doc, day)
/// ```
///
/// `juice` is what black-hat SEO buys (backlink farms raising perceived
/// reputation); campaigns set it while actively SEOing and it decays when
/// they stop. `penalty` models demotion. `jitter` is a small deterministic
/// per-(doc, day) perturbation that makes rankings churn realistically.
///
/// This type is the *writer* half of the query plane; see the module docs
/// and [`SearchEngine::epoch`] for the reader half.
#[derive(Debug)]
pub struct SearchEngine {
    index: Arc<EngineIndex>,
    rank: Arc<RankState>,
    /// Term text → the first id registered under it: the crawler's
    /// lookup by text, kept off the published index. Derived from the
    /// terms: rebuilt by `from_parts`, never serialized.
    term_ids: BTreeMap<String, TermId>,
    /// Jitter amplitude (score units).
    jitter_amp: f64,
    seed: u64,
    stats: Arc<EngineStats>,
    epoch: Mutex<Option<Arc<EngineEpoch>>>,
}

impl SearchEngine {
    /// Creates an empty engine. `jitter_amp` controls day-to-day SERP
    /// churn; 0.05 yields low single-digit percent daily domain churn with
    /// the default score weights.
    pub fn new(seed: u64, jitter_amp: f64) -> Self {
        SearchEngine::from_parts(
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            HashMap::new(),
            jitter_amp,
            seed,
        )
    }

    /// Assembles an engine from its serialized fields, rebuilding every
    /// derived structure (per-domain index, per-doc columns, sorted
    /// postings). The incremental maintenance paths keep exactly the
    /// invariants established here, so a decode-then-walk matches a
    /// mutate-then-walk bitwise.
    #[allow(clippy::too_many_arguments)]
    fn from_parts(
        terms: Vec<TermRecord>,
        docs: Vec<Doc>,
        postings: Vec<Vec<DocId>>,
        juice: Vec<f64>,
        penalty: Vec<f64>,
        hacked_since: HashMap<DomainId, SimDate>,
        jitter_amp: f64,
        seed: u64,
    ) -> Self {
        let mut by_domain: Vec<Vec<DocId>> = Vec::new();
        let mut root_page = Vec::with_capacity(docs.len());
        for (i, d) in docs.iter().enumerate() {
            root_page.push(d.url.is_root_page());
            if by_domain.len() <= d.domain.index() {
                by_domain.resize(d.domain.index() + 1, Vec::new());
            }
            by_domain[d.domain.index()].push(DocId(i as u32));
        }
        let domain: Vec<DomainId> = docs.iter().map(|d| d.domain).collect();
        let mut term_ids = BTreeMap::new();
        for (i, t) in terms.iter().enumerate() {
            term_ids
                .entry(t.text.clone())
                .or_insert(TermId::from_index(i));
        }
        let level = |v: &[f64], d: DomainId| v.get(d.index()).copied().unwrap_or(0.0);
        let sorted: Vec<Vec<Posting>> = postings
            .iter()
            .map(|list| {
                let mut s: Vec<Posting> = list
                    .iter()
                    .map(|&doc| {
                        let d = &docs[doc.0 as usize];
                        Posting {
                            score: static_score(
                                d,
                                level(&juice, d.domain),
                                level(&penalty, d.domain),
                            ),
                            doc,
                            first_indexed: d.first_indexed,
                        }
                    })
                    .collect();
                s.sort_unstable_by(|a, b| better_first(&a.key(), &b.key()));
                s
            })
            .collect();
        SearchEngine {
            index: Arc::new(EngineIndex {
                terms,
                docs,
                postings,
                by_domain,
                domain,
                root_page,
            }),
            rank: Arc::new(RankState {
                juice,
                penalty,
                hacked_since,
                sorted,
            }),
            term_ids,
            jitter_amp,
            seed,
            stats: Arc::new(EngineStats::default()),
            epoch: Mutex::new(None),
        }
    }

    /// The current epoch, publishing one lazily if a mutation retired the
    /// last. Publication is an `Arc` clone of the frozen index and rank
    /// state plus a fresh empty SERP cache — cheap enough to call at
    /// every read site.
    pub fn epoch(&self) -> Arc<EngineEpoch> {
        let mut slot = self.epoch.lock().expect("epoch slot lock");
        if let Some(e) = &*slot {
            return Arc::clone(e);
        }
        let epoch = Arc::new(EngineEpoch {
            index: Arc::clone(&self.index),
            rank: Arc::clone(&self.rank),
            jitter_amp: self.jitter_amp,
            seed: self.seed,
            stats: Arc::clone(&self.stats),
            cache: (0..self.index.terms.len())
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        });
        *slot = Some(Arc::clone(&epoch));
        epoch
    }

    /// Retires the published epoch (with its SERP cache). Called by every
    /// mutation that actually changes observable ranking state; bitwise
    /// no-op mutations skip it so caches survive the daily republish.
    fn invalidate_epoch(&mut self) {
        *self.epoch.get_mut().expect("epoch slot lock") = None;
    }

    /// Drains the query-plane counters: `(serp_queries, serp_cache_hits)`
    /// since the previous drain. The world folds these into its metric
    /// registry at commit-adjacent points so checkpoints never carry
    /// undrained residue.
    pub fn take_serp_stats(&self) -> (u64, u64) {
        (
            self.stats.queries.swap(0, AtomicOrder::Relaxed),
            self.stats.cache_hits.swap(0, AtomicOrder::Relaxed),
        )
    }

    /// Drains the walk-work counters: `(postings_walked, heap_pushes)`
    /// since the previous drain. Deterministic per run (see
    /// `EngineStats`); the world folds these into the cost ledger at the
    /// same commit-adjacent points as [`SearchEngine::take_serp_stats`].
    pub fn take_walk_work(&self) -> (u64, u64) {
        (
            self.stats.postings_walked.swap(0, AtomicOrder::Relaxed),
            self.stats.heap_pushes.swap(0, AtomicOrder::Relaxed),
        )
    }

    /// Reads the query-plane counters without draining them.
    pub fn serp_stats(&self) -> (u64, u64) {
        (
            self.stats.queries.load(AtomicOrder::Relaxed),
            self.stats.cache_hits.load(AtomicOrder::Relaxed),
        )
    }

    /// Registers a monitored term and returns its id.
    pub fn add_term(&mut self, vertical: VerticalId, text: &str) -> TermId {
        self.invalidate_epoch();
        let index = Arc::make_mut(&mut self.index);
        let id = TermId::from_index(index.terms.len());
        self.term_ids.entry(text.to_owned()).or_insert(id);
        index.terms.push(TermRecord {
            vertical,
            text: text.to_owned(),
        });
        index.postings.push(Vec::new());
        Arc::make_mut(&mut self.rank).sorted.push(Vec::new());
        id
    }

    /// All registered terms.
    pub fn terms(&self) -> &[TermRecord] {
        &self.index.terms
    }

    /// The id of the first term registered with `text`: what a scan of
    /// [`SearchEngine::terms`] for that text finds, by one map lookup.
    pub fn term_id(&self, text: &str) -> Option<TermId> {
        self.term_ids.get(text).copied()
    }

    /// Number of registered terms.
    pub fn term_count(&self) -> usize {
        self.index.terms.len()
    }

    /// Indexes a page into a term's postings.
    pub fn index_page(
        &mut self,
        term: TermId,
        url: Url,
        domain: DomainId,
        quality: f64,
        relevance: f64,
        day: SimDate,
    ) -> DocId {
        self.invalidate_epoch();
        let index = Arc::make_mut(&mut self.index);
        let id = DocId(index.docs.len() as u32);
        index.root_page.push(url.is_root_page());
        index.domain.push(domain);
        index.docs.push(Doc {
            url,
            domain,
            term,
            quality,
            relevance,
            first_indexed: day,
        });
        index.postings[term.index()].push(id);
        if index.by_domain.len() <= domain.index() {
            index.by_domain.resize(domain.index() + 1, Vec::new());
        }
        index.by_domain[domain.index()].push(id);

        let rank = Arc::make_mut(&mut self.rank);
        ensure_domain(rank, domain);
        let score = static_score(
            &index.docs[id.0 as usize],
            rank.juice[domain.index()],
            rank.penalty[domain.index()],
        );
        let list = &mut rank.sorted[term.index()];
        let pos = locate(list, (score, id)).expect_err("a new doc is not listed yet");
        list.insert(
            pos,
            Posting {
                score,
                doc: id,
                first_indexed: day,
            },
        );
        id
    }

    /// Removes a page from the index (site cleaned or de-indexed).
    pub fn deindex_page(&mut self, doc: DocId) {
        self.invalidate_epoch();
        let d = &self.index.docs[doc.0 as usize];
        let term = d.term.index();
        let score = static_score(d, self.juice(d.domain), self.penalty(d.domain));
        Arc::make_mut(&mut self.index).postings[term].retain(|x| *x != doc);
        let list = &mut Arc::make_mut(&mut self.rank).sorted[term];
        if let Ok(pos) = locate(list, (score, doc)) {
            list.remove(pos);
        }
    }

    /// Sets the SEO juice for a domain (what a campaign's link farm buys).
    pub fn set_juice(&mut self, domain: DomainId, juice: f64) {
        let grows = domain.index() >= self.rank.juice.len();
        if !grows && self.rank.juice[domain.index()].to_bits() == juice.to_bits() {
            return; // bitwise no-op: keep the epoch and its cache alive
        }
        self.invalidate_epoch();
        let rank = Arc::make_mut(&mut self.rank);
        ensure_domain(rank, domain);
        let old = (rank.juice[domain.index()], rank.penalty[domain.index()]);
        rank.juice[domain.index()] = juice;
        refresh_domain(rank, &self.index, domain, old);
    }

    /// Current juice for a domain.
    pub fn juice(&self, domain: DomainId) -> f64 {
        self.rank.juice.get(domain.index()).copied().unwrap_or(0.0)
    }

    /// Applies (adds) a demotion penalty to a domain.
    pub fn demote(&mut self, domain: DomainId, penalty: f64) {
        let grows = domain.index() >= self.rank.penalty.len();
        if !grows {
            let cur = self.rank.penalty[domain.index()];
            if (cur + penalty).to_bits() == cur.to_bits() {
                return; // bitwise no-op
            }
        }
        self.invalidate_epoch();
        let rank = Arc::make_mut(&mut self.rank);
        ensure_domain(rank, domain);
        let old = (rank.juice[domain.index()], rank.penalty[domain.index()]);
        rank.penalty[domain.index()] += penalty;
        refresh_domain(rank, &self.index, domain, old);
    }

    /// Current penalty for a domain.
    pub fn penalty(&self, domain: DomainId) -> f64 {
        self.rank
            .penalty
            .get(domain.index())
            .copied()
            .unwrap_or(0.0)
    }

    /// Marks a domain "hacked" as of `day` (GSB-style label, §5.2.2).
    pub fn label_hacked(&mut self, domain: DomainId, day: SimDate) {
        if self.rank.hacked_since.contains_key(&domain) {
            return; // first writer wins: a repeat label is a no-op
        }
        self.invalidate_epoch();
        Arc::make_mut(&mut self.rank)
            .hacked_since
            .insert(domain, day);
    }

    /// Whether (and since when) a domain carries the hacked label.
    pub fn hacked_since(&self, domain: DomainId) -> Option<SimDate> {
        self.rank.hacked_since.get(&domain).copied()
    }

    /// Applies an ordered batch of ranking mutations — the engine's half of
    /// the tick plane's plan/commit protocol. Planners compute [`EngineOp`]s
    /// against a frozen epoch; the world's reducer commits them here in
    /// plan order, so this is the only mutation entry point a tick needs
    /// (the granular setters remain for construction and tests). The next
    /// [`SearchEngine::epoch`] call after a batch that changed anything
    /// publishes a fresh epoch.
    pub fn apply_batch(&mut self, ops: impl IntoIterator<Item = EngineOp>) {
        for op in ops {
            match op {
                EngineOp::SetJuice { domain, juice } => self.set_juice(domain, juice),
                EngineOp::Demote { domain, penalty } => self.demote(domain, penalty),
                EngineOp::LabelHacked { domain, day } => self.label_hacked(domain, day),
            }
        }
    }

    /// Scores one document on one day.
    #[cfg(test)]
    pub(crate) fn score(&self, doc: DocId, day: SimDate) -> f64 {
        let d = &self.index.docs[doc.0 as usize];
        static_score(d, self.juice(d.domain), self.penalty(d.domain))
            + jitter(self.seed, self.jitter_amp, doc, day)
    }

    /// Produces the top-`k` SERP for `term` on `day` through the current
    /// epoch (publishing one if needed), resolving result URLs at this
    /// boundary. Hot paths should hold an [`EngineEpoch`] and consume
    /// [`RankedSerp`]s instead.
    pub fn serp(&self, term: TermId, day: SimDate, k: usize) -> Serp {
        let ranked = self.epoch().ranked(term, day, k);
        self.resolve(&ranked)
    }

    /// Resolves an id-based SERP into URL-carrying results (report/PSR
    /// boundary).
    pub fn resolve(&self, ranked: &RankedSerp) -> Serp {
        Serp {
            term: ranked.term,
            day: ranked.day,
            results: ranked
                .results()
                .iter()
                .map(|h| SearchResult {
                    rank: h.rank,
                    url: self.index.docs[h.doc.0 as usize].url.clone(),
                    domain: h.domain,
                    hacked_label: h.hacked_label,
                })
                .collect(),
        }
    }

    /// The bounded walk without epoch, cache, or counter traffic — for
    /// state-fingerprint probes, which must not perturb metrics or warm
    /// any cache.
    pub fn ranked_uncached(&self, term: TermId, day: SimDate, k: usize) -> Vec<RankedHit> {
        walk_serp(
            &self.index,
            &self.rank,
            self.seed,
            self.jitter_amp,
            term,
            day,
            k,
        )
        .0
    }

    /// The reference SERP: score every posting, fully sort, take `k` —
    /// the pre-query-plane algorithm, kept as the differential-test
    /// oracle for the epoch walk.
    #[cfg(test)]
    pub(crate) fn serp_full_scan(&self, term: TermId, day: SimDate, k: usize) -> Serp {
        let mut scored: Vec<(f64, DocId)> = self.index.postings[term.index()]
            .iter()
            .filter(|d| self.index.docs[d.0 as usize].first_indexed <= day)
            .map(|d| {
                let s = self.score(*d, day);
                debug_assert!(s.is_finite(), "non-finite SERP score for {d:?}");
                (s, *d)
            })
            .collect();
        scored.sort_by(|a, b| better_first(&(a.0, a.1), &(b.0, b.1)));
        let results = scored
            .into_iter()
            .take(k)
            .enumerate()
            .map(|(i, (_, d))| {
                let doc = &self.index.docs[d.0 as usize];
                let labeled = self
                    .rank
                    .hacked_since
                    .get(&doc.domain)
                    .map(|since| *since <= day)
                    .unwrap_or(false)
                    && doc.url.is_root_page();
                SearchResult {
                    rank: (i + 1) as u32,
                    url: doc.url.clone(),
                    domain: doc.domain,
                    hacked_label: labeled,
                }
            })
            .collect();
        Serp { term, day, results }
    }

    /// `site:` query — every indexed page of `domain` (§4.1.1 uses this to
    /// harvest a doorway's search results for term extraction). Served by
    /// the per-domain doc index instead of a full doc-table scan; like the
    /// scan, it lists de-indexed pages too (the record remains).
    pub fn site_query(&self, domain: DomainId) -> Vec<&Doc> {
        self.index
            .by_domain
            .get(domain.index())
            .map(|ids| ids.iter().map(|d| &self.index.docs[d.0 as usize]).collect())
            .unwrap_or_default()
    }

    /// Document lookup.
    pub fn doc(&self, id: DocId) -> &Doc {
        &self.index.docs[id.0 as usize]
    }

    /// Number of indexed documents.
    pub fn doc_count(&self) -> usize {
        self.index.docs.len()
    }

    /// FNV-1a fingerprint of the engine's complete state — the index,
    /// postings, juice/penalty levels, and hacked labels. Folded into the
    /// run-level `run_fingerprint` so resume equivalence covers ranking
    /// state, not just the world's entity tables.
    pub fn state_fingerprint(&self) -> u64 {
        fnv1a64(&self.encode())
    }
}

/// Grows the per-domain juice/penalty tables to cover `domain`.
fn ensure_domain(rank: &mut RankState, domain: DomainId) {
    let need = domain.index() + 1;
    if rank.juice.len() < need {
        rank.juice.resize(need, 0.0);
        rank.penalty.resize(need, 0.0);
    }
}

/// Repairs the sorted postings of every doc owned by `domain` after its
/// juice or penalty changed from `old` (juice, penalty). Each stored
/// score was computed by [`static_score`] under `old`, so recomputing it
/// from `old` finds the entry bit for bit; the new score is computed from
/// scratch, so it is bitwise-equal to a fresh rebuild. Docs whose score
/// did not change bits are untouched; de-indexed docs have no entry.
fn refresh_domain(
    rank: &mut RankState,
    index: &EngineIndex,
    domain: DomainId,
    (old_juice, old_penalty): (f64, f64),
) {
    let Some(docs) = index.by_domain.get(domain.index()) else {
        return;
    };
    let j = rank.juice[domain.index()];
    let p = rank.penalty[domain.index()];
    for &doc in docs {
        let d = &index.docs[doc.0 as usize];
        let old = static_score(d, old_juice, old_penalty);
        let new = static_score(d, j, p);
        if old.to_bits() == new.to_bits() {
            continue;
        }
        let list = &mut rank.sorted[d.term.index()];
        let Ok(pos) = locate(list, (old, doc)) else {
            continue;
        };
        let mut entry = list.remove(pos);
        entry.score = new;
        let pos = locate(list, entry.key()).expect_err("the doc's entry was just removed");
        list.insert(pos, entry);
    }
}

impl Snapshot for SearchEngine {
    const TAG: &'static str = "search-engine";
    const VERSION: u16 = 1;

    fn write_body(&self, w: &mut Writer) {
        w.put_u64(self.seed);
        w.put_f64(self.jitter_amp);
        w.put_seq(&self.index.terms, |w, t| {
            w.put_u32(t.vertical.0);
            w.put_str(&t.text);
        });
        w.put_seq(&self.index.docs, |w, d| {
            w.put_str(&d.url.to_string());
            w.put_u32(d.domain.0);
            w.put_u32(d.term.0);
            w.put_f64(d.quality);
            w.put_f64(d.relevance);
            w.put_date(d.first_indexed);
        });
        // Postings are serialized explicitly: `deindex_page` removes
        // entries while leaving the doc record behind, so postings are
        // not reconstructible from the doc list alone. Derived structures
        // (per-domain index, per-doc columns, scored sorted postings,
        // epoch, caches, counters) are rebuilt on decode, never serialized.
        w.put_seq(&self.index.postings, |w, list| {
            w.put_seq(list, |w, d| w.put_u32(d.0));
        });
        w.put_seq(&self.rank.juice, |w, j| w.put_f64(*j));
        w.put_seq(&self.rank.penalty, |w, p| w.put_f64(*p));
        let mut hacked: Vec<(DomainId, SimDate)> = self
            .rank
            .hacked_since
            .iter()
            .map(|(d, s)| (*d, *s))
            .collect();
        hacked.sort();
        w.put_seq(&hacked, |w, (d, s)| {
            w.put_u32(d.0);
            w.put_date(*s);
        });
    }

    fn read_body(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let seed = r.get_u64()?;
        let jitter_amp = r.get_f64()?;
        let terms = r.get_seq(|r| {
            Ok(TermRecord {
                vertical: VerticalId(r.get_u32()?),
                text: r.get_str()?,
            })
        })?;
        let docs = r.get_seq(|r| {
            let url = Url::parse(&r.get_str()?)
                .map_err(|e| SnapshotError::Corrupt(format!("doc url: {e}")))?;
            Ok(Doc {
                url,
                domain: DomainId(r.get_u32()?),
                term: TermId(r.get_u32()?),
                quality: r.get_f64()?,
                relevance: r.get_f64()?,
                first_indexed: r.get_date()?,
            })
        })?;
        let postings = r.get_seq(|r| r.get_seq(|r| Ok(DocId(r.get_u32()?))))?;
        if postings.len() != terms.len() {
            return Err(SnapshotError::Corrupt(format!(
                "{} posting lists for {} terms",
                postings.len(),
                terms.len()
            )));
        }
        let juice = r.get_seq(|r| r.get_f64())?;
        let penalty = r.get_seq(|r| r.get_f64())?;
        let hacked = r.get_seq(|r| Ok((DomainId(r.get_u32()?), r.get_date()?)))?;
        Ok(SearchEngine::from_parts(
            terms,
            docs,
            postings,
            juice,
            penalty,
            hacked.into_iter().collect(),
            jitter_amp,
            seed,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_types::DomainName;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn day(n: u32) -> SimDate {
        SimDate::from_day_index(n)
    }

    /// An engine with one term, 30 legit docs and 3 doorway docs.
    fn setup() -> (SearchEngine, TermId, Vec<DomainId>) {
        let mut e = SearchEngine::new(42, 0.05);
        let t = e.add_term(VerticalId(0), "cheap louis vuitton");
        let mut domains = Vec::new();
        for i in 0..30 {
            let d = DomainId(i);
            domains.push(d);
            e.index_page(
                t,
                url(&format!("http://legit{i}.com/")),
                d,
                0.4 + (i as f64) * 0.01,
                0.5,
                day(0),
            );
        }
        for i in 30..33 {
            let d = DomainId(i);
            domains.push(d);
            // Fresh doorways: no reputation, decent keyword relevance —
            // without juice they sit below page one.
            e.index_page(
                t,
                url(&format!("http://door{i}.com/?key=cheap+louis+vuitton")),
                d,
                0.0,
                0.6,
                day(0),
            );
        }
        (e, t, domains)
    }

    #[test]
    fn term_ids_resolve_like_a_text_scan_and_survive_decode() {
        let mut e = SearchEngine::new(3, 0.05);
        for text in ["cheap uggs", "ugg outlet", "cheap uggs", "uggs sale"] {
            e.add_term(VerticalId(0), text);
        }
        let scan = |e: &SearchEngine, text: &str| {
            e.terms()
                .iter()
                .position(|t| t.text == text)
                .map(TermId::from_index)
        };
        let back = SearchEngine::decode(&e.encode()).unwrap();
        for text in ["cheap uggs", "ugg outlet", "uggs sale", "missing"] {
            assert_eq!(e.term_id(text), scan(&e, text), "{text}");
            assert_eq!(back.term_id(text), scan(&e, text), "decoded {text}");
        }
        assert_eq!(e.term_id("cheap uggs"), Some(TermId::from_index(0)));
    }

    #[test]
    fn juice_lifts_doorways_into_top_ranks() {
        let (mut e, t, domains) = setup();
        let before = e.serp(t, day(10), 10);
        assert!(
            before.results.iter().all(|r| r.domain.index() < 30),
            "no juice, no doorways on page one"
        );
        for d in &domains[30..] {
            e.set_juice(*d, 0.5);
        }
        let after = e.serp(t, day(10), 10);
        let doorway_hits = after
            .results
            .iter()
            .filter(|r| r.domain.index() >= 30)
            .count();
        assert_eq!(doorway_hits, 3, "juiced doorways should dominate");
        assert_eq!(after.results[0].rank, 1);
    }

    #[test]
    fn demotion_pushes_a_domain_out() {
        let (mut e, t, domains) = setup();
        let target = domains[32];
        e.set_juice(target, 0.5);
        assert!(e
            .serp(t, day(5), 10)
            .results
            .iter()
            .any(|r| r.domain == target));
        e.demote(target, 1.0);
        assert!(e
            .serp(t, day(5), 10)
            .results
            .iter()
            .all(|r| r.domain != target));
        // With only 33 candidates the demoted doc still shows in a full
        // listing, but dead last — i.e. out of any top-k that matters.
        let all = e.serp(t, day(5), 100);
        assert_eq!(all.results.last().unwrap().domain, target);
    }

    #[test]
    fn hacked_label_is_root_only_and_dated() {
        let mut e = SearchEngine::new(1, 0.0);
        let t = e.add_term(VerticalId(0), "x");
        let d = DomainId(0);
        e.index_page(t, url("http://site.com/"), d, 0.9, 0.9, day(0));
        e.index_page(
            t,
            url("http://site.com/shop/page.html"),
            d,
            0.9,
            0.9,
            day(0),
        );
        e.label_hacked(d, day(50));
        let before = e.serp(t, day(49), 10);
        assert!(before.results.iter().all(|r| !r.hacked_label));
        let after = e.serp(t, day(50), 10);
        let root = after.results.iter().find(|r| r.url.is_root_page()).unwrap();
        let sub = after
            .results
            .iter()
            .find(|r| !r.url.is_root_page())
            .unwrap();
        assert!(root.hacked_label, "root result must be labeled");
        assert!(
            !sub.hacked_label,
            "sub-page result must not be labeled (root-only policy)"
        );
        assert_eq!(e.hacked_since(d), Some(day(50)));
    }

    #[test]
    fn serp_is_deterministic_but_churns_across_days() {
        let (mut e, t, domains) = setup();
        for d in &domains[30..] {
            e.set_juice(*d, 0.2);
        }
        let a = e.serp(t, day(10), 100);
        let b = e.serp(t, day(10), 100);
        assert_eq!(a.results, b.results, "same day, same SERP");
        let c = e.serp(t, day(11), 100);
        let order_a: Vec<DomainId> = a.results.iter().map(|r| r.domain).collect();
        let order_c: Vec<DomainId> = c.results.iter().map(|r| r.domain).collect();
        assert_ne!(
            order_a, order_c,
            "jitter must churn the ordering day to day"
        );
    }

    #[test]
    fn apply_batch_matches_granular_setters() {
        let (mut batched, t, domains) = setup();
        let (mut granular, _, _) = setup();
        let target = domains[31];
        batched.apply_batch([
            EngineOp::SetJuice {
                domain: target,
                juice: 0.5,
            },
            EngineOp::Demote {
                domain: target,
                penalty: 0.2,
            },
            EngineOp::Demote {
                domain: target,
                penalty: 0.1,
            },
            EngineOp::LabelHacked {
                domain: target,
                day: day(40),
            },
            EngineOp::LabelHacked {
                domain: target,
                day: day(99),
            },
        ]);
        granular.set_juice(target, 0.5);
        granular.demote(target, 0.2);
        granular.demote(target, 0.1);
        granular.label_hacked(target, day(40));
        granular.label_hacked(target, day(99));
        assert_eq!(batched.juice(target), granular.juice(target));
        assert_eq!(batched.penalty(target), granular.penalty(target));
        // First writer wins on the label, exactly like the setter.
        assert_eq!(batched.hacked_since(target), Some(day(40)));
        assert_eq!(batched.hacked_since(target), granular.hacked_since(target));
        let a = batched.serp(t, day(50), 33);
        let b = granular.serp(t, day(50), 33);
        assert_eq!(a.results, b.results);
    }

    #[test]
    fn pages_only_appear_after_indexing_day() {
        let mut e = SearchEngine::new(9, 0.0);
        let t = e.add_term(VerticalId(0), "x");
        e.index_page(t, url("http://new.com/"), DomainId(0), 0.9, 0.9, day(100));
        assert!(e.serp(t, day(99), 10).results.is_empty());
        assert_eq!(e.serp(t, day(100), 10).results.len(), 1);
    }

    #[test]
    fn deindex_removes_from_serps() {
        let mut e = SearchEngine::new(9, 0.0);
        let t = e.add_term(VerticalId(0), "x");
        let doc = e.index_page(t, url("http://gone.com/"), DomainId(0), 0.9, 0.9, day(0));
        assert_eq!(e.serp(t, day(1), 10).results.len(), 1);
        e.deindex_page(doc);
        assert!(e.serp(t, day(1), 10).results.is_empty());
    }

    #[test]
    fn site_query_lists_domain_pages() {
        let mut e = SearchEngine::new(9, 0.0);
        let t1 = e.add_term(VerticalId(0), "a");
        let t2 = e.add_term(VerticalId(0), "b");
        let d = DomainId(7);
        e.index_page(t1, url("http://door.com/?key=a"), d, 0.1, 0.9, day(0));
        e.index_page(t2, url("http://door.com/?key=b"), d, 0.1, 0.9, day(0));
        e.index_page(t1, url("http://other.com/"), DomainId(8), 0.5, 0.5, day(0));
        let pages = e.site_query(d);
        assert_eq!(pages.len(), 2);
        assert!(pages
            .iter()
            .all(|p| p.url.host == DomainName::parse("door.com").unwrap()));
    }

    #[test]
    fn snapshot_roundtrip_reproduces_serps_and_fingerprint() {
        let (mut e, t, domains) = setup();
        e.set_juice(domains[30], 0.5);
        e.demote(domains[31], 0.3);
        e.label_hacked(domains[32], day(40));
        e.deindex_page(DocId(5));
        let back = SearchEngine::decode(&e.encode()).unwrap();
        assert_eq!(back.state_fingerprint(), e.state_fingerprint());
        assert_eq!(back.doc_count(), e.doc_count());
        for d in [10u32, 50] {
            assert_eq!(
                back.serp(t, day(d), 33).results,
                e.serp(t, day(d), 33).results
            );
        }
        // Deindexed docs must stay deindexed after restore.
        assert!(!back
            .serp(t, day(10), 100)
            .results
            .iter()
            .any(|r| { r.domain == e.doc(DocId(5)).domain && r.url == e.doc(DocId(5)).url }));
    }

    #[test]
    fn rank_is_one_based_and_contiguous() {
        let (e, t, _) = setup();
        let serp = e.serp(t, day(3), 20);
        let ranks: Vec<u32> = serp.results.iter().map(|r| r.rank).collect();
        assert_eq!(ranks, (1..=20).collect::<Vec<u32>>());
    }

    #[test]
    fn epoch_survives_bitwise_noop_mutations() {
        let (mut e, _, domains) = setup();
        e.set_juice(domains[30], 0.5);
        let before = e.epoch();
        // Re-asserting the same juice, adding a zero penalty, and
        // repeating a hacked label are all observable no-ops: the epoch
        // (and its SERP cache) must survive them.
        e.label_hacked(domains[31], day(5));
        let labeled = e.epoch();
        assert!(!Arc::ptr_eq(&before, &labeled), "real label retires epoch");
        e.apply_batch([
            EngineOp::SetJuice {
                domain: domains[30],
                juice: 0.5,
            },
            EngineOp::Demote {
                domain: domains[30],
                penalty: 0.0,
            },
            EngineOp::LabelHacked {
                domain: domains[31],
                day: day(9),
            },
        ]);
        assert!(
            Arc::ptr_eq(&labeled, &e.epoch()),
            "bitwise no-op batch must keep the epoch"
        );
        e.set_juice(domains[30], 0.25);
        assert!(
            !Arc::ptr_eq(&labeled, &e.epoch()),
            "a changed juice level must publish a fresh epoch"
        );
    }

    #[test]
    fn epoch_cache_hits_once_per_term_day() {
        let (e, t, _) = setup();
        let epoch = e.epoch();
        e.take_serp_stats();
        let a = epoch.ranked(t, day(7), 10);
        let b = epoch.ranked(t, day(7), 10);
        let c = epoch.ranked(t, day(7), 4);
        assert_eq!(a.results(), b.results());
        assert_eq!(c.results(), &a.results()[..4], "prefix served from cache");
        let _ = epoch.ranked(t, day(8), 10); // different day: a miss
        let (queries, hits) = e.take_serp_stats();
        assert_eq!(queries, 4);
        assert_eq!(hits, 2, "repeat and prefix queries hit; new day misses");
        // A wider query than any cached build recomputes (counts as miss),
        // then re-serves from cache.
        let wide = epoch.ranked(t, day(7), 20);
        assert_eq!(wide.results().len(), 20);
        let again = epoch.ranked(t, day(7), 20);
        assert_eq!(again.results(), wide.results());
        let (queries, hits) = e.take_serp_stats();
        assert_eq!((queries, hits), (2, 1));
    }

    #[test]
    fn k_zero_walks_nothing_and_caches_no_complete_build() {
        let (e, t, _) = setup();
        assert!(e.serp(t, day(7), 0).results.is_empty());
        assert!(e.ranked_uncached(t, day(7), 0).is_empty());
        let epoch = e.epoch();
        e.take_walk_work();
        assert!(epoch.ranked(t, day(8), 0).results().is_empty());
        assert_eq!(e.take_walk_work(), (0, 0), "k = 0 walks nothing");
        // The empty build must not be served as the complete ranking.
        assert_eq!(epoch.ranked(t, day(8), 100).results().len(), 33);
    }

    #[test]
    fn uncached_walk_matches_epoch_and_counts_nothing() {
        let (mut e, t, domains) = setup();
        e.set_juice(domains[30], 0.4);
        e.take_serp_stats();
        let hits = e.ranked_uncached(t, day(12), 15);
        assert_eq!(e.serp_stats(), (0, 0), "fingerprint probes are uncounted");
        let via_epoch = e.epoch().ranked(t, day(12), 15);
        assert_eq!(hits.as_slice(), via_epoch.results());
        let full = e.serp_full_scan(t, day(12), 15);
        for (h, r) in hits.iter().zip(&full.results) {
            assert_eq!(
                (h.rank, h.domain, h.hacked_label),
                (r.rank, r.domain, r.hacked_label)
            );
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use ss_types::VerticalId;

    proptest! {
        /// SERP results are always ordered by non-increasing score, and the
        /// top-k is a prefix of the full ordering.
        #[test]
        fn serps_are_sorted_and_prefix_stable(
            n_docs in 2usize..60,
            day in 0u32..300,
            k in 1usize..30,
        ) {
            let mut e = SearchEngine::new(7, 0.05);
            let t = e.add_term(VerticalId(0), "q");
            let mut docs = Vec::new();
            for i in 0..n_docs {
                let q = (i as f64 * 37.0 % 17.0) / 17.0;
                let r = (i as f64 * 11.0 % 13.0) / 13.0;
                docs.push(e.index_page(
                    t,
                    Url::parse(&format!("http://d{i}.com/")).unwrap(),
                    DomainId(i as u32),
                    q,
                    r,
                    SimDate::from_day_index(0),
                ));
            }
            let date = SimDate::from_day_index(day);
            let full = e.serp(t, date, n_docs);
            let scores: Vec<f64> =
                full.results.iter().map(|r| {
                    let doc = docs.iter().find(|d| e.doc(**d).domain == r.domain).unwrap();
                    e.score(*doc, date)
                }).collect();
            for w in scores.windows(2) {
                prop_assert!(w[0] >= w[1] - 1e-12, "scores not sorted: {scores:?}");
            }
            let topk = e.serp(t, date, k);
            for (a, b) in topk.results.iter().zip(&full.results) {
                prop_assert_eq!(a.domain, b.domain, "top-k must be a prefix");
            }
        }
    }
}
