//! Differential harness for the query plane: the epoch's bounded
//! candidate walk must produce SERPs bit-identical to the reference
//! scan-and-sort (`serp_full_scan`, the pre-refactor algorithm) on
//! randomly generated worlds under random committed `EngineOp` batches,
//! with de-indexing, snapshot round-trips, and cache reuse thrown in.
//!
//! CI gates on this suite: a divergence here means the sorted-postings
//! maintenance or the early-exit bound broke ranking semantics.

use crate::{EngineOp, SearchEngine, Serp};
use proptest::prelude::*;
use ss_types::snapshot::Snapshot;
use ss_types::{DomainId, SimDate, TermId, Url, VerticalId};

/// A generated document: (term index, domain index, quality, relevance,
/// indexing day).
#[derive(Debug, Clone)]
struct GenDoc {
    term: usize,
    domain: u32,
    quality: f64,
    relevance: f64,
    day: u32,
}

fn gen_doc(n_terms: usize, n_domains: u32) -> impl Strategy<Value = GenDoc> {
    (
        0..n_terms,
        0..n_domains,
        0u32..=1000,
        0u32..=1000,
        0u32..200,
    )
        .prop_map(|(term, domain, q, r, day)| GenDoc {
            term,
            domain,
            quality: f64::from(q) / 1000.0,
            relevance: f64::from(r) / 1000.0,
            day,
        })
}

/// A generated ranking mutation (kind, domain index, magnitude).
fn gen_op(n_domains: u32) -> impl Strategy<Value = (u8, u32, u32)> {
    (0u8..3, 0..n_domains, 0u32..=100)
}

fn build(docs: &[GenDoc], n_terms: usize, jitter_amp: f64) -> SearchEngine {
    let mut e = SearchEngine::new(0xD1FF, jitter_amp);
    let terms: Vec<TermId> = (0..n_terms)
        .map(|i| e.add_term(VerticalId(0), &format!("term {i}")))
        .collect();
    for (i, d) in docs.iter().enumerate() {
        // A mix of root pages and doorway-style keyed sub-pages so the
        // root-only hacked-label policy is exercised both ways.
        let url = if i % 3 == 0 {
            format!("http://dom{}.com/", d.domain)
        } else {
            format!(
                "http://dom{}.com/page{i}.html?key=term+{}",
                d.domain, d.term
            )
        };
        e.index_page(
            terms[d.term],
            Url::parse(&url).unwrap(),
            DomainId(d.domain),
            d.quality,
            d.relevance,
            SimDate::from_day_index(d.day),
        );
    }
    e
}

fn to_op(kind: u8, domain: u32, mag: u32) -> EngineOp {
    let domain = DomainId(domain);
    match kind {
        0 => EngineOp::SetJuice {
            domain,
            juice: f64::from(mag) / 100.0,
        },
        1 => EngineOp::Demote {
            domain,
            penalty: f64::from(mag) / 200.0,
        },
        _ => EngineOp::LabelHacked {
            domain,
            day: SimDate::from_day_index(mag),
        },
    }
}

/// Exact SERP equality, field by field (rank, url, domain, label).
fn assert_serps_equal(walk: &Serp, scan: &Serp) {
    assert_eq!(
        walk.results, scan.results,
        "epoch walk diverged from full scan"
    );
}

proptest! {
    /// The tentpole invariant: after every committed op batch, the epoch
    /// walk and the reference full scan agree exactly — every rank, URL,
    /// and label — for assorted days and depths.
    #[test]
    fn epoch_walk_matches_full_scan_under_random_op_batches(
        docs in proptest::collection::vec(gen_doc(3, 24), 1..90),
        batches in proptest::collection::vec(
            proptest::collection::vec(gen_op(24), 0..12), 1..5),
        deindex in proptest::collection::vec(0usize..90, 0..6),
        jitter_choice in 0u8..3,
        probe_day in 0u32..240,
        k in 0usize..40,
    ) {
        let jitter_amp = [0.0, 0.05, 0.3][jitter_choice as usize];
        let mut e = build(&docs, 3, jitter_amp);
        for di in deindex {
            if di < docs.len() {
                e.deindex_page(crate::DocId(di as u32));
            }
        }
        for batch in batches {
            e.apply_batch(batch.into_iter().map(|(kind, d, m)| to_op(kind, d, m)));
            for t in 0..3 {
                let term = TermId::from_index(t);
                let day = SimDate::from_day_index(probe_day);
                assert_serps_equal(
                    &e.serp(term, day, k),
                    &e.serp_full_scan(term, day, k),
                );
                // Neighbouring days reuse the same epoch with a cold
                // cache key; a huge k exercises the exhausted path (and,
                // after a `k = 0` query, that no empty build was cached
                // as complete).
                let next = SimDate::from_day_index(probe_day + 1);
                assert_serps_equal(
                    &e.serp(term, next, k),
                    &e.serp_full_scan(term, next, k),
                );
                assert_serps_equal(
                    &e.serp(term, day, 1000),
                    &e.serp_full_scan(term, day, 1000),
                );
            }
        }
    }

    /// Snapshot round-trips rebuild the derived sorted postings exactly:
    /// decode-then-walk equals mutate-then-walk equals full scan.
    #[test]
    fn decoded_engine_walks_identically(
        docs in proptest::collection::vec(gen_doc(2, 16), 1..60),
        ops in proptest::collection::vec(gen_op(16), 0..16),
        probe_day in 0u32..240,
        k in 0usize..30,
    ) {
        let mut e = build(&docs, 2, 0.05);
        e.apply_batch(ops.into_iter().map(|(kind, d, m)| to_op(kind, d, m)));
        let back = SearchEngine::decode(&e.encode()).unwrap();
        assert_eq!(back.state_fingerprint(), e.state_fingerprint());
        for t in 0..2 {
            let term = TermId::from_index(t);
            let day = SimDate::from_day_index(probe_day);
            assert_serps_equal(&back.serp(term, day, k), &e.serp_full_scan(term, day, k));
        }
    }
}

/// The SERP depths the deep sweep draws from: empty, single, either side
/// of the paper's 100-deep crawl and traffic SERPs, and deeper than most
/// posting lists.
const DEEP_KS: [usize; 6] = [0, 1, 99, 100, 101, 500];

proptest! {
    /// The walk at production shape: 150–400 postings per term, k around
    /// the paper's SERP depth and the paper's 0.05 jitter, so the walk
    /// crosses the fill/heapify boundary and takes its early exit on most
    /// probes, which the small generators above rarely reach. Each probe
    /// key takes a short run of depths, so narrower, wider and empty
    /// queries also meet each other's cached builds.
    #[test]
    #[ignore = "paper-shaped differential sweep; run in release CI"]
    fn epoch_walk_matches_full_scan_at_paper_shape(
        term_docs in proptest::collection::vec(
            proptest::collection::vec(gen_doc(1, 160), 150..401), 1..3),
        batches in proptest::collection::vec(
            (
                proptest::collection::vec(gen_op(160), 0..24),
                proptest::collection::vec(0usize..800, 0..4),
                0u8..2,
            ),
            2..10),
        probe_day in 0u32..240,
        ks in proptest::collection::vec(0usize..DEEP_KS.len(), 1..4),
    ) {
        let n_terms = term_docs.len();
        let docs: Vec<GenDoc> = term_docs
            .into_iter()
            .enumerate()
            .flat_map(|(t, docs)| docs.into_iter().map(move |d| GenDoc { term: t, ..d }))
            .collect();
        let mut e = build(&docs, n_terms, 0.05);
        for (ops, deindex, roundtrip) in batches {
            e.apply_batch(ops.into_iter().map(|(kind, d, m)| to_op(kind, d, m)));
            for di in deindex {
                if di < docs.len() {
                    e.deindex_page(crate::DocId(di as u32));
                }
            }
            if roundtrip == 1 {
                let back = SearchEngine::decode(&e.encode()).unwrap();
                assert_eq!(back.state_fingerprint(), e.state_fingerprint());
                e = back;
            }
            for t in 0..n_terms {
                let term = TermId::from_index(t);
                for day in [probe_day, probe_day + 1] {
                    let day = SimDate::from_day_index(day);
                    for &ki in &ks {
                        let k = DEEP_KS[ki];
                        assert_serps_equal(&e.serp(term, day, k), &e.serp_full_scan(term, day, k));
                    }
                }
            }
        }
    }
}

/// Cache lifecycle across publishes: a changed op retires the epoch and
/// its cache; SERPs served after the republish reflect the new state and
/// still match the reference scan.
#[test]
fn republished_epoch_invalidates_cache_and_stays_exact() {
    let docs: Vec<GenDoc> = (0..40)
        .map(|i| GenDoc {
            term: i % 2,
            domain: (i % 10) as u32,
            quality: (i as f64) / 40.0,
            relevance: ((i * 7) % 40) as f64 / 40.0,
            day: 0,
        })
        .collect();
    let mut e = build(&docs, 2, 0.05);
    let day = SimDate::from_day_index(30);
    let t = TermId::from_index(0);

    let before = e.serp(t, day, 10);
    assert_serps_equal(&before, &e.serp_full_scan(t, day, 10));
    e.take_serp_stats();
    let _ = e.serp(t, day, 10);
    assert_eq!(e.take_serp_stats(), (1, 1), "second query hits the cache");

    // A real juice change publishes a fresh epoch: same (term, day) key
    // must now miss, recompute, and agree with the new reference.
    e.apply_batch([EngineOp::SetJuice {
        domain: DomainId(0),
        juice: 0.9,
    }]);
    let after = e.serp(t, day, 10);
    assert_eq!(e.take_serp_stats(), (1, 0), "republish empties the cache");
    assert_serps_equal(&after, &e.serp_full_scan(t, day, 10));
    assert_ne!(
        before.results, after.results,
        "the juice change must actually reshuffle this SERP"
    );

    // A bitwise no-op republish keeps the cache warm.
    e.take_serp_stats();
    e.apply_batch([EngineOp::SetJuice {
        domain: DomainId(0),
        juice: 0.9,
    }]);
    let again = e.serp(t, day, 10);
    assert_eq!(e.take_serp_stats(), (1, 1), "no-op batch keeps the cache");
    assert_eq!(again.results, after.results);
}
