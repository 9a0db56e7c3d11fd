//! Term selection: the two methodologies of §4.1.1.
//!
//! * **Doorway extraction** (used for the 13 KEY verticals): bootstrap
//!   queries find cloaked doorways; `site:` queries over those doorways
//!   list their indexed pages; keywords are pulled from the URLs
//!   (`?key=cheap+beats+by+dre`); 100 unique terms are sampled.
//! * **Suggest expansion** (used for Ed Hardy, Louis Vuitton, Uggs):
//!   recursive completion-service expansion of the brand, plus
//!   adjective+brand compositions; 100 unique strings sampled.
//!
//! Both run *before* the crawl window, as in the study, and both speak
//! only to public interfaces: SERPs, `site:` queries, suggest, and fetch.

use rand::seq::SliceRandom;
use ss_search::{DocPage, RankedSerp};
use ss_types::rng::sub_rng;
use ss_types::SimDate;

use ss_eco::World;

/// How a vertical's monitored terms were chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermMethodology {
    /// Keyword extraction from discovered doorway URLs.
    DoorwayExtraction,
    /// Recursive suggest expansion.
    SuggestExpansion,
}

/// Monitored terms for one vertical.
#[derive(Debug, Clone)]
pub struct MonitoredVertical {
    /// The vertical's display name.
    pub name: String,
    /// How terms were selected.
    pub methodology: TermMethodology,
    /// The monitored term strings (≤ the configured count).
    pub terms: Vec<String>,
}

/// Bootstrap seed queries for a vertical: adjective+brand compositions.
fn bootstrap_queries(brands: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    for b in brands {
        for adj in ss_types::market::TERM_ADJECTIVES {
            out.push(format!("{adj} {}", b.to_ascii_lowercase()));
        }
    }
    out
}

/// Methodology A: discover doorways via bootstrap queries + Dagger, then
/// extract keywords from their `site:`-listed URLs.
pub fn doorway_extraction_terms(
    world: &World,
    vertical_index: usize,
    probe_day: SimDate,
    want: usize,
    seed: u64,
) -> Vec<String> {
    let spec = world.verticals[vertical_index].spec;
    let mut rng = sub_rng(seed, &format!("termsel/doorway/{}", spec.name));
    let mut pool: Vec<String> = Vec::new();

    for q in bootstrap_queries(spec.brands) {
        let Some(serp) = query_by_text(world, &q, probe_day, 40) else {
            continue;
        };
        for hit in serp.results() {
            // Probe with Dagger; only confirmed-cloaked doorways are mined.
            let verdict = crate::dagger::check(world, &world.doc_url(hit.doc), &q, 5);
            if verdict.cloaked.is_none() {
                continue;
            }
            // `site:` query over the doorway, keyword out of each keyword
            // page (`?key=…`, whose key is the page's term).
            for doc in world.engine.site_query(hit.domain) {
                if doc.page == DocPage::TermKey {
                    let term = world.term_text(doc.term);
                    if !pool.iter().any(|t| t == term) {
                        pool.push(term.to_owned());
                    }
                }
            }
        }
        if pool.len() > want * 4 {
            break; // plenty of candidates already
        }
    }
    pool.shuffle(&mut rng);
    pool.truncate(want);
    pool.sort();
    pool
}

/// Methodology B: recursive suggest expansion, keeping only strings that
/// actually return results (the study's operators sanity-checked queries
/// by hand), then sampling `want`.
pub fn suggest_expansion_terms(
    world: &World,
    vertical_index: usize,
    probe_day: SimDate,
    want: usize,
    seed: u64,
) -> Vec<String> {
    let spec = world.verticals[vertical_index].spec;
    let mut rng = sub_rng(seed, &format!("termsel/suggest/{}", spec.name));
    let mut candidates: Vec<String> = Vec::new();
    for brand in spec.brands {
        for s in world.suggest.expand_recursive(brand, 2) {
            if !candidates.contains(&s) {
                candidates.push(s);
            }
        }
    }
    candidates.shuffle(&mut rng);
    let mut out = Vec::new();
    for c in candidates {
        if out.len() >= want {
            break;
        }
        if query_by_text(world, &c, probe_day, 10).is_some_and(|r| !r.results().is_empty()) {
            out.push(c);
        }
    }
    // If live-result filtering ran dry, accept unverified strings.
    if out.len() < want {
        for brand in spec.brands {
            for s in world.suggest.expand_recursive(brand, 3) {
                if out.len() >= want {
                    break;
                }
                if !out.contains(&s) {
                    out.push(s);
                }
            }
        }
    }
    out.truncate(want);
    out.sort();
    out
}

/// Selects monitored terms for every vertical in the world, using doorway
/// extraction for KEY-targeted verticals and suggest expansion otherwise —
/// the exact split of §4.1.1. Returns one [`MonitoredVertical`] per world
/// vertical, in order. `sample_bootstrap_verticals` caps how many verticals
/// run the (expensive) doorway probe before falling back to suggest.
pub fn select_all(
    world: &World,
    probe_day: SimDate,
    want: usize,
    seed: u64,
) -> Vec<MonitoredVertical> {
    let n = world.verticals.len();
    let mut out = Vec::with_capacity(n);
    for vi in 0..n {
        let spec = world.verticals[vi].spec;
        let (methodology, mut terms) = if spec.key_targeted {
            (
                TermMethodology::DoorwayExtraction,
                doorway_extraction_terms(world, vi, probe_day, want, seed),
            )
        } else {
            (
                TermMethodology::SuggestExpansion,
                suggest_expansion_terms(world, vi, probe_day, want, seed),
            )
        };
        // A thin doorway harvest falls back to suggest to fill the set.
        if terms.len() < want {
            let extra = suggest_expansion_terms(world, vi, probe_day, want - terms.len(), seed + 1);
            for e in extra {
                if !terms.contains(&e) {
                    terms.push(e);
                }
            }
            terms.truncate(want);
        }
        out.push(MonitoredVertical {
            name: spec.name.to_owned(),
            methodology,
            terms,
        });
    }
    out
}

/// Queries the engine by term *text* (the only way a crawler can): one
/// probe of the engine's text index for the term, then its top-`k` SERP.
///
/// Reads go through the published [`ss_search::EngineEpoch`] — the same
/// immutable snapshot the traffic planner queried when the day was
/// committed, so the crawler's `(term, day)` keys are usually warm cache
/// hits. The SERP holds ids only: a result's host is its domain's name,
/// and callers that fetch the page build its URL with
/// [`World::doc_url`].
pub fn query_by_text(world: &World, text: &str, day: SimDate, k: usize) -> Option<RankedSerp> {
    let term = world.engine.term_id(text)?;
    Some(world.engine.epoch().ranked(term, day, k))
}

/// Overlap between two term sets (the §4.1.1 bias check counted 4 / 1000
/// overlapping terms between the two methodologies).
pub fn term_overlap(a: &[String], b: &[String]) -> usize {
    a.iter().filter(|t| b.contains(t)).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_eco::ScenarioConfig;

    fn probe_world() -> World {
        let mut w = World::build(ScenarioConfig::tiny(17)).unwrap();
        // Advance into the crawl window so campaigns are ranking.
        w.run_until(SimDate::from_day_index(ss_types::CRAWL_START_DAY + 4));
        w
    }

    #[test]
    fn doorway_extraction_finds_kit_terms() {
        let w = probe_world();
        let day = SimDate::from_day_index(ss_types::CRAWL_START_DAY + 4);
        let terms = doorway_extraction_terms(&w, 0, day, 6, 1);
        assert!(!terms.is_empty(), "no terms extracted");
        // Extracted terms must come from the engine's universe (they were
        // pulled out of indexed URLs).
        for t in &terms {
            assert!(
                w.engine.terms().iter().any(|r| r.text == *t),
                "extracted term {t:?} is not a real indexed term"
            );
        }
    }

    #[test]
    fn suggest_expansion_returns_live_terms() {
        let w = probe_world();
        let day = SimDate::from_day_index(ss_types::CRAWL_START_DAY + 4);
        let terms = suggest_expansion_terms(&w, 1, day, 6, 1);
        assert_eq!(terms.len(), 6);
    }

    #[test]
    fn select_all_uses_the_papers_split() {
        let w = probe_world();
        let day = SimDate::from_day_index(ss_types::CRAWL_START_DAY + 4);
        let selected = select_all(&w, day, 5, 9);
        assert_eq!(selected.len(), w.verticals.len());
        for (vi, mv) in selected.iter().enumerate() {
            let expected = if w.verticals[vi].spec.key_targeted {
                TermMethodology::DoorwayExtraction
            } else {
                TermMethodology::SuggestExpansion
            };
            assert_eq!(mv.methodology, expected, "{}", mv.name);
            assert!(!mv.terms.is_empty());
        }
    }

    #[test]
    fn overlap_counts_shared_strings() {
        let a = vec!["x".to_owned(), "y".to_owned()];
        let b = vec!["y".to_owned(), "z".to_owned()];
        assert_eq!(term_overlap(&a, &b), 1);
    }
}
