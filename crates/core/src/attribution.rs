//! Campaign identification (§4.2): features → seed labeling → training
//! with refinement → store and PSR attribution.

use std::collections::HashMap;

use ss_eco::World;
use ss_ml::eval::{cross_validate, CvResult};
use ss_ml::logreg::{MulticlassModel, TrainConfig};
use ss_ml::refine::{refine, RefineResult};
use ss_ml::sparse::SparseVec;
use ss_ml::{extract_features, Dictionary};

use ss_crawl::CrawlDb;

use crate::oracle::WorldOracle;

/// The attribution artifacts the analyses consume.
pub struct Attribution {
    /// Class names (classified campaign names), classifier indexing.
    pub class_names: Vec<String>,
    /// The trained model.
    pub model: MulticlassModel,
    /// The feature dictionary.
    pub dict: Dictionary,
    /// store interned-domain id → class index (None = unknown/abstained).
    pub store_class: HashMap<u32, Option<usize>>,
    /// Labeled training set size after refinement.
    pub labeled_count: usize,
    /// Seed labeled set size (pre-refinement).
    pub seed_count: usize,
    /// Oracle consultations spent.
    pub oracle_queries: usize,
    /// Cross-validation result on the final labeled set.
    pub cv: CvResult,
    /// Domain name of each pool entry (every detected store), in pool
    /// order (kept for re-scoring experiments).
    pub pool_domains: Vec<String>,
}

/// Attribution configuration.
#[derive(Debug, Clone)]
pub struct AttributionConfig {
    /// Seed labels per campaign the expert provides up front.
    pub seed_per_campaign: usize,
    /// Refinement rounds (§4.2.3).
    pub refine_rounds: usize,
    /// Top predictions per class validated per round.
    pub validate_per_class: usize,
    /// Expert error rate.
    pub oracle_error: f64,
    /// Trainer hyperparameters.
    pub train: TrainConfig,
    /// Cross-validation folds (paper: 10).
    pub cv_folds: usize,
}

impl Default for AttributionConfig {
    fn default() -> Self {
        AttributionConfig {
            // ~9 per campaign over 52 campaigns lands near the paper's
            // 491-page seed.
            seed_per_campaign: 9,
            refine_rounds: 2,
            validate_per_class: 3,
            oracle_error: 0.02,
            train: TrainConfig::default(),
            cv_folds: 10,
        }
    }
}

/// Runs the full §4.2 pipeline over the crawler's detected stores.
pub fn attribute(world: &World, db: &CrawlDb, cfg: &AttributionConfig, seed: u64) -> Attribution {
    // The classification corpus: every detected store's captured HTML, in
    // domain order. Pool order picks the seed labels, the dictionary's
    // index order and the training row order, so it must not follow the
    // `store_info` map's per-process iteration order.
    let pool_ids = db.detected_store_ids();
    let pool_domains: Vec<String> = pool_ids
        .iter()
        .map(|&id| db.domains.resolve(id).to_owned())
        .collect();
    let pool_html: Vec<&str> = pool_ids
        .iter()
        .map(|id| db.store_info[id].html.as_str())
        .collect();

    // Feature extraction (dictionary grows over the whole corpus, as when
    // vectorizing a fixed crawl).
    let mut dict = Dictionary::new();
    let pool: Vec<SparseVec> = pool_html
        .iter()
        .map(|h| extract_features(h, &mut dict, true))
        .collect();

    // The nameable campaign universe comes from expert analysis of C&C and
    // URL patterns (Table 2's naming); our expert enumerates it directly.
    let class_names: Vec<String> = world
        .campaigns
        .iter()
        .filter(|c| c.classified)
        .map(|c| c.name.to_owned())
        .collect();

    let mut oracle = WorldOracle::new(
        world,
        pool_domains.clone(),
        class_names.clone(),
        cfg.oracle_error,
        seed,
    );

    // Seed labeling: the expert labels up to N stores per campaign from
    // the corpus (the 491-page seed of §4.2).
    let mut per_class_count: HashMap<usize, usize> = HashMap::new();
    let mut seed_labels: Vec<(usize, usize)> = Vec::new();
    for (i, domain) in pool_domains.iter().enumerate() {
        if let Some(name) = oracle.true_campaign(domain) {
            if let Some(class) = oracle.class_of(&name) {
                let count = per_class_count.entry(class).or_insert(0);
                if *count < cfg.seed_per_campaign {
                    seed_labels.push((i, class));
                    *count += 1;
                    oracle.consultations += 1;
                }
            }
        }
    }
    let seed_count = seed_labels.len();

    // Train + refine (§4.2.2–4.2.3).
    let RefineResult {
        model,
        labeled,
        oracle_queries,
        ..
    } = refine(
        &pool,
        &seed_labels,
        &class_names,
        dict.len(),
        &cfg.train,
        &mut oracle,
        cfg.validate_per_class,
        cfg.refine_rounds,
    );

    // Cross-validate on the final labeled set (§4.2.2 reports 10-fold CV).
    let xs: Vec<&SparseVec> = labeled.iter().map(|(i, _)| &pool[*i]).collect();
    let ys: Vec<usize> = labeled.iter().map(|(_, c)| *c).collect();
    let folds = cfg.cv_folds.min(xs.len().max(2)).max(2);
    let cv = cross_validate(&xs, &ys, &class_names, dict.len(), folds, &cfg.train, seed);

    // Attribute every detected store.
    let store_class: HashMap<u32, Option<usize>> = pool_ids
        .iter()
        .zip(&pool)
        .map(|(&id, x)| (id, model.predict(x).map(|(c, _)| c)))
        .collect();

    Attribution {
        class_names,
        model,
        dict,
        store_class,
        labeled_count: labeled.len(),
        seed_count,
        oracle_queries,
        cv,
        pool_domains,
    }
}

impl Attribution {
    /// Campaign class of a PSR (via its landing store), `None` = unknown.
    pub fn psr_class(&self, psr: &ss_crawl::db::PsrRecord) -> Option<usize> {
        self.store_class.get(&psr.landing?).copied().flatten()
    }

    /// Class index by campaign name.
    pub fn class_index(&self, name: &str) -> Option<usize> {
        self.class_names.iter().position(|c| c == name)
    }

    /// The most characteristic HTML features of a class (for forensics
    /// output; §4.2.2's interpretability claim).
    pub fn top_features_of(&self, class: usize, k: usize) -> Vec<(String, f32)> {
        self.model.classes[class]
            .top_features(k)
            .into_iter()
            .map(|(i, w)| (self.dict.token(i).to_owned(), w))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_crawl::crawler::{Crawler, CrawlerConfig};
    use ss_crawl::terms;
    use ss_eco::ScenarioConfig;
    use ss_types::snapshot::Snapshot;
    use ss_types::SimDate;

    fn crawled_world() -> (World, Crawler) {
        let mut w = World::build(ScenarioConfig::tiny(61)).unwrap();
        let start = SimDate::from_day_index(ss_types::CRAWL_START_DAY);
        w.run_until(start);
        let monitored = terms::select_all(&w, start, 6, 5);
        let mut crawler = Crawler::new(
            CrawlerConfig {
                serp_depth: 30,
                ..CrawlerConfig::default()
            },
            monitored,
        );
        for d in 1..=8u32 {
            let day = start + d;
            w.run_until(day);
            crawler.crawl_day(&w, day);
        }
        (w, crawler)
    }

    #[test]
    fn attribution_learns_real_campaigns() {
        let (w, crawler) = crawled_world();
        let cfg = AttributionConfig {
            train: TrainConfig {
                epochs: 120,
                ..TrainConfig::default()
            },
            refine_rounds: 1,
            ..AttributionConfig::default()
        };
        let attr = attribute(&w, &crawler.db, &cfg, 7);
        assert_eq!(attr.class_names.len(), 52);
        assert!(attr.seed_count > 0, "no seed labels");
        assert!(attr.labeled_count >= attr.seed_count);

        // Score attribution against ground truth for the stores that were
        // classified (abstentions excluded).
        let oracle = WorldOracle::new(&w, vec![], attr.class_names.clone(), 0.0, 1);
        let mut correct = 0usize;
        let mut wrong = 0usize;
        for (id, class) in &attr.store_class {
            let Some(class) = class else { continue };
            let domain = crawler.db.domains.resolve(*id);
            match oracle.true_campaign(domain) {
                Some(truth) => {
                    if attr.class_names[*class] == truth {
                        correct += 1;
                    } else {
                        wrong += 1;
                    }
                }
                None => wrong += 1, // shadow store confidently misattributed
            }
        }
        assert!(correct > 0, "nothing attributed correctly");
        let precision = correct as f64 / (correct + wrong).max(1) as f64;
        assert!(
            precision > 0.6,
            "precision {precision} ({correct}/{})",
            correct + wrong
        );
    }

    #[test]
    fn top_features_carry_campaign_signatures() {
        let (w, crawler) = crawled_world();
        let cfg = AttributionConfig {
            train: TrainConfig {
                epochs: 120,
                ..TrainConfig::default()
            },
            refine_rounds: 0,
            ..AttributionConfig::default()
        };
        let attr = attribute(&w, &crawler.db, &cfg, 7);
        // Find a class with training data and inspect its features.
        let class = (0..attr.class_names.len())
            .find(|&c| !attr.model.classes[c].top_features(1).is_empty());
        if let Some(c) = class {
            let feats = attr.top_features_of(c, 5);
            assert!(!feats.is_empty());
            assert!(feats.iter().all(|(_, w)| *w > 0.0));
        }
    }

    /// Two databases with the same content attribute identically: each
    /// decode of one crawl rebuilds `store_info` with its own hash seed,
    /// so a pool built in map order would pick different seed labels and
    /// train on a different row order.
    #[test]
    fn attribution_is_independent_of_store_map_order() {
        let (w, crawler) = crawled_world();
        let frame = crawler.db.encode();
        let cfg = AttributionConfig {
            train: TrainConfig {
                epochs: 40,
                ..TrainConfig::default()
            },
            refine_rounds: 1,
            ..AttributionConfig::default()
        };
        let runs: Vec<Attribution> = (0..3)
            .map(|_| attribute(&w, &CrawlDb::decode(&frame).unwrap(), &cfg, 7))
            .collect();
        let bits = |a: &Attribution| -> Vec<(Vec<u32>, u32)> {
            a.model
                .classes
                .iter()
                .map(|c| {
                    (
                        c.weights.iter().map(|w| w.to_bits()).collect(),
                        c.bias.to_bits(),
                    )
                })
                .collect()
        };
        for other in &runs[1..] {
            assert_eq!(
                runs[0].pool_domains, other.pool_domains,
                "pool order differs"
            );
            assert!(bits(&runs[0]) == bits(other), "weights or biases differ");
        }
    }
}
