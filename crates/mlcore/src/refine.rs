//! The §4.2.3 model-refinement loop: "using the manually verified
//! predictions to expand the set of labeled Web pages, retraining the
//! classifier on this expanded set, and repeating this process in rounds."
//!
//! The "domain expert" is an [`Oracle`]: the pipeline asks it to validate
//! the classifier's most confident predictions per class (cheapest to
//! check first, as the paper notes), adds confirmations to the labeled
//! pool, and retrains. In the reproduction the oracle is backed by
//! simulator ground truth with a configurable error rate, standing in for
//! the human analysts.

use crate::logreg::{MulticlassModel, TrainConfig};
use crate::sparse::SparseVec;

/// The expert who can (imperfectly, slowly, expensively) label a sample.
pub trait Oracle {
    /// Returns the expert's class judgement for sample `idx` (an index
    /// into the unlabeled pool), or `None` when the expert cannot tell.
    fn label(&mut self, idx: usize) -> Option<usize>;
}

/// Outcome of a refinement run.
#[derive(Debug)]
pub struct RefineResult {
    /// The final model.
    pub model: MulticlassModel,
    /// Labeled training set after all rounds: `(pool_index, class)`.
    pub labeled: Vec<(usize, usize)>,
    /// Oracle consultations performed.
    pub oracle_queries: usize,
    /// Per-round counts of newly confirmed samples.
    pub confirmed_per_round: Vec<usize>,
}

/// Runs the iterative loop.
///
/// * `pool` — feature vectors of the whole corpus;
/// * `seed_labels` — the initial manually labeled subset
///   (`(pool_index, class)`), the paper's 491 pages;
/// * `per_class_per_round` — how many top-confidence predictions per class
///   the expert checks each round;
/// * `rounds` — how many label→retrain rounds to run.
#[allow(clippy::too_many_arguments)]
pub fn refine(
    pool: &[SparseVec],
    seed_labels: &[(usize, usize)],
    class_names: &[String],
    dim: usize,
    cfg: &TrainConfig,
    oracle: &mut impl Oracle,
    per_class_per_round: usize,
    rounds: usize,
) -> RefineResult {
    let mut labeled: Vec<(usize, usize)> = seed_labels.to_vec();
    let mut in_labeled: Vec<bool> = vec![false; pool.len()];
    for (i, _) in &labeled {
        in_labeled[*i] = true;
    }
    let mut oracle_queries = 0usize;
    let mut confirmed_per_round = Vec::with_capacity(rounds);
    let mut model = train_on(pool, &labeled, class_names, dim, cfg);

    for _ in 0..rounds {
        // Rank unlabeled samples by confidence within each predicted class.
        let mut per_class: Vec<Vec<(f32, usize)>> = vec![Vec::new(); class_names.len()];
        for (i, x) in pool.iter().enumerate() {
            if in_labeled[i] {
                continue;
            }
            if let Some((c, p)) = model.predict(x) {
                per_class[c].push((p, i));
            }
        }
        let mut confirmed = 0usize;
        for candidates in &mut per_class {
            candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
            for &(_, i) in candidates.iter().take(per_class_per_round) {
                oracle_queries += 1;
                if let Some(true_class) = oracle.label(i) {
                    labeled.push((i, true_class));
                    in_labeled[i] = true;
                    confirmed += 1;
                }
            }
        }
        confirmed_per_round.push(confirmed);
        if confirmed == 0 {
            break; // converged: nothing new to fold in
        }
        model = train_on(pool, &labeled, class_names, dim, cfg);
    }

    RefineResult {
        model,
        labeled,
        oracle_queries,
        confirmed_per_round,
    }
}

fn train_on(
    pool: &[SparseVec],
    labeled: &[(usize, usize)],
    class_names: &[String],
    dim: usize,
    cfg: &TrainConfig,
) -> MulticlassModel {
    let samples = labeled.iter().map(|&(i, c)| (&pool[i], c));
    MulticlassModel::train(samples, class_names.to_vec(), dim, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ground truth oracle with no error.
    struct TruthOracle {
        truth: Vec<usize>,
    }
    impl Oracle for TruthOracle {
        fn label(&mut self, idx: usize) -> Option<usize> {
            Some(self.truth[idx])
        }
    }

    fn toy_pool(n_per: usize, classes: usize) -> (Vec<SparseVec>, Vec<usize>, usize) {
        let mut xs = Vec::new();
        let mut truth = Vec::new();
        for c in 0..classes {
            for k in 0..n_per {
                let pairs = vec![(c as u32, 1.0f32), ((classes + (k % 4)) as u32, 0.5)];
                xs.push(SparseVec::from_pairs(pairs).l2_normalized());
                truth.push(c);
            }
        }
        (xs, truth, classes + 4)
    }

    #[test]
    fn refinement_grows_the_labeled_set_and_stays_accurate() {
        let (pool, truth, dim) = toy_pool(20, 3);
        // Seed: two labeled examples per class.
        let mut seed = Vec::new();
        for c in 0..3 {
            let mut found = 0;
            for (i, t) in truth.iter().enumerate() {
                if *t == c && found < 2 {
                    seed.push((i, c));
                    found += 1;
                }
            }
        }
        let names: Vec<String> = (0..3).map(|c| format!("C{c}")).collect();
        let mut oracle = TruthOracle {
            truth: truth.clone(),
        };
        let r = refine(
            &pool,
            &seed,
            &names,
            dim,
            &TrainConfig::default(),
            &mut oracle,
            4,
            3,
        );
        assert!(r.labeled.len() > seed.len(), "labeled set did not grow");
        assert!(r.oracle_queries >= r.labeled.len() - seed.len());
        // Final model classifies the pool near-perfectly.
        let correct = pool
            .iter()
            .zip(&truth)
            .filter(|(x, &t)| r.model.predict_forced(x) == t)
            .count();
        assert!(correct as f64 / pool.len() as f64 > 0.95);
    }

    #[test]
    fn loop_terminates_when_oracle_finds_nothing() {
        struct MuteOracle;
        impl Oracle for MuteOracle {
            fn label(&mut self, _idx: usize) -> Option<usize> {
                None
            }
        }
        let (pool, truth, dim) = toy_pool(10, 2);
        let seed: Vec<(usize, usize)> = vec![
            (0, truth[0]),
            (10, truth[10]),
            (1, truth[1]),
            (11, truth[11]),
        ];
        let names: Vec<String> = (0..2).map(|c| format!("C{c}")).collect();
        let r = refine(
            &pool,
            &seed,
            &names,
            dim,
            &TrainConfig::default(),
            &mut MuteOracle,
            3,
            5,
        );
        assert_eq!(r.labeled.len(), seed.len());
        assert_eq!(
            r.confirmed_per_round,
            vec![0],
            "loop should stop after one dry round"
        );
    }
}
