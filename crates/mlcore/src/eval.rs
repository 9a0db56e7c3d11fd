//! Model evaluation: stratified k-fold cross-validation, accuracy, and
//! confusion counting (§4.2.2 reports 86.8% 10-fold CV accuracy over 52
//! campaigns against a 1.9% chance baseline).

use rand::seq::SliceRandom;
use ss_types::rng::sub_rng;

use crate::logreg::{MulticlassModel, TrainConfig};
use crate::sparse::SparseVec;

/// Stratified fold assignment: samples of each class are spread round-robin
/// across folds so every fold sees every (sufficiently large) class.
pub fn stratified_folds(labels: &[usize], k: usize, seed: u64) -> Vec<usize> {
    assert!(k >= 2, "need at least two folds");
    let mut rng = sub_rng(seed, "folds");
    let n_classes = labels.iter().copied().max().map(|m| m + 1).unwrap_or(0);
    let mut fold = vec![0usize; labels.len()];
    for c in 0..n_classes {
        let mut members: Vec<usize> = (0..labels.len()).filter(|&i| labels[i] == c).collect();
        members.shuffle(&mut rng);
        // Offset by class so under-sized classes (fewer members than folds)
        // spread across folds instead of piling into fold 0.
        for (j, i) in members.into_iter().enumerate() {
            fold[i] = (j + c) % k;
        }
    }
    fold
}

/// Cross-validation result.
#[derive(Debug, Clone)]
pub struct CvResult {
    /// Held-out accuracy over all folds.
    pub accuracy: f64,
    /// Per-fold accuracies.
    pub fold_accuracy: Vec<f64>,
    /// Confusion counts `(true_class, predicted_class, count)`, only
    /// non-zero off-diagonal cells.
    pub confusions: Vec<(usize, usize, usize)>,
    /// Chance baseline (1 / #classes).
    pub chance: f64,
}

/// Runs stratified k-fold cross-validation of the one-vs-rest model over
/// borrowed rows `xs` and their class `labels`.
pub fn cross_validate(
    xs: &[&SparseVec],
    labels: &[usize],
    class_names: &[String],
    dim: usize,
    k: usize,
    cfg: &TrainConfig,
    seed: u64,
) -> CvResult {
    assert_eq!(xs.len(), labels.len());
    let folds = stratified_folds(labels, k, seed);
    let mut correct = 0usize;
    let mut total = 0usize;
    let mut fold_accuracy = Vec::with_capacity(k);
    let mut confusion = std::collections::HashMap::<(usize, usize), usize>::new();

    for f in 0..k {
        let test_idx: Vec<usize> = (0..xs.len()).filter(|&i| folds[i] == f).collect();
        if test_idx.is_empty() || test_idx.len() == xs.len() {
            continue;
        }
        let train = (0..xs.len())
            .filter(|&i| folds[i] != f)
            .map(|i| (xs[i], labels[i]));
        let model = MulticlassModel::train(train, class_names.to_vec(), dim, cfg);
        let mut fold_correct = 0usize;
        for &i in &test_idx {
            let pred = model.predict_forced(xs[i]);
            if pred == labels[i] {
                fold_correct += 1;
            } else {
                *confusion.entry((labels[i], pred)).or_insert(0) += 1;
            }
        }
        correct += fold_correct;
        total += test_idx.len();
        fold_accuracy.push(fold_correct as f64 / test_idx.len() as f64);
    }

    let mut confusions: Vec<(usize, usize, usize)> =
        confusion.into_iter().map(|((t, p), c)| (t, p, c)).collect();
    confusions.sort_by_key(|c| std::cmp::Reverse(c.2));
    CvResult {
        accuracy: if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        },
        fold_accuracy,
        confusions,
        chance: 1.0 / class_names.len().max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n_per: usize, classes: usize) -> (Vec<SparseVec>, Vec<usize>, usize) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for c in 0..classes {
            for k in 0..n_per {
                let pairs = vec![(c as u32, 1.0f32), ((classes + (k % 5)) as u32, 0.6)];
                xs.push(SparseVec::from_pairs(pairs).l2_normalized());
                ys.push(c);
            }
        }
        (xs, ys, classes + 5)
    }

    #[test]
    fn folds_are_stratified_and_complete() {
        let labels = vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2];
        let folds = stratified_folds(&labels, 4, 1);
        assert_eq!(folds.len(), labels.len());
        for f in 0..4 {
            let members: Vec<usize> = (0..labels.len()).filter(|&i| folds[i] == f).collect();
            assert_eq!(members.len(), 3, "fold {f} unbalanced");
            // One member per class in each fold (classes offset-rotate, so
            // each fold still sees all three classes here).
            let mut classes: Vec<usize> = members.iter().map(|&i| labels[i]).collect();
            classes.sort();
            assert_eq!(classes, vec![0, 1, 2]);
        }
        // Singleton classes must not all share fold 0.
        let singles = vec![0usize, 1, 2, 3];
        let sf = stratified_folds(&singles, 4, 1);
        let distinct: std::collections::HashSet<usize> = sf.iter().copied().collect();
        assert!(distinct.len() > 1, "singletons piled into one fold: {sf:?}");
    }

    #[test]
    fn cv_scores_separable_data_highly() {
        let (xs, ys, dim) = toy(12, 5);
        let names: Vec<String> = (0..5).map(|c| format!("C{c}")).collect();
        let rows: Vec<&SparseVec> = xs.iter().collect();
        let r = cross_validate(&rows, &ys, &names, dim, 4, &TrainConfig::default(), 7);
        assert!(r.accuracy > 0.9, "accuracy {}", r.accuracy);
        assert_eq!(r.fold_accuracy.len(), 4);
        assert!((r.chance - 0.2).abs() < 1e-12);
    }

    #[test]
    fn cv_detects_unlearnable_labels() {
        // Random labels over identical features: accuracy ≈ chance.
        let xs: Vec<SparseVec> = (0..60)
            .map(|_| SparseVec::from_pairs(vec![(0, 1.0)]))
            .collect();
        let ys: Vec<usize> = (0..60).map(|i| i % 3).collect();
        let names: Vec<String> = (0..3).map(|c| format!("C{c}")).collect();
        let rows: Vec<&SparseVec> = xs.iter().collect();
        let r = cross_validate(&rows, &ys, &names, 1, 3, &TrainConfig::default(), 7);
        assert!(r.accuracy < 0.6, "accuracy {} on noise", r.accuracy);
    }

    #[test]
    fn confusions_are_recorded_for_errors() {
        let (mut xs, mut ys, dim) = toy(10, 3);
        // Poison a few labels to force confusions.
        for i in 0..4 {
            ys[i] = (ys[i] + 1) % 3;
            let _ = &xs[i];
        }
        let names: Vec<String> = (0..3).map(|c| format!("C{c}")).collect();
        let rows: Vec<&SparseVec> = xs.iter().collect();
        let r = cross_validate(&rows, &ys, &names, dim, 3, &TrainConfig::default(), 7);
        assert!(!r.confusions.is_empty());
        xs.clear();
    }
}
