//! L1-regularized logistic regression, binary models wrapped one-vs-rest
//! for multiclass prediction.
//!
//! The trainer is proximal (sub)gradient descent: a full-batch logistic
//! gradient step followed by soft-thresholding, which drives most weights
//! exactly to zero — the sparsity §4.2.2 leans on ("the predictions of SEO
//! campaigns are derived from only a handful of HTML features").
//!
//! All classes train together (see [`MulticlassModel::train`]). Each class
//! still performs exactly the f32 operations, in the same order, of an
//! independent per-class loop over dense weights; that loop survives as
//! the test-only reference the differential suite compares against.

use std::ops::Range;

use crate::sparse::SparseVec;

#[cfg(test)]
mod differential;

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// L1 penalty weight.
    pub lambda: f32,
    /// Learning rate.
    pub lr: f32,
    /// Full-batch iterations.
    pub epochs: usize,
    /// Abstention threshold for multiclass prediction: the winning class's
    /// OvR probability must reach it, or the model answers "unknown".
    /// One-vs-rest sigmoids are conservative when classes have few
    /// positives against many negatives, so this sits well below 0.5.
    pub min_confidence: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            lambda: 1e-4,
            lr: 4.0,
            epochs: 300,
            min_confidence: 0.2,
        }
    }
}

fn sigmoid(z: f32) -> f32 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// One proximal step on one weight: the gradient step, then
/// soft-thresholding toward zero by `t` (L1).
fn prox_step(w: f32, step: f32, grad: f32, t: f32) -> f32 {
    let w = w - step * grad;
    if w > t {
        w - t
    } else if w < -t {
        w + t
    } else {
        0.0
    }
}

/// A trained binary model: one class of a [`MulticlassModel`].
#[derive(Debug, Clone)]
pub struct BinaryLogReg {
    /// Dense weights over the dictionary.
    pub weights: Vec<f32>,
    /// Intercept.
    pub bias: f32,
}

impl BinaryLogReg {
    /// Probability that `x` is positive.
    pub fn prob(&self, x: &SparseVec) -> f32 {
        sigmoid(x.dot(&self.weights) + self.bias)
    }

    /// Number of non-zero weights (model sparsity).
    pub fn nnz(&self) -> usize {
        self.weights.iter().filter(|w| **w != 0.0).count()
    }

    /// Indices of the `k` most positive weights (most characteristic
    /// features of the class).
    pub fn top_features(&self, k: usize) -> Vec<(u32, f32)> {
        let mut idx: Vec<(u32, f32)> = self
            .weights
            .iter()
            .enumerate()
            .filter(|(_, w)| **w > 0.0)
            .map(|(i, w)| (i as u32, *w))
            .collect();
        idx.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        idx.truncate(k);
        idx
    }
}

/// Full-batch training of `n_classes` one-vs-rest models at once, over a
/// dictionary of `dim` features. Weights and gradients are feature-major:
/// active feature `k` owns the contiguous lanes
/// `k * n_classes..(k + 1) * n_classes`, one per class, so an epoch reads
/// each row once and the per-class arithmetic runs across lanes the
/// compiler vectorizes. Lanes never mix, so each class sees the per-class
/// loop's operations in its order: row dots start at `Iterator::sum`'s
/// `-0.0`, rows and entries keep their order, and no multiply-add is
/// fused. Row `r` is `entries[rows[r].0]` in active-feature space, with
/// class index `rows[r].1`; `active` maps active features to the
/// dictionary.
fn train_classes(
    entries: Vec<(u32, f32)>,
    rows: Vec<(Range<usize>, usize)>,
    active: &[u32],
    n_classes: usize,
    dim: usize,
    cfg: &TrainConfig,
) -> Vec<BinaryLogReg> {
    let n = rows.len().max(1) as f32;
    let step = cfg.lr / n;
    let t = cfg.lr * cfg.lambda;
    let mut w = vec![0.0f32; active.len() * n_classes];
    let mut grad = vec![0.0f32; w.len()];
    let mut bias = vec![0.0f32; n_classes];
    let mut grad_bias = vec![0.0f32; n_classes];
    // Per row: each class's dot product, then its error.
    let mut err = vec![0.0f32; n_classes];
    // A feature no row touches has a zero gradient in every epoch, so all
    // of them share this lane (+0.0 whenever lr·lambda ≥ 0).
    let mut untouched = 0.0f32;
    for _ in 0..cfg.epochs {
        grad.fill(0.0);
        grad_bias.fill(0.0);
        for (span, label) in &rows {
            let row = &entries[span.clone()];
            err.fill(-0.0);
            for &(k, v) in row {
                let wk = &w[k as usize * n_classes..][..n_classes];
                for (z, wc) in err.iter_mut().zip(wk) {
                    *z += wc * v;
                }
            }
            for (class, ((e, b), gb)) in err.iter_mut().zip(&bias).zip(&mut grad_bias).enumerate() {
                let y = if class == *label { 1.0 } else { 0.0 };
                *e = sigmoid(*e + b) - y;
                *gb += *e;
            }
            for &(k, v) in row {
                let gk = &mut grad[k as usize * n_classes..][..n_classes];
                for (g, e) in gk.iter_mut().zip(&err) {
                    *g += e * v;
                }
            }
        }
        for (wc, g) in w.iter_mut().zip(&grad) {
            *wc = prox_step(*wc, step, *g, t);
        }
        untouched = prox_step(untouched, step, 0.0, t);
        for (b, gb) in bias.iter_mut().zip(&grad_bias) {
            *b -= step * gb;
        }
    }
    // Release the working set before the dense outputs are allocated.
    drop((grad, entries, rows));
    bias.into_iter()
        .enumerate()
        .map(|(class, bias)| {
            let mut weights = vec![untouched; dim];
            for (&f, wk) in active.iter().zip(w.chunks_exact(n_classes)) {
                weights[f as usize] = wk[class];
            }
            BinaryLogReg { weights, bias }
        })
        .collect()
}

/// A one-vs-rest multiclass model with abstention.
#[derive(Debug, Clone)]
pub struct MulticlassModel {
    /// Per-class binary models, indexed by class id.
    pub classes: Vec<BinaryLogReg>,
    /// Class display names (same indexing).
    pub class_names: Vec<String>,
    /// Minimum winning probability; below it the model abstains
    /// ("unknown" — the paper attributes only 58% of PSRs).
    pub min_confidence: f32,
}

impl MulticlassModel {
    /// Trains one binary model per class on `(row, class index)` samples,
    /// over a dictionary of `dim` features. A sample whose class index is
    /// not below `class_names.len()` is a negative for every class.
    pub fn train<'a>(
        samples: impl IntoIterator<Item = (&'a SparseVec, usize)>,
        class_names: Vec<String>,
        dim: usize,
        cfg: &TrainConfig,
    ) -> Self {
        // Gather the rows back to back, dropping entries at or beyond `dim`
        // as `SparseVec::dot` skips them, then re-index them onto the
        // active features: the dictionary indices some row touches,
        // ascending.
        let mut entries = Vec::new();
        let mut rows = Vec::new();
        for (x, label) in samples {
            let start = entries.len();
            entries.extend(x.entries().iter().filter(|(i, _)| (*i as usize) < dim));
            rows.push((start..entries.len(), label));
        }
        let mut active: Vec<u32> = entries.iter().map(|&(i, _)| i).collect();
        active.sort_unstable();
        active.dedup();
        for (i, _) in &mut entries {
            *i = active.partition_point(|&f| f < *i) as u32;
        }
        let classes = train_classes(entries, rows, &active, class_names.len(), dim, cfg);
        MulticlassModel {
            classes,
            class_names,
            min_confidence: cfg.min_confidence,
        }
    }

    /// Per-class probabilities (independent OvR sigmoids).
    pub fn probs(&self, x: &SparseVec) -> Vec<f32> {
        self.classes.iter().map(|m| m.prob(x)).collect()
    }

    /// Predicts `(class, confidence)`; `None` = abstain/unknown.
    pub fn predict(&self, x: &SparseVec) -> Option<(usize, f32)> {
        let probs = self.probs(x);
        let (best, p) = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))?;
        (*p >= self.min_confidence).then_some((best, *p))
    }

    /// Forced (no-abstention) prediction, for accuracy measurement.
    pub fn predict_forced(&self, x: &SparseVec) -> usize {
        self.probs(x)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A separable toy problem: class decided by which indicator feature
    /// is present, plus shared noise features.
    fn toy(n_per: usize, classes: usize) -> (Vec<SparseVec>, Vec<usize>, usize) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let noise_dims = 10u32;
        for c in 0..classes {
            for k in 0..n_per {
                let mut pairs = vec![(noise_dims + c as u32, 1.0f32)];
                pairs.push((((k * 7 + c) % noise_dims as usize) as u32, 1.0));
                pairs.push((((k * 3 + 1) % noise_dims as usize) as u32, 1.0));
                xs.push(SparseVec::from_pairs(pairs).l2_normalized());
                ys.push(c);
            }
        }
        (xs, ys, noise_dims as usize + classes)
    }

    /// The binary model of class `positive` in a one-vs-rest fit; labels
    /// above `positive` are negatives for every trained class.
    fn binary(
        xs: &[SparseVec],
        ys: &[usize],
        positive: usize,
        dim: usize,
        cfg: &TrainConfig,
    ) -> BinaryLogReg {
        let names = (0..=positive).map(|c| format!("C{c}")).collect();
        MulticlassModel::train(xs.iter().zip(ys.iter().copied()), names, dim, cfg)
            .classes
            .swap_remove(positive)
    }

    #[test]
    fn binary_separates_toy_data() {
        let (xs, ys, dim) = toy(20, 2);
        let m = binary(&xs, &ys, 1, dim, &TrainConfig::default());
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| (m.prob(x) > 0.5) == (y == 1))
            .count();
        assert!(
            correct as f64 / xs.len() as f64 > 0.95,
            "{correct}/{}",
            xs.len()
        );
    }

    #[test]
    fn l1_produces_sparse_models() {
        let (xs, ys, dim) = toy(20, 2);
        let dense_cfg = TrainConfig {
            lambda: 0.0,
            ..TrainConfig::default()
        };
        let sparse_cfg = TrainConfig {
            lambda: 3e-3,
            ..TrainConfig::default()
        };
        let dense = binary(&xs, &ys, 1, dim, &dense_cfg);
        let sparse = binary(&xs, &ys, 1, dim, &sparse_cfg);
        assert!(
            sparse.nnz() < dense.nnz(),
            "{} !< {}",
            sparse.nnz(),
            dense.nnz()
        );
        assert!(sparse.nnz() > 0);
    }

    #[test]
    fn top_features_identify_the_indicator() {
        let (xs, ys, dim) = toy(25, 3);
        let m = binary(&xs, &ys, 1, dim, &TrainConfig::default());
        let top = m.top_features(1);
        assert_eq!(
            top[0].0, 11,
            "indicator feature for class 1 sits at index 11"
        );
    }

    #[test]
    fn multiclass_learns_and_abstains() {
        let (xs, ys, dim) = toy(15, 4);
        let names = (0..4).map(|c| format!("C{c}")).collect();
        let m = MulticlassModel::train(
            xs.iter().zip(ys.iter().copied()),
            names,
            dim,
            &TrainConfig::default(),
        );
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| m.predict_forced(x) == y)
            .count();
        assert!(
            correct as f64 / xs.len() as f64 > 0.9,
            "{correct}/{}",
            xs.len()
        );
        // A featureless vector must be abstained on.
        let blank = SparseVec::default();
        assert_eq!(m.predict(&blank), None);
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!(sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) < 0.001);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
    }
}
