//! Differential suite: the fused multiclass trainer against the per-class
//! reference loop it replaced, compared bit for bit (every weight, every
//! bias, and predictions on held-out rows).

use proptest::prelude::*;
use ss_web::pagegen::storefront::{home_page, StoreCtx, StoreTemplate};

use super::*;
use crate::{extract_features, Dictionary};

/// The reference: one full-batch proximal-gradient loop per class over
/// dense weight and gradient vectors.
fn reference_binary(xs: &[&SparseVec], ys: &[f32], dim: usize, cfg: &TrainConfig) -> BinaryLogReg {
    assert_eq!(xs.len(), ys.len(), "features and labels must align");
    let n = xs.len().max(1) as f32;
    let mut w = vec![0.0f32; dim];
    let mut b = 0.0f32;
    let mut grad = vec![0.0f32; dim];
    for _ in 0..cfg.epochs {
        grad.iter_mut().for_each(|g| *g = 0.0);
        let mut gb = 0.0f32;
        for (x, &y) in xs.iter().zip(ys) {
            let p = sigmoid(x.dot(&w) + b);
            let err = p - y;
            x.add_scaled_into(err, &mut grad);
            gb += err;
        }
        let step = cfg.lr / n;
        for (wi, gi) in w.iter_mut().zip(&grad) {
            *wi -= step * gi;
            // Proximal step: soft-threshold toward zero (L1).
            let t = cfg.lr * cfg.lambda;
            *wi = if *wi > t {
                *wi - t
            } else if *wi < -t {
                *wi + t
            } else {
                0.0
            };
        }
        b -= step * gb;
    }
    BinaryLogReg {
        weights: w,
        bias: b,
    }
}

/// The reference one-vs-rest wrapper: class `c`'s positives are the
/// samples labelled `c`.
fn reference_multiclass(
    samples: &[(&SparseVec, usize)],
    class_names: Vec<String>,
    dim: usize,
    cfg: &TrainConfig,
) -> MulticlassModel {
    let xs: Vec<&SparseVec> = samples.iter().map(|&(x, _)| x).collect();
    let classes = (0..class_names.len())
        .map(|c| {
            let ys: Vec<f32> = samples
                .iter()
                .map(|&(_, l)| if l == c { 1.0 } else { 0.0 })
                .collect();
            reference_binary(&xs, &ys, dim, cfg)
        })
        .collect();
    MulticlassModel {
        classes,
        class_names,
        min_confidence: cfg.min_confidence,
    }
}

/// Trains both ways and asserts bit identity.
fn assert_trainers_agree(
    samples: &[(&SparseVec, usize)],
    n_classes: usize,
    dim: usize,
    cfg: &TrainConfig,
    held_out: &[SparseVec],
    ctx: &str,
) {
    let names: Vec<String> = (0..n_classes).map(|c| format!("C{c}")).collect();
    let fused = MulticlassModel::train(samples.iter().copied(), names.clone(), dim, cfg);
    let reference = reference_multiclass(samples, names, dim, cfg);
    assert_eq!(fused.classes.len(), n_classes, "{ctx}: class count");
    for (c, (f, r)) in fused.classes.iter().zip(&reference.classes).enumerate() {
        assert_eq!(f.weights.len(), r.weights.len(), "{ctx}: class {c} dim");
        for (j, (a, b)) in f.weights.iter().zip(&r.weights).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{ctx}: class {c} weight {j}: fused {a:e}, reference {b:e}"
            );
        }
        assert_eq!(
            f.bias.to_bits(),
            r.bias.to_bits(),
            "{ctx}: class {c} bias: fused {:e}, reference {:e}",
            f.bias,
            r.bias
        );
    }
    let bits = |p: Option<(usize, f32)>| p.map(|(c, p)| (c, p.to_bits()));
    for (i, x) in held_out.iter().enumerate() {
        assert_eq!(
            bits(fused.predict(x)),
            bits(reference.predict(x)),
            "{ctx}: held-out row {i}"
        );
    }
}

/// A random sparse row with indices below `dim + 8` (some beyond the
/// dictionary), sometimes empty, sometimes unit-normalized.
fn random_row(rng: &mut TestRng, dim: usize) -> SparseVec {
    let nnz = rng.below(10);
    let pairs = (0..nnz)
        .map(|_| {
            let i = rng.below(dim as u64 + 8) as u32;
            (i, (rng.unit_f64() * 4.0 - 2.0) as f32)
        })
        .collect();
    let v = SparseVec::from_pairs(pairs);
    if rng.below(2) == 0 {
        v.l2_normalized()
    } else {
        v
    }
}

/// One generated problem: 1–70 classes, a small pool sampled with
/// replacement (duplicate rows), labels up to three past the class count,
/// and hyperparameters that include `lambda = 0`, a negative `lambda`,
/// and 0 or 1 epochs.
fn generated_round(rng: &mut TestRng, ctx: &str) {
    let n_classes = 1 + rng.below(70) as usize;
    let dim = rng.below(48) as usize;
    let pool: Vec<SparseVec> = (0..1 + rng.below(16))
        .map(|_| random_row(rng, dim))
        .collect();
    let samples: Vec<(&SparseVec, usize)> = (0..rng.below(25))
        .map(|_| {
            let x = &pool[rng.below(pool.len() as u64) as usize];
            (x, rng.below(n_classes as u64 + 3) as usize)
        })
        .collect();
    let lambda = match rng.below(4) {
        0 => 0.0,
        1 => 1e-4,
        2 => (rng.unit_f64() * 0.05) as f32,
        _ => (rng.unit_f64() * -0.01) as f32,
    };
    let epochs = match rng.below(4) {
        0 => 0,
        1 => 1,
        _ => 2 + rng.below(24) as usize,
    };
    let cfg = TrainConfig {
        lambda,
        lr: (0.05 + rng.unit_f64() * 8.0) as f32,
        epochs,
        min_confidence: rng.unit_f64() as f32,
    };
    let mut held_out: Vec<SparseVec> = (0..6).map(|_| random_row(rng, dim)).collect();
    held_out.extend(pool.iter().cloned());
    assert_trainers_agree(&samples, n_classes, dim, &cfg, &held_out, ctx);
}

proptest! {
    #[test]
    fn generated_problems_match_reference(seed: u64) {
        generated_round(&mut TestRng::for_test(&seed.to_string()), &format!("seed {seed}"));
    }
}

/// The heavyweight sweep; run with `--include-ignored` in release CI.
#[test]
#[ignore = "heavyweight differential sweep; run in release CI"]
fn generated_problems_match_reference_deep() {
    let mut rng = TestRng::for_test("logreg/differential/deep");
    for round in 0..10_000 {
        generated_round(&mut rng, &format!("deep round {round}"));
    }
}

/// Every listed edge case at once, across class counts on both sides of
/// each vector width: an empty row, an entry past `dim`, a duplicate
/// row, a label past the class count, and classes with no positives.
#[test]
fn edge_cases_match_reference() {
    let dim = 6;
    let rows = [
        SparseVec::from_pairs(vec![(0, 0.5), (3, -1.0)]),
        SparseVec::default(),
        SparseVec::from_pairs(vec![(2, 1.0), (dim as u32 + 4, 2.0)]),
        SparseVec::from_pairs(vec![(0, -0.25), (2, 0.75), (5, 1.5)]),
    ];
    let labels = [0, 1, 2, 0, 99];
    let samples: Vec<(&SparseVec, usize)> = [0, 1, 2, 3, 0]
        .iter()
        .zip(labels)
        .map(|(&i, l)| (&rows[i], l))
        .collect();
    let held_out = vec![
        SparseVec::from_pairs(vec![(1, 1.0), (4, -1.0)]),
        SparseVec::from_pairs(vec![(dim as u32, 3.0)]),
        SparseVec::default(),
    ];
    for n_classes in [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 52, 64, 70] {
        for epochs in [0, 1, 7] {
            for lambda in [0.0, 1e-4, 0.2] {
                let cfg = TrainConfig {
                    lambda,
                    epochs,
                    ..TrainConfig::default()
                };
                let ctx = format!("{n_classes} classes, {epochs} epochs, lambda {lambda}");
                assert_trainers_agree(&samples, n_classes, dim, &cfg, &held_out, &ctx);
            }
        }
        // No samples at all.
        let cfg = TrainConfig::default();
        assert_trainers_agree(&[], n_classes, dim, &cfg, &held_out, "no samples");
    }
}

/// A pinned corpus shaped like attribution's: 52 campaign storefronts,
/// two training pages and one held-out page each, one shared dictionary.
#[test]
fn storefront_corpus_matches_reference() {
    let mut dict = Dictionary::new();
    let mut train = Vec::new();
    let mut held_out = Vec::new();
    for class in 0..52 {
        let template = StoreTemplate::for_campaign(&format!("C{class}"), 42);
        for seed in 0..3 {
            let html = home_page(&StoreCtx {
                domain: "x.com",
                store_name: "x",
                template: &template,
                brands: &["Chanel"],
                locale: "us",
                merchant_id: "m",
                seed,
            });
            let x = extract_features(&html, &mut dict, true);
            if seed < 2 {
                train.push((x, class));
            } else {
                held_out.push(x);
            }
        }
    }
    let samples: Vec<(&SparseVec, usize)> = train.iter().map(|(x, c)| (x, *c)).collect();
    let cfg = TrainConfig {
        epochs: if cfg!(debug_assertions) { 40 } else { 300 },
        ..TrainConfig::default()
    };
    assert_trainers_agree(
        &samples,
        52,
        dict.len(),
        &cfg,
        &held_out,
        "storefront corpus",
    );
}
