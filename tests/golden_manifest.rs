//! Golden snapshot of the run manifest's deterministic half.
//!
//! A fixed-seed fast-test study must reproduce the checked-in headline
//! observables — PSR count, seizure-notice count, estimated orders per
//! campaign — and the deterministic metric registry, byte for byte. Any
//! behavioural drift in the crawl, the ecosystem, the sampler, or
//! attribution shows up here as a diff against
//! `tests/golden/manifest_small.json`.
//!
//! When a change *intends* to shift behaviour, regenerate the snapshot:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p search-seizure --test golden_manifest
//! ```
//!
//! then commit the updated JSON alongside the change. The golden file
//! deliberately excludes every wall-clock field (stage and cost timings,
//! per-day elapsed milliseconds): only what the run *did* is pinned, never how
//! fast it did it.

use search_seizure::{Study, StudyConfig};
use serde::{Serialize as _, Value};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/manifest_small.json"
);
const GOLDEN_SEED: u64 = 101;

/// The pinned projection: headline + deterministic metrics, no clocks.
fn golden_value() -> Value {
    golden_value_at_threads(1)
}

/// Same projection with every worker pool (crawl, tick, analysis scan)
/// pointed at `threads`.
fn golden_value_at_threads(threads: usize) -> Value {
    let mut cfg = StudyConfig::fast_test(GOLDEN_SEED);
    cfg.set_threads(threads);
    let out = Study::new(cfg).run().expect("study runs");
    Value::Map(vec![
        ("seed".into(), Value::UInt(GOLDEN_SEED)),
        (
            "window".into(),
            Value::Seq(vec![
                Value::UInt(u64::from(out.manifest.window.0)),
                Value::UInt(u64::from(out.manifest.window.1)),
            ]),
        ),
        ("headline".into(), out.manifest.headline.serialize()),
        ("metrics".into(), out.metrics.metrics_value()),
    ])
}

#[test]
fn manifest_matches_golden_snapshot() {
    let rendered = serde_json::to_string_pretty(&golden_value()).expect("manifest renders") + "\n";
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("write golden file");
        eprintln!("golden manifest regenerated at {GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!(
            "missing golden file {GOLDEN_PATH} ({e}); \
             regenerate with UPDATE_GOLDEN=1 cargo test --test golden_manifest"
        )
    });
    if rendered != golden {
        // Line-level first-diff beats dumping two multi-KB documents.
        let diff_line = rendered
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| format!("first diff at line {}: {a:?} vs golden {b:?}", i + 1))
            .unwrap_or_else(|| {
                format!(
                    "documents diverge in length: {} vs golden {} lines",
                    rendered.lines().count(),
                    golden.lines().count()
                )
            });
        panic!(
            "run manifest drifted from the golden snapshot ({diff_line}). \
             If the behaviour change is intentional, regenerate with \
             UPDATE_GOLDEN=1 cargo test --test golden_manifest and commit \
             the new {GOLDEN_PATH}."
        );
    }
}

/// Thread-count invariance, pinned to the same bytes: every worker pool
/// at 2 and at 8 threads must reproduce the golden projection exactly.
#[test]
fn golden_projection_is_bit_identical_across_thread_counts() {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        return; // the snapshot is being rewritten by the test above
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!(
            "missing golden file {GOLDEN_PATH} ({e}); \
             regenerate with UPDATE_GOLDEN=1 cargo test --test golden_manifest"
        )
    });
    for threads in [2usize, 8] {
        let rendered = serde_json::to_string_pretty(&golden_value_at_threads(threads))
            .expect("renders")
            + "\n";
        assert_eq!(
            rendered, golden,
            "golden projection diverged at {threads} threads"
        );
    }
}
