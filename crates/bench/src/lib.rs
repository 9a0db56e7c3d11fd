//! # ss-bench
//!
//! Benchmarks and the `repro` experiment harness.
//!
//! * `benches/substrates.rs` — Criterion microbenchmarks of the substrate
//!   layers the pipeline leans on per-page (HTML parsing, JS rendering,
//!   SERP generation, feature extraction, classifier training);
//! * `benches/pipeline.rs` — Criterion benchmarks of the measurement
//!   pipeline stages (Dagger, VanGogh, a full crawl day, purchase-pair
//!   estimation);
//! * `src/bin/repro.rs` — the experiment runner: one subcommand per table
//!   and figure of the paper, plus `all` to regenerate EXPERIMENTS.md.
//!
//! This crate's library surface is the shared scenario builders the
//! benches and the binary use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod manifest_diff;
pub mod serve;
pub mod trajectory;

use search_seizure::manifest::CalibrationTarget;
use search_seizure::{Study, StudyConfig, StudyOutput};
use ss_eco::{Scale, ScenarioConfig};

/// Named run presets for the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Tiny world, ~2-week crawl: seconds. Used by benches and smoke runs.
    Tiny,
    /// Small world, multi-month crawl: the default `repro` scale.
    Small,
    /// Paper-scale world and the full eight-month crawl window. Heavy —
    /// run in release.
    Paper,
    /// Stress scale, ~10× the paper's page volume. Proves the entity
    /// plane's headroom; calibration bands are warn-only (the paper's
    /// observables were measured at paper scale, not here).
    Mega,
}

impl Preset {
    /// Parses a preset name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "tiny" => Some(Preset::Tiny),
            "small" => Some(Preset::Small),
            "paper" => Some(Preset::Paper),
            "mega" => Some(Preset::Mega),
            _ => None,
        }
    }

    /// Builds the study configuration for this preset, including the
    /// calibration drift bands the run manifest evaluates.
    pub fn config(self, seed: u64) -> StudyConfig {
        let mut cfg = match self {
            Preset::Tiny => StudyConfig::fast_test(seed),
            Preset::Small => {
                let mut cfg = StudyConfig::new(ScenarioConfig::new(seed, Scale::small()));
                cfg.crawl_end = cfg.crawl_start + 110;
                cfg
            }
            Preset::Paper => StudyConfig::new(ScenarioConfig::paper(seed)),
            Preset::Mega => StudyConfig::new(ScenarioConfig::mega(seed)),
        };
        cfg.calibration = self.calibration_targets();
        cfg
    }

    /// Drift bands for the headline observables at this preset's scale.
    ///
    /// The `paper` column is the published value (Table 1 / Table 2 of
    /// the paper); the bands are about *this preset*: `ok` brackets the
    /// values healthy seeds produce, `fail` is the tripwire outside
    /// which the manifest marks the run `fail` and CI goes red. Between
    /// the two is `warn` — drifted, worth a look, not yet broken.
    pub fn calibration_targets(self) -> Vec<CalibrationTarget> {
        match self {
            // Tiny worlds are noisy; the bands only catch gross breakage
            // (e.g. the crawler or attribution silently going dark).
            Preset::Tiny => vec![
                CalibrationTarget::new(
                    "total_psrs",
                    2_773_044.0,
                    (1_500.0, 9_000.0),
                    (500.0, 20_000.0),
                ),
                CalibrationTarget::new("top5_campaign_share", 0.75, (0.35, 1.0), (0.15, 1.0)),
                CalibrationTarget::new("mean_peak_days", 51.3, (2.0, 14.0), (1.0, 20.0)),
            ],
            Preset::Small => vec![
                CalibrationTarget::new(
                    "total_psrs",
                    2_773_044.0,
                    (60_000.0, 160_000.0),
                    (30_000.0, 300_000.0),
                ),
                CalibrationTarget::new("top5_campaign_share", 0.75, (0.40, 0.90), (0.25, 1.0)),
                CalibrationTarget::new("mean_peak_days", 51.3, (35.0, 70.0), (20.0, 95.0)),
            ],
            Preset::Paper => vec![
                CalibrationTarget::new(
                    "total_psrs",
                    2_773_044.0,
                    (1_500_000.0, 4_500_000.0),
                    (800_000.0, 8_000_000.0),
                ),
                CalibrationTarget::new("top5_campaign_share", 0.75, (0.40, 0.90), (0.25, 1.0)),
                CalibrationTarget::new("mean_peak_days", 51.3, (35.0, 70.0), (20.0, 95.0)),
            ],
            // Mega is a throughput stress preset: the `ok` bands still
            // describe healthy runs (so the manifest can warn on drift),
            // but the fail tripwires are unbounded — nobody calibrated
            // the paper's observables at 10× scale, so CI must not go
            // red over them.
            Preset::Mega => vec![
                CalibrationTarget::new(
                    "total_psrs",
                    2_773_044.0,
                    (4_000_000.0, 40_000_000.0),
                    (f64::MIN, f64::MAX),
                ),
                CalibrationTarget::new(
                    "top5_campaign_share",
                    0.75,
                    (0.30, 0.95),
                    (f64::MIN, f64::MAX),
                ),
                CalibrationTarget::new("mean_peak_days", 51.3, (30.0, 75.0), (f64::MIN, f64::MAX)),
            ],
        }
    }

    /// Human description for report headers.
    pub fn describe(self, seed: u64) -> String {
        format!("{self:?} preset, seed {seed}")
    }
}

/// Runs a study for a preset (convenience for benches and the binary).
pub fn run_preset(preset: Preset, seed: u64) -> StudyOutput {
    Study::new(preset.config(seed))
        .run()
        .expect("study preset runs")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_parse_and_configure() {
        assert_eq!(Preset::parse("tiny"), Some(Preset::Tiny));
        assert_eq!(Preset::parse("paper"), Some(Preset::Paper));
        assert_eq!(Preset::parse("mega"), Some(Preset::Mega));
        assert_eq!(Preset::parse("huge"), None);
        let cfg = Preset::Small.config(1);
        assert!(cfg.crawl_end > cfg.crawl_start);
        // Every preset declares drift bands for the three headline
        // observables, and the bands nest (ok inside fail).
        for p in [Preset::Tiny, Preset::Small, Preset::Paper, Preset::Mega] {
            let targets = p.calibration_targets();
            assert_eq!(targets.len(), 3);
            for t in &targets {
                assert!(t.fail_lo <= t.ok_lo && t.ok_lo < t.ok_hi && t.ok_hi <= t.fail_hi);
            }
        }
    }
}
