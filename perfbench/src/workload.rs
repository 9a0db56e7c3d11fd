//! The workloads and their untraced run.
//!
//! Every workload runs the program's own entry point, `Study::run_with`,
//! with one checkpoint in the middle of its window; then it loads that
//! checkpoint and restores it. `serve` queries while its study runs; the
//! studies probe the restored index afterwards, as a server restarted
//! from the checkpoint would serve it.
//! The workloads differ in scale, horizon, threads and query load:
//!
//! | workload       | preset | window      | threads        | queries                       |
//! |----------------|--------|-------------|----------------|-------------------------------|
//! | `study-small`  | small  | 110 days    | 2              | a probe of the restored index |
//! | `paper-window` | paper  | 2 days      | 1              | a probe of the restored index |
//! | `serve`        | paper  | 30 days     | 1 + the client | a fixed quota per epoch, live |
//!
//! `serve` replaces the five daily stages with one that publishes each
//! day's engine epoch to a client thread, so its "study" is a paper world
//! warmed to the crawl start and then ticked day by day under query load.

use std::path::{Path, PathBuf};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use search_seizure::pipeline::{DailyStage, DailyState, StageContext};
use search_seizure::{state, RunOptions, RunState, Study, StudyConfig, StudyOutput};
use ss_bench::Preset;
use ss_eco::World;
use ss_types::SimDate;

use crate::cpu::{process_cpu_s, thread_cpu_s};
use crate::serve::{self, ClientReport, PublishStage};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The small preset's full 110-day study on two threads: the scale
    /// `repro all` runs by default. Warm daily crawls and attribution.
    StudySmall,
    /// The paper preset over a short crawl window on one thread: world
    /// build, a cold crawl, attribution over paper-scale stores and a
    /// paper-scale checkpoint.
    PaperWindow,
    /// A paper world ticked day by day while a client queries each
    /// published epoch: the only workload where `searchsim` leads.
    Serve,
}

/// The world `study-small` runs: the seed `repro` uses by default. Small
/// worlds differ too much in size from seed to seed for a steady figure
/// (seeds 13 and 14 differ by 11% in fetches and 41% in crawl
/// allocations), so `--seed` varies only this workload's query stream.
pub const STUDY_SMALL_WORLD: u64 = 2014;
/// Crawl days of `paper-window`; its checkpoint lands after the first.
pub const PAPER_WINDOW_DAYS: u32 = 2;
/// Days `serve` ticks, publishing one epoch after each.
pub const SERVE_DAYS: u32 = 30;
/// Client queries per published epoch in `serve`, and per pass of the
/// studies' probe.
pub const QUOTA: u64 = 20_000;
/// Passes of the studies' probe, each on fresh first-touch keys.
pub const PROBE_PASSES: u64 = 30;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::StudySmall, Workload::PaperWindow, Workload::Serve];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StudySmall => "study-small",
            Workload::PaperWindow => "paper-window",
            Workload::Serve => "serve",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The preset the workload runs at.
    pub fn preset(self) -> Preset {
        match self {
            Workload::StudySmall => Preset::Small,
            Workload::PaperWindow | Workload::Serve => Preset::Paper,
        }
    }
}

/// One workload's inputs, made from a preset and a seed.
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The study configuration.
    pub cfg: StudyConfig,
    /// Checkpoint cadence in days; exactly one checkpoint lands in the
    /// window, at [`Plan::checkpoint_day`].
    pub checkpoint_every: u32,
    /// Seed of the client's query stream.
    pub stream_seed: u64,
}

impl Plan {
    /// The workload at its own preset.
    pub fn new(workload: Workload, seed: u64) -> Plan {
        Plan::at(workload, workload.preset(), seed)
    }

    /// The workload's shape at another preset (tests run it at `tiny`).
    pub fn at(workload: Workload, preset: Preset, seed: u64) -> Plan {
        let world = match workload {
            Workload::StudySmall => STUDY_SMALL_WORLD,
            Workload::PaperWindow | Workload::Serve => seed,
        };
        let mut cfg = preset.config(world);
        cfg.manifest_path = None;
        match workload {
            Workload::StudySmall => cfg.set_threads(2),
            Workload::PaperWindow => {
                shorten(&mut cfg, PAPER_WINDOW_DAYS);
                cfg.set_threads(1);
            }
            Workload::Serve => {
                shorten(&mut cfg, SERVE_DAYS);
                cfg.set_threads(1);
            }
        }
        let days = cfg.crawl_end.days_since(cfg.crawl_start) as u32;
        assert!(days >= 2, "a mid-window checkpoint needs at least two days");
        Plan {
            workload,
            checkpoint_every: days.div_ceil(2),
            stream_seed: seed,
            cfg,
        }
    }

    /// Crawl days in the window (epochs published, for `serve`).
    pub fn days(&self) -> u32 {
        self.cfg.crawl_end.days_since(self.cfg.crawl_start) as u32
    }

    /// The day after which the checkpoint is written.
    pub fn checkpoint_day(&self) -> SimDate {
        self.cfg.crawl_start + self.checkpoint_every
    }

    /// The studies' probe of `world`'s index.
    pub fn probe(&self, world: &World) -> ClientReport {
        serve::probe(world, self.stream_seed, PROBE_PASSES, QUOTA, Instant::now())
    }

    /// Whether a client queries while the study runs (`serve`).
    pub fn live(&self) -> bool {
        self.workload == Workload::Serve
    }

    /// Runs `drive` with the workload's daily programme: the default five
    /// stages, or for `serve` a publish stage feeding a client thread that
    /// runs alongside. `drive` must drop the stages before it returns.
    pub fn with_programme<T>(
        &self,
        origin: Instant,
        drive: impl FnOnce(Vec<Box<dyn DailyStage>>) -> T,
    ) -> (T, Option<Result<ClientReport, String>>) {
        if !self.live() {
            return (drive(Study::default_schedule()), None);
        }
        let (tx, rx) = sync_channel(1);
        let (seed, depth) = (self.stream_seed, self.cfg.scenario.scale.serp_depth);
        let load = (u64::from(self.days()), QUOTA);
        std::thread::scope(|s| {
            let client = s.spawn(move || serve::client(rx, seed, load, depth, origin));
            let out = drive(vec![Box::new(PublishStage::new(tx))]);
            let report = client.join().map_err(|p| panic_text(&*p));
            (out, Some(report))
        })
    }
}

/// Shortens the crawl window to `days`, and the simulated horizon with
/// it, the way `paper_smoke --days` does.
fn shorten(cfg: &mut StudyConfig, days: u32) {
    cfg.crawl_end = cfg.crawl_start + days;
    cfg.scenario.scale.end_day = cfg
        .scenario
        .scale
        .end_day
        .min(cfg.crawl_end.day_index() + 10);
}

/// The text of a caught panic.
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_owned())
}

/// A no-op first stage that notes the process CPU time when the daily
/// programme starts: the end of set-up, read from the measured run
/// itself.
struct SetupMarker(Arc<OnceLock<Option<f64>>>);

impl DailyStage for SetupMarker {
    fn name(&self) -> &'static str {
        "setup-marker"
    }
    fn span_name(&self) -> &'static str {
        "stage.setup-marker"
    }
    fn run(&self, _: &StageContext<'_>, _: &mut DailyState, _: &mut World, _: SimDate) {
        self.0.get_or_init(process_cpu_s);
    }
}

const NO_CLOCK: &str = "the CPU clock is unreadable";

/// What one untraced study measured. Times are CPU seconds (see
/// [`crate::cpu`]); the wall clock is kept for the log.
pub struct Pass {
    /// The study's outputs.
    pub out: StudyOutput,
    /// Config to the first daily stage: world build, warm-up, term
    /// selection and the first day's tick.
    pub setup_s: f64,
    /// `Study::run_with` until it returned.
    pub study_s: f64,
    /// Wall clock of `Study::run_with`, seconds.
    pub study_wall_s: f64,
    /// The client that queried while the study ran (`serve`).
    pub live: Option<ClientReport>,
    /// The mid-window checkpoint file.
    pub checkpoint: PathBuf,
}

/// Runs the workload's study once, untraced, checkpointing into `dir`
/// (which must be empty).
pub fn run_study(plan: &Plan, dir: &Path) -> Result<Pass, String> {
    let ready: Arc<OnceLock<Option<f64>>> = Arc::default();
    let opts = RunOptions {
        resume_from: None,
        checkpoint_every: Some(plan.checkpoint_every),
        checkpoint_dir: Some(dir.to_string_lossy().into_owned()),
    };
    let cpu0 = process_cpu_s().ok_or(NO_CLOCK)?;
    let origin = Instant::now();
    let ((out, cpu1, study_wall_s), live) = plan.with_programme(origin, |programme| {
        let mut stages: Vec<Box<dyn DailyStage>> = vec![Box::new(SetupMarker(Arc::clone(&ready)))];
        stages.extend(programme);
        let out = Study::with_schedule(plan.cfg.clone(), stages).run_with(opts);
        (out, process_cpu_s(), origin.elapsed().as_secs_f64())
    });
    let out = out.map_err(|e| e.to_string())?;
    let ready = ready
        .get()
        .ok_or("the daily programme never started")?
        .ok_or(NO_CLOCK)?;
    let live = live.transpose().map_err(|e| format!("serve client: {e}"))?;
    Ok(Pass {
        checkpoint: only_file(dir)?,
        out,
        setup_s: ready - cpu0,
        study_s: cpu1.ok_or(NO_CLOCK)? - cpu0,
        study_wall_s,
        live,
    })
}

fn only_file(dir: &Path) -> Result<PathBuf, String> {
    let files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    match <[PathBuf; 1]>::try_from(files) {
        Ok([one]) => Ok(one),
        Err(files) => Err(format!(
            "expected one checkpoint in {}, found {}",
            dir.display(),
            files.len()
        )),
    }
}

/// The study's output checks; each entry is one failed check.
pub fn check_output(plan: &Plan, out: &StudyOutput) -> Vec<String> {
    let mut failures = Vec::new();
    let passes = out.metrics.counter_total("analysis.passes");
    if passes != 1 {
        failures.push(format!("analysis.passes is {passes}, want 1"));
    }
    if plan.workload == Workload::StudySmall {
        for c in &out.manifest.calibration {
            if c.status == "fail" {
                failures.push(format!(
                    "calibration {} is fail ({:?})",
                    c.observable, c.measured
                ));
            }
        }
    }
    failures
}

/// Checks that the client sent its whole quota to every epoch.
pub fn check_client(plan: &Plan, client: &ClientReport) -> Result<(), String> {
    let epochs = if plan.live() {
        u64::from(plan.days())
    } else {
        PROBE_PASSES
    };
    if client.epochs == epochs && client.queries == epochs * QUOTA {
        Ok(())
    } else {
        Err(format!(
            "client served {} queries over {} epochs, want {} over {epochs}",
            client.queries,
            client.epochs,
            epochs * QUOTA
        ))
    }
}

/// Loads the checkpoint and restores run state from it, checking that it
/// resumes at the day after the checkpoint. Returns the state and the
/// CPU seconds taken (the round trip runs on the calling thread).
pub fn resume(plan: &Plan, checkpoint: &Path) -> Result<(RunState, f64), String> {
    let cpu0 = thread_cpu_s().ok_or(NO_CLOCK)?;
    let frame = state::load_checkpoint(checkpoint).map_err(|e| e.to_string())?;
    let restored = RunState::restore(frame, &plan.cfg).map_err(|e| e.to_string())?;
    let resume_s = thread_cpu_s().ok_or(NO_CLOCK)? - cpu0;
    let want = plan.checkpoint_day() + 1;
    if restored.next_day != want {
        return Err(format!(
            "restored state resumes at day {}, want {}",
            restored.next_day.day_index(),
            want.day_index()
        ));
    }
    Ok((restored, resume_s))
}
