//! The query-plane client: a closed loop over published engine epochs.
//!
//! One client thread receives every epoch the study publishes, in order,
//! and sends a fixed quota of `EngineEpoch::ranked` queries to each before
//! it takes the next. Nothing about the load depends on the wall clock, so
//! the client's query count and first-touch count repeat exactly for a
//! seed.
//!
//! The key stream mixes two kinds of query, one first-touch key in every
//! `FIRST_TOUCH_EVERY` (12.5%), the rest repeats:
//! - a **first-touch** key is a `(term, day)` the client has not asked on
//!   this epoch, so it walks the postings;
//! - a **repeat** re-asks a key already touched on this epoch, so it hits
//!   the epoch's SERP cache.
//!
//! First-touch days start `DAY_OFFSET` days past the published day: the
//! tick planner queries only the day it ticks, so client keys never land
//! in cache entries the planner filled.

use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use std::time::Instant;

use search_seizure::pipeline::{DailyStage, DailyState, StageContext};
use ss_eco::World;
use ss_search::{EngineEpoch, RankedSerp};
use ss_types::rng::mix;
use ss_types::{SimDate, TermId};

use crate::cpu::thread_cpu_s;
use crate::report::quantile_us;
use crate::spans::{Spans, CLIENT};

/// One query in this many is a first-touch key; the rest are repeats.
const FIRST_TOUCH_EVERY: u64 = 8;
/// Every this-many-th served SERP is checked against an uncached walk.
const CHECK_EVERY: u64 = 50;
/// First-touch keys start this many days past the published day.
const DAY_OFFSET: u32 = 2;

/// An epoch as published after a day's tick.
pub type Published = (SimDate, Arc<EngineEpoch>);

/// The serve workload's daily stage: after each day's tick, publish the
/// engine's current epoch to the client. Blocks while the client is more
/// than one epoch behind, so at most two epochs are alive at once.
pub struct PublishStage {
    tx: SyncSender<Published>,
}

impl PublishStage {
    /// A stage publishing into `tx`.
    pub fn new(tx: SyncSender<Published>) -> Self {
        PublishStage { tx }
    }
}

impl DailyStage for PublishStage {
    fn name(&self) -> &'static str {
        "publish-epoch"
    }
    fn span_name(&self) -> &'static str {
        "stage.publish-epoch"
    }
    fn run(
        &self,
        _ctx: &StageContext<'_>,
        _state: &mut DailyState,
        world: &mut World,
        day: SimDate,
    ) {
        // A send fails only once the client has exited early; joining it
        // reports why.
        let _ = self.tx.send((day, world.engine.epoch()));
    }
}

/// What the client saw.
#[derive(Debug)]
pub struct ClientReport {
    /// Epochs served.
    pub epochs: u64,
    /// Queries sent.
    pub queries: u64,
    /// Queries on a first-touch key.
    pub first_touch: u64,
    /// Served SERPs compared with an uncached walk.
    pub checked: u64,
    /// Compared SERPs that differed from the uncached walk.
    pub mismatches: u64,
    /// CPU time the querying thread spent inside the query loops,
    /// seconds.
    pub busy_s: f64,
    /// Time spent waiting for the next epoch once the first arrived,
    /// seconds.
    pub wait_s: f64,
    /// Per-query latency of first-touch queries, nanoseconds.
    pub walk_ns: Vec<u64>,
    /// Per-query latency of repeat queries, nanoseconds.
    pub hit_ns: Vec<u64>,
    /// Per epoch: queries per busy CPU second and 99th-percentile
    /// latency.
    pub per_epoch: Vec<EpochStats>,
    /// One span per served epoch.
    pub spans: Spans,
}

impl ClientReport {
    fn new(origin: Instant, queries: u64) -> Self {
        let walks = queries.div_ceil(FIRST_TOUCH_EVERY) as usize;
        ClientReport {
            epochs: 0,
            queries: 0,
            first_touch: 0,
            checked: 0,
            mismatches: 0,
            busy_s: 0.0,
            wait_s: 0.0,
            walk_ns: Vec::with_capacity(walks),
            hit_ns: Vec::with_capacity(queries as usize - walks),
            per_epoch: Vec::new(),
            spans: Spans::new(origin, CLIENT),
        }
    }

    /// Median over epochs of each epoch's statistic. The median keeps a
    /// burst of interference in one epoch out of the figure.
    pub fn median_of(&self, stat: impl Fn(&EpochStats) -> f64) -> f64 {
        crate::report::median(self.per_epoch.iter().map(stat).collect())
    }
}

/// One epoch's serving figures.
#[derive(Debug, Clone, Copy)]
pub struct EpochStats {
    /// Queries per busy CPU second.
    pub qps: f64,
    /// 99th-percentile query latency, microseconds.
    pub p99_us: f64,
}

/// Serves every epoch `rx` delivers until the sender hangs up; `epochs`
/// sizes the latency buffers.
pub fn client(
    rx: Receiver<Published>,
    seed: u64,
    (epochs, quota): (u64, u64),
    depth: usize,
    origin: Instant,
) -> ClientReport {
    let mut report = ClientReport::new(origin, epochs * quota);
    // The wait for the first epoch is the study's set-up, not serving.
    let Ok((mut day, mut epoch)) = rx.recv() else {
        return report;
    };
    loop {
        serve_epoch(&mut report, &epoch, day, seed, quota, depth);
        let waited = Instant::now();
        let Ok(next) = rx.recv() else {
            break;
        };
        report.wait_s += waited.elapsed().as_secs_f64();
        (day, epoch) = next;
    }
    report
}

/// The studies' probe: `passes` rounds of `quota` queries on `world`'s
/// epoch, with no writer running. Each round's first-touch days lie past
/// the previous round's, so every round walks fresh keys.
pub fn probe(world: &World, seed: u64, passes: u64, quota: u64, origin: Instant) -> ClientReport {
    let mut report = ClientReport::new(origin, passes * quota);
    let epoch = world.engine.epoch();
    let depth = world.cfg.scale.serp_depth;
    let laps = quota
        .div_ceil(FIRST_TOUCH_EVERY)
        .div_ceil(epoch.term_count().max(1) as u64);
    for pass in 0..passes {
        let day = world.day + (pass * (laps + 1)) as u32;
        serve_epoch(&mut report, &epoch, day, seed, quota, depth);
    }
    report
}

fn thread_cpu() -> f64 {
    thread_cpu_s().expect("the thread CPU clock is readable")
}

fn serve_epoch(
    report: &mut ClientReport,
    epoch: &EngineEpoch,
    day: SimDate,
    seed: u64,
    quota: u64,
    depth: usize,
) {
    let index = report.epochs;
    report.epochs += 1;
    let terms = epoch.term_count().max(1) as u64;
    let first_term = mix(seed, index, u64::MAX) % terms;
    let mut touched: Vec<(TermId, SimDate)> =
        Vec::with_capacity(quota.div_ceil(FIRST_TOUCH_EVERY) as usize);
    let mut kept: Vec<(TermId, SimDate, RankedSerp)> = Vec::new();
    let span = report.spans.open("searchsim.client_epoch", None);
    let started = thread_cpu();
    let mut latencies: Vec<u64> = Vec::with_capacity(quota as usize);
    for i in 0..quota {
        let first = i % FIRST_TOUCH_EVERY == 0;
        let (term, qday) = if first {
            // Walk the terms from a seeded start, one day further per lap,
            // so no first-touch key repeats within the epoch.
            let j = touched.len() as u64;
            let key = (
                TermId::from_index(((first_term + j) % terms) as usize),
                day + (DAY_OFFSET + (j / terms) as u32),
            );
            touched.push(key);
            key
        } else {
            touched[(mix(seed, index, i) % touched.len() as u64) as usize]
        };
        let sent = Instant::now();
        let serp = epoch.ranked(term, qday, depth);
        let ns = sent.elapsed().as_nanos() as u64;
        latencies.push(ns);
        if first {
            report.walk_ns.push(ns);
        } else {
            report.hit_ns.push(ns);
        }
        if i % CHECK_EVERY == 0 {
            kept.push((term, qday, serp));
        } else {
            std::hint::black_box(serp.results().len());
        }
    }
    let busy = thread_cpu() - started;
    report.busy_s += busy;
    report.spans.close(span);
    latencies.sort_unstable();
    report.per_epoch.push(EpochStats {
        qps: quota as f64 / busy,
        p99_us: quantile_us(&latencies, 0.99),
    });
    report.queries += quota;
    report.first_touch += quota.div_ceil(FIRST_TOUCH_EVERY);
    for (term, qday, serp) in kept {
        report.checked += 1;
        if serp.results() != epoch.ranked_uncached(term, qday, depth).as_slice() {
            report.mismatches += 1;
        }
    }
}
