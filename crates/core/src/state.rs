//! The state plane at run level: [`RunState`], the versioned
//! [`RunCheckpoint`] container, and checkpoint file I/O.
//!
//! Every layer below this one already knows how to snapshot itself — the
//! world (ECS tables, keyed RNG streams, search engine, supplier ledger,
//! event log), the crawler (columnar PSR store, crawl database, JS
//! compile cache), and the telemetry registry's deterministic half. This
//! module composes those frames into one [`RunCheckpoint`]: everything
//! [`crate::Study::run`] needs to continue a run from a day boundary,
//! plus the orderlab programme state (sampler, transactions, AWStats
//! reports, purchased-store set) hand-encoded here because those types
//! live in `ss-orders` and their codec belongs to the run container.
//!
//! Deliberately *not* captured: wall-clock artifacts. The registry's wall
//! rows and timeline, and per-day `elapsed_ms` of days not yet run, are
//! how fast a run went, not what it did — a resumed run reproduces
//! every deterministic byte (headline, metrics, fingerprints) while its
//! wall-clock sections describe only the post-resume half.
//!
//! The semantic config hash stored in each checkpoint guards resumes: it
//! is the manifest config hash with every runtime-only knob (thread
//! counts, trace plane, output paths) normalized away, so a checkpoint
//! can be resumed at a different thread count — bit-identical output —
//! but not under a different scenario, crawl window, or sampler policy.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::Path;

use ss_crawl::crawler::Crawler;
use ss_crawl::terms::{MonitoredVertical, TermMethodology};
use ss_eco::World;
use ss_obs::{Registry, TraceLevel};
use ss_orders::analytics::ParsedReport;
use ss_orders::purchasepair::{MonitoredStore, OrderSample, OrderSampler, SamplerConfig};
use ss_orders::transactions::Transaction;
use ss_types::snapshot::{
    encode_framed, fold_fingerprint, Reader, Snapshot, SnapshotError, Writer,
};
use ss_types::SimDate;

use crate::manifest::{self, DayRecord};
use crate::pipeline::{DailyState, StudyConfig};

/// Errors from saving, loading, or applying a run checkpoint. Corrupted
/// or mismatched inputs always surface here — never as a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Filesystem failure reading or writing the checkpoint file.
    Io(String),
    /// The bytes failed frame validation or body decoding.
    Snapshot(SnapshotError),
    /// The checkpoint was written under a semantically different study
    /// configuration (different scenario, window, or programme knobs —
    /// thread counts, trace settings, and output paths don't count).
    ConfigMismatch {
        /// Semantic hash of the config attempting the resume.
        expected: u64,
        /// Semantic hash stored in the checkpoint.
        found: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O: {e}"),
            CheckpointError::Snapshot(e) => write!(f, "checkpoint frame: {e}"),
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different study config \
                 (semantic hash {found:016x}, this config is {expected:016x})"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<SnapshotError> for CheckpointError {
    fn from(e: SnapshotError) -> Self {
        CheckpointError::Snapshot(e)
    }
}

/// Run-plane options orthogonal to [`StudyConfig`]: where to resume from
/// and whether to drop checkpoints along the way. These are runtime
/// knobs, not study semantics — none of them participates in the config
/// hash, and enabling them changes no deterministic output byte.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Resume from this checkpoint file instead of building day 0.
    pub resume_from: Option<String>,
    /// Write a checkpoint every N crawl days (at the day boundary, after
    /// the day's stages ran). `None` or 0 disables checkpointing.
    pub checkpoint_every: Option<u32>,
    /// Directory for checkpoint files (`checkpoints` when unset).
    pub checkpoint_dir: Option<String>,
}

/// The manifest config hash over a *normalized* configuration: every
/// runtime-only knob — thread counts, the trace plane, output paths — is
/// pinned to its neutral value first. Two configs with equal semantic
/// hashes produce bit-identical deterministic output, so this is the
/// compatibility key stored in (and checked against) every checkpoint.
pub fn semantic_config_hash(cfg: &StudyConfig) -> u64 {
    let mut c = cfg.clone();
    c.tick_threads = 1;
    c.analysis_threads = 1;
    c.crawler.threads = 1;
    c.trace_level = TraceLevel::Off;
    c.crawler.trace = TraceLevel::Off;
    c.trace_path = None;
    c.manifest_path = None;
    manifest::config_hash(&c)
}

/// Fingerprint of the whole run's mutable state: the world fingerprint
/// folded with the search engine's and the PSR store's. The world hash
/// alone misses the measurement side — two runs could agree on the
/// simulation but diverge in what the crawler recorded; this covers both
/// planes.
pub fn run_fingerprint(world: &World, crawler: &Crawler) -> u64 {
    let mut h = world.state_fingerprint();
    h = fold_fingerprint(h, world.engine.state_fingerprint());
    fold_fingerprint(h, crawler.db.psrs.state_fingerprint())
}

/// The complete mutable state of a running study between day boundaries.
/// The daily driver borrows its fields; the only constructors are the
/// day-0 build and checkpoint restore, so there is no third way for run
/// state to come into existence.
pub struct RunState {
    /// The simulated world (including the search engine and its RNGs).
    pub world: World,
    /// The measurement programme's mutable state (crawler, sampler,
    /// transactions, AWStats, purchased set).
    pub daily: DailyState,
    /// Monitored term sets per vertical, fixed at crawl start.
    pub monitored: Vec<MonitoredVertical>,
    /// The run's telemetry registry (deterministic half checkpointed;
    /// wall rows and the timeline start empty on resume).
    pub obs: Registry,
    /// Per-day progress records accumulated so far.
    pub day_records: Vec<DayRecord>,
    /// The next day the driver will execute.
    pub next_day: SimDate,
}

impl RunState {
    /// Day-0 construction: builds the world, warms it to the eve of the
    /// crawl, selects monitored terms, and assembles an empty programme.
    pub fn build(cfg: &StudyConfig) -> ss_types::Result<RunState> {
        let obs = Registry::new();
        let mut world = World::build(cfg.scenario.clone())?;
        world.tick_threads = cfg.tick_threads;
        world.set_trace(cfg.trace_level);
        let start = cfg.crawl_start;
        let warmup = obs.span("study.warmup");
        world.run_until(start);
        let monitored =
            ss_crawl::terms::select_all(&world, start, cfg.monitored_terms, cfg.scenario.seed);
        drop(warmup);
        // Term selection probed the engine heavily; drain those queries
        // into the world registry now so a day-0 checkpoint (and every
        // later one) carries fully-settled query-plane counters.
        world.drain_engine_metrics();
        let daily = DailyState {
            crawler: Crawler::new(cfg.crawler.clone(), monitored.clone()),
            sampler: OrderSampler::new(cfg.sampler.clone()),
            transactions: Vec::new(),
            awstats: HashMap::new(),
            purchased: HashSet::new(),
        };
        Ok(RunState {
            world,
            daily,
            monitored,
            obs,
            day_records: Vec::new(),
            next_day: start + 1,
        })
    }

    /// Restores run state from a decoded checkpoint, validating that
    /// `cfg` is semantically the one the checkpoint was written under.
    /// Runtime-only knobs (thread counts) are re-applied from `cfg`; the
    /// trace plane keeps the state it was checkpointed with.
    pub fn restore(ckpt: RunCheckpoint, cfg: &StudyConfig) -> Result<RunState, CheckpointError> {
        let expected = semantic_config_hash(cfg);
        if ckpt.semantic_config_hash != expected {
            return Err(CheckpointError::ConfigMismatch {
                expected,
                found: ckpt.semantic_config_hash,
            });
        }
        let RunCheckpoint {
            semantic_config_hash: _,
            next_day,
            monitored,
            mut world,
            mut crawler,
            sampler,
            transactions,
            awstats,
            purchased,
            obs,
            day_records,
        } = ckpt;
        world.tick_threads = cfg.tick_threads;
        crawler.cfg.threads = cfg.crawler.threads;
        Ok(RunState {
            world,
            daily: DailyState {
                crawler,
                sampler,
                transactions,
                awstats,
                purchased,
            },
            monitored,
            obs,
            day_records,
            next_day,
        })
    }

    /// Fingerprint of this state's world + measurement planes.
    pub fn run_fingerprint(&self) -> u64 {
        run_fingerprint(&self.world, &self.daily.crawler)
    }

    /// Encodes this state as a [`RunCheckpoint`] frame without cloning
    /// any of the large structures.
    pub fn checkpoint_bytes(&self, cfg: &StudyConfig) -> Vec<u8> {
        let view = View {
            semantic_config_hash: semantic_config_hash(cfg),
            next_day: self.next_day,
            monitored: &self.monitored,
            world: &self.world,
            crawler: &self.daily.crawler,
            sampler: &self.daily.sampler,
            transactions: &self.daily.transactions,
            awstats: &self.daily.awstats,
            purchased: &self.daily.purchased,
            obs: &self.obs,
            day_records: &self.day_records,
        };
        encode_framed(RunCheckpoint::TAG, RunCheckpoint::VERSION, |w| {
            write_view(w, &view)
        })
    }
}

/// Writes `state` as a checkpoint file, creating parent directories.
/// Returns the frame size in bytes.
pub fn save_checkpoint(
    state: &RunState,
    cfg: &StudyConfig,
    path: &Path,
) -> Result<u64, CheckpointError> {
    let bytes = state.checkpoint_bytes(cfg);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| CheckpointError::Io(format!("{}: {e}", parent.display())))?;
        }
    }
    std::fs::write(path, &bytes)
        .map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))?;
    Ok(bytes.len() as u64)
}

/// Reads and decodes a checkpoint file. Every failure mode — missing
/// file, truncation, corruption, wrong tag or version — is a typed
/// [`CheckpointError`].
pub fn load_checkpoint(path: &Path) -> Result<RunCheckpoint, CheckpointError> {
    let bytes =
        std::fs::read(path).map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))?;
    Ok(RunCheckpoint::decode(&bytes)?)
}

/// A complete run captured at a day boundary: everything the daily
/// driver needs to continue, in one versioned frame. Decode one with
/// [`load_checkpoint`] (or [`Snapshot::decode`]), then either resume it
/// via [`crate::Study::resume`] or fork it — `world.shift_scripted_seizures`
/// on several decoded copies of the same bytes is how the intervention
/// sweep builds its arms.
pub struct RunCheckpoint {
    /// Semantic hash of the study config the run was started under.
    pub semantic_config_hash: u64,
    /// The next day the resumed driver will execute.
    pub next_day: SimDate,
    /// Monitored term sets per vertical (fixed at crawl start; *not*
    /// re-derivable from a later world).
    pub monitored: Vec<MonitoredVertical>,
    /// The simulated world.
    pub world: World,
    /// The crawler with its database, clean-set, and JS cache.
    pub crawler: Crawler,
    /// The purchase-pair sampler.
    pub sampler: OrderSampler,
    /// Completed real purchases.
    pub transactions: Vec<Transaction>,
    /// Collected AWStats reports per store domain.
    pub awstats: HashMap<String, Vec<ParsedReport>>,
    /// Stores already purchased from, by interned domain id.
    pub purchased: HashSet<u32>,
    /// The run's telemetry registry (deterministic half).
    pub obs: Registry,
    /// Per-day progress records of the days already run.
    pub day_records: Vec<DayRecord>,
}

/// Borrowed view of checkpoint fields, so the driver can encode a frame
/// from `&RunState` without cloning the world.
struct View<'a> {
    semantic_config_hash: u64,
    next_day: SimDate,
    monitored: &'a [MonitoredVertical],
    world: &'a World,
    crawler: &'a Crawler,
    sampler: &'a OrderSampler,
    transactions: &'a [Transaction],
    awstats: &'a HashMap<String, Vec<ParsedReport>>,
    purchased: &'a HashSet<u32>,
    obs: &'a Registry,
    day_records: &'a [DayRecord],
}

fn put_methodology(w: &mut Writer, m: TermMethodology) {
    w.put_u8(match m {
        TermMethodology::DoorwayExtraction => 0,
        TermMethodology::SuggestExpansion => 1,
    });
}

fn get_methodology(r: &mut Reader<'_>) -> Result<TermMethodology, SnapshotError> {
    Ok(match r.get_u8()? {
        0 => TermMethodology::DoorwayExtraction,
        1 => TermMethodology::SuggestExpansion,
        b => return Err(SnapshotError::Corrupt(format!("term methodology {b}"))),
    })
}

fn put_monitored_store(w: &mut Writer, m: &MonitoredStore) {
    w.put_str(&m.domain);
    w.put_str(&m.campaign_key);
    w.put_seq(&m.samples, |w, s| {
        w.put_date(s.day);
        w.put_u64(s.order_number);
    });
    w.put_opt(m.last_attempt.as_ref(), |w, d| w.put_date(*d));
}

fn get_monitored_store(r: &mut Reader<'_>) -> Result<MonitoredStore, SnapshotError> {
    Ok(MonitoredStore {
        domain: r.get_str()?,
        campaign_key: r.get_str()?,
        samples: r.get_seq(|r| {
            Ok(OrderSample {
                day: r.get_date()?,
                order_number: r.get_u64()?,
            })
        })?,
        last_attempt: r.get_opt(|r| r.get_date())?,
    })
}

fn put_sampler(w: &mut Writer, s: &OrderSampler) {
    w.put_u32(s.cfg.interval_days);
    // Scalar count, not a sequence length: raw u64 (see the codec docs).
    w.put_u64(s.cfg.per_campaign_per_day as u64);
    let mut domains: Vec<&String> = s.stores.keys().collect();
    domains.sort();
    w.put_seq(&domains, |w, d| put_monitored_store(w, &s.stores[*d]));
    w.put_u64(s.orders_created as u64);
}

fn get_sampler(r: &mut Reader<'_>) -> Result<OrderSampler, SnapshotError> {
    let cfg = SamplerConfig {
        interval_days: r.get_u32()?,
        per_campaign_per_day: r.get_u64()? as usize,
    };
    let rows = r.get_seq(get_monitored_store)?;
    let mut stores = HashMap::with_capacity(rows.len());
    for m in rows {
        if stores.insert(m.domain.clone(), m).is_some() {
            return Err(SnapshotError::Corrupt("duplicate sampler store".into()));
        }
    }
    Ok(OrderSampler {
        cfg,
        stores,
        orders_created: r.get_u64()? as usize,
    })
}

fn put_transaction(w: &mut Writer, t: &Transaction) {
    w.put_str(&t.store_domain);
    w.put_date(t.day);
    w.put_u64(t.order_number);
    w.put_str(&t.processor);
    w.put_str(&t.bank.0);
    w.put_str(&t.bank.1);
    w.put_str(&t.merchant_id);
}

fn get_transaction(r: &mut Reader<'_>) -> Result<Transaction, SnapshotError> {
    Ok(Transaction {
        store_domain: r.get_str()?,
        day: r.get_date()?,
        order_number: r.get_u64()?,
        processor: r.get_str()?,
        bank: (r.get_str()?, r.get_str()?),
        merchant_id: r.get_str()?,
    })
}

fn put_report(w: &mut Writer, rep: &ParsedReport) {
    w.put_str(&rep.period);
    w.put_u64(rep.visits);
    w.put_u64(rep.pages);
    w.put_seq(&rep.referrers, |w, (host, n)| {
        w.put_str(host);
        w.put_u64(*n);
    });
    w.put_u64(rep.direct_visits);
    w.put_seq(&rep.daily, |w, (day, visits, pages)| {
        w.put_date(*day);
        w.put_u64(*visits);
        w.put_u64(*pages);
    });
}

fn get_report(r: &mut Reader<'_>) -> Result<ParsedReport, SnapshotError> {
    Ok(ParsedReport {
        period: r.get_str()?,
        visits: r.get_u64()?,
        pages: r.get_u64()?,
        referrers: r.get_seq(|r| Ok((r.get_str()?, r.get_u64()?)))?,
        direct_visits: r.get_u64()?,
        daily: r.get_seq(|r| Ok((r.get_date()?, r.get_u64()?, r.get_u64()?)))?,
    })
}

fn put_day_record(w: &mut Writer, d: &DayRecord) {
    w.put_u32(d.day);
    w.put_u64(d.psrs);
    w.put_u64(d.test_orders);
    w.put_u64(d.purchases);
    w.put_f64(d.elapsed_ms);
}

fn get_day_record(r: &mut Reader<'_>) -> Result<DayRecord, SnapshotError> {
    Ok(DayRecord {
        day: r.get_u32()?,
        psrs: r.get_u64()?,
        test_orders: r.get_u64()?,
        purchases: r.get_u64()?,
        elapsed_ms: r.get_f64()?,
    })
}

fn write_view(w: &mut Writer, v: &View<'_>) {
    w.put_u64(v.semantic_config_hash);
    w.put_date(v.next_day);
    w.put_seq(v.monitored, |w, mv| {
        w.put_str(&mv.name);
        put_methodology(w, mv.methodology);
        w.put_seq(&mv.terms, |w, t| w.put_str(t));
    });
    w.put_nested(v.world);
    w.put_nested(v.crawler);
    put_sampler(w, v.sampler);
    w.put_seq(v.transactions, put_transaction);
    // HashMaps are written sorted by key so the frame is canonical:
    // re-encoding a decoded checkpoint reproduces it byte for byte.
    let mut awstats_keys: Vec<&String> = v.awstats.keys().collect();
    awstats_keys.sort();
    w.put_seq(&awstats_keys, |w, domain| {
        w.put_str(domain);
        w.put_seq(&v.awstats[*domain], put_report);
    });
    let mut purchased: Vec<u32> = v.purchased.iter().copied().collect();
    purchased.sort_unstable();
    w.put_seq(&purchased, |w, id| w.put_u32(*id));
    w.put_nested(v.obs);
    w.put_seq(v.day_records, put_day_record);
}

impl Snapshot for RunCheckpoint {
    const TAG: &'static str = "run-checkpoint";
    const VERSION: u16 = 1;

    fn write_body(&self, w: &mut Writer) {
        write_view(
            w,
            &View {
                semantic_config_hash: self.semantic_config_hash,
                next_day: self.next_day,
                monitored: &self.monitored,
                world: &self.world,
                crawler: &self.crawler,
                sampler: &self.sampler,
                transactions: &self.transactions,
                awstats: &self.awstats,
                purchased: &self.purchased,
                obs: &self.obs,
                day_records: &self.day_records,
            },
        );
    }

    fn read_body(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let semantic_config_hash = r.get_u64()?;
        let next_day = r.get_date()?;
        let monitored = r.get_seq(|r| {
            Ok(MonitoredVertical {
                name: r.get_str()?,
                methodology: get_methodology(r)?,
                terms: r.get_seq(|r| r.get_str())?,
            })
        })?;
        let world = r.get_nested()?;
        let crawler = r.get_nested()?;
        let sampler = get_sampler(r)?;
        let transactions = r.get_seq(get_transaction)?;
        let awstats_rows = r.get_seq(|r| Ok((r.get_str()?, r.get_seq(get_report)?)))?;
        let mut awstats = HashMap::with_capacity(awstats_rows.len());
        for (domain, reports) in awstats_rows {
            if awstats.insert(domain, reports).is_some() {
                return Err(SnapshotError::Corrupt("duplicate awstats domain".into()));
            }
        }
        let purchased_rows = r.get_seq(|r| r.get_u32())?;
        let mut purchased = HashSet::with_capacity(purchased_rows.len());
        for id in purchased_rows {
            if !purchased.insert(id) {
                return Err(SnapshotError::Corrupt("duplicate purchased store".into()));
            }
        }
        Ok(RunCheckpoint {
            semantic_config_hash,
            next_day,
            monitored,
            world,
            crawler,
            sampler,
            transactions,
            awstats,
            purchased,
            obs: r.get_nested()?,
            day_records: r.get_seq(get_day_record)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::StudyConfig;

    #[test]
    fn semantic_config_hash_ignores_runtime_knobs() {
        let base = StudyConfig::fast_test(7);
        let mut runtime = StudyConfig::fast_test(7);
        runtime.set_threads(8);
        runtime.set_trace(TraceLevel::Event);
        runtime.manifest_path = Some("elsewhere.json".into());
        runtime.trace_path = Some("trace.json".into());
        assert_eq!(semantic_config_hash(&base), semantic_config_hash(&runtime));
        // …but the raw manifest hash does see those knobs.
        assert_ne!(
            manifest::config_hash(&base),
            manifest::config_hash(&runtime)
        );
        // Semantic knobs still count.
        let mut other_seed = StudyConfig::fast_test(8);
        other_seed.set_threads(8);
        assert_ne!(
            semantic_config_hash(&base),
            semantic_config_hash(&other_seed)
        );
        let mut other_cap = StudyConfig::fast_test(7);
        other_cap.monitor_store_cap += 1;
        assert_ne!(
            semantic_config_hash(&base),
            semantic_config_hash(&other_cap)
        );
    }

    #[test]
    fn day_zero_checkpoint_roundtrips_canonically() {
        let cfg = StudyConfig::fast_test(91);
        let state = RunState::build(&cfg).expect("state builds");
        let fp = state.run_fingerprint();
        let bytes = state.checkpoint_bytes(&cfg);
        let ckpt = RunCheckpoint::decode(&bytes).expect("decodes");
        assert_eq!(ckpt.next_day, cfg.crawl_start + 1);
        assert_eq!(ckpt.monitored.len(), state.monitored.len());
        // The owned checkpoint re-encodes to the exact same frame: the
        // borrowed-view writer and the trait writer share one codec, and
        // every unordered container is serialized canonically.
        assert_eq!(ckpt.encode(), bytes);
        let restored = RunState::restore(ckpt, &cfg).expect("config matches");
        assert_eq!(restored.run_fingerprint(), fp);
        assert_eq!(restored.next_day, state.next_day);
    }

    #[test]
    fn restore_rejects_a_different_config() {
        let cfg = StudyConfig::fast_test(92);
        let state = RunState::build(&cfg).expect("state builds");
        let ckpt = RunCheckpoint::decode(&state.checkpoint_bytes(&cfg)).expect("decodes");
        let other = StudyConfig::fast_test(93);
        match RunState::restore(ckpt, &other) {
            Err(CheckpointError::ConfigMismatch { expected, found }) => {
                assert_eq!(expected, semantic_config_hash(&other));
                assert_eq!(found, semantic_config_hash(&cfg));
            }
            other => panic!("expected ConfigMismatch, got {:?}", other.err()),
        }
    }

    #[test]
    fn orderlab_codecs_roundtrip() {
        let mut sampler = OrderSampler::new(SamplerConfig::default());
        sampler.monitor("store-a.com", "KEY");
        sampler.monitor("store-b.com", "store-b.com");
        sampler
            .stores
            .get_mut("store-a.com")
            .expect("monitored")
            .samples
            .push(OrderSample {
                day: SimDate::from_day_index(140),
                order_number: 7_001,
            });
        sampler.orders_created = 3;
        let mut w = Writer::new();
        put_sampler(&mut w, &sampler);
        put_transaction(
            &mut w,
            &Transaction {
                store_domain: "store-a.com".into(),
                day: SimDate::from_day_index(141),
                order_number: 7_002,
                processor: "Global Payment Services".into(),
                bank: ("455623".into(), "Bank of Somewhere".into()),
                merchant_id: "M-77".into(),
            },
        );
        put_report(
            &mut w,
            &ParsedReport {
                period: "2013-12".into(),
                visits: 900,
                pages: 5_100,
                referrers: vec![("doorway.example.com".into(), 420)],
                direct_visits: 80,
                daily: vec![(SimDate::from_day_index(150), 31, 170)],
            },
        );
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let s2 = get_sampler(&mut r).expect("sampler");
        assert_eq!(s2.orders_created, 3);
        assert_eq!(s2.stores.len(), 2);
        assert_eq!(s2.stores["store-a.com"].campaign_key, "KEY");
        assert_eq!(s2.stores["store-a.com"].samples.len(), 1);
        let t2 = get_transaction(&mut r).expect("transaction");
        assert_eq!(t2.bank.1, "Bank of Somewhere");
        let rep2 = get_report(&mut r).expect("report");
        assert_eq!(rep2.referrers[0].1, 420);
        assert_eq!(rep2.daily[0].2, 170);
        assert_eq!(r.remaining(), 0);
    }
}
