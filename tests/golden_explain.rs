//! Golden snapshot of a `repro explain` causal chain, plus the
//! thread-count determinism contract for the trace plane.
//!
//! The explain layer walks three planes at once (the persisted tick
//! event trail, the columnar PSR scan, and the attribution artifacts),
//! so its rendered chain is a sensitive integration probe: any drift in
//! intervention timing, doorway lifecycle, or attribution shows up as a
//! diff against `tests/golden/explain_small.txt`.
//!
//! When a change *intends* to shift behaviour, regenerate the snapshot:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p search-seizure --test golden_explain
//! ```
//!
//! The chain contains simulation dates only — never wall-clock — so the
//! snapshot is stable across machines and thread counts.

use std::sync::OnceLock;

use search_seizure::analysis::interventions;
use search_seizure::{explain, Study, StudyConfig, StudyOutput};
use ss_eco::domains::SiteKind;
use ss_obs::TraceLevel;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/explain_small.txt"
);
const GOLDEN_SEED: u64 = 101;

fn traced_run(threads: usize) -> StudyOutput {
    let mut cfg = StudyConfig::fast_test(GOLDEN_SEED);
    cfg.set_threads(threads);
    cfg.trace_level = TraceLevel::Event;
    Study::new(cfg).run().expect("study runs")
}

/// The serial traced run, shared by both tests in this binary.
fn shared_run() -> &'static StudyOutput {
    static RUN: OnceLock<StudyOutput> = OnceLock::new();
    RUN.get_or_init(|| traced_run(1))
}

/// The campaign behind the earliest seizure notice the crawler actually
/// observed — deterministic (sorted by observation day, then domain),
/// and guaranteed to overlap the intervention metrics Table 3 tabulates.
fn seized_campaign_name(out: &StudyOutput) -> String {
    let world = &out.world;
    let db = &out.crawler.db;
    let mut observed: Vec<(ss_types::SimDate, String)> = db
        .store_info
        .iter()
        .filter_map(|(id, info)| {
            info.seizure
                .as_ref()
                .map(|(day, _)| (*day, db.domains.resolve(*id).to_owned()))
        })
        .collect();
    observed.sort();
    let (_, name) = observed
        .first()
        .expect("the golden window observes at least one seizure notice");
    let dn = ss_types::DomainName::parse(name).expect("crawled domains parse");
    let did = world.domains.lookup(&dn).expect("crawled domain exists");
    match world.domains.get(did).kind {
        SiteKind::Storefront { store } => world
            .campaigns
            .row(world.store(store).campaign)
            .name
            .to_owned(),
        _ => panic!("seizure notice on a non-storefront domain"),
    }
}

#[test]
fn explain_chain_matches_golden_snapshot() {
    let out = shared_run();
    let name = seized_campaign_name(out);
    let chain = explain::explain_campaign(out, &name).expect("campaign resolves");
    let rendered = chain.render();

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("write golden file");
        eprintln!("golden explain chain regenerated at {GOLDEN_PATH}");
        return;
    }

    // Cross-checks against the intervention analyses the chain must
    // agree with (both read the same seizure/penalty planes).
    assert!(
        rendered.contains("filed a seizure case"),
        "seized campaign's chain lacks the case step:\n{rendered}"
    );
    let seizures = interventions::seizures(out);
    assert!(
        seizures.firms.iter().any(|f| rendered.contains(&f.firm)),
        "the filing firm in the chain must be one Table 3 tabulates:\n{rendered}"
    );
    let steps = chain.steps();
    assert!(
        steps.windows(2).all(|w| w[0].0 <= w[1].0),
        "chain steps must be chronological"
    );

    let golden = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
        panic!(
            "missing golden file {GOLDEN_PATH} ({e}); \
             regenerate with UPDATE_GOLDEN=1 cargo test --test golden_explain"
        )
    });
    if rendered != golden {
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
            "explain chain drifted from the golden snapshot ({diff_line}). \
             If the behaviour change is intentional, regenerate with \
             UPDATE_GOLDEN=1 cargo test --test golden_explain and commit \
             the new {GOLDEN_PATH}."
        );
    }
}

/// The deterministic record of the trace plane — the persisted event
/// trail — must be bit-identical no matter how many workers the crawl and
/// tick planes fan out to.
#[test]
fn event_trail_is_bit_identical_across_thread_counts() {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        return; // golden regeneration runs the snapshot test only
    }
    let base = shared_run();
    assert!(
        !base.world.event_trail.is_empty(),
        "traced run must retain an event trail"
    );
    for threads in [2usize, 8] {
        let out = traced_run(threads);
        assert_eq!(
            out.world.event_trail, base.world.event_trail,
            "persisted event trail diverged at {threads} threads"
        );
    }
}
