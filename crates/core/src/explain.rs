//! Causal provenance queries over a finished study run.
//!
//! The paper's core contribution is *attribution over time*: when a
//! campaign was penalized or seized, how long it took to react, and why
//! a given poisoned search result appeared. This module answers those
//! questions after the fact by walking three data planes together:
//!
//! * the **persisted tick-plane event log** (`World::event_trail`,
//!   retained behind the [`StudyConfig`](crate::StudyConfig)
//!   `trace_level` flag) — the ground-truth interventions in commit
//!   order;
//! * the **columnar PSR store** plus the doorway/store/seizure indices
//!   of the crawl database — what the measurement apparatus observed,
//!   queried through the shared [`Aggregator`]/[`run_scan`] machinery;
//! * the **attribution artifacts** — which campaign the classifier
//!   blamed.
//!
//! Each query returns a [`CausalChain`]: dated steps sorted
//! chronologically (creation → doorway planted → PSR surfaced →
//! penalty/seizure → reaction). The rendering is deterministic for a
//! given run, so `repro explain` output can be golden-tested.

use ss_crawl::db::{ColumnView, PsrRecord};
use ss_eco::domains::SiteKind;
use ss_eco::events::Event;
use ss_eco::CampaignRow;
use ss_eco::{World, WorldEvent};
use ss_types::{DomainName, SimDate, StoreId};

use crate::analysis::scan::{run_scan, Aggregator};
use crate::pipeline::StudyOutput;

/// Detail steps of one kind shown in full before summarizing the rest.
const DETAIL_CAP: usize = 10;

/// A chronological causal chain: dated steps plus a title.
#[derive(Debug, Clone)]
pub struct CausalChain {
    /// What the chain explains.
    pub title: String,
    steps: Vec<(SimDate, String)>,
}

impl CausalChain {
    fn new(title: String) -> Self {
        CausalChain {
            title,
            steps: Vec::new(),
        }
    }

    fn push(&mut self, day: SimDate, text: String) {
        self.steps.push((day, text));
    }

    /// The steps, sorted chronologically (stable: same-day steps keep
    /// insertion order).
    pub fn steps(&self) -> Vec<(SimDate, String)> {
        let mut steps = self.steps.clone();
        steps.sort_by_key(|(day, _)| *day);
        steps
    }

    /// Renders the chain as dated lines, oldest first.
    pub fn render(&self) -> String {
        let mut out = format!("== {} ==\n", self.title);
        for (day, text) in self.steps() {
            out.push_str(&format!("{day}  {text}\n"));
        }
        out
    }
}

/// Resolves a campaign key — an exact campaign name, a dense index, or
/// `campaign#N` — against the world's ground truth.
fn campaign_by_key<'a>(world: &'a World, key: &str) -> Option<(usize, CampaignRow<'a>)> {
    if let Some(c) = world.campaigns.iter().find(|c| c.name == key) {
        return Some((c.id.index(), c));
    }
    let idx: usize = key.strip_prefix("campaign#").unwrap_or(key).parse().ok()?;
    world.campaigns.get(idx).map(|c| (idx, c))
}

/// Resolves a campaign's store id set once (rotations and seizures are
/// keyed by store, not campaign).
fn campaign_stores(c: CampaignRow<'_>) -> Vec<StoreId> {
    c.stores.to_vec()
}

/// Explains one campaign end to end: creation and activity windows
/// (ground-truth event log), doorways planted, PSRs surfaced
/// (measurement), penalties and seizures (persisted tick-plane events),
/// and the campaign's reactions.
pub fn explain_campaign(out: &StudyOutput, key: &str) -> Option<CausalChain> {
    let world = &out.world;
    let (ci, c) = campaign_by_key(world, key)?;
    let mut chain = CausalChain::new(format!(
        "campaign {} ({}, {})",
        c.name,
        c.id,
        if c.classified {
            "classified"
        } else {
            "shadow tail"
        }
    ));

    // Creation: activity windows from the ground-truth event log.
    for ev in world.events.all() {
        if let Event::CampaignActive { campaign, from, to } = ev {
            if *campaign == c.id {
                chain.push(
                    *from,
                    format!("campaign created/active: window {from} → {to}"),
                );
            }
        }
    }

    // Doorways planted (ground truth), capped with a summary tail.
    let mut planted: Vec<(SimDate, String)> = c
        .doorways
        .iter()
        .map(|d| {
            (
                d.live_from,
                format!(
                    "doorway {} planted (vertical {}, → {})",
                    world.domains.get(d.domain).name,
                    d.vertical,
                    d.target_store
                ),
            )
        })
        .collect();
    planted.sort();
    let extra = planted.len().saturating_sub(DETAIL_CAP);
    if let Some((last_day, _)) = planted.last().cloned() {
        for (day, text) in planted.into_iter().take(DETAIL_CAP) {
            chain.push(day, text);
        }
        if extra > 0 {
            chain.push(last_day, format!("… and {extra} more doorways planted"));
        }
    }

    // Measurement: the attributed PSR series from the shared scan.
    if let Some(class) = out.attribution.class_index(c.name) {
        let cs = &out.scan.classes[class];
        if let Some((first, _)) = cs.daily.observed().next() {
            chain.push(
                first,
                format!(
                    "first PSR attributed to this campaign surfaced (class {class}, {} PSRs over the run)",
                    cs.psrs
                ),
            );
        }
        let series = dense_class_series(out, class);
        if let Some(peak) = ss_stats::peak::peak_range(&series, 0.6) {
            chain.push(
                peak.from,
                format!(
                    "PSR volume entered its peak range ({} days, {:.0}% of mass, through {})",
                    peak.days,
                    peak.mass * 100.0,
                    peak.to
                ),
            );
        }
    } else {
        chain.push(
            c.windows.first().map(|w| w.from).unwrap_or(world.day),
            "attribution never formed a class for this campaign".to_owned(),
        );
    }

    // Interventions and reactions from the persisted tick-plane log.
    let stores = campaign_stores(c);
    let mut penalties = 0usize;
    let mut shown_penalties = 0usize;
    let mut last_penalty = None;
    for t in &world.event_trail {
        match &t.event {
            WorldEvent::PenalizeDoorway { domain, labeled } => {
                let Some((owner, _)) = world.doorway_truth(*domain) else {
                    continue;
                };
                if owner.index() != ci {
                    continue;
                }
                penalties += 1;
                last_penalty = Some(t.day);
                if shown_penalties < DETAIL_CAP {
                    shown_penalties += 1;
                    chain.push(
                        t.day,
                        format!(
                            "search engine penalized doorway {} (hacked label: {labeled})",
                            world.domains.get(*domain).name
                        ),
                    );
                }
            }
            WorldEvent::FileCase {
                firm,
                brand,
                targets,
                bulk,
            } => {
                let ours: Vec<&ss_types::DomainId> = targets
                    .iter()
                    .filter(|d| match world.domains.get(**d).kind {
                        SiteKind::Storefront { store } => stores.contains(&store),
                        _ => false,
                    })
                    .collect();
                if ours.is_empty() {
                    continue;
                }
                let names: Vec<String> = ours
                    .iter()
                    .map(|d| world.domains.get(**d).name.to_string())
                    .collect();
                chain.push(
                    t.day,
                    format!(
                        "{} filed a seizure case for brand {} naming {} (+{bulk} bulk domains)",
                        world.firms[firm.index()].name,
                        world.brand_names[brand.index()],
                        names.join(", ")
                    ),
                );
            }
            WorldEvent::Rotate { store, reactive } => {
                if !stores.contains(store) {
                    continue;
                }
                // The ground-truth event log has the from/to domains.
                let detail = world
                    .events
                    .rotations_of(*store)
                    .into_iter()
                    .find(|(d, _, _, r)| **d == t.day && *r == *reactive)
                    .map(|(_, from, to, _)| {
                        format!(
                            "{} → {}",
                            world.domains.get(*from).name,
                            world.domains.get(*to).name
                        )
                    })
                    .unwrap_or_else(|| "folded (backup pool exhausted)".to_owned());
                chain.push(
                    t.day,
                    format!(
                        "campaign reacted: rotated {store} ({detail}, {})",
                        if *reactive {
                            format!("reactive, {}d after seizure", c.reaction_days)
                        } else {
                            "scripted-proactive".to_owned()
                        }
                    ),
                );
            }
            _ => {}
        }
    }
    if penalties > shown_penalties {
        chain.push(
            last_penalty.expect("penalties counted"),
            format!(
                "… {} penalties total on this campaign's doorways",
                penalties
            ),
        );
    }
    if world.event_trail.is_empty() {
        chain.push(
            world.day,
            "(tick event trail empty — run with tracing enabled for intervention provenance)"
                .to_owned(),
        );
    }

    // Crawler-observed seizures on this campaign's stores (measurement).
    let db = &out.crawler.db;
    for store in &stores {
        for (_, domain) in world.store(*store).domain_history {
            let name = world.domains.get(*domain).name.to_string();
            let Some(id) = db.domains.get(&name) else {
                continue;
            };
            if let Some((obs_day, notice)) = db.store_info.get(&id).and_then(|s| s.seizure.as_ref())
            {
                chain.push(
                    *obs_day,
                    format!(
                        "crawler observed the seizure notice on {name} (case {}, firm {})",
                        notice.case_id, notice.firm
                    ),
                );
            }
        }
    }

    Some(chain)
}

/// Dense per-class daily PSR series over the run window (the same shape
/// `analysis::campaign_psr_series` feeds to `peak_range`).
fn dense_class_series(out: &StudyOutput, class: usize) -> ss_stats::series::DailySeries {
    let (start, end) = out.window;
    let mut s = ss_stats::series::DailySeries::new(start, end);
    for day in SimDate::range_inclusive(start, end) {
        s.set(day, 0.0);
    }
    for (day, v) in out.scan.classes[class].daily.observed() {
        s.add(day, v);
    }
    s
}

/// Explains one store domain: detection, the PSRs that funneled into it,
/// attribution, the observed seizure, ground truth, and successors.
pub fn explain_store(out: &StudyOutput, domain: &str) -> Option<CausalChain> {
    let world = &out.world;
    let db = &out.crawler.db;
    let id = db.domains.get(domain)?;
    let info = db.store_info.get(&id)?;
    let mut chain = CausalChain::new(format!("store domain {domain}"));

    chain.push(
        info.first_seen,
        format!(
            "crawler first resolved a doorway landing here ({})",
            if info.is_store {
                "detected as a storefront"
            } else {
                "never confirmed as a storefront"
            }
        ),
    );
    if let Some(l) = out.scan.landings.get(&id) {
        if let Some((first, _)) = l.daily.observed().next() {
            chain.push(
                first,
                format!(
                    "PSRs began landing on this store ({:.0} PSR-days of traffic funnel over the run)",
                    l.daily.sum()
                ),
            );
        }
    }
    if let Some(Some(class)) = out.attribution.store_class.get(&id) {
        let name = &out.attribution.class_names[*class];
        chain.push(
            info.first_seen,
            format!("attribution assigned this store to campaign {name} (class {class})"),
        );
    }

    // Ground truth half: the registry knows the real store behind it.
    if let Ok(dn) = DomainName::parse(domain) {
        if let Some(did) = world.domains.lookup(&dn) {
            let rec = world.domains.get(did);
            if let SiteKind::Storefront { store } = rec.kind {
                let st = world.store(store);
                chain.push(
                    st.domain_history
                        .first()
                        .map(|(d, _)| *d)
                        .unwrap_or(world.day),
                    format!(
                        "ground truth: serves {store} of campaign {}",
                        world.campaigns.row(st.campaign).name
                    ),
                );
                for (day, from, to, reactive) in world.events.rotations_of(store) {
                    chain.push(
                        *day,
                        format!(
                            "store rotated {} → {} ({})",
                            world.domains.get(*from).name,
                            world.domains.get(*to).name,
                            if reactive {
                                "reacting to seizure"
                            } else {
                                "proactive"
                            }
                        ),
                    );
                }
            }
            if let Some(seizure) = rec.seized {
                chain.push(
                    seizure.day,
                    format!(
                        "ground truth: domain seized by court order (case {}, firm {})",
                        seizure.case,
                        world.firms[seizure.firm.index()].name
                    ),
                );
            }
        }
    }
    if let Some((obs_day, notice)) = &info.seizure {
        chain.push(
            *obs_day,
            format!(
                "crawler observed the seizure notice (case {}, firm {}, brand {})",
                notice.case_id, notice.firm, notice.brand
            ),
        );
    }
    Some(chain)
}

/// Finds PSR rows at `(day, rank)` — a one-pass query through the same
/// sharded scan machinery every analysis uses.
struct PsrProbe {
    day: SimDate,
    rank: u8,
    rows: Vec<PsrRecord>,
}

impl Aggregator for PsrProbe {
    type Output = Vec<PsrRecord>;
    fn observe(&mut self, cols: &ColumnView<'_>, row: usize) {
        if cols.day[row] == self.day && cols.rank[row] == self.rank {
            self.rows.push(cols.record(row));
        }
    }
    fn merge(&mut self, other: Self) {
        self.rows.extend(other.rows);
    }
    fn finish(self) -> Self::Output {
        self.rows
    }
}

/// Explains why PSRs appeared at `(day, rank)`: the matching rows, then
/// the full provenance of the first match — doorway first-sighting,
/// cloaking verdict, landing history, attribution, and ground truth.
pub fn explain_psr(out: &StudyOutput, day_index: u32, rank: u8) -> Option<CausalChain> {
    let world = &out.world;
    let db = &out.crawler.db;
    let day = SimDate::from_day_index(day_index);
    let rows = run_scan(&db.psrs, 1, &out.metrics, || PsrProbe {
        day,
        rank,
        rows: Vec::new(),
    });
    let first = *rows.first()?;
    let mut chain = CausalChain::new(format!(
        "PSR at rank {rank} on {day} ({} match{})",
        rows.len(),
        if rows.len() == 1 { "" } else { "es" }
    ));
    for r in rows.iter().take(DETAIL_CAP) {
        chain.push(
            day,
            format!(
                "psr: term {:?} → {} (root={}, labeled={})",
                db.terms.resolve(r.term),
                db.domains.resolve(r.domain),
                r.is_root,
                r.labeled
            ),
        );
    }

    let name = db.domains.resolve(first.domain).to_owned();
    if let Some(info) = db.doorway_info.get(&first.domain) {
        chain.push(
            info.first_seen,
            format!(
                "doorway {name} first seen and confirmed cloaking ({:?})",
                info.cloak
            ),
        );
        for (d, landing) in info.landings.iter().take(DETAIL_CAP) {
            chain.push(
                *d,
                format!(
                    "doorway landing resolved to {}",
                    db.domains.resolve(*landing)
                ),
            );
        }
        if let Some((first_labeled, _)) = info.label_seen {
            chain.push(
                first_labeled,
                format!("hacked label first observed on {name}"),
            );
        }
    }
    if let Some(landing) = first.landing {
        if let Some(Some(class)) = out.attribution.store_class.get(&landing) {
            chain.push(
                day,
                format!(
                    "landing store {} attributed to campaign {}",
                    db.domains.resolve(landing),
                    out.attribution.class_names[*class]
                ),
            );
        }
    }
    // Ground truth: who planted it and whether it was penalized.
    if let Ok(dn) = DomainName::parse(&name) {
        if let Some(did) = world.domains.lookup(&dn) {
            if let Some((campaign, doorway)) = world.doorway_truth(did) {
                chain.push(
                    doorway.live_from,
                    format!(
                        "ground truth: planted by campaign {} (live {} → {})",
                        world.campaigns.row(campaign).name,
                        doorway.live_from,
                        doorway.live_until
                    ),
                );
                if let Some(pday) = doorway.penalized {
                    chain.push(pday, "ground truth: doorway penalized".to_owned());
                }
            }
        }
    }
    Some(chain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Study, StudyConfig};
    use ss_obs::TraceLevel;

    fn traced_run(seed: u64) -> StudyOutput {
        let mut cfg = StudyConfig::fast_test(seed);
        cfg.trace_level = TraceLevel::Event;
        Study::new(cfg).run().expect("study runs")
    }

    #[test]
    fn explain_walks_campaign_store_and_psr_chains() {
        let out = traced_run(76);
        // A campaign with attributed PSRs exists in every healthy run.
        let name = out
            .attribution
            .class_names
            .first()
            .expect("at least one class")
            .clone();
        let chain = explain_campaign(&out, &name).expect("campaign resolves");
        let rendered = chain.render();
        assert!(rendered.contains("campaign created/active"));
        assert!(rendered.contains("doorway"), "no doorway steps: {rendered}");
        // Steps are chronological.
        let steps = chain.steps();
        assert!(steps.windows(2).all(|w| w[0].0 <= w[1].0));

        // A store the crawler detected explains end to end.
        let store_domain = out
            .crawler
            .db
            .detected_store_domains()
            .first()
            .expect("stores detected")
            .clone();
        let sc = explain_store(&out, &store_domain).expect("store resolves");
        assert!(sc.render().contains("ground truth: serves"));

        // Any recorded PSR explains.
        let r = out.crawler.db.psrs.get(0);
        let pc = explain_psr(&out, r.day.day_index(), r.rank).expect("psr resolves");
        let rendered = pc.render();
        assert!(rendered.contains("psr: term"));
        assert!(rendered.contains("ground truth: planted by campaign"));

        // Unknown keys answer None, not panic.
        assert!(explain_campaign(&out, "no-such-campaign").is_none());
        assert!(explain_store(&out, "nope.example.com").is_none());
        assert!(explain_psr(&out, 0, 255).is_none());
    }
}
