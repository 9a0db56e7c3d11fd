//! # ss-eco
//!
//! The agent-based simulation of the counterfeit-luxury SEO ecosystem —
//! the stand-in for the 2013–2014 web the paper measured.
//!
//! The world contains, as live agents with state and schedules:
//!
//! * **52 classified SEO campaigns** (plus a long tail of "shadow"
//!   campaigns the labeled set never covers), each operating doorway fleets,
//!   storefront fleets with backup-domain pools, cloaking configurations,
//!   and bursty SEO activity windows ([`tables::CampaignTable`], windows in
//!   [`campaign`]);
//! * **storefronts** with monotone order counters, localized variants,
//!   AWStats logs, merchant accounts and domain-rotation agility
//!   ([`tables::StoreTable`], monthly logs in [`store`]);
//! * **users** who query, click by rank, browse, and occasionally buy
//!   ([`traffic`]);
//! * **the search engine's anti-abuse pipeline** (delayed detection →
//!   demotion + root-only hacked labels) wired to `ss-search`'s mechanisms;
//! * **brand-protection firms** filing periodic bulk seizure cases, and the
//!   campaigns' counter-reaction of re-pointing doorways within days
//!   ([`legal`]);
//! * **a supplier** fulfilling partnered campaigns' orders and exposing the
//!   tracking portal the paper scraped ([`supplier`]).
//!
//! [`world::World`] composes all of it behind a plan/commit day-tick loop
//! ([`plan`]: pure stage planners over `&World`, keyed RNG sub-streams, a
//! single `apply_plan` reducer, optional worker fan-out), implements
//! `ss_web::Web` so the measurement pipeline can fetch pages exactly as the
//! paper's crawlers did, and keeps a ground-truth [`events`] log that the
//! methodology-validation experiments score against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod build;
pub mod campaign;
pub mod domains;
pub mod events;
pub mod legal;
pub mod plan;
pub mod scenario;
pub mod snapshot;
pub mod store;
pub mod supplier;
pub mod tables;
pub mod traffic;
pub mod world;

pub use plan::{TickStage, TrailEvent, WorldEvent};
pub use scenario::{Scale, ScenarioConfig};
pub use tables::{
    CampaignRow, CampaignTable, DomainRoute, DoorwayRow, DoorwaySlice, DoorwayTable, StoreRow,
    StoreTable,
};
pub use world::World;
