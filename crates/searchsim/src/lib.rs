//! # ss-search
//!
//! A search-engine simulator: the substrate both the SEO campaigns attack
//! and the measurement crawler queries.
//!
//! The paper crawls the daily top-100 Google results for 1,600 search terms
//! across 16 luxury verticals (§4.1). This crate supplies the pieces that
//! replaces:
//!
//! * [`engine`] — a document index with per-term postings and a daily
//!   ranking function combining base relevance, site quality, the SEO
//!   "juice" campaigns inject, penalization, and deterministic day-to-day
//!   jitter (producing realistic SERP churn), split into a mutable writer
//!   and immutable published [`EngineEpoch`] snapshots that readers query
//!   concurrently between commits (the query plane);
//! * penalization machinery on the engine: rank **demotion** and the
//!   root-only **"This site may be hacked" label** with its coverage gap
//!   (§5.2.1–5.2.2);
//! * [`suggest`] — a Google-Suggest-style completion service, used by the
//!   paper's second term-selection methodology (§4.1.1).
//!
//! The engine knows nothing about campaigns or ground truth: it ranks what
//! it is given. Policy (when to demote, what to label) lives with the world
//! simulation in `ss-eco`; mechanism lives here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
#[cfg(test)]
mod epoch_differential;
pub mod suggest;

pub use engine::{DocId, DocPage, EngineEpoch, EngineOp, RankedHit, RankedSerp, SearchEngine};
