//! # ss-web
//!
//! The synthetic-web substrate for the `search-seizure` reproduction.
//!
//! The paper's measurement apparatus is web machinery: it fetches pages as
//! two different user agents, diffs them, renders JavaScript, inspects
//! iframes, reads cookies, and scrapes analytics and court documents. To
//! reproduce that faithfully without the 2013 web, this crate implements the
//! web itself, from scratch:
//!
//! * [`html`] — an HTML tokenizer, a lenient tree parser, and a small DOM
//!   with the query operations the crawler needs (text extraction, iframe
//!   geometry, link harvesting);
//! * [`js`] — a miniature JavaScript: lexer, recursive-descent parser and a
//!   cached bytecode VM with DOM bindings (`document.write`,
//!   `createElement`, `window.location`, `String.fromCharCode`, …) rich
//!   enough to run the obfuscated iframe-cloaking payloads the page
//!   generators emit — and therefore rich enough that "rendering a page"
//!   in the VanGogh detector is real work, as in the paper (§3.1.1);
//! * [`http`] — request/response types with user agents, referrers, cookies
//!   and redirects, plus the fetch-plane/tick-plane trait pair: the pure
//!   [`http::Fetcher`] read plane the crawler speaks (`fetch(&self)`
//!   returning [`http::SideEffect`]s) and the [`http::Web`] tick plane
//!   whose `apply` is the one choke point for fetch-time mutation;
//! * [`cloak`] — the three cloaking mechanisms of §3.1.1 (redirect cloaking,
//!   JS redirect cloaking, iframe cloaking) as pure decision logic;
//! * [`pagegen`] — deterministic generators for every page class in the
//!   study: keyword-stuffed doorways, campaign-templated storefronts,
//!   legitimate sites, seizure-notice pages with embedded court documents,
//!   AWStats reports and the supplier's order-tracking portal.
//!
//! Everything is synchronous and deterministic; no I/O happens anywhere.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cloak;
pub mod html;
pub mod http;
pub mod js;
pub mod pagegen;

pub use html::{Document, Node};
pub use http::{Fetcher, Request, Response, SideEffect, UserAgent, Web};
