//! A miniature JavaScript implementation.
//!
//! Iframe cloaking (§3.1.1) "runs entirely on the client, relying on the
//! assumption that crawlers do not fully render pages at scale", and the
//! payloads are "frequently obfuscated … in some cases the iframe itself is
//! dynamically generated". Detecting it therefore "requires a complete
//! browser that evaluates JavaScript". This module is that (small) browser
//! core: a lexer, a recursive-descent parser, and a bytecode VM with the
//! DOM bindings the ecosystem's payloads use:
//!
//! * `document.write`, `document.createElement`, `document.getElementById`,
//!   `document.body.appendChild`, element attribute assignment;
//! * `window.location` assignment / `.href` / `.replace()` for JS redirects;
//! * `navigator.userAgent` and `document.referrer` for client-side cloaking
//!   decisions;
//! * `String.fromCharCode`, `unescape`, `parseInt`, string/array methods —
//!   the toolbox the generators' obfuscator builds payloads from.
//!
//! The language subset: `var`, `function`, `if`/`else`, `while`, `for`,
//! `return`, assignment (including member/index targets), `? :`, `&&`/`||`,
//! comparison/arithmetic operators, arrays, and calls. Execution is bounded
//! by a step budget so hostile pages cannot hang the crawler.
//!
//! # Execution
//!
//! Scripts compile to bytecode ([`compile`]/[`vm`] internally): names
//! resolve to frame slot indices at compile time, constants fold, and
//! compiled chunks cache per script source in a [`JsCache`] — pagegen
//! emits scripts per template, so a crawl compiles a handful of scripts
//! and replays them millions of times. The original tree-walking
//! interpreter survives only in test builds, as the reference the
//! in-crate differential harness checks the VM against; both share every
//! observable semantic through one runtime layer.

mod ast;
mod bytecode;
mod cache;
mod compile;
#[cfg(test)]
mod differential;
#[cfg(test)]
mod interp;
mod lexer;
mod parser;
#[cfg(test)]
mod parser_edge;
pub mod render;
mod runtime;
mod vm;

pub use ast::{BinOp, Expr, Stmt, UnOp};
pub use cache::JsCache;
pub use lexer::{lex, LexError, Tok};
pub use parser::{parse_program, ParseError};
pub use runtime::{DynElement, JsError, PageEnv, RenderEffects, Value};

use cache::CompileMode;

/// Parses and runs a script against a page environment, accumulating
/// effects. Errors are returned, not panicked — hostile or truncated
/// scripts are an expected crawler input. Uses the process-wide compile
/// cache.
pub fn run_script(src: &str, env: &mut PageEnv) -> Result<(), JsError> {
    run_script_with(src, env, JsCache::global())
}

/// [`run_script`] with an explicit compile cache. Scoped callers (the
/// crawler) pass their own so per-run compile/hit counters stay
/// meaningful.
pub fn run_script_with(src: &str, env: &mut PageEnv, cache: &JsCache) -> Result<(), JsError> {
    let chunk = cache
        .chunk_for(src, CompileMode::Main)
        .map_err(JsError::Syntax)?;
    vm::run_chunk(env, &chunk, cache)
}
