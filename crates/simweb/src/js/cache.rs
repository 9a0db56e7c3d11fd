//! The compile cache: script source → compiled [`Chunk`], shared across
//! crawl worker threads.
//!
//! `pagegen` emits scripts per *template*, so a crawl sees the same
//! handful of script strings millions of times — the hit rate is
//! near-total and compilation amortizes to nothing. Keys are FNV-1a
//! 64-bit hashes of the source (plus the compile mode: `eval` bodies
//! lower differently); each entry keeps the full source so a hash
//! collision is detected and served by an uncached compile instead of
//! running the wrong script. Parse failures cache too — hostile pages
//! with broken scripts are re-fetched all crawl long. A cache decoded
//! from a checkpoint holds sources only; each entry compiles on its first
//! hit.
//!
//! The `compiles`/`hits` counters are deterministic for a run regardless
//! of thread count: lookups happen once per script execution, and the
//! map lock is held across insert-compiles so exactly one compile happens
//! per distinct script.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use ss_types::snapshot::{Reader, Snapshot, SnapshotError, Writer};

use super::bytecode::Chunk;
use super::compile;
use super::parser::parse_program;

/// How a script is lowered (top-level programs get a slotted global
/// frame; `eval` bodies run against the caller's frame, all-dynamic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum CompileMode {
    /// A `<script>` body.
    Main,
    /// An `eval(…)` argument.
    Eval,
}

struct Entry {
    src: String,
    /// Compiled chunk, or the parse error's display string. Set at insert
    /// on a miss; a decoded entry sets it on its first hit.
    result: OnceLock<Result<Arc<Chunk>, String>>,
}

/// A concurrent source → bytecode cache with hit/compile counters.
/// See the module docs for keying and determinism notes.
#[derive(Default)]
pub struct JsCache {
    map: Mutex<HashMap<(CompileMode, u64), Entry>>,
    compiles: AtomicU64,
    hits: AtomicU64,
}

impl JsCache {
    /// An empty cache.
    pub fn new() -> Self {
        JsCache::default()
    }

    /// `(compiles, hits)` so far. `compiles` counts distinct scripts
    /// compiled (plus any 64-bit-collision fallbacks), `hits` counts
    /// lookups served from the cache.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.compiles.load(Ordering::Relaxed),
            self.hits.load(Ordering::Relaxed),
        )
    }

    /// The process-wide cache used by the convenience `render`/
    /// `run_script` entry points. Scoped runs (the crawler) own their own
    /// cache so per-run counters stay meaningful.
    pub fn global() -> &'static JsCache {
        static GLOBAL: OnceLock<JsCache> = OnceLock::new();
        GLOBAL.get_or_init(JsCache::new)
    }

    /// The compiled chunk for `src`, compiling on first sight. `Err` is
    /// the parse error's display string.
    pub(crate) fn chunk_for(&self, src: &str, mode: CompileMode) -> Result<Arc<Chunk>, String> {
        // Which thread takes a given miss (and pays the compile, the
        // insert, even an `Err` clone on hit) is a race, so none of it may
        // count against the caller's cost scope: pause the allocation
        // meter for the whole lookup. Compile *work* is charged
        // deterministically from the counters at the crawl-day choke
        // point instead.
        let _quiet = ss_obs::pause_metering();
        let key = (mode, fnv64(src.as_bytes()));
        let mut map = self.map.lock().expect("js cache lock");
        if let Some(e) = map.get(&key) {
            if e.src == src {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return e.result.get_or_init(|| compile_src(src, mode)).clone();
            }
            // Hash collision: serve a one-off compile, leave the
            // incumbent entry in place.
            self.compiles.fetch_add(1, Ordering::Relaxed);
            return compile_src(src, mode);
        }
        self.compiles.fetch_add(1, Ordering::Relaxed);
        let result = compile_src(src, mode);
        map.insert(
            key,
            Entry {
                src: src.to_owned(),
                result: OnceLock::from(result.clone()),
            },
        );
        result
    }
}

impl Snapshot for JsCache {
    const TAG: &'static str = "js-cache";
    const VERSION: u16 = 1;

    /// Serializes the cached script *sources* plus the compile/hit
    /// counters. Compiled chunks are not serialized — compilation is
    /// deterministic, so a decoded entry compiles its source on its first
    /// hit (outside the `compiles` counter, which counted it when the
    /// source first missed) and serves what the original served. Sources
    /// the resumed run never meets again are never compiled. The counters
    /// matter: the crawler
    /// records per-day compile/hit deltas into deterministic metrics, so
    /// a resumed run must continue from the checkpointed totals.
    fn write_body(&self, w: &mut Writer) {
        let map = self.map.lock().expect("js cache lock");
        let mut entries: Vec<(u8, &str)> = map
            .iter()
            .map(|((mode, _), e)| {
                let mode = match mode {
                    CompileMode::Main => 0u8,
                    CompileMode::Eval => 1u8,
                };
                (mode, e.src.as_str())
            })
            .collect();
        entries.sort();
        w.put_len(entries.len());
        for (mode, src) in entries {
            w.put_u8(mode);
            w.put_str(src);
        }
        let (compiles, hits) = self.stats();
        w.put_u64(compiles);
        w.put_u64(hits);
    }

    fn read_body(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let cache = JsCache::new();
        {
            let mut map = cache.map.lock().expect("js cache lock");
            for _ in 0..r.get_len()? {
                let mode = match r.get_u8()? {
                    0 => CompileMode::Main,
                    1 => CompileMode::Eval,
                    b => {
                        return Err(SnapshotError::Corrupt(format!("compile mode byte {b}")));
                    }
                };
                let src = r.get_str()?;
                let key = (mode, fnv64(src.as_bytes()));
                map.insert(
                    key,
                    Entry {
                        src,
                        result: OnceLock::new(),
                    },
                );
            }
        }
        cache.compiles.store(r.get_u64()?, Ordering::Relaxed);
        cache.hits.store(r.get_u64()?, Ordering::Relaxed);
        Ok(cache)
    }
}

fn compile_src(src: &str, mode: CompileMode) -> Result<Arc<Chunk>, String> {
    let prog = parse_program(src).map_err(|e| e.to_string())?;
    Ok(Arc::new(match mode {
        CompileMode::Main => compile::compile_program(&prog),
        CompileMode::Eval => compile::compile_eval(&prog),
    }))
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The decode this cache had before compiles became lazy: every
    /// entry compiled at once. Kept as the oracle of the lazy one.
    fn decode_eager(bytes: &[u8]) -> JsCache {
        let cache = JsCache::decode(bytes).expect("js cache decodes");
        for ((mode, _), e) in cache.map.lock().expect("js cache lock").iter() {
            e.result.get_or_init(|| compile_src(&e.src, *mode));
        }
        cache
    }

    fn compiled_entries(cache: &JsCache) -> usize {
        let map = cache.map.lock().expect("js cache lock");
        map.values().filter(|e| e.result.get().is_some()).count()
    }

    #[test]
    fn decoded_cache_compiles_on_first_hit() {
        let sources = [
            ("var a = 1; document.write('A' + a);", CompileMode::Main),
            ("window.location = 'http://x.com/';", CompileMode::Main),
            ("var = ((;", CompileMode::Main),
            ("document.write('eval');", CompileMode::Eval),
            ("var = ((;", CompileMode::Eval),
        ];
        let cache = JsCache::new();
        for (src, mode) in sources {
            cache.chunk_for(src, mode).ok();
        }
        cache.chunk_for(sources[0].0, sources[0].1).ok();
        assert_eq!(cache.stats(), (5, 1));
        let bytes = cache.encode();

        let lazy = JsCache::decode(&bytes).expect("js cache decodes");
        assert_eq!(compiled_entries(&lazy), 0, "decode compiled a script");
        let eager = decode_eager(&bytes);
        assert_eq!(compiled_entries(&eager), sources.len());
        assert_eq!(lazy.stats(), eager.stats());

        for (src, mode) in sources {
            let (a, b) = (lazy.chunk_for(src, mode), eager.chunk_for(src, mode));
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{mode:?} {src:?}");
            assert_eq!(lazy.stats(), eager.stats(), "{mode:?} {src:?}");
        }
        assert_eq!(lazy.stats(), (5, 6), "every served source was a hit");
        assert_eq!(compiled_entries(&lazy), sources.len());
        assert!(lazy.encode() == eager.encode(), "the frames differ");
    }
}
