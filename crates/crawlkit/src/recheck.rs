//! Reverification by digest: what a doorway's last check rendered and
//! concluded, and the rule that reuses it.
//!
//! The crawler re-resolves every known-poisoned doorway every few days
//! (§4.1.2), and most of those pages are byte for byte what the previous
//! check rendered. So each doorway's [`DomainInfo`](crate::db::DomainInfo)
//! keeps a [`LastCheck`]: a digest of the exact inputs its last render
//! analysed, next to what the check concluded from them. A recheck still
//! fetches every page and follows every redirect, script navigation and
//! landing visit; only when the digest matches does it take the stored
//! conclusion instead of parsing the page and running its scripts again.
//!
//! The digest covers everything the renderer reads — body, page URL, user
//! agent and referrer — plus the crawler-view body when the conclusion
//! came from Dagger's content diff (a script navigation settles Dagger's
//! verdict before the diff runs, so then the crawler view is no input).
//! Every field is length-prefixed and the detector leads as a tag, so two
//! different input lists never share an encoding.

use ss_obs::Registry;
use ss_types::Url;
use ss_web::http::UserAgent;
use ss_web::js::render::{render_with, Rendered};
use ss_web::js::JsCache;

/// What a doorway's last check rendered and concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LastCheck {
    /// Length-prefixed digest of the exact inputs the check analysed.
    pub digest: u64,
    /// What the check concluded from them.
    pub finding: Finding,
}

/// What a check concluded from a rendered page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Finding {
    /// A script navigated to this target.
    JsRedirect(String),
    /// No script navigated; this is the `src` of the first full-page
    /// iframe on the rendered page (VanGogh).
    Iframe(String),
    /// No script navigated, and the user and crawler views' Dice
    /// similarity fell below [`DICE_THRESHOLD`](crate::dagger::DICE_THRESHOLD)
    /// (Dagger).
    ContentDiff,
    /// None of the above.
    Clean,
}

/// The detector that analyses a render: the digest's leading tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Detector {
    Dagger = 1,
    VanGogh = 2,
}

/// The inputs one check analyses: exactly what [`render_with`] reads,
/// plus Dagger's crawler-view body for the content diff.
pub(crate) struct Inputs<'a> {
    pub detector: Detector,
    pub body: &'a str,
    pub page: &'a Url,
    pub user_agent: UserAgent,
    pub referrer: Option<&'a Url>,
    pub crawler_body: Option<&'a str>,
}

impl Inputs<'_> {
    /// Concludes a check on these inputs, reusing `last` when it was
    /// concluded from the same ones. Returns the doorway's next record and
    /// whether it was reused. The render (or the digest comparison that
    /// replaces it) runs in the `crawl/render` cost scope; `conclude`
    /// reads the rendered page and opens `crawl/detect` for any
    /// inspection it does.
    pub(crate) fn check(
        &self,
        last: Option<&LastCheck>,
        conclude: impl Fn(Rendered, &Registry) -> Finding,
        cache: &JsCache,
        obs: &Registry,
    ) -> (LastCheck, bool) {
        let (rendered, key) = {
            let _render = obs.cost_scope("crawl/render");
            let page = self.page.to_string();
            let referrer = self.referrer.map(Url::to_string);
            let key = self.render_key(&page, referrer.as_deref());
            if let Some(last) = last.filter(|l| self.covering(key, &l.finding) == l.digest) {
                #[cfg(test)]
                oracle::confirm(self, &page, referrer.as_deref(), last, &conclude);
                return (last.clone(), true);
            }
            let rendered = render_with(
                self.body,
                &page,
                self.user_agent,
                referrer.as_deref(),
                cache,
            );
            (rendered, key)
        };
        let finding = conclude(rendered, obs);
        let digest = self.covering(key, &finding);
        (LastCheck { digest, finding }, false)
    }

    /// Digest of the render inputs, given the page URL and referrer as the
    /// renderer reads them. It reads a missing referrer as the empty
    /// string, so the digest does too.
    fn render_key(&self, page: &str, referrer: Option<&str>) -> Digest {
        Digest::new(self.detector as u64)
            .field(self.body)
            .field(page)
            .field(self.user_agent.header_value())
            .field(referrer.unwrap_or(""))
    }

    /// Digest of the inputs `finding` was concluded from: the render
    /// inputs, plus the crawler view when the content diff ran.
    fn covering(&self, render_key: Digest, finding: &Finding) -> u64 {
        match self.crawler_body {
            Some(crawler) if !matches!(finding, Finding::JsRedirect(_)) => {
                render_key.field(crawler).finish()
            }
            _ => render_key.finish(),
        }
    }
}

/// A 64-bit streaming digest over length-prefixed fields, eight bytes a
/// step. Each step (xor in the word, odd multiply, xor-shift) is a
/// bijection of the state for a fixed word and of the word for a fixed
/// state, so two equal-length inputs differing in a single word never
/// collide. The value is stored in checkpoints, so it is pinned by a test
/// and must not change.
#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new(tag: u64) -> Self {
        let mut d = Digest(0x9e37_79b9_7f4a_7c15);
        d.word(tag);
        d
    }

    fn word(&mut self, w: u64) {
        let h = (self.0 ^ w).wrapping_mul(0xff51_afd7_ed55_8ccd);
        self.0 = h ^ (h >> 32);
    }

    fn field(mut self, s: &str) -> Self {
        let bytes = s.as_bytes();
        self.word(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut buf = [0u8; 8];
            buf[..tail.len()].copy_from_slice(tail);
            self.word(u64::from_le_bytes(buf));
        }
        self
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Test-only exactness oracle: every reuse is re-rendered on a throwaway
/// cache, off the books, and must conclude exactly what was reused.
#[cfg(test)]
pub(crate) mod oracle {
    use std::cell::Cell;

    use super::*;

    thread_local! {
        /// Reuses confirmed on this thread, by detector: `[Dagger, VanGogh]`.
        static CONFIRMED: Cell<[u64; 2]> = const { Cell::new([0; 2]) };
    }

    /// Re-renders `inputs` on a fresh cache with metering paused and the
    /// work charged to a throwaway registry, then asserts the fresh
    /// conclusion equals the reused one.
    pub(crate) fn confirm(
        inputs: &Inputs<'_>,
        page: &str,
        referrer: Option<&str>,
        reused: &LastCheck,
        conclude: &impl Fn(Rendered, &Registry) -> Finding,
    ) {
        let _quiet = ss_obs::pause_metering();
        let off_books = Registry::new();
        let _frame = off_books.cost_scope("oracle");
        let cache = JsCache::new();
        let rendered = render_with(inputs.body, page, inputs.user_agent, referrer, &cache);
        let finding = conclude(rendered, &off_books);
        let fresh = LastCheck {
            digest: inputs.covering(inputs.render_key(page, referrer), &finding),
            finding,
        };
        assert_eq!(
            &fresh, reused,
            "reused conclusion differs from a fresh render of {page}"
        );
        CONFIRMED.with(|c| {
            let mut n = c.get();
            n[usize::from(inputs.detector == Detector::VanGogh)] += 1;
            c.set(n);
        });
    }

    /// Reuses confirmed on this thread so far: `[Dagger, VanGogh]`.
    pub(crate) fn confirmed() -> [u64; 2] {
        CONFIRMED.with(Cell::get)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs<'a>(page: &'a Url, body: &'a str, crawler_body: Option<&'a str>) -> Inputs<'a> {
        Inputs {
            detector: Detector::Dagger,
            body,
            page,
            user_agent: UserAgent::Browser,
            referrer: None,
            crawler_body,
        }
    }

    /// The digest is persisted in checkpoints: pin its values.
    #[test]
    fn digest_values_are_pinned() {
        assert_eq!(
            format!("{:#018x}", Digest::new(1).finish()),
            "0x2f21048d4e054889"
        );
        let d = Digest::new(2).field("").field("abcdefghi").finish();
        assert_eq!(format!("{d:#018x}"), "0xc6b0a2e7c4abbd18");
    }

    #[test]
    fn fields_are_length_prefixed() {
        let a = Digest::new(1).field("ab").field("c").finish();
        let b = Digest::new(1).field("a").field("bc").finish();
        let c = Digest::new(1).field("abc").field("").finish();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        // A zero byte is data, not padding.
        assert_ne!(
            Digest::new(1).field("a").finish(),
            Digest::new(1).field("a\0").finish()
        );
        assert_ne!(
            Digest::new(1).field("x").finish(),
            Digest::new(2).field("x").finish()
        );
    }

    #[test]
    fn unchanged_inputs_reuse_and_changed_inputs_render() {
        let door = Url::parse("http://door.com/").unwrap();
        let cache = JsCache::new();
        let obs = Registry::new();
        let conclude = |r: Rendered, _: &Registry| match r.js_redirect {
            Some(target) => Finding::JsRedirect(target),
            None => Finding::ContentDiff,
        };
        let page = "<p>a</p><script>window.location = 'http://s.com/';</script>";
        let (first, reused) =
            inputs(&door, page, Some("<p>a</p>")).check(None, conclude, &cache, &obs);
        assert!(!reused);
        assert_eq!(first.finding, Finding::JsRedirect("http://s.com/".into()));
        // Same render inputs: reused, even though the crawler view moved
        // (a script navigation settles the verdict before the diff).
        let (again, reused) =
            inputs(&door, page, Some("<p>b</p>")).check(Some(&first), conclude, &cache, &obs);
        assert!(reused);
        assert_eq!(again, first);
        // A changed body renders afresh.
        let changed = "<p>a</p><script>window.location = 'http://t.com/';</script>";
        let (fresh, reused) =
            inputs(&door, changed, Some("<p>a</p>")).check(Some(&first), conclude, &cache, &obs);
        assert!(!reused);
        assert_eq!(fresh.finding, Finding::JsRedirect("http://t.com/".into()));
        assert_ne!(fresh.digest, first.digest);
        // Without a navigation the crawler view is an input.
        let plain = "<p>x</p>";
        let (diffed, _) =
            inputs(&door, plain, Some("<p>y</p>")).check(None, conclude, &cache, &obs);
        assert_eq!(diffed.finding, Finding::ContentDiff);
        let (_, reused) =
            inputs(&door, plain, Some("<p>z</p>")).check(Some(&diffed), conclude, &cache, &obs);
        assert!(!reused, "a changed crawler view reruns the content diff");
        let (_, reused) =
            inputs(&door, plain, Some("<p>y</p>")).check(Some(&diffed), conclude, &cache, &obs);
        assert!(reused);
    }
}
