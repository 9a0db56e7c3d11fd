//! Page rendering: parse HTML, execute scripts, observe the result.
//!
//! This is the core of what the paper's VanGogh crawler does (§4.1.2):
//! "essentially a headless browser complete with a JavaScript interpreter".
//! Rendering a page means parsing it, running each `<script>` against the
//! page environment, folding `document.write` output back into the document,
//! attaching dynamically created elements, and surfacing any JS navigation
//! as a redirect.

use crate::html::{Document, Element, Node};
use crate::http::UserAgent;

use super::runtime::{JsError, PageEnv, RenderEffects};
use super::JsCache;

/// The result of rendering a page.
#[derive(Debug, Clone)]
pub struct Rendered {
    /// The document after script execution: original DOM plus
    /// `document.write` output plus attached dynamic elements.
    pub doc: Document,
    /// JS navigation target, if any script redirected.
    pub js_redirect: Option<String>,
    /// Scripts that failed (count only; the crawler tolerates breakage).
    pub script_errors: usize,
    /// Raw effects, for tests and forensics.
    pub effects: RenderEffects,
}

impl Rendered {
    /// All iframes visible after rendering: static ones plus dynamically
    /// attached ones. Returns `(width, height, src)` attribute strings.
    pub fn iframes(&self) -> Vec<(String, String, String)> {
        let mut out = Vec::new();
        for el in self.doc.find_all("iframe") {
            out.push((
                el.attr("width").unwrap_or("").to_owned(),
                el.attr("height").unwrap_or("").to_owned(),
                el.attr("src").unwrap_or("").to_owned(),
            ));
        }
        out
    }
}

/// Renders `html` as a visitor with the given agent/referrer would see it.
///
/// `url` is the page's own address (exposed as `window.location.href`).
/// Note the crawler-side economics the paper describes: rendering runs the
/// full JS engine and is much more expensive than a plain fetch, which is
/// why VanGogh samples at most three pages per doorway domain.
pub fn render(html: &str, url: &str, user_agent: UserAgent, referrer: Option<&str>) -> Rendered {
    render_with(html, url, user_agent, referrer, JsCache::global())
}

/// [`render`] with an explicit compile cache — the crawler's entry point
/// (it owns a per-run cache so compile/hit counters are per-run).
pub fn render_with(
    html: &str,
    url: &str,
    user_agent: UserAgent,
    referrer: Option<&str>,
    cache: &JsCache,
) -> Rendered {
    render_by(html, url, user_agent, referrer, |src, env| {
        super::run_script_with(src, env, cache)
    })
}

/// The rendering pipeline with the script runner as a parameter:
/// [`render_with`] passes the VM, and the differential harness passes the
/// test-only tree-walking reference, so both engines render through one
/// parse/execute/fold path.
pub(crate) fn render_by(
    html: &str,
    url: &str,
    user_agent: UserAgent,
    referrer: Option<&str>,
    mut run: impl FnMut(&str, &mut PageEnv) -> Result<(), JsError>,
) -> Rendered {
    let doc = Document::parse(html);
    let mut env = PageEnv {
        user_agent: user_agent.header_value().to_owned(),
        referrer: referrer.unwrap_or("").to_owned(),
        title: doc.title().unwrap_or_default(),
        location_href: url.to_owned(),
        dom_ids: doc
            .elements()
            .iter()
            .filter_map(|e| e.attr("id").map(str::to_owned))
            .collect(),
        effects: RenderEffects::default(),
    };

    let mut script_errors = 0;
    for src in doc.scripts() {
        if run(&src, &mut env).is_err() {
            script_errors += 1;
        }
    }

    // Fold effects back into a final document.
    let mut final_doc = doc;
    if !env.effects.written_html.is_empty() {
        let written = Document::parse(&env.effects.written_html);
        final_doc.roots.extend(written.roots);
    }
    for dyn_el in env.effects.elements.iter().filter(|e| e.attached) {
        let mut el = Element::new(&dyn_el.tag);
        for (k, v) in &dyn_el.attrs {
            el.set_attr(k, v);
        }
        if !dyn_el.inner_html.is_empty() {
            el.children = Document::parse(&dyn_el.inner_html).roots;
        }
        final_doc.roots.push(Node::Element(el));
    }

    Rendered {
        doc: final_doc,
        js_redirect: env.effects.redirect.clone(),
        script_errors,
        effects: env.effects,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_page_renders_unchanged() {
        let r = render("<p>hello</p>", "http://x.com/", UserAgent::Browser, None);
        assert_eq!(r.doc.text_content(), "hello");
        assert!(r.js_redirect.is_none());
        assert_eq!(r.script_errors, 0);
    }

    #[test]
    fn document_write_is_folded_in() {
        let html = r#"<p>base</p><script>document.write('<div id="late">written</div>');</script>"#;
        let r = render(html, "http://x.com/", UserAgent::Browser, None);
        assert!(r.doc.by_id("late").is_some());
        assert!(r.doc.text_content().contains("written"));
    }

    #[test]
    fn dynamic_iframe_appears_in_iframes() {
        let html = r#"<script>
            var f = document.createElement('iframe');
            f.setAttribute('width', '100%');
            f.setAttribute('height', '100%');
            f.src = 'http://store.com/';
            document.body.appendChild(f);
        </script>"#;
        let r = render(html, "http://door.com/", UserAgent::Browser, None);
        let frames = r.iframes();
        assert_eq!(frames.len(), 1);
        assert_eq!(
            frames[0],
            ("100%".into(), "100%".into(), "http://store.com/".into())
        );
    }

    #[test]
    fn js_redirect_is_surfaced() {
        let html = "<script>window.location = 'http://landing.com/';</script>";
        let r = render(html, "http://door.com/", UserAgent::Browser, None);
        assert_eq!(r.js_redirect.as_deref(), Some("http://landing.com/"));
    }

    #[test]
    fn broken_scripts_counted_not_fatal() {
        let html = "<script>var x = ((;</script><p>still here</p>";
        let r = render(html, "http://x.com/", UserAgent::Browser, None);
        assert_eq!(r.script_errors, 1);
        assert!(r.doc.text_content().contains("still here"));
    }

    #[test]
    fn ua_dependent_render_differs() {
        let html = "<script>if (navigator.userAgent.indexOf('Googlebot') < 0) { \
                    document.write('<iframe width=\"100%\" height=\"100%\" src=\"http://s.com/\"></iframe>'); }</script>";
        let user = render(html, "http://d.com/", UserAgent::Browser, None);
        let bot = render(html, "http://d.com/", UserAgent::GoogleBot, None);
        assert_eq!(user.iframes().len(), 1);
        assert_eq!(bot.iframes().len(), 0);
    }
}
