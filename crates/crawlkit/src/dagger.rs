//! Dagger: the user-vs-crawler cloaking detector (§4.1.2).
//!
//! For each candidate URL the detector fetches the page twice — once
//! self-identified as Googlebot, once as a browser arriving from a Google
//! results page — follows HTTP redirect chains for both, and compares what
//! came back:
//!
//! 1. different final hosts → **redirect cloaking**;
//! 2. identical hosts but different bytes → render the user view; a JS
//!    navigation reveals **JS-redirect cloaking** (the paper's HtmlUnit
//!    extension);
//! 3. otherwise a semantic diff (title + word-set Dice coefficient) flags
//!    **content cloaking**.
//!
//! Iframe cloaking intentionally evades all three — same bytes to everyone
//! — which is why [`crate::vangogh`] exists.

use std::collections::HashSet;

use ss_obs::{charge, Registry, WorkKind};
use ss_types::url::Scheme;
use ss_types::{DomainName, Url};
use ss_web::http::{Fetcher, Request, Response, UserAgent};
use ss_web::js::render::Rendered;
use ss_web::js::JsCache;
use ss_web::Document;

use crate::recheck::{Detector, Finding, Inputs, LastCheck};

/// What kind of cloaking was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CloakSignal {
    /// Server-side HTTP redirect for search users only.
    HttpRedirect,
    /// Client-side JS navigation for search users only.
    JsRedirect,
    /// Different content served, no redirect found.
    ContentDiff,
    /// Full-viewport iframe payload (set by VanGogh, not Dagger).
    Iframe,
}

/// The detector's verdict for one URL.
#[derive(Debug, Clone, PartialEq)]
pub struct DaggerVerdict {
    /// Detected cloaking, if any.
    pub cloaked: Option<CloakSignal>,
    /// Where a search user ultimately lands (host of the final page).
    pub landing: Option<Url>,
    /// The user-view response body (for downstream store detection).
    pub user_body: String,
    /// Cookies the landing page set.
    pub cookies: Vec<ss_web::http::Cookie>,
    /// What the check's render analysed and concluded, when it rendered
    /// (or reused) one: the doorway's next [`LastCheck`].
    pub last_check: Option<LastCheck>,
    /// Whether that conclusion was reused from the previous check rather
    /// than rendered afresh.
    pub reused: bool,
}

/// The Google referrer the detector presents (§4.1.2's "as a user" fetch
/// models a click-through from a results page).
pub fn google_referrer(term: &str) -> Url {
    Url {
        scheme: Scheme::Http,
        host: DomainName::parse("google.com").expect("static referrer host is valid"),
        path: "/search".to_owned(),
        query: format!("q={}", ss_types::url::encode_component(term)),
    }
}

/// Word-set Dice coefficient between two documents' visible text.
pub fn text_dice(a: &str, b: &str) -> f64 {
    let wa: HashSet<&str> = a.split_whitespace().collect();
    let wb: HashSet<&str> = b.split_whitespace().collect();
    if wa.is_empty() && wb.is_empty() {
        return 1.0;
    }
    let inter = wa.intersection(&wb).count();
    2.0 * inter as f64 / (wa.len() + wb.len()) as f64
}

/// Below this Dice similarity two views count as semantically different.
pub const DICE_THRESHOLD: f64 = 0.5;

/// Runs the detector against one URL with the process-wide compile cache.
pub fn check(web: &impl Fetcher, url: &Url, term: &str, max_hops: usize) -> DaggerVerdict {
    check_with(
        web,
        url,
        term,
        max_hops,
        None,
        JsCache::global(),
        &Registry::new(),
    )
}

/// Runs the detector against one URL.
///
/// Takes the read plane only: detection fetches must never perturb the
/// world, so whatever effects the fetches report are dropped here. The
/// renderer (step 2's JS-redirect upgrade) compiles through `cache`, and
/// is skipped when `last` — the doorway's previous check — analysed the
/// same inputs (see [`crate::recheck`]). Phase costs (fetch/render/detect)
/// record into `obs` — the caller's per-work-item registry, so scoped
/// totals merge deterministically.
pub fn check_with(
    web: &impl Fetcher,
    url: &Url,
    term: &str,
    max_hops: usize,
    last: Option<&LastCheck>,
    cache: &JsCache,
    obs: &Registry,
) -> DaggerVerdict {
    let crawler_req = Request::crawler(url.clone());
    let user_req = Request {
        url: url.clone(),
        user_agent: UserAgent::Browser,
        referrer: Some(google_referrer(term)),
    };
    let (crawler_chain, crawler_resp, user_chain, user_resp) = {
        let _fetch = obs.cost_scope("crawl/fetch");
        charge(WorkKind::DocsFetched, 2);
        let (crawler_chain, crawler_resp, _) = web.fetch_following(&crawler_req, max_hops);
        let (user_chain, user_resp, _) = web.fetch_following(&user_req, max_hops);
        (crawler_chain, crawler_resp, user_chain, user_resp)
    };

    let crawler_host = crawler_chain.last().expect("chain non-empty").host.clone();
    let user_host = user_chain.last().expect("chain non-empty").host.clone();
    let landing_url = user_chain.last().expect("chain non-empty").clone();

    // 1. Redirect cloaking: the user ends up somewhere else entirely.
    if user_host != crawler_host {
        return DaggerVerdict {
            cloaked: Some(CloakSignal::HttpRedirect),
            landing: Some(landing_url),
            user_body: user_resp.body,
            cookies: user_resp.cookies,
            last_check: None,
            reused: false,
        };
    }

    // 2. Same host; do the bytes differ at all?
    if user_resp.body != crawler_resp.body {
        // Render the user view to catch a JS redirect (the Dagger upgrade
        // described in §4.1.2 — only pages already flagged get rendered,
        // because rendering is expensive), else diff the two views.
        let inputs = Inputs {
            detector: Detector::Dagger,
            body: &user_resp.body,
            page: url,
            user_agent: UserAgent::Browser,
            referrer: None,
            crawler_body: Some(&crawler_resp.body),
        };
        let conclude = |rendered: Rendered, obs: &Registry| {
            if let Some(target) = rendered.js_redirect {
                return Finding::JsRedirect(target);
            }
            let dice = {
                let _detect = obs.cost_scope("crawl/detect");
                text_dice(
                    &Document::parse(&user_resp.body).text_content(),
                    &Document::parse(&crawler_resp.body).text_content(),
                )
            };
            if dice < DICE_THRESHOLD {
                Finding::ContentDiff
            } else {
                Finding::Clean
            }
        };
        let (check, reused) = inputs.check(last, conclude, cache, obs);
        if let Finding::JsRedirect(target) = &check.finding {
            let (landing, follow) = {
                let _fetch = obs.cost_scope("crawl/fetch");
                charge(WorkKind::DocsFetched, 1);
                follow_js(web, target, &user_req, max_hops)
            };
            return DaggerVerdict {
                cloaked: Some(CloakSignal::JsRedirect),
                landing,
                user_body: follow.map(|r| r.body).unwrap_or(user_resp.body),
                cookies: Vec::new(),
                last_check: Some(check),
                reused,
            };
        }
        let cloaked = (check.finding == Finding::ContentDiff).then_some(CloakSignal::ContentDiff);
        return DaggerVerdict {
            cloaked,
            landing: cloaked.map(|_| landing_url),
            user_body: user_resp.body,
            cookies: user_resp.cookies,
            last_check: Some(check),
            reused,
        };
    }

    DaggerVerdict {
        cloaked: None,
        landing: None,
        user_body: user_resp.body,
        cookies: user_resp.cookies,
        last_check: None,
        reused: false,
    }
}

/// Follows a JS navigation target, returning the final landing URL and
/// response when the target parses.
pub(crate) fn follow_js(
    web: &impl Fetcher,
    target: &str,
    prior: &Request,
    max_hops: usize,
) -> (Option<Url>, Option<Response>) {
    match Url::parse(target) {
        Ok(u) => {
            let req = Request {
                url: u,
                user_agent: UserAgent::Browser,
                referrer: Some(prior.url.clone()),
            };
            let (chain, resp, _) = web.fetch_following(&req, max_hops);
            (chain.last().cloned(), Some(resp))
        }
        Err(_) => (None, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_web::http::Response;

    /// A toy web exercising each cloaking style.
    struct CloakWeb;

    impl Fetcher for CloakWeb {
        fn fetch(&self, req: &Request) -> (Response, Vec<ss_web::SideEffect>) {
            let is_bot = req.user_agent == UserAgent::GoogleBot;
            let from_search = req
                .referrer
                .as_ref()
                .map(|r| r.host.as_str().contains("google"))
                .unwrap_or(false);
            let resp = match req.url.host.as_str() {
                "redirect-cloak.com" => {
                    if is_bot {
                        Response::ok("<p>seo words here</p>".into())
                    } else if from_search {
                        Response::redirect(Url::parse("http://store.com/").unwrap())
                    } else {
                        Response::ok("<p>original home page</p>".into())
                    }
                }
                "js-cloak.com" => {
                    if is_bot {
                        Response::ok("<p>seo words here</p>".into())
                    } else {
                        Response::ok(
                            "<p>seo words here</p><script>window.location = 'http://store.com/';</script>"
                                .into(),
                        )
                    }
                }
                "content-cloak.com" => {
                    if is_bot {
                        Response::ok("<p>alpha beta gamma delta epsilon zeta</p>".into())
                    } else {
                        Response::ok("<p>one two three four five six seven</p>".into())
                    }
                }
                "honest.com" => Response::ok("<p>same for everyone</p>".into()),
                "iframe-cloak.com" => Response::ok(
                    "<p>same bytes</p><script>var f = document.createElement('iframe');\
                     f.width = '100%'; f.height = '100%'; f.src = 'http://store.com/';\
                     document.body.appendChild(f);</script>"
                        .into(),
                ),
                "store.com" => Response::ok("<p>buy bags checkout</p>".into()),
                _ => Response::not_found(),
            };
            (resp, Vec::new())
        }
    }

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn detects_redirect_cloaking() {
        let v = check(
            &CloakWeb,
            &url("http://redirect-cloak.com/"),
            "cheap bags",
            5,
        );
        assert_eq!(v.cloaked, Some(CloakSignal::HttpRedirect));
        assert_eq!(v.landing.unwrap().host.as_str(), "store.com");
        assert!(v.user_body.contains("checkout"));
    }

    #[test]
    fn detects_js_redirect_cloaking() {
        let v = check(&CloakWeb, &url("http://js-cloak.com/"), "cheap bags", 5);
        assert_eq!(v.cloaked, Some(CloakSignal::JsRedirect));
        assert_eq!(v.landing.unwrap().host.as_str(), "store.com");
    }

    #[test]
    fn detects_content_cloaking() {
        let v = check(
            &CloakWeb,
            &url("http://content-cloak.com/"),
            "cheap bags",
            5,
        );
        assert_eq!(v.cloaked, Some(CloakSignal::ContentDiff));
    }

    #[test]
    fn honest_pages_pass() {
        let v = check(&CloakWeb, &url("http://honest.com/"), "cheap bags", 5);
        assert_eq!(v.cloaked, None);
    }

    #[test]
    fn iframe_cloaking_evades_dagger_by_design() {
        // Same bytes to everyone: exactly the blind spot §3.1.1 describes.
        let v = check(&CloakWeb, &url("http://iframe-cloak.com/"), "cheap bags", 5);
        assert_eq!(v.cloaked, None, "Dagger must NOT catch iframe cloaking");
    }

    #[test]
    fn dice_behaves() {
        assert!((text_dice("a b c", "a b c") - 1.0).abs() < 1e-12);
        assert_eq!(text_dice("a b", "c d"), 0.0);
        assert!((text_dice("", "") - 1.0).abs() < 1e-12);
        let half = text_dice("a b c d", "c d e f");
        assert!((half - 0.5).abs() < 1e-12);
    }

    #[test]
    fn referrer_built_from_parts_equals_the_parsed_url() {
        for term in ["landing", "cheap louis vuitton", "uggs & co", "", "é/ü?"] {
            let parsed = Url::parse(&format!(
                "http://google.com/search?q={}",
                ss_types::url::encode_component(term)
            ))
            .unwrap();
            assert_eq!(google_referrer(term), parsed, "{term:?}");
            assert_eq!(
                google_referrer(term).query_param("q").as_deref(),
                Some(term)
            );
        }
    }
}
