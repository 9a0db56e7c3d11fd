//! VanGogh: the rendering crawler that catches iframe cloaking (§4.1.2).
//!
//! VanGogh fetches the page as a search-referred browser, runs every
//! script through the JS interpreter, and inspects the *rendered* document
//! for iframes "attempting to occupy the entire page visually": width and
//! height both either `100%` or larger than 800 pixels. Because rendering
//! is expensive, the orchestrator renders a new domain only when Dagger
//! stays quiet, and a reverification reuses the doorway's last render
//! when the fetched page is unchanged ([`crate::recheck`]).

use ss_obs::{charge, Registry, WorkKind};
use ss_types::Url;
use ss_web::http::{Fetcher, Request, UserAgent};
use ss_web::js::render::Rendered;
use ss_web::js::JsCache;

use crate::dagger::{google_referrer, CloakSignal, DaggerVerdict};
use crate::recheck::{Detector, Finding, Inputs, LastCheck};

/// The geometric rule from §4.1.2.
pub fn is_fullpage(width: &str, height: &str) -> bool {
    fn big(dim: &str) -> bool {
        if dim.trim() == "100%" {
            return true;
        }
        dim.trim()
            .trim_end_matches("px")
            .parse::<f64>()
            .map(|v| v > 800.0)
            .unwrap_or(false)
    }
    big(width) && big(height)
}

/// Renders `url` as a search-referred user and reports iframe cloaking.
/// Pure read-plane work: any reported fetch effects are dropped. Uses the
/// process-wide compile cache.
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

/// [`check`] with an explicit compile cache — the crawler's entry point
/// (per-run cache). The render is skipped when `last` — the doorway's
/// previous check — analysed the same inputs (see [`crate::recheck`]).
/// Phase costs record into `obs`, the caller's per-work-item registry.
pub fn check_with(
    web: &impl Fetcher,
    url: &Url,
    term: &str,
    max_hops: usize,
    last: Option<&LastCheck>,
    cache: &JsCache,
    obs: &Registry,
) -> DaggerVerdict {
    let req = Request {
        url: url.clone(),
        user_agent: UserAgent::Browser,
        referrer: Some(google_referrer(term)),
    };
    let (chain, resp) = {
        let _fetch = obs.cost_scope("crawl/fetch");
        charge(WorkKind::DocsFetched, 1);
        let (chain, resp, _) = web.fetch_following(&req, max_hops);
        (chain, resp)
    };
    let inputs = Inputs {
        detector: Detector::VanGogh,
        body: &resp.body,
        page: chain.last().expect("chain non-empty"),
        user_agent: req.user_agent,
        referrer: req.referrer.as_ref(),
        crawler_body: None,
    };
    let conclude = |rendered: Rendered, obs: &Registry| {
        // A JS redirect can also surface here when Dagger was skipped.
        if let Some(target) = rendered.js_redirect {
            return Finding::JsRedirect(target);
        }
        let _detect = obs.cost_scope("crawl/detect");
        rendered
            .iframes()
            .into_iter()
            .find(|(w, h, _)| is_fullpage(w, h))
            .map_or(Finding::Clean, |(_, _, src)| Finding::Iframe(src))
    };
    let (check, reused) = inputs.check(last, conclude, cache, obs);

    let (cloaked, landing) = match &check.finding {
        Finding::JsRedirect(target) => {
            let (landing, follow) = {
                let _fetch = obs.cost_scope("crawl/fetch");
                charge(WorkKind::DocsFetched, 1);
                crate::dagger::follow_js(web, target, &req, max_hops)
            };
            return DaggerVerdict {
                cloaked: Some(CloakSignal::JsRedirect),
                landing,
                user_body: follow.map(|r| r.body).unwrap_or(resp.body),
                cookies: Vec::new(),
                last_check: Some(check),
                reused,
            };
        }
        Finding::Iframe(src) => (Some(CloakSignal::Iframe), Url::parse(src).ok()),
        Finding::ContentDiff | Finding::Clean => (None, None),
    };
    DaggerVerdict {
        cloaked,
        landing,
        user_body: resp.body,
        cookies: resp.cookies,
        last_check: Some(check),
        reused,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_web::http::Response;

    struct IframeWeb;
    impl Fetcher for IframeWeb {
        fn fetch(&self, req: &Request) -> (Response, Vec<ss_web::SideEffect>) {
            let resp = match req.url.host.as_str() {
                // Obfuscated dynamic iframe — only a renderer sees it.
                "dyn.com" => Response::ok(
                    "<p>door</p><script>var p = ['http://sto', 're.com/'];\
                     var f = document.createElement('ifr' + 'ame');\
                     f.setAttribute('width', '100%'); f.setAttribute('height', '100%');\
                     f.src = p.join(''); document.body.appendChild(f);</script>"
                        .into(),
                ),
                // Static big-pixel iframe.
                "static.com" => Response::ok(
                    r#"<iframe src="http://store.com/" width="1280" height="900"></iframe>"#.into(),
                ),
                // Benign ad-sized iframe: must not trip the rule.
                "ads.com" => Response::ok(
                    r#"<p>article text</p><iframe src="http://adnet.com/banner" width="728" height="90"></iframe>"#
                        .into(),
                ),
                _ => Response::ok("<p>plain</p>".into()),
            };
            (resp, Vec::new())
        }
    }

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn catches_dynamic_obfuscated_iframe() {
        let v = check(&IframeWeb, &url("http://dyn.com/p"), "cheap bags", 5);
        assert_eq!(v.cloaked, Some(CloakSignal::Iframe));
        assert_eq!(v.landing.unwrap().host.as_str(), "store.com");
    }

    #[test]
    fn catches_static_fullpage_iframe() {
        let v = check(&IframeWeb, &url("http://static.com/"), "cheap bags", 5);
        assert_eq!(v.cloaked, Some(CloakSignal::Iframe));
    }

    #[test]
    fn ignores_banner_iframes() {
        let v = check(&IframeWeb, &url("http://ads.com/"), "cheap bags", 5);
        assert_eq!(v.cloaked, None);
    }

    #[test]
    fn geometry_rule_matches_the_paper() {
        assert!(is_fullpage("100%", "100%"));
        assert!(is_fullpage("900", "801"));
        assert!(is_fullpage("100%", "1024"));
        assert!(!is_fullpage("100%", "90"));
        assert!(!is_fullpage("728", "90"));
        assert!(!is_fullpage("800", "800"), "strictly larger than 800");
        assert!(!is_fullpage("", ""));
    }
}
