//! Storefront detection and seizure-notice parsing.
//!
//! §4.1.3: a landing site is treated as a counterfeit store when either of
//! two heuristics fires — (1) cookies characteristic of the counterfeit
//! ecosystem (payment processors, e-commerce platforms, web analytics), or
//! (2) the substrings "cart" / "checkout" on the landing page. These are
//! applied *only to landing sites reached through cloaked search results*,
//! which is what keeps legitimate retailers out.
//!
//! §5.3: seized domains serve notice pages naming the brand-protection
//! firm and the court case, with the full list of co-seized domains in the
//! embedded court document.

use ss_web::html::find_ignore_ascii_case;
use ss_web::http::Cookie;
use ss_web::Document;

/// Cookie names the detector associates with counterfeit storefronts:
/// payment processors (§4.1.3 names Realypay, Mallpayment), e-commerce
/// platforms (Zen Cart's `zenid`, Magento's `frontend`), and analytics
/// trackers (Ajstat, CNZZ, 51.la, statcounter).
pub const STORE_COOKIE_NAMES: &[&str] = &[
    "realypay_tk",
    "mallpayment_tk",
    "globalbill_tk",
    "zenid",
    "frontend",
    "cnzz_a",
    "la51_vid",
    "ajstat_uid",
    "sc_is_visitor",
];

/// Result of store detection on a landing page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreVerdict {
    /// Heuristic 1: a known ecosystem cookie was set.
    pub cookie_hit: bool,
    /// Heuristic 2: "cart" or "checkout" appears on the page.
    pub cart_hit: bool,
}

impl StoreVerdict {
    /// "If either of the heuristics succeed, we treat the landing site as
    /// a counterfeit luxury store" (§4.1.3).
    pub fn is_store(self) -> bool {
        self.cookie_hit || self.cart_hit
    }
}

/// Applies both heuristics to a landing page.
pub fn detect_store(body: &str, cookies: &[Cookie]) -> StoreVerdict {
    let cookie_hit = cookies
        .iter()
        .any(|c| STORE_COOKIE_NAMES.contains(&c.name.as_str()));
    let cart_hit = ["cart", "checkout"]
        .iter()
        .any(|word| find_ignore_ascii_case(body, word).is_some());
    StoreVerdict {
        cookie_hit,
        cart_hit,
    }
}

/// A parsed seizure notice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeizureNotice {
    /// The brand-protection firm named on the page.
    pub firm: String,
    /// The court docket id.
    pub case_id: String,
    /// The plaintiff brand.
    pub brand: String,
    /// Domains listed in the embedded court document.
    pub seized_domains: Vec<String>,
}

/// Detects and parses a seizure-notice page; `None` when the page is not a
/// notice.
pub fn parse_seizure_notice(body: &str) -> Option<SeizureNotice> {
    if !body.contains("has been seized") {
        return None;
    }
    let doc = Document::parse(body);
    let text_of = |id: &str| doc.by_id(id).map(|e| e.text_content().trim().to_owned());
    let seized_domains = doc
        .find_all("li")
        .into_iter()
        .filter(|li| li.attr("class") == Some("seized-domain"))
        .map(|li| li.text_content().trim().to_owned())
        .collect();
    Some(SeizureNotice {
        firm: text_of("firm").unwrap_or_default(),
        case_id: text_of("case").unwrap_or_default(),
        brand: text_of("plaintiff").unwrap_or_default(),
        seized_domains,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cookie(name: &str) -> Cookie {
        Cookie {
            name: name.into(),
            value: "v".into(),
        }
    }

    #[test]
    fn cookie_heuristic_fires_on_ecosystem_cookies() {
        let v = detect_store("<p>nothing here</p>", &[cookie("zenid")]);
        assert!(v.cookie_hit && !v.cart_hit && v.is_store());
        let v = detect_store("<p>nothing</p>", &[cookie("cnzz_a")]);
        assert!(v.is_store());
        let v = detect_store("<p>nothing</p>", &[cookie("realypay_tk")]);
        assert!(v.is_store());
    }

    #[test]
    fn cart_heuristic_fires_on_substrings() {
        let v = detect_store("<a href=\"/cart\">View Cart</a>", &[]);
        assert!(v.cart_hit && v.is_store());
        let v = detect_store("<a>Proceed to CHECKOUT</a>", &[]);
        assert!(v.is_store());
        let v = detect_store("<a>ChEcK oUt your cArT</a>", &[]);
        assert!(v.cart_hit);
        let v = detect_store("<a>Chéck out the carton</a>", &[]);
        assert!(v.cart_hit, "\"carton\" contains \"cart\"");
        assert!(!detect_store("<a>Chéck out</a>", &[]).cart_hit);
    }

    #[test]
    fn neither_heuristic_fires_on_plain_pages() {
        let v = detect_store("<p>a blog about travel</p>", &[cookie("session")]);
        assert!(!v.is_store());
    }

    #[test]
    fn notice_parsing_roundtrips_generator_output() {
        let seized = vec![
            "cocoviphandbags.com".to_owned(),
            "other-store.net".to_owned(),
        ];
        let html = ss_web::pagegen::notice::page(&ss_web::pagegen::notice::NoticeCtx {
            domain: "cocoviphandbags.com",
            firm: "Greer, Burns & Crain",
            case_id: "14-cv-02317",
            brand: "Chanel",
            seized_domains: &seized,
        });
        let n = parse_seizure_notice(&html).unwrap();
        assert_eq!(n.firm, "Greer, Burns & Crain");
        assert_eq!(n.case_id, "14-cv-02317");
        assert_eq!(n.brand, "Chanel");
        assert_eq!(n.seized_domains, seized);
    }

    #[test]
    fn ordinary_pages_are_not_notices() {
        assert_eq!(parse_seizure_notice("<p>shop our catalog</p>"), None);
    }
}
