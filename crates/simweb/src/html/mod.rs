//! HTML: escaping, tokenizing, parsing, and a small query-oriented DOM.
//!
//! The crawler needs to parse pages it did not generate (it only sees
//! response bodies), extract visible text for the Dagger semantic diff,
//! find `<script>` payloads for the VanGogh renderer, measure `<iframe>`
//! geometry, harvest `<a href>` links, and pull tag/attribute/value triplets
//! for the campaign classifier. This module provides exactly that: a
//! forgiving tokenizer plus a stack-based tree builder in the spirit of (a
//! tiny fraction of) the HTML5 parsing algorithm.

mod dom;
mod token;

pub use dom::{Document, Element, Node};
pub use token::{tokenize, Token};

/// Escapes text for safe inclusion as HTML character data.
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => out.push(c),
        }
    }
    out
}

/// Escapes text for inclusion inside a double-quoted attribute value.
pub fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// Byte offset of the first ASCII-case-insensitive occurrence of `needle`
/// in `haystack` — what `find` returns on both strings lowercased with
/// `to_ascii_lowercase` — found without copying either string.
pub fn find_ignore_ascii_case(haystack: &str, needle: &str) -> Option<usize> {
    let (hay, pat) = (haystack.as_bytes(), needle.as_bytes());
    let Some(&first) = pat.first() else {
        return Some(0);
    };
    let first = first.to_ascii_lowercase();
    (0..=hay.len().checked_sub(pat.len())?).find(|&i| {
        hay[i].to_ascii_lowercase() == first && hay[i..i + pat.len()].eq_ignore_ascii_case(pat)
    })
}

/// Decodes the named and numeric entities the generators emit.
pub fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        let semi = rest.find(';').filter(|&i| i <= 10);
        match semi {
            Some(i) => {
                let ent = &rest[1..i];
                let decoded = match ent {
                    "amp" => Some('&'),
                    "lt" => Some('<'),
                    "gt" => Some('>'),
                    "quot" => Some('"'),
                    "apos" => Some('\''),
                    "nbsp" => Some(' '),
                    _ => ent
                        .strip_prefix('#')
                        .and_then(|n| n.parse::<u32>().ok())
                        .and_then(char::from_u32),
                };
                match decoded {
                    Some(c) => {
                        out.push(c);
                        rest = &rest[i + 1..];
                    }
                    None => {
                        out.push('&');
                        rest = &rest[1..];
                    }
                }
            }
            None => {
                out.push('&');
                rest = &rest[1..];
            }
        }
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn escape_and_unescape() {
        assert_eq!(escape_text("a<b & c>d"), "a&lt;b &amp; c&gt;d");
        assert_eq!(
            escape_attr(r#"say "hi" <now>"#),
            "say &quot;hi&quot; &lt;now>"
        );
        assert_eq!(unescape("a&lt;b &amp; c&gt;d"), "a<b & c>d");
        assert_eq!(unescape("&#65;&#66;"), "AB");
        assert_eq!(unescape("no entities"), "no entities");
        assert_eq!(unescape("dangling & amp"), "dangling & amp");
        assert_eq!(unescape("&bogus;"), "&bogus;");
    }

    #[test]
    fn case_insensitive_find_matches_lowercased_find() {
        assert_eq!(find_ignore_ascii_case("<p>View CART</p>", "cart"), Some(8));
        assert_eq!(find_ignore_ascii_case("x</SCRIPT >", "</script"), Some(1));
        assert_eq!(find_ignore_ascii_case("Çart cart", "cart"), Some(6));
        assert_eq!(find_ignore_ascii_case("car", "cart"), None);
        assert_eq!(find_ignore_ascii_case("", ""), Some(0));
    }

    proptest! {
        #[test]
        fn escape_roundtrip(s in "[ -~]{0,60}") {
            prop_assert_eq!(unescape(&escape_text(&s)), s.clone());
            prop_assert_eq!(unescape(&escape_attr(&s)), s);
        }

        #[test]
        fn case_insensitive_find_equals_lowercase_copy(
            hay in "[a-dA-D<>/é ]{0,40}",
            needle in "[a-dA-D</]{0,4}",
        ) {
            prop_assert_eq!(
                find_ignore_ascii_case(&hay, &needle),
                hay.to_ascii_lowercase().find(&needle.to_ascii_lowercase())
            );
        }
    }
}
