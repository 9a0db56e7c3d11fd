//! Validated domain names.
//!
//! The simulator registers tens of thousands of synthetic domains (doorways,
//! storefronts, legitimate sites, seizure-notice hosts). A [`DomainName`] is
//! a lower-cased, dot-separated sequence of LDH labels — the subset of real
//! DNS syntax the study needs. Validation up front means the crawler, the
//! hosting registry and the seizure court documents can all trust the string.

use std::fmt;

use crate::error::{Error, Result};

/// A validated, normalized (lower-case) domain name such as
/// `cocovipbags.com`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomainName(String);

impl DomainName {
    /// Maximum total length we accept (the DNS limit is 253).
    pub const MAX_LEN: usize = 253;
    /// Maximum label length (DNS limit).
    pub const MAX_LABEL: usize = 63;

    /// Parses and normalizes a domain name.
    ///
    /// Rules enforced: at least two labels, every label 1–63 chars of
    /// `[a-z0-9-]`, no leading/trailing hyphen in a label, total ≤ 253
    /// bytes, final label (TLD) alphabetic. One pass over the bytes
    /// validates and lower-cases into the only allocation.
    pub fn parse(s: &str) -> Result<Self> {
        let bad = || Error::InvalidDomain(s.into());
        let t = s.trim();
        if t.is_empty() || t.len() > Self::MAX_LEN {
            return Err(bad());
        }
        let mut out = String::with_capacity(t.len());
        let mut labels = 1;
        // The current label: its length, whether it is all letters, and
        // the byte before this one (`.` at a label start).
        let mut label_len = 0;
        let mut alphabetic = true;
        let mut prev = b'.';
        for b in t.bytes() {
            match b {
                b'.' if label_len == 0 || prev == b'-' => return Err(bad()),
                b'.' => {
                    labels += 1;
                    label_len = 0;
                    alphabetic = true;
                }
                b'-' if label_len == 0 => return Err(bad()),
                b'-' | b'0'..=b'9' | b'a'..=b'z' | b'A'..=b'Z' => {
                    label_len += 1;
                    if label_len > Self::MAX_LABEL {
                        return Err(bad());
                    }
                    alphabetic &= b.is_ascii_alphabetic();
                }
                _ => return Err(bad()),
            }
            out.push(char::from(b.to_ascii_lowercase()));
            prev = b;
        }
        if labels < 2 || label_len == 0 || prev == b'-' || !alphabetic {
            return Err(bad());
        }
        Ok(DomainName(out))
    }

    /// The normalized name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The registrable "root" of the domain: its last two labels.
    ///
    /// Google's "hacked" label applies to the *root* of a site (§5.2.2); the
    /// simulator and the label-coverage analysis both key on this.
    pub fn root(&self) -> &str {
        let mut dots = self.0.rmatch_indices('.').map(|(i, _)| i);
        let _tld_dot = dots.next();
        match dots.next() {
            Some(i) => &self.0[i + 1..],
            None => &self.0,
        }
    }

    /// Whether this name is a subdomain (has more than two labels).
    pub fn is_subdomain(&self) -> bool {
        self.0.bytes().filter(|&b| b == b'.').count() > 1
    }
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::str::FromStr for DomainName {
    type Err = Error;
    fn from_str(s: &str) -> Result<Self> {
        DomainName::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The label-splitting parser the one-pass [`DomainName::parse`]
    /// replaced, kept as its oracle.
    fn parse_reference(s: &str) -> Result<DomainName> {
        let lowered = s.trim().to_ascii_lowercase();
        if lowered.is_empty() || lowered.len() > DomainName::MAX_LEN {
            return Err(Error::InvalidDomain(s.into()));
        }
        let labels: Vec<&str> = lowered.split('.').collect();
        if labels.len() < 2 {
            return Err(Error::InvalidDomain(s.into()));
        }
        for label in &labels {
            let ok = !label.is_empty()
                && label.len() <= DomainName::MAX_LABEL
                && label
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'-')
                && !label.starts_with('-')
                && !label.ends_with('-');
            if !ok {
                return Err(Error::InvalidDomain(s.into()));
            }
        }
        let tld = labels.last().expect("at least two labels");
        if !tld.bytes().all(|b| b.is_ascii_alphabetic()) {
            return Err(Error::InvalidDomain(s.into()));
        }
        Ok(DomainName(lowered))
    }

    /// A fuzz string: labels drawn from a skewed alphabet (mixed case,
    /// digits, `-`, `_`, non-ASCII), label lengths around the 63-byte
    /// limit, empty labels, and optional surrounding whitespace.
    fn fuzz_name(rng: &mut crate::rng::SimRng) -> String {
        use rand::Rng;
        const ALPHABET: &[char] = &[
            'a', 'b', 'z', 'A', 'Q', 'Z', '0', '7', '9', '-', '_', ' ', 'é', 'ß', '日',
        ];
        let mut s = String::new();
        if rng.gen_bool(0.1) {
            s.push_str([" ", "\t", "\n ", "\u{a0}"][rng.gen_range(0..4)]);
        }
        for i in 0..rng.gen_range(1..6) {
            if i > 0 {
                s.push('.');
            }
            let len = match rng.gen_range(0..12) {
                0 => 0,
                1 | 2 => rng.gen_range(62..65),
                _ => rng.gen_range(1..12),
            };
            for _ in 0..len {
                let c = if rng.gen_bool(0.9) {
                    ['a', 'k', 'x', 'B', 'M'][rng.gen_range(0..5)]
                } else {
                    ALPHABET[rng.gen_range(0..ALPHABET.len())]
                };
                s.push(c);
            }
        }
        if rng.gen_bool(0.1) {
            s.push_str([" ", "\r\n", "\t\t"][rng.gen_range(0..3)]);
        }
        s
    }

    /// Names of exactly `total` bytes built from 63-byte labels.
    fn name_of_len(total: usize) -> String {
        let mut s = String::new();
        while s.len() + 64 < total - 4 {
            s.push_str(&"a".repeat(63));
            s.push('.');
        }
        let last = total - 4 - s.len();
        s.push_str(&"b".repeat(last));
        s.push_str(".com");
        assert_eq!(s.len(), total);
        s
    }

    #[test]
    fn one_pass_parse_agrees_with_the_reference() {
        let mut cases: Vec<String> = [
            "Example.COM",
            "  shop.Example.co\t",
            "\u{2003}a.com",
            "ünicode.com",
            "a.cöm",
            "-lead.com",
            "trail-.com",
            "a.-com",
            "a.com-",
            "mid-dle.com",
            "a.c0m",
            "a.123",
            "1.2.3.com",
            "a..com",
            ".a.com",
            "a.com.",
            ".",
            "..",
            "com",
            "",
            "   ",
            "a b.com",
            "a_b.com",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        for label in [62, 63, 64] {
            cases.push(format!("{}.com", "x".repeat(label)));
            cases.push(format!("a.{}", "y".repeat(label)));
        }
        for total in [252, 253, 254] {
            cases.push(name_of_len(total));
            cases.push(format!(" {} ", name_of_len(total)));
        }
        let mut rng = crate::rng::sub_rng(7, "domain-fuzz");
        cases.extend((0..20_000).map(|_| fuzz_name(&mut rng)));
        let mut accepted = 0;
        for s in &cases {
            let (fast, slow) = (DomainName::parse(s), parse_reference(s));
            assert_eq!(fast, slow, "{s:?}");
            accepted += usize::from(fast.is_ok());
        }
        assert!(accepted > 1_500, "the fuzz accepted only {accepted} names");
    }

    #[test]
    fn accepts_typical_names() {
        for s in [
            "example.com",
            "cocovipbags.com",
            "shop.example.co",
            "a-b.example.org",
            "EXAMPLE.COM",
        ] {
            let d = DomainName::parse(s).unwrap();
            assert_eq!(d.as_str(), s.to_ascii_lowercase());
        }
    }

    #[test]
    fn rejects_bad_names() {
        for s in [
            "",
            "nodots",
            ".com",
            "a..com",
            "-bad.com",
            "bad-.com",
            "bad.c0m1.999",
            "sp ace.com",
            "under_score.com",
        ] {
            assert!(DomainName::parse(s).is_err(), "{s:?} should be rejected");
        }
    }

    #[test]
    fn root_strips_subdomains() {
        let d = DomainName::parse("blog.shop.example.com").unwrap();
        assert_eq!(d.root(), "example.com");
        assert!(d.is_subdomain());
        let r = DomainName::parse("example.com").unwrap();
        assert_eq!(r.root(), "example.com");
        assert!(!r.is_subdomain());
    }

    proptest! {
        #[test]
        fn parse_is_idempotent(label in "[a-z0-9]{1,10}", tld in "[a-z]{2,4}") {
            let s = format!("{label}.{tld}");
            let d = DomainName::parse(&s).unwrap();
            let d2 = DomainName::parse(d.as_str()).unwrap();
            prop_assert_eq!(d, d2);
        }
    }
}
