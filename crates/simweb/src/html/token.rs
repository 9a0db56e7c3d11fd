//! The HTML tokenizer.
//!
//! A forgiving, single-pass tokenizer producing start/end tags with parsed
//! attributes, text runs, comments, and raw-text elements (`<script>`,
//! `<style>`) whose contents are captured verbatim until the matching close
//! tag — which is what lets the renderer hand script bodies to the JS
//! interpreter untouched.

/// One lexical token of an HTML document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// `<tag attr="v">`; `self_closing` records a trailing `/`.
    Start {
        /// Lower-cased tag name.
        tag: String,
        /// Attributes in document order, values entity-decoded.
        attrs: Vec<(String, String)>,
        /// Whether the tag ended with `/>`.
        self_closing: bool,
    },
    /// `</tag>`.
    End {
        /// Lower-cased tag name.
        tag: String,
    },
    /// A run of character data (entity-decoded).
    Text(String),
    /// `<!-- … -->` contents.
    Comment(String),
}

/// Elements whose content is raw text up to the matching end tag.
fn is_raw_text(tag: &str) -> bool {
    matches!(tag, "script" | "style")
}

/// Tokenizes an HTML document. Never fails: malformed markup degrades to
/// text, mirroring browser behaviour.
pub fn tokenize(input: &str) -> Vec<Token> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    let mut text_start = 0;

    let flush_text = |tokens: &mut Vec<Token>, from: usize, to: usize| {
        if from < to {
            let raw = &input[from..to];
            if !raw.is_empty() {
                tokens.push(Token::Text(super::unescape(raw)));
            }
        }
    };

    while i < bytes.len() {
        if bytes[i] != b'<' {
            i += 1;
            continue;
        }
        // Comment?
        if input[i..].starts_with("<!--") {
            flush_text(&mut tokens, text_start, i);
            let body_start = i + 4;
            let end = input[body_start..].find("-->").map(|e| body_start + e);
            match end {
                Some(e) => {
                    tokens.push(Token::Comment(input[body_start..e].to_owned()));
                    i = e + 3;
                }
                None => {
                    tokens.push(Token::Comment(input[body_start..].to_owned()));
                    i = bytes.len();
                }
            }
            text_start = i;
            continue;
        }
        // Doctype / processing noise: skip to '>'.
        if input[i..].starts_with("<!") || input[i..].starts_with("<?") {
            flush_text(&mut tokens, text_start, i);
            i = input[i..]
                .find('>')
                .map(|e| i + e + 1)
                .unwrap_or(bytes.len());
            text_start = i;
            continue;
        }
        // End tag.
        if input[i..].starts_with("</") {
            let close = input[i..].find('>');
            match close {
                Some(e) => {
                    flush_text(&mut tokens, text_start, i);
                    let name = input[i + 2..i + e].trim().to_ascii_lowercase();
                    if !name.is_empty() && name.bytes().all(|b| b.is_ascii_alphanumeric()) {
                        tokens.push(Token::End { tag: name });
                    }
                    i += e + 1;
                    text_start = i;
                }
                None => {
                    i += 1;
                }
            }
            continue;
        }
        // Start tag: must begin with a letter, else literal '<' text.
        let next = bytes.get(i + 1).copied().unwrap_or(0);
        if !next.is_ascii_alphabetic() {
            i += 1;
            continue;
        }
        match parse_start_tag(&input[i..]) {
            Some((tag, attrs, self_closing, consumed)) => {
                flush_text(&mut tokens, text_start, i);
                i += consumed;
                text_start = i;
                let raw = is_raw_text(&tag) && !self_closing;
                tokens.push(Token::Start {
                    tag: tag.clone(),
                    attrs,
                    self_closing,
                });
                if raw {
                    // Capture raw content verbatim until the close tag.
                    let close_pat = format!("</{tag}");
                    let rest = &input[i..];
                    match super::find_ignore_ascii_case(rest, &close_pat) {
                        Some(e) => {
                            if e > 0 {
                                tokens.push(Token::Text(rest[..e].to_owned()));
                            }
                            let after = i + e;
                            let gt = input[after..]
                                .find('>')
                                .map(|g| after + g + 1)
                                .unwrap_or(bytes.len());
                            tokens.push(Token::End { tag });
                            i = gt;
                            text_start = i;
                        }
                        None => {
                            tokens.push(Token::Text(rest.to_owned()));
                            tokens.push(Token::End { tag });
                            i = bytes.len();
                            text_start = i;
                        }
                    }
                }
            }
            None => {
                i += 1;
            }
        }
    }
    flush_text(&mut tokens, text_start, bytes.len());
    tokens
}

/// Parsed `<name attrs…>`: `(tag, attrs, self_closing, bytes_consumed)`.
type StartTag = (String, Vec<(String, String)>, bool, usize);

/// Parses `<name attrs…>` at the start of `s`.
fn parse_start_tag(s: &str) -> Option<StartTag> {
    let bytes = s.as_bytes();
    debug_assert_eq!(bytes[0], b'<');
    let mut i = 1;
    let name_start = i;
    while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'-') {
        i += 1;
    }
    if i == name_start {
        return None;
    }
    let tag = s[name_start..i].to_ascii_lowercase();
    let mut attrs = Vec::new();
    let mut self_closing = false;
    loop {
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= bytes.len() {
            return None; // unterminated tag: treat as text
        }
        match bytes[i] {
            b'>' => return Some((tag, attrs, self_closing, i + 1)),
            b'/' => {
                self_closing = true;
                i += 1;
            }
            _ => {
                // Attribute name.
                let an = i;
                while i < bytes.len()
                    && !bytes[i].is_ascii_whitespace()
                    && !matches!(bytes[i], b'=' | b'>' | b'/')
                {
                    i += 1;
                }
                if i == an {
                    return None;
                }
                let name = s[an..i].to_ascii_lowercase();
                while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                    i += 1;
                }
                let mut value = String::new();
                if i < bytes.len() && bytes[i] == b'=' {
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                        i += 1;
                    }
                    if i < bytes.len() && (bytes[i] == b'"' || bytes[i] == b'\'') {
                        let quote = bytes[i];
                        i += 1;
                        let vs = i;
                        while i < bytes.len() && bytes[i] != quote {
                            i += 1;
                        }
                        if i >= bytes.len() {
                            return None;
                        }
                        value = super::unescape(&s[vs..i]);
                        i += 1;
                    } else {
                        let vs = i;
                        while i < bytes.len() && !bytes[i].is_ascii_whitespace() && bytes[i] != b'>'
                        {
                            i += 1;
                        }
                        value = super::unescape(&s[vs..i]);
                    }
                }
                attrs.push((name, value));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(tag: &str, attrs: &[(&str, &str)]) -> Token {
        Token::Start {
            tag: tag.into(),
            attrs: attrs
                .iter()
                .map(|(k, v)| ((*k).into(), (*v).into()))
                .collect(),
            self_closing: false,
        }
    }

    #[test]
    fn tokenizes_simple_markup() {
        let t = tokenize(r#"<html><body class="x">Hi <b>there</b></body></html>"#);
        assert_eq!(
            t,
            vec![
                start("html", &[]),
                start("body", &[("class", "x")]),
                Token::Text("Hi ".into()),
                start("b", &[]),
                Token::Text("there".into()),
                Token::End { tag: "b".into() },
                Token::End { tag: "body".into() },
                Token::End { tag: "html".into() },
            ]
        );
    }

    #[test]
    fn script_contents_are_raw() {
        let t = tokenize(
            r#"<script type="text/javascript">if (a < b) { x("</s" + "cript>"); }</script>done"#,
        );
        assert_eq!(t[0], start("script", &[("type", "text/javascript")]));
        match &t[1] {
            Token::Text(s) => assert!(s.contains("a < b"), "{s}"),
            other => panic!("expected raw text, got {other:?}"),
        }
        assert_eq!(
            t[2],
            Token::End {
                tag: "script".into()
            }
        );
        assert_eq!(t[3], Token::Text("done".into()));
    }

    #[test]
    fn comments_and_doctype() {
        let t = tokenize("<!DOCTYPE html><!-- note --><p>x</p>");
        assert_eq!(t[0], Token::Comment(" note ".into()));
        assert_eq!(t[1], start("p", &[]));
    }

    #[test]
    fn attribute_styles() {
        let t = tokenize(r#"<iframe width="100%" height=900 allowfullscreen src='/a?b=1'/>"#);
        match &t[0] {
            Token::Start {
                tag,
                attrs,
                self_closing,
            } => {
                assert_eq!(tag, "iframe");
                assert!(self_closing);
                assert_eq!(
                    attrs,
                    &vec![
                        ("width".to_owned(), "100%".to_owned()),
                        ("height".to_owned(), "900".to_owned()),
                        ("allowfullscreen".to_owned(), String::new()),
                        ("src".to_owned(), "/a?b=1".to_owned()),
                    ]
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_markup_degrades_to_text() {
        let t = tokenize("a < b and <1notatag> and <unclosed");
        let text: String = t
            .iter()
            .map(|tok| match tok {
                Token::Text(s) => s.as_str(),
                _ => "",
            })
            .collect();
        assert!(text.contains("a < b"));
        assert!(text.contains("<1notatag>"));
        assert!(text.contains("<unclosed"));
    }

    #[test]
    fn entities_decoded_in_text_and_attrs() {
        let t = tokenize(r#"<a title="A &amp; B">x &lt; y</a>"#);
        assert_eq!(t[0], start("a", &[("title", "A & B")]));
        assert_eq!(t[1], Token::Text("x < y".into()));
    }

    #[test]
    fn uppercase_tags_normalized() {
        let t = tokenize("<DIV CLASS=\"a\">x</DIV>");
        assert_eq!(t[0], start("div", &[("class", "a")]));
        assert_eq!(t[2], Token::End { tag: "div".into() });
    }
}
