//! Structural diff of run manifests.
//!
//! `repro diff` and the sweep report both need to answer one question:
//! *do two runs describe the same measurement*, ignoring how long the
//! machine took to produce it? This module parses manifest JSON back
//! into the in-tree [`serde::Value`] (the vendored `serde_json` shim is
//! writer-only, so the parser lives here), then walks both trees and
//! reports every path where they disagree — except wall-clock fields:
//!
//! * `stage_timings` and `cost_timings` subtrees (durations, the wall
//!   rows included), plus `spans`, the wall-clock section manifests
//!   carried before wall frames joined `cost_timings`, so an older
//!   manifest still compares, and
//! * any field named `elapsed_ms`, at any depth.
//!
//! Everything else — headline counts, calibration statuses, per-day
//! deterministic counters, the metric registry — must match for two
//! manifests to be considered equal.

use serde::Value;

/// Map keys whose entire subtree is wall-clock and excluded from diffs.
const WALL_CLOCK_SUBTREES: &[&str] = &["stage_timings", "spans", "cost_timings"];
/// Field names that hold wall-clock scalars wherever they appear.
const WALL_CLOCK_FIELDS: &[&str] = &["elapsed_ms"];

/// One path where the two manifests disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Dotted path from the root, e.g. `headline.test_orders` or
    /// `days[3].purchases`.
    pub path: String,
    /// Rendered value on the left side; `None` if the path is absent.
    pub left: Option<String>,
    /// Rendered value on the right side; `None` if the path is absent.
    pub right: Option<String>,
    /// `right - left` when both sides are numeric.
    pub delta: Option<f64>,
}

impl std::fmt::Display for DiffEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let left = self.left.as_deref().unwrap_or("(absent)");
        let right = self.right.as_deref().unwrap_or("(absent)");
        write!(f, "{}: {} -> {}", self.path, left, right)?;
        if let Some(d) = self.delta {
            write!(f, " ({d:+})")?;
        }
        Ok(())
    }
}

/// Diffs two manifest values, ignoring wall-clock fields. Returns an
/// empty vec iff the manifests agree on everything deterministic.
pub fn diff(a: &Value, b: &Value) -> Vec<DiffEntry> {
    let mut out = Vec::new();
    walk("", Some(a), Some(b), &mut out);
    out
}

fn render(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_else(|_| "<unrenderable>".into())
}

fn numeric(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn record(path: &str, a: Option<&Value>, b: Option<&Value>, out: &mut Vec<DiffEntry>) {
    let delta = match (a.and_then(numeric), b.and_then(numeric)) {
        (Some(x), Some(y)) => Some(y - x),
        _ => None,
    };
    out.push(DiffEntry {
        path: path.to_string(),
        left: a.map(render),
        right: b.map(render),
        delta,
    });
}

fn lookup<'v>(map: &'v [(String, Value)], key: &str) -> Option<&'v Value> {
    map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn walk(path: &str, a: Option<&Value>, b: Option<&Value>, out: &mut Vec<DiffEntry>) {
    match (a, b) {
        (None, None) => {}
        (Some(Value::Map(ma)), Some(Value::Map(mb))) => {
            // Visit keys in left-side order, then right-only keys, so
            // the report reads in manifest order.
            for (k, va) in ma {
                if ignored(k) {
                    continue;
                }
                let sub = join(path, k);
                walk(&sub, Some(va), lookup(mb, k), out);
            }
            for (k, vb) in mb {
                if ignored(k) || lookup(ma, k).is_some() {
                    continue;
                }
                let sub = join(path, k);
                walk(&sub, None, Some(vb), out);
            }
        }
        (Some(Value::Seq(sa)), Some(Value::Seq(sb))) => {
            for i in 0..sa.len().max(sb.len()) {
                let sub = format!("{path}[{i}]");
                walk(&sub, sa.get(i), sb.get(i), out);
            }
        }
        (Some(va), Some(vb)) => {
            if !scalar_eq(va, vb) {
                record(path, Some(va), Some(vb), out);
            }
        }
        (a, b) => record(path, a, b, out),
    }
}

fn ignored(key: &str) -> bool {
    WALL_CLOCK_SUBTREES.contains(&key) || WALL_CLOCK_FIELDS.contains(&key)
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// Structural equality on non-container values (containers are recursed
/// into by [`walk`], so a container here means a shape mismatch).
fn scalar_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Str(x), Value::Str(y)) => x == y,
        // Numbers compare by value across representations: the writer
        // emits `1.0` as Float and `1` as UInt, but they are the same
        // measurement.
        (Value::Int(_) | Value::UInt(_) | Value::Float(_), _)
            if numeric(a).is_some() && numeric(b).is_some() =>
        {
            numeric(a) == numeric(b)
        }
        _ => false,
    }
}

/// One event kind's comparison between two manifests' `event_trail`
/// sections: totals on both sides plus the first day whose (count, hash)
/// row disagrees.
#[derive(Debug, Clone, PartialEq)]
pub struct TrailKindDiff {
    /// Event-kind tag.
    pub kind: String,
    /// Total events of the kind on the left / right side (`None` when
    /// the kind is absent on that side).
    pub left: Option<u64>,
    /// Right-side total.
    pub right: Option<u64>,
    /// First day index where the per-day rows disagree, if any.
    pub first_divergence: Option<u32>,
}

impl std::fmt::Display for TrailKindDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fmt_side = |s: Option<u64>| s.map(|n| n.to_string()).unwrap_or_else(|| "—".into());
        write!(
            f,
            "{}: {} -> {} events",
            self.kind,
            fmt_side(self.left),
            fmt_side(self.right)
        )?;
        match self.first_divergence {
            Some(day) => write!(f, ", first divergence day {day}"),
            None => write!(f, ", per-day rows agree"),
        }
    }
}

/// Compares the `event_trail` sections of two parsed manifests and
/// reports, per event kind, the totals and the first divergent day.
/// Kinds whose summaries match exactly are omitted; an empty result
/// means the committed event logs agree. Manifests written before the
/// trail section existed compare as empty trails.
pub fn trail_diff(a: &Value, b: &Value) -> Vec<TrailKindDiff> {
    // One side's summary of a kind: (kind, total, per-day (day, count, hash)).
    type KindRows = (String, u64, Vec<(u32, u64, String)>);
    let kinds_of = |v: &Value| -> Vec<KindRows> {
        let Value::Map(root) = v else {
            return Vec::new();
        };
        let Some(Value::Seq(trail)) = lookup(root, "event_trail") else {
            return Vec::new();
        };
        trail
            .iter()
            .filter_map(|entry| {
                let Value::Map(m) = entry else { return None };
                let kind = match lookup(m, "kind") {
                    Some(Value::Str(s)) => s.clone(),
                    _ => return None,
                };
                let count = match lookup(m, "count") {
                    Some(Value::UInt(n)) => *n,
                    _ => 0,
                };
                let days = match lookup(m, "days") {
                    Some(Value::Seq(rows)) => rows
                        .iter()
                        .filter_map(|row| {
                            let Value::Map(r) = row else { return None };
                            let day = match lookup(r, "day") {
                                Some(Value::UInt(d)) => *d as u32,
                                _ => return None,
                            };
                            let count = match lookup(r, "count") {
                                Some(Value::UInt(n)) => *n,
                                _ => 0,
                            };
                            let hash = match lookup(r, "hash") {
                                Some(Value::Str(h)) => h.clone(),
                                _ => String::new(),
                            };
                            Some((day, count, hash))
                        })
                        .collect(),
                    _ => Vec::new(),
                };
                Some((kind, count, days))
            })
            .collect()
    };
    let left = kinds_of(a);
    let right = kinds_of(b);
    let mut kinds: Vec<&str> = left
        .iter()
        .map(|(k, _, _)| k.as_str())
        .chain(right.iter().map(|(k, _, _)| k.as_str()))
        .collect();
    kinds.sort_unstable();
    kinds.dedup();
    let mut out = Vec::new();
    for kind in kinds {
        let l = left.iter().find(|(k, _, _)| k == kind);
        let r = right.iter().find(|(k, _, _)| k == kind);
        let first_divergence = {
            let ld = l.map(|(_, _, d)| d.as_slice()).unwrap_or(&[]);
            let rd = r.map(|(_, _, d)| d.as_slice()).unwrap_or(&[]);
            let mut days: Vec<u32> = ld
                .iter()
                .map(|(d, _, _)| *d)
                .chain(rd.iter().map(|(d, _, _)| *d))
                .collect();
            days.sort_unstable();
            days.dedup();
            days.into_iter().find(|d| {
                let lrow = ld.iter().find(|(x, _, _)| x == d);
                let rrow = rd.iter().find(|(x, _, _)| x == d);
                lrow != rrow
            })
        };
        let entry = TrailKindDiff {
            kind: kind.to_owned(),
            left: l.map(|(_, c, _)| *c),
            right: r.map(|(_, c, _)| *c),
            first_divergence,
        };
        if entry.left != entry.right || entry.first_divergence.is_some() {
            out.push(entry);
        }
    }
    out
}

/// Deepest object/array nesting [`parse_json`] accepts. Manifests nest
/// about five levels; the cap keeps hostile input from overflowing the
/// recursive parser's stack.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document into the in-tree [`Value`].
///
/// Accepts exactly what the vendored writer emits (objects, arrays,
/// strings with escapes, numbers, booleans, null) plus arbitrary
/// whitespace; rejects trailing garbage and nesting deeper than
/// [`MAX_DEPTH`]. Numbers without `.`/`e` parse as `UInt` (or `Int` when
/// negative), matching the writer's choices so a parse/serialize round
/// trip is stable.
pub fn parse_json(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Objects and arrays open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                c as char,
                self.pos,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            )),
        }
    }

    /// Parses one object or array one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            entries.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pair: \uD8xx must be followed by
                            // a low surrogate escape.
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((cp - 0xD800) << 10)
                                        + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            s.push(ch.ok_or_else(|| {
                                format!("invalid \\u escape near byte {}", self.pos)
                            })?);
                        }
                        other => {
                            return Err(format!("invalid escape '\\{}'", other as char));
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar straight from the input
                    // `&str`: `pos` sits on a char boundary here.
                    let ch = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or("unterminated string")?;
                    s.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let chunk = self
            .bytes
            .get(self.pos..end)
            .ok_or("truncated \\u escape")?;
        let text = std::str::from_utf8(chunk).map_err(|e| e.to_string())?;
        let cp = u32::from_str_radix(text, 16).map_err(|e| e.to_string())?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(test_orders: u64, elapsed: f64) -> Value {
        Value::Map(vec![
            ("seed".into(), Value::UInt(7)),
            (
                "headline".into(),
                Value::Map(vec![
                    ("psrs".into(), Value::UInt(120)),
                    ("test_orders".into(), Value::UInt(test_orders)),
                ]),
            ),
            (
                "stage_timings".into(),
                Value::Map(vec![("crawl".into(), Value::Float(elapsed))]),
            ),
            (
                "days".into(),
                Value::Seq(vec![Value::Map(vec![
                    ("day".into(), Value::UInt(131)),
                    ("elapsed_ms".into(), Value::Float(elapsed)),
                ])]),
            ),
        ])
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let v = manifest(9, 1.25);
        let text = serde_json::to_string_pretty(&v).expect("renders");
        let parsed = parse_json(&text).expect("parses");
        assert!(diff(&v, &parsed).is_empty());
        // And the re-rendered text is byte-identical: the parser keeps
        // the writer's number representations.
        assert_eq!(
            serde_json::to_string_pretty(&parsed).expect("renders"),
            text
        );
    }

    #[test]
    fn parse_handles_escapes_and_rejects_garbage() {
        let v =
            parse_json(r#"{"a": "tab\tquote\" é", "b": [-3, 2.5, null, true]}"#).expect("parses");
        match &v {
            Value::Map(m) => {
                assert_eq!(m[0].1, Value::Str("tab\tquote\" \u{e9}".into()));
                assert_eq!(
                    m[1].1,
                    Value::Seq(vec![
                        Value::Int(-3),
                        Value::Float(2.5),
                        Value::Null,
                        Value::Bool(true)
                    ])
                );
            }
            other => panic!("expected map, got {other:?}"),
        }
        assert!(parse_json("{\"a\": 1} trailing").is_err());
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("[1, 2").is_err());
    }

    #[test]
    fn wall_clock_differences_are_ignored() {
        let a = manifest(9, 1.0);
        let b = manifest(9, 99.0);
        assert!(diff(&a, &b).is_empty(), "timing-only changes must not diff");
    }

    #[test]
    fn deterministic_differences_are_reported_with_deltas() {
        let a = manifest(9, 1.0);
        let b = manifest(12, 1.0);
        let d = diff(&a, &b);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].path, "headline.test_orders");
        assert_eq!(d[0].delta, Some(3.0));
        assert_eq!(d[0].to_string(), "headline.test_orders: 9 -> 12 (+3)");
    }

    #[test]
    fn missing_paths_and_shape_changes_are_reported() {
        let a = parse_json(r#"{"x": 1, "y": [1, 2]}"#).unwrap();
        let b = parse_json(r#"{"x": {"nested": 1}, "y": [1]}"#).unwrap();
        let d = diff(&a, &b);
        let paths: Vec<_> = d.iter().map(|e| e.path.as_str()).collect();
        assert_eq!(paths, ["x", "y[1]"]);
        assert_eq!(d[1].right, None);
    }

    #[test]
    fn trail_diff_reports_first_divergent_day_per_kind() {
        let mk = |day2_hash: &str, rotate_count: u64| {
            parse_json(&format!(
                r#"{{"event_trail": [
                    {{"kind": "rotate", "count": {rotate_count}, "days": [
                        {{"day": 1, "count": 2, "hash": "aaaa"}},
                        {{"day": 2, "count": 1, "hash": "{day2_hash}"}}
                    ]}},
                    {{"kind": "file-case", "count": 3, "days": [
                        {{"day": 2, "count": 3, "hash": "cccc"}}
                    ]}}
                ]}}"#
            ))
            .expect("parses")
        };
        // Identical trails: no entries.
        assert!(trail_diff(&mk("bbbb", 3), &mk("bbbb", 3)).is_empty());
        // Same counts, day-2 payload hash differs for one kind.
        let d = trail_diff(&mk("bbbb", 3), &mk("beef", 3));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].kind, "rotate");
        assert_eq!(d[0].first_divergence, Some(2));
        assert_eq!(
            d[0].to_string(),
            "rotate: 3 -> 3 events, first divergence day 2"
        );
        // A kind absent on one side reports dashed totals.
        let empty = parse_json(r#"{"event_trail": []}"#).unwrap();
        let d = trail_diff(&mk("bbbb", 3), &empty);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].right, None);
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        let nested = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        assert!(parse_json(&nested(MAX_DEPTH)).is_ok());
        let objects = "{\"a\": ".repeat(MAX_DEPTH) + "1" + &"}".repeat(MAX_DEPTH);
        assert!(parse_json(&objects).is_ok());
        for levels in [MAX_DEPTH + 1, 1_000_000] {
            let err = parse_json(&nested(levels)).expect_err("too deep");
            assert!(err.starts_with("nesting deeper than 128"), "{err}");
        }
    }

    #[test]
    fn long_non_ascii_strings_parse_in_one_pass() {
        let text: String = "é€😀x".chars().cycle().take(200_000).collect();
        let rendered = serde_json::to_string(&Value::Str(text.clone())).expect("renders");
        assert_eq!(parse_json(&rendered), Ok(Value::Str(text)));
    }

    #[test]
    fn manifests_with_and_without_spans_diff_clean() {
        let old = parse_json(
            r#"{"seed": 7, "spans": {"stage.crawl": {"count": 3, "total_ms": 5.0}},
                "cost_timings": {"crawl/fetch": {"total_ms": 1.0}}}"#,
        )
        .unwrap();
        let new = parse_json(
            r#"{"seed": 7, "cost_timings": {"crawl/fetch": {"total_ms": 2.0},
                "stage.crawl": {"total_ms": 6.0, "self_ms": 4.0}}}"#,
        )
        .unwrap();
        assert!(diff(&old, &new).is_empty());
    }

    #[test]
    fn cost_timings_subtree_is_wall_clock() {
        let a = parse_json(r#"{"cost_timings": {"crawl": {"total_ms": 5.0}}}"#).unwrap();
        let b = parse_json(r#"{"cost_timings": {"crawl": {"total_ms": 9.0}}}"#).unwrap();
        assert!(diff(&a, &b).is_empty());
    }

    #[test]
    fn numbers_compare_by_value_across_representations() {
        let a = parse_json(r#"{"n": 1}"#).unwrap();
        let b = parse_json(r#"{"n": 1.0}"#).unwrap();
        assert!(diff(&a, &b).is_empty());
    }
}
