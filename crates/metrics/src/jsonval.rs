//! Minimal JSON reader — the inverse of [`crate::json::JsonWriter`].
//!
//! The bench binaries and sa-serve write JSON documents; this module
//! reads them back offline: a small recursive-descent parser into a
//! [`JsonValue`] tree, sufficient for the machine-generated documents
//! this repository produces (`results/forensics_*.json`, sa-serve job
//! specs and results). It accepts
//! standard JSON — objects, arrays, strings with escapes, numbers,
//! booleans, null — and rejects everything else with a byte-offset
//! error. Not a general-purpose library: no streaming, no
//! serde-style mapping, numbers normalized to `f64`.

use std::collections::BTreeMap;

/// Deepest array/object nesting [`JsonValue::parse`] accepts. Each level
/// costs the recursive descent a few stack frames, and sa-serve parses
/// request bodies with it, so an unbounded depth would let one request
/// overflow a thread's stack. The documents this repository writes nest
/// a few levels.
const MAX_DEPTH: usize = 128;

/// A parsed JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    /// All numbers parse as `f64`; [`JsonValue::as_u64`] round-trips
    /// integers up to 2^53, far beyond any counter this repo emits.
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    /// Sorted map: key order is not semantically meaningful in any
    /// document we produce, and `BTreeMap` keeps lookups and equality
    /// deterministic.
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let b = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(b, &mut pos, 0)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    /// Object member lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Array element lookup; `None` for non-arrays or out of range.
    pub fn idx(&self, i: usize) -> Option<&JsonValue> {
        match self {
            JsonValue::Arr(v) => v.get(i),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Integer view of a number; `None` if negative, fractional, or not
    /// a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", c as char))
    }
}

/// Parses one value inside `depth` enclosing arrays and objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"))
        }
        Some(b'{') => parse_object(b, pos, depth + 1),
        Some(b'[') => parse_array(b, pos, depth + 1),
        Some(b'"') => Ok(JsonValue::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte '{}' at {pos}", *c as char)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(JsonValue::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        // Surrogate pairs don't occur in our generated
                        // docs; map lone surrogates to the replacement
                        // character rather than erroring.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8 sequences pass through verbatim.
                let ch_len = match c {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let s = std::str::from_utf8(&b[*pos..*pos + ch_len.min(b.len() - *pos)])
                    .map_err(|_| format!("invalid utf-8 at byte {pos}"))?;
                out.push_str(s);
                *pos += ch_len;
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(b, pos, b'[')?;
    let mut v = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(v));
    }
    loop {
        v.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(v));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(b, pos, b'{')?;
    let mut m = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(m));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        expect(b, pos, b':')?;
        m.insert(key, parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(m));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse(" 42 ").unwrap().as_u64(), Some(42));
        assert_eq!(JsonValue::parse("-1.5e2").unwrap().as_f64(), Some(-150.0));
        assert_eq!(
            JsonValue::parse("\"a\\n\\\"b\\u0041\"").unwrap().as_str(),
            Some("a\n\"bA")
        );
    }

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"schema":"sa-bench-forensics-v1","workloads":[{"name":"n6","configs":[{"cycles":123,"ipc":0.5}]}]}"#;
        let v = JsonValue::parse(doc).unwrap();
        assert_eq!(
            v.get("schema").and_then(JsonValue::as_str),
            Some("sa-bench-forensics-v1")
        );
        let cell = v
            .get("workloads")
            .and_then(|w| w.idx(0))
            .and_then(|w| w.get("configs"))
            .and_then(|c| c.idx(0))
            .unwrap();
        assert_eq!(cell.get("cycles").and_then(JsonValue::as_u64), Some(123));
        assert_eq!(cell.get("ipc").and_then(JsonValue::as_f64), Some(0.5));
    }

    #[test]
    fn round_trips_json_writer_output() {
        let mut j = crate::JsonWriter::new();
        j.begin_object()
            .field_str("s", "x\"y")
            .field_uint("u", 7)
            .field_float("f", 1.25)
            .key("a")
            .begin_array();
        j.uint(1).uint(2).end_array().end_object();
        let v = JsonValue::parse(&j.finish()).unwrap();
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("x\"y"));
        assert_eq!(v.get("u").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(v.get("f").and_then(JsonValue::as_f64), Some(1.25));
        assert_eq!(
            v.get("a").and_then(JsonValue::as_arr).map(<[_]>::len),
            Some(2)
        );
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("{\"a\":1} x").is_err());
        assert!(JsonValue::parse("\"open").is_err());
        assert!(JsonValue::parse("nul").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(JsonValue::parse(&nest(MAX_DEPTH)).is_ok());
        assert!(JsonValue::parse(&nest(MAX_DEPTH + 1)).is_err());
        let hostile = "[".repeat(60 * 1024);
        let err = JsonValue::parse(&hostile).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let objects = "{\"k\":".repeat(MAX_DEPTH + 1);
        assert!(JsonValue::parse(&objects).unwrap_err().contains("nesting"));
    }

    #[test]
    fn accessors_return_none_on_type_mismatch() {
        let v = JsonValue::parse("[1,2]").unwrap();
        assert!(v.get("k").is_none());
        assert!(v.as_str().is_none());
        assert!(v.idx(5).is_none());
        assert_eq!(JsonValue::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(JsonValue::parse("-3").unwrap().as_u64(), None);
    }
}
