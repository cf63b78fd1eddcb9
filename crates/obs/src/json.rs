//! A minimal JSON value, writer and parser.
//!
//! The build environment has no registry access, so the workspace cannot
//! use `serde`. This module implements the subset the observability layer
//! needs: an ordered object model (insertion order is preserved, so output
//! is deterministic and diffs are stable), a compact writer with correct
//! string escaping, and a strict recursive-descent parser used by the
//! JSONL round-trip tests and the `check-bench` schema validator.
//!
//! Numbers are stored as `f64`. Integers up to 2^53 round-trip exactly,
//! which covers every quantity exported here (slots, counts, nanoseconds
//! of runs far beyond any practical length); values with no fractional
//! part are written without a decimal point.

use std::fmt;

/// A JSON value with insertion-ordered objects.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved when writing.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be filled with [`Json::set`].
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// Insert (or replace) `key` in an object. Panics on non-objects —
    /// construction sites are all internal and static.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Json {
        let Json::Obj(fields) = self else {
            panic!("Json::set on a non-object");
        };
        match fields.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value.into(),
            None => fields.push((key.to_string(), value.into())),
        }
        self
    }

    /// Field lookup on objects; `None` on non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The JSON type name used in schema-validation diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(value)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}
impl From<u32> for Json {
    fn from(x: u32) -> Json {
        Json::Num(f64::from(x))
    }
}
impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Json> + Clone> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, |x| x.into())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(x) => write_num(f, *x),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_num(f: &mut fmt::Formatter<'_>, x: f64) -> fmt::Result {
    if !x.is_finite() {
        // JSON has no NaN/Inf; null is the conventional degradation.
        return f.write_str("null");
    }
    if x.fract() == 0.0 && x.abs() < 9e15 {
        write!(f, "{}", x as i64)
    } else {
        write!(f, "{x}")
    }
}

/// Write `s` as a JSON string literal. Every byte that needs escaping is
/// ASCII, and no byte of a multi-byte UTF-8 sequence is, so the text
/// between two escapes is a whole `str` slice written with one call.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0x00..=0x1F => None,
            _ => continue,
        };
        f.write_str(&s[run..i])?;
        match escape {
            Some(escape) => f.write_str(escape)?,
            None => write!(f, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    f.write_str(&s[run..])?;
    f.write_str("\"")
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {}",
            char::from(b),
            *pos
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    // `f64::from_str` is more lenient than JSON: it accepts a leading
    // '+', leading zeros like "01", "inf"/"NaN" words (excluded by the
    // byte scan above), and overflows like 1e999 to infinity. JSON
    // numbers are finite, never start with '+', and a zero integer part
    // is a lone zero.
    let digits = text.strip_prefix('-').unwrap_or(text);
    if text.starts_with('+')
        || (digits.len() > 1 && digits.starts_with('0') && !digits.starts_with("0.")
            && !digits.starts_with("0e") && !digits.starts_with("0E"))
    {
        return Err(format!("invalid number {text:?} at byte {start}"));
    }
    match text.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(Json::Num(x)),
        _ => Err(format!("invalid number {text:?} at byte {start}")),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        // Surrogate pairs are not needed by our own output;
                        // map unpaired surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so boundaries
                // are valid).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_compact_deterministic_objects() {
        let mut obj = Json::object();
        obj.set("b", 1u64).set("a", 2u64).set("s", "x\"y\n");
        assert_eq!(obj.to_string(), r#"{"b":1,"a":2,"s":"x\"y\n"}"#);
        // replacement keeps position
        obj.set("b", 9u64);
        assert_eq!(obj.to_string(), r#"{"b":9,"a":2,"s":"x\"y\n"}"#);
    }

    /// The per-character escaper `write_escaped` replaced: the reference
    /// its output must match byte for byte.
    fn escape_per_char(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn run_escaping_matches_the_per_char_escaper() {
        let controls: String = (0u8..0x20).map(char::from).collect();
        let mut cases = vec![
            String::new(),
            "plain".to_string(),
            "\"".to_string(),
            "\\".to_string(),
            "a\"b\\c\"\"\\\\".to_string(),
            controls.clone(),
            format!("x{controls}y"),
            "é—漢字🦀 mixed \"quoted\" \\ and\ttabs\n".to_string(),
            "🦀\u{1}🦀\u{1f}é".to_string(),
            "\u{7f}\u{80}\u{7ff}\u{800}\u{ffff}\u{10000}\u{10ffff}".to_string(),
        ];
        for c in (0u8..0x20).map(char::from) {
            cases.push(format!("{c}"));
            cases.push(format!("é{c}é"));
        }
        for case in &cases {
            let written = Json::Str(case.clone()).to_string();
            assert_eq!(written, escape_per_char(case), "escaping {case:?}");
            assert_eq!(Json::parse(&written).unwrap().as_str(), Some(case.as_str()));
            // Keys take the same path as string values.
            let mut obj = Json::object();
            obj.set(case, 1u64);
            assert_eq!(obj.to_string(), format!("{{{}:1}}", escape_per_char(case)));
        }
    }

    #[test]
    fn integers_write_without_decimal_point() {
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::Num(0.25).to_string(), "0.25");
        assert_eq!(Json::Num(-7.0).to_string(), "-7");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn parses_what_it_writes() {
        let mut obj = Json::object();
        obj.set("name", "FIFOMS")
            .set("load", 0.7)
            .set("slots", 100_000u64)
            .set("stable", true)
            .set("missing", Json::Null)
            .set("arr", vec![1u64, 2, 3]);
        let text = obj.to_string();
        let parsed = Json::parse(&text).expect("round-trip parse");
        assert_eq!(parsed, obj);
    }

    #[test]
    fn parses_nested_documents_with_whitespace() {
        let text = r#" { "a" : [ 1 , { "b" : "cAd" } , null ] } "#;
        let v = Json::parse(text).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].get("b").unwrap().as_str(), Some("cAd"));
        assert_eq!(arr[2], Json::Null);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "tru", "\"abc", "{\"a\":1} x", "{\"a\" 1}"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_non_json_numbers() {
        // f64::from_str leniences that JSON forbids: leading '+',
        // overflow to infinity, bare words.
        for bad in ["+5", "1e999", "-1e999", "1e+999", "[+1]", "{\"a\":+2}"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        // Large-but-finite exponents stay fine.
        assert_eq!(Json::parse("1e300").unwrap().as_f64(), Some(1e300));
        assert_eq!(Json::parse("5e-324").unwrap().as_f64(), Some(5e-324));
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"x": 4, "s": "hi"}"#).unwrap();
        assert_eq!(v.get("x").and_then(Json::as_f64), Some(4.0));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("hi"));
        assert_eq!(v.get("nope"), None);
        assert_eq!(v.type_name(), "object");
        assert_eq!(Json::Null.type_name(), "null");
    }
}
