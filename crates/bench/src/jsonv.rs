//! A minimal JSON value parser for the harness's own machine-readable
//! artifacts (`BENCH_pipeline.json` histories, flight-recorder JSONL).
//!
//! The workspace is dependency-free by design, and until now every JSON
//! consumer was a Python one-liner in CI. The `trace-diff` localizer
//! needs to *read* those artifacts from Rust, so this module implements
//! the small recursive-descent parser the fixed formats require:
//! objects, arrays, strings (with the escapes [`crate::golden`] and
//! `cm-obs` emit), f64 numbers, booleans and null. Object members keep
//! their file order, so walking a parsed document is deterministic.
//!
//! The parser is hardened against hostile input (cm-lint's S-rules
//! treat it as an untrusted-input root): every slice access is
//! bounds-checked, and the descent depth is capped at [`MAX_DEPTH`] so
//! a file of ten thousand `[`s yields [`JsonError::TooDeep`] instead of
//! a stack overflow. Failures are the typed [`JsonError`]; it converts
//! into `String` so existing `Result<_, String>` plumbing keeps using
//! `?`.

use std::fmt;

/// Deepest object/array nesting the parser will follow. The harness's
/// own artifacts nest 4–5 levels; 128 leaves two orders of magnitude of
/// headroom while keeping worst-case stack use in the tens of
/// kilobytes.
pub const MAX_DEPTH: usize = 128;

/// Why a document failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JsonError {
    /// Nesting exceeded [`MAX_DEPTH`] — hostile or corrupt input, since
    /// no harness artifact nests remotely that deep.
    TooDeep {
        /// The enforced depth limit.
        limit: usize,
    },
    /// Malformed syntax, with a byte offset in the message.
    Syntax(String),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::TooDeep { limit } => {
                write!(f, "nesting deeper than {limit} levels")
            }
            JsonError::Syntax(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for JsonError {}

impl From<JsonError> for String {
    fn from(e: JsonError) -> String {
        e.to_string()
    }
}

/// Shorthand for a syntax error.
fn syn(msg: String) -> JsonError {
    JsonError::Syntax(msg)
}

/// A parsed JSON value. Numbers are uniformly `f64` — every numeric
/// field the harness emits fits (the largest are span-cost counters,
/// well under 2^53).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// An object, members in file order.
    Object(Vec<(String, Json)>),
    /// An array.
    Array(Vec<Json>),
    /// A string (escapes resolved).
    Str(String),
    /// A number.
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// The null literal.
    Null,
}

impl Json {
    /// Parses one complete JSON document; trailing whitespace is allowed,
    /// trailing garbage is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(syn(format!("trailing garbage at byte {pos}")));
        }
        Ok(value)
    }

    /// Member lookup on an object (`None` for other variants or a
    /// missing key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value's elements, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value's members in file order, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(members) => Some(members),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(syn(format!(
            "expected {:?} at byte {} (found {:?})",
            b as char,
            *pos,
            bytes.get(*pos).map(|&c| c as char)
        )))
    }
}

// cm-lint: allow(S5_UNBOUNDED_RECURSION, S5: the descent is bounded — every parse_value entry checks depth against MAX_DEPTH)
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    if depth > MAX_DEPTH {
        return Err(JsonError::TooDeep { limit: MAX_DEPTH });
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err(syn("unexpected end of input".to_string())),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, JsonError> {
    if bytes
        .get(*pos..)
        .is_some_and(|rest| rest.starts_with(lit.as_bytes()))
    {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(syn(format!("invalid literal at byte {}", *pos)))
    }
}

// cm-lint: allow(S5_UNBOUNDED_RECURSION, S5: recurses only through parse_value, whose depth check bounds the cycle)
fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth + 1)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(members));
            }
            _ => return Err(syn(format!("expected ',' or '}}' at byte {}", *pos))),
        }
    }
}

// cm-lint: allow(S5_UNBOUNDED_RECURSION, S5: recurses only through parse_value, whose depth check bounds the cycle)
fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(syn(format!("expected ',' or ']' at byte {}", *pos))),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(syn("unterminated string".to_string())),
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
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| syn(format!("bad \\u escape at byte {}", *pos)))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| syn(format!("bad \\u escape at byte {}", *pos)))?;
                        // Surrogate pairs do not occur in the harness's
                        // own output; map lone surrogates to U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(syn(format!("bad escape at byte {}", *pos))),
                }
                *pos += 1;
            }
            Some(&b) => {
                // Multi-byte UTF-8 sequences pass through unchanged.
                let start = *pos;
                let mut end = *pos + 1;
                if b >= 0x80 {
                    while end < bytes.len() && bytes[end] & 0xC0 == 0x80 {
                        end += 1;
                    }
                }
                match bytes.get(start..end).map(std::str::from_utf8) {
                    Some(Ok(s)) => out.push_str(s),
                    _ => return Err(syn(format!("invalid UTF-8 at byte {start}"))),
                }
                *pos = end;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = bytes
        .get(start..*pos)
        .and_then(|t| std::str::from_utf8(t).ok())
        .ok_or_else(|| syn(format!("invalid number at byte {start}")))?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| syn(format!("invalid number {text:?} at byte {start}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_harness_shapes() {
        let doc = r#"[
  {"label": "tiny-2019-clean", "seed": 2019, "pipeline_seconds": 0.61,
   "stages": [{"name": "sweep", "seconds": 0.32}],
   "fault_plan": [], "ok": true, "missing": null}
]"#;
        let v = Json::parse(doc).unwrap();
        let records = v.as_array().unwrap();
        let r = &records[0];
        assert_eq!(r.get("label").unwrap().as_str(), Some("tiny-2019-clean"));
        assert_eq!(r.get("seed").unwrap().as_num(), Some(2019.0));
        let stages = r.get("stages").unwrap().as_array().unwrap();
        assert_eq!(stages[0].get("name").unwrap().as_str(), Some("sweep"));
        assert_eq!(r.get("fault_plan").unwrap().as_array().unwrap().len(), 0);
        assert_eq!(r.get("ok").unwrap(), &Json::Bool(true));
        assert_eq!(r.get("missing").unwrap(), &Json::Null);
    }

    #[test]
    fn parses_jsonl_event_lines() {
        let line = r#"{"seq": 7, "event": "span_end", "path": "sweep;probe-round", "span_id": "0x00deadbeef00cafe", "costs": {"probes": 1200}, "nondeterministic": {"wall_ms": 3.25}}"#;
        let v = Json::parse(line).unwrap();
        assert_eq!(v.get("event").unwrap().as_str(), Some("span_end"));
        assert_eq!(
            v.get("costs").unwrap().get("probes").unwrap().as_num(),
            Some(1200.0)
        );
        assert_eq!(
            v.get("nondeterministic")
                .unwrap()
                .get("wall_ms")
                .unwrap()
                .as_num(),
            Some(3.25)
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Json::parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn object_members_keep_file_order() {
        let v = Json::parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a"]);
    }

    #[test]
    fn deep_nesting_is_rejected_with_a_typed_error_not_a_stack_overflow() {
        for hostile in [
            "[".repeat(10_000),
            "{\"k\":".repeat(10_000),
            format!("{}1{}", "[".repeat(10_000), "]".repeat(10_000)),
        ] {
            assert_eq!(
                Json::parse(&hostile),
                Err(JsonError::TooDeep { limit: MAX_DEPTH })
            );
        }
    }

    #[test]
    fn modest_nesting_parses() {
        let doc = format!("{}1{}", "[".repeat(64), "]".repeat(64));
        let v = Json::parse(&doc).unwrap();
        let mut cur = &v;
        let mut levels = 0;
        while let Some(items) = cur.as_array() {
            cur = &items[0];
            levels += 1;
        }
        assert_eq!(levels, 64);
        assert_eq!(cur.as_num(), Some(1.0));
    }

    #[test]
    fn too_deep_converts_into_the_string_error_space() {
        let hostile = "[".repeat(10_000);
        let as_string: String = Json::parse(&hostile).unwrap_err().into();
        assert!(as_string.contains("deeper than"), "{as_string}");
    }
}
