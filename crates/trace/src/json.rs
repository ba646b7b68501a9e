//! Minimal hand-rolled JSON support: enough to serialize events as JSON
//! lines and to parse them back in tests/tools. Not a general-purpose JSON
//! library — objects, arrays, strings, numbers, booleans, and null only.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::error::TractoError;
use crate::event::{Event, Value};

/// Append a JSON string literal (with escaping) to `out`.
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn value_into(out: &mut String, v: &Value) {
    match v {
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(n) => {
            if n.is_finite() {
                let _ = write!(out, "{n}");
            } else {
                out.push_str("null");
            }
        }
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Str(s) => escape_into(out, s),
        Value::Text(s) => escape_into(out, s),
    }
}

/// Serialize one event as a single JSON object (no trailing newline).
/// Field keys land under a nested `"fields"` object so they can never
/// collide with the envelope keys.
pub fn event_to_json(event: &Event) -> String {
    let mut out = String::with_capacity(96 + event.fields.len() * 24);
    out.push_str("{\"seq\":");
    let _ = write!(out, "{}", event.seq);
    out.push_str(",\"t_ns\":");
    let _ = write!(out, "{}", event.t_ns);
    if let Some(sim) = event.sim_s {
        out.push_str(",\"sim_s\":");
        let _ = write!(out, "{sim}");
    }
    out.push_str(",\"name\":");
    escape_into(&mut out, event.name);
    out.push_str(",\"fields\":{");
    for (i, (key, value)) in event.fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_into(&mut out, key);
        out.push(':');
        value_into(&mut out, value);
    }
    out.push_str("}}");
    out
}

/// A parsed JSON value, used by tests and tools to inspect trace files.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as f64).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object (sorted keys).
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a bound one frame of `[[[[…` would overflow
/// the parsing thread's stack. Every document this workspace writes
/// (wire frames, journal records, the metrics sidecar, trace events) nests
/// fewer than ten levels.
pub const MAX_DEPTH: usize = 128;

/// Parse one JSON document from `input`. Trailing non-whitespace is an
/// error, so each JSONL line parses independently. Nesting deeper than
/// [`MAX_DEPTH`] is a `Format` error.
pub fn parse(input: &str) -> Result<Json, TractoError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(TractoError::format(format!(
            "json: trailing data at byte {}",
            p.pos
        )));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), TractoError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(TractoError::format(format!(
                "json: expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Json, TractoError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(TractoError::format(format!(
                "json: unexpected input at byte {}",
                self.pos
            ))),
        }
    }

    /// Parse one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, TractoError>,
    ) -> Result<Json, TractoError> {
        if self.depth == MAX_DEPTH {
            return Err(TractoError::format(format!(
                "json: nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, TractoError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(TractoError::format(format!(
                "json: bad literal at byte {}",
                self.pos
            )))
        }
    }

    fn number(&mut self) -> Result<Json, TractoError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| TractoError::format("json: non-utf8 number"))?;
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| TractoError::format(format!("json: bad number '{text}'")))
    }

    fn string(&mut self) -> Result<String, TractoError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Scan the plain run, then decode it as UTF-8 in one go.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| TractoError::format("json: non-utf8 string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| TractoError::format("json: unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(TractoError::format("json: short \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| TractoError::format("json: bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| TractoError::format("json: bad \\u escape"))?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(TractoError::format(format!(
                                "json: unknown escape '\\{}'",
                                other as char
                            )))
                        }
                    }
                }
                _ => return Err(TractoError::format("json: unterminated string")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, TractoError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(TractoError::format("json: expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, TractoError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(TractoError::format("json: expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_roundtrips_through_parser() {
        let e = Event {
            seq: 7,
            t_ns: 1234,
            sim_s: Some(0.125),
            name: "gpu.launch",
            fields: vec![
                ("lanes", Value::U64(4096)),
                ("path", Value::Text("a \"b\"\n".into())),
                ("ok", Value::Bool(true)),
            ],
        };
        let line = event_to_json(&e);
        let parsed = parse(&line).expect("parses");
        assert_eq!(parsed.get("seq").and_then(Json::as_f64), Some(7.0));
        assert_eq!(parsed.get("sim_s").and_then(Json::as_f64), Some(0.125));
        assert_eq!(
            parsed.get("name").and_then(Json::as_str),
            Some("gpu.launch")
        );
        let fields = parsed.get("fields").expect("fields object");
        assert_eq!(fields.get("lanes").and_then(Json::as_f64), Some(4096.0));
        assert_eq!(fields.get("path").and_then(Json::as_str), Some("a \"b\"\n"));
        assert_eq!(fields.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn event_without_sim_clock_omits_key() {
        let e = Event {
            seq: 0,
            t_ns: 0,
            sim_s: None,
            name: "x",
            fields: vec![],
        };
        let line = event_to_json(&e);
        assert!(!line.contains("sim_s"));
        assert!(parse(&line).is_ok());
    }

    #[test]
    fn parser_handles_nesting_and_escapes() {
        let doc = r#"{"a": [1, -2.5, "t\tbA", {"n": null}], "b": false}"#;
        let v = parse(doc).expect("parses");
        let a = v.get("a").expect("a");
        match a {
            Json::Array(items) => {
                assert_eq!(items[0].as_f64(), Some(1.0));
                assert_eq!(items[1].as_f64(), Some(-2.5));
                assert_eq!(items[2].as_str(), Some("t\tbA"));
                assert_eq!(items[3].get("n"), Some(&Json::Null));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn nesting_is_bounded_by_max_depth() {
        // Far past the limit: typed errors, not a stack overflow.
        for deep in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
            let err = parse(&deep).unwrap_err();
            assert!(err.to_string().contains("nesting"), "{err}");
        }
        // Exactly at the limit parses; one more level does not.
        let at = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&over).is_err());
        let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(parse(&objects).is_ok());
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("123 456").is_err());
        assert!(parse("\"unterminated").is_err());
    }
}
