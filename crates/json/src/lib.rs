//! # exacoll-json — minimal JSON for on-disk artifacts
//!
//! The workspace builds in environments without crates.io access, so the
//! serde stack is replaced by this small hand-rolled JSON layer: a [`Value`]
//! model, a recursive-descent parser, and a pretty-printer whose output
//! matches `serde_json::to_string_pretty` conventions (two-space indent,
//! `": "` separators). Conversions to and from domain structs are written by
//! hand next to those structs (`Machine`, `SelectionService`).
//!
//! Numbers are stored as `f64`; integers up to 2^53 round-trip exactly,
//! which covers every quantity the artifacts serialize (sentinel values
//! like `usize::MAX` are mapped to `null` by their owners instead).

use std::collections::BTreeMap;
use std::fmt;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Keys keep insertion order for stable output.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object field lookup that errors with the missing key's name.
    pub fn req(&self, key: &str) -> Result<&Value, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field `{key}`"))
    }

    /// The value as a float.
    pub fn as_f64(&self) -> Result<f64, String> {
        match self {
            Value::Num(n) => Ok(*n),
            other => Err(format!("expected number, got {other}")),
        }
    }

    /// The value as a non-negative integer.
    pub fn as_usize(&self) -> Result<usize, String> {
        let n = self.as_f64()?;
        if n < 0.0 || n.fract() != 0.0 || n > (1u64 << 53) as f64 {
            return Err(format!("expected unsigned integer, got {n}"));
        }
        Ok(n as usize)
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(format!("expected string, got {other}")),
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(format!("expected bool, got {other}")),
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Result<&[Value], String> {
        match self {
            Value::Arr(items) => Ok(items),
            other => Err(format!("expected array, got {other}")),
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Pretty-print with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth + 1);
        let close = "  ".repeat(depth);
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => out.push_str(&fmt_num(*n)),
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) if items.is_empty() => out.push_str("[]"),
            Value::Arr(items) => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    out.push_str(&pad);
                    v.write(out, depth + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&close);
                out.push(']');
            }
            Value::Obj(pairs) if pairs.is_empty() => out.push_str("{}"),
            Value::Obj(pairs) => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(&pad);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&close);
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.pretty())
    }
}

fn fmt_num(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < (1u64 << 53) as f64 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
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
}

/// Parse a JSON document.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}, got `{}`",
                b as char,
                self.pos,
                self.peek().map(|c| c as char).unwrap_or('∅')
            ))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.lit("null", Value::Null),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected `{}` at byte {}",
                other.map(|c| c as char).unwrap_or('∅'),
                self.pos
            )),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code).ok_or("surrogate \\u escape unsupported")?,
                            );
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences pass
                    // through unvalidated byte-wise; input was &str, so they
                    // are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|b| b & 0b1100_0000 == 0b1000_0000)
                    {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| {
            b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-'
        }) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut pairs: Vec<(String, Value)> = Vec::new();
        let mut seen = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            if seen.insert(key.clone(), ()).is_some() {
                return Err(format!("duplicate key `{key}`"));
            }
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested() {
        let v = Value::obj(vec![
            ("name", Value::Str("frontier".into())),
            ("nodes", Value::Num(128.0)),
            ("alpha", Value::Num(0.04)),
            ("unbounded", Value::Null),
            (
                "flags",
                Value::Arr(vec![Value::Bool(true), Value::Bool(false)]),
            ),
            ("nested", Value::obj(vec![("k", Value::Num(3.0))])),
        ]);
        let text = v.pretty();
        assert_eq!(parse(&text).unwrap(), v);
        // serde_json pretty conventions: `": "` separator, 2-space indent.
        assert!(text.contains("\"name\": \"frontier\""));
        assert!(text.contains("\n  \"nodes\": 128"));
    }

    #[test]
    fn parses_standard_documents() {
        let v = parse(r#"{"a": [1, 2.5, -3e2], "b": "x\ny", "c": null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().as_str().unwrap(), "x\ny");
        assert!(v.get("c").unwrap().is_null());
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64().unwrap(),
            -300.0
        );
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("{not json").is_err());
        assert!(parse("").is_err());
        assert!(parse("{\"a\": 1,}").is_err());
        assert!(parse("[1, 2] trailing").is_err());
        assert!(parse("{\"a\": 1, \"a\": 2}").is_err());
    }

    #[test]
    fn integers_roundtrip_exactly() {
        for n in [0u64, 1, 4096, 1 << 52] {
            let text = Value::Num(n as f64).pretty();
            assert_eq!(text, n.to_string());
            assert_eq!(parse(&text).unwrap().as_usize().unwrap(), n as usize);
        }
        assert!(Value::Num(1.5).as_usize().is_err());
        assert!(Value::Num(-1.0).as_usize().is_err());
    }

    #[test]
    fn unicode_and_escapes_survive() {
        let v = Value::Str("héllo \"wörld\"\t∎".into());
        assert_eq!(parse(&v.pretty()).unwrap(), v);
    }
}
