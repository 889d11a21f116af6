//! A minimal hand-rolled JSON value parser for request bodies.
//!
//! The workspace is deliberately dependency-free, so like the journal
//! line scanners in `flame_core::runner` and the document validator in
//! `flame_trace`, the server parses its (small, flat) request bodies
//! with a recursive-descent parser instead of serde. Numbers keep their
//! source text so integer fields round-trip exactly (`u64` seeds and
//! cycle counts never go through `f64`).

use std::collections::BTreeMap;

/// Deepest array/object nesting [`JsonValue::parse`] accepts — the cap
/// `flame_trace::validate_json` uses. The parser recurses once per
/// level on the connection thread's stack, so an unbounded body of a few
/// kilobytes of `[` would overflow it and abort the whole server.
const MAX_DEPTH: u32 = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, kept as its source text (see [`JsonValue::as_u64`]).
    Num(String),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object. Duplicate keys keep the last value, like serde.
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Parses one JSON document, requiring it to span the whole input.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the byte offset of the problem.
    pub fn parse(s: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            b: s.as_bytes(),
            i: 0,
            depth: 0,
        };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing bytes at offset {}", p.i));
        }
        Ok(v)
    }

    /// Member `key` of an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an exact `u64` (integer source text only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as an exact `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JsonValue::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Serializes `s` as a JSON string literal with the escapes the parser
/// understands.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    /// Arrays and objects open around the cursor.
    depth: u32,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self
            .b
            .get(self.i)
            .is_some_and(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.b.get(self.i) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => self.nested(Parser::object),
            Some(b'[') => self.nested(Parser::array),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(_) => self.number(),
        }
    }

    /// Parses one array or object with `f`, one level deeper.
    fn nested(
        &mut self,
        f: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at offset {}",
                self.i
            ));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).unwrap();
        // Validate through the float path; the exact text is kept.
        text.parse::<f64>()
            .map_err(|_| format!("bad number at offset {start}"))?;
        Ok(JsonValue::Num(text.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs are not needed by any
                            // producer in this workspace; map them to
                            // the replacement character instead of
                            // failing the whole request.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through verbatim.
                    let s = &self.b[self.i..];
                    let ch_len = match s[0] {
                        c if c < 0x80 => 1,
                        c if c >= 0xf0 => 4,
                        c if c >= 0xe0 => 3,
                        _ => 2,
                    };
                    let chunk = s.get(..ch_len).ok_or("truncated UTF-8")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|_| "invalid UTF-8")?);
                    self.i += ch_len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.i)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(JsonValue::Obj(map));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let v = self.value()?;
            map.insert(key, v);
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(JsonValue::Obj(map));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.i)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = JsonValue::parse(
            r#"{"workload":"Triad","runs":10,"window":[0.5,1.0],"deep":{"x":null,"y":true}}"#,
        )
        .unwrap();
        assert_eq!(v.get("workload").and_then(JsonValue::as_str), Some("Triad"));
        assert_eq!(v.get("runs").and_then(JsonValue::as_u64), Some(10));
        let w = v.get("window").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(w[0].as_f64(), Some(0.5));
        assert_eq!(
            v.get("deep").and_then(|d| d.get("y")),
            Some(&JsonValue::Bool(true))
        );
    }

    #[test]
    fn integers_round_trip_exactly() {
        let v = JsonValue::parse("{\"seed\":18446744073709551615}").unwrap();
        assert_eq!(v.get("seed").and_then(JsonValue::as_u64), Some(u64::MAX));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(JsonValue::parse("{\"a\":}").is_err());
        assert!(JsonValue::parse("[1,2").is_err());
        assert!(JsonValue::parse("{} trailing").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
        assert!(JsonValue::parse("nul").is_err());
    }

    #[test]
    fn nesting_is_capped() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(JsonValue::parse(&arrays(200)).is_err());
        JsonValue::parse(&arrays(100)).unwrap();
        // The cap is exact, and objects count like arrays.
        let objects = |n: usize| "{\"a\":".repeat(n) + "1" + &"}".repeat(n);
        JsonValue::parse(&arrays(128)).unwrap();
        JsonValue::parse(&objects(128)).unwrap();
        assert!(JsonValue::parse(&objects(129)).is_err());
    }

    #[test]
    fn escapes_round_trip() {
        let original = "line\n\"quoted\"\tand \\ back";
        let lit = json_escape(original);
        let v = JsonValue::parse(&lit).unwrap();
        assert_eq!(v.as_str(), Some(original));
    }
}
