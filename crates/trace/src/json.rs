//! The workspace's one JSON codec: a strict RFC 8259 parser into
//! [`JsonValue`], the string escaper [`json_escape`] and the float
//! writer [`json_f64`].
//!
//! The workspace takes no external crates, so journal records, lease
//! files, request bodies, persisted campaign specs and the Chrome-trace
//! exporter's output all go through this module instead of serde.
//! Parsing is strict: one document spanning the whole input, numbers and
//! strings exactly as the RFC's grammar allows (no `+1`, `01` or `1.`, no
//! raw control characters inside strings, `\u` followed by exactly four
//! hex digits), so a torn or merged journal line is refused rather than
//! read as a wrong record. Numbers keep their source text, so integer
//! fields round-trip exactly (`u64` seeds and cycle counts never go
//! through `f64`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Deepest array/object nesting [`JsonValue::parse`] accepts. The parser
/// recurses once per level on the caller's stack, so an unbounded request
/// body of a few kilobytes of `[` would overflow a connection thread's
/// stack and abort the whole server.
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
    /// Parses one JSON document, requiring it to span the whole input
    /// (surrounding whitespace aside).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the byte offset of the problem.
    pub fn parse(s: &str) -> Result<JsonValue, String> {
        let mut p = Parser { s, i: 0, depth: 0 };
        let v = p.value()?;
        p.ws();
        if p.i != s.len() {
            return Err(p.err("trailing data after the document"));
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

    /// The value as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
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

/// Serializes `s` as a JSON string literal, quotes included, with the
/// escapes [`JsonValue::parse`] decodes.
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a float for JSON: the shortest decimal that round-trips, with
/// non-finite values (which `{:?}` would print as invalid tokens like
/// `NaN`) mapped to `null`. Debug formatting always prints a `.0` or an
/// exponent, both valid JSON number syntax.
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

struct Parser<'a> {
    s: &'a str,
    i: usize,
    /// Arrays and objects open around the cursor.
    depth: u32,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("invalid JSON at byte {}: {what}", self.i)
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", c as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.ws();
        match self.peek() {
            Some(b'{') => self.nested(Parser::object),
            Some(b'[') => self.nested(Parser::array),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one array or object with `f`, one level deeper.
    fn nested(
        &mut self,
        f: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.s[self.i..].starts_with(word) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn digits(&mut self) -> Result<(), String> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err("expected a digit"));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        Ok(())
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        if self.peek() == Some(b'0') {
            self.i += 1;
        } else {
            self.digits()?;
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            self.digits()?;
        }
        Ok(JsonValue::Num(self.s[start..self.i].to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote,
            // backslash or control byte. Those are all ASCII, so the
            // run ends on a character boundary.
            let run = self.s.as_bytes()[self.i..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                .unwrap_or(self.s.len() - self.i);
            out.push_str(&self.s[self.i..self.i + run]);
            self.i += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let hex = self
                                .s
                                .get(self.i + 1..self.i + 5)
                                .filter(|h| h.bytes().all(|c| c.is_ascii_hexdigit()))
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.i += 4;
                            // No producer in this workspace writes
                            // surrogate pairs; a surrogate decodes to the
                            // replacement character instead of failing the
                            // whole document.
                            u32::from_str_radix(hex, 16)
                                .ok()
                                .and_then(char::from_u32)
                                .unwrap_or('\u{fffd}')
                        }
                        _ => return Err(self.err("bad escape")),
                    };
                    out.push(c);
                    self.i += 1;
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(JsonValue::Obj(map));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(b':')?;
            let v = self.value()?;
            map.insert(key, v);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(JsonValue::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use JsonValue::{Arr, Bool, Null, Num, Obj, Str};

    /// The test that checks a row of [`table`]; the `Validator` rows are
    /// what the Chrome-trace checks in `export` rely on.
    #[derive(Clone, Copy, PartialEq, Debug)]
    pub(crate) enum Rule {
        Validator,
        ValidatorDepth,
        Documents,
        Integers,
        Malformed,
        Nesting,
    }

    fn obj(members: &[(&str, JsonValue)]) -> JsonValue {
        Obj(members
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect())
    }

    fn num(text: &str) -> JsonValue {
        Num(text.to_string())
    }

    /// Every accept/reject rule of the parser in one table: each input
    /// either parses to exactly the given value or is refused.
    #[rustfmt::skip]
    fn table() -> Vec<(Rule, String, Option<JsonValue>)> {
        use Rule::*;
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| "{\"a\":".repeat(n) + "1" + &"}".repeat(n);
        let nested_arrays = |n: usize| (1..n).fold(Arr(vec![]), |v, _| Arr(vec![v]));
        let nested_objects = |n: usize| (0..n).fold(num("1"), |v, _| obj(&[("a", v)]));
        let mut rows = vec![
            (Validator, "{}".into(), Some(obj(&[]))),
            (Validator, "[]".into(), Some(Arr(vec![]))),
            (Validator, "null".into(), Some(Null)),
            (Validator, "-12.5e+3".into(), Some(num("-12.5e+3"))),
            (Validator, "\"a\\u00e9\\n\"".into(), Some(Str("a\u{e9}\n".into()))),
            (Validator, "{\"a\":[1,2,{\"b\":null}],\"c\":false}".into(), Some(obj(&[
                ("a", Arr(vec![num("1"), num("2"), obj(&[("b", Null)])])),
                ("c", Bool(false)),
            ]))),
            (Validator, "  [ 1 , 2 ]  ".into(), Some(Arr(vec![num("1"), num("2")]))),
            (ValidatorDepth, arrays(100), Some(nested_arrays(100))),
            (ValidatorDepth, arrays(200), None),
            (Documents,
                r#"{"workload":"Triad","runs":10,"window":[0.5,1.0],"deep":{"x":null,"y":true}}"#
                    .into(),
                Some(obj(&[("workload", Str("Triad".into())), ("runs", num("10")),
                    ("window", Arr(vec![num("0.5"), num("1.0")])),
                    ("deep", obj(&[("x", Null), ("y", Bool(true))]))]))),
            (Documents, "0".into(), Some(num("0"))),
            (Documents, "-0.25E-2".into(), Some(num("-0.25E-2"))),
            (Documents, "\"\\ud800\"".into(), Some(Str("\u{fffd}".into()))),
            (Documents, "\"\\\"\\\\\\/\\b\\f\\r\\t\"".into(),
                Some(Str("\"\\/\u{8}\u{c}\r\t".into()))),
            (Documents, "\"h\u{e9}llo \u{1f600}\"".into(),
                Some(Str("h\u{e9}llo \u{1f600}".into()))),
            (Documents, "{\"k\":1,\"k\":2}".into(), Some(obj(&[("k", num("2"))]))),
            (Integers, "{\"seed\":18446744073709551615}".into(),
                Some(obj(&[("seed", num("18446744073709551615"))]))),
            // The cap is exact, and objects count like arrays.
            (Nesting, arrays(128), Some(nested_arrays(128))),
            (Nesting, arrays(129), None),
            (Nesting, objects(128), Some(nested_objects(128))),
            (Nesting, objects(129), None),
        ];
        let refused: [(Rule, &[&str]); 2] = [
            (Validator, &["", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru", "01", "1.",
                "\"unterminated", "\"bad\\escape\"", "{} {}", "[1] trailing", "{'single':1}"]),
            (Malformed, &["[1,2", "nul", "{} trailing",
                // Numbers and strings outside RFC 8259's grammar.
                "+1", ".5", "1e", "-", "\"a\tb\"", "\"\\u+041\"", "\"\\u12\""]),
        ];
        for (rule, inputs) in refused {
            rows.extend(inputs.iter().map(|s| (rule, s.to_string(), None)));
        }
        rows
    }

    /// Checks every row of [`table`] that belongs to `rule`.
    pub(crate) fn check(rule: Rule) {
        let rows: Vec<_> = table().into_iter().filter(|(r, ..)| *r == rule).collect();
        assert!(!rows.is_empty(), "no rows for {rule:?}");
        for (_, input, want) in rows {
            let got = JsonValue::parse(&input);
            match want {
                Some(v) => assert_eq!(got, Ok(v), "input {input:?}"),
                None => assert!(got.is_err(), "accepted {input:?} as {got:?}"),
            }
        }
    }

    #[test]
    fn parses_nested_documents() {
        check(Rule::Documents);
        let v = JsonValue::parse("{\"w\":[0.5],\"s\":\"x\",\"b\":true}").unwrap();
        let w = v.get("w").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(w[0].as_f64(), Some(0.5));
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(JsonValue::as_bool), Some(true));
    }

    #[test]
    fn integers_round_trip_exactly() {
        check(Rule::Integers);
        let v = JsonValue::parse("{\"seed\":18446744073709551615}").unwrap();
        assert_eq!(v.get("seed").and_then(JsonValue::as_u64), Some(u64::MAX));
        assert_eq!(JsonValue::parse("1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn rejects_malformed_input() {
        check(Rule::Malformed);
    }

    #[test]
    fn nesting_is_capped() {
        check(Rule::Nesting);
    }

    #[test]
    fn escapes_round_trip() {
        for original in [
            "line\n\"quoted\"\tand \\ back",
            "a\"b",
            "a\\b",
            "tab\there",
            "bell\u{7}",
            "",
        ] {
            let lit = json_escape(original);
            let v = JsonValue::parse(&lit).unwrap();
            assert_eq!(v.as_str(), Some(original));
        }
    }
}
