//! A spec-correct JSON value, parser and serializer, hand-rolled: the
//! build is fully offline, so serde_json is not available and the serde
//! stub does not serialize anything.
//!
//! Two properties matter more than speed here:
//!
//! * **Exact f64 round-trips.** Planner state is full of f64s whose *bit
//!   patterns* are contractual (warm re-plans must be bit-identical to
//!   cold ones). Serialization uses Rust's shortest-round-trip `Display`
//!   for `f64`, and parsing uses `f64::from_str`, which together restore
//!   the exact bits of every finite double — including `-0.0` (printed
//!   as `-0`) and subnormals. Non-finite values have no JSON
//!   representation and are rejected with a typed error at
//!   serialization time; codecs that need ∞ (e.g. a constant cut-off)
//!   must encode it structurally (this crate uses `null`).
//! * **Strict grammar.** The parser accepts exactly RFC 8259: no
//!   trailing commas, no comments, no leading zeros, no bare NaN/inf
//!   tokens, full `\uXXXX` escapes with surrogate-pair handling, and a
//!   depth limit so adversarial nesting cannot overflow the stack.
//!
//! Object members preserve insertion order (a `Vec` of pairs, not a
//! map): snapshot files diff cleanly and serialization is deterministic.

use std::fmt;

/// Maximum nesting depth the parser accepts. Snapshot documents nest a
/// dozen levels; 128 leaves headroom while keeping recursion bounded.
const MAX_DEPTH: usize = 128;

/// A JSON document value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number. Constructing a non-finite `Num` is not itself an
    /// error, but serializing one is ([`JsonError::NonFinite`]).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; member order is preserved and duplicate keys are
    /// rejected by the parser.
    Obj(Vec<(String, Json)>),
}

/// Typed error for parsing or serialization failures.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonError {
    /// The input text violated the JSON grammar. Carries the byte offset
    /// and a description.
    Syntax {
        /// Byte offset of the offending input.
        at: usize,
        /// What went wrong.
        message: String,
    },
    /// A number to be serialized was NaN or ±∞, which JSON cannot
    /// represent.
    NonFinite,
    /// Nesting exceeded [`MAX_DEPTH`].
    TooDeep,
    /// An object contained the same key twice.
    DuplicateKey(String),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax { at, message } => write!(f, "syntax error at byte {at}: {message}"),
            JsonError::NonFinite => write!(f, "cannot serialize a non-finite number"),
            JsonError::TooDeep => write!(f, "nesting deeper than {MAX_DEPTH}"),
            JsonError::DuplicateKey(k) => write!(f, "duplicate object key {k:?}"),
        }
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Self {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds a string value. Takes `AsRef<str>` so `&String` iterators
    /// can map over it directly.
    pub fn str(s: impl AsRef<str>) -> Self {
        Json::Str(s.as_ref().to_string())
    }

    /// The value of an object member, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Boolean value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Element slice, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Member slice, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serializes to compact JSON text.
    ///
    /// # Errors
    ///
    /// [`JsonError::NonFinite`] if any number in the tree is NaN or ±∞.
    pub fn to_text(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.write(&mut out)?;
        Ok(out)
    }

    /// Serializes to compact JSON text, panicking on non-finite numbers.
    /// The codecs encode infinity structurally (as `null`) and never build
    /// NaN values, so for values they produce this cannot fail; use
    /// [`Json::to_text`] when the tree comes from an untrusted builder.
    ///
    /// # Panics
    ///
    /// Panics if the tree contains a NaN or infinite number.
    #[must_use]
    pub fn render(&self) -> String {
        self.to_text().expect("codec-produced JSON is finite")
    }

    fn write(&self, out: &mut String) -> Result<(), JsonError> {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if !n.is_finite() {
                    return Err(JsonError::NonFinite);
                }
                // Rust's f64 Display prints the shortest decimal string
                // that parses back to the same bits; "-0" and subnormals
                // included. Integral values print without a fraction
                // ("3", not "3.0"), which is still valid JSON.
                out.push_str(&n.to_string());
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out)?;
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out)?;
                }
                out.push('}');
            }
        }
        Ok(())
    }

    /// Parses JSON text. The whole input must be one value (plus
    /// whitespace); trailing data is an error.
    ///
    /// # Errors
    ///
    /// [`JsonError::Syntax`] with a byte offset on any grammar violation,
    /// [`JsonError::TooDeep`] past the nesting bound,
    /// [`JsonError::DuplicateKey`] on repeated object keys.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data after the document"));
        }
        Ok(value)
    }
}

/// Writes `s` as a JSON string literal, escaping per RFC 8259: `"` and
/// `\` always, control characters as `\n`/`\r`/`\t`/`\b`/`\f` or
/// `\u00XX`. Non-ASCII code points pass through as UTF-8.
fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError::Syntax {
            at: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::TooDeep);
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(JsonError::DuplicateKey(key));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            match c {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                0x00..=0x1f => {
                    return Err(self.err("unescaped control character in string"));
                }
                _ => {
                    // Consume one UTF-8 scalar. The input is a &str, so
                    // the bytes are valid UTF-8 by construction.
                    let start = self.pos;
                    let len = utf8_len(c);
                    self.pos += len;
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..start + len])
                            .expect("input is valid UTF-8"),
                    );
                }
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let Some(c) = self.peek() else {
            return Err(self.err("unterminated escape"));
        };
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => return self.unicode_escape(),
            _ => return Err(self.err(format!("invalid escape '\\{}'", c as char))),
        })
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        if (0xD800..=0xDBFF).contains(&first) {
            // High surrogate: a low surrogate escape must follow.
            if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                self.pos += 2;
                let second = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&second) {
                    return Err(self.err("high surrogate not followed by a low surrogate"));
                }
                let combined = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                return char::from_u32(combined).ok_or_else(|| self.err("invalid surrogate pair"));
            }
            return Err(self.err("lone high surrogate"));
        }
        if (0xDC00..=0xDFFF).contains(&first) {
            return Err(self.err("lone low surrogate"));
        }
        char::from_u32(first).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let Some(c) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let digit = match c {
                b'0'..=b'9' => u32::from(c - b'0'),
                b'a'..=b'f' => u32::from(c - b'a') + 10,
                b'A'..=b'F' => u32::from(c - b'A') + 10,
                _ => return Err(self.err("non-hex digit in \\u escape")),
            };
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: "0" alone, or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected a digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected a digit after '.'"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected a digit in the exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        // The grammar above admits only strings f64::from_str accepts, and
        // overflow saturates to ±∞ per IEEE — reject that explicitly so a
        // parsed document never contains a non-finite number.
        let n: f64 = text.parse().map_err(|_| self.err("unparseable number"))?;
        if !n.is_finite() {
            return Err(self.err("number overflows an f64"));
        }
        Ok(Json::Num(n))
    }
}

/// Length in bytes of the UTF-8 sequence starting with `first`.
fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Json) -> Json {
        Json::parse(&v.to_text().unwrap()).unwrap()
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Num(0.0),
            Json::Num(-0.0),
            Json::Num(1.5),
            Json::Num(1e300),
            Json::Num(5e-324),
            Json::Num(f64::MAX),
            Json::Num(f64::MIN_POSITIVE),
            Json::str("hello"),
            Json::str(""),
        ] {
            assert_eq!(round_trip(&v), v);
        }
        // -0.0 round-trips to the exact bit pattern, not just PartialEq.
        let Json::Num(n) = round_trip(&Json::Num(-0.0)) else {
            panic!()
        };
        assert_eq!(n.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn non_finite_serialization_is_a_typed_error() {
        assert_eq!(Json::Num(f64::NAN).to_text(), Err(JsonError::NonFinite));
        assert_eq!(
            Json::Num(f64::INFINITY).to_text(),
            Err(JsonError::NonFinite)
        );
        assert_eq!(
            Json::Arr(vec![Json::Num(f64::NEG_INFINITY)]).to_text(),
            Err(JsonError::NonFinite)
        );
    }

    #[test]
    fn escapes_round_trip() {
        let nasty = "quote\" backslash\\ newline\n tab\t nul\u{0} bell\u{7} é 中 🦀";
        let v = Json::str(nasty);
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(Json::parse(r#""A""#).unwrap(), Json::str("A"));
        assert_eq!(Json::parse(r#""🦀""#).unwrap(), Json::str("🦀"));
        assert!(Json::parse(r#""\ud83e""#).is_err()); // lone high surrogate
        assert!(Json::parse(r#""\udd80""#).is_err()); // lone low surrogate
        assert!(Json::parse(r#""\ud83eA""#).is_err());
    }

    #[test]
    fn strict_grammar_rejections() {
        for text in [
            "",
            " ",
            "{",
            "[1,]",
            "{\"a\":1,}",
            "01",
            "1.",
            ".5",
            "+1",
            "nan",
            "NaN",
            "inf",
            "Infinity",
            "1 2",
            "'a'",
            "{\"a\" 1}",
            "\"\x01\"",
            "tru",
            "[1 2]",
            "1e",
            "1e+",
            "--1",
            "\u{0031}\u{0065}\u{0039}\u{0039}\u{0039}", // 1e999 overflows
        ] {
            assert!(Json::parse(text).is_err(), "should reject {text:?}");
        }
    }

    #[test]
    fn duplicate_keys_rejected() {
        assert_eq!(
            Json::parse(r#"{"a":1,"a":2}"#),
            Err(JsonError::DuplicateKey("a".into()))
        );
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert_eq!(Json::parse(&deep), Err(JsonError::TooDeep));
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Json::obj([("z", Json::Num(1.0)), ("a", Json::Num(2.0))]);
        assert_eq!(v.to_text().unwrap(), r#"{"z":1,"a":2}"#);
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Json::obj([
            (
                "arr",
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Num(-2.5)]),
            ),
            ("obj", Json::obj([("k", Json::str("v"))])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn whitespace_is_tolerated_between_tokens() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(
            v,
            Json::obj([
                ("a", Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])),
                ("b", Json::Null),
            ])
        );
    }
}
