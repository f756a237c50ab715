//! A spec-correct JSON value, parser and serializer, hand-rolled: the
//! build is fully offline, so serde_json is not available and the serde
//! stub does not serialize anything.
//!
//! Two properties matter more than speed here, and the fast paths below
//! are each held to them by a test against the plain form:
//!
//! * **Exact f64 round-trips.** Planner state is full of f64s whose *bit
//!   patterns* are contractual (warm re-plans must be bit-identical to
//!   cold ones). Serialization emits, byte for byte, what Rust's
//!   shortest-round-trip `Display` for `f64` prints, and parsing returns
//!   what `f64::from_str` returns, which together restore the exact bits
//!   of every finite double — including `-0.0` (printed as `-0`) and
//!   subnormals. Non-finite values have no JSON representation and are
//!   rejected with a typed error at serialization time; codecs that need
//!   ∞ (e.g. a constant cut-off) must encode it structurally (this crate
//!   uses `null`).
//!
//!   Neither side calls `Display` or `from_str` for the common case; both
//!   are the oracles the tests hold the fast forms to. The writer prints
//!   an integral value below 2^53 as its `u64`'s digits and every other
//!   value as the shortest digits Ryū finds (the private `ryu` module,
//!   which rounds ties the way std does), laid out as `Display` lays them
//!   out: no exponent, zeros padded on either side. The reader reads the
//!   digits once into a `u64`; a number without an exponent whose 19 or
//!   fewer digits make a mantissa of at most 2^53 is one exact division
//!   (Clinger's fast path), and every other number goes to `from_str`.
//!   Span bodies are mostly such numbers, and they are where the daemon
//!   and its clients spend their JSON time.
//! * **Strict grammar.** The parser accepts exactly RFC 8259: no
//!   trailing commas, no comments, no leading zeros, no bare NaN/inf
//!   tokens, full `\uXXXX` escapes with surrogate-pair handling, and a
//!   depth limit so adversarial nesting cannot overflow the stack. There
//!   is one grammar: the parser is crate-visible so that a codec can pull
//!   tokens from it and build domain values without a [`Json`] tree in
//!   between (`codec::span_batch_from_text`), and what such a decoder
//!   does not consume itself it hands to `Parser::value`, so it can
//!   accept nothing [`Json::parse`] rejects.
//!
//! Object members preserve insertion order (a `Vec` of pairs, not a
//! map): snapshot files diff cleanly and serialization is deterministic.

use std::collections::HashSet;
use std::fmt;
use std::io::{self, Write};

use crate::ryu;

/// Maximum nesting depth the parser accepts. Snapshot documents nest a
/// dozen levels; 128 leaves headroom while keeping recursion bounded.
const MAX_DEPTH: usize = 128;

/// Members an object may hold while its duplicate-key check is a scan of
/// the members read so far. Past it the keys go into a hash set: a scan per
/// member is quadratic, and a body of distinct short keys at the size limit
/// would pin a worker for hours.
const SCANNED_KEYS: usize = 16;

/// 2^53: every `u64` up to it is an exact `f64`.
const EXACT_MANTISSA: u64 = 1 << 53;

/// 2^53: below it every integral `f64` is an exact `u64`.
const EXACT_INTEGERS: f64 = EXACT_MANTISSA as f64;

/// 10^0 … 10^18, each an exact `f64` (every power up to 10^22 is).
const EXACT_POWERS_OF_TEN: [f64; 19] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18,
];

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
    /// Nesting exceeded `MAX_DEPTH`.
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
        let mut out = Vec::new();
        self.write(&mut out)
            .map_err(|NonFinite| JsonError::NonFinite)?;
        // One validation pass over the document: every byte came from a
        // `str` or is ASCII, so this cannot fail.
        Ok(String::from_utf8(out).expect("the writer emits UTF-8"))
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

    fn write(&self, out: &mut Vec<u8>) -> Result<(), NonFinite> {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(true) => out.extend_from_slice(b"true"),
            Json::Bool(false) => out.extend_from_slice(b"false"),
            Json::Num(n) => write_number(*n, out)?,
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    // Arrays of numbers are most of the bytes (span rows,
                    // samples): those are written without a call per item.
                    match item {
                        Json::Num(n) => write_number(*n, out)?,
                        _ => item.write(out)?,
                    }
                }
                out.push(b']');
            }
            Json::Obj(pairs) => {
                out.push(b'{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    write_escaped(k, out);
                    out.push(b':');
                    v.write(out)?;
                }
                out.push(b'}');
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
        let mut p = Parser::new(text);
        p.skip_ws();
        let value = p.value(0)?;
        p.finish()?;
        Ok(value)
    }
}

/// Two ASCII digits for every number below 100: `00`, `01`, …, `99`.
const DIGIT_PAIRS: [u8; 200] = {
    let mut table = [0; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
};

/// A number the writer met that JSON cannot carry: one byte of error, so
/// the writer's `Result`s stay in registers.
struct NonFinite;

/// Writes two digits, `pair < 100`, just before `at`.
fn write_pair(pair: u32, buf: &mut [u8; 20], at: usize) {
    let pair = pair as usize * 2;
    buf[at - 2..at].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
}

/// Writes the decimal digits of `v` at the end of `buf`, two at a time
/// and in `u32` arithmetic; returns the index of the first.
fn decimal_digits(v: u64, buf: &mut [u8; 20]) -> usize {
    let mut at = buf.len();
    let mut high = v;
    while high >= 100_000_000 {
        let mut low = (high % 100_000_000) as u32;
        high /= 100_000_000;
        for _ in 0..4 {
            write_pair(low % 100, buf, at);
            low /= 100;
            at -= 2;
        }
    }
    let mut v = high as u32;
    while v >= 100 {
        write_pair(v % 100, buf, at);
        v /= 100;
        at -= 2;
    }
    if v >= 10 {
        write_pair(v, buf, at);
        at - 2
    } else {
        buf[at - 1] = b'0' + v as u8;
        at - 1
    }
}

/// Writes a number as `f64`'s `Display` prints it: the shortest decimal
/// string that parses back to the same bits, "-0" and subnormals included,
/// never an exponent, integral values without a fraction ("3", not "3.0",
/// still valid JSON). Integral values below 2^53 are their `u64`'s digits;
/// every other value is the digits [`ryu::shortest`] finds, with the point
/// placed and zeros padded as `Display` does.
fn write_number(n: f64, out: &mut Vec<u8>) -> Result<(), NonFinite> {
    if !n.is_finite() {
        return Err(NonFinite);
    }
    if n.is_sign_negative() {
        out.push(b'-');
    }
    let mut buf = [0; 20];
    // The cast truncates, so only an integral value comes back unchanged.
    let whole = n as i64;
    if whole as f64 == n && n.abs() < EXACT_INTEGERS {
        let first = decimal_digits(whole.unsigned_abs(), &mut buf);
        out.extend_from_slice(&buf[first..]);
        return Ok(());
    }
    let (digits, exponent) = ryu::shortest(n.abs().to_bits());
    let first = decimal_digits(digits, &mut buf);
    let digits = &buf[first..];
    // The value is 0.<digits> × 10^point.
    let point = digits.len() as i32 + exponent;
    if point <= 0 {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + point.unsigned_abs() as usize, b'0');
        out.extend_from_slice(digits);
    } else if (point as usize) < digits.len() {
        let (whole, fraction) = digits.split_at(point as usize);
        out.extend_from_slice(whole);
        out.push(b'.');
        out.extend_from_slice(fraction);
    } else {
        out.extend_from_slice(digits);
        out.resize(out.len() + point as usize - digits.len(), b'0');
    }
    Ok(())
}

/// Writes `s` as a JSON string literal, escaping per RFC 8259: `"` and
/// `\` always, control characters as `\n`/`\r`/`\t`/`\b`/`\f` or
/// `\u00XX`. Non-ASCII code points pass through as UTF-8.
fn write_escaped(s: &str, out: &mut Vec<u8>) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    out.push(b'"');
    // Everything between two escapes is copied as one slice.
    let mut run = 0;
    for (i, &byte) in bytes.iter().enumerate() {
        let short: Option<&[u8]> = match byte {
            b'"' => Some(b"\\\""),
            b'\\' => Some(b"\\\\"),
            b'\n' => Some(b"\\n"),
            b'\r' => Some(b"\\r"),
            b'\t' => Some(b"\\t"),
            0x08 => Some(b"\\b"),
            0x0c => Some(b"\\f"),
            0x00..=0x1f => None,
            _ => continue,
        };
        out.extend_from_slice(&bytes[run..i]);
        match short {
            Some(escape) => out.extend_from_slice(escape),
            None => {
                let hex = |nibble: u8| HEX[usize::from(nibble)];
                out.extend_from_slice(&[b'\\', b'u', b'0', b'0', hex(byte >> 4), hex(byte & 0xf)]);
            }
        }
        run = i + 1;
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

/// Bytes a writer with a sink buffers before [`Writer::spill`] moves them
/// out.
const SPILL_BYTES: usize = 64 * 1024;

/// The writer twin of [`Parser`]: a codec that wants text without a tree
/// pushes tokens into one buffer, through the number and string writers
/// [`Json::render`] uses, so what it writes is the bytes the tree it
/// skipped would have rendered.
///
/// A writer made by [`Writer::to`] streams: its codec calls
/// [`Writer::spill`] between items, and the buffer goes to the sink each
/// time it holds 64 KB, so a document of any size costs about that much.
pub(crate) struct Writer<'a> {
    out: Vec<u8>,
    /// Where `spill` moves the buffer, and what it has moved: the bytes
    /// written so far, or the first error the sink returned (after which
    /// nothing more is written). `None` for a writer that builds a string.
    sink: Option<(&'a mut dyn Write, io::Result<u64>)>,
}

impl<'a> Writer<'a> {
    pub(crate) fn new() -> Self {
        Self {
            out: Vec::new(),
            sink: None,
        }
    }

    /// A writer whose text goes to `sink` through [`Writer::spill`],
    /// [`Writer::drain`] and [`Writer::close`]. Its buffer has room for 64 KB
    /// and the item that crosses that line, so it is seldom grown.
    pub(crate) fn to(sink: &'a mut dyn Write) -> Self {
        Self {
            out: Vec::with_capacity(2 * SPILL_BYTES),
            sink: Some((sink, Ok(0))),
        }
    }

    /// Moves the buffer into the sink once it holds 64 KB; does nothing
    /// for a writer without one.
    pub(crate) fn spill(&mut self) {
        if self.out.len() >= SPILL_BYTES {
            self.drain();
        }
    }

    /// Moves the whole buffer into the sink now; does nothing for a writer
    /// without one. Called before an item written in one piece that may be
    /// large (a plan), so the buffer holds that item and not 64 KB besides.
    pub(crate) fn drain(&mut self) {
        let Some((sink, written)) = &mut self.sink else {
            return;
        };
        if let Ok(count) = written {
            match sink.write_all(&self.out) {
                Ok(()) => *count += self.out.len() as u64,
                Err(e) => *written = Err(e),
            }
        }
        self.out.clear();
    }

    /// Moves what is left into the sink. Returns the bytes written in all,
    /// or the sink's first error.
    ///
    /// # Panics
    ///
    /// Panics on a writer made by [`Writer::new`], which has no sink.
    pub(crate) fn close(mut self) -> io::Result<u64> {
        self.drain();
        self.sink.expect("a writer made by `Writer::to`").1
    }

    /// A value that is already a tree, written as [`Json::render`] writes
    /// it.
    ///
    /// # Panics
    ///
    /// Panics on a NaN or infinite number, as [`Json::render`] does.
    pub(crate) fn json(&mut self, value: &Json) {
        value
            .write(&mut self.out)
            .map_err(|NonFinite| JsonError::NonFinite)
            .expect("codec-produced JSON is finite");
    }

    /// One byte of punctuation: `{`, `}`, `[`, `]` or `,`.
    pub(crate) fn byte(&mut self, byte: u8) {
        self.out.push(byte);
    }

    /// An object member's key and its `:`.
    pub(crate) fn key(&mut self, key: &str) {
        write_escaped(key, &mut self.out);
        self.out.push(b':');
    }

    pub(crate) fn string(&mut self, s: &str) {
        write_escaped(s, &mut self.out);
    }

    /// # Panics
    ///
    /// Panics on a NaN or infinite number, as [`Json::render`] does.
    pub(crate) fn number(&mut self, n: f64) {
        write_number(n, &mut self.out)
            .map_err(|NonFinite| JsonError::NonFinite)
            .expect("codec-produced JSON is finite");
    }

    /// An array: `[`, each item written by `item`, `,` between, `]`.
    pub(crate) fn array<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut item: impl FnMut(&mut Self, T),
    ) {
        self.out.push(b'[');
        for (i, value) in items.into_iter().enumerate() {
            if i > 0 {
                self.out.push(b',');
            }
            item(self, value);
        }
        self.out.push(b']');
    }

    pub(crate) fn finish(self) -> String {
        // Every byte came from a `str` or is ASCII, as in `Json::to_text`.
        String::from_utf8(self.out).expect("the writer emits UTF-8")
    }
}

/// The one tokenizer of the crate. [`Json::parse`] is its first client; a
/// codec that wants domain values without a tree pulls from the same
/// entry points.
pub(crate) struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    /// A parser at the first byte of `text`.
    pub(crate) fn new(text: &'a str) -> Self {
        Self { text, pos: 0 }
    }

    /// A syntax error at the current position.
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError::Syntax {
            at: self.pos,
            message: message.into(),
        }
    }

    /// The next byte, if any, without consuming it.
    pub(crate) fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes insignificant whitespace.
    pub(crate) fn skip_ws(&mut self) {
        self.pos = skip_ws(self.text.as_bytes(), self.pos);
    }

    /// Consumes `byte` if it is next; says whether it did.
    pub(crate) fn eat(&mut self, byte: u8) -> bool {
        let found = self.peek() == Some(byte);
        self.pos += usize::from(found);
        found
    }

    /// Consumes `byte` or fails.
    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", byte as char)))
        }
    }

    /// Consumes trailing whitespace and fails unless the input ends there.
    pub(crate) fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.err("trailing data after the document"))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    /// Parses any value into a tree. `depth` is the nesting level of the
    /// value itself (0 for the document).
    pub(crate) fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
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
            Some(b'-' | b'0'..=b'9') => self.number().map(Json::Num),
            Some(c) => Err(self.err(format!("unexpected byte {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Walks the elements of an array or the members of an object whose
    /// opening byte has been consumed, up to and including `close`. `item`
    /// is called at the first byte of each element and consumes exactly it;
    /// the separators and the whitespace around them are handled here.
    pub(crate) fn sequence<E: From<JsonError>>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), E>,
    ) -> Result<(), E> {
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            if self.eat(b',') {
                continue;
            }
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(self
                    .err(format!("expected ',' or '{}'", close as char))
                    .into());
            }
        }
    }

    /// Parses the key of an object member and the colon after it, leaving
    /// the parser at the first byte of the member's value.
    pub(crate) fn key(&mut self) -> Result<String, JsonError> {
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(key)
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.sequence(b']', |p| {
            items.push(p.value(depth + 1)?);
            Ok::<(), JsonError>(())
        })?;
        Ok(Json::Arr(items))
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        // Keys of `pairs`, kept only once there are too many to scan.
        let mut seen: HashSet<String> = HashSet::new();
        self.sequence(b'}', |p| {
            let key = p.key()?;
            let duplicate = if pairs.len() < SCANNED_KEYS {
                pairs.iter().any(|(k, _)| *k == key)
            } else {
                if seen.is_empty() {
                    seen.extend(pairs.iter().map(|(k, _)| k.clone()));
                }
                !seen.insert(key.clone())
            };
            if duplicate {
                return Err(JsonError::DuplicateKey(key));
            }
            pairs.push((key, p.value(depth + 1)?));
            Ok(())
        })?;
        Ok(Json::Obj(pairs))
    }

    /// Parses a string literal, resolving its escapes.
    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control byte
            // whole. All three are ASCII, so the run ends on a character
            // boundary of the (valid UTF-8) input.
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0x00..=0x1f)) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
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
            if self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
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

    /// Parses a number to the `f64` that `f64::from_str` makes of its text.
    pub(crate) fn number(&mut self) -> Result<f64, JsonError> {
        let (n, end) = number_at(self.text, self.pos)?;
        self.pos = end;
        Ok(n)
    }

    /// Walks `[[n, …], [n, …], …]`, an array whose elements are arrays of
    /// exactly `N` numbers, handing each element's numbers to `row`. Fails
    /// with `array` when no array is here and with `element` when an
    /// element is anything else. This is the loop a span body spends its
    /// time in, so the position stays in a local from the first bracket
    /// to the last, and the whitespace rule is consulted only where the
    /// expected byte is not next.
    pub(crate) fn rows<const N: usize, E: From<JsonError> + From<&'static str>>(
        &mut self,
        array: &'static str,
        element: &'static str,
        mut row: impl FnMut([f64; N]) -> Result<(), E>,
    ) -> Result<(), E> {
        let bytes = self.text.as_bytes();
        if bytes.get(self.pos) != Some(&b'[') {
            return Err(array.into());
        }
        let mut at = skip_ws(bytes, self.pos + 1);
        if bytes.get(at) == Some(&b']') {
            self.pos = at + 1;
            return Ok(());
        }
        loop {
            if bytes.get(at) != Some(&b'[') {
                return Err(element.into());
            }
            let mut fields = [0.0; N];
            for (i, field) in fields.iter_mut().enumerate() {
                at = skip_ws(bytes, at + 1);
                if !matches!(bytes.get(at), Some(b'-' | b'0'..=b'9')) {
                    return Err(element.into());
                }
                (*field, at) = number_at(self.text, at)?;
                let separator = if i + 1 == N { b']' } else { b',' };
                if bytes.get(at) != Some(&separator) {
                    at = skip_ws(bytes, at);
                    if bytes.get(at) != Some(&separator) {
                        return Err(element.into());
                    }
                }
            }
            row(fields)?;
            at += 1;
            if bytes.get(at) != Some(&b',') {
                at = skip_ws(bytes, at);
            }
            match bytes.get(at) {
                Some(b',') => at = skip_ws(bytes, at + 1),
                Some(b']') => {
                    self.pos = at + 1;
                    return Ok(());
                }
                _ => return Err(syntax(at, "expected ',' or ']'").into()),
            }
        }
    }
}

/// The index of the first byte at or after `at` that is not whitespace.
#[inline]
fn skip_ws(bytes: &[u8], mut at: usize) -> usize {
    while matches!(bytes.get(at), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        at += 1;
    }
    at
}

/// A syntax error at byte `at`.
#[cold]
fn syntax(at: usize, message: &str) -> JsonError {
    JsonError::Syntax {
        at,
        message: message.to_string(),
    }
}

/// Whether all eight bytes of a little-endian word are ASCII digits.
fn eight_digits(word: u64) -> bool {
    (word.wrapping_add(0x4646_4646_4646_4646) | word.wrapping_sub(0x3030_3030_3030_3030))
        & 0x8080_8080_8080_8080
        == 0
}

/// The value of eight ASCII digits in a little-endian word (the first
/// digit in the low byte), in three multiplications.
fn eight_digit_value(word: u64) -> u64 {
    const MASK: u64 = 0x0000_00FF_0000_00FF;
    const MUL1: u64 = 0x000F_4240_0000_0064;
    const MUL2: u64 = 0x0000_2710_0000_0001;
    let v = word - 0x3030_3030_3030_3030;
    let v = v * 10 + (v >> 8);
    let v1 = (v & MASK).wrapping_mul(MUL1);
    let v2 = ((v >> 16) & MASK).wrapping_mul(MUL2);
    u64::from((v1.wrapping_add(v2) >> 32) as u32)
}

/// Reads the run of digits at `at`, eight at a time while eight are there,
/// appending them to `value` (which is meaningful only while it fits: the
/// caller checks the count). Returns where the run ends and the value.
#[inline]
fn digits(bytes: &[u8], mut at: usize, mut value: u64) -> (usize, u64) {
    while let Some(chunk) = bytes.get(at..at + 8) {
        let word = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        if !eight_digits(word) {
            break;
        }
        value = value
            .wrapping_mul(100_000_000)
            .wrapping_add(eight_digit_value(word));
        at += 8;
    }
    short_digits(bytes, at, value)
}

/// [`digits`] one at a time: for runs that are seldom eight long.
#[inline]
fn short_digits(bytes: &[u8], mut at: usize, mut value: u64) -> (usize, u64) {
    while let Some(&c) = bytes.get(at) {
        let digit = c.wrapping_sub(b'0');
        if digit > 9 {
            break;
        }
        value = value.wrapping_mul(10).wrapping_add(u64::from(digit));
        at += 1;
    }
    (at, value)
}

/// Parses the number at byte `start` of `text` to the `f64` that
/// `f64::from_str` makes of it; returns it and the index after it.
///
/// The digits are read once, into a `u64`. Without an exponent, and with
/// at most 19 digits (so the `u64` has not wrapped) making a mantissa of at
/// most 2^53, the value is Clinger's fast path: the mantissa and the power
/// of ten (at most 10^18) are exact doubles, so one IEEE division rounds
/// their quotient correctly, as `from_str` does. Every other number is
/// handed to `from_str` itself.
#[inline(always)]
fn number_at(text: &str, start: usize) -> Result<(f64, usize), JsonError> {
    let bytes = text.as_bytes();
    let negative = bytes.get(start) == Some(&b'-');
    let int_start = start + usize::from(negative);
    // Integer part: "0" alone, or a nonzero digit followed by digits.
    let (mut at, mut mantissa) = match bytes.get(int_start) {
        Some(b'0') => (int_start + 1, 0),
        Some(b'1'..=b'9') => short_digits(bytes, int_start, 0),
        _ => return Err(syntax(int_start, "expected a digit")),
    };
    let int_digits = at - int_start;
    let mut fraction_digits = 0;
    if bytes.get(at) == Some(&b'.') {
        let fraction_start = at + 1;
        (at, mantissa) = digits(bytes, fraction_start, mantissa);
        fraction_digits = at - fraction_start;
        if fraction_digits == 0 {
            return Err(syntax(at, "expected a digit after '.'"));
        }
    }
    if matches!(bytes.get(at), Some(b'e' | b'E')) {
        at += 1;
        at += usize::from(matches!(bytes.get(at), Some(b'+' | b'-')));
        let exponent_start = at;
        (at, _) = short_digits(bytes, at, 0);
        if at == exponent_start {
            return Err(syntax(at, "expected a digit in the exponent"));
        }
    } else if int_digits + fraction_digits <= 19 && mantissa <= EXACT_MANTISSA {
        // "-0" and "-0.0" are -0.0 either way.
        let n = mantissa as f64 / EXACT_POWERS_OF_TEN[fraction_digits];
        return Ok((if negative { -n } else { n }, at));
    }
    // The grammar above admits only strings f64::from_str accepts, and
    // overflow saturates to ±∞ per IEEE — reject that explicitly so a
    // parsed document never contains a non-finite number.
    let n: f64 = text[start..at]
        .parse()
        .map_err(|_| syntax(at, "unparseable number"))?;
    if !n.is_finite() {
        return Err(syntax(at, "number overflows an f64"));
    }
    Ok((n, at))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    fn parsed_bits(text: &str) -> Option<u64> {
        match Json::parse(text) {
            Ok(Json::Num(n)) => Some(n.to_bits()),
            _ => None,
        }
    }

    #[test]
    fn numbers_at_the_edges_of_the_fast_paths() {
        let two53 = EXACT_INTEGERS;
        for n in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            two53 - 1.0,
            two53,
            two53 + 2.0,
            -(two53 - 1.0),
            -two53,
            -(two53 + 2.0),
            999_999_999_999_999.0,
            1e15,
            1e16,
            1e21,
            1e300,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            5e-324,
            -5e-324,
            0.1,
            -2.5,
            123_456_789.125,
            1e22,
            1e23,
            2.0 / 3.0,
        ] {
            let text = Json::Num(n).render();
            assert_eq!(text, n.to_string());
            assert_eq!(parsed_bits(&text), Some(n.to_bits()), "{text}");
        }
        // 233115890514796.125 lies exactly between the shortest candidates
        // …796.12 and …796.13; std, and so the writer, rounds it up.
        let tie = f64::from_bits(0x42ea_8090_bb0f_6d84);
        assert_eq!(Json::Num(tie).render(), "233115890514796.13");
        assert_eq!(Json::Num(tie).render(), tie.to_string());
        // Integers up to 2^53 take the fast path, longer ones `from_str`;
        // both must be what `str::parse` says.
        for text in [
            "-0",
            "0",
            "7",
            "999999999999999",
            "-999999999999999",
            "1000000000000000",
            "9999999999999999",
            "9007199254740993",
            "-9007199254740993",
            "12345678901234567890",
            "123456789012345678901234567890",
        ] {
            let expected: f64 = text.parse().unwrap();
            assert_eq!(parsed_bits(text), Some(expected.to_bits()), "{text}");
        }
        for text in ["00", "01", "-01", "007", "-", "-x", "1.e3", "0x10"] {
            assert!(Json::parse(text).is_err(), "should reject {text:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The writer prints what `Display` prints, for any bit pattern and
        /// for integers (and integers and a half) of every magnitude.
        #[test]
        fn numbers_render_as_display_does(
            bits in any::<u64>(),
            int in any::<i64>(),
            shift in 0u32..64,
        ) {
            let int = (int >> shift) as f64;
            for n in [f64::from_bits(bits), int, int + 0.5] {
                if n.is_finite() {
                    prop_assert_eq!(Json::Num(n).render(), n.to_string());
                }
            }
        }

        /// The parser returns what `str::parse::<f64>` returns for integer
        /// text on either side of the fifteen-digit fast path.
        #[test]
        fn integers_parse_as_from_str_does(int in any::<i64>(), shift in 0u32..64) {
            let text = (int >> shift).to_string();
            let expected: f64 = text.parse().unwrap();
            prop_assert_eq!(parsed_bits(&text), Some(expected.to_bits()));
        }
    }

    #[test]
    fn duplicate_check_is_not_quadratic() {
        // 200 000 distinct members: a scan per member is 2·10^10 string
        // comparisons, the hash set a fraction of a second.
        let mut text = String::from("{");
        for i in 0..200_000 {
            text.push_str(&format!("\"k{i}\":{i},"));
        }
        let distinct = format!("{}\"last\":0}}", text);
        let started = std::time::Instant::now();
        let parsed = Json::parse(&distinct).expect("distinct keys parse");
        let took = started.elapsed();
        assert_eq!(parsed.as_obj().map(<[_]>::len), Some(200_001));
        // Under a second optimised; an unoptimised build on a busy host gets
        // slack that is still four orders of magnitude short of the scan.
        let bound = if cfg!(debug_assertions) { 10.0 } else { 1.0 };
        assert!(took.as_secs_f64() < bound, "200 000 keys took {took:?}");
        // A duplicate is still a duplicate on either side of the switch.
        for repeated in ["k3", "k100", "k199999"] {
            let text = format!("{text}\"{repeated}\":0}}");
            assert_eq!(
                Json::parse(&text),
                Err(JsonError::DuplicateKey(repeated.into()))
            );
        }
    }
}
