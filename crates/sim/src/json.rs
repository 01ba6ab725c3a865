//! A small, dependency-free JSON document model with writer and parser.
//!
//! The observability layer exports metrics and traces as JSON (see
//! `ftcoma-machine`). The workspace builds offline with no external
//! crates, so instead of `serde`/`serde_json` this module provides the
//! minimal pieces the exporters and their round-trip tests need: an ordered
//! document model ([`Json`]), a compact and a pretty writer, a strict
//! recursive-descent parser, and [`write_object`], which writes a compact
//! object straight into a `String` without building a tree (for exports
//! with one row per record).
//!
//! Objects preserve insertion order so exported schemas are byte-stable
//! across runs — a requirement for the versioned metrics schema.
//!
//! # Example
//!
//! ```
//! use ftcoma_sim::json::Json;
//!
//! let doc = Json::obj([
//!     ("schema_version", Json::from(1u64)),
//!     ("name", Json::from("water")),
//!     ("rates", Json::arr([Json::from(0.5), Json::from(2.0)])),
//! ]);
//! let text = doc.to_string_compact();
//! assert_eq!(text, r#"{"schema_version":1,"name":"water","rates":[0.5,2]}"#);
//! let back = Json::parse(&text).unwrap();
//! assert_eq!(back.get("schema_version").and_then(Json::as_u64), Some(1));
//! ```

use std::fmt::Write as _;

/// A JSON value. Objects keep their insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered key → value list.
    Obj(Vec<(String, Json)>),
}

/// A parse error with a byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset in the input where parsing failed.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}
impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Num(n as f64)
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::Num(n as f64)
    }
}
impl From<i64> for Json {
    fn from(n: i64) -> Self {
        Json::Num(n as f64)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Json::Num(x)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Looks up `key` in an object (`None` for other value kinds).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => Some(*x as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object's keys in order (empty for other value kinds).
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    /// Serializes without whitespace.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_number(out, *x),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    v.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

/// Writes one compact JSON object straight into `out`: `{`, the fields
/// `fields` adds, `}`.
///
/// The text is byte-for-byte what building the same [`Json::Obj`] and
/// calling [`Json::to_string_compact`] gives, since both go through the
/// same string and number writers, but no tree is built. Row-per-record
/// exports use it to write each row where it belongs in the output.
///
/// ```
/// use ftcoma_sim::json::{write_object, Json};
///
/// let mut out = String::new();
/// write_object(&mut out, |o| {
///     o.str("name", "a\"b").uint("n", 7).num("x", 0.5);
///     o.object("args", |a| {
///         a.bool("ok", true);
///     });
///     o.array("ids", |a| {
///         a.uint(1).uint(2);
///     });
/// });
/// let tree = Json::obj([
///     ("name", Json::from("a\"b")),
///     ("n", Json::from(7u64)),
///     ("x", Json::from(0.5)),
///     ("args", Json::obj([("ok", Json::from(true))])),
///     ("ids", Json::arr([Json::from(1u64), Json::from(2u64)])),
/// ]);
/// assert_eq!(out, tree.to_string_compact());
/// ```
#[inline]
pub fn write_object(out: &mut String, fields: impl FnOnce(&mut ObjectWriter<'_>)) {
    out.push('{');
    fields(&mut ObjectWriter { out, empty: true });
    out.push('}');
}

/// Writes one compact JSON array straight into `out` (see
/// [`write_object`]).
#[inline]
fn write_array(out: &mut String, items: impl FnOnce(&mut ArrayWriter<'_>)) {
    out.push('[');
    items(&mut ArrayWriter { out, empty: true });
    out.push(']');
}

/// The fields of an object being written by [`write_object`].
///
/// The writers' methods are `#[inline]` so that a row's fields compile
/// into the exporter's loop: with a call per field, a 16-node Chrome trace
/// took about a quarter longer to write.
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl ObjectWriter<'_> {
    /// Writes the separator and `"key":`, and returns the output for the
    /// value.
    ///
    /// Always inlined, like [`write_string`], so that a literal key's
    /// escape scan folds away at compile time and its copy has a fixed
    /// length. At `#[inline]` the compiler kept `key` out of line, so every
    /// key was scanned and copied at run time: a 16-node Chrome trace took
    /// ~240 ms to write on a 2-vCPU host, against ~140 ms inlined.
    #[inline(always)]
    fn key(&mut self, key: &str) -> &mut String {
        if !std::mem::replace(&mut self.empty, false) {
            self.out.push(',');
        }
        write_string(self.out, key);
        self.out.push(':');
        self.out
    }

    /// Adds a string field.
    #[inline]
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        write_string(self.key(key), value);
        self
    }

    /// Adds a number field, written like [`Json::Num`].
    #[inline]
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        write_number(self.key(key), value);
        self
    }

    /// Adds an integer field, written like `Json::from(value)`.
    #[inline]
    pub fn uint(&mut self, key: &str, value: u64) -> &mut Self {
        write_uint(self.key(key), value);
        self
    }

    /// Adds a boolean field.
    #[inline]
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key).push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds an object field whose fields `fields` writes.
    #[inline]
    pub fn object(&mut self, key: &str, fields: impl FnOnce(&mut ObjectWriter<'_>)) -> &mut Self {
        write_object(self.key(key), fields);
        self
    }

    /// Adds an array field whose items `items` writes.
    #[inline]
    pub fn array(&mut self, key: &str, items: impl FnOnce(&mut ArrayWriter<'_>)) -> &mut Self {
        write_array(self.key(key), items);
        self
    }
}

/// The items of an array being written by [`ObjectWriter::array`].
pub struct ArrayWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl ArrayWriter<'_> {
    /// Writes the separator and returns the output for the next item.
    #[inline]
    fn next(&mut self) -> &mut String {
        if !std::mem::replace(&mut self.empty, false) {
            self.out.push(',');
        }
        self.out
    }

    /// Appends an integer, written like `Json::from(value)`.
    #[inline]
    pub fn uint(&mut self, value: u64) -> &mut Self {
        write_uint(self.next(), value);
        self
    }

    /// Appends an object whose fields `fields` writes.
    #[inline]
    pub fn object(&mut self, fields: impl FnOnce(&mut ObjectWriter<'_>)) -> &mut Self {
        write_object(self.next(), fields);
        self
    }
}

// The writers below skip `core::fmt` and UTF-8 checks wherever the text
// is known without them, and copy a string with no byte to escape in one
// piece: a render's cost is then mostly the document walk, not per-byte
// work.

/// Numbers serialize as integers when they are one (the common case for
/// counters); non-finite values have no JSON encoding and become `null`.
/// Every other value is written as `{}` formats it: the shortest decimal
/// that parses back to `x`, never with an exponent.
///
/// A value below 2^40 that is a whole number of hundredths, such as every
/// `cycles / 20` µs timestamp, is written without `core::fmt`. Let `k` be
/// `x * 100` rounded. `k / 100.0` is correctly rounded, so it equals `x`
/// exactly when the decimal `k / 100` parses back to `x`, that is, lies in
/// `x`'s rounding interval, which is at most one ulp wide. Below 2^40 an
/// ulp is at most 2^-13, far less than 0.01, so no other decimal with at
/// most two fractional digits lies in that interval, and every decimal in
/// it with more fractional digits is longer. So `k / 100`, less a trailing
/// zero, is the shortest decimal that parses back to `x`: the one `{}`
/// prints. Any other value (at or above 2^40, or with `k / 100` not parsing
/// back to it) goes through `core::fmt`.
fn write_number(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() <= 2f64.powi(53) {
        write_integer(out, x as i64);
    } else if x.abs() < 2f64.powi(40) && (x * 100.0).round() / 100.0 == x {
        let hundredths = (x * 100.0).round().abs() as u64;
        if x < 0.0 {
            out.push('-');
        }
        write_integer(out, (hundredths / 100) as i64);
        // Not both 0: a whole number took the branch above.
        let (tenths, last) = ((hundredths / 10 % 10) as u8, (hundredths % 10) as u8);
        out.push('.');
        out.push(char::from(b'0' + tenths));
        if last != 0 {
            out.push(char::from(b'0' + last));
        }
    } else {
        let _ = write!(out, "{x}");
    }
}

/// Writes `n` as `Json::from(n)` does. That goes through `f64`, which holds
/// every integer up to 2^53 exactly, so only a larger `n` takes the route.
#[inline]
fn write_uint(out: &mut String, n: u64) {
    if n <= 1 << 53 {
        write_integer(out, n as i64);
    } else {
        write_number(out, n as f64);
    }
}

/// The two digits of every number below 100: `00`, `01`, …, `99`.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Writes `n` exactly as `{}` formats it. The digits go into a stack
/// buffer two at a time from [`DIGIT_PAIRS`], and out as ASCII `char`s,
/// which need no UTF-8 check.
fn write_integer(out: &mut String, n: i64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    let mut rest = n.unsigned_abs();
    while rest >= 100 {
        let pair = 2 * (rest % 100) as usize;
        rest /= 100;
        start -= 2;
        digits[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if rest >= 10 {
        let pair = 2 * rest as usize;
        start -= 2;
        digits[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        start -= 1;
        digits[start] = b'0' + rest as u8;
    }
    if n < 0 {
        out.push('-');
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

/// Writes `s` as a JSON string. One with no byte to escape is copied in
/// one piece, and for a literal the scan folds away (see
/// `ObjectWriter::key`).
#[inline(always)]
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    if s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        write_escaped(out, s);
    } else {
        out.push_str(s);
    }
    out.push('"');
}

/// Writes the inside of a string that has a byte to escape. Every such
/// byte is ASCII, so the unescaped runs between them start and end on
/// `char` boundaries.
fn write_escaped(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1F => None,
            _ => continue,
        };
        out.push_str(&s[run..i]);
        match escape {
            Some(e) => out.push_str(e),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    const SPACES: &str = "                                ";
    if let Some(w) = indent {
        out.push('\n');
        let mut n = w * depth;
        while n > 0 {
            let k = n.min(SPACES.len());
            out.push_str(&SPACES[..k]);
            n -= k;
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{0008}'),
                        b'f' => s.push('\u{000C}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: JSON escapes astral-plane
                            // characters as two \u escapes.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
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
                            s.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape digits"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for text in ["null", "true", "false", "0", "-7", "3.25", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string_compact(), text, "for {text}");
        }
    }

    #[test]
    fn preserves_object_order() {
        let doc = Json::obj([("z", Json::from(1u64)), ("a", Json::from(2u64))]);
        assert_eq!(doc.to_string_compact(), r#"{"z":1,"a":2}"#);
        let back = Json::parse(&doc.to_string_compact()).unwrap();
        assert_eq!(back.keys(), vec!["z", "a"]);
    }

    #[test]
    fn nested_round_trip() {
        let text = r#"{"a":[1,2,{"b":null}],"c":{"d":true,"e":"x\ny"}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_string_compact(), text);
        assert_eq!(Json::parse(&v.to_string_pretty()).unwrap(), v);
        // Deeper than one copy of `newline_indent`'s run of spaces.
        let mut deep = Json::from(1u64);
        for _ in 0..20 {
            deep = Json::arr([deep]);
        }
        let text = deep.to_string_pretty();
        assert!(text.contains(&format!("\n{}1\n", " ".repeat(40))));
        assert_eq!(Json::parse(&text).unwrap(), deep);
    }

    #[test]
    fn string_escapes() {
        let v = Json::parse(r#""tab\tquote\"back\\slashA😀""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "tab\tquote\"back\\slashA\u{1F600}");
        // Control characters are re-escaped on output.
        let s = Json::Str("a\u{1}b".into()).to_string_compact();
        assert_eq!(s, "\"a\\u0001b\"");
        // Escapes at either end and between multi-byte characters.
        let s = Json::Str("\u{1f}é\"😀\\\r\n\tß\u{0}".into()).to_string_compact();
        assert_eq!(s, r#""\u001fé\"😀\\\r\n\tß\u0000""#);
    }

    #[test]
    fn integers_print_without_decimal_point() {
        assert_eq!(Json::from(12u64).to_string_compact(), "12");
        for (x, text) in [
            (0.0, "0"),
            (-0.0, "0"),
            (-7.0, "-7"),
            (1e15, "1000000000000000"),
            (9_007_199_254_740_992.0, "9007199254740992"),
            (-9_007_199_254_740_992.0, "-9007199254740992"),
        ] {
            assert_eq!(Json::Num(x).to_string_compact(), text);
        }
        assert_eq!(Json::from(2.5).to_string_compact(), "2.5");
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
    }

    /// `write_number` and `write_integer` against `core::fmt` on seeded
    /// inputs: µs timestamps of the first 200 000 cycles at four clocks,
    /// differences of such timestamps, random bit patterns and named
    /// edges. `write_number` writes `null` for a non-finite value and `0`
    /// for `-0.0`; everything else must be `{}`'s text.
    #[test]
    fn number_writers_match_core_fmt() {
        use crate::DetRng;
        let check = |x: f64| {
            let mut out = String::new();
            write_number(&mut out, x);
            let expected = match x {
                _ if !x.is_finite() => "null".to_string(),
                0.0 => "0".to_string(),
                _ => format!("{x}"),
            };
            assert_eq!(out, expected, "for {x:e} ({:#x})", x.to_bits());
        };
        let clocks = [20e6, 25e6, 33e6, 1e9];
        let us = |c: u64, hz: f64| c as f64 * 1e6 / hz;
        for hz in clocks {
            for c in 0..200_000 {
                check(us(c, hz));
            }
        }
        let mut rng = DetRng::seeded(22);
        for _ in 0..200_000 {
            let hz = clocks[rng.below(4) as usize];
            check(us(rng.below(200_000), hz) - us(rng.below(200_000), hz));
        }
        for _ in 0..200_000 {
            check(f64::from_bits(rng.next_u64()));
        }
        let two_40 = 2f64.powi(40);
        let mut edges = vec![
            0.05,
            -0.05,
            0.5,
            -0.5,
            0.1 + 0.2,
            two_40,
            two_40.next_up(),
            two_40.next_down(),
            two_40 - 0.01,
            -(two_40 - 0.01),
            2f64.powi(53),
            -0.0,
            f64::from_bits(1),
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            9.0,
            10.0,
            99.0,
            100.0,
        ];
        for k in 1..=15 {
            let p = 10f64.powi(k);
            edges.extend([p - 1.0, p + 1.0, -(p - 1.0), p / 1e17]);
        }
        edges.into_iter().for_each(check);

        let check_integer = |n: i64| {
            let mut out = String::new();
            write_integer(&mut out, n);
            assert_eq!(out, format!("{n}"));
        };
        let mut edges = vec![0, 9, 10, 99, 100, i64::MAX, i64::MIN];
        for k in 1..=18 {
            let p = 10i64.pow(k);
            edges.extend([p - 1, p, p + 1, -p]);
        }
        edges.into_iter().for_each(check_integer);
        for _ in 0..200_000 {
            // Every magnitude from one digit to nineteen, both signs.
            check_integer((rng.next_u64() >> rng.below(64)) as i64);
        }
    }

    #[test]
    fn streamed_objects_match_the_tree_writer() {
        let mut out = String::new();
        write_object(&mut out, |o| {
            o.str("s", "é\"\\\n\u{1}")
                .uint("k\"ey", 4)
                .num("half", 2.5)
                .num("nan", f64::NAN)
                .num("neg", -7.0)
                .uint("big", 9_007_199_254_740_993)
                .bool("t", true)
                .bool("f", false);
            o.object("empty", |_| {});
            o.array("none", |_| {});
            o.array("rows", |a| {
                a.uint(3).object(|r| {
                    r.object("inner", |i| {
                        i.uint("k", 1);
                    });
                });
            });
        });
        let tree = Json::obj([
            ("s", Json::from("é\"\\\n\u{1}")),
            ("k\"ey", Json::from(4u64)),
            ("half", Json::from(2.5)),
            ("nan", Json::Num(f64::NAN)),
            ("neg", Json::Num(-7.0)),
            ("big", Json::from(9_007_199_254_740_993u64)),
            ("t", Json::from(true)),
            ("f", Json::from(false)),
            ("empty", Json::Obj(Vec::new())),
            ("none", Json::Arr(Vec::new())),
            (
                "rows",
                Json::arr([
                    Json::from(3u64),
                    Json::obj([("inner", Json::obj([("k", Json::from(1u64))]))]),
                ]),
            ),
        ]);
        assert_eq!(out, tree.to_string_compact());
        let mut empty = String::new();
        write_object(&mut empty, |_| {});
        write_array(&mut empty, |_| {});
        assert_eq!(empty, "{}[]");
    }

    #[test]
    fn rejects_malformed_documents() {
        for text in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"unterminated",
            "{'a':1}",
        ] {
            assert!(Json::parse(text).is_err(), "{text} should fail");
        }
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"n":3,"s":"x","b":false,"a":[1],"f":1.5}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(false));
        assert_eq!(
            v.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(
            v.get("f").and_then(Json::as_u64),
            None,
            "1.5 is not an integer"
        );
        assert!(v.get("missing").is_none());
    }
}
