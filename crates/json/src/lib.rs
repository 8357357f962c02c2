//! A minimal JSON value model, parser and printer.
//!
//! The build environment is fully offline, so the workspace cannot pull
//! `serde`/`serde_json` from a registry. The interchange needs of this
//! project are small — PUM descriptions, RTOS models and benchmark records —
//! and are served by this zero-dependency crate instead.
//!
//! Design points:
//!
//! - [`Value::Object`] preserves insertion order, so printed output is
//!   deterministic and diffs cleanly across runs (important for
//!   benchmark records and byte-compared responses);
//! - numbers are stored as `f64` with an exact-integer fast path in the
//!   printer, which covers every value the estimator exchanges;
//! - there is one number encoder ([`write_number`]) and one string
//!   encoder ([`write_string`]), neither of which allocates. [`Value`]
//!   printing and the streaming writers ([`ObjectWriter`],
//!   [`ArrayWriter`]) share them, so a body streamed straight into a
//!   `String` is byte-identical to [`Value::to_compact`] of the same tree;
//! - the parser is a strict recursive-descent JSON parser with position
//!   information in errors;
//! - the parser is safe on **untrusted input**: [`ParseLimits`] bounds the
//!   input size and the nesting depth (the recursion budget), so a
//!   malicious document returns a [`JsonError`] instead of exhausting
//!   memory or overflowing the stack. `tlm-serve` feeds this parser raw
//!   network bytes, so [`parse`] enforces conservative defaults and
//!   [`parse_with_limits`] lets servers tighten them per endpoint.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object; `None` for non-objects/missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a `usize`, if it is a non-negative integral number.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The value as an `i64`, if it is an integral number in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n)
                if n.fract() == 0.0 && (i64::MIN as f64..=i64::MAX as f64).contains(n) =>
            {
                Some(*n as i64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object entries, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// Renders the value as compact JSON.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, None, 0);
        out
    }

    /// Renders the value as pretty JSON with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, Some(2), 0);
        out
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Number(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::Number(f64::from(v))
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Number(v as f64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Number(v as f64)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

/// Convenience builder for objects that keeps call sites terse.
#[derive(Debug, Default, Clone)]
pub struct ObjectBuilder {
    entries: Vec<(String, Value)>,
}

impl ObjectBuilder {
    /// Starts an empty object.
    pub fn new() -> ObjectBuilder {
        ObjectBuilder::default()
    }

    /// Adds a field.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> ObjectBuilder {
        self.entries.push((key.to_string(), value.into()));
        self
    }

    /// Finishes the object.
    pub fn build(self) -> Value {
        Value::Object(self.entries)
    }
}

/// A rate-table (`u32 → f64`) rendered as an object with numeric-string
/// keys, the shape the PUM interchange format uses.
pub fn map_u32_f64_to_value(map: &BTreeMap<u32, f64>) -> Value {
    Value::Object(map.iter().map(|(k, v)| (k.to_string(), Value::Number(*v))).collect())
}

/// Parses an object with numeric-string keys back into a `u32 → f64` map.
///
/// # Errors
///
/// Returns [`JsonError`] if the value is not an object or a key/entry does
/// not fit the map's types.
pub fn value_to_map_u32_f64(value: &Value) -> Result<BTreeMap<u32, f64>, JsonError> {
    let entries =
        value.as_object().ok_or_else(|| JsonError::shape("expected an object of numeric keys"))?;
    let mut map = BTreeMap::new();
    for (k, v) in entries {
        let key: u32 = k.parse().map_err(|_| JsonError::shape(format!("bad numeric key `{k}`")))?;
        let rate = v
            .as_f64()
            .ok_or_else(|| JsonError::shape(format!("value of `{k}` is not a number")))?;
        map.insert(key, rate);
    }
    Ok(map)
}

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, level: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(out, *n),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

/// Appends `n` as a JSON number: integral values below 2⁵³ in magnitude
/// as plain digits, other finite values in the shortest form that
/// round-trips, and NaN/±∞ (which JSON cannot express) as `null`.
///
/// [`Value::to_compact`], [`Value::to_pretty`] and the streaming writers
/// ([`ObjectWriter`], [`ArrayWriter`]) all print numbers through this one
/// routine, and it never allocates.
pub fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Infinity; clamp to null like serde_json would
        // reject. The estimator never produces these, so this is defensive.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        // Exact in an `i64`; `-0.0` prints as `0`.
        let v = n as i64;
        if v < 0 {
            out.push('-');
        }
        let mut rest = v.unsigned_abs();
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
    } else {
        // `{:?}` prints the shortest representation that round-trips.
        write!(out, "{n:?}").expect("formatting into a String cannot fail");
    }
}

/// Appends `s` as a JSON string literal, escaping `"`, `\` and control
/// characters below U+0020.
///
/// The one string encoder behind [`Value`] printing and the streaming
/// writers. A string with nothing to escape is copied in one piece.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(s);
        out.push('"');
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("formatting into a String cannot fail");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Streams one compact JSON object into a `String`, writing the braces
/// and the commas between members; no [`Value`] tree is built.
///
/// Members are written in call order. Scalar members chain by value;
/// [`ObjectWriter::key`] opens a member whose value the caller writes
/// (typically a nested writer). [`ObjectWriter::finish`] closes the
/// object, so the output equals [`Value::to_compact`] of the same
/// members.
#[derive(Debug)]
#[must_use = "an object is closed only by `finish`"]
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Opens an object at the end of `out`.
    pub fn new(out: &'a mut String) -> ObjectWriter<'a> {
        out.push('{');
        ObjectWriter { out, empty: true }
    }

    /// Writes the next member's key and returns `out` for its value,
    /// which the caller must write before the next member.
    pub fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        write_string(self.out, key);
        self.out.push(':');
        self.out
    }

    /// Adds a number member (see [`write_number`]).
    pub fn number(mut self, key: &str, n: f64) -> ObjectWriter<'a> {
        write_number(self.key(key), n);
        self
    }

    /// Adds a string member (see [`write_string`]).
    pub fn string(mut self, key: &str, s: &str) -> ObjectWriter<'a> {
        write_string(self.key(key), s);
        self
    }

    /// Closes the object.
    pub fn finish(self) {
        self.out.push('}');
    }
}

/// Streams one compact JSON array into a `String`, writing the brackets
/// and the commas between elements; the array counterpart of
/// [`ObjectWriter`].
#[derive(Debug)]
#[must_use = "an array is closed only by `finish`"]
pub struct ArrayWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> ArrayWriter<'a> {
    /// Opens an array at the end of `out`.
    pub fn new(out: &'a mut String) -> ArrayWriter<'a> {
        out.push('[');
        ArrayWriter { out, empty: true }
    }

    /// Starts the next element and returns `out` for it, which the caller
    /// must write before the next element.
    pub fn item(&mut self) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.out
    }

    /// Closes the array.
    pub fn finish(self) {
        self.out.push(']');
    }
}

/// A parse or shape error with byte position (parse errors only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the input, when known.
    pub position: Option<usize>,
}

impl JsonError {
    fn parse(message: impl Into<String>, position: usize) -> JsonError {
        JsonError { message: message.into(), position: Some(position) }
    }

    /// An error about an unexpected JSON shape (post-parse).
    pub fn shape(message: impl Into<String>) -> JsonError {
        JsonError { message: message.into(), position: None }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.position {
            Some(pos) => write!(f, "{} at byte {pos}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl Error for JsonError {}

/// Bounds enforced while parsing untrusted input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseLimits {
    /// Maximum input size in bytes; longer documents are rejected before
    /// any parsing happens.
    pub max_bytes: usize,
    /// Maximum container nesting depth. The parser recurses once per open
    /// array/object, so this bounds stack use; scalars cost no depth.
    pub max_depth: usize,
}

impl ParseLimits {
    /// The defaults [`parse`] enforces: 16 MiB and 128 levels — far above
    /// anything the estimator exchanges, far below stack-overflow range.
    pub const DEFAULT: ParseLimits = ParseLimits { max_bytes: 16 << 20, max_depth: 128 };
}

impl Default for ParseLimits {
    fn default() -> ParseLimits {
        ParseLimits::DEFAULT
    }
}

/// Parses a JSON document under [`ParseLimits::DEFAULT`].
///
/// # Errors
///
/// Returns [`JsonError`] with a byte position on malformed input,
/// trailing garbage, or a document exceeding the default limits.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    parse_with_limits(text, ParseLimits::DEFAULT)
}

/// Parses a JSON document with explicit [`ParseLimits`], for callers
/// handling untrusted bytes (e.g. the `tlm-serve` request path).
///
/// # Errors
///
/// Returns [`JsonError`] on malformed input, trailing garbage, an input
/// longer than `limits.max_bytes`, or nesting deeper than
/// `limits.max_depth`.
pub fn parse_with_limits(text: &str, limits: ParseLimits) -> Result<Value, JsonError> {
    if text.len() > limits.max_bytes {
        return Err(JsonError::shape(format!(
            "input of {} bytes exceeds the {}-byte limit",
            text.len(),
            limits.max_bytes
        )));
    }
    let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0, max_depth: limits.max_depth };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(JsonError::parse("trailing characters", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    max_depth: usize,
}

impl Parser<'_> {
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
            Err(JsonError::parse(format!("expected `{}`", byte as char), self.pos))
        }
    }

    fn parse_value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(c) => Err(JsonError::parse(format!("unexpected `{}`", c as char), self.pos)),
            None => Err(JsonError::parse("unexpected end of input", self.pos)),
        }
    }

    /// Charges one nesting level; call on entering an array or object.
    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > self.max_depth {
            return Err(JsonError::parse(
                format!("nesting deeper than {} levels", self.max_depth),
                self.pos,
            ));
        }
        Ok(())
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::parse(format!("expected `{word}`"), self.pos))
        }
    }

    fn parse_object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        self.enter()?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(JsonError::parse("expected `,` or `}`", self.pos)),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(JsonError::parse("expected `,` or `]`", self.pos)),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(JsonError::parse("unterminated string", self.pos)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                // High surrogate: must pair with \uXXXX low.
                                if self.peek() != Some(b'\\') {
                                    return Err(JsonError::parse("lone surrogate", self.pos));
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let low = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(JsonError::parse("bad low surrogate", self.pos));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(cp)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => {
                                    return Err(JsonError::parse("invalid code point", self.pos))
                                }
                            }
                            // parse_hex4 advanced past the digits; skip the
                            // unconditional advance below.
                            continue;
                        }
                        _ => return Err(JsonError::parse("bad escape", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one full UTF-8 character.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| JsonError::parse("invalid UTF-8", self.pos))?;
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(JsonError::parse("truncated \\u escape", self.pos));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| JsonError::parse("bad \\u escape", self.pos))?;
        let cp = u32::from_str_radix(hex, 16)
            .map_err(|_| JsonError::parse("bad \\u escape", self.pos))?;
        self.pos = end;
        Ok(cp)
    }

    fn parse_number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::parse("bad number", start))?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| JsonError::parse(format!("bad number `{text}`"), start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The encoders as they were written with `format!`, before the digit
    /// routine and the escape-free fast path: the byte-identity oracle.
    mod oracle {
        pub fn write_number(out: &mut String, n: f64) {
            if !n.is_finite() {
                out.push_str("null");
            } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
                out.push_str(&format!("{}", n as i64));
            } else {
                out.push_str(&format!("{n:?}"));
            }
        }

        pub fn write_string(out: &mut String, s: &str) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        out.push_str(&format!("\\u{:04x}", c as u32));
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
        }
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn number_encoder_matches_the_format_oracle() {
        let edge = 9_007_199_254_740_992.0; // 2^53
        let mut cases = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            edge - 1.0,
            -(edge - 1.0),
            edge,
            -edge,
            edge + 2.0,
            u64::MAX as f64,
            i64::MIN as f64,
            i64::MAX as f64,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            -f64::from_bits(1),
            f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.1,
            -2.5,
            1e21,
            1e-7,
            123_456_789.25,
        ];
        let mut state = 0x5eed;
        for i in 0..4000u64 {
            let bits = splitmix(&mut state);
            cases.push(f64::from_bits(bits));
            // Integral values of every magnitude, most below 2^53.
            cases.push((bits >> (i % 64)) as f64);
            cases.push(-((bits >> (i % 64)) as f64));
        }
        for n in cases {
            let (mut ours, mut want) = (String::from("["), String::from("["));
            write_number(&mut ours, n);
            oracle::write_number(&mut want, n);
            assert_eq!(ours, want, "bits {:#018x}", n.to_bits());
        }
    }

    #[test]
    fn string_encoder_matches_the_char_loop_oracle() {
        let mut cases: Vec<String> = (0u32..0x20)
            .chain([0x7f, 0x80, 0x9f, 0xa0, 0x2028, 0xfeff, 0x1f600])
            .map(|cp| char::from_u32(cp).expect("scalar value").to_string())
            .collect();
        for s in [
            "",
            "\"",
            "\\",
            "plain ascii",
            "caf\u{e9} \u{1f600} \u{4e2d}\u{6587}",
            "mixed \"quote\" and \\ back\nslash\ttab\u{1}\u{1f}\u{7f} \u{e9}",
            "\\\\\"\"\n\n",
            "trailing control\u{0}",
            "\u{8}leading",
        ] {
            cases.push(s.to_string());
        }
        // Every pair of the single-character cases, so escapes sit next to
        // plain and multibyte runs on both sides.
        let singles = cases.clone();
        for a in &singles {
            for b in &singles {
                cases.push(format!("{a}x{b}\u{e9}"));
            }
        }
        for s in cases {
            let (mut ours, mut want) = (String::from("{"), String::from("{"));
            write_string(&mut ours, &s);
            oracle::write_string(&mut want, &s);
            assert_eq!(ours, want, "{s:?}");
        }
    }

    #[test]
    fn writers_match_to_compact() {
        let tree = ObjectBuilder::new()
            .field("name", "a\"b")
            .field("n", 3u32)
            .field("empty", Value::Array(Vec::new()))
            .field("list", Value::Array(vec![Value::Object(Vec::new()), Value::Number(0.5)]))
            .build();
        let mut out = String::new();
        let mut obj = ObjectWriter::new(&mut out).string("name", "a\"b").number("n", 3.0);
        ArrayWriter::new(obj.key("empty")).finish();
        let mut list = ArrayWriter::new(obj.key("list"));
        ObjectWriter::new(list.item()).finish();
        write_number(list.item(), 0.5);
        list.finish();
        obj.finish();
        assert_eq!(out, tree.to_compact());
    }

    #[test]
    fn pretty_output_of_a_nested_value_is_unchanged() {
        let v = ObjectBuilder::new()
            .field("name", "pe \"0\"\n")
            .field("cycles", u64::MAX)
            .field("ratio", -0.125)
            .field("empty", Value::Array(Vec::new()))
            .field("none", Value::Object(Vec::new()))
            .field(
                "rows",
                Value::Array(vec![
                    ObjectBuilder::new().field("block", 0u32).field("ok", true).build(),
                    Value::Array(vec![Value::Null, Value::Number(-0.0), Value::Number(1e300)]),
                ]),
            )
            .build();
        let want = "{\n  \"name\": \"pe \\\"0\\\"\\n\",\n  \"cycles\": 1.8446744073709552e19,\n  \
                    \"ratio\": -0.125,\n  \"empty\": [],\n  \"none\": {},\n  \"rows\": [\n    {\n      \
                    \"block\": 0,\n      \"ok\": true\n    },\n    [\n      null,\n      0,\n      \
                    1e300\n    ]\n  ]\n}";
        assert_eq!(v.to_pretty(), want);
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Number(42.0));
        assert_eq!(parse("-3.5e2").unwrap(), Value::Number(-350.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::String("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x"));
        let a = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].get("b"), Some(&Value::Null));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Value::String("a\"b\\c\nd\te\u{8}\u{1f600}".into());
        let text = original.to_compact();
        assert_eq!(parse(&text).unwrap(), original);
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(parse(r#""😀""#).unwrap(), Value::String("\u{1f600}".into()));
        assert!(parse(r#""\ud83d""#).is_err(), "lone surrogate rejected");
    }

    #[test]
    fn numbers_round_trip() {
        for n in [0.0, 1.0, -1.0, 0.5, 1e-9, 123456789.25, 1e18, -2.25] {
            let text = Value::Number(n).to_compact();
            assert_eq!(parse(&text).unwrap().as_f64(), Some(n), "{text}");
        }
    }

    #[test]
    fn pretty_output_is_parseable_and_ordered() {
        let v = ObjectBuilder::new()
            .field("zeta", 1u32)
            .field("alpha", "first")
            .field("list", Value::Array(vec![Value::Bool(true), Value::Null]))
            .build();
        let pretty = v.to_pretty();
        assert!(pretty.contains("\n"));
        // Insertion order preserved: zeta before alpha.
        assert!(pretty.find("zeta").unwrap() < pretty.find("alpha").unwrap());
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["{", "[1,", "tru", "{\"a\" 1}", "1 2", "{'a': 1}", ""] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn rate_table_round_trips() {
        let mut map = BTreeMap::new();
        map.insert(1024u32, 0.875);
        map.insert(8192, 0.96875);
        let v = map_u32_f64_to_value(&map);
        assert_eq!(value_to_map_u32_f64(&v).unwrap(), map);
    }

    #[test]
    fn depth_limit_rejects_instead_of_overflowing() {
        // A million unmatched brackets would overflow the stack of a naive
        // recursive parser; the limit turns it into an ordinary error.
        let hostile = "[".repeat(1_000_000);
        let err = parse(&hostile).expect_err("depth-bombed input is rejected");
        assert!(err.message.contains("nesting"), "{err}");

        let objects = "{\"a\":".repeat(1_000_000);
        assert!(parse(&objects).is_err(), "object depth bomb rejected");
    }

    #[test]
    fn depth_exactly_at_limit_parses() {
        let limits = ParseLimits { max_bytes: 1 << 20, max_depth: 8 };
        let ok = format!("{}1{}", "[".repeat(8), "]".repeat(8));
        assert!(parse_with_limits(&ok, limits).is_ok());
        let too_deep = format!("{}1{}", "[".repeat(9), "]".repeat(9));
        assert!(parse_with_limits(&too_deep, limits).is_err());
    }

    #[test]
    fn size_limit_rejects_before_parsing() {
        let limits = ParseLimits { max_bytes: 16, max_depth: 128 };
        assert!(parse_with_limits("[1,2,3]", limits).is_ok());
        let err = parse_with_limits("\"0123456789abcdef0\"", limits).expect_err("too big");
        assert!(err.message.contains("exceeds"), "{err}");
    }

    #[test]
    fn scalars_cost_no_depth() {
        let limits = ParseLimits { max_bytes: 1 << 20, max_depth: 1 };
        // A wide but shallow array is fine at depth 1.
        let wide = format!("[{}]", vec!["0"; 1000].join(","));
        assert!(parse_with_limits(&wide, limits).is_ok());
    }

    #[test]
    fn u64_accessor_rejects_fractions_and_negatives() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_u64(), None);
        assert_eq!(parse("-7").unwrap().as_u64(), None);
    }

    #[test]
    fn i64_accessor_accepts_negatives_rejects_fractions() {
        assert_eq!(parse("-7").unwrap().as_i64(), Some(-7));
        assert_eq!(parse("7").unwrap().as_i64(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_i64(), None);
        assert_eq!(parse("\"7\"").unwrap().as_i64(), None);
    }
}
