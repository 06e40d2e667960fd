//! Minimal JSON support: a value tree, a writer, and one strict reader.
//!
//! The build environment has no crates.io access, so instead of serde
//! the workspace uses this small hand-rolled module for everything that
//! reads or writes JSON: scenario round-trips and the result store's
//! index lines in `bbrdom-experiments`, and the benchmark records
//! (`BENCH_*.json`) emitted by `bbrdom-bench`.
//!
//! The grammar lives in one place, the pull [`Reader`]. [`parse`] builds
//! a [`Value`] tree with it; hot readers (an index line, a scenario, a
//! trial result) pull their fields straight off it instead, so opening
//! a large index allocates no tree.
//!
//! Numbers keep their integer-ness: `u64`/`i64` values round-trip
//! bit-exactly (a plain `f64` representation would corrupt 64-bit
//! seeds), and floats are written with Rust's shortest-round-trip
//! formatting.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer (preferred for whole numbers).
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A floating-point number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object. Keys are sorted (BTreeMap) so output is canonical.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Build an empty object.
    pub fn object() -> Value {
        Value::Object(BTreeMap::new())
    }

    /// Insert `key: value` (panics if `self` is not an object).
    pub fn set(&mut self, key: &str, value: Value) -> &mut Self {
        match self {
            Value::Object(map) => {
                map.insert(key.to_string(), value);
            }
            other => panic!("Value::set on non-object {other:?}"),
        }
        self
    }

    /// Member lookup; `None` for absent keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value as `f64` (integers coerce).
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::U64(n) => Some(n as f64),
            Value::I64(n) => Some(n as f64),
            Value::F64(n) => Some(n),
            _ => None,
        }
    }

    /// Numeric value as `u64` (exact only).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(n) => Some(n),
            Value::I64(n) if n >= 0 => Some(n as u64),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Serialize to a compact JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::U64(n) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
            }
            Value::I64(n) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
            }
            Value::F64(n) => {
                if n.is_finite() {
                    // Rust's Display for f64 is shortest-round-trip; add a
                    // ".0" so integral floats stay floats on re-parse.
                    // Formatted straight into `out`: no temporary String.
                    let start = out.len();
                    let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
                    if !out[start..].contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    // JSON has no NaN/Inf; null is the conventional stand-in.
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_escaped(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

/// Serialize a slice of floats as a JSON array.
pub fn f64_array(xs: &[f64]) -> Value {
    Value::Array(xs.iter().map(|&x| Value::F64(x)).collect())
}

/// Serialize a slice of unsigned integers as a JSON array.
pub fn u64_array(xs: &[u64]) -> Value {
    Value::Array(xs.iter().map(|&x| Value::U64(x)).collect())
}

/// Serialize an optional float (`None` → `null`).
pub fn opt_f64(x: Option<f64>) -> Value {
    match x {
        Some(v) => Value::F64(v),
        None => Value::Null,
    }
}

/// Required object member, with a useful error.
pub fn req<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing '{key}'"))
}

/// Required numeric member.
pub fn req_f64(v: &Value, key: &str) -> Result<f64, String> {
    req(v, key)?
        .as_f64()
        .ok_or_else(|| format!("non-numeric '{key}'"))
}

/// Required unsigned-integer member.
pub fn req_u64(v: &Value, key: &str) -> Result<u64, String> {
    req(v, key)?
        .as_u64()
        .ok_or_else(|| format!("non-integer '{key}'"))
}

/// Required array-of-floats member.
pub fn req_f64s(v: &Value, key: &str) -> Result<Vec<f64>, String> {
    req(v, key)?
        .as_array()
        .ok_or_else(|| format!("'{key}' must be an array"))?
        .iter()
        .map(|x| x.as_f64().ok_or_else(|| format!("non-numeric '{key}'")))
        .collect()
}

/// Required array-of-unsigned-integers member.
pub fn req_u64s(v: &Value, key: &str) -> Result<Vec<u64>, String> {
    req(v, key)?
        .as_array()
        .ok_or_else(|| format!("'{key}' must be an array"))?
        .iter()
        .map(|x| x.as_u64().ok_or_else(|| format!("non-integer '{key}'")))
        .collect()
}

/// Optional numeric member: absent or `null` parses as `None` (the
/// writer side emits `null` for NaN/Inf too, so this is also the
/// tolerant reader for float fields).
pub fn opt_f64_member(v: &Value, key: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("non-numeric '{key}'")),
    }
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting a [`Reader`] accepts. The reader recurses
/// once per level, so without a cap a line of `[`s overflows the stack
/// and aborts the process; nothing the workspace writes nests past a
/// handful of levels.
const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document (trailing whitespace allowed) into a
/// [`Value`] tree. Nesting deeper than 128 levels is a [`ParseError`].
pub fn parse(input: &str) -> Result<Value, ParseError> {
    Reader::document(input, Reader::value)
}

/// What a typed reader makes of one well-formed value: the value it
/// describes, or why it describes none. Malformed JSON is a
/// [`ParseError`] instead, which rejects the whole document.
pub type Field<T> = Result<T, String>;

/// The kind of the next value in a [`Reader`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`
    Null,
    /// `true` / `false`
    Bool,
    /// A number.
    Number,
    /// A string.
    Str,
    /// An array.
    Array,
    /// An object.
    Object,
}

/// A pull reader over JSON text: the one JSON grammar of the workspace.
/// [`parse`] builds a [`Value`] tree with it; typed readers (the result
/// store's index lines, scenarios, trial results) read their fields
/// straight off it, with borrowed keys and strings and no tree.
///
/// Every read consumes exactly one value. The scalar reads ([`f64`],
/// [`u64`], [`str`], [`bool`]) skip a value of another kind and return
/// `None`, the way [`Value`]'s `as_*` accessors read it, and
/// [`object`]/[`array_of`] skip a value that is not a container.
/// Skipping checks the skipped text as strictly as [`parse`] does, so a
/// typed reader rejects exactly the documents [`parse`] rejects.
///
/// [`f64`]: Reader::f64
/// [`u64`]: Reader::u64
/// [`str`]: Reader::str
/// [`bool`]: Reader::bool
/// [`object`]: Reader::object
/// [`array_of`]: Reader::array_of
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
    /// Where [`Reader::f64s`] collects an array before copying it out.
    floats: Vec<f64>,
}

impl<'a> Reader<'a> {
    /// Read a complete document with `read`: whitespace may follow the
    /// value, anything else is an error.
    pub fn document<T>(
        text: &'a str,
        read: impl FnOnce(&mut Reader<'a>) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        let mut r = Reader {
            text,
            pos: 0,
            depth: 0,
            floats: Vec::new(),
        };
        let v = read(&mut r)?;
        r.skip_ws();
        if r.pos != text.len() {
            return Err(r.error("trailing characters"));
        }
        Ok(v)
    }

    fn error(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek_byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek_byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek_byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), ParseError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    /// The kind of the next value, without consuming it.
    pub fn peek(&mut self) -> Result<Kind, ParseError> {
        self.skip_ws();
        match self.peek_byte() {
            Some(b'{') => Ok(Kind::Object),
            Some(b'[') => Ok(Kind::Array),
            Some(b'"') => Ok(Kind::Str),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'n') => Ok(Kind::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => Ok(Kind::Number),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Read the next value into a [`Value`] tree.
    fn value(&mut self) -> Result<Value, ParseError> {
        Ok(match self.peek()? {
            Kind::Object => {
                let mut map = BTreeMap::new();
                self.object(|r, key| {
                    let v = r.value()?;
                    map.insert(key.to_string(), v);
                    Ok(())
                })?;
                Value::Object(map)
            }
            Kind::Array => {
                let mut items = Vec::new();
                self.array(|r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Value::Array(items)
            }
            Kind::Str => Value::Str(self.string()?.into_owned()),
            Kind::Number => self.number()?,
            Kind::Bool => Value::Bool(self.boolean()?),
            Kind::Null => {
                self.literal("null")?;
                Value::Null
            }
        })
    }

    /// Consume the next value, checking it as strictly as [`parse`].
    pub fn skip(&mut self) -> Result<(), ParseError> {
        match self.peek()? {
            Kind::Object => {
                self.object(|r, _| r.skip())?;
            }
            Kind::Array => {
                self.array(Self::skip)?;
            }
            Kind::Str => {
                self.string()?;
            }
            Kind::Number => {
                self.number()?;
            }
            Kind::Bool => {
                self.boolean()?;
            }
            Kind::Null => self.literal("null")?,
        }
        Ok(())
    }

    /// The next number as `f64` (integers coerce, like
    /// [`Value::as_f64`]); any other value is skipped and reads `None`.
    pub fn f64(&mut self) -> Result<Option<f64>, ParseError> {
        if self.peek()? == Kind::Number {
            Ok(self.number()?.as_f64())
        } else {
            self.skip().map(|()| None)
        }
    }

    /// The next number as `u64` (exact only, like [`Value::as_u64`]); any
    /// other value is skipped and reads `None`.
    pub fn u64(&mut self) -> Result<Option<u64>, ParseError> {
        if self.peek()? == Kind::Number {
            Ok(self.number()?.as_u64())
        } else {
            self.skip().map(|()| None)
        }
    }

    /// The next string, borrowed from the text unless it holds escapes;
    /// any other value is skipped and reads `None`.
    pub fn str(&mut self) -> Result<Option<Cow<'a, str>>, ParseError> {
        if self.peek()? == Kind::Str {
            self.string().map(Some)
        } else {
            self.skip().map(|()| None)
        }
    }

    /// The next boolean; any other value is skipped and reads `None`.
    pub fn bool(&mut self) -> Result<Option<bool>, ParseError> {
        if self.peek()? == Kind::Bool {
            self.boolean().map(Some)
        } else {
            self.skip().map(|()| None)
        }
    }

    /// Read an object member by member: `member` gets each key in text
    /// order and must consume its value. A value that is not an object is
    /// skipped without calling `member`. Returns whether it was an object.
    pub fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), ParseError>,
    ) -> Result<bool, ParseError> {
        if self.peek()? != Kind::Object {
            self.skip()?;
            return Ok(false);
        }
        self.enter()?;
        self.skip_ws();
        if self.peek_byte() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(true);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            member(self, &key)?;
            self.skip_ws();
            match self.peek_byte() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(true);
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    /// Read an array item by item: `item` must consume one value per
    /// call. A value that is not an array is skipped without calling
    /// `item`. Returns whether it was an array.
    fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<bool, ParseError> {
        if self.peek()? != Kind::Array {
            self.skip()?;
            return Ok(false);
        }
        self.enter()?;
        self.skip_ws();
        if self.peek_byte() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(true);
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.peek_byte() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(true);
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    /// Read an array whose items `item` reads: `None` when the value is
    /// not an array. Every item is read; the first invalid one's message
    /// is the array's. The list is trimmed to its exact length, like
    /// [`Reader::f64s`]'s: a reader's lists may be kept for the life of
    /// the process, and a doubled vector's slack would be kept with them.
    pub fn array_of<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<Field<T>, ParseError>,
    ) -> Result<Option<Field<Vec<T>>>, ParseError> {
        let mut items = Ok(Vec::new());
        let is_array = self.array(|r| {
            let v = item(r)?;
            if let Ok(done) = &mut items {
                match v {
                    Ok(v) => done.push(v),
                    Err(e) => items = Err(e),
                }
            }
            Ok(())
        })?;
        if let Ok(done) = &mut items {
            done.shrink_to_fit();
        }
        Ok(is_array.then_some(items))
    }

    /// Read an array of numbers: `None` when the value is not an array,
    /// an error naming `what` when an item is not a number. The items
    /// gather in a buffer the reader reuses and are copied out once, so
    /// the list is allocated at its exact length and leaves no grown
    /// copies behind (an index holds tens of thousands of such lists).
    pub fn f64s(&mut self, what: &str) -> Result<Option<Field<Vec<f64>>>, ParseError> {
        let mut floats = std::mem::take(&mut self.floats);
        floats.clear();
        let mut numeric = true;
        let is_array = self.array(|r| {
            match r.f64()? {
                Some(x) => floats.push(x),
                None => numeric = false,
            }
            Ok(())
        })?;
        let items = is_array.then(|| {
            if numeric {
                Ok(floats.to_vec())
            } else {
                Err(format!("non-numeric {what}"))
            }
        });
        self.floats = floats;
        Ok(items)
    }

    /// Open a container at the current byte, refusing to pass
    /// [`MAX_DEPTH`].
    fn enter(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error("nesting deeper than 128 levels"));
        }
        self.depth += 1;
        self.pos += 1;
        Ok(())
    }

    fn boolean(&mut self) -> Result<bool, ParseError> {
        if self.peek_byte() == Some(b't') {
            self.literal("true").map(|()| true)
        } else {
            self.literal("false").map(|()| false)
        }
    }

    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"')?;
        let bytes = self.text.as_bytes();
        let start = self.pos;
        // `"` and `\` are ASCII, so every stop below is a char boundary.
        let mut out = loop {
            match bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
                }
                Some(b'\\') => break String::from(&self.text[start..self.pos]),
                Some(_) => self.pos += 1,
            }
        };
        loop {
            match bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek_byte().ok_or_else(|| self.error("bad escape"))?;
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
                            let hex = bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by anything this
                            // repo writes; reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.error("unsupported \\u escape"))?;
                            out.push(c);
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                Some(_) => {
                    let run = self.pos;
                    while !matches!(bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[run..self.pos]);
                }
            }
        }
    }

    /// A number keeps its integer-ness: `U64` when it fits, else `I64`,
    /// else `F64`. The text must follow RFC 8259's number grammar (no
    /// leading zero, a digit on each side of a point, a digit after an
    /// exponent), which `str::parse` alone does not enforce. A plain
    /// decimal (`-?d+.d+`) whose digits fit in 53 bits and whose scale is
    /// at most 10^22 is one exact division, as in the standard library's
    /// own fast path; every other float goes to `str::parse`. Both round
    /// correctly, so they agree bit for bit. `str::parse` tries the same
    /// division after its own scan; taking it here, on the digits already
    /// scanned, opens an index of n = 50 fluid lines (70% of whose floats
    /// qualify) ~13% faster.
    fn number(&mut self) -> Result<Value, ParseError> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let negative = bytes.get(start) == Some(&b'-');
        let mut end = start + usize::from(negative);
        let (mut mantissa, mut digits, mut point, mut plain) = (0u64, 0usize, None, true);
        while let Some(&c) = bytes.get(end) {
            match c {
                b'0'..=b'9' => {
                    mantissa = mantissa.wrapping_mul(10).wrapping_add(u64::from(c - b'0'));
                    digits += 1;
                }
                b'.' if point.is_none() => point = Some(digits),
                b'.' | b'e' | b'E' | b'+' | b'-' => plain = false,
                _ => break,
            }
            end += 1;
        }
        self.pos = end;
        let text = &self.text[start..end];
        let invalid = || ParseError {
            offset: start,
            message: format!("invalid number '{text}'"),
        };
        // A plain number is digits with at most one point, so the grammar
        // leaves it only a leading zero and an empty side of the point to
        // get wrong; anything else is checked in full.
        let valid = if plain {
            let whole = point.unwrap_or(digits);
            let leading_zero = whole > 1 && bytes[start + usize::from(negative)] == b'0';
            whole > 0 && !leading_zero && point.is_none_or(|p| p < digits)
        } else {
            is_json_number(text.as_bytes())
        };
        if !valid {
            return Err(invalid());
        }
        match point {
            None if plain => {
                if let Ok(n) = text.parse::<u64>() {
                    return Ok(Value::U64(n));
                }
                if let Ok(n) = text.parse::<i64>() {
                    return Ok(Value::I64(n));
                }
            }
            Some(p) if plain && digits <= 19 => {
                let scale = digits - p;
                if mantissa <= 1 << 53 && scale < POW10.len() {
                    let v = mantissa as f64 / POW10[scale];
                    return Ok(Value::F64(if negative { -v } else { v }));
                }
            }
            _ => {}
        }
        text.parse::<f64>().map(Value::F64).map_err(|_| invalid())
    }
}

/// Whether `text` is a number by RFC 8259's grammar:
/// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
fn is_json_number(text: &[u8]) -> bool {
    let digits = |from: usize| {
        text[from..]
            .iter()
            .take_while(|c| c.is_ascii_digit())
            .count()
    };
    let mut i = usize::from(text.first() == Some(&b'-'));
    let whole = digits(i);
    if whole == 0 || (whole > 1 && text[i] == b'0') {
        return false;
    }
    i += whole;
    if text.get(i) == Some(&b'.') {
        let frac = digits(i + 1);
        if frac == 0 {
            return false;
        }
        i += 1 + frac;
    }
    if matches!(text.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(text.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        let exp = digits(i);
        if exp == 0 {
            return false;
        }
        i += exp;
    }
    i == text.len()
}

/// The powers of ten an `f64` holds exactly.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        for src in ["null", "true", "false", "0", "42", "-7", "\"hi\""] {
            let v = parse(src).unwrap();
            assert_eq!(v.to_json(), src);
        }
    }

    #[test]
    fn u64_seed_roundtrips_exactly() {
        let seed = u64::MAX - 3;
        let v = parse(&Value::U64(seed).to_json()).unwrap();
        assert_eq!(v.as_u64(), Some(seed));
    }

    #[test]
    fn float_roundtrips_bit_exactly() {
        for f in [0.1, 1.0 / 3.0, 1e-300, 123456.789, 2.0] {
            let v = parse(&Value::F64(f).to_json()).unwrap();
            assert_eq!(v.as_f64().unwrap().to_bits(), f.to_bits());
        }
    }

    /// Reference number writer: a temporary `format!` string plus the
    /// `".0"` rule.
    fn reference_number(v: &Value) -> String {
        match *v {
            Value::U64(n) => format!("{n}"),
            Value::F64(n) if n.is_finite() => {
                let s = format!("{n}");
                if s.contains(['.', 'e', 'E']) {
                    s
                } else {
                    s + ".0"
                }
            }
            Value::F64(_) => "null".to_string(),
            _ => unreachable!("numbers only"),
        }
    }

    #[test]
    fn number_writer_edge_cases_match_reference() {
        let floats = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            1.0,
            -2.0,
            1e21,
            1e22,
            -1e21,
            f64::MAX,
            f64::MIN,
            9007199254740993.0,
            0.1,
        ];
        for f in floats {
            let v = Value::F64(f);
            assert_eq!(v.to_json(), reference_number(&v), "{f:e}");
        }
        for n in [0, 1, 9, 10, 99, 100, u64::MAX - 1, u64::MAX] {
            let v = Value::U64(n);
            assert_eq!(v.to_json(), reference_number(&v));
        }
        // Inside a container the number lands after the text before it.
        let arr = Value::Array(vec![Value::F64(3.0), Value::F64(f64::NAN), Value::U64(7)]);
        assert_eq!(arr.to_json(), "[3.0,null,7]");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2048))]

        /// Random `f64` bit patterns and random `u64`s write exactly what
        /// the reference writer does, alone and after a float. The
        /// exponent field is drawn per class so that subnormals (and
        /// zeros), infinities and NaNs, integral values and everything
        /// else each get a quarter of the cases.
        #[test]
        fn number_writer_matches_reference(
            class in 0u64..4,
            sign in 0u64..2,
            exponent in 0u64..0x800,
            mantissa in 0u64..1 << 52,
            n in 0u64..u64::MAX,
        ) {
            let exponent = match class {
                0 => 0,
                1 => 0x7ff,
                _ => exponent,
            };
            let float = if class == 2 {
                // Integral: every value below 2^52 is exact.
                let v = mantissa as f64;
                if sign == 1 { -v } else { v }
            } else {
                f64::from_bits(sign << 63 | exponent << 52 | mantissa)
            };
            for v in [Value::F64(float), Value::U64(n)] {
                let want = reference_number(&v);
                proptest::prop_assert_eq!(v.to_json(), want.clone());
                // The `.`/`e` check must look only at this number's text.
                let pair = Value::Array(vec![Value::F64(0.5), v]);
                proptest::prop_assert_eq!(pair.to_json(), format!("[0.5,{want}]"));
            }
        }
    }

    #[test]
    fn object_and_array_roundtrip() {
        let mut v = Value::object();
        v.set("name", "bbr".into())
            .set("rtts", vec![10.0, 20.0].into())
            .set("seed", 7u64.into())
            .set("limit", Value::Null);
        let text = v.to_json();
        let back = parse(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.get("name").unwrap().as_str(), Some("bbr"));
        assert_eq!(back.get("rtts").unwrap().as_array().unwrap().len(), 2);
        assert!(back.get("limit").unwrap().is_null());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "line1\nline\"2\"\\tab\there";
        let v = Value::Str(s.to_string());
        assert_eq!(parse(&v.to_json()).unwrap().as_str(), Some(s));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(parse(&objects).is_err());
        // Far past any stack: an uncapped recursive parser aborts the
        // whole process here instead of returning an error.
        assert!(parse(&"[".repeat(1_000_000)).is_err());
    }

    /// A typed read over the reader sees what the tree sees: the last of
    /// a repeated key, integers coerced to `f64`, and a value of the wrong
    /// kind read as absent (and skipped, so later members still count).
    #[test]
    fn reader_reads_members_the_way_the_tree_does() {
        let text =
            r#"{"a":1,"s":"x\u0041","a":2.5,"skip":{"deep":[1,{"b":null}]},"n":"str","u":-0}"#;
        let (mut a, mut s, mut n, mut u, mut keys) = (None, None, Some(0.0), None, Vec::new());
        Reader::document(text, |r| {
            r.object(|r, key| {
                keys.push(key.to_string());
                match key {
                    "a" => a = r.f64()?,
                    "s" => s = r.str()?.map(Cow::into_owned),
                    "n" => n = r.f64()?,
                    "u" => u = r.u64()?,
                    _ => r.skip()?,
                }
                Ok(())
            })
        })
        .unwrap();
        let tree = parse(text).unwrap();
        assert_eq!(a, tree.get("a").and_then(Value::as_f64));
        assert_eq!(a, Some(2.5));
        assert_eq!(s.as_deref(), Some("xA"));
        assert_eq!(n, None, "a string read as a number is absent");
        assert_eq!(u, tree.get("u").and_then(Value::as_u64));
        assert_eq!(keys, ["a", "s", "a", "skip", "n", "u"]);
    }

    /// Skipping checks what it skips: a typed reader that ignores a
    /// malformed member still rejects the document, at the same offset
    /// and with the same message as `parse`.
    #[test]
    fn skipped_values_are_checked_like_parsed_ones() {
        for text in [
            r#"{"x":[1,]}"#,
            r#"{"x":{"y":nul}}"#,
            r#"{"x":"bad \q escape"}"#,
            r#"{"x":1-2}"#,
            r#"{"x":"\ud800"}"#,
            r#"{"x":1} trailing"#,
        ] {
            let skipped = Reader::document(text, |r| r.object(|r, _| r.skip())).unwrap_err();
            assert_eq!(skipped, parse(text).unwrap_err(), "{text}");
        }
        let deep = format!(
            "{{\"x\":{}{}}}",
            "[".repeat(MAX_DEPTH),
            "]".repeat(MAX_DEPTH)
        );
        let skipped = Reader::document(&deep, |r| r.object(|r, _| r.skip())).unwrap_err();
        assert_eq!(skipped, parse(&deep).unwrap_err());
        assert!(skipped.message.contains("nesting"), "{skipped}");
    }

    /// `array_of` reads every item and keeps the first invalid one's
    /// message; a non-array reads as `None`.
    #[test]
    fn array_of_keeps_the_first_invalid_item() {
        let read = |text: &str| {
            Reader::document(text, |r| {
                r.array_of(|r| Ok(r.u64()?.ok_or_else(|| "not a u64".to_string())))
            })
        };
        assert_eq!(read("[1,2,3]"), Ok(Some(Ok(vec![1, 2, 3]))));
        assert_eq!(read("[1,\"a\",[]]"), Ok(Some(Err("not a u64".into()))));
        assert_eq!(read("{\"a\":1}"), Ok(None));
        assert!(
            read("[1,\"a\",[}").is_err(),
            "items after an invalid one are still checked"
        );
    }

    /// The number classifier agrees with `str::parse` on the text it
    /// scanned: the fast decimal path and the fallback give the same bits.
    /// Text that `str::parse` reads but JSON's grammar forbids is an
    /// invalid number.
    #[test]
    fn number_edge_cases_match_str_parse() {
        for text in [
            "0.0",
            "-0.0",
            "0.1",
            "9007199254740992.0",
            "9007199254740993.0",
            "0.9007199254740993",
            "1.0000000000000000000001",
            "123456789012345678.9",
            "0.0000000000000000000001",
            "0.00000000000000000000001",
            "1206.8342526583306",
            "0.006666666666666667",
            "1e22",
            "1.5e-7",
            "-3.25",
            "0e5",
            "-0.5E+2",
        ] {
            let read = Reader::document(text, Reader::value).map(|v| v.as_f64().map(f64::to_bits));
            let want = text.parse::<f64>().map(f64::to_bits);
            assert_eq!(read.ok().flatten(), want.ok(), "{text}");
        }
        for text in [
            "00.5", "-.5", "5.", "01", "-01", "00", "1.e5", "1e", "1e+", "-", "1.5.2", "1e5e5",
            "--1", "01e5", "1e5.5",
        ] {
            let err = parse(text).unwrap_err();
            assert_eq!(err.offset, 0, "{text}");
            assert_eq!(err.message, format!("invalid number '{text}'"));
        }
        assert_eq!(parse("18446744073709551615"), Ok(Value::U64(u64::MAX)));
        assert_eq!(parse("-9223372036854775808"), Ok(Value::I64(i64::MIN)));
        assert_eq!(
            parse("18446744073709551616"),
            Ok(Value::F64(18446744073709551616.0))
        );
        assert_eq!(parse("-0"), Ok(Value::I64(0)));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]

        /// Any float's shortest text, and any plain decimal of up to 21
        /// digits, reads back to exactly what `str::parse` makes of it.
        #[test]
        fn decimals_read_like_str_parse(
            bits in 0u64..u64::MAX,
            whole in 0u64..u64::MAX,
            frac in 0u64..u64::MAX,
            shift in 0u32..20,
            zeros in 0usize..4,
        ) {
            let x = f64::from_bits(bits);
            if x.is_finite() {
                let text = Value::F64(x).to_json();
                let back = parse(&text).unwrap().as_f64().unwrap();
                proptest::prop_assert_eq!(back.to_bits(), x.to_bits(), "{}", text);
            }
            let text = format!("{}.{}{}", whole >> shift, "0".repeat(zeros), frac >> shift);
            for text in [text.clone(), format!("-{text}")] {
                let back = parse(&text).unwrap().as_f64().unwrap();
                proptest::prop_assert_eq!(back.to_bits(), text.parse::<f64>().unwrap().to_bits(), "{}", text);
            }
        }
    }

    #[test]
    fn whitespace_tolerated() {
        let v = parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
    }
}
