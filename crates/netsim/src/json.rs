//! Minimal JSON support: a value tree, a writer, and a strict parser.
//!
//! The build environment has no crates.io access, so instead of serde
//! the workspace uses this small hand-rolled module for everything that
//! reads or writes JSON: scenario round-trips in `bbrdom-experiments`
//! and the benchmark trajectory file (`BENCH_netsim.json`) emitted by
//! `bbrdom-bench`.
//!
//! Numbers keep their integer-ness: `u64`/`i64` values round-trip
//! bit-exactly (a plain `f64` representation would corrupt 64-bit
//! seeds), and floats are written with Rust's shortest-round-trip
//! formatting.

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

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a cap a line of `[`s overflows the stack
/// and aborts the process; nothing the workspace writes nests past a
/// handful of levels.
const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document (trailing whitespace allowed).
/// Nesting deeper than 128 levels is a [`ParseError`].
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Parse one container a level deeper, refusing to pass [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error("nesting deeper than 128 levels"));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
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
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.error("bad escape"))?;
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
                    // Consume one UTF-8 character (input is valid UTF-8).
                    let s = &self.bytes[self.pos..];
                    let ch_len = match s[0] {
                        b if b < 0x80 => 1,
                        b if b >= 0xF0 => 4,
                        b if b >= 0xE0 => 3,
                        _ => 2,
                    };
                    let chunk = std::str::from_utf8(&s[..ch_len])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    out.push_str(chunk);
                    self.pos += ch_len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
        }
        text.parse::<f64>().map(Value::F64).map_err(|_| ParseError {
            offset: start,
            message: format!("invalid number '{text}'"),
        })
    }
}

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

    #[test]
    fn whitespace_tolerated() {
        let v = parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
    }
}
