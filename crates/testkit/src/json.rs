//! Minimal JSON reader plus a canonical writer.
//!
//! Just enough of RFC 8259 to load experiment specs and scenarios and to
//! inspect experiment-matrix artifacts without a registry dependency: the
//! full value grammar is parsed (objects, arrays, strings with escapes,
//! numbers, booleans, null), numbers are read as `f64`, and trailing garbage
//! after the document is an error. [`canonical`] is the inverse direction: a deterministic
//! serialization (sorted keys, no whitespace, shortest round-tripping
//! number form) such that any two documents that parse to the same value
//! serialize to the same bytes — the property the experiment matrix's
//! content-addressed cache keys rely on.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (read as `f64`).
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array of values.
    Array(Vec<Value>),
    /// An object; keys ordered for deterministic iteration.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on objects; `None` for other variants or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The key/value map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }
}

/// Serialize a value canonically: object keys sorted (the [`BTreeMap`]
/// order), no whitespace, strings minimally escaped, numbers in Rust's
/// shortest round-tripping `Display` form. Two documents with the same
/// parsed value always canonicalize to identical bytes, so a digest of
/// this string is invariant under key reordering and reformatting.
///
/// Non-finite numbers have no JSON form; they serialize as `null` (and
/// are rejected upstream by writers that care).
pub fn canonical(v: &Value) -> String {
    let mut out = String::new();
    write_canonical(v, &mut out);
    out
}

fn write_canonical(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => {
            if n.is_finite() {
                // `{}` on f64 is the shortest string that parses back to
                // the same bits — canonical and lossless.
                out.push_str(&format!("{n}"));
            } else {
                out.push_str("null");
            }
        }
        Value::String(s) => write_escaped(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_canonical(item, out);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(k, out);
                out.push(':');
                write_canonical(val, out);
            }
            out.push('}');
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse failure: message plus byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset of the offending input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Field `key` of object `doc`, or an error naming `key` when it is
/// missing. The typed readers below build on it, and every error they
/// return names `key`, so a loader only prefixes where the object sits
/// (`blocks[0]: `, `events[3]: `).
pub fn field<'v>(doc: &'v Value, key: &str) -> Result<&'v Value, String> {
    doc.get(key).ok_or_else(|| format!("missing {key:?}"))
}

/// String field `key` of `doc`.
pub fn string<'v>(doc: &'v Value, key: &str) -> Result<&'v str, String> {
    field(doc, key)?.as_str().ok_or_else(|| format!("{key:?} must be a string"))
}

/// Number field `key` of `doc`.
pub fn number(doc: &Value, key: &str) -> Result<f64, String> {
    field(doc, key)?.as_f64().ok_or_else(|| format!("{key:?} must be a number"))
}

/// Integer field `key` of `doc`: a non-negative integer that `f64` holds
/// exactly (below 2^53). Anything else is an error naming `key`:
/// truncating `-3`, `0.9` or `1e300` with `as u64` would silently run a
/// different input than the one written (and key one run under several
/// names in a content-addressed cache).
pub fn uint(doc: &Value, key: &str) -> Result<u64, String> {
    const EXACT: f64 = (1u64 << 53) as f64;
    let v = field(doc, key)?;
    match v.as_f64() {
        Some(n) if (0.0..EXACT).contains(&n) && n.fract() == 0.0 => Ok(n as u64),
        _ => Err(format!("{key:?} must be a non-negative integer, got {}", canonical(v))),
    }
}

/// Optional bool field `key` of `doc`: `false` when absent.
pub fn flag(doc: &Value, key: &str) -> Result<bool, String> {
    doc.get(key).map_or(Ok(false), |v| v.as_bool().ok_or_else(|| format!("{key:?} must be a bool")))
}

/// Optional field `key` of `doc`: `None` when absent, else the field read
/// by `read` — one of the readers above, so a present but malformed value
/// is `read`'s error, which names `key`.
pub fn optional<'v, T>(
    doc: &'v Value,
    key: &str,
    read: impl FnOnce(&'v Value, &str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    match doc.get(key) {
        Some(_) => read(doc, key).map(Some),
        None => Ok(None),
    }
}

/// Parse one complete JSON document.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError { message: message.to_string(), offset: self.pos }
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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
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
            let v = self.value()?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
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
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xc0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("input was valid UTF-8"),
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| ParseError { message: format!("bad number '{text}'"), offset: start })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `{"<key>": <text>}`, parsed.
    fn doc(key: &str, text: &str) -> Value {
        parse(&format!("{{{key:?}: {text}}}")).unwrap()
    }

    #[test]
    fn uint_takes_exact_non_negative_integers_only() {
        for (text, want) in [("0", 0), ("7", 7), ("4503599627370495", (1u64 << 52) - 1)] {
            assert_eq!(uint(&doc("n", text), "n"), Ok(want), "{text}");
        }
        for text in ["-3", "0.9", "-0.5", "9007199254740992", "1e300", "\"7\"", "true", "null"] {
            let err = uint(&doc("seed", text), "seed").unwrap_err();
            assert!(err.starts_with("\"seed\" must be a non-negative integer, got "), "{err}");
        }
    }

    #[test]
    fn field_readers_check_the_type_and_name_the_key() {
        let d = doc("k", "\"s\"");
        assert_eq!(string(&d, "k"), Ok("s"));
        assert_eq!(number(&doc("k", "2.5"), "k"), Ok(2.5));
        assert_eq!(flag(&doc("k", "true"), "k"), Ok(true));
        assert_eq!(flag(&d, "absent"), Ok(false));
        assert_eq!(field(&d, "absent"), Err("missing \"absent\"".to_string()));
        assert_eq!(string(&doc("k", "1"), "k"), Err("\"k\" must be a string".to_string()));
        assert_eq!(number(&d, "k"), Err("\"k\" must be a number".to_string()));
        assert_eq!(flag(&d, "k"), Err("\"k\" must be a bool".to_string()));
        assert_eq!(uint(&d, "absent"), Err("missing \"absent\"".to_string()));
    }

    #[test]
    fn optional_is_none_when_absent_and_the_reader_otherwise() {
        let d = doc("k", "3");
        assert_eq!(optional(&d, "absent", uint), Ok(None));
        assert_eq!(optional(&d, "k", uint), Ok(Some(3)));
        assert_eq!(optional(&d, "k", string), Err("\"k\" must be a string".to_string()));
        let err = optional(&doc("k", "0.5"), "k", uint).unwrap_err();
        assert!(err.starts_with("\"k\" must be a non-negative integer"), "{err}");
    }

    #[test]
    fn parses_nested_document() {
        let v = parse(
            r#"{"schema": 1, "ok": true, "results": [{"name": "a/b", "rate": 1.5e6}], "x": null}"#,
        )
        .unwrap();
        assert_eq!(v.get("schema").and_then(Value::as_f64), Some(1.0));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        let results = v.get("results").and_then(Value::as_array).unwrap();
        assert_eq!(results[0].get("name").and_then(Value::as_str), Some("a/b"));
        assert_eq!(results[0].get("rate").and_then(Value::as_f64), Some(1.5e6));
        assert_eq!(v.get("x"), Some(&Value::Null));
    }

    #[test]
    fn parses_escapes() {
        let v = parse(
            r#""a\"b\\c
d""#,
        )
        .unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd"));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("{").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{\"a\": 1} trailing").is_err());
        assert!(parse("").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("[1 2]").is_err());
    }

    #[test]
    fn negative_and_exponent_numbers() {
        assert_eq!(parse("-12.5").unwrap().as_f64(), Some(-12.5));
        assert_eq!(parse("3e2").unwrap().as_f64(), Some(300.0));
    }

    #[test]
    fn canonical_is_layout_invariant() {
        let messy = "{\n  \"b\": [1, 2.5, true],\t\"a\": {\"z\": null, \"y\": \"s\"}\n}";
        let tidy = r#"{"a":{"y":"s","z":null},"b":[1,2.5,true]}"#;
        assert_eq!(canonical(&parse(messy).unwrap()), tidy);
        // Canonicalization is idempotent: parse(canonical(v)) == v.
        assert_eq!(canonical(&parse(tidy).unwrap()), tidy);
    }

    #[test]
    fn canonical_numbers_round_trip() {
        for n in [0.0, -0.0, 5.0, 0.3, 1.0 / 3.0, 1e-12, 123456789.125] {
            let c = canonical(&Value::Number(n));
            let back = parse(&c).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), n.to_bits(), "lossy canonical form {c}");
        }
        assert_eq!(canonical(&Value::Number(f64::NAN)), "null");
    }

    #[test]
    fn canonical_escapes_reparse() {
        let v = Value::String("a\"b\\c\nd\u{1}e".to_string());
        let c = canonical(&v);
        assert_eq!(parse(&c).unwrap(), v);
    }

    #[test]
    fn accessors_cover_new_variants() {
        let v = parse(r#"{"flag": true, "obj": {"k": 1}}"#).unwrap();
        assert_eq!(v.get("flag").and_then(Value::as_bool), Some(true));
        assert!(v.as_object().unwrap().contains_key("obj"));
        assert_eq!(v.get("obj").and_then(Value::as_bool), None);
    }
}
