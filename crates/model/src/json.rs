//! Minimal, dependency-free JSON serialisation.
//!
//! The workspace's on-disk artifacts (traces, hint maps, results) use JSON as
//! their interoperable format. To keep the build dependency-free offline,
//! this module provides a small JSON value model, a parser, a writer, and the
//! [`ToJson`]/[`FromJson`] traits with a [`json_struct!`](crate::json_struct)
//! derive macro for named-field structs.
//!
//! # Examples
//!
//! ```
//! use uopcache_model::json::{self, FromJson, Json, ToJson};
//!
//! let v = Json::parse(r#"{"a": 1, "b": [true, null, "x"]}"#).unwrap();
//! assert_eq!(v.field("a").unwrap().as_u64().unwrap(), 1);
//! let s = json::to_string(&vec![1u32, 2, 3]);
//! assert_eq!(s, "[1,2,3]");
//! let back: Vec<u32> = json::from_str(&s).unwrap();
//! assert_eq!(back, vec![1, 2, 3]);
//! ```

use std::fmt;

/// A parsed JSON value.
///
/// Integers are kept exact: non-negative integers parse to [`Json::U64`],
/// negative ones to [`Json::I64`], and only values with a fraction or
/// exponent become [`Json::F64`]. Object fields preserve insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A number with a fractional part or exponent.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts. Real
/// documents nest fewer than 10 levels; the bound keeps the recursive parser
/// from overflowing the stack on hostile input such as 50 000 `[`.
pub const MAX_DEPTH: usize = 128;

/// A parse or conversion failure, with a human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError(pub String);

impl JsonError {
    fn new(msg: impl Into<String>) -> Self {
        JsonError(msg.into())
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first malformed construct,
    /// including arrays and objects nested deeper than [`MAX_DEPTH`],
    /// unpaired surrogate escapes, and numbers beyond the `f64` range.
    pub fn parse(s: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text: s,
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::new(format!("trailing input at byte {}", p.pos)));
        }
        Ok(v)
    }

    /// Looks up a field of an object.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] if `self` is not an object or lacks the field.
    pub fn field(&self, name: &str) -> Result<&Json, JsonError> {
        match self {
            Json::Obj(pairs) => pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| JsonError::new(format!("missing field {name:?}"))),
            other => Err(JsonError::new(format!(
                "expected object for field {name:?}, got {other:?}"
            ))),
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an `i64` (accepts any in-range integer).
    pub(crate) fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::U64(v) => i64::try_from(v).ok(),
            Json::I64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an `f64` (accepts any number).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
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

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::new(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            other => Err(JsonError::new(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            ))),
        }
    }

    /// Parses one array or object, one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError::new(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
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
                _ => {
                    return Err(JsonError::new(format!(
                        "expected ',' or ']' at byte {}",
                        self.pos
                    )))
                }
            }
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
                _ => {
                    return Err(JsonError::new(format!(
                        "expected ',' or '}}' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of bytes up to the next quote or backslash in one
            // step. Both are ASCII, so the run ends on a character boundary
            // of the (already UTF-8) input.
            let run_len = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| JsonError::new("unterminated string"))?;
            let run = &self.text[self.pos..self.pos + run_len];
            if run.chars().any(char::is_control) {
                return Err(JsonError::new("unescaped control character in string"));
            }
            out.push_str(run);
            self.pos += run_len + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let esc = self
                .peek()
                .ok_or_else(|| JsonError::new("unterminated escape"))?;
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
                b'u' => out.push(self.unicode_escape()?),
                other => {
                    return Err(JsonError::new(format!(
                        "invalid escape '\\{}'",
                        other as char
                    )))
                }
            }
        }
    }

    /// The character of a `\u` escape whose `\u` was just consumed: one
    /// scalar, or a high surrogate joined with the low-surrogate escape that
    /// must follow it.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let high = self.hex4()?;
        let code = match high {
            0xD800..=0xDBFF => {
                if !self.bytes[self.pos..].starts_with(b"\\u") {
                    return Err(JsonError::new("unpaired surrogate in \\u escape"));
                }
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return Err(JsonError::new("unpaired surrogate in \\u escape"));
                }
                0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
            }
            code => code,
        };
        char::from_u32(code).ok_or_else(|| JsonError::new("unpaired surrogate in \\u escape"))
    }

    /// Four hex digits, exactly (no sign, no fewer digits).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| JsonError::new("truncated \\u escape"))?;
        let mut code = 0;
        for &b in hex {
            let digit = char::from(b)
                .to_digit(16)
                .ok_or_else(|| JsonError::new("invalid \\u escape"))?;
            code = code * 16 + digit;
        }
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if !fractional {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::F64(v)),
            Ok(_) => Err(JsonError::new(format!("number {text:?} is out of range"))),
            Err(_) => Err(JsonError::new(format!("invalid number {text:?}"))),
        }
    }
}

impl fmt::Display for Json {
    /// Writes compact JSON (no insignificant whitespace).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::U64(v) => write!(f, "{v}"),
            Json::I64(v) => write!(f, "{v}"),
            Json::F64(v) => {
                if v.is_finite() {
                    // Rust's shortest-roundtrip formatting preserves the value.
                    write!(f, "{v}")
                } else {
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for ch in s.chars() {
        match ch {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if c.is_control() => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_fmt(format_args!("{c}"))?,
        }
    }
    f.write_str("\"")
}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

/// Conversion from a [`Json`] value.
pub trait FromJson: Sized {
    /// Reconstructs `Self` from its JSON representation.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] if the value has the wrong shape.
    fn from_json(j: &Json) -> Result<Self, JsonError>;
}

/// Serialises `value` to a compact JSON string.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_string()
}

/// Parses and converts a JSON string.
///
/// # Errors
///
/// Returns a [`JsonError`] on malformed JSON or a shape mismatch.
pub fn from_str<T: FromJson>(s: &str) -> Result<T, JsonError> {
    T::from_json(&Json::parse(s)?)
}

macro_rules! json_uint {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::U64(u64::from(*self))
            }
        }
        impl FromJson for $t {
            fn from_json(j: &Json) -> Result<Self, JsonError> {
                let v = j.as_u64().ok_or_else(|| {
                    JsonError::new(format!("expected unsigned integer, got {j:?}"))
                })?;
                <$t>::try_from(v)
                    .map_err(|_| JsonError::new(format!("{v} out of range for {}", stringify!($t))))
            }
        }
    )+};
}

json_uint!(u8, u16, u32, u64);

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::U64(*self as u64)
    }
}

impl FromJson for usize {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let v = j
            .as_u64()
            .ok_or_else(|| JsonError::new(format!("expected unsigned integer, got {j:?}")))?;
        usize::try_from(v).map_err(|_| JsonError::new(format!("{v} out of range for usize")))
    }
}

impl ToJson for i64 {
    fn to_json(&self) -> Json {
        if *self >= 0 {
            Json::U64(*self as u64)
        } else {
            Json::I64(*self)
        }
    }
}

impl FromJson for i64 {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_i64()
            .ok_or_else(|| JsonError::new(format!("expected integer, got {j:?}")))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

impl FromJson for f64 {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_f64()
            .ok_or_else(|| JsonError::new(format!("expected number, got {j:?}")))
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_bool()
            .ok_or_else(|| JsonError::new(format!("expected bool, got {j:?}")))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::new(format!("expected string, got {j:?}")))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_arr()
            .ok_or_else(|| JsonError::new(format!("expected array, got {j:?}")))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j.as_arr() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(JsonError::new(format!(
                "expected two-element array, got {j:?}"
            ))),
        }
    }
}

/// Implements [`ToJson`] and [`FromJson`] for a named-field struct, mapping
/// each listed field to an object key of the same name.
///
/// # Examples
///
/// ```
/// use uopcache_model::{json, json_struct};
///
/// #[derive(Debug, PartialEq)]
/// struct P { x: u32, y: f64 }
/// json_struct!(P { x, y });
///
/// let p = P { x: 3, y: 0.5 };
/// let s = json::to_string(&p);
/// assert_eq!(json::from_str::<P>(&s).unwrap(), p);
/// ```
#[macro_export]
macro_rules! json_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $(
                        (
                            stringify!($field).to_string(),
                            $crate::json::ToJson::to_json(&self.$field),
                        ),
                    )+
                ])
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(
                j: &$crate::json::Json,
            ) -> Result<Self, $crate::json::JsonError> {
                Ok(Self {
                    $(
                        $field: $crate::json::FromJson::from_json(
                            j.field(stringify!($field))?,
                        )?,
                    )+
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_print_roundtrip() {
        let text = r#"{"a":1,"b":[true,null,"x\ny"],"c":-2,"d":0.5}"#;
        let v = Json::parse(text).expect("valid document");
        assert_eq!(v.to_string(), text);
    }

    #[test]
    fn integers_stay_exact() {
        let big = u64::MAX;
        let v = Json::parse(&big.to_string()).expect("u64 literal");
        assert_eq!(v.as_u64(), Some(big));
        let v = Json::parse("-42").expect("negative literal");
        assert_eq!(v.as_i64(), Some(-42));
    }

    #[test]
    #[allow(clippy::float_cmp)] // exact roundtrip is the property under test
    fn floats_roundtrip_via_shortest_form() {
        for x in [0.1, 1.0 / 3.0, 2.5e-9, 1234.5678] {
            let s = Json::F64(x).to_string();
            let back = Json::parse(&s)
                .expect("float literal")
                .as_f64()
                .expect("number");
            assert_eq!(back, x, "{s}");
        }
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for bad in ["", "{", "[1,", "{\"a\"}", "tru", "1 2", "\"\\q\"", "{a:1}"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize, open: &str, close: &str| {
            format!("{}{}", open.repeat(depth), close.repeat(depth))
        };
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            let edge = nested(MAX_DEPTH, open, close).replace("{\"a\":}", "{}");
            assert!(Json::parse(&edge).is_ok(), "depth {MAX_DEPTH} parses");
        }
        let err = Json::parse(&nested(MAX_DEPTH + 1, "[", "]")).expect_err("too deep");
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        // Far past the limit: an error at the first level too many, before
        // the recursion can run out of stack.
        let err = Json::parse(&"[".repeat(50_000)).expect_err("too deep");
        assert!(err.to_string().contains("at byte 128"), "{err}");
        let mixed = format!("{}{}", "{\"k\":[".repeat(40_000), "1");
        assert!(Json::parse(&mixed).is_err());
    }

    #[test]
    fn field_lookup_errors_name_the_field() {
        let v = Json::parse(r#"{"x":1}"#).expect("valid");
        let err = v.field("missing").expect_err("absent field");
        assert!(err.to_string().contains("missing"), "{err}");
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "quote\" slash\\ newline\n tab\t unicode€".to_string();
        let s = to_string(&original);
        let back: String = from_str(&s).expect("roundtrip");
        assert_eq!(back, original);
    }

    #[test]
    fn a_16_mb_string_parses_in_one_pass() {
        // A parser that re-validates the rest of the input per character
        // takes seconds at 400 KB and hours here.
        let body = format!("{}\\n€{}", "x".repeat(8 << 20), "y".repeat(8 << 20));
        let back = Json::parse(&format!("\"{body}\"")).expect("long string");
        let s = back.as_str().expect("a string");
        assert_eq!(s.len(), (16 << 20) + 1 + '€'.len_utf8());
        assert!(s[8 << 20..].starts_with("\n€y"));
    }

    #[test]
    fn unicode_escapes_decode_surrogate_pairs_and_nothing_looser() {
        let pair = Json::parse(r#""\ud83d\ude00 \u00e9\u0041""#).expect("surrogate pair");
        assert_eq!(pair.as_str(), Some("😀 éA"));
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u04""#,
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83dA""#,
            r#""\ude00""#,
        ] {
            assert!(Json::parse(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn numbers_that_overflow_to_infinity_are_rejected() {
        for bad in ["1e400", "-1e400", "[1e309]", &"9".repeat(400)] {
            let err = Json::parse(bad).expect_err("out of range");
            assert!(err.to_string().contains("out of range"), "{bad}: {err}");
        }
        assert!(Json::parse("1e308").is_ok());
    }

    #[test]
    fn collections_roundtrip() {
        let v: Vec<(u64, u8)> = vec![(0x4000, 3), (0x8000, 7)];
        let s = to_string(&v);
        let back: Vec<(u64, u8)> = from_str(&s).expect("roundtrip");
        assert_eq!(back, v);
        let opt: Option<u32> = None;
        assert_eq!(to_string(&opt), "null");
        assert_eq!(from_str::<Option<u32>>("null").expect("null"), None);
        assert_eq!(from_str::<Option<u32>>("5").expect("some"), Some(5));
    }

    #[test]
    fn shape_mismatches_error() {
        assert!(from_str::<u32>("\"x\"").is_err());
        assert!(from_str::<u8>("300").is_err());
        assert!(from_str::<bool>("1").is_err());
        assert!(from_str::<Vec<u32>>("{}").is_err());
    }
}
