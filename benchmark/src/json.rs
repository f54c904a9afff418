//! A hand-rolled JSON value, writer and parser — the benchmark depends
//! on nothing the workspace does not already build offline.
//!
//! Objects keep insertion order. Floats print with Rust's shortest
//! round-trip formatting, so every measured digit survives; non-finite
//! floats (which JSON cannot carry) print as `null`.

use std::fmt::Write as _;

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Self::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Self::Int(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Self::Num(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Self::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Self::Str(v)
    }
}

impl Json {
    pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Self {
        Self::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The member `key` of an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Self::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Int(v) => Some(*v as f64),
            Self::Num(v) => Some(*v),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Self::Int(v) => Some(*v),
            _ => None,
        }
    }

    #[cfg(test)]
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(v) => Some(v),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(v) => Some(*v),
            _ => None,
        }
    }

    #[cfg(test)]
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Self::Array(v) => Some(v),
            _ => None,
        }
    }

    #[cfg(test)]
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Self::Object(v) => Some(v),
            _ => None,
        }
    }

    /// Compact single-line encoding.
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Self::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Self::Num(v) if v.is_finite() => {
                // `{:?}` keeps a fraction or exponent, so a float reads back as a float.
                let _ = write!(out, "{v:?}");
            }
            Self::Num(_) => out.push_str("null"),
            Self::Str(v) => write_str(v, out),
            Self::Array(items) => {
                out.push('[');
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Self::Object(fields) => {
                out.push('{');
                for (k, (key, value)) in fields.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    write_str(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        let value = p.value()?;
        p.skip_ws();
        if p.pos == p.bytes.len() {
            Ok(value)
        } else {
            Err(p.error("trailing characters"))
        }
    }
}

fn write_str(s: &str, out: &mut String) {
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
}

/// Nesting the parser accepts before refusing — far beyond any file the
/// benchmark reads, and it keeps hostile input from exhausting the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.value_at(0)
    }

    fn value_at(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.error("unexpected end")),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Json::Array(items));
                }
                loop {
                    items.push(self.value_at(depth + 1)?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Json::Array(items));
                    }
                    if !self.eat(",") {
                        return Err(self.error("expected ',' or ']'"));
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Json::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(self.error("expected ':'"));
                    }
                    fields.push((key, self.value_at(depth + 1)?));
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Json::Object(fields));
                    }
                    if !self.eat(",") {
                        return Err(self.error("expected ',' or '}'"));
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::Int(v));
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| self.error("malformed number"))
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(self.error("expected a string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self.bytes.get(self.pos).is_some_and(|&b| b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid utf-8"))?,
            );
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    let escape =
                        *self.bytes.get(self.pos).ok_or_else(|| self.error("bad escape"))?;
                    self.pos += 1;
                    match escape {
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
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs never occur in the files read here.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_round_trips_through_the_parser() {
        let doc = Json::object([
            ("correct", Json::from(true)),
            ("attempted", Json::from(30_000_000u64)),
            ("big", Json::from(u64::MAX)),
            ("rate", Json::from(1_653_211.482_913_7)),
            ("tiny", Json::from(1.25e-9)),
            ("whole", Json::from(27.0)),
            ("neg", Json::from(-0.5)),
            ("name", Json::from("steady_flat \"quoted\" \\ \n\ttab \u{1} µs")),
            ("none", Json::Null),
            ("list", Json::Array(vec![Json::from(1u64), Json::from(2.5), Json::Array(vec![])])),
            ("nested", Json::object([("unit", Json::from("1/s"))])),
            ("empty", Json::Object(vec![])),
        ]);
        let text = doc.encode();
        assert!(!text.contains('\n'), "the result line must stay on one line");
        assert_eq!(Json::parse(&text), Ok(doc.clone()));
        // A whole-valued float stays a float, an integer stays an integer.
        assert!(text.contains("\"whole\":27.0"));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(30_000_000));
        assert_eq!(
            doc.get("nested").and_then(|n| n.get("unit")).and_then(Json::as_str),
            Some("1/s")
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::from(f64::NAN).encode(), "null");
        assert_eq!(Json::from(f64::INFINITY).encode(), "null");
    }

    #[test]
    fn parser_accepts_whitespace_and_rejects_garbage() {
        let parsed =
            Json::parse(" { \"a\" : [ 1 , 2.0e1 , -3 ] ,\n \"b\" : \"\\u00b5\" } ").unwrap();
        assert_eq!(
            parsed.get("a").and_then(Json::as_array),
            Some(&[Json::Int(1), Json::Num(20.0), Json::Num(-3.0)][..])
        );
        assert_eq!(parsed.get("b").and_then(Json::as_str), Some("µ"));
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"open", "{\"a\":1,}", "-"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
        assert!(Json::parse(&"[".repeat(100)).is_err());
    }
}
