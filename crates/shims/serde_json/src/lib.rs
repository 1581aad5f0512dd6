//! Offline stand-in for the subset of `serde_json` this workspace uses:
//! `to_string[_pretty]`, `to_writer`, `from_str`, `from_reader`, the
//! [`Value`] tree (re-exported from the serde shim, where it lives so the
//! derive macros can target it), and a [`json!`] macro covering object /
//! array / expression literals.

use std::io::{Read, Write};

use serde::{write_escaped, Serialize as _};
pub use serde::{Map, Number, Value};

/// Serialization / deserialization failure.
#[derive(Debug)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error: {}", self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error::new(e.to_string())
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::new(e.to_string())
    }
}

impl From<Error> for std::io::Error {
    fn from(e: Error) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
    }
}

/// Converts any serializable value into a [`Value`] tree. Used by the
/// [`json!`] macro; infallible in this shim's data model.
pub fn to_value<T: serde::Serialize + ?Sized>(v: &T) -> Value {
    v.to_value()
}

/// Serializes `v` as a compact JSON string, streamed through
/// [`serde::Serialize::write_json`] (no [`Value`] tree for derived
/// types).
pub fn to_string<T: serde::Serialize + ?Sized>(v: &T) -> Result<String, Error> {
    let mut out = String::new();
    v.write_json(&mut out);
    Ok(out)
}

/// Serializes `v` as human-indented JSON.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(v: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_pretty(&v.to_value(), 0, &mut out);
    Ok(out)
}

/// Writes `v` as compact JSON into `w`.
pub fn to_writer<W: Write, T: serde::Serialize + ?Sized>(mut w: W, v: &T) -> Result<(), Error> {
    let s = to_string(v)?;
    w.write_all(s.as_bytes())?;
    Ok(())
}

/// Parses a value of type `T` from a JSON string.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value_complete(s)?;
    Ok(T::from_value(&value)?)
}

/// Parses a value of type `T` from a JSON reader.
pub fn from_reader<R: Read, T: serde::Deserialize>(mut r: R) -> Result<T, Error> {
    let mut buf = String::new();
    r.read_to_string(&mut buf)?;
    from_str(&buf)
}

/// Builds a [`Value`] from a JSON-ish literal: `json!({"k": expr, ...})`,
/// `json!([a, b])`, `json!(null)`, or `json!(expr)` for any
/// `serde::Serialize` expression.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    (true) => { $crate::Value::Bool(true) };
    (false) => { $crate::Value::Bool(false) };
    ({ $($key:literal : $value:expr),* $(,)? }) => {{
        #[allow(unused_mut)]
        let mut m = $crate::Map::new();
        $( m.insert($key.to_string(), $crate::to_value(&$value)); )*
        $crate::Value::Object(m)
    }};
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::to_value(&$elem) ),* ])
    };
    ($other:expr) => { $crate::to_value(&$other) };
}

// ------------------------------------------------------------- printing

fn indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_pretty(v: &Value, depth: usize, out: &mut String) {
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                indent(depth + 1, out);
                write_pretty(item, depth + 1, out);
            }
            out.push('\n');
            indent(depth, out);
            out.push(']');
        }
        Value::Object(m) if !m.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in m.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                indent(depth + 1, out);
                write_escaped(k, out);
                out.push_str(": ");
                write_pretty(val, depth + 1, out);
            }
            out.push('\n');
            indent(depth, out);
            out.push('}');
        }
        other => other.write_json(out),
    }
}

// -------------------------------------------------------------- parsing

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse_value_complete(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
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

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(Error::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(Error::new(format!("unexpected byte at {}", self.pos))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
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
                _ => return Err(Error::new(format!("expected `,` or `]` at {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut m = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            m.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(m));
                }
                _ => return Err(Error::new(format!("expected `,` or `}}` at {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes at once.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::new("invalid UTF-8 in string"))?,
            );
            match self.peek() {
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
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::new("invalid \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::new("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(Error::new("invalid escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        let n = if is_float {
            Number::Float(
                text.parse::<f64>()
                    .map_err(|_| Error::new(format!("invalid number `{text}`")))?,
            )
        } else if let Ok(u) = text.parse::<u64>() {
            Number::PosInt(u)
        } else if let Ok(i) = text.parse::<i64>() {
            Number::NegInt(i)
        } else {
            Number::Float(
                text.parse::<f64>()
                    .map_err(|_| Error::new(format!("invalid number `{text}`")))?,
            )
        };
        Ok(Value::Number(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_basic_document() {
        let doc = json!({
            "title": "test",
            "n": 3,
            "x": 0.25,
            "neg": -4,
            "flag": true,
            "nothing": null,
            "arr": [1.0, 2.0, 3.0],
        });
        let s = to_string(&doc).unwrap();
        let back: Value = from_str(&s).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back["title"], "test");
        assert_eq!(back["x"].as_f64(), Some(0.25));
        assert_eq!(back["n"].as_u64(), Some(3));
        assert_eq!(back["neg"].as_i64(), Some(-4));
        assert!(back["nothing"].is_null());
        assert_eq!(back["arr"][2].as_f64(), Some(3.0));
    }

    #[test]
    fn pretty_output_parses_back() {
        let doc = json!({ "a": [1.0, 2.0], "b": { "c": "d" } });
        let pretty = to_string_pretty(&doc).unwrap();
        assert!(pretty.contains('\n'));
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Value::String("a\"b\\c\nd\te\u{1}".to_string());
        let s = to_string(&v).unwrap();
        let back: Value = from_str(&s).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn floats_keep_floatness_ints_keep_intness() {
        let s = to_string(&json!({ "f": 1.0, "i": 1 })).unwrap();
        let back: Value = from_str(&s).unwrap();
        assert!(matches!(back["f"], Value::Number(Number::Float(_))));
        assert!(matches!(back["i"], Value::Number(Number::PosInt(_))));
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<Value>("{{").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("nul").is_err());
        assert!(from_str::<Value>("{} trailing").is_err());
    }

    #[test]
    fn scientific_notation_parses() {
        let v: Value = from_str("[1e3, -2.5E-2]").unwrap();
        assert_eq!(v[0].as_f64(), Some(1000.0));
        assert_eq!(v[1].as_f64(), Some(-0.025));
    }
}
