//! Offline stand-in for the subset of `serde` this workspace uses.
//!
//! Real serde abstracts over data formats; this workspace only ever
//! serializes to and from JSON, so the shim collapses the data model to a
//! single [`Value`] tree: [`Serialize`] renders into a `Value`,
//! [`Deserialize`] reads back out of one. [`Serialize::write_json`]
//! prints the compact JSON text of that tree without building it; the
//! derive and the impls here override it, a hand-written impl inherits a
//! default that renders [`Serialize::to_value`]. [`Serialize::write_bin`]
//! is the same for the compact binary grammar of [`bin`], the encoding
//! of every wire frame's payload. The `serde_json` shim
//! supplies the rest of the text layer (pretty-printing, parsing,
//! `json!`). Derive macros compatible
//! with `#[derive(Serialize, Deserialize)]` come from the sibling
//! `serde_derive` shim and are re-exported here exactly like the real
//! crate's `derive` feature. They take real serde's `tag`,
//! `rename_all = "snake_case"`, `skip`, `skip_serializing_if` and
//! `default` attributes, and refuse any other.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::sync::Arc;

pub use serde_derive::{Deserialize, Serialize};

pub mod bin;

/// JSON object representation (sorted keys, like default `serde_json`).
pub type Map = BTreeMap<String, Value>;

/// A JSON number: integer or float, mirroring `serde_json::Number`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A non-negative integer.
    PosInt(u64),
    /// A negative integer.
    NegInt(i64),
    /// A finite float.
    Float(f64),
}

impl Number {
    /// The value as `f64` (always possible).
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::PosInt(u) => u as f64,
            Number::NegInt(i) => i as f64,
            Number::Float(f) => f,
        }
    }

    /// The value as `i64` when losslessly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::PosInt(u) => i64::try_from(u).ok(),
            Number::NegInt(i) => Some(i),
            Number::Float(f) if f.fract() == 0.0 && f.abs() < 9.0e15 => Some(f as i64),
            Number::Float(_) => None,
        }
    }

    /// The value as `u64` when losslessly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::PosInt(u) => Some(u),
            Number::NegInt(i) => u64::try_from(i).ok(),
            Number::Float(f) if f.fract() == 0.0 && f >= 0.0 && f < 1.9e16 => Some(f as u64),
            Number::Float(_) => None,
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Number::PosInt(u) => write!(f, "{u}"),
            Number::NegInt(i) => write!(f, "{i}"),
            Number::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1.0e16 {
                    // Keep a float marker so round-trips stay floats.
                    write!(f, "{x:.1}")
                } else if x.fract() == 0.0 {
                    // Exponent form, as serde_json writes it: `1e300`,
                    // not its 301 digits.
                    write!(f, "{x:e}")
                } else {
                    write!(f, "{x}")
                }
            }
        }
    }
}

/// A JSON document tree, mirroring `serde_json::Value`.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map),
}

impl Value {
    /// The object map, when this is an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The string contents, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value as `f64`, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The numeric value as `i64`, when losslessly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The numeric value as `u64`, when losslessly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The boolean, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// `true` when this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

static NULL: Value = Value::Null;

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.as_object().and_then(|m| m.get(key)).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        self.as_array().and_then(|a| a.get(i)).unwrap_or(&NULL)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<Value> for &str {
    fn eq(&self, other: &Value) -> bool {
        other.as_str() == Some(*self)
    }
}

impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
}

/// Deserialization failure: a message plus an optional path context.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Builds an error from any displayable message.
    pub fn custom<T: fmt::Display>(msg: T) -> Self {
        Error {
            msg: msg.to_string(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

/// Appends `s` to `out` as a JSON string literal.
pub fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders a value into the JSON [`Value`] tree.
pub trait Serialize {
    /// The JSON representation of `self`.
    fn to_value(&self) -> Value;

    /// Appends the compact JSON text of `self` to `out`: byte for byte
    /// what printing [`Serialize::to_value`] gives (object keys in
    /// sorted order, non-finite floats as `null`). Override it to skip
    /// the tree; an override that prints anything else is a bug.
    fn write_json(&self, out: &mut String) {
        self.to_value().write_json(out);
    }

    /// Appends the [`bin`] encoding of `self` to `out`: byte for byte
    /// what [`Serialize::to_value`]'s `write_bin` gives. Override it (and
    /// [`Serialize::bin_float`]) to skip the tree; an override that
    /// writes anything else is a bug.
    fn write_bin(&self, out: &mut Vec<u8>) {
        self.to_value().write_bin(out);
    }

    /// `Some(x)` exactly when [`Serialize::to_value`] is the float `x`.
    /// [`bin::write_seq`] asks every element, to choose the raw-`f64`
    /// array tag.
    fn bin_float(&self) -> Option<f64> {
        match self.to_value() {
            Value::Number(Number::Float(f)) => Some(f),
            _ => None,
        }
    }
}

/// Reconstructs a value from the JSON [`Value`] tree.
pub trait Deserialize: Sized {
    /// Parses `self` out of `v`.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }

    fn write_bin(&self, out: &mut Vec<u8>) {
        (**self).write_bin(out);
    }

    fn bin_float(&self) -> Option<f64> {
        (**self).bin_float()
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.write_json(out),
            Value::Number(n) => {
                let _ = write!(out, "{n}");
            }
            Value::String(s) => write_escaped(s, out),
            Value::Array(items) => items.write_json(out),
            Value::Object(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write_json(out);
                }
                out.push('}');
            }
        }
    }

    fn write_bin(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(bin::NULL),
            Value::Bool(b) => b.write_bin(out),
            Value::Number(Number::PosInt(n)) => {
                out.push(bin::POS_INT);
                bin::put_varint(out, *n);
            }
            Value::Number(Number::NegInt(n)) => {
                out.push(bin::NEG_INT);
                bin::put_varint(out, bin::zigzag(*n));
            }
            Value::Number(Number::Float(f)) => {
                out.push(bin::FLOAT);
                out.extend_from_slice(&f.to_le_bytes());
            }
            Value::String(s) => s.write_bin(out),
            Value::Array(items) => bin::write_seq(out, items),
            Value::Object(m) => {
                bin::put_object(out, m.len());
                for (k, v) in m {
                    bin::put_str(out, k);
                    v.write_bin(out);
                }
            }
        }
    }

    fn bin_float(&self) -> Option<f64> {
        match self {
            Value::Number(Number::Float(f)) => Some(*f),
            _ => None,
        }
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }

    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn write_bin(&self, out: &mut Vec<u8>) {
        out.push(if *self { bin::TRUE } else { bin::FALSE });
    }

    fn bin_float(&self) -> Option<f64> {
        None
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_bool().ok_or_else(|| Error::custom("expected boolean"))
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }

    fn write_json(&self, out: &mut String) {
        write_escaped(self, out);
    }

    fn write_bin(&self, out: &mut Vec<u8>) {
        self.as_str().write_bin(out);
    }

    fn bin_float(&self) -> Option<f64> {
        None
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }

    fn write_json(&self, out: &mut String) {
        write_escaped(self, out);
    }

    fn write_bin(&self, out: &mut Vec<u8>) {
        out.push(bin::STRING);
        bin::put_str(out, self);
    }

    fn bin_float(&self) -> Option<f64> {
        None
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::custom("expected string"))
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        if self.is_finite() {
            Value::Number(Number::Float(*self))
        } else {
            // serde_json renders non-finite floats as null.
            Value::Null
        }
    }

    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{}", Number::Float(*self));
        } else {
            out.push_str("null");
        }
    }

    fn write_bin(&self, out: &mut Vec<u8>) {
        if self.is_finite() {
            out.push(bin::FLOAT);
            out.extend_from_slice(&self.to_le_bytes());
        } else {
            out.push(bin::NULL);
        }
    }

    fn bin_float(&self) -> Option<f64> {
        self.is_finite().then_some(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64().ok_or_else(|| Error::custom("expected number"))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        (*self as f64).to_value()
    }

    fn write_json(&self, out: &mut String) {
        (*self as f64).write_json(out);
    }

    fn write_bin(&self, out: &mut Vec<u8>) {
        (*self as f64).write_bin(out);
    }

    fn bin_float(&self) -> Option<f64> {
        (*self as f64).bin_float()
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|x| x as f32)
    }
}

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::PosInt(*self as u64))
            }

            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }

            fn write_bin(&self, out: &mut Vec<u8>) {
                out.push(bin::POS_INT);
                bin::put_varint(out, *self as u64);
            }

            fn bin_float(&self) -> Option<f64> {
                None
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let u = v.as_u64().ok_or_else(|| Error::custom("expected unsigned integer"))?;
                <$t>::try_from(u).map_err(|_| Error::custom("integer out of range"))
            }
        }
    )*};
}
impl_serde_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let i = *self as i64;
                if i >= 0 {
                    Value::Number(Number::PosInt(i as u64))
                } else {
                    Value::Number(Number::NegInt(i))
                }
            }

            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }

            fn write_bin(&self, out: &mut Vec<u8>) {
                bin::put_int(out, *self as i64);
            }

            fn bin_float(&self) -> Option<f64> {
                None
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let i = v.as_i64().ok_or_else(|| Error::custom("expected integer"))?;
                <$t>::try_from(i).map_err(|_| Error::custom("integer out of range"))
            }
        }
    )*};
}
impl_serde_int!(i8, i16, i32, i64, isize);

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }

    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }

    fn write_bin(&self, out: &mut Vec<u8>) {
        bin::write_seq(out, self);
    }

    fn bin_float(&self) -> Option<f64> {
        None
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }

    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }

    fn write_bin(&self, out: &mut Vec<u8>) {
        bin::write_seq(out, self);
    }

    fn bin_float(&self) -> Option<f64> {
        None
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::custom("expected array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

/// An `Arc` encodes as what it points to, so a shared slice and the
/// `Vec` it was built from give the same bytes (real serde's `rc`
/// feature).
impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }

    fn write_bin(&self, out: &mut Vec<u8>) {
        (**self).write_bin(out);
    }

    fn bin_float(&self) -> Option<f64> {
        (**self).bin_float()
    }
}

impl<T: Deserialize> Deserialize for Arc<[T]> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Vec::<T>::from_value(v).map(Arc::from)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Some(x) => x.write_json(out),
            None => out.push_str("null"),
        }
    }

    fn write_bin(&self, out: &mut Vec<u8>) {
        match self {
            Some(x) => x.write_bin(out),
            None => out.push(bin::NULL),
        }
    }

    fn bin_float(&self) -> Option<f64> {
        self.as_ref().and_then(T::bin_float)
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<K: ToString, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_value()))
                .collect(),
        )
    }

    fn write_json(&self, out: &mut String) {
        out.push('{');
        for (i, (k, v)) in printed_entries(self).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(k, out);
            out.push(':');
            v.write_json(out);
        }
        out.push('}');
    }

    fn write_bin(&self, out: &mut Vec<u8>) {
        let entries = printed_entries(self);
        bin::put_object(out, entries.len());
        for (k, v) in entries {
            bin::put_str(out, &k);
            v.write_bin(out);
        }
    }

    fn bin_float(&self) -> Option<f64> {
        None
    }
}

/// The entries of the object a map prints as. The tree is keyed by the
/// *printed* key, so that is the order, and the uniqueness: a later twin
/// replaces an earlier one.
fn printed_entries<K: ToString, V>(map: &BTreeMap<K, V>) -> Vec<(String, &V)> {
    let mut entries: Vec<(String, &V)> = map.iter().map(|(k, v)| (k.to_string(), v)).collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    let mut unique: Vec<(String, &V)> = Vec::with_capacity(entries.len());
    for entry in entries {
        match unique.last_mut() {
            Some(last) if last.0 == entry.0 => *last = entry,
            _ => unique.push(entry),
        }
    }
    unique
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_indexing_and_equality() {
        let mut m = Map::new();
        m.insert("a".into(), Value::String("x".into()));
        m.insert(
            "arr".into(),
            Value::Array(vec![Value::Number(Number::PosInt(1))]),
        );
        let v = Value::Object(m);
        assert_eq!(v["a"], "x");
        assert_eq!(v["arr"][0].as_u64(), Some(1));
        assert!(v["missing"].is_null());
        assert!(v["arr"][9].is_null());
    }

    #[test]
    fn primitive_round_trips() {
        assert_eq!(f64::from_value(&3.25f64.to_value()).unwrap(), 3.25);
        assert_eq!(u64::from_value(&7u64.to_value()).unwrap(), 7);
        assert_eq!(i64::from_value(&(-7i64).to_value()).unwrap(), -7);
        assert_eq!(usize::from_value(&3usize.to_value()).unwrap(), 3);
        assert_eq!(bool::from_value(&true.to_value()).unwrap(), true);
        assert_eq!(String::from_value(&"hi".to_value()).unwrap(), "hi");
        let v: Vec<f64> = vec![1.0, 2.0];
        assert_eq!(Vec::<f64>::from_value(&v.to_value()).unwrap(), v);
        let o: Option<f64> = None;
        assert_eq!(Option::<f64>::from_value(&o.to_value()).unwrap(), None);
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert!(f64::NAN.to_value().is_null());
        assert!(f64::INFINITY.to_value().is_null());
    }

    /// `x`'s tree, binary bytes and JSON text.
    fn encodings<T: Serialize + ?Sized>(x: &T) -> (Value, Vec<u8>, String) {
        let mut bin = Vec::new();
        x.write_bin(&mut bin);
        let mut json = String::new();
        x.write_json(&mut json);
        (x.to_value(), bin, json)
    }

    fn assert_arc_encodes_like_vec<T>(owned: Vec<T>)
    where
        T: Serialize + Deserialize + Clone + PartialEq + fmt::Debug,
    {
        let shared: Arc<[T]> = Arc::from(owned.clone());
        let (value, bin, json) = encodings(&shared);
        assert_eq!(encodings(&owned), (value.clone(), bin.clone(), json));
        assert_eq!(shared.bin_float(), owned.bin_float());
        let back = Arc::<[T]>::from_value(&value).unwrap();
        assert_eq!(&back[..], &owned[..]);
        let mut reader = bin::Reader::new(&bin);
        let read = reader.value().unwrap();
        assert!(reader.done());
        assert_eq!(&Arc::<[T]>::from_value(&read).unwrap()[..], &owned[..]);
    }

    #[test]
    fn an_arc_slice_encodes_like_a_vec_and_round_trips() {
        // Floats take the raw-f64 array tag, anything else the tagged one.
        assert_arc_encodes_like_vec(vec![0.5f64, -0.0, 1e300, -3.25]);
        assert_arc_encodes_like_vec::<f64>(vec![]);
        assert_arc_encodes_like_vec(vec![3i64, -7, 0]);
        assert_arc_encodes_like_vec(vec![Some("a\"q".to_string()), None]);
        assert_arc_encodes_like_vec(vec![vec![1.0f64], vec![]]);
        // A non-finite float prints as null, as it does inside a `Vec`.
        let shared: Arc<[f64]> = Arc::from(vec![1.0, f64::NAN]);
        assert_eq!(encodings(&shared), encodings(&vec![1.0, f64::NAN]));
        // An `Arc` of a single value is that value, float probe included.
        let one = Arc::new(2.5f64);
        assert_eq!(encodings(&one), encodings(&2.5f64));
        assert_eq!(one.bin_float(), Some(2.5));
    }

    #[test]
    fn number_display_keeps_float_marker() {
        assert_eq!(Number::Float(1.0).to_string(), "1.0");
        assert_eq!(Number::Float(0.25).to_string(), "0.25");
        assert_eq!(Number::PosInt(3).to_string(), "3");
        assert_eq!(Number::NegInt(-3).to_string(), "-3");
    }
}
