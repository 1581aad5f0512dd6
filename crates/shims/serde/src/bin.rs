//! The compact binary grammar of a [`Value`]: the one definition of its
//! tags, varints and strings, the writer's helpers and the reader.
//!
//! ```text
//! value := 0x00                          null
//!        | 0x01 | 0x02                   false | true
//!        | 0x03 varint                   non-negative integer
//!        | 0x04 varint(zigzag)           negative integer
//!        | 0x05 f64-le                   float
//!        | 0x06 string                   string
//!        | 0x07 varint(n) value×n        array (generic)
//!        | 0x08 varint(n) f64-le×n       array whose elements are all floats
//!        | 0x09 varint(n) (string value)×n  object, keys in sorted order
//! varint := LEB128 u64
//! string := varint(byte length) UTF-8 bytes
//! ```
//!
//! [`Serialize::write_bin`] writes this grammar; for every type it gives
//! byte for byte what `to_value().write_bin()` gives. A non-empty
//! sequence whose elements all probe as floats ([`Serialize::bin_float`])
//! takes tag `0x08`; anything else, the empty sequence included, takes
//! `0x07`. [`Reader`] reads the grammar back into a [`Value`], so the two
//! array tags decode to the same tree.

use crate::{Error, Map, Number, Serialize, Value};

/// `null`.
pub const NULL: u8 = 0x00;
/// `false`.
pub const FALSE: u8 = 0x01;
/// `true`.
pub const TRUE: u8 = 0x02;
/// A non-negative integer: varint.
pub const POS_INT: u8 = 0x03;
/// A negative integer: zigzag varint.
pub const NEG_INT: u8 = 0x04;
/// A float: 8 bytes little-endian, the bit pattern verbatim.
pub const FLOAT: u8 = 0x05;
/// A string: length-prefixed UTF-8.
pub const STRING: u8 = 0x06;
/// An array of tagged values.
pub const ARRAY: u8 = 0x07;
/// A non-empty array of floats, untagged little-endian words.
pub const F64_ARRAY: u8 = 0x08;
/// An object: entry count, then key and value per entry.
pub const OBJECT: u8 = 0x09;

/// Nesting depth limit for [`Reader::value`], so a hostile peer cannot
/// overflow the stack with a deeply nested array/object tree.
const MAX_DEPTH: usize = 128;

// The writer helpers below run once per key and per scalar, from derived
// impls in other crates too; `#[inline]` keeps a streamed payload as fast
// as the recursive tree writer it replaced.

/// Appends `v` as an LEB128 varint.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends `s` as a varint byte length and its UTF-8 bytes (an object
/// key, or the body of a string value).
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

#[inline]
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Appends an integer value: `POS_INT` for `v ≥ 0`, `NEG_INT` otherwise.
#[inline]
pub(crate) fn put_int(out: &mut Vec<u8>, v: i64) {
    if v >= 0 {
        out.push(POS_INT);
        put_varint(out, v as u64);
    } else {
        out.push(NEG_INT);
        put_varint(out, zigzag(v));
    }
}

/// Appends an object header for `n` entries; the caller writes each
/// entry as [`put_str`] (the key, in sorted order) then the value.
#[inline]
pub fn put_object(out: &mut Vec<u8>, n: usize) {
    out.push(OBJECT);
    put_varint(out, n as u64);
}

/// Appends `items` as an array: `F64_ARRAY` when it is non-empty and
/// every element probes as a float, `ARRAY` otherwise.
pub fn write_seq<T: Serialize>(out: &mut Vec<u8>, items: &[T]) {
    if !items.is_empty() {
        let start = out.len();
        out.push(F64_ARRAY);
        put_varint(out, items.len() as u64);
        let mut floats = true;
        for item in items {
            match item.bin_float() {
                Some(f) => out.extend_from_slice(&f.to_le_bytes()),
                None => {
                    floats = false;
                    break;
                }
            }
        }
        if floats {
            return;
        }
        out.truncate(start);
    }
    out.push(ARRAY);
    put_varint(out, items.len() as u64);
    for item in items {
        item.write_bin(out);
    }
}

fn short() -> Error {
    Error::custom("binary value ends mid-field")
}

/// Cursor over a complete binary buffer. Every read is bounds-checked:
/// running off the end, a malformed varint, a length longer than what
/// remains, bad UTF-8 or an unknown tag is an [`Error`], never a panic.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// `true` once every byte has been read.
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, Error> {
        let b = *self.buf.get(self.pos).ok_or_else(short)?;
        self.pos += 1;
        Ok(b)
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], Error> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(short)?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// An LEB128 varint of at most 10 bytes that fits a `u64`.
    pub fn varint(&mut self) -> Result<u64, Error> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                if shift == 63 && byte > 1 {
                    return Err(Error::custom("varint overflows u64"));
                }
                return Ok(v);
            }
        }
        Err(Error::custom("varint longer than 10 bytes"))
    }

    /// A length or count: a varint no larger than the bytes remaining,
    /// so a corrupt one cannot make the caller pre-allocate.
    fn len(&mut self) -> Result<usize, Error> {
        let v = self.varint()?;
        if v > (self.buf.len() - self.pos) as u64 {
            return Err(Error::custom("binary length field exceeds payload"));
        }
        Ok(v as usize)
    }

    fn f64(&mut self) -> Result<f64, Error> {
        let mut word = [0u8; 8];
        word.copy_from_slice(self.bytes(8)?);
        Ok(f64::from_le_bytes(word))
    }

    /// A length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, Error> {
        let n = self.len()?;
        std::str::from_utf8(self.bytes(n)?)
            .map(str::to_string)
            .map_err(|_| Error::custom("binary string is not UTF-8"))
    }

    /// One tagged value, nested at most 128 levels.
    pub fn value(&mut self) -> Result<Value, Error> {
        self.value_at(0)
    }

    fn value_at(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(Error::custom("binary value nests too deeply"));
        }
        Ok(match self.u8()? {
            NULL => Value::Null,
            FALSE => Value::Bool(false),
            TRUE => Value::Bool(true),
            POS_INT => Value::Number(Number::PosInt(self.varint()?)),
            NEG_INT => {
                let z = self.varint()?;
                Value::Number(Number::NegInt(((z >> 1) as i64) ^ -((z & 1) as i64)))
            }
            FLOAT => Value::Number(Number::Float(self.f64()?)),
            STRING => Value::String(self.string()?),
            ARRAY => {
                let n = self.len()?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.value_at(depth + 1)?);
                }
                Value::Array(items)
            }
            F64_ARRAY => {
                let n = self.len()?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(Value::Number(Number::Float(self.f64()?)));
                }
                Value::Array(items)
            }
            OBJECT => {
                let n = self.len()?;
                let mut map = Map::new();
                for _ in 0..n {
                    let k = self.string()?;
                    map.insert(k, self.value_at(depth + 1)?);
                }
                Value::Object(map)
            }
            tag => {
                return Err(Error::custom(format!(
                    "unknown binary value tag {tag:#04x}"
                )))
            }
        })
    }
}
