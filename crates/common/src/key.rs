//! Order-preserving key encoding.
//!
//! Primary keys and secondary-index keys are encoded into byte strings whose
//! lexicographic order equals the SQL order of the underlying values. This is
//! the classic "memcomparable" encoding used by MySQL/InnoDB-compatible
//! distributed stores; hash partitioning (§II-B) hashes these bytes.

use std::fmt;

use crate::value::Value;

/// An encoded, order-preserving key.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Key(pub Vec<u8>);

const TAG_NULL: u8 = 0x01;
const TAG_INT: u8 = 0x02;
const TAG_DOUBLE: u8 = 0x03;
const TAG_STR: u8 = 0x04;
const TAG_BYTES: u8 = 0x05;
const TAG_DATE: u8 = 0x06;

impl Key {
    /// Encode a composite key from `values`, preserving order.
    pub fn encode(values: &[Value]) -> Key {
        let mut out = Vec::with_capacity(values.len() * 9);
        for v in values {
            encode_value(v, &mut out);
        }
        Key(out)
    }

    /// Decode the key back into its component values.
    ///
    /// Round-trips everything `encode` produces; used by index scans that
    /// need the original column values without a base-table lookup.
    pub fn decode(&self) -> Vec<Value> {
        let mut vals = Vec::new();
        let mut i = 0;
        let b = &self.0;
        while i < b.len() {
            let tag = b[i];
            i += 1;
            match tag {
                TAG_NULL => vals.push(Value::Null),
                TAG_INT => {
                    let mut buf = [0u8; 8];
                    buf.copy_from_slice(&b[i..i + 8]);
                    i += 8;
                    let flipped = u64::from_be_bytes(buf) ^ (1 << 63);
                    vals.push(Value::Int(flipped as i64));
                }
                TAG_DOUBLE => {
                    let mut buf = [0u8; 8];
                    buf.copy_from_slice(&b[i..i + 8]);
                    i += 8;
                    let enc = u64::from_be_bytes(buf);
                    let bits = if enc & (1 << 63) != 0 { enc ^ (1 << 63) } else { !enc };
                    vals.push(Value::Double(f64::from_bits(bits)));
                }
                TAG_STR | TAG_BYTES => {
                    let mut payload = Vec::new();
                    // Escaped encoding: 0x00 0xFF means a literal 0x00;
                    // 0x00 0x00 terminates the string.
                    loop {
                        let c = b[i];
                        i += 1;
                        if c == 0x00 {
                            let esc = b[i];
                            i += 1;
                            if esc == 0x00 {
                                break;
                            }
                            payload.push(0x00);
                        } else {
                            payload.push(c);
                        }
                    }
                    if tag == TAG_STR {
                        vals.push(Value::Str(String::from_utf8_lossy(&payload).into_owned()));
                    } else {
                        vals.push(Value::Bytes(payload));
                    }
                }
                TAG_DATE => {
                    let mut buf = [0u8; 4];
                    buf.copy_from_slice(&b[i..i + 4]);
                    i += 4;
                    let flipped = u32::from_be_bytes(buf) ^ (1 << 31);
                    vals.push(Value::Date(flipped as i32));
                }
                other => panic!("corrupt key encoding: tag {other:#x}"),
            }
        }
        vals
    }

    /// Raw encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Byte length of the encoded key.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no values were encoded.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// 64-bit hash of the encoded bytes (FNV-1a), used by hash partitioning.
    pub fn hash64(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for &b in &self.0 {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }
}

fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Int(i) => {
            out.push(TAG_INT);
            // Flip the sign bit so negative < positive lexicographically.
            let flipped = (*i as u64) ^ (1 << 63);
            out.extend_from_slice(&flipped.to_be_bytes());
        }
        Value::Double(d) => {
            out.push(TAG_DOUBLE);
            // IEEE-754 order-preserving transform.
            let bits = d.to_bits();
            let enc = if bits & (1 << 63) == 0 { bits | (1 << 63) } else { !bits };
            out.extend_from_slice(&enc.to_be_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            encode_escaped(s.as_bytes(), out);
        }
        Value::Bytes(b) => {
            out.push(TAG_BYTES);
            encode_escaped(b, out);
        }
        Value::Date(d) => {
            out.push(TAG_DATE);
            let flipped = (*d as u32) ^ (1 << 31);
            out.extend_from_slice(&flipped.to_be_bytes());
        }
    }
}

/// NUL-escaped terminated byte string: 0x00 bytes are escaped to 0x00 0xFF
/// and the string ends with 0x00 0x00, so shorter prefixes order first.
fn encode_escaped(bytes: &[u8], out: &mut Vec<u8>) {
    for &b in bytes {
        if b == 0x00 {
            out.push(0x00);
            out.push(0xFF);
        } else {
            out.push(b);
        }
    }
    out.push(0x00);
    out.push(0x00);
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "key[")?;
        for (i, v) in self.decode().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(vs: &[Value]) -> Key {
        Key::encode(vs)
    }

    #[test]
    fn int_order_preserved() {
        let vals = [-5i64, -1, 0, 1, 100, i64::MIN, i64::MAX];
        let mut keys: Vec<(i64, Key)> =
            vals.iter().map(|&v| (v, k(&[Value::Int(v)]))).collect();
        keys.sort_by(|a, b| a.1.cmp(&b.1));
        let sorted: Vec<i64> = keys.iter().map(|(v, _)| *v).collect();
        let mut expect = vals.to_vec();
        expect.sort();
        assert_eq!(sorted, expect);
    }

    #[test]
    fn double_order_preserved() {
        let vals = [-1.5f64, -0.0, 0.0, 0.25, 3.5, f64::MIN, f64::MAX];
        let mut keys: Vec<(f64, Key)> =
            vals.iter().map(|&v| (v, k(&[Value::Double(v)]))).collect();
        keys.sort_by(|a, b| a.1.cmp(&b.1));
        for w in keys.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn string_prefix_orders_first() {
        assert!(k(&[Value::str("ab")]) < k(&[Value::str("abc")]));
        assert!(k(&[Value::str("ab")]) < k(&[Value::str("b")]));
    }

    #[test]
    fn embedded_nul_bytes_roundtrip() {
        let v = Value::Bytes(vec![0x00, 0x01, 0x00, 0x00, 0xFF]);
        let key = k(std::slice::from_ref(&v));
        assert_eq!(key.decode(), vec![v]);
    }

    #[test]
    fn composite_key_component_order_dominates() {
        let a = k(&[Value::Int(1), Value::str("zzz")]);
        let b = k(&[Value::Int(2), Value::str("aaa")]);
        assert!(a < b);
    }

    #[test]
    fn decode_roundtrip_mixed() {
        let vals = vec![
            Value::Null,
            Value::Int(-42),
            Value::Double(2.5),
            Value::str("hello"),
            Value::Bytes(vec![1, 2, 3]),
            Value::Date(19000),
        ];
        assert_eq!(Key::encode(&vals).decode(), vals);
    }

    #[test]
    fn hash_is_stable() {
        let a = k(&[Value::Int(123)]);
        let b = k(&[Value::Int(123)]);
        assert_eq!(a.hash64(), b.hash64());
        assert_ne!(a.hash64(), k(&[Value::Int(124)]).hash64());
    }
}
