//! Dynamic record model.
//!
//! The engine executes *real* user-defined functions over real records at
//! laptop scale while the surrounding cluster is simulated. To keep UDFs
//! serializable across the simulated task boundary without generic
//! type-plumbing, records are dynamically typed: a [`Record`] is a
//! `(key, value)` pair of [`Value`]s. Typed convenience constructors and
//! accessors keep application code readable.

// R4 (DESIGN.md 4.10): a bare panic here turns an injected fault or a
// bookkeeping slip into a crashed process; each one left carries an
// `#[expect(…, reason)]` saying why its invariant holds.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]

use std::fmt;
use std::sync::Arc;

/// A dynamically typed datum: a tag and at most eight bytes of payload.
/// Every variable-size variant sits behind one *thin* `Arc`, so a `Value` is
/// 16 bytes on the host and a clone is at most a count bump (DESIGN.md §4.7).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    I64(i64),
    F64(f64),
    /// `Arc<str>` would be a fat pointer and make every variant 24 bytes.
    Str(Arc<Box<str>>),
    /// Dense numeric vector (Logistic Regression feature vectors).
    VecF64(Arc<Vec<f64>>),
    /// Heterogeneous list (groupByKey output groups).
    List(Arc<Vec<Value>>),
}

/// A key/value record flowing through the engine.
pub type Record = (Value, Value);

// Every pass over records is bound by memory traffic: host bytes per record
// are the engine's resident-set and shuffle cost (CHANGES.md, PR 20).
// Rows outside the shuffle are 32 bytes; inside it each bucket is two
// columns (`executor::Segment`) that hold an `I64` unboxed, in 4 bytes while
// it fits in 32 bits and in 8 beyond, so a record of small `I64`s is
// deposited in 8.
const _: () = assert!(std::mem::size_of::<Value>() == 16 && std::mem::size_of::<Record>() == 32);

/// The typed accessors user functions read records with. Each panics on
/// another variant, as a failed downcast does: the mismatch is a bug in the
/// user function, which no engine state can repair.
#[expect(
    clippy::panic,
    reason = "UDF accessors: a variant the user function did not expect is that function's bug, reported as a failed downcast is"
)]
impl Value {
    pub fn as_i64(&self) -> i64 {
        match self {
            Value::I64(x) => *x,
            Value::Bool(b) => *b as i64,
            other => panic!("expected I64, got {other:?}"),
        }
    }

    pub fn as_f64(&self) -> f64 {
        match self {
            Value::F64(x) => *x,
            Value::I64(x) => *x as f64,
            other => panic!("expected F64, got {other:?}"),
        }
    }

    pub fn as_str(&self) -> &str {
        match self {
            Value::Str(s) => s,
            other => panic!("expected Str, got {other:?}"),
        }
    }

    pub fn as_vec(&self) -> &[f64] {
        match self {
            Value::VecF64(v) => v,
            other => panic!("expected VecF64, got {other:?}"),
        }
    }

    pub fn as_list(&self) -> &[Value] {
        match self {
            Value::List(v) => v,
            other => panic!("expected List, got {other:?}"),
        }
    }
}

impl Value {
    /// At most one copy of the bytes per string (`&str` to `String`, or a
    /// `String` trimmed of spare capacity): the boxed string is moved under
    /// the count, not copied again into a counted block.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(Arc::new(s.into().into_boxed_str()))
    }

    pub fn vec(v: Vec<f64>) -> Value {
        Value::VecF64(Arc::new(v))
    }

    pub fn list(v: Vec<Value>) -> Value {
        Value::List(Arc::new(v))
    }

    /// *Simulated* size: what the model charges I/O, memory and network for
    /// when this value is a real record. A model constant pinned by
    /// `benchmark/expected.json`, not the host footprint (an `I64` is 8 here
    /// and 16 on the host) — it must never follow the host layout.
    #[inline]
    pub fn approx_bytes(&self) -> u64 {
        match self {
            Value::I64(_) | Value::F64(_) => 8,
            other => other.approx_bytes_rest(),
        }
    }

    /// [`Value::approx_bytes`] of the variants the inlined fast arm leaves.
    fn approx_bytes_rest(&self) -> u64 {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::I64(_) => 8,
            Value::F64(_) => 8,
            Value::Str(s) => 16 + s.len() as u64,
            Value::VecF64(v) => 16 + 8 * v.len() as u64,
            Value::List(v) => 16 + v.iter().map(Value::approx_bytes).sum::<u64>(),
        }
    }

    /// Stable content hash (FNV-1a's fold over a canonical encoding) — used
    /// for shuffle partitioning so runs are deterministic across platforms.
    pub fn stable_hash(&self) -> u64 {
        let mut h = Fnv::<STABLE_HASH_PRIME>::new();
        self.hash_into(&mut h);
        h.0
    }

    /// Key equality over the encoding [`Value::stable_hash`] hashes: floats
    /// compare by bit pattern, so a NaN key equals itself and `-0.0` differs
    /// from `0.0` — exactly the keys whose hashes can differ. Shuffle
    /// grouping confirms a hash match with this.
    pub(crate) fn same_key(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::F64(a), Value::F64(b)) => a.to_bits() == b.to_bits(),
            (Value::VecF64(a), Value::VecF64(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b.iter())
                        .all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (Value::List(a), Value::List(b)) => {
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.same_key(y))
            }
            _ => self == other,
        }
    }

    fn hash_into(&self, h: &mut Fnv<STABLE_HASH_PRIME>) {
        match self {
            Value::Null => h.write(&[0]),
            Value::Bool(b) => h.write(&[1, *b as u8]),
            Value::I64(x) => {
                h.write(&[2]);
                h.write(&x.to_le_bytes());
            }
            Value::F64(x) => {
                h.write(&[3]);
                h.write(&x.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                h.write(&[4]);
                h.write(s.as_bytes());
            }
            Value::VecF64(v) => {
                h.write(&[5]);
                for x in v.iter() {
                    h.write(&x.to_bits().to_le_bytes());
                }
            }
            Value::List(v) => {
                h.write(&[6]);
                for x in v.iter() {
                    x.hash_into(h);
                }
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::I64(x) => write!(f, "{x}"),
            Value::F64(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::VecF64(v) => write!(f, "vec[{}]", v.len()),
            Value::List(v) => write!(f, "list[{}]", v.len()),
        }
    }
}

/// 64-bit FNV-1a of `bytes`: the digest tests pin exported bytes by.
pub fn fnv1a(bytes: impl AsRef<[u8]>) -> u64 {
    let mut h = Fnv::<0x0000_0100_0000_01b3>::new();
    h.write(bytes.as_ref());
    h.0
}

/// [`Value::stable_hash`]'s multiplier: the 64-bit FNV prime with one zero
/// digit too many, kept because partitioning follows its known answers.
const STABLE_HASH_PRIME: u64 = 0x1000_0000_01b3;

/// The FNV-1a fold with multiplier `P`, fed in pieces.
struct Fnv<const P: u64>(u64);

impl<const P: u64> Fnv<P> {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(P);
        }
    }
}

/// Simulated size of a record ([`Value::approx_bytes`] of key plus value).
#[inline]
pub fn record_bytes(r: &Record) -> u64 {
    r.0.approx_bytes() + r.1.approx_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_round_trip() {
        assert_eq!(Value::I64(7).as_i64(), 7);
        assert_eq!(Value::F64(2.5).as_f64(), 2.5);
        assert_eq!(Value::I64(3).as_f64(), 3.0);
        assert_eq!(Value::str("hi").as_str(), "hi");
        assert_eq!(Value::vec(vec![1.0, 2.0]).as_vec(), &[1.0, 2.0]);
        assert_eq!(Value::list(vec![Value::Null]).as_list().len(), 1);
    }

    #[test]
    #[should_panic(expected = "expected I64")]
    fn wrong_accessor_panics() {
        Value::str("x").as_i64();
    }

    #[test]
    fn bytes_estimates_scale() {
        assert_eq!(Value::I64(0).approx_bytes(), 8);
        assert_eq!(Value::str("abcd").approx_bytes(), 20);
        assert_eq!(Value::vec(vec![0.0; 10]).approx_bytes(), 96);
        let r: Record = (Value::str("k"), Value::I64(1));
        assert_eq!(record_bytes(&r), 17 + 8);
    }

    #[test]
    fn stable_hash_is_stable_and_discriminates() {
        let a = Value::str("hello").stable_hash();
        let b = Value::str("hello").stable_hash();
        let c = Value::str("hellp").stable_hash();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(Value::I64(1).stable_hash(), Value::F64(1.0).stable_hash());
    }

    #[test]
    fn stable_hash_known_answers_for_every_variant() {
        // Captured at d4ee471, when `Str` held an `Arc<str>`: partitioning
        // and group order follow these, so no representation may move them.
        let nested = Value::list(vec![
            Value::str("k"),
            Value::list(vec![Value::str("a"), Value::list(vec![Value::F64(0.25)])]),
        ]);
        let known = [
            (Value::Null, 0xaf72_e84c_8601_b7df, 1),
            (Value::Bool(true), 0x3b88_5a07_b4e8_8e77, 1),
            (Value::I64(-7), 0xab1f_a900_a4e4_6c1b, 8),
            (Value::F64(2.5), 0x7eda_a197_b937_1936, 8),
            (Value::str("shuffle"), 0xdf99_6d26_92b2_ec44, 23),
            (Value::vec(vec![1.0, -0.5]), 0xe16c_31be_29df_ca90, 32),
            (
                Value::list(vec![Value::I64(1), Value::Null]),
                0x496d_9995_3349_d700,
                25,
            ),
            (nested, 0x40d9_d3c8_2e2a_778f, 90),
        ];
        for (v, hash, bytes) in known {
            assert_eq!(v.stable_hash(), hash, "{v:?}");
            assert_eq!(v.approx_bytes(), bytes, "{v:?}");
        }
    }

    #[test]
    fn equal_strings_from_separate_allocations_are_one_key() {
        let (a, b) = (Value::str("lustre"), Value::str(String::from("lustre")));
        assert!(a == b && a.same_key(&b));
        assert_eq!(a.stable_hash(), b.stable_hash());
        assert!(a != Value::str("lustrf") && !a.same_key(&Value::str("lustrf")));
        assert_eq!(format!("{a:?} {a}"), "Str(\"lustre\") \"lustre\"");
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::I64(3).to_string(), "3");
        assert_eq!(Value::str("x").to_string(), "\"x\"");
        assert_eq!(Value::vec(vec![1.0]).to_string(), "vec[1]");
    }
}
