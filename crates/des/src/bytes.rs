//! The [`Bytes`] newtype for data volumes crossing crate boundaries.
//!
//! [`crate::time`] keeps simulated instants and spans in integer-nanosecond
//! newtypes; this module does the same for data volumes. Byte counts stay
//! `f64` internally (bandwidth math divides and scales them constantly), but
//! a bare `bytes: f64` parameter on a public function is indistinguishable
//! from a rate, a fraction, or a duration-in-seconds at the callsite;
//! [`Bytes`] is the carrier that says which it is.
//!
//! The newtype is deliberately thin: construct with `Bytes(x)`, unwrap with
//! [`Bytes::get`] at the point arithmetic starts. It exists to type function
//! boundaries, not to re-derive a dimensional-analysis library.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A data volume in bytes (fractional bytes arise from compression ratios
/// and efficiency factors; devices round where physically meaningful).
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Bytes(pub f64);

impl Bytes {
    pub const ZERO: Bytes = Bytes(0.0);

    /// The raw count — the greppable escape hatch, mirroring
    /// [`crate::time::SimTime::as_nanos`].
    pub fn get(self) -> f64 {
        self.0
    }

    pub fn from_gb(gb: f64) -> Self {
        Bytes(gb * 1e9)
    }

    pub fn is_positive(self) -> bool {
        self.0 > 0.0
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}

/// Scaling by a dimensionless factor (compression ratio, cached fraction).
impl Mul<f64> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: f64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}B", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_arithmetic() {
        let a = Bytes(1024.0);
        let b = Bytes::from_gb(1.0);
        assert_eq!(b.get(), 1e9);
        assert_eq!((a + a).get(), 2048.0);
        assert_eq!((b - a).get(), 1e9 - 1024.0);
        let mut c = Bytes::ZERO;
        c += a;
        assert_eq!(c, a);
        assert!(a.is_positive());
        assert!(!Bytes::ZERO.is_positive());
    }
}
