//! Simulated time.
//!
//! All simulation clocks in `memres` are nanosecond-resolution integers so
//! that event ordering is exact and runs are bit-for-bit reproducible. Floats
//! appear only at the edges (rates, durations derived from bandwidth math)
//! and are rounded once, on conversion into [`SimDuration`].
//!
//! Both newtypes keep their nanosecond count private to this crate
//! (DESIGN.md §4.10 R6): elsewhere the integer enters through `from_nanos`
//! and leaves through `as_nanos`, and rustc refuses any `.0`.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An absolute instant on the simulation clock (nanoseconds since start).
///
/// Outside this crate the raw count is out of reach:
///
/// ```compile_fail,E0616
/// let t = memres_des::SimTime::from_nanos(1_500);
/// let ns: u64 = t.0;
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub(crate) u64);

/// A span of simulated time (nanoseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub(crate) u64);

pub const NANOS_PER_SEC: u64 = 1_000_000_000;

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);
    /// Largest representable instant; used as an "infinitely far" sentinel.
    pub const FAR_FUTURE: SimTime = SimTime(u64::MAX);

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(secs_to_nanos(secs))
    }

    /// Duration since an earlier instant (saturating: never panics on clock
    /// skew introduced by float rounding).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The raw nanosecond count: every place the integer leaves the newtype
    /// is greppable by name.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Wrap a raw nanosecond count (inverse of [`SimTime::as_nanos`]).
    pub fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(secs_to_nanos(secs))
    }

    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    pub fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    pub fn from_secs(s: u64) -> Self {
        SimDuration(s * NANOS_PER_SEC)
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    pub fn mul_f64(self, k: f64) -> Self {
        assert!(k >= 0.0);
        SimDuration((self.0 as f64 * k).round() as u64)
    }

    /// The raw nanosecond count (see [`SimTime::as_nanos`]).
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Wrap a raw nanosecond count (inverse of [`SimDuration::as_nanos`]).
    pub fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }
}

fn secs_to_nanos(secs: f64) -> u64 {
    assert!(
        secs >= 0.0 && secs.is_finite(),
        "durations must be finite and non-negative (got {secs})"
    );
    let ns = secs * NANOS_PER_SEC as f64;
    if ns >= u64::MAX as f64 {
        u64::MAX
    } else {
        ns.round() as u64
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.0, 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs_f64(2.0) + SimDuration::from_millis(500);
        assert!((t.as_secs_f64() - 2.5).abs() < 1e-9);
        assert_eq!(
            t.since(SimTime::from_secs_f64(2.0)),
            SimDuration::from_millis(500)
        );
        // saturating on reversed order
        assert_eq!(SimTime::ZERO.since(t), SimDuration::ZERO);
    }

    #[test]
    fn ordering() {
        assert!(SimTime(1) < SimTime(2));
        assert!(SimTime::FAR_FUTURE > SimTime::from_secs_f64(1e9));
    }
}
