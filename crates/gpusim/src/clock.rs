//! Simulated time: a nanosecond counter.
//!
//! All experiment timings in madness-rs are *simulated* durations derived
//! from the calibrated cost models — never wall-clock measurements of the
//! host this code happens to run on (DESIGN.md §2).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A simulated duration/instant in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Zero duration.
    pub const ZERO: SimTime = SimTime(0);

    /// From nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// From microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// From milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// From (fractional) seconds; saturates at zero for negatives and at
    /// `u64::MAX` nanoseconds for finite values past it.
    ///
    /// # Panics
    /// Panics on non-finite input, in every build profile: it is a
    /// caller bug — under serving-rate arithmetic (inter-arrival =
    /// 1/rate) a zero rate yields `+∞` and a 0/0 yields `NaN`, and the
    /// bare `f64 as u64` cast would silently turn those into `u64::MAX`
    /// and 0 ns with no signal.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite(),
            "SimTime::from_secs_f64: non-finite seconds ({s})"
        );
        SimTime((s.max(0.0) * 1e9).round().min(u64::MAX as f64) as u64)
    }

    /// Nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// As fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// As fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Element-wise maximum.
    pub fn max(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.max(rhs.0))
    }

    /// Element-wise minimum.
    pub fn min(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.min(rhs.0))
    }

    /// Multiplies by `factor`, returning `self` unchanged when
    /// `factor == 1.0`. `Mul<f64>` round-trips through fractional
    /// seconds and is not bit-exact even for the identity, which would
    /// break the "no faults ⇒ bit-identical timings" invariant when a
    /// straggler multiplier of 1.0 is applied.
    ///
    /// # Panics
    /// Panics on a `NaN` or negative factor, in every build profile: it
    /// is a caller bug (a poisoned slowdown estimate).
    pub fn scale(self, factor: f64) -> SimTime {
        assert!(
            !factor.is_nan() && factor >= 0.0,
            "SimTime::scale: factor must be non-negative ({factor})"
        );
        if factor == 1.0 {
            self
        } else {
            self * factor
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: f64) -> SimTime {
        SimTime::from_secs_f64(self.as_secs_f64() * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        SimTime(iter.map(|t| t.0).sum())
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}µs", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimTime::from_millis(2).as_nanos(), 2_000_000);
        assert!((SimTime::from_secs_f64(1.5).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_micros(10);
        let b = SimTime::from_micros(4);
        assert_eq!((a + b).as_nanos(), 14_000);
        assert_eq!((a - b).as_nanos(), 6_000);
        assert_eq!((a * 3).as_nanos(), 30_000);
        assert_eq!((a / 2).as_nanos(), 5_000);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn scale_identity_is_bit_exact() {
        // 1 ns round-trips through f64 seconds as 1.0000000000000002e-9;
        // scale(1.0) must not take that path.
        let awkward = SimTime::from_nanos(123_456_789_123_456_789);
        assert_eq!(awkward.scale(1.0), awkward);
        assert_eq!(SimTime::from_nanos(1_000).scale(2.0).as_nanos(), 2_000);
    }

    #[test]
    fn sum_over_iterator() {
        let total: SimTime = (0..5).map(|_| SimTime::from_nanos(10)).sum();
        assert_eq!(total.as_nanos(), 50);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(SimTime::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimTime::from_micros(5).to_string(), "5.000µs");
        assert_eq!(SimTime::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimTime::from_secs_f64(5.0).to_string(), "5.000s");
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::from_nanos(1) - SimTime::from_nanos(2);
    }

    #[test]
    fn negative_seconds_saturate_at_zero() {
        assert_eq!(SimTime::from_secs_f64(-3.5), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(-0.0), SimTime::ZERO);
    }

    #[test]
    fn huge_finite_seconds_saturate_at_max() {
        assert_eq!(SimTime::from_secs_f64(1e30).as_nanos(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "non-finite seconds")]
    fn nan_seconds_panic() {
        let _ = SimTime::from_secs_f64(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "non-finite seconds")]
    fn infinite_seconds_panic() {
        let _ = SimTime::from_secs_f64(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "factor must be non-negative")]
    fn nan_scale_panics() {
        let _ = SimTime::from_nanos(10).scale(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "factor must be non-negative")]
    fn negative_scale_panics() {
        let _ = SimTime::from_nanos(10).scale(-2.0);
    }
}
