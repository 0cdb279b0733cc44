//! [`SimTime`]: the one type every simulated clock runs on.

use crate::EngineError;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Sub};

/// An instant or a span on a simulated clock, in seconds: finite and
/// non-negative by construction. [`SimTime::new`] is the one way in from a
/// float and stores `-0.0` as `+0.0`, so instants equal as numbers are equal
/// as bits and the order is total. Arithmetic is the bare `f64` arithmetic
/// (a sum of sim times; a gap as a signed float), so a clock kept in
/// `SimTime` reads bit for bit like one kept in `f64`, and `Debug` prints
/// the bare float. A serving session adds its roofline step times, computed
/// from its deployment, config and straggler factor, through the
/// crate's `SimTime::after`, which checks them: a step that would take the
/// clock, or the step's split over its work, past the largest finite float
/// ends the session's run with [`EngineError::ClockOverflow`].
///
/// ```
/// use llmqo_serve::SimTime;
///
/// let t = SimTime::new(1.5).unwrap();
/// assert_eq!((t + t).secs(), 3.0);
/// assert_eq!(SimTime::new(-0.0), Some(SimTime::ZERO));
/// assert!([f64::NAN, f64::INFINITY, -1.0].map(SimTime::new) == [None; 3]);
/// ```
#[derive(Clone, Copy, Default, PartialEq)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0.0);

    /// `secs` as a sim time; `None` when it is NaN, infinite or negative.
    pub fn new(secs: f64) -> Option<SimTime> {
        // `+ 0.0` turns `-0.0` into `+0.0` and leaves every other value be.
        (0.0..f64::INFINITY)
            .contains(&secs)
            .then_some(SimTime(secs + 0.0))
    }

    /// The time in seconds.
    pub fn secs(self) -> f64 {
        self.0
    }

    /// `self` plus a session's step of `secs`, which it splits into phases
    /// scaled by the step's `work` (1 when unsplit; see the type's docs).
    pub(crate) fn after(self, secs: f64, work: f64) -> Result<SimTime, EngineError> {
        match SimTime::new(self.0 + secs) {
            Some(t) if (secs * work).is_finite() => Ok(t),
            _ => Err(EngineError::ClockOverflow {
                clock_s: self.0,
                step_s: secs,
            }),
        }
    }
}

impl Eq for SimTime {}

/// `max` and `min` are the branch-free float ones: equal sim times are equal bits.
impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
    fn max(self, other: Self) -> Self {
        SimTime(self.0.max(other.0))
    }
    fn min(self, other: Self) -> Self {
        SimTime(self.0.min(other.0))
    }
}

/// The bare float comparisons, which agree with [`Ord`] on every `SimTime`.
impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
    fn lt(&self, other: &Self) -> bool {
        self.0 < other.0
    }
    fn le(&self, other: &Self) -> bool {
        self.0 <= other.0
    }
    fn gt(&self, other: &Self) -> bool {
        self.0 > other.0
    }
    fn ge(&self, other: &Self) -> bool {
        self.0 >= other.0
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

/// The signed gap `self − rhs`, in seconds.
impl Sub for SimTime {
    type Output = f64;
    fn sub(self, rhs: SimTime) -> f64 {
        self.0 - rhs.0
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negative_zero_is_stored_as_positive_zero() {
        let t = SimTime::new(-0.0).unwrap();
        assert_eq!(t.secs().to_bits(), 0.0f64.to_bits());
        assert_eq!(t.cmp(&SimTime::ZERO), Ordering::Equal);
    }

    #[test]
    fn rejects_what_is_not_a_finite_non_negative_float() {
        for bad in [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1e-300,
            -1.0,
        ] {
            assert_eq!(SimTime::new(bad), None, "{bad}");
        }
        for good in [0.0, 5e-324, 1.0, f64::MAX] {
            assert_eq!(SimTime::new(good).map(SimTime::secs), Some(good));
        }
    }

    #[test]
    fn operators_agree_with_ord_and_debug_prints_the_float() {
        let (a, b) = (SimTime::new(0.25).unwrap(), SimTime::new(2.0).unwrap());
        let ops = [a < b, a <= b, b > a, b >= a, a <= a, a >= a];
        assert_eq!(ops, [true; 6]);
        assert_eq!([b < a, b <= a, a > b, a >= b], [false; 4]);
        assert_eq!(a.cmp(&b), Ordering::Less);
        assert_eq!((a.max(b), a.min(b), b.max(a), b.min(a)), (b, a, b, a));
        assert_eq!(b - a, 1.75);
        assert_eq!(a - b, -1.75);
        assert_eq!(format!("{:?}", a + b), format!("{:?}", 2.25f64));
        assert_eq!(format!("{:?}", SimTime::ZERO), "0.0");
    }
}
