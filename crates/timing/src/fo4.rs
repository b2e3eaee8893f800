//! Technology-independent delay units.

#![expect(
    clippy::disallowed_types,
    reason = "the newtype boundary: `Fo4` and `Nanoseconds` wrap and unwrap the raw `f64`, and whole cycle counts are the simulator's native `u64`"
)]

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A delay expressed in fan-out-of-four (FO4) inverter delays.
///
/// One FO4 is the delay of an inverter driving four copies of itself
/// [Horo92]. The paper anchors absolute time with a 200 MHz processor whose
/// cycle is 25 FO4, i.e. one FO4 is 0.2 ns in the modeled 0.5 um process
/// (see [`crate::Technology`]).
///
/// # Example
///
/// ```
/// use hbc_timing::Fo4;
///
/// let cycle = Fo4::new(25.0);
/// let latch = Fo4::new(1.5);
/// assert_eq!((cycle + latch).get(), 26.5);
/// assert!(cycle > latch);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Fo4(f64);

impl Fo4 {
    /// A zero delay.
    pub const ZERO: Fo4 = Fo4(0.0);

    /// Creates a delay of `fo4` fan-out-of-four units.
    ///
    /// # Panics
    ///
    /// Panics if `fo4` is negative or not finite; delays are magnitudes.
    pub fn new(fo4: f64) -> Self {
        assert!(fo4.is_finite() && fo4 >= 0.0, "FO4 delay must be finite and non-negative");
        Fo4(fo4)
    }

    /// Returns the delay as a bare `f64` number of FO4 units.
    pub fn get(self) -> f64 {
        self.0
    }

    /// Converts this delay to nanoseconds in technology `tech`.
    ///
    /// ```
    /// use hbc_timing::{Fo4, Technology};
    ///
    /// let tech = Technology::default();
    /// // The 25 FO4 processor cycle of the paper is 5 ns (200 MHz).
    /// assert_eq!(Fo4::new(25.0).to_nanoseconds(&tech).get(), 5.0);
    /// ```
    pub fn to_nanoseconds(self, tech: &crate::Technology) -> Nanoseconds {
        Nanoseconds::new(self.0 * tech.fo4_ns())
    }

    /// Returns the larger of two delays.
    pub fn max(self, other: Fo4) -> Fo4 {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for Fo4 {
    type Output = Fo4;
    fn add(self, rhs: Fo4) -> Fo4 {
        Fo4(self.0 + rhs.0)
    }
}

impl AddAssign for Fo4 {
    fn add_assign(&mut self, rhs: Fo4) {
        self.0 += rhs.0;
    }
}

impl Sub for Fo4 {
    type Output = Fo4;
    /// Saturating at zero: a delay difference is never negative.
    fn sub(self, rhs: Fo4) -> Fo4 {
        Fo4((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Fo4 {
    type Output = Fo4;
    fn mul(self, rhs: f64) -> Fo4 {
        Fo4::new(self.0 * rhs)
    }
}

impl Div<Fo4> for Fo4 {
    type Output = f64;
    fn div(self, rhs: Fo4) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Fo4 {
    fn sum<I: Iterator<Item = Fo4>>(iter: I) -> Fo4 {
        iter.fold(Fo4::ZERO, Add::add)
    }
}

impl fmt::Display for Fo4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} FO4", self.0)
    }
}

/// A wall-clock duration in nanoseconds.
///
/// Used for the execution-time study (paper Section 4.4), where second-level
/// cache (50 ns) and main-memory (300 ns) latencies are fixed in real time
/// and rescaled into processor cycles as the cycle time varies.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Nanoseconds(f64);

impl Nanoseconds {
    /// Creates a duration of `ns` nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    pub fn new(ns: f64) -> Self {
        assert!(ns.is_finite() && ns >= 0.0, "duration must be finite and non-negative");
        Nanoseconds(ns)
    }

    /// Returns the duration as a bare `f64` number of nanoseconds.
    pub fn get(self) -> f64 {
        self.0
    }

    /// Number of whole processor cycles needed to cover this duration when
    /// one cycle lasts `cycle` nanoseconds (rounded up).
    ///
    /// ```
    /// use hbc_timing::Nanoseconds;
    ///
    /// let l2 = Nanoseconds::new(50.0);
    /// // 5 ns cycle (200 MHz): the paper's 10-cycle L2 hit.
    /// assert_eq!(l2.to_cycles(Nanoseconds::new(5.0)), 10);
    /// // 2 ns cycle (10 FO4): the same L2 is now 25 cycles away.
    /// assert_eq!(l2.to_cycles(Nanoseconds::new(2.0)), 25);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is zero.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a float-to-int `as` saturates; the ratio is positive"
    )]
    pub fn to_cycles(self, cycle: Nanoseconds) -> u64 {
        assert!(cycle.0 > 0.0, "cycle time must be positive");
        (self.0 / cycle.0).ceil() as u64
    }
}

impl Add for Nanoseconds {
    type Output = Nanoseconds;
    fn add(self, rhs: Nanoseconds) -> Nanoseconds {
        Nanoseconds(self.0 + rhs.0)
    }
}

impl Mul<f64> for Nanoseconds {
    type Output = Nanoseconds;
    fn mul(self, rhs: f64) -> Nanoseconds {
        Nanoseconds::new(self.0 * rhs)
    }
}

impl fmt::Display for Nanoseconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ns", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Technology;

    #[test]
    fn fo4_arithmetic() {
        let a = Fo4::new(10.0);
        let b = Fo4::new(4.0);
        assert_eq!((a + b).get(), 14.0);
        assert_eq!((a - b).get(), 6.0);
        assert_eq!((b - a).get(), 0.0, "subtraction saturates at zero");
        assert_eq!((a * 2.5).get(), 25.0);
        assert_eq!(a / b, 2.5);
    }

    #[test]
    fn fo4_sum_and_max() {
        let total: Fo4 = [1.0, 2.0, 3.5].into_iter().map(Fo4::new).sum();
        assert_eq!(total.get(), 6.5);
        assert_eq!(Fo4::new(2.0).max(Fo4::new(3.0)).get(), 3.0);
        assert_eq!(Fo4::new(4.0).max(Fo4::new(3.0)).get(), 4.0);
    }

    #[test]
    fn fo4_display_is_nonempty() {
        assert_eq!(Fo4::new(25.0).to_string(), "25.00 FO4");
        assert_eq!(Fo4::ZERO.to_string(), "0.00 FO4");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn fo4_rejects_negative() {
        let _ = Fo4::new(-1.0);
    }

    #[test]
    fn nanoseconds_conversion_matches_paper_anchor() {
        let tech = Technology::default();
        // 25 FO4 == 5 ns == 200 MHz.
        assert!((Fo4::new(25.0).to_nanoseconds(&tech).get() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn to_cycles_rounds_up() {
        let mem = Nanoseconds::new(300.0);
        assert_eq!(mem.to_cycles(Nanoseconds::new(5.0)), 60); // the paper's 60-cycle memory
        assert_eq!(mem.to_cycles(Nanoseconds::new(7.0)), 43); // 42.86 -> 43
    }

    #[test]
    fn nanoseconds_display() {
        assert_eq!(Nanoseconds::new(5.0).to_string(), "5.000 ns");
    }
}
