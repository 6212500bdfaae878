//! Virtual time.
//!
//! The simulation measures cost in *ticks*; one tick is one microsecond of
//! simulated 1983-vintage time. All latency constants in `locus-net` and
//! `locus-storage` are expressed in ticks, so experiment harnesses report
//! micro/milliseconds directly.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// A point in, or span of, virtual time (microseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Ticks(pub u64);

impl Ticks {
    /// Zero time.
    pub const ZERO: Ticks = Ticks(0);

    /// Builds a span from microseconds.
    pub const fn micros(us: u64) -> Ticks {
        Ticks(us)
    }

    /// Builds a span from milliseconds.
    pub const fn millis(ms: u64) -> Ticks {
        Ticks(ms * 1_000)
    }

    /// Builds a span from seconds.
    pub const fn secs(s: u64) -> Ticks {
        Ticks(s * 1_000_000)
    }

    /// The span as microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: Ticks) -> Ticks {
        Ticks(self.0.saturating_sub(rhs.0))
    }

    /// Scales the span by an integer factor.
    pub const fn scaled(self, factor: u64) -> Ticks {
        Ticks(self.0 * factor)
    }
}

impl Add for Ticks {
    type Output = Ticks;
    fn add(self, rhs: Ticks) -> Ticks {
        Ticks(self.0 + rhs.0)
    }
}

impl AddAssign for Ticks {
    fn add_assign(&mut self, rhs: Ticks) {
        self.0 += rhs.0;
    }
}

impl Sub for Ticks {
    type Output = Ticks;
    fn sub(self, rhs: Ticks) -> Ticks {
        Ticks(self.0 - rhs.0)
    }
}

impl fmt::Display for Ticks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Ticks::millis(2).as_micros(), 2_000);
        assert_eq!(Ticks::secs(1).as_micros(), 1_000_000);
        assert_eq!(Ticks::micros(7).0, 7);
    }

    #[test]
    fn arithmetic() {
        let mut t = Ticks::micros(5);
        t += Ticks::micros(3);
        assert_eq!(t, Ticks::micros(8));
        assert_eq!(t - Ticks::micros(2), Ticks::micros(6));
        assert_eq!(
            Ticks::micros(1).saturating_sub(Ticks::micros(9)),
            Ticks::ZERO
        );
        assert_eq!(Ticks::micros(4).scaled(3), Ticks::micros(12));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Ticks::micros(12).to_string(), "12us");
        assert_eq!(Ticks::micros(1_500).to_string(), "1.500ms");
        assert_eq!(Ticks::secs(2).to_string(), "2.000s");
    }
}
