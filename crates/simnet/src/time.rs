//! Simulated time.
//!
//! Time is a `u64` count of nanoseconds since the start of the simulation.
//! Durations are also nanosecond counts. Both are newtypes so they cannot be
//! confused with each other or with raw integers, and both provide saturating
//! arithmetic so cost-model code never panics on overflow.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant in simulated time (nanoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time (nanoseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The zero instant — the moment the simulation starts.
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable instant; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Nanoseconds since simulation start.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since simulation start.
    pub fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds since simulation start.
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since simulation start, as a float (for plotting/reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Elapsed duration since `earlier`; saturates to zero if `earlier` is
    /// in the future.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from nanoseconds.
    pub fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimDuration(us.saturating_mul(1_000))
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimDuration(ms.saturating_mul(1_000_000))
    }

    /// Construct from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimDuration(s.saturating_mul(1_000_000_000))
    }

    /// Construct from fractional seconds. Negative values clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            SimDuration(u64::MAX)
        } else {
            SimDuration(ns as u64)
        }
    }

    /// Duration in nanoseconds.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration in whole milliseconds.
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True if this is the zero duration.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The time it takes to move `bytes` bytes at `bytes_per_sec`.
    ///
    /// A zero rate yields [`SimDuration::ZERO`]; callers treat a zero-rate
    /// link as infinitely fast rather than dividing by zero, because the only
    /// zero-rate interfaces in this workspace are intentionally "ideal" test
    /// fixtures.
    pub fn for_bytes(bytes: u64, bytes_per_sec: u64) -> Self {
        if bytes_per_sec == 0 {
            return SimDuration::ZERO;
        }
        // bytes * 1e9 / rate. Every chunk pays this, so the product stays
        // in u64 whenever it fits (anything under 18 GB); the u128 division
        // is the overflow path.
        match bytes.checked_mul(1_000_000_000) {
            Some(scaled) => SimDuration(scaled / bytes_per_sec),
            None => {
                let ns = (bytes as u128 * 1_000_000_000u128) / bytes_per_sec as u128;
                SimDuration(ns.min(u64::MAX as u128) as u64)
            }
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs.max(1))
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
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{}ms", self.as_millis())
        } else if self.0 >= 1_000 {
            write!(f, "{}us", self.0 / 1_000)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::ZERO + SimDuration::from_millis(1_500);
        assert_eq!(t.as_millis(), 1_500);
        assert_eq!(t.as_micros(), 1_500_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn duration_subtraction_saturates() {
        let a = SimDuration::from_secs(1);
        let b = SimDuration::from_secs(2);
        assert_eq!(a - b, SimDuration::ZERO);
        assert_eq!(SimTime(5).since(SimTime(10)), SimDuration::ZERO);
    }

    #[test]
    fn time_add_saturates_at_max() {
        let t = SimTime::MAX + SimDuration::from_secs(1);
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    fn for_bytes_matches_rate() {
        // 1 MiB at 1 MiB/s is one second.
        let d = SimDuration::for_bytes(1 << 20, 1 << 20);
        assert_eq!(d, SimDuration::from_secs(1));
        // Zero rate is "ideal link": zero time.
        assert_eq!(SimDuration::for_bytes(1 << 20, 0), SimDuration::ZERO);
    }

    #[test]
    fn for_bytes_large_values_do_not_overflow() {
        let d = SimDuration::for_bytes(u64::MAX / 2, 1);
        assert_eq!(d.as_nanos(), u64::MAX);
    }

    #[test]
    fn from_secs_f64_clamps() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_millis(), 1_500);
        assert_eq!(SimDuration::from_secs_f64(1e300).as_nanos(), u64::MAX);
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
    }
}
