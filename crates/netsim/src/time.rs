//! Simulation clock: nanosecond-resolution virtual time.
//!
//! All simulator timestamps are [`SimTime`] (nanoseconds since simulation
//! start) and all intervals are [`SimDuration`]. Using integer nanoseconds
//! keeps event ordering exact and runs reproducible; floating point is used
//! only at the edges (rates, seconds for human-facing config).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use crate::units::round_u64;

/// A point in virtual time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

pub const NANOS_PER_SEC: u64 = 1_000_000_000;

impl SimTime {
    /// Time zero (simulation start).
    pub const ZERO: SimTime = SimTime(0);
    /// A sentinel far in the future (used for "no deadline").
    pub const FAR_FUTURE: SimTime = SimTime(u64::MAX);

    /// Construct from (possibly fractional) seconds. Panics on negative input.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs >= 0.0, "SimTime cannot be negative: {secs}");
        SimTime(round_u64(secs * NANOS_PER_SEC as f64))
    }

    /// This instant expressed in seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Nanoseconds since simulation start.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Elapsed time since `earlier`; saturates to zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from (possibly fractional) seconds. Panics on negative input.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs >= 0.0, "SimDuration cannot be negative: {secs}");
        SimDuration(round_u64(secs * NANOS_PER_SEC as f64))
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// This duration expressed in seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Nanoseconds in this duration.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Scale by a non-negative factor (used for gain-cycle phase lengths).
    pub fn mul_f64(self, f: f64) -> Self {
        assert!(f >= 0.0, "cannot scale a duration by a negative factor");
        SimDuration(round_u64(self.0 as f64 * f))
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
    /// Panics if `rhs` is later than `self` (a logic error in the caller).
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_secs() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn add_duration() {
        let t = SimTime::from_secs_f64(1.0) + SimDuration::from_millis(250);
        assert_eq!(t, SimTime::from_secs_f64(1.25));
    }

    #[test]
    fn subtraction_gives_duration() {
        let a = SimTime::from_secs_f64(2.0);
        let b = SimTime::from_secs_f64(0.5);
        assert_eq!(a - b, SimDuration::from_secs_f64(1.5));
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_secs_f64(1.0);
        let b = SimTime::from_secs_f64(3.0);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs_f64(2.0));
    }

    #[test]
    #[should_panic]
    fn subtraction_underflow_panics() {
        let _ = SimTime::from_secs_f64(1.0) - SimTime::from_secs_f64(2.0);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(100).mul_f64(2.5);
        assert_eq!(d, SimDuration::from_millis(250));
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            SimTime::from_secs_f64(3.0),
            SimTime::ZERO,
            SimTime::from_secs_f64(1.0),
        ];
        v.sort();
        assert_eq!(v[0], SimTime::ZERO);
        assert_eq!(v[2], SimTime::from_secs_f64(3.0));
    }
}
