//! Simulated time and per-node clocks.
//!
//! Simulated time is expressed in integer nanoseconds.  Each node carries a
//! [`NodeClock`] that only ever moves forward; synchronization operations
//! (locks, barriers) merge clocks by taking the maximum, which models the
//! blocking a slower node imposes on a faster one.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

use crate::{Charge, CostModel};

/// A point in (or span of) simulated time, in nanoseconds.
///
/// `SimTime` is used both for absolute per-node clock values and for
/// durations charged by the [`CostModel`](crate::CostModel); the arithmetic
/// saturates rather than wrapping so pathological cost configurations degrade
/// gracefully instead of panicking.
///
/// # Examples
///
/// ```
/// use dsm_sim::SimTime;
///
/// let a = SimTime::from_micros(150);
/// let b = SimTime::from_nanos(500);
/// assert_eq!((a + b).as_nanos(), 150_500);
/// assert!(a.as_secs_f64() > 0.0001);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Zero duration / the epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from nanoseconds.
    pub fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimTime(us.saturating_mul(1_000))
    }

    /// Creates a time from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms.saturating_mul(1_000_000))
    }

    /// Creates a time from seconds expressed as a float.
    ///
    /// Negative or non-finite inputs are clamped to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((secs * 1e9).round() as u64)
    }

    /// Nanoseconds since the epoch (or length of the span).
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds, truncated.
    pub fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds as a float (the unit used by the paper's tables).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Returns the earlier of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// Saturating difference (`self - other`, or zero if `other` is later).
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

/// A monotonically non-decreasing per-node simulated clock.
///
/// # Examples
///
/// ```
/// use dsm_sim::{Charge, CostModel, NodeClock, SimTime, Work};
///
/// let cost = CostModel::atm_lan_1996();
/// let mut c = NodeClock::new();
/// c.charge(&cost, Charge::Compute(Work::flops(50))); // 50 x 200 ns
/// c.sync_to(SimTime::from_micros(5)); // earlier time: no effect
/// assert_eq!(c.now().as_micros(), 10);
/// c.sync_to(SimTime::from_micros(25));
/// assert_eq!(c.now().as_micros(), 25);
/// ```
#[derive(Debug, Clone, Default)]
pub struct NodeClock {
    now: SimTime,
}

impl NodeClock {
    /// Creates a clock at the epoch.
    pub fn new() -> Self {
        NodeClock { now: SimTime::ZERO }
    }

    /// Current simulated time of this node.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Moves the clock forward by the price of `charge` under `cost`, and
    /// returns that price.  Besides [`sync_to`](Self::sync_to), this is the
    /// only way a clock moves forward.
    #[inline(always)]
    pub fn charge(&mut self, cost: &CostModel, charge: Charge) -> SimTime {
        let t = cost.price(charge);
        self.advance(t);
        t
    }

    /// Advances the clock by `delta`.
    pub(crate) fn advance(&mut self, delta: SimTime) {
        self.now += delta;
    }

    /// Moves the clock forward to `t` if `t` is later than the current time
    /// (used when blocking on a peer: lock hand-off, barrier release).
    pub fn sync_to(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_micros(1).as_nanos(), 1_000);
        assert_eq!(SimTime::from_millis(2).as_micros(), 2_000);
        assert!((SimTime::from_secs_f64(1.5).as_secs_f64() - 1.5).abs() < 1e-9);
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
    }

    #[test]
    fn arithmetic_saturates() {
        let big = SimTime::from_nanos(u64::MAX);
        assert_eq!(big + SimTime::from_nanos(10), big);
        assert_eq!(
            SimTime::from_nanos(3) - SimTime::from_nanos(10),
            SimTime::ZERO
        );
    }

    #[test]
    fn sum_and_minmax() {
        let total: SimTime = [1u64, 2, 3].iter().map(|&n| SimTime::from_nanos(n)).sum();
        assert_eq!(total.as_nanos(), 6);
        assert_eq!(
            SimTime::from_nanos(4)
                .max(SimTime::from_nanos(9))
                .as_nanos(),
            9
        );
        assert_eq!(
            SimTime::from_nanos(4)
                .min(SimTime::from_nanos(9))
                .as_nanos(),
            4
        );
    }

    #[test]
    fn clock_is_monotone() {
        let mut c = NodeClock::new();
        c.advance(SimTime::from_nanos(100));
        c.sync_to(SimTime::from_nanos(50));
        assert_eq!(c.now().as_nanos(), 100);
        c.sync_to(SimTime::from_nanos(200));
        assert_eq!(c.now().as_nanos(), 200);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500s");
    }
}
