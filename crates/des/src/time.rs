//! Simulation time types.
//!
//! All simulation time in the workspace is expressed with two newtypes:
//! [`SimTime`], an absolute instant measured in integer nanoseconds since the
//! start of the simulation, and [`SimDuration`], a span between two instants.
//! Integer nanoseconds keep event ordering exact and the simulation
//! deterministic: there is no floating-point accumulation drift, and the
//! range (≈584 years) comfortably covers the multi-hundred-second experiments
//! in the paper as well as the 125 ns bit periods of a 1 Mbyte/s TpWIRE bus.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// An absolute instant in simulated time, in nanoseconds since simulation
/// start.
///
/// `SimTime` is totally ordered and starts at [`SimTime::ZERO`]. Instants are
/// produced by the kernel ([`Simulator::now`]) and by adding a
/// [`SimDuration`] to an existing instant.
///
/// # Examples
///
/// ```
/// use tsbus_des::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(3);
/// assert_eq!(t.as_nanos(), 3_000_000);
/// assert!(t > SimTime::ZERO);
/// ```
///
/// [`Simulator::now`]: crate::Simulator::now
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in integer nanoseconds.
///
/// # Examples
///
/// ```
/// use tsbus_des::SimDuration;
///
/// let bit = SimDuration::from_nanos(125);
/// let frame = bit * 16;
/// assert_eq!(frame.as_micros_f64(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

const NANOS_PER_MICRO: u64 = 1_000;
const NANOS_PER_MILLI: u64 = 1_000_000;
const NANOS_PER_SEC: u64 = 1_000_000_000;

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel
    /// by schedulers and deadline bookkeeping.
    pub(crate) const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from nanoseconds since simulation start.
    #[must_use]
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant from whole seconds since simulation start.
    ///
    /// # Panics
    ///
    /// Panics if `secs` exceeds ~584 years in nanoseconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * NANOS_PER_SEC)
    }

    /// Creates an instant from whole milliseconds since simulation start.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * NANOS_PER_MILLI)
    }

    /// Creates an instant from whole microseconds since simulation start.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * NANOS_PER_MICRO)
    }

    /// Nanoseconds since simulation start.
    #[must_use]
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting only).
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; simulated time never runs
    /// backwards, so this indicates a logic error in the caller.
    #[must_use]
    #[inline]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        match self.0.checked_sub(earlier.0) {
            Some(d) => SimDuration(d),
            None => panic!("duration_since: earlier instant {earlier} is later than {self}"),
        }
    }

    /// The span from `earlier` to `self`, or [`SimDuration::ZERO`] if
    /// `earlier` is later than `self`.
    #[must_use]
    #[inline]
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at `u64::MAX` nanoseconds instead of
    /// overflowing. Useful when computing deadlines from caller-supplied
    /// (possibly huge) timeouts.
    #[must_use]
    #[inline]
    pub const fn saturating_add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a span from nanoseconds.
    #[must_use]
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a span from microseconds.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * NANOS_PER_MICRO)
    }

    /// Creates a span from milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * NANOS_PER_MILLI)
    }

    /// Creates a span from whole seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * NANOS_PER_SEC)
    }

    /// Creates a span from fractional seconds, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, non-finite, or too large to represent.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration seconds must be finite and non-negative, got {secs}"
        );
        let nanos = secs * NANOS_PER_SEC as f64;
        assert!(
            nanos <= u64::MAX as f64,
            "duration of {secs} seconds overflows nanosecond representation"
        );
        SimDuration(nanos.round() as u64)
    }

    /// The span in nanoseconds.
    #[must_use]
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in fractional microseconds (for reporting only).
    #[must_use]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MICRO as f64
    }

    /// The span in fractional milliseconds (for reporting only).
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// The span in fractional seconds (for reporting only).
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Whether this span is zero.
    #[must_use]
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked multiplication by an integer factor.
    #[must_use]
    #[inline]
    pub(crate) const fn checked_mul(self, rhs: u64) -> Option<SimDuration> {
        match self.0.checked_mul(rhs) {
            Some(v) => Some(SimDuration(v)),
            None => None,
        }
    }

    /// Multiplication by an integer factor, saturating at `u64::MAX`
    /// nanoseconds.
    #[must_use]
    #[inline]
    pub const fn saturating_mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }

    /// Multiplies by a non-negative float factor, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative, non-finite, or the result overflows.
    #[must_use]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "duration factor must be finite and non-negative, got {factor}"
        );
        let nanos = self.0 as f64 * factor;
        assert!(
            nanos <= u64::MAX as f64,
            "duration multiplication overflows nanosecond representation"
        );
        SimDuration(nanos.round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("simulation time overflow (585+ simulated years)"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;

    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("simulation time underflow (before time zero)"),
        )
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_add(rhs.0)
                .expect("simulation duration overflow"),
        )
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("simulation duration underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;

    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        self.checked_mul(rhs)
            .expect("simulation duration multiplication overflow")
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;

    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = u64;

    /// How many whole `rhs` spans fit in `self`.
    fn div(self, rhs: SimDuration) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem<SimDuration> for SimDuration {
    type Output = SimDuration;

    fn rem(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 % rhs.0)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    /// Formats with a human-oriented unit: `ns`, `µs`, `ms` or `s` depending
    /// on magnitude.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.0;
        if n == u64::MAX {
            write!(f, "inf")
        } else if n < NANOS_PER_MICRO {
            write!(f, "{n}ns")
        } else if n < NANOS_PER_MILLI {
            write!(f, "{:.3}µs", n as f64 / NANOS_PER_MICRO as f64)
        } else if n < NANOS_PER_SEC {
            write!(f, "{:.3}ms", n as f64 / NANOS_PER_MILLI as f64)
        } else {
            write!(f, "{:.3}s", n as f64 / NANOS_PER_SEC as f64)
        }
    }
}

impl From<core::time::Duration> for SimDuration {
    fn from(d: core::time::Duration) -> Self {
        SimDuration(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
    }
}

impl From<SimDuration> for core::time::Duration {
    fn from(d: SimDuration) -> Self {
        core::time::Duration::from_nanos(d.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree_on_units() {
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimDuration::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimDuration::from_micros(1).as_nanos(), 1_000);
        assert_eq!(SimDuration::from_nanos(1).as_nanos(), 1);
        assert_eq!(SimTime::from_secs(2), SimTime::from_nanos(2_000_000_000));
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t0 = SimTime::from_secs(1);
        let d = SimDuration::from_millis(250);
        let t1 = t0 + d;
        assert_eq!(t1 - t0, d);
        assert_eq!(t1 - d, t0);
        assert_eq!(t1.duration_since(t0), d);
    }

    #[test]
    fn saturating_ops_clamp() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
        assert_eq!(
            SimTime::ZERO.saturating_duration_since(SimTime::from_secs(1)),
            SimDuration::ZERO
        );
        assert_eq!(
            SimDuration::from_nanos(u64::MAX).saturating_mul(3),
            SimDuration::from_nanos(u64::MAX)
        );
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn duration_since_panics_on_backwards_time() {
        let _ = SimTime::ZERO.duration_since(SimTime::from_secs(1));
    }

    #[test]
    fn float_conversions() {
        let d = SimDuration::from_secs_f64(1.5);
        assert_eq!(d.as_nanos(), 1_500_000_000);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-12);
        assert_eq!(SimDuration::from_secs_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn from_secs_f64_rejects_negative() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn duration_division_counts_whole_spans() {
        let frame = SimDuration::from_nanos(125) * 16;
        assert_eq!(frame / SimDuration::from_nanos(125), 16);
        assert_eq!(frame % SimDuration::from_nanos(125), SimDuration::ZERO);
        assert_eq!(frame / 2, SimDuration::from_nanos(1000));
    }

    #[test]
    fn mul_f64_rounds_to_nanosecond() {
        let d = SimDuration::from_nanos(3).mul_f64(0.5);
        assert_eq!(d.as_nanos(), 2); // 1.5 rounds to 2
    }

    #[test]
    fn display_picks_readable_units() {
        assert_eq!(SimDuration::from_nanos(17).to_string(), "17ns");
        assert_eq!(SimDuration::from_micros(2).to_string(), "2.000µs");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimDuration::from_secs(140).to_string(), "140.000s");
        assert_eq!(SimDuration::from_nanos(u64::MAX).to_string(), "inf");
    }

    #[test]
    fn std_duration_interop() {
        let std = core::time::Duration::from_micros(7);
        let sim: SimDuration = std.into();
        assert_eq!(sim, SimDuration::from_micros(7));
        let back: core::time::Duration = sim.into();
        assert_eq!(back, std);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }
}
