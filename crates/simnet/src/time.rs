//! Simulated time.
//!
//! All simulator time is an absolute [`Time`] measured in integer nanoseconds
//! from the start of the run. Durations are `std::time::Duration`, which keeps
//! the API familiar while arithmetic stays exact: there is no floating point
//! anywhere on the clock path, so runs are bit-for-bit reproducible.
//!
//! Arithmetic that would pass the end of time saturates at [`Time::MAX`]:
//! "never" plus anything is never. Differences saturate at zero.

use std::fmt;
use std::num::NonZeroU64;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// An absolute instant on the simulation clock, in nanoseconds since t=0.
///
/// Stored as `nanos + 1` in a [`NonZeroU64`], so `Option<Time>` is 8 bytes:
/// a population run keeps millions of optional timestamps (request records,
/// reorder-ring slots). Adding one preserves order, so the derived
/// comparisons are those of the nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Time(NonZeroU64);

impl Time {
    /// The start of the simulation.
    pub const ZERO: Time = Time(NonZeroU64::MIN);
    /// The largest representable instant, `u64::MAX - 1` ns; used as "never"
    /// for inactive timers.
    pub const MAX: Time = Time(NonZeroU64::MAX);

    /// Construct from raw nanoseconds; `u64::MAX` clamps to [`Time::MAX`].
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        Time(NonZeroU64::MIN.saturating_add(nanos))
    }

    /// Construct from integer microseconds, saturating at [`Time::MAX`].
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        Time::from_nanos(micros.saturating_mul(1_000))
    }

    /// Construct from integer milliseconds, saturating at [`Time::MAX`].
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        Time::from_nanos(millis.saturating_mul(1_000_000))
    }

    /// Construct from integer seconds, saturating at [`Time::MAX`].
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        Time::from_nanos(secs.saturating_mul(1_000_000_000))
    }

    /// Raw nanoseconds since t=0.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0.get() - 1
    }

    /// Whole microseconds since t=0 (truncated).
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.as_nanos() / 1_000
    }

    /// Whole milliseconds since t=0 (truncated).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.as_nanos() / 1_000_000
    }

    /// Seconds since t=0 as a float, for reporting only.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.as_nanos() as f64 / 1e9
    }

    /// Elapsed duration since an earlier instant, saturating at zero.
    #[inline]
    pub fn since(self, earlier: Time) -> Duration {
        Duration::from_nanos(self.0.get().saturating_sub(earlier.0.get()))
    }

    /// Addition of a duration, saturating at [`Time::MAX`] (what `+` does).
    #[inline]
    pub fn saturating_add(self, d: Duration) -> Time {
        Time(self.0.saturating_add(dur_nanos(d)))
    }
}

impl Default for Time {
    /// [`Time::ZERO`].
    #[inline]
    fn default() -> Self {
        Time::ZERO
    }
}

/// Convert a `Duration` to u64 nanoseconds, saturating (spans > ~584 years
/// are clamped, which is far beyond any simulation horizon).
#[inline]
pub fn dur_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Add<Duration> for Time {
    type Output = Time;
    /// Saturates at [`Time::MAX`]: "never" plus anything is never.
    #[inline]
    fn add(self, d: Duration) -> Time {
        self.saturating_add(d)
    }
}

impl AddAssign<Duration> for Time {
    /// Saturates at [`Time::MAX`], like `+`.
    #[inline]
    fn add_assign(&mut self, d: Duration) {
        *self = *self + d;
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`Time::since`] when the ordering is not guaranteed.
    #[inline]
    fn sub(self, rhs: Time) -> Duration {
        debug_assert!(self >= rhs, "time went backwards: {self:?} - {rhs:?}");
        self.since(rhs)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Time::from_secs(2), Time::from_nanos(2_000_000_000));
        assert_eq!(Time::from_millis(5), Time::from_micros(5_000));
        assert_eq!(Time::from_micros(7), Time::from_nanos(7_000));
    }

    #[test]
    fn add_sub_roundtrip() {
        let t = Time::from_millis(100);
        let d = Duration::from_micros(250);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn since_saturates() {
        let early = Time::from_secs(1);
        let late = Time::from_secs(3);
        assert_eq!(early.since(late), Duration::ZERO);
        assert_eq!(late.since(early), Duration::from_secs(2));
    }

    #[test]
    fn ordering() {
        assert!(Time::from_millis(1) < Time::from_millis(2));
        assert!(Time::MAX > Time::from_secs(1_000_000));
    }

    #[test]
    fn addition_saturates_at_never() {
        let d = Duration::from_secs(1);
        assert_eq!(Time::MAX + d, Time::MAX);
        assert_eq!(Time::MAX + Duration::MAX, Time::MAX);
        assert_eq!(Time::from_nanos(u64::MAX - 5) + d, Time::MAX);
        let mut t = Time::from_nanos(u64::MAX - 5);
        t += d;
        assert_eq!(t, Time::MAX);
        // One nanosecond short of the end of time still adds exactly.
        assert_eq!(
            Time::from_nanos(u64::MAX - 3) + Duration::from_nanos(2),
            Time::from_nanos(u64::MAX - 1)
        );
    }

    #[test]
    fn constructors_saturate_at_never() {
        assert_eq!(Time::from_micros(u64::MAX), Time::MAX);
        assert_eq!(Time::from_millis(u64::MAX / 1_000), Time::MAX);
        assert_eq!(Time::from_secs(u64::MAX / 1_000_000), Time::MAX);
        // In a const context too: no overflow error at compile time.
        const NEVER: Time = Time::from_secs(u64::MAX);
        assert_eq!(NEVER, Time::MAX);
        // The largest second count that fits is exact.
        let secs = u64::MAX / 1_000_000_000;
        assert_eq!(Time::from_secs(secs).as_nanos(), secs * 1_000_000_000);
    }

    #[test]
    fn subtraction_still_saturates_at_zero() {
        assert_eq!(Time::ZERO.since(Time::MAX), Duration::ZERO);
        assert_eq!(Time::MAX.since(Time::ZERO), Duration::from_nanos(u64::MAX - 1));
        assert_eq!(Time::MAX - Time::MAX, Duration::ZERO);
    }

    #[test]
    fn encoding_is_invisible_and_option_is_free() {
        assert_eq!(std::mem::size_of::<Time>(), 8);
        assert_eq!(std::mem::size_of::<Option<Time>>(), 8);
        assert_eq!(Time::default(), Time::ZERO);
        assert_eq!(Time::ZERO.as_nanos(), 0);
        assert_eq!(Time::MAX.as_nanos(), u64::MAX - 1);
    }

    #[test]
    fn encoded_time_orders_and_round_trips_as_its_nanoseconds() {
        use testkit::prop::{any_u64, check, choice};
        fn pair(a: u64, b: u64) {
            let (ta, tb) = (Time::from_nanos(a), Time::from_nanos(b));
            // `u64::MAX` clamps to `MAX`; everything else is kept exactly.
            let (ca, cb) = (a.min(u64::MAX - 1), b.min(u64::MAX - 1));
            assert_eq!(ta.as_nanos(), ca);
            assert_eq!(Time::from_nanos(ta.as_nanos()), ta);
            assert_eq!(ta.cmp(&tb), ca.cmp(&cb));
            assert_eq!(ta == tb, ca == cb);
            assert!(Time::ZERO <= ta && ta <= Time::MAX);
        }
        const EDGES: [u64; 4] = [0, 1, u64::MAX - 1, u64::MAX];
        for a in EDGES {
            for b in EDGES {
                pair(a, b);
            }
        }
        check(512, (any_u64(), any_u64(), choice(&EDGES)), |(a, b, edge)| {
            pair(a, b);
            pair(a, a.wrapping_add(1));
            pair(a, edge);
            pair(edge, b);
        });
    }

    #[test]
    fn display_is_seconds() {
        assert_eq!(format!("{}", Time::from_millis(1500)), "1.500s");
    }
}
