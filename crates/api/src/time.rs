//! Time representation shared by the real-time and simulated execution
//! engines.
//!
//! The paper's analysis matches send and receive timestamps that were taken
//! on NTP-synchronised machines. This module provides the [`Timestamp`]
//! value those log records carry and the [`Clock`] abstraction that lets the
//! same provider and harness code run against the operating-system clock or
//! a discrete-event virtual clock.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::{Duration, Instant};

/// A point in time, in nanoseconds since an arbitrary per-run epoch.
///
/// Timestamps from the same run are comparable; timestamps from different
/// runs are not. The paper records timestamps with millisecond precision
/// (the accuracy NTP provides); we keep nanoseconds internally so virtual
/// time never loses precision, and expose millisecond views for reports.
///
/// # Examples
///
/// ```
/// use jmst_api::time::Timestamp;
/// use std::time::Duration;
///
/// let t = Timestamp::from_nanos(1_500_000);
/// assert_eq!(t.as_millis(), 1);
/// assert_eq!(t + Duration::from_millis(2), Timestamp::from_nanos(3_500_000));
/// ```
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The zero timestamp (the run epoch).
    pub const ZERO: Timestamp = Timestamp(0);

    /// Creates a timestamp from nanoseconds since the run epoch.
    pub const fn from_nanos(nanos: u64) -> Self {
        Self(nanos)
    }

    /// Creates a timestamp from microseconds since the run epoch.
    pub const fn from_micros(micros: u64) -> Self {
        Self(micros * 1_000)
    }

    /// Creates a timestamp from milliseconds since the run epoch.
    pub const fn from_millis(millis: u64) -> Self {
        Self(millis * 1_000_000)
    }

    /// Creates a timestamp from whole seconds since the run epoch.
    pub const fn from_secs(secs: u64) -> Self {
        Self(secs * 1_000_000_000)
    }

    /// Returns nanoseconds since the run epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns whole microseconds since the run epoch (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns whole milliseconds since the run epoch (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Returns seconds since the run epoch as a floating-point number.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the duration elapsed since `earlier`, or [`Duration::ZERO`]
    /// if `earlier` is later than `self` (which can happen with skewed
    /// clocks, exactly the "apparently negative delays" the paper's
    /// footnote 6 describes).
    pub fn saturating_since(self, earlier: Timestamp) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// Returns the signed difference `self - earlier` in nanoseconds.
    ///
    /// Unlike [`Timestamp::saturating_since`], negative differences are
    /// preserved so the analysis can report negative delays rather than
    /// silently clamping them.
    pub fn signed_since(self, earlier: Timestamp) -> i64 {
        self.0 as i64 - earlier.0 as i64
    }

    /// Returns the timestamp moved forward by `duration`, saturating on
    /// overflow.
    pub fn saturating_add(self, duration: Duration) -> Timestamp {
        Timestamp(self.0.saturating_add(duration.as_nanos() as u64))
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;

    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 + rhs.as_nanos() as u64)
    }
}

impl AddAssign<Duration> for Timestamp {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.as_nanos() as u64;
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Duration;

    /// Computes `self - rhs`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`Timestamp::saturating_since`] when the ordering is not guaranteed.
    fn sub(self, rhs: Timestamp) -> Duration {
        debug_assert!(self.0 >= rhs.0, "timestamp subtraction underflow");
        Duration::from_nanos(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// A source of timestamps.
///
/// Providers stamp messages and the harness stamps log records through a
/// `Clock`, so the whole stack can run either in real time
/// ([`SystemClock`]) or in simulated time (the virtual clock in `jmst-sim`).
pub trait Clock: Send + Sync + fmt::Debug {
    /// Returns the current time.
    fn now(&self) -> Timestamp;

    /// Moves the clock forward to `at` if it can be moved, and says
    /// whether it can: real time cannot (the default), a virtual clock
    /// can. A scheduler with nothing ready jumps rather than waits.
    fn advance_to(&self, at: Timestamp) -> bool {
        let _ = at;
        false
    }
}

/// A [`Clock`] backed by [`Instant`], anchored at a single process-wide
/// epoch.
///
/// Every `SystemClock` in the process shares the same epoch (set the
/// first time one is created), so timestamps taken by different
/// components — the broker stamping messages, harness nodes logging
/// events — are directly comparable. This mirrors the paper's assumption
/// that all machines are NTP-synchronised; deliberate skew is modelled
/// explicitly with [`SkewedClock`].
///
/// # Examples
///
/// ```
/// use jmst_api::time::{Clock, SystemClock};
///
/// let clock = SystemClock::new();
/// let a = clock.now();
/// let b = SystemClock::new().now(); // a different instance, same epoch
/// assert!(b >= a);
/// ```
#[derive(Debug, Clone)]
pub struct SystemClock {
    epoch: Instant,
}

static PROCESS_EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();

impl SystemClock {
    /// Creates a clock on the shared process-wide epoch.
    pub fn new() -> Self {
        Self {
            epoch: *PROCESS_EPOCH.get_or_init(Instant::now),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Timestamp {
        Timestamp::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }
}

/// A [`Clock`] that adds a fixed skew to an inner clock.
///
/// Used by the harness to model imperfectly synchronised machines: the paper
/// relies on NTP's millisecond accuracy, and footnote 6 observes that skew
/// can surface as apparently negative message delays. Wrapping one node's
/// clock in `SkewedClock` reproduces that effect deterministically.
#[derive(Debug)]
pub struct SkewedClock<C> {
    inner: C,
    skew_nanos: i64,
}

impl<C: Clock> SkewedClock<C> {
    /// Wraps `inner`, shifting every reading by `skew_nanos` (which may be
    /// negative; readings saturate at the epoch).
    pub fn new(inner: C, skew_nanos: i64) -> Self {
        Self { inner, skew_nanos }
    }

    /// Returns the configured skew in nanoseconds.
    pub fn skew_nanos(&self) -> i64 {
        self.skew_nanos
    }
}

impl<C: Clock> Clock for SkewedClock<C> {
    fn now(&self) -> Timestamp {
        let base = self.inner.now().as_nanos() as i64;
        Timestamp::from_nanos(base.saturating_add(self.skew_nanos).max(0) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_unit_conversions() {
        let t = Timestamp::from_millis(2_500);
        assert_eq!(t.as_nanos(), 2_500_000_000);
        assert_eq!(t.as_micros(), 2_500_000);
        assert_eq!(t.as_millis(), 2_500);
        assert!((t.as_secs_f64() - 2.5).abs() < 1e-12);
        assert_eq!(Timestamp::from_secs(3), Timestamp::from_millis(3_000));
        assert_eq!(Timestamp::from_micros(5), Timestamp::from_nanos(5_000));
    }

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp::from_millis(10);
        let later = t + Duration::from_millis(5);
        assert_eq!(later - t, Duration::from_millis(5));
        let mut u = t;
        u += Duration::from_millis(1);
        assert_eq!(u, Timestamp::from_millis(11));
    }

    #[test]
    fn saturating_since_clamps_negative_differences() {
        let early = Timestamp::from_millis(1);
        let late = Timestamp::from_millis(4);
        assert_eq!(late.saturating_since(early), Duration::from_millis(3));
        assert_eq!(early.saturating_since(late), Duration::ZERO);
    }

    #[test]
    fn signed_since_preserves_negative_differences() {
        let early = Timestamp::from_millis(1);
        let late = Timestamp::from_millis(4);
        assert_eq!(late.signed_since(early), 3_000_000);
        assert_eq!(early.signed_since(late), -3_000_000);
    }

    #[test]
    fn system_clock_is_monotonic() {
        let clock = SystemClock::new();
        let mut previous = clock.now();
        for _ in 0..100 {
            let now = clock.now();
            assert!(now >= previous);
            previous = now;
        }
    }

    #[derive(Debug)]
    struct FixedClock(Timestamp);

    impl Clock for FixedClock {
        fn now(&self) -> Timestamp {
            self.0
        }
    }

    #[test]
    fn skewed_clock_shifts_readings() {
        let base = FixedClock(Timestamp::from_millis(100));
        let ahead = SkewedClock::new(base, 5_000_000);
        assert_eq!(ahead.now(), Timestamp::from_millis(105));
        assert_eq!(ahead.skew_nanos(), 5_000_000);

        let base = FixedClock(Timestamp::from_millis(100));
        let behind = SkewedClock::new(base, -7_000_000);
        assert_eq!(behind.now(), Timestamp::from_millis(93));
    }

    #[test]
    fn skewed_clock_saturates_at_epoch() {
        let base = FixedClock(Timestamp::from_millis(1));
        let far_behind = SkewedClock::new(base, -10_000_000_000);
        assert_eq!(far_behind.now(), Timestamp::ZERO);
    }

    #[test]
    fn display_formats_as_seconds() {
        assert_eq!(Timestamp::from_millis(1_500).to_string(), "1.500000s");
    }
}
