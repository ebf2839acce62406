//! A shareable virtual clock for simulated and manually-driven time.

use jmst_api::time::{Clock, Timestamp};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A virtual clock whose time only moves when something advances it.
///
/// The clock is cheap to clone (clones share the same time source), and
/// implements [`Clock`], so a reference broker can be run on virtual time
/// in unit tests — advancing the clock past a message's expiry, for
/// example, without sleeping.
///
/// # Examples
///
/// ```
/// use jmst_sim::clock::VirtualClock;
/// use jmst_api::time::{Clock, Timestamp};
/// use std::time::Duration;
///
/// let clock = VirtualClock::new();
/// let view = clock.clone();
/// clock.advance(Duration::from_millis(250));
/// assert_eq!(view.now(), Timestamp::from_millis(250));
/// ```
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    nanos: Arc<AtomicU64>,
}

impl VirtualClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `duration`.
    pub fn advance(&self, duration: Duration) {
        self.nanos
            .fetch_add(duration.as_nanos() as u64, Ordering::SeqCst);
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Timestamp {
        Timestamp::from_nanos(self.nanos.load(Ordering::SeqCst))
    }

    /// Moves the clock to `at`, or leaves it where it is if it is
    /// already later; always `true`.
    fn advance_to(&self, at: Timestamp) -> bool {
        self.nanos.fetch_max(at.as_nanos(), Ordering::SeqCst);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(VirtualClock::new().now(), Timestamp::ZERO);
    }

    #[test]
    fn clones_share_time() {
        let clock = VirtualClock::new();
        let view = clock.clone();
        clock.advance(Duration::from_secs(1));
        assert_eq!(view.now(), Timestamp::from_secs(1));
        view.advance(Duration::from_secs(1));
        assert_eq!(clock.now(), Timestamp::from_secs(2));
    }

    #[test]
    fn advance_to_jumps_forward_only() {
        let clock = VirtualClock::new();
        assert!(clock.advance_to(Timestamp::from_millis(30)));
        assert!(clock.advance_to(Timestamp::from_millis(20)));
        assert_eq!(clock.now(), Timestamp::from_millis(30));
        assert!(!jmst_api::time::SystemClock::new().advance_to(Timestamp::ZERO));
    }
}
