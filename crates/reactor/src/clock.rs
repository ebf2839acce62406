//! The time source a reactor runs on: real time ([`WallClock`]) by
//! default, or a clock the reactor may move, which a one-worker reactor
//! jumps from timer to timer instead of parking. The trait is this
//! crate's own so that the reactor depends on no workspace crate;
//! `jmst_load::ClockSource` implements it for the workspace `Clock`.

use std::fmt;
use std::time::Instant;

/// A monotonic time source, in nanoseconds from an origin of its own.
pub trait RunClock: Send + Sync + fmt::Debug {
    /// Nanoseconds since the clock's origin.
    fn now_nanos(&self) -> u64;

    /// Moves the clock forward to `nanos` if it can be moved, and says
    /// whether it can; real time cannot (the default).
    fn advance_to(&self, nanos: u64) -> bool {
        let _ = nanos;
        false
    }
}

/// Real time, from the moment the clock was created.
#[derive(Debug, Clone, Copy)]
pub struct WallClock(Instant);

impl WallClock {
    /// A clock whose origin is now.
    pub fn new() -> Self {
        Self(Instant::now())
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl RunClock for WallClock {
    fn now_nanos(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}
