//! Checkers for the paper's safety properties (§3.1), one module per
//! property. Each is a [`PropertyChecker`]: the analyzer's default table
//! runs them, and the property DSL's built-in names compile to them.

pub mod duplicates;
pub mod expiry;
pub mod integrity;
pub mod ordering;
pub mod priority;
pub mod required;

use crate::violation::Violation;
use jmst_store::event::Event;
use std::fmt;

/// One incremental property checker, built-in or DSL-declared: fed every
/// event in canonical `(at, seq)` order, then finished into violations.
///
/// A checker that can convict mid-stream reports a running count in
/// `live_violations`, so the harness's fail-fast watcher sees it;
/// finish-only checkers leave the default `0`.
pub trait PropertyChecker: fmt::Debug + Send {
    /// Feeds one event in canonical `(at, seq)` order.
    fn observe(&mut self, event: &Event);

    /// Violations already decidable mid-stream. A non-zero value is
    /// definitive: `finish` reports at least these.
    fn live_violations(&self) -> usize {
        0
    }

    /// Estimated resident state, in bytes.
    fn state_bytes(&self) -> usize {
        0
    }

    /// Finishes the checker and reports its violations.
    fn finish(self: Box<Self>) -> Vec<Violation>;
}
