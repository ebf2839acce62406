//! # jmst-core — the formal JMS behaviour model and trace analysis
//!
//! This crate is the reproduction of the paper's contribution proper:
//! a formal model of JMS behaviour derived from group-communication-system
//! properties, evaluated event by event over execution traces.
//!
//! The paper's Definitions 1–7 are documented where they are evaluated:
//! Definitions 1–2 (sent/received messages) on [`stream::TxResolver`],
//! Definitions 3–6 (next message, last close, last/first message) on
//! [`properties::required::RequiredChecker`], and Definition 7
//! (possibly-received messages) on [`defs::possibly_received`].
//!
//! * [`defs`] — the per-record predicates the checkers share
//!   (destination coverage, selector evaluation, Definition 7);
//! * [`properties`] — the safety checkers: Property 1 delivery integrity,
//!   Property 2 required messages, Property 3 ordering, Property 4
//!   priority, Property 5 expiry (with the simple, histogram, and normal
//!   expectation models), plus the duplicate-delivery check;
//! * [`perf`] — the §3.2 performance measures: producer/consumer
//!   throughput in messages and bytes per second, delay min/max/mean/σ,
//!   and the per-producer / per-consumer unfairness measures;
//! * [`analyzer`] — [`StreamingAnalyzer`] feeds every event through one
//!   table of [`PropertyChecker`]s in one pass; [`Analyzer`] is the batch
//!   driver that replays a recorded trace through it and builds an
//!   [`AnalysisReport`];
//! * [`stream`] — the building blocks of the incremental checkers:
//!   transaction resolution, run-window gating, selector tracking;
//! * [`config`] / [`violation`] — knobs and findings.
//!
//! # Examples
//!
//! ```
//! use jmst_core::{Analyzer, AnalysisConfig};
//! use jmst_store::Trace;
//!
//! let analyzer = Analyzer::with_config(AnalysisConfig::all_checks());
//! let report = analyzer.analyze(&Trace::new());
//! assert!(report.passed());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analyzer;
pub mod config;
pub mod defs;
pub mod perf;
pub mod properties;
pub mod replay;
pub mod report;
pub mod stream;
pub mod violation;

#[cfg(test)]
pub(crate) mod test_support;

pub use analyzer::{
    AnalysisReport, Analyzer, CheckerRegistry, NamedPropertyOutcome, PropertyChecker,
    StreamingAnalyzer,
};
pub use config::{AnalysisConfig, ExpiryConfig, ExpiryModel, PriorityConfig};
pub use perf::{PerformanceReport, Throughput};
pub use properties::expiry::ExpiryBreakdown;
pub use replay::{partition_journal, replay_events, InterruptedTest, JournalReplay, ReplayedTest};
pub use violation::{PropertyKind, Violation};
