//! # jmst-store — execution-trace storage and event transport
//!
//! The paper's harness inserts test logs into a SQL database (Microsoft
//! Access over JDBC) and analyses them with SQL statements. Its §4.1
//! lesson is that per-event loading was the bottleneck and that the
//! daemon prince can compute the statistics itself; this crate keeps the
//! log and its transport, and every analysis streams over it in
//! `jmst-core`:
//!
//! * [`event`] — the trace event schema (sends, receives, lifecycles,
//!   transaction outcomes, crashes, phase markers);
//! * [`trace`] — the ordered log and the thread-safe [`Recorder`] the
//!   harness writes through;
//! * [`sink`] — live [`EventSink`]s / [`EventStream`]s: the recorder
//!   feeds attached sinks as events happen, so the in-memory batch trace,
//!   a streaming analyzer behind a bounded channel, and the disk/CSV
//!   spill formats are all consumers of one emission path;
//! * [`journal`] — the append-only, HMAC-chained campaign journal the
//!   multi-process prince writes so interrupted campaigns survive and
//!   resume;
//! * [`stats`] — summary statistics and delay histograms;
//! * [`csv`] — exports for human inspection.
//!
//! The §4.1 ablation (per-event database-style loading vs. streaming
//! aggregation) is reproduced in the `store_ablation` benchmark.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod csv;
pub mod disk;
pub mod event;
pub mod journal;
pub mod sink;
pub mod stats;
pub mod trace;

pub use disk::DiskError;
pub use event::{Event, EventKind, MessageRecord, Phase};
pub use journal::{
    Journal, JournalError, JournalKey, JournalRecord, JournalWriter, Salvage, VerdictRecord,
};
pub use sink::{
    channel, ChannelSink, CsvSink, EventSink, EventStream, JsonlSink, ReorderBuffer, TeeSink,
    VecSink,
};
pub use stats::{DelayHistogram, LogHistogram, SummaryStats};
pub use trace::{DuplicateOrdKey, NodeRecorder, Recorder, Trace};
