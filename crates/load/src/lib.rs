//! Open-loop load generation for the JMS test harness.
//!
//! The classic closed-loop driver — one thread per producer, next send
//! scheduled after the previous completes — cannot scale past a few
//! thousand clients and, worse, *coordinates with the system under
//! test*: when the broker stalls, the driver stops sending, and the
//! stall never shows up in the latency distribution (coordinated
//! omission). This crate inverts both properties:
//!
//! * **Virtual clients.** A client is a poll-driven task (arrival
//!   generator, sequence counter, next intended send time), not a
//!   thread. 1M clients are mounted directly on the
//!   [`jmst_reactor`] worker pool's timing wheels, so a whole sweep
//!   fits in one process.
//! * **Open loop.** The next arrival is scheduled from the *previous
//!   intended* time plus the arrival gap — never from "now" — and
//!   latency is measured from the intended time. Back-pressure delays
//!   the send but not the schedule, so stalls appear in the recorded
//!   distribution instead of silently thinning it.
//!
//! The send side is [`LoadEngine`] over a caller-supplied
//! [`Transport`]; the receive side is [`DrainPump`], whose consumers
//! are reactor tasks woken through the ready list — wake cost is
//! O(ready consumers), not a scan of every endpoint. Both report into
//! the mergeable [`jmst_store::LogHistogram`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod drain;
pub mod engine;

pub use client::{ClientSpec, SendDisposition, Transport};
pub use drain::{DrainPump, DrainReport, INTENDED_NS_PROP};
pub use engine::{ClockSource, EngineReport, LoadEngine};
/// Re-export of the timing wheel, which moved into [`jmst_reactor`]
/// (the reactor's timer core) and is still part of this crate's public
/// vocabulary.
pub use jmst_reactor::TimingWheel;
