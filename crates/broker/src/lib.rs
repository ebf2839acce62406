//! # jmst-broker — a reference JMS-semantics broker with fault injection
//!
//! An in-process message-oriented-middleware implementation of the
//! [`jmst-api`](jmst_api) provider traits, covering the full behaviour the
//! paper's analysis model tests: point-to-point queues, publish/subscribe
//! topics, durable subscriptions, transacted sessions, the three
//! acknowledgement modes, ten-level priority, time-to-live expiry,
//! persistent delivery, and crash/recovery.
//!
//! Correct by default; [`BrokerConfig`] switches and the probabilistic
//! [`FaultSpec`] create the known-faulty providers the fault-detection
//! experiments run the harness against.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
mod connection;
mod core;
pub mod endpoint;
pub mod faults;
mod prefilter;
mod provider;
mod session;

pub use config::BrokerConfig;
pub use connection::BrokerConnection;
pub use endpoint::EndpointStats;
pub use faults::{FaultCounters, FaultSpec, InvalidFaultSpec};
pub use provider::ReferenceBroker;
pub use session::{BrokerConsumer, BrokerProducer, BrokerSession};
