//! # jmst — automated analysis of JMS-style message-oriented middleware
//!
//! A Rust reproduction of Kuo & Palmer, *Automated Analysis of Java
//! Message Service Providers* (Middleware 2001): a test harness that
//! drives JMS-semantics message brokers through configurable workloads,
//! logs every event, and analyses the traces for the paper's safety
//! properties and performance measures.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`api`] — the JMS API model (messages, sessions, providers,
//!   selectors);
//! * [`broker`] — the reference in-process broker with fault injection
//!   and crash/recovery;
//! * [`sim`] — the discrete-event simulation substrate and queueing
//!   models of the paper's Provider I / Provider II;
//! * [`store`] — execution traces, event sinks, and the campaign
//!   journal;
//! * [`core`] — the formal model: Definitions 1–7, Properties 1–5, and
//!   the §3.2 performance analysis;
//! * [`harness`] — test specs, the live runner, crash injection, and
//!   the daemon prince;
//! * [`props`] — the QoS property DSL: parse, statically verify, and
//!   compile named assertions onto the streaming checker core;
//! * [`reactor`] — the readiness-driven scheduler under the broker
//!   endpoints, harness drivers, and load engine: poll tasks, O(ready)
//!   wake delivery, timing-wheel timers;
//! * [`corpus`] — the scenario-corpus engine: cross-product generator,
//!   coverage-guided fuzzer, and the generated fault-detection matrix.
//!
//! # Examples
//!
//! ```
//! use jmst::prelude::*;
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let spec = TestSpec::new("quick")
//!     .with_periods(
//!         Duration::from_millis(20),
//!         Duration::from_millis(100),
//!         Duration::from_secs(1),
//!     )
//!     .node(
//!         NodeSpec::new("n0")
//!             .producer(ProducerSpec::steady(Destination::queue("q"), 100.0, 64))
//!             .consumer(ConsumerSpec::auto(Destination::queue("q"))),
//!     );
//! let trace = ThreadedRunner::new().run(Arc::new(ReferenceBroker::new()), None, &spec)?;
//! assert!(Analyzer::new().analyze(&trace).passed());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use jmst_api as api;
pub use jmst_broker as broker;
pub use jmst_core as core;
pub use jmst_corpus as corpus;
pub use jmst_harness as harness;
pub use jmst_props as props;
pub use jmst_reactor as reactor;
pub use jmst_sim as sim;
pub use jmst_store as store;

/// One-stop imports for harness users.
pub mod prelude {
    pub use jmst_api::prelude::*;
    pub use jmst_broker::{BrokerConfig, FaultSpec, ReferenceBroker};
    pub use jmst_core::{
        AnalysisConfig, AnalysisReport, Analyzer, ExpiryModel, PropertyKind, StreamingAnalyzer,
    };
    pub use jmst_harness::prelude::*;
    pub use jmst_sim::{ArrivalProcess, PubSubScenario, PublisherSpec, ServiceModel};
    pub use jmst_store::{Recorder, Trace};
}
