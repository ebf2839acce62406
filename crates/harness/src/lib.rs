//! # jmst-harness — the automated test harness
//!
//! The distributed test harness of the paper's §4, in-process: test
//! specifications ([`spec`]), producer/consumer drivers hosted as
//! reactor tasks, the coordinated runner ([`runner`]) with crash
//! injection, the
//! scheduling/collection/analysis daemon prince ([`prince`]), and a
//! virtual-time simulation runner ([`simrun`]) that feeds the same
//! analysis pipeline for the performance figures.
//!
//! Where the paper distributes tests over JVMs coordinated by RMI, this
//! harness runs drivers on a reactor worker pool coordinated by channels
//! and atomics — the control plane still shares nothing with the
//! middleware under test.
//!
//! # Examples
//!
//! Run a small test against the reference broker and verify it:
//!
//! ```
//! use jmst_harness::prelude::*;
//! use jmst_broker::ReferenceBroker;
//! use jmst_core::Analyzer;
//! use jmst_api::destination::Destination;
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let spec = TestSpec::new("doc-smoke")
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
//! let report = Analyzer::new().analyze(&trace);
//! assert!(report.passed());
//! # Ok::<(), jmst_harness::HarnessError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod drivers;
pub mod error;
pub mod lint;
pub mod prince;
pub mod princed;
pub mod process;
pub mod proto;
mod reactor_drivers;
pub mod retry;
pub mod runner;
pub mod scenario_text;
pub mod signals;
pub mod simrun;
pub mod spec;

pub use error::HarnessError;
pub use lint::{lint_props, lint_spec, LintFinding, LintReport, Severity};
pub use prince::{CampaignReport, DaemonPrince, TestOutcome, TestResult};
pub use princed::ProcessPrince;
pub use process::{ExitReason, ProcessRegistry, RespawnSchedule, WorkerCommand};
pub use proto::{ProtoError, WireMessage, WireOutcome};
pub use retry::RetryPolicy;
pub use runner::{BrokerAdmin, ThreadedRunner};
pub use scenario_text::{parse_spec, serialize_spec, ConfigError, SerializeError};
pub use spec::{
    ConsumerSpec, CrashPlan, FaultPlan, NodeSpec, ProducerSpec, ReconnectSpec, Subscription,
    TestSpec, TransportMode, TransportSpec,
};

/// Convenient glob-import for harness users.
pub mod prelude {
    pub use crate::lint::{lint_spec, LintFinding, LintReport, Severity};
    pub use crate::prince::{CampaignReport, DaemonPrince, TestOutcome, TestResult};
    pub use crate::retry::RetryPolicy;
    pub use crate::runner::{BrokerAdmin, ThreadedRunner};
    pub use crate::scenario_text::{parse_spec, serialize_spec, SerializeError};
    pub use crate::spec::{
        ConsumerSpec, CrashPlan, FaultPlan, NodeSpec, ProducerSpec, ReconnectSpec, Subscription,
        TestSpec, TransportMode, TransportSpec,
    };
}
