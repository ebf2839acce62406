//! # jmst-props — the QoS property DSL
//!
//! The paper analyzes providers against a fixed set of hard-coded
//! properties; this crate makes that set open-ended. A scenario (or a
//! standalone `.prop` file) declares named assertions in a small
//! line-based language — per-message deadlines, latency/throughput SLO
//! windows, fairness bounds, receive-count bounds, plus the name of every
//! built-in checker — and each declaration is:
//!
//! 1. **parsed** ([`decl`]) into a [`PropertySpec`];
//! 2. **statically verified** ([`analyze`]) against the trace-event
//!    schema and the scenario's own configuration — ill-typed guards,
//!    vacuous guards, spec-unsatisfiable bounds, and non-monitorable
//!    properties are rejected or flagged *before any driver starts*;
//! 3. **compiled** ([`compile`]) onto the streaming checker core: each
//!    surviving property becomes a [`jmst_core::PropertyChecker`], one
//!    more row of the analyzer's table after the built-ins, so live
//!    watching, `fail_fast`, batch replay, and divergence checking work
//!    on DSL properties unchanged. A built-in name compiles to the
//!    built-in checker itself.
//!
//! # Example
//!
//! ```
//! use jmst_props::{analyze_properties, compile_registry, parse_properties, SpecContext};
//!
//! let properties = parse_properties(
//!     "late = deadline 100ms\ntail = latency p99 <= 250ms\n",
//! )
//! .expect("parses");
//! let diagnostics = analyze_properties(&properties, &SpecContext::default());
//! assert!(diagnostics.iter().all(|d| !d.error));
//! let registry = compile_registry(&properties);
//! assert_eq!(registry.len(), 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analyze;
pub mod compile;
pub mod decl;

pub use analyze::{analyze_properties, Monitorability, PropDiagnostic, SpecContext};
pub use compile::{compile, compile_registry};
pub use decl::{
    fmt_duration, parse_duration, parse_properties, render_properties, CountOp, Guard, LatencyStat,
    PropParseError, PropertyDecl, PropertySpec,
};
