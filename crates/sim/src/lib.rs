//! # jmst-sim — simulation substrate
//!
//! Virtual time, workload distributions, and queueing models of JMS
//! providers. This crate supplies the pieces the paper's evaluation
//! needed real hardware and commercial products for:
//!
//! * [`clock`] — a shareable [`VirtualClock`]; the reactor jumps it from
//!   deadline to deadline, and the reference broker can run on it in
//!   tests;
//! * [`dist`] / [`arrival`] — seeded distributions and the steady / burst /
//!   Poisson send profiles of the paper's §3.2;
//! * [`service`] — queueing models reproducing the overload behaviour of
//!   the paper's Provider I (plateau) and Provider II (thrashing), and
//!   the one [`ServiceQueue`] that runs them.
//!
//! There is no event loop here: the Figure 2 and Figure 3 runs drive a
//! [`ServiceQueue`] from the reactor in virtual time
//! (`jmst_harness::model`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arrival;
pub mod clock;
pub mod dist;
pub mod service;

pub use arrival::{ArrivalGen, ArrivalProcess};
pub use clock::VirtualClock;
pub use dist::{DurationDist, SimRng};
pub use service::{ServiceModel, ServiceQueue};
