//! # jmst-reactor
//!
//! A small readiness-driven scheduler — the shared core under the
//! broker endpoints, the harness drivers, and the open-loop load
//! engine. The build environment is offline (no tokio, no mio), so this
//! is a from-scratch reactor specialised to what the workspace needs:
//!
//! * **Poll-driven tasks** ([`Task`]): state machines advanced by
//!   non-blocking `poll` calls. One task per producer driver, consumer
//!   driver, or virtual client — tasks cost a heap allocation, not an
//!   OS thread, which is how `throughput_curve` sweeps to 1M clients.
//! * **O(ready) wake delivery** ([`ReadyList`], [`Waker`]): the
//!   generalisation of the load engine's old dirty-flag scan. A wake
//!   enqueues the task index once; a scheduling pass touches only ready
//!   tasks, never the idle population.
//! * **Timing-wheel timers** ([`TimingWheel`]): O(1) one-shot deadlines
//!   (moved here from `jmst-load`, which re-exports it).
//! * **A fixed worker pool** ([`Reactor`]): tasks are pinned to a
//!   worker at spawn, so each is polled by exactly one thread and can
//!   share that worker's state slot (e.g. one transport for thousands
//!   of clients) without locking.
//! * **One clock** ([`RunClock`]): real time by default ([`WallClock`]);
//!   on a clock that can be moved, a one-worker reactor jumps from timer
//!   to timer in virtual time instead of parking — how the service-model
//!   runs behind Figures 2 and 3 execute.
//!
//! ```
//! use jmst_reactor::{Context, Poll, Reactor, Task};
//! use std::time::Duration;
//!
//! struct Ticker { left: u32 }
//!
//! impl Task for Ticker {
//!     fn poll(&mut self, cx: &mut Context<'_>) -> Poll {
//!         if self.left == 0 || cx.stopping() {
//!             return Poll::Ready;
//!         }
//!         self.left -= 1;
//!         cx.wake_after(Duration::from_millis(1));
//!         Poll::Pending
//!     }
//! }
//!
//! let mut reactor = Reactor::new(2);
//! for _ in 0..100 {
//!     reactor.spawn(Box::new(Ticker { left: 3 }));
//! }
//! let outcome = reactor.run(None, None);
//! assert_eq!(outcome.completed, 100);
//! ```

#![warn(missing_docs)]

mod clock;
mod executor;
mod ready;
mod slack;
mod task;
mod wheel;

pub use clock::{RunClock, WallClock};
pub use executor::{Reactor, RunOutcome};
pub use ready::{ReadyList, Waker};
pub use task::{Context, Poll, Task};
pub use wheel::TimingWheel;
