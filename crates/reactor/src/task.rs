//! The task model: poll-driven state machines.
//!
//! A [`Task`] is polled with a [`Context`] and either completes
//! (`Poll::Ready`) or parks (`Poll::Pending`) after arranging its own
//! wake-up — a timer via [`Context::wake_after`], an external readiness
//! event via [`Context::waker`], or an immediate requeue via
//! [`Context::yield_now`]. A task that returns `Pending` without
//! arranging any of the three is never polled again (the executor does
//! not spin on idle tasks — that is the whole point).

use crate::ready::{ReadyList, Waker};
use crate::wheel::TimingWheel;
use std::any::Any;
use std::sync::Arc;
use std::time::Duration;

/// Result of polling a [`Task`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Poll {
    /// The task has finished and is dropped.
    Ready,
    /// The task parked after arranging its own wake-up.
    Pending,
}

/// A poll-driven state machine scheduled by a [`Reactor`](crate::Reactor).
pub trait Task: Send {
    /// Advances the task as far as it can without blocking.
    ///
    /// Must not block: do a bounded amount of work, arrange a wake-up,
    /// and return. When [`Context::stopping`] is `true`, the task must
    /// finish (flush, close, report) within a bounded number of polls.
    fn poll(&mut self, cx: &mut Context<'_>) -> Poll;
}

/// The per-poll capability handle: the clock, timers, waker minting,
/// and the worker-local state slot.
pub struct Context<'a> {
    pub(crate) now: Duration,
    pub(crate) stopping: bool,
    pub(crate) timers: &'a mut TimingWheel,
    pub(crate) ready: &'a Arc<ReadyList>,
    pub(crate) task: u32,
    pub(crate) worker: usize,
    pub(crate) state: &'a mut Option<Box<dyn Any + Send>>,
    pub(crate) yielded: bool,
}

impl Context<'_> {
    /// Time since the reactor's run epoch, sampled when this poll began
    /// (in the shutdown sweep, when the sweep began).
    pub fn now(&self) -> Duration {
        self.now
    }

    /// [`Context::now`] as nanoseconds — the unit timer deadlines use.
    pub fn now_nanos(&self) -> u64 {
        self.now.as_nanos() as u64
    }

    /// `true` once the reactor is shutting down (stop flag or run
    /// deadline); the task must complete promptly.
    pub fn stopping(&self) -> bool {
        self.stopping
    }

    /// Index of the worker this task is pinned to.
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// Schedules a one-shot wake at `deadline_nanos` from the epoch.
    /// Deadlines in the past fire on the next scheduling pass.
    pub fn wake_at_nanos(&mut self, deadline_nanos: u64) {
        self.timers.schedule(deadline_nanos, self.task);
    }

    /// Schedules a one-shot wake `delay` from now.
    pub fn wake_after(&mut self, delay: Duration) {
        let deadline = self.now_nanos().saturating_add(delay.as_nanos() as u64);
        self.timers.schedule(deadline, self.task);
    }

    /// Mints a waker for this task, usable from any thread.
    pub fn waker(&self) -> Waker {
        Waker::new(Arc::clone(self.ready), self.task)
    }

    /// Requeues this task immediately: return `Pending` afterwards and
    /// the task is polled again on the same pass, after its siblings.
    pub fn yield_now(&mut self) {
        self.yielded = true;
    }

    /// Borrows the worker-local state slot downcast to `T`, if the slot
    /// was seeded via [`Reactor::set_worker_state`](crate::Reactor) with
    /// that type. Tasks pinned to one worker share this slot, so a
    /// thousand virtual clients can multiplex one transport.
    pub fn state_mut<T: Any + Send>(&mut self) -> Option<&mut T> {
        self.state.as_mut()?.downcast_mut::<T>()
    }
}
