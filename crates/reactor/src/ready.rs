//! The readiness registry: O(ready) wake delivery.
//!
//! This generalises the load engine's old `DrainPump` design — a vector
//! of per-consumer dirty flags that a pump thread re-scanned in full on
//! every pass — into a ready *list*: a wake pushes the task index onto a
//! queue exactly once, and the worker pops only tasks that are actually
//! ready. Cost per wake is O(1) and cost per scheduling pass is
//! O(ready), independent of how many idle tasks exist.
//!
//! Duplicate suppression is a small per-task state machine
//! ([`TaskState`]): a wake of an `Idle` task enqueues it; a wake of a
//! task that is already `Scheduled` is a no-op; a wake that lands while
//! the task is `Running` flags it `Notified` so the executor reschedules
//! it after the poll instead of losing the event.
//!
//! A wake signals the worker's condvar only when the worker is parked on
//! it: a signal costs a `futex_wake` system call even with no waiter,
//! and an awake worker finds the task on its next pop anyway.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Lifecycle of one task with respect to the ready list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum TaskState {
    /// Parked: the next wake enqueues it.
    Idle = 0,
    /// Sitting in the ready queue; further wakes are no-ops.
    Scheduled = 1,
    /// Being polled right now; a wake moves it to `Notified`.
    Running = 2,
    /// Woken while running; the executor requeues it after the poll.
    Notified = 3,
    /// Completed; wakes are permanently ignored.
    Done = 4,
}

impl TaskState {
    fn from_u8(value: u8) -> Self {
        match value {
            0 => Self::Idle,
            1 => Self::Scheduled,
            2 => Self::Running,
            3 => Self::Notified,
            _ => Self::Done,
        }
    }
}

/// One worker's ready list: per-task wake states plus the queue of
/// ready task indices, shared with every [`Waker`] handed out.
pub struct ReadyList {
    states: Vec<AtomicU8>,
    queue: Mutex<Queue>,
    signal: Condvar,
}

/// The ready task indices, and whether the worker waits on `signal`.
#[derive(Default)]
struct Queue {
    tasks: VecDeque<u32>,
    parked: bool,
}

impl ReadyList {
    /// A ready list for `tasks` tasks, all starting `Idle`.
    pub(crate) fn new(tasks: usize) -> Self {
        Self {
            states: (0..tasks)
                .map(|_| AtomicU8::new(TaskState::Idle as u8))
                .collect(),
            queue: Mutex::new(Queue::default()),
            signal: Condvar::new(),
        }
    }

    /// Wakes `task`: enqueues it if idle, marks it notified if running,
    /// and does nothing if it is already queued or done. O(1).
    pub fn wake(&self, task: u32) {
        let state = &self.states[task as usize];
        let mut current = state.load(Ordering::Acquire);
        loop {
            let next = match TaskState::from_u8(current) {
                TaskState::Idle => TaskState::Scheduled,
                TaskState::Running => TaskState::Notified,
                TaskState::Scheduled | TaskState::Notified | TaskState::Done => return,
            };
            match state.compare_exchange_weak(
                current,
                next as u8,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    // Enqueue only on the Idle→Scheduled edge *we* made;
                    // the Running→Notified edge is the executor's to
                    // convert (re-checking state here would race with
                    // `park_or_requeue` and double-enqueue).
                    if next == TaskState::Scheduled {
                        let mut queue = self.queue.lock();
                        queue.tasks.push_back(task);
                        let parked = queue.parked;
                        drop(queue);
                        if parked {
                            self.signal.notify_one();
                        }
                    }
                    return;
                }
                Err(observed) => current = observed,
            }
        }
    }

    /// Pops the next ready task and marks it `Running`.
    pub(crate) fn pop(&self) -> Option<u32> {
        let task = self.queue.lock().tasks.pop_front()?;
        self.states[task as usize].store(TaskState::Running as u8, Ordering::Release);
        Some(task)
    }

    /// Called after a `Pending` poll: returns the task to `Idle`, unless
    /// a wake arrived mid-poll (`Notified`), in which case it is requeued
    /// and the method returns `true`.
    pub(crate) fn park_or_requeue(&self, task: u32) -> bool {
        let state = &self.states[task as usize];
        if state
            .compare_exchange(
                TaskState::Running as u8,
                TaskState::Idle as u8,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
        {
            return false;
        }
        // A wake landed while the task ran: requeue it ourselves.
        state.store(TaskState::Scheduled as u8, Ordering::Release);
        self.queue.lock().tasks.push_back(task);
        true
    }

    /// Forces `task` back onto the queue (used for an explicit yield).
    pub(crate) fn requeue(&self, task: u32) {
        self.states[task as usize].store(TaskState::Scheduled as u8, Ordering::Release);
        self.queue.lock().tasks.push_back(task);
    }

    /// Marks `task` complete; all later wakes are ignored.
    pub(crate) fn finish(&self, task: u32) {
        self.states[task as usize].store(TaskState::Done as u8, Ordering::Release);
    }

    /// `true` when no task is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.lock().tasks.is_empty()
    }

    /// Parks the caller until a wake arrives or `timeout` passes. The
    /// `parked` flag is set and cleared under the queue lock: a wake
    /// that takes the lock first leaves its task for the check below,
    /// and one that takes it after sees the flag and signals.
    pub(crate) fn park(&self, timeout: Duration) {
        let mut queue = self.queue.lock();
        if queue.tasks.is_empty() {
            queue.parked = true;
            self.signal.wait_for(&mut queue, timeout);
            queue.parked = false;
        }
    }
}

/// A cheap cloneable handle that wakes one task on one worker.
///
/// Hand it to anything that produces readiness events — a broker
/// endpoint's waker list, a consumer's `set_waker`, another thread —
/// and the task is re-polled soon after, exactly once per burst of
/// wakes.
#[derive(Clone)]
pub struct Waker {
    ready: Arc<ReadyList>,
    task: u32,
}

impl Waker {
    pub(crate) fn new(ready: Arc<ReadyList>, task: u32) -> Self {
        Self { ready, task }
    }

    /// Schedules the task for another poll.
    pub fn wake(&self) {
        self.ready.wake(self.task);
    }

    /// Adapts the waker into the `Arc<dyn Fn()>` callback shape used by
    /// [`Consumer::set_waker`](jmst-api) and the broker's endpoint waker
    /// list.
    pub fn into_callback(self) -> Arc<dyn Fn() + Send + Sync> {
        Arc::new(move || self.wake())
    }
}

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Waker").field("task", &self.task).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_enqueues_once_per_burst() {
        let ready = ReadyList::new(4);
        ready.wake(2);
        ready.wake(2);
        ready.wake(2);
        assert_eq!(ready.pop(), Some(2));
        assert_eq!(ready.pop(), None);
    }

    #[test]
    fn wake_during_run_requeues() {
        let ready = ReadyList::new(1);
        ready.wake(0);
        assert_eq!(ready.pop(), Some(0));
        // Mid-poll wake: task is Running, so the wake flags Notified …
        ready.wake(0);
        assert!(ready.is_empty());
        // … and park_or_requeue converts the flag into a requeue.
        assert!(ready.park_or_requeue(0));
        assert_eq!(ready.pop(), Some(0));
        assert!(!ready.park_or_requeue(0));
    }

    #[test]
    fn finished_tasks_ignore_wakes() {
        let ready = ReadyList::new(1);
        ready.wake(0);
        assert_eq!(ready.pop(), Some(0));
        ready.finish(0);
        ready.wake(0);
        assert_eq!(ready.pop(), None);
    }

    /// Wakers race the worker's park and unpark: each wakes its own task,
    /// then waits until the worker has served it. A wake that found the
    /// worker parked but did not signal it would leave the worker asleep
    /// for its whole park timeout.
    #[test]
    fn no_wake_is_lost_while_the_worker_parks_and_unparks() {
        use std::sync::atomic::{AtomicBool, AtomicU32};
        use std::time::Instant;
        const WAKERS: usize = 4;
        const ROUNDS: u32 = 2_000;
        const TIMEOUT: Duration = Duration::from_secs(5);
        let ready = Arc::new(ReadyList::new(WAKERS));
        let served: Arc<Vec<AtomicU32>> =
            Arc::new((0..WAKERS).map(|_| AtomicU32::new(0)).collect());
        let done = Arc::new(AtomicBool::new(false));
        let lost = Arc::new(AtomicBool::new(false));
        let worker = {
            let (ready, served) = (Arc::clone(&ready), Arc::clone(&served));
            let (done, lost) = (Arc::clone(&done), Arc::clone(&lost));
            std::thread::spawn(move || loop {
                while let Some(task) = ready.pop() {
                    served[task as usize].fetch_add(1, Ordering::AcqRel);
                    ready.park_or_requeue(task);
                }
                if done.load(Ordering::Acquire) {
                    return;
                }
                let parked = Instant::now();
                ready.park(TIMEOUT);
                if parked.elapsed() >= TIMEOUT {
                    lost.store(true, Ordering::Release);
                    return;
                }
            })
        };
        let wakers: Vec<_> = (0..WAKERS)
            .map(|task| {
                let (ready, served, lost) =
                    (Arc::clone(&ready), Arc::clone(&served), Arc::clone(&lost));
                std::thread::spawn(move || {
                    for round in 0..ROUNDS {
                        ready.wake(task as u32);
                        while served[task].load(Ordering::Acquire) <= round {
                            if lost.load(Ordering::Acquire) {
                                return;
                            }
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for waker in wakers {
            waker.join().unwrap();
        }
        done.store(true, Ordering::Release);
        ready.wake(0);
        worker.join().unwrap();
        assert!(
            !lost.load(Ordering::Acquire),
            "a parked worker missed a wake"
        );
    }

    #[test]
    fn waker_callback_round_trips() {
        let ready = Arc::new(ReadyList::new(2));
        let callback = Waker::new(Arc::clone(&ready), 1).into_callback();
        callback();
        assert_eq!(ready.pop(), Some(1));
    }
}
