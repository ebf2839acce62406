//! The worker-pool executor.
//!
//! A [`Reactor`] owns a fixed set of workers. Every task is pinned to
//! one worker at spawn time (explicitly, or round-robin), so a task is
//! only ever polled by one thread and needs no internal locking against
//! itself. Each worker runs a scheduling loop over three sources of
//! readiness:
//!
//! 1. its [`ReadyList`] — tasks woken by timers, by other tasks, or by
//!    external threads (broker sessions firing endpoint wakers);
//! 2. its [`TimingWheel`] — one-shot deadlines tasks armed via
//!    [`Context::wake_after`]/[`Context::wake_at_nanos`];
//! 3. an explicit [`Context::yield_now`] requeue.
//!
//! The loop pops *only ready* tasks; idle tasks cost nothing per pass.
//! When the queue is empty the worker parks until the next timer
//! deadline or an external wake, bounded by a short slice so stop flags
//! are observed promptly — unless its [`RunClock`] can be moved. Then it
//! moves the clock to that deadline and carries on, so a run in virtual
//! time fires every timer at its exact deadline and costs only its
//! work. Workers cannot agree that all of them are idle, so a movable
//! clock needs a reactor with one worker.
//!
//! A task starts in one of two ways. [`Reactor::spawn`]/[`Reactor::spawn_on`]
//! give it an initial poll, where it can register wakers or arm its own
//! first timer. [`Reactor::spawn_at`] arms its first timer at spawn and
//! skips that poll: each worker schedules those deadlines into its wheel
//! on its own thread, in spawn order, and only once every wheel is built
//! is the shared epoch taken. A million pre-armed virtual clients
//! therefore cost a million O(1) wheel inserts before the clock starts,
//! not a million polls after.
//!
//! A timed park on real time may wake up to the kernel's timer slack
//! after its deadline (50 µs by default on Linux). A reactor built
//! [`with_exact_timers`](Reactor::with_exact_timers) has each worker set
//! its own thread's slack to 1 ns before the start line, so its timers
//! fire at their deadlines.

use crate::clock::{RunClock, WallClock};
use crate::ready::ReadyList;
use crate::slack;
use crate::task::{Context, Poll, Task};
use crate::wheel::TimingWheel;
use std::any::Any;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::Duration;

/// Longest a worker parks before re-checking stop flags and deadlines.
const PARK_SLICE: Duration = Duration::from_millis(10);
/// Pause between shutdown sweeps while tasks finish up.
const DRAIN_SLICE: Duration = Duration::from_millis(1);
/// Shutdown sweeps before remaining tasks are abandoned as unfinished
/// (a task violating the bounded-shutdown contract must not hang the
/// process).
const MAX_DRAIN_SWEEPS: u32 = 10_000;
/// Most polls in one scheduling pass.
const PASS_BUDGET: usize = 4096;

/// What one reactor run did.
#[derive(Debug)]
pub struct RunOutcome {
    /// Tasks that returned [`Poll::Ready`].
    pub completed: usize,
    /// Tasks still alive when the run stopped (stop flag, deadline, or a
    /// task that ignored the shutdown contract).
    pub unfinished: usize,
    /// Total `poll` calls across all workers — the load-proportionality
    /// measure the O(ready) regression test asserts on.
    pub polls: u64,
    /// Clock time from the run's epoch to the last worker's exit: real
    /// time on the default [`WallClock`], virtual time on a clock that
    /// the reactor moves. The epoch is taken once every worker has built
    /// its timer wheel, so set-up of pre-armed tasks is not counted;
    /// `run_for` counts from the same epoch.
    pub elapsed: Duration,
    /// The worker-local state slots, in worker order, for the caller to
    /// downcast and harvest (reports, transports, …).
    pub worker_states: Vec<Option<Box<dyn Any + Send>>>,
}

/// A readiness-driven scheduler: spawn tasks, then [`run`](Reactor::run).
pub struct Reactor {
    workers: Vec<WorkerSeed>,
    tick: Duration,
    slots: usize,
    next_worker: usize,
    clock: Arc<dyn RunClock>,
    exact_timers: bool,
}

/// Everything one worker starts with.
#[derive(Default)]
struct WorkerSeed {
    tasks: Vec<Box<dyn Task>>,
    /// Indices of the tasks that get an initial poll, in spawn order.
    initial: Vec<u32>,
    /// `(first deadline, task index)` of the pre-armed tasks.
    armed: Vec<(u64, u32)>,
    state: Option<Box<dyn Any + Send>>,
}

impl WorkerSeed {
    /// Appends `task`, returning its index on this worker.
    fn push(&mut self, task: Box<dyn Task>) -> u32 {
        assert!(
            self.tasks.len() < u32::MAX as usize,
            "too many tasks on one worker"
        );
        self.tasks.push(task);
        (self.tasks.len() - 1) as u32
    }
}

impl Reactor {
    /// A reactor with `workers` worker threads (clamped to at least 1)
    /// and the default 1 ms × 4096-slot timer wheel per worker.
    pub fn new(workers: usize) -> Self {
        Self {
            workers: (0..workers.max(1)).map(|_| WorkerSeed::default()).collect(),
            tick: Duration::from_millis(1),
            slots: 4096,
            next_worker: 0,
            clock: Arc::new(WallClock::new()),
            exact_timers: false,
        }
    }

    /// Runs on `clock` instead of real time. A clock that can be moved
    /// (see [`RunClock::advance_to`]) is jumped to each next timer
    /// deadline whenever nothing is ready.
    pub fn with_clock(mut self, clock: Arc<dyn RunClock>) -> Self {
        self.clock = clock;
        self
    }

    /// Makes every worker wake at its timer deadlines rather than up to
    /// the kernel's timer slack later: each worker thread sets its own
    /// slack to 1 ns before the epoch (`PR_SET_TIMERSLACK` on Linux; a
    /// no-op elsewhere). The setting ends with the worker thread.
    ///
    /// Meant for tasks that arm absolute deadlines, where lateness is
    /// pure error. Tasks that pace themselves with
    /// [`Context::wake_after`] from *now* run slower under the default
    /// slack, and would change speed with it. A worker on a clock the
    /// reactor moves never parks, so it leaves its slack alone.
    pub fn with_exact_timers(mut self) -> Self {
        self.exact_timers = true;
        self
    }

    /// Overrides the per-worker timer wheel geometry.
    ///
    /// # Panics
    ///
    /// Panics if `tick` is zero or `slots` is zero (wheel invariants).
    pub fn with_timer_resolution(mut self, tick: Duration, slots: usize) -> Self {
        assert!(!tick.is_zero(), "tick width must be positive");
        assert!(slots > 0, "need at least one slot");
        self.tick = tick;
        self.slots = slots;
        self
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Seeds worker `worker`'s shared state slot (see
    /// [`Context::state_mut`]).
    pub fn set_worker_state(&mut self, worker: usize, state: Box<dyn Any + Send>) {
        self.workers[worker].state = Some(state);
    }

    /// Spawns `task` on the least-recently-used worker (round-robin).
    /// Returns the worker it was pinned to.
    pub fn spawn(&mut self, task: Box<dyn Task>) -> usize {
        let worker = self.next_worker;
        self.next_worker = (self.next_worker + 1) % self.workers.len();
        self.spawn_on(worker, task);
        worker
    }

    /// Spawns `task` pinned to `worker`. It is first polled as soon as
    /// the run starts, in spawn order.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range or the worker already holds
    /// `u32::MAX` tasks.
    pub fn spawn_on(&mut self, worker: usize, task: Box<dyn Task>) {
        let seed = &mut self.workers[worker];
        let index = seed.push(task);
        seed.initial.push(index);
    }

    /// Spawns `task` pinned to `worker` with its first timer already
    /// armed at `deadline_nanos` from the run's epoch: the task gets no
    /// initial poll, and is first polled when that timer fires (or by
    /// the shutdown sweep, if the run ends first). Pre-armed tasks fire
    /// in the order [`Context::wake_at_nanos`] calls made in spawn order
    /// would give.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range or the worker already holds
    /// `u32::MAX` tasks.
    pub fn spawn_at(&mut self, worker: usize, deadline_nanos: u64, task: Box<dyn Task>) {
        let seed = &mut self.workers[worker];
        let index = seed.push(task);
        seed.armed.push((deadline_nanos, index));
    }

    /// Runs every spawned task to completion, or until `stop` is set or
    /// `run_for` elapses — whichever comes first. On shutdown each live
    /// task is swept with [`Context::stopping`] `true` until it
    /// completes.
    ///
    /// Each worker builds its ready list and timer wheel on its own
    /// thread; the epoch that [`Context::now`], timer deadlines,
    /// `run_for` and [`RunOutcome::elapsed`] count from is taken once
    /// all of them have.
    ///
    /// # Panics
    ///
    /// Panics if the clock can be moved and there is more than one
    /// worker.
    pub fn run(self, stop: Option<Arc<AtomicBool>>, run_for: Option<Duration>) -> RunOutcome {
        // Moving a clock to where it already is changes nothing, and
        // tells whether it can be moved at all.
        let movable = self.clock.advance_to(self.clock.now_nanos());
        assert!(
            self.workers.len() == 1 || !movable,
            "a clock the reactor moves needs exactly one worker, not {}",
            self.workers.len()
        );
        let epoch = Arc::new(OnceLock::new());
        let start = Arc::new(Barrier::new(self.workers.len()));
        let halt = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::with_capacity(self.workers.len());
        for (worker, seed) in self.workers.into_iter().enumerate() {
            let run = WorkerRun {
                start: Arc::clone(&start),
                epoch: Arc::clone(&epoch),
                clock: Arc::clone(&self.clock),
                tick: self.tick,
                slots: self.slots,
                stop: stop.clone(),
                run_for,
                halt: Arc::clone(&halt),
                exact_timers: self.exact_timers && !movable,
            };
            handles.push(std::thread::spawn(move || worker_loop(worker, seed, run)));
        }
        let mut outcome = RunOutcome {
            completed: 0,
            unfinished: 0,
            polls: 0,
            elapsed: Duration::ZERO,
            worker_states: Vec::with_capacity(handles.len()),
        };
        for handle in handles {
            let done = handle.join().expect("reactor worker panicked");
            outcome.completed += done.completed;
            outcome.unfinished += done.unfinished;
            outcome.polls += done.polls;
            outcome.worker_states.push(done.state);
        }
        let epoch = *epoch.get().expect("workers took the epoch");
        outcome.elapsed = Duration::from_nanos(self.clock.now_nanos().saturating_sub(epoch));
        outcome
    }
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("workers", &self.workers.len())
            .field(
                "tasks",
                &self
                    .workers
                    .iter()
                    .map(|seed| seed.tasks.len())
                    .collect::<Vec<_>>(),
            )
            .field("tick", &self.tick)
            .field("slots", &self.slots)
            .field("clock", &self.clock)
            .field("exact_timers", &self.exact_timers)
            .finish()
    }
}

struct WorkerDone {
    completed: usize,
    unfinished: usize,
    polls: u64,
    state: Option<Box<dyn Any + Send>>,
}

/// The run-wide settings and the start line each worker shares.
struct WorkerRun {
    /// Released once every worker has built its wheel.
    start: Arc<Barrier>,
    /// The shared epoch, in `clock` nanoseconds, taken by the first
    /// worker past `start`.
    epoch: Arc<OnceLock<u64>>,
    clock: Arc<dyn RunClock>,
    tick: Duration,
    slots: usize,
    stop: Option<Arc<AtomicBool>>,
    run_for: Option<Duration>,
    halt: Arc<AtomicBool>,
    /// Set this worker thread's timer slack to 1 ns before the start.
    exact_timers: bool,
}

fn worker_loop(worker: usize, seed: WorkerSeed, run: WorkerRun) -> WorkerDone {
    let WorkerSeed {
        tasks,
        initial,
        armed,
        mut state,
    } = seed;
    let WorkerRun {
        start,
        epoch,
        clock,
        tick,
        slots,
        stop,
        run_for,
        halt,
        exact_timers,
    } = run;
    let ready = Arc::new(ReadyList::new(tasks.len()));
    let mut slots_vec: Vec<Option<Box<dyn Task>>> = tasks.into_iter().map(Some).collect();
    let mut timers = TimingWheel::new(tick, slots);
    timers.bulk_load(armed);
    for index in initial {
        ready.wake(index);
    }
    let mut live = slots_vec.len();
    let mut completed = 0usize;
    let mut polls = 0u64;
    let mut due = Vec::new();
    if exact_timers {
        slack::exact_timers();
    }

    // The clock starts only once every worker's wheel is built, so the
    // first pre-armed deadline fires on time.
    start.wait();
    let epoch = *epoch.get_or_init(|| clock.now_nanos());
    let elapsed_nanos = || clock.now_nanos().saturating_sub(epoch);
    let elapsed = || Duration::from_nanos(elapsed_nanos());

    let should_halt = |elapsed: Duration| {
        halt.load(Ordering::Acquire)
            || stop
                .as_ref()
                .is_some_and(|flag| flag.load(Ordering::Acquire))
            || run_for.is_some_and(|limit| elapsed >= limit)
    };

    while live > 0 {
        let now = elapsed();
        if should_halt(now) {
            // Tell the sibling workers too: one stop reason (e.g. this
            // worker's deadline check) halts the whole reactor.
            halt.store(true, Ordering::Release);
            break;
        }

        // Fire due timers into the ready list (dedup via TaskState).
        timers.advance(now.as_nanos() as u64, &mut due);
        for (_, task) in due.drain(..) {
            ready.wake(task);
        }

        // Drain the ready queue: O(ready), idle tasks untouched. The
        // budget bounds one pass so yield-looping tasks cannot starve
        // timer fires or the halt check above.
        let mut ran_any = false;
        let mut budget = PASS_BUDGET;
        while let Some(index) = ready.pop() {
            if budget == 0 {
                ready.requeue(index);
                break;
            }
            budget -= 1;
            let slot = &mut slots_vec[index as usize];
            let Some(task) = slot.as_mut() else {
                continue;
            };
            ran_any = true;
            polls += 1;
            let mut cx = Context {
                now: elapsed(),
                stopping: false,
                timers: &mut timers,
                ready: &ready,
                task: index,
                worker,
                state: &mut state,
                yielded: false,
            };
            match task.poll(&mut cx) {
                Poll::Ready => {
                    ready.finish(index);
                    *slot = None;
                    live -= 1;
                    completed += 1;
                }
                Poll::Pending => {
                    if cx.yielded {
                        ready.requeue(index);
                    } else {
                        ready.park_or_requeue(index);
                    }
                }
            }
        }
        if ran_any || live == 0 {
            continue;
        }

        // Nothing ready. A clock that can be moved jumps to the next
        // timer, or to the end of the run; real time parks until then,
        // an external wake, or the park slice — whichever is soonest.
        let now_nanos = elapsed_nanos();
        let next = timers.next_deadline();
        let limit = run_for.map(|limit| limit.as_nanos() as u64);
        let target = match (next, limit) {
            (Some(deadline), Some(limit)) => Some(deadline.min(limit)),
            (next, limit) => next.or(limit),
        };
        if clock.advance_to(epoch + target.unwrap_or(now_nanos)) {
            if target.is_none() {
                // No timer and no end: nothing can happen any more.
                halt.store(true, Ordering::Release);
                break;
            }
            continue;
        }
        let until_timer = next.map(|deadline| deadline.saturating_sub(now_nanos));
        let mut wait = Duration::from_nanos(until_timer.unwrap_or(u64::MAX)).min(PARK_SLICE);
        if let Some(limit) = limit {
            wait = wait.min(Duration::from_nanos(limit.saturating_sub(now_nanos)));
        }
        if !wait.is_zero() {
            ready.park(wait);
        }
    }

    // Shutdown: sweep live tasks with `stopping = true` until each has
    // finished (they are contract-bound to do so in bounded polls). One
    // clock read per sweep, not per task.
    let mut sweeps = 0u32;
    while live > 0 && sweeps < MAX_DRAIN_SWEEPS {
        sweeps += 1;
        let mut progressed = false;
        let now = elapsed();
        for (index, slot) in slots_vec.iter_mut().enumerate() {
            let Some(task) = slot.as_mut() else {
                continue;
            };
            polls += 1;
            let mut cx = Context {
                now,
                stopping: true,
                timers: &mut timers,
                ready: &ready,
                task: index as u32,
                worker,
                state: &mut state,
                yielded: false,
            };
            if task.poll(&mut cx) == Poll::Ready {
                ready.finish(index as u32);
                *slot = None;
                live -= 1;
                completed += 1;
                progressed = true;
            }
        }
        if live > 0 && !progressed {
            std::thread::sleep(DRAIN_SLICE);
        }
    }

    WorkerDone {
        completed,
        unfinished: live,
        polls,
        state,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;

    /// Counts down on a timer cadence, recording fire times.
    struct Countdown {
        remaining: u32,
        gap: Duration,
        fired: Arc<AtomicU64>,
    }

    impl Task for Countdown {
        fn poll(&mut self, cx: &mut Context<'_>) -> Poll {
            if cx.stopping() || self.remaining == 0 {
                return Poll::Ready;
            }
            self.remaining -= 1;
            self.fired.fetch_add(1, Ordering::Relaxed);
            if self.remaining == 0 {
                return Poll::Ready;
            }
            cx.wake_after(self.gap);
            Poll::Pending
        }
    }

    #[test]
    fn tasks_run_to_completion_on_timers() {
        let fired = Arc::new(AtomicU64::new(0));
        let mut reactor = Reactor::new(2);
        for _ in 0..10 {
            reactor.spawn(Box::new(Countdown {
                remaining: 5,
                gap: Duration::from_millis(1),
                fired: Arc::clone(&fired),
            }));
        }
        let outcome = reactor.run(None, None);
        assert_eq!(outcome.completed, 10);
        assert_eq!(outcome.unfinished, 0);
        assert_eq!(fired.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn stop_flag_sweeps_tasks_out() {
        let fired = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let mut reactor = Reactor::new(1);
        reactor.spawn(Box::new(Countdown {
            remaining: u32::MAX,
            gap: Duration::from_millis(5),
            fired: Arc::clone(&fired),
        }));
        let flag = Arc::clone(&stop);
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            flag.store(true, Ordering::Release);
        });
        let outcome = reactor.run(Some(stop), None);
        canceller.join().unwrap();
        assert_eq!(outcome.completed, 1);
        assert_eq!(outcome.unfinished, 0);
        assert!(fired.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn run_deadline_halts_all_workers() {
        let mut reactor = Reactor::new(3);
        for _ in 0..3 {
            reactor.spawn(Box::new(Countdown {
                remaining: u32::MAX,
                gap: Duration::from_millis(2),
                fired: Arc::new(AtomicU64::new(0)),
            }));
        }
        let outcome = reactor.run(None, Some(Duration::from_millis(40)));
        assert_eq!(outcome.completed, 3);
        assert!(outcome.elapsed >= Duration::from_millis(40));
        assert!(outcome.elapsed < Duration::from_secs(5));
    }

    /// Parks forever until an external waker fires, then completes.
    struct WaitForWake {
        handoff: Arc<Mutex<Option<crate::Waker>>>,
        armed: bool,
    }

    impl Task for WaitForWake {
        fn poll(&mut self, cx: &mut Context<'_>) -> Poll {
            if cx.stopping() {
                return Poll::Ready;
            }
            if !self.armed {
                self.armed = true;
                *self.handoff.lock().unwrap() = Some(cx.waker());
                return Poll::Pending;
            }
            Poll::Ready
        }
    }

    #[test]
    fn external_wake_reschedules_parked_task() {
        let handoff = Arc::new(Mutex::new(None));
        let mut reactor = Reactor::new(1);
        reactor.spawn(Box::new(WaitForWake {
            handoff: Arc::clone(&handoff),
            armed: false,
        }));
        let waker_thread = std::thread::spawn(move || loop {
            if let Some(waker) = handoff.lock().unwrap().take() {
                std::thread::sleep(Duration::from_millis(10));
                waker.wake();
                return;
            }
            std::thread::yield_now();
        });
        let outcome = reactor.run(None, Some(Duration::from_secs(10)));
        waker_thread.join().unwrap();
        assert_eq!(outcome.completed, 1);
        assert!(outcome.elapsed < Duration::from_secs(5));
    }

    /// Uses the worker-local state slot as a shared accumulator.
    struct AddToSlot(u64);

    impl Task for AddToSlot {
        fn poll(&mut self, cx: &mut Context<'_>) -> Poll {
            *cx.state_mut::<u64>().expect("slot seeded") += self.0;
            Poll::Ready
        }
    }

    #[test]
    fn worker_state_is_shared_and_harvested() {
        let mut reactor = Reactor::new(2);
        reactor.set_worker_state(0, Box::new(0u64));
        reactor.set_worker_state(1, Box::new(0u64));
        for value in 1..=4u64 {
            reactor.spawn(Box::new(AddToSlot(value)));
        }
        let outcome = reactor.run(None, None);
        let total: u64 = outcome
            .worker_states
            .into_iter()
            .map(|slot| *slot.unwrap().downcast::<u64>().unwrap())
            .sum();
        assert_eq!(total, 10);
    }

    /// Completes on its first poll, recording that poll's
    /// `(now, stopping)`.
    struct FirstPoll(Arc<Mutex<Option<(Duration, bool)>>>);

    impl Task for FirstPoll {
        fn poll(&mut self, cx: &mut Context<'_>) -> Poll {
            *self.0.lock().unwrap() = Some((cx.now(), cx.stopping()));
            Poll::Ready
        }
    }

    /// Runs one `FirstPoll` task, placed by `spawn`, and returns the
    /// poll count and what its poll saw. A task the run never polls is
    /// polled by the shutdown sweep at `run_for`, with `stopping` set.
    fn first_poll(
        run_for: Duration,
        spawn: impl FnOnce(&mut Reactor, Box<dyn Task>),
    ) -> (u64, (Duration, bool)) {
        let seen = Arc::new(Mutex::new(None));
        let mut reactor = Reactor::new(2);
        spawn(&mut reactor, Box::new(FirstPoll(Arc::clone(&seen))));
        let outcome = reactor.run(None, Some(run_for));
        assert_eq!(outcome.completed, 1);
        let seen = seen.lock().unwrap().expect("polled");
        (outcome.polls, seen)
    }

    #[test]
    fn pre_armed_task_beyond_the_run_is_polled_once_by_the_sweep() {
        let far = Duration::from_secs(60).as_nanos() as u64;
        let (polls, (_, stopping)) = first_poll(Duration::from_millis(20), |r, task| {
            r.spawn_at(0, far, task)
        });
        assert_eq!(polls, 1);
        assert!(stopping, "the only poll must be the shutdown sweep");
    }

    #[test]
    fn pre_armed_task_is_first_polled_at_its_deadline() {
        let deadline = Duration::from_millis(30);
        let (polls, (at, stopping)) = first_poll(Duration::from_secs(5), |r, task| {
            r.spawn_at(1, deadline.as_nanos() as u64, task)
        });
        assert_eq!(polls, 1);
        assert!(!stopping);
        assert!(at >= deadline, "polled at {at:?}, before {deadline:?}");
    }

    #[test]
    fn spawned_task_still_gets_its_initial_poll() {
        let (polls, (_, stopping)) = first_poll(Duration::from_secs(5), |r, task| {
            r.spawn(task);
        });
        assert_eq!(polls, 1);
        assert!(!stopping, "polled before any shutdown sweep");
    }

    /// A clock the reactor can move: virtual time for the tests below.
    #[derive(Debug, Default)]
    struct StepClock(AtomicU64);

    impl RunClock for StepClock {
        fn now_nanos(&self) -> u64 {
            self.0.load(Ordering::SeqCst)
        }

        fn advance_to(&self, nanos: u64) -> bool {
            self.0.fetch_max(nanos, Ordering::SeqCst);
            true
        }
    }

    /// Sleeps through `deadlines` (from the epoch) one by one, logging
    /// the time each poll saw.
    struct Sleeper {
        deadlines: Vec<Duration>,
        seen: Arc<Mutex<Vec<Duration>>>,
    }

    impl Task for Sleeper {
        fn poll(&mut self, cx: &mut Context<'_>) -> Poll {
            if cx.stopping() {
                return Poll::Ready;
            }
            self.seen.lock().unwrap().push(cx.now());
            if self.deadlines.is_empty() {
                return Poll::Ready;
            }
            let next = self.deadlines.remove(0);
            cx.wake_at_nanos(next.as_nanos() as u64);
            Poll::Pending
        }
    }

    #[test]
    fn virtual_clock_fires_timers_hours_apart_at_their_exact_deadlines() {
        let hour = Duration::from_secs(3_600);
        let deadlines = vec![
            Duration::from_nanos(1_500_123),
            hour + Duration::from_nanos(7),
            3 * hour,
            3 * hour + Duration::from_micros(1),
        ];
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut reactor = Reactor::new(1).with_clock(Arc::new(StepClock::default()));
        reactor.spawn(Box::new(Sleeper {
            deadlines: deadlines.clone(),
            seen: Arc::clone(&seen),
        }));
        let started = std::time::Instant::now();
        let outcome = reactor.run(None, None);
        assert!(started.elapsed() < Duration::from_millis(500));
        assert_eq!(outcome.completed, 1);
        let mut expected = vec![Duration::ZERO];
        expected.extend(deadlines);
        assert_eq!(*seen.lock().unwrap(), expected);
    }

    #[test]
    fn elapsed_is_virtual_time() {
        // Timers every 2 ms for ever: the run ends at exactly `run_for`.
        let clock = Arc::new(StepClock::default());
        let mut reactor = Reactor::new(1).with_clock(clock.clone());
        reactor.spawn(Box::new(Countdown {
            remaining: u32::MAX,
            gap: Duration::from_millis(2),
            fired: Arc::new(AtomicU64::new(0)),
        }));
        let outcome = reactor.run(None, Some(Duration::from_secs(60)));
        assert_eq!(outcome.elapsed, Duration::from_secs(60));
        assert_eq!(clock.now_nanos(), 60_000_000_000);
        // With nothing armed, a run without a limit ends where it is.
        let mut idle = Reactor::new(1).with_clock(Arc::new(StepClock::default()));
        idle.spawn(Box::new(WaitForWake {
            handoff: Arc::new(Mutex::new(None)),
            armed: false,
        }));
        let outcome = idle.run(None, None);
        assert_eq!(outcome.elapsed, Duration::ZERO);
        assert_eq!(outcome.completed, 1, "swept out at the halt");
    }

    #[test]
    #[should_panic(expected = "exactly one worker")]
    fn a_clock_the_reactor_moves_rejects_a_second_worker() {
        Reactor::new(2)
            .with_clock(Arc::new(StepClock::default()))
            .run(None, None);
    }

    /// Records its worker thread's timer slack on its first poll.
    #[cfg(target_os = "linux")]
    struct ReadSlack(Arc<AtomicU64>);

    #[cfg(target_os = "linux")]
    impl Task for ReadSlack {
        fn poll(&mut self, _: &mut Context<'_>) -> Poll {
            self.0.store(slack::current_nanos(), Ordering::Relaxed);
            Poll::Ready
        }
    }

    /// The timer slack a task of `reactor` saw while it ran.
    #[cfg(target_os = "linux")]
    fn worker_slack(mut reactor: Reactor) -> u64 {
        let seen = Arc::new(AtomicU64::new(u64::MAX));
        reactor.spawn(Box::new(ReadSlack(Arc::clone(&seen))));
        assert_eq!(reactor.run(None, None).completed, 1);
        seen.load(Ordering::Relaxed)
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn exact_timers_set_the_worker_slack_on_real_time_only() {
        let inherited = slack::current_nanos();
        assert_eq!(worker_slack(Reactor::new(1).with_exact_timers()), 1);
        assert_eq!(worker_slack(Reactor::new(1)), inherited);
        let moved = Reactor::new(1)
            .with_clock(Arc::new(StepClock::default()))
            .with_exact_timers();
        assert_eq!(worker_slack(moved), inherited);
        assert_eq!(
            slack::current_nanos(),
            inherited,
            "the caller's slack is its own"
        );
    }

    /// Yields a fixed number of times, then completes.
    struct Yielder {
        left: u32,
    }

    impl Task for Yielder {
        fn poll(&mut self, cx: &mut Context<'_>) -> Poll {
            if self.left == 0 {
                return Poll::Ready;
            }
            self.left -= 1;
            cx.yield_now();
            Poll::Pending
        }
    }

    #[test]
    fn yield_now_requeues_without_timers() {
        let mut reactor = Reactor::new(1);
        reactor.spawn(Box::new(Yielder { left: 100 }));
        let outcome = reactor.run(None, Some(Duration::from_secs(10)));
        assert_eq!(outcome.completed, 1);
        assert_eq!(outcome.polls, 101);
    }
}
