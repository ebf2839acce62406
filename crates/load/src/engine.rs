//! The open-loop load engine: N virtual clients mounted directly on the
//! reactor's timing wheels.
//!
//! Each virtual client is a poll-driven [`Task`] pinned to one reactor
//! worker; the worker's state slot holds that shard's [`Transport`] and
//! report, so thousands of clients multiplex one transport without
//! locking. A client's poll is: connect if needed, send, record
//! `actual − intended` lag, then arm a timer for the next arrival at
//! `previous intended + gap` — never `now + gap` — and park. Between
//! fires a client costs *nothing*: the reactor only polls ready tasks.
//!
//! Scheduling from the *intended* time is the whole point: a slow send
//! delays nothing behind it, queued arrivals fire back-to-back on
//! catch-up, and the recorded lag of every send reflects the time a
//! request spent waiting for the system — the coordinated-omission-safe
//! measurement a closed loop cannot produce.

use crate::client::{ClientSpec, SendDisposition, Transport};
use jmst_api::time::{Clock, Timestamp};
use jmst_reactor::{Context, Poll, Reactor, RunClock, Task, WallClock};
use jmst_sim::arrival::ArrivalGen;
use jmst_store::stats::LogHistogram;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// Merged outcome of one engine run (or one worker's share of it).
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Successful sends across all clients.
    pub sends: u64,
    /// Send or connect attempts the transport deferred with
    /// [`SendDisposition::RetryAfter`].
    pub retries: u64,
    /// Clients that reached their send limit.
    pub completed_clients: u64,
    /// Clients the transport aborted permanently.
    pub aborted_clients: u64,
    /// Send lag (`actual − intended` send time) of every successful
    /// send.
    pub send_lag: LogHistogram,
    /// The first abort reason seen, for diagnostics.
    pub first_abort: Option<String>,
    /// Clock time the run took, from the reactor's epoch to the last
    /// worker's exit: real time, or virtual time under
    /// [`LoadEngine::with_clock`]. The epoch is taken after every
    /// client's first arrival is armed, so it is also the zero of every
    /// intended time.
    pub elapsed: Duration,
}

impl EngineReport {
    fn new() -> Self {
        Self {
            sends: 0,
            retries: 0,
            completed_clients: 0,
            aborted_clients: 0,
            send_lag: LogHistogram::new(),
            first_abort: None,
            elapsed: Duration::ZERO,
        }
    }

    fn merge(&mut self, other: EngineReport) {
        self.sends += other.sends;
        self.retries += other.retries;
        self.completed_clients += other.completed_clients;
        self.aborted_clients += other.aborted_clients;
        self.send_lag.merge(&other.send_lag);
        if self.first_abort.is_none() {
            self.first_abort = other.first_abort;
        }
        self.elapsed = self.elapsed.max(other.elapsed);
    }
}

/// One reactor worker's shared slot: its transport and its share of the
/// report (merged across workers when the run ends).
struct WorkerSlot {
    transport: Box<dyn Transport>,
    report: EngineReport,
}

/// One virtual client as a reactor task; 1M clients ≈ a few hundred MB
/// dominated by the arrival generators.
struct ClientTask {
    arrival: ArrivalGen,
    limit: Option<u64>,
    /// The client's global index in the input vector — the identity the
    /// transport sees, stable across sharding.
    id: u32,
    /// The next (or currently retrying) intended send time, as an offset
    /// from the epoch.
    intended: Duration,
    sent: u64,
    connected: bool,
}

impl Task for ClientTask {
    fn poll(&mut self, cx: &mut Context<'_>) -> Poll {
        // A halted run abandons in-progress clients without counting
        // them completed or aborted.
        if cx.stopping() {
            return Poll::Ready;
        }
        let now = cx.now();
        if !self.connected {
            let disposition = {
                let slot = cx.state_mut::<WorkerSlot>().expect("worker slot seeded");
                slot.transport.connect(self.id)
            };
            match disposition {
                SendDisposition::Sent => self.connected = true,
                SendDisposition::RetryAfter(backoff) => {
                    let slot = cx.state_mut::<WorkerSlot>().expect("worker slot seeded");
                    slot.report.retries += 1;
                    cx.wake_at_nanos(now.saturating_add(backoff).as_nanos() as u64);
                    return Poll::Pending;
                }
                SendDisposition::Abort(reason) => {
                    let slot = cx.state_mut::<WorkerSlot>().expect("worker slot seeded");
                    slot.report.aborted_clients += 1;
                    slot.report.first_abort.get_or_insert(reason);
                    return Poll::Ready;
                }
            }
        }
        let disposition = {
            let slot = cx.state_mut::<WorkerSlot>().expect("worker slot seeded");
            slot.transport.send(self.id, self.sent, self.intended, now)
        };
        match disposition {
            SendDisposition::Sent => {
                {
                    let slot = cx.state_mut::<WorkerSlot>().expect("worker slot seeded");
                    slot.report.sends += 1;
                    slot.report
                        .send_lag
                        .record(now.saturating_sub(self.intended));
                }
                self.sent += 1;
                if self.limit.is_some_and(|limit| self.sent >= limit) {
                    let slot = cx.state_mut::<WorkerSlot>().expect("worker slot seeded");
                    slot.report.completed_clients += 1;
                    return Poll::Ready;
                }
                // Open loop: the next arrival is scheduled from the
                // *intended* time, not from now — a late send never
                // slows the arrival process down.
                self.intended = self.intended.saturating_add(self.arrival.next_gap());
                cx.wake_at_nanos(self.intended.as_nanos() as u64);
                Poll::Pending
            }
            SendDisposition::RetryAfter(backoff) => {
                let slot = cx.state_mut::<WorkerSlot>().expect("worker slot seeded");
                slot.report.retries += 1;
                cx.wake_at_nanos(now.saturating_add(backoff).as_nanos() as u64);
                Poll::Pending
            }
            SendDisposition::Abort(reason) => {
                let slot = cx.state_mut::<WorkerSlot>().expect("worker slot seeded");
                slot.report.aborted_clients += 1;
                slot.report.first_abort.get_or_insert(reason);
                Poll::Ready
            }
        }
    }
}

/// The multiplexed open-loop engine.
///
/// ```
/// use jmst_load::{ClientSpec, LoadEngine, SendDisposition, Transport};
/// use jmst_sim::arrival::ArrivalProcess;
/// use jmst_sim::dist::SimRng;
/// use std::time::Duration;
///
/// struct Sink(u64);
/// impl Transport for Sink {
///     fn send(&mut self, _c: u32, _s: u64, _i: Duration, _n: Duration) -> SendDisposition {
///         self.0 += 1;
///         SendDisposition::Sent
///     }
/// }
///
/// let clients = (0..100u64)
///     .map(|i| {
///         ClientSpec::new(ArrivalProcess::steady(1_000.0).generator(SimRng::seed_from_u64(i)))
///             .limited(10)
///     })
///     .collect();
/// let report = LoadEngine::new(2).run(clients, vec![Box::new(Sink(0)), Box::new(Sink(0))], None, None);
/// assert_eq!(report.sends, 1_000);
/// assert_eq!(report.completed_clients, 100);
/// ```
#[derive(Debug, Clone)]
pub struct LoadEngine {
    workers: usize,
    tick: Duration,
    wheel_slots: usize,
    clock: Arc<dyn RunClock>,
}

/// A workspace [`Clock`] as the reactor's [`RunClock`]: its timestamps
/// are the reactor's nanoseconds, and a clock that can be moved (a
/// `jmst_sim::VirtualClock`) is moved by the reactor.
#[derive(Debug, Clone)]
pub struct ClockSource(pub Arc<dyn Clock>);

impl RunClock for ClockSource {
    fn now_nanos(&self) -> u64 {
        self.0.now().as_nanos()
    }

    fn advance_to(&self, nanos: u64) -> bool {
        self.0.advance_to(Timestamp::from_nanos(nanos))
    }
}

impl LoadEngine {
    /// An engine with `workers` reactor workers, a 1 ms wheel tick, and
    /// a ~4 s wheel horizon.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        Self {
            workers,
            tick: Duration::from_millis(1),
            wheel_slots: 4096,
            clock: Arc::new(WallClock::new()),
        }
    }

    /// Runs on `clock` instead of real time, as
    /// `BrokerConfig::with_clock` does for the broker. On a virtual
    /// clock the run jumps from arrival to arrival: `run_for`, every
    /// intended time and [`EngineReport::elapsed`] are virtual, and the
    /// engine must have one worker.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = Arc::new(ClockSource(clock));
        self
    }

    /// Overrides the wheel tick width (the scheduling resolution).
    pub fn with_tick(mut self, tick: Duration) -> Self {
        self.tick = tick;
        self
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs the load: shards `clients` across the reactor workers
    /// (honouring [`ClientSpec::on_shard`], round-robin otherwise),
    /// pairs worker `i` with `transports[i]`, and drives every client
    /// until it completes or aborts, `run_for` elapses, or `stop` flips
    /// to true.
    ///
    /// Each client's first arrival is drawn here and armed at spawn
    /// ([`Reactor::spawn_at`]): the workers load their timing wheels
    /// before the epoch, so `run_for` and every intended send time count
    /// from a clock that starts with all clients already scheduled.
    ///
    /// Blocks until the reactor drains and returns the merged report.
    ///
    /// # Panics
    ///
    /// Panics if `transports.len() != self.workers()`, or if the clock
    /// is virtual and there is more than one worker.
    pub fn run(
        &self,
        clients: Vec<ClientSpec>,
        transports: Vec<Box<dyn Transport>>,
        run_for: Option<Duration>,
        stop: Option<Arc<AtomicBool>>,
    ) -> EngineReport {
        assert_eq!(
            transports.len(),
            self.workers,
            "one transport per worker required"
        );
        // Clients arm absolute intended times, so a late timer is pure
        // error: it adds to both send lag and delivery latency.
        let mut reactor = Reactor::new(self.workers)
            .with_timer_resolution(self.tick, self.wheel_slots)
            .with_clock(Arc::clone(&self.clock))
            .with_exact_timers();
        for (worker, transport) in transports.into_iter().enumerate() {
            reactor.set_worker_state(
                worker,
                Box::new(WorkerSlot {
                    transport,
                    report: EngineReport::new(),
                }),
            );
        }
        for (index, spec) in clients.into_iter().enumerate() {
            let ClientSpec {
                mut arrival,
                limit,
                start_offset,
                shard,
            } = spec;
            let worker = shard.unwrap_or(index) % self.workers;
            // The first arrival (start offset plus the first gap) is
            // armed at spawn, so the client is first polled to send.
            let intended = start_offset.saturating_add(arrival.next_gap());
            reactor.spawn_at(
                worker,
                intended.as_nanos() as u64,
                Box::new(ClientTask {
                    arrival,
                    limit,
                    id: index as u32,
                    intended,
                    sent: 0,
                    connected: false,
                }),
            );
        }
        let outcome = reactor.run(stop, run_for);
        let mut report = EngineReport::new();
        for state in outcome.worker_states {
            let mut slot = state
                .expect("worker slot present")
                .downcast::<WorkerSlot>()
                .expect("worker slot type");
            slot.transport.finish();
            report.merge(slot.report);
        }
        report.elapsed = outcome.elapsed;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmst_sim::arrival::ArrivalProcess;
    use jmst_sim::dist::SimRng;
    use std::sync::atomic::Ordering;

    /// Counts sends; optionally defers the first `defer` attempts per
    /// client.
    struct CountingTransport {
        sends: u64,
        defer: u64,
        deferred: std::collections::HashMap<u32, u64>,
    }

    impl CountingTransport {
        fn new(defer: u64) -> Self {
            Self {
                sends: 0,
                defer,
                deferred: std::collections::HashMap::new(),
            }
        }
    }

    impl Transport for CountingTransport {
        fn send(&mut self, client: u32, _seq: u64, _i: Duration, _n: Duration) -> SendDisposition {
            let tries = self.deferred.entry(client).or_insert(0);
            if *tries < self.defer {
                *tries += 1;
                return SendDisposition::RetryAfter(Duration::from_millis(1));
            }
            *tries = 0;
            self.sends += 1;
            SendDisposition::Sent
        }
    }

    fn clients(n: u64, rate: f64, limit: u64) -> Vec<ClientSpec> {
        (0..n)
            .map(|i| {
                ClientSpec::new(ArrivalProcess::steady(rate).generator(SimRng::seed_from_u64(i)))
                    .limited(limit)
            })
            .collect()
    }

    #[test]
    fn all_clients_send_their_limit() {
        let engine = LoadEngine::new(4);
        let transports: Vec<Box<dyn Transport>> = (0..4)
            .map(|_| Box::new(CountingTransport::new(0)) as Box<dyn Transport>)
            .collect();
        let report = engine.run(clients(500, 2_000.0, 5), transports, None, None);
        assert_eq!(report.sends, 2_500);
        assert_eq!(report.completed_clients, 500);
        assert_eq!(report.aborted_clients, 0);
        assert_eq!(report.send_lag.count(), 2_500);
    }

    #[test]
    fn retries_accrue_lag_against_the_intended_time() {
        let engine = LoadEngine::new(1);
        // Every send is deferred 3 times by ~1 ms; the client's intended
        // time never moves, so recorded lag must be ≥ the accrued delay.
        let report = engine.run(
            clients(1, 100.0, 3),
            vec![Box::new(CountingTransport::new(3))],
            None,
            None,
        );
        assert_eq!(report.sends, 3);
        assert_eq!(report.retries, 9);
        assert!(
            report.send_lag.quantile(0.5).unwrap() >= Duration::from_millis(2),
            "lag {:?} must include retry backoff",
            report.send_lag.quantile(0.5)
        );
    }

    #[test]
    fn run_limit_stops_unbounded_clients() {
        let engine = LoadEngine::new(2);
        let unbounded: Vec<ClientSpec> = (0..10)
            .map(|i| {
                ClientSpec::new(ArrivalProcess::steady(500.0).generator(SimRng::seed_from_u64(i)))
            })
            .collect();
        let transports: Vec<Box<dyn Transport>> = (0..2)
            .map(|_| Box::new(CountingTransport::new(0)) as Box<dyn Transport>)
            .collect();
        let report = engine.run(
            unbounded,
            transports,
            Some(Duration::from_millis(200)),
            None,
        );
        assert!(report.sends > 0);
        assert_eq!(report.completed_clients, 0);
        assert!(report.elapsed < Duration::from_secs(5));
    }

    #[test]
    fn stop_flag_ends_the_run() {
        let engine = LoadEngine::new(1);
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            stop2.store(true, Ordering::Relaxed);
        });
        let unbounded = vec![ClientSpec::new(
            ArrivalProcess::steady(100.0).generator(SimRng::seed_from_u64(0)),
        )];
        let report = engine.run(
            unbounded,
            vec![Box::new(CountingTransport::new(0))],
            None,
            Some(stop),
        );
        assert!(report.elapsed < Duration::from_secs(5));
    }

    #[test]
    fn virtual_clock_runs_in_virtual_time() {
        use jmst_sim::VirtualClock;
        // A second of 100 msg/s, then the limit: 100 sends, each exactly
        // on its intended time, in far less than a second of real time.
        let clock = Arc::new(VirtualClock::new());
        let started = std::time::Instant::now();
        let report = LoadEngine::new(1).with_clock(clock.clone()).run(
            clients(1, 100.0, 1_000),
            vec![Box::new(CountingTransport::new(0))],
            Some(Duration::from_secs(1)),
            None,
        );
        assert_eq!(report.sends, 99, "sends at 10, 20, …, 990 ms");
        assert_eq!(report.send_lag.max(), Some(Duration::ZERO));
        assert_eq!(report.elapsed, Duration::from_secs(1));
        assert_eq!(clock.now(), Timestamp::from_secs(1));
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "exactly one worker")]
    fn virtual_clock_rejects_a_second_worker() {
        let transports: Vec<Box<dyn Transport>> = (0..2)
            .map(|_| Box::new(CountingTransport::new(0)) as Box<dyn Transport>)
            .collect();
        LoadEngine::new(2)
            .with_clock(Arc::new(jmst_sim::VirtualClock::new()))
            .run(clients(2, 100.0, 1), transports, None, None);
    }

    #[test]
    fn aborting_transport_removes_clients() {
        struct Aborter;
        impl Transport for Aborter {
            fn send(&mut self, _c: u32, _s: u64, _i: Duration, _n: Duration) -> SendDisposition {
                SendDisposition::Abort("nope".to_owned())
            }
        }
        let report =
            LoadEngine::new(1).run(clients(3, 1_000.0, 10), vec![Box::new(Aborter)], None, None);
        assert_eq!(report.sends, 0);
        assert_eq!(report.aborted_clients, 3);
        assert_eq!(report.first_abort.as_deref(), Some("nope"));
    }

    #[test]
    fn sharding_honours_explicit_assignment() {
        struct ShardCheck {
            shard: u32,
            seen: Vec<u32>,
        }
        impl Transport for ShardCheck {
            fn send(
                &mut self,
                client: u32,
                _s: u64,
                _i: Duration,
                _n: Duration,
            ) -> SendDisposition {
                self.seen.push(client);
                assert_eq!(client % 2, self.shard, "client on wrong shard");
                SendDisposition::Sent
            }
        }
        // Pin even clients to shard 0, odd to shard 1; the client index
        // happens to equal its id here, so the transport can check.
        let pinned: Vec<ClientSpec> = (0..8u64)
            .map(|i| {
                ClientSpec::new(ArrivalProcess::steady(1_000.0).generator(SimRng::seed_from_u64(i)))
                    .limited(1)
                    .on_shard((i % 2) as usize)
            })
            .collect();
        let report = LoadEngine::new(2).run(
            pinned,
            vec![
                Box::new(ShardCheck {
                    shard: 0,
                    seen: Vec::new(),
                }),
                Box::new(ShardCheck {
                    shard: 1,
                    seen: Vec::new(),
                }),
            ],
            None,
            None,
        );
        assert_eq!(report.sends, 8);
    }
}
