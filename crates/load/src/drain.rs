//! The receive half of the load engine: consumers mounted as reactor
//! tasks, woken through the ready list.
//!
//! Each consumer is one poll-driven task on a single-worker
//! [`jmst_reactor::Reactor`]. When the provider supports
//! [`Consumer::set_waker`], the task's reactor waker is installed
//! directly: a message arrival marks exactly that task ready, so the
//! wake cost is O(ready consumers) — there is no dirty-flag sweep over
//! every endpoint the way the old pump thread did. Providers without
//! waker support fall back to a short poll timer instead.
//!
//! Delivery latency is measured open-loop: producers stamp each message
//! with its *intended* send time (the [`INTENDED_NS_PROP`] property,
//! nanoseconds from the shared epoch), and the drain records
//! `receive time − intended send time` — queueing delay included, no
//! coordinated omission.

use jmst_api::provider::Consumer;
use jmst_api::value::Value;
use jmst_reactor::{Context, Poll, Reactor, Task};
use jmst_store::stats::LogHistogram;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Message property carrying the intended send time as nanoseconds from
/// the run epoch (a [`Value::Long`]).
pub const INTENDED_NS_PROP: &str = "jmst_intended_ns";

/// Outcome of a drain run.
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Messages received across all consumers.
    pub received: u64,
    /// Open-loop delivery latency (receive − intended send) for
    /// messages stamped with [`INTENDED_NS_PROP`].
    pub latency: LogHistogram,
    /// Messages without the intended-time stamp (counted, no latency).
    pub unstamped: u64,
}

/// The drain worker's shared slot: the merged report every consumer
/// task records into.
struct DrainSlot {
    report: DrainReport,
}

/// A running drain; [`DrainPump::stop`] halts the reactor and returns
/// the report.
pub struct DrainPump {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<DrainReport>,
}

/// How many messages one `try_receive_batch` call may take.
const DRAIN_BATCH: usize = 256;
/// Poll interval when a consumer lacks waker support.
const POLL_FALLBACK: Duration = Duration::from_millis(1);
/// Safety re-poll bound for waker-driven consumers, covering waker
/// edge cases (visibility-delay expiry between polls).
const IDLE_SLICE: Duration = Duration::from_millis(20);

/// One consumer as a reactor task.
struct DrainTask {
    consumer: Box<dyn Consumer>,
    /// The producing side's epoch; intended-time stamps are offsets
    /// from this instant, so latency must be measured against it rather
    /// than the reactor's own epoch.
    epoch: Instant,
    /// Whether the provider accepted our reactor waker (set on first
    /// poll).
    wakeable: Option<bool>,
    /// When the re-poll timer armed last fires. The wheel cannot cancel
    /// a timer, so a task woken by arrivals arms a new one only once the
    /// last has fired; otherwise every wake would leave a stale timer
    /// that later polls the task for nothing.
    repoll_at: Duration,
}

impl DrainTask {
    /// Drains everything currently visible; returns whether anything
    /// was taken.
    fn drain(&mut self, cx: &mut Context<'_>) -> bool {
        let mut drained_any = false;
        // A closed endpoint (`Err`) just means nothing more this pass.
        while let Ok(batch) = self.consumer.try_receive_batch(DRAIN_BATCH) {
            if batch.is_empty() {
                break;
            }
            drained_any = true;
            let now = self.epoch.elapsed();
            let slot = cx.state_mut::<DrainSlot>().expect("drain slot seeded");
            for message in &batch {
                slot.report.received += 1;
                match message.properties().get(INTENDED_NS_PROP) {
                    Some(Value::Long(nanos)) => {
                        let intended = Duration::from_nanos((*nanos).max(0) as u64);
                        slot.report.latency.record(now.saturating_sub(intended));
                    }
                    _ => slot.report.unstamped += 1,
                }
            }
            if batch.len() < DRAIN_BATCH {
                break;
            }
        }
        drained_any
    }
}

impl Task for DrainTask {
    fn poll(&mut self, cx: &mut Context<'_>) -> Poll {
        if self.wakeable.is_none() {
            // First poll: hand the provider this task's reactor waker,
            // so arrivals enqueue us on the ready list directly.
            let wakeable = self.consumer.set_waker(cx.waker().into_callback());
            self.wakeable = Some(wakeable);
        }
        let drained_any = self.drain(cx);
        if cx.stopping() {
            // Shutdown sweep: keep draining until a pass comes up
            // empty, so late arrivals are not stranded.
            return if drained_any {
                Poll::Pending
            } else {
                Poll::Ready
            };
        }
        // The waker covers arrivals; the timer covers everything the
        // waker cannot see (no waker support, visibility edges). One is
        // outstanding at a time, so the task is re-polled at most one
        // slice after any poll.
        if cx.now() >= self.repoll_at {
            let re_poll = if self.wakeable == Some(true) {
                IDLE_SLICE
            } else {
                POLL_FALLBACK
            };
            self.repoll_at = cx.now() + re_poll;
            cx.wake_after(re_poll);
        }
        Poll::Pending
    }
}

/// One worker holding the drain slot and one [`DrainTask`] per consumer.
/// It keeps the kernel's default timer slack: arrivals wake its tasks
/// through the ready list, and its timers are only safety re-polls.
fn drain_reactor(consumers: Vec<Box<dyn Consumer>>, epoch: Instant) -> Reactor {
    let mut reactor = Reactor::new(1);
    reactor.set_worker_state(
        0,
        Box::new(DrainSlot {
            report: DrainReport {
                received: 0,
                latency: LogHistogram::new(),
                unstamped: 0,
            },
        }),
    );
    for consumer in consumers {
        reactor.spawn(Box::new(DrainTask {
            consumer,
            epoch,
            wakeable: None,
            repoll_at: Duration::ZERO,
        }));
    }
    reactor
}

impl DrainPump {
    /// Starts draining `consumers` on a dedicated single-worker
    /// reactor. `epoch` must be the same instant the producing side
    /// measures intended times from.
    pub fn start(consumers: Vec<Box<dyn Consumer>>, epoch: Instant) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let outcome = drain_reactor(consumers, epoch).run(Some(stop_flag), None);
            let slot = outcome
                .worker_states
                .into_iter()
                .next()
                .flatten()
                .expect("drain slot present")
                .downcast::<DrainSlot>()
                .expect("drain slot type");
            slot.report
        });
        Self { stop, handle }
    }

    /// Stops the drain after a final sweep and returns the report.
    pub fn stop(self) -> DrainReport {
        self.stop.store(true, Ordering::Release);
        self.handle.join().expect("drain reactor panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ClockSource;
    use jmst_api::destination::Destination;
    use jmst_api::error::Error;
    use jmst_api::id::ConsumerId;
    use jmst_api::message::Message;
    use jmst_api::time::Clock;
    use jmst_sim::VirtualClock;
    use std::sync::Mutex;

    type Callback = Arc<dyn Fn() + Send + Sync>;

    /// A consumer that never has a message: it hands out its waker and
    /// logs the clock time of every receive (one per drain poll).
    struct Empty {
        destination: Destination,
        clock: Arc<VirtualClock>,
        waker: Arc<Mutex<Option<Callback>>>,
        receives: Arc<Mutex<Vec<Duration>>>,
    }

    impl Consumer for Empty {
        fn id(&self) -> ConsumerId {
            ConsumerId::from_raw(1)
        }

        fn destination(&self) -> &Destination {
            &self.destination
        }

        fn selector(&self) -> Option<&str> {
            None
        }

        fn receive(&mut self, _: Option<Duration>) -> Result<Option<Message>, Error> {
            Ok(None)
        }

        fn try_receive_batch(&mut self, _: usize) -> Result<Vec<Message>, Error> {
            let now = Duration::from_nanos(self.clock.now().as_nanos());
            self.receives.lock().unwrap().push(now);
            Ok(Vec::new())
        }

        fn set_waker(&mut self, waker: Callback) -> bool {
            *self.waker.lock().unwrap() = Some(waker);
            true
        }

        fn acknowledge(&mut self) -> Result<(), Error> {
            Ok(())
        }

        fn close(&mut self) -> Result<(), Error> {
            Ok(())
        }
    }

    /// Fires the drain's waker `left` times, `gap` apart.
    struct Pinger {
        waker: Arc<Mutex<Option<Callback>>>,
        gap: Duration,
        left: u32,
    }

    impl Task for Pinger {
        fn poll(&mut self, cx: &mut Context<'_>) -> Poll {
            if cx.stopping() || self.left == 0 {
                return Poll::Ready;
            }
            if let Some(wake) = self.waker.lock().unwrap().as_ref() {
                wake();
            }
            self.left -= 1;
            cx.wake_after(self.gap);
            Poll::Pending
        }
    }

    #[test]
    fn a_burst_of_wakes_leaves_one_re_poll_timer() {
        const WAKES: u32 = 1_000;
        const GAP: Duration = Duration::from_micros(50);
        const QUIET: Duration = Duration::from_secs(1);
        let clock = Arc::new(VirtualClock::new());
        let waker = Arc::new(Mutex::new(None));
        let receives = Arc::new(Mutex::new(Vec::new()));
        let consumer = Empty {
            destination: Destination::queue("q"),
            clock: Arc::clone(&clock),
            waker: Arc::clone(&waker),
            receives: Arc::clone(&receives),
        };
        let mut reactor = drain_reactor(vec![Box::new(consumer)], Instant::now())
            .with_clock(Arc::new(ClockSource(clock)));
        // Pre-armed, so the first wake lands after the drain's first
        // poll has handed out its waker.
        reactor.spawn_at(
            0,
            GAP.as_nanos() as u64,
            Box::new(Pinger {
                waker,
                gap: GAP,
                left: WAKES,
            }),
        );
        let burst = GAP * WAKES;
        reactor.run(None, Some(burst + QUIET));
        let receives = receives.lock().unwrap();
        assert!(
            receives.len() > WAKES as usize,
            "every wake polls the drain"
        );
        let quiet = receives.iter().filter(|&&at| at > burst).count();
        let bound = (QUIET.as_nanos() / IDLE_SLICE.as_nanos()) as usize + 2;
        assert!(
            quiet <= bound,
            "{quiet} polls in the quiet second after {WAKES} wakes (at most {bound})"
        );
    }
}
