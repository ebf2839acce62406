//! Queueing service models that stand in for the load behaviour of the
//! paper's anonymous commercial JMS providers.
//!
//! The paper's Figures 2 and 3 show two qualitatively different overload
//! behaviours:
//!
//! * **Provider I** (Figure 2): publisher and subscriber throughput rise
//!   with demand and then *plateau* — the provider applies flow control,
//!   so once its capacity is reached, `send` blocks and producers are
//!   throttled. Modelled by [`ServiceModel::Plateau`]: a fixed-rate server
//!   with a bounded queue and blocking admission.
//! * **Provider II** (Figure 3): subscriber throughput rises to a peak and
//!   then *falls* as the system is over-stressed, while producers keep
//!   sending. Modelled by [`ServiceModel::Thrashing`]: an unbounded queue
//!   whose per-message service time grows with the backlog (buffer
//!   management, paging and GC-like overheads).
//!
//! [`ServiceQueue`] is the one implementation of the single server both
//! models describe. It has no event loop of its own: its owner advances
//! it to the owner's clock, so the same queue serves a virtual-time run
//! on the reactor and any other caller with a clock.

use crate::dist::{DurationDist, SimRng};
use jmst_api::time::Timestamp;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;
use std::time::Duration;

/// A broker service model: how long one message takes to process, how much
/// backlog the broker will buffer, and the broker→consumer latency.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServiceModel {
    /// Fixed-rate server with a bounded queue and blocking send
    /// (Provider I of Figure 2).
    Plateau {
        /// Messages the server can process per second.
        capacity_msgs_per_sec: f64,
        /// Additional processing cost per body byte, nanoseconds.
        per_byte_nanos: u64,
        /// Waiting-room size; a full queue blocks senders.
        queue_capacity: usize,
        /// Broker→consumer delivery latency.
        delivery_latency: DurationDist,
    },
    /// Unbounded queue whose service time degrades with backlog
    /// (Provider II of Figure 3).
    Thrashing {
        /// Nominal messages per second when unloaded.
        base_capacity_msgs_per_sec: f64,
        /// Additional processing cost per body byte, nanoseconds.
        per_byte_nanos: u64,
        /// Backlog at which degradation starts.
        degradation_threshold: usize,
        /// Strength of degradation: service time is multiplied by
        /// `1 + factor * overload` where `overload` is the backlog excess
        /// over the threshold, normalised by the threshold.
        degradation_factor: f64,
        /// Broker→consumer delivery latency.
        delivery_latency: DurationDist,
    },
}

impl ServiceModel {
    /// A Provider-I-style plateau model with sensible defaults: 1 ms
    /// delivery latency and a queue of `queue_capacity` messages.
    pub fn plateau(capacity_msgs_per_sec: f64, queue_capacity: usize) -> Self {
        ServiceModel::Plateau {
            capacity_msgs_per_sec,
            per_byte_nanos: 0,
            queue_capacity,
            delivery_latency: DurationDist::constant(Duration::from_millis(1)),
        }
    }

    /// A Provider-II-style thrashing model with sensible defaults.
    pub fn thrashing(base_capacity_msgs_per_sec: f64, degradation_threshold: usize) -> Self {
        ServiceModel::Thrashing {
            base_capacity_msgs_per_sec,
            per_byte_nanos: 0,
            degradation_threshold,
            degradation_factor: 1.0,
            delivery_latency: DurationDist::constant(Duration::from_millis(1)),
        }
    }

    /// The calibrated stand-in for the paper's **Provider I** (Figure 2):
    /// a ~45 msg/s server with flow control, so throughput rises with
    /// demand and then plateaus at capacity for both publishers and
    /// subscribers.
    pub fn provider_one() -> Self {
        ServiceModel::plateau(45.0, 32)
    }

    /// The calibrated stand-in for the paper's **Provider II** (Figure 3):
    /// a ~160 msg/s server with no flow control whose service time
    /// degrades as backlog builds, so publishers keep accelerating while
    /// subscriber throughput peaks and then falls under overload.
    pub fn provider_two() -> Self {
        ServiceModel::Thrashing {
            base_capacity_msgs_per_sec: 160.0,
            per_byte_nanos: 0,
            degradation_threshold: 3_000,
            degradation_factor: 2.0,
            delivery_latency: DurationDist::constant(Duration::from_millis(1)),
        }
    }

    /// Returns the time to process one message of `body_bytes` bytes given
    /// `backlog` messages waiting behind it.
    pub fn service_time(&self, backlog: usize, body_bytes: usize) -> Duration {
        match *self {
            ServiceModel::Plateau {
                capacity_msgs_per_sec,
                per_byte_nanos,
                ..
            } => {
                let base_nanos = 1e9 / capacity_msgs_per_sec;
                Duration::from_nanos(
                    (base_nanos + (per_byte_nanos * body_bytes as u64) as f64).round() as u64,
                )
            }
            ServiceModel::Thrashing {
                base_capacity_msgs_per_sec,
                per_byte_nanos,
                degradation_threshold,
                degradation_factor,
                ..
            } => {
                let base_nanos =
                    1e9 / base_capacity_msgs_per_sec + (per_byte_nanos * body_bytes as u64) as f64;
                let overload = backlog.saturating_sub(degradation_threshold) as f64
                    / degradation_threshold.max(1) as f64;
                let multiplier = 1.0 + degradation_factor * overload;
                Duration::from_nanos((base_nanos * multiplier).round() as u64)
            }
        }
    }

    /// Returns the waiting-room capacity, or `None` if unbounded.
    pub fn queue_capacity(&self) -> Option<usize> {
        match *self {
            ServiceModel::Plateau { queue_capacity, .. } => Some(queue_capacity),
            ServiceModel::Thrashing { .. } => None,
        }
    }

    /// Samples the broker→consumer delivery latency.
    pub fn delivery_latency(&self, rng: &mut SimRng) -> Duration {
        match self {
            ServiceModel::Plateau {
                delivery_latency, ..
            }
            | ServiceModel::Thrashing {
                delivery_latency, ..
            } => delivery_latency.sample(rng),
        }
    }
}

impl fmt::Display for ServiceModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ServiceModel::Plateau {
                capacity_msgs_per_sec,
                queue_capacity,
                ..
            } => write!(
                f,
                "plateau({capacity_msgs_per_sec} msg/s, queue {queue_capacity})"
            ),
            ServiceModel::Thrashing {
                base_capacity_msgs_per_sec,
                degradation_threshold,
                ..
            } => write!(
                f,
                "thrashing({base_capacity_msgs_per_sec} msg/s, threshold {degradation_threshold})"
            ),
        }
    }
}

/// The single FIFO server of a [`ServiceModel`], holding items of type
/// `T` until their service completes.
///
/// A message starts service as soon as the server is free, and its
/// service time is drawn then, from the messages queued behind it at
/// that moment. A plateau server's room (head included) holds
/// `queue_capacity` messages and refuses offers until its head
/// completes. The queue is lazy: [`advance`](Self::advance) it to the
/// caller's `now` before each [`offer`](Self::offer).
#[derive(Debug, Clone)]
pub struct ServiceQueue<T> {
    model: ServiceModel,
    /// `(item, body bytes)` in arrival order; the front is in service.
    queue: VecDeque<(T, usize)>,
    /// When the front completes; `None` while idle.
    head_done: Option<Timestamp>,
}

impl<T> ServiceQueue<T> {
    /// An idle, empty server running `model`.
    pub fn new(model: ServiceModel) -> Self {
        Self {
            model,
            queue: VecDeque::new(),
            head_done: None,
        }
    }

    /// The model this server runs.
    pub fn model(&self) -> &ServiceModel {
        &self.model
    }

    /// When the message in service completes; `None` while idle.
    pub fn next_completion(&self) -> Option<Timestamp> {
        self.head_done
    }

    /// Completes, in order, every message served by `now`, handing each
    /// to `complete` with its completion time; the next one starts
    /// service at that same instant.
    pub fn advance(&mut self, now: Timestamp, mut complete: impl FnMut(Timestamp, T)) {
        while let Some(done) = self.head_done.filter(|&done| done <= now) {
            let (item, _) = self.queue.pop_front().expect("a message is in service");
            complete(done, item);
            self.start_head(done);
        }
    }

    /// Admits a message of `body_bytes` bytes at `now`, or returns when
    /// the head of a full plateau room completes.
    pub fn offer(&mut self, now: Timestamp, body_bytes: usize, item: T) -> Result<(), Timestamp> {
        debug_assert!(self.head_done.is_none_or(|done| done > now), "not advanced");
        match (self.model.queue_capacity(), self.head_done) {
            (Some(capacity), Some(done)) if self.queue.len() >= capacity => return Err(done),
            _ => self.queue.push_back((item, body_bytes)),
        }
        if self.head_done.is_none() {
            self.start_head(now);
        }
        Ok(())
    }

    fn start_head(&mut self, at: Timestamp) {
        let backlog = self.queue.len().saturating_sub(1);
        self.head_done = (self.queue.front())
            .map(|&(_, body_bytes)| at + self.model.service_time(backlog, body_bytes));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plateau_service_time_is_constant_in_backlog() {
        let model = ServiceModel::plateau(100.0, 10);
        let t0 = model.service_time(0, 0);
        let t100 = model.service_time(100, 0);
        assert_eq!(t0, t100);
        assert_eq!(t0, Duration::from_millis(10));
    }

    #[test]
    fn plateau_per_byte_cost() {
        let model = ServiceModel::Plateau {
            capacity_msgs_per_sec: 1000.0,
            per_byte_nanos: 10,
            queue_capacity: 1,
            delivery_latency: DurationDist::constant(Duration::ZERO),
        };
        // 1 ms base + 1024 * 10 ns
        assert_eq!(
            model.service_time(0, 1024),
            Duration::from_nanos(1_000_000 + 10_240)
        );
    }

    #[test]
    fn thrashing_degrades_with_backlog() {
        let model = ServiceModel::thrashing(100.0, 50);
        let unloaded = model.service_time(0, 0);
        let at_threshold = model.service_time(50, 0);
        let overloaded = model.service_time(150, 0);
        assert_eq!(unloaded, Duration::from_millis(10));
        assert_eq!(at_threshold, unloaded);
        // overload = (150-50)/50 = 2 → multiplier 3.
        assert_eq!(overloaded, Duration::from_millis(30));
    }

    #[test]
    fn queue_capacities() {
        assert_eq!(ServiceModel::plateau(10.0, 7).queue_capacity(), Some(7));
        assert_eq!(ServiceModel::thrashing(10.0, 7).queue_capacity(), None);
    }

    #[test]
    fn latency_sampling_uses_configured_distribution() {
        let model = ServiceModel::plateau(10.0, 1);
        let mut rng = SimRng::seed_from_u64(0);
        assert_eq!(model.delivery_latency(&mut rng), Duration::from_millis(1));
    }

    fn completions<T: Copy>(queue: &mut ServiceQueue<T>, now: Timestamp) -> Vec<(u64, T)> {
        let mut done = Vec::new();
        queue.advance(now, |at, item| done.push((at.as_millis(), item)));
        done
    }

    #[test]
    fn queue_serves_in_order_back_to_back() {
        let mut queue = ServiceQueue::new(ServiceModel::plateau(100.0, 10));
        for item in 0..3 {
            queue.offer(Timestamp::ZERO, 0, item).unwrap();
        }
        assert_eq!(queue.next_completion(), Some(Timestamp::from_millis(10)));
        assert_eq!(
            completions(&mut queue, Timestamp::from_millis(25)),
            [(10, 0), (20, 1)]
        );
        assert_eq!(queue.next_completion(), Some(Timestamp::from_millis(30)));
        assert_eq!(completions(&mut queue, Timestamp::from_secs(1)), [(30, 2)]);
        assert_eq!(queue.next_completion(), None);
    }

    #[test]
    fn plateau_room_is_full_until_the_head_completes() {
        let mut queue = ServiceQueue::new(ServiceModel::plateau(100.0, 2));
        queue.offer(Timestamp::ZERO, 0, 0).unwrap();
        queue.offer(Timestamp::ZERO, 0, 1).unwrap();
        assert_eq!(
            queue.offer(Timestamp::from_millis(5), 0, 2),
            Err(Timestamp::from_millis(10))
        );
        completions(&mut queue, Timestamp::from_millis(10));
        assert!(queue.offer(Timestamp::from_millis(10), 0, 2).is_ok());
    }

    #[test]
    fn thrashing_draws_service_time_from_the_backlog_at_start() {
        // 10 ms nominal, degrading past a backlog of 1.
        let mut queue = ServiceQueue::new(ServiceModel::thrashing(100.0, 1));
        queue.offer(Timestamp::ZERO, 0, 0).unwrap();
        // Admitted while 0 is in service: they raise the backlog 1 finds
        // when it starts, not the service time 0 already drew.
        for item in 1..4 {
            queue.offer(Timestamp::from_millis(1), 0, item).unwrap();
        }
        // 0: backlog 0 at t=0 → 10 ms. 1: backlog 2 at t=10 → ×2 = 20 ms.
        // 2: backlog 1 at t=30 → 10 ms. 3: backlog 0 → 10 ms.
        assert_eq!(
            completions(&mut queue, Timestamp::from_secs(1)),
            [(10, 0), (30, 1), (40, 2), (50, 3)]
        );
    }

    #[test]
    fn displays() {
        assert!(ServiceModel::plateau(45.0, 10)
            .to_string()
            .contains("plateau"));
        assert!(ServiceModel::thrashing(160.0, 10)
            .to_string()
            .contains("thrashing"));
    }
}
