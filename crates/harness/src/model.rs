//! Service-model runs: the Figure 2/3 and footnote 9 experiments on the
//! reactor, in virtual time.
//!
//! A [`PubSubScenario`] names publishers, subscribers and a
//! [`ServiceModel`]. [`PubSubScenario::run`] mounts every publisher as
//! an open-loop `LoadEngine` client on one reactor worker whose clock is
//! a [`VirtualClock`], so the run jumps from one timer to the next and
//! a minute of traffic takes milliseconds. The clients send through a
//! [`ModelTransport`]: one [`ServiceQueue`] standing in for the broker,
//! which fans every served message out to the subscribers after the
//! model's delivery latency. The transport records the same `Send` and
//! `Receive` events into a `Recorder` that the live drivers record, so
//! the result is a [`Trace`] for the same `Analyzer`.

use jmst_api::destination::{Destination, EndpointId, TopicName};
use jmst_api::id::{ConsumerId, MessageId, NodeId, ProducerId, SessionId};
use jmst_api::modes::{DeliveryMode, Priority, SessionMode, TimeToLive};
use jmst_api::properties::Properties;
use jmst_api::time::Timestamp;
use jmst_api::value::Value;
use jmst_load::{ClientSpec, LoadEngine, SendDisposition, Transport, INTENDED_NS_PROP};
use jmst_sim::{ArrivalProcess, ServiceModel, ServiceQueue, SimRng, VirtualClock};
use jmst_store::event::{EventKind, MessageRecord, Phase};
use jmst_store::trace::{NodeRecorder, Recorder, Trace};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

/// Configuration of one publisher in a scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PublisherSpec {
    /// When the publisher attempts sends.
    pub arrivals: ArrivalProcess,
    /// Message body size in bytes.
    pub body_bytes: usize,
}

impl PublisherSpec {
    /// A steady-rate publisher of `rate_per_sec` messages of `body_bytes`
    /// bytes.
    pub fn steady(rate_per_sec: f64, body_bytes: usize) -> Self {
        Self {
            arrivals: ArrivalProcess::steady(rate_per_sec),
            body_bytes,
        }
    }

    /// The demand this publisher offers, in body bytes per second — the
    /// x-axis of the paper's Figures 2 and 3.
    pub fn demand_bytes_per_sec(&self) -> f64 {
        self.arrivals.mean_rate_per_sec() * self.body_bytes as f64
    }
}

/// A pub/sub load scenario against a modelled provider.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PubSubScenario {
    /// The publishers.
    pub publishers: Vec<PublisherSpec>,
    /// Number of subscribers every message is fanned out to.
    pub subscribers: usize,
    /// The broker's service model.
    pub model: ServiceModel,
    /// How long publishers produce (the paper's warm-up + run periods).
    pub production_period: Duration,
    /// Extra virtual time allowed for the broker to drain its backlog
    /// after production stops (the paper's warm-down period).
    pub drain_limit: Duration,
    /// Seed for all randomness in the scenario.
    pub seed: u64,
}

impl PubSubScenario {
    /// Total offered demand in body bytes per second (the x-axis of the
    /// figures).
    pub fn demand_bytes_per_sec(&self) -> f64 {
        self.publishers
            .iter()
            .map(PublisherSpec::demand_bytes_per_sec)
            .sum()
    }

    /// Runs the scenario in virtual time and returns its trace, with the
    /// first `warm_up` of the production period marked as warm-up and
    /// the rest as the run window.
    ///
    /// Deterministic: the same scenario (seed included) always gives the
    /// same trace.
    pub fn run(&self, warm_up: Duration) -> Trace {
        let clock = Arc::new(VirtualClock::new());
        let recorder = Recorder::new();
        let node = recorder.node(NodeId::from_raw(0), clock.clone());
        for (at, phase) in [
            (Duration::ZERO, Phase::WarmUp),
            (warm_up, Phase::Run),
            (self.production_period, Phase::WarmDown),
        ] {
            node.record_at(Timestamp::ZERO + at, EventKind::PhaseStarted { phase });
        }
        let transport = ModelTransport::new(self, node);
        let seeds = SimRng::seed_from_u64(self.seed);
        let clients = self
            .publishers
            .iter()
            .enumerate()
            .map(|(index, publisher)| {
                ClientSpec::new(publisher.arrivals.generator(seeds.derive(index as u64 + 1)))
            })
            .collect();
        LoadEngine::new(1).with_clock(clock).run(
            clients,
            vec![Box::new(transport)],
            Some(self.production_period),
            None,
        );
        recorder.into_trace()
    }
}

/// The topic every modelled publisher sends to.
fn topic() -> TopicName {
    TopicName::new("bench")
}

/// Subscriber identities start here, clear of the publishers' sessions.
const SUBSCRIBER_BASE: u64 = 1 << 32;

fn consumer_id(subscriber: usize) -> ConsumerId {
    ConsumerId::from_raw(SUBSCRIBER_BASE + subscriber as u64)
}

fn endpoint(subscriber: usize) -> EndpointId {
    EndpointId::non_durable(topic(), consumer_id(subscriber))
}

/// One admitted message, as it waits in the modelled broker.
#[derive(Debug, Clone, Copy)]
struct Admitted {
    publisher: u32,
    sequence: u64,
    intended: Timestamp,
    sent_at: Timestamp,
}

impl Admitted {
    /// The record the trace carries for this message, stamped with its
    /// intended send time as the live open-loop transports stamp theirs.
    fn record(&self, body_bytes: usize) -> MessageRecord {
        let publisher = u64::from(self.publisher) + 1;
        let mut properties = Properties::new();
        properties
            .set(
                INTENDED_NS_PROP,
                Value::Long(self.intended.as_nanos() as i64),
            )
            .expect("legal property");
        MessageRecord {
            message: MessageId::from_raw((publisher << 40) | self.sequence),
            producer: ProducerId::from_raw(publisher),
            sequence: self.sequence,
            destination: Destination::Topic(topic()),
            priority: Priority::DEFAULT,
            delivery_mode: DeliveryMode::NonPersistent,
            time_to_live: TimeToLive::FOREVER,
            sent_at: self.sent_at,
            body_bytes: body_bytes as u64,
            redelivered: false,
            delivery_count: 1,
            properties,
        }
    }
}

/// A modelled provider as a load-engine transport: a [`ServiceQueue`]
/// fanning served messages out to the scenario's subscribers.
///
/// Every accepted send is recorded as a `Send`, and every delivery as a
/// `Receive` stamped with its delivery time. A full plateau queue
/// answers `RetryAfter` until its head completes — the flow control
/// that throttles Figure 2's publishers. Client `i` is publisher `i`,
/// and times are offsets from a virtual epoch at zero.
///
/// [`Transport::finish`] drains the queue to the end of the scenario's
/// drain limit and closes the subscribers after the last delivery.
#[derive(Debug)]
pub struct ModelTransport {
    queue: ServiceQueue<Admitted>,
    rng: SimRng,
    recorder: NodeRecorder,
    body_bytes: Vec<usize>,
    subscribers: usize,
    drain_until: Timestamp,
    /// The end of production, or the last delivery if later.
    close_at: Timestamp,
}

impl ModelTransport {
    /// A transport for `scenario`'s publishers and subscribers that
    /// records through `recorder`. The subscribers are created at time
    /// zero.
    pub fn new(scenario: &PubSubScenario, recorder: NodeRecorder) -> Self {
        for subscriber in 0..scenario.subscribers {
            recorder.record_at(
                Timestamp::ZERO,
                EventKind::ConsumerCreated {
                    consumer: consumer_id(subscriber),
                    endpoint: endpoint(subscriber),
                    session_mode: SessionMode::AutoAcknowledge,
                    selector: None,
                },
            );
        }
        let production_end = Timestamp::ZERO + scenario.production_period;
        Self {
            queue: ServiceQueue::new(scenario.model.clone()),
            rng: SimRng::seed_from_u64(scenario.seed).derive(0),
            recorder,
            body_bytes: scenario.publishers.iter().map(|p| p.body_bytes).collect(),
            subscribers: scenario.subscribers,
            drain_until: production_end + scenario.drain_limit,
            close_at: production_end,
        }
    }

    /// Serves every message due by `now` and records its deliveries;
    /// `delivered` hears of each served message as `(publisher, time its
    /// last subscriber received it)`.
    pub fn advance(&mut self, now: Timestamp, mut delivered: impl FnMut(u32, Timestamp)) {
        let mut served = Vec::new();
        self.queue
            .advance(now, |at, message| served.push((at, message)));
        for (at, message) in served {
            let record = message.record(self.body_bytes[message.publisher as usize]);
            let mut last = at;
            for subscriber in 0..self.subscribers {
                let at = at + self.queue.model().delivery_latency(&mut self.rng);
                last = last.max(at);
                self.recorder.record_at(
                    at,
                    EventKind::Receive {
                        consumer: consumer_id(subscriber),
                        endpoint: endpoint(subscriber),
                        record: record.clone(),
                        session: SessionId::from_raw(SUBSCRIBER_BASE + subscriber as u64),
                        tx: None,
                    },
                );
            }
            self.close_at = self.close_at.max(last);
            delivered(message.publisher, last);
        }
    }

    /// Offers `publisher`'s message `sequence`, intended for `intended`,
    /// at `now`, and records the `Send` if it is accepted; otherwise
    /// returns when the full queue frees a place. The transport must
    /// already be advanced to `now`.
    pub fn publish(
        &mut self,
        publisher: u32,
        sequence: u64,
        intended: Timestamp,
        now: Timestamp,
    ) -> Result<(), Timestamp> {
        let message = Admitted {
            publisher,
            sequence,
            intended,
            sent_at: now,
        };
        let body_bytes = self.body_bytes[publisher as usize];
        self.queue.offer(now, body_bytes, message)?;
        self.recorder.record_at(
            now,
            EventKind::Send {
                record: message.record(body_bytes),
                session: SessionId::from_raw(u64::from(publisher) + 1),
                tx: None,
            },
        );
        Ok(())
    }

    /// When the message in service completes; `None` while idle.
    pub fn next_completion(&self) -> Option<Timestamp> {
        self.queue.next_completion()
    }
}

impl Transport for ModelTransport {
    fn send(
        &mut self,
        client: u32,
        seq: u64,
        intended: Duration,
        now: Duration,
    ) -> SendDisposition {
        let now = Timestamp::ZERO + now;
        self.advance(now, |_, _| {});
        match self.publish(client, seq, Timestamp::ZERO + intended, now) {
            Ok(()) => SendDisposition::Sent,
            Err(free_at) => SendDisposition::RetryAfter(free_at.saturating_since(now)),
        }
    }

    fn finish(&mut self) {
        self.advance(self.drain_until, |_, _| {});
        for subscriber in 0..self.subscribers {
            self.recorder.record_at(
                self.close_at,
                EventKind::ConsumerClosed {
                    consumer: consumer_id(subscriber),
                    endpoint: endpoint(subscriber),
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmst_core::Analyzer;
    use jmst_store::event::Event;

    fn scenario(model: ServiceModel, rate: f64) -> PubSubScenario {
        PubSubScenario {
            publishers: vec![PublisherSpec::steady(rate, 1024)],
            subscribers: 1,
            model,
            production_period: Duration::from_secs(20),
            drain_limit: Duration::from_secs(100),
            seed: 7,
        }
    }

    fn sends(trace: &Trace) -> Vec<(&Event, &MessageRecord)> {
        trace
            .iter()
            .filter_map(|event| match &event.kind {
                EventKind::Send { record, .. } => Some((event, record)),
                _ => None,
            })
            .collect()
    }

    fn receives(trace: &Trace) -> Vec<(&Event, &MessageRecord)> {
        trace
            .iter()
            .filter_map(|event| match &event.kind {
                EventKind::Receive { record, .. } => Some((event, record)),
                _ => None,
            })
            .collect()
    }

    /// Events matching `pick` per second of `[start, end)`.
    fn rate(
        events: &[(&Event, &MessageRecord)],
        start: Timestamp,
        end: Timestamp,
        per: usize,
    ) -> f64 {
        let count = events
            .iter()
            .filter(|(event, _)| event.at >= start && event.at < end)
            .count();
        count as f64 / per as f64 / end.saturating_since(start).as_secs_f64()
    }

    fn steady_window() -> (Timestamp, Timestamp) {
        (Timestamp::from_secs(2), Timestamp::from_secs(18))
    }

    #[test]
    fn underloaded_plateau_delivers_everything_at_offered_rate() {
        let trace = scenario(ServiceModel::plateau(100.0, 10), 20.0).run(Duration::ZERO);
        assert_eq!(sends(&trace).len(), receives(&trace).len());
        let rate = rate(&sends(&trace), Timestamp::ZERO, Timestamp::from_secs(20), 1);
        assert!((rate - 20.0).abs() < 1.0, "rate {rate}");
    }

    #[test]
    fn overloaded_plateau_throttles_to_capacity() {
        let trace = scenario(ServiceModel::plateau(50.0, 10), 500.0).run(Duration::ZERO);
        let (start, end) = steady_window();
        let publisher = rate(&sends(&trace), start, end, 1);
        let subscriber = rate(&receives(&trace), start, end, 1);
        assert!(
            (publisher - 50.0).abs() < 5.0,
            "publisher rate {publisher} should plateau near capacity"
        );
        assert!(
            (subscriber - 50.0).abs() < 5.0,
            "subscriber rate {subscriber} should plateau near capacity"
        );
    }

    #[test]
    fn thrashing_degrades_under_overload() {
        let model = ServiceModel::thrashing(160.0, 100);
        let light = scenario(model.clone(), 80.0).run(Duration::ZERO);
        let heavy = scenario(model, 1000.0).run(Duration::ZERO);
        let (start, end) = steady_window();
        let light_rate = rate(&receives(&light), start, end, 1);
        let heavy_rate = rate(&receives(&heavy), start, end, 1);
        // Light load: near the offered 80/s. Heavy: *below* the light rate,
        // the collapse of Figure 3.
        assert!((light_rate - 80.0).abs() < 8.0, "light {light_rate}");
        assert!(
            heavy_rate < light_rate,
            "overload should reduce throughput ({heavy_rate} vs {light_rate})"
        );
        // Publishers are never throttled by the thrashing model.
        let heavy_pub = rate(&sends(&heavy), start, end, 1);
        assert!((heavy_pub - 1000.0).abs() < 50.0, "publisher {heavy_pub}");
    }

    #[test]
    fn fanout_multiplies_deliveries() {
        let mut s = scenario(ServiceModel::plateau(100.0, 10), 10.0);
        s.subscribers = 5;
        let trace = s.run(Duration::ZERO);
        assert_eq!(receives(&trace).len(), sends(&trace).len() * 5);
    }

    #[test]
    fn per_publisher_sequences_are_dense_and_delivered_in_order() {
        let mut s = scenario(ServiceModel::thrashing(60.0, 10), 40.0);
        s.publishers.push(PublisherSpec::steady(30.0, 256));
        let trace = s.run(Duration::ZERO);
        for producer in [ProducerId::from_raw(1), ProducerId::from_raw(2)] {
            let of = |events: Vec<(&Event, &MessageRecord)>| -> Vec<u64> {
                events
                    .into_iter()
                    .filter(|(_, record)| record.producer == producer)
                    .map(|(_, record)| record.sequence)
                    .collect()
            };
            let sent = of(sends(&trace));
            assert_eq!(sent, (0..sent.len() as u64).collect::<Vec<_>>());
            // The backlog may outlast the drain limit: what arrives is a
            // prefix of what was sent, in send order.
            let received = of(receives(&trace));
            assert!(!received.is_empty());
            assert_eq!(received, sent[..received.len()], "FIFO delivery");
        }
    }

    #[test]
    fn blocked_sends_show_send_lag() {
        let intended = |record: &MessageRecord| {
            record
                .properties
                .get(INTENDED_NS_PROP)
                .and_then(Value::as_i64)
                .expect("stamped") as u64
        };
        let lags = |trace: &Trace| -> Vec<u64> {
            sends(trace)
                .into_iter()
                .map(|(event, record)| event.at.as_nanos() - intended(record))
                .collect()
        };
        let blocked = scenario(ServiceModel::plateau(10.0, 2), 100.0).run(Duration::ZERO);
        assert!(
            lags(&blocked).iter().any(|&lag| lag > 0),
            "overload with a tiny queue must block some sends"
        );
        let free = scenario(ServiceModel::plateau(100.0, 10), 20.0).run(Duration::ZERO);
        assert!(lags(&free).iter().all(|&lag| lag == 0));
    }

    #[test]
    fn demand_accounts_all_publishers() {
        let s = PubSubScenario {
            publishers: vec![
                PublisherSpec::steady(10.0, 100),
                PublisherSpec::steady(5.0, 200),
            ],
            subscribers: 1,
            model: ServiceModel::plateau(100.0, 10),
            production_period: Duration::from_secs(1),
            drain_limit: Duration::from_secs(1),
            seed: 0,
        };
        assert!((s.demand_bytes_per_sec() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn mean_delay_reflects_queueing() {
        let delay = |rate: f64| {
            let trace = scenario(ServiceModel::plateau(100.0, 50), rate).run(Duration::ZERO);
            Analyzer::new()
                .analyze(&trace)
                .performance
                .delay
                .stats
                .mean()
        };
        let (light, heavy) = (delay(10.0), delay(400.0));
        assert!(
            heavy > light,
            "queueing should add delay ({heavy} ms vs {light} ms)"
        );
    }

    fn figure_scenario() -> PubSubScenario {
        PubSubScenario {
            publishers: vec![PublisherSpec::steady(50.0, 512)],
            subscribers: 2,
            model: ServiceModel::plateau(500.0, 100),
            production_period: Duration::from_secs(10),
            drain_limit: Duration::from_secs(30),
            seed: 3,
        }
    }

    #[test]
    fn model_trace_passes_all_safety_properties() {
        let trace = figure_scenario().run(Duration::from_secs(2));
        let report = Analyzer::new().analyze(&trace);
        assert!(report.passed(), "{report}");
        assert!(report.sends > 100);
        assert_eq!(report.receives, report.sends * 2, "fan-out of 2");
    }

    #[test]
    fn analyzer_throughput_equals_the_counted_events() {
        let trace = figure_scenario().run(Duration::from_secs(2));
        let performance = Analyzer::new().analyze(&trace).performance;
        let (start, end) = trace.run_window();
        let publisher = rate(&sends(&trace), start, end, 1);
        let subscriber = rate(&receives(&trace), start, end, 1);
        assert_eq!(performance.producer_throughput.messages_per_sec, publisher);
        assert_eq!(performance.consumer_throughput.messages_per_sec, subscriber);
    }

    #[test]
    fn message_ids_are_unique_across_publishers() {
        let id = |publisher, sequence| {
            let message = Admitted {
                publisher,
                sequence,
                intended: Timestamp::ZERO,
                sent_at: Timestamp::ZERO,
            };
            message.record(0).message
        };
        assert_ne!(id(0, 5), id(1, 5));
        assert_ne!(id(0, 5), id(0, 6));
    }

    #[test]
    fn run_window_matches_phase_markers() {
        let trace = figure_scenario().run(Duration::from_secs(2));
        let (start, end) = trace.run_window();
        assert_eq!(start, Timestamp::from_secs(2));
        assert_eq!(end, Timestamp::from_secs(10));
    }
}
