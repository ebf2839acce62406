//! The simulation runner: executes a queueing-model scenario in virtual
//! time and renders its outcome in the same execution-trace format the
//! live runner produces, so one analysis pipeline serves both — the
//! performance figures (paper Figures 2 and 3) are generated this way.

use jmst_api::destination::{Destination, EndpointId, TopicName};
use jmst_api::id::{ConsumerId, MessageId, NodeId, ProducerId, SessionId};
use jmst_api::modes::{DeliveryMode, Priority, SessionMode, TimeToLive};
use jmst_api::time::Timestamp;
use jmst_sim::pubsub::{PubSubOutcome, PubSubScenario};
use jmst_store::event::{Event, EventKind, MessageRecord, Phase};
use jmst_store::trace::Trace;
use std::time::Duration;

/// Offset separating simulated consumer ids from producer ids.
const CONSUMER_ID_BASE: u64 = 1_000_000;

fn message_id(publisher: usize, sequence: u64) -> MessageId {
    MessageId::from_raw(((publisher as u64 + 1) << 40) | sequence)
}

fn producer_id(publisher: usize) -> ProducerId {
    ProducerId::from_raw(publisher as u64 + 1)
}

fn consumer_id(subscriber: usize) -> ConsumerId {
    ConsumerId::from_raw(CONSUMER_ID_BASE + subscriber as u64)
}

fn topic() -> TopicName {
    TopicName::new("bench")
}

/// Runs a scenario and converts its outcome into a [`Trace`], with the
/// first `warm_up` of the production period marked as warm-up.
pub fn run_scenario_to_trace(scenario: &PubSubScenario, warm_up: Duration) -> Trace {
    let outcome = scenario.run();
    outcome_to_trace(scenario, &outcome, warm_up)
}

/// Converts an already-computed outcome into a [`Trace`].
pub fn outcome_to_trace(
    scenario: &PubSubScenario,
    outcome: &PubSubOutcome,
    warm_up: Duration,
) -> Trace {
    let mut events = Vec::new();
    let mut seq = 0u64;
    let mut push = |at: Timestamp, kind: EventKind, events: &mut Vec<Event>| {
        events.push(Event {
            seq,
            at,
            node: NodeId::from_raw(0),
            kind,
        });
        seq += 1;
    };

    push(
        Timestamp::ZERO,
        EventKind::PhaseStarted {
            phase: Phase::WarmUp,
        },
        &mut events,
    );
    push(
        Timestamp::ZERO + warm_up,
        EventKind::PhaseStarted { phase: Phase::Run },
        &mut events,
    );
    push(
        Timestamp::ZERO + scenario.production_period,
        EventKind::PhaseStarted {
            phase: Phase::WarmDown,
        },
        &mut events,
    );
    for subscriber in 0..scenario.subscribers {
        push(
            Timestamp::ZERO,
            EventKind::ConsumerCreated {
                consumer: consumer_id(subscriber),
                endpoint: EndpointId::non_durable(topic(), consumer_id(subscriber)),
                session_mode: SessionMode::AutoAcknowledge,
                selector: None,
            },
            &mut events,
        );
    }
    for send in &outcome.sends {
        let record = MessageRecord {
            message: message_id(send.publisher, send.sequence),
            producer: producer_id(send.publisher),
            sequence: send.sequence,
            destination: Destination::Topic(topic()),
            priority: Priority::DEFAULT,
            delivery_mode: DeliveryMode::NonPersistent,
            time_to_live: TimeToLive::FOREVER,
            sent_at: send.accepted_at,
            body_bytes: send.body_bytes as u64,
            redelivered: false,
            delivery_count: 1,
            properties: Default::default(),
        };
        push(
            send.accepted_at,
            EventKind::Send {
                record,
                session: SessionId::from_raw(send.publisher as u64 + 1),
                tx: None,
            },
            &mut events,
        );
    }
    for delivery in &outcome.deliveries {
        let record = MessageRecord {
            message: message_id(delivery.publisher, delivery.sequence),
            producer: producer_id(delivery.publisher),
            sequence: delivery.sequence,
            destination: Destination::Topic(topic()),
            priority: Priority::DEFAULT,
            delivery_mode: DeliveryMode::NonPersistent,
            time_to_live: TimeToLive::FOREVER,
            sent_at: delivery.sent_at,
            body_bytes: delivery.body_bytes as u64,
            redelivered: false,
            delivery_count: 1,
            properties: Default::default(),
        };
        push(
            delivery.delivered_at,
            EventKind::Receive {
                consumer: consumer_id(delivery.subscriber),
                endpoint: EndpointId::non_durable(topic(), consumer_id(delivery.subscriber)),
                record,
                session: SessionId::from_raw(CONSUMER_ID_BASE + delivery.subscriber as u64),
                tx: None,
            },
            &mut events,
        );
    }
    // Consumers close at the very end (after the drain).
    let end = outcome.ended_at;
    for subscriber in 0..scenario.subscribers {
        push(
            end,
            EventKind::ConsumerClosed {
                consumer: consumer_id(subscriber),
                endpoint: EndpointId::non_durable(topic(), consumer_id(subscriber)),
            },
            &mut events,
        );
    }
    Trace::from_events(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmst_core::Analyzer;
    use jmst_sim::{PublisherSpec, ServiceModel};

    fn scenario() -> PubSubScenario {
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
    fn simulated_trace_passes_all_safety_properties() {
        let trace = run_scenario_to_trace(&scenario(), Duration::from_secs(2));
        let report = Analyzer::new().analyze(&trace);
        assert!(report.passed(), "{report}");
        assert!(report.sends > 100);
        assert_eq!(report.receives, report.sends * 2, "fan-out of 2");
    }

    #[test]
    fn throughput_from_trace_matches_outcome_helpers() {
        let scenario = scenario();
        let outcome = scenario.run();
        let trace = outcome_to_trace(&scenario, &outcome, Duration::from_secs(2));
        let report = Analyzer::new().analyze(&trace);
        let (start, end) = trace.run_window();
        let direct = outcome.publisher_rate(start, end);
        let via_trace = report.performance.producer_throughput.messages_per_sec;
        assert!(
            (direct - via_trace).abs() < 1.0,
            "direct {direct} vs trace {via_trace}"
        );
    }

    #[test]
    fn message_ids_are_unique_across_publishers() {
        assert_ne!(message_id(0, 5), message_id(1, 5));
        assert_ne!(message_id(0, 5), message_id(0, 6));
    }

    #[test]
    fn run_window_matches_phase_markers() {
        let trace = run_scenario_to_trace(&scenario(), Duration::from_secs(2));
        let (start, end) = trace.run_window();
        assert_eq!(start, Timestamp::from_secs(2));
        assert_eq!(end, Timestamp::from_secs(10));
    }
}
