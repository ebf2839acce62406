//! The service-model runs behind Figures 2 and 3, end to end: their
//! traces conserve messages, keep per-publisher order, respect plateau
//! capacity, close every subscriber after its last delivery, and are
//! byte-for-byte reproducible from the seed.

use jmst_api::id::{ConsumerId, MessageId};
use jmst_api::time::Timestamp;
use jmst_harness::model::{PubSubScenario, PublisherSpec};
use jmst_sim::{ArrivalProcess, ServiceModel};
use jmst_store::codec::encode_event;
use jmst_store::event::EventKind;
use jmst_store::trace::Trace;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

fn arb_model() -> impl Strategy<Value = ServiceModel> {
    prop_oneof![
        (10.0f64..500.0, 1usize..64)
            .prop_map(|(capacity, queue)| ServiceModel::plateau(capacity, queue)),
        (10.0f64..500.0, 10usize..500)
            .prop_map(|(capacity, threshold)| ServiceModel::thrashing(capacity, threshold)),
    ]
}

fn poisson_scenario(model: ServiceModel, seed: u64) -> PubSubScenario {
    PubSubScenario {
        publishers: vec![PublisherSpec {
            arrivals: ArrivalProcess::poisson(90.0),
            body_bytes: 64,
        }],
        subscribers: 2,
        model,
        production_period: Duration::from_secs(5),
        drain_limit: Duration::from_secs(60),
        seed,
    }
}

/// The trace in the binary event codec, the journal's on-disk form.
fn encoded(trace: &Trace) -> Vec<u8> {
    let mut bytes = Vec::new();
    for event in trace {
        encode_event(event, &mut bytes);
    }
    bytes
}

/// Receives per second per subscriber in `[start, end)`.
fn subscriber_rate(trace: &Trace, start: u64, end: u64, subscribers: usize) -> f64 {
    let (start, end) = (Timestamp::from_secs(start), Timestamp::from_secs(end));
    let count = trace
        .iter()
        .filter(|event| matches!(event.kind, EventKind::Receive { .. }))
        .filter(|event| event.at >= start && event.at < end)
        .count();
    count as f64 / subscribers as f64 / end.saturating_since(start).as_secs_f64()
}

/// Every `Receive` of a consumer precedes that consumer's
/// `ConsumerClosed` in trace order.
fn receives_after_close(trace: &Trace) -> Vec<String> {
    let mut closed: HashMap<ConsumerId, Timestamp> = HashMap::new();
    let mut late = Vec::new();
    for event in trace {
        match &event.kind {
            EventKind::ConsumerClosed { consumer, .. } => {
                closed.insert(*consumer, event.at);
            }
            EventKind::Receive { consumer, .. } => {
                if let Some(at) = closed.get(consumer) {
                    late.push(format!(
                        "{consumer} closed at {at}, received at {}",
                        event.at
                    ));
                }
            }
            _ => {}
        }
    }
    late
}

#[test]
fn no_receive_follows_its_consumers_close() {
    for model in [ServiceModel::provider_one(), ServiceModel::provider_two()] {
        for rate in [50.0, 400.0] {
            let scenario = PubSubScenario {
                publishers: vec![PublisherSpec::steady(rate, 1024)],
                subscribers: 2,
                model: model.clone(),
                production_period: Duration::from_secs(10),
                drain_limit: Duration::from_secs(600),
                seed: 3,
            };
            let trace = scenario.run(Duration::from_secs(2));
            let closes = trace
                .iter()
                .filter(|event| matches!(event.kind, EventKind::ConsumerClosed { .. }))
                .count();
            assert_eq!(closes, 2, "{model} at {rate} msg/s");
            let late = receives_after_close(&trace);
            assert!(late.is_empty(), "{model} at {rate} msg/s: {late:?}");
        }
    }
}

#[test]
fn same_seed_gives_byte_identical_traces_and_another_seed_does_not() {
    for model in [ServiceModel::provider_one(), ServiceModel::provider_two()] {
        let first = encoded(&poisson_scenario(model.clone(), 11).run(Duration::from_secs(1)));
        let again = encoded(&poisson_scenario(model.clone(), 11).run(Duration::from_secs(1)));
        let other = encoded(&poisson_scenario(model.clone(), 12).run(Duration::from_secs(1)));
        assert!(!first.is_empty());
        assert!(first == again, "{model}: same seed, different bytes");
        assert!(first != other, "{model}: the seed must matter");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn conservation_and_per_publisher_order(
        model in arb_model(),
        rate in 1.0f64..600.0,
        subscribers in 1usize..4,
        seed in any::<u64>(),
    ) {
        let scenario = PubSubScenario {
            publishers: vec![
                PublisherSpec::steady(rate, 256),
                PublisherSpec::steady(rate / 2.0, 128),
            ],
            subscribers,
            model,
            production_period: Duration::from_secs(10),
            drain_limit: Duration::from_secs(120),
            seed,
        };
        let trace = scenario.run(Duration::ZERO);
        let mut sent: Vec<MessageId> = Vec::new();
        let mut sent_at: HashMap<MessageId, Timestamp> = HashMap::new();
        let mut received: HashMap<MessageId, usize> = HashMap::new();
        let mut last_seq: BTreeMap<(ConsumerId, u64), u64> = BTreeMap::new();
        for event in &trace {
            match &event.kind {
                EventKind::Send { record, .. } => {
                    sent.push(record.message);
                    sent_at.insert(record.message, event.at);
                }
                EventKind::Receive { consumer, record, .. } => {
                    // Never before its send, never out of publisher order.
                    let send = sent_at.get(&record.message);
                    prop_assert!(send.is_some_and(|&at| at <= event.at));
                    let key = (*consumer, record.producer.as_u64());
                    if let Some(&previous) = last_seq.get(&key) {
                        prop_assert!(record.sequence > previous, "FIFO violated");
                    }
                    last_seq.insert(key, record.sequence);
                    *received.entry(record.message).or_default() += 1;
                }
                _ => {}
            }
        }
        // Each send reaches every subscriber once, except the backlog the
        // drain limit cut off: the last sends, which reach nobody.
        let delivered = sent
            .iter()
            .take_while(|message| received.contains_key(message))
            .count();
        for message in &sent[..delivered] {
            prop_assert_eq!(received[message], subscribers);
        }
        for message in &sent[delivered..] {
            prop_assert!(!received.contains_key(message));
        }
    }

    #[test]
    fn plateau_never_exceeds_capacity(
        capacity in 20.0f64..200.0,
        demand_factor in 1.0f64..10.0,
        seed in any::<u64>(),
    ) {
        let scenario = PubSubScenario {
            publishers: vec![PublisherSpec::steady(capacity * demand_factor, 128)],
            subscribers: 1,
            model: ServiceModel::plateau(capacity, 16),
            production_period: Duration::from_secs(30),
            drain_limit: Duration::from_secs(300),
            seed,
        };
        let rate = subscriber_rate(&scenario.run(Duration::ZERO), 5, 30, 1);
        prop_assert!(
            rate <= capacity * 1.05,
            "delivered {rate} above capacity {capacity}"
        );
        // Under heavy overload the plateau is *reached* (within 10%).
        if demand_factor >= 2.0 {
            prop_assert!(rate >= capacity * 0.9, "rate {rate} vs capacity {capacity}");
        }
    }

    #[test]
    fn scenarios_are_deterministic(model in arb_model(), seed in any::<u64>()) {
        let scenario = poisson_scenario(model, seed);
        prop_assert_eq!(scenario.run(Duration::ZERO), scenario.run(Duration::ZERO));
    }
}
