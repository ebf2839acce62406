//! Property tests of the binary event codec: arbitrary events round-trip
//! bit for bit, and no truncation or single-bit flip of a valid encoding
//! makes the decoder panic.

use jmst_api::destination::{Destination, EndpointId, QueueName, TopicName};
use jmst_api::id::{ClientId, ConsumerId, MessageId, NodeId, ProducerId, SessionId, TxId};
use jmst_api::modes::{DeliveryMode, Priority, SessionMode, TimeToLive};
use jmst_api::properties::Properties;
use jmst_api::time::Timestamp;
use jmst_api::value::Value;
use jmst_store::codec::{decode_event, encode_event};
use jmst_store::event::{Event, EventKind, MessageRecord, Phase};
use proptest::prelude::*;

/// Free text: may be empty, and `.` draws multibyte characters too.
const TEXT: &str = ".{0,8}";

/// Every value a property may hold; the floats range over all bit
/// patterns, NaNs and infinities included.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<bool>().prop_map(Value::Bool),
        any::<i8>().prop_map(Value::Byte),
        any::<i16>().prop_map(Value::Short),
        any::<i32>().prop_map(Value::Int),
        any::<i64>().prop_map(Value::Long),
        any::<u32>().prop_map(|bits| Value::Float(f32::from_bits(bits))),
        any::<u64>().prop_map(|bits| Value::Double(f64::from_bits(bits))),
        TEXT.prop_map(Value::String),
    ]
}

fn arb_properties() -> impl Strategy<Value = Properties> {
    prop::collection::vec(("[a-zA-Z_$][a-zA-Z0-9_$]{0,5}", arb_value()), 0..4).prop_map(|entries| {
        let mut properties = Properties::new();
        for (name, value) in entries {
            properties.set(name, value).expect("legal name and type");
        }
        properties
    })
}

fn arb_destination() -> impl Strategy<Value = Destination> {
    (any::<bool>(), TEXT).prop_map(|(topic, name)| {
        if topic {
            Destination::topic(name)
        } else {
            Destination::queue(name)
        }
    })
}

fn arb_endpoint() -> impl Strategy<Value = EndpointId> {
    prop_oneof![
        TEXT.prop_map(|queue| EndpointId::for_queue(QueueName::new(queue))),
        (TEXT, TEXT, TEXT).prop_map(|(topic, client, name)| {
            EndpointId::durable(TopicName::new(topic), ClientId::new(client), name)
        }),
        (TEXT, any::<u64>()).prop_map(|(topic, consumer)| {
            EndpointId::non_durable(TopicName::new(topic), ConsumerId::from_raw(consumer))
        }),
    ]
}

fn arb_record() -> impl Strategy<Value = MessageRecord> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>()),
        arb_destination(),
        (0u8..10, any::<bool>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<bool>(), any::<u32>()),
        arb_properties(),
    )
        .prop_map(
            |(
                (message, producer, sequence),
                destination,
                (priority, persistent, ttl, sent_at),
                (body_bytes, redelivered, delivery_count),
                properties,
            )| MessageRecord {
                message: MessageId::from_raw(message),
                producer: ProducerId::from_raw(producer),
                sequence,
                destination,
                priority: Priority::new(priority).expect("0..10 is a priority"),
                delivery_mode: if persistent {
                    DeliveryMode::Persistent
                } else {
                    DeliveryMode::NonPersistent
                },
                time_to_live: TimeToLive::from_millis(ttl),
                sent_at: Timestamp::from_nanos(sent_at),
                body_bytes,
                redelivered,
                delivery_count,
                properties,
            },
        )
}

/// An event of any kind. The kind is picked by `tag`; each variant takes
/// the ingredients it needs from one shared draw.
fn arb_event() -> impl Strategy<Value = Event> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>()),
        0u8..15,
        (any::<u64>(), any::<u64>(), any::<bool>(), any::<bool>()),
        (arb_destination(), arb_endpoint(), arb_record()),
        (TEXT, 0usize..4, 0usize..3),
    )
        .prop_map(
            |(
                (seq, at, node),
                tag,
                (a, b, flag, has_tx),
                (destination, endpoint, record),
                (text, mode, phase),
            )| {
                let tx = has_tx.then(|| TxId::from_raw(b));
                let kind = match tag {
                    0 => EventKind::ProducerCreated {
                        producer: ProducerId::from_raw(a),
                        destination,
                        transacted: flag,
                    },
                    1 => EventKind::ProducerClosed {
                        producer: ProducerId::from_raw(a),
                    },
                    2 => EventKind::ConsumerCreated {
                        consumer: ConsumerId::from_raw(a),
                        endpoint,
                        session_mode: SessionMode::ALL[mode],
                        selector: flag.then_some(text),
                    },
                    3 => EventKind::ConsumerClosed {
                        consumer: ConsumerId::from_raw(a),
                        endpoint,
                    },
                    4 => EventKind::Send {
                        record,
                        session: SessionId::from_raw(a),
                        tx,
                    },
                    5 => EventKind::SendFailed {
                        producer: ProducerId::from_raw(a),
                        reason: text,
                    },
                    6 => EventKind::Receive {
                        consumer: ConsumerId::from_raw(a),
                        endpoint,
                        record,
                        session: SessionId::from_raw(b),
                        tx,
                    },
                    7 => EventKind::Acknowledge {
                        session: SessionId::from_raw(a),
                    },
                    8 => EventKind::Commit {
                        session: SessionId::from_raw(a),
                        tx: TxId::from_raw(b),
                    },
                    9 => EventKind::Rollback {
                        session: SessionId::from_raw(a),
                        tx: TxId::from_raw(b),
                    },
                    10 => EventKind::DeadLettered {
                        record,
                        parked_on: QueueName::new(text),
                    },
                    11 => EventKind::Unsubscribed { endpoint },
                    12 => EventKind::BrokerCrashed,
                    13 => EventKind::BrokerRecovered,
                    _ => EventKind::PhaseStarted {
                        phase: [Phase::WarmUp, Phase::Run, Phase::WarmDown][phase],
                    },
                };
                Event {
                    seq,
                    at: Timestamp::from_nanos(at),
                    node: NodeId::from_raw(node),
                    kind,
                }
            },
        )
}

fn encode(event: &Event) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_event(event, &mut bytes);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_event_round_trips_bit_for_bit(event in arb_event()) {
        let bytes = encode(&event);
        let decoded = decode_event(&bytes).expect("a valid encoding decodes");
        // `==` fails on NaN properties; the re-encoding compares every
        // float bit for bit and the debug form compares the structure.
        prop_assert_eq!(encode(&decoded), bytes);
        prop_assert_eq!(format!("{decoded:?}"), format!("{event:?}"));
    }

    #[test]
    fn truncations_and_bit_flips_never_panic(event in arb_event()) {
        let bytes = encode(&event);
        for cut in 0..bytes.len() {
            prop_assert!(decode_event(&bytes[..cut]).is_err(), "cut at {}", cut);
        }
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            // Either outcome is fine; reaching the next line is the test.
            let _ = decode_event(&flipped);
        }
    }
}
