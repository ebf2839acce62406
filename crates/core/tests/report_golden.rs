//! Golden report: a seeded faulty trace that violates every
//! [`PropertyKind`] must give exactly the analysis text and violation
//! order recorded in `golden/faulty_report.txt`.
//!
//! The trace is logged out of canonical order (receives follow their
//! sends, one node's clock runs late, one pair of events shares an
//! `(at, seq)` key), so the test pins the canonical-order sort, the
//! checkers' keyed state and the report rendering together: a change
//! to any of them that reorders, drops or alters a violation fails
//! here. Regenerate the golden only for an intended change of output:
//! `JMST_BLESS=1 cargo test -p jmst-core --test report_golden`.

use jmst_api::destination::{Destination, EndpointId, QueueName, TopicName};
use jmst_api::id::{ConsumerId, MessageId, NodeId, ProducerId, SessionId, TxId};
use jmst_api::modes::{DeliveryMode, Priority, SessionMode, TimeToLive};
use jmst_api::properties::Properties;
use jmst_api::time::Timestamp;
use jmst_api::value::Value;
use jmst_core::{AnalysisConfig, Analyzer, PropertyKind};
use jmst_store::event::{Event, EventKind, MessageRecord, Phase};
use jmst_store::trace::Trace;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/faulty_report.txt");
const GOLDEN_PATH: &str = "tests/golden/faulty_report.txt";

const QUEUES: u64 = 3;
const PRODUCERS: u64 = 6;
const MESSAGES_PER_PRODUCER: u64 = 60;
const TOPIC_MESSAGES: u64 = 40;
const SUBSCRIBERS: u64 = 2;
const PROPERTIES: &str = "urgent = deadline 4ms where tier = 1\n\
                          tail = latency p99 <= 3ms\n";

/// A fixed-seed xorshift: the trace depends on nothing but `SEED`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

const SEED: u64 = 0x6a6d_7374_676f_6c64;

/// Appends events in logging order; `seq` is the logging position.
#[derive(Default)]
struct Log {
    events: Vec<Event>,
}

impl Log {
    fn push(&mut self, at_us: u64, node: u64, kind: EventKind) {
        let seq = self.events.len() as u64;
        self.events.push(Event {
            seq,
            at: Timestamp::from_micros(at_us),
            node: NodeId::from_raw(node),
            kind,
        });
    }
}

fn queue_endpoint(queue: u64) -> EndpointId {
    EndpointId::for_queue(QueueName::new(format!("q{queue}")))
}

fn subscription(subscriber: u64) -> EndpointId {
    EndpointId::non_durable(TopicName::new("t"), ConsumerId::from_raw(200 + subscriber))
}

#[allow(clippy::too_many_arguments)]
fn record(
    message: u64,
    producer: u64,
    sequence: u64,
    destination: Destination,
    priority: u8,
    persistent: bool,
    ttl: TimeToLive,
    sent_us: u64,
    properties: Properties,
) -> MessageRecord {
    MessageRecord {
        message: MessageId::from_raw(message),
        producer: ProducerId::from_raw(producer),
        sequence,
        destination,
        priority: Priority::new(priority).expect("legal priority"),
        delivery_mode: if persistent {
            DeliveryMode::Persistent
        } else {
            DeliveryMode::NonPersistent
        },
        time_to_live: ttl,
        sent_at: Timestamp::from_micros(sent_us),
        body_bytes: 128 + message % 64,
        redelivered: false,
        delivery_count: 1,
        properties,
    }
}

/// The seeded faulty run, in logging order.
fn faulty_log() -> Vec<Event> {
    let mut rng = Rng(SEED);
    let mut log = Log::default();
    let mut urgent = Properties::new();
    urgent.set("tier", Value::Int(1)).expect("legal property");

    log.push(0, 0, EventKind::PhaseStarted { phase: Phase::Run });
    for queue in 0..QUEUES {
        log.push(
            10,
            2,
            EventKind::ConsumerCreated {
                consumer: ConsumerId::from_raw(100 + queue),
                endpoint: queue_endpoint(queue),
                session_mode: SessionMode::AutoAcknowledge,
                selector: None,
            },
        );
    }
    for subscriber in 0..SUBSCRIBERS {
        log.push(
            10,
            3,
            EventKind::ConsumerCreated {
                consumer: ConsumerId::from_raw(200 + subscriber),
                endpoint: subscription(subscriber),
                session_mode: SessionMode::AutoAcknowledge,
                selector: None,
            },
        );
    }

    // Queue traffic: producers interleaved, each to queue `p % QUEUES`.
    let mut message = 0;
    let mut last_us = 0;
    let mut held: Vec<Option<EventKind>> = vec![None; PRODUCERS as usize];
    for index in 0..PRODUCERS * MESSAGES_PER_PRODUCER {
        let producer = index % PRODUCERS;
        let queue = producer % QUEUES;
        let sequence = index / PRODUCERS;
        message += 1;
        let sent_us = 1_000 + index * 250;
        // Producer 0's high-priority messages wait longest: a priority
        // inversion on q0.
        let priority = if sequence.is_multiple_of(2) { 8 } else { 2 };
        let short_ttl = rng.chance(6);
        let ttl = if short_ttl {
            TimeToLive::from_millis(1)
        } else {
            TimeToLive::FOREVER
        };
        let props = if rng.chance(10) {
            urgent.clone()
        } else {
            Properties::new()
        };
        let persistent = !(producer == 1 && sequence.is_multiple_of(3));
        let record = record(
            message,
            producer + 1,
            sequence,
            Destination::queue(format!("q{queue}")),
            priority,
            persistent,
            ttl,
            sent_us,
            props,
        );
        log.push(
            sent_us,
            1,
            EventKind::Send {
                record: record.clone(),
                session: SessionId::from_raw(producer + 1),
                tx: None,
            },
        );
        if rng.chance(4) {
            continue; // dropped
        }
        let mut delay = 1_500 + rng.below(2_000);
        if producer == 0 && priority == 8 {
            delay += 3_000;
        }
        let received_us = sent_us + delay;
        let mut delivered = record;
        let redelivery = rng.chance(3);
        if redelivery {
            delivered.redelivered = true;
            delivered.delivery_count = 5;
        }
        let receive = EventKind::Receive {
            consumer: ConsumerId::from_raw(100 + queue),
            endpoint: queue_endpoint(queue),
            record: delivered,
            session: SessionId::from_raw(100 + queue),
            tx: None,
        };
        // Producer 3's receives are stamped 700 µs late: a skewed clock.
        let skew = if producer == 3 { 700 } else { 0 };
        let slot = &mut held[producer as usize];
        if slot.is_none() && !redelivery && rng.chance(5) {
            *slot = Some(receive);
            continue; // overtaken by the producer's next message
        }
        log.push(received_us + skew, 2, receive.clone());
        if rng.chance(4) {
            log.push(received_us + skew + 1, 2, receive);
        }
        if let Some(late) = slot.take() {
            log.push(received_us + skew + 2, 2, late);
        }
        last_us = last_us.max(received_us + skew + 2);
    }

    // A transacted producer on the topic: one committed and one
    // rolled-back transaction, every committed message delivered to
    // each subscriber.
    let topic_producer = 50;
    let session = SessionId::from_raw(topic_producer);
    for index in 0..TOPIC_MESSAGES {
        message += 1;
        let tx = TxId::from_raw(1 + index / (TOPIC_MESSAGES / 2));
        let sent_us = 2_000 + index * 900;
        let record = record(
            message,
            topic_producer,
            index,
            Destination::topic("t"),
            4,
            true,
            TimeToLive::FOREVER,
            sent_us,
            Properties::new(),
        );
        log.push(
            sent_us,
            4,
            EventKind::Send {
                record: record.clone(),
                session,
                tx: Some(tx),
            },
        );
        if index + 1 == TOPIC_MESSAGES / 2 {
            log.push(sent_us + 10, 4, EventKind::Commit { session, tx });
        }
        if index + 1 == TOPIC_MESSAGES {
            log.push(sent_us + 10, 4, EventKind::Rollback { session, tx });
        }
        if tx.as_u64() == 1 {
            for subscriber in 0..SUBSCRIBERS {
                if subscriber == 1 && index % 7 == 3 {
                    continue; // a subscriber misses a committed message
                }
                log.push(
                    sent_us + 20_000 + rng.below(1_000),
                    3,
                    EventKind::Receive {
                        consumer: ConsumerId::from_raw(200 + subscriber),
                        endpoint: subscription(subscriber),
                        record: record.clone(),
                        session: SessionId::from_raw(200 + subscriber),
                        tx: None,
                    },
                );
            }
        }
    }

    // Receives of messages no producer ever sent, one of them sharing
    // the canonical key of the event logged just before it.
    for phantom in 0..3 {
        let at_us = 5_000 + phantom * 4_000;
        let phantom_record = record(
            9_000 + phantom,
            99,
            phantom,
            Destination::queue("q1"),
            4,
            true,
            TimeToLive::FOREVER,
            at_us - 1_000,
            Properties::new(),
        );
        log.push(
            at_us,
            2,
            EventKind::Receive {
                consumer: ConsumerId::from_raw(101),
                endpoint: queue_endpoint(1),
                record: phantom_record,
                session: SessionId::from_raw(101),
                tx: None,
            },
        );
    }
    let twin = log.events.last().expect("logged").clone();
    let mut twin_event = twin.clone();
    if let EventKind::Receive { record, .. } = &mut twin_event.kind {
        record.message = MessageId::from_raw(9_100);
    }
    log.events.push(twin_event);

    for queue in 0..QUEUES {
        log.push(
            last_us + 500,
            2,
            EventKind::ConsumerClosed {
                consumer: ConsumerId::from_raw(100 + queue),
                endpoint: queue_endpoint(queue),
            },
        );
    }
    log.push(
        last_us + 1_000,
        0,
        EventKind::PhaseStarted {
            phase: Phase::WarmDown,
        },
    );
    log.events
}

fn analyzer() -> Analyzer {
    let config = AnalysisConfig {
        redelivery_bound: Some(2),
        ..AnalysisConfig::all_checks()
    };
    let properties = jmst_props::parse_properties(PROPERTIES).expect("properties parse");
    Analyzer::with_config(config).with_registry(jmst_props::compile_registry(&properties))
}

/// The report's display, then every violation in report order.
fn rendered(trace: &Trace) -> String {
    let report = analyzer().analyze(trace);
    let mut text = report.to_string();
    text.push_str("\n--- violations in report order ---\n");
    for violation in &report.violations {
        writeln!(text, "{violation}").expect("write to string");
    }
    for outcome in &report.named {
        writeln!(
            text,
            "property '{}': {} violation(s)",
            outcome.name, outcome.violations
        )
        .expect("write to string");
    }
    text
}

#[test]
fn faulty_trace_violates_every_property_kind() {
    let report = analyzer().analyze(&Trace::from_events(faulty_log()));
    for kind in [
        PropertyKind::DeliveryIntegrity,
        PropertyKind::RequiredMessages,
        PropertyKind::MessageOrdering,
        PropertyKind::MessagePriority,
        PropertyKind::ExpiredMessages,
        PropertyKind::DuplicateDelivery,
        PropertyKind::BoundedRedelivery,
        PropertyKind::Deadline,
        PropertyKind::SloWindow,
    ] {
        assert!(report.count_of(kind) > 0, "no {kind} violation:\n{report}");
    }
}

#[test]
fn faulty_report_matches_golden() {
    let text = rendered(&Trace::from_events(faulty_log()));
    if std::env::var_os("JMST_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &text).expect("write golden");
        return;
    }
    assert!(
        text == GOLDEN,
        "report differs from {GOLDEN_PATH}:\n{text}\n(set JMST_BLESS=1 to regenerate)"
    );
}
