//! Criterion micro-benchmarks of the analysis pipeline: full property
//! checking over traces of increasing size, the checker layer on topic
//! fan-out traffic that carries user properties, the duplicate checker
//! on client-acknowledged queue traffic, canonical ordering (the batch
//! sort and the live reorder buffer), and the selector engine in
//! isolation.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use jmst_api::body::Body;
use jmst_api::destination::{Destination, EndpointId, TopicName};
use jmst_api::id::{ConsumerId, MessageId, NodeId, ProducerId, SessionId};
use jmst_api::message::{MessageDraft, Stamp};
use jmst_api::modes::SessionMode;
use jmst_api::selector::Selector;
use jmst_api::time::Timestamp;
use jmst_api::value::Value;
use jmst_core::properties::duplicates::DuplicatesChecker;
use jmst_core::properties::PropertyChecker;
use jmst_core::{AnalysisConfig, Analyzer};
use jmst_harness::model::{PubSubScenario, PublisherSpec};
use jmst_sim::ServiceModel;
use jmst_store::event::{Event, EventKind, MessageRecord, Phase};
use jmst_store::{ReorderBuffer, Trace};
use std::time::Duration;

fn trace_of(messages_per_sec: f64, seconds: u64) -> jmst_store::Trace {
    let scenario = PubSubScenario {
        publishers: vec![PublisherSpec::steady(messages_per_sec, 512)],
        subscribers: 2,
        model: ServiceModel::plateau(messages_per_sec * 4.0, 1_000),
        production_period: Duration::from_secs(seconds),
        drain_limit: Duration::from_secs(seconds * 10),
        seed: 5,
    };
    scenario.run(Duration::from_secs(1))
}

fn full_analysis(c: &mut Criterion) {
    for (label, rate, secs) in [
        ("small", 100.0, 10u64),
        ("medium", 500.0, 20),
        ("large", 1000.0, 60),
    ] {
        let trace = trace_of(rate, secs);
        let events = trace.len() as u64;
        let mut group = c.benchmark_group(format!("analysis/{label}_{events}_events"));
        group.throughput(Throughput::Elements(events));
        group.sample_size(10);
        group.bench_function("all_properties_plus_perf", |b| {
            let analyzer = Analyzer::new();
            b.iter(|| {
                let report = analyzer.analyze(&trace);
                assert!(report.passed());
                report.receives
            });
        });
        group.finish();
    }
}

/// Subscribers of the one topic in `fanout_props`.
const SUBSCRIBERS: u64 = 3;

/// A clean fan-out trace: two producers send `messages` messages to one
/// topic, each with the harness's four properties (two identity
/// properties and two spec-declared ones), and each of three non-durable
/// subscribers receives every one. Every record is built from the sent
/// message as the recorder builds it, so records share what a live run's
/// records share.
fn fanout_events(messages: u64) -> Vec<Event> {
    let topic = TopicName::new("fanout");
    let endpoints: Vec<EndpointId> = (1..=SUBSCRIBERS)
        .map(|consumer| EndpointId::non_durable(topic.clone(), ConsumerId::from_raw(consumer)))
        .collect();
    let mut events = Vec::with_capacity((messages * (SUBSCRIBERS + 1) + 8) as usize);
    let mut push = |at: Timestamp, kind: EventKind| {
        events.push(Event {
            seq: events.len() as u64,
            at,
            node: NodeId::from_raw(0),
            kind,
        })
    };
    push(
        Timestamp::ZERO,
        EventKind::PhaseStarted { phase: Phase::Run },
    );
    for (consumer, endpoint) in (1..).zip(&endpoints) {
        push(
            Timestamp::ZERO,
            EventKind::ConsumerCreated {
                consumer: ConsumerId::from_raw(consumer),
                endpoint: endpoint.clone(),
                session_mode: SessionMode::AutoAcknowledge,
                selector: None,
            },
        );
    }
    for i in 0..messages {
        let (producer, sequence) = (i % 2, i / 2);
        let sent_at = Timestamp::from_micros((i + 1) * 20);
        let message = MessageDraft::new(Body::text("x".repeat(64)))
            .property("jmst_producer", Value::Long(producer as i64))
            .and_then(|draft| draft.property("jmst_seq", Value::Long(sequence as i64)))
            .and_then(|draft| draft.property("region", Value::from("emea")))
            .and_then(|draft| draft.property("tier", Value::Int(2)))
            .expect("valid properties")
            .stamp(Stamp {
                id: MessageId::from_raw(i + 1),
                producer: ProducerId::from_raw(producer),
                sequence,
                destination: Destination::Topic(topic.clone()),
                sent_at,
            });
        push(
            sent_at,
            EventKind::Send {
                record: MessageRecord::from_message(&message),
                session: SessionId::from_raw(producer),
                tx: None,
            },
        );
        for (consumer, endpoint) in (1..).zip(&endpoints) {
            push(
                Timestamp::from_nanos(sent_at.as_nanos() + 5_000 * consumer),
                EventKind::Receive {
                    consumer: ConsumerId::from_raw(consumer),
                    endpoint: endpoint.clone(),
                    record: MessageRecord::from_message(&message),
                    session: SessionId::from_raw(10 + consumer),
                    tx: None,
                },
            );
        }
    }
    push(
        Timestamp::from_micros((messages + 2) * 20),
        EventKind::PhaseStarted {
            phase: Phase::WarmDown,
        },
    );
    events
}

/// The default configuration with every built-in check off; the
/// performance accumulators always run.
fn checks_off() -> AnalysisConfig {
    AnalysisConfig {
        check_integrity: false,
        check_required: false,
        check_ordering: false,
        check_priority: false,
        check_expiry: false,
        check_duplicates: false,
        redelivery_bound: None,
        ..AnalysisConfig::default()
    }
}

/// The checker layer on fan-out traffic with user properties: observe
/// cost per event for each built-in check alone (over the performance
/// accumulators, `observe/none`) and for all of them, the cost of
/// `finish`, and the cost of copying one record and one event.
fn fanout_props(c: &mut Criterion) {
    let events = fanout_events(30_000);
    let count = events.len() as u64;
    let only = |set: fn(&mut AnalysisConfig)| {
        let mut config = checks_off();
        set(&mut config);
        Analyzer::with_config(config)
    };
    let mut group = c.benchmark_group(format!("fanout_props/{count}_events"));
    group.sample_size(10);
    group.throughput(Throughput::Elements(count));
    let rows: [(&str, Analyzer); 8] = [
        ("observe/none", Analyzer::with_config(checks_off())),
        ("observe/integrity", only(|c| c.check_integrity = true)),
        ("observe/required", only(|c| c.check_required = true)),
        ("observe/ordering", only(|c| c.check_ordering = true)),
        ("observe/priority", only(|c| c.check_priority = true)),
        ("observe/expiry", only(|c| c.check_expiry = true)),
        ("observe/duplicates", only(|c| c.check_duplicates = true)),
        ("observe/all", Analyzer::new()),
    ];
    for (name, analyzer) in &rows {
        group.bench_function(*name, |b| {
            b.iter_batched_ref(
                || analyzer.streaming(),
                |streaming| {
                    for event in &events {
                        streaming.observe(event);
                    }
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.bench_function("finish/all", |b| {
        b.iter_batched(
            || {
                let mut streaming = Analyzer::new().streaming();
                for event in &events {
                    streaming.observe(event);
                }
                streaming
            },
            |streaming| {
                let report = streaming.finish();
                assert!(report.passed(), "{report}");
                report.receives
            },
            BatchSize::LargeInput,
        );
    });
    group.finish();

    let mut group = c.benchmark_group("fanout_props/copy");
    group.throughput(Throughput::Elements(1));
    let receive = &events[events.len() / 2];
    let record = receive.kind.message_record().expect("a receive");
    group.bench_function("record_clone", |b| b.iter(|| record.clone()));
    group.bench_function("event_clone", |b| b.iter(|| receive.clone()));
    group.finish();
}

/// Client-acknowledge consumers on the one queue of `duplicates`.
const ACK_CONSUMERS: u64 = 4;

/// A clean, ack-heavy queue trace: `messages` messages, each received by
/// one of four client-acknowledge consumers in turn (a session each).
/// A session acknowledges after every 4th of its receives, and every
/// 100th message is redelivered, flagged, before its session's ack.
fn ack_heavy_events(messages: u64) -> Vec<Event> {
    let endpoint = EndpointId::for_queue("q".into());
    let mut events = Vec::new();
    let mut push = |at: Timestamp, kind: EventKind| {
        events.push(Event {
            seq: events.len() as u64,
            at,
            node: NodeId::from_raw(0),
            kind,
        })
    };
    for consumer in 0..ACK_CONSUMERS {
        push(
            Timestamp::ZERO,
            EventKind::ConsumerCreated {
                consumer: ConsumerId::from_raw(consumer),
                endpoint: endpoint.clone(),
                session_mode: SessionMode::ClientAcknowledge,
                selector: None,
            },
        );
    }
    for i in 0..messages {
        let at = Timestamp::from_micros((i + 1) * 20);
        let (consumer, session) = (i % ACK_CONSUMERS, SessionId::from_raw(i % ACK_CONSUMERS));
        let mut record = MessageRecord {
            message: MessageId::from_raw(i + 1),
            producer: ProducerId::from_raw(0),
            sequence: i,
            destination: Destination::queue("q"),
            priority: Default::default(),
            delivery_mode: Default::default(),
            time_to_live: jmst_api::modes::TimeToLive::FOREVER,
            sent_at: at,
            body_bytes: 256,
            redelivered: false,
            delivery_count: 1,
            properties: Default::default(),
        };
        push(
            at,
            EventKind::Send {
                record: record.clone(),
                session: SessionId::from_raw(100),
                tx: None,
            },
        );
        let receive = |record: MessageRecord| EventKind::Receive {
            consumer: ConsumerId::from_raw(consumer),
            endpoint: endpoint.clone(),
            record,
            session,
            tx: None,
        };
        push(at, receive(record.clone()));
        if i % 100 == 99 {
            record.redelivered = true;
            record.delivery_count = 2;
            push(at, receive(record));
        }
        if (i / ACK_CONSUMERS) % 4 == 3 {
            push(at, EventKind::Acknowledge { session });
        }
    }
    events
}

/// The duplicate checker alone on an ack-heavy trace: observe cost per
/// event, and the cost of `finish`.
fn duplicates(c: &mut Criterion) {
    let events = ack_heavy_events(30_000);
    let count = events.len() as u64;
    let observed = || {
        let mut checker = DuplicatesChecker::new();
        for event in &events {
            checker.observe(event);
        }
        checker
    };
    let mut group = c.benchmark_group(format!("duplicates/{count}_events"));
    group.sample_size(20);
    group.throughput(Throughput::Elements(count));
    group.bench_function("observe", |b| {
        b.iter_batched_ref(
            DuplicatesChecker::new,
            |checker| {
                for event in &events {
                    checker.observe(event);
                }
            },
            BatchSize::LargeInput,
        );
    });
    group.bench_function("finish", |b| {
        b.iter_batched(
            observed,
            |checker| {
                let violations = Box::new(checker).finish();
                assert!(violations.is_empty(), "{violations:?}");
            },
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

/// A replay-shaped log of `messages` queue messages: each send is logged
/// with its receive 3 ms later right behind it, as a recorder that logs
/// a message's receive after its send writes them. Sends are 20 µs
/// apart, so canonical order moves every receive 150 places on.
fn replay_shaped_log(messages: u64) -> Vec<Event> {
    let endpoint = EndpointId::for_queue("q".into());
    let mut events = Vec::with_capacity(2 * messages as usize);
    for i in 0..messages {
        let sent_at = Timestamp::from_micros(1_000 + i * 20);
        let record = MessageRecord {
            message: MessageId::from_raw(i + 1),
            producer: ProducerId::from_raw(i % 4),
            sequence: i / 4,
            destination: Destination::queue("q"),
            priority: Default::default(),
            delivery_mode: Default::default(),
            time_to_live: jmst_api::modes::TimeToLive::FOREVER,
            sent_at,
            body_bytes: 256,
            redelivered: false,
            delivery_count: 1,
            properties: Default::default(),
        };
        let seq = events.len() as u64;
        events.push(Event {
            seq,
            at: sent_at,
            node: NodeId::from_raw(1),
            kind: EventKind::Send {
                record: record.clone(),
                session: SessionId::from_raw(i % 4),
                tx: None,
            },
        });
        events.push(Event {
            seq: seq + 1,
            at: Timestamp::from_micros(1_000 + i * 20 + 3_000),
            node: NodeId::from_raw(2),
            kind: EventKind::Receive {
                consumer: ConsumerId::from_raw(7),
                endpoint: endpoint.clone(),
                record,
                session: SessionId::from_raw(7),
                tx: None,
            },
        });
    }
    events
}

/// Reorder depth of the live stream (the daemon prince's).
const REORDER_DEPTH: usize = 8_192;

/// Canonical order, batch and live, on 16K replay-shaped events:
/// `Trace::from_events` on the log as written and on a log already in
/// canonical order (a live watcher's), and the `ReorderBuffer` at the
/// prince's depth on an in-order stream and on a skewed one in which
/// every 4th event arrives 1,000 places late. Each routine keeps its
/// output, so dropping the events is not timed.
fn canonical_order(c: &mut Criterion) {
    let log = replay_shaped_log(8_192);
    let sorted = Trace::from_events(log.clone()).into_events();
    let mut skewed: Vec<(usize, Event)> = sorted
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, event)| (if i % 4 == 3 { i + 1_000 } else { i }, event))
        .collect();
    skewed.sort_by_key(|&(slot, _)| slot);
    let skewed: Vec<Event> = skewed.into_iter().map(|(_, event)| event).collect();
    let count = log.len() as u64;

    let mut group = c.benchmark_group(format!("canonical_order/{count}_events"));
    group.sample_size(30);
    group.throughput(Throughput::Elements(count));
    for (name, input) in [
        ("from_events/replay", &log),
        ("from_events/sorted", &sorted),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched_ref(
                || (input.clone(), Trace::new()),
                |(events, trace)| *trace = Trace::from_events(std::mem::take(events)),
                BatchSize::LargeInput,
            );
        });
    }
    for (name, input) in [("reorder/in_order", &sorted), ("reorder/skewed", &skewed)] {
        group.bench_function(name, |b| {
            b.iter_batched_ref(
                || (input.clone(), Vec::with_capacity(input.len())),
                |(events, released)| {
                    let mut buffer = ReorderBuffer::new(REORDER_DEPTH);
                    for event in std::mem::take(events) {
                        released.extend(buffer.push(event));
                    }
                    released.extend(std::iter::from_fn(|| buffer.pop()));
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn selector_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("selector");
    group.throughput(Throughput::Elements(1));
    group.bench_function("parse_complex", |b| {
        let text = "price * quantity > 10000 AND region IN ('emea','apac') \
                    AND name LIKE 'ACME-%' AND note IS NOT NULL \
                    AND JMSPriority BETWEEN 3 AND 8";
        b.iter(|| Selector::parse(text).expect("parses"));
    });
    group.bench_function("evaluate_complex", |b| {
        let selector = Selector::parse(
            "price * quantity > 10000 AND region IN ('emea','apac') \
             AND name LIKE 'ACME-%' AND JMSPriority BETWEEN 3 AND 8",
        )
        .expect("parses");
        use jmst_api::selector::EvalValue;
        b.iter(|| {
            selector.matches_with(|name| match name {
                "price" => Some(EvalValue::Double(150.0)),
                "quantity" => Some(EvalValue::Long(100)),
                "region" => Some(EvalValue::Str("emea".into())),
                "name" => Some(EvalValue::Str("ACME-1234".into())),
                "JMSPriority" => Some(EvalValue::Long(5)),
                _ => None,
            })
        });
    });
    group.finish();
}

fn simulation_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation");
    group.sample_size(10);
    group.bench_function("figure2_single_demand_point", |b| {
        let scenario = PubSubScenario {
            publishers: vec![PublisherSpec::steady(300.0, 1024)],
            subscribers: 1,
            model: ServiceModel::provider_one(),
            production_period: Duration::from_secs(60),
            drain_limit: Duration::from_secs(600),
            seed: 3,
        };
        b.iter(|| scenario.run(Duration::ZERO).len());
    });
    group.finish();
}

criterion_group!(
    benches,
    full_analysis,
    fanout_props,
    duplicates,
    canonical_order,
    selector_engine,
    simulation_engine
);
criterion_main!(benches);
