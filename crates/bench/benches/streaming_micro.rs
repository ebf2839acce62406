//! Micro-benchmark of the streaming analysis pipeline against the batch
//! driver on a large synthetic trace: one million events of clean queue
//! traffic, analysed (a) by replaying the materialised `Trace` through
//! `Analyzer::analyze` and (b) by feeding a `StreamingAnalyzer` event by
//! event, never holding the trace at all. Both produce the identical
//! report; the comparison prices the transport and shows the streaming
//! path adds no asymptotic cost over batch.
//!
//! `record_to_stream` prices the recorder layer on its own: four threads
//! record one million events through a `Recorder` whose only destination
//! is the live channel the daemon prince uses, and a `StreamingAnalyzer`
//! consumes the stream on its own thread, as in a thread-mode test.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use jmst_api::destination::{Destination, EndpointId, QueueName};
use jmst_api::id::{ConsumerId, MessageId, NodeId, ProducerId, SessionId};
use jmst_api::modes::{DeliveryMode, Priority, SessionMode, TimeToLive};
use jmst_api::properties::Properties;
use jmst_api::time::{Clock, SystemClock, Timestamp};
use jmst_api::value::Value;
use jmst_core::Analyzer;
use jmst_store::event::{Event, EventKind, MessageRecord, Phase};
use jmst_store::trace::{Recorder, Trace};
use std::sync::Arc;

/// Builds `messages` send/receive/ack triples book-ended by phase markers
/// and a consumer row — just over `3 × messages` events.
fn synthetic_events(messages: u64) -> Vec<Event> {
    let endpoint = EndpointId::for_queue(QueueName::new("q"));
    let mut events = Vec::with_capacity(messages as usize * 3 + 3);
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
        EventKind::PhaseStarted { phase: Phase::Run },
        &mut events,
    );
    push(
        Timestamp::ZERO,
        EventKind::ConsumerCreated {
            consumer: ConsumerId::from_raw(1),
            endpoint: endpoint.clone(),
            session_mode: SessionMode::AutoAcknowledge,
            selector: None,
        },
        &mut events,
    );
    for i in 0..messages {
        let at = Timestamp::from_micros((i + 1) * 50);
        let record = MessageRecord {
            message: MessageId::from_raw(i + 1),
            producer: ProducerId::from_raw(i % 4),
            sequence: i / 4,
            destination: Destination::queue("q"),
            priority: Priority::DEFAULT,
            delivery_mode: DeliveryMode::Persistent,
            time_to_live: TimeToLive::FOREVER,
            sent_at: at,
            body_bytes: 512,
            redelivered: false,
            delivery_count: 1,
            properties: Default::default(),
        };
        push(
            at,
            EventKind::Send {
                record: record.clone(),
                session: SessionId::from_raw(1),
                tx: None,
            },
            &mut events,
        );
        push(
            at,
            EventKind::Receive {
                consumer: ConsumerId::from_raw(1),
                endpoint: endpoint.clone(),
                record,
                session: SessionId::from_raw(2),
                tx: None,
            },
            &mut events,
        );
        push(
            at,
            EventKind::Acknowledge {
                session: SessionId::from_raw(2),
            },
            &mut events,
        );
    }
    push(
        Timestamp::from_micros((messages + 1) * 50),
        EventKind::PhaseStarted {
            phase: Phase::WarmDown,
        },
        &mut events,
    );
    events
}

fn streaming_vs_batch(c: &mut Criterion) {
    // ~1M events: 333_333 messages × 3 events + markers.
    let messages = 333_333u64;
    let events = synthetic_events(messages);
    let trace = Trace::from_events(events.clone());
    let total_events = events.len() as u64;

    let mut group = c.benchmark_group("streaming_micro/1M_events");
    group.sample_size(10);
    group.throughput(Throughput::Elements(total_events));
    group.bench_function("batch_trace_then_analyze", |b| {
        b.iter(|| Analyzer::new().analyze(&trace));
    });
    group.bench_function("streaming_event_by_event", |b| {
        b.iter(|| {
            let mut streaming = Analyzer::new().streaming();
            for event in &events {
                streaming.observe(event);
            }
            streaming.finish()
        });
    });
    group.finish();
}

/// Recording threads in `record_to_stream`.
const RECORDERS: u64 = 4;

/// One recording thread: consumer creation, then `messages` send /
/// receive / acknowledge triples of its own producer, stamped by the
/// system clock like a live driver's.
fn record_messages(recorder: &Recorder, thread: u64, messages: u64) {
    let node = recorder.node(
        NodeId::from_raw(thread + 1),
        Arc::new(SystemClock::new()) as Arc<dyn Clock>,
    );
    let endpoint = EndpointId::for_queue(QueueName::new(format!("q{thread}")));
    let destination = Destination::queue(format!("q{thread}"));
    let consumer = ConsumerId::from_raw(thread + 1);
    node.record(EventKind::ConsumerCreated {
        consumer,
        endpoint: endpoint.clone(),
        session_mode: SessionMode::AutoAcknowledge,
        selector: None,
    });
    for i in 0..messages {
        let mut properties = Properties::new();
        properties
            .set("region", Value::String("emea".to_owned()))
            .expect("a valid property");
        let record = MessageRecord {
            message: MessageId::from_raw((thread << 32) + i + 1),
            producer: ProducerId::from_raw(thread + 1),
            sequence: i,
            destination: destination.clone(),
            priority: Priority::DEFAULT,
            delivery_mode: DeliveryMode::Persistent,
            time_to_live: TimeToLive::FOREVER,
            sent_at: node.clock().now(),
            body_bytes: 512,
            redelivered: false,
            delivery_count: 1,
            properties,
        };
        node.record(EventKind::Send {
            record: record.clone(),
            session: SessionId::from_raw(2 * thread + 1),
            tx: None,
        });
        node.record(EventKind::Receive {
            consumer,
            endpoint: endpoint.clone(),
            record,
            session: SessionId::from_raw(2 * thread + 2),
            tx: None,
        });
        node.record(EventKind::Acknowledge {
            session: SessionId::from_raw(2 * thread + 2),
        });
    }
}

/// Records `RECORDERS × (3 × messages + 1)` events plus two phase markers
/// into a live stream and returns the streaming verdict.
fn record_to_stream_once(messages: u64) -> jmst_core::AnalysisReport {
    let recorder = Recorder::new();
    let (sink, stream) = jmst_store::sink::channel(8192, 16_384);
    recorder.attach_sink(Box::new(sink));
    let analysis = std::thread::spawn(move || {
        let mut streaming = Analyzer::new().streaming();
        for event in stream {
            streaming.observe(&event);
        }
        streaming.finish()
    });
    let control = recorder.node(NodeId::from_raw(0), Arc::new(SystemClock::new()));
    control.record(EventKind::PhaseStarted { phase: Phase::Run });
    let threads: Vec<_> = (0..RECORDERS)
        .map(|thread| {
            let recorder = recorder.clone();
            std::thread::spawn(move || record_messages(&recorder, thread, messages))
        })
        .collect();
    for thread in threads {
        thread.join().expect("recording thread");
    }
    control.record(EventKind::PhaseStarted {
        phase: Phase::WarmDown,
    });
    recorder.close_sinks();
    analysis.join().expect("analysis thread")
}

fn record_to_stream(c: &mut Criterion) {
    // ~1M events: 4 threads × 83_333 messages × 3 events + markers.
    let messages = 83_333u64;
    let total_events = RECORDERS * (3 * messages + 1) + 2;
    let report = record_to_stream_once(messages);
    assert!(report.passed(), "{report}");
    assert_eq!(report.sends, (RECORDERS * messages) as usize);

    let mut group = c.benchmark_group("streaming_micro/record_to_stream");
    group.sample_size(10);
    group.throughput(Throughput::Elements(total_events));
    group.bench_function("4_threads_1M_events", |b| {
        b.iter(|| record_to_stream_once(messages));
    });
    group.finish();
}

criterion_group!(benches, streaming_vs_batch, record_to_stream);
criterion_main!(benches);
