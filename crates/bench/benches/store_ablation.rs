//! E8 — the paper's §4.1 experience ablation: "JDBC represents a
//! bottleneck as each message needs to be loaded into the database …
//! For performance testing, a database is not really necessary, as only
//! simple statistical information needs to be gathered. This information
//! can be computed by the daemon prince."
//!
//! We compare the two pipelines on identical traces:
//!   * `database_load_then_query`: load every send and receive into
//!     indexed row tables (the per-event insertion a database load
//!     does), then run the §3.2 performance analysis;
//!   * `streaming_aggregation`: a single pass computing the same
//!     statistics with constant memory.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use jmst_api::destination::{Destination, EndpointId};
use jmst_api::id::{ConsumerId, MessageId, NodeId, ProducerId, SessionId};
use jmst_api::modes::{DeliveryMode, Priority, TimeToLive};
use jmst_api::time::Timestamp;
use jmst_core::perf;
use jmst_store::event::{Event, EventKind, MessageRecord, Phase};
use jmst_store::stats::SummaryStats;
use jmst_store::trace::Trace;
use std::collections::HashMap;
use std::time::Duration;

/// Builds a synthetic trace with `messages` send/receive pairs.
fn synthetic_trace(messages: u64) -> Trace {
    let mut events = Vec::with_capacity(messages as usize * 2 + 2);
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
    for i in 0..messages {
        let sent_at = Timestamp::from_micros(i * 100);
        let record = MessageRecord {
            message: MessageId::from_raw(i),
            producer: ProducerId::from_raw(i % 4),
            sequence: i / 4,
            destination: Destination::queue("q"),
            priority: Priority::DEFAULT,
            delivery_mode: DeliveryMode::Persistent,
            time_to_live: TimeToLive::FOREVER,
            sent_at,
            body_bytes: 512,
            redelivered: false,
            delivery_count: 1,
            properties: Default::default(),
        };
        push(
            sent_at,
            EventKind::Send {
                record: record.clone(),
                session: SessionId::from_raw(1),
                tx: None,
            },
            &mut events,
        );
        push(
            sent_at + Duration::from_micros(250),
            EventKind::Receive {
                consumer: ConsumerId::from_raw(9),
                endpoint: EndpointId::for_queue("q".into()),
                record,
                session: SessionId::from_raw(2),
                tx: None,
            },
            &mut events,
        );
    }
    push(
        Timestamp::from_micros(messages * 100 + 1_000),
        EventKind::PhaseStarted {
            phase: Phase::WarmDown,
        },
        &mut events,
    );
    Trace::from_events(events)
}

/// The paper's load-into-database step, reduced to its per-event work:
/// each send and receive becomes an owned row appended to its table and
/// indexed by message id, as an insert into an indexed table would be.
#[derive(Default)]
struct EventTables {
    sends: Vec<(Timestamp, MessageRecord)>,
    receives: Vec<(Timestamp, EndpointId, MessageRecord)>,
    send_by_message: HashMap<MessageId, usize>,
    receives_by_message: HashMap<MessageId, Vec<usize>>,
}

impl EventTables {
    fn load(trace: &Trace) -> Self {
        let mut tables = Self::default();
        for event in trace {
            match &event.kind {
                EventKind::Send { record, .. } => {
                    tables
                        .send_by_message
                        .insert(record.message, tables.sends.len());
                    tables.sends.push((event.at, record.clone()));
                }
                EventKind::Receive {
                    endpoint, record, ..
                } => {
                    tables
                        .receives_by_message
                        .entry(record.message)
                        .or_default()
                        .push(tables.receives.len());
                    tables
                        .receives
                        .push((event.at, endpoint.clone(), record.clone()));
                }
                _ => {}
            }
        }
        tables
    }
}

/// The prince-side streaming pipeline: one pass, constant memory.
fn streaming_statistics(trace: &Trace) -> (u64, u64, SummaryStats) {
    let mut sends = 0u64;
    let mut receives = 0u64;
    let mut delays = SummaryStats::new();
    for event in trace {
        match &event.kind {
            EventKind::Send { .. } => sends += 1,
            EventKind::Receive { record, .. } => {
                receives += 1;
                delays.push(event.at.signed_since(record.sent_at) as f64 / 1e6);
            }
            _ => {}
        }
    }
    (sends, receives, delays)
}

fn ablation(c: &mut Criterion) {
    for messages in [1_000u64, 10_000, 50_000] {
        let trace = synthetic_trace(messages);
        let mut group = c.benchmark_group(format!("store_ablation/{messages}_msgs"));
        group.throughput(Throughput::Elements(messages));
        group.bench_function("database_load_then_query", |b| {
            b.iter(|| {
                // The table load mirrors the paper's load-into-database
                // step; the analysis itself streams over the trace.
                let tables = EventTables::load(&trace);
                std::hint::black_box(&tables);
                perf::analyze(&trace, Duration::from_millis(1), 1_000)
            });
        });
        group.bench_function("streaming_aggregation", |b| {
            b.iter(|| streaming_statistics(&trace));
        });
        group.finish();
    }
}

criterion_group!(benches, ablation);
criterion_main!(benches);
