//! Micro-benchmarks of the campaign journal, the process-mode and
//! `--resume` data path: appending events (frame, CRC32, chained
//! HMAC-SHA256) group-committed, as a batch of events arriving together
//! is, and with a flush (one `write`) after each, as events arriving one
//! at a time are; salvaging a journal (read, CRC and MAC check, decode);
//! one record's MAC on each SHA-256 kernel this CPU runs; and CRC32 over
//! 64 bytes.
//!
//! The events are shaped like perfbench's `replay-journal` workload: a
//! queue message's send followed by its receive, 256-byte body, no user
//! properties. Divide a group's time by its event count for ns/event.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use jmst_api::destination::{Destination, EndpointId, QueueName};
use jmst_api::id::{ConsumerId, MessageId, NodeId, ProducerId, SessionId};
use jmst_api::modes::{DeliveryMode, Priority, TimeToLive};
use jmst_api::properties::Properties;
use jmst_api::time::Timestamp;
use jmst_store::codec::Writer;
use jmst_store::journal::{crc32, Sha256Kernel};
use jmst_store::{Event, EventKind, Journal, JournalKey, JournalWriter, MessageRecord};
use std::path::PathBuf;

/// Events per journal in the append and salvage groups.
const EVENTS: usize = 4_096;

/// `EVENTS / 2` messages over 8 producers and 4 queues: each message's
/// send, then its receive.
fn replay_events() -> Vec<Event> {
    let mut events = Vec::with_capacity(EVENTS);
    for index in 0..(EVENTS / 2) as u64 {
        let producer = index % 8;
        let queue = producer % 4;
        let sent_ns = 1_000_000 + index * 10_000;
        let record = MessageRecord {
            message: MessageId::from_raw(index + 1),
            producer: ProducerId::from_raw(producer + 1),
            sequence: index / 8,
            destination: Destination::queue(format!("q{queue}")),
            priority: Priority::DEFAULT,
            delivery_mode: DeliveryMode::Persistent,
            time_to_live: TimeToLive::FOREVER,
            sent_at: Timestamp::from_nanos(sent_ns),
            body_bytes: 256,
            redelivered: false,
            delivery_count: 1,
            properties: Properties::new(),
        };
        let receive = EventKind::Receive {
            consumer: ConsumerId::from_raw(100 + queue),
            endpoint: EndpointId::for_queue(QueueName::new(format!("q{queue}"))),
            record: record.clone(),
            session: SessionId::from_raw(100 + queue),
            tx: None,
        };
        let send = EventKind::Send {
            record,
            session: SessionId::from_raw(producer + 1),
            tx: None,
        };
        for (at, node, kind) in [(sent_ns, 1, send), (sent_ns + 3_000_000, 2, receive)] {
            events.push(Event {
                seq: events.len() as u64,
                at: Timestamp::from_nanos(at),
                node: NodeId::from_raw(node),
                kind,
            });
        }
    }
    events
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "jmst-journal-micro-{tag}-{}.jrnl",
        std::process::id()
    ))
}

fn append_and_salvage(c: &mut Criterion) {
    let events = replay_events();
    let key = JournalKey::default();
    let mut group = c.benchmark_group(format!("journal/{EVENTS}_events"));
    group.throughput(Throughput::Elements(EVENTS as u64));
    group.sample_size(30);
    let path = temp_path("append");
    group.bench_function("append_event", |b| {
        b.iter_batched(
            || JournalWriter::create(&path, &key).expect("create journal"),
            |mut writer| {
                for event in &events {
                    writer.append_event(0, event).expect("append");
                }
                writer.records()
            },
            BatchSize::PerIteration,
        )
    });
    group.bench_function("append_event_flush_each", |b| {
        b.iter_batched(
            || JournalWriter::create(&path, &key).expect("create journal"),
            |mut writer| {
                for event in &events {
                    writer.append_event(0, event).expect("append");
                    writer.flush().expect("flush");
                }
                writer.records()
            },
            BatchSize::PerIteration,
        )
    });
    std::fs::remove_file(&path).ok();
    let path = temp_path("salvage");
    let mut writer = JournalWriter::create(&path, &key).expect("create journal");
    for event in &events {
        writer.append_event(0, event).expect("append");
    }
    drop(writer);
    group.bench_function("salvage", |b| {
        b.iter(|| {
            let salvage = Journal::salvage(&path, &key).expect("salvage");
            assert!(salvage.intact());
            salvage.records.len()
        })
    });
    std::fs::remove_file(&path).ok();
    group.finish();
}

fn record_mac(c: &mut Criterion) {
    // The payload of one receive event's record, as the journal frames it.
    let events = replay_events();
    let mut payload = Vec::new();
    let mut w = Writer(&mut payload);
    w.u8(2);
    w.uint(0);
    w.event(&events[1]);
    let key = JournalKey::default();
    let previous = [7u8; 32];
    let mut group = c.benchmark_group(format!("journal/record_mac_{}_bytes", payload.len()));
    group.sample_size(30);
    for kernel in std::iter::once(Sha256Kernel::PORTABLE).chain(Sha256Kernel::sha_ni()) {
        group.bench_function(kernel.name(), |b| {
            b.iter(|| key.record_mac_on(kernel, black_box(&previous), black_box(&payload)))
        });
    }
    group.finish();
}

fn crc(c: &mut Criterion) {
    let data: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
    let mut group = c.benchmark_group("journal/crc32");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.sample_size(30);
    group.bench_function("64_bytes", |b| b.iter(|| crc32(black_box(&data))));
    group.finish();
}

criterion_group!(benches, append_and_salvage, record_mac, crc);
criterion_main!(benches);
