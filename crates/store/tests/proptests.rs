//! Property-based tests of the trace store: canonical ordering, merge
//! semantics, the live reorder buffer, CSV export, and statistics
//! invariants.

use jmst_api::destination::{Destination, EndpointId};
use jmst_api::id::{ConsumerId, MessageId, NodeId, ProducerId, SessionId, TxId};
use jmst_api::modes::{DeliveryMode, Priority, TimeToLive};
use jmst_api::time::Timestamp;
use jmst_store::event::{Event, EventKind, MessageRecord};
use jmst_store::stats::SummaryStats;
use jmst_store::trace::Trace;
use jmst_store::ReorderBuffer;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

fn record(message: u64, producer: u64, sequence: u64) -> MessageRecord {
    MessageRecord {
        message: MessageId::from_raw(message),
        producer: ProducerId::from_raw(producer),
        sequence,
        destination: Destination::queue("q"),
        priority: Priority::DEFAULT,
        delivery_mode: DeliveryMode::Persistent,
        time_to_live: TimeToLive::FOREVER,
        sent_at: Timestamp::from_millis(sequence),
        body_bytes: 16,
        redelivered: false,
        delivery_count: 1,
        properties: Default::default(),
    }
}

/// Generates an arbitrary soup of events with random timestamps.
fn arb_events() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec(
        (
            0u64..1_000,
            0u64..5,
            0u64..100,
            prop_oneof![Just(0u8), Just(1), Just(2), Just(3)],
        ),
        0..60,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, (at, node, message, kind))| Event {
                seq: i as u64,
                at: Timestamp::from_millis(at),
                node: NodeId::from_raw(node),
                kind: match kind {
                    0 => EventKind::Send {
                        record: record(message, message % 3, message),
                        session: SessionId::from_raw(1),
                        tx: None,
                    },
                    1 => EventKind::Receive {
                        consumer: ConsumerId::from_raw(7),
                        endpoint: EndpointId::for_queue("q".into()),
                        record: record(message, message % 3, message),
                        session: SessionId::from_raw(2),
                        tx: None,
                    },
                    2 => EventKind::Commit {
                        session: SessionId::from_raw(1),
                        tx: TxId::from_raw(message),
                    },
                    _ => EventKind::BrokerCrashed,
                },
            })
            .collect()
    })
}

/// Events whose `(at, seq)` keys come from a small space, so many share
/// a key; each event's node is its input position, so two events with
/// one key are still told apart.
fn arb_colliding_events() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec((0u64..6, 0u64..6), 0..200).prop_map(|keys| {
        keys.into_iter()
            .enumerate()
            .map(|(position, (at, seq))| Event {
                seq,
                at: Timestamp::from_millis(at),
                node: NodeId::from_raw(position as u64),
                kind: EventKind::BrokerCrashed,
            })
            .collect()
    })
}

/// The canonical order by definition: a stable sort on the key.
fn reference_sort(mut events: Vec<Event>) -> Vec<Event> {
    events.sort_by_key(Event::ord_key);
    events
}

/// The reorder buffer as one binary heap of every held event: the
/// design [`ReorderBuffer`] replaced, kept as its reference.
struct HeapBuffer {
    depth: usize,
    heap: BinaryHeap<Reverse<Keyed>>,
}

struct Keyed(Event);

impl PartialEq for Keyed {
    fn eq(&self, other: &Self) -> bool {
        self.0.ord_key() == other.0.ord_key()
    }
}

impl Eq for Keyed {}

impl PartialOrd for Keyed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Keyed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.ord_key().cmp(&other.0.ord_key())
    }
}

impl HeapBuffer {
    fn push(&mut self, event: Event) -> Option<Event> {
        self.heap.push(Reverse(Keyed(event)));
        if self.heap.len() > self.depth.max(1) {
            self.pop()
        } else {
            None
        }
    }

    fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse(Keyed(event))| event)
    }
}

/// A stream in logging order: events in key order, each logged up to
/// its own displacement later, with some logged twice in a row (equal
/// keys). The copies are exact, so any release order of equal keys
/// gives the same events.
fn arb_displaced_stream() -> impl Strategy<Value = (usize, Vec<Event>)> {
    (
        1usize..24,
        0usize..60,
        prop::collection::vec((0usize..1_000, 0u8..10), 0..300),
    )
        .prop_map(|(depth, max_displacement, rows)| {
            let mut logged: Vec<(usize, usize, Event)> = Vec::new();
            for (index, (draw, copies)) in rows.into_iter().enumerate() {
                let displacement = draw % (max_displacement + 1);
                let event = Event {
                    seq: index as u64,
                    // Pairs of events share a timestamp: `seq` orders them.
                    at: Timestamp::from_millis(index as u64 / 2),
                    node: NodeId::from_raw(0),
                    kind: EventKind::BrokerCrashed,
                };
                if copies == 0 {
                    logged.push((index + displacement, index, event.clone()));
                }
                logged.push((index + displacement, index, event));
            }
            logged.sort_by_key(|&(slot, index, _)| (slot, index));
            (
                depth,
                logged.into_iter().map(|(_, _, event)| event).collect(),
            )
        })
}

proptest! {
    #[test]
    fn from_events_produces_canonical_order(events in arb_events()) {
        let trace = Trace::from_events(events.clone());
        prop_assert_eq!(trace.len(), events.len());
        for window in trace.events().windows(2) {
            prop_assert!(
                (window[0].at, window[0].seq) <= (window[1].at, window[1].seq),
                "not canonically ordered"
            );
        }
    }

    #[test]
    fn merge_is_order_insensitive(events in arb_events(), split in any::<prop::sample::Index>()) {
        let cut = if events.is_empty() { 0 } else { split.index(events.len()) };
        let (left, right) = events.split_at(cut);
        let a = Trace::merge([
            Trace::from_events(left.to_vec()),
            Trace::from_events(right.to_vec()),
        ]);
        let b = Trace::merge([
            Trace::from_events(right.to_vec()),
            Trace::from_events(left.to_vec()),
        ]);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn summary_stats_merge_any_split(
        samples in prop::collection::vec(-1e6f64..1e6, 1..200),
        split in any::<prop::sample::Index>(),
    ) {
        let cut = split.index(samples.len());
        let all: SummaryStats = samples.iter().copied().collect();
        let mut left: SummaryStats = samples[..cut].iter().copied().collect();
        let right: SummaryStats = samples[cut..].iter().copied().collect();
        left.merge(&right);
        prop_assert_eq!(left.count(), all.count());
        prop_assert!((left.mean() - all.mean()).abs() < 1e-6 * (1.0 + all.mean().abs()));
        prop_assert!(
            (left.variance() - all.variance()).abs()
                < 1e-6 * (1.0 + all.variance().abs())
        );
    }

    #[test]
    fn stats_bounds_hold(samples in prop::collection::vec(-1e9f64..1e9, 1..100)) {
        let stats: SummaryStats = samples.iter().copied().collect();
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(stats.min(), Some(min));
        prop_assert_eq!(stats.max(), Some(max));
        prop_assert!(stats.mean() >= min - 1e-9 && stats.mean() <= max + 1e-9);
        prop_assert!(stats.variance() >= 0.0);
    }

    // The open-loop engine records latency into one `LogHistogram` per
    // worker and merges them at the end; the merged histogram must be
    // indistinguishable from recording the whole stream into one.
    #[test]
    fn merged_per_worker_log_histograms_match_single_stream(
        samples in prop::collection::vec(0u64..5_000_000_000, 1..400),
        workers in 1usize..8,
    ) {
        use jmst_store::LogHistogram;
        let mut single = LogHistogram::new();
        let mut per_worker = vec![LogHistogram::new(); workers];
        for (index, &nanos) in samples.iter().enumerate() {
            single.record_nanos(nanos);
            per_worker[index % workers].record_nanos(nanos);
        }
        let mut merged = LogHistogram::new();
        for histogram in &per_worker {
            merged.merge(histogram);
        }
        prop_assert_eq!(merged.count(), single.count());
        prop_assert_eq!(merged.min(), single.min());
        prop_assert_eq!(merged.max(), single.max());
        for &q in &[0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            prop_assert_eq!(merged.quantile(q), single.quantile(q), "q = {}", q);
        }
    }

    #[test]
    fn from_events_equals_a_stable_key_sort(events in arb_colliding_events()) {
        let expected = reference_sort(events.clone());
        prop_assert_eq!(Trace::from_events(events.clone()).into_events(), expected.clone());
        // Sorted input comes back as it is.
        prop_assert_eq!(Trace::from_events(expected.clone()).into_events(), expected);
        // Reversed input: equal keys keep their (reversed) input order.
        let mut reversed = events;
        reversed.reverse();
        prop_assert_eq!(
            Trace::from_events(reversed.clone()).into_events(),
            reference_sort(reversed)
        );
    }

    #[test]
    fn extend_and_merge_equal_a_stable_key_sort(
        events in arb_colliding_events(),
        split in any::<prop::sample::Index>(),
    ) {
        let cut = if events.is_empty() { 0 } else { split.index(events.len()) };
        let (left, right) = events.split_at(cut);
        let mut concatenated = reference_sort(left.to_vec());
        concatenated.extend_from_slice(right);
        let mut extended = Trace::from_events(left.to_vec());
        extended.extend(right.to_vec());
        prop_assert_eq!(extended.into_events(), reference_sort(concatenated));

        let mut both = reference_sort(left.to_vec());
        both.extend(reference_sort(right.to_vec()));
        let merged = Trace::merge([
            Trace::from_events(left.to_vec()),
            Trace::from_events(right.to_vec()),
        ]);
        prop_assert_eq!(merged.into_events(), reference_sort(both));
    }

    #[test]
    fn reorder_buffer_releases_what_one_heap_releases(
        case in arb_displaced_stream(),
    ) {
        let (depth, stream) = case;
        let mut buffer = ReorderBuffer::new(depth);
        let mut reference = HeapBuffer { depth, heap: BinaryHeap::new() };
        let (mut released, mut expected) = (Vec::new(), Vec::new());
        let mut expected_late = 0;
        for event in stream {
            // Late: below a key the reference already released.
            if expected.iter().any(|e: &Event| event.ord_key() < e.ord_key()) {
                expected_late += 1;
            }
            released.extend(buffer.push(event.clone()));
            expected.extend(reference.push(event));
            prop_assert_eq!(buffer.len(), reference.heap.len());
        }
        released.extend(std::iter::from_fn(|| buffer.pop()));
        expected.extend(std::iter::from_fn(|| reference.pop()));
        prop_assert!(buffer.is_empty());
        prop_assert_eq!(released, expected);
        prop_assert_eq!(buffer.late_events(), expected_late);
    }

    #[test]
    fn csv_export_row_count_matches_message_events(events in arb_events()) {
        let trace = Trace::from_events(events);
        let csv = jmst_store::csv::trace_to_csv(&trace);
        let message_events = trace
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::Send { .. } | EventKind::Receive { .. }
                )
            })
            .count();
        prop_assert_eq!(csv.lines().count(), message_events + 1); // + header
    }
}
