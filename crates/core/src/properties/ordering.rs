//! Property 3 — Message Ordering: messages from one producer with the
//! same priority and delivery mode (and destination) must be received in
//! send order; additionally, a persistent message must never overtake an
//! earlier non-persistent message from the same producer (the reverse is
//! permitted).
//!
//! The check is a single left-to-right pass, the incremental
//! [`OrderingChecker`].

use super::PropertyChecker;
use crate::stream::TxResolver;
use crate::violation::Violation;
use jmst_api::id::{ConsumerId, MessageId, ProducerId};
use jmst_api::modes::{DeliveryMode, Priority};
use jmst_store::event::{Event, EventKind};
use std::collections::{HashMap, HashSet};
use std::mem;

#[derive(Debug, PartialEq, Eq, Hash, Clone)]
struct OrderKey {
    consumer: ConsumerId,
    producer: ProducerId,
    priority: Priority,
    mode: DeliveryMode,
}

#[derive(Debug, PartialEq, Eq, Hash, Clone)]
struct OvertakeKey {
    consumer: ConsumerId,
    producer: ProducerId,
    priority: Priority,
}

/// Incremental message-ordering checker.
///
/// Redelivered messages are exempt: after a rollback or session recovery
/// a message legitimately arrives later than messages that overtook it
/// while it was unacknowledged. Repeat deliveries of an id to the same
/// consumer are judged by the duplicate check, not here.
#[derive(Debug, Default)]
pub struct OrderingChecker {
    resolver: TxResolver,
    /// Highest sequence seen so far per (consumer, producer, priority, mode).
    last_seen: HashMap<OrderKey, u64>,
    /// Highest *persistent* sequence seen per (consumer, producer,
    /// priority), for the overtaking rule (stored as seq+1 so 0 is "none").
    last_persistent: HashMap<OvertakeKey, u64>,
    /// Message ids already delivered to a consumer.
    seen_ids: HashSet<(ConsumerId, MessageId)>,
    violations: Vec<Violation>,
}

impl OrderingChecker {
    /// Creates an empty checker.
    pub fn new() -> Self {
        Self::default()
    }

    fn ingest(&mut self, event: &Event) {
        let EventKind::Receive {
            consumer, record, ..
        } = &event.kind
        else {
            return;
        };
        if record.redelivered {
            return;
        }
        if !self.seen_ids.insert((*consumer, record.message)) {
            return;
        }
        let key = OrderKey {
            consumer: *consumer,
            producer: record.producer,
            priority: record.priority,
            mode: record.delivery_mode,
        };
        match self.last_seen.get(&key) {
            Some(&seen) if seen > record.sequence => {
                self.violations.push(Violation::OutOfOrder {
                    consumer: *consumer,
                    producer: record.producer,
                    earlier_sequence: record.sequence,
                    later_sequence: seen,
                });
            }
            _ => {
                self.last_seen.insert(key, record.sequence);
            }
        }
        let overtake_key = OvertakeKey {
            consumer: *consumer,
            producer: record.producer,
            priority: record.priority,
        };
        match record.delivery_mode {
            DeliveryMode::Persistent => {
                let entry = self.last_persistent.entry(overtake_key).or_insert(0);
                *entry = (*entry).max(record.sequence + 1);
            }
            DeliveryMode::NonPersistent => {
                if let Some(&seen_plus_one) = self.last_persistent.get(&overtake_key) {
                    if seen_plus_one > 0 && seen_plus_one - 1 > record.sequence {
                        self.violations
                            .push(Violation::PersistentOvertookNonPersistent {
                                consumer: *consumer,
                                producer: record.producer,
                                non_persistent_sequence: record.sequence,
                                persistent_sequence: seen_plus_one - 1,
                            });
                    }
                }
            }
        }
    }
}

impl PropertyChecker for OrderingChecker {
    /// Ordering faults are detected immediately, at the offending receive.
    fn observe(&mut self, event: &Event) {
        self.resolver
            .push(event)
            .for_each(|event| self.ingest(event));
    }

    /// Number of ordering violations detected so far.
    fn live_violations(&self) -> usize {
        self.violations.len()
    }

    fn state_bytes(&self) -> usize {
        self.resolver.state_bytes()
            + self.last_seen.capacity() * (mem::size_of::<OrderKey>() + mem::size_of::<u64>())
            + self.last_persistent.capacity()
                * (mem::size_of::<OvertakeKey>() + mem::size_of::<u64>())
            + self.seen_ids.capacity() * mem::size_of::<(ConsumerId, MessageId)>()
            + self.violations.capacity() * mem::size_of::<Violation>()
    }

    /// Finishes the check and returns the violations, in receive order.
    fn finish(self: Box<Self>) -> Vec<Violation> {
        self.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::*;
    use jmst_store::event::MessageRecord;

    fn with_mode(message: u64, sequence: u64, mode: DeliveryMode) -> MessageRecord {
        let mut record = rec(message, 1, sequence);
        record.delivery_mode = mode;
        record
    }

    fn with_priority(message: u64, sequence: u64, priority: u8) -> MessageRecord {
        let mut record = rec(message, 1, sequence);
        record.priority = Priority::new(priority).unwrap();
        record
    }

    #[test]
    fn in_order_delivery_passes() {
        let trace = TraceBuilder::new()
            .send(1, 1, 0)
            .send(2, 1, 1)
            .receive_q(1, 1, 0)
            .receive_q(2, 1, 1)
            .build();
        assert!(check(OrderingChecker::new(), &trace).is_empty());
    }

    #[test]
    fn inverted_delivery_is_flagged() {
        let trace = TraceBuilder::new()
            .send(1, 1, 0)
            .send(2, 1, 1)
            .receive_q(2, 1, 1)
            .receive_q(1, 1, 0)
            .build();
        let violations = check(OrderingChecker::new(), &trace);
        assert_eq!(violations.len(), 1);
        assert!(matches!(
            &violations[0],
            Violation::OutOfOrder {
                earlier_sequence: 0,
                later_sequence: 1,
                ..
            }
        ));
    }

    #[test]
    fn different_priorities_are_independent_streams() {
        // Higher priority overtaking lower priority is exactly what
        // priority delivery is for — not an ordering violation.
        let trace = TraceBuilder::new()
            .send_rec(with_priority(1, 0, 2), None)
            .send_rec(with_priority(2, 1, 8), None)
            .receive_rec(default_queue_endpoint(), 50, with_priority(2, 1, 8), None)
            .receive_rec(default_queue_endpoint(), 50, with_priority(1, 0, 2), None)
            .build();
        assert!(check(OrderingChecker::new(), &trace).is_empty());
    }

    #[test]
    fn different_consumers_are_independent() {
        // A queue splits one producer's stream across receivers; each
        // receiver's subsequence must be ordered, but there is no
        // cross-consumer requirement.
        let trace = TraceBuilder::new()
            .send(1, 1, 0)
            .send(2, 1, 1)
            .receive_q_by(51, 2, 1, 1)
            .receive_q_by(52, 1, 1, 0)
            .build();
        assert!(check(OrderingChecker::new(), &trace).is_empty());
    }

    #[test]
    fn non_persistent_may_overtake_persistent() {
        let trace = TraceBuilder::new()
            .send_rec(with_mode(1, 0, DeliveryMode::Persistent), None)
            .send_rec(with_mode(2, 1, DeliveryMode::NonPersistent), None)
            .receive_rec(
                default_queue_endpoint(),
                50,
                with_mode(2, 1, DeliveryMode::NonPersistent),
                None,
            )
            .receive_rec(
                default_queue_endpoint(),
                50,
                with_mode(1, 0, DeliveryMode::Persistent),
                None,
            )
            .build();
        assert!(check(OrderingChecker::new(), &trace).is_empty());
    }

    #[test]
    fn persistent_overtaking_non_persistent_is_flagged() {
        let trace = TraceBuilder::new()
            .send_rec(with_mode(1, 0, DeliveryMode::NonPersistent), None)
            .send_rec(with_mode(2, 1, DeliveryMode::Persistent), None)
            .receive_rec(
                default_queue_endpoint(),
                50,
                with_mode(2, 1, DeliveryMode::Persistent),
                None,
            )
            .receive_rec(
                default_queue_endpoint(),
                50,
                with_mode(1, 0, DeliveryMode::NonPersistent),
                None,
            )
            .build();
        let violations = check(OrderingChecker::new(), &trace);
        assert_eq!(violations.len(), 1);
        assert!(matches!(
            &violations[0],
            Violation::PersistentOvertookNonPersistent {
                non_persistent_sequence: 0,
                persistent_sequence: 1,
                ..
            }
        ));
    }

    #[test]
    fn redelivered_messages_are_exempt() {
        let mut redelivered = rec(1, 1, 0);
        redelivered.redelivered = true;
        let trace = TraceBuilder::new()
            .send(1, 1, 0)
            .send(2, 1, 1)
            .receive_q(2, 1, 1)
            .receive_rec(default_queue_endpoint(), 50, redelivered, None)
            .build();
        assert!(check(OrderingChecker::new(), &trace).is_empty());
    }

    #[test]
    fn sequence_zero_overtake_edge_case() {
        // Persistent seq 0 delivered, then non-persistent seq 1: the
        // sentinel arithmetic must not produce a phantom violation.
        let trace = TraceBuilder::new()
            .send_rec(with_mode(1, 0, DeliveryMode::Persistent), None)
            .send_rec(with_mode(2, 1, DeliveryMode::NonPersistent), None)
            .receive_rec(
                default_queue_endpoint(),
                50,
                with_mode(1, 0, DeliveryMode::Persistent),
                None,
            )
            .receive_rec(
                default_queue_endpoint(),
                50,
                with_mode(2, 1, DeliveryMode::NonPersistent),
                None,
            )
            .build();
        assert!(check(OrderingChecker::new(), &trace).is_empty());
    }

    #[test]
    fn multiple_inversions_each_flagged() {
        let trace = TraceBuilder::new()
            .send(1, 1, 0)
            .send(2, 1, 1)
            .send(3, 1, 2)
            .receive_q(3, 1, 2)
            .receive_q(1, 1, 0)
            .receive_q(2, 1, 1)
            .build();
        let violations = check(OrderingChecker::new(), &trace);
        assert_eq!(violations.len(), 2);
    }

    #[test]
    fn violations_surface_during_observation() {
        let trace = TraceBuilder::new()
            .send(1, 1, 0)
            .send(2, 1, 1)
            .receive_q(2, 1, 1)
            .receive_q(1, 1, 0)
            .build();
        let mut checker = OrderingChecker::new();
        let mut seen_live = 0;
        for event in &trace {
            checker.observe(event);
            seen_live = seen_live.max(checker.live_violations());
        }
        assert_eq!(seen_live, 1);
    }
}
