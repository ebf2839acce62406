//! Duplicate-delivery check: each message is delivered at most once per
//! consumer group, unless every involved consumer runs in dups-ok
//! (lazy-acknowledge) mode, which the paper notes "may" deliver
//! duplicates.
//!
//! Redeliveries flagged by the provider (after rollback or session
//! recovery) are legitimate **as long as the earlier delivery was never
//! acknowledged**: recovery of an unacknowledged session is exactly the
//! case JMS licenses. A redelivery that arrives *after* the original
//! delivery was settled by its session (an acknowledge, or a commit
//! acting as the transactional ack point) is a true duplicate and counts
//! like any other extra delivery.
//!
//! This module also hosts the bounded-redelivery check: when the broker
//! advertises a redelivery limit, no delivery may carry a
//! `delivery_count` beyond `bound + 1` — a poison message must be parked
//! on the dead-letter queue instead of being delivered again.
//!
//! Both checks are incremental ([`DuplicatesChecker`],
//! [`RedeliveryBoundChecker`]). Settlement is resolved online: each delivery
//! registers on its session's waitlist, and the first later ack (or
//! commit) by that session stamps every waiting delivery's
//! `first_ack_after`, which is all a future redelivery needs to judge
//! legitimacy.

use super::PropertyChecker;
use crate::id_hash::IdMap;
use crate::stream::TxResolver;
use crate::violation::Violation;
use jmst_api::destination::EndpointId;
use jmst_api::id::{ConsumerId, MessageId, SessionId};
use jmst_api::modes::SessionMode;
use jmst_api::time::Timestamp;
use jmst_store::event::{Event, EventKind};
use std::collections::BTreeMap;
use std::mem;

/// One observed delivery of a message at an end-point.
#[derive(Debug, Clone)]
struct Delivery {
    /// The first ack by the delivery's session at or after the delivery,
    /// once one has been observed.
    first_ack_after: Option<Timestamp>,
}

/// Per-(message, end-point) delivery accounting.
#[derive(Debug, Clone, Default)]
struct Tally {
    /// Deliveries that count toward the duplicate verdict.
    counted: u64,
    /// Consumers involved in counted deliveries (tiny in practice).
    consumers: Vec<ConsumerId>,
    /// Every delivery seen, for the redelivery-legitimacy test.
    seen: Vec<Delivery>,
    /// Whether this tally already contributed to the live preview.
    previewed: bool,
}

/// A delivery tally's identity: the message at a concrete endpoint.
type TallyKey = (MessageId, EndpointId);

/// Incremental duplicate-delivery checker.
#[derive(Debug, Default)]
pub struct DuplicatesChecker {
    resolver: TxResolver,
    consumer_modes: IdMap<ConsumerId, SessionMode>,
    tallies: BTreeMap<TallyKey, Tally>,
    /// Deliveries awaiting their session's next ack, as (tally key,
    /// index into `Tally::seen`).
    waitlist: IdMap<SessionId, Vec<(TallyKey, usize)>>,
    preview: usize,
}

impl DuplicatesChecker {
    /// Creates an empty checker.
    pub fn new() -> Self {
        Self::default()
    }

    fn settle_session(&mut self, session: SessionId, at: Timestamp) {
        let Some(waiting) = self.waitlist.remove(&session) else {
            return;
        };
        for (key, index) in waiting {
            if let Some(tally) = self.tallies.get_mut(&key) {
                if let Some(delivery) = tally.seen.get_mut(index) {
                    delivery.first_ack_after.get_or_insert(at);
                }
            }
        }
    }

    fn ingest(&mut self, event: &Event) {
        match &event.kind {
            EventKind::ConsumerCreated {
                consumer,
                session_mode,
                ..
            } => {
                // Last lifecycle event wins, as in the relational view.
                self.consumer_modes.insert(*consumer, *session_mode);
            }
            EventKind::Acknowledge { session } | EventKind::Commit { session, .. } => {
                self.settle_session(*session, event.at);
            }
            EventKind::Receive {
                consumer,
                endpoint,
                record,
                session,
                ..
            } => {
                let key = (record.message, endpoint.clone());
                let tally = self.tallies.entry(key.clone()).or_default();
                let counts = if record.redelivered {
                    // Legitimate iff no earlier delivery of this message
                    // here was settled before this redelivery arrived.
                    tally
                        .seen
                        .iter()
                        .any(|d| d.first_ack_after.is_some_and(|ack| ack < event.at))
                } else {
                    true
                };
                let index = tally.seen.len();
                tally.seen.push(Delivery {
                    first_ack_after: None,
                });
                if counts {
                    tally.counted += 1;
                    if !tally.consumers.contains(consumer) {
                        tally.consumers.push(*consumer);
                    }
                    if tally.counted > 1 && !tally.previewed {
                        // Preview with the modes known so far; the final
                        // verdict re-judges with the whole trace's modes.
                        let strict = tally.consumers.iter().any(|c| {
                            self.consumer_modes
                                .get(c)
                                .is_none_or(|mode| !mode.allows_duplicates())
                        });
                        if strict {
                            tally.previewed = true;
                            self.preview += 1;
                        }
                    }
                }
                self.waitlist
                    .entry(*session)
                    .or_default()
                    .push((key, index));
            }
            _ => {}
        }
    }
}

impl PropertyChecker for DuplicatesChecker {
    fn observe(&mut self, event: &Event) {
        self.resolver
            .push(event)
            .for_each(|event| self.ingest(event));
    }

    /// Number of duplicate deliveries detected so far (a live preview;
    /// the authoritative verdict is [`DuplicatesChecker::finish`]).
    fn live_violations(&self) -> usize {
        self.preview
    }

    fn state_bytes(&self) -> usize {
        let per_tally = mem::size_of::<(MessageId, EndpointId)>() + mem::size_of::<Tally>();
        let deliveries: usize = self
            .tallies
            .values()
            .map(|tally| tally.seen.capacity() * mem::size_of::<Delivery>())
            .sum();
        let waiting: usize = self
            .waitlist
            .values()
            .map(|v| v.capacity() * mem::size_of::<((MessageId, EndpointId), usize)>())
            .sum();
        self.resolver.state_bytes()
            + self.tallies.len() * per_tally
            + deliveries
            + waiting
            + self.consumer_modes.capacity()
                * (mem::size_of::<ConsumerId>() + mem::size_of::<SessionMode>())
    }

    /// Finishes the check and returns the violations, sorted by message.
    ///
    /// A consumer with no recorded lifecycle event is conservatively
    /// treated as strict (not dups-ok).
    fn finish(self: Box<Self>) -> Vec<Violation> {
        let modes = self.consumer_modes;
        self.tallies
            .into_iter()
            .filter(|(_, tally)| {
                tally.counted > 1
                    && tally.consumers.iter().any(|consumer| {
                        modes
                            .get(consumer)
                            .is_none_or(|mode| !mode.allows_duplicates())
                    })
            })
            .map(
                |((message, endpoint), tally)| Violation::DuplicateDelivery {
                    message,
                    endpoint,
                    deliveries: tally.counted,
                },
            )
            .collect()
    }
}

/// Incremental bounded-redelivery checker: no delivery may carry a
/// `delivery_count` above `bound + 1` (the first delivery plus at most
/// `bound` redeliveries).
#[derive(Debug)]
pub struct RedeliveryBoundChecker {
    resolver: TxResolver,
    bound: u32,
    worst: BTreeMap<(MessageId, EndpointId), u32>,
}

impl RedeliveryBoundChecker {
    /// Creates a checker for the given redelivery bound.
    pub fn new(bound: u32) -> Self {
        Self {
            resolver: TxResolver::new(),
            bound,
            worst: BTreeMap::new(),
        }
    }

    fn ingest(&mut self, event: &Event) {
        let EventKind::Receive {
            endpoint, record, ..
        } = &event.kind
        else {
            return;
        };
        let count = record.delivery_count;
        if count == 0 {
            return; // pre-delivery-count trace: nothing to judge
        }
        if count > self.bound + 1 {
            let entry = self
                .worst
                .entry((record.message, endpoint.clone()))
                .or_insert(0);
            *entry = (*entry).max(count);
        }
    }
}

impl PropertyChecker for RedeliveryBoundChecker {
    /// Over-limit deliveries are detected immediately.
    fn observe(&mut self, event: &Event) {
        self.resolver
            .push(event)
            .for_each(|event| self.ingest(event));
    }

    /// Number of over-limit (end-point, message) pairs so far.
    fn live_violations(&self) -> usize {
        self.worst.len()
    }

    fn state_bytes(&self) -> usize {
        self.resolver.state_bytes()
            + self.worst.len() * (mem::size_of::<(MessageId, EndpointId)>() + mem::size_of::<u32>())
    }

    /// Finishes the check: one violation per (end-point, message) with
    /// the worst observed count, sorted by message.
    fn finish(self: Box<Self>) -> Vec<Violation> {
        let bound = self.bound;
        self.worst
            .into_iter()
            .map(
                |((message, endpoint), delivery_count)| Violation::RedeliveryLimitExceeded {
                    endpoint,
                    message,
                    delivery_count,
                    bound,
                },
            )
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::*;

    #[test]
    fn single_delivery_passes() {
        let trace = TraceBuilder::new().send(1, 1, 0).receive_q(1, 1, 0).build();
        assert!(check(DuplicatesChecker::new(), &trace).is_empty());
    }

    #[test]
    fn double_delivery_is_flagged() {
        let trace = TraceBuilder::new()
            .send(1, 1, 0)
            .receive_q(1, 1, 0)
            .receive_q(1, 1, 0)
            .build();
        let violations = check(DuplicatesChecker::new(), &trace);
        assert_eq!(violations.len(), 1);
        assert!(matches!(
            &violations[0],
            Violation::DuplicateDelivery { deliveries: 2, .. }
        ));
    }

    #[test]
    fn marked_redelivery_is_legitimate() {
        let mut redelivered = rec(1, 1, 0);
        redelivered.redelivered = true;
        let trace = TraceBuilder::new()
            .send(1, 1, 0)
            .receive_q(1, 1, 0)
            .receive_rec(default_queue_endpoint(), 50, redelivered, None)
            .build();
        assert!(check(DuplicatesChecker::new(), &trace).is_empty());
    }

    #[test]
    fn redelivery_after_ack_is_a_duplicate() {
        // The first delivery was acknowledged, so the provider had no
        // license to deliver the message again — redelivered flag or not.
        let mut redelivered = rec(1, 1, 0);
        redelivered.redelivered = true;
        redelivered.delivery_count = 2;
        let trace = TraceBuilder::new()
            .send(1, 1, 0)
            .at(10)
            .receive_q(1, 1, 0)
            .at(20)
            .ack_by(50)
            .at(30)
            .receive_rec(default_queue_endpoint(), 50, redelivered, None)
            .build();
        let violations = check(DuplicatesChecker::new(), &trace);
        assert_eq!(violations.len(), 1);
        assert!(matches!(
            &violations[0],
            Violation::DuplicateDelivery { deliveries: 2, .. }
        ));
    }

    #[test]
    fn redelivery_with_outstanding_ack_stays_legitimate_despite_other_acks() {
        // An ack by a *different* session does not settle this delivery.
        let mut redelivered = rec(1, 1, 0);
        redelivered.redelivered = true;
        let trace = TraceBuilder::new()
            .send(1, 1, 0)
            .at(10)
            .receive_q(1, 1, 0)
            .at(20)
            .ack_by(99) // unrelated session
            .at(30)
            .receive_rec(default_queue_endpoint(), 50, redelivered, None)
            .build();
        assert!(check(DuplicatesChecker::new(), &trace).is_empty());
    }

    #[test]
    fn ack_after_the_redelivery_does_not_make_it_a_duplicate() {
        // The ack settles the redelivery itself, not the first attempt.
        let mut redelivered = rec(1, 1, 0);
        redelivered.redelivered = true;
        let trace = TraceBuilder::new()
            .send(1, 1, 0)
            .at(10)
            .receive_q(1, 1, 0)
            .at(20)
            .receive_rec(default_queue_endpoint(), 50, redelivered, None)
            .at(30)
            .ack_by(50)
            .build();
        assert!(check(DuplicatesChecker::new(), &trace).is_empty());
    }

    #[test]
    fn dups_ok_consumers_may_duplicate() {
        let endpoint = default_queue_endpoint();
        let trace = TraceBuilder::new()
            .consumer_created_mode(50, endpoint.clone(), SessionMode::DupsOkAcknowledge)
            .send(1, 1, 0)
            .receive_q(1, 1, 0)
            .receive_q(1, 1, 0)
            .build();
        assert!(check(DuplicatesChecker::new(), &trace).is_empty());
    }

    #[test]
    fn mixed_consumers_stay_strict() {
        let endpoint = default_queue_endpoint();
        let trace = TraceBuilder::new()
            .consumer_created_mode(50, endpoint.clone(), SessionMode::DupsOkAcknowledge)
            .consumer_created_mode(51, endpoint.clone(), SessionMode::AutoAcknowledge)
            .send(1, 1, 0)
            .receive_q_by(50, 1, 1, 0)
            .receive_q_by(51, 1, 1, 0)
            .build();
        let violations = check(DuplicatesChecker::new(), &trace);
        assert_eq!(violations.len(), 1);
    }

    #[test]
    fn same_message_at_different_endpoints_is_fine() {
        // Pub/sub fan-out: the same message legitimately reaches several
        // subscriptions.
        use jmst_api::destination::{Destination, EndpointId};
        use jmst_api::id::ConsumerId;
        let sub_a = EndpointId::non_durable("t".into(), ConsumerId::from_raw(60));
        let sub_b = EndpointId::non_durable("t".into(), ConsumerId::from_raw(61));
        let mut record = rec(1, 1, 0);
        record.destination = Destination::topic("t");
        let trace = TraceBuilder::new()
            .send_rec(record.clone(), None)
            .receive_rec(sub_a, 60, record.clone(), None)
            .receive_rec(sub_b, 61, record, None)
            .build();
        assert!(check(DuplicatesChecker::new(), &trace).is_empty());
    }

    #[test]
    fn violations_are_sorted_by_message() {
        let trace = TraceBuilder::new()
            .send(5, 1, 0)
            .send(2, 1, 1)
            .receive_q(5, 1, 0)
            .receive_q(5, 1, 0)
            .receive_q(2, 1, 1)
            .receive_q(2, 1, 1)
            .build();
        let violations = check(DuplicatesChecker::new(), &trace);
        assert_eq!(violations.len(), 2);
        assert!(matches!(
            &violations[0],
            Violation::DuplicateDelivery { message, .. } if message.as_u64() == 2
        ));
    }

    #[test]
    fn preview_counts_duplicates_as_they_happen() {
        let trace = TraceBuilder::new()
            .send(1, 1, 0)
            .receive_q(1, 1, 0)
            .receive_q(1, 1, 0)
            .build();
        let mut checker = DuplicatesChecker::new();
        let mut live = 0;
        for event in &trace {
            checker.observe(event);
            live = live.max(checker.live_violations());
        }
        assert_eq!(live, 1);
        assert_eq!(Box::new(checker).finish().len(), 1);
    }

    #[test]
    fn deliveries_within_the_bound_pass() {
        let mut second = rec(1, 1, 0);
        second.redelivered = true;
        second.delivery_count = 2;
        let trace = TraceBuilder::new()
            .send(1, 1, 0)
            .receive_q(1, 1, 0)
            .receive_rec(default_queue_endpoint(), 50, second, None)
            .build();
        // Bound 1: one redelivery on top of the first delivery is allowed.
        assert!(check(RedeliveryBoundChecker::new(1), &trace).is_empty());
    }

    #[test]
    fn over_limit_delivery_is_flagged_once_with_worst_count() {
        let make = |count: u32| {
            let mut record = rec(1, 1, 0);
            record.redelivered = count > 1;
            record.delivery_count = count;
            record
        };
        let trace = TraceBuilder::new()
            .send(1, 1, 0)
            .receive_q(1, 1, 0)
            .receive_rec(default_queue_endpoint(), 50, make(3), None)
            .receive_rec(default_queue_endpoint(), 50, make(4), None)
            .build();
        let violations = check(RedeliveryBoundChecker::new(1), &trace);
        assert_eq!(violations.len(), 1);
        assert!(matches!(
            &violations[0],
            Violation::RedeliveryLimitExceeded {
                delivery_count: 4,
                bound: 1,
                ..
            }
        ));
    }
}
