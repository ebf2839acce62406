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
//! [`RedeliveryBoundChecker`]). Settlement is resolved online by
//! acknowledgement epochs. A delivery is settled by the first ack (or
//! commit) its session logs after it in stream order. Each session keeps
//! the times of the acks that settled something: an ack is recorded only
//! when a delivery of that session has arrived since the last recorded
//! one, so the list grows with ack batches, not with acks, and an
//! auto-acknowledge session that logs no ack keeps none. A delivery
//! stores its session and the length of that list when it arrived; the
//! ack recorded at that index, once there is one, settled it. Nothing is
//! stamped or freed when an ack lands, and a message delivered once
//! costs one map entry and no allocation.

use super::PropertyChecker;
use crate::id_hash::IdMap;
use crate::stream::TxResolver;
use crate::violation::Violation;
use jmst_api::destination::EndpointId;
use jmst_api::id::{ConsumerId, MessageId, SessionId};
use jmst_api::modes::SessionMode;
use jmst_api::time::Timestamp;
use jmst_store::event::{Event, EventKind};
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::iter;
use std::mem;

/// A session's acknowledgement epochs.
#[derive(Debug, Default)]
struct Session {
    /// Times of the acks that settled at least one delivery, in stream
    /// order.
    acks: Vec<Timestamp>,
    /// Whether a delivery arrived after the last recorded ack.
    waiting: bool,
}

/// One observed delivery of a message at an end-point.
#[derive(Debug, Clone, Copy)]
struct Delivery {
    session: SessionId,
    /// Index into the session's `acks` of the ack that settles this
    /// delivery.
    epoch: u32,
    consumer: ConsumerId,
    /// Whether the delivery counts toward the duplicate verdict.
    counted: bool,
}

/// Per-(message, end-point) delivery accounting. The first delivery is
/// kept inline; only a second one allocates.
#[derive(Debug)]
struct Tally {
    first: Delivery,
    later: Option<Box<Later>>,
}

/// A tally's deliveries after the first.
#[derive(Debug, Default)]
struct Later {
    deliveries: Vec<Delivery>,
    /// Whether the tally already contributed to the live preview.
    previewed: bool,
}

impl Tally {
    fn deliveries(&self) -> impl Iterator<Item = &Delivery> {
        let later = self.later.iter().flat_map(|later| &later.deliveries);
        iter::once(&self.first).chain(later)
    }

    /// Deliveries that count toward the duplicate verdict.
    fn counted(&self) -> usize {
        self.deliveries().filter(|d| d.counted).count()
    }

    /// Whether a consumer of a counted delivery is strict (not dups-ok)
    /// under `modes`. A consumer with no recorded lifecycle event is
    /// conservatively treated as strict.
    fn has_strict_consumer(&self, modes: &IdMap<ConsumerId, SessionMode>) -> bool {
        self.deliveries().filter(|d| d.counted).any(|d| {
            modes
                .get(&d.consumer)
                .is_none_or(|mode| !mode.allows_duplicates())
        })
    }

    /// Whether the tally is a violation under `modes`.
    fn is_duplicate(&self, modes: &IdMap<ConsumerId, SessionMode>) -> bool {
        self.later.is_some() && self.counted() > 1 && self.has_strict_consumer(modes)
    }
}

/// A delivery tally's identity: the message at an interned end-point.
type TallyKey = (MessageId, u32);

/// Incremental duplicate-delivery checker.
#[derive(Debug, Default)]
pub struct DuplicatesChecker {
    resolver: TxResolver,
    consumer_modes: IdMap<ConsumerId, SessionMode>,
    /// Each distinct end-point's index into `endpoint_names`.
    endpoints: IdMap<EndpointId, u32>,
    endpoint_names: Vec<EndpointId>,
    sessions: IdMap<SessionId, Session>,
    tallies: IdMap<TallyKey, Tally>,
    preview: usize,
}

impl DuplicatesChecker {
    /// Creates an empty checker.
    pub fn new() -> Self {
        Self::default()
    }

    fn endpoint_index(&mut self, endpoint: &EndpointId) -> u32 {
        if let Some(&index) = self.endpoints.get(endpoint) {
            return index;
        }
        let index = u32::try_from(self.endpoint_names.len()).expect("under 2^32 end-points");
        self.endpoints.insert(endpoint.clone(), index);
        self.endpoint_names.push(endpoint.clone());
        index
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
                if let Some(session) = self.sessions.get_mut(session) {
                    if mem::take(&mut session.waiting) {
                        session.acks.push(event.at);
                    }
                }
            }
            EventKind::Receive {
                consumer,
                endpoint,
                record,
                session,
                ..
            } => {
                let key = (record.message, self.endpoint_index(endpoint));
                let epochs = self.sessions.entry(*session).or_default();
                epochs.waiting = true;
                let mut delivery = Delivery {
                    session: *session,
                    epoch: u32::try_from(epochs.acks.len()).expect("under 2^32 acks per session"),
                    consumer: *consumer,
                    // A first sighting flagged as a redelivery has no
                    // earlier delivery that could have been settled.
                    counted: !record.redelivered,
                };
                let tally = match self.tallies.entry(key) {
                    Entry::Vacant(vacant) => {
                        vacant.insert(Tally {
                            first: delivery,
                            later: None,
                        });
                        return;
                    }
                    Entry::Occupied(occupied) => occupied.into_mut(),
                };
                if record.redelivered {
                    // Legitimate iff no earlier delivery of this message
                    // here was settled before this redelivery arrived.
                    delivery.counted = tally.deliveries().any(|earlier| {
                        let acks = &self.sessions[&earlier.session].acks;
                        acks.get(earlier.epoch as usize)
                            .is_some_and(|&ack| ack < event.at)
                    });
                }
                tally
                    .later
                    .get_or_insert_with(Box::default)
                    .deliveries
                    .push(delivery);
                // Preview with the modes known so far; the final verdict
                // re-judges with the whole trace's modes.
                if delivery.counted && tally.is_duplicate(&self.consumer_modes) {
                    let later = tally.later.as_mut().expect("a delivery was just pushed");
                    if !mem::replace(&mut later.previewed, true) {
                        self.preview += 1;
                    }
                }
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

    /// The maps' and lists' capacities; the later deliveries of the
    /// (rare) tallies that have more than one are not counted.
    fn state_bytes(&self) -> usize {
        let acks: usize = self.sessions.values().map(|s| s.acks.capacity()).sum();
        self.resolver.state_bytes()
            + self.tallies.capacity() * mem::size_of::<(TallyKey, Tally)>()
            + self.sessions.capacity() * mem::size_of::<(SessionId, Session)>()
            + acks * mem::size_of::<Timestamp>()
            + self.endpoints.capacity() * mem::size_of::<(EndpointId, u32)>()
            + self.endpoint_names.capacity() * mem::size_of::<EndpointId>()
            + self.consumer_modes.capacity()
                * (mem::size_of::<ConsumerId>() + mem::size_of::<SessionMode>())
    }

    /// Finishes the check and returns the violations, sorted by message,
    /// then end-point.
    ///
    /// A consumer with no recorded lifecycle event is conservatively
    /// treated as strict (not dups-ok).
    fn finish(self: Box<Self>) -> Vec<Violation> {
        let Self {
            consumer_modes,
            endpoint_names,
            tallies,
            ..
        } = *self;
        let mut violators: Vec<(MessageId, u32, usize)> = tallies
            .into_iter()
            .filter(|(_, tally)| tally.is_duplicate(&consumer_modes))
            .map(|((message, endpoint), tally)| (message, endpoint, tally.counted()))
            .collect();
        violators.sort_unstable_by(|a, b| {
            (a.0, &endpoint_names[a.1 as usize]).cmp(&(b.0, &endpoint_names[b.1 as usize]))
        });
        violators
            .into_iter()
            .map(
                |(message, endpoint, deliveries)| Violation::DuplicateDelivery {
                    message,
                    endpoint: endpoint_names[endpoint as usize].clone(),
                    deliveries: deliveries as u64,
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
    fn violations_at_one_message_are_sorted_by_endpoint() {
        // End-points are interned in arrival order ("z" first); the
        // violations still come out in end-point order.
        use jmst_api::destination::QueueName;
        let at = |queue: &str| EndpointId::for_queue(QueueName::new(queue));
        let record = rec(1, 1, 0);
        let trace = TraceBuilder::new()
            .send(1, 1, 0)
            .receive_rec(at("z"), 50, record.clone(), None)
            .receive_rec(at("z"), 50, record.clone(), None)
            .receive_rec(at("a"), 51, record.clone(), None)
            .receive_rec(at("a"), 51, record, None)
            .build();
        let endpoints: Vec<EndpointId> = check(DuplicatesChecker::new(), &trace)
            .into_iter()
            .map(|violation| match violation {
                Violation::DuplicateDelivery { endpoint, .. } => endpoint,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(endpoints, [at("a"), at("z")]);
    }

    #[test]
    fn a_session_records_an_ack_only_while_a_delivery_waits() {
        // 10,000 acks around one delivery: the 5,000 before it settle
        // nothing, and of those after it only the first does.
        let acks = |mut builder: TraceBuilder| {
            for _ in 0..5_000 {
                builder = builder.ack_by(50);
            }
            builder
        };
        let builder = acks(TraceBuilder::new().send(1, 1, 0).at(10));
        let builder = acks(builder.at(20).receive_q(1, 1, 0).at(30));
        let checker = drive(DuplicatesChecker::new(), &builder.build());
        let session = &checker.sessions[&SessionId::from_raw(150)];
        assert_eq!(session.acks, [Timestamp::from_millis(30)]);
        assert!(!session.waiting);
        assert_eq!(checker.sessions.len(), 1);
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
