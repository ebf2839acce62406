//! Property 2 — Required Messages: the first→next→last closure per
//! (producer, end-point) must be a subset of the messages received at the
//! end-point.
//!
//! The incremental [`RequiredChecker`] exploits that for queues the
//! Definition 6 *first* bound is vacuous (the first message is the
//! producer's minimum relevant sequence, which bounds every other
//! relevant sequence from below), so queue state reduces to the set of
//! still-undelivered forever-lived sends plus scalar folds of the timely
//! (received before the last close, Definition 5) receive sequences.
//! Subscriptions retain the topic send log: their first/last window can
//! only be evaluated once the stream ends.

use super::PropertyChecker;
use crate::defs;
use crate::id_hash::{IdMap, IdSet};
use crate::stream::{SelectorState, SelectorTracker, TxResolver};
use crate::violation::Violation;
use jmst_api::destination::{Destination, EndpointId};
use jmst_api::id::{MessageId, ProducerId};
use jmst_api::selector::Selector;
use jmst_api::time::Timestamp;
use jmst_store::event::{Event, EventKind, MessageRecord};
use std::collections::BTreeMap;
use std::mem;

/// Scalar fold of Definition 5's "received before the last close"
/// qualifier: the maximum receive sequence at or before the latest close
/// seen so far (`timely_max`), and the maximum after it (`since_max`),
/// folded together whenever a later close arrives.
#[derive(Debug, Default, Clone, Copy)]
struct TimelyFold {
    timely_max: Option<u64>,
    since_max: Option<u64>,
}

impl TimelyFold {
    fn note(&mut self, sequence: u64, at: Timestamp, last_close: Option<Timestamp>) {
        let slot = match last_close {
            // Canonical order puts every receive streamed before a close
            // at or before the close's timestamp; only replayed
            // transactional receives can arrive late with an old `at`.
            Some(close) if at <= close => &mut self.timely_max,
            _ => &mut self.since_max,
        };
        *slot = Some(slot.map_or(sequence, |max| max.max(sequence)));
    }

    /// A later close makes everything seen so far timely.
    fn fold(&mut self) {
        self.timely_max = self.timely_max.max(self.since_max.take());
    }

    /// The Definition 5 maximum under the final close bound: if the
    /// end-point never closed the bound is the end of the trace, so every
    /// receive was timely.
    fn resolve(&self, ever_closed: bool) -> Option<u64> {
        if ever_closed {
            self.timely_max
        } else {
            self.timely_max.max(self.since_max)
        }
    }
}

/// Per-queue state: bounded by the number of *undelivered* messages.
#[derive(Debug, Default)]
struct QueueRequired {
    tracker: SelectorTracker,
    /// Parsed selector once the tracker is uniform on one text. Applied
    /// prospectively to sends; on the transition into a selector the
    /// already-pending sends are re-filtered exactly (their records are
    /// retained).
    selector: Option<Selector>,
    /// (producer, sequence) → record of an unreceived, forever-lived
    /// relevant send.
    pending: BTreeMap<(ProducerId, u64), MessageRecord>,
    /// Receives seen before (or without) their send.
    early: IdSet<(ProducerId, u64)>,
    /// Minimum relevant sequence per producer (Definition 6 *first*).
    first_sent: IdMap<ProducerId, u64>,
    timely: IdMap<ProducerId, TimelyFold>,
    last_close: Option<Timestamp>,
}

/// Per-subscription state; the topic send log lives on the checker.
#[derive(Debug, Default)]
struct SubRequired {
    tracker: SelectorTracker,
    received: IdSet<MessageId>,
    /// Minimum received sequence per producer (Definition 6 *first* for
    /// subscriptions: the first message of the producer a subscriber saw).
    first_received: IdMap<ProducerId, u64>,
    timely: IdMap<ProducerId, TimelyFold>,
    last_close: Option<Timestamp>,
}

/// Incremental required-messages checker, and the home of the paper's
/// Definitions 3–6, which Property 2's window is built from. All are per
/// (producer *p*, end-point *id*) and range over effective operations
/// (Definitions 1–2, resolved by [`TxResolver`]):
///
/// * **Definition 3, Next Message** — the message *p* sent immediately
///   after a given one, by the producer's send sequence. A window is the
///   run of sequences from *first* to *last*, so every sequence in
///   between is required.
/// * **Definition 4, Last Close** — the last close of any consumer of
///   *id*. Never-closed end-points are bounded by the end of the trace.
/// * **Definition 5, Last Message** — the last message from *p* received
///   at *id* before the last close. A receive after the close does not
///   extend the window (in-flight tail messages are excused by delivery
///   latency). A queue that received nothing timely from *p* has no last
///   message, so everything from the first one on is required.
/// * **Definition 6, First Message** — for a queue, the first message *p*
///   sent; for a subscription, the first message from *p* a subscriber
///   actually received (subscription latency excuses the head).
///
/// Conventions on top of the paper's definitions (documented in
/// DESIGN.md):
///
/// * messages with a finite time-to-live are excluded — their absence is
///   judged by Property 5's expectation model, not by Property 2;
/// * an end-point whose consumers used differing selectors is skipped
///   (its required set is not well defined from the trace);
/// * messages a subscription's selector rejects are not required at it;
/// * messages the broker parked on a dead-letter queue are accounted
///   for, not lost — their non-delivery is judged by the
///   bounded-redelivery check instead.
#[derive(Debug, Default)]
pub struct RequiredChecker {
    resolver: TxResolver,
    queues: BTreeMap<EndpointId, QueueRequired>,
    subs: BTreeMap<EndpointId, SubRequired>,
    /// Effective sends to topic destinations, replayed per subscription
    /// end-point in `finish`.
    topic_sends: Vec<MessageRecord>,
    dead_lettered: IdSet<MessageId>,
}

impl RequiredChecker {
    /// Creates an empty checker.
    pub fn new() -> Self {
        Self::default()
    }

    fn ingest(&mut self, event: &Event) {
        match &event.kind {
            EventKind::ConsumerCreated {
                endpoint, selector, ..
            } => match endpoint {
                EndpointId::Queue(_) => {
                    let state = self.queues.entry(endpoint.clone()).or_default();
                    if state.tracker.note(selector.as_deref()) {
                        match state.tracker.state() {
                            SelectorState::Uniform(Some(text)) => {
                                let parsed = Selector::parse(&text)
                                    .expect("selector accepted by the provider must parse");
                                state.pending.retain(|_, record| {
                                    defs::selector_accepts_record(&parsed, record)
                                });
                                state.selector = Some(parsed);
                            }
                            SelectorState::Mixed => {
                                // The end-point is skipped from here on;
                                // free its per-message state.
                                state.selector = None;
                                state.pending.clear();
                                state.early.clear();
                                state.first_sent.clear();
                                state.timely.clear();
                            }
                            _ => state.selector = None,
                        }
                    }
                }
                _ => {
                    let state = self.subs.entry(endpoint.clone()).or_default();
                    state.tracker.note(selector.as_deref());
                }
            },
            EventKind::ConsumerClosed { endpoint, .. } => match endpoint {
                EndpointId::Queue(_) => {
                    let state = self.queues.entry(endpoint.clone()).or_default();
                    state.last_close =
                        Some(state.last_close.map_or(event.at, |last| last.max(event.at)));
                    for fold in state.timely.values_mut() {
                        fold.fold();
                    }
                }
                _ => {
                    let state = self.subs.entry(endpoint.clone()).or_default();
                    state.last_close =
                        Some(state.last_close.map_or(event.at, |last| last.max(event.at)));
                    for fold in state.timely.values_mut() {
                        fold.fold();
                    }
                }
            },
            EventKind::Send { record, .. } => match &record.destination {
                Destination::Queue(name) => {
                    let endpoint = EndpointId::for_queue(name.clone());
                    let state = self.queues.entry(endpoint).or_default();
                    if state.tracker.is_mixed() {
                        return;
                    }
                    if let Some(selector) = &state.selector {
                        if !defs::selector_accepts_record(selector, record) {
                            return;
                        }
                    }
                    let first = state.first_sent.entry(record.producer).or_insert(u64::MAX);
                    *first = (*first).min(record.sequence);
                    if !record.time_to_live.is_forever() {
                        return; // judged by Property 5
                    }
                    let key = (record.producer, record.sequence);
                    if !state.early.remove(&key) {
                        state.pending.insert(key, record.clone());
                    }
                }
                Destination::Topic(_) => self.topic_sends.push(record.clone()),
            },
            EventKind::Receive {
                endpoint, record, ..
            } => {
                if matches!(endpoint, EndpointId::Queue(_)) {
                    let state = self.queues.entry(endpoint.clone()).or_default();
                    let key = (record.producer, record.sequence);
                    if state.pending.remove(&key).is_none() {
                        state.early.insert(key);
                    }
                    state.timely.entry(record.producer).or_default().note(
                        record.sequence,
                        event.at,
                        state.last_close,
                    );
                } else {
                    let state = self.subs.entry(endpoint.clone()).or_default();
                    state.received.insert(record.message);
                    let first = state
                        .first_received
                        .entry(record.producer)
                        .or_insert(u64::MAX);
                    *first = (*first).min(record.sequence);
                    state.timely.entry(record.producer).or_default().note(
                        record.sequence,
                        event.at,
                        state.last_close,
                    );
                }
            }
            EventKind::DeadLettered { record, .. } => {
                self.dead_lettered.insert(record.message);
            }
            _ => {}
        }
    }
}

impl PropertyChecker for RequiredChecker {
    fn observe(&mut self, event: &Event) {
        self.resolver
            .push(event)
            .for_each(|event| self.ingest(event));
    }

    fn state_bytes(&self) -> usize {
        let queue_bytes: usize = self
            .queues
            .values()
            .map(|q| {
                q.pending.len() * mem::size_of::<((ProducerId, u64), MessageRecord)>()
                    + q.early.capacity() * mem::size_of::<(ProducerId, u64)>()
                    + (q.first_sent.capacity() + q.timely.capacity())
                        * mem::size_of::<(ProducerId, TimelyFold)>()
            })
            .sum();
        let sub_bytes: usize = self
            .subs
            .values()
            .map(|s| {
                s.received.capacity() * mem::size_of::<MessageId>()
                    + (s.first_received.capacity() + s.timely.capacity())
                        * mem::size_of::<(ProducerId, TimelyFold)>()
            })
            .sum();
        self.resolver.state_bytes()
            + queue_bytes
            + sub_bytes
            + self.topic_sends.capacity() * mem::size_of::<MessageRecord>()
            + self.dead_lettered.capacity() * mem::size_of::<MessageId>()
    }

    /// Finishes the check, returning violations in (end-point, producer,
    /// sequence) order.
    fn finish(self: Box<Self>) -> Vec<Violation> {
        let mut violations = Vec::new();

        // EndpointId's derived order puts queues before subscriptions, so
        // emitting queues first keeps the end-point order sorted overall.
        for (endpoint, state) in &self.queues {
            if state.tracker.is_mixed() {
                continue;
            }
            let ever_closed = state.last_close.is_some();
            for ((producer, sequence), record) in &state.pending {
                let Some(&first) = state.first_sent.get(producer) else {
                    continue;
                };
                let timely = state
                    .timely
                    .get(producer)
                    .and_then(|fold| fold.resolve(ever_closed));
                // Definition 5 with the queue convention: no timely
                // receive means the requirement never terminates.
                let last = timely.map_or(u64::MAX, |max| max.max(first));
                if *sequence < first || *sequence > last {
                    continue;
                }
                if self.dead_lettered.contains(&record.message) {
                    continue; // parked on a DLQ: accounted for, not lost
                }
                violations.push(Violation::RequiredMessageMissing {
                    endpoint: endpoint.clone(),
                    producer: *producer,
                    message: record.message,
                    sequence: *sequence,
                });
            }
        }

        let mut by_producer: BTreeMap<ProducerId, Vec<&MessageRecord>> = BTreeMap::new();
        for record in &self.topic_sends {
            by_producer.entry(record.producer).or_default().push(record);
        }
        for sends in by_producer.values_mut() {
            sends.sort_by_key(|record| record.sequence);
        }
        for (endpoint, state) in &self.subs {
            if state.tracker.is_mixed() {
                continue;
            }
            let selector = match state.tracker.state() {
                SelectorState::Uniform(Some(text)) => Some(
                    Selector::parse(&text).expect("selector accepted by the provider must parse"),
                ),
                _ => None,
            };
            let ever_closed = state.last_close.is_some();
            for (producer, sends) in &by_producer {
                let Some(&first) = state.first_received.get(producer) else {
                    // Subscription latency excuses a producer a subscriber
                    // never heard from.
                    continue;
                };
                let timely = state
                    .timely
                    .get(producer)
                    .and_then(|fold| fold.resolve(ever_closed));
                // A subscription whose only receives came after the close
                // requires nothing past the first message.
                let last = timely.map_or(first, |max| max.max(first));
                for record in sends {
                    if !defs::possibly_received(endpoint, selector.as_ref(), record) {
                        continue;
                    }
                    let sequence = record.sequence;
                    if sequence < first || sequence > last {
                        continue;
                    }
                    if !record.time_to_live.is_forever() {
                        continue; // judged by Property 5
                    }
                    if self.dead_lettered.contains(&record.message) {
                        continue;
                    }
                    if !state.received.contains(&record.message) {
                        violations.push(Violation::RequiredMessageMissing {
                            endpoint: endpoint.clone(),
                            producer: *producer,
                            message: record.message,
                            sequence,
                        });
                    }
                }
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::*;
    use jmst_api::id::{ConsumerId, TxId};
    use jmst_api::modes::TimeToLive;

    #[test]
    fn complete_queue_delivery_passes() {
        let trace = TraceBuilder::new()
            .send(1, 1, 0)
            .send(2, 1, 1)
            .receive_q(1, 1, 0)
            .receive_q(2, 1, 1)
            .build();
        assert!(check(RequiredChecker::new(), &trace).is_empty());
    }

    #[test]
    fn gap_in_queue_delivery_is_flagged() {
        let trace = TraceBuilder::new()
            .send(1, 1, 0)
            .send(2, 1, 1)
            .send(3, 1, 2)
            .receive_q(1, 1, 0)
            .receive_q(3, 1, 2)
            .build();
        let violations = check(RequiredChecker::new(), &trace);
        assert_eq!(violations.len(), 1);
        assert!(matches!(
            &violations[0],
            Violation::RequiredMessageMissing { message, sequence: 1, .. }
                if message.as_u64() == 2
        ));
    }

    #[test]
    fn queue_requires_unreceived_head_and_everything_after() {
        // Nothing was ever received from this producer on the queue: per
        // the paper's recursion, every send is required.
        let trace = TraceBuilder::new().send(1, 1, 0).send(2, 1, 1).build();
        let violations = check(RequiredChecker::new(), &trace);
        assert_eq!(violations.len(), 2);
    }

    #[test]
    fn tail_after_last_received_message_is_not_required() {
        // Per Definition 5, the requirement stops at the last message
        // received before the last close — in-flight tail messages are
        // excused by delivery latency.
        let endpoint = default_queue_endpoint();
        let trace = TraceBuilder::new()
            .consumer_created(50, endpoint.clone(), None)
            .send(1, 1, 0)
            .receive_q(1, 1, 0)
            .send(2, 1, 1) // sent but never received
            .consumer_closed(50, endpoint)
            .build();
        assert!(check(RequiredChecker::new(), &trace).is_empty());
    }

    #[test]
    fn receive_after_the_last_close_does_not_extend_the_window() {
        // Definition 5: the last message is the last one received
        // *before* the last close. Seq 2 lands after the close, so the
        // window ends at seq 0 and the unreceived seq 1 is not required;
        // counting the late receive would convict seq 1.
        let endpoint = default_queue_endpoint();
        let trace = TraceBuilder::new()
            .consumer_created(50, endpoint.clone(), None)
            .at(1)
            .send(1, 1, 0)
            .send(2, 1, 1)
            .send(3, 1, 2)
            .at(3)
            .receive_q(1, 1, 0)
            .at(4)
            .consumer_closed(50, endpoint)
            .at(5)
            .receive_q(3, 1, 2)
            .build();
        assert!(check(RequiredChecker::new(), &trace).is_empty());
    }

    #[test]
    fn subscription_latency_excuses_missed_head() {
        let sub = EndpointId::non_durable("t".into(), ConsumerId::from_raw(60));
        let mut head = rec(1, 1, 0);
        head.destination = Destination::topic("t");
        let mut second = rec(2, 1, 1);
        second.destination = Destination::topic("t");
        let mut third = rec(3, 1, 2);
        third.destination = Destination::topic("t");
        // Head published before the subscription propagated; only seq 1
        // and seq 2 arrive. No violation: first message = seq 1.
        let trace = TraceBuilder::new()
            .send_rec(head, None)
            .send_rec(second.clone(), None)
            .send_rec(third.clone(), None)
            .receive_rec(sub.clone(), 60, second, None)
            .receive_rec(sub, 60, third, None)
            .build();
        assert!(check(RequiredChecker::new(), &trace).is_empty());
    }

    #[test]
    fn subscription_gap_between_first_and_last_is_flagged() {
        let sub = EndpointId::non_durable("t".into(), ConsumerId::from_raw(60));
        let make = |message: u64, sequence: u64| {
            let mut record = rec(message, 1, sequence);
            record.destination = Destination::topic("t");
            record
        };
        let trace = TraceBuilder::new()
            .send_rec(make(1, 0), None)
            .send_rec(make(2, 1), None)
            .send_rec(make(3, 2), None)
            .receive_rec(sub.clone(), 60, make(1, 0), None)
            .receive_rec(sub, 60, make(3, 2), None)
            .build();
        let violations = check(RequiredChecker::new(), &trace);
        assert_eq!(violations.len(), 1);
        assert!(matches!(
            &violations[0],
            Violation::RequiredMessageMissing { sequence: 1, .. }
        ));
    }

    #[test]
    fn uncommitted_sends_are_not_required() {
        let trace = TraceBuilder::new()
            .send(1, 1, 0)
            .send_tx(2, 1, 1, TxId::from_raw(9)) // never commits
            .send(3, 1, 2)
            .receive_q(1, 1, 0)
            .receive_q(3, 1, 2)
            .build();
        assert!(check(RequiredChecker::new(), &trace).is_empty());
    }

    #[test]
    fn finite_ttl_messages_are_not_required() {
        let mut expiring = rec(2, 1, 1);
        expiring.time_to_live = TimeToLive::from_millis(1);
        let trace = TraceBuilder::new()
            .send(1, 1, 0)
            .send_rec(expiring, None)
            .send(3, 1, 2)
            .receive_q(1, 1, 0)
            .receive_q(3, 1, 2)
            .build();
        assert!(check(RequiredChecker::new(), &trace).is_empty());
    }

    #[test]
    fn selector_rejected_messages_are_not_required() {
        let sub = EndpointId::non_durable("t".into(), ConsumerId::from_raw(60));
        let make = |message: u64, sequence: u64, priority: u8| {
            let mut record = rec(message, 1, sequence);
            record.destination = Destination::topic("t");
            record.priority = jmst_api::modes::Priority::new(priority).unwrap();
            record
        };
        let trace = TraceBuilder::new()
            .consumer_created(60, sub.clone(), Some("JMSPriority >= 5"))
            .send_rec(make(1, 0, 9), None)
            .send_rec(make(2, 1, 0), None) // filtered out by the selector
            .send_rec(make(3, 2, 9), None)
            .receive_rec(sub.clone(), 60, make(1, 0, 9), None)
            .receive_rec(sub, 60, make(3, 2, 9), None)
            .build();
        assert!(check(RequiredChecker::new(), &trace).is_empty());
    }

    #[test]
    fn mixed_selector_endpoints_are_skipped() {
        let endpoint = default_queue_endpoint();
        let trace = TraceBuilder::new()
            .consumer_created(50, endpoint.clone(), Some("a = 1"))
            .consumer_created(51, endpoint, None)
            .send(1, 1, 0)
            .build();
        // Normally the unreceived queue send would violate; the mixed
        // selectors make the required set undefined, so no violation.
        assert!(check(RequiredChecker::new(), &trace).is_empty());
    }

    #[test]
    fn dead_lettered_messages_are_accounted_for() {
        // Seq 1 never reaches the consumer because the broker parked it
        // on the DLQ after exhausting its redelivery bound: not a P2
        // loss.
        let mut parked = rec(2, 1, 1);
        parked.redelivered = true;
        parked.delivery_count = 3;
        let trace = TraceBuilder::new()
            .send(1, 1, 0)
            .send(2, 1, 1)
            .send(3, 1, 2)
            .receive_q(1, 1, 0)
            .dead_lettered(parked, "DLQ.q")
            .receive_q(3, 1, 2)
            .build();
        assert!(check(RequiredChecker::new(), &trace).is_empty());
    }

    #[test]
    fn crash_losing_persistent_messages_is_flagged() {
        // The crash-recovery experiment: persistent messages sent before
        // a crash must still be delivered after recovery. When a lossy
        // broker drops them, later post-recovery traffic exposes the gap
        // (a pure tail loss is excused by Definition 5 — the drain after
        // recovery always produces post-gap receives in practice).
        let trace = TraceBuilder::new()
            .send(1, 1, 0)
            .send(2, 1, 1) // lost in the crash
            .send(3, 1, 2) // sent after recovery
            .receive_q(1, 1, 0)
            .receive_q(3, 1, 2)
            .build();
        let violations = check(RequiredChecker::new(), &trace);
        assert_eq!(violations.len(), 1);
        assert!(matches!(
            &violations[0],
            Violation::RequiredMessageMissing { sequence: 1, .. }
        ));
    }

    #[test]
    fn selector_arriving_after_sends_refilters_pending() {
        // A selective consumer appears only after the sends: the pending
        // set is re-filtered so rejected messages stop being required.
        let endpoint = default_queue_endpoint();
        let make = |message: u64, sequence: u64, priority: u8| {
            let mut record = rec(message, 1, sequence);
            record.priority = jmst_api::modes::Priority::new(priority).unwrap();
            record
        };
        let trace = TraceBuilder::new()
            .send_rec(make(1, 0, 9), None)
            .send_rec(make(2, 1, 0), None) // rejected by the late selector
            .consumer_created(50, endpoint.clone(), Some("JMSPriority >= 5"))
            .receive_rec(endpoint, 50, make(1, 0, 9), None)
            .build();
        assert!(check(RequiredChecker::new(), &trace).is_empty());
    }
}
