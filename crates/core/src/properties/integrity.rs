//! Property 1 — Delivery Integrity: "for each consumer c and each message
//! m in c's Received Messages, m is also in the set Published Messages for
//! some producer p."
//!
//! Implemented as the incremental [`IntegrityChecker`].

use super::PropertyChecker;
use crate::stream::TxResolver;
use crate::violation::Violation;
use jmst_api::destination::EndpointId;
use jmst_api::id::{ConsumerId, MessageId};
use jmst_store::event::{Event, EventKind};
use std::collections::HashSet;
use std::mem;

/// Incremental delivery-integrity checker.
///
/// A receive violates the property when its message id has no matching
/// *effective* send — either nobody ever sent it (a forged/corrupted
/// message) or it was sent only inside a transaction that did not commit
/// (in which case, per Definition 1, it was never sent). Receives that
/// have no matching send *yet* stay pending: a transactional send is only
/// folded in at commit time, which may come after the delivery was
/// logged.
#[derive(Debug, Default)]
pub struct IntegrityChecker {
    resolver: TxResolver,
    sent: HashSet<MessageId>,
    pending: Vec<(MessageId, ConsumerId, EndpointId)>,
}

impl IntegrityChecker {
    /// Creates an empty checker.
    pub fn new() -> Self {
        Self::default()
    }

    fn ingest(&mut self, event: &Event) {
        match &event.kind {
            EventKind::Send { record, .. } => {
                self.sent.insert(record.message);
            }
            EventKind::Receive {
                consumer,
                endpoint,
                record,
                ..
            } if !self.sent.contains(&record.message) => {
                self.pending
                    .push((record.message, *consumer, endpoint.clone()));
            }
            _ => {}
        }
    }

    /// Number of receives currently lacking any effective send. A later
    /// send may still excuse them, so this is a preview, not a verdict.
    pub fn unmatched(&self) -> usize {
        self.pending
            .iter()
            .filter(|(message, _, _)| !self.sent.contains(message))
            .count()
    }
}

impl PropertyChecker for IntegrityChecker {
    fn observe(&mut self, event: &Event) {
        self.resolver
            .push(event)
            .for_each(|event| self.ingest(event));
    }

    fn state_bytes(&self) -> usize {
        self.resolver.state_bytes()
            + self.sent.capacity() * mem::size_of::<MessageId>()
            + self.pending.capacity() * mem::size_of::<(MessageId, ConsumerId, EndpointId)>()
    }

    /// Finishes the check: every receive still lacking an effective send
    /// is a violation, in the order the receives became effective.
    fn finish(self: Box<Self>) -> Vec<Violation> {
        let sent = self.sent;
        self.pending
            .into_iter()
            .filter(|(message, _, _)| !sent.contains(message))
            .map(
                |(message, consumer, endpoint)| Violation::ReceivedButNeverSent {
                    message,
                    consumer,
                    endpoint,
                },
            )
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::*;
    use jmst_api::id::TxId;

    #[test]
    fn clean_trace_has_no_violations() {
        let trace = TraceBuilder::new().send(1, 1, 0).receive_q(1, 1, 0).build();
        assert!(check(IntegrityChecker::new(), &trace).is_empty());
    }

    #[test]
    fn phantom_receive_is_flagged() {
        let trace = TraceBuilder::new().receive_q(99, 1, 0).build();
        let violations = check(IntegrityChecker::new(), &trace);
        assert_eq!(violations.len(), 1);
        assert!(matches!(
            &violations[0],
            Violation::ReceivedButNeverSent { message, .. } if message.as_u64() == 99
        ));
    }

    #[test]
    fn receive_of_uncommitted_transactional_send_is_flagged() {
        // Sent in a transaction that never committed: per Definition 1 it
        // was never sent, so its delivery violates integrity.
        let trace = TraceBuilder::new()
            .send_tx(1, 1, 0, TxId::from_raw(7))
            .receive_q(1, 1, 0)
            .build();
        let violations = check(IntegrityChecker::new(), &trace);
        assert_eq!(violations.len(), 1);
    }

    #[test]
    fn receive_of_committed_transactional_send_is_clean() {
        let trace = TraceBuilder::new()
            .send_tx(1, 1, 0, TxId::from_raw(7))
            .commit(TxId::from_raw(7))
            .receive_q(1, 1, 0)
            .build();
        assert!(check(IntegrityChecker::new(), &trace).is_empty());
    }

    #[test]
    fn rolled_back_receive_of_phantom_is_ignored() {
        // The receive itself is ineffective (its transaction rolled
        // back), so per Definition 2 it never happened.
        let trace = TraceBuilder::new()
            .receive_q_tx(99, 1, 0, TxId::from_raw(8))
            .rollback(TxId::from_raw(8))
            .build();
        assert!(check(IntegrityChecker::new(), &trace).is_empty());
    }

    #[test]
    fn unmatched_previews_then_resolves() {
        let mut checker = IntegrityChecker::new();
        let trace = TraceBuilder::new().receive_q(1, 1, 0).send(1, 1, 0).build();
        let events: Vec<_> = trace.iter().cloned().collect();
        checker.observe(&events[0]);
        assert_eq!(checker.unmatched(), 1);
        checker.observe(&events[1]);
        assert_eq!(checker.unmatched(), 0);
        assert!(Box::new(checker).finish().is_empty());
    }
}
