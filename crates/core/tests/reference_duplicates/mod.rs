//! The duplicate checker as it was before acknowledgement epochs: every
//! delivery waits on its session's waitlist until the session's next
//! ack or commit stamps it, and each `(message, end-point)` tally keeps
//! every delivery in a `Vec`, in a `BTreeMap` keyed by the end-point
//! itself. Kept verbatim, apart from the imports (the crate-private
//! `IdMap` is std's `HashMap` here), as the reference
//! `duplicates_differential.rs` runs the analysis crate's checker
//! against: the two must agree on every live count and every violation.

use jmst_api::destination::EndpointId;
use jmst_api::id::{ConsumerId, MessageId, SessionId};
use jmst_api::modes::SessionMode;
use jmst_api::time::Timestamp;
use jmst_core::properties::PropertyChecker;
use jmst_core::stream::TxResolver;
use jmst_core::violation::Violation;
use jmst_store::event::{Event, EventKind};
use std::collections::{BTreeMap, HashMap as IdMap};
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
