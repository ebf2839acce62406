//! Acknowledgement epochs are a cheaper settlement, not a new verdict:
//! run against the waitlist checker they replaced
//! (`reference_duplicates`, kept verbatim), the duplicate checker must
//! report the same live count after every event and the same violations,
//! in the same order, at the end.
//!
//! Traces mix auto-ack, client-ack, dups-ok and transacted consumers on
//! shared sessions; consumer lifecycle events arrive late or never;
//! sessions with and without deliveries acknowledge, commit and roll
//! back; a few message ids land at queues, a durable and a non-durable
//! subscription; and about a third of the deliveries carry the
//! redelivered flag. Clock steps of 0–2 ms make acks and redeliveries
//! share timestamps.

mod reference_duplicates;

use jmst_api::destination::{Destination, EndpointId, QueueName, TopicName};
use jmst_api::id::{ClientId, ConsumerId, MessageId, NodeId, ProducerId, SessionId, TxId};
use jmst_api::modes::{DeliveryMode, Priority, SessionMode, TimeToLive};
use jmst_api::time::Timestamp;
use jmst_core::properties::duplicates::DuplicatesChecker;
use jmst_core::properties::PropertyChecker;
use jmst_store::event::{Event, EventKind, MessageRecord};
use proptest::prelude::*;

/// Consumers `0..CONSUMERS`; consumer `c` receives on session
/// `c % DELIVERING_SESSIONS`.
const CONSUMERS: u8 = 6;
const DELIVERING_SESSIONS: u8 = 4;
/// Sessions that ack, commit or roll back; the ones at and above
/// `DELIVERING_SESSIONS` never receive.
const SESSIONS: u8 = 6;
/// Delivering sessions from this one on receive inside transactions.
const FIRST_TRANSACTED: u8 = 2;

#[derive(Debug, Clone)]
enum Op {
    Created {
        consumer: u8,
        mode: u8,
    },
    Receive {
        consumer: u8,
        message: u8,
        endpoint: u8,
        redelivered: bool,
    },
    Ack {
        session: u8,
    },
    Commit {
        session: u8,
    },
    Rollback {
        session: u8,
    },
}

/// Weights: 1 lifecycle event, 8 receives (7 in 20 flagged redelivered),
/// 3 acks, 2 commits and 1 rollback in 15.
fn arb_op() -> impl Strategy<Value = Op> {
    (
        0u8..15,
        0u8..CONSUMERS,
        0..SESSIONS,
        1u8..=8,
        0u8..4,
        0u8..20,
    )
        .prop_map(
            |(kind, consumer, session, message, choice, roll)| match kind {
                0 => Op::Created {
                    consumer,
                    mode: choice,
                },
                1..=8 => Op::Receive {
                    consumer,
                    message,
                    endpoint: choice,
                    redelivered: roll < 7,
                },
                9..=11 => Op::Ack { session },
                12 | 13 => Op::Commit { session },
                _ => Op::Rollback { session },
            },
        )
}

fn endpoint(index: u8) -> EndpointId {
    let topic = || TopicName::new("t");
    match index {
        0 => EndpointId::for_queue(QueueName::new("q1")),
        1 => EndpointId::for_queue(QueueName::new("q0")),
        2 => EndpointId::non_durable(topic(), ConsumerId::from_raw(9)),
        _ => EndpointId::durable(topic(), ClientId::new("client"), "sub"),
    }
}

fn mode(index: u8) -> SessionMode {
    match index {
        0 => SessionMode::AutoAcknowledge,
        1 => SessionMode::ClientAcknowledge,
        2 => SessionMode::DupsOkAcknowledge,
        _ => SessionMode::Transacted,
    }
}

fn record(message: u8, redelivered: bool) -> MessageRecord {
    MessageRecord {
        message: MessageId::from_raw(message.into()),
        producer: ProducerId::from_raw(1),
        sequence: message.into(),
        destination: Destination::queue("q1"),
        priority: Priority::DEFAULT,
        delivery_mode: DeliveryMode::Persistent,
        time_to_live: TimeToLive::FOREVER,
        sent_at: Timestamp::ZERO,
        body_bytes: 16,
        redelivered,
        delivery_count: if redelivered { 2 } else { 1 },
        properties: Default::default(),
    }
}

/// The events of `ops` in canonical order, each the op's step in ms
/// after the one before. A transacted session's receives join its open
/// transaction; its commit or rollback ends it and opens the next. A
/// commit or rollback by any other session names a transaction with
/// nothing in it.
fn events(ops: &[(Op, u8)]) -> Vec<Event> {
    let mut generation = [0u64; SESSIONS as usize];
    let tx = |session: u8, generation: u64| TxId::from_raw(u64::from(session) * 1_000 + generation);
    let mut now = 0;
    let mut events = Vec::with_capacity(ops.len());
    for (seq, (op, step)) in ops.iter().enumerate() {
        now += u64::from(*step);
        let kind = match *op {
            Op::Created { consumer, mode: m } => EventKind::ConsumerCreated {
                consumer: ConsumerId::from_raw(consumer.into()),
                endpoint: endpoint(0),
                session_mode: mode(m),
                selector: None,
            },
            Op::Receive {
                consumer,
                message,
                endpoint: e,
                redelivered,
            } => {
                let session = consumer % DELIVERING_SESSIONS;
                EventKind::Receive {
                    consumer: ConsumerId::from_raw(consumer.into()),
                    endpoint: endpoint(e),
                    record: record(message, redelivered),
                    session: SessionId::from_raw(session.into()),
                    tx: (session >= FIRST_TRANSACTED)
                        .then(|| tx(session, generation[usize::from(session)])),
                }
            }
            Op::Ack { session } => EventKind::Acknowledge {
                session: SessionId::from_raw(session.into()),
            },
            Op::Commit { session } | Op::Rollback { session } => {
                let ends = tx(session, generation[usize::from(session)]);
                generation[usize::from(session)] += 1;
                let session = SessionId::from_raw(session.into());
                if matches!(op, Op::Commit { .. }) {
                    EventKind::Commit { session, tx: ends }
                } else {
                    EventKind::Rollback { session, tx: ends }
                }
            }
        };
        events.push(Event {
            seq: seq as u64,
            at: Timestamp::from_millis(now),
            node: NodeId::from_raw(0),
            kind,
        });
    }
    events
}

/// Feeds `events` to both checkers, comparing live counts after each
/// event and violations at the end.
fn assert_same_verdicts(events: &[Event]) -> Result<(), TestCaseError> {
    let mut checker = DuplicatesChecker::new();
    let mut reference = reference_duplicates::DuplicatesChecker::new();
    for (index, event) in events.iter().enumerate() {
        checker.observe(event);
        reference.observe(event);
        prop_assert_eq!(
            checker.live_violations(),
            reference.live_violations(),
            "live count after event {} ({:?})",
            index,
            event.kind
        );
    }
    prop_assert_eq!(Box::new(checker).finish(), Box::new(reference).finish());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn epochs_give_the_waitlist_verdicts(
        ops in prop::collection::vec((arb_op(), 0u8..3), 0..160),
    ) {
        assert_same_verdicts(&events(&ops))?;
    }
}

/// The shapes the generator reaches only by luck: a redelivery settled
/// by the second of two ack batches, a commit that both replays a
/// redelivery and settles it, and a first sighting flagged redelivered.
#[test]
fn hand_picked_traces_agree() {
    let receive = |consumer, message, redelivered| Op::Receive {
        consumer,
        message,
        endpoint: 0,
        redelivered,
    };
    let traces = [
        vec![
            (receive(1, 1, false), 1),
            (Op::Ack { session: 1 }, 1),
            (receive(1, 2, false), 1),
            (receive(1, 1, true), 0),
            (Op::Ack { session: 1 }, 1),
            (receive(1, 2, true), 1),
            (receive(1, 1, true), 0),
        ],
        vec![
            (receive(2, 1, false), 1),
            (receive(2, 1, true), 1),
            (Op::Commit { session: 2 }, 1),
            (receive(2, 1, true), 1),
            (Op::Commit { session: 2 }, 0),
        ],
        vec![
            (receive(0, 3, true), 1),
            (Op::Ack { session: 0 }, 1),
            (receive(0, 3, true), 1),
            (receive(4, 3, false), 0),
        ],
    ];
    for ops in traces {
        assert_same_verdicts(&events(&ops)).expect("same verdicts");
    }
}
