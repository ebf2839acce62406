//! Long-soak memory test of the streaming pipeline: over a long clean
//! run, the analyzer's resident state must stay under a fixed ceiling
//! that the materialised batch trace provably blows through. This is the
//! point of the streaming refactor — verdicts over runs too long to hold
//! in memory as a `Trace`. An auto-acknowledge consumer logs no
//! `Acknowledge` event, so its session never settles a delivery; that
//! run is held to the same ceiling.

use jmst::api::destination::{Destination, EndpointId, QueueName};
use jmst::api::id::{ConsumerId, MessageId, NodeId, ProducerId, SessionId};
use jmst::api::modes::{DeliveryMode, Priority, SessionMode, TimeToLive};
use jmst::api::time::Timestamp;
use jmst::prelude::*;
use jmst::store::{Event, EventKind, MessageRecord, Phase};
use std::mem;

/// Messages in the soak workload; each one contributes a send, a receive,
/// and an acknowledge event.
const MESSAGES: u64 = 50_000;

/// Messages in the auto-acknowledge soak: a send and a receive each, so
/// as many events as the acknowledged run.
const AUTO_ACK_MESSAGES: u64 = MESSAGES * 3 / 2;

/// The fixed ceiling: the streaming analyzer must stay under it, the
/// batch trace must not. With three events per message the trace alone
/// (shallow, before counting heap-allocated strings and properties)
/// costs `3 × MESSAGES × size_of::<Event>()` — far above this.
const CEILING_BYTES: usize = 24 << 20;

fn soak_event(seq: u64, at_ms: u64, kind: EventKind) -> Event {
    Event {
        seq,
        at: Timestamp::from_millis(at_ms),
        node: NodeId::from_raw(0),
        kind,
    }
}

#[test]
fn streaming_state_stays_bounded_over_a_long_clean_run() {
    soak(MESSAGES, true);
}

#[test]
fn streaming_state_stays_bounded_when_no_delivery_is_acknowledged() {
    soak(AUTO_ACK_MESSAGES, false);
}

/// Streams `messages` clean queue messages through the analyzer, each
/// receive followed by its session's `Acknowledge` if `acknowledge`, and
/// checks the resident state against the ceiling.
fn soak(messages: u64, acknowledge: bool) {
    let endpoint = EndpointId::for_queue(QueueName::new("q"));
    let mut streaming = Analyzer::new().streaming();
    let mut seq = 0u64;
    let mut next = |at_ms: u64, kind: EventKind, streaming: &mut StreamingAnalyzer| {
        streaming.observe(&soak_event(seq, at_ms, kind));
        seq += 1;
    };
    next(
        0,
        EventKind::PhaseStarted { phase: Phase::Run },
        &mut streaming,
    );
    next(
        0,
        EventKind::ConsumerCreated {
            consumer: ConsumerId::from_raw(1),
            endpoint: endpoint.clone(),
            session_mode: SessionMode::AutoAcknowledge,
            selector: None,
        },
        &mut streaming,
    );
    let mut max_state = 0usize;
    for message in 0..messages {
        let at = message + 1;
        let record = MessageRecord {
            message: MessageId::from_raw(message + 1),
            producer: ProducerId::from_raw(1),
            sequence: message,
            destination: Destination::queue("q"),
            priority: Priority::DEFAULT,
            delivery_mode: DeliveryMode::Persistent,
            time_to_live: TimeToLive::FOREVER,
            sent_at: Timestamp::from_millis(at),
            body_bytes: 64,
            redelivered: false,
            delivery_count: 1,
            properties: Default::default(),
        };
        next(
            at,
            EventKind::Send {
                record: record.clone(),
                session: SessionId::from_raw(1),
                tx: None,
            },
            &mut streaming,
        );
        next(
            at,
            EventKind::Receive {
                consumer: ConsumerId::from_raw(1),
                endpoint: endpoint.clone(),
                record,
                session: SessionId::from_raw(2),
                tx: None,
            },
            &mut streaming,
        );
        if acknowledge {
            next(
                at,
                EventKind::Acknowledge {
                    session: SessionId::from_raw(2),
                },
                &mut streaming,
            );
        }
        if message % 1_000 == 0 {
            max_state = max_state.max(streaming.state_bytes());
        }
    }
    next(
        messages + 1,
        EventKind::PhaseStarted {
            phase: Phase::WarmDown,
        },
        &mut streaming,
    );
    max_state = max_state.max(streaming.state_bytes());

    let events = streaming.events_observed();
    let batch_floor = events * mem::size_of::<Event>();
    assert!(
        batch_floor > CEILING_BYTES,
        "soak workload too small to make the point: a batch trace of \
         {events} events holds only {batch_floor} bytes, under the \
         {CEILING_BYTES}-byte ceiling"
    );
    assert!(
        max_state < CEILING_BYTES,
        "streaming resident state reached {max_state} bytes, \
         over the {CEILING_BYTES}-byte ceiling"
    );

    // And the verdict over the soak run is still the full, clean report.
    let report = streaming.finish();
    assert!(report.passed(), "{report}");
    assert_eq!(report.sends as u64, messages);
    assert_eq!(report.receives as u64, messages);
}
