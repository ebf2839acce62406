//! Hand-built trace construction for checker unit tests, and the driver
//! that runs one checker over a trace.

use crate::properties::PropertyChecker;
use crate::violation::Violation;
use jmst_api::destination::{Destination, EndpointId, QueueName};
use jmst_api::id::{ConsumerId, MessageId, NodeId, ProducerId, SessionId, TxId};
use jmst_api::modes::{DeliveryMode, Priority, SessionMode, TimeToLive};
use jmst_api::time::Timestamp;
use jmst_store::event::{Event, EventKind, MessageRecord, Phase};
use jmst_store::trace::Trace;

/// Feeds every event of `trace` to `checker`, in order, and hands the
/// checker back.
pub fn drive<C: PropertyChecker>(mut checker: C, trace: &Trace) -> C {
    for event in trace {
        checker.observe(event);
    }
    checker
}

/// Drives `checker` over `trace` and returns its violations.
pub fn check(checker: impl PropertyChecker, trace: &Trace) -> Vec<Violation> {
    Box::new(drive(checker, trace)).finish()
}

/// The queue every shorthand method uses.
pub fn default_queue_endpoint() -> EndpointId {
    EndpointId::for_queue(QueueName::new("q"))
}

/// A default message record addressed to queue `q`.
pub fn rec(message: u64, producer: u64, sequence: u64) -> MessageRecord {
    MessageRecord {
        message: MessageId::from_raw(message),
        producer: ProducerId::from_raw(producer),
        sequence,
        destination: Destination::queue("q"),
        priority: Priority::DEFAULT,
        delivery_mode: DeliveryMode::Persistent,
        time_to_live: TimeToLive::FOREVER,
        sent_at: Timestamp::ZERO, // overwritten by the builder at send
        body_bytes: 100,
        redelivered: false,
        delivery_count: 1,
        properties: Default::default(),
    }
}

/// Incremental trace builder: every event is stamped one millisecond
/// after the previous one unless [`TraceBuilder::at`] moves the clock.
#[derive(Debug, Default)]
pub struct TraceBuilder {
    events: Vec<Event>,
    seq: u64,
    now_ms: u64,
}

impl TraceBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the builder clock to an absolute millisecond value.
    pub fn at(mut self, ms: u64) -> Self {
        assert!(ms >= self.now_ms, "builder clock cannot go backwards");
        self.now_ms = ms;
        self
    }

    fn push(mut self, kind: EventKind) -> Self {
        self.events.push(Event {
            seq: self.seq,
            at: Timestamp::from_millis(self.now_ms),
            node: NodeId::from_raw(0),
            kind,
        });
        self.seq += 1;
        self
    }

    /// Logs a send of an explicit record (stamping `sent_at` to now).
    pub fn send_rec(self, mut record: MessageRecord, tx: Option<TxId>) -> Self {
        record.sent_at = Timestamp::from_millis(self.now_ms);
        let session = SessionId::from_raw(1);
        self.push(EventKind::Send {
            record,
            session,
            tx,
        })
    }

    /// Logs a non-transacted send to queue `q`.
    pub fn send(self, message: u64, producer: u64, sequence: u64) -> Self {
        self.send_rec(rec(message, producer, sequence), None)
    }

    /// Logs a transacted send to queue `q`.
    pub fn send_tx(self, message: u64, producer: u64, sequence: u64, tx: TxId) -> Self {
        self.send_rec(rec(message, producer, sequence), Some(tx))
    }

    /// Logs a receive of an explicit record at an explicit end-point.
    /// The record's `sent_at` is back-filled from the matching send if
    /// one was logged, so delays are consistent without the caller
    /// restamping records.
    pub fn receive_rec(
        self,
        endpoint: EndpointId,
        consumer: u64,
        mut record: MessageRecord,
        tx: Option<TxId>,
    ) -> Self {
        if let Some(sent) = self.matching_send_record(record.message.as_u64()) {
            record.sent_at = sent.sent_at;
        }
        let session = SessionId::from_raw(100 + consumer);
        self.push(EventKind::Receive {
            consumer: ConsumerId::from_raw(consumer),
            endpoint,
            record,
            session,
            tx,
        })
    }

    /// Logs a receive at queue `q` by consumer 50. The record's `sent_at`
    /// is back-filled from the matching send if present.
    pub fn receive_q(self, message: u64, producer: u64, sequence: u64) -> Self {
        self.receive_q_by(50, message, producer, sequence)
    }

    /// Logs a receive at queue `q` by an explicit consumer.
    pub fn receive_q_by(self, consumer: u64, message: u64, producer: u64, sequence: u64) -> Self {
        let record = self
            .matching_send_record(message)
            .unwrap_or_else(|| rec(message, producer, sequence));
        self.receive_rec(default_queue_endpoint(), consumer, record, None)
    }

    /// Logs a transacted receive at queue `q` by consumer 50.
    pub fn receive_q_tx(self, message: u64, producer: u64, sequence: u64, tx: TxId) -> Self {
        let record = self
            .matching_send_record(message)
            .unwrap_or_else(|| rec(message, producer, sequence));
        self.receive_rec(default_queue_endpoint(), 50, record, Some(tx))
    }

    fn matching_send_record(&self, message: u64) -> Option<MessageRecord> {
        self.events
            .iter()
            .rev()
            .find_map(|event| match &event.kind {
                EventKind::Send { record, .. } if record.message.as_u64() == message => {
                    Some(record.clone())
                }
                _ => None,
            })
    }

    /// Logs a client acknowledgement by a consumer's session (the same
    /// session id `receive_rec` derives for that consumer).
    pub fn ack_by(self, consumer: u64) -> Self {
        let session = SessionId::from_raw(100 + consumer);
        self.push(EventKind::Acknowledge { session })
    }

    /// Logs a dead-letter parking of an explicit record.
    pub fn dead_lettered(self, record: MessageRecord, parked_on: &str) -> Self {
        self.push(EventKind::DeadLettered {
            record,
            parked_on: QueueName::new(parked_on),
        })
    }

    /// Logs a commit.
    pub fn commit(self, tx: TxId) -> Self {
        let session = SessionId::from_raw(1);
        self.push(EventKind::Commit { session, tx })
    }

    /// Logs a rollback.
    pub fn rollback(self, tx: TxId) -> Self {
        let session = SessionId::from_raw(1);
        self.push(EventKind::Rollback { session, tx })
    }

    /// Logs a consumer creation.
    pub fn consumer_created(
        self,
        consumer: u64,
        endpoint: EndpointId,
        selector: Option<&str>,
    ) -> Self {
        self.push(EventKind::ConsumerCreated {
            consumer: ConsumerId::from_raw(consumer),
            endpoint,
            session_mode: SessionMode::AutoAcknowledge,
            selector: selector.map(str::to_owned),
        })
    }

    /// Logs a consumer creation with an explicit session mode.
    pub fn consumer_created_mode(
        self,
        consumer: u64,
        endpoint: EndpointId,
        mode: SessionMode,
    ) -> Self {
        self.push(EventKind::ConsumerCreated {
            consumer: ConsumerId::from_raw(consumer),
            endpoint,
            session_mode: mode,
            selector: None,
        })
    }

    /// Logs a consumer close.
    pub fn consumer_closed(self, consumer: u64, endpoint: EndpointId) -> Self {
        self.push(EventKind::ConsumerClosed {
            consumer: ConsumerId::from_raw(consumer),
            endpoint,
        })
    }

    /// Logs a phase start.
    pub fn phase(self, phase: Phase) -> Self {
        self.push(EventKind::PhaseStarted { phase })
    }

    /// Finishes the trace.
    pub fn build(self) -> Trace {
        Trace::from_events(self.events)
    }
}
