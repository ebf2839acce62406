//! Compact binary encoding of trace events.
//!
//! Every event a process-mode worker collects crosses the framed control
//! protocol once and is appended to the campaign journal once, and a
//! resumed campaign decodes every journaled event again. This module is
//! the one encoding all three use. It is written by hand over the event
//! schema rather than derived, so a round trip builds no intermediate
//! value tree.
//!
//! ## Format
//!
//! ```text
//! uint    := LEB128 varint (at most 10 bytes)
//! int     := zigzag-mapped uint
//! str     := len:uint utf8[len]
//! option  := 0 | 1 value
//! enum    := tag:u8 fields…
//! event   := seq:uint at_ns:uint node:uint kind
//! ```
//!
//! Fields follow their declaration order in [`crate::event`]. The
//! encoding is self-delimiting; the framing around it (protocol frames,
//! journal records) carries the length, CRC and MAC. Decoding checks
//! every tag, length and value range, because the bytes come from
//! another process or from disk: malformed input is a [`CodecError`],
//! never a panic or an allocation larger than the input.

use crate::event::{Event, EventKind, MessageRecord, Phase};
use jmst_api::destination::{Destination, EndpointId, QueueName, TopicName};
use jmst_api::id::{ClientId, ConsumerId, MessageId, NodeId, ProducerId, SessionId, TxId};
use jmst_api::modes::{DeliveryMode, Priority, SessionMode, TimeToLive};
use jmst_api::properties::Properties;
use jmst_api::time::Timestamp;
use jmst_api::value::Value;
use std::fmt;

/// Why bytes did not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The input ended inside a value.
    Truncated,
    /// A tag, length or value is out of range for the named field.
    Invalid(&'static str),
    /// Bytes remain after the value ended.
    TrailingBytes,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => f.write_str("input ends inside a value"),
            CodecError::Invalid(what) => write!(f, "invalid {what}"),
            CodecError::TrailingBytes => f.write_str("bytes remain after the value"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends primitive and event encodings to a buffer.
#[derive(Debug)]
pub struct Writer<'a>(pub &'a mut Vec<u8>);

impl Writer<'_> {
    /// A single byte (a tag).
    pub fn u8(&mut self, value: u8) {
        self.0.push(value);
    }

    /// An unsigned integer as a LEB128 varint.
    pub fn uint(&mut self, mut value: u64) {
        while value >= 0x80 {
            self.0.push(value as u8 | 0x80);
            value >>= 7;
        }
        self.0.push(value as u8);
    }

    /// A signed integer, zigzag-mapped so small magnitudes stay short.
    pub fn int(&mut self, value: i64) {
        self.uint(((value << 1) ^ (value >> 63)) as u64);
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, value: &str) {
        self.bytes(value.as_bytes());
    }

    /// A length-prefixed byte string.
    pub fn bytes(&mut self, value: &[u8]) {
        self.uint(value.len() as u64);
        self.0.extend_from_slice(value);
    }

    /// A boolean as one byte.
    pub fn bool(&mut self, value: bool) {
        self.u8(u8::from(value));
    }

    /// An event.
    pub fn event(&mut self, event: &Event) {
        self.uint(event.seq);
        self.uint(event.at.as_nanos());
        self.uint(event.node.as_u64());
        self.kind(&event.kind);
    }

    fn kind(&mut self, kind: &EventKind) {
        match kind {
            EventKind::ProducerCreated {
                producer,
                destination,
                transacted,
            } => {
                self.u8(0);
                self.uint(producer.as_u64());
                self.destination(destination);
                self.bool(*transacted);
            }
            EventKind::ProducerClosed { producer } => {
                self.u8(1);
                self.uint(producer.as_u64());
            }
            EventKind::ConsumerCreated {
                consumer,
                endpoint,
                session_mode,
                selector,
            } => {
                self.u8(2);
                self.uint(consumer.as_u64());
                self.endpoint(endpoint);
                self.u8(match session_mode {
                    SessionMode::Transacted => 0,
                    SessionMode::AutoAcknowledge => 1,
                    SessionMode::ClientAcknowledge => 2,
                    SessionMode::DupsOkAcknowledge => 3,
                });
                self.bool(selector.is_some());
                if let Some(selector) = selector {
                    self.str(selector);
                }
            }
            EventKind::ConsumerClosed { consumer, endpoint } => {
                self.u8(3);
                self.uint(consumer.as_u64());
                self.endpoint(endpoint);
            }
            EventKind::Send {
                record,
                session,
                tx,
            } => {
                self.u8(4);
                self.record(record);
                self.uint(session.as_u64());
                self.tx(*tx);
            }
            EventKind::SendFailed { producer, reason } => {
                self.u8(5);
                self.uint(producer.as_u64());
                self.str(reason);
            }
            EventKind::Receive {
                consumer,
                endpoint,
                record,
                session,
                tx,
            } => {
                self.u8(6);
                self.uint(consumer.as_u64());
                self.endpoint(endpoint);
                self.record(record);
                self.uint(session.as_u64());
                self.tx(*tx);
            }
            EventKind::Acknowledge { session } => {
                self.u8(7);
                self.uint(session.as_u64());
            }
            EventKind::Commit { session, tx } => {
                self.u8(8);
                self.uint(session.as_u64());
                self.uint(tx.as_u64());
            }
            EventKind::Rollback { session, tx } => {
                self.u8(9);
                self.uint(session.as_u64());
                self.uint(tx.as_u64());
            }
            EventKind::DeadLettered { record, parked_on } => {
                self.u8(10);
                self.record(record);
                self.str(parked_on.as_str());
            }
            EventKind::Unsubscribed { endpoint } => {
                self.u8(11);
                self.endpoint(endpoint);
            }
            EventKind::BrokerCrashed => self.u8(12),
            EventKind::BrokerRecovered => self.u8(13),
            EventKind::PhaseStarted { phase } => {
                self.u8(14);
                self.u8(match phase {
                    Phase::WarmUp => 0,
                    Phase::Run => 1,
                    Phase::WarmDown => 2,
                });
            }
        }
    }

    fn tx(&mut self, tx: Option<TxId>) {
        self.bool(tx.is_some());
        if let Some(tx) = tx {
            self.uint(tx.as_u64());
        }
    }

    fn destination(&mut self, destination: &Destination) {
        self.bool(destination.is_topic());
        self.str(destination.name());
    }

    fn endpoint(&mut self, endpoint: &EndpointId) {
        match endpoint {
            EndpointId::Queue(queue) => {
                self.u8(0);
                self.str(queue.as_str());
            }
            EndpointId::DurableSubscription {
                topic,
                client,
                name,
            } => {
                self.u8(1);
                self.str(topic.as_str());
                self.str(client.as_str());
                self.str(name);
            }
            EndpointId::NonDurableSubscription { topic, consumer } => {
                self.u8(2);
                self.str(topic.as_str());
                self.uint(consumer.as_u64());
            }
        }
    }

    fn record(&mut self, record: &MessageRecord) {
        self.uint(record.message.as_u64());
        self.uint(record.producer.as_u64());
        self.uint(record.sequence);
        self.destination(&record.destination);
        self.u8(record.priority.level());
        self.bool(record.delivery_mode.is_persistent());
        self.uint(record.time_to_live.as_millis());
        self.uint(record.sent_at.as_nanos());
        self.uint(record.body_bytes);
        self.bool(record.redelivered);
        self.uint(u64::from(record.delivery_count));
        self.uint(record.properties.len() as u64);
        for (name, value) in record.properties.iter() {
            self.str(name);
            self.value(value);
        }
    }

    fn value(&mut self, value: &Value) {
        match value {
            Value::Bool(v) => {
                self.u8(0);
                self.bool(*v);
            }
            Value::Byte(v) => {
                self.u8(1);
                self.int(i64::from(*v));
            }
            Value::Short(v) => {
                self.u8(2);
                self.int(i64::from(*v));
            }
            Value::Int(v) => {
                self.u8(3);
                self.int(i64::from(*v));
            }
            Value::Long(v) => {
                self.u8(4);
                self.int(*v);
            }
            Value::Float(v) => {
                self.u8(5);
                self.0.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            Value::Double(v) => {
                self.u8(6);
                self.0.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            Value::String(v) => {
                self.u8(7);
                self.str(v);
            }
            Value::Bytes(v) => {
                self.u8(8);
                self.bytes(v);
            }
        }
    }
}

/// Reads primitive and event encodings from a byte slice, front to back.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Succeeds only when every byte has been read.
    ///
    /// # Errors
    ///
    /// [`CodecError::TrailingBytes`] otherwise.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes)
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        let slice = self.bytes.get(self.pos..end).ok_or(CodecError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// A single byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at the end of the input.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// A LEB128 varint.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or a value wider than 64 bits.
    pub fn uint(&mut self) -> Result<u64, CodecError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let bits = u64::from(byte & 0x7f);
            // The tenth byte carries bit 63 only.
            if shift == 63 && bits > 1 {
                break;
            }
            value |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(CodecError::Invalid("varint"))
    }

    /// A varint that must fit `T` (a count, an index, a narrow field).
    ///
    /// # Errors
    ///
    /// [`CodecError::Invalid`] naming `what` when it does not fit.
    pub fn uint_as<T: TryFrom<u64>>(&mut self, what: &'static str) -> Result<T, CodecError> {
        T::try_from(self.uint()?).map_err(|_| CodecError::Invalid(what))
    }

    /// A zigzag-mapped signed integer.
    ///
    /// # Errors
    ///
    /// As [`Reader::uint`].
    pub fn int(&mut self) -> Result<i64, CodecError> {
        let raw = self.uint()?;
        Ok((raw >> 1) as i64 ^ -((raw & 1) as i64))
    }

    fn int_as<T: TryFrom<i64>>(&mut self, what: &'static str) -> Result<T, CodecError> {
        T::try_from(self.int()?).map_err(|_| CodecError::Invalid(what))
    }

    /// A length-prefixed byte string, borrowed from the input. The length
    /// is checked against the remaining input before anything is read.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.uint_as("length")?;
        self.take(len)
    }

    /// A length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or invalid UTF-8.
    pub fn str(&mut self) -> Result<String, CodecError> {
        self.borrowed_str().map(str::to_owned)
    }

    /// A length-prefixed UTF-8 string, borrowed from the input: a name
    /// is copied once, straight into its shared buffer.
    fn borrowed_str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| CodecError::Invalid("utf-8 string"))
    }

    /// A boolean byte (0 or 1).
    ///
    /// # Errors
    ///
    /// [`CodecError::Invalid`] for any other byte.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("boolean")),
        }
    }

    /// An event.
    ///
    /// # Errors
    ///
    /// [`CodecError`] if the bytes are not an event.
    pub fn event(&mut self) -> Result<Event, CodecError> {
        Ok(Event {
            seq: self.uint()?,
            at: Timestamp::from_nanos(self.uint()?),
            node: NodeId::from_raw(self.uint()?),
            kind: self.kind()?,
        })
    }

    fn kind(&mut self) -> Result<EventKind, CodecError> {
        Ok(match self.u8()? {
            0 => EventKind::ProducerCreated {
                producer: ProducerId::from_raw(self.uint()?),
                destination: self.destination()?,
                transacted: self.bool()?,
            },
            1 => EventKind::ProducerClosed {
                producer: ProducerId::from_raw(self.uint()?),
            },
            2 => EventKind::ConsumerCreated {
                consumer: ConsumerId::from_raw(self.uint()?),
                endpoint: self.endpoint()?,
                session_mode: match self.u8()? {
                    0 => SessionMode::Transacted,
                    1 => SessionMode::AutoAcknowledge,
                    2 => SessionMode::ClientAcknowledge,
                    3 => SessionMode::DupsOkAcknowledge,
                    _ => return Err(CodecError::Invalid("session mode")),
                },
                selector: if self.bool()? {
                    Some(self.str()?)
                } else {
                    None
                },
            },
            3 => EventKind::ConsumerClosed {
                consumer: ConsumerId::from_raw(self.uint()?),
                endpoint: self.endpoint()?,
            },
            4 => EventKind::Send {
                record: self.record()?,
                session: SessionId::from_raw(self.uint()?),
                tx: self.tx()?,
            },
            5 => EventKind::SendFailed {
                producer: ProducerId::from_raw(self.uint()?),
                reason: self.str()?,
            },
            6 => EventKind::Receive {
                consumer: ConsumerId::from_raw(self.uint()?),
                endpoint: self.endpoint()?,
                record: self.record()?,
                session: SessionId::from_raw(self.uint()?),
                tx: self.tx()?,
            },
            7 => EventKind::Acknowledge {
                session: SessionId::from_raw(self.uint()?),
            },
            8 => EventKind::Commit {
                session: SessionId::from_raw(self.uint()?),
                tx: TxId::from_raw(self.uint()?),
            },
            9 => EventKind::Rollback {
                session: SessionId::from_raw(self.uint()?),
                tx: TxId::from_raw(self.uint()?),
            },
            10 => EventKind::DeadLettered {
                record: self.record()?,
                parked_on: QueueName::from(self.borrowed_str()?),
            },
            11 => EventKind::Unsubscribed {
                endpoint: self.endpoint()?,
            },
            12 => EventKind::BrokerCrashed,
            13 => EventKind::BrokerRecovered,
            14 => EventKind::PhaseStarted {
                phase: match self.u8()? {
                    0 => Phase::WarmUp,
                    1 => Phase::Run,
                    2 => Phase::WarmDown,
                    _ => return Err(CodecError::Invalid("phase")),
                },
            },
            _ => return Err(CodecError::Invalid("event kind")),
        })
    }

    fn tx(&mut self) -> Result<Option<TxId>, CodecError> {
        Ok(if self.bool()? {
            Some(TxId::from_raw(self.uint()?))
        } else {
            None
        })
    }

    fn destination(&mut self) -> Result<Destination, CodecError> {
        Ok(if self.bool()? {
            Destination::Topic(TopicName::from(self.borrowed_str()?))
        } else {
            Destination::Queue(QueueName::from(self.borrowed_str()?))
        })
    }

    fn endpoint(&mut self) -> Result<EndpointId, CodecError> {
        Ok(match self.u8()? {
            0 => EndpointId::Queue(QueueName::from(self.borrowed_str()?)),
            1 => EndpointId::DurableSubscription {
                topic: TopicName::from(self.borrowed_str()?),
                client: ClientId::from(self.borrowed_str()?),
                name: self.borrowed_str()?.into(),
            },
            2 => EndpointId::NonDurableSubscription {
                topic: TopicName::from(self.borrowed_str()?),
                consumer: ConsumerId::from_raw(self.uint()?),
            },
            _ => return Err(CodecError::Invalid("endpoint")),
        })
    }

    fn record(&mut self) -> Result<MessageRecord, CodecError> {
        let message = MessageId::from_raw(self.uint()?);
        let producer = ProducerId::from_raw(self.uint()?);
        let sequence = self.uint()?;
        let destination = self.destination()?;
        let priority = Priority::new(self.u8()?).ok_or(CodecError::Invalid("priority"))?;
        let delivery_mode = if self.bool()? {
            DeliveryMode::Persistent
        } else {
            DeliveryMode::NonPersistent
        };
        let time_to_live = TimeToLive::from_millis(self.uint()?);
        let sent_at = Timestamp::from_nanos(self.uint()?);
        let body_bytes = self.uint()?;
        let redelivered = self.bool()?;
        let delivery_count = self.uint_as("delivery count")?;
        let count = self.uint()?;
        let mut properties = Properties::new();
        for _ in 0..count {
            let name = self.str()?;
            let value = self.value()?;
            let previous = properties
                .set(name, value)
                .map_err(|_| CodecError::Invalid("property"))?;
            if previous.is_some() {
                return Err(CodecError::Invalid("repeated property"));
            }
        }
        Ok(MessageRecord {
            message,
            producer,
            sequence,
            destination,
            priority,
            delivery_mode,
            time_to_live,
            sent_at,
            body_bytes,
            redelivered,
            delivery_count,
            properties,
        })
    }

    fn value(&mut self) -> Result<Value, CodecError> {
        Ok(match self.u8()? {
            0 => Value::Bool(self.bool()?),
            1 => Value::Byte(self.int_as("byte value")?),
            2 => Value::Short(self.int_as("short value")?),
            3 => Value::Int(self.int_as("int value")?),
            4 => Value::Long(self.int()?),
            5 => Value::Float(f32::from_bits(u32::from_le_bytes(self.array()?))),
            6 => Value::Double(f64::from_bits(u64::from_le_bytes(self.array()?))),
            7 => Value::String(self.str()?),
            8 => Value::Bytes(self.bytes()?.to_vec()),
            _ => return Err(CodecError::Invalid("value type")),
        })
    }
}

/// Appends one event's encoding to `out`.
pub fn encode_event(event: &Event, out: &mut Vec<u8>) {
    Writer(out).event(event);
}

/// Decodes exactly one event from `bytes`.
///
/// # Errors
///
/// [`CodecError`] when the bytes are not exactly one encoded event.
pub fn decode_event(bytes: &[u8]) -> Result<Event, CodecError> {
    let mut reader = Reader::new(bytes);
    let event = reader.event()?;
    reader.finish()?;
    Ok(event)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(properties: Properties) -> MessageRecord {
        MessageRecord {
            message: MessageId::from_raw(u64::MAX),
            producer: ProducerId::from_raw(3),
            sequence: 1 << 40,
            destination: Destination::topic("prices"),
            priority: Priority::HIGHEST,
            delivery_mode: DeliveryMode::NonPersistent,
            time_to_live: TimeToLive::from_millis(250),
            sent_at: Timestamp::from_nanos(123_456_789),
            body_bytes: 1024,
            redelivered: true,
            delivery_count: u32::MAX,
            properties,
        }
    }

    /// One event of every kind, with every endpoint, value type and
    /// optional field represented.
    fn every_kind() -> Vec<Event> {
        let mut properties = Properties::new();
        for (name, value) in [
            ("flag", Value::Bool(true)),
            ("b", Value::Byte(i8::MIN)),
            ("s", Value::Short(-300)),
            ("i", Value::Int(i32::MAX)),
            ("l", Value::Long(i64::MIN)),
            ("f", Value::Float(-1.5)),
            ("d", Value::Double(f64::MAX)),
            ("region", Value::from("emea")),
        ] {
            properties.set(name, value).unwrap();
        }
        let queue = EndpointId::for_queue(QueueName::new("q"));
        let durable = EndpointId::durable(TopicName::new("t"), ClientId::new("c"), "audit");
        let ephemeral = EndpointId::non_durable(TopicName::new("t"), ConsumerId::from_raw(9));
        let kinds = vec![
            EventKind::ProducerCreated {
                producer: ProducerId::from_raw(1),
                destination: Destination::queue("q"),
                transacted: true,
            },
            EventKind::ProducerClosed {
                producer: ProducerId::from_raw(1),
            },
            EventKind::ConsumerCreated {
                consumer: ConsumerId::from_raw(2),
                endpoint: durable.clone(),
                session_mode: SessionMode::ClientAcknowledge,
                selector: Some("region = 'emea'".to_owned()),
            },
            EventKind::ConsumerCreated {
                consumer: ConsumerId::from_raw(9),
                endpoint: ephemeral.clone(),
                session_mode: SessionMode::DupsOkAcknowledge,
                selector: None,
            },
            EventKind::ConsumerClosed {
                consumer: ConsumerId::from_raw(2),
                endpoint: queue.clone(),
            },
            EventKind::Send {
                record: record(properties.clone()),
                session: SessionId::from_raw(4),
                tx: Some(TxId::from_raw(0)),
            },
            EventKind::SendFailed {
                producer: ProducerId::from_raw(1),
                reason: "résumé ✓".to_owned(),
            },
            EventKind::Receive {
                consumer: ConsumerId::from_raw(9),
                endpoint: ephemeral,
                record: record(properties.clone()),
                session: SessionId::from_raw(5),
                tx: None,
            },
            EventKind::Acknowledge {
                session: SessionId::from_raw(5),
            },
            EventKind::Commit {
                session: SessionId::from_raw(4),
                tx: TxId::from_raw(7),
            },
            EventKind::Rollback {
                session: SessionId::from_raw(4),
                tx: TxId::from_raw(8),
            },
            EventKind::DeadLettered {
                record: record(Properties::new()),
                parked_on: QueueName::new("DLQ.q"),
            },
            EventKind::Unsubscribed { endpoint: durable },
            EventKind::BrokerCrashed,
            EventKind::BrokerRecovered,
            EventKind::PhaseStarted {
                phase: Phase::WarmUp,
            },
            EventKind::PhaseStarted { phase: Phase::Run },
            EventKind::PhaseStarted {
                phase: Phase::WarmDown,
            },
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| Event {
                seq: if i == 0 { u64::MAX } else { i as u64 },
                at: Timestamp::from_nanos(1_000_000_007 * i as u64),
                node: NodeId::from_raw(i as u64 % 3),
                kind,
            })
            .collect()
    }

    #[test]
    fn every_event_kind_round_trips() {
        for event in every_kind() {
            let mut bytes = Vec::new();
            encode_event(&event, &mut bytes);
            assert_eq!(decode_event(&bytes), Ok(event.clone()), "{event:?}");
        }
    }

    #[test]
    fn nan_and_byte_array_values_round_trip_bit_for_bit() {
        // Properties reject byte arrays, so exercise the value codec
        // directly for the one variant an event cannot carry.
        let mut bytes = Vec::new();
        let mut writer = Writer(&mut bytes);
        writer.value(&Value::Bytes(vec![0, 255, 7]));
        writer.value(&Value::Double(f64::NAN));
        let mut reader = Reader::new(&bytes);
        assert_eq!(reader.value(), Ok(Value::Bytes(vec![0, 255, 7])));
        match reader.value() {
            Ok(Value::Double(v)) => assert_eq!(v.to_bits(), f64::NAN.to_bits()),
            other => panic!("{other:?}"),
        }
        assert_eq!(reader.finish(), Ok(()));
    }

    #[test]
    fn varints_cover_the_full_range() {
        for value in [0, 1, 127, 128, 300, 1 << 35, u64::MAX - 1, u64::MAX] {
            let mut bytes = Vec::new();
            Writer(&mut bytes).uint(value);
            assert!(bytes.len() <= 10);
            assert_eq!(Reader::new(&bytes).uint(), Ok(value));
        }
        for value in [0, -1, 1, i64::MIN, i64::MAX] {
            let mut bytes = Vec::new();
            Writer(&mut bytes).int(value);
            assert_eq!(Reader::new(&bytes).int(), Ok(value));
        }
        // An eleventh continuation byte, or a tenth byte above bit 63.
        assert!(Reader::new(&[0xff; 11]).uint().is_err());
        let mut wide = vec![0xff; 9];
        wide.push(0x02);
        assert_eq!(
            Reader::new(&wide).uint(),
            Err(CodecError::Invalid("varint"))
        );
    }

    #[test]
    fn every_truncation_is_an_error_not_a_panic() {
        for event in every_kind() {
            let mut bytes = Vec::new();
            encode_event(&event, &mut bytes);
            for cut in 0..bytes.len() {
                assert!(decode_event(&bytes[..cut]).is_err(), "{event:?} cut {cut}");
            }
            bytes.push(0);
            assert_eq!(decode_event(&bytes), Err(CodecError::TrailingBytes));
        }
    }

    #[test]
    fn out_of_range_fields_are_rejected() {
        let send = Event {
            seq: 1,
            at: Timestamp::ZERO,
            node: NodeId::from_raw(0),
            ..every_kind().swap_remove(5)
        };
        let mut bytes = Vec::new();
        encode_event(&send, &mut bytes);
        // seq, at and node take one byte each here; the kind tag follows.
        let mut bad_kind = bytes.clone();
        bad_kind[3] = 200;
        assert_eq!(
            decode_event(&bad_kind),
            Err(CodecError::Invalid("event kind"))
        );
        // A SendFailed whose reason claims a length far past the input.
        let mut huge = vec![0, 0, 0, 5, 0];
        Writer(&mut huge).uint(u64::MAX >> 1);
        assert_eq!(decode_event(&huge), Err(CodecError::Truncated));
        // Priority 10 does not exist.
        let mut record_bytes = Vec::new();
        Writer(&mut record_bytes).record(&record(Properties::new()));
        let priority_at = record_bytes
            .iter()
            .position(|&b| b == 9)
            .expect("priority byte");
        record_bytes[priority_at] = 10;
        assert_eq!(
            Reader::new(&record_bytes).record(),
            Err(CodecError::Invalid("priority"))
        );
    }

    #[test]
    fn binary_encoding_is_far_smaller_than_json() {
        for event in every_kind() {
            let mut bytes = Vec::new();
            encode_event(&event, &mut bytes);
            let json = serde_json::to_string(&event).unwrap();
            assert!(bytes.len() * 2 < json.len(), "{} vs {json}", bytes.len());
        }
    }
}
