//! Messages: the draft a client builds ([`MessageDraft`]) and the stamped,
//! immutable [`Message`] a provider delivers.

use crate::body::Body;
use crate::destination::Destination;
use crate::id::{MessageId, ProducerId};
use crate::modes::{DeliveryMode, Priority, TimeToLive};
use crate::properties::{Properties, PropertyError};
use crate::time::Timestamp;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A message under construction, before a producer stamps it.
///
/// A draft carries everything the *client* chooses: body, priority,
/// delivery mode, time-to-live, correlation id, reply-to destination and
/// user properties. The provider supplies the rest — message id, producer
/// identity, sequence number, destination, and send timestamp — when the
/// draft is passed to [`Producer::send`](crate::provider::Producer::send).
///
/// # Examples
///
/// ```
/// use jmst_api::message::MessageDraft;
/// use jmst_api::body::Body;
/// use jmst_api::modes::{DeliveryMode, Priority};
///
/// let draft = MessageDraft::new(Body::text("hi"))
///     .priority(Priority::HIGHEST)
///     .delivery_mode(DeliveryMode::NonPersistent);
/// assert_eq!(draft.body().size_bytes(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MessageDraft {
    body: Body,
    delivery_mode: DeliveryMode,
    priority: Priority,
    time_to_live: TimeToLive,
    correlation_id: Option<String>,
    reply_to: Option<Destination>,
    message_type: Option<String>,
    properties: Properties,
}

impl MessageDraft {
    /// Creates a draft carrying `body` with default headers (persistent
    /// delivery, priority 4, no expiry).
    pub fn new(body: Body) -> Self {
        Self {
            body,
            ..Self::default()
        }
    }

    /// Creates a draft with a text body — the most common case in tests.
    pub fn text(text: impl Into<String>) -> Self {
        Self::new(Body::text(text))
    }

    /// Sets the delivery mode.
    pub fn delivery_mode(mut self, mode: DeliveryMode) -> Self {
        self.delivery_mode = mode;
        self
    }

    /// Sets the priority.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the time-to-live.
    pub fn time_to_live(mut self, ttl: TimeToLive) -> Self {
        self.time_to_live = ttl;
        self
    }

    /// Sets the correlation id used to tie replies to requests.
    pub fn correlation_id(mut self, id: impl Into<String>) -> Self {
        self.correlation_id = Some(id.into());
        self
    }

    /// Sets the reply-to destination.
    pub fn reply_to(mut self, destination: Destination) -> Self {
        self.reply_to = Some(destination);
        self
    }

    /// Sets the application message type tag.
    pub fn message_type(mut self, message_type: impl Into<String>) -> Self {
        self.message_type = Some(message_type.into());
        self
    }

    /// Sets a user property.
    ///
    /// # Errors
    ///
    /// Returns an error if the name is not a legal identifier or the value
    /// is a byte array; the draft is returned unchanged inside the error.
    pub fn property(
        mut self,
        name: impl Into<String>,
        value: Value,
    ) -> Result<Self, PropertyError> {
        self.properties.set(name, value)?;
        Ok(self)
    }

    /// Returns the draft body.
    pub fn body(&self) -> &Body {
        &self.body
    }

    /// Returns the configured delivery mode.
    pub fn draft_delivery_mode(&self) -> DeliveryMode {
        self.delivery_mode
    }

    /// Returns the configured priority.
    pub fn draft_priority(&self) -> Priority {
        self.priority
    }

    /// Returns the configured time-to-live.
    pub fn draft_time_to_live(&self) -> TimeToLive {
        self.time_to_live
    }

    /// Returns the draft properties.
    pub fn draft_properties(&self) -> &Properties {
        &self.properties
    }

    /// Stamps the draft into a finished [`Message`].
    ///
    /// Providers call this at send time; client code normally never does.
    pub fn stamp(self, stamp: Stamp) -> Message {
        let expires_at = self
            .time_to_live
            .as_duration()
            .map(|ttl| stamp.sent_at.saturating_add(ttl));
        Message {
            inner: Arc::new(MessageInner {
                id: stamp.id,
                producer: stamp.producer,
                sequence: stamp.sequence,
                destination: stamp.destination,
                sent_at: stamp.sent_at,
                expires_at,
                delivery_mode: self.delivery_mode,
                priority: self.priority,
                time_to_live: self.time_to_live,
                correlation_id: self.correlation_id,
                reply_to: self.reply_to,
                message_type: self.message_type,
                properties: self.properties,
                body: self.body,
            }),
            redelivered: false,
            delivery_count: 1,
        }
    }
}

/// The provider-supplied headers applied when a draft is sent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stamp {
    /// The unique message id.
    pub id: MessageId,
    /// The sending producer.
    pub producer: ProducerId,
    /// The per-producer sequence number (0, 1, 2, … in send order).
    pub sequence: u64,
    /// The destination the message was sent to.
    pub destination: Destination,
    /// The send timestamp.
    pub sent_at: Timestamp,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct MessageInner {
    id: MessageId,
    producer: ProducerId,
    sequence: u64,
    destination: Destination,
    sent_at: Timestamp,
    expires_at: Option<Timestamp>,
    delivery_mode: DeliveryMode,
    priority: Priority,
    time_to_live: TimeToLive,
    correlation_id: Option<String>,
    reply_to: Option<Destination>,
    message_type: Option<String>,
    properties: Properties,
    body: Body,
}

/// An immutable, stamped message.
///
/// Messages are cheaply cloneable (the payload is shared), which is how a
/// broker fans one publish out to many subscribers without copying the
/// body. Only the `redelivered` flag is per-delivery state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Message {
    #[serde(with = "crate::shared::arc")]
    inner: Arc<MessageInner>,
    redelivered: bool,
    /// 1-based count of deliveries this instance represents (the JMS
    /// `JMSXDeliveryCount`).
    delivery_count: u32,
}

impl Message {
    /// Returns the unique message id.
    pub fn id(&self) -> MessageId {
        self.inner.id
    }

    /// Returns the producer that sent the message.
    pub fn producer(&self) -> ProducerId {
        self.inner.producer
    }

    /// Returns the per-producer sequence number.
    pub fn sequence(&self) -> u64 {
        self.inner.sequence
    }

    /// Returns the destination the message was sent to.
    pub fn destination(&self) -> &Destination {
        &self.inner.destination
    }

    /// Returns the send timestamp.
    pub fn sent_at(&self) -> Timestamp {
        self.inner.sent_at
    }

    /// Returns the expiry time, or `None` if the message never expires.
    pub fn expires_at(&self) -> Option<Timestamp> {
        self.inner.expires_at
    }

    /// Returns `true` if the message is expired at time `now`.
    ///
    /// # Examples
    ///
    /// ```
    /// use jmst_api::message::{MessageDraft, Stamp};
    /// use jmst_api::body::Body;
    /// use jmst_api::destination::Destination;
    /// use jmst_api::id::{MessageId, ProducerId};
    /// use jmst_api::modes::TimeToLive;
    /// use jmst_api::time::Timestamp;
    ///
    /// let message = MessageDraft::new(Body::text("x"))
    ///     .time_to_live(TimeToLive::from_millis(10))
    ///     .stamp(Stamp {
    ///         id: MessageId::from_raw(1),
    ///         producer: ProducerId::from_raw(1),
    ///         sequence: 0,
    ///         destination: Destination::queue("q"),
    ///         sent_at: Timestamp::from_millis(100),
    ///     });
    /// assert!(!message.is_expired_at(Timestamp::from_millis(105)));
    /// assert!(message.is_expired_at(Timestamp::from_millis(111)));
    /// ```
    pub fn is_expired_at(&self, now: Timestamp) -> bool {
        match self.inner.expires_at {
            Some(expiry) => now > expiry,
            None => false,
        }
    }

    /// Returns the delivery mode.
    pub fn delivery_mode(&self) -> DeliveryMode {
        self.inner.delivery_mode
    }

    /// Returns the priority.
    pub fn priority(&self) -> Priority {
        self.inner.priority
    }

    /// Returns the time-to-live the message was sent with.
    pub fn time_to_live(&self) -> TimeToLive {
        self.inner.time_to_live
    }

    /// Returns the correlation id, if set.
    pub fn correlation_id(&self) -> Option<&str> {
        self.inner.correlation_id.as_deref()
    }

    /// Returns the reply-to destination, if set.
    pub fn reply_to(&self) -> Option<&Destination> {
        self.inner.reply_to.as_ref()
    }

    /// Returns the application message type tag, if set.
    pub fn message_type(&self) -> Option<&str> {
        self.inner.message_type.as_deref()
    }

    /// Returns the user properties.
    pub fn properties(&self) -> &Properties {
        &self.inner.properties
    }

    /// Returns the body.
    pub fn body(&self) -> &Body {
        &self.inner.body
    }

    /// Returns the body payload size in bytes.
    pub fn body_size(&self) -> usize {
        self.inner.body.size_bytes()
    }

    /// Returns `true` if the provider marked this delivery as a redelivery
    /// (after session recovery or transaction rollback).
    pub fn is_redelivered(&self) -> bool {
        self.redelivered
    }

    /// Returns a copy of this message marked as redelivered.
    ///
    /// Providers use this when re-queueing messages after a rollback or
    /// recover; the shared payload is not copied. The delivery count is
    /// carried over unchanged — providers bump it with
    /// [`Message::with_delivery_count`] when they hand the copy out again.
    pub fn as_redelivered(&self) -> Message {
        Message {
            inner: Arc::clone(&self.inner),
            redelivered: true,
            delivery_count: self.delivery_count,
        }
    }

    /// Returns the 1-based delivery count (the JMS `JMSXDeliveryCount`):
    /// `1` for a first delivery, `n > 1` for the `n`-th attempt after
    /// recovery, rollback, or a broker crash. `0` means the count is
    /// unknown (a record from before the field existed).
    pub fn delivery_count(&self) -> u32 {
        self.delivery_count
    }

    /// Returns a copy of this message carrying the given delivery count;
    /// the shared payload is not copied.
    pub fn with_delivery_count(&self, delivery_count: u32) -> Message {
        Message {
            inner: Arc::clone(&self.inner),
            redelivered: self.redelivered,
            delivery_count,
        }
    }

    /// Returns `true` if `other` shares this message's payload storage
    /// (headers, properties and body behind the same allocation).
    ///
    /// A broker that fans one publish out to many subscribers without
    /// copying bodies delivers messages for which this holds against the
    /// sent original; tests use it to prove the hot path is zero-copy.
    pub fn shares_payload_with(&self, other: &Message) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} from {} seq {} to {} ({}, prio {}, {})",
            self.id(),
            self.producer(),
            self.sequence(),
            self.destination(),
            self.delivery_mode(),
            self.priority(),
            self.body()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp_at(millis: u64) -> Stamp {
        Stamp {
            id: MessageId::from_raw(9),
            producer: ProducerId::from_raw(2),
            sequence: 5,
            destination: Destination::topic("t"),
            sent_at: Timestamp::from_millis(millis),
        }
    }

    #[test]
    fn stamping_applies_headers() {
        let message = MessageDraft::text("payload")
            .priority(Priority::HIGHEST)
            .delivery_mode(DeliveryMode::NonPersistent)
            .correlation_id("corr-1")
            .reply_to(Destination::queue("replies"))
            .message_type("order")
            .stamp(stamp_at(50));
        assert_eq!(message.id(), MessageId::from_raw(9));
        assert_eq!(message.producer(), ProducerId::from_raw(2));
        assert_eq!(message.sequence(), 5);
        assert_eq!(message.destination(), &Destination::topic("t"));
        assert_eq!(message.sent_at(), Timestamp::from_millis(50));
        assert_eq!(message.priority(), Priority::HIGHEST);
        assert_eq!(message.delivery_mode(), DeliveryMode::NonPersistent);
        assert_eq!(message.correlation_id(), Some("corr-1"));
        assert_eq!(message.reply_to(), Some(&Destination::queue("replies")));
        assert_eq!(message.message_type(), Some("order"));
        assert_eq!(message.body_size(), 7);
        assert!(!message.is_redelivered());
    }

    #[test]
    fn forever_ttl_never_expires() {
        let message = MessageDraft::text("x").stamp(stamp_at(0));
        assert_eq!(message.expires_at(), None);
        assert!(!message.is_expired_at(Timestamp::from_secs(1_000_000)));
    }

    #[test]
    fn finite_ttl_expires_after_deadline() {
        let message = MessageDraft::text("x")
            .time_to_live(TimeToLive::from_millis(10))
            .stamp(stamp_at(100));
        assert_eq!(message.expires_at(), Some(Timestamp::from_millis(110)));
        assert!(!message.is_expired_at(Timestamp::from_millis(110)));
        assert!(message.is_expired_at(Timestamp::from_millis(111)));
    }

    #[test]
    fn redelivery_marks_flag_without_copying_payload() {
        let message = MessageDraft::text("x").stamp(stamp_at(0));
        let redelivered = message.as_redelivered();
        assert!(redelivered.is_redelivered());
        assert_eq!(redelivered.id(), message.id());
        assert!(Arc::ptr_eq(&message.inner, &redelivered.inner));
    }

    #[test]
    fn delivery_count_starts_at_one_and_travels_with_redeliveries() {
        let message = MessageDraft::text("x").stamp(stamp_at(0));
        assert_eq!(message.delivery_count(), 1);
        let second = message.as_redelivered().with_delivery_count(2);
        assert!(second.is_redelivered());
        assert_eq!(second.delivery_count(), 2);
        assert!(second.shares_payload_with(&message));
    }

    #[test]
    fn draft_properties_round_trip() {
        let draft = MessageDraft::text("x")
            .property("k", Value::Int(1))
            .unwrap();
        let message = draft.stamp(stamp_at(0));
        assert_eq!(message.properties().get("k"), Some(&Value::Int(1)));
    }

    #[test]
    fn draft_rejects_bad_property() {
        let result = MessageDraft::text("x").property("9bad", Value::Int(1));
        assert!(result.is_err());
    }

    #[test]
    fn draft_accessors() {
        let draft = MessageDraft::text("abc")
            .priority(Priority::LOWEST)
            .time_to_live(TimeToLive::from_millis(5));
        assert_eq!(draft.draft_priority(), Priority::LOWEST);
        assert_eq!(draft.draft_time_to_live().as_millis(), 5);
        assert_eq!(draft.draft_delivery_mode(), DeliveryMode::Persistent);
        assert!(draft.draft_properties().is_empty());
    }

    #[test]
    fn display_mentions_id_and_destination() {
        let message = MessageDraft::text("abc").stamp(stamp_at(0));
        let text = message.to_string();
        assert!(text.contains("msg-9"));
        assert!(text.contains("topic:t"));
    }
}
