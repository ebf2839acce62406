//! Destinations: named queues (point-to-point) and topics
//! (publish/subscribe), plus the consumer-group endpoints the analysis
//! model reasons about.

use crate::id::{ClientId, ConsumerId};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// The name of a point-to-point queue.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct QueueName(#[serde(with = "crate::shared::arc_str")] Arc<str>);

impl QueueName {
    /// Creates a queue name.
    ///
    /// # Examples
    ///
    /// ```
    /// use jmst_api::destination::QueueName;
    ///
    /// let q = QueueName::new("orders");
    /// assert_eq!(q.as_str(), "orders");
    /// ```
    pub fn new(name: impl Into<String>) -> Self {
        Self(name.into().into())
    }

    /// Returns the queue name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for QueueName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "queue:{}", self.0)
    }
}

impl From<&str> for QueueName {
    fn from(name: &str) -> Self {
        Self(name.into())
    }
}

impl From<String> for QueueName {
    fn from(name: String) -> Self {
        Self(name.into())
    }
}

/// The name of a publish/subscribe topic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TopicName(#[serde(with = "crate::shared::arc_str")] Arc<str>);

impl TopicName {
    /// Creates a topic name.
    ///
    /// # Examples
    ///
    /// ```
    /// use jmst_api::destination::TopicName;
    ///
    /// let t = TopicName::new("prices");
    /// assert_eq!(t.as_str(), "prices");
    /// ```
    pub fn new(name: impl Into<String>) -> Self {
        Self(name.into().into())
    }

    /// Returns the topic name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for TopicName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "topic:{}", self.0)
    }
}

impl From<&str> for TopicName {
    fn from(name: &str) -> Self {
        Self(name.into())
    }
}

impl From<String> for TopicName {
    fn from(name: String) -> Self {
        Self(name.into())
    }
}

/// A message destination: a queue or a topic.
///
/// # Examples
///
/// ```
/// use jmst_api::destination::Destination;
///
/// let d = Destination::queue("orders");
/// assert!(d.is_queue());
/// assert_eq!(d.name(), "orders");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Destination {
    /// A point-to-point queue.
    Queue(QueueName),
    /// A publish/subscribe topic.
    Topic(TopicName),
}

impl Destination {
    /// Creates a queue destination.
    pub fn queue(name: impl Into<String>) -> Self {
        Destination::Queue(QueueName::new(name))
    }

    /// Creates a topic destination.
    pub fn topic(name: impl Into<String>) -> Self {
        Destination::Topic(TopicName::new(name))
    }

    /// Returns `true` if this is a queue.
    pub const fn is_queue(&self) -> bool {
        matches!(self, Destination::Queue(_))
    }

    /// Returns `true` if this is a topic.
    pub const fn is_topic(&self) -> bool {
        matches!(self, Destination::Topic(_))
    }

    /// Returns the bare destination name (without the queue/topic tag).
    pub fn name(&self) -> &str {
        match self {
            Destination::Queue(q) => q.as_str(),
            Destination::Topic(t) => t.as_str(),
        }
    }

    /// Returns the queue name if this is a queue.
    pub fn as_queue(&self) -> Option<&QueueName> {
        match self {
            Destination::Queue(q) => Some(q),
            Destination::Topic(_) => None,
        }
    }

    /// Returns the topic name if this is a topic.
    pub fn as_topic(&self) -> Option<&TopicName> {
        match self {
            Destination::Topic(t) => Some(t),
            Destination::Queue(_) => None,
        }
    }
}

impl fmt::Display for Destination {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Destination::Queue(q) => q.fmt(f),
            Destination::Topic(t) => t.fmt(f),
        }
    }
}

impl From<QueueName> for Destination {
    fn from(queue: QueueName) -> Self {
        Destination::Queue(queue)
    }
}

impl From<TopicName> for Destination {
    fn from(topic: TopicName) -> Self {
        Destination::Topic(topic)
    }
}

/// The identity of a consumer group end-point in the analysis model.
///
/// "Messages are assumed to be delivered to either queues or subscriptions
/// (each with a unique identifier), representing a consumer group" (paper
/// §3.1). Queues and durable subscriptions are long-lived end-points that
/// can outlive individual consumers; a non-durable subscriber is "allocated
/// an artificial subscription for the life of the subscriber" (footnote 3).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum EndpointId {
    /// The consumer group of all receivers on a queue.
    Queue(QueueName),
    /// A durable subscription, identified by client and subscription name.
    DurableSubscription {
        /// The topic the subscription covers.
        topic: TopicName,
        /// The owning client.
        client: ClientId,
        /// The subscription's name, unique within the client.
        #[serde(with = "crate::shared::arc_str")]
        name: Arc<str>,
    },
    /// The artificial subscription of one non-durable subscriber.
    NonDurableSubscription {
        /// The topic the subscription covers.
        topic: TopicName,
        /// The subscriber the subscription lives and dies with.
        consumer: ConsumerId,
    },
}

impl EndpointId {
    /// Creates the end-point for a queue's consumer group.
    pub fn for_queue(queue: QueueName) -> Self {
        EndpointId::Queue(queue)
    }

    /// Creates the end-point for a durable subscription.
    pub fn durable(topic: TopicName, client: ClientId, name: impl Into<String>) -> Self {
        EndpointId::DurableSubscription {
            topic,
            client,
            name: name.into().into(),
        }
    }

    /// Creates the artificial end-point for a non-durable subscriber.
    pub fn non_durable(topic: TopicName, consumer: ConsumerId) -> Self {
        EndpointId::NonDurableSubscription { topic, consumer }
    }

    /// Returns the topic this end-point subscribes to, if it is a
    /// subscription.
    pub fn topic(&self) -> Option<&TopicName> {
        match self {
            EndpointId::Queue(_) => None,
            EndpointId::DurableSubscription { topic, .. }
            | EndpointId::NonDurableSubscription { topic, .. } => Some(topic),
        }
    }

    /// Returns `true` if messages wait for a future consumer at this
    /// end-point (queues and durable subscriptions do; a non-durable
    /// subscription dies with its subscriber).
    pub const fn retains_messages(&self) -> bool {
        !matches!(self, EndpointId::NonDurableSubscription { .. })
    }
}

impl fmt::Display for EndpointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EndpointId::Queue(q) => write!(f, "{q}"),
            EndpointId::DurableSubscription {
                topic,
                client,
                name,
            } => write!(f, "durable:{client}/{name}@{topic}"),
            EndpointId::NonDurableSubscription { topic, consumer } => {
                write!(f, "sub:{consumer}@{topic}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn destination_constructors_and_accessors() {
        let q = Destination::queue("orders");
        assert!(q.is_queue());
        assert!(!q.is_topic());
        assert_eq!(q.name(), "orders");
        assert_eq!(q.as_queue(), Some(&QueueName::new("orders")));
        assert_eq!(q.as_topic(), None);

        let t = Destination::topic("prices");
        assert!(t.is_topic());
        assert_eq!(t.as_topic(), Some(&TopicName::new("prices")));
        assert_eq!(t.as_queue(), None);
    }

    #[test]
    fn destination_from_names() {
        let d: Destination = QueueName::new("q").into();
        assert!(d.is_queue());
        let d: Destination = TopicName::new("t").into();
        assert!(d.is_topic());
    }

    #[test]
    fn destination_display() {
        assert_eq!(Destination::queue("q").to_string(), "queue:q");
        assert_eq!(Destination::topic("t").to_string(), "topic:t");
    }

    #[test]
    fn endpoint_retention() {
        let queue = EndpointId::for_queue(QueueName::new("q"));
        assert!(queue.retains_messages());
        assert_eq!(queue.topic(), None);

        let durable = EndpointId::durable(TopicName::new("t"), ClientId::new("c"), "audit");
        assert!(durable.retains_messages());
        assert_eq!(durable.topic(), Some(&TopicName::new("t")));

        let ephemeral = EndpointId::non_durable(TopicName::new("t"), ConsumerId::from_raw(1));
        assert!(!ephemeral.retains_messages());
        assert_eq!(ephemeral.topic(), Some(&TopicName::new("t")));
    }

    #[test]
    fn endpoint_display_forms() {
        let durable = EndpointId::durable(TopicName::new("t"), ClientId::new("c"), "audit");
        assert_eq!(durable.to_string(), "durable:c/audit@topic:t");
        let ephemeral = EndpointId::non_durable(TopicName::new("t"), ConsumerId::from_raw(1));
        assert_eq!(ephemeral.to_string(), "sub:cons-1@topic:t");
        let queue = EndpointId::for_queue(QueueName::new("q"));
        assert_eq!(queue.to_string(), "queue:q");
    }

    #[test]
    fn names_convert_from_strings() {
        let q: QueueName = "orders".into();
        assert_eq!(q, QueueName::new(String::from("orders")));
        let t: TopicName = String::from("prices").into();
        assert_eq!(t.as_str(), "prices");
    }

    fn hash_of(value: &impl std::hash::Hash) -> u64 {
        use std::hash::{BuildHasher, BuildHasherDefault};
        BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default().hash_one(value)
    }

    /// Two values built from separate buffers with the same content.
    fn assert_same_by_content<T: Ord + std::hash::Hash + fmt::Debug>(a: T, b: T) {
        assert_eq!(a, b);
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn names_from_separate_buffers_compare_hash_and_sort_by_content() {
        let queue = QueueName::new(String::from("orders"));
        let other = QueueName::from("orders");
        assert!(!Arc::ptr_eq(&queue.0, &other.0));
        assert_same_by_content(queue, other);
        assert_same_by_content(
            TopicName::new("prices"),
            TopicName::from(String::from("prices")),
        );
        assert_same_by_content(ClientId::new("c"), ClientId::from("c"));
        assert_same_by_content(
            Destination::queue("q"),
            Destination::queue(String::from("q")),
        );
        assert_same_by_content(
            EndpointId::durable(TopicName::new("t"), ClientId::new("c"), "audit"),
            EndpointId::durable(
                TopicName::from("t"),
                ClientId::from("c"),
                String::from("audit"),
            ),
        );
        assert_same_by_content(
            EndpointId::non_durable(TopicName::new("t"), ConsumerId::from_raw(1)),
            EndpointId::non_durable(TopicName::from("t"), ConsumerId::from_raw(1)),
        );
        // A name hashes as its text does, so hashed maps bucket it alike.
        assert_eq!(hash_of(&QueueName::new("orders")), hash_of(&"orders"));
        assert!(QueueName::new("a") < QueueName::new("b"));
        assert!(TopicName::new("ab") < TopicName::new("b"));
    }

    #[test]
    fn endpoint_map_iterates_in_variant_then_content_order() {
        let topic = |name: &str| TopicName::new(name);
        let endpoints = [
            EndpointId::non_durable(topic("a"), ConsumerId::from_raw(2)),
            EndpointId::durable(topic("b"), ClientId::new("c"), "x"),
            EndpointId::for_queue(QueueName::new("q2")),
            EndpointId::durable(topic("a"), ClientId::new("d"), "x"),
            EndpointId::non_durable(topic("a"), ConsumerId::from_raw(1)),
            EndpointId::for_queue(QueueName::new("q10")),
            EndpointId::durable(topic("a"), ClientId::new("c"), "y"),
            EndpointId::durable(topic("a"), ClientId::new("c"), "x"),
            EndpointId::non_durable(topic("B"), ConsumerId::from_raw(9)),
        ];
        let map: std::collections::BTreeMap<EndpointId, usize> =
            endpoints.iter().cloned().zip(0..).collect();
        let order: Vec<String> = map.keys().map(ToString::to_string).collect();
        assert_eq!(
            order,
            [
                "queue:q10",
                "queue:q2",
                "durable:c/x@topic:a",
                "durable:c/y@topic:a",
                "durable:d/x@topic:a",
                "durable:c/x@topic:b",
                "sub:cons-9@topic:B",
                "sub:cons-1@topic:a",
                "sub:cons-2@topic:a",
            ]
        );
    }
}
