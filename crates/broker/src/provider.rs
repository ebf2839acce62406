//! The [`ReferenceBroker`] provider: an in-process, spec-conforming
//! message-oriented-middleware implementation, plus admin controls for
//! crash injection.

use crate::config::BrokerConfig;
use crate::connection::BrokerConnection;
use crate::core::Core;
use jmst_api::destination::EndpointId;
use jmst_api::error::Error;
use jmst_api::id::ClientId;
use jmst_api::provider::{Connection, DeadLetter, Provider};
use std::sync::Arc;

/// An in-process JMS-semantics broker.
///
/// The reference broker implements the full behaviour the analysis model
/// tests for: queues and topics, durable subscriptions, transacted
/// sessions, the three acknowledgement modes, message priority,
/// time-to-live expiry, persistent/non-persistent delivery, and
/// crash/recovery. Deliberately weakened variants are created through
/// [`BrokerConfig`] switches and serve as the known-faulty providers in
/// fault-detection experiments.
///
/// # Examples
///
/// ```
/// use jmst_broker::ReferenceBroker;
/// use jmst_api::prelude::*;
/// use std::time::Duration;
///
/// let broker = ReferenceBroker::new();
/// let mut connection = broker.create_connection(None)?;
/// connection.start()?;
/// let mut session = connection.create_session(SessionMode::AutoAcknowledge)?;
/// let queue = Destination::queue("orders");
/// let mut producer = session.create_producer(&queue)?;
/// let mut consumer = session.create_consumer(&queue, None)?;
/// producer.send(MessageDraft::text("hello"))?;
/// let received = consumer.receive(Some(Duration::from_secs(1)))?.expect("delivered");
/// assert_eq!(received.body().size_bytes(), 5);
/// # Ok::<(), jmst_api::error::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct ReferenceBroker {
    core: Arc<Core>,
}

impl ReferenceBroker {
    /// Creates a broker with the default (correct) configuration.
    pub fn new() -> Self {
        Self::with_config(BrokerConfig::correct())
    }

    /// Creates a broker with the given configuration.
    pub fn with_config(config: BrokerConfig) -> Self {
        Self {
            core: Core::new(config),
        }
    }

    /// Simulates a crash of the broker process: every open object becomes
    /// unusable, non-durable state is lost, and persistence rules are
    /// applied to queues and durable subscriptions. The broker refuses all
    /// work until [`ReferenceBroker::recover`] is called.
    ///
    /// The paper lists crash injection as the future work needed to fully
    /// test persistent delivery; the harness drives this hook to do so.
    pub fn crash(&self) {
        self.core.crash();
    }

    /// Restarts a crashed broker. Clients must open fresh connections.
    pub fn recover(&self) {
        self.core.recover();
    }

    /// Returns `true` while the broker is crashed.
    pub fn is_crashed(&self) -> bool {
        self.core.is_crashed()
    }

    /// Returns the total number of messages routed to end-points.
    pub fn messages_routed(&self) -> u64 {
        self.core
            .counters()
            .routed
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Returns the number of topic publishes that matched no subscription.
    pub fn messages_unroutable(&self) -> u64 {
        self.core
            .counters()
            .unroutable
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Returns the number of extra copies delivered beyond the first of
    /// each routed message (non-zero only under duplicate fault injection).
    pub fn messages_duplicated(&self) -> u64 {
        self.core
            .counters()
            .duplicated
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Returns the subscription-snapshot generation of a topic: how many
    /// times its membership has been rebuilt. `None` if the broker has
    /// never seen the topic. Diagnostics can correlate a publish with the
    /// membership it saw.
    pub fn topic_generation(&self, topic: &jmst_api::destination::TopicName) -> Option<u64> {
        self.core.topic_generation(topic)
    }

    /// Per-end-point statistics for queues and durable subscriptions.
    pub fn endpoint_stats(&self) -> Vec<(EndpointId, crate::endpoint::EndpointStats)> {
        self.core.endpoint_stats()
    }

    /// Counters of faults injected so far (all zero for a correct broker).
    pub fn fault_counters(&self) -> crate::faults::FaultCounters {
        self.core.fault_counters()
    }

    /// Number of destination shards the core partitions queues and topics
    /// across (see [`BrokerConfig::shards`]).
    pub fn shard_count(&self) -> usize {
        self.core.shard_count()
    }
}

impl Default for ReferenceBroker {
    fn default() -> Self {
        Self::new()
    }
}

impl Provider for ReferenceBroker {
    fn name(&self) -> &str {
        &self.core.config().name
    }

    fn create_connection(&self, client_id: Option<ClientId>) -> Result<Box<dyn Connection>, Error> {
        Ok(Box::new(BrokerConnection::new(
            Arc::clone(&self.core),
            client_id,
        )?))
    }

    fn drain_dead_letters(&self) -> Vec<DeadLetter> {
        self.core.drain_dead_letters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmst_api::prelude::*;
    use jmst_sim::VirtualClock;
    use std::time::Duration;

    const RECEIVE_WAIT: Duration = Duration::from_millis(500);

    fn started_connection(broker: &ReferenceBroker) -> Box<dyn Connection> {
        let mut connection = broker.create_connection(None).unwrap();
        connection.start().unwrap();
        connection
    }

    #[test]
    fn point_to_point_round_trip() {
        let broker = ReferenceBroker::new();
        let mut connection = started_connection(&broker);
        let mut session = connection
            .create_session(SessionMode::AutoAcknowledge)
            .unwrap();
        let queue = Destination::queue("q");
        let mut producer = session.create_producer(&queue).unwrap();
        let mut consumer = session.create_consumer(&queue, None).unwrap();
        let sent = producer.send(MessageDraft::text("one")).unwrap();
        let received = consumer.receive(Some(RECEIVE_WAIT)).unwrap().unwrap();
        assert_eq!(received.id(), sent.id());
        assert_eq!(received.producer(), producer.id());
        assert_eq!(broker.messages_routed(), 1);
    }

    #[test]
    fn queue_messages_wait_for_late_receiver() {
        let broker = ReferenceBroker::new();
        let mut connection = started_connection(&broker);
        let mut session = connection
            .create_session(SessionMode::AutoAcknowledge)
            .unwrap();
        let queue = Destination::queue("q");
        let mut producer = session.create_producer(&queue).unwrap();
        producer.send(MessageDraft::text("early")).unwrap();
        // Receiver appears after the send: the message must be waiting.
        let mut consumer = session.create_consumer(&queue, None).unwrap();
        assert!(consumer.receive(Some(RECEIVE_WAIT)).unwrap().is_some());
    }

    #[test]
    fn pub_sub_fanout_and_no_delivery_without_subscribers() {
        let broker = ReferenceBroker::new();
        let mut connection = started_connection(&broker);
        let mut session = connection
            .create_session(SessionMode::AutoAcknowledge)
            .unwrap();
        let topic = Destination::topic("t");
        let mut producer = session.create_producer(&topic).unwrap();
        // Publish before anyone subscribes: dropped.
        producer.send(MessageDraft::text("lost")).unwrap();
        assert_eq!(broker.messages_unroutable(), 1);
        let mut sub_a = session.create_consumer(&topic, None).unwrap();
        let mut sub_b = session.create_consumer(&topic, None).unwrap();
        let sent = producer.send(MessageDraft::text("seen")).unwrap();
        assert_eq!(
            sub_a.receive(Some(RECEIVE_WAIT)).unwrap().unwrap().id(),
            sent.id()
        );
        assert_eq!(
            sub_b.receive(Some(RECEIVE_WAIT)).unwrap().unwrap().id(),
            sent.id()
        );
    }

    #[test]
    fn non_durable_subscription_ends_at_close() {
        let broker = ReferenceBroker::new();
        let mut connection = started_connection(&broker);
        let mut session = connection
            .create_session(SessionMode::AutoAcknowledge)
            .unwrap();
        let topic = Destination::topic("t");
        let mut producer = session.create_producer(&topic).unwrap();
        let mut subscriber = session.create_consumer(&topic, None).unwrap();
        producer.send(MessageDraft::text("a")).unwrap();
        assert!(subscriber.receive(Some(RECEIVE_WAIT)).unwrap().is_some());
        subscriber.close().unwrap();
        producer.send(MessageDraft::text("b")).unwrap();
        assert_eq!(broker.messages_unroutable(), 1);
    }

    #[test]
    fn durable_subscription_retains_messages_while_inactive() {
        let broker = ReferenceBroker::new();
        let mut connection = broker
            .create_connection(Some(ClientId::new("client")))
            .unwrap();
        connection.start().unwrap();
        let mut session = connection
            .create_session(SessionMode::AutoAcknowledge)
            .unwrap();
        let topic = TopicName::new("t");
        let mut subscriber = session
            .create_durable_subscriber(&topic, "audit", None)
            .unwrap();
        let mut producer = session
            .create_producer(&Destination::Topic(topic.clone()))
            .unwrap();
        let first = producer.send(MessageDraft::text("first")).unwrap();
        assert_eq!(
            subscriber
                .receive(Some(RECEIVE_WAIT))
                .unwrap()
                .unwrap()
                .id(),
            first.id()
        );
        // Close the subscriber; publish while inactive.
        subscriber.close().unwrap();
        let second = producer.send(MessageDraft::text("second")).unwrap();
        // Resume: the retained message arrives.
        let mut resumed = session
            .create_durable_subscriber(&topic, "audit", None)
            .unwrap();
        assert_eq!(
            resumed.receive(Some(RECEIVE_WAIT)).unwrap().unwrap().id(),
            second.id()
        );
        // Unsubscribe requires closing first.
        resumed.close().unwrap();
        session.unsubscribe("audit").unwrap();
    }

    #[test]
    fn durable_subscriber_requires_client_id() {
        let broker = ReferenceBroker::new();
        let mut connection = started_connection(&broker);
        let mut session = connection
            .create_session(SessionMode::AutoAcknowledge)
            .unwrap();
        let err = session
            .create_durable_subscriber(&TopicName::new("t"), "s", None)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, Error::InvalidClient(_)));
    }

    #[test]
    fn transacted_send_invisible_until_commit() {
        let broker = ReferenceBroker::new();
        let mut connection = started_connection(&broker);
        let mut tx_session = connection.create_session(SessionMode::Transacted).unwrap();
        let mut rx_session = connection
            .create_session(SessionMode::AutoAcknowledge)
            .unwrap();
        let queue = Destination::queue("q");
        let mut producer = tx_session.create_producer(&queue).unwrap();
        let mut consumer = rx_session.create_consumer(&queue, None).unwrap();
        producer.send(MessageDraft::text("tx")).unwrap();
        assert_eq!(
            consumer.receive(Some(Duration::from_millis(50))).unwrap(),
            None
        );
        tx_session.commit().unwrap();
        assert!(consumer.receive(Some(RECEIVE_WAIT)).unwrap().is_some());
    }

    #[test]
    fn transacted_rollback_destroys_sends() {
        let broker = ReferenceBroker::new();
        let mut connection = started_connection(&broker);
        let mut tx_session = connection.create_session(SessionMode::Transacted).unwrap();
        let mut rx_session = connection
            .create_session(SessionMode::AutoAcknowledge)
            .unwrap();
        let queue = Destination::queue("q");
        let mut producer = tx_session.create_producer(&queue).unwrap();
        let mut consumer = rx_session.create_consumer(&queue, None).unwrap();
        producer.send(MessageDraft::text("doomed")).unwrap();
        tx_session.rollback().unwrap();
        tx_session.commit().unwrap();
        assert_eq!(
            consumer.receive(Some(Duration::from_millis(50))).unwrap(),
            None
        );
    }

    #[test]
    fn transacted_receive_rollback_redelivers() {
        let broker = ReferenceBroker::new();
        let mut connection = started_connection(&broker);
        let mut send_session = connection
            .create_session(SessionMode::AutoAcknowledge)
            .unwrap();
        let mut rx_session = connection.create_session(SessionMode::Transacted).unwrap();
        let queue = Destination::queue("q");
        let mut producer = send_session.create_producer(&queue).unwrap();
        let mut consumer = rx_session.create_consumer(&queue, None).unwrap();
        let sent = producer.send(MessageDraft::text("retry")).unwrap();
        let first = consumer.receive(Some(RECEIVE_WAIT)).unwrap().unwrap();
        assert!(!first.is_redelivered());
        rx_session.rollback().unwrap();
        let second = consumer.receive(Some(RECEIVE_WAIT)).unwrap().unwrap();
        assert_eq!(second.id(), sent.id());
        assert!(second.is_redelivered());
        rx_session.commit().unwrap();
        assert_eq!(
            consumer.receive(Some(Duration::from_millis(50))).unwrap(),
            None
        );
    }

    #[test]
    fn client_acknowledge_and_recover() {
        let broker = ReferenceBroker::new();
        let mut connection = started_connection(&broker);
        let mut session = connection
            .create_session(SessionMode::ClientAcknowledge)
            .unwrap();
        let queue = Destination::queue("q");
        let mut producer = session.create_producer(&queue).unwrap();
        let mut consumer = session.create_consumer(&queue, None).unwrap();
        let sent = producer.send(MessageDraft::text("ack-me")).unwrap();
        let received = consumer.receive(Some(RECEIVE_WAIT)).unwrap().unwrap();
        assert_eq!(received.id(), sent.id());
        // Recover without acknowledging: redelivered.
        session.recover().unwrap();
        let again = consumer.receive(Some(RECEIVE_WAIT)).unwrap().unwrap();
        assert!(again.is_redelivered());
        consumer.acknowledge().unwrap();
        session.recover().unwrap();
        assert_eq!(
            consumer.receive(Some(Duration::from_millis(50))).unwrap(),
            None
        );
    }

    #[test]
    fn connection_stop_suspends_delivery() {
        let broker = ReferenceBroker::new();
        let mut connection = broker.create_connection(None).unwrap();
        let mut session = connection
            .create_session(SessionMode::AutoAcknowledge)
            .unwrap();
        let queue = Destination::queue("q");
        let mut producer = session.create_producer(&queue).unwrap();
        let mut consumer = session.create_consumer(&queue, None).unwrap();
        producer.send(MessageDraft::text("waiting")).unwrap();
        // Connection never started: no delivery.
        assert_eq!(
            consumer.receive(Some(Duration::from_millis(50))).unwrap(),
            None
        );
        connection.start().unwrap();
        assert!(consumer.receive(Some(RECEIVE_WAIT)).unwrap().is_some());
    }

    #[test]
    fn priority_order_under_backlog() {
        let broker = ReferenceBroker::new();
        let mut connection = started_connection(&broker);
        let mut session = connection
            .create_session(SessionMode::AutoAcknowledge)
            .unwrap();
        let queue = Destination::queue("q");
        let mut producer = session.create_producer(&queue).unwrap();
        for (text, level) in [("low", 1u8), ("high", 8), ("mid", 5)] {
            producer
                .send(MessageDraft::text(text).priority(Priority::new(level).unwrap()))
                .unwrap();
        }
        let mut consumer = session.create_consumer(&queue, None).unwrap();
        let order: Vec<u8> = (0..3)
            .map(|_| {
                consumer
                    .receive(Some(RECEIVE_WAIT))
                    .unwrap()
                    .unwrap()
                    .priority()
                    .level()
            })
            .collect();
        assert_eq!(order, [8, 5, 1]);
    }

    #[test]
    fn expired_message_not_delivered() {
        let clock = Arc::new(VirtualClock::new());
        let broker =
            ReferenceBroker::with_config(BrokerConfig::correct().with_clock(clock.clone()));
        let mut connection = started_connection(&broker);
        let mut session = connection
            .create_session(SessionMode::AutoAcknowledge)
            .unwrap();
        let queue = Destination::queue("q");
        let mut producer = session.create_producer(&queue).unwrap();
        producer
            .send(MessageDraft::text("short-lived").time_to_live(TimeToLive::from_millis(5)))
            .unwrap();
        clock.advance(Duration::from_millis(10));
        let mut consumer = session.create_consumer(&queue, None).unwrap();
        assert_eq!(consumer.receive(Some(Duration::ZERO)).unwrap(), None);
    }

    #[test]
    fn crash_invalidates_connections_and_recover_requires_new_ones() {
        let broker = ReferenceBroker::new();
        let mut connection = started_connection(&broker);
        let mut session = connection
            .create_session(SessionMode::AutoAcknowledge)
            .unwrap();
        let queue = Destination::queue("q");
        let mut producer = session.create_producer(&queue).unwrap();
        producer
            .send(MessageDraft::text("persisted").delivery_mode(DeliveryMode::Persistent))
            .unwrap();
        producer
            .send(MessageDraft::text("volatile").delivery_mode(DeliveryMode::NonPersistent))
            .unwrap();
        broker.crash();
        assert!(producer.send(MessageDraft::text("nope")).is_err());
        assert!(connection
            .create_session(SessionMode::AutoAcknowledge)
            .is_err());
        broker.recover();
        // Old connection still dead.
        assert!(connection
            .create_session(SessionMode::AutoAcknowledge)
            .is_err());
        // New connection sees only the persistent message.
        let mut fresh = started_connection(&broker);
        let mut session = fresh.create_session(SessionMode::AutoAcknowledge).unwrap();
        let mut consumer = session.create_consumer(&queue, None).unwrap();
        let survivor = consumer.receive(Some(RECEIVE_WAIT)).unwrap().unwrap();
        assert_eq!(survivor.body(), &Body::text("persisted"));
        assert_eq!(
            consumer.receive(Some(Duration::from_millis(50))).unwrap(),
            None
        );
    }

    #[test]
    fn queue_selector_leaves_non_matching_for_others() {
        let broker = ReferenceBroker::new();
        let mut connection = started_connection(&broker);
        let mut session = connection
            .create_session(SessionMode::AutoAcknowledge)
            .unwrap();
        let queue = Destination::queue("q");
        let mut producer = session.create_producer(&queue).unwrap();
        producer
            .send(
                MessageDraft::text("red")
                    .property("color", Value::from("red"))
                    .unwrap(),
            )
            .unwrap();
        producer
            .send(
                MessageDraft::text("blue")
                    .property("color", Value::from("blue"))
                    .unwrap(),
            )
            .unwrap();
        let mut blue_consumer = session
            .create_consumer(&queue, Some("color = 'blue'"))
            .unwrap();
        let got = blue_consumer.receive(Some(RECEIVE_WAIT)).unwrap().unwrap();
        assert_eq!(got.body(), &Body::text("blue"));
        // The red message is still there for an unselective consumer.
        let mut any_consumer = session.create_consumer(&queue, None).unwrap();
        let got = any_consumer.receive(Some(RECEIVE_WAIT)).unwrap().unwrap();
        assert_eq!(got.body(), &Body::text("red"));
    }

    fn send_region(producer: &mut Box<dyn Producer>, body: &str, region: &str) {
        producer
            .send(
                MessageDraft::text(body)
                    .property("region", Value::from(region))
                    .unwrap(),
            )
            .unwrap();
    }

    #[test]
    fn queue_selector_skips_without_reordering() {
        let broker = ReferenceBroker::new();
        let mut connection = started_connection(&broker);
        let mut session = connection
            .create_session(SessionMode::AutoAcknowledge)
            .unwrap();
        let queue = Destination::queue("q");
        let mut producer = session.create_producer(&queue).unwrap();
        send_region(&mut producer, "apac1", "apac");
        send_region(&mut producer, "emea1", "emea");
        send_region(&mut producer, "apac2", "apac");
        let mut emea = session
            .create_consumer(&queue, Some("region = 'emea'"))
            .unwrap();
        let mut apac = session
            .create_consumer(&queue, Some("region = 'apac'"))
            .unwrap();
        let got = emea.receive(Some(Duration::ZERO)).unwrap().unwrap();
        assert_eq!(got.body(), &Body::text("emea1"));
        // The apac messages the emea consumer skipped kept their order.
        let first = apac.receive(Some(Duration::ZERO)).unwrap().unwrap();
        let second = apac.receive(Some(Duration::ZERO)).unwrap().unwrap();
        assert_eq!(first.body(), &Body::text("apac1"));
        assert_eq!(second.body(), &Body::text("apac2"));
    }

    #[test]
    fn selector_miss_does_not_fire_the_consumers_own_waker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let broker = ReferenceBroker::new();
        let mut connection = started_connection(&broker);
        let mut session = connection
            .create_session(SessionMode::AutoAcknowledge)
            .unwrap();
        let queue = Destination::queue("q");
        let mut producer = session.create_producer(&queue).unwrap();
        send_region(&mut producer, "apac1", "apac");
        let mut emea = session
            .create_consumer(&queue, Some("region = 'emea'"))
            .unwrap();
        let fired = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&fired);
        assert!(emea.set_waker(Arc::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        })));
        assert_eq!(emea.receive(Some(Duration::ZERO)).unwrap(), None);
        // A waker fired by the consumer's own miss would make a reactor
        // task re-poll it at once, forever.
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        assert_eq!(broker.endpoint_stats()[0].1.pending, 1);
    }

    #[test]
    fn topic_selector_filters_at_subscription() {
        let broker = ReferenceBroker::new();
        let mut connection = started_connection(&broker);
        let mut session = connection
            .create_session(SessionMode::AutoAcknowledge)
            .unwrap();
        let topic = Destination::topic("t");
        let mut producer = session.create_producer(&topic).unwrap();
        let mut priority_sub = session
            .create_consumer(&topic, Some("JMSPriority >= 7"))
            .unwrap();
        producer
            .send(MessageDraft::text("low").priority(Priority::new(2).unwrap()))
            .unwrap();
        producer
            .send(MessageDraft::text("high").priority(Priority::new(9).unwrap()))
            .unwrap();
        let got = priority_sub.receive(Some(RECEIVE_WAIT)).unwrap().unwrap();
        assert_eq!(got.body(), &Body::text("high"));
        assert_eq!(
            priority_sub
                .receive(Some(Duration::from_millis(50)))
                .unwrap(),
            None
        );
    }

    #[test]
    fn invalid_selector_is_rejected_at_creation() {
        let broker = ReferenceBroker::new();
        let mut connection = started_connection(&broker);
        let mut session = connection
            .create_session(SessionMode::AutoAcknowledge)
            .unwrap();
        let err = session
            .create_consumer(&Destination::queue("q"), Some("color ="))
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, Error::InvalidSelector(_)));
    }

    #[test]
    fn closed_objects_refuse_work() {
        let broker = ReferenceBroker::new();
        let mut connection = started_connection(&broker);
        let mut session = connection
            .create_session(SessionMode::AutoAcknowledge)
            .unwrap();
        let queue = Destination::queue("q");
        let mut producer = session.create_producer(&queue).unwrap();
        let mut consumer = session.create_consumer(&queue, None).unwrap();
        session.close().unwrap();
        assert_eq!(
            producer.send(MessageDraft::text("x")).unwrap_err(),
            Error::SessionClosed
        );
        assert!(consumer.receive(Some(Duration::ZERO)).is_err());
        connection.close().unwrap();
        assert_eq!(
            connection
                .create_session(SessionMode::AutoAcknowledge)
                .map(|_| ())
                .unwrap_err(),
            Error::ConnectionClosed
        );
        // Closing twice is a no-op.
        connection.close().unwrap();
        session.close().unwrap();
    }

    #[test]
    fn browse_shows_waiting_messages_without_consuming() {
        let broker = ReferenceBroker::new();
        let mut connection = started_connection(&broker);
        let mut session = connection
            .create_session(SessionMode::AutoAcknowledge)
            .unwrap();
        let queue = Destination::queue("q");
        let mut producer = session.create_producer(&queue).unwrap();
        let first = producer
            .send(MessageDraft::text("a").priority(Priority::new(2).unwrap()))
            .unwrap();
        let second = producer
            .send(MessageDraft::text("b").priority(Priority::new(8).unwrap()))
            .unwrap();
        // Browsing returns both, in delivery (priority) order, twice.
        let queue_name = QueueName::new("q");
        let snapshot = session.browse(&queue_name).unwrap();
        assert_eq!(
            snapshot.iter().map(Message::id).collect::<Vec<_>>(),
            [second.id(), first.id()]
        );
        let again = session.browse(&queue_name).unwrap();
        assert_eq!(again.len(), 2, "browsing must not consume");
        // A consumer still receives everything.
        let mut consumer = session.create_consumer(&queue, None).unwrap();
        assert!(consumer.receive(Some(RECEIVE_WAIT)).unwrap().is_some());
        assert!(consumer.receive(Some(RECEIVE_WAIT)).unwrap().is_some());
        assert!(session.browse(&queue_name).unwrap().is_empty());
    }

    #[test]
    fn browse_hides_expired_and_invisible_messages() {
        let clock = Arc::new(VirtualClock::new());
        let broker = ReferenceBroker::with_config(
            BrokerConfig::correct()
                .with_clock(clock.clone())
                .with_delivery_delay(Duration::from_millis(10)),
        );
        let mut connection = started_connection(&broker);
        let mut session = connection
            .create_session(SessionMode::AutoAcknowledge)
            .unwrap();
        let queue = Destination::queue("q");
        let mut producer = session.create_producer(&queue).unwrap();
        producer
            .send(MessageDraft::text("expiring").time_to_live(TimeToLive::from_millis(5)))
            .unwrap();
        producer.send(MessageDraft::text("lasting")).unwrap();
        let queue_name = QueueName::new("q");
        // Still in transit (delivery delay): nothing visible.
        assert!(session.browse(&queue_name).unwrap().is_empty());
        clock.advance(Duration::from_millis(10));
        // Both visible, the 5 ms TTL already expired in transit.
        let snapshot = session.browse(&queue_name).unwrap();
        assert_eq!(snapshot.len(), 1);
        assert_eq!(snapshot[0].body(), &Body::text("lasting"));
    }

    #[test]
    fn commit_on_non_transacted_session_is_illegal() {
        let broker = ReferenceBroker::new();
        let mut connection = started_connection(&broker);
        let mut session = connection
            .create_session(SessionMode::AutoAcknowledge)
            .unwrap();
        assert!(matches!(session.commit(), Err(Error::IllegalState(_))));
        assert!(matches!(session.rollback(), Err(Error::IllegalState(_))));
        let mut tx = connection.create_session(SessionMode::Transacted).unwrap();
        assert!(matches!(tx.recover(), Err(Error::IllegalState(_))));
    }

    #[test]
    fn bounded_redelivery_parks_poison_on_dlq() {
        let broker = ReferenceBroker::with_config(BrokerConfig::correct().with_max_redeliveries(1));
        let mut connection = started_connection(&broker);
        let mut session = connection
            .create_session(SessionMode::ClientAcknowledge)
            .unwrap();
        let queue = Destination::queue("orders");
        let mut producer = session.create_producer(&queue).unwrap();
        let mut consumer = session.create_consumer(&queue, None).unwrap();
        let sent = producer.send(MessageDraft::text("poison")).unwrap();
        // Delivery 1, recover → redelivery 1 (within the bound of 1).
        consumer.receive(Some(RECEIVE_WAIT)).unwrap().unwrap();
        session.recover().unwrap();
        let second = consumer.receive(Some(RECEIVE_WAIT)).unwrap().unwrap();
        assert!(second.is_redelivered());
        assert_eq!(second.delivery_count(), 2);
        // Recover again → redelivery 2 exceeds the bound: parked on the DLQ.
        session.recover().unwrap();
        assert_eq!(
            consumer.receive(Some(Duration::from_millis(50))).unwrap(),
            None
        );
        let notices = broker.drain_dead_letters();
        assert_eq!(notices.len(), 1);
        assert_eq!(notices[0].message.id(), sent.id());
        assert_eq!(notices[0].parked_on.as_str(), "DLQ.orders");
        // Reported exactly once.
        assert!(broker.drain_dead_letters().is_empty());
        // The poison message is browsable on the DLQ.
        let dlq = QueueName::new("DLQ.orders");
        let parked = session.browse(&dlq).unwrap();
        assert_eq!(parked.len(), 1);
        assert_eq!(parked[0].id(), sent.id());
    }

    #[test]
    fn injected_connect_failures_are_deterministic_and_typed() {
        let config = BrokerConfig::correct()
            .with_faults(crate::faults::FaultSpec::none().failing_connects(1.0));
        let broker = ReferenceBroker::with_config(config);
        let err = broker.create_connection(None).map(|_| ()).unwrap_err();
        assert!(matches!(err, Error::ProviderFailure(_)), "{err:?}");
        assert_eq!(broker.fault_counters().connects_refused, 1);
    }

    #[test]
    fn injected_send_errors_do_not_lose_routed_messages() {
        let config = BrokerConfig::correct()
            .with_faults(crate::faults::FaultSpec::none().failing_sends(0.5));
        let broker = ReferenceBroker::with_config(config);
        let mut connection = started_connection(&broker);
        let mut session = connection
            .create_session(SessionMode::AutoAcknowledge)
            .unwrap();
        let queue = Destination::queue("q");
        let mut producer = session.create_producer(&queue).unwrap();
        let mut consumer = session.create_consumer(&queue, None).unwrap();
        let mut accepted = Vec::new();
        for i in 0..40 {
            match producer.send(MessageDraft::text(format!("{i}"))) {
                Ok(message) => accepted.push(message.id()),
                Err(Error::ProviderFailure(reason)) => {
                    assert!(reason.contains("injected"), "{reason}");
                }
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
        assert!(!accepted.is_empty(), "p=0.5 cannot refuse all 40 sends");
        assert!(accepted.len() < 40, "p=0.5 cannot accept all 40 sends");
        // Every accepted send is delivered exactly once; refused sends
        // never surface anywhere.
        let mut received = Vec::new();
        while let Some(m) = consumer.receive(Some(Duration::from_millis(50))).unwrap() {
            received.push(m.id());
        }
        assert_eq!(received, accepted);
        assert_eq!(
            broker.fault_counters().sends_errored as usize,
            40 - accepted.len()
        );
    }

    #[test]
    fn lost_acks_cause_redelivery_after_recover() {
        let config =
            BrokerConfig::correct().with_faults(crate::faults::FaultSpec::none().losing_acks(1.0));
        let broker = ReferenceBroker::with_config(config);
        let mut connection = started_connection(&broker);
        let mut session = connection
            .create_session(SessionMode::ClientAcknowledge)
            .unwrap();
        let queue = Destination::queue("q");
        let mut producer = session.create_producer(&queue).unwrap();
        let mut consumer = session.create_consumer(&queue, None).unwrap();
        let sent = producer.send(MessageDraft::text("ghost-ack")).unwrap();
        consumer.receive(Some(RECEIVE_WAIT)).unwrap().unwrap();
        // The ack "succeeds" from the client's view but is swallowed.
        consumer.acknowledge().unwrap();
        assert_eq!(broker.fault_counters().acks_lost, 1);
        session.recover().unwrap();
        let again = consumer.receive(Some(RECEIVE_WAIT)).unwrap().unwrap();
        assert_eq!(again.id(), sent.id());
        assert!(again.is_redelivered());
    }

    #[test]
    fn duplicate_client_id_rejected() {
        let broker = ReferenceBroker::new();
        let _first = broker.create_connection(Some(ClientId::new("c"))).unwrap();
        assert!(broker.create_connection(Some(ClientId::new("c"))).is_err());
    }

    #[test]
    fn fifo_order_preserved_per_producer() {
        let broker = ReferenceBroker::new();
        let mut connection = started_connection(&broker);
        let mut session = connection
            .create_session(SessionMode::AutoAcknowledge)
            .unwrap();
        let queue = Destination::queue("q");
        let mut producer = session.create_producer(&queue).unwrap();
        let mut consumer = session.create_consumer(&queue, None).unwrap();
        let sent: Vec<MessageId> = (0..50)
            .map(|i| {
                producer
                    .send(MessageDraft::text(format!("{i}")))
                    .unwrap()
                    .id()
            })
            .collect();
        let received: Vec<MessageId> = (0..50)
            .map(|_| consumer.receive(Some(RECEIVE_WAIT)).unwrap().unwrap().id())
            .collect();
        assert_eq!(sent, received);
    }

    #[test]
    fn batched_send_round_trip_across_shards() {
        let broker = ReferenceBroker::with_config(BrokerConfig::correct().with_shards(8));
        assert_eq!(broker.shard_count(), 8);
        let mut connection = started_connection(&broker);
        let mut session = connection
            .create_session(SessionMode::AutoAcknowledge)
            .unwrap();
        let queue = Destination::queue("q");
        let mut producer = session.create_producer(&queue).unwrap();
        let mut consumer = session.create_consumer(&queue, None).unwrap();
        let drafts = (0..10)
            .map(|i| MessageDraft::text(format!("{i}")))
            .collect::<Vec<_>>();
        let sent = producer.send_batch(drafts).unwrap();
        assert_eq!(sent.len(), 10);
        // Sequence numbers are assigned in draft order.
        let sequences: Vec<u64> = sent.iter().map(Message::sequence).collect();
        assert_eq!(sequences, (0..10).collect::<Vec<u64>>());
        let received: Vec<MessageId> = (0..10)
            .map(|_| consumer.receive(Some(RECEIVE_WAIT)).unwrap().unwrap().id())
            .collect();
        assert_eq!(
            received,
            sent.iter().map(Message::id).collect::<Vec<_>>(),
            "batched sends are delivered in order"
        );
        assert_eq!(broker.messages_routed(), 10);
    }

    #[test]
    fn transacted_batch_invisible_until_commit() {
        let broker = ReferenceBroker::with_config(BrokerConfig::correct().with_shards(4));
        let mut connection = started_connection(&broker);
        let mut tx_session = connection.create_session(SessionMode::Transacted).unwrap();
        let mut rx_session = connection
            .create_session(SessionMode::AutoAcknowledge)
            .unwrap();
        let queue = Destination::queue("q");
        let mut producer = tx_session.create_producer(&queue).unwrap();
        let mut consumer = rx_session.create_consumer(&queue, None).unwrap();
        producer
            .send_batch(vec![MessageDraft::text("a"), MessageDraft::text("b")])
            .unwrap();
        assert_eq!(
            consumer.receive(Some(Duration::from_millis(50))).unwrap(),
            None
        );
        tx_session.commit().unwrap();
        assert!(consumer.receive(Some(RECEIVE_WAIT)).unwrap().is_some());
        assert!(consumer.receive(Some(RECEIVE_WAIT)).unwrap().is_some());
    }

    #[test]
    fn competing_queue_receivers_partition_messages() {
        let broker = ReferenceBroker::new();
        let mut connection = started_connection(&broker);
        let mut session = connection
            .create_session(SessionMode::AutoAcknowledge)
            .unwrap();
        let queue = Destination::queue("q");
        let mut producer = session.create_producer(&queue).unwrap();
        let mut a = session.create_consumer(&queue, None).unwrap();
        let mut b = session.create_consumer(&queue, None).unwrap();
        let mut sent = std::collections::HashSet::new();
        for i in 0..20 {
            sent.insert(
                producer
                    .send(MessageDraft::text(format!("{i}")))
                    .unwrap()
                    .id(),
            );
        }
        let mut received = std::collections::HashSet::new();
        loop {
            let got_a = a.receive(Some(Duration::from_millis(20))).unwrap();
            let got_b = b.receive(Some(Duration::from_millis(20))).unwrap();
            match (got_a, got_b) {
                (None, None) => break,
                (x, y) => {
                    for m in [x, y].into_iter().flatten() {
                        assert!(received.insert(m.id()), "duplicate delivery");
                    }
                }
            }
        }
        assert_eq!(sent, received);
    }

    #[test]
    fn destroy_wakes_and_errors() {
        let broker = ReferenceBroker::new();
        let mut connection = started_connection(&broker);
        let mut session = connection
            .create_session(SessionMode::AutoAcknowledge)
            .unwrap();
        let mut consumer = session
            .create_consumer(&Destination::topic("t"), None)
            .unwrap();
        let id = consumer.id();
        let handle = std::thread::spawn(move || consumer.receive(None));
        std::thread::sleep(Duration::from_millis(20));
        // Destroying the subscription's end-point under the blocked
        // receiver wakes it, and the retry observes the closed end-point.
        broker
            .core
            .drop_non_durable(&jmst_api::destination::TopicName::new("t"), id);
        let result = handle.join().unwrap();
        assert_eq!(result.unwrap_err(), Error::EndpointClosed);
    }

    #[test]
    fn blocking_receive_wakes_on_insert() {
        let broker = ReferenceBroker::new();
        let mut connection = started_connection(&broker);
        let mut session = connection
            .create_session(SessionMode::AutoAcknowledge)
            .unwrap();
        let queue = Destination::queue("q");
        let mut consumer = session.create_consumer(&queue, None).unwrap();
        let mut producer = session.create_producer(&queue).unwrap();
        let handle = std::thread::spawn(move || consumer.receive(None));
        std::thread::sleep(Duration::from_millis(10));
        let sent = producer.send(MessageDraft::text("late")).unwrap();
        let got = handle.join().unwrap().unwrap().unwrap();
        assert_eq!(got.id(), sent.id());
    }

    #[test]
    fn blocked_receiver_wakes_at_visibility_edge() {
        let broker = ReferenceBroker::with_config(
            BrokerConfig::correct().with_delivery_delay(Duration::from_millis(30)),
        );
        let mut connection = started_connection(&broker);
        let mut session = connection
            .create_session(SessionMode::AutoAcknowledge)
            .unwrap();
        let queue = Destination::queue("q");
        let mut producer = session.create_producer(&queue).unwrap();
        let mut consumer = session.create_consumer(&queue, None).unwrap();
        producer.send(MessageDraft::text("deferred")).unwrap();
        let started = std::time::Instant::now();
        let got = consumer.receive(Some(Duration::from_secs(5))).unwrap();
        assert!(got.is_some(), "visibility edge must wake the receiver");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "receiver should wake at the edge, not at the timeout"
        );
    }

    #[test]
    fn zero_timeout_poll_registers_no_waker() {
        let broker = ReferenceBroker::new();
        let mut connection = started_connection(&broker);
        let mut session = connection
            .create_session(SessionMode::AutoAcknowledge)
            .unwrap();
        let queue = Destination::queue("q");
        let mut consumer = session.create_consumer(&queue, None).unwrap();
        let endpoint = broker
            .core
            .queue_endpoint(&jmst_api::destination::QueueName::new("q"));
        assert_eq!(consumer.receive(Some(Duration::ZERO)).unwrap(), None);
        assert_eq!(endpoint.waker_count(), 0, "a poll must not register");
        // The first receive that sleeps registers once; later ones reuse it.
        for _ in 0..2 {
            assert_eq!(
                consumer.receive(Some(Duration::from_millis(5))).unwrap(),
                None
            );
            assert_eq!(endpoint.waker_count(), 1);
        }
        // Closing the consumer unregisters its waker from the shared queue.
        consumer.close().unwrap();
        assert_eq!(endpoint.waker_count(), 0);
    }

    #[test]
    fn duplicate_that_does_not_fit_a_full_queue_is_not_taken() {
        let broker = ReferenceBroker::with_config(
            BrokerConfig::correct()
                .with_queue_bound(1)
                .with_faults(crate::FaultSpec::none().duplicating(1.0)),
        );
        let mut connection = started_connection(&broker);
        let mut session = connection
            .create_session(SessionMode::AutoAcknowledge)
            .unwrap();
        let queue = Destination::queue("q");
        let mut producer = session.create_producer(&queue).unwrap();
        // One free slot: the publish takes it, the duplicate does not fit.
        producer.send(MessageDraft::text("once")).unwrap();
        let pending: usize = broker
            .endpoint_stats()
            .iter()
            .map(|(_, stats)| stats.pending)
            .sum();
        assert_eq!(pending, 1);
        assert_eq!(broker.messages_routed(), 1);
        assert_eq!(broker.messages_duplicated(), 0);
    }
}
