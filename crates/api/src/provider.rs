//! The provider interface: the Rust rendering of the JMS object model that
//! every broker in this repository implements and the test harness drives.
//!
//! A typical client mirrors the JMS flow the paper sketches in §2.1:
//! obtain a [`Provider`] (the stand-in for the JNDI-loaded
//! `ConnectionFactory`), create a [`Connection`], create [`Session`]s, and
//! use sessions to create [`Producer`]s and [`Consumer`]s for queues and
//! topics.
//!
//! All traits are object-safe: the harness holds `Box<dyn Session>` etc. so
//! that any provider — the reference broker, a fault-injecting wrapper, or
//! a queueing-model simulator — can be tested through the same code path
//! (black-box testing, as in the paper).

use crate::destination::{Destination, QueueName, TopicName};
use crate::error::Error;
use crate::id::{ClientId, ConnectionId, ConsumerId, ProducerId, SessionId};
use crate::message::{Message, MessageDraft};
use crate::modes::SessionMode;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// A poison message a provider parked on a dead-letter queue after it
/// exceeded the redelivery bound.
///
/// The harness drains these at the end of a run and records them in the
/// trace, so the analyzer can tell a deliberately parked message apart
/// from a lost one.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadLetter {
    /// The parked message; [`Message::delivery_count`] carries the number
    /// of delivery attempts it burned through before being parked.
    pub message: Message,
    /// The dead-letter queue the message was parked on.
    pub parked_on: QueueName,
}

/// A JMS provider: the entry point that creates connections.
///
/// Providers must be shareable across threads — the harness hands one
/// provider to many test drivers on a worker pool, as the paper's harness
/// points many JVMs at one JMS server.
pub trait Provider: Send + Sync + fmt::Debug {
    /// A short human-readable name for reports ("reference", "provider-I").
    fn name(&self) -> &str;

    /// Creates a connection.
    ///
    /// `client_id` identifies the client for durable subscriptions; pass
    /// `None` for anonymous clients that use only queues and non-durable
    /// subscriptions.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidClient`] if the client id is already in use
    /// by an open connection, or [`Error::ProviderFailure`] if the provider
    /// is down.
    fn create_connection(&self, client_id: Option<ClientId>) -> Result<Box<dyn Connection>, Error>;

    /// Drains the dead-letter notices accumulated since the last call.
    ///
    /// Providers that enforce a redelivery bound report each poison
    /// message they park, exactly once. The default implementation (for
    /// providers without dead-lettering) returns nothing.
    fn drain_dead_letters(&self) -> Vec<DeadLetter> {
        Vec::new()
    }
}

/// An open connection to a provider.
///
/// Like a JMS connection, delivery to the connection's consumers only
/// happens while the connection is started.
pub trait Connection: Send {
    /// Returns the connection's identifier.
    fn id(&self) -> ConnectionId;

    /// Returns the client id the connection was created with.
    fn client_id(&self) -> Option<&ClientId>;

    /// Creates a session in the given mode.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ConnectionClosed`] if the connection is closed.
    fn create_session(&mut self, mode: SessionMode) -> Result<Box<dyn Session>, Error>;

    /// Starts (or restarts) message delivery to this connection's
    /// consumers.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ConnectionClosed`] if the connection is closed.
    fn start(&mut self) -> Result<(), Error>;

    /// Pauses message delivery to this connection's consumers. Sends are
    /// unaffected.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ConnectionClosed`] if the connection is closed.
    fn stop(&mut self) -> Result<(), Error>;

    /// Closes the connection and everything created from it. Closing an
    /// already-closed connection is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ProviderFailure`] only if the provider failed while
    /// releasing resources.
    fn close(&mut self) -> Result<(), Error>;
}

/// A session: the single-threaded context for producing and consuming.
///
/// A transacted session groups its sends and receives into transactions
/// terminated by [`Session::commit`] or [`Session::rollback`]; "if the
/// session commits then all received messages are acknowledged and all
/// outgoing messages are sent. If the session aborts, all messages received
/// are recovered while all outgoing messages are destroyed" (paper §2.1).
pub trait Session: Send {
    /// Returns the session's identifier.
    fn id(&self) -> SessionId;

    /// Returns the session mode it was created with.
    fn mode(&self) -> SessionMode;

    /// Creates a producer for `destination`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SessionClosed`] if the session is closed, or
    /// [`Error::InvalidDestination`] if the destination cannot be created.
    fn create_producer(&mut self, destination: &Destination) -> Result<Box<dyn Producer>, Error>;

    /// Creates a consumer for `destination`, optionally filtered by a
    /// message selector.
    ///
    /// For a topic destination this creates a non-durable subscription
    /// that lives exactly as long as the consumer (paper footnote 3).
    ///
    /// # Errors
    ///
    /// Returns [`Error::SessionClosed`] if the session is closed,
    /// [`Error::InvalidSelector`] if `selector` does not parse, or
    /// [`Error::InvalidDestination`] if the destination cannot be created.
    fn create_consumer(
        &mut self,
        destination: &Destination,
        selector: Option<&str>,
    ) -> Result<Box<dyn Consumer>, Error>;

    /// Creates (or resumes) a durable subscription named `name` on `topic`.
    ///
    /// Messages published while the subscription has no active consumer are
    /// retained and delivered when a consumer resumes it (paper §2.1).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidClient`] if the connection has no client id
    /// or the subscription is already active, [`Error::InvalidSelector`] if
    /// `selector` does not parse, or [`Error::SessionClosed`].
    fn create_durable_subscriber(
        &mut self,
        topic: &TopicName,
        name: &str,
        selector: Option<&str>,
    ) -> Result<Box<dyn Consumer>, Error>;

    /// Browses a queue: returns a snapshot of the messages currently
    /// waiting, in delivery order, without consuming them (the JMS
    /// `QueueBrowser`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::SessionClosed`] if the session is closed, or
    /// [`Error::InvalidDestination`] if the queue cannot be created.
    fn browse(&mut self, queue: &QueueName) -> Result<Vec<Message>, Error>;

    /// Deletes the durable subscription named `name`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidClient`] if the subscription does not exist
    /// or still has an active consumer, or [`Error::SessionClosed`].
    fn unsubscribe(&mut self, name: &str) -> Result<(), Error>;

    /// Commits the current transaction: sends buffered messages and
    /// acknowledges received ones.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IllegalState`] on a non-transacted session,
    /// [`Error::TransactionRolledBack`] if the provider had to roll the
    /// transaction back, or [`Error::SessionClosed`].
    fn commit(&mut self) -> Result<(), Error>;

    /// Rolls back the current transaction: destroys buffered sends and
    /// recovers received messages for redelivery.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IllegalState`] on a non-transacted session, or
    /// [`Error::SessionClosed`].
    fn rollback(&mut self) -> Result<(), Error>;

    /// Stops and restarts delivery on a non-transacted session, causing
    /// unacknowledged messages to be redelivered (marked as such).
    ///
    /// # Errors
    ///
    /// Returns [`Error::IllegalState`] on a transacted session, or
    /// [`Error::SessionClosed`].
    fn recover(&mut self) -> Result<(), Error>;

    /// Closes the session and everything created from it. On a transacted
    /// session, an open transaction is rolled back. Closing twice is a
    /// no-op.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ProviderFailure`] only if the provider failed while
    /// releasing resources.
    fn close(&mut self) -> Result<(), Error>;
}

/// A message producer bound to one destination.
pub trait Producer: Send {
    /// Returns the producer's identifier.
    fn id(&self) -> ProducerId;

    /// Returns the destination this producer sends to.
    fn destination(&self) -> &Destination;

    /// Sends a message, returning the stamped message as the provider
    /// accepted it (with id, sequence number, and timestamp filled in).
    ///
    /// On a transacted session the message is buffered until commit — per
    /// Definition 1 of the paper, it does not count as *sent* unless the
    /// transaction later commits — but a stamped copy is still returned so
    /// the harness can log the attempt.
    ///
    /// This call may block when the provider applies flow control
    /// (bounded queues); that blocking is exactly the producer-throttling
    /// behaviour Figure 2 of the paper shows.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EndpointClosed`] / [`Error::SessionClosed`] /
    /// [`Error::ConnectionClosed`] if the object chain is closed,
    /// [`Error::ResourceExhausted`] if the provider refused the message,
    /// or [`Error::ProviderFailure`] if the provider failed.
    fn send(&mut self, draft: MessageDraft) -> Result<Message, Error>;

    /// Sends a batch of messages, returning the stamped messages in order.
    ///
    /// The default implementation just calls [`Producer::send`] per draft;
    /// providers may override it to amortise per-send costs (lock
    /// acquisition, wakeup signalling) across the batch. The observable
    /// semantics must be identical to sending the drafts one by one: on the
    /// first failure the error is returned and the remaining drafts are not
    /// sent, though earlier drafts may already have been.
    ///
    /// # Errors
    ///
    /// As for [`Producer::send`].
    fn send_batch(&mut self, drafts: Vec<MessageDraft>) -> Result<Vec<Message>, Error> {
        drafts.into_iter().map(|draft| self.send(draft)).collect()
    }

    /// Closes the producer. Closing twice is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ProviderFailure`] only if the provider failed while
    /// releasing resources.
    fn close(&mut self) -> Result<(), Error>;
}

/// A message consumer bound to one destination (or durable subscription).
pub trait Consumer: Send {
    /// Returns the consumer's identifier.
    fn id(&self) -> ConsumerId;

    /// Returns the destination this consumer receives from.
    fn destination(&self) -> &Destination;

    /// Returns the message selector, if any.
    fn selector(&self) -> Option<&str>;

    /// Receives the next message, waiting up to `timeout`.
    ///
    /// Returns `Ok(None)` if no message arrived within the timeout, if the
    /// connection is stopped, or with `timeout == Some(Duration::ZERO)` if
    /// no message is immediately available (the JMS `receiveNoWait`).
    /// Passing `None` waits without bound.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EndpointClosed`] if the consumer was closed
    /// (including concurrently, while blocked in this call).
    fn receive(&mut self, timeout: Option<Duration>) -> Result<Option<Message>, Error>;

    /// Receives up to `max` immediately available messages without
    /// blocking (a batched `receiveNoWait`).
    ///
    /// The default implementation polls [`Consumer::receive`] with a zero
    /// timeout until it returns `None` or `max` messages are drained;
    /// providers may override it to take their delivery lock once per
    /// batch. An empty vector means nothing was immediately available.
    /// Open-loop load drivers use this so a worker multiplexing thousands
    /// of virtual clients never parks inside one client's receive call.
    ///
    /// # Errors
    ///
    /// As for [`Consumer::receive`].
    fn try_receive_batch(&mut self, max: usize) -> Result<Vec<Message>, Error> {
        let mut batch = Vec::new();
        while batch.len() < max {
            match self.receive(Some(Duration::ZERO))? {
                Some(message) => batch.push(message),
                None => break,
            }
        }
        Ok(batch)
    }

    /// Registers a wakeup callback invoked (from an arbitrary thread,
    /// possibly while provider locks are *not* held) whenever a message
    /// may have become available on this consumer's endpoint — after
    /// inserts, recovery, crash, or destruction. Spurious wakeups are
    /// allowed; the callback must be cheap and non-blocking.
    ///
    /// Returns `false` when the provider does not support readiness
    /// callbacks (the default); callers must then fall back to polling
    /// [`Consumer::try_receive_batch`].
    fn set_waker(&mut self, waker: Arc<dyn Fn() + Send + Sync>) -> bool {
        let _ = waker;
        false
    }

    /// Acknowledges all messages received on this consumer's session so
    /// far. Meaningful in [`SessionMode::ClientAcknowledge`]; a no-op in
    /// the automatic modes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IllegalState`] on a transacted session, or
    /// [`Error::EndpointClosed`].
    fn acknowledge(&mut self) -> Result<(), Error>;

    /// Closes the consumer. For a non-durable subscription this ends the
    /// subscription; for queues and durable subscriptions the end-point
    /// lives on. Closing twice is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ProviderFailure`] only if the provider failed while
    /// releasing resources.
    fn close(&mut self) -> Result<(), Error>;
}

#[cfg(test)]
mod tests {
    use super::*;

    // The traits are exercised by every provider implementation; here we
    // only pin down object-safety and the auto-trait bounds the harness
    // relies on.

    fn assert_object_safe(_: &dyn Provider) {}

    #[derive(Debug)]
    struct NullProvider;

    impl Provider for NullProvider {
        fn name(&self) -> &str {
            "null"
        }

        fn create_connection(
            &self,
            _client_id: Option<ClientId>,
        ) -> Result<Box<dyn Connection>, Error> {
            Err(Error::Unsupported("null provider".into()))
        }
    }

    #[test]
    fn provider_trait_is_object_safe() {
        let provider = NullProvider;
        assert_object_safe(&provider);
        assert_eq!(provider.name(), "null");
        assert!(provider.create_connection(None).is_err());
    }

    #[test]
    fn boxed_traits_are_send() {
        fn assert_send<T: Send + ?Sized>() {}
        assert_send::<dyn Connection>();
        assert_send::<dyn Session>();
        assert_send::<dyn Producer>();
        assert_send::<dyn Consumer>();
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn Provider>();
    }
}
