//! Sessions, producers and consumers of the reference broker.

use crate::connection::ConnState;
use crate::core::Core;
use crate::endpoint::{Endpoint, TrackMode};
use jmst_api::destination::{Destination, TopicName};
use jmst_api::error::Error;
use jmst_api::id::{ClientId, ConsumerId, MessageId, ProducerId, SessionId};
use jmst_api::message::{Message, MessageDraft, Stamp};
use jmst_api::modes::SessionMode;
use jmst_api::provider::{Consumer, Producer, Session};
use jmst_api::selector::Selector;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug, Default)]
struct TxState {
    closed: bool,
    /// Stamped messages awaiting commit (transacted sessions).
    pending_sends: Vec<Arc<Message>>,
    /// Per-message in-flight receives of the open transaction.
    tx_receives: Vec<(Arc<Endpoint>, MessageId)>,
    /// End-points this session has unacknowledged deliveries on
    /// (client-acknowledge and dups-ok sessions).
    touched: Vec<Arc<Endpoint>>,
    /// Unacknowledged count for lazy (dups-ok) acknowledgement.
    dups_ok_unacked: u32,
}

/// Shared state of one session, held by the session object and by every
/// producer/consumer created from it.
#[derive(Debug)]
pub(crate) struct SessionShared {
    pub(crate) id: SessionId,
    pub(crate) mode: SessionMode,
    pub(crate) core: Arc<Core>,
    pub(crate) conn: Arc<ConnState>,
    state: Mutex<TxState>,
}

impl SessionShared {
    pub(crate) fn new(core: Arc<Core>, conn: Arc<ConnState>, mode: SessionMode) -> Arc<Self> {
        Arc::new(Self {
            id: core.ids().next_session_id(),
            mode,
            core,
            conn,
            state: Mutex::new(TxState::default()),
        })
    }

    /// Checks the whole object chain is usable.
    fn check_open(&self) -> Result<(), Error> {
        self.core.check_alive(self.conn.generation)?;
        if self.conn.closed.load(Ordering::SeqCst) {
            return Err(Error::ConnectionClosed);
        }
        if self.state.lock().closed {
            return Err(Error::SessionClosed);
        }
        Ok(())
    }

    fn track_mode(&self) -> TrackMode {
        match self.mode {
            SessionMode::AutoAcknowledge => TrackMode::Immediate,
            SessionMode::Transacted
            | SessionMode::ClientAcknowledge
            | SessionMode::DupsOkAcknowledge => TrackMode::InFlight,
        }
    }

    /// Registers a delivery for later acknowledgement and applies the
    /// lazy-acknowledge policy of dups-ok sessions.
    fn record_delivery(&self, endpoint: &Arc<Endpoint>, message: &Message) {
        let mut state = self.state.lock();
        match self.mode {
            SessionMode::AutoAcknowledge => {}
            SessionMode::Transacted => {
                state.tx_receives.push((Arc::clone(endpoint), message.id()));
            }
            SessionMode::ClientAcknowledge => {
                if !state.touched.iter().any(|e| Arc::ptr_eq(e, endpoint)) {
                    state.touched.push(Arc::clone(endpoint));
                }
            }
            SessionMode::DupsOkAcknowledge => {
                if !state.touched.iter().any(|e| Arc::ptr_eq(e, endpoint)) {
                    state.touched.push(Arc::clone(endpoint));
                }
                state.dups_ok_unacked += 1;
                if state.dups_ok_unacked >= self.core.config().dups_ok_batch {
                    for endpoint in state.touched.drain(..) {
                        endpoint.ack_session(self.id);
                    }
                    state.dups_ok_unacked = 0;
                }
            }
        }
    }

    fn acknowledge_all(&self) {
        // Ack-loss fault: the client believes the acknowledge succeeded,
        // but the broker keeps the deliveries in flight — they come back
        // as redeliveries on recover/close/crash.
        if self.core.ack_lost() {
            return;
        }
        let mut state = self.state.lock();
        for endpoint in state.touched.drain(..) {
            endpoint.ack_session(self.id);
        }
        state.dups_ok_unacked = 0;
    }

    fn recover_unacked(&self) {
        let now = self.core.now();
        let bound = self.core.max_redeliveries();
        let mut state = self.state.lock();
        let mut poisoned = Vec::new();
        for endpoint in state.touched.drain(..) {
            poisoned.extend(endpoint.recover_session(self.id, now, bound));
        }
        state.dups_ok_unacked = 0;
        drop(state);
        self.core.dead_letter(poisoned);
    }

    fn rollback_tx(&self) {
        let now = self.core.now();
        let bound = self.core.max_redeliveries();
        let mut state = self.state.lock();
        state.pending_sends.clear();
        let mut endpoints: Vec<Arc<Endpoint>> = Vec::new();
        for (endpoint, _) in state.tx_receives.drain(..) {
            if !endpoints.iter().any(|e| Arc::ptr_eq(e, &endpoint)) {
                endpoints.push(endpoint);
            }
        }
        drop(state);
        let mut poisoned = Vec::new();
        for endpoint in endpoints {
            poisoned.extend(endpoint.recover_session(self.id, now, bound));
        }
        self.core.dead_letter(poisoned);
    }
}

/// A session of the reference broker.
#[derive(Debug)]
pub struct BrokerSession {
    shared: Arc<SessionShared>,
}

impl BrokerSession {
    pub(crate) fn new(shared: Arc<SessionShared>) -> Self {
        Self { shared }
    }
}

impl Session for BrokerSession {
    fn id(&self) -> SessionId {
        self.shared.id
    }

    fn mode(&self) -> SessionMode {
        self.shared.mode
    }

    fn create_producer(&mut self, destination: &Destination) -> Result<Box<dyn Producer>, Error> {
        self.shared.check_open()?;
        Ok(Box::new(BrokerProducer {
            id: self.shared.core.ids().next_producer_id(),
            destination: destination.clone(),
            sequence: AtomicU64::new(0),
            session: Arc::clone(&self.shared),
            closed: AtomicBool::new(false),
        }))
    }

    fn create_consumer(
        &mut self,
        destination: &Destination,
        selector: Option<&str>,
    ) -> Result<Box<dyn Consumer>, Error> {
        self.shared.check_open()?;
        let parsed = selector.map(Selector::parse).transpose()?;
        let id = self.shared.core.ids().next_consumer_id();
        let (endpoint, kind, queue_selector) = match destination {
            Destination::Queue(queue) => {
                // Queue consumers share the queue end-point, so a queue
                // selector cannot filter at routing time. It filters in
                // place at receive time instead: the end-point skips the
                // entries it rejects under its lock, and they keep their
                // position for other consumers (JMS: a selective queue
                // receiver leaves non-matching messages for others).
                // Static analysis runs here: ill-typed selectors are
                // rejected at creation (the InvalidSelectorException
                // analog), and provably-true ones skip per-receive
                // evaluation entirely.
                let queue_selector = match &parsed {
                    None => None,
                    Some(selector) => {
                        let analysis = selector.analyze();
                        if let Some(error) = analysis.error {
                            return Err(error.into());
                        }
                        if analysis.classification == jmst_api::selector::Classification::AlwaysTrue
                        {
                            None
                        } else {
                            parsed.clone()
                        }
                    }
                };
                (
                    self.shared.core.queue_endpoint(queue),
                    ConsumerKind::Queue,
                    queue_selector,
                )
            }
            Destination::Topic(topic) => (
                self.shared.core.subscribe_non_durable(topic, id, parsed)?,
                ConsumerKind::NonDurable {
                    topic: topic.clone(),
                },
                None,
            ),
        };
        Ok(Box::new(BrokerConsumer {
            id,
            destination: destination.clone(),
            selector_text: selector.map(str::to_owned),
            queue_selector,
            endpoint,
            kind,
            session: Arc::clone(&self.shared),
            closed: AtomicBool::new(false),
        }))
    }

    fn create_durable_subscriber(
        &mut self,
        topic: &TopicName,
        name: &str,
        selector: Option<&str>,
    ) -> Result<Box<dyn Consumer>, Error> {
        self.shared.check_open()?;
        let client = self.shared.conn.client.clone().ok_or_else(|| {
            Error::InvalidClient("durable subscription requires a client id".into())
        })?;
        let parsed = selector.map(Selector::parse).transpose()?;
        let id = self.shared.core.ids().next_consumer_id();
        let endpoint = self
            .shared
            .core
            .resume_durable(&client, name, topic, parsed, id)?;
        Ok(Box::new(BrokerConsumer {
            id,
            destination: Destination::Topic(topic.clone()),
            selector_text: selector.map(str::to_owned),
            queue_selector: None,
            endpoint,
            kind: ConsumerKind::Durable {
                client,
                name: name.to_owned(),
            },
            session: Arc::clone(&self.shared),
            closed: AtomicBool::new(false),
        }))
    }

    fn browse(&mut self, queue: &jmst_api::destination::QueueName) -> Result<Vec<Message>, Error> {
        self.shared.check_open()?;
        let endpoint = self.shared.core.queue_endpoint(queue);
        Ok(endpoint
            .browse(self.shared.core.now())
            .into_iter()
            .map(|m| (*m).clone())
            .collect())
    }

    fn unsubscribe(&mut self, name: &str) -> Result<(), Error> {
        self.shared.check_open()?;
        let client = self
            .shared
            .conn
            .client
            .clone()
            .ok_or_else(|| Error::InvalidClient("unsubscribe requires a client id".into()))?;
        self.shared.core.unsubscribe_durable(&client, name)
    }

    fn commit(&mut self) -> Result<(), Error> {
        self.shared.check_open()?;
        if self.shared.mode != SessionMode::Transacted {
            return Err(Error::illegal_state("commit on a non-transacted session"));
        }
        let (sends, receives) = {
            let mut state = self.shared.state.lock();
            (
                std::mem::take(&mut state.pending_sends),
                std::mem::take(&mut state.tx_receives),
            )
        };
        self.shared.core.route_batch(&sends)?;
        for (endpoint, message_id) in receives {
            endpoint.ack_message(self.shared.id, message_id);
        }
        Ok(())
    }

    fn rollback(&mut self) -> Result<(), Error> {
        self.shared.check_open()?;
        if self.shared.mode != SessionMode::Transacted {
            return Err(Error::illegal_state("rollback on a non-transacted session"));
        }
        self.shared.rollback_tx();
        Ok(())
    }

    fn recover(&mut self) -> Result<(), Error> {
        self.shared.check_open()?;
        if self.shared.mode == SessionMode::Transacted {
            return Err(Error::illegal_state(
                "recover on a transacted session (use rollback)",
            ));
        }
        self.shared.recover_unacked();
        Ok(())
    }

    fn close(&mut self) -> Result<(), Error> {
        {
            let state = self.shared.state.lock();
            if state.closed {
                return Ok(());
            }
        }
        // An open transaction is rolled back; unacknowledged deliveries of
        // non-transacted sessions become eligible for redelivery.
        if self.shared.mode == SessionMode::Transacted {
            self.shared.rollback_tx();
        } else {
            self.shared.recover_unacked();
        }
        self.shared.state.lock().closed = true;
        Ok(())
    }
}

/// A producer of the reference broker.
#[derive(Debug)]
pub struct BrokerProducer {
    id: ProducerId,
    destination: Destination,
    sequence: AtomicU64,
    session: Arc<SessionShared>,
    closed: AtomicBool,
}

impl Producer for BrokerProducer {
    fn id(&self) -> ProducerId {
        self.id
    }

    fn destination(&self) -> &Destination {
        &self.destination
    }

    fn send(&mut self, draft: MessageDraft) -> Result<Message, Error> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(Error::EndpointClosed);
        }
        self.session.check_open()?;
        self.session.core.check_send()?;
        let message = Arc::new(draft.stamp(Stamp {
            id: self.session.core.ids().next_message_id(),
            producer: self.id,
            sequence: self.sequence.fetch_add(1, Ordering::SeqCst),
            destination: self.destination.clone(),
            sent_at: self.session.core.now(),
        }));
        if self.session.mode == SessionMode::Transacted {
            self.session
                .state
                .lock()
                .pending_sends
                .push(Arc::clone(&message));
        } else {
            self.session.core.route(&message)?;
        }
        Ok((*message).clone())
    }

    fn send_batch(&mut self, drafts: Vec<MessageDraft>) -> Result<Vec<Message>, Error> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(Error::EndpointClosed);
        }
        self.session.check_open()?;
        self.session.core.check_send()?;
        let messages: Vec<Arc<Message>> = drafts
            .into_iter()
            .map(|draft| {
                Arc::new(draft.stamp(Stamp {
                    id: self.session.core.ids().next_message_id(),
                    producer: self.id,
                    sequence: self.sequence.fetch_add(1, Ordering::SeqCst),
                    destination: self.destination.clone(),
                    sent_at: self.session.core.now(),
                }))
            })
            .collect();
        if self.session.mode == SessionMode::Transacted {
            self.session
                .state
                .lock()
                .pending_sends
                .extend(messages.iter().map(Arc::clone));
        } else {
            self.session.core.route_batch(&messages)?;
        }
        Ok(messages.iter().map(|message| (**message).clone()).collect())
    }

    fn close(&mut self) -> Result<(), Error> {
        self.closed.store(true, Ordering::SeqCst);
        Ok(())
    }
}

#[derive(Debug)]
enum ConsumerKind {
    Queue,
    NonDurable { topic: TopicName },
    Durable { client: ClientId, name: String },
}

/// A consumer of the reference broker.
///
/// Topic selectors filter at routing time, in the subscription. Queue
/// selectors filter in place at receive time: the shared queue end-point
/// skips the messages this consumer's selector rejects, without removing
/// them, so they keep their arrival order and stay deliverable to the
/// queue's other consumers. A receive that finds no match waits like an
/// empty receive; it never cycles messages through the queue or fires
/// the end-point's wakers.
#[derive(Debug)]
pub struct BrokerConsumer {
    id: ConsumerId,
    destination: Destination,
    selector_text: Option<String>,
    /// Selector applied in place at receive time for queue consumers
    /// (topic selectors are applied at routing time by the subscription).
    queue_selector: Option<Selector>,
    endpoint: Arc<Endpoint>,
    kind: ConsumerKind,
    session: Arc<SessionShared>,
    closed: AtomicBool,
}

impl BrokerConsumer {
    /// Whether the connection currently delivers (started, not closed).
    fn started(&self) -> bool {
        let conn = &self.session.conn;
        conn.started.load(Ordering::SeqCst) && !conn.closed.load(Ordering::SeqCst)
    }

    /// Checks the consumer, its session, its connection and the broker
    /// are all still usable.
    fn alive(&self) -> Result<(), Error> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(Error::EndpointClosed);
        }
        self.session.check_open()
    }
}

impl Consumer for BrokerConsumer {
    fn id(&self) -> ConsumerId {
        self.id
    }

    fn destination(&self) -> &Destination {
        &self.destination
    }

    fn selector(&self) -> Option<&str> {
        self.selector_text.as_deref()
    }

    fn receive(&mut self, timeout: Option<Duration>) -> Result<Option<Message>, Error> {
        let received = self.endpoint.receive(
            self.session.core.config().clock.as_ref(),
            timeout,
            self.session.id,
            self.session.track_mode(),
            self.queue_selector.as_ref(),
            &|| self.started(),
            &|| self.alive(),
        )?;
        Ok(received.map(|message| {
            self.session.record_delivery(&self.endpoint, &message);
            (*message).clone()
        }))
    }

    fn try_receive_batch(&mut self, max: usize) -> Result<Vec<Message>, Error> {
        let batch = self.endpoint.try_receive_batch(
            self.session.core.config().clock.as_ref(),
            self.session.id,
            self.session.track_mode(),
            self.queue_selector.as_ref(),
            max,
            &|| self.started(),
            &|| self.alive(),
        )?;
        Ok(batch
            .into_iter()
            .map(|message| {
                self.session.record_delivery(&self.endpoint, &message);
                (*message).clone()
            })
            .collect())
    }

    fn set_waker(&mut self, waker: Arc<dyn Fn() + Send + Sync>) -> bool {
        self.endpoint.add_waker(waker);
        true
    }

    fn acknowledge(&mut self) -> Result<(), Error> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(Error::EndpointClosed);
        }
        self.session.check_open()?;
        if self.session.mode == SessionMode::Transacted {
            return Err(Error::illegal_state(
                "acknowledge on a transacted session (use commit)",
            ));
        }
        self.session.acknowledge_all();
        Ok(())
    }

    fn close(&mut self) -> Result<(), Error> {
        if self.closed.swap(true, Ordering::SeqCst) {
            return Ok(());
        }
        match &self.kind {
            ConsumerKind::Queue => {}
            ConsumerKind::NonDurable { topic } => {
                self.session.core.drop_non_durable(topic, self.id);
            }
            ConsumerKind::Durable { client, name } => {
                self.session.core.deactivate_durable(client, name);
            }
        }
        Ok(())
    }
}

impl Drop for BrokerConsumer {
    fn drop(&mut self) {
        // Destructors must not fail: best-effort close (C-DTOR-FAIL).
        let _ = self.close();
    }
}
