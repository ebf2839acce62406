//! Timing decorators for the traced run.
//!
//! [`TracedProvider`] wraps any provider and hands out wrapped
//! connections, sessions, producers and consumers, so every call into
//! the broker from the harness or the load engine becomes a span. The
//! callback a consumer hands to `set_waker` is wrapped too, which times
//! the reactor's wake path: from the broker firing the waker to the next
//! receive on that consumer. [`TimedTransport`] does the same for the
//! load engine's [`Transport`].
//!
//! Every wrapper forwards every trait method, default methods included,
//! so a decorated provider behaves exactly like the bare one; the
//! pass-through test proves that on the harness's verdicts.

use crate::report::{percentile_ns, Outcome};
use crate::spans::{self, Span, Tracer};
use crate::sys;
use jmst_api::destination::{Destination, QueueName, TopicName};
use jmst_api::error::Error;
use jmst_api::id::{ClientId, ConnectionId, ConsumerId, ProducerId, SessionId};
use jmst_api::message::{Message, MessageDraft};
use jmst_api::modes::SessionMode;
use jmst_api::provider::{Connection, Consumer, DeadLetter, Producer, Provider, Session};
use jmst_load::{SendDisposition, Transport};
use jmst_store::LogHistogram;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Work counts at the provider boundary. Plain statistics: `Relaxed`
/// ordering, read after the run has been joined.
#[derive(Debug, Default)]
pub struct BrokerCounters {
    /// `Producer::send` calls that returned `Ok`.
    pub sends: AtomicU64,
    /// `Producer::send` calls that returned `Err`.
    pub send_errors: AtomicU64,
    /// Receive calls of any kind.
    pub receive_calls: AtomicU64,
    /// Messages those calls returned.
    pub receive_msgs: AtomicU64,
    /// Receive calls that returned nothing.
    pub empty_receives: AtomicU64,
    /// Waker callbacks the broker fired.
    pub wakes: AtomicU64,
}

impl BrokerCounters {
    /// Zeroes every count (between set-up and the measured window).
    pub fn reset(&self) {
        for counter in [
            &self.sends,
            &self.send_errors,
            &self.receive_calls,
            &self.receive_msgs,
            &self.empty_receives,
            &self.wakes,
        ] {
            counter.store(0, Ordering::Relaxed);
        }
    }
}

fn bump(counter: &AtomicU64, by: u64) {
    counter.fetch_add(by, Ordering::Relaxed);
}

/// What the decorators share: the span sink and the counters.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Where spans go.
    pub tracer: Arc<Tracer>,
    /// Where counts go.
    pub counters: Arc<BrokerCounters>,
}

impl Probe {
    /// A probe over a fresh tracer and zeroed counters.
    pub fn new(tracer: Arc<Tracer>) -> Self {
        Self {
            tracer,
            counters: Arc::new(BrokerCounters::default()),
        }
    }
}

impl Probe {
    /// Adds the broker- and reactor-layer metrics of a traced run, from
    /// its spans and counts, to `out`.
    pub fn report(&self, spans: &[Span], out: &mut Outcome) {
        let counters = &self.counters;
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed) as f64;
        let receive_calls = load(&counters.receive_calls).max(1.0);
        let receive_msgs = load(&counters.receive_msgs).max(1.0);
        let send_ns = spans::durations(spans, "broker.send");
        let receive_ns = spans::durations(spans, "broker.receive");
        let wake_ns = spans::durations(spans, "reactor.wake_to_receive");
        let count = |samples: &[u64]| samples.len() as u64;
        out.push(
            "broker.send_ns_p50",
            "ns",
            percentile_ns(&send_ns, 0.5),
            count(&send_ns),
        );
        out.push(
            "broker.send_ns_p99",
            "ns",
            percentile_ns(&send_ns, 0.99),
            count(&send_ns),
        );
        out.push(
            "broker.send_errors",
            "count",
            load(&counters.send_errors),
            load(&counters.sends) as u64,
        );
        out.push(
            "broker.receive_ns_p50",
            "ns",
            percentile_ns(&receive_ns, 0.5),
            count(&receive_ns),
        );
        out.push(
            "broker.msgs_per_receive",
            "ratio",
            receive_msgs / receive_calls,
            receive_calls as u64,
        );
        out.push(
            "broker.empty_receive_ratio",
            "ratio",
            load(&counters.empty_receives) / receive_calls,
            receive_calls as u64,
        );
        out.push(
            "broker.wakes_per_msg",
            "ratio",
            load(&counters.wakes) / receive_msgs,
            receive_msgs as u64,
        );
        out.push(
            "reactor.wake_to_receive_us_p50",
            "us",
            percentile_ns(&wake_ns, 0.5) / 1e3,
            count(&wake_ns),
        );
        out.push(
            "reactor.wake_to_receive_us_p99",
            "us",
            percentile_ns(&wake_ns, 0.99) / 1e3,
            count(&wake_ns),
        );
    }
}

/// A provider whose every object records spans.
pub struct TracedProvider {
    inner: Arc<dyn Provider>,
    probe: Probe,
}

impl TracedProvider {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn Provider>, probe: Probe) -> Self {
        Self { inner, probe }
    }
}

impl fmt::Debug for TracedProvider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TracedProvider")
            .field("inner", &self.inner)
            .finish_non_exhaustive()
    }
}

impl Provider for TracedProvider {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn create_connection(&self, client_id: Option<ClientId>) -> Result<Box<dyn Connection>, Error> {
        let connection = self.probe.tracer.span(
            "broker.create_connection",
            || self.inner.create_connection(client_id),
            |_| None,
        )?;
        Ok(Box::new(TracedConnection {
            inner: connection,
            probe: self.probe.clone(),
        }))
    }

    fn drain_dead_letters(&self) -> Vec<DeadLetter> {
        self.inner.drain_dead_letters()
    }
}

struct TracedConnection {
    inner: Box<dyn Connection>,
    probe: Probe,
}

impl Connection for TracedConnection {
    fn id(&self) -> ConnectionId {
        self.inner.id()
    }

    fn client_id(&self) -> Option<&ClientId> {
        self.inner.client_id()
    }

    fn create_session(&mut self, mode: SessionMode) -> Result<Box<dyn Session>, Error> {
        let session = self.inner.create_session(mode)?;
        Ok(Box::new(TracedSession {
            inner: session,
            probe: self.probe.clone(),
        }))
    }

    fn start(&mut self) -> Result<(), Error> {
        self.inner.start()
    }

    fn stop(&mut self) -> Result<(), Error> {
        self.inner.stop()
    }

    fn close(&mut self) -> Result<(), Error> {
        self.inner.close()
    }
}

struct TracedSession {
    inner: Box<dyn Session>,
    probe: Probe,
}

impl TracedSession {
    fn consumer(&self, inner: Box<dyn Consumer>) -> Box<dyn Consumer> {
        Box::new(TracedConsumer {
            inner,
            probe: self.probe.clone(),
            woke_at: Arc::new(AtomicU64::new(0)),
        })
    }
}

impl Session for TracedSession {
    fn id(&self) -> SessionId {
        self.inner.id()
    }

    fn mode(&self) -> SessionMode {
        self.inner.mode()
    }

    fn create_producer(&mut self, destination: &Destination) -> Result<Box<dyn Producer>, Error> {
        let producer = self.inner.create_producer(destination)?;
        Ok(Box::new(TracedProducer {
            inner: producer,
            probe: self.probe.clone(),
        }))
    }

    fn create_consumer(
        &mut self,
        destination: &Destination,
        selector: Option<&str>,
    ) -> Result<Box<dyn Consumer>, Error> {
        let consumer = self.inner.create_consumer(destination, selector)?;
        Ok(self.consumer(consumer))
    }

    fn create_durable_subscriber(
        &mut self,
        topic: &TopicName,
        name: &str,
        selector: Option<&str>,
    ) -> Result<Box<dyn Consumer>, Error> {
        let consumer = self
            .inner
            .create_durable_subscriber(topic, name, selector)?;
        Ok(self.consumer(consumer))
    }

    fn browse(&mut self, queue: &QueueName) -> Result<Vec<Message>, Error> {
        self.inner.browse(queue)
    }

    fn unsubscribe(&mut self, name: &str) -> Result<(), Error> {
        self.inner.unsubscribe(name)
    }

    fn commit(&mut self) -> Result<(), Error> {
        self.probe
            .tracer
            .span("broker.commit", || self.inner.commit(), |_| None)
    }

    fn rollback(&mut self) -> Result<(), Error> {
        self.inner.rollback()
    }

    fn recover(&mut self) -> Result<(), Error> {
        self.inner.recover()
    }

    fn close(&mut self) -> Result<(), Error> {
        self.inner.close()
    }
}

struct TracedProducer {
    inner: Box<dyn Producer>,
    probe: Probe,
}

impl TracedProducer {
    fn count(&self, ok: bool, messages: u64) {
        if ok {
            bump(&self.probe.counters.sends, messages);
        } else {
            bump(&self.probe.counters.send_errors, 1);
        }
    }
}

impl Producer for TracedProducer {
    fn id(&self) -> ProducerId {
        self.inner.id()
    }

    fn destination(&self) -> &Destination {
        self.inner.destination()
    }

    fn send(&mut self, draft: MessageDraft) -> Result<Message, Error> {
        let result = self.probe.tracer.span(
            "broker.send",
            || self.inner.send(draft),
            |result| result.as_ref().ok().map(|message| message.id().as_u64()),
        );
        self.count(result.is_ok(), 1);
        result
    }

    fn send_batch(&mut self, drafts: Vec<MessageDraft>) -> Result<Vec<Message>, Error> {
        let result = self.probe.tracer.span(
            "broker.send_batch",
            || self.inner.send_batch(drafts),
            |_| None,
        );
        let sent = result.as_ref().map_or(0, |messages| messages.len() as u64);
        self.count(result.is_ok(), sent);
        result
    }

    fn close(&mut self) -> Result<(), Error> {
        self.inner.close()
    }
}

struct TracedConsumer {
    inner: Box<dyn Consumer>,
    probe: Probe,
    /// Tracer time (+1, so 0 means "none") of the earliest waker call
    /// not yet followed by a receive on this consumer.
    woke_at: Arc<AtomicU64>,
}

impl TracedConsumer {
    /// Closes the wake-to-receive interval, if a wake is pending.
    fn note_receive_start(&self) {
        let woke = self.woke_at.swap(0, Ordering::Relaxed);
        if woke != 0 {
            let tracer = &self.probe.tracer;
            tracer.record("reactor.wake_to_receive", woke - 1, tracer.now_ns(), None);
        }
    }

    fn count(&self, messages: u64) {
        let counters = &self.probe.counters;
        bump(&counters.receive_calls, 1);
        bump(&counters.receive_msgs, messages);
        if messages == 0 {
            bump(&counters.empty_receives, 1);
        }
    }
}

impl Consumer for TracedConsumer {
    fn id(&self) -> ConsumerId {
        self.inner.id()
    }

    fn destination(&self) -> &Destination {
        self.inner.destination()
    }

    fn selector(&self) -> Option<&str> {
        self.inner.selector()
    }

    fn receive(&mut self, timeout: Option<Duration>) -> Result<Option<Message>, Error> {
        self.note_receive_start();
        let result = self.probe.tracer.span(
            "broker.receive",
            || self.inner.receive(timeout),
            |result| match result {
                Ok(Some(message)) => Some(message.id().as_u64()),
                _ => None,
            },
        );
        self.count(u64::from(matches!(result, Ok(Some(_)))));
        result
    }

    fn try_receive_batch(&mut self, max: usize) -> Result<Vec<Message>, Error> {
        self.note_receive_start();
        let result = self.probe.tracer.span(
            "broker.receive",
            || self.inner.try_receive_batch(max),
            |result| match result {
                Ok(batch) if batch.len() == 1 => Some(batch[0].id().as_u64()),
                _ => None,
            },
        );
        self.count(result.as_ref().map_or(0, |batch| batch.len() as u64));
        result
    }

    fn set_waker(&mut self, waker: Arc<dyn Fn() + Send + Sync>) -> bool {
        let probe = self.probe.clone();
        let woke_at = Arc::clone(&self.woke_at);
        self.inner.set_waker(Arc::new(move || {
            bump(&probe.counters.wakes, 1);
            let now = probe.tracer.now_ns() + 1;
            let _ = woke_at.compare_exchange(0, now, Ordering::Relaxed, Ordering::Relaxed);
            waker();
        }))
    }

    fn acknowledge(&mut self) -> Result<(), Error> {
        self.inner.acknowledge()
    }

    fn close(&mut self) -> Result<(), Error> {
        self.inner.close()
    }
}

/// What a [`TimedTransport`] saw on its worker.
#[derive(Debug, Clone)]
pub struct TransportStats {
    /// Successful sends.
    pub sends: u64,
    /// When the first send was attempted.
    pub first_send: Option<Instant>,
    /// Send lag of sends intended at or after 1 s into the run.
    pub lag_after_1s: LogHistogram,
    /// Wall time spent inside the wrapped transport's `send`.
    pub send_time: Duration,
    /// The worker thread's CPU time at its last send.
    pub worker_cpu: Duration,
}

impl TransportStats {
    fn new() -> Self {
        Self {
            sends: 0,
            first_send: None,
            lag_after_1s: LogHistogram::new(),
            send_time: Duration::ZERO,
            worker_cpu: Duration::ZERO,
        }
    }
}

/// A load-engine transport that times the transport it wraps.
pub struct TimedTransport {
    inner: Box<dyn Transport>,
    tracer: Arc<Tracer>,
    local: TransportStats,
    /// Filled in when the engine finishes the worker.
    done: Arc<Mutex<Option<TransportStats>>>,
}

impl TimedTransport {
    /// Wraps `inner`; the stats land in the returned slot when the engine
    /// finishes the worker.
    pub fn new(
        inner: Box<dyn Transport>,
        tracer: Arc<Tracer>,
    ) -> (Self, Arc<Mutex<Option<TransportStats>>>) {
        let done = Arc::new(Mutex::new(None));
        let transport = Self {
            inner,
            tracer,
            local: TransportStats::new(),
            done: Arc::clone(&done),
        };
        (transport, done)
    }
}

impl Transport for TimedTransport {
    fn connect(&mut self, client: u32) -> SendDisposition {
        self.tracer
            .span("load.connect", || self.inner.connect(client), |_| None)
    }

    fn send(
        &mut self,
        client: u32,
        seq: u64,
        intended: Duration,
        now: Duration,
    ) -> SendDisposition {
        let started = self.tracer.now_ns();
        self.local.first_send.get_or_insert_with(Instant::now);
        let disposition = self.tracer.span(
            "load.send",
            || self.inner.send(client, seq, intended, now),
            |_| None,
        );
        self.local.send_time += Duration::from_nanos(self.tracer.now_ns() - started);
        if disposition == SendDisposition::Sent {
            self.local.sends += 1;
            if intended >= Duration::from_secs(1) {
                self.local.lag_after_1s.record(now.saturating_sub(intended));
            }
        }
        self.local.worker_cpu = sys::thread_cpu();
        disposition
    }

    fn finish(&mut self) {
        self.inner.finish();
        *self.done.lock().expect("transport stats poisoned") = Some(self.local.clone());
    }
}
