//! What every producer and consumer driver shares: the run's shared
//! state, connection chains, the harness identity carried in message
//! properties, and the open-loop producer engine. The closed-loop drivers
//! themselves are reactor tasks (`reactor_drivers.rs`); together they are
//! the "tests" of the paper's architecture, which create
//! producers/consumers, exchange messages, and log every event.

use crate::retry::{RetryPolicy, RetryState};
use crate::spec::{ConsumerSpec, ProducerSpec, Subscription, TestSpec};
use jmst_api::body::Body;
use jmst_api::destination::{Destination, EndpointId};
use jmst_api::error::Error;
use jmst_api::id::{ClientId, TxId};
use jmst_api::message::MessageDraft;
use jmst_api::modes::SessionMode;
use jmst_api::provider::{Connection, Consumer, Producer, Provider, Session};
use jmst_api::value::Value;
use jmst_load::SendDisposition;
use jmst_sim::SimRng;
use jmst_store::event::{EventKind, MessageRecord};
use jmst_store::trace::NodeRecorder;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// State shared by every driver of one test run.
#[derive(Debug)]
pub(crate) struct RunShared {
    pub provider: Arc<dyn Provider>,
    /// Producers stop when this is set (start of warm-down).
    pub stop_producing: AtomicBool,
    /// Set once every producer has finished.
    pub producers_done: AtomicBool,
    /// Hard abort (test daemon gave up on the run).
    pub abort: AtomicBool,
    /// Transaction-id allocator shared by all transacted sessions.
    pub next_tx: AtomicU64,
    /// All drivers start together ("starting the tests in a coordinated
    /// fashion", paper §4).
    pub start: Barrier,
    /// Absolute deadline after which every driver self-terminates.
    pub deadline: Instant,
    /// Drain-quiet window for consumers.
    pub drain_quiet: Duration,
    /// How drivers retry failed provider operations.
    pub retry: RetryPolicy,
    /// First driver to give up (exhausted retry budget / blown deadline /
    /// panic) records why; the run is then reported inconclusive.
    give_up: Mutex<Option<String>>,
}

impl RunShared {
    pub fn new(provider: Arc<dyn Provider>, spec: &TestSpec, drivers: usize) -> Self {
        let crash_allowance = spec
            .crash
            .map(|plan| plan.down_for + Duration::from_millis(200))
            .unwrap_or(Duration::ZERO);
        RunShared {
            provider,
            stop_producing: AtomicBool::new(false),
            producers_done: AtomicBool::new(false),
            abort: AtomicBool::new(false),
            next_tx: AtomicU64::new(1),
            start: Barrier::new(drivers + 1), // +1 for the orchestrator
            deadline: Instant::now()
                + spec.warm_up
                + spec.run
                + spec.warm_down
                + crash_allowance
                + Duration::from_secs(2),
            drain_quiet: spec.drain_quiet,
            retry: spec.retry,
            give_up: Mutex::new(None),
        }
    }

    pub(crate) fn should_abort(&self) -> bool {
        self.abort.load(Ordering::SeqCst) || Instant::now() >= self.deadline
    }

    /// Records why a driver gave up (first reason wins) and aborts every
    /// other driver so the run ends promptly.
    pub fn give_up(&self, reason: String) {
        let mut slot = self.give_up.lock().expect("give-up lock");
        slot.get_or_insert(reason);
        self.abort.store(true, Ordering::SeqCst);
    }

    /// The reason the run was abandoned, if any driver gave up.
    pub fn gave_up(&self) -> Option<String> {
        self.give_up.lock().expect("give-up lock").clone()
    }
}

pub(crate) struct ProducerChain {
    // Order matters for drop: producer, session, connection.
    pub(crate) producer: Box<dyn Producer>,
    pub(crate) session: Box<dyn Session>,
    /// `None` when the connection is shared by the whole node and owned
    /// by the runner.
    pub(crate) _connection: Option<Box<dyn Connection>>,
}

pub(crate) fn producer_session_mode(spec: &ProducerSpec) -> SessionMode {
    if spec.transacted_batch.is_some() {
        SessionMode::Transacted
    } else {
        SessionMode::AutoAcknowledge
    }
}

/// Builds a producer chain on an existing (shared) session.
pub(crate) fn producer_chain_on(
    mut session: Box<dyn Session>,
    spec: &ProducerSpec,
) -> Result<ProducerChain, Error> {
    let producer = session.create_producer(&spec.destination)?;
    Ok(ProducerChain {
        producer,
        session,
        _connection: None,
    })
}

pub(crate) fn connect_producer(
    provider: &dyn Provider,
    spec: &ProducerSpec,
) -> Result<ProducerChain, Error> {
    let mut connection = provider.create_connection(None)?;
    connection.start()?;
    let session = connection.create_session(producer_session_mode(spec))?;
    let mut chain = producer_chain_on(session, spec)?;
    chain._connection = Some(connection);
    Ok(chain)
}

/// Property names carrying the harness-level producer identity inside
/// messages, so the analysis sees one producer stream across reconnects
/// (a JMS producer object dies with its connection in a crash, but the
/// *test's* producer persists — as in the paper, where identity travels
/// in the message).
pub(crate) const PRODUCER_PROP: &str = "jmst_producer";
/// Property carrying the harness-level send sequence number.
pub(crate) const SEQUENCE_PROP: &str = "jmst_seq";

/// Builds one message draft of `spec`: a synthetic body from `body_seed`,
/// the spec's header fields and properties, and the harness-level
/// producer identity and send sequence number.
pub(crate) fn draft(
    spec: &ProducerSpec,
    body_seed: u64,
    stable_id: u64,
    sequence: u64,
) -> MessageDraft {
    let mut draft = MessageDraft::new(Body::synthetic(spec.body, spec.body_size, body_seed))
        .priority(spec.priority)
        .delivery_mode(spec.delivery_mode)
        .time_to_live(spec.time_to_live)
        .property(PRODUCER_PROP, Value::Long(stable_id as i64))
        .expect("valid property")
        .property(SEQUENCE_PROP, Value::Long(sequence as i64))
        .expect("valid property");
    // Spec-declared properties (validated by `TestSpec::validate`).
    for (name, value) in &spec.properties {
        draft = draft
            .property(name.clone(), value.clone())
            .expect("validated property");
    }
    draft
}

/// Rewrites a logged record with the harness-level identity embedded in
/// the message properties, when present.
pub(crate) fn apply_harness_identity(record: &mut MessageRecord) {
    use jmst_api::id::ProducerId;
    let producer = record.properties.get(PRODUCER_PROP).and_then(Value::as_i64);
    let sequence = record.properties.get(SEQUENCE_PROP).and_then(Value::as_i64);
    if let (Some(producer), Some(sequence)) = (producer, sequence) {
        record.producer = ProducerId::from_raw(producer as u64);
        record.sequence = sequence as u64;
    }
}

/// One producer spec as the open-loop engine sees it (`open_loop = on`):
/// the same identity and seed material a closed-loop producer task would
/// get.
pub(crate) struct OpenLoopJob {
    pub recorder: NodeRecorder,
    pub spec: ProducerSpec,
    pub seed: u64,
    pub stable_id: u64,
}

/// Immutable per-virtual-client identity. Virtual client 0 of a producer
/// carries exactly the closed-loop identity and seed, so an open-loop run
/// with `clients = 1` emits the same event stream a closed-loop run
/// would.
struct VcInit {
    /// Index into the job table.
    job: usize,
    stable_id: u64,
    seed: u64,
}

/// Mutable per-virtual-client state. The retry budget lives here — per
/// virtual client, not per thread: thousands of clients are multiplexed
/// onto one worker, so a stalled client must exhaust only its own budget.
struct VcState {
    retry: RetryState,
    body_seed: u64,
}

/// The engine-facing transport of one worker: lazily opens one producer
/// chain per producer spec (shared by all that producer's virtual clients
/// on this worker) and records the same `Send`/`SendFailed` events a
/// closed-loop driver would.
struct OpenLoopTransport {
    shared: Arc<RunShared>,
    jobs: Arc<Vec<OpenLoopJob>>,
    inits: Arc<Vec<VcInit>>,
    chains: std::collections::HashMap<usize, ProducerChain>,
    states: std::collections::HashMap<u32, VcState>,
}

impl OpenLoopTransport {
    fn retry_or_abort(shared: &RunShared, state: &mut VcState, stable_id: u64) -> SendDisposition {
        match state.retry.next_delay() {
            Ok(delay) => SendDisposition::RetryAfter(delay),
            Err(reason) => {
                let reason = format!("producer {stable_id}: {reason}");
                shared.give_up(reason.clone());
                SendDisposition::Abort(reason)
            }
        }
    }
}

impl jmst_load::Transport for OpenLoopTransport {
    fn send(
        &mut self,
        client: u32,
        seq: u64,
        _intended: Duration,
        _now: Duration,
    ) -> SendDisposition {
        let init = &self.inits[client as usize];
        let job = &self.jobs[init.job];
        let state = self.states.entry(client).or_insert_with(|| VcState {
            retry: RetryState::new(self.shared.retry, init.seed.wrapping_add(0x9e37_79b9)),
            body_seed: init.seed,
        });
        // (Re)open this producer's chain; a send failure below drops it,
        // so broker crashes are survived by reconnecting, as in the
        // closed-loop driver.
        if !self.chains.contains_key(&init.job) {
            match connect_producer(self.shared.provider.as_ref(), &job.spec) {
                Ok(chain) => {
                    self.chains.insert(init.job, chain);
                }
                Err(_) => return Self::retry_or_abort(&self.shared, state, init.stable_id),
            }
        }
        let chain = self.chains.get_mut(&init.job).expect("connected above");
        state.body_seed = state.body_seed.wrapping_add(1);
        let draft = draft(&job.spec, state.body_seed, init.stable_id, seq);
        match chain.producer.send(draft) {
            Ok(message) => {
                state.retry.succeeded();
                let mut record = MessageRecord::from_message(&message);
                apply_harness_identity(&mut record);
                job.recorder.record(EventKind::Send {
                    record,
                    session: chain.session.id(),
                    tx: None,
                });
                SendDisposition::Sent
            }
            Err(error) => {
                job.recorder.record(EventKind::SendFailed {
                    producer: chain.producer.id(),
                    reason: error.to_string(),
                });
                self.chains.remove(&init.job);
                Self::retry_or_abort(&self.shared, state, init.stable_id)
            }
        }
    }

    fn finish(&mut self) {
        for (_, mut chain) in self.chains.drain() {
            let _ = chain.producer.close();
            let _ = chain.session.close();
        }
    }
}

/// Drives every producer of the spec through the open-loop load engine.
/// One controller thread (this function) replaces all the closed-loop
/// producer tasks: it waits at the start barrier like any driver,
/// expands each producer into `clients_per_producer` virtual clients, and
/// runs them on a small worker pool until the runner raises warm-down or
/// every limited client completes. `arrival_rate`, when set, replaces the
/// aggregate send rate, split evenly across all virtual clients while
/// preserving each producer's process shape (steady or Poisson).
pub(crate) fn open_loop_producer_driver(
    shared: &Arc<RunShared>,
    jobs: Vec<OpenLoopJob>,
    clients_per_producer: u32,
    arrival_rate: Option<f64>,
) {
    use jmst_load::{ClientSpec, LoadEngine, Transport};
    let cpp = u64::from(clients_per_producer.max(1));
    let total = jobs.len() as u64 * cpp;
    let jobs = Arc::new(jobs);
    let mut inits = Vec::with_capacity(total as usize);
    let mut clients = Vec::with_capacity(total as usize);
    for (job_index, job) in jobs.iter().enumerate() {
        let process = match arrival_rate {
            Some(rate) => {
                let per_vc = rate / total as f64;
                match job.spec.workload {
                    jmst_sim::ArrivalProcess::Steady { .. } => {
                        jmst_sim::ArrivalProcess::steady(per_vc)
                    }
                    jmst_sim::ArrivalProcess::Poisson { .. } => {
                        jmst_sim::ArrivalProcess::poisson(per_vc)
                    }
                    jmst_sim::ArrivalProcess::Burst { .. } => {
                        unreachable!("validation rejects arrival_rate with burst workloads")
                    }
                }
            }
            None => job.spec.workload,
        };
        for vc in 0..cpp {
            // Virtual client 0 reuses the closed-loop seed and identity
            // verbatim; further clients fan out deterministically.
            let seed = job
                .seed
                .wrapping_add(vc.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let mut client = ClientSpec::new(process.generator(SimRng::seed_from_u64(seed)));
            if let Some(limit) = job.spec.message_limit {
                client = client.limited(limit);
            }
            if vc > 0 {
                // Spread a producer's clients across one per-client period
                // so steady profiles do not all fire in phase.
                let period = 1.0 / process.mean_rate_per_sec();
                client =
                    client.starting_at(Duration::from_secs_f64(period * vc as f64 / cpp as f64));
            }
            inits.push(VcInit {
                job: job_index,
                stable_id: job.stable_id + 1_000_000 * vc,
                seed,
            });
            clients.push(client);
        }
    }
    let inits = Arc::new(inits);
    let workers = std::thread::available_parallelism()
        .map_or(2, std::num::NonZeroUsize::get)
        .clamp(1, 4)
        .min(clients.len().max(1));
    let transports: Vec<Box<dyn Transport>> = (0..workers)
        .map(|_| {
            Box::new(OpenLoopTransport {
                shared: Arc::clone(shared),
                jobs: Arc::clone(&jobs),
                inits: Arc::clone(&inits),
                chains: std::collections::HashMap::new(),
                states: std::collections::HashMap::new(),
            }) as Box<dyn Transport>
        })
        .collect();
    // Mirror the runner's stop/abort signals into the engine's stop flag.
    run_watched(shared, true, |stop| {
        let _report = LoadEngine::new(workers).run(clients, transports, None, Some(stop));
    });
}

/// Waits at the start barrier, then runs `engine` with a stop flag that a
/// watcher thread raises once the run aborts (or, with
/// `stop_at_warm_down`, once producers are told to stop).
pub(crate) fn run_watched(
    shared: &Arc<RunShared>,
    stop_at_warm_down: bool,
    engine: impl FnOnce(Arc<AtomicBool>),
) {
    let stop = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicBool::new(false));
    let watcher = {
        let shared = Arc::clone(shared);
        let stop = Arc::clone(&stop);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            while !done.load(Ordering::SeqCst) {
                if shared.should_abort()
                    || (stop_at_warm_down && shared.stop_producing.load(Ordering::SeqCst))
                {
                    stop.store(true, Ordering::SeqCst);
                    return;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };
    shared.start.wait();
    engine(stop);
    done.store(true, Ordering::SeqCst);
    let _ = watcher.join();
}

pub(crate) struct ConsumerChain {
    pub(crate) consumer: Box<dyn Consumer>,
    pub(crate) session: Box<dyn Session>,
    /// `None` when the connection is shared by the whole node and owned
    /// by the runner.
    pub(crate) _connection: Option<Box<dyn Connection>>,
    pub(crate) endpoint: EndpointId,
}

/// Builds a consumer chain on an existing (shared) session. `client` is
/// the client id of the session's connection (needed to name durable
/// end-points).
pub(crate) fn consumer_chain_on(
    mut session: Box<dyn Session>,
    spec: &ConsumerSpec,
    client: &ClientId,
) -> Result<ConsumerChain, Error> {
    let consumer = match (&spec.subscription, &spec.destination) {
        (Subscription::Durable { name }, Destination::Topic(topic)) => {
            session.create_durable_subscriber(topic, name, spec.selector.as_deref())?
        }
        _ => session.create_consumer(&spec.destination, spec.selector.as_deref())?,
    };
    let endpoint = match (&spec.subscription, &spec.destination) {
        (_, Destination::Queue(queue)) => EndpointId::for_queue(queue.clone()),
        (Subscription::Durable { name }, Destination::Topic(topic)) => {
            EndpointId::durable(topic.clone(), client.clone(), name.clone())
        }
        (Subscription::Plain, Destination::Topic(topic)) => {
            EndpointId::non_durable(topic.clone(), consumer.id())
        }
    };
    Ok(ConsumerChain {
        consumer,
        session,
        _connection: None,
        endpoint,
    })
}

pub(crate) fn connect_consumer(
    provider: &dyn Provider,
    spec: &ConsumerSpec,
    client: &ClientId,
) -> Result<ConsumerChain, Error> {
    let client_id =
        matches!(spec.subscription, Subscription::Durable { .. }).then(|| client.clone());
    let mut connection = provider.create_connection(client_id)?;
    connection.start()?;
    let session = connection.create_session(spec.session_mode)?;
    let mut chain = consumer_chain_on(session, spec, client)?;
    chain._connection = Some(connection);
    Ok(chain)
}

pub(crate) fn finish_batch(
    active: &mut ConsumerChain,
    spec: &ConsumerSpec,
    current_tx: &mut Option<TxId>,
    in_batch: &mut u32,
    recorder: &NodeRecorder,
) {
    match spec.session_mode {
        SessionMode::Transacted => {
            if let Some(tx) = current_tx.take() {
                if *in_batch > 0 {
                    let session_id = active.session.id();
                    if active.session.commit().is_ok() {
                        recorder.record(EventKind::Commit {
                            session: session_id,
                            tx,
                        });
                    }
                }
            }
        }
        SessionMode::ClientAcknowledge if *in_batch > 0 => {
            let session_id = active.session.id();
            if active.consumer.acknowledge().is_ok() {
                recorder.record(EventKind::Acknowledge {
                    session: session_id,
                });
            }
        }
        _ => {}
    }
    *in_batch = 0;
}

pub(crate) fn drop_chain(chain: &mut Option<ConsumerChain>, recorder: &NodeRecorder) {
    if let Some(mut active) = chain.take() {
        let consumer_id = active.consumer.id();
        let endpoint = active.endpoint.clone();
        let _ = active.consumer.close();
        let _ = active.session.close();
        recorder.record(EventKind::ConsumerClosed {
            consumer: consumer_id,
            endpoint,
        });
    }
}
