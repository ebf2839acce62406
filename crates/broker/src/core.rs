//! The broker core: destination registries, message routing, client
//! management, and crash/recovery semantics. Shared by every connection,
//! session, producer and consumer the broker hands out.

use crate::config::BrokerConfig;
use crate::endpoint::Endpoint;
use crate::faults::{FaultCounters, FaultDecision, FaultEngine};
use crate::prefilter::{message_key, route_plan, LitKey, RoutePlan};
use jmst_api::destination::{Destination, EndpointId, QueueName, TopicName};
use jmst_api::error::Error;
use jmst_api::id::{ClientId, ConsumerId, IdGenerator};
use jmst_api::message::Message;
use jmst_api::provider::DeadLetter;
use jmst_api::selector::Selector;
use jmst_api::time::Timestamp;
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// One subscription attached to a topic.
#[derive(Debug, Clone)]
struct TopicSubscription {
    endpoint: Arc<Endpoint>,
    selector: Option<Selector>,
    /// Static-analysis verdict on `selector`, computed once at
    /// subscription time (see [`crate::prefilter`]).
    plan: RoutePlan,
}

impl TopicSubscription {
    fn accepts(&self, message: &Message) -> bool {
        self.selector
            .as_ref()
            .is_none_or(|selector| selector.matches(message))
    }
}

/// A generation-stamped, immutable view of one topic's subscriptions,
/// partitioned by routing plan.
///
/// Publishes read the current snapshot through one `Arc` clone and then
/// work entirely on private data — no membership lock, no per-publish
/// copy of the subscription list (and in particular no per-publish clone
/// of parsed selector ASTs). `Never` subscriptions are excluded from the
/// snapshot entirely: a provably-false selector costs nothing per
/// publish.
#[derive(Debug)]
struct SubscriptionSnapshot {
    /// Monotonic rebuild counter of the owning topic; lets diagnostics
    /// correlate a publish with the membership it saw.
    generation: u64,
    /// Subscriptions delivered to without evaluation (no selector, or an
    /// `AlwaysTrue` one).
    deliver_all: Vec<TopicSubscription>,
    /// Subscriptions whose selector is evaluated for every message.
    evaluated: Vec<TopicSubscription>,
    /// Subscriptions reached only through `eq_index`; their selectors run
    /// on index candidates alone.
    eq_filtered: Vec<TopicSubscription>,
    /// `ident → literal key → indices into eq_filtered`. Each eq-filtered
    /// subscription appears under exactly one `(ident, key)` pair.
    eq_index: HashMap<String, HashMap<LitKey, Vec<u32>>>,
}

impl SubscriptionSnapshot {
    fn empty(generation: u64) -> Self {
        Self {
            generation,
            deliver_all: Vec::new(),
            evaluated: Vec::new(),
            eq_filtered: Vec::new(),
            eq_index: HashMap::new(),
        }
    }

    /// Delivers a same-topic run to every subscription that accepts its
    /// messages, in run order per subscription, with one insert — one
    /// buffer lock, one wakeup — per subscription. Returns how many
    /// messages of the run reached at least one subscription and how many
    /// copies were buffered in all.
    ///
    /// Heap use is O(1) per run whatever the subscriber count: one flat
    /// `(subscription, message)` hit list for the filtered subscriptions,
    /// plus per-message `matched` flags when a run of several messages
    /// found no unfiltered subscription.
    fn fan_out(&self, run: &[Arc<Message>], visible_at: Timestamp) -> (u64, u64) {
        let mut copies = 0u64;
        for sub in &self.deliver_all {
            copies += sub.endpoint.insert_batch(run, visible_at);
        }
        // Hits number the evaluated subscriptions first, then the
        // eq-filtered ones. The equality index makes each eq-filtered
        // subscription a candidate at most once per message, so the list
        // never outgrows subscriptions × messages.
        let filtered = self.evaluated.len() + self.eq_filtered.len();
        let mut hits: Vec<(u32, u32)> =
            Vec::with_capacity((filtered * run.len()).min(MAX_HIT_RESERVE));
        for (sub, subscription) in self.evaluated.iter().enumerate() {
            hits.extend(
                (0..run.len())
                    .filter(|&index| subscription.accepts(&run[index]))
                    .map(|index| (sub as u32, index as u32)),
            );
        }
        let offset = self.evaluated.len() as u32;
        for (index, message) in run.iter().enumerate() {
            for (ident, by_key) in &self.eq_index {
                let Some(candidates) = message_key(message, ident).and_then(|key| by_key.get(&key))
                else {
                    continue;
                };
                hits.extend(
                    candidates
                        .iter()
                        .filter(|&&sub| self.eq_filtered[sub as usize].accepts(message))
                        .map(|&sub| (offset + sub, index as u32)),
                );
            }
        }
        // Grouped by subscription, each group in run order.
        hits.sort_unstable();
        let mut matched = (copies == 0 && run.len() > 1).then(|| vec![false; run.len()]);
        for group in hits.chunk_by(|a, b| a.0 == b.0) {
            let sub = group[0].0 as usize;
            let subscription = match self.evaluated.get(sub) {
                Some(subscription) => subscription,
                None => &self.eq_filtered[sub - self.evaluated.len()],
            };
            let inserted = subscription.endpoint.insert_batch(
                group.iter().map(|&(_, index)| &run[index as usize]),
                visible_at,
            );
            copies += inserted;
            if let (Some(matched), true) = (matched.as_mut(), inserted > 0) {
                for &(_, index) in group {
                    matched[index as usize] = true;
                }
            }
        }
        let reached = match matched {
            Some(matched) => matched.iter().filter(|&&m| m).count() as u64,
            // A run of one reached a subscription iff a copy was buffered.
            None if run.len() == 1 => u64::from(copies > 0),
            // An unfiltered subscription took the whole run.
            None => run.len() as u64,
        };
        (reached, copies)
    }
}

/// Per-topic subscription state, RCU-style: writers mutate `members`
/// under its mutex and publish a fresh [`SubscriptionSnapshot`]; readers
/// never touch the mutex.
#[derive(Debug)]
struct TopicState {
    members: Mutex<HashMap<EndpointId, TopicSubscription>>,
    snapshot: RwLock<Arc<SubscriptionSnapshot>>,
    generation: AtomicU64,
}

impl TopicState {
    fn new() -> Self {
        Self {
            members: Mutex::new(HashMap::new()),
            snapshot: RwLock::new(Arc::new(SubscriptionSnapshot::empty(0))),
            generation: AtomicU64::new(0),
        }
    }

    /// Rebuilds the published snapshot from `members`, partitioning the
    /// subscriptions by routing plan and building the equality index.
    /// Callers pass the membership map they are still holding the lock
    /// on, which serialises rebuilds and keeps snapshot generations
    /// monotonic.
    fn rebuild(&self, members: &HashMap<EndpointId, TopicSubscription>) {
        let generation = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        let mut fresh = SubscriptionSnapshot::empty(generation);
        for sub in members.values() {
            match &sub.plan {
                RoutePlan::DeliverAll => fresh.deliver_all.push(sub.clone()),
                RoutePlan::Eval => fresh.evaluated.push(sub.clone()),
                RoutePlan::Never => {}
                RoutePlan::EqFiltered { ident, key } => {
                    let index = fresh.eq_filtered.len() as u32;
                    fresh
                        .eq_index
                        .entry(ident.clone())
                        .or_default()
                        .entry(key.clone())
                        .or_default()
                        .push(index);
                    fresh.eq_filtered.push(sub.clone());
                }
            }
        }
        *self.snapshot.write() = Arc::new(fresh);
    }

    /// The current snapshot (one `Arc` clone; never blocks on membership
    /// changes beyond the brief snapshot-pointer swap).
    fn load(&self) -> Arc<SubscriptionSnapshot> {
        Arc::clone(&self.snapshot.read())
    }
}

/// A durable subscription's registry entry.
#[derive(Debug)]
struct DurableEntry {
    topic: TopicName,
    selector_text: Option<String>,
    endpoint: Arc<Endpoint>,
    active_consumer: Option<ConsumerId>,
}

/// Cold bookkeeping: durable subscriptions and client-id uniqueness.
/// Deliberately excludes everything the publish hot path reads.
#[derive(Debug, Default)]
struct Registry {
    durables: HashMap<(ClientId, String), DurableEntry>,
    active_clients: HashSet<ClientId>,
}

/// One shard of the destination space: an independent lock domain owning
/// the queues and topics whose names hash to it. Publishes to
/// destinations on different shards share no locks at all — each shard
/// has its own registry `RwLock`s, and the per-topic membership mutexes,
/// RCU snapshots and per-end-point buffers and wakers below them are
/// shard-local by construction.
#[derive(Debug, Default)]
struct Shard {
    /// Queue end-points of this shard; read-mostly, so publishes share a
    /// read lock.
    queues: RwLock<HashMap<QueueName, Arc<Endpoint>>>,
    /// Per-topic RCU subscription state of this shard; read-mostly
    /// likewise.
    topics: RwLock<HashMap<TopicName, Arc<TopicState>>>,
}

/// FNV-1a over a destination name: a deterministic, platform-independent
/// shard assignment (so trace re-analysis and differential tests see the
/// same partition everywhere).
fn shard_hash(name: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in name.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Cap on the equality-index hit list reserved up front for one run; a
/// larger run grows the list instead.
const MAX_HIT_RESERVE: usize = 1 << 16;

/// Whether a fan-out delivers a publish or the fault-injected second
/// copy of one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fanout {
    Publish,
    Duplicate,
}

/// Broker-wide counters.
#[derive(Debug, Default)]
pub struct CoreCounters {
    /// Messages routed into at least one end-point.
    pub routed: AtomicU64,
    /// Extra copies enqueued beyond the first per end-point (the
    /// duplicate-delivery fault).
    pub duplicated: AtomicU64,
    /// Topic publishes that matched no subscription (dropped, as JMS
    /// allows: nobody had subscribed).
    pub unroutable: AtomicU64,
    /// Crashes injected so far.
    pub crashes: AtomicU64,
}

/// The shared state behind a [`ReferenceBroker`](crate::ReferenceBroker).
///
/// Destinations are partitioned across [`Shard`]s by a hash of their
/// name, so publishes to different destinations never contend. Lock
/// order, outermost first: `registry` → a shard's `topics`/`queues` → a
/// topic's `members` → an end-point's buffer (operations never hold two
/// shards' locks at once). The publish path takes only the read side of
/// one shard's `queues`/`topics` plus the snapshot pointer, so it never
/// contends with durable bookkeeping. With `shards == 1` the layout and
/// behaviour are exactly the pre-sharding broker's — that configuration
/// is the reference semantics the differential tests compare against.
#[derive(Debug)]
pub struct Core {
    config: BrokerConfig,
    ids: IdGenerator,
    /// The destination shards; length fixed at construction.
    shards: Box<[Shard]>,
    registry: Mutex<Registry>,
    crashed: AtomicBool,
    /// Incremented on every crash; objects created before a crash carry an
    /// older generation and refuse further work.
    generation: AtomicU64,
    counters: CoreCounters,
    faults: Mutex<FaultEngine>,
    /// Whether the fault spec is all-zero; lets the publish hot path skip
    /// the fault-engine mutex entirely.
    clean_faults: bool,
    /// Poison messages parked on dead-letter queues since the last drain,
    /// reported once each through
    /// [`drain_dead_letters`](Core::drain_dead_letters).
    dead_letters: Mutex<Vec<DeadLetter>>,
}

impl Core {
    /// Creates a core with the given configuration.
    pub fn new(config: BrokerConfig) -> Arc<Self> {
        let clean_faults = config.faults.is_clean();
        let faults = Mutex::new(FaultEngine::new(config.faults));
        let shards: Box<[Shard]> = (0..config.shards.max(1))
            .map(|_| Shard::default())
            .collect();
        Arc::new(Self {
            config,
            ids: IdGenerator::starting_at(1),
            shards,
            registry: Mutex::new(Registry::default()),
            crashed: AtomicBool::new(false),
            generation: AtomicU64::new(0),
            counters: CoreCounters::default(),
            faults,
            clean_faults,
            dead_letters: Mutex::new(Vec::new()),
        })
    }

    /// The broker configuration.
    pub fn config(&self) -> &BrokerConfig {
        &self.config
    }

    /// The shared id generator.
    pub fn ids(&self) -> &IdGenerator {
        &self.ids
    }

    /// Broker-wide counters.
    pub fn counters(&self) -> &CoreCounters {
        &self.counters
    }

    /// Current time according to the broker clock.
    pub fn now(&self) -> Timestamp {
        self.config.clock.now()
    }

    /// Current crash generation.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Number of destination shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning queue `queue`.
    fn queue_shard(&self, queue: &QueueName) -> &Shard {
        &self.shards[(shard_hash(queue.as_str()) % self.shards.len() as u64) as usize]
    }

    /// The shard owning topic `topic`.
    fn topic_shard(&self, topic: &TopicName) -> &Shard {
        &self.shards[(shard_hash(topic.as_str()) % self.shards.len() as u64) as usize]
    }

    /// Returns an error if the broker is crashed or `generation` predates
    /// the last crash.
    pub fn check_alive(&self, generation: u64) -> Result<(), Error> {
        if self.crashed.load(Ordering::SeqCst) {
            return Err(Error::provider_failure("broker is down"));
        }
        if generation != self.generation() {
            return Err(Error::provider_failure("connection lost in broker crash"));
        }
        Ok(())
    }

    /// Registers a connection's client id, enforcing uniqueness.
    pub fn register_client(&self, client: &ClientId) -> Result<(), Error> {
        let mut registry = self.registry.lock();
        if !registry.active_clients.insert(client.clone()) {
            return Err(Error::InvalidClient(format!(
                "client id {client} is already in use"
            )));
        }
        Ok(())
    }

    /// Releases a connection's client id.
    pub fn release_client(&self, client: &ClientId) {
        self.registry.lock().active_clients.remove(client);
    }

    /// Returns (creating on first use) the end-point of a queue.
    pub fn queue_endpoint(&self, queue: &QueueName) -> Arc<Endpoint> {
        let shard = self.queue_shard(queue);
        if let Some(endpoint) = shard.queues.read().get(queue) {
            return Arc::clone(endpoint);
        }
        let mut queues = shard.queues.write();
        Arc::clone(queues.entry(queue.clone()).or_insert_with(|| {
            Arc::new(
                Endpoint::new(
                    EndpointId::for_queue(queue.clone()),
                    self.config.enforce_expiry,
                    self.config.enforce_priority,
                )
                .with_bound(self.config.queue_bound),
            )
        }))
    }

    /// Returns (creating on first use) the RCU subscription state of a
    /// topic.
    fn topic_state(&self, topic: &TopicName) -> Arc<TopicState> {
        let shard = self.topic_shard(topic);
        if let Some(state) = shard.topics.read().get(topic) {
            return Arc::clone(state);
        }
        let mut topics = shard.topics.write();
        Arc::clone(
            topics
                .entry(topic.clone())
                .or_insert_with(|| Arc::new(TopicState::new())),
        )
    }

    /// Creates a non-durable subscription on `topic` and returns its
    /// end-point. The subscription lives until
    /// [`Core::drop_non_durable`] is called for the same consumer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidSelector`] if static analysis finds the
    /// selector ill-typed (the `InvalidSelectorException` analog: JMS
    /// rejects such selectors at consumer creation, not per message).
    pub fn subscribe_non_durable(
        &self,
        topic: &TopicName,
        consumer: ConsumerId,
        selector: Option<Selector>,
    ) -> Result<Arc<Endpoint>, Error> {
        let plan = route_plan(selector.as_ref())?;
        let endpoint = Arc::new(Endpoint::new(
            EndpointId::non_durable(topic.clone(), consumer),
            self.config.enforce_expiry,
            self.config.enforce_priority,
        ));
        let state = self.topic_state(topic);
        let mut members = state.members.lock();
        members.insert(
            endpoint.id().clone(),
            TopicSubscription {
                endpoint: Arc::clone(&endpoint),
                selector,
                plan,
            },
        );
        state.rebuild(&members);
        Ok(endpoint)
    }

    /// Ends a non-durable subscription: detaches it from the topic and
    /// destroys its end-point.
    pub fn drop_non_durable(&self, topic: &TopicName, consumer: ConsumerId) {
        let id = EndpointId::non_durable(topic.clone(), consumer);
        let state = match self.topic_shard(topic).topics.read().get(topic) {
            Some(state) => Arc::clone(state),
            None => return,
        };
        let removed = {
            let mut members = state.members.lock();
            let removed = members.remove(&id);
            if removed.is_some() {
                state.rebuild(&members);
            }
            removed
        };
        if let Some(sub) = removed {
            sub.endpoint.destroy();
        }
    }

    /// Creates or resumes the durable subscription `name` for `client` on
    /// `topic`, marking `consumer` as its active consumer.
    ///
    /// Per JMS, re-subscribing with a different topic or selector deletes
    /// the old subscription and starts a fresh one.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidClient`] if the subscription already has an
    /// active consumer, or [`Error::InvalidSelector`] if static analysis
    /// finds the selector ill-typed (checked before any existing
    /// subscription is touched).
    pub fn resume_durable(
        &self,
        client: &ClientId,
        name: &str,
        topic: &TopicName,
        selector: Option<Selector>,
        consumer: ConsumerId,
    ) -> Result<Arc<Endpoint>, Error> {
        let plan = route_plan(selector.as_ref())?;
        let selector_text = selector.as_ref().map(|s| s.text().to_owned());
        let key = (client.clone(), name.to_owned());
        let mut registry = self.registry.lock();
        if let Some(entry) = registry.durables.get(&key) {
            if entry.active_consumer.is_some() {
                return Err(Error::InvalidClient(format!(
                    "durable subscription {client}/{name} already has an active consumer"
                )));
            }
            if entry.topic == *topic && entry.selector_text == selector_text {
                // Resume.
                let endpoint = Arc::clone(&entry.endpoint);
                registry
                    .durables
                    .get_mut(&key)
                    .expect("present")
                    .active_consumer = Some(consumer);
                return Ok(endpoint);
            }
            // Changed topic/selector: delete and recreate below.
            let old = registry.durables.remove(&key).expect("present");
            self.detach_subscription(&old.topic, old.endpoint.id());
            old.endpoint.destroy();
        }
        let endpoint = Arc::new(Endpoint::new(
            EndpointId::durable(topic.clone(), client.clone(), name),
            self.config.enforce_expiry,
            self.config.enforce_priority,
        ));
        let state = self.topic_state(topic);
        {
            let mut members = state.members.lock();
            members.insert(
                endpoint.id().clone(),
                TopicSubscription {
                    endpoint: Arc::clone(&endpoint),
                    selector,
                    plan,
                },
            );
            state.rebuild(&members);
        }
        registry.durables.insert(
            key,
            DurableEntry {
                topic: topic.clone(),
                selector_text,
                endpoint: Arc::clone(&endpoint),
                active_consumer: Some(consumer),
            },
        );
        Ok(endpoint)
    }

    /// Removes one subscription from a topic's membership and republishes
    /// the snapshot. Missing topics and members are ignored.
    fn detach_subscription(&self, topic: &TopicName, id: &EndpointId) {
        if let Some(state) = self.topic_shard(topic).topics.read().get(topic) {
            let mut members = state.members.lock();
            if members.remove(id).is_some() {
                state.rebuild(&members);
            }
        }
    }

    /// Marks the durable subscription's active consumer as gone (the
    /// subscription itself lives on and keeps accumulating messages).
    pub fn deactivate_durable(&self, client: &ClientId, name: &str) {
        let mut registry = self.registry.lock();
        if let Some(entry) = registry
            .durables
            .get_mut(&(client.clone(), name.to_owned()))
        {
            entry.active_consumer = None;
        }
    }

    /// Deletes the durable subscription `name` of `client`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidClient`] if the subscription does not exist
    /// or still has an active consumer.
    pub fn unsubscribe_durable(&self, client: &ClientId, name: &str) -> Result<(), Error> {
        let key = (client.clone(), name.to_owned());
        let mut registry = self.registry.lock();
        match registry.durables.get(&key) {
            None => Err(Error::InvalidClient(format!(
                "no durable subscription {client}/{name}"
            ))),
            Some(entry) if entry.active_consumer.is_some() => Err(Error::InvalidClient(format!(
                "durable subscription {client}/{name} is active"
            ))),
            Some(_) => {
                let entry = registry.durables.remove(&key).expect("present");
                self.detach_subscription(&entry.topic, entry.endpoint.id());
                entry.endpoint.destroy();
                Ok(())
            }
        }
    }

    /// Routes stamped messages to their destinations' end-points. This
    /// is the only publish path: a single send is a batch of one.
    ///
    /// Queue messages go to the queue end-point; topic messages fan out to
    /// every subscription whose selector accepts them, sharing the one
    /// [`Arc<Message>`] (fan-out never copies the payload). A topic
    /// publish with no matching subscription is dropped (and counted),
    /// which is correct pub/sub behaviour.
    ///
    /// A clean batch is split into maximal same-destination runs: each
    /// run costs one end-point/snapshot lookup, and each end-point takes
    /// its buffer lock and fires its wakers once per run. The whole batch
    /// shares one routing timestamp. A correct broker never touches the
    /// fault-engine mutex; a faulty one draws every decision under one
    /// acquisition, then routes each message as a run of one.
    ///
    /// # Errors
    ///
    /// [`Error::ResourceExhausted`] when a queue's backpressure bound
    /// rejects a message; the messages before it stay routed.
    pub fn route(&self, messages: &[Arc<Message>]) -> Result<(), Error> {
        if messages.is_empty() {
            return Ok(());
        }
        let visible_at = self.now().saturating_add(self.config.delivery_delay);
        if self.clean_faults {
            for run in messages.chunk_by(|a, b| a.destination() == b.destination()) {
                self.route_run(run, visible_at, Fanout::Publish)?;
            }
            return Ok(());
        }
        let decisions: Vec<(FaultDecision, Option<Arc<Message>>, Timestamp)> = {
            let mut faults = self.faults.lock();
            messages
                .iter()
                .map(|message| {
                    let decision = faults.decide();
                    let forged = decision.forge.then(|| {
                        Arc::new(faults.forge_message(
                            self.ids.next_message_id(),
                            message.destination().clone(),
                            self.now(),
                        ))
                    });
                    let at = if decision.hold_back {
                        visible_at.saturating_add(faults.spec().reorder_delay)
                    } else {
                        visible_at
                    };
                    (decision, forged, at)
                })
                .collect()
        };
        for (message, (decision, forged, at)) in messages.iter().zip(decisions) {
            if let Some(forged) = forged {
                self.route_run(std::slice::from_ref(&forged), visible_at, Fanout::Publish)?;
            }
            if decision.drop {
                continue;
            }
            let run = std::slice::from_ref(message);
            self.route_run(run, at, Fanout::Publish)?;
            if decision.duplicate {
                self.route_run(run, at, Fanout::Duplicate)?;
            }
        }
        Ok(())
    }

    /// Routes one same-destination run: a single end-point (or snapshot)
    /// lookup and, per end-point, a single insert — one buffer lock, one
    /// wakeup. A publish counts into `routed`/`unroutable` and surfaces a
    /// full queue as backpressure; a duplicate counts its copies into
    /// `duplicated`, and a full queue just does not take it.
    fn route_run(
        &self,
        run: &[Arc<Message>],
        visible_at: Timestamp,
        fanout: Fanout,
    ) -> Result<(), Error> {
        let (reached, copies) = match run[0].destination() {
            Destination::Queue(queue) => {
                let (inserted, hit_bound) =
                    self.queue_endpoint(queue).try_insert_batch(run, visible_at);
                if hit_bound && fanout == Fanout::Publish {
                    // Count what actually got buffered, then surface the
                    // backpressure to the producer.
                    self.counters.routed.fetch_add(inserted, Ordering::Relaxed);
                    return Err(Error::ResourceExhausted(format!(
                        "queue '{queue}' is full (backpressure bound reached); back off and retry"
                    )));
                }
                (run.len() as u64, inserted)
            }
            Destination::Topic(topic) => {
                let snapshot = {
                    let topics = self.topic_shard(topic).topics.read();
                    topics.get(topic).map(|state| state.load())
                };
                snapshot.map_or((0, 0), |snapshot| snapshot.fan_out(run, visible_at))
            }
        };
        match fanout {
            Fanout::Publish => {
                self.counters.routed.fetch_add(reached, Ordering::Relaxed);
                let unreached = run.len() as u64 - reached;
                if unreached > 0 {
                    self.counters
                        .unroutable
                        .fetch_add(unreached, Ordering::Relaxed);
                }
            }
            Fanout::Duplicate => {
                self.counters
                    .duplicated
                    .fetch_add(copies, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Returns the fault-injection counters.
    pub fn fault_counters(&self) -> FaultCounters {
        self.faults.lock().counters()
    }

    /// Operational fault hook for connection establishment: may stall the
    /// caller for a seeded window and may refuse the connection outright.
    /// Free on a clean broker.
    pub fn check_connect(&self) -> Result<(), Error> {
        if self.clean_faults {
            return Ok(());
        }
        let (stall, refused) = {
            let mut faults = self.faults.lock();
            (faults.stall_window(), faults.refuse_connect())
        };
        // The stall is wall-clock blocking, performed after the engine
        // lock is released so other fault draws are not serialised on it.
        if let Some(window) = stall {
            std::thread::sleep(window);
        }
        if refused {
            return Err(Error::provider_failure("injected: connection refused"));
        }
        Ok(())
    }

    /// Operational fault hook for sends: may stall the caller and may
    /// fail the send with a provider error (the message is not routed).
    /// Free on a clean broker.
    pub fn check_send(&self) -> Result<(), Error> {
        if self.clean_faults {
            return Ok(());
        }
        let (stall, rejected) = {
            let mut faults = self.faults.lock();
            (faults.stall_window(), faults.reject_send())
        };
        if let Some(window) = stall {
            std::thread::sleep(window);
        }
        if rejected {
            return Err(Error::provider_failure("injected: send failed"));
        }
        Ok(())
    }

    /// Operational fault hook for acknowledgements: returns `true` when
    /// the injected fault swallows the ack (the client believes it
    /// succeeded; the broker keeps the deliveries in flight, so they come
    /// back as redeliveries). Free on a clean broker.
    pub fn ack_lost(&self) -> bool {
        if self.clean_faults {
            return false;
        }
        self.faults.lock().lose_ack()
    }

    /// The configured redelivery bound, passed to end-point requeue
    /// operations.
    pub fn max_redeliveries(&self) -> Option<u32> {
        self.config.max_redeliveries
    }

    /// Parks poison messages on their destinations' dead-letter queues
    /// (`DLQ.<destination name>`) and records a notice for each, to be
    /// reported once through [`drain_dead_letters`](Core::drain_dead_letters).
    pub fn dead_letter(&self, poisoned: Vec<Arc<Message>>) {
        if poisoned.is_empty() {
            return;
        }
        let now = self.now();
        let mut notices = Vec::with_capacity(poisoned.len());
        for message in poisoned {
            let dlq = QueueName::new(format!("DLQ.{}", message.destination().name()));
            let endpoint = self.queue_endpoint(&dlq);
            endpoint.insert_batch([&message], now);
            notices.push(DeadLetter {
                message: message.as_ref().clone(),
                parked_on: dlq,
            });
        }
        self.dead_letters.lock().extend(notices);
    }

    /// Drains the dead-letter notices accumulated since the last call.
    pub fn drain_dead_letters(&self) -> Vec<DeadLetter> {
        std::mem::take(&mut *self.dead_letters.lock())
    }

    /// Simulates a broker crash.
    ///
    /// All connections, sessions, producers and consumers become unusable;
    /// non-durable subscriptions are destroyed; queue and durable
    /// subscription end-points apply persistence rules (unacknowledged
    /// deliveries return to the pending set, then only persistent messages
    /// survive — or none, if the broker is configured to lose them).
    /// The broker stays down until [`Core::recover`].
    pub fn crash(&self) {
        self.crashed.store(true, Ordering::SeqCst);
        self.counters.crashes.fetch_add(1, Ordering::Relaxed);
        let now = self.now();
        let keep = self.config.persistent_survive_crash;
        let bound = self.config.max_redeliveries;
        let mut poisoned = Vec::new();
        let durable_ids: HashSet<EndpointId> = {
            let mut registry = self.registry.lock();
            // Durable subscriptions survive with persistent messages;
            // their active consumers are gone.
            for entry in registry.durables.values_mut() {
                poisoned.extend(entry.endpoint.crash(keep, now, bound));
                entry.active_consumer = None;
            }
            registry.active_clients.clear();
            registry
                .durables
                .values()
                .map(|entry| entry.endpoint.id().clone())
                .collect()
        };
        for shard in &self.shards {
            for endpoint in shard.queues.read().values() {
                poisoned.extend(endpoint.crash(keep, now, bound));
            }
            // Non-durable subscriptions die with their (now broken)
            // consumers.
            for state in shard.topics.read().values() {
                let mut members = state.members.lock();
                members.retain(|id, sub| {
                    if durable_ids.contains(id) {
                        true
                    } else {
                        sub.endpoint.destroy();
                        false
                    }
                });
                state.rebuild(&members);
            }
        }
        // Park any in-flight messages the crash pushed past the
        // redelivery bound (after every end-point has applied its own
        // crash semantics, so the DLQ inserts are not themselves wiped).
        self.dead_letter(poisoned);
    }

    /// Brings a crashed broker back into service. Clients must create new
    /// connections; old objects stay dead.
    pub fn recover(&self) {
        self.generation.fetch_add(1, Ordering::SeqCst);
        self.crashed.store(false, Ordering::SeqCst);
    }

    /// Returns `true` while the broker is down.
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Returns how many times a topic's subscription snapshot has been
    /// rebuilt, or `None` for a topic the broker has never seen.
    pub fn topic_generation(&self, topic: &TopicName) -> Option<u64> {
        self.topic_shard(topic)
            .topics
            .read()
            .get(topic)
            .map(|state| state.load().generation)
    }

    /// Snapshot of all queue and durable-subscription end-points, for
    /// admin-style inspection in tests and reports.
    pub fn endpoint_stats(&self) -> Vec<(EndpointId, crate::endpoint::EndpointStats)> {
        let mut out: Vec<_> = self
            .shards
            .iter()
            .flat_map(|shard| {
                shard
                    .queues
                    .read()
                    .values()
                    .map(|ep| (ep.id().clone(), ep.stats()))
                    .collect::<Vec<_>>()
            })
            .collect();
        out.extend(
            self.registry
                .lock()
                .durables
                .values()
                .map(|entry| (entry.endpoint.id().clone(), entry.endpoint.stats())),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::TrackMode;
    use jmst_api::id::{MessageId, ProducerId, SessionId};
    use jmst_api::message::{MessageDraft, Stamp};
    use jmst_api::modes::DeliveryMode;
    use jmst_api::time::Clock;
    use jmst_api::value::Value;
    use jmst_sim::VirtualClock;
    use std::slice;
    use std::time::Duration;

    fn core_with_clock() -> (Arc<Core>, Arc<VirtualClock>) {
        let clock = Arc::new(VirtualClock::new());
        let config = BrokerConfig::correct().with_clock(clock.clone());
        (Core::new(config), clock)
    }

    fn stamped(core: &Core, destination: Destination, mode: DeliveryMode) -> Arc<Message> {
        Arc::new(MessageDraft::text("x").delivery_mode(mode).stamp(Stamp {
            id: core.ids().next_message_id(),
            producer: ProducerId::from_raw(1),
            sequence: 0,
            destination,
            sent_at: core.now(),
        }))
    }

    fn take_all(endpoint: &Endpoint, clock: &dyn Clock) -> Vec<Arc<Message>> {
        endpoint
            .try_receive_batch(
                clock,
                SessionId::from_raw(1),
                TrackMode::Immediate,
                None,
                usize::MAX,
                &|| true,
                &|| Ok(()),
            )
            .unwrap()
    }

    fn drain(endpoint: &Endpoint, clock: &dyn Clock) -> Vec<MessageId> {
        take_all(endpoint, clock).iter().map(|m| m.id()).collect()
    }

    #[test]
    fn queue_routing_reaches_queue_endpoint() {
        let (core, clock) = core_with_clock();
        let message = stamped(&core, Destination::queue("q"), DeliveryMode::Persistent);
        core.route(slice::from_ref(&message)).unwrap();
        let endpoint = core.queue_endpoint(&QueueName::new("q"));
        assert_eq!(drain(&endpoint, clock.as_ref()), vec![message.id()]);
        assert_eq!(core.counters().routed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn topic_fanout_reaches_all_matching_subscriptions() {
        let (core, clock) = core_with_clock();
        let topic = TopicName::new("t");
        let sub_a = core
            .subscribe_non_durable(&topic, ConsumerId::from_raw(1), None)
            .unwrap();
        let sub_b = core
            .subscribe_non_durable(
                &topic,
                ConsumerId::from_raw(2),
                Some(Selector::parse("JMSDeliveryMode = 'PERSISTENT'").unwrap()),
            )
            .unwrap();
        let np = stamped(&core, Destination::topic("t"), DeliveryMode::NonPersistent);
        let p = stamped(&core, Destination::topic("t"), DeliveryMode::Persistent);
        core.route(slice::from_ref(&np)).unwrap();
        core.route(slice::from_ref(&p)).unwrap();
        assert_eq!(drain(&sub_a, clock.as_ref()), vec![np.id(), p.id()]);
        assert_eq!(drain(&sub_b, clock.as_ref()), vec![p.id()]);
    }

    #[test]
    fn subscription_changes_advance_the_snapshot_generation() {
        let (core, _clock) = core_with_clock();
        let topic = TopicName::new("t");
        assert_eq!(core.topic_generation(&topic), None);
        core.subscribe_non_durable(&topic, ConsumerId::from_raw(1), None)
            .unwrap();
        let after_subscribe = core.topic_generation(&topic).unwrap();
        core.subscribe_non_durable(&topic, ConsumerId::from_raw(2), None)
            .unwrap();
        let after_second = core.topic_generation(&topic).unwrap();
        assert!(after_second > after_subscribe);
        core.drop_non_durable(&topic, ConsumerId::from_raw(1));
        assert!(core.topic_generation(&topic).unwrap() > after_second);
    }

    #[test]
    fn topic_fanout_shares_one_payload_across_subscribers() {
        let (core, clock) = core_with_clock();
        let topic = TopicName::new("t");
        let sub_a = core
            .subscribe_non_durable(&topic, ConsumerId::from_raw(1), None)
            .unwrap();
        let sub_b = core
            .subscribe_non_durable(&topic, ConsumerId::from_raw(2), None)
            .unwrap();
        let message = stamped(&core, Destination::topic("t"), DeliveryMode::Persistent);
        core.route(slice::from_ref(&message)).unwrap();
        let got_a = take_all(&sub_a, clock.as_ref()).pop().unwrap();
        let got_b = take_all(&sub_b, clock.as_ref()).pop().unwrap();
        // Fan-out hands every subscriber the very allocation that was
        // published — no body copies anywhere on the path.
        assert!(got_a.shares_payload_with(&message));
        assert!(got_b.shares_payload_with(&message));
    }

    #[test]
    fn ill_typed_selector_is_rejected_at_subscription_time() {
        let (core, _clock) = core_with_clock();
        let topic = TopicName::new("t");
        // `region` is compared as a number and as a string: no typing.
        let selector = Selector::parse("region > 5 AND region = 'emea'").unwrap();
        let err = core
            .subscribe_non_durable(&topic, ConsumerId::from_raw(1), Some(selector.clone()))
            .unwrap_err();
        assert!(matches!(err, Error::InvalidSelector(_)), "{err:?}");
        let err = core
            .resume_durable(
                &ClientId::new("c"),
                "s",
                &topic,
                Some(selector),
                ConsumerId::from_raw(2),
            )
            .unwrap_err();
        assert!(matches!(err, Error::InvalidSelector(_)), "{err:?}");
        // Nothing was registered.
        assert_eq!(core.topic_generation(&topic), None);
    }

    #[test]
    fn always_false_subscription_never_receives() {
        let (core, clock) = core_with_clock();
        let topic = TopicName::new("t");
        let never = core
            .subscribe_non_durable(
                &topic,
                ConsumerId::from_raw(1),
                Some(Selector::parse("x = 1 AND x = 2").unwrap()),
            )
            .unwrap();
        let message = stamped(&core, Destination::topic("t"), DeliveryMode::Persistent);
        core.route(slice::from_ref(&message)).unwrap();
        assert_eq!(drain(&never, clock.as_ref()), Vec::<MessageId>::new());
        // With only a provably-false subscription, the publish is
        // unroutable.
        assert_eq!(core.counters().unroutable.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn equality_prefilter_routes_to_the_matching_partition() {
        let (core, clock) = core_with_clock();
        let topic = TopicName::new("t");
        let subscribe = |raw: u64, selector: &str| {
            core.subscribe_non_durable(
                &topic,
                ConsumerId::from_raw(raw),
                Some(Selector::parse(selector).unwrap()),
            )
            .unwrap()
        };
        let emea = subscribe(1, "region = 'emea'");
        let apac = subscribe(2, "region = 'apac'");
        let emea_big = subscribe(3, "region = 'emea' AND size > 100");
        let publish = |region: &str, size: i64| {
            let message = Arc::new(
                MessageDraft::text("x")
                    .property("region", Value::String(region.to_owned()))
                    .unwrap()
                    .property("size", Value::Long(size))
                    .unwrap()
                    .stamp(Stamp {
                        id: core.ids().next_message_id(),
                        producer: ProducerId::from_raw(1),
                        sequence: 0,
                        destination: Destination::topic("t"),
                        sent_at: core.now(),
                    }),
            );
            core.route(slice::from_ref(&message)).unwrap();
            message.id()
        };
        let small = publish("emea", 10);
        let big = publish("emea", 500);
        let other = publish("apac", 500);
        assert_eq!(drain(&emea, clock.as_ref()), vec![small, big]);
        assert_eq!(drain(&apac, clock.as_ref()), vec![other]);
        // The index narrowed candidates; the residual predicate still ran.
        assert_eq!(drain(&emea_big, clock.as_ref()), vec![big]);
    }

    #[test]
    fn batch_fan_out_keeps_run_order_per_subscription() {
        let (core, clock) = core_with_clock();
        let topic = TopicName::new("t");
        let subscribe = |raw: u64, selector: Option<&str>| {
            core.subscribe_non_durable(
                &topic,
                ConsumerId::from_raw(raw),
                selector.map(|text| Selector::parse(text).unwrap()),
            )
            .unwrap()
        };
        let all = subscribe(1, None);
        let big = subscribe(2, Some("size > 100"));
        let emea = subscribe(3, Some("region = 'emea'"));
        let apac_big = subscribe(4, Some("region = 'apac' AND size > 100"));
        let message = |destination: Destination, region: &str, size: i64| {
            Arc::new(
                MessageDraft::text("x")
                    .property("region", Value::String(region.to_owned()))
                    .unwrap()
                    .property("size", Value::Long(size))
                    .unwrap()
                    .stamp(Stamp {
                        id: core.ids().next_message_id(),
                        producer: ProducerId::from_raw(1),
                        sequence: 0,
                        destination,
                        sent_at: core.now(),
                    }),
            )
        };
        let batch = vec![
            message(Destination::topic("t"), "emea", 500),
            message(Destination::topic("t"), "apac", 500),
            message(Destination::queue("q"), "emea", 1),
            message(Destination::topic("t"), "apac", 5),
            message(Destination::topic("t"), "emea", 5),
            message(Destination::topic("t"), "apac", 900),
        ];
        let ids: Vec<MessageId> = batch.iter().map(|m| m.id()).collect();
        core.route(&batch).unwrap();
        // Three runs: topic [0, 1], queue [2], topic [3, 4, 5].
        assert_eq!(
            drain(&all, clock.as_ref()),
            [ids[0], ids[1], ids[3], ids[4], ids[5]]
        );
        assert_eq!(drain(&big, clock.as_ref()), [ids[0], ids[1], ids[5]]);
        assert_eq!(drain(&emea, clock.as_ref()), [ids[0], ids[4]]);
        assert_eq!(drain(&apac_big, clock.as_ref()), [ids[1], ids[5]]);
        let queue = core.queue_endpoint(&QueueName::new("q"));
        assert_eq!(drain(&queue, clock.as_ref()), [ids[2]]);
        assert_eq!(core.counters().routed.load(Ordering::Relaxed), 6);
        assert_eq!(core.counters().unroutable.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn batch_counts_only_the_messages_some_filter_accepted() {
        let (core, clock) = core_with_clock();
        let topic = TopicName::new("t");
        let emea = core
            .subscribe_non_durable(
                &topic,
                ConsumerId::from_raw(1),
                Some(Selector::parse("region = 'emea'").unwrap()),
            )
            .unwrap();
        let batch: Vec<Arc<Message>> = ["emea", "apac", "emea", "amer"]
            .into_iter()
            .map(|region| {
                Arc::new(
                    MessageDraft::text("x")
                        .property("region", Value::String(region.to_owned()))
                        .unwrap()
                        .stamp(Stamp {
                            id: core.ids().next_message_id(),
                            producer: ProducerId::from_raw(1),
                            sequence: 0,
                            destination: Destination::topic("t"),
                            sent_at: core.now(),
                        }),
                )
            })
            .collect();
        core.route(&batch).unwrap();
        assert_eq!(drain(&emea, clock.as_ref()), [batch[0].id(), batch[2].id()]);
        assert_eq!(core.counters().routed.load(Ordering::Relaxed), 2);
        assert_eq!(core.counters().unroutable.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn full_queue_rejects_the_rest_of_a_batch_and_counts_what_fit() {
        let clock = Arc::new(VirtualClock::new());
        let core = Core::new(
            BrokerConfig::correct()
                .with_clock(clock.clone())
                .with_queue_bound(2),
        );
        let batch: Vec<Arc<Message>> = (0..3)
            .map(|_| stamped(&core, Destination::queue("q"), DeliveryMode::Persistent))
            .collect();
        let err = core.route(&batch).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)), "{err:?}");
        assert_eq!(core.counters().routed.load(Ordering::Relaxed), 2);
        let queue = core.queue_endpoint(&QueueName::new("q"));
        assert_eq!(
            drain(&queue, clock.as_ref()),
            [batch[0].id(), batch[1].id()]
        );
    }

    #[test]
    fn unmatched_topic_publish_is_counted_unroutable() {
        let (core, _clock) = core_with_clock();
        let message = stamped(&core, Destination::topic("empty"), DeliveryMode::Persistent);
        core.route(slice::from_ref(&message)).unwrap();
        assert_eq!(core.counters().unroutable.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn dropped_non_durable_subscription_stops_receiving() {
        let (core, _clock) = core_with_clock();
        let topic = TopicName::new("t");
        let consumer = ConsumerId::from_raw(9);
        let endpoint = core.subscribe_non_durable(&topic, consumer, None).unwrap();
        core.drop_non_durable(&topic, consumer);
        assert!(endpoint.is_destroyed());
        let message = stamped(&core, Destination::topic("t"), DeliveryMode::Persistent);
        core.route(slice::from_ref(&message)).unwrap();
        assert_eq!(core.counters().unroutable.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn durable_subscription_accumulates_while_inactive() {
        let (core, clock) = core_with_clock();
        let topic = TopicName::new("t");
        let client = ClientId::new("c");
        let endpoint = core
            .resume_durable(&client, "audit", &topic, None, ConsumerId::from_raw(1))
            .unwrap();
        core.deactivate_durable(&client, "audit");
        // Messages published while inactive are retained.
        let message = stamped(&core, Destination::topic("t"), DeliveryMode::Persistent);
        core.route(slice::from_ref(&message)).unwrap();
        // Resume sees them.
        let resumed = core
            .resume_durable(&client, "audit", &topic, None, ConsumerId::from_raw(2))
            .unwrap();
        assert!(Arc::ptr_eq(&endpoint, &resumed));
        assert_eq!(drain(&resumed, clock.as_ref()), vec![message.id()]);
    }

    #[test]
    fn durable_double_activation_is_rejected() {
        let (core, _clock) = core_with_clock();
        let topic = TopicName::new("t");
        let client = ClientId::new("c");
        core.resume_durable(&client, "s", &topic, None, ConsumerId::from_raw(1))
            .unwrap();
        let err = core
            .resume_durable(&client, "s", &topic, None, ConsumerId::from_raw(2))
            .unwrap_err();
        assert!(matches!(err, Error::InvalidClient(_)));
    }

    #[test]
    fn durable_resubscribe_with_new_selector_resets_subscription() {
        let (core, _clock) = core_with_clock();
        let topic = TopicName::new("t");
        let client = ClientId::new("c");
        let old = core
            .resume_durable(&client, "s", &topic, None, ConsumerId::from_raw(1))
            .unwrap();
        core.deactivate_durable(&client, "s");
        let message = stamped(&core, Destination::topic("t"), DeliveryMode::Persistent);
        core.route(slice::from_ref(&message)).unwrap();
        // Re-subscribe with a selector → fresh subscription, old messages gone.
        let selector = Some(Selector::parse("x = 1").unwrap());
        let new = core
            .resume_durable(&client, "s", &topic, selector, ConsumerId::from_raw(2))
            .unwrap();
        assert!(!Arc::ptr_eq(&old, &new));
        assert!(old.is_destroyed());
        assert_eq!(new.stats().pending, 0);
    }

    #[test]
    fn unsubscribe_requires_existing_inactive_subscription() {
        let (core, _clock) = core_with_clock();
        let client = ClientId::new("c");
        assert!(core.unsubscribe_durable(&client, "nope").is_err());
        let topic = TopicName::new("t");
        core.resume_durable(&client, "s", &topic, None, ConsumerId::from_raw(1))
            .unwrap();
        assert!(core.unsubscribe_durable(&client, "s").is_err());
        core.deactivate_durable(&client, "s");
        assert!(core.unsubscribe_durable(&client, "s").is_ok());
        // Gone now.
        assert!(core.unsubscribe_durable(&client, "s").is_err());
    }

    #[test]
    fn client_registration_enforces_uniqueness() {
        let (core, _clock) = core_with_clock();
        let client = ClientId::new("c");
        core.register_client(&client).unwrap();
        assert!(core.register_client(&client).is_err());
        core.release_client(&client);
        core.register_client(&client).unwrap();
    }

    #[test]
    fn crash_takes_broker_down_and_recover_bumps_generation() {
        let (core, _clock) = core_with_clock();
        let generation = core.generation();
        assert!(core.check_alive(generation).is_ok());
        core.crash();
        assert!(core.is_crashed());
        assert!(core.check_alive(generation).is_err());
        core.recover();
        assert!(!core.is_crashed());
        // Old generation still refused; new generation fine.
        assert!(core.check_alive(generation).is_err());
        assert!(core.check_alive(core.generation()).is_ok());
    }

    #[test]
    fn crash_preserves_persistent_queue_messages_only() {
        let (core, clock) = core_with_clock();
        let p = stamped(&core, Destination::queue("q"), DeliveryMode::Persistent);
        let np = stamped(&core, Destination::queue("q"), DeliveryMode::NonPersistent);
        core.route(slice::from_ref(&p)).unwrap();
        core.route(slice::from_ref(&np)).unwrap();
        core.crash();
        core.recover();
        let endpoint = core.queue_endpoint(&QueueName::new("q"));
        assert_eq!(drain(&endpoint, clock.as_ref()), vec![p.id()]);
    }

    #[test]
    fn crash_destroys_non_durable_but_keeps_durable_subscriptions() {
        let (core, clock) = core_with_clock();
        let topic = TopicName::new("t");
        let client = ClientId::new("c");
        let ephemeral = core
            .subscribe_non_durable(&topic, ConsumerId::from_raw(1), None)
            .unwrap();
        let durable = core
            .resume_durable(&client, "s", &topic, None, ConsumerId::from_raw(2))
            .unwrap();
        let message = stamped(&core, Destination::topic("t"), DeliveryMode::Persistent);
        core.route(slice::from_ref(&message)).unwrap();
        core.crash();
        core.recover();
        assert!(ephemeral.is_destroyed());
        assert!(!durable.is_destroyed());
        assert_eq!(drain(&durable, clock.as_ref()), vec![message.id()]);
        // And the durable can be resumed (its active consumer died in the
        // crash).
        core.resume_durable(&client, "s", &topic, None, ConsumerId::from_raw(3))
            .unwrap();
    }

    #[test]
    fn lossy_broker_loses_persistent_messages_on_crash() {
        let clock = Arc::new(VirtualClock::new());
        let config = BrokerConfig::correct()
            .with_clock(clock.clone())
            .losing_persistent_on_crash();
        let core = Core::new(config);
        let p = stamped(&core, Destination::queue("q"), DeliveryMode::Persistent);
        core.route(slice::from_ref(&p)).unwrap();
        core.crash();
        core.recover();
        let endpoint = core.queue_endpoint(&QueueName::new("q"));
        assert_eq!(drain(&endpoint, clock.as_ref()), Vec::<MessageId>::new());
    }

    #[test]
    fn delivery_delay_defers_visibility() {
        let clock = Arc::new(VirtualClock::new());
        let config = BrokerConfig::correct()
            .with_clock(clock.clone())
            .with_delivery_delay(Duration::from_millis(10));
        let core = Core::new(config);
        let message = stamped(&core, Destination::queue("q"), DeliveryMode::Persistent);
        core.route(slice::from_ref(&message)).unwrap();
        let endpoint = core.queue_endpoint(&QueueName::new("q"));
        assert_eq!(drain(&endpoint, clock.as_ref()), Vec::<MessageId>::new());
        clock.advance(Duration::from_millis(10));
        assert_eq!(drain(&endpoint, clock.as_ref()), vec![message.id()]);
    }

    #[test]
    fn endpoint_stats_cover_queues_and_durables() {
        let (core, _clock) = core_with_clock();
        core.queue_endpoint(&QueueName::new("q"));
        core.resume_durable(
            &ClientId::new("c"),
            "s",
            &TopicName::new("t"),
            None,
            ConsumerId::from_raw(1),
        )
        .unwrap();
        assert_eq!(core.endpoint_stats().len(), 2);
    }
}
