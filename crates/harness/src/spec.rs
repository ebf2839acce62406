//! Test specifications: the declarative description of one test run,
//! mirroring the configurability the paper's harness exposes (§3.2, §4) —
//! message body type and size, priority, delivery mode, transactions,
//! acknowledgement modes, send profiles (steady / burst / Poisson),
//! warm-up / run / warm-down periods, node grouping, connection /
//! disconnection behaviour, and (the paper's future work) crash
//! injection.

use jmst_api::body::BodyKind;
use jmst_api::destination::Destination;
use jmst_api::modes::{DeliveryMode, Priority, SessionMode, TimeToLive};
use jmst_api::value::Value;
use jmst_sim::ArrivalProcess;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// One producer's configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProducerSpec {
    /// Where to send.
    pub destination: Destination,
    /// The send profile.
    pub workload: ArrivalProcess,
    /// Body type to generate.
    pub body: BodyKind,
    /// Approximate body size in bytes.
    pub body_size: usize,
    /// Message priority.
    pub priority: Priority,
    /// Delivery mode.
    pub delivery_mode: DeliveryMode,
    /// Time-to-live.
    pub time_to_live: TimeToLive,
    /// `Some(n)`: use a transacted session, committing every `n` sends.
    pub transacted_batch: Option<u32>,
    /// Stop after this many messages even if the run period has not
    /// ended.
    pub message_limit: Option<u64>,
    /// Hand the provider this many drafts per `send_batch` call instead
    /// of sending one at a time (`1` = plain sends). The driver still
    /// paces each message by the workload's inter-send gap; batching only
    /// changes how the accumulated drafts reach the provider.
    pub send_batch: u32,
    /// User properties stamped on every message this producer sends —
    /// the property environment consumers' selectors run against, and
    /// what the scenario linter checks selectors for satisfiability
    /// against.
    pub properties: Vec<(String, Value)>,
}

impl ProducerSpec {
    /// A steady-rate text producer with defaults for everything else.
    pub fn steady(destination: Destination, rate_per_sec: f64, body_size: usize) -> Self {
        Self {
            destination,
            workload: ArrivalProcess::steady(rate_per_sec),
            body: BodyKind::Text,
            body_size,
            priority: Priority::DEFAULT,
            delivery_mode: DeliveryMode::Persistent,
            time_to_live: TimeToLive::FOREVER,
            transacted_batch: None,
            message_limit: None,
            send_batch: 1,
            properties: Vec::new(),
        }
    }

    /// Returns a copy with the given priority.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Returns a copy with the given delivery mode.
    pub fn with_delivery_mode(mut self, mode: DeliveryMode) -> Self {
        self.delivery_mode = mode;
        self
    }

    /// Returns a copy with the given time-to-live.
    pub fn with_ttl(mut self, ttl: TimeToLive) -> Self {
        self.time_to_live = ttl;
        self
    }

    /// Returns a copy that commits every `batch` sends in a transaction.
    pub fn transacted(mut self, batch: u32) -> Self {
        self.transacted_batch = Some(batch.max(1));
        self
    }

    /// Returns a copy with the given body kind.
    pub fn with_body(mut self, body: BodyKind) -> Self {
        self.body = body;
        self
    }

    /// Returns a copy limited to `n` messages.
    pub fn limited(mut self, n: u64) -> Self {
        self.message_limit = Some(n);
        self
    }

    /// Returns a copy sending `n` drafts per provider call (clamped to at
    /// least 1), exercising the provider's batched publish path.
    pub fn batched(mut self, n: u32) -> Self {
        self.send_batch = n.max(1);
        self
    }

    /// Returns a copy stamping `name = value` on every message sent.
    pub fn with_property(mut self, name: impl Into<String>, value: Value) -> Self {
        self.properties.push((name.into(), value));
        self
    }
}

/// How a consumer subscribes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Subscription {
    /// Plain consumer on the destination (queue receiver or non-durable
    /// subscriber).
    Plain,
    /// Durable subscription with this name (topic destinations only).
    Durable {
        /// Subscription name, unique within the consumer's client id.
        name: String,
    },
}

/// A consumer's disconnect/reconnect behaviour (the paper's
/// "connection and disconnection behaviour" configuration).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReconnectSpec {
    /// Close after receiving this many messages…
    pub after_messages: u64,
    /// …stay away for this long…
    pub pause: Duration,
    /// …then reconnect (durable subscriptions resume; queue receivers
    /// reopen; non-durable subscriptions start fresh).
    pub max_cycles: u32,
}

/// One consumer's configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConsumerSpec {
    /// Where to receive from.
    pub destination: Destination,
    /// Plain or durable subscription.
    pub subscription: Subscription,
    /// Message selector, if any.
    pub selector: Option<String>,
    /// Session mode (transacted or an acknowledgement mode).
    pub session_mode: SessionMode,
    /// For transacted sessions: commit every `n` receives. For
    /// client-acknowledge sessions: acknowledge every `n` receives.
    pub batch: u32,
    /// Optional disconnect/reconnect cycling.
    pub reconnect: Option<ReconnectSpec>,
    /// Simulated per-message processing time: the consumer pauses this
    /// long after each receive. Non-zero think time throttles consumption
    /// so a backlog forms — the condition under which priority delivery
    /// (Property 4) becomes observable.
    pub think_time: Duration,
}

impl ConsumerSpec {
    /// An auto-acknowledge consumer with no selector.
    pub fn auto(destination: Destination) -> Self {
        Self {
            destination,
            subscription: Subscription::Plain,
            selector: None,
            session_mode: SessionMode::AutoAcknowledge,
            batch: 1,
            reconnect: None,
            think_time: Duration::ZERO,
        }
    }

    /// Returns a copy using a durable subscription of the given name.
    pub fn durable(mut self, name: impl Into<String>) -> Self {
        self.subscription = Subscription::Durable { name: name.into() };
        self
    }

    /// Returns a copy with a message selector.
    pub fn with_selector(mut self, selector: impl Into<String>) -> Self {
        self.selector = Some(selector.into());
        self
    }

    /// Returns a copy with the given session mode and batch size.
    pub fn with_mode(mut self, mode: SessionMode, batch: u32) -> Self {
        self.session_mode = mode;
        self.batch = batch.max(1);
        self
    }

    /// Returns a copy with disconnect/reconnect cycling.
    pub fn with_reconnect(mut self, reconnect: ReconnectSpec) -> Self {
        self.reconnect = Some(reconnect);
        self
    }

    /// Returns a copy with the given per-message think time.
    pub fn with_think_time(mut self, think_time: Duration) -> Self {
        self.think_time = think_time;
        self
    }
}

/// A harness node: a group of producers and consumers that share a
/// connection (paper §4: "producers and consumers are grouped into nodes,
/// which can be configured to share resources such as JMS connections or
/// sessions").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Node name, used in client ids.
    pub name: String,
    /// Clock skew of this node relative to true time, nanoseconds
    /// (models imperfect NTP synchronisation; paper footnote 6/7).
    pub clock_skew_nanos: i64,
    /// When `true`, every producer and consumer on the node shares one
    /// connection (each still gets its own session) — the paper's
    /// "nodes … can be configured to share resources such as JMS
    /// connections or sessions". Incompatible with crash plans, which
    /// need per-driver reconnection.
    pub share_connection: bool,
    /// Producers on this node.
    pub producers: Vec<ProducerSpec>,
    /// Consumers on this node.
    pub consumers: Vec<ConsumerSpec>,
}

impl NodeSpec {
    /// An empty node.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            clock_skew_nanos: 0,
            share_connection: false,
            producers: Vec::new(),
            consumers: Vec::new(),
        }
    }

    /// Makes every driver on this node share one connection.
    pub fn sharing_connection(mut self) -> Self {
        self.share_connection = true;
        self
    }

    /// Adds a producer.
    pub fn producer(mut self, spec: ProducerSpec) -> Self {
        self.producers.push(spec);
        self
    }

    /// Adds a consumer.
    pub fn consumer(mut self, spec: ConsumerSpec) -> Self {
        self.consumers.push(spec);
        self
    }

    /// Sets the node's clock skew.
    pub fn with_clock_skew(mut self, skew_nanos: i64) -> Self {
        self.clock_skew_nanos = skew_nanos;
        self
    }
}

/// A broker-crash plan: the paper's future-work feature for fully testing
/// persistent delivery.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrashPlan {
    /// Crash this long after the test starts.
    pub crash_after: Duration,
    /// Recover this long after the crash.
    pub down_for: Duration,
}

/// The fault plan a scenario declares for the provider under test —
/// the harness-level mirror of [`jmst_broker::FaultSpec`], plus the
/// redelivery bound. Scenarios declare it in a `[faults]` section; the
/// provider factory applies it when building the broker.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of the fault engine's deterministic randomness.
    pub seed: u64,
    /// Probability a routed message is silently dropped.
    pub drop_probability: f64,
    /// Probability a routed message is duplicated.
    pub duplicate_probability: f64,
    /// Probability a routed message is held back (reordered).
    pub reorder_probability: f64,
    /// How long a held-back message is delayed.
    pub reorder_delay: Duration,
    /// Probability a phantom message is forged alongside a real one.
    pub forge_probability: f64,
    /// Probability a connection attempt is refused.
    pub connect_failure_probability: f64,
    /// Probability a send is rejected with a provider error.
    pub send_error_probability: f64,
    /// Probability an operation stalls for `stall_duration`.
    pub stall_probability: f64,
    /// How long a stalled operation blocks.
    pub stall_duration: Duration,
    /// Probability a client acknowledgement is silently lost.
    pub ack_loss_probability: f64,
    /// The broker's redelivery bound: after this many redeliveries a
    /// message is parked on the dead-letter queue instead.
    pub max_redeliveries: Option<u32>,
    /// Deliberately deliver expired messages (a Property 5 defect — the
    /// scenario-level mirror of [`BrokerConfig::ignoring_expiry`](jmst_broker::BrokerConfig::ignoring_expiry)).
    #[serde(default)]
    pub ignore_expiry: bool,
    /// Deliberately deliver strict-FIFO regardless of priority (a
    /// Property 4 defect).
    #[serde(default)]
    pub ignore_priority: bool,
    /// Deliberately lose persistent messages on a broker crash (a
    /// Property 2 defect under a `[crash]` plan).
    #[serde(default)]
    pub lose_persistent_on_crash: bool,
    /// Simulated broker→consumer delivery latency: a message becomes
    /// visible this long after it is routed. Gives expiry scenarios a
    /// latency floor so short time-to-lives are expected to expire.
    #[serde(default)]
    pub delivery_delay: Duration,
}

impl FaultPlan {
    /// A plan injecting nothing.
    pub fn none() -> Self {
        Self {
            seed: 0,
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            reorder_probability: 0.0,
            reorder_delay: Duration::from_millis(5),
            forge_probability: 0.0,
            connect_failure_probability: 0.0,
            send_error_probability: 0.0,
            stall_probability: 0.0,
            stall_duration: Duration::from_millis(2),
            ack_loss_probability: 0.0,
            max_redeliveries: None,
            ignore_expiry: false,
            ignore_priority: false,
            lose_persistent_on_crash: false,
            delivery_delay: Duration::ZERO,
        }
    }

    /// `true` when the plan weakens the broker in any way — injects a
    /// probabilistic fault, bounds redelivery, disables an enforcement
    /// switch, or delays delivery.
    pub fn is_active(&self) -> bool {
        self.drop_probability > 0.0
            || self.duplicate_probability > 0.0
            || self.reorder_probability > 0.0
            || self.forge_probability > 0.0
            || self.connect_failure_probability > 0.0
            || self.send_error_probability > 0.0
            || self.stall_probability > 0.0
            || self.ack_loss_probability > 0.0
            || self.max_redeliveries.is_some()
            || self.ignore_expiry
            || self.ignore_priority
            || self.lose_persistent_on_crash
            || !self.delivery_delay.is_zero()
    }

    /// The broker-layer fault specification this plan describes.
    ///
    /// # Errors
    ///
    /// Returns the broker's typed validation error when a probability is
    /// NaN, negative, or above 1.0.
    pub fn to_fault_spec(&self) -> Result<jmst_broker::FaultSpec, jmst_broker::InvalidFaultSpec> {
        let mut faults = jmst_broker::FaultSpec::none().seeded(self.seed);
        faults.drop_probability = self.drop_probability;
        faults.duplicate_probability = self.duplicate_probability;
        faults.reorder_probability = self.reorder_probability;
        faults.reorder_delay = self.reorder_delay;
        faults.forge_probability = self.forge_probability;
        faults.connect_failure_probability = self.connect_failure_probability;
        faults.send_error_probability = self.send_error_probability;
        faults.stall_probability = self.stall_probability;
        faults.stall_duration = self.stall_duration;
        faults.ack_loss_probability = self.ack_loss_probability;
        faults.validate()?;
        Ok(faults)
    }
}

/// How the harness executes a test's producer and consumer drivers
/// (scenario key `drivers = thread|reactor` in the `[test]` section).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum DriverMode {
    /// One OS thread per driver — the original closed-loop harness and
    /// the compatibility baseline the reactor mode is differentially
    /// tested against.
    #[default]
    Thread,
    /// Drivers run as poll-driven state-machine tasks on one shared
    /// [`jmst_reactor`] worker pool: the same RetryPolicy, fault
    /// handling, transacted batching, reconnect cycling, and per-run
    /// deadline semantics, at a fraction of the thread count.
    Reactor,
}

/// Where a test's drivers execute relative to the scheduling prince.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum TransportMode {
    /// Drivers run as threads inside the prince's own process (the
    /// default, and the only mode the in-process `DaemonPrince` uses).
    #[default]
    Thread,
    /// Drivers run in a separate worker process spawned by the prince
    /// and controlled over a framed Unix-socket protocol; killing the
    /// worker is a *real* crash fault.
    Process,
}

/// How the prince hosts a test's drivers and whether the campaign is
/// journaled/resumable (scenario `[transport]` section).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransportSpec {
    /// Thread (in-process) or process (worker subprocess) execution
    /// (scenario key `mode = thread|process`).
    #[serde(default)]
    pub mode: TransportMode,
    /// Unix socket path the worker connects back on (scenario key
    /// `socket`). `None` lets the prince pick a private path under the
    /// temp directory. An explicit path is not unlinked before binding:
    /// if a file already exists there, the test is invalid.
    #[serde(default)]
    pub socket: Option<String>,
    /// How many times a dead worker is respawned (with exponential
    /// backoff) before the test is abandoned as inconclusive (scenario
    /// key `respawn_limit`). Defaults to 2; the wire protocol always
    /// carries the field explicitly.
    #[serde(default)]
    pub respawn_limit: u32,
    /// Campaign journal file path (scenario key `journal`). `None`
    /// disables journaling — and with it, resume.
    #[serde(default)]
    pub journal: Option<String>,
    /// Resume an interrupted campaign from this spec's journal instead
    /// of starting over (scenario key `resume = on`).
    #[serde(default)]
    pub resume: bool,
}

impl TransportSpec {
    fn default_respawn_limit() -> u32 {
        2
    }

    /// In-process threads, no journal — the implicit transport of every
    /// scenario that has no `[transport]` section.
    pub fn thread() -> Self {
        Self::default()
    }

    /// Worker-process execution with the default respawn limit.
    pub fn process() -> Self {
        Self {
            mode: TransportMode::Process,
            ..Self::default()
        }
    }

    /// Pins the worker control socket path.
    pub fn with_socket(mut self, socket: impl Into<String>) -> Self {
        self.socket = Some(socket.into());
        self
    }

    /// Sets the worker respawn limit.
    pub fn with_respawn_limit(mut self, limit: u32) -> Self {
        self.respawn_limit = limit;
        self
    }

    /// Enables journaling to the given path.
    pub fn with_journal(mut self, journal: impl Into<String>) -> Self {
        self.journal = Some(journal.into());
        self
    }

    /// Requests campaign resume from the journal.
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// `true` when every field has its default value (no `[transport]`
    /// section needs to be serialized).
    pub fn is_default(&self) -> bool {
        *self == Self::default()
    }
}

impl Default for TransportSpec {
    fn default() -> Self {
        Self {
            mode: TransportMode::default(),
            socket: None,
            respawn_limit: Self::default_respawn_limit(),
            journal: None,
            resume: false,
        }
    }
}

/// A complete test specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TestSpec {
    /// Test name for reports.
    pub name: String,
    /// Seed for all workload randomness.
    pub seed: u64,
    /// Warm-up period before measurements start.
    pub warm_up: Duration,
    /// Measured run period.
    pub run: Duration,
    /// Maximum warm-down: how long consumers may take to drain the
    /// backlog after producers stop.
    pub warm_down: Duration,
    /// How long a consumer waits with no deliveries (after producers have
    /// stopped) before concluding the backlog is drained.
    pub drain_quiet: Duration,
    /// The nodes.
    pub nodes: Vec<NodeSpec>,
    /// Optional broker crash injection.
    pub crash: Option<CrashPlan>,
    /// Optional provider fault plan (applied by the provider factory).
    pub faults: Option<FaultPlan>,
    /// How drivers retry failed provider operations.
    pub retry: crate::retry::RetryPolicy,
    /// Stop the run at the first live-decidable violation (scenario key
    /// `fail_fast = on`): the daemon prince cancels the drivers and
    /// salvages a partial verdict instead of finishing the full run.
    pub fail_fast: bool,
    /// Drive producers open-loop (scenario key `open_loop = on`): each
    /// producer becomes a set of virtual clients multiplexed onto the
    /// load engine, the next send is scheduled from the previous
    /// *intended* send time rather than from when the previous send
    /// completed, and retries never move the schedule — so back-pressure
    /// shows up as accrued lag instead of being silently absorbed
    /// (coordinated omission).
    #[serde(default)]
    pub open_loop: bool,
    /// Aggregate open-loop arrival rate in messages per second
    /// (scenario key `arrival_rate`), split evenly across each
    /// producer's virtual clients. `None` keeps every producer's own
    /// workload rate. Only meaningful with `open_loop`.
    #[serde(default)]
    pub arrival_rate: Option<f64>,
    /// Number of virtual clients each producer spec expands into under
    /// `open_loop` (scenario key `clients`). `None` means one virtual
    /// client per producer — the same population as the closed loop.
    #[serde(default)]
    pub clients: Option<u32>,
    /// Number of destination shards the broker under test partitions its
    /// destinations across (scenario key `shards`). `None` keeps the
    /// provider's own default (for the reference broker: the machine's
    /// parallelism, or `JMST_TEST_SHARDS`). Pinning it in the scenario
    /// makes shard count a first-class corpus axis.
    #[serde(default)]
    pub shards: Option<u32>,
    /// How producer/consumer drivers execute (scenario key
    /// `drivers = thread|reactor`). `Thread` is the original
    /// one-OS-thread-per-driver harness; `Reactor` runs every driver as
    /// a poll-driven state machine on one shared reactor worker pool.
    #[serde(default)]
    pub drivers: DriverMode,
    /// Bounded per-destination backlog for the broker under test
    /// (scenario key `queue_bound`): pending sends beyond this depth are
    /// rejected with a resource-exhausted error instead of growing the
    /// queue without limit. `None` keeps the classic unbounded queues.
    #[serde(default)]
    pub queue_bound: Option<usize>,
    /// Named QoS property declarations (scenario `[properties]` section,
    /// one `name = declaration` DSL line each). Statically verified by
    /// lint and compiled onto the streaming checker core for the run.
    #[serde(default)]
    pub properties: Vec<jmst_props::PropertySpec>,
    /// Where the drivers execute and whether the campaign journals
    /// (scenario `[transport]` section). Defaults to in-process threads
    /// with no journal.
    #[serde(default)]
    pub transport: TransportSpec,
}

impl TestSpec {
    /// A test with the given name and sensible defaults (50 ms warm-up,
    /// 500 ms run, 2 s warm-down cap).
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            seed: 0,
            warm_up: Duration::from_millis(50),
            run: Duration::from_millis(500),
            warm_down: Duration::from_secs(2),
            drain_quiet: Duration::from_millis(150),
            nodes: Vec::new(),
            crash: None,
            faults: None,
            retry: crate::retry::RetryPolicy::default(),
            fail_fast: false,
            open_loop: false,
            arrival_rate: None,
            clients: None,
            shards: None,
            drivers: DriverMode::default(),
            queue_bound: None,
            properties: Vec::new(),
            transport: TransportSpec::default(),
        }
    }

    /// Sets the workload seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the three periods.
    pub fn with_periods(mut self, warm_up: Duration, run: Duration, warm_down: Duration) -> Self {
        self.warm_up = warm_up;
        self.run = run;
        self.warm_down = warm_down;
        self
    }

    /// Adds a node.
    pub fn node(mut self, node: NodeSpec) -> Self {
        self.nodes.push(node);
        self
    }

    /// Schedules a broker crash.
    pub fn with_crash(mut self, crash: CrashPlan) -> Self {
        self.crash = Some(crash);
        self
    }

    /// Declares the provider fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Sets the driver retry policy.
    pub fn with_retry(mut self, retry: crate::retry::RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Stops the run at the first live-decidable violation.
    pub fn with_fail_fast(mut self, fail_fast: bool) -> Self {
        self.fail_fast = fail_fast;
        self
    }

    /// Drives producers open-loop through the load engine.
    pub fn open_loop(mut self) -> Self {
        self.open_loop = true;
        self
    }

    /// Sets the aggregate open-loop arrival rate (messages per second).
    pub fn with_arrival_rate(mut self, rate_per_sec: f64) -> Self {
        self.arrival_rate = Some(rate_per_sec);
        self
    }

    /// Expands each producer into `clients` open-loop virtual clients.
    pub fn with_clients(mut self, clients: u32) -> Self {
        self.clients = Some(clients);
        self
    }

    /// Pins the provider's destination shard count.
    pub fn with_shards(mut self, shards: u32) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Selects how the drivers execute (threads vs reactor tasks).
    pub fn with_drivers(mut self, drivers: DriverMode) -> Self {
        self.drivers = drivers;
        self
    }

    /// Runs the drivers as reactor state-machine tasks.
    pub fn reactor_drivers(mut self) -> Self {
        self.drivers = DriverMode::Reactor;
        self
    }

    /// Bounds the broker's per-destination pending backlog.
    pub fn with_queue_bound(mut self, bound: usize) -> Self {
        self.queue_bound = Some(bound);
        self
    }

    /// Sets the driver transport (thread vs worker process, journal).
    pub fn with_transport(mut self, transport: TransportSpec) -> Self {
        self.transport = transport;
        self
    }

    /// Declares one named QoS property.
    pub fn property(mut self, property: jmst_props::PropertySpec) -> Self {
        self.properties.push(property);
        self
    }

    /// Replaces the declared QoS property list.
    pub fn with_properties(mut self, properties: Vec<jmst_props::PropertySpec>) -> Self {
        self.properties = properties;
        self
    }

    /// Builds the reference-broker configuration this spec's fault plan
    /// describes: a correct broker plus the declared faults and
    /// redelivery bound. Specs without a `[faults]` section get the
    /// plain correct configuration (the clean fast path).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when a fault probability is out
    /// of range (surfacing the broker's typed validation error).
    pub fn broker_config(&self) -> Result<jmst_broker::BrokerConfig, String> {
        let mut config = jmst_broker::BrokerConfig::correct();
        if let Some(plan) = &self.faults {
            config = config.with_faults(plan.to_fault_spec().map_err(|e| e.to_string())?);
            if let Some(bound) = plan.max_redeliveries {
                config = config.with_max_redeliveries(bound);
            }
            if plan.ignore_expiry {
                config = config.ignoring_expiry();
            }
            if plan.ignore_priority {
                config = config.ignoring_priority();
            }
            if plan.lose_persistent_on_crash {
                config = config.losing_persistent_on_crash();
            }
            if !plan.delivery_delay.is_zero() {
                config = config.with_delivery_delay(plan.delivery_delay);
            }
        }
        if let Some(shards) = self.shards {
            config = config.with_shards(shards as usize);
        }
        if let Some(bound) = self.queue_bound {
            config = config.with_queue_bound(bound);
        }
        Ok(config)
    }

    /// Total number of producers across all nodes.
    pub fn producer_count(&self) -> usize {
        self.nodes.iter().map(|node| node.producers.len()).sum()
    }

    /// Total number of consumers across all nodes.
    pub fn consumer_count(&self) -> usize {
        self.nodes.iter().map(|node| node.consumers.len()).sum()
    }

    /// Validates the specification.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found:
    /// durable subscriptions on queue destinations, selectors that do not
    /// parse or violate the JMS type rules, producer properties no
    /// provider would accept, or an empty test.
    pub fn validate(&self) -> Result<(), String> {
        if self
            .nodes
            .iter()
            .all(|n| n.producers.is_empty() && n.consumers.is_empty())
        {
            return Err("test has no producers or consumers".to_owned());
        }
        if let Some(faults) = &self.faults {
            faults
                .to_fault_spec()
                .map_err(|error| format!("fault plan: {error}"))?;
        }
        // `arrival_rate`/`clients` without `open_loop = on` are tolerated
        // (the keys are simply ignored by the closed-loop drivers) so the
        // lint can warn with a stable rule id instead of parsing failing.
        if let Some(rate) = self.arrival_rate {
            if !rate.is_finite() || rate <= 0.0 {
                return Err(format!(
                    "arrival_rate must be finite and positive, got {rate}"
                ));
            }
        }
        if self.clients == Some(0) {
            return Err("clients must be at least 1".to_owned());
        }
        if self.shards == Some(0) {
            return Err("shards must be at least 1".to_owned());
        }
        for node in &self.nodes {
            if self.open_loop && node.share_connection && !node.producers.is_empty() {
                return Err(format!(
                    "node {}: open_loop producers are multiplexed onto engine \
                     workers that open their own connections; they cannot \
                     share the node connection",
                    node.name
                ));
            }
            if node.share_connection && self.crash.is_some() {
                return Err(format!(
                    "node {}: shared connections do not support crash plans \
                     (drivers cannot reconnect independently)",
                    node.name
                ));
            }
            if node.share_connection
                && node
                    .consumers
                    .iter()
                    .filter(|c| matches!(c.subscription, Subscription::Durable { .. }))
                    .count()
                    > 1
            {
                return Err(format!(
                    "node {}: a shared connection has one client id, so at most \
                     one durable subscription fits on it",
                    node.name
                ));
            }
            for consumer in &node.consumers {
                if node.share_connection && consumer.reconnect.is_some() {
                    return Err(format!(
                        "node {}: reconnect cycling needs a per-consumer \
                         connection, not a shared one",
                        node.name
                    ));
                }
                if matches!(consumer.subscription, Subscription::Durable { .. })
                    && consumer.destination.is_queue()
                {
                    return Err(format!(
                        "node {}: durable subscription on queue destination {}",
                        node.name, consumer.destination
                    ));
                }
                if let Some(selector) = &consumer.selector {
                    match jmst_api::selector::Selector::parse(selector) {
                        Err(error) => {
                            return Err(format!(
                                "node {}: invalid selector {selector:?}: {error}",
                                node.name
                            ));
                        }
                        Ok(parsed) => {
                            // JMS providers must reject ill-typed selectors
                            // at subscription time; reject them before the
                            // test even starts.
                            if let Some(error) = parsed.analyze().error {
                                return Err(format!(
                                    "node {}: ill-typed selector {selector:?}: {error}",
                                    node.name
                                ));
                            }
                        }
                    }
                }
            }
            for producer in &node.producers {
                if self.open_loop && producer.transacted_batch.is_some() {
                    return Err(format!(
                        "node {}: open_loop producers cannot use transacted \
                         sessions (a commit boundary closes the loop)",
                        node.name
                    ));
                }
                if self.arrival_rate.is_some()
                    && matches!(producer.workload, ArrivalProcess::Burst { .. })
                {
                    return Err(format!(
                        "node {}: arrival_rate cannot rescale a burst workload \
                         (burst size and interval are fixed); use a steady or \
                         poisson profile",
                        node.name
                    ));
                }
                for (name, value) in &producer.properties {
                    if !value.is_valid_property() {
                        return Err(format!(
                            "node {}: producer property {name:?} has a value no \
                             provider accepts as a message property",
                            node.name
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue() -> Destination {
        Destination::queue("q")
    }

    #[test]
    fn builder_chain_constructs_full_spec() {
        let spec = TestSpec::new("t")
            .with_seed(7)
            .with_periods(
                Duration::from_millis(10),
                Duration::from_millis(100),
                Duration::from_millis(500),
            )
            .node(
                NodeSpec::new("n0")
                    .producer(
                        ProducerSpec::steady(queue(), 100.0, 256)
                            .with_priority(Priority::HIGHEST)
                            .with_delivery_mode(DeliveryMode::NonPersistent)
                            .with_ttl(TimeToLive::from_millis(10))
                            .with_body(BodyKind::Bytes)
                            .transacted(5)
                            .limited(50),
                    )
                    .consumer(
                        ConsumerSpec::auto(queue()).with_mode(SessionMode::ClientAcknowledge, 10),
                    )
                    .with_clock_skew(1_000_000),
            )
            .with_crash(CrashPlan {
                crash_after: Duration::from_millis(60),
                down_for: Duration::from_millis(20),
            });
        assert_eq!(spec.producer_count(), 1);
        assert_eq!(spec.consumer_count(), 1);
        assert_eq!(spec.seed, 7);
        assert!(spec.crash.is_some());
        assert_eq!(spec.nodes[0].clock_skew_nanos, 1_000_000);
        assert!(spec.validate().is_ok());
        let producer = &spec.nodes[0].producers[0];
        assert_eq!(producer.transacted_batch, Some(5));
        assert_eq!(producer.message_limit, Some(50));
    }

    #[test]
    fn validation_rejects_empty_tests() {
        assert!(TestSpec::new("empty").validate().is_err());
        assert!(TestSpec::new("empty")
            .node(NodeSpec::new("n"))
            .validate()
            .is_err());
    }

    #[test]
    fn validation_rejects_durable_queue_subscription() {
        let spec = TestSpec::new("bad")
            .node(NodeSpec::new("n").consumer(ConsumerSpec::auto(queue()).durable("s")));
        let error = spec.validate().unwrap_err();
        assert!(error.contains("durable subscription on queue"));
    }

    #[test]
    fn validation_rejects_bad_selector() {
        let spec = TestSpec::new("bad")
            .node(NodeSpec::new("n").consumer(ConsumerSpec::auto(queue()).with_selector("a = ")));
        let error = spec.validate().unwrap_err();
        assert!(error.contains("invalid selector"));
    }

    #[test]
    fn transacted_batch_is_at_least_one() {
        let producer = ProducerSpec::steady(queue(), 1.0, 1).transacted(0);
        assert_eq!(producer.transacted_batch, Some(1));
        let consumer = ConsumerSpec::auto(queue()).with_mode(SessionMode::Transacted, 0);
        assert_eq!(consumer.batch, 1);
    }

    #[test]
    fn send_batch_defaults_to_one_and_is_clamped() {
        assert_eq!(ProducerSpec::steady(queue(), 1.0, 1).send_batch, 1);
        assert_eq!(
            ProducerSpec::steady(queue(), 1.0, 1).batched(0).send_batch,
            1
        );
        assert_eq!(
            ProducerSpec::steady(queue(), 1.0, 1).batched(8).send_batch,
            8
        );
    }

    #[test]
    fn open_loop_keys_without_open_loop_are_tolerated() {
        // The keys are ignored by the closed-loop drivers; the lint
        // warns (rule `open-loop-keys-ignored`) instead of validation
        // rejecting the spec.
        let base = || {
            TestSpec::new("ol").node(
                NodeSpec::new("n")
                    .producer(ProducerSpec::steady(queue(), 10.0, 64))
                    .consumer(ConsumerSpec::auto(queue())),
            )
        };
        assert!(base().validate().is_ok());
        assert!(base().open_loop().validate().is_ok());
        assert!(base().with_arrival_rate(100.0).validate().is_ok());
        assert!(base().with_clients(8).validate().is_ok());
        assert!(base()
            .open_loop()
            .with_arrival_rate(100.0)
            .with_clients(8)
            .validate()
            .is_ok());
    }

    #[test]
    fn driver_mode_and_queue_bound_flow_into_the_spec() {
        let spec = TestSpec::new("rx")
            .reactor_drivers()
            .with_queue_bound(64)
            .node(
                NodeSpec::new("n")
                    .producer(ProducerSpec::steady(queue(), 10.0, 64))
                    .consumer(ConsumerSpec::auto(queue())),
            );
        assert_eq!(spec.drivers, DriverMode::Reactor);
        assert!(spec.validate().is_ok());
        // A zero bound is a lint error, not a validation error: the
        // broker clamps it, and the lint explains why that is a trap.
        assert!(TestSpec::new("z")
            .with_queue_bound(0)
            .node(NodeSpec::new("n").consumer(ConsumerSpec::auto(queue())))
            .validate()
            .is_ok());
    }

    #[test]
    fn open_loop_rejects_bad_rate_clients_and_transactions() {
        let spec = TestSpec::new("bad")
            .open_loop()
            .with_arrival_rate(-1.0)
            .node(NodeSpec::new("n").producer(ProducerSpec::steady(queue(), 10.0, 64)));
        assert!(spec.validate().unwrap_err().contains("finite and positive"));
        let spec = TestSpec::new("bad")
            .open_loop()
            .with_clients(0)
            .node(NodeSpec::new("n").producer(ProducerSpec::steady(queue(), 10.0, 64)));
        assert!(spec.validate().unwrap_err().contains("at least 1"));
        let spec = TestSpec::new("bad").open_loop().node(
            NodeSpec::new("n").producer(ProducerSpec::steady(queue(), 10.0, 64).transacted(4)),
        );
        assert!(spec.validate().unwrap_err().contains("transacted"));
        let burst = ProducerSpec {
            workload: ArrivalProcess::burst(5, Duration::from_millis(50)),
            ..ProducerSpec::steady(queue(), 10.0, 64)
        };
        let spec = TestSpec::new("bad")
            .open_loop()
            .with_arrival_rate(100.0)
            .node(NodeSpec::new("n").producer(burst));
        assert!(spec.validate().unwrap_err().contains("burst workload"));
    }

    #[test]
    fn specs_serialize_round_trip() {
        let spec = TestSpec::new("round-trip").node(
            NodeSpec::new("n")
                .producer(ProducerSpec::steady(queue(), 10.0, 64))
                .consumer(ConsumerSpec::auto(queue())),
        );
        let json = serde_json_like(&spec);
        assert!(json.contains("round-trip"));
    }

    // serde_json is not available offline; exercise Serialize via the
    // debug of the serde data model instead.
    fn serde_json_like(spec: &TestSpec) -> String {
        format!("{spec:?}")
    }
}
