//! Compilation of surviving property declarations onto the streaming
//! checker core: every declaration becomes a [`PropertyChecker`] driven
//! through the same observe/finish lifecycle as the built-ins, so the
//! live watcher, `fail_fast`, batch replay, and divergence checking all
//! work on DSL properties unchanged.
//!
//! The built-in names (`ordered`, `no_duplicates`, …) compile to the
//! very checkers of the analyzer's default table, at their default
//! configuration, so a named built-in row is the default row under
//! another name. The QoS checkers front themselves with a
//! [`TxResolver`] (only committed operations count, judged at their
//! original timestamps) and, where the assertion is windowed, gate
//! samples through the same [`RunWindowTracker`] / [`WindowGate`] pair
//! the performance accumulator uses.

use crate::decl::{CountOp, Guard, LatencyStat, PropertyDecl, PropertySpec};
use jmst_api::id::ConsumerId;
use jmst_core::config::{AnalysisConfig, PriorityConfig};
use jmst_core::defs::selector_accepts_record;
use jmst_core::properties::duplicates::{DuplicatesChecker, RedeliveryBoundChecker};
use jmst_core::properties::expiry::ExpiryCheck;
use jmst_core::properties::integrity::IntegrityChecker;
use jmst_core::properties::ordering::OrderingChecker;
use jmst_core::properties::priority::PriorityChecker;
use jmst_core::properties::required::RequiredChecker;
use jmst_core::stream::{RunWindowTracker, TxResolver, WindowGate};
use jmst_core::{CheckerRegistry, PropertyChecker, Violation};
use jmst_store::event::{Event, EventKind, MessageRecord};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// Compiles a list of (statically verified) properties into a checker
/// registry for [`jmst_core::Analyzer::with_registry`]. Registration
/// order follows declaration order, so report rows line up with the
/// source.
pub fn compile_registry(properties: &[PropertySpec]) -> CheckerRegistry {
    let mut registry = CheckerRegistry::new();
    for property in properties {
        let name = property.name.clone();
        let decl = property.decl.clone();
        registry.register(property.name.clone(), move || compile(&name, &decl));
    }
    registry
}

/// Instantiates one checker for a declaration.
pub fn compile(name: &str, decl: &PropertyDecl) -> Box<dyn PropertyChecker> {
    match decl {
        PropertyDecl::Ordered => Box::new(OrderingChecker::new()),
        PropertyDecl::NoDuplicates => Box::new(DuplicatesChecker::new()),
        PropertyDecl::RedeliveryBound(bound) => Box::new(RedeliveryBoundChecker::new(*bound)),
        PropertyDecl::Required => Box::new(RequiredChecker::new()),
        PropertyDecl::Integrity => Box::new(IntegrityChecker::new()),
        PropertyDecl::Priority => Box::new(PriorityChecker::new(PriorityConfig::default())),
        PropertyDecl::Expiry => Box::new(ExpiryCheck::new(&AnalysisConfig::default())),
        PropertyDecl::Deadline { bound, guard } => Box::new(DeadlineChecker {
            name: name.to_owned(),
            bound: *bound,
            guard: guard.clone(),
            resolver: TxResolver::new(),
            violations: Vec::new(),
        }),
        PropertyDecl::Latency { stat, bound, guard } => Box::new(LatencyChecker {
            name: name.to_owned(),
            stat: *stat,
            bound: *bound,
            guard: guard.clone(),
            resolver: TxResolver::new(),
            window: RunWindowTracker::new(),
            gate: WindowGate::new(),
            samples: Vec::new(),
        }),
        PropertyDecl::Throughput { min_rate, guard } => Box::new(ThroughputChecker {
            name: name.to_owned(),
            min_rate: *min_rate,
            guard: guard.clone(),
            resolver: TxResolver::new(),
            window: RunWindowTracker::new(),
            gate: WindowGate::new(),
            count: 0,
        }),
        PropertyDecl::Fairness { max_ratio, guard } => Box::new(FairnessChecker {
            name: name.to_owned(),
            max_ratio: *max_ratio,
            guard: guard.clone(),
            resolver: TxResolver::new(),
            window: RunWindowTracker::new(),
            gate: WindowGate::new(),
            consumers: BTreeSet::new(),
            counts: BTreeMap::new(),
        }),
        PropertyDecl::ReceiveCount { op, count, guard } => Box::new(ReceiveCountChecker {
            name: name.to_owned(),
            op: *op,
            bound: *count,
            guard: guard.clone(),
            resolver: TxResolver::new(),
            seen: 0,
        }),
    }
}

fn guard_accepts(guard: &Option<Guard>, record: &MessageRecord) -> bool {
    guard
        .as_ref()
        .is_none_or(|guard| selector_accepts_record(guard.selector(), record))
}

/// `deadline DUR`: every committed, guard-matching delivery must arrive
/// within the bound of its send timestamp. Live-decidable — each late
/// delivery convicts on sight.
#[derive(Debug)]
struct DeadlineChecker {
    name: String,
    bound: Duration,
    guard: Option<Guard>,
    resolver: TxResolver,
    violations: Vec<Violation>,
}

impl DeadlineChecker {
    fn ingest(&mut self, event: &Event) {
        if let EventKind::Receive {
            endpoint, record, ..
        } = &event.kind
        {
            if !guard_accepts(&self.guard, record) {
                return;
            }
            let observed = event.at.saturating_since(record.sent_at);
            if observed > self.bound {
                self.violations.push(Violation::DeadlineMissed {
                    property: self.name.clone(),
                    message: record.message,
                    endpoint: endpoint.clone(),
                    deadline: self.bound,
                    observed,
                });
            }
        }
    }
}

impl PropertyChecker for DeadlineChecker {
    fn observe(&mut self, event: &Event) {
        self.resolver
            .push(event)
            .for_each(|event| self.ingest(event));
    }
    fn live_violations(&self) -> usize {
        self.violations.len()
    }
    fn state_bytes(&self) -> usize {
        self.resolver.state_bytes() + self.violations.len() * std::mem::size_of::<Violation>()
    }
    fn finish(self: Box<Self>) -> Vec<Violation> {
        self.violations
    }
}

/// `latency STAT <= DUR`: a delivery-latency statistic over committed,
/// guard-matching deliveries inside the measurement window. Finish-only.
#[derive(Debug)]
struct LatencyChecker {
    name: String,
    stat: LatencyStat,
    bound: Duration,
    guard: Option<Guard>,
    resolver: TxResolver,
    window: RunWindowTracker,
    gate: WindowGate<u64>,
    samples: Vec<u64>,
}

impl LatencyChecker {
    fn ingest(&mut self, event: &Event) {
        if let EventKind::Receive { record, .. } = &event.kind {
            if !guard_accepts(&self.guard, record) {
                return;
            }
            let nanos = event.at.saturating_since(record.sent_at).as_nanos() as u64;
            let samples = &mut self.samples;
            self.gate
                .offer(event.at, nanos, &self.window, |v| samples.push(v));
        }
    }
}

impl PropertyChecker for LatencyChecker {
    fn observe(&mut self, event: &Event) {
        self.window.note(event);
        {
            let samples = &mut self.samples;
            self.gate.drain(&self.window, &mut |v| samples.push(v));
        }
        self.resolver
            .push(event)
            .for_each(|event| self.ingest(event));
    }
    fn state_bytes(&self) -> usize {
        (self.samples.len() + self.gate.len()) * std::mem::size_of::<u64>()
    }
    fn finish(self: Box<Self>) -> Vec<Violation> {
        let mut this = *self;
        let window = this.window.final_window();
        let samples = &mut this.samples;
        this.gate.finish(window, |v| samples.push(v));
        if this.samples.is_empty() {
            return Vec::new();
        }
        this.samples.sort_unstable();
        let n = this.samples.len();
        let value_nanos = match this.stat {
            LatencyStat::Mean => {
                (this.samples.iter().map(|&v| v as u128).sum::<u128>() / n as u128) as u64
            }
            LatencyStat::Max => this.samples[n - 1],
            LatencyStat::P50 => this.samples[percentile_index(n, 0.50)],
            LatencyStat::P95 => this.samples[percentile_index(n, 0.95)],
            LatencyStat::P99 => this.samples[percentile_index(n, 0.99)],
        };
        let value = Duration::from_nanos(value_nanos);
        if value <= this.bound {
            return Vec::new();
        }
        vec![Violation::SloNotMet {
            property: this.name,
            detail: format!(
                "latency {} of {value:?} exceeds the {:?} bound ({n} samples)",
                this.stat.keyword(),
                this.bound
            ),
        }]
    }
}

/// Nearest-rank percentile: the smallest sample with at least `q·n`
/// samples at or below it.
fn percentile_index(n: usize, q: f64) -> usize {
    let rank = (q * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// `throughput >= RATE`: committed, guard-matching deliveries per second
/// over the measurement window. Finish-only.
#[derive(Debug)]
struct ThroughputChecker {
    name: String,
    min_rate: f64,
    guard: Option<Guard>,
    resolver: TxResolver,
    window: RunWindowTracker,
    gate: WindowGate<()>,
    count: u64,
}

impl ThroughputChecker {
    fn ingest(&mut self, event: &Event) {
        if let EventKind::Receive { record, .. } = &event.kind {
            if !guard_accepts(&self.guard, record) {
                return;
            }
            let count = &mut self.count;
            self.gate
                .offer(event.at, (), &self.window, |()| *count += 1);
        }
    }
}

impl PropertyChecker for ThroughputChecker {
    fn observe(&mut self, event: &Event) {
        self.window.note(event);
        self.resolver
            .push(event)
            .for_each(|event| self.ingest(event));
    }
    fn state_bytes(&self) -> usize {
        self.gate.len() * std::mem::size_of::<jmst_api::time::Timestamp>()
    }
    fn finish(self: Box<Self>) -> Vec<Violation> {
        let mut this = *self;
        let window = this.window.final_window();
        let count = &mut this.count;
        this.gate.finish(window, |()| *count += 1);
        let seconds = window.1.saturating_since(window.0).as_secs_f64();
        let rate = if seconds > 0.0 {
            this.count as f64 / seconds
        } else if this.count > 0 {
            f64::INFINITY
        } else {
            0.0
        };
        if rate >= this.min_rate {
            return Vec::new();
        }
        vec![Violation::SloNotMet {
            property: this.name,
            detail: format!(
                "throughput of {rate:.1} msg/s over the {seconds:.3}s window is below \
                 the {:?} msg/s floor ({} deliveries)",
                this.min_rate, this.count
            ),
        }]
    }
}

/// `fairness <= RATIO`: the max/min ratio of per-consumer delivery
/// counts over the measurement window, across every consumer the trace
/// created. A consumer that received nothing while another received
/// something is an infinite ratio. Finish-only.
#[derive(Debug)]
struct FairnessChecker {
    name: String,
    max_ratio: f64,
    guard: Option<Guard>,
    resolver: TxResolver,
    window: RunWindowTracker,
    gate: WindowGate<ConsumerId>,
    consumers: BTreeSet<ConsumerId>,
    counts: BTreeMap<ConsumerId, u64>,
}

impl FairnessChecker {
    fn ingest(&mut self, event: &Event) {
        if let EventKind::Receive {
            consumer, record, ..
        } = &event.kind
        {
            if !guard_accepts(&self.guard, record) {
                return;
            }
            let counts = &mut self.counts;
            self.gate.offer(event.at, *consumer, &self.window, |c| {
                *counts.entry(c).or_insert(0) += 1;
            });
        }
    }
}

impl PropertyChecker for FairnessChecker {
    fn observe(&mut self, event: &Event) {
        self.window.note(event);
        if let EventKind::ConsumerCreated { consumer, .. } = &event.kind {
            self.consumers.insert(*consumer);
        }
        self.resolver
            .push(event)
            .for_each(|event| self.ingest(event));
    }
    fn state_bytes(&self) -> usize {
        (self.consumers.len() + self.counts.len() + self.gate.len())
            * std::mem::size_of::<(ConsumerId, u64)>()
    }
    fn finish(self: Box<Self>) -> Vec<Violation> {
        let mut this = *self;
        let window = this.window.final_window();
        let counts = &mut this.counts;
        this.gate.finish(window, |c| {
            *counts.entry(c).or_insert(0) += 1;
        });
        if this.consumers.len() < 2 {
            return Vec::new();
        }
        let per_consumer: Vec<u64> = this
            .consumers
            .iter()
            .map(|c| this.counts.get(c).copied().unwrap_or(0))
            .collect();
        let max = *per_consumer.iter().max().expect(">= 2 consumers");
        let min = *per_consumer.iter().min().expect(">= 2 consumers");
        let violated = if min == 0 {
            max > 0
        } else {
            max as f64 / min as f64 > this.max_ratio
        };
        if !violated {
            return Vec::new();
        }
        let ratio = if min == 0 {
            "inf".to_owned()
        } else {
            format!("{:.2}", max as f64 / min as f64)
        };
        vec![Violation::SloNotMet {
            property: this.name,
            detail: format!(
                "per-consumer delivery counts span {min}..{max} across {} consumers \
                 (ratio {ratio}, bound {:?})",
                this.consumers.len(),
                this.max_ratio
            ),
        }]
    }
}

/// `receives >= N` / `receives <= N`: whole-trace committed delivery
/// count. The upper bound is live-decidable (the first excess delivery
/// convicts); the lower bound is finish-only.
#[derive(Debug)]
struct ReceiveCountChecker {
    name: String,
    op: CountOp,
    bound: u64,
    guard: Option<Guard>,
    resolver: TxResolver,
    seen: u64,
}

impl ReceiveCountChecker {
    fn ingest(&mut self, event: &Event) {
        if let EventKind::Receive { record, .. } = &event.kind {
            if guard_accepts(&self.guard, record) {
                self.seen += 1;
            }
        }
    }

    fn exceeded(&self) -> bool {
        self.op == CountOp::AtMost && self.seen > self.bound
    }
}

impl PropertyChecker for ReceiveCountChecker {
    fn observe(&mut self, event: &Event) {
        self.resolver
            .push(event)
            .for_each(|event| self.ingest(event));
    }
    fn live_violations(&self) -> usize {
        usize::from(self.exceeded())
    }
    fn state_bytes(&self) -> usize {
        self.resolver.state_bytes()
    }
    fn finish(self: Box<Self>) -> Vec<Violation> {
        let this = *self;
        let (violated, detail) = match this.op {
            CountOp::AtMost => (
                this.seen > this.bound,
                format!(
                    "{} deliveries observed, above the <= {} bound",
                    this.seen, this.bound
                ),
            ),
            CountOp::AtLeast => (
                this.seen < this.bound,
                format!(
                    "only {} deliveries observed, below the >= {} bound",
                    this.seen, this.bound
                ),
            ),
        };
        if !violated {
            return Vec::new();
        }
        vec![Violation::SloNotMet {
            property: this.name,
            detail,
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decl::parse_properties;
    use jmst_core::{AnalysisConfig, Analyzer, PropertyKind};
    use jmst_store::event::Phase;
    use jmst_store::trace::Trace;

    // Minimal local trace builder (the core crate's test_support is
    // crate-private).
    use jmst_api::destination::{Destination, EndpointId, QueueName};
    use jmst_api::id::{MessageId, ProducerId, SessionId};
    use jmst_api::modes::{DeliveryMode, Priority, TimeToLive};
    use jmst_api::properties::Properties;
    use jmst_api::time::Timestamp;

    fn record(message: u64, producer: u64, sequence: u64, sent_at: Timestamp) -> MessageRecord {
        MessageRecord {
            message: MessageId::from_raw(message),
            producer: ProducerId::from_raw(producer),
            sequence,
            destination: Destination::Queue(QueueName::new("q")),
            priority: Priority::default(),
            delivery_mode: DeliveryMode::NonPersistent,
            time_to_live: TimeToLive::FOREVER,
            sent_at,
            body_bytes: 16,
            redelivered: false,
            delivery_count: 1,
            properties: Properties::new(),
        }
    }

    struct T {
        events: Vec<Event>,
        seq: u64,
    }

    impl T {
        fn new() -> Self {
            Self {
                events: Vec::new(),
                seq: 0,
            }
        }
        fn push(&mut self, at_nanos: u64, kind: EventKind) -> &mut Self {
            self.seq += 1;
            self.events.push(Event {
                at: Timestamp::from_nanos(at_nanos),
                seq: self.seq,
                node: jmst_api::id::NodeId::from_raw(0),
                kind,
            });
            self
        }
        fn phase(&mut self, at: u64, phase: Phase) -> &mut Self {
            self.push(at, EventKind::PhaseStarted { phase })
        }
        fn send(&mut self, at: u64, message: u64, sequence: u64) -> &mut Self {
            let record = record(message, 1, sequence, Timestamp::from_nanos(at));
            self.push(
                at,
                EventKind::Send {
                    record,
                    session: SessionId::from_raw(1),
                    tx: None,
                },
            )
        }
        fn receive(&mut self, at: u64, sent_at: u64, message: u64, sequence: u64) -> &mut Self {
            self.receive_by(at, sent_at, message, sequence, 7)
        }
        fn receive_by(
            &mut self,
            at: u64,
            sent_at: u64,
            message: u64,
            sequence: u64,
            consumer: u64,
        ) -> &mut Self {
            let record = record(message, 1, sequence, Timestamp::from_nanos(sent_at));
            self.push(
                at,
                EventKind::Receive {
                    consumer: jmst_api::id::ConsumerId::from_raw(consumer),
                    endpoint: EndpointId::for_queue(QueueName::new("q")),
                    record,
                    session: SessionId::from_raw(2),
                    tx: None,
                },
            )
        }
        fn build(&mut self) -> Trace {
            Trace::from_events(self.events.clone())
        }
    }

    const MS: u64 = 1_000_000;

    fn analyze(properties_text: &str, trace: &Trace) -> jmst_core::AnalysisReport {
        let properties = parse_properties(properties_text).expect("parses");
        let config = AnalysisConfig {
            check_integrity: false,
            check_required: false,
            check_ordering: false,
            check_priority: false,
            check_expiry: false,
            check_duplicates: false,
            redelivery_bound: None,
            ..AnalysisConfig::default()
        };
        Analyzer::with_config(config)
            .with_registry(compile_registry(&properties))
            .analyze(trace)
    }

    #[test]
    fn deadline_convicts_late_deliveries_only() {
        let trace = T::new()
            .phase(0, Phase::Run)
            .send(10 * MS, 1, 0)
            .receive(20 * MS, 10 * MS, 1, 0) // 10ms: fine
            .send(30 * MS, 2, 1)
            .receive(250 * MS, 30 * MS, 2, 1) // 220ms: late
            .phase(400 * MS, Phase::WarmDown)
            .build();
        let report = analyze("late = deadline 100ms", &trace);
        assert_eq!(report.count_of(PropertyKind::Deadline), 1);
        assert_eq!(report.named.len(), 1);
        assert_eq!(report.named[0].violations, 1);
        let clean = analyze("late = deadline 300ms", &trace);
        assert!(clean.passed(), "{clean}");
        assert_eq!(clean.named[0].violations, 0);
    }

    #[test]
    fn deadline_is_live_decidable() {
        let properties = parse_properties("late = deadline 50ms").expect("parses");
        let analyzer = Analyzer::new().with_registry(compile_registry(&properties));
        let mut streaming = analyzer.streaming();
        let trace = T::new().send(0, 1, 0).receive(200 * MS, 0, 1, 0).build();
        let mut live = 0;
        for event in &trace {
            streaming.observe(event);
            live = live.max(streaming.violations_so_far());
        }
        assert!(live >= 1, "late delivery should surface mid-stream");
    }

    #[test]
    fn guard_filters_deadline_scope() {
        let trace = T::new().send(0, 1, 0).receive(300 * MS, 0, 1, 0).build();
        // The guard excludes everything this trace carries.
        let report = analyze("late = deadline 50ms where JMSPriority > 8", &trace);
        assert!(report.passed(), "{report}");
        let report = analyze("late = deadline 50ms where JMSPriority >= 0", &trace);
        assert_eq!(report.count_of(PropertyKind::Deadline), 1);
    }

    #[test]
    fn latency_stat_bounds_the_window() {
        let mut t = T::new();
        t.phase(0, Phase::Run);
        // 99 fast deliveries, one 400ms straggler.
        for i in 0..99u64 {
            let at = (10 + i) * MS;
            t.send(at, i + 1, i);
            t.receive(at + MS, at, i + 1, i);
        }
        t.send(150 * MS, 200, 99);
        t.receive(550 * MS, 150 * MS, 200, 99);
        t.phase(600 * MS, Phase::WarmDown);
        let trace = t.build();
        // p50 is 1ms — holds; max is 400ms — violated.
        assert!(analyze("mid = latency p50 <= 10ms", &trace).passed());
        let report = analyze("worst = latency max <= 100ms", &trace);
        assert_eq!(report.count_of(PropertyKind::SloWindow), 1);
        // p99 over 100 samples is the 99th-ranked value (1ms), not the max.
        assert!(analyze("tail = latency p99 <= 10ms", &trace).passed());
    }

    #[test]
    fn throughput_floor_over_the_run_window() {
        let mut t = T::new();
        t.phase(0, Phase::Run);
        // 100 deliveries over a 1s window = 100 msg/s.
        for i in 0..100u64 {
            let at = (i * 10) * MS;
            t.send(at, i + 1, i);
            t.receive(at + MS, at, i + 1, i);
        }
        t.phase(1000 * MS, Phase::WarmDown);
        let trace = t.build();
        assert!(analyze("floor = throughput >= 90.0", &trace).passed());
        let report = analyze("floor = throughput >= 150.0", &trace);
        assert_eq!(report.count_of(PropertyKind::SloWindow), 1);
    }

    #[test]
    fn fairness_flags_starved_consumers() {
        let mut t = T::new();
        t.phase(0, Phase::Run);
        t.push(
            MS,
            EventKind::ConsumerCreated {
                consumer: jmst_api::id::ConsumerId::from_raw(7),
                endpoint: EndpointId::for_queue(QueueName::new("q")),
                session_mode: jmst_api::modes::SessionMode::AutoAcknowledge,
                selector: None,
            },
        );
        t.push(
            MS,
            EventKind::ConsumerCreated {
                consumer: jmst_api::id::ConsumerId::from_raw(8),
                endpoint: EndpointId::for_queue(QueueName::new("q")),
                session_mode: jmst_api::modes::SessionMode::AutoAcknowledge,
                selector: None,
            },
        );
        // Consumer 7 takes 9 messages, consumer 8 takes 1.
        for i in 0..10u64 {
            let at = (10 + i) * MS;
            t.send(at, i + 1, i);
            t.receive_by(at + MS, at, i + 1, i, if i == 0 { 8 } else { 7 });
        }
        t.phase(500 * MS, Phase::WarmDown);
        let trace = t.build();
        assert!(analyze("fair = fairness <= 10.0", &trace).passed());
        let report = analyze("fair = fairness <= 4.0", &trace);
        assert_eq!(report.count_of(PropertyKind::SloWindow), 1);
    }

    #[test]
    fn receive_count_bounds() {
        let trace = T::new()
            .send(0, 1, 0)
            .receive(MS, 0, 1, 0)
            .send(2 * MS, 2, 1)
            .receive(3 * MS, 2 * MS, 2, 1)
            .build();
        assert!(analyze("cap = receives <= 2", &trace).passed());
        assert_eq!(
            analyze("cap = receives <= 1", &trace).count_of(PropertyKind::SloWindow),
            1
        );
        assert!(analyze("min = receives >= 2", &trace).passed());
        assert_eq!(
            analyze("min = receives >= 3", &trace).count_of(PropertyKind::SloWindow),
            1
        );
    }

    #[test]
    fn builtin_names_match_the_default_table() {
        // An out-of-order + duplicate trace: the named built-in rows must
        // reproduce the default rows' violations exactly (modulo report
        // bookkeeping).
        let trace = T::new()
            .send(0, 1, 0)
            .send(MS, 2, 1)
            .receive(2 * MS, MS, 2, 1)
            .receive(3 * MS, 0, 1, 0)
            .receive(4 * MS, 0, 1, 0)
            .build();
        let builtin = Analyzer::with_config(AnalysisConfig::default()).analyze(&trace);
        let named = analyze(
            "order = ordered\ndedup = no_duplicates\ncomplete = required\nhonest = integrity",
            &trace,
        );
        let mut a: Vec<String> = builtin
            .violations
            .iter()
            .map(|v| format!("{v:?}"))
            .collect();
        let mut b: Vec<String> = named.violations.iter().map(|v| format!("{v:?}")).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}
