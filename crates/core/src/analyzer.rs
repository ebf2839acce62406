//! The analyzer: runs every configured safety check and the performance
//! analysis over one trace and assembles the report — the equivalent of
//! the paper's battery of SQL statements, re-expressed as one pass of
//! incremental checkers.
//!
//! [`StreamingAnalyzer`] is the single implementation: it owns one table
//! of [`PropertyChecker`]s and feeds each raw event to every row. The
//! built-in checks [`AnalysisConfig`] switches on come first, in a fixed
//! check order; the rows of a [`CheckerRegistry`] (the property DSL's
//! declarations, built-in names included) follow them. [`Analyzer::analyze`]
//! is the batch driver — it replays a recorded [`Trace`] through the same
//! streaming core, so batch and streaming verdicts are equal by
//! construction.

use crate::config::AnalysisConfig;
use crate::perf::{PerfAccumulator, PerformanceReport};
use crate::properties::duplicates::{DuplicatesChecker, RedeliveryBoundChecker};
use crate::properties::expiry::{ExpiryBreakdown, ExpiryCheck};
use crate::properties::integrity::IntegrityChecker;
use crate::properties::ordering::OrderingChecker;
use crate::properties::priority::{PriorityChecker, StrictPriorityChecker};
use crate::properties::required::RequiredChecker;
pub use crate::properties::PropertyChecker;
use crate::violation::{PropertyKind, Violation};
use jmst_store::event::{Event, EventKind};
use jmst_store::trace::Trace;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

type CheckerFactory = Arc<dyn Fn() -> Box<dyn PropertyChecker> + Send + Sync>;

/// A set of named property checkers to instantiate after the built-ins
/// on every streaming pass. Cloning shares the factories.
#[derive(Clone, Default)]
pub struct CheckerRegistry {
    factories: Vec<(String, CheckerFactory)>,
}

impl CheckerRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a named checker factory, called once per streaming pass.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn() -> Box<dyn PropertyChecker> + Send + Sync + 'static,
    ) {
        self.factories.push((name.into(), Arc::new(factory)));
    }

    /// Names of the registered checkers, in registration order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.factories.iter().map(|(name, _)| name.as_str())
    }

    /// Number of registered checkers.
    pub fn len(&self) -> usize {
        self.factories.len()
    }

    /// Returns `true` if no checker is registered.
    pub fn is_empty(&self) -> bool {
        self.factories.is_empty()
    }

    /// Appends every row of `other` after this registry's own.
    pub fn append(&mut self, other: CheckerRegistry) {
        self.factories.extend(other.factories);
    }
}

impl fmt::Debug for CheckerRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.names()).finish()
    }
}

/// The per-property outcome row for one named (DSL-declared) property.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NamedPropertyOutcome {
    /// The property's declared name.
    pub name: String,
    /// Number of violations it reported (0 = held).
    pub violations: usize,
}

/// The complete analysis result for one test run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// All safety violations found, in check order.
    pub violations: Vec<Violation>,
    /// The §3.2 performance measures.
    pub performance: PerformanceReport,
    /// Per-end-point expiry accounting (empty when the check is off).
    pub expiry: Vec<ExpiryBreakdown>,
    /// Trace size, for sanity-checking reports.
    pub events_analyzed: usize,
    /// Number of send operations observed (committed or not).
    pub sends: usize,
    /// Number of receive operations observed (committed or not).
    pub receives: usize,
    /// Per-property outcome rows for named (DSL-declared) properties, in
    /// registration order (empty when no registry is attached).
    #[serde(default)]
    pub named: Vec<NamedPropertyOutcome>,
}

impl AnalysisReport {
    /// Returns `true` if no safety property was violated.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violations grouped by property.
    pub fn by_property(&self) -> BTreeMap<PropertyKind, Vec<&Violation>> {
        let mut map: BTreeMap<PropertyKind, Vec<&Violation>> = BTreeMap::new();
        for violation in &self.violations {
            map.entry(violation.property()).or_default().push(violation);
        }
        map
    }

    /// Number of violations of one property.
    pub fn count_of(&self, property: PropertyKind) -> usize {
        self.violations
            .iter()
            .filter(|violation| violation.property() == property)
            .count()
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "analysis: {} events, {} sends, {} receives — {}",
            self.events_analyzed,
            self.sends,
            self.receives,
            if self.passed() {
                "PASS".to_owned()
            } else {
                format!("{} violation(s)", self.violations.len())
            }
        )?;
        for (property, violations) in self.by_property() {
            writeln!(f, "  {property}: {}", violations.len())?;
            for violation in violations.iter().take(5) {
                writeln!(f, "    - {violation}")?;
            }
            if violations.len() > 5 {
                writeln!(f, "    … and {} more", violations.len() - 5)?;
            }
        }
        for outcome in &self.named {
            if outcome.violations == 0 {
                writeln!(f, "  property '{}': held", outcome.name)?;
            }
        }
        write!(f, "{}", self.performance.to_table())
    }
}

/// One row of the analyzer's property table.
#[derive(Debug)]
enum Row {
    /// A built-in check: its violations go into the report's list only.
    Builtin(Box<dyn PropertyChecker>),
    /// The built-in expiry check, kept concrete so its per-end-point
    /// breakdowns reach [`AnalysisReport::expiry`].
    Expiry(Box<ExpiryCheck>),
    /// A named checker: also reported as its own outcome row.
    Named(String, Box<dyn PropertyChecker>),
}

impl Row {
    fn checker(&self) -> &dyn PropertyChecker {
        match self {
            Row::Builtin(checker) | Row::Named(_, checker) => checker.as_ref(),
            Row::Expiry(check) => check.as_ref(),
        }
    }

    fn checker_mut(&mut self) -> &mut dyn PropertyChecker {
        match self {
            Row::Builtin(checker) | Row::Named(_, checker) => checker.as_mut(),
            Row::Expiry(check) => check.as_mut(),
        }
    }
}

/// The built-in rows `config` switches on, in check order: integrity,
/// required, ordering, priority (and strict priority), expiry,
/// duplicates, redelivery bound.
fn builtin_table(config: &AnalysisConfig) -> Vec<Row> {
    fn builtin(checker: impl PropertyChecker + 'static) -> Row {
        Row::Builtin(Box::new(checker))
    }
    let priority = config.priority;
    [
        config
            .check_integrity
            .then(|| builtin(IntegrityChecker::new())),
        config
            .check_required
            .then(|| builtin(RequiredChecker::new())),
        config
            .check_ordering
            .then(|| builtin(OrderingChecker::new())),
        config
            .check_priority
            .then(|| builtin(PriorityChecker::new(priority))),
        (config.check_priority && priority.strict)
            .then(|| builtin(StrictPriorityChecker::new(priority.strict_slack))),
        config
            .check_expiry
            .then(|| Row::Expiry(Box::new(ExpiryCheck::new(config)))),
        config
            .check_duplicates
            .then(|| builtin(DuplicatesChecker::new())),
        config
            .redelivery_bound
            .map(|bound| builtin(RedeliveryBoundChecker::new(bound))),
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// One-pass incremental analyzer: feed events as they happen, finish for
/// the report.
///
/// Violations that are decidable mid-stream (ordering, duplicates,
/// redelivery-bound, and named checkers such as deadlines) surface
/// through [`violations_so_far`] while the run is still in flight — the
/// harness's fail-fast mode polls it. The other properties need the end
/// of the trace to distinguish a violation from in-flight latency and
/// only report at [`finish`].
///
/// [`violations_so_far`]: StreamingAnalyzer::violations_so_far
/// [`finish`]: StreamingAnalyzer::finish
#[derive(Debug)]
pub struct StreamingAnalyzer {
    config: AnalysisConfig,
    table: Vec<Row>,
    perf: PerfAccumulator,
    events: usize,
    sends: usize,
    receives: usize,
}

impl StreamingAnalyzer {
    /// Creates a streaming analyzer running the built-in checks the
    /// configuration switches on.
    pub fn new(config: AnalysisConfig) -> Self {
        Self {
            table: builtin_table(&config),
            perf: PerfAccumulator::new(config.histogram_bucket, config.histogram_buckets),
            config,
            events: 0,
            sends: 0,
            receives: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// Appends a named property checker to the table, fed every event
    /// after the built-ins and reported as its own row at [`finish`].
    ///
    /// [`finish`]: StreamingAnalyzer::finish
    pub fn register(&mut self, name: impl Into<String>, checker: Box<dyn PropertyChecker>) {
        self.table.push(Row::Named(name.into(), checker));
    }

    /// Feeds one event, in canonical `(at, seq)` order, to every row of
    /// the table.
    pub fn observe(&mut self, event: &Event) {
        self.events += 1;
        match &event.kind {
            EventKind::Send { .. } => self.sends += 1,
            EventKind::Receive { .. } => self.receives += 1,
            _ => {}
        }
        for row in &mut self.table {
            row.checker_mut().observe(event);
        }
        self.perf.observe(event);
    }

    /// Number of events observed so far.
    pub fn events_observed(&self) -> usize {
        self.events
    }

    /// Number of violations already decidable mid-stream. A non-zero
    /// value is definitive — the final report will contain at least these.
    pub fn violations_so_far(&self) -> usize {
        self.table
            .iter()
            .map(|row| row.checker().live_violations())
            .sum()
    }

    /// An estimate of the resident state across all checkers, in bytes.
    /// The streaming pipeline's memory story rests on this staying far
    /// below the size of the materialised trace.
    pub fn state_bytes(&self) -> usize {
        self.table
            .iter()
            .map(|row| row.checker().state_bytes())
            .sum::<usize>()
            + self.perf.state_bytes()
    }

    /// Finishes every row and assembles the report, with violations in
    /// table order: the built-ins in check order, then the named
    /// checkers in registration order.
    pub fn finish(self) -> AnalysisReport {
        let mut violations = Vec::new();
        let mut expiry = Vec::new();
        let mut named = Vec::new();
        for row in self.table {
            match row {
                Row::Builtin(checker) => violations.extend(checker.finish()),
                Row::Expiry(check) => {
                    let (found, breakdowns) = check.judge();
                    violations.extend(found);
                    expiry = breakdowns;
                }
                Row::Named(name, checker) => {
                    let found = checker.finish();
                    named.push(NamedPropertyOutcome {
                        name,
                        violations: found.len(),
                    });
                    violations.extend(found);
                }
            }
        }
        AnalysisReport {
            violations,
            performance: self.perf.finish(),
            expiry,
            events_analyzed: self.events,
            sends: self.sends,
            receives: self.receives,
            named,
        }
    }
}

/// Runs the paper's analysis over traces.
#[derive(Debug, Clone, Default)]
pub struct Analyzer {
    config: AnalysisConfig,
    registry: CheckerRegistry,
}

impl Analyzer {
    /// Creates an analyzer with the default configuration (all checks).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an analyzer with an explicit configuration.
    pub fn with_config(config: AnalysisConfig) -> Self {
        Self {
            config,
            registry: CheckerRegistry::new(),
        }
    }

    /// Replaces the named-property registry; every subsequent streaming
    /// pass instantiates one checker per registered factory.
    pub fn with_registry(mut self, registry: CheckerRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// The attached named-property registry.
    pub fn registry(&self) -> &CheckerRegistry {
        &self.registry
    }

    /// Starts a streaming pass: the configured built-ins, then one
    /// checker per registered factory.
    pub fn streaming(&self) -> StreamingAnalyzer {
        let mut streaming = StreamingAnalyzer::new(self.config);
        for (name, factory) in &self.registry.factories {
            streaming.register(name.clone(), factory());
        }
        streaming
    }

    /// Analyses one recorded trace by replaying it, in canonical order,
    /// through the streaming core.
    pub fn analyze(&self, trace: &Trace) -> AnalysisReport {
        let mut streaming = self.streaming();
        for event in trace {
            streaming.observe(event);
        }
        streaming.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::*;
    use jmst_store::event::Phase;

    fn clean_trace() -> Trace {
        TraceBuilder::new()
            .phase(Phase::Run)
            .send(1, 1, 0)
            .send(2, 1, 1)
            .receive_q(1, 1, 0)
            .receive_q(2, 1, 1)
            .at(5_000)
            .phase(Phase::WarmDown)
            .build()
    }

    #[test]
    fn clean_trace_passes_everything() {
        let report = Analyzer::new().analyze(&clean_trace());
        assert!(report.passed(), "{report}");
        assert_eq!(report.sends, 2);
        assert_eq!(report.receives, 2);
        assert!(report.by_property().is_empty());
    }

    #[test]
    fn each_fault_trips_exactly_its_property() {
        // Dropped message → P2 only.
        let dropped = TraceBuilder::new()
            .send(1, 1, 0)
            .send(2, 1, 1)
            .send(3, 1, 2)
            .receive_q(1, 1, 0)
            .receive_q(3, 1, 2)
            .build();
        let report = Analyzer::new().analyze(&dropped);
        assert_eq!(report.count_of(PropertyKind::RequiredMessages), 1);
        assert_eq!(report.violations.len(), 1);

        // Forged message → P1 only.
        let forged = TraceBuilder::new()
            .send(1, 1, 0)
            .receive_q(1, 1, 0)
            .receive_q(99, 7, 0)
            .build();
        let report = Analyzer::new().analyze(&forged);
        assert_eq!(report.count_of(PropertyKind::DeliveryIntegrity), 1);
        // The forged receive must not create phantom requirements.
        assert_eq!(report.violations.len(), 1, "{report}");

        // Reordered messages → P3 only.
        let reordered = TraceBuilder::new()
            .send(1, 1, 0)
            .send(2, 1, 1)
            .receive_q(2, 1, 1)
            .receive_q(1, 1, 0)
            .build();
        let report = Analyzer::new().analyze(&reordered);
        assert_eq!(report.count_of(PropertyKind::MessageOrdering), 1);
        assert_eq!(report.violations.len(), 1);

        // Duplicate delivery → duplicate check only.
        let duplicated = TraceBuilder::new()
            .send(1, 1, 0)
            .receive_q(1, 1, 0)
            .receive_q(1, 1, 0)
            .build();
        let report = Analyzer::new().analyze(&duplicated);
        assert_eq!(report.count_of(PropertyKind::DuplicateDelivery), 1);
        assert_eq!(report.violations.len(), 1);
    }

    #[test]
    fn disabled_checks_do_not_run() {
        let reordered = TraceBuilder::new()
            .send(1, 1, 0)
            .send(2, 1, 1)
            .receive_q(2, 1, 1)
            .receive_q(1, 1, 0)
            .build();
        let config = AnalysisConfig {
            check_ordering: false,
            ..AnalysisConfig::default()
        };
        let report = Analyzer::with_config(config).analyze(&reordered);
        assert!(report.passed());
    }

    #[test]
    fn report_display_includes_verdict_and_measures() {
        let report = Analyzer::new().analyze(&clean_trace());
        let text = report.to_string();
        assert!(text.contains("PASS"));
        assert!(text.contains("producer throughput"));
        let failing = TraceBuilder::new().send(1, 1, 0).build();
        let text = Analyzer::new().analyze(&failing).to_string();
        assert!(text.contains("violation"));
        assert!(text.contains("P2"));
    }

    #[test]
    fn trivial_provider_passes_safety_with_zero_throughput() {
        // The paper's observation: a provider that never delivers
        // satisfies the pure safety subset — only performance exposes it.
        // (With deliveries absent, the queue's required set is non-empty,
        // so P2 *does* catch it here; the classic trivial provider is one
        // with no sends at all.)
        let trace = TraceBuilder::new()
            .phase(Phase::Run)
            .at(1000)
            .phase(Phase::WarmDown)
            .build();
        let report = Analyzer::new().analyze(&trace);
        assert!(report.passed());
        assert_eq!(report.performance.consumer_throughput.messages_per_sec, 0.0);
    }

    #[test]
    fn mid_stream_violations_surface_before_finish() {
        let mut streaming = Analyzer::new().streaming();
        let trace = TraceBuilder::new()
            .send(1, 1, 0)
            .receive_q(1, 1, 0)
            .receive_q(1, 1, 0) // duplicate delivery, decidable on sight
            .build();
        let mut seen_live = false;
        for event in &trace {
            streaming.observe(event);
            seen_live |= streaming.violations_so_far() > 0;
        }
        assert!(seen_live);
        let report = streaming.finish();
        assert_eq!(report.count_of(PropertyKind::DuplicateDelivery), 1);
    }

    #[test]
    fn report_lists_violations_in_table_order_then_named_rows() {
        /// A `deadline 3ms` row: every receive later than 3 ms after its
        /// send convicts.
        #[derive(Debug, Default)]
        struct Deadline(Vec<Violation>);
        impl PropertyChecker for Deadline {
            fn observe(&mut self, event: &Event) {
                if let EventKind::Receive {
                    endpoint, record, ..
                } = &event.kind
                {
                    let observed = event.at.saturating_since(record.sent_at);
                    if observed > std::time::Duration::from_millis(3) {
                        self.0.push(Violation::DeadlineMissed {
                            property: "late".to_owned(),
                            message: record.message,
                            endpoint: endpoint.clone(),
                            deadline: std::time::Duration::from_millis(3),
                            observed,
                        });
                    }
                }
            }
            fn finish(self: Box<Self>) -> Vec<Violation> {
                self.0
            }
        }

        let mut over_limit = rec(4, 1, 3);
        over_limit.delivery_count = 5;
        let trace = TraceBuilder::new()
            .send(1, 1, 0)
            .send(2, 1, 1)
            .send(3, 1, 2) // never delivered: P2
            .send_rec(rec(4, 1, 3), None)
            .receive_q(2, 1, 1)
            .receive_q(1, 1, 0) // overtaken by 2: P3
            .at(10)
            .receive_q(1, 1, 0) // second delivery: duplicates; late from here on
            .receive_rec(default_queue_endpoint(), 50, over_limit, None) // count 5 > 1 + 1
            .receive_q(99, 7, 0) // never sent: P1
            .build();
        let mut registry = CheckerRegistry::new();
        registry.register("late", || Box::new(Deadline::default()));
        let report = Analyzer::with_config(AnalysisConfig::default().with_redelivery_bound(1))
            .with_registry(registry)
            .analyze(&trace);
        let kinds: Vec<PropertyKind> = report.violations.iter().map(Violation::property).collect();
        assert_eq!(
            kinds,
            [
                PropertyKind::DeliveryIntegrity,
                PropertyKind::RequiredMessages,
                PropertyKind::MessageOrdering,
                PropertyKind::DuplicateDelivery,
                PropertyKind::BoundedRedelivery,
                PropertyKind::Deadline,
                PropertyKind::Deadline,
                PropertyKind::Deadline,
            ],
            "{report}"
        );
        assert_eq!(
            report.named,
            [NamedPropertyOutcome {
                name: "late".to_owned(),
                violations: 3,
            }]
        );
    }

    #[test]
    fn streaming_report_equals_batch_report() {
        let analyzer = Analyzer::new();
        let trace = TraceBuilder::new()
            .send(1, 1, 0)
            .send(2, 1, 1)
            .receive_q(2, 1, 1)
            .receive_q(1, 1, 0)
            .receive_q(1, 1, 0)
            .build();
        let batch = analyzer.analyze(&trace);
        let mut streaming = analyzer.streaming();
        for event in &trace {
            streaming.observe(event);
        }
        assert_eq!(batch, streaming.finish());
    }
}
