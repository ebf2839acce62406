//! The daemon prince: schedules a series of tests, resets the provider
//! between tests, survives hung or crashed tests, collects each test's
//! logs, and runs the analysis — §4 of the paper.

use crate::error::HarnessError;
use crate::runner::{BrokerAdmin, ThreadedRunner};
use crate::spec::TestSpec;
use jmst_api::provider::Provider;
use jmst_core::{AnalysisReport, Analyzer};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How far out of canonical `(at, seq)` order the live stream may run
/// before the analysis sees events out of order (clock skew plus thread
/// scheduling displace logging by far less than this in practice). An
/// event displaced further is announced on stderr as late.
pub const STREAM_REORDER_DEPTH: usize = 8192;

/// Bound on the live channel: recording applies backpressure when the
/// analysis thread falls this many events behind.
const STREAM_CAPACITY: usize = 16_384;

/// What became of one scheduled test.
#[derive(Debug)]
#[non_exhaustive]
pub enum TestOutcome {
    /// The test ran and every safety property held.
    Passed(AnalysisReport),
    /// The test ran and violations were found.
    Violated(AnalysisReport),
    /// The test hung; the partial trace was still analysed ("catching
    /// crashed tests, cleaning up and continuing on with the next test",
    /// §4.1).
    Hung {
        /// Which driver group hung.
        stage: &'static str,
        /// Analysis of the partial trace.
        report: AnalysisReport,
    },
    /// A driver gave up (exhausted retry budget, blown deadline, panic):
    /// the run proves nothing either way, but the salvaged partial trace
    /// was still analysed.
    Inconclusive {
        /// Why the run was abandoned.
        reason: String,
        /// Analysis of the salvaged partial trace.
        report: AnalysisReport,
    },
    /// The specification was rejected.
    Invalid(String),
}

impl TestOutcome {
    /// Returns `true` for [`TestOutcome::Passed`].
    pub fn passed(&self) -> bool {
        matches!(self, TestOutcome::Passed(_))
    }

    /// The analysis report, if the test produced one.
    pub fn report(&self) -> Option<&AnalysisReport> {
        match self {
            TestOutcome::Passed(report) | TestOutcome::Violated(report) => Some(report),
            TestOutcome::Hung { report, .. } | TestOutcome::Inconclusive { report, .. } => {
                Some(report)
            }
            TestOutcome::Invalid(_) => None,
        }
    }
}

/// The record of one scheduled test.
#[derive(Debug)]
pub struct TestResult {
    /// The test's name.
    pub name: String,
    /// What happened.
    pub outcome: TestOutcome,
    /// Wall-clock time the test took.
    pub wall_time: Duration,
}

/// The results of a whole campaign.
#[derive(Debug, Default)]
pub struct CampaignReport {
    /// Per-test results, in schedule order.
    pub results: Vec<TestResult>,
}

impl CampaignReport {
    /// Number of tests that passed.
    pub fn passed(&self) -> usize {
        self.results.iter().filter(|r| r.outcome.passed()).count()
    }

    /// Number of tests that ran but violated properties.
    pub fn violated(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r.outcome, TestOutcome::Violated(_)))
            .count()
    }

    /// Number of tests that hung, gave up, or were invalid.
    pub fn failed(&self) -> usize {
        self.results
            .iter()
            .filter(|r| {
                matches!(
                    r.outcome,
                    TestOutcome::Hung { .. }
                        | TestOutcome::Inconclusive { .. }
                        | TestOutcome::Invalid(_)
                )
            })
            .count()
    }

    /// A deterministic rendering of the campaign with no wall-clock
    /// times: two runs of the same schedule produce byte-identical
    /// summaries whether run straight through or interrupted and
    /// resumed from the journal. `jmst_princed --report` writes this,
    /// and the resume tests compare it.
    ///
    /// Inconclusive reasons and partial-trace counts are excluded — they
    /// legitimately vary with timing; the verdict class does not.
    pub fn stable_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "campaign: {} tests — {} passed, {} violated, {} failed\n",
            self.results.len(),
            self.passed(),
            self.violated(),
            self.failed()
        );
        for result in &self.results {
            let verdict = match &result.outcome {
                TestOutcome::Passed(report) => {
                    format!("PASS sends={} receives={}", report.sends, report.receives)
                }
                TestOutcome::Violated(report) => format!(
                    "VIOLATED violations={} sends={} receives={}",
                    report.violations.len(),
                    report.sends,
                    report.receives
                ),
                TestOutcome::Hung { stage, .. } => format!("HUNG stage={stage}"),
                TestOutcome::Inconclusive { .. } => "INCONCLUSIVE".to_owned(),
                TestOutcome::Invalid(reason) => format!("INVALID {reason}"),
            };
            let _ = writeln!(out, "{} {}", result.name, verdict);
        }
        out
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "campaign: {} tests — {} passed, {} violated, {} failed",
            self.results.len(),
            self.passed(),
            self.violated(),
            self.failed()
        )?;
        for result in &self.results {
            let verdict = match &result.outcome {
                TestOutcome::Passed(_) => "PASS".to_owned(),
                TestOutcome::Violated(report) => {
                    format!("VIOLATED ({})", report.violations.len())
                }
                TestOutcome::Hung { stage, .. } => format!("HUNG ({stage})"),
                TestOutcome::Inconclusive { reason, .. } => {
                    format!("INCONCLUSIVE ({reason})")
                }
                TestOutcome::Invalid(reason) => format!("INVALID ({reason})"),
            };
            writeln!(
                f,
                "  {:<40} {:>8.1?}  {}",
                result.name, result.wall_time, verdict
            )?;
        }
        Ok(())
    }
}

/// A fresh provider (and optional admin hook) for one test — the paper's
/// "initialisation scripts allow the JMS provider to be reset between
/// each test".
pub type ProviderFactory<'a> =
    dyn Fn(&TestSpec) -> (Arc<dyn Provider>, Option<Arc<dyn BrokerAdmin>>) + 'a;

/// Schedules tests, analyses their traces, and keeps going when
/// individual tests fail.
#[derive(Debug, Default)]
pub struct DaemonPrince {
    runner: ThreadedRunner,
    analyzer: Analyzer,
    trace_dir: Option<std::path::PathBuf>,
}

impl DaemonPrince {
    /// Creates a prince with the default runner and analyzer.
    pub fn new() -> Self {
        Self {
            runner: ThreadedRunner::new(),
            analyzer: Analyzer::new(),
            trace_dir: None,
        }
    }

    /// Creates a prince with an explicit analyzer (e.g. a different
    /// expiry expectation model).
    pub fn with_analyzer(analyzer: Analyzer) -> Self {
        Self {
            runner: ThreadedRunner::new(),
            analyzer,
            trace_dir: None,
        }
    }

    /// Returns a copy using the given runner — e.g. one with a shorter
    /// [`join_grace`](ThreadedRunner::join_grace) so hung tests are
    /// detected (and the campaign moves on) faster.
    pub fn with_runner(mut self, runner: ThreadedRunner) -> Self {
        self.runner = runner;
        self
    }

    /// Persists every collected trace to `dir` as
    /// `<test-name>.trace.jsonl` — the paper's collected per-test logs,
    /// re-analysable later with [`Trace::load_jsonl`](jmst_store::Trace::load_jsonl).
    pub fn with_trace_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.trace_dir = Some(dir.into());
        self
    }

    fn persist(&self, name: &str, trace: &jmst_store::Trace) {
        if let Some(dir) = &self.trace_dir {
            if std::fs::create_dir_all(dir).is_ok() {
                let sanitized: String = name
                    .chars()
                    .map(|c| {
                        if c.is_ascii_alphanumeric() || c == '-' {
                            c
                        } else {
                            '_'
                        }
                    })
                    .collect();
                let _ = trace.save_jsonl(dir.join(format!("{sanitized}.trace.jsonl")));
            }
        }
    }

    /// Runs one test end-to-end: lint, fresh provider, execute with live
    /// streaming analysis, report.
    ///
    /// The static lint pass ([`lint_spec`](crate::lint::lint_spec)) runs
    /// first: hard errors (ill-typed selectors, provably dead
    /// subscriptions) fail the test as [`TestOutcome::Invalid`] before a
    /// provider is even created; warnings are logged to stderr and the
    /// test proceeds.
    ///
    /// The analysis does not wait for the trace: a
    /// [`StreamingAnalyzer`](jmst_core::StreamingAnalyzer) consumes the
    /// run's events live on a watcher thread, the first violation
    /// decidable mid-stream is announced on stderr, and — when the spec
    /// set [`fail_fast`](TestSpec::fail_fast) — it cancels the run,
    /// salvaging the partial verdict instead of letting a known-broken
    /// run finish.
    pub fn run_test(&self, factory: &ProviderFactory<'_>, spec: &TestSpec) -> TestResult {
        self.run_test_collected(factory, spec).0
    }

    /// [`run_test`](Self::run_test), but also returning the collected
    /// trace events (in canonical order). The multi-process prince
    /// ([`ProcessPrince`](crate::princed::ProcessPrince)) journals these
    /// when a thread-mode test rides in a journalled campaign.
    ///
    /// The events are the live watcher's, moved out: the recorder hands
    /// each one to the watcher's stream and keeps no copy, so they are
    /// also what the verdict, the fallback replay and the persisted trace
    /// are computed from.
    pub fn run_test_collected(
        &self,
        factory: &ProviderFactory<'_>,
        spec: &TestSpec,
    ) -> (TestResult, Vec<jmst_store::Event>) {
        let started = Instant::now();
        let lint = crate::lint::lint_spec(spec);
        for warning in lint.warnings() {
            eprintln!("[jmst-lint] {}: {warning}", spec.name);
        }
        if lint.has_errors() {
            let reasons: Vec<String> = lint.errors().map(ToString::to_string).collect();
            return (
                TestResult {
                    name: spec.name.clone(),
                    outcome: TestOutcome::Invalid(format!("lint: {}", reasons.join("; "))),
                    wall_time: started.elapsed(),
                },
                Vec::new(),
            );
        }
        let (provider, admin) = factory(spec);
        let (sink, mut stream) = jmst_store::sink::channel(STREAM_REORDER_DEPTH, STREAM_CAPACITY);
        let cancel = Arc::new(AtomicBool::new(false));
        let analyzer = analyzer_for(&self.analyzer, spec);
        let watcher = {
            let analyzer = analyzer.clone();
            let cancel = Arc::clone(&cancel);
            let fail_fast = spec.fail_fast;
            let name = spec.name.clone();
            std::thread::spawn(move || {
                let watched = watch(stream.by_ref(), &analyzer, |live| {
                    eprintln!("[jmst-prince] {name}: {live} violation(s) live");
                    if fail_fast {
                        cancel.store(true, Ordering::SeqCst);
                    }
                });
                let late = stream.late_events();
                if late > 0 {
                    eprintln!(
                        "[jmst-prince] {name}: {late} event(s) arrived after their slot was released"
                    );
                }
                watched
            })
        };
        // The sink is the recorder's only destination: the watcher's
        // trace is the one copy of the run's events.
        let run = self.runner.run_observed(
            provider,
            admin,
            spec,
            Some(Box::new(sink)),
            Some(Arc::clone(&cancel)),
        );
        // The runner closed its sink on the way out, so the stream has
        // terminated and the watcher is (or will shortly be) done.
        let Ok((report, trace)) = watcher.join() else {
            // Only a panic in the fallback replay gets here; the live
            // checkers run under catch_unwind.
            let outcome = TestOutcome::Inconclusive {
                reason: "the analysis panicked on replay".to_owned(),
                report: analyzer.analyze(&jmst_store::Trace::new()),
            };
            return (
                TestResult {
                    name: spec.name.clone(),
                    outcome,
                    wall_time: started.elapsed(),
                },
                Vec::new(),
            );
        };
        let outcome = match run {
            Ok(_) if report.passed() => TestOutcome::Passed(report),
            Ok(_) => TestOutcome::Violated(report),
            Err(HarnessError::TestHung { stage, .. }) => TestOutcome::Hung { stage, report },
            Err(HarnessError::Inconclusive { reason, .. }) => {
                TestOutcome::Inconclusive { reason, report }
            }
            Err(HarnessError::InvalidSpec(reason)) => TestOutcome::Invalid(reason),
            Err(other) => TestOutcome::Invalid(other.to_string()),
        };
        let events = if matches!(outcome, TestOutcome::Invalid(_)) {
            Vec::new()
        } else {
            self.persist(&spec.name, &trace);
            trace.into_events()
        };
        (
            TestResult {
                name: spec.name.clone(),
                outcome,
                wall_time: started.elapsed(),
            },
            events,
        )
    }

    /// Runs a campaign of tests sequentially, resetting the provider
    /// between tests and continuing past failures.
    pub fn run_campaign(
        &self,
        factory: &ProviderFactory<'_>,
        specs: &[TestSpec],
    ) -> CampaignReport {
        let mut report = CampaignReport::default();
        for spec in specs {
            report.results.push(self.run_test(factory, spec));
        }
        report
    }
}

/// `analyzer` with the spec's `[properties]` rows appended after the
/// rows of its own registry. The DSL properties compile onto the same
/// streaming core as the built-ins: the watcher sees their live
/// violations (so fail_fast covers them) and the fallback replay
/// re-checks them identically.
pub(crate) fn analyzer_for(analyzer: &Analyzer, spec: &TestSpec) -> Analyzer {
    let mut registry = analyzer.registry().clone();
    registry.append(jmst_props::compile_registry(&spec.properties));
    analyzer.clone().with_registry(registry)
}

/// The live watcher's loop. Each event of `stream` is observed by a
/// streaming pass of `analyzer` and then kept, so the returned trace
/// holds the run's events — the only copy of them. `on_live` hears the
/// live violation count once, when it first becomes non-zero: that is
/// the fail-fast trigger, and the verdict carries the total.
///
/// A panicking checker must not lose the verdict: the live pass stops,
/// the stream is still drained to the end (the recorder would otherwise
/// block on the bounded channel and hang the run), and the verdict is a
/// replay of the collected trace.
fn watch(
    stream: impl Iterator<Item = jmst_store::Event>,
    analyzer: &Analyzer,
    mut on_live: impl FnMut(usize),
) -> (AnalysisReport, jmst_store::Trace) {
    let mut checking = Some(analyzer.streaming());
    let mut surfaced = false;
    let mut events = Vec::new();
    for event in stream {
        if let Some(live) = &mut checking {
            let observed = catch_unwind(AssertUnwindSafe(|| {
                live.observe(&event);
                live.violations_so_far()
            }));
            match observed {
                Ok(count) if count > 0 && !surfaced => {
                    surfaced = true;
                    on_live(count);
                }
                Ok(_) => {}
                Err(_) => checking = None,
            }
        }
        events.push(event);
    }
    let trace = jmst_store::Trace::from_events(events);
    let report = checking
        .and_then(|live| catch_unwind(AssertUnwindSafe(|| live.finish())).ok())
        .unwrap_or_else(|| analyzer.analyze(&trace));
    (report, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ConsumerSpec, NodeSpec, ProducerSpec};
    use jmst_api::destination::Destination;
    use jmst_broker::{BrokerConfig, FaultSpec, ReferenceBroker};

    fn spec(name: &str) -> TestSpec {
        TestSpec::new(name)
            .with_periods(
                Duration::from_millis(20),
                Duration::from_millis(150),
                Duration::from_secs(2),
            )
            .node(
                NodeSpec::new("n0")
                    .producer(ProducerSpec::steady(Destination::queue("q"), 200.0, 64))
                    .consumer(ConsumerSpec::auto(Destination::queue("q"))),
            )
    }

    #[test]
    fn persisted_traces_reanalyze_identically() {
        let dir = std::env::temp_dir().join(format!("jmst-prince-{}", std::process::id()));
        let prince = DaemonPrince::new().with_trace_dir(&dir);
        let factory = |_: &TestSpec| -> (Arc<dyn jmst_api::provider::Provider>, _) {
            (Arc::new(ReferenceBroker::new()), None)
        };
        let result = prince.run_test(&factory, &spec("persist me"));
        let original = result.outcome.report().expect("ran").clone();
        let path = dir.join("persist_me.trace.jsonl");
        let trace = jmst_store::Trace::load_jsonl(&path).expect("trace persisted");
        std::fs::remove_dir_all(&dir).ok();
        let reanalyzed = jmst_core::Analyzer::new().analyze(&trace);
        assert_eq!(reanalyzed.sends, original.sends);
        assert_eq!(reanalyzed.receives, original.receives);
        assert_eq!(reanalyzed.violations, original.violations);
    }

    #[test]
    fn campaign_times_out_hung_test_and_continues() {
        // A short join grace so the hang is detected quickly.
        let prince = DaemonPrince::new().with_runner(ThreadedRunner {
            join_grace: Duration::from_millis(150),
        });
        let factory = |_: &TestSpec| -> (Arc<dyn jmst_api::provider::Provider>, _) {
            (Arc::new(ReferenceBroker::new()), None)
        };
        // A consumer stuck far longer than the join deadline models a
        // crashed/hung test (§4.1: the daemon must catch it, clean up,
        // and continue with the next test).
        let hang = TestSpec::new("hang")
            .with_periods(
                Duration::from_millis(10),
                Duration::from_millis(80),
                Duration::from_millis(100),
            )
            .node(
                NodeSpec::new("n0")
                    .producer(ProducerSpec::steady(Destination::queue("q"), 300.0, 32))
                    .consumer(
                        ConsumerSpec::auto(Destination::queue("q"))
                            .with_think_time(Duration::from_secs(2)),
                    ),
            );
        let report = prince.run_campaign(&factory, &[hang, spec("after-the-hang")]);
        assert_eq!(report.results.len(), 2);
        match &report.results[0].outcome {
            TestOutcome::Hung { stage, report } => {
                assert_eq!(*stage, "consumers");
                assert!(report.sends > 0, "the partial trace was still analysed");
            }
            other => panic!("expected Hung, got {other:?}"),
        }
        // The campaign carried on: the next test ran on a fresh provider
        // and passed.
        assert!(report.results[1].outcome.passed());
        assert_eq!(report.passed(), 1);
        assert_eq!(report.failed(), 1);
        assert_eq!(report.violated(), 0);
        assert!(report.to_string().contains("HUNG (consumers)"));
    }

    #[test]
    fn campaign_counters_pin_mixed_outcome_semantics() {
        let analysis =
            || jmst_core::Analyzer::new().analyze(&jmst_store::trace::Recorder::new().snapshot());
        let result = |name: &str, outcome: TestOutcome| TestResult {
            name: name.to_owned(),
            outcome,
            wall_time: Duration::ZERO,
        };
        let campaign = CampaignReport {
            results: vec![
                result("pass-a", TestOutcome::Passed(analysis())),
                result("violated", TestOutcome::Violated(analysis())),
                result(
                    "hung",
                    TestOutcome::Hung {
                        stage: "producers",
                        report: analysis(),
                    },
                ),
                result("invalid", TestOutcome::Invalid("no nodes".to_owned())),
                result(
                    "gave-up",
                    TestOutcome::Inconclusive {
                        reason: "producer 1001: retry budget of 64 exhausted".to_owned(),
                        report: analysis(),
                    },
                ),
                result("pass-b", TestOutcome::Passed(analysis())),
            ],
        };
        assert_eq!(campaign.passed(), 2);
        assert_eq!(campaign.violated(), 1);
        // failed() counts hung, inconclusive, and invalid tests only — a
        // violation means the test ran fine and the *provider* failed, so
        // it is counted by violated(), not failed().
        assert_eq!(campaign.failed(), 3);
        let text = campaign.to_string();
        assert!(text.contains("6 tests — 2 passed, 1 violated, 3 failed"));
        assert!(text.contains("HUNG (producers)"));
        assert!(text.contains("INCONCLUSIVE (producer 1001"));
        assert!(text.contains("INVALID (no nodes)"));
    }

    #[test]
    fn lint_errors_fail_the_test_before_any_message_is_sent() {
        let prince = DaemonPrince::new();
        // The factory panicking proves no provider is created — the dead
        // subscription is caught statically, before anything runs.
        let factory = |_: &TestSpec| -> (Arc<dyn jmst_api::provider::Provider>, _) {
            panic!("lint must reject the spec before the provider is built")
        };
        let dead = TestSpec::new("dead-subscription").node(
            NodeSpec::new("n0")
                .producer(
                    ProducerSpec::steady(Destination::topic("t"), 100.0, 64)
                        .with_property("region", jmst_api::value::Value::String("emea".to_owned())),
                )
                .consumer(
                    ConsumerSpec::auto(Destination::topic("t")).with_selector("region = 'apac'"),
                ),
        );
        let result = prince.run_test(&factory, &dead);
        match &result.outcome {
            TestOutcome::Invalid(reason) => {
                assert!(reason.contains("dead subscription"), "{reason}");
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn fail_fast_cancels_a_violating_run_early() {
        let prince = DaemonPrince::new();
        let factory = |_: &TestSpec| -> (Arc<dyn jmst_api::provider::Provider>, _) {
            // Heavy reordering: out-of-order deliveries are decidable the
            // moment they are seen, so the watcher trips almost at once.
            let config = BrokerConfig::correct().with_faults(
                FaultSpec::none()
                    .reordering(0.4, Duration::from_millis(5))
                    .seeded(3),
            );
            (Arc::new(ReferenceBroker::with_config(config)), None)
        };
        // A run period far longer than the test should ever take: only
        // the fail-fast cancellation can finish this quickly.
        let run_period = Duration::from_secs(30);
        let spec = TestSpec::new("fail-fast")
            .with_periods(
                Duration::from_millis(20),
                run_period,
                Duration::from_secs(2),
            )
            .with_fail_fast(true)
            .node(
                NodeSpec::new("n0")
                    .producer(ProducerSpec::steady(Destination::queue("q"), 400.0, 64))
                    .consumer(ConsumerSpec::auto(Destination::queue("q"))),
            );
        let result = prince.run_test(&factory, &spec);
        assert!(
            result.wall_time < run_period / 2,
            "fail_fast should cancel long before the {run_period:?} run elapses, took {:?}",
            result.wall_time
        );
        match &result.outcome {
            TestOutcome::Violated(report) => {
                assert!(report.count_of(jmst_core::PropertyKind::MessageOrdering) > 0);
            }
            other => panic!("expected Violated, got {other:?}"),
        }
    }

    #[test]
    fn a_panicking_checker_keeps_the_trace_and_the_verdict() {
        use jmst_core::{CheckerRegistry, PropertyChecker, Violation};
        use std::sync::atomic::AtomicUsize;

        /// Panics on its 100th event, once per test: the replay that
        /// follows must get through.
        #[derive(Debug)]
        struct PanicsOnce {
            seen: usize,
            armed: Arc<AtomicBool>,
        }
        impl PropertyChecker for PanicsOnce {
            fn observe(&mut self, _event: &jmst_store::Event) {
                self.seen += 1;
                if self.seen == 100 && self.armed.swap(false, Ordering::SeqCst) {
                    panic!("checker bug on the 100th event");
                }
            }
            fn finish(self: Box<Self>) -> Vec<Violation> {
                Vec::new()
            }
        }

        let busy = TestSpec::new("watched")
            .with_periods(
                Duration::from_millis(20),
                Duration::from_millis(150),
                Duration::from_secs(2),
            )
            .node(
                NodeSpec::new("n0")
                    .producer(ProducerSpec::steady(Destination::queue("q"), 2_000.0, 64))
                    .consumer(ConsumerSpec::auto(Destination::queue("q"))),
            );
        let trace = ThreadedRunner::new()
            .run(Arc::new(ReferenceBroker::new()), None, &busy)
            .expect("run");
        assert!(trace.len() > 100, "{} events", trace.len());
        let armed = Arc::new(AtomicBool::new(true));
        let mut registry = CheckerRegistry::new();
        let flag = Arc::clone(&armed);
        registry.register("panics-once", move || {
            Box::new(PanicsOnce {
                seen: 0,
                armed: Arc::clone(&flag),
            })
        });
        let analyzer = Analyzer::new().with_registry(registry);
        let surfaced = AtomicUsize::new(0);
        let (report, watched) = watch(trace.clone().into_iter(), &analyzer, |live| {
            surfaced.store(live, Ordering::SeqCst);
        });
        assert!(!armed.load(Ordering::SeqCst), "the checker never panicked");
        assert_eq!(watched, trace, "the watcher lost or reordered events");
        assert_eq!(report, analyzer.analyze(&trace));
        assert!(report.passed());
    }

    #[test]
    fn watch_announces_live_violations_once() {
        use jmst_api::destination::{EndpointId, QueueName};
        use jmst_api::id::{ConsumerId, MessageId, NodeId, ProducerId, SessionId};
        use jmst_api::modes::{DeliveryMode, Priority, TimeToLive};
        use jmst_api::time::Timestamp;
        use jmst_store::event::{Event, EventKind, MessageRecord};

        let record = |message: u64| MessageRecord {
            message: MessageId::from_raw(message),
            producer: ProducerId::from_raw(1),
            sequence: message,
            destination: Destination::queue("q"),
            priority: Priority::DEFAULT,
            delivery_mode: DeliveryMode::Persistent,
            time_to_live: TimeToLive::FOREVER,
            sent_at: Timestamp::ZERO,
            body_bytes: 8,
            redelivered: false,
            delivery_count: 1,
            properties: Default::default(),
        };
        let mut kinds = Vec::new();
        for message in 0..3 {
            kinds.push(EventKind::Send {
                record: record(message),
                session: SessionId::from_raw(1),
                tx: None,
            });
            // Each message is delivered twice: three live duplicates.
            for _ in 0..2 {
                kinds.push(EventKind::Receive {
                    consumer: ConsumerId::from_raw(2),
                    endpoint: EndpointId::for_queue(QueueName::new("q")),
                    record: record(message),
                    session: SessionId::from_raw(2),
                    tx: None,
                });
            }
        }
        let events = kinds.into_iter().enumerate().map(|(seq, kind)| Event {
            seq: seq as u64,
            at: Timestamp::ZERO,
            node: NodeId::from_raw(0),
            kind,
        });
        let mut calls = Vec::new();
        let (report, _) = watch(events, &Analyzer::new(), |live| calls.push(live));
        assert_eq!(
            report.count_of(jmst_core::PropertyKind::DuplicateDelivery),
            3
        );
        assert_eq!(calls, [1], "one announcement, at the first violation");
    }

    #[test]
    fn spec_properties_run_beside_the_callers_registry() {
        let own = jmst_props::parse_properties("everything = receives >= 1").expect("parses");
        let analyzer = Analyzer::new().with_registry(jmst_props::compile_registry(&own));
        let prince = DaemonPrince::with_analyzer(analyzer);
        let factory = |_: &TestSpec| -> (Arc<dyn jmst_api::provider::Provider>, _) {
            (Arc::new(ReferenceBroker::new()), None)
        };
        let declared = jmst_props::parse_properties("late = deadline 60s").expect("parses");
        let result = prince.run_test(&factory, &spec("two registries").with_properties(declared));
        let report = result.outcome.report().expect("ran");
        let names: Vec<&str> = report.named.iter().map(|row| row.name.as_str()).collect();
        assert_eq!(names, ["everything", "late"]);
    }

    #[test]
    fn campaign_mixes_pass_violation_and_invalid() {
        let prince = DaemonPrince::new();
        let factory = |spec: &TestSpec| -> (Arc<dyn jmst_api::provider::Provider>, _) {
            let config = if spec.name.contains("dropper") {
                BrokerConfig::correct().with_faults(FaultSpec::none().dropping(0.3).seeded(1))
            } else {
                BrokerConfig::correct()
            };
            let broker = ReferenceBroker::with_config(config);
            (Arc::new(broker), None)
        };
        let specs = vec![spec("clean"), spec("dropper"), TestSpec::new("invalid")];
        let report = prince.run_campaign(&factory, &specs);
        assert_eq!(report.results.len(), 3);
        assert_eq!(report.passed(), 1);
        assert_eq!(report.violated(), 1);
        assert_eq!(report.failed(), 1);
        assert!(report.results[0].outcome.passed());
        assert!(report.results[0].outcome.report().is_some());
        assert!(report.results[2].outcome.report().is_none());
        let text = report.to_string();
        assert!(text.contains("PASS"));
        assert!(text.contains("VIOLATED"));
        assert!(text.contains("INVALID"));
    }
}
