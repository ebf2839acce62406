//! Differential acceptance tests of the property DSL's built-in names.
//! One analyzer runs the default table and, after it, a registry that
//! declares every built-in name (`ordered`, `no_duplicates`, `required`,
//! `integrity`, `priority`, `expiry`, and `redelivery <= N` when the
//! broker enforces a bound). The named rows must report exactly the
//! violations of the default rows — same violations, same counts — over
//! randomized fault-scripted broker runs at 1 and 8 shards, including
//! partial traces salvaged from inconclusive or hung runs. The analyzer
//! must also agree with itself across the batch and streaming paths.

use jmst::core::{AnalysisConfig, CheckerRegistry, Violation};
use jmst::harness::HarnessError;
use jmst::prelude::*;
use jmst::props::{compile_registry, parse_properties};
use jmst::store::sink::EventSink;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Every built-in name the default table runs; the redelivery bound
/// rides along only when the broker enforces one.
fn builtin_names(max_redeliveries: Option<u32>) -> CheckerRegistry {
    let mut text = String::from(
        "in_order = ordered\n\
         no_dupes = no_duplicates\n\
         everything = required\n\
         untampered = integrity\n\
         by_priority = priority\n\
         not_expired = expiry\n",
    );
    if let Some(bound) = max_redeliveries {
        text.push_str(&format!("bounded = redelivery <= {bound}\n"));
    }
    compile_registry(&parse_properties(&text).expect("built-in names parse"))
}

/// The default table, then the same checks again as named rows.
fn analyzer(max_redeliveries: Option<u32>) -> Analyzer {
    let mut config = AnalysisConfig::default();
    if let Some(bound) = max_redeliveries {
        config = config.with_redelivery_bound(bound);
    }
    Analyzer::with_config(config).with_registry(builtin_names(max_redeliveries))
}

/// Sorted violation multiset, comparable across checker orderings.
fn multiset(violations: &[Violation]) -> Vec<String> {
    let mut set: Vec<String> = violations
        .iter()
        .map(|violation| format!("{violation:?}"))
        .collect();
    set.sort();
    set
}

/// Streams the trace through the live transport into the analyzer's
/// streaming pipeline, named checkers included.
fn streaming_report(analyzer: &Analyzer, trace: &Trace) -> AnalysisReport {
    let (mut sink, stream) = jmst::store::channel(1024, 4096);
    let mut streaming = analyzer.streaming();
    let consumer = std::thread::spawn(move || {
        for event in stream {
            streaming.observe(&event);
        }
        streaming.finish()
    });
    for event in trace {
        sink.accept(event.clone());
    }
    sink.close();
    consumer.join().expect("streaming analysis thread")
}

fn assert_named_rows_match_defaults(trace: &Trace, max_redeliveries: Option<u32>, context: &str) {
    let analyzer = analyzer(max_redeliveries);
    let report = analyzer.analyze(trace);
    // Named rows follow the default rows, so their violations are the
    // tail of the report's list.
    let named: usize = report.named.iter().map(|outcome| outcome.violations).sum();
    let (defaults, named) = report.violations.split_at(report.violations.len() - named);
    assert_eq!(
        multiset(defaults),
        multiset(named),
        "built-in names diverged from the default table: {context}"
    );
    let streamed = streaming_report(&analyzer, trace);
    assert_eq!(report, streamed, "batch vs streaming diverged: {context}");
}

/// One generated fault/recovery script for a short broker run.
#[derive(Debug, Clone)]
struct FaultScript {
    shards: usize,
    seed: u64,
    drop: f64,
    duplicate: f64,
    reorder: f64,
    ack_loss: f64,
    crash: bool,
    max_redeliveries: Option<u32>,
}

fn arb_script() -> impl Strategy<Value = FaultScript> {
    (
        prop_oneof![Just(1usize), Just(8usize)],
        0u64..1_000,
        prop_oneof![Just(0.0), Just(0.1), Just(0.3)],
        prop_oneof![Just(0.0), Just(0.2)],
        prop_oneof![Just(0.0), Just(0.3)],
        prop_oneof![Just(0.0), Just(0.15)],
        any::<bool>(),
        prop_oneof![Just(None), Just(Some(2u32))],
    )
        .prop_map(
            |(shards, seed, drop, duplicate, reorder, ack_loss, crash, max_redeliveries)| {
                FaultScript {
                    shards,
                    seed,
                    drop,
                    duplicate,
                    reorder,
                    ack_loss,
                    crash,
                    max_redeliveries,
                }
            },
        )
}

fn script_spec(script: &FaultScript) -> TestSpec {
    let mut spec = TestSpec::new("props-differential")
        .with_seed(script.seed)
        .with_periods(
            Duration::from_millis(10),
            Duration::from_millis(120),
            Duration::from_secs(3),
        )
        .node(
            NodeSpec::new("n0")
                .producer(
                    ProducerSpec::steady(Destination::queue("q"), 300.0, 64)
                        .with_delivery_mode(DeliveryMode::Persistent),
                )
                .consumer(
                    ConsumerSpec::auto(Destination::queue("q"))
                        .with_mode(SessionMode::ClientAcknowledge, 3),
                ),
        );
    if script.crash {
        spec = spec.with_crash(CrashPlan {
            crash_after: Duration::from_millis(50),
            down_for: Duration::from_millis(25),
        });
    }
    spec
}

fn script_broker(script: &FaultScript) -> ReferenceBroker {
    let faults = FaultSpec::none()
        .dropping(script.drop)
        .duplicating(script.duplicate)
        .reordering(script.reorder, Duration::from_millis(3))
        .losing_acks(script.ack_loss)
        .seeded(script.seed);
    let mut config = BrokerConfig::correct()
        .with_shards(script.shards)
        .with_faults(faults);
    if let Some(bound) = script.max_redeliveries {
        config = config.with_max_redeliveries(bound);
    }
    ReferenceBroker::with_config(config)
}

/// Runs the script, salvaging the partial trace when the faults made
/// the run inconclusive — the named rows must agree on salvaged
/// traces just as on completed ones.
fn script_trace(script: &FaultScript) -> Trace {
    let broker = script_broker(script);
    let admin: Arc<dyn BrokerAdmin> = Arc::new(broker.clone());
    match ThreadedRunner::new().run(Arc::new(broker), Some(admin), &script_spec(script)) {
        Ok(trace) => trace,
        Err(HarnessError::Inconclusive { partial_trace, .. })
        | Err(HarnessError::TestHung { partial_trace, .. }) => *partial_trace,
        Err(other) => panic!("unexpected harness error: {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn builtin_names_equal_default_rows_under_random_fault_scripts(script in arb_script()) {
        let trace = script_trace(&script);
        assert_named_rows_match_defaults(&trace, script.max_redeliveries, &format!("{script:?}"));
    }
}

#[test]
fn builtin_names_equal_default_rows_on_clean_sharded_runs() {
    for shards in [1usize, 8] {
        let script = FaultScript {
            shards,
            seed: 42,
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            ack_loss: 0.0,
            crash: false,
            max_redeliveries: None,
        };
        let trace = script_trace(&script);
        assert_named_rows_match_defaults(&trace, None, &format!("clean run, {shards} shard(s)"));
    }
}

#[test]
fn builtin_names_equal_default_rows_through_crash_recovery_with_dlq() {
    let script = FaultScript {
        shards: 8,
        seed: 7,
        drop: 0.0,
        duplicate: 0.0,
        reorder: 0.0,
        ack_loss: 0.4,
        crash: true,
        max_redeliveries: Some(2),
    };
    let trace = script_trace(&script);
    // Heavy ack loss with a tight redelivery bound parks messages on the
    // DLQ; the named rows must account for them exactly like the defaults.
    assert_named_rows_match_defaults(&trace, Some(2), "crash + ack loss + DLQ");
}

#[test]
fn committed_prop_fixtures_parse_and_compile() {
    // The checked-in `.prop` fixtures under scenarios/props/ stay honest:
    // clean files parse, lint without errors, and compile; broken ones
    // are rejected by the static front end with their advertised rule.
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join("props");
    let mut expected_rules = std::collections::BTreeMap::new();
    expected_rules.insert("ill_typed.broken.prop", "prop-ill-typed");
    expected_rules.insert("vacuous.broken.prop", "prop-vacuous");
    expected_rules.insert("unsat.broken.prop", "prop-unsat");
    let mut seen_clean = 0usize;
    let mut seen_broken = 0usize;
    for entry in std::fs::read_dir(&dir).expect("scenarios/props/ exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().is_none_or(|ext| ext != "prop") {
            continue;
        }
        let name = path.file_name().and_then(|n| n.to_str()).expect("utf-8");
        let text = std::fs::read_to_string(&path).expect("readable fixture");
        let properties = parse_properties(&text)
            .unwrap_or_else(|error| panic!("{name} does not parse: {error}"));
        let report = jmst::harness::lint_props(&properties);
        if let Some(rule) = expected_rules.get(name) {
            seen_broken += 1;
            assert!(
                report.errors().any(|finding| finding.rule == *rule),
                "{name} should be rejected with {rule}:\n{report}"
            );
        } else {
            seen_clean += 1;
            assert!(!report.has_errors(), "{name} has lint errors:\n{report}");
            // Surviving fixtures compile onto the checker core.
            let registry = compile_registry(&properties);
            assert_eq!(registry.len(), properties.len());
        }
    }
    assert!(seen_clean >= 2, "expected the clean .prop fixtures");
    assert_eq!(seen_broken, 3, "expected all three broken .prop fixtures");
}
