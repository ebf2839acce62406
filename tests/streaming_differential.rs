//! Differential acceptance tests of the streaming pipeline: for every
//! scenario — clean, faulty, crashing, sharded — the streaming analyzer
//! fed through the live channel-and-reorder-buffer transport must produce
//! a report identical to the batch driver's replay of the recorded trace.
//! Violation sets, performance summaries, expiry accounting, and the
//! dead-letter-backed redelivery verdicts all ride in the compared
//! [`AnalysisReport`]s.

use jmst::harness::HarnessError;
use jmst::prelude::*;
use jmst::store::sink::EventSink;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Streams a recorded trace through the live transport (bounded channel
/// plus reorder buffer) into a streaming analyzer on its own thread.
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

fn assert_reports_match(trace: &Trace, context: &str) {
    let analyzer = Analyzer::new();
    let batch = analyzer.analyze(trace);
    let streaming = streaming_report(&analyzer, trace);
    assert_eq!(
        batch.violations, streaming.violations,
        "violation sets diverged: {context}"
    );
    assert_eq!(
        batch.performance, streaming.performance,
        "performance summaries diverged: {context}"
    );
    assert_eq!(batch, streaming, "reports diverged: {context}");
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
    let mut spec = TestSpec::new("streaming-differential")
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

/// Runs the script, salvaging the partial trace when the faults made the
/// run inconclusive — a divergence on a salvaged trace is just as much a
/// bug as one on a completed run.
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
    fn streaming_equals_batch_under_random_fault_scripts(script in arb_script()) {
        let trace = script_trace(&script);
        assert_reports_match(&trace, &format!("{script:?}"));
    }
}

#[test]
fn streaming_equals_batch_on_clean_sharded_runs() {
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
        assert_reports_match(&trace, &format!("clean run, {shards} shard(s)"));
    }
}

#[test]
fn streaming_equals_batch_through_crash_recovery_with_dlq() {
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
    // The heavy ack loss with a tight redelivery bound parks messages on
    // the DLQ; both analyses must account for them identically.
    assert_reports_match(&trace, "crash + ack loss + DLQ");
}
