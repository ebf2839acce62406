//! The daemon prince keeps one copy of each recorded event: the one its
//! live watcher collects. These tests check that this copy is the whole
//! log — every sequence number from 0 to n exactly once, in canonical
//! `(at, seq)` order — and that a batch replay of it reaches the live
//! verdict, for a passing run, a fail-fast run cut short by its first
//! violation, and a hung run.

use jmst::prelude::*;
use jmst::store::Event;
use std::sync::Arc;
use std::time::Duration;

/// A fresh provider and no admin hook, as a prince factory returns them.
type Built = (Arc<dyn Provider>, Option<Arc<dyn BrokerAdmin>>);

fn factory(config: BrokerConfig) -> impl Fn(&TestSpec) -> Built {
    move |_: &TestSpec| -> Built { (Arc::new(ReferenceBroker::with_config(config.clone())), None) }
}

fn queue_spec(name: &str, rate: f64, run: Duration, think: Duration) -> TestSpec {
    TestSpec::new(name)
        .with_periods(Duration::from_millis(10), run, Duration::from_millis(100))
        .node(
            NodeSpec::new("n0")
                .producer(ProducerSpec::steady(Destination::queue("q"), rate, 64))
                .consumer(ConsumerSpec::auto(Destination::queue("q")).with_think_time(think)),
        )
}

/// The returned events are the recorder's whole log, once, in canonical
/// order, and replaying them gives the live report.
fn assert_one_complete_copy(result: &TestResult, events: &[Event]) {
    let name = &result.name;
    assert!(!events.is_empty(), "{name}: no events returned");
    let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    seqs.sort_unstable();
    assert!(
        seqs.iter().copied().eq(0..events.len() as u64),
        "{name}: sequence numbers are not exactly 0..{}",
        events.len()
    );
    assert!(
        events.windows(2).all(|w| w[0].ord_key() < w[1].ord_key()),
        "{name}: events are not in canonical order"
    );
    let live = result.outcome.report().expect("the run was analysed");
    let replayed = Analyzer::new().analyze(&Trace::from_events(events.to_vec()));
    assert_eq!(
        &replayed, live,
        "{name}: replay diverged from the live verdict"
    );
}

#[test]
fn passing_run_returns_every_event_once() {
    let prince = DaemonPrince::new();
    let spec = queue_spec("clean", 400.0, Duration::from_millis(200), Duration::ZERO);
    let (result, events) = prince.run_test_collected(&factory(BrokerConfig::correct()), &spec);
    assert!(result.outcome.passed(), "{:?}", result.outcome);
    assert_one_complete_copy(&result, &events);
}

#[test]
fn cancelled_fail_fast_run_returns_every_event_once() {
    let prince = DaemonPrince::new();
    // Heavy reordering is decidable on sight, so the first live
    // violation cancels the run long before its period elapses.
    let config = BrokerConfig::correct().with_faults(
        FaultSpec::none()
            .reordering(0.4, Duration::from_millis(5))
            .seeded(3),
    );
    // The watcher sees nothing until the stream's reorder buffer holds
    // 8192 events, so a fast producer keeps the cancellation prompt.
    let run_period = Duration::from_secs(30);
    let spec = queue_spec("fail-fast", 5_000.0, run_period, Duration::ZERO).with_fail_fast(true);
    let (result, events) = prince.run_test_collected(&factory(config), &spec);
    assert!(
        result.wall_time < run_period / 2,
        "fail_fast did not cancel the run: {:?}",
        result.wall_time
    );
    assert!(
        matches!(result.outcome, TestOutcome::Violated(_)),
        "{:?}",
        result.outcome
    );
    assert_one_complete_copy(&result, &events);
}

#[test]
fn hung_run_returns_every_event_once() {
    // A consumer stuck far longer than the join deadline hangs the test.
    let prince = DaemonPrince::new().with_runner(ThreadedRunner {
        join_grace: Duration::from_millis(150),
    });
    let spec = queue_spec(
        "hang",
        400.0,
        Duration::from_millis(80),
        Duration::from_secs(2),
    );
    let (result, events) = prince.run_test_collected(&factory(BrokerConfig::correct()), &spec);
    assert!(
        matches!(result.outcome, TestOutcome::Hung { .. }),
        "{:?}",
        result.outcome
    );
    assert!(result.outcome.report().expect("analysed").sends > 0);
    assert_one_complete_copy(&result, &events);
}

#[test]
fn live_stream_stays_within_the_reorder_depth() {
    // The prince's wiring: the recorder's only sink is a channel whose
    // stream reorders at the prince's depth. No event may arrive after
    // its canonical slot was released.
    let spec = queue_spec(
        "in-depth",
        2_000.0,
        Duration::from_millis(200),
        Duration::ZERO,
    );
    let (sink, mut stream) =
        jmst::store::sink::channel(jmst::harness::prince::STREAM_REORDER_DEPTH, 16_384);
    let watcher = std::thread::spawn(move || {
        let events = stream.by_ref().count();
        (events, stream.late_events())
    });
    ThreadedRunner::new()
        .run_observed(
            Arc::new(ReferenceBroker::new()),
            None,
            &spec,
            Some(Box::new(sink)),
            None,
        )
        .expect("the run completes");
    let (events, late) = watcher.join().expect("the watcher finishes");
    assert!(events > 0, "no events streamed");
    assert_eq!(
        late, 0,
        "{late} event(s) arrived after their slot was released"
    );
}
