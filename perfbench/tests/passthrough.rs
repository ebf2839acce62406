//! The timing decorators must not change what the harness observes. On a
//! small seeded spec at shards {1, 8}, and under both driver modes, the
//! decorated and the bare reference broker give identical verdicts and
//! identical per-consumer delivery multisets.

use jmst_api::provider::Provider;
use jmst_core::{AnalysisReport, PropertyKind};
use jmst_harness::prince::DaemonPrince;
use jmst_harness::princed::spec_factory;
use jmst_harness::runner::BrokerAdmin;
use jmst_harness::{parse_spec, TestSpec};
use jmst_perfbench::decorate::{Probe, TracedProvider};
use jmst_perfbench::spans::Tracer;
use jmst_store::{Event, EventKind};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Two producers fan out to a topic with three selector shapes, and a
/// third feeds a queue; every producer stops after a fixed count, so the
/// delivered set is fully determined by the spec.
fn spec(shards: u32, drivers: &str) -> TestSpec {
    parse_spec(&format!(
        r#"
[test]
name = passthrough-{drivers}-{shards}
seed = 29
warm_up = 20ms
run = 250ms
warm_down = 3s
drivers = {drivers}
shards = {shards}

[node producers]

[producer]
destination = topic:orders
rate = steady 400
body = text 64
limit = 60
prop = region 'emea'
prop = tier 3

[producer]
destination = topic:orders
rate = poisson 400
body = bytes 128
limit = 60
prop = region 'apac'
prop = tier 1

[producer]
destination = queue:work
rate = steady 300
body = text 32
limit = 50

[node consumers]

[consumer]
destination = topic:orders
selector = region = 'emea'

[consumer]
destination = topic:orders
selector = region = 'apac' AND tier <= 2

[consumer]
destination = topic:orders

[consumer]
destination = queue:work

[properties]
prompt = deadline 2s
"#
    ))
    .expect("spec parses")
}

/// Deliveries per subscriber, keyed by (destination, selector): broker
/// consumer ids, and with them topic end-point ids, depend on creation
/// order, which thread scheduling may vary between runs.
type Multisets = BTreeMap<(String, Option<String>), BTreeMap<(u64, u64), u32>>;
type Verdict = (bool, BTreeMap<PropertyKind, usize>, usize, usize);

fn per_consumer(events: &[Event]) -> Multisets {
    let mut selectors = BTreeMap::new();
    for event in events {
        if let EventKind::ConsumerCreated {
            consumer, selector, ..
        } = &event.kind
        {
            selectors.insert(*consumer, selector.clone());
        }
    }
    let mut map = Multisets::new();
    for event in events {
        if let EventKind::Receive {
            consumer, record, ..
        } = &event.kind
        {
            let selector = selectors.get(consumer).cloned().flatten();
            *map.entry((record.destination.to_string(), selector))
                .or_default()
                .entry((record.producer.as_u64(), record.sequence))
                .or_insert(0) += 1;
        }
    }
    map
}

fn verdict(report: &AnalysisReport) -> Verdict {
    let counts = report
        .by_property()
        .into_iter()
        .map(|(kind, list)| (kind, list.len()))
        .collect();
    (report.passed(), counts, report.sends, report.receives)
}

fn run(spec: &TestSpec, probe: Option<&Probe>) -> (Verdict, Multisets) {
    let factory = |spec: &TestSpec| -> (Arc<dyn Provider>, Option<Arc<dyn BrokerAdmin>>) {
        let (provider, admin) = spec_factory(spec);
        match probe {
            Some(probe) => (
                Arc::new(TracedProvider::new(provider, probe.clone())),
                admin,
            ),
            None => (provider, admin),
        }
    };
    let (result, events) = DaemonPrince::new().run_test_collected(&factory, spec);
    let report = result
        .outcome
        .report()
        .unwrap_or_else(|| panic!("{}: no report: {:?}", spec.name, result.outcome));
    (verdict(report), per_consumer(&events))
}

#[test]
fn decorated_broker_matches_bare_broker() {
    for drivers in ["reactor", "thread"] {
        for shards in [1u32, 8] {
            let spec = spec(shards, drivers);
            let (bare_verdict, bare_deliveries) = run(&spec, None);
            let tracer = Tracer::new();
            let probe = Probe::new(Arc::clone(&tracer));
            let (traced_verdict, traced_deliveries) = run(&spec, Some(&probe));

            assert!(
                bare_verdict.0,
                "{}: bare run must pass: {bare_verdict:?}",
                spec.name
            );
            assert_eq!(
                bare_verdict, traced_verdict,
                "{}: verdicts differ",
                spec.name
            );
            assert_eq!(
                bare_deliveries, traced_deliveries,
                "{}: per-consumer deliveries differ",
                spec.name
            );
            // Both topic producers reach the unfiltered subscriber, each
            // selective subscriber gets one producer, the queue its own.
            let delivered: u32 = bare_deliveries.values().flat_map(|m| m.values()).sum();
            assert_eq!(delivered, 120 + 60 + 60 + 50, "{}", spec.name);
            // The decorators saw the traffic they time.
            let counters = &probe.counters;
            assert_eq!(counters.sends.load(Ordering::Relaxed), 170, "{}", spec.name);
            assert_eq!(
                counters.receive_msgs.load(Ordering::Relaxed),
                290,
                "{}",
                spec.name
            );
            if drivers == "reactor" {
                // Reactor consumers hand the broker a waker; the decorator
                // must pass it through, or they would silently poll.
                assert!(
                    counters.wakes.load(Ordering::Relaxed) > 0,
                    "{}: wakers reach the broker",
                    spec.name
                );
            }
            let spans = tracer.take();
            assert!(
                spans
                    .iter()
                    .any(|span| span.name == "broker.send" && span.request.is_some()),
                "{}: send spans carry the message id",
                spec.name
            );
        }
    }
}
