//! Differential test: at low utilisation, an open-loop run must be
//! indistinguishable from the closed-loop run it replaces — same
//! analyzer verdict, same delivery multiset. The loops differ only in
//! *when* sends happen under back-pressure, and at low rates there is
//! no back-pressure to react to.
//!
//! The broker's shard count comes from `JMST_TEST_SHARDS` (the CI
//! matrix runs 1 and 8), so this differential holds across routing
//! configurations.

use jmst_api::destination::EndpointId;
use jmst_broker::ReferenceBroker;
use jmst_core::Analyzer;
use jmst_harness::runner::ThreadedRunner;
use jmst_harness::spec::{ConsumerSpec, NodeSpec, ProducerSpec, TestSpec};
use jmst_store::event::EventKind;
use jmst_store::trace::Trace;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

const LIMIT: u64 = 40;

fn low_utilisation_spec(name: &str) -> TestSpec {
    TestSpec::new(name)
        .with_seed(11)
        .with_periods(
            Duration::from_millis(20),
            Duration::from_millis(600),
            Duration::from_secs(3),
        )
        .node(
            NodeSpec::new("n0")
                .producer(
                    jmst_harness::spec::ProducerSpec::steady(
                        jmst_api::destination::Destination::queue("diff"),
                        200.0,
                        64,
                    )
                    .limited(LIMIT),
                )
                .consumer(ConsumerSpec::auto(
                    jmst_api::destination::Destination::queue("diff"),
                )),
        )
}

fn run(spec: &TestSpec) -> Trace {
    ThreadedRunner::new()
        .run(Arc::new(ReferenceBroker::new()), None, spec)
        .expect("run completes")
}

/// Multiset of `(producer, sequence)` pairs for the given event shape.
fn multiset(trace: &Trace, receives: bool) -> BTreeMap<(u64, u64), u32> {
    let mut set = BTreeMap::new();
    for event in trace.iter() {
        let record = match &event.kind {
            EventKind::Receive { record, .. } if receives => record,
            EventKind::Send { record, .. } if !receives => record,
            _ => continue,
        };
        *set.entry((record.producer.as_u64(), record.sequence))
            .or_insert(0u32) += 1;
    }
    set
}

/// Delivery multisets grouped by the end-point that delivered them.
fn per_endpoint(trace: &Trace) -> BTreeMap<EndpointId, BTreeMap<(u64, u64), u32>> {
    let mut map: BTreeMap<EndpointId, BTreeMap<(u64, u64), u32>> = BTreeMap::new();
    for event in trace.iter() {
        if let EventKind::Receive {
            endpoint, record, ..
        } = &event.kind
        {
            *map.entry(endpoint.clone())
                .or_default()
                .entry((record.producer.as_u64(), record.sequence))
                .or_insert(0u32) += 1;
        }
    }
    map
}

/// Virtual client 0 of an open-loop producer carries the closed-loop
/// producer's seed and harness identity, so with one client the two
/// loops must emit the same sends under the same identities.
#[test]
fn open_loop_matches_closed_loop_at_low_utilisation() {
    let closed = run(&low_utilisation_spec("closed"));
    let open = run(&low_utilisation_spec("open").open_loop());

    let closed_report = Analyzer::new().analyze(&closed);
    let open_report = Analyzer::new().analyze(&open);
    assert!(closed_report.passed(), "closed loop: {closed_report}");
    assert!(open_report.passed(), "open loop: {open_report}");
    assert_eq!(closed_report.sends, open_report.sends, "send counts differ");
    assert_eq!(
        closed_report.receives, open_report.receives,
        "receive counts differ"
    );

    // Same sends, same deliveries — as multisets of (producer, seq).
    assert_eq!(
        multiset(&closed, false),
        multiset(&open, false),
        "send multisets differ"
    );
    assert_eq!(
        multiset(&closed, true),
        multiset(&open, true),
        "delivery multisets differ"
    );
    assert_eq!(
        per_endpoint(&closed),
        per_endpoint(&open),
        "per-end-point deliveries differ"
    );
    // Every message was sent exactly once under both loops.
    let sends = multiset(&open, false);
    assert_eq!(sends.len() as u64, LIMIT);
    assert!(sends.values().all(|&n| n == 1));
}

#[test]
fn open_loop_fans_out_virtual_clients_with_distinct_identities() {
    let spec = low_utilisation_spec("fan-out").open_loop().with_clients(4);
    let trace = run(&spec);
    let report = Analyzer::new().analyze(&trace);
    assert!(report.passed(), "{report}");
    let sends = multiset(&trace, false);
    // 4 virtual clients, each sending the producer's full limit under
    // its own harness identity.
    let producers: std::collections::BTreeSet<u64> =
        sends.keys().map(|&(producer, _)| producer).collect();
    assert_eq!(producers.len(), 4, "expected 4 identities: {producers:?}");
    assert_eq!(sends.len() as u64, 4 * LIMIT);
    assert_eq!(multiset(&trace, true), sends, "every send delivered once");
}

/// A producer with no message limit must stop at warm-down like any
/// closed-loop driver, and the run must still analyze clean.
#[test]
fn unbounded_open_loop_stops_at_warm_down() {
    let spec = TestSpec::new("unbounded")
        .with_seed(3)
        .with_periods(
            Duration::from_millis(20),
            Duration::from_millis(250),
            Duration::from_secs(3),
        )
        .open_loop()
        .node(
            NodeSpec::new("n0")
                .producer(ProducerSpec::steady(
                    jmst_api::destination::Destination::queue("unb"),
                    400.0,
                    32,
                ))
                .consumer(ConsumerSpec::auto(
                    jmst_api::destination::Destination::queue("unb"),
                )),
        );
    let trace = run(&spec);
    let report = Analyzer::new().analyze(&trace);
    assert!(report.passed(), "{report}");
    assert!(report.sends > 10, "sent only {}", report.sends);
    assert_eq!(report.sends, report.receives, "{report}");
}
