//! End-to-end coverage of the operational-mode matrix the paper's
//! configurations sweep: messaging styles (point-to-point, pub/sub),
//! session modes (transacted and the three acknowledgement modes),
//! durable subscriptions with disconnect/reconnect, message selectors,
//! body types, bursty and Poisson workloads, and skewed node clocks.

use jmst::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn run_clean(spec: &TestSpec) -> AnalysisReport {
    let broker = ReferenceBroker::new();
    let trace = ThreadedRunner::new()
        .run(Arc::new(broker), None, spec)
        .expect("test must complete");
    Analyzer::new().analyze(&trace)
}

fn base(name: &str) -> TestSpec {
    TestSpec::new(name).with_periods(
        Duration::from_millis(30),
        Duration::from_millis(300),
        Duration::from_secs(3),
    )
}

#[test]
fn transacted_producers_and_consumers_pass() {
    let spec = base("transacted").node(
        NodeSpec::new("n0")
            .producer(ProducerSpec::steady(Destination::queue("q"), 300.0, 64).transacted(5))
            .consumer(
                ConsumerSpec::auto(Destination::queue("q")).with_mode(SessionMode::Transacted, 4),
            ),
    );
    let report = run_clean(&spec);
    assert!(report.passed(), "{report}");
    assert!(report.sends > 30);
    assert_eq!(report.sends, report.receives, "{report}");
}

#[test]
fn client_acknowledge_batching_passes() {
    let spec = base("client-ack").node(
        NodeSpec::new("n0")
            .producer(ProducerSpec::steady(Destination::queue("q"), 300.0, 64))
            .consumer(
                ConsumerSpec::auto(Destination::queue("q"))
                    .with_mode(SessionMode::ClientAcknowledge, 8),
            ),
    );
    let report = run_clean(&spec);
    assert!(report.passed(), "{report}");
}

#[test]
fn dups_ok_mode_passes_and_permits_duplicates_in_analysis() {
    let spec = base("dups-ok").node(
        NodeSpec::new("n0")
            .producer(ProducerSpec::steady(Destination::queue("q"), 300.0, 64))
            .consumer(
                ConsumerSpec::auto(Destination::queue("q"))
                    .with_mode(SessionMode::DupsOkAcknowledge, 1),
            ),
    );
    let report = run_clean(&spec);
    assert!(report.passed(), "{report}");
}

#[test]
fn pub_sub_fanout_to_multiple_subscribers() {
    let topic = Destination::topic("market");
    let spec = base("fanout").node(
        NodeSpec::new("n0")
            .producer(ProducerSpec::steady(topic.clone(), 200.0, 128))
            .consumer(ConsumerSpec::auto(topic.clone()))
            .consumer(ConsumerSpec::auto(topic.clone()))
            .consumer(ConsumerSpec::auto(topic)),
    );
    let report = run_clean(&spec);
    assert!(report.passed(), "{report}");
    // Every message reaches all three subscribers.
    assert_eq!(report.receives, report.sends * 3, "{report}");
}

#[test]
fn durable_subscriber_with_reconnect_cycles_misses_nothing() {
    let topic = Destination::topic("events");
    let spec = base("durable-reconnect")
        .with_periods(
            Duration::from_millis(30),
            Duration::from_millis(500),
            Duration::from_secs(4),
        )
        .node(
            NodeSpec::new("n0")
                .producer(ProducerSpec::steady(topic.clone(), 200.0, 64))
                .consumer(ConsumerSpec::auto(topic).durable("audit").with_reconnect(
                    ReconnectSpec {
                        after_messages: 25,
                        pause: Duration::from_millis(40),
                        max_cycles: 3,
                    },
                )),
        );
    let report = run_clean(&spec);
    // Messages published while the durable subscriber was away must be
    // retained and delivered after it resumes: no P2 violations.
    assert_eq!(
        report.count_of(PropertyKind::RequiredMessages),
        0,
        "{report}"
    );
    assert_eq!(
        report.count_of(PropertyKind::DuplicateDelivery),
        0,
        "{report}"
    );
    assert!(report.passed(), "{report}");
    assert_eq!(report.sends, report.receives, "{report}");
}

#[test]
fn non_durable_subscriber_reconnect_loses_only_gap_messages() {
    let topic = Destination::topic("ticker");
    let spec = base("non-durable-reconnect").node(
        NodeSpec::new("n0")
            .producer(ProducerSpec::steady(topic.clone(), 300.0, 64))
            .consumer(ConsumerSpec::auto(topic).with_reconnect(ReconnectSpec {
                after_messages: 30,
                pause: Duration::from_millis(50),
                max_cycles: 2,
            })),
    );
    let report = run_clean(&spec);
    // Non-durable subscriptions drop messages published while away —
    // that is correct behaviour, and the analysis must not flag it
    // (subscription latency and fresh endpoints excuse the gaps).
    assert!(report.passed(), "{report}");
    assert!(report.receives < report.sends, "{report}");
}

#[test]
fn selective_subscriber_sees_only_matching_messages() {
    let topic = Destination::topic("orders");
    let spec = base("selector").node(
        NodeSpec::new("n0")
            .producer(
                ProducerSpec::steady(topic.clone(), 150.0, 64)
                    .with_priority(Priority::new(8).expect("valid")),
            )
            .producer(
                ProducerSpec::steady(topic.clone(), 150.0, 64)
                    .with_priority(Priority::new(1).expect("valid")),
            )
            .consumer(ConsumerSpec::auto(topic.clone()).with_selector("JMSPriority >= 5"))
            .consumer(ConsumerSpec::auto(topic)),
    );
    let report = run_clean(&spec);
    assert!(report.passed(), "{report}");
    // The unselective subscriber sees everything; the selective one only
    // the high-priority half: receives strictly between 1× and 2× sends.
    assert!(report.receives > report.sends, "{report}");
    assert!(report.receives < report.sends * 2, "{report}");
}

#[test]
fn burst_and_poisson_workloads_pass() {
    let spec = base("workloads").node(
        NodeSpec::new("n0")
            .producer(ProducerSpec {
                workload: ArrivalProcess::burst(10, Duration::from_millis(50)),
                ..ProducerSpec::steady(Destination::queue("q"), 1.0, 64)
            })
            .producer(ProducerSpec {
                workload: ArrivalProcess::poisson(200.0),
                ..ProducerSpec::steady(Destination::queue("q"), 1.0, 64)
            })
            .consumer(ConsumerSpec::auto(Destination::queue("q"))),
    );
    let report = run_clean(&spec);
    assert!(report.passed(), "{report}");
    assert!(report.sends > 40, "{report}");
}

#[test]
fn every_body_kind_round_trips() {
    let mut node = NodeSpec::new("n0");
    for kind in BodyKind::ALL {
        node =
            node.producer(ProducerSpec::steady(Destination::queue("q"), 60.0, 256).with_body(kind));
    }
    node = node.consumer(ConsumerSpec::auto(Destination::queue("q")));
    let report = run_clean(&base("bodies").node(node));
    assert!(report.passed(), "{report}");
    assert!(report.performance.consumer_throughput.bytes > 0);
}

#[test]
fn skewed_node_clocks_yield_negative_delays_but_no_violations() {
    // The consumer node's clock runs 5 ms behind the producer's: delays
    // can come out negative (paper footnote 6), which the performance
    // analysis must report rather than crash on.
    let spec = base("skew")
        .node(NodeSpec::new("producers").producer(ProducerSpec::steady(
            Destination::queue("q"),
            200.0,
            64,
        )))
        .node(
            NodeSpec::new("consumers")
                .with_clock_skew(-5_000_000)
                .consumer(ConsumerSpec::auto(Destination::queue("q"))),
        );
    let report = run_clean(&spec);
    assert!(report.passed(), "{report}");
    assert!(
        report.performance.delay.negative_samples > 0,
        "skew must surface as negative delays: {:?}",
        report.performance.delay
    );
}

#[test]
fn multi_producer_multi_consumer_queue_partitions_work() {
    let spec = base("m-n-queue").node(
        NodeSpec::new("n0")
            .producer(ProducerSpec::steady(Destination::queue("jobs"), 200.0, 64))
            .producer(ProducerSpec::steady(Destination::queue("jobs"), 200.0, 64))
            .consumer(ConsumerSpec::auto(Destination::queue("jobs")))
            .consumer(ConsumerSpec::auto(Destination::queue("jobs"))),
    );
    let report = run_clean(&spec);
    assert!(report.passed(), "{report}");
    // Queue semantics: each message delivered exactly once overall.
    assert_eq!(report.sends, report.receives, "{report}");
    assert_eq!(report.performance.per_consumer.len(), 2);
}

#[test]
fn shared_connection_node_passes() {
    // The paper's resource-sharing configuration: all drivers on the node
    // multiplex one connection, each with its own session.
    let topic = Destination::topic("shared");
    let spec = base("shared-connection").node(
        NodeSpec::new("n0")
            .sharing_connection()
            .producer(ProducerSpec::steady(topic.clone(), 200.0, 64))
            .producer(ProducerSpec::steady(topic.clone(), 200.0, 64).transacted(5))
            .consumer(ConsumerSpec::auto(topic.clone()).durable("shared-audit"))
            .consumer(ConsumerSpec::auto(topic)),
    );
    let report = run_clean(&spec);
    assert!(report.passed(), "{report}");
    assert_eq!(report.receives, report.sends * 2, "{report}");
}

#[test]
fn shared_connection_rejects_crash_plans_and_reconnect() {
    let queue = Destination::queue("q");
    let crash_spec = base("bad-crash")
        .node(
            NodeSpec::new("n0")
                .sharing_connection()
                .producer(ProducerSpec::steady(queue.clone(), 10.0, 64))
                .consumer(ConsumerSpec::auto(queue.clone())),
        )
        .with_crash(CrashPlan {
            crash_after: Duration::from_millis(50),
            down_for: Duration::from_millis(10),
        });
    assert!(crash_spec.validate().unwrap_err().contains("crash plans"));

    let reconnect_spec =
        base("bad-reconnect").node(NodeSpec::new("n0").sharing_connection().consumer(
            ConsumerSpec::auto(queue).with_reconnect(ReconnectSpec {
                after_messages: 5,
                pause: Duration::from_millis(10),
                max_cycles: 1,
            }),
        ));
    assert!(reconnect_spec
        .validate()
        .unwrap_err()
        .contains("reconnect cycling"));
}

/// Two selective consumers split one queue by a property. A receive that
/// skips the other region's messages must leave them in place: moving a
/// skipped message behind later ones reorders that producer's stream,
/// which the analysis reports as a Property 3 violation of a correct
/// broker.
#[test]
fn disjoint_queue_selectors_keep_per_producer_order() {
    for seed in 1..=3 {
        let spec = parse_spec(&format!(
            "
[test]
name = disjoint-selectors-{seed}
seed = {seed}
warm_up = 30ms
run = 300ms
warm_down = 3s

[node n0]

[producer]
destination = queue:work
rate = poisson 2000
body = text 64
prop = region 'emea'

[producer]
destination = queue:work
rate = poisson 2000
body = text 64
prop = region 'apac'

[consumer]
destination = queue:work
selector = region = 'emea'

[consumer]
destination = queue:work
selector = region = 'apac'
"
        ))
        .expect("spec parses");
        let report = run_clean(&spec);
        assert_eq!(
            report.count_of(PropertyKind::MessageOrdering),
            0,
            "seed {seed}: {report}"
        );
        assert!(report.passed(), "seed {seed}: {report}");
        assert!(report.sends > 100, "seed {seed}: {report}");
        assert_eq!(report.sends, report.receives, "seed {seed}: {report}");
    }
}
