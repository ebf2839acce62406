//! Regenerates every figure and table of the paper's evaluation
//! (experiment index E1–E10 in DESIGN.md). Runs under `cargo bench`
//! (`harness = false`), prints each artifact, and writes CSV series to
//! `target/figures/`.

use jmst_api::destination::Destination;
use jmst_api::error::Error;
use jmst_api::id::ClientId;
use jmst_api::modes::{Priority, TimeToLive};
use jmst_api::provider::{Connection, Provider};
use jmst_api::time::Timestamp;
use jmst_bench::{render_sweep, standard_demand_grid, sweep_to_csv, throughput_sweep};
use jmst_broker::{BrokerConfig, FaultSpec, ReferenceBroker};
use jmst_core::{AnalysisConfig, Analyzer, PropertyKind};
use jmst_harness::prelude::*;
use jmst_sim::{PubSubScenario, PublisherSpec, ServiceModel};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn out_dir() -> PathBuf {
    // Anchor at the workspace root regardless of the bench's working
    // directory (cargo runs benches from the package directory).
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("target")
        .join("figures");
    std::fs::create_dir_all(&dir).expect("create output dir");
    dir
}

fn save(name: &str, contents: &str) {
    let path = out_dir().join(name);
    std::fs::write(&path, contents).expect("write figure output");
    println!("  [written to {}]", path.display());
}

fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// E1 / E2 — Figures 2 and 3: throughput vs demand for the two modelled
/// providers.
fn figures_2_and_3() {
    let demands = standard_demand_grid();
    section("E1  Figure 2 — Provider I: throughput vs demand (plateau)");
    let rows = throughput_sweep(&ServiceModel::provider_one(), 1024, &demands, 11);
    print!("{}", render_sweep("", &rows));
    save("figure2_provider1.csv", &sweep_to_csv(&rows));

    section("E2  Figure 3 — Provider II: throughput vs demand (collapse)");
    let rows = throughput_sweep(&ServiceModel::provider_two(), 1024, &demands, 11);
    print!("{}", render_sweep("", &rows));
    save("figure3_provider2.csv", &sweep_to_csv(&rows));
}

/// E3 — Figure 1: the ordering-violation scenario. A reordering provider
/// must be caught by Property 3 with the exact inverted pair.
fn figure_1_ordering() {
    section("E3  Figure 1 — message-ordering violation detection");
    let spec = TestSpec::new("figure1")
        .with_periods(
            Duration::from_millis(30),
            Duration::from_millis(300),
            Duration::from_secs(3),
        )
        .node(
            NodeSpec::new("n0")
                .producer(ProducerSpec::steady(Destination::topic("t"), 300.0, 128))
                .consumer(ConsumerSpec::auto(Destination::topic("t"))),
        );
    let broker = ReferenceBroker::with_config(
        BrokerConfig::correct().with_faults(
            FaultSpec::none()
                .reordering(0.1, Duration::from_millis(50))
                .seeded(3),
        ),
    );
    let trace = ThreadedRunner::new()
        .run(Arc::new(broker), None, &spec)
        .expect("figure1 run");
    let report = Analyzer::with_config(AnalysisConfig::strict_safety_only()).analyze(&trace);
    let ordering = report.count_of(PropertyKind::MessageOrdering);
    println!("sends {}  receives {}", report.sends, report.receives);
    println!("ordering violations detected: {ordering}");
    for violation in report
        .violations
        .iter()
        .filter(|v| v.property() == PropertyKind::MessageOrdering)
        .take(3)
    {
        println!("  e.g. {violation}");
    }
    assert!(ordering > 0, "the reordering provider must be caught");
}

/// E4 — the §3.2 performance-measure table over a real (non-simulated)
/// run on the reactor-hosted drivers.
fn perf_table() {
    section("E4  §3.2 performance measures (live run, reference broker)");
    let spec = TestSpec::new("perf-table")
        .with_periods(
            Duration::from_millis(100),
            Duration::from_secs(1),
            Duration::from_secs(3),
        )
        .node(
            NodeSpec::new("n0")
                .producer(ProducerSpec::steady(Destination::queue("q"), 400.0, 512))
                .producer(ProducerSpec::steady(Destination::queue("q"), 400.0, 512))
                .consumer(ConsumerSpec::auto(Destination::queue("q")))
                .consumer(ConsumerSpec::auto(Destination::queue("q"))),
        );
    let trace = ThreadedRunner::new()
        .run(Arc::new(ReferenceBroker::new()), None, &spec)
        .expect("perf run");
    let report = Analyzer::new().analyze(&trace);
    print!("{}", report.performance.to_table());
    save("perf_table.txt", &report.performance.to_table());
}

/// E5 — footnote 9: the factor-of-10 spread between providers.
fn provider_comparison() {
    section("E5  Provider comparison at saturation (footnote 9)");
    let providers = [
        ("fastmq", ServiceModel::plateau(400.0, 64)),
        ("middlemq", ServiceModel::provider_two()),
        ("slowmq", ServiceModel::plateau(40.0, 64)),
    ];
    let mut rates = Vec::new();
    let mut csv_rows = Vec::new();
    for (name, model) in &providers {
        let scenario = PubSubScenario {
            publishers: vec![PublisherSpec::steady(400.0, 1024)],
            subscribers: 1,
            model: model.clone(),
            production_period: Duration::from_secs(60),
            drain_limit: Duration::from_secs(600),
            seed: 5,
        };
        let outcome = scenario.run();
        let rate = outcome.subscriber_rate(
            Timestamp::ZERO + Duration::from_secs(10),
            Timestamp::ZERO + Duration::from_secs(60),
            1,
        );
        println!("  {name:<10} {rate:>8.1} msg/s sustained");
        rates.push(rate);
        csv_rows.push(vec![(*name).to_owned(), format!("{rate:.3}")]);
    }
    let spread = rates.iter().fold(f64::MIN, |a, &b| a.max(b))
        / rates.iter().fold(f64::MAX, |a, &b| a.min(b));
    println!("  spread fastest/slowest = {spread:.1}x (paper reports ~10x)");
    save(
        "provider_comparison.csv",
        &jmst_store::csv::render(&["provider", "sustained_msgs_per_sec"], csv_rows),
    );
}

/// E6 — the expiry experiment: TTL 1 ms vs TTL 0 under a 10 ms delivery
/// delay; report both Property-5 percentages.
fn expiry_experiment() {
    section("E6  Expiry accuracy (TTL 1 ms vs 0, Property 5)");
    let spec = TestSpec::new("expiry")
        .with_periods(
            Duration::from_millis(50),
            Duration::from_millis(600),
            Duration::from_secs(3),
        )
        .node(
            NodeSpec::new("n0")
                .producer(
                    ProducerSpec::steady(Destination::queue("q"), 200.0, 128)
                        .with_ttl(TimeToLive::from_millis(1)),
                )
                .producer(ProducerSpec::steady(Destination::queue("q"), 200.0, 128))
                .consumer(ConsumerSpec::auto(Destination::queue("q"))),
        );
    for (label, config) in [
        (
            "correct broker",
            BrokerConfig::correct().with_delivery_delay(Duration::from_millis(10)),
        ),
        (
            "expiry-ignoring broker",
            BrokerConfig::correct()
                .with_delivery_delay(Duration::from_millis(10))
                .ignoring_expiry(),
        ),
    ] {
        let trace = ThreadedRunner::new()
            .run(Arc::new(ReferenceBroker::with_config(config)), None, &spec)
            .expect("expiry run");
        let report = Analyzer::new().analyze(&trace);
        println!("  {label}:");
        for breakdown in &report.expiry {
            println!(
                "    {}: expired delivered {}/{} ({:.1}%), live delivered {}/{} ({:.1}%)",
                breakdown.endpoint,
                breakdown.expired_delivered,
                breakdown.expected_expired,
                breakdown.expired_delivered_percent(),
                breakdown.live_delivered,
                breakdown.expected_live,
                breakdown.live_delivered_percent()
            );
        }
        println!(
            "    Property 5 violations: {}",
            report.count_of(PropertyKind::ExpiredMessages)
        );
    }
}

/// E7 — the priority experiment: producers at priorities 0..9, backlog,
/// mean delay per priority must not increase with priority.
fn priority_experiment() {
    section("E7  Priority best-effort (Property 4): mean delay by priority");
    let mut node = NodeSpec::new("n0");
    for level in 0..10u8 {
        node = node.producer(
            ProducerSpec::steady(Destination::queue("q"), 60.0, 64)
                .with_priority(Priority::new(level).expect("valid")),
        );
    }
    // 600 msg/s offered against a consumer that can take ~500/s: a
    // backlog forms and priority scheduling becomes visible.
    node = node.consumer(
        ConsumerSpec::auto(Destination::queue("q")).with_think_time(Duration::from_millis(2)),
    );
    let spec = TestSpec::new("priority")
        .with_periods(
            Duration::from_millis(50),
            Duration::from_millis(700),
            Duration::from_secs(5),
        )
        .node(node);
    let strict_config = AnalysisConfig {
        priority: jmst_core::PriorityConfig {
            strict: true,
            strict_slack: Duration::from_millis(20),
            ..Default::default()
        },
        ..AnalysisConfig::all_checks()
    };
    for (label, config) in [
        ("priority-respecting broker", BrokerConfig::correct()),
        ("FIFO broker", BrokerConfig::correct().ignoring_priority()),
    ] {
        let trace = ThreadedRunner::new()
            .run(Arc::new(ReferenceBroker::with_config(config)), None, &spec)
            .expect("priority run");
        let table = jmst_core::properties::priority::mean_delay_by_priority(&trace);
        let report = Analyzer::new().analyze(&trace);
        let strict_report = Analyzer::with_config(strict_config).analyze(&trace);
        println!("  {label}:");
        let mut csv_rows = Vec::new();
        for (priority, stats) in &table {
            println!(
                "    priority {priority}: mean {:>8.3} ms (n={})",
                stats.mean(),
                stats.count()
            );
            csv_rows.push(vec![
                priority.to_string(),
                format!("{:.4}", stats.mean()),
                stats.count().to_string(),
            ]);
        }
        println!(
            "    Property 4 violations: {} (best-effort mean model); {} (strict §5 pairwise model)",
            report.count_of(PropertyKind::MessagePriority),
            strict_report.count_of(PropertyKind::MessagePriority)
        );
        if label.starts_with("priority") {
            save(
                "priority_mean_delay.csv",
                &jmst_store::csv::render(&["priority", "mean_delay_ms", "samples"], csv_rows),
            );
        }
    }
}

/// E12 — extension: the §3.2 fairness measure. Two consumers compete on
/// one queue, one four times slower; per-consumer throughput diverges and
/// the unfairness measures become non-zero.
fn fairness_experiment() {
    section("E12 Fairness (§3.2): slow consumer vs fast consumer");
    let spec = TestSpec::new("fairness")
        .with_periods(
            Duration::from_millis(50),
            Duration::from_millis(600),
            Duration::from_secs(4),
        )
        .node(
            NodeSpec::new("n0")
                .producer(ProducerSpec::steady(Destination::queue("q"), 400.0, 64))
                .consumer(
                    ConsumerSpec::auto(Destination::queue("q"))
                        .with_think_time(Duration::from_millis(1)),
                )
                .consumer(
                    ConsumerSpec::auto(Destination::queue("q"))
                        .with_think_time(Duration::from_millis(4)),
                ),
        );
    let trace = ThreadedRunner::new()
        .run(Arc::new(ReferenceBroker::new()), None, &spec)
        .expect("fairness run");
    let report = Analyzer::new().analyze(&trace);
    for (consumer, throughput) in &report.performance.per_consumer {
        println!("  {consumer}: {throughput}");
    }
    println!(
        "  unfairness: consumers {:.3} ms (σ of per-consumer mean delay)",
        report.performance.consumer_unfairness_ms
    );
    assert!(report.passed(), "competition is not a correctness fault");
}

/// A provider whose connections hang forever — used to demonstrate the
/// daemon prince surviving a hung test (§4.1 robustness).
#[derive(Debug)]
struct HangingProvider;

impl Provider for HangingProvider {
    fn name(&self) -> &str {
        "hanging"
    }

    fn create_connection(&self, _: Option<ClientId>) -> Result<Box<dyn Connection>, Error> {
        // Simulates a provider that accepts the TCP connection and then
        // never responds.
        std::thread::sleep(Duration::from_secs(3_600));
        Err(Error::provider_failure("unreachable"))
    }
}

/// E9 — §4.1 robustness: a campaign with a hung test in the middle must
/// catch it, clean up, and run the remaining tests.
fn robustness_experiment() {
    section("E9  Robustness: the prince survives a hung test (§4.1)");
    let quick = |name: &str| {
        TestSpec::new(name)
            .with_periods(
                Duration::from_millis(20),
                Duration::from_millis(150),
                Duration::from_millis(600),
            )
            .node(
                NodeSpec::new("n0")
                    .producer(ProducerSpec::steady(Destination::queue("q"), 200.0, 64))
                    .consumer(ConsumerSpec::auto(Destination::queue("q"))),
            )
    };
    let factory = |spec: &TestSpec| -> (Arc<dyn Provider>, Option<Arc<dyn BrokerAdmin>>) {
        if spec.name == "hangs" {
            (Arc::new(HangingProvider), None)
        } else {
            (Arc::new(ReferenceBroker::new()), None)
        }
    };
    let prince = DaemonPrince::new();
    let campaign =
        prince.run_campaign(&factory, &[quick("before"), quick("hangs"), quick("after")]);
    print!("{campaign}");
    assert_eq!(campaign.passed(), 2, "tests around the hang must pass");
    assert_eq!(campaign.failed(), 1, "the hang must be caught");
}

/// E10 — crash/recovery of persistent delivery (the paper's future work).
fn crash_recovery_experiment() {
    section("E10 Crash/recovery of persistent delivery");
    let spec = TestSpec::new("crash")
        .with_periods(
            Duration::from_millis(30),
            Duration::from_millis(600),
            Duration::from_secs(4),
        )
        .node(
            NodeSpec::new("n0")
                .producer(ProducerSpec::steady(Destination::queue("q"), 200.0, 128))
                .consumer(ConsumerSpec::auto(Destination::queue("q"))),
        )
        .with_crash(CrashPlan {
            crash_after: Duration::from_millis(300),
            down_for: Duration::from_millis(80),
        });
    for (label, config) in [
        (
            "durable broker",
            BrokerConfig::correct().with_delivery_delay(Duration::from_millis(50)),
        ),
        (
            "broker that loses persistent messages",
            BrokerConfig::correct()
                .with_delivery_delay(Duration::from_millis(50))
                .losing_persistent_on_crash(),
        ),
    ] {
        let broker = ReferenceBroker::with_config(config);
        let admin: Arc<dyn BrokerAdmin> = Arc::new(broker.clone());
        let trace = ThreadedRunner::new()
            .run(Arc::new(broker), Some(admin), &spec)
            .expect("crash run");
        let report = Analyzer::with_config(AnalysisConfig::strict_safety_only()).analyze(&trace);
        println!(
            "  {label}: sends {}, receives {}, P2 violations {}",
            report.sends,
            report.receives,
            report.count_of(PropertyKind::RequiredMessages)
        );
    }
}

/// E11 — extension: clock-skew sensitivity. The paper's footnotes 6–7
/// warn that analysis quality depends on NTP-grade synchronisation and
/// that skew surfaces as apparently negative delays; this experiment
/// quantifies that by sweeping the consumer node's skew.
fn skew_sensitivity() {
    section("E11 Clock-skew sensitivity (footnotes 6–7)");
    println!(
        "  {:>10} {:>18} {:>14}",
        "skew", "negative delays", "mean delay ms"
    );
    let mut csv_rows = Vec::new();
    for skew_ms in [-5i64, -1, 0, 1, 5] {
        let spec = TestSpec::new("skew")
            .with_periods(
                Duration::from_millis(30),
                Duration::from_millis(400),
                Duration::from_secs(2),
            )
            .node(NodeSpec::new("producers").producer(ProducerSpec::steady(
                Destination::queue("q"),
                300.0,
                64,
            )))
            .node(
                NodeSpec::new("consumers")
                    .with_clock_skew(skew_ms * 1_000_000)
                    .consumer(ConsumerSpec::auto(Destination::queue("q"))),
            );
        let trace = ThreadedRunner::new()
            .run(Arc::new(ReferenceBroker::new()), None, &spec)
            .expect("skew run");
        let report = Analyzer::new().analyze(&trace);
        let delay = &report.performance.delay;
        let fraction = if delay.stats.count() == 0 {
            0.0
        } else {
            100.0 * delay.negative_samples as f64 / delay.stats.count() as f64
        };
        println!(
            "  {:>8}ms {:>16.1}% {:>14.3}",
            skew_ms,
            fraction,
            delay.stats.mean()
        );
        csv_rows.push(vec![
            skew_ms.to_string(),
            format!("{fraction:.2}"),
            format!("{:.4}", delay.stats.mean()),
        ]);
    }
    save(
        "skew_sensitivity.csv",
        &jmst_store::csv::render(
            &["skew_ms", "negative_delay_percent", "mean_delay_ms"],
            csv_rows,
        ),
    );
}

/// The paper's §3.2 remark: a trivial provider (never delivers) passes
/// the safety properties on pub/sub; only the throughput measures expose
/// it.
fn trivial_provider_note() {
    section("T   Trivial-provider detection (§3.2): safety passes, throughput exposes");
    let spec = TestSpec::new("trivial")
        .with_periods(
            Duration::from_millis(30),
            Duration::from_millis(300),
            Duration::from_millis(800),
        )
        .node(
            NodeSpec::new("n0")
                .producer(ProducerSpec::steady(Destination::topic("t"), 200.0, 64))
                .consumer(ConsumerSpec::auto(Destination::topic("t"))),
        );
    // Dropping every message on a topic: subscription first-messages are
    // undefined, so Property 2 imposes nothing.
    let broker = ReferenceBroker::with_config(
        BrokerConfig::correct().with_faults(FaultSpec::none().dropping(1.0).seeded(1)),
    );
    let trace = ThreadedRunner::new()
        .run(Arc::new(broker), None, &spec)
        .expect("trivial run");
    let report = Analyzer::new().analyze(&trace);
    println!(
        "  safety verdict: {}; consumer throughput: {:.1} msg/s",
        if report.passed() { "PASS" } else { "FAIL" },
        report.performance.consumer_throughput.messages_per_sec
    );
    assert!(report.passed());
    assert_eq!(report.performance.consumer_throughput.count, 0);
}

fn main() {
    println!("jmst — regenerating the paper's evaluation artifacts");
    figures_2_and_3();
    figure_1_ordering();
    perf_table();
    provider_comparison();
    expiry_experiment();
    priority_experiment();
    fairness_experiment();
    robustness_experiment();
    crash_recovery_experiment();
    skew_sensitivity();
    trivial_provider_note();
    println!("\nall experiment artifacts regenerated; CSVs in target/figures/");
}
