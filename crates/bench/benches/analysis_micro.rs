//! Criterion micro-benchmarks of the analysis pipeline: full property
//! checking over traces of increasing size, and the selector engine in
//! isolation.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use jmst_api::selector::Selector;
use jmst_core::Analyzer;
use jmst_harness::model::{PubSubScenario, PublisherSpec};
use jmst_sim::ServiceModel;
use std::time::Duration;

fn trace_of(messages_per_sec: f64, seconds: u64) -> jmst_store::Trace {
    let scenario = PubSubScenario {
        publishers: vec![PublisherSpec::steady(messages_per_sec, 512)],
        subscribers: 2,
        model: ServiceModel::plateau(messages_per_sec * 4.0, 1_000),
        production_period: Duration::from_secs(seconds),
        drain_limit: Duration::from_secs(seconds * 10),
        seed: 5,
    };
    scenario.run(Duration::from_secs(1))
}

fn full_analysis(c: &mut Criterion) {
    for (label, rate, secs) in [
        ("small", 100.0, 10u64),
        ("medium", 500.0, 20),
        ("large", 1000.0, 60),
    ] {
        let trace = trace_of(rate, secs);
        let events = trace.len() as u64;
        let mut group = c.benchmark_group(format!("analysis/{label}_{events}_events"));
        group.throughput(Throughput::Elements(events));
        group.sample_size(10);
        group.bench_function("all_properties_plus_perf", |b| {
            let analyzer = Analyzer::new();
            b.iter(|| {
                let report = analyzer.analyze(&trace);
                assert!(report.passed());
                report.receives
            });
        });
        group.finish();
    }
}

fn selector_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("selector");
    group.throughput(Throughput::Elements(1));
    group.bench_function("parse_complex", |b| {
        let text = "price * quantity > 10000 AND region IN ('emea','apac') \
                    AND name LIKE 'ACME-%' AND note IS NOT NULL \
                    AND JMSPriority BETWEEN 3 AND 8";
        b.iter(|| Selector::parse(text).expect("parses"));
    });
    group.bench_function("evaluate_complex", |b| {
        let selector = Selector::parse(
            "price * quantity > 10000 AND region IN ('emea','apac') \
             AND name LIKE 'ACME-%' AND JMSPriority BETWEEN 3 AND 8",
        )
        .expect("parses");
        use jmst_api::selector::EvalValue;
        b.iter(|| {
            selector.matches_with(|name| match name {
                "price" => Some(EvalValue::Double(150.0)),
                "quantity" => Some(EvalValue::Long(100)),
                "region" => Some(EvalValue::Str("emea".into())),
                "name" => Some(EvalValue::Str("ACME-1234".into())),
                "JMSPriority" => Some(EvalValue::Long(5)),
                _ => None,
            })
        });
    });
    group.finish();
}

fn simulation_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation");
    group.sample_size(10);
    group.bench_function("figure2_single_demand_point", |b| {
        let scenario = PubSubScenario {
            publishers: vec![PublisherSpec::steady(300.0, 1024)],
            subscribers: 1,
            model: ServiceModel::provider_one(),
            production_period: Duration::from_secs(60),
            drain_limit: Duration::from_secs(600),
            seed: 3,
        };
        b.iter(|| scenario.run(Duration::ZERO).len());
    });
    group.finish();
}

criterion_group!(benches, full_analysis, selector_engine, simulation_engine);
criterion_main!(benches);
