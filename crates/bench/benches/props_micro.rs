//! Criterion micro-benchmarks of the property DSL's compiled checkers:
//! the full built-in property pass against its DSL-compiled twin (the
//! built-in names compile to the same checker structs, so the twin must
//! stay within ~10% of the default table), and the marginal cost of the
//! new QoS checkers on top.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use jmst_core::{AnalysisConfig, Analyzer, CheckerRegistry};
use jmst_harness::model::{PubSubScenario, PublisherSpec};
use jmst_props::{compile_registry, parse_properties};
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

fn registry_of(text: &str) -> CheckerRegistry {
    compile_registry(&parse_properties(text).expect("benchmark declarations parse"))
}

/// Built-in checks off: only the attached registry runs.
fn checks_off() -> AnalysisConfig {
    AnalysisConfig {
        check_integrity: false,
        check_required: false,
        check_ordering: false,
        check_priority: false,
        check_expiry: false,
        check_duplicates: false,
        redelivery_bound: None,
        ..AnalysisConfig::default()
    }
}

fn compiled_vs_builtin(c: &mut Criterion) {
    let trace = trace_of(500.0, 20);
    let events = trace.len() as u64;
    let mut group = c.benchmark_group(format!("props/{events}_events"));
    group.throughput(Throughput::Elements(events));
    group.sample_size(10);
    group.bench_function("builtin_checkers", |b| {
        let analyzer = Analyzer::new();
        b.iter(|| {
            let report = analyzer.analyze(&trace);
            assert!(report.passed());
            report.receives
        });
    });
    group.bench_function("dsl_compiled_twin", |b| {
        let analyzer = Analyzer::with_config(checks_off()).with_registry(registry_of(
            "in_order = ordered\n\
             no_dupes = no_duplicates\n\
             everything = required\n\
             untampered = integrity\n\
             by_priority = priority\n\
             not_expired = expiry\n",
        ));
        b.iter(|| {
            let report = analyzer.analyze(&trace);
            assert!(report.passed());
            report.receives
        });
    });
    group.bench_function("dsl_qos_suite", |b| {
        // The new QoS checkers alone: deadlines (guarded and not), tail
        // latency, throughput floor, fairness, and a count window.
        let analyzer = Analyzer::with_config(checks_off()).with_registry(registry_of(
            "any_late = deadline 60s\n\
             urgent = deadline 60s where JMSPriority >= 5\n\
             tail = latency p99 <= 60s\n\
             floor = throughput >= 0.001\n\
             fair = fairness <= 1000.0\n\
             cap = receives <= 100000000\n",
        ));
        b.iter(|| {
            let report = analyzer.analyze(&trace);
            assert!(report.passed());
            report.receives
        });
    });
    group.finish();
}

criterion_group!(benches, compiled_vs_builtin);
criterion_main!(benches);
