//! Provider performance comparison — the paper's second use case: "the
//! harness automates independent performance evaluation of a number of
//! JMS implementations", letting users pick the provider that meets their
//! requirements. The paper's footnote 9 reports factor-of-10 differences
//! between commercial providers on some workloads.
//!
//! Three modelled providers (stand-ins for the paper's anonymous
//! commercial systems) run the same pub/sub workload sweep in virtual
//! time, and each run's trace goes through the same `Analyzer` as a live
//! run's; the table shows delivered throughput and mean delay per demand
//! level.
//!
//! ```sh
//! cargo run --example compare_providers
//! ```

use jmst::prelude::*;
use jmst_core::PerformanceReport;
use std::time::Duration;

struct ModelledProvider {
    name: &'static str,
    model: ServiceModel,
}

fn providers() -> Vec<ModelledProvider> {
    vec![
        // A fast, flow-controlled provider.
        ModelledProvider {
            name: "fastmq",
            model: ServiceModel::plateau(400.0, 64),
        },
        // A mid-range provider that degrades under pressure.
        ModelledProvider {
            name: "middlemq",
            model: ServiceModel::thrashing(150.0, 200),
        },
        // A slow provider — the other end of the paper's factor-of-10
        // spread.
        ModelledProvider {
            name: "slowmq",
            model: ServiceModel::plateau(40.0, 64),
        },
    ]
}

const BODY_BYTES: usize = 1024;

/// One publisher at `rate` msg/s against `model` for 60 s, measured
/// after a 10 s warm-up.
fn measure(model: &ServiceModel, rate: f64) -> PerformanceReport {
    let scenario = PubSubScenario {
        publishers: vec![PublisherSpec::steady(rate, BODY_BYTES)],
        subscribers: 1,
        model: model.clone(),
        production_period: Duration::from_secs(60),
        drain_limit: Duration::from_secs(600),
        seed: 7,
    };
    let trace = scenario.run(Duration::from_secs(10));
    Analyzer::new().analyze(&trace).performance
}

fn main() {
    let demands_msgs_per_sec = [10.0, 25.0, 50.0, 100.0, 200.0, 400.0];

    println!("workload: 1 publisher, 1 subscriber, {BODY_BYTES} B bodies, 60 s run\n");
    println!(
        "{:<22} {:>12} {:>14} {:>14} {:>12}",
        "provider", "demand msg/s", "pub msg/s", "sub msg/s", "delay ms"
    );
    for provider in providers() {
        for &rate in &demands_msgs_per_sec {
            let performance = measure(&provider.model, rate);
            println!(
                "{:<22} {:>12.1} {:>14.1} {:>14.1} {:>12.2}",
                provider.name,
                rate,
                performance.producer_throughput.messages_per_sec,
                performance.consumer_throughput.messages_per_sec,
                performance.delay.stats.mean()
            );
        }
        println!();
    }

    // The headline comparison: sustained throughput at saturation.
    println!("sustained throughput at the highest demand:");
    let mut sustained = Vec::new();
    for provider in providers() {
        let rate = measure(&provider.model, 400.0)
            .consumer_throughput
            .messages_per_sec;
        sustained.push((provider.name, rate));
        println!("  {:<10} {:>8.1} msg/s", provider.name, rate);
    }
    let best = sustained.iter().map(|(_, r)| *r).fold(f64::MIN, f64::max);
    let worst = sustained.iter().map(|(_, r)| *r).fold(f64::MAX, f64::min);
    println!(
        "\nspread: fastest / slowest = {:.1}x (the paper's footnote 9 reports ~10x)",
        best / worst
    );
}
