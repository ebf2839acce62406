//! # jmst-bench — experiment harness shared by the benchmark targets
//!
//! Helpers used by the `figures` benchmark (which regenerates every
//! figure and table of the paper's evaluation; see EXPERIMENTS.md) and by
//! the Criterion micro-benchmarks.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use jmst_core::{Analyzer, PerformanceReport};
use jmst_harness::model::{PubSubScenario, PublisherSpec};
use jmst_sim::ServiceModel;
use std::time::Duration;

/// One row of a throughput-vs-demand sweep (the series of Figures 2/3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepRow {
    /// Offered demand in body bytes per second.
    pub demand_bytes_per_sec: f64,
    /// Publisher throughput in messages per second.
    pub publisher_msgs_per_sec: f64,
    /// Per-subscriber delivery throughput in messages per second.
    pub subscriber_msgs_per_sec: f64,
    /// Mean send→delivery delay in milliseconds of the messages sent in
    /// the run window (NaN if none was delivered).
    pub mean_delay_ms: f64,
}

/// Runs `scenario` on the service model in virtual time and analyses
/// its trace as any live run's, over the run window after `warm_up`.
pub fn model_performance(scenario: &PubSubScenario, warm_up: Duration) -> PerformanceReport {
    Analyzer::new().analyze(&scenario.run(warm_up)).performance
}

/// The standard demand grid of the figures: a fine ramp through the
/// rising region, then 50 kB/s steps to the paper's 500,000 B/s.
pub fn standard_demand_grid() -> Vec<f64> {
    let mut demands: Vec<f64> = vec![10_000.0, 20_000.0, 30_000.0, 40_000.0];
    demands.extend((1..=10).map(|i| i as f64 * 50_000.0));
    demands
}

/// Runs the Figure-2/3 sweep for one service model.
pub fn throughput_sweep(
    model: &ServiceModel,
    body_bytes: usize,
    demands: &[f64],
    seed: u64,
) -> Vec<SweepRow> {
    let production = Duration::from_secs(60);
    let warm_up = Duration::from_secs(10);
    demands
        .iter()
        .map(|&demand| {
            let scenario = PubSubScenario {
                publishers: vec![PublisherSpec::steady(
                    demand / body_bytes as f64,
                    body_bytes,
                )],
                subscribers: 1,
                model: model.clone(),
                production_period: production,
                drain_limit: Duration::from_secs(600),
                seed,
            };
            let performance = model_performance(&scenario, warm_up);
            let delay = &performance.delay.stats;
            SweepRow {
                demand_bytes_per_sec: demand,
                publisher_msgs_per_sec: performance.producer_throughput.messages_per_sec,
                subscriber_msgs_per_sec: performance.consumer_throughput.messages_per_sec,
                mean_delay_ms: if delay.count() > 0 {
                    delay.mean()
                } else {
                    f64::NAN
                },
            }
        })
        .collect()
}

/// Renders sweep rows as an aligned text table.
pub fn render_sweep(title: &str, rows: &[SweepRow]) -> String {
    let mut out = format!(
        "{title}\n{:>14} {:>14} {:>16} {:>12}\n",
        "demand B/s", "pub msg/s", "sub msg/s", "delay ms"
    );
    for row in rows {
        out.push_str(&format!(
            "{:>14.0} {:>14.1} {:>16.1} {:>12.2}\n",
            row.demand_bytes_per_sec,
            row.publisher_msgs_per_sec,
            row.subscriber_msgs_per_sec,
            row.mean_delay_ms
        ));
    }
    out
}

/// Renders sweep rows as CSV.
pub fn sweep_to_csv(rows: &[SweepRow]) -> String {
    jmst_store::csv::render(
        &[
            "demand_bytes_per_sec",
            "pub_msgs_per_sec",
            "sub_msgs_per_sec",
            "mean_delay_ms",
        ],
        rows.iter().map(|row| {
            vec![
                format!("{:.0}", row.demand_bytes_per_sec),
                format!("{:.3}", row.publisher_msgs_per_sec),
                format!("{:.3}", row.subscriber_msgs_per_sec),
                format!("{:.3}", row.mean_delay_ms),
            ]
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provider_one_sweep_plateaus() {
        let rows = throughput_sweep(
            &ServiceModel::provider_one(),
            1024,
            &[10_000.0, 200_000.0, 500_000.0],
            1,
        );
        assert!((rows[0].subscriber_msgs_per_sec - 9.8).abs() < 1.0);
        assert!((rows[1].subscriber_msgs_per_sec - 45.0).abs() < 2.0);
        assert!((rows[2].subscriber_msgs_per_sec - 45.0).abs() < 2.0);
        // Flow control: publishers are throttled too.
        assert!((rows[2].publisher_msgs_per_sec - 45.0).abs() < 2.0);
    }

    #[test]
    fn provider_two_sweep_peaks_then_falls() {
        let rows = throughput_sweep(
            &ServiceModel::provider_two(),
            1024,
            &[150_000.0, 200_000.0, 500_000.0],
            1,
        );
        let peak = rows
            .iter()
            .map(|r| r.subscriber_msgs_per_sec)
            .fold(f64::MIN, f64::max);
        assert!(peak > 140.0, "peak {peak}");
        assert!(
            rows[2].subscriber_msgs_per_sec < peak / 2.0,
            "overload must halve throughput: {rows:?}"
        );
        // No flow control: publishers track demand.
        assert!(rows[2].publisher_msgs_per_sec > 400.0);
    }

    #[test]
    fn renders_are_nonempty_and_csv_has_header() {
        let rows = throughput_sweep(&ServiceModel::provider_one(), 1024, &[50_000.0], 1);
        assert!(render_sweep("t", &rows).contains("demand"));
        let csv = sweep_to_csv(&rows);
        assert!(csv.starts_with("demand_bytes_per_sec"));
        assert_eq!(csv.lines().count(), 2);
    }

    #[test]
    fn standard_grid_spans_the_paper_axis() {
        let grid = standard_demand_grid();
        assert_eq!(grid.first().copied(), Some(10_000.0));
        assert_eq!(grid.last().copied(), Some(500_000.0));
        assert!(grid.windows(2).all(|w| w[0] < w[1]));
    }
}
