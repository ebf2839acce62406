//! Metric values, the human-readable table and the result line.

use jmst_store::LogHistogram;
use std::time::Duration;

/// End-to-end metrics every workload reports with tracing off, with
/// their units, in the order `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("delivery_p50_us", "us"),
    ("delivered_msgs_per_s", "1/s"),
    ("cpu_us_per_msg", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics a traced run reports, with their units, in the
/// order `BENCHMARK.json` lists them. The first five are end-to-end
/// figures that exist on only some workloads or do not repeat closely
/// enough to gate on. A metric whose layer the workload does not
/// exercise reads 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("delivery_p99_us", "us"),
    ("send_lag_p99_us", "us"),
    ("verdict_wait_s", "s"),
    ("analysis_events_per_s", "1/s"),
    ("failed_ops_ratio", "ratio"),
    ("load.first_send_ms", "ms"),
    ("load.send_lag_p50_us", "us"),
    ("load.send_lag_p99_us", "us"),
    ("load.null_lag_p99_us", "us"),
    ("load.lag_p99_after_1s_us", "us"),
    ("load.gap_ns_per_send", "ns"),
    ("load.retry_ratio", "ratio"),
    ("broker.send_ns_p50", "ns"),
    ("broker.send_ns_p99", "ns"),
    ("broker.send_errors", "count"),
    ("broker.receive_ns_p50", "ns"),
    ("broker.msgs_per_receive", "ratio"),
    ("broker.empty_receive_ratio", "ratio"),
    ("broker.wakes_per_msg", "ratio"),
    ("reactor.wake_to_receive_us_p50", "us"),
    ("reactor.wake_to_receive_us_p99", "us"),
    ("harness.lint_ms", "ms"),
    ("harness.compile_registry_ms", "ms"),
    ("harness.frame_encode_ns_per_event", "ns"),
    ("harness.frame_decode_ns_per_event", "ns"),
    ("store.journal_append_ns_per_event", "ns"),
    ("store.journal_bytes_per_event", "B"),
    ("store.salvage_ns_per_event", "ns"),
    ("store.trace_sort_ns_per_event", "ns"),
    ("core.partition_ns_per_event", "ns"),
    ("core.observe_ns_per_event", "ns"),
    ("core.finish_ms", "ms"),
    ("props.observe_ns_per_event", "ns"),
    ("reconcile.unattributed_share", "ratio"),
    ("reconcile.delivery_p50_shortfall_us", "us"),
    ("traced.delivery_p50_us", "us"),
    ("traced.cpu_us_per_msg", "us"),
    ("traced.delivered_msgs_per_s", "1/s"),
    ("tracing_overhead_share", "ratio"),
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value, as measured.
    pub value: f64,
    /// How many samples the value summarises.
    pub samples: u64,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: u64) -> Self {
        Self {
            name,
            unit,
            value,
            samples,
        }
    }
}

/// Everything one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Measured metrics (end-to-end, workload-scoped and per-layer).
    pub metrics: Vec<Metric>,
    /// Operations attempted (sends, events, verdicts).
    pub attempted: u64,
    /// Operations that failed: refused or aborted sends, sent-not-received
    /// messages, verdict/oracle mismatches.
    pub failed: u64,
    /// Output checks, as (description, passed).
    pub checks: Vec<(String, bool)>,
}

impl Outcome {
    /// Adds a metric.
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64, samples: u64) {
        self.metrics.push(Metric::new(name, unit, value, samples));
    }

    /// Records an output check.
    pub fn check(&mut self, what: impl Into<String>, passed: bool) {
        self.checks.push((what.into(), passed));
    }

    /// `true` when every check passed and nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, passed)| *passed)
    }

    /// The metric named `name`, if measured.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|metric| metric.name == name)
    }

    /// Prints every metric and check as a table on standard output.
    pub fn print_table(&self, workload: &str, seed: u64) {
        println!("workload {workload} (seed {seed})");
        for metric in &self.metrics {
            println!(
                "  {:<38} {:>16.4} {:<6} (n={})",
                metric.name, metric.value, metric.unit, metric.samples
            );
        }
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  {:<38} {:>16.6} {:<6} (n={})",
            "failed_ops_ratio", ratio, "ratio", self.attempted
        );
        for (what, passed) in &self.checks {
            println!("  check {}: {what}", if *passed { "ok  " } else { "FAIL" });
        }
    }

    /// The result object with the catalogued metrics, in order. A
    /// per-layer metric the workload has no layer for reads 0.
    pub fn result_json(&self, catalog: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = catalog
            .iter()
            .map(|&(name, unit)| {
                let value = match self.get(name) {
                    Some(metric) => {
                        assert_eq!(metric.unit, unit, "{name} measured in the catalogued unit");
                        metric.value
                    }
                    None if name == "failed_ops_ratio" => {
                        self.failed as f64 / self.attempted.max(1) as f64
                    }
                    None => 0.0,
                };
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of a list of values (the mean of the middle two for an even
/// count). Returns 0 for an empty list.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Interquartile mean: the mean of the middle half of the values (for
/// three values, the middle one). A run repeats its measurement and
/// reports this, so that a repetition disturbed by another tenant of the
/// machine moves the figure little, while the figure keeps the resolution
/// of a mean. Returns 0 for an empty list.
pub fn iqm(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let trim = (sorted.len() + 1) / 4;
    let middle = &sorted[trim..sorted.len() - trim];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Nearest-rank percentile of sorted nanosecond samples, in nanoseconds.
pub fn percentile_ns(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// A histogram quantile in microseconds (0 when empty).
pub fn quantile_us(histogram: &LogHistogram, q: f64) -> f64 {
    histogram.quantile(q).map_or(0.0, micros)
}

/// A duration in microseconds.
pub fn micros(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e6
}

/// Runs `f` `repeats` times and returns the median wall time in seconds
/// together with the last run's result.
pub fn timed_median<R>(repeats: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        // Drop the previous result first, so set-ups do not overlap in
        // memory.
        drop(last.take());
        let started = std::time::Instant::now();
        let result = f();
        times.push(started.elapsed().as_secs_f64());
        last = Some(result);
    }
    (median(&times), last.expect("at least one repeat"))
}
