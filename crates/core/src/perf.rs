//! Performance analysis (paper §3.2): producer/consumer throughput in
//! messages and body bytes per second, message-delay statistics, and the
//! fairness measures — all computed over the *run* period only, while
//! safety properties apply to the whole trace.
//!
//! The measures are accumulated incrementally by [`PerfAccumulator`]; the
//! batch [`analyze`] / [`analyze_window`] entry points drive a whole trace
//! through the same accumulator. Samples whose window membership is not
//! yet decidable (the run window is only final at end of stream) wait in
//! [`WindowGate`]s that preserve accumulation order, so batch and
//! streaming runs produce bit-identical floating-point statistics.

use crate::stream::{RunWindowTracker, TxResolver, WindowGate};
use jmst_api::id::{ConsumerId, ProducerId};
use jmst_api::time::Timestamp;
use jmst_store::event::{Event, EventKind};
use jmst_store::stats::{DelayHistogram, SummaryStats};
use jmst_store::trace::Trace;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::mem;
use std::time::Duration;

/// A throughput measure in both units the paper reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Throughput {
    /// Events counted in the window.
    pub count: u64,
    /// Body bytes counted in the window.
    pub bytes: u64,
    /// Messages per second.
    pub messages_per_sec: f64,
    /// Body bytes per second.
    pub bytes_per_sec: f64,
}

impl Throughput {
    fn from_counts(count: u64, bytes: u64, window: Duration) -> Self {
        let secs = window.as_secs_f64();
        if secs <= 0.0 {
            return Self {
                count,
                bytes,
                messages_per_sec: 0.0,
                bytes_per_sec: 0.0,
            };
        }
        Self {
            count,
            bytes,
            messages_per_sec: count as f64 / secs,
            bytes_per_sec: bytes as f64 / secs,
        }
    }
}

impl fmt::Display for Throughput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2} msg/s ({:.0} B/s, n={})",
            self.messages_per_sec, self.bytes_per_sec, self.count
        )
    }
}

/// Message-delay statistics in milliseconds.
///
/// Delay is "the time between the start of the message delivery to a
/// consumer and the start of the call to send or publish the message"
/// (paper §3.2). With skewed clocks a delay can be negative (footnote 6);
/// negative samples are kept, and counted separately.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DelayStats {
    /// Summary over all samples, in milliseconds.
    pub stats: SummaryStats,
    /// Number of negative samples (clock-skew artefacts).
    pub negative_samples: u64,
}

/// The full performance report of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerformanceReport {
    /// The measured window.
    pub window: (Timestamp, Timestamp),
    /// Aggregate producer throughput.
    pub producer_throughput: Throughput,
    /// Aggregate consumer throughput.
    pub consumer_throughput: Throughput,
    /// Per-producer throughput.
    pub per_producer: BTreeMap<ProducerId, Throughput>,
    /// Per-consumer throughput.
    pub per_consumer: BTreeMap<ConsumerId, Throughput>,
    /// Delay statistics over messages produced in the window.
    pub delay: DelayStats,
    /// Standard deviation of per-producer mean delays, milliseconds —
    /// the paper's *unfairness* measure on the producer side.
    pub producer_unfairness_ms: f64,
    /// Standard deviation of per-consumer mean delays, milliseconds.
    pub consumer_unfairness_ms: f64,
    /// Delay histogram over the run period (feeds the histogram
    /// expectation model).
    pub delay_histogram: DelayHistogram,
}

impl PerformanceReport {
    /// An upper estimate of the `q`-quantile of message delay over the
    /// run window, from the delay histogram. `None` when nothing was
    /// delivered.
    pub fn delay_percentile(&self, q: f64) -> Option<Duration> {
        self.delay_histogram.quantile(q)
    }

    /// Renders the report as the rows of the paper's §3.2 measures.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "window              {} .. {}\n",
            self.window.0, self.window.1
        ));
        out.push_str(&format!(
            "producer throughput {}\n",
            self.producer_throughput
        ));
        out.push_str(&format!(
            "consumer throughput {}\n",
            self.consumer_throughput
        ));
        let d = &self.delay.stats;
        out.push_str(&format!(
            "message delay       mean={:.3}ms σ={:.3}ms min={:.3}ms max={:.3}ms n={}\n",
            d.mean(),
            d.std_dev(),
            d.min().unwrap_or(0.0),
            d.max().unwrap_or(0.0),
            d.count()
        ));
        if let (Some(p50), Some(p95), Some(p99)) = (
            self.delay_percentile(0.50),
            self.delay_percentile(0.95),
            self.delay_percentile(0.99),
        ) {
            out.push_str(&format!(
                "delay percentiles   p50≤{:.1}ms p95≤{:.1}ms p99≤{:.1}ms\n",
                p50.as_secs_f64() * 1e3,
                p95.as_secs_f64() * 1e3,
                p99.as_secs_f64() * 1e3
            ));
        }
        out.push_str(&format!(
            "unfairness          producers={:.3}ms consumers={:.3}ms\n",
            self.producer_unfairness_ms, self.consumer_unfairness_ms
        ));
        out
    }
}

/// A delay sample waiting on (or past) its window decision.
#[derive(Debug, Clone, Copy)]
struct DelaySample {
    producer: ProducerId,
    consumer: ConsumerId,
    delay_ns: i64,
}

/// Incremental accumulator for the §3.2 performance measures.
///
/// Producer throughput counts effective sends logged inside the window;
/// consumer throughput counts effective receives logged inside the
/// window; delays are attributed by *production* time (the paper takes
/// measurements for messages produced during the run period).
#[derive(Debug)]
pub struct PerfAccumulator {
    resolver: TxResolver,
    window: RunWindowTracker,
    producer_gate: WindowGate<(ProducerId, u64)>,
    consumer_gate: WindowGate<(ConsumerId, u64)>,
    delay_gate: WindowGate<DelaySample>,
    producer_counts: BTreeMap<ProducerId, (u64, u64)>,
    producer_total: (u64, u64),
    consumer_counts: BTreeMap<ConsumerId, (u64, u64)>,
    consumer_total: (u64, u64),
    delay: DelayStats,
    delay_histogram: DelayHistogram,
    per_producer_delay: BTreeMap<ProducerId, SummaryStats>,
    per_consumer_delay: BTreeMap<ConsumerId, SummaryStats>,
}

impl PerfAccumulator {
    /// Creates an accumulator that infers the run window from the stream.
    pub fn new(bucket: Duration, buckets: usize) -> Self {
        Self::with_tracker(RunWindowTracker::new(), bucket, buckets)
    }

    /// Creates an accumulator measuring an explicit window.
    pub fn with_window(window: (Timestamp, Timestamp), bucket: Duration, buckets: usize) -> Self {
        Self::with_tracker(RunWindowTracker::pinned(window), bucket, buckets)
    }

    fn with_tracker(window: RunWindowTracker, bucket: Duration, buckets: usize) -> Self {
        Self {
            resolver: TxResolver::new(),
            window,
            producer_gate: WindowGate::new(),
            consumer_gate: WindowGate::new(),
            delay_gate: WindowGate::new(),
            producer_counts: BTreeMap::new(),
            producer_total: (0, 0),
            consumer_counts: BTreeMap::new(),
            consumer_total: (0, 0),
            delay: DelayStats::default(),
            delay_histogram: DelayHistogram::new(bucket, buckets),
            per_producer_delay: BTreeMap::new(),
            per_consumer_delay: BTreeMap::new(),
        }
    }

    /// Feeds one raw trace event to the accumulator.
    pub fn observe(&mut self, event: &Event) {
        self.window.note(event);
        self.resolver
            .push(event)
            .for_each(|event| self.ingest(event));
        self.drain();
    }

    fn ingest(&mut self, event: &Event) {
        match &event.kind {
            EventKind::Send { record, .. } => {
                let sample = (record.producer, record.body_bytes);
                let counts = &mut self.producer_counts;
                let total = &mut self.producer_total;
                self.producer_gate
                    .offer(event.at, sample, &self.window, |(p, bytes)| {
                        Self::apply_count(counts, total, p, bytes)
                    });
            }
            EventKind::Receive {
                consumer, record, ..
            } => {
                let sample = (*consumer, record.body_bytes);
                let counts = &mut self.consumer_counts;
                let total = &mut self.consumer_total;
                self.consumer_gate
                    .offer(event.at, sample, &self.window, |(c, bytes)| {
                        Self::apply_count(counts, total, c, bytes)
                    });
                let sample = DelaySample {
                    producer: record.producer,
                    consumer: *consumer,
                    delay_ns: event.at.signed_since(record.sent_at),
                };
                let delay = &mut self.delay;
                let histogram = &mut self.delay_histogram;
                let per_producer = &mut self.per_producer_delay;
                let per_consumer = &mut self.per_consumer_delay;
                self.delay_gate
                    .offer(record.sent_at, sample, &self.window, |s| {
                        Self::apply_delay(delay, histogram, per_producer, per_consumer, s)
                    });
            }
            _ => {}
        }
    }

    fn apply_count<K: Ord>(
        counts: &mut BTreeMap<K, (u64, u64)>,
        total: &mut (u64, u64),
        key: K,
        bytes: u64,
    ) {
        let entry = counts.entry(key).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += bytes;
        total.0 += 1;
        total.1 += bytes;
    }

    fn apply_delay(
        delay: &mut DelayStats,
        histogram: &mut DelayHistogram,
        per_producer: &mut BTreeMap<ProducerId, SummaryStats>,
        per_consumer: &mut BTreeMap<ConsumerId, SummaryStats>,
        sample: DelaySample,
    ) {
        let delay_ms = sample.delay_ns as f64 / 1e6;
        delay.stats.push(delay_ms);
        if sample.delay_ns < 0 {
            delay.negative_samples += 1;
        }
        histogram.push(Duration::from_nanos(sample.delay_ns.max(0) as u64));
        per_producer
            .entry(sample.producer)
            .or_default()
            .push(delay_ms);
        per_consumer
            .entry(sample.consumer)
            .or_default()
            .push(delay_ms);
    }

    /// Flushes any gated samples whose window membership has become
    /// decidable.
    fn drain(&mut self) {
        let counts = &mut self.producer_counts;
        let total = &mut self.producer_total;
        self.producer_gate.drain(&self.window, &mut |(p, bytes)| {
            Self::apply_count(counts, total, p, bytes)
        });
        let counts = &mut self.consumer_counts;
        let total = &mut self.consumer_total;
        self.consumer_gate.drain(&self.window, &mut |(c, bytes)| {
            Self::apply_count(counts, total, c, bytes)
        });
        let delay = &mut self.delay;
        let histogram = &mut self.delay_histogram;
        let per_producer = &mut self.per_producer_delay;
        let per_consumer = &mut self.per_consumer_delay;
        self.delay_gate.drain(&self.window, &mut |s| {
            Self::apply_delay(delay, histogram, per_producer, per_consumer, s)
        });
    }

    /// An estimate of the accumulator's resident state, in bytes.
    pub fn state_bytes(&self) -> usize {
        self.resolver.state_bytes()
            + self.producer_gate.len() * mem::size_of::<(Timestamp, (ProducerId, u64))>()
            + self.consumer_gate.len() * mem::size_of::<(Timestamp, (ConsumerId, u64))>()
            + self.delay_gate.len() * mem::size_of::<(Timestamp, DelaySample)>()
            + (self.producer_counts.len() + self.consumer_counts.len())
                * mem::size_of::<(ProducerId, (u64, u64))>()
            + (self.per_producer_delay.len() + self.per_consumer_delay.len())
                * mem::size_of::<(ProducerId, SummaryStats)>()
            + mem::size_of::<DelayHistogram>()
    }

    /// Finishes the accumulation and builds the report.
    pub fn finish(mut self) -> PerformanceReport {
        let window = self.window.final_window();
        let counts = &mut self.producer_counts;
        let total = &mut self.producer_total;
        self.producer_gate.finish(window, |(p, bytes)| {
            Self::apply_count(counts, total, p, bytes)
        });
        let counts = &mut self.consumer_counts;
        let total = &mut self.consumer_total;
        self.consumer_gate.finish(window, |(c, bytes)| {
            Self::apply_count(counts, total, c, bytes)
        });
        let delay = &mut self.delay;
        let histogram = &mut self.delay_histogram;
        let per_producer = &mut self.per_producer_delay;
        let per_consumer = &mut self.per_consumer_delay;
        self.delay_gate.finish(window, |s| {
            Self::apply_delay(delay, histogram, per_producer, per_consumer, s)
        });

        fn unfairness<K>(means: &BTreeMap<K, SummaryStats>) -> f64 {
            let stats: SummaryStats = means.values().map(SummaryStats::mean).collect();
            stats.std_dev()
        }

        let span = window.1.saturating_since(window.0);
        PerformanceReport {
            window,
            producer_throughput: Throughput::from_counts(
                self.producer_total.0,
                self.producer_total.1,
                span,
            ),
            consumer_throughput: Throughput::from_counts(
                self.consumer_total.0,
                self.consumer_total.1,
                span,
            ),
            per_producer: self
                .producer_counts
                .into_iter()
                .map(|(id, (count, bytes))| (id, Throughput::from_counts(count, bytes, span)))
                .collect(),
            per_consumer: self
                .consumer_counts
                .into_iter()
                .map(|(id, (count, bytes))| (id, Throughput::from_counts(count, bytes, span)))
                .collect(),
            delay: self.delay,
            producer_unfairness_ms: unfairness(&self.per_producer_delay),
            consumer_unfairness_ms: unfairness(&self.per_consumer_delay),
            delay_histogram: self.delay_histogram,
        }
    }
}

/// Computes the §3.2 performance measures over the trace's run window.
pub fn analyze(trace: &Trace, bucket: Duration, buckets: usize) -> PerformanceReport {
    let mut accumulator = PerfAccumulator::new(bucket, buckets);
    for event in trace {
        accumulator.observe(event);
    }
    accumulator.finish()
}

/// Computes the performance measures over an explicit window.
pub fn analyze_window(
    trace: &Trace,
    window: (Timestamp, Timestamp),
    bucket: Duration,
    buckets: usize,
) -> PerformanceReport {
    let mut accumulator = PerfAccumulator::with_window(window, bucket, buckets);
    for event in trace {
        accumulator.observe(event);
    }
    accumulator.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::*;
    use jmst_store::event::Phase;

    /// 10 messages over a 10-second run window, 100 bytes each, received
    /// 5 ms after sending, plus warm-up/warm-down traffic that must be
    /// excluded.
    fn run_trace() -> Trace {
        let mut builder = TraceBuilder::new()
            .phase(Phase::WarmUp)
            // Warm-up traffic (excluded).
            .at(100)
            .send(1000, 1, 1000)
            .at(105)
            .receive_q(1000, 1, 1000)
            .at(1_000)
            .phase(Phase::Run);
        for i in 0..10u64 {
            let at = 1_000 + i * 1_000;
            builder = builder
                .at(at)
                .send(i + 1, 1, i)
                .at(at + 5)
                .receive_q(i + 1, 1, i);
        }
        builder = builder
            .at(11_000)
            .phase(Phase::WarmDown)
            // Warm-down traffic (excluded).
            .at(11_100)
            .send(2000, 1, 2000)
            .at(11_105)
            .receive_q(2000, 1, 2000);
        builder.build()
    }

    #[test]
    fn throughput_counts_run_window_only() {
        let report = analyze(&run_trace(), Duration::from_millis(1), 100);
        assert_eq!(report.producer_throughput.count, 10);
        assert_eq!(report.consumer_throughput.count, 10);
        assert!((report.producer_throughput.messages_per_sec - 1.0).abs() < 1e-9);
        assert!((report.producer_throughput.bytes_per_sec - 100.0).abs() < 1e-9);
    }

    #[test]
    fn delay_statistics() {
        let report = analyze(&run_trace(), Duration::from_millis(1), 100);
        assert_eq!(report.delay.stats.count(), 10);
        assert!((report.delay.stats.mean() - 5.0).abs() < 1e-9);
        assert_eq!(report.delay.stats.std_dev(), 0.0);
        assert_eq!(report.delay.negative_samples, 0);
    }

    #[test]
    fn per_actor_breakdowns() {
        let report = analyze(&run_trace(), Duration::from_millis(1), 100);
        assert_eq!(report.per_producer.len(), 1);
        assert_eq!(report.per_consumer.len(), 1);
        assert_eq!(report.per_producer[&ProducerId::from_raw(1)].count, 10);
    }

    #[test]
    fn unfairness_is_zero_for_single_actors_and_positive_when_skewed() {
        let report = analyze(&run_trace(), Duration::from_millis(1), 100);
        assert_eq!(report.producer_unfairness_ms, 0.0);
        // Two producers with different delays → positive unfairness.
        let mut builder = TraceBuilder::new().phase(Phase::Run);
        for i in 0..10u64 {
            let at = 100 + i * 100;
            let fast = rec(i * 2 + 1, 1, i);
            let slow = rec(i * 2 + 2, 2, i);
            builder = builder
                .at(at)
                .send_rec(fast.clone(), None)
                .send_rec(slow.clone(), None)
                .at(at + 2)
                .receive_rec(default_queue_endpoint(), 50, fast, None)
                .at(at + 50)
                .receive_rec(default_queue_endpoint(), 50, slow, None);
        }
        builder = builder.at(10_000).phase(Phase::WarmDown);
        let report = analyze(&builder.build(), Duration::from_millis(1), 100);
        assert!(report.producer_unfairness_ms > 10.0);
        assert_eq!(report.consumer_unfairness_ms, 0.0);
    }

    #[test]
    fn negative_delays_are_counted() {
        // A receive logged on a node whose clock runs behind the sender's.
        let mut record = rec(1, 1, 0);
        record.sent_at = Timestamp::from_millis(100);
        let trace = TraceBuilder::new()
            .phase(Phase::Run)
            .at(50)
            .receive_rec(default_queue_endpoint(), 50, record.clone(), None)
            .at(51)
            .send_rec(record, None) // keep the send in-window
            .at(10_000)
            .phase(Phase::WarmDown)
            .build();
        let report = analyze(&trace, Duration::from_millis(1), 100);
        assert_eq!(report.delay.negative_samples, 1);
        assert!(report.delay.stats.mean() < 0.0);
    }

    #[test]
    fn empty_window_is_safe() {
        let report = analyze(&TraceBuilder::new().build(), Duration::from_millis(1), 10);
        assert_eq!(report.producer_throughput.count, 0);
        assert_eq!(report.producer_throughput.messages_per_sec, 0.0);
        assert_eq!(report.delay.stats.count(), 0);
    }

    #[test]
    fn table_rendering_mentions_all_measures() {
        let report = analyze(&run_trace(), Duration::from_millis(1), 100);
        let table = report.to_table();
        assert!(table.contains("producer throughput"));
        assert!(table.contains("consumer throughput"));
        assert!(table.contains("message delay"));
        assert!(table.contains("unfairness"));
        assert!(table.contains("p95"));
    }

    #[test]
    fn delay_percentiles_come_from_the_histogram() {
        let report = analyze(&run_trace(), Duration::from_millis(1), 100);
        // All delays are exactly 5 ms; bucket upper edges give ≤ 6 ms.
        let p50 = report.delay_percentile(0.5).unwrap();
        assert!(p50 >= Duration::from_millis(5) && p50 <= Duration::from_millis(6));
        assert_eq!(report.delay_percentile(0.99), report.delay_percentile(0.5));
        let empty = analyze(&TraceBuilder::new().build(), Duration::from_millis(1), 10);
        assert_eq!(empty.delay_percentile(0.5), None);
    }

    #[test]
    fn explicit_window_overrides_run_window() {
        let report = analyze_window(
            &run_trace(),
            (Timestamp::ZERO, Timestamp::from_secs(100)),
            Duration::from_millis(1),
            100,
        );
        // Now warm-up and warm-down messages are included: 12 sends.
        assert_eq!(report.producer_throughput.count, 12);
    }
}
