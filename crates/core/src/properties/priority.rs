//! Property 4 — Message Priority: "the mean message delivery time between
//! a producer and consumer for a lower message priority is greater or
//! equal to the mean message delivery time for a higher message priority"
//! (best effort, hence a configurable tolerance).
//!
//! As the paper requires, classes are only compared when their messages
//! were produced comparably: same producer, same end-point, same delivery
//! mode. The measurement window is the run period; the incremental
//! [`PriorityChecker`] gates samples through a [`WindowGate`] so that
//! delays are admitted exactly when the (possibly not yet delimited) run
//! window is known to contain their production time.

use super::PropertyChecker;
use crate::config::PriorityConfig;
use crate::stream::{RunWindowTracker, TxResolver, WindowGate};
use crate::violation::Violation;
use jmst_api::destination::EndpointId;
use jmst_api::id::ProducerId;
use jmst_api::modes::{DeliveryMode, Priority};
use jmst_api::time::Timestamp;
use jmst_store::event::{Event, EventKind};
use jmst_store::stats::SummaryStats;
use jmst_store::trace::Trace;
use std::collections::BTreeMap;
use std::mem;
use std::time::Duration;

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct GroupKey {
    producer: ProducerId,
    endpoint: EndpointId,
    mode: DeliveryMode,
}

/// Incremental mean-delay priority checker.
#[derive(Debug)]
pub struct PriorityChecker {
    config: PriorityConfig,
    resolver: TxResolver,
    window: RunWindowTracker,
    gate: WindowGate<(GroupKey, Priority, f64)>,
    groups: BTreeMap<GroupKey, BTreeMap<Priority, SummaryStats>>,
}

impl PriorityChecker {
    /// Creates a checker with the given configuration.
    pub fn new(config: PriorityConfig) -> Self {
        Self {
            config,
            resolver: TxResolver::new(),
            window: RunWindowTracker::new(),
            gate: WindowGate::new(),
            groups: BTreeMap::new(),
        }
    }

    fn ingest(&mut self, event: &Event) {
        let EventKind::Receive {
            endpoint, record, ..
        } = &event.kind
        else {
            return;
        };
        let delay_ms = event.at.signed_since(record.sent_at) as f64 / 1e6;
        let sample = (
            GroupKey {
                producer: record.producer,
                endpoint: endpoint.clone(),
                mode: record.delivery_mode,
            },
            record.priority,
            delay_ms,
        );
        let groups = &mut self.groups;
        self.gate.offer(
            record.sent_at,
            sample,
            &self.window,
            |(key, priority, delay_ms)| {
                groups
                    .entry(key)
                    .or_default()
                    .entry(priority)
                    .or_default()
                    .push(delay_ms);
            },
        );
    }
}

impl PropertyChecker for PriorityChecker {
    fn observe(&mut self, event: &Event) {
        self.window.note(event);
        self.resolver
            .push(event)
            .for_each(|event| self.ingest(event));
        let groups = &mut self.groups;
        self.gate
            .drain(&self.window, &mut |(key, priority, delay_ms)| {
                groups
                    .entry(key)
                    .or_default()
                    .entry(priority)
                    .or_default()
                    .push(delay_ms);
            });
    }

    fn state_bytes(&self) -> usize {
        let group_bytes: usize = self
            .groups
            .values()
            .map(|by_priority| {
                by_priority.len() * (mem::size_of::<Priority>() + mem::size_of::<SummaryStats>())
            })
            .sum();
        self.resolver.state_bytes()
            + self.gate.len() * mem::size_of::<(Timestamp, (GroupKey, Priority, f64))>()
            + self.groups.len() * mem::size_of::<GroupKey>()
            + group_bytes
    }

    /// Finishes the check: resolves still-pending samples against the
    /// final run window and compares priority classes pairwise.
    fn finish(mut self: Box<Self>) -> Vec<Violation> {
        let window = self.window.final_window();
        let groups = &mut self.groups;
        self.gate.finish(window, |(key, priority, delay_ms)| {
            groups
                .entry(key)
                .or_default()
                .entry(priority)
                .or_default()
                .push(delay_ms);
        });
        let tolerance_ms = self.config.tolerance.as_secs_f64() * 1e3;
        let mut violations = Vec::new();
        for (key, by_priority) in self.groups {
            let qualified: Vec<(Priority, f64)> = by_priority
                .iter()
                .filter(|(_, stats)| stats.count() >= self.config.min_samples)
                .map(|(priority, stats)| (*priority, stats.mean()))
                .collect();
            // Compare every (lower, higher) pair; the map iterates
            // priorities in ascending order, so pairs are (earlier, later).
            for (i, &(lower, lower_mean)) in qualified.iter().enumerate() {
                for &(higher, higher_mean) in &qualified[i + 1..] {
                    if higher_mean > lower_mean + tolerance_ms {
                        violations.push(Violation::PriorityInversion {
                            producer: key.producer,
                            endpoint: key.endpoint.clone(),
                            lower,
                            higher,
                            lower_mean_ms: lower_mean,
                            higher_mean_ms: higher_mean,
                        });
                    }
                }
            }
        }
        violations
    }
}

/// One delivery retained by the strict checker.
#[derive(Debug, Clone, Copy)]
struct Delivered {
    sent_at: Timestamp,
    delivered_at: Timestamp,
    priority: Priority,
    mode: DeliveryMode,
    producer: ProducerId,
}

/// The paper's §5 *stricter* priority analysis: "the strictness of
/// message priority analysis can be enhanced by building a model that
/// indicates whether two messages are candidates for priority
/// considerations."
///
/// Two messages are *candidates* when the provider demonstrably held both
/// at once and chose between them: a higher-priority message `h` was
/// already sent (and past the delivery latency `slack`) when a
/// lower-priority message `l` bound for the same end-point was delivered —
/// yet `h` was delivered after `l`. Producer identity is irrelevant: the
/// end-point's buffer held both. Each such pair is a concrete,
/// non-statistical priority inversion.
///
/// Unlike the mean-based Property 4, a strictly-FIFO provider *does* fail
/// this check under backlog, which is exactly the sharper discrimination
/// the paper's future work asks for. Providers are allowed `slack` of
/// scheduling noise.
#[derive(Debug)]
pub struct StrictPriorityChecker {
    resolver: TxResolver,
    slack: Duration,
    by_group: BTreeMap<EndpointId, Vec<Delivered>>,
}

impl StrictPriorityChecker {
    /// Creates a strict checker with the given scheduling slack.
    pub fn new(slack: Duration) -> Self {
        Self {
            resolver: TxResolver::new(),
            slack,
            by_group: BTreeMap::new(),
        }
    }

    fn ingest(&mut self, event: &Event) {
        let EventKind::Receive {
            endpoint, record, ..
        } = &event.kind
        else {
            return;
        };
        if record.redelivered {
            return;
        }
        self.by_group
            .entry(endpoint.clone())
            .or_default()
            .push(Delivered {
                sent_at: record.sent_at,
                delivered_at: event.at,
                priority: record.priority,
                mode: record.delivery_mode,
                producer: record.producer,
            });
    }
}

impl PropertyChecker for StrictPriorityChecker {
    fn observe(&mut self, event: &Event) {
        self.resolver
            .push(event)
            .for_each(|event| self.ingest(event));
    }

    fn state_bytes(&self) -> usize {
        self.by_group
            .values()
            .map(|v| v.capacity() * mem::size_of::<Delivered>())
            .sum::<usize>()
            + self.by_group.len() * mem::size_of::<EndpointId>()
            + self.resolver.state_bytes()
    }

    /// Finishes the check, comparing every candidate pair per end-point.
    fn finish(self: Box<Self>) -> Vec<Violation> {
        let slack_nanos = self.slack.as_nanos() as i64;
        let mut violations = Vec::new();
        for (endpoint, deliveries) in self.by_group {
            for low in &deliveries {
                for high in &deliveries {
                    if high.priority <= low.priority || high.mode != low.mode {
                        continue;
                    }
                    // `high` was available well before `low` was delivered…
                    let available = low.delivered_at.signed_since(high.sent_at) >= slack_nanos;
                    // …yet delivered later, beyond the slack.
                    let inverted = high.delivered_at.signed_since(low.delivered_at) > slack_nanos;
                    if available && inverted {
                        violations.push(Violation::PriorityInversion {
                            producer: low.producer,
                            endpoint: endpoint.clone(),
                            lower: low.priority,
                            higher: high.priority,
                            lower_mean_ms: low.delivered_at.signed_since(low.sent_at) as f64 / 1e6,
                            higher_mean_ms: high.delivered_at.signed_since(high.sent_at) as f64
                                / 1e6,
                        });
                    }
                }
            }
        }
        violations
    }
}

/// The mean-delay-by-priority table behind the check, for reports
/// (experiment E7 prints it): the delays of effective receives whose
/// message was produced inside the run window.
pub fn mean_delay_by_priority(trace: &Trace) -> BTreeMap<Priority, SummaryStats> {
    let (run_start, run_end) = trace.run_window();
    let mut table: BTreeMap<Priority, SummaryStats> = BTreeMap::new();
    let mut resolver = TxResolver::new();
    let mut ingest = |event: &Event| {
        let EventKind::Receive { record, .. } = &event.kind else {
            return;
        };
        if record.sent_at < run_start || record.sent_at >= run_end {
            return;
        }
        let delay_ms = event.at.signed_since(record.sent_at) as f64 / 1e6;
        table.entry(record.priority).or_default().push(delay_ms);
    };
    for event in trace {
        resolver.push(event).for_each(&mut ingest);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::*;
    use jmst_store::event::MessageRecord;
    use std::time::Duration;

    fn prioritised(message: u64, sequence: u64, priority: u8) -> MessageRecord {
        let mut record = rec(message, 1, sequence);
        record.priority = Priority::new(priority).unwrap();
        record
    }

    /// Builds a trace where priority `high` has mean delay `high_ms` and
    /// priority `low` has mean delay `low_ms`, with `n` samples each.
    fn delay_trace(low_ms: u64, high_ms: u64, n: u64) -> Trace {
        let mut builder = TraceBuilder::new();
        let mut message = 0;
        let mut time = 0u64;
        for i in 0..n {
            // Low-priority message.
            message += 1;
            let record = prioritised(message, i * 2, 1);
            builder = builder
                .at(time)
                .send_rec(record.clone(), None)
                .at(time + low_ms)
                .receive_rec(default_queue_endpoint(), 50, record, None);
            // High-priority message.
            message += 1;
            let record = prioritised(message, i * 2 + 1, 8);
            builder = builder
                .at(time + low_ms)
                .send_rec(record.clone(), None)
                .at(time + low_ms + high_ms)
                .receive_rec(default_queue_endpoint(), 50, record, None);
            time += low_ms + high_ms + 1;
        }
        builder.build()
    }

    fn config(min_samples: u64) -> PriorityConfig {
        PriorityConfig {
            tolerance: Duration::from_millis(1),
            min_samples,
            ..PriorityConfig::default()
        }
    }

    #[test]
    fn faster_high_priority_passes() {
        let trace = delay_trace(50, 10, 30);
        assert!(check(PriorityChecker::new(config(20)), &trace).is_empty());
    }

    #[test]
    fn equal_delays_pass() {
        let trace = delay_trace(20, 20, 30);
        assert!(check(PriorityChecker::new(config(20)), &trace).is_empty());
    }

    #[test]
    fn slower_high_priority_is_flagged() {
        let trace = delay_trace(10, 50, 30);
        let violations = check(PriorityChecker::new(config(20)), &trace);
        assert_eq!(violations.len(), 1);
        match &violations[0] {
            Violation::PriorityInversion {
                lower,
                higher,
                lower_mean_ms,
                higher_mean_ms,
                ..
            } => {
                assert_eq!(lower.level(), 1);
                assert_eq!(higher.level(), 8);
                assert!(higher_mean_ms > lower_mean_ms);
            }
            other => panic!("unexpected violation {other:?}"),
        }
    }

    #[test]
    fn small_samples_are_ignored() {
        let trace = delay_trace(10, 50, 5);
        assert!(check(PriorityChecker::new(config(20)), &trace).is_empty());
    }

    #[test]
    fn tolerance_absorbs_small_inversions() {
        let trace = delay_trace(10, 11, 30); // 1 ms worse than lower
        let generous = PriorityConfig {
            tolerance: Duration::from_millis(5),
            min_samples: 20,
            ..PriorityConfig::default()
        };
        assert!(check(PriorityChecker::new(generous), &trace).is_empty());
    }

    #[test]
    fn strict_check_flags_concrete_inversion_pairs() {
        // Low-priority L and high-priority H are both in the queue; the
        // provider delivers L first: a strict violation even though means
        // might not show it.
        let low = prioritised(1, 0, 1);
        let high = prioritised(2, 1, 8);
        let trace = TraceBuilder::new()
            .at(0)
            .send_rec(low.clone(), None)
            .send_rec(high.clone(), None)
            .at(100)
            .receive_rec(default_queue_endpoint(), 50, low, None)
            .at(200)
            .receive_rec(default_queue_endpoint(), 50, high, None)
            .build();
        let violations = check(
            StrictPriorityChecker::new(Duration::from_millis(10)),
            &trace,
        );
        assert_eq!(violations.len(), 1);
        // The non-strict mean check with few samples sees nothing.
        assert!(check(PriorityChecker::new(config(20)), &trace).is_empty());
    }

    #[test]
    fn strict_check_accepts_correct_priority_order() {
        let low = prioritised(1, 0, 1);
        let high = prioritised(2, 1, 8);
        let trace = TraceBuilder::new()
            .at(0)
            .send_rec(low.clone(), None)
            .send_rec(high.clone(), None)
            .at(100)
            .receive_rec(default_queue_endpoint(), 50, high, None)
            .at(200)
            .receive_rec(default_queue_endpoint(), 50, low, None)
            .build();
        assert!(check(
            StrictPriorityChecker::new(Duration::from_millis(10)),
            &trace
        )
        .is_empty());
    }

    #[test]
    fn strict_check_excuses_late_arrivals_within_slack() {
        // H was sent just before L was delivered: the provider never
        // really had both; within slack, no violation.
        let low = prioritised(1, 0, 1);
        let high = prioritised(2, 1, 8);
        let trace = TraceBuilder::new()
            .at(0)
            .send_rec(low.clone(), None)
            .at(99)
            .send_rec(high.clone(), None)
            .at(100)
            .receive_rec(default_queue_endpoint(), 50, low, None)
            .at(105)
            .receive_rec(default_queue_endpoint(), 50, high, None)
            .build();
        assert!(check(
            StrictPriorityChecker::new(Duration::from_millis(10)),
            &trace
        )
        .is_empty());
    }

    #[test]
    fn strict_check_ignores_cross_mode_pairs() {
        // Non-persistent may run ahead of persistent regardless of
        // priority; modes are compared separately.
        let mut low = prioritised(1, 0, 1);
        low.delivery_mode = DeliveryMode::NonPersistent;
        let high = prioritised(2, 1, 8);
        let trace = TraceBuilder::new()
            .at(0)
            .send_rec(low.clone(), None)
            .send_rec(high.clone(), None)
            .at(100)
            .receive_rec(default_queue_endpoint(), 50, low, None)
            .at(200)
            .receive_rec(default_queue_endpoint(), 50, high, None)
            .build();
        assert!(check(
            StrictPriorityChecker::new(Duration::from_millis(10)),
            &trace
        )
        .is_empty());
    }

    #[test]
    fn mean_delay_table_reports_both_classes() {
        let table = mean_delay_by_priority(&delay_trace(40, 10, 10));
        assert_eq!(table.len(), 2);
        let low = table[&Priority::new(1).unwrap()].mean();
        let high = table[&Priority::new(8).unwrap()].mean();
        assert!((low - 40.0).abs() < 1.0, "low {low}");
        assert!((high - 10.0).abs() < 1.0, "high {high}");
    }
}
