//! Property 5 — Expired Messages: under a delay *expectation model*, the
//! percentage of expected-expired messages that were delivered must stay
//! below a threshold, and the percentage of expected-live messages that
//! were delivered must stay above one.
//!
//! The paper deploys a simple mean-latency model and suggests (in §5)
//! histogram- and normal-distribution-based models as future work; all
//! three are implemented and selectable through
//! [`ExpiryConfig`].
//!
//! [`ExpiryCheck`] fits the model and gathers the accounting in one
//! incremental pass, and judges both at finish. Queue
//! end-points keep only per-time-to-live aggregates plus the ids of
//! still-undelivered messages; subscription end-points must retain the
//! topic send log, because a subscription's activity window (first
//! consumer creation to last close) is only known at end of stream.
//!
//! One deliberate deviation from the retrospective batch semantics: a
//! queue consumer's selector is applied to sends *from the point the
//! consumer row is seen* (prospectively), not re-applied to sends counted
//! before any consumer existed — re-filtering would require retaining
//! every queue record. Mixed-selector end-points are skipped exactly as
//! in the batch analysis.
//!
//! [`ExpiryConfig`]: crate::config::ExpiryConfig

use super::PropertyChecker;
use crate::config::{AnalysisConfig, ExpiryConfig, ExpiryModel};
use crate::defs;
use crate::stream::{SelectorState, SelectorTracker, TxResolver};
use crate::violation::Violation;
use jmst_api::destination::{Destination, EndpointId};
use jmst_api::id::MessageId;
use jmst_api::modes::TimeToLive;
use jmst_api::selector::Selector;
use jmst_api::time::Timestamp;
use jmst_store::event::{Event, EventKind, MessageRecord};
use jmst_store::stats::{DelayHistogram, SummaryStats};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::mem;
use std::time::Duration;

/// Per-end-point expiry accounting, returned alongside any violations for
/// reporting (experiment E6 prints these).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpiryBreakdown {
    /// The end-point.
    pub endpoint: EndpointId,
    /// Messages the model expected to expire.
    pub expected_expired: u64,
    /// …of which this many were delivered anyway.
    pub expired_delivered: u64,
    /// Messages the model expected to live.
    pub expected_live: u64,
    /// …of which this many were delivered.
    pub live_delivered: u64,
}

impl ExpiryBreakdown {
    /// Percentage of expected-expired messages that were delivered.
    pub fn expired_delivered_percent(&self) -> f64 {
        if self.expected_expired == 0 {
            0.0
        } else {
            100.0 * self.expired_delivered as f64 / self.expected_expired as f64
        }
    }

    /// Percentage of expected-live messages that were delivered.
    pub fn live_delivered_percent(&self) -> f64 {
        if self.expected_live == 0 {
            100.0
        } else {
            100.0 * self.live_delivered as f64 / self.expected_live as f64
        }
    }
}

/// Standard normal CDF via the Abramowitz–Stegun 7.1.26 erf
/// approximation (|error| < 1.5e-7, ample for an expectation model).
fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Per-queue expiry state: aggregate counts per time-to-live, plus the
/// ids needed to join sends to deliveries. Bounded by the number of
/// *undelivered* messages, not by trace length.
#[derive(Debug, Default)]
struct QueueExpiry {
    tracker: SelectorTracker,
    /// Parsed selector once the tracker is uniform on one text.
    selector: Option<Selector>,
    /// time-to-live → (relevant sends, of which delivered).
    counts: BTreeMap<TimeToLive, (u64, u64)>,
    /// Relevant sends not yet seen delivered.
    pending: HashMap<MessageId, TimeToLive>,
    /// Deliveries seen before (or without) their send.
    early: HashSet<MessageId>,
}

/// Per-subscription expiry state. The activity window (first consumer
/// creation to last close) is only known at end of stream, so the topic
/// send log is retained by the owning [`ExpiryCheck`] and replayed in
/// `finish`.
#[derive(Debug, Default)]
struct SubExpiry {
    tracker: SelectorTracker,
    opened_at: Option<Timestamp>,
    last_close: Option<Timestamp>,
    delivered: HashSet<MessageId>,
}

/// Incremental expired-messages check: fits the delay expectation model
/// to every effective receive and keeps the per-end-point accounting, in
/// one pass, then judges both at finish.
#[derive(Debug)]
pub struct ExpiryCheck {
    config: ExpiryConfig,
    resolver: TxResolver,
    /// Delivery delays in milliseconds, for the simple and normal models.
    delays: SummaryStats,
    /// Delivery delays, for the histogram model.
    histogram: DelayHistogram,
    queues: BTreeMap<EndpointId, QueueExpiry>,
    subs: BTreeMap<EndpointId, SubExpiry>,
    /// Effective sends to topic destinations, replayed per subscription
    /// end-point in `finish`.
    topic_sends: Vec<MessageRecord>,
    last_at: Timestamp,
}

impl ExpiryCheck {
    /// Creates a check with the configuration's expiry settings and
    /// delay-histogram shape.
    pub fn new(config: &AnalysisConfig) -> Self {
        Self {
            config: config.expiry,
            resolver: TxResolver::new(),
            delays: SummaryStats::new(),
            histogram: DelayHistogram::new(config.histogram_bucket, config.histogram_buckets),
            queues: BTreeMap::new(),
            subs: BTreeMap::new(),
            topic_sends: Vec::new(),
            last_at: Timestamp::ZERO,
        }
    }

    /// Whether the model fitted so far expects a message with the given
    /// time-to-live to be delivered.
    fn expect_delivered(&self, ttl: TimeToLive) -> bool {
        let Some(ttl) = ttl.as_duration() else {
            return true; // never expires
        };
        let ttl_ms = ttl.as_secs_f64() * 1e3;
        match self.config.model {
            ExpiryModel::SimpleMean => self.delays.mean() <= ttl_ms,
            ExpiryModel::Histogram => {
                self.histogram.fraction_at_most(ttl) >= self.config.deliver_probability
            }
            ExpiryModel::Normal => {
                let std = self.delays.std_dev();
                if std == 0.0 {
                    self.delays.mean() <= ttl_ms
                } else {
                    normal_cdf((ttl_ms - self.delays.mean()) / std)
                        >= self.config.deliver_probability
                }
            }
        }
    }

    fn ingest(&mut self, event: &Event) {
        match &event.kind {
            EventKind::ConsumerCreated {
                endpoint, selector, ..
            } => match endpoint {
                EndpointId::Queue(_) => {
                    let state = self.queues.entry(endpoint.clone()).or_default();
                    if state.tracker.note(selector.as_deref()) {
                        state.selector = match state.tracker.state() {
                            SelectorState::Uniform(Some(text)) => Some(
                                Selector::parse(&text)
                                    .expect("selector accepted by the provider must parse"),
                            ),
                            _ => None,
                        };
                    }
                }
                _ => {
                    let state = self.subs.entry(endpoint.clone()).or_default();
                    state.tracker.note(selector.as_deref());
                    state.opened_at = Some(
                        state
                            .opened_at
                            .map_or(event.at, |start| start.min(event.at)),
                    );
                }
            },
            EventKind::ConsumerClosed { endpoint, .. }
                if !matches!(endpoint, EndpointId::Queue(_)) =>
            {
                let state = self.subs.entry(endpoint.clone()).or_default();
                state.last_close =
                    Some(state.last_close.map_or(event.at, |last| last.max(event.at)));
            }
            EventKind::Send { record, .. } => match &record.destination {
                Destination::Queue(name) => {
                    let endpoint = EndpointId::for_queue(name.clone());
                    let state = self.queues.entry(endpoint).or_default();
                    if let Some(selector) = &state.selector {
                        if !defs::selector_accepts_record(selector, record) {
                            return;
                        }
                    }
                    let counts = state.counts.entry(record.time_to_live).or_insert((0, 0));
                    counts.0 += 1;
                    if state.early.remove(&record.message) {
                        counts.1 += 1;
                    } else {
                        state.pending.insert(record.message, record.time_to_live);
                    }
                }
                Destination::Topic(_) => self.topic_sends.push(record.clone()),
            },
            EventKind::Receive {
                endpoint, record, ..
            } => {
                let delay_ns = event.at.signed_since(record.sent_at);
                self.delays.push(delay_ns as f64 / 1e6);
                self.histogram
                    .push(Duration::from_nanos(delay_ns.max(0) as u64));
                if matches!(endpoint, EndpointId::Queue(_)) {
                    let state = self.queues.entry(endpoint.clone()).or_default();
                    if let Some(ttl) = state.pending.remove(&record.message) {
                        if let Some(counts) = state.counts.get_mut(&ttl) {
                            counts.1 += 1;
                        }
                    } else {
                        state.early.insert(record.message);
                    }
                } else {
                    let state = self.subs.entry(endpoint.clone()).or_default();
                    state.delivered.insert(record.message);
                }
            }
            _ => {}
        }
    }

    /// Judges the accounting under the fitted model: the violations and
    /// the per-end-point breakdowns, in end-point order.
    pub(crate) fn judge(self) -> (Vec<Violation>, Vec<ExpiryBreakdown>) {
        let config = &self.config;
        let trace_end = self.last_at;
        let mut accounted: BTreeMap<EndpointId, ExpiryBreakdown> = BTreeMap::new();

        for (endpoint, state) in &self.queues {
            if state.tracker.is_mixed() {
                continue;
            }
            let any_finite_ttl = state.counts.keys().any(|ttl| !ttl.is_forever());
            if !any_finite_ttl {
                continue;
            }
            let mut breakdown = ExpiryBreakdown {
                endpoint: endpoint.clone(),
                expected_expired: 0,
                expired_delivered: 0,
                expected_live: 0,
                live_delivered: 0,
            };
            for (ttl, (sent, delivered)) in &state.counts {
                if self.expect_delivered(*ttl) {
                    breakdown.expected_live += sent;
                    breakdown.live_delivered += delivered;
                } else {
                    breakdown.expected_expired += sent;
                    breakdown.expired_delivered += delivered;
                }
            }
            if breakdown.expected_expired == 0 && breakdown.expected_live == 0 {
                continue;
            }
            accounted.insert(endpoint.clone(), breakdown);
        }

        for (endpoint, state) in &self.subs {
            if state.tracker.is_mixed() {
                continue;
            }
            let selector = match state.tracker.state() {
                SelectorState::Uniform(Some(text)) => Some(
                    Selector::parse(&text).expect("selector accepted by the provider must parse"),
                ),
                _ => None,
            };
            // Subscriptions only cover messages published during their
            // lifetime (a queue's messages wait, so queues are unbounded):
            // counting pre-subscription publishes as "expected" would
            // charge the provider for correct pub/sub behaviour.
            let activity_window = state
                .opened_at
                .map(|start| (start, state.last_close.unwrap_or(trace_end)));
            let mut breakdown = ExpiryBreakdown {
                endpoint: endpoint.clone(),
                expected_expired: 0,
                expired_delivered: 0,
                expected_live: 0,
                live_delivered: 0,
            };
            let mut any_finite_ttl = false;
            for record in &self.topic_sends {
                if !defs::possibly_received(endpoint, selector.as_ref(), record) {
                    continue;
                }
                if let Some((start, end)) = activity_window {
                    if record.sent_at < start || record.sent_at > end {
                        continue;
                    }
                }
                any_finite_ttl |= !record.time_to_live.is_forever();
                let delivered = state.delivered.contains(&record.message);
                if self.expect_delivered(record.time_to_live) {
                    breakdown.expected_live += 1;
                    if delivered {
                        breakdown.live_delivered += 1;
                    }
                } else {
                    breakdown.expected_expired += 1;
                    if delivered {
                        breakdown.expired_delivered += 1;
                    }
                }
            }
            // Property 5 judges expiry behaviour; an end-point that never
            // saw a finite time-to-live is not an expiry test, and missing
            // forever-lived messages are Property 2's to report.
            if !any_finite_ttl {
                continue;
            }
            if breakdown.expected_expired == 0 && breakdown.expected_live == 0 {
                continue;
            }
            accounted.insert(endpoint.clone(), breakdown);
        }

        let mut violations = Vec::new();
        let mut breakdowns = Vec::new();
        for (endpoint, breakdown) in accounted {
            if breakdown.expired_delivered_percent() > config.max_expired_delivered_percent {
                violations.push(Violation::ExpiredMessagesDelivered {
                    endpoint: endpoint.clone(),
                    expected_expired: breakdown.expected_expired,
                    delivered: breakdown.expired_delivered,
                    max_percent: config.max_expired_delivered_percent,
                });
            }
            if breakdown.live_delivered_percent() < config.min_live_delivered_percent {
                violations.push(Violation::LiveMessagesNotDelivered {
                    endpoint,
                    expected_live: breakdown.expected_live,
                    delivered: breakdown.live_delivered,
                    min_percent: config.min_live_delivered_percent,
                });
            }
            breakdowns.push(breakdown);
        }
        (violations, breakdowns)
    }
}

impl PropertyChecker for ExpiryCheck {
    fn observe(&mut self, event: &Event) {
        self.last_at = self.last_at.max(event.at);
        self.resolver
            .push(event)
            .for_each(|event| self.ingest(event));
    }

    fn state_bytes(&self) -> usize {
        let queue_bytes: usize = self
            .queues
            .values()
            .map(|q| {
                q.counts.len() * mem::size_of::<(TimeToLive, (u64, u64))>()
                    + q.pending.capacity() * mem::size_of::<(MessageId, TimeToLive)>()
                    + q.early.capacity() * mem::size_of::<MessageId>()
            })
            .sum();
        let sub_bytes: usize = self
            .subs
            .values()
            .map(|s| s.delivered.capacity() * mem::size_of::<MessageId>())
            .sum();
        self.resolver.state_bytes()
            + mem::size_of::<SummaryStats>()
            + mem::size_of::<DelayHistogram>()
            + queue_bytes
            + sub_bytes
            + self.topic_sends.capacity() * mem::size_of::<MessageRecord>()
    }

    fn finish(self: Box<Self>) -> Vec<Violation> {
        self.judge().0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::*;
    use jmst_store::trace::Trace;

    fn with_ttl(message: u64, sequence: u64, ttl_ms: u64) -> MessageRecord {
        let mut record = rec(message, 1, sequence);
        record.time_to_live = TimeToLive::from_millis(ttl_ms);
        record
    }

    /// The paper's expiry test configuration: TTL 1 ms (expected to
    /// expire) and TTL 0 (expected to live), with a mean delay well above
    /// 1 ms.
    fn paper_config_trace(deliver_expired: bool, drop_live: bool) -> Trace {
        let mut builder = TraceBuilder::new();
        let mut message = 0u64;
        for i in 0..50u64 {
            // TTL-0 message, delivered after ~10 ms (unless drop_live).
            message += 1;
            let live = with_ttl(message, i * 2, 0);
            builder = builder.at(i * 30).send_rec(live.clone(), None);
            if !drop_live {
                builder =
                    builder
                        .at(i * 30 + 10)
                        .receive_rec(default_queue_endpoint(), 50, live, None);
            }
            // TTL-1ms message: should be suppressed.
            message += 1;
            let expiring = with_ttl(message, i * 2 + 1, 1);
            builder = builder.at(i * 30 + 11).send_rec(expiring.clone(), None);
            if deliver_expired {
                builder = builder.at(i * 30 + 21).receive_rec(
                    default_queue_endpoint(),
                    50,
                    expiring,
                    None,
                );
            }
        }
        builder.build()
    }

    /// An expiry check under `model`, with `buckets` 1 ms delay buckets,
    /// driven over the whole trace.
    fn fitted(trace: &Trace, model: ExpiryModel, buckets: usize) -> ExpiryCheck {
        let config = AnalysisConfig {
            histogram_buckets: buckets,
            ..AnalysisConfig::default().with_expiry_model(model)
        };
        drive(ExpiryCheck::new(&config), trace)
    }

    fn run(trace: &Trace, model: ExpiryModel) -> (Vec<Violation>, Vec<ExpiryBreakdown>) {
        fitted(trace, model, 1000).judge()
    }

    #[test]
    fn correct_expiry_behaviour_passes_all_models() {
        let trace = paper_config_trace(false, false);
        for model in [
            ExpiryModel::SimpleMean,
            ExpiryModel::Histogram,
            ExpiryModel::Normal,
        ] {
            let (violations, breakdowns) = run(&trace, model);
            assert!(violations.is_empty(), "{model:?}: {violations:?}");
            assert_eq!(breakdowns.len(), 1);
            let b = &breakdowns[0];
            assert_eq!(b.expected_expired, 50);
            assert_eq!(b.expired_delivered, 0);
            assert_eq!(b.expected_live, 50);
            assert_eq!(b.live_delivered, 50);
        }
    }

    #[test]
    fn delivering_expired_messages_is_flagged() {
        let trace = paper_config_trace(true, false);
        let (violations, breakdowns) = run(&trace, ExpiryModel::SimpleMean);
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::ExpiredMessagesDelivered { .. })));
        assert_eq!(breakdowns[0].expired_delivered, 50);
        assert!((breakdowns[0].expired_delivered_percent() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn dropping_live_messages_is_flagged() {
        let trace = paper_config_trace(false, true);
        let (violations, _) = run(&trace, ExpiryModel::SimpleMean);
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::LiveMessagesNotDelivered { .. })));
    }

    #[test]
    fn ttl_zero_always_expected_live() {
        let trace = paper_config_trace(false, false);
        let fitted = fitted(&trace, ExpiryModel::SimpleMean, 100);
        assert!(fitted.expect_delivered(TimeToLive::FOREVER));
        assert!(!fitted.expect_delivered(TimeToLive::from_millis(1)));
        // A TTL comfortably above the ~10 ms mean delay is deliverable.
        assert!(fitted.expect_delivered(TimeToLive::from_millis(1000)));
    }

    #[test]
    fn histogram_model_uses_distribution_not_mean() {
        // Delays: 90 at 1 ms, 10 at 1000 ms → mean ≈ 101 ms. A TTL of
        // 5 ms is below the mean (simple model says expire) but 90% of
        // messages beat it (histogram model says deliver).
        let mut builder = TraceBuilder::new();
        for i in 0..100u64 {
            let record = rec(i + 1, 1, i);
            let delay = if i < 90 { 1 } else { 1000 };
            builder = builder
                .at(i * 2000)
                .send_rec(record.clone(), None)
                .at(i * 2000 + delay)
                .receive_rec(default_queue_endpoint(), 50, record, None);
        }
        let trace = builder.build();
        let simple = fitted(&trace, ExpiryModel::SimpleMean, 2000);
        assert!(!simple.expect_delivered(TimeToLive::from_millis(5)));
        let histogram = fitted(&trace, ExpiryModel::Histogram, 2000);
        assert!(histogram.expect_delivered(TimeToLive::from_millis(5)));
    }

    #[test]
    fn normal_cdf_sanity() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-6);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
        assert!(normal_cdf(6.0) > 0.999_999);
    }

    #[test]
    fn subscription_only_covers_its_lifetime() {
        use jmst_api::id::ConsumerId;
        let sub = EndpointId::non_durable("t".into(), ConsumerId::from_raw(60));
        let make = |message: u64, sequence: u64, ttl: u64| {
            let mut record = rec(message, 1, sequence);
            record.destination = Destination::topic("t");
            record.time_to_live = TimeToLive::from_millis(ttl);
            record
        };
        // Published before the subscription existed: a TTL-0 message that
        // was (correctly) never delivered.
        let trace = TraceBuilder::new()
            .at(0)
            .send_rec(make(1, 0, 0), None)
            .at(100)
            .consumer_created(60, sub.clone(), None)
            // In-lifetime traffic: one live delivered, one 1 ms TTL
            // suppressed.
            .at(200)
            .send_rec(make(2, 1, 0), None)
            .at(210)
            .receive_rec(sub.clone(), 60, make(2, 1, 0), None)
            .at(300)
            .send_rec(make(3, 2, 1), None)
            .build();
        let (violations, breakdowns) = run(&trace, ExpiryModel::SimpleMean);
        assert!(violations.is_empty(), "{violations:?}");
        let breakdown = &breakdowns[0];
        // The pre-subscription message is not counted at all.
        assert_eq!(breakdown.expected_live, 1);
        assert_eq!(breakdown.live_delivered, 1);
        assert_eq!(breakdown.expected_expired, 1);
    }

    #[test]
    fn empty_endpoints_produce_no_breakdown() {
        let (violations, breakdowns) = run(&TraceBuilder::new().build(), ExpiryModel::SimpleMean);
        assert!(violations.is_empty());
        assert!(breakdowns.is_empty());
    }
}
