//! The inverse of [`config_text`](crate::config_text): renders a
//! [`TestSpec`] back into the INI-style scenario format, with a
//! parse → serialize → parse round-trip guarantee.
//!
//! The scenario corpus generator builds specs programmatically and needs
//! them on disk as `.cfg` files that `jmst-lint`, `jmst_chaos`, and CI
//! can all consume — so the serializer, not hand-formatting, is the one
//! place that knows the textual format. Every value is re-checked
//! against the parser's grammar as it is emitted (durations are
//! re-parsed, strings are screened for comment/line-structure
//! characters), and anything the format cannot express — a custom
//! [`RetryPolicy`], a `Byte`/`Short`/`Int`/`Float` property, an
//! auto-acknowledge consumer with a batch size — is a
//! [`SerializeError`], never a silent approximation.
//!
//! # Round-trip guarantee
//!
//! For every spec `s` where `serialize_spec(&s)` returns `Ok(text)`,
//! `parse_spec(&text)` returns a spec equal to `s`. The property test in
//! `tests/spec_roundtrip.rs` pins this over arbitrary generated specs.

use crate::config_text::parse_duration;
use crate::retry::RetryPolicy;
use crate::spec::{ConsumerSpec, FaultPlan, NodeSpec, ProducerSpec, Subscription, TestSpec};
use jmst_api::body::BodyKind;
use jmst_api::modes::{DeliveryMode, SessionMode};
use jmst_api::value::Value;
use jmst_sim::ArrivalProcess;
use std::fmt;
use std::fmt::Write as _;
use std::time::Duration;

/// An error produced while rendering a spec into scenario text: the spec
/// holds a value the textual format cannot express exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SerializeError {
    message: String,
}

impl SerializeError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }

    /// Description of the inexpressible value.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for SerializeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot serialize spec: {}", self.message)
    }
}

impl std::error::Error for SerializeError {}

type Result<T> = std::result::Result<T, SerializeError>;

/// Renders a duration in the coarsest unit that reproduces it exactly,
/// verifying by re-parsing — the round-trip guarantee is checked here,
/// not assumed.
fn fmt_duration(duration: Duration) -> Result<String> {
    let nanos = duration.as_nanos();
    let text = if duration.subsec_nanos() == 0 {
        format!("{}s", duration.as_secs())
    } else if nanos.is_multiple_of(1_000_000) {
        format!("{}ms", duration.as_millis())
    } else if nanos.is_multiple_of(1_000) {
        format!("{}us", duration.as_micros())
    } else {
        // Sub-microsecond precision: fractional microseconds.
        format!("{}us", nanos as f64 / 1e3)
    };
    match parse_duration(&text) {
        Ok(parsed) if parsed == duration => Ok(text),
        _ => Err(SerializeError::new(format!(
            "duration {duration:?} does not survive the text format"
        ))),
    }
}

/// Screens free text destined for a `key = value` position: the parser
/// strips `#` comments and trims whitespace, so text that would be
/// mangled is rejected rather than silently altered.
fn check_text(what: &str, text: &str) -> Result<()> {
    if text.contains(['#', '\n', '\r']) {
        return Err(SerializeError::new(format!(
            "{what} {text:?} contains a comment or line-break character"
        )));
    }
    if text != text.trim() {
        return Err(SerializeError::new(format!(
            "{what} {text:?} has leading or trailing whitespace the parser would strip"
        )));
    }
    Ok(())
}

fn fmt_rate(workload: &ArrivalProcess) -> Result<String> {
    match *workload {
        ArrivalProcess::Steady { rate_per_sec } => {
            check_rate(rate_per_sec)?;
            Ok(format!("steady {rate_per_sec}"))
        }
        ArrivalProcess::Poisson { rate_per_sec } => {
            check_rate(rate_per_sec)?;
            Ok(format!("poisson {rate_per_sec}"))
        }
        ArrivalProcess::Burst {
            burst_size,
            interval_millis,
        } => {
            if burst_size == 0 || interval_millis == 0 {
                return Err(SerializeError::new(
                    "burst workload with zero size or interval",
                ));
            }
            Ok(format!("burst {burst_size} every {interval_millis}ms"))
        }
    }
}

fn check_rate(rate: f64) -> Result<()> {
    if !rate.is_finite() || rate <= 0.0 {
        return Err(SerializeError::new(format!(
            "workload rate {rate} is not finite and positive"
        )));
    }
    Ok(())
}

/// Renders a property value in selector literal syntax. Only the
/// variants `parse_prop` can produce are expressible; the narrower
/// numeric variants would be widened on re-parse and are rejected.
fn fmt_prop_value(value: &Value) -> Result<String> {
    match value {
        Value::String(s) => {
            if s.contains(['#', '\n', '\r']) {
                return Err(SerializeError::new(format!(
                    "string property {s:?} contains a comment or line-break character"
                )));
            }
            Ok(format!("'{}'", s.replace('\'', "''")))
        }
        Value::Bool(b) => Ok(b.to_string()),
        Value::Long(v) => Ok(v.to_string()),
        Value::Double(v) => {
            if !v.is_finite() {
                return Err(SerializeError::new(format!(
                    "double property {v} is not finite"
                )));
            }
            // `{:?}` keeps the `.0` on integral doubles so the re-parse
            // yields a Double, not a Long.
            Ok(format!("{v:?}"))
        }
        other => Err(SerializeError::new(format!(
            "property value {other:?} has no scenario-text syntax \
             (only string/bool/long/double properties are expressible)"
        ))),
    }
}

/// Screens a destination's rendered `queue:NAME` / `topic:NAME` form.
fn fmt_destination(destination: &jmst_api::destination::Destination) -> Result<String> {
    let text = destination.to_string();
    check_text("destination", &text)?;
    if text.ends_with(':') {
        return Err(SerializeError::new(format!(
            "destination {text:?} has an empty name"
        )));
    }
    Ok(text)
}

fn write_producer(out: &mut String, p: &ProducerSpec) -> Result<()> {
    out.push_str("\n[producer]\n");
    let _ = writeln!(out, "destination = {}", fmt_destination(&p.destination)?);
    let _ = writeln!(out, "rate = {}", fmt_rate(&p.workload)?);
    let kind = match p.body {
        BodyKind::Text => "text",
        BodyKind::Bytes => "bytes",
        BodyKind::Map => "map",
        BodyKind::Stream => "stream",
        BodyKind::Object => "object",
    };
    let _ = writeln!(out, "body = {kind} {}", p.body_size);
    let _ = writeln!(out, "priority = {}", p.priority.level());
    let delivery = match p.delivery_mode {
        DeliveryMode::Persistent => "persistent",
        DeliveryMode::NonPersistent => "non-persistent",
    };
    let _ = writeln!(out, "delivery = {delivery}");
    if p.time_to_live.is_forever() {
        out.push_str("ttl = forever\n");
    } else {
        let _ = writeln!(out, "ttl = {}ms", p.time_to_live.as_millis());
    }
    if let Some(batch) = p.transacted_batch {
        let _ = writeln!(out, "transacted = {batch}");
    }
    if let Some(limit) = p.message_limit {
        let _ = writeln!(out, "limit = {limit}");
    }
    if p.send_batch != 1 {
        let _ = writeln!(out, "batch = {}", p.send_batch);
    }
    for (name, value) in &p.properties {
        check_text("property name", name)?;
        if name.is_empty() || name.contains(char::is_whitespace) {
            return Err(SerializeError::new(format!(
                "property name {name:?} must be non-empty and free of whitespace"
            )));
        }
        let _ = writeln!(out, "prop = {name} {}", fmt_prop_value(value)?);
    }
    Ok(())
}

fn write_consumer(out: &mut String, c: &ConsumerSpec) -> Result<()> {
    out.push_str("\n[consumer]\n");
    let _ = writeln!(out, "destination = {}", fmt_destination(&c.destination)?);
    if let Subscription::Durable { name } = &c.subscription {
        check_text("durable subscription name", name)?;
        let _ = writeln!(out, "durable = {name}");
    }
    if let Some(selector) = &c.selector {
        check_text("selector", selector)?;
        let _ = writeln!(out, "selector = {selector}");
    }
    let mode = match c.session_mode {
        SessionMode::AutoAcknowledge => "auto".to_owned(),
        SessionMode::DupsOkAcknowledge => "dups-ok".to_owned(),
        SessionMode::ClientAcknowledge => format!("client-ack {}", c.batch),
        SessionMode::Transacted => format!("transacted {}", c.batch),
    };
    if matches!(
        c.session_mode,
        SessionMode::AutoAcknowledge | SessionMode::DupsOkAcknowledge
    ) && c.batch != 1
    {
        return Err(SerializeError::new(format!(
            "{mode} consumers have no batch syntax, got batch {}",
            c.batch
        )));
    }
    let _ = writeln!(out, "mode = {mode}");
    if !c.think_time.is_zero() {
        let _ = writeln!(out, "think = {}", fmt_duration(c.think_time)?);
    }
    if let Some(reconnect) = &c.reconnect {
        let _ = writeln!(
            out,
            "reconnect = after {} pause {} cycles {}",
            reconnect.after_messages,
            fmt_duration(reconnect.pause)?,
            reconnect.max_cycles
        );
    }
    Ok(())
}

fn write_node(out: &mut String, node: &NodeSpec) -> Result<()> {
    check_text("node name", &node.name)?;
    if node.name.is_empty() || node.name.contains(['[', ']', '=']) {
        return Err(SerializeError::new(format!(
            "node name {:?} must be non-empty and free of section syntax",
            node.name
        )));
    }
    let _ = writeln!(out, "\n[node {}]", node.name);
    if node.share_connection {
        out.push_str("share = true\n");
    }
    if node.clock_skew_nanos != 0 {
        let magnitude = Duration::from_nanos(node.clock_skew_nanos.unsigned_abs());
        let sign = if node.clock_skew_nanos < 0 { "-" } else { "" };
        let _ = writeln!(out, "clock_skew = {sign}{}", fmt_duration(magnitude)?);
    }
    for producer in &node.producers {
        write_producer(out, producer)?;
    }
    for consumer in &node.consumers {
        write_consumer(out, consumer)?;
    }
    Ok(())
}

fn write_faults(out: &mut String, plan: &FaultPlan) -> Result<()> {
    out.push_str("\n[faults]\n");
    // Every field is written explicitly — including zero probabilities —
    // so non-default companion values (a reorder delay on a plan that
    // never reorders) still survive the round trip.
    let _ = writeln!(out, "seed = {}", plan.seed);
    let _ = writeln!(out, "drop = {}", plan.drop_probability);
    let _ = writeln!(out, "duplicate = {}", plan.duplicate_probability);
    let _ = writeln!(
        out,
        "reorder = {} {}",
        plan.reorder_probability,
        fmt_duration(plan.reorder_delay)?
    );
    let _ = writeln!(out, "forge = {}", plan.forge_probability);
    let _ = writeln!(
        out,
        "connect_failure = {}",
        plan.connect_failure_probability
    );
    let _ = writeln!(out, "send_error = {}", plan.send_error_probability);
    let _ = writeln!(
        out,
        "stall = {} {}",
        plan.stall_probability,
        fmt_duration(plan.stall_duration)?
    );
    let _ = writeln!(out, "ack_loss = {}", plan.ack_loss_probability);
    if let Some(bound) = plan.max_redeliveries {
        let _ = writeln!(out, "max_redeliveries = {bound}");
    }
    if plan.ignore_expiry {
        out.push_str("ignore_expiry = true\n");
    }
    if plan.ignore_priority {
        out.push_str("ignore_priority = true\n");
    }
    if plan.lose_persistent_on_crash {
        out.push_str("lose_persistent_on_crash = true\n");
    }
    if !plan.delivery_delay.is_zero() {
        let _ = writeln!(
            out,
            "delivery_delay = {}",
            fmt_duration(plan.delivery_delay)?
        );
    }
    Ok(())
}

/// Renders a [`TestSpec`] into scenario text that [`parse_spec`]
/// (crate::config_text::parse_spec) reads back as an equal spec.
///
/// # Errors
///
/// Returns a [`SerializeError`] when the spec fails
/// [`TestSpec::validate`] (the parser validates, so invalid specs cannot
/// round-trip) or holds a value the format cannot express: a custom
/// retry policy, a `Byte`/`Short`/`Int`/`Float`/`Bytes` property value,
/// an auto-acknowledge or dups-ok consumer with a batch size, text
/// containing `#` or line breaks, or a duration below the format's
/// resolution.
pub fn serialize_spec(spec: &TestSpec) -> Result<String> {
    spec.validate()
        .map_err(|reason| SerializeError::new(format!("spec fails validation: {reason}")))?;
    let mut out = String::new();
    out.push_str("[test]\n");
    check_text("test name", &spec.name)?;
    let _ = writeln!(out, "name = {}", spec.name);
    let _ = writeln!(out, "seed = {}", spec.seed);
    let _ = writeln!(out, "warm_up = {}", fmt_duration(spec.warm_up)?);
    let _ = writeln!(out, "run = {}", fmt_duration(spec.run)?);
    let _ = writeln!(out, "warm_down = {}", fmt_duration(spec.warm_down)?);
    let _ = writeln!(out, "drain_quiet = {}", fmt_duration(spec.drain_quiet)?);
    if spec.retry == RetryPolicy::disabled() {
        out.push_str("retry = off\n");
    } else if spec.retry != RetryPolicy::default() {
        return Err(SerializeError::new(
            "custom retry policies have no scenario-text syntax (only on/off)",
        ));
    }
    if spec.fail_fast {
        out.push_str("fail_fast = on\n");
    }
    if spec.open_loop {
        out.push_str("open_loop = on\n");
    }
    if let Some(rate) = spec.arrival_rate {
        let _ = writeln!(out, "arrival_rate = {rate}");
    }
    if let Some(clients) = spec.clients {
        let _ = writeln!(out, "clients = {clients}");
    }
    if let Some(shards) = spec.shards {
        let _ = writeln!(out, "shards = {shards}");
    }
    if let Some(bound) = spec.queue_bound {
        let _ = writeln!(out, "queue_bound = {bound}");
    }
    for node in &spec.nodes {
        write_node(&mut out, node)?;
    }
    if let Some(crash) = &spec.crash {
        out.push_str("\n[crash]\n");
        let _ = writeln!(out, "after = {}", fmt_duration(crash.crash_after)?);
        let _ = writeln!(out, "down = {}", fmt_duration(crash.down_for)?);
    }
    if let Some(plan) = &spec.faults {
        write_faults(&mut out, plan)?;
    }
    if !spec.transport.is_default() {
        out.push_str("\n[transport]\n");
        let mode = match spec.transport.mode {
            crate::spec::TransportMode::Thread => "thread",
            crate::spec::TransportMode::Process => "process",
        };
        let _ = writeln!(out, "mode = {mode}");
        if let Some(socket) = &spec.transport.socket {
            check_text("transport socket", socket)?;
            if socket.is_empty() {
                return Err(SerializeError::new("transport socket path is empty"));
            }
            let _ = writeln!(out, "socket = {socket}");
        }
        if spec.transport.respawn_limit != crate::spec::TransportSpec::default().respawn_limit {
            let _ = writeln!(out, "respawn_limit = {}", spec.transport.respawn_limit);
        }
        if let Some(journal) = &spec.transport.journal {
            check_text("transport journal", journal)?;
            if journal.is_empty() {
                return Err(SerializeError::new("transport journal path is empty"));
            }
            let _ = writeln!(out, "journal = {journal}");
        }
        if spec.transport.resume {
            out.push_str("resume = on\n");
        }
    }
    if !spec.properties.is_empty() {
        out.push_str("\n[properties]\n");
        for property in &spec.properties {
            let line = property.render();
            check_text("property declaration", &line)?;
            // Guards are free selector text; re-parse the rendered line so
            // a declaration the grammar cannot reproduce is an error, not
            // a silently different property.
            match jmst_props::PropertySpec::parse_line(&line) {
                Ok(reparsed) if reparsed == *property => {}
                _ => {
                    return Err(SerializeError::new(format!(
                        "property {:?} does not survive the text format",
                        property.name
                    )));
                }
            }
            let _ = writeln!(out, "{line}");
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config_text::parse_spec;
    use crate::spec::{CrashPlan, ReconnectSpec};
    use jmst_api::destination::Destination;
    use jmst_api::modes::{Priority, TimeToLive};

    fn full_spec() -> TestSpec {
        let mut faults = FaultPlan::none();
        faults.seed = 9;
        faults.drop_probability = 0.1;
        faults.reorder_probability = 0.05;
        faults.reorder_delay = Duration::from_millis(7);
        faults.max_redeliveries = Some(3);
        faults.ignore_expiry = true;
        faults.delivery_delay = Duration::from_millis(10);
        TestSpec::new("full")
            .with_seed(42)
            .with_periods(
                Duration::from_millis(100),
                Duration::from_secs(1),
                Duration::from_secs(3),
            )
            .with_fail_fast(true)
            .with_shards(4)
            .node(
                NodeSpec::new("producers")
                    .with_clock_skew(2_000_000)
                    .producer(
                        ProducerSpec::steady(Destination::topic("events"), 250.0, 512)
                            .with_priority(Priority::new(7).unwrap())
                            .with_delivery_mode(DeliveryMode::NonPersistent)
                            .with_ttl(TimeToLive::from_millis(5))
                            .with_body(BodyKind::Bytes)
                            .transacted(10)
                            .limited(1000)
                            .batched(4)
                            .with_property("region", Value::String("emea".into()))
                            .with_property("tier", Value::Long(3))
                            .with_property("urgent", Value::Bool(true))
                            .with_property("weight", Value::Double(2.5)),
                    ),
            )
            .node(
                NodeSpec::new("consumers")
                    .with_clock_skew(-1_000_000)
                    .consumer(
                        ConsumerSpec::auto(Destination::topic("events"))
                            .durable("audit")
                            .with_selector("JMSPriority >= 5")
                            .with_mode(SessionMode::ClientAcknowledge, 10)
                            .with_think_time(Duration::from_millis(2))
                            .with_reconnect(ReconnectSpec {
                                after_messages: 50,
                                pause: Duration::from_millis(100),
                                max_cycles: 2,
                            }),
                    ),
            )
            .with_crash(CrashPlan {
                crash_after: Duration::from_millis(300),
                down_for: Duration::from_millis(80),
            })
            .with_faults(faults)
            .property(
                jmst_props::PropertySpec::parse_line(
                    "late = deadline 100ms where JMSPriority >= 5",
                )
                .unwrap(),
            )
            .property(jmst_props::PropertySpec::parse_line("tail = latency p99 <= 250ms").unwrap())
    }

    #[test]
    fn full_spec_round_trips() {
        let spec = full_spec();
        let text = serialize_spec(&spec).unwrap();
        let reparsed = parse_spec(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
        assert_eq!(reparsed, spec);
        // And the round trip is a fixed point.
        assert_eq!(serialize_spec(&reparsed).unwrap(), text);
    }

    #[test]
    fn defaults_round_trip_without_noise() {
        let spec = TestSpec::new("mini").node(
            NodeSpec::new("n")
                .producer(ProducerSpec::steady(Destination::queue("q"), 10.0, 64))
                .consumer(ConsumerSpec::auto(Destination::queue("q"))),
        );
        let text = serialize_spec(&spec).unwrap();
        assert_eq!(parse_spec(&text).unwrap(), spec);
        // Optional keys stay out of the output entirely.
        for absent in [
            "retry",
            "fail_fast",
            "open_loop",
            "shards",
            "drivers",
            "queue_bound",
            "[faults]",
            "[properties]",
        ] {
            assert!(!text.contains(absent), "{absent} in:\n{text}");
        }
    }

    #[test]
    fn queue_bound_round_trips() {
        let spec = TestSpec::new("rx").with_queue_bound(128).node(
            NodeSpec::new("n")
                .producer(ProducerSpec::steady(Destination::queue("q"), 10.0, 64))
                .consumer(ConsumerSpec::auto(Destination::queue("q"))),
        );
        let text = serialize_spec(&spec).unwrap();
        assert!(text.contains("queue_bound = 128"), "{text}");
        assert_eq!(parse_spec(&text).unwrap(), spec);
    }

    #[test]
    fn open_loop_and_retry_off_round_trip() {
        let spec = TestSpec::new("ol")
            .with_retry(RetryPolicy::disabled())
            .open_loop()
            .with_arrival_rate(5000.0)
            .with_clients(100)
            .node(
                NodeSpec::new("n")
                    .producer(ProducerSpec::steady(Destination::queue("q"), 10.0, 64))
                    .consumer(ConsumerSpec::auto(Destination::queue("q"))),
            );
        let text = serialize_spec(&spec).unwrap();
        assert_eq!(parse_spec(&text).unwrap(), spec);
    }

    #[test]
    fn sub_millisecond_durations_round_trip() {
        let spec = TestSpec::new("fine").node(
            NodeSpec::new("n")
                .with_clock_skew(1_234_000)
                .producer(ProducerSpec::steady(Destination::queue("q"), 10.0, 64))
                .consumer(
                    ConsumerSpec::auto(Destination::queue("q"))
                        .with_think_time(Duration::from_micros(250)),
                ),
        );
        let text = serialize_spec(&spec).unwrap();
        assert_eq!(parse_spec(&text).unwrap(), spec);
    }

    #[test]
    fn transport_section_round_trips() {
        use crate::spec::TransportSpec;
        let base = || {
            TestSpec::new("xport").node(
                NodeSpec::new("n")
                    .producer(ProducerSpec::steady(Destination::queue("q"), 10.0, 64))
                    .consumer(ConsumerSpec::auto(Destination::queue("q"))),
            )
        };
        // Fully-specified process transport.
        let spec = base().with_transport(
            TransportSpec::process()
                .with_socket("/tmp/jmst-princed.sock")
                .with_respawn_limit(5)
                .with_journal("/tmp/campaign.jrnl")
                .with_resume(true),
        );
        let text = serialize_spec(&spec).unwrap();
        assert!(text.contains("[transport]"), "{text}");
        assert!(text.contains("mode = process"), "{text}");
        assert!(text.contains("respawn_limit = 5"), "{text}");
        assert!(text.contains("resume = on"), "{text}");
        assert_eq!(parse_spec(&text).unwrap(), spec);
        assert_eq!(serialize_spec(&parse_spec(&text).unwrap()).unwrap(), text);
        // Default transport emits no section at all.
        let text = serialize_spec(&base()).unwrap();
        assert!(!text.contains("[transport]"), "{text}");
        // Journal without process mode is still expressible (thread-mode
        // campaigns may journal too).
        let spec = base().with_transport(TransportSpec::thread().with_journal("j.jrnl"));
        let text = serialize_spec(&spec).unwrap();
        assert_eq!(parse_spec(&text).unwrap(), spec);
    }

    #[test]
    fn inexpressible_specs_are_rejected_not_mangled() {
        let base = || {
            TestSpec::new("x").node(
                NodeSpec::new("n")
                    .producer(ProducerSpec::steady(Destination::queue("q"), 10.0, 64))
                    .consumer(ConsumerSpec::auto(Destination::queue("q"))),
            )
        };
        // Custom retry policy.
        let custom = RetryPolicy {
            budget: 7,
            ..RetryPolicy::default()
        };
        let error = serialize_spec(&base().with_retry(custom)).unwrap_err();
        assert!(error.message().contains("retry"), "{error}");
        // Narrow numeric property.
        let mut spec = base();
        spec.nodes[0].producers[0]
            .properties
            .push(("n".into(), Value::Int(1)));
        assert!(serialize_spec(&spec).is_err());
        // Auto-ack consumer with a batch.
        let mut spec = base();
        spec.nodes[0].consumers[0].batch = 5;
        assert!(serialize_spec(&spec).is_err());
        // Comment character in free text.
        let mut spec = base();
        spec.name = "a # b".into();
        assert!(serialize_spec(&spec).is_err());
        // Invalid specs fail before any formatting.
        let error = serialize_spec(&TestSpec::new("empty")).unwrap_err();
        assert!(error.message().contains("validation"), "{error}");
    }
}
