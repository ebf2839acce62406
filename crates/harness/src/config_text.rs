//! A plain-text scenario-description format for test specifications.
//!
//! The paper emphasises that "the test harness can be employed to
//! determine the performance of the JMS provider under different
//! configurations without the need to write any code" (§3.2) — its
//! configuration lived in Access forms, and §5 envisages a web form. This
//! module is the equivalent declarative surface: an INI-style text format
//! parsed into a [`TestSpec`].
//!
//! # Format
//!
//! ```text
//! [test]
//! name = expiry-sweep
//! seed = 42
//! warm_up = 100ms
//! run = 1s
//! warm_down = 3s
//!
//! [node main]
//! clock_skew = -5ms          # optional
//! share = true               # one connection for the whole node
//!
//! [producer]                 # attaches to the most recent [node …]
//! destination = queue:orders
//! rate = steady 500          # steady R | poisson R | burst N every D
//! body = bytes 512           # text|bytes|map|stream|object SIZE
//! priority = 7
//! delivery = non-persistent  # persistent (default) | non-persistent
//! ttl = 5ms                  # forever (default) or a duration
//! transacted = 10            # commit every N sends
//! limit = 1000               # stop after N messages
//! batch = 8                  # drafts per provider send_batch call
//! prop = region 'emea'       # stamp a property on every message; the
//! prop = tier 3              # value uses selector literal syntax:
//! prop = urgent true         # 'string', integer, float, true/false
//!
//! [consumer]
//! destination = topic:events
//! durable = audit            # durable subscription name
//! selector = JMSPriority >= 5
//! mode = client-ack 10       # auto | client-ack N | dups-ok | transacted N
//! think = 2ms                # per-message processing time
//! reconnect = after 50 pause 100ms cycles 2
//!
//! [crash]
//! after = 300ms
//! down = 80ms
//!
//! [faults]                   # operational faults of the provider
//! seed = 7
//! connect_failure = 0.2      # probability a connect is refused
//! send_error = 0.05          # probability a send raises
//! stall = 0.01 5ms           # probability + duration of send stalls
//! ack_loss = 0.02            # probability an acknowledge is dropped
//! drop = 0.1                 # classic message-level faults
//! duplicate = 0.1
//! reorder = 0.1 5ms
//! forge = 0.01
//! max_redeliveries = 3       # park poison messages on the DLQ after
//!                            # this many redeliveries
//! ignore_expiry = true       # defect switches: deliver expired messages,
//! ignore_priority = true     # deliver strict-FIFO regardless of priority,
//! lose_persistent_on_crash = true   # drop persistent messages on crash
//! delivery_delay = 10ms      # simulated broker→consumer latency floor
//!
//! [properties]               # named QoS assertions (the property DSL;
//! late = deadline 100ms      # see the jmst-props crate for the grammar)
//! tail = latency p99 <= 250ms
//! floor = throughput >= 150.0
//! ```
//!
//! The `[test]` section also accepts `retry = on|off`: `off` disables
//! driver retries entirely (the first unabsorbed provider failure makes
//! the run inconclusive), which is useful to prove a scenario *needs*
//! the resilient drivers.
//!
//! `fail_fast = on` makes the daemon prince cancel the run at the first
//! violation the streaming analyzer can decide mid-stream (ordering,
//! duplicate-delivery, redelivery-bound breaches) and report the partial
//! verdict, instead of letting a known-broken run finish.
//!
//! `open_loop = on` drives producers through the open-loop load engine:
//! each producer becomes virtual clients whose sends are scheduled from
//! intended times, so provider back-pressure accrues as latency instead
//! of silently slowing the workload (coordinated omission). Two companion
//! keys tune it: `arrival_rate = 5000` overrides the aggregate rate in
//! messages per second (split across the virtual clients; steady/poisson
//! profiles only), and `clients = 100` sets how many virtual clients each
//! producer expands into. Both companion keys require `open_loop = on`.
//!
//! `shards = 8` pins the number of destination shards the provider under
//! test partitions its destinations across, making shard count a
//! first-class scenario axis instead of an ambient environment variable.
//!
//! `drivers = thread|threads|reactor` is a retired key. Every driver now
//! runs as a task on the harness's reactor, so all three values parse to
//! the same spec as no key at all; any other value is still an error.
//! Do not write it in new scenarios.
//!
//! A `[transport]` section controls where the drivers execute and
//! whether the campaign journals:
//!
//! ```text
//! [transport]
//! mode = process             # thread (in-process, default) | process
//!                            # (worker subprocess; kill -9 is a real fault)
//! socket = /tmp/p.sock       # worker control socket (default: private temp path)
//! respawn_limit = 2          # dead-worker respawns before giving up
//! journal = campaign.jrnl    # HMAC-chained campaign journal path
//! resume = on                # resume an interrupted campaign from the journal
//! ```

use crate::spec::{ConsumerSpec, CrashPlan, FaultPlan, NodeSpec, ProducerSpec, TestSpec};
use jmst_api::body::BodyKind;
use jmst_api::destination::Destination;
use jmst_api::modes::{DeliveryMode, Priority, SessionMode, TimeToLive};
use jmst_api::value::Value;
use jmst_sim::ArrivalProcess;
use std::fmt;
use std::time::Duration;

/// An error produced while parsing a scenario description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    line: usize,
    message: String,
}

impl ConfigError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        Self {
            line,
            message: message.into(),
        }
    }

    /// 1-based line number of the problem.
    pub fn line(&self) -> usize {
        self.line
    }

    /// Description of the problem.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Parses a duration like `250ms`, `1s`, `2m`, `500us`.
pub fn parse_duration(text: &str) -> Result<Duration, String> {
    let text = text.trim();
    let split = text
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .ok_or_else(|| format!("missing unit in duration {text:?}"))?;
    let (value, unit) = text.split_at(split);
    let value: f64 = value
        .parse()
        .map_err(|_| format!("malformed duration {text:?}"))?;
    let seconds = match unit.trim() {
        "us" | "µs" => value / 1e6,
        "ms" => value / 1e3,
        "s" => value,
        "m" | "min" => value * 60.0,
        other => return Err(format!("unknown duration unit {other:?}")),
    };
    Duration::try_from_secs_f64(seconds).map_err(|_| format!("duration {text:?} is out of range"))
}

fn parse_destination(text: &str) -> Result<Destination, String> {
    match text.trim().split_once(':') {
        Some(("queue", name)) if !name.is_empty() => Ok(Destination::queue(name)),
        Some(("topic", name)) if !name.is_empty() => Ok(Destination::topic(name)),
        _ => Err(format!(
            "destination must be `queue:NAME` or `topic:NAME`, got {text:?}"
        )),
    }
}

fn parse_rate(text: &str) -> Result<ArrivalProcess, String> {
    let words: Vec<&str> = text.split_whitespace().collect();
    match words.as_slice() {
        ["steady", rate] => {
            let rate: f64 = rate.parse().map_err(|_| format!("bad rate {rate:?}"))?;
            if rate <= 0.0 {
                return Err("rate must be positive".to_owned());
            }
            Ok(ArrivalProcess::steady(rate))
        }
        ["poisson", rate] => {
            let rate: f64 = rate.parse().map_err(|_| format!("bad rate {rate:?}"))?;
            if rate <= 0.0 {
                return Err("rate must be positive".to_owned());
            }
            Ok(ArrivalProcess::poisson(rate))
        }
        ["burst", size, "every", interval] => {
            let size: u32 = size
                .parse()
                .map_err(|_| format!("bad burst size {size:?}"))?;
            if size == 0 {
                return Err("burst size must be positive".to_owned());
            }
            let interval = parse_duration(interval)?;
            if interval.is_zero() {
                return Err("burst interval must be positive".to_owned());
            }
            Ok(ArrivalProcess::burst(size, interval))
        }
        _ => Err(format!(
            "rate must be `steady R`, `poisson R` or `burst N every D`, got {text:?}"
        )),
    }
}

fn parse_body(text: &str) -> Result<(BodyKind, usize), String> {
    let words: Vec<&str> = text.split_whitespace().collect();
    let [kind, size] = words.as_slice() else {
        return Err(format!("body must be `KIND SIZE`, got {text:?}"));
    };
    let kind = match *kind {
        "text" => BodyKind::Text,
        "bytes" => BodyKind::Bytes,
        "map" => BodyKind::Map,
        "stream" => BodyKind::Stream,
        "object" => BodyKind::Object,
        other => return Err(format!("unknown body kind {other:?}")),
    };
    let size: usize = size
        .parse()
        .map_err(|_| format!("bad body size {size:?}"))?;
    Ok((kind, size))
}

fn parse_mode(text: &str) -> Result<(SessionMode, u32), String> {
    let words: Vec<&str> = text.split_whitespace().collect();
    match words.as_slice() {
        ["auto"] => Ok((SessionMode::AutoAcknowledge, 1)),
        ["dups-ok"] => Ok((SessionMode::DupsOkAcknowledge, 1)),
        ["client-ack", n] => Ok((
            SessionMode::ClientAcknowledge,
            n.parse().map_err(|_| format!("bad batch {n:?}"))?,
        )),
        ["transacted", n] => Ok((
            SessionMode::Transacted,
            n.parse().map_err(|_| format!("bad batch {n:?}"))?,
        )),
        _ => Err(format!(
            "mode must be `auto`, `dups-ok`, `client-ack N` or `transacted N`, got {text:?}"
        )),
    }
}

/// Parses a `prop = NAME VALUE` producer property. The value uses
/// selector literal syntax so scenarios and selectors read alike:
/// `'quoted string'` (with `''` escaping a quote), `true`/`false`, an
/// integer (`Long`) or a float (`Double`).
fn parse_prop(text: &str) -> Result<(String, Value), String> {
    let (name, raw) = text
        .trim()
        .split_once(char::is_whitespace)
        .ok_or_else(|| format!("prop must be `NAME VALUE`, got {text:?}"))?;
    let raw = raw.trim();
    let value = if let Some(inner) = raw.strip_prefix('\'').and_then(|r| r.strip_suffix('\'')) {
        Value::String(inner.replace("''", "'"))
    } else if raw.eq_ignore_ascii_case("true") {
        Value::Bool(true)
    } else if raw.eq_ignore_ascii_case("false") {
        Value::Bool(false)
    } else if let Ok(long) = raw.parse::<i64>() {
        Value::Long(long)
    } else if let Ok(double) = raw.parse::<f64>() {
        Value::Double(double)
    } else {
        return Err(format!(
            "prop value must be 'string', true/false or a number, got {raw:?}"
        ));
    };
    Ok((name.to_owned(), value))
}

#[derive(Debug, PartialEq)]
enum Section {
    Test,
    Node(String),
    Producer,
    Consumer,
    Crash,
    Faults,
    Properties,
    Transport,
    None,
}

/// Parses a scenario description into a [`TestSpec`].
///
/// # Errors
///
/// Returns the first problem found, with its line number.
pub fn parse_spec(text: &str) -> Result<TestSpec, ConfigError> {
    let mut spec = TestSpec::new("unnamed");
    let mut nodes: Vec<NodeSpec> = Vec::new();
    let mut section = Section::None;
    // Pending producer/consumer being accumulated.
    let mut producer: Option<ProducerSpec> = None;
    let mut consumer: Option<ConsumerSpec> = None;
    let mut crash: Option<CrashPlan> = None;
    let mut faults: Option<FaultPlan> = None;

    fn flush(
        nodes: &mut [NodeSpec],
        producer: &mut Option<ProducerSpec>,
        consumer: &mut Option<ConsumerSpec>,
        line: usize,
    ) -> Result<(), ConfigError> {
        if producer.is_some() || consumer.is_some() {
            let node = nodes
                .last_mut()
                .ok_or_else(|| ConfigError::new(line, "[producer]/[consumer] before any [node]"))?;
            if let Some(p) = producer.take() {
                node.producers.push(p);
            }
            if let Some(c) = consumer.take() {
                node.consumers.push(c);
            }
        }
        Ok(())
    }

    for (index, raw) in text.lines().enumerate() {
        let line_no = index + 1;
        // Strip comments and whitespace.
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            flush(&mut nodes, &mut producer, &mut consumer, line_no)?;
            section = match header.trim() {
                "test" => Section::Test,
                "producer" => {
                    producer = Some(ProducerSpec::steady(Destination::queue("q"), 1.0, 128));
                    Section::Producer
                }
                "consumer" => {
                    consumer = Some(ConsumerSpec::auto(Destination::queue("q")));
                    Section::Consumer
                }
                "crash" => {
                    crash = Some(CrashPlan {
                        crash_after: Duration::from_millis(100),
                        down_for: Duration::from_millis(50),
                    });
                    Section::Crash
                }
                "faults" => {
                    faults = Some(FaultPlan::none());
                    Section::Faults
                }
                "properties" => Section::Properties,
                "transport" => Section::Transport,
                other => {
                    let name = other
                        .strip_prefix("node")
                        .map(str::trim)
                        .filter(|n| !n.is_empty())
                        .ok_or_else(|| {
                            ConfigError::new(line_no, format!("unknown section [{other}]"))
                        })?;
                    nodes.push(NodeSpec::new(name));
                    Section::Node(name.to_owned())
                }
            };
            continue;
        }
        let (key, value) = line.split_once('=').ok_or_else(|| {
            ConfigError::new(line_no, format!("expected `key = value`, got {line:?}"))
        })?;
        let key = key.trim();
        let value = value.trim();
        let err = |message: String| ConfigError::new(line_no, message);
        match (&mut section, key) {
            (Section::Test, "name") => spec.name = value.to_owned(),
            (Section::Test, "seed") => {
                spec.seed = value
                    .parse()
                    .map_err(|_| err(format!("bad seed {value:?}")))?
            }
            (Section::Test, "warm_up") => spec.warm_up = parse_duration(value).map_err(err)?,
            (Section::Test, "run") => spec.run = parse_duration(value).map_err(err)?,
            (Section::Test, "warm_down") => spec.warm_down = parse_duration(value).map_err(err)?,
            (Section::Test, "drain_quiet") => {
                spec.drain_quiet = parse_duration(value).map_err(err)?
            }
            (Section::Test, "retry") => {
                spec.retry = match value {
                    "on" | "true" | "yes" => crate::retry::RetryPolicy::default(),
                    "off" | "false" | "no" => crate::retry::RetryPolicy::disabled(),
                    other => return Err(err(format!("retry must be on/off, got {other:?}"))),
                };
            }
            (Section::Test, "fail_fast") => {
                spec.fail_fast = match value {
                    "on" | "true" | "yes" => true,
                    "off" | "false" | "no" => false,
                    other => return Err(err(format!("fail_fast must be on/off, got {other:?}"))),
                };
            }
            (Section::Test, "open_loop") => {
                spec.open_loop = match value {
                    "on" | "true" | "yes" => true,
                    "off" | "false" | "no" => false,
                    other => return Err(err(format!("open_loop must be on/off, got {other:?}"))),
                };
            }
            (Section::Test, "arrival_rate") => {
                let rate: f64 = value
                    .parse()
                    .map_err(|_| err(format!("bad arrival_rate {value:?}")))?;
                spec.arrival_rate = Some(rate);
            }
            (Section::Test, "clients") => {
                let clients: u32 = value
                    .parse()
                    .map_err(|_| err(format!("bad clients {value:?}")))?;
                spec.clients = Some(clients);
            }
            (Section::Test, "shards") => {
                let shards: u32 = value
                    .parse()
                    .map_err(|_| err(format!("bad shards {value:?}")))?;
                spec.shards = Some(shards);
            }
            // Retired: accepted as a no-op so older scenarios still parse.
            (Section::Test, "drivers") => {
                if !matches!(value, "thread" | "threads" | "reactor") {
                    return Err(err(format!(
                        "drivers must be thread or reactor, got {value:?}"
                    )));
                }
            }
            (Section::Test, "queue_bound") => {
                let bound: usize = value
                    .parse()
                    .map_err(|_| err(format!("bad queue_bound {value:?}")))?;
                spec.queue_bound = Some(bound);
            }
            (Section::Node(_), "share") => {
                nodes.last_mut().expect("inside a node").share_connection = match value {
                    "true" | "yes" => true,
                    "false" | "no" => false,
                    other => return Err(err(format!("share must be true/false, got {other:?}"))),
                };
            }
            (Section::Node(_), "clock_skew") => {
                let negative = value.starts_with('-');
                let magnitude = parse_duration(value.trim_start_matches('-')).map_err(err)?;
                let nanos = magnitude.as_nanos() as i64;
                nodes.last_mut().expect("inside a node").clock_skew_nanos =
                    if negative { -nanos } else { nanos };
            }
            (Section::Producer, key) => {
                let p = producer.as_mut().expect("inside [producer]");
                match key {
                    "destination" => p.destination = parse_destination(value).map_err(err)?,
                    "rate" => p.workload = parse_rate(value).map_err(err)?,
                    "body" => {
                        let (kind, size) = parse_body(value).map_err(err)?;
                        p.body = kind;
                        p.body_size = size;
                    }
                    "priority" => {
                        let level: u8 = value
                            .parse()
                            .map_err(|_| err(format!("bad priority {value:?}")))?;
                        p.priority = Priority::new(level)
                            .ok_or_else(|| err(format!("priority {level} outside 0..=9")))?;
                    }
                    "delivery" => {
                        p.delivery_mode = match value {
                            "persistent" => DeliveryMode::Persistent,
                            "non-persistent" => DeliveryMode::NonPersistent,
                            other => return Err(err(format!("unknown delivery mode {other:?}"))),
                        }
                    }
                    "ttl" => {
                        p.time_to_live = if value == "forever" {
                            TimeToLive::FOREVER
                        } else {
                            TimeToLive::from_duration(parse_duration(value).map_err(err)?)
                        }
                    }
                    "transacted" => {
                        p.transacted_batch = Some(
                            value
                                .parse()
                                .map_err(|_| err(format!("bad batch {value:?}")))?,
                        )
                    }
                    "limit" => {
                        p.message_limit = Some(
                            value
                                .parse()
                                .map_err(|_| err(format!("bad limit {value:?}")))?,
                        )
                    }
                    "batch" => {
                        p.send_batch = value
                            .parse::<u32>()
                            .map_err(|_| err(format!("bad batch {value:?}")))?
                            .max(1)
                    }
                    "prop" => {
                        let (name, prop_value) = parse_prop(value).map_err(err)?;
                        p.properties.push((name, prop_value));
                    }
                    other => return Err(err(format!("unknown producer key {other:?}"))),
                }
            }
            (Section::Consumer, key) => {
                let c = consumer.as_mut().expect("inside [consumer]");
                match key {
                    "destination" => c.destination = parse_destination(value).map_err(err)?,
                    "durable" => {
                        c.subscription = crate::spec::Subscription::Durable {
                            name: value.to_owned(),
                        }
                    }
                    "selector" => c.selector = Some(value.to_owned()),
                    "mode" => {
                        let (mode, batch) = parse_mode(value).map_err(err)?;
                        c.session_mode = mode;
                        c.batch = batch.max(1);
                    }
                    "think" => c.think_time = parse_duration(value).map_err(err)?,
                    "reconnect" => {
                        let words: Vec<&str> = value.split_whitespace().collect();
                        match words.as_slice() {
                            ["after", n, "pause", d, "cycles", k] => {
                                c.reconnect = Some(crate::spec::ReconnectSpec {
                                    after_messages: n
                                        .parse()
                                        .map_err(|_| err(format!("bad count {n:?}")))?,
                                    pause: parse_duration(d).map_err(err)?,
                                    max_cycles: k
                                        .parse()
                                        .map_err(|_| err(format!("bad cycles {k:?}")))?,
                                });
                            }
                            _ => {
                                return Err(err(format!(
                                    "reconnect must be `after N pause D cycles K`, got {value:?}"
                                )))
                            }
                        }
                    }
                    other => return Err(err(format!("unknown consumer key {other:?}"))),
                }
            }
            (Section::Crash, key) => {
                let plan = crash.as_mut().expect("inside [crash]");
                match key {
                    "after" => plan.crash_after = parse_duration(value).map_err(err)?,
                    "down" => plan.down_for = parse_duration(value).map_err(err)?,
                    other => return Err(err(format!("unknown crash key {other:?}"))),
                }
            }
            (Section::Faults, key) => {
                let plan = faults.as_mut().expect("inside [faults]");
                let probability = |value: &str| -> Result<f64, ConfigError> {
                    value
                        .parse()
                        .map_err(|_| err(format!("bad probability {value:?}")))
                };
                // `P DELAY` pairs for the timing faults.
                let timed = |value: &str| -> Result<(f64, Duration), ConfigError> {
                    let (p, d) = value
                        .split_once(char::is_whitespace)
                        .ok_or_else(|| err(format!("expected `P DURATION`, got {value:?}")))?;
                    Ok((probability(p.trim())?, parse_duration(d).map_err(err)?))
                };
                match key {
                    "seed" => {
                        plan.seed = value
                            .parse()
                            .map_err(|_| err(format!("bad seed {value:?}")))?
                    }
                    "drop" => plan.drop_probability = probability(value)?,
                    "duplicate" => plan.duplicate_probability = probability(value)?,
                    "reorder" => {
                        (plan.reorder_probability, plan.reorder_delay) = timed(value)?;
                    }
                    "forge" => plan.forge_probability = probability(value)?,
                    "connect_failure" => plan.connect_failure_probability = probability(value)?,
                    "send_error" => plan.send_error_probability = probability(value)?,
                    "stall" => {
                        (plan.stall_probability, plan.stall_duration) = timed(value)?;
                    }
                    "ack_loss" => plan.ack_loss_probability = probability(value)?,
                    "max_redeliveries" => {
                        plan.max_redeliveries = Some(
                            value
                                .parse()
                                .map_err(|_| err(format!("bad bound {value:?}")))?,
                        )
                    }
                    "ignore_expiry" | "ignore_priority" | "lose_persistent_on_crash" => {
                        let flag = match value {
                            "true" | "yes" | "on" => true,
                            "false" | "no" | "off" => false,
                            other => {
                                return Err(err(format!("{key} must be true/false, got {other:?}")))
                            }
                        };
                        match key {
                            "ignore_expiry" => plan.ignore_expiry = flag,
                            "ignore_priority" => plan.ignore_priority = flag,
                            _ => plan.lose_persistent_on_crash = flag,
                        }
                    }
                    "delivery_delay" => plan.delivery_delay = parse_duration(value).map_err(err)?,
                    other => return Err(err(format!("unknown faults key {other:?}"))),
                }
            }
            (Section::Transport, "mode") => {
                spec.transport.mode = match value {
                    "thread" => crate::spec::TransportMode::Thread,
                    "process" => crate::spec::TransportMode::Process,
                    other => {
                        return Err(err(format!("mode must be thread/process, got {other:?}")))
                    }
                };
            }
            (Section::Transport, "socket") => {
                spec.transport.socket = Some(value.to_owned());
            }
            (Section::Transport, "respawn_limit") => {
                spec.transport.respawn_limit = value
                    .parse()
                    .map_err(|_| err(format!("bad respawn_limit {value:?}")))?;
            }
            (Section::Transport, "journal") => {
                spec.transport.journal = Some(value.to_owned());
            }
            (Section::Transport, "resume") => {
                spec.transport.resume = match value {
                    "on" | "true" | "yes" => true,
                    "off" | "false" | "no" => false,
                    other => return Err(err(format!("resume must be on/off, got {other:?}"))),
                };
            }
            (Section::Transport, other) => {
                return Err(err(format!("unknown transport key {other:?}")));
            }
            (Section::Properties, name) => {
                let property = jmst_props::PropertySpec::parse_line(&format!("{name} = {value}"))
                    .map_err(err)?;
                if spec.properties.iter().any(|p| p.name == property.name) {
                    return Err(err(format!("duplicate property name {:?}", property.name)));
                }
                spec.properties.push(property);
            }
            (Section::None, _) => {
                return Err(err("key before any section".to_owned()));
            }
            (Section::Test, other) => {
                return Err(err(format!("unknown test key {other:?}")));
            }
            (Section::Node(_), other) => {
                return Err(err(format!("unknown node key {other:?}")));
            }
        }
    }
    let last_line = text.lines().count();
    flush(&mut nodes, &mut producer, &mut consumer, last_line)?;
    spec.nodes = nodes;
    spec.crash = crash;
    spec.faults = faults;
    spec.validate()
        .map_err(|reason| ConfigError::new(last_line, reason))?;
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Subscription;

    const FULL: &str = r#"
# A full scenario exercising every key.
[test]
name = full-demo
seed = 42
warm_up = 100ms
run = 1s
warm_down = 3s
drain_quiet = 200ms

[node producers]
clock_skew = 2ms

[producer]
destination = topic:events
rate = poisson 250
body = bytes 512
priority = 7
delivery = non-persistent
ttl = 5ms
transacted = 10
limit = 1000
batch = 4
prop = region 'emea'
prop = tier 3
prop = urgent true
prop = weight 2.5

[producer]
destination = topic:events
rate = burst 10 every 50ms
body = map 256

[node consumers]
clock_skew = -1ms

[consumer]
destination = topic:events
durable = audit
selector = JMSPriority >= 5
mode = client-ack 10
think = 2ms

[crash]
after = 300ms
down = 80ms
"#;

    #[test]
    fn full_config_round_trips_every_field() {
        let spec = parse_spec(FULL).unwrap();
        assert_eq!(spec.name, "full-demo");
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.warm_up, Duration::from_millis(100));
        assert_eq!(spec.run, Duration::from_secs(1));
        assert_eq!(spec.warm_down, Duration::from_secs(3));
        assert_eq!(spec.drain_quiet, Duration::from_millis(200));
        assert_eq!(spec.nodes.len(), 2);

        let producers = &spec.nodes[0];
        assert_eq!(producers.name, "producers");
        assert_eq!(producers.clock_skew_nanos, 2_000_000);
        assert_eq!(producers.producers.len(), 2);
        let p = &producers.producers[0];
        assert_eq!(p.destination, Destination::topic("events"));
        assert_eq!(p.workload, ArrivalProcess::poisson(250.0));
        assert_eq!(p.body, BodyKind::Bytes);
        assert_eq!(p.body_size, 512);
        assert_eq!(p.priority.level(), 7);
        assert_eq!(p.delivery_mode, DeliveryMode::NonPersistent);
        assert_eq!(p.time_to_live.as_millis(), 5);
        assert_eq!(p.transacted_batch, Some(10));
        assert_eq!(p.message_limit, Some(1000));
        assert_eq!(p.send_batch, 4);
        assert_eq!(
            p.properties,
            vec![
                ("region".to_owned(), Value::String("emea".to_owned())),
                ("tier".to_owned(), Value::Long(3)),
                ("urgent".to_owned(), Value::Bool(true)),
                ("weight".to_owned(), Value::Double(2.5)),
            ]
        );
        assert_eq!(
            producers.producers[1].workload,
            ArrivalProcess::burst(10, Duration::from_millis(50))
        );

        let consumers = &spec.nodes[1];
        assert_eq!(consumers.clock_skew_nanos, -1_000_000);
        let c = &consumers.consumers[0];
        assert_eq!(
            c.subscription,
            Subscription::Durable {
                name: "audit".into()
            }
        );
        assert_eq!(c.selector.as_deref(), Some("JMSPriority >= 5"));
        assert_eq!(c.session_mode, SessionMode::ClientAcknowledge);
        assert_eq!(c.batch, 10);
        assert_eq!(c.think_time, Duration::from_millis(2));

        let crash = spec.crash.unwrap();
        assert_eq!(crash.crash_after, Duration::from_millis(300));
        assert_eq!(crash.down_for, Duration::from_millis(80));
    }

    #[test]
    fn share_and_reconnect_keys_parse() {
        let text = "[test]\nname = s\n[node n]\nshare = true\n[consumer]\ndestination = queue:q\n";
        let spec = parse_spec(text).unwrap();
        assert!(spec.nodes[0].share_connection);

        let text = "[test]\nname = r\n[node n]\n[consumer]\ndestination = queue:q\n\
                    reconnect = after 50 pause 100ms cycles 2\n";
        let spec = parse_spec(text).unwrap();
        let reconnect = spec.nodes[0].consumers[0].reconnect.unwrap();
        assert_eq!(reconnect.after_messages, 50);
        assert_eq!(reconnect.pause, Duration::from_millis(100));
        assert_eq!(reconnect.max_cycles, 2);

        assert!(parse_spec("[test]\nname = x\n[node n]\nshare = maybe\n").is_err());
        assert!(parse_spec(
            "[test]\nname = x\n[node n]\n[consumer]\ndestination = queue:q\nreconnect = soon\n"
        )
        .is_err());
        // Shared node + reconnect cycling is rejected by validation.
        let text = "[test]\nname = x\n[node n]\nshare = true\n[consumer]\ndestination = queue:q\n\
                    reconnect = after 5 pause 10ms cycles 1\n";
        assert!(parse_spec(text).is_err());
    }

    #[test]
    fn faults_section_and_retry_key_parse() {
        let text = "[test]\nname = f\nretry = off\n[node n]\n\
                    [producer]\ndestination = queue:q\nrate = steady 10\n\
                    [consumer]\ndestination = queue:q\nmode = client-ack 1\n\
                    [faults]\nseed = 7\nconnect_failure = 0.2\nsend_error = 0.05\n\
                    stall = 0.01 5ms\nack_loss = 0.02\ndrop = 0.1\nduplicate = 0.1\n\
                    reorder = 0.1 5ms\nforge = 0.01\nmax_redeliveries = 3\n";
        let spec = parse_spec(text).unwrap();
        assert!(spec.retry.is_disabled());
        let plan = spec.faults.unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.connect_failure_probability, 0.2);
        assert_eq!(plan.send_error_probability, 0.05);
        assert_eq!(plan.stall_probability, 0.01);
        assert_eq!(plan.stall_duration, Duration::from_millis(5));
        assert_eq!(plan.ack_loss_probability, 0.02);
        assert_eq!(plan.drop_probability, 0.1);
        assert_eq!(plan.duplicate_probability, 0.1);
        assert_eq!(plan.reorder_probability, 0.1);
        assert_eq!(plan.reorder_delay, Duration::from_millis(5));
        assert_eq!(plan.forge_probability, 0.01);
        assert_eq!(plan.max_redeliveries, Some(3));
        // The plan lowers into a validated broker fault spec.
        assert!(plan.to_fault_spec().is_ok());
    }

    #[test]
    fn defect_switches_and_shards_parse() {
        let text = "[test]\nname = d\nshards = 4\n[node n]\n\
                    [producer]\ndestination = queue:q\nrate = steady 10\nttl = 1ms\n\
                    [consumer]\ndestination = queue:q\n\
                    [faults]\nignore_expiry = true\nignore_priority = on\n\
                    lose_persistent_on_crash = yes\ndelivery_delay = 10ms\n";
        let spec = parse_spec(text).unwrap();
        assert_eq!(spec.shards, Some(4));
        let plan = spec.faults.unwrap();
        assert!(plan.ignore_expiry);
        assert!(plan.ignore_priority);
        assert!(plan.lose_persistent_on_crash);
        assert_eq!(plan.delivery_delay, Duration::from_millis(10));
        assert!(plan.is_active());
        // The switches lower into the reference broker configuration.
        assert!(spec.broker_config().is_ok());

        assert!(parse_spec("[test]\nshards = many\n").is_err());
        assert!(parse_spec(
            "[test]\nname = d\nshards = 0\n[node n]\n[consumer]\ndestination = queue:q\n"
        )
        .is_err());
        assert!(parse_spec(
            "[test]\nname = d\n[node n]\n[consumer]\ndestination = queue:q\n\
             [faults]\nignore_expiry = maybe\n"
        )
        .is_err());
    }

    #[test]
    fn fail_fast_key_parses() {
        let text = "[test]\nname = f\nfail_fast = on\n[node n]\n\
                    [producer]\ndestination = queue:q\nrate = steady 10\n\
                    [consumer]\ndestination = queue:q\n";
        let spec = parse_spec(text).unwrap();
        assert!(spec.fail_fast);
        let spec = parse_spec(&text.replace("fail_fast = on", "fail_fast = off")).unwrap();
        assert!(!spec.fail_fast);
        assert!(parse_spec("[test]\nfail_fast = maybe\n").is_err());
    }

    #[test]
    fn out_of_range_fault_probability_is_rejected() {
        let text = "[test]\nname = f\n[node n]\n\
                    [producer]\ndestination = queue:q\nrate = steady 10\n\
                    [consumer]\ndestination = queue:q\n\
                    [faults]\nconnect_failure = 1.5\n";
        let error = parse_spec(text).unwrap_err();
        assert!(error.message().contains("fault plan"), "{error}");
        assert!(parse_spec("[test]\nretry = maybe\n").is_err());
        assert!(parse_spec(
            "[test]\nname = f\n[node n]\n[consumer]\ndestination = queue:q\n\
             [faults]\nstall = 0.5\n"
        )
        .is_err());
    }

    #[test]
    fn open_loop_keys_parse() {
        let text = "[test]\nname = ol\nopen_loop = on\narrival_rate = 5000\nclients = 100\n\
                    [node n]\n[producer]\ndestination = queue:q\nrate = steady 10\n\
                    [consumer]\ndestination = queue:q\n";
        let spec = parse_spec(text).unwrap();
        assert!(spec.open_loop);
        assert_eq!(spec.arrival_rate, Some(5000.0));
        assert_eq!(spec.clients, Some(100));
        let spec = parse_spec(
            &text
                .replace("open_loop = on", "open_loop = off")
                .replace("arrival_rate = 5000\n", "")
                .replace("clients = 100\n", ""),
        )
        .unwrap();
        assert!(!spec.open_loop);
        assert!(parse_spec("[test]\nopen_loop = maybe\n").is_err());
        assert!(parse_spec("[test]\narrival_rate = fast\n").is_err());
        assert!(parse_spec("[test]\nclients = many\n").is_err());
        // Companion keys without open_loop parse fine (the closed-loop
        // drivers ignore them); the lint warns with a stable rule id.
        let spec = parse_spec(&text.replace("open_loop = on\n", "")).unwrap();
        assert!(!spec.open_loop);
        assert!(crate::lint::lint_spec(&spec)
            .warnings()
            .any(|f| f.rule == "open-loop-keys-ignored"));
    }

    #[test]
    fn retired_drivers_key_parses_to_the_same_spec_as_no_key() {
        let text = "[test]\nname = rx\n\
                    [node n]\n[producer]\ndestination = queue:q\nrate = steady 10\n\
                    [consumer]\ndestination = queue:q\n";
        let plain = parse_spec(text).unwrap();
        for value in ["thread", "threads", "reactor"] {
            let keyed = text.replace("name = rx\n", &format!("name = rx\ndrivers = {value}\n"));
            assert_eq!(parse_spec(&keyed).unwrap(), plain, "drivers = {value}");
        }
        assert!(parse_spec("[test]\ndrivers = fibers\n").is_err());
    }

    #[test]
    fn queue_bound_parses() {
        let text = "[test]\nname = rx\nqueue_bound = 64\n\
                    [node n]\n[producer]\ndestination = queue:q\nrate = steady 10\n\
                    [consumer]\ndestination = queue:q\n";
        let spec = parse_spec(text).unwrap();
        assert_eq!(spec.queue_bound, Some(64));
        assert!(parse_spec("[test]\nqueue_bound = lots\n").is_err());
        // queue_bound = 0 parses (lint rejects it with queue-bound-zero).
        let spec = parse_spec(&text.replace("queue_bound = 64", "queue_bound = 0")).unwrap();
        assert_eq!(spec.queue_bound, Some(0));
        assert!(crate::lint::lint_spec(&spec)
            .errors()
            .any(|f| f.rule == "queue-bound-zero"));
    }

    #[test]
    fn properties_section_parses() {
        let text = "[test]\nname = qos\n[node n]\n\
                    [producer]\ndestination = queue:q\nrate = steady 10\n\
                    [consumer]\ndestination = queue:q\n\
                    [properties]\n\
                    late = deadline 100ms where JMSPriority >= 5\n\
                    tail = latency p99 <= 250ms\n\
                    in_order = ordered\n";
        let spec = parse_spec(text).unwrap();
        assert_eq!(spec.properties.len(), 3);
        assert_eq!(spec.properties[0].name, "late");
        assert_eq!(spec.properties[1].render(), "tail = latency p99 <= 250ms");
        // Duplicate names and malformed declarations are parse errors.
        let error = parse_spec(&format!("{text}late = ordered\n")).unwrap_err();
        assert!(error.message().contains("duplicate property"), "{error}");
        let error = parse_spec(&format!("{text}bad = deadline soon\n")).unwrap_err();
        assert!(error.message().contains("unit suffix"), "{error}");
    }

    #[test]
    fn minimal_config_parses() {
        let spec = parse_spec(
            "[test]\nname = mini\n[node n]\n[producer]\ndestination = queue:q\nrate = steady 10\n[consumer]\ndestination = queue:q\n",
        )
        .unwrap();
        assert_eq!(spec.name, "mini");
        assert_eq!(spec.producer_count(), 1);
        assert_eq!(spec.consumer_count(), 1);
    }

    #[test]
    fn prop_values_parse_like_selector_literals() {
        assert_eq!(
            parse_prop("region 'it''s emea'").unwrap(),
            ("region".to_owned(), Value::String("it's emea".to_owned()))
        );
        assert_eq!(
            parse_prop("tier -2").unwrap(),
            ("tier".to_owned(), Value::Long(-2))
        );
        assert_eq!(
            parse_prop("flag FALSE").unwrap(),
            ("flag".to_owned(), Value::Bool(false))
        );
        assert!(parse_prop("lonely").is_err());
        assert!(parse_prop("name 'unterminated").is_err());
    }

    #[test]
    fn ill_typed_selector_is_rejected_at_parse_time() {
        let bad = "[test]\nname = x\n[node n]\n[consumer]\ndestination = topic:t\n\
                   selector = JMSPriority = 'high'\n";
        let error = parse_spec(bad).unwrap_err();
        assert!(error.message().contains("ill-typed"), "{error}");
    }

    #[test]
    fn durations_parse_in_all_units() {
        assert_eq!(parse_duration("250ms").unwrap(), Duration::from_millis(250));
        assert_eq!(parse_duration("2s").unwrap(), Duration::from_secs(2));
        assert_eq!(parse_duration("1.5s").unwrap(), Duration::from_millis(1500));
        assert_eq!(parse_duration("3m").unwrap(), Duration::from_secs(180));
        assert_eq!(parse_duration("500us").unwrap(), Duration::from_micros(500));
        assert!(parse_duration("10").is_err());
        assert!(parse_duration("10h").is_err());
        assert!(parse_duration("fast").is_err());
        assert!(parse_duration("99999999999999999999999s").is_err());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "[test]\nname = x\n[node n]\n[producer]\ndestination = nowhere\n";
        let error = parse_spec(bad).unwrap_err();
        assert_eq!(error.line(), 5);
        assert!(error.message().contains("destination"));
    }

    #[test]
    fn producer_before_node_is_rejected() {
        let bad = "[test]\nname = x\n[producer]\ndestination = queue:q\n";
        let error = parse_spec(bad).unwrap_err();
        assert!(error.message().contains("before any [node]"));
    }

    #[test]
    fn unknown_keys_and_sections_are_rejected() {
        assert!(parse_spec("[test]\ncolour = blue\n").is_err());
        assert!(parse_spec("[widget]\n").is_err());
        let error =
            parse_spec("[test]\nname = x\n[node n]\n[producer]\nshape = round\n").unwrap_err();
        assert!(error.message().contains("unknown producer key"));
    }

    #[test]
    fn invalid_final_spec_is_rejected_by_validation() {
        // A durable subscription on a queue parses key-by-key but fails
        // whole-spec validation.
        let bad = "[test]\nname = x\n[node n]\n[consumer]\ndestination = queue:q\ndurable = s\n";
        let error = parse_spec(bad).unwrap_err();
        assert!(error.message().contains("durable subscription on queue"));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let spec = parse_spec(
            "# header\n\n[test]  \nname = c   # trailing comment\n[node n]\n[consumer]\ndestination = queue:q\n",
        )
        .unwrap();
        assert_eq!(spec.name, "c");
    }

    #[test]
    fn transport_section_parses_every_key() {
        use crate::spec::TransportMode;
        let text = "[test]\nname = t\n[node n]\n[consumer]\ndestination = queue:q\n\
                    [transport]\nmode = process\nsocket = /tmp/p.sock\nrespawn_limit = 7\n\
                    journal = camp.jrnl\nresume = on\n";
        let spec = parse_spec(text).unwrap();
        assert_eq!(spec.transport.mode, TransportMode::Process);
        assert_eq!(spec.transport.socket.as_deref(), Some("/tmp/p.sock"));
        assert_eq!(spec.transport.respawn_limit, 7);
        assert_eq!(spec.transport.journal.as_deref(), Some("camp.jrnl"));
        assert!(spec.transport.resume);
        // Defaults when the section is absent.
        let spec =
            parse_spec("[test]\nname = t\n[node n]\n[consumer]\ndestination = queue:q\n").unwrap();
        assert!(spec.transport.is_default());
        assert_eq!(spec.transport.mode, TransportMode::Thread);
        assert_eq!(spec.transport.respawn_limit, 2);
        // Bad values are line-numbered errors.
        let error = parse_spec("[test]\nname = t\n[transport]\nmode = rocket\n").unwrap_err();
        assert!(error.message().contains("thread/process"), "{error}");
        let error = parse_spec("[test]\nname = t\n[transport]\nwarp = 9\n").unwrap_err();
        assert!(error.message().contains("unknown transport key"), "{error}");
    }

    #[test]
    fn parsed_spec_actually_runs() {
        let text = "[test]\nname = run-me\nwarm_up = 20ms\nrun = 150ms\nwarm_down = 1s\n\
                    [node n]\n[producer]\ndestination = queue:q\nrate = steady 200\nbody = text 64\n\
                    [consumer]\ndestination = queue:q\n";
        let spec = parse_spec(text).unwrap();
        let broker = jmst_broker::ReferenceBroker::new();
        let trace = crate::runner::ThreadedRunner::new()
            .run(std::sync::Arc::new(broker), None, &spec)
            .unwrap();
        let report = jmst_core::Analyzer::new().analyze(&trace);
        assert!(report.passed(), "{report}");
    }
}
