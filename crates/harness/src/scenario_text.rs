//! The plain-text scenario format: [`parse_spec`] reads it into a
//! [`TestSpec`] and [`serialize_spec`] writes a spec back out.
//!
//! The paper emphasises that "the test harness can be employed to
//! determine the performance of the JMS provider under different
//! configurations without the need to write any code" (§3.2) — its
//! configuration lived in Access forms, and §5 envisages a web form. This
//! module is the equivalent declarative surface: an INI-style text format.
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
//! drain_quiet = 150ms        # quiet time that ends the drain
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
//! ttl = 5ms                  # forever (default) or whole milliseconds
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
//! [transport]                # where the drivers execute, and journaling
//! mode = process             # thread (in-process, default) | process
//!                            # (worker subprocess; kill -9 is a real fault)
//! socket = /tmp/p.sock       # worker control socket (default: private temp path)
//! respawn_limit = 2          # dead-worker respawns before giving up
//! journal = campaign.jrnl    # HMAC-chained campaign journal path
//! resume = on                # resume an interrupted campaign from the journal
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
//! producer expands into. The companion keys parse without `open_loop`,
//! but the closed-loop drivers ignore them and the lint warns
//! (`open-loop-keys-ignored`).
//!
//! `shards = 8` pins the number of destination shards the provider under
//! test partitions its destinations across, making shard count a
//! first-class scenario axis instead of an ambient environment variable.
//! `queue_bound = 64` bounds each destination's pending backlog.
//!
//! `drivers = thread|threads|reactor` is a retired key. Every driver now
//! runs as a task on the harness's reactor, so all three values parse to
//! the same spec as no key at all; any other value is still an error.
//! Do not write it in new scenarios.
//!
//! # Values
//!
//! - Every on/off key (`retry`, `fail_fast`, `open_loop`, `share`,
//!   `resume` and the `[faults]` defect switches) accepts `on`/`true`/`yes`
//!   and `off`/`false`/`no`.
//! - Every duration accepts a number (decimals allowed) and a unit: `ns`,
//!   `us`/`µs`, `ms`, `s` or `m`/`min`. `clock_skew` may carry one leading
//!   `-` and must fit in ±292 years of nanoseconds.
//! - `ttl` and the `burst` interval take whole milliseconds.
//! - `rate` values must be finite and positive; `prop` numbers finite.
//! - `transacted = 0` and `batch = 0` read as 1, like the builders.
//! - Node names, `socket` and `journal` must be non-empty; node names may
//!   not hold `[`, `]` or `=`.
//!
//! The `[test]`, `[crash]`, `[faults]`, `[transport]` and `[properties]`
//! sections may each appear at most once. A missing `[transport]` is the
//! in-process default; `[properties]` lines go to
//! [`jmst_props::PropertySpec`].
//!
//! # One table, two directions
//!
//! Each key is one row of a per-section table: its name, the spec field
//! it sets, its value codec and when it is printed. Each value type has
//! one codec holding both directions, and every printed value is parsed
//! back and compared in one place (`emit`). The parser accepts a value
//! only when its codec prints it back, so:
//!
//! - for every spec `s` where `serialize_spec(&s)` returns `Ok(text)`,
//!   `parse_spec(&text)` returns a spec equal to `s`;
//! - for every text `t` that `parse_spec` accepts, `serialize_spec`
//!   succeeds and its output parses back to the same spec.
//!
//! `tests/spec_roundtrip.rs` pins both directions with property tests.
//! Anything the format cannot express — a custom [`RetryPolicy`], a
//! `Byte`/`Short`/`Int`/`Float` property, an auto-acknowledge consumer
//! with a batch size — is a [`SerializeError`], never a silent
//! approximation.

use crate::retry::RetryPolicy;
use crate::spec::{
    ConsumerSpec, CrashPlan, FaultPlan, NodeSpec, ProducerSpec, ReconnectSpec, Subscription,
    TestSpec, TransportMode, TransportSpec,
};
use jmst_api::body::BodyKind;
use jmst_api::destination::Destination;
use jmst_api::modes::{DeliveryMode, Priority, SessionMode, TimeToLive};
use jmst_api::value::Value;
use jmst_props::{parse_duration, PropertySpec};
use jmst_sim::ArrivalProcess;
use std::fmt;
use std::fmt::Write as _;
use std::str::FromStr;
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

// ---------------------------------------------------------------------
// Codecs: one per value type, both directions.
// ---------------------------------------------------------------------

/// Both directions of one value type. Parse errors continue the key's
/// name (`share` + ` must be on/off, got "maybe"`). Printing goes
/// through [`emit`], which checks the text reads back.
struct Codec<T> {
    parse: fn(&str) -> Result<T, String>,
    print: fn(&T) -> Result<String, String>,
}

/// Prints `value` and checks the round trip: the text must survive the
/// line syntax (the parser strips `#` comments and edge whitespace) and
/// parse back to an equal value.
fn emit<T: PartialEq + fmt::Debug>(codec: &Codec<T>, value: &T) -> Result<String, String> {
    let text = (codec.print)(value)?;
    if text.contains(['#', '\n', '\r']) || text != text.trim() {
        return Err(format!(
            "{text:?} holds a comment, a line break or edge whitespace"
        ));
    }
    match (codec.parse)(&text) {
        Ok(back) if back == *value => Ok(text),
        _ => Err(format!("value {value:?} does not survive the text format")),
    }
}

/// Parses `text` and keeps the value only if it prints back, so the
/// parser never accepts what [`serialize_spec`] would refuse.
fn accept<T: PartialEq + fmt::Debug>(codec: &Codec<T>, text: &str) -> Result<T, String> {
    let value = (codec.parse)(text)?;
    emit(codec, &value)?;
    Ok(value)
}

/// Free text: the test name, a durable subscription name, a selector.
const TEXT: Codec<String> = Codec {
    parse: |text| Ok(text.to_owned()),
    print: |text| Ok(text.clone()),
};

/// A file path (`socket`, `journal`): free text that is not empty.
const PATH: Codec<String> = Codec {
    parse: |text| match text {
        "" => Err("must not be empty".to_owned()),
        path => Ok(path.to_owned()),
    },
    print: |text| Ok(text.clone()),
};

/// A `[node NAME]` header's name: non-empty, no section syntax.
const NODE_NAME: Codec<String> = Codec {
    parse: |text| {
        if text.is_empty() || text.contains(['[', ']', '=']) {
            return Err(format!(
                "must be non-empty and free of `[`, `]` and `=`, got {text:?}"
            ));
        }
        Ok(text.to_owned())
    },
    print: |text| Ok(text.clone()),
};

fn int<T: FromStr>(text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("must be a whole number in range, got {text:?}"))
}

fn show<T: ToString>(value: &T) -> Result<String, String> {
    Ok(value.to_string())
}

/// A whole number of the field's width.
const fn whole<T: FromStr + ToString>() -> Codec<T> {
    Codec {
        parse: int,
        print: show,
    }
}

const U32: Codec<u32> = whole();
const U64: Codec<u64> = whole();
const USIZE: Codec<usize> = whole();

/// A batch size: `0` reads as 1, like the builders, so a spec holding 0
/// has no text form (the error names the batch, e.g. "send batch 0").
fn batch(text: &str) -> Result<u32, String> {
    Ok(int::<u32>(text)?.max(1))
}

fn print_batch(label: &str, value: u32) -> Result<String, String> {
    match value {
        0 => Err(format!("{label} batch 0 has no text form (it parses as 1)")),
        n => Ok(n.to_string()),
    }
}

const SEND_BATCH: Codec<u32> = Codec {
    parse: batch,
    print: |n| print_batch("send", *n),
};
const TRANSACTED_BATCH: Codec<u32> = Codec {
    parse: batch,
    print: |n| print_batch("transacted", *n),
};

/// A decimal number: a fault probability or the open-loop rate. Range
/// checks belong to [`TestSpec::validate`].
const FLOAT: Codec<f64> = Codec {
    parse: |text| {
        text.parse()
            .map_err(|_| format!("must be a number, got {text:?}"))
    },
    print: show,
};

/// A duration, printed in the coarsest unit that reproduces it exactly.
const DURATION: Codec<Duration> = Codec {
    parse: |text| parse_duration(text).map_err(|e| format!("is not a duration: {e}")),
    print: |duration| Ok(fmt_duration(*duration)),
};

fn fmt_duration(duration: Duration) -> String {
    let nanos = duration.as_nanos();
    if duration.subsec_nanos() == 0 {
        format!("{}s", duration.as_secs())
    } else if nanos.is_multiple_of(1_000_000) {
        format!("{}ms", duration.as_millis())
    } else if nanos.is_multiple_of(1_000) {
        format!("{}us", duration.as_micros())
    } else {
        // Sub-microsecond precision: fractional microseconds, or whole
        // nanoseconds where the fraction would round.
        let micros = format!("{}us", nanos as f64 / 1e3);
        if parse_duration(&micros) == Ok(duration) {
            micros
        } else {
            format!("{nanos}ns")
        }
    }
}

/// A signed duration in nanoseconds (`clock_skew`): one optional `-`.
const SIGNED_DURATION: Codec<i64> = Codec {
    parse: |text| {
        let (sign, magnitude) = match text.strip_prefix('-') {
            Some(magnitude) => (-1, magnitude),
            None => (1, text),
        };
        let nanos = i128::try_from((DURATION.parse)(magnitude)?.as_nanos())
            .expect("every Duration's nanoseconds fit in i128");
        i64::try_from(sign * nanos).map_err(|_| format!("must fit in ±292 years, got {text:?}"))
    },
    print: |nanos| {
        let sign = if *nanos < 0 { "-" } else { "" };
        let magnitude = Duration::from_nanos(nanos.unsigned_abs());
        Ok(format!("{sign}{}", fmt_duration(magnitude)))
    },
};

/// Parses an on/off switch: `on`, `true` or `yes`; `off`, `false` or
/// `no`. Every boolean key of the format goes through here.
fn switch(text: &str) -> Result<bool, String> {
    match text {
        "on" | "true" | "yes" => Ok(true),
        "off" | "false" | "no" => Ok(false),
        other => Err(format!("must be on/off, got {other:?}")),
    }
}

/// Switches printed as `on`/`off` and as `true`/`false`.
const ON_OFF: Codec<bool> = Codec {
    parse: switch,
    print: |on| Ok(if *on { "on" } else { "off" }.to_owned()),
};
const TRUE_FALSE: Codec<bool> = Codec {
    parse: switch,
    print: show,
};

/// `retry = on|off`: the default policy or none at all.
const RETRY: Codec<RetryPolicy> = Codec {
    parse: |text| match switch(text)? {
        true => Ok(RetryPolicy::default()),
        false => Ok(RetryPolicy::disabled()),
    },
    print: |policy| match *policy {
        p if p == RetryPolicy::disabled() => Ok("off".to_owned()),
        p if p == RetryPolicy::default() => Ok("on".to_owned()),
        _ => Err("custom retry policies have no scenario-text syntax (only on/off)".to_owned()),
    },
};

/// Reads one word of a small enum's word table.
fn choose<T: Copy>(words: &[(&str, T)], text: &str) -> Result<T, String> {
    match words.iter().find(|(word, _)| *word == text) {
        Some((_, value)) => Ok(*value),
        None => {
            let all: Vec<&str> = words.iter().map(|(word, _)| *word).collect();
            Err(format!("must be {}, got {text:?}", all.join("/")))
        }
    }
}

/// Writes a small enum's word.
fn word<T: PartialEq + fmt::Debug>(words: &[(&str, T)], value: &T) -> Result<String, String> {
    match words.iter().find(|(_, v)| v == value) {
        Some((word, _)) => Ok((*word).to_owned()),
        None => Err(format!("{value:?} has no word")),
    }
}

/// A codec over a small enum's words: `words!["a" => A, "b" => B]`.
macro_rules! words {
    ($($word:literal => $value:expr),+) => {
        Codec {
            parse: |text| choose(&[$(($word, $value)),+], text),
            print: |value| word(&[$(($word, $value)),+], value),
        }
    };
}

const DELIVERY: Codec<DeliveryMode> = words![
    "persistent" => DeliveryMode::Persistent,
    "non-persistent" => DeliveryMode::NonPersistent
];
const TRANSPORT_MODE: Codec<TransportMode> =
    words!["thread" => TransportMode::Thread, "process" => TransportMode::Process];
const BODY_KIND: Codec<BodyKind> = words![
    "text" => BodyKind::Text,
    "bytes" => BodyKind::Bytes,
    "map" => BodyKind::Map,
    "stream" => BodyKind::Stream,
    "object" => BodyKind::Object
];
/// The retired `drivers` key: every value it had reads as nothing.
const DRIVERS: Codec<()> = words!["thread" => (), "threads" => (), "reactor" => ()];

/// A destination: `queue:NAME` or `topic:NAME`.
const DESTINATION: Codec<Destination> = Codec {
    parse: |text| match text.split_once(':') {
        Some(("queue", name)) if !name.is_empty() => Ok(Destination::queue(name)),
        Some(("topic", name)) if !name.is_empty() => Ok(Destination::topic(name)),
        _ => Err(format!(
            "must be `queue:NAME` or `topic:NAME`, got {text:?}"
        )),
    },
    print: show,
};

/// A send profile: `steady R`, `poisson R` or `burst N every D`.
const RATE: Codec<ArrivalProcess> = Codec {
    parse: parse_rate,
    print: |workload| {
        Ok(match *workload {
            ArrivalProcess::Steady { rate_per_sec } => format!("steady {rate_per_sec}"),
            ArrivalProcess::Poisson { rate_per_sec } => format!("poisson {rate_per_sec}"),
            ArrivalProcess::Burst {
                burst_size,
                interval_millis,
            } => format!("burst {burst_size} every {interval_millis}ms"),
        })
    },
};

fn parse_rate(text: &str) -> Result<ArrivalProcess, String> {
    let per_sec = |rate: &str| match rate.parse::<f64>() {
        Ok(rate) if rate.is_finite() && rate > 0.0 => Ok(rate),
        _ => Err(format!("must be finite and positive, got {rate:?}")),
    };
    let words: Vec<&str> = text.split_whitespace().collect();
    match words.as_slice() {
        ["steady", rate] => Ok(ArrivalProcess::steady(per_sec(rate)?)),
        ["poisson", rate] => Ok(ArrivalProcess::poisson(per_sec(rate)?)),
        ["burst", size, "every", interval] => {
            let size: u32 = int(size)?;
            let interval = (DURATION.parse)(interval)?;
            if size == 0 || interval.is_zero() || interval.subsec_nanos() % 1_000_000 != 0 {
                return Err(format!(
                    "burst needs a positive size and a whole, non-zero number \
                     of milliseconds, got {text:?}"
                ));
            }
            Ok(ArrivalProcess::burst(size, interval))
        }
        _ => Err(format!(
            "must be `steady R`, `poisson R` or `burst N every D`, got {text:?}"
        )),
    }
}

/// A message body: `KIND SIZE`.
const BODY: Codec<(BodyKind, usize)> = Codec {
    parse: |text| match text.split_whitespace().collect::<Vec<_>>().as_slice() {
        [kind, size] => Ok(((BODY_KIND.parse)(kind)?, int(size)?)),
        _ => Err(format!("must be `KIND SIZE`, got {text:?}")),
    },
    print: |(kind, size)| Ok(format!("{} {size}", (BODY_KIND.print)(kind)?)),
};

/// A priority level in `0..=9`.
const PRIORITY: Codec<Priority> = Codec {
    parse: |text| {
        text.parse()
            .ok()
            .and_then(Priority::new)
            .ok_or_else(|| format!("must be a level in 0..=9, got {text:?}"))
    },
    print: |priority| Ok(priority.level().to_string()),
};

/// A time-to-live: `forever` or whole milliseconds.
const TTL: Codec<TimeToLive> = Codec {
    parse: |text| {
        if text == "forever" {
            return Ok(TimeToLive::FOREVER);
        }
        let ttl = (DURATION.parse)(text)?;
        match u64::try_from(ttl.as_millis()) {
            Ok(millis) if ttl.subsec_nanos() % 1_000_000 == 0 => {
                Ok(TimeToLive::from_millis(millis))
            }
            _ => Err(format!(
                "must be `forever` or whole milliseconds, got {text:?}"
            )),
        }
    },
    print: |ttl| match ttl.as_millis() {
        0 => Ok("forever".to_owned()),
        millis => Ok(format!("{millis}ms")),
    },
};

/// A consumer's session mode and its batch.
const MODE: Codec<(SessionMode, u32)> = Codec {
    parse: |text| match text.split_whitespace().collect::<Vec<_>>().as_slice() {
        ["auto"] => Ok((SessionMode::AutoAcknowledge, 1)),
        ["dups-ok"] => Ok((SessionMode::DupsOkAcknowledge, 1)),
        ["client-ack", n] => Ok((SessionMode::ClientAcknowledge, batch(n)?)),
        ["transacted", n] => Ok((SessionMode::Transacted, batch(n)?)),
        _ => Err(format!(
            "must be `auto`, `dups-ok`, `client-ack N` or `transacted N`, got {text:?}"
        )),
    },
    print: |(mode, batch)| match mode {
        SessionMode::AutoAcknowledge | SessionMode::DupsOkAcknowledge if *batch != 1 => Err(
            format!("{mode:?} consumers have no batch syntax, got batch {batch}"),
        ),
        SessionMode::AutoAcknowledge => Ok("auto".to_owned()),
        SessionMode::DupsOkAcknowledge => Ok("dups-ok".to_owned()),
        SessionMode::ClientAcknowledge => Ok(format!("client-ack {batch}")),
        SessionMode::Transacted => Ok(format!("transacted {batch}")),
    },
};

/// A timing fault: `P DURATION`.
const TIMED: Codec<(f64, Duration)> = Codec {
    parse: |text| {
        let (p, d) = text
            .split_once(char::is_whitespace)
            .ok_or_else(|| format!("expected `P DURATION`, got {text:?}"))?;
        Ok(((FLOAT.parse)(p.trim())?, (DURATION.parse)(d)?))
    },
    print: |(p, d)| Ok(format!("{p} {}", fmt_duration(*d))),
};

/// `reconnect = after N pause D cycles K`.
const RECONNECT: Codec<ReconnectSpec> = Codec {
    parse: |text| match text.split_whitespace().collect::<Vec<_>>().as_slice() {
        ["after", n, "pause", d, "cycles", k] => Ok(ReconnectSpec {
            after_messages: int(n)?,
            pause: (DURATION.parse)(d)?,
            max_cycles: int(k)?,
        }),
        _ => Err(format!("must be `after N pause D cycles K`, got {text:?}")),
    },
    print: |r| {
        let pause = fmt_duration(r.pause);
        Ok(format!(
            "after {} pause {pause} cycles {}",
            r.after_messages, r.max_cycles
        ))
    },
};

/// `durable = NAME`: a durable subscription (a plain one has no line).
const DURABLE: Codec<Subscription> = Codec {
    parse: |name| {
        Ok(Subscription::Durable {
            name: name.to_owned(),
        })
    },
    print: |subscription| match subscription {
        Subscription::Durable { name } => Ok(name.clone()),
        Subscription::Plain => Err("a plain subscription has no name".to_owned()),
    },
};

/// `prop = NAME VALUE`: a producer property. The value uses selector
/// literal syntax so scenarios and selectors read alike: `'quoted
/// string'` (with `''` escaping a quote), `true`/`false`, an integer
/// (`Long`) or a finite float (`Double`). The narrower numeric variants
/// would widen on re-parse and have no text form.
const PROP: Codec<(String, Value)> = Codec {
    parse: parse_prop,
    print: |(name, value)| {
        if name.is_empty() || name.contains(char::is_whitespace) {
            return Err(format!(
                "name {name:?} must be non-empty and free of whitespace"
            ));
        }
        let value = match value {
            Value::String(s) => format!("'{}'", s.replace('\'', "''")),
            Value::Bool(b) => b.to_string(),
            Value::Long(v) => v.to_string(),
            // `{:?}` keeps the `.0` on integral doubles so the re-parse
            // yields a Double, not a Long.
            Value::Double(v) => format!("{v:?}"),
            other => {
                return Err(format!(
                    "value {other:?} has no scenario-text syntax \
                     (only string/bool/long/double properties are expressible)"
                ))
            }
        };
        Ok(format!("{name} {value}"))
    },
};

fn parse_prop(text: &str) -> Result<(String, Value), String> {
    let (name, raw) = text
        .trim()
        .split_once(char::is_whitespace)
        .ok_or_else(|| format!("must be `NAME VALUE`, got {text:?}"))?;
    let raw = raw.trim();
    let value = if let Some(inner) = raw.strip_prefix('\'').and_then(|r| r.strip_suffix('\'')) {
        Value::String(inner.replace("''", "'"))
    } else if raw.eq_ignore_ascii_case("true") {
        Value::Bool(true)
    } else if raw.eq_ignore_ascii_case("false") {
        Value::Bool(false)
    } else if let Ok(long) = raw.parse::<i64>() {
        Value::Long(long)
    } else {
        match raw.parse::<f64>() {
            Ok(double) if double.is_finite() => Value::Double(double),
            Ok(_) => return Err(format!("value must be finite, got {raw:?}")),
            Err(_) => {
                return Err(format!(
                    "value must be 'string', true/false or a number, got {raw:?}"
                ))
            }
        }
    };
    Ok((name.to_owned(), value))
}

/// A whole `[properties]` line, delegated to the property DSL.
const PROPERTY: Codec<PropertySpec> = Codec {
    parse: PropertySpec::parse_line,
    print: |property| Ok(property.render()),
};

// ---------------------------------------------------------------------
// The key table.
// ---------------------------------------------------------------------

/// One key of a section: its name, how its value line sets the section,
/// and the lines it prints for a section (given the section's default,
/// for keys printed only when they differ from it).
struct Key<S> {
    name: &'static str,
    parse: fn(&mut S, &str) -> Result<(), String>,
    print: fn(&S, &S, &mut String) -> Result<(), String>,
}

/// Declares one key: `key! { NAME, CODEC, RULE, |section| FIELD }`. The
/// print rules are `always`, `unless_default`, `if_some` (an `Option`
/// field), `each` (a `Vec` field, one line per item) and `retired`
/// (parsed for old files, never printed, no field).
macro_rules! key {
    ($name:literal, $codec:expr, retired) => {
        Key {
            name: $name,
            parse: |_, text| accept(&$codec, text),
            print: |_, _, _| Ok(()),
        }
    };
    ($name:literal, $codec:expr, $rule:ident, |$s:ident| $field:expr) => {
        Key {
            name: $name,
            parse: |$s, text| {
                let value = accept(&$codec, text)?;
                key!(@store $rule, $field, value);
                Ok(())
            },
            print: |$s, _default, out| {
                for value in key!(@shown $rule, &$field, { let $s = _default; &$field }) {
                    let _ = writeln!(out, "{} = {}", $name, emit(&$codec, value)?);
                }
                Ok(())
            },
        }
    };
    (@store if_some, $field:expr, $value:ident) => { $field = Some($value) };
    (@store each, $field:expr, $value:ident) => { $field.push($value) };
    (@store always, $field:expr, $value:ident) => { $field = $value };
    (@store unless_default, $field:expr, $value:ident) => { $field = $value };
    (@shown always, $value:expr, $default:expr) => { std::iter::once($value) };
    (@shown unless_default, $value:expr, $default:expr) => {
        Some($value).filter(|v| *v != $default).into_iter()
    };
    (@shown if_some, $value:expr, $default:expr) => { $value.iter() };
    (@shown each, $value:expr, $default:expr) => { $value.iter() };
}

const TEST_KEYS: &[Key<TestSpec>] = &[
    key! { "name", TEXT, always, |s| s.name },
    key! { "seed", U64, always, |s| s.seed },
    key! { "warm_up", DURATION, always, |s| s.warm_up },
    key! { "run", DURATION, always, |s| s.run },
    key! { "warm_down", DURATION, always, |s| s.warm_down },
    key! { "drain_quiet", DURATION, always, |s| s.drain_quiet },
    key! { "retry", RETRY, unless_default, |s| s.retry },
    key! { "fail_fast", ON_OFF, unless_default, |s| s.fail_fast },
    key! { "open_loop", ON_OFF, unless_default, |s| s.open_loop },
    key! { "arrival_rate", FLOAT, if_some, |s| s.arrival_rate },
    key! { "clients", U32, if_some, |s| s.clients },
    key! { "shards", U32, if_some, |s| s.shards },
    key! { "queue_bound", USIZE, if_some, |s| s.queue_bound },
    key! { "drivers", DRIVERS, retired },
];

const NODE_KEYS: &[Key<NodeSpec>] = &[
    key! { "share", TRUE_FALSE, unless_default, |n| n.share_connection },
    key! { "clock_skew", SIGNED_DURATION, unless_default, |n| n.clock_skew_nanos },
];

const PRODUCER_KEYS: &[Key<ProducerSpec>] = &[
    key! { "destination", DESTINATION, always, |p| p.destination },
    key! { "rate", RATE, always, |p| p.workload },
    key! { "body", BODY, always, |p| (p.body, p.body_size) },
    key! { "priority", PRIORITY, always, |p| p.priority },
    key! { "delivery", DELIVERY, always, |p| p.delivery_mode },
    key! { "ttl", TTL, always, |p| p.time_to_live },
    key! { "transacted", TRANSACTED_BATCH, if_some, |p| p.transacted_batch },
    key! { "limit", U64, if_some, |p| p.message_limit },
    key! { "batch", SEND_BATCH, unless_default, |p| p.send_batch },
    key! { "prop", PROP, each, |p| p.properties },
];

const CONSUMER_KEYS: &[Key<ConsumerSpec>] = &[
    key! { "destination", DESTINATION, always, |c| c.destination },
    key! { "durable", DURABLE, unless_default, |c| c.subscription },
    key! { "selector", TEXT, if_some, |c| c.selector },
    key! { "mode", MODE, always, |c| (c.session_mode, c.batch) },
    key! { "think", DURATION, unless_default, |c| c.think_time },
    key! { "reconnect", RECONNECT, if_some, |c| c.reconnect },
];

const CRASH_KEYS: &[Key<CrashPlan>] = &[
    key! { "after", DURATION, always, |c| c.crash_after },
    key! { "down", DURATION, always, |c| c.down_for },
];

// Every fault probability is written, even at zero, so a non-default
// companion value (a reorder delay on a plan that never reorders) still
// survives the round trip.
const FAULT_KEYS: &[Key<FaultPlan>] = &[
    key! { "seed", U64, always, |f| f.seed },
    key! { "drop", FLOAT, always, |f| f.drop_probability },
    key! { "duplicate", FLOAT, always, |f| f.duplicate_probability },
    key! { "reorder", TIMED, always, |f| (f.reorder_probability, f.reorder_delay) },
    key! { "forge", FLOAT, always, |f| f.forge_probability },
    key! { "connect_failure", FLOAT, always, |f| f.connect_failure_probability },
    key! { "send_error", FLOAT, always, |f| f.send_error_probability },
    key! { "stall", TIMED, always, |f| (f.stall_probability, f.stall_duration) },
    key! { "ack_loss", FLOAT, always, |f| f.ack_loss_probability },
    key! { "max_redeliveries", U32, if_some, |f| f.max_redeliveries },
    key! { "ignore_expiry", TRUE_FALSE, unless_default, |f| f.ignore_expiry },
    key! { "ignore_priority", TRUE_FALSE, unless_default, |f| f.ignore_priority },
    key! { "lose_persistent_on_crash", TRUE_FALSE, unless_default, |f| f.lose_persistent_on_crash },
    key! { "delivery_delay", DURATION, unless_default, |f| f.delivery_delay },
];

const TRANSPORT_KEYS: &[Key<TransportSpec>] = &[
    key! { "mode", TRANSPORT_MODE, always, |t| t.mode },
    key! { "socket", PATH, if_some, |t| t.socket },
    key! { "respawn_limit", U32, unless_default, |t| t.respawn_limit },
    key! { "journal", PATH, if_some, |t| t.journal },
    key! { "resume", ON_OFF, unless_default, |t| t.resume },
];

/// Applies `key = value` through a section's table; `None` when the
/// section has no such key.
fn set<S>(keys: &[Key<S>], section: &mut S, key: &str, value: &str) -> Option<Result<(), String>> {
    let row = keys.iter().find(|row| row.name == key)?;
    Some((row.parse)(section, value).map_err(|message| format!("{key} {message}")))
}

/// Writes a `[header]` and every line its key table prints for `section`.
fn print_section<S>(
    out: &mut String,
    header: &str,
    keys: &[Key<S>],
    section: &S,
    default: &S,
) -> Result<(), SerializeError> {
    print_header(out, header);
    for key in keys {
        (key.print)(section, default, out)
            .map_err(|message| SerializeError::new(format!("{}: {message}", key.name)))?;
    }
    Ok(())
}

fn print_header(out: &mut String, header: &str) {
    if !out.is_empty() {
        out.push('\n');
    }
    let _ = writeln!(out, "[{header}]");
}

// ---------------------------------------------------------------------
// The section table.
// ---------------------------------------------------------------------

/// A section of the format: its header, and where its keys land in the
/// spec being read.
struct Section {
    name: &'static str,
    /// May appear at most once per file.
    once: bool,
    /// Attaches to the most recent `[node …]`.
    needs_node: bool,
    /// The header carries a name (`[node NAME]`), read by [`NODE_NAME`].
    named: bool,
    /// Opens the section on the spec, given the header's name.
    open: fn(&mut TestSpec, String),
    /// Applies one `key = value` line to the section opened last;
    /// `None` for a key the section does not have.
    set: fn(&mut TestSpec, &str, &str) -> Option<Result<(), String>>,
}

fn last_node(spec: &mut TestSpec) -> &mut NodeSpec {
    spec.nodes.last_mut().expect("a [node] is open")
}

/// The section defaults: what a header opens, and what `unless_default`
/// keys are compared against when printing.
fn new_producer() -> ProducerSpec {
    ProducerSpec::steady(Destination::queue("q"), 1.0, 128)
}

fn new_consumer() -> ConsumerSpec {
    ConsumerSpec::auto(Destination::queue("q"))
}

const NEW_CRASH: CrashPlan = CrashPlan {
    crash_after: Duration::from_millis(100),
    down_for: Duration::from_millis(50),
};

/// Bases for the rows below: a section that appears at most once, and
/// one that repeats.
const SINGLETON: Section = Section {
    name: "",
    once: true,
    needs_node: false,
    named: false,
    open: |_, _| {},
    set: |_, _, _| None,
};
const REPEATED: Section = Section {
    once: false,
    ..SINGLETON
};

const TEST: Section = Section {
    name: "test",
    set: |spec, k, v| set(TEST_KEYS, spec, k, v),
    ..SINGLETON
};
const NODE: Section = Section {
    name: "node",
    named: true,
    open: |spec, name| spec.nodes.push(NodeSpec::new(name)),
    set: |spec, k, v| set(NODE_KEYS, last_node(spec), k, v),
    ..REPEATED
};
const PRODUCER: Section = Section {
    name: "producer",
    needs_node: true,
    open: |spec, _| last_node(spec).producers.push(new_producer()),
    set: |spec, k, v| set(PRODUCER_KEYS, last_node(spec).producers.last_mut()?, k, v),
    ..REPEATED
};
const CONSUMER: Section = Section {
    name: "consumer",
    needs_node: true,
    open: |spec, _| last_node(spec).consumers.push(new_consumer()),
    set: |spec, k, v| set(CONSUMER_KEYS, last_node(spec).consumers.last_mut()?, k, v),
    ..REPEATED
};
const CRASH: Section = Section {
    name: "crash",
    open: |spec, _| spec.crash = Some(NEW_CRASH),
    set: |spec, k, v| set(CRASH_KEYS, spec.crash.as_mut()?, k, v),
    ..SINGLETON
};
const FAULTS: Section = Section {
    name: "faults",
    open: |spec, _| spec.faults = Some(FaultPlan::none()),
    set: |spec, k, v| set(FAULT_KEYS, spec.faults.as_mut()?, k, v),
    ..SINGLETON
};
const TRANSPORT: Section = Section {
    name: "transport",
    set: |spec, k, v| set(TRANSPORT_KEYS, &mut spec.transport, k, v),
    ..SINGLETON
};
/// `[properties]` keys are property names, each line one declaration.
const PROPERTIES: Section = Section {
    name: "properties",
    set: |spec, name, declaration| Some(add_property(spec, &format!("{name} = {declaration}"))),
    ..SINGLETON
};

fn add_property(spec: &mut TestSpec, line: &str) -> Result<(), String> {
    let property = accept(&PROPERTY, line)?;
    if spec.properties.iter().any(|p| p.name == property.name) {
        return Err(format!("duplicate property name {:?}", property.name));
    }
    spec.properties.push(property);
    Ok(())
}

const SECTIONS: [&Section; 8] = [
    &TEST,
    &NODE,
    &PRODUCER,
    &CONSUMER,
    &CRASH,
    &FAULTS,
    &TRANSPORT,
    &PROPERTIES,
];

/// Parses a scenario description into a [`TestSpec`].
///
/// # Errors
///
/// Returns the first problem found, with its line number.
pub fn parse_spec(text: &str) -> Result<TestSpec, ConfigError> {
    let mut spec = TestSpec::new("unnamed");
    let mut section: Option<&Section> = None;
    // Singleton section headers seen so far, with their line numbers.
    let mut seen: Vec<(&str, usize)> = Vec::new();
    for (index, raw) in text.lines().enumerate() {
        let line_no = index + 1;
        let err = |message: String| ConfigError::new(line_no, message);
        // Strip comments and whitespace.
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            let header = header.trim();
            let (word, name) = header
                .split_once(char::is_whitespace)
                .map_or((header, ""), |(word, name)| (word, name.trim()));
            let opened = SECTIONS
                .into_iter()
                .find(|s| s.name == word && s.named != name.is_empty())
                .ok_or_else(|| err(format!("unknown section [{header}]")))?;
            // Singleton sections configure one thing each; a second
            // header would silently reset what the first one set.
            if opened.once {
                if let Some((_, first)) = seen.iter().find(|(seen, _)| *seen == opened.name) {
                    return Err(err(format!(
                        "duplicate section [{header}] (first at line {first})"
                    )));
                }
                seen.push((opened.name, line_no));
            }
            if opened.needs_node && spec.nodes.is_empty() {
                return Err(err(format!("[{header}] before any [node]")));
            }
            let name = match opened.named {
                true => accept(&NODE_NAME, name).map_err(|e| err(format!("node name {e}")))?,
                false => String::new(),
            };
            (opened.open)(&mut spec, name);
            section = Some(opened);
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| err(format!("expected `key = value`, got {line:?}")))?;
        let (key, value) = (key.trim(), value.trim());
        let section = section.ok_or_else(|| err("key before any section".to_owned()))?;
        (section.set)(&mut spec, key, value)
            .unwrap_or_else(|| Err(format!("unknown {} key {key:?}", section.name)))
            .map_err(err)?;
    }
    let last_line = text.lines().count();
    spec.validate()
        .map_err(|reason| ConfigError::new(last_line, reason))?;
    Ok(spec)
}

/// Renders a [`TestSpec`] into scenario text that [`parse_spec`] reads
/// back as an equal spec.
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
pub fn serialize_spec(spec: &TestSpec) -> Result<String, SerializeError> {
    spec.validate()
        .map_err(|reason| SerializeError::new(format!("spec fails validation: {reason}")))?;
    let mut out = String::new();
    print_section(&mut out, TEST.name, TEST_KEYS, spec, &TestSpec::new(""))?;
    for node in &spec.nodes {
        let name = emit(&NODE_NAME, &node.name)
            .map_err(|message| SerializeError::new(format!("node name {message}")))?;
        let header = format!("{} {name}", NODE.name);
        print_section(&mut out, &header, NODE_KEYS, node, &NodeSpec::new(""))?;
        for producer in &node.producers {
            print_section(
                &mut out,
                PRODUCER.name,
                PRODUCER_KEYS,
                producer,
                &new_producer(),
            )?;
        }
        for consumer in &node.consumers {
            print_section(
                &mut out,
                CONSUMER.name,
                CONSUMER_KEYS,
                consumer,
                &new_consumer(),
            )?;
        }
    }
    if let Some(crash) = &spec.crash {
        print_section(&mut out, CRASH.name, CRASH_KEYS, crash, &NEW_CRASH)?;
    }
    if let Some(plan) = &spec.faults {
        print_section(&mut out, FAULTS.name, FAULT_KEYS, plan, &FaultPlan::none())?;
    }
    if !spec.transport.is_default() {
        let default = TransportSpec::default();
        print_section(
            &mut out,
            TRANSPORT.name,
            TRANSPORT_KEYS,
            &spec.transport,
            &default,
        )?;
    }
    if !spec.properties.is_empty() {
        print_header(&mut out, PROPERTIES.name);
        for property in &spec.properties {
            // Guards are free selector text; the re-parse in `emit` makes
            // a declaration the grammar cannot reproduce an error.
            let line = emit(&PROPERTY, property).map_err(|message| {
                SerializeError::new(format!("property {:?}: {message}", property.name))
            })?;
            let _ = writeln!(out, "{line}");
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = r#"
# A full scenario exercising every key.
[test]
name = full-demo
seed = 42
warm_up = 100ms
run = 1s
warm_down = 3s
drain_quiet = 200ms
fail_fast = on
shards = 4

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
reconnect = after 50 pause 100ms cycles 2

[crash]
after = 300ms
down = 80ms

[faults]
seed = 9
drop = 0.1
reorder = 0.05 7ms
max_redeliveries = 3
ignore_expiry = true
delivery_delay = 10ms

[properties]
late = deadline 100ms where JMSPriority >= 5
tail = latency p99 <= 250ms
"#;

    /// The spec [`FULL`] describes, built through the builders.
    fn full_spec() -> TestSpec {
        let mut faults = FaultPlan::none();
        faults.seed = 9;
        faults.drop_probability = 0.1;
        faults.reorder_probability = 0.05;
        faults.reorder_delay = Duration::from_millis(7);
        faults.max_redeliveries = Some(3);
        faults.ignore_expiry = true;
        faults.delivery_delay = Duration::from_millis(10);
        let mut spec = TestSpec::new("full-demo")
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
                        ProducerSpec {
                            workload: ArrivalProcess::poisson(250.0),
                            ..ProducerSpec::steady(Destination::topic("events"), 1.0, 512)
                        }
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
                    )
                    .producer(
                        ProducerSpec {
                            workload: ArrivalProcess::burst(10, Duration::from_millis(50)),
                            ..ProducerSpec::steady(Destination::topic("events"), 1.0, 256)
                        }
                        .with_body(BodyKind::Map),
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
            .property(jmst_props::PropertySpec::parse_line("tail = latency p99 <= 250ms").unwrap());
        spec.drain_quiet = Duration::from_millis(200);
        spec
    }

    #[test]
    fn full_spec_round_trips() {
        // Text to spec: every key lands in its field.
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

        // The text and the builders describe one spec.
        assert_eq!(parse_spec(FULL).unwrap(), full_spec());

        // Spec to text and back.
        let spec = full_spec();
        let text = serialize_spec(&spec).unwrap();
        let reparsed = parse_spec(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
        assert_eq!(reparsed, spec);
        // And the round trip is a fixed point.
        assert_eq!(serialize_spec(&reparsed).unwrap(), text);
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
        assert_eq!(parse_duration("500ns").unwrap(), Duration::from_nanos(500));
        assert_eq!(parse_duration("2min").unwrap(), Duration::from_secs(120));
        assert!(parse_duration("10").is_err());
        assert!(parse_duration("10h").is_err());
        assert!(parse_duration("fast").is_err());
        assert!(parse_duration("99999999999999999999999s").is_err());
    }

    #[test]
    fn repeated_singleton_sections_are_rejected_with_both_lines() {
        let base = "[test]\nname = r\n[node n]\n[consumer]\ndestination = queue:q\n";
        // A second [faults] would otherwise reset `drop = 0.5` to zero.
        let text = format!("{base}[faults]\ndrop = 0.5\n[faults]\nseed = 3\n");
        let error = parse_spec(&text).unwrap_err();
        assert_eq!(error.line(), 8);
        assert!(
            error.message().contains("duplicate section [faults]"),
            "{error}"
        );
        assert!(error.message().contains("line 6"), "{error}");
        for section in ["test", "crash", "transport", "properties"] {
            let text = format!("{base}[{section}]\n[{section}]\n");
            let error = parse_spec(&text).unwrap_err();
            assert!(
                error
                    .message()
                    .contains(&format!("duplicate section [{section}]")),
                "{error}"
            );
        }
        // Repeatable sections stay repeatable.
        let text = format!("{base}[node m]\n[producer]\ndestination = queue:q\n[producer]\n");
        assert!(parse_spec(&text).is_ok());
    }

    #[test]
    fn every_switch_takes_the_same_on_off_grammar() {
        let text =
            "[test]\nname = s\nretry = RETRY\nfail_fast = SWITCH\n[node n]\nshare = SWITCH\n\
                    [consumer]\ndestination = queue:q\n\
                    [faults]\nignore_expiry = SWITCH\nignore_priority = SWITCH\n\
                    lose_persistent_on_crash = SWITCH\n[transport]\nresume = SWITCH\n";
        for (word, on) in [
            ("on", true),
            ("true", true),
            ("yes", true),
            ("off", false),
            ("false", false),
            ("no", false),
        ] {
            let spec = parse_spec(&text.replace("SWITCH", word).replace("RETRY", word)).unwrap();
            assert_eq!(spec.fail_fast, on, "{word}");
            assert_eq!(spec.nodes[0].share_connection, on, "{word}");
            assert_eq!(spec.retry.is_disabled(), !on, "{word}");
            assert_eq!(spec.transport.resume, on, "{word}");
            let plan = spec.faults.unwrap();
            assert_eq!(plan.ignore_expiry, on, "{word}");
            assert_eq!(plan.ignore_priority, on, "{word}");
            assert_eq!(plan.lose_persistent_on_crash, on, "{word}");
        }
        let open =
            "[test]\nname = o\nopen_loop = yes\n[node n]\n[consumer]\ndestination = queue:q\n";
        assert!(parse_spec(open).unwrap().open_loop);
        let error = parse_spec("[test]\nname = x\n[node n]\nshare = maybe\n").unwrap_err();
        assert!(error.message().contains("share must be on/off"), "{error}");
    }

    #[test]
    fn scenario_durations_share_the_property_grammar() {
        let text = "[test]\nname = d\nrun = 1.5s\nwarm_down = 2min\n[node n]\n\
                    [consumer]\ndestination = queue:q\nthink = 500ns\n\
                    [properties]\nlate = deadline 1.5s\nslow = deadline 2min\n";
        let spec = parse_spec(text).unwrap();
        assert_eq!(spec.run, Duration::from_millis(1500));
        assert_eq!(spec.warm_down, Duration::from_secs(120));
        assert_eq!(
            spec.nodes[0].consumers[0].think_time,
            Duration::from_nanos(500)
        );
        assert_eq!(spec.properties.len(), 2);
    }

    #[test]
    fn zero_transacted_batch_parses_as_one_like_the_builder() {
        let text = "[test]\nname = t\n[node n]\n[producer]\ndestination = queue:q\n\
                    rate = steady 10\ntransacted = 0\n[consumer]\ndestination = queue:q\n";
        let spec = parse_spec(text).unwrap();
        assert_eq!(spec.nodes[0].producers[0].transacted_batch, Some(1));
        assert_eq!(
            spec.nodes[0].producers[0].transacted_batch,
            ProducerSpec::steady(Destination::queue("q"), 10.0, 128)
                .transacted(0)
                .transacted_batch
        );
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
        // Zero send batch and zero transacted batch: both parse as 1.
        let mut spec = base();
        spec.nodes[0].producers[0].send_batch = 0;
        let error = serialize_spec(&spec).unwrap_err();
        assert!(error.message().contains("send batch 0"), "{error}");
        let mut spec = base();
        spec.nodes[0].producers[0].transacted_batch = Some(0);
        let error = serialize_spec(&spec).unwrap_err();
        assert!(error.message().contains("transacted batch 0"), "{error}");
        // Comment character in free text.
        let mut spec = base();
        spec.name = "a # b".into();
        assert!(serialize_spec(&spec).is_err());
        // Invalid specs fail before any formatting.
        let error = serialize_spec(&TestSpec::new("empty")).unwrap_err();
        assert!(error.message().contains("validation"), "{error}");
    }

    /// Parses `lines` between a `[test]` header and a valid consumer; the
    /// parse must fail on the last of `lines`.
    fn rejected(lines: &str) -> ConfigError {
        let text =
            format!("[test]\nname = x\n{lines}\n[node tail]\n[consumer]\ndestination = queue:q\n");
        let error = parse_spec(&text).expect_err(lines);
        assert_eq!(error.line(), 2 + lines.lines().count(), "{lines}: {error}");
        error
    }

    #[test]
    fn non_finite_rates_are_parse_errors_not_panics() {
        for rate in ["inf", "-inf", "NaN"] {
            for profile in ["steady", "poisson"] {
                let error = rejected(&format!("[node n]\n[producer]\nrate = {profile} {rate}"));
                assert!(error.message().contains("finite and positive"), "{error}");
            }
        }
    }

    #[test]
    fn values_the_parser_would_silently_change_are_rejected() {
        for (lines, expected) in [
            ("[node n]\nclock_skew = 10000000000s", "292 years"),
            ("[node n]\nclock_skew = --5ms", "unit suffix"),
            ("[node n]\n[producer]\nttl = 1500us", "whole milliseconds"),
            (
                "[node n]\n[producer]\nrate = burst 3 every 500us",
                "whole, non-zero",
            ),
            (
                "[node n]\n[producer]\nrate = burst 3 every 1500us",
                "whole, non-zero",
            ),
        ] {
            let error = rejected(lines);
            assert!(error.message().contains(expected), "{lines}: {error}");
        }
        // The same keys still take every value they can print back.
        let text = "[test]\nname = x\n[node n]\nclock_skew = -5ms\n[producer]\nttl = 2ms\n\
                    rate = burst 3 every 1s\n";
        let spec = parse_spec(text).unwrap();
        assert_eq!(spec.nodes[0].clock_skew_nanos, -5_000_000);
        assert_eq!(spec.nodes[0].producers[0].time_to_live.as_millis(), 2);
    }

    #[test]
    fn values_the_serializer_cannot_print_are_rejected() {
        for (lines, expected) in [
            ("[node n]\n[producer]\nprop = x NaN", "finite"),
            ("[node n]\n[producer]\nprop = x inf", "finite"),
            ("[node n]\n[producer]\nprop = x 1e400", "finite"),
            ("[node a]b]", "node name"),
            ("[node a=b]", "node name"),
            ("[transport]\nsocket =", "socket must not be empty"),
            ("[transport]\njournal =", "journal must not be empty"),
        ] {
            let error = rejected(lines);
            assert!(error.message().contains(expected), "{lines}: {error}");
        }
    }
}
