//! The property declaration language: one named assertion per line.
//!
//! ```text
//! name = decl
//! ```
//!
//! where `decl` is one of:
//!
//! * `ordered` / `no_duplicates` / `redelivery <= N` / `required` /
//!   `integrity` / `priority` / `expiry` — mirrors of the built-in
//!   checkers (guards are not permitted on these, so a mirror is always
//!   verdict-identical to its built-in twin);
//! * `deadline DUR [where GUARD]` — every (guarded) delivery must arrive
//!   within `DUR` of its send;
//! * `latency STAT <= DUR [where GUARD]` — a delivery-latency statistic
//!   (`mean`, `p50`, `p95`, `p99`, `max`) over the measurement window;
//! * `throughput >= RATE [where GUARD]` — delivered messages per second
//!   over the measurement window;
//! * `fairness <= RATIO [where GUARD]` — max/min per-consumer delivery
//!   counts over the measurement window;
//! * `receives >= N` / `receives <= N` `[where GUARD]` — whole-trace
//!   delivered-message count bounds.
//!
//! `GUARD` is a JMS message-selector expression (the same grammar the
//! broker evaluates), applied to each delivered message's headers and
//! user properties. Durations take `ns`/`us`/`µs`/`ms`/`s`/`m` suffixes.
//! The same grammar parses standalone `.prop` files (`#` comments,
//! blank lines) and the `[properties]` section of a scenario file.

use jmst_api::selector::Selector;
use serde::{Deserialize, Serialize, Serializer};
use std::fmt;
use std::time::Duration;

/// A parsed guard: the original selector text plus its compiled form.
#[derive(Debug, Clone)]
pub struct Guard {
    text: String,
    selector: Selector,
}

impl Guard {
    /// Parses a selector expression into a guard.
    pub fn parse(text: &str) -> Result<Guard, String> {
        let selector = Selector::parse(text).map_err(|e| format!("guard: {e}"))?;
        Ok(Guard {
            text: text.trim().to_owned(),
            selector,
        })
    }

    /// The guard's original selector text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The compiled selector.
    pub fn selector(&self) -> &Selector {
        &self.selector
    }
}

impl PartialEq for Guard {
    fn eq(&self, other: &Self) -> bool {
        self.text == other.text
    }
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

/// Which latency statistic an SLO bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyStat {
    /// Arithmetic mean.
    Mean,
    /// Median.
    P50,
    /// 95th percentile.
    P95,
    /// 99th percentile.
    P99,
    /// Maximum.
    Max,
}

impl LatencyStat {
    /// The statistic's keyword in the DSL.
    pub fn keyword(self) -> &'static str {
        match self {
            LatencyStat::Mean => "mean",
            LatencyStat::P50 => "p50",
            LatencyStat::P95 => "p95",
            LatencyStat::P99 => "p99",
            LatencyStat::Max => "max",
        }
    }

    fn parse(text: &str) -> Option<LatencyStat> {
        Some(match text {
            "mean" => LatencyStat::Mean,
            "p50" => LatencyStat::P50,
            "p95" => LatencyStat::P95,
            "p99" => LatencyStat::P99,
            "max" => LatencyStat::Max,
            _ => return None,
        })
    }
}

/// Direction of a receive-count bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CountOp {
    /// `receives >= N`: at least N deliveries by end of trace.
    AtLeast,
    /// `receives <= N`: at most N deliveries, ever.
    AtMost,
}

/// One property declaration (the right-hand side of a DSL line).
#[derive(Debug, Clone, PartialEq)]
pub enum PropertyDecl {
    /// Mirror of the built-in P3 ordering checker.
    Ordered,
    /// Mirror of the built-in duplicate-delivery checker.
    NoDuplicates,
    /// Mirror of the built-in bounded-redelivery checker.
    RedeliveryBound(u32),
    /// Mirror of the built-in P2 required-messages checker.
    Required,
    /// Mirror of the built-in P1 delivery-integrity checker.
    Integrity,
    /// Mirror of the built-in P4 priority checker (default config).
    Priority,
    /// Mirror of the built-in P5 expiry checker (default config).
    Expiry,
    /// Per-message deadline: every guarded delivery within `bound`.
    Deadline {
        /// Maximum send-to-receive latency.
        bound: Duration,
        /// Optional message guard.
        guard: Option<Guard>,
    },
    /// A latency-statistic SLO over the measurement window.
    Latency {
        /// The bounded statistic.
        stat: LatencyStat,
        /// Its maximum value.
        bound: Duration,
        /// Optional message guard.
        guard: Option<Guard>,
    },
    /// A minimum delivered-throughput SLO over the measurement window.
    Throughput {
        /// Minimum messages per second.
        min_rate: f64,
        /// Optional message guard.
        guard: Option<Guard>,
    },
    /// A per-consumer fairness bound over the measurement window.
    Fairness {
        /// Maximum allowed max/min delivery-count ratio.
        max_ratio: f64,
        /// Optional message guard.
        guard: Option<Guard>,
    },
    /// A whole-trace delivered-message count bound.
    ReceiveCount {
        /// Bound direction.
        op: CountOp,
        /// The bound.
        count: u64,
        /// Optional message guard.
        guard: Option<Guard>,
    },
}

impl PropertyDecl {
    /// The guard, if the declaration carries one.
    pub fn guard(&self) -> Option<&Guard> {
        match self {
            PropertyDecl::Deadline { guard, .. }
            | PropertyDecl::Latency { guard, .. }
            | PropertyDecl::Throughput { guard, .. }
            | PropertyDecl::Fairness { guard, .. }
            | PropertyDecl::ReceiveCount { guard, .. } => guard.as_ref(),
            _ => None,
        }
    }

    /// Renders the declaration back to its DSL text (re-parseable).
    pub fn render(&self) -> String {
        let with_guard = |head: String, guard: &Option<Guard>| match guard {
            Some(guard) => format!("{head} where {guard}"),
            None => head,
        };
        match self {
            PropertyDecl::Ordered => "ordered".to_owned(),
            PropertyDecl::NoDuplicates => "no_duplicates".to_owned(),
            PropertyDecl::RedeliveryBound(bound) => format!("redelivery <= {bound}"),
            PropertyDecl::Required => "required".to_owned(),
            PropertyDecl::Integrity => "integrity".to_owned(),
            PropertyDecl::Priority => "priority".to_owned(),
            PropertyDecl::Expiry => "expiry".to_owned(),
            PropertyDecl::Deadline { bound, guard } => {
                with_guard(format!("deadline {}", fmt_duration(*bound)), guard)
            }
            PropertyDecl::Latency { stat, bound, guard } => with_guard(
                format!("latency {} <= {}", stat.keyword(), fmt_duration(*bound)),
                guard,
            ),
            PropertyDecl::Throughput { min_rate, guard } => {
                with_guard(format!("throughput >= {min_rate:?}"), guard)
            }
            PropertyDecl::Fairness { max_ratio, guard } => {
                with_guard(format!("fairness <= {max_ratio:?}"), guard)
            }
            PropertyDecl::ReceiveCount { op, count, guard } => {
                let op = match op {
                    CountOp::AtLeast => ">=",
                    CountOp::AtMost => "<=",
                };
                with_guard(format!("receives {op} {count}"), guard)
            }
        }
    }

    /// Parses a declaration (everything after the `=` of a DSL line).
    pub fn parse(text: &str) -> Result<PropertyDecl, String> {
        let (head, guard_text) = split_guard(text);
        let guard = match guard_text {
            Some(text) if text.trim().is_empty() => {
                return Err("empty guard after 'where'".to_owned())
            }
            Some(text) => Some(Guard::parse(text)?),
            None => None,
        };
        let tokens: Vec<&str> = head.split_whitespace().collect();
        let require_no_guard = |kind: &str| {
            if guard.is_some() {
                Err(format!(
                    "'{kind}' mirrors a built-in checker and does not take a guard"
                ))
            } else {
                Ok(())
            }
        };
        let decl = match tokens.as_slice() {
            ["ordered"] => {
                require_no_guard("ordered")?;
                PropertyDecl::Ordered
            }
            ["no_duplicates"] => {
                require_no_guard("no_duplicates")?;
                PropertyDecl::NoDuplicates
            }
            ["required"] => {
                require_no_guard("required")?;
                PropertyDecl::Required
            }
            ["integrity"] => {
                require_no_guard("integrity")?;
                PropertyDecl::Integrity
            }
            ["priority"] => {
                require_no_guard("priority")?;
                PropertyDecl::Priority
            }
            ["expiry"] => {
                require_no_guard("expiry")?;
                PropertyDecl::Expiry
            }
            ["redelivery", "<=", bound] => {
                require_no_guard("redelivery")?;
                PropertyDecl::RedeliveryBound(
                    bound
                        .parse()
                        .map_err(|_| format!("invalid redelivery bound '{bound}'"))?,
                )
            }
            ["deadline", duration] => PropertyDecl::Deadline {
                bound: parse_duration(duration)?,
                guard,
            },
            ["latency", stat, "<=", duration] => PropertyDecl::Latency {
                stat: LatencyStat::parse(stat)
                    .ok_or_else(|| format!("unknown latency statistic '{stat}'"))?,
                bound: parse_duration(duration)?,
                guard,
            },
            ["throughput", ">=", rate] => PropertyDecl::Throughput {
                min_rate: parse_bound_f64(rate, "throughput rate")?,
                guard,
            },
            ["fairness", "<=", ratio] => PropertyDecl::Fairness {
                max_ratio: parse_bound_f64(ratio, "fairness ratio")?,
                guard,
            },
            ["receives", op @ (">=" | "<="), count] => PropertyDecl::ReceiveCount {
                op: if *op == ">=" {
                    CountOp::AtLeast
                } else {
                    CountOp::AtMost
                },
                count: count
                    .parse()
                    .map_err(|_| format!("invalid receive count '{count}'"))?,
                guard,
            },
            [] => return Err("empty property declaration".to_owned()),
            [kind, ..] => return Err(format!("unknown property declaration '{kind}'")),
        };
        Ok(decl)
    }
}

/// A named property declaration: one DSL line.
#[derive(Debug, Clone, PartialEq)]
pub struct PropertySpec {
    /// The property's name (an identifier).
    pub name: String,
    /// The declaration.
    pub decl: PropertyDecl,
}

impl PropertySpec {
    /// Builds a named property.
    pub fn new(name: impl Into<String>, decl: PropertyDecl) -> Self {
        Self {
            name: name.into(),
            decl,
        }
    }

    /// Parses one `name = decl` line.
    pub fn parse_line(line: &str) -> Result<PropertySpec, String> {
        let Some((name, decl)) = line.split_once('=') else {
            return Err(format!("expected 'name = declaration', got '{line}'"));
        };
        let name = name.trim();
        if !is_identifier(name) {
            return Err(format!("invalid property name '{name}'"));
        }
        Ok(PropertySpec {
            name: name.to_owned(),
            decl: PropertyDecl::parse(decl.trim())
                .map_err(|e| format!("property '{name}': {e}"))?,
        })
    }

    /// Renders the property back to its DSL line.
    pub fn render(&self) -> String {
        format!("{} = {}", self.name, self.decl.render())
    }
}

impl fmt::Display for PropertySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl Serialize for PropertySpec {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.render())
    }
}

impl<'de> Deserialize<'de> for PropertySpec {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let text = String::deserialize(deserializer)?;
        PropertySpec::parse_line(&text).map_err(serde::de::Error::custom)
    }
}

/// A parse error with the 1-based line it occurred on (0 for single-line
/// parses).
#[derive(Debug, Clone, PartialEq)]
pub struct PropParseError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for PropParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            f.write_str(&self.message)
        }
    }
}

impl std::error::Error for PropParseError {}

/// Parses a whole property file (or `[properties]` section body): one
/// declaration per line, `#` comments, blank lines ignored. Property
/// names must be unique.
pub fn parse_properties(text: &str) -> Result<Vec<PropertySpec>, PropParseError> {
    let mut properties: Vec<PropertySpec> = Vec::new();
    for (index, raw) in text.lines().enumerate() {
        let line = match raw.find('#') {
            Some(at) => &raw[..at],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        let property = PropertySpec::parse_line(line).map_err(|message| PropParseError {
            line: index + 1,
            message,
        })?;
        if properties.iter().any(|p| p.name == property.name) {
            return Err(PropParseError {
                line: index + 1,
                message: format!("duplicate property name '{}'", property.name),
            });
        }
        properties.push(property);
    }
    Ok(properties)
}

/// Renders a property list back to file text (the inverse of
/// [`parse_properties`]).
pub fn render_properties(properties: &[PropertySpec]) -> String {
    let mut text = String::new();
    for property in properties {
        text.push_str(&property.render());
        text.push('\n');
    }
    text
}

fn is_identifier(text: &str) -> bool {
    let mut chars = text.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Splits a declaration at its `where` keyword, respecting selector
/// string literals (single quotes), so a guard containing the word in a
/// string is not cut.
fn split_guard(text: &str) -> (&str, Option<&str>) {
    let bytes = text.as_bytes();
    let mut in_string = false;
    for (at, _) in text.char_indices() {
        if bytes[at] == b'\'' {
            in_string = !in_string;
            continue;
        }
        if !in_string
            && text[at..].starts_with("where")
            && (at == 0 || bytes[at - 1].is_ascii_whitespace())
            && bytes
                .get(at + 5)
                .is_none_or(|next| next.is_ascii_whitespace())
        {
            return (&text[..at], Some(&text[at + 5..]));
        }
    }
    (text, None)
}

fn parse_bound_f64(text: &str, what: &str) -> Result<f64, String> {
    let value: f64 = text
        .parse()
        .map_err(|_| format!("invalid {what} '{text}'"))?;
    if !value.is_finite() || value < 0.0 {
        return Err(format!(
            "{what} must be finite and non-negative, got {text}"
        ));
    }
    Ok(value)
}

/// Parses a duration: a non-negative number and a unit suffix, `ns`,
/// `us`/`µs`, `ms`, `s` or `m`/`min`, optionally separated by spaces
/// (`500ns`, `250ms`, `1.5s`, `2min`). This is the one duration grammar
/// of scenario files and property declarations. Whole numbers convert
/// exactly; decimals convert through `f64` seconds.
pub fn parse_duration(text: &str) -> Result<Duration, String> {
    let text = text.trim();
    let split = text
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(text.len());
    let (number, unit) = text.split_at(split);
    let nanos_per_unit: u64 = match unit.trim() {
        "ns" => 1,
        "us" | "µs" => 1_000,
        "ms" => 1_000_000,
        "s" => 1_000_000_000,
        "m" | "min" => 60_000_000_000,
        _ => {
            return Err(format!(
                "duration '{text}' needs a unit suffix (ns/us/ms/s/m/min)"
            ))
        }
    };
    if let Ok(whole) = number.parse::<u64>() {
        return whole
            .checked_mul(nanos_per_unit)
            .map(Duration::from_nanos)
            .ok_or_else(|| format!("duration '{text}' overflows"));
    }
    let value: f64 = number
        .parse()
        .map_err(|_| format!("invalid duration '{text}'"))?;
    // Scale by an exact power of ten (or sixty), so decimal values stay
    // bit-identical to the seconds arithmetic scenario files always used.
    let seconds = if nanos_per_unit < 1_000_000_000 {
        value / (1_000_000_000 / nanos_per_unit) as f64
    } else {
        value * (nanos_per_unit / 1_000_000_000) as f64
    };
    Duration::try_from_secs_f64(seconds).map_err(|_| format!("duration '{text}' overflows"))
}

/// Renders a duration with the largest exact unit (inverse of
/// [`parse_duration`]).
pub fn fmt_duration(duration: Duration) -> String {
    let nanos = duration.as_nanos();
    if nanos == 0 {
        return "0s".to_owned();
    }
    if nanos.is_multiple_of(60_000_000_000) {
        format!("{}m", nanos / 60_000_000_000)
    } else if nanos.is_multiple_of(1_000_000_000) {
        format!("{}s", nanos / 1_000_000_000)
    } else if nanos.is_multiple_of(1_000_000) {
        format!("{}ms", nanos / 1_000_000)
    } else if nanos.is_multiple_of(1_000) {
        format!("{}us", nanos / 1_000)
    } else {
        format!("{nanos}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_declaration_kind() {
        let text = "\
# built-in mirrors
order = ordered
dedup = no_duplicates
poison = redelivery <= 2
complete = required
honest = integrity
fast_lanes = priority
ttl = expiry
# QoS assertions
late = deadline 100ms
tail = latency p99 <= 250ms
floor = throughput >= 150.0
fair = fairness <= 3.0
cap = receives <= 1000
minimum = receives >= 10 where JMSPriority > 4
";
        let properties = parse_properties(text).expect("parses");
        assert_eq!(properties.len(), 13);
        assert_eq!(
            properties[7].decl,
            PropertyDecl::Deadline {
                bound: Duration::from_millis(100),
                guard: None
            }
        );
        assert!(properties[12].decl.guard().is_some());
    }

    #[test]
    fn round_trips_through_render() {
        let text = "\
late = deadline 100ms where JMSPriority > 4
tail = latency p99 <= 250ms
floor = throughput >= 150.0
poison = redelivery <= 2
";
        let properties = parse_properties(text).expect("parses");
        let rendered = render_properties(&properties);
        assert_eq!(parse_properties(&rendered).expect("re-parses"), properties);
    }

    #[test]
    fn rejects_malformed_declarations() {
        assert!(parse_properties("late = deadline").is_err());
        assert!(parse_properties("late = deadline 100").is_err());
        assert!(parse_properties("x = frobnicate 3").is_err());
        assert!(parse_properties("9bad = ordered").is_err());
        assert!(parse_properties("a = ordered\na = ordered").is_err());
        assert!(parse_properties("g = ordered where JMSPriority > 4").is_err());
        assert!(parse_properties("late = deadline 10ms where").is_err());
        assert!(parse_properties("late = deadline 10ms where ???").is_err());
        assert!(parse_properties("f = fairness <= NaN").is_err());
    }

    #[test]
    fn where_inside_string_literal_is_not_a_guard_split() {
        let properties = parse_properties("tag = receives >= 1 where jmst_tag = 'where it goes'")
            .expect("parses");
        assert_eq!(
            properties[0].decl.guard().unwrap().text(),
            "jmst_tag = 'where it goes'"
        );
    }

    #[test]
    fn duration_units_round_trip() {
        for text in ["250ms", "3s", "2m", "750us", "15ns"] {
            let parsed = parse_duration(text).expect(text);
            assert_eq!(fmt_duration(parsed), text);
        }
        assert!(parse_duration("100").is_err());
        assert!(parse_duration("ms").is_err());
    }

    #[test]
    fn duration_grammar_accepts_decimals_min_and_every_unit() {
        let cases = [
            ("500ns", Duration::from_nanos(500)),
            ("500us", Duration::from_micros(500)),
            ("500µs", Duration::from_micros(500)),
            ("250ms", Duration::from_millis(250)),
            ("1.5s", Duration::from_millis(1500)),
            ("0.25ms", Duration::from_micros(250)),
            ("0.5us", Duration::from_nanos(500)),
            ("2min", Duration::from_secs(120)),
            ("3m", Duration::from_secs(180)),
            ("10 ms", Duration::from_millis(10)),
            (" 7s ", Duration::from_secs(7)),
        ];
        for (text, expected) in cases {
            assert_eq!(parse_duration(text), Ok(expected), "{text}");
        }
        for bad in [
            "10",
            "10h",
            "fast",
            "-5ms",
            "1.2.3s",
            "99999999999999999999999s",
        ] {
            assert!(parse_duration(bad).is_err(), "{bad}");
        }
        let error = parse_duration("soon").unwrap_err();
        assert!(error.contains("unit suffix"), "{error}");
    }
}
