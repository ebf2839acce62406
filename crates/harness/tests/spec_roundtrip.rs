//! Property-based round-trip tests of the scenario text format, in both
//! directions:
//!
//! - spec → text → spec: arbitrary valid [`TestSpec`]s must serialize to
//!   text that [`parse_spec`] reads back as an equal spec, and the
//!   serialization of that spec is a fixed point;
//! - text → spec → text: random scenario text built from every key's
//!   grammar plus hostile values (non-finite numbers, `--`, `]`, `=`,
//!   empty values, sub-millisecond durations, out-of-range integers)
//!   must, whenever [`parse_spec`] accepts it, serialize and read back
//!   as the same spec.

use jmst_api::body::BodyKind;
use jmst_api::destination::Destination;
use jmst_api::modes::{DeliveryMode, Priority, SessionMode, TimeToLive};
use jmst_api::value::Value;
use jmst_harness::{parse_spec, serialize_spec};
use jmst_harness::{
    ConsumerSpec, CrashPlan, FaultPlan, NodeSpec, ProducerSpec, ReconnectSpec, RetryPolicy,
    Subscription, TestSpec, TransportMode, TransportSpec,
};
use jmst_sim::ArrivalProcess;
use proptest::prelude::*;
use std::time::Duration;

/// Durations at the format's supported granularities (whole seconds,
/// milliseconds, or microseconds — the units the serializer emits).
fn arb_duration() -> BoxedStrategy<Duration> {
    prop_oneof![
        (1u64..5).prop_map(Duration::from_secs),
        (1u64..3000).prop_map(Duration::from_millis),
        (1u64..900).prop_map(Duration::from_micros),
    ]
    .boxed()
}

/// Positive rates with one decimal digit — `f64::Display` round-trips
/// any value, the constraint here is just "finite and positive".
fn arb_rate() -> BoxedStrategy<f64> {
    (1u32..500_000).prop_map(|n| f64::from(n) / 10.0).boxed()
}

fn arb_workload() -> BoxedStrategy<ArrivalProcess> {
    prop_oneof![
        arb_rate().prop_map(ArrivalProcess::steady),
        arb_rate().prop_map(ArrivalProcess::poisson),
        ((1u32..50), (1u64..500))
            .prop_map(|(size, ms)| { ArrivalProcess::burst(size, Duration::from_millis(ms)) }),
    ]
    .boxed()
}

/// Property values in every expressible variant, including the string
/// quote-escape and whitespace cases.
fn arb_value() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::String("plain".to_owned())),
        Just(Value::String("it's quoted".to_owned())),
        Just(Value::String("two words".to_owned())),
        Just(Value::String(String::new())),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Long),
        (-4000i32..4000).prop_map(|n| Value::Double(f64::from(n) / 8.0)),
    ]
    .boxed()
}

fn arb_destination() -> BoxedStrategy<Destination> {
    prop_oneof![
        Just(Destination::queue("q0")),
        Just(Destination::queue("q1")),
        Just(Destination::topic("t0")),
        Just(Destination::topic("t1")),
    ]
    .boxed()
}

fn arb_producer(open_loop: bool) -> BoxedStrategy<ProducerSpec> {
    let workload = if open_loop {
        // Open-loop specs with an arrival_rate reject burst profiles.
        arb_rate().prop_map(ArrivalProcess::steady).boxed()
    } else {
        arb_workload()
    };
    (
        (
            arb_destination(),
            workload,
            prop::sample::select(vec![
                BodyKind::Text,
                BodyKind::Bytes,
                BodyKind::Map,
                BodyKind::Stream,
                BodyKind::Object,
            ]),
            (0usize..4096),
            (0u8..=9),
            any::<bool>(),
            prop_oneof![
                Just(TimeToLive::FOREVER),
                (1u64..10_000).prop_map(TimeToLive::from_millis)
            ],
        ),
        (
            prop_oneof![Just(None), (1u32..20).prop_map(Some)],
            prop_oneof![Just(None), (1u64..5000).prop_map(Some)],
            (1u32..10),
            prop::collection::vec(
                (
                    prop::sample::select(vec!["p0", "p1", "p2", "p3"]),
                    arb_value(),
                ),
                0..4,
            ),
        ),
    )
        .prop_map(
            move |(
                (destination, workload, body, body_size, priority, persistent, ttl),
                (transacted, limit, send_batch, properties),
            )| {
                ProducerSpec {
                    destination,
                    workload,
                    body,
                    body_size,
                    priority: Priority::new(priority).unwrap(),
                    delivery_mode: if persistent {
                        DeliveryMode::Persistent
                    } else {
                        DeliveryMode::NonPersistent
                    },
                    time_to_live: ttl,
                    transacted_batch: if open_loop { None } else { transacted },
                    message_limit: limit,
                    send_batch,
                    properties: properties
                        .into_iter()
                        .map(|(name, value)| (name.to_owned(), value))
                        .collect(),
                }
            },
        )
        .boxed()
}

fn arb_consumer() -> BoxedStrategy<ConsumerSpec> {
    (
        arb_destination(),
        any::<bool>(),
        prop_oneof![
            Just(None),
            Just(Some("JMSPriority >= 5".to_owned())),
            Just(Some("p0 = 3 AND p1 IS NOT NULL".to_owned())),
        ],
        prop_oneof![
            Just((SessionMode::AutoAcknowledge, 1u32)),
            Just((SessionMode::DupsOkAcknowledge, 1u32)),
            (1u32..20).prop_map(|n| (SessionMode::ClientAcknowledge, n)),
            (1u32..20).prop_map(|n| (SessionMode::Transacted, n)),
        ],
        prop_oneof![Just(Duration::ZERO), arb_duration()],
        prop_oneof![
            Just(None),
            ((1u64..100), (1u64..100), (1u32..4)).prop_map(|(n, ms, k)| {
                Some(ReconnectSpec {
                    after_messages: n,
                    pause: Duration::from_millis(ms),
                    max_cycles: k,
                })
            })
        ],
    )
        .prop_map(
            |(destination, durable, selector, (session_mode, batch), think_time, reconnect)| {
                // Durable subscriptions are only valid on topics.
                let subscription = if durable && destination.is_topic() {
                    Subscription::Durable {
                        name: "sub".to_owned(),
                    }
                } else {
                    Subscription::Plain
                };
                ConsumerSpec {
                    destination,
                    subscription,
                    selector,
                    session_mode,
                    batch,
                    reconnect,
                    think_time,
                }
            },
        )
        .boxed()
}

fn arb_node(index: usize, open_loop: bool) -> BoxedStrategy<NodeSpec> {
    (
        (-5_000_000i64..5_000_000),
        prop::collection::vec(arb_producer(open_loop), 0..3),
        prop::collection::vec(arb_consumer(), 0..3),
    )
        .prop_map(move |(skew, producers, consumers)| NodeSpec {
            name: format!("n{index}"),
            clock_skew_nanos: (skew / 1000) * 1000, // whole microseconds
            share_connection: false,
            producers,
            consumers,
        })
        .boxed()
}

fn arb_fault_plan() -> BoxedStrategy<FaultPlan> {
    let prob = || (0u32..=100).prop_map(|n| f64::from(n) / 100.0);
    (
        (prob(), prob(), prob(), prob()),
        (prob(), prob(), prob(), prob()),
        ((1u64..50), (1u64..50), (0u64..20)),
        (
            (0u64..1000),
            prop_oneof![Just(None), (0u32..10).prop_map(Some)],
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
        ),
    )
        .prop_map(
            |(
                (drop, duplicate, reorder, forge),
                (connect, send_error, stall, ack_loss),
                (reorder_ms, stall_ms, delay_ms),
                (seed, max_redeliveries, ignore_expiry, ignore_priority, lose),
            )| {
                let mut plan = FaultPlan::none();
                plan.seed = seed;
                plan.drop_probability = drop;
                plan.duplicate_probability = duplicate;
                plan.reorder_probability = reorder;
                plan.reorder_delay = Duration::from_millis(reorder_ms);
                plan.forge_probability = forge;
                plan.connect_failure_probability = connect;
                plan.send_error_probability = send_error;
                plan.stall_probability = stall;
                plan.stall_duration = Duration::from_millis(stall_ms);
                plan.ack_loss_probability = ack_loss;
                plan.max_redeliveries = max_redeliveries;
                plan.ignore_expiry = ignore_expiry;
                plan.ignore_priority = ignore_priority;
                plan.lose_persistent_on_crash = lose;
                plan.delivery_delay = Duration::from_millis(delay_ms);
                plan
            },
        )
        .boxed()
}

/// Open-loop knobs: off entirely, or on with optional rate/clients.
fn arb_open_loop() -> BoxedStrategy<(bool, Option<f64>, Option<u32>)> {
    prop_oneof![
        Just((false, None, None)),
        (
            prop_oneof![Just(None), arb_rate().prop_map(Some)],
            prop_oneof![Just(None), (1u32..200).prop_map(Some)],
        )
            .prop_map(|(rate, clients)| (true, rate, clients)),
    ]
    .boxed()
}

/// An arbitrary subset of renderable property declarations, selected by
/// bitmask so shrinking walks toward the empty set.
fn arb_properties() -> BoxedStrategy<Vec<jmst_props::PropertySpec>> {
    const LINES: [&str; 8] = [
        "in_order = ordered",
        "no_dupes = no_duplicates",
        "bounded = redelivery <= 3",
        "late = deadline 100ms where JMSPriority >= 5",
        "tail = latency p99 <= 250ms",
        "floor = throughput >= 150.0",
        "fair = fairness <= 2.5",
        "cap = receives <= 500",
    ];
    (0u32..256)
        .prop_map(|mask| {
            LINES
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, line)| jmst_props::PropertySpec::parse_line(line).unwrap())
                .collect()
        })
        .boxed()
}

/// Transport configurations across both modes, every optional key, and
/// the non-default respawn limits — including the default (no section
/// emitted at all).
fn arb_transport() -> BoxedStrategy<TransportSpec> {
    prop_oneof![
        Just(TransportSpec::default()),
        (
            prop::sample::select(vec![TransportMode::Thread, TransportMode::Process]),
            prop_oneof![
                Just(None),
                Just(Some("/tmp/jmst-rt.sock".to_owned())),
                Just(Some("sockets/worker.sock".to_owned())),
            ],
            (0u32..9),
            prop_oneof![
                Just(None),
                Just(Some("campaign.jrnl".to_owned())),
                Just(Some("/tmp/jmst-rt.jrnl".to_owned())),
            ],
            any::<bool>(),
        )
            .prop_map(|(mode, socket, respawn_limit, journal, resume)| {
                TransportSpec {
                    mode,
                    socket,
                    respawn_limit,
                    journal,
                    resume,
                }
            }),
    ]
    .boxed()
}

fn arb_spec() -> BoxedStrategy<TestSpec> {
    (
        (
            (0u32..1000),
            (0u64..1_000_000),
            arb_duration(),
            arb_duration(),
            arb_duration(),
            arb_duration(),
            any::<bool>(),
            any::<bool>(),
        ),
        arb_open_loop(),
        (
            prop_oneof![Just(None), (1u32..16).prop_map(Some)],
            prop_oneof![
                Just(None),
                (arb_duration(), arb_duration()).prop_map(|(after, down)| Some(CrashPlan {
                    crash_after: after,
                    down_for: down,
                }))
            ],
            prop_oneof![Just(None), arb_fault_plan().prop_map(Some)],
            arb_properties(),
            arb_transport(),
            prop_oneof![Just(None), (1usize..10_000).prop_map(Some)],
        ),
    )
        .prop_map(
            |(
                (name_n, seed, warm_up, run, warm_down, drain_quiet, retry_off, fail_fast),
                (open_loop, arrival_rate, clients),
                (shards, crash, faults, properties, transport, queue_bound),
            )| {
                TestSpec {
                    name: format!("spec-{name_n}"),
                    seed,
                    warm_up,
                    run,
                    warm_down,
                    drain_quiet,
                    nodes: Vec::new(),
                    crash,
                    faults,
                    retry: if retry_off {
                        RetryPolicy::disabled()
                    } else {
                        RetryPolicy::default()
                    },
                    fail_fast,
                    open_loop,
                    arrival_rate: if open_loop { arrival_rate } else { None },
                    clients: if open_loop { clients } else { None },
                    shards,
                    queue_bound,
                    properties,
                    transport,
                }
            },
        )
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_specs_round_trip_through_the_text_format(
        shell in arb_spec(),
        node_count in 1usize..4,
        node_seed in 0u64..1_000_000,
    ) {
        let mut spec = shell;
        // Nodes need the open_loop flag fixed first, so they are
        // generated against the final spec shape.
        let mut rng = proptest::TestRng::for_case(node_seed, 0);
        for index in 0..node_count {
            spec.nodes
                .push(arb_node(index, spec.open_loop).generate(&mut rng));
        }
        // A spec with no drivers at all is invalid; give it one consumer.
        if spec.producer_count() == 0 && spec.consumer_count() == 0 {
            spec.nodes[0]
                .consumers
                .push(ConsumerSpec::auto(Destination::queue("q0")));
        }
        // The generator is built to emit only valid specs; an invalid one
        // is a bug in the strategy, not a case to discard.
        prop_assert!(spec.validate().is_ok(), "generator produced an invalid spec: {:?}", spec.validate());
        let text = serialize_spec(&spec).unwrap_or_else(|e| panic!("{e}"));
        let reparsed = parse_spec(&text)
            .unwrap_or_else(|e| panic!("serialized text does not parse: {e}\n---\n{text}"));
        prop_assert_eq!(&reparsed, &spec, "round trip diverged\n---\n{}", text);
        // Serialization of the reparsed spec is a fixed point.
        prop_assert_eq!(serialize_spec(&reparsed).unwrap(), text);
    }
}

// ---------------------------------------------------------------------
// The other direction: text → spec → text.
// ---------------------------------------------------------------------

/// Keys of one section with values from each key's grammar, edge cases
/// included.
type Keys = &'static [(&'static str, &'static [&'static str])];

const DURATIONS: &[&str] = &[
    "0s", "100ms", "1.5s", "250us", "2min", "1ns", "1.5ns", "7.25ms",
];
const SWITCHES: &[&str] = &["on", "off", "true", "false", "yes", "no"];
const PROBABILITIES: &[&str] = &["0", "0.1", "1", "0.05", "-0", "1e-3"];
const COUNTS: &[&str] = &["0", "1", "7", "+8", "4294967295"];

const TEST_KEYS: Keys = &[
    ("name", &["demo", "two words", "x=y", "[x]"]),
    ("seed", &["0", "42", "18446744073709551615"]),
    ("warm_up", DURATIONS),
    ("run", DURATIONS),
    ("warm_down", DURATIONS),
    ("drain_quiet", DURATIONS),
    ("retry", SWITCHES),
    ("fail_fast", SWITCHES),
    ("open_loop", SWITCHES),
    ("arrival_rate", &["5000", "0.5", "1e3"]),
    ("clients", COUNTS),
    ("shards", COUNTS),
    ("queue_bound", COUNTS),
    ("drivers", &["thread", "threads", "reactor"]),
];

const NODE_KEYS: Keys = &[
    ("share", SWITCHES),
    (
        "clock_skew",
        &[
            "2ms",
            "-5ms",
            "-0ms",
            "1.5us",
            "-250ns",
            "9223372036s",
            "-1.5ns",
        ],
    ),
];

const PRODUCER_KEYS: Keys = &[
    (
        "destination",
        &["queue:q", "topic:t", "queue: spaced", "topic:a:b"],
    ),
    (
        "rate",
        &[
            "steady 10",
            "poisson 2.5",
            "steady 1e2",
            "burst 3 every 50ms",
            "burst 3 every 1.5s",
        ],
    ),
    (
        "body",
        &["text 64", "bytes 0", "map 256", "object  12", "stream 1"],
    ),
    ("priority", &["0", "4", "9", "+7"]),
    ("delivery", &["persistent", "non-persistent"]),
    ("ttl", &["forever", "5ms", "0ms", "1.5s", "2min"]),
    ("transacted", COUNTS),
    ("limit", &["0", "1000", "18446744073709551615"]),
    ("batch", COUNTS),
    (
        "prop",
        &[
            "region 'emea'",
            "tier 3",
            "urgent TRUE",
            "w 2.5",
            "w 1e300",
            "w -0.0",
            "w 5e-324",
            "q 'it''s'",
            "q ''",
            "q 'a '' b'",
            "q '='",
        ],
    ),
];

const CONSUMER_KEYS: Keys = &[
    ("destination", &["queue:q", "topic:t", "topic:t2"]),
    ("durable", &["audit", "two words"]),
    (
        "selector",
        &["JMSPriority >= 5", "tier = 3", "region LIKE 'e%'"],
    ),
    (
        "mode",
        &[
            "auto",
            "dups-ok",
            "client-ack 0",
            "client-ack 5",
            "transacted 3",
        ],
    ),
    ("think", DURATIONS),
    (
        "reconnect",
        &[
            "after 5 pause 10ms cycles 1",
            "after 0 pause 1.5ns cycles 0",
        ],
    ),
];

const CRASH_KEYS: Keys = &[("after", DURATIONS), ("down", DURATIONS)];

const FAULT_KEYS: Keys = &[
    ("seed", &["0", "7"]),
    ("drop", PROBABILITIES),
    ("duplicate", PROBABILITIES),
    ("reorder", &["0.1 5ms", "0 1us", "0.2 1.5ns"]),
    ("forge", PROBABILITIES),
    ("connect_failure", PROBABILITIES),
    ("send_error", PROBABILITIES),
    ("stall", &["0.01 5ms", "0 0s", "1 2min"]),
    ("ack_loss", PROBABILITIES),
    ("max_redeliveries", COUNTS),
    ("ignore_expiry", SWITCHES),
    ("ignore_priority", SWITCHES),
    ("lose_persistent_on_crash", SWITCHES),
    ("delivery_delay", DURATIONS),
];

const TRANSPORT_KEYS: Keys = &[
    ("mode", &["thread", "process"]),
    ("socket", &["/tmp/p.sock", "sockets/w.sock"]),
    ("respawn_limit", COUNTS),
    ("journal", &["camp.jrnl", "/tmp/j.jrnl"]),
    ("resume", SWITCHES),
];

const PROPERTY_LINES: &[&str] = &[
    "late = deadline 100ms where JMSPriority >= 5",
    "tail = latency p99 <= 250ms",
    "in_order = ordered",
    "floor = throughput >= 150.0",
];

/// Values no key should take as-is: non-finite numbers, doubled signs,
/// section syntax, empty text, sub-millisecond and overlong durations,
/// out-of-range integers, and each key's plain grammar errors.
const HOSTILE: &[&str] = &[
    "inf",
    "-inf",
    "NaN",
    "--5ms",
    "]",
    "=",
    "",
    "500us",
    "1500us",
    "10000000000s",
    "600000000000.5s",
    "4294967296",
    "99999999999999999999",
    "-1",
    "1e400",
    "x NaN",
    "x inf",
    "x 1e400",
    "x 'unterminated",
    "steady inf",
    "poisson NaN",
    "steady 0",
    "burst 3 every 500us",
    "burst 0 every 1ms",
    "maybe",
    "queue:",
    "client-ack",
    "after 5 pause soon cycles 1",
    "0.5",
    "blob 1",
    "fibers",
    "a]b",
    "a=b",
    "late = ordered",
    "bad = deadline soon",
];

const NODE_NAMES: &[&str] = &["n0", "n1", "two words", "x:y"];

fn pick<'a>(rng: &mut proptest::TestRng, options: &[&'a str]) -> &'a str {
    options[rng.below(options.len() as u64) as usize]
}

/// Draws a value from `grammar`, or one time in `hostility` from
/// [`HOSTILE`] (never, when `hostility` is 0).
fn value<'a>(rng: &mut proptest::TestRng, grammar: &[&'a str], hostility: u64) -> &'a str {
    if hostility > 0 && rng.below(hostility) == 0 {
        pick(rng, HOSTILE)
    } else {
        pick(rng, grammar)
    }
}

/// Appends a `[header]`, the `lead` text, and up to `max` random
/// `key = value` lines.
struct Section {
    header: String,
    lead: &'static str,
    keys: Keys,
    max: u64,
}

impl Section {
    fn new(header: impl Into<String>, keys: Keys, max: u64) -> Self {
        Section {
            header: header.into(),
            lead: "",
            keys,
            max,
        }
    }

    fn write(&self, rng: &mut proptest::TestRng, text: &mut String, hostility: u64) {
        text.push_str(&format!("[{}]\n{}", self.header, self.lead));
        for _ in 0..rng.below(self.max + 1) {
            let (key, values) = self.keys[rng.below(self.keys.len() as u64) as usize];
            let value = value(rng, values, hostility);
            text.push_str(&format!("{key} = {value}\n"));
        }
    }
}

/// Random scenario text: a `[test]`, one to three nodes with producers
/// and consumers, and optional singleton sections. A third of the texts
/// hold no hostile value; the rest one in `hostility` lines.
fn scenario_text(rng: &mut proptest::TestRng) -> String {
    let hostility = [0, 8, 30][rng.below(3) as usize];
    let mut text = String::new();
    Section::new("test", TEST_KEYS, 5).write(rng, &mut text, hostility);
    for _ in 0..=rng.below(3) {
        let node = format!("node {}", value(rng, NODE_NAMES, hostility));
        Section::new(node, NODE_KEYS, 2).write(rng, &mut text, hostility);
        for _ in 0..rng.below(3) {
            Section::new("producer", PRODUCER_KEYS, 6).write(rng, &mut text, hostility);
        }
        for _ in 0..=rng.below(2) {
            // Durable subscriptions need a topic; most consumers get one.
            let consumer = Section {
                lead: ["", "destination = topic:t\n"][rng.below(4).min(1) as usize],
                ..Section::new("consumer", CONSUMER_KEYS, 4)
            };
            consumer.write(rng, &mut text, hostility);
        }
    }
    for singleton in [
        Section::new("crash", CRASH_KEYS, 2),
        Section::new("faults", FAULT_KEYS, 6),
        Section::new("transport", TRANSPORT_KEYS, 4),
    ] {
        if rng.below(3) == 0 {
            singleton.write(rng, &mut text, hostility);
        }
    }
    if rng.below(3) == 0 {
        text.push_str("[properties]\n");
        for _ in 0..rng.below(3) {
            text.push_str(value(rng, PROPERTY_LINES, hostility));
            text.push('\n');
        }
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn accepted_text_serializes_and_reads_back_as_the_same_spec(seed in any::<u64>()) {
        let text = scenario_text(&mut proptest::TestRng::for_case(seed, 0));
        if let Ok(spec) = parse_spec(&text) {
            let printed = serialize_spec(&spec)
                .unwrap_or_else(|e| panic!("accepted text does not serialize: {e}\n---\n{text}"));
            let reparsed = parse_spec(&printed)
                .unwrap_or_else(|e| panic!("printed text does not parse: {e}\n---\n{printed}"));
            prop_assert_eq!(&reparsed, &spec, "text → spec → text diverged\n---\n{}", text);
            prop_assert_eq!(serialize_spec(&reparsed).unwrap(), printed);
        }
    }
}

/// The generator must keep the property above from being vacuous: a
/// good share of its texts parse.
#[test]
fn generated_scenario_text_is_often_accepted() {
    let accepted = (0..500u32)
        .filter(|&case| {
            let text = scenario_text(&mut proptest::TestRng::for_case(0x5ce9, case));
            parse_spec(&text).is_ok()
        })
        .count();
    assert!(
        accepted >= 100,
        "only {accepted} of 500 generated texts parse"
    );
}
