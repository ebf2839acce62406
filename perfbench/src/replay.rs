//! `replay-journal`: the offline path that checks a recorded run — the
//! multi-process prince's data path and its `--resume` path.
//!
//! Synthetic events, seeded with duplicates,
//! reorderings, drops, expired deliveries and deadline misses in known
//! counts, go through the framed protocol (`write_frame`/`read_frame` on
//! an in-memory buffer, as a worker streams them) into a
//! `JournalWriter`, one event at a time. The journal is then salvaged,
//! partitioned and replayed through the streaming checkers, and the
//! verdict must equal the seeded oracle. No broker, reactor or thread is
//! involved, and the checkers spend their time on the *violation* path.

use crate::report::{iqm, micros, quantile_us, timed_median, Outcome};
use crate::spans::{self, Tracer};
use crate::sys;
use jmst_api::destination::{Destination, EndpointId, QueueName};
use jmst_api::id::{ConsumerId, MessageId, NodeId, ProducerId, SessionId};
use jmst_api::modes::{DeliveryMode, Priority, SessionMode, TimeToLive};
use jmst_api::properties::Properties;
use jmst_api::time::Timestamp;
use jmst_api::value::Value;
use jmst_core::{partition_journal, replay_events, AnalysisReport, Analyzer, PropertyKind};
use jmst_harness::proto::{read_frame, write_frame};
use jmst_harness::WireMessage;
use jmst_sim::SimRng;
use jmst_store::journal::schedule_digest;
use jmst_store::{
    Event, EventKind, Journal, JournalKey, JournalRecord, JournalWriter, LogHistogram,
    MessageRecord, Phase, Trace, VerdictRecord,
};
use std::collections::HashSet;
use std::path::Path;
use std::time::{Duration, Instant};

/// Synthetic messages per pass; with their sends and receives, about
/// 16K events. A pass costs about 40 µs per event end to end, so a pass
/// takes well under a second and a run makes dozens.
const MESSAGES: u64 = 8_000;
const PRODUCERS: u64 = 8;
const QUEUES: u64 = 4;
/// Virtual time between consecutive sends (any producer).
const SEND_GAP_NS: u64 = 10_000;
/// Every delivery takes this long plus up to [`JITTER_NS`]. The jitter is
/// below one producer's send gap (`PRODUCERS × SEND_GAP_NS`), so only the
/// seeded reorderings break per-producer order.
const BASE_DELAY_NS: u64 = 3_000_000;
const JITTER_NS: u64 = 50_000;
/// The DSL property the replay checks alongside the built-ins. Every
/// delivery takes longer than 3 ms, so each `tier = 1` message misses it.
const PROPERTIES: &str = "urgent = deadline 3ms where tier = 1";
/// Set-ups per run; `setup_s` is their median. A set-up generates the
/// inputs and makes one warm-up pass over them (checked like the rest),
/// so that the journal path, allocator and checkers are warm before the
/// measured passes.
const SETUP_REPEATS: usize = 3;
/// In a traced pass, one event in this many gets per-stage spans; every
/// event is still timed.
const SPAN_SAMPLE: usize = 64;

/// How many of each seeded fault the inputs hold.
#[derive(Debug, Clone, Copy, Default)]
struct Oracle {
    drops: usize,
    duplicates: usize,
    reorders: usize,
    expired: usize,
    /// Queues holding at least one expired delivery: P5 reports one
    /// violation per such end-point.
    expired_queues: usize,
    urgent: usize,
    sends: usize,
    receives: usize,
}

/// The generated inputs.
struct Synthetic {
    events: Vec<Event>,
    oracle: Oracle,
}

fn queue_of(producer: u64) -> u64 {
    producer % QUEUES
}

/// Draws `count` message indices not yet taken and marks them taken.
/// With `pair`, each draw also reserves the same producer's previous and
/// next two messages, so a reordered pair touches no other fault.
fn draw(rng: &mut SimRng, taken: &mut HashSet<u64>, count: usize, pair: bool) -> Vec<u64> {
    let mut picked = Vec::with_capacity(count);
    while picked.len() < count {
        let index = rng.below(MESSAGES - 2 * PRODUCERS) + PRODUCERS;
        let span: Vec<u64> = if pair {
            (0..4).map(|k| index - PRODUCERS + k * PRODUCERS).collect()
        } else {
            vec![index]
        };
        if span.iter().any(|i| taken.contains(i)) {
            continue;
        }
        taken.extend(span);
        picked.push(index);
    }
    picked
}

fn generate(seed: u64) -> Synthetic {
    let mut rng = SimRng::seed_from_u64(seed).derive(0x7265_706c);
    let mut taken = HashSet::new();
    let counts = |rng: &mut SimRng, base: u64| (base + rng.below(base)) as usize;
    let (n_reorders, n_drops, n_duplicates, n_expired, n_urgent) = (
        counts(&mut rng, 25),
        counts(&mut rng, 25),
        counts(&mut rng, 25),
        counts(&mut rng, 50),
        counts(&mut rng, 25),
    );
    // Reorder pairs first: they also reserve their neighbours.
    let reorders: HashSet<u64> = draw(&mut rng, &mut taken, n_reorders, true)
        .into_iter()
        .collect();
    let drops: HashSet<u64> = draw(&mut rng, &mut taken, n_drops, false)
        .into_iter()
        .collect();
    let duplicates: HashSet<u64> = draw(&mut rng, &mut taken, n_duplicates, false)
        .into_iter()
        .collect();
    let expired: HashSet<u64> = draw(&mut rng, &mut taken, n_expired, false)
        .into_iter()
        .collect();
    let urgent: HashSet<u64> = draw(&mut rng, &mut taken, n_urgent, false)
        .into_iter()
        .collect();

    let mut events = Vec::with_capacity(2 * MESSAGES as usize + 16);
    let push = |events: &mut Vec<Event>, at: u64, node: u64, kind: EventKind| {
        let seq = events.len() as u64;
        events.push(Event {
            seq,
            at: Timestamp::from_nanos(at),
            node: NodeId::from_raw(node),
            kind,
        });
    };
    let endpoint = |queue: u64| EndpointId::for_queue(QueueName::new(format!("q{queue}")));
    let start_ns = 1_000_000;
    push(
        &mut events,
        start_ns,
        0,
        EventKind::PhaseStarted { phase: Phase::Run },
    );
    for queue in 0..QUEUES {
        push(
            &mut events,
            start_ns,
            2,
            EventKind::ConsumerCreated {
                consumer: ConsumerId::from_raw(100 + queue),
                endpoint: endpoint(queue),
                session_mode: SessionMode::AutoAcknowledge,
                selector: None,
            },
        );
    }
    let mut tier_one = Properties::new();
    tier_one.set("tier", Value::Int(1)).expect("legal property");
    let mut expired_queues = HashSet::new();
    let mut last_ns = start_ns;
    // Per producer, a delivery held back until the producer's next
    // message has been delivered (a seeded reordering).
    let mut held: Vec<Option<EventKind>> = vec![None; PRODUCERS as usize];
    // Messages in send order; a message's receive(s) follow its send in
    // the log, so the log is far from canonical (time) order and replay
    // must sort it.
    for index in 0..MESSAGES {
        let producer = index % PRODUCERS;
        let queue = queue_of(producer);
        let sent_ns = start_ns + 1_000 + index * SEND_GAP_NS;
        let short_ttl = expired.contains(&index);
        if short_ttl {
            expired_queues.insert(queue);
        }
        let record = MessageRecord {
            message: MessageId::from_raw(index + 1),
            producer: ProducerId::from_raw(producer + 1),
            sequence: index / PRODUCERS,
            destination: Destination::queue(format!("q{queue}")),
            priority: Priority::DEFAULT,
            delivery_mode: DeliveryMode::Persistent,
            time_to_live: if short_ttl {
                TimeToLive::from_millis(1)
            } else {
                TimeToLive::FOREVER
            },
            sent_at: Timestamp::from_nanos(sent_ns),
            body_bytes: 256,
            redelivered: false,
            delivery_count: 1,
            properties: if urgent.contains(&index) {
                tier_one.clone()
            } else {
                Properties::new()
            },
        };
        push(
            &mut events,
            sent_ns,
            1,
            EventKind::Send {
                record: record.clone(),
                session: SessionId::from_raw(producer + 1),
                tx: None,
            },
        );
        if drops.contains(&index) {
            continue;
        }
        let received_ns = sent_ns + BASE_DELAY_NS + 1_000 + rng.below(JITTER_NS);
        let receive = EventKind::Receive {
            consumer: ConsumerId::from_raw(100 + queue),
            endpoint: endpoint(queue),
            record,
            session: SessionId::from_raw(100 + queue),
            tx: None,
        };
        let slot = &mut held[producer as usize];
        if reorders.contains(&index) {
            *slot = Some(receive);
            continue;
        }
        push(&mut events, received_ns, 2, receive.clone());
        if duplicates.contains(&index) {
            push(&mut events, received_ns + 1, 2, receive);
        }
        // The held delivery of the producer's previous message arrives
        // just after this one.
        if let Some(late) = slot.take() {
            push(&mut events, received_ns + 1, 2, late);
        }
        last_ns = last_ns.max(received_ns + 1);
    }
    push(
        &mut events,
        last_ns + 1_000_000,
        0,
        EventKind::PhaseStarted {
            phase: Phase::WarmDown,
        },
    );
    Synthetic {
        oracle: Oracle {
            drops: n_drops,
            duplicates: n_duplicates,
            reorders: n_reorders,
            expired: n_expired,
            expired_queues: expired_queues.len(),
            urgent: n_urgent,
            sends: MESSAGES as usize,
            receives: MESSAGES as usize - n_drops + n_duplicates,
        },
        events,
    }
}

/// The analyzer the resume path rebuilds verdicts with: every built-in
/// check plus the compiled DSL property.
fn analyzer() -> Analyzer {
    let properties = jmst_props::parse_properties(PROPERTIES).expect("property parses");
    Analyzer::new().with_registry(jmst_props::compile_registry(&properties))
}

/// Per-stage totals of a traced pass.
#[derive(Debug, Default)]
struct Stages {
    encode: Duration,
    decode: Duration,
    append: Duration,
    salvage: Duration,
    partition: Duration,
    sort: Duration,
    observe: Duration,
    finish: Duration,
}

/// Runs one resume-path stage; in a traced pass, inside a span and with
/// its time added to the stage's total.
fn stage<R>(
    tracer: Option<&Tracer>,
    stages: &mut Option<Stages>,
    total: fn(&mut Stages) -> &mut Duration,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    let started = Instant::now();
    let result = match tracer {
        Some(tracer) => tracer.span(name, f, |_| None),
        None => f(),
    };
    if let Some(stages) = stages.as_mut() {
        *total(stages) += started.elapsed();
    }
    result
}

/// One trip of the inputs through the live and resume paths.
struct Pass {
    /// Per-event time from `write_frame` to the journal append returning.
    latency: LogHistogram,
    wall: Duration,
    /// Journal closed → verdict in hand (salvage, partition, replay).
    resume: Duration,
    cpu: Duration,
    journal_bytes: u64,
    report: AnalysisReport,
    intact: bool,
    completed_tests: usize,
    stages: Option<Stages>,
}

fn run_pass(input: &Synthetic, journal_path: &Path, tracer: Option<&Tracer>) -> Pass {
    let key = JournalKey::from_passphrase("perfbench");
    let analyzer = analyzer();
    let cpu_before = sys::process_cpu();
    let started = Instant::now();
    let mut latency = LogHistogram::new();
    let mut stages = tracer.map(|_| Stages::default());
    let name = "replay-journal".to_owned();

    let mut journal = JournalWriter::create(journal_path, &key).expect("create journal");
    let append = |journal: &mut JournalWriter, record: &JournalRecord| {
        journal.append(record).expect("journal append");
    };
    append(
        &mut journal,
        &JournalRecord::CampaignStarted {
            campaign: "perfbench".to_owned(),
            tests: vec![name.clone()],
            spec_digest: schedule_digest(&[PROPERTIES]),
        },
    );
    append(
        &mut journal,
        &JournalRecord::TestStarted {
            index: 0,
            name: name.clone(),
            attempt: 1,
        },
    );
    let mut live = |journal: &mut JournalWriter, stages: &mut Option<Stages>| {
        let mut frame = Vec::with_capacity(1024);
        for (n, event) in input.events.iter().enumerate() {
            let t0 = Instant::now();
            frame.clear();
            // As the worker's wire sink does: clone the event into a frame.
            write_frame(
                &mut frame,
                &WireMessage::Event {
                    event: event.clone(),
                },
            )
            .expect("encode frame");
            let t1 = Instant::now();
            let decoded = match read_frame(&mut frame.as_slice()) {
                Ok(Some(WireMessage::Event { event })) => event,
                other => panic!("frame did not decode to an event: {other:?}"),
            };
            let t2 = Instant::now();
            append(
                journal,
                &JournalRecord::Event {
                    index: 0,
                    event: decoded,
                },
            );
            let t3 = Instant::now();
            latency.record(t3 - t0);
            if let (Some(stages), Some(tracer)) = (stages.as_mut(), tracer) {
                stages.encode += t1 - t0;
                stages.decode += t2 - t1;
                stages.append += t3 - t2;
                if n % SPAN_SAMPLE == 0 {
                    let ns = |at: Instant| tracer.ns_at(at);
                    let request = event
                        .kind
                        .message_record()
                        .map(|record| record.message.as_u64());
                    tracer.record("harness.frame_encode", ns(t0), ns(t1), request);
                    tracer.record("harness.frame_decode", ns(t1), ns(t2), request);
                    tracer.record("store.journal_append", ns(t2), ns(t3), request);
                }
            }
        }
    };
    match tracer {
        Some(tracer) => tracer.span("replay.live", || live(&mut journal, &mut stages), |_| None),
        None => live(&mut journal, &mut stages),
    }
    append(
        &mut journal,
        &JournalRecord::TestFinished {
            index: 0,
            name: name.clone(),
            verdict: VerdictRecord {
                status: "collected".to_owned(),
                detail: String::new(),
                violations: 0,
                sends: input.oracle.sends as u64,
                receives: input.oracle.receives as u64,
            },
        },
    );
    append(
        &mut journal,
        &JournalRecord::CampaignFinished {
            passed: 0,
            violated: 1,
            failed: 0,
        },
    );
    drop(journal);
    let journal_bytes = std::fs::metadata(journal_path).map_or(0, |meta| meta.len());

    // The resume path: journal → verified prefix → tests → verdict.
    let resume_started = Instant::now();
    let salvage = stage(
        tracer,
        &mut stages,
        |s| &mut s.salvage,
        "store.salvage",
        || Journal::salvage(journal_path, &key).expect("salvage journal"),
    );
    let intact = salvage.intact();
    let replay = stage(
        tracer,
        &mut stages,
        |s| &mut s.partition,
        "core.partition",
        || partition_journal(&salvage.records),
    );
    drop(salvage);
    let completed_tests = replay.completed.len();
    let events = replay
        .completed
        .into_iter()
        .next()
        .map(|test| test.events)
        .unwrap_or_default();
    let report = if tracer.is_none() {
        replay_events(&analyzer, events)
    } else {
        // `replay_events`, stage by stage: sort, observe, finish.
        let trace = stage(
            tracer,
            &mut stages,
            |s| &mut s.sort,
            "store.trace_sort",
            || Trace::from_events(events),
        );
        let mut streaming = analyzer.streaming();
        stage(
            tracer,
            &mut stages,
            |s| &mut s.observe,
            "core.observe",
            || {
                for event in trace.events() {
                    streaming.observe(event);
                }
            },
        );
        stage(
            tracer,
            &mut stages,
            |s| &mut s.finish,
            "core.finish",
            || streaming.finish(),
        )
    };
    let resume = resume_started.elapsed();
    let wall = started.elapsed();
    let cpu = sys::process_cpu() - cpu_before;
    let _ = std::fs::remove_file(journal_path);
    Pass {
        latency,
        wall,
        resume,
        cpu,
        journal_bytes,
        report,
        intact,
        completed_tests,
        stages,
    }
}

/// Compares a pass's verdict with the seeded oracle; returns the number
/// of mismatches.
fn check_pass(pass: &Pass, oracle: &Oracle, out: &mut Outcome) -> u64 {
    let report = &pass.report;
    let expiry_expected: u64 = report.expiry.iter().map(|b| b.expected_expired).sum();
    let expiry_delivered: u64 = report.expiry.iter().map(|b| b.expired_delivered).sum();
    let expected = [
        (PropertyKind::DeliveryIntegrity, 0),
        (PropertyKind::RequiredMessages, oracle.drops),
        (PropertyKind::MessageOrdering, oracle.reorders),
        (PropertyKind::MessagePriority, 0),
        (PropertyKind::ExpiredMessages, oracle.expired_queues),
        (PropertyKind::DuplicateDelivery, oracle.duplicates),
        (PropertyKind::BoundedRedelivery, 0),
        (PropertyKind::Deadline, oracle.urgent),
        (PropertyKind::SloWindow, 0),
    ];
    let mut mismatches = 0;
    for (kind, want) in expected {
        let got = report.count_of(kind);
        out.check(
            format!("{kind}: {got} violations, oracle {want}"),
            got == want,
        );
        mismatches += u64::from(got != want);
    }
    let facts = [
        ("sends", report.sends, oracle.sends),
        ("receives", report.receives, oracle.receives),
        ("expired expected", expiry_expected as usize, oracle.expired),
        (
            "expired delivered",
            expiry_delivered as usize,
            oracle.expired,
        ),
        ("completed tests", pass.completed_tests, 1),
    ];
    for (what, got, want) in facts {
        out.check(format!("{what}: {got}, oracle {want}"), got == want);
        mismatches += u64::from(got != want);
    }
    out.check("journal salvaged intact", pass.intact);
    mismatches + u64::from(!pass.intact)
}

/// Runs the workload: passes over fresh journals until `seconds` have
/// passed (at least one), reporting interquartile means over the passes.
/// With `trace`, the passes share half the window and one traced pass
/// follows.
pub fn run(seed: u64, seconds: f64, work_dir: &Path, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    std::fs::create_dir_all(work_dir).expect("create work directory");
    let journal_path = work_dir.join(format!("replay-{}.jnl", std::process::id()));
    let (setup_s, input) = timed_median(SETUP_REPEATS, || {
        let input = generate(seed);
        let warm_up = run_pass(&input, &journal_path, None);
        out.attempted += input.events.len() as u64;
        out.failed += check_pass(&warm_up, &input.oracle, &mut out);
        input
    });
    let oracle = input.oracle;
    let events = input.events.len() as u64;
    let receives = oracle.receives as u64;

    let budget = Duration::from_secs_f64(if trace { seconds / 2.0 } else { seconds });
    let window = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.is_empty() || window.elapsed() + passes[0].wall < budget {
        // Each pass starts from the same allocator state.
        sys::release_free_memory();
        let pass = run_pass(&input, &journal_path, None);
        out.attempted += events;
        out.failed += check_pass(&pass, &oracle, &mut out);
        println!(
            "pass {}: wall {:.3} s, resume {:.3} s, cpu {:.2} us/msg",
            passes.len(),
            pass.wall.as_secs_f64(),
            pass.resume.as_secs_f64(),
            micros(pass.cpu) / receives as f64
        );
        passes.push(pass);
    }
    let per = |f: &dyn Fn(&Pass) -> f64| iqm(&passes.iter().map(f).collect::<Vec<_>>());
    let n = passes.len() as u64;
    out.push("setup_s", "s", setup_s, SETUP_REPEATS as u64);
    out.push(
        "delivery_p50_us",
        "us",
        per(&|p| quantile_us(&p.latency, 0.5)),
        events * n,
    );
    out.push(
        "delivery_p99_us",
        "us",
        per(&|p| quantile_us(&p.latency, 0.99)),
        events * n,
    );
    let delivered = per(&|p| receives as f64 / p.wall.as_secs_f64());
    out.push("delivered_msgs_per_s", "1/s", delivered, receives * n);
    let cpu_per_msg = per(&|p| micros(p.cpu) / receives as f64);
    out.push("cpu_us_per_msg", "us", cpu_per_msg, receives * n);
    out.push("peak_rss_mb", "MB", sys::peak_rss_mb(), 1);
    out.push("verdict_wait_s", "s", per(&|p| p.resume.as_secs_f64()), n);
    out.push(
        "analysis_events_per_s",
        "1/s",
        per(&|p| events as f64 / p.wall.as_secs_f64()),
        events * n,
    );
    if !trace {
        return out;
    }
    drop(passes);

    let tracer = Tracer::new();
    let pass = tracer.span(
        "replay.pass",
        || run_pass(&input, &journal_path, Some(&tracer)),
        |_| None,
    );
    out.attempted += events;
    out.failed += check_pass(&pass, &oracle, &mut out);
    let stages = pass.stages.as_ref().expect("traced pass has stages");
    let per_event = |d: Duration| d.as_nanos() as f64 / events as f64;
    out.push(
        "harness.frame_encode_ns_per_event",
        "ns",
        per_event(stages.encode),
        events,
    );
    out.push(
        "harness.frame_decode_ns_per_event",
        "ns",
        per_event(stages.decode),
        events,
    );
    out.push(
        "store.journal_append_ns_per_event",
        "ns",
        per_event(stages.append),
        events,
    );
    out.push(
        "store.journal_bytes_per_event",
        "B",
        pass.journal_bytes as f64 / events as f64,
        events,
    );
    out.push(
        "store.salvage_ns_per_event",
        "ns",
        per_event(stages.salvage),
        events,
    );
    out.push(
        "core.partition_ns_per_event",
        "ns",
        per_event(stages.partition),
        events,
    );
    out.push(
        "store.trace_sort_ns_per_event",
        "ns",
        per_event(stages.sort),
        events,
    );
    out.push(
        "core.observe_ns_per_event",
        "ns",
        per_event(stages.observe),
        events,
    );
    out.push("core.finish_ms", "ms", stages.finish.as_secs_f64() * 1e3, 1);
    let attributed = stages.encode
        + stages.decode
        + stages.append
        + stages.salvage
        + stages.partition
        + stages.sort
        + stages.observe
        + stages.finish;
    out.push(
        "reconcile.unattributed_share",
        "ratio",
        1.0 - attributed.as_secs_f64() / pass.wall.as_secs_f64(),
        1,
    );
    // The DSL registry alone over the same events, outside the pass.
    let properties = jmst_props::parse_properties(PROPERTIES).expect("property parses");
    let props_only = Analyzer::with_config(crate::certify::checks_off())
        .with_registry(jmst_props::compile_registry(&properties));
    let sorted = Trace::from_events(input.events.clone());
    let (props_ns, _) = crate::certify::observe_cost(&props_only, sorted.events());
    out.push("props.observe_ns_per_event", "ns", props_ns, events);
    out.push(
        "traced.delivery_p50_us",
        "us",
        quantile_us(&pass.latency, 0.5),
        pass.latency.count(),
    );
    let traced_cpu = micros(pass.cpu) / receives as f64;
    out.push("traced.cpu_us_per_msg", "us", traced_cpu, receives);
    out.push(
        "traced.delivered_msgs_per_s",
        "1/s",
        receives as f64 / pass.wall.as_secs_f64(),
        receives,
    );
    out.push(
        "tracing_overhead_share",
        "ratio",
        traced_cpu / cpu_per_msg - 1.0,
        2,
    );
    let spans = tracer.take();
    println!(
        "replay.pass self time outside its child spans: {:.1} ms",
        spans::self_time_ns(&spans, "replay.pass") as f64 / 1e6
    );
    spans::save(work_dir, &format!("replay-journal-seed{seed}"), &spans);
    out
}
