//! Differential test for the multi-process prince: running a spec's
//! drivers in a worker process (framed protocol, events over the wire)
//! must be observationally identical to running them as threads — same
//! analyzer verdict, same per-consumer delivery multisets — at shard
//! counts 1 and 8, and even when the worker is SIGKILLed mid-run (the
//! prince respawns it and the aborted attempt's events are discarded).
//! Process-mode campaigns running at once in one process must not
//! collide on their worker sockets.
//!
//! Worker processes are the `jmst-princed` binary itself, located via
//! `CARGO_BIN_EXE_jmst-princed`.

use jmst::harness::princed::{spec_factory, ChaosKill, ProcessPrince};
use jmst::harness::process::WorkerCommand;
use jmst::harness::spec::{
    ConsumerSpec, NodeSpec, ProducerSpec, TestSpec, TransportMode, TransportSpec,
};
use jmst_api::destination::Destination;
use jmst_store::{EventKind, Trace};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn worker() -> WorkerCommand {
    WorkerCommand::new(env!("CARGO_BIN_EXE_jmst-princed"))
}

/// A deterministic two-queue spec: message-limited producers, one
/// consumer per queue, clean broker — every sent message is delivered
/// exactly once regardless of scheduling, so the delivery multiset is a
/// function of the spec alone.
fn diff_spec(name: &str, shards: u32) -> TestSpec {
    TestSpec::new(name)
        .with_seed(17)
        .with_periods(
            Duration::from_millis(50),
            Duration::from_millis(500),
            Duration::from_secs(3),
        )
        .with_shards(shards)
        .with_transport(TransportSpec::process().with_respawn_limit(3))
        .node(
            NodeSpec::new("n0")
                .producer(ProducerSpec::steady(Destination::queue("diff-a"), 200.0, 64).limited(50))
                .producer(ProducerSpec::steady(Destination::queue("diff-b"), 150.0, 96).limited(30))
                .consumer(ConsumerSpec::auto(Destination::queue("diff-a")))
                .consumer(ConsumerSpec::auto(Destination::queue("diff-b"))),
        )
}

/// Runs `spec` under the given transport mode and returns the stable
/// verdict line plus the persisted trace.
fn run_mode(
    spec: &TestSpec,
    mode: TransportMode,
    tag: &str,
    chaos: Option<ChaosKill>,
) -> (String, Trace) {
    let dir = std::env::temp_dir().join(format!("jmst-procdiff-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut prince = ProcessPrince::new()
        .with_worker(worker())
        .with_trace_dir(&dir)
        .with_mode_override(mode);
    if let Some(kill) = chaos {
        prince = prince.with_chaos_kill(kill);
    }
    let report = prince
        .run_campaign("differential", &spec_factory, std::slice::from_ref(spec))
        .expect("campaign runs");
    assert_eq!(report.results.len(), 1);
    let summary = report.stable_summary();
    let sanitized: String = spec
        .name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect();
    let path: PathBuf = dir.join(format!("{sanitized}.trace.jsonl"));
    let trace = Trace::load_jsonl(&path).expect("trace persisted");
    std::fs::remove_dir_all(&dir).ok();
    (summary, trace)
}

/// Per-consumer delivery multiset: each consumer is identified by the
/// destination it drains (raw consumer ids depend on driver start-up
/// order, which is not part of the spec's observable behaviour; each
/// consumer in the spec has a unique destination). Value: multiset of
/// `(producer, sequence)` pairs that consumer received.
fn delivery_multisets(trace: &Trace) -> BTreeMap<String, BTreeMap<(u64, u64), u32>> {
    let mut sets: BTreeMap<String, BTreeMap<(u64, u64), u32>> = BTreeMap::new();
    let mut consumers: BTreeMap<u64, String> = BTreeMap::new();
    for event in trace.events() {
        if let EventKind::Receive {
            consumer, record, ..
        } = &event.kind
        {
            let key = consumers
                .entry(consumer.as_u64())
                .or_insert_with(|| format!("{:?}", record.destination))
                .clone();
            *sets
                .entry(key)
                .or_default()
                .entry((record.producer.as_u64(), record.sequence))
                .or_insert(0u32) += 1;
        }
    }
    sets
}

fn assert_modes_agree(shards: u32, chaos: Option<ChaosKill>, tag: &str) {
    let spec = diff_spec(&format!("procdiff-{tag}"), shards);
    let (thread_summary, thread_trace) =
        run_mode(&spec, TransportMode::Thread, &format!("{tag}-thread"), None);
    let (process_summary, process_trace) = run_mode(
        &spec,
        TransportMode::Process,
        &format!("{tag}-process"),
        chaos,
    );
    assert_eq!(
        thread_summary, process_summary,
        "verdicts diverge between thread and process mode"
    );
    assert!(
        thread_summary.contains("PASS"),
        "the clean spec must pass: {thread_summary}"
    );
    let thread_sets = delivery_multisets(&thread_trace);
    let process_sets = delivery_multisets(&process_trace);
    assert_eq!(
        thread_sets, process_sets,
        "per-consumer delivery multisets diverge"
    );
    // Sanity: both consumers actually received their full queues.
    assert_eq!(thread_sets.len(), 2, "two consumers expected");
    let total: u32 = thread_sets.values().flat_map(|s| s.values()).sum();
    assert_eq!(total, 80, "50 + 30 limited messages delivered exactly once");
}

#[test]
fn process_mode_matches_thread_mode_one_shard() {
    assert_modes_agree(1, None, "s1");
}

#[test]
fn process_mode_matches_thread_mode_eight_shards() {
    assert_modes_agree(8, None, "s8");
}

#[test]
fn concurrent_process_campaigns_do_not_share_worker_sockets() {
    // Every campaign picks its own worker socket: four process-mode
    // campaigns in one process, all at once, must each pass rather than
    // unlink each other's sockets and end inconclusive.
    const CAMPAIGNS: usize = 4;
    let start = Arc::new(Barrier::new(CAMPAIGNS));
    let campaigns: Vec<_> = (0..CAMPAIGNS)
        .map(|i| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let spec = diff_spec(&format!("procdiff-concurrent-{i}"), 1);
                start.wait();
                let report = ProcessPrince::new()
                    .with_worker(worker())
                    .with_mode_override(TransportMode::Process)
                    .run_campaign("concurrent", &spec_factory, std::slice::from_ref(&spec))
                    .expect("campaign runs");
                report.stable_summary()
            })
        })
        .collect();
    for campaign in campaigns {
        let summary = campaign.join().expect("campaign thread");
        assert!(
            summary.contains("PASS") && !summary.contains("INCONCLUSIVE"),
            "a concurrent campaign did not pass: {summary}"
        );
    }
}

#[test]
fn kill_dash_nine_mid_run_is_respawned_and_verdicts_still_agree() {
    // The worker is SIGKILLed after 20 collected events; the prince
    // reaps it, discards the aborted attempt, respawns, and the rerun's
    // verdict and delivery multisets equal the uninterrupted thread run.
    assert_modes_agree(
        1,
        Some(ChaosKill {
            test_index: 0,
            after_events: 20,
        }),
        "kill9",
    );
}
