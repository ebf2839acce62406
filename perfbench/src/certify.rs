//! `certify-fanout`: a closed-loop certification run through
//! `DaemonPrince::run_test_collected`, saturated on purpose.
//!
//! Two producers with different properties and body kinds publish to one
//! topic faster than the harness can sustain; four subscribers listen
//! (an equality selector, a contingent conjunction, an always-true
//! selector and no selector), and a `[properties]` section adds a
//! deadline and a latency-p99 SLO. The recorder, selector fan-out and
//! the live streaming and DSL checkers do the work; `jmst-load` does
//! none. Because the run is saturated, its throughput measures capacity.

use crate::decorate::{Probe, TracedProvider};
use crate::report::{iqm, percentile_ns, timed_median, Outcome};
use crate::spans::{self, Tracer};
use crate::sys;
use jmst_api::provider::Provider;
use jmst_api::time::{Clock, SystemClock, Timestamp};
use jmst_core::{AnalysisConfig, Analyzer};
use jmst_harness::prince::{DaemonPrince, TestOutcome};
use jmst_harness::princed::spec_factory;
use jmst_harness::runner::BrokerAdmin;
use jmst_harness::{lint_spec, parse_spec, TestSpec};
use jmst_store::{Event, EventKind, Phase};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Run phase of each measured test. A saturated second records about
/// 200K events, which the prince holds in memory until the verdict, so
/// the window is split into several short tests rather than one long one.
const RUN: Duration = Duration::from_secs(1);
/// Wall time one test takes, about: warm-up, run, then the drain and the
/// live analysis catching up.
const SECONDS_PER_TEST: f64 = 2.2;
/// Fewest tests in a window; per-test figures are reported as their
/// interquartile mean.
const MIN_TESTS: usize = 3;
/// Set-ups per run; the reported `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Run phase of the warm-up test inside each set-up.
const WARM_UP_RUN: Duration = Duration::from_millis(100);

/// The scenario, in the harness's own config format. The seed drives the
/// producers' arrival streams.
fn spec_text(seed: u64, run: Duration) -> String {
    format!(
        r#"
[test]
name = certify-fanout
seed = {seed}
warm_up = 100ms
run = {run_ms}ms
warm_down = 5s
drain_quiet = 100ms
drivers = reactor
shards = 4

[node producers]

[producer]
destination = topic:orders
rate = steady 50000
body = text 256
prop = region 'emea'
prop = tier 3

[producer]
destination = topic:orders
rate = poisson 50000
body = bytes 512
prop = region 'apac'
prop = tier 1

[node consumers]

[consumer]
destination = topic:orders
selector = region = 'emea'

[consumer]
destination = topic:orders
selector = region = 'apac' AND tier <= 2

[consumer]
destination = topic:orders
selector = JMSPriority >= 0

[consumer]
destination = topic:orders

[properties]
prompt = deadline 2s
tail = latency p99 <= 1s
"#,
        run_ms = run.as_millis()
    )
}

/// Everything the prince needs that can be built before the run, with
/// the time its static-analysis steps took.
struct Setup {
    spec: TestSpec,
    lint_ms: f64,
    compile_ms: f64,
}

/// Parses, lints and compiles the spec, then runs one short warm-up
/// certification (its verdict must pass too) so that allocator and broker
/// paths are warm before the measured tests.
fn set_up(seed: u64, out: &mut Outcome) -> Setup {
    let spec = parse_spec(&spec_text(seed, RUN)).expect("certify-fanout spec parses");
    let started = Instant::now();
    let lint = lint_spec(&spec);
    let lint_ms = started.elapsed().as_secs_f64() * 1e3;
    assert!(
        !lint.has_errors(),
        "certify-fanout spec lints clean: {lint}"
    );
    let started = Instant::now();
    let registry = jmst_props::compile_registry(&spec.properties);
    let compile_ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(registry.len(), spec.properties.len());
    let warm_up = parse_spec(&spec_text(seed, WARM_UP_RUN)).expect("warm-up spec parses");
    let result = DaemonPrince::new().run_test(&spec_factory, &warm_up);
    out.check("warm-up test: PASS", result.outcome.passed());
    Setup {
        spec,
        lint_ms,
        compile_ms,
    }
}

/// What one certification test measured.
struct TestRun {
    passed: bool,
    sends: u64,
    send_failures: u64,
    receives: u64,
    consumer_msgs_per_s: f64,
    /// Send→receive delays of every delivery, sorted, in ns.
    delays_ns: Vec<u64>,
    cpu: Duration,
    verdict_wait_s: f64,
}

/// Runs one certification test; returns its figures and the collected
/// events.
fn run_test(
    prince: &DaemonPrince,
    spec: &TestSpec,
    probe: Option<&Probe>,
) -> (TestRun, Vec<Event>) {
    let factory = |spec: &TestSpec| -> (Arc<dyn Provider>, Option<Arc<dyn BrokerAdmin>>) {
        let (provider, admin) = spec_factory(spec);
        match probe {
            Some(probe) => (
                Arc::new(TracedProvider::new(provider, probe.clone())),
                admin,
            ),
            None => (provider, admin),
        }
    };
    // Return the previous test's freed memory first, so that each test's
    // peak starts from the same baseline.
    sys::release_free_memory();
    let clock = SystemClock::new();
    let cpu_before = sys::process_cpu();
    let (result, events) = prince.run_test_collected(&factory, spec);
    let verdict_at = clock.now();
    let cpu = sys::process_cpu() - cpu_before;

    let warm_down_at = events
        .iter()
        .find_map(|event| match event.kind {
            EventKind::PhaseStarted {
                phase: Phase::WarmDown,
            } => Some(event.at),
            _ => None,
        })
        .unwrap_or(Timestamp::ZERO);
    let mut delays_ns = Vec::new();
    let mut send_failures = 0;
    for event in &events {
        match &event.kind {
            EventKind::Receive { record, .. } => {
                delays_ns.push(event.at.saturating_since(record.sent_at).as_nanos() as u64);
            }
            EventKind::SendFailed { .. } => send_failures += 1,
            _ => {}
        }
    }
    delays_ns.sort_unstable();
    let report = result.outcome.report();
    if !result.outcome.passed() {
        eprintln!(
            "certify-fanout: test did not pass: {:?}",
            summary(&result.outcome)
        );
    }
    let run = TestRun {
        passed: result.outcome.passed(),
        sends: report.map_or(0, |r| r.sends as u64),
        send_failures,
        receives: report.map_or(0, |r| r.receives as u64),
        consumer_msgs_per_s: report
            .map_or(0.0, |r| r.performance.consumer_throughput.messages_per_sec),
        delays_ns,
        cpu,
        verdict_wait_s: verdict_at.saturating_since(warm_down_at).as_secs_f64(),
    };
    (run, events)
}

fn summary(outcome: &TestOutcome) -> String {
    match outcome.report() {
        Some(report) => report.to_string(),
        None => format!("{outcome:?}"),
    }
}

/// Interquartile means over one window's tests.
struct WindowFigures {
    delivery_p50_us: f64,
    delivery_p99_us: f64,
    delivered_msgs_per_s: f64,
    cpu_us_per_msg: f64,
    verdict_wait_s: f64,
    deliveries: u64,
    tests: u64,
}

/// Runs enough certification tests to fill about `seconds` (at least
/// [`MIN_TESTS`]) and folds their checks into `out`. In a traced window,
/// also returns the last test's collected events, over which the
/// checkers' cost is measured.
fn run_window(
    spec: &TestSpec,
    seconds: f64,
    probe: Option<&Probe>,
    out: &mut Outcome,
) -> (WindowFigures, Vec<Event>) {
    let tests = ((seconds / SECONDS_PER_TEST) as usize).max(MIN_TESTS);
    let prince = DaemonPrince::new();
    let mut runs = Vec::with_capacity(tests);
    let mut kept = Vec::new();
    for _ in 0..tests {
        // Only one test's trace is ever held.
        drop(std::mem::take(&mut kept));
        let (run, events) = run_test(&prince, spec, probe);
        if probe.is_some() {
            kept = events;
        }
        runs.push(run);
    }
    for (index, run) in runs.iter().enumerate() {
        println!(
            "test {index}: {:.0} msg/s delivered, delivery p50 {:.1} us, p99 {:.1} us, cpu {:.2} us/msg, verdict wait {:.3} s",
            run.consumer_msgs_per_s,
            percentile_ns(&run.delays_ns, 0.5) / 1e3,
            percentile_ns(&run.delays_ns, 0.99) / 1e3,
            run.cpu.as_secs_f64() * 1e6 / run.receives.max(1) as f64,
            run.verdict_wait_s
        );
        out.attempted += run.sends + 1;
        out.failed += run.send_failures + u64::from(!run.passed);
        out.check(
            format!(
                "test {index}: PASS ({} sends, {} receives)",
                run.sends, run.receives
            ),
            run.passed,
        );
        out.check(
            format!("test {index}: no failed sends ({})", run.send_failures),
            run.send_failures == 0,
        );
    }
    let per = |f: &dyn Fn(&TestRun) -> f64| iqm(&runs.iter().map(f).collect::<Vec<_>>());
    let figures = WindowFigures {
        delivery_p50_us: per(&|run| percentile_ns(&run.delays_ns, 0.5) / 1e3),
        delivery_p99_us: per(&|run| percentile_ns(&run.delays_ns, 0.99) / 1e3),
        delivered_msgs_per_s: per(&|run| run.consumer_msgs_per_s),
        cpu_us_per_msg: per(&|run| run.cpu.as_secs_f64() * 1e6 / run.receives.max(1) as f64),
        verdict_wait_s: per(&|run| run.verdict_wait_s),
        deliveries: runs.iter().map(|run| run.delays_ns.len() as u64).sum(),
        tests: runs.len() as u64,
    };
    (figures, kept)
}

fn untraced(seed: u64, seconds: f64, out: &mut Outcome) -> (WindowFigures, Setup) {
    let (setup_s, setup) = timed_median(SETUP_REPEATS, || set_up(seed, out));
    let (figures, _) = run_window(&setup.spec, seconds, None, out);
    out.push("setup_s", "s", setup_s, SETUP_REPEATS as u64);
    out.push(
        "delivery_p50_us",
        "us",
        figures.delivery_p50_us,
        figures.deliveries,
    );
    out.push(
        "delivery_p99_us",
        "us",
        figures.delivery_p99_us,
        figures.deliveries,
    );
    out.push(
        "delivered_msgs_per_s",
        "1/s",
        figures.delivered_msgs_per_s,
        figures.tests,
    );
    out.push(
        "cpu_us_per_msg",
        "us",
        figures.cpu_us_per_msg,
        figures.tests,
    );
    out.push("peak_rss_mb", "MB", sys::peak_rss_mb(), 1);
    out.push("verdict_wait_s", "s", figures.verdict_wait_s, figures.tests);
    (figures, setup)
}

/// Runs the workload. With `trace_dir`, half the window runs untraced
/// and half through the decorated provider; the per-layer metrics come
/// from the traced half.
pub fn run(seed: u64, seconds: f64, trace_dir: Option<&Path>) -> Outcome {
    let mut out = Outcome::default();
    let Some(trace_dir) = trace_dir else {
        untraced(seed, seconds, &mut out);
        return out;
    };
    let (base, setup) = untraced(seed, seconds / 2.0, &mut out);
    out.push("harness.lint_ms", "ms", setup.lint_ms, 1);
    out.push("harness.compile_registry_ms", "ms", setup.compile_ms, 1);

    let tracer = Tracer::new();
    let probe = Probe::new(Arc::clone(&tracer));
    let (traced, events) = run_window(&setup.spec, seconds / 2.0, Some(&probe), &mut out);
    let spans = tracer.take();
    probe.report(&spans, &mut out);

    // The checkers' cost over this workload's collected events, outside
    // the live run: the full analyzer, then the DSL registry alone.
    let registry = jmst_props::compile_registry(&setup.spec.properties);
    let analyzer = Analyzer::new().with_registry(registry.clone());
    let (observe_ns, finish_ms) = observe_cost(&analyzer, &events);
    out.push(
        "core.observe_ns_per_event",
        "ns",
        observe_ns,
        events.len() as u64,
    );
    out.push("core.finish_ms", "ms", finish_ms, 1);
    let props_only = Analyzer::with_config(checks_off()).with_registry(registry);
    let (props_ns, _) = observe_cost(&props_only, &events);
    out.push(
        "props.observe_ns_per_event",
        "ns",
        props_ns,
        events.len() as u64,
    );

    out.push(
        "traced.delivery_p50_us",
        "us",
        traced.delivery_p50_us,
        traced.deliveries,
    );
    out.push(
        "traced.cpu_us_per_msg",
        "us",
        traced.cpu_us_per_msg,
        traced.tests,
    );
    out.push(
        "traced.delivered_msgs_per_s",
        "1/s",
        traced.delivered_msgs_per_s,
        traced.tests,
    );
    out.push(
        "tracing_overhead_share",
        "ratio",
        traced.cpu_us_per_msg / base.cpu_us_per_msg - 1.0,
        2,
    );
    spans::save(trace_dir, &format!("certify-fanout-seed{seed}"), &spans);
    out
}

/// Every built-in check off: only a registry's named checkers run.
pub fn checks_off() -> AnalysisConfig {
    AnalysisConfig {
        check_integrity: false,
        check_required: false,
        check_ordering: false,
        check_priority: false,
        check_expiry: false,
        check_duplicates: false,
        redelivery_bound: None,
        ..AnalysisConfig::default()
    }
}

/// Streams `events` through a fresh pass of `analyzer`: ns per observed
/// event, and the `finish` time in ms.
pub fn observe_cost(analyzer: &Analyzer, events: &[Event]) -> (f64, f64) {
    let mut streaming = analyzer.streaming();
    let started = Instant::now();
    for event in events {
        streaming.observe(std::hint::black_box(event));
    }
    let observe = started.elapsed();
    let started = Instant::now();
    std::hint::black_box(streaming.finish());
    let finish = started.elapsed();
    (
        observe.as_nanos() as f64 / events.len().max(1) as f64,
        finish.as_secs_f64() * 1e3,
    )
}
