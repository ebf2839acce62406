//! `queue-1k` and `queue-1m`: open-loop Poisson load through the
//! reference broker into one queue, drained by two competing consumers.
//!
//! Both workloads offer the same broker traffic (20,000 msg/s of 1 KiB
//! text bodies, one generator worker, one drain worker); they differ
//! only in how many virtual clients share that rate. With 1,000 clients
//! the generator is idle and the broker, reactor wake and consumer
//! receive do the work; with 1,000,000 clients generator set-up and
//! timers dominate. A generator fix should move only `queue-1m`; a
//! broker fix should move both alike.

use crate::decorate::{Probe, TimedTransport, TracedProvider};
use crate::report::{iqm, median, micros, quantile_us, Outcome};
use crate::spans::{self, Tracer};
use crate::sys;
use jmst_api::destination::Destination;
use jmst_api::message::MessageDraft;
use jmst_api::modes::SessionMode;
use jmst_api::provider::{Connection, Consumer, Producer, Provider, Session};
use jmst_api::value::Value;
use jmst_broker::{BrokerConfig, ReferenceBroker};
use jmst_load::{
    ClientSpec, DrainPump, DrainReport, EngineReport, LoadEngine, SendDisposition, Transport,
    INTENDED_NS_PROP,
};
use jmst_sim::{ArrivalProcess, SimRng};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Aggregate offered rate, msg/s.
const RATE: f64 = 20_000.0;
/// Body size of every message, bytes.
const BODY_BYTES: usize = 1024;
/// Broker shards, pinned so the machine's core count does not change
/// the broker under test.
const SHARDS: usize = 4;
/// Competing consumers on the queue.
const CONSUMERS: usize = 2;
/// Messages pushed through the broker during set-up so that allocator
/// and broker structures are warm before the window opens.
const WARMUP_MESSAGES: usize = 4_000;

/// The provider objects one transport sends through, opened on first use.
type ProducerChain = (Box<dyn Connection>, Box<dyn Session>, Box<dyn Producer>);

/// Sends through one lazily opened producer chain, stamping each message
/// with its intended send time so the drain measures delivery latency
/// from when the message was due.
struct BrokerTransport {
    provider: Arc<dyn Provider>,
    /// The drain's epoch; intended times are re-based onto it.
    epoch: Instant,
    body: String,
    chain: Option<ProducerChain>,
}

impl Transport for BrokerTransport {
    fn send(
        &mut self,
        _client: u32,
        _seq: u64,
        intended: Duration,
        now: Duration,
    ) -> SendDisposition {
        if self.chain.is_none() {
            let opened = self
                .provider
                .create_connection(None)
                .and_then(|mut connection| {
                    let mut session = connection.create_session(SessionMode::AutoAcknowledge)?;
                    let producer = session.create_producer(&destination())?;
                    Ok((connection, session, producer))
                });
            match opened {
                Ok(chain) => self.chain = Some(chain),
                Err(error) => return SendDisposition::Abort(error.to_string()),
            }
        }
        // `now` and `intended` are offsets from the engine's epoch; at
        // this moment `epoch.elapsed()` corresponds to `now`.
        let intended_ns = self
            .epoch
            .elapsed()
            .saturating_sub(now.saturating_sub(intended))
            .as_nanos() as i64;
        let draft = MessageDraft::text(self.body.clone())
            .property(INTENDED_NS_PROP, Value::Long(intended_ns))
            .expect("legal property name");
        let (_, _, producer) = self.chain.as_mut().expect("chain opened above");
        match producer.send(draft) {
            Ok(_) => SendDisposition::Sent,
            Err(_) => SendDisposition::RetryAfter(Duration::from_millis(1)),
        }
    }

    fn finish(&mut self) {
        if let Some((mut connection, mut session, _producer)) = self.chain.take() {
            let _ = session.close();
            let _ = connection.close();
        }
    }
}

/// A transport that sends nothing: the generator's own floor.
struct NullTransport;

impl Transport for NullTransport {
    fn send(&mut self, _c: u32, _s: u64, _i: Duration, _n: Duration) -> SendDisposition {
        SendDisposition::Sent
    }
}

fn destination() -> Destination {
    Destination::queue("perfbench")
}

/// The virtual clients: `count` Poisson streams sharing [`RATE`], each
/// derived from the run seed.
fn clients(seed: u64, count: usize) -> Vec<ClientSpec> {
    let base = SimRng::seed_from_u64(seed);
    let per_client = RATE / count as f64;
    (0..count)
        .map(|index| {
            ClientSpec::new(
                ArrivalProcess::poisson(per_client).generator(base.derive(index as u64)),
            )
        })
        .collect()
}

/// Everything built before the window opens.
struct Setup {
    broker: Arc<dyn Provider>,
    rx_connection: Box<dyn Connection>,
    rx_session: Box<dyn Session>,
    consumers: Vec<Box<dyn Consumer>>,
    clients: Vec<ClientSpec>,
}

fn set_up(seed: u64, client_count: usize, probe: Option<&Probe>) -> Setup {
    let bare: Arc<dyn Provider> = Arc::new(ReferenceBroker::with_config(
        BrokerConfig::correct().with_shards(SHARDS),
    ));
    let broker: Arc<dyn Provider> = match probe {
        Some(probe) => Arc::new(TracedProvider::new(bare, probe.clone())),
        None => bare,
    };
    let mut rx_connection = broker.create_connection(None).expect("consumer connection");
    let mut rx_session = rx_connection
        .create_session(SessionMode::AutoAcknowledge)
        .expect("consumer session");
    let mut consumers: Vec<Box<dyn Consumer>> = (0..CONSUMERS)
        .map(|_| {
            rx_session
                .create_consumer(&destination(), None)
                .expect("consumer")
        })
        .collect();
    rx_connection.start().expect("start delivery");
    warm_up(&broker, &mut consumers);
    Setup {
        broker,
        rx_connection,
        rx_session,
        consumers,
        clients: clients(seed, client_count),
    }
}

/// Pushes [`WARMUP_MESSAGES`] through the broker and drains them.
fn warm_up(broker: &Arc<dyn Provider>, consumers: &mut [Box<dyn Consumer>]) {
    let mut connection = broker.create_connection(None).expect("warm-up connection");
    let mut session = connection
        .create_session(SessionMode::AutoAcknowledge)
        .expect("warm-up session");
    let mut producer = session
        .create_producer(&destination())
        .expect("warm-up producer");
    let body = "w".repeat(BODY_BYTES);
    for _ in 0..WARMUP_MESSAGES {
        producer
            .send(MessageDraft::text(body.clone()))
            .expect("warm-up send");
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut drained = 0;
    while drained < WARMUP_MESSAGES {
        assert!(Instant::now() < deadline, "warm-up messages not delivered");
        for consumer in consumers.iter_mut() {
            drained += consumer
                .try_receive_batch(256)
                .expect("warm-up receive")
                .len();
        }
    }
    let _ = session.close();
    let _ = connection.close();
}

/// One window of load and what it measured.
struct Window {
    engine: EngineReport,
    drain: DrainReport,
    cpu: Duration,
    /// When `LoadEngine::run` was entered.
    run_entry: Instant,
}

impl Window {
    fn secs(&self) -> f64 {
        self.engine.elapsed.as_secs_f64()
    }

    fn cpu_us_per_msg(&self) -> f64 {
        micros(self.cpu) / self.drain.received.max(1) as f64
    }
}

/// Runs `seconds` of load. `wrap` may decorate the broker transport; it
/// is handed the transport built on the drain's epoch.
fn run_window(
    setup: Setup,
    seconds: f64,
    wrap: impl FnOnce(BrokerTransport) -> Box<dyn Transport>,
) -> Window {
    let Setup {
        broker,
        mut rx_connection,
        mut rx_session,
        consumers,
        clients,
    } = setup;
    let cpu_before = sys::process_cpu();
    let epoch = Instant::now();
    let transport = wrap(BrokerTransport {
        provider: broker,
        epoch,
        body: "x".repeat(BODY_BYTES),
        chain: None,
    });
    let pump = DrainPump::start(consumers, epoch);
    let run_entry = Instant::now();
    let engine = LoadEngine::new(1).run(
        clients,
        vec![transport],
        Some(Duration::from_secs_f64(seconds)),
        None,
    );
    // Every send completed before `run` returned, so the drain's final
    // sweep on stop collects whatever is still queued.
    let drain = pump.stop();
    let cpu = sys::process_cpu() - cpu_before;
    let _ = rx_session.close();
    let _ = rx_connection.close();
    Window {
        engine,
        drain,
        cpu,
        run_entry,
    }
}

/// Folds the window's output checks into `out`.
fn check_window(window: &Window, out: &mut Outcome) {
    let engine = &window.engine;
    let drain = &window.drain;
    out.attempted += engine.sends + engine.retries + engine.aborted_clients;
    let not_received = engine.sends.saturating_sub(drain.received);
    out.failed += engine.retries + engine.aborted_clients + not_received + drain.unstamped;
    out.check(
        format!("received {} == sent {}", drain.received, engine.sends),
        drain.received == engine.sends,
    );
    out.check(
        format!("unstamped {} == 0", drain.unstamped),
        drain.unstamped == 0,
    );
    out.check(
        format!(
            "no refused or aborted sends (retries {}, aborted clients {})",
            engine.retries, engine.aborted_clients
        ),
        engine.retries == 0 && engine.aborted_clients == 0,
    );
}

/// The seed of sub-window `index`: every window gets fresh inputs, all
/// determined by the run seed.
fn window_seed(seed: u64, index: usize) -> u64 {
    SimRng::seed_from_u64(seed).derive(index as u64).next_u64()
}

/// `windows` untraced sub-windows of `length` seconds each, with their
/// end-to-end metrics as interquartile means over the windows. Returns
/// the CPU cost per message, the baseline for the tracing overhead.
fn untraced(seed: u64, client_count: usize, windows: usize, length: f64, out: &mut Outcome) -> f64 {
    let mut setup_times = Vec::with_capacity(windows);
    let mut done = Vec::with_capacity(windows);
    for index in 0..windows {
        let started = Instant::now();
        let setup = set_up(window_seed(seed, index), client_count, None);
        setup_times.push(started.elapsed().as_secs_f64());
        let window = run_window(setup, length, |transport| Box::new(transport));
        check_window(&window, out);
        println!(
            "window {index}: delivery p50 {:.1} us, p99 {:.1} us, cpu {:.2} us/msg",
            quantile_us(&window.drain.latency, 0.5),
            quantile_us(&window.drain.latency, 0.99),
            window.cpu_us_per_msg()
        );
        done.push(window);
    }
    let per = |f: &dyn Fn(&Window) -> f64| iqm(&done.iter().map(f).collect::<Vec<_>>());
    let received: u64 = done.iter().map(|w| w.drain.received).sum();
    let lagged: u64 = done.iter().map(|w| w.engine.send_lag.count()).sum();
    let secs: f64 = done.iter().map(Window::secs).sum();
    out.push("setup_s", "s", median(&setup_times), windows as u64);
    out.push(
        "delivery_p50_us",
        "us",
        per(&|w| quantile_us(&w.drain.latency, 0.5)),
        received,
    );
    out.push(
        "delivery_p99_us",
        "us",
        per(&|w| quantile_us(&w.drain.latency, 0.99)),
        received,
    );
    out.push(
        "delivered_msgs_per_s",
        "1/s",
        received as f64 / secs,
        received,
    );
    let cpu_us_per_msg = per(&Window::cpu_us_per_msg);
    out.push("cpu_us_per_msg", "us", cpu_us_per_msg, received);
    out.push("peak_rss_mb", "MB", sys::peak_rss_mb(), 1);
    out.push(
        "send_lag_p99_us",
        "us",
        per(&|w| quantile_us(&w.engine.send_lag, 0.99)),
        lagged,
    );
    cpu_us_per_msg
}

/// Runs a queue workload: `windows` sub-windows sharing `seconds`, each
/// on a fresh set-up, with interquartile means reported. With
/// `trace_dir`, one more window of the same length runs through the
/// decorators, and one with a null transport for the generator floor;
/// the per-layer metrics come from those two.
pub fn run(
    client_count: usize,
    windows: usize,
    seed: u64,
    seconds: f64,
    trace_dir: Option<&Path>,
    label: &str,
) -> Outcome {
    let mut out = Outcome::default();
    let length = seconds / windows as f64;
    let base_cpu_us_per_msg = untraced(seed, client_count, windows, length, &mut out);
    let Some(trace_dir) = trace_dir else {
        return out;
    };

    let tracer = Tracer::new();
    let probe = Probe::new(Arc::clone(&tracer));
    let traced_seed = window_seed(seed, windows);
    let setup = set_up(traced_seed, client_count, Some(&probe));
    // Set-up traffic (the warm-up) is not part of the window.
    tracer.take();
    probe.counters.reset();
    let mut stats_slot = None;
    let window = run_window(setup, length, |transport| {
        let (timed, slot) = TimedTransport::new(Box::new(transport), Arc::clone(&tracer));
        stats_slot = Some(slot);
        Box::new(timed)
    });
    check_window(&window, &mut out);
    let stats = stats_slot
        .and_then(|slot| slot.lock().expect("transport stats poisoned").take())
        .expect("engine finished the timed transport");
    let spans = tracer.take();

    let null = LoadEngine::new(1).run(
        clients(traced_seed, client_count),
        vec![Box::new(NullTransport)],
        Some(Duration::from_secs_f64(length)),
        None,
    );

    let sends = window.engine.sends.max(1) as f64;
    let first_send_ms = stats.first_send.map_or(0.0, |first| {
        first
            .saturating_duration_since(window.run_entry)
            .as_secs_f64()
            * 1e3
    });
    out.push("load.first_send_ms", "ms", first_send_ms, 1);
    let lag = &window.engine.send_lag;
    out.push(
        "load.send_lag_p50_us",
        "us",
        quantile_us(lag, 0.5),
        lag.count(),
    );
    out.push(
        "load.send_lag_p99_us",
        "us",
        quantile_us(lag, 0.99),
        lag.count(),
    );
    out.push(
        "load.null_lag_p99_us",
        "us",
        quantile_us(&null.send_lag, 0.99),
        null.send_lag.count(),
    );
    out.push(
        "load.lag_p99_after_1s_us",
        "us",
        quantile_us(&stats.lag_after_1s, 0.99),
        stats.lag_after_1s.count(),
    );
    let generator_ns = stats.worker_cpu.saturating_sub(stats.send_time).as_nanos() as f64;
    out.push(
        "load.gap_ns_per_send",
        "ns",
        generator_ns / sends,
        stats.sends,
    );
    out.push(
        "load.retry_ratio",
        "ratio",
        window.engine.retries as f64 / sends,
        window.engine.sends,
    );
    probe.report(&spans, &mut out);
    let latency = &window.drain.latency;
    let traced_p50 = quantile_us(latency, 0.5);
    // The three layers a delivery crosses after its send is due.
    let layer = |name: &str| out.get(name).map_or(0.0, |metric| metric.value);
    let attributed_us = (layer("broker.send_ns_p50") + layer("broker.receive_ns_p50")) / 1e3
        + layer("reactor.wake_to_receive_us_p50");
    out.push(
        "reconcile.delivery_p50_shortfall_us",
        "us",
        traced_p50 - attributed_us,
        latency.count(),
    );
    out.push("traced.delivery_p50_us", "us", traced_p50, latency.count());
    out.push(
        "traced.cpu_us_per_msg",
        "us",
        window.cpu_us_per_msg(),
        window.drain.received,
    );
    out.push(
        "traced.delivered_msgs_per_s",
        "1/s",
        window.drain.received as f64 / window.secs(),
        window.drain.received,
    );
    out.push(
        "tracing_overhead_share",
        "ratio",
        window.cpu_us_per_msg() / base_cpu_us_per_msg - 1.0,
        2,
    );
    spans::save(trace_dir, &format!("{label}-seed{seed}"), &spans);
    out
}
