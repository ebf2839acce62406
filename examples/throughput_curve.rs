//! Open-loop throughput curves: multiplexed virtual clients against the
//! reference broker and the paper's two service models.
//!
//! Three experiments run in one process and land in `BENCH_loadgen.json`:
//!
//! 1. **Broker scalability** — 1K/10K/100K/1M virtual clients mounted
//!    directly on the reactor's timing wheel and multiplexed onto a
//!    handful of engine workers, sending a fixed aggregate rate
//!    through the reference broker while a [`DrainPump`] measures
//!    intended-send→delivery latency (coordinated-omission-safe). The
//!    1M point is the reactor refactor's headline: no thread pool can
//!    host a million closed-loop drivers, but a million poll-driven
//!    timer tasks are just memory.
//! 2. **Model crossover** — the same 100K-client population swept across
//!    rising demand against ×50 stand-ins for the paper's Provider I
//!    (plateau: flow control holds throughput at capacity) and Provider
//!    II (thrashing: delivered throughput collapses), with p99/p99.9
//!    latency per point. These runs are the Figure 2/3 model runs
//!    (`jmst_harness::model`): the load engine's clients on a one-worker
//!    reactor in virtual time, measured from the recorded trace. Under
//!    overload the curves cross: the slower flow-controlled provider
//!    out-delivers the faster one.
//! 3. **Coordinated omission** — the same overloaded thrashing model
//!    measured open-loop (latency from the *intended* send time) and
//!    closed-loop (reactor tasks that each wait for their own delivery
//!    before sending again), through the same model transport in
//!    virtual time; the closed loop under-reports tail latency by orders
//!    of magnitude.
//!
//! ```sh
//! cargo run --release --example throughput_curve            # full sweep
//! cargo run --release --example throughput_curve -- --smoke # CI: short runs, still sweeps to 1M clients
//! ```

use jmst_api::id::NodeId;
use jmst_api::modes::SessionMode;
use jmst_api::provider::{Connection, Consumer, Producer, Provider, Session};
use jmst_api::time::Timestamp;
use jmst_api::value::Value;
use jmst_api::{destination::Destination, message::MessageDraft};
use jmst_broker::ReferenceBroker;
use jmst_harness::model::{ModelTransport, PubSubScenario, PublisherSpec};
use jmst_load::{
    ClientSpec, ClockSource, DrainPump, LoadEngine, SendDisposition, Transport, INTENDED_NS_PROP,
};
use jmst_reactor::{Context, Poll, Reactor, Task, Waker};
use jmst_sim::{ArrivalProcess, DurationDist, ServiceModel, SimRng, VirtualClock};
use jmst_store::{EventKind, LogHistogram, MessageRecord, Recorder};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Body size used throughout, matching the paper's 1 kB messages.
const BODY_BYTES: usize = 1024;

// ---------------------------------------------------------------------------
// Experiment 1: broker scalability sweep
// ---------------------------------------------------------------------------

/// Per-worker transport that sends through one shared producer chain on
/// the reference broker, stamping every message with its intended send
/// time so the drain pump can measure open-loop delivery latency.
/// The lazily-opened provider objects one worker sends through.
type ProducerChain = (Box<dyn Connection>, Box<dyn Session>, Box<dyn Producer>);

struct BrokerTransport {
    provider: Arc<ReferenceBroker>,
    /// The epoch the drain pump measures from (created before the engine
    /// run, so intended offsets are re-based onto it at send time).
    epoch: Instant,
    destination: Destination,
    chain: Option<ProducerChain>,
}

impl BrokerTransport {
    fn new(provider: Arc<ReferenceBroker>, epoch: Instant, destination: Destination) -> Self {
        Self {
            provider,
            epoch,
            destination,
            chain: None,
        }
    }
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
            let mut connection = match self.provider.create_connection(None) {
                Ok(connection) => connection,
                Err(error) => return SendDisposition::Abort(error.to_string()),
            };
            let mut session = match connection.create_session(SessionMode::AutoAcknowledge) {
                Ok(session) => session,
                Err(error) => return SendDisposition::Abort(error.to_string()),
            };
            let producer = match session.create_producer(&self.destination) {
                Ok(producer) => producer,
                Err(error) => return SendDisposition::Abort(error.to_string()),
            };
            self.chain = Some((connection, session, producer));
        }
        // Re-base the intended time from the engine's epoch onto the
        // pump's: at this moment `epoch.elapsed()` corresponds to `now`.
        let intended_ns = self
            .epoch
            .elapsed()
            .saturating_sub(now.saturating_sub(intended))
            .as_nanos() as i64;
        let draft = MessageDraft::text("x".repeat(BODY_BYTES))
            .property(INTENDED_NS_PROP, Value::Long(intended_ns))
            .expect("legal property name");
        let (_, _, producer) = self.chain.as_mut().expect("chain connected");
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

struct BrokerPoint {
    clients: usize,
    offered_per_sec: f64,
    sends: u64,
    achieved_per_sec: f64,
    send_lag: LogHistogram,
    received: u64,
    delivery_latency: LogHistogram,
    unstamped: u64,
}

fn broker_point(clients: usize, offered_per_sec: f64, run_for: Duration) -> BrokerPoint {
    let broker = Arc::new(ReferenceBroker::new());
    let destination = Destination::queue("loadgen");
    let epoch = Instant::now();

    // Receive side: a started connection with a few competing consumers,
    // drained by the single pump thread through the batch API.
    let mut rx_connection = broker.create_connection(None).expect("consumer connection");
    let mut rx_session = rx_connection
        .create_session(SessionMode::AutoAcknowledge)
        .expect("consumer session");
    let consumers: Vec<Box<dyn Consumer>> = (0..2)
        .map(|_| {
            rx_session
                .create_consumer(&destination, None)
                .expect("consumer")
        })
        .collect();
    rx_connection.start().expect("start delivery");
    let pump = DrainPump::start(consumers, epoch);

    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(2)
        .clamp(1, 4);
    let transports: Vec<Box<dyn Transport>> = (0..workers)
        .map(|_| {
            Box::new(BrokerTransport::new(
                Arc::clone(&broker),
                epoch,
                destination.clone(),
            )) as Box<dyn Transport>
        })
        .collect();
    let per_client = offered_per_sec / clients as f64;
    let specs: Vec<ClientSpec> = (0..clients)
        .map(|index| {
            ClientSpec::new(
                ArrivalProcess::poisson(per_client).generator(SimRng::seed_from_u64(index as u64)),
            )
        })
        .collect();

    let report = LoadEngine::new(workers).run(specs, transports, Some(run_for), None);
    // Let in-flight deliveries settle before the final drain pass.
    std::thread::sleep(Duration::from_millis(300));
    let drain = pump.stop();
    let _ = rx_session.close();
    let _ = rx_connection.close();

    BrokerPoint {
        clients,
        offered_per_sec,
        sends: report.sends,
        achieved_per_sec: report.sends as f64 / run_for.as_secs_f64(),
        send_lag: report.send_lag,
        received: drain.received,
        delivery_latency: drain.latency,
        unstamped: drain.unstamped,
    }
}

// ---------------------------------------------------------------------------
// Experiment 2: plateau-vs-collapse crossover against service models
// ---------------------------------------------------------------------------

/// Stand-in for the paper's Provider I with the same flow-controlled
/// plateau shape as [`ServiceModel::provider_one`], scaled ×50 so that
/// 100K clients load it within a seconds-long run.
fn scaled_provider_one() -> ServiceModel {
    ServiceModel::Plateau {
        capacity_msgs_per_sec: 2_250.0,
        per_byte_nanos: 0,
        queue_capacity: 64,
        delivery_latency: DurationDist::constant(Duration::from_millis(1)),
    }
}

/// Stand-in for the paper's Provider II with the same unbounded
/// thrashing shape as [`ServiceModel::provider_two`], scaled ×50 in rate
/// and with the backlog threshold compressed to match, so the collapse
/// emerges within the run.
fn scaled_provider_two() -> ServiceModel {
    ServiceModel::Thrashing {
        base_capacity_msgs_per_sec: 8_000.0,
        per_byte_nanos: 0,
        degradation_threshold: 1_000,
        degradation_factor: 2.0,
        delivery_latency: DurationDist::constant(Duration::from_millis(1)),
    }
}

/// Long enough for the deepest thrashing backlog to drain, so every
/// admitted message has a delivery latency.
const MODEL_DRAIN: Duration = Duration::from_secs(3_600);

/// `clients` publishers of 1 KiB messages against `model` for `run_for`.
fn model_scenario(
    model: ServiceModel,
    clients: usize,
    arrivals: ArrivalProcess,
    run_for: Duration,
) -> PubSubScenario {
    PubSubScenario {
        publishers: vec![
            PublisherSpec {
                arrivals,
                body_bytes: BODY_BYTES,
            };
            clients
        ],
        subscribers: 1,
        model,
        production_period: run_for,
        drain_limit: MODEL_DRAIN,
        seed: 1_000_000,
    }
}

/// The intended send time a model message was stamped with.
fn intended(record: &MessageRecord) -> Timestamp {
    let nanos = record
        .properties
        .get(INTENDED_NS_PROP)
        .and_then(Value::as_i64);
    Timestamp::from_nanos(nanos.expect("model sends are stamped") as u64)
}

struct ModelPoint {
    model: &'static str,
    clients: usize,
    offered_per_sec: f64,
    admitted: u64,
    delivered_per_sec: f64,
    /// Delivery rate over the second half of the window only — the
    /// steady-state rate once the backlog has built, which is where the
    /// thrashing provider's collapse shows.
    steady_per_sec: f64,
    /// Intended → accepted send time: the flow control's hold on senders.
    send_lag: LogHistogram,
    /// Intended send → delivery (coordinated-omission-safe).
    latency: LogHistogram,
}

/// One open-loop run of `model` in virtual time: `clients` Poisson
/// clients offering `offered_per_sec` in total, measured from the trace.
fn model_point(
    name: &'static str,
    model: ServiceModel,
    clients: usize,
    offered_per_sec: f64,
    run_for: Duration,
) -> ModelPoint {
    let arrivals = ArrivalProcess::poisson(offered_per_sec / clients as f64);
    let trace = model_scenario(model, clients, arrivals, run_for).run(Duration::ZERO);
    let end = Timestamp::ZERO + run_for;
    let half = Timestamp::ZERO + run_for / 2;
    let mut point = ModelPoint {
        model: name,
        clients,
        offered_per_sec,
        admitted: 0,
        delivered_per_sec: 0.0,
        steady_per_sec: 0.0,
        send_lag: LogHistogram::new(),
        latency: LogHistogram::new(),
    };
    let (mut delivered, mut steady) = (0u64, 0u64);
    for event in &trace {
        match &event.kind {
            EventKind::Send { record, .. } => {
                point.admitted += 1;
                point
                    .send_lag
                    .record(event.at.saturating_since(intended(record)));
            }
            EventKind::Receive { record, .. } => {
                point
                    .latency
                    .record(event.at.saturating_since(intended(record)));
                delivered += u64::from(event.at <= end);
                steady += u64::from(event.at > half && event.at <= end);
            }
            _ => {}
        }
    }
    point.delivered_per_sec = delivered as f64 / run_for.as_secs_f64();
    point.steady_per_sec = steady as f64 / (run_for.as_secs_f64() / 2.0);
    point
}

// ---------------------------------------------------------------------------
// Experiment 3: coordinated omission — open vs closed loop
// ---------------------------------------------------------------------------

/// The closed loop's worker state: the model, and per client the waker
/// to call and the delivery time of its outstanding message.
struct ClosedLoop {
    transport: ModelTransport,
    clients: Vec<(Option<Waker>, Option<Timestamp>)>,
    server: Option<Waker>,
}

impl ClosedLoop {
    /// Serves the model up to `now`, waking each client whose message
    /// was served.
    fn advance(&mut self, now: Timestamp) {
        let clients = &mut self.clients;
        self.transport.advance(now, |client, delivered| {
            let (waker, slot) = &mut clients[client as usize];
            *slot = Some(delivered);
            if let Some(waker) = waker.take() {
                waker.wake();
            }
        });
    }
}

/// Serves each message at its exact completion time, so no client has
/// to poll for its own delivery.
struct Server;

impl Task for Server {
    fn poll(&mut self, cx: &mut Context<'_>) -> Poll {
        if cx.stopping() {
            return Poll::Ready;
        }
        let now = Timestamp::ZERO + cx.now();
        let waker = cx.waker();
        let state = cx.state_mut::<ClosedLoop>().expect("closed-loop state");
        state.advance(now);
        // A send to an idle model wakes the server to arm its timer.
        state.server = Some(waker);
        if let Some(next) = state.transport.next_completion() {
            cx.wake_at_nanos(next.as_nanos());
        }
        Poll::Pending
    }
}

/// A closed-loop client: it sends, waits for its own delivery, and sends
/// again no sooner than `gap` after its previous send.
struct ClosedClient {
    id: u32,
    gap: Duration,
    next_send: Duration,
    sent: u64,
    waiting: bool,
}

impl Task for ClosedClient {
    fn poll(&mut self, cx: &mut Context<'_>) -> Poll {
        if cx.stopping() {
            return Poll::Ready;
        }
        let now = cx.now();
        let waker = cx.waker();
        let state = cx.state_mut::<ClosedLoop>().expect("closed-loop state");
        if self.waiting {
            // The server hands the delivery time over when it serves the
            // message; the next send waits for it.
            let Some(delivered) = state.clients[self.id as usize].1.take() else {
                return Poll::Pending;
            };
            self.waiting = false;
            self.next_send = self.next_send.max(delivered - Timestamp::ZERO);
        }
        if now < self.next_send {
            cx.wake_at_nanos(self.next_send.as_nanos() as u64);
            return Poll::Pending;
        }
        let at = Timestamp::ZERO + now;
        state.advance(at);
        match state.transport.publish(self.id, self.sent, at, at) {
            Ok(()) => {
                self.sent += 1;
                self.waiting = true;
                self.next_send = now + self.gap;
                state.clients[self.id as usize].0 = Some(waker);
                if let Some(server) = state.server.take() {
                    server.wake();
                }
            }
            Err(free_at) => cx.wake_at_nanos(free_at.as_nanos()),
        }
        Poll::Pending
    }
}

/// Closed-loop measurement of the same model in virtual time: each
/// client waits for its previous delivery before the next send, and
/// latency is measured from the *actual* send — the classic benchmark
/// loop that coordinates with the server and omits the waiting time.
fn closed_loop_latency(
    model: ServiceModel,
    clients: usize,
    per_client_gap: Duration,
    run_for: Duration,
) -> LogHistogram {
    let clock = Arc::new(VirtualClock::new());
    let recorder = Recorder::new();
    let arrivals = ArrivalProcess::steady(1.0 / per_client_gap.as_secs_f64());
    let transport = ModelTransport::new(
        &model_scenario(model, clients, arrivals, run_for),
        recorder.node(NodeId::from_raw(0), clock.clone()),
    );
    let mut reactor = Reactor::new(1).with_clock(Arc::new(ClockSource(clock)));
    reactor.set_worker_state(
        0,
        Box::new(ClosedLoop {
            transport,
            clients: (0..clients).map(|_| (None, None)).collect(),
            server: None,
        }),
    );
    reactor.spawn_on(0, Box::new(Server));
    let mut rng = SimRng::seed_from_u64(13);
    for id in 0..clients as u32 {
        let first = per_client_gap.mul_f64(rng.uniform(0.0, 1.0));
        let client = ClosedClient {
            id,
            gap: per_client_gap,
            next_send: first,
            sent: 0,
            waiting: false,
        };
        reactor.spawn_at(0, first.as_nanos() as u64, Box::new(client));
    }
    let mut outcome = reactor.run(None, Some(run_for));
    let mut state = outcome.worker_states[0]
        .take()
        .expect("closed-loop state")
        .downcast::<ClosedLoop>()
        .expect("closed-loop state type");
    state.transport.finish();
    let mut latency = LogHistogram::new();
    for event in &recorder.into_trace() {
        if let EventKind::Receive { record, .. } = &event.kind {
            // Measured from the actual send time — the omission.
            latency.record(event.at.saturating_since(record.sent_at));
        }
    }
    latency
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

fn micros(duration: Option<Duration>) -> f64 {
    duration.map(|d| d.as_secs_f64() * 1e6).unwrap_or(f64::NAN)
}

fn quantiles_json(histogram: &LogHistogram) -> String {
    format!(
        "{{\"p50_us\": {:.1}, \"p99_us\": {:.1}, \"p999_us\": {:.1}, \"max_us\": {:.1}}}",
        micros(histogram.quantile(0.5)),
        micros(histogram.quantile(0.99)),
        micros(histogram.quantile(0.999)),
        micros(histogram.max()),
    )
}

fn print_histogram_row(label: &str, histogram: &LogHistogram) {
    println!(
        "    {label}: p50 {:>10.1} µs   p99 {:>12.1} µs   p99.9 {:>12.1} µs",
        micros(histogram.quantile(0.5)),
        micros(histogram.quantile(0.99)),
        micros(histogram.quantile(0.999)),
    );
}

fn main() {
    let mut smoke = false;
    let mut out_path = String::from("BENCH_loadgen.json");
    let mut arguments = std::env::args().skip(1);
    while let Some(argument) = arguments.next() {
        match argument.as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                out_path = arguments.next().unwrap_or_else(|| {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!(
                    "unknown argument {other}; usage: throughput_curve [--smoke] [--out PATH]"
                );
                std::process::exit(2);
            }
        }
    }

    // --- Experiment 1: broker scalability ---------------------------------
    let (counts, broker_rate, broker_run) = if smoke {
        (
            vec![1_000usize, 10_000, 1_000_000],
            10_000.0,
            Duration::from_millis(800),
        )
    } else {
        (
            vec![1_000usize, 10_000, 100_000, 1_000_000],
            40_000.0,
            Duration::from_secs(3),
        )
    };
    println!("== Broker scalability: virtual clients multiplexed onto a worker pool ==");
    let mut broker_points = Vec::new();
    for &clients in &counts {
        let point = broker_point(clients, broker_rate, broker_run);
        println!(
            "  {:>7} clients @ {:>8.0} msg/s offered: sent {:>7} ({:>8.0} msg/s), received {:>7}",
            point.clients,
            point.offered_per_sec,
            point.sends,
            point.achieved_per_sec,
            point.received,
        );
        print_histogram_row("send lag   ", &point.send_lag);
        print_histogram_row("delivery   ", &point.delivery_latency);
        broker_points.push(point);
    }
    println!();

    // --- Experiment 2: plateau vs collapse --------------------------------
    let model_clients = if smoke { 10_000 } else { 100_000 };
    let model_run = if smoke {
        Duration::from_millis(700)
    } else {
        Duration::from_millis(1_500)
    };
    let demands: Vec<f64> = if smoke {
        vec![4_000.0, 8_000.0, 32_000.0]
    } else {
        vec![1_000.0, 4_000.0, 8_000.0, 16_000.0, 32_000.0]
    };
    println!("== Model crossover: {model_clients} clients vs ×50 Providers I/II, virtual time ==");
    let mut model_points = Vec::new();
    for &(name, ref model) in &[
        ("plateau", scaled_provider_one()),
        ("thrashing", scaled_provider_two()),
    ] {
        println!("  {name} ({model}):");
        for &offered in &demands {
            let point = model_point(name, model.clone(), model_clients, offered, model_run);
            println!(
                "    offered {:>8.0} msg/s → delivered {:>8.0} msg/s, steady {:>8.0} msg/s   (admitted {:>6})",
                point.offered_per_sec,
                point.delivered_per_sec,
                point.steady_per_sec,
                point.admitted,
            );
            print_histogram_row("send lag ", &point.send_lag);
            print_histogram_row("latency  ", &point.latency);
            model_points.push(point);
        }
    }
    println!();

    // --- Experiment 3: coordinated omission -------------------------------
    // The thrashing model at 2× nominal capacity: open loop measures from
    // the intended send time, closed loop from the actual one.
    // 500 clients each pacing 32 msg/s nominally offer 16K msg/s — 2× the
    // model's base capacity. The open loop keeps offering it; the closed
    // loop caps itself at 500 outstanding requests (below the degradation
    // threshold), so its measured tail never sees the overload it causes.
    let co_model = scaled_provider_two();
    let co_offered = 16_000.0;
    let co_clients = 500;
    let co_run = if smoke {
        Duration::from_millis(700)
    } else {
        Duration::from_millis(1_500)
    };
    println!("== Coordinated omission: thrashing model at {co_offered:.0} msg/s offered ==");
    let open = model_point(
        "thrashing",
        co_model.clone(),
        co_clients,
        co_offered,
        co_run,
    );
    let per_client_gap = Duration::from_secs_f64(co_clients as f64 / co_offered);
    let closed = closed_loop_latency(co_model, co_clients, per_client_gap, co_run);
    print_histogram_row("open loop  ", &open.latency);
    print_histogram_row("closed loop", &closed);
    let open_p99 = micros(open.latency.quantile(0.99));
    let closed_p99 = micros(closed.quantile(0.99));
    println!(
        "    open-loop p99 is {:.1}× the closed-loop p99 — the closed loop coordinated with the overload",
        open_p99 / closed_p99.max(1.0),
    );
    println!();

    // --- BENCH_loadgen.json ------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"jmst-loadgen-v2\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str("  \"broker\": [\n");
    for (index, point) in broker_points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"clients\": {}, \"offered_msgs_per_sec\": {:.1}, \"sends\": {}, \"achieved_msgs_per_sec\": {:.1}, \"received\": {}, \"unstamped\": {}, \"send_lag\": {}, \"delivery_latency\": {}}}{}\n",
            point.clients,
            point.offered_per_sec,
            point.sends,
            point.achieved_per_sec,
            point.received,
            point.unstamped,
            quantiles_json(&point.send_lag),
            quantiles_json(&point.delivery_latency),
            if index + 1 < broker_points.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n  \"models\": [\n");
    for (index, point) in model_points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"model\": \"{}\", \"clients\": {}, \"offered_msgs_per_sec\": {:.1}, \"admitted\": {}, \"delivered_msgs_per_sec\": {:.1}, \"steady_msgs_per_sec\": {:.1}, \"send_lag\": {}, \"latency\": {}}}{}\n",
            point.model,
            point.clients,
            point.offered_per_sec,
            point.admitted,
            point.delivered_per_sec,
            point.steady_per_sec,
            quantiles_json(&point.send_lag),
            quantiles_json(&point.latency),
            if index + 1 < model_points.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n  \"coordinated_omission\": ");
    json.push_str(&format!(
        "{{\"model\": \"thrashing\", \"clients\": {}, \"offered_msgs_per_sec\": {:.1}, \"open_latency\": {}, \"closed_latency\": {}}}\n",
        co_clients,
        co_offered,
        quantiles_json(&open.latency),
        quantiles_json(&closed),
    ));
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("wrote {out_path}");
}
