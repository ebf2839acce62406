//! The test runner: executes one [`TestSpec`] against a real provider,
//! coordinating the drivers (reactor tasks, plus the open-loop engine
//! when `open_loop = on`) through the warm-up / run / warm-down phases,
//! injecting crashes when planned, and returning the merged execution
//! trace.

use crate::drivers::RunShared;
use crate::error::HarnessError;
use crate::reactor_drivers::{run_reactor_drivers, ConsumerJob, ProducerJob};
use crate::spec::TestSpec;
use jmst_api::id::{ClientId, NodeId};
use jmst_api::provider::Provider;
use jmst_api::time::{Clock, SkewedClock, SystemClock};
use jmst_store::event::{EventKind, Phase};
use jmst_store::sink::EventSink;
use jmst_store::trace::{Recorder, Trace};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closes the recorder's sinks when dropped, so every exit path of the
/// runner — including errors and panics — hangs up attached live streams.
struct SinkGuard(Recorder);

impl Drop for SinkGuard {
    fn drop(&mut self) {
        self.0.close_sinks();
    }
}

/// Sleeps for `duration` in small steps, returning `true` early if
/// `cancel` is raised.
fn sleep_unless_cancelled(duration: Duration, cancel: Option<&AtomicBool>) -> bool {
    let deadline = Instant::now() + duration;
    while Instant::now() < deadline {
        if cancel.is_some_and(|flag| flag.load(Ordering::SeqCst)) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    false
}

/// Administrative control over the provider under test, used for the
/// crash-injection experiments. Implemented by the reference broker.
pub trait BrokerAdmin: Send + Sync {
    /// Crashes the broker.
    fn crash(&self);
    /// Recovers a crashed broker.
    fn recover(&self);
}

impl BrokerAdmin for jmst_broker::ReferenceBroker {
    fn crash(&self) {
        jmst_broker::ReferenceBroker::crash(self);
    }

    fn recover(&self) {
        jmst_broker::ReferenceBroker::recover(self);
    }
}

/// Executes one test to completion.
#[derive(Debug, Default, Clone)]
pub struct ThreadedRunner {
    /// Extra wait, on top of the spec's periods, before a driver
    /// controller thread is declared hung.
    pub join_grace: Duration,
}

impl ThreadedRunner {
    /// Creates a runner with the default grace period (2 s).
    pub fn new() -> Self {
        Self {
            join_grace: Duration::from_secs(2),
        }
    }

    /// Runs `spec` against `provider`. `admin` is required when the spec
    /// has a crash plan.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::InvalidSpec`] for a malformed spec,
    /// [`HarnessError::MissingAdmin`] when a crash is planned without an
    /// admin hook, [`HarnessError::TestHung`] when a driver controller
    /// thread fails to terminate, and [`HarnessError::Inconclusive`] when
    /// a driver exhausted its retry budget or died — the latter two
    /// preserve the partial trace inside the error so the daemon prince
    /// can still report whatever was salvaged.
    pub fn run(
        &self,
        provider: Arc<dyn Provider>,
        admin: Option<Arc<dyn BrokerAdmin>>,
        spec: &TestSpec,
    ) -> Result<Trace, HarnessError> {
        self.run_observed(provider, admin, spec, None, None)
    }

    /// Runs `spec` like [`run`](ThreadedRunner::run), additionally tapping
    /// the event log live and honouring an external cancellation flag.
    ///
    /// `sink` is attached to the recorder before any driver starts, takes
    /// every event in logging order, and is closed on every exit path —
    /// attach a [`ChannelSink`](jmst_store::ChannelSink) and the paired
    /// stream terminates as soon as the run is over. With a sink the
    /// runner keeps no copy of the events: the returned trace, and the
    /// partial trace inside an error, are empty. Raising `cancel`
    /// (e.g. from the daemon prince's fail-fast watcher) ends the warm-up
    /// or run phase early: producers stop, consumers drain, and the
    /// partial trace is returned normally.
    ///
    /// # Errors
    ///
    /// As for [`run`](ThreadedRunner::run).
    pub fn run_observed(
        &self,
        provider: Arc<dyn Provider>,
        admin: Option<Arc<dyn BrokerAdmin>>,
        spec: &TestSpec,
        sink: Option<Box<dyn EventSink>>,
        cancel: Option<Arc<AtomicBool>>,
    ) -> Result<Trace, HarnessError> {
        spec.validate().map_err(HarnessError::InvalidSpec)?;
        if spec.crash.is_some() && admin.is_none() {
            return Err(HarnessError::MissingAdmin);
        }
        // How many controller threads wait at the start barrier: one for
        // the open-loop engine when it hosts the producers, and one for
        // the reactor hosting every other driver.
        let open_loop_producers = spec.open_loop && spec.producer_count() > 0;
        // Producers hosted as reactor tasks raise `producers_done`
        // themselves (last task standing); the open-loop engine leaves it
        // to the runner's join point.
        let producers_on_reactor = !spec.open_loop && spec.producer_count() > 0;
        let reactor_hosted = spec.consumer_count() > 0 || producers_on_reactor;
        let controllers = usize::from(open_loop_producers) + usize::from(reactor_hosted);
        let shared = Arc::new(RunShared::new(Arc::clone(&provider), spec, controllers));
        let recorder = Recorder::new();
        if let Some(sink) = sink {
            recorder.attach_sink(sink);
        }
        let _sink_guard = SinkGuard(recorder.clone());
        let base_clock = SystemClock::new();
        let control = recorder.node(NodeId::from_raw(0), Arc::new(base_clock.clone()));

        // Prepare drivers, grouped by node. Nodes with a shared
        // connection get their chains built up-front on that one
        // connection, which the runner keeps alive for the whole test.
        // All fallible construction happens *before* any thread spawns,
        // so a failure cannot strand threads on the start barrier.
        let mut producer_jobs: Vec<ProducerJob> = Vec::new();
        let mut consumer_jobs: Vec<ConsumerJob> = Vec::new();
        let mut shared_connections: Vec<Box<dyn jmst_api::provider::Connection>> = Vec::new();
        for (node_index, node) in spec.nodes.iter().enumerate() {
            let node_id = NodeId::from_raw(node_index as u64 + 1);
            let node_clock: Arc<dyn Clock> =
                Arc::new(SkewedClock::new(base_clock.clone(), node.clock_skew_nanos));
            let shared_client = ClientId::new(format!("{}-shared", node.name));
            let mut node_connection = if node.share_connection {
                let needs_client_id = node
                    .consumers
                    .iter()
                    .any(|c| matches!(c.subscription, crate::spec::Subscription::Durable { .. }));
                let mut connection = provider
                    .create_connection(needs_client_id.then(|| shared_client.clone()))
                    .map_err(|e| {
                        HarnessError::InvalidSpec(format!(
                            "node {}: cannot open shared connection: {e}",
                            node.name
                        ))
                    })?;
                connection.start().map_err(|e| {
                    HarnessError::InvalidSpec(format!(
                        "node {}: cannot start shared connection: {e}",
                        node.name
                    ))
                })?;
                Some(connection)
            } else {
                None
            };
            for (index, producer_spec) in node.producers.iter().enumerate() {
                let node_recorder = recorder.node(node_id, Arc::clone(&node_clock));
                let producer_spec = producer_spec.clone();
                let seed = spec
                    .seed
                    .wrapping_add((node_index as u64) << 32)
                    .wrapping_add(index as u64 + 1);
                // Harness-level producer identity, stable across the
                // reconnects a broker crash forces.
                let stable_id = (node_index as u64 + 1) * 1_000 + index as u64 + 1;
                let initial = match &mut node_connection {
                    Some(connection) => {
                        let session = connection
                            .create_session(crate::drivers::producer_session_mode(&producer_spec))
                            .map_err(|e| HarnessError::InvalidSpec(e.to_string()))?;
                        Some(
                            crate::drivers::producer_chain_on(session, &producer_spec)
                                .map_err(|e| HarnessError::InvalidSpec(e.to_string()))?,
                        )
                    }
                    None => None,
                };
                producer_jobs.push(ProducerJob {
                    recorder: node_recorder,
                    spec: producer_spec,
                    seed,
                    stable_id,
                    initial,
                });
            }
            for (index, consumer_spec) in node.consumers.iter().enumerate() {
                let node_recorder = recorder.node(node_id, Arc::clone(&node_clock));
                let consumer_spec = consumer_spec.clone();
                let client = if node.share_connection {
                    shared_client.clone()
                } else {
                    ClientId::new(format!("{}-c{}", node.name, index))
                };
                // Disjoint from the producer seeds of the same node.
                let seed = spec
                    .seed
                    .wrapping_add((node_index as u64) << 32)
                    .wrapping_add(1 << 24)
                    .wrapping_add(index as u64 + 1);
                let initial = match &mut node_connection {
                    Some(connection) => {
                        let session = connection
                            .create_session(consumer_spec.session_mode)
                            .map_err(|e| HarnessError::InvalidSpec(e.to_string()))?;
                        Some(
                            crate::drivers::consumer_chain_on(session, &consumer_spec, &client)
                                .map_err(|e| HarnessError::InvalidSpec(e.to_string()))?,
                        )
                    }
                    None => None,
                };
                consumer_jobs.push(ConsumerJob {
                    recorder: node_recorder,
                    spec: consumer_spec,
                    client,
                    seed,
                    initial,
                });
            }
            if let Some(connection) = node_connection {
                shared_connections.push(connection);
            }
        }

        // Everything constructible was constructed; now spawn.
        let mut producer_handles = Vec::new();
        let mut consumer_handles = Vec::new();
        if open_loop_producers {
            // All producers ride one engine controller thread; virtual
            // client 0 of each producer keeps the closed-loop identity.
            let jobs: Vec<crate::drivers::OpenLoopJob> = producer_jobs
                .drain(..)
                .map(|job| crate::drivers::OpenLoopJob {
                    recorder: job.recorder,
                    spec: job.spec,
                    seed: job.seed,
                    stable_id: job.stable_id,
                })
                .collect();
            let clients = spec.clients.unwrap_or(1);
            let arrival_rate = spec.arrival_rate;
            producer_handles.push(spawn_controller(
                &shared,
                "open-loop engine",
                move |shared| {
                    crate::drivers::open_loop_producer_driver(shared, jobs, clients, arrival_rate);
                },
            ));
        }
        if reactor_hosted {
            // Every other driver shares one controller thread running the
            // reactor worker pool. Under open_loop the producers already
            // rode the engine controller above, so only the consumers
            // mount here.
            let handle = spawn_controller(&shared, "reactor drivers", move |shared| {
                run_reactor_drivers(shared, producer_jobs, consumer_jobs);
            });
            // The controller finishes when its last task does; file it
            // under whichever stage it can actually hang.
            if spec.consumer_count() > 0 {
                consumer_handles.push(handle);
            } else {
                producer_handles.push(handle);
            }
        }

        // Optional crash thread.
        let crash_handle = spec.crash.map(|plan| {
            let admin = admin.expect("checked above");
            let control = recorder.node(NodeId::from_raw(0), Arc::new(base_clock.clone()));
            let shared = Arc::clone(&shared);
            let cancel = cancel.clone();
            std::thread::spawn(move || {
                let target = Instant::now() + plan.crash_after;
                while Instant::now() < target {
                    if shared.abort.load(Ordering::SeqCst)
                        || cancel
                            .as_ref()
                            .is_some_and(|flag| flag.load(Ordering::SeqCst))
                    {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                admin.crash();
                control.record(EventKind::BrokerCrashed);
                std::thread::sleep(plan.down_for);
                admin.recover();
                control.record(EventKind::BrokerRecovered);
            })
        });

        // Phase sequencing: all drivers start together at the barrier.
        // A raised cancel flag fast-forwards to warm-down: producers stop
        // and the partial trace is still collected and returned.
        control.record(EventKind::PhaseStarted {
            phase: Phase::WarmUp,
        });
        shared.start.wait();
        if !sleep_unless_cancelled(spec.warm_up, cancel.as_deref()) {
            control.record(EventKind::PhaseStarted { phase: Phase::Run });
            sleep_unless_cancelled(spec.run, cancel.as_deref());
        }
        control.record(EventKind::PhaseStarted {
            phase: Phase::WarmDown,
        });
        shared.stop_producing.store(true, Ordering::SeqCst);

        // Join producers, then let consumers drain.
        let producer_deadline = Instant::now() + spec.warm_down + self.join_grace;
        if !join_all(producer_handles, producer_deadline) {
            shared.abort.store(true, Ordering::SeqCst);
            return Err(HarnessError::TestHung {
                stage: "producers",
                partial_trace: Box::new(recorder.into_trace()),
            });
        }
        if !producers_on_reactor {
            // Reactor-hosted producers share the controller thread with
            // the consumers, so there the last producer *task* raises
            // this flag instead of the join above.
            shared.producers_done.store(true, Ordering::SeqCst);
        }
        let consumer_deadline = Instant::now() + spec.warm_down + self.join_grace;
        if !join_all(consumer_handles, consumer_deadline) {
            shared.abort.store(true, Ordering::SeqCst);
            return Err(HarnessError::TestHung {
                stage: "consumers",
                partial_trace: Box::new(recorder.into_trace()),
            });
        }
        if let Some(handle) = crash_handle {
            let _ = handle.join();
        }
        // Salvage what the broker parked on dead-letter queues: the
        // analyzer accounts these messages as parked, not lost.
        for dead in provider.drain_dead_letters() {
            let mut record = jmst_store::event::MessageRecord::from_message(&dead.message);
            crate::drivers::apply_harness_identity(&mut record);
            control.record(EventKind::DeadLettered {
                record,
                parked_on: dead.parked_on,
            });
        }
        if let Some(reason) = shared.gave_up() {
            return Err(HarnessError::Inconclusive {
                reason,
                partial_trace: Box::new(recorder.into_trace()),
            });
        }
        Ok(recorder.into_trace())
    }
}

/// Spawns a driver controller thread. A panic in it gives the run up, so
/// the run ends inconclusive instead of hanging or killing the runner.
fn spawn_controller(
    shared: &Arc<RunShared>,
    name: &'static str,
    controller: impl FnOnce(&Arc<RunShared>) + Send + 'static,
) -> std::thread::JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::spawn(move || {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| controller(&shared)));
        if result.is_err() {
            shared.give_up(format!("{name}: controller panicked"));
        }
    })
}

/// Joins all handles, giving up at `deadline`. Returns `true` if all
/// threads finished. Unfinished threads are left detached (they
/// self-terminate at the shared deadline; the caller aborts the run).
fn join_all(handles: Vec<std::thread::JoinHandle<()>>, deadline: Instant) -> bool {
    let mut pending: Vec<_> = handles;
    while !pending.is_empty() {
        if Instant::now() >= deadline {
            return false;
        }
        pending.retain(|handle| !handle.is_finished());
        if pending.is_empty() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ConsumerSpec, NodeSpec, ProducerSpec};
    use jmst_api::destination::Destination;
    use jmst_broker::ReferenceBroker;
    use jmst_core::Analyzer;

    fn small_spec() -> TestSpec {
        TestSpec::new("runner-smoke")
            .with_periods(
                Duration::from_millis(30),
                Duration::from_millis(200),
                Duration::from_secs(2),
            )
            .node(
                NodeSpec::new("n0")
                    .producer(ProducerSpec::steady(Destination::queue("q"), 200.0, 64))
                    .consumer(ConsumerSpec::auto(Destination::queue("q"))),
            )
    }

    #[test]
    fn smoke_run_produces_clean_trace() {
        let broker = ReferenceBroker::new();
        let trace = ThreadedRunner::new()
            .run(Arc::new(broker), None, &small_spec())
            .unwrap();
        assert!(!trace.is_empty());
        let report = Analyzer::new().analyze(&trace);
        assert!(report.passed(), "{report}");
        assert!(report.sends > 10, "sent only {}", report.sends);
        assert_eq!(report.sends, report.receives, "{report}");
    }

    #[test]
    fn drivers_survive_a_broker_crash() {
        let broker = Arc::new(ReferenceBroker::new());
        let spec = small_spec().with_crash(crate::spec::CrashPlan {
            crash_after: Duration::from_millis(80),
            down_for: Duration::from_millis(40),
        });
        let trace = ThreadedRunner::new()
            .run(
                Arc::clone(&broker) as Arc<dyn Provider>,
                Some(broker as Arc<dyn BrokerAdmin>),
                &spec,
            )
            .unwrap();
        let report = Analyzer::new().analyze(&trace);
        // The run must complete with messages on both sides; the
        // reconnecting state machines keep the drivers alive across the
        // crash window.
        assert!(report.sends > 0, "{report}");
        assert!(report.receives > 0, "{report}");
    }

    #[test]
    fn invalid_spec_is_rejected() {
        let broker = ReferenceBroker::new();
        let result = ThreadedRunner::new().run(Arc::new(broker), None, &TestSpec::new("empty"));
        assert!(matches!(result, Err(HarnessError::InvalidSpec(_))));
    }

    #[test]
    fn exhausted_retries_make_the_run_inconclusive() {
        use jmst_broker::{BrokerConfig, FaultSpec};
        let config =
            BrokerConfig::correct().with_faults(FaultSpec::none().failing_connects(1.0).seeded(7));
        let broker = ReferenceBroker::with_config(config);
        let spec = small_spec().with_retry(crate::retry::RetryPolicy::disabled());
        let result = ThreadedRunner::new().run(Arc::new(broker), None, &spec);
        match result {
            Err(HarnessError::Inconclusive {
                reason,
                partial_trace,
            }) => {
                assert!(reason.contains("budget"), "{reason}");
                // The salvaged trace still carries the phase markers.
                assert!(!partial_trace.is_empty());
            }
            other => panic!("expected inconclusive, got {other:?}"),
        }
    }

    #[test]
    fn crash_plan_requires_admin() {
        let broker = ReferenceBroker::new();
        let spec = small_spec().with_crash(crate::spec::CrashPlan {
            crash_after: Duration::from_millis(50),
            down_for: Duration::from_millis(10),
        });
        let result = ThreadedRunner::new().run(Arc::new(broker), None, &spec);
        assert!(matches!(result, Err(HarnessError::MissingAdmin)));
    }
}
