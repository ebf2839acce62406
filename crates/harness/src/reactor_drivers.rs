//! The harness's producer and consumer drivers: each one is a
//! poll-driven state machine on one shared [`jmst_reactor::Reactor`]
//! worker pool, so a spec with hundreds of drivers occupies a handful of
//! reactor workers and a parked driver costs nothing (O(ready) wake
//! delivery, timers on the timing wheel).
//!
//! The state machines implement the driver semantics the analysis
//! relies on: pacing from the workload's arrival gaps, send batching,
//! transacted commit boundaries, acknowledgement batching, reconnect
//! cycling, crash-recovery reconnects under the shared
//! [`RetryPolicy`](crate::retry::RetryPolicy), drain-quiet termination,
//! and the run deadline. Consumers that the provider can wake
//! (`Consumer::set_waker`) are polled on arrival; the others fall back
//! to a 20 ms receive cadence.

use crate::drivers::{
    apply_harness_identity, connect_consumer, connect_producer, draft, drop_chain, finish_batch,
    run_watched, ConsumerChain, ProducerChain, RunShared,
};
use crate::retry::RetryState;
use crate::spec::{ConsumerSpec, ProducerSpec};
use jmst_api::id::{ClientId, TxId};
use jmst_api::message::MessageDraft;
use jmst_api::modes::SessionMode;
use jmst_reactor::{Context, Poll, Reactor, Task};
use jmst_sim::{ArrivalGen, SimRng};
use jmst_store::event::{EventKind, MessageRecord};
use jmst_store::trace::NodeRecorder;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything one producer driver needs.
pub(crate) struct ProducerJob {
    pub recorder: NodeRecorder,
    pub spec: ProducerSpec,
    pub seed: u64,
    pub stable_id: u64,
    /// Pre-built chain for shared-connection nodes (never reconnected).
    pub initial: Option<ProducerChain>,
}

/// Everything one consumer driver needs.
pub(crate) struct ConsumerJob {
    pub recorder: NodeRecorder,
    pub spec: ConsumerSpec,
    pub client: ClientId,
    pub seed: u64,
    pub initial: Option<ConsumerChain>,
}

/// Fallback receive cadence when the provider cannot wake us; also how
/// often an idle consumer re-checks the drain-quiet window.
const POLL: Duration = Duration::from_millis(20);
/// Messages one consumer may process in a single poll before yielding,
/// so a hot consumer cannot starve its worker's timers.
const RECEIVE_SLICE: usize = 64;

/// Runs every driver of the spec on one reactor. Called on a dedicated
/// controller thread: it waits at the start barrier once, then runs the
/// reactor until every driver state machine has finished (or the run is
/// aborted).
///
/// `producers_done` is raised by the last producer task to finish: the
/// producers share the controller with the consumers, so the runner
/// cannot learn it from a join, and the count lives with the tasks.
pub(crate) fn run_reactor_drivers(
    shared: &Arc<RunShared>,
    producers: Vec<ProducerJob>,
    consumers: Vec<ConsumerJob>,
) {
    let total = producers.len() + consumers.len();
    if total == 0 {
        return;
    }
    let workers = std::thread::available_parallelism()
        .map_or(2, std::num::NonZeroUsize::get)
        .clamp(1, 4)
        .min(total);
    let mut reactor = Reactor::new(workers);
    // When no producers mount here (open-loop runs, consumer-only
    // specs) the runner raises `producers_done` at its own join point.
    let producers_live = Arc::new(AtomicUsize::new(producers.len()));
    for job in producers {
        let gaps = job.spec.workload.generator(SimRng::seed_from_u64(job.seed));
        let retry = RetryState::new(shared.retry, job.seed.wrapping_add(0x9e37_79b9));
        reactor.spawn(Box::new(ProducerTask {
            shared: Arc::clone(shared),
            recorder: job.recorder,
            spec: job.spec,
            stable_id: job.stable_id,
            reconnectable: job.initial.is_none(),
            chain: job.initial,
            retry,
            gaps,
            sent: 0,
            in_batch: 0,
            current_tx: None,
            body_seed: job.seed,
            drafts: Vec::new(),
            chunk: 1,
            in_backoff: false,
            started: false,
            finished: false,
            live: Arc::clone(&producers_live),
        }));
    }
    for job in consumers {
        let retry = RetryState::new(shared.retry, job.seed.wrapping_add(0x6a09_e667));
        reactor.spawn(Box::new(ConsumerTask {
            shared: Arc::clone(shared),
            recorder: job.recorder,
            spec: job.spec,
            client: job.client,
            reconnectable: job.initial.is_none(),
            chain: job.initial,
            retry,
            received_total: 0,
            in_batch: 0,
            current_tx: None,
            last_delivery: Instant::now(),
            reconnect_cycles: 0,
            paused_until: None,
            repoll_at: 0,
            started: false,
            finished: false,
        }));
    }

    // Mirror the runner's abort signal into the reactor's stop flag so
    // an aborted run tears the task set down promptly (parked tasks are
    // polled with `stopping = true` by the shutdown sweep). Producers
    // observe `stop_producing` themselves on their next timer fire.
    run_watched(shared, false, |stop| {
        let _ = reactor.run(Some(stop), None);
    });
}

/// What shipping an accumulated batch of drafts led to.
enum Ship {
    /// Sent (commit bookkeeping handled); pace the next draft.
    Sent,
    /// Send failed and the chain was dropped; the reconnect on the next
    /// gap pays the retry.
    Lost,
    /// Send failed on a shared (non-reconnectable) chain; back off this
    /// long before the next gap.
    Backoff(Duration),
    /// The retry budget is exhausted; the run was marked given-up.
    GaveUp,
}

/// One producer driver as a reactor task. Phases are encoded by the
/// state itself: a timer fire either lands in a backoff (`in_backoff`),
/// or paces the next draft of the current batch (`drafts`), shipping
/// the batch when it reaches `chunk` drafts.
struct ProducerTask {
    shared: Arc<RunShared>,
    recorder: NodeRecorder,
    spec: ProducerSpec,
    stable_id: u64,
    reconnectable: bool,
    chain: Option<ProducerChain>,
    retry: RetryState,
    gaps: ArrivalGen,
    sent: u64,
    in_batch: u32,
    current_tx: Option<TxId>,
    body_seed: u64,
    drafts: Vec<MessageDraft>,
    chunk: u64,
    in_backoff: bool,
    started: bool,
    finished: bool,
    live: Arc<AtomicUsize>,
}

impl ProducerTask {
    fn stop_requested(&self, cx: &Context<'_>) -> bool {
        cx.stopping()
            || self.shared.should_abort()
            || self.shared.stop_producing.load(Ordering::SeqCst)
    }

    fn limit_reached(&self) -> bool {
        self.spec
            .message_limit
            .is_some_and(|limit| self.sent >= limit)
    }

    fn arm_gap(&mut self, cx: &mut Context<'_>) {
        let gap = self.gaps.next_gap();
        cx.wake_after(gap);
    }

    /// Builds the next draft of the batch.
    fn push_draft(&mut self) {
        self.body_seed = self.body_seed.wrapping_add(1);
        let sequence = self.sent + self.drafts.len() as u64;
        let draft = draft(&self.spec, self.body_seed, self.stable_id, sequence);
        self.drafts.push(draft);
    }

    /// Sends the accumulated batch and handles the outcome (events,
    /// transacted commit boundary, chain drop / retry pacing on
    /// failure).
    fn ship(&mut self) -> Ship {
        let mut drafts = std::mem::take(&mut self.drafts);
        let active = self.chain.as_mut().expect("chain present to ship");
        // A single draft takes the plain send path so `send_batch = 1`
        // reproduces the unbatched driver exactly.
        let outcome = if drafts.len() == 1 {
            active
                .producer
                .send(drafts.pop().expect("one draft"))
                .map(|message| vec![message])
        } else {
            active.producer.send_batch(drafts)
        };
        match outcome {
            Ok(messages) => {
                self.retry.succeeded();
                for message in &messages {
                    let mut record = MessageRecord::from_message(message);
                    apply_harness_identity(&mut record);
                    self.recorder.record(EventKind::Send {
                        record,
                        session: active.session.id(),
                        tx: self.current_tx,
                    });
                }
                self.sent += messages.len() as u64;
                if let Some(batch) = self.spec.transacted_batch {
                    self.in_batch += messages.len() as u32;
                    if self.in_batch >= batch {
                        let session_id = active.session.id();
                        let tx = self.current_tx.take().expect("tx open");
                        match active.session.commit() {
                            Ok(()) => self.recorder.record(EventKind::Commit {
                                session: session_id,
                                tx,
                            }),
                            Err(_) => {
                                // Lost with the broker; this transaction's
                                // sends were never effective.
                                if self.reconnectable {
                                    self.chain = None;
                                }
                            }
                        }
                        self.in_batch = 0;
                    }
                }
                Ship::Sent
            }
            Err(error) => {
                self.recorder.record(EventKind::SendFailed {
                    producer: active.producer.id(),
                    reason: error.to_string(),
                });
                if self.reconnectable {
                    self.chain = None;
                    self.current_tx = None;
                    Ship::Lost
                } else {
                    match self.retry.next_delay() {
                        Ok(delay) => Ship::Backoff(delay),
                        Err(reason) => {
                            self.shared
                                .give_up(format!("producer {}: {reason}", self.stable_id));
                            Ship::GaveUp
                        }
                    }
                }
            }
        }
    }

    /// Commits any open transaction, so tail messages are not lost to
    /// the analysis as "never sent", closes the chain, and raises
    /// `producers_done` when this was the last producer standing.
    fn finalize(&mut self) -> Poll {
        if let Some(mut active) = self.chain.take() {
            if let Some(tx) = self.current_tx.take() {
                if self.in_batch > 0 {
                    let session_id = active.session.id();
                    if active.session.commit().is_ok() {
                        self.recorder.record(EventKind::Commit {
                            session: session_id,
                            tx,
                        });
                    }
                }
            }
            let _ = active.producer.close();
            let _ = active.session.close();
        }
        self.finished = true;
        if self.live.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.shared.producers_done.store(true, Ordering::SeqCst);
        }
        Poll::Ready
    }
}

impl Task for ProducerTask {
    fn poll(&mut self, cx: &mut Context<'_>) -> Poll {
        if self.finished {
            return Poll::Ready;
        }
        if !self.started {
            // First poll: pace the first draft. Every draft waits one
            // gap, including the very first.
            self.started = true;
            if self.stop_requested(cx) || self.limit_reached() {
                return self.finalize();
            }
            self.arm_gap(cx);
            return Poll::Pending;
        }
        if self.stop_requested(cx) {
            // Stopping mid-batch ships what was built.
            if !self.drafts.is_empty() && self.chain.is_some() {
                let _ = self.ship();
            }
            return self.finalize();
        }
        if self.in_backoff {
            // Backoff elapsed; the next gap paces the retry.
            self.in_backoff = false;
            self.arm_gap(cx);
            return Poll::Pending;
        }
        if self.limit_reached() {
            return self.finalize();
        }
        // A gap timer fired: this poll owes the batch one draft.
        if self.chain.is_none() {
            if !self.reconnectable {
                // Shared chain was lost; the node owns the connection.
                return self.finalize();
            }
            match connect_producer(self.shared.provider.as_ref(), &self.spec) {
                Ok(connected) => {
                    self.retry.succeeded();
                    self.chain = Some(connected);
                    self.in_batch = 0;
                    self.current_tx = None;
                }
                Err(_) => {
                    // Broker down or connect fault: back off and retry
                    // under the shared policy.
                    return match self.retry.next_delay() {
                        Ok(delay) => {
                            self.in_backoff = true;
                            cx.wake_after(delay);
                            Poll::Pending
                        }
                        Err(reason) => {
                            self.shared
                                .give_up(format!("producer {}: {reason}", self.stable_id));
                            self.finalize()
                        }
                    };
                }
            }
        }
        if self.drafts.is_empty() {
            // Starting a batch: lazily open a transaction and fix the
            // chunk — the configured send batch, capped so a message
            // limit or a transaction boundary is never crossed.
            if self.spec.transacted_batch.is_some() && self.current_tx.is_none() {
                self.current_tx = Some(TxId::from_raw(
                    self.shared.next_tx.fetch_add(1, Ordering::Relaxed),
                ));
            }
            let mut chunk = u64::from(self.spec.send_batch.max(1));
            if let Some(limit) = self.spec.message_limit {
                chunk = chunk.min(limit.saturating_sub(self.sent).max(1));
            }
            if let Some(batch) = self.spec.transacted_batch {
                chunk = chunk.min(u64::from(batch.saturating_sub(self.in_batch).max(1)));
            }
            self.chunk = chunk;
        }
        self.push_draft();
        if (self.drafts.len() as u64) < self.chunk {
            // Batch not full: the next draft is paced by its own gap.
            self.arm_gap(cx);
            return Poll::Pending;
        }
        match self.ship() {
            Ship::Sent | Ship::Lost => {
                self.arm_gap(cx);
                Poll::Pending
            }
            Ship::Backoff(delay) => {
                self.in_backoff = true;
                cx.wake_after(delay);
                Poll::Pending
            }
            Ship::GaveUp => self.finalize(),
        }
    }
}

/// One consumer driver as a reactor task. When the provider supports
/// [`set_waker`](jmst_api::provider::Consumer::set_waker) (the
/// reference broker does), deliveries enqueue the task on the ready
/// list directly; the `POLL` timer is only the safety net.
///
/// Wakes are hints, not commands: a provider waker or a `POLL` timer
/// may poll the task while it is meant to be idle, so every pause (think
/// time, reconnect pause, retry backoff) is held by `paused_until`
/// rather than by the timer alone.
struct ConsumerTask {
    shared: Arc<RunShared>,
    recorder: NodeRecorder,
    spec: ConsumerSpec,
    client: ClientId,
    reconnectable: bool,
    chain: Option<ConsumerChain>,
    retry: RetryState,
    received_total: u64,
    in_batch: u32,
    current_tx: Option<TxId>,
    last_delivery: Instant,
    reconnect_cycles: u32,
    /// Reactor time (nanoseconds) before which the consumer must not
    /// act; its timer is armed by [`ConsumerTask::pause`].
    paused_until: Option<u64>,
    /// Reactor time (nanoseconds) the last `POLL` timer fires at. The
    /// wheel cannot cancel a timer, so an empty receive arms a new one
    /// only once the last has fired.
    repoll_at: u64,
    started: bool,
    finished: bool,
}

impl ConsumerTask {
    /// Parks the consumer for `delay`; earlier wakes are ignored.
    fn pause(&mut self, cx: &mut Context<'_>, delay: Duration) -> Poll {
        let until = cx.now_nanos().saturating_add(delay.as_nanos() as u64);
        self.paused_until = Some(until);
        cx.wake_at_nanos(until);
        Poll::Pending
    }

    fn record_created(&self) {
        if let Some(active) = &self.chain {
            self.recorder.record(EventKind::ConsumerCreated {
                consumer: active.consumer.id(),
                endpoint: active.endpoint.clone(),
                session_mode: self.spec.session_mode,
                selector: self.spec.selector.clone(),
            });
        }
    }

    fn drained(&self) -> bool {
        self.shared.producers_done.load(Ordering::SeqCst)
            && self.last_delivery.elapsed() > self.shared.drain_quiet
    }

    /// Receive failure / commit failure: drop the chain (when ours to
    /// drop) and pace the retry, or give up. A shared chain belongs to
    /// the node, so it is kept and retried.
    fn connection_lost(&mut self, cx: &mut Context<'_>) -> Poll {
        if self.reconnectable {
            drop_chain(&mut self.chain, &self.recorder);
            self.current_tx = None;
            self.in_batch = 0;
        }
        match self.retry.next_delay() {
            Ok(delay) => self.pause(cx, delay),
            Err(reason) => {
                self.shared
                    .give_up(format!("consumer {}: {reason}", self.client));
                self.finalize()
            }
        }
    }

    fn finalize(&mut self) -> Poll {
        if let Some(active) = self.chain.as_mut() {
            finish_batch(
                active,
                &self.spec,
                &mut self.current_tx,
                &mut self.in_batch,
                &self.recorder,
            );
        }
        drop_chain(&mut self.chain, &self.recorder);
        self.finished = true;
        Poll::Ready
    }
}

impl Task for ConsumerTask {
    fn poll(&mut self, cx: &mut Context<'_>) -> Poll {
        if self.finished {
            return Poll::Ready;
        }
        if !self.started {
            self.started = true;
            self.record_created();
            if let Some(active) = &mut self.chain {
                let _ = active.consumer.set_waker(cx.waker().into_callback());
            }
        }
        if cx.stopping() || self.shared.should_abort() {
            return self.finalize();
        }
        if let Some(until) = self.paused_until {
            if cx.now_nanos() < until {
                // An early wake: the pause timer is still armed.
                return Poll::Pending;
            }
            self.paused_until = None;
        }
        if self.chain.is_none() {
            if !self.reconnectable {
                return self.finalize();
            }
            match connect_consumer(self.shared.provider.as_ref(), &self.spec, &self.client) {
                Ok(mut connected) => {
                    self.retry.succeeded();
                    let _ = connected.consumer.set_waker(cx.waker().into_callback());
                    self.chain = Some(connected);
                    self.record_created();
                    self.in_batch = 0;
                    self.current_tx = None;
                }
                Err(_) => {
                    if self.drained() {
                        return self.finalize();
                    }
                    return match self.retry.next_delay() {
                        Ok(delay) => self.pause(cx, delay),
                        Err(reason) => {
                            self.shared
                                .give_up(format!("consumer {}: {reason}", self.client));
                            self.finalize()
                        }
                    };
                }
            }
        }
        let mut processed = 0usize;
        loop {
            if self.shared.should_abort() {
                return self.finalize();
            }
            let active = self.chain.as_mut().expect("connected above");
            match active.consumer.receive(Some(Duration::ZERO)) {
                Ok(Some(message)) => {
                    self.retry.succeeded();
                    self.last_delivery = Instant::now();
                    self.received_total += 1;
                    if self.spec.session_mode == SessionMode::Transacted
                        && self.current_tx.is_none()
                    {
                        self.current_tx = Some(TxId::from_raw(
                            self.shared.next_tx.fetch_add(1, Ordering::Relaxed),
                        ));
                    }
                    let mut record = MessageRecord::from_message(&message);
                    apply_harness_identity(&mut record);
                    self.recorder.record(EventKind::Receive {
                        consumer: active.consumer.id(),
                        endpoint: active.endpoint.clone(),
                        record,
                        session: active.session.id(),
                        tx: self.current_tx,
                    });
                    self.in_batch += 1;
                    let mut lost = false;
                    if self.in_batch >= self.spec.batch {
                        match self.spec.session_mode {
                            SessionMode::Transacted => {
                                let session_id = active.session.id();
                                let tx = self.current_tx.take().expect("tx open");
                                match active.session.commit() {
                                    Ok(()) => self.recorder.record(EventKind::Commit {
                                        session: session_id,
                                        tx,
                                    }),
                                    Err(_) => lost = true,
                                }
                            }
                            SessionMode::ClientAcknowledge => {
                                let session_id = active.session.id();
                                if active.consumer.acknowledge().is_ok() {
                                    self.recorder.record(EventKind::Acknowledge {
                                        session: session_id,
                                    });
                                }
                            }
                            _ => {}
                        }
                        self.in_batch = 0;
                    }
                    // Disconnect/reconnect cycling.
                    if let Some(plan) = self.spec.reconnect {
                        if self.reconnect_cycles < plan.max_cycles
                            && self
                                .received_total
                                .is_multiple_of(plan.after_messages.max(1))
                        {
                            self.reconnect_cycles += 1;
                            let active = self.chain.as_mut().expect("active");
                            finish_batch(
                                active,
                                &self.spec,
                                &mut self.current_tx,
                                &mut self.in_batch,
                                &self.recorder,
                            );
                            drop_chain(&mut self.chain, &self.recorder);
                            return self.pause(cx, plan.pause);
                        }
                    }
                    if lost {
                        return self.connection_lost(cx);
                    }
                    if !self.spec.think_time.is_zero() {
                        // Simulated processing time: pause this consumer
                        // only, without occupying a worker.
                        return self.pause(cx, self.spec.think_time);
                    }
                    processed += 1;
                    if processed >= RECEIVE_SLICE {
                        cx.yield_now();
                        return Poll::Pending;
                    }
                }
                Ok(None) => {
                    if self.drained() {
                        return self.finalize();
                    }
                    // The provider's waker (when supported) beats this
                    // timer; either way the drain-quiet window is
                    // re-checked within `POLL`.
                    if cx.now_nanos() >= self.repoll_at {
                        self.repoll_at = cx.now_nanos() + POLL.as_nanos() as u64;
                        cx.wake_at_nanos(self.repoll_at);
                    }
                    return Poll::Pending;
                }
                Err(_) => {
                    // Crash or concurrent close: drop and reconnect
                    // (durable subscriptions resume where they left
                    // off).
                    return self.connection_lost(cx);
                }
            }
        }
    }
}
