//! A delivery end-point: the per-queue / per-subscription message buffer
//! with priority ordering, visibility delay, expiry, in-flight
//! (unacknowledged) tracking, and crash semantics.

use jmst_api::destination::EndpointId;
use jmst_api::error::Error;
use jmst_api::id::SessionId;
use jmst_api::message::Message;
use jmst_api::selector::Selector;
use jmst_api::time::{Clock, Timestamp};
use parking_lot::{Condvar, Mutex};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How a received message is tracked for acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackMode {
    /// Acknowledge immediately on delivery (auto-acknowledge sessions).
    Immediate,
    /// Keep in the in-flight set until the session acknowledges, commits,
    /// rolls back, or recovers.
    InFlight,
}

/// Ordering key: higher priority first, then arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EntryKey {
    /// `9 - priority`, so that ascending order is highest-priority-first.
    priority_rank: u8,
    /// Arrival sequence within this end-point.
    seq: u64,
}

#[derive(Debug, Clone)]
struct Entry {
    message: Arc<Message>,
    visible_at: Timestamp,
}

#[derive(Debug)]
struct InFlight {
    session: SessionId,
    message: Arc<Message>,
}

#[derive(Debug)]
struct Inner {
    pending: BTreeMap<EntryKey, Entry>,
    in_flight: Vec<InFlight>,
    next_seq: u64,
    destroyed: bool,
    expired_dropped: u64,
    delivered: u64,
    /// Receivers currently blocked in [`Endpoint::receive`]; lets inserts
    /// skip the condvar entirely when nobody is waiting.
    waiters: usize,
}

/// Statistics snapshot of an end-point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EndpointStats {
    /// Messages currently waiting.
    pub pending: usize,
    /// Messages delivered but not yet acknowledged.
    pub in_flight: usize,
    /// Expired messages silently dropped at delivery time.
    pub expired_dropped: u64,
    /// Messages delivered to consumers.
    pub delivered: u64,
}

/// Readiness callbacks registered by multiplexed (non-blocking)
/// consumers: fired — outside the buffer lock — whenever a message may
/// have become available or the end-point's state changed.
///
/// The atomic count lets the hot publish path skip the waker lock
/// entirely when nobody registered, mirroring the `waiters` optimisation
/// for blocked receivers.
#[derive(Default)]
struct WakerSet {
    count: AtomicUsize,
    wakers: Mutex<Vec<Arc<dyn Fn() + Send + Sync>>>,
}

impl WakerSet {
    fn add(&self, waker: Arc<dyn Fn() + Send + Sync>) {
        let mut wakers = self.wakers.lock();
        wakers.push(waker);
        self.count.store(wakers.len(), Ordering::Release);
    }

    /// Invokes every registered waker. Must be called with the
    /// end-point's buffer lock *released*: wakers are arbitrary callbacks
    /// and may re-enter the end-point.
    fn fire(&self) {
        if self.count.load(Ordering::Acquire) > 0 {
            let wakers: Vec<_> = self.wakers.lock().clone();
            for waker in wakers {
                waker();
            }
        }
    }

    fn clear(&self) {
        let mut wakers = self.wakers.lock();
        wakers.clear();
        self.count.store(0, Ordering::Release);
    }
}

impl fmt::Debug for WakerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WakerSet")
            .field("count", &self.count.load(Ordering::Relaxed))
            .finish()
    }
}

/// A message buffer for one consumer group (queue or subscription).
///
/// Thread-safe: producers insert from any thread. Consumers either block
/// in [`Endpoint::receive`] or pair a persistent waker
/// ([`Endpoint::add_waker`]) with the non-blocking
/// [`Endpoint::try_receive_batch`]. Delivery order is highest priority
/// first and FIFO within a priority, which preserves the per-producer
/// ordering the paper's Property 3 requires. A queue selector filters in
/// place: entries it rejects are skipped, never removed, so they keep
/// their position for other consumers.
#[derive(Debug)]
pub struct Endpoint {
    id: EndpointId,
    enforce_expiry: bool,
    enforce_priority: bool,
    /// Backpressure bound on `pending` enforced by the `try_insert`
    /// family (the routing path). `None` is unbounded. The plain
    /// `insert` family ignores the bound: dead-letter parking must never
    /// fail.
    bound: Option<usize>,
    inner: Mutex<Inner>,
    available: Condvar,
    wakers: WakerSet,
}

/// Outcome of a bounded, non-blocking insert ([`Endpoint::try_insert`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The message was buffered.
    Inserted,
    /// The backpressure bound is reached; the caller should surface
    /// `WouldBlock`-style backpressure (the harness maps this to
    /// [`Error::ResourceExhausted`]) instead of buffering unboundedly.
    Full,
    /// The end-point was destroyed.
    Destroyed,
}

/// Upper bound on one condvar wait. Arrivals, visibility edges, session
/// recovery, crash and destroy all notify the condvar, so waits normally
/// end by wakeup; this coarse slice only bounds how long a receiver can
/// miss conditions nothing notifies for (connection stop/start, virtual
/// clock advances).
const LIVENESS_SLICE: Duration = Duration::from_millis(25);

impl Endpoint {
    /// Creates an empty end-point.
    pub fn new(id: EndpointId, enforce_expiry: bool, enforce_priority: bool) -> Self {
        Self {
            id,
            enforce_expiry,
            enforce_priority,
            bound: None,
            inner: Mutex::new(Inner {
                pending: BTreeMap::new(),
                in_flight: Vec::new(),
                next_seq: 0,
                destroyed: false,
                expired_dropped: 0,
                delivered: 0,
                waiters: 0,
            }),
            available: Condvar::new(),
            wakers: WakerSet::default(),
        }
    }

    /// Returns a copy with a backpressure bound: [`Endpoint::try_insert`]
    /// and [`Endpoint::try_insert_batch`] report [`InsertOutcome::Full`]
    /// once `bound` messages are pending. `None` is unbounded.
    pub fn with_bound(mut self, bound: Option<usize>) -> Self {
        self.bound = bound;
        self
    }

    /// The configured backpressure bound, if any.
    pub fn bound(&self) -> Option<usize> {
        self.bound
    }

    /// Returns the end-point's identity.
    pub fn id(&self) -> &EndpointId {
        &self.id
    }

    /// Registers a readiness callback fired (outside the buffer lock)
    /// whenever a message may have become available or the end-point's
    /// state changed: inserts, session recovery, crash, destroy.
    /// Spurious invocations are allowed. Wakers live until the end-point
    /// is destroyed.
    pub fn add_waker(&self, waker: Arc<dyn Fn() + Send + Sync>) {
        self.wakers.add(waker);
    }

    /// Buffers `message` under the next arrival sequence (ranked by
    /// priority when priority is enforced).
    fn push(&self, inner: &mut Inner, message: Arc<Message>, visible_at: Timestamp) {
        let key = EntryKey {
            priority_rank: if self.enforce_priority {
                9 - message.priority().level()
            } else {
                0
            },
            seq: inner.next_seq,
        };
        inner.next_seq += 1;
        inner.pending.insert(
            key,
            Entry {
                message,
                visible_at,
            },
        );
    }

    /// Wakes blocked receivers, but only if there are any: the common
    /// publish path with no waiting consumer skips the condvar call.
    fn wake_receivers(&self, inner: &Inner) {
        if inner.waiters > 0 {
            self.available.notify_all();
        }
    }

    /// Inserts a message that becomes visible to consumers at
    /// `visible_at`. Returns `false` if the end-point was destroyed.
    ///
    /// The message is shared, not copied: fanning one publish out to many
    /// end-points only bumps the [`Arc`] reference count.
    pub fn insert(&self, message: Arc<Message>, visible_at: Timestamp) -> bool {
        {
            let mut inner = self.inner.lock();
            if inner.destroyed {
                return false;
            }
            self.push(&mut inner, message, visible_at);
            self.wake_receivers(&inner);
        }
        self.wakers.fire();
        true
    }

    /// Inserts a batch of messages that all become visible at
    /// `visible_at`, taking the buffer lock once and waking receivers
    /// once for the whole batch. Returns the number inserted (`0` if the
    /// end-point was destroyed).
    ///
    /// Equivalent to calling [`Endpoint::insert`] per message in order —
    /// arrival sequence numbers are assigned in iteration order — but
    /// with the per-message lock/wakeup cost amortised.
    pub fn insert_batch<'a, I>(&self, messages: I, visible_at: Timestamp) -> u64
    where
        I: IntoIterator<Item = &'a Arc<Message>>,
    {
        let inserted = {
            let mut inner = self.inner.lock();
            if inner.destroyed {
                return 0;
            }
            let mut inserted = 0u64;
            for message in messages {
                self.push(&mut inner, Arc::clone(message), visible_at);
                inserted += 1;
            }
            if inserted > 0 {
                self.wake_receivers(&inner);
            }
            inserted
        };
        if inserted > 0 {
            self.wakers.fire();
        }
        inserted
    }

    /// Inserts a message respecting the backpressure bound: with `bound`
    /// pending messages already buffered the message is rejected with
    /// [`InsertOutcome::Full`] instead of growing the buffer. This is
    /// the routing path's insert; in-flight (delivered, unacknowledged)
    /// messages do not count against the bound.
    pub fn try_insert(&self, message: Arc<Message>, visible_at: Timestamp) -> InsertOutcome {
        {
            let mut inner = self.inner.lock();
            if inner.destroyed {
                return InsertOutcome::Destroyed;
            }
            if self.bound.is_some_and(|bound| inner.pending.len() >= bound) {
                return InsertOutcome::Full;
            }
            self.push(&mut inner, message, visible_at);
            self.wake_receivers(&inner);
        }
        self.wakers.fire();
        InsertOutcome::Inserted
    }

    /// Bounded batch insert: buffers messages in order until the
    /// backpressure bound is reached, then rejects the rest. Returns the
    /// number inserted and whether the bound cut the batch short.
    /// `(0, false)` with a non-empty input means the end-point was
    /// destroyed.
    pub fn try_insert_batch<'a, I>(&self, messages: I, visible_at: Timestamp) -> (u64, bool)
    where
        I: IntoIterator<Item = &'a Arc<Message>>,
    {
        let (inserted, hit_bound) = {
            let mut inner = self.inner.lock();
            if inner.destroyed {
                return (0, false);
            }
            let mut inserted = 0u64;
            let mut hit_bound = false;
            for message in messages {
                if self.bound.is_some_and(|bound| inner.pending.len() >= bound) {
                    hit_bound = true;
                    break;
                }
                self.push(&mut inner, Arc::clone(message), visible_at);
                inserted += 1;
            }
            if inserted > 0 {
                self.wake_receivers(&inner);
            }
            (inserted, hit_bound)
        };
        if inserted > 0 {
            self.wakers.fire();
        }
        (inserted, hit_bound)
    }

    /// Receives the next visible, unexpired message that `selector`
    /// accepts (`None` accepts every message), blocking up to `timeout`
    /// (`None` waits without bound).
    ///
    /// `session` identifies the receiving session for in-flight tracking;
    /// `track` selects the acknowledgement discipline. `started` is
    /// polled so a stopped connection suspends delivery; `alive` is polled
    /// so broker crashes and closed consumers abort the wait.
    ///
    /// The timeout is measured on `clock`. With a virtual clock a timeout
    /// only elapses if some other thread advances the clock — use
    /// `Some(Duration::ZERO)` (poll) or a real clock for blocking
    /// receives in tests.
    ///
    /// Waits are wakeup-driven: inserts, session recovery, crash and
    /// destroy notify blocked receivers, and a receiver that saw only
    /// not-yet-visible messages sleeps exactly until the earliest
    /// visibility edge. Conditions nothing notifies for (connection
    /// stop/start, virtual clock advances) are caught by a coarse
    /// [`LIVENESS_SLICE`] re-check.
    ///
    /// # Errors
    ///
    /// Returns whatever error `alive` reports (for example
    /// [`Error::EndpointClosed`] after a concurrent close).
    #[allow(clippy::too_many_arguments)]
    pub fn receive(
        &self,
        clock: &dyn Clock,
        timeout: Option<Duration>,
        session: SessionId,
        track: TrackMode,
        selector: Option<&Selector>,
        started: &dyn Fn() -> bool,
        alive: &dyn Fn() -> Result<(), Error>,
    ) -> Result<Option<Arc<Message>>, Error> {
        let deadline = timeout.map(|t| clock.now().saturating_add(t));
        let mut inner = self.inner.lock();
        loop {
            alive()?;
            if inner.destroyed {
                return Err(Error::EndpointClosed);
            }
            let now = clock.now();
            if started() {
                if let Some(message) = self.take(&mut inner, now, session, track, selector) {
                    return Ok(Some(message));
                }
            }
            // Nothing deliverable: sleep until something can change that —
            // a wakeup, the next visibility edge, the caller's deadline —
            // bounded by the liveness slice.
            if let Some(deadline) = deadline {
                if now >= deadline {
                    return Ok(None);
                }
            }
            let mut wait = LIVENESS_SLICE;
            if let Some(deadline) = deadline {
                wait = wait.min(deadline.saturating_since(now));
            }
            if started() {
                if let Some(visible_at) = Self::next_visible_at(&inner, now) {
                    wait = wait.min(visible_at.saturating_since(now));
                }
            }
            inner.waiters += 1;
            self.available.wait_for(&mut inner, wait);
            inner.waiters -= 1;
        }
    }

    /// Takes up to `max` visible, unexpired messages that `selector`
    /// accepts without blocking, holding the buffer lock once for the
    /// whole batch. Returns an empty vector when nothing is deliverable
    /// (or the connection is stopped).
    ///
    /// This is the multiplexer's receive path: a worker thread draining
    /// many virtual consumers calls this instead of parking per-client in
    /// [`Endpoint::receive`], pairing it with a waker registered through
    /// [`Endpoint::add_waker`] to learn when to come back.
    ///
    /// Tracking semantics are identical to `max` sequential receives with
    /// a zero timeout.
    ///
    /// # Errors
    ///
    /// Returns whatever error `alive` reports, or
    /// [`Error::EndpointClosed`] after the end-point is destroyed.
    #[allow(clippy::too_many_arguments)]
    pub fn try_receive_batch(
        &self,
        clock: &dyn Clock,
        session: SessionId,
        track: TrackMode,
        selector: Option<&Selector>,
        max: usize,
        started: &dyn Fn() -> bool,
        alive: &dyn Fn() -> Result<(), Error>,
    ) -> Result<Vec<Arc<Message>>, Error> {
        alive()?;
        let mut batch = Vec::new();
        if max == 0 || !started() {
            return Ok(batch);
        }
        let mut inner = self.inner.lock();
        if inner.destroyed {
            return Err(Error::EndpointClosed);
        }
        let now = clock.now();
        while batch.len() < max {
            let Some(message) = self.take(&mut inner, now, session, track, selector) else {
                break;
            };
            batch.push(message);
        }
        Ok(batch)
    }

    /// The earliest future visibility edge among pending messages, if any.
    fn next_visible_at(inner: &Inner, now: Timestamp) -> Option<Timestamp> {
        inner
            .pending
            .values()
            .filter(|entry| entry.visible_at > now)
            .map(|entry| entry.visible_at)
            .min()
    }

    /// Delivers the first visible, unexpired pending message that
    /// `selector` accepts to `session`, tracking it per `track`, and
    /// drops expired entries encountered on the way (when expiry is
    /// enforced). Entries the selector rejects stay where they are, in
    /// order, for other consumers.
    fn take(
        &self,
        inner: &mut Inner,
        now: Timestamp,
        session: SessionId,
        track: TrackMode,
        selector: Option<&Selector>,
    ) -> Option<Arc<Message>> {
        let mut expired_keys = Vec::new();
        let mut taken_key = None;
        for (key, entry) in inner.pending.iter() {
            if entry.visible_at > now {
                continue; // not yet visible; later entries may be
            }
            if self.enforce_expiry && entry.message.is_expired_at(now) {
                expired_keys.push(*key);
                continue;
            }
            if selector.is_some_and(|selector| !selector.matches(&entry.message)) {
                continue; // left in place for other consumers
            }
            taken_key = Some(*key);
            break;
        }
        inner.expired_dropped += expired_keys.len() as u64;
        for key in expired_keys {
            inner.pending.remove(&key);
        }
        let message = inner.pending.remove(&taken_key?)?.message;
        inner.delivered += 1;
        if track == TrackMode::InFlight {
            inner.in_flight.push(InFlight {
                session,
                message: Arc::clone(&message),
            });
        }
        Some(message)
    }

    /// Returns a snapshot of the currently visible, unexpired pending
    /// messages in delivery order, without consuming them (queue
    /// browsing). The returned messages share the buffered payloads.
    pub fn browse(&self, now: Timestamp) -> Vec<Arc<Message>> {
        let inner = self.inner.lock();
        inner
            .pending
            .values()
            .filter(|entry| entry.visible_at <= now)
            .filter(|entry| !(self.enforce_expiry && entry.message.is_expired_at(now)))
            .map(|entry| Arc::clone(&entry.message))
            .collect()
    }

    /// Acknowledges all in-flight messages of `session`.
    pub fn ack_session(&self, session: SessionId) {
        let mut inner = self.inner.lock();
        inner.in_flight.retain(|entry| entry.session != session);
    }

    /// Acknowledges the given message for `session` (used by transacted
    /// commit, which knows exactly which messages the transaction covers).
    pub fn ack_message(&self, session: SessionId, message: jmst_api::id::MessageId) {
        let mut inner = self.inner.lock();
        if let Some(index) = inner
            .in_flight
            .iter()
            .position(|entry| entry.session == session && entry.message.id() == message)
        {
            inner.in_flight.swap_remove(index);
        }
    }

    /// Returns `session`'s in-flight messages to the pending set, marked
    /// redelivered with an incremented delivery count (rollback / session
    /// recovery / `Session::recover`).
    ///
    /// Messages whose redelivery would exceed `max_redeliveries` are *not*
    /// requeued; they are returned as poison messages for the caller to
    /// park on the destination's dead-letter queue.
    pub fn recover_session(
        &self,
        session: SessionId,
        now: Timestamp,
        max_redeliveries: Option<u32>,
    ) -> Vec<Arc<Message>> {
        let mut inner = self.inner.lock();
        let recovered: Vec<Arc<Message>> = {
            let mut kept = Vec::new();
            let mut taken = Vec::new();
            for entry in inner.in_flight.drain(..) {
                if entry.session == session {
                    taken.push(entry.message);
                } else {
                    kept.push(entry);
                }
            }
            inner.in_flight = kept;
            taken
        };
        let mut poisoned = Vec::new();
        for message in recovered {
            self.requeue_redelivered(&mut inner, message, now, max_redeliveries, &mut poisoned);
        }
        self.wake_receivers(&inner);
        drop(inner);
        self.wakers.fire();
        poisoned
    }

    /// Requeues a formerly in-flight message as a redelivery, or diverts
    /// it to `poisoned` when its redelivery count would exceed
    /// `max_redeliveries`.
    ///
    /// A message with `delivery_count` *n* has been redelivered *n − 1*
    /// times; requeueing it makes the next delivery redelivery number *n*,
    /// so the poison condition is `delivery_count > bound`. A poisoned
    /// message is returned unchanged — its count records the deliveries
    /// actually burned on it.
    fn requeue_redelivered(
        &self,
        inner: &mut Inner,
        message: Arc<Message>,
        now: Timestamp,
        max_redeliveries: Option<u32>,
        poisoned: &mut Vec<Arc<Message>>,
    ) {
        if let Some(bound) = max_redeliveries {
            if message.delivery_count() > bound {
                poisoned.push(message);
                return;
            }
        }
        let redelivered = Arc::new(
            message
                .as_redelivered()
                .with_delivery_count(message.delivery_count() + 1),
        );
        self.push(inner, redelivered, now);
    }

    /// Applies crash semantics: unacknowledged in-flight messages return
    /// to the pending set, and only persistent messages survive (unless
    /// the broker is configured to lose those too).
    ///
    /// Requeued in-flight messages count the crash as a redelivery;
    /// messages past `max_redeliveries` are returned as poison messages
    /// instead of being requeued (only messages that would have survived
    /// the crash are eligible — a non-persistent in-flight message is
    /// simply lost, like its pending peers).
    pub fn crash(
        &self,
        keep_persistent: bool,
        now: Timestamp,
        max_redeliveries: Option<u32>,
    ) -> Vec<Arc<Message>> {
        let mut inner = self.inner.lock();
        let in_flight: Vec<Arc<Message>> = inner
            .in_flight
            .drain(..)
            .map(|entry| entry.message)
            .collect();
        let mut poisoned = Vec::new();
        for message in in_flight {
            if !(keep_persistent && message.delivery_mode().is_persistent()) {
                continue;
            }
            self.requeue_redelivered(&mut inner, message, now, max_redeliveries, &mut poisoned);
        }
        inner
            .pending
            .retain(|_, entry| keep_persistent && entry.message.delivery_mode().is_persistent());
        self.wake_receivers(&inner);
        drop(inner);
        self.wakers.fire();
        poisoned
    }

    /// Destroys the end-point: pending messages are discarded and blocked
    /// receivers are woken (they observe [`Error::EndpointClosed`]);
    /// registered wakers fire one final time and are released.
    pub fn destroy(&self) {
        let mut inner = self.inner.lock();
        inner.destroyed = true;
        inner.pending.clear();
        inner.in_flight.clear();
        self.wake_receivers(&inner);
        drop(inner);
        self.wakers.fire();
        self.wakers.clear();
    }

    /// Returns `true` if the end-point has been destroyed.
    pub fn is_destroyed(&self) -> bool {
        self.inner.lock().destroyed
    }

    /// Returns a statistics snapshot.
    pub fn stats(&self) -> EndpointStats {
        let inner = self.inner.lock();
        EndpointStats {
            pending: inner.pending.len(),
            in_flight: inner.in_flight.len(),
            expired_dropped: inner.expired_dropped,
            delivered: inner.delivered,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmst_api::destination::{Destination, QueueName};
    use jmst_api::id::{MessageId, ProducerId};
    use jmst_api::message::{MessageDraft, Stamp};
    use jmst_api::modes::{DeliveryMode, Priority, TimeToLive};
    use jmst_sim::VirtualClock;
    use std::sync::Arc;

    fn endpoint() -> Endpoint {
        Endpoint::new(EndpointId::for_queue(QueueName::new("q")), true, true)
    }

    fn message(seq: u64, priority: u8, mode: DeliveryMode, ttl_ms: u64) -> Arc<Message> {
        Arc::new(
            MessageDraft::text(format!("m{seq}"))
                .priority(Priority::new(priority).unwrap())
                .delivery_mode(mode)
                .time_to_live(TimeToLive::from_millis(ttl_ms))
                .stamp(Stamp {
                    id: MessageId::from_raw(seq),
                    producer: ProducerId::from_raw(1),
                    sequence: seq,
                    destination: Destination::queue("q"),
                    sent_at: Timestamp::ZERO,
                }),
        )
    }

    fn receive_now(
        ep: &Endpoint,
        clock: &dyn Clock,
        track: TrackMode,
    ) -> Result<Option<Arc<Message>>, Error> {
        ep.receive(
            clock,
            Some(Duration::ZERO),
            SessionId::from_raw(1),
            track,
            None,
            &|| true,
            &|| Ok(()),
        )
    }

    fn batch_now(
        ep: &Endpoint,
        clock: &dyn Clock,
        track: TrackMode,
        selector: Option<&Selector>,
        max: usize,
    ) -> Result<Vec<Arc<Message>>, Error> {
        let session = SessionId::from_raw(1);
        ep.try_receive_batch(clock, session, track, selector, max, &|| true, &|| Ok(()))
    }

    #[test]
    fn fifo_within_priority() {
        let clock = VirtualClock::new();
        let ep = endpoint();
        for i in 0..3 {
            ep.insert(message(i, 4, DeliveryMode::Persistent, 0), Timestamp::ZERO);
        }
        for i in 0..3 {
            let got = receive_now(&ep, &clock, TrackMode::Immediate)
                .unwrap()
                .unwrap();
            assert_eq!(got.sequence(), i);
        }
        assert_eq!(
            receive_now(&ep, &clock, TrackMode::Immediate).unwrap(),
            None
        );
    }

    #[test]
    fn higher_priority_first() {
        let clock = VirtualClock::new();
        let ep = endpoint();
        ep.insert(message(0, 1, DeliveryMode::Persistent, 0), Timestamp::ZERO);
        ep.insert(message(1, 8, DeliveryMode::Persistent, 0), Timestamp::ZERO);
        ep.insert(message(2, 4, DeliveryMode::Persistent, 0), Timestamp::ZERO);
        let order: Vec<u64> = (0..3)
            .map(|_| {
                receive_now(&ep, &clock, TrackMode::Immediate)
                    .unwrap()
                    .unwrap()
                    .sequence()
            })
            .collect();
        assert_eq!(order, [1, 2, 0]);
    }

    #[test]
    fn priority_ignored_when_not_enforced() {
        let clock = VirtualClock::new();
        let ep = Endpoint::new(EndpointId::for_queue(QueueName::new("q")), true, false);
        ep.insert(message(0, 1, DeliveryMode::Persistent, 0), Timestamp::ZERO);
        ep.insert(message(1, 8, DeliveryMode::Persistent, 0), Timestamp::ZERO);
        let first = receive_now(&ep, &clock, TrackMode::Immediate)
            .unwrap()
            .unwrap();
        assert_eq!(first.sequence(), 0, "FIFO when priority not enforced");
    }

    #[test]
    fn visibility_delay_hides_messages() {
        let clock = VirtualClock::new();
        let ep = endpoint();
        ep.insert(
            message(0, 4, DeliveryMode::Persistent, 0),
            Timestamp::from_millis(10),
        );
        assert_eq!(
            receive_now(&ep, &clock, TrackMode::Immediate).unwrap(),
            None
        );
        clock.advance(Duration::from_millis(10));
        assert!(receive_now(&ep, &clock, TrackMode::Immediate)
            .unwrap()
            .is_some());
    }

    #[test]
    fn expired_messages_are_dropped_and_counted() {
        let clock = VirtualClock::new();
        let ep = endpoint();
        ep.insert(message(0, 4, DeliveryMode::Persistent, 1), Timestamp::ZERO);
        ep.insert(message(1, 4, DeliveryMode::Persistent, 0), Timestamp::ZERO);
        clock.advance(Duration::from_millis(5));
        let got = receive_now(&ep, &clock, TrackMode::Immediate)
            .unwrap()
            .unwrap();
        assert_eq!(got.sequence(), 1);
        assert_eq!(ep.stats().expired_dropped, 1);
    }

    #[test]
    fn expired_messages_delivered_when_not_enforced() {
        let clock = VirtualClock::new();
        let ep = Endpoint::new(EndpointId::for_queue(QueueName::new("q")), false, true);
        ep.insert(message(0, 4, DeliveryMode::Persistent, 1), Timestamp::ZERO);
        clock.advance(Duration::from_millis(5));
        let got = receive_now(&ep, &clock, TrackMode::Immediate)
            .unwrap()
            .unwrap();
        assert_eq!(got.sequence(), 0);
        assert_eq!(ep.stats().expired_dropped, 0);
    }

    #[test]
    fn in_flight_tracking_ack_and_recover() {
        let clock = VirtualClock::new();
        let ep = endpoint();
        ep.insert(message(0, 4, DeliveryMode::Persistent, 0), Timestamp::ZERO);
        let got = receive_now(&ep, &clock, TrackMode::InFlight)
            .unwrap()
            .unwrap();
        assert_eq!(ep.stats().in_flight, 1);
        // Recover: message returns as redelivered with a bumped count.
        let poisoned = ep.recover_session(SessionId::from_raw(1), clock.now(), None);
        assert!(poisoned.is_empty());
        assert_eq!(ep.stats().in_flight, 0);
        let again = receive_now(&ep, &clock, TrackMode::InFlight)
            .unwrap()
            .unwrap();
        assert_eq!(again.id(), got.id());
        assert!(again.is_redelivered());
        assert_eq!(again.delivery_count(), 2);
        // Ack: gone for good.
        ep.ack_session(SessionId::from_raw(1));
        assert_eq!(ep.stats().in_flight, 0);
        assert_eq!(receive_now(&ep, &clock, TrackMode::InFlight).unwrap(), None);
    }

    #[test]
    fn ack_message_removes_single_entry() {
        let clock = VirtualClock::new();
        let ep = endpoint();
        ep.insert(message(0, 4, DeliveryMode::Persistent, 0), Timestamp::ZERO);
        ep.insert(message(1, 4, DeliveryMode::Persistent, 0), Timestamp::ZERO);
        let a = receive_now(&ep, &clock, TrackMode::InFlight)
            .unwrap()
            .unwrap();
        let _b = receive_now(&ep, &clock, TrackMode::InFlight)
            .unwrap()
            .unwrap();
        ep.ack_message(SessionId::from_raw(1), a.id());
        assert_eq!(ep.stats().in_flight, 1);
    }

    #[test]
    fn crash_keeps_only_persistent_and_requeues_in_flight() {
        let clock = VirtualClock::new();
        let ep = endpoint();
        ep.insert(message(0, 4, DeliveryMode::Persistent, 0), Timestamp::ZERO);
        ep.insert(
            message(1, 4, DeliveryMode::NonPersistent, 0),
            Timestamp::ZERO,
        );
        ep.insert(message(2, 4, DeliveryMode::Persistent, 0), Timestamp::ZERO);
        // Take one persistent message but do not ack it.
        let taken = receive_now(&ep, &clock, TrackMode::InFlight)
            .unwrap()
            .unwrap();
        assert_eq!(taken.sequence(), 0);
        let poisoned = ep.crash(true, clock.now(), None);
        assert!(poisoned.is_empty());
        // Survivors: seq 0 (was in flight, persistent) and seq 2.
        let mut survivors = Vec::new();
        while let Some(m) = receive_now(&ep, &clock, TrackMode::Immediate).unwrap() {
            survivors.push(m.sequence());
        }
        survivors.sort_unstable();
        assert_eq!(survivors, [0, 2]);
    }

    #[test]
    fn crash_without_persistence_loses_everything() {
        let clock = VirtualClock::new();
        let ep = endpoint();
        ep.insert(message(0, 4, DeliveryMode::Persistent, 0), Timestamp::ZERO);
        ep.crash(false, clock.now(), None);
        assert_eq!(
            receive_now(&ep, &clock, TrackMode::Immediate).unwrap(),
            None
        );
    }

    #[test]
    fn bounded_redelivery_parks_poison_messages() {
        let clock = VirtualClock::new();
        let ep = endpoint();
        ep.insert(message(0, 4, DeliveryMode::Persistent, 0), Timestamp::ZERO);
        // Redelivery 1 (delivery 2) is within the bound of 1.
        receive_now(&ep, &clock, TrackMode::InFlight)
            .unwrap()
            .unwrap();
        assert!(ep
            .recover_session(SessionId::from_raw(1), clock.now(), Some(1))
            .is_empty());
        let second = receive_now(&ep, &clock, TrackMode::InFlight)
            .unwrap()
            .unwrap();
        assert_eq!(second.delivery_count(), 2);
        // Redelivery 2 would exceed the bound: the message is poisoned.
        let poisoned = ep.recover_session(SessionId::from_raw(1), clock.now(), Some(1));
        assert_eq!(poisoned.len(), 1);
        assert_eq!(poisoned[0].delivery_count(), 2);
        assert_eq!(receive_now(&ep, &clock, TrackMode::InFlight).unwrap(), None);
        assert_eq!(ep.stats().in_flight, 0);
    }

    #[test]
    fn crash_redelivery_counts_toward_poison_bound() {
        let clock = VirtualClock::new();
        let ep = endpoint();
        ep.insert(message(0, 4, DeliveryMode::Persistent, 0), Timestamp::ZERO);
        receive_now(&ep, &clock, TrackMode::InFlight)
            .unwrap()
            .unwrap();
        assert!(ep.crash(true, clock.now(), Some(1)).is_empty());
        let second = receive_now(&ep, &clock, TrackMode::InFlight)
            .unwrap()
            .unwrap();
        assert!(second.is_redelivered());
        assert_eq!(second.delivery_count(), 2);
        let poisoned = ep.crash(true, clock.now(), Some(1));
        assert_eq!(poisoned.len(), 1);
    }

    #[test]
    fn destroy_wakes_and_errors() {
        let clock = Arc::new(VirtualClock::new());
        let ep = Arc::new(endpoint());
        let ep2 = Arc::clone(&ep);
        let clock2 = Arc::clone(&clock);
        let handle = std::thread::spawn(move || {
            ep2.receive(
                clock2.as_ref(),
                None,
                SessionId::from_raw(1),
                TrackMode::Immediate,
                None,
                &|| true,
                &|| Ok(()),
            )
        });
        std::thread::sleep(Duration::from_millis(20));
        ep.destroy();
        let result = handle.join().unwrap();
        assert_eq!(result.unwrap_err(), Error::EndpointClosed);
        assert!(ep.is_destroyed());
        // Inserts after destroy are refused.
        assert!(!ep.insert(message(0, 4, DeliveryMode::Persistent, 0), Timestamp::ZERO));
    }

    #[test]
    fn stopped_connection_suspends_delivery() {
        let clock = VirtualClock::new();
        let ep = endpoint();
        ep.insert(message(0, 4, DeliveryMode::Persistent, 0), Timestamp::ZERO);
        let got = ep
            .receive(
                &clock,
                Some(Duration::ZERO),
                SessionId::from_raw(1),
                TrackMode::Immediate,
                None,
                &|| false, // connection stopped
                &|| Ok(()),
            )
            .unwrap();
        assert_eq!(got, None);
    }

    #[test]
    fn blocking_receive_wakes_on_insert() {
        let clock = Arc::new(VirtualClock::new());
        let ep = Arc::new(endpoint());
        let ep2 = Arc::clone(&ep);
        let clock2 = Arc::clone(&clock);
        let handle = std::thread::spawn(move || {
            ep2.receive(
                clock2.as_ref(),
                None,
                SessionId::from_raw(1),
                TrackMode::Immediate,
                None,
                &|| true,
                &|| Ok(()),
            )
        });
        std::thread::sleep(Duration::from_millis(10));
        ep.insert(message(7, 4, DeliveryMode::Persistent, 0), Timestamp::ZERO);
        let got = handle.join().unwrap().unwrap().unwrap();
        assert_eq!(got.sequence(), 7);
    }

    #[test]
    fn delivered_counter_increments() {
        let clock = VirtualClock::new();
        let ep = endpoint();
        ep.insert(message(0, 4, DeliveryMode::Persistent, 0), Timestamp::ZERO);
        receive_now(&ep, &clock, TrackMode::Immediate).unwrap();
        assert_eq!(ep.stats().delivered, 1);
    }

    #[test]
    fn delivery_shares_inserted_payload() {
        let clock = VirtualClock::new();
        let ep = endpoint();
        let sent = message(0, 4, DeliveryMode::Persistent, 0);
        ep.insert(Arc::clone(&sent), Timestamp::ZERO);
        let got = receive_now(&ep, &clock, TrackMode::Immediate)
            .unwrap()
            .unwrap();
        assert!(
            Arc::ptr_eq(&sent, &got),
            "buffered message must be shared, not copied"
        );
        assert!(got.shares_payload_with(&sent));
    }

    #[test]
    fn blocked_receiver_wakes_at_visibility_edge() {
        use jmst_api::time::SystemClock;
        let clock = Arc::new(SystemClock::new());
        let ep = Arc::new(endpoint());
        let visible_at = clock.now().saturating_add(Duration::from_millis(30));
        ep.insert(message(0, 4, DeliveryMode::Persistent, 0), visible_at);
        let ep2 = Arc::clone(&ep);
        let clock2 = Arc::clone(&clock);
        let handle = std::thread::spawn(move || {
            ep2.receive(
                clock2.as_ref(),
                Some(Duration::from_secs(5)),
                SessionId::from_raw(1),
                TrackMode::Immediate,
                None,
                &|| true,
                &|| Ok(()),
            )
        });
        let got = handle.join().unwrap().unwrap();
        assert!(got.is_some(), "visibility edge must wake the receiver");
        assert!(
            clock.now() < Timestamp::from_millis(2_000),
            "receiver should wake at the edge, not at the timeout"
        );
    }

    #[test]
    fn try_receive_batch_drains_without_blocking() {
        let clock = VirtualClock::new();
        let ep = endpoint();
        for i in 0..5 {
            ep.insert(message(i, 4, DeliveryMode::Persistent, 0), Timestamp::ZERO);
        }
        let batch = batch_now(&ep, &clock, TrackMode::Immediate, None, 3).unwrap();
        assert_eq!(
            batch.iter().map(|m| m.sequence()).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        // The remainder comes on the next call; an empty endpoint yields
        // an empty batch instead of blocking.
        let rest = batch_now(&ep, &clock, TrackMode::Immediate, None, 10).unwrap();
        assert_eq!(rest.len(), 2);
        let empty = batch_now(&ep, &clock, TrackMode::Immediate, None, 10).unwrap();
        assert!(empty.is_empty());
        assert_eq!(ep.stats().delivered, 5);
    }

    #[test]
    fn try_receive_batch_tracks_in_flight() {
        let clock = VirtualClock::new();
        let ep = endpoint();
        for i in 0..3 {
            ep.insert(message(i, 4, DeliveryMode::Persistent, 0), Timestamp::ZERO);
        }
        let batch = batch_now(&ep, &clock, TrackMode::InFlight, None, 10).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(ep.stats().in_flight, 3);
        ep.ack_session(SessionId::from_raw(1));
        assert_eq!(ep.stats().in_flight, 0);
    }

    #[test]
    fn try_receive_batch_respects_stopped_connection_and_destroy() {
        let clock = VirtualClock::new();
        let ep = endpoint();
        ep.insert(message(0, 4, DeliveryMode::Persistent, 0), Timestamp::ZERO);
        let stopped = ep
            .try_receive_batch(
                &clock,
                SessionId::from_raw(1),
                TrackMode::Immediate,
                None,
                10,
                &|| false,
                &|| Ok(()),
            )
            .unwrap();
        assert!(stopped.is_empty());
        ep.destroy();
        let err = batch_now(&ep, &clock, TrackMode::Immediate, None, 10).unwrap_err();
        assert!(matches!(err, Error::EndpointClosed));
    }

    #[test]
    fn selector_takes_in_place_and_leaves_the_rest_in_order() {
        let clock = VirtualClock::new();
        let ep = endpoint();
        let tagged = |seq: u64, region: &str| {
            Arc::new(
                MessageDraft::text(format!("m{seq}"))
                    .property("region", jmst_api::value::Value::from(region))
                    .unwrap()
                    .stamp(Stamp {
                        id: MessageId::from_raw(seq),
                        producer: ProducerId::from_raw(1),
                        sequence: seq,
                        destination: Destination::queue("q"),
                        sent_at: Timestamp::ZERO,
                    }),
            )
        };
        for (seq, region) in [(0, "apac"), (1, "emea"), (2, "apac"), (3, "emea")] {
            ep.insert(tagged(seq, region), Timestamp::ZERO);
        }
        let emea = Selector::parse("region = 'emea'").unwrap();
        let sequences =
            |batch: Vec<Arc<Message>>| -> Vec<u64> { batch.iter().map(|m| m.sequence()).collect() };
        let taken = batch_now(&ep, &clock, TrackMode::Immediate, Some(&emea), 10).unwrap();
        assert_eq!(sequences(taken), [1, 3]);
        assert!(
            batch_now(&ep, &clock, TrackMode::Immediate, Some(&emea), 10)
                .unwrap()
                .is_empty()
        );
        let rest = batch_now(&ep, &clock, TrackMode::Immediate, None, 10).unwrap();
        assert_eq!(sequences(rest), [0, 2]);
    }

    #[test]
    fn wakers_fire_on_insert_and_destroy() {
        use std::sync::atomic::AtomicUsize;
        let ep = endpoint();
        let fired = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&fired);
        ep.add_waker(Arc::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        }));
        ep.insert(message(0, 4, DeliveryMode::Persistent, 0), Timestamp::ZERO);
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        let more: Vec<Arc<Message>> = (1..4)
            .map(|i| message(i, 4, DeliveryMode::Persistent, 0))
            .collect();
        // A batch insert fires the wakers once, not per message.
        ep.insert_batch(more.iter(), Timestamp::ZERO);
        assert_eq!(fired.load(Ordering::SeqCst), 2);
        ep.destroy();
        assert_eq!(fired.load(Ordering::SeqCst), 3);
        // Destroy released the wakers; nothing fires afterwards.
        assert!(!ep.insert(message(9, 4, DeliveryMode::Persistent, 0), Timestamp::ZERO));
        assert_eq!(fired.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn bounded_try_insert_rejects_at_the_bound() {
        let clock = VirtualClock::new();
        let ep = Endpoint::new(EndpointId::for_queue(QueueName::new("q")), true, true)
            .with_bound(Some(2));
        assert_eq!(ep.bound(), Some(2));
        assert_eq!(
            ep.try_insert(message(0, 4, DeliveryMode::Persistent, 0), Timestamp::ZERO),
            InsertOutcome::Inserted
        );
        assert_eq!(
            ep.try_insert(message(1, 4, DeliveryMode::Persistent, 0), Timestamp::ZERO),
            InsertOutcome::Inserted
        );
        assert_eq!(
            ep.try_insert(message(2, 4, DeliveryMode::Persistent, 0), Timestamp::ZERO),
            InsertOutcome::Full
        );
        assert_eq!(ep.stats().pending, 2);
        // Draining one frees one slot.
        receive_now(&ep, &clock, TrackMode::Immediate)
            .unwrap()
            .unwrap();
        assert_eq!(
            ep.try_insert(message(2, 4, DeliveryMode::Persistent, 0), Timestamp::ZERO),
            InsertOutcome::Inserted
        );
        // The unbounded insert family ignores the bound (reinserts,
        // dead-letter parking).
        assert!(ep.insert(message(3, 4, DeliveryMode::Persistent, 0), Timestamp::ZERO));
        assert_eq!(ep.stats().pending, 3);
    }

    #[test]
    fn bounded_batch_insert_cuts_at_the_bound() {
        let ep = Endpoint::new(EndpointId::for_queue(QueueName::new("q")), true, true)
            .with_bound(Some(3));
        let batch: Vec<Arc<Message>> = (0..5)
            .map(|i| message(i, 4, DeliveryMode::Persistent, 0))
            .collect();
        let (inserted, hit_bound) = ep.try_insert_batch(batch.iter(), Timestamp::ZERO);
        assert_eq!(inserted, 3);
        assert!(hit_bound);
        assert_eq!(ep.stats().pending, 3);
        let (inserted, hit_bound) = ep.try_insert_batch(batch.iter(), Timestamp::ZERO);
        assert_eq!(inserted, 0);
        assert!(hit_bound);
    }

    #[test]
    fn in_flight_messages_do_not_count_against_the_bound() {
        let clock = VirtualClock::new();
        let ep = Endpoint::new(EndpointId::for_queue(QueueName::new("q")), true, true)
            .with_bound(Some(1));
        assert_eq!(
            ep.try_insert(message(0, 4, DeliveryMode::Persistent, 0), Timestamp::ZERO),
            InsertOutcome::Inserted
        );
        receive_now(&ep, &clock, TrackMode::InFlight)
            .unwrap()
            .unwrap();
        assert_eq!(ep.stats().in_flight, 1);
        assert_eq!(
            ep.try_insert(message(1, 4, DeliveryMode::Persistent, 0), Timestamp::ZERO),
            InsertOutcome::Inserted
        );
    }
}
