//! Shared plumbing for the incremental (streaming) checkers.
//!
//! Each safety property in [`crate::properties`] is implemented once, as
//! an incremental checker (`observe` one event at a time, `finish` into
//! violations). The pieces here are what those checkers share:
//!
//! * [`TxResolver`] — resolves transactions on the fly, so checkers only
//!   ever see *effective* sends and receives (Definitions 1–2: a
//!   transacted operation counts only once its transaction commits);
//! * [`RunWindowTracker`] / [`WindowGate`] — incremental evaluation of
//!   the `[run start, warm-down start)` measurement window, which is only
//!   fully known at end of stream; samples whose membership is not yet
//!   decidable are pended and resolved as knowledge arrives;
//! * [`SelectorTracker`] — the effective selector of an end-point as its
//!   consumer rows stream in.

use jmst_api::id::TxId;
use jmst_api::time::Timestamp;
use jmst_store::event::{Event, EventKind, Phase};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// What a [`TxResolver`] emits for one observed raw event.
#[derive(Debug)]
pub enum Resolved<'a> {
    /// Nothing is effective yet (the event was buffered into an open
    /// transaction).
    Buffered,
    /// The event itself is effective, unchanged.
    One(&'a Event),
    /// A commit landed: the transaction's buffered operations become
    /// effective at this stream position (keeping their original
    /// timestamps), followed by the commit event itself.
    Replay(Vec<Event>),
}

impl Resolved<'_> {
    /// Hands each event that became effective to `ingest`, in order.
    pub fn for_each(self, mut ingest: impl FnMut(&Event)) {
        match self {
            Resolved::Buffered => {}
            Resolved::One(event) => ingest(event),
            Resolved::Replay(events) => events.iter().for_each(ingest),
        }
    }
}

/// Streams raw events into *effective* events: the paper's Definitions 1
/// and 2.
///
/// * **Definition 1, Sent Messages** — the sends of non-transacted
///   producers, plus the sends inside a transaction that later commits.
/// * **Definition 2, Received Messages** — the receives of non-transacted
///   consumers, plus the receives inside a transaction that later
///   commits.
///
/// Sends and receives inside a transaction are buffered until the
/// transaction resolves: a commit replays them (in original order, with
/// original timestamps) at the commit's stream position, a rollback drops
/// them, and a transaction still open at end of stream never becomes
/// effective — exactly the batch notion of effectiveness, evaluated
/// online. Resident state is bounded by the volume of operations in open
/// transactions.
#[derive(Debug, Default)]
pub struct TxResolver {
    pending: HashMap<TxId, Vec<Event>>,
}

impl TxResolver {
    /// Creates an empty resolver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one raw event, returning what became effective.
    pub fn push<'a>(&mut self, event: &'a Event) -> Resolved<'a> {
        match &event.kind {
            EventKind::Send { tx: Some(tx), .. } | EventKind::Receive { tx: Some(tx), .. } => {
                self.pending.entry(*tx).or_default().push(event.clone());
                Resolved::Buffered
            }
            EventKind::Commit { tx, .. } => {
                let mut events = self.pending.remove(tx).unwrap_or_default();
                events.push(event.clone());
                Resolved::Replay(events)
            }
            EventKind::Rollback { tx, .. } => {
                self.pending.remove(tx);
                Resolved::One(event)
            }
            _ => Resolved::One(event),
        }
    }

    /// Rough resident-state estimate in bytes.
    pub fn state_bytes(&self) -> usize {
        let buffered: usize = self.pending.values().map(Vec::len).sum();
        self.pending.len() * std::mem::size_of::<(TxId, Vec<Event>)>()
            + buffered * std::mem::size_of::<Event>()
    }
}

/// Whether a timestamped sample falls inside the measurement window, as
/// far as the stream so far can tell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Definitely inside `[run start, warm-down start)`.
    Include,
    /// Definitely outside.
    Exclude,
    /// Not yet decidable — pend until more of the stream arrives.
    Pend,
}

/// Incremental evaluation of the batch `Trace::run_window()` rule:
/// `[first Run marker | first event, first WarmDown marker | last event)`.
///
/// Early decisions exploit two facts about a canonical-order stream: the
/// watermark (latest `at` seen) only grows, and phase markers pin their
/// boundary the moment they appear. A sample before the watermark with a
/// known run start is decidable immediately; anything else pends until
/// [`RunWindowTracker::final_window`] at end of stream.
#[derive(Debug, Clone, Default)]
pub struct RunWindowTracker {
    pinned: Option<(Timestamp, Timestamp)>,
    first_at: Option<Timestamp>,
    last_at: Option<Timestamp>,
    run_start: Option<Timestamp>,
    warm_down: Option<Timestamp>,
}

impl RunWindowTracker {
    /// Creates a tracker that infers the window from the stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a tracker pinned to an explicit window (every
    /// classification is immediate). Used by `perf::analyze_window`.
    pub fn pinned(window: (Timestamp, Timestamp)) -> Self {
        Self {
            pinned: Some(window),
            ..Self::default()
        }
    }

    /// Notes one raw event (must be called for *every* event, before the
    /// transaction resolver, so fallback boundaries match the batch
    /// trace's first/last rows).
    pub fn note(&mut self, event: &Event) {
        if self.first_at.is_none() {
            self.first_at = Some(event.at);
        }
        self.last_at = Some(self.last_at.map_or(event.at, |last| last.max(event.at)));
        if let EventKind::PhaseStarted { phase } = &event.kind {
            match phase {
                Phase::Run => {
                    self.run_start.get_or_insert(event.at);
                }
                Phase::WarmDown => {
                    self.warm_down.get_or_insert(event.at);
                }
                Phase::WarmUp => {}
            }
        }
    }

    /// The latest timestamp seen so far (the stream watermark).
    pub fn watermark(&self) -> Option<Timestamp> {
        self.last_at
    }

    /// Classifies a sample timestamp against the (still-growing) window.
    pub fn classify(&self, ts: Timestamp) -> Gate {
        if let Some((start, end)) = self.pinned {
            return if ts >= start && ts < end {
                Gate::Include
            } else {
                Gate::Exclude
            };
        }
        let start_ok = self.run_start.map(|start| ts >= start);
        let end_ok = match (self.warm_down, self.last_at) {
            (Some(end), _) => Some(ts < end),
            // No warm-down marker yet: the final end is either a future
            // marker or the final watermark, both ≥ the current
            // watermark, so anything strictly before it is inside.
            (None, Some(watermark)) if ts < watermark => Some(true),
            _ => None,
        };
        match (start_ok, end_ok) {
            (Some(false), _) | (_, Some(false)) => Gate::Exclude,
            (Some(true), Some(true)) => Gate::Include,
            _ => Gate::Pend,
        }
    }

    /// The window as the batch analysis would compute it over the whole
    /// stream seen so far. Call at end of stream.
    pub fn final_window(&self) -> (Timestamp, Timestamp) {
        if let Some(window) = self.pinned {
            return window;
        }
        let start = self.run_start.or(self.first_at).unwrap_or(Timestamp::ZERO);
        let end = self.warm_down.or(self.last_at).unwrap_or(start);
        (start, end)
    }

    /// The timestamp of the last event, or zero before any event — the
    /// batch `Trace::end()`.
    pub fn trace_end(&self) -> Timestamp {
        self.last_at.unwrap_or(Timestamp::ZERO)
    }
}

/// A FIFO of samples awaiting a window decision.
///
/// Samples are applied in insertion order: decidable samples flow through
/// immediately unless an older sample is still pending (the front blocks,
/// preserving the exact accumulation order a batch pass over the full
/// trace would produce, which keeps floating-point statistics bit-equal
/// between the batch and streaming drivers). Resident state is bounded by
/// the warm-up backlog plus the clock-skew window.
#[derive(Debug)]
pub struct WindowGate<T> {
    pending: VecDeque<(Timestamp, T)>,
}

impl<T> Default for WindowGate<T> {
    fn default() -> Self {
        Self {
            pending: VecDeque::new(),
        }
    }
}

impl<T> WindowGate<T> {
    /// Creates an empty gate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offers a sample: applies it (and any newly decidable older
    /// samples) if its window membership is known, pends it otherwise.
    pub fn offer(
        &mut self,
        ts: Timestamp,
        value: T,
        tracker: &RunWindowTracker,
        mut apply: impl FnMut(T),
    ) {
        self.drain(tracker, &mut apply);
        if self.pending.is_empty() {
            match tracker.classify(ts) {
                Gate::Include => apply(value),
                Gate::Exclude => {}
                Gate::Pend => self.pending.push_back((ts, value)),
            }
        } else {
            // An older sample is still undecided; queue behind it so
            // samples are always applied in insertion order.
            self.pending.push_back((ts, value));
        }
    }

    /// Applies every leading pending sample that has become decidable.
    pub fn drain(&mut self, tracker: &RunWindowTracker, apply: &mut impl FnMut(T)) {
        while let Some((ts, _)) = self.pending.front() {
            match tracker.classify(*ts) {
                Gate::Include => {
                    let (_, value) = self.pending.pop_front().expect("front exists");
                    apply(value);
                }
                Gate::Exclude => {
                    self.pending.pop_front();
                }
                Gate::Pend => break,
            }
        }
    }

    /// Resolves all remaining samples against the final window.
    pub fn finish(self, window: (Timestamp, Timestamp), mut apply: impl FnMut(T)) {
        for (ts, value) in self.pending {
            if ts >= window.0 && ts < window.1 {
                apply(value);
            }
        }
    }

    /// Number of samples currently pending.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Returns `true` if no samples are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

/// The effective selector of one end-point, as far as its streamed
/// consumer rows determine it: none, one selector every consumer shares,
/// or a mix (then selector-sensitive checks skip the end-point).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectorState {
    /// No consumer row seen yet: coverage is undetermined (treated as
    /// unfiltered if it stays this way to end of stream).
    NoConsumers,
    /// Every consumer row so far agrees on one selector text (`None` =
    /// consumers without a selector).
    Uniform(Option<String>),
    /// Consumer rows disagree; the end-point is skipped. Terminal.
    Mixed,
}

/// Accumulates the distinct selector texts of an end-point's consumers.
#[derive(Debug, Clone, Default)]
pub struct SelectorTracker {
    texts: BTreeSet<Option<String>>,
}

impl SelectorTracker {
    /// Creates a tracker that has seen no consumer rows.
    pub fn new() -> Self {
        Self::default()
    }

    /// Notes one consumer row's selector text. Returns `true` if the
    /// tracker's [`SelectorState`] changed.
    pub fn note(&mut self, selector: Option<&str>) -> bool {
        let before = self.texts.len().min(2);
        self.texts.insert(selector.map(str::to_owned));
        self.texts.len().min(2) != before
    }

    /// The selector knowledge so far.
    pub fn state(&self) -> SelectorState {
        let mut texts = self.texts.iter();
        match (texts.next(), texts.next()) {
            (None, _) => SelectorState::NoConsumers,
            (Some(text), None) => SelectorState::Uniform(text.clone()),
            (Some(_), Some(_)) => SelectorState::Mixed,
        }
    }

    /// Returns `true` once the end-point is known mixed.
    pub fn is_mixed(&self) -> bool {
        self.texts.len() > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmst_api::id::{MessageId, NodeId, ProducerId, SessionId, TxId};
    use jmst_api::modes::{DeliveryMode, Priority, TimeToLive};
    use jmst_store::event::MessageRecord;

    fn plain(seq: u64, at_ms: u64) -> Event {
        Event {
            seq,
            at: Timestamp::from_millis(at_ms),
            node: NodeId::from_raw(0),
            kind: EventKind::BrokerCrashed,
        }
    }

    fn send_tx(seq: u64, at_ms: u64, tx: Option<u64>) -> Event {
        Event {
            seq,
            at: Timestamp::from_millis(at_ms),
            node: NodeId::from_raw(0),
            kind: EventKind::Send {
                record: MessageRecord {
                    message: MessageId::from_raw(seq),
                    producer: ProducerId::from_raw(1),
                    sequence: seq,
                    destination: jmst_api::destination::Destination::queue("q"),
                    priority: Priority::DEFAULT,
                    delivery_mode: DeliveryMode::Persistent,
                    time_to_live: TimeToLive::FOREVER,
                    sent_at: Timestamp::from_millis(at_ms),
                    body_bytes: 1,
                    redelivered: false,
                    delivery_count: 1,
                    properties: Default::default(),
                },
                session: SessionId::from_raw(1),
                tx: tx.map(TxId::from_raw),
            },
        }
    }

    fn commit(seq: u64, at_ms: u64, tx: u64) -> Event {
        Event {
            seq,
            at: Timestamp::from_millis(at_ms),
            node: NodeId::from_raw(0),
            kind: EventKind::Commit {
                session: SessionId::from_raw(1),
                tx: TxId::from_raw(tx),
            },
        }
    }

    fn rollback(seq: u64, at_ms: u64, tx: u64) -> Event {
        Event {
            seq,
            at: Timestamp::from_millis(at_ms),
            node: NodeId::from_raw(0),
            kind: EventKind::Rollback {
                session: SessionId::from_raw(1),
                tx: TxId::from_raw(tx),
            },
        }
    }

    #[test]
    fn resolver_passes_untransacted_events_through() {
        let mut resolver = TxResolver::new();
        let event = send_tx(0, 1, None);
        assert!(matches!(resolver.push(&event), Resolved::One(_)));
    }

    #[test]
    fn resolver_replays_committed_operations_in_order() {
        let mut resolver = TxResolver::new();
        assert!(matches!(
            resolver.push(&send_tx(0, 1, Some(9))),
            Resolved::Buffered
        ));
        assert!(matches!(
            resolver.push(&send_tx(1, 2, Some(9))),
            Resolved::Buffered
        ));
        let Resolved::Replay(events) = resolver.push(&commit(2, 3, 9)) else {
            panic!("expected replay");
        };
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [0, 1, 2]); // buffered ops then the commit itself
                                     // Original timestamps are preserved.
        assert_eq!(events[0].at, Timestamp::from_millis(1));
    }

    #[test]
    fn resolver_drops_rolled_back_operations() {
        let mut resolver = TxResolver::new();
        resolver.push(&send_tx(0, 1, Some(9)));
        assert!(matches!(
            resolver.push(&rollback(1, 2, 9)),
            Resolved::One(_)
        ));
        // A later commit of the same (now-empty) tx replays only itself.
        let Resolved::Replay(events) = resolver.push(&commit(2, 3, 9)) else {
            panic!("expected replay");
        };
        assert_eq!(events.len(), 1);
        assert!(resolver.state_bytes() < 128);
    }

    #[test]
    fn tracker_matches_batch_window_rules() {
        let mut tracker = RunWindowTracker::new();
        tracker.note(&plain(0, 5));
        tracker.note(&plain(1, 50));
        // No markers: window falls back to [first, last).
        assert_eq!(
            tracker.final_window(),
            (Timestamp::from_millis(5), Timestamp::from_millis(50))
        );
        assert_eq!(tracker.trace_end(), Timestamp::from_millis(50));

        let mut tracker = RunWindowTracker::new();
        let mut run = plain(0, 100);
        run.kind = EventKind::PhaseStarted { phase: Phase::Run };
        let mut down = plain(1, 900);
        down.kind = EventKind::PhaseStarted {
            phase: Phase::WarmDown,
        };
        tracker.note(&run);
        tracker.note(&down);
        assert_eq!(
            tracker.final_window(),
            (Timestamp::from_millis(100), Timestamp::from_millis(900))
        );

        let empty = RunWindowTracker::new();
        assert_eq!(empty.final_window(), (Timestamp::ZERO, Timestamp::ZERO));
    }

    #[test]
    fn classify_is_exact_with_respect_to_the_final_window() {
        let mut tracker = RunWindowTracker::new();
        let mut run = plain(0, 100);
        run.kind = EventKind::PhaseStarted { phase: Phase::Run };
        tracker.note(&run);
        tracker.note(&plain(1, 200));
        // Before run start: decidably out.
        assert_eq!(tracker.classify(Timestamp::from_millis(50)), Gate::Exclude);
        // Inside, before the watermark: decidably in (the end can only
        // land at or after the watermark).
        assert_eq!(tracker.classify(Timestamp::from_millis(150)), Gate::Include);
        // At the watermark: not decidable yet.
        assert_eq!(tracker.classify(Timestamp::from_millis(200)), Gate::Pend);
        // Once warm-down is pinned, everything is decidable.
        let mut down = plain(2, 300);
        down.kind = EventKind::PhaseStarted {
            phase: Phase::WarmDown,
        };
        tracker.note(&down);
        assert_eq!(tracker.classify(Timestamp::from_millis(250)), Gate::Include);
        assert_eq!(tracker.classify(Timestamp::from_millis(300)), Gate::Exclude);
    }

    #[test]
    fn pinned_tracker_classifies_immediately() {
        let tracker =
            RunWindowTracker::pinned((Timestamp::from_millis(10), Timestamp::from_millis(20)));
        assert_eq!(tracker.classify(Timestamp::from_millis(10)), Gate::Include);
        assert_eq!(tracker.classify(Timestamp::from_millis(20)), Gate::Exclude);
        assert_eq!(
            tracker.final_window(),
            (Timestamp::from_millis(10), Timestamp::from_millis(20))
        );
    }

    #[test]
    fn gate_preserves_insertion_order_across_pends() {
        let mut tracker = RunWindowTracker::new();
        let mut gate = WindowGate::new();
        let mut out = Vec::new();
        let mut run = plain(0, 10);
        run.kind = EventKind::PhaseStarted { phase: Phase::Run };
        tracker.note(&run);
        // Sample at the watermark pends; once the watermark advances both
        // it and the next sample flow through, in insertion order.
        gate.offer(Timestamp::from_millis(10), "a", &tracker, |v| out.push(v));
        assert_eq!(gate.len(), 1);
        tracker.note(&plain(1, 30));
        gate.offer(Timestamp::from_millis(20), "b", &tracker, |v| out.push(v));
        assert_eq!(out, ["a", "b"]);
        assert!(gate.is_empty());
        // A still-pending tail resolves against the final window.
        gate.offer(Timestamp::from_millis(30), "c", &tracker, |v| out.push(v));
        assert_eq!(gate.len(), 1);
        gate.finish(tracker.final_window(), |v| out.push(v));
        assert_eq!(out, ["a", "b"]); // 30 == window end, excluded
    }

    #[test]
    fn selector_tracker_resolves_uniform_and_mixed_selectors() {
        let mut tracker = SelectorTracker::new();
        assert_eq!(tracker.state(), SelectorState::NoConsumers);
        assert!(tracker.note(None));
        assert_eq!(tracker.state(), SelectorState::Uniform(None));
        assert!(!tracker.note(None));
        assert!(tracker.note(Some("JMSPriority > 4")));
        assert!(tracker.is_mixed());
        assert_eq!(tracker.state(), SelectorState::Mixed);
    }
}
