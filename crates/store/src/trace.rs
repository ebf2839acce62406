//! Traces and the thread-safe recorder the harness logs through.

use crate::event::{Event, EventKind, Phase};
use crate::sink::EventSink;
use jmst_api::id::NodeId;
use jmst_api::time::{Clock, Timestamp};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Two events in one trace carried the same canonical `(at, seq)` key, so
/// their relative order is meaningless. Returned by
/// [`Trace::try_from_events`]; a recorder-produced trace can never trigger
/// it because recorder sequence numbers are globally unique.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DuplicateOrdKey {
    /// The timestamp shared by the colliding events.
    pub at: Timestamp,
    /// The sequence number shared by the colliding events.
    pub seq: u64,
}

impl fmt::Display for DuplicateOrdKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "duplicate canonical order key (at={}, seq={})",
            self.at, self.seq
        )
    }
}

impl std::error::Error for DuplicateOrdKey {}

/// An execution trace: the complete, ordered log of one test run.
///
/// Events are ordered by `(at, seq)` — timestamp first, recorder sequence
/// as the tie-breaker — which is the order the analysis model consumes
/// them in.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    events: Vec<Event>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a trace from raw events, sorting them into canonical order.
    ///
    /// The sort is stable and keyed on [`Event::ord_key`], so events that
    /// share an `(at, seq)` key keep their input (first-logged) order
    /// deterministically rather than an arbitrary one. Such collisions
    /// indicate a malformed trace; use [`Trace::try_from_events`] to reject
    /// them instead of tolerating them.
    pub fn from_events(mut events: Vec<Event>) -> Self {
        events.sort_by_key(Event::ord_key);
        Self { events }
    }

    /// Builds a trace from raw events, rejecting duplicate `(at, seq)` keys.
    ///
    /// Recorder-stamped traces have globally unique sequence numbers, so a
    /// collision means the events came from different runs or a corrupted
    /// log — analysing them would silently depend on an arbitrary order.
    ///
    /// # Errors
    ///
    /// Returns the first colliding key as a [`DuplicateOrdKey`].
    pub fn try_from_events(events: Vec<Event>) -> Result<Self, DuplicateOrdKey> {
        let trace = Self::from_events(events);
        for pair in trace.events.windows(2) {
            if pair[0].ord_key() == pair[1].ord_key() {
                return Err(DuplicateOrdKey {
                    at: pair[0].at,
                    seq: pair[0].seq,
                });
            }
        }
        Ok(trace)
    }

    /// The events in canonical order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Moves the events out, in canonical order.
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over the events.
    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.events.iter()
    }

    /// Merges several per-node traces into one, re-sorting into canonical
    /// order — what the daemon prince does when test logs "are collected
    /// and returned" (paper §4).
    pub fn merge<I: IntoIterator<Item = Trace>>(traces: I) -> Trace {
        let mut events = Vec::new();
        for trace in traces {
            events.extend(trace.events);
        }
        Trace::from_events(events)
    }

    /// Returns the time the given phase started, if recorded.
    pub fn phase_start(&self, phase: Phase) -> Option<Timestamp> {
        self.events.iter().find_map(|event| match &event.kind {
            EventKind::PhaseStarted { phase: p } if *p == phase => Some(event.at),
            _ => None,
        })
    }

    /// Returns the measured window `[run start, warm-down start)`, the
    /// period the paper computes performance over. Falls back to the whole
    /// trace when phase markers are missing.
    pub fn run_window(&self) -> (Timestamp, Timestamp) {
        let start = self
            .phase_start(Phase::Run)
            .or_else(|| self.events.first().map(|e| e.at))
            .unwrap_or(Timestamp::ZERO);
        let end = self
            .phase_start(Phase::WarmDown)
            .or_else(|| self.events.last().map(|e| e.at))
            .unwrap_or(start);
        (start, end)
    }

    /// The timestamp of the last event, or zero for an empty trace.
    pub fn end(&self) -> Timestamp {
        self.events.last().map(|e| e.at).unwrap_or(Timestamp::ZERO)
    }
}

impl IntoIterator for Trace {
    type Item = Event;
    type IntoIter = std::vec::IntoIter<Event>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

impl FromIterator<Event> for Trace {
    fn from_iter<I: IntoIterator<Item = Event>>(iter: I) -> Self {
        Trace::from_events(iter.into_iter().collect())
    }
}

impl Extend<Event> for Trace {
    fn extend<I: IntoIterator<Item = Event>>(&mut self, iter: I) {
        self.events.extend(iter);
        self.events.sort_by_key(Event::ord_key);
    }
}

/// Where a recorder's events go: to the attached sink when there is one,
/// otherwise to the in-memory log. One lock guards both and the sequence
/// counter, so an event is stamped and moved to exactly one destination
/// in one step, and a sink sees a gap-free run of sequence numbers.
#[derive(Default)]
struct Outlet {
    next_seq: u64,
    log: Vec<Event>,
    sink: Option<Box<dyn EventSink>>,
}

#[derive(Default)]
struct RecorderShared {
    out: Mutex<Outlet>,
}

impl fmt::Debug for RecorderShared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let out = self.out.lock();
        f.debug_struct("RecorderShared")
            .field("events", &out.log.len())
            .field("next_seq", &out.next_seq)
            .field("sink", &out.sink.is_some())
            .finish()
    }
}

impl RecorderShared {
    fn log(&self, node: NodeId, at: Timestamp, kind: EventKind) {
        let mut guard = self.out.lock();
        let out = &mut *guard;
        let event = Event {
            seq: out.next_seq,
            at,
            node,
            kind,
        };
        out.next_seq += 1;
        match &mut out.sink {
            Some(sink) => sink.accept(event),
            None => out.log.push(event),
        }
    }
}

/// A thread-safe event recorder shared by every driver in a test run.
///
/// Cloning is cheap; all clones record to the same destination. Each
/// harness node logs through a [`NodeRecorder`] that stamps its node id
/// and reads its own clock — which may be deliberately skewed to model
/// imperfect NTP synchronisation.
///
/// Every event goes to exactly one place: the recorder's in-memory log
/// by default, or the sink attached with [`Recorder::attach_sink`]
/// instead. A caller that wants both the live stream and a batch log
/// attaches a [`TeeSink`](crate::TeeSink) holding a
/// [`VecSink`](crate::VecSink).
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    shared: Arc<RecorderShared>,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the per-node logging handle.
    pub fn node(&self, node: NodeId, clock: Arc<dyn Clock>) -> NodeRecorder {
        NodeRecorder {
            shared: Arc::clone(&self.shared),
            node,
            clock,
        }
    }

    /// Number of events held in the in-memory log (events handed to a
    /// sink are not counted).
    pub fn len(&self) -> usize {
        self.shared.out.lock().log.len()
    }

    /// Returns `true` if the in-memory log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies the in-memory log into a canonical [`Trace`].
    pub fn snapshot(&self) -> Trace {
        Trace::from_events(self.shared.out.lock().log.clone())
    }

    /// Consumes this handle, moving the in-memory log out into the final
    /// trace. The log is left empty: other clones and node handles keep
    /// recording, into that empty log or the attached sink.
    pub fn into_trace(self) -> Trace {
        Trace::from_events(std::mem::take(&mut self.shared.out.lock().log))
    }

    /// Attaches a live [`EventSink`]: every event recorded from now on
    /// goes to the sink (in logging order, before canonical reordering)
    /// instead of the in-memory log, which keeps only what was recorded
    /// before.
    ///
    /// This is the streaming tap: attach a
    /// [`ChannelSink`](crate::ChannelSink) and the paired
    /// [`EventStream`](crate::EventStream) sees the run live. A sink
    /// attached earlier is closed and replaced.
    pub fn attach_sink(&self, sink: Box<dyn EventSink>) {
        let replaced = self.shared.out.lock().sink.replace(sink);
        if let Some(mut replaced) = replaced {
            replaced.close();
        }
    }

    /// Closes and detaches the attached sink; later events go to the
    /// in-memory log again.
    ///
    /// Channel-backed sinks hang up their sending side, which lets the
    /// consuming [`EventStream`](crate::EventStream) drain its reorder
    /// buffer and terminate. The runner calls this once the drivers are
    /// done, on every exit path.
    pub fn close_sinks(&self) {
        let sink = self.shared.out.lock().sink.take();
        if let Some(mut sink) = sink {
            sink.close();
        }
    }
}

/// A recorder handle bound to one harness node and its clock.
#[derive(Debug, Clone)]
pub struct NodeRecorder {
    shared: Arc<RecorderShared>,
    node: NodeId,
    clock: Arc<dyn Clock>,
}

impl NodeRecorder {
    /// Logs an event, stamping the node id, node clock time, and a global
    /// sequence number.
    pub fn record(&self, kind: EventKind) {
        self.shared.log(self.node, self.clock.now(), kind);
    }

    /// Logs an event with an explicit timestamp (used when the moment of
    /// interest is not "now", e.g. a send stamped by the provider).
    pub fn record_at(&self, at: Timestamp, kind: EventKind) {
        self.shared.log(self.node, at, kind);
    }

    /// The node this handle logs as.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// The clock this handle stamps events with.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmst_api::time::SystemClock;

    fn event(seq: u64, at_ms: u64) -> Event {
        Event {
            seq,
            at: Timestamp::from_millis(at_ms),
            node: NodeId::from_raw(0),
            kind: EventKind::BrokerCrashed,
        }
    }

    #[test]
    fn from_events_sorts_canonically() {
        let trace = Trace::from_events(vec![event(2, 30), event(0, 10), event(1, 10)]);
        let seqs: Vec<u64> = trace.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [0, 1, 2]);
        assert_eq!(trace.end(), Timestamp::from_millis(30));
    }

    #[test]
    fn from_events_is_stable_on_duplicate_keys() {
        // Two events with the same (at, seq) key: the stable sort must keep
        // their input order, deterministically, however many times we sort.
        let mut first = event(7, 10);
        first.node = NodeId::from_raw(1);
        let mut second = event(7, 10);
        second.node = NodeId::from_raw(2);
        let trace = Trace::from_events(vec![first.clone(), second.clone(), event(0, 5)]);
        let nodes: Vec<u64> = trace.iter().map(|e| e.node.as_u64()).collect();
        assert_eq!(nodes, [0, 1, 2]);
    }

    #[test]
    fn try_from_events_rejects_duplicate_keys() {
        let error = Trace::try_from_events(vec![event(7, 10), event(7, 10)]).unwrap_err();
        assert_eq!(
            error,
            DuplicateOrdKey {
                at: Timestamp::from_millis(10),
                seq: 7
            }
        );
        assert!(error.to_string().contains("seq=7"));
    }

    #[test]
    fn try_from_events_accepts_unique_keys() {
        let trace = Trace::try_from_events(vec![event(1, 10), event(0, 10), event(2, 5)]).unwrap();
        let seqs: Vec<u64> = trace.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [2, 0, 1]);
    }

    #[test]
    fn attached_sink_takes_every_event_instead_of_the_log() {
        use crate::sink::{TeeSink, VecSink};
        use std::sync::atomic::{AtomicBool, Ordering};

        #[derive(Debug)]
        struct ClosedFlag(Arc<AtomicBool>);
        impl EventSink for ClosedFlag {
            fn accept(&mut self, _event: Event) {}
            fn close(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }

        let recorder = Recorder::new();
        let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
        let node = recorder.node(NodeId::from_raw(0), clock);
        node.record(EventKind::BrokerCrashed);

        let (sink, collected) = VecSink::shared();
        let closed = Arc::new(AtomicBool::new(false));
        recorder.attach_sink(Box::new(
            TeeSink::new()
                .with(Box::new(ClosedFlag(Arc::clone(&closed))))
                .with(Box::new(sink)),
        ));

        node.record(EventKind::BrokerRecovered);
        node.record(EventKind::BrokerCrashed);
        // The sink sees only events recorded after it was attached, and
        // the log keeps only the events recorded before.
        let seqs: Vec<u64> = collected.lock().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [1, 2]);
        assert_eq!(recorder.len(), 1);

        // Attaching again closes the sink it replaces.
        let (second, second_collected) = VecSink::shared();
        recorder.attach_sink(Box::new(second));
        assert!(closed.load(Ordering::SeqCst));
        node.record(EventKind::BrokerRecovered);
        assert_eq!(second_collected.lock().len(), 1);
        recorder.close_sinks();
        node.record(EventKind::BrokerRecovered);
        // Detached after close: the log takes events again.
        assert_eq!(collected.lock().len(), 2);
        let seqs: Vec<u64> = recorder.into_trace().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [0, 4]);
    }

    #[test]
    fn into_trace_moves_the_log_out() {
        let recorder = Recorder::new();
        let node = recorder.node(NodeId::from_raw(0), Arc::new(SystemClock::new()));
        node.record(EventKind::BrokerCrashed);
        let other = recorder.clone();
        assert_eq!(recorder.into_trace().len(), 1);
        assert!(other.is_empty());
        node.record(EventKind::BrokerRecovered);
        assert_eq!(other.snapshot().events()[0].seq, 1);
    }

    #[test]
    fn merge_combines_and_sorts() {
        let a = Trace::from_events(vec![event(0, 10), event(2, 30)]);
        let b = Trace::from_events(vec![event(1, 20)]);
        let merged = Trace::merge([a, b]);
        let times: Vec<u64> = merged.iter().map(|e| e.at.as_millis()).collect();
        assert_eq!(times, [10, 20, 30]);
        assert_eq!(merged.len(), 3);
    }

    #[test]
    fn phase_markers_define_run_window() {
        let mut events = vec![event(0, 0)];
        events.push(Event {
            seq: 1,
            at: Timestamp::from_millis(100),
            node: NodeId::from_raw(0),
            kind: EventKind::PhaseStarted { phase: Phase::Run },
        });
        events.push(Event {
            seq: 2,
            at: Timestamp::from_millis(900),
            node: NodeId::from_raw(0),
            kind: EventKind::PhaseStarted {
                phase: Phase::WarmDown,
            },
        });
        let trace = Trace::from_events(events);
        assert_eq!(
            trace.run_window(),
            (Timestamp::from_millis(100), Timestamp::from_millis(900))
        );
        assert_eq!(trace.phase_start(Phase::WarmUp), None);
    }

    #[test]
    fn run_window_falls_back_to_whole_trace() {
        let trace = Trace::from_events(vec![event(0, 5), event(1, 50)]);
        assert_eq!(
            trace.run_window(),
            (Timestamp::from_millis(5), Timestamp::from_millis(50))
        );
        let empty = Trace::new();
        assert_eq!(empty.run_window(), (Timestamp::ZERO, Timestamp::ZERO));
    }

    #[test]
    fn recorder_clones_share_the_log() {
        let recorder = Recorder::new();
        let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
        let a = recorder.node(NodeId::from_raw(1), Arc::clone(&clock));
        let b = recorder.node(NodeId::from_raw(2), clock);
        a.record(EventKind::BrokerCrashed);
        b.record(EventKind::BrokerRecovered);
        assert_eq!(recorder.len(), 2);
        let trace = recorder.snapshot();
        let nodes: Vec<u64> = trace.iter().map(|e| e.node.as_u64()).collect();
        assert_eq!(nodes.len(), 2);
        assert!(nodes.contains(&1) && nodes.contains(&2));
    }

    #[test]
    fn recorder_seq_is_globally_unique_across_threads() {
        let recorder = Recorder::new();
        let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let node = recorder.node(NodeId::from_raw(i), Arc::clone(&clock));
                std::thread::spawn(move || {
                    for _ in 0..250 {
                        node.record(EventKind::BrokerCrashed);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let trace = recorder.into_trace();
        let mut seqs: Vec<u64> = trace.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 1000);
    }

    #[test]
    fn record_at_uses_explicit_timestamp() {
        let recorder = Recorder::new();
        let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
        let node = recorder.node(NodeId::from_raw(0), clock);
        node.record_at(Timestamp::from_millis(123), EventKind::BrokerCrashed);
        assert_eq!(
            recorder.snapshot().events()[0].at,
            Timestamp::from_millis(123)
        );
    }

    #[test]
    fn trace_collect_and_extend() {
        let mut trace: Trace = vec![event(1, 20)].into_iter().collect();
        trace.extend(vec![event(0, 10)]);
        let times: Vec<u64> = trace.iter().map(|e| e.at.as_millis()).collect();
        assert_eq!(times, [10, 20]);
    }
}
