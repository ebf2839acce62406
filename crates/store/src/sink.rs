//! Streaming event sinks and the canonical-order event stream.
//!
//! The batch pipeline logs a whole run into a [`Trace`] and analyses it
//! post hoc; this module is the streaming alternative. A
//! [`Recorder`](crate::Recorder) moves every stamped event to exactly one
//! destination: its own in-memory log, or the one [`EventSink`] attached
//! to it. A live analyzer fed through a bounded channel, a collecting
//! [`VecSink`], and the disk/CSV spill formats are all sinks; a caller
//! that wants several of them attaches a [`TeeSink`], the only sink that
//! copies an event:
//!
//! ```text
//! drivers ──> Recorder ──> one of:  in-memory log      (no sink: the batch Trace)
//!                                   ChannelSink ─> EventStream ─> ReorderBuffer ─> live checkers
//!                                   VecSink / JsonlSink / CsvSink
//!                                   TeeSink ─┬─> sink 1  (a clone)
//!                                            └─> sink n  (the original)
//! ```
//!
//! Events are emitted in *logging* order, which can differ from canonical
//! `(at, seq)` order when nodes race or clocks skew; [`EventStream`] runs
//! a bounded [`ReorderBuffer`] keyed on [`Event::ord_key`] so downstream
//! checkers see the same order the batch [`Trace`] would give them.

use crate::event::Event;
use crate::trace::Trace;
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::Write;
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;

/// A consumer of trace events, fed live as they are recorded.
///
/// Implementations must tolerate events arriving in logging order (not
/// canonical order) and must never panic on malformed-looking input: a
/// sink failure should degrade to dropped output, not a failed run.
pub trait EventSink: Send {
    /// Hands one recorded event to the sink, which owns it from now on.
    fn accept(&mut self, event: Event);

    /// Signals that no further events will arrive. Channel-backed sinks
    /// hang up; file-backed sinks flush. The default does nothing.
    fn close(&mut self) {}
}

/// An [`EventSink`] that collects events into a shared `Vec` — the batch
/// [`Trace`] expressed as one more stream consumer.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    events: Arc<Mutex<Vec<Event>>>,
}

impl VecSink {
    /// Creates an empty collecting sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a sink plus a shared handle onto its backing vector, for
    /// observing what was collected after the sink was boxed away.
    pub fn shared() -> (Self, Arc<Mutex<Vec<Event>>>) {
        let sink = Self::new();
        let handle = Arc::clone(&sink.events);
        (sink, handle)
    }

    /// Number of events collected so far.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Returns `true` if nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshots the collected events as a canonical [`Trace`].
    pub fn trace(&self) -> Trace {
        Trace::from_events(self.events.lock().clone())
    }
}

impl EventSink for VecSink {
    fn accept(&mut self, event: Event) {
        self.events.lock().push(event);
    }
}

/// The sending half of a bounded live-event channel; pair it with the
/// [`EventStream`] returned by [`channel`].
///
/// Sends block when the stream consumer falls `capacity` events behind
/// (bounded memory, applied as backpressure on the recording side). Once
/// the consumer hangs up, the sink silently drops further events.
#[derive(Debug)]
pub struct ChannelSink {
    sender: Option<SyncSender<Event>>,
}

impl EventSink for ChannelSink {
    fn accept(&mut self, event: Event) {
        if let Some(sender) = &self.sender {
            if sender.send(event).is_err() {
                self.sender = None;
            }
        }
    }

    fn close(&mut self) {
        self.sender = None;
    }
}

/// A bounded min-heap that re-establishes canonical `(at, seq)` order over
/// an almost-sorted event stream.
///
/// Events arrive in logging order; an event can be logged late by at most
/// the scheduling/clock-skew window, so holding back the most recent
/// `depth` events and emitting the canonically smallest once the buffer
/// overflows restores canonical order for any displacement ≤ `depth`.
#[derive(Debug)]
pub struct ReorderBuffer {
    depth: usize,
    heap: BinaryHeap<Reverse<OrdByKey>>,
}

#[derive(Debug)]
struct OrdByKey(Event);

impl PartialEq for OrdByKey {
    fn eq(&self, other: &Self) -> bool {
        self.0.ord_key() == other.0.ord_key()
    }
}

impl Eq for OrdByKey {}

impl PartialOrd for OrdByKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdByKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.ord_key().cmp(&other.0.ord_key())
    }
}

impl ReorderBuffer {
    /// Creates a buffer that holds back at most `depth` events.
    pub fn new(depth: usize) -> Self {
        Self {
            depth: depth.max(1),
            heap: BinaryHeap::new(),
        }
    }

    /// Inserts an event; returns the canonically smallest buffered event
    /// once more than `depth` events are held.
    pub fn push(&mut self, event: Event) -> Option<Event> {
        self.heap.push(Reverse(OrdByKey(event)));
        if self.heap.len() > self.depth {
            self.pop()
        } else {
            None
        }
    }

    /// Removes and returns the canonically smallest buffered event.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse(OrdByKey(event))| event)
    }

    /// Number of events currently held back.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// The receiving half of a live-event channel: iterates events in
/// canonical `(at, seq)` order, terminating once every [`ChannelSink`]
/// clone has closed and the reorder buffer has drained.
#[derive(Debug)]
pub struct EventStream {
    receiver: Receiver<Event>,
    buffer: ReorderBuffer,
    disconnected: bool,
}

impl EventStream {
    /// Events currently held in the reorder buffer (resident state of the
    /// transport, for memory accounting).
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }
}

impl Iterator for EventStream {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        loop {
            if self.disconnected {
                return self.buffer.pop();
            }
            match self.receiver.recv() {
                Ok(event) => {
                    if let Some(ready) = self.buffer.push(event) {
                        return Some(ready);
                    }
                }
                Err(_) => self.disconnected = true,
            }
        }
    }
}

/// Creates a bounded live-event channel: a [`ChannelSink`] to attach to a
/// [`Recorder`](crate::Recorder) and the [`EventStream`] a consumer
/// iterates.
///
/// `reorder_depth` bounds how far out of canonical order logging may run
/// (events displaced further are emitted out of order — the differential
/// tests catch a too-small depth); `capacity` bounds the channel, applying
/// backpressure to recording when the consumer lags.
pub fn channel(reorder_depth: usize, capacity: usize) -> (ChannelSink, EventStream) {
    let (sender, receiver) = std::sync::mpsc::sync_channel(capacity.max(1));
    (
        ChannelSink {
            sender: Some(sender),
        },
        EventStream {
            receiver,
            buffer: ReorderBuffer::new(reorder_depth),
            disconnected: false,
        },
    )
}

/// An [`EventSink`] that spills events to a JSON-Lines writer — the
/// streaming counterpart of [`crate::disk::write_jsonl`].
///
/// Events are written in logging order; [`crate::disk::read_jsonl`]
/// re-sorts on load. Write errors disable the sink (the run must not fail
/// because a spill target did).
#[derive(Debug)]
pub struct JsonlSink<W: Write + Send> {
    writer: Option<W>,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Creates a sink spilling to `writer`.
    pub fn new(writer: W) -> Self {
        Self {
            writer: Some(writer),
        }
    }
}

impl<W: Write + Send> EventSink for JsonlSink<W> {
    fn accept(&mut self, event: Event) {
        if let Some(writer) = &mut self.writer {
            let ok = serde_json::to_writer(&mut *writer, &event).is_ok()
                && writer.write_all(b"\n").is_ok();
            if !ok {
                self.writer = None;
            }
        }
    }

    fn close(&mut self) {
        if let Some(mut writer) = self.writer.take() {
            let _ = writer.flush();
        }
    }
}

/// An [`EventSink`] that spills send/receive events to a CSV writer — the
/// streaming counterpart of [`crate::csv::trace_to_csv`], sharing its
/// column schema.
#[derive(Debug)]
pub struct CsvSink<W: Write + Send> {
    writer: Option<W>,
    header_written: bool,
}

impl<W: Write + Send> CsvSink<W> {
    /// Creates a sink spilling to `writer`; the header row is written
    /// before the first event.
    pub fn new(writer: W) -> Self {
        Self {
            writer: Some(writer),
            header_written: false,
        }
    }
}

impl<W: Write + Send> EventSink for CsvSink<W> {
    fn accept(&mut self, event: Event) {
        let Some(writer) = &mut self.writer else {
            return;
        };
        if !self.header_written {
            self.header_written = true;
            if writer
                .write_all(crate::csv::event_csv_header().as_bytes())
                .is_err()
            {
                self.writer = None;
                return;
            }
        }
        if let Some(line) = crate::csv::event_csv_line(&event) {
            if writer.write_all(line.as_bytes()).is_err() {
                self.writer = None;
            }
        }
    }

    fn close(&mut self) {
        if let Some(mut writer) = self.writer.take() {
            let _ = writer.flush();
        }
    }
}

/// An [`EventSink`] that fans each event out to several sinks: every sink
/// but the last gets a clone, the last gets the event itself.
#[derive(Default)]
pub struct TeeSink {
    sinks: Vec<Box<dyn EventSink>>,
}

impl TeeSink {
    /// Creates an empty tee.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a downstream sink.
    pub fn add(&mut self, sink: Box<dyn EventSink>) {
        self.sinks.push(sink);
    }

    /// Builder form of [`TeeSink::add`].
    #[must_use]
    pub fn with(mut self, sink: Box<dyn EventSink>) -> Self {
        self.add(sink);
        self
    }
}

impl EventSink for TeeSink {
    fn accept(&mut self, event: Event) {
        if let Some((last, rest)) = self.sinks.split_last_mut() {
            for sink in rest {
                sink.accept(event.clone());
            }
            last.accept(event);
        }
    }

    fn close(&mut self) {
        for sink in &mut self.sinks {
            sink.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use jmst_api::id::NodeId;
    use jmst_api::time::Timestamp;

    fn event(seq: u64, at_ms: u64) -> Event {
        Event {
            seq,
            at: Timestamp::from_millis(at_ms),
            node: NodeId::from_raw(0),
            kind: EventKind::BrokerCrashed,
        }
    }

    #[test]
    fn reorder_buffer_restores_canonical_order_within_depth() {
        let mut buffer = ReorderBuffer::new(4);
        let mut out = Vec::new();
        // Logging order scrambled by up to 3 positions.
        for e in [
            event(3, 30),
            event(1, 10),
            event(2, 20),
            event(0, 5),
            event(5, 50),
            event(4, 40),
        ] {
            out.extend(buffer.push(e));
        }
        while let Some(e) = buffer.pop() {
            out.push(e);
        }
        let seqs: Vec<u64> = out.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn reorder_buffer_ties_break_on_seq() {
        let mut buffer = ReorderBuffer::new(8);
        buffer.push(event(2, 10));
        buffer.push(event(1, 10));
        buffer.push(event(0, 10));
        assert_eq!(buffer.pop().unwrap().seq, 0);
        assert_eq!(buffer.pop().unwrap().seq, 1);
        assert_eq!(buffer.pop().unwrap().seq, 2);
        assert!(buffer.is_empty());
    }

    #[test]
    fn channel_stream_yields_canonical_order_and_terminates() {
        let (mut sink, stream) = channel(8, 64);
        for e in [event(1, 10), event(0, 5), event(2, 20)] {
            sink.accept(e);
        }
        sink.close();
        let seqs: Vec<u64> = stream.map(|e| e.seq).collect();
        assert_eq!(seqs, [0, 1, 2]);
    }

    #[test]
    fn channel_sink_survives_dropped_receiver() {
        let (mut sink, stream) = channel(8, 2);
        drop(stream);
        // Would deadlock on a blocking send if the hang-up were not
        // detected; must simply drop the events instead.
        for i in 0..8 {
            sink.accept(event(i, i));
        }
    }

    #[test]
    fn vec_sink_collects_and_snapshots() {
        let (mut sink, handle) = VecSink::shared();
        assert!(sink.is_empty());
        sink.accept(event(1, 10));
        sink.accept(event(0, 5));
        assert_eq!(sink.len(), 2);
        assert_eq!(handle.lock().len(), 2);
        let seqs: Vec<u64> = sink.trace().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [0, 1]);
    }

    #[test]
    fn jsonl_sink_round_trips_through_disk_reader() {
        let mut buffer = Vec::new();
        {
            let mut sink = JsonlSink::new(&mut buffer);
            sink.accept(event(1, 10));
            sink.accept(event(0, 5));
            sink.close();
        }
        let trace = crate::disk::read_jsonl(buffer.as_slice()).unwrap();
        let seqs: Vec<u64> = trace.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [0, 1]);
    }

    #[test]
    fn tee_fans_out_and_closes_all() {
        let (a, a_events) = VecSink::shared();
        let (b, b_events) = VecSink::shared();
        let mut tee = TeeSink::new().with(Box::new(a)).with(Box::new(b));
        tee.accept(event(0, 1));
        tee.accept(event(1, 2));
        tee.close();
        assert_eq!(*a_events.lock(), [event(0, 1), event(1, 2)]);
        assert_eq!(*b_events.lock(), [event(0, 1), event(1, 2)]);
        // An empty tee swallows events without panicking.
        TeeSink::new().accept(event(2, 3));
    }
}
