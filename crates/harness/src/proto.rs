//! The framed control protocol between the prince daemon and its driver
//! worker processes.
//!
//! The paper's harness coordinates test daemons over RMI; this is the
//! equivalent control plane, reduced to what the prince actually needs:
//! a handful of message types over any ordered byte stream. Frames are
//! length-prefixed and CRC-checked, so the protocol runs unchanged over
//! Unix domain sockets today and TCP tomorrow — nothing below
//! [`write_frame`]/[`read_frame`] assumes anything about the transport
//! beyond `Read + Write`.
//!
//! ## Frame format
//!
//! ```text
//! frame   := len:u32le crc:u32le payload[len]
//! payload := tag:u8 body
//! ```
//!
//! `crc` is the CRC32 (IEEE) of the payload. The payload is one
//! [`WireMessage`] in the binary format of [`jmst_store::codec`]: a
//! message tag, then its fields. An `Event` carries the event's compact
//! encoding, the same bytes the campaign journal stores, so the live
//! event stream costs no text formatting or parsing. `RunTest` carries
//! the spec as JSON text: it crosses the wire once per test. A
//! half-written frame (the peer died mid-send) reads as a clean,
//! detectable end of stream, never as a garbled message.
//!
//! ## Conversation
//!
//! ```text
//! worker → prince   Hello { pid, protocol }
//! prince → worker   RunTest { spec }
//! worker → prince   Event { .. }            (zero or more, streamed live)
//! prince → worker   Cancel                  (optional, fail-fast)
//! worker → prince   TestDone { outcome }
//! prince → worker   Shutdown
//! ```
//!
//! A socket that ends before `TestDone` *is* the crash signal: the
//! prince reaps the worker and applies its respawn policy — no timeouts
//! or heartbeats are needed to detect `kill -9`.

use crate::spec::TestSpec;
use jmst_store::codec::{CodecError, Reader, Writer};
use jmst_store::journal::crc32;
use jmst_store::{Event, EventSink};
use std::fmt;
use std::io::{Read, Write};
use std::sync::{Arc, Mutex};

/// Protocol revision carried in [`WireMessage::Hello`]; bumped on any
/// incompatible frame or message change.
pub const PROTOCOL_VERSION: u32 = 2;

/// Upper bound on one frame's payload (a spec or a single event — far
/// below this; a larger length is corruption, not data).
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

const FRAME_HEADER_LEN: usize = 8; // len + crc

// Message tags: the first payload byte.
const HELLO: u8 = 0;
const RUN_TEST: u8 = 1;
const CANCEL: u8 = 2;
const EVENT: u8 = 3;
const TEST_DONE: u8 = 4;
const SHUTDOWN: u8 = 5;

/// The verdict a worker reports for one test run. Mirrors the runner's
/// result shape ([`HarnessError`](crate::error::HarnessError)) minus the
/// partial traces — the prince already holds every streamed event, so
/// shipping the trace again would only duplicate it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireOutcome {
    /// The run completed; the streamed events are the full trace.
    Completed,
    /// The run hung in the named driver stage.
    Hung {
        /// Which driver group hung.
        stage: String,
    },
    /// A driver gave up; the streamed events are a partial trace.
    Inconclusive {
        /// Why the run was abandoned.
        reason: String,
    },
    /// The worker rejected the spec.
    Invalid {
        /// Why.
        reason: String,
    },
}

/// One message on the prince⇄worker control connection.
// Messages are decoded one frame at a time and never stored in bulk,
// so `RunTest`'s full `TestSpec` does not warrant boxing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WireMessage {
    /// Worker greeting, sent immediately after connecting.
    Hello {
        /// The worker's OS process id (for the prince's registry).
        pid: u32,
        /// The worker's [`PROTOCOL_VERSION`].
        protocol: u32,
    },
    /// Prince → worker: run this test and stream its events back.
    RunTest {
        /// The complete test specification.
        spec: TestSpec,
    },
    /// Prince → worker: cancel the in-flight run (fail-fast).
    Cancel,
    /// Worker → prince: one live trace event.
    Event {
        /// The event.
        event: Event,
    },
    /// Worker → prince: the run finished with this verdict.
    TestDone {
        /// What happened.
        outcome: WireOutcome,
    },
    /// Prince → worker: exit cleanly.
    Shutdown,
}

/// A protocol-level failure on the control connection.
#[derive(Debug)]
#[non_exhaustive]
pub enum ProtoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The stream ended inside a frame — the peer died mid-send.
    TruncatedFrame,
    /// A frame's payload fails its CRC or declares an absurd length.
    CorruptFrame,
    /// A frame decoded to bytes that are not a [`WireMessage`].
    Malformed(String),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "control connection i/o error: {e}"),
            ProtoError::TruncatedFrame => write!(f, "control connection ended mid-frame"),
            ProtoError::CorruptFrame => write!(f, "control frame fails its CRC"),
            ProtoError::Malformed(reason) => write!(f, "control frame does not decode: {reason}"),
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

impl From<CodecError> for ProtoError {
    fn from(e: CodecError) -> Self {
        ProtoError::Malformed(e.to_string())
    }
}

fn encode_message(message: &WireMessage, w: &mut Writer<'_>) -> Result<(), ProtoError> {
    match message {
        WireMessage::Hello { pid, protocol } => {
            w.u8(HELLO);
            w.uint(u64::from(*pid));
            w.uint(u64::from(*protocol));
        }
        WireMessage::RunTest { spec } => {
            w.u8(RUN_TEST);
            w.str(&serde_json::to_string(spec).map_err(|e| ProtoError::Malformed(e.to_string()))?);
        }
        WireMessage::Cancel => w.u8(CANCEL),
        WireMessage::Event { event } => {
            w.u8(EVENT);
            w.event(event);
        }
        WireMessage::TestDone { outcome } => {
            w.u8(TEST_DONE);
            match outcome {
                WireOutcome::Completed => w.u8(0),
                WireOutcome::Hung { stage } => {
                    w.u8(1);
                    w.str(stage);
                }
                WireOutcome::Inconclusive { reason } => {
                    w.u8(2);
                    w.str(reason);
                }
                WireOutcome::Invalid { reason } => {
                    w.u8(3);
                    w.str(reason);
                }
            }
        }
        WireMessage::Shutdown => w.u8(SHUTDOWN),
    }
    Ok(())
}

/// Payload bytes a frame is allocated with: an event carrying a few
/// short properties fits, so its frame is one allocation; a larger
/// message (a `RunTest` spec, an event with long names or many
/// properties) grows it.
const EVENT_PAYLOAD_CAPACITY: usize = 248;

fn decode_message(payload: &[u8]) -> Result<WireMessage, ProtoError> {
    let mut r = Reader::new(payload);
    let message = match r.u8()? {
        HELLO => WireMessage::Hello {
            pid: r.uint_as("pid")?,
            protocol: r.uint_as("protocol")?,
        },
        RUN_TEST => WireMessage::RunTest {
            spec: serde_json::from_str(&r.str()?)
                .map_err(|e| ProtoError::Malformed(e.to_string()))?,
        },
        CANCEL => WireMessage::Cancel,
        EVENT => WireMessage::Event { event: r.event()? },
        TEST_DONE => WireMessage::TestDone {
            outcome: match r.u8()? {
                0 => WireOutcome::Completed,
                1 => WireOutcome::Hung { stage: r.str()? },
                2 => WireOutcome::Inconclusive { reason: r.str()? },
                3 => WireOutcome::Invalid { reason: r.str()? },
                _ => return Err(CodecError::Invalid("test outcome").into()),
            },
        },
        SHUTDOWN => WireMessage::Shutdown,
        _ => return Err(CodecError::Invalid("message tag").into()),
    };
    r.finish()?;
    Ok(message)
}

/// Fills in the header of `frame` (whose payload follows a zeroed
/// header) and writes it.
fn send_frame(writer: &mut impl Write, frame: &mut [u8]) -> Result<(), ProtoError> {
    let payload = &frame[FRAME_HEADER_LEN..];
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&len| len <= MAX_FRAME_LEN)
        .ok_or_else(|| ProtoError::Malformed("message exceeds MAX_FRAME_LEN".to_owned()))?;
    let crc = crc32(payload);
    frame[..4].copy_from_slice(&len.to_le_bytes());
    frame[4..FRAME_HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
    // One write call per frame keeps frames contiguous even if several
    // threads share the stream through a mutex.
    writer.write_all(frame)?;
    Ok(())
}

/// Writes one message as a single frame, in one `write` call. The frame
/// is allocated once, with room for an event of the usual size.
///
/// # Errors
///
/// [`ProtoError::Io`] if the transport write fails;
/// [`ProtoError::Malformed`] if the message cannot be encoded within
/// [`MAX_FRAME_LEN`].
pub fn write_frame(writer: &mut impl Write, message: &WireMessage) -> Result<(), ProtoError> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + EVENT_PAYLOAD_CAPACITY);
    frame.resize(FRAME_HEADER_LEN, 0);
    encode_message(message, &mut Writer(&mut frame))?;
    send_frame(writer, &mut frame)
}

/// Reads one message.
///
/// Returns `Ok(None)` on a clean end of stream (the peer closed between
/// frames — a normal hang-up). A stream that ends *inside* a frame is
/// [`ProtoError::TruncatedFrame`]: the peer died mid-send.
///
/// # Errors
///
/// [`ProtoError`] on I/O failure, truncation, corruption, or an
/// undecodable payload.
pub fn read_frame(reader: &mut impl Read) -> Result<Option<WireMessage>, ProtoError> {
    let mut header = [0u8; 8];
    match read_exact_or_eof(reader, &mut header)? {
        ReadOutcome::CleanEof => return Ok(None),
        ReadOutcome::Truncated => return Err(ProtoError::TruncatedFrame),
        ReadOutcome::Full => {}
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_FRAME_LEN {
        return Err(ProtoError::CorruptFrame);
    }
    let mut payload = vec![0u8; len as usize];
    match read_exact_or_eof(reader, &mut payload)? {
        ReadOutcome::Full => {}
        _ => return Err(ProtoError::TruncatedFrame),
    }
    if crc32(&payload) != crc {
        return Err(ProtoError::CorruptFrame);
    }
    decode_message(&payload).map(Some)
}

enum ReadOutcome {
    Full,
    CleanEof,
    Truncated,
}

/// `read_exact`, but distinguishing "no bytes at all" (clean hang-up)
/// from "some bytes then EOF" (truncation).
fn read_exact_or_eof(reader: &mut impl Read, buf: &mut [u8]) -> Result<ReadOutcome, ProtoError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    ReadOutcome::CleanEof
                } else {
                    ReadOutcome::Truncated
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(ReadOutcome::Full)
}

/// An [`EventSink`] that streams every accepted event to the prince as
/// a [`WireMessage::Event`] frame — the worker-side end of the live
/// collection pipeline.
///
/// Write failures are swallowed: if the prince is gone, the worker is
/// about to be reaped anyway, and panicking inside the recorder would
/// only turn a clean worker death into a poisoned one.
pub struct WireSink<W: Write + Send> {
    stream: Arc<Mutex<W>>,
    /// The frame being assembled, kept to reuse its allocation.
    frame: Vec<u8>,
}

impl<W: Write + Send> WireSink<W> {
    /// Wraps a shared stream.
    pub fn new(stream: Arc<Mutex<W>>) -> Self {
        Self {
            stream,
            frame: Vec::new(),
        }
    }
}

impl<W: Write + Send> EventSink for WireSink<W> {
    fn accept(&mut self, event: Event) {
        // Encoded outside the lock, straight from the event.
        self.frame.clear();
        self.frame.resize(FRAME_HEADER_LEN, 0);
        let mut w = Writer(&mut self.frame);
        w.u8(EVENT);
        w.event(&event);
        if let Ok(mut stream) = self.stream.lock() {
            let _ = send_frame(&mut *stream, &mut self.frame);
        }
    }

    fn close(&mut self) {
        if let Ok(mut stream) = self.stream.lock() {
            let _ = stream.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ConsumerSpec, NodeSpec, ProducerSpec, TransportSpec};
    use jmst_api::destination::Destination;
    use std::io::Cursor;

    fn sample_spec() -> TestSpec {
        TestSpec::new("wire-spec")
            .with_seed(7)
            .with_transport(TransportSpec::process().with_respawn_limit(3))
            .node(
                NodeSpec::new("n0")
                    .producer(
                        ProducerSpec::steady(Destination::queue("q"), 250.0, 64)
                            .limited(100)
                            .with_property("region", jmst_api::value::Value::String("emea".into())),
                    )
                    .consumer(ConsumerSpec::auto(Destination::queue("q"))),
            )
    }

    fn round_trip(message: &WireMessage) -> WireMessage {
        let mut buf = Vec::new();
        write_frame(&mut buf, message).unwrap();
        read_frame(&mut Cursor::new(buf)).unwrap().unwrap()
    }

    #[test]
    fn every_message_kind_round_trips() {
        let messages = vec![
            WireMessage::Hello {
                pid: 1234,
                protocol: PROTOCOL_VERSION,
            },
            WireMessage::RunTest {
                spec: sample_spec(),
            },
            WireMessage::Cancel,
            WireMessage::TestDone {
                outcome: WireOutcome::Completed,
            },
            WireMessage::TestDone {
                outcome: WireOutcome::Hung {
                    stage: "consumers".to_owned(),
                },
            },
            WireMessage::TestDone {
                outcome: WireOutcome::Inconclusive {
                    reason: "retry budget exhausted".to_owned(),
                },
            },
            WireMessage::TestDone {
                outcome: WireOutcome::Invalid {
                    reason: "lint: no consumers".to_owned(),
                },
            },
            WireMessage::Event {
                event: Event {
                    seq: 9,
                    at: jmst_api::time::Timestamp::from_millis(3),
                    node: jmst_api::id::NodeId::from_raw(2),
                    kind: jmst_store::EventKind::Acknowledge {
                        session: jmst_api::id::SessionId::from_raw(4),
                    },
                },
            },
            WireMessage::Shutdown,
        ];
        for message in &messages {
            assert_eq!(&round_trip(message), message, "{message:?}");
        }
    }

    /// A topic receive carrying the harness's four properties (two
    /// identity properties, two spec-declared ones).
    fn four_property_receive() -> Event {
        use jmst_api::value::Value;
        let mut properties = jmst_api::properties::Properties::new();
        properties.set("jmst_producer", Value::Long(1)).unwrap();
        properties.set("jmst_seq", Value::Long(123_456)).unwrap();
        properties.set("region", Value::from("emea")).unwrap();
        properties.set("tier", Value::Int(2)).unwrap();
        let topic = jmst_api::destination::TopicName::new("fanout");
        let consumer = jmst_api::id::ConsumerId::from_raw(3);
        Event {
            seq: 1_000_000,
            at: jmst_api::time::Timestamp::from_nanos(5_000_000_000),
            node: jmst_api::id::NodeId::from_raw(1),
            kind: jmst_store::EventKind::Receive {
                consumer,
                endpoint: jmst_api::destination::EndpointId::non_durable(topic.clone(), consumer),
                record: jmst_store::MessageRecord {
                    message: jmst_api::id::MessageId::from_raw(1_000_000),
                    producer: jmst_api::id::ProducerId::from_raw(1),
                    sequence: 123_456,
                    destination: Destination::Topic(topic),
                    priority: jmst_api::modes::Priority::DEFAULT,
                    delivery_mode: jmst_api::modes::DeliveryMode::Persistent,
                    time_to_live: jmst_api::modes::TimeToLive::FOREVER,
                    sent_at: jmst_api::time::Timestamp::from_nanos(4_999_000_000),
                    body_bytes: 1024,
                    redelivered: false,
                    delivery_count: 1,
                    properties,
                },
                session: jmst_api::id::SessionId::from_raw(7),
                tx: None,
            },
        }
    }

    #[test]
    fn a_four_property_event_fits_the_frame_allocation() {
        // `write_frame` allocates EVENT_PAYLOAD_CAPACITY payload bytes
        // up front; the usual event must not have to grow the frame.
        let mut payload = Vec::new();
        let event = WireMessage::Event {
            event: four_property_receive(),
        };
        encode_message(&event, &mut Writer(&mut payload)).unwrap();
        assert!(
            payload.len() <= EVENT_PAYLOAD_CAPACITY,
            "{} payload bytes > {EVENT_PAYLOAD_CAPACITY}",
            payload.len()
        );
    }

    #[test]
    fn crc_valid_frames_with_bad_payloads_are_malformed() {
        // A frame whose CRC matches but whose payload is no message: an
        // unknown tag, a truncated event, trailing bytes, and a version 1
        // (JSON) frame.
        for payload in [
            &[42u8][..],
            &[EVENT, 1, 2][..],
            &[CANCEL, 0][..],
            &br#""Cancel""#[..],
        ] {
            let mut frame = vec![0u8; FRAME_HEADER_LEN];
            frame.extend_from_slice(payload);
            let mut buf = Vec::new();
            send_frame(&mut buf, &mut frame).unwrap();
            let result = read_frame(&mut Cursor::new(buf));
            assert!(
                matches!(result, Err(ProtoError::Malformed(_))),
                "{payload:?}: {result:?}"
            );
        }
    }

    #[test]
    fn an_oversized_message_is_refused_before_any_byte_is_written() {
        let message = WireMessage::TestDone {
            outcome: WireOutcome::Inconclusive {
                reason: "x".repeat(MAX_FRAME_LEN as usize),
            },
        };
        let mut buf = Vec::new();
        let result = write_frame(&mut buf, &message);
        assert!(
            matches!(result, Err(ProtoError::Malformed(_))),
            "{result:?}"
        );
        assert!(buf.is_empty(), "{} bytes reached the stream", buf.len());
    }

    #[test]
    fn non_finite_float_properties_survive_the_wire() {
        use jmst_api::value::Value;
        let mut properties = jmst_api::properties::Properties::new();
        properties.set("inf", Value::Double(f64::INFINITY)).unwrap();
        properties.set("nan", Value::Double(f64::NAN)).unwrap();
        properties
            .set("ninf", Value::Float(f32::NEG_INFINITY))
            .unwrap();
        let event = Event {
            seq: 1,
            at: jmst_api::time::Timestamp::from_millis(1),
            node: jmst_api::id::NodeId::from_raw(0),
            kind: jmst_store::EventKind::Send {
                record: jmst_store::MessageRecord {
                    message: jmst_api::id::MessageId::from_raw(1),
                    producer: jmst_api::id::ProducerId::from_raw(1),
                    sequence: 0,
                    destination: Destination::queue("q"),
                    priority: jmst_api::modes::Priority::DEFAULT,
                    delivery_mode: jmst_api::modes::DeliveryMode::Persistent,
                    time_to_live: jmst_api::modes::TimeToLive::FOREVER,
                    sent_at: jmst_api::time::Timestamp::from_millis(1),
                    body_bytes: 8,
                    redelivered: false,
                    delivery_count: 1,
                    properties,
                },
                session: jmst_api::id::SessionId::from_raw(1),
                tx: None,
            },
        };
        let WireMessage::Event { event: back } = round_trip(&WireMessage::Event { event }) else {
            panic!("not an event frame");
        };
        let properties = &back.kind.message_record().unwrap().properties;
        assert_eq!(properties.get("inf"), Some(&Value::Double(f64::INFINITY)));
        assert!(
            matches!(properties.get("nan"), Some(Value::Double(v)) if v.to_bits() == f64::NAN.to_bits())
        );
        assert_eq!(
            properties.get("ninf"),
            Some(&Value::Float(f32::NEG_INFINITY))
        );
    }

    #[test]
    fn a_full_test_spec_survives_the_wire() {
        // The RunTest payload is the entire spec — periods, transport,
        // retry policy, producer properties. Equality after the frame
        // round trip is what makes process mode trustworthy.
        let spec = sample_spec();
        match round_trip(&WireMessage::RunTest { spec: spec.clone() }) {
            WireMessage::RunTest { spec: back } => assert_eq!(back, spec),
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn several_frames_stream_back_to_back() {
        let mut buf = Vec::new();
        for pid in 0..5u32 {
            write_frame(
                &mut buf,
                &WireMessage::Hello {
                    pid,
                    protocol: PROTOCOL_VERSION,
                },
            )
            .unwrap();
        }
        let mut cursor = Cursor::new(buf);
        for pid in 0..5u32 {
            match read_frame(&mut cursor).unwrap().unwrap() {
                WireMessage::Hello { pid: p, .. } => assert_eq!(p, pid),
                other => panic!("wrong message: {other:?}"),
            }
        }
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_and_corrupt_frames_are_distinguished() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &WireMessage::Cancel).unwrap();
        // Mid-frame cut: the peer died while sending.
        let cut = buf[..buf.len() - 2].to_vec();
        assert!(matches!(
            read_frame(&mut Cursor::new(cut)),
            Err(ProtoError::TruncatedFrame)
        ));
        // Flipped payload bit: CRC failure.
        let mut flipped = buf.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(matches!(
            read_frame(&mut Cursor::new(flipped)),
            Err(ProtoError::CorruptFrame)
        ));
        // Absurd length field: corruption, not a 3 GiB allocation.
        let mut absurd = buf;
        absurd[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(absurd)),
            Err(ProtoError::CorruptFrame)
        ));
    }

    #[test]
    fn wire_sink_streams_events_as_frames() {
        use jmst_store::trace::Recorder;
        let stream = Arc::new(Mutex::new(Vec::new()));
        let recorder = Recorder::new();
        recorder.attach_sink(Box::new(WireSink::new(Arc::clone(&stream))));
        let node = recorder.node(
            jmst_api::id::NodeId::from_raw(1),
            Arc::new(jmst_api::time::SystemClock::new()),
        );
        node.record(jmst_store::EventKind::PhaseStarted {
            phase: jmst_store::Phase::Run,
        });
        recorder.close_sinks();
        let bytes = stream.lock().unwrap().clone();
        let mut cursor = Cursor::new(bytes);
        match read_frame(&mut cursor).unwrap().unwrap() {
            WireMessage::Event { event } => {
                assert!(matches!(
                    event.kind,
                    jmst_store::EventKind::PhaseStarted { .. }
                ));
            }
            other => panic!("wrong message: {other:?}"),
        }
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }
}
