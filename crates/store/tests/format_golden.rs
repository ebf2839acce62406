//! Golden bytes of the on-disk and on-wire event formats.
//!
//! The round-trip property tests in `codec.rs` cannot see a format drift
//! that still round-trips: if both the encoder and the decoder change
//! together, every journal and trace file written before the change
//! stops reading. These literals pin, byte for byte, what a `Send` with
//! four user properties and a durable-subscription `Receive` encode to:
//! the binary codec, a whole campaign journal holding both, and the
//! JSON lines of `--trace-dir` files. Each literal must also decode back
//! to the event it was made from.

use jmst_api::destination::{Destination, EndpointId, TopicName};
use jmst_api::id::{ClientId, ConsumerId, MessageId, NodeId, ProducerId, SessionId, TxId};
use jmst_api::modes::{DeliveryMode, Priority, TimeToLive};
use jmst_api::properties::Properties;
use jmst_api::time::Timestamp;
use jmst_api::value::Value;
use jmst_store::codec::{decode_event, encode_event};
use jmst_store::disk::read_jsonl;
use jmst_store::event::{Event, EventKind, MessageRecord};
use jmst_store::journal::{Journal, JournalKey, JournalRecord, JournalWriter};

/// The record both events carry: a topic message with the harness's two
/// identity properties and two spec-declared ones.
fn record() -> MessageRecord {
    let mut properties = Properties::new();
    properties.set("jmst_producer", Value::Long(3)).unwrap();
    properties.set("jmst_seq", Value::Long(17)).unwrap();
    properties.set("region", Value::from("emea")).unwrap();
    properties.set("tier", Value::Int(2)).unwrap();
    MessageRecord {
        message: MessageId::from_raw(7001),
        producer: ProducerId::from_raw(3),
        sequence: 17,
        destination: Destination::topic("prices"),
        priority: Priority::new(7).unwrap(),
        delivery_mode: DeliveryMode::Persistent,
        time_to_live: TimeToLive::from_millis(2000),
        sent_at: Timestamp::from_nanos(1_234_500_000),
        body_bytes: 1024,
        redelivered: false,
        delivery_count: 1,
        properties,
    }
}

fn send() -> Event {
    Event {
        seq: 41,
        at: Timestamp::from_nanos(1_234_567_890),
        node: NodeId::from_raw(2),
        kind: EventKind::Send {
            record: record(),
            session: SessionId::from_raw(5),
            tx: Some(TxId::from_raw(9)),
        },
    }
}

fn durable_receive() -> Event {
    let mut record = record();
    record.redelivered = true;
    record.delivery_count = 2;
    Event {
        seq: 42,
        at: Timestamp::from_nanos(1_240_000_000),
        node: NodeId::from_raw(1),
        kind: EventKind::Receive {
            consumer: ConsumerId::from_raw(11),
            endpoint: EndpointId::durable(
                TopicName::new("prices"),
                ClientId::new("auditor"),
                "audit",
            ),
            record,
            session: SessionId::from_raw(6),
            tx: None,
        },
    }
}

const SEND_CODEC: &str = concat!(
    "29d285d8cc040204d936031101067072696365730701d00fa0f3d3cc04800800",
    "01040d6a6d73745f70726f64756365720406086a6d73745f7365710422067265",
    "67696f6e0704656d656104746965720304050109",
);
const RECEIVE_CODEC: &str = concat!(
    "2a80cca3cf0401060b01067072696365730761756469746f72056175646974d9",
    "36031101067072696365730701d00fa0f3d3cc0480080102040d6a6d73745f70",
    "726f64756365720406086a6d73745f736571042206726567696f6e0704656d65",
    "61047469657203040600",
);
const SEND_JSON: &str = r#"{"seq":41,"at":1234567890,"node":2,"kind":{"Send":{"record":{"message":7001,"producer":3,"sequence":17,"destination":{"Topic":"prices"},"priority":7,"delivery_mode":"Persistent","time_to_live":2000,"sent_at":1234500000,"body_bytes":1024,"redelivered":false,"delivery_count":1,"properties":{"entries":{"jmst_producer":{"Long":3},"jmst_seq":{"Long":17},"region":{"String":"emea"},"tier":{"Int":2}}}},"session":5,"tx":9}}}"#;
const RECEIVE_JSON: &str = r#"{"seq":42,"at":1240000000,"node":1,"kind":{"Receive":{"consumer":11,"endpoint":{"DurableSubscription":{"topic":"prices","client":"auditor","name":"audit"}},"record":{"message":7001,"producer":3,"sequence":17,"destination":{"Topic":"prices"},"priority":7,"delivery_mode":"Persistent","time_to_live":2000,"sent_at":1234500000,"body_bytes":1024,"redelivered":true,"delivery_count":2,"properties":{"entries":{"jmst_producer":{"Long":3},"jmst_seq":{"Long":17},"region":{"String":"emea"},"tier":{"Int":2}}}},"session":6,"tx":null}}}"#;
const JOURNAL: &str = concat!(
    "4a4d53544a4e4c3256000000ffce797d020029d285d8cc040204d93603110106",
    "7072696365730701d00fa0f3d3cc0480080001040d6a6d73745f70726f647563",
    "65720406086a6d73745f736571042206726567696f6e0704656d656104746965",
    "720304050109933cccae4053e4d2bb041c11e6a883bc7dc2ba5e3d09b85c1227",
    "35973d47ae686c000000cbb3d30b02002a80cca3cf0401060b01067072696365",
    "730761756469746f72056175646974d936031101067072696365730701d00fa0",
    "f3d3cc0480080102040d6a6d73745f70726f64756365720406086a6d73745f73",
    "6571042206726567696f6e0704656d656104746965720304060082e08f02aaa2",
    "cf13073c18a34c45d79692f932cdae77db9bf5459f8ad3973425",
);

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap())
        .collect()
}

fn encoded(event: &Event) -> String {
    let mut out = Vec::new();
    encode_event(event, &mut out);
    hex(&out)
}

fn journal_bytes(tag: &str) -> (std::path::PathBuf, Vec<u8>) {
    let path = std::env::temp_dir().join(format!("jmst-golden-{tag}-{}.jrnl", std::process::id()));
    let key = JournalKey::from_passphrase("golden");
    let mut writer = JournalWriter::create(&path, &key).unwrap();
    writer.append_event(0, &send()).unwrap();
    writer.append_event(0, &durable_receive()).unwrap();
    drop(writer);
    let bytes = std::fs::read(&path).unwrap();
    (path, bytes)
}

#[test]
fn codec_bytes_are_pinned() {
    for (event, golden) in [(send(), SEND_CODEC), (durable_receive(), RECEIVE_CODEC)] {
        assert_eq!(encoded(&event), golden, "codec bytes drifted");
        assert_eq!(decode_event(&unhex(golden)).unwrap(), event);
    }
}

#[test]
fn json_lines_are_pinned() {
    for (event, golden) in [(send(), SEND_JSON), (durable_receive(), RECEIVE_JSON)] {
        assert_eq!(
            serde_json::to_string(&event).unwrap(),
            golden,
            "JSON drifted"
        );
        assert_eq!(serde_json::from_str::<Event>(golden).unwrap(), event);
    }
    // A `--trace-dir` file is these lines, one event each.
    let file = format!("{SEND_JSON}\n{RECEIVE_JSON}\n");
    let trace = read_jsonl(file.as_bytes()).unwrap();
    assert_eq!(trace.events(), [send(), durable_receive()]);
}

#[test]
fn journal_file_is_pinned() {
    let (path, bytes) = journal_bytes("write");
    std::fs::remove_file(&path).ok();
    assert_eq!(hex(&bytes), JOURNAL, "journal bytes drifted");

    // The pinned file, read back, holds the same two events.
    let path = std::env::temp_dir().join(format!("jmst-golden-read-{}.jrnl", std::process::id()));
    std::fs::write(&path, unhex(JOURNAL)).unwrap();
    let records = Journal::read(&path, &JournalKey::from_passphrase("golden"));
    std::fs::remove_file(&path).ok();
    let expected: Vec<JournalRecord> = [send(), durable_receive()]
        .into_iter()
        .map(|event| JournalRecord::Event { index: 0, event })
        .collect();
    assert_eq!(records.unwrap(), expected);
}
