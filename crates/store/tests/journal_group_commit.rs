//! The journal writer's group-commit contract: appends gather in a
//! buffer and reach the file whole, so where the writer flushes changes
//! when bytes land, never which bytes.
//!
//! * Any choice of `flush()` points writes the file that flushing after
//!   every record writes.
//! * After `flush()`, `sync()` or drop, salvage returns exactly the
//!   records appended so far, intact.
//! * The file always ends on a frame boundary: after a flush its length
//!   is salvage's `valid_len`, and a buffer that fills mid-run is
//!   written out whole.

use jmst_api::id::NodeId;
use jmst_api::time::Timestamp;
use jmst_store::event::Phase;
use jmst_store::journal::{
    Journal, JournalKey, JournalRecord, JournalWriter, VerdictRecord, GROUP_COMMIT_LEN,
};
use jmst_store::{Event, EventKind};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "jmst-journal-group-{tag}-{}-{:?}.jrnl",
        std::process::id(),
        std::thread::current().id()
    ))
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).unwrap().len()
}

/// One step of a generated run: what to append, and whether to flush
/// after it.
#[derive(Debug, Clone)]
struct Step {
    kind: u8,
    text_len: usize,
    flush: bool,
}

/// How a run hands its last records to the OS.
#[derive(Debug, Clone, Copy)]
enum Ending {
    Flush,
    Sync,
    Drop,
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    // Up to ~100 records of up to ~4 KiB: most runs fill the 64 KiB
    // buffer at least once, some never do.
    prop::collection::vec(
        (0u8..4, 0usize..4_000, 0u8..8).prop_map(|(kind, text_len, flush)| Step {
            kind,
            text_len,
            flush: flush == 0,
        }),
        1..100,
    )
}

fn arb_ending() -> impl Strategy<Value = Ending> {
    prop_oneof![Just(Ending::Flush), Just(Ending::Sync), Just(Ending::Drop)]
}

/// The record step `i` appends; kind 3 goes through `append_event`.
fn record(i: usize, step: &Step) -> JournalRecord {
    let text = "x".repeat(step.text_len);
    match step.kind {
        0 => JournalRecord::TestStarted {
            index: i,
            name: text,
            attempt: 1,
        },
        1 => JournalRecord::AttemptAborted {
            index: i,
            attempt: 2,
            reason: text,
        },
        2 => JournalRecord::TestFinished {
            index: i,
            name: text,
            verdict: VerdictRecord {
                status: "passed".to_owned(),
                detail: String::new(),
                violations: 0,
                sends: i as u64,
                receives: i as u64,
            },
        },
        _ => JournalRecord::Event {
            index: i,
            event: Event {
                seq: i as u64,
                at: Timestamp::from_millis(i as u64),
                node: NodeId::from_raw(1),
                kind: EventKind::PhaseStarted { phase: Phase::Run },
            },
        },
    }
}

fn append(writer: &mut JournalWriter, record: &JournalRecord) {
    match record {
        JournalRecord::Event { index, event } => writer.append_event(*index, event),
        other => writer.append(other),
    }
    .unwrap();
}

/// Salvages `path` and checks it holds exactly `expected`, intact, and
/// that the verified prefix is the whole file.
fn assert_holds(path: &Path, key: &JournalKey, expected: &[JournalRecord]) -> TestCaseResult {
    let salvage = Journal::salvage(path, key).unwrap();
    prop_assert!(salvage.intact(), "damage: {:?}", salvage.damage);
    prop_assert_eq!(salvage.valid_len, file_len(path));
    prop_assert!(
        salvage.records.as_slice() == expected,
        "salvaged records differ"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_flush_points_write_the_bytes_of_flushing_every_record(
        steps in arb_steps(),
        ending in arb_ending(),
    ) {
        let key = JournalKey::from_passphrase("group-commit");
        let records: Vec<JournalRecord> =
            steps.iter().enumerate().map(|(i, step)| record(i, step)).collect();

        // Reference: every record flushed on its own, noting the file
        // length after each one (the frame boundaries).
        let reference = temp_path("each");
        let mut writer = JournalWriter::create(&reference, &key).unwrap();
        let mut boundaries = vec![file_len(&reference)];
        for record in &records {
            append(&mut writer, record);
            writer.flush().unwrap();
            boundaries.push(file_len(&reference));
        }
        drop(writer);

        let grouped = temp_path("grouped");
        let mut writer = JournalWriter::create(&grouped, &key).unwrap();
        for (n, (record, step)) in records.iter().zip(&steps).enumerate() {
            append(&mut writer, record);
            // Whatever the buffer wrote so far ends on a frame boundary
            // no later than the record just appended.
            let len = file_len(&grouped);
            prop_assert!(
                boundaries[..=n + 1].contains(&len),
                "after record {} the file is {} bytes, not a frame boundary",
                n,
                len
            );
            if step.flush {
                writer.flush().unwrap();
                prop_assert_eq!(file_len(&grouped), boundaries[n + 1]);
                assert_holds(&grouped, &key, &records[..=n])?;
            }
        }
        match ending {
            Ending::Flush => writer.flush().unwrap(),
            Ending::Sync => writer.sync().unwrap(),
            Ending::Drop => drop(writer),
        }
        assert_holds(&grouped, &key, &records)?;
        let (a, b) = (std::fs::read(&reference).unwrap(), std::fs::read(&grouped).unwrap());
        std::fs::remove_file(&reference).ok();
        std::fs::remove_file(&grouped).ok();
        prop_assert!(a == b, "grouped journal differs from the flush-each journal");
    }
}

#[test]
fn a_full_buffer_is_written_out_without_a_flush() {
    let path = temp_path("fill");
    let key = JournalKey::default();
    let mut writer = JournalWriter::create(&path, &key).unwrap();
    let records: Vec<JournalRecord> = (0..)
        .map(|i| JournalRecord::AttemptAborted {
            index: i,
            attempt: 1,
            reason: "r".repeat(1_000),
        })
        .take(2 * GROUP_COMMIT_LEN / 1_000)
        .collect();
    let magic_len = file_len(&path);
    let mut appended = 0;
    while file_len(&path) == magic_len {
        assert!(appended < records.len(), "a filled buffer reaches the file");
        writer.append(&records[appended]).unwrap();
        appended += 1;
    }
    // The write that filled the buffer took every record appended so far.
    let salvage = Journal::salvage(&path, &key).unwrap();
    assert!(salvage.intact(), "{:?}", salvage.damage);
    assert_eq!(salvage.records, records[..appended]);
    assert!(salvage.valid_len >= GROUP_COMMIT_LEN as u64);
    for record in &records[appended..] {
        writer.append(record).unwrap();
    }
    drop(writer);
    let read = Journal::read(&path, &key).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(read, records);
}
