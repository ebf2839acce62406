//! Journal replay: rebuilding per-test analysis from a campaign
//! journal's event stream.
//!
//! When the multi-process prince resumes an interrupted campaign, the
//! completed tests are not re-run — their verdicts are *rebuilt* by
//! replaying the journaled events through the same streaming analyzer
//! that judged them live. Because the streaming core is deterministic
//! over the canonical event order, a replayed report equals the
//! original run's report exactly, which is what makes a resumed
//! campaign report comparable (and in the resume tests, *equal*) to an
//! uninterrupted one.
//!
//! [`partition_journal`] does the bookkeeping: grouping events by test,
//! discarding aborted attempts (a respawned worker reruns its test from
//! scratch, superseding the dead attempt's events), and classifying the
//! journal's end state. [`replay_events`] is the analysis half: events
//! → canonical order → streaming analyzer → [`AnalysisReport`].

use crate::analyzer::{AnalysisReport, Analyzer};
use jmst_store::journal::{JournalRecord, VerdictRecord};
use jmst_store::{Event, Trace};

/// Replays loose events through a streaming analyzer in canonical
/// order, producing the same report the live watcher produced.
pub fn replay_events(analyzer: &Analyzer, events: Vec<Event>) -> AnalysisReport {
    let trace = Trace::from_events(events);
    let mut streaming = analyzer.streaming();
    for event in trace.events() {
        streaming.observe(event);
    }
    streaming.finish()
}

/// One completed test recovered from a journal.
#[derive(Debug, Clone)]
pub struct ReplayedTest {
    /// Index into the campaign schedule.
    pub index: usize,
    /// Test name.
    pub name: String,
    /// The verdict the prince journaled when the test finished.
    pub verdict: VerdictRecord,
    /// The final (non-aborted) attempt's events, ready for
    /// [`replay_events`].
    pub events: Vec<Event>,
}

/// A test the journal opens but never finishes — where the interruption
/// struck.
#[derive(Debug, Clone)]
pub struct InterruptedTest {
    /// Index into the campaign schedule.
    pub index: usize,
    /// Test name.
    pub name: String,
    /// The attempt that was in flight.
    pub attempt: u32,
    /// Events collected before the interruption (a partial trace — the
    /// existing `Inconclusive` machinery analyses it).
    pub events: Vec<Event>,
}

/// A campaign journal, partitioned into resumable structure.
#[derive(Debug, Clone, Default)]
pub struct JournalReplay {
    /// Campaign name from the opening record.
    pub campaign: Option<String>,
    /// The committed schedule (test names in order).
    pub schedule: Vec<String>,
    /// The schedule digest the journal was opened with.
    pub spec_digest: Option<String>,
    /// Tests that ran to a verdict, in completion order.
    pub completed: Vec<ReplayedTest>,
    /// The test in flight when the journal ends, if any.
    pub interrupted: Option<InterruptedTest>,
    /// `true` when the journal records a `CampaignFinished` marker —
    /// nothing to resume.
    pub finished: bool,
}

impl JournalReplay {
    /// The schedule index resumption should start from: the first index
    /// with no journaled verdict.
    pub fn resume_index(&self) -> usize {
        self.completed
            .iter()
            .map(|t| t.index + 1)
            .max()
            .unwrap_or(0)
    }
}

/// Partitions journal records into completed tests (with their final
/// attempt's events), the interrupted in-flight test if any, and the
/// campaign bookkeeping. Aborted attempts' events are discarded, as the
/// prince discards them live.
pub fn partition_journal(records: &[JournalRecord]) -> JournalReplay {
    let mut replay = JournalReplay::default();
    // The attempt currently being collected: (index, name, attempt, events).
    let mut in_flight: Option<(usize, String, u32, Vec<Event>)> = None;
    for record in records {
        match record {
            JournalRecord::CampaignStarted {
                campaign,
                tests,
                spec_digest,
            } => {
                replay.campaign = Some(campaign.clone());
                replay.schedule = tests.clone();
                replay.spec_digest = Some(spec_digest.clone());
            }
            JournalRecord::TestStarted {
                index,
                name,
                attempt,
            } => {
                in_flight = Some((*index, name.clone(), *attempt, Vec::new()));
            }
            JournalRecord::Event { index, event } => {
                if let Some((current, _, _, events)) = in_flight.as_mut() {
                    if current == index {
                        events.push(event.clone());
                    }
                }
            }
            // The dead attempt's events are superseded; a respawn
            // journals a fresh TestStarted for the same index.
            JournalRecord::AttemptAborted { index, .. }
                if in_flight.as_ref().is_some_and(|(i, ..)| i == index) =>
            {
                in_flight = None;
            }
            JournalRecord::AttemptAborted { .. } => {}
            JournalRecord::TestFinished { index, verdict, .. } => {
                let (events, name) = match in_flight.take() {
                    Some((i, name, _, events)) if i == *index => (events, name),
                    _ => (Vec::new(), String::new()),
                };
                replay.completed.push(ReplayedTest {
                    index: *index,
                    name,
                    verdict: verdict.clone(),
                    events,
                });
            }
            JournalRecord::CampaignFinished { .. } => {
                replay.finished = true;
            }
            // `JournalRecord` is non_exhaustive: future record kinds are
            // bookkeeping this replay does not need.
            _ => {}
        }
    }
    if let Some((index, name, attempt, events)) = in_flight {
        replay.interrupted = Some(InterruptedTest {
            index,
            name,
            attempt,
            events,
        });
    }
    replay
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmst_api::id::NodeId;
    use jmst_api::time::SystemClock;
    use jmst_store::trace::Recorder;
    use jmst_store::{EventKind, Phase};
    use std::sync::Arc;

    fn some_events(n: usize) -> Vec<Event> {
        let recorder = Recorder::new();
        let node = recorder.node(NodeId::from_raw(1), Arc::new(SystemClock::new()));
        for _ in 0..n {
            node.record(EventKind::PhaseStarted { phase: Phase::Run });
        }
        recorder.into_trace().into_events()
    }

    fn verdict(status: &str) -> VerdictRecord {
        VerdictRecord {
            status: status.to_owned(),
            detail: String::new(),
            violations: 0,
            sends: 0,
            receives: 0,
        }
    }

    #[test]
    fn partition_discards_aborted_attempts_and_finds_the_interruption() {
        let events_a = some_events(3);
        let events_b = some_events(2);
        let mut records = vec![
            JournalRecord::CampaignStarted {
                campaign: "c".to_owned(),
                tests: vec!["t0".to_owned(), "t1".to_owned()],
                spec_digest: "d".to_owned(),
            },
            // t0: first attempt dies, second completes.
            JournalRecord::TestStarted {
                index: 0,
                name: "t0".to_owned(),
                attempt: 1,
            },
        ];
        records.extend(
            some_events(4)
                .into_iter()
                .map(|event| JournalRecord::Event { index: 0, event }),
        );
        records.push(JournalRecord::AttemptAborted {
            index: 0,
            attempt: 1,
            reason: "worker killed".to_owned(),
        });
        records.push(JournalRecord::TestStarted {
            index: 0,
            name: "t0".to_owned(),
            attempt: 2,
        });
        records.extend(
            events_a
                .iter()
                .cloned()
                .map(|event| JournalRecord::Event { index: 0, event }),
        );
        records.push(JournalRecord::TestFinished {
            index: 0,
            name: "t0".to_owned(),
            verdict: verdict("passed"),
        });
        // t1: interrupted mid-run.
        records.push(JournalRecord::TestStarted {
            index: 1,
            name: "t1".to_owned(),
            attempt: 1,
        });
        records.extend(
            events_b
                .iter()
                .cloned()
                .map(|event| JournalRecord::Event { index: 1, event }),
        );

        let replay = partition_journal(&records);
        assert_eq!(replay.campaign.as_deref(), Some("c"));
        assert_eq!(replay.schedule, vec!["t0", "t1"]);
        assert!(!replay.finished);
        assert_eq!(replay.completed.len(), 1);
        // Only the final attempt's events survive.
        assert_eq!(replay.completed[0].events, events_a);
        assert_eq!(replay.completed[0].verdict.status, "passed");
        let interrupted = replay.interrupted.as_ref().expect("t1 was in flight");
        assert_eq!(interrupted.index, 1);
        assert_eq!(interrupted.events, events_b);
        assert_eq!(replay.resume_index(), 1);
    }

    #[test]
    fn finished_campaigns_have_nothing_to_resume() {
        let records = vec![
            JournalRecord::CampaignStarted {
                campaign: "c".to_owned(),
                tests: vec!["t0".to_owned()],
                spec_digest: "d".to_owned(),
            },
            JournalRecord::TestStarted {
                index: 0,
                name: "t0".to_owned(),
                attempt: 1,
            },
            JournalRecord::TestFinished {
                index: 0,
                name: "t0".to_owned(),
                verdict: verdict("passed"),
            },
            JournalRecord::CampaignFinished {
                passed: 1,
                violated: 0,
                failed: 0,
            },
        ];
        let replay = partition_journal(&records);
        assert!(replay.finished);
        assert!(replay.interrupted.is_none());
        assert_eq!(replay.resume_index(), 1);
    }

    #[test]
    fn replayed_events_reproduce_the_batch_analysis() {
        // A hand-built trace with sends and in-order receives: the
        // replayed streaming report must match the batch analyzer over
        // the same events, even when the events arrive shuffled (the
        // journal preserves arrival order, not canonical order).
        let mut builder = crate::test_support::TraceBuilder::new().phase(Phase::Run);
        for m in 0..40u64 {
            builder = builder.send(m, 1, m).receive_q(m, 1, m);
        }
        let trace = builder.build();
        let analyzer = Analyzer::new();
        let batch = analyzer.analyze(&trace);
        let mut shuffled = trace.events().to_vec();
        shuffled.reverse();
        let replayed = replay_events(&analyzer, shuffled);
        assert_eq!(replayed.sends, batch.sends);
        assert_eq!(replayed.receives, batch.receives);
        assert_eq!(replayed.violations, batch.violations);
        assert!(replayed.passed(), "{replayed:?}");
    }
}
