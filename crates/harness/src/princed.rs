//! The multi-process daemon prince: worker processes, the framed
//! control protocol, and crash-safe campaign resume.
//!
//! The in-process [`DaemonPrince`] runs the drivers inside its own
//! address space; a crashing driver can therefore take the prince (and
//! the campaign's collected state) down with it. This module splits the
//! harness the way the paper's §4 deployment does: a `jmst-princed`
//! control daemon ([`ProcessPrince`]) spawns one driver **worker
//! process** per test attempt, hands it the spec over a length-prefixed
//! framed protocol ([`proto`](crate::proto)) on a Unix domain socket,
//! and collects the run's events live over the wire into the same
//! streaming-analysis pipeline the in-process prince uses. Verdicts are
//! identical by construction — process mode changes *where* drivers
//! run, never *what* is analysed — and the differential tests pin that.
//!
//! Robustness machinery, per the paper's "catching crashed tests,
//! cleaning up and continuing on with the next test":
//!
//! * a worker that dies (`kill -9`, panic, OOM) is detected purely from
//!   its socket ending before `TestDone`; the prince reaps it, journals
//!   the aborted attempt, and respawns with bounded exponential backoff
//!   ([`RespawnSchedule`]) before giving the test up as inconclusive;
//! * every collected event and verdict is appended to an HMAC-chained,
//!   CRC-framed campaign journal ([`jmst_store::journal`]); a prince
//!   killed mid-campaign restarts with `--resume`, verifies the chain,
//!   salvages any damaged tail, replays completed tests' events through
//!   the analyzer, and continues from the first unfinished test — the
//!   resumed report is byte-identical (via
//!   [`CampaignReport::stable_summary`]) to an uninterrupted run's;
//! * SIGINT/SIGTERM are caught ([`signals`](crate::signals)): the
//!   in-flight test finishes, the journal is flushed, and the exit is
//!   resumable.

use crate::prince::{CampaignReport, DaemonPrince, ProviderFactory, TestOutcome, TestResult};
use crate::process::{ProcessRegistry, RespawnSchedule, WorkerCommand};
use crate::proto::{self, ProtoError, WireMessage, WireOutcome, WireSink, PROTOCOL_VERSION};
use crate::runner::{BrokerAdmin, ThreadedRunner};
use crate::signals;
use crate::spec::{TestSpec, TransportMode};
use jmst_api::provider::Provider;
use jmst_core::replay::{partition_journal, replay_events, ReplayedTest};
use jmst_core::Analyzer;
use jmst_store::journal::{
    schedule_digest, Journal, JournalError, JournalKey, JournalRecord, JournalWriter, VerdictRecord,
};
use jmst_store::{Event, Trace};
use std::io::BufReader;
use std::os::unix::fs::DirBuilderExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The provider factory both the worker process and the thread-mode
/// fallback use: a reference broker configured from the spec's own
/// `[faults]` section. Thread- and process-mode runs of the same spec
/// thereby exercise the same provider — the precondition for the
/// differential tests' verdict equality.
pub fn spec_factory(spec: &TestSpec) -> (Arc<dyn Provider>, Option<Arc<dyn BrokerAdmin>>) {
    let config = spec
        .broker_config()
        .unwrap_or_else(|_| jmst_broker::BrokerConfig::correct());
    let broker = jmst_broker::ReferenceBroker::with_config(config);
    let admin: Arc<dyn BrokerAdmin> = Arc::new(broker.clone());
    (Arc::new(broker), Some(admin))
}

/// Fault-injection hook for the differential tests: SIGKILL the worker
/// of schedule index `test_index` after `after_events` collected events
/// (first attempt only) — `kill -9` as a first-class, reproducible
/// fault.
#[derive(Debug, Clone, Copy)]
pub struct ChaosKill {
    /// Which scheduled test's worker to kill.
    pub test_index: usize,
    /// Kill once this many events have been collected.
    pub after_events: usize,
}

/// The multi-process daemon prince.
///
/// Dispatches each test by its spec's `[transport]` mode: `thread` runs
/// in-process through [`DaemonPrince`]; `process` spawns a worker and
/// drives it over the framed control protocol. Either way the campaign
/// journal (when configured) records every event and verdict.
#[derive(Debug)]
pub struct ProcessPrince {
    analyzer: Analyzer,
    worker: Option<WorkerCommand>,
    key: JournalKey,
    journal: Option<PathBuf>,
    resume: bool,
    trace_dir: Option<PathBuf>,
    mode_override: Option<TransportMode>,
    chaos_kill: Option<ChaosKill>,
}

impl Default for ProcessPrince {
    fn default() -> Self {
        Self::new()
    }
}

impl ProcessPrince {
    /// A prince with the default analyzer, no journal, and workers
    /// resolved from `JMST_WORKER_BIN` / the current executable.
    pub fn new() -> Self {
        Self {
            analyzer: Analyzer::new(),
            worker: None,
            key: JournalKey::default(),
            journal: None,
            resume: false,
            trace_dir: None,
            mode_override: None,
            chaos_kill: None,
        }
    }

    /// Uses an explicit analyzer (e.g. strict-safety-only for chaos
    /// campaigns).
    #[must_use]
    pub fn with_analyzer(mut self, analyzer: Analyzer) -> Self {
        self.analyzer = analyzer;
        self
    }

    /// Uses an explicit worker command instead of re-invoking the
    /// current executable.
    #[must_use]
    pub fn with_worker(mut self, worker: WorkerCommand) -> Self {
        self.worker = Some(worker);
        self
    }

    /// Uses an explicit journal key (default: the well-known
    /// development passphrase).
    #[must_use]
    pub fn with_key(mut self, key: JournalKey) -> Self {
        self.key = key;
        self
    }

    /// Journals the campaign to `path`.
    #[must_use]
    pub fn with_journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal = Some(path.into());
        self
    }

    /// Resumes from an existing journal instead of truncating it.
    #[must_use]
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Persists every test's collected trace to `dir`.
    #[must_use]
    pub fn with_trace_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.trace_dir = Some(dir.into());
        self
    }

    /// Forces every test to this transport mode regardless of its spec.
    #[must_use]
    pub fn with_mode_override(mut self, mode: TransportMode) -> Self {
        self.mode_override = Some(mode);
        self
    }

    /// Arms the `kill -9` injection hook (see [`ChaosKill`]).
    #[must_use]
    pub fn with_chaos_kill(mut self, kill: ChaosKill) -> Self {
        self.chaos_kill = Some(kill);
        self
    }

    fn analyzer_for(&self, spec: &TestSpec) -> Analyzer {
        crate::prince::analyzer_for(&self.analyzer, spec)
    }

    /// Runs (or resumes) a campaign.
    ///
    /// # Errors
    ///
    /// Campaign-level failures only — an unreadable/undecryptable
    /// journal, or a resume against a different schedule. Per-test
    /// failures (crashes, hangs, violations) are verdicts in the
    /// report, not errors.
    pub fn run_campaign(
        &self,
        campaign: &str,
        factory: &ProviderFactory<'_>,
        specs: &[TestSpec],
    ) -> Result<CampaignReport, String> {
        let serialized: Vec<String> = specs
            .iter()
            .map(|s| crate::scenario_text::serialize_spec(s).unwrap_or_else(|_| s.name.clone()))
            .collect();
        let digest = schedule_digest(&serialized);
        let mut report = CampaignReport::default();
        let mut start_index = 0usize;
        let mut journal: Option<JournalWriter> = None;

        if let Some(path) = &self.journal {
            if self.resume && path.exists() {
                // Journal::resume refuses, without truncating anything, a
                // journal whose first record fails its MAC (wrong key or
                // tampering) and one holding a verified record this build
                // cannot decode (a version skew).
                let (mut writer, salvage) = Journal::resume(path, &self.key)
                    .map_err(|e| format!("journal {}: {e}; refusing to resume", path.display()))?;
                if let Some(damage) = &salvage.damage {
                    eprintln!(
                        "[jmst-princed] journal {}: {damage}; salvaged {} record(s), damaged suffix truncated",
                        path.display(),
                        salvage.records.len()
                    );
                }
                let replay = partition_journal(&salvage.records);
                if let Some(previous) = &replay.spec_digest {
                    if previous != &digest {
                        return Err(format!(
                            "journal {} was written for a different schedule \
                             (digest {previous} != {digest}); refusing to resume",
                            path.display()
                        ));
                    }
                }
                for done in &replay.completed {
                    let spec = specs.get(done.index).ok_or_else(|| {
                        format!(
                            "journal records test index {} beyond the {}-test schedule",
                            done.index,
                            specs.len()
                        )
                    })?;
                    report.results.push(self.replayed_result(spec, done));
                }
                if replay.finished {
                    return Ok(report);
                }
                if let Some(interrupted) = &replay.interrupted {
                    writer
                        .append(&JournalRecord::AttemptAborted {
                            index: interrupted.index,
                            attempt: interrupted.attempt,
                            reason: "campaign interrupted".to_owned(),
                        })
                        .map_err(|e| e.to_string())?;
                }
                start_index = replay.resume_index();
                journal = Some(writer);
            } else {
                let mut writer = JournalWriter::create(path, &self.key)
                    .map_err(|e| format!("journal {}: {e}", path.display()))?;
                writer
                    .append(&JournalRecord::CampaignStarted {
                        campaign: campaign.to_owned(),
                        tests: specs.iter().map(|s| s.name.clone()).collect(),
                        spec_digest: digest.clone(),
                    })
                    .map_err(|e| e.to_string())?;
                journal = Some(writer);
            }
        }

        let mut interrupted = false;
        for (index, spec) in specs.iter().enumerate().skip(start_index) {
            if signals::termination_requested() {
                interrupted = true;
                break;
            }
            let mode = self.mode_override.unwrap_or(spec.transport.mode);
            let result = match mode {
                TransportMode::Thread => self.run_thread_test(factory, index, spec, &mut journal),
                TransportMode::Process => self.run_process_test(index, spec, &mut journal),
            };
            report.results.push(result);
        }
        if let Some(writer) = journal.as_mut() {
            // An interrupted campaign deliberately omits the finished
            // marker: that is what makes it resumable.
            if !interrupted && report.results.len() == specs.len() {
                let _ = writer.append(&JournalRecord::CampaignFinished {
                    passed: report.passed(),
                    violated: report.violated(),
                    failed: report.failed(),
                });
            }
            writer.sync().map_err(|e| e.to_string())?;
        }
        if interrupted {
            eprintln!(
                "[jmst-princed] termination requested — journal flushed; \
                 rerun with --resume to continue"
            );
        }
        Ok(report)
    }

    /// Rebuilds a completed test's result from its journaled events.
    /// The analysis is *re-derived*, not trusted: a journal whose stored
    /// verdict disagrees with its own events is reported.
    fn replayed_result(&self, spec: &TestSpec, done: &ReplayedTest) -> TestResult {
        let verdict = &done.verdict;
        let outcome = match verdict.status.as_str() {
            "invalid" => TestOutcome::Invalid(verdict.detail.clone()),
            "hung" => TestOutcome::Hung {
                stage: intern_stage(&verdict.detail),
                report: replay_events(&self.analyzer_for(spec), done.events.clone()),
            },
            "inconclusive" => TestOutcome::Inconclusive {
                reason: verdict.detail.clone(),
                report: replay_events(&self.analyzer_for(spec), done.events.clone()),
            },
            stored => {
                let report = replay_events(&self.analyzer_for(spec), done.events.clone());
                let rederived = if report.passed() {
                    "passed"
                } else {
                    "violated"
                };
                if rederived != stored {
                    eprintln!(
                        "[jmst-princed] {}: journaled verdict {stored:?} but replay says \
                         {rederived:?}; using the replay",
                        spec.name
                    );
                }
                if report.passed() {
                    TestOutcome::Passed(report)
                } else {
                    TestOutcome::Violated(report)
                }
            }
        };
        TestResult {
            name: spec.name.clone(),
            outcome,
            wall_time: Duration::ZERO,
        }
    }

    fn run_thread_test(
        &self,
        factory: &ProviderFactory<'_>,
        index: usize,
        spec: &TestSpec,
        journal: &mut Option<JournalWriter>,
    ) -> TestResult {
        journal_append(
            journal,
            &JournalRecord::TestStarted {
                index,
                name: spec.name.clone(),
                attempt: 1,
            },
        );
        let mut prince = DaemonPrince::with_analyzer(self.analyzer.clone());
        if let Some(dir) = &self.trace_dir {
            prince = prince.with_trace_dir(dir);
        }
        let (result, events) = prince.run_test_collected(factory, spec);
        // Thread-mode events are journaled at test end (an in-process
        // crash would take the journal writer down anyway); process mode
        // journals live, event by event.
        for event in &events {
            journal_append_event(journal, index, event);
        }
        journal_append(
            journal,
            &JournalRecord::TestFinished {
                index,
                name: spec.name.clone(),
                verdict: verdict_of(&result.outcome),
            },
        );
        if let Some(writer) = journal {
            let _ = writer.sync();
        }
        result
    }

    fn run_process_test(
        &self,
        index: usize,
        spec: &TestSpec,
        journal: &mut Option<JournalWriter>,
    ) -> TestResult {
        let started = Instant::now();
        let finish = |outcome: TestOutcome, journal: &mut Option<JournalWriter>| {
            journal_append(
                journal,
                &JournalRecord::TestFinished {
                    index,
                    name: spec.name.clone(),
                    verdict: verdict_of(&outcome),
                },
            );
            if let Some(writer) = journal {
                let _ = writer.sync();
            }
            TestResult {
                name: spec.name.clone(),
                outcome,
                wall_time: started.elapsed(),
            }
        };
        let lint = crate::lint::lint_spec(spec);
        for warning in lint.warnings() {
            eprintln!("[jmst-lint] {}: {warning}", spec.name);
        }
        if lint.has_errors() {
            let reasons: Vec<String> = lint.errors().map(ToString::to_string).collect();
            journal_append(
                journal,
                &JournalRecord::TestStarted {
                    index,
                    name: spec.name.clone(),
                    attempt: 1,
                },
            );
            return finish(
                TestOutcome::Invalid(format!("lint: {}", reasons.join("; "))),
                journal,
            );
        }
        let worker = match &self.worker {
            Some(command) => command.clone(),
            None => match WorkerCommand::resolve() {
                Ok(command) => command,
                Err(reason) => {
                    journal_append(
                        journal,
                        &JournalRecord::TestStarted {
                            index,
                            name: spec.name.clone(),
                            attempt: 1,
                        },
                    );
                    return finish(TestOutcome::Invalid(reason), journal);
                }
            },
        };
        let (socket, listener) = match bind_worker_socket(spec) {
            Ok(bound) => bound,
            Err(reason) => {
                journal_append(
                    journal,
                    &JournalRecord::TestStarted {
                        index,
                        name: spec.name.clone(),
                        attempt: 1,
                    },
                );
                return finish(TestOutcome::Invalid(reason), journal);
            }
        };
        let _ = listener.set_nonblocking(true);
        let mut registry = ProcessRegistry::new();
        let mut schedule = RespawnSchedule::new(spec.transport.respawn_limit, &spec.retry);
        let deadline = test_deadline(spec);
        let mut attempt: u32 = 1;
        let mut chaos_pending = matches!(self.chaos_kill, Some(kill) if kill.test_index == index);
        let (outcome, events) = loop {
            journal_append(
                journal,
                &JournalRecord::TestStarted {
                    index,
                    name: spec.name.clone(),
                    attempt,
                },
            );
            match self.run_one_attempt(
                index,
                spec,
                &socket.path,
                &listener,
                &worker,
                &mut registry,
                deadline,
                &mut chaos_pending,
                journal,
            ) {
                AttemptResult::Done { outcome, events } => break (outcome, events),
                AttemptResult::Crashed { reason, events } => match schedule.next_backoff() {
                    Some(backoff) => {
                        journal_append(
                            journal,
                            &JournalRecord::AttemptAborted {
                                index,
                                attempt,
                                reason: reason.clone(),
                            },
                        );
                        if let Some(writer) = journal {
                            let _ = writer.sync();
                        }
                        eprintln!(
                            "[jmst-princed] {}: {reason}; respawning worker (attempt {})",
                            spec.name,
                            attempt + 1
                        );
                        std::thread::sleep(backoff);
                        attempt += 1;
                    }
                    None => {
                        // Respawn budget exhausted: the last attempt's
                        // partial trace is salvaged and analysed — the
                        // existing Inconclusive machinery, fed from the
                        // wire instead of a thread.
                        let partial = replay_events(&self.analyzer_for(spec), events.clone());
                        let outcome = TestOutcome::Inconclusive {
                            reason: format!(
                                "worker crashed {attempt} time(s), respawn limit {} exhausted: {reason}",
                                spec.transport.respawn_limit
                            ),
                            report: partial,
                        };
                        break (outcome, events);
                    }
                },
            }
        };
        drop(listener);
        drop(socket);
        self.persist(spec, &events);
        finish(outcome, journal)
    }

    #[allow(clippy::too_many_arguments)]
    fn run_one_attempt(
        &self,
        index: usize,
        spec: &TestSpec,
        socket: &Path,
        listener: &UnixListener,
        worker: &WorkerCommand,
        registry: &mut ProcessRegistry,
        deadline: Duration,
        chaos_pending: &mut bool,
        journal: &mut Option<JournalWriter>,
    ) -> AttemptResult {
        let pid = match worker.spawn(socket) {
            Ok(child) => registry.register(child),
            Err(reason) => {
                return AttemptResult::Crashed {
                    reason,
                    events: Vec::new(),
                }
            }
        };
        // Accept with a deadline — the worker may die before connecting.
        let accept_deadline = Instant::now() + Duration::from_secs(10);
        let stream = loop {
            match listener.accept() {
                Ok((stream, _)) => break stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= accept_deadline {
                        registry.kill(pid);
                        let exit = registry.reap(pid, Duration::from_secs(1));
                        return AttemptResult::Crashed {
                            reason: format!("worker {pid} never connected ({exit})"),
                            events: Vec::new(),
                        };
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => {
                    registry.kill(pid);
                    registry.reap(pid, Duration::from_secs(1));
                    return AttemptResult::Crashed {
                        reason: format!("accept on {} failed: {e}", socket.display()),
                        events: Vec::new(),
                    };
                }
            }
        };
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_read_timeout(Some(deadline));
        // Frames are read through a buffer (one `read` per several small
        // event frames, not two per frame) and written straight to the
        // socket; the read timeout stays on the socket.
        let mut reader = BufReader::new(&stream);
        let mut writer = &stream;
        match proto::read_frame(&mut reader) {
            Ok(Some(WireMessage::Hello { protocol, .. })) if protocol == PROTOCOL_VERSION => {}
            Ok(Some(WireMessage::Hello { protocol, .. })) => {
                let _ = proto::write_frame(&mut writer, &WireMessage::Shutdown);
                registry.reap(pid, Duration::from_secs(2));
                return AttemptResult::Crashed {
                    reason: format!(
                        "worker speaks protocol {protocol}, prince speaks {PROTOCOL_VERSION}"
                    ),
                    events: Vec::new(),
                };
            }
            other => {
                registry.kill(pid);
                let exit = registry.reap(pid, Duration::from_secs(1));
                return AttemptResult::Crashed {
                    reason: format!("no greeting from worker ({exit}): {other:?}"),
                    events: Vec::new(),
                };
            }
        }
        if let Err(e) =
            proto::write_frame(&mut writer, &WireMessage::RunTest { spec: spec.clone() })
        {
            registry.kill(pid);
            let exit = registry.reap(pid, Duration::from_secs(1));
            return AttemptResult::Crashed {
                reason: format!("cannot dispatch spec ({exit}): {e}"),
                events: Vec::new(),
            };
        }
        // Collection loop: every event is journaled, streamed through
        // the live analyzer (fail-fast cancels over the wire), and kept
        // for the final trace.
        let mut streaming = self.analyzer_for(spec).streaming();
        let mut events: Vec<Event> = Vec::new();
        let mut surfaced = false;
        let terminal = loop {
            match proto::read_frame(&mut reader) {
                Ok(Some(WireMessage::Event { event })) => {
                    journal_append_event(journal, index, &event);
                    streaming.observe(&event);
                    events.push(event);
                    // One line at the first live violation, the fail-fast
                    // trigger; the verdict carries the total.
                    let live = streaming.violations_so_far();
                    if live > 0 && !surfaced {
                        surfaced = true;
                        eprintln!("[jmst-princed] {}: {live} violation(s) live", spec.name);
                        if spec.fail_fast {
                            let _ = proto::write_frame(&mut writer, &WireMessage::Cancel);
                        }
                    }
                    if *chaos_pending {
                        if let Some(kill) = self.chaos_kill {
                            if events.len() >= kill.after_events {
                                *chaos_pending = false;
                                registry.kill(pid);
                            }
                        }
                    }
                }
                Ok(Some(WireMessage::TestDone { outcome })) => break Ok(outcome),
                Ok(Some(other)) => {
                    break Err(format!("unexpected control message from worker: {other:?}"))
                }
                Ok(None) => {
                    break Err("worker closed the connection before reporting a verdict".to_owned())
                }
                Err(ProtoError::TruncatedFrame) => break Err("worker died mid-frame".to_owned()),
                Err(ProtoError::Io(e))
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
                    ) =>
                {
                    registry.kill(pid);
                    break Err(format!("worker exceeded the {deadline:?} test deadline"));
                }
                Err(e) => break Err(format!("control connection failed: {e}")),
            }
        };
        match terminal {
            Ok(outcome) => {
                let _ = proto::write_frame(&mut writer, &WireMessage::Shutdown);
                registry.reap(pid, Duration::from_secs(5));
                let report = streaming.finish();
                let outcome = match outcome {
                    WireOutcome::Completed => {
                        if report.passed() {
                            TestOutcome::Passed(report)
                        } else {
                            TestOutcome::Violated(report)
                        }
                    }
                    WireOutcome::Hung { stage } => TestOutcome::Hung {
                        stage: intern_stage(&stage),
                        report,
                    },
                    WireOutcome::Inconclusive { reason } => {
                        TestOutcome::Inconclusive { reason, report }
                    }
                    WireOutcome::Invalid { reason } => TestOutcome::Invalid(reason),
                };
                AttemptResult::Done { outcome, events }
            }
            Err(reason) => {
                let exit = registry.reap(pid, Duration::from_secs(2));
                AttemptResult::Crashed {
                    reason: format!("{reason} ({exit})"),
                    events,
                }
            }
        }
    }

    fn persist(&self, spec: &TestSpec, events: &[Event]) {
        if let Some(dir) = &self.trace_dir {
            if std::fs::create_dir_all(dir).is_ok() {
                let sanitized: String = spec
                    .name
                    .chars()
                    .map(|c| {
                        if c.is_ascii_alphanumeric() || c == '-' {
                            c
                        } else {
                            '_'
                        }
                    })
                    .collect();
                let trace = Trace::from_events(events.to_vec());
                let _ = trace.save_jsonl(dir.join(format!("{sanitized}.trace.jsonl")));
            }
        }
    }
}

/// A worker control socket this prince bound. Dropping it unlinks the
/// socket and removes the private directory it was created in, if any;
/// nothing this prince did not create is ever unlinked.
struct BoundSocket {
    path: PathBuf,
    private_dir: Option<PathBuf>,
}

impl Drop for BoundSocket {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
        if let Some(dir) = &self.private_dir {
            let _ = std::fs::remove_dir(dir);
        }
    }
}

/// Binds the worker control socket: the spec's explicit path, or else
/// `worker.sock` in a fresh owner-only directory under the temp dir, so
/// concurrent princes in one process (and stale files left by a killed
/// earlier process with the same pid) never share a path.
fn bind_worker_socket(spec: &TestSpec) -> Result<(BoundSocket, UnixListener), String> {
    let (path, private_dir) = match &spec.transport.socket {
        Some(path) => (PathBuf::from(path), None),
        None => {
            let dir = create_private_dir()
                .map_err(|e| format!("cannot create a worker socket directory: {e}"))?;
            (dir.join("worker.sock"), Some(dir))
        }
    };
    match UnixListener::bind(&path) {
        Ok(listener) => Ok((BoundSocket { path, private_dir }, listener)),
        Err(e) => {
            if let Some(dir) = &private_dir {
                let _ = std::fs::remove_dir(dir);
            }
            Err(format!("cannot bind {}: {e}", path.display()))
        }
    }
}

/// Creates `jmst-princed-{pid}-{n}` under the temp dir with mode 0700,
/// taking the next `n` from a process-wide counter and skipping names
/// that already exist.
fn create_private_dir() -> std::io::Result<PathBuf> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    loop {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("jmst-princed-{}-{n}", std::process::id()));
        match std::fs::DirBuilder::new().mode(0o700).create(&dir) {
            Ok(()) => return Ok(dir),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    }
}

// One attempt result exists at a time; the variant size gap is moot.
#[allow(clippy::large_enum_variant)]
enum AttemptResult {
    Done {
        outcome: TestOutcome,
        events: Vec<Event>,
    },
    Crashed {
        reason: String,
        events: Vec<Event>,
    },
}

/// Appends one record, disabling the journal (loudly) on I/O failure —
/// a full disk must not abort a campaign that can still report live.
fn journal_append(journal: &mut Option<JournalWriter>, record: &JournalRecord) {
    journal_write(journal, |writer| writer.append(record));
}

/// Journals one event of test `index` — encoded from the borrow, and not
/// at all when no journal is open.
fn journal_append_event(journal: &mut Option<JournalWriter>, index: usize, event: &Event) {
    journal_write(journal, |writer| writer.append_event(index, event));
}

fn journal_write(
    journal: &mut Option<JournalWriter>,
    write: impl FnOnce(&mut JournalWriter) -> Result<(), JournalError>,
) {
    if let Some(writer) = journal {
        if let Err(e) = write(writer) {
            eprintln!("[jmst-princed] journal write failed: {e}; journalling disabled");
            *journal = None;
        }
    }
}

/// Maps a wire/journal stage string back onto the static stage names
/// [`TestOutcome::Hung`] carries.
fn intern_stage(stage: &str) -> &'static str {
    match stage {
        "producers" => "producers",
        "consumers" => "consumers",
        _ => "unknown",
    }
}

/// The [`VerdictRecord`] journaled for an outcome.
fn verdict_of(outcome: &TestOutcome) -> VerdictRecord {
    let (status, detail) = match outcome {
        TestOutcome::Passed(_) => ("passed", String::new()),
        TestOutcome::Violated(_) => ("violated", String::new()),
        TestOutcome::Hung { stage, .. } => ("hung", (*stage).to_owned()),
        TestOutcome::Inconclusive { reason, .. } => ("inconclusive", reason.clone()),
        TestOutcome::Invalid(reason) => ("invalid", reason.clone()),
    };
    let report = outcome.report();
    VerdictRecord {
        status: status.to_owned(),
        detail,
        violations: report.map_or(0, |r| r.violations.len() as u64),
        sends: report.map_or(0, |r| r.sends as u64),
        receives: report.map_or(0, |r| r.receives as u64),
    }
}

/// A worker reruns a timed-out/crashed stage within this wall-clock
/// budget; beyond it the prince assumes the worker is wedged (its own
/// hang detection should have fired long before).
fn test_deadline(spec: &TestSpec) -> Duration {
    let scheduled = spec.warm_up + spec.run + spec.warm_down + spec.drain_quiet;
    scheduled * 2 + Duration::from_secs(30)
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

/// Entry point for a worker process (`jmst-princed --worker --socket
/// PATH`): connect back to the prince, greet, and run dispatched tests
/// until told to shut down. Returns the process exit code.
pub fn worker_main(socket: &Path) -> i32 {
    let stream = match UnixStream::connect(socket) {
        Ok(stream) => stream,
        Err(e) => {
            eprintln!("[jmst-worker] cannot connect to {}: {e}", socket.display());
            return 3;
        }
    };
    let writer = match stream.try_clone() {
        Ok(clone) => Arc::new(Mutex::new(clone)),
        Err(e) => {
            eprintln!("[jmst-worker] cannot clone control stream: {e}");
            return 3;
        }
    };
    {
        let Ok(mut guard) = writer.lock() else {
            return 3;
        };
        let hello = WireMessage::Hello {
            pid: std::process::id(),
            protocol: PROTOCOL_VERSION,
        };
        if proto::write_frame(&mut *guard, &hello).is_err() {
            return 3;
        }
    }
    let mut reader = BufReader::new(stream);
    // The in-flight run, if any: drivers execute on this thread while
    // the main loop keeps reading the control stream for Cancel.
    let mut current: Option<(std::thread::JoinHandle<()>, Arc<AtomicBool>)> = None;
    loop {
        match proto::read_frame(&mut reader) {
            Ok(Some(WireMessage::RunTest { spec })) => {
                if let Some((handle, _)) = current.take() {
                    let _ = handle.join();
                }
                let cancel = Arc::new(AtomicBool::new(false));
                let writer = Arc::clone(&writer);
                let flag = Arc::clone(&cancel);
                let handle = std::thread::spawn(move || run_worker_test(&spec, &writer, flag));
                current = Some((handle, cancel));
            }
            Ok(Some(WireMessage::Cancel)) => {
                if let Some((_, cancel)) = &current {
                    cancel.store(true, Ordering::SeqCst);
                }
            }
            Ok(Some(WireMessage::Shutdown)) | Ok(None) => {
                if let Some((handle, _)) = current.take() {
                    let _ = handle.join();
                }
                return 0;
            }
            Ok(Some(other)) => {
                eprintln!("[jmst-worker] unexpected control message: {other:?}");
            }
            Err(_) => {
                // The prince is gone; cancel any run and die quietly —
                // lingering would make us the orphan the registry exists
                // to prevent.
                if let Some((handle, cancel)) = current.take() {
                    cancel.store(true, Ordering::SeqCst);
                    let _ = handle.join();
                }
                return 3;
            }
        }
    }
}

fn run_worker_test(spec: &TestSpec, writer: &Arc<Mutex<UnixStream>>, cancel: Arc<AtomicBool>) {
    let (provider, admin) = spec_factory(spec);
    let runner = ThreadedRunner::new();
    // The sink is the recorder's only destination: each event is framed
    // onto the socket and dropped, and the runner keeps no trace.
    let sink = WireSink::new(Arc::clone(writer));
    let result = runner.run_observed(provider, admin, spec, Some(Box::new(sink)), Some(cancel));
    let outcome = match result {
        Ok(_) => WireOutcome::Completed,
        Err(crate::error::HarnessError::TestHung { stage, .. }) => WireOutcome::Hung {
            stage: stage.to_owned(),
        },
        Err(crate::error::HarnessError::Inconclusive { reason, .. }) => {
            WireOutcome::Inconclusive { reason }
        }
        Err(crate::error::HarnessError::InvalidSpec(reason)) => WireOutcome::Invalid { reason },
        Err(other) => WireOutcome::Invalid {
            reason: other.to_string(),
        },
    };
    if let Ok(mut guard) = writer.lock() {
        let _ = proto::write_frame(&mut *guard, &WireMessage::TestDone { outcome });
    }
}

// ---------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------

fn usage() -> i32 {
    eprintln!(
        "usage: jmst-princed [--mode thread|process] [--journal PATH] [--resume] \
         [--key PASSPHRASE] [--report PATH] [--trace-dir DIR] [--campaign NAME] SCENARIO.cfg..."
    );
    eprintln!("       jmst-princed --worker --socket PATH");
    2
}

/// The `jmst-princed` command line: scenario campaign mode by default,
/// worker mode under `--worker`. Returns the process exit code: 0 all
/// tests passed, 1 some did not, 2 usage error, 3 campaign-level
/// failure, 130 interrupted (resumable).
pub fn cli_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--worker") {
        let socket = args
            .iter()
            .position(|a| a == "--socket")
            .and_then(|at| args.get(at + 1));
        let Some(socket) = socket else {
            eprintln!("--worker requires --socket PATH");
            return 2;
        };
        return worker_main(Path::new(socket));
    }
    signals::install_termination_handler();
    let mut paths: Vec<String> = Vec::new();
    let mut journal: Option<PathBuf> = None;
    let mut resume = false;
    let mut key: Option<String> = None;
    let mut report_path: Option<PathBuf> = None;
    let mut trace_dir: Option<PathBuf> = None;
    let mut mode: Option<TransportMode> = None;
    let mut campaign = "campaign".to_owned();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--resume" => resume = true,
            "--journal" => match iter.next() {
                Some(value) => journal = Some(PathBuf::from(value)),
                None => return usage(),
            },
            "--key" => match iter.next() {
                Some(value) => key = Some(value.clone()),
                None => return usage(),
            },
            "--report" => match iter.next() {
                Some(value) => report_path = Some(PathBuf::from(value)),
                None => return usage(),
            },
            "--trace-dir" => match iter.next() {
                Some(value) => trace_dir = Some(PathBuf::from(value)),
                None => return usage(),
            },
            "--campaign" => match iter.next() {
                Some(value) => campaign = value.clone(),
                None => return usage(),
            },
            "--mode" => match iter.next().map(String::as_str) {
                Some("thread") => mode = Some(TransportMode::Thread),
                Some("process") => mode = Some(TransportMode::Process),
                _ => return usage(),
            },
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}");
                return usage();
            }
            path => paths.push(path.to_owned()),
        }
    }
    if paths.is_empty() {
        return usage();
    }
    let mut specs = Vec::new();
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("{path}: cannot read: {e}");
                return 2;
            }
        };
        match crate::scenario_text::parse_spec(&text) {
            Ok(spec) => specs.push(spec),
            Err(e) => {
                eprintln!("{path}: {e}");
                return 2;
            }
        }
    }
    // Spec-level `[transport]` settings are the defaults; flags override.
    if journal.is_none() {
        journal = specs
            .iter()
            .find_map(|s| s.transport.journal.clone().map(PathBuf::from));
    }
    if !resume {
        resume = specs.iter().any(|s| s.transport.resume);
    }
    let mut prince = ProcessPrince::new().with_resume(resume);
    if let Some(path) = &journal {
        prince = prince.with_journal(path);
    }
    if let Some(passphrase) = &key {
        prince = prince.with_key(JournalKey::from_passphrase(passphrase));
    }
    if let Some(dir) = &trace_dir {
        prince = prince.with_trace_dir(dir);
    }
    if let Some(mode) = mode {
        prince = prince.with_mode_override(mode);
    }
    match prince.run_campaign(&campaign, &spec_factory, &specs) {
        Ok(report) => {
            print!("{report}");
            if let Some(path) = &report_path {
                if let Err(e) = std::fs::write(path, report.stable_summary()) {
                    eprintln!("cannot write {}: {e}", path.display());
                    return 3;
                }
            }
            if signals::termination_requested() {
                return 130;
            }
            if report.results.len() == specs.len()
                && report.results.iter().all(|r| r.outcome.passed())
            {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("campaign failed: {e}");
            3
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ConsumerSpec, NodeSpec, ProducerSpec};
    use jmst_api::destination::Destination;

    fn quick_spec(name: &str) -> TestSpec {
        TestSpec::new(name)
            .with_periods(
                Duration::from_millis(20),
                Duration::from_millis(120),
                Duration::from_secs(2),
            )
            .node(
                NodeSpec::new("n0")
                    .producer(ProducerSpec::steady(Destination::queue("q"), 200.0, 64).limited(20))
                    .consumer(ConsumerSpec::auto(Destination::queue("q"))),
            )
    }

    #[test]
    fn verdicts_round_trip_through_the_journal_record() {
        let report =
            jmst_core::Analyzer::new().analyze(&jmst_store::trace::Recorder::new().snapshot());
        let cases = [
            (TestOutcome::Passed(report.clone()), "passed", ""),
            (TestOutcome::Violated(report.clone()), "violated", ""),
            (
                TestOutcome::Hung {
                    stage: "consumers",
                    report: report.clone(),
                },
                "hung",
                "consumers",
            ),
            (
                TestOutcome::Inconclusive {
                    reason: "gave up".to_owned(),
                    report,
                },
                "inconclusive",
                "gave up",
            ),
            (
                TestOutcome::Invalid("no nodes".to_owned()),
                "invalid",
                "no nodes",
            ),
        ];
        for (outcome, status, detail) in cases {
            let verdict = verdict_of(&outcome);
            assert_eq!(verdict.status, status);
            assert_eq!(verdict.detail, detail);
        }
        assert_eq!(intern_stage("consumers"), "consumers");
        assert_eq!(intern_stage("producers"), "producers");
        assert_eq!(intern_stage("martians"), "unknown");
    }

    #[test]
    fn thread_mode_campaign_journals_and_resume_replays_identically() {
        let dir = std::env::temp_dir().join(format!("jmst-princed-t-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("campaign.jnl");
        let specs = vec![quick_spec("alpha"), quick_spec("beta")];
        let prince = ProcessPrince::new().with_journal(&journal);
        let factory = |spec: &TestSpec| spec_factory(spec);
        let report = prince
            .run_campaign("unit", &factory, &specs)
            .expect("campaign runs");
        assert_eq!(report.results.len(), 2);
        assert_eq!(report.passed(), 2, "{report}");
        let summary = report.stable_summary();

        // A finished journal resumes to the identical stable summary
        // without running anything (the factory panics if invoked).
        let resumed = ProcessPrince::new()
            .with_journal(&journal)
            .with_resume(true)
            .run_campaign(
                "unit",
                &|_: &TestSpec| panic!("resume of a finished campaign must not run tests"),
                &specs,
            )
            .expect("resume succeeds");
        assert_eq!(resumed.stable_summary(), summary);

        // A different schedule is refused.
        let other = vec![quick_spec("alpha"), quick_spec("gamma")];
        let refused = ProcessPrince::new()
            .with_journal(&journal)
            .with_resume(true)
            .run_campaign("unit", &factory, &other);
        assert!(refused.is_err(), "{refused:?}");
        assert!(refused.unwrap_err().contains("different schedule"));

        // A wrong key refuses the whole journal.
        let wrong_key = ProcessPrince::new()
            .with_journal(&journal)
            .with_key(JournalKey::from_passphrase("not the key"))
            .with_resume(true)
            .run_campaign("unit", &factory, &specs);
        assert!(wrong_key.is_err(), "{wrong_key:?}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interrupted_thread_campaign_resumes_from_the_unfinished_test() {
        let dir = std::env::temp_dir().join(format!("jmst-princed-i-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("campaign.jnl");
        let specs = vec![quick_spec("first"), quick_spec("second")];
        let factory = |spec: &TestSpec| spec_factory(spec);

        // Uninterrupted reference run.
        let reference = ProcessPrince::new()
            .with_journal(&journal)
            .run_campaign("unit", &factory, &specs)
            .expect("reference runs");
        let expected = reference.stable_summary();

        // Simulated interruption: run_campaign polls the termination
        // flag between tests, so a factory that raises it during test 1
        // interrupts the campaign before test 2 is dispatched — the
        // same path a delivered SIGTERM takes.
        signals::reset_termination();
        let flagging_factory = |spec: &TestSpec| {
            signals::request_termination();
            spec_factory(spec)
        };
        let interrupted = ProcessPrince::new()
            .with_journal(&journal)
            .run_campaign("unit", &flagging_factory, &specs)
            .expect("interrupted campaign still reports");
        assert_eq!(interrupted.results.len(), 1, "stopped after the first test");
        signals::reset_termination();

        // Resume completes the schedule; the stable summary equals the
        // uninterrupted reference.
        let resumed = ProcessPrince::new()
            .with_journal(&journal)
            .with_resume(true)
            .run_campaign("unit", &factory, &specs)
            .expect("resume runs");
        assert_eq!(resumed.stable_summary(), expected);

        std::fs::remove_dir_all(&dir).ok();
    }
}
