//! `jmst-replay`: replay traces through both analysis paths and diff.
//!
//! Each argument is either a saved trace (`.trace.jsonl` / `.jsonl` from
//! [`Trace::save_jsonl`], `.csv` from the CSV exporter) or a scenario
//! description (`.cfg`), which is linted and executed against a reference
//! broker first. Scenario `[properties]` sections are compiled onto the
//! checker core, so DSL verdicts are replayed alongside the built-ins.
//! The resulting trace is then analysed twice — once by the
//! batch driver ([`Analyzer::analyze`]) and once by a
//! [`StreamingAnalyzer`] fed through the live channel-and-reorder-buffer
//! transport — and the two [`AnalysisReport`]s are compared field by
//! field. They must be identical: the streaming pipeline is a refactoring
//! of the batch one, not an approximation of it.
//!
//! Exit status: 0 when every report pair matches, 1 on any divergence,
//! 2 on usage or input errors.
//!
//! ```sh
//! cargo run --example jmst_replay -- traces/smoke.trace.jsonl
//! cargo run --example jmst_replay -- scenarios/redelivery_dlq.cfg
//! ```

use jmst::core::CheckerRegistry;
use jmst::harness::{lint_spec, parse_spec};
use jmst::prelude::*;
use jmst::store::sink::EventSink;
use std::sync::Arc;

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: jmst_replay TRACE.jsonl|TRACE.csv|SCENARIO.cfg ...");
        std::process::exit(2);
    }
    let mut diverged = false;
    for path in &paths {
        match replay(path) {
            Ok(Verdict::Identical { events }) => {
                println!("{path}: identical reports ({events} events)");
            }
            Ok(Verdict::Diverged { differences }) => {
                println!("{path}: DIVERGED");
                for difference in differences {
                    println!("  {difference}");
                }
                diverged = true;
            }
            Err(error) => {
                eprintln!("{path}: error: {error}");
                std::process::exit(2);
            }
        }
    }
    std::process::exit(if diverged { 1 } else { 0 });
}

enum Verdict {
    Identical { events: usize },
    Diverged { differences: Vec<String> },
}

fn replay(path: &str) -> Result<Verdict, String> {
    let (trace, registry) = load_trace(path)?;
    let analyzer = Analyzer::new().with_registry(registry);
    let batch = analyzer.analyze(&trace);
    let streaming = stream_through_transport(&analyzer, &trace)?;
    if batch == streaming {
        return Ok(Verdict::Identical {
            events: batch.events_analyzed,
        });
    }
    Ok(Verdict::Diverged {
        differences: diff(&batch, &streaming),
    })
}

/// Loads, or for scenarios produces, the trace to replay, paired with
/// the checker registry compiled from the scenario's `[properties]`
/// section (empty for saved traces, which carry no property source).
fn load_trace(path: &str) -> Result<(Trace, CheckerRegistry), String> {
    if path.ends_with(".jsonl") {
        let trace = Trace::load_jsonl(path).map_err(|error| error.to_string())?;
        return Ok((trace, CheckerRegistry::default()));
    }
    if path.ends_with(".csv") {
        let text =
            std::fs::read_to_string(path).map_err(|error| format!("cannot read: {error}"))?;
        let trace = jmst::store::csv::trace_from_csv(&text).map_err(|error| error.to_string())?;
        return Ok((trace, CheckerRegistry::default()));
    }
    if path.ends_with(".cfg") {
        let text =
            std::fs::read_to_string(path).map_err(|error| format!("cannot read: {error}"))?;
        let spec = parse_spec(&text).map_err(|error| error.to_string())?;
        let lint = lint_spec(&spec);
        if lint.has_errors() {
            return Err(format!("lint errors:\n{lint}"));
        }
        let registry = jmst::props::compile_registry(&spec.properties);
        let config = spec.broker_config()?;
        let broker = ReferenceBroker::with_config(config);
        let admin: Arc<dyn BrokerAdmin> = Arc::new(broker.clone());
        let trace = ThreadedRunner::new()
            .run(Arc::new(broker), Some(admin), &spec)
            .map_err(|error| error.to_string())?;
        return Ok((trace, registry));
    }
    Err("unsupported input (expected .jsonl, .csv, or .cfg)".to_owned())
}

/// Feeds the trace through the same bounded channel + reorder buffer the
/// live harness uses, with a streaming analyzer consuming on a thread —
/// so a divergence in the transport, not just the checkers, is caught.
fn stream_through_transport(analyzer: &Analyzer, trace: &Trace) -> Result<AnalysisReport, String> {
    let (mut sink, stream) = jmst::store::channel(1024, 4096);
    let mut streaming = analyzer.streaming();
    let consumer = std::thread::spawn(move || {
        for event in stream {
            streaming.observe(&event);
        }
        streaming.finish()
    });
    for event in trace {
        sink.accept(event.clone());
    }
    sink.close();
    consumer
        .join()
        .map_err(|_| "streaming analysis thread panicked".to_owned())
}

/// Human-readable field-by-field differences between two reports.
fn diff(batch: &AnalysisReport, streaming: &AnalysisReport) -> Vec<String> {
    let mut differences = Vec::new();
    if batch.violations != streaming.violations {
        differences.push(format!(
            "violations: batch {} vs streaming {}",
            batch.violations.len(),
            streaming.violations.len()
        ));
        for violation in &batch.violations {
            if !streaming.violations.contains(violation) {
                differences.push(format!("  batch only: {violation}"));
            }
        }
        for violation in &streaming.violations {
            if !batch.violations.contains(violation) {
                differences.push(format!("  streaming only: {violation}"));
            }
        }
    }
    if batch.named != streaming.named {
        differences.push(format!(
            "named property outcomes: batch {} vs streaming {}",
            batch.named.len(),
            streaming.named.len()
        ));
    }
    if batch.performance != streaming.performance {
        differences.push("performance reports differ".to_owned());
    }
    if batch.expiry != streaming.expiry {
        differences.push(format!(
            "expiry breakdowns: batch {} vs streaming {}",
            batch.expiry.len(),
            streaming.expiry.len()
        ));
    }
    if (batch.events_analyzed, batch.sends, batch.receives)
        != (
            streaming.events_analyzed,
            streaming.sends,
            streaming.receives,
        )
    {
        differences.push(format!(
            "counters: batch {}/{}/{} vs streaming {}/{}/{} (events/sends/receives)",
            batch.events_analyzed,
            batch.sends,
            batch.receives,
            streaming.events_analyzed,
            streaming.sends,
            streaming.receives
        ));
    }
    differences
}
