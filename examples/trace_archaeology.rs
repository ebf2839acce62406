//! Trace archaeology: run a test, persist its execution trace to disk
//! (as the paper's tests log events to disk), then load it back,
//! re-analyse it offline, and export the results in every supported
//! format — the paper's collect → analyse → reports pipeline.
//!
//! ```sh
//! cargo run --example trace_archaeology
//! ```

use jmst::core::report;
use jmst::prelude::*;
use jmst::store::csv;
use std::sync::Arc;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Run a test against a slightly faulty provider so the offline
    //    analysis has something to find.
    let spec = TestSpec::new("archaeology")
        .with_periods(
            Duration::from_millis(50),
            Duration::from_millis(500),
            Duration::from_secs(3),
        )
        .node(
            NodeSpec::new("n0")
                .producer(ProducerSpec::steady(Destination::queue("q"), 300.0, 256))
                .consumer(ConsumerSpec::auto(Destination::queue("q"))),
        );
    let broker = ReferenceBroker::with_config(
        BrokerConfig::correct().with_faults(FaultSpec::none().dropping(0.05).seeded(99)),
    );
    let trace = ThreadedRunner::new().run(Arc::new(broker), None, &spec)?;

    // 2. Persist the raw event log (one JSON object per line).
    let dir = std::env::temp_dir().join("jmst-archaeology");
    std::fs::create_dir_all(&dir)?;
    let trace_path = dir.join("archaeology.trace.jsonl");
    trace.save_jsonl(&trace_path)?;
    println!(
        "persisted {} events to {}",
        trace.len(),
        trace_path.display()
    );

    // 3. Load it back — possibly on another machine, much later — and
    //    run the same analysis the harness would have run.
    let loaded = Trace::load_jsonl(&trace_path)?;
    assert_eq!(loaded, trace);
    let analysis = Analyzer::new().analyze(&loaded);
    println!("\n{analysis}");

    // 4. Export the findings.
    let markdown_path = dir.join("report.md");
    std::fs::write(&markdown_path, report::to_markdown(&analysis))?;
    println!("markdown report: {}", markdown_path.display());

    let violations_path = dir.join("violations.csv");
    std::fs::write(
        &violations_path,
        report::violations_to_csv(&analysis.violations),
    )?;
    println!("violations CSV:  {}", violations_path.display());

    let events_path = dir.join("events.csv");
    std::fs::write(&events_path, csv::trace_to_csv(&loaded))?;
    println!("event-table CSV: {}", events_path.display());
    Ok(())
}
