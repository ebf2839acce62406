//! Quickstart: run one automated test against the reference broker and
//! print the analysis — correctness verdict plus the paper's §3.2
//! performance measures.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use jmst::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Describe the test: one queue, one steady producer, one consumer,
    // with the paper's warm-up / run / warm-down structure.
    let spec = TestSpec::new("quickstart")
        .with_seed(42)
        .with_periods(
            Duration::from_millis(100), // warm-up
            Duration::from_secs(1),     // measured run
            Duration::from_secs(3),     // warm-down cap
        )
        .node(
            NodeSpec::new("node-0")
                .producer(ProducerSpec::steady(
                    Destination::queue("orders"),
                    500.0, // messages per second
                    512,   // body bytes
                ))
                .consumer(ConsumerSpec::auto(Destination::queue("orders"))),
        );

    // The provider under test: the in-process reference broker.
    let broker = ReferenceBroker::new();

    // Execute: drivers run as coordinated reactor tasks, logging every event.
    let trace = ThreadedRunner::new().run(Arc::new(broker), None, &spec)?;
    println!("collected {} trace events", trace.len());

    // Analyse: all five safety properties plus performance.
    let report = Analyzer::new().analyze(&trace);
    println!("{report}");

    if report.passed() {
        println!("verdict: provider conforms on this workload");
    } else {
        println!("verdict: {} violation(s) found", report.violations.len());
    }
    Ok(())
}
