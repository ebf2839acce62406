//! Benchmark entry point.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload queue-1k --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints a table of every metric (name, value, unit, sample count) and
//! the output checks, then, as its last line, one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Exits non-zero when a check fails.

use jmst_perfbench::report::{Outcome, END_TO_END, PER_LAYER};
use jmst_perfbench::{certify, queue, replay};
use std::path::Path;
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = ["queue-1k", "queue-1m", "certify-fanout", "replay-journal"];

/// Where traced runs write their spans and replay-journal its journal,
/// relative to the directory the benchmark runs in.
const WORK_DIR: &str = ".perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let parsed: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.is_finite() && parsed > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(parsed);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let work_dir = Path::new(WORK_DIR);
    let trace_dir = args.trace.then_some(work_dir);
    let (seed, seconds) = (args.seed, args.seconds);
    let outcome: Outcome = match args.workload.as_str() {
        "queue-1k" => queue::run(1_000, 8, seed, seconds, trace_dir, "queue-1k"),
        "queue-1m" => queue::run(1_000_000, 4, seed, seconds, trace_dir, "queue-1m"),
        "certify-fanout" => certify::run(seed, seconds, trace_dir),
        "replay-journal" => replay::run(seed, seconds, work_dir, args.trace),
        _ => unreachable!("workload validated in parse_args"),
    };
    outcome.print_table(&args.workload, seed);
    let catalog: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", outcome.result_json(catalog));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: output checks failed");
        ExitCode::FAILURE
    }
}
