//! The generator's own floor: with no broker behind it, virtual clients
//! must keep their schedule. Any send lag measured here is the harness
//! measuring itself, and would be blamed on the provider in a real run.
//!
//! - A million clients: the p99 lag stays under 1 ms, so the wheel keeps
//!   up with a population that mostly waits in its overflow.
//! - A thousand clients: the p50 lag stays under 25 µs, so a timer fires
//!   at its deadline rather than a kernel timer slack (50 µs by default
//!   on Linux) after it.
//!
//! Ignored by default: they are timing checks, so they run on their
//! own, in release mode:
//!
//! ```sh
//! cargo test --release -p jmst-load --test generator_floor -- --ignored --test-threads=1
//! ```

use jmst_load::{ClientSpec, EngineReport, LoadEngine, SendDisposition, Transport};
use jmst_sim::{ArrivalProcess, SimRng};
use std::time::Duration;

/// Aggregate offered rate, msg/s.
const RATE: f64 = 20_000.0;
const WINDOW: Duration = Duration::from_secs(3);

/// Sends nothing anywhere.
struct NullTransport;

impl Transport for NullTransport {
    fn send(&mut self, _c: u32, _s: u64, _i: Duration, _n: Duration) -> SendDisposition {
        SendDisposition::Sent
    }
}

/// Runs `clients` Poisson clients offering [`RATE`] between them
/// through a null transport for [`WINDOW`], and checks they sent what
/// they were meant to.
fn null_run(clients: usize) -> EngineReport {
    let base = SimRng::seed_from_u64(7);
    let specs: Vec<ClientSpec> = (0..clients)
        .map(|index| {
            ClientSpec::new(
                ArrivalProcess::poisson(RATE / clients as f64).generator(base.derive(index as u64)),
            )
        })
        .collect();
    let report = LoadEngine::new(1).run(specs, vec![Box::new(NullTransport)], Some(WINDOW), None);

    let expected = RATE * WINDOW.as_secs_f64();
    let sends = report.sends as f64;
    assert!(
        (sends - expected).abs() <= 0.05 * expected,
        "{sends} sends in {WINDOW:?}, expected {expected} ± 5%"
    );
    report
}

#[test]
#[ignore = "1M-client timing check; run alone with --ignored --test-threads=1"]
fn a_million_null_transport_clients_keep_their_schedule() {
    let report = null_run(1_000_000);
    let p99 = report.send_lag.quantile(0.99).expect("lag recorded");
    println!("{} sends in {WINDOW:?}, p99 send lag {p99:?}", report.sends);
    assert!(
        p99 < Duration::from_millis(1),
        "p99 send lag {p99:?} through a null transport: the generator is not keeping its schedule"
    );
}

#[test]
#[ignore = "timing check; run alone with --ignored --test-threads=1"]
fn a_thousand_null_transport_clients_send_on_time() {
    let report = null_run(1_000);
    let p50 = report.send_lag.quantile(0.5).expect("lag recorded");
    println!("{} sends in {WINDOW:?}, p50 send lag {p50:?}", report.sends);
    assert!(
        p50 < Duration::from_micros(25),
        "p50 send lag {p50:?} through a null transport: timers fire late"
    );
}
