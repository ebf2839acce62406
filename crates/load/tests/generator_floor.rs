//! The generator's own floor: with no broker behind it, a million
//! virtual clients must keep their schedule. Any send lag measured here
//! is the harness measuring itself, and would be blamed on the provider
//! in a real run.
//!
//! Ignored by default: it is a timing check on a 1M-client population,
//! so it runs on its own, in release mode:
//!
//! ```sh
//! cargo test --release -p jmst-load --test generator_floor -- --ignored --test-threads=1
//! ```

use jmst_load::{ClientSpec, LoadEngine, SendDisposition, Transport};
use jmst_sim::{ArrivalProcess, SimRng};
use std::time::Duration;

const CLIENTS: usize = 1_000_000;
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

#[test]
#[ignore = "1M-client timing check; run alone with --ignored --test-threads=1"]
fn a_million_null_transport_clients_keep_their_schedule() {
    let base = SimRng::seed_from_u64(7);
    let clients: Vec<ClientSpec> = (0..CLIENTS)
        .map(|index| {
            ClientSpec::new(
                ArrivalProcess::poisson(RATE / CLIENTS as f64).generator(base.derive(index as u64)),
            )
        })
        .collect();
    let report = LoadEngine::new(1).run(clients, vec![Box::new(NullTransport)], Some(WINDOW), None);

    let expected = RATE * WINDOW.as_secs_f64();
    let sends = report.sends as f64;
    assert!(
        (sends - expected).abs() <= 0.05 * expected,
        "{sends} sends in {WINDOW:?}, expected {expected} ± 5%"
    );
    let p99 = report.send_lag.quantile(0.99).expect("lag recorded");
    println!("{sends} sends in {WINDOW:?}, p99 send lag {p99:?}");
    assert!(
        p99 < Duration::from_millis(1),
        "p99 send lag {p99:?} through a null transport: the generator is not keeping its schedule"
    );
}
