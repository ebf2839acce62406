//! Criterion micro-benchmarks of the open-loop load engine: cost per
//! arrival through the timing wheel alone, in a short burst and in the
//! steady state of 1K and 1M re-arming clients, through the full engine
//! with a no-op transport, the cost of arming and tearing down 1M
//! clients, and per latency sample into the log histogram.
//!
//! The engine numbers are the per-arrival scheduling overhead budget: at
//! 100K virtual clients offering 40K msg/s, every microsecond of
//! per-arrival cost is 4% of a core.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use jmst_load::{ClientSpec, LoadEngine, SendDisposition, TimingWheel, Transport};
use jmst_sim::{ArrivalProcess, SimRng};
use jmst_store::LogHistogram;
use std::time::Duration;

/// A transport that does nothing: the benchmark measures pure engine
/// overhead (wheel turns, state updates, lag recording).
struct Sink;

impl Transport for Sink {
    fn send(
        &mut self,
        _client: u32,
        _seq: u64,
        _intended: Duration,
        _now: Duration,
    ) -> SendDisposition {
        SendDisposition::Sent
    }
}

fn wheel_schedule_advance(c: &mut Criterion) {
    let mut group = c.benchmark_group("loadgen/wheel");
    for arrivals in [1_000u64, 100_000] {
        group.throughput(Throughput::Elements(arrivals));
        group.bench_function(format!("schedule_advance_{arrivals}"), |b| {
            b.iter(|| {
                let mut wheel = TimingWheel::new(Duration::from_millis(1), 4096);
                // Spread deadlines over one wheel horizon, then drain in
                // a handful of advances — the steady-state wheel pattern.
                for index in 0..arrivals {
                    wheel.schedule(index * 40_000, index as u32);
                }
                let mut due = Vec::new();
                let mut now = 0u64;
                while !wheel.is_empty() {
                    now += 1_000_000_000;
                    wheel.advance(now, &mut due);
                }
                due.len()
            });
        });
    }
    group.finish();
}

/// The steady state of the open-loop generator's timers at 20K fires/s:
/// `clients` entries bulk-loaded with exponential first deadlines, then
/// fired and each re-armed one exponential gap after its deadline, while
/// time moves in exponential 50 µs steps. At 1M clients (mean gap 50 s)
/// most entries wait beyond the 4.1 s horizon, as in perfbench's
/// queue-1m; at 1K (mean gap 50 ms) every one is inside it. One
/// iteration is `FIRES` fires, so ns per fire = time / `FIRES`.
fn wheel_rearm(c: &mut Criterion) {
    const FIRES: u64 = 200_000;
    const STEP_NANOS: f64 = 50_000.0;
    let mut group = c.benchmark_group("loadgen/wheel");
    group.sample_size(10);
    group.throughput(Throughput::Elements(FIRES));
    for (name, clients, mean_gap_nanos) in
        [("rearm_1k", 1_000u32, 5e7), ("rearm_1m", 1_000_000, 5e10)]
    {
        group.bench_function(name, |b| {
            // The wheel is dropped outside the timed routine.
            b.iter_batched_ref(
                || {
                    let mut rng = SimRng::seed_from_u64(u64::from(clients));
                    let mut wheel = TimingWheel::new(Duration::from_millis(1), 4096);
                    wheel.bulk_load(
                        (0..clients)
                            .map(|client| (rng.exponential(mean_gap_nanos) as u64, client))
                            .collect(),
                    );
                    (wheel, rng)
                },
                |(wheel, rng)| {
                    let (mut now, mut fired) = (0u64, 0u64);
                    let mut due = Vec::new();
                    while fired < FIRES {
                        now += rng.exponential(STEP_NANOS) as u64;
                        wheel.advance(now, &mut due);
                        fired += due.len() as u64;
                        for (deadline, client) in due.drain(..) {
                            wheel.schedule(
                                deadline + rng.exponential(mean_gap_nanos) as u64,
                                client,
                            );
                        }
                    }
                    wheel.len()
                },
                BatchSize::PerIteration,
            );
        });
    }
    group.finish();
}

/// Arming a 1M-client population into one wheel: deadlines exponential
/// with a mean of 50 s, handed over in payload order as the executor
/// hands them.
fn wheel_bulk_load(c: &mut Criterion) {
    const CLIENTS: u32 = 1_000_000;
    let mut group = c.benchmark_group("loadgen/wheel");
    group.sample_size(10);
    group.throughput(Throughput::Elements(u64::from(CLIENTS)));
    group.bench_function("bulk_load_1m", |b| {
        b.iter_batched_ref(
            || {
                let mut rng = SimRng::seed_from_u64(1);
                let entries: Vec<(u64, u32)> = (0..CLIENTS)
                    .map(|client| (rng.exponential(5e10) as u64, client))
                    .collect();
                (
                    TimingWheel::new(Duration::from_millis(1), 4096),
                    Some(entries),
                )
            },
            |(wheel, entries)| {
                wheel.bulk_load(entries.take().expect("one load per wheel"));
                wheel.len()
            },
            BatchSize::PerIteration,
        );
    });
    group.finish();
}

fn engine_arrivals(c: &mut Criterion) {
    let mut group = c.benchmark_group("loadgen/engine");
    for (clients, sends_each) in [(1_000usize, 10u64), (10_000, 4)] {
        let arrivals = clients as u64 * sends_each;
        group.throughput(Throughput::Elements(arrivals));
        group.bench_function(format!("{clients}_clients_x{sends_each}"), |b| {
            b.iter(|| {
                // Arrival gaps of ~10 ns keep every client permanently
                // due, so the run measures scheduling cost, not pacing.
                let specs: Vec<ClientSpec> = (0..clients)
                    .map(|index| {
                        ClientSpec::new(
                            ArrivalProcess::steady(1e8)
                                .generator(SimRng::seed_from_u64(index as u64)),
                        )
                        .limited(sends_each)
                    })
                    .collect();
                let report = LoadEngine::new(1).run(specs, vec![Box::new(Sink)], None, None);
                assert_eq!(report.sends, arrivals);
                report.sends
            });
        });
    }
    group.finish();
}

/// Arm-and-teardown cost of a 1M-client population: every first arrival
/// lies beyond the 1 ms run, so no client sends; the time is spawning,
/// arming the first timers, and the shutdown sweep.
fn engine_arm(c: &mut Criterion) {
    const CLIENTS: usize = 1_000_000;
    let mut group = c.benchmark_group("loadgen/engine");
    group.sample_size(10);
    group.throughput(Throughput::Elements(CLIENTS as u64));
    group.bench_function("arm_1m", |b| {
        b.iter_batched(
            || {
                let base = SimRng::seed_from_u64(1);
                (0..CLIENTS)
                    .map(|index| {
                        ClientSpec::new(
                            ArrivalProcess::poisson(20_000.0 / CLIENTS as f64)
                                .generator(base.derive(index as u64)),
                        )
                        .starting_at(Duration::from_secs(1))
                    })
                    .collect::<Vec<_>>()
            },
            |specs| {
                let report = LoadEngine::new(1).run(
                    specs,
                    vec![Box::new(Sink)],
                    Some(Duration::from_millis(1)),
                    None,
                );
                assert_eq!(report.sends, 0);
                report.sends
            },
            BatchSize::PerIteration,
        );
    });
    group.finish();
}

fn histogram_record(c: &mut Criterion) {
    let mut group = c.benchmark_group("loadgen/histogram");
    group.throughput(Throughput::Elements(1));
    group.bench_function("record_nanos", |b| {
        let mut histogram = LogHistogram::new();
        let mut nanos = 1u64;
        b.iter(|| {
            nanos = nanos
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            histogram.record_nanos(nanos >> 34);
            histogram.count()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    wheel_schedule_advance,
    wheel_rearm,
    wheel_bulk_load,
    engine_arrivals,
    engine_arm,
    histogram_record
);
criterion_main!(benches);
