//! The two-level wheel is a faster far level, not a new schedule: run
//! against the single-level wheel it replaced (`reference_wheel`, kept
//! verbatim), it must fire the same entries in the same order, and
//! agree on `len` and `next_deadline`, after every call.
//!
//! Deadlines fall in the past, inside the horizon, 1–40 horizons out,
//! and hours out; the wheels turn by part ticks, by tens of horizons,
//! and by hours; bulk loads arrive in reverse payload order, on a fresh
//! wheel and on one that is part-filled; and the geometries include
//! 1–3 slots and 1 ns ticks.

mod reference_wheel;

use jmst_reactor::TimingWheel;
use proptest::prelude::*;
use std::time::Duration;

const HOUR_NANOS: u64 = 3_600_000_000_000;

/// `(class, horizons, offset)`: where a deadline falls, relative to the
/// time it is scheduled at (see [`deadline`]).
type Spec = (u8, u64, u64);

#[derive(Debug, Clone)]
enum Op {
    Schedule(Spec),
    /// Entries with the next payloads, handed over in reverse order.
    BulkLoad(Vec<Spec>),
    /// `(class, horizons, offset)`, as for a deadline (see [`step`]).
    Advance(Spec),
}

/// Class 0 is in the past, 1 inside the horizon, 2 `horizons` horizons
/// beyond it (1–40), 3 hours away.
fn deadline(now: u64, horizon: u64, (class, horizons, offset): Spec) -> u64 {
    match class {
        0 => offset % (now + 1),
        1 => now + offset % horizon,
        2 => now + horizons * horizon + offset % horizon,
        _ => now + (horizons % 3 + 1) * HOUR_NANOS + offset,
    }
}

/// How far one advance turns: class 0 up to two horizons (a part tick
/// included), 1 up to 45 horizons, otherwise hours.
fn step(horizon: u64, (class, horizons, offset): Spec) -> u64 {
    match class {
        0 => offset % (2 * horizon),
        1 => offset % (45 * horizon),
        _ => (horizons % 3 + 1) * HOUR_NANOS + offset % horizon,
    }
}

fn spec() -> impl Strategy<Value = Spec> {
    (0u8..4, 1u64..41, 0u64..1 << 40)
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        spec().prop_map(Op::Schedule),
        spec().prop_map(Op::Schedule),
        spec().prop_map(Op::Schedule),
        prop::collection::vec(spec(), 0..120).prop_map(Op::BulkLoad),
        (0u8..2, 1u64..41, 0u64..1 << 40).prop_map(Op::Advance),
        (0u8..2, 1u64..41, 0u64..1 << 40).prop_map(Op::Advance),
        spec().prop_map(Op::Advance),
    ]
}

/// `(tick nanos, slots)`.
fn geometry() -> impl Strategy<Value = (u64, usize)> {
    prop::sample::select(vec![
        (1_000_000, 16),
        (1_000_000, 64),
        (1_000_000, 1),
        (1, 1),
        (1, 2),
        (1, 3),
        (1, 16),
        (1_000, 3),
        (7, 5),
    ])
}

/// The reactor's wheel and the reference, driven in lockstep.
struct Pair {
    wheel: TimingWheel,
    reference: reference_wheel::TimingWheel,
    horizon: u64,
    now: u64,
    latest: u64,
    next_payload: u32,
}

impl Pair {
    fn schedule(&mut self, at: u64) {
        self.wheel.schedule(at, self.next_payload);
        self.reference.schedule(at, self.next_payload);
        self.next_payload += 1;
        self.latest = self.latest.max(at);
    }

    fn bulk_load(&mut self, deadlines: Vec<u64>) {
        let entries: Vec<(u64, u32)> = deadlines.into_iter().zip(self.next_payload..).collect();
        self.next_payload += entries.len() as u32;
        self.latest = entries.iter().map(|e| e.0).fold(self.latest, u64::max);
        let reversed: Vec<(u64, u32)> = entries.into_iter().rev().collect();
        self.wheel.bulk_load(reversed.clone());
        self.reference.bulk_load(reversed);
    }

    fn advance(&mut self, now: u64) -> Result<(), TestCaseError> {
        self.now = now;
        let (mut due, mut expected) = (Vec::new(), Vec::new());
        self.wheel.advance(now, &mut due);
        self.reference.advance(now, &mut expected);
        prop_assert_eq!(due, expected, "due at {} ns", now);
        Ok(())
    }

    /// Turns both wheels to `to`. The reference steps through every tick
    /// up to the target while any slot is filled at the call, so a step
    /// of hours goes deadline by deadline, as an executor on a virtual
    /// clock drives its wheel; a step inside 45 horizons is one call.
    fn advance_to(&mut self, to: u64) -> Result<(), TestCaseError> {
        if to - self.now > 45 * self.horizon {
            while let Some(next) = self.reference.next_deadline().filter(|&at| at < to) {
                self.advance(next.max(self.now))?;
                self.agree()?;
            }
        }
        self.advance(to)
    }

    fn agree(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.wheel.len(), self.reference.len());
        prop_assert_eq!(self.wheel.next_deadline(), self.reference.next_deadline());
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn two_level_wheel_fires_like_the_single_level_one(
        geometry in geometry(),
        start in (0u8..2, 1u64..41, 0u64..1 << 40),
        initial in prop::collection::vec(spec(), 0..300),
        ops in prop::collection::vec(op(), 1..80),
    ) {
        let (tick, slots) = geometry;
        let horizon = tick * slots as u64;
        let mut pair = Pair {
            wheel: TimingWheel::new(Duration::from_nanos(tick), slots),
            reference: reference_wheel::TimingWheel::new(Duration::from_nanos(tick), slots),
            horizon,
            now: 0,
            latest: 0,
            next_payload: 0,
        };
        pair.advance(step(horizon, start))?;
        // A bulk load onto a fresh wheel, as the executor does it.
        let now = pair.now;
        pair.bulk_load(initial.iter().map(|&s| deadline(now, horizon, s)).collect());
        pair.agree()?;
        for op in ops {
            let now = pair.now;
            match op {
                Op::Schedule(s) => pair.schedule(deadline(now, horizon, s)),
                Op::BulkLoad(specs) => {
                    pair.bulk_load(specs.iter().map(|&s| deadline(now, horizon, s)).collect())
                }
                Op::Advance(s) => pair.advance_to(now + step(horizon, s))?,
            }
            pair.agree()?;
        }
        // Past every deadline both wheels drain completely.
        pair.advance_to(pair.latest.max(pair.now) + horizon + tick)?;
        pair.agree()?;
        prop_assert!(pair.wheel.is_empty() && pair.reference.is_empty());
    }
}
