//! Bulk loading is an optimisation, not a new schedule: a wheel filled
//! by [`TimingWheel::bulk_load`] must fire exactly the events, in exactly
//! the order, that one [`TimingWheel::schedule`] call per entry (in
//! payload order) would have fired — for deadlines already past, inside
//! the horizon, and in the overflow map, on a fresh or a part-filled
//! wheel, with more events scheduled one at a time as the wheel turns.

use jmst_reactor::TimingWheel;
use proptest::prelude::*;
use std::time::Duration;

const TICK_NANOS: u64 = 1_000_000;
const SLOTS: usize = 16;
const HORIZON_NANOS: u64 = TICK_NANOS * SLOTS as u64;

/// Places a generated `(class, offset)` pair relative to `now`: class 0
/// is in the past, class 1 inside the horizon, class 2 in overflow.
fn deadline(now: u64, (class, offset): (u8, u64)) -> u64 {
    match class {
        0 => offset % (now + 1),
        1 => now + offset % HORIZON_NANOS,
        _ => now + HORIZON_NANOS + offset,
    }
}

fn wheel() -> TimingWheel {
    TimingWheel::new(Duration::from_nanos(TICK_NANOS), SLOTS)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bulk_load_fires_like_one_at_a_time_scheduling(
        start in 0u64..40_000_000,
        earlier in prop::collection::vec((0u8..3, 0u64..200_000_000), 0..6),
        loaded in prop::collection::vec((0u8..3, 0u64..200_000_000), 0..300),
        reloaded in prop::collection::vec((0u8..3, 0u64..200_000_000), 0..20),
        steps in prop::collection::vec(
            (0u64..12_000_000, (0u8..3, 0u64..200_000_000)),
            1..60,
        ),
    ) {
        let mut one_by_one = wheel();
        let mut bulk = wheel();
        let mut due_a = Vec::new();
        let mut due_b = Vec::new();
        one_by_one.advance(start, &mut due_a);
        bulk.advance(start, &mut due_b);

        // Entries already on the wheel take the lowest payloads; the
        // bulk-loaded ones follow, handed over in reverse payload order
        // so the wheel, not the caller, must restore it.
        for (payload, &spec) in earlier.iter().enumerate() {
            one_by_one.schedule(deadline(start, spec), payload as u32);
            bulk.schedule(deadline(start, spec), payload as u32);
        }
        // A second bulk load lands on a wheel that already has a
        // bulk-loaded run.
        let mut first_payload = earlier.len() as u32;
        for batch in [&loaded, &reloaded] {
            let entries: Vec<(u64, u32)> = (first_payload..)
                .zip(batch.iter())
                .map(|(payload, &spec)| (deadline(start, spec), payload))
                .collect();
            for &(at, payload) in &entries {
                one_by_one.schedule(at, payload);
            }
            bulk.bulk_load(entries.into_iter().rev().collect());
            first_payload += batch.len() as u32;
        }
        prop_assert_eq!(one_by_one.len(), bulk.len());
        prop_assert_eq!(one_by_one.next_deadline(), bulk.next_deadline());

        // Each step schedules one more event, with the next payload,
        // before turning both wheels.
        let mut now = start;
        for (payload, (step, spec)) in (first_payload..).zip(steps) {
            one_by_one.schedule(deadline(now, spec), payload);
            bulk.schedule(deadline(now, spec), payload);
            now += step;
            due_a.clear();
            due_b.clear();
            one_by_one.advance(now, &mut due_a);
            bulk.advance(now, &mut due_b);
            prop_assert_eq!(&due_a, &due_b, "at {} ns", now);
            prop_assert_eq!(one_by_one.len(), bulk.len());
            prop_assert_eq!(one_by_one.next_deadline(), bulk.next_deadline());
        }
        // Past every deadline: both wheels drain completely.
        let end = now + HORIZON_NANOS + 200_000_000;
        due_a.clear();
        due_b.clear();
        one_by_one.advance(end, &mut due_a);
        bulk.advance(end, &mut due_b);
        prop_assert_eq!(due_a, due_b);
        prop_assert!(bulk.is_empty());
    }
}
