//! A two-level timing wheel: O(1) schedule and fire for millions of
//! pending timers.
//!
//! Virtual clients each have exactly one pending event (their next
//! intended send), so the engine needs a timer structure whose cost per
//! event is a couple of pointer moves, not a `BinaryHeap`'s `log n`
//! sift. The fine level hashes deadlines into `slots` tick-wide slots,
//! one horizon ahead. Past it, a deadline is appended to the bucket of
//! its *epoch* (`slots` ticks), which keeps its earliest deadline. When
//! the wheel enters an epoch, the next epoch's bucket is spread into
//! per-tick staging lists, and each list is swapped into its emptied
//! slot as the horizon reaches its tick. So an entry moves at most twice
//! before it fires, and a slot gets its far entries, in insertion order,
//! before any entry scheduled straight into it: firing order within one
//! tick is insertion order, across ticks deadline order at tick
//! resolution. While every slot is empty the wheel turns straight to the
//! next far tick, so a virtual clock that jumps hours costs one step.
//!
//! Deadlines are `u64` nanosecond offsets from an epoch the caller
//! chooses (the engine uses its start instant).

use std::collections::BTreeMap;
use std::time::Duration;

/// One scheduled event: the exact deadline and the caller's payload
/// (client index).
type Entry = (u64, u32);

/// The entries of one epoch beyond the staged one.
#[derive(Debug)]
struct Bucket {
    /// In insertion order.
    entries: Vec<Entry>,
    /// The earliest deadline in `entries`.
    earliest: u64,
}

/// A fixed-horizon timing wheel over per-epoch far buckets.
#[derive(Debug)]
pub struct TimingWheel {
    tick_nanos: u64,
    slots: Vec<Vec<Entry>>,
    /// The tick currently being processed; every slot entry's tick is in
    /// `[current_tick, current_tick + slots.len())`.
    current_tick: u64,
    /// The first tick of the staged epoch, the one after `current_tick`'s.
    staged_start: u64,
    /// `staged[i]` holds the staged epoch's tick `t ≡ i` (mod
    /// `slots.len()`) while `t` is beyond the horizon. Allocated on first
    /// use: a wheel whose timers all fall inside its horizon has none.
    staged: Vec<Vec<Entry>>,
    /// The epochs after the staged one, by epoch number.
    far: BTreeMap<u64, Bucket>,
    len: usize,
    /// Entries in `slots`.
    slotted: usize,
    /// Entries in `staged` (the rest of the pending ones are in `far`).
    staged_len: usize,
}

impl TimingWheel {
    /// Creates a wheel of `slots` ticks of `tick` width each; the horizon
    /// is `slots × tick`, beyond which events wait in per-epoch buckets.
    ///
    /// # Panics
    ///
    /// Panics if `tick` is zero or `slots` is zero.
    pub fn new(tick: Duration, slots: usize) -> Self {
        assert!(!tick.is_zero(), "tick width must be positive");
        assert!(slots > 0, "need at least one slot");
        Self {
            tick_nanos: tick.as_nanos() as u64,
            slots: vec![Vec::new(); slots],
            current_tick: 0,
            staged_start: slots as u64,
            staged: Vec::new(),
            far: BTreeMap::new(),
            len: 0,
            slotted: 0,
            staged_len: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `client` to fire at `deadline_nanos`. Deadlines already
    /// in the past land in the current tick and fire on the next
    /// [`TimingWheel::advance`].
    pub fn schedule(&mut self, deadline_nanos: u64, client: u32) {
        let width = self.slots.len() as u64;
        let tick = (deadline_nanos / self.tick_nanos).max(self.current_tick);
        if tick < self.current_tick + width {
            self.slots[(tick % width) as usize].push((deadline_nanos, client));
            self.slotted += 1;
        } else if tick < self.staged_start + width {
            self.stage(tick, (deadline_nanos, client));
        } else {
            let bucket = self.far.entry(tick / width).or_insert(Bucket {
                entries: Vec::new(),
                earliest: deadline_nanos,
            });
            bucket.earliest = bucket.earliest.min(deadline_nanos);
            bucket.entries.push((deadline_nanos, client));
        }
        self.len += 1;
    }

    /// Schedules every entry of `entries`: one
    /// [`TimingWheel::schedule`] call each, in ascending payload order,
    /// and so in spawn order when payloads are task indices (one entry
    /// per payload). Input already in payload order is not sorted.
    pub fn bulk_load(&mut self, mut entries: Vec<Entry>) {
        if !entries.is_sorted_by_key(|&(_, payload)| payload) {
            entries.sort_unstable_by_key(|&(_, payload)| payload);
        }
        for (deadline, payload) in entries {
            self.schedule(deadline, payload);
        }
    }

    /// Turns the wheel to `now_nanos`, appending every due event to
    /// `due`: all events in ticks before the one containing `now`, plus
    /// the events in the current tick whose exact deadline has passed.
    pub fn advance(&mut self, now_nanos: u64, due: &mut Vec<Entry>) {
        let before = due.len();
        let width = self.slots.len() as u64;
        let target = now_nanos / self.tick_nanos;
        while self.current_tick < target {
            if self.slotted == 0 {
                // Nothing until the first far tick: turn straight to it
                // (or to the target).
                let next = self.first_far_tick().unwrap_or(target);
                self.jump(next.clamp(self.current_tick, target));
                if self.current_tick == target {
                    break;
                }
            }
            let index = (self.current_tick % width) as usize;
            self.slotted -= self.slots[index].len();
            due.append(&mut self.slots[index]);
            self.current_tick += 1;
            // The tick one horizon on enters it, into the slot just
            // emptied; at an epoch boundary the next epoch is staged.
            self.promote(index);
            if self.current_tick == self.staged_start {
                self.staged_start += width;
                self.unbucket();
            }
        }
        let index = (self.current_tick % width) as usize;
        let slot = &mut self.slots[index];
        let mut i = 0;
        while i < slot.len() {
            if slot[i].0 <= now_nanos {
                due.push(slot.swap_remove(i));
                self.slotted -= 1;
            } else {
                i += 1;
            }
        }
        self.len -= due.len() - before;
    }

    /// Appends `entry` to the staging list of `tick`, in the staged epoch.
    fn stage(&mut self, tick: u64, entry: Entry) {
        let width = self.slots.len();
        if self.staged.is_empty() {
            self.staged = vec![Vec::new(); width];
        }
        self.staged[(tick % width as u64) as usize].push(entry);
        self.staged_len += 1;
    }

    /// Moves staging list `index` into its fine slot, which is empty.
    fn promote(&mut self, index: usize) {
        if self.staged_len == 0 {
            return;
        }
        let staged = &mut self.staged[index];
        self.slotted += staged.len();
        self.staged_len -= staged.len();
        std::mem::swap(&mut self.slots[index], staged);
    }

    /// Turns a wheel whose slots are empty to tick `to`, which is no
    /// later than any pending entry.
    fn jump(&mut self, to: u64) {
        let width = self.slots.len() as u64;
        let from = self.current_tick;
        self.current_tick = to;
        // Staged ticks the horizon now covers, up to the end of the
        // staged epoch.
        for tick in from + width..(to + width).min(self.staged_start + width) {
            if self.staged_len == 0 {
                break;
            }
            self.promote((tick % width) as usize);
        }
        if to >= self.staged_start {
            self.staged_start = (to / width + 1) * width;
            self.unbucket();
        }
    }

    /// Moves the far buckets up to the staged epoch onto the wheel, each
    /// in insertion order: into the slots inside the horizon, and into
    /// the staging lists beyond it.
    fn unbucket(&mut self) {
        let width = self.slots.len() as u64;
        let horizon = self.current_tick + width;
        let staged_epoch = self.staged_start / width;
        while let Some(bucket) = self.far.first_entry() {
            if *bucket.key() > staged_epoch {
                break;
            }
            for (deadline, payload) in bucket.remove().entries {
                let tick = deadline / self.tick_nanos;
                if tick < horizon {
                    self.slots[(tick % width) as usize].push((deadline, payload));
                    self.slotted += 1;
                } else {
                    self.stage(tick, (deadline, payload));
                }
            }
        }
    }

    /// The earliest tick holding a staged entry.
    fn first_staged_tick(&self) -> Option<u64> {
        if self.staged_len == 0 {
            return None;
        }
        let width = self.slots.len() as u64;
        (self.current_tick + width..self.staged_start + width)
            .find(|&tick| !self.staged[(tick % width) as usize].is_empty())
    }

    /// The earliest tick holding an event beyond the horizon.
    fn first_far_tick(&self) -> Option<u64> {
        self.first_staged_tick().or_else(|| {
            let bucket = self.far.values().next()?;
            Some(bucket.earliest / self.tick_nanos)
        })
    }

    /// The earliest pending deadline, in nanoseconds. `None` when empty.
    pub fn next_deadline(&self) -> Option<u64> {
        let width = self.slots.len() as u64;
        let earliest = |entries: &Vec<Entry>| entries.iter().map(|entry| entry.0).min();
        for tick in self.current_tick..self.current_tick + width {
            if let Some(min) = earliest(&self.slots[(tick % width) as usize]) {
                return Some(min);
            }
        }
        match self.first_staged_tick() {
            Some(tick) => earliest(&self.staged[(tick % width) as usize]),
            None => self.far.values().next().map(|bucket| bucket.earliest),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wheel() -> TimingWheel {
        TimingWheel::new(Duration::from_millis(1), 16)
    }

    fn fire(wheel: &mut TimingWheel, now: u64) -> Vec<u32> {
        let mut due = Vec::new();
        wheel.advance(now, &mut due);
        due.sort_unstable();
        due.into_iter().map(|(_, client)| client).collect()
    }

    #[test]
    fn fires_in_deadline_order_at_tick_resolution() {
        let mut w = wheel();
        w.schedule(5_000_000, 1);
        w.schedule(2_000_000, 2);
        w.schedule(9_000_000, 3);
        assert_eq!(w.len(), 3);
        assert_eq!(fire(&mut w, 3_000_000), vec![2]);
        assert_eq!(fire(&mut w, 10_000_000), vec![1, 3]);
        assert!(w.is_empty());
    }

    #[test]
    fn partial_tick_fires_only_elapsed_deadlines() {
        let mut w = wheel();
        w.schedule(1_100_000, 1);
        w.schedule(1_900_000, 2);
        // Both are in tick 1; at 1.5 ms only the first is due.
        assert_eq!(fire(&mut w, 1_500_000), vec![1]);
        assert_eq!(w.len(), 1);
        assert_eq!(fire(&mut w, 1_900_000), vec![2]);
    }

    #[test]
    fn past_deadlines_fire_immediately() {
        let mut w = wheel();
        assert_eq!(fire(&mut w, 50_000_000), Vec::<u32>::new());
        w.schedule(1_000_000, 7); // far in the past
        assert_eq!(w.next_deadline(), Some(1_000_000));
        assert_eq!(fire(&mut w, 50_000_000), vec![7]);
    }

    #[test]
    fn overflow_events_survive_the_horizon() {
        let mut w = wheel(); // horizon = 16 ms
        w.schedule(100_000_000, 1); // 100 ms: overflow
        w.schedule(3_000_000, 2);
        assert_eq!(fire(&mut w, 4_000_000), vec![2]);
        assert_eq!(fire(&mut w, 99_000_000), Vec::<u32>::new());
        assert_eq!(fire(&mut w, 100_000_000), vec![1]);
        assert!(w.is_empty());
    }

    #[test]
    fn next_deadline_scans_slots_then_overflow() {
        let mut w = wheel();
        assert_eq!(w.next_deadline(), None);
        w.schedule(200_000_000, 1);
        assert_eq!(w.next_deadline(), Some(200_000_000));
        w.schedule(4_000_000, 2);
        assert_eq!(w.next_deadline(), Some(4_000_000));
        let _ = fire(&mut w, 5_000_000);
        assert_eq!(w.next_deadline(), Some(200_000_000));
    }

    #[test]
    fn dense_schedule_round_trips() {
        let mut w = TimingWheel::new(Duration::from_millis(1), 32);
        for client in 0..10_000u32 {
            // Deadlines spread over 500 ms — mostly overflow.
            w.schedule(u64::from(client) * 50_000, client);
        }
        assert_eq!(w.len(), 10_000);
        let mut seen = Vec::new();
        let mut now = 0;
        while !w.is_empty() {
            now += 3_000_000;
            let mut due = Vec::new();
            w.advance(now, &mut due);
            for (deadline, client) in due {
                assert!(deadline <= now);
                seen.push(client);
            }
        }
        seen.sort_unstable();
        assert_eq!(seen.len(), 10_000);
        assert!(seen.iter().enumerate().all(|(i, &c)| i as u32 == c));
    }

    #[test]
    fn long_empty_stretches_are_skipped_in_one_step() {
        let mut w = wheel(); // horizon = 16 ms
        let hours = 3 * 3_600 * 1_000_000_000u64;
        w.schedule(hours, 1);
        w.schedule(2 * hours, 2);
        assert_eq!(fire(&mut w, hours - 1), Vec::<u32>::new());
        assert_eq!(fire(&mut w, hours), vec![1]);
        assert_eq!(w.next_deadline(), Some(2 * hours));
        assert_eq!(fire(&mut w, 3 * hours), vec![2]);
        assert!(w.is_empty());
        // The wheel stands at the target: a later deadline still lands.
        w.schedule(3 * hours + 5_000_000, 3);
        assert_eq!(fire(&mut w, 3 * hours + 5_000_000), vec![3]);
    }

    #[test]
    #[should_panic(expected = "tick width must be positive")]
    fn zero_tick_rejected() {
        TimingWheel::new(Duration::ZERO, 8);
    }
}
