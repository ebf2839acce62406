//! The timing wheel as it was before its far level became per-epoch
//! buckets: fixed slots, one sorted bulk-loaded run, and a
//! `BTreeMap<tick, Vec<Entry>>` overflow. Kept verbatim, as the
//! reference `wheel_differential.rs` runs the reactor's wheel against:
//! the two must fire the same entries in the same order.

use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

/// One scheduled event: the exact deadline and the caller's payload
/// (client index).
type Entry = (u64, u32);

/// A fixed-horizon timing wheel with sorted overflow.
#[derive(Debug)]
pub struct TimingWheel {
    tick_nanos: u64,
    slots: Vec<Vec<Entry>>,
    /// The tick currently being processed; every slot entry's tick is in
    /// `[current_tick, current_tick + slots.len())`.
    current_tick: u64,
    /// Events beyond the horizon, keyed by tick.
    overflow: BTreeMap<u64, Vec<Entry>>,
    /// Bulk-loaded events beyond the horizon, sorted by `(tick,
    /// payload)`. Loaded while `overflow` was empty, so within a tick
    /// they precede every `overflow` entry.
    loaded: VecDeque<Entry>,
    len: usize,
    /// Entries in `slots` (the rest wait in `overflow` or `loaded`).
    slotted: usize,
}

impl TimingWheel {
    /// Creates a wheel of `slots` ticks of `tick` width each; the horizon
    /// is `slots × tick`, beyond which events sit in the overflow map.
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
            overflow: BTreeMap::new(),
            loaded: VecDeque::new(),
            len: 0,
            slotted: 0,
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
        let tick = (deadline_nanos / self.tick_nanos).max(self.current_tick);
        if tick >= self.current_tick + self.slots.len() as u64 {
            self.overflow
                .entry(tick)
                .or_default()
                .push((deadline_nanos, client));
        } else {
            let index = (tick % self.slots.len() as u64) as usize;
            self.slots[index].push((deadline_nanos, client));
            self.slotted += 1;
        }
        self.len += 1;
    }

    /// Schedules every entry of `entries` at once: equivalent to calling
    /// [`TimingWheel::schedule`] for each of them in ascending payload
    /// order, and so to spawn-order arming when payloads are task
    /// indices (one entry per payload).
    ///
    /// One unstable sort by `(tick, payload)` puts the entries in the
    /// order one-at-a-time insertion would leave them in each tick. The
    /// entries inside the horizon then go to their slots; the rest stay
    /// in that sorted run until the wheel turns to them.
    pub fn bulk_load(&mut self, mut entries: Vec<Entry>) {
        if !self.overflow.is_empty() || !self.loaded.is_empty() {
            // Earlier events already wait beyond the horizon; these go
            // after them, as one-at-a-time scheduling would put them.
            entries.sort_unstable_by_key(|&(_, payload)| payload);
            for (deadline, payload) in entries {
                self.schedule(deadline, payload);
            }
            return;
        }
        let tick_nanos = self.tick_nanos;
        let first_tick = self.current_tick;
        entries.sort_unstable_by_key(|&(deadline, payload)| {
            ((deadline / tick_nanos).max(first_tick), payload)
        });
        self.len += entries.len();
        self.loaded = entries.into();
        self.promote_overflow();
    }

    /// Turns the wheel to `now_nanos`, appending every due event to
    /// `due`: all events in ticks before the one containing `now`, plus
    /// the events in the current tick whose exact deadline has passed.
    pub fn advance(&mut self, now_nanos: u64, due: &mut Vec<Entry>) {
        let before = due.len();
        let target = now_nanos / self.tick_nanos;
        while self.current_tick < target {
            if self.slotted == 0 {
                // Nothing until the first overflow tick: turn straight
                // to it (or to the target), where promotion refills the
                // slots.
                let next = self.first_overflow_tick().unwrap_or(target);
                self.current_tick = next.clamp(self.current_tick, target);
                self.promote_overflow();
                if self.current_tick == target {
                    break;
                }
            }
            let index = (self.current_tick % self.slots.len() as u64) as usize;
            due.append(&mut self.slots[index]);
            self.current_tick += 1;
            self.promote_overflow();
        }
        let index = (self.current_tick % self.slots.len() as u64) as usize;
        let slot = &mut self.slots[index];
        let mut i = 0;
        while i < slot.len() {
            if slot[i].0 <= now_nanos {
                due.push(slot.swap_remove(i));
            } else {
                i += 1;
            }
        }
        self.len -= due.len() - before;
        self.slotted -= due.len() - before;
    }

    /// The earliest tick holding an event beyond the horizon.
    fn first_overflow_tick(&self) -> Option<u64> {
        let loaded = self
            .loaded
            .front()
            .map(|&(deadline, _)| (deadline / self.tick_nanos).max(self.current_tick));
        let overflow = self.overflow.keys().next().copied();
        loaded.into_iter().chain(overflow).min()
    }

    /// Moves overflow events whose tick is now within the horizon into
    /// their slots: bulk-loaded ones first, as they were scheduled first.
    fn promote_overflow(&mut self) {
        let horizon = self.current_tick + self.slots.len() as u64;
        while let Some(&(deadline, _)) = self.loaded.front() {
            let tick = (deadline / self.tick_nanos).max(self.current_tick);
            if tick >= horizon {
                break;
            }
            let index = (tick % self.slots.len() as u64) as usize;
            self.slots[index].extend(self.loaded.pop_front());
            self.slotted += 1;
        }
        while let Some(entry) = self.overflow.first_entry() {
            if *entry.key() >= horizon {
                break;
            }
            let (tick, entries) = entry.remove_entry();
            let index = (tick % self.slots.len() as u64) as usize;
            self.slotted += entries.len();
            self.slots[index].extend(entries);
        }
    }

    /// The earliest pending deadline, in nanoseconds. `None` when empty.
    pub fn next_deadline(&self) -> Option<u64> {
        for offset in 0..self.slots.len() as u64 {
            let tick = self.current_tick + offset;
            let slot = &self.slots[(tick % self.slots.len() as u64) as usize];
            if let Some(min) = slot.iter().map(|entry| entry.0).min() {
                return Some(min);
            }
        }
        // The earliest tick group of each overflow store holds its
        // earliest deadline.
        let loaded = self.loaded.front().and_then(|&(first, _)| {
            let tick = first / self.tick_nanos;
            self.loaded
                .iter()
                .take_while(|entry| entry.0 / self.tick_nanos == tick)
                .map(|entry| entry.0)
                .min()
        });
        let overflow = self
            .overflow
            .values()
            .next()
            .and_then(|entries| entries.iter().map(|entry| entry.0).min());
        loaded.into_iter().chain(overflow).min()
    }
}
