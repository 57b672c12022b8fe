//! Calendar-queue deadline wheel — the reactor's replacement for every
//! `thread::sleep`.
//!
//! Same idea as `sim::engine`'s calendar queue, transplanted from
//! virtual rounds to wall-clock instants: a ring of slots, each covering
//! `granularity` of time, with a `BTreeMap` overflow for deadlines
//! beyond one ring revolution. Scheduling and popping are O(1) amortized
//! for near deadlines (first dials, early backoffs); far-out reconnect
//! backoffs land in the overflow and migrate into the ring as the cursor
//! sweeps forward.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Ring size in slots. At the default 5ms granularity one revolution
/// covers ~1.3s, comfortably past round pacing and early backoffs.
const SLOTS: usize = 256;

/// A deadline wheel holding items of type `T`.
pub(crate) struct Wheel<T> {
    origin: Instant,
    granularity_ns: u64,
    slots: Vec<Vec<Entry<T>>>,
    /// Absolute slot number the sweep cursor sits in; slots before it
    /// are empty.
    cursor: u64,
    /// Deadlines at least one revolution ahead, keyed for FIFO pops.
    overflow: BTreeMap<(u64, u64), Entry<T>>,
    seq: u64,
    len: usize,
}

struct Entry<T> {
    at: Instant,
    seq: u64,
    item: T,
}

impl<T> Wheel<T> {
    /// An empty wheel. `origin` anchors slot numbering; deadlines before
    /// it are treated as due immediately.
    pub(crate) fn new(origin: Instant, granularity: Duration) -> Wheel<T> {
        let granularity_ns = u64::try_from(granularity.as_nanos().max(1)).unwrap_or(u64::MAX);
        Wheel {
            origin,
            granularity_ns,
            slots: std::iter::repeat_with(Vec::new).take(SLOTS).collect(),
            cursor: 0,
            overflow: BTreeMap::new(),
            seq: 0,
            len: 0,
        }
    }

    fn slot_of(&self, at: Instant) -> u64 {
        let ns = at.saturating_duration_since(self.origin).as_nanos();
        u64::try_from(ns).unwrap_or(u64::MAX) / self.granularity_ns
    }

    /// Number of scheduled items.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Schedules `item` to pop once `at` is reached. Past deadlines land
    /// in the cursor's slot and pop on the next sweep.
    pub(crate) fn schedule(&mut self, at: Instant, item: T) {
        let slot = self.slot_of(at).max(self.cursor);
        let seq = self.seq;
        self.seq += 1;
        let entry = Entry { at, seq, item };
        if slot >= self.cursor + SLOTS as u64 {
            self.overflow.insert((slot, seq), entry);
        } else {
            self.slots[usize::try_from(slot).expect("slot fits usize") % SLOTS].push(entry);
        }
        self.len += 1;
    }

    /// The earliest scheduled deadline, if any. O(ring + 1).
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        if self.len == 0 {
            return None;
        }
        let mut best: Option<Instant> = None;
        let in_ring = self.len - self.overflow.len();
        if in_ring > 0 {
            let mut seen = 0;
            for offset in 0..SLOTS as u64 {
                let slot =
                    &self.slots[usize::try_from(self.cursor + offset).expect("slot fits") % SLOTS];
                for e in slot {
                    seen += 1;
                    if best.is_none_or(|b| e.at < b) {
                        best = Some(e.at);
                    }
                }
                // Ring slots are sorted by slot number from the cursor,
                // so the first non-empty slot bounds the rest — but a
                // same-slot later entry can still be earlier; scanning
                // the one slot fully (done above) settles it.
                if seen == in_ring || best.is_some() {
                    break;
                }
            }
        }
        if let Some((_, e)) = self.overflow.iter().next() {
            if best.is_none_or(|b| e.at < b) {
                best = Some(e.at);
            }
        }
        best
    }

    /// Pops every item whose deadline is at or before `now`, in deadline
    /// order (ties in schedule order), appending to `out`.
    pub(crate) fn pop_due(&mut self, now: Instant, out: &mut Vec<T>) {
        if self.len == 0 {
            return;
        }
        let now_slot = self.slot_of(now);
        let mut due: Vec<(Instant, u64, T)> = Vec::new();
        loop {
            let ring_idx = usize::try_from(self.cursor).expect("slot fits") % SLOTS;
            let slot = &mut self.slots[ring_idx];
            let mut i = 0;
            while i < slot.len() {
                if slot[i].at <= now {
                    let e = slot.swap_remove(i);
                    due.push((e.at, e.seq, e.item));
                    self.len -= 1;
                } else {
                    i += 1;
                }
            }
            if self.cursor >= now_slot {
                break;
            }
            debug_assert!(slot.is_empty(), "swept slot retains future entry");
            self.cursor += 1;
            // Migrate overflow entries that now fit in the ring.
            let horizon = self.cursor + SLOTS as u64;
            while let Some(entry) = self
                .overflow
                .first_key_value()
                .filter(|((slot, _), _)| *slot < horizon)
                .map(|(k, _)| *k)
                .and_then(|k| self.overflow.remove(&k))
            {
                let slot = self.slot_of(entry.at).max(self.cursor);
                self.slots[usize::try_from(slot).expect("slot fits") % SLOTS].push(entry);
            }
        }
        due.sort_by_key(|&(at, seq, _)| (at, seq));
        out.extend(due.into_iter().map(|(_, _, item)| item));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(origin: Instant, ms: u64) -> Instant {
        origin + Duration::from_millis(ms)
    }

    #[test]
    fn pops_in_deadline_order_across_ring_and_overflow() {
        let origin = Instant::now();
        let mut w: Wheel<u32> = Wheel::new(origin, Duration::from_millis(5));
        w.schedule(at(origin, 40), 2);
        w.schedule(at(origin, 7), 1);
        w.schedule(at(origin, 10_000), 4); // overflow (> 256 * 5ms)
        w.schedule(at(origin, 40), 3); // same deadline, later schedule
        assert_eq!(w.len(), 4);
        assert_eq!(w.next_deadline(), Some(at(origin, 7)));

        let mut out = Vec::new();
        w.pop_due(at(origin, 6), &mut out);
        assert!(out.is_empty());
        w.pop_due(at(origin, 50), &mut out);
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(w.len(), 1);
        assert_eq!(w.next_deadline(), Some(at(origin, 10_000)));
        w.pop_due(at(origin, 20_000), &mut out);
        assert_eq!(out, vec![1, 2, 3, 4]);
        assert_eq!(w.len(), 0);
        assert_eq!(w.next_deadline(), None);
    }

    #[test]
    fn past_deadlines_fire_immediately() {
        let origin = Instant::now();
        let mut w: Wheel<&'static str> = Wheel::new(origin, Duration::from_millis(5));
        let mut out = Vec::new();
        w.pop_due(at(origin, 3_000), &mut out); // sweep cursor far forward
        w.schedule(at(origin, 100), "stale");
        assert!(w.next_deadline().is_some());
        w.pop_due(at(origin, 3_001), &mut out);
        assert_eq!(out, vec!["stale"]);
    }
}
