//! Bounded event ring that keeps the most recent events.
//!
//! A power-of-two ring over a `Vec` that grows as events arrive, so a large
//! capacity costs memory only for what a run actually records. Once full,
//! each push overwrites the oldest slot (found with a mask, not a division)
//! and [`Ring::overflow`] counts the displaced events, so a consumer can tell
//! a complete trace from a truncated one. The ring has one owner: the
//! telemetry handle keeps it behind its lock.

use std::fmt;

use crate::event::Event;

pub(crate) struct Ring {
    /// Retained events; `len() <= mask + 1`, and once full the oldest sits
    /// at `pushed & mask`.
    slots: Vec<Event>,
    mask: usize,
    /// Events ever pushed.
    pushed: u64,
}

impl fmt::Debug for Ring {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ring")
            .field("capacity", &(self.mask + 1))
            .field("pushed", &self.pushed)
            .finish_non_exhaustive()
    }
}

impl Ring {
    /// A ring retaining up to `capacity` events, rounded up to the next
    /// power of two (min 1). Nothing is allocated until the first push.
    pub(crate) fn with_capacity(capacity: usize) -> Ring {
        let cap = capacity.max(1).next_power_of_two();
        Ring { slots: Vec::new(), mask: cap - 1, pushed: 0 }
    }

    /// Append the event `fill` builds, written straight into its slot, and
    /// return it. If `fill` panics the ring is left as it was.
    #[inline]
    pub(crate) fn push_with(&mut self, fill: impl FnOnce() -> Event) -> &Event {
        let i = (self.pushed & self.mask as u64) as usize;
        if i == self.slots.len() {
            self.slots.push(fill());
        } else {
            self.slots[i] = fill();
        }
        self.pushed += 1;
        &self.slots[i]
    }

    /// Events displaced by wraparound; 0 means nothing was lost.
    pub(crate) fn overflow(&self) -> u64 {
        self.pushed - self.slots.len() as u64
    }

    /// Copy out the retained events, oldest first. (Before the ring fills,
    /// `pushed & mask` is `slots.len()`, so `older` is empty.)
    pub(crate) fn snapshot(&self) -> Vec<Event> {
        let (newer, older) = self.slots.split_at((self.pushed & self.mask as u64) as usize);
        [older, newer].concat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn pushed(capacity: usize, n: u64) -> Ring {
        let mut ring = Ring::with_capacity(capacity);
        for t in 0..n {
            ring.push_with(|| Event { t_ns: t, kind: EventKind::Rto { conn: 0, path: 0 } });
        }
        ring
    }

    fn times(ring: &Ring) -> Vec<u64> {
        ring.snapshot().iter().map(|e| e.t_ns).collect()
    }

    #[test]
    fn keeps_everything_under_capacity() {
        let ring = pushed(8, 5);
        assert_eq!(times(&ring), vec![0, 1, 2, 3, 4]);
        assert_eq!(ring.overflow(), 0);
    }

    #[test]
    fn wraparound_keeps_most_recent_and_counts_overflow() {
        let ring = pushed(4, 11);
        assert_eq!(times(&ring), vec![7, 8, 9, 10], "retains exactly the last `capacity` events");
        assert_eq!(ring.overflow(), 7);
    }

    #[test]
    fn exact_capacity_boundary() {
        let ring = pushed(4, 4);
        assert_eq!(ring.overflow(), 0);
        assert_eq!(times(&ring), vec![0, 1, 2, 3]);
        let ring = pushed(4, 5);
        assert_eq!(ring.overflow(), 1);
        assert_eq!(times(&ring), vec![1, 2, 3, 4]);
    }

    #[test]
    fn capacity_is_rounded_up_and_clamped_to_one() {
        let ring = pushed(0, 2);
        assert_eq!(times(&ring), vec![1]);
        assert_eq!(ring.overflow(), 1);
        let ring = pushed(3, 6);
        assert_eq!(times(&ring), vec![2, 3, 4, 5], "3 rounds up to 4 slots");
    }
}
