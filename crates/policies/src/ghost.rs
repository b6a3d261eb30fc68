//! Bounded per-set ghost lists (recently-evicted addresses) shared by the
//! history-keeping zoo policies (2Q's A1out, ARC/CAR's B1/B2).

use crate::slots::{SetTable, SlotTable};
use uopcache_model::Addr;

/// A removed entry leaves a tombstone so ring positions stay stable; the
/// slot is reclaimed when the ring wraps over it.
const TOMBSTONE: u64 = u64::MAX;

/// A fixed-capacity ring of evicted PW start addresses, one ring per set.
///
/// Capacity is the cache's associativity (one ghost per way — the classic
/// sizing for ARC's B-lists and 2Q's A1out), fixed by [`reserve`] at
/// `prepare` time, so pushes and membership probes never allocate and a
/// ring's length can never exceed `ways`.
///
/// [`reserve`]: GhostRing::reserve
#[derive(Clone, Debug, Default)]
pub(crate) struct GhostRing {
    addrs: SlotTable<u64>,
    head: SetTable<u8>,
    len: SetTable<u8>,
    cap: u32,
}

impl GhostRing {
    /// Creates an empty ring table (capacity 0 until [`reserve`] is called;
    /// pushes are dropped while unconfigured).
    ///
    /// [`reserve`]: GhostRing::reserve
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        GhostRing::default()
    }

    /// Sizes every ring: `sets` rings of `ways` ghosts each.
    pub(crate) fn reserve(&mut self, sets: usize, ways: u32) {
        let cap = ways.min(255);
        self.addrs.reserve(sets, cap);
        self.head.reserve(sets);
        self.len.reserve(sets);
        self.cap = cap;
    }

    /// The ring capacity (0 before [`reserve`](GhostRing::reserve)).
    pub(crate) fn capacity(&self) -> u32 {
        self.cap
    }

    /// The number of ghosts currently held for `set` (tombstones included;
    /// never exceeds [`capacity`](GhostRing::capacity)).
    pub(crate) fn len(&self, set: usize) -> u32 {
        u32::from(*self.len.get(set))
    }

    /// Records `addr` as evicted from `set`, displacing the oldest ghost
    /// once the ring is full.
    pub(crate) fn push(&mut self, set: usize, addr: Addr) {
        if self.cap == 0 {
            return;
        }
        let head = u32::from(*self.head.get(set));
        #[allow(clippy::cast_possible_truncation)] // head/cap < 256 by construction
        {
            *self.addrs.get_mut(set, head as u8) = addr.get();
            *self.head.get_mut(set) = ((head + 1) % self.cap) as u8;
        }
        #[allow(clippy::cast_possible_truncation)] // cap ≤ 255 by construction
        let cap = self.cap as u8;
        let len = self.len.get_mut(set);
        *len = (*len + 1).min(cap);
    }

    /// Whether `addr` is a live (non-tombstoned) ghost of `set`.
    pub(crate) fn contains(&self, set: usize, addr: Addr) -> bool {
        self.position(set, addr).is_some()
    }

    /// Tombstones `addr` in `set`'s ring; returns whether it was present.
    pub(crate) fn remove(&mut self, set: usize, addr: Addr) -> bool {
        match self.position(set, addr) {
            Some(cell) => {
                *self.addrs.get_mut(set, cell) = TOMBSTONE;
                true
            }
            None => false,
        }
    }

    /// The ring cell holding `addr`, scanning the `len` most recent pushes.
    fn position(&self, set: usize, addr: Addr) -> Option<u8> {
        let len = self.len(set);
        if len == 0 || addr.get() == TOMBSTONE {
            return None;
        }
        let head = u32::from(*self.head.get(set));
        (0..len).find_map(|j| {
            let cell = (head + self.cap - 1 - j) % self.cap;
            #[allow(clippy::cast_possible_truncation)] // cell < cap < 256
            let cell = cell as u8;
            (*self.addrs.get(set, cell) == addr.get()).then_some(cell)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_probe_remove_round_trip() {
        let mut g = GhostRing::new();
        g.reserve(2, 4);
        g.push(0, Addr::new(0x100));
        g.push(0, Addr::new(0x140));
        assert!(g.contains(0, Addr::new(0x100)));
        assert!(!g.contains(1, Addr::new(0x100)), "rings are per set");
        assert!(g.remove(0, Addr::new(0x100)));
        assert!(!g.contains(0, Addr::new(0x100)));
        assert!(!g.remove(0, Addr::new(0x100)), "second remove is a no-op");
        assert_eq!(g.len(0), 2, "tombstones keep ring positions stable");
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut g = GhostRing::new();
        g.reserve(1, 3);
        for i in 0..10u64 {
            g.push(0, Addr::new(0x1000 + i * 64));
            assert!(g.len(0) <= 3);
        }
        // Only the three most recent survive.
        assert!(g.contains(0, Addr::new(0x1000 + 9 * 64)));
        assert!(g.contains(0, Addr::new(0x1000 + 7 * 64)));
        assert!(!g.contains(0, Addr::new(0x1000 + 6 * 64)));
    }

    #[test]
    fn unconfigured_ring_drops_pushes() {
        let mut g = GhostRing::new();
        g.push(0, Addr::new(0x100));
        assert_eq!(g.len(0), 0);
        assert!(!g.contains(0, Addr::new(0x100)));
    }
}
