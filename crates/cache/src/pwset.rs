//! One micro-op cache set: a pool of entry slots shared by whole prediction
//! windows.
//!
//! Storage is a struct-of-arrays arena sized at construction: a `live`
//! bitmask of occupied slots, a dense array of start addresses (the lookup
//! key — one cache line covers eight ways), a parallel array of end
//! addresses (the inclusion probe's other bound), and a parallel array of
//! [`PwMeta`] records. Nothing allocates after [`PwSet::new`]; the hot
//! [`find`](PwSet::find) walks the start-address array guided by the bitmask
//! instead of chasing per-way heap cells.

use crate::meta::PwMeta;
use uopcache_model::{Addr, LineAddr, PwDesc, PwTermination};

/// A single set of the micro-op cache.
///
/// The set owns `ways` entry slots. Each resident PW occupies `entries`
/// (1..=ways) of them and is tracked as a unit: all of its entries are
/// allocated and reclaimed together, mirroring the hardware organisation in
/// which a multi-entry PW's entries live in one set and are fetched/evicted
/// as a whole (§II-C).
#[derive(Clone, Debug)]
pub(crate) struct PwSet {
    ways: u8,
    /// Entry slots currently in use.
    used_entries: u8,
    /// Bit `i` set ⇔ slot `i` holds a resident PW.
    live: u64,
    /// All `ways` low bits set — the universe `live` lives in.
    mask: u64,
    /// Start address per slot (valid only where `live` has the bit set).
    starts: Box<[Addr]>,
    /// One past the last byte per slot, `start + bytes` (valid only where
    /// `live` has the bit set).
    ends: Box<[u64]>,
    /// Full metadata per slot (valid only where `live` has the bit set).
    metas: Box<[PwMeta]>,
}

/// Filler for dead arena cells; never observable through the public API.
const DEAD: PwMeta = PwMeta {
    desc: PwDesc {
        start: Addr::new(0),
        uops: 0,
        bytes: 0,
        term: PwTermination::TakenBranch,
    },
    slot: 0,
    entries: 0,
    inserted_at: 0,
    last_access: 0,
    hits: 0,
};

impl PwSet {
    /// Creates an empty set with `ways` entry slots, preallocating the whole
    /// arena.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or greater than 64.
    pub(crate) fn new(ways: u32) -> Self {
        assert!((1..=64).contains(&ways), "ways must be in 1..=64");
        let ways = u8::try_from(ways).expect("ways checked to be in 1..=64");
        PwSet {
            ways,
            used_entries: 0,
            live: 0,
            mask: u64::MAX >> (64 - u32::from(ways)),
            starts: vec![Addr::new(0); usize::from(ways)].into_boxed_slice(),
            ends: vec![0; usize::from(ways)].into_boxed_slice(),
            metas: vec![DEAD; usize::from(ways)].into_boxed_slice(),
        }
    }

    /// Entry slots in use.
    pub(crate) fn used_entries(&self) -> u32 {
        u32::from(self.used_entries)
    }

    /// Entry slots free.
    pub(crate) fn free_entries(&self) -> u32 {
        u32::from(self.ways - self.used_entries)
    }

    /// Number of resident PWs.
    #[cfg(test)]
    pub(crate) fn resident_count(&self) -> usize {
        self.live.count_ones() as usize
    }

    /// The resident PWs, ordered by slot.
    #[cfg(test)]
    pub(crate) fn residents(&self) -> impl Iterator<Item = &PwMeta> {
        let live = self.live;
        self.metas
            .iter()
            .enumerate()
            .filter(move |(i, _)| live & (1 << i) != 0)
            .map(|(_, m)| m)
    }

    /// Collects the residents into a vector (slot order) — the slice handed
    /// to replacement policies.
    #[cfg(test)]
    pub(crate) fn resident_metas(&self) -> Vec<PwMeta> {
        self.residents().copied().collect()
    }

    /// Refills `out` with the residents in slot order. Allocation-free as
    /// long as `out` has capacity for `ways` elements — the cache keeps one
    /// such scratch buffer for its policy calls.
    // audit:hot-path — per-victim-choice resident snapshot
    pub(crate) fn fill_residents(&self, out: &mut Vec<PwMeta>) {
        out.clear();
        let mut live = self.live;
        while live != 0 {
            let i = live.trailing_zeros() as usize;
            out.push(self.metas[i]); // audit:allow(hot-path-alloc) — caller-owned scratch, pre-sized to `ways`
            live &= live - 1;
        }
    }

    /// Finds the resident PW starting at `start`, if any. At most one PW per
    /// start address is resident (the cache keeps the larger of two
    /// overlapping windows).
    // audit:hot-path — per-lookup probe
    pub(crate) fn find(&self, start: Addr) -> Option<&PwMeta> {
        let mut live = self.live;
        while live != 0 {
            let i = live.trailing_zeros() as usize;
            if self.starts[i] == start {
                return Some(&self.metas[i]);
            }
            live &= live - 1;
        }
        None
    }

    /// The slots whose windows touch i-cache line `line`, as a bitmask
    /// (bit `i` set ⇔ slot `i`'s `[start, start + bytes)` overlaps the
    /// line). `line` must be aligned to `line_bytes`, as every [`LineAddr`]
    /// made with that line size is.
    // audit:hot-path — per-L1i-eviction inclusion probe
    pub(crate) fn slots_touching(&self, line: LineAddr, line_bytes: u64) -> u64 {
        let mask = !(line_bytes - 1);
        let target = line.base().get();
        // Every slot is tested without branching, dead ones (whose end may
        // be 0, hence the wrapping subtraction) masked out after.
        let mut touching = 0;
        for (i, (start, end)) in self.starts.iter().zip(&self.ends[..]).enumerate() {
            let first = start.get() & mask;
            let last = end.wrapping_sub(1) & mask;
            touching |= u64::from((first <= target) & (target <= last)) << i;
        }
        touching & self.live
    }

    /// Inserts a PW occupying `entries` slots, returning its metadata.
    /// The PW takes the lowest free slot id.
    ///
    /// # Panics
    ///
    /// Panics if there is not enough free space (the caller must evict first)
    /// or if a PW with the same start address is already resident.
    // audit:hot-path — per-fill slot claim
    pub(crate) fn insert(&mut self, desc: PwDesc, entries: u32, now: u64) -> PwMeta {
        assert!(
            entries >= 1 && entries <= u32::from(self.ways),
            "PW entries out of range"
        );
        assert!(
            entries <= self.free_entries(),
            "set overflow: inserting {entries} entries with {} free",
            self.free_entries()
        );
        assert!(
            self.find(desc.start).is_none(),
            "duplicate start address in set"
        );
        let slot = (!self.live & self.mask).trailing_zeros() as usize;
        let meta = PwMeta {
            desc,
            slot: u8::try_from(slot).expect("at most `ways` slots in the arena"),
            entries: u8::try_from(entries).expect("entries checked against ways <= 64"),
            inserted_at: now,
            last_access: now,
            hits: 0,
        };
        self.live |= 1 << slot;
        self.starts[slot] = desc.start;
        self.ends[slot] = desc.end().get();
        self.metas[slot] = meta;
        self.used_entries += u8::try_from(entries).expect("entries checked against ways <= 64");
        meta
    }

    /// Removes the resident PW at `slot`, returning its metadata.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty or out of range.
    // audit:hot-path — per-eviction slot release
    pub(crate) fn remove_slot(&mut self, slot: u8) -> PwMeta {
        let bit = 1u64 << slot;
        assert!(self.live & bit != 0, "slot occupied");
        self.live &= !bit;
        let meta = self.metas[usize::from(slot)];
        self.used_entries -= meta.entries;
        meta
    }

    /// Removes the resident PW starting at `start`, if present.
    // audit:hot-path — per-invalidate removal
    pub(crate) fn remove_start(&mut self, start: Addr) -> Option<PwMeta> {
        let slot = self.find(start)?.slot;
        Some(self.remove_slot(slot))
    }

    /// Records a hit on the PW at `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    // audit:hot-path — per-hit timestamp bump
    pub(crate) fn touch(&mut self, slot: u8, now: u64) -> PwMeta {
        assert!(self.live & (1 << slot) != 0, "slot occupied");
        let meta = &mut self.metas[usize::from(slot)];
        meta.last_access = now;
        meta.hits += 1;
        *meta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uopcache_model::PwTermination;

    fn pw(start: u64, uops: u32) -> PwDesc {
        PwDesc::new(Addr::new(start), uops, uops * 3, PwTermination::TakenBranch)
    }

    #[test]
    fn insert_and_find() {
        let mut set = PwSet::new(8);
        set.insert(pw(0x10, 4), 1, 0);
        set.insert(pw(0x20, 20), 3, 1);
        assert_eq!(set.used_entries(), 4);
        assert_eq!(set.free_entries(), 4);
        assert_eq!(set.resident_count(), 2);
        assert_eq!(set.find(Addr::new(0x20)).unwrap().entries, 3);
        assert!(set.find(Addr::new(0x30)).is_none());
    }

    #[test]
    fn slots_are_recycled() {
        let mut set = PwSet::new(4);
        let a = set.insert(pw(0x10, 4), 1, 0);
        set.insert(pw(0x20, 4), 1, 0);
        set.remove_slot(a.slot);
        let c = set.insert(pw(0x30, 4), 1, 0);
        assert_eq!(c.slot, a.slot, "freed slot should be reused");
    }

    #[test]
    fn lowest_free_slot_wins() {
        let mut set = PwSet::new(8);
        let a = set.insert(pw(0x10, 1), 1, 0);
        let b = set.insert(pw(0x20, 1), 1, 0);
        let c = set.insert(pw(0x30, 1), 1, 0);
        assert_eq!((a.slot, b.slot, c.slot), (0, 1, 2));
        set.remove_slot(b.slot);
        assert_eq!(set.insert(pw(0x40, 1), 1, 0).slot, 1);
        assert_eq!(set.insert(pw(0x50, 1), 1, 0).slot, 3);
    }

    #[test]
    #[should_panic(expected = "set overflow")]
    fn overflow_panics() {
        let mut set = PwSet::new(2);
        set.insert(pw(0x10, 16), 2, 0);
        set.insert(pw(0x20, 1), 1, 0);
    }

    #[test]
    #[should_panic(expected = "duplicate start")]
    fn duplicate_start_panics() {
        let mut set = PwSet::new(4);
        set.insert(pw(0x10, 1), 1, 0);
        set.insert(pw(0x10, 9), 2, 0);
    }

    #[test]
    fn touch_updates_recency_and_hits() {
        let mut set = PwSet::new(4);
        let m = set.insert(pw(0x10, 1), 1, 5);
        let touched = set.touch(m.slot, 9);
        assert_eq!(touched.last_access, 9);
        assert_eq!(touched.hits, 1);
        assert_eq!(touched.inserted_at, 5);
    }

    #[test]
    fn remove_start_returns_meta() {
        let mut set = PwSet::new(4);
        set.insert(pw(0x10, 10), 2, 0);
        let removed = set.remove_start(Addr::new(0x10)).unwrap();
        assert_eq!(removed.entries, 2);
        assert_eq!(set.used_entries(), 0);
        assert!(set.remove_start(Addr::new(0x10)).is_none());
    }

    #[test]
    fn resident_metas_in_slot_order() {
        let mut set = PwSet::new(8);
        set.insert(pw(0x10, 1), 1, 0);
        set.insert(pw(0x20, 1), 1, 0);
        set.insert(pw(0x30, 1), 1, 0);
        set.remove_start(Addr::new(0x20));
        let metas = set.resident_metas();
        assert_eq!(metas.len(), 2);
        assert!(metas[0].slot < metas[1].slot);
    }

    #[test]
    fn fill_residents_matches_resident_metas_without_growing() {
        let mut set = PwSet::new(8);
        set.insert(pw(0x10, 1), 1, 0);
        set.insert(pw(0x20, 20), 3, 0);
        set.insert(pw(0x30, 1), 1, 0);
        set.remove_start(Addr::new(0x20));
        let mut buf = Vec::with_capacity(8);
        buf.push(DEAD); // stale contents must be cleared by the refill
        set.fill_residents(&mut buf);
        assert_eq!(buf, set.resident_metas());
        assert_eq!(buf.capacity(), 8, "refill must not grow the buffer");
    }

    #[test]
    fn sixty_four_ways_round_trip() {
        let mut set = PwSet::new(64);
        for i in 0..64u64 {
            set.insert(pw(0x1000 + i * 64, 1), 1, i);
        }
        assert_eq!(set.free_entries(), 0);
        assert_eq!(set.resident_count(), 64);
        let m = set.remove_start(Addr::new(0x1000 + 63 * 64)).unwrap();
        assert_eq!(m.slot, 63);
        assert_eq!(set.insert(pw(0x9000, 1), 1, 99).slot, 63);
    }
}
