//! Simplified 2Q replacement, Johnson & Shasha, VLDB 1994.

use crate::ghost::GhostRing;
use crate::slots::SlotTable;
use uopcache_cache::{PwMeta, PwReplacementPolicy};
use uopcache_model::PwDesc;

/// Queue tags for [`TwoQPolicy`]'s per-slot state.
const A1: u8 = 1;
const AM: u8 = 2;

/// Simplified 2Q: first-time insertions enter a FIFO probationary queue
/// (A1in); a re-reference — a hit while probationary, or a re-insertion
/// whose start is still in the A1out ghost ring of recently evicted
/// probationary PWs — promotes to the LRU-managed main queue (Am). While
/// A1in is over its share (`ways / 4`, minimum 1) victims come from it in
/// FIFO order; otherwise the Am LRU goes. One-shot windows thus stream
/// through A1in without ever displacing the hot Am working set.
///
/// # Examples
///
/// ```
/// use uopcache_cache::UopCache;
/// use uopcache_model::UopCacheConfig;
/// use uopcache_policies::TwoQPolicy;
///
/// let cache = UopCache::new(UopCacheConfig::zen3(), Box::new(TwoQPolicy::new()));
/// assert_eq!(cache.policy().name(), "2Q");
/// ```
#[derive(Clone, Debug, Default)]
pub struct TwoQPolicy {
    qtag: SlotTable<u8>,
    a1out: GhostRing,
    ways: u32,
}

impl TwoQPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        TwoQPolicy::default()
    }

    /// A1in's maximum share of the set before it supplies victims.
    fn a1_max(&self) -> u32 {
        (self.ways / 4).max(1)
    }

    /// The A1out ghost-ring occupancy for `set` (bounded by `ways`).
    pub fn ghost_len(&self, set: usize) -> u32 {
        self.a1out.len(set)
    }
}

impl PwReplacementPolicy for TwoQPolicy {
    fn name(&self) -> &'static str {
        "2Q"
    }

    fn prepare(&mut self, sets: usize, ways: u32) {
        self.qtag.reserve(sets, ways);
        self.a1out.reserve(sets, ways);
        self.ways = ways;
    }

    fn on_hit(&mut self, set: usize, meta: &PwMeta) {
        let tag = self.qtag.get_mut(set, meta.slot);
        if *tag == A1 {
            *tag = AM;
        }
    }

    fn on_insert(&mut self, set: usize, meta: &PwMeta) {
        // A start still remembered by A1out was evicted too early: it
        // re-enters straight into the main queue.
        let remembered = self.a1out.remove(set, meta.desc.start);
        *self.qtag.get_mut(set, meta.slot) = if remembered { AM } else { A1 };
    }

    fn on_evict(&mut self, set: usize, meta: &PwMeta) {
        let tag = self.qtag.get_mut(set, meta.slot);
        if *tag == A1 {
            self.a1out.push(set, meta.desc.start);
        }
        *self.qtag.get_mut(set, meta.slot) = 0;
    }

    fn choose_victim(&mut self, set: usize, _incoming: &PwDesc, resident: &[PwMeta]) -> usize {
        // Untracked slots (no on_insert seen, possible only pre-prepare in
        // unit harnesses) count as probationary first-touches.
        let in_am = |m: &PwMeta| *self.qtag.get(set, m.slot) == AM;
        let a1_count = resident.iter().filter(|m| !in_am(m)).count();
        let from_a1 = a1_count > self.a1_max() as usize || a1_count == resident.len();
        resident
            .iter()
            .enumerate()
            .filter(|(_, m)| in_am(m) != from_a1)
            .min_by_key(|(_, m)| {
                if from_a1 {
                    m.inserted_at
                } else {
                    m.last_access
                }
            })
            .map(|(i, _)| i)
            .expect("the chosen queue is non-empty by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uopcache_model::{Addr, PwTermination};

    fn meta_at(slot: u8, inserted_at: u64, last_access: u64) -> PwMeta {
        PwMeta {
            desc: PwDesc::new(
                Addr::new(0x100 + u64::from(slot) * 64),
                4,
                12,
                PwTermination::TakenBranch,
            ),
            slot,
            entries: 1,
            inserted_at,
            last_access,
            hits: 0,
        }
    }

    fn incoming() -> PwDesc {
        PwDesc::new(Addr::new(0x900), 4, 12, PwTermination::TakenBranch)
    }

    #[test]
    fn overfull_probation_evicts_fifo() {
        let mut p = TwoQPolicy::new();
        p.prepare(1, 4); // a1_max = 1
        let a = meta_at(0, 1, 9);
        let b = meta_at(1, 2, 5);
        p.on_insert(0, &a);
        p.on_insert(0, &b);
        // Two probationary PWs > share of 1: the earliest-inserted goes,
        // regardless of recency.
        assert_eq!(p.choose_victim(0, &incoming(), &[a, b]), 0);
    }

    #[test]
    fn main_queue_supplies_victims_when_probation_is_within_share() {
        let mut p = TwoQPolicy::new();
        p.prepare(1, 4);
        let a = meta_at(0, 1, 1);
        let b = meta_at(1, 2, 8);
        let c = meta_at(2, 3, 4);
        p.on_insert(0, &a);
        p.on_insert(0, &b);
        p.on_insert(0, &c);
        p.on_hit(0, &b); // b -> Am
        p.on_hit(0, &c); // c -> Am
                         // One probationary PW (a) is within the share of 1, so the Am LRU
                         // (c, last_access 4) is the victim.
        assert_eq!(p.choose_victim(0, &incoming(), &[a, b, c]), 2);
    }

    #[test]
    fn ghost_remembrance_promotes_reinsertion() {
        let mut p = TwoQPolicy::new();
        p.prepare(1, 4);
        let a = meta_at(0, 1, 1);
        p.on_insert(0, &a);
        p.on_evict(0, &a); // probationary eviction -> A1out
        assert_eq!(p.ghost_len(0), 1);
        p.on_insert(0, &a); // same start returns while remembered
        assert_eq!(*p.qtag.get(0, 0), AM);
        assert_eq!(p.ghost_len(0), 1, "tombstoned, slot retained until wrap");
    }

    #[test]
    fn main_queue_evictions_leave_no_ghost() {
        let mut p = TwoQPolicy::new();
        p.prepare(1, 4);
        let a = meta_at(0, 1, 1);
        p.on_insert(0, &a);
        p.on_hit(0, &a); // -> Am
        p.on_evict(0, &a);
        assert!(!p.a1out.contains(0, a.desc.start));
    }
}
