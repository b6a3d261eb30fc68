//! Segmented LRU (SLRU), Karedla/Love/Wherry 1994.

use crate::slots::SlotTable;
use uopcache_cache::{PwMeta, PwReplacementPolicy};
use uopcache_model::PwDesc;

/// Segment tags for [`SlruPolicy`]'s per-slot state.
const FREE: u8 = 0;
const PROBATION: u8 = 1;
const PROTECTED: u8 = 2;

/// Segmented LRU: each set is split into a probationary and a protected
/// segment. Insertions land on probation; a hit promotes to the protected
/// segment, demoting that segment's LRU PW back to probation when it is full
/// (capacity `ways / 2`, minimum 1). Victims are the probationary LRU,
/// falling back to the protected LRU only when probation is empty — so one
/// touch is not enough to out-live a twice-touched PW.
///
/// # Examples
///
/// ```
/// use uopcache_cache::UopCache;
/// use uopcache_model::UopCacheConfig;
/// use uopcache_policies::SlruPolicy;
///
/// let cache = UopCache::new(UopCacheConfig::zen3(), Box::new(SlruPolicy::new()));
/// assert_eq!(cache.policy().name(), "SLRU");
/// ```
#[derive(Clone, Debug, Default)]
pub struct SlruPolicy {
    seg: SlotTable<u8>,
    /// The policy's own recency stamps — independent of the cache's
    /// `last_access` so segment order survives slot recycling unambiguously.
    stamp: SlotTable<u64>,
    tick: u64,
    ways: u32,
}

impl SlruPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        SlruPolicy::default()
    }

    /// Protected-segment capacity in PWs.
    fn protected_cap(&self) -> u32 {
        (self.ways / 2).max(1)
    }

    /// `(probationary, protected)` PW counts for `set`. Exposed for the
    /// property wall (segment sizes can never sum past `ways`).
    pub fn segment_counts(&self, set: usize) -> (u32, u32) {
        let mut counts = (0, 0);
        for slot in 0..self.ways.min(255) {
            #[allow(clippy::cast_possible_truncation)] // bounded at 255 above
            match *self.seg.get(set, slot as u8) {
                PROBATION => counts.0 += 1,
                PROTECTED => counts.1 += 1,
                _ => {}
            }
        }
        counts
    }

    /// The protected slot with the oldest stamp, if any.
    fn protected_lru_slot(&self, set: usize) -> Option<u8> {
        let mut oldest: Option<(u64, u8)> = None;
        for slot in 0..self.ways.min(255) {
            #[allow(clippy::cast_possible_truncation)] // bounded at 255 above
            let slot = slot as u8;
            if *self.seg.get(set, slot) == PROTECTED {
                let stamp = *self.stamp.get(set, slot);
                if oldest.is_none_or(|(s, _)| stamp < s) {
                    oldest = Some((stamp, slot));
                }
            }
        }
        oldest.map(|(_, slot)| slot)
    }
}

impl PwReplacementPolicy for SlruPolicy {
    fn name(&self) -> &'static str {
        "SLRU"
    }

    fn prepare(&mut self, sets: usize, ways: u32) {
        self.seg.reserve(sets, ways);
        self.stamp.reserve(sets, ways);
        self.ways = ways;
    }

    fn on_hit(&mut self, set: usize, meta: &PwMeta) {
        self.tick += 1;
        *self.stamp.get_mut(set, meta.slot) = self.tick;
        if *self.seg.get(set, meta.slot) == PROBATION {
            let (_, protected) = self.segment_counts(set);
            if protected >= self.protected_cap() {
                if let Some(lru) = self.protected_lru_slot(set) {
                    *self.seg.get_mut(set, lru) = PROBATION;
                }
            }
            *self.seg.get_mut(set, meta.slot) = PROTECTED;
        }
    }

    fn on_insert(&mut self, set: usize, meta: &PwMeta) {
        self.tick += 1;
        *self.seg.get_mut(set, meta.slot) = PROBATION;
        *self.stamp.get_mut(set, meta.slot) = self.tick;
    }

    fn on_evict(&mut self, set: usize, meta: &PwMeta) {
        *self.seg.get_mut(set, meta.slot) = FREE;
        *self.stamp.get_mut(set, meta.slot) = 0;
    }

    fn choose_victim(&mut self, set: usize, _incoming: &PwDesc, resident: &[PwMeta]) -> usize {
        let key = |m: &PwMeta| {
            let protected = *self.seg.get(set, m.slot) == PROTECTED;
            // Probation (false) sorts before protected (true); within a
            // segment the oldest stamp goes first.
            (protected, *self.stamp.get(set, m.slot))
        };
        resident
            .iter()
            .enumerate()
            .min_by_key(|(_, m)| key(m))
            .map(|(i, _)| i)
            .expect("resident slice is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uopcache_model::{Addr, PwTermination};

    fn meta(slot: u8) -> PwMeta {
        PwMeta {
            desc: PwDesc::new(
                Addr::new(0x100 + u64::from(slot) * 64),
                4,
                12,
                PwTermination::TakenBranch,
            ),
            slot,
            entries: 1,
            inserted_at: 0,
            last_access: 0,
            hits: 0,
        }
    }

    fn incoming() -> PwDesc {
        PwDesc::new(Addr::new(0x900), 4, 12, PwTermination::TakenBranch)
    }

    #[test]
    fn hit_promotes_and_probation_goes_first() {
        let mut p = SlruPolicy::new();
        p.prepare(1, 4);
        let (a, b) = (meta(0), meta(1));
        p.on_insert(0, &a);
        p.on_insert(0, &b);
        p.on_hit(0, &a); // a: probation -> protected
        assert_eq!(p.segment_counts(0), (1, 1));
        // b (probation) is evicted even though a's stamp is older overall.
        assert_eq!(p.choose_victim(0, &incoming(), &[a, b]), 1);
    }

    #[test]
    fn full_protected_segment_demotes_its_lru() {
        let mut p = SlruPolicy::new();
        p.prepare(1, 4); // protected capacity 2
        let all = [meta(0), meta(1), meta(2), meta(3)];
        for m in &all {
            p.on_insert(0, m);
        }
        p.on_hit(0, &all[0]);
        p.on_hit(0, &all[1]);
        assert_eq!(p.segment_counts(0), (2, 2));
        // Promoting a third PW demotes slot 0 (the protected LRU).
        p.on_hit(0, &all[2]);
        assert_eq!(p.segment_counts(0), (2, 2));
        assert_eq!(*p.seg.get(0, 0), PROBATION);
        assert_eq!(*p.seg.get(0, 2), PROTECTED);
    }

    #[test]
    fn protected_lru_is_the_last_resort_victim() {
        let mut p = SlruPolicy::new();
        p.prepare(1, 4);
        let (a, b) = (meta(0), meta(1));
        p.on_insert(0, &a);
        p.on_insert(0, &b);
        p.on_hit(0, &a);
        p.on_hit(0, &b);
        // Probation is empty: the protected LRU (a) is the victim.
        assert_eq!(p.choose_victim(0, &incoming(), &[a, b]), 0);
    }

    #[test]
    fn eviction_frees_the_slot_state() {
        let mut p = SlruPolicy::new();
        p.prepare(1, 4);
        let a = meta(0);
        p.on_insert(0, &a);
        p.on_hit(0, &a);
        p.on_evict(0, &a);
        assert_eq!(p.segment_counts(0), (0, 0));
    }
}
