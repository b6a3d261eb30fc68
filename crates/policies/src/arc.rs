//! Adaptive replacement cache (ARC), Megiddo & Modha, FAST 2003.

use crate::ghost::GhostRing;
use crate::slots::SlotTable;
use uopcache_cache::{PwMeta, PwReplacementPolicy};
use uopcache_model::PwDesc;

/// List tags for [`ArcPolicy`]'s per-slot state.
const T1: u8 = 1;
const T2: u8 = 2;

/// ARC, applied per set: residents live on a recency list (T1, touched
/// once) or a frequency list (T2, touched again); evicted starts are
/// remembered on the matching ghost list (B1/B2, one ghost per way). A miss
/// whose start is still ghosted re-enters directly on T2 *and* moves the
/// adaptation target `p` — the intended T1 share of the set — toward the
/// list that just proved too small. Victims come from T1 while it holds more
/// than `p` PWs (or exactly `p` when the incoming start is a B2 ghost,
/// ARC's `REPLACE` case), from T2 otherwise; within a list the LRU PW goes.
///
/// # Examples
///
/// ```
/// use uopcache_cache::UopCache;
/// use uopcache_model::UopCacheConfig;
/// use uopcache_policies::ArcPolicy;
///
/// let cache = UopCache::new(UopCacheConfig::zen3(), Box::new(ArcPolicy::new()));
/// assert_eq!(cache.policy().name(), "ARC");
/// ```
#[derive(Clone, Debug, Default)]
pub struct ArcPolicy {
    tag: SlotTable<u8>,
    b1: GhostRing,
    b2: GhostRing,
    /// Per-set adaptation target: how many of the set's ways T1 deserves.
    p: crate::slots::SetTable<u8>,
    ways: u32,
}

impl ArcPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        ArcPolicy::default()
    }

    /// `(B1, B2)` ghost-list occupancy for `set`. Exposed for the property
    /// wall (ghost lists can never exceed the per-way capacity).
    pub fn ghost_lens(&self, set: usize) -> (u32, u32) {
        (self.b1.len(set), self.b2.len(set))
    }

    /// The ghost-list capacity (= `ways` once prepared).
    pub fn ghost_capacity(&self) -> u32 {
        self.b1.capacity()
    }

    /// The adaptation target for `set` (T1's intended share, in ways).
    pub fn target(&self, set: usize) -> u32 {
        u32::from(*self.p.get(set))
    }
}

impl PwReplacementPolicy for ArcPolicy {
    fn name(&self) -> &'static str {
        "ARC"
    }

    fn prepare(&mut self, sets: usize, ways: u32) {
        self.tag.reserve(sets, ways);
        self.b1.reserve(sets, ways);
        self.b2.reserve(sets, ways);
        self.p.reserve(sets);
        self.ways = ways;
    }

    fn on_hit(&mut self, set: usize, meta: &PwMeta) {
        // A second touch moves a T1 resident to the frequency list.
        *self.tag.get_mut(set, meta.slot) = T2;
    }

    fn on_insert(&mut self, set: usize, meta: &PwMeta) {
        let start = meta.desc.start;
        let (b1_len, b2_len) = (self.b1.len(set), self.b2.len(set));
        let tag = if self.b1.remove(set, start) {
            // B1 ghost hit: recency history was too short — grow T1's share
            // by the classic |B2|/|B1| step.
            let step = (b2_len / b1_len.max(1)).max(1);
            let p = self.p.get_mut(set);
            #[allow(clippy::cast_possible_truncation)] // clamped to ways ≤ 255
            {
                *p = (u32::from(*p) + step).min(self.ways.min(255)) as u8;
            }
            T2
        } else if self.b2.remove(set, start) {
            // B2 ghost hit: frequency history was too short — shrink T1.
            let step = (b1_len / b2_len.max(1)).max(1);
            let p = self.p.get_mut(set);
            #[allow(clippy::cast_possible_truncation)] // saturating shrink toward 0
            {
                *p = u32::from(*p).saturating_sub(step) as u8;
            }
            T2
        } else {
            T1
        };
        *self.tag.get_mut(set, meta.slot) = tag;
    }

    fn on_evict(&mut self, set: usize, meta: &PwMeta) {
        let tag = self.tag.get_mut(set, meta.slot);
        if *tag == T2 {
            self.b2.push(set, meta.desc.start);
        } else {
            self.b1.push(set, meta.desc.start);
        }
        *tag = 0;
    }

    fn choose_victim(&mut self, set: usize, incoming: &PwDesc, resident: &[PwMeta]) -> usize {
        // Untracked slots (pre-prepare unit harnesses only) count as T1.
        let in_t2 = |m: &PwMeta| *self.tag.get(set, m.slot) == T2;
        let t1_count = resident.iter().filter(|m| !in_t2(m)).count();
        let p = usize::try_from(self.target(set)).expect("u32 fits usize");
        let replace_from_t1 = t1_count > 0
            && (t1_count > p || (t1_count == p && self.b2.contains(set, incoming.start)));
        let from_t1 = replace_from_t1 || t1_count == resident.len();
        resident
            .iter()
            .enumerate()
            .filter(|(_, m)| in_t2(m) != from_t1)
            .min_by_key(|(_, m)| m.last_access)
            .map(|(i, _)| i)
            .expect("the chosen list is non-empty by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uopcache_model::{Addr, PwTermination};

    fn meta_at(slot: u8, last_access: u64) -> PwMeta {
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
            last_access,
            hits: 0,
        }
    }

    fn incoming() -> PwDesc {
        PwDesc::new(Addr::new(0x900), 4, 12, PwTermination::TakenBranch)
    }

    #[test]
    fn once_touched_pws_go_before_twice_touched() {
        let mut p = ArcPolicy::new();
        p.prepare(1, 4);
        let a = meta_at(0, 9);
        let b = meta_at(1, 1);
        p.on_insert(0, &a);
        p.on_insert(0, &b);
        p.on_hit(0, &b); // b -> T2
                         // p = 0: T1 (just a) is over target; a goes despite being newer.
        assert_eq!(p.choose_victim(0, &incoming(), &[a, b]), 0);
    }

    #[test]
    fn b1_ghost_hit_grows_the_recency_target() {
        let mut p = ArcPolicy::new();
        p.prepare(1, 4);
        let a = meta_at(0, 1);
        p.on_insert(0, &a);
        p.on_evict(0, &a); // T1 eviction -> B1
        assert_eq!(p.ghost_lens(0), (1, 0));
        assert_eq!(p.target(0), 0);
        p.on_insert(0, &a); // ghosted start returns
        assert_eq!(p.target(0), 1, "p grew toward recency");
        assert_eq!(*p.tag.get(0, 0), T2, "ghost hits re-enter on T2");
    }

    #[test]
    fn b2_ghost_hit_shrinks_the_recency_target() {
        let mut p = ArcPolicy::new();
        p.prepare(1, 4);
        let a = meta_at(0, 1);
        // Grow p to 1 first via a B1 round trip.
        p.on_insert(0, &a);
        p.on_evict(0, &a);
        p.on_insert(0, &a);
        assert_eq!(p.target(0), 1);
        // Now evict from T2 and return: p shrinks back.
        p.on_evict(0, &a); // -> B2
        assert_eq!(p.ghost_lens(0).1, 1);
        p.on_insert(0, &a);
        assert_eq!(p.target(0), 0);
    }

    #[test]
    fn victims_come_from_t2_when_t1_is_within_target() {
        let mut p = ArcPolicy::new();
        p.prepare(1, 4);
        let a = meta_at(0, 9);
        let b = meta_at(1, 3);
        let c = meta_at(2, 5);
        p.on_insert(0, &a);
        p.on_insert(0, &b);
        p.on_insert(0, &c);
        p.on_hit(0, &b);
        p.on_hit(0, &c);
        // Force p up to 2 so T1 (just a) is within target.
        *p.p.get_mut(0) = 2;
        // T2 LRU is b (last_access 3).
        assert_eq!(p.choose_victim(0, &incoming(), &[a, b, c]), 1);
    }
}
