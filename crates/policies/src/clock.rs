//! CLOCK (second-chance) replacement, Corbató 1968.

use crate::slots::{SetTable, SlotTable};
use uopcache_cache::{PwMeta, PwReplacementPolicy};
use uopcache_model::PwDesc;

/// CLOCK replacement: one reference bit per resident PW and a per-set hand
/// sweeping the slots in circular order. A hit (and an insertion) sets the
/// bit; the victim scan clears bits as it passes and evicts the first PW
/// found with its bit already clear. The hand always stops just past the
/// victim's slot, so successive victims advance monotonically around the set
/// (modulo `ways`).
///
/// # Examples
///
/// ```
/// use uopcache_cache::UopCache;
/// use uopcache_model::UopCacheConfig;
/// use uopcache_policies::ClockPolicy;
///
/// let cache = UopCache::new(UopCacheConfig::zen3(), Box::new(ClockPolicy::new()));
/// assert_eq!(cache.policy().name(), "CLOCK");
/// ```
#[derive(Clone, Debug, Default)]
pub struct ClockPolicy {
    refbit: SlotTable<u8>,
    hand: SetTable<u8>,
    ways: u32,
}

impl ClockPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        ClockPolicy {
            refbit: SlotTable::new(),
            hand: SetTable::new(),
            ways: 0,
        }
    }

    /// The hand position for `set` — the slot the next victim scan starts
    /// from. Exposed for the property wall (hand monotonicity modulo ways).
    pub fn hand(&self, set: usize) -> u8 {
        *self.hand.get(set)
    }
}

impl PwReplacementPolicy for ClockPolicy {
    fn name(&self) -> &'static str {
        "CLOCK"
    }

    fn prepare(&mut self, sets: usize, ways: u32) {
        self.refbit.reserve(sets, ways);
        self.hand.reserve(sets);
        self.ways = ways;
    }

    fn on_hit(&mut self, set: usize, meta: &PwMeta) {
        *self.refbit.get_mut(set, meta.slot) = 1;
    }

    fn on_insert(&mut self, set: usize, meta: &PwMeta) {
        // A fresh insertion was just referenced: it gets one full sweep of
        // grace before becoming a candidate.
        *self.refbit.get_mut(set, meta.slot) = 1;
    }

    fn on_evict(&mut self, set: usize, meta: &PwMeta) {
        *self.refbit.get_mut(set, meta.slot) = 0;
    }

    fn choose_victim(&mut self, set: usize, _incoming: &PwDesc, resident: &[PwMeta]) -> usize {
        // `resident` is ordered by slot; rotate the scan so it starts at the
        // first occupied slot at or past the hand.
        let hand = *self.hand.get(set);
        let start = resident.iter().position(|m| m.slot >= hand).unwrap_or(0);
        // First full cycle clears set bits; the second cycle then finds a
        // clear bit at the latest on its first probe.
        for k in 0..=resident.len() {
            let idx = (start + k) % resident.len();
            let m = &resident[idx];
            let bit = self.refbit.get_mut(set, m.slot);
            if *bit == 0 {
                let next = m.slot.wrapping_add(1);
                *self.hand.get_mut(set) = if u32::from(next) >= self.ways.max(1) {
                    0
                } else {
                    next
                };
                return idx;
            }
            *bit = 0;
        }
        unreachable!("a cleared bit is found within one extra probe");
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
    fn second_chance_spares_referenced_pws() {
        let mut p = ClockPolicy::new();
        p.prepare(4, 4);
        let (a, b) = (meta(0), meta(1));
        p.on_insert(0, &a);
        p.on_insert(0, &b);
        // Both bits set: the sweep clears a then b, wraps, and evicts a.
        assert_eq!(p.choose_victim(0, &incoming(), &[a, b]), 0);
        assert_eq!(p.hand(0), 1);
        // b's bit was cleared by that sweep, the replacement c was just
        // referenced: the hand (at b) evicts the unreferenced b and spares c.
        let c = meta(0);
        p.on_insert(0, &c);
        assert_eq!(p.choose_victim(0, &incoming(), &[c, b]), 1);
        assert_eq!(p.hand(0), 2);
    }

    #[test]
    fn hand_advances_past_victim_and_wraps() {
        let mut p = ClockPolicy::new();
        p.prepare(1, 4);
        let all = [meta(0), meta(1), meta(2), meta(3)];
        for m in &all {
            p.on_insert(0, m);
        }
        let v = p.choose_victim(0, &incoming(), &all);
        assert_eq!(v, 0);
        assert_eq!(p.hand(0), 1);
        let v = p.choose_victim(0, &incoming(), &all[1..]);
        assert_eq!(all[1..][v].slot, 1);
        assert_eq!(p.hand(0), 2);
        // Evicting the PW in the last slot wraps the hand to 0.
        let last = [meta(3)];
        p.on_insert(0, &last[0]);
        let v = p.choose_victim(0, &incoming(), &last);
        assert_eq!(v, 0);
        assert_eq!(p.hand(0), 0);
    }

    #[test]
    fn sets_are_independent() {
        let mut p = ClockPolicy::new();
        p.prepare(2, 4);
        let a = meta(0);
        p.on_insert(0, &a);
        p.choose_victim(0, &incoming(), &[a]);
        p.choose_victim(0, &incoming(), &[a]);
        assert_eq!(p.hand(0), 1);
        assert_eq!(p.hand(1), 0);
    }
}
