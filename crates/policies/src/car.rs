//! CLOCK with adaptive replacement (CAR), Bansal & Modha, FAST 2004.

use crate::ghost::GhostRing;
use crate::slots::{SetTable, SlotTable};
use uopcache_cache::{PwMeta, PwReplacementPolicy};
use uopcache_model::PwDesc;

/// Clock tags for [`CarPolicy`]'s per-slot state.
const T1: u8 = 1;
const T2: u8 = 2;

/// CAR: ARC's adaptation with CLOCK's constant-time sweeps. Residents sit
/// on a recency clock (T1) or a frequency clock (T2) with one reference bit
/// each; hits only set the bit. The victim sweep runs the T1 clock while T1
/// holds at least `max(1, p)` PWs: an unreferenced PW is evicted (ghosted on
/// B1), a referenced one has its bit cleared and migrates to T2. Otherwise
/// the T2 clock runs, clearing bits until an unreferenced PW is evicted
/// (ghosted on B2). Ghost hits at insertion move the target `p` exactly as
/// in [ARC](crate::ArcPolicy).
///
/// # Examples
///
/// ```
/// use uopcache_cache::UopCache;
/// use uopcache_model::UopCacheConfig;
/// use uopcache_policies::CarPolicy;
///
/// let cache = UopCache::new(UopCacheConfig::zen3(), Box::new(CarPolicy::new()));
/// assert_eq!(cache.policy().name(), "CAR");
/// ```
#[derive(Clone, Debug, Default)]
pub struct CarPolicy {
    tag: SlotTable<u8>,
    refbit: SlotTable<u8>,
    b1: GhostRing,
    b2: GhostRing,
    p: SetTable<u8>,
    hand1: SetTable<u8>,
    hand2: SetTable<u8>,
    ways: u32,
}

impl CarPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        CarPolicy::default()
    }

    /// `(B1, B2)` ghost-list occupancy for `set`. Exposed for the property
    /// wall (ghost lists can never exceed the per-way capacity).
    pub fn ghost_lens(&self, set: usize) -> (u32, u32) {
        (self.b1.len(set), self.b2.len(set))
    }

    /// The adaptation target for `set` (T1's intended share, in ways).
    pub fn target(&self, set: usize) -> u32 {
        u32::from(*self.p.get(set))
    }

    /// One clock sweep over the residents currently tagged `list`, starting
    /// at `hand`. Returns the victim's index in `resident`; referenced T1
    /// members migrate to T2 instead of being spared in place.
    fn sweep(&mut self, set: usize, list: u8, resident: &[PwMeta]) -> Option<usize> {
        let hand = if list == T1 {
            *self.hand1.get(set)
        } else {
            *self.hand2.get(set)
        };
        let on_list = |tag: u8| if list == T1 { tag != T2 } else { tag == T2 };
        let start = resident
            .iter()
            .position(|m| m.slot >= hand && on_list(*self.tag.get(set, m.slot)))
            .or_else(|| {
                resident
                    .iter()
                    .position(|m| on_list(*self.tag.get(set, m.slot)))
            })?;
        // Two passes bound the scan: the first clears bits (or drains T1
        // into T2), the second meets a clear bit immediately.
        for _ in 0..=2 * resident.len() {
            for k in 0..resident.len() {
                let idx = (start + k) % resident.len();
                let m = &resident[idx];
                if !on_list(*self.tag.get(set, m.slot)) {
                    continue;
                }
                if *self.refbit.get(set, m.slot) == 0 {
                    let next = m.slot.wrapping_add(1);
                    let next = if u32::from(next) >= self.ways.max(1) {
                        0
                    } else {
                        next
                    };
                    *(if list == T1 {
                        self.hand1.get_mut(set)
                    } else {
                        self.hand2.get_mut(set)
                    }) = next;
                    return Some(idx);
                }
                *self.refbit.get_mut(set, m.slot) = 0;
                if list == T1 {
                    // A referenced T1 page earned a promotion; the sweep
                    // continues and may run T1 dry.
                    *self.tag.get_mut(set, m.slot) = T2;
                }
            }
            if list == T1 && !resident.iter().any(|m| on_list(*self.tag.get(set, m.slot))) {
                return None; // every T1 member migrated; fall back to T2
            }
        }
        unreachable!("a cleared bit is found within two passes");
    }
}

impl PwReplacementPolicy for CarPolicy {
    fn name(&self) -> &'static str {
        "CAR"
    }

    fn prepare(&mut self, sets: usize, ways: u32) {
        self.tag.reserve(sets, ways);
        self.refbit.reserve(sets, ways);
        self.b1.reserve(sets, ways);
        self.b2.reserve(sets, ways);
        self.p.reserve(sets);
        self.hand1.reserve(sets);
        self.hand2.reserve(sets);
        self.ways = ways;
    }

    fn on_hit(&mut self, set: usize, meta: &PwMeta) {
        *self.refbit.get_mut(set, meta.slot) = 1;
    }

    fn on_insert(&mut self, set: usize, meta: &PwMeta) {
        let start = meta.desc.start;
        let (b1_len, b2_len) = (self.b1.len(set), self.b2.len(set));
        let tag = if self.b1.remove(set, start) {
            let step = (b2_len / b1_len.max(1)).max(1);
            let p = self.p.get_mut(set);
            #[allow(clippy::cast_possible_truncation)] // clamped to ways ≤ 255
            {
                *p = (u32::from(*p) + step).min(self.ways.min(255)) as u8;
            }
            T2
        } else if self.b2.remove(set, start) {
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
        // CAR inserts with the reference bit clear — the bit is earned by a
        // hit, not granted at entry.
        *self.refbit.get_mut(set, meta.slot) = 0;
    }

    fn on_evict(&mut self, set: usize, meta: &PwMeta) {
        let tag = self.tag.get_mut(set, meta.slot);
        if *tag == T2 {
            self.b2.push(set, meta.desc.start);
        } else {
            self.b1.push(set, meta.desc.start);
        }
        *tag = 0;
        *self.refbit.get_mut(set, meta.slot) = 0;
    }

    fn choose_victim(&mut self, set: usize, _incoming: &PwDesc, resident: &[PwMeta]) -> usize {
        let in_t2 = |m: &PwMeta| *self.tag.get(set, m.slot) == T2;
        let t1_count = resident.iter().filter(|m| !in_t2(m)).count();
        let p = usize::try_from(self.target(set)).expect("u32 fits usize");
        let run_t1 = t1_count >= p.max(1);
        if run_t1 {
            if let Some(idx) = self.sweep(set, T1, resident) {
                return idx;
            }
        }
        // The T1 sweep can drain (every member referenced, all migrated to
        // T2 with cleared bits); the T2 clock then has victims it did not
        // have on its first run, so it gets a second turn.
        self.sweep(set, T2, resident)
            .or_else(|| self.sweep(set, T1, resident))
            .or_else(|| self.sweep(set, T2, resident))
            .expect("every resident sits on one of the two clocks")
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
    fn unreferenced_t1_is_evicted_first() {
        let mut p = CarPolicy::new();
        p.prepare(1, 4);
        let (a, b) = (meta(0), meta(1));
        p.on_insert(0, &a);
        p.on_insert(0, &b);
        p.on_hit(0, &a); // a referenced, b not
                         // Sweep clears a's bit, migrates a to T2, then evicts b.
        assert_eq!(p.choose_victim(0, &incoming(), &[a, b]), 1);
        assert_eq!(*p.tag.get(0, 0), T2, "referenced T1 member migrated");
    }

    #[test]
    fn t2_clock_runs_when_t1_is_under_target() {
        let mut p = CarPolicy::new();
        p.prepare(1, 4);
        let (a, b) = (meta(0), meta(1));
        p.on_insert(0, &a);
        p.on_insert(0, &b);
        p.on_hit(0, &a);
        p.choose_victim(0, &incoming(), &[a, b]); // migrates a to T2
                                                  // Now T1 is empty: the T2 clock must supply the victim.
        let only = [a];
        assert_eq!(p.choose_victim(0, &incoming(), &only), 0);
    }

    #[test]
    fn fully_referenced_t1_under_target_still_yields_a_victim() {
        let mut p = CarPolicy::new();
        p.prepare(1, 4);
        let (a, b) = (meta(0), meta(1));
        p.on_insert(0, &a);
        p.on_insert(0, &b);
        p.on_hit(0, &a);
        p.on_hit(0, &b);
        // Target above T1's population: the T2 clock runs first, finds
        // nothing, and the T1 sweep drains both referenced members into T2 —
        // the victim must come from the re-run T2 clock, not a panic.
        *p.p.get_mut(0) = 3;
        let v = p.choose_victim(0, &incoming(), &[a, b]);
        assert!(v < 2);
        assert_eq!(*p.tag.get(0, 0), T2);
        assert_eq!(*p.tag.get(0, 1), T2);
    }

    #[test]
    fn ghost_round_trip_adapts_target() {
        let mut p = CarPolicy::new();
        p.prepare(1, 4);
        let a = meta(0);
        p.on_insert(0, &a);
        p.on_evict(0, &a); // T1 -> B1
        assert_eq!(p.ghost_lens(0), (1, 0));
        p.on_insert(0, &a);
        assert_eq!(p.target(0), 1);
        assert_eq!(*p.tag.get(0, 0), T2);
    }
}
