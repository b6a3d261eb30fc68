//! Static re-reference interval prediction (SRRIP), Jaleel et al., ISCA 2010.

use crate::slots::SlotTable;
use uopcache_cache::{PwMeta, PwReplacementPolicy};
use uopcache_model::PwDesc;

/// Maximum RRPV for a 2-bit counter.
pub(crate) const RRPV_MAX: u8 = 3;
/// Insertion RRPV ("long re-reference interval").
pub(crate) const RRPV_INSERT: u8 = 2;

/// SRRIP with hit-priority promotion: 2-bit re-reference prediction values
/// per resident PW; hits promote to 0, insertions start at 2, victims are
/// PWs at 3 (aging everyone when none is at 3).
///
/// # Examples
///
/// ```
/// use uopcache_cache::UopCache;
/// use uopcache_model::UopCacheConfig;
/// use uopcache_policies::SrripPolicy;
///
/// let cache = UopCache::new(UopCacheConfig::zen3(), Box::new(SrripPolicy::new()));
/// assert_eq!(cache.policy().name(), "SRRIP");
/// ```
#[derive(Clone, Debug, Default)]
pub struct SrripPolicy {
    rrpv: SlotTable<u8>,
}

impl SrripPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        SrripPolicy {
            rrpv: SlotTable::new(),
        }
    }

    /// Victim selection over arbitrary `(slot, rrpv)` views — shared with
    /// FURBYS's fallback mode. Ages in place so the chosen victim's RRPV is
    /// `RRPV_MAX`.
    pub(crate) fn select_victim(
        rrpv: &mut SlotTable<u8>,
        set: usize,
        resident: &[PwMeta],
    ) -> usize {
        let max = resident
            .iter()
            .map(|m| *rrpv.get(set, m.slot))
            .max()
            .expect("resident slice is non-empty");
        let age = RRPV_MAX.saturating_sub(max);
        if age > 0 {
            for m in resident {
                let v = rrpv.get_mut(set, m.slot);
                *v = (*v + age).min(RRPV_MAX);
            }
        }
        resident
            .iter()
            .position(|m| *rrpv.get(set, m.slot) == RRPV_MAX)
            .expect("aging guarantees a distant PW")
    }
}

impl PwReplacementPolicy for SrripPolicy {
    fn name(&self) -> &'static str {
        "SRRIP"
    }

    fn prepare(&mut self, sets: usize, ways: u32) {
        self.rrpv.reserve(sets, ways);
    }

    fn on_hit(&mut self, set: usize, meta: &PwMeta) {
        *self.rrpv.get_mut(set, meta.slot) = 0;
    }

    fn on_insert(&mut self, set: usize, meta: &PwMeta) {
        *self.rrpv.get_mut(set, meta.slot) = RRPV_INSERT;
    }

    fn on_evict(&mut self, set: usize, meta: &PwMeta) {
        *self.rrpv.get_mut(set, meta.slot) = 0;
    }

    fn choose_victim(&mut self, set: usize, _incoming: &PwDesc, resident: &[PwMeta]) -> usize {
        Self::select_victim(&mut self.rrpv, set, resident)
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
    fn recently_hit_pw_is_protected() {
        let mut p = SrripPolicy::new();
        let a = meta(0);
        let b = meta(1);
        p.on_insert(0, &a);
        p.on_insert(0, &b);
        p.on_hit(0, &a); // a -> 0, b stays at 2
        let v = p.choose_victim(0, &incoming(), &[a, b]);
        assert_eq!(v, 1, "b has the larger RRPV after aging");
    }

    #[test]
    fn aging_reaches_max() {
        let mut p = SrripPolicy::new();
        let a = meta(0);
        p.on_insert(0, &a);
        // Immediately picking a victim ages 2 -> 3.
        let v = p.choose_victim(0, &incoming(), &[a]);
        assert_eq!(v, 0);
        assert_eq!(*p.rrpv.get(0, 0), RRPV_MAX);
    }

    #[test]
    fn sets_are_independent() {
        let mut p = SrripPolicy::new();
        let a = meta(0);
        p.on_insert(0, &a);
        p.on_hit(0, &a);
        p.on_insert(1, &a);
        assert_eq!(*p.rrpv.get(0, 0), 0);
        assert_eq!(*p.rrpv.get(1, 0), RRPV_INSERT);
    }

    #[test]
    fn eviction_resets_state_for_slot_reuse() {
        let mut p = SrripPolicy::new();
        let a = meta(0);
        p.on_insert(0, &a);
        p.on_evict(0, &a);
        assert_eq!(*p.rrpv.get(0, 0), 0);
    }
}
