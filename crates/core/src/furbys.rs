//! FURBYS: FLACK-based groUping-by-hit-Rate BYpassing-coldness
//! detecting-miSses — the practical online replacement policy.

use crate::hints::HintMap;
use std::collections::VecDeque;
use uopcache_cache::{PwMeta, PwReplacementPolicy};
use uopcache_model::{Addr, PwDesc};
use uopcache_policies::SlotTable;

const RRPV_MAX: u8 = 3;
const RRPV_INSERT: u8 = 2;

/// The FURBYS replacement policy (§V).
///
/// Hardware state per the paper's Fig. 7: 3 weight bits and 2 SRRIP RRPV bits
/// per entry, plus a two-slot *local miss-pitfall detector* per set recording
/// recently evicted ways. Decisions:
///
/// * **victim**: the resident PW with the minimum profiled weight (LRU breaks
///   ties); if that way was evicted recently (detector hit), the decision is
///   delegated to SRRIP for one round — evicting globally-hot but locally
///   cold PWs — then control returns to FURBYS;
/// * **bypass**: an incoming PW whose weight is below the set's minimum
///   resident weight minus `K` (default 1) is not inserted, saving insertion
///   energy and avoiding pollution.
///
/// # Examples
///
/// ```
/// use uopcache_core::{FurbysPolicy, HintMap};
/// use uopcache_cache::UopCache;
/// use uopcache_model::{Addr, UopCacheConfig};
///
/// let mut hints = HintMap::new(3);
/// hints.set(Addr::new(0x100), 7);
/// let cache = UopCache::new(
///     UopCacheConfig::zen3(),
///     Box::new(FurbysPolicy::new(hints)),
/// );
/// assert_eq!(cache.policy().name(), "FURBYS");
/// ```
#[derive(Clone, Debug)]
pub struct FurbysPolicy {
    hints: HintMap,
    /// Bypass margin K (paper: K = 1).
    k: u8,
    /// Pitfall-detector depth (paper: 2).
    detector_depth: usize,
    /// SRRIP metadata, maintained alongside the weights.
    rrpv: SlotTable<u8>,
    /// Per-set recently evicted windows (their start-address tags). The
    /// detector fires when the would-be victim is a window that was itself
    /// evicted recently — the `{A, I}^n` thrash of §V — not merely a reused
    /// way slot, which under capacity pressure is the common, benign case.
    recent_evicted: Vec<VecDeque<Addr>>,
    last_fallback: bool,
}

impl FurbysPolicy {
    /// Creates the policy with the paper's hyper-parameters (K = 1,
    /// detector depth 2).
    pub fn new(hints: HintMap) -> Self {
        Self::with_params(hints, 1, 2)
    }

    /// Creates the policy with explicit hyper-parameters (for the Fig. 20/21
    /// sensitivity studies). `detector_depth == 0` disables the pitfall
    /// detector; `k == u8::MAX` disables bypassing.
    pub(crate) fn with_params(hints: HintMap, k: u8, detector_depth: usize) -> Self {
        FurbysPolicy {
            hints,
            k,
            detector_depth,
            rrpv: SlotTable::new(),
            recent_evicted: Vec::new(),
            last_fallback: false,
        }
    }

    /// The profiled weight of a start address (unprofiled PWs weigh 0).
    pub(crate) fn weight_of(&self, start: Addr) -> u8 {
        self.hints.get(start)
    }

    /// Swaps the weight table, preserving all replacement metadata (SRRIP
    /// bits, pitfall detector). Used by the phase-aware extension.
    pub(crate) fn replace_hints(&mut self, hints: HintMap) {
        self.hints = hints;
    }

    fn detector(&mut self, set: usize) -> &mut VecDeque<Addr> {
        if self.recent_evicted.len() <= set {
            self.recent_evicted.resize_with(set + 1, VecDeque::new); // audit:allow(hot-path-alloc) — lazy per-set init; steady-state after every set is touched once
        }
        &mut self.recent_evicted[set]
    }

    fn record_eviction(&mut self, set: usize, start: Addr) {
        let depth = self.detector_depth;
        if depth == 0 {
            return;
        }
        let d = self.detector(set);
        d.push_back(start); // audit:allow(hot-path-alloc) — ring bounded at detector_depth; capacity warms to the bound and stays
        while d.len() > depth {
            d.pop_front();
        }
    }

    fn srrip_select(&mut self, set: usize, resident: &[PwMeta]) -> usize {
        let max = resident
            .iter()
            .map(|m| *self.rrpv.get(set, m.slot))
            .max()
            .expect("resident slice is non-empty");
        let age = RRPV_MAX.saturating_sub(max);
        if age > 0 {
            for m in resident {
                let v = self.rrpv.get_mut(set, m.slot);
                *v = (*v + age).min(RRPV_MAX);
            }
        }
        resident
            .iter()
            .position(|m| *self.rrpv.get(set, m.slot) == RRPV_MAX)
            .expect("aging guarantees a victim")
    }
}

impl PwReplacementPolicy for FurbysPolicy {
    fn name(&self) -> &'static str {
        "FURBYS"
    }

    fn prepare(&mut self, sets: usize, ways: u32) {
        self.rrpv.reserve(sets, ways);
        if self.recent_evicted.len() < sets {
            self.recent_evicted.resize_with(sets, VecDeque::new);
        }
        for d in &mut self.recent_evicted {
            d.reserve(self.detector_depth);
        }
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

    fn should_bypass(
        &mut self,
        _set: usize,
        incoming: &PwDesc,
        needed_entries: u32,
        free_entries: u32,
        resident: &[PwMeta],
    ) -> bool {
        if self.k == u8::MAX || needed_entries <= free_entries || resident.is_empty() {
            return false;
        }
        let min_resident = resident
            .iter()
            .map(|m| self.weight_of(m.desc.start))
            .min()
            .expect("resident slice is non-empty");
        // Bypass if weight(incoming) < min(resident) - K.
        u32::from(self.weight_of(incoming.start)) + u32::from(self.k) < u32::from(min_resident)
    }

    fn choose_victim(&mut self, set: usize, _incoming: &PwDesc, resident: &[PwMeta]) -> usize {
        // FURBYS pick: minimum weight, LRU tiebreak.
        let furbys_idx = resident
            .iter()
            .enumerate()
            .min_by_key(|(_, m)| (self.weight_of(m.desc.start), m.last_access))
            .map(|(i, _)| i)
            .expect("resident slice is non-empty");
        let furbys_start = resident[furbys_idx].desc.start;
        let pitfall = self.detector_depth > 0
            && self
                .recent_evicted
                .get(set)
                .is_some_and(|d| d.contains(&furbys_start));
        let chosen = if pitfall {
            // The same window is being evicted repeatedly while still being
            // re-fetched: a locally-hot PW whose global weight undersells it.
            // Delegate one decision to SRRIP, which protects recently-hit
            // windows regardless of profile.
            self.last_fallback = true;
            self.srrip_select(set, resident)
        } else {
            self.last_fallback = false;
            furbys_idx
        };
        self.record_eviction(set, resident[chosen].desc.start);
        chosen
    }

    fn last_selection_was_fallback(&self) -> bool {
        self.last_fallback
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uopcache_model::PwTermination;

    fn meta(slot: u8, start: u64, last_access: u64) -> PwMeta {
        PwMeta {
            desc: PwDesc::new(Addr::new(start), 4, 12, PwTermination::TakenBranch),
            slot,
            entries: 1,
            inserted_at: 0,
            last_access,
            hits: 0,
        }
    }

    fn hints(pairs: &[(u64, u8)]) -> HintMap {
        let mut h = HintMap::new(3);
        for &(a, w) in pairs {
            h.set(Addr::new(a), w);
        }
        h
    }

    fn incoming(start: u64) -> PwDesc {
        PwDesc::new(Addr::new(start), 4, 12, PwTermination::TakenBranch)
    }

    #[test]
    fn evicts_minimum_weight() {
        let mut p = FurbysPolicy::new(hints(&[(0x100, 7), (0x200, 2), (0x300, 5)]));
        let resident = [meta(0, 0x100, 1), meta(1, 0x200, 9), meta(2, 0x300, 5)];
        assert_eq!(p.choose_victim(0, &incoming(0x900), &resident), 1);
        assert!(!p.last_selection_was_fallback());
    }

    #[test]
    fn lru_breaks_weight_ties() {
        let mut p = FurbysPolicy::new(hints(&[(0x100, 2), (0x200, 2)]));
        let resident = [meta(0, 0x100, 9), meta(1, 0x200, 3)];
        assert_eq!(p.choose_victim(0, &incoming(0x900), &resident), 1);
    }

    #[test]
    fn bypass_below_min_minus_k() {
        let mut p = FurbysPolicy::new(hints(&[(0x100, 5), (0x200, 4), (0x900, 2)]));
        let resident = [meta(0, 0x100, 1), meta(1, 0x200, 2)];
        // weight 2 < min 4 - K 1 => bypass (2 + 1 < 4).
        assert!(p.should_bypass(0, &incoming(0x900), 1, 0, &resident));
        // weight 3 (unprofiled would be 0): with weight exactly min-K, insert.
        let mut p2 = FurbysPolicy::new(hints(&[(0x100, 5), (0x200, 4), (0x900, 3)]));
        assert!(!p2.should_bypass(0, &incoming(0x900), 1, 0, &resident));
        // Free space: never bypass.
        assert!(!p.should_bypass(0, &incoming(0x900), 1, 2, &resident));
    }

    #[test]
    fn disabled_bypass_with_k_max() {
        let mut p = FurbysPolicy::with_params(hints(&[(0x100, 7)]), u8::MAX, 2);
        let resident = [meta(0, 0x100, 1)];
        assert!(!p.should_bypass(0, &incoming(0x900), 1, 0, &resident));
    }

    #[test]
    fn pitfall_detector_degrades_to_srrip_once() {
        let mut p = FurbysPolicy::new(hints(&[(0x100, 0), (0x200, 7), (0x300, 7)]));
        let a = meta(0, 0x100, 5);
        let b = meta(1, 0x200, 1);
        let c = meta(2, 0x300, 2);
        // Maintain SRRIP state: b and c inserted long ago, b was hit.
        p.on_insert(0, &b);
        p.on_insert(0, &c);
        p.on_hit(0, &b); // b: rrpv 0, c: rrpv 2
        p.on_insert(0, &a);

        // First eviction: weight-0 PW in slot 0.
        assert_eq!(p.choose_victim(0, &incoming(0x900), &[a, b, c]), 0);
        assert!(!p.last_selection_was_fallback());
        p.on_evict(0, &a);

        // The same PW returns to slot 0, gets hit (the `{A, I}^n` pattern of
        // §V: it is locally hot), and would be chosen again: the detector
        // fires and SRRIP picks instead — protecting the just-hit PW and
        // evicting the distant-RRPV resident c.
        p.on_insert(0, &a);
        p.on_hit(0, &a);
        let v = p.choose_victim(0, &incoming(0x900), &[a, b, c]);
        assert!(p.last_selection_was_fallback());
        assert_eq!(v, 2, "SRRIP evicts the distant-RRPV resident");
    }

    #[test]
    fn detector_depth_zero_disables_fallback() {
        let mut p = FurbysPolicy::with_params(hints(&[(0x100, 0), (0x200, 7)]), 1, 0);
        let a = meta(0, 0x100, 5);
        let b = meta(1, 0x200, 1);
        for _ in 0..3 {
            assert_eq!(p.choose_victim(0, &incoming(0x900), &[a, b]), 0);
            assert!(!p.last_selection_was_fallback());
        }
    }

    #[test]
    fn unprofiled_pws_weigh_zero() {
        let p = FurbysPolicy::new(hints(&[]));
        assert_eq!(p.weight_of(Addr::new(0xdead)), 0);
    }
}
