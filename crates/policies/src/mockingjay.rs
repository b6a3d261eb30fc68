//! Mockingjay: mimicking Belady with sampled reuse-distance prediction
//! (Shah, Jain & Lin, HPCA 2022), adapted to prediction windows.

use crate::slots::SlotTable;
use uopcache_cache::{PwMeta, PwReplacementPolicy};
use uopcache_model::hash::FastHashMap;
use uopcache_model::{Addr, PwDesc};

/// Reuse distance assumed for never-seen PWs (in lookups).
const DEFAULT_RD: u64 = 64;
/// Every set feeds the reuse-distance predictor. The paper observes (§III-E)
/// that in the micro-op cache every "PC" maps to exactly one PW, so sampled
/// training cannot generalise across blocks the way it does in data caches:
/// "Mockingjay must sample all the sets to achieve high accuracy causing a
/// large space overhead" — which is exactly what this models. Raise this to
/// sample a subset of sets (at an accuracy cost).
const SAMPLE_MOD: usize = 1;
/// Bound on the sampler map (oldest entries are dropped wholesale).
const SAMPLER_CAP: usize = 1 << 14;
/// Bound on the reuse-distance predictor itself. Like the sampler it is
/// dropped wholesale at the cap, and both maps reserve this capacity at
/// `prepare` time so the steady-state hook path never touches the
/// allocator (the alloc-budget wall pins this at zero).
const RDP_CAP: usize = 1 << 14;

/// Mockingjay adapted to the micro-op cache: a reuse-distance predictor
/// (RDP) learns per-start-address reuse distances from sampled sets; every
/// resident PW carries an *estimated time of access* (ETA), and the victim is
/// the PW with the furthest ETA — an online imitation of Belady's MIN.
///
/// # Examples
///
/// ```
/// use uopcache_cache::UopCache;
/// use uopcache_model::UopCacheConfig;
/// use uopcache_policies::MockingjayPolicy;
///
/// let cache = UopCache::new(UopCacheConfig::zen3(), Box::new(MockingjayPolicy::new()));
/// assert_eq!(cache.policy().name(), "Mockingjay");
/// ```
#[derive(Clone, Debug)]
pub struct MockingjayPolicy {
    /// Exponentially-weighted predicted reuse distance per start address.
    rdp: FastHashMap<Addr, u64>,
    /// Last sampled access time per start address.
    sampler: FastHashMap<Addr, u64>,
    /// Per-slot estimated time of next access.
    eta: SlotTable<u64>,
    clock: u64,
}

impl Default for MockingjayPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl MockingjayPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        MockingjayPolicy {
            rdp: FastHashMap::default(),
            sampler: FastHashMap::default(),
            eta: SlotTable::new(),
            clock: 0,
        }
    }

    fn predicted_rd(&self, start: Addr) -> u64 {
        self.rdp.get(&start).copied().unwrap_or(DEFAULT_RD)
    }

    fn sample(&mut self, set: usize, start: Addr) {
        if SAMPLE_MOD > 1 && !set.is_multiple_of(SAMPLE_MOD) {
            return;
        }
        if let Some(last) = self.sampler.insert(start, self.clock) {
            let observed = self.clock - last;
            let e = self.rdp.entry(start).or_insert(observed);
            // EWMA with 1/4 step.
            *e = (*e * 3 + observed) / 4;
        }
        if self.sampler.len() > SAMPLER_CAP {
            self.sampler.clear();
        }
        if self.rdp.len() > RDP_CAP {
            self.rdp.clear();
        }
    }
}

impl PwReplacementPolicy for MockingjayPolicy {
    fn name(&self) -> &'static str {
        "Mockingjay"
    }

    fn prepare(&mut self, sets: usize, ways: u32) {
        self.eta.reserve(sets, ways);
        // Both maps stay under their caps (checked after every insert), so
        // reserving cap + 1 up front removes rehashing from the hot path.
        self.sampler.reserve(SAMPLER_CAP + 1);
        self.rdp.reserve(RDP_CAP + 1);
    }

    fn on_hit(&mut self, set: usize, meta: &PwMeta) {
        self.clock += 1;
        self.sample(set, meta.desc.start);
        *self.eta.get_mut(set, meta.slot) = self.clock + self.predicted_rd(meta.desc.start);
    }

    fn on_insert(&mut self, set: usize, meta: &PwMeta) {
        self.clock += 1;
        self.sample(set, meta.desc.start);
        *self.eta.get_mut(set, meta.slot) = self.clock + self.predicted_rd(meta.desc.start);
    }

    fn on_evict(&mut self, set: usize, meta: &PwMeta) {
        *self.eta.get_mut(set, meta.slot) = 0;
    }

    fn should_bypass(
        &mut self,
        set: usize,
        incoming: &PwDesc,
        needed_entries: u32,
        free_entries: u32,
        resident: &[PwMeta],
    ) -> bool {
        // Bypass when an eviction would be forced and the incoming PW's next
        // use is predicted further away than every resident's — inserting it
        // could only hurt.
        if resident.is_empty() || needed_entries <= free_entries {
            return false;
        }
        let incoming_eta = self.clock + self.predicted_rd(incoming.start);
        resident
            .iter()
            .all(|m| *self.eta.get(set, m.slot) < incoming_eta)
            && self.predicted_rd(incoming.start) > 4 * DEFAULT_RD
    }

    fn choose_victim(&mut self, set: usize, _incoming: &PwDesc, resident: &[PwMeta]) -> usize {
        // Overdue PWs (predicted reuse never happened) are the first
        // victims, most-overdue first; otherwise evict the furthest ETA.
        // LRU breaks ties so untrained PWs do not degenerate to slot-order
        // eviction.
        let clock = self.clock;
        let score = |eta: u64| -> u64 {
            if eta <= clock {
                // Overdue: strictly above any future ETA, ordered by how
                // long overdue.
                u64::MAX / 2 + (clock - eta)
            } else {
                eta
            }
        };
        resident
            .iter()
            .enumerate()
            .max_by_key(|(_, m)| {
                (
                    score(*self.eta.get(set, m.slot)),
                    std::cmp::Reverse(m.last_access),
                )
            })
            .map(|(i, _)| i)
            .expect("resident slice is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uopcache_model::PwTermination;

    fn meta(slot: u8, start: u64) -> PwMeta {
        PwMeta {
            desc: PwDesc::new(Addr::new(start), 4, 12, PwTermination::TakenBranch),
            slot,
            entries: 1,
            inserted_at: 0,
            last_access: 0,
            hits: 0,
        }
    }

    #[test]
    fn learns_short_reuse_distance_in_sampled_sets() {
        let mut p = MockingjayPolicy::new();
        let m = meta(0, 0x100);
        p.on_insert(0, &m); // set 0 is sampled
        p.on_hit(0, &m);
        p.on_hit(0, &m);
        assert!(p.predicted_rd(Addr::new(0x100)) <= 2 + DEFAULT_RD / 4 + 1);
    }

    #[test]
    fn every_set_trains() {
        // §III-E: in the micro-op cache each PC maps to one PW, so the
        // predictor must observe all sets.
        let mut p = MockingjayPolicy::new();
        let m = meta(0, 0x140);
        p.on_insert(1, &m);
        p.on_hit(1, &m);
        assert!(p.predicted_rd(Addr::new(0x140)) < DEFAULT_RD);
    }

    #[test]
    fn overdue_residents_are_evicted_first() {
        let mut p = MockingjayPolicy::new();
        let hot = meta(0, 0x100);
        // Train a short reuse distance, then let its ETA lapse.
        p.on_insert(0, &hot);
        p.on_hit(0, &hot);
        p.on_hit(0, &hot); // rd ~1, eta ~clock+1
        let fresh = meta(1, 0x200);
        for _ in 0..10 {
            // Advance the clock well past hot's ETA.
            p.on_insert(0, &meta(2, 0x300 + 64));
            p.on_evict(0, &meta(2, 0x300 + 64));
        }
        p.on_insert(0, &fresh); // eta = clock + default (future)
        let incoming = PwDesc::new(Addr::new(0x900), 4, 12, PwTermination::TakenBranch);
        let v = p.choose_victim(0, &incoming, &[hot, fresh]);
        assert_eq!(v, 0, "the overdue PW should be the victim");
    }

    #[test]
    fn victim_is_furthest_eta() {
        let mut p = MockingjayPolicy::new();
        let near = meta(0, 0x100);
        let far = meta(1, 0x200);
        // Train `near` to a short distance in a sampled set.
        p.on_insert(0, &near);
        p.on_hit(0, &near);
        p.on_hit(0, &near);
        p.on_insert(0, &far); // untrained: default (long) distance
        let incoming = PwDesc::new(Addr::new(0x900), 4, 12, PwTermination::TakenBranch);
        // Refresh near's ETA after far's insertion so clocks compare fairly.
        p.on_hit(0, &near);
        assert_eq!(p.choose_victim(0, &incoming, &[near, far]), 1);
    }

    #[test]
    fn sampler_is_bounded() {
        let mut p = MockingjayPolicy::new();
        for i in 0..(SAMPLER_CAP as u64 + 10) {
            let m = meta(0, 0x1000 + i * 64);
            p.on_insert(0, &m);
        }
        assert!(p.sampler.len() <= SAMPLER_CAP);
    }
}
