//! Thermometer: profile-guided hot/warm/cold replacement
//! (Song et al., ISCA 2022), adapted from the BTB to prediction windows.

use uopcache_cache::{PwMeta, PwReplacementPolicy};
use uopcache_model::hash::FastHashMap;
use uopcache_model::{Addr, PwDesc};

/// Profile-derived temperature class of a PW.
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug)]
pub enum HotClass {
    /// Low profiled hit rate: evicted first, bypassed when the set is warm.
    Cold,
    /// Intermediate hit rate.
    Warm,
    /// High hit rate: protected.
    Hot,
}

/// Thermometer adapted to the micro-op cache: PWs are classified hot, warm or
/// cold from a profiling run's per-start hit rates; eviction prefers cold,
/// then warm, then hot (LRU within a class), and cold PWs are bypassed when
/// they would displace warmer residents. The paper's critique (§III-E): the
/// whole-execution average "lacks the mechanism to adjust to the transient
/// pattern" — exactly what FURBYS's pitfall detector adds.
///
/// # Examples
///
/// ```
/// use uopcache_model::hash::FastHashMap;
/// use uopcache_model::Addr;
/// use uopcache_policies::ThermometerPolicy;
///
/// let mut rates = FastHashMap::default();
/// rates.insert(Addr::new(0x100), 0.9);
/// rates.insert(Addr::new(0x200), 0.1);
/// let policy = ThermometerPolicy::from_hit_rates(&rates);
/// assert_eq!(policy.class_of(Addr::new(0x100)), uopcache_policies::HotClass::Hot);
/// ```
#[derive(Clone, Debug)]
pub struct ThermometerPolicy {
    /// Profiled classes, in a fast simulator-internal map: `class_of` runs
    /// per resident on every victim/bypass decision.
    classes: FastHashMap<Addr, HotClass>,
}

impl ThermometerPolicy {
    /// Default hot threshold on profiled hit rate.
    pub(crate) const HOT_THRESHOLD: f64 = 0.7;
    /// Default warm threshold on profiled hit rate.
    pub(crate) const WARM_THRESHOLD: f64 = 0.3;

    /// Builds the policy from profiled per-start hit rates with the default
    /// thresholds.
    pub fn from_hit_rates(rates: &FastHashMap<Addr, f64>) -> Self {
        Self::with_thresholds(rates, Self::HOT_THRESHOLD, Self::WARM_THRESHOLD)
    }

    /// Builds the policy with explicit thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `hot < warm` or either is outside `[0, 1]`.
    pub(crate) fn with_thresholds(rates: &FastHashMap<Addr, f64>, hot: f64, warm: f64) -> Self {
        assert!((0.0..=1.0).contains(&hot) && (0.0..=1.0).contains(&warm) && hot >= warm);
        let classes = rates
            .iter()
            .map(|(&a, &r)| {
                let class = if r >= hot {
                    HotClass::Hot
                } else if r >= warm {
                    HotClass::Warm
                } else {
                    HotClass::Cold
                };
                (a, class)
            })
            .collect();
        ThermometerPolicy { classes }
    }

    /// The class assigned to a start address (unprofiled addresses are cold).
    pub fn class_of(&self, start: Addr) -> HotClass {
        self.classes.get(&start).copied().unwrap_or(HotClass::Cold)
    }
}

impl PwReplacementPolicy for ThermometerPolicy {
    fn name(&self) -> &'static str {
        "Thermometer"
    }

    fn on_hit(&mut self, _set: usize, _meta: &PwMeta) {}

    fn on_insert(&mut self, _set: usize, _meta: &PwMeta) {}

    fn on_evict(&mut self, _set: usize, _meta: &PwMeta) {}

    fn should_bypass(
        &mut self,
        _set: usize,
        incoming: &PwDesc,
        needed_entries: u32,
        free_entries: u32,
        resident: &[PwMeta],
    ) -> bool {
        // A cold PW does not displace a set made entirely of warmer PWs.
        needed_entries > free_entries
            && self.class_of(incoming.start) == HotClass::Cold
            && !resident.is_empty()
            && resident
                .iter()
                .all(|m| self.class_of(m.desc.start) > HotClass::Cold)
    }

    fn choose_victim(&mut self, _set: usize, _incoming: &PwDesc, resident: &[PwMeta]) -> usize {
        resident
            .iter()
            .enumerate()
            .min_by_key(|(_, m)| (self.class_of(m.desc.start), m.last_access))
            .map(|(i, _)| i)
            .expect("resident slice is non-empty")
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

    fn policy() -> ThermometerPolicy {
        let mut rates = FastHashMap::default();
        rates.insert(Addr::new(0x100), 0.95); // hot
        rates.insert(Addr::new(0x200), 0.5); // warm
        rates.insert(Addr::new(0x300), 0.05); // cold
        ThermometerPolicy::from_hit_rates(&rates)
    }

    #[test]
    fn classification() {
        let p = policy();
        assert_eq!(p.class_of(Addr::new(0x100)), HotClass::Hot);
        assert_eq!(p.class_of(Addr::new(0x200)), HotClass::Warm);
        assert_eq!(p.class_of(Addr::new(0x300)), HotClass::Cold);
        assert_eq!(
            p.class_of(Addr::new(0x999)),
            HotClass::Cold,
            "unprofiled = cold"
        );
    }

    #[test]
    fn evicts_cold_before_warm_before_hot() {
        let mut p = policy();
        let hot = meta(0, 0x100, 1);
        let warm = meta(1, 0x200, 9);
        let cold = meta(2, 0x300, 5);
        let incoming = PwDesc::new(Addr::new(0x400), 4, 12, PwTermination::TakenBranch);
        assert_eq!(p.choose_victim(0, &incoming, &[hot, warm, cold]), 2);
        assert_eq!(p.choose_victim(0, &incoming, &[hot, warm]), 1);
        assert_eq!(p.choose_victim(0, &incoming, &[hot]), 0);
    }

    #[test]
    fn cold_bypasses_warm_set() {
        let mut p = policy();
        let hot = meta(0, 0x100, 1);
        let warm = meta(1, 0x200, 2);
        let cold_pw = PwDesc::new(Addr::new(0x300), 4, 12, PwTermination::TakenBranch);
        assert!(p.should_bypass(0, &cold_pw, 1, 0, &[hot, warm]));
        // With free space it inserts regardless of class.
        assert!(!p.should_bypass(0, &cold_pw, 1, 2, &[hot, warm]));
        // But a warm PW is never bypassed.
        let warm_pw = PwDesc::new(Addr::new(0x200), 4, 12, PwTermination::TakenBranch);
        assert!(!p.should_bypass(0, &warm_pw, 1, 0, &[hot, warm]));
        // And a cold PW inserts into a set that already has cold PWs.
        let cold_res = meta(2, 0x300, 3);
        assert!(!p.should_bypass(0, &cold_pw, 1, 0, &[hot, cold_res]));
    }

    #[test]
    #[should_panic(expected = "hot >= warm")]
    fn inverted_thresholds_rejected() {
        let _ = ThermometerPolicy::with_thresholds(&FastHashMap::default(), 0.2, 0.8);
    }
}
