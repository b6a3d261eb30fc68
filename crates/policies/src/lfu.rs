//! Least-frequently-used eviction over the cache's own hit counters.

use uopcache_cache::{PwMeta, PwReplacementPolicy};
use uopcache_model::PwDesc;

/// Least-frequently-used replacement: evicts the resident PW with the fewest
/// hits since insertion (`PwMeta::hits`), so the counter resets naturally on
/// eviction and re-insertion — an in-cache LFU rather than a perfect-LFU
/// with external frequency history.
///
/// Ties are broken deterministically: equal hit counts fall back to the
/// least-recent `last_access`, and a full tie picks the lowest-slot resident
/// (the first element of the slice, which is ordered by slot).
///
/// # Examples
///
/// ```
/// use uopcache_cache::UopCache;
/// use uopcache_model::UopCacheConfig;
/// use uopcache_policies::LfuPolicy;
///
/// let cache = UopCache::new(UopCacheConfig::zen3(), Box::new(LfuPolicy::new()));
/// assert_eq!(cache.policy().name(), "LFU");
/// ```
#[derive(Clone, Debug, Default)]
pub struct LfuPolicy {
    _private: (),
}

impl LfuPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        LfuPolicy { _private: () }
    }
}

impl PwReplacementPolicy for LfuPolicy {
    fn name(&self) -> &'static str {
        "LFU"
    }

    fn on_hit(&mut self, _set: usize, _meta: &PwMeta) {}

    fn on_insert(&mut self, _set: usize, _meta: &PwMeta) {}

    fn on_evict(&mut self, _set: usize, _meta: &PwMeta) {}

    fn choose_victim(&mut self, _set: usize, _incoming: &PwDesc, resident: &[PwMeta]) -> usize {
        resident
            .iter()
            .enumerate()
            .min_by_key(|(_, m)| (m.hits, m.last_access))
            .map(|(i, _)| i)
            .expect("resident slice is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uopcache_model::{Addr, PwTermination};

    fn meta(slot: u8, hits: u32, last_access: u64) -> PwMeta {
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
            hits,
        }
    }

    fn incoming() -> PwDesc {
        PwDesc::new(Addr::new(0x900), 4, 12, PwTermination::TakenBranch)
    }

    #[test]
    fn picks_fewest_hits() {
        let mut p = LfuPolicy::new();
        let resident = [meta(0, 5, 1), meta(1, 2, 9), meta(2, 7, 3)];
        assert_eq!(p.choose_victim(0, &incoming(), &resident), 1);
    }

    #[test]
    fn frequency_ties_fall_back_to_recency() {
        let mut p = LfuPolicy::new();
        let resident = [meta(0, 2, 9), meta(1, 2, 4)];
        assert_eq!(p.choose_victim(0, &incoming(), &resident), 1);
    }

    #[test]
    fn full_ties_break_by_position() {
        let mut p = LfuPolicy::new();
        let resident = [meta(0, 2, 4), meta(1, 2, 4), meta(2, 2, 4)];
        assert_eq!(p.choose_victim(0, &incoming(), &resident), 0);
    }
}
