//! Most-recently-used eviction — the classic anti-LRU for cyclic scans.

use uopcache_cache::{PwMeta, PwReplacementPolicy};
use uopcache_model::PwDesc;

/// Most-recently-used replacement: evicts the resident PW with the *newest*
/// `last_access`. Pathological on temporal-locality workloads but optimal on
/// looping scans larger than the set — included in the zoo so the dueling
/// and identification machinery has a maximally LRU-unlike reference point.
///
/// # Examples
///
/// ```
/// use uopcache_cache::UopCache;
/// use uopcache_model::UopCacheConfig;
/// use uopcache_policies::MruPolicy;
///
/// let cache = UopCache::new(UopCacheConfig::zen3(), Box::new(MruPolicy::new()));
/// assert_eq!(cache.policy().name(), "MRU");
/// ```
#[derive(Clone, Debug, Default)]
pub struct MruPolicy {
    _private: (),
}

impl MruPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        MruPolicy { _private: () }
    }
}

impl PwReplacementPolicy for MruPolicy {
    fn name(&self) -> &'static str {
        "MRU"
    }

    fn on_hit(&mut self, _set: usize, _meta: &PwMeta) {}

    fn on_insert(&mut self, _set: usize, _meta: &PwMeta) {}

    fn on_evict(&mut self, _set: usize, _meta: &PwMeta) {}

    fn choose_victim(&mut self, _set: usize, _incoming: &PwDesc, resident: &[PwMeta]) -> usize {
        // min_by_key over the negated key rather than max_by_key: Rust's
        // max_by_key returns the *last* maximum, and the wall pins ties to
        // the first (lowest-slot) resident like every other zoo policy.
        resident
            .iter()
            .enumerate()
            .min_by_key(|(_, m)| u64::MAX - m.last_access)
            .map(|(i, _)| i)
            .expect("resident slice is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uopcache_model::{Addr, PwTermination};

    fn meta(start: u64, last_access: u64, slot: u8) -> PwMeta {
        PwMeta {
            desc: PwDesc::new(Addr::new(start), 4, 12, PwTermination::TakenBranch),
            slot,
            entries: 1,
            inserted_at: 0,
            last_access,
            hits: 0,
        }
    }

    #[test]
    fn picks_newest() {
        let mut p = MruPolicy::new();
        let resident = [meta(0x10, 3, 0), meta(0x20, 9, 1), meta(0x30, 7, 2)];
        let incoming = PwDesc::new(Addr::new(0x40), 4, 12, PwTermination::TakenBranch);
        assert_eq!(p.choose_victim(0, &incoming, &resident), 1);
    }

    #[test]
    fn ties_break_by_position() {
        let mut p = MruPolicy::new();
        let resident = [meta(0x10, 5, 0), meta(0x20, 5, 1)];
        let incoming = PwDesc::new(Addr::new(0x40), 4, 12, PwTermination::TakenBranch);
        assert_eq!(p.choose_victim(0, &incoming, &resident), 0);
    }
}
