//! The least-recently-used baseline policy.

use crate::meta::PwMeta;
use crate::policy::PwReplacementPolicy;
use uopcache_model::PwDesc;

/// Least-recently-used replacement: evicts the resident PW with the oldest
/// `last_access`. The paper's baseline policy.
///
/// # Examples
///
/// ```
/// use uopcache_cache::{LruPolicy, UopCache};
/// use uopcache_model::UopCacheConfig;
///
/// let cache = UopCache::new(UopCacheConfig::zen3(), Box::new(LruPolicy::new()));
/// assert_eq!(cache.policy().name(), "LRU");
/// ```
#[derive(Clone, Debug, Default)]
pub struct LruPolicy {
    _private: (),
}

impl LruPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        LruPolicy { _private: () }
    }
}

impl PwReplacementPolicy for LruPolicy {
    fn name(&self) -> &'static str {
        "LRU"
    }

    fn on_hit(&mut self, _set: usize, _meta: &PwMeta) {}

    fn on_insert(&mut self, _set: usize, _meta: &PwMeta) {}

    fn on_evict(&mut self, _set: usize, _meta: &PwMeta) {}

    fn choose_victim(&mut self, _set: usize, _incoming: &PwDesc, resident: &[PwMeta]) -> usize {
        resident
            .iter()
            .enumerate()
            .min_by_key(|(_, m)| m.last_access)
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
    fn picks_oldest() {
        let mut p = LruPolicy::new();
        let resident = [meta(0x10, 9, 0), meta(0x20, 3, 1), meta(0x30, 7, 2)];
        let incoming = PwDesc::new(Addr::new(0x40), 4, 12, PwTermination::TakenBranch);
        assert_eq!(p.choose_victim(0, &incoming, &resident), 1);
    }

    #[test]
    fn ties_break_by_position() {
        let mut p = LruPolicy::new();
        let resident = [meta(0x10, 5, 0), meta(0x20, 5, 1)];
        let incoming = PwDesc::new(Addr::new(0x40), 4, 12, PwTermination::TakenBranch);
        assert_eq!(p.choose_victim(0, &incoming, &resident), 0);
    }
}
