//! First-in-first-out replacement (sanity baseline).

use uopcache_cache::{PwMeta, PwReplacementPolicy};
use uopcache_model::PwDesc;

/// Evicts the oldest-inserted resident PW regardless of hits.
///
/// # Examples
///
/// ```
/// use uopcache_cache::UopCache;
/// use uopcache_model::UopCacheConfig;
/// use uopcache_policies::FifoPolicy;
///
/// let cache = UopCache::new(UopCacheConfig::zen3(), Box::new(FifoPolicy::new()));
/// assert_eq!(cache.policy().name(), "FIFO");
/// ```
#[derive(Clone, Debug, Default)]
pub struct FifoPolicy {
    _private: (),
}

impl FifoPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        FifoPolicy { _private: () }
    }
}

impl PwReplacementPolicy for FifoPolicy {
    fn name(&self) -> &'static str {
        "FIFO"
    }

    fn on_hit(&mut self, _set: usize, _meta: &PwMeta) {}

    fn on_insert(&mut self, _set: usize, _meta: &PwMeta) {}

    fn on_evict(&mut self, _set: usize, _meta: &PwMeta) {}

    fn choose_victim(&mut self, _set: usize, _incoming: &PwDesc, resident: &[PwMeta]) -> usize {
        resident
            .iter()
            .enumerate()
            .min_by_key(|(_, m)| m.inserted_at)
            .map(|(i, _)| i)
            .expect("resident slice is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uopcache_model::{Addr, PwTermination};

    #[test]
    fn ignores_recency() {
        let mk = |slot, inserted_at, last_access| PwMeta {
            desc: PwDesc::new(
                Addr::new(0x100 + slot as u64),
                4,
                12,
                PwTermination::TakenBranch,
            ),
            slot,
            entries: 1,
            inserted_at,
            last_access,
            hits: 0,
        };
        let mut p = FifoPolicy::new();
        // Oldest-inserted has the freshest access; FIFO still evicts it.
        let resident = [mk(0, 1, 99), mk(1, 5, 2)];
        let incoming = PwDesc::new(Addr::new(0x900), 4, 12, PwTermination::TakenBranch);
        assert_eq!(p.choose_victim(0, &incoming, &resident), 0);
    }
}
