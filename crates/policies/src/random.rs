//! Random replacement (sanity baseline).

use uopcache_cache::{PwMeta, PwReplacementPolicy};
use uopcache_model::PwDesc;

/// Evicts a pseudo-random resident PW. Deterministic: uses a xorshift state
/// seeded at construction, so runs are reproducible.
///
/// # Examples
///
/// ```
/// use uopcache_cache::UopCache;
/// use uopcache_model::UopCacheConfig;
/// use uopcache_policies::RandomPolicy;
///
/// let cache = UopCache::new(UopCacheConfig::zen3(), Box::new(RandomPolicy::new(7)));
/// assert_eq!(cache.policy().name(), "Random");
/// ```
#[derive(Clone, Debug)]
pub struct RandomPolicy {
    state: u64,
}

impl RandomPolicy {
    /// Creates the policy with a seed.
    pub fn new(seed: u64) -> Self {
        RandomPolicy { state: seed | 1 }
    }

    fn next(&mut self) -> u64 {
        // xorshift64*.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

impl PwReplacementPolicy for RandomPolicy {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn on_hit(&mut self, _set: usize, _meta: &PwMeta) {}

    fn on_insert(&mut self, _set: usize, _meta: &PwMeta) {}

    fn on_evict(&mut self, _set: usize, _meta: &PwMeta) {}

    fn choose_victim(&mut self, _set: usize, _incoming: &PwDesc, resident: &[PwMeta]) -> usize {
        // Reduced modulo the slice length, so the value fits in usize.
        #[allow(clippy::cast_possible_truncation)]
        let idx = (self.next() % resident.len() as u64) as usize;
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uopcache_model::{Addr, PwTermination};

    #[test]
    fn deterministic_and_in_range() {
        let mk = |slot| PwMeta {
            desc: PwDesc::new(
                Addr::new(0x100 + slot as u64),
                4,
                12,
                PwTermination::TakenBranch,
            ),
            slot,
            entries: 1,
            inserted_at: 0,
            last_access: 0,
            hits: 0,
        };
        let resident = [mk(0), mk(1), mk(2)];
        let incoming = PwDesc::new(Addr::new(0x900), 4, 12, PwTermination::TakenBranch);
        let picks: Vec<usize> = {
            let mut p = RandomPolicy::new(11);
            (0..20)
                .map(|_| p.choose_victim(0, &incoming, &resident))
                .collect()
        };
        let picks2: Vec<usize> = {
            let mut p = RandomPolicy::new(11);
            (0..20)
                .map(|_| p.choose_victim(0, &incoming, &resident))
                .collect()
        };
        assert_eq!(picks, picks2);
        assert!(picks.iter().all(|&i| i < 3));
        // Not constant.
        assert!(picks.windows(2).any(|w| w[0] != w[1]));
    }
}
