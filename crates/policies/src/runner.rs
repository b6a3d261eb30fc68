//! A synchronous insert-on-miss trace driver for placement-only experiments.

use uopcache_cache::UopCache;
use uopcache_model::{LookupTrace, UopCacheStats};

/// Drives `trace` through `cache` with the simple synchronous protocol:
/// every full or partial miss is followed immediately by an insertion of the
/// (full) requested window. No decode-latency asynchrony, no L1i inclusion —
/// use `uopcache-sim` for the timed model.
///
/// Returns the cache statistics accumulated over this run.
///
/// # Examples
///
/// ```
/// use uopcache_cache::{LruPolicy, UopCache};
/// use uopcache_model::UopCacheConfig;
/// use uopcache_policies::run_trace;
/// use uopcache_trace::{build_trace, AppId, InputVariant};
///
/// let trace = build_trace(AppId::Postgres, InputVariant::default(), 2_000);
/// let mut cache = UopCache::new(UopCacheConfig::zen3(), Box::new(LruPolicy::new()));
/// let stats = run_trace(&mut cache, &trace);
/// assert_eq!(stats.lookups, 2_000);
/// ```
pub fn run_trace(cache: &mut UopCache, trace: &LookupTrace) -> UopCacheStats {
    let before = *cache.stats();
    for access in trace.iter() {
        let pw = access.pw();
        let result = cache.lookup(&pw);
        if !result.is_full_hit() {
            cache.insert(&pw);
        }
    }
    *cache.stats() - before
}

/// As [`run_trace`], additionally returning per-access observations
/// `(start, hit_uops, total_uops)` — the raw material for hit-rate profiles.
pub fn run_trace_observed(
    cache: &mut UopCache,
    trace: &LookupTrace,
) -> (UopCacheStats, Vec<(uopcache_model::Addr, u32, u32)>) {
    let before = *cache.stats();
    let mut obs = Vec::with_capacity(trace.len());
    for access in trace.iter() {
        let pw = access.pw();
        let result = cache.lookup(&pw);
        obs.push((pw.start, result.hit_uops(), pw.uops));
        if !result.is_full_hit() {
            cache.insert(&pw);
        }
    }
    (*cache.stats() - before, obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        FifoPolicy, GhrpPolicy, MockingjayPolicy, RandomPolicy, ShipPlusPlusPolicy, SrripPolicy,
    };
    use uopcache_cache::LruPolicy;
    use uopcache_model::UopCacheConfig;
    use uopcache_trace::{build_trace, AppId, InputVariant};

    #[test]
    fn all_policies_run_and_balance_their_books() {
        let trace = build_trace(AppId::Kafka, InputVariant(0), 8_000);
        let policies: Vec<Box<dyn uopcache_cache::PwReplacementPolicy>> = vec![
            Box::new(LruPolicy::new()),
            Box::new(SrripPolicy::new()),
            Box::new(ShipPlusPlusPolicy::new()),
            Box::new(GhrpPolicy::new()),
            Box::new(MockingjayPolicy::new()),
            Box::new(FifoPolicy::new()),
            Box::new(RandomPolicy::new(3)),
        ];
        for policy in policies {
            let name = policy.name();
            let mut cache = UopCache::new(UopCacheConfig::zen3(), policy);
            let s = run_trace(&mut cache, &trace);
            assert_eq!(s.lookups, 8_000, "{name}");
            assert_eq!(s.uops_hit + s.uops_missed, s.uops_requested, "{name}");
            assert_eq!(
                s.lookups,
                s.pw_hits + s.pw_partial_hits + s.pw_misses,
                "{name}"
            );
            assert!(s.uop_miss_rate() > 0.0 && s.uop_miss_rate() < 1.0, "{name}");
        }
    }

    #[test]
    fn stats_are_delta_not_cumulative() {
        let trace = build_trace(AppId::Postgres, InputVariant(0), 1_000);
        let mut cache = UopCache::new(UopCacheConfig::zen3(), Box::new(LruPolicy::new()));
        let first = run_trace(&mut cache, &trace);
        let second = run_trace(&mut cache, &trace);
        assert_eq!(first.lookups, 1_000);
        assert_eq!(second.lookups, 1_000);
        // Second pass hits more (warm cache).
        assert!(second.uops_missed <= first.uops_missed);
    }

    #[test]
    fn better_policies_beat_random_on_skewed_workloads() {
        let trace = build_trace(AppId::Python, InputVariant(0), 30_000);
        let run = |policy: Box<dyn uopcache_cache::PwReplacementPolicy>| {
            let mut cache = UopCache::new(UopCacheConfig::zen3(), policy);
            run_trace(&mut cache, &trace).uop_miss_rate()
        };
        let lru = run(Box::new(LruPolicy::new()));
        let random = run(Box::new(RandomPolicy::new(1)));
        assert!(
            lru < random * 1.05,
            "LRU {lru} should not lose badly to Random {random}"
        );
    }
}
