//! Profiling helpers: per-start-address hit rates from a baseline run, the
//! input to profile-guided policies (Thermometer here, FURBYS in
//! `uopcache-core`).

use uopcache_cache::{LruPolicy, UopCache};
use uopcache_model::hash::FastHashMap;
use uopcache_model::{Addr, LookupTrace, UopCacheConfig};

/// Runs `trace` through an LRU cache and returns the **PW-granularity** hit
/// rate of every start address: each lookup counts 1, and only fully-served
/// lookups count as hits. This is the profile a straight port of Thermometer
/// (a BTB policy) uses — it is blind to micro-op costs and partial hits,
/// one of the gaps FURBYS closes.
pub fn lru_pw_hit_rates(trace: &LookupTrace, cfg: UopCacheConfig) -> FastHashMap<Addr, f64> {
    let mut cache = UopCache::new(cfg, Box::new(LruPolicy::new()));
    let mut hit: FastHashMap<Addr, u64> = FastHashMap::default();
    let mut total: FastHashMap<Addr, u64> = FastHashMap::default();
    for access in trace.iter() {
        let pw = access.pw();
        let result = cache.lookup(&pw);
        *total.entry(pw.start).or_insert(0) += 1;
        if result.is_full_hit() {
            *hit.entry(pw.start).or_insert(0) += 1;
        } else {
            cache.insert(&pw);
        }
    }
    total
        .into_iter()
        .map(|(a, t)| {
            let h = hit.get(&a).copied().unwrap_or(0);
            (a, if t == 0 { 0.0 } else { h as f64 / t as f64 })
        })
        .collect()
}

/// Converts per-access hit observations into per-start hit rates.
/// Generic building block for policies fed by other oracles.
pub fn hit_rates_from_observations<I>(observations: I) -> FastHashMap<Addr, f64>
where
    I: IntoIterator<Item = (Addr, u32, u32)>, // (start, hit_uops, total_uops)
{
    let mut hit: FastHashMap<Addr, u64> = FastHashMap::default();
    let mut total: FastHashMap<Addr, u64> = FastHashMap::default();
    for (a, h, t) in observations {
        *hit.entry(a).or_insert(0) += u64::from(h);
        *total.entry(a).or_insert(0) += u64::from(t);
    }
    total
        .into_iter()
        .map(|(a, t)| {
            let h = hit.get(&a).copied().unwrap_or(0);
            (a, if t == 0 { 0.0 } else { h as f64 / t as f64 })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_aggregate() {
        let rates = hit_rates_from_observations([
            (Addr::new(1), 4, 4),
            (Addr::new(1), 0, 4),
            (Addr::new(2), 0, 8),
        ]);
        assert!((rates[&Addr::new(1)] - 0.5).abs() < 1e-12);
        assert!(rates[&Addr::new(2)].abs() < 1e-12);
    }
}
