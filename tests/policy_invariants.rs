//! Property-style invariants over the cache substrate and every replacement
//! policy: capacity is never exceeded, the books always balance, a single-set
//! cache has no conflict misses, and offline oracles respect their bounds.
//!
//! Each property runs many rounds of seeded-PRNG trace generation (the
//! workspace's deterministic [`Prng`]), so failures reproduce exactly from
//! the printed round number. Every policy is driven through
//! [`CheckedPolicy`], the `strict-invariants` conformance wrapper, so any
//! violation of the replacement-policy contract panics at the offending hook.

use uopcache::cache::checked::verify_stats;
use uopcache::cache::{CheckedPolicy, LruPolicy, PwReplacementPolicy, UopCache};
use uopcache::core::{FurbysPolicy, HintMap};
use uopcache::model::rng::{Prng, Rng};
use uopcache::model::{Addr, LookupTrace, PwAccess, PwDesc, PwTermination, UopCacheConfig};
use uopcache::offline::BeladyPolicy;
use uopcache::policies::{
    run_trace, FifoPolicy, GhrpPolicy, MockingjayPolicy, RandomPolicy, ShipPlusPlusPolicy,
    SrripPolicy, ThermometerPolicy,
};

fn small_cfg(entries: u32, ways: u32) -> UopCacheConfig {
    UopCacheConfig {
        entries,
        ways,
        uops_per_entry: 8,
        switch_penalty: 1,
        inclusive_with_l1i: true,
        max_entries_per_pw: ways.min(4),
    }
}

/// A short trace over a small address universe with variable uop counts (so
/// multi-entry PWs and overlapping windows both occur).
fn random_trace(rng: &mut Prng, max_len: usize) -> LookupTrace {
    let len = rng.gen_range(1..max_len.max(2));
    (0..len)
        .map(|_| {
            let slot = rng.gen_range(0..24u64);
            let uops = rng.gen_range(1..28u32);
            let start = 0x1000 + slot * 64;
            PwAccess::new(PwDesc::new(
                Addr::new(start),
                uops,
                uops * 3,
                PwTermination::TakenBranch,
            ))
        })
        .collect()
}

/// Every policy under test, each wrapped in the conformance checker. The
/// nine online policies plus the Belady oracle.
fn policies_under_test(trace: &LookupTrace, ways: u32) -> Vec<Box<dyn PwReplacementPolicy>> {
    let mut hints = HintMap::new(3);
    hints.set(Addr::new(0x1000), 7);
    hints.set(Addr::new(0x1040), 3);
    let rates = uopcache::model::hash::FastHashMap::from_iter([
        (Addr::new(0x1000), 0.9),
        (Addr::new(0x1080), 0.4),
        (Addr::new(0x10c0), 0.05),
    ]);
    let bare: Vec<Box<dyn PwReplacementPolicy>> = vec![
        Box::new(LruPolicy::new()),
        Box::new(FifoPolicy::new()),
        Box::new(RandomPolicy::new(99)),
        Box::new(SrripPolicy::new()),
        Box::new(ShipPlusPlusPolicy::new()),
        Box::new(GhrpPolicy::new()),
        Box::new(MockingjayPolicy::new()),
        Box::new(ThermometerPolicy::from_hit_rates(&rates)),
        Box::new(FurbysPolicy::new(hints)),
        Box::new(BeladyPolicy::from_trace(trace)),
    ];
    bare.into_iter()
        .map(|p| Box::new(CheckedPolicy::new(p, ways)) as Box<dyn PwReplacementPolicy>)
        .collect()
}

#[test]
fn occupancy_and_books_hold_for_every_policy() {
    let mut rng = Prng::seed_from_u64(0xC0FFEE);
    for round in 0..48 {
        let trace = random_trace(&mut rng, 120);
        let cfg = small_cfg(8, 4);
        for policy in policies_under_test(&trace, cfg.ways) {
            let name = policy.name();
            let mut cache = UopCache::new(cfg, policy);
            let stats = run_trace(&mut cache, &trace);
            assert!(
                cache.occupied_entries() <= cfg.entries,
                "round {round} {name}: overfull"
            );
            assert_eq!(stats.lookups, trace.len() as u64, "round {round} {name}");
            verify_stats(&stats);
        }
    }
}

#[test]
fn single_set_cache_has_no_conflict_misses() {
    // entries == ways: fully associative; the 3C classifier must report
    // zero conflict misses.
    let mut rng = Prng::seed_from_u64(0xBEEF);
    for round in 0..48 {
        let trace = random_trace(&mut rng, 100);
        let cfg = small_cfg(8, 8);
        let mut cache = UopCache::new(
            cfg,
            Box::new(CheckedPolicy::new(LruPolicy::new(), cfg.ways)),
        );
        cache.enable_classification();
        let stats = run_trace(&mut cache, &trace);
        assert_eq!(stats.conflict_miss_uops, 0, "round {round}: {stats:?}");
        assert_eq!(
            stats.cold_miss_uops + stats.capacity_miss_uops + stats.conflict_miss_uops,
            stats.uops_missed,
            "round {round}"
        );
    }
}

#[test]
fn resident_window_is_always_the_largest_seen_since_eviction() {
    // The upgrade path must keep the larger of two overlapping windows.
    // 4 sets x 64 ways: at most 6 starts x 4 entries per set, so nothing
    // is ever evicted.
    let mut rng = Prng::seed_from_u64(0xFACE);
    for round in 0..48 {
        let trace = random_trace(&mut rng, 80);
        let cfg = small_cfg(256, 64);
        let mut cache = UopCache::new(
            cfg,
            Box::new(CheckedPolicy::new(LruPolicy::new(), cfg.ways)),
        );
        let mut max_seen: uopcache::model::hash::FastHashMap<Addr, u32> = Default::default();
        for access in trace.iter() {
            let result = cache.lookup(&access.pw());
            if !result.is_full_hit() {
                cache.insert(&access.pw());
            }
            let cacheable = access.pw().entries(cfg.uops_per_entry) <= cfg.max_entries_per_pw;
            if cacheable {
                let e = max_seen.entry(access.pw().start).or_insert(0);
                *e = (*e).max(access.pw().uops);
                assert_eq!(
                    cache.resident_uops(access.pw().start),
                    Some(*e),
                    "round {round}: largest window must be resident"
                );
            }
        }
    }
}

#[test]
fn belady_never_loses_to_fifo_badly() {
    // A weak-but-universal bound: the oracle is never *worse* than FIFO
    // by more than the cost of one window (tie noise on tiny traces).
    let mut rng = Prng::seed_from_u64(0xDEAD);
    for round in 0..48 {
        let trace = random_trace(&mut rng, 150);
        let cfg = small_cfg(8, 4);
        let mut fifo = UopCache::new(
            cfg,
            Box::new(CheckedPolicy::new(FifoPolicy::new(), cfg.ways)),
        );
        let fifo_stats = run_trace(&mut fifo, &trace);
        let mut bel = UopCache::new(
            cfg,
            Box::new(CheckedPolicy::new(
                BeladyPolicy::from_trace(&trace),
                cfg.ways,
            )),
        );
        let bel_stats = run_trace(&mut bel, &trace);
        assert!(
            bel_stats.uops_missed <= fifo_stats.uops_missed + 28,
            "round {round}: belady {} vs fifo {}",
            bel_stats.uops_missed,
            fifo_stats.uops_missed
        );
    }
}

#[test]
fn furbys_bypass_never_fires_with_free_space() {
    let mut rng = Prng::seed_from_u64(0xF00D);
    for round in 0..48 {
        let trace = random_trace(&mut rng, 60);
        let cfg = small_cfg(64, 8);
        let mut hints = HintMap::new(3);
        for i in 0..24u64 {
            hints.set(Addr::new(0x1000 + i * 64), (i % 8) as u8);
        }
        let mut cache = UopCache::new(
            cfg,
            Box::new(CheckedPolicy::new(FurbysPolicy::new(hints), cfg.ways)),
        );
        let stats = run_trace(&mut cache, &trace);
        assert!(stats.bypasses <= stats.lookups, "round {round}");
    }
}

#[test]
fn slot_recycling_survives_heavy_eviction_churn() {
    // Regression test for PwSet slot recycling: a single-set cache under
    // constant eviction pressure reuses freed slot ids on nearly every
    // insertion. The CheckedPolicy wrapper verifies each reuse is preceded
    // by an eviction and that slot ids never alias two live windows.
    let mut rng = Prng::seed_from_u64(0x51075);
    let cfg = small_cfg(4, 4); // one set, four entry slots
    let mut cache = UopCache::new(
        cfg,
        Box::new(CheckedPolicy::new(LruPolicy::new(), cfg.ways)),
    );
    for _ in 0..2_000 {
        let slot = rng.gen_range(0..12u64);
        let uops = rng.gen_range(1..28u32);
        let pw = PwDesc::new(
            Addr::new(0x1000 + slot * 64),
            uops,
            uops * 3,
            PwTermination::TakenBranch,
        );
        if !cache.lookup(&pw).is_full_hit() {
            cache.insert(&pw);
        }
        assert!(cache.occupied_entries() <= cfg.entries);
    }
    verify_stats(cache.stats());
}

#[test]
fn policies_under_test_have_distinct_names() {
    let trace: LookupTrace = std::iter::once(PwAccess::new(PwDesc::new(
        Addr::new(0x1000),
        4,
        12,
        PwTermination::TakenBranch,
    )))
    .collect();
    let names: Vec<&str> = policies_under_test(&trace, 4)
        .iter()
        .map(|p| p.name())
        .collect();
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "{names:?}");
}
