//! Exhaustive offline-optimal replacement for *tiny* traces, by state-space
//! search over cache contents.
//!
//! Optimal replacement with variable-size, variable-cost objects is
//! NP-complete (Hosseini-Khayat, 2000 — the paper's ref. 41), so this solver is
//! exponential and only usable for validation: it establishes the true
//! minimum micro-op miss cost on small instances, against which Belady, FOO
//! and FLACK can be measured. FLACK is *near*-optimal; this module is how the
//! test suite keeps that claim honest.

use uopcache_model::hash::FastHashMap;
use uopcache_model::{Addr, LookupTrace, UopCacheConfig};

/// Result of the exhaustive search.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct OptimalCost {
    /// Minimum achievable missed micro-ops over the trace.
    pub missed_uops: u64,
    /// States explored (for diagnostics / guarding against blow-up).
    pub states_explored: u64,
}

/// Computes the minimum total missed micro-ops for `trace` on a cache with
/// `cfg`'s geometry, exploring all keep/evict/bypass choices.
///
/// Semantics match the synchronous placement model used by the replay layer:
/// a lookup fully hits if a resident window with the same start covers it;
/// a shorter resident window yields a partial hit for its overlap; after any
/// non-full hit the (full) window may be inserted — evicting any subset of
/// residents — or bypassed.
///
/// # Panics
///
/// Panics if the search exceeds an internal state budget (use traces of at
/// most a few dozen accesses over a handful of windows).
///
/// # Examples
///
/// ```
/// use uopcache_model::{Addr, LookupTrace, PwAccess, PwDesc, PwTermination, UopCacheConfig};
/// use uopcache_offline::optimal::optimal_missed_uops;
///
/// let acc = |s: u64, u: u32| {
///     PwAccess::new(PwDesc::new(Addr::new(s), u, u * 3, PwTermination::TakenBranch))
/// };
/// // One window, accessed twice: only the cold miss is unavoidable.
/// let trace: LookupTrace = [acc(0, 4), acc(0, 4)].into_iter().collect();
/// let cfg = UopCacheConfig { entries: 2, ways: 2, uops_per_entry: 8,
///     switch_penalty: 1, inclusive_with_l1i: true, max_entries_per_pw: 2 };
/// assert_eq!(optimal_missed_uops(&trace, &cfg).missed_uops, 4);
/// ```
pub fn optimal_missed_uops(trace: &LookupTrace, cfg: &UopCacheConfig) -> OptimalCost {
    // Canonical window universe: distinct start addresses with, per access,
    // the looked-up uop count. Cache state = per start, the resident uop
    // count (0 = absent). Windows are grouped by set; capacity applies per
    // set in entries.
    let accesses = trace.accesses();
    let mut starts: Vec<Addr> = Vec::new();
    let mut start_idx: FastHashMap<Addr, usize> = FastHashMap::default();
    for a in accesses {
        start_idx.entry(a.pw().start).or_insert_with(|| {
            starts.push(a.pw().start);
            starts.len() - 1
        });
    }
    assert!(
        starts.len() <= 8,
        "exhaustive solver: at most 8 distinct windows"
    );
    assert!(
        accesses.len() <= 40,
        "exhaustive solver: at most 40 accesses"
    );

    let sets: Vec<usize> = starts.iter().map(|&s| cfg.set_index_for(s, 64)).collect();
    let entries_of = |uops: u32| uops.div_ceil(cfg.uops_per_entry);
    let cacheable = |uops: u32| {
        let e = entries_of(uops);
        e <= cfg.max_entries_per_pw && e <= cfg.ways
    };

    // State: resident uop count per start (u32 each); memoised per access
    // index.
    type State = Vec<u32>;
    let mut memo: Vec<FastHashMap<State, u64>> = vec![FastHashMap::default(); accesses.len() + 1];
    let mut explored = 0u64;

    // Iterative deepening is unnecessary; plain DFS with memoisation.
    fn feasible(state: &[u32], sets: &[usize], cfg: &UopCacheConfig) -> bool {
        let mut used: FastHashMap<usize, u32> = FastHashMap::default();
        for (i, &uops) in state.iter().enumerate() {
            if uops > 0 {
                *used.entry(sets[i]).or_insert(0) += uops.div_ceil(cfg.uops_per_entry);
            }
        }
        used.values().all(|&u| u <= cfg.ways)
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        t: usize,
        state: State,
        accesses: &[uopcache_model::PwAccess],
        start_idx: &FastHashMap<Addr, usize>,
        sets: &[usize],
        cfg: &UopCacheConfig,
        memo: &mut Vec<FastHashMap<State, u64>>,
        explored: &mut u64,
        cacheable: &dyn Fn(u32) -> bool,
    ) -> u64 {
        if t == accesses.len() {
            return 0;
        }
        if let Some(&v) = memo[t].get(&state) {
            return v;
        }
        *explored += 1;
        assert!(
            *explored < 4_000_000,
            "exhaustive solver state budget exceeded"
        );
        let pw = accesses[t].pw();
        let idx = start_idx[&pw.start];
        let resident = state[idx];
        let miss_now = u64::from(pw.uops.saturating_sub(resident));

        let mut best = u64::MAX;
        // Choice A: do not (re)insert — state unchanged except nothing.
        {
            let cost = miss_now
                + dfs(
                    t + 1,
                    state.clone(),
                    accesses,
                    start_idx,
                    sets,
                    cfg,
                    memo,
                    explored,
                    cacheable,
                );
            best = best.min(cost);
        }
        // Choice B: insert/upgrade to the full window (if it missed at all
        // and is cacheable), after evicting any subset of other residents in
        // the same set. Enumerate subsets of resident same-set windows.
        if miss_now > 0 && cacheable(pw.uops) {
            let same_set: Vec<usize> = (0..state.len())
                .filter(|&i| i != idx && state[i] > 0 && sets[i] == sets[idx])
                .collect();
            let subsets = 1usize << same_set.len();
            for mask in 0..subsets {
                let mut next = state.clone();
                next[idx] = pw.uops.max(resident);
                for (bit, &i) in same_set.iter().enumerate() {
                    if mask & (1 << bit) != 0 {
                        next[i] = 0;
                    }
                }
                if !feasible(&next, sets, cfg) {
                    continue;
                }
                let cost = miss_now
                    + dfs(
                        t + 1,
                        next,
                        accesses,
                        start_idx,
                        sets,
                        cfg,
                        memo,
                        explored,
                        cacheable,
                    );
                best = best.min(cost);
            }
        }
        // Choice C: evict the resident window after the access (frees space
        // for the future) — only meaningful if it was resident.
        if resident > 0 {
            let mut next = state.clone();
            next[idx] = 0;
            let cost = miss_now
                + dfs(
                    t + 1,
                    next,
                    accesses,
                    start_idx,
                    sets,
                    cfg,
                    memo,
                    explored,
                    cacheable,
                );
            best = best.min(cost);
        }
        memo[t].insert(state, best);
        best
    }

    let initial = vec![0u32; starts.len()];
    let missed = dfs(
        0,
        initial,
        accesses,
        &start_idx,
        &sets,
        cfg,
        &mut memo,
        &mut explored,
        &cacheable,
    );
    OptimalCost {
        missed_uops: missed,
        states_explored: explored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::foo::{self, FooConfig};
    use crate::replay::{self, EvictionTiming};
    use uopcache_model::{PwAccess, PwDesc, PwTermination};

    fn acc(s: u64, u: u32) -> PwAccess {
        PwAccess::new(PwDesc::new(
            Addr::new(s),
            u,
            u * 3,
            PwTermination::TakenBranch,
        ))
    }

    fn cfg2() -> UopCacheConfig {
        UopCacheConfig {
            entries: 2,
            ways: 2,
            uops_per_entry: 8,
            switch_penalty: 1,
            inclusive_with_l1i: true,
            max_entries_per_pw: 2,
        }
    }

    #[test]
    fn figure3_scenario_cost_is_three() {
        // Paper Fig. 3: B(1 uop) x3 then A(1) then C(4); A and C resident.
        // Optimal: bypass B (3 misses of 1 uop each = 3), keep A and C.
        // (Belady would evict C: cost 1+4 = 5.)
        let trace: LookupTrace = [
            acc(0, 1),   // A cold (1)
            acc(64, 4),  // C cold (4)
            acc(128, 1), // B
            acc(128, 1),
            acc(128, 1),
            acc(0, 1),
            acc(64, 4),
        ]
        .into_iter()
        .collect();
        let opt = optimal_missed_uops(&trace, &cfg2());
        // 5 cold uops (A=1, C=4) + 3 B misses when bypassed... but B could
        // also be cached after its first miss: B(1) + hits. Options:
        // keep B (evict A or C): best is evict A -> A remisses 1 at t5:
        // cost = 1+4 (cold) + 1 (B cold) + 1 (A remiss) = 7?  vs bypass B:
        // 1+4+3 = 8. So optimal = 7.
        assert_eq!(opt.missed_uops, 7, "explored {}", opt.states_explored);
    }

    #[test]
    fn flack_is_near_optimal_on_small_instances() {
        // FLACK must be within a modest factor of the true optimum on a mix
        // of crafted small traces.
        let traces: Vec<LookupTrace> = vec![
            [
                acc(0, 1),
                acc(64, 4),
                acc(128, 1),
                acc(128, 1),
                acc(128, 1),
                acc(0, 1),
                acc(64, 4),
            ]
            .into_iter()
            .collect(),
            [
                acc(0, 8),
                acc(64, 8),
                acc(128, 8),
                acc(0, 8),
                acc(64, 8),
                acc(128, 8),
            ]
            .into_iter()
            .collect(),
            [
                acc(0, 12),
                acc(0, 3),
                acc(64, 6),
                acc(0, 3),
                acc(64, 6),
                acc(0, 12),
            ]
            .into_iter()
            .collect(),
            [
                acc(0, 2),
                acc(64, 2),
                acc(0, 2),
                acc(128, 9),
                acc(128, 9),
                acc(0, 2),
                acc(64, 2),
            ]
            .into_iter()
            .collect(),
        ];
        for trace in traces {
            let cfg = cfg2();
            let opt = optimal_missed_uops(&trace, &cfg);
            let sol = foo::solve(&trace, &cfg, &FooConfig::flack());
            let flack = replay::replay(&trace, &cfg, &sol, EvictionTiming::Lazy);
            assert!(
                flack.uops_missed <= opt.missed_uops * 2,
                "FLACK {} vs optimal {} on {:?}",
                flack.uops_missed,
                opt.missed_uops,
                trace
            );
            assert!(
                flack.uops_missed >= opt.missed_uops,
                "optimal must lower-bound FLACK"
            );
        }
    }

    #[test]
    fn optimal_lower_bounds_belady_and_foo_randomly() {
        use uopcache_model::rng::{Prng, Rng};
        let mut rng = Prng::seed_from_u64(42);
        let cfg = cfg2();
        for round in 0..25 {
            let len = rng.gen_range(4..16);
            let trace: LookupTrace = (0..len)
                .map(|_| acc(64 * rng.gen_range(0..4u64), rng.gen_range(1..12u32)))
                .collect();
            let opt = optimal_missed_uops(&trace, &cfg);
            // Belady.
            let mut bel = uopcache_cache::UopCache::new(
                cfg,
                Box::new(crate::BeladyPolicy::from_trace(&trace)),
            );
            let bel_stats = uopcache_policies::run_trace(&mut bel, &trace);
            assert!(
                bel_stats.uops_missed >= opt.missed_uops,
                "round {round}: Belady {} below optimal {}",
                bel_stats.uops_missed,
                opt.missed_uops
            );
            // FLACK replay.
            let sol = foo::solve(&trace, &cfg, &FooConfig::flack());
            let flack = replay::replay(&trace, &cfg, &sol, EvictionTiming::Lazy);
            assert!(
                flack.uops_missed >= opt.missed_uops,
                "round {round}: FLACK {} below optimal {}",
                flack.uops_missed,
                opt.missed_uops
            );
        }
    }

    #[test]
    fn empty_trace_costs_nothing() {
        let opt = optimal_missed_uops(&LookupTrace::new(), &cfg2());
        assert_eq!(opt.missed_uops, 0);
    }

    #[test]
    #[should_panic(expected = "at most 8 distinct")]
    fn too_many_windows_rejected() {
        let trace: LookupTrace = (0..9u64).map(|i| acc(i * 64, 1)).collect();
        let _ = optimal_missed_uops(&trace, &cfg2());
    }
}
