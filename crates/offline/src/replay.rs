//! Replaying FOO/FLACK decision sequences through the real set-associative
//! micro-op cache.

use crate::foo::FooSolution;
use crate::occurrences::OccurrenceIndex;
use uopcache_cache::{LookupResult, PwMeta, PwReplacementPolicy, UopCache};
use uopcache_model::{LookupTrace, PwDesc, UopCacheConfig, UopCacheStats};

/// When decided evictions are applied.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum EvictionTiming {
    /// Apply the solver's "do not keep" verdict immediately after the access
    /// (raw FOO behaviour, oblivious to asynchronous insertion).
    Eager,
    /// Defer evictions until another window actually needs the space —
    /// FLACK's *lazy eviction*, which approximates insertion-time decisions
    /// and protects windows whose insertion is still in flight (§IV).
    Lazy,
}

/// Replacement policy that follows a precomputed keep/evict schedule.
///
/// Victim priority on a forced eviction: residents the solver decided not to
/// keep first (furthest next use breaks ties), then kept residents by
/// furthest next use — so solver decisions are honoured whenever the
/// set-associative reality matches the solve, and degrade gracefully when it
/// does not.
struct OracleReplayPolicy {
    keep: Vec<bool>,
    occ: OccurrenceIndex,
    clock: u32,
    started: bool,
    /// Per (set, slot): whether the resident was kept by the solver.
    kept: Vec<Vec<bool>>,
}

impl OracleReplayPolicy {
    fn new(solution: &FooSolution, trace: &LookupTrace) -> Self {
        OracleReplayPolicy {
            keep: solution.keep.clone(),
            occ: OccurrenceIndex::new(trace),
            clock: 0,
            started: false,
            kept: Vec::new(),
        }
    }

    fn decision(&self, t: u32) -> bool {
        self.keep.get(t as usize).copied().unwrap_or(false)
    }

    // audit:alloc-exempt — offline oracle replay bookkeeping; replay policies
    // are compared for decisions, never timed by the kernel benchmark
    fn set_kept(&mut self, set: usize, slot: u8, value: bool) {
        if self.kept.len() <= set {
            self.kept.resize_with(set + 1, Vec::new);
        }
        let row = &mut self.kept[set];
        if row.len() <= usize::from(slot) {
            row.resize(usize::from(slot) + 1, false);
        }
        row[usize::from(slot)] = value;
    }

    fn is_kept(&self, set: usize, slot: u8) -> bool {
        self.kept
            .get(set)
            .and_then(|row| row.get(usize::from(slot)))
            .copied()
            .unwrap_or(false)
    }
}

impl PwReplacementPolicy for OracleReplayPolicy {
    fn name(&self) -> &'static str {
        "OracleReplay"
    }

    fn prepare(&mut self, sets: usize, ways: u32) {
        if self.kept.len() < sets {
            self.kept.resize_with(sets, Vec::new);
        }
        let ways = ways as usize;
        for row in &mut self.kept {
            if row.len() < ways {
                row.resize(ways, false);
            }
        }
    }

    fn on_lookup(&mut self, _pw: &PwDesc) {
        if self.started {
            self.clock += 1;
        } else {
            self.started = true;
        }
    }

    fn on_hit(&mut self, set: usize, meta: &PwMeta) {
        let d = self.decision(self.clock);
        self.set_kept(set, meta.slot, d);
    }

    fn on_insert(&mut self, set: usize, meta: &PwMeta) {
        let d = self.decision(self.clock);
        self.set_kept(set, meta.slot, d);
    }

    fn on_evict(&mut self, set: usize, meta: &PwMeta) {
        self.set_kept(set, meta.slot, false);
    }

    fn should_bypass(
        &mut self,
        _set: usize,
        _incoming: &PwDesc,
        _needed_entries: u32,
        _free_entries: u32,
        _resident: &[PwMeta],
    ) -> bool {
        // Bypass decisions are made by the replay driver (it knows the access
        // index even for misses); the policy never bypasses on its own.
        false
    }

    fn choose_victim(&mut self, set: usize, _incoming: &PwDesc, resident: &[PwMeta]) -> usize {
        let clock = self.clock;
        resident
            .iter()
            .enumerate()
            .max_by_key(|(_, m)| {
                let kept = self.is_kept(set, m.slot);
                let next = self.occ.next_use_after(m.desc.start, clock);
                // Unkept residents sort above kept ones; furthest next use
                // wins within each class.
                (!kept, next)
            })
            .map(|(i, _)| i)
            .expect("resident slice is non-empty")
    }
}

/// Replays `solution` over `trace` on a cache with geometry `cfg` and returns
/// the resulting statistics.
///
/// # Examples
///
/// ```
/// use uopcache_model::UopCacheConfig;
/// use uopcache_offline::{foo, replay, FooConfig};
/// use uopcache_trace::{build_trace, AppId, InputVariant};
///
/// let trace = build_trace(AppId::Kafka, InputVariant::default(), 2_000);
/// let cfg = UopCacheConfig::zen3();
/// let sol = foo::solve(&trace, &cfg, &FooConfig::flack());
/// let stats = replay::replay(&trace, &cfg, &sol, replay::EvictionTiming::Lazy);
/// assert!(stats.uops_hit > 0);
/// ```
pub fn replay(
    trace: &LookupTrace,
    cfg: &UopCacheConfig,
    solution: &FooSolution,
    timing: EvictionTiming,
) -> UopCacheStats {
    replay_observed(trace, cfg, solution, timing).0
}

/// As [`replay`], additionally returning per-access observations
/// `(start, hit_uops, total_uops)` — FURBYS builds its hit-rate profile from
/// these (STEP 5 of the pipeline).
pub fn replay_observed(
    trace: &LookupTrace,
    cfg: &UopCacheConfig,
    solution: &FooSolution,
    timing: EvictionTiming,
) -> (UopCacheStats, Vec<(uopcache_model::Addr, u32, u32)>) {
    replay_full(trace, cfg, solution, timing, false)
}

/// As [`replay_observed`] with optional cold/capacity/conflict miss
/// classification (used by the §III-B study to show how a near-optimal
/// policy shrinks capacity and conflict misses).
pub fn replay_full(
    trace: &LookupTrace,
    cfg: &UopCacheConfig,
    solution: &FooSolution,
    timing: EvictionTiming,
    classify: bool,
) -> (UopCacheStats, Vec<(uopcache_model::Addr, u32, u32)>) {
    let mut obs = Vec::new();
    let stats = replay_full_into(trace, cfg, solution, timing, classify, &mut obs);
    (stats, obs)
}

/// As [`replay_full`], writing the per-access observations into a
/// caller-provided buffer (cleared first), so callers replaying many
/// solutions over the same trace reuse one observation allocation across
/// passes instead of paying a trace-sized `Vec` per replay.
pub fn replay_full_into(
    trace: &LookupTrace,
    cfg: &UopCacheConfig,
    solution: &FooSolution,
    timing: EvictionTiming,
    classify: bool,
    obs: &mut Vec<(uopcache_model::Addr, u32, u32)>,
) -> UopCacheStats {
    let policy = OracleReplayPolicy::new(solution, trace);
    let mut cache = UopCache::new(*cfg, Box::new(policy));
    if classify {
        cache.enable_classification();
    }
    obs.clear();
    obs.reserve(trace.len());
    for (t, access) in trace.iter().enumerate() {
        let pw = access.pw();
        let result = cache.lookup(&pw);
        obs.push((pw.start, result.hit_uops(), pw.uops));
        let keep = solution.keep.get(t).copied().unwrap_or(false);
        match result {
            LookupResult::Hit { .. } => {
                if !keep && timing == EvictionTiming::Eager {
                    cache.evict_start(pw.start);
                }
            }
            LookupResult::PartialHit { .. } | LookupResult::Miss => {
                if keep {
                    cache.insert(&pw);
                } else if timing == EvictionTiming::Eager {
                    // Raw FOO evicts/bypasses immediately.
                    cache.evict_start(pw.start);
                }
                // Lazy: a not-kept window is simply not inserted; if a
                // shorter version is resident it stays until space is needed.
            }
        }
    }
    *cache.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::foo::{self, FooConfig};
    use uopcache_cache::LruPolicy;
    use uopcache_model::{Addr, PwAccess, PwTermination};
    use uopcache_policies::run_trace;
    use uopcache_trace::{build_trace, AppId, InputVariant};

    fn acc(start: u64, uops: u32) -> PwAccess {
        PwAccess::new(PwDesc::new(
            Addr::new(start),
            uops,
            uops * 3,
            PwTermination::TakenBranch,
        ))
    }

    #[test]
    fn replay_honours_expected_hits_when_sets_allow() {
        let cfg = UopCacheConfig {
            entries: 2,
            ways: 2,
            uops_per_entry: 8,
            switch_penalty: 1,
            inclusive_with_l1i: true,
            max_entries_per_pw: 2,
        };
        let t: LookupTrace = [acc(0, 4), acc(64, 4), acc(0, 4), acc(64, 4)]
            .into_iter()
            .collect();
        let sol = foo::solve(&t, &cfg, &FooConfig::foo_ohr());
        let stats = replay(&t, &cfg, &sol, EvictionTiming::Eager);
        assert_eq!(stats.pw_hits, 2);
        assert_eq!(stats.uops_missed, 8); // only the two cold misses
    }

    #[test]
    fn lazy_timing_never_loses_to_eager_on_real_workloads() {
        let cfg = UopCacheConfig::zen3();
        let t = build_trace(AppId::Kafka, InputVariant(0), 15_000);
        let sol = foo::solve(&t, &cfg, &FooConfig::flack());
        let eager = replay(&t, &cfg, &sol, EvictionTiming::Eager);
        let lazy = replay(&t, &cfg, &sol, EvictionTiming::Lazy);
        assert!(
            lazy.uops_missed <= eager.uops_missed,
            "lazy {} vs eager {}",
            lazy.uops_missed,
            eager.uops_missed
        );
    }

    #[test]
    fn flack_replay_beats_lru_substantially() {
        let cfg = UopCacheConfig::zen3();
        let t = build_trace(AppId::Postgres, InputVariant(0), 20_000);
        let mut lru = UopCache::new(cfg, Box::new(LruPolicy::new()));
        let lru_stats = run_trace(&mut lru, &t);
        let sol = foo::solve(&t, &cfg, &FooConfig::flack());
        let flack = replay(&t, &cfg, &sol, EvictionTiming::Lazy);
        let reduction = flack.miss_reduction_vs(&lru_stats);
        assert!(
            reduction > 5.0,
            "expected substantial miss reduction, got {reduction:.2}%"
        );
    }

    #[test]
    fn observed_into_reuses_the_buffer_across_passes() {
        let cfg = UopCacheConfig::zen3();
        let t = build_trace(AppId::Kafka, InputVariant(0), 5_000);
        let sol = foo::solve(&t, &cfg, &FooConfig::flack());
        let (stats, obs) = replay_observed(&t, &cfg, &sol, EvictionTiming::Lazy);

        let mut buf = Vec::new();
        let first = replay_full_into(&t, &cfg, &sol, EvictionTiming::Lazy, false, &mut buf);
        assert_eq!(first, stats);
        assert_eq!(buf, obs);
        let cap = buf.capacity();
        let second = replay_full_into(&t, &cfg, &sol, EvictionTiming::Lazy, false, &mut buf);
        assert_eq!(second, stats);
        assert_eq!(buf, obs);
        assert_eq!(buf.capacity(), cap, "second pass must reuse the allocation");
    }

    #[test]
    fn bypassed_windows_do_not_pollute() {
        let cfg = UopCacheConfig {
            entries: 2,
            ways: 2,
            uops_per_entry: 8,
            switch_penalty: 1,
            inclusive_with_l1i: true,
            max_entries_per_pw: 2,
        };
        // B used once, A and C loop: solver must not keep B.
        let t: LookupTrace = [acc(0, 4), acc(64, 4), acc(128, 4), acc(0, 4), acc(64, 4)]
            .into_iter()
            .collect();
        let sol = foo::solve(&t, &cfg, &FooConfig::foo_ohr());
        assert!(!sol.keep[2]);
        let stats = replay(&t, &cfg, &sol, EvictionTiming::Lazy);
        assert_eq!(stats.pw_hits, 2);
    }
}
