//! Statistics containers: cache statistics, per-structure event counts for the
//! power model, and the top-level simulation result.

use crate::json_struct;
use std::ops::AddAssign;

/// Generic cache statistics (used for L1i, BTB and similar structures).
#[derive(Copy, Clone, Eq, PartialEq, Debug, Default)]
pub struct CacheStats {
    /// Total lookups.
    pub accesses: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Lines evicted to make room.
    pub evictions: u64,
    /// Lines filled.
    pub fills: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]`; zero when there were no accesses.
    #[cfg(test)]
    pub(crate) fn miss_rate(&self) -> f64 {
        ratio(self.misses, self.accesses)
    }
}

impl AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: Self) {
        self.accesses += rhs.accesses;
        self.hits += rhs.hits;
        self.misses += rhs.misses;
        self.evictions += rhs.evictions;
        self.fills += rhs.fills;
    }
}

/// Micro-op cache statistics.
///
/// The paper defines the miss rate at **micro-op granularity** (§II-C): a
/// partial hit contributes hit micro-ops *and* missed micro-ops. Use
/// [`UopCacheStats::uop_miss_rate`] for the metric every figure reports.
///
/// # Examples
///
/// ```
/// use uopcache_model::UopCacheStats;
///
/// let mut s = UopCacheStats::default();
/// s.uops_requested = 100;
/// s.uops_hit = 80;
/// s.uops_missed = 20;
/// assert!((s.uop_miss_rate() - 0.2).abs() < 1e-12);
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Debug, Default)]
pub struct UopCacheStats {
    /// PW lookups issued to the micro-op cache.
    pub lookups: u64,
    /// Lookups fully served from the cache (including via a larger stored PW).
    pub pw_hits: u64,
    /// Lookups partially served (stored PW shorter than the request).
    pub pw_partial_hits: u64,
    /// Lookups that missed entirely.
    pub pw_misses: u64,
    /// Micro-ops requested across all lookups.
    pub uops_requested: u64,
    /// Micro-ops served from the micro-op cache.
    pub uops_hit: u64,
    /// Micro-ops that had to come from the legacy decode path.
    pub uops_missed: u64,
    /// PWs inserted into the cache.
    pub insertions: u64,
    /// Entries written during insertions (insertion energy scales with this).
    pub entries_written: u64,
    /// PWs whose insertion was bypassed by the policy.
    pub bypasses: u64,
    /// PWs evicted by replacement.
    pub evicted_pws: u64,
    /// Entries freed by replacement evictions.
    pub evicted_entries: u64,
    /// PWs invalidated because their L1i line was evicted (inclusion).
    pub inclusion_invalidations: u64,
    /// Missed micro-ops attributed to cold (first-touch) misses.
    pub cold_miss_uops: u64,
    /// Missed micro-ops attributed to capacity misses.
    pub capacity_miss_uops: u64,
    /// Missed micro-ops attributed to conflict misses.
    pub conflict_miss_uops: u64,
    /// Victim selections made by the primary policy (vs. a fallback such as
    /// SRRIP under FURBYS's pitfall detector) — Fig. "replacement coverage".
    pub primary_victim_selections: u64,
    /// Victim selections delegated to the fallback policy.
    pub fallback_victim_selections: u64,
}

impl UopCacheStats {
    /// Micro-op-granularity miss rate in `[0, 1]`.
    pub fn uop_miss_rate(&self) -> f64 {
        ratio(self.uops_missed, self.uops_requested)
    }

    /// Micro-op-granularity hit rate in `[0, 1]`.
    pub fn uop_hit_rate(&self) -> f64 {
        ratio(self.uops_hit, self.uops_requested)
    }

    /// Fraction of insertions avoided by bypassing.
    pub fn bypass_rate(&self) -> f64 {
        ratio(self.bypasses, self.insertions + self.bypasses)
    }

    /// Fraction of victim selections made by the primary policy
    /// (the paper's *replacement coverage*, §VI-C).
    pub fn replacement_coverage(&self) -> f64 {
        ratio(
            self.primary_victim_selections,
            self.primary_victim_selections + self.fallback_victim_selections,
        )
    }

    /// Relative miss reduction of `self` versus a `baseline`, in percent.
    /// Positive means fewer missed micro-ops than the baseline.
    pub fn miss_reduction_vs(&self, baseline: &UopCacheStats) -> f64 {
        if baseline.uops_missed == 0 {
            return 0.0;
        }
        (1.0 - self.uops_missed as f64 / baseline.uops_missed as f64) * 100.0
    }
}

impl std::ops::Sub for UopCacheStats {
    type Output = UopCacheStats;

    /// Field-wise difference: `run_end - run_start` gives the statistics of
    /// one run on a cache that has already accumulated history.
    fn sub(self, rhs: Self) -> Self {
        UopCacheStats {
            lookups: self.lookups - rhs.lookups,
            pw_hits: self.pw_hits - rhs.pw_hits,
            pw_partial_hits: self.pw_partial_hits - rhs.pw_partial_hits,
            pw_misses: self.pw_misses - rhs.pw_misses,
            uops_requested: self.uops_requested - rhs.uops_requested,
            uops_hit: self.uops_hit - rhs.uops_hit,
            uops_missed: self.uops_missed - rhs.uops_missed,
            insertions: self.insertions - rhs.insertions,
            entries_written: self.entries_written - rhs.entries_written,
            bypasses: self.bypasses - rhs.bypasses,
            evicted_pws: self.evicted_pws - rhs.evicted_pws,
            evicted_entries: self.evicted_entries - rhs.evicted_entries,
            inclusion_invalidations: self.inclusion_invalidations - rhs.inclusion_invalidations,
            cold_miss_uops: self.cold_miss_uops - rhs.cold_miss_uops,
            capacity_miss_uops: self.capacity_miss_uops - rhs.capacity_miss_uops,
            conflict_miss_uops: self.conflict_miss_uops - rhs.conflict_miss_uops,
            primary_victim_selections: self.primary_victim_selections
                - rhs.primary_victim_selections,
            fallback_victim_selections: self.fallback_victim_selections
                - rhs.fallback_victim_selections,
        }
    }
}

impl AddAssign for UopCacheStats {
    fn add_assign(&mut self, rhs: Self) {
        self.lookups += rhs.lookups;
        self.pw_hits += rhs.pw_hits;
        self.pw_partial_hits += rhs.pw_partial_hits;
        self.pw_misses += rhs.pw_misses;
        self.uops_requested += rhs.uops_requested;
        self.uops_hit += rhs.uops_hit;
        self.uops_missed += rhs.uops_missed;
        self.insertions += rhs.insertions;
        self.entries_written += rhs.entries_written;
        self.bypasses += rhs.bypasses;
        self.evicted_pws += rhs.evicted_pws;
        self.evicted_entries += rhs.evicted_entries;
        self.inclusion_invalidations += rhs.inclusion_invalidations;
        self.cold_miss_uops += rhs.cold_miss_uops;
        self.capacity_miss_uops += rhs.capacity_miss_uops;
        self.conflict_miss_uops += rhs.conflict_miss_uops;
        self.primary_victim_selections += rhs.primary_victim_selections;
        self.fallback_victim_selections += rhs.fallback_victim_selections;
    }
}

/// Per-structure activity counts consumed by the power model
/// (the "dynamic activity statistics" fed to McPAT in the paper's flow).
#[derive(Copy, Clone, Eq, PartialEq, Debug, Default)]
pub struct EventCounts {
    /// Elapsed core cycles.
    pub cycles: u64,
    /// Retired micro-ops.
    pub retired_uops: u64,
    /// Retired x86 instructions.
    pub retired_instructions: u64,
    /// L1i line reads (legacy-path fetches).
    pub icache_reads: u64,
    /// L1i line fills.
    pub icache_fills: u64,
    /// Micro-op cache set lookups.
    pub uopc_lookups: u64,
    /// Micro-op cache entries read on hits.
    pub uopc_entry_reads: u64,
    /// Micro-op cache entries written on insertions.
    pub uopc_entry_writes: u64,
    /// Micro-ops that went through the legacy decoders.
    pub decoded_uops: u64,
    /// Cycles in which the decode pipeline was active (not clock-gated).
    pub decoder_active_cycles: u64,
    /// Branch predictor lookups.
    pub bp_accesses: u64,
    /// BTB lookups.
    pub btb_accesses: u64,
}

impl AddAssign for EventCounts {
    fn add_assign(&mut self, rhs: Self) {
        self.cycles += rhs.cycles;
        self.retired_uops += rhs.retired_uops;
        self.retired_instructions += rhs.retired_instructions;
        self.icache_reads += rhs.icache_reads;
        self.icache_fills += rhs.icache_fills;
        self.uopc_lookups += rhs.uopc_lookups;
        self.uopc_entry_reads += rhs.uopc_entry_reads;
        self.uopc_entry_writes += rhs.uopc_entry_writes;
        self.decoded_uops += rhs.decoded_uops;
        self.decoder_active_cycles += rhs.decoder_active_cycles;
        self.bp_accesses += rhs.bp_accesses;
        self.btb_accesses += rhs.btb_accesses;
    }
}

/// Result of one simulation run: timing, micro-op cache behaviour, i-cache
/// behaviour, and the activity counts for the power model.
#[derive(Copy, Clone, PartialEq, Debug, Default)]
pub struct SimResult {
    /// Micro-op cache statistics.
    pub uopc: UopCacheStats,
    /// Instruction cache statistics.
    pub icache: CacheStats,
    /// BTB statistics.
    pub btb: CacheStats,
    /// Activity counts for the power model.
    pub events: EventCounts,
    /// Branch mispredictions observed.
    pub mispredictions: u64,
}

impl SimResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.events.cycles == 0 {
            return 0.0;
        }
        self.events.retired_instructions as f64 / self.events.cycles as f64
    }

    /// IPC speedup of `self` over `baseline`, in percent.
    pub fn ipc_speedup_vs(&self, baseline: &SimResult) -> f64 {
        let b = baseline.ipc();
        // A zero (or denormal/NaN) baseline has no meaningful speedup; the
        // guard avoids both the division and a float equality comparison.
        if !b.is_normal() {
            return 0.0;
        }
        (self.ipc() / b - 1.0) * 100.0
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

json_struct!(CacheStats {
    accesses,
    hits,
    misses,
    evictions,
    fills
});
json_struct!(UopCacheStats {
    lookups,
    pw_hits,
    pw_partial_hits,
    pw_misses,
    uops_requested,
    uops_hit,
    uops_missed,
    insertions,
    entries_written,
    bypasses,
    evicted_pws,
    evicted_entries,
    inclusion_invalidations,
    cold_miss_uops,
    capacity_miss_uops,
    conflict_miss_uops,
    primary_victim_selections,
    fallback_victim_selections,
});
json_struct!(EventCounts {
    cycles,
    retired_uops,
    retired_instructions,
    icache_reads,
    icache_fills,
    uopc_lookups,
    uopc_entry_reads,
    uopc_entry_writes,
    decoded_uops,
    decoder_active_cycles,
    bp_accesses,
    btb_accesses,
});
json_struct!(SimResult {
    uopc,
    icache,
    btb,
    events,
    mispredictions
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::float_cmp)] // the zero-denominator rates are exactly 0.0
    fn rates_handle_zero_denominator() {
        let s = UopCacheStats::default();
        assert_eq!(s.uop_miss_rate(), 0.0);
        assert_eq!(s.bypass_rate(), 0.0);
        assert_eq!(s.replacement_coverage(), 0.0);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
        assert_eq!(SimResult::default().ipc(), 0.0);
    }

    #[test]
    fn miss_reduction_is_relative() {
        let base = UopCacheStats {
            uops_missed: 100,
            ..Default::default()
        };
        let better = UopCacheStats {
            uops_missed: 70,
            ..Default::default()
        };
        assert!((better.miss_reduction_vs(&base) - 30.0).abs() < 1e-12);
        assert!((base.miss_reduction_vs(&base)).abs() < 1e-12);
        // Worse than baseline is negative.
        let worse = UopCacheStats {
            uops_missed: 120,
            ..Default::default()
        };
        assert!(worse.miss_reduction_vs(&base) < 0.0);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = UopCacheStats {
            lookups: 1,
            uops_hit: 3,
            ..Default::default()
        };
        let b = UopCacheStats {
            lookups: 2,
            uops_hit: 4,
            ..Default::default()
        };
        a += b;
        assert_eq!(a.lookups, 3);
        assert_eq!(a.uops_hit, 7);

        let mut c = CacheStats {
            accesses: 1,
            hits: 1,
            ..Default::default()
        };
        c += CacheStats {
            accesses: 2,
            misses: 2,
            ..Default::default()
        };
        assert_eq!(c.accesses, 3);
        assert_eq!(c.misses, 2);

        let mut e = EventCounts {
            cycles: 5,
            ..Default::default()
        };
        e += EventCounts {
            cycles: 7,
            decoded_uops: 2,
            ..Default::default()
        };
        assert_eq!(e.cycles, 12);
        assert_eq!(e.decoded_uops, 2);
    }

    #[test]
    fn ipc_speedup() {
        let mut base = SimResult::default();
        base.events.cycles = 100;
        base.events.retired_instructions = 100;
        let mut fast = SimResult::default();
        fast.events.cycles = 100;
        fast.events.retired_instructions = 105;
        assert!((fast.ipc_speedup_vs(&base) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn json_roundtrip() {
        let mut r = SimResult::default();
        r.events.cycles = 42;
        let json = crate::json::to_string(&r);
        let back: SimResult = crate::json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
