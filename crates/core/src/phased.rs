//! Phase-aware FURBYS: an implementation of the paper's future-work
//! direction (§VII) — "a better policy should consider more globally cold
//! but locally hot PWs".
//!
//! Instead of one whole-execution weight table, profiling splits the training
//! trace into time segments and derives a weight table per segment plus the
//! global table. At runtime the hardware keeps a score per table — a table
//! earns credit whenever its weights *agree* with observed behaviour (a
//! high-weight PW hits, a low-weight PW misses) — and periodically adopts the
//! best-scoring table, set-dueling style. A phase in which globally-cold code
//! runs hot is then served by the segment table that profiled that phase.

use crate::furbys::FurbysPolicy;
use crate::hints::HintMap;
use crate::weights::{compute_weights, WeightConfig};
use uopcache_cache::{PwMeta, PwReplacementPolicy};
use uopcache_model::{PwDesc, UopCacheConfig};
use uopcache_policies::profile::hit_rates_from_observations;

/// How many lookups between table re-elections.
const EPOCH: u64 = 4096;
/// Weight at or above which a table "expects" a hit.
const HOT_WEIGHT: u8 = 4;

/// Per-phase weight tables plus the whole-execution table.
#[derive(Clone, Debug)]
pub struct PhasedProfile {
    /// `tables[0]` is the whole-execution table; the rest are per-segment.
    pub tables: Vec<HintMap>,
}

impl PhasedProfile {
    /// Builds a phased profile from per-access oracle observations
    /// (`(start, hit_uops, total_uops)` in trace order), splitting the trace
    /// into `segments` equal parts.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is zero.
    pub fn from_observations(
        obs: &[(uopcache_model::Addr, u32, u32)],
        cfg: &UopCacheConfig,
        wcfg: &WeightConfig,
        segments: usize,
    ) -> Self {
        assert!(segments > 0, "need at least one segment");
        let mut tables = Vec::with_capacity(segments + 1);
        tables.push(compute_weights(
            &hit_rates_from_observations(obs.iter().copied()),
            cfg,
            wcfg,
        ));
        let seg_len = obs.len().div_ceil(segments).max(1);
        for chunk in obs.chunks(seg_len) {
            tables.push(compute_weights(
                &hit_rates_from_observations(chunk.iter().copied()),
                cfg,
                wcfg,
            ));
        }
        PhasedProfile { tables }
    }
}

/// FURBYS with runtime selection among phase weight tables.
///
/// Wraps one [`FurbysPolicy`] per table; all replacement metadata (SRRIP
/// bits, pitfall detector) lives in the *active* policy's copy, so switching
/// tables swaps the weight interpretation, not the recency state — mirroring
/// a hardware design in which only the 3-bit weight source multiplexes.
///
/// # Examples
///
/// ```
/// use uopcache_cache::UopCache;
/// use uopcache_core::phased::{PhasedProfile, PhasedFurbysPolicy};
/// use uopcache_core::WeightConfig;
/// use uopcache_model::{Addr, UopCacheConfig};
///
/// let cfg = UopCacheConfig::zen3();
/// let obs = vec![(Addr::new(0x1000), 4, 4), (Addr::new(0x2000), 0, 4)];
/// let profile = PhasedProfile::from_observations(&obs, &cfg, &WeightConfig::default(), 2);
/// let cache = UopCache::new(cfg, Box::new(PhasedFurbysPolicy::new(profile)));
/// assert_eq!(cache.policy_name(), "FURBYS-phased");
/// ```
pub struct PhasedFurbysPolicy {
    tables: Vec<HintMap>,
    /// The single FURBYS engine; its hint table is swapped on re-election.
    engine: FurbysPolicy,
    active: usize,
    scores: Vec<i64>,
    lookups: u64,
}

impl PhasedFurbysPolicy {
    /// Creates the policy with the paper's FURBYS hyper-parameters.
    ///
    /// # Panics
    ///
    /// Panics if the profile has no tables.
    pub fn new(profile: PhasedProfile) -> Self {
        assert!(
            !profile.tables.is_empty(),
            "profile must have at least one table"
        );
        let scores = vec![0; profile.tables.len()];
        let engine = FurbysPolicy::new(profile.tables[0].clone());
        PhasedFurbysPolicy {
            tables: profile.tables,
            engine,
            active: 0,
            scores,
            lookups: 0,
        }
    }

    /// The index of the currently active table (0 = whole-execution).
    pub fn active_table(&self) -> usize {
        self.active
    }

    fn credit(&mut self, pw: &PwDesc, hit: bool) {
        for (table, score) in self.tables.iter().zip(&mut self.scores) {
            let expects_hit = table.get(pw.start) >= HOT_WEIGHT;
            if expects_hit == hit {
                *score += 1;
            }
        }
    }

    fn maybe_reelect(&mut self) {
        if !self.lookups.is_multiple_of(EPOCH) {
            return;
        }
        let best = self
            .scores
            .iter()
            .enumerate()
            .max_by_key(|&(i, &s)| (s, usize::MAX - i)) // ties prefer lower index
            .map(|(i, _)| i)
            .expect("non-empty scores");
        if best != self.active {
            self.active = best;
            self.engine.replace_hints(self.tables[best].clone());
        }
        for s in &mut self.scores {
            *s /= 2; // exponential decay keeps the election responsive
        }
    }
}

impl PwReplacementPolicy for PhasedFurbysPolicy {
    fn name(&self) -> &'static str {
        "FURBYS-phased"
    }

    fn on_lookup(&mut self, pw: &PwDesc) {
        self.lookups += 1;
        self.maybe_reelect();
        self.engine.on_lookup(pw);
    }

    fn on_hit(&mut self, set: usize, meta: &PwMeta) {
        self.credit(&meta.desc, true);
        self.engine.on_hit(set, meta);
    }

    fn on_insert(&mut self, set: usize, meta: &PwMeta) {
        // An insertion follows a (full or partial) miss.
        self.credit(&meta.desc, false);
        self.engine.on_insert(set, meta);
    }

    fn on_evict(&mut self, set: usize, meta: &PwMeta) {
        self.engine.on_evict(set, meta);
    }

    fn on_invalidate(&mut self, set: usize, meta: &PwMeta) {
        self.engine.on_invalidate(set, meta);
    }

    fn should_bypass(
        &mut self,
        set: usize,
        incoming: &PwDesc,
        needed_entries: u32,
        free_entries: u32,
        resident: &[PwMeta],
    ) -> bool {
        self.engine
            .should_bypass(set, incoming, needed_entries, free_entries, resident)
    }

    fn choose_victim(&mut self, set: usize, incoming: &PwDesc, resident: &[PwMeta]) -> usize {
        self.engine.choose_victim(set, incoming, resident)
    }

    fn last_selection_was_fallback(&self) -> bool {
        self.engine.last_selection_was_fallback()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uopcache_model::{Addr, LookupTrace, PwAccess, PwTermination};

    fn obs_for(starts: &[(u64, u32, u32)]) -> Vec<(Addr, u32, u32)> {
        starts
            .iter()
            .map(|&(s, h, t)| (Addr::new(s), h, t))
            .collect()
    }

    #[test]
    fn profile_has_global_plus_segment_tables() {
        let cfg = UopCacheConfig::zen3();
        let obs = obs_for(&[
            (0x1000, 4, 4),
            (0x2000, 0, 4),
            (0x3000, 4, 4),
            (0x4000, 0, 4),
        ]);
        let p = PhasedProfile::from_observations(&obs, &cfg, &WeightConfig::default(), 2);
        assert_eq!(p.tables.len(), 3);
    }

    #[test]
    fn election_moves_to_the_agreeing_table() {
        let cfg = UopCacheConfig::zen3();
        // Table 1 (segment) marks 0x1000 hot; global (diluted) marks it cold.
        let hot = Addr::new(0x1000);
        let mut global = HintMap::new(3);
        global.set(hot, 0);
        let mut segment = HintMap::new(3);
        segment.set(hot, 7);
        let mut p = PhasedFurbysPolicy::new(PhasedProfile {
            tables: vec![global, segment],
        });
        let pw = PwDesc::new(hot, 4, 12, PwTermination::TakenBranch);
        let meta = PwMeta {
            desc: pw,
            slot: 0,
            entries: 1,
            inserted_at: 0,
            last_access: 0,
            hits: 0,
        };
        // Stream of hits on the hot PW: segment table agrees, global does not.
        for _ in 0..(EPOCH + 1) {
            p.on_lookup(&pw);
            p.on_hit(0, &meta);
        }
        assert_eq!(p.active_table(), 1, "segment table should win the election");
        let _ = cfg;
    }

    #[test]
    fn works_as_a_cache_policy_end_to_end() {
        let cfg = UopCacheConfig::zen3();
        let trace: LookupTrace = (0..2000u64)
            .map(|i| {
                PwAccess::new(PwDesc::new(
                    Addr::new(0x1000 + (i % 40) * 64),
                    4,
                    12,
                    PwTermination::TakenBranch,
                ))
            })
            .collect();
        let obs: Vec<_> = trace
            .iter()
            .map(|a| {
                let pw = a.pw();
                (pw.start, pw.uops, pw.uops)
            })
            .collect();
        let profile = PhasedProfile::from_observations(&obs, &cfg, &WeightConfig::default(), 4);
        let mut cache =
            uopcache_cache::UopCache::new(cfg, Box::new(PhasedFurbysPolicy::new(profile)));
        let stats = uopcache_policies::run_trace(&mut cache, &trace);
        assert_eq!(stats.lookups, 2000);
        assert!(stats.uops_hit > 0);
    }
}
