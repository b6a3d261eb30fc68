//! Belady's MIN algorithm adapted to prediction windows.

use crate::occurrences::{OccurrenceIndex, NEVER};
use uopcache_cache::{PwMeta, PwReplacementPolicy};
use uopcache_model::{LookupTrace, PwDesc};

/// Belady's algorithm as the paper implements it for the micro-op cache:
/// the victim is the resident PW whose start address is looked up furthest in
/// the future, and an insertion is bypassed when the incoming PW's next use
/// lies beyond every resident's (the "decision at insertion time"
/// modification of §III-C).
///
/// Windows are identified by start address for next-use purposes; Belady
/// remains blind to PW *cost* (micro-ops), to partial-hit structure and to
/// asynchronous insertion — the three deficiencies FLACK fixes.
///
/// The policy must be driven in the exact trace order it was built from
/// (it advances an internal clock on every lookup).
///
/// # Examples
///
/// ```
/// use uopcache_cache::UopCache;
/// use uopcache_model::UopCacheConfig;
/// use uopcache_offline::BeladyPolicy;
/// use uopcache_policies::run_trace;
/// use uopcache_trace::{build_trace, AppId, InputVariant};
///
/// let trace = build_trace(AppId::Kafka, InputVariant::default(), 4_000);
/// let mut cache = UopCache::new(
///     UopCacheConfig::zen3(),
///     Box::new(BeladyPolicy::from_trace(&trace)),
/// );
/// let stats = run_trace(&mut cache, &trace);
/// assert_eq!(stats.lookups, 4_000);
/// ```
#[derive(Clone, Debug)]
pub struct BeladyPolicy {
    occ: OccurrenceIndex,
    /// Position of the lookup currently being processed (0-based).
    clock: u32,
    started: bool,
}

impl BeladyPolicy {
    /// Builds the oracle from the trace that will subsequently be replayed.
    pub fn from_trace(trace: &LookupTrace) -> Self {
        Self::from_index(OccurrenceIndex::new(trace))
    }

    /// Builds the oracle from a prebuilt occurrence index, rewinding its
    /// cursors. Together with [`BeladyPolicy::into_index`] this lets repeated
    /// passes over the same trace share one index instead of re-scanning the
    /// trace per pass.
    pub(crate) fn from_index(mut occ: OccurrenceIndex) -> Self {
        occ.reset_cursors();
        BeladyPolicy {
            occ,
            clock: 0,
            started: false,
        }
    }

    /// Recovers the occurrence index for reuse in a later pass.
    #[cfg(test)]
    pub(crate) fn into_index(self) -> OccurrenceIndex {
        self.occ
    }
}

impl PwReplacementPolicy for BeladyPolicy {
    fn name(&self) -> &'static str {
        "Belady"
    }

    fn on_lookup(&mut self, _pw: &PwDesc) {
        if self.started {
            self.clock += 1;
        } else {
            self.started = true;
        }
    }

    fn on_hit(&mut self, _set: usize, _meta: &PwMeta) {}

    fn on_insert(&mut self, _set: usize, _meta: &PwMeta) {}

    fn on_evict(&mut self, _set: usize, _meta: &PwMeta) {}

    fn should_bypass(
        &mut self,
        _set: usize,
        incoming: &PwDesc,
        needed_entries: u32,
        free_entries: u32,
        resident: &[PwMeta],
    ) -> bool {
        let clock = self.clock;
        let incoming_next = self.occ.next_use_after(incoming.start, clock);
        if incoming_next == NEVER {
            return true;
        }
        // Inserting into free space costs nothing; only bypass when the
        // incoming PW would itself be the Belady victim of the forced
        // eviction.
        if needed_entries <= free_entries || resident.is_empty() {
            return false;
        }
        resident.iter().all(|m| {
            let next = self.occ.next_use_after(m.desc.start, clock);
            next < incoming_next
        })
    }

    fn choose_victim(&mut self, _set: usize, _incoming: &PwDesc, resident: &[PwMeta]) -> usize {
        let clock = self.clock;
        resident
            .iter()
            .enumerate()
            .max_by_key(|(_, m)| self.occ.next_use_after(m.desc.start, clock))
            .map(|(i, _)| i)
            .expect("resident slice is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uopcache_cache::{LruPolicy, UopCache};
    use uopcache_model::PwTermination;
    use uopcache_model::{Addr, PwAccess, UopCacheConfig};
    use uopcache_policies::run_trace;

    fn small_cfg() -> UopCacheConfig {
        UopCacheConfig {
            entries: 4,
            ways: 2,
            uops_per_entry: 8,
            switch_penalty: 1,
            inclusive_with_l1i: true,
            max_entries_per_pw: 2,
        }
    }

    fn trace_of(starts: &[u64]) -> LookupTrace {
        starts
            .iter()
            .map(|&a| {
                // Spread addresses into set 0 by using multiples of 128 with
                // a small id offset; uops fixed at 2.
                PwAccess::new(PwDesc::new(Addr::new(a), 2, 6, PwTermination::TakenBranch))
            })
            .collect()
    }

    #[test]
    fn belady_beats_lru_on_looping_pattern() {
        // Classic LRU-adversarial cyclic pattern over 3 blocks in a 2-way set.
        // Addresses 0, 128, 256 all map to set 0 of the 2-set cache.
        let pattern: Vec<u64> = (0..60).map(|i| [0u64, 128, 256][i % 3]).collect();
        let t = trace_of(&pattern);

        let mut lru = UopCache::new(small_cfg(), Box::new(LruPolicy::new()));
        let lru_stats = run_trace(&mut lru, &t);

        let mut bel = UopCache::new(small_cfg(), Box::new(BeladyPolicy::from_trace(&t)));
        let bel_stats = run_trace(&mut bel, &t);

        assert!(
            bel_stats.uops_missed < lru_stats.uops_missed,
            "belady {} vs lru {}",
            bel_stats.uops_missed,
            lru_stats.uops_missed
        );
    }

    #[test]
    fn bypasses_never_reused_windows() {
        let t = trace_of(&[0, 128, 256, 0, 128]);
        // 256 is never reused: Belady bypasses its insertion.
        let mut cache = UopCache::new(small_cfg(), Box::new(BeladyPolicy::from_trace(&t)));
        let stats = run_trace(&mut cache, &t);
        assert!(stats.bypasses >= 1);
        // 0 and 128 hit on their second accesses.
        assert_eq!(stats.pw_hits, 2);
    }

    #[test]
    fn never_worse_than_lru_across_synthetic_apps() {
        use uopcache_trace::{build_trace, AppId, InputVariant};
        for app in [AppId::Kafka, AppId::Postgres] {
            let t = build_trace(app, InputVariant(0), 12_000);
            let cfg = UopCacheConfig::zen3();
            let mut lru = UopCache::new(cfg, Box::new(LruPolicy::new()));
            let lru_stats = run_trace(&mut lru, &t);
            let mut bel = UopCache::new(cfg, Box::new(BeladyPolicy::from_trace(&t)));
            let bel_stats = run_trace(&mut bel, &t);
            assert!(
                bel_stats.uops_missed <= lru_stats.uops_missed,
                "{app}: belady {} vs lru {}",
                bel_stats.uops_missed,
                lru_stats.uops_missed
            );
        }
    }

    #[test]
    fn recycled_index_replays_identically() {
        let pattern: Vec<u64> = (0..60).map(|i| [0u64, 128, 256][i % 3]).collect();
        let t = trace_of(&pattern);
        let mut first = UopCache::new(small_cfg(), Box::new(BeladyPolicy::from_trace(&t)));
        let first_stats = run_trace(&mut first, &t);

        // Exhaust the cursors, then recycle the index through the
        // from_index/into_index round trip: the rewind must restore a
        // byte-identical replay.
        let mut occ = crate::OccurrenceIndex::new(&t);
        occ.next_use_after(Addr::new(0), 60);
        occ.next_use_after(Addr::new(128), 60);
        occ.next_use_after(Addr::new(256), 60);
        let occ = BeladyPolicy::from_index(occ).into_index();
        let mut cache = UopCache::new(small_cfg(), Box::new(BeladyPolicy::from_index(occ)));
        let stats = run_trace(&mut cache, &t);
        assert_eq!(stats.uops_missed, first_stats.uops_missed);
        assert_eq!(stats.pw_hits, first_stats.pw_hits);
    }

    #[test]
    fn clock_tracks_lookups() {
        let t = trace_of(&[0, 128, 0]);
        let mut cache = UopCache::new(small_cfg(), Box::new(BeladyPolicy::from_trace(&t)));
        run_trace(&mut cache, &t);
        // Position advanced to the last access index.
    }
}
