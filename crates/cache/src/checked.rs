//! Runtime conformance checking of the [`PwReplacementPolicy`] contract
//! (feature `strict-invariants`).
//!
//! [`CheckedPolicy`] wraps any policy and independently re-derives, from the
//! hook sequence alone, what the cache state must be. Every hook is validated
//! against that shadow state before being forwarded, so a policy (or a cache
//! bug) that violates the documented contract — a victim index outside the
//! `resident` slice, a slot reused without an intervening `on_evict` /
//! `on_invalidate`, a set filled past its way count, two resident windows
//! with the same start address — panics at the exact hook where the
//! violation happened, not thousands of accesses later when the corrupted
//! state is finally observed.
//!
//! Violations panic with a *replayable* diagnostic: each message carries the
//! policy name, a monotone hook sequence number, and the full event
//! (set / slot / start address / entry count). Because every workspace trace
//! is a pure function of its seed, re-running the same access stream and
//! breaking on the printed hook number reproduces the failure exactly.
//!
//! # Examples
//!
//! ```
//! use uopcache_cache::{CheckedPolicy, LruPolicy, UopCache};
//! use uopcache_model::{Addr, PwDesc, PwTermination, UopCacheConfig};
//!
//! let cfg = UopCacheConfig::zen3();
//! let policy = CheckedPolicy::new(LruPolicy::new(), cfg.ways);
//! let mut cache = UopCache::new(cfg, Box::new(policy));
//! let pw = PwDesc::new(Addr::new(0x40), 6, 18, PwTermination::TakenBranch);
//! cache.lookup(&pw);
//! cache.insert(&pw);
//! uopcache_cache::checked::verify_stats(cache.stats());
//! ```

use crate::meta::PwMeta;
use crate::policy::PwReplacementPolicy;
use uopcache_model::hash::FastHashMap;
use uopcache_model::{Addr, UopCacheStats};

/// Shadow record of one resident window, keyed by `(set, slot)`.
#[derive(Copy, Clone, Debug)]
struct Live {
    start: Addr,
    entries: u8,
}

/// A conformance-checking wrapper around a replacement policy.
///
/// See the [module documentation](self) for the invariants enforced. The
/// wrapper is transparent: it forwards every hook to the inner policy and
/// reports the inner policy's [`name`](PwReplacementPolicy::name), so cache
/// behaviour and statistics are identical to running the policy bare.
pub struct CheckedPolicy<P: PwReplacementPolicy> {
    inner: P,
    ways: u32,
    /// Per-set live windows implied by the hook sequence.
    sets: FastHashMap<usize, FastHashMap<u8, Live>>,
    /// Hooks observed so far (the replay coordinate printed on violation).
    ops: u64,
}

impl<P: PwReplacementPolicy> CheckedPolicy<P> {
    /// Wraps `inner` for a cache whose sets have `ways` entry slots.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero.
    pub fn new(inner: P, ways: u32) -> Self {
        assert!(ways > 0, "ways must be nonzero");
        CheckedPolicy {
            inner,
            ways,
            sets: FastHashMap::default(),
            ops: 0,
        }
    }

    /// Hooks observed so far.
    #[cfg(test)]
    pub(crate) fn ops(&self) -> u64 {
        self.ops
    }

    /// Raises a conformance violation with the replay coordinate attached.
    #[track_caller]
    fn violation(&self, hook: &str, set: usize, detail: &str) -> ! {
        panic!(
            "strict-invariants violation in policy '{}' at hook #{} ({hook}, set {set}): \
             {detail} — replay the same seeded access stream and break at hook #{}",
            self.inner.name(),
            self.ops,
            self.ops,
        );
    }

    fn occupancy(&self, set: usize) -> u32 {
        self.sets
            .get(&set)
            .map_or(0, |s| s.values().map(|l| u32::from(l.entries)).sum())
    }

    /// Checks that `resident` is consistent with the shadow state: slot
    /// order, no ghosts (windows the hook sequence says were evicted), and
    /// no omissions (windows the hook sequence says are still resident).
    fn check_resident_slice(&self, hook: &str, set: usize, resident: &[PwMeta]) {
        let live = self.sets.get(&set);
        let live_count = live.map_or(0, FastHashMap::len);
        if resident.len() != live_count {
            self.violation(
                hook,
                set,
                &format!(
                    "resident slice has {} windows but the hook sequence implies {live_count}",
                    resident.len()
                ),
            );
        }
        let mut prev_slot: Option<u8> = None;
        for meta in resident {
            if prev_slot.is_some_and(|p| p >= meta.slot) {
                self.violation(hook, set, "resident slice is not in ascending slot order");
            }
            prev_slot = Some(meta.slot);
            match live.and_then(|s| s.get(&meta.slot)) {
                Some(l) if l.start == meta.desc.start => {}
                Some(l) => self.violation(
                    hook,
                    set,
                    &format!(
                        "slot {} holds start {:#x} but the hook sequence recorded {:#x}",
                        meta.slot,
                        meta.desc.start.get(),
                        l.start.get()
                    ),
                ),
                None => self.violation(
                    hook,
                    set,
                    &format!(
                        "slot {} (start {:#x}) appears resident but was never inserted \
                         (or already evicted)",
                        meta.slot,
                        meta.desc.start.get()
                    ),
                ),
            }
        }
    }

    fn remove(&mut self, hook: &str, set: usize, meta: &PwMeta) {
        let removed = self.sets.get_mut(&set).and_then(|s| s.remove(&meta.slot));
        match removed {
            Some(l) if l.start == meta.desc.start => {}
            Some(l) => self.violation(
                hook,
                set,
                &format!(
                    "slot {} evicted with start {:#x} but held {:#x}",
                    meta.slot,
                    meta.desc.start.get(),
                    l.start.get()
                ),
            ),
            None => self.violation(
                hook,
                set,
                &format!(
                    "slot {} (start {:#x}) evicted while not resident",
                    meta.slot,
                    meta.desc.start.get()
                ),
            ),
        }
    }
}

// audit:alloc-exempt — strict-invariants diagnostic wrapper: its whole job is
// building violation reports, so it allocates freely; the timed kernel and the
// alloc_budget wall never run with it enabled.
impl<P: PwReplacementPolicy> PwReplacementPolicy for CheckedPolicy<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn prepare(&mut self, sets: usize, ways: u32) {
        self.inner.prepare(sets, ways);
    }

    fn on_lookup(&mut self, pw: &uopcache_model::PwDesc) {
        self.ops += 1;
        self.inner.on_lookup(pw);
    }

    fn on_hit(&mut self, set: usize, meta: &PwMeta) {
        self.ops += 1;
        match self.sets.get(&set).and_then(|s| s.get(&meta.slot)) {
            Some(l) if l.start == meta.desc.start => {}
            _ => self.violation(
                "on_hit",
                set,
                &format!(
                    "hit reported on slot {} (start {:#x}) which is not resident",
                    meta.slot,
                    meta.desc.start.get()
                ),
            ),
        }
        self.inner.on_hit(set, meta);
    }

    fn on_insert(&mut self, set: usize, meta: &PwMeta) {
        self.ops += 1;
        let slots = self.sets.entry(set).or_default();
        if let Some(l) = slots.get(&meta.slot) {
            let held = l.start.get();
            self.violation(
                "on_insert",
                set,
                &format!(
                    "slot {} reused without an intervening on_evict/on_invalidate \
                     (held start {held:#x})",
                    meta.slot
                ),
            );
        }
        if slots.values().any(|l| l.start == meta.desc.start) {
            self.violation(
                "on_insert",
                set,
                &format!(
                    "duplicate start address {:#x} in set",
                    meta.desc.start.get()
                ),
            );
        }
        slots.insert(
            meta.slot,
            Live {
                start: meta.desc.start,
                entries: meta.entries,
            },
        );
        let occupied = self.occupancy(set);
        if occupied > self.ways {
            self.violation(
                "on_insert",
                set,
                &format!("set occupancy {occupied} exceeds {} ways", self.ways),
            );
        }
        self.inner.on_insert(set, meta);
    }

    fn on_evict(&mut self, set: usize, meta: &PwMeta) {
        self.ops += 1;
        self.remove("on_evict", set, meta);
        self.inner.on_evict(set, meta);
    }

    fn on_invalidate(&mut self, set: usize, meta: &PwMeta) {
        self.ops += 1;
        self.remove("on_invalidate", set, meta);
        self.inner.on_invalidate(set, meta);
    }

    fn should_bypass(
        &mut self,
        set: usize,
        incoming: &uopcache_model::PwDesc,
        needed_entries: u32,
        free_entries: u32,
        resident: &[PwMeta],
    ) -> bool {
        self.ops += 1;
        self.check_resident_slice("should_bypass", set, resident);
        let implied_free = self.ways - self.occupancy(set);
        if free_entries != implied_free {
            self.violation(
                "should_bypass",
                set,
                &format!(
                    "cache reports {free_entries} free entries but the hook sequence \
                     implies {implied_free}"
                ),
            );
        }
        self.inner
            .should_bypass(set, incoming, needed_entries, free_entries, resident)
    }

    fn choose_victim(
        &mut self,
        set: usize,
        incoming: &uopcache_model::PwDesc,
        resident: &[PwMeta],
    ) -> usize {
        self.ops += 1;
        if resident.is_empty() {
            self.violation("choose_victim", set, "called with an empty resident slice");
        }
        self.check_resident_slice("choose_victim", set, resident);
        let idx = self.inner.choose_victim(set, incoming, resident);
        if idx >= resident.len() {
            self.violation(
                "choose_victim",
                set,
                &format!(
                    "policy returned victim index {idx} for a resident slice of length {}",
                    resident.len()
                ),
            );
        }
        idx
    }

    fn last_selection_was_fallback(&self) -> bool {
        self.inner.last_selection_was_fallback()
    }

    fn introspect(&self) -> Option<uopcache_model::json::Json> {
        self.inner.introspect()
    }
}

impl<P: PwReplacementPolicy> std::fmt::Debug for CheckedPolicy<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckedPolicy")
            .field("inner", &self.inner.name())
            .field("ways", &self.ways)
            .field("ops", &self.ops)
            .finish()
    }
}

/// Panics unless the cache's books balance: micro-ops hit plus missed must
/// equal micro-ops requested, and PW-granularity outcomes (full hits, partial
/// hits, misses) must partition the lookups.
///
/// # Panics
///
/// Panics with the offending statistics if either conservation law fails.
pub fn verify_stats(stats: &UopCacheStats) {
    assert!(
        stats.uops_hit + stats.uops_missed == stats.uops_requested,
        "stats conservation violated: {} hit + {} missed != {} requested ({stats:?})",
        stats.uops_hit,
        stats.uops_missed,
        stats.uops_requested,
    );
    assert!(
        stats.pw_hits + stats.pw_partial_hits + stats.pw_misses == stats.lookups,
        "stats conservation violated: {} + {} + {} outcomes != {} lookups ({stats:?})",
        stats.pw_hits,
        stats.pw_partial_hits,
        stats.pw_misses,
        stats.lookups,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::LruPolicy;
    use crate::uopcache::UopCache;
    use uopcache_model::{PwDesc, PwTermination, UopCacheConfig};

    fn pw(start: u64, uops: u32) -> PwDesc {
        PwDesc::new(
            Addr::new(start),
            uops,
            (uops * 3).max(1),
            PwTermination::TakenBranch,
        )
    }

    fn small_cfg() -> UopCacheConfig {
        UopCacheConfig {
            entries: 8,
            ways: 4,
            uops_per_entry: 8,
            switch_penalty: 1,
            inclusive_with_l1i: true,
            max_entries_per_pw: 4,
        }
    }

    fn meta(start: u64, slot: u8, entries: u8) -> PwMeta {
        PwMeta {
            desc: pw(start, 4),
            slot,
            entries,
            inserted_at: 0,
            last_access: 0,
            hits: 0,
        }
    }

    #[test]
    fn clean_run_through_the_real_cache_is_silent() {
        let cfg = small_cfg();
        let mut cache = UopCache::new(
            cfg,
            Box::new(CheckedPolicy::new(LruPolicy::new(), cfg.ways)),
        );
        for i in 0..200u64 {
            let w = pw(
                0x40 + (i % 9) * 64,
                u32::try_from(i % 20 + 1).expect("small"),
            );
            cache.lookup(&w);
            cache.insert(&w);
        }
        verify_stats(cache.stats());
    }

    #[test]
    fn invalidation_paths_are_tracked() {
        let cfg = small_cfg();
        let mut cache = UopCache::new(
            cfg,
            Box::new(CheckedPolicy::new(LruPolicy::new(), cfg.ways)),
        );
        let w = pw(0x40, 6);
        cache.insert(&w);
        assert_eq!(cache.invalidate_line(Addr::new(0x40).line(64)), 1);
        // The freed slot can be reused without tripping the checker.
        cache.insert(&pw(0x140, 6));
    }

    #[test]
    #[should_panic(expected = "reused without an intervening on_evict")]
    fn slot_reuse_without_evict_is_caught() {
        let mut p = CheckedPolicy::new(LruPolicy::new(), 4);
        p.on_insert(0, &meta(0x40, 0, 1));
        p.on_insert(0, &meta(0x80, 0, 1)); // same slot, no eviction first
    }

    #[test]
    #[should_panic(expected = "duplicate start address")]
    fn duplicate_start_is_caught() {
        let mut p = CheckedPolicy::new(LruPolicy::new(), 4);
        p.on_insert(0, &meta(0x40, 0, 1));
        p.on_insert(0, &meta(0x40, 1, 1));
    }

    #[test]
    #[should_panic(expected = "exceeds 2 ways")]
    fn overfull_set_is_caught() {
        let mut p = CheckedPolicy::new(LruPolicy::new(), 2);
        p.on_insert(0, &meta(0x40, 0, 2));
        p.on_insert(0, &meta(0x80, 1, 1));
    }

    #[test]
    #[should_panic(expected = "evicted while not resident")]
    fn evicting_a_ghost_is_caught() {
        let mut p = CheckedPolicy::new(LruPolicy::new(), 4);
        p.on_evict(0, &meta(0x40, 0, 1));
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn hit_on_absent_window_is_caught() {
        let mut p = CheckedPolicy::new(LruPolicy::new(), 4);
        p.on_hit(0, &meta(0x40, 0, 1));
    }

    #[test]
    #[should_panic(expected = "victim index 7")]
    fn out_of_range_victim_is_caught() {
        /// A deliberately broken policy for exercising the checker.
        struct Rogue;
        impl PwReplacementPolicy for Rogue {
            fn name(&self) -> &'static str {
                "Rogue"
            }
            fn on_hit(&mut self, _: usize, _: &PwMeta) {}
            fn on_insert(&mut self, _: usize, _: &PwMeta) {}
            fn on_evict(&mut self, _: usize, _: &PwMeta) {}
            fn choose_victim(&mut self, _: usize, _: &PwDesc, _: &[PwMeta]) -> usize {
                7
            }
        }
        let mut p = CheckedPolicy::new(Rogue, 4);
        p.on_insert(0, &meta(0x40, 0, 1));
        let _ = p.choose_victim(0, &pw(0x80, 4), &[meta(0x40, 0, 1)]);
    }

    #[test]
    #[should_panic(expected = "stats conservation violated")]
    fn verify_stats_rejects_unbalanced_books() {
        let stats = UopCacheStats {
            lookups: 3,
            pw_hits: 1,
            ..UopCacheStats::default()
        };
        verify_stats(&stats);
    }

    #[test]
    fn violation_message_carries_the_replay_coordinate() {
        let mut p = CheckedPolicy::new(LruPolicy::new(), 4);
        p.on_insert(0, &meta(0x40, 0, 1));
        p.on_hit(0, &meta(0x40, 0, 1));
        assert_eq!(p.ops(), 2);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.on_evict(1, &meta(0x40, 0, 1)); // wrong set
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string panic payload");
        assert!(msg.contains("hook #3"), "{msg}");
        assert!(msg.contains("policy 'LRU'"), "{msg}");
        assert!(msg.contains("set 1"), "{msg}");
    }
}
