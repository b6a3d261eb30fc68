//! The micro-op cache storage structure.

use crate::classify::{MissClass, MissClassifier};
use crate::meta::PwMeta;
use crate::policy::PwReplacementPolicy;
use crate::pwset::PwSet;
use std::ops::{Range, RangeInclusive};
use uopcache_model::{Addr, LineAddr, PwDesc, UopCacheConfig, UopCacheStats};
#[cfg(feature = "obs")]
use uopcache_obs::{Event, EventKind, Recorder, Verdict};

/// Outcome of a micro-op cache lookup, at micro-op granularity.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum LookupResult {
    /// All requested micro-ops were served from the cache (the stored PW
    /// covers the request, possibly via an intermediate exit point).
    Hit {
        /// Micro-ops served.
        uops: u32,
    },
    /// A shorter PW with the same start address served the front of the
    /// request; the remainder must come from the legacy decode path, which
    /// will then form and insert the larger window (§II-D).
    PartialHit {
        /// Micro-ops served from the cache.
        hit_uops: u32,
        /// Micro-ops that missed.
        miss_uops: u32,
    },
    /// Nothing with this start address is resident.
    Miss,
}

impl LookupResult {
    /// Micro-ops served from the cache.
    pub fn hit_uops(&self) -> u32 {
        match *self {
            LookupResult::Hit { uops } => uops,
            LookupResult::PartialHit { hit_uops, .. } => hit_uops,
            LookupResult::Miss => 0,
        }
    }

    /// Micro-ops that must come from the legacy decode path.
    pub fn miss_uops(&self, requested: u32) -> u32 {
        requested - self.hit_uops()
    }

    /// Whether the lookup fully hit.
    pub fn is_full_hit(&self) -> bool {
        matches!(self, LookupResult::Hit { .. })
    }
}

/// Outcome of a micro-op cache insertion attempt.
///
/// Kept `Copy` so the hot insertion path allocates nothing.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum InsertOutcome {
    /// The PW was written into the cache.
    Inserted {
        /// Number of whole PWs evicted by the replacement policy to make
        /// room.
        evicted: u32,
    },
    /// The policy chose to bypass the insertion.
    Bypassed,
    /// A window with the same start address and at least this many micro-ops
    /// was already resident — nothing to do (its recency is refreshed by the
    /// lookup path, not by insertion).
    AlreadyPresent,
    /// The PW needs more entries than the configuration allows a single PW to
    /// occupy (`max_entries_per_pw`) — it streams from the decoder instead.
    TooLarge,
}

/// The micro-op cache: `sets × ways` entries, each holding up to
/// `uops_per_entry` micro-ops, managed at PW granularity by a pluggable
/// replacement policy.
///
/// This structure models *placement* semantics only (who is resident, partial
/// hits, inclusion). Timing — the asynchronous insertion delay, the switch
/// penalty — is layered on by `uopcache-sim`.
///
/// # Examples
///
/// ```
/// use uopcache_cache::{LookupResult, LruPolicy, UopCache};
/// use uopcache_model::{Addr, PwDesc, PwTermination, UopCacheConfig};
///
/// let mut c = UopCache::new(UopCacheConfig::zen3(), Box::new(LruPolicy::new()));
/// // A long window serves a shorter overlapping one (partial-hit coverage).
/// let long = PwDesc::new(Addr::new(0x40), 10, 30, PwTermination::TakenBranch);
/// let short = PwDesc::new(Addr::new(0x40), 4, 12, PwTermination::TakenBranch);
/// c.insert(&long);
/// assert_eq!(c.lookup(&short), LookupResult::Hit { uops: 4 });
/// ```
pub struct UopCache {
    cfg: UopCacheConfig,
    line_bytes: u64,
    sets: Vec<PwSet>,
    policy: Box<dyn PwReplacementPolicy>,
    stats: UopCacheStats,
    classifier: Option<MissClassifier>,
    /// Global access counter (advances on every lookup).
    now: u64,
    /// `log2(line_bytes)` — set indexing is a shift, not a division.
    set_shift: u32,
    /// `sets - 1` when the set count is a power of two (the common
    /// geometries); `None` falls back to a modulo by the set count.
    set_mask: Option<u64>,
    /// Largest `PwDesc::bytes` ever made resident (monotone, 0 while the
    /// cache has never held a window). Bounds how many lines before an
    /// evicted L1i line a window touching it can start in.
    max_bytes: u32,
    /// Scratch buffer for the slot-ordered resident slice handed to the
    /// policy (capacity `ways`, reused across insertions — never grows).
    resident_scratch: Vec<PwMeta>,
    /// Optional event sink (`None` — the default — skips all emission work).
    #[cfg(feature = "obs")]
    recorder: Option<Box<dyn Recorder>>,
    /// Externally supplied event timestamp (the frontend's cycle counter);
    /// falls back to the access counter when the cache is driven standalone.
    #[cfg(feature = "obs")]
    obs_cycle: Option<u64>,
}

impl UopCache {
    /// Creates a micro-op cache with the given geometry and replacement
    /// policy. Uses 64-byte i-cache lines for set indexing.
    pub fn new(cfg: UopCacheConfig, policy: Box<dyn PwReplacementPolicy>) -> Self {
        Self::with_line_bytes(cfg, policy, 64)
    }

    /// As [`UopCache::new`] with an explicit i-cache line size.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see
    /// [`UopCacheConfig::sets`]) or `line_bytes` is not a power of two.
    pub fn with_line_bytes(
        cfg: UopCacheConfig,
        mut policy: Box<dyn PwReplacementPolicy>,
        line_bytes: u64,
    ) -> Self {
        let set_count = cfg.sets();
        let sets = (0..set_count).map(|_| PwSet::new(cfg.ways)).collect();
        policy.prepare(set_count as usize, cfg.ways);
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        UopCache {
            cfg,
            line_bytes,
            sets,
            policy,
            stats: UopCacheStats::default(),
            classifier: None,
            now: 0,
            set_shift: line_bytes.trailing_zeros(),
            set_mask: u64::from(set_count)
                .is_power_of_two()
                .then(|| u64::from(set_count) - 1),
            max_bytes: 0,
            resident_scratch: Vec::with_capacity(cfg.ways as usize),
            #[cfg(feature = "obs")]
            recorder: None,
            #[cfg(feature = "obs")]
            obs_cycle: None,
        }
    }

    /// Installs an event sink; every subsequent lookup/insert/evict/bypass/
    /// invalidate emits one [`Event`] into it.
    #[cfg(feature = "obs")]
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.recorder = Some(recorder);
    }

    /// The installed event sink, if any.
    #[cfg(feature = "obs")]
    pub fn recorder(&self) -> Option<&dyn Recorder> {
        self.recorder.as_deref()
    }

    /// Removes and returns the installed event sink.
    #[cfg(feature = "obs")]
    pub fn take_recorder(&mut self) -> Option<Box<dyn Recorder>> {
        self.recorder.take()
    }

    /// Sets the timestamp stamped onto subsequent events (the frontend
    /// forwards its cycle counter here once per access). Without it, events
    /// carry the cache's own access counter.
    #[cfg(feature = "obs")]
    pub fn set_cycle(&mut self, cycle: u64) {
        self.obs_cycle = Some(cycle);
    }

    /// Builds and emits one event, if a recorder is installed.
    #[cfg(feature = "obs")]
    #[allow(clippy::too_many_arguments)]
    fn emit(
        &mut self,
        kind: EventKind,
        set_idx: usize,
        slot: Option<u8>,
        start: Addr,
        uops: u32,
        entries: u32,
        verdict: Verdict,
    ) {
        if let Some(rec) = &mut self.recorder {
            rec.record(&Event {
                cycle: self.obs_cycle.unwrap_or(self.now),
                kind,
                set: u32::try_from(set_idx).expect("set index fits in u32"),
                slot,
                start: start.get(),
                uops,
                entries,
                verdict,
            });
        }
    }

    /// Enables cold/capacity/conflict miss classification (adds a
    /// fully-associative LRU shadow of equal entry capacity).
    pub fn enable_classification(&mut self) {
        self.classifier = Some(MissClassifier::new(
            self.cfg.entries,
            self.cfg.uops_per_entry,
        ));
    }

    /// The installed replacement policy (for post-run introspection —
    /// diagnostics surfaces read [`PwReplacementPolicy::introspect`] through
    /// this).
    pub fn policy(&self) -> &dyn PwReplacementPolicy {
        self.policy.as_ref()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &UopCacheStats {
        &self.stats
    }

    /// Total entries currently occupied.
    pub fn occupied_entries(&self) -> u32 {
        self.sets.iter().map(PwSet::used_entries).sum()
    }

    /// Whether a window starting at `start` is resident, and with how many
    /// micro-ops.
    pub fn resident_uops(&self, start: Addr) -> Option<u32> {
        let set = self.set_index(start);
        self.sets[set].find(start).map(|m| m.desc.uops)
    }

    /// Looks up a prediction window and updates statistics and policy
    /// recency state.
    // audit:hot-path — per-access entry point; must stay allocation-free warmed
    pub fn lookup(&mut self, pw: &PwDesc) -> LookupResult {
        self.now += 1;
        self.stats.lookups += 1;
        self.stats.uops_requested += u64::from(pw.uops);
        self.policy.on_lookup(pw);
        let set_idx = self.set_index(pw.start);
        let found = self.sets[set_idx]
            .find(pw.start)
            .map(|m| (m.slot, m.desc.uops));
        let result = match found {
            Some((slot, stored_uops)) => {
                let meta = self.sets[set_idx].touch(slot, self.now);
                self.policy.on_hit(set_idx, &meta);
                if stored_uops >= pw.uops {
                    LookupResult::Hit { uops: pw.uops }
                } else {
                    LookupResult::PartialHit {
                        hit_uops: stored_uops,
                        miss_uops: pw.uops - stored_uops,
                    }
                }
            }
            None => LookupResult::Miss,
        };
        match result {
            LookupResult::Hit { uops } => {
                self.stats.pw_hits += 1;
                self.stats.uops_hit += u64::from(uops);
            }
            LookupResult::PartialHit {
                hit_uops,
                miss_uops,
            } => {
                self.stats.pw_partial_hits += 1;
                self.stats.uops_hit += u64::from(hit_uops);
                self.stats.uops_missed += u64::from(miss_uops);
            }
            LookupResult::Miss => {
                self.stats.pw_misses += 1;
                self.stats.uops_missed += u64::from(pw.uops);
            }
        }
        // Checked here so an unrecorded lookup skips the entry division.
        #[cfg(feature = "obs")]
        if self.recorder.is_some() {
            let kind = match result {
                LookupResult::Hit { .. } => EventKind::Hit,
                LookupResult::PartialHit { .. } => EventKind::PartialHit,
                LookupResult::Miss => EventKind::Miss,
            };
            self.emit(
                kind,
                set_idx,
                found.map(|(slot, _)| slot),
                pw.start,
                pw.uops,
                pw.entries(self.cfg.uops_per_entry),
                Verdict::None,
            );
        }
        if let Some(cls) = &mut self.classifier {
            let missed = result.miss_uops(pw.uops);
            if missed > 0 {
                match cls.classify(pw) {
                    MissClass::Cold => self.stats.cold_miss_uops += u64::from(missed),
                    MissClass::Capacity => self.stats.capacity_miss_uops += u64::from(missed),
                    MissClass::Conflict => self.stats.conflict_miss_uops += u64::from(missed),
                }
            }
            cls.record_access(pw);
        }
        result
    }

    /// Inserts a decoded prediction window, consulting the replacement policy
    /// for bypass and victim decisions.
    ///
    /// If a *shorter* window with the same start address is resident, it is
    /// upgraded in place to the larger window (the paper keeps the larger
    /// window, §IV). If an equal-or-longer window is resident the insertion
    /// is a no-op.
    // audit:hot-path — per-miss fill path; must stay allocation-free warmed
    pub fn insert(&mut self, pw: &PwDesc) -> InsertOutcome {
        let entries = pw.entries(self.cfg.uops_per_entry);
        let set_idx = self.set_index(pw.start);
        if entries > self.cfg.max_entries_per_pw || entries > self.cfg.ways {
            self.stats.bypasses += 1;
            #[cfg(feature = "obs")]
            self.emit(
                EventKind::Bypass,
                set_idx,
                None,
                pw.start,
                pw.uops,
                entries,
                Verdict::TooLarge,
            );
            return InsertOutcome::TooLarge;
        }

        // Overlapping-window upgrade path.
        if let Some(existing) = self.sets[set_idx].find(pw.start).copied() {
            if existing.desc.uops >= pw.uops {
                return InsertOutcome::AlreadyPresent;
            }
            // Upgrade: remove the shorter window, then fall through to a
            // regular insertion of the larger one (which may need to evict).
            let old = self.sets[set_idx].remove_slot(existing.slot);
            self.policy.on_evict(set_idx, &old);
            #[cfg(feature = "obs")]
            self.emit(
                EventKind::Evict,
                set_idx,
                Some(old.slot),
                old.desc.start,
                old.desc.uops,
                u32::from(old.entries),
                Verdict::Upgrade,
            );
        }

        self.sets[set_idx].fill_residents(&mut self.resident_scratch);
        let free = self.sets[set_idx].free_entries();
        if self
            .policy
            .should_bypass(set_idx, pw, entries, free, &self.resident_scratch)
        {
            self.stats.bypasses += 1;
            #[cfg(feature = "obs")]
            self.emit(
                EventKind::Bypass,
                set_idx,
                None,
                pw.start,
                pw.uops,
                entries,
                Verdict::PolicyBypass,
            );
            return InsertOutcome::Bypassed;
        }

        // The snapshot stays in step with the set: each victim's element is
        // removed from it, which keeps the rest in slot order, exactly as a
        // refill would.
        let mut evicted = 0;
        while self.sets[set_idx].free_entries() < entries {
            debug_assert!(
                !self.resident_scratch.is_empty(),
                "no residents but set is full"
            );
            let victim_idx = self
                .policy
                .choose_victim(set_idx, pw, &self.resident_scratch);
            let fallback = self.policy.last_selection_was_fallback();
            if fallback {
                self.stats.fallback_victim_selections += 1;
            } else {
                self.stats.primary_victim_selections += 1;
            }
            let victim = self.resident_scratch.remove(victim_idx);
            let removed = self.sets[set_idx].remove_slot(victim.slot);
            self.policy.on_evict(set_idx, &removed);
            self.stats.evicted_pws += 1;
            self.stats.evicted_entries += u64::from(removed.entries);
            #[cfg(feature = "obs")]
            self.emit(
                EventKind::Evict,
                set_idx,
                Some(removed.slot),
                removed.desc.start,
                removed.desc.uops,
                u32::from(removed.entries),
                if fallback {
                    Verdict::Fallback
                } else {
                    Verdict::Primary
                },
            );
            evicted += 1;
        }
        let meta = self.sets[set_idx].insert(*pw, entries, self.now);
        self.max_bytes = self.max_bytes.max(pw.bytes);
        self.policy.on_insert(set_idx, &meta);
        self.stats.insertions += 1;
        self.stats.entries_written += u64::from(entries);
        #[cfg(feature = "obs")]
        self.emit(
            EventKind::Insert,
            set_idx,
            Some(meta.slot),
            pw.start,
            pw.uops,
            entries,
            Verdict::None,
        );
        InsertOutcome::Inserted { evicted }
    }

    /// Invalidates every resident PW that touches the given i-cache line
    /// (called on L1i evictions when the micro-op cache is inclusive).
    /// Returns the number of PWs invalidated.
    ///
    /// Only the sets such a window can live in are visited. A window is
    /// indexed by its start line and no resident window ever spanned more
    /// than `max_bytes` bytes, so one touching line `L` starts in a line in
    /// `[L − ⌈(max_bytes − 1)/line_bytes⌉, L]`. Consecutive lines map to
    /// consecutive sets, so those lines name a run of sets that may wrap
    /// past the last one. The run is visited in ascending set order, and
    /// each set's victims in slot order, so policy hooks, events and
    /// statistics come out exactly as from a scan of every set. When the
    /// run would cover every set, every set is scanned.
    // audit:hot-path — per-L1i-eviction inclusion path; must stay allocation-free warmed
    pub fn invalidate_line(&mut self, line: LineAddr) -> u32 {
        let base = line.base().get();
        // A line not aligned to this cache's line size equals none of the
        // lines a resident window touches.
        if base & (self.line_bytes - 1) != 0 {
            return 0;
        }
        let (low, high) = self.candidate_sets(base >> self.set_shift);
        let mut invalidated = 0;
        for set_idx in low.chain(high) {
            let mut victims = self.sets[set_idx].slots_touching(line, self.line_bytes);
            while victims != 0 {
                let slot = u8::try_from(victims.trailing_zeros()).expect("slot ids are below 64");
                victims &= victims - 1;
                let removed = self.sets[set_idx].remove_slot(slot);
                self.policy.on_invalidate(set_idx, &removed);
                self.stats.inclusion_invalidations += 1;
                invalidated += 1;
                #[cfg(feature = "obs")]
                self.emit(
                    EventKind::Invalidate,
                    set_idx,
                    Some(removed.slot),
                    removed.desc.start,
                    removed.desc.uops,
                    u32::from(removed.entries),
                    Verdict::None,
                );
            }
        }
        invalidated
    }

    /// The sets a window touching line number `line_idx` can be indexed
    /// by, as two ascending runs of set indices: the second is empty unless
    /// the run wraps past the last set, and the first is every set when the
    /// run would cover them all.
    fn candidate_sets(&self, line_idx: u64) -> (RangeInclusive<usize>, Range<usize>) {
        let sets = self.sets.len();
        // `⌈(max_bytes − 1) / line_bytes⌉` with a shift: the line size is
        // a power of two.
        let reach = u64::from(self.max_bytes.saturating_sub(1));
        let span = (reach >> self.set_shift) + u64::from(reach & (self.line_bytes - 1) != 0);
        if span + 1 >= sets as u64 {
            return (0..=sets - 1, 0..0);
        }
        let first = self.set_of_line(line_idx.saturating_sub(span));
        let last = self.set_of_line(line_idx);
        if first <= last {
            (first..=last, 0..0)
        } else {
            (0..=last, first..sets)
        }
    }

    /// Removes a specific resident window (used by offline decision replay
    /// for late/lazy evictions). Returns `true` if it was resident.
    pub fn evict_start(&mut self, start: Addr) -> bool {
        let set_idx = self.set_index(start);
        match self.sets[set_idx].remove_start(start) {
            Some(meta) => {
                self.policy.on_evict(set_idx, &meta);
                self.stats.evicted_pws += 1;
                self.stats.evicted_entries += u64::from(meta.entries);
                #[cfg(feature = "obs")]
                self.emit(
                    EventKind::Evict,
                    set_idx,
                    Some(meta.slot),
                    meta.desc.start,
                    meta.desc.uops,
                    u32::from(meta.entries),
                    Verdict::None,
                );
                true
            }
            None => false,
        }
    }

    /// Free entries in the set that `start` maps to.
    #[cfg(test)]
    pub(crate) fn free_entries_for(&self, start: Addr) -> u32 {
        self.sets[self.set_index(start)].free_entries()
    }

    /// Set index for `start`, via the shift/mask precomputed at
    /// construction (the per-lookup division in
    /// [`UopCacheConfig::set_index_for`] is measurable on the hot path).
    /// Produces identical indices to that method.
    #[inline]
    fn set_index(&self, start: Addr) -> usize {
        self.set_of_line(start.get() >> self.set_shift)
    }

    /// Set index for line number `line_idx` (a byte address shifted right
    /// by `log2(line_bytes)`).
    #[inline]
    fn set_of_line(&self, line_idx: u64) -> usize {
        #[allow(clippy::cast_possible_truncation)]
        match self.set_mask {
            Some(mask) => (line_idx & mask) as usize,
            None => (line_idx % self.sets.len() as u64) as usize,
        }
    }
}

impl std::fmt::Debug for UopCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UopCache")
            .field("cfg", &self.cfg)
            .field("policy", &self.policy.name())
            .field("occupied_entries", &self.occupied_entries())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::LruPolicy;
    use std::cell::RefCell;
    use std::rc::Rc;
    use uopcache_model::rng::{Prng, Rng};
    use uopcache_model::PwTermination;

    fn pw(start: u64, uops: u32) -> PwDesc {
        PwDesc::new(
            Addr::new(start),
            uops,
            (uops * 3).max(1),
            PwTermination::TakenBranch,
        )
    }

    fn small_cache() -> UopCache {
        // 2 sets x 4 ways = 8 entries, 8 uops/entry, up to 4 entries per PW.
        let cfg = UopCacheConfig {
            entries: 8,
            ways: 4,
            uops_per_entry: 8,
            switch_penalty: 1,
            inclusive_with_l1i: true,
            max_entries_per_pw: 4,
        };
        UopCache::new(cfg, Box::new(LruPolicy::new()))
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small_cache();
        let w = pw(0x40, 6);
        assert_eq!(c.lookup(&w), LookupResult::Miss);
        assert!(matches!(c.insert(&w), InsertOutcome::Inserted { .. }));
        assert_eq!(c.lookup(&w), LookupResult::Hit { uops: 6 });
        let s = c.stats();
        assert_eq!(s.pw_misses, 1);
        assert_eq!(s.pw_hits, 1);
        assert_eq!(s.uops_missed, 6);
        assert_eq!(s.uops_hit, 6);
    }

    #[test]
    fn partial_hit_when_stored_window_is_shorter() {
        let mut c = small_cache();
        let short = pw(0x40, 4);
        let long = pw(0x40, 10);
        c.insert(&short);
        assert_eq!(
            c.lookup(&long),
            LookupResult::PartialHit {
                hit_uops: 4,
                miss_uops: 6
            }
        );
        assert_eq!(c.stats().pw_partial_hits, 1);
    }

    #[test]
    fn larger_window_serves_shorter_lookup() {
        let mut c = small_cache();
        c.insert(&pw(0x40, 10));
        assert_eq!(c.lookup(&pw(0x40, 4)), LookupResult::Hit { uops: 4 });
    }

    #[test]
    fn upgrade_keeps_larger_window() {
        let mut c = small_cache();
        c.insert(&pw(0x40, 4));
        assert_eq!(c.resident_uops(Addr::new(0x40)), Some(4));
        assert!(matches!(
            c.insert(&pw(0x40, 12)),
            InsertOutcome::Inserted { .. }
        ));
        assert_eq!(c.resident_uops(Addr::new(0x40)), Some(12));
        // Re-inserting the short window does nothing.
        assert_eq!(c.insert(&pw(0x40, 4)), InsertOutcome::AlreadyPresent);
        assert_eq!(c.resident_uops(Addr::new(0x40)), Some(12));
    }

    #[test]
    fn eviction_frees_enough_entries_for_multi_entry_pw() {
        let mut c = small_cache();
        // Fill one set (addresses in the same set: stride = sets*line = 2*64).
        for i in 0..4 {
            c.insert(&pw(0x40 + i * 128, 8)); // 1 entry each, set 1
        }
        assert_eq!(c.free_entries_for(Addr::new(0x40)), 0);
        // Inserting a 3-entry PW must evict 3 LRU PWs.
        let out = c.insert(&pw(0x40 + 4 * 128, 24));
        match out {
            InsertOutcome::Inserted { evicted } => assert_eq!(evicted, 3),
            other => panic!("expected insertion, got {other:?}"),
        }
        // 4 ways: one surviving 1-entry PW + the new 3-entry PW.
        assert_eq!(c.free_entries_for(Addr::new(0x40)), 0);
    }

    #[test]
    fn too_large_pw_is_not_cached() {
        let mut c = small_cache();
        assert_eq!(c.insert(&pw(0x40, 33)), InsertOutcome::TooLarge); // 5 entries > max 4
        assert_eq!(c.stats().bypasses, 1);
    }

    #[test]
    fn invalidate_line_honours_inclusion() {
        let mut c = small_cache();
        let w = pw(0x40, 6); // line 0x40
        c.insert(&w);
        assert_eq!(c.invalidate_line(Addr::new(0x47).line(64)), 1);
        assert_eq!(c.lookup(&w), LookupResult::Miss);
        assert_eq!(c.stats().inclusion_invalidations, 1);
        // Invalidating again is a no-op.
        assert_eq!(c.invalidate_line(Addr::new(0x47).line(64)), 0);
    }

    #[test]
    fn invalidate_hits_multi_line_pws() {
        let mut c = small_cache();
        // Window spanning lines 0x40 and 0x80.
        let w = PwDesc::new(Addr::new(0x70), 6, 0x20, PwTermination::TakenBranch);
        c.insert(&w);
        assert_eq!(c.invalidate_line(Addr::new(0x80).line(64)), 1);
    }

    /// The inclusion walk `invalidate_line` replaced: every set in order,
    /// every resident whose lines include `line`, in slot order. The
    /// reference the candidate-set walk is checked against.
    fn invalidate_line_full_scan(c: &mut UopCache, line: LineAddr) -> u32 {
        let mut invalidated = 0;
        for set_idx in 0..c.sets.len() {
            let victims: Vec<u8> = c.sets[set_idx]
                .residents()
                .filter(|m| m.desc.lines(c.line_bytes).any(|l| l == line))
                .map(|m| m.slot)
                .collect();
            for slot in victims {
                let removed = c.sets[set_idx].remove_slot(slot);
                c.policy.on_invalidate(set_idx, &removed);
                c.stats.inclusion_invalidations += 1;
                invalidated += 1;
            }
        }
        invalidated
    }

    /// Every `on_invalidate` call, as `(set, slot, start)`.
    type InvalidationLog = Rc<RefCell<Vec<(usize, u8, Addr)>>>;

    /// LRU that logs its `on_invalidate` calls.
    struct InvalidationRecorder {
        log: InvalidationLog,
    }

    impl PwReplacementPolicy for InvalidationRecorder {
        fn name(&self) -> &'static str {
            "invalidation-recorder"
        }

        fn on_hit(&mut self, _set: usize, _meta: &PwMeta) {}

        fn on_insert(&mut self, _set: usize, _meta: &PwMeta) {}

        fn on_evict(&mut self, _set: usize, _meta: &PwMeta) {}

        fn on_invalidate(&mut self, set: usize, meta: &PwMeta) {
            self.log
                .borrow_mut()
                .push((set, meta.slot, meta.desc.start));
        }

        fn choose_victim(&mut self, set: usize, incoming: &PwDesc, resident: &[PwMeta]) -> usize {
            LruPolicy::new().choose_victim(set, incoming, resident)
        }
    }

    /// What one differential stream exercised.
    #[derive(Default)]
    struct Coverage {
        /// Windows invalidated.
        invalidated: u32,
        /// Windows invalidated through a candidate run that wrapped past
        /// the last set.
        wrapped: u32,
        /// Invalidations that fell back to scanning every set.
        full_scans: u32,
    }

    /// Drives one seeded stream of lookups, insertions and invalidations
    /// through twin caches — one invalidating through the candidate sets,
    /// one through the full-scan reference — and asserts they agree.
    fn differential(cfg: UopCacheConfig, seed: u64, ops: usize) -> Coverage {
        let (fast_log, slow_log) = (InvalidationLog::default(), InvalidationLog::default());
        let mut fast = UopCache::new(
            cfg,
            Box::new(InvalidationRecorder {
                log: Rc::clone(&fast_log),
            }),
        );
        let mut slow = UopCache::new(
            cfg,
            Box::new(InvalidationRecorder {
                log: Rc::clone(&slow_log),
            }),
        );
        let sets = fast.sets.len();
        let mut rng = Prng::seed_from_u64(seed);
        // Four laps of the set array: candidate runs wrap past set 0.
        let bytes = 4 * u64::from(cfg.sets()) * 64;
        let mut seen = Coverage::default();
        for _ in 0..ops {
            let start = rng.gen_range(0..bytes);
            if rng.gen_bool(0.6) {
                // Up to 193 bytes from any offset: windows span 1–4 lines.
                let w = PwDesc::new(
                    Addr::new(start),
                    rng.gen_range(1..=24u32),
                    rng.gen_range(1..=193u32),
                    PwTermination::TakenBranch,
                );
                assert_eq!(fast.lookup(&w), slow.lookup(&w));
                assert_eq!(fast.insert(&w), slow.insert(&w));
            } else {
                // Now and then a line not aligned to the cache's line size,
                // which touches nothing.
                let line = if rng.gen_bool(0.05) {
                    Addr::new(start | 1).line(1)
                } else {
                    Addr::new(start).line(64)
                };
                let (low, high) = fast.candidate_sets(start >> 6);
                let n = fast.invalidate_line(line);
                assert_eq!(n, invalidate_line_full_scan(&mut slow, line), "{line}");
                seen.invalidated += n;
                if !high.is_empty() {
                    seen.wrapped += n;
                }
                if low == (0..=sets - 1) {
                    seen.full_scans += 1;
                }
            }
        }
        assert_eq!(*fast_log.borrow(), *slow_log.borrow());
        assert_eq!(fast.stats(), slow.stats());
        for (a, b) in fast.sets.iter().zip(&slow.sets) {
            assert_eq!(a.resident_metas(), b.resident_metas());
        }
        seen
    }

    #[test]
    fn candidate_set_invalidation_matches_a_full_scan() {
        let two_sets = small_cache().cfg;
        for (label, cfg) in [
            ("zen3", UopCacheConfig::zen3()),
            ("zen4", UopCacheConfig::zen4()),
            ("two-set", two_sets),
        ] {
            let mut seen = Coverage::default();
            for seed in 0..4 {
                let s = differential(cfg, seed, 3_000);
                seen.invalidated += s.invalidated;
                seen.wrapped += s.wrapped;
                seen.full_scans += s.full_scans;
            }
            assert!(seen.invalidated > 0, "{label}: nothing invalidated");
            if cfg.sets() == 2 {
                assert!(seen.full_scans > 0, "{label}: never fell back");
            } else {
                assert!(seen.wrapped > 0, "{label}: no wrapping run hit");
                assert_eq!(seen.full_scans, 0, "{label}: fell back");
            }
        }
    }

    #[test]
    fn evict_start_supports_offline_replay() {
        let mut c = small_cache();
        c.insert(&pw(0x40, 6));
        assert!(c.evict_start(Addr::new(0x40)));
        assert!(!c.evict_start(Addr::new(0x40)));
    }

    #[test]
    fn classification_splits_cold_capacity_conflict() {
        // 2 sets x 2 ways: tiny cache to force conflicts.
        let cfg = UopCacheConfig {
            entries: 4,
            ways: 2,
            uops_per_entry: 8,
            switch_penalty: 1,
            inclusive_with_l1i: true,
            max_entries_per_pw: 2,
        };
        let mut c = UopCache::new(cfg, Box::new(LruPolicy::new()));
        c.enable_classification();
        // First touches are cold.
        for i in 0..2 {
            let w = pw(0x40 + i * 128, 4);
            c.lookup(&w);
            c.insert(&w);
        }
        assert_eq!(c.stats().cold_miss_uops, 8);
        // Re-access: hits, no new misses.
        for i in 0..2 {
            c.lookup(&pw(0x40 + i * 128, 4));
        }
        assert_eq!(c.stats().uops_missed, 8);
        // Conflict: hammer 3 PWs mapping to one set while the other set is
        // idle — a fully-associative cache of the same size would hold them.
        for round in 0..3 {
            for i in 0..3 {
                let w = pw(0x40 + i * 128, 4);
                c.lookup(&w);
                c.insert(&w);
            }
            let _ = round;
        }
        let s = c.stats();
        assert!(s.conflict_miss_uops > 0, "expected conflict misses: {s:?}");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small_cache();
        let a = pw(0x40, 8);
        let b = pw(0x40 + 128, 8);
        let d = pw(0x40 + 256, 8);
        let e = pw(0x40 + 384, 8);
        for w in [&a, &b, &d, &e] {
            c.lookup(w);
            c.insert(w);
        }
        // Touch `a` so `b` becomes LRU.
        c.lookup(&a);
        let out = c.insert(&pw(0x40 + 512, 8));
        match out {
            InsertOutcome::Inserted { evicted } => assert_eq!(evicted, 1),
            other => panic!("{other:?}"),
        }
        assert_eq!(c.resident_uops(b.start), None, "the LRU window went");
        for w in [&a, &d, &e] {
            assert!(c.resident_uops(w.start).is_some());
        }
    }

    #[cfg(feature = "obs")]
    #[test]
    fn recorder_sees_the_full_decision_stream() {
        use uopcache_obs::{EventKind, RingRecorder, Verdict};
        let mut c = small_cache();
        c.set_recorder(Box::new(RingRecorder::new(64)));
        let w = pw(0x40, 6);
        c.lookup(&w); // miss
        c.insert(&w); // insert
        c.lookup(&w); // hit
        c.insert(&pw(0x40, 33)); // too large -> bypass
        c.invalidate_line(Addr::new(0x40).line(64)); // invalidate
        let events = c.recorder().expect("installed").events();
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Miss,
                EventKind::Insert,
                EventKind::Hit,
                EventKind::Bypass,
                EventKind::Invalidate,
            ]
        );
        assert_eq!(events[3].verdict, Verdict::TooLarge);
        assert_eq!(events[1].slot, events[4].slot, "same resident window");
        let taken = c.take_recorder().expect("still installed");
        assert_eq!(taken.offered(), 5);
        assert!(c.recorder().is_none());
    }

    #[cfg(feature = "obs")]
    #[test]
    fn recorder_tags_upgrade_and_replacement_evictions() {
        use uopcache_obs::{EventKind, RingRecorder, Verdict};
        let mut c = small_cache();
        c.set_recorder(Box::new(RingRecorder::new(64)));
        c.insert(&pw(0x40, 4));
        c.insert(&pw(0x40, 12)); // upgrade: evict(upgrade) + insert
        for i in 1..4 {
            c.insert(&pw(0x40 + i * 128, 8)); // fill the set
        }
        c.insert(&pw(0x40 + 4 * 128, 8)); // forces a replacement eviction
        let events = c.recorder().expect("installed").events();
        let upgrades: Vec<_> = events
            .iter()
            .filter(|e| e.verdict == Verdict::Upgrade)
            .collect();
        assert_eq!(upgrades.len(), 1);
        assert_eq!(upgrades[0].kind, EventKind::Evict);
        assert_eq!(upgrades[0].uops, 4, "the shorter window was upgraded away");
        assert!(
            events
                .iter()
                .any(|e| e.kind == EventKind::Evict && e.verdict == Verdict::Primary),
            "LRU victim selection is a primary verdict: {events:?}"
        );
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut c = small_cache();
        for i in 0..100u64 {
            let w = pw(i * 64, u32::try_from(i % 20 + 1).expect("small"));
            c.lookup(&w);
            c.insert(&w);
            assert!(c.occupied_entries() <= 8);
        }
    }
}
