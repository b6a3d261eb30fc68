//! Set-dueling dynamic policy selection, after Qureshi et al.'s DIP
//! (ISCA 2007), generalised to an N-candidate tournament.

use uopcache_cache::{LruPolicy, PwMeta, PwReplacementPolicy};
use uopcache_model::json::Json;
use uopcache_model::PwDesc;
use uopcache_obs::{CandidateDuel, DuelStats};

use crate::arc::ArcPolicy;
use crate::slru::SlruPolicy;
use crate::srrip::SrripPolicy;

/// PSEL saturation ceiling (10-bit counters, the classic DIP width).
pub(crate) const PSEL_MAX: u16 = 1023;

/// Default leader sets sampled per candidate.
pub(crate) const DEFAULT_K: usize = 2;

/// Default lookups per duel phase.
pub(crate) const DEFAULT_PHASE_LEN: u64 = 1024;

/// The leader/follower partition: a pure function of `(sets, k, candidates)`
/// and nothing else, so the same geometry always duels the same sets.
///
/// Leader sets are spaced evenly through the index range (stride
/// `sets / (candidates * k)`, floored at 1) and assigned to candidates
/// round-robin, giving each candidate `k` leaders interleaved across the
/// address space. When the cache has fewer than `candidates * k` sets, the
/// low-indexed candidates keep leaders and the rest follow unled — small
/// caches degrade gracefully rather than panicking.
///
/// # Examples
///
/// ```
/// use uopcache_policies::dueling::leader_map;
///
/// let map = leader_map(64, 2, 4);
/// assert_eq!(map.iter().flatten().filter(|&&c| c == 0).count(), 2);
/// assert_eq!(map[0], Some(0));
/// assert_eq!(map[1], None); // follower
/// ```
pub fn leader_map(sets: usize, k: usize, candidates: usize) -> Vec<Option<usize>> {
    let mut map = vec![None; sets];
    if candidates == 0 || k == 0 {
        return map;
    }
    let total = candidates * k;
    let stride = (sets / total).max(1);
    for (assigned, s) in (0..sets).step_by(stride).take(total).enumerate() {
        map[s] = Some(assigned % candidates);
    }
    map
}

/// A set-dueling meta-policy: `k` leader sets per candidate run that
/// candidate's replacement decisions and feed a saturating PSEL counter
/// (misses up, hits down, capped at `PSEL_MAX`); every other set follows
/// the candidate whose leaders showed the least miss pressure in the last
/// phase. Winners are re-evaluated every `DEFAULT_PHASE_LEN` lookups; counters
/// reset at the boundary so the duel tracks phase behaviour instead of
/// accumulated history.
///
/// All candidates observe the full hook stream (their per-slot state always
/// reflects the actual cache contents); only the *decisions* — victim choice
/// and bypass — are routed to the set's active candidate. The policy is
/// fully deterministic: the partition is [`leader_map`], the counters are
/// integers, and ties at a phase boundary keep the incumbent.
///
/// # Examples
///
/// ```
/// use uopcache_cache::UopCache;
/// use uopcache_model::UopCacheConfig;
/// use uopcache_policies::SetDuelingPolicy;
///
/// let cache = UopCache::new(
///     UopCacheConfig::zen3(),
///     Box::new(SetDuelingPolicy::default_zoo()),
/// );
/// assert_eq!(cache.policy().name(), "set-dueling");
/// ```
pub struct SetDuelingPolicy {
    candidates: Vec<Box<dyn PwReplacementPolicy>>,
    k: usize,
    phase_len: u64,
    leader_of: Vec<Option<usize>>,
    leader_counts: Vec<u32>,
    winner: usize,
    last_decider: usize,
    psel: Vec<u16>,
    lookups: u64,
    phases: u64,
    switches: u64,
    leader_hits: Vec<u64>,
    leader_misses: Vec<u64>,
    phases_won: Vec<u64>,
}

impl SetDuelingPolicy {
    /// Duels `candidates` with `k` leader sets each and a winner
    /// re-evaluation every `phase_len` lookups.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty or `k`/`phase_len` is zero — a duel
    /// needs contestants and a cadence.
    pub fn new(candidates: Vec<Box<dyn PwReplacementPolicy>>, k: usize, phase_len: u64) -> Self {
        assert!(
            !candidates.is_empty(),
            "a duel needs at least one candidate"
        );
        assert!(k > 0, "each candidate needs at least one leader set");
        assert!(phase_len > 0, "the duel needs a phase cadence");
        let n = candidates.len();
        SetDuelingPolicy {
            candidates,
            k,
            phase_len,
            leader_of: Vec::new(),
            leader_counts: vec![0; n],
            winner: 0,
            last_decider: 0,
            psel: vec![0; n],
            lookups: 0,
            phases: 0,
            switches: 0,
            leader_hits: vec![0; n],
            leader_misses: vec![0; n],
            phases_won: vec![0; n],
        }
    }

    /// The default duel: LRU (recency), SRRIP (re-reference interval), SLRU
    /// (segmented) and ARC (adaptive) — four static-free candidates covering
    /// the zoo's main design axes, `DEFAULT_K` leaders each,
    /// `DEFAULT_PHASE_LEN`-lookup phases.
    pub fn default_zoo() -> Self {
        SetDuelingPolicy::new(
            vec![
                Box::new(LruPolicy::new()),
                Box::new(SrripPolicy::new()),
                Box::new(SlruPolicy::new()),
                Box::new(ArcPolicy::new()),
            ],
            DEFAULT_K,
            DEFAULT_PHASE_LEN,
        )
    }

    /// The candidate names, in duel order.
    pub(crate) fn candidate_names(&self) -> Vec<&'static str> {
        self.candidates.iter().map(|c| c.name()).collect()
    }

    /// The currently winning candidate's name.
    pub fn winner_name(&self) -> &'static str {
        self.candidates[self.winner].name()
    }

    /// The candidate leading `set`, or `None` for follower sets. Only
    /// meaningful after `prepare` (before it, every set follows).
    pub fn leader_of(&self, set: usize) -> Option<usize> {
        self.leader_of.get(set).copied().flatten()
    }

    /// Completed phases and winner switches so far.
    pub fn phase_counts(&self) -> (u64, u64) {
        (self.phases, self.switches)
    }

    /// The full duel snapshot.
    pub(crate) fn duel_stats(&self) -> DuelStats {
        DuelStats {
            k: u32::try_from(self.k).expect("k is small"),
            phase_len: self.phase_len,
            phases: self.phases,
            switches: self.switches,
            winner: self.winner_name().to_string(),
            candidates: self
                .candidates
                .iter()
                .enumerate()
                .map(|(i, c)| CandidateDuel {
                    name: c.name().to_string(),
                    leader_sets: self.leader_counts[i],
                    leader_hits: self.leader_hits[i],
                    leader_misses: self.leader_misses[i],
                    phases_won: self.phases_won[i],
                    psel: self.psel[i],
                })
                .collect(),
        }
    }

    /// The candidate whose decisions govern `set` right now.
    fn active(&self, set: usize) -> usize {
        self.leader_of(set).unwrap_or(self.winner)
    }

    /// Ends a phase: the candidate with the least PSEL pressure wins (ties
    /// keep the incumbent, then lowest index), counters reset.
    fn end_phase(&mut self) {
        self.phases += 1;
        let mut best = self.winner;
        for (i, &p) in self.psel.iter().enumerate() {
            if p < self.psel[best] {
                best = i;
            }
        }
        if best != self.winner {
            self.switches += 1;
            self.winner = best;
        }
        self.phases_won[self.winner] += 1;
        for p in &mut self.psel {
            *p = 0;
        }
    }
}

impl std::fmt::Debug for SetDuelingPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SetDuelingPolicy")
            .field("candidates", &self.candidate_names())
            .field("k", &self.k)
            .field("phase_len", &self.phase_len)
            .field("winner", &self.winner_name())
            .field("phases", &self.phases)
            .finish_non_exhaustive()
    }
}

impl PwReplacementPolicy for SetDuelingPolicy {
    fn name(&self) -> &'static str {
        "set-dueling"
    }

    fn prepare(&mut self, sets: usize, ways: u32) {
        for c in &mut self.candidates {
            c.prepare(sets, ways);
        }
        self.leader_of = leader_map(sets, self.k, self.candidates.len());
        self.leader_counts = vec![0; self.candidates.len()];
        for c in self.leader_of.iter().flatten() {
            self.leader_counts[*c] += 1;
        }
    }

    fn on_lookup(&mut self, pw: &PwDesc) {
        self.lookups += 1;
        if self.lookups.is_multiple_of(self.phase_len) {
            self.end_phase();
        }
        for c in &mut self.candidates {
            c.on_lookup(pw);
        }
    }

    fn on_hit(&mut self, set: usize, meta: &PwMeta) {
        if let Some(c) = self.leader_of(set) {
            self.leader_hits[c] += 1;
            self.psel[c] = self.psel[c].saturating_sub(1);
        }
        for c in &mut self.candidates {
            c.on_hit(set, meta);
        }
    }

    fn on_insert(&mut self, set: usize, meta: &PwMeta) {
        for c in &mut self.candidates {
            c.on_insert(set, meta);
        }
    }

    fn on_evict(&mut self, set: usize, meta: &PwMeta) {
        for c in &mut self.candidates {
            c.on_evict(set, meta);
        }
    }

    fn on_invalidate(&mut self, set: usize, meta: &PwMeta) {
        for c in &mut self.candidates {
            c.on_invalidate(set, meta);
        }
    }

    fn should_bypass(
        &mut self,
        set: usize,
        incoming: &PwDesc,
        needed_entries: u32,
        free_entries: u32,
        resident: &[PwMeta],
    ) -> bool {
        // Every insert attempt is a miss (or a partial-hit upgrade): charge
        // the set's leader, if any.
        if let Some(c) = self.leader_of(set) {
            self.leader_misses[c] += 1;
            self.psel[c] = (self.psel[c] + 1).min(PSEL_MAX);
        }
        let active = self.active(set);
        self.candidates[active].should_bypass(set, incoming, needed_entries, free_entries, resident)
    }

    fn choose_victim(&mut self, set: usize, incoming: &PwDesc, resident: &[PwMeta]) -> usize {
        let active = self.active(set);
        self.last_decider = active;
        self.candidates[active].choose_victim(set, incoming, resident)
    }

    fn last_selection_was_fallback(&self) -> bool {
        self.candidates[self.last_decider].last_selection_was_fallback()
    }

    fn introspect(&self) -> Option<Json> {
        Some(self.duel_stats().to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uopcache_model::{Addr, PwTermination};

    fn meta(slot: u8, last_access: u64) -> PwMeta {
        PwMeta {
            desc: PwDesc::new(
                Addr::new(0x100 + u64::from(slot) * 64),
                4,
                12,
                PwTermination::TakenBranch,
            ),
            slot,
            entries: 1,
            inserted_at: 0,
            last_access,
            hits: 0,
        }
    }

    fn pw(start: u64) -> PwDesc {
        PwDesc::new(Addr::new(start), 4, 12, PwTermination::TakenBranch)
    }

    #[test]
    fn leader_map_is_a_pure_partition() {
        let a = leader_map(64, 2, 4);
        let b = leader_map(64, 2, 4);
        assert_eq!(a, b);
        for c in 0..4 {
            assert_eq!(a.iter().flatten().filter(|&&x| x == c).count(), 2);
        }
        assert_eq!(a.iter().flatten().count(), 8);
    }

    #[test]
    fn small_caches_degrade_gracefully() {
        let map = leader_map(3, 2, 4);
        assert_eq!(map.iter().flatten().count(), 3, "every set leads");
        assert!(leader_map(0, 2, 4).is_empty());
    }

    #[test]
    fn leaders_decide_with_their_own_candidate() {
        let mut p = SetDuelingPolicy::default_zoo();
        p.prepare(64, 4);
        // Set 0 leads candidate 0 (LRU); give it resident state where LRU
        // and SRRIP disagree: SRRIP would evict the un-hit b, LRU the older a.
        let lead = p.leader_of(0).expect("set 0 is a leader");
        assert_eq!(lead, 0);
        let a = meta(0, 1);
        let b = meta(1, 9);
        p.on_insert(0, &a);
        p.on_insert(0, &b);
        p.on_hit(0, &a);
        assert_eq!(p.choose_victim(0, &pw(0x900), &[a, b]), 0, "LRU evicts a");
    }

    #[test]
    fn phase_boundary_recounts_and_resets() {
        let mut p = SetDuelingPolicy::new(
            vec![Box::new(LruPolicy::new()), Box::new(SrripPolicy::new())],
            1,
            4,
        );
        p.prepare(8, 4);
        // Candidate 0 leads set 0, candidate 1 leads set 4.
        assert_eq!(p.leader_of(0), Some(0));
        assert_eq!(p.leader_of(4), Some(1));
        // Charge misses against candidate 0's leader only.
        let m = meta(0, 1);
        p.should_bypass(0, &pw(0x900), 1, 0, &[m]);
        p.should_bypass(0, &pw(0x940), 1, 0, &[m]);
        for _ in 0..4 {
            p.on_lookup(&pw(0x900));
        }
        let (phases, switches) = p.phase_counts();
        assert_eq!(phases, 1);
        assert_eq!(switches, 1, "candidate 1 had less pressure and takes over");
        assert_eq!(p.winner_name(), "SRRIP");
        let stats = p.duel_stats();
        assert_eq!(stats.candidates[0].psel, 0, "counters reset at boundary");
        assert_eq!(stats.candidates[0].leader_misses, 2, "totals persist");
    }

    #[test]
    fn ties_keep_the_incumbent() {
        let mut p = SetDuelingPolicy::new(
            vec![Box::new(LruPolicy::new()), Box::new(SrripPolicy::new())],
            1,
            4,
        );
        p.prepare(8, 4);
        for _ in 0..4 {
            p.on_lookup(&pw(0x900));
        }
        assert_eq!(p.phase_counts(), (1, 0), "all-zero PSEL keeps candidate 0");
        assert_eq!(p.winner_name(), "LRU");
    }

    #[test]
    fn introspection_exposes_the_duel() {
        let mut p = SetDuelingPolicy::default_zoo();
        p.prepare(64, 4);
        let json = p.introspect().expect("dueling introspects").to_string();
        assert!(json.contains("\"winner\":\"LRU\""), "{json}");
        assert!(json.contains("\"leader_sets\":2"), "{json}");
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_duel_is_rejected() {
        let _ = SetDuelingPolicy::new(Vec::new(), 1, 16);
    }
}
