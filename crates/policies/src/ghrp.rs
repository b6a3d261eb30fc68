//! GHRP: global-history-based dead-block prediction with bypass
//! (Mirbagher Ajorpaz et al., ISCA 2018), adapted to prediction windows.

use crate::slots::SlotTable;
use uopcache_cache::{PwMeta, PwReplacementPolicy};
use uopcache_model::{Addr, PwDesc};

const TABLE_BITS: u32 = 12;
const TABLE_SIZE: usize = 1 << TABLE_BITS;
const NUM_TABLES: usize = 3;
const COUNTER_MAX: u8 = 7;
/// Counter level above which one table votes "dead".
const DEAD_LEVEL: u8 = 4;
/// Vote threshold: a signature is predicted dead when at least this many
/// tables vote dead. Bypass additionally requires a unanimous vote.
const DEAD_VOTES: usize = 2;
/// History bits kept: one recent PW address of context. Longer histories
/// fragment training too much in the micro-op cache, where each start
/// address maps to exactly one PW (§III-E).
const HISTORY_MASK: u64 = 0xff;
const RRPV_MAX: u8 = 3;
const RRPV_INSERT: u8 = 2;

/// GHRP adapted to the micro-op cache: a global history register of recent
/// PW start addresses is hashed with the access address into signatures that
/// index several prediction tables; a majority vote predicts whether the PW
/// is *dead* (will not be reused before eviction). Predicted-dead residents
/// are preferred victims and predicted-dead insertions are bypassed.
///
/// # Examples
///
/// ```
/// use uopcache_cache::UopCache;
/// use uopcache_model::UopCacheConfig;
/// use uopcache_policies::GhrpPolicy;
///
/// let cache = UopCache::new(UopCacheConfig::zen3(), Box::new(GhrpPolicy::new()));
/// assert_eq!(cache.policy().name(), "GHRP");
/// ```
#[derive(Clone, Debug)]
pub struct GhrpPolicy {
    tables: [Vec<u8>; NUM_TABLES],
    /// Global history of recent PW start addresses (hashed).
    ghr: u64,
    /// Per-slot signature captured at insertion, for training on eviction.
    sig: SlotTable<u32>,
    /// SRRIP backbone: dead predictions modulate insertion depth and break
    /// ties in the re-reference stack.
    rrpv: SlotTable<u8>,
}

impl Default for GhrpPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl GhrpPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        GhrpPolicy {
            tables: std::array::from_fn(|_| vec![0; TABLE_SIZE]),
            ghr: 0,
            sig: SlotTable::new(),
            rrpv: SlotTable::new(),
        }
    }

    fn signature(&self, start: Addr) -> u32 {
        let mixed = start.get() ^ ((self.ghr & HISTORY_MASK) << 24);
        (mixed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as u32
    }

    fn table_index(sig: u32, t: usize) -> usize {
        let folded = sig.wrapping_mul([0x85eb_ca6b, 0xc2b2_ae35, 0x27d4_eb2f][t]);
        (folded >> (32 - TABLE_BITS)) as usize
    }

    fn dead_votes(&self, sig: u32) -> usize {
        (0..NUM_TABLES)
            .filter(|&t| self.tables[t][Self::table_index(sig, t)] >= DEAD_LEVEL)
            .count()
    }

    fn predict_dead(&self, sig: u32) -> bool {
        self.dead_votes(sig) >= DEAD_VOTES
    }

    fn train(&mut self, sig: u32, dead: bool) {
        for t in 0..NUM_TABLES {
            let c = &mut self.tables[t][Self::table_index(sig, t)];
            if dead {
                *c = (*c + 1).min(COUNTER_MAX);
            } else {
                // Hits train alive twice as fast as deaths train dead, so a
                // live signature survives the occasional unlucky eviction.
                *c = c.saturating_sub(2);
            }
        }
    }

    fn push_history(&mut self, start: Addr) {
        // Hash each address so alignment does not blank the history bits.
        let h = start.get().wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56;
        self.ghr = (self.ghr << 8) ^ h;
    }
}

impl PwReplacementPolicy for GhrpPolicy {
    fn name(&self) -> &'static str {
        "GHRP"
    }

    fn prepare(&mut self, sets: usize, ways: u32) {
        self.sig.reserve(sets, ways);
        self.rrpv.reserve(sets, ways);
    }

    fn on_lookup(&mut self, pw: &PwDesc) {
        self.push_history(pw.start);
    }

    fn on_hit(&mut self, set: usize, meta: &PwMeta) {
        // A hit proves the block was alive: train its insertion signature.
        let sig = *self.sig.get(set, meta.slot);
        self.train(sig, false);
        *self.rrpv.get_mut(set, meta.slot) = 0;
    }

    fn on_insert(&mut self, set: usize, meta: &PwMeta) {
        let sig = self.signature(meta.desc.start);
        *self.sig.get_mut(set, meta.slot) = sig;
        // Predicted-dead windows are inserted with a distant re-reference
        // prediction so they leave quickly if the prediction holds.
        *self.rrpv.get_mut(set, meta.slot) = if self.predict_dead(sig) {
            RRPV_MAX
        } else {
            RRPV_INSERT
        };
    }

    fn on_evict(&mut self, set: usize, meta: &PwMeta) {
        // Evicted without any hit: the insertion signature was dead.
        if meta.hits == 0 {
            let sig = *self.sig.get(set, meta.slot);
            self.train(sig, true);
        }
        *self.sig.get_mut(set, meta.slot) = 0;
        *self.rrpv.get_mut(set, meta.slot) = 0;
    }

    fn should_bypass(
        &mut self,
        _set: usize,
        incoming: &PwDesc,
        needed_entries: u32,
        free_entries: u32,
        _resident: &[PwMeta],
    ) -> bool {
        // Only bypass when insertion would force an eviction, and only on a
        // unanimous dead vote.
        if needed_entries <= free_entries {
            return false;
        }
        let sig = self.signature(incoming.start);
        self.dead_votes(sig) == NUM_TABLES
    }

    fn choose_victim(&mut self, set: usize, _incoming: &PwDesc, resident: &[PwMeta]) -> usize {
        // Prefer predicted-dead residents (stalest first); otherwise fall
        // back to the SRRIP stack.
        if let Some((i, _)) = resident
            .iter()
            .enumerate()
            .filter(|(_, m)| self.predict_dead(*self.sig.get(set, m.slot)))
            .min_by_key(|(_, m)| m.last_access)
        {
            return i;
        }
        crate::srrip::SrripPolicy::select_victim(&mut self.rrpv, set, resident)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uopcache_model::PwTermination;

    fn meta(slot: u8, start: u64, last_access: u64, hits: u32) -> PwMeta {
        PwMeta {
            desc: PwDesc::new(Addr::new(start), 4, 12, PwTermination::TakenBranch),
            slot,
            entries: 1,
            inserted_at: 0,
            last_access,
            hits,
        }
    }

    #[test]
    fn untrained_predictor_is_alive_and_falls_back_to_srrip() {
        let mut p = GhrpPolicy::new();
        let a = meta(0, 0x100, 9, 0);
        let b = meta(1, 0x200, 3, 0);
        p.on_insert(0, &a);
        p.on_insert(0, &b);
        p.on_hit(0, &a); // protect a in the SRRIP stack
        let incoming = PwDesc::new(Addr::new(0x900), 4, 12, PwTermination::TakenBranch);
        assert!(!p.should_bypass(0, &incoming, 1, 0, &[a, b]));
        assert_eq!(
            p.choose_victim(0, &incoming, &[a, b]),
            1,
            "SRRIP evicts the unreferenced PW"
        );
    }

    #[test]
    fn dead_training_shifts_prediction() {
        let mut p = GhrpPolicy::new();
        // Repeated insert+evict of the same address with zero history churn
        // trains its signature dead.
        let m = meta(0, 0x5000, 0, 0);
        for _ in 0..6 {
            let sig_ghr = p.ghr;
            p.on_insert(0, &m);
            p.on_evict(0, &m);
            p.ghr = sig_ghr; // pin history so the signature is stable
        }
        let sig = p.signature(Addr::new(0x5000));
        assert!(p.predict_dead(sig));
    }

    #[test]
    fn hits_train_alive() {
        let mut p = GhrpPolicy::new();
        let m = meta(0, 0x5000, 0, 0);
        for _ in 0..6 {
            let sig_ghr = p.ghr;
            p.on_insert(0, &m);
            p.on_evict(0, &m);
            p.ghr = sig_ghr;
        }
        let sig = p.signature(Addr::new(0x5000));
        assert!(p.predict_dead(sig));
        // Now reuse it a few times: counters fall back.
        for _ in 0..6 {
            let sig_ghr = p.ghr;
            p.on_insert(0, &m);
            p.on_hit(0, &m);
            p.ghr = sig_ghr;
        }
        assert!(!p.predict_dead(sig));
    }

    #[test]
    fn history_changes_signatures() {
        let mut p = GhrpPolicy::new();
        let s1 = p.signature(Addr::new(0x100));
        p.push_history(Addr::new(0x2000));
        let s2 = p.signature(Addr::new(0x100));
        assert_ne!(s1, s2);
    }
}
