//! SHiP++: signature-based hit prediction (Young et al., CRC-2 2017),
//! adapted to prediction windows.

use crate::slots::SlotTable;
use crate::srrip::{SrripPolicy, RRPV_INSERT, RRPV_MAX};
use uopcache_cache::{PwMeta, PwReplacementPolicy};
use uopcache_model::{Addr, PwDesc};

const SHCT_BITS: u32 = 14;
const SHCT_SIZE: usize = 1 << SHCT_BITS;
const SHCT_MAX: u8 = 7;
/// Initial counter value: weakly reused.
const SHCT_INIT: u8 = 1;

/// SHiP++ adapted to the micro-op cache: each PW's signature is a 14-bit hash
/// of its start address (the "miss-causing PC"); a signature history counter
/// table (SHCT) learns whether PWs with that signature get reused, steering
/// the insertion RRPV of an underlying SRRIP stack.
///
/// # Examples
///
/// ```
/// use uopcache_cache::UopCache;
/// use uopcache_model::UopCacheConfig;
/// use uopcache_policies::ShipPlusPlusPolicy;
///
/// let cache = UopCache::new(UopCacheConfig::zen3(), Box::new(ShipPlusPlusPolicy::new()));
/// assert_eq!(cache.policy().name(), "SHiP++");
/// ```
#[derive(Clone, Debug)]
pub struct ShipPlusPlusPolicy {
    shct: Vec<u8>,
    rrpv: SlotTable<u8>,
    /// Per-slot: (signature, reused-since-insertion).
    tag: SlotTable<(u16, bool)>,
}

impl Default for ShipPlusPlusPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl ShipPlusPlusPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        ShipPlusPlusPolicy {
            shct: vec![SHCT_INIT; SHCT_SIZE],
            rrpv: SlotTable::new(),
            tag: SlotTable::new(),
        }
    }

    fn signature(start: Addr) -> u16 {
        // Fibonacci hash folded to 14 bits.
        let h = start.get().wrapping_mul(0x9e37_79b9_7f4a_7c15);
        // SHCT_SIZE is a small power of two, so the mask fits in u16.
        #[allow(clippy::cast_possible_truncation)]
        let mask = (SHCT_SIZE - 1) as u16;
        ((h >> 50) as u16) & mask
    }
}

impl PwReplacementPolicy for ShipPlusPlusPolicy {
    fn name(&self) -> &'static str {
        "SHiP++"
    }

    fn prepare(&mut self, sets: usize, ways: u32) {
        self.rrpv.reserve(sets, ways);
        self.tag.reserve(sets, ways);
    }

    fn on_hit(&mut self, set: usize, meta: &PwMeta) {
        *self.rrpv.get_mut(set, meta.slot) = 0;
        let (sig, reused) = *self.tag.get(set, meta.slot);
        if !reused {
            // First reuse trains the signature as useful (SHiP++ trains on
            // the first hit only to avoid saturation by loops).
            let c = &mut self.shct[usize::from(sig)];
            *c = (*c + 1).min(SHCT_MAX);
            *self.tag.get_mut(set, meta.slot) = (sig, true);
        }
    }

    fn on_insert(&mut self, set: usize, meta: &PwMeta) {
        let sig = Self::signature(meta.desc.start);
        let counter = self.shct[usize::from(sig)];
        // Predicted-dead signatures are inserted with a distant RRPV so they
        // are evicted first; strongly-reused ones get an intermediate value.
        *self.rrpv.get_mut(set, meta.slot) = if counter == 0 {
            RRPV_MAX
        } else if counter >= SHCT_MAX - 1 {
            RRPV_INSERT - 1
        } else {
            RRPV_INSERT
        };
        *self.tag.get_mut(set, meta.slot) = (sig, false);
    }

    fn on_evict(&mut self, set: usize, meta: &PwMeta) {
        let (sig, reused) = *self.tag.get(set, meta.slot);
        if !reused {
            let c = &mut self.shct[usize::from(sig)];
            *c = c.saturating_sub(1);
        }
        *self.rrpv.get_mut(set, meta.slot) = 0;
        *self.tag.get_mut(set, meta.slot) = (0, false);
    }

    fn choose_victim(&mut self, set: usize, _incoming: &PwDesc, resident: &[PwMeta]) -> usize {
        SrripPolicy::select_victim(&mut self.rrpv, set, resident)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uopcache_model::PwTermination;

    fn meta(slot: u8, start: u64) -> PwMeta {
        PwMeta {
            desc: PwDesc::new(Addr::new(start), 4, 12, PwTermination::TakenBranch),
            slot,
            entries: 1,
            inserted_at: 0,
            last_access: 0,
            hits: 0,
        }
    }

    #[test]
    fn dead_signature_inserted_distant() {
        let mut p = ShipPlusPlusPolicy::new();
        let m = meta(0, 0x1000);
        // Train the signature dead: insert + evict without reuse until 0.
        for _ in 0..4 {
            p.on_insert(0, &m);
            p.on_evict(0, &m);
        }
        p.on_insert(0, &m);
        assert_eq!(*p.rrpv.get(0, 0), RRPV_MAX);
    }

    #[test]
    fn reused_signature_inserted_close() {
        let mut p = ShipPlusPlusPolicy::new();
        let m = meta(0, 0x2000);
        for _ in 0..8 {
            p.on_insert(0, &m);
            p.on_hit(0, &m);
            p.on_evict(0, &m);
        }
        p.on_insert(0, &m);
        assert!(*p.rrpv.get(0, 0) < RRPV_INSERT);
    }

    #[test]
    fn first_hit_trains_once() {
        let mut p = ShipPlusPlusPolicy::new();
        let m = meta(0, 0x3000);
        let sig = ShipPlusPlusPolicy::signature(Addr::new(0x3000));
        p.on_insert(0, &m);
        let before = p.shct[usize::from(sig)];
        p.on_hit(0, &m);
        p.on_hit(0, &m);
        p.on_hit(0, &m);
        assert_eq!(p.shct[usize::from(sig)], before + 1);
    }

    #[test]
    fn victim_prefers_distant_insertions() {
        let mut p = ShipPlusPlusPolicy::new();
        let dead = meta(0, 0x1000);
        for _ in 0..4 {
            p.on_insert(0, &dead);
            p.on_evict(0, &dead);
        }
        let live = meta(1, 0x2000);
        p.on_insert(0, &live);
        p.on_insert(0, &dead);
        let incoming = PwDesc::new(Addr::new(0x9000), 4, 12, PwTermination::TakenBranch);
        let v = p.choose_victim(0, &incoming, &[dead, live]);
        assert_eq!(v, 0, "the dead-signature PW should be the victim");
    }
}
