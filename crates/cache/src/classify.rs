//! Cold / capacity / conflict miss classification (the paper's §III-B study).

use crate::shadow::ShadowFaCache;
use uopcache_model::hash::FastHashSet;
use uopcache_model::{Addr, PwDesc};

/// The classic 3C class of a miss.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub(crate) enum MissClass {
    /// First touch of this start address.
    Cold,
    /// Would also miss in a fully-associative cache of equal capacity.
    Capacity,
    /// Would hit in a fully-associative cache of equal capacity — the miss is
    /// due to set conflicts.
    Conflict,
}

impl std::fmt::Display for MissClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MissClass::Cold => f.write_str("cold"),
            MissClass::Capacity => f.write_str("capacity"),
            MissClass::Conflict => f.write_str("conflict"),
        }
    }
}

/// Classifies micro-op cache misses by maintaining a fully-associative LRU
/// shadow cache of the same entry capacity plus a first-touch set.
///
/// Call [`MissClassifier::classify`] *before* recording the access in the
/// shadow via [`MissClassifier::record_access`], for every lookup (hit or
/// miss) so the shadow tracks the reference stream faithfully.
#[derive(Clone, Debug)]
pub(crate) struct MissClassifier {
    shadow: ShadowFaCache,
    touched: FastHashSet<Addr>,
}

impl MissClassifier {
    /// Creates a classifier for a cache with the given total entry capacity.
    pub(crate) fn new(capacity_entries: u32, uops_per_entry: u32) -> Self {
        MissClassifier {
            shadow: ShadowFaCache::new(capacity_entries, uops_per_entry),
            touched: FastHashSet::default(),
        }
    }

    /// Classifies a miss on `pw` (do not call for hits).
    pub(crate) fn classify(&self, pw: &PwDesc) -> MissClass {
        if !self.touched.contains(&pw.start) {
            MissClass::Cold
        } else if self.shadow.covers(pw) {
            // A fully-associative cache of equal capacity would have served
            // the whole window: the miss is due to set conflicts.
            MissClass::Conflict
        } else {
            MissClass::Capacity
        }
    }

    /// Records the access in the shadow structures (call for every lookup).
    pub(crate) fn record_access(&mut self, pw: &PwDesc) {
        self.touched.insert(pw.start);
        self.shadow.access(pw);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uopcache_model::PwTermination;

    fn pw(start: u64, uops: u32) -> PwDesc {
        PwDesc::new(Addr::new(start), uops, uops * 3, PwTermination::TakenBranch)
    }

    #[test]
    fn first_touch_is_cold() {
        let c = MissClassifier::new(4, 8);
        assert_eq!(c.classify(&pw(0x10, 4)), MissClass::Cold);
    }

    #[test]
    fn resident_in_shadow_means_conflict() {
        let mut c = MissClassifier::new(4, 8);
        c.record_access(&pw(0x10, 4));
        assert_eq!(c.classify(&pw(0x10, 4)), MissClass::Conflict);
    }

    #[test]
    fn evicted_from_shadow_means_capacity() {
        let mut c = MissClassifier::new(1, 8);
        c.record_access(&pw(0x10, 4));
        c.record_access(&pw(0x20, 4)); // evicts 0x10 from the 1-entry shadow
        assert_eq!(c.classify(&pw(0x10, 4)), MissClass::Capacity);
    }

    #[test]
    fn display_names() {
        assert_eq!(MissClass::Cold.to_string(), "cold");
        assert_eq!(MissClass::Capacity.to_string(), "capacity");
        assert_eq!(MissClass::Conflict.to_string(), "conflict");
    }
}
