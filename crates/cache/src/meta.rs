//! Metadata the cache keeps for each resident prediction window, visible to
//! replacement policies.

use uopcache_model::PwDesc;

/// Per-resident-PW bookkeeping passed to [`PwReplacementPolicy`] callbacks.
///
/// [`PwReplacementPolicy`]: crate::PwReplacementPolicy
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct PwMeta {
    /// The stored window.
    pub desc: PwDesc,
    /// Stable slot index within the set while the PW is resident (policies
    /// may key internal state by `(set, slot)`).
    pub slot: u8,
    /// Number of micro-op cache entries the PW occupies.
    pub entries: u8,
    /// Global access-counter value at insertion.
    pub inserted_at: u64,
    /// Global access-counter value of the most recent hit (or insertion).
    pub last_access: u64,
    /// Hits the PW has received since insertion.
    pub hits: u32,
}
