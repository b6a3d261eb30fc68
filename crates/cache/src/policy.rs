//! The replacement-policy trait the micro-op cache consults.

use crate::meta::PwMeta;
use uopcache_model::PwDesc;

/// A micro-op cache replacement policy.
///
/// The cache calls these hooks as PWs are looked up, inserted and evicted.
/// `resident` slices are ordered by slot index and contain only occupied
/// slots. Victim selection returns an index **into the `resident` slice**
/// (not a slot number); the cache evicts that PW and, if more space is still
/// needed for a multi-entry insertion, asks again with the updated slice.
///
/// Implementations may key internal state by `(set, meta.slot)`: slot numbers
/// are stable while a PW is resident and are recycled after eviction
/// (`on_evict`/`on_invalidate` is always called before a slot is reused).
pub trait PwReplacementPolicy {
    /// Human-readable policy name (used in reports and figures).
    fn name(&self) -> &'static str;

    /// Called once when the cache is constructed, with its geometry.
    /// Policies that key state by `(set, slot)` preallocate it here so the
    /// simulation loop runs without heap allocation. The default does
    /// nothing (stateless policies need no arena).
    fn prepare(&mut self, _sets: usize, _ways: u32) {}

    /// Called at the start of every lookup, hit or miss. Offline (oracle)
    /// policies use this to advance their position in the trace; history
    /// based policies may update global state here.
    fn on_lookup(&mut self, _pw: &PwDesc) {}

    /// A lookup hit (full or partial) on a resident PW.
    fn on_hit(&mut self, set: usize, meta: &PwMeta);

    /// A PW was inserted into `set` at `meta.slot`.
    fn on_insert(&mut self, set: usize, meta: &PwMeta);

    /// A resident PW was evicted by replacement.
    fn on_evict(&mut self, set: usize, meta: &PwMeta);

    /// A resident PW was invalidated by L1i inclusion (not a policy decision).
    fn on_invalidate(&mut self, set: usize, meta: &PwMeta) {
        self.on_evict(set, meta);
    }

    /// Whether to bypass (not insert) `incoming`. Called before any victim
    /// selection; returning `true` leaves the set untouched. `needed_entries`
    /// is the space the incoming PW requires and `free_entries` what the set
    /// has available — policies typically only bypass when an eviction would
    /// be forced (`needed_entries > free_entries`).
    fn should_bypass(
        &mut self,
        _set: usize,
        _incoming: &PwDesc,
        _needed_entries: u32,
        _free_entries: u32,
        _resident: &[PwMeta],
    ) -> bool {
        false
    }

    /// Chooses a victim among `resident` for the insertion of `incoming`.
    /// Returns an index into `resident`.
    ///
    /// # Panics
    ///
    /// Implementations may assume `resident` is non-empty.
    fn choose_victim(&mut self, set: usize, incoming: &PwDesc, resident: &[PwMeta]) -> usize;

    /// Whether the most recent `choose_victim` fell back to a secondary
    /// policy (FURBYS's pitfall detector degrading to SRRIP). Used for the
    /// paper's *replacement coverage* statistic.
    fn last_selection_was_fallback(&self) -> bool {
        false
    }

    /// Optional structured self-description of internal policy state, for
    /// diagnostics surfaces (`uopcache inspect`). Meta-policies with
    /// interesting internals — set-dueling's per-candidate PSEL counters and
    /// phase winners — return a JSON object; plain policies return `None`.
    /// Never consulted on the simulation hot path.
    fn introspect(&self) -> Option<uopcache_model::json::Json> {
        None
    }

    /// The policy as a trait object, for a cache to own. A policy that is
    /// already a `Box<dyn PwReplacementPolicy>` passes through as it is,
    /// so every hook costs one virtual call rather than two (the box's
    /// forwarding impl, then the policy's own).
    fn into_boxed(self) -> Box<dyn PwReplacementPolicy>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

impl PwReplacementPolicy for Box<dyn PwReplacementPolicy> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn prepare(&mut self, sets: usize, ways: u32) {
        (**self).prepare(sets, ways);
    }

    fn on_lookup(&mut self, pw: &PwDesc) {
        (**self).on_lookup(pw);
    }

    fn on_hit(&mut self, set: usize, meta: &PwMeta) {
        (**self).on_hit(set, meta);
    }

    fn on_insert(&mut self, set: usize, meta: &PwMeta) {
        (**self).on_insert(set, meta);
    }

    fn on_evict(&mut self, set: usize, meta: &PwMeta) {
        (**self).on_evict(set, meta);
    }

    fn on_invalidate(&mut self, set: usize, meta: &PwMeta) {
        (**self).on_invalidate(set, meta);
    }

    fn should_bypass(
        &mut self,
        set: usize,
        incoming: &PwDesc,
        needed_entries: u32,
        free_entries: u32,
        resident: &[PwMeta],
    ) -> bool {
        (**self).should_bypass(set, incoming, needed_entries, free_entries, resident)
    }

    fn choose_victim(&mut self, set: usize, incoming: &PwDesc, resident: &[PwMeta]) -> usize {
        (**self).choose_victim(set, incoming, resident)
    }

    fn last_selection_was_fallback(&self) -> bool {
        (**self).last_selection_was_fallback()
    }

    fn introspect(&self) -> Option<uopcache_model::json::Json> {
        (**self).introspect()
    }

    fn into_boxed(self) -> Box<dyn PwReplacementPolicy> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::PwReplacementPolicy;
    use crate::lru::LruPolicy;

    #[test]
    fn a_boxed_policy_is_not_boxed_again() {
        let boxed: Box<dyn PwReplacementPolicy> = Box::new(LruPolicy::new());
        let before = std::ptr::from_ref(&*boxed).cast::<u8>();
        let again = boxed.into_boxed();
        assert_eq!(std::ptr::from_ref(&*again).cast::<u8>(), before);
        assert_eq!(again.name(), "LRU");
    }

    #[test]
    fn default_hooks_are_benign() {
        // The default should_bypass never bypasses and fallback is false.
        let p = LruPolicy::new();
        assert!(!p.last_selection_was_fallback());
        assert_eq!(p.name(), "LRU");
    }
}
