//! Task keys and per-task seed derivation.
//!
//! A [`TaskKey`] names one unit of work — conventionally the ordered
//! coordinates of a simulation task such as `(config, app, variant, policy)`.
//! Its [`seed`](TaskKey::seed) is derived by hashing the components with
//! FNV-1a (a separator byte between components keeps `["ab","c"]` distinct
//! from `["a","bc"]`) and finalising with SplitMix64. The seed is therefore a
//! pure function of the key: independent of submission order, worker count,
//! platform and process, which is what makes randomized tasks reproducible
//! in isolation.

use std::fmt;

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// SplitMix64 finalisation: one full mixing round over a 64-bit state.
/// Identical to the mixer used by `Prng::seed_from_u64` in `uopcache-model`,
/// so engine-derived seeds feed that generator with well-mixed state.
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The ordered name of one task, e.g. `["zen3", "kafka", "v0", "LRU"]`.
///
/// Keys order lexicographically by component, display as `zen3/kafka/v0/LRU`,
/// and derive a stable 64-bit seed.
///
/// # Examples
///
/// ```
/// use uopcache_exec::TaskKey;
///
/// let k = TaskKey::new(["zen3", "kafka", "v0", "LRU"]);
/// assert_eq!(k.to_string(), "zen3/kafka/v0/LRU");
/// // The seed is a pure function of the key.
/// assert_eq!(k.seed(), TaskKey::new(["zen3", "kafka", "v0", "LRU"]).seed());
/// // Component boundaries matter.
/// assert_ne!(
///     TaskKey::new(["ab", "c"]).seed(),
///     TaskKey::new(["a", "bc"]).seed()
/// );
/// ```
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskKey {
    parts: Vec<String>,
}

impl TaskKey {
    /// Builds a key from ordered components.
    pub fn new<I, S>(parts: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        TaskKey {
            parts: parts.into_iter().map(Into::into).collect(),
        }
    }

    /// A new key with `part` appended — the child task's name. Used to key
    /// sub-tasks of a logical cell (e.g. per-representative segment runs of
    /// one sampled sweep cell) so their seeds derive from the same scheme.
    #[must_use]
    pub fn child(&self, part: impl Into<String>) -> Self {
        let mut parts = self.parts.clone();
        parts.push(part.into());
        TaskKey { parts }
    }

    /// The derived per-task seed: SplitMix64 over an FNV-1a hash of the
    /// components (with a 0x1F unit-separator byte between components).
    pub fn seed(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for part in &self.parts {
            for &b in part.as_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
            h = (h ^ 0x1F).wrapping_mul(FNV_PRIME);
        }
        splitmix64(h)
    }
}

impl fmt::Display for TaskKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.parts.join("/"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_stable_across_constructions() {
        let a = TaskKey::new(["zen3", "kafka", "v0", "FURBYS"]);
        let b = TaskKey::new(
            ["zen3", "kafka", "v0", "FURBYS"]
                .iter()
                .map(ToString::to_string),
        );
        assert_eq!(a, b);
        assert_eq!(a.seed(), b.seed());
    }

    #[test]
    fn seeds_distinguish_component_boundaries() {
        let joined = TaskKey::new(["zen3kafka"]);
        let split = TaskKey::new(["zen3", "kafka"]);
        assert_ne!(joined.seed(), split.seed());
        assert_ne!(
            TaskKey::new(["a", "", "b"]).seed(),
            TaskKey::new(["a", "b"]).seed()
        );
    }

    #[test]
    fn nearby_keys_get_unrelated_seeds() {
        // SplitMix64 finalisation: flipping one character flips roughly half
        // the output bits.
        let a = TaskKey::new(["zen3", "kafka", "v0", "LRU"]).seed();
        let b = TaskKey::new(["zen3", "kafka", "v1", "LRU"]).seed();
        let differing = (a ^ b).count_ones();
        assert!((16..=48).contains(&differing), "{differing} bits differ");
    }

    #[test]
    fn child_appends_a_component() {
        let cell = TaskKey::new(["zen3", "kafka", "v0", "LRU"]);
        let seg = cell.child("rep3");
        assert_eq!(seg.to_string(), "zen3/kafka/v0/LRU/rep3");
        assert_eq!(seg, TaskKey::new(["zen3", "kafka", "v0", "LRU", "rep3"]));
        assert_ne!(seg.seed(), cell.seed());
    }

    #[test]
    fn ordering_is_lexicographic_and_display_joins() {
        let a = TaskKey::new(["a", "b"]);
        let b = TaskKey::new(["a", "c"]);
        assert!(a < b);
        assert_eq!(format!("{a}"), "a/b");
    }

    #[test]
    fn known_vector_pins_the_derivation() {
        // Pinned value: changing FNV/SplitMix constants (and thereby every
        // derived seed in golden files) must be a conscious decision.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
    }
}
