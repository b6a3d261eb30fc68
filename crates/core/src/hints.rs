//! Hint injection: the software/hardware interface carrying weight groups.
//!
//! The paper injects each PW's 3-bit weight group into the program binary via
//! a compiler pass, using reserved bits of branch instruction encodings
//! (following Thermometer); the decoder extracts the bits and forwards them
//! with the micro-ops to the accumulator. This crate models that channel as a
//! [`HintMap`] attached to the deployed executable: a mapping from PW start
//! address to its weight group, serialisable alongside the binary.

use uopcache_model::hash::FastHashMap;
use uopcache_model::json::{FromJson, Json, JsonError, ToJson};
use uopcache_model::Addr;

/// Weight-group hints for a program binary.
///
/// # Examples
///
/// ```
/// use uopcache_core::HintMap;
/// use uopcache_model::Addr;
///
/// let mut hints = HintMap::new(3);
/// hints.set(Addr::new(0x400100), 5);
/// assert_eq!(hints.get(Addr::new(0x400100)), 5);
/// assert_eq!(hints.get(Addr::new(0x999)), 0); // unmarked code is weight 0
///
/// let json = hints.to_json().unwrap();
/// let restored = HintMap::from_json(&json).unwrap();
/// assert_eq!(restored.get(Addr::new(0x400100)), 5);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HintMap {
    /// Number of reserved bits per hint (paper: 3 → 8 weight groups).
    bits: u8,
    /// Per-start weights, in a fast simulator-internal map: `get` runs per
    /// resident on every FURBYS victim/bypass decision.
    weights: FastHashMap<Addr, u8>,
}

impl HintMap {
    /// Creates an empty hint map with `bits` reserved bits per branch.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 8.
    pub fn new(bits: u8) -> Self {
        assert!(
            (1..=8).contains(&bits),
            "hint widths of 1..=8 bits are supported"
        );
        HintMap {
            bits,
            weights: FastHashMap::default(),
        }
    }

    /// The number of weight groups expressible (`2^bits`).
    pub fn groups(&self) -> u16 {
        1u16 << self.bits
    }

    /// The hint width in bits.
    #[cfg(test)]
    pub(crate) fn bits(&self) -> u8 {
        self.bits
    }

    /// Sets the weight for a PW start address.
    ///
    /// # Panics
    ///
    /// Panics if `weight` does not fit in the hint width.
    pub fn set(&mut self, start: Addr, weight: u8) {
        assert!(
            u16::from(weight) < self.groups(),
            "weight {weight} does not fit in {} bits",
            self.bits
        );
        self.weights.insert(start, weight);
    }

    /// The weight for a start address; unmarked code reads as 0 (coldest).
    pub fn get(&self, start: Addr) -> u8 {
        self.weights.get(&start).copied().unwrap_or(0)
    }

    /// Number of marked start addresses.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether no hints are present.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Iterates over `(start, weight)` pairs in arbitrary order.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&Addr, &u8)> {
        self.weights.iter()
    }

    /// Serialises to JSON (the artifact's on-disk hint format). Entries are
    /// written in ascending start-address order so the output is
    /// deterministic.
    ///
    /// # Errors
    ///
    /// Returns an error if serialisation fails (it cannot for this type, but
    /// the signature is honest about the serialisation boundary).
    pub fn to_json(&self) -> Result<String, JsonError> {
        let mut entries: Vec<(u64, u8)> = self.weights.iter().map(|(a, &w)| (a.get(), w)).collect();
        entries.sort_unstable();
        let obj = Json::Obj(vec![
            ("bits".to_string(), Json::U64(u64::from(self.bits))),
            ("weights".to_string(), entries.to_json()),
        ]);
        Ok(obj.to_string())
    }

    /// Deserialises from JSON.
    ///
    /// # Errors
    ///
    /// Returns an error if `s` is not a valid serialised [`HintMap`] — wrong
    /// shape, an unsupported hint width, or a weight that does not fit.
    pub fn from_json(s: &str) -> Result<Self, JsonError> {
        let j = Json::parse(s)?;
        let bits = u8::from_json(j.field("bits")?)?;
        if !(1..=8).contains(&bits) {
            return Err(JsonError(format!("hint width {bits} outside 1..=8")));
        }
        let entries = Vec::<(u64, u8)>::from_json(j.field("weights")?)?;
        let mut map = HintMap::new(bits);
        for (addr, weight) in entries {
            if u16::from(weight) >= map.groups() {
                return Err(JsonError(format!(
                    "weight {weight} does not fit in {bits} bits"
                )));
            }
            map.set(Addr::new(addr), weight);
        }
        Ok(map)
    }
}

impl FromIterator<(Addr, u8)> for HintMap {
    /// Collects with the paper's default width of 3 bits.
    fn from_iter<T: IntoIterator<Item = (Addr, u8)>>(iter: T) -> Self {
        let mut map = HintMap::new(3);
        for (a, w) in iter {
            map.set(a, w);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_follow_bits() {
        assert_eq!(HintMap::new(1).groups(), 2);
        assert_eq!(HintMap::new(3).groups(), 8);
        assert_eq!(HintMap::new(8).groups(), 256);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_weight_rejected() {
        let mut h = HintMap::new(3);
        h.set(Addr::new(1), 8);
    }

    #[test]
    #[should_panic(expected = "1..=8")]
    fn zero_bits_rejected() {
        let _ = HintMap::new(0);
    }

    #[test]
    fn collect_and_iterate() {
        let h: HintMap = [(Addr::new(1), 3u8), (Addr::new(2), 7u8)]
            .into_iter()
            .collect();
        assert_eq!(h.len(), 2);
        assert!(!h.is_empty());
        assert_eq!(h.iter().count(), 2);
    }

    #[test]
    fn json_round_trip_preserves_bits() {
        let mut h = HintMap::new(4);
        h.set(Addr::new(0x10), 15);
        let json = h.to_json().unwrap();
        let back = HintMap::from_json(&json).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.bits(), 4);
    }
}
