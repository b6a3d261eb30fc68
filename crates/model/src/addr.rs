//! Byte and cache-line address newtypes.

use crate::json::{FromJson, Json, JsonError, ToJson};
use std::fmt;

/// A virtual byte address of an instruction.
///
/// Newtype over `u64` so that byte addresses, line addresses and plain
/// counters cannot be confused ([C-NEWTYPE]).
///
/// # Examples
///
/// ```
/// use uopcache_model::Addr;
///
/// let a = Addr::new(0x40_0123);
/// assert_eq!(a.line(64).base().get(), 0x40_0100);
/// assert_eq!(a.line_offset(64), 0x23);
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw byte value.
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw byte value.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Returns the cache line containing this address.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two.
    #[inline]
    pub fn line(self, line_bytes: u64) -> LineAddr {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        LineAddr(self.0 & !(line_bytes - 1))
    }

    /// Returns the offset of this address within its cache line.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two.
    pub fn line_offset(self, line_bytes: u64) -> u64 {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        self.0 & (line_bytes - 1)
    }

    /// Returns the address advanced by `bytes`.
    pub(crate) const fn offset(self, bytes: u64) -> Self {
        Addr(self.0 + bytes)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

/// The base address of a cache line (always aligned to the line size it was
/// produced with).
///
/// # Examples
///
/// ```
/// use uopcache_model::Addr;
///
/// let line = Addr::new(0x1234).line(64);
/// assert_eq!(line.base().get(), 0x1200);
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Returns the first byte address of the line.
    pub const fn base(self) -> Addr {
        Addr(self.0)
    }

    /// Returns the set index for a cache with `sets` sets and the given line
    /// size.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `line_bytes` is not a power of two.
    pub(crate) fn set_index(self, sets: u64, line_bytes: u64) -> usize {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        // Masked by `sets - 1`, so the value always fits in usize.
        #[allow(clippy::cast_possible_truncation)]
        let idx = ((self.0 / line_bytes) & (sets - 1)) as usize;
        idx
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl ToJson for Addr {
    /// Serialises transparently as the raw byte value.
    fn to_json(&self) -> Json {
        Json::U64(self.0)
    }
}

impl FromJson for Addr {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        u64::from_json(j).map(Addr)
    }
}

impl ToJson for LineAddr {
    /// Serialises transparently as the line base address.
    fn to_json(&self) -> Json {
        Json::U64(self.0)
    }
}

impl FromJson for LineAddr {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        u64::from_json(j).map(LineAddr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_rounds_down() {
        assert_eq!(Addr::new(127).line(64).base(), Addr::new(64));
        assert_eq!(Addr::new(64).line(64).base(), Addr::new(64));
        assert_eq!(Addr::new(63).line(64).base(), Addr::new(0));
    }

    #[test]
    fn line_offset_wraps_within_line() {
        assert_eq!(Addr::new(130).line_offset(64), 2);
        assert_eq!(Addr::new(64).line_offset(64), 0);
    }

    #[test]
    fn set_index_masks_low_bits() {
        let line = Addr::new(0x1000).line(64);
        assert_eq!(line.set_index(64, 64), 0x1000 / 64 % 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_line_panics() {
        let _ = Addr::new(0).line(48);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(Addr::new(255).to_string(), "0xff");
        assert_eq!(format!("{:x}", Addr::new(255)), "ff");
        assert_eq!(format!("{:X}", Addr::new(255)), "FF");
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(Addr::new(1) < Addr::new(2));
        assert_eq!(Addr::from(7u64).get(), 7);
    }
}
