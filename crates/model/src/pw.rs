//! Prediction windows: the unit of micro-op cache lookup and insertion.

use crate::addr::{Addr, LineAddr};
use crate::json::{FromJson, Json, JsonError, ToJson};
use crate::json_struct;
use std::fmt;

/// Why a prediction window ended.
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug)]
pub enum PwTermination {
    /// The PW ends at a predicted-taken branch (including calls, returns and
    /// unconditional jumps).
    TakenBranch,
    /// The PW ends at an instruction-cache line boundary.
    LineBoundary,
}

impl fmt::Display for PwTermination {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PwTermination::TakenBranch => f.write_str("taken-branch"),
            PwTermination::LineBoundary => f.write_str("line-boundary"),
        }
    }
}

/// Descriptor of a prediction window: what the frontend looks up in, and the
/// decoder inserts into, the micro-op cache.
///
/// A PW is identified by its *start address*. Two PWs with the same start
/// address but different micro-op counts are *overlapping* windows: the longer
/// one runs through a sometimes-taken branch that terminates the shorter one.
/// The micro-op cache can serve the shorter window from the longer one
/// (a *partial hit* in the paper's terminology, §II-D).
///
/// # Examples
///
/// ```
/// use uopcache_model::{Addr, PwDesc, PwTermination};
///
/// let long = PwDesc::new(Addr::new(0x100), 12, 30, PwTermination::TakenBranch);
/// let short = PwDesc::new(Addr::new(0x100), 5, 12, PwTermination::TakenBranch);
/// assert!(long.covers(&short));
/// assert!(!short.covers(&long));
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug)]
pub struct PwDesc {
    /// First instruction address of the window (the lookup key).
    pub start: Addr,
    /// Number of micro-ops in the window — the PW's **cost**.
    pub uops: u32,
    /// Number of x86 instruction bytes the window spans (used for the L1i
    /// inclusion relationship).
    pub bytes: u32,
    /// Why the window terminated.
    pub term: PwTermination,
}

impl PwDesc {
    /// Creates a new descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `uops` or `bytes` is zero — an empty prediction window cannot
    /// exist.
    pub fn new(start: Addr, uops: u32, bytes: u32, term: PwTermination) -> Self {
        assert!(
            uops > 0,
            "a prediction window contains at least one micro-op"
        );
        assert!(bytes > 0, "a prediction window spans at least one byte");
        PwDesc {
            start,
            uops,
            bytes,
            term,
        }
    }

    /// The PW's **cost**: the number of micro-ops it supplies, i.e. the number
    /// of decode slots saved when it hits (paper §II-C).
    pub const fn cost(&self) -> u32 {
        self.uops
    }

    /// The PW's **size**: the number of micro-op cache entries it occupies
    /// given `uops_per_entry` micro-op slots per entry.
    ///
    /// # Panics
    ///
    /// Panics if `uops_per_entry` is zero.
    #[inline]
    pub fn entries(&self, uops_per_entry: u32) -> u32 {
        assert!(
            uops_per_entry > 0,
            "entries must hold at least one micro-op"
        );
        self.uops.div_ceil(uops_per_entry)
    }

    /// The address one past the last byte of the window.
    pub fn end(&self) -> Addr {
        self.start.offset(u64::from(self.bytes))
    }

    /// Whether this window fully covers `other`: same start address and at
    /// least as many micro-ops. A stored PW that covers a lookup serves it via
    /// an intermediate exit point (full hit).
    pub fn covers(&self, other: &PwDesc) -> bool {
        self.start == other.start && self.uops >= other.uops
    }

    /// The i-cache lines `[start, start + bytes)` touches, for inclusion
    /// tracking.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two.
    #[inline]
    pub fn lines(&self, line_bytes: u64) -> impl Iterator<Item = LineAddr> + '_ {
        let first = self.start.line(line_bytes);
        let last = Addr::new(self.end().get() - 1).line(line_bytes);
        let step = line_bytes;
        (first.base().get()..=last.base().get())
            .step_by(usize::try_from(step).expect("line size fits in usize"))
            .map(move |b| Addr::new(b).line(step))
    }
}

impl fmt::Display for PwDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PW[{} +{}B, {} uops, {}]",
            self.start, self.bytes, self.uops, self.term
        )
    }
}

impl ToJson for PwTermination {
    /// Serialises as the display string (`"taken-branch"` / `"line-boundary"`).
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl FromJson for PwTermination {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j.as_str() {
            Some("taken-branch") => Ok(PwTermination::TakenBranch),
            Some("line-boundary") => Ok(PwTermination::LineBoundary),
            _ => Err(JsonError(format!(
                "expected PW termination string, got {j:?}"
            ))),
        }
    }
}

json_struct!(PwDesc {
    start,
    uops,
    bytes,
    term
});

#[cfg(test)]
mod tests {
    use super::*;

    fn pw(start: u64, uops: u32, bytes: u32) -> PwDesc {
        PwDesc::new(Addr::new(start), uops, bytes, PwTermination::TakenBranch)
    }

    #[test]
    fn entries_round_up() {
        assert_eq!(pw(0, 1, 4).entries(8), 1);
        assert_eq!(pw(0, 8, 4).entries(8), 1);
        assert_eq!(pw(0, 9, 4).entries(8), 2);
        assert_eq!(pw(0, 16, 4).entries(8), 2);
        assert_eq!(pw(0, 17, 4).entries(8), 3);
    }

    #[test]
    fn cost_is_uop_count() {
        assert_eq!(pw(0, 5, 12).cost(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one micro-op")]
    fn zero_uops_rejected() {
        let _ = pw(0, 0, 4);
    }

    #[test]
    fn covers_requires_same_start_and_geq_uops() {
        assert!(pw(0x10, 6, 20).covers(&pw(0x10, 6, 20)));
        assert!(pw(0x10, 7, 20).covers(&pw(0x10, 6, 12)));
        assert!(!pw(0x10, 5, 20).covers(&pw(0x10, 6, 12)));
        assert!(!pw(0x20, 9, 20).covers(&pw(0x10, 6, 12)));
    }

    #[test]
    fn lines_span_the_window() {
        // 0x3e..0x3e+10 crosses the 0x40 line boundary.
        let w = pw(0x3e, 4, 10);
        let lines: Vec<_> = w.lines(64).map(|l| l.base().get()).collect();
        assert_eq!(lines, vec![0x00, 0x40]);
        // Fully inside one line.
        let w = pw(0x42, 4, 10);
        let lines: Vec<_> = w.lines(64).map(|l| l.base().get()).collect();
        assert_eq!(lines, vec![0x40]);
    }

    #[test]
    fn end_is_exclusive() {
        assert_eq!(pw(0x100, 3, 9).end(), Addr::new(0x109));
    }

    #[test]
    fn display_mentions_fields() {
        let s = pw(0x100, 3, 9).to_string();
        assert!(s.contains("0x100") && s.contains("3 uops"), "{s}");
    }
}
