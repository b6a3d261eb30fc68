//! Prediction-window lookup traces: the input consumed by the simulator and
//! by the offline (oracle) replacement policies.

use std::fmt;

use crate::hash::FastHashMap;
use crate::json::{FromJson, Json, JsonError, ToJson};
use crate::pw::{PwDesc, PwTermination};
use crate::Addr;

/// One micro-op cache lookup: a prediction window requested by the frontend.
///
/// A trace holds one record per lookup, so the record is packed into 16
/// bytes: the window's start (8 bytes), micro-op count (4), byte span (2)
/// and a flag byte. Flag bit 0 marks a mispredicted access and bit 1 a
/// window that ended at a line boundary, the same bits the binary trace
/// format writes. Read the window back with [`pw`](Self::pw).
///
/// # Examples
///
/// ```
/// use uopcache_model::{Addr, PwAccess, PwDesc, PwTermination};
///
/// let pw = PwDesc::new(Addr::new(0x40), 8, 20, PwTermination::LineBoundary);
/// let access = PwAccess::with_mispredict(pw, true);
/// assert_eq!(access.pw(), pw);
/// assert!(access.is_mispredicted());
/// assert!(!PwAccess::new(pw).is_mispredicted());
/// assert_eq!(std::mem::size_of::<PwAccess>(), 16);
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Hash)]
pub struct PwAccess {
    start: Addr,
    uops: u32,
    bytes: u16,
    flags: u8,
}

const _: () = assert!(std::mem::size_of::<PwAccess>() == 16);

/// Flag bit: the branch that produced the window was mispredicted.
const MISPREDICTED: u8 = 1;
/// Flag bit: the window ended at an instruction-cache line boundary.
const LINE_BOUNDARY: u8 = 2;

impl PwAccess {
    /// The widest window, in bytes, a record holds. A generated window is
    /// cut at the first instruction that crosses a 64-byte line, so it spans
    /// fewer than 100 bytes; the trace readers refuse wider ones.
    pub const MAX_BYTES: u32 = u16::MAX as u32;

    /// Creates a correctly-predicted access.
    ///
    /// # Panics
    ///
    /// Panics if `pw.bytes` exceeds [`MAX_BYTES`](Self::MAX_BYTES).
    pub fn new(pw: PwDesc) -> Self {
        Self::with_mispredict(pw, false)
    }

    /// Creates an access whose producing branch was mispredicted when
    /// `mispredicted` is set (the simulator charges the flush penalty; the
    /// offline policies can ignore it).
    ///
    /// # Panics
    ///
    /// Panics if `pw.bytes` exceeds [`MAX_BYTES`](Self::MAX_BYTES): a
    /// record keeps the byte span in 16 bits.
    pub fn with_mispredict(pw: PwDesc, mispredicted: bool) -> Self {
        let bytes = u16::try_from(pw.bytes).unwrap_or_else(|_| {
            panic!(
                "a window of {} bytes exceeds the {} a lookup record holds",
                pw.bytes,
                Self::MAX_BYTES
            )
        });
        let mut flags = 0;
        if mispredicted {
            flags |= MISPREDICTED;
        }
        if pw.term == PwTermination::LineBoundary {
            flags |= LINE_BOUNDARY;
        }
        PwAccess {
            start: pw.start,
            uops: pw.uops,
            bytes,
            flags,
        }
    }

    /// The requested window.
    #[inline]
    pub fn pw(&self) -> PwDesc {
        PwDesc {
            start: self.start,
            uops: self.uops,
            bytes: u32::from(self.bytes),
            term: if self.flags & LINE_BOUNDARY != 0 {
                PwTermination::LineBoundary
            } else {
                PwTermination::TakenBranch
            },
        }
    }

    /// Whether the branch predictor mispredicted the branch that
    /// *produced* this window.
    #[inline]
    pub fn is_mispredicted(&self) -> bool {
        self.flags & MISPREDICTED != 0
    }
}

impl fmt::Debug for PwAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PwAccess")
            .field("pw", &self.pw())
            .field("mispredicted", &self.is_mispredicted())
            .finish()
    }
}

/// An ordered sequence of micro-op cache lookups.
///
/// This is the paper's "PW lookup sequence" (STEP 2 of the FURBYS pipeline):
/// the access stream observed with a zero-size micro-op cache, i.e. independent
/// of replacement decisions.
///
/// # Examples
///
/// ```
/// use uopcache_model::{Addr, LookupTrace, PwAccess, PwDesc, PwTermination};
///
/// let mut trace = LookupTrace::new();
/// trace.push(PwAccess::new(PwDesc::new(Addr::new(0x10), 4, 12, PwTermination::TakenBranch)));
/// trace.push(PwAccess::new(PwDesc::new(Addr::new(0x40), 8, 20, PwTermination::LineBoundary)));
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.total_uops(), 12);
/// assert_eq!(trace.unique_starts(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LookupTrace {
    accesses: Vec<PwAccess>,
}

impl LookupTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        LookupTrace {
            accesses: Vec::new(),
        }
    }

    /// Creates a trace with pre-allocated capacity.
    pub fn with_capacity(n: usize) -> Self {
        LookupTrace {
            accesses: Vec::with_capacity(n),
        }
    }

    /// Appends an access.
    pub fn push(&mut self, access: PwAccess) {
        self.accesses.push(access);
    }

    /// Number of lookups.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// The accesses as a slice.
    pub fn accesses(&self) -> &[PwAccess] {
        &self.accesses
    }

    /// Iterates over the accesses in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, PwAccess> {
        self.accesses.iter()
    }

    /// Total micro-ops requested across all lookups.
    pub fn total_uops(&self) -> u64 {
        self.accesses.iter().map(|a| u64::from(a.pw().uops)).sum()
    }

    /// Number of distinct PW start addresses (the static footprint in PWs).
    pub fn unique_starts(&self) -> usize {
        let mut seen: FastHashMap<Addr, ()> = FastHashMap::default();
        for a in &self.accesses {
            seen.insert(a.pw().start, ());
        }
        seen.len()
    }

    /// Static footprint in micro-op cache entries: for every start address,
    /// the largest window observed, measured in entries.
    pub fn footprint_entries(&self, uops_per_entry: u32) -> u64 {
        let mut max_uops: FastHashMap<Addr, u32> = FastHashMap::default();
        for a in &self.accesses {
            let e = max_uops.entry(a.pw().start).or_insert(0);
            *e = (*e).max(a.pw().uops);
        }
        max_uops
            .values()
            .map(|&u| u64::from(u.div_ceil(uops_per_entry)))
            .sum()
    }

    /// Per-start-address access counts, for hotness classification (Fig. 22).
    pub fn access_counts(&self) -> FastHashMap<Addr, u64> {
        let mut counts = FastHashMap::default();
        for a in &self.accesses {
            *counts.entry(a.pw().start).or_insert(0) += 1;
        }
        counts
    }

    /// A sub-trace covering `range` (used by the windowed offline solvers).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: std::ops::Range<usize>) -> LookupTrace {
        LookupTrace {
            accesses: self.accesses[range].to_vec(),
        }
    }
}

impl FromIterator<PwAccess> for LookupTrace {
    fn from_iter<T: IntoIterator<Item = PwAccess>>(iter: T) -> Self {
        LookupTrace {
            accesses: iter.into_iter().collect(),
        }
    }
}

impl Extend<PwAccess> for LookupTrace {
    fn extend<T: IntoIterator<Item = PwAccess>>(&mut self, iter: T) {
        self.accesses.extend(iter);
    }
}

impl<'a> IntoIterator for &'a LookupTrace {
    type Item = &'a PwAccess;
    type IntoIter = std::slice::Iter<'a, PwAccess>;

    fn into_iter(self) -> Self::IntoIter {
        self.accesses.iter()
    }
}

impl IntoIterator for LookupTrace {
    type Item = PwAccess;
    type IntoIter = std::vec::IntoIter<PwAccess>;

    fn into_iter(self) -> Self::IntoIter {
        self.accesses.into_iter()
    }
}

impl ToJson for PwAccess {
    /// Serialises as `{"pw": …, "mispredicted": …}`.
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("pw".to_string(), self.pw().to_json()),
            ("mispredicted".to_string(), self.is_mispredicted().to_json()),
        ])
    }
}

impl FromJson for PwAccess {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let pw = PwDesc::from_json(j.field("pw")?)?;
        let mispredicted = bool::from_json(j.field("mispredicted")?)?;
        // The binary reader's rules: no empty window, none wider than a
        // record holds.
        if pw.uops == 0 || pw.bytes == 0 {
            return Err(JsonError(format!(
                "window at {} has uops={}, bytes={}",
                pw.start, pw.uops, pw.bytes
            )));
        }
        if pw.bytes > PwAccess::MAX_BYTES {
            return Err(JsonError(format!(
                "window at {} spans {} bytes, more than {}",
                pw.start,
                pw.bytes,
                PwAccess::MAX_BYTES
            )));
        }
        Ok(PwAccess::with_mispredict(pw, mispredicted))
    }
}

impl ToJson for LookupTrace {
    /// Serialises transparently as the array of accesses.
    fn to_json(&self) -> Json {
        self.accesses.to_json()
    }
}

impl FromJson for LookupTrace {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Vec::<PwAccess>::from_json(j).map(|accesses| LookupTrace { accesses })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pw::PwTermination;

    fn acc(start: u64, uops: u32) -> PwAccess {
        PwAccess::new(PwDesc::new(
            Addr::new(start),
            uops,
            uops * 3,
            PwTermination::TakenBranch,
        ))
    }

    #[test]
    fn collect_and_iterate() {
        let trace: LookupTrace = [acc(0, 2), acc(64, 3)].into_iter().collect();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.iter().count(), 2);
        let owned: Vec<_> = trace.clone().into_iter().collect();
        assert_eq!(owned.len(), 2);
        let borrowed: Vec<_> = (&trace).into_iter().collect();
        assert_eq!(borrowed.len(), 2);
    }

    #[test]
    fn totals_and_footprint() {
        // Same start address twice with different lengths: footprint counts
        // the larger window only.
        let trace: LookupTrace = [acc(0, 2), acc(0, 10), acc(64, 8)].into_iter().collect();
        assert_eq!(trace.total_uops(), 20);
        assert_eq!(trace.unique_starts(), 2);
        assert_eq!(trace.footprint_entries(8), 2 + 1);
    }

    #[test]
    fn access_counts_group_by_start() {
        let trace: LookupTrace = [acc(0, 2), acc(0, 4), acc(64, 8)].into_iter().collect();
        let counts = trace.access_counts();
        assert_eq!(counts[&Addr::new(0)], 2);
        assert_eq!(counts[&Addr::new(64)], 1);
    }

    #[test]
    fn slice_extracts_window() {
        let trace: LookupTrace = (0..10).map(|i| acc(i * 64, 1)).collect();
        let sub = trace.slice(3..6);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.accesses()[0].pw().start, Addr::new(3 * 64));
    }

    #[test]
    fn records_pack_and_unpack_every_flag_combination() {
        for term in [PwTermination::TakenBranch, PwTermination::LineBoundary] {
            for mispredicted in [false, true] {
                for bytes in [1, 64 + 15, PwAccess::MAX_BYTES] {
                    let pw = PwDesc::new(Addr::new(u64::MAX - 0xff), u32::MAX, bytes, term);
                    let a = PwAccess::with_mispredict(pw, mispredicted);
                    assert_eq!(a.pw(), pw);
                    assert_eq!(a.is_mispredicted(), mispredicted);
                    let back: PwAccess = crate::json::from_str(&crate::json::to_string(&a))
                        .expect("a record round-trips through JSON");
                    assert_eq!(back, a);
                }
            }
        }
    }

    #[test]
    fn json_wire_form_is_unchanged() {
        let pw = PwDesc::new(Addr::new(0x40), 8, 20, PwTermination::LineBoundary);
        assert_eq!(
            crate::json::to_string(&PwAccess::with_mispredict(pw, true)),
            r#"{"pw":{"start":64,"uops":8,"bytes":20,"term":"line-boundary"},"mispredicted":true}"#
        );
    }

    #[test]
    fn json_windows_empty_or_wider_than_a_record_are_errors() {
        let doc = |uops: u32, bytes: u64| {
            format!(
                r#"[{{"pw":{{"start":64,"uops":{uops},"bytes":{bytes},"term":"taken-branch"}},"mispredicted":false}}]"#
            )
        };
        let ok: LookupTrace = crate::json::from_str(&doc(8, 65_535)).expect("widest record");
        assert_eq!(ok.accesses()[0].pw().bytes, 65_535);
        let err = crate::json::from_str::<LookupTrace>(&doc(8, 65_536)).expect_err("too wide");
        assert!(err.0.contains("65536 bytes"), "{err}");
        for (uops, bytes) in [(0, 4), (8, 0)] {
            let err = crate::json::from_str::<LookupTrace>(&doc(uops, bytes)).expect_err("empty");
            assert!(err.0.contains("uops="), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the 65535 a lookup record holds")]
    fn windows_wider_than_a_record_panic() {
        let pw = PwDesc::new(Addr::new(0), 1, 65_536, PwTermination::TakenBranch);
        let _ = PwAccess::new(pw);
    }

    #[test]
    fn extend_appends() {
        let mut trace = LookupTrace::with_capacity(4);
        trace.extend([acc(0, 1), acc(64, 1)]);
        assert_eq!(trace.len(), 2);
        assert!(!trace.is_empty());
    }
}
