//! Interval slicing and fingerprinting.
//!
//! The first stage of the sampling pipeline: cut a [`LookupTrace`] into
//! consecutive intervals of (at least) a fixed number of micro-ops, then
//! fingerprint each interval with a projected basic-block vector from
//! [`BbvRecorder`]. Both steps are pure functions of the trace and the
//! seed, so every worker that slices the same trace sees the same
//! intervals and the same fingerprints.

use std::ops::Range;

use uopcache_model::LookupTrace;
use uopcache_obs::{BbvRecorder, Event, EventKind, Recorder, Verdict};

/// One fixed-uop slice of a trace.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Position in the interval sequence (0-based).
    pub index: usize,
    /// First access of the interval (inclusive).
    pub start_access: usize,
    /// One past the last access of the interval.
    pub end_access: usize,
    /// Micro-ops requested by the interval's accesses.
    pub uops: u64,
}

impl Interval {
    /// The interval's access-index range in the source trace.
    pub fn range(&self) -> Range<usize> {
        self.start_access..self.end_access
    }

    /// Number of accesses in the interval.
    pub fn len(&self) -> usize {
        self.end_access - self.start_access
    }

    /// Whether the interval is empty (never produced by the slicer).
    pub fn is_empty(&self) -> bool {
        self.end_access == self.start_access
    }
}

/// Cuts `trace` into consecutive intervals, each closed as soon as it has
/// accumulated at least `interval_uops` micro-ops (so intervals never split
/// an access). The final interval may be shorter. Matches the boundary rule
/// of [`BbvRecorder`] exactly: slicing and fingerprinting agree on which
/// access belongs to which interval.
pub fn slice_intervals(trace: &LookupTrace, interval_uops: u64) -> Vec<Interval> {
    let interval_uops = interval_uops.max(1);
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut uops = 0u64;
    for (i, a) in trace.iter().enumerate() {
        uops += u64::from(a.pw().uops);
        if uops >= interval_uops {
            out.push(Interval {
                index: out.len(),
                start_access: start,
                end_access: i + 1,
                uops,
            });
            start = i + 1;
            uops = 0;
        }
    }
    if start < trace.len() {
        out.push(Interval {
            index: out.len(),
            start_access: start,
            end_access: trace.len(),
            uops,
        });
    }
    out
}

/// Fingerprints every interval of `trace`: returns the interval table and
/// one projected, length-normalized BBV per interval (same order).
///
/// The fingerprint describes what code each interval *executes*, so it is
/// computed directly from the access stream (each access offered to the
/// recorder as a lookup event) — no cache simulation required, and one
/// fingerprinting pass serves every policy in a sweep.
pub fn fingerprint_intervals(
    trace: &LookupTrace,
    interval_uops: u64,
    dim: usize,
    seed: u64,
) -> (Vec<Interval>, Vec<Vec<f64>>) {
    let intervals = slice_intervals(trace, interval_uops);
    let mut rec = BbvRecorder::new(seed, interval_uops.max(1), dim, intervals.len());
    for (i, a) in trace.iter().enumerate() {
        rec.record(&Event {
            cycle: i as u64,
            kind: EventKind::Miss,
            set: 0,
            slot: None,
            start: a.pw().start.get(),
            uops: a.pw().uops,
            entries: 1,
            verdict: Verdict::None,
        });
    }
    let vectors = rec.vectors();
    debug_assert_eq!(vectors.len(), intervals.len(), "slicer/recorder disagree");
    (intervals, vectors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uopcache_trace::{build_trace, AppId, InputVariant};

    #[test]
    fn intervals_tile_the_trace_exactly() {
        let trace = build_trace(AppId::Kafka, InputVariant(0), 5_000);
        let ivs = slice_intervals(&trace, 2_000);
        assert!(!ivs.is_empty());
        assert_eq!(ivs[0].start_access, 0);
        for w in ivs.windows(2) {
            assert_eq!(w[0].end_access, w[1].start_access);
            assert_eq!(w[0].index + 1, w[1].index);
        }
        assert_eq!(ivs.last().map(|v| v.end_access), Some(trace.len()));
        let total: u64 = ivs.iter().map(|v| v.uops).sum();
        assert_eq!(total, trace.total_uops());
        for iv in &ivs[..ivs.len() - 1] {
            assert!(iv.uops >= 2_000);
            assert!(!iv.is_empty());
            assert_eq!(iv.len(), iv.range().len());
        }
    }

    #[test]
    fn fingerprints_match_the_slicer_and_are_deterministic() {
        let trace = build_trace(AppId::Postgres, InputVariant(0), 4_000);
        let (ivs, vecs) = fingerprint_intervals(&trace, 1_500, 16, 99);
        assert_eq!(ivs.len(), vecs.len());
        let (ivs2, vecs2) = fingerprint_intervals(&trace, 1_500, 16, 99);
        assert_eq!(ivs, ivs2);
        assert_eq!(vecs, vecs2);
    }

    #[test]
    fn huge_interval_yields_one_slice() {
        let trace = build_trace(AppId::Mysql, InputVariant(0), 1_000);
        let ivs = slice_intervals(&trace, u64::MAX);
        assert_eq!(ivs.len(), 1);
        assert_eq!(ivs[0].range(), 0..trace.len());
    }
}
