//! Interval fingerprinting.
//!
//! The first stage of the sampling pipeline: one walk of an access stream
//! cuts it into consecutive intervals of (at least) a fixed number of
//! micro-ops and fingerprints each interval with a projected basic-block
//! vector. The walk is a pure function of the accesses and the seed, so
//! every worker that fingerprints the same trace sees the same intervals
//! and the same vectors, whether the accesses come from a built
//! [`LookupTrace`] or stream from the generator.

use std::ops::Range;

use uopcache_exec::seed::splitmix64;
use uopcache_model::hash::FastHashMap;
use uopcache_model::rng::{Prng, Rng};
use uopcache_model::{LookupTrace, PwAccess};

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

    /// Whether the interval is empty (never produced by a [`Fingerprinter`]).
    pub fn is_empty(&self) -> bool {
        self.end_access == self.start_access
    }
}

/// Cuts `trace` into intervals and fingerprints each one: returns the
/// interval table and one projected, length-normalized basic-block vector
/// per interval (same order). Folds every access through one
/// [`Fingerprinter`], which describes the cut and the vectors.
pub fn fingerprint_intervals(
    trace: &LookupTrace,
    interval_uops: u64,
    dim: usize,
    seed: u64,
) -> (Vec<Interval>, Vec<Vec<f64>>) {
    let mut fingerprinter = Fingerprinter::new(interval_uops, dim, seed);
    for access in trace.iter() {
        fingerprinter.push(access);
    }
    fingerprinter.finish()
}

/// The fingerprint pass as an incremental fold: push a trace's accesses in
/// order, then [`finish`](Self::finish). Nothing of the trace is kept but
/// the open interval's counts, so the accesses can stream straight from
/// the generator.
///
/// An interval closes as soon as it has accumulated at least
/// `interval_uops` micro-ops (minimum 1), so intervals never split an
/// access; the trailing partial interval is kept, so the intervals tile
/// the trace. Each interval counts its micro-ops by prediction-window start
/// address (the PW-granularity analogue of a basic-block vector) and
/// random-projects the sparse counts onto `dim` lanes (minimum 1) with
/// seeded ±1 signs, divided by the interval's micro-ops so a short trailing
/// interval is comparable to full ones. Two intervals that execute the same
/// code mix land close together however many distinct windows the trace
/// touches, which is what the k-means clustering relies on.
///
/// The fingerprint describes what code each interval *executes*, so it is
/// computed from the access stream alone — no cache simulation, and one
/// pass serves every policy in a sweep.
#[derive(Clone, Debug)]
pub struct Fingerprinter {
    interval_uops: u64,
    seed: u64,
    row: Vec<i64>,
    counts: FastHashMap<u64, u64>,
    intervals: Vec<Interval>,
    vectors: Vec<Vec<f64>>,
    /// First access of the open interval.
    start: usize,
    /// Accesses pushed so far.
    next: usize,
    /// Micro-ops of the open interval.
    uops: u64,
}

impl Fingerprinter {
    /// An empty fold cutting `interval_uops`-uop intervals into
    /// `dim`-lane vectors projected under `seed`.
    pub fn new(interval_uops: u64, dim: usize, seed: u64) -> Self {
        Fingerprinter {
            interval_uops: interval_uops.max(1),
            seed,
            row: vec![0; dim.max(1)],
            counts: FastHashMap::default(),
            intervals: Vec::new(),
            vectors: Vec::new(),
            start: 0,
            next: 0,
            uops: 0,
        }
    }

    /// Folds the next access in; returns whether it is the first access of
    /// an interval.
    #[inline]
    pub fn push(&mut self, access: &PwAccess) -> bool {
        let opens = self.next == self.start;
        let pw = access.pw();
        *self.counts.entry(pw.start.get()).or_insert(0) += u64::from(pw.uops);
        self.uops += u64::from(pw.uops);
        self.next += 1;
        if self.uops >= self.interval_uops {
            self.close();
        }
        opens
    }

    /// Closes the trailing partial interval, if any, and returns the
    /// interval table and one vector per interval.
    pub fn finish(mut self) -> (Vec<Interval>, Vec<Vec<f64>>) {
        if self.start < self.next {
            self.close();
        }
        (self.intervals, self.vectors)
    }

    /// Closes the open interval at the last pushed access.
    fn close(&mut self) {
        let vector = normalized_row(self.seed, &self.counts, self.uops, &mut self.row);
        self.vectors.push(vector);
        self.intervals.push(Interval {
            index: self.intervals.len(),
            start_access: self.start,
            end_access: self.next,
            uops: self.uops,
        });
        self.counts.clear();
        self.start = self.next;
        self.uops = 0;
    }
}

/// Projects one interval's sparse counts into `row` and divides each lane
/// by the interval's micro-ops. Addition commutes, so the vector does not
/// depend on the hash map's iteration order.
fn normalized_row(
    seed: u64,
    counts: &FastHashMap<u64, u64>,
    uops: u64,
    row: &mut [i64],
) -> Vec<f64> {
    row.fill(0);
    for (&start, &count) in counts {
        project_into(seed, start, count, row);
    }
    let denom = uops.max(1) as f64;
    row.iter().map(|&v| v as f64 / denom).collect()
}

/// Adds `count` with a seeded ±1 sign per lane — the sparse-to-dense random
/// projection. Signs come from a `Prng` keyed by (seed, start), one bit per
/// lane, so the projection is stable across runs and map iteration orders.
///
/// The sign is selected without a branch (the bits are random, so a branch
/// would mispredict half the time): `m` is 0 for a set bit and all ones for
/// a clear one, and `(c ^ m) - m` is then `c` or `-c`. The arithmetic wraps,
/// so it is exact two's complement at any count.
fn project_into(seed: u64, start: u64, count: u64, row: &mut [i64]) {
    let mut rng = Prng::seed_from_u64(seed ^ splitmix64(start));
    let c = count as i64;
    for lanes in row.chunks_mut(64) {
        let bits = rng.next_u64();
        for (j, lane) in lanes.iter_mut().enumerate() {
            let m = ((bits >> j) & 1).wrapping_sub(1) as i64;
            *lane = lane.wrapping_add((c ^ m).wrapping_sub(m));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uopcache_model::{Addr, PwAccess, PwDesc, PwTermination};
    use uopcache_trace::{build_trace, AppId, InputVariant};

    /// A trace of `(start, uops)` windows.
    fn windows(ws: &[(u64, u32)]) -> LookupTrace {
        ws.iter()
            .map(|&(start, uops)| {
                PwAccess::new(PwDesc::new(
                    Addr::new(start),
                    uops,
                    16,
                    PwTermination::TakenBranch,
                ))
            })
            .collect()
    }

    fn dist(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    #[test]
    fn intervals_close_on_uop_boundaries() {
        // 8 windows × 3 uops with a 10-uop interval: the count resets on
        // each close, so intervals close after windows 4 (12 uops) and 8
        // (12 more); nothing is left open.
        let mut ws = vec![(0x40, 3); 8];
        let (ivs, vecs) = fingerprint_intervals(&windows(&ws), 10, 8, 1);
        assert_eq!(vecs.len(), 2);
        assert_eq!(vecs[0], vecs[1], "the window counts reset too");
        assert_eq!(
            ivs.iter()
                .map(|iv| (iv.range(), iv.uops))
                .collect::<Vec<_>>(),
            [(0..4, 12), (4..8, 12)]
        );
        ws.push((0x80, 2));
        let (ivs, vecs) = fingerprint_intervals(&windows(&ws), 10, 8, 1);
        assert_eq!(vecs.len(), 3, "trailing partial interval included");
        assert_eq!((ivs[2].range(), ivs[2].uops), (8..9, 2));
    }

    #[test]
    fn the_same_windows_in_any_order_give_the_same_vector() {
        let run = |starts: &[u64]| {
            let ws: Vec<_> = starts.iter().map(|&s| (s, 5)).collect();
            fingerprint_intervals(&windows(&ws), 1_000, 16, 42).1
        };
        let a = run(&[0x40, 0x80, 0xc0, 0x40]);
        assert_eq!(a, run(&[0x40, 0x40, 0x80, 0xc0]));
        assert_ne!(a, run(&[0x40, 0x40, 0x80, 0x100]));
    }

    #[test]
    fn different_seeds_project_differently() {
        let ws: Vec<_> = (0..30u64).map(|i| (0x40 * (i % 7), 4)).collect();
        let trace = windows(&ws);
        assert_ne!(
            fingerprint_intervals(&trace, 100, 8, 1).1,
            fingerprint_intervals(&trace, 100, 8, 2).1
        );
    }

    #[test]
    fn similar_intervals_land_close_distinct_ones_far() {
        // Intervals 0 and 1: the same 5-window loop. Interval 2: other code.
        let lp = |base: u64| (0..20u64).map(move |i| (base + 0x40 * (i % 5), 6));
        let ws: Vec<_> = lp(0).chain(lp(0)).chain(lp(0x4000)).collect();
        let (_, v) = fingerprint_intervals(&windows(&ws), 120, 32, 9);
        assert_eq!(v.len(), 3);
        assert!(dist(&v[0], &v[1]) < dist(&v[0], &v[2]));
    }

    #[test]
    fn trailing_partial_interval_is_normalized() {
        // 25 × 4 uops close exactly one interval; the 26th stays open with
        // the same single window.
        let (ivs, v) = fingerprint_intervals(&windows(&[(0x40, 4); 26]), 100, 8, 11);
        assert_eq!((ivs.len(), v.len()), (2, 2));
        assert_eq!((ivs[0].uops, ivs[1].uops), (100, 4));
        // Same code mix, different lengths: normalized vectors coincide.
        for (a, b) in v[0].iter().zip(&v[1]) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn intervals_tile_the_trace_exactly() {
        let trace = build_trace(AppId::Kafka, InputVariant(0), 5_000);
        let ivs = fingerprint_intervals(&trace, 2_000, 8, 0).0;
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
    fn fingerprints_are_deterministic() {
        let trace = build_trace(AppId::Postgres, InputVariant(0), 4_000);
        let (ivs, vecs) = fingerprint_intervals(&trace, 1_500, 16, 99);
        assert_eq!(ivs.len(), vecs.len());
        assert!(vecs.iter().all(|v| v.len() == 16));
        let (ivs2, vecs2) = fingerprint_intervals(&trace, 1_500, 16, 99);
        assert_eq!(ivs, ivs2);
        assert_eq!(vecs, vecs2);
    }

    #[test]
    fn huge_interval_yields_one_slice() {
        let trace = build_trace(AppId::Mysql, InputVariant(0), 1_000);
        let ivs = fingerprint_intervals(&trace, u64::MAX, 8, 0).0;
        assert_eq!(ivs.len(), 1);
        assert_eq!(ivs[0].range(), 0..trace.len());
    }
}
