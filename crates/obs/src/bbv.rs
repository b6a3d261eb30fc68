//! Per-interval basic-block-vector (BBV) fingerprinting.
//!
//! SimPoint-style sampling needs a compact fingerprint of *what code* each
//! fixed-size slice of a trace executes. [`BbvRecorder`] folds the cache's
//! lookup events into exactly that: it splits the stream into intervals of
//! `interval_uops` micro-ops, counts per-interval micro-ops by prediction
//! window start address (the PW-granularity analogue of a basic-block
//! vector), and random-projects each sparse count map onto a fixed
//! `dim`-dimensional vector with seeded ±1 signs. Two intervals that execute
//! the same code mix land close together in the projected space regardless
//! of how many distinct windows the trace touches, which is what the
//! k-means clustering in `uopcache-sample` relies on.
//!
//! The recorder obeys the repo's hot-path rules: every container is sized at
//! construction time and the `record` path performs only hash-map
//! `entry`/`or_insert` updates and in-place integer arithmetic — no growth
//! on the warmed path. Projection signs come from the in-repo seeded
//! [`Prng`], so fingerprints are a pure function of (seed, event stream).

use uopcache_model::hash::FastHashMap;
use uopcache_model::rng::{Prng, Rng};

use crate::event::{Event, EventKind};
use crate::recorder::Recorder;
use uopcache_exec::seed::splitmix64;

/// Folds lookup events into per-interval projected basic-block vectors.
///
/// Only lookup events ([`Hit`](EventKind::Hit),
/// [`PartialHit`](EventKind::PartialHit), [`Miss`](EventKind::Miss)) advance
/// the interval clock and the fingerprint: the BBV describes *what the
/// program executed*, which is independent of the cache's replacement
/// decisions. That independence is what lets one fingerprinting pass serve
/// every policy in a sweep.
///
/// # Examples
///
/// ```
/// use uopcache_obs::{BbvRecorder, Event, EventKind, Recorder, Verdict};
///
/// let mut bbv = BbvRecorder::new(7, 100, 16, 8);
/// for i in 0..50u64 {
///     bbv.record(&Event {
///         cycle: i,
///         kind: EventKind::Miss,
///         set: 0,
///         slot: None,
///         start: 0x40 * (i % 5),
///         uops: 6,
///         entries: 1,
///         verdict: Verdict::None,
///     });
/// }
/// // 50 lookups × 6 uops = 300 uops → intervals close after 102 and 204
/// // uops (the counter resets on close), leaving 96 uops open.
/// assert_eq!(bbv.intervals_closed(), 2);
/// assert_eq!(bbv.vectors().len(), 3);
/// ```
pub struct BbvRecorder {
    /// Interval size in micro-ops.
    interval_uops: u64,
    /// Projected dimensionality.
    dim: usize,
    /// Projection seed (signs are a pure function of seed × start × lane).
    seed: u64,
    /// Dense projected rows: `max_intervals × dim` slab, closed intervals.
    rows: Vec<i64>,
    /// Micro-ops accumulated by each closed interval (its normalizer).
    row_uops: Vec<u64>,
    /// Sparse per-interval counts: PW start address → micro-ops.
    counts: FastHashMap<u64, u64>,
    /// Closed intervals so far.
    intervals: usize,
    /// Micro-ops accumulated in the open interval.
    current_uops: u64,
    /// Events offered (all kinds).
    offered: u64,
    /// Capacity of the row slab.
    max_intervals: usize,
    /// Set when an interval had to be dropped because the slab was full.
    overflowed: bool,
}

impl BbvRecorder {
    /// A recorder fingerprinting intervals of `interval_uops` micro-ops
    /// (minimum 1) into `dim`-dimensional vectors (minimum 1), retaining at
    /// most `max_intervals` closed intervals.
    ///
    /// All memory — the projection slab and the sparse count map — is
    /// reserved here, never on the record path.
    pub fn new(seed: u64, interval_uops: u64, dim: usize, max_intervals: usize) -> Self {
        let interval_uops = interval_uops.max(1);
        let dim = dim.max(1);
        let mut counts = FastHashMap::default();
        // Distinct PW starts per interval are bounded by interval lookups;
        // one start per ~4 uops is a generous ceiling for the synthesized
        // workloads (capped so absurd interval sizes stay constructible).
        let distinct = usize::try_from(interval_uops / 4).unwrap_or(usize::MAX);
        counts.reserve(distinct.clamp(1024, 1 << 18));
        BbvRecorder {
            interval_uops,
            dim,
            seed,
            rows: vec![0; max_intervals * dim],
            row_uops: vec![0; max_intervals],
            counts,
            intervals: 0,
            current_uops: 0,
            offered: 0,
            max_intervals,
            overflowed: false,
        }
    }

    /// Interval size in micro-ops.
    pub fn interval_uops(&self) -> u64 {
        self.interval_uops
    }

    /// Projected dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Closed (full-size) intervals observed so far.
    pub fn intervals_closed(&self) -> usize {
        self.intervals
    }

    /// Whether intervals were dropped because `max_intervals` was reached.
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// The projected fingerprint of every interval, in stream order: all
    /// closed intervals plus the open partial one (if it saw any micro-ops
    /// and the slab has room). Each vector is normalized by its interval's
    /// micro-op count, so a short trailing interval is comparable to full
    /// ones.
    pub fn vectors(&self) -> Vec<Vec<f64>> {
        let mut out = Vec::with_capacity(self.intervals + 1);
        for i in 0..self.intervals {
            let base = i * self.dim;
            let denom = self.row_uops[i].max(1) as f64;
            out.push(
                self.rows[base..base + self.dim]
                    .iter()
                    .map(|&v| v as f64 / denom)
                    .collect(),
            );
        }
        if self.current_uops > 0 && !self.overflowed && self.intervals < self.max_intervals {
            let mut row = vec![0i64; self.dim];
            for (&start, &count) in &self.counts {
                project_into(self.seed, start, count, &mut row);
            }
            let denom = self.current_uops.max(1) as f64;
            out.push(row.iter().map(|&v| v as f64 / denom).collect());
        }
        out
    }

    /// Closes the open interval: projects its sparse counts into the next
    /// slab row and resets the accumulator. Addition commutes, so the row is
    /// independent of the hash map's iteration order.
    fn close_interval(&mut self) {
        if self.intervals >= self.max_intervals {
            self.overflowed = true;
        } else {
            let base = self.intervals * self.dim;
            let row = &mut self.rows[base..base + self.dim];
            for (&start, &count) in &self.counts {
                project_into(self.seed, start, count, row);
            }
            self.row_uops[self.intervals] = self.current_uops;
            self.intervals += 1;
        }
        self.counts.clear();
        self.current_uops = 0;
    }
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

impl Recorder for BbvRecorder {
    fn record(&mut self, ev: &Event) {
        self.offered += 1;
        if !matches!(
            ev.kind,
            EventKind::Hit | EventKind::PartialHit | EventKind::Miss
        ) {
            return;
        }
        *self.counts.entry(ev.start).or_insert(0) += u64::from(ev.uops);
        self.current_uops += u64::from(ev.uops);
        if self.current_uops >= self.interval_uops {
            self.close_interval();
        }
    }

    fn events(&self) -> Vec<Event> {
        Vec::new()
    }

    fn offered(&self) -> u64 {
        self.offered
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Verdict;

    fn lookup(start: u64, uops: u32) -> Event {
        Event {
            cycle: 0,
            kind: EventKind::Miss,
            set: 0,
            slot: None,
            start,
            uops,
            entries: 1,
            verdict: Verdict::None,
        }
    }

    #[test]
    fn intervals_close_on_uop_boundaries() {
        let mut r = BbvRecorder::new(1, 10, 8, 16);
        for _ in 0..8 {
            r.record(&lookup(0x40, 3));
        }
        // 8 lookups × 3 uops with a 10-uop interval: the counter resets on
        // each close, so intervals close after lookups 4 (12 uops) and 8
        // (12 more); nothing is left open.
        assert_eq!(r.intervals_closed(), 2);
        assert_eq!(r.vectors().len(), 2);
        r.record(&lookup(0x80, 2));
        assert_eq!(r.vectors().len(), 3, "open partial interval included");
        assert_eq!(r.offered(), 9);
    }

    #[test]
    fn fingerprints_are_deterministic_and_order_independent() {
        let run = |starts: &[u64]| {
            let mut r = BbvRecorder::new(42, 1000, 16, 4);
            for &s in starts {
                r.record(&lookup(s, 5));
            }
            r.vectors()
        };
        let a = run(&[0x40, 0x80, 0xc0, 0x40]);
        let b = run(&[0x40, 0x40, 0x80, 0xc0]);
        // Same multiset of (start, uops) within one interval → same vector.
        assert_eq!(a, b);
        assert_ne!(a, run(&[0x40, 0x40, 0x80, 0x100]));
    }

    #[test]
    fn different_seeds_project_differently() {
        let run = |seed: u64| {
            let mut r = BbvRecorder::new(seed, 100, 8, 4);
            for i in 0..30u64 {
                r.record(&lookup(0x40 * (i % 7), 4));
            }
            r.vectors()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn similar_intervals_land_close_distinct_ones_far() {
        let mut r = BbvRecorder::new(9, 120, 32, 8);
        // Interval 0 and 1: the same 5-window loop. Interval 2: other code.
        for rep in 0..2 {
            let _ = rep;
            for i in 0..20u64 {
                r.record(&lookup(0x40 * (i % 5), 6));
            }
        }
        for i in 0..20u64 {
            r.record(&lookup(0x4000 + 0x40 * (i % 5), 6));
        }
        let v = r.vectors();
        assert_eq!(v.len(), 3);
        let d =
            |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum() };
        assert!(d(&v[0], &v[1]) < d(&v[0], &v[2]));
    }

    #[test]
    fn non_lookup_events_do_not_advance_the_clock() {
        let mut r = BbvRecorder::new(3, 50, 8, 4);
        r.record(&lookup(0x40, 10));
        let insert = Event {
            kind: EventKind::Insert,
            ..lookup(0x40, 10)
        };
        for _ in 0..20 {
            r.record(&insert);
        }
        assert_eq!(r.intervals_closed(), 0);
        assert_eq!(r.vectors().len(), 1, "only the open lookup interval");
        assert_eq!(r.offered(), 21);
    }

    #[test]
    fn overflow_sets_the_flag_and_caps_rows() {
        let mut r = BbvRecorder::new(5, 10, 4, 2);
        for _ in 0..10 {
            r.record(&lookup(0x40, 5));
        }
        assert!(r.overflowed());
        assert_eq!(r.intervals_closed(), 2);
        assert_eq!(r.vectors().len(), 2);
    }

    #[test]
    fn trailing_partial_interval_is_normalized() {
        let mut r = BbvRecorder::new(11, 100, 8, 4);
        for _ in 0..25 {
            r.record(&lookup(0x40, 4)); // exactly one closed interval
        }
        r.record(&lookup(0x40, 4)); // open: same single window
        let v = r.vectors();
        assert_eq!(v.len(), 2);
        // Same code mix, different lengths: normalized vectors coincide.
        for (a, b) in v[0].iter().zip(&v[1]) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
