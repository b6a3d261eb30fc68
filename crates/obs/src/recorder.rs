//! Recorder sinks: where the cache's event stream goes.
//!
//! The cache emits every replacement-relevant [`Event`] into a [`Recorder`].
//! What happens next is the recorder's business: [`NullRecorder`] drops
//! everything (the zero-cost default), [`RingRecorder`] keeps the last *N*,
//! [`SamplingRecorder`] keeps a deterministic 1-in-*k* subset, and
//! [`MetricsRecorder`] folds the stream into a [`MetricsRegistry`] before
//! forwarding to an inner sink.

use std::collections::VecDeque;
use uopcache_model::hash::FastHashMap;

use crate::event::{Event, EventKind, Verdict};
use crate::metrics::{Histogram, MetricsRegistry};
use uopcache_exec::seed::splitmix64;

/// A sink for the cache's event stream.
///
/// Implementations must be deterministic: whether an event is retained may
/// depend only on the event itself, the events seen before it, and
/// construction-time parameters (capacity, seed) — never on wall time or
/// thread identity. That is what lets instrumented sweeps stay byte-identical
/// across `--jobs` counts.
pub trait Recorder: Send {
    /// Offers one event to the sink.
    fn record(&mut self, ev: &Event);

    /// The events this sink retained, oldest first.
    fn events(&self) -> Vec<Event>;

    /// How many events were offered (retained or not).
    fn offered(&self) -> u64;

    /// The metrics this sink derived, if it derives any.
    fn metrics(&self) -> Option<&MetricsRegistry> {
        None
    }

    /// A downcast hook for callers that installed a concrete sink behind
    /// `Box<dyn Recorder>` and need it back out (the offline `identify`
    /// pass retrieves its [`DigestRecorder`](crate::digest::DigestRecorder)
    /// this way). Sinks whose state is fully captured by [`events`] may keep
    /// the `None` default.
    ///
    /// [`events`]: Recorder::events
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// Retains nothing. The default sink; the cache's emit path short-circuits
/// on it so uninstrumented runs pay only a null-check.
#[derive(Clone, Debug, Default)]
pub struct NullRecorder {
    offered: u64,
}

impl NullRecorder {
    /// A recorder that drops every event.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Recorder for NullRecorder {
    fn record(&mut self, _ev: &Event) {
        self.offered += 1;
    }

    fn events(&self) -> Vec<Event> {
        Vec::new()
    }

    fn offered(&self) -> u64 {
        self.offered
    }
}

/// Keeps the last `capacity` events in a bounded ring.
#[derive(Clone, Debug)]
pub struct RingRecorder {
    ring: VecDeque<Event>,
    capacity: usize,
    offered: u64,
}

impl RingRecorder {
    /// A ring that retains at most `capacity` events (the newest win).
    pub fn new(capacity: usize) -> Self {
        RingRecorder {
            ring: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            offered: 0,
        }
    }
}

impl Recorder for RingRecorder {
    fn record(&mut self, ev: &Event) {
        self.offered += 1;
        if self.capacity == 0 {
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(*ev); // audit:allow(hot-path-alloc) — ring popped at capacity above; warmed capacity is stable
    }

    fn events(&self) -> Vec<Event> {
        self.ring.iter().copied().collect()
    }

    fn offered(&self) -> u64 {
        self.offered
    }
}

/// Keeps a deterministic 1-in-`every` subset of the stream.
///
/// Whether event number `i` is retained depends only on the construction
/// seed and `i`: it is kept when `splitmix64(seed ^ i) % every == 0`, using
/// the same SplitMix64 derivation the experiment engine uses for task seeds.
/// Seeding the recorder from the task's own key therefore makes the retained
/// subset a pure function of the task — identical whether the task ran
/// serially or on a stolen worker slot.
#[derive(Clone, Debug)]
pub struct SamplingRecorder {
    seed: u64,
    every: u64,
    kept: Vec<Event>,
    offered: u64,
}

impl SamplingRecorder {
    /// A sampler keeping roughly one event in `every` (minimum 1, meaning
    /// keep everything), decided by `seed`.
    pub fn new(seed: u64, every: u64) -> Self {
        SamplingRecorder {
            seed,
            every: every.max(1),
            kept: Vec::new(),
            offered: 0,
        }
    }
}

impl Recorder for SamplingRecorder {
    fn record(&mut self, ev: &Event) {
        let index = self.offered;
        self.offered += 1;
        if splitmix64(self.seed ^ index).is_multiple_of(self.every) {
            self.kept.push(*ev); // audit:allow(hot-path-alloc) — sampled observability sink, off in the timed kernel (obs feature)
        }
    }

    fn events(&self) -> Vec<Event> {
        self.kept.clone()
    }

    fn offered(&self) -> u64 {
        self.offered
    }
}

/// Histogram bucket shapes shared by every [`MetricsRecorder`], so
/// per-task registries always merge cleanly.
fn reuse_distance_hist() -> Histogram {
    Histogram::log2(20)
}
fn pw_length_hist() -> Histogram {
    Histogram::with_edges((1..=16).collect())
}
fn set_occupancy_hist() -> Histogram {
    Histogram::with_edges((0..=16).collect())
}
fn eviction_age_hist() -> Histogram {
    Histogram::log2(24)
}

/// Folds the event stream into a [`MetricsRegistry`] and forwards every
/// event to an inner sink.
///
/// Derived counters: `hits`, `partial_hits`, `misses`, `insertions`,
/// `evictions`, `fallback_evictions`, `upgrades`, `bypasses`,
/// `invalidations`. Derived histograms:
///
/// * `reuse_distance` — lookups between consecutive lookups of the same
///   window start;
/// * `pw_length` — micro-ops per inserted prediction window;
/// * `set_occupancy` — live windows in a set, sampled at each insertion;
/// * `eviction_age` — cycles a window stayed resident before eviction or
///   invalidation.
pub struct MetricsRecorder {
    inner: Box<dyn Recorder>,
    registry: MetricsRegistry,
    last_lookup: FastHashMap<u64, u64>,
    inserted_at: FastHashMap<(u32, u64), u64>,
    occupancy: FastHashMap<u32, u64>,
    lookups: u64,
}

impl MetricsRecorder {
    /// Wraps `inner`, deriving metrics from everything that passes through.
    pub fn new(inner: Box<dyn Recorder>) -> Self {
        let mut registry = MetricsRegistry::new();
        registry.histogram_with("reuse_distance", reuse_distance_hist);
        registry.histogram_with("pw_length", pw_length_hist);
        registry.histogram_with("set_occupancy", set_occupancy_hist);
        registry.histogram_with("eviction_age", eviction_age_hist);
        MetricsRecorder {
            inner,
            registry,
            last_lookup: FastHashMap::default(),
            inserted_at: FastHashMap::default(),
            occupancy: FastHashMap::default(),
            lookups: 0,
        }
    }

    /// The derived registry.
    #[cfg(test)]
    pub(crate) fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    fn on_lookup(&mut self, ev: &Event) {
        if let Some(prev) = self.last_lookup.insert(ev.start, self.lookups) {
            self.registry.observe("reuse_distance", self.lookups - prev);
        }
        self.lookups += 1;
    }

    fn on_departure(&mut self, ev: &Event) {
        if let Some(born) = self.inserted_at.remove(&(ev.set, ev.start)) {
            self.registry
                .observe("eviction_age", ev.cycle.saturating_sub(born));
            let occ = self.occupancy.entry(ev.set).or_insert(0);
            *occ = occ.saturating_sub(1);
        }
    }
}

impl Recorder for MetricsRecorder {
    fn record(&mut self, ev: &Event) {
        match ev.kind {
            EventKind::Hit => {
                self.registry.inc("hits");
                self.on_lookup(ev);
            }
            EventKind::PartialHit => {
                self.registry.inc("partial_hits");
                self.on_lookup(ev);
            }
            EventKind::Miss => {
                self.registry.inc("misses");
                self.on_lookup(ev);
            }
            EventKind::Insert => {
                self.registry.inc("insertions");
                self.registry.observe("pw_length", u64::from(ev.uops));
                self.inserted_at.insert((ev.set, ev.start), ev.cycle);
                let occ = self.occupancy.entry(ev.set).or_insert(0);
                *occ += 1;
                let occ = *occ;
                self.registry.observe("set_occupancy", occ);
            }
            EventKind::Evict => {
                self.registry.inc("evictions");
                match ev.verdict {
                    Verdict::Fallback => self.registry.inc("fallback_evictions"),
                    Verdict::Upgrade => self.registry.inc("upgrades"),
                    _ => {}
                }
                self.on_departure(ev);
            }
            EventKind::Bypass => {
                self.registry.inc("bypasses");
            }
            EventKind::Invalidate => {
                self.registry.inc("invalidations");
                self.on_departure(ev);
            }
        }
        self.inner.record(ev);
    }

    fn events(&self) -> Vec<Event> {
        self.inner.events()
    }

    fn offered(&self) -> u64 {
        self.inner.offered()
    }

    fn metrics(&self) -> Option<&MetricsRegistry> {
        Some(&self.registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, kind: EventKind, set: u32, start: u64) -> Event {
        Event {
            cycle,
            kind,
            set,
            slot: None,
            start,
            uops: 6,
            entries: 1,
            verdict: Verdict::None,
        }
    }

    #[test]
    fn null_recorder_retains_nothing_but_counts_offers() {
        let mut r = NullRecorder::new();
        r.record(&ev(0, EventKind::Miss, 0, 0x40));
        r.record(&ev(1, EventKind::Hit, 0, 0x40));
        assert_eq!(r.offered(), 2);
        assert!(r.events().is_empty());
        assert!(r.metrics().is_none());
    }

    #[test]
    fn ring_keeps_only_the_last_n() {
        let mut r = RingRecorder::new(3);
        for c in 0..10 {
            r.record(&ev(c, EventKind::Miss, 0, 0x40 * c));
        }
        let kept = r.events();
        assert_eq!(kept.len(), 3);
        assert_eq!(
            kept.iter().map(|e| e.cycle).collect::<Vec<_>>(),
            vec![7, 8, 9]
        );
        assert_eq!(r.offered(), 10);
    }

    #[test]
    fn sampling_is_a_pure_function_of_seed_and_index() {
        let run = |seed: u64| {
            let mut r = SamplingRecorder::new(seed, 4);
            for c in 0..256 {
                r.record(&ev(c, EventKind::Miss, 0, 0x40 * c));
            }
            r.events().iter().map(|e| e.cycle).collect::<Vec<_>>()
        };
        assert_eq!(run(0xdead_beef), run(0xdead_beef), "same seed, same subset");
        assert_ne!(run(1), run(2), "different seeds sample differently");
        let kept = run(0xdead_beef);
        assert!(!kept.is_empty() && kept.len() < 256, "roughly 1-in-4");
    }

    #[test]
    fn sampling_every_one_keeps_everything() {
        let mut r = SamplingRecorder::new(7, 1);
        for c in 0..32 {
            r.record(&ev(c, EventKind::Hit, 0, 0x80));
        }
        assert_eq!(r.events().len(), 32);
    }

    #[test]
    fn metrics_recorder_derives_counters_and_histograms() {
        let mut r = MetricsRecorder::new(Box::new(RingRecorder::new(8)));
        // miss -> insert -> hit (reuse) -> evict
        r.record(&ev(0, EventKind::Miss, 2, 0x100));
        r.record(&Event {
            uops: 9,
            ..ev(1, EventKind::Insert, 2, 0x100)
        });
        r.record(&ev(5, EventKind::Hit, 2, 0x100));
        r.record(&Event {
            verdict: Verdict::Fallback,
            ..ev(40, EventKind::Evict, 2, 0x100)
        });
        let m = r.registry();
        assert_eq!(m.counter("misses"), 1);
        assert_eq!(m.counter("hits"), 1);
        assert_eq!(m.counter("insertions"), 1);
        assert_eq!(m.counter("evictions"), 1);
        assert_eq!(m.counter("fallback_evictions"), 1);
        let reuse = m.histogram("reuse_distance").expect("registered");
        assert_eq!(reuse.total(), 1);
        assert_eq!(reuse.sum(), 1, "one lookup between the two touches");
        let age = m.histogram("eviction_age").expect("registered");
        assert_eq!(age.sum(), 39, "inserted at cycle 1, evicted at 40");
        let pw = m.histogram("pw_length").expect("registered");
        assert_eq!(pw.sum(), 9);
        // events flow through to the inner ring
        assert_eq!(r.events().len(), 4);
        assert_eq!(r.offered(), 4);
    }

    #[test]
    fn occupancy_tracks_inserts_minus_departures() {
        let mut r = MetricsRecorder::new(Box::new(NullRecorder::new()));
        r.record(&ev(0, EventKind::Insert, 1, 0x40));
        r.record(&ev(1, EventKind::Insert, 1, 0x80));
        r.record(&ev(2, EventKind::Invalidate, 1, 0x40));
        r.record(&ev(3, EventKind::Insert, 1, 0xc0));
        let occ = r.registry().histogram("set_occupancy").expect("registered");
        // samples at each insertion: 1, 2, then 2 again after one left
        assert_eq!(occ.total(), 3);
        assert_eq!(occ.sum(), 5);
        assert_eq!(r.registry().counter("invalidations"), 1);
    }
}
