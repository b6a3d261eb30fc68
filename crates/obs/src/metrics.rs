//! The metrics registry: named counters and fixed-bucket histograms that
//! serialise canonically and merge associatively.
//!
//! Associativity is what makes the registry safe under the parallel
//! experiment engine: per-task registries are merged in **key order** by the
//! caller, and because `merge` is plain element-wise addition over identical
//! fixed bucket edges, the merged registry is independent of how the work
//! was scheduled.

use std::collections::BTreeMap;
use uopcache_model::json::Json;

/// A fixed-bucket histogram over `u64` samples.
///
/// Bucket `i` counts samples `v <= edges[i]` (and greater than the previous
/// edge); one implicit overflow bucket counts everything above the last
/// edge. Edges are fixed at construction, which is what makes two
/// histograms of the same metric mergeable by bucket-wise addition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    edges: Vec<u64>,
    counts: Vec<u64>,
    total: u64,
    sum: u64,
}

impl Histogram {
    /// A histogram with explicit inclusive upper bucket edges (must be
    /// strictly increasing; an overflow bucket is added automatically).
    pub(crate) fn with_edges(edges: Vec<u64>) -> Self {
        debug_assert!(edges.windows(2).all(|w| w[0] < w[1]), "edges must ascend");
        let buckets = edges.len() + 1;
        Histogram {
            edges,
            counts: vec![0; buckets],
            total: 0,
            sum: 0,
        }
    }

    /// A power-of-two histogram: edges `1, 2, 4, ..., 2^(buckets-1)`.
    pub fn log2(buckets: u32) -> Self {
        Self::with_edges((0..buckets).map(|b| 1u64 << b).collect())
    }

    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        let idx = self
            .edges
            .iter()
            .position(|&e| value <= e)
            .unwrap_or(self.edges.len());
        self.counts[idx] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// The inclusive upper bucket edges.
    #[cfg(test)]
    pub(crate) fn edges(&self) -> &[u64] {
        &self.edges
    }

    /// Per-bucket counts (one more than `edges`: the last is overflow).
    #[cfg(test)]
    pub(crate) fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all samples (saturating), for mean derivation.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Adds another histogram of the same shape into this one.
    ///
    /// # Panics
    ///
    /// Panics if the bucket edges differ — merging histograms of different
    /// metrics is a programming error, not a data condition.
    pub(crate) fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.edges, other.edges,
            "cannot merge histograms with different bucket edges"
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Canonical JSON: `{"edges":[...],"counts":[...],"total":N,"sum":N}`.
    pub(crate) fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "edges".to_string(),
                Json::Arr(self.edges.iter().map(|&e| Json::U64(e)).collect()),
            ),
            (
                "counts".to_string(),
                Json::Arr(self.counts.iter().map(|&c| Json::U64(c)).collect()),
            ),
            ("total".to_string(), Json::U64(self.total)),
            ("sum".to_string(), Json::U64(self.sum)),
        ])
    }
}

/// Named counters and histograms.
///
/// Keys are ordered (`BTreeMap`), so iteration — and therefore JSON — is
/// canonical regardless of the order metrics were first touched in.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    gauges: BTreeMap<String, u64>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to a named counter (creating it at zero).
    pub(crate) fn add(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by; // audit:allow(hot-path-alloc) — interns the counter name on first touch; warmed counters hit the map
    }

    /// Increments a named counter by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// The value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets a named gauge to an instantaneous level (queue depth, live
    /// connections). Unlike counters, gauges overwrite rather than add.
    pub fn set_gauge(&mut self, name: &str, value: u64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// The level of a gauge (0 if never set).
    #[cfg(test)]
    pub(crate) fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Registers a histogram under `name` if absent, then returns it for
    /// observation. The shape of an existing histogram is kept.
    pub fn histogram_with(
        &mut self,
        name: &str,
        make: impl FnOnce() -> Histogram,
    ) -> &mut Histogram {
        self.histograms.entry(name.to_string()).or_insert_with(make)
    }

    /// Records one sample into a histogram registered via
    /// [`histogram_with`](Self::histogram_with).
    ///
    /// # Panics
    ///
    /// Panics if no histogram of that name was registered.
    pub(crate) fn observe(&mut self, name: &str, value: u64) {
        self.histograms
            .get_mut(name)
            .unwrap_or_else(|| panic!("histogram {name:?} was never registered"))
            .observe(value);
    }

    /// A registered histogram, if present.
    #[cfg(test)]
    pub(crate) fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms, in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Merges another registry into this one: counters add, histograms add
    /// bucket-wise, names absent on either side are kept. Associative and
    /// commutative, so any merge order yields the same registry.
    ///
    /// # Panics
    ///
    /// Panics if a histogram name is present on both sides with different
    /// bucket edges.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, &v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, h) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(name.clone(), h.clone());
                }
            }
        }
        // Gauges merge by maximum: "the highest level either side saw" is
        // the only instantaneous combination that stays associative and
        // commutative, which the parallel engine's merge-order freedom needs.
        for (name, &v) in &other.gauges {
            let slot = self.gauges.entry(name.clone()).or_insert(0);
            *slot = (*slot).max(v);
        }
    }

    /// Canonical JSON: counters, then gauges (only when any were set — a
    /// gauge-free registry keeps its historical two-key shape byte-for-byte),
    /// then histograms, each section sorted by name.
    pub fn to_json(&self) -> Json {
        let mut obj = Vec::with_capacity(3);
        obj.push((
            "counters".to_string(),
            Json::Obj(
                self.counters
                    .iter()
                    .map(|(k, &v)| (k.clone(), Json::U64(v)))
                    .collect(),
            ),
        ));
        if !self.gauges.is_empty() {
            obj.push((
                "gauges".to_string(),
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::U64(v)))
                        .collect(),
                ),
            ));
        }
        obj.push((
            "histograms".to_string(),
            Json::Obj(
                self.histograms
                    .iter()
                    .map(|(k, h)| (k.clone(), h.to_json()))
                    .collect(),
            ),
        ));
        Json::Obj(obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_inclusive_upper_bounds() {
        let mut h = Histogram::with_edges(vec![1, 4, 16]);
        for v in [0, 1, 2, 4, 5, 16, 17, 1000] {
            h.observe(v);
        }
        assert_eq!(h.counts(), &[2, 2, 2, 2]);
        assert_eq!(h.total(), 8);
        assert_eq!(h.sum(), 1045);
    }

    #[test]
    fn log2_edges_double() {
        let h = Histogram::log2(5);
        assert_eq!(h.edges(), &[1, 2, 4, 8, 16]);
        assert_eq!(h.counts().len(), 6);
    }

    #[test]
    fn merge_is_associative() {
        let mk = |vals: &[u64]| {
            let mut r = MetricsRegistry::new();
            r.add("n", vals.len() as u64);
            r.histogram_with("h", || Histogram::log2(4));
            for &v in vals {
                r.observe("h", v);
            }
            r
        };
        let (a, b, c) = (mk(&[1, 2]), mk(&[3]), mk(&[9, 100]));
        // (a + b) + c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a + (b + c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        assert_eq!(left.counter("n"), 5);
        assert_eq!(left.histogram("h").map(Histogram::total), Some(5));
    }

    #[test]
    #[should_panic(expected = "different bucket edges")]
    fn merging_mismatched_edges_panics() {
        let mut a = Histogram::log2(3);
        a.merge(&Histogram::log2(4));
    }

    #[test]
    fn json_is_sorted_by_name() {
        let mut r = MetricsRegistry::new();
        r.inc("zeta");
        r.inc("alpha");
        let s = r.to_json().to_string();
        let (za, aa) = (s.find("zeta").expect("zeta"), s.find("alpha").expect("a"));
        assert!(aa < za, "{s}");
    }

    #[test]
    fn mean_handles_empty() {
        let h = Histogram::log2(3);
        assert!((h.mean() - 0.0).abs() < f64::EPSILON);
    }

    #[test]
    fn gauges_merge_by_max_and_serialise_only_when_set() {
        // A gauge-free registry keeps the historical two-key JSON shape.
        let mut plain = MetricsRegistry::new();
        plain.inc("n");
        assert!(!plain.to_json().to_string().contains("gauges"));

        let mut a = MetricsRegistry::new();
        a.set_gauge("depth", 3);
        a.set_gauge("depth", 1); // overwrites, not adds
        let mut b = MetricsRegistry::new();
        b.set_gauge("depth", 7);
        b.set_gauge("conns", 2);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "gauge merge must be commutative");
        assert_eq!(ab.gauge("depth"), 7, "merge keeps the high-water mark");
        assert_eq!(ab.gauge("conns"), 2);
        assert_eq!(ab.gauge("never_set"), 0);
        let s = ab.to_json().to_string();
        assert!(s.contains("\"gauges\":{\"conns\":2,\"depth\":7}"), "{s}");
    }
}
