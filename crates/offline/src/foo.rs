//! Flow-based offline optimal (FOO) replacement, formulated per cache set.
//!
//! Following Berger, Beckmann & Harchol-Balter ("Practical Bounds on Optimal
//! Caching with Variable Object Sizes"), the keep/evict decisions between
//! consecutive accesses of the same window form an interval-packing problem
//! under the cache capacity, whose LP relaxation is a min-cost flow:
//!
//! * one node per access (in trace order), **per cache set** — replacement is
//!   per-set in the micro-op cache, so solving per set both shrinks each
//!   instance (capacity = `ways` entries) and makes every decision directly
//!   enforceable in the set-associative cache;
//! * *inner* edges between consecutive accesses with capacity `ways` and
//!   cost 0 (free space flows through them);
//! * an *interval* edge from each access to the next access it could serve,
//!   with capacity equal to the stored window's size in entries and a
//!   negative per-unit cost encoding the objective.
//!
//! Routing `ways` units of flow from the first to the last access selects the
//! most valuable set of intervals; an interval is **kept** iff its edge is
//! saturated (the FOO-Integral rounding).
//!
//! The [`Objective`] and [`IntervalMode`] knobs express both the paper's
//! baseline FOO (object/byte hit ratio over exact windows) and the FLACK
//! extensions (cost-aware benefit, coverage intervals for partial hits) that
//! `uopcache-core` layers on top.

use uopcache_flow::{EdgeId, FlowGraph};
use uopcache_model::hash::FastHashMap;
use uopcache_model::{LookupTrace, UopCacheConfig};

/// What one unit of cached data is worth.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum Objective {
    /// Maximise the number of window hits (FOO's OHR): every kept interval is
    /// worth 1 regardless of size.
    ObjectHitRatio,
    /// Maximise hit entries (FOO's BHR analogue): a kept interval is worth
    /// its size.
    ByteHitRatio,
    /// FLACK's variable-cost objective: a kept interval is worth the
    /// micro-ops it serves (`cost`), i.e. per-entry value `cost/size`.
    CostAware,
}

/// Which future accesses an inserted window can serve.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum IntervalMode {
    /// Only lookups of the *identical* window (same start, same length) —
    /// how baseline FOO and Belady treat overlapping windows.
    ExactWindow,
    /// Any lookup with the same start address: a longer stored window serves
    /// a shorter lookup fully, a shorter one yields a partial hit worth the
    /// overlap (FLACK's selective-bypass feature).
    Coverage,
}

/// Configuration of a FOO/FLACK solve.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct FooConfig {
    /// Benefit model.
    pub objective: Objective,
    /// Interval construction.
    pub interval_mode: IntervalMode,
    /// I-cache line size used for set indexing.
    pub line_bytes: u64,
}

impl FooConfig {
    /// The paper's baseline FOO (object hit ratio, exact windows).
    pub const fn foo_ohr() -> Self {
        FooConfig {
            objective: Objective::ObjectHitRatio,
            interval_mode: IntervalMode::ExactWindow,
            line_bytes: 64,
        }
    }

    /// Baseline FOO optimising byte (entry) hit ratio.
    pub const fn foo_bhr() -> Self {
        FooConfig {
            objective: Objective::ByteHitRatio,
            interval_mode: IntervalMode::ExactWindow,
            line_bytes: 64,
        }
    }

    /// FLACK's solve: cost-aware benefit over coverage intervals.
    pub const fn flack() -> Self {
        FooConfig {
            objective: Objective::CostAware,
            interval_mode: IntervalMode::Coverage,
            line_bytes: 64,
        }
    }
}

/// Result of a FOO solve over a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FooSolution {
    /// Per access: keep the looked-up/inserted window in the cache until its
    /// next use (`false` = bypass the insertion, or evict after the hit).
    pub keep: Vec<bool>,
    /// Per access: the solver expects this lookup to hit (its incoming
    /// interval was kept).
    pub expected_hit: Vec<bool>,
    /// Total benefit of the kept intervals, in scaled objective units.
    pub objective_value: i64,
    /// Shortest-path searches the per-set flow solves ran, summed (see
    /// [`McmfResult::searches`](uopcache_flow::McmfResult::searches)): an
    /// exact count of the solver's work, independent of machine and timing.
    pub searches: u64,
}

impl FooSolution {
    /// Number of kept intervals.
    pub fn kept_count(&self) -> usize {
        self.keep.iter().filter(|&&k| k).count()
    }
}

/// Benefit scaling so `cost/size` ratios stay integral for sizes 1..=8.
const SCALE: i64 = 840;

/// Solves FOO over `trace` for a micro-op cache with geometry `cfg`.
///
/// # Examples
///
/// ```
/// use uopcache_model::UopCacheConfig;
/// use uopcache_offline::{foo, FooConfig};
/// use uopcache_trace::{build_trace, AppId, InputVariant};
///
/// let trace = build_trace(AppId::Kafka, InputVariant::default(), 2_000);
/// let sol = foo::solve(&trace, &UopCacheConfig::zen3(), &FooConfig::foo_ohr());
/// assert_eq!(sol.keep.len(), 2_000);
/// ```
pub fn solve(trace: &LookupTrace, cfg: &UopCacheConfig, foo_cfg: &FooConfig) -> FooSolution {
    let n = trace.len();
    let mut keep = vec![false; n];
    let mut expected_hit = vec![false; n];
    let mut objective_value = 0i64;
    let mut searches = 0u64;

    // Partition access indices by set.
    let sets = cfg.sets() as usize;
    let mut per_set: Vec<Vec<u32>> = vec![Vec::new(); sets];
    for (i, a) in trace.iter().enumerate() {
        let s = cfg.set_index_for(a.pw().start, foo_cfg.line_bytes);
        per_set[s].push(u32::try_from(i).expect("trace indices fit in u32"));
    }

    // One scratch arena shared by every per-set solve: the interval list,
    // last-seen map, edge handles and flow network are cleared and refilled
    // per set instead of reallocated, keeping the solver loop allocation-flat
    // once the largest set has been visited.
    let mut scratch = SetScratch::default();
    for indices in &per_set {
        searches += solve_set(
            trace,
            cfg,
            foo_cfg,
            indices,
            &mut scratch,
            &mut keep,
            &mut expected_hit,
            &mut objective_value,
        );
    }

    FooSolution {
        keep,
        expected_hit,
        objective_value,
        searches,
    }
}

/// An interval candidate within one set.
struct Interval {
    /// Local index of the access that inserts/keeps the window.
    from: usize,
    /// Local index of the access that would hit.
    to: usize,
    /// Entries the kept window occupies.
    size: i64,
    /// Scaled total benefit of keeping it.
    benefit: i64,
}

/// Reusable buffers for the per-set solves, cleared between sets so their
/// allocations carry over (see [`solve`]).
struct SetScratch {
    last_seen: FastHashMap<(u64, u32), usize>,
    intervals: Vec<Interval>,
    edge_ids: Vec<EdgeId>,
    graph: FlowGraph,
}

impl Default for SetScratch {
    fn default() -> Self {
        SetScratch {
            last_seen: FastHashMap::default(),
            intervals: Vec::new(),
            edge_ids: Vec::new(),
            graph: FlowGraph::new(0),
        }
    }
}

/// Solves one set's network into `keep`/`expected_hit`/`objective_value` and
/// returns the shortest-path searches it ran.
#[allow(clippy::too_many_arguments)]
fn solve_set(
    trace: &LookupTrace,
    cfg: &UopCacheConfig,
    foo_cfg: &FooConfig,
    indices: &[u32],
    scratch: &mut SetScratch,
    keep: &mut [bool],
    expected_hit: &mut [bool],
    objective_value: &mut i64,
) -> u64 {
    let m = indices.len();
    if m < 2 {
        return 0;
    }
    let accesses = trace.accesses();
    // Build intervals between consecutive same-key accesses.
    let last_seen = &mut scratch.last_seen;
    last_seen.clear();
    let intervals = &mut scratch.intervals;
    intervals.clear();
    for (local, &gi) in indices.iter().enumerate() {
        let pw = accesses[gi as usize].pw();
        let key = match foo_cfg.interval_mode {
            IntervalMode::ExactWindow => (pw.start.get(), pw.uops),
            IntervalMode::Coverage => (pw.start.get(), 0),
        };
        if let Some(&prev) = last_seen.get(&key) {
            let prev_pw = accesses[indices[prev] as usize].pw();
            let size = i64::from(prev_pw.entries(cfg.uops_per_entry));
            if size <= i64::from(cfg.max_entries_per_pw.min(cfg.ways)) {
                let served = match foo_cfg.interval_mode {
                    IntervalMode::ExactWindow => pw.uops,
                    // Coverage: the stored (previous) window serves the
                    // overlap; a shorter stored window yields a partial hit.
                    IntervalMode::Coverage => prev_pw.uops.min(pw.uops),
                };
                let benefit = match foo_cfg.objective {
                    Objective::ObjectHitRatio => SCALE,
                    Objective::ByteHitRatio => SCALE * size,
                    Objective::CostAware => SCALE * i64::from(served),
                };
                intervals.push(Interval {
                    from: prev,
                    to: local,
                    size,
                    benefit,
                });
            }
        }
        last_seen.insert(key, local);
    }
    if intervals.is_empty() {
        return 0;
    }

    // Flow network: node per local access; route `ways` units end to end.
    let capacity = i64::from(cfg.ways);
    let graph = &mut scratch.graph;
    graph.reset(m);
    for k in 0..m - 1 {
        graph.add_edge(k, k + 1, capacity, 0);
    }
    let edge_ids = &mut scratch.edge_ids;
    edge_ids.clear();
    for iv in intervals.iter() {
        // Per-unit cost: negative benefit spread over the interval's
        // entries, so a saturated edge earns the full benefit.
        let per_unit = -(iv.benefit / iv.size);
        edge_ids.push(graph.add_edge(iv.from, iv.to, iv.size, per_unit));
    }
    let searches = graph.min_cost_flow(0, m - 1, capacity).searches;

    for (iv, &eid) in intervals.iter().zip(edge_ids.iter()) {
        if graph.flow_on(eid) == iv.size {
            keep[indices[iv.from] as usize] = true;
            expected_hit[indices[iv.to] as usize] = true;
            *objective_value += iv.benefit;
        }
    }
    searches
}

#[cfg(test)]
mod tests {
    use super::*;
    use uopcache_model::{Addr, PwAccess, PwDesc, PwTermination};

    fn cfg2way() -> UopCacheConfig {
        // Single-set cache with 2 entries, 8 uops per entry.
        UopCacheConfig {
            entries: 2,
            ways: 2,
            uops_per_entry: 8,
            switch_penalty: 1,
            inclusive_with_l1i: true,
            max_entries_per_pw: 2,
        }
    }

    fn acc(start: u64, uops: u32) -> PwAccess {
        PwAccess::new(PwDesc::new(
            Addr::new(start),
            uops,
            uops * 3,
            PwTermination::TakenBranch,
        ))
    }

    #[test]
    fn keeps_reused_windows_under_capacity() {
        // A and B fit together; both reused: both kept.
        let t: LookupTrace = [acc(0, 4), acc(64, 4), acc(0, 4), acc(64, 4)]
            .into_iter()
            .collect();
        let sol = solve(&t, &cfg2way(), &FooConfig::foo_ohr());
        assert!(sol.keep[0] && sol.keep[1]);
        assert!(sol.expected_hit[2] && sol.expected_hit[3]);
        assert_eq!(sol.kept_count(), 2);
    }

    #[test]
    fn capacity_limits_kept_intervals() {
        // Three 1-entry windows, all reused across each other: only 2 fit.
        let t: LookupTrace = [
            acc(0, 4),
            acc(64, 4),
            acc(128, 4),
            acc(0, 4),
            acc(64, 4),
            acc(128, 4),
        ]
        .into_iter()
        .collect();
        let sol = solve(&t, &cfg2way(), &FooConfig::foo_ohr());
        let kept_first = sol.keep[..3].iter().filter(|&&k| k).count();
        assert_eq!(
            kept_first, 2,
            "only two of the three overlapping intervals fit"
        );
    }

    #[test]
    fn cost_aware_prefers_high_uop_windows() {
        // Paper's Figure 3 scenario: A (1 uop) and C (4 uops) resident;
        // B (1 uop) accessed thrice then A then C, capacity 2 (1-entry each).
        // OHR treats all equally; CostAware must keep C (worth 4 uops).
        let t: LookupTrace = [
            acc(0, 1),   // A
            acc(64, 4),  // C
            acc(128, 1), // B
            acc(128, 1),
            acc(128, 1),
            acc(0, 1),  // A again
            acc(64, 4), // C again
        ]
        .into_iter()
        .collect();
        let sol = solve(&t, &cfg2way(), &FooConfig::flack());
        // C's interval (index 1 -> 6) must be kept.
        assert!(
            sol.keep[1],
            "cost-aware keeps the 4-uop window: {:?}",
            sol.keep
        );
        assert!(sol.expected_hit[6]);
    }

    #[test]
    fn coverage_mode_links_overlapping_windows() {
        // Long window D' then short lookups D (same start): coverage mode
        // connects them, exact mode does not (Figure 4's scenario).
        let t: LookupTrace = [acc(0, 12), acc(0, 3), acc(0, 3)].into_iter().collect();
        let exact = solve(&t, &cfg2way(), &FooConfig::foo_ohr());
        assert!(
            !exact.expected_hit[1],
            "exact windows treat D' and D as distinct"
        );
        let cov = solve(
            &t,
            &cfg2way(),
            &FooConfig {
                objective: Objective::CostAware,
                interval_mode: IntervalMode::Coverage,
                line_bytes: 64,
            },
        );
        assert!(
            cov.expected_hit[1],
            "coverage lets the long window serve the short lookup"
        );
    }

    #[test]
    fn bhr_counts_entries() {
        let t: LookupTrace = [acc(0, 16), acc(0, 16)].into_iter().collect();
        let sol = solve(&t, &cfg2way(), &FooConfig::foo_bhr());
        assert!(sol.keep[0]);
        assert_eq!(sol.objective_value, SCALE * 2);
    }

    #[test]
    fn oversized_windows_are_never_kept() {
        let mut cfg = cfg2way();
        cfg.max_entries_per_pw = 1;
        let t: LookupTrace = [acc(0, 16), acc(0, 16)].into_iter().collect();
        let sol = solve(&t, &cfg, &FooConfig::foo_ohr());
        assert_eq!(sol.kept_count(), 0);
    }

    #[test]
    fn empty_and_singleton_traces() {
        let sol = solve(&LookupTrace::new(), &cfg2way(), &FooConfig::foo_ohr());
        assert!(sol.keep.is_empty());
        let t: LookupTrace = [acc(0, 4)].into_iter().collect();
        let sol = solve(&t, &cfg2way(), &FooConfig::foo_ohr());
        assert_eq!(sol.keep, vec![false]);
    }
}
