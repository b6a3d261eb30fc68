//! FLACK: FOO-based seLectively-bypassing Asynchronizing Cost-varying
//! selective-data-Keeping — the offline near-optimal policy.

use uopcache_model::hash::FastHashMap;
use uopcache_model::{Addr, LookupTrace, UopCacheConfig, UopCacheStats};
use uopcache_offline::foo::{self, FooConfig, FooSolution, IntervalMode, Objective};
use uopcache_offline::replay::{self, EvictionTiming};

/// The FLACK offline policy, with per-feature switches for the Fig. 10
/// ablation study.
///
/// Feature mapping onto the solver/replay machinery:
///
/// | feature | off | on |
/// |---|---|---|
/// | `asynchrony` (A) | eager eviction (raw FOO) | lazy, insertion-time eviction |
/// | `variable_cost` (VC) | object-hit-ratio benefit | `cost/size` benefit |
/// | `selective_bypass` (SB) | exact-window intervals | coverage intervals (partial hits, keep-larger) |
///
/// # Examples
///
/// ```
/// use uopcache_core::Flack;
/// use uopcache_model::UopCacheConfig;
/// use uopcache_trace::{build_trace, AppId, InputVariant};
///
/// let trace = build_trace(AppId::Postgres, InputVariant::default(), 5_000);
/// let outcome = Flack::new().run(&trace, &UopCacheConfig::zen3());
/// let foo_only = Flack::ablation(false, false, false).run(&trace, &UopCacheConfig::zen3());
/// assert!(outcome.stats.uops_missed <= foo_only.stats.uops_missed);
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct Flack {
    /// Lazy (insertion-time) eviction for asynchronous lookup/insertion.
    pub asynchrony: bool,
    /// Cost-aware benefit (`cost/size` per entry).
    pub variable_cost: bool,
    /// Coverage intervals enabling partial hits.
    pub selective_bypass: bool,
}

impl Flack {
    /// Full FLACK: all three features enabled.
    pub fn new() -> Self {
        Flack {
            asynchrony: true,
            variable_cost: true,
            selective_bypass: true,
        }
    }

    /// Raw FOO baseline / ablation points for Fig. 10
    /// (`ablation(false, false, false)` is FOO; `(true, false, false)` is A;
    /// `(true, true, false)` is A+VC; `(true, true, true)` is FLACK).
    pub fn ablation(asynchrony: bool, variable_cost: bool, selective_bypass: bool) -> Self {
        Flack {
            asynchrony,
            variable_cost,
            selective_bypass,
        }
    }

    /// Short label used in figures.
    pub fn label(&self) -> &'static str {
        match (self.asynchrony, self.variable_cost, self.selective_bypass) {
            (false, false, false) => "FOO",
            (true, false, false) => "A",
            (true, true, false) => "A+VC",
            (true, true, true) => "FLACK",
            _ => "FLACK-variant",
        }
    }

    /// The solver configuration this variant uses.
    pub fn foo_config(&self) -> FooConfig {
        FooConfig {
            objective: if self.variable_cost {
                Objective::CostAware
            } else {
                Objective::ObjectHitRatio
            },
            interval_mode: if self.selective_bypass {
                IntervalMode::Coverage
            } else {
                IntervalMode::ExactWindow
            },
            line_bytes: 64,
        }
    }

    /// The replay timing this variant uses.
    pub(crate) fn timing(&self) -> EvictionTiming {
        if self.asynchrony {
            EvictionTiming::Lazy
        } else {
            EvictionTiming::Eager
        }
    }

    /// Replays `solution` — a solve of `trace` under `cfg` with
    /// [`foo_config`](Self::foo_config) — with this variant's timing,
    /// optionally classifying misses: the statistics and the per-access
    /// observations `(start, hit_uops, total_uops)` (STEPs 4-5).
    pub fn replay(
        &self,
        trace: &LookupTrace,
        cfg: &UopCacheConfig,
        solution: &FooSolution,
        classify_misses: bool,
    ) -> (UopCacheStats, Vec<(Addr, u32, u32)>) {
        replay::replay_full(trace, cfg, solution, self.timing(), classify_misses)
    }

    /// Solves and replays the trace, returning the decisions, the achieved
    /// statistics and the per-start hit-rate profile (STEPs 3-5 of the
    /// FURBYS pipeline).
    pub fn run(&self, trace: &LookupTrace, cfg: &UopCacheConfig) -> FlackOutcome {
        let solution = foo::solve(trace, cfg, &self.foo_config());
        let (stats, obs) = self.replay(trace, cfg, &solution, false);
        let hit_rates = uopcache_policies::profile::hit_rates_from_observations(obs);
        FlackOutcome {
            solution,
            stats,
            hit_rates,
        }
    }
}

impl Default for Flack {
    fn default() -> Self {
        Self::new()
    }
}

/// Everything a FLACK run produces.
#[derive(Clone, Debug)]
pub struct FlackOutcome {
    /// The keep/evict schedule from the flow solve.
    pub solution: FooSolution,
    /// Statistics of the replay through the set-associative cache.
    pub stats: UopCacheStats,
    /// Micro-op-weighted hit rate per start address under FLACK's decisions.
    pub hit_rates: FastHashMap<Addr, f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use uopcache_cache::{LruPolicy, UopCache};
    use uopcache_offline::BeladyPolicy;
    use uopcache_policies::run_trace;
    use uopcache_trace::{build_trace, AppId, InputVariant};

    fn cfg() -> UopCacheConfig {
        UopCacheConfig::zen3()
    }

    #[test]
    fn labels() {
        assert_eq!(Flack::new().label(), "FLACK");
        assert_eq!(Flack::ablation(false, false, false).label(), "FOO");
        assert_eq!(Flack::ablation(true, false, false).label(), "A");
        assert_eq!(Flack::ablation(true, true, false).label(), "A+VC");
    }

    #[test]
    fn each_feature_helps_or_is_neutral_on_average() {
        // Accumulate missed uops across a few apps; features must not hurt in
        // aggregate (the paper's Fig. 10 shows monotone improvement).
        let apps = [AppId::Kafka, AppId::Postgres, AppId::Python];
        let variants = [
            Flack::ablation(false, false, false),
            Flack::ablation(true, false, false),
            Flack::ablation(true, true, false),
            Flack::new(),
        ];
        let mut missed = [0u64; 4];
        for app in apps {
            let t = build_trace(app, InputVariant(0), 12_000);
            for (i, v) in variants.iter().enumerate() {
                missed[i] += v.run(&t, &cfg()).stats.uops_missed;
            }
        }
        assert!(missed[1] <= missed[0], "A should help: {missed:?}");
        assert!(missed[2] <= missed[1], "VC should help: {missed:?}");
        assert!(missed[3] <= missed[2], "SB should help: {missed:?}");
    }

    #[test]
    fn flack_beats_belady_in_aggregate() {
        let apps = [AppId::Kafka, AppId::Postgres, AppId::Tomcat];
        let mut flack_missed = 0u64;
        let mut belady_missed = 0u64;
        for app in apps {
            let t = build_trace(app, InputVariant(0), 15_000);
            flack_missed += Flack::new().run(&t, &cfg()).stats.uops_missed;
            let mut bel = UopCache::new(cfg(), Box::new(BeladyPolicy::from_trace(&t)));
            belady_missed += run_trace(&mut bel, &t).uops_missed;
        }
        assert!(
            flack_missed < belady_missed,
            "FLACK {flack_missed} should beat Belady {belady_missed}"
        );
    }

    #[test]
    fn flack_beats_lru_substantially() {
        let t = build_trace(AppId::Mysql, InputVariant(0), 20_000);
        let mut lru = UopCache::new(cfg(), Box::new(LruPolicy::new()));
        let lru_stats = run_trace(&mut lru, &t);
        let flack = Flack::new().run(&t, &cfg());
        let reduction = flack.stats.miss_reduction_vs(&lru_stats);
        assert!(reduction > 10.0, "got {reduction:.2}%");
    }

    #[test]
    fn hit_rates_are_probabilities() {
        let t = build_trace(AppId::Drupal, InputVariant(0), 8_000);
        let out = Flack::new().run(&t, &cfg());
        assert!(!out.hit_rates.is_empty());
        assert!(out.hit_rates.values().all(|&r| (0.0..=1.0).contains(&r)));
    }
}
