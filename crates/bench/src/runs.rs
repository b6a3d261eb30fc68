//! Memoised simulation runs shared by the experiment drivers.

use crate::apps::{trace_for, TRACE_LEN};
use crate::policies::{PolicyId, ProfileInputs};
use crate::sweep::{self, config_label, SweepSpec};
use uopcache_cache::UopCache;
use uopcache_core::Flack;
use uopcache_model::hash::FastHashMap;
use uopcache_model::{FrontendConfig, LookupTrace, SimResult, UopCacheStats};
use uopcache_offline::BeladyPolicy;
use uopcache_policies::run_trace;
use uopcache_sim::{Frontend, SimOptions};
use uopcache_trace::AppId;

/// A lab session: one frontend configuration, cached traces, profiles and
/// runs. Experiment drivers create one `Lab` and query it.
///
/// Methodology note: **online** policies run through the timed frontend
/// simulator (asynchronous insertion, L1i inclusion, switch penalties);
/// **offline** oracles (Belady, FOO, FLACK) are idealized bounds and run
/// through the synchronous placement replay, with a synchronous LRU baseline
/// for their miss-reduction figures — mirroring the paper's use of perfect
/// setups for the offline bound studies.
pub struct Lab {
    /// The frontend configuration under test.
    pub cfg: FrontendConfig,
    /// Trace length per app.
    pub len: usize,
    traces: FastHashMap<(AppId, u32), LookupTrace>,
    profiles: FastHashMap<(AppId, u32), ProfileInputs>,
    online: FastHashMap<(AppId, u32, PolicyId), SimResult>,
    sim_opts: SimOptions,
}

impl Lab {
    /// Creates a lab for `cfg` with the default trace length.
    pub fn new(cfg: FrontendConfig) -> Self {
        Self::with_len(cfg, TRACE_LEN)
    }

    /// Creates a lab with an explicit trace length (sensitivity sweeps use
    /// shorter traces to bound runtime).
    pub fn with_len(cfg: FrontendConfig, len: usize) -> Self {
        Lab {
            cfg,
            len,
            traces: FastHashMap::default(),
            profiles: FastHashMap::default(),
            online: FastHashMap::default(),
            sim_opts: SimOptions::default(),
        }
    }

    /// Enables 3C miss classification on subsequent online runs.
    pub fn classify_misses(&mut self, on: bool) {
        self.sim_opts.classify_misses = on;
    }

    /// The (cached) trace for an app and input variant.
    pub fn trace(&mut self, app: AppId, variant: u32) -> &LookupTrace {
        let len = self.len;
        self.traces
            .entry((app, variant))
            .or_insert_with(|| trace_for(app, variant, len))
    }

    /// The (cached) profile inputs for an app/variant (profiled on that same
    /// variant's trace).
    pub fn profiles(&mut self, app: AppId, variant: u32) -> &ProfileInputs {
        if !self.profiles.contains_key(&(app, variant)) {
            let trace = self.trace(app, variant).clone();
            let inputs = ProfileInputs::build(&self.cfg, &trace);
            self.profiles.insert((app, variant), inputs);
        }
        &self.profiles[&(app, variant)]
    }

    /// Pre-computes every missing `(app, policy)` online run for input
    /// variant 0 in parallel, through the sweep path of
    /// [`run_sweep`](crate::sweep::run_sweep) with this lab's simulation
    /// options, so subsequent serial queries hit the memo. Cells already
    /// memoised are skipped. Results are bit-identical to
    /// [`run_online`](Self::run_online): both key and seed a cell by the
    /// same [`SweepSpec`], and each cell is a pure function of its key.
    ///
    /// # Panics
    ///
    /// Panics with the full list of structured task failures if any task
    /// panicked (the experiment cannot render from partial results).
    pub fn prewarm_online(&mut self, policies: &[PolicyId], apps: &[AppId]) {
        let memo = &self.online;
        let missing = |app: AppId, policy: PolicyId| !memo.contains_key(&(app, 0, policy));
        let apps = apps
            .iter()
            .copied()
            .filter(|&a| policies.iter().any(|&p| missing(a, p)))
            .collect();
        let spec = self.spec(0, apps, policies);
        let (report, prepared) =
            sweep::sweep_with(&spec, &sweep::engine(), self.sim_opts, |app, policy| {
                policy.parse().is_ok_and(|p| !missing(app, p))
            });
        let failures: Vec<String> = report.failures.iter().map(ToString::to_string).collect();
        assert!(
            failures.is_empty(),
            "prewarm simulation: {} task(s) failed:\n{}",
            failures.len(),
            failures.join("\n")
        );
        for (app, prep) in prepared {
            self.traces.entry((app, 0)).or_insert(prep.trace);
            self.profiles.entry((app, 0)).or_insert(prep.profiles);
        }
        for cell in report.cells {
            let policy = cell
                .policy
                .parse()
                .expect("prewarm cells carry registered policy names");
            self.online.insert((cell.app, 0, policy), cell.result);
        }
    }

    /// The sweep spec whose task keys (and so seeds) name this lab's cells.
    fn spec(&self, variant: u32, apps: Vec<AppId>, policies: &[PolicyId]) -> SweepSpec {
        SweepSpec {
            cfg: self.cfg,
            config_name: config_label(&self.cfg),
            apps,
            policies: policies.iter().map(|p| p.name().to_string()).collect(),
            variant,
            len: self.len,
            metrics: false,
            sample: None,
            scale: 1,
        }
    }

    /// Runs (and caches) an online policy through the timed frontend. A
    /// randomized policy ([`PolicyId::Random`]) is seeded from the same task
    /// key the parallel prewarm uses, so cold and prewarmed queries agree
    /// exactly.
    pub fn run_online(&mut self, policy: PolicyId, app: AppId, variant: u32) -> SimResult {
        let key = (app, variant, policy);
        if let Some(r) = self.online.get(&key) {
            return *r;
        }
        self.profiles(app, variant);
        let trace = self.traces[&(app, variant)].clone();
        let profiles = &self.profiles[&(app, variant)];
        let seed = self
            .spec(variant, Vec::new(), &[])
            .task_key(app, policy.name())
            .seed();
        let policy_box = policy.build(&self.cfg, profiles, seed);
        let mut frontend = Frontend::builder(self.cfg)
            .policy(policy_box)
            .options(self.sim_opts)
            .build();
        let result = frontend.run(&trace);
        self.online.insert(key, result);
        result
    }

    /// Miss reduction of an online policy vs. the online LRU baseline, in
    /// percent.
    pub fn online_miss_reduction(&mut self, policy: PolicyId, app: AppId) -> f64 {
        let lru = self.run_online(PolicyId::Lru, app, 0);
        let r = self.run_online(policy, app, 0);
        r.uopc.miss_reduction_vs(&lru.uopc)
    }

    /// Runs an offline FLACK variant (synchronous replay) on an app.
    pub fn run_offline(&mut self, variant: Flack, app: AppId) -> UopCacheStats {
        let trace = self.trace(app, 0).clone();
        variant.run(&trace, &self.cfg.uop_cache).stats
    }

    /// Runs Belady (synchronous) on an app.
    pub fn run_belady(&mut self, app: AppId) -> UopCacheStats {
        let trace = self.trace(app, 0).clone();
        let mut cache = UopCache::new(
            self.cfg.uop_cache,
            Box::new(BeladyPolicy::from_trace(&trace)),
        );
        run_trace(&mut cache, &trace)
    }

    /// Synchronous LRU baseline for the offline-bound comparisons.
    pub fn run_sync_lru(&mut self, app: AppId) -> UopCacheStats {
        let trace = self.trace(app, 0).clone();
        let mut cache = UopCache::new(
            self.cfg.uop_cache,
            Box::new(uopcache_cache::LruPolicy::new()),
        );
        run_trace(&mut cache, &trace)
    }

    /// Miss reduction of an offline variant vs. the synchronous LRU baseline.
    pub fn offline_miss_reduction(&mut self, variant: Flack, app: AppId) -> f64 {
        let lru = self.run_sync_lru(app);
        let s = self.run_offline(variant, app);
        s.miss_reduction_vs(&lru)
    }
}

/// Arithmetic mean helper for per-app series.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caches_are_reused() {
        let mut lab = Lab::with_len(FrontendConfig::zen3(), 2_000);
        let a = lab.run_online(PolicyId::Lru, AppId::Kafka, 0);
        let b = lab.run_online(PolicyId::Lru, AppId::Kafka, 0);
        assert_eq!(a, b);
    }

    #[test]
    #[expect(clippy::float_cmp, reason = "the empty mean is exactly 0.0")]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
    }
}
