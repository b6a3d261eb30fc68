//! The traced serial replica: one unit of a workload's work re-run on one
//! thread through the layers' public calls, in the order `run_sweep` makes
//! them, with every call timed from outside.
//!
//! Per app: `trace_for_scaled` → `lru_pw_hit_rates` →
//! `FurbysPipeline::profile` → per policy `PolicyId::build` +
//! `Frontend::run`. A sampled spec first builds a `SamplePlan` and its
//! `representative_trace`, which the profiles train on, and runs
//! `simulate_interval` per segment instead of `Frontend::run`. The replica
//! checks that it rebuilt exactly the cells of an untraced report of the
//! same spec.

use crate::Metrics;
use std::collections::BTreeMap;
use std::time::Instant;
use uopcache_bench::apps::trace_for_scaled;
use uopcache_bench::policies::{PolicyId, ProfileInputs};
use uopcache_bench::sweep::{SweepReport, SweepSpec};
use uopcache_core::{Flack, FurbysPipeline};
use uopcache_model::json::Json;
use uopcache_model::LookupTrace;
use uopcache_policies::profile::lru_pw_hit_rates;
use uopcache_sample::{
    choose_k, fingerprint_intervals, simulate_interval, SampleConfig, SamplePlan,
};
use uopcache_sim::{Frontend, SimOptions};

/// Layers whose busy times add up, with `unattributed_ms`, to the traced
/// wall time.
const SUMMED: [&str; 7] = [
    "trace.build",
    "sample.plan",
    "sample.representative",
    "policies.lru_profile",
    "core.profile",
    "sim.run",
    "model.json_encode",
];

/// Per-layer busy times and counts of one or more replicated specs.
#[derive(Debug, Default)]
pub struct Replica {
    /// Busy ms per layer on the replicated path (see [`SUMMED`]).
    pub busy: BTreeMap<&'static str, f64>,
    /// Ms of separate calls on the same inputs: breakdowns of a summed
    /// layer (`offline.foo_solve` inside `core.profile`,
    /// `sample.fingerprint` and `sample.cluster` inside `sample.plan`) and
    /// `model.json_parse`, which a sweep does not call. Excluded from the
    /// wall time.
    pub extra: BTreeMap<&'static str, f64>,
    /// Wall ms of the replicated path.
    pub wall_ms: f64,
    /// Trace accesses built.
    pub accesses: u64,
    /// Accesses the profiles trained on.
    pub train_accesses: u64,
    /// Lookups simulated, functional warmup included.
    pub lookups: u64,
    /// Lookups simulated and measured.
    pub measured_lookups: u64,
    /// Sampled apps, with their interval, cluster and segment totals.
    pub sampled_apps: u64,
    /// Intervals cut over all sampled apps.
    pub intervals: u64,
    /// Clusters over all sampled apps.
    pub clusters: u64,
    /// Segments simulated (sample points and probes, over all policies).
    pub segments: u64,
    /// Bytes of canonical report JSON encoded.
    pub json_bytes: u64,
    /// Cells or plans that differ from the untraced report.
    pub mismatches: Vec<String>,
}

fn timed<R>(
    acc: &mut BTreeMap<&'static str, f64>,
    layer: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    let start = Instant::now();
    let out = f();
    *acc.entry(layer).or_default() += start.elapsed().as_secs_f64() * 1e3;
    out
}

/// Re-runs `spec` serially, layer by layer, and checks the result against
/// `report`, an untraced `run_sweep` of the same spec.
pub fn replicate(spec: &SweepSpec, report: &SweepReport) -> Replica {
    let cfg = spec.cfg;
    let mut r = Replica::default();
    let start = Instant::now();
    for &app in &spec.apps {
        let trace = timed(&mut r.busy, "trace.build", || {
            trace_for_scaled(app, spec.variant, spec.len, spec.scale)
        });
        r.accesses += trace.len() as u64;
        let plan = spec.sample.map(|interval| {
            // The engine seeds each app's preparation task from its key,
            // which is a cell key whose policy segment reads "prepare".
            let seed = spec.task_key(app, "prepare").seed();
            let config = SampleConfig::new(interval, seed);
            let plan = timed(&mut r.busy, "sample.plan", || {
                SamplePlan::build(&trace, &config)
            });
            let (_, vectors) = timed(&mut r.extra, "sample.fingerprint", || {
                fingerprint_intervals(&trace, interval, config.dim, seed)
            });
            timed(&mut r.extra, "sample.cluster", || {
                choose_k(&vectors, config.max_k, seed, config.kmeans_iters)
            });
            r.sampled_apps += 1;
            r.intervals += plan.intervals.len() as u64;
            r.clusters += plan.k as u64;
            plan
        });
        let representative;
        let train: &LookupTrace = match &plan {
            Some(plan) => {
                representative = timed(&mut r.busy, "sample.representative", || {
                    plan.representative_trace(&trace)
                });
                &representative
            }
            None => &trace,
        };
        r.train_accesses += train.len() as u64;
        let lru_rates = timed(&mut r.busy, "policies.lru_profile", || {
            lru_pw_hit_rates(train, cfg.uop_cache)
        });
        let furbys = timed(&mut r.busy, "core.profile", || {
            FurbysPipeline::new(cfg).profile(train)
        });
        timed(&mut r.extra, "offline.foo_solve", || {
            uopcache_offline::foo::solve(train, &cfg.uop_cache, &Flack::new().foo_config())
        });
        let profiles = ProfileInputs { lru_rates, furbys };

        for policy in &spec.policies {
            let key = spec.task_key(app, policy);
            let id = policy
                .parse::<PolicyId>()
                .expect("benchmark specs name registered policies");
            let Some(cell) = report.cells.iter().find(|c| c.key == key) else {
                r.mismatches
                    .push(format!("{key}: missing from the untraced report"));
                continue;
            };
            match &plan {
                None => {
                    let result = timed(&mut r.busy, "sim.run", || {
                        Frontend::builder(cfg)
                            .policy(id.build(&cfg, &profiles, key.seed()))
                            .options(SimOptions::default())
                            .build()
                            .run(&trace)
                    });
                    r.lookups += trace.len() as u64;
                    r.measured_lookups += trace.len() as u64;
                    if result != cell.result {
                        r.mismatches.push(format!("{key}: SimResult differs"));
                    }
                }
                Some(plan) => {
                    for cluster in &plan.clusters {
                        for member in cluster.points.iter().copied().chain(cluster.probe) {
                            let warmup = plan.warmup_range(member);
                            let measure = plan.intervals[member].range();
                            r.lookups += (warmup.len() + measure.len()) as u64;
                            r.measured_lookups += measure.len() as u64;
                            r.segments += 1;
                            timed(&mut r.busy, "sim.run", || {
                                simulate_interval(
                                    &cfg,
                                    id.build(&cfg, &profiles, key.seed()),
                                    &trace,
                                    warmup,
                                    measure,
                                )
                            });
                        }
                    }
                    let same = cell.sampled.as_ref().is_some_and(|s| {
                        s.k == plan.k
                            && s.intervals == plan.intervals.len()
                            && s.weights == plan.weights()
                    }) && cell.trace_uops == plan.total_uops;
                    if !same {
                        r.mismatches
                            .push(format!("{key}: k, intervals, weights or trace_uops differ"));
                    }
                }
            }
        }
    }
    let json = timed(&mut r.busy, "model.json_encode", || report.to_json());
    r.json_bytes = json.len() as u64;
    if timed(&mut r.extra, "model.json_parse", || Json::parse(&json)).is_err() {
        r.mismatches.push("report JSON does not parse".to_string());
    }
    r.wall_ms = start.elapsed().as_secs_f64() * 1e3 - r.extra.values().sum::<f64>();
    r
}

impl Replica {
    /// Adds another replica's times and counts into this one.
    pub fn merge(&mut self, other: Replica) {
        for (k, v) in other.busy {
            *self.busy.entry(k).or_default() += v;
        }
        for (k, v) in other.extra {
            *self.extra.entry(k).or_default() += v;
        }
        self.wall_ms += other.wall_ms;
        self.accesses += other.accesses;
        self.train_accesses += other.train_accesses;
        self.lookups += other.lookups;
        self.measured_lookups += other.measured_lookups;
        self.sampled_apps += other.sampled_apps;
        self.intervals += other.intervals;
        self.clusters += other.clusters;
        self.segments += other.segments;
        self.json_bytes += other.json_bytes;
        self.mismatches.extend(other.mismatches);
    }

    fn busy(&self, layer: &str) -> f64 {
        self.busy.get(layer).copied().unwrap_or(0.0)
    }

    fn extra(&self, layer: &str) -> f64 {
        self.extra.get(layer).copied().unwrap_or(0.0)
    }

    /// Sets the trace, profile, simulation, model and sampling metrics.
    /// `untraced_ms` is the wall time of the same specs through
    /// `run_sweep` on a one-worker engine plus `to_json`; `speedup` is the
    /// workload's measured parallel speed-up.
    pub fn set_metrics(&self, m: &mut Metrics, untraced_ms: f64, speedup: f64) {
        let n = usize::try_from(self.accesses).unwrap_or(usize::MAX);
        m.set("trace.build_ms", self.busy("trace.build"), n);
        m.set("trace.accesses", self.accesses as f64, 1);
        m.set(
            "policies.lru_profile_ms",
            self.busy("policies.lru_profile"),
            n,
        );
        m.set("core.profile_ms", self.busy("core.profile"), n);
        m.set("core.train_accesses", self.train_accesses as f64, 1);
        m.set("offline.foo_solve_ms", self.extra("offline.foo_solve"), n);
        let lookups = usize::try_from(self.lookups).unwrap_or(usize::MAX);
        m.set("sim.run_ms", self.busy("sim.run"), lookups);
        m.set("sim.lookups", self.lookups as f64, 1);
        m.set(
            "sim.ns_per_lookup",
            self.busy("sim.run") * 1e6 / self.lookups.max(1) as f64,
            lookups,
        );
        m.set("model.json_encode_ms", self.busy("model.json_encode"), 1);
        m.set("model.json_parse_ms", self.extra("model.json_parse"), 1);
        m.set("model.json_bytes", self.json_bytes as f64, 1);
        m.set("exec.speedup", speedup, 1);
        let summed: f64 = SUMMED.iter().map(|l| self.busy(l)).sum();
        m.set("unattributed_ms", self.wall_ms - summed, 1);
        m.set(
            "trace_overhead_pct",
            (self.wall_ms - untraced_ms) / untraced_ms.max(f64::MIN_POSITIVE) * 100.0,
            1,
        );
        let share = |ms: f64| ms / self.wall_ms.max(f64::MIN_POSITIVE) * 100.0;
        let apps = usize::try_from(self.sampled_apps).unwrap_or(usize::MAX);
        m.set("sample.plan_pct", share(self.busy("sample.plan")), apps);
        m.set(
            "sample.fingerprint_pct",
            share(self.extra("sample.fingerprint")),
            apps,
        );
        m.set(
            "sample.cluster_pct",
            share(self.extra("sample.cluster")),
            apps,
        );
        m.set(
            "sample.representative_pct",
            share(self.busy("sample.representative")),
            apps,
        );
        m.set("sample.intervals", self.intervals as f64, apps);
        m.set(
            "sample.k",
            self.clusters as f64 / self.sampled_apps.max(1) as f64,
            apps,
        );
        m.set("sample.segments", self.segments as f64, 1);
        m.set(
            "sample.measured_share",
            self.measured_lookups as f64 / self.lookups.max(1) as f64,
            lookups,
        );
    }
}
