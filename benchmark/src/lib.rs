//! End-to-end and per-layer benchmark of the uopcache workspace.
//!
//! Four workloads drive the library's public entry points the way users do:
//! two sweeps (`run_sweep` + `SweepReport::to_json` in a fresh process per
//! repetition, as the CLI runs them) and two closed-loop serving mixes (the
//! `Server` daemon, and a `Router` in front of two daemons). Every workload
//! checks its outputs and reports the same end-to-end metrics; a separate
//! traced run re-runs one unit of the workload on one thread through the
//! layers' public calls, timing each call from outside, and reports the
//! per-layer metrics. Nothing inside the library is instrumented.
//!
//! See `README.md` beside this crate for the workloads, the metric glossary
//! and the recorded baseline.

mod host;
mod layers;
pub mod serve;
mod stats;
pub mod sweep;

use std::path::Path;
use std::time::Duration;
use uopcache_model::json::Json;

/// Set-ups timed per untraced run; `setup_s` is their median. Set-up takes
/// about a millisecond and jitters with scheduling, so one sample per run
/// would not be steady.
const SETUP_TRIALS: usize = 50;

/// The end-to-end metrics every workload reports with tracing off:
/// `(name, unit)`.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_p50_ms", "ms"),
    ("cpu_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every workload reports from its traced run:
/// `(name, unit)`. Layers that only some workloads call are reported as
/// shares or counts, so a workload that never calls them reads 0.
const PER_LAYER: [(&str, &str); 36] = [
    ("trace.build_ms", "ms"),
    ("trace.accesses", "count"),
    ("policies.lru_profile_ms", "ms"),
    ("core.profile_ms", "ms"),
    ("core.train_accesses", "count"),
    ("offline.foo_solve_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.lookups", "count"),
    ("sim.ns_per_lookup", "ns"),
    ("model.json_encode_ms", "ms"),
    ("model.json_parse_ms", "ms"),
    ("model.json_bytes", "B"),
    ("exec.speedup", "x"),
    ("unattributed_ms", "ms"),
    ("trace_overhead_pct", "%"),
    ("sample.plan_pct", "%"),
    ("sample.fingerprint_pct", "%"),
    ("sample.cluster_pct", "%"),
    ("sample.representative_pct", "%"),
    ("sample.intervals", "count"),
    ("sample.k", "count"),
    ("sample.segments", "count"),
    ("sample.measured_share", "ratio"),
    ("sample.err_max_pp", "pp"),
    ("sample.bound_violations", "count"),
    ("serve.queue_wait_pct", "%"),
    ("serve.run_pct", "%"),
    ("serve.router.hop_pct", "%"),
    ("serve.overhead_pct", "%"),
    ("serve.protocol_pct", "%"),
    ("serve.tail_ratio", "x"),
    ("serve.dedup_ratio", "x"),
    ("serve.jobs_deduped", "count"),
    ("serve.placement_share_max", "ratio"),
    ("serve.router.spilled", "count"),
    ("serve.router.backend_errors", "count"),
];

/// One named workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 11 apps × all 17 policies, zen3, full simulation.
    SweepFull,
    /// kafka + postgres × the 7 online policies on 100×-scaled traces,
    /// representative-interval sampling.
    SweepSampled,
    /// Two closed-loop clients against one two-shard daemon.
    ServeMixed,
    /// The same request stream through a router in front of two daemons.
    RouteMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SweepFull,
        Workload::SweepSampled,
        Workload::ServeMixed,
        Workload::RouteMixed,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepFull => "sweep-full",
            Workload::SweepSampled => "sweep-sampled",
            Workload::ServeMixed => "serve-mixed",
            Workload::RouteMixed => "route-mixed",
        }
    }

    /// Resolves a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs the workload at its standard size. `exe` is the benchmark
    /// binary, spawned for the child processes the workload runs in.
    ///
    /// # Errors
    ///
    /// A child process that cannot be started or dies; a failed check is
    /// not an error but part of the [`Outcome`].
    pub fn run(
        self,
        seed: u64,
        seconds: Duration,
        traced: bool,
        exe: &Path,
    ) -> std::io::Result<Outcome> {
        match self {
            Workload::SweepFull => sweep::run(&sweep::full_template(), seed, seconds, traced, exe),
            Workload::SweepSampled => {
                sweep::run(&sweep::sampled_template(), seed, seconds, traced, exe)
            }
            Workload::ServeMixed => {
                serve::run(false, &serve::Shape::STANDARD, seed, seconds, traced, exe)
            }
            Workload::RouteMixed => {
                serve::run(true, &serve::Shape::STANDARD, seed, seconds, traced, exe)
            }
        }
    }
}

/// One reported metric value.
#[derive(Debug)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// How many samples the value summarises (0 when the workload does not
    /// call the layer).
    pub samples: usize,
}

/// The full metric set of one run, in table order; every metric starts at
/// 0 with no samples.
#[derive(Debug)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// The metric set for tracing off (`false`) or on (`true`).
    pub(crate) fn new(traced: bool) -> Metrics {
        let table: &[(&'static str, &'static str)] = if traced { &PER_LAYER } else { &END_TO_END };
        Metrics(
            table
                .iter()
                .map(|&(name, unit)| Metric {
                    name,
                    unit,
                    value: 0.0,
                    samples: 0,
                })
                .collect(),
        )
    }

    /// Records a value.
    ///
    /// # Panics
    ///
    /// On a name outside the table: the tables are the benchmark's
    /// interface, so an unlisted name is a bug here.
    pub(crate) fn set(&mut self, name: &str, value: f64, samples: usize) {
        let m = self
            .0
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the table"));
        m.value = value;
        m.samples = samples;
    }

    /// The metrics, in table order.
    pub fn all(&self) -> &[Metric] {
        &self.0
    }
}

/// The result of one workload run.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted (sweep cells over all repetitions, or requests).
    pub attempted: u64,
    /// Operations that failed, were refused, or whose output failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Human-readable context: worker count, sample counts, digests.
    pub notes: Vec<String>,
    /// The reported metrics.
    pub metrics: Metrics,
}

impl Outcome {
    /// Whether every operation succeeded and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The one-line result document.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .all()
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::Obj(vec![
                        ("value".to_string(), Json::F64(m.value)),
                        ("unit".to_string(), Json::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), Json::U64(self.attempted)),
            ("failed".to_string(), Json::U64(self.failed)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
    }
}
