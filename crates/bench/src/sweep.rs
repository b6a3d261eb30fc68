//! The parallel sweep layer: a process-wide worker-count knob, canonical
//! task keying, and a deterministic `(app × policy)` sweep whose merged
//! report renders to canonical JSON.
//!
//! Determinism contract (inherited from `uopcache-exec` and extended here):
//! every task is a pure function of its [`TaskKey`] — config label, input
//! variant, trace length, app and policy — and any randomness comes from the
//! key-derived seed. Reports merge cells in **key order**, never completion
//! order, and [`SweepReport::to_json`] renders fields in a fixed order with
//! derived metrics rounded to six decimals. The JSON is therefore
//! byte-identical for every `--jobs` value.

use crate::apps::trace_for_scaled;
use crate::policies::{PolicyId, ProfileInputs};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use uopcache_cache::PwReplacementPolicy;
use uopcache_core::FurbysPipeline;
use uopcache_exec::{Engine, TaskFailure, TaskKey, TaskProfile};
use uopcache_model::json::Json;
use uopcache_model::{
    CacheStats, EventCounts, FrontendConfig, LookupTrace, SimResult, UopCacheStats,
};
use uopcache_obs::{Event, MetricsRecorder, MetricsRegistry, SamplingRecorder};
use uopcache_sample::{interval_stream, simulate_interval_with, SampleConfig, SamplePlan};
use uopcache_sim::{BranchStream, Frontend, SimOptions};
use uopcache_trace::AppId;

/// The canonical-JSON schema version stamped on every report this crate
/// renders ([`SweepReport::to_json`], the CLI's `inspect`). Bump it whenever
/// a field is added, removed or re-ordered so downstream tooling can detect
/// incompatible output.
pub const SCHEMA_VERSION: u64 = 1;

/// The sampling period of `--metrics` sweeps: each cell retains roughly one
/// event in this many, chosen by the task-key-derived seed (see
/// [`uopcache_obs::SamplingRecorder`]), so the retained subset is a pure
/// function of the task.
pub const SAMPLE_EVERY: u64 = 64;

/// The process-wide worker count. `0` means "not set": fall back to the
/// `UOPCACHE_JOBS` environment variable, then to the machine's available
/// parallelism.
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide worker count (the `--jobs N` flag). `1` reproduces
/// the serial path exactly; `0` resets to the default resolution order.
pub fn set_jobs(jobs: usize) {
    JOBS.store(jobs, Ordering::SeqCst);
}

/// The effective worker count: the value of [`set_jobs`] if set, else
/// `UOPCACHE_JOBS` if set to a positive integer, else the machine's
/// available parallelism.
pub fn current_jobs() -> usize {
    match JOBS.load(Ordering::SeqCst) {
        0 => std::env::var("UOPCACHE_JOBS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(Engine::default_parallelism),
        n => n,
    }
}

/// An engine sized by [`current_jobs`].
pub fn engine() -> Engine {
    Engine::new(current_jobs())
}

/// A short label identifying a frontend configuration in task keys,
/// e.g. `uopc4096x8`.
pub fn config_label(cfg: &FrontendConfig) -> String {
    format!("uopc{}x{}", cfg.uop_cache.entries, cfg.uop_cache.ways)
}

/// The most accesses per app (`len × scale`) that [`SweepSpec::from_json`]
/// accepts: 10^8, ten times the `len 100000 --scale 100` sweep. A served
/// spec beyond it is refused before any trace is built; building it would
/// need about 1.6 GB per app (16-byte lookup records) and could abort the
/// daemon on allocation.
pub const MAX_SPEC_ACCESSES: u64 = 100_000_000;

/// The most micro-op cache sets a spec's `entries`/`ways` geometry may
/// name in [`SweepSpec::from_json`]: 8 192, sixteen times the 512 sets of
/// the largest geometry the experiments use (4 096 entries, 8 ways) and
/// twice that geometry direct-mapped. With at most 64 ways a cache then
/// holds at most 2^19 entries, so a hostile geometry cannot ask the daemon
/// for an allocation it would abort on.
pub const MAX_SPEC_SETS: u32 = 8_192;

/// One `(app × policy)` sweep request.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// The frontend configuration under test.
    pub cfg: FrontendConfig,
    /// Human name for the configuration (used in task keys), e.g. `zen3`.
    pub config_name: String,
    /// Applications to sweep.
    pub apps: Vec<AppId>,
    /// Policy names to sweep; each must parse as a [`PolicyId`] (an unknown
    /// name becomes a structured per-cell failure, not a sweep abort).
    pub policies: Vec<String>,
    /// Input variant for trace generation.
    pub variant: u32,
    /// Trace length per app.
    pub len: usize,
    /// When set, every cell carries sampled events and a metrics registry
    /// (and the report gains merged totals and per-task profiles). Still
    /// byte-identical for every worker count.
    pub metrics: bool,
    /// Representative-interval sampling: when set, cut each trace into
    /// intervals of this many micro-ops, simulate only cluster
    /// representatives (plus dispersion probes) and reconstruct whole-trace
    /// metrics by cluster weight. Cells gain a `sampled` JSON object with
    /// the cluster count, interval count, weights and the reported error
    /// bound. `--metrics` recorders are not attached in sampled mode.
    pub sample: Option<u64>,
    /// Trace-length multiplier (epochs of phase-structured repetition with
    /// drift). `1` — the default — generates exactly the unscaled trace.
    pub scale: u64,
}

impl SweepSpec {
    /// Renders the spec as canonical JSON — the wire form of a serving job.
    ///
    /// Only the fields that name simulation *work* are included (never the
    /// worker count), so the rendering doubles as the spec's identity: two
    /// specs with equal JSON produce byte-identical [`SweepReport`]s.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            vec![
                ("config".to_string(), Json::Str(self.config_name.clone())),
                (
                    "entries".to_string(),
                    Json::U64(u64::from(self.cfg.uop_cache.entries)),
                ),
                (
                    "ways".to_string(),
                    Json::U64(u64::from(self.cfg.uop_cache.ways)),
                ),
                (
                    "apps".to_string(),
                    Json::Arr(
                        self.apps
                            .iter()
                            .map(|a| Json::Str(a.name().to_string()))
                            .collect(),
                    ),
                ),
                (
                    "policies".to_string(),
                    Json::Arr(self.policies.iter().map(|p| Json::Str(p.clone())).collect()),
                ),
                ("variant".to_string(), Json::U64(u64::from(self.variant))),
                ("len".to_string(), Json::U64(self.len as u64)),
                ("metrics".to_string(), Json::Bool(self.metrics)),
            ]
            .into_iter()
            // Default-valued sampling fields are omitted so pre-sampling wire
            // forms (and their job ids) are byte-identical to before.
            .chain((self.scale > 1).then(|| ("scale".to_string(), Json::U64(self.scale))))
            .chain(self.sample.map(|s| ("sample".to_string(), Json::U64(s))))
            .collect(),
        )
    }

    /// Reconstructs a spec from the wire form produced by
    /// [`to_json`](Self::to_json) — the job → sweep-cell mapping the serving
    /// layer uses. `config` must name a known base configuration (`zen3` or
    /// `zen4`); `entries`/`ways` default to that base when absent; `apps`
    /// must name Table II applications; `policies` are resolved against the
    /// full roster (case-insensitively) to their canonical names, so a
    /// served job keys its tasks exactly like the offline `sweep` CLI.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or unresolvable field, the
    /// sizes when `len × scale` exceeds [`MAX_SPEC_ACCESSES`], or the
    /// geometry when `ways` is outside 1..=64, `entries` is not a positive
    /// multiple of `ways`, or the set count exceeds [`MAX_SPEC_SETS`].
    pub fn from_json(j: &Json) -> Result<SweepSpec, String> {
        let text = |field: &str| -> Result<String, String> {
            j.field(field)
                .map_err(|e| e.to_string())?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("field {field:?} must be a string"))
        };
        let config_name = text("config")?;
        let mut cfg = match config_name.as_str() {
            "zen3" => FrontendConfig::zen3(),
            "zen4" => FrontendConfig::zen4(),
            other => return Err(format!("unknown config {other:?} (zen3 or zen4)")),
        };
        let geometry = |field: &str, default: u32| -> Result<u32, String> {
            match j.field(field) {
                Err(_) => Ok(default),
                Ok(v) => u32::try_from(
                    v.as_u64()
                        .ok_or_else(|| format!("field {field:?} must be an unsigned integer"))?,
                )
                .map_err(|_| format!("field {field:?} out of range")),
            }
        };
        let (entries, ways) = (
            geometry("entries", cfg.uop_cache.entries)?,
            geometry("ways", cfg.uop_cache.ways)?,
        );
        if !(1..=64).contains(&ways) {
            return Err(format!("ways {ways} outside 1..=64"));
        }
        if entries == 0 || !entries.is_multiple_of(ways) {
            return Err(format!(
                "entries {entries} is not a positive multiple of ways {ways}"
            ));
        }
        if entries / ways > MAX_SPEC_SETS {
            return Err(format!(
                "entries {entries} / ways {ways} exceeds {MAX_SPEC_SETS} sets"
            ));
        }
        cfg.uop_cache = cfg.uop_cache.with_entries(entries).with_ways(ways);
        let names = |field: &str| -> Result<Vec<String>, String> {
            j.field(field)
                .map_err(|e| e.to_string())?
                .as_arr()
                .ok_or_else(|| format!("field {field:?} must be an array"))?
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("field {field:?} must hold strings"))
                })
                .collect()
        };
        let apps = names("apps")?
            .iter()
            .map(|name| {
                AppId::ALL
                    .into_iter()
                    .find(|a| a.name() == name)
                    .ok_or_else(|| format!("unknown app {name:?}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        if apps.is_empty() {
            return Err("field \"apps\" must not be empty".to_string());
        }
        let registry = crate::policies::PolicyRegistry::all();
        let policies = names("policies")?
            .iter()
            .map(|p| registry.resolve(p).map(|id| id.name().to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        if policies.is_empty() {
            return Err("field \"policies\" must not be empty".to_string());
        }
        let uint = |field: &str, default: u64| -> Result<u64, String> {
            match j.field(field) {
                Err(_) => Ok(default),
                Ok(v) => v
                    .as_u64()
                    .ok_or_else(|| format!("field {field:?} must be an unsigned integer")),
            }
        };
        let variant = u32::try_from(uint("variant", 0)?)
            .map_err(|_| "field \"variant\" out of range".to_string())?;
        let len = usize::try_from(uint("len", 100_000)?)
            .map_err(|_| "field \"len\" out of range".to_string())?;
        let metrics = match j.field("metrics") {
            Err(_) => false,
            Ok(v) => v
                .as_bool()
                .ok_or_else(|| "field \"metrics\" must be a bool".to_string())?,
        };
        let scale = uint("scale", 1)?;
        if scale == 0 {
            return Err("field \"scale\" must be at least 1".to_string());
        }
        match (len as u64).checked_mul(scale) {
            Some(accesses) if accesses <= MAX_SPEC_ACCESSES => {}
            _ => {
                return Err(format!(
                    "len {len} x scale {scale} exceeds {MAX_SPEC_ACCESSES} accesses per app"
                ))
            }
        }
        let sample = match j.field("sample") {
            Err(_) => None,
            Ok(v) => {
                let s = v
                    .as_u64()
                    .ok_or_else(|| "field \"sample\" must be an unsigned integer".to_string())?;
                if s == 0 {
                    return Err("field \"sample\" must be a positive interval size".to_string());
                }
                Some(s)
            }
        };
        Ok(SweepSpec {
            cfg,
            config_name,
            apps,
            policies,
            variant,
            len,
            metrics,
            sample,
            scale,
        })
    }

    /// The key segment naming the trace length, e.g. `len100000` — or
    /// `len100000x100` for a scaled trace, so scaled sweeps never collide
    /// with (or perturb the seeds of) existing unscaled ones.
    fn len_segment(&self) -> String {
        if self.scale > 1 {
            format!("len{}x{}", self.len, self.scale)
        } else {
            format!("len{}", self.len)
        }
    }

    /// The key naming one `(app, policy)` simulation task of this sweep.
    /// The app's preparation task is keyed as the cell of policy `prepare`.
    pub fn task_key(&self, app: AppId, policy: &str) -> TaskKey {
        TaskKey::new([
            self.config_name.as_str(),
            &format!("v{}", self.variant),
            &self.len_segment(),
            app.name(),
            policy,
        ])
    }

    /// What the spec's profile-guided policies read of one app's `trace`
    /// (see [`ProfileInputs::solved`]); empty when no swept policy reads a
    /// profile, so such a spec runs no FLACK solve. A sampled app trains on
    /// its sample points only, keeping preparation O(k · interval) instead
    /// of O(trace).
    fn profile_inputs(&self, trace: &LookupTrace, plan: Option<&SamplePlan>) -> ProfileInputs {
        let ids: Vec<PolicyId> = (self.policies.iter())
            .filter_map(|p| p.parse().ok())
            .collect();
        if !ids.iter().any(|id| id.reads_profile()) {
            return ProfileInputs::default();
        }
        let train = plan.map(|plan| plan.representative_trace(trace));
        let pipeline = FurbysPipeline::new(self.cfg);
        ProfileInputs::solved(&pipeline, train.as_ref().unwrap_or(trace), None, &ids)
    }
}

/// Sampled observability captured for one cell when [`SweepSpec::metrics`]
/// is on.
#[derive(Clone, Debug)]
pub struct CellObs {
    /// The retained (1-in-[`SAMPLE_EVERY`]) event subset, oldest first.
    pub events: Vec<Event>,
    /// The metrics the cell's [`MetricsRecorder`] derived from the *full*
    /// event stream (sampling only thins the retained events).
    pub metrics: MetricsRegistry,
}

/// How a sampled cell was reconstructed: the clustering shape, the
/// reconstruction weights, and the reported error bound on the hit rate.
#[derive(Clone, Debug)]
pub struct SampledCell {
    /// Number of clusters (and therefore simulated representatives).
    pub k: usize,
    /// Number of fixed-uop intervals the trace was cut into.
    pub intervals: usize,
    /// Per-cluster reconstruction weights (micro-op shares; sum to 1).
    pub weights: Vec<f64>,
    /// Reported bound on `|sampled hit rate − full-simulation hit rate|`,
    /// from representative↔probe dispersion plus a fixed floor.
    pub est_error: f64,
}

/// One merged sweep cell: the stats of one `(app, policy)` run.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// The task key (`config/variant/len/app/policy`).
    pub key: TaskKey,
    /// The seed the task ran with (derived from the key).
    pub seed: u64,
    /// The application.
    pub app: AppId,
    /// The policy name.
    pub policy: String,
    /// The full simulation result (in sampled mode: the weighted
    /// reconstruction).
    pub result: SimResult,
    /// Micro-ops in the cell's input trace (the denominator reconstruction
    /// weights are validated against).
    pub trace_uops: u64,
    /// Sampled events and metrics, present only on `--metrics` sweeps.
    pub obs: Option<CellObs>,
    /// Reconstruction metadata, present only on `--sample` sweeps.
    pub sampled: Option<SampledCell>,
}

impl SweepCell {
    /// Micro-op hit rate, in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        self.result.uopc.uop_hit_rate()
    }

    /// Micro-op cache misses per thousand retired instructions.
    pub fn mpki(&self) -> f64 {
        let kilo_insns = self.result.events.retired_instructions as f64 / 1000.0;
        if kilo_insns > 0.0 {
            self.result.uopc.uops_missed as f64 / kilo_insns
        } else {
            0.0
        }
    }
}

/// The merged outcome of [`run_sweep`]: cells sorted by task key, failures
/// sorted by task key, and the batch wall-clock time.
#[derive(Debug)]
pub struct SweepReport {
    /// The sweep request.
    pub spec: SweepSpec,
    /// One cell per completed `(app, policy)` task, in key order.
    pub cells: Vec<SweepCell>,
    /// Structured failures of panicked tasks, in key order.
    pub failures: Vec<TaskFailure>,
    /// Per-task execution profiles of the simulation stage, in key order.
    /// Rendered to JSON only on `--metrics` sweeps, and only through the
    /// scheduling-independent fields (queue wait and run ticks — all zero
    /// under the engine's default null clock).
    pub profiles: Vec<TaskProfile>,
    /// Wall-clock time of the simulation stage.
    pub elapsed: Duration,
    /// Branch streams simulated: one per segment of each app (one per app
    /// on a full sweep), each shared by every policy's cell. Not rendered
    /// to JSON.
    pub branch_streams: usize,
}

impl SweepReport {
    /// Renders the report as canonical JSON: fixed field order, cells and
    /// failures sorted by task key, derived metrics rounded to six decimals.
    /// Byte-identical for every worker count — this string is what the
    /// differential and golden tests compare.
    pub fn to_json(&self) -> String {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                let mut fields = vec![
                    ("key".to_string(), Json::Str(c.key.to_string())),
                    ("seed".to_string(), Json::U64(c.seed)),
                    ("app".to_string(), Json::Str(c.app.name().to_string())),
                    ("policy".to_string(), Json::Str(c.policy.clone())),
                    (
                        "uops_requested".to_string(),
                        Json::U64(c.result.uopc.uops_requested),
                    ),
                    ("uops_hit".to_string(), Json::U64(c.result.uopc.uops_hit)),
                    (
                        "uops_missed".to_string(),
                        Json::U64(c.result.uopc.uops_missed),
                    ),
                    (
                        "insertions".to_string(),
                        Json::U64(c.result.uopc.insertions),
                    ),
                    ("bypasses".to_string(), Json::U64(c.result.uopc.bypasses)),
                    (
                        "evictions".to_string(),
                        Json::U64(c.result.uopc.evicted_pws),
                    ),
                    ("cycles".to_string(), Json::U64(c.result.events.cycles)),
                    (
                        "retired_instructions".to_string(),
                        Json::U64(c.result.events.retired_instructions),
                    ),
                    ("trace_uops".to_string(), Json::U64(c.trace_uops)),
                    ("hit_rate".to_string(), Json::F64(round6(c.hit_rate()))),
                    ("mpki".to_string(), Json::F64(round6(c.mpki()))),
                    ("ipc".to_string(), Json::F64(round6(c.result.ipc()))),
                ];
                if let Some(s) = &c.sampled {
                    fields.push((
                        "sampled".to_string(),
                        Json::Obj(vec![
                            ("k".to_string(), Json::U64(s.k as u64)),
                            ("intervals".to_string(), Json::U64(s.intervals as u64)),
                            (
                                "weights".to_string(),
                                Json::Arr(
                                    s.weights.iter().map(|&w| Json::F64(round6(w))).collect(),
                                ),
                            ),
                            ("est_error".to_string(), Json::F64(round6(s.est_error))),
                        ]),
                    ));
                }
                if let Some(obs) = &c.obs {
                    fields.push((
                        "events".to_string(),
                        Json::Arr(obs.events.iter().map(Event::to_json).collect()),
                    ));
                    fields.push(("metrics".to_string(), obs.metrics.to_json()));
                }
                Json::Obj(fields)
            })
            .collect();
        let failures = self
            .failures
            .iter()
            .map(|f| {
                Json::Obj(vec![
                    ("key".to_string(), Json::Str(f.key.to_string())),
                    ("seed".to_string(), Json::U64(f.seed)),
                    ("message".to_string(), Json::Str(f.message.clone())),
                ])
            })
            .collect();
        let mut fields = vec![
            ("schema_version".to_string(), Json::U64(SCHEMA_VERSION)),
            (
                "config".to_string(),
                Json::Str(self.spec.config_name.clone()),
            ),
            (
                "entries".to_string(),
                Json::U64(u64::from(self.spec.cfg.uop_cache.entries)),
            ),
            (
                "ways".to_string(),
                Json::U64(u64::from(self.spec.cfg.uop_cache.ways)),
            ),
            (
                "variant".to_string(),
                Json::U64(u64::from(self.spec.variant)),
            ),
            ("len".to_string(), Json::U64(self.spec.len as u64)),
        ];
        if self.spec.scale > 1 {
            fields.push(("scale".to_string(), Json::U64(self.spec.scale)));
        }
        if let Some(s) = self.spec.sample {
            fields.push(("sample".to_string(), Json::U64(s)));
        }
        fields.push(("cells".to_string(), Json::Arr(cells)));
        fields.push(("failures".to_string(), Json::Arr(failures)));
        if self.spec.metrics {
            let mut totals = MetricsRegistry::new();
            for c in &self.cells {
                if let Some(obs) = &c.obs {
                    totals.merge(&obs.metrics);
                }
            }
            fields.push(("totals".to_string(), totals.to_json()));
            let profiles = self
                .profiles
                .iter()
                .map(|p| {
                    Json::Obj(vec![
                        ("key".to_string(), Json::Str(p.key.to_string())),
                        ("seed".to_string(), Json::U64(p.seed)),
                        ("queue_wait".to_string(), Json::U64(p.queue_wait())),
                        ("run".to_string(), Json::U64(p.run_ticks())),
                    ])
                })
                .collect();
            fields.push(("profiles".to_string(), Json::Arr(profiles)));
        }
        Json::Obj(fields).to_string()
    }
}

/// Rounds to six decimals so canonical JSON stays readable while remaining a
/// pure function of the (deterministic) metric value.
fn round6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

/// Runs an `(app × policy)` sweep through `engine`, in two stages:
///
/// 1. one task per app prepares the trace, the sampling plan of a `--sample`
///    sweep, the profile inputs and the branch stream of each segment (all
///    pure functions of the spec and app);
/// 2. `simulate` runs one task per cell `Segment`, seeding any
///    randomized policy from the **cell** key. A full cell is one
///    whole-trace segment keyed by the cell key itself; a sampled cell is
///    one segment per sample point and probe, keyed as children of the cell
///    key (`…/LRU/pt0.1`, `…/LRU/probe0`).
///
/// Each cell then merges its segments (see `merge_cell`). A panicking
/// segment becomes one structured [`SweepReport::failures`] entry for its
/// cell; sibling cells are unaffected.
///
/// # Panics
///
/// Panics only if a *preparation* task fails (no cell of that app could be
/// simulated).
pub fn run_sweep(spec: &SweepSpec, engine: &Engine) -> SweepReport {
    let cfg = spec.cfg;
    let prep_tasks = (spec.apps.iter()).map(|&a| (spec.task_key(a, "prepare"), a));
    let prepared: Vec<(AppId, Prep, ProfileInputs)> = engine
        .run(prep_tasks.collect(), |_key, seed, app| {
            let trace = trace_for_scaled(app, spec.variant, spec.len, spec.scale);
            let plan = (spec.sample)
                .map(|interval| SamplePlan::build(&trace, &SampleConfig::new(interval, seed)));
            let profiles = spec.profile_inputs(&trace, plan.as_ref());
            (app, Prep::new(&cfg, Arc::new(trace), plan), profiles)
        })
        .expect_all("sweep preparation");

    let mut runs = Vec::new();
    let mut names = Vec::new();
    for (app, prep, profiles) in &prepared {
        for policy in &spec.policies {
            runs.push(CellRun {
                key: spec.task_key(*app, policy),
                cfg,
                opts: SimOptions::default(),
                prep,
                policy: Box::new(move |seed| {
                    let id = policy.parse::<PolicyId>().unwrap_or_else(|e| panic!("{e}"));
                    id.build(&cfg, profiles, seed)
                }),
            });
            names.push((*app, policy));
        }
    }
    let (merged, mut profiles, elapsed) = simulate(engine, &runs, spec.metrics);
    let mut cells = Vec::new();
    let mut failures = Vec::new();
    for ((run, (app, policy)), cell) in runs.iter().zip(names).zip(merged) {
        match cell {
            Ok((result, obs, sampled)) => cells.push(SweepCell {
                key: run.key.clone(),
                seed: run.key.seed(),
                app,
                policy: policy.clone(),
                result,
                trace_uops: run.prep.trace.total_uops(),
                obs,
                sampled,
            }),
            Err(failure) => failures.push(failure),
        }
    }
    // Merge by key, never by completion or submission order.
    cells.sort_by(|a, b| a.key.cmp(&b.key));
    failures.sort_by(|a, b| a.key.cmp(&b.key));
    profiles.sort_by(|a, b| a.key.cmp(&b.key));
    let branch_streams = prepared.iter().map(|(_, p, _)| p.segments.len()).sum();
    SweepReport {
        spec: spec.clone(),
        cells,
        failures,
        profiles,
        elapsed,
        branch_streams,
    }
}

/// One prepared trace: the trace, its sampling plan on a `--sample` sweep,
/// and the segments every cell over it simulates, each with its branch
/// stream.
pub(crate) struct Prep {
    trace: Arc<LookupTrace>,
    plan: Option<SamplePlan>,
    /// The cell segments in submission order. The branch side of a segment
    /// (BTB, misprediction penalty, backend absorption) does not depend on
    /// the policy, so its stream is simulated once here and shared by
    /// every policy's task.
    segments: Vec<(Segment, BranchStream)>,
}

impl Prep {
    /// Cuts `trace` into the segments of `plan` (one whole-trace segment
    /// without a plan) and simulates each segment's branch stream under
    /// `cfg`.
    pub(crate) fn new(
        cfg: &FrontendConfig,
        trace: Arc<LookupTrace>,
        plan: Option<SamplePlan>,
    ) -> Prep {
        let segments = Segment::all(plan.as_ref())
            .into_iter()
            .map(|s| {
                let (warmup, measure) = s.ranges(&trace, plan.as_ref());
                (s, interval_stream(cfg, &trace, warmup, measure))
            })
            .collect();
        Prep {
            trace,
            plan,
            segments,
        }
    }
}

/// Builds a cell's policy from the cell seed.
pub(crate) type PolicyFactory<'a> = Box<dyn Fn(u64) -> Box<dyn PwReplacementPolicy> + Sync + 'a>;

/// One cell to simulate: its key (which seeds the policy), configuration,
/// simulation options of a whole-trace segment, prepared trace and policy.
pub(crate) struct CellRun<'a> {
    pub(crate) key: TaskKey,
    pub(crate) cfg: FrontendConfig,
    pub(crate) opts: SimOptions,
    pub(crate) prep: &'a Prep,
    pub(crate) policy: PolicyFactory<'a>,
}

/// What one cell merges to: its result, its `--metrics` observability and
/// its sampling metadata.
pub(crate) type Merged = (SimResult, Option<CellObs>, Option<SampledCell>);

/// What each cell merges to, or the cell's one failure; per-task
/// profiles; and the wall time of the simulation stage.
type Simulated = (Vec<Result<Merged, TaskFailure>>, Vec<TaskProfile>, Duration);

/// What one simulation task of a cell runs.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Segment {
    /// The whole trace: the one segment of a full cell.
    Whole,
    /// Sample point `j` of cluster `c`; its result feeds the cluster's
    /// reconstructed average.
    Point(usize, usize),
    /// The probe of single-point cluster `c`; its disagreement with the
    /// point feeds the reported error bound.
    Probe(usize),
}

impl Segment {
    /// The segments of every cell of an app, in submission order.
    fn all(plan: Option<&SamplePlan>) -> Vec<Segment> {
        let Some(plan) = plan else {
            return vec![Segment::Whole];
        };
        let mut segments = Vec::new();
        for (c, cluster) in plan.clusters.iter().enumerate() {
            segments.extend((0..cluster.points.len()).map(|j| Segment::Point(c, j)));
            segments.extend(cluster.probe.map(|_| Segment::Probe(c)));
        }
        segments
    }

    /// The accesses the segment simulates, as a warmup range and a measured
    /// range.
    fn ranges(
        self,
        trace: &LookupTrace,
        plan: Option<&SamplePlan>,
    ) -> (Range<usize>, Range<usize>) {
        let (plan, member) = match (self, plan) {
            (Segment::Point(c, j), Some(plan)) => (plan, plan.clusters[c].points[j]),
            (Segment::Probe(c), Some(plan)) => (
                plan,
                plan.clusters[c]
                    .probe
                    .expect("probe segments are planned only for clusters with a probe"),
            ),
            _ => return (0..0, 0..trace.len()),
        };
        (plan.warmup_range(member), plan.intervals[member].range())
    }

    /// The segment's task key: the cell key itself, or a child of it.
    fn key(self, cell: &TaskKey) -> TaskKey {
        match self {
            Segment::Whole => cell.clone(),
            Segment::Point(c, j) => cell.child(format!("pt{c}.{j}")),
            Segment::Probe(c) => cell.child(format!("probe{c}")),
        }
    }
}

/// One simulated segment, with the cell's `--metrics` observability when it
/// is a whole-trace segment.
type SegmentRun = (Segment, SimResult, Option<CellObs>);

/// Simulates every segment of every cell on `engine`, seeding each policy
/// from its cell key, and merges each cell's segments (see [`merge_cell`]).
/// Whole-trace segments run `run_stream` on the prepared branch stream with
/// the cell's options and, when `metrics` is set, a sampling recorder.
/// Cells come back in submission order; a failing segment fails its cell
/// alone.
pub(crate) fn simulate(engine: &Engine, runs: &[CellRun<'_>], metrics: bool) -> Simulated {
    let tasks = (runs.iter())
        .flat_map(|run| {
            (run.prep.segments.iter()).map(move |(s, branch)| (s.key(&run.key), (run, *s, branch)))
        })
        .collect();
    let outcome = engine.run(tasks, |_key, _seed, (run, segment, branch)| {
        let (cfg, prep, seed) = (run.cfg, run.prep, run.key.seed());
        let policy = (run.policy)(seed);
        let (warmup, measure) = segment.ranges(&prep.trace, prep.plan.as_ref());
        if segment != Segment::Whole {
            let result = simulate_interval_with(&cfg, policy, &prep.trace, warmup, measure, branch);
            return (segment, result, None);
        }
        let mut builder = Frontend::builder(cfg).policy(policy).options(run.opts);
        if metrics {
            builder = builder.recorder(MetricsRecorder::new(Box::new(SamplingRecorder::new(
                seed,
                SAMPLE_EVERY,
            ))));
        }
        let mut frontend = builder.build();
        let result = frontend.run_stream(prep.trace.accesses(), branch.slice(measure));
        let obs = frontend.take_recorder().map(|r| CellObs {
            events: r.events(),
            metrics: r.metrics().cloned().unwrap_or_default(),
        });
        (segment, result, obs)
    });

    // The engine returns outcomes in submission order, so each cell drains
    // exactly its own segments.
    let mut outcomes = outcome.outcomes.into_iter();
    let merged = (runs.iter())
        .map(|run| {
            let segments = run.prep.segments.len();
            let segment_runs = outcomes.by_ref().take(segments).map(|o| o.result).collect();
            merge_cell(run.prep.plan.as_ref(), &run.key, segment_runs)
        })
        .collect();
    (merged, outcome.profiles, outcome.elapsed)
}

/// Folds one cell's segment outcomes, in submission order, into its result,
/// `--metrics` observability and sampling metadata: a whole-trace result
/// passes through, and sampled cells are reconstructed by cluster weight.
/// The first segment error becomes the cell's one failure, keyed by the
/// cell key with the cell seed.
fn merge_cell(
    plan: Option<&SamplePlan>,
    key: &TaskKey,
    runs: Vec<Result<SegmentRun, String>>,
) -> Result<Merged, TaskFailure> {
    let runs = runs
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|message| TaskFailure {
            key: key.clone(),
            seed: key.seed(),
            message,
        })?;
    let Some(plan) = plan else {
        let (_, result, obs) = runs
            .into_iter()
            .next()
            .expect("a full cell runs one whole-trace segment");
        return Ok((result, obs, None));
    };
    let mut points: Vec<Vec<SimResult>> = vec![Vec::new(); plan.clusters.len()];
    let mut probes = vec![None; plan.clusters.len()];
    for (segment, result, _) in runs {
        match segment {
            Segment::Point(c, _) => points[c].push(result),
            Segment::Probe(c) => probes[c] = Some(result),
            Segment::Whole => unreachable!("a sampled cell has no whole-trace segment"),
        }
    }
    let (result, sampled) = reconstruct_cell(plan, &points, &probes);
    Ok((result, None, Some(sampled)))
}

/// Reconstructs a whole-trace [`SimResult`] from per-point results: every
/// counter extrapolates per-uop (`Σ count / Σ uops_measured` over the
/// cluster's sample points, `× cluster uops`, summed over clusters),
/// micro-op totals are forced consistent with the exactly-known trace size,
/// and the error bound comes from weighted within-cluster hit-rate
/// dispersion.
fn reconstruct_cell(
    plan: &SamplePlan,
    points: &[Vec<SimResult>],
    probes: &[Option<SimResult>],
) -> (SimResult, SampledCell) {
    let est = |get: &dyn Fn(&SimResult) -> u64| -> u64 {
        let mut acc = 0.0f64;
        for (c, pts) in plan.clusters.iter().zip(points) {
            let count: u64 = pts.iter().map(get).sum();
            let denom: u64 = pts.iter().map(|r| r.uopc.uops_requested).sum();
            acc += count as f64 / denom.max(1) as f64 * c.uops as f64;
        }
        round_count(acc)
    };

    let total = plan.total_uops;
    let uops_hit = est(&|r| r.uopc.uops_hit).min(total);
    let result = SimResult {
        uopc: UopCacheStats {
            lookups: est(&|r| r.uopc.lookups),
            pw_hits: est(&|r| r.uopc.pw_hits),
            pw_partial_hits: est(&|r| r.uopc.pw_partial_hits),
            pw_misses: est(&|r| r.uopc.pw_misses),
            uops_requested: total,
            uops_hit,
            uops_missed: total - uops_hit,
            insertions: est(&|r| r.uopc.insertions),
            entries_written: est(&|r| r.uopc.entries_written),
            bypasses: est(&|r| r.uopc.bypasses),
            evicted_pws: est(&|r| r.uopc.evicted_pws),
            evicted_entries: est(&|r| r.uopc.evicted_entries),
            inclusion_invalidations: est(&|r| r.uopc.inclusion_invalidations),
            cold_miss_uops: est(&|r| r.uopc.cold_miss_uops),
            capacity_miss_uops: est(&|r| r.uopc.capacity_miss_uops),
            conflict_miss_uops: est(&|r| r.uopc.conflict_miss_uops),
            primary_victim_selections: est(&|r| r.uopc.primary_victim_selections),
            fallback_victim_selections: est(&|r| r.uopc.fallback_victim_selections),
        },
        icache: CacheStats {
            accesses: est(&|r| r.icache.accesses),
            hits: est(&|r| r.icache.hits),
            misses: est(&|r| r.icache.misses),
            evictions: est(&|r| r.icache.evictions),
            fills: est(&|r| r.icache.fills),
        },
        btb: CacheStats {
            accesses: est(&|r| r.btb.accesses),
            hits: est(&|r| r.btb.hits),
            misses: est(&|r| r.btb.misses),
            evictions: est(&|r| r.btb.evictions),
            fills: est(&|r| r.btb.fills),
        },
        events: EventCounts {
            cycles: est(&|r| r.events.cycles),
            retired_uops: est(&|r| r.events.retired_uops),
            retired_instructions: est(&|r| r.events.retired_instructions),
            icache_reads: est(&|r| r.events.icache_reads),
            icache_fills: est(&|r| r.events.icache_fills),
            uopc_lookups: est(&|r| r.events.uopc_lookups),
            uopc_entry_reads: est(&|r| r.events.uopc_entry_reads),
            uopc_entry_writes: est(&|r| r.events.uopc_entry_writes),
            decoded_uops: est(&|r| r.events.decoded_uops),
            decoder_active_cycles: est(&|r| r.events.decoder_active_cycles),
            bp_accesses: est(&|r| r.events.bp_accesses),
            btb_accesses: est(&|r| r.events.btb_accesses),
        },
        mispredictions: est(&|r| r.mispredictions),
    };

    let point_rates: Vec<Vec<f64>> = points
        .iter()
        .map(|pts| pts.iter().map(|r| r.uopc.uop_hit_rate()).collect())
        .collect();
    let probe_rates: Vec<Option<f64>> = probes
        .iter()
        .map(|p| p.as_ref().map(|r| r.uopc.uop_hit_rate()))
        .collect();
    let sampled = SampledCell {
        k: plan.k,
        intervals: plan.intervals.len(),
        weights: plan.weights(),
        est_error: plan.error_bound(&point_rates, &probe_rates),
    };
    (result, sampled)
}

/// Rounds a reconstructed (non-negative) counter back to an integer.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn round_count(x: f64) -> u64 {
    x.max(0.0).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            cfg: FrontendConfig::zen3(),
            config_name: "zen3".to_string(),
            apps: vec![AppId::Kafka, AppId::Postgres],
            policies: vec!["LRU".to_string(), "Random".to_string()],
            variant: 0,
            len: 1_500,
            metrics: false,
            sample: None,
            scale: 1,
        }
    }

    #[test]
    fn sweep_is_jobs_invariant() {
        for spec in [tiny_spec(), sampled_spec()] {
            let serial = run_sweep(&spec, &Engine::new(1)).to_json();
            for jobs in [2, 8] {
                assert_eq!(serial, run_sweep(&spec, &Engine::new(jobs)).to_json());
            }
        }
    }

    #[test]
    fn specs_without_profiled_policies_prepare_no_profile() {
        let trace = trace_for_scaled(AppId::Kafka, 0, 1_500, 1);
        let profiles = tiny_spec().profile_inputs(&trace, None);
        assert!(profiles.lru_rates.is_empty());
        assert!(profiles.furbys.hit_rates.is_empty() && profiles.furbys.hints.is_empty());
        // The reports are the bytes a sweep that profiled every policy
        // rendered.
        let fnv = |s: String| {
            (s.bytes()).fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            })
        };
        for (spec, digest) in [
            (tiny_spec(), 0xe97a_b7b0_542e_37a1),
            (sampled_spec(), 0xbc44_8856_81c3_2890),
        ] {
            assert_eq!(fnv(run_sweep(&spec, &Engine::new(2)).to_json()), digest);
        }
    }

    #[test]
    fn unknown_policy_becomes_one_structured_failure_per_cell() {
        for mut spec in [tiny_spec(), sampled_spec()] {
            spec.policies.push("NoSuchPolicy".to_string());
            let report = run_sweep(&spec, &Engine::new(2));
            assert_eq!(report.failures.len(), 2, "one per app, not per segment");
            assert!(report.failures[0].message.contains("NoSuchPolicy"));
            assert_eq!(report.cells.len(), 4, "sibling cells are unaffected");
        }
    }

    #[test]
    fn cells_are_sorted_by_key_and_json_parses() {
        let report = run_sweep(&tiny_spec(), &Engine::new(2));
        let keys: Vec<String> = report.cells.iter().map(|c| c.key.to_string()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        let parsed = Json::parse(&report.to_json()).expect("canonical JSON parses");
        assert_eq!(
            parsed
                .field("cells")
                .expect("cells")
                .as_arr()
                .expect("arr")
                .len(),
            4
        );
    }

    #[test]
    fn metrics_sweep_is_jobs_invariant_and_carries_obs() {
        let mut spec = tiny_spec();
        spec.metrics = true;
        let serial = run_sweep(&spec, &Engine::new(1));
        let parallel = run_sweep(&spec, &Engine::new(4));
        assert_eq!(serial.to_json(), parallel.to_json());
        let parsed = Json::parse(&serial.to_json()).expect("metrics JSON parses");
        assert!(parsed.field("totals").is_ok());
        assert!(parsed.field("profiles").is_ok());
        let cell = &parsed.field("cells").expect("cells").as_arr().expect("arr")[0];
        assert!(cell.field("events").is_ok());
        assert!(cell.field("metrics").is_ok());
        for c in &serial.cells {
            let obs = c.obs.as_ref().expect("metrics mode captures obs");
            assert!(obs.metrics.counter("misses") > 0, "cells saw traffic");
        }
    }

    #[test]
    fn metrics_do_not_change_simulation_results() {
        let plain = run_sweep(&tiny_spec(), &Engine::new(2));
        let mut spec = tiny_spec();
        spec.metrics = true;
        let instrumented = run_sweep(&spec, &Engine::new(2));
        for (a, b) in plain.cells.iter().zip(&instrumented.cells) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.result, b.result, "recorder must not perturb {}", a.key);
        }
    }

    #[test]
    fn schema_version_is_stamped_first() {
        let json = run_sweep(&tiny_spec(), &Engine::new(1)).to_json();
        assert!(
            json.starts_with("{\"schema_version\":1,"),
            "schema_version leads the report: {}",
            &json[..40.min(json.len())]
        );
    }

    #[test]
    fn spec_json_round_trips_and_resolves_canonical_names() {
        let spec = tiny_spec();
        let j = spec.to_json();
        let back = SweepSpec::from_json(&j).expect("wire form round-trips");
        assert_eq!(back.to_json().to_string(), j.to_string());
        assert_eq!(back.cfg, spec.cfg);
        // Lower-case policy names resolve to the canonical figure labels.
        let loose = Json::parse(
            r#"{"config":"zen4","apps":["kafka"],"policies":["lru","ship++"],"len":500}"#,
        )
        .expect("valid JSON");
        let spec = SweepSpec::from_json(&loose).expect("defaults fill in");
        assert_eq!(spec.policies, vec!["LRU", "SHiP++"]);
        assert_eq!(spec.variant, 0);
        assert!(!spec.metrics);
        assert_eq!(spec.cfg, FrontendConfig::zen4());
    }

    #[test]
    fn spec_json_rejects_bad_fields() {
        for bad in [
            r#"{"apps":["kafka"],"policies":["lru"]}"#,
            r#"{"config":"zen9","apps":["kafka"],"policies":["lru"]}"#,
            r#"{"config":"zen3","apps":["nope"],"policies":["lru"]}"#,
            r#"{"config":"zen3","apps":["kafka"],"policies":["belaay"]}"#,
            r#"{"config":"zen3","apps":[],"policies":["lru"]}"#,
            r#"{"config":"zen3","apps":["kafka"],"policies":[]}"#,
            r#"{"config":"zen3","apps":["kafka"],"policies":["lru"],"len":"x"}"#,
        ] {
            let j = Json::parse(bad).expect("valid JSON");
            assert!(
                SweepSpec::from_json(&j).is_err(),
                "{bad} should be rejected"
            );
        }
    }

    #[test]
    fn jobs_knob_resolution_order() {
        set_jobs(3);
        assert_eq!(current_jobs(), 3);
        set_jobs(0);
        assert!(current_jobs() >= 1);
    }

    fn sampled_spec() -> SweepSpec {
        let mut spec = tiny_spec();
        spec.len = 6_000;
        spec.sample = Some(2_000);
        spec
    }

    #[test]
    fn sampled_cells_carry_plan_and_exact_uop_totals() {
        let spec = sampled_spec();
        let report = run_sweep(&spec, &Engine::new(2));
        assert_eq!(report.cells.len(), 4);
        for c in &report.cells {
            let s = c.sampled.as_ref().expect("sampled mode fills sampled");
            assert!(s.k >= 1 && s.k <= s.intervals);
            assert_eq!(s.weights.len(), s.k);
            let sum: f64 = s.weights.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "weights sum to {sum}");
            assert!(s.est_error >= uopcache_sample::EST_ERROR_FLOOR);
            // Micro-op totals are exact (known from the plan), and the
            // reconstructed split is consistent.
            assert_eq!(c.trace_uops, c.result.uopc.uops_requested);
            assert_eq!(
                c.result.uopc.uops_hit + c.result.uopc.uops_missed,
                c.result.uopc.uops_requested
            );
        }
        let parsed = Json::parse(&report.to_json()).expect("sampled JSON parses");
        let cell = &parsed.field("cells").expect("cells").as_arr().expect("arr")[0];
        assert!(cell.field("trace_uops").is_ok());
        assert!(cell.field("sampled").is_ok());
        let sampled = cell.field("sampled").expect("sampled");
        assert!(sampled.field("k").is_ok());
        assert!(sampled.field("est_error").is_ok());
    }

    #[test]
    fn sampled_hit_rate_tracks_the_full_simulation() {
        let spec = sampled_spec();
        let sampled = run_sweep(&spec, &Engine::new(2));
        let mut full_spec = spec.clone();
        full_spec.sample = None;
        let full = run_sweep(&full_spec, &Engine::new(2));
        for c in &sampled.cells {
            let f = full
                .cells
                .iter()
                .find(|f| f.key == c.key)
                .expect("same keys in both modes");
            let err = (c.hit_rate() - f.hit_rate()).abs();
            assert!(
                err <= 0.02,
                "{}: sampled {:.4} vs full {:.4}",
                c.key,
                c.hit_rate(),
                f.hit_rate()
            );
            let bound = c.sampled.as_ref().expect("sampled").est_error;
            assert!(
                err <= bound,
                "{}: true error {err:.4} exceeds reported bound {bound:.4}",
                c.key
            );
        }
    }

    /// A hand-built plan over five 100-uop intervals: cluster 0 measures
    /// two points, cluster 1 one point backed by a probe.
    fn probe_plan() -> SamplePlan {
        use uopcache_sample::{ClusterPlan, Interval};
        let cluster = |representative, points: Vec<usize>, probe, members: usize| ClusterPlan {
            representative,
            points,
            probe,
            members,
            uops: 100 * members as u64,
            weight: members as f64 / 5.0,
        };
        SamplePlan {
            interval_uops: 100,
            k: 2,
            intervals: (0..5)
                .map(|i| Interval {
                    index: i,
                    start_access: 10 * i,
                    end_access: 10 * (i + 1),
                    uops: 100,
                })
                .collect(),
            assignments: vec![0, 0, 0, 1, 1],
            clusters: vec![
                cluster(1, vec![0, 2], None, 3),
                cluster(3, vec![3], Some(4), 2),
            ],
            total_uops: 500,
            warmup_intervals: 1,
        }
    }

    /// One cell's segment outcomes under [`probe_plan`]: synthetic results
    /// over 100 requested uops each, the probe's hits given by `probe`.
    fn probe_cell(probe: Result<u64, &str>) -> Vec<Result<SegmentRun, String>> {
        let run = |segment, hit, cycles| {
            let mut r = SimResult::default();
            r.uopc.uops_requested = 100;
            r.uopc.uops_hit = hit;
            r.uopc.uops_missed = 100 - hit;
            r.events.cycles = cycles;
            (segment, r, None)
        };
        vec![
            Ok(run(Segment::Point(0, 0), 80, 1_000)),
            Ok(run(Segment::Point(0, 1), 60, 1_200)),
            Ok(run(Segment::Point(1, 0), 90, 500)),
            probe
                .map(|hit| run(Segment::Probe(1), hit, 9_999))
                .map_err(str::to_string),
        ]
    }

    #[test]
    fn probe_segments_merge_into_the_error_bound_only() {
        let (plan, key) = (probe_plan(), tiny_spec().task_key(AppId::Kafka, "LRU"));
        let (result, obs, sampled) = merge_cell(Some(&plan), &key, probe_cell(Ok(50))).expect("ok");
        assert!(obs.is_none());
        // Per-uop extrapolation over the points only: cluster 0 hits
        // 140/200 of its 300 uops, cluster 1 90/100 of its 200.
        assert_eq!(result.uopc.uops_requested, 500);
        assert_eq!(result.uopc.uops_hit, 210 + 180);
        assert_eq!(result.uopc.uops_missed, 110);
        assert_eq!(result.events.cycles, 2_200 * 3 / 2 + 500 * 2);
        let sampled = sampled.expect("sampled cell");
        assert_eq!((sampled.k, sampled.intervals), (2, 5));
        assert_eq!(sampled.weights, vec![0.6, 0.4]);
        // Dispersion: cluster 0's standard error (0.1) at weight 0.6, and
        // cluster 1's point↔probe disagreement |0.9 − 0.5| at weight 0.4.
        let floor = uopcache_sample::EST_ERROR_FLOOR;
        let margin = uopcache_sample::EST_ERROR_MARGIN;
        assert!((sampled.est_error - (floor + margin * (0.06 + 0.16))).abs() < 1e-12);
        // An agreeing probe leaves only cluster 0's dispersion, and the
        // counters do not move.
        let (agreeing, _, tight) = merge_cell(Some(&plan), &key, probe_cell(Ok(90))).expect("ok");
        assert_eq!(agreeing, result);
        let tight = tight.expect("sampled cell").est_error;
        assert!((tight - (floor + margin * 0.06)).abs() < 1e-12);
    }

    #[test]
    fn a_failing_probe_fails_its_cell_once() {
        let (plan, key) = (probe_plan(), tiny_spec().task_key(AppId::Kafka, "LRU"));
        let mut runs = probe_cell(Err("probe panicked"));
        let failure = merge_cell(Some(&plan), &key, runs.clone()).expect_err("cell fails");
        assert_eq!((&failure.key, failure.seed), (&key, key.seed()));
        assert_eq!(failure.message, "probe panicked");
        runs[1] = Err("point panicked".to_string());
        let failure = merge_cell(Some(&plan), &key, runs).expect_err("cell fails");
        assert_eq!(failure.message, "point panicked", "the first error wins");
    }

    #[test]
    fn scale_widens_the_key_segment_and_round_trips() {
        let mut spec = tiny_spec();
        spec.scale = 3;
        spec.sample = Some(2_000);
        let key = spec.task_key(AppId::Kafka, "LRU").to_string();
        assert!(key.contains("len1500x3"), "{key}");
        let back = SweepSpec::from_json(&spec.to_json()).expect("round-trips");
        assert_eq!(back.scale, 3);
        assert_eq!(back.sample, Some(2_000));
        assert_eq!(back.to_json().to_string(), spec.to_json().to_string());
        // Plain specs never serialise the new fields (wire back-compat).
        let plain = tiny_spec().to_json().to_string();
        assert!(!plain.contains("\"scale\""), "{plain}");
        assert!(!plain.contains("\"sample\""), "{plain}");
        for bad in [
            r#"{"config":"zen3","apps":["kafka"],"policies":["lru"],"scale":0}"#,
            r#"{"config":"zen3","apps":["kafka"],"policies":["lru"],"sample":0}"#,
        ] {
            let j = Json::parse(bad).expect("valid JSON");
            assert!(
                SweepSpec::from_json(&j).is_err(),
                "{bad} should be rejected"
            );
        }
    }

    #[test]
    fn spec_json_bounds_the_cache_geometry() {
        let spec = |entries: u64, ways: u64| {
            let text = format!(
                r#"{{"config":"zen3","apps":["kafka"],"policies":["lru"],"len":1000,"entries":{entries},"ways":{ways}}}"#
            );
            SweepSpec::from_json(&Json::parse(&text).expect("valid JSON"))
        };
        let largest = spec(4_096, 8).expect("the largest geometry the experiments use");
        assert_eq!(largest.cfg.uop_cache.sets(), 512);
        assert!(spec(4_096, 1).is_ok());
        assert!(spec(u64::from(MAX_SPEC_SETS) * 64, 64).is_ok());
        assert!(spec(u64::from(MAX_SPEC_SETS), 1).is_ok());
        for (entries, ways, what) in [
            (4_000_000_000, 1, "sets"),
            (u64::from(MAX_SPEC_SETS) + 1, 1, "sets"),
            (u64::from(MAX_SPEC_SETS) * 64 + 64, 64, "sets"),
            (512, 0, "1..=64"),
            (6_400, 100, "1..=64"),
            (512, u64::from(u32::MAX), "1..=64"),
            (0, 8, "multiple"),
            (513, 8, "multiple"),
            (7, 8, "multiple"),
        ] {
            let err = spec(entries, ways).expect_err("a hostile geometry");
            assert!(err.contains(what), "{entries} x {ways}: {err}");
        }
        // Out of u32 range is refused before the geometry is read.
        assert!(spec(u64::MAX, 8).is_err());
    }

    #[test]
    fn spec_json_bounds_the_trace_size() {
        let spec = |len: u64, scale: u64| {
            let text = format!(
                r#"{{"config":"zen3","apps":["kafka"],"policies":["lru"],"len":{len},"scale":{scale}}}"#
            );
            SweepSpec::from_json(&Json::parse(&text).expect("valid JSON"))
        };
        let ok = spec(100_000, 100).expect("the largest documented sweep");
        assert_eq!((ok.len, ok.scale), (100_000, 100));
        assert!(spec(MAX_SPEC_ACCESSES, 1).is_ok());
        assert!(spec(1, MAX_SPEC_ACCESSES).is_ok());
        for (len, scale) in [
            (1_000_000_000_000, 1),
            (1, 1_000_000_000_000),
            (MAX_SPEC_ACCESSES + 1, 1),
            (MAX_SPEC_ACCESSES / 2 + 1, 2),
            // The product overflows u64.
            (1 << 33, 1 << 33),
            (u64::MAX, u64::MAX),
        ] {
            let err = spec(len, scale).expect_err("over the bound");
            assert!(err.contains("exceeds"), "{len} x {scale}: {err}");
        }
    }
}
