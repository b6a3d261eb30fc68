//! The lab: one content-keyed memo of traces, FOO/FLACK solutions and
//! simulated cells, shared by every experiment of a run.
//!
//! An experiment asks for cells (a frontend configuration, simulation
//! options, a trace and a policy arm); the lab computes each missing input
//! once, in parallel stages on its engine, and answers repeats from the
//! memo. Online cells run through the sweep's simulation path
//! (`sweep::simulate`): `run_stream` on a branch stream shared by every
//! policy of the same configuration and trace.
//!
//! Methodology note: **online** arms run through the timed frontend
//! simulator (asynchronous insertion, L1i inclusion, switch penalties);
//! **offline** arms (synchronous LRU, Belady, FOO/FLACK variants) are
//! idealized bounds replayed synchronously through the set-associative
//! micro-op cache — mirroring the paper's use of perfect setups for the
//! offline bound studies.

use crate::apps::{trace_for, TRACE_LEN};
use crate::policies::{PolicyId, ProfileInputs};
use crate::sweep::{self, config_label, SegmentPrep};
use std::borrow::Cow;
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::Arc;
use uopcache_cache::{LruPolicy, PwReplacementPolicy, UopCache};
use uopcache_core::{
    Flack, FurbysPipeline, OracleKind, PhasedFurbysPolicy, PhasedProfile, WeightConfig,
};
use uopcache_exec::{Engine, TaskKey};
use uopcache_model::hash::{FastHashMap, FastHashSet};
use uopcache_model::{Addr, FrontendConfig, LookupTrace, SimResult, UopCacheConfig};
use uopcache_offline::foo::{self, FooConfig, FooSolution};
use uopcache_offline::BeladyPolicy;
use uopcache_policies::run_trace;
use uopcache_sim::SimOptions;
use uopcache_trace::AppId;

/// A generated trace, by content.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct TraceKey {
    /// The application.
    pub app: AppId,
    /// The input variant.
    pub variant: u32,
    /// Accesses.
    pub len: usize,
}

/// FURBYS's knobs, as the sensitivity and ablation figures vary them:
/// every [`FurbysPipeline`] field but the frontend configuration, which the
/// cell gives, plus where the profile comes from.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct Knobs {
    /// The offline oracle the profile replays (Fig. 15).
    pub oracle: OracleKind,
    /// Weight grouping; Fig. 19 varies the hint width.
    pub weight_cfg: WeightConfig,
    /// Local pitfall detector depth (Fig. 20).
    pub detector_depth: usize,
    /// Bypass margin K; `u8::MAX` disables bypassing (Fig. 21).
    pub bypass_k: u8,
    /// Profile input variants 0 and 1, merged, instead of the cell's own
    /// trace (Fig. 18's cross-validation).
    pub cross_input: bool,
}

impl Knobs {
    /// The paper's configuration ([`FurbysPipeline::new`]), profiled on the
    /// cell's own trace.
    pub(crate) fn paper() -> Knobs {
        let p = FurbysPipeline::new(FrontendConfig::zen3());
        Knobs {
            oracle: p.oracle,
            weight_cfg: p.weight_cfg,
            detector_depth: p.detector_depth,
            bypass_k: p.bypass_k,
            cross_input: false,
        }
    }

    /// The pipeline of these knobs. Built without `..`, so a new pipeline
    /// field does not compile until it is a knob too.
    fn pipeline(self, frontend_cfg: FrontendConfig) -> FurbysPipeline {
        FurbysPipeline {
            frontend_cfg,
            weight_cfg: self.weight_cfg,
            bypass_k: self.bypass_k,
            detector_depth: self.detector_depth,
            oracle: self.oracle,
        }
    }

    /// Whether the profile is the paper's, which every cell of the trace
    /// shares through its [`ProfileInputs`]: the knobs differ from the
    /// paper's at most in the deployed policy's own (detector depth, bypass
    /// margin), which the profile does not read.
    fn paper_profile(self) -> bool {
        let paper = Knobs::paper();
        let deployed = Knobs {
            detector_depth: paper.detector_depth,
            bypass_k: paper.bypass_k,
            ..self
        };
        deployed == paper
    }
}

/// What a cell runs.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) enum Arm {
    /// A registered policy in the timed frontend; profile-guided ones
    /// train on the cell's own trace.
    Online(PolicyId),
    /// FURBYS with the given knobs, in the timed frontend.
    Furbys(Knobs),
    /// Phase-aware FURBYS (EXT-1) with this many per-segment weight tables,
    /// in the timed frontend.
    Phased(usize),
    /// LRU replayed synchronously: the offline bounds' baseline.
    SyncLru,
    /// Belady replayed synchronously.
    Belady,
    /// A FOO/FLACK variant's solution replayed synchronously.
    Oracle(Flack),
}

impl Arm {
    /// The one spelling of each arm: plain FURBYS is FURBYS at the paper's
    /// knobs.
    fn canonical(self) -> Arm {
        match self {
            Arm::Online(PolicyId::Furbys) => Arm::Furbys(Knobs::paper()),
            arm => arm,
        }
    }

    fn online(self) -> bool {
        matches!(self, Arm::Online(_) | Arm::Furbys(_) | Arm::Phased(_))
    }

    /// Whether the cell reads its trace's [`ProfileInputs`].
    fn reads_inputs(self) -> bool {
        match self {
            Arm::Online(id) => id == PolicyId::Thermometer,
            Arm::Furbys(knobs) => knobs.paper_profile(),
            _ => false,
        }
    }

    /// The traces the cell's profile trains on.
    fn train(self, trace: TraceKey) -> Vec<TraceKey> {
        match self {
            Arm::Furbys(knobs) if knobs.cross_input => (0..2)
                .map(|variant| TraceKey { variant, ..trace })
                .collect(),
            _ => vec![trace],
        }
    }

    /// The FOO/FLACK variant the cell (or its profile) replays, if any.
    fn flack(self) -> Option<Flack> {
        match self {
            Arm::Online(_) if self.reads_inputs() => Knobs::paper().oracle.flack(),
            Arm::Furbys(knobs) => knobs.oracle.flack(),
            Arm::Phased(_) => Knobs::paper().oracle.flack(),
            Arm::Oracle(flack) => Some(flack),
            _ => None,
        }
    }
}

/// One cell: an arm on the lab-length trace of `app`'s input `variant`,
/// under `cfg` with `opts`.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Cell {
    /// The frontend configuration (offline arms read its micro-op cache).
    pub cfg: FrontendConfig,
    /// Simulation switches (offline arms read `classify_misses`).
    pub opts: SimOptions,
    /// The application.
    pub app: AppId,
    /// The input variant.
    pub variant: u32,
    /// What runs.
    pub arm: Arm,
}

impl Cell {
    /// `arm` on input variant 0 of `app` under `cfg`, default options.
    pub(crate) fn new(cfg: FrontendConfig, app: AppId, arm: Arm) -> Cell {
        Cell {
            cfg,
            opts: SimOptions::default(),
            app,
            variant: 0,
            arm,
        }
    }
}

/// The work a lab has done. Not rendered anywhere: tests pin it.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct Work {
    /// Traces generated.
    pub traces: usize,
    /// FOO/FLACK flow solves run.
    pub solves: usize,
    /// Cells simulated or replayed.
    pub cells: usize,
}

/// A cell by content; the configuration is an index into the lab's
/// interned configurations (`FrontendConfig` holds floats, so it has no
/// `Hash`).
type CellKey = (usize, SimOptions, TraceKey, Arm);

/// A FOO/FLACK solve by content.
type SolveKey = (TraceKey, UopCacheConfig, FooConfig);

/// One experiment run's memo. Every figure of a `reproduce-all` (or
/// `uopcache experiment`) process reads it, so each distinct trace, solve
/// and cell is computed once per process.
pub struct Lab {
    quick: bool,
    engine: Engine,
    configs: Vec<FrontendConfig>,
    traces: FastHashMap<TraceKey, Arc<LookupTrace>>,
    solutions: FastHashMap<SolveKey, FooSolution>,
    inputs: FastHashMap<(usize, TraceKey), ProfileInputs>,
    preps: FastHashMap<(usize, TraceKey), SegmentPrep>,
    cells: FastHashMap<CellKey, SimResult>,
    work: Work,
}

impl Lab {
    /// An empty lab for quick mode (two apps, 8 000-access traces) or the
    /// full evaluation, computing on `engine`.
    pub fn new(quick: bool, engine: Engine) -> Lab {
        Lab {
            quick,
            engine,
            configs: Vec::new(),
            traces: FastHashMap::default(),
            solutions: FastHashMap::default(),
            inputs: FastHashMap::default(),
            preps: FastHashMap::default(),
            cells: FastHashMap::default(),
            work: Work::default(),
        }
    }

    /// Whether this is a quick-mode lab.
    pub(crate) fn quick(&self) -> bool {
        self.quick
    }

    /// The applications of the mode.
    pub fn apps(&self) -> Vec<AppId> {
        if self.quick {
            vec![AppId::Kafka, AppId::Postgres]
        } else {
            AppId::ALL.to_vec()
        }
    }

    /// The trace length of the mode.
    pub(crate) fn trace_len(&self) -> usize {
        if self.quick {
            8_000
        } else {
            TRACE_LEN
        }
    }

    /// The work done so far.
    pub fn work(&self) -> Work {
        self.work
    }

    /// The trace of `key`, generated on first use.
    pub(crate) fn trace(&mut self, key: TraceKey) -> Arc<LookupTrace> {
        self.fill_traces([key]);
        Arc::clone(&self.traces[&key])
    }

    /// The profile-guided policies' inputs for `trace` under `cfg`.
    pub(crate) fn profile_inputs(
        &mut self,
        cfg: FrontendConfig,
        trace: TraceKey,
    ) -> &ProfileInputs {
        let c = self.intern(cfg);
        self.fill_traces([trace]);
        self.fill_solutions(paper_solve(cfg, trace));
        self.fill_inputs([(c, trace)]);
        &self.inputs[&(c, trace)]
    }

    /// The paper pipeline's oracle observations on `trace` under `cfg`
    /// (see [`FurbysPipeline::observations`]).
    pub(crate) fn observations(
        &mut self,
        cfg: FrontendConfig,
        trace: TraceKey,
    ) -> Vec<(Addr, u32, u32)> {
        self.fill_traces([trace]);
        self.fill_solutions(paper_solve(cfg, trace));
        let pipeline = FurbysPipeline::new(cfg);
        pipeline.observations(
            &self.traces[&trace],
            solution(&self.solutions, &pipeline, trace),
        )
    }

    /// Every app of the mode × `arms` under `cfg`: one row per app, one
    /// result per arm.
    pub(crate) fn grid(&mut self, cfg: FrontendConfig, arms: &[Arm]) -> Vec<Vec<SimResult>> {
        let cells: Vec<Cell> = (self.apps().into_iter())
            .flat_map(|app| arms.iter().map(move |&arm| Cell::new(cfg, app, arm)))
            .collect();
        let results = self.run(&cells);
        results.chunks(arms.len()).map(<[_]>::to_vec).collect()
    }

    /// The results of `cells`, in order. Missing inputs are computed in
    /// parallel stages — traces, then solves, then profile inputs and branch
    /// streams, then cells — each distinct one once.
    ///
    /// # Panics
    ///
    /// Panics with a structured failure if a task panicked (a table cannot
    /// render from partial results).
    pub(crate) fn run(&mut self, cells: &[Cell]) -> Vec<SimResult> {
        let keys: Vec<CellKey> = cells.iter().map(|c| self.key(c)).collect();
        let todo = distinct(keys.iter().copied().filter(|k| !self.cells.contains_key(k)));

        self.fill_traces(todo.iter().flat_map(|&(_, _, t, arm)| {
            let mut traces = arm.train(t);
            traces.push(t);
            traces
        }));
        let solves: Vec<SolveKey> = (todo.iter())
            .flat_map(|&(c, _, t, arm)| {
                let uop = self.configs[c].uop_cache;
                (arm.flack()).into_iter().flat_map(move |flack| {
                    (arm.train(t).into_iter()).map(move |tk| (tk, uop, flack.foo_config()))
                })
            })
            .collect();
        self.fill_solutions(solves);
        self.fill_inputs(
            todo.iter()
                .filter(|k| k.3.reads_inputs())
                .map(|k| (k.0, k.2)),
        );
        self.fill_preps(todo.iter().filter(|k| k.3.online()).map(|k| (k.0, k.2)));

        let (online, offline): (Vec<CellKey>, Vec<CellKey>) =
            todo.into_iter().partition(|k| k.3.online());
        let lab = &*self;
        let simulated = run_all(&self.engine, "online cells", &online, |&key| {
            lab.simulate(key)
        });
        self.work.cells += online.len() + offline.len();
        self.cells.extend(online.into_iter().zip(simulated));
        let lab = &*self;
        let replayed = run_all(&self.engine, "offline cells", &offline, |&key| {
            lab.replay(key)
        });
        self.cells.extend(offline.into_iter().zip(replayed));
        keys.iter().map(|k| self.cells[k]).collect()
    }

    fn intern(&mut self, cfg: FrontendConfig) -> usize {
        match self.configs.iter().position(|c| *c == cfg) {
            Some(i) => i,
            None => {
                self.configs.push(cfg);
                self.configs.len() - 1
            }
        }
    }

    fn key(&mut self, cell: &Cell) -> CellKey {
        let trace = TraceKey {
            app: cell.app,
            variant: cell.variant,
            len: self.trace_len(),
        };
        (
            self.intern(cell.cfg),
            cell.opts,
            trace,
            cell.arm.canonical(),
        )
    }

    fn fill_traces(&mut self, keys: impl IntoIterator<Item = TraceKey>) {
        self.work.traces += fill(&self.engine, "trace", &mut self.traces, keys, |k| {
            Arc::new(trace_for(k.app, k.variant, k.len))
        });
    }

    fn fill_solutions(&mut self, keys: impl IntoIterator<Item = SolveKey>) {
        let traces = &self.traces;
        self.work.solves += fill(&self.engine, "solve", &mut self.solutions, keys, |k| {
            foo::solve(&traces[&k.0], &k.1, &k.2)
        });
    }

    fn fill_inputs(&mut self, keys: impl IntoIterator<Item = (usize, TraceKey)>) {
        let (traces, solutions, configs) = (&self.traces, &self.solutions, &self.configs);
        fill(
            &self.engine,
            "profile",
            &mut self.inputs,
            keys,
            |&(c, t)| {
                let pipeline = FurbysPipeline::new(configs[c]);
                let solution = solution(solutions, &pipeline, t);
                ProfileInputs::solved(&pipeline, &traces[&t], solution, &PolicyId::ALL)
            },
        );
    }

    fn fill_preps(&mut self, keys: impl IntoIterator<Item = (usize, TraceKey)>) {
        let (traces, configs) = (&self.traces, &self.configs);
        fill(
            &self.engine,
            "branch stream",
            &mut self.preps,
            keys,
            |&(c, t)| SegmentPrep::whole(&configs[c], Arc::clone(&traces[&t])),
        );
    }

    /// Simulates an online cell through the sweep's simulation body, its
    /// policy seeded from the cell's task key.
    fn simulate(&self, (c, opts, t, arm): CellKey) -> SimResult {
        let seed = self.task_key(c, t, arm).seed();
        let policy = self.policy(c, t, arm, seed);
        let prep = &self.preps[&(c, t)];
        sweep::simulate(&self.configs[c], opts, policy, seed, prep, false).0
    }

    /// The cell's task key: for a registered policy, the key `run_sweep`
    /// gives the same configuration label, variant, length, app and policy,
    /// so a seeded policy runs with the seed a `sweep` gives it.
    fn task_key(&self, c: usize, t: TraceKey, arm: Arm) -> TaskKey {
        let label = match arm {
            Arm::Online(id) => id.name().to_string(),
            arm => format!("{arm:?}"),
        };
        TaskKey::new([
            config_label(&self.configs[c]),
            format!("v{}", t.variant),
            format!("len{}", t.len),
            t.app.name().to_string(),
            label,
        ])
    }

    /// Builds an online cell's policy from the cell seed; a profile other
    /// than the shared one is trained here, inside the cell's task.
    fn policy(&self, c: usize, t: TraceKey, arm: Arm, seed: u64) -> Box<dyn PwReplacementPolicy> {
        let (cfg, traces, solutions) = (self.configs[c], &self.traces, &self.solutions);
        let inputs = self.inputs.get(&(c, t));
        match arm {
            Arm::Online(id) => match inputs {
                Some(inputs) => id.build(&cfg, inputs, seed),
                None => id.build(&cfg, &ProfileInputs::default(), seed),
            },
            Arm::Furbys(knobs) => {
                let pipeline = knobs.pipeline(cfg);
                let profile = match inputs {
                    Some(inputs) if knobs.paper_profile() => Cow::Borrowed(&inputs.furbys),
                    _ => Cow::Owned(
                        pipeline.profile_observed(
                            (arm.train(t).into_iter())
                                .flat_map(|tk| {
                                    let solution = solution(solutions, &pipeline, tk);
                                    pipeline.observations(&traces[&tk], solution)
                                })
                                .collect(),
                        ),
                    ),
                };
                Box::new(pipeline.policy(&profile))
            }
            Arm::Phased(segments) => {
                let pipeline = FurbysPipeline::new(cfg);
                let obs = pipeline.observations(&traces[&t], solution(solutions, &pipeline, t));
                let profile = PhasedProfile::from_observations(
                    &obs,
                    &cfg.uop_cache,
                    &pipeline.weight_cfg,
                    segments,
                );
                Box::new(PhasedFurbysPolicy::new(profile))
            }
            Arm::SyncLru | Arm::Belady | Arm::Oracle(_) => {
                unreachable!("offline arms replay, they do not simulate")
            }
        }
    }

    /// Replays an offline cell synchronously.
    fn replay(&self, (c, opts, t, arm): CellKey) -> SimResult {
        let uop = self.configs[c].uop_cache;
        let trace = &self.traces[&t];
        let sync = |policy: Box<dyn PwReplacementPolicy>| {
            let mut cache = UopCache::new(uop, policy);
            if opts.classify_misses {
                cache.enable_classification();
            }
            run_trace(&mut cache, trace)
        };
        let uopc = match arm {
            Arm::SyncLru => sync(Box::new(LruPolicy::new())),
            Arm::Belady => sync(Box::new(BeladyPolicy::from_trace(trace))),
            Arm::Oracle(flack) => {
                let solution = &self.solutions[&(t, uop, flack.foo_config())];
                flack.replay(trace, &uop, solution, opts.classify_misses).0
            }
            Arm::Online(_) | Arm::Furbys(_) | Arm::Phased(_) => {
                unreachable!("online arms simulate, they do not replay")
            }
        };
        SimResult {
            uopc,
            ..SimResult::default()
        }
    }
}

/// The solve of trace `t` that `pipeline`'s oracle replays, if it has one.
fn solution<'a>(
    solutions: &'a FastHashMap<SolveKey, FooSolution>,
    pipeline: &FurbysPipeline,
    t: TraceKey,
) -> Option<&'a FooSolution> {
    let uop = pipeline.frontend_cfg.uop_cache;
    (pipeline.oracle.flack()).map(|flack| &solutions[&(t, uop, flack.foo_config())])
}

/// The solve the paper pipeline's oracle needs for `trace` under `cfg`.
fn paper_solve(cfg: FrontendConfig, trace: TraceKey) -> Option<SolveKey> {
    let flack = Knobs::paper().oracle.flack();
    flack.map(|flack| (trace, cfg.uop_cache, flack.foo_config()))
}

/// `keys` without repeats, in first-seen order.
fn distinct<K: Copy + Eq + Hash>(keys: impl IntoIterator<Item = K>) -> Vec<K> {
    let mut seen = FastHashSet::default();
    keys.into_iter().filter(|k| seen.insert(*k)).collect()
}

/// Computes `f` of every key on `engine`, in order.
///
/// # Panics
///
/// Panics with the structured failures if any task panicked.
fn run_all<K: Debug + Sync, V: Send>(
    engine: &Engine,
    stage: &str,
    keys: &[K],
    f: impl Fn(&K) -> V + Sync,
) -> Vec<V> {
    let tasks = (keys.iter())
        .map(|k| (TaskKey::new([stage.to_string(), format!("{k:?}")]), k))
        .collect();
    engine.run(tasks, |_, _, k| f(k)).expect_all(stage)
}

/// Computes, on `engine`, the value of each key in `keys` that `memo`
/// lacks (each once), inserts it, and returns how many it computed.
fn fill<K, V>(
    engine: &Engine,
    stage: &str,
    memo: &mut FastHashMap<K, V>,
    keys: impl IntoIterator<Item = K>,
    f: impl Fn(&K) -> V + Sync,
) -> usize
where
    K: Copy + Eq + Hash + Debug + Sync,
    V: Send,
{
    let missing = distinct(keys.into_iter().filter(|k| !memo.contains_key(k)));
    let values = run_all(engine, stage, &missing, f);
    memo.extend(missing.iter().copied().zip(values));
    missing.len()
}

/// Arithmetic mean helper for per-app series.
pub(crate) fn mean(values: &[f64]) -> f64 {
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
    fn repeats_are_answered_from_the_memo() {
        let mut lab = Lab::new(true, Engine::new(2));
        let cfg = FrontendConfig::zen3();
        let lru = lab.grid(cfg, &[Arm::Online(PolicyId::Lru)]);
        assert_eq!(lab.work().solves, 0, "an LRU-only query solves nothing");
        let both = lab.grid(
            cfg,
            &[Arm::Online(PolicyId::Lru), Arm::Online(PolicyId::Furbys)],
        );
        assert_eq!(both[0][0], lru[0][0]);
        let paper = lab.grid(cfg, &[Arm::Furbys(Knobs::paper())]);
        assert_eq!(
            paper[1][0], both[1][1],
            "plain FURBYS is FURBYS at the paper's knobs"
        );
        let work = lab.work();
        assert_eq!((work.traces, work.solves, work.cells), (2, 2, 4));
    }

    #[test]
    fn a_seeded_cell_matches_its_own_frontend_run() {
        let mut lab = Lab::new(true, Engine::new(1));
        let cfg = FrontendConfig::zen3();
        let cells = lab.grid(cfg, &[Arm::Online(PolicyId::Random)]);
        let trace = lab.trace(TraceKey {
            app: AppId::Kafka,
            variant: 0,
            len: lab.trace_len(),
        });
        let seed = TaskKey::new(["uopc512x8", "v0", "len8000", "kafka", "Random"]).seed();
        let own = uopcache_sim::Frontend::builder(cfg)
            .policy(uopcache_policies::RandomPolicy::new(seed))
            .build()
            .run(&trace);
        assert_eq!(cells[0][0], own);
    }

    #[test]
    fn paper_knobs_build_the_paper_pipeline() {
        let (cfg, paper) = (FrontendConfig::zen4(), Knobs::paper());
        assert_eq!(paper.pipeline(cfg), FurbysPipeline::new(cfg));
        let deployed = Knobs {
            detector_depth: 0,
            bypass_k: u8::MAX,
            ..paper
        };
        assert!(
            deployed.paper_profile(),
            "deployment knobs share the profile"
        );
        let mut own = [paper; 3];
        own[0].oracle = OracleKind::Belady;
        own[1].weight_cfg.bits = 1;
        own[2].cross_input = true;
        assert!(own.iter().all(|k| !k.paper_profile()), "{own:?}");
    }

    #[test]
    #[expect(clippy::float_cmp, reason = "the empty mean is exactly 0.0")]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
    }
}
