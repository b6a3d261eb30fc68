//! Differential wall for the shared branch stream: a frontend fed a
//! [`BranchStream`] built once per trace must report exactly what a
//! frontend running its own `Frontend::run` reports, for every policy, on
//! fresh whole-trace runs and on warmup-then-measure splits, and the sweep
//! must build one stream per app segment and still match a per-cell run.
//!
//! `Frontend::run` fills its own stream from the same builder, so the
//! differential alone cannot see a change to the builder itself. The
//! results are therefore also folded into FNV-1a digests pinned to the
//! values the frontend produced before the stream existed, when the branch
//! side was simulated inline (with `floor` on the backend debt).

use uopcache::model::{FrontendConfig, LookupTrace, SimResult};
use uopcache::sample::{
    interval_stream, simulate_interval, simulate_interval_with, SampleConfig, SamplePlan,
};
use uopcache::sim::{BranchStream, Frontend};
use uopcache::trace::AppId;
use uopcache_bench::apps::{trace_for, trace_for_scaled};
use uopcache_bench::policies::{PolicyId, ProfileInputs};
use uopcache_bench::sweep::{run_sweep, SweepSpec};
use uopcache_exec::Engine;

/// Seed for the one seeded policy (Random).
const SEED: u64 = 0x5eed_57e4;

/// Accesses per trace: enough for BTB evictions, mispredictions and L1i
/// inclusion invalidations on every app below.
const LEN: usize = 4_000;

const APPS: [AppId; 4] = [
    AppId::Kafka,
    AppId::Postgres,
    AppId::Clang,
    AppId::Wordpress,
];

/// FNV-1a over the results' debug renderings, in order.
fn digest<'a>(results: impl IntoIterator<Item = &'a SimResult>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in results {
        for b in format!("{r:?}").bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn frontend(cfg: &FrontendConfig, profiles: &ProfileInputs, id: PolicyId) -> Frontend {
    Frontend::builder(*cfg)
        .policy(id.build(cfg, profiles, SEED))
        .build()
}

/// Every policy on four apps, zen3 and zen4, whole-trace runs: one stream
/// per (config, app) drives all 17 policies.
#[test]
fn a_shared_stream_matches_the_own_run_of_every_policy() {
    let mut own_results = Vec::new();
    for cfg in [FrontendConfig::zen3(), FrontendConfig::zen4()] {
        for app in APPS {
            let trace = trace_for(app, 0, LEN);
            let profiles = ProfileInputs::build(&cfg, &trace);
            let stream = BranchStream::build(&cfg, &[trace.accesses()]);
            assert_eq!(stream.len(), trace.len());
            for id in PolicyId::ALL {
                let own = frontend(&cfg, &profiles, id).run(&trace);
                let shared = frontend(&cfg, &profiles, id)
                    .run_stream(trace.accesses(), stream.slice(0..trace.len()));
                assert_eq!(own, shared, "{}/{}", app.name(), id.name());
                assert!(own.btb.evictions > 0 && own.mispredictions > 0);
                own_results.push(own);
            }
        }
    }
    assert_eq!(digest(&own_results), "cda8b10ad33672a7");
}

/// The configurations of the split wall: the two presets, and zen3 with a
/// perfect BTB and with a perfect branch predictor.
fn split_configs() -> [FrontendConfig; 4] {
    let mut perfect_btb = FrontendConfig::zen3();
    perfect_btb.perfect.btb = true;
    let mut perfect_bp = FrontendConfig::zen3();
    perfect_bp.perfect.branch_predictor = true;
    [
        FrontendConfig::zen3(),
        FrontendConfig::zen4(),
        perfect_btb,
        perfect_bp,
    ]
}

/// A warmup run then a measured run, at several split points, from one
/// whole-trace stream sliced at the split, and through the interval
/// helpers of the sampler.
#[test]
fn a_stream_slices_exactly_at_every_warmup_split() {
    let policies = [
        PolicyId::Lru,
        PolicyId::Furbys,
        PolicyId::Mockingjay,
        PolicyId::Random,
        PolicyId::SetDueling,
    ];
    let mut own_results = Vec::new();
    for cfg in split_configs() {
        for app in [AppId::Kafka, AppId::Clang] {
            let trace = trace_for(app, 0, LEN);
            let profiles = ProfileInputs::build(&cfg, &trace);
            let stream = BranchStream::build(&cfg, &[trace.accesses()]);
            let n = trace.len();
            for split in [1, 1_000, n / 2 + 7, n - 1] {
                let (warmup, measure) = (0..split, split..n);
                for id in policies {
                    let mut own_fe = frontend(&cfg, &profiles, id);
                    let own = [
                        own_fe.run(&trace.slice(warmup.clone())),
                        own_fe.run(&trace.slice(measure.clone())),
                    ];
                    let mut fed = frontend(&cfg, &profiles, id);
                    let acc = trace.accesses();
                    let shared = [
                        fed.run_stream(&acc[warmup.clone()], stream.slice(warmup.clone())),
                        fed.run_stream(&acc[measure.clone()], stream.slice(measure.clone())),
                    ];
                    let what = format!("{}/{} split {split}", app.name(), id.name());
                    assert_eq!(own, shared, "{what}");
                    let interval = interval_stream(&cfg, &trace, warmup.clone(), measure.clone());
                    let policy = || id.build(&cfg, &profiles, SEED);
                    let with = simulate_interval_with(
                        &cfg,
                        policy(),
                        &trace,
                        warmup.clone(),
                        measure.clone(),
                        &interval,
                    );
                    assert_eq!(with, own[1], "{what}: simulate_interval_with");
                    let plain =
                        simulate_interval(&cfg, policy(), &trace, warmup.clone(), measure.clone());
                    assert_eq!(plain, own[1], "{what}: simulate_interval");
                    own_results.extend(own);
                }
            }
        }
    }
    assert_eq!(digest(&own_results), "ebb3337e663f8c8f");
}

/// `sweep-full`'s shape (11 apps × 17 policies) at a small length: one
/// stream per app, where a per-cell simulation would run 187 BTBs, and
/// every cell equal to its own `Frontend::run`.
#[test]
fn a_full_sweep_builds_one_stream_per_app_and_matches_per_cell_runs() {
    let spec = SweepSpec {
        cfg: FrontendConfig::zen3(),
        config_name: "zen3".to_string(),
        apps: AppId::ALL.to_vec(),
        policies: PolicyId::ALL.iter().map(|p| p.name().to_string()).collect(),
        variant: 0,
        len: 1_500,
        metrics: false,
        sample: None,
        scale: 1,
    };
    let report = run_sweep(&spec, &Engine::new(2));
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert_eq!(report.cells.len(), 187);
    assert_eq!(
        report.branch_streams, 11,
        "one stream per app, not per cell"
    );
    for &app in &spec.apps {
        let trace: LookupTrace = trace_for(app, spec.variant, spec.len);
        let profiles = ProfileInputs::build(&spec.cfg, &trace);
        for cell in report.cells.iter().filter(|c| c.app == app) {
            let id: PolicyId = cell.policy.parse().expect("registered");
            let own = Frontend::builder(spec.cfg)
                .policy(id.build(&spec.cfg, &profiles, cell.seed))
                .build()
                .run(&trace);
            assert_eq!(own, cell.result, "{}", cell.key);
        }
    }
}

/// A sampled sweep builds one stream per planned segment of each app,
/// shared by its policies, and its report is byte-identical to the one
/// the sweep rendered when every segment simulated its own branch side.
#[test]
fn a_sampled_sweep_builds_one_stream_per_segment() {
    let spec = SweepSpec {
        cfg: FrontendConfig::zen3(),
        config_name: "zen3".to_string(),
        apps: vec![AppId::Kafka, AppId::Postgres],
        policies: PolicyId::ONLINE
            .iter()
            .map(|p| p.name().to_string())
            .collect(),
        variant: 0,
        len: 2_000,
        metrics: false,
        sample: Some(4_000),
        scale: 4,
    };
    let report = run_sweep(&spec, &Engine::new(2));
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    let segments: usize = spec
        .apps
        .iter()
        .map(|&app| {
            let trace = trace_for_scaled(app, spec.variant, spec.len, spec.scale);
            let seed = spec.task_key(app, "prepare").seed();
            let interval = spec.sample.expect("sampled");
            let plan = SamplePlan::build(&trace, &SampleConfig::new(interval, seed));
            (plan.clusters.iter())
                .map(|c| c.points.len() + usize::from(c.probe.is_some()))
                .sum::<usize>()
        })
        .sum();
    assert_eq!(
        report.branch_streams, segments,
        "one stream per app segment"
    );
    let json = report.to_json();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in json.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    assert_eq!(format!("{h:016x}"), "74ac9618ca7348a1");
}

/// FNV-1a of a sampled sweep's canonical report over kafka and postgres ×
/// the online policies.
fn sampled_digest(len: usize, scale: u64, sample: u64) -> String {
    let spec = SweepSpec {
        cfg: FrontendConfig::zen3(),
        config_name: "zen3".to_string(),
        apps: vec![AppId::Kafka, AppId::Postgres],
        policies: PolicyId::ONLINE
            .iter()
            .map(|p| p.name().to_string())
            .collect(),
        variant: 0,
        len,
        metrics: false,
        sample: Some(sample),
        scale,
    };
    let report = run_sweep(&spec, &Engine::new(2));
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in report.to_json().bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Pins the two sampled shapes the segment rebuild branches on: intervals
/// that span several epochs (a 1 500-access epoch holds less than one
/// 20 000-uop interval), and one unscaled epoch cut into many short
/// intervals.
#[test]
fn sampled_sweeps_across_epochs_and_at_scale_one_match_pinned_digests() {
    assert_eq!(sampled_digest(1_500, 20, 20_000), "760cb35bb7bc398b");
    assert_eq!(sampled_digest(30_000, 1, 2_000), "86ea63c7616761b5");
}
