//! End-to-end properties of the representative-interval sampling pipeline
//! (`crates/sample` wired through the sweep harness):
//!
//! * **scheduling invariance** — a sampled sweep is byte-identical at
//!   `--jobs 1`, `--jobs 2` and `--jobs 8`, scaled traces included;
//! * **weights partition the trace** — cluster weights are uop shares that
//!   sum to one;
//! * **piecewise-constant exactness** — when a per-interval metric is
//!   constant within each cluster, the weighted reconstruction equals the
//!   uop-weighted truth exactly (up to float rounding);
//! * **pinned fingerprints** — the interval vectors match recorded bit
//!   patterns.

use uopcache::exec::Engine;
use uopcache::model::FrontendConfig;
use uopcache::sample::{SampleConfig, SamplePlan};
use uopcache::trace::{build_trace, AppId, InputVariant};
use uopcache_bench::sweep::{run_sweep, SweepSpec};

fn sampled_spec() -> SweepSpec {
    SweepSpec {
        cfg: FrontendConfig::zen3(),
        config_name: "zen3".to_string(),
        apps: vec![AppId::Kafka, AppId::Postgres],
        policies: vec![
            "LRU".to_string(),
            "Random".to_string(),
            "FURBYS".to_string(),
        ],
        variant: 0,
        len: 4_000,
        metrics: false,
        sample: Some(2_000),
        scale: 2,
    }
}

#[test]
fn sampled_sweeps_are_scheduling_invariant() {
    let spec = sampled_spec();
    let serial = run_sweep(&spec, &Engine::new(1)).to_json();
    for jobs in [2usize, 8] {
        let parallel = run_sweep(&spec, &Engine::new(jobs)).to_json();
        assert_eq!(serial, parallel, "jobs=1 vs jobs={jobs} diverged");
    }
    assert!(serial.contains("\"sampled\""));
}

#[test]
fn cluster_weights_partition_the_trace() {
    for app in [AppId::Kafka, AppId::Clang] {
        let trace = build_trace(app, InputVariant(0), 6_000);
        let plan = SamplePlan::build(&trace, &SampleConfig::new(1_500, 0xbeef));
        let weights = plan.weights();
        assert_eq!(weights.len(), plan.k);
        assert!(weights.iter().all(|w| *w > 0.0));
        let total: f64 = weights.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "{}: weights sum to {total}",
            app.name()
        );
        // Each weight is exactly the cluster's uop share.
        let total_uops: u64 = plan.intervals.iter().map(|iv| iv.uops).sum();
        for (c, w) in plan.clusters.iter().zip(&weights) {
            let share = c.uops as f64 / total_uops as f64;
            assert!((share - w).abs() < 1e-12);
        }
    }
}

#[test]
fn piecewise_constant_metrics_reconstruct_exactly() {
    let trace = build_trace(AppId::Postgres, InputVariant(0), 8_000);
    let plan = SamplePlan::build(&trace, &SampleConfig::new(2_000, 0x5eed));

    // Synthetic per-interval metric, constant within each cluster: interval i
    // in cluster c contributes value(c) uops-weighted.
    let value = |c: usize| 0.25 + 0.1 * c as f64;
    let total_uops: u64 = plan.intervals.iter().map(|iv| iv.uops).sum();
    let truth: f64 = plan
        .assignments
        .iter()
        .zip(&plan.intervals)
        .map(|(&c, iv)| value(c) * iv.uops as f64)
        .sum::<f64>()
        / total_uops as f64;

    // The sampled estimate sees only the simulation points — which is enough,
    // because within a cluster every point reads the same value.
    let estimate: f64 = plan
        .clusters
        .iter()
        .enumerate()
        .zip(plan.weights())
        .map(|((c, cluster), w)| {
            let point_mean =
                cluster.points.iter().map(|_| value(c)).sum::<f64>() / cluster.points.len() as f64;
            w * point_mean
        })
        .sum();

    assert!(
        (estimate - truth).abs() < 1e-9,
        "piecewise-constant metric must reconstruct exactly: {estimate} vs {truth}"
    );
}

/// Pins the interval fingerprints bit for bit: the `f64` bit patterns of
/// every `fingerprint_intervals` vector for kafka and postgres (12 000
/// accesses × 10 epochs) at the default sampling configuration of a
/// 20 000-uop interval. Recorded with the branching projection.
#[test]
fn interval_fingerprints_match_pinned_digests() {
    use uopcache::sample::fingerprint_intervals;
    use uopcache::trace::build_trace_scaled;
    let mut got = Vec::new();
    for app in [AppId::Kafka, AppId::Postgres] {
        let trace = build_trace_scaled(app, InputVariant(9_505_325), 12_000, 10);
        let cfg = SampleConfig::new(20_000, 0x5eed_0017);
        let (intervals, vectors) =
            fingerprint_intervals(&trace, cfg.interval_uops, cfg.dim, cfg.seed);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in vectors.iter().flatten() {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        got.push(format!("{}/{}={h:016x}", app.name(), intervals.len()));
    }
    let want = ["kafka/42=1d21e5a8d9fd9bbe", "postgres/47=316ca665f2ba37dd"];
    assert_eq!(got, want);
}
