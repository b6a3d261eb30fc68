//! Memory wall for the sampled sweep: the `sweep-sampled` shape for one
//! app (kafka, 12 000 accesses at scale 100, 20 000-uop intervals, LRU and
//! FURBYS) on one worker may hold 16 bytes per access it re-forms (the
//! planned segments and the training points) plus 1 MiB of working set at
//! its peak. It never holds the 1.2 M-access trace, which alone is
//! 19.2 MB: the fingerprint pass streams it, and the rebuild pass re-forms
//! about a sixth of it from walk checkpoints.
//!
//! One test function, so the counting global allocator measures one sweep
//! at a time (see `trace_memory.rs`).

use uopcache::model::alloc::CountingAllocator;
use uopcache::model::FrontendConfig;
use uopcache::sample::{SampleConfig, SamplePlan};
use uopcache::trace::{build_trace_scaled, AppId, InputVariant};
use uopcache_bench::sweep::{run_sweep, SweepSpec};
use uopcache_exec::Engine;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn a_sampled_sweep_holds_only_the_accesses_it_simulates() {
    assert!(
        CountingAllocator::is_installed(),
        "the wall would be vacuous"
    );
    let spec = SweepSpec {
        cfg: FrontendConfig::zen3(),
        config_name: "zen3".to_string(),
        apps: vec![AppId::Kafka],
        policies: vec!["LRU".to_string(), "FURBYS".to_string()],
        variant: 0,
        len: 12_000,
        metrics: false,
        sample: Some(20_000),
        scale: 100,
    };
    let (report, stats) = CountingAllocator::measure(|| run_sweep(&spec, &Engine::new(1)));
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert_eq!(report.cells.len(), 2);
    drop(report);

    // The accesses the sweep re-forms, counted on the plan it made.
    let trace = build_trace_scaled(AppId::Kafka, InputVariant(0), spec.len, spec.scale);
    let seed = spec.task_key(AppId::Kafka, "prepare").seed();
    let plan = SamplePlan::build(&trace, &SampleConfig::new(20_000, seed));
    let segments: usize = (plan.clusters.iter())
        .flat_map(|c| c.points.iter().copied().chain(c.probe))
        .map(|m| plan.warmup_range(m).len() + plan.intervals[m].len())
        .sum();
    let training = plan.representative_trace(&trace).len();
    let rebuilt = segments + training;
    assert!(rebuilt * 4 < trace.len(), "the case re-forms a small share");
    // 1 MiB of working set: the generator (program, segment table,
    // walker), a fingerprint row and a checkpoint per interval, the branch
    // streams (a byte per re-formed access), the profile solve and the two
    // cells' frontends. It measured 0.26 MB when this wall was written.
    let bound = 16 * rebuilt + (1 << 20);
    assert!(
        stats.peak <= bound,
        "re-forming {rebuilt} accesses peaked at {} bytes, over {bound}",
        stats.peak
    );
}
