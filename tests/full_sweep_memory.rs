//! Memory wall for the full sweep: an 11-app sweep on 2 workers (the
//! `sweep-full` trace length, 30 000 accesses, with LRU and the
//! profile-guided FURBYS) may hold at its peak what two one-app sweeps
//! hold at theirs, plus 1 MiB of working set. The engine starts an app's
//! preparation only when no cell is ready to run, and an app's trace,
//! profile and branch stream are freed by its last cell, so at most one
//! app per worker is resident, whatever the app count. A sweep that
//! prepares every app before its first cell peaks at about 9 MB on this
//! case, over the 4.3 MB bound.
//!
//! One test function, so the counting global allocator measures one sweep
//! at a time (see `trace_memory.rs`).

use uopcache::model::alloc::CountingAllocator;
use uopcache::model::FrontendConfig;
use uopcache::trace::AppId;
use uopcache_bench::sweep::{run_sweep, SweepSpec};
use uopcache_exec::Engine;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn a_full_sweep_holds_only_the_apps_in_flight() {
    assert!(
        CountingAllocator::is_installed(),
        "the wall would be vacuous"
    );
    let spec = |apps: &[AppId]| SweepSpec {
        cfg: FrontendConfig::zen3(),
        config_name: "zen3".to_string(),
        apps: apps.to_vec(),
        policies: vec!["LRU".to_string(), "FURBYS".to_string()],
        variant: 0,
        len: 30_000,
        metrics: false,
        sample: None,
        scale: 1,
    };
    // What one app costs at its peak: trace, FLACK solve and profile,
    // branch stream and cells. Each measured 1.4–1.6 MB when this wall was
    // written.
    let per_app = (AppId::ALL.iter())
        .map(|&app| {
            let (report, stats) =
                CountingAllocator::measure(|| run_sweep(&spec(&[app]), &Engine::new(1)));
            assert!(report.failures.is_empty(), "{:?}", report.failures);
            stats.peak
        })
        .max()
        .expect("Table II has apps");

    let workers = 2;
    let (report, stats) =
        CountingAllocator::measure(|| run_sweep(&spec(&AppId::ALL), &Engine::new(workers)));
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert_eq!(report.cells.len(), 2 * AppId::ALL.len());
    drop(report);
    // It measured 3.2 MB when this wall was written.
    let bound = workers * per_app + (1 << 20);
    assert!(
        stats.peak <= bound,
        "{} apps on {workers} workers peaked at {} bytes, over {bound} \
         ({per_app} bytes per app)",
        AppId::ALL.len(),
        stats.peak
    );
}
