//! Allocation budget for the simulation hot path.
//!
//! The kernel is designed so that once a cache has been constructed and
//! warmed, driving a trace through it performs **zero heap allocations**:
//! set storage is a preallocated structure-of-arrays arena, victim and
//! resident scratch live in reusable buffers, and every registered policy
//! reserves its side tables at [`prepare`] time — the figure roster, the
//! classic zoo (ghost rings included) and the set-dueling meta-policy all
//! stay off the allocator on the lookup/insert path. The same holds one
//! layer up, for a warmed [`Frontend`]: its L1i and BTB are fixed arrays of
//! ways, the asynchronous insertion queue and its drain batch are reused,
//! and L1i evictions reach the micro-op cache's inclusion path.
//!
//! This test wires the bench harness's [`CountingAllocator`] in as the
//! test binary's global allocator and pins the budget at exactly zero for
//! a steady-state pass over **every policy in [`PolicyId::ALL`]**, both
//! through the bare [`UopCache`] and through [`Frontend::run`].
//! Everything is measured inside one `#[test]` so no concurrently running
//! test can pollute the global counters.
//!
//! [`prepare`]: uopcache::cache::PwReplacementPolicy::prepare
//! [`CountingAllocator`]: uopcache_bench::hotpath::CountingAllocator

use uopcache::cache::UopCache;
use uopcache::model::{FrontendConfig, LookupTrace};
use uopcache::policies::run_trace;
use uopcache::sim::Frontend;
use uopcache::trace::{build_trace, AppId, InputVariant};
use uopcache_bench::hotpath::CountingAllocator;
use uopcache_bench::policies::{PolicyId, ProfileInputs};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

const LEN: usize = 8_000;

/// Seed for the one seeded policy (Random); any fixed value works, the
/// budget is about allocations, not decisions.
const SEED: u64 = 7;

/// Runs `pass` once and returns how many heap allocations it performed
/// and how many bytes they asked for.
fn allocs_during(pass: impl FnOnce()) -> (u64, u64) {
    let before_calls = CountingAllocator::allocations();
    let before_bytes = CountingAllocator::bytes_allocated();
    pass();
    let calls = CountingAllocator::allocations() - before_calls;
    let bytes = CountingAllocator::bytes_allocated() - before_bytes;
    (calls, bytes)
}

/// Runs `trace` once more over a warmed cache and returns how many heap
/// allocations the pass performed.
fn steady_state_allocs(cache: &mut UopCache, trace: &LookupTrace) -> (u64, u64) {
    let mut lookups = 0;
    let allocs = allocs_during(|| lookups = run_trace(cache, trace).lookups);
    assert_eq!(lookups, LEN as u64, "the pass must cover the trace");
    allocs
}

/// Runs `trace` once more through a warmed frontend and returns how many
/// heap allocations the pass performed, with the inclusion invalidations
/// it made (so the caller can check the inclusion path was exercised).
fn frontend_steady_state_allocs(fe: &mut Frontend, trace: &LookupTrace) -> ((u64, u64), u64) {
    let mut result = None;
    let allocs = allocs_during(|| result = Some(fe.run(trace)));
    let result = result.expect("the pass ran");
    assert_eq!(
        result.uopc.lookups, LEN as u64,
        "the pass must cover the trace"
    );
    (allocs, result.uopc.inclusion_invalidations)
}

#[test]
fn steady_state_lookup_path_does_not_allocate_for_any_registered_policy() {
    // The counter must actually be live in this binary, or the zero
    // assertions below would be vacuous.
    assert!(
        CountingAllocator::is_active(),
        "CountingAllocator is not installed as the global allocator"
    );

    let cfg = FrontendConfig::zen3();
    for app in [AppId::Kafka, AppId::Postgres] {
        let trace = build_trace(app, InputVariant(0), LEN);
        // Profile construction allocates freely; it happens once per app,
        // outside the measured window, like any offline training pass.
        let profiles = ProfileInputs::build(&cfg, &trace);
        for id in PolicyId::ALL {
            let mut cache = UopCache::new(cfg.uop_cache, id.build(&cfg, &profiles, SEED));
            // Warmup: fill the sets, let ghost rings and side tables reach
            // their steady shape, and cross at least one duel phase.
            run_trace(&mut cache, &trace);

            let (calls, bytes) = steady_state_allocs(&mut cache, &trace);
            assert_eq!(
                (calls, bytes),
                (0, 0),
                "{}/{}: steady-state pass allocated {calls} times ({bytes} bytes)",
                id.name(),
                app.name(),
            );

            let mut fe = Frontend::builder(cfg)
                .policy(id.build(&cfg, &profiles, SEED))
                .build();
            fe.run(&trace);
            let ((calls, bytes), invalidations) = frontend_steady_state_allocs(&mut fe, &trace);
            assert_eq!(
                (calls, bytes),
                (0, 0),
                "{}/{}: steady-state Frontend::run allocated {calls} times ({bytes} bytes)",
                id.name(),
                app.name(),
            );
            assert!(
                invalidations > 0,
                "{}/{}: the pass never reached the inclusion path",
                id.name(),
                app.name(),
            );
        }
    }
}
