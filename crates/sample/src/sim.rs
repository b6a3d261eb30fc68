//! Representative-interval simulation with functional warmup.

use std::ops::Range;

use uopcache_cache::PwReplacementPolicy;
use uopcache_model::{FrontendConfig, LookupTrace, SimResult};
use uopcache_sim::{BranchStream, Frontend};

/// Simulates one interval of `trace` and returns its isolated result:
/// the frontend first replays the `warmup` accesses (typically the
/// preceding interval — functional warmup, so the measured interval starts
/// from a realistically warm cache instead of a cold one), then runs
/// `measure`. The frontend reports per-run deltas, so the returned result
/// charges only the measured accesses.
///
/// An empty `warmup` skips warmup (used for intervals at the trace start).
pub fn simulate_interval(
    cfg: &FrontendConfig,
    policy: Box<dyn PwReplacementPolicy>,
    trace: &LookupTrace,
    warmup: Range<usize>,
    measure: Range<usize>,
) -> SimResult {
    let branch = interval_stream(cfg, trace, warmup.clone(), measure.clone());
    simulate_interval_with(cfg, policy, trace, warmup, measure, &branch)
}

/// The branch stream of one interval: `warmup` followed by `measure`,
/// simulated from a fresh branch state. It does not depend on the policy,
/// so every policy simulating the interval can share it
/// ([`simulate_interval_with`]).
pub fn interval_stream(
    cfg: &FrontendConfig,
    trace: &LookupTrace,
    warmup: Range<usize>,
    measure: Range<usize>,
) -> BranchStream {
    let accesses = trace.accesses();
    BranchStream::build(cfg, &[&accesses[warmup], &accesses[measure]])
}

/// [`simulate_interval`] with the interval's branch side read from
/// `branch`, the [`interval_stream`] of the same `cfg`, `trace`, `warmup`
/// and `measure`. Returns the same result.
///
/// # Panics
///
/// Panics if `branch` does not hold exactly `warmup.len() + measure.len()`
/// entries or was built for another branch configuration.
pub fn simulate_interval_with(
    cfg: &FrontendConfig,
    policy: Box<dyn PwReplacementPolicy>,
    trace: &LookupTrace,
    warmup: Range<usize>,
    measure: Range<usize>,
    branch: &BranchStream,
) -> SimResult {
    assert_eq!(
        branch.len(),
        warmup.len() + measure.len(),
        "the stream covers the warmup and the measured interval"
    );
    let accesses = trace.accesses();
    let mut fe = Frontend::builder(*cfg).policy(policy).build();
    let split = warmup.len();
    if !warmup.is_empty() {
        let _ = fe.run_stream(&accesses[warmup], branch.slice(0..split));
    }
    fe.run_stream(&accesses[measure], branch.slice(split..branch.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uopcache_cache::LruPolicy;
    use uopcache_trace::{build_trace, AppId, InputVariant};

    #[test]
    fn warmup_does_not_leak_into_measured_counters() {
        let cfg = FrontendConfig::zen3();
        let trace = build_trace(AppId::Kafka, InputVariant(0), 4_000);
        let warmed = simulate_interval(
            &cfg,
            Box::new(LruPolicy::new()),
            &trace,
            0..2_000,
            2_000..4_000,
        );
        let requested: u64 = trace.slice(2_000..4_000).total_uops();
        assert_eq!(warmed.uopc.uops_requested, requested);
    }

    #[test]
    fn warmup_improves_on_cold_start_for_reused_code() {
        let cfg = FrontendConfig::zen3();
        let trace = build_trace(AppId::Postgres, InputVariant(0), 6_000);
        let cold = simulate_interval(&cfg, Box::new(LruPolicy::new()), &trace, 0..0, 3_000..6_000);
        let warm = simulate_interval(
            &cfg,
            Box::new(LruPolicy::new()),
            &trace,
            0..3_000,
            3_000..6_000,
        );
        assert!(warm.uopc.uops_hit >= cold.uopc.uops_hit);
    }
}
