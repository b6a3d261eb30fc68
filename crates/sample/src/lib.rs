//! # uopcache-sample
//!
//! SimPoint-style representative-interval sampling for the `uopcache`
//! workspace (after "Improving the Representativeness of Simulation
//! Intervals for the Cache Memory System" — see PAPERS.md): instead of
//! simulating a long trace end-to-end, simulate a handful of
//! representative slices and reconstruct whole-trace metrics from them.
//!
//! The pipeline, each stage a pure function of its inputs:
//!
//! 1. **Slice** ([`slice_intervals`]) — cut the trace into consecutive
//!    intervals of a fixed micro-op count.
//! 2. **Fingerprint** ([`fingerprint_intervals`], backed by
//!    `uopcache_obs::BbvRecorder`) — fold each interval's accesses into a
//!    prediction-window basic-block vector, random-projected to a fixed
//!    dimension with seeded ±1 signs.
//! 3. **Cluster** ([`kmeans`], [`choose_k`]) — deterministic seeded
//!    k-means over the projected vectors; `k` picked by a BIC-style score.
//! 4. **Select** ([`SamplePlan::build`]) — per cluster, the member closest
//!    to the centroid becomes the *representative* and the farthest member
//!    the *probe*; cluster weights are micro-op shares.
//! 5. **Simulate** ([`simulate_interval`]) — run each representative (and
//!    probe) with functional warmup from its preceding interval.
//! 6. **Reconstruct** (the sweep harness, by [`SamplePlan::weights`]) —
//!    whole-trace metrics as the weighted average of sample-point metrics,
//!    with an error bound ([`SamplePlan::error_bound`]) from within-cluster
//!    dispersion.
//!
//! Determinism contract: nothing here reads a clock, thread id, or
//! iteration order of an unordered container; a sampled sweep is therefore
//! byte-identical at any `--jobs`/`--shards` count.

pub mod interval;
pub mod kmeans;
pub mod plan;
pub mod sim;

pub use interval::{fingerprint_intervals, slice_intervals, Interval};
pub use kmeans::{choose_k, kmeans, Clustering};
pub use plan::{ClusterPlan, SampleConfig, SamplePlan, EST_ERROR_FLOOR, EST_ERROR_MARGIN};
pub use sim::simulate_interval;
