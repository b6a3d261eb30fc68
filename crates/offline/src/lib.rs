//! # uopcache-offline
//!
//! Offline (oracle) replacement policies for the micro-op cache:
//!
//! * [`BeladyPolicy`] — Belady's MIN adapted to prediction windows: evicts
//!   the resident with the furthest next use and bypasses insertions whose
//!   next use lies beyond every resident's. The paper shows this is
//!   *sub-optimal* for the micro-op cache (§III-C); it is the reference FLACK
//!   is measured against.
//! * [`foo`] — the flow-based offline optimal (FOO) of Berger et al.,
//!   formulated **per cache set** as a min-cost-flow interval packing and
//!   solved exactly with `uopcache-flow`. Its [`FooConfig`] generalises to
//!   the cost-aware objective and coverage intervals that FLACK
//!   (`uopcache-core`) adds on top.
//! * [`replay`] — replays a FOO/FLACK decision sequence through the real
//!   set-associative [`uopcache_cache::UopCache`], with either eager or lazy
//!   (insertion-time) eviction.
//! * [`identify`] — the inverse problem: given the digest of a captured
//!   decision stream, replay the probe trace through every registered
//!   policy and name the one that reproduces it (explicitly reporting
//!   ambiguity when the trace does not separate the candidates).
//!
//! # Examples
//!
//! ```
//! use uopcache_model::UopCacheConfig;
//! use uopcache_offline::{foo, replay, FooConfig};
//! use uopcache_trace::{build_trace, AppId, InputVariant};
//!
//! let trace = build_trace(AppId::Postgres, InputVariant::default(), 3_000);
//! let cfg = UopCacheConfig::zen3();
//! let solution = foo::solve(&trace, &cfg, &FooConfig::foo_ohr());
//! let stats = replay::replay(&trace, &cfg, &solution, replay::EvictionTiming::Eager);
//! assert_eq!(stats.lookups, 3_000);
//! ```

mod belady;
pub mod foo;
pub mod identify;
pub mod occurrences;
pub mod optimal;
pub mod replay;

pub use belady::BeladyPolicy;
pub use foo::{FooConfig, FooSolution, IntervalMode, Objective};
pub use identify::{CandidateDigest, IdentifyVerdict};
pub use occurrences::OccurrenceIndex;
pub use optimal::{optimal_missed_uops, OptimalCost};
pub use replay::EvictionTiming;
