//! # uopcache-core
//!
//! The paper's primary contribution: **FLACK**, a near-optimal offline
//! replacement policy for the micro-op cache, and **FURBYS**, the practical
//! profile-guided online policy that mimics it.
//!
//! ## FLACK (offline, near-optimal)
//!
//! [`Flack`] extends the flow-based offline optimal (FOO, in
//! `uopcache-offline`) with the three micro-op cache properties that make
//! Belady and plain FOO sub-optimal (§III):
//!
//! 1. **Variable disproportional costs** — the benefit of a kept window is
//!    its micro-ops (`cost/size` per entry), not 1 per object or per byte;
//! 2. **Partial hits** — coverage intervals let a stored window serve
//!    overlapping lookups with the same start address, and the larger window
//!    is preferentially kept;
//! 3. **Asynchronous lookup/insertion** — lazy eviction keeps a
//!    to-be-evicted window resident until the space is actually needed.
//!
//! ## FURBYS (online, practical)
//!
//! [`FurbysPolicy`] consumes a FLACK-derived profile: per-start-address hit
//! rates are grouped into `2^bits` weight classes per cache set with the
//! Jenks natural-breaks algorithm ([`jenks`]), injected into the binary as
//! 3-bit hints ([`HintMap`]), and used online to (a) evict the minimum-weight
//! resident, (b) degrade to SRRIP for one decision when the depth-2 local
//! miss-pitfall detector sees the same way evicted repeatedly, and (c)
//! bypass insertions whose weight is below the set minimum minus `K`.
//!
//! [`FurbysPipeline`] wires the whole 7-step procedure together.
//!
//! # Examples
//!
//! ```
//! use uopcache_core::{Flack, FurbysPipeline};
//! use uopcache_model::FrontendConfig;
//! use uopcache_trace::{build_trace, AppId, InputVariant};
//!
//! let cfg = FrontendConfig::zen3();
//! let train = build_trace(AppId::Kafka, InputVariant::default(), 8_000);
//!
//! // Offline bound.
//! let flack = Flack::new().run(&train, &cfg.uop_cache);
//! assert!(flack.stats.uops_hit > 0);
//!
//! // Practical policy, profiled on the same trace.
//! let pipeline = FurbysPipeline::new(cfg);
//! let profile = pipeline.profile(&train);
//! let result = pipeline.deploy_and_run(&profile, &train);
//! assert!(result.uopc.uops_hit > 0);
//! ```

pub mod flack;
mod furbys;
mod hints;
pub mod jenks;
pub mod phased;
mod pipeline;
mod weights;

pub use flack::{Flack, FlackOutcome};
pub use furbys::FurbysPolicy;
pub use hints::HintMap;
pub use phased::{PhasedFurbysPolicy, PhasedProfile};
pub use pipeline::{FurbysPipeline, OracleKind, Profile};
pub use weights::{compute_weights, WeightConfig};
