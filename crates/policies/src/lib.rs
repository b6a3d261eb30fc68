//! # uopcache-policies
//!
//! Online replacement-policy baselines for the micro-op cache, matching the
//! set the paper compares against (§III-E, §VI):
//!
//! * [`SrripPolicy`] — static re-reference interval prediction (2-bit RRPV).
//! * [`ShipPlusPlusPolicy`] — SHiP++: PC-signature history counter table.
//! * [`GhrpPolicy`] — global-history-based dead-block prediction with bypass.
//! * [`MockingjayPolicy`] — sampled reuse-distance prediction (ETA eviction).
//! * [`ThermometerPolicy`] — profile-guided hot/warm/cold classification.
//! * [`RandomPolicy`] / [`FifoPolicy`] — sanity baselines for tests.
//!
//! Plus the classic policy zoo the dynamic-selection work duels over:
//!
//! * [`ClockPolicy`] / [`CarPolicy`] — second-chance sweeps, plain and
//!   ARC-adaptive.
//! * [`ArcPolicy`] / [`TwoQPolicy`] — ghost-list history (B1/B2, A1out).
//! * [`SlruPolicy`] — segmented probation/protected LRU.
//! * [`LfuPolicy`] / [`MruPolicy`] — frequency-based and anti-recency
//!   extremes.
//! * [`SetDuelingPolicy`] — the meta-policy: K leader sets per candidate,
//!   saturating PSEL counters, followers switch to the phase winner.
//!
//! (LRU, the paper's baseline, lives in `uopcache-cache` as
//! [`uopcache_cache::LruPolicy`]; FURBYS, the paper's contribution, lives in
//! `uopcache-core`.)
//!
//! The crate also provides [`run_trace`], a synchronous insert-on-miss driver
//! used for policy comparisons that do not need frontend timing, and
//! [`profile::lru_pw_hit_rates`], the LRU profile Thermometer reads.
//!
//! # Examples
//!
//! ```
//! use uopcache_cache::UopCache;
//! use uopcache_model::UopCacheConfig;
//! use uopcache_policies::{run_trace, SrripPolicy};
//! use uopcache_trace::{build_trace, AppId, InputVariant};
//!
//! let trace = build_trace(AppId::Kafka, InputVariant::default(), 5_000);
//! let mut cache = UopCache::new(UopCacheConfig::zen3(), Box::new(SrripPolicy::new()));
//! let stats = run_trace(&mut cache, &trace);
//! assert!(stats.uops_hit > 0);
//! ```

mod arc;
mod car;
pub mod clock;
pub mod dueling;
mod fifo;
mod ghost;
mod ghrp;
mod lfu;
mod mockingjay;
mod mru;
pub mod profile;
mod random;
mod runner;
mod ship;
mod slots;
mod slru;
mod srrip;
mod thermometer;
mod twoq;

pub use arc::ArcPolicy;
pub use car::CarPolicy;
pub use clock::ClockPolicy;
pub use dueling::SetDuelingPolicy;
pub use fifo::FifoPolicy;
pub use ghrp::GhrpPolicy;
pub use lfu::LfuPolicy;
pub use mockingjay::MockingjayPolicy;
pub use mru::MruPolicy;
pub use random::RandomPolicy;
pub use runner::{run_trace, run_trace_observed};
pub use ship::ShipPlusPlusPolicy;
pub use slots::{SetTable, SlotTable};
pub use slru::SlruPolicy;
pub use srrip::SrripPolicy;
pub use thermometer::{HotClass, ThermometerPolicy};
pub use twoq::TwoQPolicy;
