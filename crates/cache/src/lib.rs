//! # uopcache-cache
//!
//! Cache substrates for the `uopcache` workspace:
//!
//! * [`UopCache`] — the micro-op cache storage structure: set-associative at
//!   *entry* granularity, managed at *prediction-window* granularity, with
//!   partial hits between overlapping PWs and strict inclusion in L1i.
//! * [`PwReplacementPolicy`] — the trait every replacement policy (online and
//!   offline-replay) implements.
//! * [`LineCache`] — a conventional set-associative LRU line cache used for
//!   the L1 instruction cache and the BTB.
//! * [`ShadowFaCache`] — a fully-associative LRU shadow used to split misses
//!   into cold / capacity / conflict (the §III-B study).
//!
//! With the default `obs` feature, [`UopCache::set_recorder`] installs a
//! `uopcache_obs::Recorder` that receives one structured event per lookup /
//! insert / evict / bypass / invalidate; build with `--no-default-features`
//! to compile the emission paths out entirely.
//!
//! # Examples
//!
//! ```
//! use uopcache_cache::{LruPolicy, LookupResult, UopCache};
//! use uopcache_model::{Addr, PwDesc, PwTermination, UopCacheConfig};
//!
//! let mut cache = UopCache::new(UopCacheConfig::zen3(), Box::new(LruPolicy::new()));
//! let pw = PwDesc::new(Addr::new(0x100), 6, 18, PwTermination::TakenBranch);
//! assert_eq!(cache.lookup(&pw), LookupResult::Miss);
//! cache.insert(&pw);
//! assert_eq!(cache.lookup(&pw), LookupResult::Hit { uops: 6 });
//! ```

#[cfg(feature = "strict-invariants")]
pub mod checked;
mod classify;
mod linecache;
mod lru;
mod meta;
mod policy;
mod pwset;
mod shadow;
pub mod uopcache;

#[cfg(feature = "strict-invariants")]
pub use checked::CheckedPolicy;
pub use linecache::{LineCache, LineOutcome};
pub use lru::LruPolicy;
pub use meta::PwMeta;
pub use policy::PwReplacementPolicy;
pub use shadow::ShadowFaCache;
pub use uopcache::{InsertOutcome, LookupResult, UopCache};
