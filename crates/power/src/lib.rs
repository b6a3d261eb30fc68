//! # uopcache-power
//!
//! A McPAT/CACTI-style per-core energy model for the simulated frontend.
//!
//! Like the paper's flow (McPAT fed with Scarab activity counts at 22 nm,
//! 3.2 GHz, 1.25 V), the model combines static per-event access energies with
//! the dynamic activity counts produced by `uopcache-sim`, and reports both a
//! per-structure breakdown (Fig. 13) and performance-per-watt (Figs. 2/9/17).
//!
//! The constants are calibrated against the paper's Fig. 13 anchors for a
//! baseline core *without* a micro-op cache: the decoder consumes ≈12.5 % and
//! the L1i ≈7.7 % of per-core energy; micro-op cache access energies follow
//! a CACTI-style sub-linear scaling in size and associativity (the structure
//! is modelled "following the same structure of the icache but with micro-op
//! cache parameters", §VI-C).
//!
//! # Examples
//!
//! ```
//! use uopcache_cache::LruPolicy;
//! use uopcache_model::FrontendConfig;
//! use uopcache_power::EnergyModel;
//! use uopcache_sim::Frontend;
//! use uopcache_trace::{build_trace, AppId, InputVariant};
//!
//! let cfg = FrontendConfig::zen3();
//! let trace = build_trace(AppId::Clang, InputVariant::default(), 5_000);
//! let result = Frontend::builder(cfg).policy(LruPolicy::new()).build().run(&trace);
//! let model = EnergyModel::zen3_22nm(&cfg);
//! let breakdown = model.evaluate(&result);
//! assert!(breakdown.total() > 0.0);
//! assert!(breakdown.ppw() > 0.0);
//! ```

mod energy;

pub use energy::{ppw_gain_percent, EnergyBreakdown, EnergyModel};
