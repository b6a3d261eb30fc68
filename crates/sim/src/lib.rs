//! # uopcache-sim
//!
//! A trace-driven x86-style CPU frontend simulator centred on the micro-op
//! cache, in the spirit of the paper's customised Scarab setup. It models
//! exactly the structures the paper's numbers depend on (§VII):
//!
//! * the micro-op cache with **partial hits** and **asynchronous insertion**
//!   through the 5-cycle decode pipeline (insertions commit several cycles
//!   after the miss that produced them, so later lookups can miss on windows
//!   that are "in flight" — the asynchrony FLACK's lazy eviction targets);
//! * the L1 instruction cache with **strict inclusion** (an L1i eviction
//!   invalidates the overlapping PWs);
//! * a BTB and branch-misprediction penalties calibrated by the per-app
//!   Table II MPKI (carried on the trace);
//! * the 1-cycle switch penalty between the micro-op cache path and the
//!   legacy decode path, and decode-pipeline refill on each switch;
//! * a backend abstraction that absorbs micro-ops at a configurable IPC
//!   ceiling, so lower miss rates translate only *partially* into IPC — the
//!   effect the paper highlights for its 0.5 %-scale IPC gains.
//!
//! Every structure can be made *perfect* via
//! [`uopcache_model::PerfectStructures`] for the Figure 2 limit study.
//!
//! Frontends are constructed through [`Frontend::builder`]; with the default
//! `obs` feature a `uopcache_obs::Recorder` can be attached there to stream
//! every replacement decision out of the run.
//!
//! # Examples
//!
//! ```
//! use uopcache_cache::LruPolicy;
//! use uopcache_model::FrontendConfig;
//! use uopcache_sim::Frontend;
//! use uopcache_trace::{build_trace, AppId, InputVariant};
//!
//! let trace = build_trace(AppId::Kafka, InputVariant::default(), 5_000);
//! let mut frontend = Frontend::builder(FrontendConfig::zen3())
//!     .policy(LruPolicy::new())
//!     .build();
//! let result = frontend.run(&trace);
//! assert!(result.ipc() > 0.0);
//! assert!(result.uopc.uops_hit > 0);
//! ```

mod branch;
mod frontend;

pub use branch::{BranchSlice, BranchStream};
pub use frontend::{Frontend, FrontendBuilder, SimOptions};
