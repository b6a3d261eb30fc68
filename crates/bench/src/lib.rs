//! # uopcache-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation. One `harness = false` bench target runs them all (so
//! `cargo bench` reproduces the whole evaluation), or only the ids given
//! after `--`: `cargo bench -p uopcache-bench --bench experiments -- fig08`.
//! Every experiment is built on the shared machinery here:
//!
//! * [`apps`] — the standard application set, trace lengths and cached trace
//!   construction;
//! * [`policies`] — a name-indexed factory over every online policy;
//! * [`runs`] — memoised per-(app, policy, config) simulation runs;
//! * [`sweep`] — the parallel sweep layer over the `uopcache-exec` engine:
//!   process-wide `--jobs` knob, canonical task keying, deterministic
//!   `(app × policy)` sweeps with canonical JSON reports;
//! * [`table`] — paper-vs-measured table rendering;
//! * [`experiments`] — one function per table/figure, returning structured
//!   results the `reproduce-all` binary serialises into `EXPERIMENTS.md`.

pub mod apps;
pub mod experiments;
pub mod hotpath;
pub mod policies;
pub mod runs;
pub mod sweep;
pub mod table;

pub use apps::{standard_apps, trace_for, TRACE_LEN};
pub use table::Table;
