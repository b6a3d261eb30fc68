//! # uopcache-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation: the `reproduce-all` binary renders them all into
//! `EXPERIMENTS.md`, and the CLI's `uopcache experiment ID` prints one.
//! Every experiment is built on the shared machinery here:
//!
//! * [`apps`] — trace lengths and trace construction;
//! * [`policies`] — a name-indexed factory over every online policy;
//! * [`runs`] — the lab: one content-keyed memo of traces, FOO/FLACK
//!   solutions and simulated cells per run;
//! * [`sweep`] — the parallel sweep layer over a caller-built
//!   `uopcache-exec` engine: canonical task keying, spec validation,
//!   deterministic `(app × policy)` sweeps with canonical JSON reports, and
//!   the one cell simulation path the lab shares;
//! * `table` — paper-vs-measured table rendering;
//! * [`experiments`] — one function per table/figure, reading a lab and
//!   returning the tables [`experiments::reproduce`] renders.

pub mod apps;
pub mod experiments;
pub mod policies;
pub mod runs;
pub mod sweep;
mod table;

pub use apps::trace_for;
pub use table::Table;
