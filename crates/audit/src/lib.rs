//! # uopcache-audit
//!
//! The workspace's correctness-tooling layer: a zero-external-dependency
//! static-analysis pass plus a runtime policy-conformance harness.
//!
//! The paper's headline results (FLACK optimality, FURBYS miss reduction)
//! are only as trustworthy as the policy implementations — a single
//! off-by-one in victim indexing or slot recycling silently shifts every
//! figure. And the repo's operational guarantees (zero-allocation warmed
//! hot path, byte-identical output at any `--jobs`) were until v2 enforced
//! only *dynamically*, on the inputs the tests happen to run. This crate
//! guards those boundaries statically:
//!
//! * **Lint pass** ([`run_lint`]): a hand-rolled tokenizer ([`lexer`]) and
//!   item parser ([`parser`]) walk every workspace `.rs` file, build a
//!   workspace-wide call graph ([`callgraph`]), and run the graph analyses
//!   ([`reach`]) clippy cannot express: alloc-reachability from the hot-path
//!   roots, hash-order-dependence of canonical output, and lock/spawn
//!   discipline in the concurrent crates. Violations print `file:line`
//!   diagnostics with call-path traces; an inline `audit:allow(rule)`
//!   comment suppresses a justified exception. Token-level rules (unwrap,
//!   float equality, narrowing casts, std hash maps, ambient time,
//!   unbounded channels) are clippy's job: see the workspace lint table and
//!   `clippy.toml`.
//! * **Conformance harness** ([`run_conformance`]): drives all online
//!   replacement policies through seeded random PW streams under
//!   [`uopcache_cache::CheckedPolicy`] (feature `strict-invariants`), so any
//!   violation of the `PwReplacementPolicy` contract panics at the exact
//!   hook with a replayable diagnostic.
//!
//! Both halves are exposed through the CLI's `audit` subcommand, which
//! exits nonzero if either finds a problem; `audit --json` emits the
//! diagnostics as canonical JSON ([`diagnostics_json`]) and `audit
//! --graph` dumps the call graph ([`callgraph_json`]) for downstream
//! tooling.

pub mod callgraph;
pub mod conformance;
pub mod lexer;
pub mod parser;
pub mod reach;
pub mod rules;

pub use conformance::{run_conformance, ConformanceResult};
pub use rules::{
    callgraph_json, diagnostics_json, read_sources, run_lint, run_lint_sources, AuditReport,
    Diagnostic,
};
