//! # uopcache-exec
//!
//! The parallel experiment engine: a zero-dependency (std-only) scoped-thread
//! work-stealing pool that executes trees of simulation tasks in parallel
//! while guaranteeing **bit-identical results regardless of worker count or
//! scheduling order**. A task may return child tasks, which run after it
//! returns; [`Engine::run_tree`] starts a new root only when no child is
//! ready anywhere, so a subtree's inputs are freed before the next roots
//! build theirs.
//!
//! The determinism contract rests on three rules:
//!
//! 1. every task is named by a [`TaskKey`] — an ordered list of string
//!    components such as `["zen3", "kafka", "v0", "LRU"]`;
//! 2. any randomness a task needs comes from [`TaskKey::seed`], a SplitMix64
//!    finalisation of an FNV-1a hash of the key — a pure function of the key,
//!    never of submission order, worker id or wall clock;
//! 3. [`Engine::run_tree`] returns outcomes in **tree order** — each root
//!    in submission order, followed by its children's subtrees in the order
//!    it returned them — and [`Engine::run`], its childless case, in
//!    submission order (callers merge by key), so completion order never
//!    leaks into results.
//!
//! A panicking task is caught on its worker and surfaced as a structured
//! [`TaskFailure`] (key + seed + panic message) instead of aborting the
//! sweep; it runs none of its children, and every other task keeps
//! running. `Engine::new(1)` runs tasks inline on the caller thread,
//! reproducing the serial path exactly.
//!
//! # Examples
//!
//! ```
//! use uopcache_exec::{Engine, TaskKey};
//!
//! let tasks: Vec<(TaskKey, u64)> = (0..8u64)
//!     .map(|i| (TaskKey::new(["demo", &format!("task{i}")]), i))
//!     .collect();
//! let serial = Engine::new(1).run(tasks.clone(), |_k, seed, i| i.wrapping_mul(seed));
//! let parallel = Engine::new(4).run(tasks, |_k, seed, i| i.wrapping_mul(seed));
//! // Same keys, same seeds, same values, same order — regardless of jobs.
//! assert_eq!(serial.outcomes, parallel.outcomes);
//! ```

pub mod clock;
mod pool;
pub mod seed;

pub use clock::{Clock, Deadline, ManualClock, WallClock};
pub use pool::{Engine, SweepOutcome, TaskFailure, TaskOutcome, TaskProfile};
pub use seed::TaskKey;
