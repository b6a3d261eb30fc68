//! Simulation-as-a-service: a long-running daemon around the sweep engine.
//!
//! `uopcache-serve` turns the offline sweep pipeline into a TCP service
//! without changing a single result byte. Clients speak a length-prefixed,
//! schema-versioned JSON protocol ([`protocol`]); jobs are [`SweepSpec`]s
//! that flow through a bounded queue (`job`) into the same deterministic
//! exec engine the CLI uses, so a served report is byte-identical to
//! `uopcache sweep` for the same spec at any worker count.
//!
//! The daemon multiplexes every connection on a single nonblocking event
//! loop (`event`) and places each job on its least-loaded shard, ties going
//! in order from the home shard of its content-derived FNV-1a id
//! ([`job::shard_for`]); the `router` places jobs the same way across
//! several such daemons, ties following a consistent-hash ring. Both are configured through
//! typed builders ([`ServerConfig::builder`], [`RouterConfig::builder`]) and
//! spoken to through the typed [`Client`].
//!
//! The service is built for unattended operation:
//!
//! * bounded per-shard queues + `busy` frames (429-style) instead of
//!   unbounded buffering,
//! * panic isolation around every job,
//! * per-job and per-connection timeouts on an injectable clock seam,
//! * content-derived job ids for idempotent client retries,
//! * a `stats` endpoint backed by the obs metrics registry,
//! * graceful drain-then-exit on the `shutdown` frame,
//! * health-checked, drain-aware failover across router backends.
//!
//! [`SweepSpec`]: uopcache_bench::sweep::SweepSpec

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "job ids are untrusted input, so the daemon keeps std's SipHash maps; \
              its idle, stall and start deadlines are real wall-clock time"
)]

mod client;
pub mod config;
mod event;
mod job;
pub mod protocol;
mod router;
pub mod server;

pub use client::{Client, ClientError, JobResult};
pub use config::{RouterConfig, RouterConfigBuilder, ServerConfig, ServerConfigBuilder};
pub use event::ServiceHandle;
pub use job::{shard_for, DEFAULT_JOB_RETENTION};
pub use protocol::{frame, read_frame, write_frame, FrameDecoder, FrameError, MAX_FRAME_BYTES};
pub use router::{Router, RouterHandle};
pub use server::{Runner, Server, ServerHandle};
