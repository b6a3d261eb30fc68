//! Simulation-as-a-service: a long-running daemon around the sweep engine.
//!
//! `uopcache-serve` turns the offline sweep pipeline into a TCP service
//! without changing a single result byte. Clients speak a length-prefixed,
//! schema-versioned JSON protocol ([`protocol`]); jobs are [`SweepSpec`]s
//! that flow through a bounded queue ([`job`]) into the same deterministic
//! exec engine the CLI uses, so a served report is byte-identical to
//! `uopcache sweep` for the same spec at any worker count.
//!
//! The daemon multiplexes every connection on a single nonblocking event
//! loop (`event`) and shards job execution by content-derived FNV-1a job
//! id ([`job::shard_for`]); the [`router`] consistent-hashes jobs across
//! several such daemons for multi-node serving. Both are configured through
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

pub mod client;
pub mod config;
mod event;
pub mod job;
pub mod protocol;
pub mod router;
pub mod server;

pub use client::{Client, ClientError, JobResult};
pub use config::{RouterConfig, RouterConfigBuilder, ServerConfig, ServerConfigBuilder};
pub use event::ServiceHandle;
pub use job::{
    job_id_for, shard_for, BoundedQueue, JobState, JobTable, QueueError, DEFAULT_JOB_RETENTION,
};
pub use protocol::{
    frame, read_frame, write_frame, FrameDecoder, FrameError, MAX_FRAME_BYTES, SCHEMA_VERSION,
};
pub use router::{Router, RouterHandle};
pub use server::{Runner, Server, ServerHandle};
