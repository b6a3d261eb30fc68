//! The daemon: a nonblocking event loop in front of sharded job executors.
//!
//! ## Architecture
//!
//! One acceptor thread runs the event loop, multiplexing every client
//! connection (`set_nonblocking` + readiness polling — no thread per
//! connection). Admission, the job lanes and their workers are shared with
//! the router; what is the daemon's own is placement and execution.
//! Accepted jobs land on one of `shards` worker shards, each a lane (a
//! bounded queue plus one executor thread). Placement is least-loaded: a
//! fresh job goes to the shard with the fewest jobs queued or running,
//! ties going to the first in order from the home shard its content-derived
//! FNV-1a id hashes to, so a job never waits behind another while a shard
//! sits idle. Dedupe happens before placement, in the daemon-wide job table:
//! identical submissions share an id and therefore one job, whichever shard
//! runs it.
//!
//! ## Robustness model
//!
//! * **Backpressure** — jobs land in per-shard
//!   `BoundedQueue`s; a full shard spills to
//!   the next, and when every shard is full the daemon answers with a
//!   `busy` frame (`"code": 429`) instead of buffering.
//!   A rejected submission leaves no job-table entry, so the retry the busy
//!   frame asks for re-enqueues instead of deduping onto a dead rejection.
//!   The table itself retains at most `job_retention` finished jobs (oldest
//!   evicted), so memory use is bounded by `queue_capacity` +
//!   `job_retention` regardless of client behaviour or uptime.
//! * **Panic isolation** — each executor wraps every job in `catch_unwind`;
//!   a panicking job becomes a `failed` state surfaced as an `error` frame
//!   while the daemon keeps serving. (Per-cell panics inside a job never even
//!   reach that: the exec pool turns them into structured failure rows of the
//!   report, exactly as the offline `sweep` does.)
//! * **Timeouts** — the event loop polices per-connection idle and
//!   frame-stall deadlines on the exec crate's clock seam; jobs that wait in
//!   the queue past their start deadline, timed on the same clock, fail with
//!   a timeout message instead of running stale.
//! * **Graceful drain** — a `shutdown` frame closes every shard queue and
//!   stops accepting; queued and running jobs finish, waiting clients
//!   receive their results, and only then does [`Server::run`] return.
//!
//! ## Determinism
//!
//! Job results are produced by [`run_sweep`] with task keys derived purely
//! from the spec (config, variant, length, app, policy) — never from the
//! worker count, shard index, queue order or wall clock — so a served result
//! is byte-identical to the same spec run through the offline
//! `uopcache sweep` CLI at any `--jobs` value and any shard count.

use crate::config::ServerConfig;
use crate::event::{panic_message, serve, LaneRunner, Service, ServiceCore, ServiceHandle};
use crate::job::shard_for;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use uopcache_bench::sweep::{run_sweep, SweepSpec};
use uopcache_exec::Engine;
use uopcache_model::json::Json;

/// The signature of the job execution hook: spec in, canonical report JSON
/// out. The default runner is [`run_sweep`] + `to_json`; tests inject
/// blocking or panicking runners to exercise the robustness paths
/// deterministically.
pub type Runner = dyn Fn(&SweepSpec, &Engine) -> String + Send + Sync;

/// A running in-process server (see [`Server::spawn`]).
pub type ServerHandle = ServiceHandle;

struct ServerShared {
    cfg: ServerConfig,
    core: ServiceCore,
    runner: Box<Runner>,
}

impl Service for ServerShared {
    fn core(&self) -> &ServiceCore {
        &self.core
    }

    /// Every shard, starting at the id's home shard.
    fn candidates(&self, id: &str) -> Vec<usize> {
        let shards = self.core.lanes.len();
        let home = shard_for(id, shards);
        (0..shards).map(|k| (home + k) % shards).collect()
    }

    /// Each shard executor owns an engine and wraps every job in
    /// `catch_unwind`, so a panicking job fails alone.
    fn lane_runner(&self, idx: usize) -> LaneRunner<'_> {
        let jobs = if self.cfg.jobs == 0 {
            Engine::default_parallelism()
        } else {
            self.cfg.jobs
        };
        let engine = Engine::new(jobs);
        Box::new(move |job| {
            match catch_unwind(AssertUnwindSafe(|| (self.runner)(&job.spec, &engine))) {
                Ok(report) => {
                    self.core.count(&format!("shard{idx}_jobs_completed"));
                    Ok(report)
                }
                Err(payload) => {
                    self.core.count(&format!("shard{idx}_jobs_failed"));
                    Err(panic_message(payload.as_ref()))
                }
            }
        })
    }

    fn lane_stats(&self) -> (&'static str, Json) {
        let shards = self
            .core
            .lanes
            .iter()
            .enumerate()
            .map(|(idx, lane)| {
                let depth = lane.queue.depth() as u64;
                self.core
                    .set_gauge(&format!("shard{idx}_queue_depth"), depth);
                Json::Obj(vec![
                    ("depth".to_string(), Json::U64(depth)),
                    (
                        "capacity".to_string(),
                        Json::U64(lane.queue.capacity() as u64),
                    ),
                ])
            })
            .collect();
        ("shards", Json::Arr(shards))
    }
}

/// The bound daemon; [`run`](Self::run) serves until drained.
pub struct Server {
    listener: TcpListener,
    shared: Arc<ServerShared>,
}

impl Server {
    /// Binds with the default runner ([`run_sweep`] rendered canonically).
    ///
    /// # Errors
    ///
    /// Any socket bind failure.
    pub fn bind(cfg: ServerConfig) -> io::Result<Server> {
        Self::bind_with_runner(
            cfg,
            Box::new(|spec, engine| run_sweep(spec, engine).to_json()),
        )
    }

    /// Binds with an injected job runner (the test seam for backpressure,
    /// panic-isolation and drain scenarios).
    ///
    /// # Errors
    ///
    /// Any socket bind failure.
    pub fn bind_with_runner(cfg: ServerConfig, runner: Box<Runner>) -> io::Result<Server> {
        let listener = TcpListener::bind(cfg.addr)?;
        listener.set_nonblocking(true)?;
        // The total queue bound splits evenly across shards (each clamped to
        // at least one slot); capacity gauges report the effective sum.
        let core = ServiceCore::new(
            cfg.shards,
            (cfg.queue_capacity / cfg.shards).max(1),
            cfg.job_retention,
            cfg.job_timeout,
            &cfg.tuning,
            "run_ms",
        );
        Ok(Server {
            listener,
            shared: Arc::new(ServerShared { cfg, core, runner }),
        })
    }

    /// The bound address (useful with an ephemeral `:0` bind).
    ///
    /// # Errors
    ///
    /// Any socket introspection failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a `shutdown` frame arrives and the drain completes:
    /// every shard queue empties, running jobs finish, waiting clients get
    /// their final frames, and buffered replies flush (bounded by
    /// `drain_grace`).
    ///
    /// # Errors
    ///
    /// Any listener failure other than the nonblocking-poll `WouldBlock`.
    pub fn run(self) -> io::Result<()> {
        serve(
            &self.listener,
            &self.shared,
            &self.shared.cfg.tuning,
            "uopcache-serve-exec",
        )
    }

    /// Runs the server on a background thread, returning a handle with the
    /// bound address — the in-process harness the e2e tests drive.
    ///
    /// # Errors
    ///
    /// Any socket introspection or thread-spawn failure.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        ServiceHandle::launch("uopcache-serve-accept", addr, move || self.run())
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.listener.local_addr().ok())
            .field("shards", &self.shared.core.lanes.len())
            .field("queue_capacity", &self.shared.core.total_capacity())
            .finish()
    }
}
