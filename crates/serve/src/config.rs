//! Typed configuration for the daemon and the router.
//!
//! Both processes are configured through builders — [`ServerConfig::builder`]
//! and [`RouterConfig::builder`] — with typed fields (a [`SocketAddr`] bind
//! address, [`Duration`] timeouts, numeric bounds) instead of stringly
//! plumbing. The CLI, the tests and embedding code all build configs the
//! same way, so a knob added here is immediately available everywhere.
//!
//! Timeout bookkeeping runs on the exec crate's [`Clock`] seam: production
//! binds a `WallClock`, tests can inject a `ManualClock` and expire idle or
//! stalled connections deterministically.

use crate::job::DEFAULT_JOB_RETENTION;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;
use uopcache_exec::{Clock, WallClock};

/// The loopback wildcard-port default every builder starts from.
fn default_addr() -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], 0))
}

/// Connection-level tuning shared by the daemon and the router event loops.
#[derive(Clone)]
pub(crate) struct ConnTuning {
    /// The longest idle sleep of the event loop: idle passes back off from a
    /// sixteenth of it up to it, and a job-state change wakes the loop at
    /// once. Bounds wake-up latency for drains, deadlines and health flips.
    pub(crate) poll_interval: Duration,
    /// Close a connection after this long without a complete frame.
    pub(crate) idle_timeout: Duration,
    /// Abort a frame whose bytes stall longer than this mid-body.
    pub(crate) frame_stall_limit: Duration,
    /// Maximum concurrent connections; excess connects get a `busy` frame.
    pub(crate) max_connections: usize,
    /// After the drain finishes, spend at most this long flushing the last
    /// frames to connections before the loop exits anyway.
    pub(crate) drain_grace: Duration,
    /// The tick source for idle/stall/wait deadlines.
    pub(crate) clock: Arc<dyn Clock>,
}

impl std::fmt::Debug for ConnTuning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConnTuning")
            .field("poll_interval", &self.poll_interval)
            .field("idle_timeout", &self.idle_timeout)
            .field("frame_stall_limit", &self.frame_stall_limit)
            .field("max_connections", &self.max_connections)
            .field("drain_grace", &self.drain_grace)
            .finish_non_exhaustive()
    }
}

impl Default for ConnTuning {
    fn default() -> Self {
        ConnTuning {
            poll_interval: Duration::from_millis(1),
            idle_timeout: Duration::from_secs(120),
            frame_stall_limit: Duration::from_secs(10),
            max_connections: 4096,
            drain_grace: Duration::from_secs(5),
            clock: Arc::new(WallClock::new()),
        }
    }
}

/// Daemon tuning knobs, built through [`ServerConfig::builder`]. `Default`
/// is sized for loopback serving and tests: ephemeral port, one shard, a
/// 16-slot queue.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (port 0 picks an ephemeral port).
    pub(crate) addr: SocketAddr,
    /// Total queued-job bound, split evenly across shards; a job that finds
    /// every shard's slice full gets a `busy` frame.
    pub(crate) queue_capacity: usize,
    /// Worker shards: independent executors with shard-local queues; each
    /// fresh job goes to the one with the fewest jobs in flight.
    pub(crate) shards: usize,
    /// Engine worker count per job (`0` = the machine's parallelism).
    pub(crate) jobs: usize,
    /// Default per-job start deadline measured from acceptance; a job still
    /// queued past it fails instead of running. `None` = no deadline.
    pub(crate) job_timeout: Option<Duration>,
    /// Terminal jobs retained in the table for late `status`/`result`
    /// fetches; past this the oldest finished entries are evicted.
    pub(crate) job_retention: usize,
    /// Shared connection tuning.
    pub(crate) tuning: ConnTuning,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig::builder().build()
    }
}

impl ServerConfig {
    /// Starts a builder from the defaults.
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            cfg: ServerConfig {
                addr: default_addr(),
                queue_capacity: 16,
                shards: 1,
                jobs: 0,
                job_timeout: None,
                job_retention: DEFAULT_JOB_RETENTION,
                tuning: ConnTuning::default(),
            },
        }
    }
}

/// Builder for [`ServerConfig`]; every setter is optional.
#[derive(Clone, Debug)]
pub struct ServerConfigBuilder {
    cfg: ServerConfig,
}

impl ServerConfigBuilder {
    /// Bind address (use port 0 for an ephemeral port).
    #[must_use]
    pub fn addr(mut self, addr: SocketAddr) -> Self {
        self.cfg.addr = addr;
        self
    }

    /// Total queued-job bound across all shards (clamped to ≥ 1 per shard).
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.cfg.queue_capacity = capacity;
        self
    }

    /// Worker shard count (clamped to ≥ 1).
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.cfg.shards = shards.max(1);
        self
    }

    /// Engine worker count per job (`0` = the machine's parallelism).
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.cfg.jobs = jobs;
        self
    }

    /// Default per-job start deadline (None = no deadline).
    #[must_use]
    pub fn job_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.cfg.job_timeout = timeout;
        self
    }

    /// Retained terminal jobs (clamped to ≥ 1).
    #[must_use]
    pub fn job_retention(mut self, retention: usize) -> Self {
        self.cfg.job_retention = retention.max(1);
        self
    }

    /// The event loop's longest idle sleep. Idle passes back off up to it
    /// from a sixteenth of it; job completions wake the loop at once.
    #[must_use]
    pub fn poll_interval(mut self, interval: Duration) -> Self {
        self.cfg.tuning.poll_interval = interval;
        self
    }

    /// Tick source for connection deadlines (default: a wall clock).
    #[must_use]
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.cfg.tuning.clock = clock;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> ServerConfig {
        self.cfg
    }
}

/// Router tuning knobs, built through [`RouterConfig::builder`].
///
/// A router owns no engine: it consistent-hashes jobs across a fixed set of
/// `uopcache serve` backends, health-checks them on an interval, spills
/// busy submissions over to ring successors, and fails over when a backend
/// dies or drains.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Bind address for the router's own listener.
    pub(crate) addr: SocketAddr,
    /// The backend daemons to route across (at least one required to bind).
    pub(crate) backends: Vec<SocketAddr>,
    /// Virtual nodes per backend on the consistent-hash ring.
    pub(crate) replicas: usize,
    /// How often the health thread probes every backend.
    pub(crate) health_interval: Duration,
    /// Pending-forward bound per backend; pushes beyond it get `busy`.
    pub(crate) queue_capacity: usize,
    /// Full passes over the backend set before a job fails over to an error.
    pub(crate) retry_rounds: usize,
    /// Delay between failover passes.
    pub(crate) retry_backoff: Duration,
    /// Terminal jobs retained for late `status`/`result` fetches.
    pub(crate) job_retention: usize,
    /// Shared connection tuning.
    pub(crate) tuning: ConnTuning,
}

impl RouterConfig {
    /// Starts a builder from the defaults (no backends yet — add at least
    /// one before binding).
    pub fn builder() -> RouterConfigBuilder {
        RouterConfigBuilder {
            cfg: RouterConfig {
                addr: default_addr(),
                backends: Vec::with_capacity(4),
                replicas: 64,
                health_interval: Duration::from_secs(2),
                queue_capacity: 16,
                retry_rounds: 3,
                retry_backoff: Duration::from_millis(50),
                job_retention: DEFAULT_JOB_RETENTION,
                tuning: ConnTuning::default(),
            },
        }
    }
}

/// Builder for [`RouterConfig`]; add backends with
/// [`backend`](RouterConfigBuilder::backend)/[`backends`](RouterConfigBuilder::backends).
#[derive(Clone, Debug)]
pub struct RouterConfigBuilder {
    cfg: RouterConfig,
}

impl RouterConfigBuilder {
    /// Bind address (use port 0 for an ephemeral port).
    #[must_use]
    pub fn addr(mut self, addr: SocketAddr) -> Self {
        self.cfg.addr = addr;
        self
    }

    /// Adds one backend daemon address.
    #[must_use]
    pub fn backend(mut self, addr: SocketAddr) -> Self {
        self.cfg.backends.push(addr);
        self
    }

    /// Replaces the backend set.
    #[must_use]
    pub fn backends<I: IntoIterator<Item = SocketAddr>>(mut self, addrs: I) -> Self {
        self.cfg.backends.clear();
        self.cfg.backends.extend(addrs);
        self
    }

    /// Virtual nodes per backend on the ring (clamped to ≥ 1).
    #[must_use]
    pub fn replicas(mut self, replicas: usize) -> Self {
        self.cfg.replicas = replicas.max(1);
        self
    }

    /// Health-probe interval.
    #[must_use]
    pub fn health_interval(mut self, interval: Duration) -> Self {
        self.cfg.health_interval = interval;
        self
    }

    /// Pending-forward bound per backend (clamped to ≥ 1).
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.cfg.queue_capacity = capacity.max(1);
        self
    }

    /// Full failover passes over the backend set before a job errors.
    #[must_use]
    pub fn retry_rounds(mut self, rounds: usize) -> Self {
        self.cfg.retry_rounds = rounds.max(1);
        self
    }

    /// Delay between failover passes.
    #[must_use]
    pub fn retry_backoff(mut self, backoff: Duration) -> Self {
        self.cfg.retry_backoff = backoff;
        self
    }

    /// Retained terminal jobs (clamped to ≥ 1).
    #[must_use]
    pub fn job_retention(mut self, retention: usize) -> Self {
        self.cfg.job_retention = retention.max(1);
        self
    }

    /// The event loop's longest idle sleep. Idle passes back off up to it
    /// from a sixteenth of it; job completions wake the loop at once.
    #[must_use]
    pub fn poll_interval(mut self, interval: Duration) -> Self {
        self.cfg.tuning.poll_interval = interval;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> RouterConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_builder_clamps_and_defaults() {
        let cfg = ServerConfig::builder().shards(0).job_retention(0).build();
        assert_eq!(cfg.shards, 1);
        assert_eq!(cfg.job_retention, 1);
        assert_eq!(cfg.addr.port(), 0, "default bind is ephemeral");
        assert_eq!(cfg.queue_capacity, 16);
    }

    #[test]
    fn router_builder_accumulates_backends() {
        let a: SocketAddr = "127.0.0.1:7001".parse().expect("addr parses");
        let b: SocketAddr = "127.0.0.1:7002".parse().expect("addr parses");
        let cfg = RouterConfig::builder()
            .backend(a)
            .backend(b)
            .replicas(0)
            .build();
        assert_eq!(cfg.backends, vec![a, b]);
        assert_eq!(cfg.replicas, 1, "replicas clamp to one vnode");
        let replaced = RouterConfig::builder().backends([b]).build();
        assert_eq!(replaced.backends, vec![b]);
    }
}
