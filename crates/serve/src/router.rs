//! The multi-node router: consistent-hash job placement across backends.
//!
//! `uopcache route` runs the same nonblocking event loop and speaks the same
//! wire protocol as `uopcache serve` — clients cannot tell them apart — but
//! owns no engine. Each accepted job is placed on a consistent-hash ring of
//! backend daemons keyed by the job's content-derived FNV-1a id, then
//! forwarded through the typed [`Client`] and its report stored in the
//! router's own job table. Because backends produce byte-identical reports
//! for a spec regardless of worker count, *which* backend runs a job never
//! shows in the bytes — placement is purely a load/locality decision.
//!
//! ## The ring
//!
//! Every backend contributes `replicas` virtual nodes (FNV-1a of
//! `"{addr}#{replica}"`). A job maps to the first virtual node clockwise
//! from its id hash; the walk continues to the next *distinct* backend for
//! failover order. Identical jobs therefore dedupe twice — once at the
//! router's table, and again shard-locally at the owning backend, which sees
//! the same id.
//!
//! ## Health, spillover, failover
//!
//! * A health thread probes every backend each `health_interval` with a
//!   `stats` frame: unreachable → unhealthy (evicted from placement until it
//!   answers again); `"draining": true` → drain-aware eviction (the backend
//!   finishes its in-flight jobs, gets no new work).
//! * **Busy spillover**: a `busy` backend (or a full forward queue) spills
//!   the job to the next distinct backend on the ring.
//! * **Failover**: a forward that dies mid-flight (connect refused, socket
//!   error, timeout) marks the backend unhealthy and retries the job on the
//!   ring successors — up to `retry_rounds` full passes — producing the same
//!   bytes wherever it lands. A job the backend *ran* and failed
//!   (panic/queue-timeout) is not retried: deterministic failures would fail
//!   everywhere.

use crate::client::{Client, ClientError};
use crate::config::RouterConfig;
use crate::event::{serve, LaneRunner, Service, ServiceCore, ServiceHandle};
use crate::job::{fnv1a64, QueuedJob};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use uopcache_model::json::Json;

/// A running in-process router (see [`Router::spawn`]).
pub type RouterHandle = ServiceHandle;

/// The consistent-hash ring: sorted virtual nodes mapping hash points to
/// backend indices. The backend set is fixed at startup; health flags decide
/// *eligibility* at placement time, so the ring itself never changes and the
/// owner of a job id is stable across the router's lifetime.
struct Ring {
    points: Vec<(u64, usize)>,
    backends: usize,
}

impl Ring {
    fn new(addrs: &[SocketAddr], replicas: usize) -> Ring {
        let mut points = Vec::with_capacity(addrs.len() * replicas);
        for (idx, addr) in addrs.iter().enumerate() {
            for replica in 0..replicas {
                points.push((fnv1a64(format!("{addr}#{replica}").as_bytes()), idx));
            }
        }
        points.sort_unstable();
        Ring {
            points,
            backends: addrs.len(),
        }
    }

    /// Every backend in ring order starting at the owner of `key`: the first
    /// entry is the preferred placement, the rest the spillover/failover
    /// order. Each backend appears once.
    fn order_for(&self, key: u64) -> Vec<usize> {
        let start = self
            .points
            .partition_point(|&(h, _)| h < key)
            .checked_rem(self.points.len())
            .unwrap_or(0);
        let mut seen = vec![false; self.backends];
        let mut order = Vec::with_capacity(self.backends);
        for offset in 0..self.points.len() {
            let (_, idx) = self.points[(start + offset) % self.points.len()];
            if !seen[idx] {
                seen[idx] = true;
                order.push(idx);
            }
            if order.len() == self.backends {
                break;
            }
        }
        order
    }
}

/// One backend daemon as the router sees it; its pending forwards wait in
/// the core's lane of the same index.
struct Backend {
    addr: SocketAddr,
    /// Cleared when a probe or forward fails, set again when one succeeds.
    healthy: AtomicBool,
    /// Set when the backend reports `"draining": true` (or answers a submit
    /// with a draining `busy`): it finishes in-flight work, gets no new jobs.
    draining: AtomicBool,
}

struct RouterShared {
    cfg: RouterConfig,
    core: ServiceCore,
    backends: Vec<Backend>,
    ring: Ring,
    /// Tells the health thread to exit after the drain.
    stop_health: AtomicBool,
}

impl RouterShared {
    /// Whether a backend may receive *new* work right now.
    fn placeable(&self, idx: usize) -> bool {
        let b = &self.backends[idx];
        b.healthy.load(Ordering::SeqCst) && !b.draining.load(Ordering::SeqCst)
    }
}

impl Service for RouterShared {
    fn core(&self) -> &ServiceCore {
        &self.core
    }

    /// Busy-aware spillover at admission: the ring walk from the owner,
    /// minus unhealthy/draining backends (full queues spill to the next).
    fn candidates(&self, id: &str) -> Vec<usize> {
        let mut order = self.ring.order_for(fnv1a64(id.as_bytes()));
        order.retain(|&idx| self.placeable(idx));
        order
    }

    fn placed(&self, lane: usize) {
        self.core.count(&format!("backend{lane}_routed"));
    }

    fn lane_runner(&self, idx: usize) -> LaneRunner<'_> {
        Box::new(move |job| forward_job(self, idx, job))
    }

    fn lane_stats(&self) -> (&'static str, Json) {
        let backends = self
            .backends
            .iter()
            .zip(&self.core.lanes)
            .enumerate()
            .map(|(idx, (b, lane))| {
                let depth = lane.queue.depth() as u64;
                let healthy = b.healthy.load(Ordering::SeqCst);
                self.core
                    .set_gauge(&format!("backend{idx}_queue_depth"), depth);
                self.core
                    .set_gauge(&format!("backend{idx}_healthy"), u64::from(healthy));
                Json::Obj(vec![
                    ("addr".to_string(), Json::Str(b.addr.to_string())),
                    ("healthy".to_string(), Json::Bool(healthy)),
                    (
                        "draining".to_string(),
                        Json::Bool(b.draining.load(Ordering::SeqCst)),
                    ),
                    ("queue_depth".to_string(), Json::U64(depth)),
                ])
            })
            .collect();
        ("backends", Json::Arr(backends))
    }
}

/// The bound router; [`run`](Self::run) serves until drained.
pub struct Router {
    listener: TcpListener,
    shared: Arc<RouterShared>,
}

impl Router {
    /// Binds the router's listener and wires up the backend ring.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when no backends were configured, otherwise any socket
    /// bind failure.
    pub fn bind(cfg: RouterConfig) -> io::Result<Router> {
        if cfg.backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one backend",
            ));
        }
        let listener = TcpListener::bind(cfg.addr)?;
        listener.set_nonblocking(true)?;
        let ring = Ring::new(&cfg.backends, cfg.replicas);
        let mut backends = Vec::with_capacity(cfg.backends.len());
        for &addr in &cfg.backends {
            backends.push(Backend {
                addr,
                // Optimistic until the first probe or forward says otherwise.
                healthy: AtomicBool::new(true),
                draining: AtomicBool::new(false),
            });
        }
        let core = ServiceCore::new(
            cfg.backends.len(),
            cfg.queue_capacity,
            cfg.job_retention,
            cfg.job_timeout,
            &cfg.tuning,
            "forward_ms",
        );
        Ok(Router {
            listener,
            shared: Arc::new(RouterShared {
                cfg,
                core,
                backends,
                ring,
                stop_health: AtomicBool::new(false),
            }),
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

    /// How many backends the router was configured with.
    pub fn backend_count(&self) -> usize {
        self.shared.backends.len()
    }

    /// Serves until a `shutdown` frame arrives and the drain completes:
    /// every pending forward finishes on some backend, waiting clients get
    /// their final frames, and buffered replies flush.
    ///
    /// # Errors
    ///
    /// Any listener failure other than the nonblocking-poll `WouldBlock`.
    // audit:spawn-site — health thread, joined after the lanes drain
    pub fn run(self) -> io::Result<()> {
        let health = {
            let shared = Arc::clone(&self.shared);
            std::thread::Builder::new()
                .name("uopcache-route-health".to_string())
                .spawn(move || health_loop(&shared))?
        };
        let result = serve(
            &self.listener,
            &self.shared,
            &self.shared.cfg.tuning,
            "uopcache-route-fwd",
        );
        self.shared.stop_health.store(true, Ordering::SeqCst);
        let _ = health.join();
        result
    }

    /// Runs the router on a background thread, returning a handle with the
    /// bound address — the in-process harness the e2e tests drive.
    ///
    /// # Errors
    ///
    /// Any socket introspection or thread-spawn failure.
    pub fn spawn(self) -> io::Result<RouterHandle> {
        let addr = self.local_addr()?;
        ServiceHandle::launch("uopcache-route-accept", addr, move || self.run())
    }
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("addr", &self.listener.local_addr().ok())
            .field("backends", &self.shared.backends.len())
            .finish()
    }
}

/// Forwards one job, retrying along the ring: the queued owner first, then
/// each distinct successor, for up to `retry_rounds` passes. Transport
/// failures mark a backend unhealthy and move on; a backend-side job failure
/// is final (deterministic — it would fail identically everywhere).
fn forward_job(shared: &RouterShared, owner: usize, job: &QueuedJob) -> Result<String, String> {
    let ring_order = shared.ring.order_for(fnv1a64(job.id.as_bytes()));
    // The queued owner leads (admission may already have spilled the job off
    // its ring owner), then the ring order minus the owner.
    let mut order = Vec::with_capacity(ring_order.len());
    order.push(owner);
    order.extend(ring_order.into_iter().filter(|&b| b != owner));

    let mut last_failure = "no backend attempted".to_string();
    for round in 0..shared.cfg.retry_rounds {
        for &idx in &order {
            let backend = &shared.backends[idx];
            if backend.draining.load(Ordering::SeqCst) {
                continue; // drain-aware: no new work to a draining backend
            }
            // On the first pass trust the health flags; later passes probe
            // even "unhealthy" backends in case the flags are stale.
            if round == 0 && !backend.healthy.load(Ordering::SeqCst) && order.len() > 1 {
                continue;
            }
            match forward_once(shared, idx, job) {
                Ok(report) => {
                    backend.healthy.store(true, Ordering::SeqCst);
                    shared.core.count(&format!("backend{idx}_forwarded"));
                    return Ok(report);
                }
                Err(ForwardError::Busy { draining }) => {
                    if draining {
                        backend.draining.store(true, Ordering::SeqCst);
                    }
                    shared.core.count(&format!("backend{idx}_spilled"));
                    last_failure = format!("backend {} busy", backend.addr);
                }
                Err(ForwardError::Transport(message)) => {
                    backend.healthy.store(false, Ordering::SeqCst);
                    shared.core.count(&format!("backend{idx}_errors"));
                    last_failure = format!("backend {}: {message}", backend.addr);
                }
                Err(ForwardError::JobFailed(message)) => return Err(message),
            }
        }
        if round + 1 < shared.cfg.retry_rounds {
            std::thread::sleep(shared.cfg.retry_backoff);
        }
    }
    Err(format!(
        "no backend could run the job after {} passes (last: {last_failure})",
        shared.cfg.retry_rounds
    ))
}

enum ForwardError {
    /// The backend refused admission (full queue or draining): spill over.
    Busy { draining: bool },
    /// The backend was unreachable or died mid-flight: fail over.
    Transport(String),
    /// The backend ran the job and it failed: final.
    JobFailed(String),
}

/// One forward attempt against one backend, reusing the job's id so the
/// backend's dedupe makes repeated attempts idempotent.
fn forward_once(
    shared: &RouterShared,
    idx: usize,
    job: &QueuedJob,
) -> Result<String, ForwardError> {
    let backend = &shared.backends[idx];
    let mut client = Client::connect(backend.addr, shared.cfg.probe_timeout)
        .map_err(|e| ForwardError::Transport(e.to_string()))?;
    match client.submit_and_wait(&job.spec, Some(&job.id), shared.cfg.forward_timeout) {
        Ok(result) => Ok(result.report.to_string()),
        Err(ClientError::Busy { reason }) => Err(ForwardError::Busy {
            draining: reason.contains("draining"),
        }),
        Err(ClientError::Server(message)) => Err(ForwardError::JobFailed(message)),
        Err(e) => Err(ForwardError::Transport(e.to_string())),
    }
}

/// The health thread: probes every backend each `health_interval` with a
/// `stats` frame, updating the healthy/draining flags placement reads.
fn health_loop(shared: &RouterShared) {
    loop {
        if shared.stop_health.load(Ordering::SeqCst) {
            break;
        }
        for backend in &shared.backends {
            match probe(backend.addr, shared.cfg.probe_timeout) {
                Ok(draining) => {
                    backend.healthy.store(true, Ordering::SeqCst);
                    backend.draining.store(draining, Ordering::SeqCst);
                }
                Err(_) => backend.healthy.store(false, Ordering::SeqCst),
            }
        }
        shared.core.count("health_probes");
        // Sleep in short slices so the post-drain stop is noticed promptly.
        let mut remaining = shared.cfg.health_interval;
        while remaining > Duration::ZERO && !shared.stop_health.load(Ordering::SeqCst) {
            let slice = remaining.min(Duration::from_millis(50));
            std::thread::sleep(slice);
            remaining = remaining.saturating_sub(slice);
        }
    }
}

/// One health probe: fetch the backend's stats frame and read its
/// `draining` flag.
fn probe(addr: SocketAddr, timeout: Duration) -> Result<bool, ClientError> {
    let mut client = Client::connect(addr, timeout)?;
    let stats = client.stats(timeout)?;
    Ok(stats
        .field("draining")
        .ok()
        .and_then(Json::as_bool)
        .unwrap_or(false))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<SocketAddr> {
        (0..n)
            .map(|i| {
                format!("127.0.0.1:{}", 7000 + i)
                    .parse()
                    .expect("addr parses")
            })
            .collect()
    }

    #[test]
    fn ring_order_is_stable_and_covers_every_backend() {
        let ring = Ring::new(&addrs(3), 16);
        for key in [0u64, 1, u64::MAX, 0xdead_beef] {
            let order = ring.order_for(key);
            assert_eq!(order.len(), 3, "every backend appears once");
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2]);
            assert_eq!(order, ring.order_for(key), "placement is deterministic");
        }
    }

    #[test]
    fn ring_spreads_keys_across_backends() {
        let ring = Ring::new(&addrs(4), 64);
        let mut hit = [0usize; 4];
        for i in 0..256u32 {
            hit[ring.order_for(fnv1a64(&i.to_le_bytes()))[0]] += 1;
        }
        assert!(
            hit.iter().all(|&h| h > 0),
            "every backend owns some keys: {hit:?}"
        );
    }
}
