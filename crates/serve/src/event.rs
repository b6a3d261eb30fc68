//! The nonblocking event loop shared by the daemon and the router.
//!
//! One thread multiplexes every client connection: the listener and each
//! accepted stream run with `set_nonblocking(true)`, and the loop polls them
//! round-robin — read what's there, decode complete frames through the
//! incremental [`FrameDecoder`], dispatch, buffer replies, write what fits.
//! Thousands of connections cost a few kilobytes each instead of a thread
//! each.
//!
//! Both services also share one job path, which lives here once:
//! [`ServiceCore::admit`] parses, dedupes and places a `submit` onto a
//! *lane* (a bounded queue plus one worker thread), and
//! [`ServiceCore::lane_worker`] pops, times and runs each job. What differs
//! is abstracted behind [`Service`]: which lanes a job may land on and in
//! what order of preference (the daemon's shards from the id's home shard
//! on, the router's healthy ring walk), what a lane does with a job (run
//! it, forward it), and the per-lane stats fields. Placement itself is
//! shared and work-conserving: a fresh job goes to the candidate lane with
//! the fewest jobs in flight, and the preference order only breaks ties.
//!
//! ## Waiting without blocking
//!
//! A `wait` (or `submit` with `"wait": true`) never blocks a thread: the
//! connection *parks*, recording the job id and a wait deadline, and the
//! loop polls the table's change counter — a parked connection costs nothing
//! until a job actually changes state. Frames that arrive while parked are
//! buffered and served after the wait resolves, so replies keep strict
//! request→reply order.
//!
//! ## Bounded by construction
//!
//! Per-connection memory is bounded end to end: the decoder allocates only
//! after validating a length prefix against [`MAX_FRAME_BYTES`], buffered
//! requests are capped (`MAX_PIPELINED` — beyond it the loop simply stops
//! reading that socket and TCP backpressure does the rest), and the reply
//! buffer is capped the same way before more requests are consumed.
//!
//! [`MAX_FRAME_BYTES`]: crate::protocol::MAX_FRAME_BYTES

use crate::config::ConnTuning;
use crate::job::{job_id_for, BoundedQueue, JobState, JobTable, QueueError, QueuedJob};
use crate::protocol::{encode_frame, frame, frame_type, FrameDecoder};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use uopcache_bench::sweep::SweepSpec;
use uopcache_exec::{Clock, Deadline};
use uopcache_model::json::Json;
use uopcache_obs::{Histogram, MetricsRegistry};

/// Requests buffered per connection while a wait is parked; past this the
/// loop stops reading the socket until the backlog drains.
const MAX_PIPELINED: usize = 64;

/// Reply bytes buffered per connection before the loop stops consuming more
/// of its requests (a slow reader cannot balloon the daemon).
const MAX_OUTBUF_BYTES: usize = 4 << 20;

/// One job lane: a bounded queue drained by one worker thread — a daemon
/// shard or a router backend's forwarder.
pub(crate) struct Lane {
    pub(crate) queue: BoundedQueue,
    /// Jobs placed here and not yet finished: queued plus running.
    in_flight: AtomicUsize,
    /// Set by the worker as it exits (queue closed and fully drained).
    done: AtomicBool,
}

/// State both services share: the job table, the lanes, the metrics
/// registry and the drain/connection gauges the event loop maintains.
pub(crate) struct ServiceCore {
    /// Every known job, bounded by retention.
    table: JobTable,
    /// The job lanes, in index order.
    pub(crate) lanes: Vec<Lane>,
    /// Counters and latency histograms surfaced by the `stats` frame.
    metrics: Mutex<MetricsRegistry>,
    /// Set by a `shutdown` frame: stop accepting connections and work.
    draining: AtomicBool,
    /// Connections currently multiplexed (maintained by the event loop).
    active_conns: AtomicUsize,
    /// Default start deadline for a submit that names none.
    job_timeout: Option<Duration>,
    /// Tick source for queue waits, run times and start deadlines.
    clock: Arc<dyn Clock>,
    /// The histogram a lane's per-job time lands in (`run_ms`/`forward_ms`).
    run_histogram: &'static str,
}

impl ServiceCore {
    /// A core with `lanes` lanes of `lane_capacity` slots each, timing jobs
    /// on the connection tuning's clock.
    pub(crate) fn new(
        lanes: usize,
        lane_capacity: usize,
        retention: usize,
        job_timeout: Option<Duration>,
        tuning: &ConnTuning,
        run_histogram: &'static str,
    ) -> Self {
        ServiceCore {
            table: JobTable::with_retention(retention),
            lanes: (0..lanes)
                .map(|_| Lane {
                    queue: BoundedQueue::new(lane_capacity),
                    in_flight: AtomicUsize::new(0),
                    done: AtomicBool::new(false),
                })
                .collect(),
            metrics: Mutex::new(MetricsRegistry::new()),
            draining: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            job_timeout,
            clock: Arc::clone(&tuning.clock),
            run_histogram,
        }
    }

    pub(crate) fn count(&self, name: &str) {
        lock_clean(&self.metrics).inc(name);
    }

    pub(crate) fn set_gauge(&self, name: &str, value: u64) {
        lock_clean(&self.metrics).set_gauge(name, value);
    }

    fn observe_ms(&self, name: &str, elapsed: Duration) {
        let ms = u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX);
        lock_clean(&self.metrics)
            .histogram_with(name, || Histogram::log2(14))
            .observe(ms);
    }

    /// Time elapsed on the service clock since tick `since`.
    fn elapsed(&self, since: u64) -> Duration {
        Duration::from_nanos(self.clock.now().saturating_sub(since))
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn total_depth(&self) -> usize {
        self.lanes.iter().map(|l| l.queue.depth()).sum()
    }

    pub(crate) fn total_capacity(&self) -> usize {
        self.lanes.iter().map(|l| l.queue.capacity()).sum()
    }

    fn close_queues(&self) {
        for lane in &self.lanes {
            lane.queue.close();
        }
    }

    fn busy(&self, id: &str, reason: &str) -> Json {
        busy_frame(id, reason, self.total_depth(), self.total_capacity())
    }

    /// Handles one `submit` frame end to end: parse and validate the spec,
    /// derive or check the id, register it for dedupe, then place a fresh
    /// job on the least-loaded of `service`'s candidate lanes with room.
    /// Replies `accepted`, `busy` or `error`.
    fn admit(&self, req: &Json, service: &dyn Service) -> SubmitAction {
        let reject = |reply: Json| SubmitAction {
            reply,
            wait_for: None,
        };
        let spec = match req
            .field("job")
            .map_err(|e| e.to_string())
            .and_then(SweepSpec::from_json)
        {
            Ok(spec) => spec,
            Err(message) => {
                self.count("jobs_rejected_invalid");
                return reject(error_frame(None, &format!("invalid job: {message}")));
            }
        };
        let spec_json = spec.to_json().to_string();
        let id = match req.field("id") {
            Ok(v) => match v.as_str() {
                Some(s) if !s.is_empty() => s.to_string(),
                _ => {
                    self.count("jobs_rejected_invalid");
                    return reject(error_frame(
                        None,
                        "invalid job: \"id\" must be a non-empty string",
                    ));
                }
            },
            Err(_) => job_id_for(&spec),
        };
        let wait = req
            .field("wait")
            .ok()
            .and_then(Json::as_bool)
            .unwrap_or(false);
        let wait_timeout = Duration::from_millis(req_u64(req, "timeout_ms").unwrap_or(600_000));

        let deduped = match self.table.register(&id, &spec_json) {
            Ok(()) => {
                let queue_timeout = req_u64(req, "queue_timeout_ms")
                    .map(Duration::from_millis)
                    .or(self.job_timeout);
                let job = QueuedJob {
                    id: id.clone(),
                    spec,
                    enqueued: self.clock.now(),
                    start_deadline: queue_timeout.map(|t| Deadline::after(&*self.clock, t)),
                };
                // A refused submission is forgotten entirely: a `busy` frame
                // tells the client to retry later, so its id must stay free
                // for that retry to re-enqueue — a terminal entry here would
                // turn every retry into a dedupe onto a job that never ran.
                if let Err(reason) = self.place(job, service) {
                    self.count("jobs_rejected_busy");
                    self.table.remove(&id);
                    return reject(self.busy(&id, reason));
                }
                false
            }
            Err(Ok(_existing)) => {
                // Idempotent retry: same id, same spec — adopt the original.
                self.count("jobs_deduped");
                true
            }
            Err(Err(message)) => {
                self.count("jobs_rejected_invalid");
                return reject(error_frame(Some(&id), &message));
            }
        };

        let accepted = frame(
            "accepted",
            vec![
                ("job_id".to_string(), Json::Str(id.clone())),
                ("deduped".to_string(), Json::Bool(deduped)),
                (
                    "queue_depth".to_string(),
                    Json::U64(self.total_depth() as u64),
                ),
            ],
        );
        SubmitAction {
            reply: accepted,
            wait_for: wait.then_some((id, wait_timeout)),
        }
    }

    /// Pushes a fresh job onto the candidate lane with the fewest jobs in
    /// flight (queued plus running), spilling past full ones; ties keep the
    /// service's preference order. The `busy` reason when none takes it.
    ///
    /// Least-loaded placement keeps every lane busy while work waits: two
    /// jobs whose ids prefer the same lane run side by side when another
    /// lane is idle. Dedupe is unaffected, as the job table dedupes before
    /// placement.
    fn place(&self, mut job: QueuedJob, service: &dyn Service) -> Result<(), &'static str> {
        if self.draining() {
            return Err("draining");
        }
        let mut candidates = service.candidates(&job.id);
        if candidates.is_empty() {
            return Err("no healthy backend");
        }
        // A stable sort: equally loaded lanes stay in preference order.
        candidates.sort_by_key(|&idx| self.lanes[idx].in_flight.load(Ordering::SeqCst));
        for idx in candidates {
            let lane = &self.lanes[idx];
            // Counted before the push, so the worker's decrement can never
            // run first.
            lane.in_flight.fetch_add(1, Ordering::SeqCst);
            match lane.queue.try_push(job) {
                Ok(_depth) => {
                    self.count("jobs_accepted");
                    service.placed(idx);
                    return Ok(());
                }
                Err((error, back)) => {
                    lane.in_flight.fetch_sub(1, Ordering::SeqCst);
                    match error {
                        QueueError::Full => job = *back,
                        QueueError::Closed => return Err("draining"),
                    }
                }
            }
        }
        Err("queue full")
    }

    /// One lane's worker: pops jobs one at a time, fails those whose start
    /// deadline passed in the queue, and runs the rest through `run` (the
    /// report, or the failure message), timing both halves on the service
    /// clock. One job at a time per lane keeps thread count proportional to
    /// lanes, not queue depth; determinism needs nothing more, since results
    /// never depend on which job or lane ran first.
    fn lane_worker(&self, idx: usize, mut run: impl FnMut(&QueuedJob) -> Result<String, String>) {
        let lane = &self.lanes[idx];
        loop {
            let Some(job) = lane.queue.pop(Duration::from_millis(100)) else {
                if lane.queue.is_closed() {
                    break; // closed and empty: this lane's drain is complete
                }
                continue;
            };
            let waited = self.elapsed(job.enqueued);
            self.observe_ms("queue_wait_ms", waited);
            let state = if job
                .start_deadline
                .is_some_and(|deadline| deadline.expired(&*self.clock))
            {
                self.count("jobs_timed_out");
                self.count("jobs_failed");
                JobState::Failed(format!(
                    "timed out after {}ms in the queue",
                    waited.as_millis()
                ))
            } else {
                self.table.set_state(&job.id, JobState::Running);
                let started = self.clock.now();
                let outcome = run(&job);
                self.observe_ms(self.run_histogram, self.elapsed(started));
                match outcome {
                    Ok(report) => {
                        self.count("jobs_completed");
                        JobState::Done(Arc::new(report))
                    }
                    Err(message) => {
                        self.count("jobs_failed");
                        JobState::Failed(message)
                    }
                }
            };
            // Freed before the state is published, so a client that sees
            // this job finish never finds its lane still counted busy.
            lane.in_flight.fetch_sub(1, Ordering::SeqCst);
            self.table.set_state(&job.id, state);
        }
        lane.done.store(true, Ordering::SeqCst);
    }

    /// Renders the `stats` frame: queue gauges, the service's per-lane field
    /// (`shards`/`backends`) and the metrics registry.
    fn stats_frame(&self, service: &dyn Service) -> Json {
        // Refresh the instantaneous levels in the registry before rendering,
        // so the embedded metrics carry per-lane gauges alongside counters.
        let active = self.active_conns.load(Ordering::SeqCst) as u64;
        self.set_gauge("active_connections", active);
        let (lanes_name, lanes) = service.lane_stats();
        frame(
            "stats",
            vec![
                (
                    "queue_depth".to_string(),
                    Json::U64(self.total_depth() as u64),
                ),
                (
                    "queue_capacity".to_string(),
                    Json::U64(self.total_capacity() as u64),
                ),
                ("draining".to_string(), Json::Bool(self.draining())),
                ("active_connections".to_string(), Json::U64(active)),
                (lanes_name.to_string(), lanes),
                ("metrics".to_string(), lock_clean(&self.metrics).to_json()),
            ],
        )
    }

    /// Begins the drain (closes the lanes, flips the flag); returns the
    /// `shutdown_ack` frame.
    fn begin_shutdown(&self) -> Json {
        self.close_queues();
        self.draining.store(true, Ordering::SeqCst);
        frame(
            "shutdown_ack",
            vec![("queued".to_string(), Json::U64(self.total_depth() as u64))],
        )
    }

    /// Whether every lane worker has finished after a drain began — parked
    /// waits resolve to snapshots once true.
    fn drained(&self) -> bool {
        self.lanes.iter().all(|l| l.done.load(Ordering::SeqCst))
    }
}

/// The dispatch outcome of a `submit` frame.
struct SubmitAction {
    /// The immediate reply (`accepted`, `busy` or `error`).
    reply: Json,
    /// When set, the connection parks until this job id is terminal (the
    /// `"wait": true` path), with this server-side wait budget.
    wait_for: Option<(String, Duration)>,
}

/// What a lane's worker does with each job: the report on success, the
/// failure message otherwise.
pub(crate) type LaneRunner<'a> = Box<dyn FnMut(&QueuedJob) -> Result<String, String> + 'a>;

/// What differs between the daemon and the router. Everything else —
/// admission, the lane worker, framing, ping/status/wait mechanics, idle
/// policing, drain sequencing — lives in [`ServiceCore`] and the event loop.
pub(crate) trait Service: Send + Sync {
    /// The shared table/lanes/metrics/drain state.
    fn core(&self) -> &ServiceCore;
    /// The lanes a fresh job may be placed on, in preference order (which
    /// breaks ties between equally loaded lanes); empty when none can take
    /// work.
    fn candidates(&self, id: &str) -> Vec<usize>;
    /// Notes that admission placed a job on `lane`.
    fn placed(&self, _lane: usize) {}
    /// Lane `idx`'s runner; called once, on the lane worker's thread.
    fn lane_runner(&self, idx: usize) -> LaneRunner<'_>;
    /// The stats frame's per-lane field, name and value; refreshes the
    /// per-lane gauges on the way.
    fn lane_stats(&self) -> (&'static str, Json);
}

/// The observed state of one polled job.
enum JobPoll {
    /// Not in the table (never submitted, evicted, or refused).
    Unknown,
    /// Still live; the wire label of its state.
    Pending(&'static str),
    /// Terminal; the final frame to send (`result` or `error`).
    Terminal(Json),
}

/// Polls a job without blocking, rendering terminal states to their final
/// wire frame exactly as the blocking `wait` path did.
fn poll_job(core: &ServiceCore, id: &str) -> JobPoll {
    match core.table.get(id) {
        None => JobPoll::Unknown,
        Some(entry) => match entry.state {
            JobState::Done(report) => match Json::parse(&report) {
                Ok(body) => JobPoll::Terminal(frame(
                    "result",
                    vec![
                        ("job_id".to_string(), Json::Str(id.to_string())),
                        ("result".to_string(), body),
                    ],
                )),
                Err(e) => JobPoll::Terminal(error_frame(
                    Some(id),
                    &format!("stored report unparsable: {e}"),
                )),
            },
            JobState::Failed(message) => JobPoll::Terminal(error_frame(Some(id), &message)),
            state => JobPoll::Pending(state.label()),
        },
    }
}

fn status_frame(id: &str, state: &'static str) -> Json {
    frame(
        "status",
        vec![
            ("job_id".to_string(), Json::Str(id.to_string())),
            ("state".to_string(), Json::Str(state.to_string())),
        ],
    )
}

fn error_frame(id: Option<&str>, message: &str) -> Json {
    let mut fields = Vec::with_capacity(2);
    if let Some(id) = id {
        fields.push(("job_id".to_string(), Json::Str(id.to_string())));
    }
    fields.push(("message".to_string(), Json::Str(message.to_string())));
    frame("error", fields)
}

/// A `busy` rejection for one job: code 429, the reason, and the queue
/// gauges the client can base its backoff on.
fn busy_frame(id: &str, reason: &str, depth: usize, capacity: usize) -> Json {
    frame(
        "busy",
        vec![
            ("job_id".to_string(), Json::Str(id.to_string())),
            ("code".to_string(), Json::U64(429)),
            ("reason".to_string(), Json::Str(reason.to_string())),
            ("queue_depth".to_string(), Json::U64(depth as u64)),
            ("queue_capacity".to_string(), Json::U64(capacity as u64)),
        ],
    )
}

fn req_job_id(req: &Json) -> Result<&str, String> {
    req.field("job_id")
        .map_err(|e| e.to_string())?
        .as_str()
        .ok_or_else(|| "\"job_id\" must be a string".to_string())
}

fn req_u64(req: &Json, field: &str) -> Option<u64> {
    req.field(field).ok().and_then(Json::as_u64)
}

/// Locks a mutex, tolerating poisoning (job panics are caught before they
/// can unwind through a held lock; see the exec pool for the same policy).
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Stringifies a panic payload (mirrors the exec pool's helper).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// A parked `wait`: the connection sends nothing for this job until it is
/// terminal, the deadline passes, or the service drains.
struct ParkedWait {
    id: String,
    deadline: Deadline,
}

/// One multiplexed connection's state machine.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Decoded-but-undispatched requests (pipelining while parked).
    inbox: Vec<Json>,
    /// Next inbox entry to dispatch (drained entries are cleared in bulk).
    inbox_pos: usize,
    /// Reply bytes not yet accepted by the socket.
    outbuf: Vec<u8>,
    out_pos: usize,
    wait: Option<ParkedWait>,
    idle_deadline: Deadline,
    /// Set while the decoder is mid-frame: when the frame's bytes stall past
    /// it, the connection is cut with an error frame.
    stall_deadline: Option<Deadline>,
    /// Flush what's buffered, then close (protocol error or peer EOF).
    close_after_flush: bool,
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, clock: &dyn Clock, tuning: &ConnTuning) -> Conn {
        Conn {
            stream,
            decoder: FrameDecoder::new(),
            inbox: Vec::with_capacity(4),
            inbox_pos: 0,
            outbuf: Vec::with_capacity(256),
            out_pos: 0,
            wait: None,
            idle_deadline: Deadline::after(clock, tuning.idle_timeout),
            stall_deadline: None,
            close_after_flush: false,
            dead: false,
        }
    }

    fn pending_requests(&self) -> usize {
        self.inbox.len() - self.inbox_pos
    }

    fn flushed(&self) -> bool {
        self.out_pos >= self.outbuf.len()
    }

    /// Buffers one reply frame for writing.
    fn push_frame(&mut self, body: &Json) {
        match encode_frame(body) {
            Ok(wire) => self.outbuf.extend_from_slice(&wire),
            // An unencodable reply (oversized rendering) cannot be answered
            // in-protocol; cut the connection.
            Err(_) => self.close_after_flush = true,
        }
    }

    /// Reads whatever the socket has, decoding complete frames into the
    /// inbox. Stops early under backlog so a flooding client is throttled by
    /// its own unread socket buffer.
    fn read_some(&mut self, buf: &mut [u8], clock: &dyn Clock, tuning: &ConnTuning) -> bool {
        let mut progressed = false;
        loop {
            if self.close_after_flush
                || self.pending_requests() >= MAX_PIPELINED
                || self.outbuf.len() - self.out_pos >= MAX_OUTBUF_BYTES
            {
                return progressed;
            }
            match self.stream.read(buf) {
                Ok(0) => {
                    // Peer EOF: serve what was already pipelined, then close.
                    self.close_after_flush = true;
                    return true;
                }
                Ok(n) => {
                    progressed = true;
                    let before = self.inbox.len();
                    if let Err(e) = self.decoder.feed(&buf[..n], &mut self.inbox) {
                        self.push_frame(&error_frame(None, &e.to_string()));
                        self.close_after_flush = true;
                        return true;
                    }
                    if self.inbox.len() > before {
                        self.idle_deadline = Deadline::after(clock, tuning.idle_timeout);
                    }
                    // Frame-stall policing: the deadline arms when a frame
                    // starts and disarms at each boundary.
                    self.stall_deadline =
                        if self.decoder.mid_frame() {
                            Some(self.stall_deadline.unwrap_or_else(|| {
                                Deadline::after(clock, tuning.frame_stall_limit)
                            }))
                        } else {
                            None
                        };
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return progressed,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return true;
                }
            }
        }
    }

    /// Resolves a parked wait if its job finished, its deadline passed, or
    /// the service drained (then the last observed state is snapshotted,
    /// exactly as the blocking wait did on stop).
    fn poll_wait(&mut self, service: &dyn Service, clock: &dyn Clock, table_changed: bool) {
        let Some(w) = &self.wait else { return };
        let expired = w.deadline.expired(clock);
        let drained = service.core().drained();
        if !(table_changed || expired || drained) {
            return;
        }
        let reply = match poll_job(service.core(), &w.id) {
            JobPoll::Terminal(body) => body,
            JobPoll::Unknown => error_frame(Some(&w.id), &format!("unknown job {:?}", w.id)),
            JobPoll::Pending(state) => {
                if !(expired || drained) {
                    return; // still live, still waiting
                }
                status_frame(&w.id, state)
            }
        };
        self.push_frame(&reply);
        self.wait = None;
    }

    /// Dispatches buffered requests until one parks a wait, the reply buffer
    /// fills, or the inbox drains.
    fn dispatch(&mut self, service: &dyn Service, clock: &dyn Clock) -> bool {
        let mut progressed = false;
        while self.wait.is_none()
            && !self.close_after_flush
            && self.inbox_pos < self.inbox.len()
            && self.outbuf.len() - self.out_pos < MAX_OUTBUF_BYTES
        {
            let req = std::mem::replace(&mut self.inbox[self.inbox_pos], Json::Null);
            self.inbox_pos += 1;
            progressed = true;
            service.core().count("frames_handled");
            self.handle_frame(service, clock, &req);
        }
        if self.inbox_pos >= self.inbox.len() {
            self.inbox.clear();
            self.inbox_pos = 0;
        }
        progressed
    }

    /// One request frame → buffered reply (and possibly a parked wait).
    fn handle_frame(&mut self, service: &dyn Service, clock: &dyn Clock, req: &Json) {
        let ty = match frame_type(req) {
            Ok(ty) => ty,
            Err(e) => {
                // Protocol error: answer, then close (the blocking loop did
                // exactly this).
                self.push_frame(&error_frame(None, &e.to_string()));
                self.close_after_flush = true;
                return;
            }
        };
        match ty {
            "ping" => self.push_frame(&frame("pong", Vec::with_capacity(0))),
            "submit" => {
                let action = service.core().admit(req, service);
                self.push_frame(&action.reply);
                if let Some((id, budget)) = action.wait_for {
                    self.park(service, clock, id, budget);
                }
            }
            "status" => match req_job_id(req) {
                Err(message) => self.push_frame(&error_frame(None, &message)),
                Ok(id) => {
                    let reply = match poll_job(service.core(), id) {
                        JobPoll::Unknown => error_frame(Some(id), &format!("unknown job {id:?}")),
                        JobPoll::Pending(state) => status_frame(id, state),
                        JobPoll::Terminal(_) => {
                            // `status` never carries the result; report the
                            // terminal label only.
                            let state = service
                                .core()
                                .table
                                .get(id)
                                .map_or("done", |e| e.state.label());
                            status_frame(id, state)
                        }
                    };
                    self.push_frame(&reply);
                }
            },
            "wait" | "result" => match req_job_id(req) {
                Err(message) => self.push_frame(&error_frame(None, &message)),
                Ok(id) => {
                    let budget = if ty == "result" {
                        Duration::ZERO
                    } else {
                        Duration::from_millis(req_u64(req, "timeout_ms").unwrap_or(60_000))
                    };
                    let id = id.to_string();
                    self.park(service, clock, id, budget);
                }
            },
            "stats" => self.push_frame(&service.core().stats_frame(service)),
            "shutdown" => self.push_frame(&service.core().begin_shutdown()),
            other => {
                self.push_frame(&error_frame(None, &format!("unknown frame type {other:?}")));
            }
        }
    }

    /// Parks a wait on `id`, resolving immediately when already possible
    /// (terminal job, unknown id, zero budget, drained service).
    fn park(&mut self, service: &dyn Service, clock: &dyn Clock, id: String, budget: Duration) {
        self.wait = Some(ParkedWait {
            deadline: Deadline::after(clock, budget),
            id,
        });
        // A zero budget (the `result` frame) must answer from the current
        // state; a terminal/unknown job answers instantly either way.
        self.poll_wait(service, clock, true);
    }

    /// Writes as much of the reply buffer as the socket accepts.
    fn flush(&mut self) -> bool {
        let mut progressed = false;
        while self.out_pos < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.out_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    return true;
                }
                Ok(n) => {
                    self.out_pos += n;
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return true;
                }
            }
        }
        if self.flushed() {
            self.outbuf.clear();
            self.out_pos = 0;
            if self.close_after_flush {
                self.dead = true;
            }
        }
        progressed
    }

    /// Cuts connections that idle past the limit or stall mid-frame.
    fn police_deadlines(&mut self, clock: &dyn Clock) {
        if self.dead || self.close_after_flush {
            return;
        }
        if let Some(stall) = self.stall_deadline {
            if stall.expired(clock) {
                self.push_frame(&error_frame(
                    None,
                    "malformed frame: frame stalled past the read deadline",
                ));
                self.close_after_flush = true;
                return;
            }
        }
        if self.wait.is_none()
            && self.pending_requests() == 0
            && !self.decoder.mid_frame()
            && self.flushed()
            && self.idle_deadline.expired(clock)
        {
            self.dead = true;
        }
    }
}

/// Answers an over-limit connect on the (still blocking) accepted socket and
/// drops it.
fn reject_connection(mut stream: TcpStream, reason: &str) {
    let busy = frame(
        "busy",
        vec![
            ("code".to_string(), Json::U64(429)),
            ("reason".to_string(), Json::Str(reason.to_string())),
        ],
    );
    if let Ok(wire) = encode_frame(&busy) {
        let _ = stream.write_all(&wire);
    }
}

/// Runs the event loop until a drain completes: accepts (until draining),
/// multiplexes every connection, resolves parked waits, and exits once the
/// service reports drained and the final frames are flushed (bounded by
/// `drain_grace`).
///
/// # Errors
///
/// Any listener failure other than the nonblocking-poll `WouldBlock`.
fn run_event_loop(
    listener: &TcpListener,
    service: &dyn Service,
    tuning: &ConnTuning,
) -> io::Result<()> {
    let clock: &dyn Clock = &*tuning.clock;
    let core = service.core();
    let mut conns: Vec<Conn> = Vec::with_capacity(64);
    let mut buf = vec![0u8; 64 << 10];
    let mut last_table_version = core.table.version();
    let mut drain_flush: Option<Deadline> = None;
    loop {
        let mut progressed = false;
        let draining = core.draining();

        if !draining {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        progressed = true;
                        if conns.len() >= tuning.max_connections {
                            core.count("connections_rejected");
                            reject_connection(stream, "connection limit reached");
                            continue;
                        }
                        if stream.set_nonblocking(true).is_err() {
                            core.count("connections_rejected");
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        core.count("connections_accepted");
                        conns.push(Conn::new(stream, clock, tuning));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
        }

        // Parked waits re-poll only when a job actually changed state (the
        // table bumps a version counter), a deadline passed, or the drain
        // finished — a thousand parked connections cost no lock traffic
        // while jobs run.
        let table_version = core.table.version();
        let table_changed = table_version != last_table_version;
        last_table_version = table_version;

        for conn in &mut conns {
            if conn.dead {
                continue;
            }
            progressed |= conn.read_some(&mut buf, clock, tuning);
            conn.poll_wait(service, clock, table_changed);
            progressed |= conn.dispatch(service, clock);
            progressed |= conn.flush();
            conn.police_deadlines(clock);
        }
        conns.retain(|c| !c.dead);
        core.active_conns.store(conns.len(), Ordering::SeqCst);

        if draining && core.drained() {
            // Drained: every parked wait has resolved to a snapshot above;
            // flush the remaining bytes (grace-bounded) and exit.
            let all_flushed = conns.iter().all(|c| c.wait.is_none() && c.flushed());
            let grace =
                *drain_flush.get_or_insert_with(|| Deadline::after(clock, tuning.drain_grace));
            if all_flushed || grace.expired(clock) {
                break;
            }
        }

        if !progressed {
            std::thread::sleep(tuning.poll_interval);
        }
    }
    core.active_conns.store(0, Ordering::SeqCst);
    Ok(())
}

/// Runs `service` on `listener` until a drain completes: one worker thread
/// per lane (named `{worker_name}{idx}`), the event loop on the calling
/// thread, then every worker joined.
///
/// # Errors
///
/// A worker spawn failure, or any listener failure other than the
/// nonblocking-poll `WouldBlock`.
// audit:spawn-site — one worker per lane; all joined after the event loop drains
pub(crate) fn serve<S: Service + 'static>(
    listener: &TcpListener,
    service: &Arc<S>,
    tuning: &ConnTuning,
    worker_name: &str,
) -> io::Result<()> {
    let core = service.core();
    let mut workers = Vec::with_capacity(core.lanes.len());
    for idx in 0..core.lanes.len() {
        let service = Arc::clone(service);
        workers.push(
            std::thread::Builder::new()
                .name(format!("{worker_name}{idx}"))
                .spawn(move || service.core().lane_worker(idx, service.lane_runner(idx)))?,
        );
    }
    let result = run_event_loop(listener, service.as_ref(), tuning);
    // On a clean exit the queues are already closed (the shutdown frame did
    // it); after a listener error, close them so the workers exit too.
    core.close_queues();
    for handle in workers {
        let _ = handle.join();
    }
    result
}

/// A running in-process daemon or router (see `Server::spawn` and
/// `Router::spawn`); `ServerHandle` and `RouterHandle` name this type.
#[derive(Debug)]
pub struct ServiceHandle {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<io::Result<()>>,
}

impl ServiceHandle {
    /// Runs `run` (a service's blocking `run`) on a thread named `name`.
    // audit:spawn-site — event-loop thread, joined by ServiceHandle::join_within after shutdown
    pub(crate) fn launch(
        name: &str,
        addr: SocketAddr,
        run: impl FnOnce() -> io::Result<()> + Send + 'static,
    ) -> io::Result<ServiceHandle> {
        let thread = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(run)?;
        Ok(ServiceHandle { addr, thread })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits up to `timeout` for the service thread to exit (it exits after
    /// a completed drain). Returns `None` if it is still running.
    pub fn join_within(self, timeout: Duration) -> Option<io::Result<()>> {
        let deadline = Instant::now() + timeout;
        while !self.thread.is_finished() {
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Some(self.thread.join().unwrap_or_else(|p| {
            Err(io::Error::other(format!(
                "service thread panicked: {}",
                panic_message(p.as_ref())
            )))
        }))
    }
}
