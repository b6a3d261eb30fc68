//! Job identity, lifecycle state, the bounded queue and the job table.
//!
//! Both structures are **bounded by construction**. A push against a full
//! queue fails immediately with [`QueueError::Full`] and the caller surfaces
//! a `busy` frame — the daemon applies backpressure instead of buffering
//! without limit. Closing the queue (graceful shutdown) fails new pushes
//! with [`QueueError::Closed`] while letting the executor drain what was
//! already accepted. The job table keeps at most a configured number of
//! *terminal* jobs (results and failures kept around for late `status`/
//! `result` fetches); past that, the oldest finished entries are evicted, so
//! a long-running daemon's memory does not grow with submission count.

use crate::event::lock_clean;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use uopcache_bench::sweep::SweepSpec;
use uopcache_exec::Deadline;

/// FNV-1a 64: the repo's standard content hash (same constants as the exec
/// crate's task seeding). Job ids, shard keying and the router's hash ring
/// all run on it, so "where a job lands" is a pure function of its bytes.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Derives the default job id: an FNV-1a 64 hash of the spec's canonical
/// JSON, rendered as 16 hex digits. Content-derived ids make blind client
/// retries idempotent — resubmitting the same work maps to the same job.
pub fn job_id_for(spec: &SweepSpec) -> String {
    let h = fnv1a64(spec.to_json().to_string().as_bytes());
    format!("{h:016x}")
}

/// Maps a job id onto its home shard, one of `shards`, by FNV-1a: the first
/// shard the daemon's least-loaded placement prefers among equally loaded
/// ones. Distinct jobs spread uniformly.
pub fn shard_for(id: &str, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    usize::try_from(fnv1a64(id.as_bytes()) % (shards as u64)).unwrap_or(0)
}

/// The lifecycle state of one job.
#[derive(Clone, Debug)]
pub enum JobState {
    /// Accepted and waiting in the bounded queue.
    Queued,
    /// Currently executing on the engine.
    Running,
    /// Finished; the canonical report JSON is shared with every waiter.
    Done(Arc<String>),
    /// Panicked or timed out; the message explains which.
    Failed(String),
}

impl JobState {
    /// The state's wire label.
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
        }
    }

    /// Whether the job has reached a terminal state.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobState::Done(_) | JobState::Failed(_))
    }
}

/// One entry of the job table.
#[derive(Clone, Debug)]
pub struct JobEntry {
    /// The spec's canonical JSON — the job's identity, checked on id reuse.
    pub spec_json: String,
    /// Current lifecycle state.
    pub state: JobState,
}

/// Default cap on retained terminal jobs; see [`JobTable::with_retention`].
pub const DEFAULT_JOB_RETENTION: usize = 1024;

#[derive(Debug)]
struct TableInner {
    entries: HashMap<String, JobEntry>,
    /// Ids of terminal jobs in completion order, oldest first — the
    /// eviction queue that keeps the table bounded.
    finished: VecDeque<String>,
}

/// The server's registry of jobs, with a version counter that moves on any
/// state change.
///
/// The table is **bounded**: live (queued/running) jobs are bounded by the
/// queue capacity, and at most `retention` terminal jobs are kept for late
/// `status`/`result` fetches — completing another evicts the oldest
/// finished entry. An evicted id simply becomes unknown; resubmitting it
/// re-runs the work.
#[derive(Debug)]
pub struct JobTable {
    inner: Mutex<TableInner>,
    retention: usize,
    /// Bumped on every state change/removal, under the `inner` lock; the
    /// event loop re-polls parked waits only when this moves, instead of
    /// locking the table per tick.
    version: AtomicU64,
    /// Notified on every version bump, so [`JobTable::wait_change`] wakes the
    /// moment a job changes state.
    changed: Condvar,
}

impl Default for JobTable {
    fn default() -> Self {
        Self::with_retention(DEFAULT_JOB_RETENTION)
    }
}

impl JobTable {
    /// A table retaining [`DEFAULT_JOB_RETENTION`] terminal jobs.
    pub fn new() -> Self {
        Self::default()
    }

    /// A table that keeps at most `retention` terminal jobs (clamped to at
    /// least 1).
    pub fn with_retention(retention: usize) -> Self {
        let retention = retention.max(1);
        JobTable {
            inner: Mutex::new(TableInner {
                entries: HashMap::with_capacity(retention.min(64)),
                finished: VecDeque::with_capacity(retention.min(64)),
            }),
            retention,
            version: AtomicU64::new(0),
            changed: Condvar::new(),
        }
    }

    /// A counter that moves on every state change or removal — cheap to poll
    /// without taking the table lock.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// Blocks until the version moves past `seen` or `timeout` passes, and
    /// returns the version then current. Returns at once if it has already
    /// moved. The check and the wait happen under the lock every bump takes,
    /// so a bump between them cannot be missed.
    pub fn wait_change(&self, seen: u64, timeout: Duration) -> u64 {
        let inner = lock_clean(&self.inner);
        let _inner = self
            .changed
            .wait_timeout_while(inner, timeout, |_| self.version() == seen)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.version()
    }

    /// Bumps the version while the caller holds the `inner` guard, then
    /// releases it and wakes every [`wait_change`](Self::wait_change).
    fn bump(&self, inner: MutexGuard<'_, TableInner>) {
        self.version.fetch_add(1, Ordering::SeqCst);
        drop(inner);
        self.changed.notify_all();
    }

    /// Registers a new job as queued.
    ///
    /// # Errors
    ///
    /// If the id is already present: returns its current entry when the spec
    /// matches (the idempotent-retry path) and an explanatory message when it
    /// does not (id collision with different work).
    pub fn register(&self, id: &str, spec_json: &str) -> Result<(), Result<JobEntry, String>> {
        let mut inner = lock_clean(&self.inner);
        match inner.entries.get(id) {
            Some(existing) if existing.spec_json == spec_json => Err(Ok(existing.clone())),
            Some(_) => Err(Err(format!(
                "job id {id:?} was already submitted with a different spec"
            ))),
            None => {
                inner.entries.insert(
                    id.to_string(),
                    JobEntry {
                        spec_json: spec_json.to_string(),
                        state: JobState::Queued,
                    },
                );
                Ok(())
            }
        }
    }

    /// Transitions a job to a new state and bumps the version. A transition
    /// *into* a terminal state enrols the id in the eviction queue; once more
    /// than `retention` finished jobs accumulate, the oldest is dropped.
    pub fn set_state(&self, id: &str, state: JobState) {
        let mut inner = lock_clean(&self.inner);
        let became_terminal = match inner.entries.get_mut(id) {
            None => false,
            Some(e) => {
                let was_terminal = e.state.is_terminal();
                e.state = state;
                e.state.is_terminal() && !was_terminal
            }
        };
        if became_terminal {
            inner.finished.push_back(id.to_string());
            while inner.finished.len() > self.retention {
                let Some(oldest) = inner.finished.pop_front() else {
                    break;
                };
                // Evict only entries that are still terminal: a stale slot
                // (the id was removed, or evicted and since resubmitted)
                // must never take down live work.
                if inner
                    .entries
                    .get(&oldest)
                    .is_some_and(|e| e.state.is_terminal())
                {
                    inner.entries.remove(&oldest);
                }
            }
        }
        self.bump(inner);
    }

    /// Forgets a job entirely — used when a submission is refused *after*
    /// registration (queue full, draining), so the id stays free for a retry
    /// to re-enqueue instead of deduping onto a dead entry. Bumps the
    /// version, so parked waiters then observe the id as unknown.
    pub fn remove(&self, id: &str) {
        let mut inner = lock_clean(&self.inner);
        inner.entries.remove(id);
        self.bump(inner);
    }

    /// The current entry of a job, if known.
    pub fn get(&self, id: &str) -> Option<JobEntry> {
        lock_clean(&self.inner).entries.get(id).cloned()
    }

    /// Jobs currently in the table (live plus retained terminal).
    pub fn len(&self) -> usize {
        lock_clean(&self.inner).entries.len()
    }

    /// Whether the table holds no jobs at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Why a push was refused.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum QueueError {
    /// The queue is at capacity — backpressure; retry later.
    Full,
    /// The server is draining — no new work is accepted.
    Closed,
}

/// One accepted job awaiting execution.
#[derive(Debug)]
pub struct QueuedJob {
    /// The job id (table key).
    pub id: String,
    /// The parsed spec to execute.
    pub spec: SweepSpec,
    /// The service clock's tick when the job entered the queue (queue-wait
    /// accounting).
    pub enqueued: u64,
    /// When the job must have *started* by, on the service clock; expired
    /// jobs fail instead of running (per-job timeout, applied to queue wait).
    pub start_deadline: Option<Deadline>,
}

#[derive(Debug)]
struct QueueInner {
    items: VecDeque<QueuedJob>,
    closed: bool,
}

/// The bounded, closable job queue.
#[derive(Debug)]
pub struct BoundedQueue {
    inner: Mutex<QueueInner>,
    nonempty: Condvar,
    capacity: usize,
}

impl BoundedQueue {
    /// A queue that holds at most `capacity` jobs (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        BoundedQueue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            nonempty: Condvar::new(),
            capacity,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs currently queued (excluding the one executing).
    pub fn depth(&self) -> usize {
        lock_clean(&self.inner).items.len()
    }

    /// Enqueues a job, refusing instead of growing past capacity. A refused
    /// job is handed back alongside the error (boxed, to keep the `Err`
    /// variant small) so admission can spill it to the next candidate lane.
    ///
    /// # Errors
    ///
    /// [`QueueError::Full`] at capacity, [`QueueError::Closed`] after
    /// [`close`](Self::close), each with the refused job attached.
    pub fn try_push(&self, job: QueuedJob) -> Result<usize, (QueueError, Box<QueuedJob>)> {
        let mut inner = lock_clean(&self.inner);
        if inner.closed {
            return Err((QueueError::Closed, Box::new(job)));
        }
        if inner.items.len() >= self.capacity {
            return Err((QueueError::Full, Box::new(job)));
        }
        inner.items.push_back(job);
        let depth = inner.items.len();
        drop(inner);
        self.nonempty.notify_one();
        Ok(depth)
    }

    /// Dequeues the oldest job, blocking up to `timeout`. Returns `None` on
    /// timeout or when the queue is closed *and* empty (drain complete).
    pub fn pop(&self, timeout: Duration) -> Option<QueuedJob> {
        let deadline = Instant::now() + timeout;
        let mut inner = lock_clean(&self.inner);
        loop {
            if let Some(job) = inner.items.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _timed_out) = self
                .nonempty
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            inner = guard;
        }
    }

    /// Closes the queue: future pushes fail, queued jobs remain poppable.
    pub fn close(&self) {
        lock_clean(&self.inner).closed = true;
        self.nonempty.notify_all();
    }

    /// Whether [`close`](Self::close) was called.
    pub fn is_closed(&self) -> bool {
        lock_clean(&self.inner).closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uopcache_model::FrontendConfig;
    use uopcache_trace::AppId;

    fn spec(len: usize) -> SweepSpec {
        SweepSpec {
            cfg: FrontendConfig::zen3(),
            config_name: "zen3".to_string(),
            apps: vec![AppId::Kafka],
            policies: vec!["LRU".to_string()],
            variant: 0,
            len,
            metrics: false,
            sample: None,
            scale: 1,
        }
    }

    fn queued(id: &str, len: usize) -> QueuedJob {
        QueuedJob {
            id: id.to_string(),
            spec: spec(len),
            enqueued: 0,
            start_deadline: None,
        }
    }

    #[test]
    fn job_ids_are_content_derived_and_stable() {
        let a = job_id_for(&spec(100));
        assert_eq!(a, job_id_for(&spec(100)), "same work, same id");
        assert_ne!(a, job_id_for(&spec(200)), "different work, different id");
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn shard_keying_is_stable_and_in_range() {
        let id = job_id_for(&spec(100));
        for shards in [1usize, 2, 3, 8] {
            let s = shard_for(&id, shards);
            assert!(s < shards);
            assert_eq!(s, shard_for(&id, shards), "same id, same shard");
        }
        assert_eq!(shard_for(&id, 0), 0, "degenerate shard counts pin to 0");
        // Distinct ids actually spread: over many ids every shard is hit.
        let mut hit = [false; 4];
        for i in 0..64 {
            hit[shard_for(&format!("job{i}"), 4)] = true;
        }
        assert!(hit.iter().all(|&h| h), "{hit:?}");
    }

    #[test]
    fn table_version_moves_on_state_changes_and_removals() {
        let t = JobTable::new();
        let v0 = t.version();
        t.register("j1", "{spec}").expect("fresh id");
        t.set_state("j1", JobState::Running);
        let v1 = t.version();
        assert_ne!(v0, v1, "set_state bumps the version");
        t.remove("j1");
        assert_ne!(v1, t.version(), "remove bumps the version");
    }

    /// Long enough that a missed wakeup fails the test rather than passing
    /// it by timing out.
    const WAKE_TIMEOUT: Duration = Duration::from_secs(30);

    #[test]
    fn wait_change_returns_at_once_when_the_version_already_moved() {
        let t = JobTable::new();
        let seen = t.version();
        t.register("j1", "{spec}").expect("fresh id");
        t.set_state("j1", JobState::Running);
        let started = Instant::now();
        assert_eq!(t.wait_change(seen, WAKE_TIMEOUT), t.version());
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn wait_change_times_out_when_nothing_moves() {
        let t = JobTable::new();
        let seen = t.version();
        assert_eq!(t.wait_change(seen, Duration::from_millis(20)), seen);
    }

    /// Blocks in `wait_change` while another thread runs `bump` on the table,
    /// and returns how long the wait took. The bump comes 20 ms late so the
    /// wait is usually already blocked; if it is not, it returns at once and
    /// the bound still holds.
    fn wait_across(t: &JobTable, bump: impl FnOnce(&JobTable) + Send) -> Duration {
        let seen = t.version();
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                bump(t);
            });
            let started = Instant::now();
            assert_ne!(t.wait_change(seen, WAKE_TIMEOUT), seen);
            started.elapsed()
        })
    }

    #[test]
    fn wait_change_wakes_on_set_state_and_on_remove() {
        let t = JobTable::new();
        t.register("j1", "{spec}").expect("fresh id");
        let waited = wait_across(&t, |t| t.set_state("j1", JobState::Running));
        assert!(waited < Duration::from_secs(1), "set_state: {waited:?}");
        let waited = wait_across(&t, |t| t.remove("j1"));
        assert!(waited < Duration::from_secs(1), "remove: {waited:?}");
    }

    #[test]
    fn wait_change_misses_no_bump_in_a_tight_loop() {
        const BUMPS: u64 = 20_000;
        let t = JobTable::new();
        t.register("j1", "{spec}").expect("fresh id");
        let start = t.version();
        let started = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..BUMPS {
                    let state = if i % 2 == 0 {
                        JobState::Running
                    } else {
                        JobState::Queued
                    };
                    t.set_state("j1", state);
                }
            });
            // Each wait either sees a bump already made or is woken by the
            // next one; a lost wakeup after the final bump would sit out the
            // whole timeout.
            let mut seen = start;
            while seen != start + BUMPS {
                seen = t.wait_change(seen, WAKE_TIMEOUT);
            }
        });
        assert_eq!(t.version(), start + BUMPS);
        assert!(started.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn queue_applies_backpressure_and_preserves_order() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(queued("a", 1)).expect("fits"), 1);
        assert_eq!(q.try_push(queued("b", 1)).expect("fits"), 2);
        let (err, back) = q.try_push(queued("c", 1)).expect_err("full");
        assert_eq!(err, QueueError::Full);
        assert_eq!(back.id, "c", "the refused job is handed back");
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop(Duration::from_millis(10)).expect("a").id, "a");
        q.try_push(*back).expect("freed a slot");
        assert_eq!(q.pop(Duration::from_millis(10)).expect("b").id, "b");
        assert_eq!(q.pop(Duration::from_millis(10)).expect("c").id, "c");
        assert!(
            q.pop(Duration::from_millis(10)).is_none(),
            "empty times out"
        );
    }

    #[test]
    fn closed_queue_rejects_pushes_but_drains() {
        let q = BoundedQueue::new(4);
        q.try_push(queued("a", 1)).expect("accepted before close");
        q.close();
        assert_eq!(
            q.try_push(queued("b", 1)).expect_err("closed").0,
            QueueError::Closed
        );
        assert_eq!(q.pop(Duration::from_millis(10)).expect("drains").id, "a");
        assert!(
            q.pop(Duration::from_millis(10)).is_none(),
            "drained + closed"
        );
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        q.try_push(queued("a", 1)).expect("one slot exists");
    }

    #[test]
    fn table_is_idempotent_on_retry_and_rejects_id_collisions() {
        let t = JobTable::new();
        t.register("j1", "{spec}").expect("fresh id");
        let retry = t.register("j1", "{spec}").expect_err("duplicate");
        let entry = retry.expect("same spec is an idempotent retry");
        assert!(matches!(entry.state, JobState::Queued));
        let clash = t.register("j1", "{other}").expect_err("duplicate");
        let msg = clash.expect_err("different spec is a collision");
        assert!(msg.contains("different spec"), "{msg}");
    }

    #[test]
    fn table_evicts_oldest_terminal_entries_past_retention() {
        let t = JobTable::with_retention(2);
        // A live job is never evicted, whatever finishes around it.
        t.register("live", "{live}").expect("fresh id");
        for i in 0..5 {
            let id = format!("j{i}");
            t.register(&id, "{spec}").expect("fresh id");
            t.set_state(&id, JobState::Done(Arc::new("{}".to_string())));
        }
        assert!(t.get("live").is_some(), "live job survives eviction");
        assert!(t.get("j0").is_none(), "oldest finished jobs are evicted");
        assert!(t.get("j1").is_none());
        assert!(t.get("j2").is_none());
        assert!(t.get("j3").is_some(), "newest finished jobs are retained");
        assert!(t.get("j4").is_some());
        assert_eq!(t.len(), 3, "1 live + 2 retained terminal");
        // An evicted id is fully reusable.
        t.register("j0", "{other}")
            .expect("evicted id is free again");
    }

    #[test]
    fn removed_ids_are_unknown_and_reusable() {
        let t = JobTable::new();
        t.register("j1", "{spec}").expect("fresh id");
        t.remove("j1");
        assert!(t.get("j1").is_none(), "removed job is unknown");
        t.register("j1", "{other}")
            .expect("removed id accepts a fresh spec");
    }
}
