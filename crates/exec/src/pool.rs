//! The scoped-thread work-stealing pool.
//!
//! [`Engine::run`] executes a batch of keyed tasks. With `jobs == 1` the
//! tasks run inline on the caller thread in submission order — exactly the
//! serial path. With `jobs > 1` the batch is distributed round-robin over
//! per-worker deques; each worker drains its own deque front-first and steals
//! from the back of its siblings' deques when it runs dry. Because every
//! task is a pure function of its [`TaskKey`] and derived seed, and outcomes
//! are written to the slot of their submission index, the returned vector is
//! bit-identical for every worker count and every interleaving.

use crate::clock::{Clock, NullClock};
use crate::seed::TaskKey;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A structured task failure: the panic of one task, surfaced without
/// aborting the sweep. Carries everything needed to replay the task in
/// isolation: the key (which names config/app/variant/policy), the derived
/// seed, and the panic message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskFailure {
    /// The failing task's key.
    pub key: TaskKey,
    /// The seed the task ran with.
    pub seed: u64,
    /// The panic payload, stringified.
    pub message: String,
}

impl std::fmt::Display for TaskFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "task {} (seed {:#018x}) panicked: {}",
            self.key, self.seed, self.message
        )
    }
}

/// The outcome of one task, in submission order within a [`SweepOutcome`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskOutcome<R> {
    /// The task's key.
    pub key: TaskKey,
    /// The seed derived from the key.
    pub seed: u64,
    /// The task's value, or the stringified panic payload.
    pub result: Result<R, String>,
}

impl<R> TaskOutcome<R> {
    /// The structured failure, if the task panicked.
    pub fn failure(&self) -> Option<TaskFailure> {
        self.result.as_ref().err().map(|message| TaskFailure {
            key: self.key.clone(),
            seed: self.seed,
            message: message.clone(),
        })
    }
}

/// The lifecycle profile of one task, stamped through the engine's
/// [`Clock`].
///
/// With the default [`NullClock`] every tick is 0, so profiles are inert and
/// deterministic; inject a [`WallClock`](crate::clock::WallClock) via
/// [`Engine::with_clock`] to measure real queue waits and run times.
///
/// `worker` and `stolen` describe *scheduling*, which is inherently
/// nondeterministic under work stealing — canonical JSON renderings must
/// omit them (the sweep layer does).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskProfile {
    /// The task's key.
    pub key: TaskKey,
    /// The seed derived from the key.
    pub seed: u64,
    /// Clock tick when the task was enqueued.
    pub submitted: u64,
    /// Clock tick when a worker began executing the task.
    pub started: u64,
    /// Clock tick when the task finished (or panicked).
    pub finished: u64,
    /// The worker index that executed the task (0 on the serial path).
    pub worker: usize,
    /// Whether the task was stolen from a sibling's deque.
    pub stolen: bool,
}

impl TaskProfile {
    /// Ticks spent queued before a worker picked the task up.
    pub fn queue_wait(&self) -> u64 {
        self.started.saturating_sub(self.submitted)
    }

    /// Ticks spent executing.
    pub fn run_ticks(&self) -> u64 {
        self.finished.saturating_sub(self.started)
    }
}

/// All outcomes of one [`Engine::run`] batch, in submission order.
///
/// Deliberately not `PartialEq`: `elapsed` is wall-clock noise. Compare
/// [`outcomes`](Self::outcomes) — those are the deterministic part.
#[derive(Clone, Debug)]
pub struct SweepOutcome<R> {
    /// One outcome per submitted task, in submission order.
    pub outcomes: Vec<TaskOutcome<R>>,
    /// One lifecycle profile per submitted task, in submission order.
    pub profiles: Vec<TaskProfile>,
    /// Wall-clock time of the batch.
    pub elapsed: Duration,
}

impl<R> SweepOutcome<R> {
    /// Every structured failure, in submission order.
    pub fn failures(&self) -> Vec<TaskFailure> {
        self.outcomes
            .iter()
            .filter_map(TaskOutcome::failure)
            .collect()
    }

    /// Unwraps every task value, in submission order.
    ///
    /// # Panics
    ///
    /// Panics with the full list of structured failures if any task failed —
    /// for callers (like the experiment drivers) whose tables cannot be
    /// rendered from partial results.
    pub fn expect_all(self, context: &str) -> Vec<R> {
        let failures = self.failures();
        assert!(
            failures.is_empty(),
            "{context}: {} task(s) failed:\n{}",
            failures.len(),
            failures
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
        self.outcomes
            .into_iter()
            .map(|o| match o.result {
                Ok(v) => v,
                Err(_) => unreachable!("failures checked above"),
            })
            .collect()
    }

    /// Tasks completed per second, by wall clock.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.outcomes.len() as f64 / secs
        } else {
            0.0
        }
    }
}

/// A progress snapshot, delivered to the engine's progress sink after each
/// task completes.
#[derive(Clone, Debug)]
pub struct ProgressEvent {
    /// Tasks completed so far (including the one just finished).
    pub done: usize,
    /// Tasks in the batch.
    pub total: usize,
    /// The key of the task that just completed.
    pub key: TaskKey,
    /// Whether that task failed.
    pub failed: bool,
    /// Time since the batch started.
    pub elapsed: Duration,
}

impl ProgressEvent {
    /// Completed tasks per second so far.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.done as f64 / secs
        } else {
            0.0
        }
    }
}

type ProgressSink = Box<dyn Fn(&ProgressEvent) + Send + Sync>;

/// The parallel experiment engine.
///
/// See the [crate docs](crate) for the determinism contract and an example.
pub struct Engine {
    jobs: usize,
    progress: Option<ProgressSink>,
    clock: Arc<dyn Clock>,
}

impl Engine {
    /// An engine with `jobs` workers (clamped to at least 1). `jobs == 1`
    /// runs tasks inline on the caller thread, in submission order.
    pub fn new(jobs: usize) -> Self {
        Engine {
            jobs: jobs.max(1),
            progress: None,
            clock: Arc::new(NullClock),
        }
    }

    /// The machine's available parallelism (1 if it cannot be determined).
    pub fn default_parallelism() -> usize {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }

    /// The worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Installs the clock that stamps [`TaskProfile`]s. The default
    /// [`NullClock`] reads 0 forever, keeping profiles deterministic; inject
    /// a [`WallClock`](crate::clock::WallClock) for real measurements.
    #[must_use]
    pub fn with_clock(mut self, clock: impl Clock + 'static) -> Self {
        self.clock = Arc::new(clock);
        self
    }

    /// Installs a progress sink, called after every task completion (from
    /// whichever thread completed it).
    #[must_use]
    pub fn with_progress(mut self, sink: impl Fn(&ProgressEvent) + Send + Sync + 'static) -> Self {
        self.progress = Some(Box::new(sink));
        self
    }

    /// Installs a progress sink that prints a `[tag] done/total key (rate/s)`
    /// line to stderr after each completion — the observability hook for
    /// long reproductions.
    #[must_use]
    pub fn with_stderr_progress(self, tag: &str) -> Self {
        let tag = tag.to_string();
        self.with_progress(move |ev| {
            eprintln!(
                "[{tag}] {}/{} {}{} ({:.1} tasks/s)",
                ev.done,
                ev.total,
                ev.key,
                if ev.failed { " FAILED" } else { "" },
                ev.throughput()
            );
        })
    }

    /// Runs every task and returns the outcomes **in submission order**.
    ///
    /// Each task is `f(&key, seed, input)` where `seed == key.seed()`. A
    /// panicking task yields `Err(message)` in its slot; siblings are
    /// unaffected.
    // audit:spawn-site — scoped workers: std::thread::scope joins every worker before return
    pub fn run<I, R, F>(&self, tasks: Vec<(TaskKey, I)>, f: F) -> SweepOutcome<R>
    where
        I: Send,
        R: Send,
        F: Fn(&TaskKey, u64, I) -> R + Sync,
    {
        #[expect(
            clippy::disallowed_methods,
            reason = "elapsed feeds the human throughput display only; wall-clock noise is excluded from Eq"
        )]
        let started = Instant::now();
        let total = tasks.len();
        let done = AtomicUsize::new(0);
        let clock = &self.clock;

        // (worker, stolen, submitted-tick) → outcome + lifecycle profile.
        let run_one = |key: TaskKey,
                       input: I,
                       worker: usize,
                       stolen: bool,
                       submitted: u64|
         -> (TaskOutcome<R>, TaskProfile) {
            let seed = key.seed();
            let started_tick = clock.now();
            let result = catch_unwind(AssertUnwindSafe(|| f(&key, seed, input)))
                .map_err(|payload| panic_message(payload.as_ref()));
            let finished_tick = clock.now();
            let outcome = TaskOutcome { key, seed, result };
            let profile = TaskProfile {
                key: outcome.key.clone(),
                seed,
                submitted,
                started: started_tick,
                finished: finished_tick,
                worker,
                stolen,
            };
            if let Some(sink) = &self.progress {
                sink(&ProgressEvent {
                    done: done.fetch_add(1, Ordering::Relaxed) + 1,
                    total,
                    key: outcome.key.clone(),
                    failed: outcome.result.is_err(),
                    elapsed: started.elapsed(),
                });
            }
            (outcome, profile)
        };

        let workers = self.jobs.min(total.max(1));
        if workers <= 1 {
            // The serial path: inline, submission order, no threads.
            let mut outcomes = Vec::with_capacity(total);
            let mut profiles = Vec::with_capacity(total);
            for (key, input) in tasks {
                let submitted = clock.now();
                let (outcome, profile) = run_one(key, input, 0, false, submitted);
                outcomes.push(outcome);
                profiles.push(profile);
            }
            return SweepOutcome {
                outcomes,
                profiles,
                elapsed: started.elapsed(),
            };
        }

        // Per-worker deques, filled round-robin by submission index. Each
        // entry carries its owner's index so a popper can tell a steal from
        // a local dequeue.
        // One enqueued job: submission index, key, input, submission tick.
        type QueuedJob<I> = (usize, TaskKey, I, u64);
        let queues: Vec<Mutex<VecDeque<QueuedJob<I>>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (idx, (key, input)) in tasks.into_iter().enumerate() {
            let submitted = clock.now();
            lock_clean(&queues[idx % workers]).push_back((idx, key, input, submitted));
        }
        type Finished<R> = (TaskOutcome<R>, TaskProfile);
        let slots: Vec<Mutex<Option<Finished<R>>>> = (0..total).map(|_| Mutex::new(None)).collect();

        std::thread::scope(|scope| {
            for w in 0..workers {
                let queues = &queues;
                let slots = &slots;
                let run_one = &run_one;
                scope.spawn(move || {
                    loop {
                        // Own deque first (front = submission order). Bind the
                        // popped value so the guard drops here — holding our
                        // own lock while probing siblings would let two
                        // draining workers deadlock on each other's queues.
                        let local = lock_clean(&queues[w]).pop_front();
                        let job = local.map(|j| (j, false)).or_else(|| {
                            // ...then steal from the back of a sibling's.
                            (1..workers).find_map(|d| {
                                lock_clean(&queues[(w + d) % workers])
                                    .pop_back()
                                    .map(|j| (j, true))
                            })
                        });
                        let Some(((idx, key, input, submitted), stolen)) = job else {
                            // No task regeneration: empty everywhere = done.
                            break;
                        };
                        let pair = run_one(key, input, w, stolen, submitted);
                        *lock_clean(&slots[idx]) = Some(pair);
                    }
                });
            }
        });

        let mut outcomes = Vec::with_capacity(total);
        let mut profiles = Vec::with_capacity(total);
        for slot in slots {
            let (outcome, profile) = lock_clean(&slot)
                .take()
                .expect("every submitted task writes its slot");
            outcomes.push(outcome);
            profiles.push(profile);
        }
        SweepOutcome {
            outcomes,
            profiles,
            elapsed: started.elapsed(),
        }
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("jobs", &self.jobs)
            .field("progress", &self.progress.is_some())
            .finish()
    }
}

/// Locks a mutex, tolerating poisoning: the engine catches task panics
/// before they can unwind through a held lock, so a poisoned mutex can only
/// mean a bug in the engine itself — the data is still just task bookkeeping.
fn lock_clean<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Stringifies a panic payload (mirrors the audit crate's conformance
/// harness).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn keys(n: usize) -> Vec<(TaskKey, usize)> {
        (0..n)
            .map(|i| (TaskKey::new(["test", &format!("t{i}")]), i))
            .collect()
    }

    #[test]
    fn outcomes_preserve_submission_order_at_any_width() {
        for jobs in [1, 2, 3, 8, 33] {
            let out = Engine::new(jobs).run(keys(100), |_k, _s, i| i * 2);
            assert_eq!(out.outcomes.len(), 100, "jobs={jobs}");
            for (i, o) in out.outcomes.iter().enumerate() {
                assert_eq!(o.result, Ok(i * 2), "jobs={jobs}");
                assert_eq!(o.seed, o.key.seed());
            }
        }
    }

    #[test]
    fn parallel_equals_serial_bit_for_bit() {
        let spin = |i: usize| u32::try_from(i).unwrap_or(u32::MAX);
        let serial = Engine::new(1).run(keys(64), |_k, seed, i| seed.rotate_left(spin(i)));
        let parallel = Engine::new(7).run(keys(64), |_k, seed, i| seed.rotate_left(spin(i)));
        assert_eq!(serial.outcomes, parallel.outcomes);
    }

    #[test]
    fn panics_become_structured_failures_without_poisoning_siblings() {
        let out = Engine::new(4).run(keys(32), |key, _s, i| {
            assert!(i != 13, "boom at {key}");
            i
        });
        let failures = out.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].key, TaskKey::new(["test", "t13"]));
        assert_eq!(failures[0].seed, failures[0].key.seed());
        assert!(failures[0].message.contains("boom"), "{failures:?}");
        let ok = out.outcomes.iter().filter(|o| o.result.is_ok()).count();
        assert_eq!(ok, 31, "siblings must complete");
    }

    #[test]
    fn progress_sink_sees_every_completion() {
        let seen = std::sync::Arc::new(AtomicU64::new(0));
        let max_done = std::sync::Arc::new(AtomicU64::new(0));
        let (seen_sink, max_sink) = (seen.clone(), max_done.clone());
        Engine::new(3)
            .with_progress(move |ev| {
                seen_sink.fetch_add(1, Ordering::Relaxed);
                max_sink.fetch_max(ev.done as u64, Ordering::Relaxed);
                assert_eq!(ev.total, 20);
            })
            .run(keys(20), |_k, _s, i| i);
        assert_eq!(seen.load(Ordering::Relaxed), 20);
        assert_eq!(max_done.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn expect_all_returns_values_and_reports_failures() {
        let vals = Engine::new(2)
            .run(keys(5), |_k, _s, i| i + 1)
            .expect_all("smoke");
        assert_eq!(vals, vec![1, 2, 3, 4, 5]);

        let out = Engine::new(2).run(keys(3), |_k, _s, i| {
            assert!(i != 1, "injected");
            i
        });
        let err = catch_unwind(AssertUnwindSafe(|| out.expect_all("ctx"))).unwrap_err();
        assert!(panic_message(err.as_ref()).contains("ctx"), "context kept");
    }

    #[test]
    fn profiles_cover_every_task_with_null_clock_zeros() {
        for jobs in [1, 5] {
            let out = Engine::new(jobs).run(keys(24), |_k, _s, i| i);
            assert_eq!(out.profiles.len(), 24, "jobs={jobs}");
            for (i, p) in out.profiles.iter().enumerate() {
                assert_eq!(p.key, out.outcomes[i].key, "submission order kept");
                assert_eq!(p.seed, p.key.seed());
                assert_eq!((p.submitted, p.started, p.finished), (0, 0, 0));
                assert_eq!(p.queue_wait(), 0);
                assert_eq!(p.run_ticks(), 0);
            }
        }
    }

    #[test]
    fn counting_clock_yields_ordered_nonzero_profiles() {
        let out = Engine::new(1)
            .with_clock(crate::clock::CountingClock::new())
            .run(keys(3), |_k, _s, i| i);
        for p in &out.profiles {
            assert!(p.submitted < p.started, "{p:?}");
            assert!(p.started < p.finished, "{p:?}");
            assert!(!p.stolen, "serial path never steals");
            assert_eq!(p.worker, 0);
        }
        // Serial ticks are strictly increasing across tasks.
        assert!(out.profiles[0].finished < out.profiles[1].submitted);
    }

    #[test]
    fn panicking_tasks_still_get_profiles() {
        let out = Engine::new(3).run(keys(8), |_k, _s, i| {
            assert!(i != 2, "boom");
            i
        });
        assert_eq!(out.profiles.len(), 8);
        assert_eq!(out.profiles[2].key, out.outcomes[2].key);
        assert!(out.outcomes[2].result.is_err());
    }

    #[test]
    fn zero_jobs_clamps_to_one_and_empty_batches_work() {
        let out = Engine::new(0).run(Vec::<(TaskKey, ())>::new(), |_k, _s, ()| ());
        assert!(out.outcomes.is_empty());
        assert_eq!(Engine::new(0).jobs(), 1);
    }
}
