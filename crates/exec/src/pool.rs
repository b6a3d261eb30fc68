//! The scoped-thread work-stealing pool.
//!
//! [`Engine::run_tree`] executes a tree of keyed tasks: a batch of roots,
//! and every child a finished task returns. A finished task's children go
//! on its worker's own deque; a worker takes the newest task on its own
//! deque, else steals the oldest from a sibling's, and starts the next root
//! (in submission order) only when no child is ready anywhere. A subtree
//! therefore finishes before fresh roots pile up beside it: at most `jobs`
//! roots have unfinished descendants at once. [`Engine::run`] is the
//! childless case. With `jobs == 1` the one worker loop runs inline on the
//! caller thread, so roots run in submission order and each subtree depth
//! first — exactly the serial path. Because every task is a pure function
//! of its [`TaskKey`] and derived seed, and outcomes are returned in tree
//! order rather than completion order, the result is bit-identical for
//! every worker count and every interleaving.

use crate::clock::{Clock, NullClock};
use crate::seed::TaskKey;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
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

/// The outcome of one task, in tree order within a [`SweepOutcome`].
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
/// With the default `NullClock` every tick is 0, so profiles are inert and
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
    /// Clock tick when the task was enqueued: when the batch started for a
    /// root, when its parent finished for a child.
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

/// All outcomes of one [`Engine::run_tree`] (or [`Engine::run`]) batch, in
/// tree order (for a childless batch, submission order).
///
/// Deliberately not `PartialEq`: `elapsed` is wall-clock noise. Compare
/// [`outcomes`](Self::outcomes) — those are the deterministic part.
#[derive(Clone, Debug)]
pub struct SweepOutcome<R> {
    /// One outcome per task, in tree order.
    pub outcomes: Vec<TaskOutcome<R>>,
    /// One lifecycle profile per task, in tree order.
    pub profiles: Vec<TaskProfile>,
    /// Wall-clock time of the batch.
    pub elapsed: Duration,
}

impl<R> SweepOutcome<R> {
    /// Every structured failure, in tree order.
    pub fn failures(&self) -> Vec<TaskFailure> {
        self.outcomes
            .iter()
            .filter_map(TaskOutcome::failure)
            .collect()
    }

    /// Unwraps every task value, in tree order.
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
}

/// The parallel experiment engine.
///
/// See the [crate docs](crate) for the determinism contract and an example.
pub struct Engine {
    jobs: usize,
    clock: Arc<dyn Clock>,
}

impl Engine {
    /// An engine with `jobs` workers (clamped to at least 1). `jobs == 1`
    /// runs tasks inline on the caller thread, in submission order.
    pub fn new(jobs: usize) -> Self {
        Engine {
            jobs: jobs.max(1),
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
    /// `NullClock` reads 0 forever, keeping profiles deterministic; inject
    /// a [`WallClock`](crate::clock::WallClock) for real measurements.
    #[must_use]
    pub fn with_clock(mut self, clock: impl Clock + 'static) -> Self {
        self.clock = Arc::new(clock);
        self
    }

    /// Runs every task and returns the outcomes **in submission order**:
    /// [`run_tree`](Self::run_tree) with tasks that return no children.
    ///
    /// Each task is `f(&key, seed, input)` where `seed == key.seed()`. A
    /// panicking task yields `Err(message)` in its slot; siblings are
    /// unaffected.
    pub fn run<I, R, F>(&self, tasks: Vec<(TaskKey, I)>, f: F) -> SweepOutcome<R>
    where
        I: Send,
        R: Send,
        F: Fn(&TaskKey, u64, I) -> R + Sync,
    {
        self.run_tree(tasks, |key, seed, input| (f(key, seed, input), Vec::new()))
    }

    /// Runs a tree of tasks: every root, and every child a task returns.
    ///
    /// Each task is `f(&key, seed, input)` where `seed == key.seed()`, and
    /// returns its value and its children. The children are queued when
    /// the task returns, on its worker's own deque. A worker takes the
    /// newest task on its own deque, else steals the oldest from a
    /// sibling's, and starts the next root (in submission order) only when
    /// no child is ready anywhere, so at most `jobs` roots have unfinished
    /// descendants at once. A panicking task yields `Err(message)` in its
    /// slot and runs none of its children; every other task is unaffected.
    ///
    /// Outcomes come back in **tree order**: each root in submission order,
    /// followed by the subtrees of its children in the order it returned
    /// them. For a childless batch that is submission order.
    // audit:spawn-site — scoped workers: std::thread::scope joins every worker before return
    pub fn run_tree<I, R, F>(&self, roots: Vec<(TaskKey, I)>, f: F) -> SweepOutcome<R>
    where
        I: Send,
        R: Send,
        F: Fn(&TaskKey, u64, I) -> (R, Vec<(TaskKey, I)>) + Sync,
    {
        #[expect(
            clippy::disallowed_methods,
            reason = "elapsed feeds the run times printed for people only; wall-clock noise is excluded from Eq"
        )]
        let started = Instant::now();
        let clock = &self.clock;

        // A task runs to its outcome, lifecycle profile and children.
        let run_one = |task: Pending<I>, worker: usize, stolen: bool| -> Ran<I, R> {
            let Pending {
                slot,
                key,
                input,
                submitted,
            } = task;
            let seed = key.seed();
            let started_tick = clock.now();
            let (result, children) = match catch_unwind(AssertUnwindSafe(|| f(&key, seed, input))) {
                Ok((value, children)) => (Ok(value), children),
                Err(payload) => (Err(panic_message(payload.as_ref())), Vec::new()),
            };
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
            Ran {
                slot,
                done: (outcome, profile),
                children,
            }
        };

        let tree = Mutex::new(Tree::new(roots, self.jobs, clock.as_ref()));
        let ready = Condvar::new();
        if self.jobs == 1 {
            // The serial path: the one worker loop, inline, no threads.
            work(&tree, &ready, 0, &run_one);
        } else {
            std::thread::scope(|scope| {
                for w in 0..self.jobs {
                    let (tree, ready, run_one) = (&tree, &ready, &run_one);
                    scope.spawn(move || work(tree, ready, w, run_one));
                }
            });
        }
        let (outcomes, profiles) = tree
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .into_outcomes();
        SweepOutcome {
            outcomes,
            profiles,
            elapsed: started.elapsed(),
        }
    }
}

/// A finished task's outcome and lifecycle profile.
type Finished<R> = (TaskOutcome<R>, TaskProfile);

/// A queued task: its slot in the tree, key, input and submission tick.
struct Pending<I> {
    slot: usize,
    key: TaskKey,
    input: I,
    submitted: u64,
}

/// What running one task yields: its slot, what it finished with, and the
/// children it returned.
struct Ran<I, R> {
    slot: usize,
    done: Finished<R>,
    children: Vec<(TaskKey, I)>,
}

/// The scheduler's state, under one lock. Tasks run for milliseconds, so
/// one lock costs nothing measurable, and it makes "no child is ready
/// anywhere" an exact test rather than a race between deques.
struct Tree<I, R> {
    /// Roots not yet started, in submission order.
    roots: VecDeque<Pending<I>>,
    /// Per worker, the children its finished tasks returned: the owner
    /// pops the back (the newest subtree, depth first), a thief the front.
    deques: Vec<VecDeque<Pending<I>>>,
    /// Tasks started and not yet finished.
    running: usize,
    /// How many slots, the first, are roots.
    root_slots: usize,
    /// Per slot, in creation order (roots first): the slots of the task's
    /// children, and what it finished with.
    slots: Vec<(Vec<usize>, Option<Finished<R>>)>,
}

impl<I, R> Tree<I, R> {
    fn new(roots: Vec<(TaskKey, I)>, workers: usize, clock: &dyn Clock) -> Self {
        let roots: VecDeque<Pending<I>> = (roots.into_iter().enumerate())
            .map(|(slot, (key, input))| Pending {
                slot,
                key,
                input,
                submitted: clock.now(),
            })
            .collect();
        Tree {
            slots: (0..roots.len()).map(|_| (Vec::new(), None)).collect(),
            root_slots: roots.len(),
            roots,
            deques: (0..workers).map(|_| VecDeque::new()).collect(),
            running: 0,
        }
    }

    /// The task worker `w` runs next, and whether it is stolen: the newest
    /// child on its own deque, else the oldest on a sibling's, else — no
    /// child being ready anywhere — the next root.
    fn next(&mut self, w: usize) -> Option<(Pending<I>, bool)> {
        if let Some(task) = self.deques[w].pop_back() {
            return Some((task, false));
        }
        let n = self.deques.len();
        (1..n)
            .find_map(|d| self.deques[(w + d) % n].pop_front())
            .map(|task| (task, true))
            .or_else(|| self.roots.pop_front().map(|task| (task, false)))
    }

    /// Records a task worker `w` ran, and queues its children on `w`'s
    /// deque, the first child on top, submitted when their parent finished.
    fn finish(&mut self, w: usize, ran: Ran<I, R>) {
        let Ran {
            slot,
            done,
            children,
        } = ran;
        let submitted = done.1.finished;
        let first = self.slots.len();
        self.slots[slot] = ((first..first + children.len()).collect(), Some(done));
        self.slots
            .extend(children.iter().map(|_| (Vec::new(), None)));
        let pending = (children.into_iter().enumerate().rev()).map(|(i, (key, input))| Pending {
            slot: first + i,
            key,
            input,
            submitted,
        });
        self.deques[w].extend(pending);
    }

    /// Every outcome and profile, in tree order.
    fn into_outcomes(mut self) -> (Vec<TaskOutcome<R>>, Vec<TaskProfile>) {
        let mut outcomes = Vec::with_capacity(self.slots.len());
        let mut profiles = Vec::with_capacity(self.slots.len());
        let mut stack: Vec<usize> = (0..self.root_slots).rev().collect();
        while let Some(slot) = stack.pop() {
            let (children, done) = std::mem::take(&mut self.slots[slot]);
            let (outcome, profile) = done.expect("every queued task finishes");
            outcomes.push(outcome);
            profiles.push(profile);
            stack.extend(children.into_iter().rev());
        }
        (outcomes, profiles)
    }
}

/// One worker's loop: runs tasks until none is queued or running. A worker
/// with nothing to take while others run waits for them to return children
/// (or for the last of them to finish).
fn work<I, R>(
    tree: &Mutex<Tree<I, R>>,
    ready: &Condvar,
    w: usize,
    run_one: &(impl Fn(Pending<I>, usize, bool) -> Ran<I, R> + Sync),
) {
    let mut state = lock_clean(tree);
    loop {
        if let Some((task, stolen)) = state.next(w) {
            state.running += 1;
            drop(state);
            let ran = run_one(task, w, stolen);
            let spawned = !ran.children.is_empty();
            state = lock_clean(tree);
            state.finish(w, ran);
            state.running -= 1;
            if spawned || state.running == 0 {
                ready.notify_all();
            }
        } else if state.running == 0 {
            return;
        } else {
            state = ready.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine").field("jobs", &self.jobs).finish()
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
        // The serial path runs the roots one after another, in order.
        assert!(out.profiles[0].finished < out.profiles[1].started);
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
