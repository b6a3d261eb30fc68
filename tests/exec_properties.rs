//! Property-style checks of the `uopcache-exec` engine under randomized
//! submission orders, task trees and worker counts.
//!
//! Random inputs come from the workspace's deterministic seeded [`Prng`], so
//! any failure reproduces exactly from the printed round number.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use uopcache::exec::{Engine, SweepOutcome, TaskKey};
use uopcache::model::rng::{Prng, Rng};

/// Fisher-Yates shuffle driven by the workspace Prng.
fn shuffle<T>(rng: &mut Prng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i as u64) as usize;
        items.swap(i, j);
    }
}

fn keys(n: usize) -> Vec<TaskKey> {
    (0..n)
        .map(|i| TaskKey::new(["prop", &format!("task{i:03}")]))
        .collect()
}

/// Every submitted task runs exactly once, whatever the submission order or
/// worker count.
#[test]
fn every_task_runs_exactly_once() {
    let mut rng = Prng::seed_from_u64(0x5eed_ec01);
    for round in 0..8 {
        let n = rng.gen_range(1..40u64) as usize;
        let jobs = rng.gen_range(1..9u64) as usize;
        let mut order: Vec<usize> = (0..n).collect();
        shuffle(&mut rng, &mut order);

        let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let all = keys(n);
        let tasks: Vec<(TaskKey, usize)> = order.iter().map(|&i| (all[i].clone(), i)).collect();
        let outcome = Engine::new(jobs).run(tasks, |_key, _seed, i: usize| {
            counters[i].fetch_add(1, Ordering::SeqCst);
            i
        });
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::SeqCst),
                1,
                "round {round}: task {i} did not run exactly once (n={n}, jobs={jobs})"
            );
        }
        assert_eq!(outcome.outcomes.len(), n, "round {round}");
    }
}

/// Outcomes come back in submission order, and sorting them by key is a pure
/// reordering of the same set — the merge rule every caller relies on.
#[test]
fn outcomes_merge_in_submission_then_key_order() {
    let mut rng = Prng::seed_from_u64(0x5eed_ec02);
    for round in 0..8 {
        let n = rng.gen_range(2..30u64) as usize;
        let jobs = rng.gen_range(1..9u64) as usize;
        let mut order: Vec<usize> = (0..n).collect();
        shuffle(&mut rng, &mut order);

        let all = keys(n);
        let tasks: Vec<(TaskKey, usize)> = order.iter().map(|&i| (all[i].clone(), i)).collect();
        let outcome = Engine::new(jobs).run(tasks, |_key, _seed, i: usize| i);

        // Submission order is preserved verbatim...
        let returned: Vec<usize> = outcome
            .outcomes
            .iter()
            .map(|o| *o.result.as_ref().expect("no panics here"))
            .collect();
        assert_eq!(returned, order, "round {round} (jobs={jobs})");
        // ...and a key-order sort recovers the canonical 0..n sequence.
        let mut by_key = outcome.outcomes;
        by_key.sort_by(|a, b| a.key.cmp(&b.key));
        let sorted: Vec<usize> = by_key
            .iter()
            .map(|o| *o.result.as_ref().expect("no panics here"))
            .collect();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "round {round}");
    }
}

/// A panicking task is reported as a structured failure carrying its key and
/// seed; sibling tasks are unaffected (no poisoning, no abort).
#[test]
fn panics_are_isolated_and_structured() {
    let mut rng = Prng::seed_from_u64(0x5eed_ec03);
    for round in 0..8 {
        let n = rng.gen_range(3..25u64) as usize;
        let jobs = rng.gen_range(1..9u64) as usize;
        let bad = rng.gen_range(0..n as u64) as usize;

        let all = keys(n);
        let tasks: Vec<(TaskKey, usize)> = (0..n).map(|i| (all[i].clone(), i)).collect();
        let outcome = Engine::new(jobs).run(tasks, |_key, _seed, i: usize| {
            assert!(i != bad, "task {i} was told to fail");
            i
        });

        let failures = outcome.failures();
        assert_eq!(failures.len(), 1, "round {round} (jobs={jobs})");
        assert_eq!(failures[0].key, all[bad]);
        assert_eq!(failures[0].seed, all[bad].seed());
        assert!(failures[0].message.contains("told to fail"));
        let ok = outcome.outcomes.iter().filter(|o| o.result.is_ok()).count();
        assert_eq!(ok, n - 1, "round {round}: siblings were poisoned");
    }
}

/// The seed handed to a task depends only on its key — not on submission
/// position, sibling tasks, or worker count.
#[test]
fn seeds_depend_only_on_the_key() {
    let mut rng = Prng::seed_from_u64(0x5eed_ec04);
    let all = keys(12);
    let reference: Vec<u64> = all.iter().map(TaskKey::seed).collect();
    for round in 0..8 {
        let jobs = rng.gen_range(1..9u64) as usize;
        let mut order: Vec<usize> = (0..all.len()).collect();
        shuffle(&mut rng, &mut order);
        let tasks: Vec<(TaskKey, usize)> = order.iter().map(|&i| (all[i].clone(), i)).collect();
        let outcome = Engine::new(jobs).run(tasks, |_key, seed, i: usize| (i, seed));
        for o in &outcome.outcomes {
            let (i, seen) = *o.result.as_ref().expect("no panics here");
            assert_eq!(seen, reference[i], "round {round} (jobs={jobs})");
            assert_eq!(o.seed, reference[i], "round {round}");
        }
    }
}

/// One task of a random tree: its key, parent, root, children and the
/// number of tasks in its subtree (itself included).
struct Node {
    key: TaskKey,
    parent: Option<usize>,
    root: usize,
    children: Vec<usize>,
    size: usize,
}

/// A random forest of 1–11 roots, each task holding 0–4 children, at
/// most three levels below its root; parents precede their children.
fn random_tree(rng: &mut Prng) -> Vec<Node> {
    fn grow(rng: &mut Prng, nodes: &mut Vec<Node>, at: usize, depth: usize) {
        let n = if depth < 3 { rng.gen_range(0..5u64) } else { 0 };
        for j in 0..n {
            let child = nodes.len();
            nodes.push(Node {
                key: nodes[at].key.child(format!("c{j}")),
                parent: Some(at),
                root: nodes[at].root,
                children: Vec::new(),
                size: 1,
            });
            nodes[at].children.push(child);
            grow(rng, nodes, child, depth + 1);
        }
    }
    let mut nodes = Vec::new();
    for r in 0..rng.gen_range(1..12u64) {
        let root = nodes.len();
        nodes.push(Node {
            key: TaskKey::new(["tree", &format!("root{r}")]),
            parent: None,
            root,
            children: Vec::new(),
            size: 1,
        });
        grow(rng, &mut nodes, root, 0);
    }
    for i in (0..nodes.len()).rev() {
        if let Some(p) = nodes[i].parent {
            nodes[p].size += nodes[i].size;
        }
    }
    nodes
}

/// What one run of a random tree saw.
struct Observed {
    outcome: SweepOutcome<(usize, u64)>,
    /// Per task, how many times it ran.
    runs: Vec<usize>,
    /// Tasks that started before their parent returned.
    early: Vec<usize>,
    /// The most roots seen started with some task of their tree unfinished.
    max_in_flight: usize,
}

/// Runs `nodes` on `jobs` workers; task `bad`, when given, panics. Each
/// task returns its index and seed and, as its children, its child tasks.
fn run_random_tree(nodes: &[Node], jobs: usize, bad: Option<usize>) -> Observed {
    let runs: Vec<AtomicUsize> = nodes.iter().map(|_| AtomicUsize::new(0)).collect();
    let returned: Vec<AtomicBool> = nodes.iter().map(|_| AtomicBool::new(false)).collect();
    let unfinished: Vec<AtomicUsize> = nodes.iter().map(|n| AtomicUsize::new(n.size)).collect();
    let early = Mutex::new(Vec::new());
    let (in_flight, max_in_flight) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let roots = (0..nodes.len())
        .filter(|&i| nodes[i].parent.is_none())
        .map(|i| (nodes[i].key.clone(), i))
        .collect();
    let outcome = Engine::new(jobs).run_tree(roots, |_key, seed, i: usize| {
        let node = &nodes[i];
        runs[i].fetch_add(1, Ordering::SeqCst);
        match node.parent {
            None => {
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                max_in_flight.fetch_max(now, Ordering::SeqCst);
            }
            Some(p) if !returned[p].load(Ordering::SeqCst) => {
                early
                    .lock()
                    .expect("no test panics under this lock")
                    .push(i);
            }
            Some(_) => {}
        }
        // A little work, so workers overlap.
        let spin = (0..2_000u64).fold(seed, |h, x| h.rotate_left(5) ^ x);
        std::hint::black_box(spin);
        // This task is done, and so is its subtree if it panics now.
        let done = if Some(i) == bad { node.size } else { 1 };
        if unfinished[node.root].fetch_sub(done, Ordering::SeqCst) == done {
            in_flight.fetch_sub(1, Ordering::SeqCst);
        }
        assert!(Some(i) != bad, "task {i} was told to fail");
        let children = (node.children.iter()).map(|&c| (nodes[c].key.clone(), c));
        let children = children.collect();
        returned[i].store(true, Ordering::SeqCst);
        ((i, seed), children)
    });
    Observed {
        outcome,
        runs: runs.iter().map(|r| r.load(Ordering::SeqCst)).collect(),
        early: early.into_inner().expect("no test panics under this lock"),
        max_in_flight: max_in_flight.load(Ordering::SeqCst),
    }
}

/// The tasks of `nodes` in tree order (each root, then its children's
/// subtrees), skipping the descendants of `bad`.
fn tree_order(nodes: &[Node], bad: Option<usize>) -> Vec<usize> {
    fn visit(nodes: &[Node], i: usize, bad: Option<usize>, out: &mut Vec<usize>) {
        out.push(i);
        if Some(i) != bad {
            for &c in &nodes[i].children {
                visit(nodes, c, bad, out);
            }
        }
    }
    let mut out = Vec::new();
    for i in (0..nodes.len()).filter(|&i| nodes[i].parent.is_none()) {
        visit(nodes, i, bad, &mut out);
    }
    out
}

const TREE_WORKERS: [usize; 3] = [1, 2, 8];

/// Every root and every child a task returns runs exactly once, and the
/// outcomes come back in tree order.
#[test]
fn every_tree_task_runs_exactly_once() {
    let mut rng = Prng::seed_from_u64(0x5eed_ec05);
    for round in 0..8 {
        let nodes = random_tree(&mut rng);
        for jobs in TREE_WORKERS {
            let seen = run_random_tree(&nodes, jobs, None);
            assert!(
                seen.runs.iter().all(|&r| r == 1),
                "round {round} (jobs={jobs}): runs {:?}",
                seen.runs
            );
            let order: Vec<usize> = (seen.outcome.outcomes.iter())
                .map(|o| o.result.as_ref().expect("no panics here").0)
                .collect();
            assert_eq!(
                order,
                tree_order(&nodes, None),
                "round {round} (jobs={jobs})"
            );
        }
    }
}

/// A child is queued only once its parent has returned it, so no child
/// starts before its parent's body is done.
#[test]
fn no_child_starts_before_its_parent_returns() {
    let mut rng = Prng::seed_from_u64(0x5eed_ec06);
    for round in 0..8 {
        let nodes = random_tree(&mut rng);
        for jobs in TREE_WORKERS {
            let seen = run_random_tree(&nodes, jobs, None);
            assert!(
                seen.early.is_empty(),
                "round {round} (jobs={jobs}): tasks {:?} started early",
                seen.early
            );
        }
    }
}

/// Outcomes, seeds and their order are a function of the keys alone: the
/// same tree gives the same outcomes at every worker count.
#[test]
fn tree_outcomes_and_seeds_depend_only_on_the_keys() {
    let mut rng = Prng::seed_from_u64(0x5eed_ec07);
    for round in 0..8 {
        let nodes = random_tree(&mut rng);
        let serial = run_random_tree(&nodes, 1, None).outcome.outcomes;
        for o in &serial {
            let (i, seed) = *o.result.as_ref().expect("no panics here");
            assert_eq!(o.key, nodes[i].key, "round {round}");
            assert_eq!(
                (o.seed, seed),
                (o.key.seed(), o.key.seed()),
                "round {round}"
            );
        }
        for jobs in [2, 8] {
            let parallel = run_random_tree(&nodes, jobs, None).outcome.outcomes;
            assert_eq!(parallel, serial, "round {round} (jobs={jobs})");
        }
    }
}

/// A panicking task reports its own structured failure and runs none of
/// its children; every other task, sibling roots and their children
/// included, runs and succeeds.
#[test]
fn a_panicking_task_runs_none_of_its_children() {
    let mut rng = Prng::seed_from_u64(0x5eed_ec08);
    for round in 0..8 {
        let nodes = random_tree(&mut rng);
        let bad = rng.gen_range(0..nodes.len() as u64) as usize;
        let mut skipped = vec![false; nodes.len()];
        for i in 0..nodes.len() {
            let mut at = nodes[i].parent;
            while let Some(p) = at {
                skipped[i] |= p == bad;
                at = nodes[p].parent;
            }
        }
        for jobs in TREE_WORKERS {
            let seen = run_random_tree(&nodes, jobs, Some(bad));
            for (i, &ran) in seen.runs.iter().enumerate() {
                assert_eq!(
                    ran,
                    usize::from(!skipped[i]),
                    "round {round} (jobs={jobs}): task {i}"
                );
            }
            let failures = seen.outcome.failures();
            assert_eq!(failures.len(), 1, "round {round} (jobs={jobs})");
            assert_eq!(failures[0].key, nodes[bad].key);
            assert_eq!(failures[0].seed, nodes[bad].key.seed());
            assert!(failures[0].message.contains("told to fail"));
            let keys: Vec<&TaskKey> = seen.outcome.outcomes.iter().map(|o| &o.key).collect();
            let expected: Vec<&TaskKey> = (tree_order(&nodes, Some(bad)).into_iter())
                .map(|i| &nodes[i].key)
                .collect();
            assert_eq!(keys, expected, "round {round} (jobs={jobs})");
        }
    }
}

/// A worker starts a root only when no child is ready anywhere, so no more
/// than twice the worker count of roots is ever started with part of its
/// tree unfinished.
#[test]
fn roots_in_flight_are_bounded_by_the_workers() {
    let mut rng = Prng::seed_from_u64(0x5eed_ec09);
    for round in 0..8 {
        let nodes = random_tree(&mut rng);
        for jobs in TREE_WORKERS {
            let seen = run_random_tree(&nodes, jobs, None);
            assert!(
                seen.max_in_flight <= 2 * jobs,
                "round {round} (jobs={jobs}): {} roots in flight",
                seen.max_in_flight
            );
        }
    }
}
