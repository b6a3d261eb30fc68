//! Differential test: `FlowGraph::min_cost_flow` against a test-only copy of
//! the plain successive-shortest-path loop (fresh buffers, a `(distance,
//! node)` tuple heap, and a full first search on every branch).
//!
//! The two must agree on the routed flow, its cost, and the flow on every
//! edge — i.e. pick the same augmenting paths, ties included — on seeded
//! random networks of each shape the solver branches on. One `FlowGraph` is
//! reset and reused across all cases, so stale solver buffers would show.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use uopcache_flow::{FlowGraph, McmfResult};
use uopcache_model::rng::{Prng, Rng};

/// One edge as added: `(from, to, cap, cost)`.
type EdgeSpec = (usize, usize, i64, i64);

#[derive(Clone)]
struct RefEdge {
    to: usize,
    cap: i64,
    cost: i64,
}

/// Which initial-potential branch the reference took.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
enum Branch {
    ZeroPotentials,
    Dag,
    BellmanFord,
}

/// The reference solve: `(result, branch, flow per added edge)`. Its
/// `searches` counts every Dijkstra run, the first one included.
fn reference(
    n: usize,
    specs: &[EdgeSpec],
    source: usize,
    sink: usize,
    max_flow: i64,
) -> (McmfResult, Branch, Vec<i64>) {
    let mut edges = Vec::new();
    let mut adj = vec![Vec::new(); n];
    let mut is_forward_dag = true;
    for &(from, to, cap, cost) in specs {
        if from >= to {
            is_forward_dag = false;
        }
        let id = edges.len();
        edges.push(RefEdge { to, cap, cost });
        edges.push(RefEdge {
            to: from,
            cap: 0,
            cost: -cost,
        });
        adj[from].push(id);
        adj[to].push(id + 1);
    }

    let (branch, mut potential) = if edges.iter().all(|e| e.cost >= 0) {
        (Branch::ZeroPotentials, vec![0i64; n])
    } else if is_forward_dag {
        let mut dist = vec![i64::MAX; n];
        dist[source] = 0;
        for u in 0..n {
            if dist[u] == i64::MAX {
                continue;
            }
            for &eid in &adj[u] {
                let e = &edges[eid];
                if e.cap <= 0 || e.to <= u {
                    continue;
                }
                let nd = dist[u] + e.cost;
                if nd < dist[e.to] {
                    dist[e.to] = nd;
                }
            }
        }
        (Branch::Dag, dist)
    } else {
        let mut dist = vec![i64::MAX; n];
        let mut in_queue = vec![false; n];
        dist[source] = 0;
        let mut queue = VecDeque::from([source]);
        in_queue[source] = true;
        while let Some(u) = queue.pop_front() {
            in_queue[u] = false;
            for &eid in &adj[u] {
                let e = &edges[eid];
                if e.cap <= 0 || dist[u] == i64::MAX {
                    continue;
                }
                let nd = dist[u] + e.cost;
                if nd < dist[e.to] {
                    dist[e.to] = nd;
                    if !in_queue[e.to] {
                        queue.push_back(e.to);
                        in_queue[e.to] = true;
                    }
                }
            }
        }
        (Branch::BellmanFord, dist)
    };

    let mut total = McmfResult::default();
    let mut dist = vec![i64::MAX; n];
    let mut par_edge = vec![usize::MAX; n];
    while total.flow < max_flow {
        total.searches += 1;
        dist.fill(i64::MAX);
        par_edge.fill(usize::MAX);
        dist[source] = 0;
        let mut heap: BinaryHeap<Reverse<(i64, usize)>> = BinaryHeap::new();
        heap.push(Reverse((0, source)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u] {
                continue;
            }
            for &eid in &adj[u] {
                let e = &edges[eid];
                if e.cap <= 0 {
                    continue;
                }
                let v = e.to;
                if potential[u] == i64::MAX || potential[v] == i64::MAX {
                    continue;
                }
                let nd = d + e.cost + potential[u] - potential[v];
                if nd < dist[v] {
                    dist[v] = nd;
                    par_edge[v] = eid;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        if dist[sink] == i64::MAX {
            break;
        }
        for v in 0..n {
            if dist[v] != i64::MAX {
                potential[v] = potential[v].saturating_add(dist[v]);
            }
        }
        let mut push = max_flow - total.flow;
        let mut v = sink;
        while v != source {
            push = push.min(edges[par_edge[v]].cap);
            v = edges[par_edge[v] ^ 1].to;
        }
        let mut v = sink;
        let mut path_cost = 0;
        while v != source {
            let eid = par_edge[v];
            edges[eid].cap -= push;
            edges[eid ^ 1].cap += push;
            path_cost += edges[eid].cost;
            v = edges[eid ^ 1].to;
        }
        total.flow += push;
        total.cost += push * path_cost;
    }
    let flows = (0..specs.len()).map(|i| edges[2 * i + 1].cap).collect();
    (total, branch, flows)
}

/// Solves one network both ways and asserts identical outcomes. Returns the
/// branch taken, so callers can check their generator hits the intended one.
fn check(
    g: &mut FlowGraph,
    n: usize,
    specs: &[EdgeSpec],
    sink: usize,
    max_flow: i64,
    what: &str,
) -> (Branch, McmfResult) {
    let (want, branch, want_flows) = reference(n, specs, 0, sink, max_flow);
    g.reset(n);
    let ids: Vec<_> = specs
        .iter()
        .map(|&(u, v, cap, cost)| g.add_edge(u, v, cap, cost))
        .collect();
    let got = g.min_cost_flow(0, sink, max_flow);
    // The DAG branch's potential pass already yields the first search's
    // tree, so that search is not run.
    let skipped = u64::from(branch == Branch::Dag && want.searches > 0);
    assert_eq!(
        got,
        McmfResult {
            searches: want.searches - skipped,
            ..want
        },
        "{what}: {specs:?}"
    );
    let got_flows: Vec<i64> = ids.iter().map(|&e| g.flow_on(e)).collect();
    assert_eq!(got_flows, want_flows, "{what}: {specs:?}");
    (branch, got)
}

/// A FOO-shaped network: a chain of `ways`-capacity zero-cost edges, plus
/// interval edges forward along it whose negative per-unit costs come from a
/// handful of values, so equally cheap paths abound.
fn foo_chain(rng: &mut Prng) -> (usize, Vec<EdgeSpec>, i64) {
    let n = rng.gen_range(2..48usize);
    let ways = rng.gen_range(1..=8i64);
    let mut specs: Vec<EdgeSpec> = (0..n - 1).map(|k| (k, k + 1, ways, 0)).collect();
    for _ in 0..rng.gen_range(0..2 * n) {
        let from = rng.gen_range(0..n - 1);
        let to = rng.gen_range(from + 1..n.min(from + 12));
        let size = rng.gen_range(1..=ways.min(3));
        let benefit = 840 * [1, 1, 2, 4][rng.gen_range(0..4usize)] * size;
        specs.push((from, to, size, -(benefit / size)));
    }
    (n, specs, ways)
}

/// A general network with node heights `h`: costs `base + h(u) − h(v)` are
/// often negative, yet every cycle costs `Σ base ≥ 0`, so Bellman–Ford
/// terminates. At least one edge runs backwards to force that branch.
fn general(rng: &mut Prng, non_negative: bool) -> (usize, Vec<EdgeSpec>) {
    let n = rng.gen_range(3..14usize);
    let h: Vec<i64> = (0..n)
        .map(|_| {
            if non_negative {
                0
            } else {
                rng.gen_range(0..6i64)
            }
        })
        .collect();
    let mut specs = Vec::new();
    for k in 0..rng.gen_range(n..4 * n) {
        let (u, v) = if k == 0 {
            (n - 1, rng.gen_range(0..n - 1))
        } else {
            let u = rng.gen_range(0..n);
            let v = (u + rng.gen_range(1..n)) % n;
            (u, v)
        };
        let base = rng.gen_range(0..=3i64);
        specs.push((u, v, rng.gen_range(0..=4i64), base + h[u] - h[v]));
    }
    (n, specs)
}

#[test]
fn foo_shaped_chains_match_the_reference() {
    let mut rng = Prng::seed_from_u64(0xF00D);
    let mut g = FlowGraph::new(0);
    for round in 0..1500 {
        let (n, specs, ways) = foo_chain(&mut rng);
        let want = if round % 5 == 0 { ways + 3 } else { ways };
        let (branch, r) = check(&mut g, n, &specs, n - 1, want, "foo chain");
        let has_interval = specs.len() >= n;
        assert_eq!(branch == Branch::Dag, has_interval, "{specs:?}");
        assert!(r.flow >= ways, "the chain alone carries `ways` units");
    }
}

#[test]
fn general_graphs_take_bellman_ford_and_match_the_reference() {
    let mut rng = Prng::seed_from_u64(0xBE11);
    let mut g = FlowGraph::new(0);
    let mut taken = 0;
    for _ in 0..1500 {
        let (n, specs) = general(&mut rng, false);
        let max_flow = rng.gen_range(1..=6i64);
        let (branch, _) = check(&mut g, n, &specs, n - 1, max_flow, "general");
        taken += usize::from(branch == Branch::BellmanFord);
    }
    assert!(taken > 1000, "only {taken} rounds reached Bellman–Ford");
}

#[test]
fn non_negative_costs_match_the_reference() {
    let mut rng = Prng::seed_from_u64(0x0C05);
    let mut g = FlowGraph::new(0);
    let mut zero_branch = 0;
    for round in 0..1500 {
        let (n, mut specs) = general(&mut rng, true);
        if round % 2 == 0 {
            // All-zero costs: the only networks whose residual costs are
            // all non-negative, so potentials start at 0.
            for e in &mut specs {
                e.3 = 0;
            }
        }
        let max_flow = rng.gen_range(1..=6i64);
        let (branch, _) = check(&mut g, n, &specs, n - 1, max_flow, "non-negative");
        zero_branch += usize::from(branch == Branch::ZeroPotentials);
    }
    assert_eq!(zero_branch, 750);
}

#[test]
fn unreachable_sinks_match_the_reference() {
    let mut rng = Prng::seed_from_u64(0x51C4);
    let mut g = FlowGraph::new(0);
    for round in 0..900 {
        let (n, mut specs) = match round % 3 {
            0 => {
                let (n, specs, _) = foo_chain(&mut rng);
                (n, specs)
            }
            1 => general(&mut rng, false),
            _ => general(&mut rng, true),
        };
        // Cut every edge into the sink (the last node).
        specs.retain(|&(_, v, _, _)| v != n - 1);
        let (_, r) = check(&mut g, n, &specs, n - 1, 4, "unreachable sink");
        assert_eq!((r.flow, r.cost), (0, 0));
    }
}
