//! # uopcache-flow
//!
//! A min-cost max-flow solver used by the flow-based offline optimal (FOO)
//! replacement policy and its FLACK extension.
//!
//! The solver implements **successive shortest paths with Johnson potentials**:
//! after an initial potential computation (a single topological-order
//! relaxation when the graph is a DAG with edges from lower to higher node
//! indices — which the FOO interval network always is — or Bellman–Ford
//! otherwise), every augmentation runs Dijkstra on reduced costs, except
//! that on a DAG the first augmenting path comes straight from the potential
//! pass. Which of several equally cheap paths is taken is fixed by a
//! documented contract (see [`FlowGraph::min_cost_flow`]), so the returned
//! flow, and FOO's decisions read off it, never depend on solver internals.
//!
//! Costs may be negative (FOO rewards caching an interval with a negative
//! cost); capacities must be non-negative.
//!
//! # Examples
//!
//! ```
//! use uopcache_flow::FlowGraph;
//!
//! // Two parallel paths from 0 to 3 with different costs.
//! let mut g = FlowGraph::new(4);
//! let cheap = g.add_edge(0, 1, 5, 1);
//! g.add_edge(1, 3, 5, 1);
//! let pricey = g.add_edge(0, 2, 5, 4);
//! g.add_edge(2, 3, 5, 4);
//! let result = g.min_cost_flow(0, 3, 7);
//! assert_eq!(result.flow, 7);
//! assert_eq!(result.cost, 5 * 2 + 2 * 8); // 5 units cheap, 2 units pricey
//! assert_eq!(g.flow_on(cheap), 5);
//! assert_eq!(g.flow_on(pricey), 2);
//! ```

mod graph;

pub use graph::{EdgeId, FlowGraph, McmfResult};
