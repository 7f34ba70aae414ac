//! # gograph-core
//!
//! The paper's primary contribution: **GoGraph**, a divide-and-conquer
//! graph reordering method that maximizes the metric function
//! `M(O)` — the number of *positive edges* (source before destination in
//! the processing order) — so that an asynchronous iterative engine can
//! consume updated neighbor states within the same round and converge in
//! fewer iterations (*Fast Iterative Graph Computing with Updated
//! Neighbor States*, ICDE 2024).
//!
//! - [`metric`](mod@metric) — `M(·)` and the positive/negative edge breakdown (§III),
//! - [`insertion`] — the `GetOptVal` greedy optimal-position inserter
//!   (Algorithm 1, §IV-C),
//! - [`hubs`] — high-degree / isolated vertex extraction (§IV-A),
//! - [`supergraph`] — weighted super-vertex graph for the combine phase,
//! - [`gograph`] — the full pipeline with pluggable partitioner, and its
//!   parallel conquer fan-out ([`ParallelGoGraph`]),
//! - [`partitioned`] — orders that remember their divide phase
//!   ([`PartitionedOrder`]),
//! - [`theory`] — executable checks of Lemma 2 / Theorem 2.
//!
//! ```
//! use gograph_core::GoGraph;
//! use gograph_core::metric::metric;
//! use gograph_graph::generators::{planted_partition, PlantedPartitionConfig};
//!
//! let g = planted_partition(PlantedPartitionConfig::default());
//! let order = GoGraph::default().run(&g);
//! // Theorem 2: at least half of all edges are positive.
//! assert!(2 * metric(&g, &order) >= g.num_edges());
//! ```

#![warn(missing_docs)]

pub mod gograph;
pub mod hubs;
pub mod incremental;
pub mod insertion;
pub mod metric;
pub mod partitioned;
pub mod refine;
pub mod supergraph;
pub mod theory;

pub use gograph::{GoGraph, ParallelGoGraph, PartitionerChoice};
pub use incremental::IncrementalGoGraph;
pub use insertion::{digest_of, digest_term, InsertOutcome, InsertionOrder, NeighborLink};
pub use metric::{metric, metric_report, MetricReport};
pub use partitioned::{PartitionContribution, PartitionedOrder, UNPARTITIONED};
pub use refine::{is_adjacent_swap_optimal, refine_adjacent_swaps, RefineResult};
pub use theory::{check_theorem2, Theorem2Check};
