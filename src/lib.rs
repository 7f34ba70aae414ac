//! # gograph
//!
//! Reproduction of *Fast Iterative Graph Computing with Updated Neighbor
//! States* (ICDE 2024): the **GoGraph** vertex-reordering method, the
//! asynchronous iterative engine that exploits it, every baseline it is
//! compared against, and the substrates (partitioners, cache simulator,
//! synthetic datasets) needed to regenerate the paper's evaluation.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! - [`graph`] — CSR graphs, builders, generators, permutations, I/O,
//! - [`partition`] — Rabbit-partition / Louvain / Metis-like / Fennel,
//! - [`reorder`] — baseline orderings (DegSort, HubSort, HubCluster,
//!   Rabbit order, Gorder, ...),
//! - [`core`] — the GoGraph pipeline, metric function `M(·)` and the
//!   greedy optimal-position inserter,
//! - [`engine`] — the [`Pipeline`](engine::Pipeline) execution API over
//!   sync / async / parallel / worklist / delta strategies, with
//!   PageRank, SSSP, BFS, PHP, CC, SSWP, Katz, Adsorption,
//! - [`cachesim`] — the trace-driven cache-miss simulator.
//!
//! ## Quickstart
//!
//! The paper's whole method is one composable pipeline: compute an order
//! `R(G) -> O_V`, physically relabel the graph so the order becomes a
//! sequential scan, then iterate a monotonic algorithm asynchronously.
//!
//! ```
//! use gograph::prelude::*;
//!
//! // A synthetic power-law community graph.
//! let g = planted_partition(PlantedPartitionConfig::default());
//!
//! // Reorder with GoGraph, relabel, and run asynchronous PageRank —
//! // one fallible entry point instead of hand-wired stages.
//! let result = Pipeline::on(&g)
//!     .reorder(GoGraph::default())
//!     .relabel(true)
//!     .mode(Mode::Async)
//!     .algorithm(PageRank::default())
//!     .execute()
//!     .expect("valid pipeline");
//! assert!(result.stats.converged);
//!
//! // Theorem 2: at least half the edges are positive under the order.
//! assert!(2 * metric(&g, &result.order) >= g.num_edges());
//!
//! // Any reorderer slots in; any execution strategy, too.
//! let wl = Pipeline::on(&g)
//!     .reorder(DegSort::default())
//!     .mode(Mode::Worklist)
//!     .algorithm(PageRank::default())
//!     .execute()
//!     .unwrap();
//! assert!(wl.stats.evaluations.is_some());
//! ```

pub use gograph_cachesim as cachesim;
pub use gograph_core as core;
pub use gograph_engine as engine;
pub use gograph_graph as graph;
pub use gograph_partition as partition;
pub use gograph_reorder as reorder;

/// Convenient glob-import of the most-used items.
pub mod prelude {
    pub use gograph_cachesim::{cache_misses_of_order, CacheHierarchy};
    pub use gograph_core::{
        check_theorem2, metric, metric_report, order_members, partition_contributions,
        refine_adjacent_swaps, GoGraph, IncrementalGoGraph, ParallelGoGraph, PartitionContribution,
        PartitionedOrder, PartitionerChoice, UNPARTITIONED,
    };
    pub use gograph_engine::{
        split_batches, Adsorption, AlgorithmKind, AlgorithmRef, Bfs, ConnectedComponents,
        DeltaAlgorithm, DeltaAlgorithmKind, DeltaPageRank, DeltaSchedule, DeltaSssp,
        DirectionPolicy, DynOnly, EngineError, GatherContext, IterativeAlgorithm, Katz, Mode,
        PageRank, Php, Pipeline, PipelineResult, RunConfig, RunStats, ScatterContext,
        SplitBatchesError, Sssp, Sswp, StageTimings, StreamingPipeline, WarmStart,
    };
    pub use gograph_graph::generators::{
        barabasi_albert, erdos_renyi, planted_partition, rmat, shuffle_labels, with_random_weights,
        PlantedPartitionConfig, RmatConfig,
    };
    pub use gograph_graph::Frontier;
    pub use gograph_graph::{
        CsrGraph, Direction, Edge, EdgeUpdate, GraphBuilder, Permutation, VertexId,
    };
    pub use gograph_partition::{
        Fennel, Louvain, MetisLike, Partitioner, Partitioning, RabbitPartition,
    };
    pub use gograph_reorder::{
        BfsOrder, DefaultOrder, DegSort, DfsOrder, Gorder, HubCluster, HubSort, RabbitOrder,
        RandomOrder, Reorderer,
    };
}
