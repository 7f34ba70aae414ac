//! The GoGraph reordering pipeline (paper §IV, Algorithm 1).
//!
//! Five phases:
//! 1. **Extract** hubs (top `hub_fraction` by degree) and the vertices
//!    isolated by their removal ([`crate::hubs`]).
//! 2. **Divide** the remainder into subgraphs with a pluggable
//!    partitioner (Rabbit-partition by default — paper §IV-C).
//! 3. **Conquer**: order each subgraph internally by BFS-driven greedy
//!    insertion ([`crate::insertion`]), maximizing positive edges.
//! 4. **Combine**: order the subgraphs as weighted super-vertices
//!    ([`crate::supergraph`]) with the same greedy insertion, then
//!    decompress to a global order.
//! 5. **Insert** hubs (descending degree) and then isolated vertices at
//!    their optimal global positions.

use crate::hubs::extract_hubs;
use crate::insertion::{InsertionOrder, NeighborLink};
use crate::partitioned::{PartitionedOrder, UNPARTITIONED};
use crate::supergraph::SuperGraph;
use gograph_graph::traversal::bfs_order_undirected_full;
use gograph_graph::{CsrGraph, Permutation, VertexId};
use gograph_partition::{
    ChunkPartitioner, Fennel, LabelPropagation, Louvain, MetisLike, NoPartitioner, Partitioner,
    Partitioning, RabbitPartition,
};
use gograph_reorder::Reorderer;
use rayon::prelude::*;

/// The divide-phase partitioner (paper Fig. 13 evaluates these choices).
#[derive(Debug, Clone, Copy)]
pub enum PartitionerChoice {
    /// Rabbit-partition (paper default).
    Rabbit(RabbitPartition),
    /// Louvain community detection.
    Louvain(Louvain),
    /// Metis-like multilevel k-way.
    Metis(MetisLike),
    /// Fennel streaming.
    Fennel(Fennel),
    /// Deterministic label propagation.
    Lpa(LabelPropagation),
    /// Contiguous chunks of the given count (structure-blind control).
    Chunk(usize),
    /// No partitioning: the whole residual graph is one subgraph
    /// (the Fig. 10 ablation).
    None,
}

impl PartitionerChoice {
    /// Partitioner name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            PartitionerChoice::Rabbit(p) => p.name(),
            PartitionerChoice::Louvain(p) => p.name(),
            PartitionerChoice::Metis(p) => p.name(),
            PartitionerChoice::Fennel(p) => p.name(),
            PartitionerChoice::Lpa(p) => p.name(),
            PartitionerChoice::Chunk(_) => "chunk",
            PartitionerChoice::None => "none",
        }
    }

    /// Partitions `g`, fanning parallelizable construction (currently
    /// Rabbit's undirected-view build) across `threads` workers. Every
    /// partitioner's *aggregation* is sequential, so the result is
    /// identical at any thread count.
    fn partition_with_threads(&self, g: &CsrGraph, threads: usize) -> Partitioning {
        match self {
            PartitionerChoice::Rabbit(p) => p.run_with_threads(g, threads),
            PartitionerChoice::Louvain(p) => p.partition(g),
            PartitionerChoice::Metis(p) => p.partition(g),
            PartitionerChoice::Fennel(p) => p.partition(g),
            PartitionerChoice::Lpa(p) => p.partition(g),
            PartitionerChoice::Chunk(k) => ChunkPartitioner { num_parts: *k }.partition(g),
            PartitionerChoice::None => NoPartitioner.partition(g),
        }
    }
}

/// GoGraph reorderer.
///
/// ```
/// use gograph_core::{GoGraph, metric};
/// use gograph_graph::generators::regular::chain;
///
/// // A chain is a DAG: the greedy recovers the fully-positive order.
/// let g = chain(100);
/// let order = GoGraph::default().run(&g);
/// assert_eq!(metric(&g, &order), 99);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct GoGraph {
    /// Fraction of vertices extracted as hubs (paper: 0.002 = 0.2%).
    pub hub_fraction: f64,
    /// Divide-phase partitioner.
    pub partitioner: PartitionerChoice,
}

impl Default for GoGraph {
    fn default() -> Self {
        GoGraph {
            hub_fraction: 0.002,
            partitioner: PartitionerChoice::Rabbit(RabbitPartition::default()),
        }
    }
}

impl GoGraph {
    /// GoGraph without its divide phase (Fig. 10's ablation).
    pub fn without_partitioning() -> Self {
        GoGraph {
            hub_fraction: 0.002,
            partitioner: PartitionerChoice::None,
        }
    }

    /// Fans the conquer phase out across `threads` workers of the shared
    /// rayon pool. `1` keeps everything on the calling thread; the
    /// parallel output is **bit-identical** to sequential for a fixed
    /// partitioning (see [`ParallelGoGraph`]).
    pub fn parallelism(self, threads: usize) -> ParallelGoGraph {
        ParallelGoGraph {
            base: self,
            threads: threads.max(1),
        }
    }

    /// Runs the full pipeline, returning the processing order.
    pub fn run(&self, g: &CsrGraph) -> Permutation {
        self.run_with_threads(g, 1).into_order()
    }

    /// Runs the full pipeline, returning the order *with* its partition
    /// structure — rank ranges and per-partition metric contributions
    /// (see [`PartitionedOrder`]).
    pub fn run_partitioned(&self, g: &CsrGraph) -> PartitionedOrder {
        self.run_with_threads(g, 1)
    }

    /// The shared implementation behind [`GoGraph::run`],
    /// [`GoGraph::run_partitioned`] and [`ParallelGoGraph`].
    fn run_with_threads(&self, g: &CsrGraph, threads: usize) -> PartitionedOrder {
        let n = g.num_vertices();
        if n == 0 {
            return PartitionedOrder::new(
                g,
                Permutation::identity(0),
                Vec::new(),
                Vec::new(),
                Vec::new(),
            );
        }

        // --- Phase 1: extract hubs & isolated ---
        let ex = extract_hubs(g, self.hub_fraction);

        // --- Phase 2: divide the remainder ---
        let (resid, to_global) = g.induced_subgraph_with_threads(&ex.remaining, threads);
        let r = resid.num_vertices();
        let parts = self.partitioner.partition_with_threads(&resid, threads);
        debug_assert_eq!(parts.num_vertices(), r);

        // --- Phase 3: conquer (order within each subgraph) ---
        // Each subgraph's greedy insertion is independent of every
        // other's, so the fan-out is embarrassingly parallel; results
        // are merged back by partition index, which makes the output
        // independent of execution interleaving.
        let members = parts.members();
        let ordered = conquer(&resid, &members, threads);

        // --- Phase 4: combine (order subgraphs, decompress) ---
        let k = parts.num_parts();
        let sg = SuperGraph::build_with_threads(&resid, parts.assignment(), k, threads);
        let super_order = order_supers(&sg);

        // Decompress: concatenate subgraphs in super order, vertices
        // within a subgraph in their conquer order. The concatenation
        // index becomes the global val, realizing Algorithm 1's
        // max-val offsetting without float drift. The walk also records
        // the partition structure: each partition's residual-rank range
        // is one contiguous span of this concatenation.
        let mut global = InsertionOrder::new(n);
        let mut part_of_global = vec![UNPARTITIONED; n];
        let mut final_members: Vec<Vec<VertexId>> = vec![Vec::new(); k];
        let mut ranges = vec![(0usize, 0usize); k];
        let mut cursor = 0usize;
        for &s in &super_order {
            let start = cursor;
            for &v in &ordered[s] {
                let gv = to_global[v as usize];
                part_of_global[gv as usize] = s as u32;
                final_members[s].push(gv);
                global.seed(gv as usize, cursor as f64);
                cursor += 1;
            }
            ranges[s] = (start, cursor);
        }

        // --- Phase 5: insert hubs, then isolated vertices ---
        // Hubs descending degree (most-constrained first, matching the
        // extraction order). Each insertion's *position scan* depends on
        // everything placed before it and stays sequential; the link
        // lists only depend on the graph, so they fan out.
        let special: Vec<VertexId> = ex.hubs.iter().chain(ex.isolated.iter()).copied().collect();
        let links: Vec<Vec<NeighborLink>> = if threads > 1 && special.len() > 1 {
            special
                .par_iter()
                .map(|&v| vertex_links(g, v))
                .with_threads(threads)
                .collect()
        } else {
            special.iter().map(|&v| vertex_links(g, v)).collect()
        };
        for (&v, links) in special.iter().zip(&links) {
            global.insert(v as usize, links);
        }

        let order: Vec<VertexId> = global
            .sorted_items()
            .into_iter()
            .map(|i| i as u32)
            .collect();
        PartitionedOrder::new(
            g,
            Permutation::from_order(order),
            part_of_global,
            final_members,
            ranges,
        )
    }
}

/// [`GoGraph`] with its conquer phase fanned out across the shared rayon
/// worker pool — the paper's observation that subgraphs can be ordered
/// *independently* (§IV), cashed in as wall-clock speedup.
///
/// Subgraphs are packed into `threads` buckets by longest-processing-time
/// scheduling (degree-mass heaviest first), each bucket runs on one pool
/// worker, and results are scattered back by partition index before the
/// sequential combine phase — so for a fixed partitioning the output is
/// **bit-identical** to [`GoGraph::run`], at any thread count, on every
/// run.
///
/// ```
/// use gograph_core::GoGraph;
/// use gograph_graph::generators::{planted_partition, PlantedPartitionConfig};
///
/// let g = planted_partition(PlantedPartitionConfig::default());
/// let seq = GoGraph::default().run(&g);
/// let par = GoGraph::default().parallelism(4).run(&g);
/// assert_eq!(seq, par);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ParallelGoGraph {
    /// The underlying configuration.
    pub base: GoGraph,
    /// Worker count for the conquer fan-out (1 = sequential).
    pub threads: usize,
}

impl Default for ParallelGoGraph {
    /// Default configuration at the machine's available parallelism.
    fn default() -> Self {
        GoGraph::default().parallelism(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }
}

impl ParallelGoGraph {
    /// Runs the pipeline with the configured fan-out.
    pub fn run(&self, g: &CsrGraph) -> Permutation {
        self.base.run_with_threads(g, self.threads).into_order()
    }

    /// Runs the pipeline, keeping the partition structure — see
    /// [`GoGraph::run_partitioned`].
    pub fn run_partitioned(&self, g: &CsrGraph) -> PartitionedOrder {
        self.base.run_with_threads(g, self.threads)
    }
}

impl Reorderer for ParallelGoGraph {
    fn name(&self) -> &'static str {
        "gograph-par"
    }

    fn reorder(&self, g: &CsrGraph) -> Permutation {
        self.run(g)
    }
}

/// Orders every subgraph of `members`, fanning out across `threads` pool
/// workers when asked. Returns the per-partition member lists in
/// within-partition rank order, indexed like `members`.
fn conquer(resid: &CsrGraph, members: &[Vec<VertexId>], threads: usize) -> Vec<Vec<VertexId>> {
    let k = members.len();
    if threads <= 1 || k <= 1 {
        return members.iter().map(|m| order_members(resid, m)).collect();
    }
    // Longest-processing-time bucket packing: heaviest subgraphs (by
    // incident degree mass, the conquer cost driver) are dealt first,
    // each to the currently lightest bucket, so contiguous-chunk workers
    // see balanced work even under power-law partition sizes.
    let weight = |i: usize| -> usize {
        members[i]
            .iter()
            .map(|&v| resid.out_degree(v) + resid.in_degree(v) + 1)
            .sum()
    };
    let mut by_weight: Vec<(usize, usize)> = (0..k).map(|i| (weight(i), i)).collect();
    by_weight.sort_by_key(|&(w, i)| (std::cmp::Reverse(w), i));
    let buckets_n = threads.min(k);
    let mut totals = vec![0usize; buckets_n];
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); buckets_n];
    for (w, i) in by_weight {
        let b = (0..buckets_n).min_by_key(|&b| (totals[b], b)).unwrap();
        totals[b] += w;
        buckets[b].push(i);
    }
    // One pool job per bucket; scatter back by partition index, so the
    // merged output is identical to the sequential loop's.
    let per_bucket: Vec<Vec<(usize, Vec<VertexId>)>> = buckets
        .par_iter()
        .map(|jobs| {
            jobs.iter()
                .map(|&i| (i, order_members(resid, &members[i])))
                .collect()
        })
        .with_threads(buckets_n)
        .collect();
    let mut out = vec![Vec::new(); k];
    for (i, ordered) in per_bucket.into_iter().flatten() {
        out[i] = ordered;
    }
    out
}

/// Orders `members` of one subgraph of `g` by BFS-driven greedy
/// insertion (the paper's conquer phase, §IV-A/§IV-C) and returns them
/// in the resulting within-subgraph rank order (insertion val ascending,
/// ties by member id). The input order does not matter — members are
/// canonicalized to ascending id first, which both makes the tie-break
/// id-based for every caller and keeps `induced_subgraph` on its
/// sort-free ascending fast path.
pub(crate) fn order_members(g: &CsrGraph, members: &[VertexId]) -> Vec<VertexId> {
    if members.len() <= 1 {
        return members.to_vec();
    }
    let mut ascending: Vec<VertexId> = members.to_vec();
    ascending.sort_unstable();
    let members: &[VertexId] = &ascending;
    let (sub, submap) = g.induced_subgraph(members);
    let sn = sub.num_vertices();
    // Initial vertex: smallest in-degree (paper §IV-A), ties by id.
    let start = (0..sn as u32)
        .min_by(|&a, &b| sub.in_degree(a).cmp(&sub.in_degree(b)).then(a.cmp(&b)))
        .unwrap();
    // BFS over the undirected view for locality; covers disconnected
    // residue via restarts.
    let candidates = bfs_order_undirected_full(&sub, start);
    debug_assert_eq!(candidates.len(), sn);

    let mut order = InsertionOrder::new(sn);
    for v in candidates {
        let links = vertex_links(&sub, v);
        order.insert(v as usize, &links);
    }
    // `submap` is ascending, so local-id ties equal member-id ties.
    order
        .sorted_items()
        .into_iter()
        .map(|lv| submap[lv])
        .collect()
}

/// Orders super-vertices by greedy insertion, heaviest first (total
/// incident weight, ties by id). Returns super ids in final val order.
fn order_supers(sg: &SuperGraph) -> Vec<usize> {
    let k = sg.num_supers();
    let mut by_weight: Vec<usize> = (0..k).collect();
    by_weight.sort_by(|&a, &b| {
        sg.total_weight(b)
            .partial_cmp(&sg.total_weight(a))
            .unwrap()
            .then(a.cmp(&b))
    });
    let mut order = InsertionOrder::new(k);
    for s in by_weight {
        order.insert(s, sg.links_of(s));
    }
    order.sorted_items()
}

/// Merged [`NeighborLink`]s of vertex `v` in `g`: one link per distinct
/// neighbor, carrying in-weight (edges `u -> v`) and out-weight
/// (`v -> u`). Self-loops are excluded (they cannot be positive).
fn vertex_links(g: &CsrGraph, v: VertexId) -> Vec<NeighborLink> {
    let ins = g.in_neighbors(v);
    let outs = g.out_neighbors(v);
    let mut links: Vec<NeighborLink> = Vec::with_capacity(ins.len() + outs.len());
    // Merge two sorted lists.
    let (mut i, mut o) = (0usize, 0usize);
    while i < ins.len() || o < outs.len() {
        let iu = ins.get(i).copied();
        let ou = outs.get(o).copied();
        match (iu, ou) {
            (Some(a), Some(b)) if a == b => {
                if a != v {
                    links.push(NeighborLink::new(a as usize, 1.0, 1.0));
                }
                i += 1;
                o += 1;
            }
            (Some(a), Some(b)) if a < b => {
                if a != v {
                    links.push(NeighborLink::new(a as usize, 1.0, 0.0));
                }
                i += 1;
            }
            (Some(_), Some(b)) => {
                if b != v {
                    links.push(NeighborLink::new(b as usize, 0.0, 1.0));
                }
                o += 1;
            }
            (Some(a), None) => {
                if a != v {
                    links.push(NeighborLink::new(a as usize, 1.0, 0.0));
                }
                i += 1;
            }
            (None, Some(b)) => {
                if b != v {
                    links.push(NeighborLink::new(b as usize, 0.0, 1.0));
                }
                o += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    links
}

impl Reorderer for GoGraph {
    fn name(&self) -> &'static str {
        "gograph"
    }

    fn reorder(&self, g: &CsrGraph) -> Permutation {
        self.run(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{metric, metric_report};
    use gograph_graph::generators::regular::{chain, cycle, layered_dag};
    use gograph_graph::generators::{planted_partition, shuffle_labels, PlantedPartitionConfig};
    use gograph_reorder::{DefaultOrder, Reorderer};

    fn community_graph(seed: u64) -> CsrGraph {
        shuffle_labels(
            &planted_partition(PlantedPartitionConfig {
                num_vertices: 600,
                num_edges: 5000,
                communities: 8,
                p_intra: 0.85,
                gamma: 2.4,
                seed,
            }),
            seed ^ 0xabcd,
        )
    }

    #[test]
    fn produces_valid_permutation() {
        let g = community_graph(1);
        let p = GoGraph::default().run(&g);
        p.validate().unwrap();
        assert_eq!(p.len(), 600);
    }

    #[test]
    fn theorem2_lower_bound() {
        for seed in [1u64, 2, 3] {
            let g = community_graph(seed);
            let p = GoGraph::default().run(&g);
            let rep = metric_report(&g, &p);
            let loop_free = g.num_edges() - rep.self_loops;
            assert!(
                rep.positive_edges * 2 >= loop_free,
                "seed {seed}: M = {} < |E|/2 = {}",
                rep.positive_edges,
                loop_free / 2
            );
        }
    }

    #[test]
    fn beats_default_order_metric() {
        let g = community_graph(7);
        let m_go = metric(&g, &GoGraph::default().run(&g));
        let m_def = metric(&g, &DefaultOrder.reorder(&g));
        assert!(
            m_go > m_def,
            "GoGraph M = {m_go} should beat default M = {m_def}"
        );
        // The paper reports M/|E| ~ 0.76 on CP; on planted graphs with
        // shuffled labels we expect well above the random 0.5.
        assert!(m_go as f64 / g.num_edges() as f64 > 0.6);
    }

    #[test]
    fn chain_gets_perfect_metric() {
        // A chain is a DAG; greedy insertion should achieve M = |E|.
        let g = chain(50);
        let p = GoGraph::default().run(&g);
        assert_eq!(metric(&g, &p), 49);
    }

    #[test]
    fn dag_close_to_optimal() {
        let g = layered_dag(5, 4);
        let p = GoGraph::default().run(&g);
        let m = metric(&g, &p);
        // Optimal is |E| (topological order); the greedy heuristic is not
        // DAG-aware but should stay well above the |E|/2 guarantee.
        assert!(
            m as f64 >= 0.75 * g.num_edges() as f64,
            "M = {m} of {}",
            g.num_edges()
        );
    }

    #[test]
    fn cycle_loses_at_most_half() {
        let g = cycle(20);
        let p = GoGraph::default().run(&g);
        assert!(metric(&g, &p) >= 10);
    }

    #[test]
    fn deterministic() {
        let g = community_graph(9);
        let go = GoGraph::default();
        assert_eq!(go.run(&g), go.run(&g));
    }

    #[test]
    fn without_partitioning_still_valid() {
        let g = community_graph(4);
        let p = GoGraph::without_partitioning().run(&g);
        p.validate().unwrap();
        let rep = metric_report(&g, &p);
        assert!(rep.positive_edges * 2 >= g.num_edges() - rep.self_loops);
    }

    #[test]
    fn all_partitioner_choices_work() {
        let g = community_graph(11);
        let choices = [
            PartitionerChoice::Rabbit(RabbitPartition::default()),
            PartitionerChoice::Louvain(Louvain::default()),
            PartitionerChoice::Metis(MetisLike::with_parts(8)),
            PartitionerChoice::Fennel(Fennel::with_parts(8)),
            PartitionerChoice::Lpa(LabelPropagation::default()),
            PartitionerChoice::Chunk(8),
            PartitionerChoice::None,
        ];
        for c in choices {
            let go = GoGraph {
                hub_fraction: 0.002,
                partitioner: c,
            };
            let p = go.run(&g);
            p.validate().unwrap();
            let rep = metric_report(&g, &p);
            assert!(
                rep.positive_edges * 2 >= g.num_edges() - rep.self_loops,
                "theorem 2 violated with partitioner {}",
                c.name()
            );
        }
    }

    #[test]
    fn tiny_graphs() {
        assert_eq!(GoGraph::default().run(&CsrGraph::empty(0)).len(), 0);
        assert_eq!(GoGraph::default().run(&CsrGraph::empty(1)).len(), 1);
        let g = CsrGraph::from_edges(2, [(0u32, 1u32)]);
        let p = GoGraph::default().run(&g);
        assert_eq!(metric(&g, &p), 1);
    }

    #[test]
    fn handles_self_loops() {
        let g = CsrGraph::from_edges(3, [(0u32, 0u32), (0, 1), (1, 2), (2, 0)]);
        let p = GoGraph::default().run(&g);
        p.validate().unwrap();
        assert!(metric(&g, &p) >= 2);
    }

    #[test]
    fn parallel_output_is_bit_identical_to_sequential() {
        for seed in [2u64, 13, 29] {
            let g = community_graph(seed);
            let seq = GoGraph::default().run(&g);
            for threads in [2usize, 4, 8] {
                let par = GoGraph::default().parallelism(threads).run(&g);
                assert_eq!(seq, par, "seed {seed}, {threads} threads");
            }
        }
    }

    #[test]
    fn parallel_reorderer_impl_and_partitioned_surface() {
        let g = community_graph(21);
        let par = GoGraph::default().parallelism(3);
        assert_eq!(par.name(), "gograph-par");
        let order = par.reorder(&g);
        order.validate().unwrap();
        let po = par.run_partitioned(&g);
        assert_eq!(po.order(), &order);
        assert_eq!(&order, &GoGraph::default().run(&g));
        // Degenerate fan-outs still work.
        assert_eq!(GoGraph::default().parallelism(0).run(&g), order);
        assert_eq!(
            GoGraph::default()
                .parallelism(2)
                .run(&CsrGraph::empty(0))
                .len(),
            0
        );
        assert!(ParallelGoGraph::default().threads >= 1);
    }

    #[test]
    fn parallel_handles_every_partitioner() {
        let g = community_graph(31);
        for c in [
            PartitionerChoice::Chunk(5),
            PartitionerChoice::None,
            PartitionerChoice::Lpa(LabelPropagation::default()),
        ] {
            let go = GoGraph {
                hub_fraction: 0.002,
                partitioner: c,
            };
            assert_eq!(go.run(&g), go.parallelism(4).run(&g), "{}", c.name());
        }
    }

    #[test]
    fn order_members_matches_decompress_rule() {
        let g = community_graph(17);
        let members: Vec<VertexId> = (0..50).collect();
        let ordered = order_members(&g, &members);
        // Same multiset, deterministic, and stable across calls.
        let mut sorted = ordered.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, members);
        assert_eq!(ordered, order_members(&g, &members));
        assert_eq!(order_members(&g, &[]), Vec::<VertexId>::new());
        assert_eq!(order_members(&g, &[7]), vec![7]);
    }

    #[test]
    fn isolated_vertices_are_placed() {
        let mut b = gograph_graph::GraphBuilder::new();
        b.reserve_vertices(20);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        let g = b.build();
        let p = GoGraph::default().run(&g);
        p.validate().unwrap();
        assert_eq!(p.len(), 20);
    }
}
