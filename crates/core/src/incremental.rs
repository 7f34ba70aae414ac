//! Incremental (streaming) order maintenance — the paper's evolving-graph
//! outlook (§VI cites RisGraph \[28\] and KickStarter \[29\]) made concrete.
//!
//! A full GoGraph run costs a partitioning plus O(|E|) greedy insertion;
//! re-running it on every edge arrival is wasteful. [`IncrementalGoGraph`]
//! seeds from a full run and then maintains the order under edge
//! insertions by *locally repositioning* the affected endpoints: moving a
//! single vertex only flips the signs of its own incident edges, so
//! re-running `GetOptVal` for that vertex (remove + optimal re-insert)
//! can never decrease `M` — giving a monotone-metric maintenance
//! guarantee with O(degree · log degree) work per update.

use crate::gograph::GoGraph;
use crate::insertion::{InsertionOrder, NeighborLink};
use gograph_graph::{CsrGraph, EdgeUpdate, GraphBuilder, OrderPatch, Permutation, VertexId};
use gograph_reorder::Reorderer;
use std::sync::Arc;

/// Streaming order maintainer.
///
/// ```
/// use gograph_core::{metric, IncrementalGoGraph};
///
/// let mut inc = IncrementalGoGraph::new(4);
/// // Edges arrive in an adversarial order...
/// inc.add_edge(2, 3);
/// inc.add_edge(1, 2);
/// inc.add_edge(0, 1);
/// // ...yet local repositioning keeps the chain fully positive.
/// let g = inc.to_graph();
/// assert_eq!(metric(&g, &inc.current_order()), 3);
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalGoGraph {
    out: Vec<Vec<VertexId>>,
    in_: Vec<Vec<VertexId>>,
    order: InsertionOrder,
    num_edges: usize,
    /// `M(O)`: ingested edges whose source precedes their target, kept
    /// current by every method that adds, drops or re-signs an edge.
    positive: usize,
    /// The order as of the last [`IncrementalGoGraph::commit_order`]
    /// (empty before the first): what the next one patches.
    committed: Arc<Permutation>,
}

impl IncrementalGoGraph {
    /// Seeds from an existing graph: runs the full GoGraph pipeline once
    /// and loads its order.
    pub fn from_graph(g: &CsrGraph) -> Self {
        let seed_order = GoGraph::default().run(g);
        Self::from_graph_with_order(g, &seed_order)
    }

    /// Seeds from an existing graph and a caller-provided order.
    pub fn from_graph_with_order(g: &CsrGraph, order: &Permutation) -> Self {
        let n = g.num_vertices();
        assert_eq!(order.len(), n);
        let mut io = InsertionOrder::new(n);
        for pos in 0..n {
            io.seed(order.vertex_at(pos) as usize, pos as f64);
        }
        Self::over(g, io)
    }

    /// A maintainer of `order` over `g`'s edges.
    fn over(g: &CsrGraph, order: InsertionOrder) -> Self {
        let n = g.num_vertices();
        let mut out = vec![Vec::new(); n];
        let mut in_ = vec![Vec::new(); n];
        for e in g.edges() {
            out[e.src as usize].push(e.dst);
            in_[e.dst as usize].push(e.src);
        }
        let mut inc = IncrementalGoGraph {
            out,
            in_,
            order,
            num_edges: g.num_edges(),
            positive: 0,
            committed: Arc::new(Permutation::identity(0)),
        };
        inc.positive = inc.count_positive();
        inc
    }

    /// An empty maintainer over `n` isolated vertices (identity order).
    pub fn new(n: usize) -> Self {
        Self::from_graph_with_order(&CsrGraph::empty(n), &Permutation::identity(n))
    }

    /// Full behavioral state of the maintained order: the per-vertex
    /// float `val` keys plus the sticky head/tail bounds, as
    /// `(vals, min_val, max_val)`.
    ///
    /// The induced [`Permutation`] is *not* sufficient to resume
    /// maintenance bit-identically: repositioning decisions depend on
    /// the exact `val`s (midpoints, collision nudges) and on bounds that
    /// [`InsertionOrder::remove`] leaves deliberately stale-wide.
    /// Feeding this snapshot to
    /// [`IncrementalGoGraph::from_graph_with_saved_order`] yields a
    /// maintainer whose every future decision coincides with this one's.
    pub fn order_state(&self) -> (Vec<f64>, f64, f64) {
        (
            self.order.vals().to_vec(),
            self.order.min_val(),
            self.order.max_val(),
        )
    }

    /// Multiset digest of the order's keys
    /// ([`InsertionOrder::digest`]): two maintainers whose future
    /// decisions coincide digest equally. `O(1)`.
    pub fn order_digest(&self) -> u64 {
        self.order.digest()
    }

    /// Rebuilds a maintainer from a graph and a saved order snapshot
    /// (from [`IncrementalGoGraph::order_state`]), resuming maintenance
    /// exactly where the exporting instance left off.
    ///
    /// # Panics
    /// Panics if `vals` has an entry per vertex of `g` with none NaN, or
    /// the bounds fail to cover the vals.
    pub fn from_graph_with_saved_order(
        g: &CsrGraph,
        vals: &[f64],
        min_val: f64,
        max_val: f64,
    ) -> Self {
        let n = g.num_vertices();
        assert_eq!(vals.len(), n, "saved vals must cover every vertex");
        assert!(
            vals.iter().all(|v| !v.is_nan()),
            "saved vals must place every vertex"
        );
        Self::over(g, InsertionOrder::from_saved(vals, min_val, max_val))
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.out.len()
    }

    /// Number of edges ingested.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Appends a new vertex at the tail of the order; returns its id.
    pub fn add_vertex(&mut self) -> VertexId {
        let id = self.out.len() as VertexId;
        self.out.push(Vec::new());
        self.in_.push(Vec::new());
        self.order.grow_one();
        id
    }

    /// Ingests a directed edge and locally repositions both endpoints if
    /// that increases their positive-edge contribution. Duplicate edges
    /// are ignored.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        assert!((u as usize) < self.out.len() && (v as usize) < self.out.len());
        if u == v || self.out[u as usize].contains(&v) {
            return;
        }
        self.out[u as usize].push(v);
        self.in_[v as usize].push(u);
        self.num_edges += 1;
        self.positive += usize::from(self.precedes(u, v));
        self.reposition(u);
        self.reposition(v);
    }

    /// Removes a directed edge, then locally repositions both endpoints:
    /// with the edge gone their optimal positions may have shifted, and
    /// re-running `GetOptVal` for each endpoint can only improve its
    /// contribution to `M` on the surviving edge set. Returns `false`
    /// (and leaves the order untouched) when the edge was not present.
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if (u as usize) >= self.out.len() || (v as usize) >= self.out.len() {
            return false;
        }
        let Some(pos) = self.out[u as usize].iter().position(|&x| x == v) else {
            return false;
        };
        self.positive -= usize::from(self.precedes(u, v));
        self.out[u as usize].swap_remove(pos);
        let in_pos = self.in_[v as usize]
            .iter()
            .position(|&x| x == u)
            .expect("in-adjacency out of sync with out-adjacency");
        self.in_[v as usize].swap_remove(in_pos);
        self.num_edges -= 1;
        self.reposition(u);
        self.reposition(v);
        true
    }

    /// Folds a batch of [`EdgeUpdate`]s into the maintained order.
    /// Insert endpoints beyond the current vertex count grow the graph
    /// (via [`IncrementalGoGraph::add_vertex`]); weights are ignored —
    /// the metric `M` counts edges, not weight. Self-loops are neither
    /// positive nor negative and are skipped, matching
    /// [`IncrementalGoGraph::add_edge`].
    pub fn apply_updates(&mut self, updates: &[EdgeUpdate]) {
        for up in updates {
            match *up {
                EdgeUpdate::Insert { src, dst, .. } => {
                    while self.out.len() <= src.max(dst) as usize {
                        self.add_vertex();
                    }
                    self.add_edge(src, dst);
                }
                EdgeUpdate::Remove { src, dst } => {
                    self.remove_edge(src, dst);
                }
            }
        }
    }

    /// `M(O) / |E|` of the maintained order over the ingested edges —
    /// the drift signal streaming callers compare against the fraction a
    /// full re-run achieved. `O(1)`: `M(O)` is a counter every mutation
    /// adjusts by the signs it changed, not a sweep. An empty edge set
    /// reports 1.0 (nothing can be negative).
    pub fn positive_fraction(&self) -> f64 {
        debug_assert_eq!(self.positive, self.count_positive());
        if self.num_edges == 0 {
            return 1.0;
        }
        self.positive as f64 / self.num_edges as f64
    }

    /// True when `u` precedes `v` in the order: an edge `(u, v)` is positive.
    fn precedes(&self, u: VertexId, v: VertexId) -> bool {
        self.order.val(u as usize) < self.order.val(v as usize)
    }

    /// `M(O)` by a sweep over every edge — what `positive` must equal.
    fn count_positive(&self) -> usize {
        self.out
            .iter()
            .enumerate()
            .map(|(u, outs)| {
                outs.iter()
                    .filter(|&&v| self.precedes(u as VertexId, v))
                    .count()
            })
            .sum()
    }

    /// Removes `w` and re-inserts it at its optimal position (monotone in
    /// the vertex's local positive count, hence in `M`).
    fn reposition(&mut self, w: VertexId) {
        let links = self.links_of(w);
        if links.is_empty() {
            return;
        }
        let before = self.local_positive(w);
        self.order.remove(w as usize);
        self.order.insert(w as usize, &links);
        let after = self.local_positive(w);
        debug_assert!(
            after >= before,
            "reposition decreased local positive count: {before} -> {after}"
        );
        self.positive = self.positive - before + after;
    }

    /// Positive edges incident to `w` under the order.
    fn local_positive(&self, w: VertexId) -> usize {
        let outs = self.out[w as usize].iter();
        let ins = self.in_[w as usize].iter();
        outs.filter(|&&x| self.precedes(w, x)).count()
            + ins.filter(|&&x| self.precedes(x, w)).count()
    }

    fn links_of(&self, w: VertexId) -> Vec<NeighborLink> {
        let mut links: Vec<NeighborLink> =
            Vec::with_capacity(self.out[w as usize].len() + self.in_[w as usize].len());
        // Position of each neighbor id already in `links` — keeps this
        // O(deg) where a linear rescan per out-edge would be O(deg²) on
        // hubs, which dominates batch ingestion on power-law graphs.
        let mut slot: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::with_capacity(links.capacity());
        for &x in &self.in_[w as usize] {
            slot.insert(x as usize, links.len());
            links.push(NeighborLink::new(x as usize, 1.0, 0.0));
        }
        for &x in &self.out[w as usize] {
            match slot.get(&(x as usize)) {
                Some(&i) => links[i].out_weight += 1.0,
                None => {
                    slot.insert(x as usize, links.len());
                    links.push(NeighborLink::new(x as usize, 0.0, 1.0));
                }
            }
        }
        links
    }

    /// The maintained processing order: the committed one with the
    /// vertices repositioned since moved
    /// ([`InsertionOrder::moves_since`]). `O(d log |V|)` key comparisons
    /// for `d` moved vertices, plus a copy of the order.
    pub fn current_order(&self) -> Permutation {
        self.committed
            .patched(&self.order.moves_since(&self.committed))
    }

    /// Makes [`IncrementalGoGraph::current_order`] the committed order
    /// and returns the moves from the one committed before, so a
    /// streaming caller that hands the order on after every batch pays
    /// `O(d log |V|)` key comparisons for `d` moved vertices, plus copies
    /// of the order, instead of a sort of all. The first commit is that
    /// sort, from nothing, and returns `None`. Nothing moved keeps the
    /// committed `Arc`.
    pub fn commit_order(&mut self) -> Option<OrderPatch> {
        let first = self.committed.is_empty();
        let moves = self.order.commit(&self.committed);
        if !moves.is_empty() {
            self.committed = Arc::new(self.committed.patched(&moves));
        }
        debug_assert_eq!(
            *self.committed,
            Permutation::from_float_keys(self.order.vals()),
            "the committed order must be the keys' sort"
        );
        (!first).then_some(moves)
    }

    /// The order as of the last [`IncrementalGoGraph::commit_order`],
    /// shared: the maintainer replaces it, never writes it in place.
    pub fn committed_order(&self) -> &Arc<Permutation> {
        &self.committed
    }

    /// Materializes the ingested edges as a [`CsrGraph`] (for metric
    /// checks and engine runs).
    pub fn to_graph(&self) -> CsrGraph {
        let mut b = GraphBuilder::with_capacity(self.out.len(), self.num_edges);
        b.reserve_vertices(self.out.len());
        for (u, outs) in self.out.iter().enumerate() {
            for &v in outs {
                b.add_edge(u as u32, v, 1.0);
            }
        }
        b.build()
    }
}

/// As a [`Reorderer`], the incremental maintainer orders a graph by
/// *streaming* its edges through local repositioning from an empty seed —
/// the §VI evolving-graph strategy applied as a one-shot method. This is
/// what lets it slot into `Pipeline::reorder(...)` interchangeably with
/// the batch methods; the maintainer's own streamed state (if any) is not
/// consulted, so one instance can order many graphs.
impl Reorderer for IncrementalGoGraph {
    fn name(&self) -> &'static str {
        "incremental-gograph"
    }

    fn reorder(&self, g: &CsrGraph) -> Permutation {
        let mut inc = IncrementalGoGraph::new(g.num_vertices());
        for e in g.edges() {
            inc.add_edge(e.src, e.dst);
        }
        inc.current_order()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::metric;
    use gograph_graph::generators::{planted_partition, shuffle_labels, PlantedPartitionConfig};
    use rand::{Rng, SeedableRng};

    #[test]
    fn streaming_chain_stays_optimal() {
        let mut inc = IncrementalGoGraph::new(10);
        for v in 0..9u32 {
            inc.add_edge(v, v + 1);
        }
        let g = inc.to_graph();
        let order = inc.current_order();
        assert_eq!(metric(&g, &order), 9, "chain must stay fully positive");
    }

    #[test]
    fn reverse_streamed_chain_recovers() {
        // Edges arrive in the worst order (from the tail); local
        // repositioning must still untangle the chain.
        let mut inc = IncrementalGoGraph::new(10);
        for v in (0..9u32).rev() {
            inc.add_edge(v, v + 1);
        }
        let g = inc.to_graph();
        let order = inc.current_order();
        let m = metric(&g, &order);
        assert!(m >= 8, "streamed-reversed chain only reached M = {m}");
    }

    #[test]
    fn metric_bound_holds_under_random_streaming() {
        let g = shuffle_labels(
            &planted_partition(PlantedPartitionConfig {
                num_vertices: 300,
                num_edges: 2000,
                communities: 6,
                p_intra: 0.8,
                gamma: 2.4,
                seed: 5,
            }),
            7,
        );
        let mut inc = IncrementalGoGraph::new(300);
        let mut edges: Vec<(u32, u32)> = g.edges().map(|e| (e.src, e.dst)).collect();
        // shuffle arrival order
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for i in (1..edges.len()).rev() {
            let j = rng.random_range(0..=i);
            edges.swap(i, j);
        }
        for (u, v) in edges {
            inc.add_edge(u, v);
        }
        let built = inc.to_graph();
        let order = inc.current_order();
        order.validate().unwrap();
        let m = metric(&built, &order);
        assert!(
            2 * m >= built.num_edges(),
            "incremental order violates the |E|/2 bound: {m} of {}",
            built.num_edges()
        );
    }

    #[test]
    fn incremental_tracks_full_rerun_quality() {
        let g = shuffle_labels(
            &planted_partition(PlantedPartitionConfig {
                num_vertices: 200,
                num_edges: 1500,
                communities: 4,
                p_intra: 0.85,
                gamma: 2.4,
                seed: 9,
            }),
            11,
        );
        // Seed with the first half, stream the second half.
        let edges: Vec<(u32, u32)> = g.edges().map(|e| (e.src, e.dst)).collect();
        let half = edges.len() / 2;
        let mut b = GraphBuilder::with_capacity(200, half);
        b.reserve_vertices(200);
        for &(u, v) in &edges[..half] {
            b.add_edge(u, v, 1.0);
        }
        let seed_graph = b.build();
        let mut inc = IncrementalGoGraph::from_graph(&seed_graph);
        for &(u, v) in &edges[half..] {
            inc.add_edge(u, v);
        }
        let final_graph = inc.to_graph();
        let m_inc = metric(&final_graph, &inc.current_order());
        let m_full = metric(&final_graph, &GoGraph::default().run(&final_graph));
        assert!(
            m_inc as f64 >= 0.8 * m_full as f64,
            "incremental M {m_inc} fell far below full rerun {m_full}"
        );
    }

    #[test]
    fn add_vertex_extends_order() {
        let mut inc = IncrementalGoGraph::new(2);
        inc.add_edge(0, 1);
        let v = inc.add_vertex();
        assert_eq!(v, 2);
        inc.add_edge(1, v);
        let order = inc.current_order();
        assert_eq!(order.len(), 3);
        let g = inc.to_graph();
        assert_eq!(metric(&g, &order), 2);
    }

    #[test]
    fn reorderer_impl_streams_the_graph() {
        let g = shuffle_labels(
            &planted_partition(PlantedPartitionConfig {
                num_vertices: 200,
                num_edges: 1200,
                communities: 4,
                p_intra: 0.8,
                gamma: 2.4,
                seed: 21,
            }),
            13,
        );
        let method = IncrementalGoGraph::new(0); // state is not consulted
        assert_eq!(method.name(), "incremental-gograph");
        let order = method.reorder(&g);
        order.validate().unwrap();
        assert_eq!(order.len(), 200);
        let m = metric(&g, &order);
        assert!(
            2 * m >= g.num_edges(),
            "streamed order violates the |E|/2 bound: {m} of {}",
            g.num_edges()
        );
        // Deterministic: same graph, same order.
        assert_eq!(order, method.reorder(&g));
    }

    #[test]
    fn duplicate_and_self_edges_ignored() {
        let mut inc = IncrementalGoGraph::new(3);
        inc.add_edge(0, 1);
        inc.add_edge(0, 1);
        inc.add_edge(2, 2);
        assert_eq!(inc.num_edges(), 1);
    }

    #[test]
    fn remove_edge_deletes_and_reports() {
        let mut inc = IncrementalGoGraph::new(4);
        inc.add_edge(0, 1);
        inc.add_edge(1, 2);
        inc.add_edge(2, 3);
        assert!(inc.remove_edge(1, 2));
        assert_eq!(inc.num_edges(), 2);
        assert!(!inc.remove_edge(1, 2), "second removal is a no-op");
        assert!(!inc.remove_edge(3, 0), "absent edge is a no-op");
        assert!(!inc.remove_edge(9, 0), "out-of-range is a no-op");
        let g = inc.to_graph();
        assert_eq!(g.num_edges(), 2);
        assert!(!g.has_edge(1, 2));
        let order = inc.current_order();
        order.validate().unwrap();
        assert_eq!(metric(&g, &order), 2, "survivors stay positive");
    }

    #[test]
    fn removal_lets_endpoints_reposition() {
        // 0 -> 1 plus a heavy bundle pulling 1 before 0: once the bundle
        // is deleted, repositioning must recover the 0 -> 1 edge.
        let mut inc = IncrementalGoGraph::new(6);
        inc.add_edge(0, 1);
        for hub in 2..6u32 {
            inc.add_edge(1, hub);
            inc.add_edge(hub, 0);
        }
        for hub in 2..6u32 {
            inc.remove_edge(1, hub);
            inc.remove_edge(hub, 0);
        }
        let g = inc.to_graph();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(metric(&g, &inc.current_order()), 1);
    }

    #[test]
    fn saved_order_resumes_bit_identically() {
        // Evolve a maintainer through churn that leaves fractional vals
        // and stale-wide bounds (removals at the extremes), snapshot it,
        // rebuild from the snapshot, then drive both through identical
        // further updates: every decision must coincide.
        let g = shuffle_labels(
            &planted_partition(PlantedPartitionConfig {
                num_vertices: 80,
                num_edges: 500,
                communities: 4,
                p_intra: 0.8,
                gamma: 2.4,
                seed: 31,
            }),
            5,
        );
        let mut inc = IncrementalGoGraph::from_graph(&g);
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let churn: Vec<EdgeUpdate> = (0..120)
            .map(|_| {
                let src = rng.random_range(0..80u32);
                let dst = rng.random_range(0..80u32);
                if rng.random_bool(0.7) {
                    EdgeUpdate::insert(src, dst)
                } else {
                    EdgeUpdate::remove(src, dst)
                }
            })
            .collect();
        inc.apply_updates(&churn[..60]);

        let snapshot_graph = inc.to_graph();
        let (vals, lo, hi) = inc.order_state();
        let mut resumed =
            IncrementalGoGraph::from_graph_with_saved_order(&snapshot_graph, &vals, lo, hi);
        assert_eq!(resumed.current_order(), inc.current_order());

        // A permutation-seeded rebuild is NOT enough: its integer vals
        // and tight bounds can diverge under further churn — the exact
        // failure the saved-order path exists to prevent.
        inc.apply_updates(&churn[60..]);
        resumed.apply_updates(&churn[60..]);
        assert_eq!(resumed.current_order(), inc.current_order());
        let (vals_a, lo_a, hi_a) = inc.order_state();
        let (vals_b, lo_b, hi_b) = resumed.order_state();
        assert_eq!(
            vals_a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            vals_b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "resumed maintainer's val keys must be bit-identical"
        );
        assert_eq!(
            (lo_a.to_bits(), hi_a.to_bits()),
            (lo_b.to_bits(), hi_b.to_bits())
        );
    }

    #[test]
    fn apply_updates_folds_inserts_removes_and_grows() {
        let mut inc = IncrementalGoGraph::new(2);
        inc.apply_updates(&[
            EdgeUpdate::insert(0, 1),
            EdgeUpdate::insert(1, 3), // grows to 4 vertices
            EdgeUpdate::insert_weighted(3, 0, 2.5),
            EdgeUpdate::remove(3, 0),
            EdgeUpdate::insert(2, 2), // self-loop: skipped
        ]);
        assert_eq!(inc.num_vertices(), 4);
        assert_eq!(inc.num_edges(), 2);
        let g = inc.to_graph();
        assert!(g.has_edge(0, 1) && g.has_edge(1, 3));
        assert!(!g.has_edge(3, 0));
        inc.current_order().validate().unwrap();
    }

    #[test]
    fn positive_fraction_matches_metric() {
        let g = shuffle_labels(
            &planted_partition(PlantedPartitionConfig {
                num_vertices: 150,
                num_edges: 900,
                communities: 5,
                p_intra: 0.8,
                gamma: 2.4,
                seed: 17,
            }),
            3,
        );
        let mut inc = IncrementalGoGraph::new(150);
        for e in g.edges() {
            inc.add_edge(e.src, e.dst);
        }
        let built = inc.to_graph();
        let expected = metric(&built, &inc.current_order()) as f64 / built.num_edges() as f64;
        assert!((inc.positive_fraction() - expected).abs() < 1e-12);
        assert_eq!(IncrementalGoGraph::new(3).positive_fraction(), 1.0);
    }
}
