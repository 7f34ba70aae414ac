//! Incremental (streaming) order maintenance — the paper's evolving-graph
//! outlook (§VI cites RisGraph \[28\] and KickStarter \[29\]) made concrete.
//!
//! A full GoGraph run costs a partitioning plus O(|E|) greedy insertion;
//! re-running it on every edge arrival is wasteful. [`IncrementalGoGraph`]
//! seeds from a full run and then maintains the order under batches of
//! edge insertions and deletions by *locally repositioning* the affected
//! endpoints: moving a single vertex only flips the signs of its own
//! incident edges, so re-running `GetOptVal` for that vertex (remove +
//! optimal re-insert) can never decrease `M` — a monotone-metric
//! maintenance guarantee.
//!
//! The maintainer owns the graph it orders. A batch patches it once
//! ([`CsrGraph::apply_updates`]), then repositions every endpoint of an
//! edge the batch added or took away, once each, in order of first
//! appearance, against the patched rows: a vertex sees its whole batch's
//! neighbourhood. So a batch of `|U|` updates costs one CSR patch plus,
//! for each of its at most `2|U|` endpoints, one `GetOptVal` over that
//! vertex's rows (`O(deg · log deg)`).

use crate::gograph::GoGraph;
use crate::insertion::{InsertionOrder, NeighborLink};
use gograph_graph::{CsrGraph, EdgeUpdate, OrderPatch, Permutation, VertexId};
use gograph_reorder::Reorderer;
use std::collections::HashSet;
use std::sync::Arc;

/// Streaming order maintainer over the graph it owns.
///
/// ```
/// use gograph_core::{metric, IncrementalGoGraph};
/// use gograph_graph::EdgeUpdate;
///
/// let mut inc = IncrementalGoGraph::new(4);
/// // Edges arrive one batch at a time, in an adversarial order...
/// for (u, v) in [(2, 3), (1, 2), (0, 1)] {
///     inc.apply_updates(&[EdgeUpdate::insert(u, v)]);
/// }
/// // ...yet local repositioning keeps the chain fully positive.
/// assert_eq!(metric(inc.graph(), &inc.current_order()), 3);
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalGoGraph {
    graph: CsrGraph,
    order: InsertionOrder,
    /// `M(O)`: edges of `graph` whose source precedes their target, kept
    /// current by every batch and reposition.
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

    /// A maintainer of `order` over `g`, which it shares
    /// ([`CsrGraph::snapshot`]): one sweep counts `M`, nothing is copied
    /// per edge.
    fn over(g: &CsrGraph, order: InsertionOrder) -> Self {
        let mut inc = IncrementalGoGraph {
            graph: g.snapshot(),
            order,
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

    /// The graph the order is maintained over: the seed graph with every
    /// batch applied.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Folds a batch of [`EdgeUpdate`]s into the graph and the order.
    /// Self-loops are neither positive nor negative and are dropped
    /// first; the rest patch the graph as [`CsrGraph::apply_updates`]
    /// reads them (in sequence; insert endpoints beyond the vertex count
    /// grow it, and new vertices join the order at its tail). Every
    /// endpoint of a pair the batch added or took away is then
    /// repositioned once, in order of first appearance, against the
    /// patched graph; a duplicate insert, a remove of an absent edge or
    /// an insert and remove of one pair moves nothing. Weights are
    /// ignored by the order: `M` counts edges, not weight.
    pub fn apply_updates(&mut self, updates: &[EdgeUpdate]) {
        let updates: Vec<EdgeUpdate> = (updates.iter().copied())
            .filter(|u| u.src() != u.dst())
            .collect();
        if updates.is_empty() {
            return;
        }
        let patched = self.graph.apply_updates(&updates);
        let before = std::mem::replace(&mut self.graph, patched);
        for _ in self.order.vals().len()..self.graph.num_vertices() {
            self.order.grow_one();
        }
        let mut pairs = HashSet::with_capacity(updates.len());
        let mut seen = HashSet::with_capacity(2 * updates.len());
        let mut endpoints: Vec<VertexId> = Vec::with_capacity(2 * updates.len());
        for (u, v) in updates.iter().map(|up| (up.src(), up.dst())) {
            let now = has_edge(&self.graph, u, v);
            if !pairs.insert((u, v)) || has_edge(&before, u, v) == now {
                continue;
            }
            let positive = usize::from(self.precedes(u, v));
            if now {
                self.positive += positive;
            } else {
                self.positive -= positive;
            }
            endpoints.extend([u, v].into_iter().filter(|&w| seen.insert(w)));
        }
        for w in endpoints {
            self.reposition(w);
        }
    }

    /// `M(O) / |E|` of the maintained order over the graph — the drift
    /// signal streaming callers compare against the fraction a full
    /// re-run achieved. `O(1)`: `M(O)` is a counter every batch adjusts
    /// by the signs it changed, not a sweep. An empty edge set reports
    /// 1.0 (nothing can be negative).
    pub fn positive_fraction(&self) -> f64 {
        debug_assert_eq!(self.positive, self.count_positive());
        if self.num_edges() == 0 {
            return 1.0;
        }
        self.positive as f64 / self.num_edges() as f64
    }

    /// True when `u` precedes `v` in the order — by key, ties by id, as
    /// the committed order sorts them: an edge `(u, v)` is positive.
    fn precedes(&self, u: VertexId, v: VertexId) -> bool {
        self.order.key_cmp(u as usize, v as usize).is_lt()
    }

    /// `M(O)` by a sweep over every edge — what `positive` must equal.
    fn count_positive(&self) -> usize {
        (self.graph.edges())
            .filter(|e| self.precedes(e.src, e.dst))
            .count()
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
        let outs = self.graph.out_neighbors(w).iter();
        let ins = self.graph.in_neighbors(w).iter();
        outs.filter(|&&x| self.precedes(w, x)).count()
            + ins.filter(|&&x| self.precedes(x, w)).count()
    }

    /// `w`'s neighbours with their edge counts each way: one merge of
    /// its sorted in-row and out-row. Reads only a patched graph, which
    /// is flat.
    fn links_of(&self, w: VertexId) -> Vec<NeighborLink> {
        let (ins, outs) = (self.graph.in_neighbors(w), self.graph.out_neighbors(w));
        let mut links = Vec::with_capacity(ins.len() + outs.len());
        let (mut i, mut o) = (0, 0);
        let count = |hit: bool| if hit { 1.0 } else { 0.0 };
        loop {
            let Some(&x) = ins.get(i).into_iter().chain(outs.get(o)).min() else {
                return links;
            };
            let (is_in, is_out) = (ins.get(i) == Some(&x), outs.get(o) == Some(&x));
            i += usize::from(is_in);
            o += usize::from(is_out);
            links.push(NeighborLink::new(x as usize, count(is_in), count(is_out)));
        }
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
}

/// Whether `g` holds the edge `(u, v)`; false for an endpoint it lacks.
fn has_edge(g: &CsrGraph, u: VertexId, v: VertexId) -> bool {
    (u as usize) < g.num_vertices() && g.has_edge(u, v)
}

/// As a [`Reorderer`], the incremental maintainer orders a graph by
/// folding its edges into an empty maintainer as one batch — every
/// vertex with an edge repositioned once, against the whole graph: the
/// §VI evolving-graph strategy applied as a one-shot method. This is
/// what lets it slot into `Pipeline::reorder(...)` interchangeably with
/// the batch methods; the maintainer's own streamed state (if any) is not
/// consulted, so one instance can order many graphs.
impl Reorderer for IncrementalGoGraph {
    fn name(&self) -> &'static str {
        "incremental-gograph"
    }

    fn reorder(&self, g: &CsrGraph) -> Permutation {
        let mut inc = IncrementalGoGraph::new(g.num_vertices());
        let edges: Vec<EdgeUpdate> = g
            .edges()
            .map(|e| EdgeUpdate::insert(e.src, e.dst))
            .collect();
        inc.apply_updates(&edges);
        inc.current_order()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::metric;
    use gograph_graph::generators::{planted_partition, shuffle_labels, PlantedPartitionConfig};
    use gograph_graph::GraphBuilder;
    use rand::{Rng, SeedableRng};

    /// Folds one update as a batch of its own.
    fn insert(inc: &mut IncrementalGoGraph, u: VertexId, v: VertexId) {
        inc.apply_updates(&[EdgeUpdate::insert(u, v)]);
    }

    fn remove(inc: &mut IncrementalGoGraph, u: VertexId, v: VertexId) {
        inc.apply_updates(&[EdgeUpdate::remove(u, v)]);
    }

    #[test]
    fn streaming_chain_stays_optimal() {
        let mut inc = IncrementalGoGraph::new(10);
        for v in 0..9u32 {
            insert(&mut inc, v, v + 1);
        }
        let order = inc.current_order();
        assert_eq!(
            metric(inc.graph(), &order),
            9,
            "chain must stay fully positive"
        );
    }

    #[test]
    fn reverse_streamed_chain_recovers() {
        // Edges arrive in the worst order (from the tail); local
        // repositioning must still untangle the chain.
        let mut inc = IncrementalGoGraph::new(10);
        for v in (0..9u32).rev() {
            insert(&mut inc, v, v + 1);
        }
        let order = inc.current_order();
        let m = metric(inc.graph(), &order);
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
            insert(&mut inc, u, v);
        }
        let built = inc.graph();
        let order = inc.current_order();
        order.validate().unwrap();
        let m = metric(built, &order);
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
            insert(&mut inc, u, v);
        }
        let final_graph = inc.graph();
        let m_inc = metric(final_graph, &inc.current_order());
        let m_full = metric(final_graph, &GoGraph::default().run(final_graph));
        assert!(
            m_inc as f64 >= 0.8 * m_full as f64,
            "incremental M {m_inc} fell far below full rerun {m_full}"
        );
    }

    #[test]
    fn growing_inserts_extend_order() {
        let mut inc = IncrementalGoGraph::new(2);
        insert(&mut inc, 0, 1);
        insert(&mut inc, 1, 2);
        assert_eq!(inc.num_vertices(), 3);
        let order = inc.current_order();
        assert_eq!(order.len(), 3);
        assert_eq!(metric(inc.graph(), &order), 2);
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
        insert(&mut inc, 0, 1);
        insert(&mut inc, 0, 1);
        insert(&mut inc, 2, 2);
        assert_eq!(inc.num_edges(), 1);
        assert!(!inc.graph().has_edge(2, 2));
    }

    #[test]
    fn removes_delete_and_absent_ones_are_no_ops() {
        let mut inc = IncrementalGoGraph::new(4);
        for v in 0..3 {
            insert(&mut inc, v, v + 1);
        }
        remove(&mut inc, 1, 2);
        assert_eq!(inc.num_edges(), 2);
        remove(&mut inc, 1, 2); // second removal
        remove(&mut inc, 3, 0); // absent edge
        remove(&mut inc, 9, 0); // out of range
        assert_eq!(inc.num_edges(), 2);
        assert_eq!(inc.num_vertices(), 4, "a remove never grows the graph");
        let g = inc.graph();
        assert!(!g.has_edge(1, 2));
        let order = inc.current_order();
        order.validate().unwrap();
        assert_eq!(metric(g, &order), 2, "survivors stay positive");
    }

    #[test]
    fn removal_lets_endpoints_reposition() {
        // 0 -> 1 plus a heavy bundle pulling 1 before 0: once the bundle
        // is deleted, repositioning must recover the 0 -> 1 edge.
        let mut inc = IncrementalGoGraph::new(6);
        insert(&mut inc, 0, 1);
        for hub in 2..6u32 {
            insert(&mut inc, 1, hub);
            insert(&mut inc, hub, 0);
        }
        for hub in 2..6u32 {
            remove(&mut inc, 1, hub);
            remove(&mut inc, hub, 0);
        }
        assert_eq!(inc.num_edges(), 1);
        assert_eq!(metric(inc.graph(), &inc.current_order()), 1);
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

        let (vals, lo, hi) = inc.order_state();
        let mut resumed =
            IncrementalGoGraph::from_graph_with_saved_order(inc.graph(), &vals, lo, hi);
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
            EdgeUpdate::insert(6, 6), // a self-loop grows nothing
            EdgeUpdate::insert(0, 1), // duplicate
            EdgeUpdate::remove(2, 0), // absent
            EdgeUpdate::remove(1, 3),
            EdgeUpdate::insert(1, 3), // removed, then back
        ]);
        assert_eq!(inc.num_vertices(), 4);
        assert_eq!(inc.num_edges(), 2);
        let g = inc.graph();
        assert!(g.has_edge(0, 1) && g.has_edge(1, 3));
        assert!(!g.has_edge(3, 0));
        inc.current_order().validate().unwrap();
        let m = metric(g, &inc.current_order());
        assert_eq!(inc.positive_fraction(), m as f64 / 2.0);

        // A batch that changes no edge moves no vertex.
        inc.commit_order();
        inc.apply_updates(&[
            EdgeUpdate::insert(0, 2),
            EdgeUpdate::remove(0, 2),
            EdgeUpdate::insert(0, 1),
            EdgeUpdate::remove(3, 1),
        ]);
        assert!(inc.commit_order().unwrap().is_empty());
    }

    #[test]
    fn tied_keys_count_an_edge_by_the_id_tie_break() {
        // Two vertices on one key: the committed order puts the lower id
        // first, so the edge from it is positive, and `M` must say so.
        let g = CsrGraph::from_edges(2, [(0, 1)]);
        let mut inc = IncrementalGoGraph::from_graph_with_saved_order(&g, &[1.0, 1.0], 1.0, 1.0);
        inc.commit_order();
        let m = metric(inc.graph(), inc.committed_order());
        assert_eq!(m, 1);
        assert_eq!(inc.positive_fraction(), m as f64 / g.num_edges() as f64);
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
        let edges: Vec<EdgeUpdate> = g
            .edges()
            .map(|e| EdgeUpdate::insert(e.src, e.dst))
            .collect();
        inc.apply_updates(&edges);
        let built = inc.graph();
        let expected = metric(built, &inc.current_order()) as f64 / built.num_edges() as f64;
        assert!((inc.positive_fraction() - expected).abs() < 1e-12);
        assert_eq!(IncrementalGoGraph::new(3).positive_fraction(), 1.0);
    }
}
