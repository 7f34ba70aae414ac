//! Incremental construction of [`CsrGraph`]s from edge streams.
//!
//! The builder accepts edges in any order, grows the vertex count to cover
//! every endpoint, deduplicates parallel edges (keeping the smallest
//! weight, the convention that benefits shortest-path algorithms), and
//! emits sorted CSR row blocks of both directions in one counting pass
//! and one fill pass.

use crate::csr::CsrGraph;
use crate::types::{Edge, VertexId, Weight};

/// Streaming builder for [`CsrGraph`].
///
/// ```
/// use gograph_graph::builder::GraphBuilder;
/// let mut b = GraphBuilder::new();
/// b.add_edge(0, 1, 1.0);
/// b.add_edge(1, 2, 2.0);
/// let g = b.build();
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.num_edges(), 2);
/// ```
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    edges: Vec<Edge>,
    num_vertices: usize,
}

impl GraphBuilder {
    /// An empty builder; the vertex count grows with the edges added.
    pub fn new() -> Self {
        GraphBuilder::default()
    }

    /// Builder preallocated for `num_vertices` vertices and `num_edges`
    /// edges. The final graph has at least `num_vertices` vertices even if
    /// some have no edges.
    pub fn with_capacity(num_vertices: usize, num_edges: usize) -> Self {
        GraphBuilder {
            edges: Vec::with_capacity(num_edges),
            num_vertices,
        }
    }

    /// Ensures the graph contains at least `n` vertices.
    pub fn reserve_vertices(&mut self, n: usize) {
        self.num_vertices = self.num_vertices.max(n);
    }

    /// Adds a directed weighted edge. Endpoints extend the vertex count.
    #[inline]
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId, weight: Weight) {
        self.num_vertices = self
            .num_vertices
            .max(src as usize + 1)
            .max(dst as usize + 1);
        self.edges.push(Edge::new(src, dst, weight));
    }

    /// Adds an unweighted (weight = 1.0) directed edge.
    #[inline]
    pub fn add_unweighted_edge(&mut self, src: VertexId, dst: VertexId) {
        self.add_edge(src, dst, 1.0);
    }

    /// Adds an [`Edge`] value.
    #[inline]
    pub fn add_edge_struct(&mut self, e: Edge) {
        self.add_edge(e.src, e.dst, e.weight);
    }

    /// Adds both `(u, v)` and `(v, u)` with the same weight.
    pub fn add_symmetric_edge(&mut self, u: VertexId, v: VertexId, weight: Weight) {
        self.add_edge(u, v, weight);
        if u != v {
            self.add_edge(v, u, weight);
        }
    }

    /// Number of edges added so far (before dedup).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Current vertex count.
    pub fn vertex_count(&self) -> usize {
        self.num_vertices
    }

    /// Finalizes into a [`CsrGraph`], deduplicating parallel edges
    /// (smallest weight wins) and sorting every neighbor list.
    pub fn build(mut self) -> CsrGraph {
        let n = self.num_vertices;
        // Sort by (src, dst, weight) so duplicates are adjacent and the
        // kept duplicate (first) carries the smallest weight.
        self.edges.sort_unstable_by(|a, b| {
            (a.src, a.dst).cmp(&(b.src, b.dst)).then(
                a.weight
                    .partial_cmp(&b.weight)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        self.edges
            .dedup_by(|next, kept| next.src == kept.src && next.dst == kept.dst);
        CsrGraph::from_sorted_edges(n, self.edges.iter().copied())
    }
}

impl Extend<Edge> for GraphBuilder {
    fn extend<T: IntoIterator<Item = Edge>>(&mut self, iter: T) {
        for e in iter {
            self.add_edge_struct(e);
        }
    }
}

impl FromIterator<Edge> for GraphBuilder {
    fn from_iter<T: IntoIterator<Item = Edge>>(iter: T) -> Self {
        let mut b = GraphBuilder::new();
        b.extend(iter);
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_empty() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn vertex_count_grows_with_endpoints() {
        let mut b = GraphBuilder::new();
        b.add_edge(5, 9, 1.0);
        let g = b.build();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn reserve_vertices_creates_isolated() {
        let mut b = GraphBuilder::new();
        b.reserve_vertices(7);
        b.add_edge(0, 1, 1.0);
        let g = b.build();
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(g.out_degree(6), 0);
    }

    #[test]
    fn duplicate_edges_keep_min_weight() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 5.0);
        b.add_edge(0, 1, 2.0);
        b.add_edge(0, 1, 7.0);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(2.0));
    }

    #[test]
    fn unsorted_input_produces_sorted_adjacency() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 3, 1.0);
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 2, 1.0);
        let g = b.build();
        assert_eq!(g.out_neighbors(0), &[1, 2, 3]);
    }

    #[test]
    fn in_adjacency_sorted() {
        let mut b = GraphBuilder::new();
        b.add_edge(3, 0, 1.0);
        b.add_edge(1, 0, 1.0);
        b.add_edge(2, 0, 1.0);
        let g = b.build();
        assert_eq!(g.in_neighbors(0), &[1, 2, 3]);
    }

    #[test]
    fn symmetric_edges() {
        let mut b = GraphBuilder::new();
        b.add_symmetric_edge(0, 1, 3.0);
        b.add_symmetric_edge(2, 2, 1.0); // self loop added once
        let g = b.build();
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(2, 2));
    }

    #[test]
    fn from_iterator() {
        let g: CsrGraph = [(0u32, 1u32), (1, 2)]
            .into_iter()
            .map(Edge::from)
            .collect::<GraphBuilder>()
            .build();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn in_and_out_edge_weights_agree() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 2, 4.0);
        b.add_edge(1, 2, 8.0);
        let g = b.build();
        assert_eq!(g.in_neighbors(2), &[0, 1]);
        assert_eq!(g.in_weights(2), &[4.0, 8.0]);
    }
}
