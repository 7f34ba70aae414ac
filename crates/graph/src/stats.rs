//! Degree statistics and summaries used for dataset tables and for
//! hub-extraction thresholds (GoGraph extracts the top 0.2% by degree;
//! HubSort/HubCluster use the average degree as their hub threshold).

use crate::csr::CsrGraph;
use crate::types::VertexId;

/// Summary statistics of a graph's degree distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of edges.
    pub num_edges: usize,
    /// Mean total degree (in + out).
    pub mean_degree: f64,
    /// Maximum total degree.
    pub max_degree: usize,
    /// Maximum in-degree.
    pub max_in_degree: usize,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Number of vertices with no edges at all.
    pub isolated_count: usize,
}

/// Computes [`DegreeStats`] for `g`.
pub fn degree_stats(g: &CsrGraph) -> DegreeStats {
    let n = g.num_vertices();
    let mut max_degree = 0;
    let mut max_in = 0;
    let mut max_out = 0;
    let mut isolated = 0;
    for v in 0..n as VertexId {
        let din = g.in_degree(v);
        let dout = g.out_degree(v);
        max_in = max_in.max(din);
        max_out = max_out.max(dout);
        max_degree = max_degree.max(din + dout);
        if din + dout == 0 {
            isolated += 1;
        }
    }
    DegreeStats {
        num_vertices: n,
        num_edges: g.num_edges(),
        mean_degree: if n == 0 {
            0.0
        } else {
            2.0 * g.num_edges() as f64 / n as f64
        },
        max_degree,
        max_in_degree: max_in,
        max_out_degree: max_out,
        isolated_count: isolated,
    }
}

/// Storage footprint of a graph's in-memory representation, split the
/// way compression changes it: adjacency structure vs. weight payload. Makes compression wins visible in every report, not
/// just the bench tables.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryFootprint {
    /// `"uncompressed"` or `"compressed"` (see [`CsrGraph::storage_kind`]).
    pub storage_kind: &'static str,
    /// Heap bytes of the adjacency structure (row offsets and ids or
    /// delta-varint runs, block tables, out-degrees).
    pub adjacency_bytes: usize,
    /// Heap bytes of edge-weight payloads (0 when compression drops
    /// unit weights).
    pub weight_bytes: usize,
    /// Adjacency bytes per directed edge — the compression headline.
    /// Counts both CSR directions; flat storage costs ~8 bytes/edge in
    /// ids alone. `0.0` for an edgeless graph.
    pub bytes_per_edge: f64,
}

impl MemoryFootprint {
    /// Total heap bytes (adjacency + weights).
    pub fn total_bytes(&self) -> usize {
        self.adjacency_bytes + self.weight_bytes
    }
}

impl std::fmt::Display for MemoryFootprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} storage, {:.2} bytes/edge ({} adjacency + {} weight bytes)",
            self.storage_kind, self.bytes_per_edge, self.adjacency_bytes, self.weight_bytes
        )
    }
}

/// Computes the [`MemoryFootprint`] of `g` in its current encoding.
pub fn memory_footprint(g: &CsrGraph) -> MemoryFootprint {
    MemoryFootprint {
        storage_kind: g.storage_kind(),
        adjacency_bytes: g.adjacency_bytes(),
        weight_bytes: g.weight_bytes(),
        bytes_per_edge: bytes_per_edge(g),
    }
}

/// Adjacency bytes per directed edge in the current encoding (both CSR
/// directions counted). `0.0` for an edgeless graph.
pub fn bytes_per_edge(g: &CsrGraph) -> f64 {
    if g.num_edges() == 0 {
        0.0
    } else {
        g.adjacency_bytes() as f64 / g.num_edges() as f64
    }
}

/// Vertices sorted by total degree descending (ties by id ascending).
pub fn vertices_by_degree_desc(g: &CsrGraph) -> Vec<VertexId> {
    let mut v: Vec<VertexId> = (0..g.num_vertices() as u32).collect();
    v.sort_by(|&a, &b| g.degree(b).cmp(&g.degree(a)).then(a.cmp(&b)));
    v
}

/// The `k` highest-degree vertices (GoGraph's hub set, k = ceil(0.2% n)).
pub fn top_k_by_degree(g: &CsrGraph, k: usize) -> Vec<VertexId> {
    let mut v = vertices_by_degree_desc(g);
    v.truncate(k);
    v
}

/// Degree histogram: `hist[d]` = number of vertices with total degree `d`.
pub fn degree_histogram(g: &CsrGraph) -> Vec<usize> {
    let mut hist = Vec::new();
    for v in 0..g.num_vertices() as VertexId {
        let d = g.degree(v);
        if d >= hist.len() {
            hist.resize(d + 1, 0);
        }
        hist[d] += 1;
    }
    hist
}

/// Estimates the power-law exponent of the degree distribution via the
/// Hill / maximum-likelihood estimator over degrees `>= d_min`.
/// Returns `None` if fewer than 10 vertices qualify.
pub fn power_law_exponent(g: &CsrGraph, d_min: usize) -> Option<f64> {
    let d_min = d_min.max(1);
    let mut count = 0usize;
    let mut log_sum = 0.0f64;
    for v in 0..g.num_vertices() as VertexId {
        let d = g.degree(v);
        if d >= d_min {
            count += 1;
            log_sum += (d as f64 / d_min as f64).ln();
        }
    }
    if count < 10 || log_sum == 0.0 {
        None
    } else {
        Some(1.0 + count as f64 / log_sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::ba::barabasi_albert;
    use crate::generators::regular::{chain, star};

    #[test]
    fn stats_on_star() {
        let g = star(10);
        let s = degree_stats(&g);
        assert_eq!(s.num_vertices, 10);
        assert_eq!(s.num_edges, 9);
        assert_eq!(s.max_degree, 9);
        assert_eq!(s.max_out_degree, 9);
        assert_eq!(s.max_in_degree, 1);
        assert_eq!(s.isolated_count, 0);
        assert!((s.mean_degree - 1.8).abs() < 1e-12);
    }

    #[test]
    fn isolated_counted() {
        let mut b = crate::builder::GraphBuilder::new();
        b.reserve_vertices(5);
        b.add_edge(0, 1, 1.0);
        let s = degree_stats(&b.build());
        assert_eq!(s.isolated_count, 3);
    }

    #[test]
    fn sort_by_degree_desc() {
        let g = star(5);
        let order = vertices_by_degree_desc(&g);
        assert_eq!(order[0], 0); // hub first
        assert_eq!(top_k_by_degree(&g, 1), vec![0]);
    }

    #[test]
    fn histogram_sums_to_n() {
        let g = chain(10);
        let hist = degree_histogram(&g);
        assert_eq!(hist.iter().sum::<usize>(), 10);
        assert_eq!(hist[1], 2); // endpoints
        assert_eq!(hist[2], 8);
    }

    #[test]
    fn power_law_estimate_on_ba() {
        let g = barabasi_albert(5000, 3, 13);
        let gamma = power_law_exponent(&g, 3).unwrap();
        // BA theoretical exponent is 3; the estimator is rough.
        assert!(gamma > 1.8 && gamma < 4.5, "gamma = {gamma}");
    }

    #[test]
    fn power_law_none_on_tiny() {
        let g = chain(5);
        assert!(power_law_exponent(&g, 100).is_none());
    }

    #[test]
    fn memory_footprint_tracks_compression() {
        let g = chain(2000);
        let flat = memory_footprint(&g);
        assert_eq!(flat.storage_kind, "uncompressed");
        assert_eq!(flat.total_bytes(), g.memory_bytes());
        // Flat CSR: ≥8 bytes of 4-byte ids per edge (both directions)
        // before offsets.
        assert!(flat.bytes_per_edge > 8.0, "{}", flat.bytes_per_edge);

        let c = g.compress();
        let comp = memory_footprint(&c);
        assert_eq!(comp.storage_kind, "compressed");
        assert!(
            comp.bytes_per_edge < flat.bytes_per_edge,
            "compressed {} vs flat {}",
            comp.bytes_per_edge,
            flat.bytes_per_edge
        );
        // Display renders the headline number.
        assert!(format!("{comp}").contains("compressed storage"));
    }

    #[test]
    fn bytes_per_edge_zero_on_edgeless() {
        let mut b = crate::builder::GraphBuilder::new();
        b.reserve_vertices(3);
        assert_eq!(bytes_per_edge(&b.build()), 0.0);
    }
}
