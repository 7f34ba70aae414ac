//! Recursive-matrix (R-MAT / Graph500-style) generator.
//!
//! RMAT graphs reproduce the skewed, self-similar structure of web crawls
//! (indochina-2004, sk-2005) and social networks (LiveJournal): each edge
//! recursively descends the adjacency matrix with probabilities
//! `(a, b, c, d)`, concentrating edges around hub rows/columns.

use crate::csr::CsrGraph;
use crate::types::{Edge, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for the RMAT generator.
#[derive(Debug, Clone, Copy)]
pub struct RmatConfig {
    /// log2 of the number of vertices.
    pub scale: u32,
    /// Average out-degree; total edges = `edge_factor << scale`.
    pub edge_factor: usize,
    /// Quadrant probabilities; must sum to ~1. Graph500 default
    /// `(0.57, 0.19, 0.19, 0.05)`.
    pub a: f64,
    /// Upper-right quadrant probability.
    pub b: f64,
    /// Lower-left quadrant probability.
    pub c: f64,
    /// RNG seed.
    pub seed: u64,
    /// Perturbation of quadrant probabilities per level (Graph500 uses
    /// noise to avoid exact self-similarity); 0.0 disables.
    pub noise: f64,
}

impl RmatConfig {
    /// Graph500 defaults at the given scale/edge-factor/seed.
    pub fn graph500(scale: u32, edge_factor: usize, seed: u64) -> Self {
        RmatConfig {
            scale,
            edge_factor,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed,
            noise: 0.1,
        }
    }
}

/// Generates an RMAT graph. Self-loops are kept; duplicate edges are
/// deduplicated, so the final edge count can be slightly below
/// `edge_factor << scale`.
///
/// Delegates to [`rmat_streaming`], whose peak memory is one 4-byte
/// target per sampled edge plus the CSR index — not the 16-byte edge
/// list plus `O(m log m)` sort the
/// [`GraphBuilder`](crate::GraphBuilder) path pays — so scale-20+
/// generation fits alongside the finished graph.
pub fn rmat(cfg: RmatConfig) -> CsrGraph {
    rmat_streaming(cfg)
}

fn validated_d(cfg: &RmatConfig) -> f64 {
    assert!(cfg.scale < 31, "scale too large for u32 vertex ids");
    let d = 1.0 - cfg.a - cfg.b - cfg.c;
    assert!(
        cfg.a > 0.0 && cfg.b >= 0.0 && cfg.c >= 0.0 && d > 0.0,
        "invalid quadrant probabilities"
    );
    d
}

/// Streaming two-pass RMAT build producing exactly the graph the
/// [`GraphBuilder`](crate::GraphBuilder) path would (same sample stream,
/// same sort + dedup semantics), without ever materializing the edge
/// list:
///
/// 1. **Pass 1** streams the `m` samples and histograms out-degrees
///    (the RNG is re-seeded, so the stream itself is never stored).
/// 2. **Pass 2** replays the identical stream, scattering each target
///    directly into its row slot of the out-CSR target array.
/// 3. Rows are sorted and deduplicated in place (compacting), and both
///    directions' row blocks are written from the sorted rows.
///
/// Peak transient memory beyond the finished CSR: `4m` bytes of
/// pre-dedup targets plus a few `n`-entry degree and cursor arrays.
pub fn rmat_streaming(cfg: RmatConfig) -> CsrGraph {
    let d = validated_d(&cfg);
    let n = 1usize << cfg.scale;
    let m = cfg.edge_factor * n;

    // Pass 1: out-degree histogram, folded into the offsets array.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut out_offsets = vec![0usize; n + 1];
    for _ in 0..m {
        let (src, _) = sample_edge(&mut rng, cfg, d);
        out_offsets[src as usize + 1] += 1;
    }
    for i in 0..n {
        out_offsets[i + 1] += out_offsets[i];
    }

    // Pass 2: identical sample stream, targets scattered to row slots.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut cursor: Vec<usize> = out_offsets[..n].to_vec();
    let mut out_targets = vec![0 as VertexId; m];
    for _ in 0..m {
        let (src, dst) = sample_edge(&mut rng, cfg, d);
        out_targets[cursor[src as usize]] = dst;
        cursor[src as usize] += 1;
    }

    // Per-row sort + dedup, compacting in place (the write cursor never
    // overtakes the read cursor).
    let mut compact_offsets = vec![0usize; n + 1];
    let mut write = 0usize;
    let mut read_start = 0usize;
    for v in 0..n {
        let read_end = out_offsets[v + 1];
        out_targets[read_start..read_end].sort_unstable();
        let mut prev = None;
        for i in read_start..read_end {
            let t = out_targets[i];
            if prev != Some(t) {
                out_targets[write] = t;
                write += 1;
                prev = Some(t);
            }
        }
        read_start = read_end;
        compact_offsets[v + 1] = write;
    }
    out_targets.truncate(write);

    // Both directions' row blocks from the sorted, deduplicated rows.
    let edges = (0..n).flat_map(|v| {
        out_targets[compact_offsets[v]..compact_offsets[v + 1]]
            .iter()
            .map(move |&t| Edge::new(v as VertexId, t, 1.0))
    });
    CsrGraph::from_sorted_edges(n, edges)
}

fn sample_edge(rng: &mut StdRng, cfg: RmatConfig, d: f64) -> (VertexId, VertexId) {
    let mut row = 0u32;
    let mut col = 0u32;
    for _level in 0..cfg.scale {
        // Optionally perturb quadrant probabilities for this level.
        let (mut a, mut bq, mut c, mut dq) = (cfg.a, cfg.b, cfg.c, d);
        if cfg.noise > 0.0 {
            let f = 1.0 + cfg.noise * (2.0 * rng.random::<f64>() - 1.0);
            a *= f;
            let g = 1.0 + cfg.noise * (2.0 * rng.random::<f64>() - 1.0);
            bq *= g;
            let h = 1.0 + cfg.noise * (2.0 * rng.random::<f64>() - 1.0);
            c *= h;
            let total = a + bq + c + dq;
            a /= total;
            bq /= total;
            c /= total;
            dq /= total;
            let _ = dq;
        }
        let r = rng.random::<f64>();
        row <<= 1;
        col <<= 1;
        if r < a {
            // upper-left: nothing
        } else if r < a + bq {
            col |= 1;
        } else if r < a + bq + c {
            row |= 1;
        } else {
            row |= 1;
            col |= 1;
        }
    }
    (row, col)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_count_is_power_of_two() {
        let g = rmat(RmatConfig::graph500(10, 8, 1));
        assert_eq!(g.num_vertices(), 1024);
        assert!(g.num_edges() > 0);
        assert!(g.num_edges() <= 8 * 1024);
    }

    #[test]
    fn deterministic() {
        let a = rmat(RmatConfig::graph500(9, 4, 99));
        let b = rmat(RmatConfig::graph500(9, 4, 99));
        assert_eq!(a, b);
    }

    #[test]
    fn skewed_degrees() {
        let g = rmat(RmatConfig::graph500(12, 8, 3));
        let n = g.num_vertices();
        let mut degs: Vec<usize> = (0..n as u32).map(|v| g.out_degree(v)).collect();
        degs.sort_unstable_by(|a, b| b.cmp(a));
        // Top 1% of vertices should hold a disproportionate share of edges.
        let top: usize = degs[..n / 100].iter().sum();
        assert!(
            top as f64 > 0.15 * g.num_edges() as f64,
            "top-1% held only {top} of {} edges",
            g.num_edges()
        );
    }

    #[test]
    #[should_panic(expected = "invalid quadrant")]
    fn bad_probabilities_rejected() {
        rmat(RmatConfig {
            scale: 4,
            edge_factor: 2,
            a: 0.9,
            b: 0.1,
            c: 0.1,
            seed: 0,
            noise: 0.0,
        });
    }

    #[test]
    fn zero_noise_supported() {
        let mut cfg = RmatConfig::graph500(8, 4, 5);
        cfg.noise = 0.0;
        let g = rmat(cfg);
        assert_eq!(g.num_vertices(), 256);
    }

    /// Reference build through the general-purpose [`GraphBuilder`]
    /// (edge list + sort + dedup) — what `rmat` did before the
    /// streaming path replaced it.
    fn rmat_via_builder(cfg: RmatConfig) -> CsrGraph {
        let d = validated_d(&cfg);
        let n = 1usize << cfg.scale;
        let m = cfg.edge_factor * n;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut b = crate::builder::GraphBuilder::with_capacity(n, m);
        b.reserve_vertices(n);
        for _ in 0..m {
            let (src, dst) = sample_edge(&mut rng, cfg, d);
            b.add_edge(src, dst, 1.0);
        }
        b.build()
    }

    #[test]
    fn streaming_build_matches_builder_path() {
        for (scale, ef, seed, noise) in [
            (9, 4, 99, 0.1),
            (10, 8, 7, 0.1),
            (8, 16, 3, 0.0),
            (6, 0, 1, 0.1),
        ] {
            let mut cfg = RmatConfig::graph500(scale, ef, seed);
            cfg.noise = noise;
            assert_eq!(
                rmat_streaming(cfg),
                rmat_via_builder(cfg),
                "streaming and builder paths diverged at scale {scale} ef {ef} seed {seed}"
            );
        }
    }
}
