//! Memory-access trace of one asynchronous PageRank-style round.
//!
//! The paper's cache experiments (Figs. 9–10) run PageRank and count
//! hardware cache misses. The dominant access pattern per processed
//! vertex `v` is:
//!
//! 1. read the in-CSR index (`in_offsets[v]`, `in_offsets[v+1]`),
//! 2. scan `in_sources[s..e]` sequentially,
//! 3. for each in-neighbor `u`: read `state[u]` (the random-access part
//!    whose locality the ordering controls) and `out_offsets[u]` /
//!    `out_offsets[u+1]` for the degree normalization,
//! 4. write `state[v]`.
//!
//! [`simulate_pagerank_rounds`] replays exactly that pattern against a
//! [`CacheHierarchy`] for a graph *physically relabeled* by the ordering
//! under test — matching how the paper deploys reordered graphs.

use crate::hierarchy::{CacheHierarchy, HierarchyStats};
use gograph_graph::{CsrGraph, Permutation};

/// Virtual address-space layout of the engine's arrays. Regions are
/// padded apart so they never share cache lines.
#[derive(Debug, Clone, Copy)]
struct Layout {
    state_base: u64,
    in_offsets_base: u64,
    in_sources_base: u64,
    out_offsets_base: u64,
}

const PAD: u64 = 1 << 30; // 1 GiB between regions

fn layout(_g: &CsrGraph) -> Layout {
    Layout {
        state_base: 0,
        in_offsets_base: PAD,
        in_sources_base: 2 * PAD,
        out_offsets_base: 3 * PAD,
    }
}

/// Replays the access pattern of `rounds` asynchronous PageRank rounds
/// over `g` scanned in natural order `0..n` (relabel the graph first to
/// evaluate an ordering), returning the per-level miss statistics.
pub fn simulate_pagerank_rounds(
    g: &CsrGraph,
    hierarchy: &mut CacheHierarchy,
    rounds: usize,
) -> HierarchyStats {
    let lay = layout(g);
    let n = g.num_vertices();
    for _ in 0..rounds {
        let mut in_cursor = 0u64; // dense position in in_sources
        for v in 0..n as u32 {
            // CSR index reads (8 bytes each, consecutive entries).
            hierarchy.access(lay.in_offsets_base + 8 * v as u64);
            hierarchy.access(lay.in_offsets_base + 8 * (v as u64 + 1));
            let ins = g.in_neighbors(v);
            for &u in ins {
                // Sequential in_sources scan (4-byte vertex ids).
                hierarchy.access(lay.in_sources_base + 4 * in_cursor);
                in_cursor += 1;
                // Random state read — the locality-critical access.
                hierarchy.access(lay.state_base + 8 * u as u64);
                // Degree lookup of the neighbor.
                hierarchy.access(lay.out_offsets_base + 8 * u as u64);
                hierarchy.access(lay.out_offsets_base + 8 * (u as u64 + 1));
            }
            // State write-back.
            hierarchy.access(lay.state_base + 8 * v as u64);
        }
    }
    hierarchy.stats()
}

/// Convenience: relabels `g` by `order`, simulates `rounds` PageRank
/// rounds on a fresh default hierarchy, and returns the stats.
pub fn cache_misses_of_order(g: &CsrGraph, order: &Permutation, rounds: usize) -> HierarchyStats {
    let relabeled = g.relabeled(order);
    let mut h = CacheHierarchy::default();
    simulate_pagerank_rounds(&relabeled, &mut h, rounds)
}

/// Replays the access pattern of a dense pull round on the
/// **compressed** CSR backend (`CsrStorage::Compressed`): per vertex
/// `v` the gather reads the out-of-band degree entry, streams the
/// delta-varint row bytes sequentially, and per decoded in-neighbor
/// `u` reads `state[u]` plus the 4-byte `out_degrees[u]` entry (the
/// compressed backend keeps a degree array, not offset pairs), then
/// writes `state[v]`.
///
/// Two locality effects vs the flat trace: the neighbor stream shrinks
/// from 4 bytes per edge to the encoded gap width (≈1 byte after a
/// locality-aware reorder), and the degree lookup halves. The random
/// `state[u]` reads are identical — so orderings are compared on the
/// same footing as the hardware counters in paper Figs. 9–10.
///
/// Panics if `g` is not on the compressed backend.
pub fn simulate_compressed_pull_rounds(
    g: &CsrGraph,
    hierarchy: &mut CacheHierarchy,
    rounds: usize,
) -> HierarchyStats {
    let adj = g
        .compressed_in_adjacency()
        .expect("simulate_compressed_pull_rounds requires compressed storage");
    let lay = layout(g);
    let degrees_base = 4 * PAD;
    let n = g.num_vertices();
    for _ in 0..rounds {
        // Dense sweep: rows are consecutive within shards and shards
        // consecutive in memory, so the payload cursor just advances.
        let mut byte_cursor = 0u64;
        for v in 0..n as u32 {
            // Out-of-band degree of the row being decoded (4 bytes,
            // sequential).
            hierarchy.access(degrees_base + 4 * v as u64);
            let row_len = adj.row_bytes(v).len() as u64;
            // Sequential byte-stream decode of the row.
            for b in 0..row_len {
                hierarchy.access(lay.in_sources_base + byte_cursor + b);
            }
            byte_cursor += row_len;
            adj.for_each(v, |u| {
                // Random state read — the locality-critical access.
                hierarchy.access(lay.state_base + 8 * u as u64);
                // Neighbor out-degree (single 4-byte entry).
                hierarchy.access(lay.out_offsets_base + 4 * u as u64);
            });
            // State write-back.
            hierarchy.access(lay.state_base + 8 * v as u64);
        }
    }
    hierarchy.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gograph_graph::generators::regular::chain;
    use gograph_graph::generators::{planted_partition, shuffle_labels, PlantedPartitionConfig};

    #[test]
    fn deterministic() {
        let g = chain(100);
        let id = Permutation::identity(100);
        let a = cache_misses_of_order(&g, &id, 1);
        let b = cache_misses_of_order(&g, &id, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn access_count_matches_formula() {
        let g = chain(10); // 9 edges
        let mut h = CacheHierarchy::default();
        let s = simulate_pagerank_rounds(&g, &mut h, 1);
        // per vertex: 2 offset reads + 1 write = 3n; per edge: 4 reads.
        assert_eq!(s.l1.accesses, (3 * 10 + 4 * 9) as u64);
    }

    #[test]
    fn community_order_beats_shuffled_order() {
        // The same graph, laid out community-contiguously vs randomly:
        // the contiguous layout must miss less.
        let g = planted_partition(PlantedPartitionConfig {
            num_vertices: 20_000,
            num_edges: 120_000,
            communities: 50,
            p_intra: 0.9,
            gamma: 2.5,
            seed: 13,
        });
        let contiguous = cache_misses_of_order(&g, &Permutation::identity(20_000), 1);
        let shuffled_graph = shuffle_labels(&g, 77);
        let shuffled = cache_misses_of_order(&shuffled_graph, &Permutation::identity(20_000), 1);
        assert!(
            contiguous.total_misses() < shuffled.total_misses(),
            "contiguous {} vs shuffled {}",
            contiguous.total_misses(),
            shuffled.total_misses()
        );
    }

    #[test]
    fn more_rounds_more_accesses() {
        let g = chain(50);
        let id = Permutation::identity(50);
        let one = cache_misses_of_order(&g, &id, 1);
        let three = cache_misses_of_order(&g, &id, 3);
        assert_eq!(three.l1.accesses, 3 * one.l1.accesses);
        // Later rounds hit the warm cache: misses grow sublinearly.
        assert!(three.total_misses() < 3 * one.total_misses());
    }
}
