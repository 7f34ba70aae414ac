//! [`PartitionedOrder`] — a processing order that remembers the divide
//! phase it came from.
//!
//! `GoGraph::run` flattens its divide-and-conquer structure into a bare
//! [`Permutation`], which is all an engine needs. `PartitionedOrder`
//! keeps the structure for callers that want more: which partition each
//! vertex belongs to, the contiguous residual-rank range each partition
//! occupies (a file or a placement policy can cut storage there), and each
//! partition's contribution to the metric `M(O)` at construction time.

use gograph_graph::{CsrGraph, Permutation, VertexId};
use std::sync::Arc;

/// Part id marking vertices outside every partition (hubs and isolated
/// vertices, which GoGraph's extract phase handles separately).
pub const UNPARTITIONED: u32 = u32::MAX;

/// One partition's (or the cross-partition residue's) share of the
/// metric: how many of its edges are positive under the order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PartitionContribution {
    /// Edges with `p(src) < p(dst)` in this bucket.
    pub positive: usize,
    /// All non-self-loop edges in this bucket.
    pub total: usize,
}

impl PartitionContribution {
    /// `positive / total`; an empty bucket reports 1.0 (nothing can be
    /// negative), matching
    /// [`IncrementalGoGraph::positive_fraction`](crate::IncrementalGoGraph::positive_fraction).
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.positive as f64 / self.total as f64
        }
    }
}

/// Splits the metric of `order` on `g` into per-partition intra buckets
/// plus one cross bucket.
///
/// An edge lands in partition `p`'s bucket when both endpoints map to
/// `p` under `part_of`; every other non-self-loop edge (cross-partition,
/// or incident to an [`UNPARTITIONED`] vertex) lands in the cross
/// bucket. Self-loops are skipped — they are neither positive nor
/// negative under any order.
///
/// # Panics
/// Panics if `part_of` is shorter than the vertex count or `order` has
/// the wrong length.
pub(crate) fn partition_contributions(
    g: &CsrGraph,
    part_of: &[u32],
    order: &Permutation,
    num_parts: usize,
) -> (Vec<PartitionContribution>, PartitionContribution) {
    assert!(part_of.len() >= g.num_vertices());
    assert_eq!(order.len(), g.num_vertices());
    let mut intra = vec![PartitionContribution::default(); num_parts];
    let mut cross = PartitionContribution::default();
    for e in g.edges() {
        if e.src == e.dst {
            continue;
        }
        let positive = order.position(e.src) < order.position(e.dst);
        let (pi, pj) = (part_of[e.src as usize], part_of[e.dst as usize]);
        let bucket = if pi == pj && pi != UNPARTITIONED {
            &mut intra[pi as usize]
        } else {
            &mut cross
        };
        bucket.total += 1;
        if positive {
            bucket.positive += 1;
        }
    }
    (intra, cross)
}

/// A processing order together with the partition structure that
/// produced it.
///
/// Invariants (guaranteed by construction in
/// [`GoGraph::run_partitioned`](crate::GoGraph::run_partitioned)):
///
/// - partition ids are dense in `0..num_parts()`, with hubs and isolated
///   vertices mapped to [`UNPARTITIONED`];
/// - among the partitioned (residual) vertices, each partition occupies
///   a **contiguous residual-rank range** ([`PartitionedOrder::rank_range`]):
///   partition members are consecutive once hubs are skipped, which is
///   what lets storage be cut at partition starts;
/// - [`PartitionedOrder::members`] lists each partition's vertices in
///   within-partition rank order.
///
/// `PartitionedOrder` is immutable once assembled, so the payload
/// vectors live behind [`Arc`]s and **`clone` is O(1)** — an epoch
/// snapshot of the partition structure shares storage with the
/// maintainer's copy instead of deep-copying it.
#[derive(Debug, Clone)]
pub struct PartitionedOrder {
    order: Arc<Permutation>,
    part_of: Arc<Vec<u32>>,
    members: Arc<Vec<Vec<VertexId>>>,
    ranges: Arc<Vec<(usize, usize)>>,
    intra: Arc<Vec<PartitionContribution>>,
    cross: PartitionContribution,
}

impl PartitionedOrder {
    /// Assembles a partitioned order and computes its per-partition
    /// metric contributions against `g`.
    ///
    /// `members[p]` must list partition `p`'s vertices in
    /// within-partition rank order and `ranges[p]` its residual-rank
    /// span; both come straight out of the decompress phase.
    pub(crate) fn new(
        g: &CsrGraph,
        order: Permutation,
        part_of: Vec<u32>,
        members: Vec<Vec<VertexId>>,
        ranges: Vec<(usize, usize)>,
    ) -> PartitionedOrder {
        let (intra, cross) = partition_contributions(g, &part_of, &order, members.len());
        PartitionedOrder {
            order: Arc::new(order),
            part_of: Arc::new(part_of),
            members: Arc::new(members),
            ranges: Arc::new(ranges),
            intra: Arc::new(intra),
            cross,
        }
    }

    /// The processing order itself.
    pub fn order(&self) -> &Permutation {
        &self.order
    }

    /// Consumes self, returning just the order (shared with any
    /// outstanding clones, so this only copies when a snapshot is still
    /// alive elsewhere).
    pub fn into_order(self) -> Permutation {
        Arc::try_unwrap(self.order).unwrap_or_else(|arc| (*arc).clone())
    }

    /// The order behind its sharing handle — the zero-copy way to hold
    /// onto the order of a snapshot.
    pub fn order_arc(&self) -> Arc<Permutation> {
        Arc::clone(&self.order)
    }

    /// True when `self` and `other` share the same backing arrays (one
    /// is a `clone` of the other).
    pub fn shares_storage_with(&self, other: &PartitionedOrder) -> bool {
        Arc::ptr_eq(&self.order, &other.order)
            && Arc::ptr_eq(&self.part_of, &other.part_of)
            && Arc::ptr_eq(&self.members, &other.members)
            && Arc::ptr_eq(&self.ranges, &other.ranges)
            && Arc::ptr_eq(&self.intra, &other.intra)
    }

    /// Number of partitions.
    pub fn num_parts(&self) -> usize {
        self.members.len()
    }

    /// Partition of `v`, or `None` for hubs / isolated vertices.
    pub fn part_of(&self, v: VertexId) -> Option<u32> {
        match self.part_of[v as usize] {
            UNPARTITIONED => None,
            p => Some(p),
        }
    }

    /// Partition `p`'s vertices in within-partition rank order.
    pub fn members(&self, p: u32) -> &[VertexId] {
        &self.members[p as usize]
    }

    /// The contiguous `[start, end)` span partition `p` occupies among
    /// the **residual ranks** — positions counted over partitioned
    /// vertices only, skipping the hubs phase 5 interleaves into the
    /// final order.
    pub fn rank_range(&self, p: u32) -> (usize, usize) {
        self.ranges[p as usize]
    }

    /// Partition `p`'s intra-partition metric contribution at
    /// construction time.
    pub fn intra_contribution(&self, p: u32) -> PartitionContribution {
        self.intra[p as usize]
    }

    /// The cross bucket: cross-partition edges plus everything incident
    /// to hubs and isolated vertices.
    pub fn cross_contribution(&self) -> PartitionContribution {
        self.cross
    }

    /// Overall `M(O) / |E|` over non-self-loop edges, reassembled from
    /// the buckets.
    pub fn positive_fraction(&self) -> f64 {
        let positive: usize =
            self.intra.iter().map(|c| c.positive).sum::<usize>() + self.cross.positive;
        let total: usize = self.intra.iter().map(|c| c.total).sum::<usize>() + self.cross.total;
        PartitionContribution { positive, total }.fraction()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gograph::GoGraph;
    use crate::metric::metric_report;
    use gograph_graph::generators::{planted_partition, shuffle_labels, PlantedPartitionConfig};

    fn community_graph(seed: u64) -> CsrGraph {
        shuffle_labels(
            &planted_partition(PlantedPartitionConfig {
                num_vertices: 500,
                num_edges: 4000,
                communities: 6,
                p_intra: 0.85,
                gamma: 2.4,
                seed,
            }),
            seed ^ 0x77,
        )
    }

    #[test]
    fn partitioned_run_matches_plain_run() {
        let g = community_graph(3);
        let go = GoGraph::default();
        let po = go.run_partitioned(&g);
        assert_eq!(po.order(), &go.run(&g), "run_partitioned changed the order");
    }

    #[test]
    fn buckets_reassemble_the_metric() {
        let g = community_graph(5);
        let po = GoGraph::default().run_partitioned(&g);
        let rep = metric_report(&g, po.order());
        let positive: usize = (0..po.num_parts() as u32)
            .map(|p| po.intra_contribution(p).positive)
            .sum::<usize>()
            + po.cross_contribution().positive;
        let total: usize = (0..po.num_parts() as u32)
            .map(|p| po.intra_contribution(p).total)
            .sum::<usize>()
            + po.cross_contribution().total;
        assert_eq!(positive, rep.positive_edges);
        assert_eq!(total, rep.positive_edges + rep.negative_edges);
        assert!((po.positive_fraction() - positive as f64 / total as f64).abs() < 1e-12);
    }

    #[test]
    fn ranges_are_contiguous_and_cover_residuals() {
        let g = community_graph(7);
        let po = GoGraph::default().run_partitioned(&g);
        let k = po.num_parts();
        assert!(k > 1, "planted graph should split into multiple parts");
        // Ranges tile [0, residual_count) without gaps or overlaps.
        let mut ranges: Vec<(usize, usize)> = (0..k as u32).map(|p| po.rank_range(p)).collect();
        ranges.sort_unstable();
        let residual_total: usize = ranges.iter().map(|(s, e)| e - s).sum();
        let unpartitioned = (0..g.num_vertices() as u32)
            .filter(|&v| po.part_of(v).is_none())
            .count();
        assert_eq!(residual_total + unpartitioned, g.num_vertices());
        let mut cursor = 0;
        for (s, e) in ranges {
            assert_eq!(s, cursor, "ranges must tile contiguously");
            assert!(e >= s);
            cursor = e;
        }
        // Members really occupy their range: among residual vertices
        // ordered by final rank, partition labels are constant runs.
        let labels: Vec<u32> = (0..g.num_vertices())
            .map(|pos| po.order().vertex_at(pos))
            .filter_map(|v| po.part_of(v))
            .collect();
        let mut runs = 1;
        for w in labels.windows(2) {
            if w[0] != w[1] {
                runs += 1;
            }
        }
        assert_eq!(runs, k, "each partition must be one contiguous run");
        // members(p) are listed in rank order.
        for p in 0..k as u32 {
            let ms = po.members(p);
            assert_eq!(ms.len(), po.rank_range(p).1 - po.rank_range(p).0);
            for w in ms.windows(2) {
                assert!(po.order().position(w[0]) < po.order().position(w[1]));
            }
        }
    }

    #[test]
    fn contributions_skip_self_loops_and_split_cross() {
        let g = CsrGraph::from_edges(4, [(0u32, 0u32), (0, 1), (1, 0), (2, 3), (1, 2)]);
        let part_of = vec![0, 0, 1, 1];
        let order = Permutation::identity(4);
        let (intra, cross) = partition_contributions(&g, &part_of, &order, 2);
        // Partition 0: 0->1 positive, 1->0 negative; self-loop skipped.
        assert_eq!(
            intra[0],
            PartitionContribution {
                positive: 1,
                total: 2
            }
        );
        assert_eq!(
            intra[1],
            PartitionContribution {
                positive: 1,
                total: 1
            }
        );
        // Cross: 1->2 positive.
        assert_eq!(
            cross,
            PartitionContribution {
                positive: 1,
                total: 1
            }
        );
        assert_eq!(PartitionContribution::default().fraction(), 1.0);
    }

    #[test]
    fn clone_is_a_storage_sharing_snapshot() {
        let g = community_graph(11);
        let po = GoGraph::default().run_partitioned(&g);
        let snap = po.clone();
        assert!(snap.shares_storage_with(&po));
        assert_eq!(snap.order(), po.order());
        // into_order with a live snapshot copies; without one it moves.
        let order_copy = po.clone().into_order();
        assert_eq!(&order_copy, snap.order());
        let sole = GoGraph::default().run_partitioned(&g);
        let expected = sole.order().clone();
        assert_eq!(sole.into_order(), expected);
    }

    #[test]
    fn empty_graph_partitioned_order() {
        let po = GoGraph::default().run_partitioned(&CsrGraph::empty(0));
        assert_eq!(po.num_parts(), 0);
        assert_eq!(po.order().len(), 0);
        assert_eq!(po.positive_fraction(), 1.0);
    }
}
