//! Compressed sparse row (CSR) storage for directed weighted graphs.
//!
//! Both the out-adjacency (`v -> w`) and the in-adjacency (`u -> v`,
//! indexed by `v`) are materialized: asynchronous iterative engines gather
//! from *in-neighbors* (paper Eq. 2), while reordering methods and
//! traversals scan out-neighbors. Neighbor lists are sorted by vertex id,
//! which makes `has_edge` a binary search and keeps all downstream
//! algorithms deterministic.
//!
//! A graph lives in one of two storage backends behind `CsrStorage`:
//!
//! - **Uncompressed** — each direction's rows cut into fixed-height
//!   **row blocks** of [`BLOCK_ROWS`] rows, each block one `Arc` holding
//!   block-local offsets, neighbor ids and weights. The default, and the
//!   only backend the reordering pipeline accepts. A batch of updates
//!   ([`CsrGraph::apply_updates`]) re-splices only the blocks it touches
//!   and shares every other block with its input, so successive versions
//!   of an evolving graph share every row a batch left alone;
//! - **Compressed** — per-vertex delta-varint neighbor blocks
//!   ([`crate::compressed`]) sharded by contiguous vertex ranges, at a
//!   few bytes per edge after a locality-improving reorder. Produced by
//!   [`CsrGraph::compress`]; the engines decode rows on the fly, so
//!   iterative algorithms run without ever materializing the flat
//!   adjacency.
//!
//! Slice-returning accessors ([`CsrGraph::out_neighbors`],
//! [`CsrGraph::in_rows`], …) require uncompressed storage and panic
//! otherwise; streaming accessors ([`CsrGraph::in_edges`],
//! [`CsrGraph::out_edges`], [`CsrGraph::for_each_out_neighbor`], …) work
//! on both backends.

use crate::builder::GraphBuilder;
use crate::compressed::CompressedAdjacency;
use crate::permutation::Permutation;
use crate::types::{Direction, Edge, EdgeUpdate, VertexId, Weight};
use std::sync::Arc;

/// Vertices per shard when [`CsrGraph::compress`] picks boundaries
/// itself (callers with a partition pass theirs to
/// [`CsrGraph::compress_with_shards`]).
const DEFAULT_SHARD_VERTICES: usize = 1 << 16;

/// Upper bound on auto-picked shard count.
const MAX_DEFAULT_SHARDS: usize = 64;

/// `log2` of [`BLOCK_ROWS`].
const BLOCK_SHIFT: u32 = 6;

/// Rows per row block: row `v` of each direction lives in block
/// `v >> BLOCK_SHIFT`, and only the last block may hold fewer.
///
/// The height trades the two costs a block adds. A batch re-splices
/// every block it touches whole and copies one `Arc` per block of the
/// table, so a smaller block makes a patch copy fewer rows; a larger one
/// makes the table shorter. A kernel pays one block lookup per vertex,
/// never per edge, so the sweep rate hardly moves with the height.
/// Measured at 32 / 64 / 128 rows on a 131 072-vertex, 725 k-edge
/// planted-partition graph (the benchmark's `batch_flat` shape; medians
/// of three runs on a shared 2-core machine): a 32-update
/// `apply_updates` took 0.27 / 0.20 / 0.25 ms, and a full in-row sweep
/// ran at 209 / 238 / 200 Medges/s. Both costs are flat across the
/// range — the patch is dominated by the out-degree copy, and the
/// differences are within run-to-run noise — so the height is the
/// middle one: half the table of 32, and half the rows copied per
/// touched block of 128.
pub const BLOCK_ROWS: usize = 1 << BLOCK_SHIFT;

/// A directed, weighted graph in CSR form with both adjacency directions.
///
/// Construct via [`GraphBuilder`], [`CsrGraph::from_edges`], or a generator
/// in [`crate::generators`].
///
/// A `CsrGraph` is immutable once built (every "mutation" —
/// [`CsrGraph::apply_updates`], [`CsrGraph::relabeled`] — produces a new
/// graph), so **`clone` is O(1)**: it shares storage instead of
/// deep-copying. On uncompressed storage a graph is one table of row
/// blocks per direction plus the out-degree array, each block behind
/// its own [`Arc`]. [`CsrGraph::apply_updates`] builds new blocks only
/// where the batch lands and shares every other block with its input:
/// that is what makes publishing an epoch snapshot of an evolving graph
/// cheap, and what lets many pinned versions cost one graph plus the
/// blocks their batches rewrote — see [`CsrGraph::snapshot`] and
/// [`CsrGraph::shared_bytes_with`].
///
/// The block cut depends only on the vertex count, so equal graphs have
/// equal layouts and `==` compares content however either was built.
///
/// ```
/// use gograph_graph::CsrGraph;
/// let g = CsrGraph::from_edges(3, [(0u32, 1u32), (1, 2), (0, 2)]);
/// assert_eq!(g.out_neighbors(0), &[1, 2]);
/// assert_eq!(g.in_neighbors(2), &[0, 1]);
/// assert_eq!(g.num_edges(), 3);
/// let c = g.compress();
/// assert!(c.is_compressed());
/// assert_eq!(c.in_edges(2).collect::<Vec<_>>(), g.in_edges(2).collect::<Vec<_>>());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    num_vertices: usize,
    /// Cached per-vertex out-degrees. Engines read `out_degree(u)` once
    /// per *edge* (PageRank-family normalization), so serving it from one
    /// contiguous array instead of a block lookup matters in the gather
    /// inner loop. Present for both backends (compressed rows are
    /// degree-delimited, so this array is load-bearing there too).
    out_degrees: Arc<Vec<u32>>,
    storage: CsrStorage,
}

/// The two storage backends of a [`CsrGraph`].
#[derive(Debug, Clone, PartialEq)]
enum CsrStorage {
    Uncompressed(BlockCsr),
    Compressed(CompressedCsr),
}

/// One direction's rows, block by block.
type BlockTable = Arc<Vec<Arc<RowBlock>>>;

/// The row-block tables of both directions (the uncompressed backend).
#[derive(Debug, Clone, PartialEq)]
struct BlockCsr {
    num_edges: usize,
    out: BlockTable,
    inc: BlockTable,
}

/// Up to [`BLOCK_ROWS`] consecutive rows of one direction: row `r` of
/// the block is `ids[offsets[r]..offsets[r + 1]]`, sorted ascending,
/// with `weights` parallel to `ids`. The offsets live inline, in the
/// block's own allocation, and entries past `rows` repeat the end: a
/// row lookup is one load from the block, with no bounds check.
#[derive(Debug, PartialEq)]
struct RowBlock {
    rows: usize,
    offsets: [u32; BLOCK_ROWS + 1],
    ids: Vec<VertexId>,
    weights: Vec<Weight>,
}

impl RowBlock {
    /// A block of `offsets.len() - 1` rows.
    fn new(offsets: &[u32], ids: Vec<VertexId>, weights: Vec<Weight>) -> RowBlock {
        let rows = offsets.len() - 1;
        let mut inline = [offsets[rows]; BLOCK_ROWS + 1];
        inline[..=rows].copy_from_slice(offsets);
        RowBlock {
            rows,
            offsets: inline,
            ids,
            weights,
        }
    }

    /// The offsets of the block's rows (`rows + 1` entries).
    fn row_offsets(&self) -> &[u32] {
        &self.offsets[..=self.rows]
    }

    /// Bytes of the ids and offsets.
    fn structure_bytes(&self) -> usize {
        std::mem::size_of_val(&self.offsets) + self.ids.capacity() * std::mem::size_of::<u32>()
    }

    fn weight_bytes(&self) -> usize {
        self.weights.capacity() * std::mem::size_of::<Weight>()
    }
}

/// Heap bytes of a block table: its pointers plus every block.
fn table_bytes(table: &BlockTable) -> usize {
    table.capacity() * std::mem::size_of::<Arc<RowBlock>>()
        + table
            .iter()
            .map(|b| b.structure_bytes() + b.weight_bytes())
            .sum::<usize>()
}

/// Heap bytes of `a` that are the very allocations of `b`: the whole
/// table when it is the same one, else every block both hold at the
/// same index.
fn shared_table_bytes(a: &BlockTable, b: &BlockTable) -> usize {
    if Arc::ptr_eq(a, b) {
        return table_bytes(a);
    }
    a.iter()
        .zip(b.iter())
        .filter(|(x, y)| Arc::ptr_eq(x, y))
        .map(|(x, _)| x.structure_bytes() + x.weight_bytes())
        .sum()
}

/// One direction's row blocks filled edge by edge from known row
/// degrees: every block is allocated at its exact size up front.
struct BlockFill {
    blocks: Vec<RowBlock>,
    /// Next free block-local slot of each row.
    cursor: Vec<u32>,
}

impl BlockFill {
    fn new(degrees: &[u32]) -> BlockFill {
        let mut cursor = Vec::with_capacity(degrees.len());
        let mut blocks = degrees
            .chunks(BLOCK_ROWS)
            .map(|degrees| {
                let mut offsets = Vec::with_capacity(degrees.len() + 1);
                let mut end = 0u32;
                offsets.push(end);
                for &d in degrees {
                    cursor.push(end);
                    end = end.checked_add(d).expect("row block exceeds u32 offsets");
                    offsets.push(end);
                }
                RowBlock::new(&offsets, Vec::new(), Vec::new())
            })
            .collect::<Vec<RowBlock>>();
        // Every block's ids first, then every block's weights: allocated
        // in this order, the ids of consecutive blocks lie next to each
        // other as a flat array's would, and a sweep over the rows
        // streams through them (weights in between would triple the
        // span it walks).
        for b in &mut blocks {
            b.ids = vec![0; b.offsets[BLOCK_ROWS] as usize];
        }
        for b in &mut blocks {
            b.weights = vec![0.0; b.ids.len()];
        }
        BlockFill { blocks, cursor }
    }

    /// Appends `(id, weight)` to `row`; rows must receive their
    /// neighbors in ascending order.
    #[inline]
    fn push(&mut self, row: VertexId, id: VertexId, weight: Weight) {
        let row = row as usize;
        let slot = self.cursor[row] as usize;
        self.cursor[row] += 1;
        let block = &mut self.blocks[row >> BLOCK_SHIFT];
        block.ids[slot] = id;
        block.weights[slot] = weight;
    }

    fn finish(self) -> BlockTable {
        Arc::new(self.blocks.into_iter().map(Arc::new).collect())
    }
}

/// Prefix-sum of a degree array back into CSR offsets.
fn offsets_from_degrees(degrees: &[u32]) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(degrees.len() + 1);
    let mut acc = 0usize;
    offsets.push(0);
    for &d in degrees {
        acc += d as usize;
        offsets.push(acc);
    }
    offsets
}

/// One direction's weights concatenated row by row — the flat weight
/// stream a compressed graph keeps beside each direction.
fn concat_weights(table: &BlockTable) -> Vec<Weight> {
    table
        .iter()
        .flat_map(|b| b.weights.iter().copied())
        .collect()
}

/// The block table of one adjacency direction with `overrides` spliced
/// in, grown to `num_rows` rows. `overrides` holds `(row, neighbor,
/// state)` sorted by `(row, neighbor)` with each pair at most once and
/// every row below `num_rows`; `Some(w)` sets the pair's weight, `None`
/// drops the pair. A block no override lands in and whose row count
/// stays the same is shared with `blocks`; every other block is
/// re-spliced by [`splice_rows`].
fn splice_blocks(
    num_rows: usize,
    blocks: &[Arc<RowBlock>],
    overrides: &[(VertexId, VertexId, Option<Weight>)],
) -> BlockTable {
    let mut i = 0;
    let table = (0..num_rows.div_ceil(BLOCK_ROWS))
        .map(|b| {
            let base = b << BLOCK_SHIFT;
            let rows = BLOCK_ROWS.min(num_rows - base);
            let start = i;
            while i < overrides.len() && (overrides[i].0 as usize) < base + rows {
                i += 1;
            }
            match blocks.get(b) {
                Some(old) if start == i && old.rows == rows => Arc::clone(old),
                old => {
                    let (offsets, ids, weights) = match old {
                        Some(o) => (o.row_offsets(), &o.ids[..], &o.weights[..]),
                        None => (&[0u32][..], &[][..], &[][..]),
                    };
                    Arc::new(splice_rows(
                        rows,
                        base,
                        offsets,
                        ids,
                        weights,
                        &overrides[start..i],
                    ))
                }
            }
        })
        .collect();
    Arc::new(table)
}

/// One row block with `overrides` spliced in, grown to `num_rows`
/// rows. Rows are block-local: override row `r` is block row
/// `r - base`. Spans of rows between overridden rows are copied whole;
/// an overridden row is merged neighbor by neighbor.
fn splice_rows(
    num_rows: usize,
    base: usize,
    offsets: &[u32],
    ids: &[VertexId],
    weights: &[Weight],
    overrides: &[(VertexId, VertexId, Option<Weight>)],
) -> RowBlock {
    let old_rows = offsets.len() - 1;
    let mut new_offsets: Vec<u32> = Vec::with_capacity(num_rows + 1);
    let mut new_ids = Vec::with_capacity(ids.len() + overrides.len());
    let mut new_weights = Vec::with_capacity(ids.len() + overrides.len());
    let mut i = 0;
    loop {
        // Rows up to the next overridden one (or the end) are unchanged;
        // those past the old row count are empty.
        let row = overrides.get(i).map_or(num_rows, |o| o.0 as usize - base);
        let from = new_offsets.len();
        let old_upto = row.min(old_rows);
        if from < old_upto {
            let (s, e) = (offsets[from] as usize, offsets[old_upto] as usize);
            let shifted = new_ids.len() as u32;
            new_offsets.extend(
                offsets[from..old_upto]
                    .iter()
                    .map(|&o| shifted + (o - s as u32)),
            );
            new_ids.extend_from_slice(&ids[s..e]);
            new_weights.extend_from_slice(&weights[s..e]);
        }
        new_offsets.resize(row, new_ids.len() as u32);
        if i == overrides.len() {
            break;
        }
        new_offsets.push(new_ids.len() as u32);
        let (mut k, e) = if row < old_rows {
            (offsets[row] as usize, offsets[row + 1] as usize)
        } else {
            (0, 0)
        };
        while i < overrides.len() && overrides[i].0 as usize - base == row {
            let (_, neighbor, state) = overrides[i];
            let upto = k + ids[k..e].partition_point(|&x| x < neighbor);
            new_ids.extend_from_slice(&ids[k..upto]);
            new_weights.extend_from_slice(&weights[k..upto]);
            k = upto;
            if k < e && ids[k] == neighbor {
                k += 1;
            }
            if let Some(w) = state {
                new_ids.push(neighbor);
                new_weights.push(w);
            }
            i += 1;
        }
        new_ids.extend_from_slice(&ids[k..e]);
        new_weights.extend_from_slice(&weights[k..e]);
    }
    let end = u32::try_from(new_ids.len()).expect("row block exceeds u32 offsets");
    new_offsets.push(end);
    RowBlock::new(&new_offsets, new_ids, new_weights)
}

/// A borrowed view of one adjacency direction of an uncompressed
/// [`CsrGraph`], row by row — what the engines' gather and scatter
/// kernels walk ([`CsrGraph::in_rows`], [`CsrGraph::out_rows`]). A row
/// never spans two blocks, so reading one costs a single block lookup
/// and then plain slices.
#[derive(Debug, Clone, Copy)]
pub struct Rows<'g> {
    blocks: &'g [Arc<RowBlock>],
}

impl<'g> Rows<'g> {
    /// The block holding `v` and `v`'s span in it.
    #[inline(always)]
    fn span(self, v: VertexId) -> (&'g RowBlock, usize, usize) {
        let v = v as usize;
        let block = &*self.blocks[v >> BLOCK_SHIFT];
        let r = v & (BLOCK_ROWS - 1);
        debug_assert!(r < block.rows, "vertex {v} out of range");
        (
            block,
            block.offsets[r] as usize,
            block.offsets[r + 1] as usize,
        )
    }

    /// The neighbor ids of `v`, sorted ascending.
    #[inline(always)]
    pub fn ids(self, v: VertexId) -> &'g [VertexId] {
        let (block, s, e) = self.span(v);
        &block.ids[s..e]
    }

    /// The neighbor ids of `v` and the weights parallel to them.
    #[inline(always)]
    pub fn row(self, v: VertexId) -> (&'g [VertexId], &'g [Weight]) {
        let (block, s, e) = self.span(v);
        (&block.ids[s..e], &block.weights[s..e])
    }
}

/// Delta-varint compressed backend: both adjacency directions as sharded
/// byte blocks, plus flat weight streams when the graph is weighted.
/// Unit-weight graphs (every weight exactly `1.0`) drop the weight
/// streams entirely — engines substitute the constant — which is where
/// the order-of-magnitude footprint win comes from on generated graphs.
#[derive(Debug, Clone, PartialEq)]
struct CompressedCsr {
    out: Arc<CompressedAdjacency>,
    inc: Arc<CompressedAdjacency>,
    weights: Option<Arc<WeightStreams>>,
}

/// Flat per-direction weight arrays for a compressed graph, indexed by
/// degree-prefix offsets (weights compress poorly, so they stay as f64
/// streams parallel to the *decoded* neighbor order).
#[derive(Debug, Clone, PartialEq)]
struct WeightStreams {
    out_offsets: Arc<Vec<usize>>,
    out_weights: Arc<Vec<Weight>>,
    in_offsets: Arc<Vec<usize>>,
    in_weights: Arc<Vec<Weight>>,
}

/// `(neighbor, weight)` stream over either backend: borrowed zip of the
/// row slices, or a decoded row buffer for compressed storage.
enum EdgePairs<'g> {
    Flat(
        std::iter::Zip<
            std::iter::Copied<std::slice::Iter<'g, VertexId>>,
            std::iter::Copied<std::slice::Iter<'g, Weight>>,
        >,
    ),
    Decoded(std::vec::IntoIter<(VertexId, Weight)>),
}

impl Iterator for EdgePairs<'_> {
    type Item = (VertexId, Weight);

    #[inline]
    fn next(&mut self) -> Option<(VertexId, Weight)> {
        match self {
            EdgePairs::Flat(it) => it.next(),
            EdgePairs::Decoded(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            EdgePairs::Flat(it) => it.size_hint(),
            EdgePairs::Decoded(it) => it.size_hint(),
        }
    }
}

impl<'g> EdgePairs<'g> {
    fn of_row((ids, weights): (&'g [VertexId], &'g [Weight])) -> Self {
        EdgePairs::Flat(ids.iter().copied().zip(weights.iter().copied()))
    }
}

/// Decodes one compressed row into `(neighbor, weight)` pairs.
fn decoded_pairs(
    adj: &CompressedAdjacency,
    weights: Option<(&[usize], &[Weight])>,
    v: VertexId,
) -> Vec<(VertexId, Weight)> {
    let ids = adj.decode_row(v);
    match weights {
        Some((offsets, ws)) => {
            let s = offsets[v as usize];
            ids.into_iter().zip(ws[s..].iter().copied()).collect()
        }
        None => ids.into_iter().map(|w| (w, 1.0)).collect(),
    }
}

impl CsrGraph {
    /// Assembles an uncompressed graph from its two block tables.
    fn from_blocks(
        num_edges: usize,
        out: BlockTable,
        inc: BlockTable,
        out_degrees: Arc<Vec<u32>>,
    ) -> CsrGraph {
        CsrGraph {
            num_vertices: out_degrees.len(),
            out_degrees,
            storage: CsrStorage::Uncompressed(BlockCsr {
                num_edges,
                out,
                inc,
            }),
        }
    }

    /// Builds a graph with `n` vertices from edges that come sorted by
    /// `(src, dst)` with no pair twice, writing both directions' row
    /// blocks at their exact sizes: one counting pass, one fill pass.
    /// Shared by [`GraphBuilder::build`],
    /// [`CsrGraph::induced_subgraph_with_threads`], the binary decoder
    /// and the RMAT generator, whose edges come out pre-sorted.
    pub(crate) fn from_sorted_edges<I>(n: usize, edges: I) -> CsrGraph
    where
        I: Iterator<Item = Edge> + Clone,
    {
        let mut out_degrees = vec![0u32; n];
        let mut in_degrees = vec![0u32; n];
        let mut m = 0usize;
        for e in edges.clone() {
            out_degrees[e.src as usize] += 1;
            in_degrees[e.dst as usize] += 1;
            m += 1;
        }
        // Within a row the neighbors arrive ascending in both
        // directions, because the edges are sorted by `(src, dst)`.
        let mut out = BlockFill::new(&out_degrees);
        let mut inc = BlockFill::new(&in_degrees);
        for e in edges {
            out.push(e.src, e.dst, e.weight);
            inc.push(e.dst, e.src, e.weight);
        }
        CsrGraph::from_blocks(m, out.finish(), inc.finish(), Arc::new(out_degrees))
    }

    /// Reassembles a compressed graph from deserialized adjacencies (the
    /// [`crate::io`] loader). `weights` carries `(out_order, in_order)`
    /// flat weight streams, or `None` for a unit-weight graph. Structural
    /// consistency is checked here; callers must have run
    /// [`CompressedAdjacency::validate`] on both directions first.
    pub(crate) fn from_compressed_adjacency(
        out: CompressedAdjacency,
        inc: CompressedAdjacency,
        weights: Option<(Vec<Weight>, Vec<Weight>)>,
    ) -> Result<CsrGraph, String> {
        if out.num_vertices() != inc.num_vertices() {
            return Err("adjacency direction vertex counts differ".into());
        }
        if out.num_targets() != inc.num_targets() {
            return Err("adjacency direction edge counts differ".into());
        }
        let weights = match weights {
            Some((ow, iw)) => {
                if ow.len() != out.num_targets() || iw.len() != inc.num_targets() {
                    return Err("weight stream length mismatch".into());
                }
                Some(Arc::new(WeightStreams {
                    out_offsets: Arc::new(offsets_from_degrees(out.degrees())),
                    out_weights: Arc::new(ow),
                    in_offsets: Arc::new(offsets_from_degrees(inc.degrees())),
                    in_weights: Arc::new(iw),
                }))
            }
            None => None,
        };
        Ok(CsrGraph {
            num_vertices: out.num_vertices(),
            out_degrees: out.degrees_arc(),
            storage: CsrStorage::Compressed(CompressedCsr {
                out: Arc::new(out),
                inc: Arc::new(inc),
                weights,
            }),
        })
    }

    /// Builds a graph with `num_vertices` vertices from an edge list.
    /// Duplicate edges are deduplicated (keeping the smallest weight) and
    /// self-loops are preserved.
    pub fn from_edges<I, E>(num_vertices: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = E>,
        E: Into<Edge>,
    {
        let mut b = GraphBuilder::with_capacity(num_vertices, 0);
        for e in edges {
            b.add_edge_struct(e.into());
        }
        b.build()
    }

    /// An empty graph with `num_vertices` vertices and no edges.
    pub fn empty(num_vertices: usize) -> Self {
        CsrGraph::from_sorted_edges(num_vertices, std::iter::empty::<Edge>())
    }

    /// The block tables, or a panic on compressed storage — the shared
    /// guard behind every slice-returning accessor.
    #[inline]
    fn blocks(&self) -> &BlockCsr {
        match &self.storage {
            CsrStorage::Uncompressed(f) => f,
            CsrStorage::Compressed(_) => panic!(
                "operation requires flat (uncompressed) CSR storage; call decompress() first"
            ),
        }
    }

    /// An O(1) storage-sharing copy of the graph — the epoch-publication
    /// entry point. Since `CsrGraph` is immutable, this is exactly
    /// `clone()`; the named method exists to make call sites that *rely*
    /// on sharing (instead of merely tolerating a copy) self-documenting.
    /// A snapshot taken before [`CsrGraph::apply_updates`] goes on
    /// sharing every row block the batch did not touch with the graph
    /// the batch produced.
    #[inline]
    pub fn snapshot(&self) -> CsrGraph {
        self.clone()
    }

    /// True when `self` and `other` share every block of storage: on
    /// uncompressed storage, both directions hold the very same row
    /// blocks at every index (one is a [`CsrGraph::snapshot`] of the
    /// other, or an update batch that touched no block lies between
    /// them). Graphs on different backends never share.
    pub fn shares_storage_with(&self, other: &CsrGraph) -> bool {
        match (&self.storage, &other.storage) {
            (CsrStorage::Uncompressed(a), CsrStorage::Uncompressed(b)) => {
                let same = |x: &BlockTable, y: &BlockTable| {
                    x.len() == y.len() && x.iter().zip(y.iter()).all(|(p, q)| Arc::ptr_eq(p, q))
                };
                same(&a.out, &b.out) && same(&a.inc, &b.inc)
            }
            (CsrStorage::Compressed(a), CsrStorage::Compressed(b)) => {
                a.out.shares_storage_with(&b.out)
                    && a.inc.shares_storage_with(&b.inc)
                    && match (&a.weights, &b.weights) {
                        (Some(x), Some(y)) => Arc::ptr_eq(x, y),
                        (None, None) => true,
                        _ => false,
                    }
            }
            _ => false,
        }
    }

    /// Heap bytes of `self`'s storage that are the very allocations of
    /// `other`'s — the part of [`CsrGraph::memory_bytes`] that holding
    /// both costs only once. `g.shared_bytes_with(&g) ==
    /// g.memory_bytes()`; on uncompressed storage a block counts when
    /// both graphs hold it at the same index of the same direction.
    /// Graphs on different backends share nothing.
    pub fn shared_bytes_with(&self, other: &CsrGraph) -> usize {
        match (&self.storage, &other.storage) {
            (CsrStorage::Uncompressed(a), CsrStorage::Uncompressed(b)) => {
                let degrees = if Arc::ptr_eq(&self.out_degrees, &other.out_degrees) {
                    self.out_degrees.capacity() * std::mem::size_of::<u32>()
                } else {
                    0
                };
                degrees + shared_table_bytes(&a.out, &b.out) + shared_table_bytes(&a.inc, &b.inc)
            }
            (CsrStorage::Compressed(a), CsrStorage::Compressed(b)) => {
                let adjacency = |x: &CompressedAdjacency, y: &CompressedAdjacency| {
                    if x.shares_storage_with(y) {
                        x.memory_bytes()
                    } else {
                        0
                    }
                };
                let weights = match (&a.weights, &b.weights) {
                    (Some(x), Some(y)) if Arc::ptr_eq(x, y) => self.weight_bytes(),
                    _ => 0,
                };
                adjacency(&a.out, &b.out) + adjacency(&a.inc, &b.inc) + weights
            }
            _ => 0,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        match &self.storage {
            CsrStorage::Uncompressed(f) => f.num_edges,
            CsrStorage::Compressed(c) => c.out.num_targets(),
        }
    }

    /// Iterator over all vertex ids `0..n`.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices as VertexId
    }

    /// The out-rows, block by block — the engines' push (scatter)
    /// kernels read these. Flat storage only.
    ///
    /// # Panics
    /// Panics on compressed storage.
    #[inline]
    pub fn out_rows(&self) -> Rows<'_> {
        Rows {
            blocks: &self.blocks().out,
        }
    }

    /// The in-rows, block by block — the engines' gather kernels read
    /// these. Flat storage only.
    ///
    /// # Panics
    /// Panics on compressed storage.
    #[inline]
    pub fn in_rows(&self) -> Rows<'_> {
        Rows {
            blocks: &self.blocks().inc,
        }
    }

    /// Out-neighbors of `v`, sorted ascending.
    ///
    /// # Panics
    /// Panics on compressed storage (no flat slice exists to borrow);
    /// use [`CsrGraph::for_each_out_neighbor`] or
    /// [`CsrGraph::out_edges`] there.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.out_rows().ids(v)
    }

    /// Weights parallel to [`CsrGraph::out_neighbors`]. Flat storage only.
    #[inline]
    pub fn out_weights(&self, v: VertexId) -> &[Weight] {
        self.out_rows().row(v).1
    }

    /// In-neighbors of `v` (sources of edges into `v`), sorted ascending.
    /// Flat storage only (see [`CsrGraph::out_neighbors`]).
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.in_rows().ids(v)
    }

    /// Weights parallel to [`CsrGraph::in_neighbors`]. Flat storage only.
    #[inline]
    pub fn in_weights(&self, v: VertexId) -> &[Weight] {
        self.in_rows().row(v).1
    }

    /// Neighbors of `v` in the given direction. Flat storage only.
    #[inline]
    pub fn neighbors(&self, v: VertexId, dir: Direction) -> &[VertexId] {
        match dir {
            Direction::Out => self.out_neighbors(v),
            Direction::In => self.in_neighbors(v),
        }
    }

    /// Calls `f` for every out-neighbor of `v` in ascending order, on
    /// either backend — the storage-agnostic replacement for iterating
    /// [`CsrGraph::out_neighbors`] in engine frontier-expansion loops.
    #[inline]
    pub fn for_each_out_neighbor<F: FnMut(VertexId)>(&self, v: VertexId, mut f: F) {
        match &self.storage {
            CsrStorage::Uncompressed(_) => {
                for &w in self.out_neighbors(v) {
                    f(w);
                }
            }
            CsrStorage::Compressed(c) => c.out.for_each(v, f),
        }
    }

    /// Calls `f` for every in-neighbor of `v` in ascending order, on
    /// either backend.
    #[inline]
    pub fn for_each_in_neighbor<F: FnMut(VertexId)>(&self, v: VertexId, mut f: F) {
        match &self.storage {
            CsrStorage::Uncompressed(_) => {
                for &w in self.in_neighbors(v) {
                    f(w);
                }
            }
            CsrStorage::Compressed(c) => c.inc.for_each(v, f),
        }
    }

    /// Out-degree of `v` (served from the cached degree array: one load
    /// instead of a row lookup).
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out_degrees[v as usize] as usize
    }

    /// Cached per-vertex out-degrees, indexed by vertex id. The engines'
    /// gather kernels read this array directly instead of calling
    /// [`CsrGraph::out_degree`] per edge.
    #[inline]
    pub fn out_degrees(&self) -> &[u32] {
        &self.out_degrees
    }

    /// In-edges of `v` as a zipped `(source, weight)` iterator — one
    /// logical stream for gather loops instead of two parallel slices.
    /// Works on both backends (compressed rows are decoded into a
    /// buffer; hot paths use the engine contexts instead).
    #[inline]
    pub fn in_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        match &self.storage {
            CsrStorage::Uncompressed(_) => EdgePairs::of_row(self.in_rows().row(v)),
            CsrStorage::Compressed(c) => EdgePairs::Decoded(
                decoded_pairs(&c.inc, self.compressed_in_weight_streams(), v).into_iter(),
            ),
        }
    }

    /// Out-edges of `v` as a zipped `(target, weight)` iterator — the
    /// push-direction counterpart of [`CsrGraph::in_edges`]. Works on
    /// both backends.
    #[inline]
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        match &self.storage {
            CsrStorage::Uncompressed(_) => EdgePairs::of_row(self.out_rows().row(v)),
            CsrStorage::Compressed(c) => EdgePairs::Decoded(
                decoded_pairs(&c.out, self.compressed_out_weight_streams(), v).into_iter(),
            ),
        }
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        match &self.storage {
            CsrStorage::Uncompressed(_) => self.in_neighbors(v).len(),
            CsrStorage::Compressed(c) => c.inc.degree(v),
        }
    }

    /// Total degree (in + out) of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.out_degree(v) + self.in_degree(v)
    }

    /// True if the directed edge `(u, v)` exists.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.edge_weight(u, v).is_some()
    }

    /// Weight of edge `(u, v)` if present.
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        match &self.storage {
            CsrStorage::Uncompressed(_) => {
                let (ids, weights) = self.out_rows().row(u);
                ids.binary_search(&v).ok().map(|i| weights[i])
            }
            CsrStorage::Compressed(c) => {
                let mut hit: Option<usize> = None;
                let mut i = 0usize;
                c.out.for_each(u, |w| {
                    if w == v {
                        hit = Some(i);
                    }
                    i += 1;
                });
                hit.map(|i| match &c.weights {
                    Some(ws) => ws.out_weights[ws.out_offsets[u as usize] + i],
                    None => 1.0,
                })
            }
        }
    }

    /// Iterator over all edges in CSR (source-major) order. Works on both
    /// backends.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.num_vertices as VertexId)
            .flat_map(move |u| self.out_edges(u).map(move |(w, wt)| Edge::new(u, w, wt)))
    }

    /// Average degree `|E| / |V|`.
    pub fn average_degree(&self) -> f64 {
        if self.num_vertices == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices as f64
        }
    }

    /// The transposed graph (every edge reversed). The adjacency storage
    /// is shared with `self` (swapped roles), not copied; only the
    /// degree cache is swapped/recomputed. Works on both backends.
    pub fn reversed(&self) -> CsrGraph {
        match &self.storage {
            CsrStorage::Uncompressed(f) => {
                let out_degrees = f
                    .inc
                    .iter()
                    .flat_map(|b| b.row_offsets().windows(2).map(|w| w[1] - w[0]))
                    .collect();
                CsrGraph::from_blocks(
                    f.num_edges,
                    Arc::clone(&f.inc),
                    Arc::clone(&f.out),
                    Arc::new(out_degrees),
                )
            }
            CsrStorage::Compressed(c) => CsrGraph {
                num_vertices: self.num_vertices,
                out_degrees: c.inc.degrees_arc(),
                storage: CsrStorage::Compressed(CompressedCsr {
                    out: Arc::clone(&c.inc),
                    inc: Arc::clone(&c.out),
                    weights: c.weights.as_ref().map(|w| {
                        Arc::new(WeightStreams {
                            out_offsets: Arc::clone(&w.in_offsets),
                            out_weights: Arc::clone(&w.in_weights),
                            in_offsets: Arc::clone(&w.out_offsets),
                            in_weights: Arc::clone(&w.out_weights),
                        })
                    }),
                }),
            },
        }
    }

    /// Relabels every vertex `v` to `perm.new_id(v)` and rebuilds the CSR.
    ///
    /// Applying the identity permutation returns an equal graph. After the
    /// call, vertex `perm.new_id(v)` has exactly the (relabeled) neighbors
    /// the old `v` had, so the result is isomorphic to `self`.
    ///
    /// Row by row: new row `i` is the old row of `perm.vertex_at(i)`,
    /// its neighbors mapped through `perm` and sorted, written straight
    /// into row blocks sized from the old degrees. The rows come out in
    /// `(src, dst)` order with no pair twice (`perm` is a bijection), so
    /// neither a sort of all `|E|` edges nor an edge list is needed. The
    /// result is always on the uncompressed backend;
    /// re-[`CsrGraph::compress`] afterwards if needed.
    ///
    /// # Panics
    /// Panics if `perm.len() != self.num_vertices()`.
    pub fn relabeled(&self, perm: &Permutation) -> CsrGraph {
        assert_eq!(
            perm.len(),
            self.num_vertices,
            "permutation length must match vertex count"
        );
        let degrees = |degree: fn(&CsrGraph, VertexId) -> usize| -> Vec<u32> {
            (perm.order().iter())
                .map(|&old| degree(self, old) as u32)
                .collect()
        };
        let out_degrees = degrees(CsrGraph::out_degree);
        let mut out = BlockFill::new(&out_degrees);
        let mut inc = BlockFill::new(&degrees(CsrGraph::in_degree));
        let mut row: Vec<(VertexId, Weight)> = Vec::new();
        for (src, &old) in (0..).zip(perm.order()) {
            row.clear();
            row.extend(self.out_edges(old).map(|(dst, w)| (perm.new_id(dst), w)));
            row.sort_unstable_by_key(|&(dst, _)| dst);
            for &(dst, weight) in &row {
                out.push(src, dst, weight);
                inc.push(dst, src, weight);
            }
        }
        CsrGraph::from_blocks(
            self.num_edges(),
            out.finish(),
            inc.finish(),
            Arc::new(out_degrees),
        )
    }

    /// Applies a batch of [`EdgeUpdate`]s, producing the updated graph.
    ///
    /// Updates are interpreted **sequentially**: a `Remove` followed by
    /// an `Insert` of the same pair re-adds the edge with the insert's
    /// weight, while an `Insert` of a surviving edge keeps the smaller of
    /// the old and new weights (the [`GraphBuilder`] duplicate
    /// convention, so a batch-updated graph equals a from-scratch build
    /// of the surviving edge set). Removing an absent edge is a no-op —
    /// also when an endpoint is beyond the vertex count, which a `Remove`
    /// never grows; insert endpoints beyond the current vertex count
    /// grow the graph.
    ///
    /// The batch is folded into per-pair overrides (`O(|U| log |U|)`)
    /// and spliced into each adjacency direction block by block: only
    /// the row blocks an override lands in (and the last block, when the
    /// graph grows) are rebuilt, merging the touched rows; every other
    /// block is the input's own `Arc`, shared. Beyond those blocks a
    /// batch copies the two block tables and the out-degree array, so
    /// it costs `O(|V| / BLOCK_ROWS + touched blocks)`, not
    /// `O(|V| + |E|)`, and the input and the result share every
    /// untouched row.
    ///
    /// The result is always on the uncompressed backend (a compressed
    /// input is decompressed first).
    pub fn apply_updates(&self, updates: &[EdgeUpdate]) -> CsrGraph {
        use std::collections::HashMap;
        let base = self.decompress();
        let f = base.blocks();
        let n_old = self.num_vertices;
        // Fold the batch into the final state of each touched pair:
        // `Some(w)` = present with weight `w`, `None` = absent.
        let mut overrides: HashMap<(VertexId, VertexId), Option<Weight>> =
            HashMap::with_capacity(updates.len());
        let mut num_vertices = n_old;
        for up in updates {
            match *up {
                EdgeUpdate::Insert { src, dst, weight } => {
                    num_vertices = num_vertices.max(src as usize + 1).max(dst as usize + 1);
                    let existing = if (src as usize) < n_old {
                        base.edge_weight(src, dst)
                    } else {
                        None
                    };
                    let slot = overrides.entry((src, dst)).or_insert(existing);
                    *slot = Some(match *slot {
                        Some(w0) => w0.min(weight),
                        None => weight,
                    });
                }
                EdgeUpdate::Remove { src, dst } => {
                    overrides.insert((src, dst), None);
                }
            }
        }
        // `(row, neighbor, state)` per direction, sorted. An absent pair
        // with an endpoint past the old vertex count names no edge and,
        // unlike an insert, no row either.
        let mut by_src: Vec<(VertexId, VertexId, Option<Weight>)> = overrides
            .into_iter()
            .filter(|&((src, dst), state)| {
                state.is_some() || ((src as usize) < n_old && (dst as usize) < n_old)
            })
            .map(|((src, dst), state)| (src, dst, state))
            .collect();
        by_src.sort_unstable_by_key(|&(src, dst, _)| (src, dst));
        let mut by_dst: Vec<(VertexId, VertexId, Option<Weight>)> = by_src
            .iter()
            .map(|&(src, dst, state)| (dst, src, state))
            .collect();
        by_dst.sort_unstable_by_key(|&(dst, src, _)| (dst, src));

        let out = splice_blocks(num_vertices, &f.out, &by_src);
        let inc = splice_blocks(num_vertices, &f.inc, &by_dst);
        let mut out_degrees = Vec::with_capacity(num_vertices);
        out_degrees.extend_from_slice(&base.out_degrees);
        out_degrees.resize(num_vertices, 0);
        let mut num_edges = f.num_edges;
        let rows = Rows { blocks: &out };
        for &(src, _, _) in &by_src {
            let d = rows.ids(src).len() as u32;
            let old = std::mem::replace(&mut out_degrees[src as usize], d);
            num_edges = num_edges - old as usize + d as usize;
        }
        CsrGraph::from_blocks(num_edges, out, inc, Arc::new(out_degrees))
    }

    /// Extracts the subgraph induced by `vertices`.
    ///
    /// Returns the subgraph (with vertices relabeled to `0..vertices.len()`
    /// in the given order) and the mapping `local -> global` (a copy of
    /// `vertices`). Flat storage only (reorder-pipeline internal).
    pub fn induced_subgraph(&self, vertices: &[VertexId]) -> (CsrGraph, Vec<VertexId>) {
        self.induced_subgraph_with_threads(vertices, 1)
    }

    /// [`CsrGraph::induced_subgraph`] with the per-vertex row filtering
    /// fanned out across `threads` pool workers.
    ///
    /// When `vertices` is ascending (every caller inside the GoGraph
    /// pipeline), relabeling is monotone, so the filtered rows are
    /// already in `(src, dst)` order and the CSR assembles without the
    /// builder's `O(|E| log |E|)` sort — sequentially too. Contiguous
    /// chunks concatenate in input order, so the result is identical at
    /// any thread count. Unsorted inputs keep the builder path.
    pub fn induced_subgraph_with_threads(
        &self,
        vertices: &[VertexId],
        threads: usize,
    ) -> (CsrGraph, Vec<VertexId>) {
        let rows = self.out_rows();
        let mut global_to_local = vec![VertexId::MAX; self.num_vertices];
        for (i, &v) in vertices.iter().enumerate() {
            debug_assert!(
                global_to_local[v as usize] == VertexId::MAX,
                "duplicate vertex in induced_subgraph"
            );
            global_to_local[v as usize] = i as VertexId;
        }
        let map = &global_to_local;
        // Each kept edge of `v`'s row, relabeled.
        let kept = move |v: VertexId| {
            let (ids, weights) = rows.row(v);
            let lv = map[v as usize];
            ids.iter().zip(weights).filter_map(move |(&w, &weight)| {
                let lw = map[w as usize];
                (lw != VertexId::MAX).then_some(Edge {
                    src: lv,
                    dst: lw,
                    weight,
                })
            })
        };
        let ascending = vertices.windows(2).all(|w| w[0] < w[1]);
        if !ascending {
            let mut b = GraphBuilder::with_capacity(vertices.len(), 0);
            for &v in vertices {
                b.extend(kept(v));
            }
            return (b.build(), vertices.to_vec());
        }

        let filter_rows =
            |chunk: &[VertexId]| -> Vec<Edge> { chunk.iter().flat_map(|&v| kept(v)).collect() };
        let edges: Vec<Edge> = if threads > 1 && vertices.len() > 1 {
            use rayon::prelude::*;
            let chunks: Vec<&[VertexId]> = vertices
                .chunks(vertices.len().div_ceil(threads).max(1))
                .collect();
            let per_chunk: Vec<Vec<Edge>> = chunks
                .par_iter()
                .map(|c| filter_rows(c))
                .with_threads(threads)
                .collect();
            per_chunk.into_iter().flatten().collect()
        } else {
            filter_rows(vertices)
        };
        (
            CsrGraph::from_sorted_edges(vertices.len(), edges.iter().copied()),
            vertices.to_vec(),
        )
    }

    // ---- compressed backend -------------------------------------------

    /// True when the graph is on the compressed backend.
    #[inline]
    pub fn is_compressed(&self) -> bool {
        matches!(self.storage, CsrStorage::Compressed(_))
    }

    /// `"compressed"` or `"uncompressed"` — for stats/report headers.
    pub fn storage_kind(&self) -> &'static str {
        match &self.storage {
            CsrStorage::Uncompressed(_) => "uncompressed",
            CsrStorage::Compressed(_) => "compressed",
        }
    }

    /// Number of shards of the compressed backend (1 for flat storage:
    /// one contiguous range).
    pub fn num_shards(&self) -> usize {
        match &self.storage {
            CsrStorage::Uncompressed(_) => 1,
            CsrStorage::Compressed(c) => c.out.num_shards(),
        }
    }

    /// Compresses the graph into delta-varint sharded storage with
    /// evenly split vertex-range shards (~65 536 vertices each). See
    /// [`CsrGraph::compress_with_shards`] to shard along a partition's
    /// ranges instead.
    pub fn compress(&self) -> CsrGraph {
        let k = (self.num_vertices / DEFAULT_SHARD_VERTICES).clamp(1, MAX_DEFAULT_SHARDS);
        let starts: Vec<VertexId> = (1..k)
            .map(|i| (i * self.num_vertices / k) as VertexId)
            .collect();
        self.compress_with_shards(&starts)
    }

    /// Compresses the graph, splitting shards at the given ascending
    /// interior vertex ids (`0` and `n` are implied) — pass a
    /// `PartitionedOrder`'s range starts so shards align with partition
    /// boundaries and can be serialized/placed independently.
    ///
    /// Weights are kept as flat streams unless every edge weight is
    /// exactly `1.0`, in which case they are dropped and reads yield the
    /// constant. Compressing an already-compressed graph re-shards it
    /// (via [`CsrGraph::decompress`]).
    pub fn compress_with_shards(&self, shard_starts: &[VertexId]) -> CsrGraph {
        if self.is_compressed() {
            return self.decompress().compress_with_shards(shard_starts);
        }
        let f = self.blocks();
        let unit = f.out.iter().all(|b| b.weights.iter().all(|&w| w == 1.0));
        let n = self.num_vertices;
        let (out_rows, in_rows) = (self.out_rows(), self.in_rows());
        let out = CompressedAdjacency::from_rows(n, |v| out_rows.ids(v as VertexId), shard_starts);
        let inc = CompressedAdjacency::from_rows(n, |v| in_rows.ids(v as VertexId), shard_starts);
        let weights = (!unit).then(|| {
            Arc::new(WeightStreams {
                out_offsets: Arc::new(offsets_from_degrees(out.degrees())),
                out_weights: Arc::new(concat_weights(&f.out)),
                in_offsets: Arc::new(offsets_from_degrees(inc.degrees())),
                in_weights: Arc::new(concat_weights(&f.inc)),
            })
        });
        CsrGraph {
            num_vertices: n,
            out_degrees: out.degrees_arc(),
            storage: CsrStorage::Compressed(CompressedCsr {
                out: Arc::new(out),
                inc: Arc::new(inc),
                weights,
            }),
        }
    }

    /// Decodes a compressed graph back to row blocks (identity clone on
    /// flat storage). `decompress(compress(g)) == g`.
    pub fn decompress(&self) -> CsrGraph {
        let c = match &self.storage {
            CsrStorage::Uncompressed(_) => return self.clone(),
            CsrStorage::Compressed(c) => c,
        };
        let direction = |adj: &CompressedAdjacency, weights: Option<&[Weight]>| {
            let mut fill = BlockFill::new(adj.degrees());
            let mut i = 0;
            for v in 0..self.num_vertices as VertexId {
                adj.for_each(v, |w| {
                    fill.push(v, w, weights.map_or(1.0, |ws| ws[i]));
                    i += 1;
                });
            }
            fill.finish()
        };
        let weights = c.weights.as_deref();
        CsrGraph::from_blocks(
            c.out.num_targets(),
            direction(&c.out, weights.map(|w| &w.out_weights[..])),
            direction(&c.inc, weights.map(|w| &w.in_weights[..])),
            Arc::clone(&self.out_degrees),
        )
    }

    /// The compressed out-adjacency, when on the compressed backend —
    /// consumed by the engines' scatter contexts and the io writer.
    #[inline]
    pub fn compressed_out_adjacency(&self) -> Option<&CompressedAdjacency> {
        match &self.storage {
            CsrStorage::Uncompressed(_) => None,
            CsrStorage::Compressed(c) => Some(&c.out),
        }
    }

    /// The compressed in-adjacency, when on the compressed backend —
    /// consumed by the engines' gather contexts and the io writer.
    #[inline]
    pub fn compressed_in_adjacency(&self) -> Option<&CompressedAdjacency> {
        match &self.storage {
            CsrStorage::Uncompressed(_) => None,
            CsrStorage::Compressed(c) => Some(&c.inc),
        }
    }

    /// Flat `(offsets, weights)` streams parallel to the decoded
    /// out-adjacency of a compressed weighted graph. `None` on flat
    /// storage or when the graph is unit-weight (read `1.0` then).
    #[inline]
    pub fn compressed_out_weight_streams(&self) -> Option<(&[usize], &[Weight])> {
        match &self.storage {
            CsrStorage::Compressed(c) => c
                .weights
                .as_ref()
                .map(|w| (w.out_offsets.as_slice(), w.out_weights.as_slice())),
            CsrStorage::Uncompressed(_) => None,
        }
    }

    /// Flat `(offsets, weights)` streams parallel to the decoded
    /// in-adjacency of a compressed weighted graph. `None` on flat
    /// storage or when the graph is unit-weight.
    #[inline]
    pub fn compressed_in_weight_streams(&self) -> Option<(&[usize], &[Weight])> {
        match &self.storage {
            CsrStorage::Compressed(c) => c
                .weights
                .as_ref()
                .map(|w| (w.in_offsets.as_slice(), w.in_weights.as_slice())),
            CsrStorage::Uncompressed(_) => None,
        }
    }

    // ---- footprint accounting -----------------------------------------

    /// Heap bytes of the adjacency *structure* (neighbor ids, offsets,
    /// block tables, degree caches — everything except edge-weight
    /// payloads). This is the quantity compression shrinks, and the
    /// numerator of bytes-per-edge reporting.
    pub fn adjacency_bytes(&self) -> usize {
        match &self.storage {
            CsrStorage::Uncompressed(f) => {
                let table = |t: &BlockTable| {
                    t.capacity() * std::mem::size_of::<Arc<RowBlock>>()
                        + t.iter().map(|b| b.structure_bytes()).sum::<usize>()
                };
                table(&f.out)
                    + table(&f.inc)
                    + self.out_degrees.capacity() * std::mem::size_of::<u32>()
            }
            CsrStorage::Compressed(c) => c.out.memory_bytes() + c.inc.memory_bytes(),
        }
    }

    /// Heap bytes of edge-weight payloads (zero for a unit-weight
    /// compressed graph, which stores no weight streams).
    pub fn weight_bytes(&self) -> usize {
        match &self.storage {
            CsrStorage::Uncompressed(f) => f
                .out
                .iter()
                .chain(f.inc.iter())
                .map(|b| b.weight_bytes())
                .sum(),
            CsrStorage::Compressed(c) => match &c.weights {
                Some(w) => {
                    (w.out_weights.capacity() + w.in_weights.capacity())
                        * std::mem::size_of::<Weight>()
                        + (w.out_offsets.capacity() + w.in_offsets.capacity())
                            * std::mem::size_of::<usize>()
                }
                None => 0,
            },
        }
    }

    /// Total heap bytes used by the graph's storage (for Fig. 11
    /// accounting): adjacency structure plus weight payloads. Storage
    /// shared with another graph counts in full in each; see
    /// [`CsrGraph::shared_bytes_with`].
    pub fn memory_bytes(&self) -> usize {
        self.adjacency_bytes() + self.weight_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        // a=0 -> b=1, a -> c=2, b -> d=3, c -> d
        CsrGraph::from_edges(4, [(0u32, 1u32), (0, 2), (1, 3), (2, 3)])
    }

    fn weighted() -> CsrGraph {
        CsrGraph::from_edges(
            5,
            [
                (0u32, 1u32, 2.5f64),
                (0, 2, 1.5),
                (1, 3, 0.5),
                (2, 3, 4.0),
                (3, 4, 1.0),
                (4, 0, 9.0),
            ],
        )
    }

    #[test]
    fn basic_counts() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.average_degree(), 1.0);
    }

    #[test]
    fn adjacency_is_sorted_and_correct() {
        let g = diamond();
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.out_neighbors(1), &[3]);
        assert_eq!(g.out_neighbors(3), &[] as &[VertexId]);
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        assert_eq!(g.in_neighbors(0), &[] as &[VertexId]);
    }

    #[test]
    fn degrees() {
        let g = diamond();
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn has_edge_and_weight() {
        let g = CsrGraph::from_edges(3, [(0u32, 1u32, 2.5f64), (1, 2, 0.5)]);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.edge_weight(0, 1), Some(2.5));
        assert_eq!(g.edge_weight(1, 2), Some(0.5));
        assert_eq!(g.edge_weight(0, 2), None);
    }

    #[test]
    fn edges_iterator_roundtrip() {
        let g = diamond();
        let edges: Vec<_> = g.edges().map(|e| (e.src, e.dst)).collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn reversed_transposes() {
        let g = diamond();
        let r = g.reversed();
        assert_eq!(r.num_edges(), g.num_edges());
        assert!(r.has_edge(1, 0));
        assert!(r.has_edge(3, 2));
        assert!(!r.has_edge(0, 1));
        assert_eq!(r.reversed(), g);
    }

    #[test]
    fn relabel_identity_is_noop() {
        let g = diamond();
        let id = Permutation::identity(4);
        assert_eq!(g.relabeled(&id), g);
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = diamond();
        // order [3,2,1,0]: old v -> new 3-v
        let p = Permutation::from_order(vec![3, 2, 1, 0]);
        let r = g.relabeled(&p);
        assert_eq!(r.num_edges(), 4);
        // old (0,1) -> new (3,2)
        assert!(r.has_edge(3, 2));
        assert!(r.has_edge(3, 1));
        assert!(r.has_edge(2, 0));
        assert!(r.has_edge(1, 0));
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = diamond();
        let (sg, map) = g.induced_subgraph(&[0, 1, 3]);
        assert_eq!(sg.num_vertices(), 3);
        // kept: (0,1) and (1,3) -> local (0,1) and (1,2)
        assert_eq!(sg.num_edges(), 2);
        assert!(sg.has_edge(0, 1));
        assert!(sg.has_edge(1, 2));
        assert_eq!(map, vec![0, 1, 3]);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.out_neighbors(4), &[] as &[VertexId]);
    }

    #[test]
    fn self_loop_preserved() {
        let g = CsrGraph::from_edges(2, [(0u32, 0u32), (0, 1)]);
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 0));
        assert_eq!(g.in_neighbors(0), &[0]);
    }

    #[test]
    fn memory_bytes_nonzero() {
        let g = diamond();
        assert!(g.memory_bytes() > 0);
        assert_eq!(g.memory_bytes(), g.adjacency_bytes() + g.weight_bytes());
    }

    #[test]
    fn snapshot_shares_storage_instead_of_copying() {
        let g = diamond();
        let snap = g.snapshot();
        assert_eq!(snap, g);
        assert!(snap.shares_storage_with(&g));
        assert!(
            g.shares_storage_with(&snap.clone()),
            "clone of clone shares"
        );
        // The shared rows really are the same allocations.
        for v in g.vertices() {
            assert!(std::ptr::eq(g.out_neighbors(v), snap.out_neighbors(v)));
            assert!(std::ptr::eq(g.in_neighbors(v), snap.in_neighbors(v)));
        }
        assert_eq!(snap.shared_bytes_with(&g), g.memory_bytes());
        // A batch that touches no row shares every block; a from-scratch
        // build of the same graph (equal content) shares none.
        let untouched = g.apply_updates(&[]);
        assert_eq!(untouched, g);
        assert!(untouched.shares_storage_with(&g));
        let rebuilt = diamond();
        assert_eq!(rebuilt, g);
        assert!(!rebuilt.shares_storage_with(&g));
        assert_eq!(rebuilt.shared_bytes_with(&g), 0);
        // Updates on a snapshot never disturb the original.
        let patched = snap.apply_updates(&[EdgeUpdate::remove(0, 1)]);
        assert!(g.has_edge(0, 1));
        assert!(!patched.has_edge(0, 1));
        assert!(!patched.shares_storage_with(&g));
    }

    #[test]
    fn reversed_shares_adjacency_storage() {
        let g = diamond();
        let r = g.reversed();
        for v in g.vertices() {
            assert!(std::ptr::eq(g.in_neighbors(v), r.out_neighbors(v)));
            assert!(std::ptr::eq(g.out_neighbors(v), r.in_neighbors(v)));
        }
    }

    /// A weighted graph of `n` vertices spanning several row blocks: a
    /// ring plus a chord from every vertex.
    fn multi_block(n: u32) -> CsrGraph {
        CsrGraph::from_edges(
            n as usize,
            (0..n).flat_map(|v| {
                [
                    (v, (v + 1) % n, 1.0 + f64::from(v % 7)),
                    (v, (v * 13 + 5) % n, 2.0),
                ]
            }),
        )
    }

    /// Indices of the blocks of each direction `a` holds as the very
    /// allocation `b` holds at that index.
    fn unshared_blocks(a: &CsrGraph, b: &CsrGraph) -> (Vec<usize>, Vec<usize>) {
        let (fa, fb) = (a.blocks(), b.blocks());
        let unshared = |x: &BlockTable, y: &BlockTable| {
            (0..x.len())
                .filter(|&i| y.get(i).is_none_or(|q| !Arc::ptr_eq(&x[i], q)))
                .collect()
        };
        (unshared(&fa.out, &fb.out), unshared(&fa.inc, &fb.inc))
    }

    #[test]
    fn one_edge_batch_rebuilds_only_the_blocks_it_lands_in() {
        let n = 5 * BLOCK_ROWS as u32 + 9;
        let g = multi_block(n);
        let (src, dst) = (BLOCK_ROWS as u32 + 3, 4 * BLOCK_ROWS as u32 + 1);
        for batch in [
            vec![EdgeUpdate::insert_weighted(src, dst, 0.5)],
            vec![EdgeUpdate::remove(src, src + 1)],
        ] {
            let dst = batch[0].dst();
            let patched = g.apply_updates(&batch);
            let block = |v: u32| v as usize / BLOCK_ROWS;
            assert_eq!(
                unshared_blocks(&patched, &g),
                (vec![block(src)], vec![block(dst)]),
                "{batch:?}"
            );
            assert!(!patched.shares_storage_with(&g));
            let expected = patched.memory_bytes()
                - patched.blocks().out[block(src)].structure_bytes()
                - patched.blocks().out[block(src)].weight_bytes()
                - patched.blocks().inc[block(dst)].structure_bytes()
                - patched.blocks().inc[block(dst)].weight_bytes()
                - (patched.blocks().out.capacity() + patched.blocks().inc.capacity())
                    * std::mem::size_of::<Arc<RowBlock>>()
                - patched.out_degrees.capacity() * std::mem::size_of::<u32>();
            assert_eq!(patched.shared_bytes_with(&g), expected);
        }
        // Growing by one vertex rebuilds the last block of each table
        // (it gains a row) and nothing else.
        let grown = g.apply_updates(&[EdgeUpdate::insert(0, n)]);
        let last = (n as usize) / BLOCK_ROWS;
        assert_eq!(unshared_blocks(&grown, &g), (vec![0, last], vec![last]));
    }

    #[test]
    fn pinned_versions_cost_one_graph_plus_the_blocks_their_batches_touched() {
        // Sixteen successive versions kept alive at once, as pinned
        // epochs are: the distinct block allocations across all of them
        // hold at most one graph's bytes plus the blocks the 16 batches
        // rebuilt.
        let n = 40 * BLOCK_ROWS as u32;
        let mut versions = vec![multi_block(n)];
        let mut touched_bytes = 0usize;
        for i in 0..16u32 {
            let prev = versions.last().unwrap();
            let batch: Vec<EdgeUpdate> = (0..4)
                .map(|k| {
                    let src = (i * 97 + k * 31) % n;
                    if k == 3 {
                        EdgeUpdate::remove(src, (src + 1) % n)
                    } else {
                        EdgeUpdate::insert_weighted(src, (src * 7 + i) % n, 3.0)
                    }
                })
                .collect();
            let next = prev.apply_updates(&batch);
            let (out, inc) = unshared_blocks(&next, prev);
            assert!(out.len() <= 4 && inc.len() <= 4, "{out:?} {inc:?}");
            let f = next.blocks();
            touched_bytes += out
                .iter()
                .map(|&b| &f.out[b])
                .chain(inc.iter().map(|&b| &f.inc[b]))
                .map(|b| b.structure_bytes() + b.weight_bytes())
                .sum::<usize>();
            versions.push(next);
        }
        let mut seen = std::collections::HashSet::new();
        let mut distinct = 0usize;
        for v in &versions {
            let f = v.blocks();
            for b in f.out.iter().chain(f.inc.iter()) {
                if seen.insert(Arc::as_ptr(b)) {
                    distinct += b.structure_bytes() + b.weight_bytes();
                }
            }
        }
        let first = versions[0].blocks();
        let one_graph: usize = first
            .out
            .iter()
            .chain(first.inc.iter())
            .map(|b| b.structure_bytes() + b.weight_bytes())
            .sum();
        assert!(
            distinct <= one_graph + touched_bytes,
            "{distinct} > {one_graph} + {touched_bytes}"
        );
        // Every version still reads as a from-scratch build of its edges.
        for v in &versions {
            assert_eq!(*v, CsrGraph::from_edges(v.num_vertices(), v.edges()));
        }
    }

    #[test]
    fn cached_out_degrees_match_per_vertex_lookups() {
        let g = diamond();
        assert_eq!(g.out_degrees(), &[2, 1, 1, 0]);
        for v in g.vertices() {
            assert_eq!(
                g.out_degrees()[v as usize] as usize,
                g.out_neighbors(v).len()
            );
        }
        let r = g.reversed();
        for v in r.vertices() {
            assert_eq!(r.out_degree(v), r.out_neighbors(v).len());
        }
        assert_eq!(CsrGraph::empty(3).out_degrees(), &[0, 0, 0]);
    }

    #[test]
    fn apply_updates_insert_remove_and_grow() {
        let g = diamond();
        let updated = g.apply_updates(&[
            EdgeUpdate::remove(0, 2),
            EdgeUpdate::insert_weighted(3, 4, 2.0), // grows to 5 vertices
            EdgeUpdate::insert(2, 1),
        ]);
        assert_eq!(updated.num_vertices(), 5);
        assert_eq!(updated.num_edges(), 5);
        assert!(!updated.has_edge(0, 2));
        assert!(updated.has_edge(2, 1));
        assert_eq!(updated.edge_weight(3, 4), Some(2.0));
        // Untouched edges survive with in-adjacency intact.
        assert_eq!(updated.in_neighbors(3), &[1, 2]);
        assert_eq!(updated.in_neighbors(4), &[3]);
    }

    #[test]
    fn apply_updates_out_of_range_remove_is_a_noop() {
        let g = diamond();
        // Remove-only batches naming vertices that do not exist: nothing
        // to remove, and a remove never grows the vertex set.
        for batch in [
            vec![EdgeUpdate::remove(9, 1)],
            vec![EdgeUpdate::remove(1, 9)],
            vec![EdgeUpdate::remove(7, 9), EdgeUpdate::remove(4, 4)],
        ] {
            let same = g.apply_updates(&batch);
            assert_eq!(same, g, "{batch:?}");
            assert_eq!(same.num_vertices(), 4);
        }
        // Mixed with a growing insert: only the insert sets the count,
        // also when the removes name rows past it.
        let grown = g.apply_updates(&[
            EdgeUpdate::remove(9, 1),
            EdgeUpdate::insert(3, 5),
            EdgeUpdate::remove(1, 9),
            EdgeUpdate::remove(5, 8),
        ]);
        assert_eq!(grown.num_vertices(), 6);
        assert_eq!(grown.num_edges(), 5);
        assert!(grown.has_edge(3, 5));
        assert_eq!(grown.in_neighbors(5), &[3]);
        assert_eq!(grown.out_degrees(), &[2, 1, 1, 1, 0, 0]);
    }

    #[test]
    fn apply_updates_is_sequential_per_pair() {
        let g = CsrGraph::from_edges(2, [(0u32, 1u32, 5.0f64)]);
        // Insert of an existing edge keeps the smaller weight...
        let min_kept = g.apply_updates(&[EdgeUpdate::insert_weighted(0, 1, 9.0)]);
        assert_eq!(min_kept.edge_weight(0, 1), Some(5.0));
        // ...but a remove-then-insert re-adds at the new weight.
        let readded = g.apply_updates(&[
            EdgeUpdate::remove(0, 1),
            EdgeUpdate::insert_weighted(0, 1, 9.0),
        ]);
        assert_eq!(readded.edge_weight(0, 1), Some(9.0));
        // Insert-then-remove ends absent; removing a missing edge is a no-op.
        let gone = g.apply_updates(&[
            EdgeUpdate::insert_weighted(0, 1, 9.0),
            EdgeUpdate::remove(0, 1),
            EdgeUpdate::remove(1, 0),
        ]);
        assert_eq!(gone.num_edges(), 0);
        assert_eq!(gone.num_vertices(), 2);
    }

    #[test]
    fn apply_updates_matches_from_scratch_build() {
        // Batch result must equal a GraphBuilder build of the surviving
        // edge set — the invariant the streaming subsystem relies on.
        let g = CsrGraph::from_edges(
            6,
            [
                (0u32, 1u32, 1.0f64),
                (1, 2, 2.0),
                (2, 3, 3.0),
                (3, 4, 4.0),
                (4, 5, 5.0),
                (5, 0, 6.0),
            ],
        );
        let updates = [
            EdgeUpdate::remove(2, 3),
            EdgeUpdate::insert_weighted(0, 3, 0.5),
            EdgeUpdate::remove(5, 0),
            EdgeUpdate::insert_weighted(5, 2, 1.5),
            EdgeUpdate::insert_weighted(1, 2, 7.0), // duplicate: min wins
        ];
        let updated = g.apply_updates(&updates);
        let mut b = GraphBuilder::with_capacity(6, 6);
        b.reserve_vertices(6);
        for e in [
            (0u32, 1u32, 1.0f64),
            (1, 2, 2.0),
            (3, 4, 4.0),
            (4, 5, 5.0),
            (0, 3, 0.5),
            (5, 2, 1.5),
        ] {
            b.add_edge(e.0, e.1, e.2);
        }
        assert_eq!(updated, b.build());
    }

    #[test]
    fn apply_updates_empty_batch_is_identity() {
        let g = diamond();
        assert_eq!(g.apply_updates(&[]), g);
    }

    #[test]
    fn in_edges_zips_sources_and_weights() {
        let g = CsrGraph::from_edges(3, [(0u32, 2u32, 2.5f64), (1, 2, 0.5)]);
        let edges: Vec<_> = g.in_edges(2).collect();
        assert_eq!(edges, vec![(0, 2.5), (1, 0.5)]);
        assert_eq!(g.in_edges(0).count(), 0);
    }

    // ---- compressed backend -------------------------------------------

    #[test]
    fn compress_decompress_roundtrips() {
        for g in [diamond(), weighted(), CsrGraph::empty(5)] {
            let c = g.compress();
            assert!(c.is_compressed());
            assert!(!g.is_compressed());
            assert_eq!(c.storage_kind(), "compressed");
            assert_eq!(c.num_vertices(), g.num_vertices());
            assert_eq!(c.num_edges(), g.num_edges());
            assert_eq!(c.decompress(), g, "decompress(compress(g)) == g");
        }
    }

    #[test]
    fn compressed_streaming_accessors_match_flat() {
        let g = weighted();
        for shards in [&[][..], &[2][..], &[1, 2, 3, 4][..]] {
            let c = g.compress_with_shards(shards);
            for v in g.vertices() {
                assert_eq!(
                    c.in_edges(v).collect::<Vec<_>>(),
                    g.in_edges(v).collect::<Vec<_>>()
                );
                assert_eq!(
                    c.out_edges(v).collect::<Vec<_>>(),
                    g.out_edges(v).collect::<Vec<_>>()
                );
                assert_eq!(c.in_degree(v), g.in_degree(v));
                assert_eq!(c.out_degree(v), g.out_degree(v));
                let mut outs = Vec::new();
                c.for_each_out_neighbor(v, |w| outs.push(w));
                assert_eq!(outs, g.out_neighbors(v));
                let mut ins = Vec::new();
                c.for_each_in_neighbor(v, |w| ins.push(w));
                assert_eq!(ins, g.in_neighbors(v));
                for w in g.vertices() {
                    assert_eq!(c.has_edge(v, w), g.has_edge(v, w));
                    assert_eq!(c.edge_weight(v, w), g.edge_weight(v, w));
                }
            }
            assert_eq!(c.edges().collect::<Vec<_>>(), g.edges().collect::<Vec<_>>());
        }
    }

    #[test]
    fn compress_with_shards_controls_shard_count() {
        let g = weighted();
        assert_eq!(g.num_shards(), 1, "flat graph reports one range");
        assert_eq!(g.compress_with_shards(&[]).num_shards(), 1);
        assert_eq!(g.compress_with_shards(&[2]).num_shards(), 2);
        assert_eq!(g.compress_with_shards(&[1, 2, 3, 4]).num_shards(), 5);
        // Re-compressing re-shards.
        let c = g.compress_with_shards(&[2]);
        assert_eq!(c.compress_with_shards(&[1, 3]).num_shards(), 3);
    }

    #[test]
    fn unit_weight_graphs_drop_weight_streams() {
        let unit = diamond().compress();
        assert!(unit.compressed_out_weight_streams().is_none());
        assert!(unit.compressed_in_weight_streams().is_none());
        assert_eq!(unit.weight_bytes(), 0);
        assert_eq!(unit.edge_weight(0, 1), Some(1.0));
        let w = weighted().compress();
        assert!(w.compressed_out_weight_streams().is_some());
        assert!(w.compressed_in_weight_streams().is_some());
        assert!(w.weight_bytes() > 0);
    }

    #[test]
    fn compressed_reversed_transposes() {
        let g = weighted();
        let cr = g.compress().reversed();
        assert!(cr.is_compressed());
        assert_eq!(cr.decompress(), g.reversed());
        assert_eq!(cr.reversed().decompress(), g);
        for v in g.vertices() {
            assert_eq!(cr.out_degree(v), g.in_degree(v));
        }
    }

    #[test]
    fn compressed_snapshot_shares_storage() {
        let c = weighted().compress();
        let snap = c.snapshot();
        assert_eq!(snap, c);
        assert!(snap.shares_storage_with(&c));
        // Mixed backends never share or compare equal, even for the
        // same logical graph.
        let g = weighted();
        assert!(!c.shares_storage_with(&g));
        assert_ne!(c, g);
        // A re-compression is a rebuild: equal content, fresh storage.
        let c2 = g.compress();
        assert_eq!(c2, c);
        assert!(!c2.shares_storage_with(&c));
    }

    #[test]
    fn compressed_mutations_return_flat_graphs() {
        let g = weighted();
        let c = g.compress();
        let relabeled = c.relabeled(&Permutation::from_order(vec![4, 3, 2, 1, 0]));
        assert!(!relabeled.is_compressed());
        assert_eq!(
            relabeled,
            g.relabeled(&Permutation::from_order(vec![4, 3, 2, 1, 0]))
        );
        let updated = c.apply_updates(&[EdgeUpdate::remove(0, 1)]);
        assert!(!updated.is_compressed());
        assert_eq!(updated, g.apply_updates(&[EdgeUpdate::remove(0, 1)]));
    }

    #[test]
    fn compressed_adjacency_is_smaller_on_runs() {
        // A vertex-contiguous community graph compresses far below the
        // 4-byte-per-id flat layout.
        let mut edges = Vec::new();
        for v in 0u32..256 {
            for w in 0u32..256 {
                if v != w {
                    edges.push((v / 64 * 64 + v % 64, w / 64 * 64 + w % 64));
                }
            }
        }
        let g = CsrGraph::from_edges(256, edges.into_iter().filter(|(a, b)| a / 64 == b / 64));
        let c = g.compress();
        assert!(
            c.adjacency_bytes() * 4 < g.adjacency_bytes(),
            "compressed {} vs flat {}",
            c.adjacency_bytes(),
            g.adjacency_bytes()
        );
    }

    #[test]
    #[should_panic(expected = "flat")]
    fn out_neighbors_panics_on_compressed() {
        let c = diamond().compress();
        let _ = c.out_neighbors(0);
    }

    #[test]
    #[should_panic(expected = "flat")]
    fn row_accessors_panic_on_compressed() {
        let c = diamond().compress();
        let _ = c.in_rows();
    }
}
