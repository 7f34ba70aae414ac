//! Compressed sparse row (CSR) storage for directed weighted graphs.
//!
//! Both the out-adjacency (`v -> w`) and the in-adjacency (`u -> v`,
//! indexed by `v`) are materialized: asynchronous iterative engines gather
//! from *in-neighbors* (paper Eq. 2), while reordering methods and
//! traversals scan out-neighbors. Neighbor lists are sorted by vertex id,
//! which makes `has_edge` a binary search and keeps all downstream
//! algorithms deterministic.
//!
//! Each direction's rows are cut into one table of fixed-height **row
//! blocks** of [`BLOCK_ROWS`] rows, each block one `Arc`. A block holds
//! its rows in one of two encodings:
//!
//! - **raw** — neighbor ids and weights as plain arrays. Every graph is
//!   built this way, and it is the only encoding the slice accessors
//!   ([`CsrGraph::out_neighbors`], [`Rows::row`], …) and the reordering
//!   pipeline read;
//! - **packed** — each row one delta-varint byte run
//!   ([`crate::compressed`]) with the weights beside it, dropped when
//!   every weight in the block is `1.0`: a few bytes per edge after a
//!   locality-improving reorder. [`CsrGraph::compress`] packs every
//!   block, [`CsrGraph::decompress`] unpacks them.
//!
//! All blocks of a graph share one encoding. A batch of updates
//! ([`CsrGraph::apply_updates`]) re-splices only the blocks it touches,
//! in that encoding, and shares every other block with its input, so
//! successive versions of an evolving graph share every row a batch left
//! alone, compressed or not. Every accessor that does not return a slice
//! ([`Rows::for_each_edge`], [`CsrGraph::in_edges`],
//! [`CsrGraph::for_each_out_neighbor`], …) reads both encodings; the
//! slice accessors panic on a packed graph.

use crate::builder::GraphBuilder;
use crate::compressed::{decode_row_with, encode_row};
use crate::permutation::Permutation;
use crate::types::{Direction, Edge, EdgeUpdate, VertexId, Weight};
use std::borrow::Cow;
use std::sync::Arc;

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
/// deep-copying. A graph is one table of row blocks per direction plus
/// the out-degree array, each block behind its own [`Arc`].
/// [`CsrGraph::apply_updates`] builds new blocks only where the batch
/// lands and shares every other block with its input: that is what
/// makes publishing an epoch snapshot of an evolving graph cheap, and
/// what lets many pinned versions cost one graph plus the blocks their
/// batches rewrote — see [`CsrGraph::snapshot`] and
/// [`CsrGraph::shared_bytes_with`].
///
/// The block cut depends only on the vertex count and the encoding is
/// deterministic, so equal graphs in one encoding have equal layouts and
/// `==` compares content however either was built; a packed graph never
/// equals a raw one.
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
    num_edges: usize,
    /// True when every block is packed (see [`CsrGraph::compress`]); the
    /// encoding of the blocks a batch adds.
    packed: bool,
    /// Cached per-vertex out-degrees. Engines read `out_degree(u)` once
    /// per *edge* (PageRank-family normalization), so serving it from one
    /// contiguous array instead of a block lookup matters in the gather
    /// inner loop.
    out_degrees: Arc<Vec<u32>>,
    out: BlockTable,
    inc: BlockTable,
}

/// One direction's rows, block by block.
type BlockTable = Arc<Vec<Arc<RowBlock>>>;

/// Up to [`BLOCK_ROWS`] consecutive rows of one direction: row `r` of
/// the block spans `offsets[r]..offsets[r + 1]` of its payload — of the
/// ids and weights when raw, of the byte runs when packed. The offsets
/// live inline, in the block's own allocation, and entries past `rows`
/// repeat the end: a row lookup is one load from the block, with no
/// bounds check.
#[derive(Debug, Clone, PartialEq)]
struct RowBlock {
    rows: usize,
    offsets: [u32; BLOCK_ROWS + 1],
    payload: Payload,
}

/// The rows of a [`RowBlock`] in one of the two encodings.
#[derive(Debug, Clone, PartialEq)]
enum Payload {
    /// Neighbor ids, ascending within a row, and the weights parallel
    /// to them.
    Raw {
        ids: Vec<VertexId>,
        weights: Vec<Weight>,
    },
    /// Each row's [`encode_row`] run, and the block's weights unless
    /// every one of them is `1.0`.
    Packed {
        bytes: Vec<u8>,
        weights: Option<Box<PackedWeights>>,
    },
}

/// The weights of a packed block: row `r`'s are
/// `weights[starts[r]..starts[r + 1]]`, in neighbor order.
#[derive(Debug, Clone, PartialEq)]
struct PackedWeights {
    starts: [u32; BLOCK_ROWS + 1],
    weights: Vec<Weight>,
}

/// `offsets` (a block's `rows + 1` leading entries) padded to the
/// inline array, entries past the end repeating it.
fn inline_offsets(offsets: &[u32]) -> [u32; BLOCK_ROWS + 1] {
    let mut inline = [offsets[offsets.len() - 1]; BLOCK_ROWS + 1];
    inline[..offsets.len()].copy_from_slice(offsets);
    inline
}

impl RowBlock {
    /// A block of `offsets.len() - 1` rows.
    fn new(offsets: &[u32], payload: Payload) -> RowBlock {
        RowBlock {
            rows: offsets.len() - 1,
            offsets: inline_offsets(offsets),
            payload,
        }
    }

    /// The offsets of the block's rows (`rows + 1` entries).
    fn row_offsets(&self) -> &[u32] {
        &self.offsets[..=self.rows]
    }

    fn is_packed(&self) -> bool {
        matches!(self.payload, Payload::Packed { .. })
    }

    /// Row `r`'s span of the payload.
    #[inline(always)]
    fn span(&self, r: usize) -> std::ops::Range<usize> {
        self.offsets[r] as usize..self.offsets[r + 1] as usize
    }

    /// The ids and weights of a raw block.
    #[inline(always)]
    fn raw_payload(&self) -> Option<(&[VertexId], &[Weight])> {
        match &self.payload {
            Payload::Raw { ids, weights } => Some((ids, weights)),
            Payload::Packed { .. } => None,
        }
    }

    /// Row `r`'s ids and weights, when the block is raw.
    #[inline(always)]
    fn raw_row(&self, r: usize) -> Option<(&[VertexId], &[Weight])> {
        let (ids, weights) = self.raw_payload()?;
        Some((&ids[self.span(r)], &weights[self.span(r)]))
    }

    /// Calls `f(neighbor, weight)` for each edge of row `r`, which is
    /// vertex `v`, in ascending neighbor order. With `weighted == false`
    /// the weight passed is `1.0` and no weight is read.
    #[inline(always)]
    fn for_each_edge(
        &self,
        v: VertexId,
        r: usize,
        weighted: bool,
        mut f: impl FnMut(VertexId, Weight),
    ) {
        let (s, e) = (self.offsets[r] as usize, self.offsets[r + 1] as usize);
        match &self.payload {
            Payload::Raw { ids, weights } => {
                if weighted {
                    for (&u, &w) in ids[s..e].iter().zip(&weights[s..e]) {
                        f(u, w);
                    }
                } else {
                    for &u in &ids[s..e] {
                        f(u, 1.0);
                    }
                }
            }
            Payload::Packed { bytes, weights } => match weights.as_deref().filter(|_| weighted) {
                Some(pw) => {
                    let mut i = pw.starts[r] as usize;
                    decode_row_with(v, &bytes[s..e], |u| {
                        f(u, pw.weights[i]);
                        i += 1;
                    });
                }
                // Weights are dropped exactly when every one is 1.0, so
                // the constant is the true weight here.
                None => decode_row_with(v, &bytes[s..e], |u| f(u, 1.0)),
            },
        }
    }

    /// Row `r`'s neighbor count: two offset loads, except in a packed
    /// block without weights, where the row (vertex `v`) is decoded.
    #[inline]
    fn degree(&self, v: VertexId, r: usize) -> usize {
        let span = |o: &[u32; BLOCK_ROWS + 1]| (o[r + 1] - o[r]) as usize;
        match &self.payload {
            Payload::Raw { .. } => span(&self.offsets),
            Payload::Packed {
                weights: Some(pw), ..
            } => span(&pw.starts),
            Payload::Packed { weights: None, .. } => {
                let mut d = 0;
                self.for_each_edge(v, r, false, |_, _| d += 1);
                d
            }
        }
    }

    /// The block in the raw encoding: itself, or its rows decoded.
    /// `base` is the id of its first row.
    fn raw(&self, base: usize) -> Cow<'_, RowBlock> {
        if !self.is_packed() {
            return Cow::Borrowed(self);
        }
        let mut offsets = Vec::with_capacity(self.rows + 1);
        let (mut ids, mut weights) = (Vec::new(), Vec::new());
        offsets.push(0);
        for r in 0..self.rows {
            self.for_each_edge((base + r) as VertexId, r, true, |u, w| {
                ids.push(u);
                weights.push(w);
            });
            offsets.push(ids.len() as u32);
        }
        Cow::Owned(RowBlock::new(&offsets, Payload::Raw { ids, weights }))
    }

    /// The block in the packed encoding: every row of a raw block
    /// encoded, its weights kept unless all are `1.0`. `base` is the id
    /// of its first row.
    fn packed(&self, base: usize) -> RowBlock {
        let Payload::Raw { ids, weights } = &self.payload else {
            return self.clone();
        };
        let mut bytes = Vec::with_capacity(ids.len() * 2);
        let mut offsets = Vec::with_capacity(self.rows + 1);
        offsets.push(0);
        for (r, w) in self.row_offsets().windows(2).enumerate() {
            let row = &ids[w[0] as usize..w[1] as usize];
            encode_row((base + r) as VertexId, row, &mut bytes);
            offsets.push(u32::try_from(bytes.len()).expect("row block exceeds u32 offsets"));
        }
        // Trim the encoder's growth slack so `memory_bytes` reports the
        // true footprint.
        bytes.shrink_to_fit();
        let weights = weights.iter().any(|&w| w != 1.0).then(|| {
            Box::new(PackedWeights {
                starts: self.offsets,
                weights: weights.clone(),
            })
        });
        RowBlock::new(&offsets, Payload::Packed { bytes, weights })
    }

    /// Bytes of the ids or byte runs and the offsets.
    fn structure_bytes(&self) -> usize {
        std::mem::size_of_val(&self.offsets)
            + match &self.payload {
                Payload::Raw { ids, .. } => ids.capacity() * std::mem::size_of::<VertexId>(),
                Payload::Packed { bytes, .. } => bytes.capacity(),
            }
    }

    /// Bytes of the weights (and, packed, of their row starts).
    fn weight_bytes(&self) -> usize {
        let weights = match &self.payload {
            Payload::Raw { weights, .. } => weights,
            Payload::Packed {
                weights: Some(pw), ..
            } => &pw.weights,
            Payload::Packed { weights: None, .. } => return 0,
        };
        let starts = if self.is_packed() {
            std::mem::size_of::<[u32; BLOCK_ROWS + 1]>()
        } else {
            0
        };
        starts + weights.capacity() * std::mem::size_of::<Weight>()
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

/// Indices of the blocks of `a` that are not the very allocation `b`
/// holds at that index.
fn unshared_table_blocks(a: &BlockTable, b: &BlockTable) -> Vec<usize> {
    (0..a.len())
        .filter(|&i| b.get(i).is_none_or(|q| !Arc::ptr_eq(&a[i], q)))
        .collect()
}

/// One direction's raw row blocks filled edge by edge from known row
/// degrees: every block is allocated at its exact size up front.
struct BlockFill {
    /// Per block: row offsets, ids, weights.
    blocks: Vec<(Vec<u32>, Vec<VertexId>, Vec<Weight>)>,
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
                (offsets, Vec::new(), Vec::new())
            })
            .collect::<Vec<_>>();
        // Every block's ids first, then every block's weights: allocated
        // in this order, the ids of consecutive blocks lie next to each
        // other as a flat array's would, and a sweep over the rows
        // streams through them (weights in between would triple the
        // span it walks).
        for (offsets, ids, _) in &mut blocks {
            *ids = vec![0; offsets[offsets.len() - 1] as usize];
        }
        for (_, ids, weights) in &mut blocks {
            *weights = vec![0.0; ids.len()];
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
        let (_, ids, weights) = &mut self.blocks[row >> BLOCK_SHIFT];
        ids[slot] = id;
        weights[slot] = weight;
    }

    fn finish(self) -> BlockTable {
        Arc::new(
            (self.blocks.into_iter())
                .map(|(offsets, ids, weights)| {
                    Arc::new(RowBlock::new(&offsets, Payload::Raw { ids, weights }))
                })
                .collect(),
        )
    }
}

/// The block table of one adjacency direction with `overrides` spliced
/// in, grown to `num_rows` rows, every rebuilt block in the packed
/// encoding when `packed`. `overrides` holds `(row, neighbor, state)`
/// sorted by `(row, neighbor)` with each pair at most once and every row
/// below `num_rows`; `Some(w)` sets the pair's weight, `None` drops the
/// pair. A block no override lands in and whose row count stays the
/// same is shared with `blocks`; every other block is re-spliced by
/// [`splice_rows`], a packed one through its decoded rows.
fn splice_blocks(
    num_rows: usize,
    blocks: &[Arc<RowBlock>],
    overrides: &[(VertexId, VertexId, Option<Weight>)],
    packed: bool,
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
                    let old = old.map(|o| o.raw(base));
                    let spliced = splice_rows(rows, base, old.as_deref(), &overrides[start..i]);
                    Arc::new(if packed {
                        spliced.packed(base)
                    } else {
                        spliced
                    })
                }
            }
        })
        .collect();
    Arc::new(table)
}

/// The raw row block `old` (none: no rows) with `overrides` spliced
/// in, grown to `num_rows` rows. Rows are block-local: override row `r`
/// is block row `r - base`. Spans of rows between overridden rows are
/// copied whole; an overridden row is merged neighbor by neighbor.
fn splice_rows(
    num_rows: usize,
    base: usize,
    old: Option<&RowBlock>,
    overrides: &[(VertexId, VertexId, Option<Weight>)],
) -> RowBlock {
    let (offsets, ids, weights) = match old {
        Some(
            block @ RowBlock {
                payload: Payload::Raw { ids, weights },
                ..
            },
        ) => (block.row_offsets(), &ids[..], &weights[..]),
        _ => (&[0u32][..], &[][..], &[][..]),
    };
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
    RowBlock::new(
        &new_offsets,
        Payload::Raw {
            ids: new_ids,
            weights: new_weights,
        },
    )
}

/// A borrowed view of one adjacency direction of a [`CsrGraph`], row by
/// row — what the engines' gather and scatter kernels walk
/// ([`CsrGraph::in_rows`], [`CsrGraph::out_rows`]). A row never spans
/// two blocks, so reading one costs a single block lookup; then
/// [`Rows::for_each_edge`] walks it in either encoding.
#[derive(Debug, Clone, Copy)]
pub struct Rows<'g> {
    blocks: &'g [Arc<RowBlock>],
}

/// What a slice accessor says about a packed graph.
const NEEDS_RAW: &str = "row slices need flat (uncompressed) CSR storage; call decompress() first";

impl<'g> Rows<'g> {
    /// The block holding `v` and `v`'s row in it.
    #[inline(always)]
    fn locate(self, v: VertexId) -> (&'g RowBlock, usize) {
        let v = v as usize;
        let block = &*self.blocks[v >> BLOCK_SHIFT];
        let r = v & (BLOCK_ROWS - 1);
        debug_assert!(r < block.rows, "vertex {v} out of range");
        (block, r)
    }

    /// The neighbor ids of `v`, sorted ascending.
    ///
    /// # Panics
    /// Panics on a packed (compressed) graph.
    #[inline(always)]
    pub fn ids(self, v: VertexId) -> &'g [VertexId] {
        let (block, r) = self.locate(v);
        &block.raw_payload().expect(NEEDS_RAW).0[block.span(r)]
    }

    /// The neighbor ids of `v` and the weights parallel to them.
    ///
    /// # Panics
    /// Panics on a packed (compressed) graph.
    #[inline(always)]
    pub fn row(self, v: VertexId) -> (&'g [VertexId], &'g [Weight]) {
        let (block, r) = self.locate(v);
        block.raw_row(r).expect(NEEDS_RAW)
    }

    /// Calls `f(neighbor, weight)` for each edge of `v`'s row in
    /// ascending neighbor order, in either encoding: the one per-row
    /// edge walk of the engines' kernels. With `weighted == false` the
    /// weight passed is `1.0` and no weight is read; a constant
    /// `weighted` folds the branch away.
    #[inline(always)]
    pub fn for_each_edge(self, v: VertexId, weighted: bool, f: impl FnMut(VertexId, Weight)) {
        let (block, r) = self.locate(v);
        block.for_each_edge(v, r, weighted, f);
    }

    /// The number of neighbors of `v` (decodes the row of a packed block
    /// that keeps no weights).
    #[inline]
    pub fn degree(self, v: VertexId) -> usize {
        let (block, r) = self.locate(v);
        block.degree(v, r)
    }

    /// Bytes `v`'s neighbor ids occupy in storage: four per id in a raw
    /// block, the row's byte run in a packed one.
    #[inline]
    pub fn stored_bytes(self, v: VertexId) -> usize {
        let (block, r) = self.locate(v);
        let span = (block.offsets[r + 1] - block.offsets[r]) as usize;
        match block.payload {
            Payload::Raw { .. } => span * std::mem::size_of::<VertexId>(),
            Payload::Packed { .. } => span,
        }
    }

    /// Each packed block's row offsets and byte runs, in row order (the
    /// sections of the compressed file format).
    ///
    /// # Panics
    /// Panics on a raw block.
    pub(crate) fn packed_blocks(self) -> impl Iterator<Item = (&'g [u32], &'g [u8])> {
        self.blocks.iter().map(|b| match &b.payload {
            Payload::Packed { bytes, .. } => (b.row_offsets(), &bytes[..]),
            Payload::Raw { .. } => panic!("packed_blocks needs a compressed graph"),
        })
    }
}

/// One direction of a packed graph as a file holds it: per row its
/// degree and its [`encode_row`] run, and the weights of every row in
/// row order, or `None` when all are `1.0`. The runs must be valid.
pub(crate) struct PackedRows<'a> {
    pub degrees: &'a [u32],
    pub runs: Vec<&'a [u8]>,
    pub weights: Option<&'a [Weight]>,
}

impl PackedRows<'_> {
    /// The packed block table of these rows, or why a block's runs or
    /// neighbor count overflow its `u32` offsets.
    fn table(&self) -> Result<BlockTable, String> {
        let too_big = |b: usize| format!("row block {b} exceeds u32 offsets");
        let mut next_weight = 0usize;
        let blocks = (self
            .runs
            .chunks(BLOCK_ROWS)
            .zip(self.degrees.chunks(BLOCK_ROWS)))
        .enumerate()
        .map(|(b, (runs, degrees))| {
            let mut offsets = vec![0u32];
            let mut starts = vec![0u32];
            let mut bytes = Vec::with_capacity(runs.iter().map(|r| r.len()).sum());
            for (run, &d) in runs.iter().zip(degrees) {
                bytes.extend_from_slice(run);
                offsets.push(u32::try_from(bytes.len()).map_err(|_| too_big(b))?);
                starts.push(starts[starts.len() - 1].checked_add(d).ok_or(too_big(b))?);
            }
            let count = starts[starts.len() - 1] as usize;
            let weights = self.weights.map(|ws| &ws[next_weight..next_weight + count]);
            next_weight += count;
            let weights = weights.filter(|ws| ws.iter().any(|&w| w != 1.0)).map(|ws| {
                Box::new(PackedWeights {
                    starts: inline_offsets(&starts),
                    weights: ws.to_vec(),
                })
            });
            let payload = Payload::Packed { bytes, weights };
            Ok(Arc::new(RowBlock::new(&offsets, payload)))
        })
        .collect::<Result<_, String>>()?;
        Ok(Arc::new(blocks))
    }
}

/// `(neighbor, weight)` stream over either encoding: borrowed zip of
/// the row slices, or a decoded row buffer for a packed row.
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
    /// The edges of `v`'s row in `rows`.
    #[inline]
    fn of_row(rows: Rows<'g>, v: VertexId) -> Self {
        let (block, r) = rows.locate(v);
        match block.raw_row(r) {
            Some((ids, weights)) => {
                EdgePairs::Flat(ids.iter().copied().zip(weights.iter().copied()))
            }
            None => {
                let mut row = Vec::new();
                block.for_each_edge(v, r, true, |u, w| row.push((u, w)));
                EdgePairs::Decoded(row.into_iter())
            }
        }
    }
}

impl CsrGraph {
    /// Assembles a graph from its two block tables.
    fn from_blocks(
        num_edges: usize,
        packed: bool,
        out: BlockTable,
        inc: BlockTable,
        out_degrees: Arc<Vec<u32>>,
    ) -> CsrGraph {
        CsrGraph {
            num_vertices: out_degrees.len(),
            num_edges,
            packed,
            out_degrees,
            out,
            inc,
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
        CsrGraph::from_blocks(m, false, out.finish(), inc.finish(), Arc::new(out_degrees))
    }

    /// Assembles a packed graph from the rows of a compressed file (the
    /// [`crate::io`] loader, which has validated every run), or says
    /// which row block overflows its offsets.
    pub(crate) fn from_packed_rows(
        num_edges: usize,
        out: PackedRows<'_>,
        inc: PackedRows<'_>,
    ) -> Result<CsrGraph, String> {
        Ok(CsrGraph::from_blocks(
            num_edges,
            true,
            out.table()?,
            inc.table()?,
            Arc::new(out.degrees.to_vec()),
        ))
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

    /// True when `self` and `other` share every block of storage: both
    /// directions hold the very same row blocks at every index (one is a
    /// [`CsrGraph::snapshot`] of the other, or an update batch that
    /// touched no block lies between them). Graphs in different
    /// encodings never share.
    pub fn shares_storage_with(&self, other: &CsrGraph) -> bool {
        self.packed == other.packed
            && self.out.len() == other.out.len()
            && self.rebuilt_blocks(other) == (vec![], vec![])
    }

    /// Indices of the row blocks of each direction, `(out, in)`, that
    /// `self` does not share with `base`: the blocks an update batch
    /// from `base` to `self` rebuilt, and every block past `base`'s.
    pub fn rebuilt_blocks(&self, base: &CsrGraph) -> (Vec<usize>, Vec<usize>) {
        (
            unshared_table_blocks(&self.out, &base.out),
            unshared_table_blocks(&self.inc, &base.inc),
        )
    }

    /// Heap bytes of `self`'s storage that are the very allocations of
    /// `other`'s — the part of [`CsrGraph::memory_bytes`] that holding
    /// both costs only once. `g.shared_bytes_with(&g) ==
    /// g.memory_bytes()`; a block counts when both graphs hold it at the
    /// same index of the same direction.
    pub fn shared_bytes_with(&self, other: &CsrGraph) -> usize {
        let degrees = if Arc::ptr_eq(&self.out_degrees, &other.out_degrees) {
            self.out_degrees.capacity() * std::mem::size_of::<u32>()
        } else {
            0
        };
        degrees
            + shared_table_bytes(&self.out, &other.out)
            + shared_table_bytes(&self.inc, &other.inc)
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Iterator over all vertex ids `0..n`.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices as VertexId
    }

    /// The out-rows, block by block — the engines' push (scatter)
    /// kernels read these.
    #[inline]
    pub fn out_rows(&self) -> Rows<'_> {
        Rows { blocks: &self.out }
    }

    /// The in-rows, block by block — the engines' gather kernels read
    /// these.
    #[inline]
    pub fn in_rows(&self) -> Rows<'_> {
        Rows { blocks: &self.inc }
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

    /// Calls `f` for every out-neighbor of `v` in ascending order, in
    /// either encoding — the storage-agnostic replacement for iterating
    /// [`CsrGraph::out_neighbors`] in engine frontier-expansion loops.
    #[inline]
    pub fn for_each_out_neighbor<F: FnMut(VertexId)>(&self, v: VertexId, mut f: F) {
        self.out_rows().for_each_edge(v, false, |w, _| f(w));
    }

    /// Calls `f` for every in-neighbor of `v` in ascending order, in
    /// either encoding.
    #[inline]
    pub fn for_each_in_neighbor<F: FnMut(VertexId)>(&self, v: VertexId, mut f: F) {
        self.in_rows().for_each_edge(v, false, |w, _| f(w));
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
    /// Works in both encodings (a packed row is decoded into a buffer;
    /// hot paths use [`Rows::for_each_edge`] instead).
    #[inline]
    pub fn in_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        EdgePairs::of_row(self.in_rows(), v)
    }

    /// Out-edges of `v` as a zipped `(target, weight)` iterator — the
    /// push-direction counterpart of [`CsrGraph::in_edges`]. Works in
    /// both encodings.
    #[inline]
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        EdgePairs::of_row(self.out_rows(), v)
    }

    /// In-degree of `v` (on a compressed graph without weights, one row
    /// decode).
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_rows().degree(v)
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

    /// Weight of edge `(u, v)` if present: a binary search of a raw row,
    /// a walk of a packed one.
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        let (block, r) = self.out_rows().locate(u);
        if let Some((ids, weights)) = block.raw_row(r) {
            return ids.binary_search(&v).ok().map(|i| weights[i]);
        }
        let mut hit = None;
        block.for_each_edge(u, r, true, |w, weight| {
            if w == v {
                hit = Some(weight);
            }
        });
        hit
    }

    /// Iterator over all edges in CSR (source-major) order. Works in
    /// both encodings.
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

    /// The transposed graph (every edge reversed). The row blocks are
    /// shared with `self` (swapped roles), not copied; only the degree
    /// cache is recomputed. Works in both encodings.
    pub fn reversed(&self) -> CsrGraph {
        let rows = self.in_rows();
        let out_degrees = self.vertices().map(|v| rows.degree(v) as u32).collect();
        CsrGraph::from_blocks(
            self.num_edges,
            self.packed,
            Arc::clone(&self.inc),
            Arc::clone(&self.out),
            Arc::new(out_degrees),
        )
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
    /// result is always flat; re-[`CsrGraph::compress`] afterwards if
    /// needed.
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
            false,
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
    /// The result keeps the input's encoding: a rebuilt block of a
    /// compressed graph is decoded, spliced and packed again, so
    /// `g.compress().apply_updates(b) == g.apply_updates(b).compress()`.
    pub fn apply_updates(&self, updates: &[EdgeUpdate]) -> CsrGraph {
        use std::collections::HashMap;
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
                    let slot = overrides.entry((src, dst)).or_insert_with(|| {
                        ((src as usize) < n_old)
                            .then(|| self.edge_weight(src, dst))
                            .flatten()
                    });
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

        let out = splice_blocks(num_vertices, &self.out, &by_src, self.packed);
        let inc = splice_blocks(num_vertices, &self.inc, &by_dst, self.packed);
        let mut out_degrees = Vec::with_capacity(num_vertices);
        out_degrees.extend_from_slice(&self.out_degrees);
        out_degrees.resize(num_vertices, 0);
        let mut num_edges = self.num_edges;
        let rows = Rows { blocks: &out };
        for &(src, _, _) in &by_src {
            let d = rows.degree(src) as u32;
            let old = std::mem::replace(&mut out_degrees[src as usize], d);
            num_edges = num_edges - old as usize + d as usize;
        }
        CsrGraph::from_blocks(num_edges, self.packed, out, inc, Arc::new(out_degrees))
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

    // ---- encodings ----------------------------------------------------

    /// True when the graph's blocks are packed (compressed).
    #[inline]
    pub fn is_compressed(&self) -> bool {
        self.packed
    }

    /// `"compressed"` or `"uncompressed"` — for stats/report headers.
    pub fn storage_kind(&self) -> &'static str {
        if self.packed {
            "compressed"
        } else {
            "uncompressed"
        }
    }

    /// The graph with every block in the packed encoding when `packed`,
    /// else raw. Blocks already in that encoding are shared.
    fn recoded(&self, packed: bool) -> CsrGraph {
        let recode = |table: &BlockTable| -> BlockTable {
            Arc::new(
                (table.iter().enumerate())
                    .map(|(b, block)| match (block.is_packed(), packed) {
                        (false, true) => Arc::new(block.packed(b << BLOCK_SHIFT)),
                        (true, false) => Arc::new(block.raw(b << BLOCK_SHIFT).into_owned()),
                        _ => Arc::clone(block),
                    })
                    .collect(),
            )
        };
        CsrGraph {
            packed,
            out: recode(&self.out),
            inc: recode(&self.inc),
            ..self.clone()
        }
    }

    /// Compresses the graph: every row block packed into delta-varint
    /// rows, its weights dropped when every one is exactly `1.0` (reads
    /// then yield the constant). A compressed graph stays compressed
    /// under [`CsrGraph::apply_updates`]; compressing one again shares
    /// all of it.
    pub fn compress(&self) -> CsrGraph {
        self.recoded(true)
    }

    /// [`CsrGraph::compress`]; the cut points are ignored, because a
    /// compressed graph is cut into row blocks like a flat one. Kept for
    /// callers that pass a partition's range starts.
    pub fn compress_with_shards(&self, _cuts: &[VertexId]) -> CsrGraph {
        self.compress()
    }

    /// Decodes a compressed graph back to raw row blocks (identity clone
    /// on flat storage). `decompress(compress(g)) == g`.
    pub fn decompress(&self) -> CsrGraph {
        self.recoded(false)
    }

    // ---- footprint accounting -----------------------------------------

    /// Heap bytes of the adjacency *structure* (neighbor ids or byte
    /// runs, offsets, block tables, degree cache — everything except
    /// edge-weight payloads). This is the quantity compression shrinks,
    /// and the numerator of bytes-per-edge reporting.
    pub fn adjacency_bytes(&self) -> usize {
        let table = |t: &BlockTable| {
            t.capacity() * std::mem::size_of::<Arc<RowBlock>>()
                + t.iter().map(|b| b.structure_bytes()).sum::<usize>()
        };
        table(&self.out)
            + table(&self.inc)
            + self.out_degrees.capacity() * std::mem::size_of::<u32>()
    }

    /// Heap bytes of edge-weight payloads (zero for a compressed graph
    /// whose weights are all `1.0`).
    pub fn weight_bytes(&self) -> usize {
        (self.out.iter().chain(self.inc.iter()))
            .map(|b| b.weight_bytes())
            .sum()
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
                patched.rebuilt_blocks(&g),
                (vec![block(src)], vec![block(dst)]),
                "{batch:?}"
            );
            assert!(!patched.shares_storage_with(&g));
            let expected = patched.memory_bytes()
                - patched.out[block(src)].structure_bytes()
                - patched.out[block(src)].weight_bytes()
                - patched.inc[block(dst)].structure_bytes()
                - patched.inc[block(dst)].weight_bytes()
                - (patched.out.capacity() + patched.inc.capacity())
                    * std::mem::size_of::<Arc<RowBlock>>()
                - patched.out_degrees.capacity() * std::mem::size_of::<u32>();
            assert_eq!(patched.shared_bytes_with(&g), expected);
        }
        // Growing by one vertex rebuilds the last block of each table
        // (it gains a row) and nothing else.
        let grown = g.apply_updates(&[EdgeUpdate::insert(0, n)]);
        let last = (n as usize) / BLOCK_ROWS;
        assert_eq!(grown.rebuilt_blocks(&g), (vec![0, last], vec![last]));
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
            let (out, inc) = next.rebuilt_blocks(prev);
            assert!(out.len() <= 4 && inc.len() <= 4, "{out:?} {inc:?}");
            touched_bytes += out
                .iter()
                .map(|&b| &next.out[b])
                .chain(inc.iter().map(|&b| &next.inc[b]))
                .map(|b| b.structure_bytes() + b.weight_bytes())
                .sum::<usize>();
            versions.push(next);
        }
        let mut seen = std::collections::HashSet::new();
        let mut distinct = 0usize;
        for v in &versions {
            for b in v.out.iter().chain(v.inc.iter()) {
                if seen.insert(Arc::as_ptr(b)) {
                    distinct += b.structure_bytes() + b.weight_bytes();
                }
            }
        }
        let first = &versions[0];
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

    // ---- compressed (packed) blocks -----------------------------------

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
        // One block, and several blocks with a partial tail; weighted and
        // unit-weight blocks.
        let unit = CsrGraph::from_edges(
            3 * BLOCK_ROWS + 5,
            multi_block(3 * BLOCK_ROWS as u32 + 5)
                .edges()
                .map(|e| (e.src, e.dst)),
        );
        for g in [weighted(), multi_block(3 * BLOCK_ROWS as u32 + 5), unit] {
            let c = g.compress();
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
                for w in g.vertices().take(70) {
                    assert_eq!(c.has_edge(v, w), g.has_edge(v, w));
                    assert_eq!(c.edge_weight(v, w), g.edge_weight(v, w));
                }
                let (block, r) = (v as usize / BLOCK_ROWS, v as usize % BLOCK_ROWS);
                assert_eq!(
                    c.out_rows().stored_bytes(v),
                    (c.out[block].offsets[r + 1] - c.out[block].offsets[r]) as usize
                );
                assert_eq!(g.out_rows().stored_bytes(v), 4 * g.out_degree(v));
            }
            assert_eq!(c.edges().collect::<Vec<_>>(), g.edges().collect::<Vec<_>>());
        }
    }

    #[test]
    fn compress_with_shards_forwards_to_compress() {
        let g = multi_block(2 * BLOCK_ROWS as u32 + 3);
        for cuts in [&[][..], &[2][..], &[1, 2, 3, 4][..]] {
            assert_eq!(g.compress_with_shards(cuts), g.compress());
        }
        // Compressing a compressed graph shares every block.
        let c = g.compress();
        assert!(c.compress().shares_storage_with(&c));
    }

    #[test]
    fn unit_weight_graphs_drop_weight_streams() {
        let unit = diamond().compress();
        assert_eq!(unit.weight_bytes(), 0);
        assert_eq!(unit.edge_weight(0, 1), Some(1.0));
        let w = weighted().compress();
        assert!(w.weight_bytes() > 0);
        // Per block: a weighted graph whose first block is all 1.0 keeps
        // weights only in the others.
        let n = 2 * BLOCK_ROWS as u32;
        let mixed = CsrGraph::from_edges(
            n as usize,
            (0..n).map(|v| {
                (
                    v,
                    (v + 1) % n,
                    if v < BLOCK_ROWS as u32 { 1.0 } else { 2.0 },
                )
            }),
        )
        .compress();
        let kept = |t: &BlockTable| t.iter().map(|b| b.weight_bytes() > 0).collect::<Vec<_>>();
        assert_eq!(kept(&mixed.out), vec![false, true]);
        assert_eq!(mixed.edge_weight(0, 1), Some(1.0));
        assert_eq!(mixed.edge_weight(n - 1, 0), Some(2.0));
        assert_eq!(mixed.decompress().compress(), mixed);
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
        // Mixed encodings never share or compare equal, even for the
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
    fn compressed_updates_stay_compressed_and_relabels_go_flat() {
        let g = weighted();
        let c = g.compress();
        let relabeled = c.relabeled(&Permutation::from_order(vec![4, 3, 2, 1, 0]));
        assert!(!relabeled.is_compressed());
        assert_eq!(
            relabeled,
            g.relabeled(&Permutation::from_order(vec![4, 3, 2, 1, 0]))
        );
        let batch = [
            EdgeUpdate::remove(0, 1),
            EdgeUpdate::insert_weighted(2, 6, 0.5),
        ];
        let updated = c.apply_updates(&batch);
        assert!(updated.is_compressed());
        assert_eq!(updated, g.apply_updates(&batch).compress());
        // An empty compressed graph grows compressed too.
        let grown = CsrGraph::empty(0)
            .compress()
            .apply_updates(&[EdgeUpdate::insert(0, 1)]);
        assert!(grown.is_compressed());
        assert_eq!(grown.decompress(), CsrGraph::from_edges(2, [(0u32, 1u32)]));
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
        let _ = c.in_rows().ids(0);
    }
}
