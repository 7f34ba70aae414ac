//! Compressed sparse row (CSR) storage for directed weighted graphs.
//!
//! Both the out-adjacency (`v -> w`) and the in-adjacency (`u -> v`,
//! indexed by `v`) are materialized: asynchronous iterative engines gather
//! from *in-neighbors* (paper Eq. 2), while reordering methods and
//! traversals scan out-neighbors. Neighbor lists are sorted by vertex id,
//! which makes `has_edge` a binary search and keeps all downstream
//! algorithms deterministic.
//!
//! A graph lives in one of two storage backends behind [`CsrStorage`]:
//!
//! - **Uncompressed** — flat offset/target/weight arrays, the default and
//!   the only backend the reordering pipeline and cache simulator accept
//!   (they index raw arrays);
//! - **Compressed** — per-vertex delta-varint neighbor blocks
//!   ([`crate::compressed`]) sharded by contiguous vertex ranges, at a
//!   few bytes per edge after a locality-improving reorder. Produced by
//!   [`CsrGraph::compress`]; the engines decode rows on the fly, so
//!   iterative algorithms run without ever materializing the flat
//!   adjacency.
//!
//! Slice-returning accessors ([`CsrGraph::out_neighbors`], the `raw_*`
//! family) require uncompressed storage and panic otherwise; streaming
//! accessors ([`CsrGraph::in_edges`], [`CsrGraph::out_edges`],
//! [`CsrGraph::for_each_out_neighbor`], …) work on both backends.

use crate::builder::{csr_from_sorted_edges, GraphBuilder};
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

/// A directed, weighted graph in CSR form with both adjacency directions.
///
/// Construct via [`GraphBuilder`], [`CsrGraph::from_edges`], or a generator
/// in [`crate::generators`].
///
/// A `CsrGraph` is immutable once built (every "mutation" —
/// [`CsrGraph::apply_updates`], [`CsrGraph::relabeled`] — produces a new
/// graph), so the payload arrays live behind [`Arc`]s and **`clone` is
/// O(1)**: it shares storage instead of deep-copying. That is what makes
/// publishing an epoch snapshot of an evolving graph cheap — see
/// [`CsrGraph::snapshot`].
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
    /// contiguous array instead of two offset lookups matters in the
    /// gather inner loop. Present for both backends (compressed rows are
    /// degree-delimited, so this array is load-bearing there too).
    out_degrees: Arc<Vec<u32>>,
    storage: CsrStorage,
}

/// The two storage backends of a [`CsrGraph`].
#[derive(Debug, Clone, PartialEq)]
enum CsrStorage {
    Uncompressed(FlatCsr),
    Compressed(CompressedCsr),
}

/// Flat CSR arrays (the uncompressed backend).
#[derive(Debug, Clone, PartialEq)]
struct FlatCsr {
    out_offsets: Arc<Vec<usize>>,
    out_targets: Arc<Vec<VertexId>>,
    out_weights: Arc<Vec<Weight>>,
    in_offsets: Arc<Vec<usize>>,
    in_sources: Arc<Vec<VertexId>>,
    in_weights: Arc<Vec<Weight>>,
}

impl FlatCsr {
    #[inline]
    fn out_range(&self, v: VertexId) -> (usize, usize) {
        let v = v as usize;
        (self.out_offsets[v], self.out_offsets[v + 1])
    }

    #[inline]
    fn in_range(&self, v: VertexId) -> (usize, usize) {
        let v = v as usize;
        (self.in_offsets[v], self.in_offsets[v + 1])
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

/// Per-vertex range widths of a CSR offset array.
fn degrees_from_offsets(offsets: &[usize]) -> Vec<u32> {
    offsets.windows(2).map(|w| (w[1] - w[0]) as u32).collect()
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

/// One adjacency direction with `overrides` spliced in, grown to
/// `num_rows` rows. `overrides` holds `(row, neighbor, state)` sorted by
/// `(row, neighbor)` with each pair at most once and every row below
/// `num_rows`; `Some(w)` sets the pair's weight, `None` drops the pair.
/// Spans of rows between overridden rows are copied whole; an
/// overridden row is merged neighbor by neighbor.
fn splice_rows(
    num_rows: usize,
    offsets: &[usize],
    ids: &[VertexId],
    weights: &[Weight],
    overrides: &[(VertexId, VertexId, Option<Weight>)],
) -> (Vec<usize>, Vec<VertexId>, Vec<Weight>) {
    let old_rows = offsets.len() - 1;
    let mut new_offsets = Vec::with_capacity(num_rows + 1);
    let mut new_ids = Vec::with_capacity(ids.len() + overrides.len());
    let mut new_weights = Vec::with_capacity(ids.len() + overrides.len());
    let mut i = 0;
    loop {
        // Rows up to the next overridden one (or the end) are unchanged;
        // those past the old row count are empty.
        let row = overrides.get(i).map_or(num_rows, |o| o.0 as usize);
        let from = new_offsets.len();
        let old_upto = row.min(old_rows);
        if from < old_upto {
            let (s, e) = (offsets[from], offsets[old_upto]);
            let shifted = new_ids.len();
            new_offsets.extend(offsets[from..old_upto].iter().map(|&o| shifted + (o - s)));
            new_ids.extend_from_slice(&ids[s..e]);
            new_weights.extend_from_slice(&weights[s..e]);
        }
        new_offsets.resize(row, new_ids.len());
        if i == overrides.len() {
            break;
        }
        new_offsets.push(new_ids.len());
        let (mut k, e) = if row < old_rows {
            (offsets[row], offsets[row + 1])
        } else {
            (0, 0)
        };
        while i < overrides.len() && overrides[i].0 as usize == row {
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
    new_offsets.push(new_ids.len());
    (new_offsets, new_ids, new_weights)
}

/// `(neighbor, weight)` stream over either backend: borrowed zip of the
/// flat slices, or a decoded row buffer for compressed storage.
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
    /// Builds a graph from raw CSR arrays. Used by [`GraphBuilder`];
    /// callers should prefer the builder.
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent (offset lengths, edge counts).
    pub(crate) fn from_parts(
        num_vertices: usize,
        out_offsets: Vec<usize>,
        out_targets: Vec<VertexId>,
        out_weights: Vec<Weight>,
        in_offsets: Vec<usize>,
        in_sources: Vec<VertexId>,
        in_weights: Vec<Weight>,
    ) -> Self {
        assert_eq!(out_offsets.len(), num_vertices + 1, "bad out_offsets");
        assert_eq!(in_offsets.len(), num_vertices + 1, "bad in_offsets");
        assert_eq!(out_targets.len(), *out_offsets.last().unwrap());
        assert_eq!(in_sources.len(), *in_offsets.last().unwrap());
        assert_eq!(out_targets.len(), in_sources.len(), "edge count mismatch");
        assert_eq!(out_weights.len(), out_targets.len());
        assert_eq!(in_weights.len(), in_sources.len());
        let out_degrees = degrees_from_offsets(&out_offsets);
        CsrGraph {
            num_vertices,
            out_degrees: Arc::new(out_degrees),
            storage: CsrStorage::Uncompressed(FlatCsr {
                out_offsets: Arc::new(out_offsets),
                out_targets: Arc::new(out_targets),
                out_weights: Arc::new(out_weights),
                in_offsets: Arc::new(in_offsets),
                in_sources: Arc::new(in_sources),
                in_weights: Arc::new(in_weights),
            }),
        }
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
        CsrGraph {
            num_vertices,
            out_degrees: Arc::new(vec![0; num_vertices]),
            storage: CsrStorage::Uncompressed(FlatCsr {
                out_offsets: Arc::new(vec![0; num_vertices + 1]),
                out_targets: Arc::new(Vec::new()),
                out_weights: Arc::new(Vec::new()),
                in_offsets: Arc::new(vec![0; num_vertices + 1]),
                in_sources: Arc::new(Vec::new()),
                in_weights: Arc::new(Vec::new()),
            }),
        }
    }

    /// The flat arrays, or a panic on compressed storage — the shared
    /// guard behind every slice-returning accessor.
    #[inline]
    fn flat(&self) -> &FlatCsr {
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
    #[inline]
    pub fn snapshot(&self) -> CsrGraph {
        self.clone()
    }

    /// True when `self` and `other` share the same backing arrays (i.e.
    /// one is a [`CsrGraph::snapshot`]/`clone` of the other and neither
    /// has been rebuilt since). Graphs on different backends never share.
    pub fn shares_storage_with(&self, other: &CsrGraph) -> bool {
        match (&self.storage, &other.storage) {
            (CsrStorage::Uncompressed(a), CsrStorage::Uncompressed(b)) => {
                Arc::ptr_eq(&a.out_offsets, &b.out_offsets)
                    && Arc::ptr_eq(&a.out_targets, &b.out_targets)
                    && Arc::ptr_eq(&a.out_weights, &b.out_weights)
                    && Arc::ptr_eq(&a.in_offsets, &b.in_offsets)
                    && Arc::ptr_eq(&a.in_sources, &b.in_sources)
                    && Arc::ptr_eq(&a.in_weights, &b.in_weights)
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

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        match &self.storage {
            CsrStorage::Uncompressed(f) => f.out_targets.len(),
            CsrStorage::Compressed(c) => c.out.num_targets(),
        }
    }

    /// Iterator over all vertex ids `0..n`.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices as VertexId
    }

    /// Out-neighbors of `v`, sorted ascending.
    ///
    /// # Panics
    /// Panics on compressed storage (no flat slice exists to borrow);
    /// use [`CsrGraph::for_each_out_neighbor`] or
    /// [`CsrGraph::out_edges`] there.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        let f = self.flat();
        let (s, e) = f.out_range(v);
        &f.out_targets[s..e]
    }

    /// Weights parallel to [`CsrGraph::out_neighbors`]. Flat storage only.
    #[inline]
    pub fn out_weights(&self, v: VertexId) -> &[Weight] {
        let f = self.flat();
        let (s, e) = f.out_range(v);
        &f.out_weights[s..e]
    }

    /// In-neighbors of `v` (sources of edges into `v`), sorted ascending.
    /// Flat storage only (see [`CsrGraph::out_neighbors`]).
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        let f = self.flat();
        let (s, e) = f.in_range(v);
        &f.in_sources[s..e]
    }

    /// Weights parallel to [`CsrGraph::in_neighbors`]. Flat storage only.
    #[inline]
    pub fn in_weights(&self, v: VertexId) -> &[Weight] {
        let f = self.flat();
        let (s, e) = f.in_range(v);
        &f.in_weights[s..e]
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
            CsrStorage::Uncompressed(fl) => {
                let (s, e) = fl.out_range(v);
                for &w in &fl.out_targets[s..e] {
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
            CsrStorage::Uncompressed(fl) => {
                let (s, e) = fl.in_range(v);
                for &w in &fl.in_sources[s..e] {
                    f(w);
                }
            }
            CsrStorage::Compressed(c) => c.inc.for_each(v, f),
        }
    }

    /// Out-degree of `v` (served from the cached degree array: one load
    /// instead of two offset lookups).
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
            CsrStorage::Uncompressed(f) => {
                let (s, e) = f.in_range(v);
                EdgePairs::Flat(
                    f.in_sources[s..e]
                        .iter()
                        .copied()
                        .zip(f.in_weights[s..e].iter().copied()),
                )
            }
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
            CsrStorage::Uncompressed(f) => {
                let (s, e) = f.out_range(v);
                EdgePairs::Flat(
                    f.out_targets[s..e]
                        .iter()
                        .copied()
                        .zip(f.out_weights[s..e].iter().copied()),
                )
            }
            CsrStorage::Compressed(c) => EdgePairs::Decoded(
                decoded_pairs(&c.out, self.compressed_out_weight_streams(), v).into_iter(),
            ),
        }
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        match &self.storage {
            CsrStorage::Uncompressed(f) => {
                let (s, e) = f.in_range(v);
                e - s
            }
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
        match &self.storage {
            CsrStorage::Uncompressed(_) => self.out_neighbors(u).binary_search(&v).is_ok(),
            CsrStorage::Compressed(c) => {
                let mut found = false;
                c.out.for_each(u, |w| found |= w == v);
                found
            }
        }
    }

    /// Weight of edge `(u, v)` if present.
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        match &self.storage {
            CsrStorage::Uncompressed(f) => {
                let (s, _) = f.out_range(u);
                self.out_neighbors(u)
                    .binary_search(&v)
                    .ok()
                    .map(|i| f.out_weights[s + i])
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

    /// The transposed graph (every edge reversed). The adjacency arrays
    /// are shared with `self` (swapped roles), not copied; only the
    /// degree cache is swapped/recomputed. Works on both backends.
    pub fn reversed(&self) -> CsrGraph {
        match &self.storage {
            CsrStorage::Uncompressed(f) => CsrGraph {
                num_vertices: self.num_vertices,
                out_degrees: Arc::new(degrees_from_offsets(&f.in_offsets)),
                storage: CsrStorage::Uncompressed(FlatCsr {
                    out_offsets: Arc::clone(&f.in_offsets),
                    out_targets: Arc::clone(&f.in_sources),
                    out_weights: Arc::clone(&f.in_weights),
                    in_offsets: Arc::clone(&f.out_offsets),
                    in_sources: Arc::clone(&f.out_targets),
                    in_weights: Arc::clone(&f.out_weights),
                }),
            },
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
    /// The result is always on the uncompressed backend (relabeling goes
    /// through the builder); re-[`CsrGraph::compress`] afterwards if
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
        let mut b = GraphBuilder::with_capacity(self.num_vertices, self.num_edges());
        for e in self.edges() {
            b.add_edge(perm.new_id(e.src), perm.new_id(e.dst), e.weight);
        }
        b.build()
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
    /// and spliced into each adjacency direction: rows no override
    /// touches are copied in whole spans with their offsets shifted, and
    /// only the touched rows are merged — one copy of the arrays, with
    /// no edge list, sort or per-edge pass.
    ///
    /// The result is always on the uncompressed backend (a compressed
    /// input is decompressed first).
    pub fn apply_updates(&self, updates: &[EdgeUpdate]) -> CsrGraph {
        use std::collections::HashMap;
        let base = self.decompress();
        let f = base.flat();
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

        let (out_offsets, out_targets, out_weights) = splice_rows(
            num_vertices,
            &f.out_offsets,
            &f.out_targets,
            &f.out_weights,
            &by_src,
        );
        let (in_offsets, in_sources, in_weights) = splice_rows(
            num_vertices,
            &f.in_offsets,
            &f.in_sources,
            &f.in_weights,
            &by_dst,
        );
        CsrGraph::from_parts(
            num_vertices,
            out_offsets,
            out_targets,
            out_weights,
            in_offsets,
            in_sources,
            in_weights,
        )
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
        let f = self.flat();
        let mut global_to_local = vec![VertexId::MAX; self.num_vertices];
        for (i, &v) in vertices.iter().enumerate() {
            debug_assert!(
                global_to_local[v as usize] == VertexId::MAX,
                "duplicate vertex in induced_subgraph"
            );
            global_to_local[v as usize] = i as VertexId;
        }
        let ascending = vertices.windows(2).all(|w| w[0] < w[1]);
        if !ascending {
            let mut b = GraphBuilder::with_capacity(vertices.len(), 0);
            for &v in vertices {
                let lv = global_to_local[v as usize];
                let (s, e) = f.out_range(v);
                for i in s..e {
                    let w = f.out_targets[i];
                    let lw = global_to_local[w as usize];
                    if lw != VertexId::MAX {
                        b.add_edge(lv, lw, f.out_weights[i]);
                    }
                }
            }
            return (b.build(), vertices.to_vec());
        }

        let map = &global_to_local;
        let filter_rows = |chunk: &[VertexId]| -> Vec<Edge> {
            let mut edges = Vec::new();
            for &v in chunk {
                let lv = map[v as usize];
                let (s, e) = f.out_range(v);
                for i in s..e {
                    let lw = map[f.out_targets[i] as usize];
                    if lw != VertexId::MAX {
                        edges.push(Edge {
                            src: lv,
                            dst: lw,
                            weight: f.out_weights[i],
                        });
                    }
                }
            }
            edges
        };
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
            csr_from_sorted_edges(vertices.len(), &edges),
            vertices.to_vec(),
        )
    }

    /// Splits every vertex's in-edge list into contiguous spans whose
    /// sources share one `block_vertices`-sized id block: entry
    /// `(v, start, end)` of block `b` means `raw_in_sources[start..end]`
    /// are `v`'s in-neighbors with ids in `[b·block, (b+1)·block)`
    /// (in-neighbor lists are id-sorted, so the split is contiguous and
    /// fold order is preserved when blocks are visited in order).
    ///
    /// This is the span partition behind the engines' cache-blocked
    /// dense pull sweep **and** the cache simulator's replay of it —
    /// shared here so the simulated access pattern can never drift from
    /// the executed one. Flat indices are `u32`; callers must check
    /// `num_edges() <= u32::MAX`. Flat storage only (the blocked sweep
    /// declines to build on compressed graphs).
    pub fn in_source_block_spans(&self, block_vertices: usize) -> Vec<Vec<(VertexId, u32, u32)>> {
        let f = self.flat();
        let block_vertices = block_vertices.max(1);
        let num_blocks = self.num_vertices.div_ceil(block_vertices).max(1);
        let mut spans: Vec<Vec<(VertexId, u32, u32)>> = vec![Vec::new(); num_blocks];
        for v in 0..self.num_vertices {
            let (s, e) = f.in_range(v as VertexId);
            let mut i = s;
            while i < e {
                let b = f.in_sources[i] as usize / block_vertices;
                let block_end = ((b + 1) * block_vertices) as VertexId;
                let mut j = i + 1;
                while j < e && f.in_sources[j] < block_end {
                    j += 1;
                }
                spans[b].push((v as VertexId, i as u32, j as u32));
                i = j;
            }
        }
        spans
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
    /// evenly split vertex-range shards (~[`DEFAULT_SHARD_VERTICES`]
    /// vertices each). See [`CsrGraph::compress_with_shards`] to shard
    /// along a partition's ranges instead.
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
        let f = self.flat();
        let out = CompressedAdjacency::from_csr(
            self.num_vertices,
            &f.out_offsets,
            &f.out_targets,
            shard_starts,
        );
        let inc = CompressedAdjacency::from_csr(
            self.num_vertices,
            &f.in_offsets,
            &f.in_sources,
            shard_starts,
        );
        let unit = f.out_weights.iter().all(|&w| w == 1.0);
        let weights = if unit {
            None
        } else {
            Some(Arc::new(WeightStreams {
                out_offsets: Arc::clone(&f.out_offsets),
                out_weights: Arc::clone(&f.out_weights),
                in_offsets: Arc::clone(&f.in_offsets),
                in_weights: Arc::clone(&f.in_weights),
            }))
        };
        CsrGraph {
            num_vertices: self.num_vertices,
            out_degrees: out.degrees_arc(),
            storage: CsrStorage::Compressed(CompressedCsr {
                out: Arc::new(out),
                inc: Arc::new(inc),
                weights,
            }),
        }
    }

    /// Decodes a compressed graph back to flat arrays (identity clone on
    /// flat storage). `decompress(compress(g)) == g`.
    pub fn decompress(&self) -> CsrGraph {
        let c = match &self.storage {
            CsrStorage::Uncompressed(_) => return self.clone(),
            CsrStorage::Compressed(c) => c,
        };
        let m = c.out.num_targets();
        let decode_ids = |adj: &CompressedAdjacency| -> Vec<VertexId> {
            let mut ids = Vec::with_capacity(m);
            for v in 0..self.num_vertices as VertexId {
                adj.for_each(v, |w| ids.push(w));
            }
            ids
        };
        let (out_weights, in_weights) = match &c.weights {
            Some(w) => (w.out_weights.to_vec(), w.in_weights.to_vec()),
            None => (vec![1.0; m], vec![1.0; m]),
        };
        CsrGraph::from_parts(
            self.num_vertices,
            offsets_from_degrees(c.out.degrees()),
            decode_ids(&c.out),
            out_weights,
            offsets_from_degrees(c.inc.degrees()),
            decode_ids(&c.inc),
            in_weights,
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
    /// degree caches — everything except edge-weight payloads). This is
    /// the quantity compression shrinks, and the numerator of
    /// bytes-per-edge reporting.
    pub fn adjacency_bytes(&self) -> usize {
        match &self.storage {
            CsrStorage::Uncompressed(f) => {
                f.out_offsets.capacity() * std::mem::size_of::<usize>()
                    + f.in_offsets.capacity() * std::mem::size_of::<usize>()
                    + f.out_targets.capacity() * std::mem::size_of::<VertexId>()
                    + f.in_sources.capacity() * std::mem::size_of::<VertexId>()
                    + self.out_degrees.capacity() * std::mem::size_of::<u32>()
            }
            CsrStorage::Compressed(c) => c.out.memory_bytes() + c.inc.memory_bytes(),
        }
    }

    /// Heap bytes of edge-weight payloads (zero for a unit-weight
    /// compressed graph, which stores no weight streams).
    pub fn weight_bytes(&self) -> usize {
        match &self.storage {
            CsrStorage::Uncompressed(f) => {
                (f.out_weights.capacity() + f.in_weights.capacity()) * std::mem::size_of::<Weight>()
            }
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
    /// accounting): adjacency structure plus weight payloads.
    pub fn memory_bytes(&self) -> usize {
        self.adjacency_bytes() + self.weight_bytes()
    }

    // ---- raw flat-array accessors (uncompressed backend only) ---------

    /// Raw out-offset array (length `n + 1`); used by the cache simulator
    /// to model CSR index accesses. Flat storage only.
    #[inline]
    pub fn raw_out_offsets(&self) -> &[usize] {
        &self.flat().out_offsets
    }

    /// Raw in-offset array (length `n + 1`). Flat storage only.
    #[inline]
    pub fn raw_in_offsets(&self) -> &[usize] {
        &self.flat().in_offsets
    }

    /// Raw flattened in-source array (all vertices' in-neighbors
    /// concatenated, indexed by [`CsrGraph::raw_in_offsets`]); the
    /// engines' gather kernels stream this directly. Flat storage only.
    #[inline]
    pub fn raw_in_sources(&self) -> &[VertexId] {
        &self.flat().in_sources
    }

    /// Raw flattened in-weight array, parallel to
    /// [`CsrGraph::raw_in_sources`]. Flat storage only.
    #[inline]
    pub fn raw_in_weights(&self) -> &[Weight] {
        &self.flat().in_weights
    }

    /// Raw flattened out-target array (all vertices' out-neighbors
    /// concatenated, indexed by [`CsrGraph::raw_out_offsets`]); the
    /// engines' push (scatter) kernels stream this directly. Flat
    /// storage only.
    #[inline]
    pub fn raw_out_targets(&self) -> &[VertexId] {
        &self.flat().out_targets
    }

    /// Raw flattened out-weight array, parallel to
    /// [`CsrGraph::raw_out_targets`]. Flat storage only.
    #[inline]
    pub fn raw_out_weights(&self) -> &[Weight] {
        &self.flat().out_weights
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
        // The shared arrays really are the same allocations.
        assert!(std::ptr::eq(g.raw_out_targets(), snap.raw_out_targets()));
        assert!(std::ptr::eq(g.raw_in_sources(), snap.raw_in_sources()));
        // A rebuilt graph (even an identical one) does not alias.
        let rebuilt = g.apply_updates(&[]);
        assert_eq!(rebuilt, g);
        assert!(!rebuilt.shares_storage_with(&g));
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
        assert!(std::ptr::eq(g.raw_in_sources(), r.raw_out_targets()));
        assert!(std::ptr::eq(g.raw_out_targets(), r.raw_in_sources()));
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
    fn raw_accessors_panic_on_compressed() {
        let c = diamond().compress();
        let _ = c.raw_in_offsets();
    }
}
