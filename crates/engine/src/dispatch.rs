//! The static-dispatch layer between the [`crate::Pipeline`] API and the
//! engine kernels, plus the prebuilt gather context those kernels consume.
//!
//! [`crate::execute`] accepts a `&dyn` algorithm, so callers never name
//! a concrete type — but before entering the round loop it asks the
//! algorithm to identify itself as one of the built-ins via
//! [`IterativeAlgorithm::monomorphized`]. A `Some` answer
//! routes into a kernel instantiated for that concrete type, so `gather`
//! / `apply` / `norm` inline into the per-edge loop (no vtable call per
//! edge); `None` — the default for user-supplied algorithms — falls back
//! to the same kernel instantiated for `dyn IterativeAlgorithm`, which
//! behaves exactly like the historical engines.
//!
//! Dispatch layers, outermost first:
//!
//! 1. [`AlgorithmKind`] / [`DeltaAlgorithmKind`] — enum over the built-in
//!    algorithms, matched **once per run**;
//! 2. the monomorphized kernel (one per engine) — the round loop with
//!    everything statically dispatched;
//! 3. the `dyn` fallback — the same kernel with `A = dyn
//!    IterativeAlgorithm`, for user-supplied boxed algorithms.

use crate::algorithm::IterativeAlgorithm;
use crate::algorithms::{Adsorption, Bfs, ConnectedComponents, Katz, PageRank, Php, Sssp, Sswp};
use crate::delta::{DeltaAlgorithm, DeltaPageRank, DeltaSssp};
use gograph_graph::{CsrGraph, VertexId, Weight};

/// A by-value copy of one of the eight built-in gather algorithms.
///
/// Returned by [`IterativeAlgorithm::monomorphized`]; each variant selects
/// a statically dispatched kernel instantiation.
#[derive(Debug, Clone)]
pub enum AlgorithmKind {
    /// [`PageRank`].
    PageRank(PageRank),
    /// [`Sssp`].
    Sssp(Sssp),
    /// [`Bfs`].
    Bfs(Bfs),
    /// [`Php`].
    Php(Php),
    /// [`ConnectedComponents`].
    ConnectedComponents(ConnectedComponents),
    /// [`Sswp`].
    Sswp(Sswp),
    /// [`Katz`].
    Katz(Katz),
    /// [`Adsorption`].
    Adsorption(Adsorption),
}

/// A by-value copy of one of the built-in delta algorithms — the delta
/// engines' counterpart of [`AlgorithmKind`].
#[derive(Debug, Clone, Copy)]
pub enum DeltaAlgorithmKind {
    /// [`DeltaPageRank`].
    PageRank(DeltaPageRank),
    /// [`DeltaSssp`].
    Sssp(DeltaSssp),
}

/// Opts an algorithm of either family out of kernel monomorphization:
/// the engines treat the wrapped algorithm as user-supplied and run the
/// `dyn`-dispatch fallback path. Used by the equivalence tests to compare
/// the two paths; delegates every trait method unchanged.
#[derive(Debug, Clone, Copy)]
pub struct DynOnly<A>(pub A);

impl<A: IterativeAlgorithm> IterativeAlgorithm for DynOnly<A> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn init(&self, g: &CsrGraph, v: VertexId) -> f64 {
        self.0.init(g, v)
    }
    fn gather_identity(&self) -> f64 {
        self.0.gather_identity()
    }
    #[inline]
    fn gather(&self, acc: f64, neighbor_state: f64, w: Weight, neighbor_out_degree: usize) -> f64 {
        self.0.gather(acc, neighbor_state, w, neighbor_out_degree)
    }
    #[inline]
    fn apply(&self, g: &CsrGraph, v: VertexId, current: f64, acc: f64) -> f64 {
        self.0.apply(g, v, current, acc)
    }
    fn monotonicity(&self) -> crate::algorithm::Monotonicity {
        self.0.monotonicity()
    }
    fn norm(&self) -> crate::algorithm::ConvergenceNorm {
        self.0.norm()
    }
    fn epsilon(&self) -> f64 {
        self.0.epsilon()
    }
    fn monomorphized(&self) -> Option<AlgorithmKind> {
        None // the whole point of the wrapper
    }
    fn uses_edge_weights(&self) -> bool {
        self.0.uses_edge_weights()
    }
    fn supports_push(&self) -> bool {
        self.0.supports_push()
    }
}

impl<A: DeltaAlgorithm> DeltaAlgorithm for DynOnly<A> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn init_state(&self, g: &CsrGraph, v: VertexId) -> f64 {
        self.0.init_state(g, v)
    }
    fn init_delta(&self, g: &CsrGraph, v: VertexId) -> f64 {
        self.0.init_delta(g, v)
    }
    fn identity(&self) -> f64 {
        self.0.identity()
    }
    #[inline]
    fn combine(&self, a: f64, b: f64) -> f64 {
        self.0.combine(a, b)
    }
    #[inline]
    fn propagate(&self, g: &CsrGraph, u: VertexId, w: VertexId, weight: Weight, delta: f64) -> f64 {
        self.0.propagate(g, u, w, weight, delta)
    }
    #[inline]
    fn significant(&self, state: f64, delta: f64) -> bool {
        self.0.significant(state, delta)
    }
    fn combine_is_idempotent(&self) -> bool {
        self.0.combine_is_idempotent()
    }
    fn monomorphized(&self) -> Option<DeltaAlgorithmKind> {
        None
    }
}

/// Expands `$body` once per built-in algorithm kind with `$a` bound to the
/// concrete algorithm (monomorphizing the kernel call in `$body`), plus a
/// fallback arm with `$a` bound to the original `&dyn` reference.
macro_rules! dispatch_gather {
    ($alg:expr, $a:ident => $body:expr) => {{
        use $crate::dispatch::AlgorithmKind as __K;
        let __alg = $alg;
        match $crate::algorithm::IterativeAlgorithm::monomorphized(__alg) {
            Some(__K::PageRank($a)) => {
                let $a = &$a;
                $body
            }
            Some(__K::Sssp($a)) => {
                let $a = &$a;
                $body
            }
            Some(__K::Bfs($a)) => {
                let $a = &$a;
                $body
            }
            Some(__K::Php($a)) => {
                let $a = &$a;
                $body
            }
            Some(__K::ConnectedComponents($a)) => {
                let $a = &$a;
                $body
            }
            Some(__K::Sswp($a)) => {
                let $a = &$a;
                $body
            }
            Some(__K::Katz($a)) => {
                let $a = &$a;
                $body
            }
            Some(__K::Adsorption($a)) => {
                let $a = &$a;
                $body
            }
            None => {
                let $a = __alg;
                $body
            }
        }
    }};
}
pub(crate) use dispatch_gather;

/// Delta-family counterpart of [`dispatch_gather!`].
macro_rules! dispatch_delta {
    ($alg:expr, $a:ident => $body:expr) => {{
        use $crate::dispatch::DeltaAlgorithmKind as __K;
        let __alg = $alg;
        match $crate::delta::DeltaAlgorithm::monomorphized(__alg) {
            Some(__K::PageRank($a)) => {
                let $a = &$a;
                $body
            }
            Some(__K::Sssp($a)) => {
                let $a = &$a;
                $body
            }
            None => {
                let $a = __alg;
                $body
            }
        }
    }};
}
pub(crate) use dispatch_delta;

/// Prebuilt per-run gather inputs: the in-adjacency streams plus the
/// graph's cached out-degree array — so the per-edge loop walks
/// contiguous streams with one index instead of re-deriving per-vertex
/// slices and offset pairs, and the PageRank-family `out_degree(u)`
/// lookup is one load. Algorithms whose gather is weight-free
/// ([`IterativeAlgorithm::uses_edge_weights`] `== false`) skip the
/// weight stream entirely.
///
/// The streams come in two variants matching the graph's storage
/// backend: flat slices of the raw CSR arrays, or a decode-per-row view
/// of the compressed adjacency ([`gograph_graph::CompressedAdjacency`])
/// whose varint blocks are decoded inline in the gather loop — no
/// materialized adjacency, same fold order, bit-identical results.
///
/// Construction is `O(1)`: the context borrows the graph's own storage.
pub struct GatherContext<'g> {
    streams: GatherStreams<'g>,
    pub(crate) out_degrees: &'g [u32],
}

/// The per-backend in-edge streams of a [`GatherContext`].
enum GatherStreams<'g> {
    Flat {
        in_offsets: &'g [usize],
        in_sources: &'g [VertexId],
        in_weights: &'g [Weight],
    },
    Compressed {
        adj: &'g gograph_graph::CompressedAdjacency,
        /// `(offsets, weights)` parallel to the decoded rows; `None` for
        /// unit-weight graphs (every edge weight is `1.0`).
        weights: Option<(&'g [usize], &'g [Weight])>,
    },
}

impl<'g> GatherContext<'g> {
    /// Builds the context for `g` (either storage backend).
    pub fn new(g: &'g CsrGraph) -> Self {
        let streams = match g.compressed_in_adjacency() {
            Some(adj) => GatherStreams::Compressed {
                adj,
                weights: g.compressed_in_weight_streams(),
            },
            None => GatherStreams::Flat {
                in_offsets: g.raw_in_offsets(),
                in_sources: g.raw_in_sources(),
                in_weights: g.raw_in_weights(),
            },
        };
        GatherContext {
            streams,
            out_degrees: g.out_degrees(),
        }
    }

    /// The in-edge index range of `v` into the flat streams.
    ///
    /// # Panics
    /// Panics on compressed storage — rows there are byte blocks, not
    /// index ranges; use [`GatherContext::gather_with`].
    #[inline(always)]
    pub fn in_range(&self, v: VertexId) -> (usize, usize) {
        match &self.streams {
            GatherStreams::Flat { in_offsets, .. } => {
                let v = v as usize;
                (in_offsets[v], in_offsets[v + 1])
            }
            GatherStreams::Compressed { .. } => {
                panic!("in_range requires flat storage; compressed rows are byte blocks")
            }
        }
    }

    /// The cached out-degree array (indexed by vertex id).
    #[inline(always)]
    pub fn out_degrees(&self) -> &[u32] {
        self.out_degrees
    }

    /// Folds all of `v`'s in-neighbor contributions into `alg`'s gather
    /// accumulator, reading neighbor states from `states`.
    #[inline(always)]
    pub fn gather<A: IterativeAlgorithm + ?Sized>(
        &self,
        alg: &A,
        v: VertexId,
        states: &[f64],
    ) -> f64 {
        self.gather_with(alg, v, |u| states[u])
    }

    /// [`GatherContext::gather`] parameterized over the state reader —
    /// the single definition of the hot per-edge loop, shared by the
    /// sequential kernels (plain `&[f64]` reads) and the block-parallel
    /// kernel (atomic loads). With a concrete `A` everything inlines,
    /// the `uses_edge_weights` branch constant-folds, and weight-free
    /// algorithms never touch the weight stream.
    #[inline(always)]
    pub fn gather_with<A: IterativeAlgorithm + ?Sized>(
        &self,
        alg: &A,
        v: VertexId,
        read: impl Fn(usize) -> f64,
    ) -> f64 {
        match &self.streams {
            GatherStreams::Flat { in_offsets, .. } => {
                let (s, e) = (in_offsets[v as usize], in_offsets[v as usize + 1]);
                self.gather_range(alg, alg.gather_identity(), s, e, read)
            }
            GatherStreams::Compressed { adj, weights } => {
                let mut acc = alg.gather_identity();
                if alg.uses_edge_weights() {
                    match weights {
                        Some((offsets, ws)) => {
                            // Weighted graph: walk the flat weight stream
                            // in lockstep with the decoded id stream.
                            let mut i = offsets[v as usize];
                            adj.for_each(v, |u| {
                                let u = u as usize;
                                acc = alg.gather(acc, read(u), ws[i], self.out_degrees[u] as usize);
                                i += 1;
                            });
                        }
                        None => {
                            // Weight streams are dropped exactly when
                            // every weight is 1.0, so the constant is the
                            // true per-edge weight here.
                            adj.for_each(v, |u| {
                                let u = u as usize;
                                acc = alg.gather(acc, read(u), 1.0, self.out_degrees[u] as usize);
                            });
                        }
                    }
                } else {
                    adj.for_each(v, |u| {
                        let u = u as usize;
                        acc = alg.gather(acc, read(u), 1.0, self.out_degrees[u] as usize);
                    });
                }
                acc
            }
        }
    }

    /// Folds the in-edge stream slice `[s, e)` into `acc` — the
    /// innermost per-edge loop of [`GatherContext::gather_with`] on flat
    /// storage (compressed rows are byte blocks with no flat index
    /// ranges).
    #[inline(always)]
    pub(crate) fn gather_range<A: IterativeAlgorithm + ?Sized>(
        &self,
        alg: &A,
        mut acc: f64,
        s: usize,
        e: usize,
        read: impl Fn(usize) -> f64,
    ) -> f64 {
        let (in_sources, in_weights) = match &self.streams {
            GatherStreams::Flat {
                in_sources,
                in_weights,
                ..
            } => (*in_sources, *in_weights),
            GatherStreams::Compressed { .. } => {
                panic!("gather_range requires flat storage; compressed rows are byte blocks")
            }
        };
        if alg.uses_edge_weights() {
            for i in s..e {
                let u = in_sources[i] as usize;
                acc = alg.gather(acc, read(u), in_weights[i], self.out_degrees[u] as usize);
            }
        } else {
            for &u in &in_sources[s..e] {
                let u = u as usize;
                acc = alg.gather(acc, read(u), 1.0, self.out_degrees[u] as usize);
            }
        }
        acc
    }
}

/// Prebuilt per-run scatter inputs — the push-direction counterpart of
/// [`GatherContext`]: the out-adjacency streams plus the cached
/// out-degree array, so a push round walks an active vertex's out-edges
/// as one contiguous stream (flat slices, or rows decoded from the
/// compressed out-adjacency inline). Construction is `O(1)` (borrows
/// the graph's storage). Holds only shared borrows, so the
/// block-parallel engine scatters through one context from many workers
/// concurrently (target-cell races are resolved by its CAS relaxation
/// loop, not here).
pub struct ScatterContext<'g> {
    streams: ScatterStreams<'g>,
    pub(crate) out_degrees: &'g [u32],
}

/// The per-backend out-edge streams of a [`ScatterContext`].
enum ScatterStreams<'g> {
    Flat {
        out_offsets: &'g [usize],
        out_targets: &'g [VertexId],
        out_weights: &'g [Weight],
    },
    Compressed {
        adj: &'g gograph_graph::CompressedAdjacency,
        weights: Option<(&'g [usize], &'g [Weight])>,
    },
}

// Compile-time thread-safety audit: the parallel kernel and snapshot
// readers share these borrowed adjacency views across threads, so they
// must stay `Send + Sync`.
const _: () = {
    const fn require_send_sync<T: Send + Sync>() {}
    require_send_sync::<GatherContext<'static>>();
    require_send_sync::<ScatterContext<'static>>();
};

impl<'g> ScatterContext<'g> {
    /// Builds the context for `g` (either storage backend).
    pub fn new(g: &'g CsrGraph) -> Self {
        let streams = match g.compressed_out_adjacency() {
            Some(adj) => ScatterStreams::Compressed {
                adj,
                weights: g.compressed_out_weight_streams(),
            },
            None => ScatterStreams::Flat {
                out_offsets: g.raw_out_offsets(),
                out_targets: g.raw_out_targets(),
                out_weights: g.raw_out_weights(),
            },
        };
        ScatterContext {
            streams,
            out_degrees: g.out_degrees(),
        }
    }

    /// Out-degree of `v` (one load from the cached array).
    #[inline(always)]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out_degrees[v as usize] as usize
    }

    /// Offers `u`'s state along each of its out-edges: `visit(v, cand)`
    /// receives the target and the single-edge gather candidate
    /// `gather(gather_identity(), state_u, w, |OUT(u)|)`. The caller
    /// folds the candidate into the target's state with `apply` — sound
    /// exactly when [`IterativeAlgorithm::supports_push`] holds. With a
    /// concrete `A` the `uses_edge_weights` branch constant-folds and
    /// weight-free algorithms never touch the weight stream.
    #[inline(always)]
    pub fn scatter<A: IterativeAlgorithm + ?Sized>(
        &self,
        alg: &A,
        u: VertexId,
        state_u: f64,
        mut visit: impl FnMut(VertexId, f64),
    ) {
        let ui = u as usize;
        let du = self.out_degrees[ui] as usize;
        let identity = alg.gather_identity();
        match &self.streams {
            ScatterStreams::Flat {
                out_offsets,
                out_targets,
                out_weights,
            } => {
                let (s, e) = (out_offsets[ui], out_offsets[ui + 1]);
                if alg.uses_edge_weights() {
                    for i in s..e {
                        let cand = alg.gather(identity, state_u, out_weights[i], du);
                        visit(out_targets[i], cand);
                    }
                } else {
                    let cand = alg.gather(identity, state_u, 1.0, du);
                    for &v in &out_targets[s..e] {
                        visit(v, cand);
                    }
                }
            }
            ScatterStreams::Compressed { adj, weights } => {
                if alg.uses_edge_weights() {
                    match weights {
                        Some((offsets, ws)) => {
                            let mut i = offsets[ui];
                            adj.for_each(u, |v| {
                                visit(v, alg.gather(identity, state_u, ws[i], du));
                                i += 1;
                            });
                        }
                        None => {
                            let cand = alg.gather(identity, state_u, 1.0, du);
                            adj.for_each(u, |v| visit(v, cand));
                        }
                    }
                } else {
                    let cand = alg.gather(identity, state_u, 1.0, du);
                    adj.for_each(u, |v| visit(v, cand));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::evaluate_vertex;

    #[test]
    fn builtins_identify_themselves() {
        assert!(matches!(
            PageRank::default().monomorphized(),
            Some(AlgorithmKind::PageRank(_))
        ));
        assert!(matches!(
            Sssp::new(3).monomorphized(),
            Some(AlgorithmKind::Sssp(Sssp { source: 3 }))
        ));
        assert!(matches!(
            DeltaSssp { source: 1 }.monomorphized(),
            Some(DeltaAlgorithmKind::Sssp(DeltaSssp { source: 1 }))
        ));
    }

    #[test]
    fn dyn_only_opts_out_but_behaves_identically() {
        let g = CsrGraph::from_edges(3, [(0u32, 2u32, 5.0f64), (1, 2, 1.0)]);
        let plain = Sssp::new(0);
        let wrapped = DynOnly(plain);
        assert!(wrapped.monomorphized().is_none());
        assert!(DynOnly(DeltaSssp { source: 0 }).monomorphized().is_none());
        let states = vec![0.0, 2.0, f64::INFINITY];
        assert_eq!(
            evaluate_vertex(&plain, &g, 2, &states),
            evaluate_vertex(&wrapped, &g, 2, &states)
        );
        assert_eq!(plain.name(), wrapped.name());
    }

    #[test]
    fn gather_context_matches_slice_based_gather() {
        let g = CsrGraph::from_edges(
            4,
            [(0u32, 3u32, 2.0f64), (1, 3, 4.0), (2, 3, 1.0), (0, 1, 1.0)],
        );
        let ctx = GatherContext::new(&g);
        let (s, e) = ctx.in_range(3);
        assert_eq!(&g.raw_in_sources()[s..e], &[0, 1, 2]);
        assert_eq!(&g.raw_in_weights()[s..e], &[2.0, 4.0, 1.0]);
        assert_eq!(ctx.out_degrees(), g.out_degrees());
        let alg = Sssp::new(0);
        let states = vec![0.0, 1.0, 7.0, f64::INFINITY];
        let acc = ctx.gather(&alg, 3, &states);
        let new = alg.apply(&g, 3, states[3], acc);
        assert_eq!(new, evaluate_vertex(&alg, &g, 3, &states));
    }

    #[test]
    fn compressed_contexts_match_flat_contexts() {
        // Weighted and unit-weight graphs, across shard counts: the
        // decode-per-row gather/scatter must reproduce the flat streams'
        // folds bit for bit.
        let weighted = CsrGraph::from_edges(
            5,
            [
                (0u32, 3u32, 2.0f64),
                (1, 3, 4.0),
                (2, 3, 1.0),
                (0, 1, 1.5),
                (3, 4, 0.5),
                (4, 0, 7.0),
            ],
        );
        let unit = CsrGraph::from_edges(5, [(0u32, 3u32), (1, 3), (2, 3), (0, 1), (3, 4), (4, 0)]);
        for g in [&weighted, &unit] {
            let flat_g = GatherContext::new(g);
            let flat_s = ScatterContext::new(g);
            let states = vec![0.3, 1.0, 7.0, 2.0, 0.9];
            for shards in [&[][..], &[2][..], &[1, 2, 3, 4][..]] {
                let c = g.compress_with_shards(shards);
                let ctx = GatherContext::new(&c);
                let sctx = ScatterContext::new(&c);
                let algs: Vec<Box<dyn IterativeAlgorithm>> = vec![
                    Box::new(Sssp::new(0)),
                    Box::new(PageRank::default()),
                    Box::new(Bfs::new(0)),
                ];
                for alg in &algs {
                    let alg = alg.as_ref();
                    for v in g.vertices() {
                        assert_eq!(
                            ctx.gather(alg, v, &states).to_bits(),
                            flat_g.gather(alg, v, &states).to_bits(),
                            "{} gather at {v}",
                            alg.name()
                        );
                        let mut got = Vec::new();
                        sctx.scatter(alg, v, states[v as usize], |t, cand| got.push((t, cand)));
                        let mut want = Vec::new();
                        flat_s.scatter(alg, v, states[v as usize], |t, cand| want.push((t, cand)));
                        assert_eq!(got, want, "{} scatter at {v}", alg.name());
                        assert_eq!(sctx.out_degree(v), flat_s.out_degree(v));
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "flat storage")]
    fn gather_range_panics_on_compressed() {
        let g = CsrGraph::from_edges(3, [(0u32, 1u32), (1, 2)]).compress();
        let ctx = GatherContext::new(&g);
        let _ = ctx.in_range(1);
    }

    #[test]
    fn weight_free_gather_matches_weighted_path() {
        // Every algorithm declaring its gather weight-free must produce,
        // through the skip-the-weights loop, exactly what a loop feeding
        // the *real* per-edge weights produces — this is the test that
        // catches a stale `uses_edge_weights()` flag if a gather starts
        // reading its weight argument.
        let g = CsrGraph::from_edges(
            5,
            [
                (0u32, 3u32, 2.0f64),
                (1, 3, 4.0),
                (0, 1, 9.0),
                (2, 4, 0.5),
                (3, 4, 7.0),
            ],
        );
        let ctx = GatherContext::new(&g);
        let weight_free: Vec<Box<dyn IterativeAlgorithm>> = vec![
            Box::new(PageRank::default()),
            Box::new(Katz::for_graph(&g)),
            Box::new(Bfs::new(0)),
            Box::new(ConnectedComponents),
            Box::new(Php::new(0)),
            Box::new(Adsorption::new(vec![0, 2])),
        ];
        let states = vec![0.3, 0.5, 0.15, 0.15, 0.4];
        for alg in &weight_free {
            let alg = alg.as_ref();
            assert!(!alg.uses_edge_weights(), "{} must be flagged", alg.name());
            for v in g.vertices() {
                assert_eq!(
                    ctx.gather(alg, v, &states),
                    real_weight_gather(alg, &g, v, &states),
                    "{} at vertex {v}",
                    alg.name()
                );
            }
        }
        // DynOnly delegates the flag.
        assert!(!DynOnly(PageRank::default()).uses_edge_weights());
    }

    /// Reference gather using the real per-edge weights (what a
    /// non-skipping loop would feed `gather`).
    fn real_weight_gather(
        alg: &dyn IterativeAlgorithm,
        g: &CsrGraph,
        v: VertexId,
        states: &[f64],
    ) -> f64 {
        let mut acc = alg.gather_identity();
        for (u, w) in g.in_edges(v) {
            acc = alg.gather(acc, states[u as usize], w, g.out_degree(u));
        }
        acc
    }
}
