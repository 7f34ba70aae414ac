//! Wire-addressable algorithm and mode specifications.
//!
//! The service cannot ship trait objects over TCP, so queries name one
//! of the built-in iterative algorithms by a one-byte code plus a
//! source list, and [`AlgSpec::instantiate`] rebuilds the concrete
//! [`IterativeAlgorithm`] on the server. A client's own multi-source
//! query wraps the single-source algorithm in [`MultiSource`], which
//! widens only the initial state: every source the client named starts
//! at the source value and the fixpoint becomes the per-vertex best over
//! all of them.

use gograph_engine::{Bfs, ConnectedComponents, IterativeAlgorithm, Mode, PageRank, Sssp, Sswp};
use gograph_graph::{CsrGraph, VertexId, Weight};

/// A servable algorithm, nameable by a one-byte wire code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgSpec {
    /// Single-source shortest paths (multi-source capable).
    Sssp,
    /// Breadth-first hop counts (multi-source capable).
    Bfs,
    /// Connected components via label propagation (global).
    Cc,
    /// PageRank (global).
    PageRank,
    /// Single-source widest paths (multi-source capable).
    Sswp,
}

impl AlgSpec {
    /// All servable algorithms, in wire-code order.
    pub const ALL: [AlgSpec; 5] = [
        AlgSpec::Sssp,
        AlgSpec::Bfs,
        AlgSpec::Cc,
        AlgSpec::PageRank,
        AlgSpec::Sswp,
    ];

    /// The one-byte wire code.
    pub fn code(self) -> u8 {
        match self {
            AlgSpec::Sssp => 0,
            AlgSpec::Bfs => 1,
            AlgSpec::Cc => 2,
            AlgSpec::PageRank => 3,
            AlgSpec::Sswp => 4,
        }
    }

    /// Decodes a wire code.
    pub fn from_code(code: u8) -> Option<AlgSpec> {
        AlgSpec::ALL.get(code as usize).copied()
    }

    /// Parses the CLI / display name.
    pub fn from_name(name: &str) -> Option<AlgSpec> {
        match name {
            "sssp" => Some(AlgSpec::Sssp),
            "bfs" => Some(AlgSpec::Bfs),
            "cc" => Some(AlgSpec::Cc),
            "pagerank" => Some(AlgSpec::PageRank),
            "sswp" => Some(AlgSpec::Sswp),
            _ => None,
        }
    }

    /// The display name (matches [`IterativeAlgorithm::name`]).
    pub fn name(self) -> &'static str {
        match self {
            AlgSpec::Sssp => "sssp",
            AlgSpec::Bfs => "bfs",
            AlgSpec::Cc => "cc",
            AlgSpec::PageRank => "pagerank",
            AlgSpec::Sswp => "sswp",
        }
    }

    /// Whether queries must carry at least one source vertex. Global
    /// algorithms (CC, PageRank) ignore sources entirely.
    pub fn needs_sources(self) -> bool {
        matches!(self, AlgSpec::Sssp | AlgSpec::Bfs | AlgSpec::Sswp)
    }

    /// Whether a warm start from a converged fixpoint reproduces the
    /// cold result *bit-identically*: true for the max-norm algorithms
    /// (epsilon 0, exact stability), false for the sum-norm family
    /// whose warm re-run takes at least one extra sub-epsilon step.
    pub fn warm_is_exact(self) -> bool {
        !matches!(self, AlgSpec::PageRank)
    }

    /// Builds the concrete algorithm for `sources`.
    ///
    /// Single-source (and global) specs return the plain built-in, so
    /// the engine's monomorphized kernels stay eligible; only genuine
    /// multi-source queries pay the [`MultiSource`] wrapper's dynamic
    /// dispatch.
    pub fn instantiate(self, sources: &[VertexId]) -> Box<dyn IterativeAlgorithm> {
        let seed = sources.first().copied().unwrap_or(0);
        let inner: Box<dyn IterativeAlgorithm> = match self {
            AlgSpec::Sssp => Box::new(Sssp::new(seed)),
            AlgSpec::Bfs => Box::new(Bfs::new(seed)),
            AlgSpec::Cc => Box::new(ConnectedComponents),
            AlgSpec::PageRank => Box::new(PageRank::default()),
            AlgSpec::Sswp => Box::new(Sswp::new(seed)),
        };
        if self.needs_sources() && sources.len() > 1 {
            Box::new(MultiSource::new(inner, sources.to_vec()))
        } else {
            inner
        }
    }
}

/// A serving role, nameable on the `gograph_serve` command line.
///
/// Distinct from [`crate::core::Role`] (the core's *live* role, which
/// flips on promotion): this is the role a process is *launched* with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoleSpec {
    /// Accepts writes, fsyncs them to its WAL, ships the log to
    /// subscribed followers.
    Primary,
    /// Bootstraps from a primary's checkpoint and replays its WAL;
    /// serves bounded-staleness reads.
    Follower,
}

impl RoleSpec {
    /// Parses the CLI name.
    pub fn from_name(name: &str) -> Option<RoleSpec> {
        match name {
            "primary" => Some(RoleSpec::Primary),
            "follower" => Some(RoleSpec::Follower),
            _ => None,
        }
    }

    /// The CLI / display name.
    pub fn name(self) -> &'static str {
        match self {
            RoleSpec::Primary => "primary",
            RoleSpec::Follower => "follower",
        }
    }
}

/// A wire-addressable execution mode (the subset of [`Mode`] a query
/// may request; the delta engines need a separate algorithm object and
/// are not served).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModeSpec {
    /// Asynchronous in-place iteration (the paper's Eq. 2) — default.
    Async,
    /// Synchronous double-buffered iteration.
    Sync,
    /// Active-frontier worklist scheduling.
    Worklist,
    /// Block-parallel asynchronous with the given block count.
    Parallel(u8),
}

impl ModeSpec {
    /// The one-byte wire code (parallel block count rides in the high
    /// bits' companion byte, kept simple: code 3 is fixed 8 blocks).
    pub fn code(self) -> u8 {
        match self {
            ModeSpec::Async => 0,
            ModeSpec::Sync => 1,
            ModeSpec::Worklist => 2,
            ModeSpec::Parallel(_) => 3,
        }
    }

    /// Decodes a wire code.
    pub fn from_code(code: u8) -> Option<ModeSpec> {
        match code {
            0 => Some(ModeSpec::Async),
            1 => Some(ModeSpec::Sync),
            2 => Some(ModeSpec::Worklist),
            3 => Some(ModeSpec::Parallel(8)),
            _ => None,
        }
    }

    /// Parses the CLI / display name.
    pub fn from_name(name: &str) -> Option<ModeSpec> {
        match name {
            "async" => Some(ModeSpec::Async),
            "sync" => Some(ModeSpec::Sync),
            "worklist" => Some(ModeSpec::Worklist),
            "parallel" => Some(ModeSpec::Parallel(8)),
            _ => None,
        }
    }

    /// The engine [`Mode`] this spec selects.
    pub fn mode(self) -> Mode {
        match self {
            ModeSpec::Async => Mode::Async,
            ModeSpec::Sync => Mode::Sync,
            ModeSpec::Worklist => Mode::Worklist,
            ModeSpec::Parallel(n) => Mode::Parallel(n.max(1) as usize),
        }
    }
}

/// Widens a single-source algorithm to a set of sources by overriding
/// only [`IterativeAlgorithm::init`]: every vertex in the client's
/// source set starts at the inner algorithm's source value, everything
/// else keeps the non-source default. All folding behavior delegates,
/// so the fixpoint is the per-vertex best over all sources — exactly
/// the fixpoint of the client's multi-source query.
///
/// Deliberately does **not** forward `monomorphized()`: a `Some` answer
/// would make the engine run the inner by-value copy instead of this
/// wrapper, silently dropping the widened init (see the trait docs).
pub struct MultiSource {
    inner: Box<dyn IterativeAlgorithm>,
    /// Sorted for binary-search membership in `init`.
    sources: Vec<VertexId>,
    /// `sources[0]` before sorting — the seed the inner algorithm was
    /// constructed with, whose `init` answer is the source value.
    seed: VertexId,
}

impl MultiSource {
    /// Wraps `inner` (constructed for `sources[0]`) to start from every
    /// vertex in `sources`.
    ///
    /// # Panics
    /// Panics when `sources` is empty.
    pub fn new(inner: Box<dyn IterativeAlgorithm>, mut sources: Vec<VertexId>) -> MultiSource {
        let seed = *sources
            .first()
            .expect("MultiSource needs at least one source");
        sources.sort_unstable();
        sources.dedup();
        MultiSource {
            inner,
            sources,
            seed,
        }
    }

    /// The (sorted, deduplicated) source set.
    pub fn sources(&self) -> &[VertexId] {
        &self.sources
    }
}

impl IterativeAlgorithm for MultiSource {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(&self, g: &CsrGraph, v: VertexId) -> f64 {
        if self.sources.binary_search(&v).is_ok() {
            // The inner algorithm's answer for its own source vertex is
            // the source value (0 hops, distance 0, +inf width, ...).
            self.inner.init(g, self.seed)
        } else {
            // v != seed here (seed is in `sources`), so this is the
            // plain non-source default.
            self.inner.init(g, v)
        }
    }

    fn gather_identity(&self) -> f64 {
        self.inner.gather_identity()
    }

    fn gather(
        &self,
        acc: f64,
        neighbor_state: f64,
        edge_weight: Weight,
        neighbor_out_degree: usize,
    ) -> f64 {
        self.inner
            .gather(acc, neighbor_state, edge_weight, neighbor_out_degree)
    }

    fn apply(&self, g: &CsrGraph, v: VertexId, current: f64, acc: f64) -> f64 {
        if self.sources.binary_search(&v).is_ok() {
            // Sources are pinned to their initial value, mirroring how
            // the single-source built-ins pin their one source.
            self.inner.init(g, self.seed)
        } else {
            self.inner.apply(g, v, current, acc)
        }
    }

    fn monotonicity(&self) -> gograph_engine::Monotonicity {
        self.inner.monotonicity()
    }

    fn norm(&self) -> gograph_engine::ConvergenceNorm {
        self.inner.norm()
    }

    fn epsilon(&self) -> f64 {
        self.inner.epsilon()
    }

    fn uses_edge_weights(&self) -> bool {
        self.inner.uses_edge_weights()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gograph_engine::Pipeline;
    use gograph_graph::generators::regular::chain;

    #[test]
    fn codes_roundtrip() {
        for alg in AlgSpec::ALL {
            assert_eq!(AlgSpec::from_code(alg.code()), Some(alg));
            assert_eq!(AlgSpec::from_name(alg.name()), Some(alg));
        }
        assert_eq!(AlgSpec::from_code(200), None);
        for code in 0..4u8 {
            let m = ModeSpec::from_code(code).unwrap();
            assert_eq!(m.code(), code);
        }
        assert_eq!(ModeSpec::from_code(9), None);
        for role in [RoleSpec::Primary, RoleSpec::Follower] {
            assert_eq!(RoleSpec::from_name(role.name()), Some(role));
        }
        assert_eq!(RoleSpec::from_name("observer"), None);
    }

    #[test]
    fn multi_source_sssp_is_min_over_singles() {
        let g = chain(12);
        let run = |sources: &[VertexId]| {
            let alg = AlgSpec::Sssp.instantiate(sources);
            Pipeline::on(&g)
                .algorithm_ref(alg.as_ref())
                .execute()
                .unwrap()
                .stats
                .final_states
        };
        let multi = run(&[2, 8]);
        let from2 = run(&[2]);
        let from8 = run(&[8]);
        for v in 0..12 {
            assert_eq!(
                multi[v],
                from2[v].min(from8[v]),
                "vertex {v}: multi-source SSSP must equal the min over sources"
            );
        }
    }

    #[test]
    fn single_source_bypasses_the_wrapper() {
        let g = chain(5);
        let alg = AlgSpec::Bfs.instantiate(&[3]);
        // A plain built-in (not MultiSource) keeps its monomorphized kernel.
        assert!(alg.monomorphized().is_some());
        let multi = AlgSpec::Bfs.instantiate(&[3, 4]);
        assert!(multi.monomorphized().is_none());
        let _ = g;
    }
}
