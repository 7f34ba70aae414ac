//! Direction-optimizing execution support: per-round push/pull choice,
//! hybrid frontier bookkeeping shared by the synchronous and sequential
//! kernels, and the cache-blocked dense pull sweep.
//!
//! The kernels track which vertices *changed* in a round (a hybrid
//! [`Frontier`] over **order positions**, so in-order emission is a
//! bitmap sweep instead of a sort) and each round runs in one of three
//! shapes:
//!
//! - **full pull** — the historical dense sweep: gather every vertex in
//!   processing order. Chosen while the changed set is dense (more than
//!   `1/DENSE_EVAL_DENOMINATOR` = 1/32 of the vertices), where skip
//!   bookkeeping would cost more than it saves. On the synchronous
//!   engine this sweep is additionally *cache-blocked* when the state
//!   array overflows [`crate::RunConfig::llc_bytes`].
//! - **sparse pull** — gather only vertices whose inputs may have
//!   changed (the changed set and its out-neighborhoods), skipping
//!   inactive sources through the bitmap.
//! - **push** — scatter: each changed vertex relaxes its out-edges
//!   directly ([`crate::dispatch::ScatterContext::scatter`]), touching
//!   `Σ outdeg(changed)` edges instead of the in-degree mass of the
//!   whole affected neighborhood. Requires
//!   [`crate::IterativeAlgorithm::supports_push`].
//!
//! The per-round choice is the Beamer direction heuristic adapted to
//! value iteration: push when the frontier's out-degree mass is below
//! `|E| / PUSH_ALPHA` = `|E|` (the pull side pays the in-degree mass of
//! the frontier's entire out-neighborhood, which the edge total bounds).

use crate::algorithm::IterativeAlgorithm;
use crate::dispatch::GatherContext;
use gograph_graph::{CsrGraph, Frontier, Permutation, VertexId};

/// Which traversal directions an engine run may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DirectionPolicy {
    /// Choose per round with the Beamer-style mass heuristic (push only
    /// for algorithms that declare
    /// [`crate::IterativeAlgorithm::supports_push`]).
    #[default]
    Auto,
    /// Never push: gather-only, the historical engine behaviour.
    PullOnly,
    /// Always push (scatter). Requires an algorithm with
    /// [`crate::IterativeAlgorithm::supports_push`]; [`crate::execute`]
    /// rejects the combination otherwise. The one round that still
    /// gathers is the first round of a run seeded with a
    /// [`crate::WarmStart::frontier`]: the seed names vertices whose
    /// *inputs* changed, which only a pull can re-evaluate.
    PushOnly,
}

/// Default last-level-cache budget assumed by the blocked pull sweep
/// (overridable via [`crate::RunConfig::llc_bytes`]): 8 MiB, a common
/// desktop LLC slice.
pub const DEFAULT_LLC_BYTES: usize = 8 << 20;

/// A round whose frontier out-degree mass is below `|E| / PUSH_ALPHA`
/// runs push under [`DirectionPolicy::Auto`]. The pull side's cost —
/// the in-degree mass of the frontier's full out-neighborhood — is at
/// least the push cost (every frontier edge activates a target whose
/// *whole* in-list is gathered), so sequentially push wins essentially
/// whenever the frontier is not the entire vertex set; 1 encodes
/// exactly that, and the kernels' separate density check still routes
/// near-full rounds to the streaming-friendly dense pull sweep.
pub(crate) const PUSH_ALPHA: usize = 1;

/// A changed set covering more than `1/DENSE_EVAL_DENOMINATOR` of the
/// vertices makes the next sync/async round a full sweep: on power-law
/// graphs even a few percent of changed vertices activate most of the
/// vertex set, so a "sparse" round would gather nearly everything *and*
/// pay activation scatter plus scan bookkeeping on top. Sparse rounds
/// only start paying once the frontier is genuinely narrow (< ~3%).
pub(crate) const DENSE_EVAL_DENOMINATOR: usize = 32;

/// Density cutoff for algorithms **without** push support (the
/// accumulative sum-norm family): their per-round deltas keep nearly
/// every vertex bit-changing until the very end, so frontier machinery
/// rarely pays — sparse rounds engage only for truly tiny frontiers
/// (< ~0.1%), and the dense sweep's tracked phase exits after `n/1024`
/// changes, keeping the hot loop branch-free like the pre-direction
/// kernel.
pub(crate) const GENERAL_DENSE_DENOMINATOR: usize = 1024;

/// Σ out-degree over the changed set — the push-direction edge cost of
/// the next round (`changed` holds order positions).
pub(crate) fn push_mass(changed: &Frontier, order: &Permutation, out_degrees: &[u32]) -> usize {
    let mut mass = 0usize;
    changed.for_each(|pos| {
        mass += out_degrees[order.vertex_at(pos as usize) as usize] as usize;
    });
    mass
}

/// The per-round direction choice. `m_push` is the frontier out-degree
/// mass, `num_edges` the graph's edge total standing in for the pull
/// side's unexplored in-degree mass bound.
#[inline]
pub(crate) fn choose_push(
    policy: DirectionPolicy,
    supports_push: bool,
    m_push: usize,
    num_edges: usize,
) -> bool {
    match policy {
        DirectionPolicy::PullOnly => false,
        DirectionPolicy::PushOnly => supports_push,
        DirectionPolicy::Auto => supports_push && m_push * PUSH_ALPHA < num_edges,
    }
}

/// A consuming forward sweep over order positions, with **in-round
/// activation**: while the sweep is parked at position `p`, bits may be
/// set at positions `> p` and will be visited later in the *same*
/// sweep — exactly the asynchronous engines' behaviour of consuming a
/// positive edge's fresh value in the round it was produced (Theorem 1,
/// the property the GoGraph order maximizes). Activations at positions
/// `≤ p` are the caller's to divert into the next round's set.
///
/// Bits are consumed as they are visited, so a drained scan is ready
/// for reuse without clearing.
pub(crate) struct PositionScan {
    words: Vec<u64>,
}

impl PositionScan {
    pub(crate) fn new(universe: usize) -> Self {
        PositionScan {
            words: vec![0; universe.div_ceil(64)],
        }
    }

    /// Number of 64-bit words (the sweep's outer loop bound).
    #[inline]
    pub(crate) fn num_words(&self) -> usize {
        self.words.len()
    }

    /// Heap bytes held by the scan bitmap.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// Schedules position `pos` (idempotent).
    #[inline]
    pub(crate) fn set(&mut self, pos: u32) {
        self.words[pos as usize / 64] |= 1 << (pos % 64);
    }

    /// Loads every member of a [`Frontier`] into the scan.
    pub(crate) fn load(&mut self, f: &Frontier) {
        f.for_each(|pos| self.set(pos));
    }

    /// Consumes and returns the lowest scheduled position within word
    /// `wi`, or `None` when the word is empty (advance `wi`). Calling
    /// in a `while wi < num_words()` loop yields positions in ascending
    /// order, including any set at `> current` mid-sweep.
    #[inline]
    pub(crate) fn take_lowest(&mut self, wi: usize) -> Option<u32> {
        let w = self.words[wi];
        if w == 0 {
            return None;
        }
        let b = w.trailing_zeros();
        self.words[wi] &= !(1u64 << b);
        // Compute in usize: `(wi * 64) as u32 + b` would silently wrap
        // for word indices past 2^26 — fail loudly instead.
        let pos = wi * 64 + b as usize;
        Some(u32::try_from(pos).expect("PositionScan position exceeds u32"))
    }
}

/// The per-source activation rule of the sequential kernel's sparse
/// sweeps: a changed vertex's later-positioned out-neighbors
/// join the current [`PositionScan`] (in-round consumption); if any
/// out-neighbor sits at or before the cursor, the change itself stays
/// `pending` — its value is complete (push-capable algebra) but not yet
/// fully propagated.
#[inline(always)]
pub(crate) fn activate_per_source(
    g: &CsrGraph,
    order: &Permutation,
    v: VertexId,
    pos: u32,
    scan: &mut PositionScan,
    pending: &mut Frontier,
) {
    let mut behind = false;
    g.for_each_out_neighbor(v, |w| {
        let pw = order.position(w);
        if pw > pos {
            scan.set(pw);
        } else {
            behind = true;
        }
    });
    if behind {
        pending.insert(pos);
    }
}

/// The per-target activation rule (the historical behaviour): a changed
/// vertex's later-positioned out-neighbors join the current sweep,
/// earlier ones go to `pending` for the next round. With
/// `include_self`, the vertex itself re-evaluates next round too — what
/// makes the sweep schedule's sparse rounds exact for *any* pure
/// algorithm; the frontier schedule keeps the worklist's historical
/// no-self activation.
#[inline(always)]
pub(crate) fn activate_per_target(
    g: &CsrGraph,
    order: &Permutation,
    v: VertexId,
    pos: u32,
    scan: &mut PositionScan,
    pending: &mut Frontier,
    include_self: bool,
) {
    g.for_each_out_neighbor(v, |w| {
        let pw = order.position(w);
        if pw > pos {
            scan.set(pw);
        } else {
            pending.insert(pw);
        }
    });
    if include_self {
        pending.insert(pos);
    }
}

/// The cache-blocked dense pull sweep (synchronous engine only — the
/// accumulate-then-apply shape is Jacobi).
///
/// When the processing order is the identity (the relabeled deployment
/// configuration: the GoGraph order is baked into the vertex ids), each
/// vertex's in-source list ascends in *order positions* too, so it
/// splits into contiguous spans per source block. A full pull round then
/// visits blocks outermost: within one block pass every state read
/// falls inside one LLC-sized id range, so the reordered layout's
/// locality is bounded by construction instead of by luck, at the cost
/// of streaming per-block span metadata and revisiting destination
/// accumulators once per contributing block.
///
/// Per-destination contributions still fold in ascending source order
/// (blocks ascend, spans ascend within a vertex), i.e. **exactly the
/// order the unblocked sweep folds** — so the blocked sweep is
/// bit-identical for every algorithm, including sum-norm gathers: the
/// per-block accumulators only regroup *when* a partial fold happens,
/// never in what order.
pub(crate) struct BlockedSweep {
    /// Per block `b`: `(v, start, end)` spans — the slice
    /// `in_sources[start..end]` of `v`'s in-edges whose sources fall in
    /// block `b`'s id range.
    spans: Vec<Vec<(VertexId, u32, u32)>>,
}

impl BlockedSweep {
    /// Positions per block for a given LLC budget: half the budget in
    /// 8-byte states, leaving the other half for the destination
    /// accumulators and streamed structure.
    pub(crate) fn block_positions(llc_bytes: usize) -> usize {
        (llc_bytes / 2 / std::mem::size_of::<f64>()).max(1)
    }

    /// Builds the span partition (shared with the cache simulator via
    /// [`CsrGraph::in_source_block_spans`], so the simulated access
    /// pattern can never drift from the executed one), or `None` when
    /// blocking cannot help: fewer than two blocks, an edge stream
    /// too large for the u32 span indices, or compressed storage (whose
    /// rows are byte blocks with no flat index ranges to span; the
    /// dense sweep falls back to the unblocked path there).
    pub(crate) fn build(g: &CsrGraph, block_positions: usize) -> Option<Self> {
        let num_blocks = g.num_vertices().div_ceil(block_positions.max(1));
        if num_blocks < 2 || g.num_edges() > u32::MAX as usize || g.is_compressed() {
            return None;
        }
        Some(BlockedSweep {
            spans: g.in_source_block_spans(block_positions),
        })
    }

    /// Heap bytes held by the span table (~12 bytes per span, between
    /// `n` and `|E|` spans).
    pub(crate) fn memory_bytes(&self) -> usize {
        self.spans
            .iter()
            .map(|b| b.capacity() * std::mem::size_of::<(VertexId, u32, u32)>())
            .sum::<usize>()
            + self.spans.capacity() * std::mem::size_of::<Vec<(VertexId, u32, u32)>>()
    }

    /// One blocked accumulation pass: folds every in-edge contribution
    /// into `acc` (which the caller pre-fills with the gather identity),
    /// block by block.
    #[inline]
    pub(crate) fn accumulate<A: IterativeAlgorithm + ?Sized>(
        &self,
        ctx: &GatherContext<'_>,
        alg: &A,
        states: &[f64],
        acc: &mut [f64],
    ) {
        for block in &self.spans {
            for &(v, s, e) in block {
                acc[v as usize] =
                    ctx.gather_range(alg, acc[v as usize], s as usize, e as usize, |u| states[u]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Sssp;
    use gograph_graph::CsrGraph;

    #[test]
    fn direction_choice_honors_policy_and_masses() {
        // Auto: push only when supported and the frontier does not own
        // the whole edge set.
        assert!(choose_push(DirectionPolicy::Auto, true, 10, 100));
        assert!(choose_push(DirectionPolicy::Auto, true, 60, 100));
        assert!(!choose_push(DirectionPolicy::Auto, true, 100, 100));
        assert!(!choose_push(DirectionPolicy::Auto, false, 10, 100));
        assert!(!choose_push(DirectionPolicy::PullOnly, true, 0, 100));
        assert!(choose_push(DirectionPolicy::PushOnly, true, 99, 100));
        assert!(!choose_push(DirectionPolicy::PushOnly, false, 0, 100));
    }

    #[test]
    fn push_mass_sums_out_degrees_through_the_order() {
        let g = CsrGraph::from_edges(4, [(0u32, 1u32), (0, 2), (0, 3), (2, 3)]);
        // Order [3, 2, 1, 0]: position p holds vertex 3 - p.
        let order = gograph_graph::Permutation::from_order(vec![3, 2, 1, 0]);
        let mut changed = Frontier::new(4);
        changed.insert(3); // position 3 = vertex 0, out-degree 3
        changed.insert(1); // position 1 = vertex 2, out-degree 1
        assert_eq!(push_mass(&changed, &order, g.out_degrees()), 4);
    }

    #[test]
    fn blocked_sweep_matches_unblocked_gather() {
        let g = CsrGraph::from_edges(
            6,
            [
                (0u32, 5u32, 2.0f64),
                (1, 5, 1.0),
                (4, 5, 3.0),
                (0, 2, 1.0),
                (3, 2, 4.0),
                (5, 0, 1.0),
            ],
        );
        let ctx = GatherContext::new(&g);
        let alg = Sssp::new(0);
        let states = vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let blocked = BlockedSweep::build(&g, 2).expect("3 blocks");
        let mut acc = vec![alg.gather_identity(); 6];
        blocked.accumulate(&ctx, &alg, &states, &mut acc);
        for v in g.vertices() {
            assert_eq!(acc[v as usize], ctx.gather(&alg, v, &states), "vertex {v}");
        }
        // One block (or zero vertices) declines to build.
        assert!(BlockedSweep::build(&g, 6).is_none());
        assert!(BlockedSweep::build(&g, 100).is_none());
    }

    #[test]
    fn position_scan_consumes_in_round_activations_ahead_only() {
        let mut scan = PositionScan::new(200);
        for p in [5u32, 130, 70] {
            scan.set(p);
        }
        let mut visited = Vec::new();
        let mut wi = 0;
        while wi < scan.num_words() {
            match scan.take_lowest(wi) {
                None => wi += 1,
                Some(pos) => {
                    visited.push(pos);
                    if pos == 5 {
                        scan.set(6); // same word, ahead: consumed this sweep
                        scan.set(199); // later word: consumed this sweep
                    }
                }
            }
        }
        assert_eq!(visited, vec![5, 6, 70, 130, 199]);
        // Drained scan is empty and reusable.
        let mut wi = 0;
        let mut rest = 0;
        while wi < scan.num_words() {
            match scan.take_lowest(wi) {
                None => wi += 1,
                Some(_) => rest += 1,
            }
        }
        assert_eq!(rest, 0);
    }

    #[test]
    fn block_positions_track_llc_budget() {
        assert_eq!(BlockedSweep::block_positions(16), 1);
        assert_eq!(BlockedSweep::block_positions(1 << 20), 1 << 16);
    }
}
