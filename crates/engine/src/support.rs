//! Support certification: which converged states survive a deletion.
//!
//! A max-norm fixpoint value is *witnessed* by a path: `state[v]` is
//! either the vertex's intrinsic value (the source term / `init`) or
//! exactly what some in-edge offers from its source's state. After a
//! batch removes edges, a vertex may keep its state only while such a
//! witness chain still reaches an intrinsic vertex — and the chain has
//! to be well-founded, or two stale values could vouch for each other
//! around a cycle.
//!
//! The order that makes it well-founded is lexicographic on
//! `(state, level)`. An in-edge `x -> v` is *tight* when it offers
//! exactly `state[v]`; it is *strict* when `state[x]` is also strictly
//! closer to the root (SSSP over a positive weight), and a *tie* when
//! `state[x] == state[v]` (CC's labels, SSWP's bottlenecks, SSSP over a
//! zero weight). A vertex's **level** counts the tie hops that separate
//! it from a vertex that needs none:
//!
//! - level 0: intrinsic, or some tight in-edge is strict;
//! - level `k + 1`: otherwise, with `k` the least level over the sources
//!   of its tie in-edges;
//! - [`UNCERTIFIED`]: no such chain exists (impossible at a fixpoint
//!   reached from sound bounds, where every value is path-witnessed).
//!
//! So `x` certifies `v` when the edge is strict, or a tie with
//! `level[x] < level[v]`: every certificate points strictly down the
//! lexicographic order and the chain ends at an intrinsic vertex.
//!
//! Levels are a pure function of the graph and the states — breadth-
//! first distances over tie edges — which is what lets a pipeline keep
//! them as derived state: [`Support::build_levels`] computes them from
//! scratch, [`Support::repair_levels`] brings them up to date after a
//! warm run at a cost proportional to what the run changed, and both
//! give the same answer.

use crate::algorithm::Monotonicity;
use crate::strategy::AlgorithmRef;
use gograph_graph::{CsrGraph, VertexId, Weight};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Level of a vertex that no chain of tight in-edges certifies.
pub(crate) const UNCERTIFIED: u32 = u32::MAX;

/// How the source of a tight in-edge stands relative to its head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tight {
    /// The source's state is strictly closer to the root.
    Strict,
    /// Source and head hold the same state.
    Tie,
}

/// One algorithm's view of support on one graph: the value a settled
/// in-edge offers, the vertex's intrinsic value, and which way states
/// progress. The same three hooks serve every max-norm gather algorithm
/// and every min/max-style delta algorithm.
pub(crate) struct Support<'a> {
    g: &'a CsrGraph,
    alg: AlgorithmRef<'a>,
    /// States come down toward the fixpoint (closer = smaller).
    decreasing: bool,
}

impl<'a> Support<'a> {
    pub(crate) fn new(g: &'a CsrGraph, alg: AlgorithmRef<'a>) -> Self {
        let decreasing = match alg {
            // Min-style delta algorithms start at `+inf` and come down.
            AlgorithmRef::Delta(alg) => alg.identity().is_sign_positive(),
            AlgorithmRef::Gather(alg) => alg.monotonicity() == Monotonicity::Decreasing,
        };
        Support { g, alg, decreasing }
    }

    /// The value the in-edge `x -> v` offers from `x`'s state `sx`.
    fn candidate(&self, x: VertexId, v: VertexId, w: Weight, sx: f64) -> f64 {
        match self.alg {
            AlgorithmRef::Delta(alg) => alg.propagate(self.g, x, v, w, sx),
            AlgorithmRef::Gather(alg) => {
                alg.gather(alg.gather_identity(), sx, w, self.g.out_degree(x))
            }
        }
    }

    /// Whether `v` holds the value it would hold with no in-edges.
    fn is_intrinsic(&self, v: VertexId, states: &[f64]) -> bool {
        let intrinsic = match self.alg {
            AlgorithmRef::Delta(alg) => {
                alg.combine(alg.init_state(self.g, v), alg.init_delta(self.g, v))
            }
            AlgorithmRef::Gather(alg) => alg.init(self.g, v),
        };
        intrinsic == states[v as usize]
    }

    /// Classifies the in-edge `x -> v`: `None` unless it offers exactly
    /// `v`'s state from a state no farther from the root.
    fn tight(&self, x: VertexId, v: VertexId, w: Weight, states: &[f64]) -> Option<Tight> {
        let (sx, sv) = (states[x as usize], states[v as usize]);
        let closer = if self.decreasing { sx < sv } else { sx > sv };
        let kind = if closer {
            Tight::Strict
        } else if sx == sv {
            Tight::Tie
        } else {
            return None;
        };
        (self.candidate(x, v, w, sx) == sv).then_some(kind)
    }

    /// The level `v`'s in-edges give it under `levels`: the local rule
    /// whose least solution the levels are.
    fn local_level(&self, v: VertexId, states: &[f64], levels: &[u32]) -> u32 {
        if self.is_intrinsic(v, states) {
            return 0;
        }
        let mut best = UNCERTIFIED;
        for (x, w) in self.g.in_edges(v) {
            match self.tight(x, v, w, states) {
                Some(Tight::Strict) => return 0,
                Some(Tight::Tie) => best = best.min(levels[x as usize].saturating_add(1)),
                None => {}
            }
        }
        best
    }

    /// The set of vertices whose state the deletions behind `seeds` (the
    /// heads of removed or re-weighted edges) leave without a
    /// certificate, in discovery order: a vertex stays iff it is
    /// intrinsic or some surviving in-edge from an unaffected vertex
    /// certifies it (see the module docs); everything that loses its
    /// last certificate cascades to the vertices it may have been
    /// certifying. `levels` are the levels of `states` *before* the
    /// batch; they stay a valid order for every certificate that is
    /// still standing.
    ///
    /// Gives up — `None` — once the walk has visited more edges than
    /// the graph holds: past one engine sweep's worth of work, trimming
    /// costs more than the cold run it is there to avoid.
    pub(crate) fn affected_by_deletions(
        &self,
        states: &[f64],
        levels: &[u32],
        seeds: &[VertexId],
    ) -> Option<Vec<VertexId>> {
        if seeds.is_empty() {
            return Some(Vec::new());
        }
        let g = self.g;
        let n = g.num_vertices();
        let mut affected = vec![false; n];
        let mut queued = vec![false; n];
        let mut queue = VecDeque::new();
        for &s in seeds {
            if (s as usize) < n && !std::mem::replace(&mut queued[s as usize], true) {
                queue.push_back(s);
            }
        }
        let mut out = Vec::new();
        let mut edge_visits = 0usize;
        while let Some(v) = queue.pop_front() {
            if edge_visits > g.num_edges() {
                return None;
            }
            queued[v as usize] = false;
            if affected[v as usize] {
                continue;
            }
            let supported = self.is_intrinsic(v, states)
                || g.in_edges(v).any(|(x, w)| {
                    edge_visits += 1;
                    !affected[x as usize]
                        && match self.tight(x, v, w, states) {
                            Some(Tight::Strict) => true,
                            Some(Tight::Tie) => levels[x as usize] < levels[v as usize],
                            None => false,
                        }
                });
            if !supported {
                affected[v as usize] = true;
                out.push(v);
                // Everything this vertex may have been certifying needs
                // a recheck.
                g.for_each_out_neighbor(v, |w| {
                    edge_visits += 1;
                    if !affected[w as usize] && !std::mem::replace(&mut queued[w as usize], true) {
                        queue.push_back(w);
                    }
                });
            }
        }
        Some(out)
    }

    /// The levels of `states` from scratch: one pass to find level 0,
    /// one breadth-first search over tie edges. `O(|V| + |E|)`.
    pub(crate) fn build_levels(&self, states: &[f64]) -> Vec<u32> {
        let n = self.g.num_vertices();
        let mut levels = vec![UNCERTIFIED; n];
        let mut queue = VecDeque::new();
        for v in 0..n as VertexId {
            // Against all-uncertified levels the local rule answers 0
            // exactly for the intrinsic and the strictly supported.
            if self.local_level(v, states, &levels) == 0 {
                queue.push_back(v);
            }
        }
        for &v in &queue {
            levels[v as usize] = 0;
        }
        while let Some(x) = queue.pop_front() {
            let next = levels[x as usize] + 1;
            for (v, w) in self.g.out_edges(x) {
                if levels[v as usize] == UNCERTIFIED
                    && self.tight(x, v, w, states) == Some(Tight::Tie)
                {
                    levels[v as usize] = next;
                    queue.push_back(v);
                }
            }
        }
        levels
    }

    /// Brings `levels` — exact for the graph and states before a batch —
    /// up to date with the patched graph and the re-converged `states`,
    /// touching only what the batch can have moved. `changed` lists the
    /// vertices whose state bits differ, `heads` the heads of every
    /// inserted, removed or re-weighted edge; between them and the
    /// changed vertices' out-neighbors they cover every vertex whose
    /// in-edges, own state or in-neighbor states — everything the local
    /// rule reads besides levels — differ from before.
    ///
    /// Two phases, the unit-weight case of incremental shortest paths.
    /// *Raise*: in increasing order of old level, a touched vertex whose
    /// in-edges no longer justify its level is uncertified, and so in
    /// turn are the tie children one level up that hung off it. *Lower*:
    /// every visited vertex takes the level its in-edges now give it, and
    /// improvements relax outward in level order until nothing moves.
    /// The result equals [`Support::build_levels`] on the new states.
    pub(crate) fn repair_levels(
        &self,
        states: &[f64],
        levels: &mut [u32],
        changed: &[VertexId],
        heads: impl Iterator<Item = VertexId>,
    ) {
        let g = self.g;
        let mut heap = BinaryHeap::new();
        for &v in changed {
            // A new value is a new tie class: the old level means nothing
            // (and must be gone before any neighbor's entry reads it).
            levels[v as usize] = UNCERTIFIED;
        }
        for &v in changed {
            heap.push(Reverse((UNCERTIFIED, v)));
            g.for_each_out_neighbor(v, |w| heap.push(Reverse((levels[w as usize], w))));
        }
        for v in heads {
            heap.push(Reverse((levels[v as usize], v)));
        }

        let mut seen = vec![false; levels.len()];
        let mut visited = Vec::new();
        while let Some(Reverse((level, v))) = heap.pop() {
            if std::mem::replace(&mut seen[v as usize], true) {
                continue;
            }
            visited.push(v);
            // Everything that could certify `v` at `level` sits lower and
            // has been decided already.
            if level != UNCERTIFIED && self.local_level(v, states, levels) > level {
                levels[v as usize] = UNCERTIFIED;
                for (w, weight) in g.out_edges(v) {
                    if levels[w as usize] == level + 1
                        && self.tight(v, w, weight, states) == Some(Tight::Tie)
                    {
                        heap.push(Reverse((level + 1, w)));
                    }
                }
            }
        }

        for v in visited {
            let level = self.local_level(v, states, levels);
            if level < levels[v as usize] {
                levels[v as usize] = level;
                heap.push(Reverse((level, v)));
            }
        }
        while let Some(Reverse((level, x))) = heap.pop() {
            if level != levels[x as usize] {
                continue; // superseded by a lower entry
            }
            for (v, w) in g.out_edges(x) {
                if level + 1 < levels[v as usize] && self.tight(x, v, w, states) == Some(Tight::Tie)
                {
                    levels[v as usize] = level + 1;
                    heap.push(Reverse((level + 1, v)));
                }
            }
        }
    }
}
