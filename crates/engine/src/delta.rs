//! Delta-based accumulative iteration (Maiter, paper ref. \[14\]) and
//! prioritized scheduling (PrIter, ref. \[52\]) — the asynchronous-engine
//! family the paper's related work (§VI) positions GoGraph against.
//!
//! Instead of recomputing each vertex from all in-neighbors, a vertex
//! holds a state `x_v` and an unconsumed *delta* `Δ_v`; processing `v`
//! folds the delta into the state (`x_v = x_v ⊕ Δ_v`) and pushes
//! `g_{v→w}(Δ_v)` into each out-neighbor's delta. The scheduling freedom
//! is where the variants differ:
//!
//! - [`DeltaSchedule::RoundRobin`] scans a fixed processing order each
//!   round (so GoGraph's reordering helps exactly as in the gather
//!   engine);
//! - [`DeltaSchedule::Priority`] processes the highest-|delta| vertices
//!   first (PrIter), trading scheduling overhead for fewer updates.

use crate::convergence::{trace_point, RunStats};
use crate::direction::{
    choose_push, push_mass, DirectionPolicy, PositionScan, DENSE_EVAL_DENOMINATOR,
};
use crate::runner::RunConfig;
use gograph_graph::{CsrGraph, Frontier, Permutation, VertexId, Weight};
use std::time::Instant;

/// Scheduling discipline of the delta-accumulative engine family,
/// selected through [`crate::Mode::Delta`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeltaSchedule {
    /// Maiter-style: scan the processing order each round.
    RoundRobin,
    /// PrIter-style: process the highest-impact pending deltas first, in
    /// batches of the given fraction of vertices.
    Priority {
        /// Fraction of vertices per batch, in `(0, 1]`.
        batch_fraction: f64,
    },
}

/// A delta-accumulative algorithm: `x ⊕ Δ` with edge propagation
/// `g_{u→w}`.
pub trait DeltaAlgorithm: Send + Sync {
    /// Algorithm name for tables.
    fn name(&self) -> &'static str;

    /// Initial state `x⁰_v`.
    fn init_state(&self, g: &CsrGraph, v: VertexId) -> f64;

    /// Initial delta `Δ⁰_v`.
    fn init_delta(&self, g: &CsrGraph, v: VertexId) -> f64;

    /// Identity of `⊕` (0 for sum-style, `+inf` for min-style).
    fn identity(&self) -> f64;

    /// The accumulation `a ⊕ b`.
    fn combine(&self, a: f64, b: f64) -> f64;

    /// Edge propagation `g_{u→w}(Δ)`: the delta contribution sent along
    /// `u -> w` when `u` consumed delta `Δ`.
    fn propagate(&self, g: &CsrGraph, u: VertexId, w: VertexId, weight: Weight, delta: f64) -> f64;

    /// Whether a pending delta would still change the state enough to be
    /// worth processing (the convergence test).
    fn significant(&self, state: f64, delta: f64) -> bool;

    /// Whether `⊕` is **idempotent** (`a ⊕ a == a`, as for `min`/`max`)
    /// rather than accumulative (as for `+`). Warm-started streaming
    /// ([`crate::StreamingPipeline`]) relies on this to decide whether
    /// pending deltas may be re-derived from settled neighbor states —
    /// sound only when folding a value twice is harmless. The default
    /// `false` is always safe: non-idempotent algorithms are restarted
    /// per batch instead of warm-started. Min/max-style algorithms
    /// should override to `true` to unlock warm-started streaming.
    fn combine_is_idempotent(&self) -> bool {
        false
    }

    /// Identifies this algorithm as one of the built-ins so the delta
    /// engines can run a statically dispatched kernel — the delta-family
    /// counterpart of [`crate::IterativeAlgorithm::monomorphized`].
    /// Default `None`: the `dyn`-dispatch fallback kernel.
    ///
    /// **Wrappers must keep the default**: a `Some` answer makes the
    /// engine run the returned by-value copy instead of `self`, dropping
    /// any overridden behavior (see the gather-family doc for details).
    fn monomorphized(&self) -> Option<crate::dispatch::DeltaAlgorithmKind> {
        None
    }
}

/// Delta-accumulative PageRank: `x ⊕ Δ = x + Δ`,
/// `g(Δ) = d·Δ/|OUT(u)|`, `Δ⁰ = 1 − d`. Converges to the same fixpoint
/// as the gather formulation.
#[derive(Debug, Clone, Copy)]
pub struct DeltaPageRank {
    /// Damping factor.
    pub damping: f64,
    /// Significance threshold on deltas.
    pub epsilon: f64,
}

impl Default for DeltaPageRank {
    fn default() -> Self {
        DeltaPageRank {
            damping: 0.85,
            epsilon: 1e-9,
        }
    }
}

impl DeltaAlgorithm for DeltaPageRank {
    fn name(&self) -> &'static str {
        "delta-pagerank"
    }
    fn init_state(&self, _g: &CsrGraph, _v: VertexId) -> f64 {
        0.0
    }
    fn init_delta(&self, _g: &CsrGraph, _v: VertexId) -> f64 {
        1.0 - self.damping
    }
    fn identity(&self) -> f64 {
        0.0
    }
    #[inline]
    fn combine(&self, a: f64, b: f64) -> f64 {
        a + b
    }
    #[inline]
    fn propagate(
        &self,
        g: &CsrGraph,
        u: VertexId,
        _w: VertexId,
        _weight: Weight,
        delta: f64,
    ) -> f64 {
        let d = g.out_degree(u);
        if d == 0 {
            0.0
        } else {
            self.damping * delta / d as f64
        }
    }
    #[inline]
    fn significant(&self, _state: f64, delta: f64) -> bool {
        delta > self.epsilon
    }

    fn monomorphized(&self) -> Option<crate::dispatch::DeltaAlgorithmKind> {
        Some(crate::dispatch::DeltaAlgorithmKind::PageRank(*self))
    }
}

/// Delta-accumulative SSSP: `x ⊕ Δ = min(x, Δ)`, `g(Δ) = Δ + w(u, v)`,
/// `Δ⁰_src = 0`.
#[derive(Debug, Clone, Copy)]
pub struct DeltaSssp {
    /// Source vertex.
    pub source: VertexId,
}

impl DeltaAlgorithm for DeltaSssp {
    fn name(&self) -> &'static str {
        "delta-sssp"
    }
    fn init_state(&self, _g: &CsrGraph, _v: VertexId) -> f64 {
        f64::INFINITY
    }
    fn init_delta(&self, _g: &CsrGraph, v: VertexId) -> f64 {
        if v == self.source {
            0.0
        } else {
            f64::INFINITY
        }
    }
    fn identity(&self) -> f64 {
        f64::INFINITY
    }
    #[inline]
    fn combine(&self, a: f64, b: f64) -> f64 {
        a.min(b)
    }
    #[inline]
    fn propagate(
        &self,
        _g: &CsrGraph,
        _u: VertexId,
        _w: VertexId,
        weight: Weight,
        delta: f64,
    ) -> f64 {
        delta + weight
    }
    #[inline]
    fn significant(&self, state: f64, delta: f64) -> bool {
        delta < state
    }

    fn combine_is_idempotent(&self) -> bool {
        true // min is idempotent
    }

    fn monomorphized(&self) -> Option<crate::dispatch::DeltaAlgorithmKind> {
        Some(crate::dispatch::DeltaAlgorithmKind::Sssp(*self))
    }
}

/// The round-robin delta round loop, generic over the algorithm so
/// `combine` / `propagate` / `significant` inline with a concrete `D`:
/// each round scans the processing order, consuming significant deltas
/// and propagating to out-neighbors, and a round with no significant
/// delta terminates the run. It starts from `state` with `delta`
/// pending — for a cold run `init_state` / `init_delta`; for streaming
/// the settled states with only the deltas seeded at the update
/// frontier, so convergence is reached in as many rounds as the changes
/// propagate.
///
/// The round loop is direction-optimized with the gather engines'
/// shared `choose_push` heuristic: while the pending-significance set
/// is dense the round is the historical full order scan; once it turns
/// narrow, a `PositionScan` sparse sweep visits only pending positions
/// (with the same in-round consumption of forward contributions). The
/// two shapes are **trajectory-identical** — the sparse sweep visits a
/// superset of the significant positions in the same ascending order,
/// and an insignificant visit is a no-op in both — so states, rounds,
/// and convergence never depend on which shape ran.
/// `RunStats::push_rounds` counts the rounds that actually scattered
/// (consumed at least one significant delta).
///
/// # Panics
/// Panics if `order`, `state` or `delta` do not cover the graph;
/// [`crate::execute`] validates all three.
pub(crate) fn delta_round_robin_kernel<D: DeltaAlgorithm + ?Sized>(
    g: &CsrGraph,
    alg: &D,
    order: &Permutation,
    cfg: &RunConfig,
    mut state: Vec<f64>,
    mut delta: Vec<f64>,
) -> RunStats {
    let n = g.num_vertices();
    assert_eq!(order.len(), n);
    assert_eq!(state.len(), n, "state length must match vertex count");
    assert_eq!(delta.len(), n, "delta length must match vertex count");
    let start = Instant::now();
    let out_degrees = g.out_degrees();
    let num_edges = g.num_edges();
    let force_push = cfg.direction == DirectionPolicy::PushOnly;
    let mut trace = Vec::new();
    if cfg.record_trace {
        trace.push(trace_point(0, start.elapsed(), f64::INFINITY, &state));
    }

    // Pending-significance set over order positions, exact at round
    // boundaries: rebuilt by an O(n) scan after each full-scan round
    // (cheap next to the O(n + m) scan itself), maintained incrementally
    // through sparse rounds. Significance is monotone in the delta (a
    // combine can only keep or gain it), so insert-on-contribution never
    // misses a member.
    let mut pending = Frontier::new(n);
    let mut next_pending = Frontier::new(n);
    let mut scan = PositionScan::new(n);
    let rebuild = |state: &[f64], delta: &[f64], pending: &mut Frontier| {
        pending.clear();
        for pos in 0..n {
            let vi = order.vertex_at(pos) as usize;
            if alg.significant(state[vi], delta[vi]) {
                pending.insert(pos as u32);
            }
        }
    };
    rebuild(&state, &delta, &mut pending);

    let mut rounds = 0usize;
    let mut push_rounds = 0usize;
    let mut converged = false;
    while rounds < cfg.max_rounds {
        rounds += 1;
        let mut activity = 0usize;
        // The shared per-round direction choice: `sparse` plays the role
        // of push (scatter only the pending set), the full scan is the
        // delta family's dense-gather fallback. PullOnly pins the full
        // scan, PushOnly the sparse sweep.
        let sparse = force_push
            || (pending.len() * DENSE_EVAL_DENOMINATOR <= n
                && choose_push(
                    cfg.direction,
                    true,
                    push_mass(&pending, order, out_degrees),
                    num_edges,
                ));
        if sparse {
            scan.load(&pending);
            next_pending.clear();
            let mut wi = 0usize;
            while wi < scan.num_words() {
                let Some(pos) = scan.take_lowest(wi) else {
                    wi += 1;
                    continue;
                };
                let v = order.vertex_at(pos as usize);
                let m = delta[v as usize];
                if !alg.significant(state[v as usize], m) {
                    continue;
                }
                activity += 1;
                delta[v as usize] = alg.identity();
                state[v as usize] = alg.combine(state[v as usize], m);
                for (w, weight) in g.out_edges(v) {
                    let contrib = alg.propagate(g, v, w, weight, m);
                    delta[w as usize] = alg.combine(delta[w as usize], contrib);
                    if alg.significant(state[w as usize], delta[w as usize]) {
                        let pw = order.position(w);
                        if pw > pos {
                            // Ahead of the cursor: consumed this round,
                            // exactly as the full scan would.
                            scan.set(pw);
                        } else {
                            next_pending.insert(pw);
                        }
                    }
                }
            }
            std::mem::swap(&mut pending, &mut next_pending);
        } else {
            for &v in order.order() {
                let m = delta[v as usize];
                if !alg.significant(state[v as usize], m) {
                    continue;
                }
                activity += 1;
                delta[v as usize] = alg.identity();
                state[v as usize] = alg.combine(state[v as usize], m);
                for (w, weight) in g.out_edges(v) {
                    let contrib = alg.propagate(g, v, w, weight, m);
                    delta[w as usize] = alg.combine(delta[w as usize], contrib);
                }
            }
            rebuild(&state, &delta, &mut pending);
        }
        if activity > 0 {
            push_rounds += 1;
        }
        if cfg.record_trace {
            trace.push(trace_point(
                rounds,
                start.elapsed(),
                activity as f64,
                &state,
            ));
        }
        if activity == 0 {
            converged = true;
            break;
        }
    }

    RunStats {
        rounds,
        runtime: start.elapsed(),
        converged,
        final_states: state,
        trace,
        // state + delta arrays, plus the pending-set machinery.
        state_memory_bytes: 2 * n * std::mem::size_of::<f64>()
            + pending.memory_bytes()
            + next_pending.memory_bytes()
            + scan.memory_bytes(),
        evaluations: None,
        push_rounds,
    }
}

/// The PrIter-style prioritized delta loop, generic over the algorithm
/// so the per-edge `propagate` / `combine` inline with a concrete `D`:
/// repeatedly extracts the batch of vertices with the largest pending
/// |delta| impact and processes them, starting from `state` with `delta`
/// pending. `rounds` in the returned stats counts processed batches.
///
/// The sort-and-truncate batch selection only pays while the active set
/// is narrow; on dense rounds (pending out-degree mass at or above the
/// edge total under the shared `choose_push` heuristic) the whole
/// active set processes in vertex order instead — a gather-style dense
/// fallback that cuts the priority-queue pressure of sorting nearly
/// every vertex just to drop most of them. `DirectionPolicy::PushOnly`
/// pins the historical always-prioritize behaviour; `PullOnly` never
/// sorts. `RunStats::push_rounds` counts rounds that processed a batch.
///
/// # Panics
/// Panics if `state` or `delta` do not cover the graph, which
/// [`crate::execute`] validates along with `batch_fraction ∈ (0, 1]`.
pub(crate) fn delta_priority_kernel<D: DeltaAlgorithm + ?Sized>(
    g: &CsrGraph,
    alg: &D,
    batch_fraction: f64,
    cfg: &RunConfig,
    mut state: Vec<f64>,
    mut delta: Vec<f64>,
) -> RunStats {
    let n = g.num_vertices();
    assert_eq!(state.len(), n, "state length must match vertex count");
    assert_eq!(delta.len(), n, "delta length must match vertex count");
    let start = Instant::now();
    let out_degrees = g.out_degrees();
    let num_edges = g.num_edges();
    let batch = ((n as f64 * batch_fraction).ceil() as usize).clamp(1, n.max(1));
    let mut trace = Vec::new();
    if cfg.record_trace {
        trace.push(trace_point(0, start.elapsed(), f64::INFINITY, &state));
    }

    let mut rounds = 0usize;
    let mut push_rounds = 0usize;
    let mut converged = false;
    let mut active: Vec<VertexId> = Vec::with_capacity(batch);
    while rounds < cfg.max_rounds {
        rounds += 1;
        // Select the top-|batch| significant vertices by delta magnitude
        // (distance-style algorithms prioritize the *smallest* pending
        // value instead — encoded by priority_key below).
        active.clear();
        for v in 0..n as u32 {
            if alg.significant(state[v as usize], delta[v as usize]) {
                active.push(v);
            }
        }
        if active.is_empty() {
            converged = true;
            break;
        }
        push_rounds += 1;
        if active.len() > batch {
            let mass: usize = active
                .iter()
                .map(|&v| out_degrees[v as usize] as usize)
                .sum();
            // Dense fallback: once the batch would drop only a minority
            // of the pending mass, sorting costs more than the work it
            // defers — process the whole active set in vertex order.
            if choose_push(cfg.direction, true, mass, num_edges) {
                active.sort_by(|&a, &b| {
                    priority_key(alg, state[b as usize], delta[b as usize])
                        .partial_cmp(&priority_key(alg, state[a as usize], delta[a as usize]))
                        .unwrap()
                });
                active.truncate(batch);
            }
        }
        for &v in &active {
            let m = delta[v as usize];
            delta[v as usize] = alg.identity();
            state[v as usize] = alg.combine(state[v as usize], m);
            for (w, weight) in g.out_edges(v) {
                let contrib = alg.propagate(g, v, w, weight, m);
                delta[w as usize] = alg.combine(delta[w as usize], contrib);
            }
        }
        if cfg.record_trace {
            trace.push(trace_point(
                rounds,
                start.elapsed(),
                active.len() as f64,
                &state,
            ));
        }
    }

    RunStats {
        rounds,
        runtime: start.elapsed(),
        converged,
        final_states: state,
        trace,
        state_memory_bytes: 2 * n * std::mem::size_of::<f64>()
            + active.capacity() * std::mem::size_of::<VertexId>(),
        evaluations: None,
        push_rounds,
    }
}

/// Priority of a pending delta: larger = process sooner. Sum-style
/// algorithms favour the largest delta; min-style favour the smallest
/// pending value (closest to the source — Dijkstra-like).
fn priority_key<D: DeltaAlgorithm + ?Sized>(alg: &D, state: f64, delta: f64) -> f64 {
    if alg.identity() == 0.0 {
        delta
    } else {
        let _ = state;
        -delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{PageRank, Sssp};
    use crate::runner::Mode;
    use crate::strategy::{execute, run_cold, AlgorithmRef};
    use gograph_graph::generators::regular::chain;
    use gograph_graph::generators::{
        planted_partition, with_random_weights, PlantedPartitionConfig,
    };

    fn run_round_robin(
        g: &CsrGraph,
        alg: &dyn DeltaAlgorithm,
        order: &Permutation,
        cfg: &RunConfig,
    ) -> RunStats {
        let mode = Mode::Delta(DeltaSchedule::RoundRobin);
        execute(g, AlgorithmRef::Delta(alg), mode, order, cfg, None).unwrap()
    }

    fn run_priority(
        g: &CsrGraph,
        alg: &dyn DeltaAlgorithm,
        batch_fraction: f64,
        cfg: &RunConfig,
    ) -> RunStats {
        let mode = Mode::Delta(DeltaSchedule::Priority { batch_fraction });
        let id = Permutation::identity(g.num_vertices());
        execute(g, AlgorithmRef::Delta(alg), mode, &id, cfg, None).unwrap()
    }

    fn test_graph() -> CsrGraph {
        with_random_weights(
            &planted_partition(PlantedPartitionConfig {
                num_vertices: 300,
                num_edges: 2400,
                communities: 8,
                p_intra: 0.8,
                gamma: 2.4,
                seed: 31,
            }),
            1.0,
            5.0,
            7,
        )
    }

    #[test]
    fn delta_pagerank_matches_gather_engine() {
        let g = test_graph();
        let cfg = RunConfig::default();
        let id = Permutation::identity(300);
        let gather = run_cold(&g, &PageRank::default(), Mode::Async, &id, &cfg);
        let delta = run_round_robin(&g, &DeltaPageRank::default(), &id, &cfg);
        assert!(delta.converged);
        for (a, b) in gather.final_states.iter().zip(&delta.final_states) {
            assert!((a - b).abs() < 1e-4, "gather {a} vs delta {b}");
        }
    }

    #[test]
    fn delta_sssp_matches_gather_engine() {
        let g = test_graph();
        let cfg = RunConfig::default();
        let id = Permutation::identity(300);
        let gather = run_cold(&g, &Sssp::new(0), Mode::Async, &id, &cfg);
        let delta = run_round_robin(&g, &DeltaSssp { source: 0 }, &id, &cfg);
        assert!(delta.converged);
        assert_eq!(gather.final_states, delta.final_states);
    }

    #[test]
    fn priority_engine_same_fixpoint() {
        let g = test_graph();
        let cfg = RunConfig::default();
        let id = Permutation::identity(300);
        let rr = run_round_robin(&g, &DeltaSssp { source: 0 }, &id, &cfg);
        let pr = run_priority(&g, &DeltaSssp { source: 0 }, 0.1, &cfg);
        assert!(pr.converged);
        assert_eq!(rr.final_states, pr.final_states);
    }

    #[test]
    fn priority_pagerank_converges_to_same_mass() {
        let g = test_graph();
        let cfg = RunConfig::default();
        let id = Permutation::identity(300);
        let rr = run_round_robin(&g, &DeltaPageRank::default(), &id, &cfg);
        let pr = run_priority(&g, &DeltaPageRank::default(), 0.05, &cfg);
        assert!(pr.converged);
        let sum_rr: f64 = rr.final_states.iter().sum();
        let sum_pr: f64 = pr.final_states.iter().sum();
        assert!((sum_rr - sum_pr).abs() < 1e-3, "{sum_rr} vs {sum_pr}");
    }

    #[test]
    fn order_matters_for_delta_round_robin() {
        // Chain: forward order converges in 2 rounds, reverse needs ~n.
        let g = chain(30);
        let cfg = RunConfig::default();
        let alg = DeltaSssp { source: 0 };
        let fwd = run_round_robin(&g, &alg, &Permutation::identity(30), &cfg);
        let rev = run_round_robin(&g, &alg, &Permutation::identity(30).reversed(), &cfg);
        assert!(
            fwd.rounds < rev.rounds,
            "fwd {} !< rev {}",
            fwd.rounds,
            rev.rounds
        );
        assert_eq!(fwd.final_states, rev.final_states);
    }

    #[test]
    fn dangling_vertices_swallow_delta_mass() {
        let g = CsrGraph::from_edges(2, [(0u32, 1u32)]);
        let cfg = RunConfig::default();
        let stats = run_round_robin(
            &g,
            &DeltaPageRank::default(),
            &Permutation::identity(2),
            &cfg,
        );
        assert!(stats.converged);
        // x0 = 0.15; x1 = 0.15 + 0.85 * 0.15.
        assert!((stats.final_states[0] - 0.15).abs() < 1e-6);
        assert!((stats.final_states[1] - (0.15 + 0.85 * 0.15)).abs() < 1e-6);
    }
}
