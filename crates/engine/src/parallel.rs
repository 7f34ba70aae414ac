//! Parallel block-asynchronous engine with direction optimization.
//!
//! The PR 5 push/pull round planner (see [`crate::direction`]) and the
//! block-parallel execution model compose here into one engine:
//!
//! - **dense rounds** cut the processing order into contiguous blocks
//!   (rayon), each scanning its slice sequentially against a shared
//!   atomic state array. Within a block the Gauss–Seidel freshness of
//!   the async engine is preserved; across concurrently-running blocks
//!   reads may see either the old or the new value — safe for monotonic
//!   algorithms (the paper's asynchronous-parallel semantics \[14\]):
//!   stale reads only delay, never corrupt, the unique fixpoint.
//! - **sparse pull rounds** gather only the vertices whose inputs may
//!   have changed, the scheduled positions split into per-worker chunks
//!   swept in parallel.
//! - **push rounds** scatter pending changes over out-edges with CAS
//!   min/max relaxations on the atomic cells (`AtomicF64::relax`),
//!   chosen per round by the shared Beamer-style `choose_push`
//!   heuristic.
//!
//! Each worker records the positions it changed in its own [`Frontier`]
//! buffer; the buffers merge into one set at the round barrier
//! ([`Frontier::union_with`]), which plans the next round. Unlike the
//! sequential engines there is **no in-round activation** — a change
//! produced mid-round schedules work for the *next* round — so staleness
//! is repaired by rescheduling rather than by sweep order.
//!
//! Determinism contract: max-norm algorithms run to exact stability
//! (`epsilon == 0`) and land on the unique floating-point fixpoint, so
//! final states are **bit-identical across runs and block counts**
//! (round counts may vary). Sum-norm algorithms keep the engine's
//! historical racing-accumulate tolerance contract: runs stop within
//! epsilon of the fixpoint, and racing blocks shift where inside that
//! band each run lands.

use crate::algorithm::{ConvergenceNorm, IterativeAlgorithm};
use crate::convergence::{trace_point, DeltaAccumulator, RunStats};
use crate::direction::{
    choose_push, push_mass, DirectionPolicy, DENSE_EVAL_DENOMINATOR, GENERAL_DENSE_DENOMINATOR,
};
use crate::dispatch::{GatherContext, ScatterContext};
use crate::runner::RunConfig;
use gograph_graph::{CsrGraph, Frontier, Permutation, VertexId};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Atomic f64 cell (bit-cast over `AtomicU64`, relaxed ordering — the
/// monotone-fixpoint argument does not need any ordering guarantees).
struct AtomicF64(AtomicU64);

impl AtomicF64 {
    fn new(x: f64) -> Self {
        AtomicF64(AtomicU64::new(x.to_bits()))
    }

    #[inline]
    fn load(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    #[inline]
    fn store(&self, x: f64) {
        self.0.store(x.to_bits(), Ordering::Relaxed);
    }

    /// CAS relaxation loop: replaces the cell with `f(current)` until
    /// the exchange lands or `f` stops improving it. Returns the
    /// `(old, new)` pair of the winning exchange, or `None` when the
    /// cell was already stable under `f`. Lock-free: a failed exchange
    /// means another worker improved the cell concurrently, and the
    /// monotone `f` simply re-derives from the fresher value.
    #[inline]
    fn relax(&self, f: impl Fn(f64) -> f64) -> Option<(f64, f64)> {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let old = f64::from_bits(cur);
            let new = f(old);
            if new == old {
                return None;
            }
            match self.0.compare_exchange_weak(
                cur,
                new.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some((old, new)),
                Err(actual) => cur = actual,
            }
        }
    }
}

/// Below this many scheduled positions a sparse/push round runs inline
/// on the calling thread: fan-out/join overhead would dominate the tail
/// rounds, which on reordered graphs are exactly where the direction
/// machinery wins its edge-work savings. `GOGRAPH_PAR_CUTOFF` overrides
/// (0 forces every round onto the pool — the CI knob that exercises the
/// CAS paths on small graphs under `--release`).
const PAR_ROUND_CUTOFF: usize = 2048;

fn par_round_cutoff() -> usize {
    std::env::var("GOGRAPH_PAR_CUTOFF")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(PAR_ROUND_CUTOFF)
}

/// The block-parallel round loop, generic over the algorithm so the
/// per-edge gather/scatter inlines inside each worker's sweep, started
/// from `init_states` with `num_blocks >= 2` order blocks per round (one
/// block is the sequential sweep, which [`crate::execute`] routes there
/// directly).
///
/// `initial_frontier` (vertex ids) seeds the first round as an exact
/// pull set: only the seeded vertices re-gather, and the run grows
/// outward from whatever they change — the warm-start carryover the
/// streaming path feeds through [`crate::WarmStart::with_frontier_set`].
/// Without a frontier the first round is a full sweep.
///
/// # Panics
/// Panics if `order` or `init_states` do not cover the graph;
/// [`crate::execute`] validates both.
pub(crate) fn parallel_kernel<A: IterativeAlgorithm + ?Sized>(
    g: &CsrGraph,
    alg: &A,
    order: &Permutation,
    num_blocks: usize,
    cfg: &RunConfig,
    init_states: Vec<f64>,
    initial_frontier: Option<&Frontier>,
) -> RunStats {
    let n = g.num_vertices();
    assert_eq!(order.len(), n, "order length must match vertex count");
    assert_eq!(init_states.len(), n, "state length must match vertex count");
    debug_assert!(
        (2..=n).contains(&num_blocks),
        "execute clamps the block count"
    );
    let ctx = GatherContext::new(g);
    let sctx = ScatterContext::new(g);
    let num_edges = g.num_edges();
    // Same policy wiring as the async planner: under PullOnly even
    // push-capable algorithms use the per-target plan.
    let push_ok = alg.supports_push() && cfg.direction != DirectionPolicy::PullOnly;
    let force_push = alg.supports_push() && cfg.direction == DirectionPolicy::PushOnly;
    let dense_denom = if push_ok {
        DENSE_EVAL_DENOMINATOR
    } else {
        GENERAL_DENSE_DENOMINATOR
    };
    let norm = alg.norm();
    let eps = alg.epsilon();
    let cells: Vec<AtomicF64> = init_states.into_iter().map(AtomicF64::new).collect();
    let states = &cells[..];
    let start = Instant::now();
    let mut trace = Vec::new();
    let snapshot = |states: &[AtomicF64]| -> Vec<f64> { states.iter().map(|s| s.load()).collect() };
    if cfg.record_trace {
        trace.push(trace_point(
            0,
            start.elapsed(),
            f64::INFINITY,
            &snapshot(states),
        ));
    }

    let block_size = n.div_ceil(num_blocks).max(1);
    let blocks: Vec<&[VertexId]> = order.order().chunks(block_size).collect();
    // Indexed job list for dense rounds (the vendored rayon shim has no
    // enumerate adapter).
    let dense_jobs: Vec<(usize, &[VertexId])> = blocks.iter().copied().enumerate().collect();
    // Per-worker output buffers: job `i` records the positions it
    // changed in `scratch[i]`, and the barrier merges them into one
    // frontier. Each job locks only its own buffer, so the mutexes are
    // uncontended and exist to satisfy `Sync`.
    let scratch: Vec<Mutex<Frontier>> = (0..blocks.len())
        .map(|_| Mutex::new(Frontier::new(n)))
        .collect();
    let fold_delta = |results: &[(f64, usize)]| -> f64 {
        match norm {
            ConvergenceNorm::Max => results.iter().map(|r| r.0).fold(0.0, f64::max),
            ConvergenceNorm::Sum => results.iter().map(|r| r.0).sum(),
        }
    };

    /// What `work_set` holds going into a round — the same three states
    /// as the sequential planner in `asynch.rs`.
    #[derive(Clone, Copy, PartialEq)]
    enum Work {
        /// Nothing yet — run a full sweep (cold start / warm restart).
        Dense,
        /// Positions whose new value their out-neighbors have not all
        /// seen: pushed as sources, or expanded lazily into a pull
        /// schedule of their out-neighborhoods (plus themselves under
        /// the per-target plan, `!push_ok`).
        Changed,
        /// Exact pull set (warm-start seed): gather these, nothing else.
        Targets,
    }
    let mut work = Work::Dense;
    let mut work_set = Frontier::new(n);
    let mut work_count = 0usize;
    if let Some(seed) = initial_frontier {
        seed.for_each(|v| {
            work_set.insert(order.position(v));
        });
        work_count = work_set.len();
        work = Work::Targets;
    }
    let mut out_set = Frontier::new(n);
    let mut expand = Frontier::new(n);
    let mut sched: Vec<u32> = Vec::new();
    let par_cutoff = par_round_cutoff();

    let mut rounds = 0usize;
    let mut push_rounds = 0usize;
    let mut converged = false;
    while rounds < cfg.max_rounds {
        rounds += 1;
        // Plan the round: push wins whenever the frontier's out-degree
        // mass beats the pull side's true cost. For a trackable-sparse
        // frontier that cost is the out-neighborhood expansion and the
        // Beamer crossover applies unchanged. Past the density cutoff
        // the pull route is a *full* gather sweep plus the follow-up
        // sweep the dropped changed set forces (the dense arm stops
        // tracking members once the round pins itself dense), so push
        // competes against `2|E|` there — and a frontier's out-degree
        // mass never exceeds `|E|`, so push-capable rounds scatter
        // instead of paying two streaming passes. Unlike the sequential
        // async engine the dense sweep holds no Gauss–Seidel freshness
        // edge here (cross-block reads are stale anyway). The Targets
        // round stays a gather by construction — the seeds' *inputs*
        // changed, so scattering their own states would propagate
        // nothing.
        let dense = match work {
            Work::Dense => true,
            // The warm seed is an *exact* pull set: the caller asserts
            // only these vertices' inputs changed, so the first round
            // gathers exactly them no matter how many there are — a
            // density reroute to the full sweep would silently discard
            // the seed and replay the cold trajectory.
            Work::Targets => false,
            Work::Changed => work_count * dense_denom > n,
        };
        let push = match work {
            Work::Dense => force_push,
            Work::Targets => false,
            Work::Changed => {
                let pull_bound = if dense { 2 * num_edges } else { num_edges };
                choose_push(
                    cfg.direction,
                    push_ok,
                    push_mass(&work_set, order, ctx.out_degrees()),
                    pull_bound,
                )
            }
        };
        out_set.clear();
        for s in &scratch {
            s.lock().unwrap().clear();
        }
        let delta;
        let out_count;

        if push {
            // Push round: every scheduled source scatters its state over
            // its out-edges; targets are relaxed with a CAS loop, so
            // concurrent relaxations of the same cell all land (each
            // failed exchange retries against the fresher value).
            push_rounds += 1;
            sched.clear();
            match work {
                Work::Dense => sched.extend(0..n as u32),
                _ => work_set.for_each_ascending(|p| sched.push(p)),
            }
            let run_job = |ji: usize, positions: &[u32]| -> (f64, usize) {
                let mut acc = DeltaAccumulator::new(norm);
                let mut out = scratch[ji].lock().unwrap();
                for &pos in positions {
                    let u = order.vertex_at(pos as usize);
                    let su = states[u as usize].load();
                    sctx.scatter(alg, u, su, |v, cand| {
                        if let Some((old, new)) =
                            states[v as usize].relax(|cur| alg.apply(g, v, cur, cand))
                        {
                            acc.record(old, new);
                            out.insert(order.position(v));
                        }
                    });
                }
                (acc.value(), 0)
            };
            let results: Vec<(f64, usize)> = if sched.len() <= par_cutoff {
                vec![run_job(0, &sched)]
            } else {
                let chunk = sched.len().div_ceil(blocks.len()).max(1);
                let jobs: Vec<(usize, &[u32])> = sched.chunks(chunk).enumerate().collect();
                jobs.par_iter().map(|&(ji, p)| run_job(ji, p)).collect()
            };
            delta = fold_delta(&results);
            for s in &scratch {
                out_set.union_with(&s.lock().unwrap());
            }
            out_count = out_set.len();
            work = Work::Changed;
        } else if dense {
            // Dense round: contiguous order blocks in parallel, the
            // historical block-parallel sweep plus changed-member
            // tracking. A block stops materializing members once its own
            // count pins the next round dense (the merge is skipped in
            // that case — only the total count is consulted).
            let results: Vec<(f64, usize)> = dense_jobs
                .par_iter()
                .map(|&(bi, block)| {
                    let mut acc = DeltaAccumulator::new(norm);
                    let mut count = 0usize;
                    let mut out = scratch[bi].lock().unwrap();
                    let base = bi * block_size;
                    let mut track = true;
                    for (i, &v) in block.iter().enumerate() {
                        let a = ctx.gather_with(alg, v, |u| states[u].load());
                        let old = states[v as usize].load();
                        let new = alg.apply(g, v, old, a);
                        acc.record(old, new);
                        if new != old {
                            states[v as usize].store(new);
                            count += 1;
                            if track {
                                out.insert((base + i) as u32);
                                if count * dense_denom > n {
                                    track = false;
                                    out.clear();
                                }
                            }
                        }
                    }
                    (acc.value(), count)
                })
                .collect();
            delta = fold_delta(&results);
            let count: usize = results.iter().map(|r| r.1).sum();
            if count * dense_denom <= n {
                // Every block tracked fully (a partial block alone would
                // have pushed the total past the threshold), so the
                // union is the exact changed set.
                for s in &scratch {
                    out_set.union_with(&s.lock().unwrap());
                }
                work = Work::Changed;
            } else {
                // The changed set overflowed and was dropped; out_set is
                // empty, so the next round must be a full sweep (forced
                // push schedules every source from a Dense work state —
                // scheduling from the empty set would falsely converge).
                work = Work::Dense;
            }
            out_count = count;
        } else {
            // Sparse pull round: schedule exactly the positions whose
            // inputs may have changed, gather them in parallel chunks.
            // Changes reschedule their dependents for the next round —
            // that is how a stale cross-chunk read (a source improving
            // concurrently with its target's gather) is repaired.
            sched.clear();
            match work {
                Work::Targets => work_set.for_each_ascending(|p| sched.push(p)),
                Work::Changed => {
                    expand.clear();
                    work_set.for_each(|p| {
                        if !push_ok {
                            // Per-target plan: the changed vertex itself
                            // re-evaluates too (exact for any pure
                            // algorithm whose apply reads `cur`).
                            expand.insert(p);
                        }
                        g.for_each_out_neighbor(order.vertex_at(p as usize), |w| {
                            expand.insert(order.position(w));
                        });
                    });
                    expand.for_each_ascending(|p| sched.push(p));
                }
                Work::Dense => unreachable!("dense work is handled by the dense arm"),
            }
            let run_job = |ji: usize, positions: &[u32]| -> (f64, usize) {
                let mut acc = DeltaAccumulator::new(norm);
                let mut count = 0usize;
                let mut out = scratch[ji].lock().unwrap();
                for &pos in positions {
                    let v = order.vertex_at(pos as usize);
                    let a = ctx.gather_with(alg, v, |u| states[u].load());
                    let old = states[v as usize].load();
                    let new = alg.apply(g, v, old, a);
                    acc.record(old, new);
                    if new != old {
                        states[v as usize].store(new);
                        count += 1;
                        out.insert(pos);
                    }
                }
                (acc.value(), count)
            };
            let results: Vec<(f64, usize)> = if sched.len() <= par_cutoff {
                vec![run_job(0, &sched)]
            } else {
                let chunk = sched.len().div_ceil(blocks.len()).max(1);
                let jobs: Vec<(usize, &[u32])> = sched.chunks(chunk).enumerate().collect();
                jobs.par_iter().map(|&(ji, p)| run_job(ji, p)).collect()
            };
            delta = fold_delta(&results);
            for s in &scratch {
                out_set.union_with(&s.lock().unwrap());
            }
            out_count = out_set.len();
            work = Work::Changed;
        }

        if cfg.record_trace {
            trace.push(trace_point(
                rounds,
                start.elapsed(),
                delta,
                &snapshot(states),
            ));
        }
        if delta <= eps {
            converged = true;
            break;
        }
        std::mem::swap(&mut work_set, &mut out_set);
        work_count = out_count;
    }

    let scratch_bytes: usize = scratch
        .iter()
        .map(|s| s.lock().unwrap().memory_bytes())
        .sum();
    RunStats {
        rounds,
        runtime: start.elapsed(),
        converged,
        final_states: snapshot(states),
        trace,
        // Shared atomic state array, the per-job (delta, count) cells
        // the round barrier collects (blocks.len() <= num_blocks when n
        // is not divisible by the block count), the planner's frontier
        // sets, the scheduled-position list, and every per-worker output
        // buffer.
        state_memory_bytes: n * std::mem::size_of::<f64>()
            + blocks.len() * std::mem::size_of::<(f64, usize)>()
            + work_set.memory_bytes()
            + out_set.memory_bytes()
            + expand.memory_bytes()
            + sched.capacity() * std::mem::size_of::<u32>()
            + scratch_bytes,
        evaluations: None,
        push_rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Bfs, PageRank, Sssp};
    use crate::runner::Mode;
    use crate::strategy::run_cold;
    use gograph_graph::generators::{
        planted_partition, with_random_weights, PlantedPartitionConfig,
    };

    /// Block counts for the CAS-path tests; override with
    /// `GOGRAPH_TEST_THREADS` so CI can exercise wider interleavings
    /// under `--release`.
    fn test_blocks() -> usize {
        std::env::var("GOGRAPH_TEST_THREADS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(4)
    }

    fn test_graph() -> CsrGraph {
        with_random_weights(
            &planted_partition(PlantedPartitionConfig {
                num_vertices: 300,
                num_edges: 2500,
                communities: 8,
                p_intra: 0.8,
                gamma: 2.5,
                seed: 2,
            }),
            1.0,
            5.0,
            9,
        )
    }

    #[test]
    fn parallel_sssp_matches_sequential_fixpoint() {
        let g = test_graph();
        let cfg = RunConfig::default();
        let id = Permutation::identity(300);
        let alg = Sssp::new(0);
        let seq = run_cold(&g, &alg, Mode::Async, &id, &cfg);
        let par = run_cold(&g, &alg, Mode::Parallel(8), &id, &cfg);
        assert!(par.converged);
        assert_eq!(seq.final_states, par.final_states);
    }

    #[test]
    fn parallel_pagerank_matches_fixpoint() {
        let g = test_graph();
        let cfg = RunConfig::default();
        let id = Permutation::identity(300);
        let pr = PageRank::default();
        let seq = run_cold(&g, &pr, Mode::Async, &id, &cfg);
        let par = run_cold(&g, &pr, Mode::Parallel(4), &id, &cfg);
        assert!(par.converged);
        for (x, y) in seq.final_states.iter().zip(&par.final_states) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn one_block_equals_async() {
        let g = test_graph();
        let cfg = RunConfig::default();
        let id = Permutation::identity(300);
        let alg = Sssp::new(0);
        let seq = run_cold(&g, &alg, Mode::Async, &id, &cfg);
        let par = run_cold(&g, &alg, Mode::Parallel(1), &id, &cfg);
        assert_eq!(seq.rounds, par.rounds);
        assert_eq!(seq.final_states, par.final_states);
    }

    #[test]
    fn direction_policies_agree_on_the_parallel_fixpoint() {
        // auto / pull / push, all at several block counts, all land on
        // the async engine's exact states (max-norm unique fixpoint).
        let g = test_graph();
        let cfg_for = |direction| RunConfig {
            direction,
            ..Default::default()
        };
        let id = Permutation::identity(300);
        let alg = Sssp::new(0);
        let reference = run_cold(&g, &alg, Mode::Async, &id, &cfg_for(DirectionPolicy::Auto));
        for blocks in [2, test_blocks(), 8] {
            for direction in [
                DirectionPolicy::Auto,
                DirectionPolicy::PullOnly,
                DirectionPolicy::PushOnly,
            ] {
                let par = run_cold(&g, &alg, Mode::Parallel(blocks), &id, &cfg_for(direction));
                assert!(par.converged, "{blocks} blocks / {direction:?}");
                assert_eq!(
                    reference.final_states, par.final_states,
                    "{blocks} blocks / {direction:?}"
                );
                if direction == DirectionPolicy::PushOnly {
                    assert!(par.push_rounds > 0, "PushOnly must scatter");
                }
                if direction == DirectionPolicy::PullOnly {
                    assert_eq!(par.push_rounds, 0, "PullOnly must never scatter");
                }
            }
        }
    }

    #[test]
    fn push_rounds_reported_and_deterministic_across_runs() {
        // CAS-relaxation stress: many blocks, forced push, repeated runs
        // must stay bit-identical (unique max-norm fixpoint).
        let g = test_graph();
        let cfg = RunConfig {
            direction: DirectionPolicy::PushOnly,
            ..Default::default()
        };
        let id = Permutation::identity(300);
        let alg = Bfs::new(0);
        let first = run_cold(&g, &alg, Mode::Parallel(test_blocks()), &id, &cfg);
        assert!(first.converged);
        assert!(
            first.push_rounds > 0,
            "push_rounds must count scatter rounds"
        );
        assert!(first.push_rounds <= first.rounds);
        for _ in 0..3 {
            let again = run_cold(&g, &alg, Mode::Parallel(test_blocks()), &id, &cfg);
            assert_eq!(first.final_states, again.final_states);
        }
    }

    #[test]
    fn cas_push_paths_run_on_the_pool_for_large_rounds() {
        // 5000 vertices exceed PAR_ROUND_CUTOFF, so the forced push
        // rounds scatter across the worker pool through the CAS
        // relaxation loop even without the GOGRAPH_PAR_CUTOFF override.
        // The fixpoint must match the async engine bit-for-bit, and
        // repeat runs must be bit-identical.
        let g = with_random_weights(
            &planted_partition(PlantedPartitionConfig {
                num_vertices: 5_000,
                num_edges: 40_000,
                communities: 12,
                p_intra: 0.8,
                gamma: 2.5,
                seed: 7,
            }),
            1.0,
            5.0,
            11,
        );
        let id = Permutation::identity(5_000);
        let alg = Sssp::new(0);
        let reference = run_cold(&g, &alg, Mode::Async, &id, &RunConfig::default());
        let cfg = RunConfig {
            direction: DirectionPolicy::PushOnly,
            ..Default::default()
        };
        let first = run_cold(&g, &alg, Mode::Parallel(test_blocks()), &id, &cfg);
        assert!(first.converged);
        assert!(first.push_rounds > 0, "forced push must scatter");
        assert_eq!(reference.final_states, first.final_states);
        let again = run_cold(&g, &alg, Mode::Parallel(test_blocks()), &id, &cfg);
        assert_eq!(first.final_states, again.final_states);
    }

    #[test]
    fn warm_frontier_seed_converges_from_the_seeded_targets() {
        // Worklist-style warm start: init states + the source's
        // out-neighborhood as the pull seed must reach the cold
        // fixpoint.
        let g = test_graph();
        let cfg = RunConfig::default();
        let id = Permutation::identity(300);
        let alg = Sssp::new(0);
        let cold = run_cold(&g, &alg, Mode::Parallel(4), &id, &cfg);
        let init: Vec<f64> = (0..300u32).map(|v| alg.init(&g, v)).collect();
        let seed = Frontier::from_members(300, g.out_neighbors(0).iter().copied());
        let warm = parallel_kernel(&g, &alg, &id, 4, &cfg, init, Some(&seed));
        assert!(warm.converged);
        assert_eq!(cold.final_states, warm.final_states);
        // An empty frontier with fixpoint states confirms in one round.
        let empty = Frontier::new(300);
        let confirm = parallel_kernel(
            &g,
            &alg,
            &id,
            4,
            &cfg,
            cold.final_states.clone(),
            Some(&empty),
        );
        assert_eq!(confirm.rounds, 1);
        assert!(confirm.converged);
    }

    #[test]
    fn memory_accounting_counts_actual_buffers() {
        // n=10, num_blocks=7 -> block_size=2 -> only 5 blocks exist; the
        // stat must count the per-block barrier cells and per-worker
        // frontier buffers actually allocated (5, not 7), on top of the
        // shared state array and the planner's sets.
        let g = gograph_graph::generators::regular::chain(10);
        let cfg = RunConfig::default();
        let stats = run_cold(
            &g,
            &Sssp::new(0),
            Mode::Parallel(7),
            &Permutation::identity(10),
            &cfg,
        );
        let states = 10 * std::mem::size_of::<f64>();
        let barrier_cells = 5 * std::mem::size_of::<(f64, usize)>();
        // Eight frontiers exist (work/out/expand + 5 worker buffers),
        // each holding at least one bitmap word and one summary word.
        let frontier_floor = 8 * 2 * std::mem::size_of::<u64>();
        assert!(
            stats.state_memory_bytes >= states + barrier_cells + frontier_floor,
            "undercounted: {}",
            stats.state_memory_bytes
        );
        // And strictly more than the pre-fix formula, which ignored the
        // frontier machinery entirely.
        assert!(stats.state_memory_bytes > (10 + 5) * std::mem::size_of::<f64>());
    }

    #[test]
    fn excessive_block_count_clamped() {
        let g = gograph_graph::generators::regular::chain(5);
        let cfg = RunConfig::default();
        let stats = run_cold(
            &g,
            &Sssp::new(0),
            Mode::Parallel(1000),
            &Permutation::identity(5),
            &cfg,
        );
        assert!(stats.converged);
        assert_eq!(stats.final_states[4], 4.0);
    }
}
