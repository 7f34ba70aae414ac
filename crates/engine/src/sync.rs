//! Synchronous (Jacobi / round-robin) engine — the paper's Eq. 1.
//!
//! Every vertex is updated from its neighbors' states of the *previous*
//! round, which requires double-buffered state (the memory overhead
//! Fig. 11 attributes to the synchronous baseline).
//!
//! The round loop is direction-optimized (see [`crate::direction`]):
//! once the per-round changed set turns sparse, rounds either gather
//! only the affected vertices (sparse pull) or scatter the changed
//! vertices' out-edges (push, for
//! [`IterativeAlgorithm::supports_push`] algorithms), and dense rounds
//! under an identity order run the cache-blocked sweep. Every shape
//! reproduces the historical full sweep's states exactly: a vertex is
//! skipped only when its state and every in-neighbor state are
//! unchanged since the previous round, which makes its re-evaluation a
//! fixed point of the same pure function.

use crate::algorithm::IterativeAlgorithm;
use crate::convergence::{trace_point, DeltaAccumulator, RunStats};
use crate::direction::{
    choose_push, push_mass, BlockedSweep, DENSE_EVAL_DENOMINATOR, GENERAL_DENSE_DENOMINATOR,
};
use crate::dispatch::{GatherContext, ScatterContext};
use crate::runner::RunConfig;
use gograph_graph::{CsrGraph, Frontier, Permutation};
use std::time::Instant;

/// The synchronous round loop, generic over the algorithm so `gather` /
/// `apply` inline with a concrete `A`, started from `states`. The visit
/// order cannot change the result in this mode — only memory access
/// locality.
///
/// # Panics
/// Panics if `order` or `states` do not cover the graph;
/// [`crate::execute`] validates both.
pub(crate) fn sync_kernel<A: IterativeAlgorithm + ?Sized>(
    g: &CsrGraph,
    alg: &A,
    order: &Permutation,
    cfg: &RunConfig,
    states: Vec<f64>,
) -> RunStats {
    let n = g.num_vertices();
    assert_eq!(order.len(), n, "order length must match vertex count");
    assert_eq!(states.len(), n, "state length must match vertex count");
    let ctx = GatherContext::new(g);
    let sctx = ScatterContext::new(g);
    let num_edges = g.num_edges();
    // `states` is the committed (previous-round) view; `scratch` holds
    // the in-flight round's outputs for exactly the vertices it
    // evaluates, then commit copies the changes back — so both buffers
    // agree outside the evaluated set and sparse rounds never pay an
    // O(n) swap-and-copy.
    let mut states = states;
    let mut scratch: Vec<f64> = states.clone();
    let supports_push = alg.supports_push();
    let force_push = supports_push && cfg.direction == crate::direction::DirectionPolicy::PushOnly;
    let dense_denom =
        if supports_push && cfg.direction != crate::direction::DirectionPolicy::PullOnly {
            DENSE_EVAL_DENOMINATOR
        } else {
            GENERAL_DENSE_DENOMINATOR
        };
    let eps = alg.epsilon();
    let start = Instant::now();
    let mut trace = Vec::new();
    if cfg.record_trace {
        trace.push(trace_point(0, start.elapsed(), f64::INFINITY, &states));
    }

    // Positions (not vertex ids) whose state changed last round / this
    // round; `None` = everything (the cold first round). `changed_count`
    // is the true change count — dense sweeps stop materializing
    // members once the count alone forces the next round dense, so the
    // set may be partial and only the count is then consulted.
    let mut changed: Option<Frontier> = None;
    let mut changed_count = 0usize;
    let mut next_changed = Frontier::new(n);
    // Reused scratch sets for sparse rounds.
    let mut affected = Frontier::new(n);
    let mut touched = Frontier::new(n);
    // Cache-blocked dense sweep (identity order only), built on first
    // use; `acc` is its per-destination accumulator array.
    let mut blocked: Option<Option<BlockedSweep>> = None;
    let mut acc_buf: Vec<f64> = Vec::new();

    let mut rounds = 0usize;
    let mut converged = false;
    let mut push_rounds = 0usize;
    while rounds < cfg.max_rounds {
        rounds += 1;
        let mut acc_delta = DeltaAccumulator::new(alg.norm());
        next_changed.clear();
        let mut next_count = 0usize;

        // Near-full changed sets go back to the dense streaming sweep
        // even for push-capable algorithms; a forced PushOnly policy
        // overrides (a full-universe push then scatters every edge).
        let dense = match &changed {
            None => true,
            Some(_) => changed_count * dense_denom > n,
        };
        let push = match &changed {
            None => force_push,
            Some(c) => {
                (force_push || !dense)
                    && choose_push(
                        cfg.direction,
                        supports_push,
                        push_mass(c, order, ctx.out_degrees()),
                        num_edges,
                    )
            }
        };

        if push {
            // Push round: scatter each changed vertex's previous-round
            // state over its out-edges into `scratch` (first touch
            // copies the committed value), then commit the touched set.
            push_rounds += 1;
            touched.clear();
            let mut relax = |pos: usize| {
                let u = order.vertex_at(pos);
                let su = states[u as usize];
                sctx.scatter(alg, u, su, |v, cand| {
                    if touched.insert(order.position(v)) {
                        scratch[v as usize] = states[v as usize];
                    }
                    scratch[v as usize] = alg.apply(g, v, scratch[v as usize], cand);
                });
            };
            match &changed {
                None => (0..n).for_each(&mut relax),
                Some(c) => c.for_each_ascending(|p| relax(p as usize)),
            }
            touched.for_each_ascending(|p| {
                let v = order.vertex_at(p as usize) as usize;
                let (old, new) = (states[v], scratch[v]);
                acc_delta.record(old, new);
                if new != old {
                    states[v] = new;
                    next_count += 1;
                    next_changed.insert(p);
                }
            });
        } else if dense {
            // Full pull sweep — cache-blocked when the order is the
            // identity and the state array overflows the LLC budget.
            if blocked.is_none() {
                blocked = Some(if order.is_identity() {
                    BlockedSweep::build(g, BlockedSweep::block_positions(cfg.llc_bytes))
                } else {
                    None
                });
            }
            if let Some(Some(bs)) = &blocked {
                acc_buf.clear();
                acc_buf.resize(n, alg.gather_identity());
                bs.accumulate(&ctx, alg, &states, &mut acc_buf);
                for v in 0..n {
                    scratch[v] = alg.apply(g, v as u32, states[v], acc_buf[v]);
                }
            } else {
                for &v in order.order() {
                    let acc = ctx.gather(alg, v, &states);
                    scratch[v as usize] = alg.apply(g, v, states[v as usize], acc);
                }
            }
            // Member tracking stops once the count alone pins the next
            // round dense. (PushOnly never reaches a dense pull round:
            // force_push routes every round to the push arm.)
            let mut tracking = true;
            for pos in 0..n {
                let v = order.vertex_at(pos) as usize;
                let (old, new) = (states[v], scratch[v]);
                acc_delta.record(old, new);
                if new != old {
                    states[v] = new;
                    next_count += 1;
                    if tracking {
                        next_changed.insert(pos as u32);
                        if next_count * dense_denom > n {
                            tracking = false;
                        }
                    }
                }
            }
        } else {
            // Sparse pull: re-evaluate the changed set and its
            // out-neighborhoods; everything else is a fixed point of
            // the previous round's inputs.
            let c = changed.as_ref().expect("sparse round has a changed set");
            affected.clear();
            c.for_each(|p| {
                affected.insert(p);
                g.for_each_out_neighbor(order.vertex_at(p as usize), |w| {
                    affected.insert(order.position(w));
                });
            });
            affected.for_each_ascending(|p| {
                let v = order.vertex_at(p as usize);
                let acc = ctx.gather(alg, v, &states);
                scratch[v as usize] = alg.apply(g, v, states[v as usize], acc);
            });
            affected.for_each_ascending(|p| {
                let v = order.vertex_at(p as usize) as usize;
                let (old, new) = (states[v], scratch[v]);
                acc_delta.record(old, new);
                if new != old {
                    states[v] = new;
                    next_count += 1;
                    next_changed.insert(p);
                }
            });
        }

        if cfg.record_trace {
            trace.push(trace_point(
                rounds,
                start.elapsed(),
                acc_delta.value(),
                &states,
            ));
        }
        if acc_delta.value() <= eps {
            converged = true;
            break;
        }
        match &mut changed {
            None => changed = Some(std::mem::replace(&mut next_changed, Frontier::new(n))),
            Some(c) => std::mem::swap(c, &mut next_changed),
        }
        changed_count = next_count;
    }

    RunStats {
        rounds,
        runtime: start.elapsed(),
        converged,
        final_states: states,
        trace,
        // Double-buffered state (the sync engine's extra footprint),
        // plus the frontier sets, the blocked sweep's span table and
        // its accumulator array when built.
        state_memory_bytes: 2 * n * std::mem::size_of::<f64>()
            + changed.as_ref().map_or(0, |c| c.memory_bytes())
            + next_changed.memory_bytes()
            + affected.memory_bytes()
            + touched.memory_bytes()
            + acc_buf.capacity() * std::mem::size_of::<f64>()
            + blocked
                .as_ref()
                .and_then(|b| b.as_ref())
                .map_or(0, |b| b.memory_bytes()),
        evaluations: None,
        push_rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{PageRank, Sssp};
    use crate::runner::Mode;
    use crate::strategy::run_cold;
    use gograph_graph::generators::regular::{chain, cycle};

    #[test]
    fn sssp_on_chain_takes_n_minus_1_rounds_plus_fixpoint_check() {
        let g = chain(6);
        let stats = run_cold(
            &g,
            &Sssp::new(0),
            Mode::Sync,
            &Permutation::identity(6),
            &RunConfig::default(),
        );
        assert!(stats.converged);
        // Distance i reaches vertex i in round i; one extra round detects
        // stability... but with identity order each round relaxes the next
        // hop, so 5 rounds propagate + 1 to confirm.
        assert_eq!(stats.final_states, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(stats.rounds >= 5);
    }

    #[test]
    fn sync_result_is_order_independent() {
        let g = cycle(8);
        let a = run_cold(
            &g,
            &Sssp::new(0),
            Mode::Sync,
            &Permutation::identity(8),
            &RunConfig::default(),
        );
        let rev = Permutation::identity(8).reversed();
        let b = run_cold(&g, &Sssp::new(0), Mode::Sync, &rev, &RunConfig::default());
        assert_eq!(a.final_states, b.final_states);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn pagerank_converges_on_cycle() {
        let g = cycle(5);
        let stats = run_cold(
            &g,
            &PageRank::default(),
            Mode::Sync,
            &Permutation::identity(5),
            &RunConfig::default(),
        );
        assert!(stats.converged);
        for &x in &stats.final_states {
            assert!((x - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn trace_records_rounds() {
        let g = chain(4);
        let cfg = RunConfig {
            record_trace: true,
            ..Default::default()
        };
        let stats = run_cold(
            &g,
            &Sssp::new(0),
            Mode::Sync,
            &Permutation::identity(4),
            &cfg,
        );
        assert_eq!(stats.trace.len(), stats.rounds + 1);
        assert_eq!(stats.trace[0].round, 0);
        // finite sum grows as vertices are reached... and the last round's
        // delta is 0 (stability confirmation).
        assert_eq!(stats.trace.last().unwrap().delta, 0.0);
    }

    #[test]
    fn round_cap_respected() {
        let g = chain(100);
        let cfg = RunConfig {
            max_rounds: 3,
            ..Default::default()
        };
        let stats = run_cold(
            &g,
            &Sssp::new(0),
            Mode::Sync,
            &Permutation::identity(100),
            &cfg,
        );
        assert!(!stats.converged);
        assert_eq!(stats.rounds, 3);
    }
}
