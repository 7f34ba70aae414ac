//! Differential suite for direction-optimizing execution: for
//! {PageRank, SSSP, CC, BFS} × {sync, async, worklist} × {cold, warm},
//! the push path, the pull path and the pre-direction kernels (reached
//! through an opaque wrapper that hides every optimization hint) must
//! agree on the final states — exactly for the max-norm algorithms,
//! within convergence tolerance for sum-norm PageRank, whose
//! floating-point trajectory may legitimately regroup.
//!
//! Also pins that the heuristic actually engages (push rounds happen
//! under `Auto` for frontier-driven algorithms), that the synchronous
//! cache-blocked sweep is bit-identical to the unblocked one, and that
//! `PushOnly` is rejected for accumulative algorithms.

use gograph::engine::execute;
use gograph::prelude::*;
use gograph_graph::generators::regular::chain;

/// Hides every engine hint — `monomorphized`, `uses_edge_weights`,
/// `supports_push` all fall back to their conservative defaults — so
/// the kernels run the historical dense-pull path: the "current
/// kernels" reference the ISSUE's equivalence contract names.
struct Opaque<'a>(&'a dyn IterativeAlgorithm);

impl IterativeAlgorithm for Opaque<'_> {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn init(&self, g: &CsrGraph, v: VertexId) -> f64 {
        self.0.init(g, v)
    }
    fn gather_identity(&self) -> f64 {
        self.0.gather_identity()
    }
    fn gather(&self, acc: f64, s: f64, w: f64, d: usize) -> f64 {
        self.0.gather(acc, s, w, d)
    }
    fn apply(&self, g: &CsrGraph, v: VertexId, cur: f64, acc: f64) -> f64 {
        self.0.apply(g, v, cur, acc)
    }
    fn monotonicity(&self) -> gograph::engine::Monotonicity {
        self.0.monotonicity()
    }
    fn norm(&self) -> gograph::engine::ConvergenceNorm {
        self.0.norm()
    }
    fn epsilon(&self) -> f64 {
        self.0.epsilon()
    }
    // monomorphized / uses_edge_weights / supports_push: defaults.
}

/// Fixed-seed weighted power-law community graph, plus its GoGraph
/// order (so positions ≠ vertex ids and the position bookkeeping is
/// genuinely exercised).
fn workload() -> (CsrGraph, Permutation) {
    let g = with_random_weights(
        &shuffle_labels(
            &planted_partition(PlantedPartitionConfig {
                num_vertices: 500,
                num_edges: 3_600,
                communities: 7,
                p_intra: 0.8,
                gamma: 2.4,
                seed: 2026,
            }),
            0x11,
        ),
        1.0,
        5.0,
        0x12,
    );
    let order = GoGraph::default().run(&g);
    (g, order)
}

fn algorithms() -> Vec<(&'static str, Box<dyn IterativeAlgorithm>, bool)> {
    // (name, algorithm, exact): max-norm algorithms must agree
    // bit-for-bit, sum-norm within tolerance.
    vec![
        ("pagerank", Box::new(PageRank::default()), false),
        ("sssp", Box::new(Sssp::new(0)), true),
        ("cc", Box::new(ConnectedComponents), true),
        ("bfs", Box::new(Bfs::new(0)), true),
    ]
}

fn run_with(
    g: &CsrGraph,
    order: &Permutation,
    mode: Mode,
    alg: &dyn IterativeAlgorithm,
    direction: DirectionPolicy,
) -> RunStats {
    let cfg = RunConfig {
        direction,
        ..Default::default()
    };
    execute(g, AlgorithmRef::Gather(alg), mode, order, &cfg, None).expect("valid run")
}

fn assert_states_agree(exact: bool, reference: &[f64], got: &[f64], label: &str) {
    if exact {
        assert_eq!(reference, got, "{label}: max-norm states must be exact");
    } else {
        for (i, (a, b)) in reference.iter().zip(got).enumerate() {
            assert!(
                (a - b).abs() < 1e-4,
                "{label}: vertex {i} diverged ({a} vs {b})"
            );
        }
    }
}

#[test]
fn cold_push_pull_and_legacy_kernels_agree() {
    let (g, order) = workload();
    for mode in [Mode::Sync, Mode::Async, Mode::Worklist] {
        for (name, alg, exact) in algorithms() {
            let alg = alg.as_ref();
            let legacy = run_with(&g, &order, mode, &Opaque(alg), DirectionPolicy::Auto);
            assert!(legacy.converged);
            assert_eq!(legacy.push_rounds, 0, "opaque algorithms never push");
            let mut policies = vec![DirectionPolicy::Auto, DirectionPolicy::PullOnly];
            if alg.supports_push() {
                policies.push(DirectionPolicy::PushOnly);
            }
            for policy in policies {
                let got = run_with(&g, &order, mode, alg, policy);
                assert!(got.converged, "{name}/{}/{policy:?}", mode.name());
                assert_states_agree(
                    exact,
                    &legacy.final_states,
                    &got.final_states,
                    &format!("{name}/{}/{policy:?} cold", mode.name()),
                );
                if policy == DirectionPolicy::PullOnly {
                    assert_eq!(got.push_rounds, 0, "{name}: PullOnly must never push");
                }
            }
        }
    }
}

#[test]
fn pull_only_reproduces_legacy_rounds_exactly() {
    // The pull path is not merely fixpoint-equivalent: for any pure
    // algorithm it reproduces the historical kernels round for round
    // (sync and async; the worklist's in-round consumption was widened,
    // so only its fixpoint is pinned above).
    let (g, order) = workload();
    for mode in [Mode::Sync, Mode::Async] {
        for (name, alg, _) in algorithms() {
            let alg = alg.as_ref();
            let legacy = run_with(&g, &order, mode, &Opaque(alg), DirectionPolicy::Auto);
            let pull = run_with(&g, &order, mode, alg, DirectionPolicy::PullOnly);
            assert_eq!(
                legacy.rounds,
                pull.rounds,
                "{name}/{} rounds drifted",
                mode.name()
            );
            assert_eq!(
                legacy.final_states,
                pull.final_states,
                "{name}/{} states drifted bit-wise",
                mode.name()
            );
        }
    }
}

#[test]
fn warm_push_pull_and_legacy_kernels_agree() {
    // Warm scenario: converge on the graph minus its last 15% of edges,
    // then insert them and warm-start from the stale states — sound for
    // the monotonically decreasing max-norm algorithms. PageRank (warm
    // being unsound after structural change) warm-starts from its own
    // fixpoint instead, exercising the warm path as a confirmation run.
    let (g, order) = workload();
    let edges: Vec<Edge> = g.edges().collect();
    let cut = edges.len() * 85 / 100;
    let mut b = GraphBuilder::with_capacity(g.num_vertices(), cut);
    b.reserve_vertices(g.num_vertices());
    for e in &edges[..cut] {
        b.add_edge(e.src, e.dst, e.weight);
    }
    let stale_graph = b.build();
    let seeds: Vec<VertexId> = edges[cut..].iter().map(|e| e.dst).collect();

    for mode in [Mode::Sync, Mode::Async, Mode::Worklist] {
        for (name, alg, exact) in algorithms() {
            let alg = alg.as_ref();
            let (warm_graph, stale_states): (&CsrGraph, Vec<f64>) = if exact {
                let pre = run_with(&stale_graph, &order, mode, alg, DirectionPolicy::PullOnly);
                (&g, pre.final_states)
            } else {
                let pre = run_with(&g, &order, mode, alg, DirectionPolicy::PullOnly);
                (&g, pre.final_states)
            };
            let run_warm = |a: &dyn IterativeAlgorithm, policy: DirectionPolicy| {
                let cfg = RunConfig {
                    direction: policy,
                    ..Default::default()
                };
                let mut warm = WarmStart::from_states(stale_states.clone());
                if mode == Mode::Worklist {
                    warm = warm.with_frontier(seeds.clone());
                }
                execute(
                    warm_graph,
                    AlgorithmRef::Gather(a),
                    mode,
                    &order,
                    &cfg,
                    Some(warm),
                )
                .expect("valid warm run")
            };
            let legacy = run_warm(&Opaque(alg), DirectionPolicy::Auto);
            assert!(legacy.converged);
            let mut policies = vec![DirectionPolicy::Auto, DirectionPolicy::PullOnly];
            if alg.supports_push() {
                policies.push(DirectionPolicy::PushOnly);
            }
            for policy in policies {
                let got = run_warm(alg, policy);
                assert!(got.converged, "{name}/{}/{policy:?} warm", mode.name());
                assert_states_agree(
                    exact,
                    &legacy.final_states,
                    &got.final_states,
                    &format!("{name}/{}/{policy:?} warm", mode.name()),
                );
            }
        }
    }
}

#[test]
fn parallel_engine_joins_the_direction_matrix_cold() {
    // The block-parallel engine composes with every direction policy:
    // its fixpoints must match the async reference (bit-for-bit for the
    // max-norm algorithms, within the racing-accumulate tolerance for
    // sum-norm PageRank), one block must delegate to the async engine
    // bit-identically, and max-norm runs must be deterministic across
    // repeats at a fixed block count.
    let (g, order) = workload();
    for (name, alg, exact) in algorithms() {
        let alg = alg.as_ref();
        let reference = run_with(&g, &order, Mode::Async, alg, DirectionPolicy::Auto);
        assert!(reference.converged);
        let mut policies = vec![DirectionPolicy::Auto, DirectionPolicy::PullOnly];
        if alg.supports_push() {
            policies.push(DirectionPolicy::PushOnly);
        }
        for policy in policies {
            for blocks in [1usize, 2, 4] {
                let label = format!("{name}/parallel({blocks})/{policy:?} cold");
                let got = run_with(&g, &order, Mode::Parallel(blocks), alg, policy);
                assert!(got.converged, "{label}");
                if exact {
                    assert_eq!(
                        reference.final_states, got.final_states,
                        "{label}: max-norm states must be exact"
                    );
                    let again = run_with(&g, &order, Mode::Parallel(blocks), alg, policy);
                    assert_eq!(
                        got.final_states, again.final_states,
                        "{label}: repeat runs must be bit-identical"
                    );
                } else {
                    for (i, (a, b)) in reference
                        .final_states
                        .iter()
                        .zip(&got.final_states)
                        .enumerate()
                    {
                        assert!(
                            (a - b).abs() < 1e-3,
                            "{label}: vertex {i} diverged ({a} vs {b})"
                        );
                    }
                }
                if policy == DirectionPolicy::PullOnly {
                    assert_eq!(got.push_rounds, 0, "{label}: PullOnly must never push");
                }
                if blocks == 1 {
                    // One block delegates straight to the async kernel:
                    // bit-identical for every algorithm, PageRank included.
                    let sequential = run_with(&g, &order, Mode::Async, alg, policy);
                    assert_eq!(
                        got.final_states, sequential.final_states,
                        "{label}: one block must equal async"
                    );
                    assert_eq!(got.rounds, sequential.rounds, "{label}: one-block rounds");
                }
            }
        }
    }
}

#[test]
fn parallel_engine_joins_the_direction_matrix_warm() {
    // The warm scenario of warm_push_pull_and_legacy_kernels_agree, with
    // the parallel engine consuming the seed frontier (`WarmStart`'s
    // frontier now flows into the block-parallel path): converge without
    // the last 15% of edges, insert them, warm-start from the stale
    // states seeded at the insertion targets.
    let (g, order) = workload();
    let edges: Vec<Edge> = g.edges().collect();
    let cut = edges.len() * 85 / 100;
    let mut b = GraphBuilder::with_capacity(g.num_vertices(), cut);
    b.reserve_vertices(g.num_vertices());
    for e in &edges[..cut] {
        b.add_edge(e.src, e.dst, e.weight);
    }
    let stale_graph = b.build();
    let seeds: Vec<VertexId> = edges[cut..].iter().map(|e| e.dst).collect();

    for (name, alg, exact) in algorithms() {
        let alg = alg.as_ref();
        let stale_states = if exact {
            run_with(
                &stale_graph,
                &order,
                Mode::Async,
                alg,
                DirectionPolicy::PullOnly,
            )
            .final_states
        } else {
            run_with(&g, &order, Mode::Async, alg, DirectionPolicy::PullOnly).final_states
        };
        let reference = {
            let cfg = RunConfig::default();
            execute(
                &g,
                AlgorithmRef::Gather(alg),
                Mode::Async,
                &order,
                &cfg,
                Some(WarmStart::from_states(stale_states.clone())),
            )
            .expect("valid warm reference")
        };
        assert!(reference.converged);
        let mut policies = vec![DirectionPolicy::Auto, DirectionPolicy::PullOnly];
        if alg.supports_push() {
            policies.push(DirectionPolicy::PushOnly);
        }
        for policy in policies {
            for blocks in [1usize, 2, 4] {
                let label = format!("{name}/parallel({blocks})/{policy:?} warm");
                let cfg = RunConfig {
                    direction: policy,
                    ..Default::default()
                };
                let warm =
                    WarmStart::from_states(stale_states.clone()).with_frontier(seeds.clone());
                let got = execute(
                    &g,
                    AlgorithmRef::Gather(alg),
                    Mode::Parallel(blocks),
                    &order,
                    &cfg,
                    Some(warm),
                )
                .expect("valid warm run");
                assert!(got.converged, "{label}");
                assert_states_agree(exact, &reference.final_states, &got.final_states, &label);
            }
        }
    }
}

#[test]
fn auto_direction_actually_pushes_on_frontier_algorithms() {
    // On a long weighted chain under a reversed order the frontier is a
    // single vertex per round — the heuristic must flip to push.
    let g = chain(400);
    let rev = Permutation::identity(400).reversed();
    for mode in [Mode::Sync, Mode::Async, Mode::Worklist] {
        let auto = run_with(&g, &rev, mode, &Sssp::new(0), DirectionPolicy::Auto);
        assert!(auto.converged);
        assert!(
            auto.push_rounds > 0,
            "{}: Auto never engaged push on a 1-vertex frontier",
            mode.name()
        );
        let pull = run_with(&g, &rev, mode, &Sssp::new(0), DirectionPolicy::PullOnly);
        assert_eq!(auto.final_states, pull.final_states);
    }
}

#[test]
fn blocked_sync_sweep_is_bit_identical_for_every_algorithm() {
    // Identity order + an LLC budget far below the state array forces
    // the cache-blocked dense sweep; per-vertex fold order is preserved
    // across block boundaries, so even sum-norm gathers are exact.
    let (g, _) = workload();
    let id = Permutation::identity(g.num_vertices());
    for (name, alg, _) in algorithms() {
        let alg = alg.as_ref();
        let plain = run_with(&g, &id, Mode::Sync, alg, DirectionPolicy::PullOnly);
        let blocked_cfg = RunConfig {
            direction: DirectionPolicy::PullOnly,
            llc_bytes: 2 * 1024, // 128-position blocks over 500 vertices
            ..Default::default()
        };
        let blocked = execute(
            &g,
            AlgorithmRef::Gather(alg),
            Mode::Sync,
            &id,
            &blocked_cfg,
            None,
        )
        .expect("valid blocked run");
        assert_eq!(
            plain.final_states, blocked.final_states,
            "{name}: blocked sweep must be bit-identical"
        );
        assert_eq!(plain.rounds, blocked.rounds, "{name}: blocked rounds");
    }
}

#[test]
fn push_only_rejected_for_accumulative_algorithms() {
    let g = chain(10);
    let id = Permutation::identity(10);
    let cfg = RunConfig {
        direction: DirectionPolicy::PushOnly,
        ..Default::default()
    };
    // Parallel(1) included deliberately: the one-block fast path must
    // validate the policy before delegating, same as every block count.
    for mode in [
        Mode::Sync,
        Mode::Async,
        Mode::Worklist,
        Mode::Parallel(1),
        Mode::Parallel(2),
    ] {
        let pr = PageRank::default();
        let err = execute(&g, AlgorithmRef::Gather(&pr), mode, &id, &cfg, None).unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::InvalidParameter {
                    name: "direction",
                    ..
                }
            ),
            "{}: expected a direction error, got {err:?}",
            mode.name()
        );
        // A push-capable algorithm is accepted.
        assert!(execute(
            &g,
            AlgorithmRef::Gather(&Sssp::new(0)),
            mode,
            &id,
            &cfg,
            None
        )
        .is_ok());
    }
}
