//! Equivalence suite for the kernel monomorphization: for every built-in
//! algorithm × execution mode, the statically dispatched kernel must
//! produce **bit-identical** output to the `dyn`-dispatch fallback path
//! (reached by wrapping the algorithm in [`DynOnly`]), on a seeded
//! planted-partition workload under a non-trivial processing order.
//!
//! The one sanctioned exception: Sum-norm algorithms under the
//! block-parallel engine, where concurrent blocks race on state reads, so
//! two runs agree only to within the convergence tolerance — Max-norm
//! algorithms run to exact stability and stay bit-identical even there.

use gograph::prelude::*;

fn workload_graph() -> CsrGraph {
    with_random_weights(
        &shuffle_labels(
            &planted_partition(PlantedPartitionConfig {
                num_vertices: 800,
                num_edges: 6_400,
                communities: 8,
                p_intra: 0.85,
                gamma: 2.4,
                seed: 77,
            }),
            0x2a,
        ),
        1.0,
        5.0,
        0x2b,
    )
}

/// A non-identity order so dispatch equivalence is exercised off the
/// trivial scan.
fn workload_order(g: &CsrGraph) -> Permutation {
    DegSort::default().reorder(g)
}

fn run_gather(
    g: &CsrGraph,
    order: &Permutation,
    mode: Mode,
    alg: &dyn IterativeAlgorithm,
) -> RunStats {
    Pipeline::on(g)
        .order_ref(order)
        .mode(mode)
        .algorithm_ref(alg)
        .execute()
        .expect("gather pipeline run failed")
        .stats
}

fn gather_algorithms(g: &CsrGraph) -> Vec<(&'static str, Box<dyn IterativeAlgorithm>)> {
    vec![
        ("pagerank", Box::new(PageRank::default())),
        ("sssp", Box::new(Sssp::new(0))),
        ("bfs", Box::new(Bfs::new(0))),
        ("php", Box::new(Php::new(0))),
        ("cc", Box::new(ConnectedComponents)),
        ("sswp", Box::new(Sswp::new(0))),
        ("katz", Box::new(Katz::for_graph(g))),
        ("adsorption", Box::new(Adsorption::new(vec![0, 5, 9]))),
    ]
}

/// Wraps a borrowed gather algorithm so the engines see a `monomorphized()
/// == None` answer — the `dyn` fallback path — without cloning.
struct DynRef<'a>(&'a dyn IterativeAlgorithm);

impl IterativeAlgorithm for DynRef<'_> {
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
    fn uses_edge_weights(&self) -> bool {
        self.0.uses_edge_weights()
    }
    fn supports_push(&self) -> bool {
        self.0.supports_push()
    }
    // monomorphized() stays at the default `None`.
}

#[test]
fn every_algorithm_bit_identical_across_sequential_modes() {
    let g = workload_graph();
    let order = workload_order(&g);
    for mode in [Mode::Sync, Mode::Async, Mode::Worklist] {
        for (name, alg) in gather_algorithms(&g) {
            assert!(
                alg.monomorphized().is_some(),
                "{name} must advertise a monomorphized kernel"
            );
            let mono = run_gather(&g, &order, mode, alg.as_ref());
            let dynamic = run_gather(&g, &order, mode, &DynRef(alg.as_ref()));
            assert_eq!(
                mono.final_states,
                dynamic.final_states,
                "{name} under {} diverged between mono and dyn",
                mode.name()
            );
            assert_eq!(mono.rounds, dynamic.rounds, "{name} under {}", mode.name());
            assert!(mono.converged, "{name} under {}", mode.name());
        }
    }
}

#[test]
fn every_algorithm_equivalent_under_parallel() {
    let g = workload_graph();
    let order = workload_order(&g);
    // Every block count runs the same direction-optimized engine (one
    // block delegates to async); the equivalence must hold across the
    // whole thread axis, not just one count.
    for blocks in [1usize, 2, 4] {
        let mode = Mode::Parallel(blocks);
        for (name, alg) in gather_algorithms(&g) {
            let mono = run_gather(&g, &order, mode, alg.as_ref());
            let dynamic = run_gather(&g, &order, mode, &DynRef(alg.as_ref()));
            assert!(
                mono.converged && dynamic.converged,
                "{name} parallel({blocks})"
            );
            match alg.norm() {
                // Exact-stability algorithms reach the unique fixpoint
                // bit-identically regardless of block interleaving.
                gograph::engine::ConvergenceNorm::Max => {
                    assert_eq!(
                        mono.final_states, dynamic.final_states,
                        "{name} parallel({blocks})"
                    );
                }
                // Sum-norm algorithms stop within epsilon of the fixpoint;
                // racing blocks shift *where* within that band each run
                // lands.
                gograph::engine::ConvergenceNorm::Sum => {
                    for (i, (a, b)) in mono
                        .final_states
                        .iter()
                        .zip(&dynamic.final_states)
                        .enumerate()
                    {
                        assert!(
                            (a - b).abs() < 1e-3,
                            "{name} parallel({blocks}) vertex {i}: mono {a} vs dyn {b}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn delta_algorithms_bit_identical_across_delta_modes() {
    let g = workload_graph();
    let order = workload_order(&g);
    let delta_algs: Vec<(&str, Box<dyn DeltaAlgorithm>)> = vec![
        ("delta-pagerank", Box::new(DeltaPageRank::default())),
        ("delta-sssp", Box::new(DeltaSssp { source: 0 })),
    ];
    for schedule in [
        DeltaSchedule::RoundRobin,
        DeltaSchedule::Priority {
            batch_fraction: 0.2,
        },
    ] {
        for (name, alg) in &delta_algs {
            assert!(alg.monomorphized().is_some(), "{name}");
            let run = |a: &dyn DeltaAlgorithm| {
                Pipeline::on(&g)
                    .order_ref(&order)
                    .mode(Mode::Delta(schedule))
                    .delta_algorithm_ref(a)
                    .execute()
                    .expect("delta pipeline run failed")
                    .stats
            };
            let mono = run(alg.as_ref());
            let dynamic = run(&DynRefDelta(alg.as_ref()));
            assert_eq!(
                mono.final_states, dynamic.final_states,
                "{name} under {schedule:?}"
            );
            assert_eq!(mono.rounds, dynamic.rounds, "{name} under {schedule:?}");
            assert!(mono.converged, "{name} under {schedule:?}");
        }
    }
}

/// Borrowed-delegation counterpart of [`DynRef`] for delta algorithms.
struct DynRefDelta<'a>(&'a dyn DeltaAlgorithm);

impl DeltaAlgorithm for DynRefDelta<'_> {
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
    fn combine(&self, a: f64, b: f64) -> f64 {
        self.0.combine(a, b)
    }
    fn propagate(&self, g: &CsrGraph, u: VertexId, w: VertexId, weight: f64, delta: f64) -> f64 {
        self.0.propagate(g, u, w, weight, delta)
    }
    fn significant(&self, state: f64, delta: f64) -> bool {
        self.0.significant(state, delta)
    }
    // monomorphized() stays at the default `None`.
}

#[test]
fn owned_dyn_only_wrappers_also_hit_the_fallback() {
    // The public `DynOnly` wrapper, over either family, must behave
    // exactly like the borrowed test shims above.
    let g = workload_graph();
    let order = workload_order(&g);
    let pr = PageRank::default();
    let mono = run_gather(&g, &order, Mode::Async, &pr);
    let wrapped = run_gather(&g, &order, Mode::Async, &DynOnly(pr));
    assert_eq!(mono.final_states, wrapped.final_states);

    let dpr = DeltaPageRank::default();
    let run = |a: &dyn DeltaAlgorithm| {
        Pipeline::on(&g)
            .order_ref(&order)
            .mode(Mode::Delta(DeltaSchedule::RoundRobin))
            .delta_algorithm_ref(a)
            .execute()
            .unwrap()
            .stats
    };
    assert_eq!(run(&dpr).final_states, run(&DynOnly(dpr)).final_states);
}
