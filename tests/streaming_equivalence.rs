//! Differential harness for the evolving-graph subsystem: for each
//! algorithm × batch-schedule combination, a warm-started
//! [`StreamingPipeline`] fed the schedule batch by batch must end at the
//! same state a cold [`Pipeline`] reaches on the final graph — exactly
//! for max-norm algorithms (SSSP, BFS, CC), within convergence tolerance
//! for sum-norm ones (PageRank). The harness also pins the structural
//! invariant that makes the comparison meaningful: the incrementally
//! patched CSR must equal a from-scratch build of the surviving edge
//! set.

use gograph::prelude::*;

/// One evolving-graph workload: a bootstrap graph, a sequence of update
/// batches, and the from-scratch build of the final edge set.
struct Schedule {
    name: &'static str,
    bootstrap: CsrGraph,
    batches: Vec<Vec<EdgeUpdate>>,
    final_graph: CsrGraph,
}

/// The fixed-seed target graph every schedule converges to (or deletes
/// away from): a shuffled power-law community graph with random weights
/// so SSSP exercises real distances.
fn target_graph() -> CsrGraph {
    with_random_weights(
        &shuffle_labels(
            &planted_partition(PlantedPartitionConfig {
                num_vertices: 600,
                num_edges: 4_000,
                communities: 6,
                p_intra: 0.8,
                gamma: 2.4,
                seed: 4021,
            }),
            0x5e,
        ),
        1.0,
        4.0,
        0x5f,
    )
}

fn build_graph(n: usize, edges: &[Edge]) -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    b.reserve_vertices(n);
    for e in edges {
        b.add_edge(e.src, e.dst, e.weight);
    }
    b.build()
}

/// Streams the last 40% of the target's edges in four insert-only
/// batches.
fn insert_only_schedule() -> Schedule {
    let g = target_graph();
    let edges: Vec<Edge> = g.edges().collect();
    let cut = edges.len() * 3 / 5;
    let bootstrap = build_graph(g.num_vertices(), &edges[..cut]);
    let inserts: Vec<EdgeUpdate> = edges[cut..]
        .iter()
        .map(|e| EdgeUpdate::insert_weighted(e.src, e.dst, e.weight))
        .collect();
    let batches = split_batches(&inserts, 4).unwrap();
    assert!(!batches.is_empty() && batches.iter().all(|b| !b.is_empty()));
    Schedule {
        name: "insert-only",
        bootstrap,
        batches,
        final_graph: g,
    }
}

/// Streams the last 30% of the target's edges while deleting every 5th
/// bootstrap edge, interleaved across four batches.
fn mixed_schedule() -> Schedule {
    let g = target_graph();
    let edges: Vec<Edge> = g.edges().collect();
    let cut = edges.len() * 7 / 10;
    let bootstrap = build_graph(g.num_vertices(), &edges[..cut]);
    let removed: Vec<Edge> = edges[..cut].iter().step_by(5).copied().collect();
    let inserts: Vec<EdgeUpdate> = edges[cut..]
        .iter()
        .map(|e| EdgeUpdate::insert_weighted(e.src, e.dst, e.weight))
        .collect();
    let removes: Vec<EdgeUpdate> = removed
        .iter()
        .map(|e| EdgeUpdate::remove(e.src, e.dst))
        .collect();
    let insert_batches = split_batches(&inserts, 4).unwrap();
    let remove_batches = split_batches(&removes, 4).unwrap();
    let batches: Vec<Vec<EdgeUpdate>> = (0..4)
        .map(|i| {
            let mut batch = insert_batches.get(i).cloned().unwrap_or_default();
            batch.extend(remove_batches.get(i).cloned().unwrap_or_default());
            batch
        })
        .filter(|b| !b.is_empty())
        .collect();
    assert!(!batches.is_empty() && batches.iter().all(|b| !b.is_empty()));
    let survivors: Vec<Edge> = edges[..cut]
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 5 != 0)
        .map(|(_, e)| *e)
        .chain(edges[cut..].iter().copied())
        .collect();
    Schedule {
        name: "mixed insert/delete",
        bootstrap,
        batches,
        final_graph: build_graph(g.num_vertices(), &survivors),
    }
}

/// Drives one algorithm through a schedule and checks the warm-started
/// end state against the cold run on the final graph.
fn check<A: IterativeAlgorithm + Clone + 'static>(
    alg: A,
    mode: Mode,
    schedule: &Schedule,
    tolerance: f64,
) {
    let label = format!("{} × {}", alg.name(), schedule.name);
    let mut sp = StreamingPipeline::over(&schedule.bootstrap)
        .mode(mode)
        .algorithm(alg.clone())
        .build()
        .unwrap_or_else(|e| panic!("{label}: bootstrap failed: {e}"));
    for (i, batch) in schedule.batches.iter().enumerate() {
        let r = sp
            .apply_batch(batch)
            .unwrap_or_else(|e| panic!("{label}: batch {i} failed: {e}"));
        assert!(r.stats.converged, "{label}: batch {i} did not converge");
    }

    // The patched CSR must equal the from-scratch build — otherwise the
    // state comparison below would be comparing different graphs.
    assert_eq!(
        sp.graph(),
        &schedule.final_graph,
        "{label}: batch-updated CSR diverged from a from-scratch build"
    );

    let cold = Pipeline::on(&schedule.final_graph)
        .order(sp.order().clone())
        .mode(mode)
        .algorithm(alg)
        .execute()
        .unwrap_or_else(|e| panic!("{label}: cold run failed: {e}"));
    assert!(cold.stats.converged, "{label}: cold run did not converge");
    assert_eq!(sp.states().len(), cold.stats.final_states.len(), "{label}");
    for (v, (warm, gold)) in sp.states().iter().zip(&cold.stats.final_states).enumerate() {
        if tolerance == 0.0 {
            assert!(
                warm == gold || (warm.is_infinite() && gold.is_infinite()),
                "{label}: vertex {v}: warm {warm} vs cold {gold}"
            );
        } else {
            let same_inf = warm.is_infinite() && gold.is_infinite();
            assert!(
                same_inf || (warm - gold).abs() <= tolerance,
                "{label}: vertex {v}: warm {warm} vs cold {gold} (tol {tolerance})"
            );
        }
    }
}

#[test]
fn pagerank_matches_cold_recompute() {
    for schedule in [insert_only_schedule(), mixed_schedule()] {
        check(PageRank::default(), Mode::Async, &schedule, 1e-4);
    }
}

#[test]
fn sssp_matches_cold_recompute() {
    for schedule in [insert_only_schedule(), mixed_schedule()] {
        check(Sssp::new(0), Mode::Async, &schedule, 0.0);
    }
}

#[test]
fn cc_matches_cold_recompute() {
    for schedule in [insert_only_schedule(), mixed_schedule()] {
        check(ConnectedComponents, Mode::Async, &schedule, 0.0);
    }
}

#[test]
fn bfs_matches_cold_recompute() {
    for schedule in [insert_only_schedule(), mixed_schedule()] {
        check(Bfs::new(0), Mode::Async, &schedule, 0.0);
    }
}

#[test]
fn worklist_streaming_matches_cold_recompute() {
    // The frontier-seeded worklist path, for the algorithm family where
    // seeding matters most.
    for schedule in [insert_only_schedule(), mixed_schedule()] {
        check(Sssp::new(0), Mode::Worklist, &schedule, 0.0);
        check(Bfs::new(0), Mode::Worklist, &schedule, 0.0);
    }
}

#[test]
fn delta_sssp_streaming_matches_cold_recompute() {
    // The delta-kernel warm-start path (frontier-seeded pending deltas).
    for schedule in [insert_only_schedule(), mixed_schedule()] {
        let mut sp = StreamingPipeline::over(&schedule.bootstrap)
            .mode(Mode::Delta(DeltaSchedule::RoundRobin))
            .delta_algorithm(DeltaSssp { source: 0 })
            .build()
            .unwrap();
        for batch in &schedule.batches {
            let r = sp.apply_batch(batch).unwrap();
            assert!(r.stats.converged, "delta-sssp × {}", schedule.name);
        }
        let cold = Pipeline::on(&schedule.final_graph)
            .order(sp.order().clone())
            .mode(Mode::Delta(DeltaSchedule::RoundRobin))
            .delta_algorithm(DeltaSssp { source: 0 })
            .execute()
            .unwrap();
        assert_eq!(
            sp.states(),
            &cold.stats.final_states[..],
            "delta-sssp × {}",
            schedule.name
        );
    }
}

#[test]
fn deleting_positive_edges_breaches_and_keeps_the_half_floor() {
    // The adversarial stream for the drift rule: every update deletes an
    // edge that is positive under the current order. The graph is the
    // target with every edge also reversed — exactly half of it positive
    // under any order — plus a chain over extra vertices, which GoGraph
    // orders positive and whose edges the stream deletes: repositioning
    // an endpoint of a lost chain edge wins nothing back, so `M(O)/|E|`
    // falls toward one half until it breaches. Whichever order a breach
    // keeps, its fraction is at least a fresh GoGraph run's, which
    // Theorem 2 puts at one half on a loop-free graph. One pipeline with
    // three tracks: every track must end where a cold run on the final
    // graph does.
    const THRESHOLD: f64 = 0.01;
    const CHAIN: u32 = 1200;
    let g = target_graph();
    let n = g.num_vertices() as u32;
    let symmetric = g
        .edges()
        .filter(|e| e.src != e.dst)
        .flat_map(|e| [e, Edge::new(e.dst, e.src, e.weight)]);
    let chain = (n..n + CHAIN - 1).map(|v| Edge::new(v, v + 1, 1.0));
    let edges: Vec<Edge> = symmetric.chain(chain).collect();
    let bootstrap = build_graph((n + CHAIN) as usize, &edges);
    let mut sp = StreamingPipeline::over(&bootstrap)
        .algorithm(Sssp::new(0))
        .track()
        .algorithm(ConnectedComponents)
        .track()
        .algorithm(PageRank::default())
        .drift_threshold(THRESHOLD)
        .reorder_parallelism(2)
        .build()
        .unwrap();
    let mut breaches = 0;
    for i in 0..12 {
        let order = sp.order().clone();
        let positive_chain_edges: Vec<EdgeUpdate> = sp
            .graph()
            .edges()
            .filter(|e| e.src >= n && order.position(e.src) < order.position(e.dst))
            .step_by(2)
            .take(100)
            .map(|e| EdgeUpdate::remove(e.src, e.dst))
            .collect();
        assert!(
            !positive_chain_edges.is_empty(),
            "batch {i}: nothing left to delete"
        );
        let (baseline, fulls) = (sp.baseline_fraction(), sp.full_reorders());
        let r = sp
            .apply_batch(&positive_chain_edges)
            .unwrap_or_else(|e| panic!("batch {i} failed: {e}"));
        assert!(r.stats.converged, "batch {i} did not converge");
        if sp.full_reorders() != fulls || sp.baseline_fraction() != baseline {
            breaches += 1;
        }
        assert!(
            sp.positive_fraction() >= 0.5 - THRESHOLD,
            "batch {i}: M/|E| {} below the floor",
            sp.positive_fraction()
        );
    }
    assert!(breaches > 0, "deleting positive edges must breach");

    let algorithms: [(&dyn IterativeAlgorithm, f64); 3] = [
        (&Sssp::new(0), 0.0),
        (&ConnectedComponents, 0.0),
        (&PageRank::default(), 1e-4),
    ];
    for (track, (alg, tolerance)) in sp.tracks().iter().zip(algorithms) {
        let cold = Pipeline::on(sp.graph())
            .order(sp.order().clone())
            .algorithm_ref(alg)
            .execute()
            .unwrap();
        for (v, (warm, gold)) in track
            .states()
            .iter()
            .zip(&cold.stats.final_states)
            .enumerate()
        {
            let same_inf = warm.is_infinite() && gold.is_infinite();
            assert!(
                same_inf || (warm - gold).abs() <= tolerance,
                "{}: vertex {v}: warm {warm} vs cold {gold}",
                alg.name()
            );
        }
    }
}

#[test]
fn warm_start_beats_cold_recompute_on_total_rounds() {
    // The quantity BENCH_PR3.json records, pinned deterministically:
    // across the insert-only schedule, the warm-started batches must
    // need fewer total rounds than re-running cold on every
    // intermediate graph (both over the same maintained order, so the
    // comparison isolates warm state reuse).
    let schedule = insert_only_schedule();
    let mut sp = StreamingPipeline::over(&schedule.bootstrap)
        .algorithm(Sssp::new(0))
        .build()
        .unwrap();
    let mut warm_rounds = 0usize;
    let mut cold_rounds = 0usize;
    let mut current = schedule.bootstrap.clone();
    for batch in &schedule.batches {
        let r = sp.apply_batch(batch).unwrap();
        warm_rounds += r.stats.rounds;
        current = current.apply_updates(batch);
        let cold = Pipeline::on(&current)
            .order(sp.order().clone())
            .algorithm(Sssp::new(0))
            .execute()
            .unwrap();
        cold_rounds += cold.stats.rounds;
    }
    assert!(
        warm_rounds < cold_rounds,
        "warm-start should save rounds: warm {warm_rounds} vs cold {cold_rounds}"
    );
}
