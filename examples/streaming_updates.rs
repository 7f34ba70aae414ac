//! Streaming scenario on the evolving-graph subsystem: a social graph
//! receives batches of edge insertions *and* deletions while a
//! [`StreamingPipeline`] keeps the processing order (incremental
//! GoGraph maintenance; a drift breach runs a full — parallel — reorder
//! and keeps it only if it beats the maintained order) and the
//! converged algorithm state (warm-started kernels) alive across
//! batches. Each batch is compared against the cold alternative — a
//! fresh full reorder plus a from-scratch engine run on the same graph.
//! The run fails if the warm batches take as many rounds as the cold
//! ones, or if the order falls below the drift rule's floor.
//!
//! Run with: `cargo run --release --example streaming_updates`
//! (`GOGRAPH_SCALE=tiny` shrinks the workload for CI smoke runs).

use gograph::prelude::*;
use std::time::Instant;

fn main() {
    let tiny = std::env::var("GOGRAPH_SCALE").is_ok_and(|s| s == "tiny");
    let (num_vertices, num_edges, communities) = if tiny {
        (800, 5_000, 8)
    } else {
        (10_000, 60_000, 32)
    };

    // The full graph that will arrive (and partially depart) over time.
    let target = shuffle_labels(
        &planted_partition(PlantedPartitionConfig {
            num_vertices,
            num_edges,
            communities,
            p_intra: 0.85,
            gamma: 2.4,
            seed: 2024,
        }),
        9,
    );
    let edges: Vec<Edge> = target.edges().collect();
    let bootstrap_cut = edges.len() / 4;

    // Bootstrap: first quarter of the edges; build() runs the full
    // GoGraph reorder once and converges SSSP cold.
    let mut b = GraphBuilder::with_capacity(num_vertices, bootstrap_cut);
    b.reserve_vertices(num_vertices);
    for e in &edges[..bootstrap_cut] {
        b.add_edge(e.src, e.dst, e.weight);
    }
    let seed_graph = b.build();
    let t0 = Instant::now();
    let drift_threshold = 0.03;
    let mut sp = StreamingPipeline::over(&seed_graph)
        .mode(Mode::Async)
        .algorithm(Sssp::new(0))
        .drift_threshold(drift_threshold)
        .reorder_parallelism(2)
        .build()
        .expect("valid streaming pipeline");
    println!(
        "bootstrap: {} edges, full reorder + cold SSSP in {:.1} ms ({} rounds, M/|E| = {:.3})",
        bootstrap_cut,
        t0.elapsed().as_secs_f64() * 1e3,
        sp.tracks()[0].last_run().rounds,
        sp.positive_fraction(),
    );

    // Batches: the remaining arrivals, split robustly into at most
    // eight non-empty chunks, each spiced with deletions of earlier
    // edges. Batches are deliberately small relative to the graph —
    // the streaming regime warm-starting is built for.
    let arrivals: Vec<Edge> = edges[bootstrap_cut..].to_vec();
    let batches = split_batches(&arrivals, 8).expect("enough arrivals for 8 batches");
    assert!(
        !batches.is_empty() && batches.iter().all(|b| !b.is_empty()),
        "batch split must produce non-empty batches"
    );

    let mut warm_total_rounds = sp.tracks()[0].last_run().rounds;
    let mut cold_total_rounds = 0usize;
    for (i, chunk) in batches.iter().enumerate() {
        let mut updates: Vec<EdgeUpdate> = chunk
            .iter()
            .map(|e| EdgeUpdate::insert_weighted(e.src, e.dst, e.weight))
            .collect();
        // Light churn: every 41st bootstrap edge leaves again, spread
        // over the batches round-robin.
        updates.extend(
            edges[..bootstrap_cut]
                .iter()
                .step_by(41)
                .skip(i)
                .step_by(batches.len())
                .map(|e| EdgeUpdate::remove(e.src, e.dst)),
        );

        let t = Instant::now();
        let r = sp.apply_batch(&updates).expect("batch applies");
        let warm_ms = t.elapsed().as_secs_f64() * 1e3;
        warm_total_rounds += r.stats.rounds;

        // Cold alternative on the same evolved graph: full GoGraph
        // reorder + from-scratch SSSP.
        let t = Instant::now();
        let cold = Pipeline::on(sp.graph())
            .reorder(GoGraph::default())
            .algorithm(Sssp::new(0))
            .execute()
            .expect("valid pipeline");
        let cold_ms = t.elapsed().as_secs_f64() * 1e3;
        cold_total_rounds += cold.stats.rounds;

        println!(
            "batch {}: {:4} updates in {:7.1} ms, {} rounds warm (M/|E| {:.3}, baseline {:.3}, {} full reorders adopted) \
             | cold recompute {:7.1} ms, {} rounds",
            i + 1,
            updates.len(),
            warm_ms,
            r.stats.rounds,
            sp.positive_fraction(),
            sp.baseline_fraction(),
            sp.full_reorders(),
            cold_ms,
            cold.stats.rounds,
        );
        // Every baseline is at least a fresh GoGraph run's fraction,
        // which Theorem 2 puts at one half.
        assert!(
            sp.positive_fraction() >= 0.5 - drift_threshold,
            "batch {}: M/|E| {:.3} fell below 0.5 - {drift_threshold}",
            i + 1,
            sp.positive_fraction(),
        );
    }
    println!(
        "\ntotal SSSP rounds: warm-start {} vs cold per-batch {} (plus bootstrap)",
        warm_total_rounds, cold_total_rounds
    );
    assert!(
        warm_total_rounds < cold_total_rounds,
        "warm-starting must take fewer rounds than cold recomputes"
    );

    // PageRank is sum-norm: the pipeline documents that warm-starting
    // its states is unsound and restarts it per batch — but it still
    // reuses the maintained order, which is what keeps rounds low.
    let mut pr = StreamingPipeline::over(sp.graph())
        .algorithm(PageRank::default())
        .build()
        .expect("valid streaming pipeline");
    assert!(!pr.tracks()[0].warm_start_is_sound());
    let r = pr
        .apply_batch(&[EdgeUpdate::insert(0, (num_vertices - 1) as u32)])
        .expect("batch applies");
    let default_order = Pipeline::on(pr.graph())
        .algorithm(PageRank::default())
        .execute()
        .expect("valid pipeline");
    println!(
        "PageRank rounds: default order {} vs maintained order {} (restarted, M/|E| = {:.3})",
        default_order.stats.rounds,
        r.stats.rounds,
        pr.positive_fraction(),
    );
}
