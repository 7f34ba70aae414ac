//! `Pipeline` contract suite on a planted-partition workload: the run
//! configuration reaches the engine, and the conditions a kernel could
//! only express as panics come back as `EngineError` values under every
//! execution mode.

use gograph::prelude::*;

fn workload_graph() -> CsrGraph {
    with_random_weights(
        &shuffle_labels(
            &planted_partition(PlantedPartitionConfig {
                num_vertices: 1_200,
                num_edges: 9_000,
                communities: 10,
                p_intra: 0.85,
                gamma: 2.4,
                seed: 2024,
            }),
            0x90,
        ),
        1.0,
        7.0,
        0x91,
    )
}

#[test]
fn run_config_fields_are_honored() {
    // Reversed order on SSSP needs far more than two rounds, so the cap
    // must cut the run short, and the trace must record every round.
    let g = workload_graph();
    let order = Permutation::identity(g.num_vertices()).reversed();
    let alg = Sssp::new(0);
    let stats = Pipeline::on(&g)
        .algorithm_ref(&alg)
        .order_ref(&order)
        .max_rounds(2)
        .trace(true)
        .execute()
        .unwrap()
        .stats;
    assert!(!stats.converged);
    assert_eq!(stats.rounds, 2);
    assert_eq!(stats.trace.len(), 3, "round 0 + 2 capped rounds");
}

// --- Error paths: conditions a kernel could only panic on. ---

#[test]
fn wrong_length_order_is_an_error_for_every_strategy() {
    let g = workload_graph();
    let short = Permutation::identity(7);
    let gather = Sssp::new(0);
    let delta = DeltaSssp { source: 0 };
    for mode in [Mode::Sync, Mode::Async, Mode::Parallel(4), Mode::Worklist] {
        let err = Pipeline::on(&g)
            .algorithm_ref(&gather)
            .mode(mode)
            .order(short.clone())
            .execute()
            .unwrap_err();
        assert!(
            matches!(err, EngineError::OrderLengthMismatch { order_len: 7, .. }),
            "{}: unexpected error {err}",
            mode.name()
        );
    }
    for schedule in [
        DeltaSchedule::RoundRobin,
        // The priority engine never reads the order; a wrong one is
        // still the caller's mistake and is reported the same way.
        DeltaSchedule::Priority {
            batch_fraction: 0.1,
        },
    ] {
        let err = Pipeline::on(&g)
            .delta_algorithm_ref(&delta)
            .mode(Mode::Delta(schedule))
            .order(short.clone())
            .execute()
            .unwrap_err();
        assert!(
            matches!(err, EngineError::OrderLengthMismatch { order_len: 7, .. }),
            "{schedule:?}: unexpected error {err}"
        );
    }
}

#[test]
fn errors_are_values_with_readable_messages() {
    let g = workload_graph();
    let err = Pipeline::on(&g)
        .order(Permutation::identity(3))
        .algorithm(PageRank::default())
        .execute()
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains('3') && msg.contains("1200"),
        "message was {msg:?}"
    );
    // And they are std errors, so they compose with ? in applications.
    let as_std: Box<dyn std::error::Error> = Box::new(err);
    assert!(!as_std.to_string().is_empty());
}

#[test]
fn reorderer_producing_wrong_length_is_caught() {
    /// A buggy reorderer: always returns a 3-element order.
    struct Buggy;
    impl Reorderer for Buggy {
        fn name(&self) -> &'static str {
            "buggy"
        }
        fn reorder(&self, _g: &CsrGraph) -> Permutation {
            Permutation::identity(3)
        }
    }
    let g = workload_graph();
    let err = Pipeline::on(&g)
        .reorder(Buggy)
        .algorithm(PageRank::default())
        .execute()
        .unwrap_err();
    assert!(matches!(
        err,
        EngineError::OrderLengthMismatch { order_len: 3, .. }
    ));
}
