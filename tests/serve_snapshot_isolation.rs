//! Snapshot-isolation stress test for the epoch-snapshot query service.
//!
//! N reader threads hammer a [`ServeCore`] with queries while the
//! mutator applies update batches and publishes epochs. Every reader
//! verifies every reply *bit-identically* against an independent run on
//! its pinned epoch's graph:
//!
//! - cold replies are compared against a **fresh cold run** on the
//!   pinned epoch's graph + order — and so are hot replies of max-norm
//!   algorithms, which the service answers from the epoch's converged
//!   entry without running (they must also *be* that entry, 0 rounds);
//! - warm sum-norm replies (PageRank) are compared against a replica of
//!   the exact server configuration — a warm start from the epoch's
//!   stored converged states — which is deterministic and therefore
//!   also bit-identical.
//!
//! Any torn read (a query observing half an update batch, or states
//! from one epoch paired with the graph of another) shows up as a float
//! mismatch. The test also asserts the race was real: readers must have
//! observed several distinct epochs.

use gograph_engine::{Pipeline, WarmStart};
use gograph_graph::generators::{planted_partition, shuffle_labels, PlantedPartitionConfig};
use gograph_graph::{CsrGraph, EdgeUpdate};
use gograph_serve::{
    bootstrap_follower, serve, AlgSpec, DurabilityConfig, FaultPlan, ModeSpec, QueryOutcome,
    QueryRequest, ReplicationConfig, ServeConfig, ServeCore, ServeError, StepOutcome, WarmSpec,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn stress_graph() -> CsrGraph {
    shuffle_labels(
        &planted_partition(PlantedPartitionConfig {
            num_vertices: 150,
            num_edges: 900,
            communities: 5,
            p_intra: 0.8,
            gamma: 2.4,
            seed: 23,
        }),
        9,
    )
}

/// Checks the outcome against its own pinned epoch: a hot reply of an
/// exact-warm algorithm must *be* the epoch's entry, anything else must
/// equal a re-execution of its exact configuration, bit for bit.
fn verify_bit_identical(outcome: &QueryOutcome) {
    let epoch = &outcome.epoch;
    let algorithm = outcome.alg.instantiate(&outcome.effective_sources);
    let entry = outcome.warm.then(|| {
        epoch
            .warm_for(
                outcome.alg,
                outcome.effective_sources.first().copied().unwrap_or(0),
            )
            .expect("warm reply must match a warm entry of its own epoch")
    });

    if let Some(entry) = entry.filter(|_| outcome.alg.warm_is_exact()) {
        // Answered from the epoch, not re-derived from it.
        assert_eq!(
            outcome.rounds,
            0,
            "epoch {} {}: a hot exact-warm query runs no kernel",
            epoch.epoch,
            outcome.alg.name(),
        );
        assert_eq!(
            &*outcome.states,
            &*entry.states,
            "epoch {} {}: a hot reply must be its own epoch's warm entry",
            epoch.epoch,
            outcome.alg.name(),
        );
    } else {
        // Replica of the server-side run: warm (PageRank) replies replay
        // the warm start from the epoch's stored states, cold replies
        // run cold.
        let mut replica = Pipeline::on(&epoch.graph)
            .order_ref(&epoch.order)
            .mode(outcome.mode.mode())
            .algorithm_ref(algorithm.as_ref());
        if let Some(entry) = entry {
            replica = replica.warm_start(WarmStart::from_states((*entry.states).clone()));
        }
        let replica = replica.execute().expect("replica run").stats.final_states;
        assert!(outcome.rounds >= 1, "an executed query reports its rounds");
        assert_eq!(
            &*outcome.states,
            &replica,
            "epoch {} {}: server states diverge from a replica run on the pinned snapshot",
            epoch.epoch,
            outcome.alg.name(),
        );
    }

    // For max-norm algorithms the warm fixpoint IS the cold fixpoint,
    // so even warm replies must equal a literal fresh cold run.
    if !outcome.warm || outcome.alg.warm_is_exact() {
        let cold = Pipeline::on(&epoch.graph)
            .order_ref(&epoch.order)
            .mode(outcome.mode.mode())
            .algorithm_ref(algorithm.as_ref())
            .execute()
            .expect("cold replica run")
            .stats
            .final_states;
        assert_eq!(
            &*outcome.states,
            &cold,
            "epoch {} {}: reader result must be bit-identical to a fresh cold run",
            epoch.epoch,
            outcome.alg.name(),
        );
    }
}

#[test]
fn concurrent_readers_always_see_consistent_epochs() {
    let g = stress_graph();
    let core = ServeCore::start(
        &g,
        ServeConfig {
            warm: vec![
                WarmSpec::new(AlgSpec::Sssp, 0),
                WarmSpec::new(AlgSpec::Cc, 0),
                WarmSpec::new(AlgSpec::PageRank, 0),
            ],
            admission_window: Duration::from_millis(1),
            ..ServeConfig::default()
        },
    )
    .unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let readers = 4;
    let mut handles = Vec::new();
    for reader_id in 0..readers {
        let core = Arc::clone(&core);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(0x5eed + reader_id as u64);
            let mut epochs_seen = HashSet::new();
            let mut verified = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let n = 150u32;
                let roll: f64 = rng.random();
                let (alg, sources, combine) = if roll < 0.35 {
                    (AlgSpec::Sssp, vec![0], true) // warm hot source
                } else if roll < 0.60 {
                    (AlgSpec::Sssp, vec![rng.random_range(0..n)], true) // cold, coalescible
                } else if roll < 0.75 {
                    (AlgSpec::Bfs, vec![rng.random_range(0..n)], false) // cold, solo
                } else if roll < 0.90 {
                    (AlgSpec::Cc, vec![], false) // global max-norm, warm
                } else {
                    (AlgSpec::PageRank, vec![], false) // global sum-norm, warm
                };
                let outcome = core
                    .execute_query(QueryRequest {
                        alg,
                        mode: ModeSpec::Async,
                        sources,
                        combine,
                        max_epoch_lag: None,
                    })
                    .expect("stress query");
                verify_bit_identical(&outcome);
                epochs_seen.insert(outcome.epoch.epoch);
                verified += 1;
            }
            (verified, epochs_seen)
        }));
    }

    // Mutator side: publish a stream of epochs while the readers run.
    let mut rng = StdRng::seed_from_u64(77);
    let total_batches = 6;
    for _ in 0..total_batches {
        let batch: Vec<EdgeUpdate> = (0..12)
            .filter_map(|_| {
                let src = rng.random_range(0..150u32);
                let dst = rng.random_range(0..150u32);
                if src == dst {
                    None
                } else if rng.random_bool(0.8) {
                    Some(EdgeUpdate::insert_weighted(
                        src,
                        dst,
                        rng.random_range(1.0..10.0),
                    ))
                } else {
                    Some(EdgeUpdate::remove(src, dst))
                }
            })
            .collect();
        core.enqueue_updates(batch).unwrap();
        core.quiesce();
        // Give readers time to pin and verify against this epoch.
        std::thread::sleep(Duration::from_millis(40));
    }
    stop.store(true, Ordering::Relaxed);

    let mut total_verified = 0usize;
    let mut all_epochs = HashSet::new();
    for h in handles {
        let (verified, epochs) = h.join().expect("reader thread");
        assert!(verified > 0, "every reader must verify at least one query");
        total_verified += verified;
        all_epochs.extend(epochs);
    }
    assert_eq!(core.stats_snapshot().epochs_published, total_batches as u64);
    assert!(
        all_epochs.len() >= 3,
        "readers must have raced across several epochs (saw {:?})",
        all_epochs
    );
    // One final verification pinned at the terminal epoch.
    let last = core
        .execute_query(QueryRequest {
            alg: AlgSpec::Sssp,
            mode: ModeSpec::Async,
            sources: vec![0],
            combine: false,
            max_epoch_lag: None,
        })
        .unwrap();
    assert_eq!(last.epoch.epoch, total_batches as u64);
    verify_bit_identical(&last);
    core.shutdown();
    println!(
        "verified {total_verified} queries across {} epochs",
        all_epochs.len()
    );
}

/// The differential guarantee behind the stress test, pinned directly:
/// a pinned epoch's graph is frozen — applying more updates to the
/// serving side must not change what the pinned snapshot computes.
#[test]
fn pinned_epoch_is_immune_to_later_updates() {
    let g = stress_graph();
    let core = ServeCore::start(
        &g,
        ServeConfig {
            warm: vec![WarmSpec::new(AlgSpec::Sssp, 0)],
            admission_window: Duration::ZERO,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    let pinned = core.pin_epoch();
    let before = Pipeline::on(&pinned.graph)
        .order_ref(&pinned.order)
        .algorithm_ref(AlgSpec::Sssp.instantiate(&[0]).as_ref())
        .execute()
        .unwrap()
        .stats
        .final_states;

    // Heavily mutate the served graph.
    for round in 0..4 {
        let batch: Vec<EdgeUpdate> = (0..20)
            .map(|k| EdgeUpdate::insert_weighted(round * 20 + k, (k + 1) % 150, 1.0))
            .collect();
        core.enqueue_updates(batch).unwrap();
    }
    core.quiesce();
    assert_eq!(core.stats_snapshot().epochs_published, 4);

    let after = Pipeline::on(&pinned.graph)
        .order_ref(&pinned.order)
        .algorithm_ref(AlgSpec::Sssp.instantiate(&[0]).as_ref())
        .execute()
        .unwrap()
        .stats
        .final_states;
    assert_eq!(before, after, "a pinned epoch must be frozen");
    assert_ne!(
        pinned.graph.num_edges(),
        core.pin_epoch().graph.num_edges(),
        "the served graph must actually have moved on"
    );
    core.shutdown();
}

/// A follower's reads carry the same snapshot-isolation and
/// bounded-staleness contracts as a primary's, with the lag measured
/// against the last *known* primary seq: mid-catch-up, a tight bound is
/// rejected as `Stale` while an unbounded query still serves the
/// pinned (bit-identically verifiable) epoch; once caught up, the
/// tight bound is satisfiable again.
#[test]
fn follower_reads_are_pinned_and_staleness_bounded() {
    let g = stress_graph();
    let dir = std::env::temp_dir().join(format!("gograph-snapiso-repl-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let config = || ServeConfig {
        warm: vec![
            WarmSpec::new(AlgSpec::Sssp, 0),
            WarmSpec::new(AlgSpec::Cc, 0),
        ],
        admission_window: Duration::ZERO,
        ..ServeConfig::default()
    };
    let primary = ServeCore::start(
        &g,
        ServeConfig {
            durability: Some(DurabilityConfig::new(&dir)),
            ..config()
        },
    )
    .unwrap();
    let handle = serve("127.0.0.1:0", Arc::clone(&primary)).unwrap();
    let (follower, mut puller) = bootstrap_follower(
        handle.local_addr(),
        config(),
        ReplicationConfig {
            follower_id: 4,
            max_records_per_segment: 1,
            ..ReplicationConfig::default()
        },
    )
    .unwrap();
    assert_eq!(puller.step().unwrap(), StepOutcome::Idle);

    let mut rng = StdRng::seed_from_u64(55);
    for _ in 0..4 {
        let batch: Vec<EdgeUpdate> = (0..10)
            .filter_map(|_| {
                let src = rng.random_range(0..150u32);
                let dst = rng.random_range(0..150u32);
                (src != dst).then(|| EdgeUpdate::insert_weighted(src, dst, 3.0))
            })
            .collect();
        primary.enqueue_updates(batch).unwrap();
    }
    primary.quiesce();

    // One 1-record segment: the follower now knows the primary is at
    // seq 4 but has only applied seq 1 — a lag of 3.
    assert_eq!(puller.step().unwrap(), StepOutcome::Applied(1));
    let query = |max_epoch_lag| QueryRequest {
        alg: AlgSpec::Sssp,
        mode: ModeSpec::Async,
        sources: vec![0],
        combine: false,
        max_epoch_lag,
    };
    match follower.execute_query(query(Some(1))) {
        Err(ServeError::Stale { lag, .. }) => {
            assert_eq!(lag, 3, "lag counts against the known primary seq")
        }
        other => panic!("expected a Stale rejection mid-catch-up, got {other:?}"),
    }
    let pinned = follower.execute_query(query(None)).expect("unbounded read");
    assert_eq!(pinned.epoch.epoch, 1, "pinned at the follower's own epoch");
    verify_bit_identical(&pinned);

    // Catch up; the tight bound becomes satisfiable and still verifies.
    loop {
        match puller.step().unwrap() {
            StepOutcome::Applied(_) => continue,
            StepOutcome::Idle => break,
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    let fresh = follower
        .execute_query(query(Some(0)))
        .expect("caught-up bounded read");
    assert_eq!(fresh.epoch.epoch, 4);
    verify_bit_identical(&fresh);

    let mut handle = handle;
    handle.shutdown();
    follower.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Snapshot isolation must survive a *crashing* mutator: with injected
/// panics (some before a batch, some mid-way through the pipelines),
/// the supervisor rolls the failed batch back and readers keep seeing
/// only whole, verifiable epochs — never a half-applied batch.
#[test]
fn readers_stay_consistent_while_the_mutator_panics_and_restarts() {
    let total_batches = 8u64;
    // Find a seed whose plan mixes failed and successful batches.
    let plan = (0..64)
        .map(|seed| {
            FaultPlan::seeded(seed)
                .with_mutator_panics(0.3)
                .with_mid_batch_panics(0.2)
        })
        .find(|p| {
            let fails = (1..=total_batches)
                .filter(|&s| p.mutator_panic(s) || p.mutator_panic_mid(s))
                .count();
            // The last batch must succeed so `degraded` ends cleared.
            fails >= 2
                && fails < total_batches as usize
                && !(p.mutator_panic(total_batches) || p.mutator_panic_mid(total_batches))
        })
        .expect("some seed in 0..64 mixes failures and successes");
    let expected_fails = (1..=total_batches)
        .filter(|&s| plan.mutator_panic(s) || plan.mutator_panic_mid(s))
        .count() as u64;

    let g = stress_graph();
    let core = ServeCore::start(
        &g,
        ServeConfig {
            warm: vec![
                WarmSpec::new(AlgSpec::Sssp, 0),
                WarmSpec::new(AlgSpec::Cc, 0),
            ],
            admission_window: Duration::ZERO,
            faults: plan,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for reader_id in 0..3 {
        let core = Arc::clone(&core);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(0xdead + reader_id as u64);
            let mut verified = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let (alg, sources) = if rng.random_bool(0.6) {
                    (AlgSpec::Sssp, vec![rng.random_range(0..150u32)])
                } else {
                    (AlgSpec::Cc, vec![])
                };
                let outcome = core
                    .execute_query(QueryRequest {
                        alg,
                        mode: ModeSpec::Async,
                        sources,
                        combine: false,
                        max_epoch_lag: None,
                    })
                    .expect("query under mutator crashes");
                verify_bit_identical(&outcome);
                verified += 1;
            }
            verified
        }));
    }

    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..total_batches {
        let batch: Vec<EdgeUpdate> = (0..10)
            .filter_map(|_| {
                let src = rng.random_range(0..150u32);
                let dst = rng.random_range(0..150u32);
                (src != dst).then(|| EdgeUpdate::insert_weighted(src, dst, 2.0))
            })
            .collect();
        core.enqueue_updates(batch).unwrap();
        core.quiesce();
        std::thread::sleep(Duration::from_millis(20));
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        assert!(h.join().expect("reader thread") > 0);
    }

    let s = core.stats_snapshot();
    assert_eq!(
        s.mutator_errors, expected_fails,
        "every planned panic fired"
    );
    assert_eq!(s.mutator_restarts, expected_fails);
    assert_eq!(
        s.epochs_published,
        total_batches - expected_fails,
        "failed batches roll back; the rest still publish"
    );
    assert_eq!(s.degraded, 0, "a successful publish clears degraded mode");
    core.shutdown();
}
