//! Crash-recovery and fault-injection suite for the durable serving
//! stack, driven by seeded [`FaultPlan`]s so every failure schedule
//! reproduces from its seed alone.
//!
//! The properties under test:
//!
//! - **No acked update is lost, and no torn write is half-applied**: a
//!   WAL truncated at *every possible byte* recovers to exactly the
//!   batches whose records survive complete — bit-identical to a clean
//!   server that applied only those batches.
//! - **Recovery replays through the same supervised path as live
//!   application**, so a fault plan that panics the mutator produces
//!   identical epochs, counters, and query replies live and recovered.
//! - **Checkpoints bound the replay tail**: compaction after each
//!   checkpoint keeps the WAL from growing without bound.
//! - **Bounded staleness and reply-drop faults surface as typed errors
//!   over TCP**, and the client's reconnect/backoff rides them out.

use gograph_graph::generators::{planted_partition, shuffle_labels, PlantedPartitionConfig};
use gograph_graph::{CsrGraph, EdgeUpdate};
use gograph_serve::{
    bootstrap_follower, compact_wal, read_checkpoint, read_wal, serve_with, AlgSpec, ClientError,
    DurabilityConfig, ErrorCode, FaultPlan, ModeSpec, ReplicationConfig, RetryPolicy, Role,
    ServeClient, ServeConfig, ServeCore, ServeError, ServerConfig, StepOutcome, WarmSpec,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn graph() -> CsrGraph {
    shuffle_labels(
        &planted_partition(PlantedPartitionConfig {
            num_vertices: 80,
            num_edges: 400,
            communities: 4,
            p_intra: 0.8,
            gamma: 2.4,
            seed: 11,
        }),
        3,
    )
}

/// The deterministic update stream: batch `k` (1-based) is a fixed
/// churn of inserts and removes, so tests can re-derive any prefix.
fn batch(k: u64) -> Vec<EdgeUpdate> {
    let k = k as u32;
    vec![
        EdgeUpdate::insert_weighted(k % 80, (k * 7 + 13) % 80, 1.5 + f64::from(k % 5)),
        EdgeUpdate::insert_weighted((k * 3 + 1) % 80, (k * 11 + 29) % 80, 2.0),
        EdgeUpdate::remove(k % 80, (k + 1) % 80),
    ]
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gograph-faultinj-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn base_config() -> ServeConfig {
    ServeConfig {
        warm: vec![
            WarmSpec::new(AlgSpec::Sssp, 0),
            WarmSpec::new(AlgSpec::Cc, 0),
        ],
        ..ServeConfig::default()
    }
}

fn durable_config(dir: &Path, checkpoint_every: u64) -> ServeConfig {
    ServeConfig {
        durability: Some(DurabilityConfig {
            checkpoint_every_batches: checkpoint_every,
            ..DurabilityConfig::new(dir)
        }),
        ..base_config()
    }
}

/// Full bit-level equality of two cores' current epochs: graph, order
/// and every warm pipeline's converged states.
fn assert_cores_bit_identical(a: &ServeCore, b: &ServeCore, what: &str) {
    let (ea, eb) = (a.pin_epoch(), b.pin_epoch());
    assert_eq!(ea.epoch, eb.epoch, "{what}: epoch number");
    assert_eq!(ea.graph, eb.graph, "{what}: graph");
    assert_eq!(*ea.order, *eb.order, "{what}: insertion order");
    for spec in [(AlgSpec::Sssp, 0u32), (AlgSpec::Cc, 0u32)] {
        let wa = ea.warm_for(spec.0, spec.1).expect("warm entry");
        let wb = eb.warm_for(spec.0, spec.1).expect("warm entry");
        let (ba, bb): (Vec<u64>, Vec<u64>) = (
            wa.states.iter().map(|x| x.to_bits()).collect(),
            wb.states.iter().map(|x| x.to_bits()).collect(),
        );
        assert_eq!(ba, bb, "{what}: {:?} warm states", spec.0);
    }
}

/// A WAL truncated at every byte — a torn final write, a lost page, a
/// partial fsync — must recover to exactly its complete record prefix,
/// bit-identical to a clean core that applied only those batches.
#[test]
fn recovery_survives_wal_truncation_at_every_byte() {
    let g = graph();
    let dir = tmp_dir("truncate");

    // Build the durable history: 5 acked batches, no periodic
    // checkpoints (so the WAL holds everything past the bootstrap).
    let core = ServeCore::start(&g, durable_config(&dir, 0)).unwrap();
    for k in 1..=5 {
        core.enqueue_updates(batch(k)).unwrap();
    }
    core.quiesce();
    let wal_bytes = {
        // Snapshot the WAL while the core is live — shutdown would
        // compact it. EveryBatch sync means the bytes are durable.
        std::fs::read(dir.join("updates.wal")).unwrap()
    };
    let ckpt_bytes = std::fs::read(dir.join("epoch.ckpt")).unwrap();
    core.shutdown();

    // Reference epochs: a fresh clean core per prefix length, so
    // `reference_at[k]` pins exactly the first k batches.
    let mut reference_at = vec![ServeCore::start(&g, base_config()).unwrap()];
    for k in 1..=5u64 {
        let r = ServeCore::start(&g, base_config()).unwrap();
        for j in 1..=k {
            r.enqueue_updates(batch(j)).unwrap();
        }
        r.quiesce();
        reference_at.push(r);
    }

    let header = 8; // WAL magic
    for cut in header..=wal_bytes.len() {
        let case = tmp_dir(&format!("truncate-cut{cut}"));
        std::fs::write(case.join("epoch.ckpt"), &ckpt_bytes).unwrap();
        std::fs::write(case.join("updates.wal"), &wal_bytes[..cut]).unwrap();

        // How many complete records survive the cut?
        let survived = read_wal(&case.join("updates.wal")).unwrap().records.len();

        let recovered = ServeCore::recover(durable_config(&case, 0))
            .unwrap_or_else(|e| panic!("recovery failed at cut {cut}: {e}"));
        let s = recovered.stats_snapshot();
        assert_eq!(
            s.epoch, survived as u64,
            "cut {cut}: epoch must equal the surviving record count"
        );
        assert_eq!(s.wal_replayed, survived as u64, "cut {cut}");
        assert_cores_bit_identical(
            &recovered,
            &reference_at[survived],
            &format!("cut {cut} ({survived} records survive)"),
        );
        recovered.shutdown();
        let _ = std::fs::remove_dir_all(&case);
    }

    for r in reference_at {
        r.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash-recovered server driven by the *same* seeded fault plan
/// re-injects the same mutator panics during replay, landing on the
/// same epochs and the same counters as the live run — planned failure
/// is part of the deterministic history, not a divergence.
#[test]
fn recovery_under_the_same_fault_plan_matches_the_live_run() {
    let total = 7u64;
    let plan = (0..64)
        .map(|s| FaultPlan::seeded(s).with_mutator_panics(0.35))
        .find(|p| {
            let fails = (1..=total).filter(|&s| p.mutator_panic(s)).count() as u64;
            fails >= 1 && fails < total
        })
        .expect("a seed with mixed outcomes");

    let g = graph();
    let dir = tmp_dir("sameplan");
    let config = || ServeConfig {
        faults: plan.clone(),
        ..durable_config(&dir, 0)
    };

    let live = ServeCore::start(&g, config()).unwrap();
    for k in 1..=total {
        live.enqueue_updates(batch(k)).unwrap();
    }
    live.quiesce();
    let live_stats = live.stats_snapshot();
    assert!(live_stats.mutator_errors >= 1, "the plan must really fire");

    // Crash: copy the durable state out from under the live core.
    let crash = tmp_dir("sameplan-crash");
    std::fs::copy(dir.join("updates.wal"), crash.join("updates.wal")).unwrap();
    std::fs::copy(dir.join("epoch.ckpt"), crash.join("epoch.ckpt")).unwrap();

    let recovered = ServeCore::recover(ServeConfig {
        faults: plan.clone(),
        ..durable_config(&crash, 0)
    })
    .unwrap();
    let rec_stats = recovered.stats_snapshot();
    assert_eq!(rec_stats.epoch, live_stats.epoch);
    assert_eq!(rec_stats.batches_applied, live_stats.batches_applied);
    assert_eq!(rec_stats.mutator_errors, live_stats.mutator_errors);
    assert_eq!(rec_stats.updates_applied, live_stats.updates_applied);
    assert_eq!(rec_stats.mutator_rounds, live_stats.mutator_rounds);
    assert_cores_bit_identical(&recovered, &live, "same-plan recovery");

    live.shutdown();
    recovered.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crash);
}

/// Periodic checkpoints move the WAL watermark forward and compaction
/// reclaims everything at or before it, so the log's size tracks the
/// checkpoint cadence instead of total history; a clean shutdown
/// compacts to empty and recovery replays nothing. A WAL that does not
/// pick up where the checkpoint leaves off is refused, not replayed
/// into a shorter history.
#[test]
fn checkpoints_compact_the_wal_and_bound_replay() {
    let g = graph();
    let dir = tmp_dir("compact");
    let core = ServeCore::start(&g, durable_config(&dir, 2)).unwrap();
    for k in 1..=10 {
        core.enqueue_updates(batch(k)).unwrap();
        core.quiesce(); // checkpoint cadence counts applied batches
    }
    let s = core.stats_snapshot();
    // Bootstrap + every 2 applied batches.
    assert!(
        s.checkpoints_written >= 5,
        "expected periodic checkpoints, saw {}",
        s.checkpoints_written
    );
    core.shutdown();

    // Shutdown wrote a final checkpoint at the last applied seq and
    // compacted: nothing remains to replay.
    let wal = read_wal(&dir.join("updates.wal")).unwrap();
    assert_eq!(wal.records.len(), 0, "clean shutdown leaves an empty WAL");
    let ck = read_checkpoint(&dir.join("epoch.ckpt")).unwrap().unwrap();
    assert_eq!(ck.epoch, 10);

    let recovered = ServeCore::recover(durable_config(&dir, 2)).unwrap();
    let rs = recovered.stats_snapshot();
    assert_eq!(rs.wal_replayed, 0);
    assert_eq!(rs.epoch, 10);
    // The recovered server keeps serving updates durably.
    recovered.enqueue_updates(batch(11)).unwrap();
    recovered.quiesce();
    assert_eq!(recovered.stats_snapshot().epoch, 11);
    recovered.shutdown();

    // Four acked batches past the checkpoint at 11, then lose the first
    // two of them from the log: a gap between checkpoint and WAL.
    let live = ServeCore::recover(durable_config(&dir, 0)).unwrap();
    for k in 12..=15 {
        live.enqueue_updates(batch(k)).unwrap();
    }
    live.quiesce();
    let crash = crash_copy(&dir, "compact-gap");
    let ck = read_checkpoint(&crash.join("epoch.ckpt")).unwrap().unwrap();
    assert_eq!(ck.seq, 11);
    compact_wal(&crash.join("updates.wal"), ck.seq + 2).unwrap();
    match ServeCore::recover(durable_config(&crash, 0)) {
        Err(ServeError::InvalidRequest(m)) => {
            assert!(
                m.contains("expected seq 12") && m.contains("found 14"),
                "{m}"
            )
        }
        Ok(core) => panic!(
            "recovered past a WAL gap to epoch {}",
            core.stats_snapshot().epoch
        ),
        Err(e) => panic!("expected the WAL gap to be refused, got {e}"),
    }
    live.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crash);
}

/// Over TCP: a query carrying `max_epoch_lag` is rejected with the
/// typed `Stale` code while the (deterministically stalled) mutator
/// lags, then served once it catches up; unbounded queries are always
/// served from the pinned snapshot.
#[test]
fn bounded_staleness_is_enforced_over_tcp() {
    let g = graph();
    let core = ServeCore::start(
        &g,
        ServeConfig {
            // Every batch stalls long enough for the bounded query to
            // observe the lag window deterministically.
            faults: FaultPlan::seeded(9).with_mutator_stalls(1.0, Duration::from_millis(400)),
            ..base_config()
        },
    )
    .unwrap();
    let mut handle = serve_with("127.0.0.1:0", Arc::clone(&core), ServerConfig::default()).unwrap();
    let mut client = ServeClient::connect(handle.local_addr()).unwrap();

    client.send_updates(&batch(1)).unwrap();
    match client.query_bounded(AlgSpec::Sssp, ModeSpec::Async, false, Some(0), &[0], &[5]) {
        Err(ClientError::Server {
            code: ErrorCode::Stale,
            ..
        }) => {}
        other => panic!("expected a Stale rejection, got {other:?}"),
    }
    // Unbounded service continues from the pinned epoch meanwhile.
    let reply = client
        .query(AlgSpec::Sssp, ModeSpec::Async, false, &[0], &[5])
        .unwrap();
    assert_eq!(reply.epoch, 0);

    core.quiesce();
    let reply = client
        .query_bounded(AlgSpec::Sssp, ModeSpec::Async, false, Some(0), &[0], &[5])
        .unwrap();
    assert_eq!(reply.epoch, 1, "after catch-up the bound is satisfiable");
    handle.shutdown();
}

/// Dropped replies sever the connection as a crashed server would; the
/// client's reconnect + backoff retries idempotent queries through the
/// fault schedule without surfacing an error.
#[test]
fn client_rides_out_dropped_replies() {
    let g = graph();
    let core = ServeCore::start(
        &g,
        ServeConfig {
            faults: FaultPlan::seeded(21).with_dropped_replies(0.35),
            ..base_config()
        },
    )
    .unwrap();
    let mut handle = serve_with("127.0.0.1:0", Arc::clone(&core), ServerConfig::default()).unwrap();
    let mut client = ServeClient::connect_with_retry(
        handle.local_addr(),
        RetryPolicy {
            max_retries: 10,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(20),
            jitter_seed: 5,
        },
    )
    .unwrap();

    let mut served = 0u32;
    for i in 0..25u32 {
        let reply = client
            .query(
                AlgSpec::Sssp,
                ModeSpec::Async,
                false,
                &[i % 80],
                &[(i + 3) % 80],
            )
            .unwrap_or_else(|e| panic!("query {i} failed through retries: {e}"));
        assert_eq!(reply.epoch, 0);
        served += 1;
    }
    assert_eq!(served, 25);
    // The plan really dropped frames: the server answered more
    // requests than the client saw replies for.
    assert!(
        core.stats_snapshot().queries > 25,
        "expected retried queries, server saw {}",
        core.stats_snapshot().queries
    );
    handle.shutdown();
}

/// Clean-prefix reference cores: `make_references(g, n)[k]` pins
/// exactly the first `k` batches of the deterministic stream.
fn make_references(g: &CsrGraph, n: u64) -> Vec<Arc<ServeCore>> {
    let mut refs = vec![ServeCore::start(g, base_config()).unwrap()];
    for k in 1..=n {
        let r = ServeCore::start(g, base_config()).unwrap();
        for j in 1..=k {
            r.enqueue_updates(batch(j)).unwrap();
        }
        r.quiesce();
        refs.push(r);
    }
    refs
}

/// Steps the puller until the follower is caught up (Idle), returning
/// every non-idle outcome on the way.
fn catch_up(puller: &mut gograph_serve::ReplicaPuller) -> Vec<StepOutcome> {
    let mut outcomes = Vec::new();
    for _ in 0..200 {
        match puller.step().expect("replication step") {
            StepOutcome::Idle => return outcomes,
            o => outcomes.push(o),
        }
    }
    panic!("follower never caught up; outcomes so far: {outcomes:?}");
}

/// The tentpole guarantee, acceptance (a): every update acked by both
/// the primary and the follower is served bit-identically by the
/// follower after the primary dies — at *every* intermediate ack
/// watermark, which subsumes killing the primary at an arbitrary WAL
/// byte (whatever was torn past the watermark was never acked by the
/// pair). After the kill the follower is promoted and serves writes.
#[test]
fn follower_replays_bit_identically_and_survives_primary_failover() {
    let g = graph();
    let dir = tmp_dir("repl-failover");
    let primary = ServeCore::start(&g, durable_config(&dir, 4)).unwrap();
    let mut handle =
        serve_with("127.0.0.1:0", Arc::clone(&primary), ServerConfig::default()).unwrap();

    let (follower, mut puller) = bootstrap_follower(
        handle.local_addr(),
        base_config(),
        ReplicationConfig {
            follower_id: 1,
            max_records_per_segment: 2,
            ..ReplicationConfig::default()
        },
    )
    .unwrap();
    // Register with the primary before any traffic so compaction
    // proposals clamp to this follower's (zero) ack from the start.
    assert_eq!(puller.step().unwrap(), StepOutcome::Idle);

    let total = 9u64;
    let references = make_references(&g, total + 1);
    for k in 1..=total {
        primary.enqueue_updates(batch(k)).unwrap();
    }
    primary.quiesce();

    // Catch up in ≤2-record segments; after every applied segment the
    // follower must be bit-identical to the clean prefix at its acked
    // watermark — the state it would serve if the primary died there.
    let mut applied_watermarks = Vec::new();
    loop {
        match puller.step().unwrap() {
            StepOutcome::Applied(_) => {
                let acked = puller.acked_seq();
                applied_watermarks.push(acked);
                assert_cores_bit_identical(
                    &follower,
                    &references[acked as usize],
                    &format!("follower at acked seq {acked}"),
                );
            }
            StepOutcome::Idle => break,
            other => panic!("unexpected replication outcome {other:?}"),
        }
    }
    assert_eq!(puller.acked_seq(), total);
    assert!(
        applied_watermarks.len() >= 4,
        "segment cap 2 must spread {total} records over several acks, saw {applied_watermarks:?}"
    );
    assert_cores_bit_identical(&follower, &primary, "caught-up follower vs primary");

    let ps = primary.stats_snapshot();
    assert_eq!(ps.repl_records_shipped, total);
    assert_eq!(ps.repl_follower_lag, 0);
    assert_eq!(ps.repl_divergences, 0);
    let fs = follower.stats_snapshot();
    assert_eq!(fs.repl_primary_seq, total);
    assert_eq!(fs.repl_last_seq, total);
    assert_eq!(fs.repl_resyncs, 0);

    // Kill the primary. The follower keeps serving its acked state,
    // rejects writes until promoted, then takes them.
    handle.shutdown();
    drop(handle);
    assert_eq!(follower.role(), Role::Follower);
    assert!(matches!(
        follower.enqueue_updates(batch(total + 1)),
        Err(ServeError::NotPrimary)
    ));
    follower.promote();
    assert_eq!(follower.role(), Role::Primary);
    assert_eq!(
        puller.step().unwrap(),
        StepOutcome::Stopped,
        "a promoted node's puller stops"
    );
    follower.enqueue_updates(batch(total + 1)).unwrap();
    follower.quiesce();
    assert_cores_bit_identical(
        &follower,
        &references[(total + 1) as usize],
        "promoted follower serving writes",
    );

    for r in references {
        r.shutdown();
    }
    follower.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Acceptance (b): silently corrupting the follower's in-memory state
/// (the fault plan flips one converged value after a batch applies) is
/// *detected* by the primary's probe-fingerprint comparison on the very
/// next ack — within one probe interval — and *repaired* by checkpoint
/// re-sync, after which the pair is bit-identical again.
#[test]
fn injected_follower_corruption_is_detected_and_repaired() {
    let g = graph();
    let dir = tmp_dir("repl-corrupt");
    // Checkpoint every batch so the repair checkpoint always covers the
    // corrupted seq (replaying it again would just re-corrupt).
    let primary = ServeCore::start(&g, durable_config(&dir, 1)).unwrap();
    let mut handle =
        serve_with("127.0.0.1:0", Arc::clone(&primary), ServerConfig::default()).unwrap();

    let (follower, mut puller) = bootstrap_follower(
        handle.local_addr(),
        ServeConfig {
            faults: FaultPlan::seeded(13).with_state_corruption(1.0),
            ..base_config()
        },
        ReplicationConfig {
            follower_id: 7,
            max_records_per_segment: 1,
            ..ReplicationConfig::default()
        },
    )
    .unwrap();
    assert_eq!(puller.step().unwrap(), StepOutcome::Idle);

    for k in 1..=6 {
        primary.enqueue_updates(batch(k)).unwrap();
    }
    primary.quiesce();

    let outcomes = catch_up(&mut puller);
    assert!(
        outcomes.contains(&StepOutcome::Resynced),
        "corruption must force at least one re-sync, saw {outcomes:?}"
    );
    let ps = primary.stats_snapshot();
    assert!(
        ps.repl_divergences >= 1,
        "the probe comparison must flag the corrupted fingerprints"
    );
    let fs = follower.stats_snapshot();
    assert!(fs.repl_resyncs >= 1, "the follower must have re-synced");
    // The repair checkpoint is past every shipped record, so nothing
    // replays through the (always-corrupting) fault plan afterwards:
    // the pair converges bit-identically.
    assert_eq!(puller.acked_seq(), 6);
    assert_cores_bit_identical(&follower, &primary, "repaired follower");

    handle.shutdown();
    follower.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Acceptance (c), first half: WAL compaction never discards a record
/// an alive (registered, within-lag) follower still needs — the
/// follower's zero ack pins the log across several checkpoint cycles,
/// and it later catches up from the log alone, no re-sync.
#[test]
fn compaction_waits_for_live_follower_acks() {
    let g = graph();
    let dir = tmp_dir("repl-pin");
    let primary = ServeCore::start(&g, durable_config(&dir, 2)).unwrap();
    let mut handle =
        serve_with("127.0.0.1:0", Arc::clone(&primary), ServerConfig::default()).unwrap();

    let (follower, mut puller) = bootstrap_follower(
        handle.local_addr(),
        base_config(),
        ReplicationConfig {
            follower_id: 2,
            max_records_per_segment: 4,
            ..ReplicationConfig::default()
        },
    )
    .unwrap();
    assert_eq!(puller.step().unwrap(), StepOutcome::Idle);

    // Checkpoints at 2, 4, 6, 8 each propose compaction; every proposal
    // must clamp to this follower's ack (0).
    for k in 1..=8 {
        primary.enqueue_updates(batch(k)).unwrap();
        primary.quiesce();
    }
    let wal = read_wal(&dir.join("updates.wal")).unwrap();
    assert_eq!(
        wal.records.len(),
        8,
        "an alive follower's pending records must pin the WAL"
    );

    let outcomes = catch_up(&mut puller);
    assert!(
        outcomes
            .iter()
            .all(|o| matches!(o, StepOutcome::Applied(_))),
        "catch-up from the pinned log must not need a re-sync: {outcomes:?}"
    );
    assert_eq!(follower.stats_snapshot().repl_resyncs, 0);
    assert_eq!(puller.acked_seq(), 8);
    assert_cores_bit_identical(&follower, &primary, "follower after pinned catch-up");

    handle.shutdown();
    follower.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Acceptance (c), second half (the escape hatch): a follower lagging
/// past `max_follower_lag` is evicted — compaction proceeds without its
/// ack, and the follower's next subscribe routes it through checkpoint
/// re-sync instead of silently skipping discarded records.
#[test]
fn slow_followers_are_evicted_to_checkpoint_resync() {
    let g = graph();
    let dir = tmp_dir("repl-evict");
    let primary = ServeCore::start(
        &g,
        ServeConfig {
            max_follower_lag: 2,
            ..durable_config(&dir, 2)
        },
    )
    .unwrap();
    let mut handle =
        serve_with("127.0.0.1:0", Arc::clone(&primary), ServerConfig::default()).unwrap();

    let (follower, mut puller) = bootstrap_follower(
        handle.local_addr(),
        base_config(),
        ReplicationConfig {
            follower_id: 3,
            max_records_per_segment: 8,
            ..ReplicationConfig::default()
        },
    )
    .unwrap();
    assert_eq!(puller.step().unwrap(), StepOutcome::Idle);

    // The follower stalls while the primary moves on. Two extra
    // quiesced batches at the end guarantee the last checkpoint's
    // compaction proposal is actually consumed by a later enqueue.
    for k in 1..=10 {
        primary.enqueue_updates(batch(k)).unwrap();
        primary.quiesce();
    }
    let wal = read_wal(&dir.join("updates.wal")).unwrap();
    let first_seq = wal.records.first().map(|r| r.seq).unwrap_or(u64::MAX);
    assert!(
        first_seq >= 5,
        "the evicted follower's zero ack must stop pinning the log (first surviving seq {first_seq})"
    );

    // Its next pull is a re-sync, not a gap-skipping segment.
    assert_eq!(puller.step().unwrap(), StepOutcome::Resynced);
    assert!(follower.stats_snapshot().repl_resyncs >= 1);
    let outcomes = catch_up(&mut puller);
    assert!(
        outcomes
            .iter()
            .all(|o| matches!(o, StepOutcome::Applied(_))),
        "post-re-sync catch-up runs from the log: {outcomes:?}"
    );
    assert_eq!(puller.acked_seq(), 10);
    assert_cores_bit_identical(&follower, &primary, "evicted follower after re-sync");

    handle.shutdown();
    follower.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Copies every durable artifact (WAL and checkpoint) — what `kill -9`
/// preserves.
fn crash_copy(from: &Path, tag: &str) -> PathBuf {
    let to = tmp_dir(tag);
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name();
        std::fs::copy(entry.path(), to.join(&name)).unwrap();
    }
    to
}

/// The deterministic link/crash/delay faults: a link dropped
/// mid-segment loses only the ack (the next subscribe resumes from the
/// applied prefix), a follower crash mid-replay re-bootstraps via
/// checkpoint re-sync, delayed acks just slow things down — and under
/// all of it the pair still converges bit-identically with no
/// divergence ever flagged.
#[test]
fn replication_faults_converge_without_divergence() {
    let g = graph();
    let dir = tmp_dir("repl-chaos");
    let primary = ServeCore::start(&g, durable_config(&dir, 3)).unwrap();
    let mut handle =
        serve_with("127.0.0.1:0", Arc::clone(&primary), ServerConfig::default()).unwrap();

    let (follower, mut puller) = bootstrap_follower(
        handle.local_addr(),
        ServeConfig {
            faults: FaultPlan::seeded(41)
                .with_link_drops(0.4)
                .with_follower_crashes(0.25)
                .with_delayed_acks(0.5, Duration::from_millis(2)),
            ..base_config()
        },
        ReplicationConfig {
            follower_id: 9,
            max_records_per_segment: 2,
            ..ReplicationConfig::default()
        },
    )
    .unwrap();
    assert_eq!(puller.step().unwrap(), StepOutcome::Idle);

    for k in 1..=12 {
        primary.enqueue_updates(batch(k)).unwrap();
    }
    primary.quiesce();

    let outcomes = catch_up(&mut puller);
    assert!(
        outcomes
            .iter()
            .any(|o| matches!(o, StepOutcome::LinkDropped | StepOutcome::Crashed)),
        "the chaos plan must actually fire: {outcomes:?}"
    );
    assert_eq!(puller.acked_seq(), 12);
    assert_eq!(
        primary.stats_snapshot().repl_divergences,
        0,
        "faults lose progress, never correctness"
    );
    assert_cores_bit_identical(&follower, &primary, "follower after link/crash chaos");

    handle.shutdown();
    follower.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A batch counts as applied a moment before its probe is recorded.
/// With that moment stretched to 5 ms — on the follower alone, then on
/// both nodes — a healthy pair driven in lock step (one batch,
/// `quiesce`, one replication step) must never be called divergent:
/// `quiesce` and the primary's settled watermark wait for the probe,
/// and the follower never acks with fingerprints it does not have yet.
#[test]
fn late_probes_never_read_as_divergence() {
    let g = graph();
    let late = FaultPlan::seeded(5).with_probe_delay(1.0, Duration::from_millis(5));
    for (tag, primary_faults) in [("follower", FaultPlan::none()), ("both", late.clone())] {
        let dir = tmp_dir(&format!("repl-late-probe-{tag}"));
        let primary = ServeCore::start(
            &g,
            ServeConfig {
                faults: primary_faults,
                ..durable_config(&dir, 4)
            },
        )
        .unwrap();
        let mut handle =
            serve_with("127.0.0.1:0", Arc::clone(&primary), ServerConfig::default()).unwrap();
        let (follower, mut puller) = bootstrap_follower(
            handle.local_addr(),
            ServeConfig {
                faults: late.clone(),
                ..base_config()
            },
            ReplicationConfig {
                follower_id: 3,
                ..ReplicationConfig::default()
            },
        )
        .unwrap();
        assert_eq!(puller.step().unwrap(), StepOutcome::Idle);

        let total = 6u64;
        for k in 1..=total {
            primary.enqueue_updates(batch(k)).unwrap();
            primary.quiesce();
            assert_eq!(
                puller.step().unwrap(),
                StepOutcome::Applied(1),
                "late {tag}: lock-step batch {k}"
            );
            assert_eq!(puller.acked_seq(), k);
        }

        let ps = primary.stats_snapshot();
        assert_eq!(ps.repl_divergences, 0, "late {tag}: healthy pair");
        assert_eq!(ps.repl_resyncs, 0, "late {tag}");
        assert_eq!(follower.stats_snapshot().repl_resyncs, 0, "late {tag}");
        let (pp, fp) = (primary.probe(Some(total)), follower.probe(Some(total)));
        assert!(pp.known && fp.known, "late {tag}: final probes settled");
        assert_eq!(pp.fingerprints, fp.fingerprints, "late {tag}: final probes");
        assert_cores_bit_identical(&follower, &primary, "lock-stepped follower");

        // An ack with the wrong number of fingerprints is malformed:
        // not a state that differs, and not an ack to record.
        let acks = ps.repl_acks;
        assert!(matches!(
            primary.replica_ack(3, total, &[]),
            Err(ServeError::InvalidRequest(_))
        ));
        let ps = primary.stats_snapshot();
        assert_eq!((ps.repl_divergences, ps.repl_acks), (0, acks));

        handle.shutdown();
        follower.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A batch counts as settled in the stats a moment before its probe is
/// recorded; with that moment stretched to 50 ms, `probe(None)` asked
/// once the counters show the batch must still report the batch's seq,
/// not the one before it.
#[test]
fn newest_probe_waits_for_the_settled_counters() {
    let core = ServeCore::start(
        &graph(),
        ServeConfig {
            faults: FaultPlan::seeded(7).with_probe_delay(1.0, Duration::from_millis(50)),
            ..base_config()
        },
    )
    .unwrap();
    for k in 1..=2u64 {
        core.enqueue_updates(batch(k)).unwrap();
        loop {
            let s = core.stats_snapshot();
            if s.batches_applied + s.mutator_errors >= k {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let p = core.probe(None);
        assert!(p.known, "batch {k}");
        assert_eq!(p.seq, k, "batch {k}: probe trails the settled counters");
    }
    core.shutdown();
    // With the mutator gone, nothing is left to wait for.
    assert_eq!(core.probe(None).seq, 2);
}

/// End-to-end crash recovery over TCP: kill the server abruptly (the
/// OS process stays, but the durable directory is copied out mid-run,
/// exactly what `kill -9` preserves), restart from the copy, and the
/// same query answers bit-identically — including through a client
/// whose connect retries span the restart gap.
#[test]
fn tcp_queries_are_bit_identical_across_crash_recovery() {
    let g = graph();
    let dir = tmp_dir("tcp-crash");
    let core = ServeCore::start(&g, durable_config(&dir, 3)).unwrap();
    let mut handle = serve_with("127.0.0.1:0", Arc::clone(&core), ServerConfig::default()).unwrap();
    let mut client = ServeClient::connect(handle.local_addr()).unwrap();

    for k in 1..=5 {
        client.send_updates(&batch(k)).unwrap();
    }
    core.quiesce();
    let targets: Vec<u32> = (0..40).collect();
    let before = client
        .query(AlgSpec::Sssp, ModeSpec::Async, false, &[0], &targets)
        .unwrap();
    assert_eq!(before.epoch, 5);

    // "kill -9": copy the durable state without a clean shutdown.
    let crash = tmp_dir("tcp-crash-copy");
    std::fs::copy(dir.join("updates.wal"), crash.join("updates.wal")).unwrap();
    std::fs::copy(dir.join("epoch.ckpt"), crash.join("epoch.ckpt")).unwrap();
    handle.shutdown();

    let (recovered, was_recovery) =
        ServeCore::recover_or_start(&g, durable_config(&crash, 3)).unwrap();
    assert!(was_recovery, "durable state must route through recovery");
    assert!(
        recovered.stats_snapshot().wal_replayed >= 1,
        "the checkpoint-every-3 cadence leaves a tail to replay"
    );
    let mut handle = serve_with("127.0.0.1:0", recovered, ServerConfig::default()).unwrap();
    let mut client =
        ServeClient::connect_with_retry(handle.local_addr(), RetryPolicy::default()).unwrap();
    let after = client
        .query(AlgSpec::Sssp, ModeSpec::Async, false, &[0], &targets)
        .unwrap();
    assert_eq!(after.epoch, before.epoch, "recovered epoch number");
    let bits = |values: &[(u32, f64)]| {
        values
            .iter()
            .map(|&(v, x)| (v, x.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        bits(&before.values),
        bits(&after.values),
        "recovered replies must be bit-identical"
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crash);
}
