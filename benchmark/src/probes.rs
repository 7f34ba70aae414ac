//! Direct layer probes — traced run only, after the measured windows.
//!
//! Each probe calls one layer's public functions on the workload's own
//! graph, frames and batches, under a small time budget (big graphs get
//! one repetition, small ones a median of a few). The numbers have no
//! regression bound; they are there to say *which layer* moved when an
//! end-to-end metric did.

use crate::batch::{
    bit_equal, converge, max_abs_diff, relabeled_sources, CellStates, Prepared, PAR,
};
use crate::guard;
use crate::inputs::{self, stream, Inputs};
use crate::report::Metrics;
use crate::service::{drain, Service};
use crate::stats::{time_reps, Samples};
use crate::trace::{self, timed};
use bytes::Bytes;
use gograph_core::{check_theorem2, metric_report, IncrementalGoGraph};
use gograph_engine::{
    Bfs, ConnectedComponents, DeltaPageRank, DeltaSchedule, Mode, PageRank, Pipeline, Sssp,
    StreamingPipeline,
};
use gograph_graph::stats::bytes_per_edge;
use gograph_graph::{CsrGraph, VertexId};
use gograph_partition::{Partitioner, RabbitPartition};
use gograph_reorder::{DegSort, RabbitOrder, Reorderer};
use gograph_serve::wire::{decode_reply, decode_request, encode_reply, encode_request};
use gograph_serve::{
    bootstrap_follower, read_checkpoint, write_checkpoint, AlgSpec, ModeSpec, QueryReply,
    QueryRequest, ReplicationConfig, Reply, Request, ServeClient, ServeConfig, StepOutcome,
    SyncPolicy, WalWriter,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Budget of one probe cell; a cell always runs at least once.
const CELL: Duration = Duration::from_millis(150);
/// Lock-step rounds of the replication probe, and the time they may take.
const REPLICATION_ROUNDS: usize = 32;
const REPLICATION_BUDGET: Duration = Duration::from_secs(2);

fn cell(m: &mut Metrics, name: &'static str, span: &'static str, mut f: impl FnMut()) {
    let mut op = 0u64;
    let s = time_reps(CELL, 1, 5, || {
        op += 1;
        timed(span, op, &mut f);
    });
    m.set(name, s.median(), s.len());
}

/// Edges per second of a full in-neighbour sweep through the public
/// iterator — on compressed storage this is the varint decode rate.
fn sweep_medges_per_s(g: &CsrGraph) -> (f64, usize) {
    let s = time_reps(CELL, 1, 5, || {
        let mut acc = 0u64;
        for v in g.vertices() {
            g.for_each_in_neighbor(v, |u| acc = acc.wrapping_add(u as u64));
        }
        black_box(acc);
    });
    (g.num_edges() as f64 / 1e6 / (s.median() / 1e3), s.len())
}

/// Probes of the `graph`, `partition`, `core`, `reorder` and `engine`
/// layers on the workload's graph.
pub fn batch_layers(m: &mut Metrics, inputs: &Inputs, p: &Prepared) -> Result<(), String> {
    let _scope = trace::scope("probe.batch_layers", 0);
    let raw = &inputs.raw;
    let order = p.po.order();
    let fail = |what: &str, e: gograph_engine::EngineError| format!("probe: {what}: {e}");

    // graph
    let (rate, n) = sweep_medges_per_s(&p.graph);
    m.set("graph.sweep_medges_per_s", rate, n);
    m.set("graph.bytes_per_edge", bytes_per_edge(&p.graph), 1);
    if m.get("graph.compress_ms").is_none() {
        cell(m, "graph.compress_ms", "graph.compress", || {
            black_box(p.flat.compress());
        });
    }
    let mut rng = inputs.rng(stream::PROBE_BATCHES);
    let batches: Vec<_> = (0..8)
        .map(|_| inputs::next_batch(&mut rng, inputs))
        .collect();
    let mut next = 0usize;
    cell(m, "graph.csr_patch_ms", "graph.apply_updates", || {
        black_box(raw.apply_updates(&batches[next % batches.len()]));
        next += 1;
    });

    // partition + core
    cell(m, "partition.partition_ms", "partition.rabbit", || {
        black_box(RabbitPartition::default().partition(raw));
    });
    let report = metric_report(raw, order);
    m.set("partition.num_parts", p.po.num_parts() as f64, 1);
    m.set(
        "partition.cross_edge_share",
        p.po.cross_contribution().total as f64 / report.total_edges().max(1) as f64,
        1,
    );
    m.set("core.positive_edge_share", report.positive_fraction(), 1);
    m.set(
        "core.theorem2_holds",
        f64::from(u8::from(check_theorem2(raw, order).holds)),
        1,
    );
    let mut inc = IncrementalGoGraph::from_graph_with_order(raw, order);
    let mut next = 0usize;
    let s = time_reps(CELL, 1, batches.len(), || {
        timed("core.incremental_apply_updates", next as u64, || {
            inc.apply_updates(&batches[next])
        });
        next += 1;
    });
    m.set(
        "core.order_maintain_us_per_update",
        s.median() * 1e3 / inputs::UPDATES_PER_BATCH as f64,
        s.len(),
    );
    drop(inc);

    // reorder baselines, and the engine on them
    let mut rabbit = None;
    cell(m, "reorder.rabbit_ms", "reorder.rabbit", || {
        rabbit = Some(RabbitOrder::default().reorder(raw));
    });
    cell(m, "reorder.degsort_ms", "reorder.degsort", || {
        black_box(DegSort::default().reorder(raw));
    });
    let rabbit_graph = raw.relabeled(&rabbit.expect("the rabbit cell ran"));
    let (_, wall) = converge(
        &rabbit_graph,
        &p.scan,
        Mode::Async,
        PageRank::default(),
        "engine.pagerank_rabbit",
        0,
    )
    .map_err(|e| fail("PageRank on the rabbit order", e))?;
    m.set("engine.pagerank_rabbit_ms", wall.as_secs_f64() * 1e3, 1);
    drop(rabbit_graph);

    // the modes ROADMAP direction 2 wants to fold away
    let (sync, wall) = converge(
        &p.graph,
        &p.scan,
        Mode::Sync,
        PageRank::default(),
        "engine.pagerank_sync",
        0,
    )
    .map_err(|e| fail("PageRank sync", e))?;
    m.set("engine.pagerank_sync_ms", wall.as_secs_f64() * 1e3, 1);
    m.set("engine.pagerank_sync_rounds", sync.rounds as f64, 1);
    let (delta, wall) = timed("engine.pagerank_delta", 0, || {
        Pipeline::on(&p.graph)
            .order_ref(&p.scan)
            .mode(Mode::Delta(DeltaSchedule::RoundRobin))
            .delta_algorithm(DeltaPageRank::default())
            .require_convergence(true)
            .execute()
    });
    delta.map_err(|e| fail("PageRank delta", e))?;
    m.set("engine.pagerank_delta_ms", wall.as_secs_f64() * 1e3, 1);
    let (_, wall) = converge(
        &p.graph,
        &p.scan,
        Mode::Async,
        ConnectedComponents,
        "engine.cc_async",
        0,
    )
    .map_err(|e| fail("CC async", e))?;
    m.set("engine.cc_async_ms", wall.as_secs_f64() * 1e3, 1);

    // the streaming pipeline the mutator drives, stand-alone
    let mut warm = StreamingPipeline::over(raw)
        .algorithm(Sssp::new(inputs.hot))
        .build()
        .map_err(|e| fail("streaming SSSP bootstrap", e))?;
    let (mut apply, mut rounds) = (Samples::new(), 0usize);
    for (i, b) in batches.iter().take(4).enumerate() {
        let (r, wall) = timed("engine.stream_apply_batch", i as u64, || {
            warm.apply_batch(b)
        });
        rounds += r.map_err(|e| fail("streaming SSSP batch", e))?.stats.rounds;
        apply.push_ms(wall);
    }
    m.set("engine.stream_apply_ms", apply.median(), apply.len());
    m.set(
        "engine.stream_rounds_per_batch",
        rounds as f64 / apply.len() as f64,
        apply.len(),
    );
    m.set(
        "engine.stream_full_reorders",
        warm.full_reorders() as f64 - 1.0,
        1,
    );
    m.set(
        "engine.stream_repair_attempts",
        warm.partition_repair_attempts() as f64,
        1,
    );
    drop(warm);
    let mut restart = StreamingPipeline::over(raw)
        .algorithm(PageRank::default())
        .build()
        .map_err(|e| fail("streaming PageRank bootstrap", e))?;
    let mut apply = Samples::new();
    for (i, b) in batches.iter().take(2).enumerate() {
        let (r, wall) = timed("engine.stream_restart_batch", i as u64, || {
            restart.apply_batch(b)
        });
        r.map_err(|e| fail("streaming PageRank batch", e))?;
        apply.push_ms(wall);
    }
    m.set("engine.stream_restart_ms", apply.median(), apply.len());
    Ok(())
}

/// Microseconds per call of `f`, over enough calls to fill [`CELL`].
fn per_call_us(mut f: impl FnMut()) -> (f64, usize) {
    const CHUNK: usize = 256;
    let start = Instant::now();
    let mut calls = 0usize;
    while calls == 0 || start.elapsed() < CELL {
        for _ in 0..CHUNK {
            f();
        }
        calls += CHUNK;
    }
    (start.elapsed().as_secs_f64() * 1e6 / calls as f64, calls)
}

/// Calls `f(i)` for `i = 0, 1, …` until `budget` is spent — at least
/// `min` and at most `max` times — stopping at the first error.
fn repeat(
    budget: Duration,
    min: u64,
    max: u64,
    mut f: impl FnMut(u64) -> Result<(), String>,
) -> Result<(), String> {
    let start = Instant::now();
    let mut i = 0;
    while i < min || (i < max && start.elapsed() < budget) {
        f(i)?;
        i += 1;
    }
    Ok(())
}

/// In-process `execute_query` (no wire, no admission) from the sources
/// `next_source` yields: wall-clock of the call and the kernel's own
/// `runtime`, both in ms.
fn execute_in_process(
    service: &Service,
    mut next_source: impl FnMut() -> VertexId,
) -> Result<(Samples, Samples), String> {
    let (mut exec, mut kernel) = (Samples::new(), Samples::new());
    repeat(2 * CELL, 5, 200, |i| {
        let request = QueryRequest {
            alg: AlgSpec::Sssp,
            mode: ModeSpec::Async,
            sources: vec![next_source()],
            combine: false,
            max_epoch_lag: None,
        };
        let (outcome, wall) = timed("serve_core.execute_query", i, || {
            service.core.execute_query(request)
        });
        exec.push_ms(wall);
        kernel.push_ms(
            outcome
                .map_err(|e| format!("probe: in-process query: {e}"))?
                .runtime,
        );
        Ok(())
    })?;
    Ok((exec, kernel))
}

/// Probes of the `wire`, `transport`, `admission`, `epoch`,
/// `serve_core`, `wal` and `checkpoint` layers against the live service.
pub fn serve_layers(m: &mut Metrics, service: &Service, inputs: &Inputs) -> Result<(), String> {
    let _scope = trace::scope("probe.serve_layers", 0);
    let core = &service.core;
    let target = (inputs.raw.num_vertices() / 2) as VertexId;

    // wire: the workload's own frames
    let request = Request::Query {
        alg: AlgSpec::Sssp,
        mode: ModeSpec::Async,
        combine: true,
        max_epoch_lag: None,
        sources: vec![inputs.hot],
        targets: vec![target],
    };
    let outcome = core
        .execute_query(QueryRequest {
            alg: AlgSpec::Sssp,
            mode: ModeSpec::Async,
            sources: vec![inputs.hot],
            combine: false,
            max_epoch_lag: None,
        })
        .map_err(|e| format!("probe: in-process hot query: {e}"))?;
    let reply = Reply::Query(QueryReply {
        epoch: outcome.epoch.epoch,
        alg: outcome.alg,
        warm: outcome.warm,
        converged: outcome.converged,
        admitted: outcome.admitted as u32,
        rounds: outcome.rounds as u64,
        push_rounds: outcome.push_rounds as u64,
        state_bytes: outcome.state_memory_bytes as u64,
        runtime_micros: outcome.runtime.as_micros() as u64,
        effective_sources: outcome.effective_sources.clone(),
        values: vec![(target, outcome.states[target as usize])],
    });
    drop(outcome);
    let request_frame: Bytes = encode_request(&request);
    let reply_frame: Bytes = encode_reply(&reply);
    {
        let _scope = trace::scope("wire.codec", 0);
        let (us, n) = per_call_us(|| {
            black_box(encode_request(black_box(&request)));
        });
        m.set("wire.encode_request_us", us, n);
        let (us, n) = per_call_us(|| {
            black_box(decode_request(request_frame.clone()).is_ok());
        });
        m.set("wire.decode_request_us", us, n);
        let (us, n) = per_call_us(|| {
            black_box(encode_reply(black_box(&reply)));
        });
        m.set("wire.encode_reply_us", us, n);
        let (us, n) = per_call_us(|| {
            black_box(decode_reply(reply_frame.clone()).is_ok());
        });
        m.set("wire.decode_reply_us", us, n);
    }

    // epoch
    {
        let _scope = trace::scope("epoch.pin", 0);
        let (us, n) = per_call_us(|| {
            black_box(core.pin_epoch());
        });
        m.set("epoch.pin_ns", us * 1e3, n);
    }

    // serve_core: the query path without the wire
    let (exec_hot, kernel_hot) = execute_in_process(service, || inputs.hot)?;
    let mut rng = inputs.rng(stream::PROBE_COLD);
    let (exec_cold, kernel_cold) = execute_in_process(service, || inputs.pool_vertex(&mut rng))?;
    m.set("serve_core.exec_hot_ms", exec_hot.median(), exec_hot.len());
    m.set(
        "serve_core.kernel_hot_ms",
        kernel_hot.median(),
        kernel_hot.len(),
    );
    m.set(
        "serve_core.overhead_hot_ms",
        exec_hot.median() - kernel_hot.median(),
        exec_hot.len(),
    );
    m.set(
        "serve_core.exec_cold_ms",
        exec_cold.median(),
        exec_cold.len(),
    );
    m.set(
        "serve_core.kernel_cold_ms",
        kernel_cold.median(),
        kernel_cold.len(),
    );

    // transport + admission: one client, the hot query, over TCP
    let mut client =
        ServeClient::connect(service.addr).map_err(|e| format!("probe: connect: {e}"))?;
    let mut rtt = Samples::new();
    repeat(CELL, 20, 5000, |i| {
        let (r, wall) = timed("transport.stats", i, || client.stats());
        r.map_err(|e| format!("probe: stats round trip: {e}"))?;
        rtt.push(wall.as_secs_f64() * 1e6);
        Ok(())
    })?;
    m.set("transport.stats_rtt_us", rtt.median(), rtt.len());
    let mut tcp = [Samples::new(), Samples::new()]; // combine off, on
    repeat(4 * CELL, 5, 200, |i| {
        for (combine, samples) in [false, true].into_iter().zip(tcp.iter_mut()) {
            let (r, wall) = timed("transport.query", i, || {
                client.query(
                    AlgSpec::Sssp,
                    ModeSpec::Async,
                    combine,
                    &[inputs.hot],
                    &[target],
                )
            });
            r.map_err(|e| format!("probe: TCP hot query: {e}"))?;
            samples.push_ms(wall);
        }
        Ok(())
    })?;
    m.set(
        "transport.query_overhead_us",
        (tcp[0].median() - exec_hot.median()) * 1e3,
        tcp[0].len(),
    );
    m.set(
        "admission.wait_ms",
        tcp[1].median() - tcp[0].median(),
        tcp[1].len(),
    );

    // wal: a scratch log with the shipped sync policy
    let scratch = guard::scratch_dir("probe").map_err(|e| format!("probe: scratch dir: {e}"))?;
    let mut wal = WalWriter::open(&scratch.join("probe.wal"), SyncPolicy::EveryBatch)
        .map_err(|e| format!("probe: open scratch WAL: {e}"))?;
    let mut rng = inputs.rng(stream::PROBE_WAL);
    let (mut append, mut bytes) = (Samples::new(), 0u64);
    repeat(CELL, 5, 200, |i| {
        let batch = inputs::next_batch(&mut rng, inputs);
        let (r, wall) = timed("wal.append", i + 1, || wal.append(i + 1, &batch));
        bytes += r.map_err(|e| format!("probe: WAL append: {e}"))?;
        append.push_ms(wall);
        Ok(())
    })?;
    m.set("wal.append_ms", append.median(), append.len());
    m.set(
        "wal.bytes_per_update",
        bytes as f64 / (append.len() * inputs::UPDATES_PER_BATCH) as f64,
        append.len(),
    );
    drop(wal);

    // checkpoint: the service's own latest checkpoint, rewritten and
    // reread under the scratch directory
    let ck = core
        .fetch_checkpoint()
        .map_err(|e| format!("probe: fetch_checkpoint: {e}"))?;
    let path = scratch.join("probe.ckpt");
    let mut size = 0u64;
    let mut err = None;
    cell(
        m,
        "checkpoint.write_ms",
        "checkpoint.write",
        || match write_checkpoint(&path, &ck) {
            Ok(n) => size = n,
            Err(e) => err = Some(format!("probe: write_checkpoint: {e}")),
        },
    );
    cell(
        m,
        "checkpoint.read_ms",
        "checkpoint.read",
        || match read_checkpoint(&path) {
            Ok(Some(_)) => {}
            Ok(None) => err = Some("probe: read_checkpoint found no file".into()),
            Err(e) => err = Some(format!("probe: read_checkpoint: {e}")),
        },
    );
    if let Some(e) = err {
        return Err(e);
    }
    m.set("checkpoint.bytes", size as f64, 1);
    Ok(())
}

/// Replication in lock-step, counted not asserted: bootstrap a follower
/// in-process, then rounds of {one batch into the primary, wait for it
/// to settle, one `puller.step()`}. Reports how the follower fared —
/// including how often the primary called it divergent — and whether
/// the two ended on the same fingerprints (`replication.final_match`).
/// Only transport or protocol errors fail the run.
pub fn replication(m: &mut Metrics, service: &Service, inputs: &Inputs) -> Result<(), String> {
    guard::stage("probe: replication", Duration::from_secs(90));
    let _scope = trace::scope("probe.replication", 0);
    let primary = &service.core;
    let before = primary.stats_snapshot();
    let follower_config = ServeConfig {
        warm: service.config.warm.clone(),
        durability: None,
        ..ServeConfig::default()
    };
    let (boot, wall) = timed("replication.bootstrap_follower", 0, || {
        bootstrap_follower(service.addr, follower_config, ReplicationConfig::default())
    });
    let (follower, mut puller) = boot.map_err(|e| format!("probe: bootstrap_follower: {e}"))?;
    m.set("replication.bootstrap_ms", wall.as_secs_f64() * 1e3, 1);

    let mut rng = inputs.rng(stream::PROBE_REPLICATION);
    let (mut step_ms, mut records, mut resynced) = (Samples::new(), 0usize, 0usize);
    let start = Instant::now();
    let mut outcome = StepOutcome::Idle;
    for round in 0..REPLICATION_ROUNDS {
        if round > 0 && start.elapsed() > REPLICATION_BUDGET {
            break;
        }
        primary
            .enqueue_updates(inputs::next_batch(&mut rng, inputs))
            .map_err(|e| format!("probe: replication round {round}: enqueue: {e}"))?;
        drain(primary, Duration::from_secs(25))?;
        let (stepped, wall) = timed("replication.step", round as u64, || puller.step());
        step_ms.push_ms(wall);
        outcome = stepped.map_err(|e| format!("probe: replication round {round}: step: {e}"))?;
        match outcome {
            StepOutcome::Applied(n) => records += n,
            StepOutcome::Resynced => resynced += 1,
            _ => {}
        }
    }
    // A follower that ended on a re-sync gets one step to pull the tail
    // the checkpoint did not cover.
    if outcome == StepOutcome::Resynced {
        if let StepOutcome::Applied(n) = puller
            .step()
            .map_err(|e| format!("probe: replication catch-up: {e}"))?
        {
            records += n;
        }
    }
    let last = primary.probe(None);
    let theirs = follower.probe(Some(last.seq));
    let after = primary.stats_snapshot();
    follower.shutdown();

    m.set("replication.step_ms", step_ms.median(), step_ms.len());
    m.set(
        "replication.records_per_step",
        records as f64 / step_ms.len() as f64,
        step_ms.len(),
    );
    m.set(
        "replication.divergences",
        (after.repl_divergences - before.repl_divergences) as f64,
        step_ms.len(),
    );
    m.set("replication.resyncs", resynced as f64, step_ms.len());
    m.set(
        "replication.final_match",
        f64::from(u8::from(
            theirs.known && theirs.fingerprints == last.fingerprints,
        )),
        1,
    );
    Ok(())
}

/// The block-parallel engine on the last repetition's graph, checked
/// against that repetition's sequential states: bit-equal for SSSP/BFS
/// (max-norm fixpoints do not depend on the block count), within 1e-4
/// for PageRank, whose racing accumulates are the one tolerance the
/// engine documents. `sequential_s` is the run's dense + frontier time.
pub fn par_cells(
    m: &mut Metrics,
    inputs: &Inputs,
    p: &Prepared,
    got: &CellStates,
    sequential_s: f64,
) -> Result<(), String> {
    let _scope = trace::scope("probe.par_cells", 0);
    let mode = Mode::Parallel(PAR);
    let fail = |what: &str, e: gograph_engine::EngineError| format!("probe: parallel {what}: {e}");
    let (pr, wall) = converge(
        &p.graph,
        &p.scan,
        mode,
        PageRank::default(),
        "engine.pagerank_par",
        0,
    )
    .map_err(|e| fail("PageRank", e))?;
    let diff = max_abs_diff(&pr.final_states, &got.pagerank);
    if diff.is_nan() || diff > 1e-4 {
        return Err(format!(
            "check: parallel PageRank differs from sequential by {diff:e} (> 1e-4)"
        ));
    }
    m.set("engine.pagerank_par2_ms", wall.as_secs_f64() * 1e3, 1);
    let mut total = wall;
    let (mut sssp, mut bfs) = (Samples::new(), Samples::new());
    for (i, &s) in relabeled_sources(inputs, &p.po).iter().enumerate() {
        let (r, wall) = converge(
            &p.graph,
            &p.scan,
            mode,
            Sssp::new(s),
            "engine.sssp_par",
            i as u64,
        )
        .map_err(|e| fail("SSSP", e))?;
        sssp.push_ms(wall);
        total += wall;
        let (b, wall) = converge(
            &p.graph,
            &p.scan,
            mode,
            Bfs::new(s),
            "engine.bfs_par",
            i as u64,
        )
        .map_err(|e| fail("BFS", e))?;
        bfs.push_ms(wall);
        total += wall;
        if !bit_equal(&r.final_states, &got.frontier[i][0])
            || !bit_equal(&b.final_states, &got.frontier[i][1])
        {
            return Err(format!(
                "check: parallel SSSP/BFS from relabeled source {s} is not bit-equal to sequential"
            ));
        }
    }
    m.set("engine.sssp_par2_ms", sssp.median(), sssp.len());
    m.set("engine.bfs_par2_ms", bfs.median(), bfs.len());
    m.set("engine.par2_speedup", sequential_s / total.as_secs_f64(), 1);
    Ok(())
}
