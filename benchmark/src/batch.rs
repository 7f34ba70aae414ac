//! The batch path: repetitions of reorder → relabel (→ compress) →
//! converge on the workload's graph, single caller, plus the output
//! checks that compare the reordered runs against the default order.
//!
//! One repetition measures each end-to-end cell once, in a fixed order,
//! and repetitions are spread over the whole run (see `main.rs`), so
//! slow drift of the machine hits every cell alike; the reported number
//! is the median over repetitions.

use crate::inputs::Inputs;
use crate::stats::Samples;
use crate::trace::{self, timed};
use gograph_core::{GoGraph, PartitionedOrder};
use gograph_engine::{
    Bfs, EngineError, IterativeAlgorithm, Mode, PageRank, Pipeline, RunStats, Sssp,
};
use gograph_graph::{CsrGraph, Permutation, VertexId};
use std::time::{Duration, Instant};

/// Worker count of every parallel cell: the machine has two cores.
pub const PAR: usize = 2;

/// How far two converged PageRank runs under different orders may sit
/// apart at any vertex. A run stops when one round moved the states by
/// less than ε = 1e-6 in total; with damping d = 0.85 it is then within
/// ε·d/(1−d) ≈ 5.7e-6 (summed over all vertices) of the fixpoint, so two
/// runs differ by at most twice that anywhere. The issue's 1e-6 is the
/// stopping threshold, not a bound on the distance: seed 29 of the
/// 40 000-vertex graph reaches 1.13e-6.
pub const PAGERANK_TOLERANCE: f64 = 1.2e-5;

/// A graph made engine-ready: reordered, relabeled so the processing
/// order is the sequential scan, optionally compressed.
pub struct Prepared {
    pub po: PartitionedOrder,
    /// What the engine runs on (compressed when the workload says so).
    pub graph: CsrGraph,
    /// The relabeled graph on flat storage (`graph` itself when the
    /// workload is flat).
    pub flat: CsrGraph,
    pub scan: Permutation,
}

/// Wall-clock of the three stages of one [`prepare`].
pub struct PrepareTimes {
    pub order: Duration,
    pub relabel: Duration,
    pub compress: Duration,
}

impl PrepareTimes {
    pub fn total(&self) -> Duration {
        self.order + self.relabel + self.compress
    }
}

/// Shard boundaries for compressed storage: the new id of each
/// partition's first member. Partitions occupy contiguous runs of the
/// order (hubs interleave, and simply stay with the run they fell in).
fn shard_cuts(po: &PartitionedOrder) -> Vec<VertexId> {
    let mut cuts: Vec<VertexId> = (0..po.num_parts() as u32)
        .filter_map(|p| po.members(p).first().map(|&v| po.order().position(v)))
        .filter(|&c| c != 0)
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

/// Raw CSR → engine-ready graph, on the calling thread.
pub fn prepare(raw: &CsrGraph, compressed: bool, op: u64) -> (Prepared, PrepareTimes) {
    let (po, order) = timed("core.run_partitioned", op, || {
        GoGraph::default().run_partitioned(raw)
    });
    let (flat, relabel) = timed("graph.relabeled", op, || raw.relabeled(po.order()));
    let (graph, compress) = if compressed {
        let cuts = shard_cuts(&po);
        timed("graph.compress_with_shards", op, || {
            flat.compress_with_shards(&cuts)
        })
    } else {
        (flat.snapshot(), Duration::ZERO)
    };
    let scan = Permutation::identity(raw.num_vertices());
    (
        Prepared {
            po,
            graph,
            flat,
            scan,
        },
        PrepareTimes {
            order,
            relabel,
            compress,
        },
    )
}

/// One converged engine run through the public `Pipeline`.
pub fn converge(
    g: &CsrGraph,
    order: &Permutation,
    mode: Mode,
    alg: impl IterativeAlgorithm + 'static,
    span: &'static str,
    op: u64,
) -> Result<(RunStats, Duration), EngineError> {
    let (result, wall) = timed(span, op, || {
        Pipeline::on(g)
            .order_ref(order)
            .mode(mode)
            .algorithm(alg)
            .require_convergence(true)
            .execute()
    });
    Ok((result?.stats, wall))
}

/// Everything the batch repetitions measured. Timings in the unit
/// their metric is reported in.
#[derive(Default)]
pub struct BatchOut {
    pub reps: usize,
    pub attempted: u64,
    /// Wall-clock spent inside repetitions so far.
    pub spent: Duration,
    // End-to-end cells, seconds.
    pub reorder_s: Samples,
    pub converge_dense_s: Samples,
    pub converge_frontier_s: Samples,
    // Layer cells, milliseconds (counts where named so).
    pub order_ms: Samples,
    pub relabel_ms: Samples,
    pub compress_ms: Samples,
    pub pagerank_ms: Samples,
    pub pagerank_rounds: usize,
    pub sssp_ms: Samples,
    pub bfs_ms: Samples,
    pub frontier_rounds: usize,
    pub frontier_push_rounds: usize,
    /// Traced run only: PageRank wall-clock of each recorded repetition
    /// over that of the unrecorded one right after it, minus one — the
    /// samples behind `trace.overhead_share_dense`. Neighbours, because
    /// the machine's speed drifts more between distant repetitions than
    /// the recorder costs.
    pub dense_overhead: Samples,
    recorded_dense: Option<Duration>,
    /// The last repetition's graph and final states, kept for [`check`]
    /// and the layer probes: the checked outputs are the timed runs' own.
    last: Option<(Prepared, CellStates)>,
}

/// Final states of one repetition's cells.
pub struct CellStates {
    pub pagerank: Vec<f64>,
    /// Per source: SSSP then BFS.
    pub frontier: Vec<[Vec<f64>; 2]>,
}

impl BatchOut {
    /// The last repetition's engine-ready graph and final states.
    pub fn last(&self) -> (&Prepared, &CellStates) {
        let (p, s) = self.last.as_ref().expect("at least one repetition ran");
        (p, s)
    }

    /// Frees the kept graph and states (the serve phase keeps running
    /// after the last repetition; no need to hold ~100 MB through it).
    pub fn release(&mut self) {
        self.last = None;
    }
}

/// Positions of the seeded sources in the relabeled graph.
pub fn relabeled_sources(inputs: &Inputs, po: &PartitionedOrder) -> Vec<VertexId> {
    inputs
        .batch_sources
        .iter()
        .map(|&v| po.order().position(v))
        .collect()
}

/// One repetition: raw CSR → engine-ready graph on one thread, then
/// PageRank (`Mode::Async`) and SSSP + BFS from every seeded source
/// (`Mode::Worklist`, `DirectionPolicy::Auto`) on it.
pub fn rep(
    out: &mut BatchOut,
    inputs: &Inputs,
    compressed: bool,
    tracing: bool,
) -> Result<(), String> {
    let started = Instant::now();
    let op = out.reps as u64;
    // In the traced run every other repetition records, so the two
    // halves give the recorder's own cost on identical work.
    let record = tracing && out.reps.is_multiple_of(2);
    trace::set_enabled(record);
    let rep = trace::scope("batch.rep", op);
    let fail = |what: &str, e: EngineError| format!("{what} failed (rep {op}): {e}");

    out.last = None; // free the previous graph before building the next
    let (p, t) = prepare(&inputs.raw, compressed, op);
    out.reorder_s.push_s(t.total());
    out.order_ms.push_ms(t.order);
    out.relabel_ms.push_ms(t.relabel);
    out.compress_ms.push_ms(t.compress);

    let (pr, wall) = converge(
        &p.graph,
        &p.scan,
        Mode::Async,
        PageRank::default(),
        "engine.pagerank_async",
        op,
    )
    .map_err(|e| fail("PageRank async", e))?;
    out.converge_dense_s.push_s(wall);
    out.pagerank_ms.push_ms(wall);
    out.pagerank_rounds = pr.rounds;
    if record {
        out.recorded_dense = Some(wall);
    } else if let Some(recorded) = out.recorded_dense.take() {
        out.dense_overhead
            .push(recorded.as_secs_f64() / wall.as_secs_f64() - 1.0);
    }

    let sources = relabeled_sources(inputs, &p.po);
    let mut states = CellStates {
        pagerank: pr.final_states,
        frontier: Vec::with_capacity(sources.len()),
    };
    let mut frontier = Duration::ZERO;
    (out.frontier_rounds, out.frontier_push_rounds) = (0, 0);
    for &s in &sources {
        let (r, wall) = converge(
            &p.graph,
            &p.scan,
            Mode::Worklist,
            Sssp::new(s),
            "engine.sssp_worklist",
            op,
        )
        .map_err(|e| fail("SSSP worklist", e))?;
        out.sssp_ms.push_ms(wall);
        frontier += wall;
        let (b, wall) = converge(
            &p.graph,
            &p.scan,
            Mode::Worklist,
            Bfs::new(s),
            "engine.bfs_worklist",
            op,
        )
        .map_err(|e| fail("BFS worklist", e))?;
        out.bfs_ms.push_ms(wall);
        frontier += wall;
        out.frontier_rounds += r.rounds + b.rounds;
        out.frontier_push_rounds += r.push_rounds + b.push_rounds;
        states.frontier.push([r.final_states, b.final_states]);
    }
    out.converge_frontier_s.push_s(frontier);

    out.attempted += 2 + 2 * sources.len() as u64;
    out.reps += 1;
    out.last = Some((p, states));
    drop(rep);
    trace::set_enabled(tracing);
    out.spent += started.elapsed();
    Ok(())
}

/// What the reference runs of [`check`] measured on the side.
pub struct Reference {
    pub pagerank_default_ms: f64,
    pub pagerank_default_rounds: usize,
    /// `run_partitioned` with [`PAR`] workers, once.
    pub order_par_ms: f64,
}

pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| if x == y { 0.0 } else { (x - y).abs() })
        .fold(0.0, f64::max)
}

pub fn bit_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// States of a run on the relabeled graph, mapped back to original ids.
fn in_original_ids(states: &[f64], order: &Permutation) -> Vec<f64> {
    (0..states.len() as VertexId)
        .map(|v| states[order.position(v) as usize])
        .collect()
}

/// The batch repetitions' output checks, on the last repetition's own
/// final states:
///
/// - the order built with [`PAR`] workers equals the sequential one;
/// - reordered vs default order on the raw graph, in original ids:
///   bit-equal for SSSP/BFS, within [`PAGERANK_TOLERANCE`] for PageRank;
/// - compressed vs flat storage: bit-equal (PageRank too — same order,
///   same sequential kernel).
pub fn check(inputs: &Inputs, out: &BatchOut, compressed: bool) -> Result<Reference, String> {
    let _scope = trace::scope("batch.check", 0);
    let raw = &inputs.raw;
    let identity = Permutation::identity(raw.num_vertices());
    let (p, got) = out.last();
    let order = p.po.order();
    let fail = |what: &str, e: EngineError| format!("check: {what} failed: {e}");

    let (par, order_par) = timed("core.run_partitioned_par", 0, || {
        GoGraph::default().parallelism(PAR).run_partitioned(raw)
    });
    if par.order() != order {
        return Err(format!(
            "check: the order built with {PAR} workers differs from the sequential one"
        ));
    }
    drop(par);

    let (reference, wall) = converge(
        raw,
        &identity,
        Mode::Async,
        PageRank::default(),
        "engine.pagerank_default",
        0,
    )
    .map_err(|e| fail("default-order PageRank", e))?;
    let diff = max_abs_diff(
        &in_original_ids(&got.pagerank, order),
        &reference.final_states,
    );
    if diff.is_nan() || diff > PAGERANK_TOLERANCE {
        return Err(format!(
            "check: GoGraph-order PageRank differs from the default-order run by {diff:e} \
             (> {PAGERANK_TOLERANCE:e})"
        ));
    }
    if compressed {
        let (flat, _) = converge(
            &p.flat,
            &p.scan,
            Mode::Async,
            PageRank::default(),
            "engine.pagerank_flat",
            0,
        )
        .map_err(|e| fail("flat PageRank", e))?;
        if !bit_equal(&flat.final_states, &got.pagerank) {
            return Err("check: compressed PageRank is not bit-identical to flat".into());
        }
    }

    for (i, &source) in inputs.batch_sources.iter().enumerate() {
        let s = order.position(source);
        for (a, alg) in ["sssp", "bfs"].into_iter().enumerate() {
            let run = |g: &CsrGraph, o: &Permutation, src: VertexId, span: &'static str| {
                if a == 0 {
                    converge(g, o, Mode::Worklist, Sssp::new(src), span, i as u64)
                } else {
                    converge(g, o, Mode::Worklist, Bfs::new(src), span, i as u64)
                }
                .map(|(stats, _)| stats.final_states)
                .map_err(|e| fail(alg, e))
            };
            let reference = run(raw, &identity, source, "engine.frontier_default")?;
            if !bit_equal(&in_original_ids(&got.frontier[i][a], order), &reference) {
                return Err(format!(
                    "check: GoGraph-order {alg} from source {source} is not bit-equal to the default-order run"
                ));
            }
            if compressed
                && !bit_equal(
                    &run(&p.flat, &p.scan, s, "engine.frontier_flat")?,
                    &got.frontier[i][a],
                )
            {
                return Err(format!(
                    "check: compressed {alg} from source {source} is not bit-identical to flat"
                ));
            }
        }
    }
    Ok(Reference {
        pagerank_default_ms: wall.as_secs_f64() * 1e3,
        pagerank_default_rounds: reference.rounds,
        order_par_ms: order_par.as_secs_f64() * 1e3,
    })
}
