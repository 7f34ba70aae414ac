//! `direction_report` — recorded performance of direction-optimizing
//! execution, sequential (PR 5) and block-parallel (PR 8).
//!
//! Runs BFS and SSSP through the worklist engine and PageRank through
//! the asynchronous engine on a fixed-seed RMAT graph relabeled by the
//! GoGraph order, under four sequential kernel variants:
//!
//! - `pre_pr` — faithful reproductions of the **pre-PR-5** kernels (the
//!   monomorphized PR-2 loops: full-sweep async, sort-and-dedup
//!   worklist), kept here so the engine carries no dead legacy path;
//! - `pull` — the direction-optimized kernels pinned to
//!   [`DirectionPolicy::PullOnly`];
//! - `push` — pinned to `PushOnly` (frontier algorithms only);
//! - `auto` — the Beamer-style per-round choice;
//!
//! and the same `pull`/`push`/`auto` variants through the block-parallel
//! engine at `--threads N` blocks (default 2). The parallel BFS/SSSP
//! cells are worklist-style warm runs: initial states seeded at the
//! source, the warm frontier set to the source's out-neighbors, so the
//! engine traverses outward instead of full-scanning — the workload
//! where direction choice matters.
//!
//! Correctness gates (the binary exits non-zero otherwise):
//! - every variant of an algorithm lands on the same final states —
//!   bit-identical for the max-norm algorithms, within the
//!   racing-accumulate tolerance for parallel PageRank;
//! - every parallel max-norm cell is re-run at block counts {1, 2, N}
//!   and must produce **bit-identical** final states across all three —
//!   the cross-thread determinism pin.
//!
//! Usage: `direction_report [OUT.json] [--threads N]` (default
//! `BENCH_PR8.json`, 2 threads); `GOGRAPH_SCALE=tiny` shrinks the graph.

use gograph_bench::datasets::Scale;
use gograph_core::GoGraph;
use gograph_engine::convergence::DeltaAccumulator;
use gograph_engine::{
    Bfs, DirectionPolicy, GatherContext, IterativeAlgorithm, Mode, PageRank, Pipeline, RunConfig,
    RunStats, Sssp, WarmStart,
};
use gograph_graph::generators::rmat::{rmat, RmatConfig};
use gograph_graph::generators::with_random_weights;
use gograph_graph::{CsrGraph, Frontier, Permutation, VertexId};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Wall-clock repetitions per cell, interleaved round-robin; the
/// minimum is reported (a noisy system phase penalizes all cells
/// instead of biasing one).
const REPS: usize = 5;

/// The pre-PR-5 asynchronous kernel: monomorphized full in-place sweep
/// every round, no frontier, no direction choice — exactly the PR-2
/// hot loop the `pull`/`auto` variants replaced.
fn pre_pr_async<A: IterativeAlgorithm>(g: &CsrGraph, alg: &A, cfg: &RunConfig) -> RunStats {
    let n = g.num_vertices();
    let ctx = GatherContext::new(g);
    let mut states: Vec<f64> = (0..n as u32).map(|v| alg.init(g, v)).collect();
    let eps = alg.epsilon();
    let start = Instant::now();
    let mut rounds = 0usize;
    let mut converged = false;
    while rounds < cfg.max_rounds {
        rounds += 1;
        let mut acc_delta = DeltaAccumulator::new(alg.norm());
        for v in 0..n as u32 {
            let acc = ctx.gather(alg, v, &states);
            let old = states[v as usize];
            let new = alg.apply(g, v, old, acc);
            acc_delta.record(old, new);
            states[v as usize] = new;
        }
        if acc_delta.value() <= eps {
            converged = true;
            break;
        }
    }
    RunStats {
        rounds,
        runtime: start.elapsed(),
        converged,
        final_states: states,
        trace: Vec::new(),
        state_memory_bytes: n * std::mem::size_of::<f64>(),
        evaluations: None,
        push_rounds: 0,
    }
}

/// The pre-PR-5 worklist kernel: active flags, a frontier vector
/// re-sorted by order position and deduplicated **every round** — the
/// `O(|F| log |F|)` loop the hybrid-bitmap frontier replaced.
fn pre_pr_worklist<A: IterativeAlgorithm>(
    g: &CsrGraph,
    alg: &A,
    order: &Permutation,
    cfg: &RunConfig,
) -> RunStats {
    use gograph_engine::convergence::state_delta;
    let n = g.num_vertices();
    let ctx = GatherContext::new(g);
    let mut states: Vec<f64> = (0..n as u32).map(|v| alg.init(g, v)).collect();
    let eps = alg.epsilon();
    let start = Instant::now();
    let mut active = vec![true; n];
    let mut frontier: Vec<VertexId> = order.order().to_vec();
    let mut evaluations = 0usize;
    let mut rounds = 0usize;
    let mut converged = false;
    while rounds < cfg.max_rounds {
        rounds += 1;
        let mut next: Vec<VertexId> = Vec::new();
        let mut round_changed = false;
        for &v in &frontier {
            if !active[v as usize] {
                continue;
            }
            active[v as usize] = false;
            evaluations += 1;
            let acc = ctx.gather(alg, v, &states);
            let old = states[v as usize];
            let new = alg.apply(g, v, old, acc);
            states[v as usize] = new;
            if state_delta(old, new) > eps {
                round_changed = true;
                g.for_each_out_neighbor(v, |w| {
                    if !active[w as usize] {
                        active[w as usize] = true;
                        next.push(w);
                    }
                });
            }
        }
        if !round_changed {
            converged = true;
            break;
        }
        next.sort_by_key(|&v| order.position(v));
        next.dedup();
        frontier = next;
        if frontier.is_empty() {
            converged = true;
            break;
        }
    }
    RunStats {
        rounds,
        runtime: start.elapsed(),
        converged,
        final_states: states,
        trace: Vec::new(),
        state_memory_bytes: n * std::mem::size_of::<f64>() + n,
        evaluations: Some(evaluations),
        push_rounds: 0,
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Engine {
    Worklist,
    Async,
    Parallel,
}

impl Engine {
    fn name(self) -> &'static str {
        match self {
            Engine::Worklist => "worklist",
            Engine::Async => "async",
            Engine::Parallel => "parallel",
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Variant {
    PrePr,
    Pull,
    Push,
    Auto,
}

impl Variant {
    fn name(self) -> &'static str {
        match self {
            Variant::PrePr => "pre_pr",
            Variant::Pull => "pull",
            Variant::Push => "push",
            Variant::Auto => "auto",
        }
    }

    fn policy(self) -> DirectionPolicy {
        match self {
            Variant::Pull => DirectionPolicy::PullOnly,
            Variant::Push => DirectionPolicy::PushOnly,
            _ => DirectionPolicy::Auto,
        }
    }
}

struct Cell {
    algorithm: &'static str,
    engine: Engine,
    variant: Variant,
    threads: usize,
    rounds: usize,
    push_rounds: usize,
    runtime: Duration,
}

/// One engine run on the already-relabeled graph (identity order),
/// cold unless `warm` is given.
fn engine_run(
    g: &CsrGraph,
    alg: impl IterativeAlgorithm + 'static,
    mode: Mode,
    cfg: &RunConfig,
    warm: Option<WarmStart>,
) -> RunStats {
    let mut pipeline = Pipeline::on(g).mode(mode).config(*cfg).algorithm(alg);
    if let Some(warm) = warm {
        pipeline = pipeline.warm_start(warm);
    }
    pipeline.execute().expect("valid configuration").stats
}

/// Worklist-style seed for the parallel engine: init states plus the
/// source's out-neighbors as the warm frontier. Seeding the neighbors —
/// not the source itself — matters: the warm frontier is a set of pull
/// *targets*, and re-gathering the source alone reproduces its init
/// value, which would read as instant convergence.
fn parallel_traversal(
    g: &CsrGraph,
    alg: impl IterativeAlgorithm + 'static,
    blocks: usize,
    cfg: &RunConfig,
    source: VertexId,
) -> RunStats {
    let init: Vec<f64> = (0..g.num_vertices() as u32)
        .map(|v| alg.init(g, v))
        .collect();
    let mut source_out = Vec::with_capacity(g.out_degree(source));
    g.for_each_out_neighbor(source, |w| source_out.push(w));
    let seed = Frontier::from_members(g.num_vertices(), source_out);
    let warm = WarmStart::from_states(init).with_frontier_set(seed);
    engine_run(g, alg, Mode::Parallel(blocks), cfg, Some(warm))
}

fn run_once(
    g: &CsrGraph,
    order: &Permutation,
    engine: Engine,
    variant: Variant,
    alg_name: &str,
    source: VertexId,
    blocks: usize,
) -> RunStats {
    let cfg = RunConfig {
        direction: variant.policy(),
        ..Default::default()
    };
    match (engine, variant, alg_name) {
        (Engine::Async, Variant::PrePr, "pagerank") => pre_pr_async(g, &PageRank::default(), &cfg),
        (Engine::Async, _, "pagerank") => {
            engine_run(g, PageRank::default(), Mode::Async, &cfg, None)
        }
        (Engine::Worklist, Variant::PrePr, "bfs") => {
            pre_pr_worklist(g, &Bfs::new(source), order, &cfg)
        }
        (Engine::Worklist, _, "bfs") => engine_run(g, Bfs::new(source), Mode::Worklist, &cfg, None),
        (Engine::Worklist, Variant::PrePr, "sssp") => {
            pre_pr_worklist(g, &Sssp::new(source), order, &cfg)
        }
        (Engine::Worklist, _, "sssp") => {
            engine_run(g, Sssp::new(source), Mode::Worklist, &cfg, None)
        }
        (Engine::Parallel, _, "pagerank") => {
            engine_run(g, PageRank::default(), Mode::Parallel(blocks), &cfg, None)
        }
        (Engine::Parallel, _, "bfs") => {
            parallel_traversal(g, Bfs::new(source), blocks, &cfg, source)
        }
        (Engine::Parallel, _, "sssp") => {
            parallel_traversal(g, Sssp::new(source), blocks, &cfg, source)
        }
        _ => unreachable!("unknown cell"),
    }
}

fn main() {
    let mut out_path = "BENCH_PR8.json".to_string();
    let mut threads = 2usize;
    let mut storage = "flat".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--threads" {
            threads = args
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--threads needs a positive integer");
            assert!(threads >= 1, "--threads needs a positive integer");
        } else if arg == "--storage" {
            storage = args.next().expect("--storage needs flat|compressed");
            assert!(
                storage == "flat" || storage == "compressed",
                "--storage needs flat|compressed"
            );
        } else {
            out_path = arg;
        }
    }
    let scale = Scale::from_env();
    let (log2_n, edge_factor) = match scale {
        Scale::Tiny => (12, 8),
        Scale::Standard => (18, 8),
    };
    let seed = 42;
    let base = with_random_weights(
        &rmat(RmatConfig::graph500(log2_n, edge_factor, seed)),
        1.0,
        8.0,
        seed,
    );
    // Deployment configuration: GoGraph order applied as a physical
    // relabeling, engines then scan 0..n sequentially.
    let order = GoGraph::default().run(&base);
    let flat = base.relabeled(&order);
    // `--storage compressed` runs every cell on the delta-varint
    // backend; the flat graph stays around as the equality anchor.
    let g = if storage == "compressed" {
        flat.compress()
    } else {
        flat.clone()
    };
    let id = Permutation::identity(g.num_vertices());
    let source = order.new_id(0);
    eprintln!(
        "direction_report: rmat scale={log2_n} |V|={} |E|={} (seed {seed}), \
         gograph-relabeled, {threads} threads, {storage} storage",
        g.num_vertices(),
        g.num_edges()
    );

    let seq = 0usize; // sequential cells carry threads = 0 in the table
    let specs: Vec<(&'static str, Engine, Variant, usize)> = vec![
        ("bfs", Engine::Worklist, Variant::PrePr, seq),
        ("bfs", Engine::Worklist, Variant::Pull, seq),
        ("bfs", Engine::Worklist, Variant::Push, seq),
        ("bfs", Engine::Worklist, Variant::Auto, seq),
        ("bfs", Engine::Parallel, Variant::Pull, threads),
        ("bfs", Engine::Parallel, Variant::Push, threads),
        ("bfs", Engine::Parallel, Variant::Auto, threads),
        ("sssp", Engine::Worklist, Variant::PrePr, seq),
        ("sssp", Engine::Worklist, Variant::Pull, seq),
        ("sssp", Engine::Worklist, Variant::Push, seq),
        ("sssp", Engine::Worklist, Variant::Auto, seq),
        ("sssp", Engine::Parallel, Variant::Pull, threads),
        ("sssp", Engine::Parallel, Variant::Push, threads),
        ("sssp", Engine::Parallel, Variant::Auto, threads),
        ("pagerank", Engine::Async, Variant::PrePr, seq),
        ("pagerank", Engine::Async, Variant::Pull, seq),
        ("pagerank", Engine::Async, Variant::Auto, seq),
        ("pagerank", Engine::Parallel, Variant::Pull, threads),
        ("pagerank", Engine::Parallel, Variant::Auto, threads),
    ];

    // Interleaved repetitions; rep 0 is warmup plus the correctness
    // gates: state agreement across variants against the per-algorithm
    // anchor cell, and for every parallel max-norm cell the bit-identity
    // of final states across block counts {1, 2, threads}.
    let mut samples: Vec<Vec<RunStats>> = (0..specs.len()).map(|_| Vec::new()).collect();
    let mut reference: Vec<Option<Vec<f64>>> = vec![None; specs.len()];
    for rep in 0..REPS + 1 {
        for (i, &(alg_name, engine, variant, blocks)) in specs.iter().enumerate() {
            let stats = run_once(&g, &id, engine, variant, alg_name, source, blocks.max(1));
            assert!(
                stats.converged,
                "direction_report: {alg_name}/{}/{} did not converge",
                engine.name(),
                variant.name()
            );
            if rep == 0 {
                let anchor = specs
                    .iter()
                    .position(|&(a, _, _, _)| a == alg_name)
                    .expect("anchor cell");
                let exact = alg_name != "pagerank" || engine != Engine::Parallel;
                match &reference[anchor] {
                    None => {
                        if storage == "compressed" {
                            // Cross-storage gate: the anchor cell (a
                            // sequential kernel) must land bit-identical
                            // on flat storage.
                            let flat_stats = run_once(
                                &flat,
                                &id,
                                engine,
                                variant,
                                alg_name,
                                source,
                                blocks.max(1),
                            );
                            assert_eq!(
                                flat_stats.final_states,
                                stats.final_states,
                                "direction_report: {alg_name}/{}/{} diverged between \
                                 compressed and flat storage",
                                engine.name(),
                                variant.name()
                            );
                        }
                        reference[anchor] = Some(stats.final_states.clone());
                    }
                    Some(r) if exact => assert_eq!(
                        r,
                        &stats.final_states,
                        "direction_report: {alg_name}/{}/{} diverged from the anchor",
                        engine.name(),
                        variant.name()
                    ),
                    Some(r) => {
                        // Parallel PageRank races its accumulations by
                        // design; it must stay within tolerance of the
                        // sequential fixpoint.
                        for (v, (a, b)) in r.iter().zip(&stats.final_states).enumerate() {
                            assert!(
                                (a - b).abs() < 1e-3,
                                "direction_report: pagerank/parallel/{} vertex {v} \
                                 diverged ({a} vs {b})",
                                variant.name()
                            );
                        }
                    }
                }
                if engine == Engine::Parallel && alg_name != "pagerank" {
                    // Cross-thread determinism pin: the max-norm
                    // fixpoint is unique in floating point, so every
                    // block count must land on bit-identical states.
                    for other_blocks in [1usize, 2, threads] {
                        let again =
                            run_once(&g, &id, engine, variant, alg_name, source, other_blocks);
                        assert_eq!(
                            stats.final_states,
                            again.final_states,
                            "direction_report: {alg_name}/parallel/{} states drifted \
                             between {} and {other_blocks} blocks",
                            variant.name(),
                            blocks.max(1)
                        );
                    }
                }
            } else {
                samples[i].push(stats);
            }
        }
    }
    eprintln!(
        "direction_report: cross-thread determinism pin held (blocks 1/2/{threads} bit-identical)"
    );

    let cells: Vec<Cell> = specs
        .iter()
        .zip(samples)
        .map(|(&(algorithm, engine, variant, threads), mut runs)| {
            runs.sort_by_key(|s| s.runtime);
            let best = &runs[0];
            Cell {
                algorithm,
                engine,
                variant,
                threads,
                rounds: best.rounds,
                push_rounds: best.push_rounds,
                runtime: best.runtime,
            }
        })
        .collect();
    for c in &cells {
        eprintln!(
            "  {:<9} {:<9} {:<7} threads={:<2} rounds={:<4} push_rounds={:<4} runtime={:?}",
            c.algorithm,
            c.engine.name(),
            c.variant.name(),
            c.threads,
            c.rounds,
            c.push_rounds,
            c.runtime
        );
    }

    let runtime_of = |alg: &str, engine: Engine, variant: Variant| {
        cells
            .iter()
            .find(|c| c.algorithm == alg && c.engine == engine && c.variant == variant)
            .expect("cell exists")
            .runtime
            .as_secs_f64()
            .max(1e-12)
    };
    let seq_engine = |alg: &str| {
        if alg == "pagerank" {
            Engine::Async
        } else {
            Engine::Worklist
        }
    };
    // Sequential speedups (the PR-5 ledger, still tracked).
    let seq_speedup = |alg: &str, baseline: Variant| {
        runtime_of(alg, seq_engine(alg), baseline) / runtime_of(alg, seq_engine(alg), Variant::Auto)
    };
    // Parallel speedups (the PR-8 ledger): auto over parallel pull-only,
    // and parallel auto over the sequential auto baseline.
    let par_vs_pull = |alg: &str| {
        runtime_of(alg, Engine::Parallel, Variant::Pull)
            / runtime_of(alg, Engine::Parallel, Variant::Auto)
    };
    let par_vs_seq = |alg: &str| {
        runtime_of(alg, seq_engine(alg), Variant::Auto)
            / runtime_of(alg, Engine::Parallel, Variant::Auto)
    };
    let bfs_vs_pre = seq_speedup("bfs", Variant::PrePr);
    let sssp_vs_pre = seq_speedup("sssp", Variant::PrePr);
    let pr_vs_pre = seq_speedup("pagerank", Variant::PrePr);
    eprintln!(
        "  sequential auto/pre-PR: bfs {bfs_vs_pre:.2}x, sssp {sssp_vs_pre:.2}x, \
         pagerank {pr_vs_pre:.2}x"
    );
    eprintln!(
        "  parallel auto/parallel pull-only: bfs {:.2}x, sssp {:.2}x, pagerank {:.2}x",
        par_vs_pull("bfs"),
        par_vs_pull("sssp"),
        par_vs_pull("pagerank")
    );
    eprintln!(
        "  parallel auto/sequential auto: bfs {:.2}x, sssp {:.2}x, pagerank {:.2}x",
        par_vs_seq("bfs"),
        par_vs_seq("sssp"),
        par_vs_seq("pagerank")
    );

    // Hand-rolled JSON (no serde in the offline workspace).
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"report\": \"direction_report\",");
    let _ = writeln!(json, "  \"pr\": 8,");
    let _ = writeln!(
        json,
        "  \"graph\": {{\"generator\": \"rmat-graph500\", \"scale\": {log2_n}, \
         \"edge_factor\": {edge_factor}, \"seed\": {seed}, \"vertices\": {}, \"edges\": {}}},",
        g.num_vertices(),
        g.num_edges()
    );
    let _ = writeln!(
        json,
        "  \"configuration\": {{\"order\": \"gograph-relabeled\", \"reps\": {REPS}, \
         \"threads\": {threads}, \"statistic\": \"min-of-interleaved-reps\", \
         \"equality\": \"final states agree across variants; parallel max-norm cells \
         bit-identical across block counts 1/2/{threads} (asserted)\"}},"
    );
    json.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"algorithm\": \"{}\", \"engine\": \"{}\", \"variant\": \"{}\", \
             \"threads\": {}, \"rounds\": {}, \"push_rounds\": {}, \"runtime_seconds\": {:.6}}}{}",
            c.algorithm,
            c.engine.name(),
            c.variant.name(),
            c.threads,
            c.rounds,
            c.push_rounds,
            c.runtime.as_secs_f64(),
            if i + 1 < cells.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"speedup_sequential_auto_over_pre_pr\": {{\"bfs\": {bfs_vs_pre:.3}, \
         \"sssp\": {sssp_vs_pre:.3}, \"pagerank\": {pr_vs_pre:.3}}},"
    );
    let _ = writeln!(
        json,
        "  \"speedup_parallel_auto_over_parallel_pull\": {{\"bfs\": {:.3}, \"sssp\": {:.3}, \
         \"pagerank\": {:.3}}},",
        par_vs_pull("bfs"),
        par_vs_pull("sssp"),
        par_vs_pull("pagerank")
    );
    let _ = writeln!(
        json,
        "  \"speedup_parallel_auto_over_sequential_auto\": {{\"bfs\": {:.3}, \"sssp\": {:.3}, \
         \"pagerank\": {:.3}}}",
        par_vs_seq("bfs"),
        par_vs_seq("sssp"),
        par_vs_seq("pagerank")
    );
    json.push_str("}\n");
    std::fs::write(&out_path, json).expect("direction_report: failed to write output");
    eprintln!("direction_report: wrote {out_path}");
}
