//! `compression_report` — recorded evidence for the compressed sharded
//! CSR backend (PR 9).
//!
//! Per scale (standard: RMAT graph500 scale 18 and the scale-20
//! headline; `GOGRAPH_SCALE=tiny`: scales 10/12 for CI smoke):
//!
//! 1. **Build**: streaming two-pass RMAT generation (never materializes
//!    the edge list), wall-clock recorded.
//! 2. **Compression ratio**: adjacency bytes/edge on flat storage, and
//!    on compressed storage under a random label order vs the GoGraph
//!    order. Gates on the paper's thesis made measurable: the
//!    GoGraph-ordered ratio must be **strictly better** than the
//!    random-ordered one (reordering is a storage optimization, not
//!    just a cache one).
//! 3. **Decode-path runtime**: BFS (worklist engine) and PageRank
//!    (async engine) run to convergence on flat vs compressed storage
//!    of the same reordered graph, min-of-interleaved-reps wall-clock.
//!    Gates on the final states being **bit-identical** across
//!    storages.
//!
//! Usage: `compression_report [OUT.json]` (default `BENCH_PR9.json`).

use gograph_bench::datasets::Scale;
use gograph_core::GoGraph;
use gograph_engine::{Bfs, Mode, PageRank, Pipeline, RunStats};
use gograph_graph::generators::rmat::{rmat_streaming, RmatConfig};
use gograph_graph::generators::shuffle_labels;
use gograph_graph::stats::bytes_per_edge;
use gograph_graph::{CsrGraph, VertexId};
use std::fmt::Write as _;
use std::time::Instant;

/// Wall-clock repetitions per (algorithm, storage) cell, interleaved.
const REPS: usize = 3;

struct RunRow {
    algorithm: &'static str,
    storage: &'static str,
    rounds: usize,
    runtime_seconds: f64,
}

struct ScaleRow {
    scale: u32,
    edge_factor: usize,
    vertices: usize,
    edges: usize,
    build_seconds: f64,
    reorder_seconds: f64,
    flat_bytes_per_edge: f64,
    random_bytes_per_edge: f64,
    gograph_bytes_per_edge: f64,
    num_shards: usize,
    runs: Vec<RunRow>,
}

fn max_out_degree_vertex(g: &CsrGraph) -> VertexId {
    (0..g.num_vertices() as u32)
        .max_by_key(|&v| g.out_degree(v))
        .unwrap_or(0)
}

/// One run on the already-relabeled graph (identity order).
fn run_cell(g: &CsrGraph, algorithm: &str, source: VertexId) -> RunStats {
    let pipeline = match algorithm {
        "pagerank" => Pipeline::on(g)
            .mode(Mode::Async)
            .algorithm(PageRank::default()),
        "bfs" => Pipeline::on(g)
            .mode(Mode::Worklist)
            .algorithm(Bfs::new(source)),
        other => unreachable!("unknown algorithm {other}"),
    };
    pipeline.execute().expect("valid configuration").stats
}

fn measure_scale(scale: u32, edge_factor: usize, seed: u64) -> ScaleRow {
    let t = Instant::now();
    let natural = rmat_streaming(RmatConfig::graph500(scale, edge_factor, seed));
    let build_seconds = t.elapsed().as_secs_f64();
    eprintln!(
        "compression_report: rmat scale={scale} |V|={} |E|={} built in {build_seconds:.2}s",
        natural.num_vertices(),
        natural.num_edges()
    );

    // Random baseline: scramble the generator's hub-correlated labels.
    let random = shuffle_labels(&natural, 7);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let t = Instant::now();
    let order = GoGraph::default().parallelism(threads).run(&random);
    let reorder_seconds = t.elapsed().as_secs_f64();
    let reordered = random.relabeled(&order);

    let flat_bpe = bytes_per_edge(&reordered);
    let random_c = random.compress();
    let reordered_c = reordered.compress();
    let random_bpe = bytes_per_edge(&random_c);
    let gograph_bpe = bytes_per_edge(&reordered_c);
    assert_eq!(
        reordered_c.weight_bytes(),
        0,
        "unit-weight RMAT must drop its weight streams"
    );
    assert!(
        gograph_bpe < random_bpe,
        "compression_report: GoGraph order must compress strictly better than random \
         at scale {scale}: {gograph_bpe:.3} vs {random_bpe:.3} bytes/edge"
    );
    eprintln!(
        "  bytes/edge: flat {flat_bpe:.2}, compressed random {random_bpe:.2}, \
         compressed gograph {gograph_bpe:.2} ({} shards, reorder {reorder_seconds:.2}s)",
        reordered_c.num_shards()
    );

    // Decode-path runtime on the same reordered graph, flat vs
    // compressed, interleaved min-of-REPS; rep 0 gates bit-identity.
    let source = max_out_degree_vertex(&reordered);
    let mut runs = Vec::new();
    for algorithm in ["bfs", "pagerank"] {
        let mut best: [Option<RunStats>; 2] = [None, None];
        for rep in 0..REPS {
            for (i, g) in [&reordered, &reordered_c].into_iter().enumerate() {
                let stats = run_cell(g, algorithm, source);
                assert!(
                    stats.converged,
                    "compression_report: {algorithm} did not converge at scale {scale}"
                );
                if rep == 0 {
                    if i == 1 {
                        assert_eq!(
                            best[0].as_ref().unwrap().final_states,
                            stats.final_states,
                            "compression_report: {algorithm} states diverged between \
                             storages at scale {scale}"
                        );
                    }
                    best[i] = Some(stats);
                } else if stats.runtime < best[i].as_ref().unwrap().runtime {
                    best[i] = Some(stats);
                }
            }
        }
        for (i, storage) in ["flat", "compressed"].into_iter().enumerate() {
            let s = best[i].as_ref().unwrap();
            eprintln!(
                "  {algorithm:<9} {storage:<10} rounds={:<4} runtime={:?}",
                s.rounds, s.runtime
            );
            runs.push(RunRow {
                algorithm: match algorithm {
                    "bfs" => "bfs",
                    _ => "pagerank",
                },
                storage,
                rounds: s.rounds,
                runtime_seconds: s.runtime.as_secs_f64(),
            });
        }
    }

    ScaleRow {
        scale,
        edge_factor,
        vertices: reordered.num_vertices(),
        edges: reordered.num_edges(),
        build_seconds,
        reorder_seconds,
        flat_bytes_per_edge: flat_bpe,
        random_bytes_per_edge: random_bpe,
        gograph_bytes_per_edge: gograph_bpe,
        num_shards: reordered_c.num_shards(),
        runs,
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_PR9.json".to_string());
    let seed = 42;
    let scales: &[(u32, usize)] = match Scale::from_env() {
        Scale::Tiny => &[(10, 8), (12, 8)],
        Scale::Standard => &[(18, 8), (20, 8)],
    };
    let rows: Vec<ScaleRow> = scales
        .iter()
        .map(|&(s, ef)| measure_scale(s, ef, seed))
        .collect();

    // Hand-rolled JSON (no serde in the offline workspace).
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"report\": \"compression_report\",");
    let _ = writeln!(json, "  \"pr\": 9,");
    let _ = writeln!(
        json,
        "  \"configuration\": {{\"generator\": \"rmat-graph500-streaming\", \"seed\": {seed}, \
         \"order_baseline\": \"shuffled labels\", \"order\": \"gograph-relabeled\", \
         \"reps\": {REPS}, \"statistic\": \"min-of-interleaved-reps\", \
         \"equality\": \"flat and compressed final states bit-identical (asserted); \
         gograph bytes/edge strictly below random (asserted)\"}},"
    );
    json.push_str("  \"scales\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(json, "    {{\"scale\": {},", r.scale);
        let _ = writeln!(
            json,
            "     \"edge_factor\": {}, \"vertices\": {}, \"edges\": {}, \
             \"build_seconds\": {:.3}, \"reorder_seconds\": {:.3},",
            r.edge_factor, r.vertices, r.edges, r.build_seconds, r.reorder_seconds
        );
        let _ = writeln!(
            json,
            "     \"bytes_per_edge\": {{\"flat\": {:.4}, \"compressed_random_order\": {:.4}, \
             \"compressed_gograph_order\": {:.4}}}, \"shards\": {},",
            r.flat_bytes_per_edge, r.random_bytes_per_edge, r.gograph_bytes_per_edge, r.num_shards
        );
        let _ = writeln!(json, "     \"runs\": [");
        for (j, run) in r.runs.iter().enumerate() {
            let _ = writeln!(
                json,
                "       {{\"algorithm\": \"{}\", \"storage\": \"{}\", \"rounds\": {}, \
                 \"runtime_seconds\": {:.6}}}{}",
                run.algorithm,
                run.storage,
                run.rounds,
                run.runtime_seconds,
                if j + 1 < r.runs.len() { "," } else { "" }
            );
        }
        let _ = writeln!(
            json,
            "     ]}}{}",
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json).expect("write report");
    eprintln!("compression_report: wrote {out_path}");
}
