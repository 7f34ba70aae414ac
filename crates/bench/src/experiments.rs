//! Experiment implementations — one function per paper table/figure.
//! The `paper` binary's sections call these and print the returned
//! [`Table`]s.

use crate::datasets::{default_source, paper_datasets, wiki_analogue, Dataset, Scale};
use crate::harness::{timed, Table};
use crate::orderings::paper_methods;
use gograph_cachesim::cache_misses_of_order;
use gograph_core::{metric_report, GoGraph, PartitionerChoice};
use gograph_engine::{
    total_memory_bytes, Bfs, IterativeAlgorithm, Mode, PageRank, Php, Pipeline, RunConfig,
    RunStats, Sssp,
};
use gograph_graph::{CsrGraph, Permutation};
use gograph_partition::{Fennel, LabelPropagation, Louvain, MetisLike, RabbitPartition};

/// The paper's four workload algorithms (§V-A), constructed against a
/// graph whose labels may have been permuted: `source` must already be
/// the *relabeled* id.
pub fn workload(name: &str, source: u32) -> Box<dyn IterativeAlgorithm> {
    match name {
        "PageRank" => Box::new(PageRank::default()),
        "SSSP" => Box::new(Sssp::new(source)),
        "BFS" => Box::new(Bfs::new(source)),
        "PHP" => Box::new(Php::new(source)),
        _ => panic!("unknown workload {name}"),
    }
}

/// The four workload names in paper order.
pub const WORKLOADS: [&str; 4] = ["PageRank", "SSSP", "BFS", "PHP"];

/// Runs one (algorithm, order) cell: relabels the graph physically by the
/// order (the paper's deployment), maps the source, and runs the engine —
/// one [`Pipeline`] invocation.
pub fn run_cell(
    g: &CsrGraph,
    order: &Permutation,
    alg_name: &str,
    source: u32,
    mode: Mode,
    cfg: &RunConfig,
) -> RunStats {
    Pipeline::on(g)
        .order_ref(order)
        .relabel(true)
        .mode(mode)
        .algorithm_with(|o| workload(alg_name, o.position(source)))
        .config(*cfg)
        .execute()
        .expect("benchmark cell configuration is valid")
        .stats
}

/// Figs. 5 & 6: the full grid — per workload, a (methods × datasets)
/// table of async runtimes (seconds) and one of iteration rounds.
/// Returns `[(workload, runtime_table, rounds_table); 4]`.
pub fn overall_grid(scale: Scale) -> Vec<(String, Table, Table)> {
    let datasets = paper_datasets(scale);
    let names: Vec<&str> = datasets.iter().map(|d| d.abbrev).collect();
    let methods = paper_methods();
    let cfg = RunConfig::default();

    // Precompute orders once per (method, dataset).
    let orders: Vec<Vec<Permutation>> = methods
        .iter()
        .map(|m| datasets.iter().map(|d| m.reorder(&d.graph)).collect())
        .collect();

    let mut out = Vec::new();
    for alg_name in WORKLOADS {
        let mut runtime = Table::new(format!("{alg_name}: async runtime (s)"), &names);
        let mut rounds = Table::new(format!("{alg_name}: iteration rounds"), &names);
        for (mi, m) in methods.iter().enumerate() {
            let mut rt_row = Vec::new();
            let mut rd_row = Vec::new();
            for (di, d) in datasets.iter().enumerate() {
                let src = default_source(&d.graph);
                let (stats, dur) =
                    timed(|| run_cell(&d.graph, &orders[mi][di], alg_name, src, Mode::Async, &cfg));
                // Engine-loop runtime only (relabeling is offline prep).
                let _ = dur;
                rt_row.push(stats.runtime.as_secs_f64());
                rd_row.push(stats.rounds as f64);
            }
            runtime.push_row(m.name, rt_row);
            rounds.push_row(m.name, rd_row);
        }
        out.push((alg_name.to_string(), runtime, rounds));
    }
    out
}

/// Fig. 1 / Fig. 8: Sync+Default vs Async+Default vs Async+GoGraph.
/// Returns per-workload tables of runtime seconds over the datasets.
pub fn async_impact(scale: Scale, workloads: &[&str]) -> Vec<(String, Table)> {
    let datasets = paper_datasets(scale);
    let names: Vec<&str> = datasets.iter().map(|d| d.abbrev).collect();
    let cfg = RunConfig::default();
    let gograph = GoGraph::default();

    let mut out = Vec::new();
    for &alg_name in workloads {
        let mut t = Table::new(format!("{alg_name}: runtime (s)"), &names);
        let mut sync_row = Vec::new();
        let mut async_row = Vec::new();
        let mut go_row = Vec::new();
        for d in &datasets {
            let n = d.graph.num_vertices();
            let src = default_source(&d.graph);
            let id = Permutation::identity(n);
            let s = run_cell(&d.graph, &id, alg_name, src, Mode::Sync, &cfg);
            let a = run_cell(&d.graph, &id, alg_name, src, Mode::Async, &cfg);
            let go = gograph.run(&d.graph);
            let g = run_cell(&d.graph, &go, alg_name, src, Mode::Async, &cfg);
            sync_row.push(s.runtime.as_secs_f64());
            async_row.push(a.runtime.as_secs_f64());
            go_row.push(g.runtime.as_secs_f64());
        }
        t.push_row("Sync+Def.", sync_row);
        t.push_row("Async+Def.", async_row);
        t.push_row("Async+GoGraph", go_row);
        out.push((alg_name.to_string(), t));
    }
    out
}

/// Fig. 1(b): iteration-round counts for the motivation experiment on the
/// wiki analogue.
pub fn motivation_rounds(scale: Scale) -> Table {
    let d = wiki_analogue(scale);
    let src = default_source(&d.graph);
    let cfg = RunConfig::default();
    let n = d.graph.num_vertices();
    let id = Permutation::identity(n);
    let go = GoGraph::default().run(&d.graph);
    let mut t = Table::new("Fig 1: rounds on WK", &["SSSP", "PageRank"]);
    for (label, order, mode) in [
        ("Sync+Def.", &id, Mode::Sync),
        ("Async+Def.", &id, Mode::Async),
        ("Async+GoGraph", &go, Mode::Async),
    ] {
        let sssp = run_cell(&d.graph, order, "SSSP", src, mode, &cfg);
        let pr = run_cell(&d.graph, order, "PageRank", src, mode, &cfg);
        t.push_row(label, vec![sssp.rounds as f64, pr.rounds as f64]);
    }
    t
}

/// Fig. 7: convergence curves. For each method, runs the workload with
/// tracing and returns `(method, Vec<(seconds, distance)>)`, where
/// distance is `|Σx* − Σx_t|` against the converged sum (paper §V-C).
pub fn convergence_curves(d: &Dataset, alg_name: &str) -> Vec<(String, Vec<(f64, f64)>)> {
    let cfg = RunConfig {
        record_trace: true,
        ..Default::default()
    };
    let src = default_source(&d.graph);
    let mut out = Vec::new();
    for m in paper_methods() {
        let order = m.reorder(&d.graph);
        let stats = run_cell(&d.graph, &order, alg_name, src, Mode::Async, &cfg);
        let converged = stats.finite_sum();
        let curve = stats
            .distance_curve(converged)
            .into_iter()
            .map(|(t, dist)| (t.as_secs_f64(), dist))
            .collect();
        out.push((m.name.to_string(), curve));
    }
    out
}

/// Fig. 9: normalized cache misses of PageRank per method per dataset.
pub fn cache_miss_table(scale: Scale, rounds: usize) -> Table {
    let datasets = paper_datasets(scale);
    let names: Vec<&str> = datasets.iter().map(|d| d.abbrev).collect();
    let mut t = Table::new("PageRank cache misses (total across L1/L2/L3)", &names);
    for m in paper_methods() {
        let mut row = Vec::new();
        for d in &datasets {
            let order = m.reorder(&d.graph);
            let stats = cache_misses_of_order(&d.graph, &order, rounds);
            row.push(stats.total_misses() as f64);
        }
        t.push_row(m.name, row);
    }
    t
}

/// Fig. 10: GoGraph with vs without its divide phase — cache misses.
pub fn partition_cache_ablation(scale: Scale, rounds: usize) -> Table {
    let datasets = paper_datasets(scale);
    let names: Vec<&str> = datasets.iter().map(|d| d.abbrev).collect();
    let mut t = Table::new("GoGraph cache misses: with vs without partitioning", &names);
    let with = GoGraph::default();
    let without = GoGraph::without_partitioning();
    for (label, go) in [("GoGraph w/o partitioning", without), ("GoGraph", with)] {
        let mut row = Vec::new();
        for d in &datasets {
            let order = go.run(&d.graph);
            row.push(cache_misses_of_order(&d.graph, &order, rounds).total_misses() as f64);
        }
        t.push_row(label, row);
    }
    t
}

/// Table II: `M(·)`, `M/|E|` and iteration rounds of the four workloads
/// on the CP analogue, per reordering method.
pub fn metric_table(scale: Scale) -> Table {
    let d = crate::datasets::dataset("CP", scale).unwrap();
    let src = default_source(&d.graph);
    let cfg = RunConfig::default();
    let cols = ["M", "M/|E|", "PageRank", "SSSP", "BFS", "PHP"];
    let mut t = Table::new("Table II on CP analogue", &cols);
    for m in paper_methods() {
        let order = m.reorder(&d.graph);
        let rep = metric_report(&d.graph, &order);
        let mut row = vec![rep.positive_edges as f64, rep.positive_fraction()];
        for alg in WORKLOADS {
            let stats = run_cell(&d.graph, &order, alg, src, Mode::Async, &cfg);
            row.push(stats.rounds as f64);
        }
        t.push_row(m.name, row);
    }
    t
}

/// Fig. 11: total memory (graph + engine state) for Sync+Def.,
/// Async+Def., Async+GoGraph, per dataset.
pub fn memory_table(scale: Scale, alg_name: &str) -> Table {
    let datasets = paper_datasets(scale);
    let names: Vec<&str> = datasets.iter().map(|d| d.abbrev).collect();
    let cfg = RunConfig::default();
    let mut t = Table::new(format!("{alg_name}: memory bytes"), &names);
    let go = GoGraph::default();
    let mut sync_row = Vec::new();
    let mut async_row = Vec::new();
    let mut go_row = Vec::new();
    for d in &datasets {
        let n = d.graph.num_vertices();
        let src = default_source(&d.graph);
        let id = Permutation::identity(n);
        let s = run_cell(&d.graph, &id, alg_name, src, Mode::Sync, &cfg);
        let a = run_cell(&d.graph, &id, alg_name, src, Mode::Async, &cfg);
        let order = go.run(&d.graph);
        let g = run_cell(&d.graph, &order, alg_name, src, Mode::Async, &cfg);
        sync_row.push(total_memory_bytes(&d.graph, &s) as f64);
        async_row.push(total_memory_bytes(&d.graph, &a) as f64);
        go_row.push(total_memory_bytes(&d.graph, &g) as f64);
    }
    t.push_row("Sync+Def.", sync_row);
    t.push_row("Async+Def.", async_row);
    t.push_row("Async+GoGraph", go_row);
    t
}

/// Fig. 12: Barabási–Albert graphs of average degree 2/4/6/8 — PageRank
/// runtime and rounds per method. Returns (runtime table, rounds table).
pub fn average_degree_sweep(scale: Scale) -> (Table, Table) {
    let n = match scale {
        Scale::Tiny => 5_000,
        Scale::Standard => 100_000,
    };
    let degrees = [2usize, 4, 6, 8];
    let labels: Vec<String> = degrees.iter().map(|d| d.to_string()).collect();
    let label_refs: Vec<&str> = labels.iter().map(|s| s.as_str()).collect();
    let cfg = RunConfig::default();
    let mut runtime = Table::new("Fig 12: PageRank runtime (s) on BA graphs", &label_refs);
    let mut rounds = Table::new("Fig 12: PageRank rounds on BA graphs", &label_refs);
    let graphs: Vec<CsrGraph> = degrees
        .iter()
        .map(|&m| {
            gograph_graph::generators::shuffle_labels(
                &gograph_graph::generators::barabasi_albert(n, m, 1000 + m as u64),
                m as u64,
            )
        })
        .collect();
    for m in paper_methods() {
        let mut rt_row = Vec::new();
        let mut rd_row = Vec::new();
        for g in &graphs {
            let order = m.reorder(g);
            let src = default_source(g);
            let stats = run_cell(g, &order, "PageRank", src, Mode::Async, &cfg);
            rt_row.push(stats.runtime.as_secs_f64());
            rd_row.push(stats.rounds as f64);
        }
        runtime.push_row(m.name, rt_row);
        rounds.push_row(m.name, rd_row);
    }
    (runtime, rounds)
}

/// Fig. 13: GoGraph's divide phase swapped between Rabbit-partition,
/// Metis, Louvain and Fennel — PageRank runtime and rounds.
pub fn partitioner_sweep(scale: Scale) -> (Table, Table) {
    let datasets = paper_datasets(scale);
    let names: Vec<&str> = datasets.iter().map(|d| d.abbrev).collect();
    let cfg = RunConfig::default();
    let mut runtime = Table::new("Fig 13: PageRank runtime (s) by partitioner", &names);
    let mut rounds = Table::new("Fig 13: PageRank rounds by partitioner", &names);
    let variants: Vec<(&str, PartitionerChoice)> = vec![
        (
            "Rabbit-partition",
            PartitionerChoice::Rabbit(RabbitPartition::default()),
        ),
        ("Metis", PartitionerChoice::Metis(MetisLike::with_parts(64))),
        ("Louvain", PartitionerChoice::Louvain(Louvain::default())),
        ("Fennel", PartitionerChoice::Fennel(Fennel::with_parts(64))),
        // Extension beyond the paper's four: near-linear label propagation.
        ("LPA", PartitionerChoice::Lpa(LabelPropagation::default())),
    ];
    for (label, choice) in variants {
        let go = GoGraph {
            hub_fraction: 0.002,
            partitioner: choice,
        };
        let mut rt_row = Vec::new();
        let mut rd_row = Vec::new();
        for d in &datasets {
            let order = go.run(&d.graph);
            let src = default_source(&d.graph);
            let stats = run_cell(&d.graph, &order, "PageRank", src, Mode::Async, &cfg);
            rt_row.push(stats.runtime.as_secs_f64());
            rd_row.push(stats.rounds as f64);
        }
        runtime.push_row(label, rt_row);
        rounds.push_row(label, rd_row);
    }
    (runtime, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_cell_sssp_matches_direct_run() {
        let d = crate::datasets::dataset("IC", Scale::Tiny).unwrap();
        let src = default_source(&d.graph);
        let id = Permutation::identity(d.graph.num_vertices());
        let cfg = RunConfig::default();
        let cell = run_cell(&d.graph, &id, "SSSP", src, Mode::Async, &cfg);
        let direct = Pipeline::on(&d.graph)
            .algorithm(Sssp::new(src))
            .execute()
            .unwrap()
            .stats;
        assert_eq!(cell.final_states, direct.final_states);
    }

    #[test]
    fn run_cell_maps_source_through_order() {
        let d = crate::datasets::dataset("IC", Scale::Tiny).unwrap();
        let src = default_source(&d.graph);
        let order = GoGraph::default().run(&d.graph);
        let cfg = RunConfig::default();
        let stats = run_cell(&d.graph, &order, "BFS", src, Mode::Async, &cfg);
        // The relabeled source must be at distance 0.
        let new_src = order.position(src) as usize;
        assert_eq!(stats.final_states[new_src], 0.0);
    }

    #[test]
    fn motivation_rounds_shape() {
        let t = motivation_rounds(Scale::Tiny);
        assert_eq!(t.rows().len(), 3);
        // Async+Def must not need more rounds than Sync+Def.
        let sync = &t.rows()[0].1;
        let asyn = &t.rows()[1].1;
        let go = &t.rows()[2].1;
        for i in 0..2 {
            assert!(asyn[i] <= sync[i], "async slower than sync at col {i}");
            assert!(
                go[i] <= asyn[i] + 1.0,
                "gograph much slower than async at col {i}"
            );
        }
    }

    #[test]
    fn metric_table_monotone_relation() {
        let t = metric_table(Scale::Tiny);
        // GoGraph must have the highest M and the fewest PageRank rounds
        // among Default/GoGraph.
        let get = |name: &str| {
            t.rows()
                .iter()
                .find(|(l, _)| l == name)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        let def = get("Default");
        let go = get("GoGraph");
        assert!(go[0] > def[0], "GoGraph M should beat Default");
        assert!(
            go[2] <= def[2],
            "GoGraph PageRank rounds should not exceed Default"
        );
    }
}
