//! `paper` — regenerates the paper's evaluation (§V): Fig. 1, Figs. 5–13,
//! Tables I–II and the extension ablations, one section each, on the
//! synthetic dataset analogues of [`gograph_bench::datasets`]. Every
//! section prints its tables and writes them under `results/` (relative
//! to the cwd) as `figNN_*.tsv` / `table2_metric.tsv` / `ablation_*.tsv`.
//!
//! Usage: `cargo run -p gograph-bench --release --bin paper [-- --only fig05,table2,…]`
//! (default: every section; `GOGRAPH_SCALE=tiny` for a seconds-long
//! smoke pass).

use gograph_bench::datasets::{dataset, paper_datasets, Scale};
use gograph_bench::experiments::*;
use gograph_bench::harness::{save_results, Table};
use gograph_cachesim::cache_misses_of_order;
use gograph_core::{metric_report, refine_adjacent_swaps, GoGraph};
use gograph_engine::{DeltaPageRank, DeltaSchedule, Mode, PageRank, Pipeline};
use gograph_graph::stats::{degree_stats, power_law_exponent};
use gograph_graph::Permutation;
use gograph_reorder::{DefaultOrder, Reorderer, SccTopoOrder, SlashBurn};
use std::fmt::Write as _;
use std::io;
use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::Instant;

type Section = fn(Scale) -> io::Result<()>;

/// Every section in run order: the id `--only` accepts and its body.
const SECTIONS: [(&str, Section); 13] = [
    ("fig01", fig01),
    ("fig05", fig05),
    ("fig06", fig06),
    ("fig07", fig07),
    ("fig08", fig08),
    ("fig09", fig09),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("table1", table1),
    ("table2", table2),
    ("ablation", ablation),
];

fn main() -> ExitCode {
    let only = match parse_only(std::env::args().skip(1)) {
        Ok(only) => only,
        Err(msg) => {
            let ids: Vec<&str> = SECTIONS.iter().map(|s| s.0).collect();
            eprintln!("paper: {msg}\nusage: paper [--only {}]", ids.join(","));
            return ExitCode::from(2);
        }
    };
    let scale = Scale::from_env();
    let t0 = Instant::now();
    println!("== GoGraph reproduction (scale {scale:?}) ==\n");
    for (id, section) in SECTIONS {
        if only.as_ref().is_none_or(|o| o.iter().any(|x| x == id)) {
            if let Err(e) = section(scale) {
                eprintln!("paper: {id}: cannot write under results/: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "done in {:.1}s; results under results/",
        t0.elapsed().as_secs_f64()
    );
    ExitCode::SUCCESS
}

/// `--only a,b,…` → the selected section ids; no arguments → `None`
/// (every section).
fn parse_only(mut args: impl Iterator<Item = String>) -> Result<Option<Vec<String>>, String> {
    let Some(flag) = args.next() else {
        return Ok(None);
    };
    let list = match (flag.as_str(), args.next(), args.next()) {
        ("--only", Some(list), None) => list,
        _ => return Err(format!("unexpected argument {flag:?}")),
    };
    let ids: Vec<String> = list.split(',').map(str::to_string).collect();
    match ids.iter().find(|id| SECTIONS.iter().all(|s| s.0 != *id)) {
        Some(bad) => Err(format!("unknown section {bad:?}")),
        None => Ok(Some(ids)),
    }
}

fn save(name: &str, table: &Table) -> io::Result<()> {
    save_results(name, &table.to_tsv()).map(drop)
}

/// Fig. 1 — motivation: iteration rounds of SSSP and PageRank on the
/// wiki-2009 analogue under Sync+Default, Async+Default, Async+GoGraph.
/// Paper expectation: async beats sync, and GoGraph's order amplifies
/// the async advantage. (The runtime view is Fig. 8's.)
fn fig01(scale: Scale) -> io::Result<()> {
    println!("[fig 1] motivation rounds (WK analogue)");
    let rounds = motivation_rounds(scale);
    println!("{}", rounds.render());
    println!("{}", rounds.normalized("Sync+Def.").render());
    save("fig01_rounds.tsv", &rounds)
}

/// Figs. 5 and 6 read one grid — four workloads × seven reordering
/// methods × six analogues, `(workload, runtime, rounds)` — computed by
/// whichever of the two sections runs first.
fn grid(scale: Scale) -> &'static [(String, Table, Table)] {
    static GRID: OnceLock<Vec<(String, Table, Table)>> = OnceLock::new();
    GRID.get_or_init(|| overall_grid(scale))
}

/// Fig. 5 — async runtime over the grid. Paper expectation: GoGraph
/// fastest everywhere — 2.10× avg over Default, 1.62–1.93× avg over the
/// other methods.
fn fig05(scale: Scale) -> io::Result<()> {
    println!("[fig 5] runtime (4 workloads x 7 methods x 6 graphs)");
    for (alg, runtime, _) in grid(scale) {
        println!("{}", runtime.render());
        println!("{}", runtime.normalized("Default").render());
        println!(
            "  {alg}: GoGraph speedup vs Default {:.2}x avg, {:.2}x max\n",
            runtime.speedup("Default", "GoGraph"),
            runtime.max_speedup("Default", "GoGraph"),
        );
        save(&format!("fig05_{}.tsv", alg.to_lowercase()), runtime)?;
    }
    Ok(())
}

/// Fig. 6 — iteration rounds over the grid. Paper expectation: GoGraph
/// needs the fewest rounds on most cells (−52% avg vs Default).
fn fig06(scale: Scale) -> io::Result<()> {
    println!("[fig 6] iteration rounds (4 workloads x 7 methods x 6 graphs)");
    for (alg, _, rounds) in grid(scale) {
        println!("{}", rounds.render());
        println!("{}", rounds.normalized("Default").render());
        println!(
            "  {alg}: GoGraph round reduction vs Default {:.2}x avg\n",
            rounds.speedup("Default", "GoGraph"),
        );
        save(&format!("fig06_{}.tsv", alg.to_lowercase()), rounds)?;
    }
    Ok(())
}

/// Fig. 7 — convergence curves: distance-to-convergence
/// `dist_t = |Σx* − Σx_t|` over time for PageRank and SSSP on the CP and
/// LJ analogues, per reordering method. Paper expectation: GoGraph's
/// curve reaches any given distance first (59% of competitors' time).
fn fig07(scale: Scale) -> io::Result<()> {
    println!("[fig 7] convergence curves (PageRank & SSSP on CP, LJ)");
    for ds in ["CP", "LJ"] {
        let d = dataset(ds, scale).expect("CP and LJ are registered analogues");
        for alg in ["PageRank", "SSSP"] {
            println!("--- {alg} on {ds} ---");
            let mut tsv = String::from("method\tseconds\tdistance\n");
            for (method, curve) in convergence_curves(&d, alg) {
                let target = curve.first().map_or(0.0, |&(_, d0)| d0 * 0.01);
                match curve.iter().find(|&&(_, dist)| dist <= target) {
                    Some(&(t, _)) => println!(
                        "{method:>12}: reaches 1% distance at {t:.4}s ({} trace points)",
                        curve.len()
                    ),
                    None => println!("{method:>12}: did not reach 1% within the run"),
                }
                for (t, dist) in curve {
                    let _ = writeln!(tsv, "{method}\t{t}\t{dist}");
                }
            }
            println!();
            let name = format!("fig07_{}_{}.tsv", alg.to_lowercase(), ds.to_lowercase());
            save_results(&name, &tsv)?;
        }
    }
    Ok(())
}

/// Fig. 8 — impact of the processing order on asynchronous execution:
/// Sync+Default vs Async+Default vs Async+GoGraph runtime for PageRank
/// and SSSP on all six analogues. Paper expectation: Async+GoGraph is
/// 1.56×–6.30× (3.04× avg) faster than Sync+Default.
fn fig08(scale: Scale) -> io::Result<()> {
    println!("[fig 8] async + ordering impact");
    for (alg, table) in async_impact(scale, &["PageRank", "SSSP"]) {
        println!("{}", table.render());
        println!("{}", table.normalized("Sync+Def.").render());
        println!(
            "  {alg}: Async+GoGraph over Sync+Def. {:.2}x avg, {:.2}x max\n",
            table.speedup("Sync+Def.", "Async+GoGraph"),
            table.max_speedup("Sync+Def.", "Async+GoGraph"),
        );
        save(&format!("fig08_{}.tsv", alg.to_lowercase()), &table)?;
    }
    Ok(())
}

/// Fig. 9 — CPU cache misses of PageRank per reordering method
/// (trace-driven simulator). Paper expectation: GoGraph reduces misses
/// ~30% on average vs the competitors.
fn fig09(scale: Scale) -> io::Result<()> {
    println!("[fig 9] cache misses");
    let t = cache_miss_table(scale, 2);
    println!("{}", t.render());
    println!("{}", t.normalized("Default").render());
    println!(
        "  GoGraph miss reduction vs Default: {:.2}x avg\n",
        t.speedup("Default", "GoGraph"),
    );
    save("fig09_cache_miss.tsv", &t)
}

/// Fig. 10 — the divide phase's effect on cache misses: full GoGraph vs
/// GoGraph without partitioning. Paper expectation: partitioning
/// reduces misses 33% avg (up to 58%).
fn fig10(scale: Scale) -> io::Result<()> {
    println!("[fig 10] partitioning cache ablation");
    let t = partition_cache_ablation(scale, 2);
    println!("{}", t.render());
    println!("{}", t.normalized("GoGraph w/o partitioning").render());
    println!(
        "  partitioning miss reduction: {:.2}x avg, {:.2}x max\n",
        t.speedup("GoGraph w/o partitioning", "GoGraph"),
        t.max_speedup("GoGraph w/o partitioning", "GoGraph"),
    );
    save("fig10_partition_cache.tsv", &t)
}

/// Fig. 11 — memory usage of Sync+Default, Async+Default and
/// Async+GoGraph for PageRank and SSSP. Paper expectation: similar;
/// sync slightly higher because it double-buffers vertex states.
fn fig11(scale: Scale) -> io::Result<()> {
    println!("[fig 11] memory usage");
    for alg in ["PageRank", "SSSP"] {
        let t = memory_table(scale, alg);
        println!("{}", t.render());
        println!("{}", t.normalized("Sync+Def.").render());
        save(&format!("fig11_{}.tsv", alg.to_lowercase()), &t)?;
    }
    Ok(())
}

/// Fig. 12 — PageRank runtime and rounds on Barabási–Albert graphs of
/// average degree 2/4/6/8, per method. Paper expectation: runtime grows
/// with degree, rounds stay similar, GoGraph best throughout (labels
/// are shuffled: the generator's own order is already good, §V-H).
fn fig12(scale: Scale) -> io::Result<()> {
    println!("[fig 12] average-degree sweep");
    let (runtime, rounds) = average_degree_sweep(scale);
    println!("{}", runtime.render());
    println!("{}", rounds.render());
    println!(
        "  GoGraph speedup vs Default across degrees: {:.2}x avg\n",
        runtime.speedup("Default", "GoGraph"),
    );
    save("fig12_runtime.tsv", &runtime)?;
    save("fig12_rounds.tsv", &rounds)
}

/// Fig. 13 — the divide-phase partitioner swapped between
/// Rabbit-partition (default), Metis, Louvain and Fennel: PageRank
/// runtime and rounds on all six analogues. Paper expectation:
/// Rabbit/Metis/Louvain similar; Fennel worse (stream-based decisions).
fn fig13(scale: Scale) -> io::Result<()> {
    println!("[fig 13] partitioner sweep");
    let (runtime, rounds) = partitioner_sweep(scale);
    for t in [&runtime, &rounds] {
        println!("{}", t.render());
        println!("{}", t.normalized("Rabbit-partition").render());
    }
    save("fig13_runtime.tsv", &runtime)?;
    save("fig13_rounds.tsv", &rounds)
}

/// Table I — statistics of the synthetic analogues beside the sizes of
/// the paper's real graphs (printed only).
fn table1(scale: Scale) -> io::Result<()> {
    println!("[table I] dataset analogues");
    println!(
        "{:<6} {:<18} {:>10} {:>12} {:>10} {:>9} {:>8}",
        "abbr", "paper graph", "vertices", "edges", "avg deg", "max deg", "gamma"
    );
    for d in paper_datasets(scale) {
        let s = degree_stats(&d.graph);
        let gamma = power_law_exponent(&d.graph, 4).map_or("-".into(), |g| format!("{g:.2}"));
        println!(
            "{:<6} {:<18} {:>10} {:>12} {:>10.2} {:>9} {:>8}",
            d.abbrev,
            d.paper_name,
            s.num_vertices,
            s.num_edges,
            s.mean_degree / 2.0,
            s.max_degree,
            gamma
        );
    }
    println!("\npaper originals:");
    for (abbr, v, e) in [
        ("IC", 11_358usize, 49_138usize),
        ("SK", 121_422, 367_579),
        ("GL", 875_713, 5_241_298),
        ("WK", 1_864_433, 4_652_358),
        ("CP", 3_774_768, 18_204_371),
        ("LJ", 4_033_137, 27_972_078),
    ] {
        println!("{abbr:<6} {v:>10} vertices {e:>12} edges");
    }
    println!();
    Ok(())
}

/// Table II — the metric function validated: `M(·)`, `M/|E|` and the
/// rounds of PageRank/SSSP/BFS/PHP on the CP analogue per reordering
/// method. Paper expectation: larger `M` ⇒ fewer rounds, GoGraph with
/// the largest `M` (0.76·|E| on CP) and the fewest rounds.
fn table2(scale: Scale) -> io::Result<()> {
    println!("[table II] metric function (CP analogue)");
    let t = metric_table(scale);
    println!("{}", t.render());
    let mut rows: Vec<(&str, f64, f64)> = t
        .rows()
        .iter()
        .map(|(l, v)| (l.as_str(), v[1], v[2]))
        .collect();
    rows.sort_by(|a, b| a.1.total_cmp(&b.1));
    println!("methods by ascending M/|E| (PageRank rounds should trend down):");
    for (name, frac, rounds) in rows {
        println!("  {name:>12}: M/|E| = {frac:.3}, PageRank rounds = {rounds}");
    }
    println!();
    save("table2_metric.tsv", &t)
}

/// Extension ablations beyond the paper's figures, on the CP analogue:
///
/// 1. **Ordering families** — GoGraph vs the MAS-style SCC-topological
///    order (§III's rejected alternative) vs SlashBurn on metric, rounds
///    and cache misses: maximizing `M` alone or locality alone is not
///    enough.
/// 2. **Local-search headroom** — how much metric an adjacent-swap
///    hill-climb adds to each constructive order (GoGraph should be
///    near-locally-optimal).
/// 3. **Scheduling** — the converse of the paper's experiment: fix the
///    order question and vary scheduling — delta round-robin (Maiter)
///    under Default vs GoGraph order, and PrIter-style priority batches.
fn ablation(scale: Scale) -> io::Result<()> {
    let d = dataset("CP", scale).expect("CP is a registered analogue");
    let g = &d.graph;
    println!(
        "[ablations] CP analogue ({} vertices, {} edges)",
        g.num_vertices(),
        g.num_edges()
    );

    let methods: [(&str, Box<dyn Reorderer>); 4] = [
        ("Default", Box::new(DefaultOrder)),
        ("SccTopo", Box::new(SccTopoOrder)),
        ("SlashBurn", Box::new(SlashBurn::default())),
        ("GoGraph", Box::new(GoGraph::default())),
    ];
    let mut families = Table::new(
        "ordering families: metric vs rounds vs locality",
        &["M/|E|", "PR rounds", "cache misses"],
    );
    let mut orders: Vec<(&str, Permutation)> = Vec::new();
    for (name, m) in &methods {
        let r = Pipeline::on(g)
            .reorder(m)
            .relabel(true)
            .algorithm(PageRank::default())
            .execute()
            .expect("valid pipeline");
        let frac = metric_report(g, &r.order).positive_fraction();
        let misses = cache_misses_of_order(g, &r.order, 2).total_misses();
        families.push_row(*name, vec![frac, r.stats.rounds as f64, misses as f64]);
        orders.push((name, r.order));
    }
    println!("{}", families.render());
    save("ablation_families.tsv", &families)?;

    let mut refine = Table::new(
        "adjacent-swap refinement headroom",
        &["M before", "M after", "gain %|E|", "swaps"],
    );
    for (name, order) in &orders {
        let r = refine_adjacent_swaps(g, order, 20);
        refine.push_row(
            *name,
            vec![
                r.metric_before as f64,
                r.metric_after as f64,
                100.0 * (r.metric_after - r.metric_before) as f64 / g.num_edges() as f64,
                r.swaps as f64,
            ],
        );
    }
    println!("{}", refine.render());
    save("ablation_refine.tsv", &refine)?;

    let dpr = DeltaPageRank::default();
    let delta_run = |order: Option<&Permutation>, schedule: DeltaSchedule| {
        let p = Pipeline::on(g)
            .delta_algorithm_ref(&dpr)
            .mode(Mode::Delta(schedule));
        match order {
            Some(o) => p.order_ref(o).relabel(true),
            None => p,
        }
        .execute()
        .expect("valid pipeline")
        .stats
    };
    let gograph = &orders.last().expect("GoGraph is the last method").1;
    let rr_def = delta_run(None, DeltaSchedule::RoundRobin);
    let rr_go = delta_run(Some(gograph), DeltaSchedule::RoundRobin);
    let pri = delta_run(
        None,
        DeltaSchedule::Priority {
            batch_fraction: 0.05,
        },
    );
    let mut scheduling = Table::new(
        "delta-engine scheduling (PageRank)",
        &["rounds/batches", "runtime ms"],
    );
    for (label, s) in [
        ("Maiter RR + Default", &rr_def),
        ("Maiter RR + GoGraph", &rr_go),
        ("PrIter top-5%", &pri),
    ] {
        scheduling.push_row(label, vec![s.rounds as f64, s.runtime.as_secs_f64() * 1e3]);
    }
    println!("{}", scheduling.render());
    println!("note: PrIter rounds are batches of 5% of vertices; RR rounds are full scans.");
    let mass = |s: &gograph_engine::RunStats| s.final_states.iter().sum::<f64>();
    println!(
        "fixpoint consistency: |mass_rr - mass_priority| = {:.2e}\n",
        (mass(&rr_def) - mass(&pri)).abs()
    );
    save("ablation_scheduling.tsv", &scheduling)
}
