//! Criterion microbench: per-round engine cost — synchronous vs
//! asynchronous vs block-parallel PageRank rounds, and the effect of a
//! GoGraph layout on round cost (the cache half of the paper's win).
//! All engines are driven through the engine's one entry point.

use criterion::{criterion_group, criterion_main, Criterion};
use gograph_core::GoGraph;
use gograph_engine::{
    execute, AlgorithmRef, DeltaPageRank, DeltaSchedule, DynOnly, Mode, PageRank, RunConfig, Sssp,
};
use gograph_graph::generators::{planted_partition, shuffle_labels, PlantedPartitionConfig};
use gograph_graph::Permutation;

fn bench_rounds(c: &mut Criterion) {
    let g = shuffle_labels(
        &planted_partition(PlantedPartitionConfig {
            num_vertices: 50_000,
            num_edges: 300_000,
            communities: 128,
            p_intra: 0.8,
            gamma: 2.3,
            seed: 9,
        }),
        3,
    );
    let n = g.num_vertices();
    let id = Permutation::identity(n);
    let pr = PageRank::default();
    let dpr = DeltaPageRank::default();
    let one_round = RunConfig {
        max_rounds: 1,
        record_trace: false,
        ..Default::default()
    };
    let relabeled = g.relabeled(&GoGraph::default().run(&g));

    let mut group = c.benchmark_group("pagerank_round_50k");
    group.sample_size(10);
    let cells: [(&str, &gograph_graph::CsrGraph, Mode, AlgorithmRef<'_>); 6] = [
        ("sync_default", &g, Mode::Sync, AlgorithmRef::Gather(&pr)),
        ("async_default", &g, Mode::Async, AlgorithmRef::Gather(&pr)),
        (
            "async_gograph_layout",
            &relabeled,
            Mode::Async,
            AlgorithmRef::Gather(&pr),
        ),
        (
            "parallel8_default",
            &g,
            Mode::Parallel(8),
            AlgorithmRef::Gather(&pr),
        ),
        (
            "delta_rr_default",
            &g,
            Mode::Delta(DeltaSchedule::RoundRobin),
            AlgorithmRef::Delta(&dpr),
        ),
        (
            "worklist_default",
            &g,
            Mode::Worklist,
            AlgorithmRef::Gather(&pr),
        ),
    ];
    for (label, graph, mode, alg) in cells {
        group.bench_function(label, |b| {
            b.iter(|| {
                std::hint::black_box(
                    execute(graph, alg, mode, &id, &one_round, None)
                        .expect("valid bench configuration"),
                )
            })
        });
    }
    group.finish();
}

/// Monomorphized kernel vs `dyn`-dispatch fallback on the same engine:
/// the speedup this comparison shows is exactly what the dispatch layer
/// buys, so a regression here means per-edge dynamic dispatch crept back
/// into a kernel.
fn bench_dispatch(c: &mut Criterion) {
    let g = shuffle_labels(
        &planted_partition(PlantedPartitionConfig {
            num_vertices: 50_000,
            num_edges: 300_000,
            communities: 128,
            p_intra: 0.8,
            gamma: 2.3,
            seed: 9,
        }),
        3,
    );
    let n = g.num_vertices();
    let id = Permutation::identity(n);
    let pr = PageRank::default();
    let dyn_pr = DynOnly(pr);
    let sssp = Sssp::new(0);
    let dyn_sssp = DynOnly(sssp);
    let one_round = RunConfig {
        max_rounds: 1,
        record_trace: false,
        ..Default::default()
    };

    let mut group = c.benchmark_group("dispatch_mono_vs_dyn_50k");
    group.sample_size(10);
    let cells: [(&str, AlgorithmRef<'_>); 4] = [
        ("pagerank_monomorphized", AlgorithmRef::Gather(&pr)),
        ("pagerank_dyn_fallback", AlgorithmRef::Gather(&dyn_pr)),
        ("sssp_monomorphized", AlgorithmRef::Gather(&sssp)),
        ("sssp_dyn_fallback", AlgorithmRef::Gather(&dyn_sssp)),
    ];
    for (label, alg) in cells {
        group.bench_function(label, |b| {
            b.iter(|| {
                std::hint::black_box(
                    execute(&g, alg, Mode::Async, &id, &one_round, None)
                        .expect("valid bench configuration"),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rounds, bench_dispatch);
criterion_main!(benches);
