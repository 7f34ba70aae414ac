//! Comparative reorder-quality integration tests: the relationships the
//! paper's evaluation depends on, checked on shuffled community graphs.

use gograph::prelude::*;
use gograph::reorder::{SccTopoOrder, SlashBurn};

fn community_graph(seed: u64) -> CsrGraph {
    shuffle_labels(
        &planted_partition(PlantedPartitionConfig {
            num_vertices: 1_200,
            num_edges: 10_000,
            communities: 12,
            p_intra: 0.85,
            gamma: 2.4,
            seed,
        }),
        seed ^ 0xc0de,
    )
}

#[test]
fn gograph_metric_beats_every_baseline() {
    for seed in [1u64, 7, 42] {
        let g = community_graph(seed);
        let baselines: Vec<Box<dyn Reorderer>> = vec![
            Box::new(DefaultOrder),
            Box::new(DegSort::default()),
            Box::new(HubSort::default()),
            Box::new(HubCluster::default()),
            Box::new(RabbitOrder::default()),
            Box::new(Gorder::default()),
            Box::new(SlashBurn::default()),
            Box::new(RandomOrder { seed }),
        ];
        let m_go = metric(&g, &GoGraph::default().run(&g));
        for b in baselines {
            let m_b = metric(&g, &b.reorder(&g));
            assert!(
                m_go > m_b,
                "seed {seed}: GoGraph M {m_go} <= {} M {m_b}",
                b.name()
            );
        }
    }
}

#[test]
fn random_order_is_near_half() {
    // The §IV-B yardstick: a random order makes each loop-free edge
    // positive with probability 1/2.
    let g = community_graph(5);
    let m = metric(&g, &RandomOrder { seed: 99 }.reorder(&g));
    let frac = m as f64 / g.num_edges() as f64;
    assert!((0.45..0.55).contains(&frac), "random M/|E| = {frac}");
}

#[test]
fn scc_topo_beats_gograph_on_pure_dags() {
    // §III: on a DAG topological sorting is optimal. Citation-style BA
    // graphs are DAGs, so SccTopo reaches M = |E| while GoGraph's greedy
    // gets close but not exact.
    let g = shuffle_labels(&barabasi_albert(2_000, 4, 11), 3);
    let m_topo = metric(&g, &SccTopoOrder.reorder(&g));
    let m_go = metric(&g, &GoGraph::default().run(&g));
    assert_eq!(m_topo, g.num_edges());
    assert!(m_go <= m_topo);
    assert!(2 * m_go >= g.num_edges());
}

#[test]
fn gograph_beats_scc_topo_metric_on_cyclic_graphs() {
    // On heavily cyclic graphs the MAS approach has no intra-SCC
    // guarantee while GoGraph's insertion keeps Lemma 2 everywhere.
    let mut b = GraphBuilder::new();
    // 20 disjoint 10-cycles plus sparse inter-cycle edges.
    for c in 0..20u32 {
        for i in 0..10u32 {
            b.add_edge(c * 10 + i, c * 10 + (i + 1) % 10, 1.0);
        }
        if c > 0 {
            b.add_edge(c * 10, (c - 1) * 10 + 5, 1.0);
        }
    }
    let g = b.build();
    let m_topo = metric(&g, &SccTopoOrder.reorder(&g));
    let m_go = metric(&g, &GoGraph::default().run(&g));
    assert!(
        m_go > m_topo,
        "gograph {m_go} should beat scc-topo {m_topo} on cycles"
    );
}

#[test]
fn hub_orderings_place_hubs_first() {
    let g = community_graph(9);
    let avg = 2.0 * g.num_edges() as f64 / g.num_vertices() as f64;
    for method in [
        Box::new(HubSort::default()) as Box<dyn Reorderer>,
        Box::new(HubCluster::default()),
    ] {
        let p = method.reorder(&g);
        let first = p.vertex_at(0);
        assert!(
            g.degree(first) as f64 > avg,
            "{}: first vertex degree {} not a hub (avg {avg})",
            method.name(),
            g.degree(first)
        );
    }
}

#[test]
fn all_methods_agree_on_pagerank_fixpoint_after_relabeling() {
    let g = community_graph(13);
    let reference = Pipeline::on(&g)
        .algorithm(PageRank::default())
        .execute()
        .unwrap()
        .stats;
    let ref_sum: f64 = reference.final_states.iter().sum();
    let methods: Vec<Box<dyn Reorderer>> = vec![
        Box::new(GoGraph::default()),
        Box::new(RabbitOrder::default()),
        Box::new(SlashBurn::default()),
        Box::new(SccTopoOrder),
    ];
    for m in methods {
        let name = m.name();
        let r = Pipeline::on(&g)
            .reorder(m)
            .relabel(true)
            .algorithm(PageRank::default())
            .execute()
            .unwrap();
        let sum: f64 = r.stats.final_states.iter().sum();
        assert!(
            (sum - ref_sum).abs() / ref_sum < 1e-5,
            "{name}: mass {sum} vs reference {ref_sum}"
        );
        // Per-vertex check through the permutation (state_of maps
        // original ids through the relabeling).
        for v in 0..g.num_vertices() as u32 {
            let expected = reference.final_states[v as usize];
            let got = r.state_of(v);
            assert!(
                (expected - got).abs() < 1e-4,
                "{name}: vertex {v} {expected} vs {got}"
            );
        }
    }
}

#[test]
fn refinement_composes_with_any_order() {
    use gograph::core::refine_adjacent_swaps;
    let g = community_graph(21);
    for method in [
        Box::new(DefaultOrder) as Box<dyn Reorderer>,
        Box::new(DegSort::default()),
        Box::new(GoGraph::default()),
    ] {
        let order = method.reorder(&g);
        let r = refine_adjacent_swaps(&g, &order, 30);
        assert!(r.metric_after >= r.metric_before, "{}", method.name());
        r.order.validate().unwrap();
    }
}

/// The thesis made measurable on storage: an order that puts neighbors
/// near each other shrinks the delta-varint gaps, so the GoGraph order
/// must compress a scrambled RMAT graph strictly better than the
/// scramble does — and unit weights cost no bytes at all.
#[test]
fn gograph_order_compresses_better_than_a_random_one() {
    use gograph::graph::stats::bytes_per_edge;
    for scale in [10, 12] {
        let random = shuffle_labels(&rmat(RmatConfig::graph500(scale, 8, 42)), 7);
        let reordered = random
            .relabeled(&GoGraph::default().run(&random))
            .compress();
        assert_eq!(
            reordered.weight_bytes(),
            0,
            "unit-weight RMAT must drop its weight streams"
        );
        let (random_bpe, gograph_bpe) = (
            bytes_per_edge(&random.compress()),
            bytes_per_edge(&reordered),
        );
        assert!(
            gograph_bpe < random_bpe,
            "scale {scale}: {gograph_bpe:.3} vs {random_bpe:.3} bytes/edge"
        );
    }
}
