//! Differential suite for compressed (packed row block) storage: for
//! {PageRank, SSSP, CC, BFS} × {async, worklist, parallel(1,2)} ×
//! {Auto, PullOnly, PushOnly} × graph sizes around the row-block
//! height, running on a compressed graph that took one update batch
//! must reproduce the states of the flat graph that took it
//! **bit-identically** — the delta-varint decoder yields neighbors in
//! exactly the flat order, so every float op sequence is unchanged.
//! (Sole exception: sum-norm PageRank under the racing block-parallel
//! engine at >1 block, which is only pinned within convergence
//! tolerance, same as the direction suite.)
//!
//! Also property-tests the codec itself (encode→decode is the
//! identity on strictly-ascending neighbor lists) and pins that
//! corrupt or truncated compressed binary sections surface as `Err`,
//! never a panic.

use gograph::engine::execute;
use gograph::graph::compressed::{decode_row_with, encode_row};
use gograph::graph::io::{compressed_from_binary, compressed_to_binary};
use gograph::prelude::*;
use proptest::prelude::*;

/// Fixed-seed weighted power-law community workload under a GoGraph
/// order (positions ≠ ids), same shape as the direction suite.
fn workload() -> (CsrGraph, Permutation) {
    let g = weighted_graph(500);
    let order = GoGraph::default().run(&g);
    (g, order)
}

/// A weighted power-law community graph of `n` vertices and `7.2 n`
/// edges, labels shuffled.
fn weighted_graph(n: usize) -> CsrGraph {
    with_random_weights(
        &shuffle_labels(
            &planted_partition(PlantedPartitionConfig {
                num_vertices: n,
                num_edges: n * 36 / 5,
                communities: 7,
                p_intra: 0.8,
                gamma: 2.4,
                seed: 2026,
            }),
            0x11,
        ),
        1.0,
        5.0,
        0x12,
    )
}

/// One update batch over `g`: removes every fifth edge, re-weights
/// every ninth, and inserts a chord from every seventh vertex.
fn batch(g: &CsrGraph) -> Vec<EdgeUpdate> {
    let n = g.num_vertices() as u32;
    let mut updates: Vec<EdgeUpdate> = (g.edges().step_by(5))
        .map(|e| EdgeUpdate::remove(e.src, e.dst))
        .collect();
    updates.extend(
        (g.edges().skip(1).step_by(9)).map(|e| EdgeUpdate::insert_weighted(e.src, e.dst, 0.5)),
    );
    updates.extend(
        (0..n)
            .step_by(7)
            .map(|v| EdgeUpdate::insert_weighted(v, (v * 31 + 11) % n, 2.5)),
    );
    updates
}

fn algorithms() -> Vec<(&'static str, Box<dyn IterativeAlgorithm>, bool)> {
    // (name, algorithm, exact-everywhere): max-norm algorithms are
    // bit-exact even under the racing parallel engine.
    vec![
        ("pagerank", Box::new(PageRank::default()), false),
        ("sssp", Box::new(Sssp::new(0)), true),
        ("cc", Box::new(ConnectedComponents), true),
        ("bfs", Box::new(Bfs::new(0)), true),
    ]
}

/// Graph sizes to cross with the matrix: one row short of a row block,
/// one block, one row past it, and three blocks with a partial tail.
const SIZES: [usize; 4] = [63, 64, 65, 200];

fn run_with(
    g: &CsrGraph,
    order: &Permutation,
    mode: Mode,
    alg: &dyn IterativeAlgorithm,
    direction: DirectionPolicy,
) -> RunStats {
    let cfg = RunConfig {
        direction,
        ..Default::default()
    };
    execute(g, AlgorithmRef::Gather(alg), mode, order, &cfg, None).expect("valid run")
}

#[test]
fn compressed_storage_matches_flat_across_the_engine_matrix() {
    // Each graph takes one batch in both encodings before the runs.
    let graphs: Vec<(CsrGraph, CsrGraph, Permutation)> = SIZES
        .iter()
        .map(|&n| {
            let g = weighted_graph(n);
            let updates = batch(&g);
            let (flat, c) = (
                g.apply_updates(&updates),
                g.compress().apply_updates(&updates),
            );
            assert!(c.is_compressed());
            let order = GoGraph::default().run(&flat);
            (flat, c, order)
        })
        .collect();
    for mode in [
        Mode::Async,
        Mode::Worklist,
        Mode::Parallel(1),
        Mode::Parallel(2),
    ] {
        for (name, alg, exact) in algorithms() {
            let alg = alg.as_ref();
            let mut policies = vec![DirectionPolicy::Auto, DirectionPolicy::PullOnly];
            if alg.supports_push() {
                policies.push(DirectionPolicy::PushOnly);
            }
            for policy in policies {
                for (g, c, order) in &graphs {
                    let flat = run_with(g, order, mode, alg, policy);
                    let label = format!("{name}/{}/{policy:?}/n={}", mode.name(), g.num_vertices());
                    assert!(flat.converged, "{label} flat");
                    let got = run_with(c, order, mode, alg, policy);
                    assert!(got.converged, "{label}");
                    // The racing accumulates of sum-norm PageRank at
                    // >1 block are the one tolerance carve-out.
                    let racing = matches!(mode, Mode::Parallel(b) if b > 1);
                    if exact || !racing {
                        assert_eq!(
                            flat.final_states, got.final_states,
                            "{label}: compressed states must be bit-identical"
                        );
                        // Racing blocks land on the same max-norm states
                        // every time but not in the same number of
                        // rounds (whether a block sees its neighbour's
                        // write within a round is up to the scheduler),
                        // so only the other modes' rounds must repeat.
                        if !racing {
                            assert_eq!(flat.rounds, got.rounds, "{label}: rounds drifted");
                        }
                    } else {
                        for (i, (a, b)) in
                            flat.final_states.iter().zip(&got.final_states).enumerate()
                        {
                            assert!(
                                (a - b).abs() < 1e-4,
                                "{label}: vertex {i} diverged ({a} vs {b})"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn sync_engine_matches_on_compressed_storage_too() {
    // The sync engine's dense sweep declines its cache-blocked variant
    // on compressed storage and must still agree bit-for-bit (the
    // blocked path only ever changes visit order on flat storage).
    let (g, order) = workload();
    let c = g.compress();
    for (name, alg, _) in algorithms() {
        let alg = alg.as_ref();
        for policy in [DirectionPolicy::Auto, DirectionPolicy::PullOnly] {
            let flat = run_with(&g, &order, Mode::Sync, alg, policy);
            let got = run_with(&c, &order, Mode::Sync, alg, policy);
            assert_eq!(
                flat.final_states, got.final_states,
                "{name}/sync/{policy:?}: compressed states must be bit-identical"
            );
        }
    }
}

#[test]
fn unit_weight_compression_is_still_bit_identical() {
    // The compressed backend drops all-1.0 weight streams and
    // substitutes the constant in the gather; that substitution must be
    // invisible to every algorithm, weighted gathers included.
    let (g, order) = {
        let g = shuffle_labels(
            &planted_partition(PlantedPartitionConfig {
                num_vertices: 400,
                num_edges: 2_500,
                communities: 5,
                p_intra: 0.8,
                gamma: 2.4,
                seed: 7,
            }),
            3,
        );
        let order = GoGraph::default().run(&g);
        (g, order)
    };
    let c = g.compress();
    assert_eq!(c.weight_bytes(), 0, "unit weights must be dropped");
    for mode in [Mode::Async, Mode::Worklist, Mode::Parallel(2)] {
        for (name, alg, _) in algorithms() {
            let alg = alg.as_ref();
            let flat = run_with(&g, &order, mode, alg, DirectionPolicy::Auto);
            let got = run_with(&c, &order, mode, alg, DirectionPolicy::Auto);
            // Unweighted: even PageRank's trajectory is deterministic
            // per engine except racing blocks; async/worklist exact.
            if !matches!(mode, Mode::Parallel(b) if b > 1)
                || alg.norm() == gograph::engine::ConvergenceNorm::Max
            {
                assert_eq!(
                    flat.final_states,
                    got.final_states,
                    "{name}/{} unit-weight",
                    mode.name()
                );
            }
        }
    }
}

proptest! {
    /// encode→decode is the identity on any strictly-ascending list.
    #[test]
    fn codec_roundtrips_neighbor_lists(
        v in 0u32..10_000,
        mut raw in proptest::collection::vec(0u32..20_000, 0..200),
    ) {
        raw.sort_unstable();
        raw.dedup();
        let mut bytes = Vec::new();
        encode_row(v, &raw, &mut bytes);
        let mut back = Vec::with_capacity(raw.len());
        decode_row_with(v, &bytes, |u| back.push(u));
        prop_assert_eq!(raw, back);
    }

    /// Any truncation or single-byte corruption of the compressed
    /// binary image is an `Err`, never a panic and never a silently
    /// different graph.
    #[test]
    fn corrupt_compressed_sections_are_err(seed in 0u64..50, cut_at in 0usize..500, flip in 0usize..2_000) {
        let g = with_random_weights(&erdos_renyi(60, 220, seed), 1.0, 4.0, seed ^ 1)
            .compress();
        let bytes = compressed_to_binary(&g);
        let cut = cut_at.min(bytes.len().saturating_sub(1));
        prop_assert!(compressed_from_binary(&bytes[..cut]).is_err());
        let mut bad = bytes.to_vec();
        let i = flip % bad.len();
        bad[i] ^= 0x55;
        match compressed_from_binary(&bad) {
            Err(_) => {}
            Ok(loaded) => {
                // A flip may hit an unprotected weight byte; the graph
                // structure must still match the original exactly.
                prop_assert_eq!(loaded.num_vertices(), g.num_vertices());
                prop_assert_eq!(loaded.num_edges(), g.num_edges());
                for v in 0..g.num_vertices() as u32 {
                    let mut a = Vec::new();
                    let mut b = Vec::new();
                    g.for_each_out_neighbor(v, |u| a.push(u));
                    loaded.for_each_out_neighbor(v, |u| b.push(u));
                    prop_assert_eq!(&a, &b, "adjacency changed at v={}", v);
                }
            }
        }
    }
}
