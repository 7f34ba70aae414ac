//! Property tests of the graph substrate's structural invariants.

use gograph_graph::csr::BLOCK_ROWS;
use gograph_graph::generators::regular::chain;
use gograph_graph::{CsrGraph, EdgeUpdate, GraphBuilder, Permutation};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_edges() -> impl Strategy<Value = (usize, Vec<(u32, u32, f64)>)> {
    (2usize..50).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 0.5f64..9.5), 0..n * 3);
        (Just(n), edges)
    })
}

fn build(n: usize, edges: &[(u32, u32, f64)]) -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    b.reserve_vertices(n);
    for &(u, v, w) in edges {
        b.add_edge(u, v, w);
    }
    b.build()
}

/// Raw material for one `apply_updates` case: a vertex count (0 = the
/// empty graph) spanning up to three row blocks and a partial fourth,
/// seed edges and update ops as unreduced endpoint draws —
/// [`splice_case`] folds them into range — [`Shape`] switches, and the
/// split point of a two-batch replay.
type RawSpliceCase = (
    usize,
    Vec<(u32, u32, f64)>,
    Vec<(u32, u32, u32, f64)>,
    Shape,
    usize,
);

/// `(sweep, compressed, grow, empty_rows, ends)`; see [`splice_case`].
type Shape = (bool, bool, bool, bool, bool);

fn arb_splice_case() -> impl Strategy<Value = RawSpliceCase> {
    (
        0usize..3 * BLOCK_ROWS + 24,
        proptest::collection::vec((any::<u32>(), any::<u32>(), 0.5f64..9.5), 0..200),
        proptest::collection::vec((0u32..3, any::<u32>(), any::<u32>(), 0.5f64..9.5), 0..60),
        (
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
        ),
        0usize..80,
    )
}

/// The seed graph and update batch of a raw case. Seed endpoints fold
/// into `0..n`; update endpoints into `0..n + 6`, so inserts grow the
/// vertex set past several empty rows and removes name absent rows. The
/// few ids and many ops make duplicate pairs, remove-then-insert and
/// insert-then-remove of one pair, and removes of absent edges routine.
/// The shape switches add, in front of those ops:
/// - `sweep`: one op per existing row, so every row is merged;
/// - `grow`: an insert to `n + 2·BLOCK_ROWS + 1`, so the graph gains at
///   least two blocks, and op endpoints spread over the new rows too;
/// - `empty_rows`: removes of every out-edge of the row with the most
///   and every in-edge of the row with the most, leaving both empty;
/// - `ends`: inserts and removes in row 0 and in the last row.
fn splice_case(
    n: usize,
    edges: &[(u32, u32, f64)],
    ops: &[(u32, u32, u32, f64)],
    (sweep, grow, empty_rows, ends): (bool, bool, bool, bool),
) -> (CsrGraph, Vec<EdgeUpdate>) {
    let seed: Vec<(u32, u32, f64)> = edges
        .iter()
        .filter(|_| n > 0)
        .map(|&(u, v, w)| (u % n as u32, v % n as u32, w))
        .collect();
    let g = build(n, &seed);
    let last = n as u32 - u32::from(n > 0);
    let grown = n as u32 + 2 * BLOCK_ROWS as u32 + 1;
    let span = if grow { grown + 6 } else { n as u32 + 6 };
    let mut updates = Vec::new();
    if sweep {
        for v in 0..n as u32 {
            updates.push(if v % 2 == 0 {
                EdgeUpdate::insert_weighted(v, (v + 1) % n as u32, 0.25)
            } else {
                EdgeUpdate::remove(v, (v * 7 + 3) % n as u32)
            });
        }
    }
    if grow {
        updates.push(EdgeUpdate::insert_weighted(n as u32 / 2, grown, 1.5));
    }
    if empty_rows && n > 0 {
        let busiest_out = g.vertices().max_by_key(|&v| g.out_degree(v)).unwrap();
        let busiest_in = g.vertices().max_by_key(|&v| g.in_degree(v)).unwrap();
        updates.extend(
            g.out_neighbors(busiest_out)
                .iter()
                .map(|&w| EdgeUpdate::remove(busiest_out, w)),
        );
        updates.extend(
            g.in_neighbors(busiest_in)
                .iter()
                .map(|&u| EdgeUpdate::remove(u, busiest_in)),
        );
    }
    if ends && n > 0 {
        updates.push(EdgeUpdate::insert_weighted(0, last, 4.5));
        updates.push(EdgeUpdate::insert_weighted(last, 0, 0.75));
        updates.push(EdgeUpdate::insert_weighted(last, last, 2.0));
        if let Some(&w) = g.out_neighbors(last).first() {
            updates.push(EdgeUpdate::remove(last, w));
        }
        if let Some(&u) = g.in_neighbors(0).last() {
            updates.push(EdgeUpdate::remove(u, 0));
        }
    }
    for &(kind, a, b, w) in ops {
        updates.push(if kind == 2 {
            EdgeUpdate::remove(a % span, b % span)
        } else {
            EdgeUpdate::insert_weighted(a % span, b % span, w)
        });
    }
    (g, updates)
}

/// A from-scratch [`GraphBuilder`] build of what survives replaying
/// `updates` one by one over `g`'s edges — the sequential semantics
/// `apply_updates` promises.
fn rebuilt(g: &CsrGraph, updates: &[EdgeUpdate]) -> CsrGraph {
    let mut edges: BTreeMap<(u32, u32), f64> =
        g.edges().map(|e| ((e.src, e.dst), e.weight)).collect();
    let mut n = g.num_vertices();
    for up in updates {
        match *up {
            EdgeUpdate::Insert { src, dst, weight } => {
                n = n.max(src as usize + 1).max(dst as usize + 1);
                let w = edges.entry((src, dst)).or_insert(weight);
                *w = w.min(weight);
            }
            EdgeUpdate::Remove { src, dst } => {
                edges.remove(&(src, dst));
            }
        }
    }
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    b.reserve_vertices(n);
    for (&(u, v), &w) in &edges {
        b.add_edge(u, v, w);
    }
    b.build()
}

/// Row by row in both directions, the degree cache, and `==` (which
/// also compares the block layout).
fn assert_same_rows(spliced: &CsrGraph, expected: &CsrGraph) {
    assert!(!spliced.is_compressed());
    assert_eq!(spliced.num_vertices(), expected.num_vertices());
    assert_eq!(spliced.num_edges(), expected.num_edges());
    for v in expected.vertices() {
        assert_eq!(
            spliced.out_neighbors(v),
            expected.out_neighbors(v),
            "out row {v}"
        );
        assert_eq!(
            spliced.out_weights(v),
            expected.out_weights(v),
            "out weights {v}"
        );
        assert_eq!(
            spliced.in_neighbors(v),
            expected.in_neighbors(v),
            "in row {v}"
        );
        assert_eq!(
            spliced.in_weights(v),
            expected.in_weights(v),
            "in weights {v}"
        );
    }
    assert_eq!(spliced.out_degrees(), expected.out_degrees());
    assert_eq!(spliced, expected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn out_and_in_adjacency_are_consistent((n, edges) in arb_edges()) {
        let g = build(n, &edges);
        // Every out-edge appears as an in-edge with the same weight, and
        // counts match.
        let mut out_count = 0usize;
        for u in 0..n as u32 {
            let outs = g.out_neighbors(u);
            let ws = g.out_weights(u);
            out_count += outs.len();
            for (i, &v) in outs.iter().enumerate() {
                let ins = g.in_neighbors(v);
                let iws = g.in_weights(v);
                let pos = ins.iter().position(|&x| x == u);
                prop_assert!(pos.is_some(), "missing in-edge {u}->{v}");
                prop_assert_eq!(iws[pos.unwrap()], ws[i]);
            }
        }
        prop_assert_eq!(out_count, g.num_edges());
    }

    #[test]
    fn neighbor_lists_sorted_and_deduplicated((n, edges) in arb_edges()) {
        let g = build(n, &edges);
        for v in 0..n as u32 {
            let outs = g.out_neighbors(v);
            prop_assert!(outs.windows(2).all(|w| w[0] < w[1]), "unsorted/dup out list");
            let ins = g.in_neighbors(v);
            prop_assert!(ins.windows(2).all(|w| w[0] < w[1]), "unsorted/dup in list");
        }
    }

    #[test]
    fn double_reverse_is_identity((n, edges) in arb_edges()) {
        let g = build(n, &edges);
        prop_assert_eq!(g.reversed().reversed(), g);
    }

    #[test]
    fn reverse_swaps_degrees((n, edges) in arb_edges()) {
        let g = build(n, &edges);
        let r = g.reversed();
        for v in 0..n as u32 {
            prop_assert_eq!(g.out_degree(v), r.in_degree(v));
            prop_assert_eq!(g.in_degree(v), r.out_degree(v));
        }
    }

    #[test]
    fn induced_subgraph_edges_are_exactly_internal((n, edges) in arb_edges(), split in 1usize..49) {
        let g = build(n, &edges);
        let take = split.min(n);
        let subset: Vec<u32> = (0..take as u32).collect();
        let (sub, mapping) = g.induced_subgraph(&subset);
        prop_assert_eq!(mapping.len(), take);
        // Subgraph edge count == original edges with both endpoints inside.
        let expected = g
            .edges()
            .filter(|e| (e.src as usize) < take && (e.dst as usize) < take)
            .count();
        prop_assert_eq!(sub.num_edges(), expected);
        for e in sub.edges() {
            prop_assert!(g.has_edge(mapping[e.src as usize], mapping[e.dst as usize]));
        }
    }

    /// Row-wise relabelling equals relabelling through the builder — a
    /// global sort and merge of every edge — on weighted graphs over
    /// several row blocks whose last quarter of vertices is isolated,
    /// under a random, the identity and the reversed permutation, from
    /// either encoding.
    #[test]
    fn relabeled_equals_the_builder_path(
        (n, edges) in (1usize..3 * BLOCK_ROWS).prop_flat_map(|n| {
            let span = (n as u32 * 3 / 4).max(1);
            (Just(n), proptest::collection::vec((0..span, 0..span, 0.5f64..9.5), 0..n * 3))
        }),
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let g = build(n, &edges);
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for i in (1..n).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        let random = Permutation::from_order(order);
        for perm in [random, Permutation::identity(n), Permutation::identity(n).reversed()] {
            let mut b = GraphBuilder::with_capacity(n, g.num_edges());
            b.reserve_vertices(n);
            for e in g.edges() {
                b.add_edge(perm.new_id(e.src), perm.new_id(e.dst), e.weight);
            }
            let expected = b.build();
            prop_assert_eq!(&g.relabeled(&perm), &expected);
            prop_assert_eq!(&g.compress().relabeled(&perm), &expected);
        }
    }

    #[test]
    fn relabel_composes((n, edges) in arb_edges(), s1 in 0u64..100, s2 in 0u64..100) {
        use rand::{Rng, SeedableRng};
        let g = build(n, &edges);
        let shuffle = |seed: u64| {
            let mut order: Vec<u32> = (0..n as u32).collect();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            for i in (1..n).rev() {
                let j = rng.random_range(0..=i);
                order.swap(i, j);
            }
            Permutation::from_order(order)
        };
        let (p1, p2) = (shuffle(s1), shuffle(s2));
        // Relabeling by p1 then p2 equals relabeling by p1.then(p2).
        let two_step = g.relabeled(&p1).relabeled(&p2);
        let one_step = g.relabeled(&p1.then(&p2));
        prop_assert_eq!(two_step, one_step);
    }

    #[test]
    fn apply_updates_splice_equals_rebuild(
        (n, edges, ops, (sweep, compressed, grow, empty_rows, ends), cut) in arb_splice_case()
    ) {
        let (flat, updates) = splice_case(n, &edges, &ops, (sweep, grow, empty_rows, ends));
        let g = if compressed { flat.compress() } else { flat.clone() };
        let expected = rebuilt(&flat, &updates);
        // A batch keeps the graph's encoding.
        let check = |spliced: CsrGraph| {
            assert_eq!(spliced.is_compressed(), compressed);
            assert_same_rows(&spliced.decompress(), &expected);
        };
        check(g.apply_updates(&updates));
        if grow {
            assert!(expected.num_vertices().div_ceil(BLOCK_ROWS) >= n.div_ceil(BLOCK_ROWS) + 2);
        }
        // Two chained batches land on the same graph as the one batch.
        let (first, second) = updates.split_at(cut.min(updates.len()));
        check(g.apply_updates(first).apply_updates(second));
        // The input is never disturbed.
        prop_assert_eq!(g.decompress(), flat);
    }

    #[test]
    fn compressed_batches_equal_flat_batches(
        (n, edges, ops, (sweep, _, grow, empty_rows, ends), _) in arb_splice_case()
    ) {
        let (flat, updates) = splice_case(n, &edges, &ops, (sweep, grow, empty_rows, ends));
        let c = flat.compress();
        let got = c.apply_updates(&updates);
        prop_assert!(got.is_compressed());
        prop_assert_eq!(&got, &flat.apply_updates(&updates).compress());
        // Every block the result does not share with its input is one a
        // batch update names, or the old last block and the new ones of
        // a graph that grew.
        let old_blocks = n.div_ceil(BLOCK_ROWS);
        let grew = got.num_vertices() > n;
        let named = |b: usize, end: fn(&EdgeUpdate) -> u32| {
            (grew && b + 1 >= old_blocks)
                || updates.iter().any(|u| end(u) as usize / BLOCK_ROWS == b)
        };
        let (out, inc) = got.rebuilt_blocks(&c);
        for b in out {
            prop_assert!(named(b, EdgeUpdate::src), "out block {} rebuilt", b);
        }
        for b in inc {
            prop_assert!(named(b, EdgeUpdate::dst), "in block {} rebuilt", b);
        }
        prop_assert_eq!(c.decompress(), flat);
    }

    #[test]
    fn binary_io_total((n, edges) in arb_edges()) {
        let g = build(n, &edges);
        let bytes = gograph_graph::io::to_binary(&g);
        prop_assert_eq!(gograph_graph::io::from_binary(&bytes).unwrap(), g);
    }

    #[test]
    fn scc_partition_is_consistent_with_reachability((n, edges) in arb_edges()) {
        let g = build(n, &edges);
        let scc = gograph_graph::scc::strongly_connected_components(&g);
        prop_assert_eq!(scc.component.len(), n);
        // Condensation must be a DAG.
        let dag = gograph_graph::scc::condensation(&g, &scc);
        prop_assert!(gograph_graph::traversal::topological_sort(&dag).is_some());
        // Sizes sum to n.
        prop_assert_eq!(scc.sizes().iter().sum::<usize>(), n);
    }
}

/// A compressed 20 000-vertex planted graph through 2 000 batches of 32
/// updates, checked against a flat copy taking the same batches every
/// 100 batches. Ignored in debug runs, which would take minutes:
/// `cargo test -p gograph-graph --release -- --ignored`.
#[test]
#[ignore]
fn compressed_updates_at_scale_match_a_flat_copy() {
    use gograph_graph::generators::{planted_partition, PlantedPartitionConfig};
    use rand::{Rng, SeedableRng};
    let mut flat = planted_partition(PlantedPartitionConfig {
        num_vertices: 20_000,
        num_edges: 120_000,
        communities: 40,
        p_intra: 0.9,
        gamma: 2.5,
        seed: 44,
    });
    let mut compressed = flat.compress();
    let mut rng = rand::rngs::StdRng::seed_from_u64(44);
    for batch in 1..=2_000 {
        // Inserts may grow the graph a little; removes take an existing
        // edge or name an absent one.
        let n = flat.num_vertices() as u32;
        let updates: Vec<EdgeUpdate> = (0..32)
            .map(|_| {
                let src = rng.random_range(0..n);
                match rng.random_range(0..4u32) {
                    0 => match flat.out_neighbors(src).first() {
                        Some(&dst) => EdgeUpdate::remove(src, dst),
                        None => EdgeUpdate::remove(src, rng.random_range(0..n)),
                    },
                    1 => EdgeUpdate::remove(src, rng.random_range(0..n)),
                    _ => EdgeUpdate::insert_weighted(
                        src,
                        rng.random_range(0..n + 2),
                        f64::from(rng.random_range(1..4u32)),
                    ),
                }
            })
            .collect();
        flat = flat.apply_updates(&updates);
        compressed = compressed.apply_updates(&updates);
        if batch % 100 == 0 {
            assert!(compressed.is_compressed());
            assert_eq!(compressed.decompress(), flat, "batch {batch}");
            assert_eq!(flat.compress(), compressed, "batch {batch}");
        }
    }
}

#[test]
fn chain_smoke() {
    // keep one deterministic anchor in this file
    let g = chain(4);
    assert_eq!(g.num_edges(), 3);
}
