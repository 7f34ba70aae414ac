//! Property tests of the incremental order maintainer under arbitrary
//! interleavings of edge insertions and deletions: after any script of
//! updates, the maintained order must still be a valid permutation and
//! the maintainer's materialized graph must equal a from-scratch
//! [`GraphBuilder`] build of the surviving edge set.

use gograph_core::{metric, IncrementalGoGraph};
use gograph_graph::{EdgeUpdate, GraphBuilder, Permutation};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A random update script: a vertex count and a sequence of
/// (kind, u, v) ops where kind 0/1 inserts and kind 2 removes.
fn arb_script() -> impl Strategy<Value = (usize, Vec<(u32, u32, u32)>)> {
    (2usize..24).prop_flat_map(|n| {
        proptest::collection::vec((0u32..3, 0u32..n as u32, 0u32..n as u32), 0..100)
            .prop_map(move |ops| (n, ops))
    })
}

/// Replays a script through [`IncrementalGoGraph::apply_updates`] while
/// mirroring the surviving edge set (self-loops and duplicates are
/// skipped exactly like the maintainer skips them).
fn replay(n: usize, ops: &[(u32, u32, u32)]) -> (IncrementalGoGraph, BTreeSet<(u32, u32)>) {
    let mut inc = IncrementalGoGraph::new(n);
    let mut mirror: BTreeSet<(u32, u32)> = BTreeSet::new();
    for &(kind, u, v) in ops {
        if kind == 2 {
            inc.apply_updates(&[EdgeUpdate::remove(u, v)]);
            mirror.remove(&(u, v));
        } else {
            inc.apply_updates(&[EdgeUpdate::insert(u, v)]);
            if u != v {
                mirror.insert((u, v));
            }
        }
    }
    (inc, mirror)
}

/// A random maintenance stream over every mutating entry point: a
/// vertex count and `(kind, a, b)` steps — see [`step`].
fn arb_stream() -> impl Strategy<Value = (usize, Vec<(u32, u32, u32)>)> {
    (2usize..16).prop_flat_map(|n| {
        proptest::collection::vec((0u32..6, any::<u32>(), any::<u32>()), 0..80)
            .prop_map(move |steps| (n, steps))
    })
}

/// Applies one step of a stream: kinds 0–2 `add_edge`, 3 `remove_edge`,
/// 4 `add_vertex`, 5 nothing. Odd `b` also commits the order, so later
/// reads patch bases of every age.
fn step(inc: &mut IncrementalGoGraph, (kind, a, b): (u32, u32, u32)) {
    let n = inc.num_vertices() as u32;
    match kind {
        0..=2 => inc.add_edge(a % n, b % n),
        3 => {
            inc.remove_edge(a % n, b % n);
        }
        4 if n < 24 => {
            inc.add_vertex();
        }
        _ => {}
    }
    if b % 2 == 1 {
        inc.commit_order();
    }
}

/// The maintained order and `M(O)/|E|` against their from-scratch
/// definitions: a full sort of the `val` keys (ties by id), and a sweep
/// over every edge comparing its endpoints' keys.
fn assert_matches_oracles(inc: &IncrementalGoGraph) {
    let (vals, _, _) = inc.order_state();
    assert_eq!(inc.current_order(), Permutation::from_float_keys(&vals));
    let g = inc.to_graph();
    let positive = g
        .edges()
        .filter(|e| vals[e.src as usize] < vals[e.dst as usize])
        .count();
    let expected = if g.num_edges() == 0 {
        1.0
    } else {
        positive as f64 / g.num_edges() as f64
    };
    assert_eq!(inc.positive_fraction().to_bits(), expected.to_bits());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn any_interleaving_keeps_order_valid_and_graph_in_sync(
        (n, ops) in arb_script()
    ) {
        let (inc, mirror) = replay(n, &ops);

        // The maintained order is a valid permutation of all vertices.
        let order = inc.current_order();
        prop_assert!(order.validate().is_ok(), "order invalid: {:?}", order.validate());
        prop_assert_eq!(order.len(), n);

        // The maintainer's adjacency equals a from-scratch build of the
        // surviving edge set.
        prop_assert_eq!(inc.num_edges(), mirror.len());
        let mut b = GraphBuilder::with_capacity(n, mirror.len());
        b.reserve_vertices(n);
        for &(u, v) in &mirror {
            b.add_edge(u, v, 1.0);
        }
        prop_assert_eq!(inc.to_graph(), b.build());

        // The drift signal agrees with the metric on the materialized
        // graph and order.
        let g = inc.to_graph();
        let expected = if g.num_edges() == 0 {
            1.0
        } else {
            metric(&g, &order) as f64 / g.num_edges() as f64
        };
        prop_assert!(
            (inc.positive_fraction() - expected).abs() < 1e-12,
            "positive_fraction {} vs metric fraction {expected}",
            inc.positive_fraction()
        );
    }

    #[test]
    fn insert_only_scripts_keep_the_half_positive_bound(
        (n, ops) in arb_script()
    ) {
        // Theorem 2's M >= |E|/2 guarantee is proven for insertion-style
        // construction; filter the script down to its insertions.
        let inserts: Vec<(u32, u32, u32)> =
            ops.into_iter().filter(|&(k, _, _)| k != 2).collect();
        let (inc, mirror) = replay(n, &inserts);
        let g = inc.to_graph();
        let m = metric(&g, &inc.current_order());
        prop_assert!(
            2 * m >= mirror.len(),
            "insert-only order violates the |E|/2 bound: {m} of {}",
            mirror.len()
        );
    }

    #[test]
    fn removal_is_the_inverse_of_insertion(
        (n, ops) in arb_script()
    ) {
        // Inserting a script's edges then removing them all must land
        // back on an empty graph with a full-length valid order.
        let inserts: Vec<(u32, u32, u32)> =
            ops.into_iter().filter(|&(k, _, _)| k != 2).collect();
        let (mut inc, mirror) = replay(n, &inserts);
        for &(u, v) in &mirror {
            prop_assert!(inc.remove_edge(u, v));
        }
        prop_assert_eq!(inc.num_edges(), 0);
        prop_assert_eq!(inc.to_graph().num_edges(), 0);
        let order = inc.current_order();
        prop_assert!(order.validate().is_ok());
        prop_assert_eq!(order.len(), n);
    }

    #[test]
    fn maintained_order_and_counter_match_their_oracles_after_every_step(
        (n, steps) in arb_stream()
    ) {
        let mut inc = IncrementalGoGraph::new(n);
        assert_matches_oracles(&inc);
        for &s in &steps {
            step(&mut inc, s);
            assert_matches_oracles(&inc);
        }
    }

    #[test]
    fn resumed_maintainer_matches_the_oracles_and_the_original(
        (n, steps) in arb_stream(),
        cut in 0usize..80
    ) {
        let (head, tail) = steps.split_at(cut.min(steps.len()));
        let mut inc = IncrementalGoGraph::new(n);
        for &s in head {
            step(&mut inc, s);
        }
        let (vals, lo, hi) = inc.order_state();
        let mut resumed =
            IncrementalGoGraph::from_graph_with_saved_order(&inc.to_graph(), &vals, lo, hi);
        assert_matches_oracles(&resumed);
        for &s in tail {
            step(&mut inc, s);
            step(&mut resumed, s);
            assert_matches_oracles(&resumed);
            prop_assert_eq!(resumed.current_order(), inc.current_order());
            prop_assert_eq!(resumed.positive_fraction(), inc.positive_fraction());
        }
    }
}
