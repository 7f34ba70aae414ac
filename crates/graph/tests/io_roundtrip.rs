//! Round-trip and malformed-input tests for the serialization module:
//! every format (edge-list text, compact binary, permutation text) must
//! round-trip arbitrary graphs exactly, and every malformed payload —
//! truncations, corrupt headers, out-of-range entries — must come back
//! as an `io::Result::Err`, never a panic or an allocation abort.

use gograph_graph::io::{
    compressed_from_binary, compressed_to_binary, from_binary, permutation_from_binary,
    permutation_to_binary, read_edge_list, read_permutation, to_binary, write_edge_list,
    write_permutation,
};
use gograph_graph::{CsrGraph, GraphBuilder, Permutation};
use proptest::prelude::*;

/// A random small weighted graph (possibly with trailing isolated
/// vertices, which the formats must preserve).
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (1usize..40).prop_flat_map(|n| {
        proptest::collection::vec((0u32..n as u32, 0u32..n as u32, 1.0f64..16.0), 0..3 * n)
            .prop_map(move |edges| {
                let mut b = GraphBuilder::with_capacity(n, edges.len());
                b.reserve_vertices(n);
                for (u, v, w) in edges {
                    // Quarter-weight some edges to exercise non-1.0 paths.
                    b.add_edge(u, v, if (u + v) % 3 == 0 { 1.0 } else { w });
                }
                b.build()
            })
    })
}

/// A random permutation.
fn arb_permutation() -> impl Strategy<Value = Permutation> {
    (1usize..64).prop_flat_map(|n| {
        proptest::collection::vec(0.0f64..1.0, n..=n)
            .prop_map(|keys: Vec<f64>| Permutation::from_float_keys(&keys))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn edge_list_roundtrips_any_graph(g in arb_graph()) {
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        prop_assert_eq!(read_edge_list(&buf[..]).unwrap(), g);
    }

    #[test]
    fn binary_roundtrips_any_graph(g in arb_graph()) {
        prop_assert_eq!(from_binary(&to_binary(&g)).unwrap(), g);
    }

    #[test]
    fn every_strict_binary_prefix_is_an_error(g in arb_graph()) {
        // The format carries explicit counts, so no strict prefix can
        // be valid: each one must be rejected, not panic.
        let bytes = to_binary(&g);
        for len in 0..bytes.len() {
            prop_assert!(
                from_binary(&bytes[..len]).is_err(),
                "prefix of {len} bytes parsed successfully"
            );
        }
    }

    #[test]
    fn permutation_roundtrips(p in arb_permutation()) {
        let mut buf = Vec::new();
        write_permutation(&p, &mut buf).unwrap();
        prop_assert_eq!(read_permutation(&buf[..]).unwrap(), p);
    }
}

#[test]
fn corrupt_binary_headers_are_errors_not_panics() {
    let g = CsrGraph::from_edges(3, [(0u32, 1u32), (1, 2)]);
    let good = to_binary(&g).to_vec();

    // Bad magic.
    let mut bad = good.clone();
    bad[0] ^= 0xff;
    assert!(from_binary(&bad).is_err());

    // Vertex count beyond the u32 id space: must error before any
    // offset-array allocation is attempted.
    let mut bad = good.clone();
    bad[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(from_binary(&bad).is_err());

    // Edge count whose byte size overflows u64 (a debug-mode multiply
    // panic before the fix) and one that merely exceeds the payload.
    for claimed in [u64::MAX, u64::MAX / 16, 1_000_000] {
        let mut bad = good.clone();
        bad[16..24].copy_from_slice(&claimed.to_le_bytes());
        assert!(
            from_binary(&bad).is_err(),
            "claimed edge count {claimed} must be rejected"
        );
    }
}

#[test]
fn binary_edge_endpoints_outside_declared_range_are_errors() {
    let g = CsrGraph::from_edges(3, [(0u32, 1u32), (1, 2)]);
    let mut bad = to_binary(&g).to_vec();
    // First edge record starts at byte 24; corrupt its src to a huge id
    // that would otherwise balloon the vertex count during rebuild.
    bad[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(from_binary(&bad).is_err());
}

/// The flat format has one encoding per graph: edge records strictly
/// ascending in `(src, dst)`. A record out of that order, or one naming
/// the pair before it again, is refused with the record's index and
/// offset, where a builder would sort or merge it into some graph.
#[test]
fn binary_edge_records_out_of_order_or_repeated_are_errors() {
    let g = CsrGraph::from_edges(4, [(0u32, 1u32, 2.5), (1, 2, 1.0), (3, 0, 0.5)]);
    let good = to_binary(&g);
    let record = |i: usize| 24 + 16 * i..24 + 16 * (i + 1);

    let mut swapped = good.clone();
    swapped[record(1)].copy_from_slice(&good[record(2)]);
    swapped[record(2)].copy_from_slice(&good[record(1)]);
    let err = from_binary(&swapped).unwrap_err().to_string();
    assert!(err.contains("edges at byte 56"), "{err}");
    assert!(err.contains("edge 2 does not follow edge 1"), "{err}");

    let mut repeated = good.clone();
    repeated[record(1)].copy_from_slice(&good[record(0)]);
    let err = from_binary(&repeated).unwrap_err().to_string();
    assert!(err.contains("edges at byte 40"), "{err}");
    assert!(err.contains("edge 1 does not follow edge 0"), "{err}");
}

/// Every binary format holds exactly one value: bytes after its last
/// section are refused, as the flat format always did.
#[test]
fn compressed_and_permutation_binaries_refuse_trailing_bytes() {
    let g = CsrGraph::from_edges(4, [(0u32, 1u32, 2.5), (1, 2, 1.0), (3, 0, 0.5)]);
    let mut compressed = compressed_to_binary(&g);
    assert!(compressed_from_binary(&compressed).is_ok());
    compressed.extend_from_slice(&[0, 0, 0]);
    let err = compressed_from_binary(&compressed).unwrap_err();
    assert!(err.to_string().contains("3 trailing bytes"), "{err}");

    let p = Permutation::from_order(vec![2, 0, 3, 1]);
    let mut perm = permutation_to_binary(&p);
    assert_eq!(permutation_from_binary(&perm).unwrap(), p);
    perm.extend_from_slice(&[0; 5]);
    let err = permutation_from_binary(&perm).unwrap_err();
    assert!(err.to_string().contains("5 trailing bytes"), "{err}");
}

#[test]
fn edge_list_malformed_inputs_are_errors() {
    // Missing fields, non-numeric fields, bad weights.
    for text in ["0\n", "x 1\n", "0 y\n", "0 1 w\n", "4294967296 0\n"] {
        assert!(
            read_edge_list(text.as_bytes()).is_err(),
            "{text:?} must be rejected"
        );
    }
    // A vertex-count directive beyond the u32 id space must error
    // instead of attempting a matching allocation.
    assert!(read_edge_list("# vertices 18446744073709551615\n0 1\n".as_bytes()).is_err());
    assert!(read_edge_list("# vertices 99999999999\n0 1\n".as_bytes()).is_err());
}

#[test]
fn permutation_malformed_inputs_are_errors() {
    // Out-of-range entry (a 1-line file may only contain vertex 0).
    assert!(read_permutation("5\n".as_bytes()).is_err());
    // Out-of-range entry in a longer file.
    assert!(read_permutation("0\n1\n7\n".as_bytes()).is_err());
    // Duplicates, garbage, negatives.
    assert!(read_permutation("0\n0\n1\n".as_bytes()).is_err());
    assert!(read_permutation("0\nabc\n".as_bytes()).is_err());
    assert!(read_permutation("-1\n0\n".as_bytes()).is_err());
    // Empty input is the empty permutation, not an error.
    assert_eq!(read_permutation("".as_bytes()).unwrap().len(), 0);
    // Comments and blank lines are ignored.
    let p = read_permutation("# permutation 2\n\n1\n0\n".as_bytes()).unwrap();
    assert_eq!(p.order(), &[1, 0]);
}
