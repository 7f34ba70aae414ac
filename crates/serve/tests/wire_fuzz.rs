//! Adversarial-input tests for the wire codec: every byte string — a
//! truncation, a single-byte mutation of a valid frame, or pure noise —
//! must come back as a `WireError` or decode cleanly, never panic, and
//! never allocate beyond the bytes actually present. The codec is also
//! canonical: whenever a byte string decodes, re-encoding the result
//! reproduces the input exactly, so no two distinct byte strings decode
//! to the same message.

use gograph_graph::EdgeUpdate;
use gograph_serve::wire::{
    decode_reply, decode_request, encode_reply, encode_request, read_frame, MAX_FRAME_BYTES,
};
use gograph_serve::{
    AlgSpec, ErrorCode, ModeSpec, ProbeVerdict, QueryReply, Reply, Request, StatsSnapshot,
};
use proptest::prelude::*;

fn arb_alg() -> impl Strategy<Value = AlgSpec> {
    prop_oneof![
        Just(AlgSpec::Sssp),
        Just(AlgSpec::Bfs),
        Just(AlgSpec::Cc),
        Just(AlgSpec::PageRank),
        Just(AlgSpec::Sswp),
    ]
}

fn arb_mode() -> impl Strategy<Value = ModeSpec> {
    // Parallel's wire code decodes to the fixed 8-block variant, so
    // only that variant roundtrips.
    prop_oneof![
        Just(ModeSpec::Async),
        Just(ModeSpec::Sync),
        Just(ModeSpec::Worklist),
        Just(ModeSpec::Parallel(8)),
    ]
}

fn arb_updates() -> impl Strategy<Value = Vec<EdgeUpdate>> {
    proptest::collection::vec(
        (0u32..10_000, 0u32..10_000, 0.5f64..100.0, any::<bool>()).prop_map(
            |(src, dst, w, insert)| {
                if insert {
                    EdgeUpdate::insert_weighted(src, dst, w)
                } else {
                    EdgeUpdate::remove(src, dst)
                }
            },
        ),
        0..24,
    )
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (
            arb_alg(),
            arb_mode(),
            any::<bool>(),
            proptest::option::of(0u64..1_000),
            proptest::collection::vec(0u32..100_000, 0..12),
            proptest::collection::vec(0u32..100_000, 0..12),
        )
            .prop_map(|(alg, mode, combine, max_epoch_lag, sources, targets)| {
                Request::Query {
                    alg,
                    mode,
                    combine,
                    max_epoch_lag,
                    sources,
                    targets,
                }
            }),
        arb_updates().prop_map(Request::Updates),
        Just(Request::Stats),
        Just(Request::Shutdown),
        (any::<u64>(), any::<u64>(), any::<u32>()).prop_map(
            |(follower, after_seq, max_records)| {
                Request::Subscribe {
                    follower,
                    after_seq,
                    max_records,
                }
            }
        ),
        (
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(any::<u64>(), 0..6),
        )
            .prop_map(|(follower, seq, fingerprints)| Request::ReplicaAck {
                follower,
                seq,
                fingerprints,
            }),
        proptest::option::of(any::<u64>()).prop_map(|at_seq| Request::Probe { at_seq }),
        Just(Request::FetchCheckpoint),
        Just(Request::Promote),
    ]
}

fn arb_verdict() -> impl Strategy<Value = ProbeVerdict> {
    prop_oneof![
        Just(ProbeVerdict::Report),
        Just(ProbeVerdict::Match),
        Just(ProbeVerdict::Unknown),
    ]
}

fn arb_wal_records() -> impl Strategy<Value = Vec<(u64, Vec<EdgeUpdate>)>> {
    proptest::collection::vec((any::<u64>(), arb_updates()), 0..6)
}

fn arb_error_code() -> impl Strategy<Value = ErrorCode> {
    prop_oneof![
        Just(ErrorCode::Generic),
        Just(ErrorCode::InvalidRequest),
        Just(ErrorCode::Stale),
        Just(ErrorCode::Closed),
        Just(ErrorCode::Capacity),
        Just(ErrorCode::Divergent),
        Just(ErrorCode::NotPrimary),
    ]
}

fn arb_reply() -> impl Strategy<Value = Reply> {
    prop_oneof![
        (
            any::<u64>(),
            arb_alg(),
            any::<bool>(),
            any::<bool>(),
            any::<u32>(),
            proptest::collection::vec(0u32..100_000, 0..8),
            proptest::collection::vec((0u32..100_000, -1e12f64..1e12), 0..12),
        )
            .prop_map(|(epoch, alg, warm, converged, admitted, eff, values)| {
                Reply::Query(QueryReply {
                    epoch,
                    alg,
                    warm,
                    converged,
                    admitted,
                    rounds: u64::from(admitted) + 3,
                    push_rounds: 1,
                    state_bytes: 4096,
                    runtime_micros: 17,
                    effective_sources: eff,
                    values,
                })
            }),
        (any::<u32>(), any::<u64>()).prop_map(|(accepted, epochs_published)| {
            Reply::UpdateAck {
                accepted,
                epochs_published,
            }
        }),
        // One slot per field, in wire order.
        proptest::collection::vec(any::<u64>(), 32..=32).prop_map(|f| {
            Reply::Stats(StatsSnapshot {
                epoch: f[0],
                epochs_published: f[1],
                num_vertices: f[2],
                num_edges: f[3],
                queries: f[4],
                coalesced: f[5],
                warm_hits: f[6],
                cold_runs: f[7],
                query_rounds: f[8],
                query_push_rounds: f[9],
                last_state_bytes: f[10],
                batches_enqueued: f[11],
                batches_applied: f[12],
                updates_applied: f[13],
                mutator_rounds: f[14],
                mutator_errors: f[15],
                mutator_restarts: f[16],
                degraded: f[17],
                wal_appends: f[18],
                wal_bytes: f[19],
                wal_replayed: f[20],
                checkpoints_written: f[21],
                connections_shed: f[22],
                repl_segments_shipped: f[23],
                repl_records_shipped: f[24],
                repl_acks: f[25],
                repl_follower_lag: f[26],
                repl_divergences: f[27],
                repl_resyncs: f[28],
                repl_last_seq: f[29],
                repl_primary_seq: f[30],
                checkpoint_bytes_written: f[31],
            })
        }),
        (any::<u64>(), any::<bool>(), arb_wal_records()).prop_map(
            |(primary_seq, resync, records)| Reply::WalSegment {
                primary_seq,
                resync,
                records,
            }
        ),
        (
            any::<u64>(),
            any::<u64>(),
            arb_verdict(),
            proptest::collection::vec(any::<u64>(), 0..6),
        )
            .prop_map(|(seq, epoch, verdict, fingerprints)| Reply::Probe {
                seq,
                epoch,
                verdict,
                fingerprints,
            }),
        proptest::collection::vec(any::<u8>(), 0..96).prop_map(Reply::Checkpoint),
        (
            arb_error_code(),
            proptest::collection::vec(32u8..127, 0..48),
        )
            .prop_map(|(code, ascii)| Reply::Error {
                code,
                message: String::from_utf8(ascii).expect("printable ascii"),
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn requests_roundtrip(req in arb_request()) {
        let bytes = encode_request(&req);
        prop_assert_eq!(decode_request(bytes).unwrap(), req);
    }

    #[test]
    fn replies_roundtrip(reply in arb_reply()) {
        let bytes = encode_reply(&reply);
        prop_assert_eq!(decode_reply(bytes).unwrap(), reply);
    }

    #[test]
    fn every_strict_request_prefix_is_rejected(req in arb_request()) {
        let bytes = encode_request(&req);
        for len in 0..bytes.len() {
            prop_assert!(
                decode_request(bytes.slice(0..len)).is_err(),
                "{len}-byte prefix of a {}-byte request decoded",
                bytes.len()
            );
        }
    }

    #[test]
    fn every_strict_reply_prefix_is_rejected(reply in arb_reply()) {
        let bytes = encode_reply(&reply);
        for len in 0..bytes.len() {
            prop_assert!(
                decode_reply(bytes.slice(0..len)).is_err(),
                "{len}-byte prefix of a {}-byte reply decoded",
                bytes.len()
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected(req in arb_request(), tail in proptest::collection::vec(any::<u8>(), 1..8)) {
        let mut bytes = encode_request(&req).to_vec();
        bytes.extend_from_slice(&tail);
        prop_assert!(decode_request(bytes.into()).is_err());
    }

    #[test]
    fn single_byte_mutations_never_panic_and_stay_canonical(
        req in arb_request(),
        pos_seed in any::<usize>(),
        xor in 1u8..=255,
    ) {
        let mut bytes = encode_request(&req).to_vec();
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= xor;
        // A mutation either fails to decode or decodes to a message
        // whose canonical encoding is the mutated bytes themselves —
        // so decode is injective and nothing is silently "repaired".
        if let Ok(decoded) = decode_request(bytes.clone().into()) {
            prop_assert_eq!(encode_request(&decoded).to_vec(), bytes);
        }
    }

    #[test]
    fn random_bytes_never_panic_and_stay_canonical(noise in proptest::collection::vec(any::<u8>(), 0..256)) {
        if let Ok(decoded) = decode_request(noise.clone().into()) {
            prop_assert_eq!(encode_request(&decoded).to_vec(), noise.clone());
        }
        if let Ok(decoded) = decode_reply(noise.clone().into()) {
            prop_assert_eq!(encode_reply(&decoded).to_vec(), noise);
        }
    }

    #[test]
    fn corrupt_counts_never_overallocate(count in 4096u32..u32::MAX) {
        // A query frame whose source count claims up to 4 billion
        // entries but carries none: decode must reject it by comparing
        // the claim against the bytes present, not allocate first.
        let mut frame = vec![1u8, 0, 0, 0]; // Query · Sssp · Async · no flags
        frame.extend_from_slice(&count.to_le_bytes());
        prop_assert!(decode_request(frame.into()).is_err());

        // Same for an update batch: 9 declared bytes per entry, none present.
        let mut frame = vec![2u8];
        frame.extend_from_slice(&count.to_le_bytes());
        prop_assert!(decode_request(frame.into()).is_err());
    }
}

#[test]
fn oversized_frame_lengths_are_refused_before_allocating() {
    // A length prefix past the cap (up to u32::MAX ≈ 4 GiB) must be
    // refused by inspection; if read_frame allocated first, this test
    // would OOM rather than return an error.
    for len in [MAX_FRAME_BYTES + 1, u32::MAX / 2, u32::MAX] {
        let mut wire = Vec::from(len.to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}

#[test]
fn truncated_frame_bodies_are_io_errors_not_panics() {
    let body = encode_request(&Request::Stats);
    let mut wire = Vec::from((body.len() as u32 + 5).to_le_bytes());
    wire.extend_from_slice(body.as_ref());
    assert!(read_frame(&mut wire.as_slice()).is_err());
}
