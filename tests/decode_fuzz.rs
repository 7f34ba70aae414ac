//! Every binary format against damaged input. Each valid input — a flat
//! graph, a compressed graph, a permutation, a `GGCKPT4` checkpoint, a
//! write-ahead log and one frame of each request and reply kind — is cut
//! at every offset and has every byte XOR-flipped in turn. Each case must
//! come back as an `Err` or decode canonically: re-encoding the result
//! reproduces the damaged input byte for byte. A WAL is read the way
//! recovery reads it instead: intact records up to the damaged one, then
//! a torn tail at that record's offset. Nothing may panic.
//!
//! CI runs this file in release too: there integer overflow wraps instead
//! of panicking, so a length computation that overflows misreads only
//! there.

use gograph_engine::{ConnectedComponents, Sssp, StreamingPipeline};
use gograph_graph::csr::BLOCK_ROWS;
use gograph_graph::io::{
    compressed_from_binary, compressed_to_binary, from_binary, permutation_from_binary,
    permutation_to_binary, to_binary,
};
use gograph_graph::{CsrGraph, EdgeUpdate, Permutation};
use gograph_serve::checkpoint::{decode_checkpoint, encode_checkpoint};
use gograph_serve::wal::WAL_MAGIC;
use gograph_serve::wire::{decode_reply, decode_request, encode_reply, encode_request};
use gograph_serve::{
    read_wal, AlgSpec, Checkpoint, ErrorCode, ModeSpec, ProbeVerdict, QueryReply, Reply, Request,
    StatsSnapshot, SyncPolicy, TailStatus, WalWriter, WarmSpec,
};
use std::ops::Range;

/// Cuts `good` at every offset and flips each byte outside `skip`: every
/// case must fail to decode or re-encode to exactly its own bytes.
fn damage<T, E: std::fmt::Display>(
    name: &str,
    good: &[u8],
    skip: Range<usize>,
    decode: impl Fn(&[u8]) -> Result<T, E>,
    encode: impl Fn(&T) -> Vec<u8>,
) {
    let canonical_or_err = |bytes: &[u8], case: &str| {
        if let Ok(value) = decode(bytes) {
            assert_eq!(
                encode(&value),
                bytes,
                "{name}: {case} decodes non-canonically"
            );
        }
    };
    match decode(good) {
        Ok(value) => assert_eq!(encode(&value), good, "{name}: valid input"),
        Err(e) => panic!("{name}: valid input refused: {e}"),
    }
    for cut in 0..good.len() {
        canonical_or_err(&good[..cut], &format!("truncation at {cut}"));
    }
    for i in (0..good.len()).filter(|i| !skip.contains(i)) {
        let mut bad = good.to_vec();
        bad[i] ^= 0xFF;
        canonical_or_err(&bad, &format!("flip at {i}"));
    }
}

/// A small weighted graph.
fn graph() -> CsrGraph {
    let edges = [
        (0u32, 1u32, 1.0),
        (0, 2, 2.5),
        (1, 2, 0.25),
        (2, 3, 3.0),
        (3, 4, 1.0),
        (4, 5, 2.0),
        (5, 0, 0.5),
        (5, 6, 1.5),
        (6, 7, 4.0),
        (7, 3, 1.0),
    ];
    CsrGraph::from_edges(9, edges)
}

#[test]
fn flat_graph() {
    // Over 300 vertices, an endpoint with a flipped low byte often names
    // another vertex in range: the record must then be refused as out of
    // (src, dst) order, or decode to a graph that re-encodes to the very
    // same bytes.
    let g = CsrGraph::from_edges(
        300,
        (0..48u32).map(|i| ((i * 37) % 300, (i * 113 + 29) % 300, 0.5 + f64::from(i))),
    );
    // Bytes 8..16 hold the vertex count. Any value up to the u32 id space
    // there is a legal graph of isolated vertices, and decoding it
    // allocates billions of rows, so those bytes are not flipped.
    damage("flat graph", &to_binary(&g), 8..16, from_binary, to_binary);
}

#[test]
fn compressed_graph() {
    // Three row blocks, the last one partial, with weights.
    let g = CsrGraph::from_edges(
        2 * BLOCK_ROWS + 22,
        (0..2 * BLOCK_ROWS as u32 + 22).map(|v| (v, (v * 7 + 3) % 150, 0.5 + f64::from(v % 5))),
    )
    .compress();
    damage(
        "compressed graph",
        &compressed_to_binary(&g),
        0..0,
        compressed_from_binary,
        compressed_to_binary,
    );
}

/// `graph().compress_with_shards(&[4])` as an earlier build wrote it:
/// one shard section for rows 0..4 and one for 4..9, not one per row
/// block. Files in that layout must go on loading.
const SHARDED_GOGRPHC1: [u8; 437] = [
    0x47, 0x4f, 0x47, 0x52, 0x50, 0x48, 0x43, 0x31, 0x01, 0x00, 0x00, 0x00, 0x01, 0x09, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
    0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
    0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00,
    0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
    0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00,
    0x00, 0x03, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x01, 0x02, 0x02, 0x02, 0x77, 0x86, 0x26, 0x6f, 0x00, 0x00,
    0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x05, 0x00,
    0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x09,
    0x06, 0x02, 0x07, 0xc3, 0x81, 0x23, 0x87, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02,
    0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x0a, 0x01, 0x03, 0x01, 0x01, 0x05, 0xbf, 0xaa, 0xb9, 0x24, 0x00, 0x00, 0x00,
    0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00,
    0x00, 0x04, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x01, 0x01,
    0x01, 0x49, 0x74, 0xa1, 0x8e, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x04, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x3f, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x08, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0xf8, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x40, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0xf0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0xf0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x40, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0xd0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x40, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0xf0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x10, 0x40,
];

#[test]
fn compressed_graph_written_with_a_shard_cut_still_loads() {
    let g = compressed_from_binary(&SHARDED_GOGRPHC1).expect("loads");
    assert!(g.is_compressed());
    assert_eq!(g, graph().compress());
    assert_eq!(g.decompress(), graph());
}

#[test]
fn permutation() {
    let p = Permutation::from_order(vec![3, 0, 4, 1, 2]);
    damage(
        "permutation",
        &permutation_to_binary(&p),
        0..0,
        permutation_from_binary,
        permutation_to_binary,
    );
}

fn checkpoint() -> Checkpoint {
    let mut sp = StreamingPipeline::over(&graph())
        .algorithm(Sssp::new(0))
        .track()
        .algorithm(ConnectedComponents)
        .build()
        .unwrap();
    sp.apply_batch(&[EdgeUpdate::insert(8, 0), EdgeUpdate::remove(3, 4)])
        .unwrap();
    Checkpoint {
        seq: 3,
        epoch: 2,
        updates_applied: 5,
        mutator_rounds: 7,
        warm: vec![
            WarmSpec::new(AlgSpec::Sssp, 0),
            WarmSpec::new(AlgSpec::Cc, 0),
        ],
        state: sp.export_state(),
    }
}

#[test]
fn checkpoint_file() {
    let good = encode_checkpoint(&checkpoint());
    damage(
        "checkpoint",
        &good,
        0..0,
        |b| decode_checkpoint(b),
        encode_checkpoint,
    );
    let err = decode_checkpoint(&good[..10]).unwrap_err();
    assert_eq!(
        err.to_string(),
        "GGCKPT4 checkpoint: crc at byte 8: truncated: needs 4 bytes, 2 remain"
    );
}

#[test]
fn write_ahead_log() {
    let dir = std::env::temp_dir().join(format!("gograph-decode-fuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("updates.wal");
    let batches = [
        vec![EdgeUpdate::insert_weighted(1, 2, 0.5)],
        vec![EdgeUpdate::remove(3, 4), EdgeUpdate::insert(5, 6)],
        vec![EdgeUpdate::insert(7, 8)],
    ];
    let mut w = WalWriter::open(&path, SyncPolicy::Os).unwrap();
    let mut starts = vec![WAL_MAGIC.len()];
    for (seq, batch) in (1..).zip(&batches) {
        let len = w.append(seq, batch).unwrap() as usize;
        starts.push(starts.last().unwrap() + len);
    }
    drop(w);
    let good = std::fs::read(&path).unwrap();
    let intact = read_wal(&path).unwrap();
    assert_eq!((intact.records.len(), intact.tail), (3, TailStatus::Clean));

    // A log damaged at byte `at` keeps every record ending at or before
    // it, then reports a torn tail where the damaged record starts.
    let check = |bytes: &[u8], at: usize, case: &str| {
        std::fs::write(&path, bytes).unwrap();
        let read = read_wal(&path);
        if at < WAL_MAGIC.len() {
            assert!(read.is_err(), "{case}: damaged magic accepted");
            return;
        }
        let read = read.unwrap();
        let kept = starts.iter().filter(|&&end| end <= at).count() - 1;
        assert_eq!(read.records, intact.records[..kept], "{case}");
        assert_eq!(read.valid_bytes, starts[kept] as u64, "{case}");
        let tail = if bytes.len() == starts[kept] {
            TailStatus::Clean
        } else {
            TailStatus::CorruptTail
        };
        assert_eq!(read.tail, tail, "{case}");
    };
    for cut in 0..good.len() {
        check(&good[..cut], cut, &format!("truncation at {cut}"));
    }
    for i in 0..good.len() {
        let mut bad = good.clone();
        bad[i] ^= 0xFF;
        check(&bad, i, &format!("flip at {i}"));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_request_kind() {
    let requests = [
        Request::Query {
            alg: AlgSpec::Sssp,
            mode: ModeSpec::Worklist,
            combine: true,
            max_epoch_lag: Some(4),
            sources: vec![3, 9],
            targets: vec![0, 1],
        },
        Request::Updates(vec![
            EdgeUpdate::insert_weighted(1, 2, 0.5),
            EdgeUpdate::remove(3, 4),
        ]),
        Request::Stats,
        Request::Shutdown,
        Request::Subscribe {
            follower: 7,
            after_seq: 42,
            max_records: 128,
        },
        Request::ReplicaAck {
            follower: 7,
            seq: 42,
            fingerprints: vec![1, u64::MAX],
        },
        Request::Probe { at_seq: Some(9) },
        Request::FetchCheckpoint,
        Request::Promote,
    ];
    for req in requests {
        damage(
            &format!("{req:?}"),
            &encode_request(&req),
            0..0,
            |b| decode_request(b.to_vec().into()),
            |r| encode_request(r).to_vec(),
        );
    }
}

#[test]
fn every_reply_kind() {
    let replies = [
        Reply::Query(QueryReply {
            epoch: 7,
            alg: AlgSpec::PageRank,
            warm: true,
            converged: true,
            admitted: 1,
            rounds: 12,
            push_rounds: 4,
            state_bytes: 4096,
            runtime_micros: 1234,
            effective_sources: vec![5, 6],
            values: vec![(0, 1.5), (9, 2.0)],
        }),
        Reply::UpdateAck {
            accepted: 8,
            epochs_published: 3,
        },
        Reply::Stats(StatsSnapshot {
            epoch: 2,
            queries: 42,
            ..StatsSnapshot::default()
        }),
        Reply::WalSegment {
            primary_seq: 9,
            resync: false,
            records: vec![
                (8, vec![EdgeUpdate::insert_weighted(1, 2, 0.5)]),
                (9, vec![EdgeUpdate::remove(3, 4)]),
            ],
        },
        Reply::Probe {
            seq: 12,
            epoch: 11,
            verdict: ProbeVerdict::Match,
            fingerprints: vec![0xdead_beef, 7],
        },
        Reply::Checkpoint(vec![1, 2, 3, 255, 0]),
        Reply::Error {
            code: ErrorCode::Divergent,
            message: "nope".to_string(),
        },
    ];
    for reply in replies {
        damage(
            &format!("{reply:?}"),
            &encode_reply(&reply),
            0..0,
            |b| decode_reply(b.to_vec().into()),
            |r| encode_reply(r).to_vec(),
        );
    }
}
