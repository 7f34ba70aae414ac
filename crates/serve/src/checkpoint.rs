//! Epoch checkpoints: the compaction half of crash recovery.
//!
//! A checkpoint is the mutator pipeline's [`ResumableState`] — the graph
//! and order keys its tracks share, written once, then one section per
//! warm track — plus the WAL sequence number and epoch it captures:
//! everything needed to rebuild the mutator's exact decision state via
//! [`StreamingPipelineBuilder::resume`](gograph_engine::StreamingPipelineBuilder::resume)
//! and then replay only the WAL records with `seq >` the checkpoint's.
//! Because the streaming pipeline is deterministic and the resumable
//! state carries the insertion order's full float-key state, recovery
//! lands on **bit-identical** epochs to an uninterrupted run.
//!
//! Layout (all integers little-endian, floats as raw bit patterns so
//! round-trips are exact):
//!
//! ```text
//! GGCKPT4\0 · payload · crc u32
//! payload = seq u64 · epoch u64 · updates_applied u64 · mutator_rounds u64
//!         · graph (len u64 · binary CSR) · order_vals (n u64 · n × bits)
//!         · min/max bits u64 · baseline_fraction bits u64
//!         · batches_applied u64 · full_reorders u64
//!         · n_tracks u32 · n × track
//! track   = alg u8 · source u32 · states (n u64 · n × bits)
//!         · total_rounds u64 · cold_batches u64 · converged u8
//! ```
//!
//! The trailing CRC-32 covers the whole payload; a mismatch (torn
//! write, bit rot) is an error — the file is written atomically
//! (temp + fsync + rename) precisely so this never happens in normal
//! crash windows. Version 2 added the `converged` byte; version 3
//! dropped the partition arrays, the density baseline and two repair
//! counters; version 4 writes the graph and the order once instead of
//! once per track, and adds each track's `cold_batches`. A file of any
//! other version is refused with [`UnsupportedVersion`], never guessed
//! at.

use crate::core::WarmSpec;
use crate::spec::AlgSpec;
use gograph_engine::{ResumableState, TrackState};
use gograph_graph::codec::{Reader, Writer};
use gograph_graph::io::{binary_len, crc32, from_binary, write_binary};
use std::io;
use std::path::Path;
use std::sync::Arc;

/// File magic: identifies a GoGraph checkpoint, version 4.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"GGCKPT4\0";

/// A checkpoint written in a format version this build does not read,
/// carried inside the [`io::Error`] that [`decode_checkpoint`] returns
/// (reach it with `get_ref()` and `downcast_ref`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsupportedVersion {
    /// The version the file's magic names: 3 for `GGCKPT3`.
    pub found: u8,
}

impl std::fmt::Display for UnsupportedVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "checkpoint format version {} (GGCKPT{}) is not readable; this build reads GGCKPT4 only",
            self.found, self.found
        )
    }
}

impl std::error::Error for UnsupportedVersion {}

/// A recovery point: the pipeline's resumable state plus the WAL
/// position it captures.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Highest WAL sequence number whose batch is folded in. Replay
    /// starts at `seq + 1`.
    pub seq: u64,
    /// Epoch counter at the capture point.
    pub epoch: u64,
    /// `ServeStats::updates_applied` at the capture point.
    pub updates_applied: u64,
    /// `ServeStats::mutator_rounds` at the capture point.
    pub mutator_rounds: u64,
    /// The warm tracks, in `ServeConfig::warm` order: one per entry of
    /// `state.tracks`.
    pub warm: Vec<WarmSpec>,
    /// The mutator pipeline's image: graph and order once, one
    /// [`TrackState`] per warm track.
    pub state: ResumableState,
}

const FORMAT: &str = "GGCKPT4 checkpoint";

/// Serializes a checkpoint (magic + payload + CRC trailer).
///
/// # Panics
/// Panics if `ck.warm` and `ck.state.tracks` differ in length.
pub fn encode_checkpoint(ck: &Checkpoint) -> Vec<u8> {
    let s = &ck.state;
    assert_eq!(ck.warm.len(), s.tracks.len(), "one warm spec per track");
    let graph = binary_len(&s.graph);
    let keys = s.order_vals.len() * (1 + s.tracks.len());
    let mut w = Writer::with_capacity(128 + graph + 8 * keys + 32 * s.tracks.len());
    w.bytes(CHECKPOINT_MAGIC);
    w.u64s(&[ck.seq, ck.epoch, ck.updates_applied, ck.mutator_rounds]);
    w.u64(graph as u64);
    write_binary(&mut w, &s.graph);
    w.u64(s.order_vals.len() as u64);
    w.f64s(&s.order_vals);
    w.f64s(&[s.order_min_val, s.order_max_val, s.baseline_fraction]);
    w.u64(s.batches_applied as u64);
    w.u64(s.full_reorders as u64);
    w.u32(s.tracks.len() as u32);
    for (warm, t) in ck.warm.iter().zip(&s.tracks) {
        w.u8(warm.alg.code());
        w.u32(warm.source);
        w.u64(t.states.len() as u64);
        w.f64s(&t.states);
        w.u64(t.total_rounds as u64);
        w.u64(t.cold_batches as u64);
        w.u8(u8::from(t.converged));
    }
    let crc = crc32(&w[CHECKPOINT_MAGIC.len()..]);
    w.u32(crc);
    w.into_vec()
}

/// Deserializes and CRC-verifies a checkpoint. A checkpoint of another
/// format version is an [`UnsupportedVersion`] error; any other defect
/// is an `InvalidData` error naming the field and its byte offset.
pub fn decode_checkpoint(data: impl AsRef<[u8]>) -> io::Result<Checkpoint> {
    let data = data.as_ref();
    if let [b'G', b'G', b'C', b'K', b'P', b'T', digit @ b'0'..=b'9', 0, ..] = *data {
        if digit != CHECKPOINT_MAGIC[6] {
            let found = UnsupportedVersion {
                found: digit - b'0',
            };
            return Err(io::Error::new(io::ErrorKind::InvalidData, found));
        }
    }
    let mut r = Reader::new(FORMAT, data);
    r.magic(CHECKPOINT_MAGIC)?;
    // No field is trusted before the CRC over all of them checks out.
    let crc = r.trailing_u32("crc")?;
    let end = data.len() - 4;
    if crc32(&data[CHECKPOINT_MAGIC.len()..end]) != crc {
        return Err(r.error_at(end, "crc", "checksum mismatch").into());
    }
    let seq = r.u64("seq")?;
    let epoch = r.u64("epoch")?;
    let updates_applied = r.u64("updates_applied")?;
    let mutator_rounds = r.u64("mutator_rounds")?;
    let n = r.u64("graph length")? as usize;
    let graph = from_binary(r.slice(n, "graph")?)?;
    let n = r.u64("order key count")? as usize;
    let order_vals = r.f64s(n, "order keys")?;
    let order_min_val = r.f64("order min")?;
    let order_max_val = r.f64("order max")?;
    let baseline_fraction = r.f64("baseline fraction")?;
    let batches_applied = r.u64("batches_applied")? as usize;
    let full_reorders = r.u64("full_reorders")? as usize;
    let (mut warm, mut tracks) = (Vec::new(), Vec::new());
    for _ in 0..r.u32("track count")? {
        let alg = r.u8_as("track algorithm", AlgSpec::from_code)?;
        warm.push(WarmSpec::new(alg, r.u32("track source")?));
        let n = r.u64("state count")? as usize;
        tracks.push(TrackState {
            states: Arc::new(r.f64s(n, "states")?),
            total_rounds: r.u64("total_rounds")? as usize,
            cold_batches: r.u64("cold_batches")? as usize,
            converged: r.u8_as("converged", |b| (b <= 1).then_some(b == 1))?,
        });
    }
    r.finish()?;
    Ok(Checkpoint {
        seq,
        epoch,
        updates_applied,
        mutator_rounds,
        warm,
        state: ResumableState {
            graph,
            order_vals,
            order_min_val,
            order_max_val,
            baseline_fraction,
            batches_applied,
            full_reorders,
            tracks,
        },
    })
}

/// Atomically writes a checkpoint to `path` via temp file + fsync +
/// rename, so a crash at any instant leaves either the previous complete
/// file or the new complete one — never a torn mix. Returns the bytes
/// written.
pub fn write_checkpoint(path: &Path, ck: &Checkpoint) -> io::Result<u64> {
    let bytes = encode_checkpoint(ck);
    crate::write_atomic(path, &bytes)?;
    Ok(bytes.len() as u64)
}

/// Reads the checkpoint at `path`; `Ok(None)` when none exists yet.
pub fn read_checkpoint(path: &Path) -> io::Result<Option<Checkpoint>> {
    match std::fs::read(path) {
        Ok(raw) => decode_checkpoint(raw).map(Some),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use gograph_engine::{Bfs, PageRank, Sssp, StreamingPipeline};
    use gograph_graph::generators::regular::chain;
    use gograph_graph::generators::{planted_partition, shuffle_labels, PlantedPartitionConfig};
    use gograph_graph::{CsrGraph, EdgeUpdate};

    fn graph() -> CsrGraph {
        shuffle_labels(
            &planted_partition(PlantedPartitionConfig {
                num_vertices: 60,
                num_edges: 320,
                communities: 3,
                p_intra: 0.8,
                gamma: 2.4,
                seed: 41,
            }),
            3,
        )
    }

    fn pipeline_state() -> ResumableState {
        let mut sp = StreamingPipeline::over(&graph())
            .algorithm(Sssp::new(0))
            .build()
            .unwrap();
        sp.apply_batch(&[EdgeUpdate::insert(0, 59), EdgeUpdate::remove(1, 2)])
            .unwrap();
        sp.export_state()
    }

    fn checkpoint(seq: u64, warm: WarmSpec) -> Checkpoint {
        Checkpoint {
            seq,
            epoch: 1,
            updates_applied: 2,
            mutator_rounds: 1,
            warm: vec![warm],
            state: pipeline_state(),
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn checkpoint_roundtrip_is_exact() {
        let mut state = pipeline_state();
        assert!(state.tracks[0].converged);
        // A round-capped track's flag travels with it.
        let capped = TrackState {
            converged: false,
            cold_batches: 2,
            ..state.tracks[0].clone()
        };
        state.tracks.push(capped);
        let ck = Checkpoint {
            seq: 17,
            epoch: 9,
            updates_applied: 120,
            mutator_rounds: 33,
            warm: vec![
                WarmSpec::new(AlgSpec::Sssp, 0),
                WarmSpec::new(AlgSpec::Bfs, 0),
            ],
            state: state.clone(),
        };
        let decoded = decode_checkpoint(encode_checkpoint(&ck)).unwrap();
        assert_eq!(decoded.seq, 17);
        assert_eq!(decoded.epoch, 9);
        assert_eq!(decoded.updates_applied, 120);
        assert_eq!(decoded.mutator_rounds, 33);
        assert_eq!(decoded.warm, ck.warm);
        let d = &decoded.state;
        assert_eq!(d.graph, state.graph);
        assert_eq!(bits(&d.order_vals), bits(&state.order_vals));
        let scalars = |s: &ResumableState| {
            let bounds = [s.order_min_val, s.order_max_val, s.baseline_fraction];
            (bits(&bounds), s.batches_applied, s.full_reorders)
        };
        assert_eq!(scalars(d), scalars(&state));
        assert_eq!(d.tracks.len(), 2);
        for (got, want) in d.tracks.iter().zip(&state.tracks) {
            assert_eq!(bits(&got.states), bits(&want.states));
            assert_eq!(got.total_rounds, want.total_rounds);
            assert_eq!(got.cold_batches, want.cold_batches);
        }
        let flags: Vec<bool> = d.tracks.iter().map(|t| t.converged).collect();
        assert_eq!(flags, [true, false]);
    }

    #[test]
    fn the_graph_and_order_are_written_once_however_many_tracks() {
        let g = graph();
        let sp = StreamingPipeline::over(&g)
            .algorithm(Sssp::new(0))
            .track()
            .algorithm(Bfs::new(0))
            .track()
            .algorithm(PageRank::default())
            .build()
            .unwrap();
        let three = Checkpoint {
            seq: 1,
            epoch: 1,
            updates_applied: 0,
            mutator_rounds: 0,
            warm: vec![
                WarmSpec::new(AlgSpec::Sssp, 0),
                WarmSpec::new(AlgSpec::Bfs, 0),
                WarmSpec::new(AlgSpec::PageRank, 0),
            ],
            state: sp.export_state(),
        };
        let mut one = three.clone();
        one.warm.truncate(1);
        one.state.tracks.truncate(1);
        // alg · source · states (length + one u64 per vertex)
        // · total_rounds · cold_batches · converged
        let track = 1 + 4 + 8 + 8 * g.num_vertices() + 8 + 8 + 1;
        assert_eq!(
            encode_checkpoint(&three).len(),
            encode_checkpoint(&one).len() + 2 * track
        );
    }

    /// Joins the golden hex strings below and parses them into bytes.
    fn unhex(parts: &[&str]) -> Vec<u8> {
        let hex = parts.concat();
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    /// A tiny `GGCKPT4` file, section by section: any change to the
    /// layout has to re-pin it on purpose. The image is written by hand
    /// (the states a CC and an SSSP track reach on `chain(4)`), so the
    /// bytes pin the layout, not the engine.
    #[test]
    fn tiny_checkpoint_bytes_are_golden() {
        let track = |states: [f64; 4], total_rounds, cold_batches| TrackState {
            states: Arc::new(states.to_vec()),
            total_rounds,
            cold_batches,
            converged: true,
        };
        let ck = Checkpoint {
            seq: 7,
            epoch: 6,
            updates_applied: 40,
            mutator_rounds: 9,
            warm: vec![
                WarmSpec::new(AlgSpec::Cc, 0),
                WarmSpec::new(AlgSpec::Sssp, 0),
            ],
            state: ResumableState {
                graph: chain(4),
                order_vals: vec![0.0, 1.0, 2.0, 3.0],
                order_min_val: 0.0,
                order_max_val: 3.0,
                baseline_fraction: 1.0,
                batches_applied: 2,
                full_reorders: 1,
                tracks: vec![track([0.0; 4], 3, 0), track([0.0, 1.0, 2.0, 3.0], 5, 1)],
            },
        };
        let golden = unhex(&[
            // magic
            "4747434b50543400",
            // seq 7 · epoch 6 · updates_applied 40 · mutator_rounds 9
            "0700000000000000060000000000000028000000000000000900000000000000",
            // graph: length 72 · GOGRAPH1 · 4 vertices · 3 edges · 3 × (src dst weight)
            "4800000000000000474f47524150483104000000000000000300000000000000",
            "0000000001000000000000000000f03f0100000002000000000000000000f03f",
            "0200000003000000000000000000f03f",
            // order keys: 4 · 0.0 1.0 2.0 3.0
            "04000000000000000000000000000000000000000000f03f0000000000000040",
            "0000000000000840",
            // min 0.0 · max 3.0 · baseline 1.0 · batches_applied 2 · full_reorders 1
            "00000000000000000000000000000840000000000000f03f0200000000000000",
            "0100000000000000",
            // 2 tracks
            "02000000",
            // CC (code 2) · source 0 · 4 states 0.0 · 3 rounds · 0 cold · converged
            "0200000000040000000000000000000000000000000000000000000000000000",
            "000000000000000000000000000300000000000000000000000000000001",
            // SSSP (code 0) · source 0 · 0.0 1.0 2.0 3.0 · 5 rounds · 1 cold · converged
            "000000000004000000000000000000000000000000000000000000f03f000000",
            "000000004000000000000008400500000000000000010000000000000001",
            // CRC-32 of everything between the magic and here
            "079fdac6",
        ]);
        assert_eq!(&encode_checkpoint(&ck)[..], &golden[..]);
        let back = decode_checkpoint(Bytes::from(golden.clone())).unwrap();
        assert_eq!(&encode_checkpoint(&back)[..], &golden[..]);
    }

    #[test]
    fn corruption_is_detected_at_every_flipped_byte_region() {
        let good = encode_checkpoint(&checkpoint(1, WarmSpec::new(AlgSpec::Cc, 0)));
        // Flip one byte in several regions: header, middle, trailer.
        for idx in [9, good.len() / 2, good.len() - 2] {
            let mut bad = good.to_vec();
            bad[idx] ^= 0x5A;
            assert!(
                decode_checkpoint(bad).is_err(),
                "flip at {idx} must be caught"
            );
        }
        // Truncations are caught too.
        for cut in [7, 12, good.len() - 5] {
            assert!(decode_checkpoint(&good[..cut]).is_err());
        }
    }

    #[test]
    fn file_roundtrip_and_missing_file() {
        let dir = std::env::temp_dir().join(format!("gograph-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("epoch.ckpt");
        assert!(read_checkpoint(&path).unwrap().is_none());
        let ck = checkpoint(3, WarmSpec::new(AlgSpec::Sssp, 5));
        write_checkpoint(&path, &ck).unwrap();
        let back = read_checkpoint(&path).unwrap().unwrap();
        assert_eq!(back.seq, 3);
        assert_eq!(back.warm[0].source, 5);
        assert!(back.state.tracks[0].converged);
        // Overwrite is atomic and replaces the old contents.
        let ck2 = Checkpoint { seq: 8, ..ck };
        write_checkpoint(&path, &ck2).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap().unwrap().seq, 8);
        // A version-1 file (no converged flags), a version-2 one
        // (partition arrays) and a version-3 one (a graph per track) are
        // refused by version, not misread as a corrupt version-4 one.
        let current = std::fs::read(&path).unwrap();
        for found in [1u8, 2, 3] {
            let mut old = current.clone();
            old[6] = b'0' + found;
            std::fs::write(&path, old).unwrap();
            let err = read_checkpoint(&path).unwrap_err();
            let refused = err
                .get_ref()
                .and_then(|e| e.downcast_ref::<UnsupportedVersion>());
            assert_eq!(refused, Some(&UnsupportedVersion { found }));
            assert!(err.to_string().contains(&format!("GGCKPT{found}")), "{err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
