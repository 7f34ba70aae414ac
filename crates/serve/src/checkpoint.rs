//! Epoch checkpoints: the compaction half of crash recovery.
//!
//! A checkpoint is a serialized [`ResumableState`] per warm track of the
//! mutator's pipeline (each carrying the same graph, order keys and
//! baselines) plus the WAL sequence number and epoch it captures —
//! everything needed to rebuild the mutator's exact decision state via
//! [`StreamingPipelineBuilder::resume_tracks`](gograph_engine::StreamingPipelineBuilder::resume_tracks)
//! and then replay only the WAL records with `seq >` the checkpoint's.
//! Because the streaming pipeline is deterministic and the resumable
//! state carries the insertion order's full float-key state, recovery
//! lands on **bit-identical** epochs to an uninterrupted run.
//!
//! Layout (all integers little-endian, floats as raw bit patterns so
//! round-trips are exact):
//!
//! ```text
//! GGCKPT3\0 · payload · crc u32
//! payload = seq u64 · epoch u64 · updates_applied u64 · mutator_rounds u64
//!         · n_pipelines u32 · n × pipeline
//! pipeline = alg u8 · source u32 · state
//! state   = graph (len u64 · binary CSR) · order_vals (n u64 bits)
//!         · min/max bits u64 · baseline_fraction bits u64
//!         · states (n u64 bits) · 3 evolution counters u64 · converged u8
//! ```
//!
//! The trailing CRC-32 covers the whole payload; a mismatch (torn
//! write, bit rot) is an error — the file is written atomically
//! (temp + fsync + rename) precisely so this never happens in normal
//! crash windows. Version 2 added the `converged` byte; version 3
//! dropped the partition arrays, the density baseline and two repair
//! counters. A file of any other version is refused with
//! [`UnsupportedVersion`], never guessed at.

use crate::core::WarmSpec;
use crate::spec::AlgSpec;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use gograph_engine::ResumableState;
use gograph_graph::io::{crc32, from_binary, to_binary};
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

/// File magic: identifies a GoGraph checkpoint, version 3.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"GGCKPT3\0";

/// A checkpoint written in a format version this build does not read,
/// carried inside the [`io::Error`] that [`decode_checkpoint`] returns
/// (reach it with `get_ref()` and `downcast_ref`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsupportedVersion {
    /// The version the file's magic names: 2 for `GGCKPT2`.
    pub found: u8,
}

impl std::fmt::Display for UnsupportedVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "checkpoint format version {} (GGCKPT{}) is not readable; this build reads GGCKPT3 only",
            self.found, self.found
        )
    }
}

impl std::error::Error for UnsupportedVersion {}

/// A recovery point: per-pipeline resumable state plus the WAL
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
    /// One entry per warm track, in `ServeConfig::warm` order.
    pub pipelines: Vec<PipelineCheckpoint>,
}

/// One warm track's identity and exported state.
#[derive(Debug, Clone)]
pub struct PipelineCheckpoint {
    /// Which warm pipeline this is.
    pub warm: WarmSpec,
    /// Its full resumable state.
    pub state: ResumableState,
}

fn put_f64s(buf: &mut BytesMut, xs: &[f64]) {
    buf.put_u64_le(xs.len() as u64);
    for &x in xs {
        buf.put_u64_le(x.to_bits());
    }
}

fn get_f64s(buf: &mut Bytes) -> io::Result<Vec<f64>> {
    let n = get_len(buf, 8)?;
    Ok((0..n).map(|_| f64::from_bits(buf.get_u64_le())).collect())
}

fn corrupt(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Reads a u64 length prefix and bounds-checks `n * elem_bytes`
/// against the remaining payload before any allocation.
fn get_len(buf: &mut Bytes, elem_bytes: usize) -> io::Result<usize> {
    if buf.remaining() < 8 {
        return Err(corrupt("truncated length prefix"));
    }
    let n = buf.get_u64_le();
    let need = (n as usize)
        .checked_mul(elem_bytes)
        .ok_or_else(|| corrupt("length overflow"))?;
    if buf.remaining() < need {
        return Err(corrupt("length prefix exceeds payload"));
    }
    Ok(n as usize)
}

fn put_state(buf: &mut BytesMut, s: &ResumableState) {
    let graph = to_binary(&s.graph);
    buf.put_u64_le(graph.len() as u64);
    buf.put_slice(&graph);
    put_f64s(buf, &s.order_vals);
    buf.put_u64_le(s.order_min_val.to_bits());
    buf.put_u64_le(s.order_max_val.to_bits());
    buf.put_u64_le(s.baseline_fraction.to_bits());
    put_f64s(buf, &s.states);
    for c in [s.total_rounds, s.batches_applied, s.full_reorders] {
        buf.put_u64_le(c as u64);
    }
    buf.put_u8(u8::from(s.converged));
}

fn get_state(buf: &mut Bytes) -> io::Result<ResumableState> {
    let graph_len = get_len(buf, 1)?;
    let graph = from_binary(buf.split_to(graph_len))?;
    let order_vals = get_f64s(buf)?;
    if buf.remaining() < 24 {
        return Err(corrupt("truncated order bounds and baseline"));
    }
    let order_min_val = f64::from_bits(buf.get_u64_le());
    let order_max_val = f64::from_bits(buf.get_u64_le());
    let baseline_fraction = f64::from_bits(buf.get_u64_le());
    let states = get_f64s(buf)?;
    if buf.remaining() < 3 * 8 + 1 {
        return Err(corrupt("truncated evolution counters"));
    }
    let mut counters = [0u64; 3];
    for c in counters.iter_mut() {
        *c = buf.get_u64_le();
    }
    let converged = match buf.get_u8() {
        0 => false,
        1 => true,
        flag => return Err(corrupt(format!("converged flag {flag} is neither 0 nor 1"))),
    };
    Ok(ResumableState {
        graph,
        order_vals,
        order_min_val,
        order_max_val,
        baseline_fraction,
        states,
        total_rounds: counters[0] as usize,
        batches_applied: counters[1] as usize,
        full_reorders: counters[2] as usize,
        converged,
    })
}

/// Serializes a checkpoint (magic + payload + CRC trailer).
pub fn encode_checkpoint(ck: &Checkpoint) -> Bytes {
    let mut payload = BytesMut::with_capacity(1 << 16);
    payload.put_u64_le(ck.seq);
    payload.put_u64_le(ck.epoch);
    payload.put_u64_le(ck.updates_applied);
    payload.put_u64_le(ck.mutator_rounds);
    payload.put_u32_le(ck.pipelines.len() as u32);
    for p in &ck.pipelines {
        payload.put_u8(p.warm.alg.code());
        payload.put_u32_le(p.warm.source);
        put_state(&mut payload, &p.state);
    }
    let crc = crc32(&payload);
    let mut out = BytesMut::with_capacity(8 + payload.len() + 4);
    out.put_slice(CHECKPOINT_MAGIC);
    out.put_slice(&payload);
    out.put_u32_le(crc);
    out.freeze()
}

/// Deserializes and CRC-verifies a checkpoint. A checkpoint of another
/// format version is an [`UnsupportedVersion`] error.
pub fn decode_checkpoint(data: Bytes) -> io::Result<Checkpoint> {
    if let [b'G', b'G', b'C', b'K', b'P', b'T', digit @ b'0'..=b'9', 0, ..] = data[..] {
        if digit != CHECKPOINT_MAGIC[6] {
            let found = UnsupportedVersion {
                found: digit - b'0',
            };
            return Err(io::Error::new(io::ErrorKind::InvalidData, found));
        }
    }
    if data.len() < 8 + 4 || &data[..8] != CHECKPOINT_MAGIC {
        return Err(corrupt("not a GoGraph checkpoint (bad magic)"));
    }
    let payload = data.slice(8..data.len() - 4);
    let stored_crc = u32::from_le_bytes(data[data.len() - 4..].try_into().unwrap());
    if crc32(&payload) != stored_crc {
        return Err(corrupt("checkpoint CRC mismatch"));
    }
    let mut buf = payload;
    if buf.remaining() < 4 * 8 + 4 {
        return Err(corrupt("truncated checkpoint header"));
    }
    let seq = buf.get_u64_le();
    let epoch = buf.get_u64_le();
    let updates_applied = buf.get_u64_le();
    let mutator_rounds = buf.get_u64_le();
    let n = buf.get_u32_le() as usize;
    let mut pipelines = Vec::with_capacity(n.min(256));
    for _ in 0..n {
        if buf.remaining() < 5 {
            return Err(corrupt("truncated pipeline header"));
        }
        let code = buf.get_u8();
        let alg = AlgSpec::from_code(code)
            .ok_or_else(|| corrupt(format!("unknown algorithm code {code}")))?;
        let source = buf.get_u32_le();
        let state = get_state(&mut buf)?;
        pipelines.push(PipelineCheckpoint {
            warm: WarmSpec::new(alg, source),
            state,
        });
    }
    if buf.has_remaining() {
        return Err(corrupt("trailing bytes after checkpoint"));
    }
    Ok(Checkpoint {
        seq,
        epoch,
        updates_applied,
        mutator_rounds,
        pipelines,
    })
}

/// Atomically writes a checkpoint to `path` via temp file + fsync +
/// rename, so a crash at any instant leaves either the previous complete
/// file or the new complete one — never a torn mix. Returns the bytes
/// written.
pub fn write_checkpoint(path: &Path, ck: &Checkpoint) -> io::Result<u64> {
    let bytes = encode_checkpoint(ck);
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    let tmp = path.with_file_name(name);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(bytes.len() as u64)
}

/// Reads the checkpoint at `path`; `Ok(None)` when none exists yet.
pub fn read_checkpoint(path: &Path) -> io::Result<Option<Checkpoint>> {
    match std::fs::read(path) {
        Ok(raw) => decode_checkpoint(Bytes::from(raw)).map(Some),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gograph_engine::{Sssp, StreamingPipeline};
    use gograph_graph::generators::{planted_partition, shuffle_labels, PlantedPartitionConfig};
    use gograph_graph::EdgeUpdate;

    fn pipeline_state() -> ResumableState {
        let g = shuffle_labels(
            &planted_partition(PlantedPartitionConfig {
                num_vertices: 60,
                num_edges: 320,
                communities: 3,
                p_intra: 0.8,
                gamma: 2.4,
                seed: 41,
            }),
            3,
        );
        let mut sp = StreamingPipeline::over(&g)
            .algorithm(Sssp::new(0))
            .build()
            .unwrap();
        sp.apply_batch(&[EdgeUpdate::insert(0, 59), EdgeUpdate::remove(1, 2)])
            .unwrap();
        sp.export_state()
    }

    #[test]
    fn checkpoint_roundtrip_is_exact() {
        let state = pipeline_state();
        assert!(state.converged);
        // A round-capped track's flag travels with it.
        let capped = ResumableState {
            converged: false,
            ..state.clone()
        };
        let ck = Checkpoint {
            seq: 17,
            epoch: 9,
            updates_applied: 120,
            mutator_rounds: 33,
            pipelines: vec![
                PipelineCheckpoint {
                    warm: WarmSpec::new(AlgSpec::Sssp, 0),
                    state: state.clone(),
                },
                PipelineCheckpoint {
                    warm: WarmSpec::new(AlgSpec::Bfs, 0),
                    state: capped,
                },
            ],
        };
        let decoded = decode_checkpoint(encode_checkpoint(&ck)).unwrap();
        assert_eq!(decoded.seq, 17);
        assert_eq!(decoded.epoch, 9);
        assert_eq!(decoded.updates_applied, 120);
        assert_eq!(decoded.mutator_rounds, 33);
        let d = &decoded.pipelines[0];
        assert_eq!(d.warm, WarmSpec::new(AlgSpec::Sssp, 0));
        assert_eq!(d.state.graph, state.graph);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&d.state.order_vals), bits(&state.order_vals));
        assert_eq!(
            d.state.order_min_val.to_bits(),
            state.order_min_val.to_bits()
        );
        assert_eq!(
            d.state.order_max_val.to_bits(),
            state.order_max_val.to_bits()
        );
        assert_eq!(
            d.state.baseline_fraction.to_bits(),
            state.baseline_fraction.to_bits()
        );
        assert_eq!(bits(&d.state.states), bits(&state.states));
        assert_eq!(d.state.total_rounds, state.total_rounds);
        assert_eq!(d.state.batches_applied, state.batches_applied);
        let flags: Vec<bool> = decoded
            .pipelines
            .iter()
            .map(|p| p.state.converged)
            .collect();
        assert_eq!(flags, [true, false]);
    }

    #[test]
    fn corruption_is_detected_at_every_flipped_byte_region() {
        let ck = Checkpoint {
            seq: 1,
            epoch: 1,
            updates_applied: 2,
            mutator_rounds: 1,
            pipelines: vec![PipelineCheckpoint {
                warm: WarmSpec::new(AlgSpec::Cc, 0),
                state: pipeline_state(),
            }],
        };
        let good = encode_checkpoint(&ck);
        // Flip one byte in several regions: header, middle, trailer.
        for idx in [9, good.len() / 2, good.len() - 2] {
            let mut bad = good.to_vec();
            bad[idx] ^= 0x5A;
            assert!(
                decode_checkpoint(Bytes::from(bad)).is_err(),
                "flip at {idx} must be caught"
            );
        }
        // Truncations are caught too.
        for cut in [7, 12, good.len() - 5] {
            assert!(decode_checkpoint(good.slice(..cut)).is_err());
        }
    }

    #[test]
    fn file_roundtrip_and_missing_file() {
        let dir = std::env::temp_dir().join(format!("gograph-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("epoch.ckpt");
        assert!(read_checkpoint(&path).unwrap().is_none());
        let ck = Checkpoint {
            seq: 3,
            epoch: 2,
            updates_applied: 10,
            mutator_rounds: 3,
            pipelines: vec![PipelineCheckpoint {
                warm: WarmSpec::new(AlgSpec::Sssp, 5),
                state: pipeline_state(),
            }],
        };
        write_checkpoint(&path, &ck).unwrap();
        let back = read_checkpoint(&path).unwrap().unwrap();
        assert_eq!(back.seq, 3);
        assert_eq!(back.pipelines[0].warm.source, 5);
        assert!(back.pipelines[0].state.converged);
        // Overwrite is atomic and replaces the old contents.
        let ck2 = Checkpoint { seq: 8, ..ck };
        write_checkpoint(&path, &ck2).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap().unwrap().seq, 8);
        // A version-1 file (no converged flags) and a version-2 one
        // (partition arrays) are refused by version, not misread as a
        // corrupt version-3 one.
        let current = std::fs::read(&path).unwrap();
        for found in [1u8, 2] {
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
