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
//! GGCKPT1\0 · payload · crc u32
//! payload = seq u64 · epoch u64 · updates_applied u64 · mutator_rounds u64
//!         · n_pipelines u32 · n × pipeline
//! pipeline = alg u8 · source u32 · state
//! state   = graph (len u64 · binary CSR) · order_vals (n u64 bits)
//!         · min/max bits u64 · part_of (n u32) · part_members
//!         · baseline_intra ((positive, total) u64 pairs)
//!         · baseline_fraction/density bits u64 · states (n u64 bits)
//!         · 5 evolution counters u64
//! ```
//!
//! The trailing CRC-32 covers the whole payload; a mismatch (torn
//! write, bit rot) is an error — the file is written atomically
//! (temp + fsync + rename) precisely so this never happens in normal
//! crash windows.
//!
//! ## Delta checkpoints
//!
//! A full checkpoint serializes every pipeline's whole state; at high
//! update rates the fsync burst dominates. A **delta checkpoint**
//! (`epoch.ckpt.d1`, `.d2`, …, magic `GGCKD1`) records only what
//! changed since the previous checkpoint: the applied update batches
//! (the graph is reconstructed by replaying them through the same
//! [`apply_updates`](gograph_graph::CsrGraph::apply_updates) call the
//! streaming pipeline uses, after the same self-loop filter), the
//! order/state entries whose bit patterns differ, and the partition /
//! baseline structures only when they changed. Recovery chains
//! base + deltas ([`read_checkpoint_chain`]) and is bit-identical to
//! full-checkpoint recovery; a periodic full rebase rewrites the base
//! and deletes the deltas. A crash mid-rebase leaves stale delta files
//! whose `base_seq` no longer matches the chain tip — the chain
//! validation cuts there, so they are ignored, never misapplied.

use crate::core::WarmSpec;
use crate::spec::AlgSpec;
use crate::wire::{get_updates, put_updates};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use gograph_core::PartitionContribution;
use gograph_engine::ResumableState;
use gograph_graph::io::{crc32, from_binary, to_binary};
use gograph_graph::{EdgeUpdate, VertexId};
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// File magic: identifies a GoGraph checkpoint, version 1.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"GGCKPT1\0";

/// File magic: identifies a GoGraph delta checkpoint, version 1.
pub const DELTA_MAGIC: &[u8; 8] = b"GGCKD1\0\0";

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
    buf.put_u64_le(s.part_of.len() as u64);
    for &p in &s.part_of {
        buf.put_u32_le(p);
    }
    buf.put_u64_le(s.part_members.len() as u64);
    for members in &s.part_members {
        buf.put_u64_le(members.len() as u64);
        for &v in members {
            buf.put_u32_le(v);
        }
    }
    buf.put_u64_le(s.baseline_intra.len() as u64);
    for c in &s.baseline_intra {
        buf.put_u64_le(c.positive as u64);
        buf.put_u64_le(c.total as u64);
    }
    buf.put_u64_le(s.baseline_fraction.to_bits());
    buf.put_u64_le(s.baseline_density.to_bits());
    put_f64s(buf, &s.states);
    for c in [
        s.total_rounds,
        s.batches_applied,
        s.full_reorders,
        s.partition_reorders,
        s.partition_repair_attempts,
    ] {
        buf.put_u64_le(c as u64);
    }
}

fn get_state(buf: &mut Bytes) -> io::Result<ResumableState> {
    let graph_len = get_len(buf, 1)?;
    let graph = from_binary(buf.split_to(graph_len))?;
    let order_vals = get_f64s(buf)?;
    if buf.remaining() < 16 {
        return Err(corrupt("truncated order bounds"));
    }
    let order_min_val = f64::from_bits(buf.get_u64_le());
    let order_max_val = f64::from_bits(buf.get_u64_le());
    let n_part_of = get_len(buf, 4)?;
    let part_of: Vec<u32> = (0..n_part_of).map(|_| buf.get_u32_le()).collect();
    let n_parts = get_len(buf, 8)?;
    let mut part_members: Vec<Vec<VertexId>> = Vec::with_capacity(n_parts.min(4096));
    for _ in 0..n_parts {
        let m = get_len(buf, 4)?;
        part_members.push((0..m).map(|_| buf.get_u32_le()).collect());
    }
    let n_intra = get_len(buf, 16)?;
    let baseline_intra: Vec<PartitionContribution> = (0..n_intra)
        .map(|_| {
            let positive = buf.get_u64_le() as usize;
            let total = buf.get_u64_le() as usize;
            PartitionContribution { positive, total }
        })
        .collect();
    if buf.remaining() < 16 {
        return Err(corrupt("truncated baselines"));
    }
    let baseline_fraction = f64::from_bits(buf.get_u64_le());
    let baseline_density = f64::from_bits(buf.get_u64_le());
    let states = get_f64s(buf)?;
    if buf.remaining() < 5 * 8 {
        return Err(corrupt("truncated evolution counters"));
    }
    let mut counters = [0u64; 5];
    for c in counters.iter_mut() {
        *c = buf.get_u64_le();
    }
    Ok(ResumableState {
        graph,
        order_vals,
        order_min_val,
        order_max_val,
        part_of,
        part_members,
        baseline_intra,
        baseline_fraction,
        baseline_density,
        states,
        total_rounds: counters[0] as usize,
        batches_applied: counters[1] as usize,
        full_reorders: counters[2] as usize,
        partition_reorders: counters[3] as usize,
        partition_repair_attempts: counters[4] as usize,
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

/// Deserializes and CRC-verifies a checkpoint.
pub fn decode_checkpoint(data: Bytes) -> io::Result<Checkpoint> {
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

/// Atomically writes `bytes` to `path` via temp file + fsync + rename,
/// so a crash at any instant leaves either the previous complete file
/// or the new complete one — never a torn mix. Returns bytes written.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<u64> {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    let tmp = path.with_file_name(name);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
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

/// Atomically writes a checkpoint to `path` (temp + fsync + rename).
/// Returns the bytes written.
pub fn write_checkpoint(path: &Path, ck: &Checkpoint) -> io::Result<u64> {
    write_atomic(path, &encode_checkpoint(ck))
}

/// Reads the checkpoint at `path`; `Ok(None)` when none exists yet.
pub fn read_checkpoint(path: &Path) -> io::Result<Option<Checkpoint>> {
    match std::fs::read(path) {
        Ok(raw) => decode_checkpoint(Bytes::from(raw)).map(Some),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// A sparse patch of an `f64` vector: the new length plus every entry
/// whose bit pattern differs from the base (indices past the base
/// length are always included, so growth is covered).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparsePatch {
    /// Vector length after the patch.
    pub new_len: u64,
    /// `(index, f64 bit pattern)` entries to overwrite.
    pub entries: Vec<(u32, u64)>,
}

fn diff_patch(base: &[f64], cur: &[f64]) -> SparsePatch {
    SparsePatch {
        new_len: cur.len() as u64,
        entries: cur
            .iter()
            .enumerate()
            .filter(|(i, x)| base.get(*i).is_none_or(|b| b.to_bits() != x.to_bits()))
            .map(|(i, x)| (i as u32, x.to_bits()))
            .collect(),
    }
}

fn apply_patch(vec: &mut Vec<f64>, patch: &SparsePatch) -> io::Result<()> {
    vec.resize(patch.new_len as usize, 0.0);
    for &(i, bits) in &patch.entries {
        let slot = vec
            .get_mut(i as usize)
            .ok_or_else(|| corrupt("patch index out of bounds"))?;
        *slot = f64::from_bits(bits);
    }
    Ok(())
}

/// One pipeline's changes since the base checkpoint. The graph itself
/// is not stored — it is reconstructed from the delta's applied
/// batches.
#[derive(Debug, Clone)]
pub struct PipelineDelta {
    /// Which warm pipeline this is (must match the base's entry).
    pub warm: WarmSpec,
    /// Changed insertion-order key entries.
    pub order_vals: SparsePatch,
    /// New order key range minimum (bit pattern).
    pub order_min_bits: u64,
    /// New order key range maximum (bit pattern).
    pub order_max_bits: u64,
    /// Changed warm-state entries.
    pub states: SparsePatch,
    /// Full partition structures (`part_of`, `part_members`), present
    /// only when they changed.
    pub part: Option<(Vec<u32>, Vec<Vec<VertexId>>)>,
    /// Full baseline structures (`baseline_intra`, fraction bits,
    /// density bits), present only when they changed.
    pub baseline: Option<(Vec<PartitionContribution>, u64, u64)>,
    /// The five evolution counters, always rewritten (they are tiny).
    pub counters: [u64; 5],
}

/// State changed since the previous checkpoint. Applying a delta to
/// its base (see [`apply_delta`]) reproduces the full checkpoint the
/// primary would have written, bit for bit.
#[derive(Debug, Clone)]
pub struct DeltaCheckpoint {
    /// `seq` of the checkpoint this delta chains onto. A delta whose
    /// `base_seq` does not match the chain tip is stale (left behind
    /// by a crashed rebase) and must be ignored.
    pub base_seq: u64,
    /// Highest WAL sequence number folded in after applying.
    pub seq: u64,
    /// Epoch counter at the capture point.
    pub epoch: u64,
    /// `ServeStats::updates_applied` at the capture point.
    pub updates_applied: u64,
    /// `ServeStats::mutator_rounds` at the capture point.
    pub mutator_rounds: u64,
    /// The `(seq, updates)` batches applied since the base, in order —
    /// replayed through the pipeline's own graph-patching call to
    /// reconstruct the graph.
    pub batches: Vec<(u64, Vec<EdgeUpdate>)>,
    /// One entry per warm pipeline, in base order.
    pub pipelines: Vec<PipelineDelta>,
}

/// Computes the delta from `base` to `cur` given the batches applied
/// between them. Errors if the pipeline sets do not line up.
pub fn diff_checkpoint(
    base: &Checkpoint,
    cur: &Checkpoint,
    batches: Vec<(u64, Vec<EdgeUpdate>)>,
) -> io::Result<DeltaCheckpoint> {
    if base.pipelines.len() != cur.pipelines.len() {
        return Err(corrupt("delta pipeline count mismatch"));
    }
    let mut pipelines = Vec::with_capacity(cur.pipelines.len());
    for (b, c) in base.pipelines.iter().zip(&cur.pipelines) {
        if b.warm != c.warm {
            return Err(corrupt("delta pipeline identity mismatch"));
        }
        let (bs, cs) = (&b.state, &c.state);
        let part_changed = bs.part_of != cs.part_of || bs.part_members != cs.part_members;
        let baseline_changed = bs.baseline_intra != cs.baseline_intra
            || bs.baseline_fraction.to_bits() != cs.baseline_fraction.to_bits()
            || bs.baseline_density.to_bits() != cs.baseline_density.to_bits();
        pipelines.push(PipelineDelta {
            warm: c.warm,
            order_vals: diff_patch(&bs.order_vals, &cs.order_vals),
            order_min_bits: cs.order_min_val.to_bits(),
            order_max_bits: cs.order_max_val.to_bits(),
            states: diff_patch(&bs.states, &cs.states),
            part: part_changed.then(|| (cs.part_of.clone(), cs.part_members.clone())),
            baseline: baseline_changed.then(|| {
                (
                    cs.baseline_intra.clone(),
                    cs.baseline_fraction.to_bits(),
                    cs.baseline_density.to_bits(),
                )
            }),
            counters: [
                cs.total_rounds as u64,
                cs.batches_applied as u64,
                cs.full_reorders as u64,
                cs.partition_reorders as u64,
                cs.partition_repair_attempts as u64,
            ],
        });
    }
    Ok(DeltaCheckpoint {
        base_seq: base.seq,
        seq: cur.seq,
        epoch: cur.epoch,
        updates_applied: cur.updates_applied,
        mutator_rounds: cur.mutator_rounds,
        batches,
        pipelines,
    })
}

/// Applies a delta to its base in place, reconstructing the full
/// checkpoint at `delta.seq`. The graph is rebuilt by replaying the
/// delta's batches through
/// [`apply_updates`](gograph_graph::CsrGraph::apply_updates) after the
/// same self-loop filter `StreamingPipeline::apply_batch` uses, so the
/// result is bit-identical to the state the primary exported.
pub fn apply_delta(base: &mut Checkpoint, delta: &DeltaCheckpoint) -> io::Result<()> {
    if delta.base_seq != base.seq {
        return Err(corrupt(format!(
            "delta base_seq {} does not chain onto checkpoint seq {}",
            delta.base_seq, base.seq
        )));
    }
    if delta.pipelines.len() != base.pipelines.len() {
        return Err(corrupt("delta pipeline count mismatch"));
    }
    for (pc, pd) in base.pipelines.iter_mut().zip(&delta.pipelines) {
        if pc.warm != pd.warm {
            return Err(corrupt("delta pipeline identity mismatch"));
        }
        let s = &mut pc.state;
        for (_seq, updates) in &delta.batches {
            // Mirror StreamingPipeline::apply_batch: self-loops are
            // filtered before the graph is patched.
            let filtered: Vec<EdgeUpdate> = updates
                .iter()
                .copied()
                .filter(|u| u.src() != u.dst())
                .collect();
            s.graph = s.graph.apply_updates(&filtered);
        }
        apply_patch(&mut s.order_vals, &pd.order_vals)?;
        s.order_min_val = f64::from_bits(pd.order_min_bits);
        s.order_max_val = f64::from_bits(pd.order_max_bits);
        apply_patch(&mut s.states, &pd.states)?;
        if let Some((part_of, part_members)) = &pd.part {
            s.part_of = part_of.clone();
            s.part_members = part_members.clone();
        }
        if let Some((intra, fraction_bits, density_bits)) = &pd.baseline {
            s.baseline_intra = intra.clone();
            s.baseline_fraction = f64::from_bits(*fraction_bits);
            s.baseline_density = f64::from_bits(*density_bits);
        }
        s.total_rounds = pd.counters[0] as usize;
        s.batches_applied = pd.counters[1] as usize;
        s.full_reorders = pd.counters[2] as usize;
        s.partition_reorders = pd.counters[3] as usize;
        s.partition_repair_attempts = pd.counters[4] as usize;
    }
    base.seq = delta.seq;
    base.epoch = delta.epoch;
    base.updates_applied = delta.updates_applied;
    base.mutator_rounds = delta.mutator_rounds;
    Ok(())
}

fn put_patch(buf: &mut BytesMut, patch: &SparsePatch) {
    buf.put_u64_le(patch.new_len);
    buf.put_u64_le(patch.entries.len() as u64);
    for &(i, bits) in &patch.entries {
        buf.put_u32_le(i);
        buf.put_u64_le(bits);
    }
}

fn get_patch(buf: &mut Bytes) -> io::Result<SparsePatch> {
    if buf.remaining() < 8 {
        return Err(corrupt("truncated patch length"));
    }
    let new_len = buf.get_u64_le();
    let n = get_len(buf, 12)?;
    let entries = (0..n)
        .map(|_| {
            let i = buf.get_u32_le();
            let bits = buf.get_u64_le();
            (i, bits)
        })
        .collect();
    Ok(SparsePatch { new_len, entries })
}

/// Serializes a delta checkpoint (magic + payload + CRC trailer).
pub fn encode_delta(delta: &DeltaCheckpoint) -> Bytes {
    let mut payload = BytesMut::with_capacity(1 << 12);
    payload.put_u64_le(delta.base_seq);
    payload.put_u64_le(delta.seq);
    payload.put_u64_le(delta.epoch);
    payload.put_u64_le(delta.updates_applied);
    payload.put_u64_le(delta.mutator_rounds);
    payload.put_u32_le(delta.batches.len() as u32);
    for (seq, updates) in &delta.batches {
        payload.put_u64_le(*seq);
        put_updates(&mut payload, updates);
    }
    payload.put_u32_le(delta.pipelines.len() as u32);
    for p in &delta.pipelines {
        payload.put_u8(p.warm.alg.code());
        payload.put_u32_le(p.warm.source);
        put_patch(&mut payload, &p.order_vals);
        payload.put_u64_le(p.order_min_bits);
        payload.put_u64_le(p.order_max_bits);
        put_patch(&mut payload, &p.states);
        let flags = u8::from(p.part.is_some()) | (u8::from(p.baseline.is_some()) << 1);
        payload.put_u8(flags);
        if let Some((part_of, part_members)) = &p.part {
            payload.put_u64_le(part_of.len() as u64);
            for &x in part_of {
                payload.put_u32_le(x);
            }
            payload.put_u64_le(part_members.len() as u64);
            for members in part_members {
                payload.put_u64_le(members.len() as u64);
                for &v in members {
                    payload.put_u32_le(v);
                }
            }
        }
        if let Some((intra, fraction_bits, density_bits)) = &p.baseline {
            payload.put_u64_le(intra.len() as u64);
            for c in intra {
                payload.put_u64_le(c.positive as u64);
                payload.put_u64_le(c.total as u64);
            }
            payload.put_u64_le(*fraction_bits);
            payload.put_u64_le(*density_bits);
        }
        for c in p.counters {
            payload.put_u64_le(c);
        }
    }
    let crc = crc32(&payload);
    let mut out = BytesMut::with_capacity(8 + payload.len() + 4);
    out.put_slice(DELTA_MAGIC);
    out.put_slice(&payload);
    out.put_u32_le(crc);
    out.freeze()
}

/// Deserializes and CRC-verifies a delta checkpoint.
pub fn decode_delta(data: Bytes) -> io::Result<DeltaCheckpoint> {
    if data.len() < 8 + 4 || &data[..8] != DELTA_MAGIC {
        return Err(corrupt("not a GoGraph delta checkpoint (bad magic)"));
    }
    let payload = data.slice(8..data.len() - 4);
    let stored_crc = u32::from_le_bytes(data[data.len() - 4..].try_into().unwrap());
    if crc32(&payload) != stored_crc {
        return Err(corrupt("delta checkpoint CRC mismatch"));
    }
    let mut buf = payload;
    if buf.remaining() < 5 * 8 + 4 {
        return Err(corrupt("truncated delta header"));
    }
    let base_seq = buf.get_u64_le();
    let seq = buf.get_u64_le();
    let epoch = buf.get_u64_le();
    let updates_applied = buf.get_u64_le();
    let mutator_rounds = buf.get_u64_le();
    let n_batches = buf.get_u32_le() as usize;
    let mut batches = Vec::with_capacity(n_batches.min(4096));
    for _ in 0..n_batches {
        if buf.remaining() < 8 {
            return Err(corrupt("truncated delta batch seq"));
        }
        let bseq = buf.get_u64_le();
        let updates = get_updates(&mut buf).map_err(|e| corrupt(e.0))?;
        batches.push((bseq, updates));
    }
    if buf.remaining() < 4 {
        return Err(corrupt("truncated delta pipeline count"));
    }
    let n = buf.get_u32_le() as usize;
    let mut pipelines = Vec::with_capacity(n.min(256));
    for _ in 0..n {
        if buf.remaining() < 5 {
            return Err(corrupt("truncated delta pipeline header"));
        }
        let code = buf.get_u8();
        let alg = AlgSpec::from_code(code)
            .ok_or_else(|| corrupt(format!("unknown algorithm code {code}")))?;
        let source = buf.get_u32_le();
        let order_vals = get_patch(&mut buf)?;
        if buf.remaining() < 16 {
            return Err(corrupt("truncated delta order bounds"));
        }
        let order_min_bits = buf.get_u64_le();
        let order_max_bits = buf.get_u64_le();
        let states = get_patch(&mut buf)?;
        if buf.remaining() < 1 {
            return Err(corrupt("truncated delta flags"));
        }
        let flags = buf.get_u8();
        if flags & !0b11 != 0 {
            return Err(corrupt(format!("unknown delta flags {flags:#04x}")));
        }
        let part = if flags & 1 != 0 {
            let n_part_of = get_len(&mut buf, 4)?;
            let part_of: Vec<u32> = (0..n_part_of).map(|_| buf.get_u32_le()).collect();
            let n_parts = get_len(&mut buf, 8)?;
            let mut part_members: Vec<Vec<VertexId>> = Vec::with_capacity(n_parts.min(4096));
            for _ in 0..n_parts {
                let m = get_len(&mut buf, 4)?;
                part_members.push((0..m).map(|_| buf.get_u32_le()).collect());
            }
            Some((part_of, part_members))
        } else {
            None
        };
        let baseline = if flags & 2 != 0 {
            let n_intra = get_len(&mut buf, 16)?;
            let intra: Vec<PartitionContribution> = (0..n_intra)
                .map(|_| {
                    let positive = buf.get_u64_le() as usize;
                    let total = buf.get_u64_le() as usize;
                    PartitionContribution { positive, total }
                })
                .collect();
            if buf.remaining() < 16 {
                return Err(corrupt("truncated delta baselines"));
            }
            Some((intra, buf.get_u64_le(), buf.get_u64_le()))
        } else {
            None
        };
        if buf.remaining() < 5 * 8 {
            return Err(corrupt("truncated delta counters"));
        }
        let mut counters = [0u64; 5];
        for c in counters.iter_mut() {
            *c = buf.get_u64_le();
        }
        pipelines.push(PipelineDelta {
            warm: WarmSpec::new(alg, source),
            order_vals,
            order_min_bits,
            order_max_bits,
            states,
            part,
            baseline,
            counters,
        });
    }
    if buf.has_remaining() {
        return Err(corrupt("trailing bytes after delta checkpoint"));
    }
    Ok(DeltaCheckpoint {
        base_seq,
        seq,
        epoch,
        updates_applied,
        mutator_rounds,
        batches,
        pipelines,
    })
}

/// Atomically writes a delta checkpoint. Returns the bytes written.
pub fn write_delta(path: &Path, delta: &DeltaCheckpoint) -> io::Result<u64> {
    write_atomic(path, &encode_delta(delta))
}

/// The path of delta file `k` (1-based) chained onto the base
/// checkpoint at `base`: `epoch.ckpt` → `epoch.ckpt.d1`, `.d2`, …
pub fn delta_path(base: &Path, k: u32) -> PathBuf {
    let mut name = base
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(format!(".d{k}"));
    base.with_file_name(name)
}

/// Reads the base checkpoint and chains every valid delta onto it.
/// Returns the effective checkpoint plus the number of deltas applied;
/// `Ok(None)` when no base exists. The chain stops at the first
/// missing delta file or at the first delta whose `base_seq` does not
/// match the tip (a stale file from a crashed rebase); a delta that
/// fails CRC or decode is a hard error, since delta writes are atomic.
pub fn read_checkpoint_chain(base: &Path) -> io::Result<Option<(Checkpoint, u32)>> {
    let Some(mut ck) = read_checkpoint(base)? else {
        return Ok(None);
    };
    let mut applied = 0u32;
    loop {
        let path = delta_path(base, applied + 1);
        let raw = match std::fs::read(&path) {
            Ok(raw) => raw,
            Err(e) if e.kind() == io::ErrorKind::NotFound => break,
            Err(e) => return Err(e),
        };
        let delta = decode_delta(Bytes::from(raw))?;
        if delta.base_seq != ck.seq {
            break; // stale delta left behind by a crashed rebase
        }
        apply_delta(&mut ck, &delta)?;
        applied += 1;
    }
    Ok(Some((ck, applied)))
}

/// Deletes every delta file chained onto `base` (after a full rebase).
/// Stops at the first missing index; errors other than absence are
/// returned.
pub fn remove_deltas(base: &Path) -> io::Result<()> {
    for k in 1.. {
        match std::fs::remove_file(delta_path(base, k)) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => break,
            Err(e) => return Err(e),
        }
    }
    Ok(())
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
        let ck = Checkpoint {
            seq: 17,
            epoch: 9,
            updates_applied: 120,
            mutator_rounds: 33,
            pipelines: vec![PipelineCheckpoint {
                warm: WarmSpec::new(AlgSpec::Sssp, 0),
                state: state.clone(),
            }],
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
        assert_eq!(d.state.part_of, state.part_of);
        assert_eq!(d.state.part_members, state.part_members);
        assert_eq!(d.state.baseline_intra, state.baseline_intra);
        assert_eq!(bits(&d.state.states), bits(&state.states));
        assert_eq!(d.state.total_rounds, state.total_rounds);
        assert_eq!(d.state.batches_applied, state.batches_applied);
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
        // Overwrite is atomic and replaces the old contents.
        let ck2 = Checkpoint { seq: 8, ..ck };
        write_checkpoint(&path, &ck2).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap().unwrap().seq, 8);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn assert_checkpoints_bit_identical(a: &Checkpoint, b: &Checkpoint) {
        assert_eq!(a.seq, b.seq);
        assert_eq!(a.epoch, b.epoch);
        assert_eq!(a.updates_applied, b.updates_applied);
        assert_eq!(a.mutator_rounds, b.mutator_rounds);
        assert_eq!(a.pipelines.len(), b.pipelines.len());
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (pa, pb) in a.pipelines.iter().zip(&b.pipelines) {
            assert_eq!(pa.warm, pb.warm);
            assert_eq!(pa.state.graph, pb.state.graph, "graphs diverge");
            assert_eq!(bits(&pa.state.order_vals), bits(&pb.state.order_vals));
            assert_eq!(
                pa.state.order_min_val.to_bits(),
                pb.state.order_min_val.to_bits()
            );
            assert_eq!(
                pa.state.order_max_val.to_bits(),
                pb.state.order_max_val.to_bits()
            );
            assert_eq!(pa.state.part_of, pb.state.part_of);
            assert_eq!(pa.state.part_members, pb.state.part_members);
            assert_eq!(pa.state.baseline_intra, pb.state.baseline_intra);
            assert_eq!(bits(&pa.state.states), bits(&pb.state.states));
            assert_eq!(pa.state.total_rounds, pb.state.total_rounds);
            assert_eq!(pa.state.batches_applied, pb.state.batches_applied);
        }
    }

    /// Drives a pipeline through batches, checkpointing fully at the
    /// start, and returns (base checkpoint, applied batches, final
    /// full checkpoint).
    fn delta_fixture() -> (Checkpoint, Vec<(u64, Vec<EdgeUpdate>)>, Checkpoint) {
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
        let ck_at = |sp: &StreamingPipeline, seq: u64, epoch: u64| Checkpoint {
            seq,
            epoch,
            updates_applied: seq * 3,
            mutator_rounds: epoch,
            pipelines: vec![PipelineCheckpoint {
                warm: WarmSpec::new(AlgSpec::Sssp, 0),
                state: sp.export_state(),
            }],
        };
        sp.apply_batch(&[EdgeUpdate::insert(0, 59)]).unwrap();
        let base = ck_at(&sp, 1, 1);
        let mut batches = Vec::new();
        for k in 2u64..=5 {
            // Includes a self-loop: the reconstruction path must apply
            // the same filter apply_batch does.
            let batch = vec![
                EdgeUpdate::insert_weighted((k % 60) as u32, ((k * 7 + 3) % 60) as u32, 1.5),
                EdgeUpdate::insert((k % 60) as u32, (k % 60) as u32),
                EdgeUpdate::remove((k % 60) as u32, ((k + 1) % 60) as u32),
            ];
            sp.apply_batch(&batch).unwrap();
            batches.push((k, batch));
        }
        let cur = ck_at(&sp, 5, 5);
        (base, batches, cur)
    }

    #[test]
    fn delta_roundtrip_and_apply_are_bit_identical_to_full() {
        let (base, batches, cur) = delta_fixture();
        let delta = diff_checkpoint(&base, &cur, batches).unwrap();
        // The patch is actually sparse: untouched entries are omitted.
        assert!(
            (delta.pipelines[0].states.entries.len() as u64) < delta.pipelines[0].states.new_len,
            "delta should not rewrite every state entry"
        );
        let decoded = decode_delta(encode_delta(&delta)).unwrap();
        assert_eq!(decoded.base_seq, 1);
        assert_eq!(decoded.seq, 5);
        assert_eq!(decoded.batches.len(), 4);
        let mut rebuilt = base.clone();
        apply_delta(&mut rebuilt, &decoded).unwrap();
        assert_checkpoints_bit_identical(&rebuilt, &cur);
    }

    #[test]
    fn delta_corruption_and_chain_mismatch_are_refused() {
        let (base, batches, cur) = delta_fixture();
        let delta = diff_checkpoint(&base, &cur, batches).unwrap();
        let good = encode_delta(&delta);
        for idx in [9, good.len() / 2, good.len() - 2] {
            let mut bad = good.to_vec();
            bad[idx] ^= 0x5A;
            assert!(decode_delta(Bytes::from(bad)).is_err());
        }
        // A delta must refuse to chain onto the wrong base.
        let mut wrong = base.clone();
        wrong.seq = 99;
        assert!(apply_delta(&mut wrong, &delta).is_err());
    }

    #[test]
    fn chain_reading_applies_deltas_and_cuts_at_stale_files() {
        let dir = std::env::temp_dir().join(format!("gograph-ckpt-chain-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("epoch.ckpt");
        let (base, batches, cur) = delta_fixture();
        let delta = diff_checkpoint(&base, &cur, batches).unwrap();
        write_checkpoint(&path, &base).unwrap();
        write_delta(&delta_path(&path, 1), &delta).unwrap();
        let (eff, applied) = read_checkpoint_chain(&path).unwrap().unwrap();
        assert_eq!(applied, 1);
        assert_checkpoints_bit_identical(&eff, &cur);
        // Rebase: the base now holds `cur`; the old d1 is stale (its
        // base_seq chains onto the OLD base) and must be cut, not
        // misapplied — even before the rebase gets to delete it.
        write_checkpoint(&path, &cur).unwrap();
        let (eff, applied) = read_checkpoint_chain(&path).unwrap().unwrap();
        assert_eq!(applied, 0, "stale delta must be ignored after rebase");
        assert_checkpoints_bit_identical(&eff, &cur);
        remove_deltas(&path).unwrap();
        assert!(!delta_path(&path, 1).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
