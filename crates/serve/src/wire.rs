//! Length-prefixed binary wire protocol.
//!
//! Every frame is `u32-LE body length` followed by the body; the body's
//! first byte is the message type. All integers are little-endian,
//! written by the workspace's one [`Writer`] and read back by its one
//! bounds-checked [`Reader`], which names the field and byte offset of
//! any malformed frame. The protocol is strictly request/response: one
//! reply per request, in order.
//!
//! Client → server:
//!
//! | type | message      | payload |
//! |------|--------------|---------|
//! | 1    | Query        | alg u8 · mode u8 · flags u8 (bit0 = combine, ignored · bit1 = max_epoch_lag present) · \[max_epoch_lag u64\] · n_sources u32 · sources u32× · n_targets u32 · targets u32× |
//! | 2    | UpdateBatch  | n u32 · n × (kind u8 (0 insert / 1 remove) · src u32 · dst u32 · weight f64 if insert) |
//! | 3    | Stats        | — |
//! | 4    | Shutdown     | — |
//! | 5    | Subscribe    | follower u64 · after_seq u64 · max_records u32 — follower asks for the WAL tail after `after_seq` (which doubles as its cumulative ack) |
//! | 6    | ReplicaAck   | follower u64 · seq u64 · n u32 · fingerprints u64× — follower reports its per-pipeline state fingerprints at applied watermark `seq` |
//! | 7    | Probe        | flags u8 (bit0 = at_seq present) · \[at_seq u64\] — ask for the node's state fingerprints (at a past watermark, or the latest) |
//! | 8    | FetchCheckpoint | — follower bootstrap: ship the checkpoint |
//! | 9    | Promote      | — flip a follower to primary (failover) |
//!
//! Server → client:
//!
//! | type | message      | payload |
//! |------|--------------|---------|
//! | 1    | QueryReply   | epoch u64 · alg u8 · flags u8 (bit0 warm, bit1 converged) · admitted u32 · rounds u64 · push_rounds u64 · state_bytes u64 · runtime_micros u64 · n_eff u32 · eff_sources u32× · n_values u32 · (vertex u32 · value f64)× |
//! | 2    | UpdateAck    | accepted u32 · epochs_published u64 |
//! | 3    | StatsReply   | the [`StatsSnapshot::FIELDS`] fields as u64, in declaration order |
//! | 4    | WalSegment   | primary_seq u64 · flags u8 (bit0 = resync: the tail is gone, re-bootstrap from checkpoint) · n u32 · n × (seq u64 · update batch) |
//! | 5    | ProbeReply   | seq u64 · epoch u64 · verdict u8 ([`ProbeVerdict`]) · n u32 · fingerprints u64× |
//! | 6    | CheckpointReply | n u32 · n bytes (an encoded checkpoint, opaque at the wire layer) |
//! | 0xFF | Error        | code u8 ([`ErrorCode`]) · len u32 · utf-8 message |
//!
//! Decoding is strict: a body with trailing bytes after a well-formed
//! message is rejected, so no two distinct byte strings decode to the
//! same message and fuzzers can assert prefix-freeness.

use crate::core::StatsSnapshot;
use crate::spec::{AlgSpec, ModeSpec};
use bytes::Bytes;
use gograph_graph::codec::{le_f64, le_u32, DecodeError, Reader, Writer};
use gograph_graph::{EdgeUpdate, VertexId};
use std::io::{Read, Write};

/// Frames larger than this are refused — nothing in the protocol needs
/// them, and the cap keeps a corrupt length prefix from allocating GBs.
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

/// A malformed frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire protocol error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> WireError {
        WireError(e.to_string())
    }
}

/// Machine-readable classification of a [`Reply::Error`], so clients
/// can distinguish retryable conditions (capacity shedding) from
/// permanent ones (a malformed request) without parsing the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Unclassified server-side failure.
    Generic = 0,
    /// The request itself was invalid (bad sources, empty batch, …).
    InvalidRequest = 1,
    /// The snapshot is staler than the query's `max_epoch_lag` bound.
    Stale = 2,
    /// The server is shutting down.
    Closed = 3,
    /// The connection cap was hit; retry later.
    Capacity = 4,
    /// The follower's state fingerprints diverge from the primary's;
    /// it must re-sync from checkpoint.
    Divergent = 5,
    /// A primary-only request hit a follower (or a replication request
    /// hit a node that cannot serve it).
    NotPrimary = 6,
}

impl ErrorCode {
    /// Decodes a wire byte.
    pub fn from_code(code: u8) -> Option<ErrorCode> {
        match code {
            0 => Some(ErrorCode::Generic),
            1 => Some(ErrorCode::InvalidRequest),
            2 => Some(ErrorCode::Stale),
            3 => Some(ErrorCode::Closed),
            4 => Some(ErrorCode::Capacity),
            5 => Some(ErrorCode::Divergent),
            6 => Some(ErrorCode::NotPrimary),
            _ => None,
        }
    }
}

/// How a [`Reply::Probe`] relates the reported fingerprints to the
/// request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ProbeVerdict {
    /// A plain report of the node's fingerprints at `seq` (no
    /// comparison was requested or possible).
    Report = 0,
    /// The caller's fingerprints matched this node's at `seq`.
    Match = 1,
    /// The requested watermark is no longer in the probe history; no
    /// comparison could be made.
    Unknown = 2,
}

impl ProbeVerdict {
    /// Decodes a wire byte.
    pub fn from_code(code: u8) -> Option<ProbeVerdict> {
        match code {
            0 => Some(ProbeVerdict::Report),
            1 => Some(ProbeVerdict::Match),
            2 => Some(ProbeVerdict::Unknown),
            _ => None,
        }
    }
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run an algorithm; reply with [`Reply::Query`].
    Query {
        /// Algorithm to run.
        alg: AlgSpec,
        /// Execution mode.
        mode: ModeSpec,
        /// Inert: decoded and validated (flag bit 0), then ignored —
        /// every query runs alone on its own sources. Kept only because
        /// the benchmark harness (`benchmark/src/probes.rs`) builds it;
        /// the next benchmark change removes it.
        combine: bool,
        /// Reject (with [`ErrorCode::Stale`]) instead of answering if
        /// the serving snapshot lags the newest enqueued batch by more
        /// than this many batches. `None` accepts any staleness.
        max_epoch_lag: Option<u64>,
        /// Source vertices.
        sources: Vec<VertexId>,
        /// Vertices whose final state the reply should include.
        targets: Vec<VertexId>,
    },
    /// Enqueue an update batch; reply with [`Reply::UpdateAck`].
    Updates(Vec<EdgeUpdate>),
    /// Request a [`Reply::Stats`] snapshot.
    Stats,
    /// Ask the server to shut down (acked with [`Reply::Stats`]).
    Shutdown,
    /// A follower asks the primary for the WAL tail after `after_seq`;
    /// reply with [`Reply::WalSegment`].
    Subscribe {
        /// Follower identity (stable across reconnects).
        follower: u64,
        /// The highest batch seq the follower has applied; records
        /// shipped start at `after_seq + 1`. Doubles as the cumulative
        /// ack that clamps WAL compaction.
        after_seq: u64,
        /// Cap on records per segment.
        max_records: u32,
    },
    /// A follower reports its per-pipeline state fingerprints at
    /// applied watermark `seq`; the primary compares them against its
    /// own probe history and replies [`Reply::Probe`] (verdict
    /// [`ProbeVerdict::Match`]/[`ProbeVerdict::Unknown`]) or
    /// [`ErrorCode::Divergent`].
    ReplicaAck {
        /// Follower identity.
        follower: u64,
        /// Applied watermark the fingerprints were taken at.
        seq: u64,
        /// Per-pipeline state fingerprints, in warm-spec order.
        fingerprints: Vec<u64>,
    },
    /// Ask for the node's state fingerprints (at a past watermark if
    /// `at_seq` is given, else the latest settled one); reply with
    /// [`Reply::Probe`].
    Probe {
        /// Watermark to report at; `None` means the latest.
        at_seq: Option<u64>,
    },
    /// Follower bootstrap: ship the primary's effective checkpoint;
    /// reply with [`Reply::Checkpoint`].
    FetchCheckpoint,
    /// Flip a follower to primary (failover); acked with
    /// [`Reply::Stats`].
    Promote,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Query result.
    Query(QueryReply),
    /// Update batch accepted.
    UpdateAck {
        /// Updates accepted into the queue.
        accepted: u32,
        /// Epochs published when the ack was sent.
        epochs_published: u64,
    },
    /// Counter snapshot.
    Stats(StatsSnapshot),
    /// A chunk of the primary's WAL tail (reply to
    /// [`Request::Subscribe`]).
    WalSegment {
        /// The primary's settled seq when the segment was cut — the
        /// follower measures its staleness lag against this.
        primary_seq: u64,
        /// The requested tail has been compacted away (or the follower
        /// was marked divergent/laggard); it must re-bootstrap from
        /// the checkpoint. `records` is empty when set.
        resync: bool,
        /// `(seq, updates)` records, contiguous from `after_seq + 1`.
        records: Vec<(u64, Vec<EdgeUpdate>)>,
    },
    /// State fingerprints at a seq watermark (reply to
    /// [`Request::Probe`] and [`Request::ReplicaAck`]).
    Probe {
        /// Watermark the fingerprints were taken at.
        seq: u64,
        /// Epoch published at that watermark.
        epoch: u64,
        /// How the fingerprints relate to the request.
        verdict: ProbeVerdict,
        /// Per-pipeline state fingerprints, in warm-spec order.
        fingerprints: Vec<u64>,
    },
    /// An encoded checkpoint (reply to [`Request::FetchCheckpoint`]);
    /// opaque bytes at the wire layer, decoded by the checkpoint codec.
    Checkpoint(Vec<u8>),
    /// The request failed.
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// The payload of [`Reply::Query`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReply {
    /// Epoch the query executed against.
    pub epoch: u64,
    /// Algorithm that ran.
    pub alg: AlgSpec,
    /// Whether the reply was answered from or started from epoch warm
    /// state (`rounds == 0` exactly when it was answered from it).
    pub warm: bool,
    /// Whether the run converged.
    pub converged: bool,
    /// Inert: always 1, since every query runs alone. Kept only because
    /// the benchmark harness (`benchmark/src/probes.rs`) builds it; the
    /// next benchmark change removes it.
    pub admitted: u32,
    /// Rounds executed.
    pub rounds: u64,
    /// Push-direction rounds.
    pub push_rounds: u64,
    /// Engine state memory for the run.
    pub state_bytes: u64,
    /// Engine-side runtime in microseconds.
    pub runtime_micros: u64,
    /// The source set the run used: the client's own (empty for a
    /// global algorithm).
    pub effective_sources: Vec<VertexId>,
    /// `(vertex, final state)` for each requested target.
    pub values: Vec<(VertexId, f64)>,
}

const REQ_QUERY: u8 = 1;
const REQ_UPDATES: u8 = 2;
const REQ_STATS: u8 = 3;
const REQ_SHUTDOWN: u8 = 4;
const REQ_SUBSCRIBE: u8 = 5;
const REQ_REPLICA_ACK: u8 = 6;
const REQ_PROBE: u8 = 7;
const REQ_FETCH_CHECKPOINT: u8 = 8;
const REQ_PROMOTE: u8 = 9;

const REP_QUERY: u8 = 1;
const REP_UPDATE_ACK: u8 = 2;
const REP_STATS: u8 = 3;
const REP_WAL_SEGMENT: u8 = 4;
const REP_PROBE: u8 = 5;
const REP_CHECKPOINT: u8 = 6;
const REP_ERROR: u8 = 0xFF;

/// Encodes an update batch: `n u32 · n × (kind u8 · src u32 · dst u32 ·
/// weight f64 if insert)`. Shared by the wire protocol and the
/// write-ahead log so a WAL record replays through the same codec a
/// client frame decodes through.
pub(crate) fn put_updates(w: &mut Writer, updates: &[EdgeUpdate]) {
    w.u32(updates.len() as u32);
    for u in updates {
        match *u {
            EdgeUpdate::Insert { src, dst, weight } => {
                w.u8(0);
                w.u32(src);
                w.u32(dst);
                w.f64(weight);
            }
            EdgeUpdate::Remove { src, dst } => {
                w.u8(1);
                w.u32(src);
                w.u32(dst);
            }
        }
    }
}

/// Decodes an update batch (see [`put_updates`]). Allocation is bounded
/// by the bytes present, not the declared count: an update takes at
/// least 9 of them.
pub(crate) fn get_updates(r: &mut Reader) -> Result<Vec<EdgeUpdate>, DecodeError> {
    let n = r.u32("update count")? as usize;
    let mut updates = Vec::with_capacity(n.min(r.remaining() / 9));
    for _ in 0..n {
        let insert = r.u8_as("update kind", |k| (k <= 1).then_some(k == 0))?;
        let (src, dst) = (r.u32("update src")?, r.u32("update dst")?);
        updates.push(if insert {
            EdgeUpdate::insert_weighted(src, dst, r.f64("insert weight")?)
        } else {
            EdgeUpdate::remove(src, dst)
        });
    }
    Ok(updates)
}

/// Accepts a flag byte with no bits outside `known`.
fn flags(known: u8) -> impl FnOnce(u8) -> Option<u8> {
    move |f| (f & !known == 0).then_some(f)
}

/// Encodes a request body (without the length prefix).
pub fn encode_request(req: &Request) -> Bytes {
    let mut w = Writer::with_capacity(64);
    match req {
        Request::Query {
            alg,
            mode,
            combine,
            max_epoch_lag,
            sources,
            targets,
        } => {
            let flags = u8::from(*combine) | (u8::from(max_epoch_lag.is_some()) << 1);
            w.bytes(&[REQ_QUERY, alg.code(), mode.code(), flags]);
            if let Some(lag) = max_epoch_lag {
                w.u64(*lag);
            }
            for vs in [sources, targets] {
                w.u32(vs.len() as u32);
                w.u32s(vs);
            }
        }
        Request::Updates(updates) => {
            w.u8(REQ_UPDATES);
            put_updates(&mut w, updates);
        }
        Request::Stats => w.u8(REQ_STATS),
        Request::Shutdown => w.u8(REQ_SHUTDOWN),
        Request::Subscribe {
            follower,
            after_seq,
            max_records,
        } => {
            w.u8(REQ_SUBSCRIBE);
            w.u64(*follower);
            w.u64(*after_seq);
            w.u32(*max_records);
        }
        Request::ReplicaAck {
            follower,
            seq,
            fingerprints,
        } => {
            w.u8(REQ_REPLICA_ACK);
            w.u64(*follower);
            w.u64(*seq);
            w.u32(fingerprints.len() as u32);
            w.u64s(fingerprints);
        }
        Request::Probe { at_seq } => {
            w.bytes(&[REQ_PROBE, u8::from(at_seq.is_some())]);
            if let Some(seq) = at_seq {
                w.u64(*seq);
            }
        }
        Request::FetchCheckpoint => w.u8(REQ_FETCH_CHECKPOINT),
        Request::Promote => w.u8(REQ_PROMOTE),
    }
    Bytes::from(w.into_vec())
}

/// Decodes a request body.
pub fn decode_request(buf: Bytes) -> Result<Request, WireError> {
    let mut r = Reader::new("wire request", &buf);
    let req = match r.u8("message type")? {
        REQ_QUERY => {
            let alg = r.u8_as("algorithm", AlgSpec::from_code)?;
            let mode = r.u8_as("mode", ModeSpec::from_code)?;
            let flags = r.u8_as("query flags", flags(0b11))?;
            let max_epoch_lag = match flags & 2 {
                0 => None,
                _ => Some(r.u64("max_epoch_lag")?),
            };
            let n = r.u32("source count")? as usize;
            let sources = r.u32s(n, "sources")?;
            let n = r.u32("target count")? as usize;
            let targets = r.u32s(n, "targets")?;
            Request::Query {
                alg,
                mode,
                combine: flags & 1 != 0,
                max_epoch_lag,
                sources,
                targets,
            }
        }
        REQ_UPDATES => Request::Updates(get_updates(&mut r)?),
        REQ_STATS => Request::Stats,
        REQ_SHUTDOWN => Request::Shutdown,
        REQ_SUBSCRIBE => Request::Subscribe {
            follower: r.u64("follower")?,
            after_seq: r.u64("after_seq")?,
            max_records: r.u32("max_records")?,
        },
        REQ_REPLICA_ACK => {
            let follower = r.u64("follower")?;
            let seq = r.u64("seq")?;
            let n = r.u32("fingerprint count")? as usize;
            let fingerprints = r.u64s(n, "fingerprints")?;
            Request::ReplicaAck {
                follower,
                seq,
                fingerprints,
            }
        }
        REQ_PROBE => {
            let at_seq = match r.u8_as("probe flags", flags(0b1))? {
                0 => None,
                _ => Some(r.u64("at_seq")?),
            };
            Request::Probe { at_seq }
        }
        REQ_FETCH_CHECKPOINT => Request::FetchCheckpoint,
        REQ_PROMOTE => Request::Promote,
        t => {
            return Err(r
                .invalid("message type", format!("unknown request type {t}"))
                .into())
        }
    };
    r.finish()?;
    Ok(req)
}

/// Encodes a reply body (without the length prefix).
pub fn encode_reply(reply: &Reply) -> Bytes {
    let mut w = Writer::with_capacity(64);
    match reply {
        Reply::Query(q) => {
            w.u8(REP_QUERY);
            w.u64(q.epoch);
            let flags = u8::from(q.warm) | (u8::from(q.converged) << 1);
            w.bytes(&[q.alg.code(), flags]);
            w.u32(q.admitted);
            for x in [q.rounds, q.push_rounds, q.state_bytes, q.runtime_micros] {
                w.u64(x);
            }
            w.u32(q.effective_sources.len() as u32);
            w.u32s(&q.effective_sources);
            w.u32(q.values.len() as u32);
            for &(v, x) in &q.values {
                w.u32(v);
                w.f64(x);
            }
        }
        Reply::UpdateAck {
            accepted,
            epochs_published,
        } => {
            w.u8(REP_UPDATE_ACK);
            w.u32(*accepted);
            w.u64(*epochs_published);
        }
        Reply::Stats(s) => {
            w.u8(REP_STATS);
            w.u64s(&s.to_array());
        }
        Reply::WalSegment {
            primary_seq,
            resync,
            records,
        } => {
            w.u8(REP_WAL_SEGMENT);
            w.u64(*primary_seq);
            w.u8(u8::from(*resync));
            w.u32(records.len() as u32);
            for (seq, updates) in records {
                w.u64(*seq);
                put_updates(&mut w, updates);
            }
        }
        Reply::Probe {
            seq,
            epoch,
            verdict,
            fingerprints,
        } => {
            w.u8(REP_PROBE);
            w.u64(*seq);
            w.u64(*epoch);
            w.u8(*verdict as u8);
            w.u32(fingerprints.len() as u32);
            w.u64s(fingerprints);
        }
        Reply::Checkpoint(bytes) => {
            w.u8(REP_CHECKPOINT);
            w.u32(bytes.len() as u32);
            w.bytes(bytes);
        }
        Reply::Error { code, message } => {
            w.bytes(&[REP_ERROR, *code as u8]);
            w.u32(message.len() as u32);
            w.bytes(message.as_bytes());
        }
    }
    Bytes::from(w.into_vec())
}

/// Decodes a reply body.
pub fn decode_reply(buf: Bytes) -> Result<Reply, WireError> {
    let mut r = Reader::new("wire reply", &buf);
    let reply = match r.u8("message type")? {
        REP_QUERY => {
            let epoch = r.u64("epoch")?;
            let alg = r.u8_as("algorithm", AlgSpec::from_code)?;
            let flags = r.u8_as("query reply flags", flags(0b11))?;
            let admitted = r.u32("admitted")?;
            let rounds = r.u64("rounds")?;
            let push_rounds = r.u64("push_rounds")?;
            let state_bytes = r.u64("state_bytes")?;
            let runtime_micros = r.u64("runtime_micros")?;
            let n = r.u32("source count")? as usize;
            let effective_sources = r.u32s(n, "effective sources")?;
            let n = r.u32("value count")? as usize;
            let values = r.elements(n, 12, "values")?;
            Reply::Query(QueryReply {
                epoch,
                alg,
                warm: flags & 1 != 0,
                converged: flags & 2 != 0,
                admitted,
                rounds,
                push_rounds,
                state_bytes,
                runtime_micros,
                effective_sources,
                values: (values.chunks_exact(12))
                    .map(|v| (le_u32(v), le_f64(&v[4..])))
                    .collect(),
            })
        }
        REP_UPDATE_ACK => Reply::UpdateAck {
            accepted: r.u32("accepted")?,
            epochs_published: r.u64("epochs_published")?,
        },
        REP_STATS => {
            let fields = r.u64s(StatsSnapshot::FIELDS, "stats fields")?;
            Reply::Stats(StatsSnapshot::from_array(
                fields.try_into().expect("FIELDS values"),
            ))
        }
        REP_WAL_SEGMENT => {
            let primary_seq = r.u64("primary_seq")?;
            let resync = r.u8_as("wal segment flags", flags(0b1))? != 0;
            let n = r.u32("record count")? as usize;
            // A record takes at least 12 bytes: seq and update count.
            let mut records = Vec::with_capacity(n.min(r.remaining() / 12));
            for _ in 0..n {
                records.push((r.u64("record seq")?, get_updates(&mut r)?));
            }
            Reply::WalSegment {
                primary_seq,
                resync,
                records,
            }
        }
        REP_PROBE => {
            let seq = r.u64("seq")?;
            let epoch = r.u64("epoch")?;
            let verdict = r.u8_as("probe verdict", ProbeVerdict::from_code)?;
            let n = r.u32("fingerprint count")? as usize;
            let fingerprints = r.u64s(n, "fingerprints")?;
            Reply::Probe {
                seq,
                epoch,
                verdict,
                fingerprints,
            }
        }
        REP_CHECKPOINT => {
            let n = r.u32("checkpoint length")? as usize;
            Reply::Checkpoint(r.slice(n, "checkpoint")?.to_vec())
        }
        REP_ERROR => {
            let code = r.u8_as("error code", ErrorCode::from_code)?;
            let n = r.u32("message length")? as usize;
            let message = String::from_utf8(r.slice(n, "message")?.to_vec())
                .map_err(|_| r.invalid("message", "not utf-8"))?;
            Reply::Error { code, message }
        }
        t => {
            return Err(r
                .invalid("message type", format!("unknown reply type {t}"))
                .into())
        }
    };
    r.finish()?;
    Ok(reply)
}

/// Writes one frame: length prefix + body.
pub fn write_frame(w: &mut impl Write, body: &Bytes) -> std::io::Result<()> {
    let len = body.len() as u32;
    debug_assert!(len <= MAX_FRAME_BYTES);
    w.write_all(&len.to_le_bytes())?;
    w.write_all(body.as_ref())?;
    w.flush()
}

/// Reads one frame body. `Ok(None)` means the peer closed the
/// connection cleanly (EOF at a frame boundary).
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Bytes>> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Ok(Some(Bytes::from(body)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        let reqs = [
            Request::Query {
                alg: AlgSpec::Sssp,
                mode: ModeSpec::Worklist,
                combine: true,
                max_epoch_lag: None,
                sources: vec![3, 9],
                targets: vec![0, 1, 2],
            },
            Request::Query {
                alg: AlgSpec::Cc,
                mode: ModeSpec::Async,
                combine: false,
                max_epoch_lag: Some(2),
                sources: vec![],
                targets: vec![7],
            },
            Request::Updates(vec![
                EdgeUpdate::insert_weighted(1, 2, 0.5),
                EdgeUpdate::remove(3, 4),
            ]),
            Request::Stats,
            Request::Shutdown,
            Request::Subscribe {
                follower: 0xfeed,
                after_seq: 42,
                max_records: 128,
            },
            Request::ReplicaAck {
                follower: 0xfeed,
                seq: 42,
                fingerprints: vec![1, u64::MAX, 0],
            },
            Request::Probe { at_seq: None },
            Request::Probe { at_seq: Some(7) },
            Request::FetchCheckpoint,
            Request::Promote,
        ];
        for req in reqs {
            let decoded = decode_request(encode_request(&req)).unwrap();
            assert_eq!(decoded, req);
        }
    }

    #[test]
    fn replies_roundtrip() {
        let replies = [
            Reply::Query(QueryReply {
                epoch: 7,
                alg: AlgSpec::PageRank,
                warm: true,
                converged: true,
                admitted: 3,
                rounds: 12,
                push_rounds: 4,
                state_bytes: 4096,
                runtime_micros: 1234,
                effective_sources: vec![5, 6],
                values: vec![(0, 1.5), (9, -2.0)],
            }),
            Reply::UpdateAck {
                accepted: 8,
                epochs_published: 3,
            },
            // Every field, slot by slot: `stats_reply_bytes_are_golden`.
            Reply::Stats(StatsSnapshot {
                epoch: 2,
                queries: 42,
                checkpoint_bytes_written: 9999,
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
            Reply::WalSegment {
                primary_seq: 3,
                resync: true,
                records: vec![],
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
            let decoded = decode_reply(encode_reply(&reply)).unwrap();
            assert_eq!(decoded, reply);
        }
    }

    /// The stats reply is 32 little-endian `u64`s in the order clients
    /// in the field already decode. The order comes from the table in
    /// `stats.rs`; this pins each *name* to its slot, so moving,
    /// inserting or dropping a row there fails here.
    #[test]
    fn stats_reply_bytes_are_golden() {
        let snapshot = StatsSnapshot {
            epoch: 1,
            epochs_published: 2,
            num_vertices: 3,
            num_edges: 4,
            queries: 5,
            coalesced: 6,
            warm_hits: 7,
            cold_runs: 8,
            query_rounds: 9,
            query_push_rounds: 10,
            last_state_bytes: 11,
            batches_enqueued: 12,
            batches_applied: 13,
            updates_applied: 14,
            mutator_rounds: 15,
            mutator_errors: 16,
            mutator_restarts: 17,
            degraded: 18,
            wal_appends: 19,
            wal_bytes: 20,
            wal_replayed: 21,
            checkpoints_written: 22,
            connections_shed: 23,
            repl_segments_shipped: 24,
            repl_records_shipped: 25,
            repl_acks: 26,
            repl_follower_lag: 27,
            repl_divergences: 28,
            repl_resyncs: 29,
            repl_last_seq: 30,
            repl_primary_seq: 31,
            checkpoint_bytes_written: 32,
        };
        let mut golden = vec![REP_STATS];
        for slot in 1..=32u64 {
            golden.extend_from_slice(&slot.to_le_bytes());
        }
        assert_eq!(&encode_reply(&Reply::Stats(snapshot))[..], &golden[..]);
        assert_eq!(
            decode_reply(Bytes::from(golden)).unwrap(),
            Reply::Stats(snapshot)
        );
    }

    #[test]
    fn malformed_frames_are_errors_not_panics() {
        assert!(decode_request(Bytes::from(vec![])).is_err());
        assert!(decode_request(Bytes::from(vec![99])).is_err());
        // Query with an absurd source count but no payload.
        let mut b = Writer::with_capacity(16);
        b.bytes(&[1, 0, 0, 0]);
        b.u32(u32::MAX);
        assert!(decode_request(Bytes::from(b.into_vec())).is_err());
        assert!(decode_reply(Bytes::from(vec![0x42])).is_err());
        // Unknown query flag bits and unknown error codes are refused.
        let mut b = Writer::default();
        b.bytes(&[1, 0, 0, 0b100]);
        b.u32(0);
        b.u32(0);
        assert!(decode_request(Bytes::from(b.into_vec())).is_err());
        let mut b = Writer::default();
        b.bytes(&[0xFF, 9]);
        b.u32(0);
        assert!(decode_reply(Bytes::from(b.into_vec())).is_err());
        // Unknown probe flags / wal-segment flags / probe verdicts.
        assert!(decode_request(Bytes::from(vec![7, 0b10])).is_err());
        let mut b = Writer::default();
        b.bytes(&[4]);
        b.u64(1);
        b.bytes(&[0b10]);
        b.u32(0);
        assert!(decode_reply(Bytes::from(b.into_vec())).is_err());
        let mut b = Writer::default();
        b.bytes(&[5]);
        b.u64(1);
        b.u64(1);
        b.bytes(&[3]);
        b.u32(0);
        assert!(decode_reply(Bytes::from(b.into_vec())).is_err());
        // Absurd declared counts with no payload must not over-allocate.
        let mut b = Writer::default();
        b.bytes(&[6]);
        b.u64(0);
        b.u64(0);
        b.u32(u32::MAX);
        assert!(decode_request(Bytes::from(b.into_vec())).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        for req in [
            Request::Stats,
            Request::Updates(vec![EdgeUpdate::insert(0, 1)]),
        ] {
            let mut body = encode_request(&req).to_vec();
            body.push(0);
            assert!(decode_request(body.into()).is_err());
        }
        let mut body = encode_reply(&Reply::UpdateAck {
            accepted: 1,
            epochs_published: 2,
        })
        .to_vec();
        body.push(0);
        assert!(decode_reply(body.into()).is_err());
    }

    #[test]
    fn frames_roundtrip_over_a_byte_stream() {
        let body = encode_request(&Request::Stats);
        let mut stream = Vec::new();
        write_frame(&mut stream, &body).unwrap();
        write_frame(&mut stream, &body).unwrap();
        let mut cursor = std::io::Cursor::new(stream);
        let one = read_frame(&mut cursor).unwrap().unwrap();
        let two = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(decode_request(one).unwrap(), Request::Stats);
        assert_eq!(decode_request(two).unwrap(), Request::Stats);
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }
}
