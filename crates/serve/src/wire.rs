//! Length-prefixed binary wire protocol.
//!
//! Every frame is `u32-LE body length` followed by the body; the body's
//! first byte is the message type. All integers are little-endian,
//! encoded with the workspace's `bytes` buffers. The protocol is
//! strictly request/response: one reply per request, in order.
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
//! | 3    | StatsReply   | the 33 [`StatsSnapshot`] fields as u64, in declaration order |
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
use bytes::{Buf, BufMut, Bytes, BytesMut};
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

fn err<T>(msg: impl Into<String>) -> Result<T, WireError> {
    Err(WireError(msg.into()))
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

fn put_vertices(buf: &mut BytesMut, vs: &[VertexId]) {
    buf.put_u32_le(vs.len() as u32);
    for &v in vs {
        buf.put_u32_le(v);
    }
}

fn get_vertices(buf: &mut Bytes) -> Result<Vec<VertexId>, WireError> {
    if buf.remaining() < 4 {
        return err("truncated vertex list");
    }
    let n = buf.get_u32_le() as usize;
    if buf.remaining() < n * 4 {
        return err("vertex list length exceeds frame");
    }
    Ok((0..n).map(|_| buf.get_u32_le()).collect())
}

/// Encodes an update batch: `n u32 · n × (kind u8 · src u32 · dst u32 ·
/// weight f64 if insert)`. Shared by the wire protocol and the
/// write-ahead log so a WAL record replays through the same codec a
/// client frame decodes through.
pub(crate) fn put_updates(buf: &mut BytesMut, updates: &[EdgeUpdate]) {
    buf.put_u32_le(updates.len() as u32);
    for u in updates {
        match *u {
            EdgeUpdate::Insert { src, dst, weight } => {
                buf.put_slice(&[0]);
                buf.put_u32_le(src);
                buf.put_u32_le(dst);
                buf.put_f64_le(weight);
            }
            EdgeUpdate::Remove { src, dst } => {
                buf.put_slice(&[1]);
                buf.put_u32_le(src);
                buf.put_u32_le(dst);
            }
        }
    }
}

/// Decodes an update batch (see [`put_updates`]). Allocation is bounded
/// by the actual bytes present, not the declared count.
pub(crate) fn get_updates(buf: &mut Bytes) -> Result<Vec<EdgeUpdate>, WireError> {
    if buf.remaining() < 4 {
        return err("truncated update batch");
    }
    let n = buf.get_u32_le() as usize;
    let mut updates = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        if buf.remaining() < 9 {
            return err("truncated update entry");
        }
        let mut kind = [0u8; 1];
        buf.copy_to_slice(&mut kind);
        let src = buf.get_u32_le();
        let dst = buf.get_u32_le();
        match kind[0] {
            0 => {
                if buf.remaining() < 8 {
                    return err("truncated insert weight");
                }
                updates.push(EdgeUpdate::insert_weighted(src, dst, buf.get_f64_le()));
            }
            1 => updates.push(EdgeUpdate::remove(src, dst)),
            k => return err(format!("unknown update kind {k}")),
        }
    }
    Ok(updates)
}

fn put_fingerprints(buf: &mut BytesMut, fps: &[u64]) {
    buf.put_u32_le(fps.len() as u32);
    for &fp in fps {
        buf.put_u64_le(fp);
    }
}

fn get_fingerprints(buf: &mut Bytes) -> Result<Vec<u64>, WireError> {
    if buf.remaining() < 4 {
        return err("truncated fingerprint list");
    }
    let n = buf.get_u32_le() as usize;
    if buf.remaining() < n * 8 {
        return err("fingerprint list length exceeds frame");
    }
    Ok((0..n).map(|_| buf.get_u64_le()).collect())
}

fn expect_consumed<T>(value: T, buf: &Bytes) -> Result<T, WireError> {
    if buf.has_remaining() {
        err(format!("{} trailing bytes after message", buf.remaining()))
    } else {
        Ok(value)
    }
}

/// Encodes a request body (without the length prefix).
pub fn encode_request(req: &Request) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
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
            buf.put_slice(&[REQ_QUERY, alg.code(), mode.code(), flags]);
            if let Some(lag) = max_epoch_lag {
                buf.put_u64_le(*lag);
            }
            put_vertices(&mut buf, sources);
            put_vertices(&mut buf, targets);
        }
        Request::Updates(updates) => {
            buf.put_slice(&[REQ_UPDATES]);
            put_updates(&mut buf, updates);
        }
        Request::Stats => buf.put_slice(&[REQ_STATS]),
        Request::Shutdown => buf.put_slice(&[REQ_SHUTDOWN]),
        Request::Subscribe {
            follower,
            after_seq,
            max_records,
        } => {
            buf.put_slice(&[REQ_SUBSCRIBE]);
            buf.put_u64_le(*follower);
            buf.put_u64_le(*after_seq);
            buf.put_u32_le(*max_records);
        }
        Request::ReplicaAck {
            follower,
            seq,
            fingerprints,
        } => {
            buf.put_slice(&[REQ_REPLICA_ACK]);
            buf.put_u64_le(*follower);
            buf.put_u64_le(*seq);
            put_fingerprints(&mut buf, fingerprints);
        }
        Request::Probe { at_seq } => {
            buf.put_slice(&[REQ_PROBE, u8::from(at_seq.is_some())]);
            if let Some(seq) = at_seq {
                buf.put_u64_le(*seq);
            }
        }
        Request::FetchCheckpoint => buf.put_slice(&[REQ_FETCH_CHECKPOINT]),
        Request::Promote => buf.put_slice(&[REQ_PROMOTE]),
    }
    buf.freeze()
}

/// Decodes a request body.
pub fn decode_request(mut buf: Bytes) -> Result<Request, WireError> {
    if buf.remaining() < 1 {
        return err("empty request frame");
    }
    let mut tag = [0u8; 1];
    buf.copy_to_slice(&mut tag);
    match tag[0] {
        REQ_QUERY => {
            if buf.remaining() < 3 {
                return err("truncated query header");
            }
            let mut hdr = [0u8; 3];
            buf.copy_to_slice(&mut hdr);
            let alg = AlgSpec::from_code(hdr[0])
                .ok_or_else(|| WireError(format!("unknown algorithm code {}", hdr[0])))?;
            let mode = ModeSpec::from_code(hdr[1])
                .ok_or_else(|| WireError(format!("unknown mode code {}", hdr[1])))?;
            if hdr[2] & !0b11 != 0 {
                return err(format!("unknown query flags {:#04x}", hdr[2]));
            }
            let combine = hdr[2] & 1 != 0;
            let max_epoch_lag = if hdr[2] & 2 != 0 {
                if buf.remaining() < 8 {
                    return err("truncated max_epoch_lag");
                }
                Some(buf.get_u64_le())
            } else {
                None
            };
            if buf.remaining() < 4 {
                return err("truncated source list");
            }
            let sources = get_vertices(&mut buf)?;
            if buf.remaining() < 4 {
                return err("truncated target list");
            }
            let targets = get_vertices(&mut buf)?;
            expect_consumed(
                Request::Query {
                    alg,
                    mode,
                    combine,
                    max_epoch_lag,
                    sources,
                    targets,
                },
                &buf,
            )
        }
        REQ_UPDATES => {
            let updates = get_updates(&mut buf)?;
            expect_consumed(Request::Updates(updates), &buf)
        }
        REQ_STATS => expect_consumed(Request::Stats, &buf),
        REQ_SHUTDOWN => expect_consumed(Request::Shutdown, &buf),
        REQ_SUBSCRIBE => {
            if buf.remaining() < 20 {
                return err("truncated subscribe");
            }
            let req = Request::Subscribe {
                follower: buf.get_u64_le(),
                after_seq: buf.get_u64_le(),
                max_records: buf.get_u32_le(),
            };
            expect_consumed(req, &buf)
        }
        REQ_REPLICA_ACK => {
            if buf.remaining() < 16 {
                return err("truncated replica ack");
            }
            let follower = buf.get_u64_le();
            let seq = buf.get_u64_le();
            let fingerprints = get_fingerprints(&mut buf)?;
            expect_consumed(
                Request::ReplicaAck {
                    follower,
                    seq,
                    fingerprints,
                },
                &buf,
            )
        }
        REQ_PROBE => {
            if buf.remaining() < 1 {
                return err("truncated probe");
            }
            let mut flags = [0u8; 1];
            buf.copy_to_slice(&mut flags);
            if flags[0] & !0b1 != 0 {
                return err(format!("unknown probe flags {:#04x}", flags[0]));
            }
            let at_seq = if flags[0] & 1 != 0 {
                if buf.remaining() < 8 {
                    return err("truncated probe at_seq");
                }
                Some(buf.get_u64_le())
            } else {
                None
            };
            expect_consumed(Request::Probe { at_seq }, &buf)
        }
        REQ_FETCH_CHECKPOINT => expect_consumed(Request::FetchCheckpoint, &buf),
        REQ_PROMOTE => expect_consumed(Request::Promote, &buf),
        t => err(format!("unknown request type {t}")),
    }
}

/// Encodes a reply body (without the length prefix).
pub fn encode_reply(reply: &Reply) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    match reply {
        Reply::Query(q) => {
            buf.put_slice(&[REP_QUERY]);
            buf.put_u64_le(q.epoch);
            let flags = u8::from(q.warm) | (u8::from(q.converged) << 1);
            buf.put_slice(&[q.alg.code(), flags]);
            buf.put_u32_le(q.admitted);
            buf.put_u64_le(q.rounds);
            buf.put_u64_le(q.push_rounds);
            buf.put_u64_le(q.state_bytes);
            buf.put_u64_le(q.runtime_micros);
            put_vertices(&mut buf, &q.effective_sources);
            buf.put_u32_le(q.values.len() as u32);
            for &(v, x) in &q.values {
                buf.put_u32_le(v);
                buf.put_f64_le(x);
            }
        }
        Reply::UpdateAck {
            accepted,
            epochs_published,
        } => {
            buf.put_slice(&[REP_UPDATE_ACK]);
            buf.put_u32_le(*accepted);
            buf.put_u64_le(*epochs_published);
        }
        Reply::Stats(s) => {
            buf.put_slice(&[REP_STATS]);
            for v in s.to_array() {
                buf.put_u64_le(v);
            }
        }
        Reply::WalSegment {
            primary_seq,
            resync,
            records,
        } => {
            buf.put_slice(&[REP_WAL_SEGMENT]);
            buf.put_u64_le(*primary_seq);
            buf.put_slice(&[u8::from(*resync)]);
            buf.put_u32_le(records.len() as u32);
            for (seq, updates) in records {
                buf.put_u64_le(*seq);
                put_updates(&mut buf, updates);
            }
        }
        Reply::Probe {
            seq,
            epoch,
            verdict,
            fingerprints,
        } => {
            buf.put_slice(&[REP_PROBE]);
            buf.put_u64_le(*seq);
            buf.put_u64_le(*epoch);
            buf.put_slice(&[*verdict as u8]);
            put_fingerprints(&mut buf, fingerprints);
        }
        Reply::Checkpoint(bytes) => {
            buf.put_slice(&[REP_CHECKPOINT]);
            buf.put_u32_le(bytes.len() as u32);
            buf.put_slice(bytes);
        }
        Reply::Error { code, message } => {
            buf.put_slice(&[REP_ERROR, *code as u8]);
            buf.put_u32_le(message.len() as u32);
            buf.put_slice(message.as_bytes());
        }
    }
    buf.freeze()
}

/// Decodes a reply body.
pub fn decode_reply(mut buf: Bytes) -> Result<Reply, WireError> {
    if buf.remaining() < 1 {
        return err("empty reply frame");
    }
    let mut tag = [0u8; 1];
    buf.copy_to_slice(&mut tag);
    match tag[0] {
        REP_QUERY => {
            if buf.remaining() < 8 + 2 + 4 + 4 * 8 {
                return err("truncated query reply");
            }
            let epoch = buf.get_u64_le();
            let mut hdr = [0u8; 2];
            buf.copy_to_slice(&mut hdr);
            let alg = AlgSpec::from_code(hdr[0])
                .ok_or_else(|| WireError(format!("unknown algorithm code {}", hdr[0])))?;
            let warm = hdr[1] & 1 != 0;
            let converged = hdr[1] & 2 != 0;
            let admitted = buf.get_u32_le();
            let rounds = buf.get_u64_le();
            let push_rounds = buf.get_u64_le();
            let state_bytes = buf.get_u64_le();
            let runtime_micros = buf.get_u64_le();
            let effective_sources = get_vertices(&mut buf)?;
            if buf.remaining() < 4 {
                return err("truncated value list");
            }
            let n = buf.get_u32_le() as usize;
            if buf.remaining() < n * 12 {
                return err("value list length exceeds frame");
            }
            let values = (0..n)
                .map(|_| (buf.get_u32_le(), buf.get_f64_le()))
                .collect();
            expect_consumed(
                Reply::Query(QueryReply {
                    epoch,
                    alg,
                    warm,
                    converged,
                    admitted,
                    rounds,
                    push_rounds,
                    state_bytes,
                    runtime_micros,
                    effective_sources,
                    values,
                }),
                &buf,
            )
        }
        REP_UPDATE_ACK => {
            if buf.remaining() < 12 {
                return err("truncated update ack");
            }
            let reply = Reply::UpdateAck {
                accepted: buf.get_u32_le(),
                epochs_published: buf.get_u64_le(),
            };
            expect_consumed(reply, &buf)
        }
        REP_STATS => {
            if buf.remaining() < StatsSnapshot::FIELDS * 8 {
                return err("truncated stats reply");
            }
            let fields = std::array::from_fn(|_| buf.get_u64_le());
            expect_consumed(Reply::Stats(StatsSnapshot::from_array(fields)), &buf)
        }
        REP_WAL_SEGMENT => {
            if buf.remaining() < 13 {
                return err("truncated wal segment");
            }
            let primary_seq = buf.get_u64_le();
            let mut flags = [0u8; 1];
            buf.copy_to_slice(&mut flags);
            if flags[0] & !0b1 != 0 {
                return err(format!("unknown wal segment flags {:#04x}", flags[0]));
            }
            let resync = flags[0] & 1 != 0;
            if buf.remaining() < 4 {
                return err("truncated wal segment record count");
            }
            let n = buf.get_u32_le() as usize;
            let mut records = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                if buf.remaining() < 8 {
                    return err("truncated wal segment record seq");
                }
                let seq = buf.get_u64_le();
                let updates = get_updates(&mut buf)?;
                records.push((seq, updates));
            }
            expect_consumed(
                Reply::WalSegment {
                    primary_seq,
                    resync,
                    records,
                },
                &buf,
            )
        }
        REP_PROBE => {
            if buf.remaining() < 17 {
                return err("truncated probe reply");
            }
            let seq = buf.get_u64_le();
            let epoch = buf.get_u64_le();
            let mut code = [0u8; 1];
            buf.copy_to_slice(&mut code);
            let verdict = ProbeVerdict::from_code(code[0])
                .ok_or_else(|| WireError(format!("unknown probe verdict {}", code[0])))?;
            let fingerprints = get_fingerprints(&mut buf)?;
            expect_consumed(
                Reply::Probe {
                    seq,
                    epoch,
                    verdict,
                    fingerprints,
                },
                &buf,
            )
        }
        REP_CHECKPOINT => {
            if buf.remaining() < 4 {
                return err("truncated checkpoint reply");
            }
            let n = buf.get_u32_le() as usize;
            if buf.remaining() < n {
                return err("checkpoint length exceeds frame");
            }
            let mut bytes = vec![0u8; n];
            buf.copy_to_slice(&mut bytes);
            expect_consumed(Reply::Checkpoint(bytes), &buf)
        }
        REP_ERROR => {
            if buf.remaining() < 5 {
                return err("truncated error reply");
            }
            let mut code_byte = [0u8; 1];
            buf.copy_to_slice(&mut code_byte);
            let code = ErrorCode::from_code(code_byte[0])
                .ok_or_else(|| WireError(format!("unknown error code {}", code_byte[0])))?;
            let n = buf.get_u32_le() as usize;
            if buf.remaining() < n {
                return err("error message length exceeds frame");
            }
            let mut raw = vec![0u8; n];
            buf.copy_to_slice(&mut raw);
            match String::from_utf8(raw) {
                Ok(message) => expect_consumed(Reply::Error { code, message }, &buf),
                Err(_) => err("error message is not utf-8"),
            }
        }
        t => err(format!("unknown reply type {t}")),
    }
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
        let mut b = BytesMut::with_capacity(16);
        b.put_slice(&[1, 0, 0, 0]);
        b.put_u32_le(u32::MAX);
        assert!(decode_request(b.freeze()).is_err());
        assert!(decode_reply(Bytes::from(vec![0x42])).is_err());
        // Unknown query flag bits and unknown error codes are refused.
        let mut b = BytesMut::new();
        b.put_slice(&[1, 0, 0, 0b100]);
        b.put_u32_le(0);
        b.put_u32_le(0);
        assert!(decode_request(b.freeze()).is_err());
        let mut b = BytesMut::new();
        b.put_slice(&[0xFF, 9]);
        b.put_u32_le(0);
        assert!(decode_reply(b.freeze()).is_err());
        // Unknown probe flags / wal-segment flags / probe verdicts.
        assert!(decode_request(Bytes::from(vec![7, 0b10])).is_err());
        let mut b = BytesMut::new();
        b.put_slice(&[4]);
        b.put_u64_le(1);
        b.put_slice(&[0b10]);
        b.put_u32_le(0);
        assert!(decode_reply(b.freeze()).is_err());
        let mut b = BytesMut::new();
        b.put_slice(&[5]);
        b.put_u64_le(1);
        b.put_u64_le(1);
        b.put_slice(&[3]);
        b.put_u32_le(0);
        assert!(decode_reply(b.freeze()).is_err());
        // Absurd declared counts with no payload must not over-allocate.
        let mut b = BytesMut::new();
        b.put_slice(&[6]);
        b.put_u64_le(0);
        b.put_u64_le(0);
        b.put_u32_le(u32::MAX);
        assert!(decode_request(b.freeze()).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        for req in [
            Request::Stats,
            Request::Updates(vec![EdgeUpdate::insert(0, 1)]),
        ] {
            let mut body = BytesMut::from(encode_request(&req).as_ref());
            body.put_u8(0);
            assert!(decode_request(body.freeze()).is_err());
        }
        let mut body = BytesMut::from(
            encode_reply(&Reply::UpdateAck {
                accepted: 1,
                epochs_published: 2,
            })
            .as_ref(),
        );
        body.put_u8(0);
        assert!(decode_reply(body.freeze()).is_err());
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
