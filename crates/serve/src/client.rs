//! Blocking client for the wire protocol — used by the load generator,
//! the CI smoke, and tests.
//!
//! The client is fault-aware: [`ServeClient::connect_with_retry`]
//! retries the initial connect with exponential backoff, and
//! **idempotent** requests (queries, stats) transparently reconnect and
//! retry when the server drops the connection mid-roundtrip (as the
//! fault plan's reply drops, a restart, or a capacity shed do). Update
//! batches are *not* auto-retried — the ack may have been lost after
//! the WAL append, and resending would double-apply.

use crate::core::{SegmentRecords, StatsSnapshot};
use crate::fault::splitmix64;
use crate::spec::{AlgSpec, ModeSpec};
use crate::wire::{
    decode_reply, encode_request, read_frame, write_frame, ErrorCode, ProbeVerdict, QueryReply,
    Reply, Request,
};
use gograph_graph::{EdgeUpdate, VertexId};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side failure: transport, protocol, or a server-reported error.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (after retries, where applicable).
    Io(std::io::Error),
    /// The server's bytes didn't parse.
    Protocol(String),
    /// The server answered with a typed error reply.
    Server {
        /// The machine-readable error class.
        code: ErrorCode,
        /// The human-readable detail.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// Reconnect/retry tuning for [`ServeClient`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first failed attempt (0 disables retrying).
    pub max_retries: u32,
    /// First backoff; doubles per attempt.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter ([0.5, 1.5)× the backoff) that
    /// keeps a reconnecting fleet from stampeding in lockstep.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_secs(1),
            jitter_seed: 0x9E37_79B9,
        }
    }
}

impl RetryPolicy {
    /// The jittered backoff before retry number `attempt` (0-based).
    fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_backoff);
        let h = splitmix64(self.jitter_seed ^ u64::from(attempt));
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        exp.mul_f64(0.5 + unit)
    }
}

/// A blocking connection to a `gograph_serve` server.
#[derive(Debug)]
pub struct ServeClient {
    stream: TcpStream,
    addr: SocketAddr,
    retry: RetryPolicy,
}

impl ServeClient {
    /// Connects to `addr` (no connect retries; roundtrip retries use
    /// [`RetryPolicy::default`]).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<ServeClient> {
        let addr = resolve(addr)?;
        let stream = open(addr)?;
        Ok(ServeClient {
            stream,
            addr,
            retry: RetryPolicy::default(),
        })
    }

    /// Connects to `addr`, retrying refused/failed connects with
    /// exponential backoff + jitter — rides out a server that is
    /// restarting (e.g. recovering from its WAL).
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs,
        retry: RetryPolicy,
    ) -> std::io::Result<ServeClient> {
        let addr = resolve(addr)?;
        let mut attempt = 0u32;
        loop {
            match open(addr) {
                Ok(stream) => {
                    return Ok(ServeClient {
                        stream,
                        addr,
                        retry,
                    })
                }
                Err(e) if attempt < retry.max_retries => {
                    let _ = e;
                    std::thread::sleep(retry.backoff(attempt));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The server address this client talks (and reconnects) to.
    pub fn peer_addr(&self) -> SocketAddr {
        self.addr
    }

    /// One request/reply exchange with no retry (used for updates and
    /// shutdown, which must not be replayed blindly).
    fn roundtrip(&mut self, req: &Request) -> Result<Reply, ClientError> {
        write_frame(&mut self.stream, &encode_request(req))?;
        let frame = read_frame(&mut self.stream)?
            .ok_or_else(|| ClientError::Protocol("server closed the connection".into()))?;
        let reply = decode_reply(frame).map_err(|e| ClientError::Protocol(e.to_string()))?;
        if let Reply::Error { code, message } = reply {
            return Err(ClientError::Server { code, message });
        }
        Ok(reply)
    }

    /// [`roundtrip`](Self::roundtrip) for idempotent requests: on a
    /// transport failure (or a capacity shed), reconnects and retries
    /// under the policy's backoff.
    fn roundtrip_idempotent(&mut self, req: &Request) -> Result<Reply, ClientError> {
        let mut attempt = 0u32;
        loop {
            let retryable = match self.roundtrip(req) {
                Ok(reply) => return Ok(reply),
                Err(e) if attempt >= self.retry.max_retries => return Err(e),
                Err(ClientError::Io(_)) => true,
                // A closed connection surfaces as a protocol EOF.
                Err(ClientError::Protocol(m)) => m.contains("closed the connection"),
                Err(ClientError::Server {
                    code: ErrorCode::Capacity,
                    ..
                }) => true,
                Err(e) => return Err(e),
            };
            if !retryable {
                unreachable!("non-retryable errors returned above");
            }
            std::thread::sleep(self.retry.backoff(attempt));
            attempt += 1;
            if let Ok(stream) = open(self.addr) {
                self.stream = stream;
            }
        }
    }

    /// Runs `alg` from `sources`, asking for the final states of
    /// `targets`. Retries transparently on transport failure —
    /// queries are read-only and safe to repeat.
    ///
    /// `combine` is inert: the server ignores it and runs every query
    /// alone on its own sources. It stays only because the benchmark
    /// harness (`benchmark/src/{service,probes}.rs`) passes it; the next
    /// benchmark change removes it.
    pub fn query(
        &mut self,
        alg: AlgSpec,
        mode: ModeSpec,
        combine: bool,
        sources: &[VertexId],
        targets: &[VertexId],
    ) -> Result<QueryReply, ClientError> {
        self.query_bounded(alg, mode, combine, None, sources, targets)
    }

    /// [`query`](Self::query) with a bounded-staleness requirement: the
    /// server rejects with [`ErrorCode::Stale`] instead of answering
    /// from a snapshot lagging more than `max_epoch_lag` batches.
    pub fn query_bounded(
        &mut self,
        alg: AlgSpec,
        mode: ModeSpec,
        combine: bool,
        max_epoch_lag: Option<u64>,
        sources: &[VertexId],
        targets: &[VertexId],
    ) -> Result<QueryReply, ClientError> {
        match self.roundtrip_idempotent(&Request::Query {
            alg,
            mode,
            combine,
            max_epoch_lag,
            sources: sources.to_vec(),
            targets: targets.to_vec(),
        })? {
            Reply::Query(q) => Ok(q),
            other => Err(ClientError::Protocol(format!(
                "expected query reply, got {other:?}"
            ))),
        }
    }

    /// Enqueues an update batch; returns `(accepted, epochs_published)`.
    /// Never auto-retried: a lost ack does not prove a lost batch, and
    /// a blind resend could apply the updates twice.
    pub fn send_updates(&mut self, updates: &[EdgeUpdate]) -> Result<(u32, u64), ClientError> {
        match self.roundtrip(&Request::Updates(updates.to_vec()))? {
            Reply::UpdateAck {
                accepted,
                epochs_published,
            } => Ok((accepted, epochs_published)),
            other => Err(ClientError::Protocol(format!(
                "expected update ack, got {other:?}"
            ))),
        }
    }

    /// Fetches the server's counter snapshot (idempotent, retried).
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        match self.roundtrip_idempotent(&Request::Stats)? {
            Reply::Stats(s) => Ok(s),
            other => Err(ClientError::Protocol(format!(
                "expected stats reply, got {other:?}"
            ))),
        }
    }

    /// Asks the server to shut down; the final stats snapshot is the
    /// acknowledgement. Not retried (a repeat would hit a dead server).
    pub fn shutdown_server(&mut self) -> Result<StatsSnapshot, ClientError> {
        match self.roundtrip(&Request::Shutdown)? {
            Reply::Stats(s) => Ok(s),
            other => Err(ClientError::Protocol(format!(
                "expected stats reply, got {other:?}"
            ))),
        }
    }

    /// Follower → primary: registers with `after_seq` as the cumulative
    /// ack and pulls the next WAL segment. Returns `(primary_seq,
    /// resync, records)`. Idempotent — re-asking for the same records
    /// is harmless, so transport failures are retried.
    pub fn subscribe(
        &mut self,
        follower: u64,
        after_seq: u64,
        max_records: u32,
    ) -> Result<(u64, bool, SegmentRecords), ClientError> {
        match self.roundtrip_idempotent(&Request::Subscribe {
            follower,
            after_seq,
            max_records,
        })? {
            Reply::WalSegment {
                primary_seq,
                resync,
                records,
            } => Ok((primary_seq, resync, records)),
            other => Err(ClientError::Protocol(format!(
                "expected wal segment, got {other:?}"
            ))),
        }
    }

    /// Follower → primary: acks everything through `seq` and submits
    /// this follower's probe fingerprints at that watermark for
    /// comparison. A divergence surfaces as
    /// [`ErrorCode::Divergent`]. Idempotent (re-acking the same
    /// watermark is harmless), so transport failures are retried.
    pub fn replica_ack(
        &mut self,
        follower: u64,
        seq: u64,
        fingerprints: &[u64],
    ) -> Result<(ProbeVerdict, u64, Vec<u64>), ClientError> {
        match self.roundtrip_idempotent(&Request::ReplicaAck {
            follower,
            seq,
            fingerprints: fingerprints.to_vec(),
        })? {
            Reply::Probe {
                seq,
                verdict,
                fingerprints,
                ..
            } => Ok((verdict, seq, fingerprints)),
            other => Err(ClientError::Protocol(format!(
                "expected probe reply, got {other:?}"
            ))),
        }
    }

    /// Fetches the node's probe fingerprints at `at_seq` (or its
    /// newest settled watermark). `(seq, epoch, verdict, fingerprints)`;
    /// idempotent, retried.
    pub fn probe(
        &mut self,
        at_seq: Option<u64>,
    ) -> Result<(u64, u64, ProbeVerdict, Vec<u64>), ClientError> {
        match self.roundtrip_idempotent(&Request::Probe { at_seq })? {
            Reply::Probe {
                seq,
                epoch,
                verdict,
                fingerprints,
            } => Ok((seq, epoch, verdict, fingerprints)),
            other => Err(ClientError::Protocol(format!(
                "expected probe reply, got {other:?}"
            ))),
        }
    }

    /// Downloads the primary's latest checkpoint (encoded) for
    /// follower bootstrap or re-sync. Idempotent, retried.
    pub fn fetch_checkpoint(&mut self) -> Result<Vec<u8>, ClientError> {
        match self.roundtrip_idempotent(&Request::FetchCheckpoint)? {
            Reply::Checkpoint(bytes) => Ok(bytes),
            other => Err(ClientError::Protocol(format!(
                "expected checkpoint reply, got {other:?}"
            ))),
        }
    }

    /// Promotes the node to primary (failover); the stats snapshot is
    /// the acknowledgement. Idempotent, retried.
    pub fn promote(&mut self) -> Result<StatsSnapshot, ClientError> {
        match self.roundtrip_idempotent(&Request::Promote)? {
            Reply::Stats(s) => Ok(s),
            other => Err(ClientError::Protocol(format!(
                "expected stats reply, got {other:?}"
            ))),
        }
    }
}

fn resolve(addr: impl ToSocketAddrs) -> std::io::Result<SocketAddr> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "address resolved to nothing",
        )
    })
}

fn open(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_is_capped_and_jittered() {
        let p = RetryPolicy {
            max_retries: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(200),
            jitter_seed: 7,
        };
        let b: Vec<Duration> = (0..8).map(|a| p.backoff(a)).collect();
        // Jitter spans [0.5, 1.5)× the exponential schedule.
        assert!(b[0] >= Duration::from_millis(5) && b[0] < Duration::from_millis(15));
        assert!(b[7] >= Duration::from_millis(100) && b[7] < Duration::from_millis(300));
        // Deterministic for a fixed seed...
        assert_eq!(p.backoff(3), p.backoff(3));
        // ...and different across seeds.
        let q = RetryPolicy {
            jitter_seed: 8,
            ..p
        };
        assert_ne!(p.backoff(3), q.backoff(3));
    }
}
