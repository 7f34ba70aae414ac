//! Thread-per-connection TCP front end over [`ServeCore`], hardened
//! for long-running serving: per-socket read/write deadlines (a stalled
//! or slow-dripping peer cannot pin a connection thread forever), a
//! connection cap with accept-time shedding (a typed
//! [`ErrorCode::Capacity`] reply, then close), and hook points for the
//! fault plan's reply drops/delays.

use crate::checkpoint::encode_checkpoint;
use crate::core::{QueryRequest, ServeCore, ServeError};
use crate::wire::{
    decode_request, encode_reply, read_frame, write_frame, ErrorCode, ProbeVerdict, QueryReply,
    Reply, Request,
};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Transport limits for [`serve_with`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Per-socket read deadline. A peer that opens a connection and
    /// drips bytes (or nothing) slower than this is disconnected —
    /// the classic slowloris hold-open no longer pins a thread.
    pub read_timeout: Option<Duration>,
    /// Per-socket write deadline: a peer that stops draining its
    /// receive window cannot block a reply forever.
    pub write_timeout: Option<Duration>,
    /// Maximum concurrently served connections. Arrivals beyond the
    /// cap are shed at accept time with an [`ErrorCode::Capacity`]
    /// reply instead of queueing unboundedly.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            read_timeout: Some(Duration::from_secs(60)),
            write_timeout: Some(Duration::from_secs(10)),
            max_connections: 256,
        }
    }
}

/// A running TCP server. Dropping the handle (or calling
/// [`shutdown`](ServerHandle::shutdown)) stops the accept loop and the
/// core's mutator.
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    core: Arc<ServeCore>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

/// [`serve_with`] under [`ServerConfig::default`].
pub fn serve(addr: impl ToSocketAddrs, core: Arc<ServeCore>) -> std::io::Result<ServerHandle> {
    serve_with(addr, core, ServerConfig::default())
}

/// Binds `addr` and serves `core` until shutdown. Each connection gets
/// its own reader thread; queries on different connections execute
/// concurrently against their pinned epochs.
pub fn serve_with(
    addr: impl ToSocketAddrs,
    core: Arc<ServeCore>,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    // Non-blocking accept + poll keeps shutdown simple and portable (no
    // self-connect tricks, no platform-specific listener close races).
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));

    let accept_stop = Arc::clone(&stop);
    let accept_core = Arc::clone(&core);
    let active = Arc::new(AtomicUsize::new(0));
    let reply_seq = Arc::new(AtomicU64::new(0));
    let accept_thread = std::thread::Builder::new()
        .name("gograph-accept".into())
        .spawn(move || {
            while !accept_stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((mut stream, _)) => {
                        // Replies are small frames; without nodelay the
                        // kernel's Nagle + delayed-ACK pairing adds tens
                        // of ms to every request.
                        let _ = stream.set_nodelay(true);
                        let _ = stream.set_read_timeout(config.read_timeout);
                        let _ = stream.set_write_timeout(config.write_timeout);
                        let prev = active.fetch_add(1, Ordering::SeqCst);
                        if prev >= config.max_connections {
                            active.fetch_sub(1, Ordering::SeqCst);
                            accept_core
                                .stats()
                                .connections_shed
                                .fetch_add(1, Ordering::Relaxed);
                            let reply = Reply::Error {
                                code: ErrorCode::Capacity,
                                message: format!(
                                    "connection limit ({}) reached; retry later",
                                    config.max_connections
                                ),
                            };
                            let _ = write_frame(&mut stream, &encode_reply(&reply));
                            continue; // drops (closes) the stream
                        }
                        let core = Arc::clone(&accept_core);
                        let stop = Arc::clone(&accept_stop);
                        let guard = ConnGuard {
                            active: Arc::clone(&active),
                        };
                        let reply_seq = Arc::clone(&reply_seq);
                        let spawned = std::thread::Builder::new()
                            .name("gograph-conn".into())
                            .spawn(move || {
                                let _guard = guard;
                                handle_connection(stream, &core, &stop, &reply_seq);
                            });
                        if spawned.is_err() {
                            // Thread exhaustion: shed instead of dying.
                            accept_core
                                .stats()
                                .connections_shed
                                .fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
        })?;

    Ok(ServerHandle {
        addr,
        core,
        stop,
        accept_thread: Some(accept_thread),
    })
}

/// Decrements the live-connection count when its handler exits, however
/// it exits (return, error, panic).
struct ConnGuard {
    active: Arc<AtomicUsize>,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.active.fetch_sub(1, Ordering::SeqCst);
    }
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The served core.
    pub fn core(&self) -> &Arc<ServeCore> {
        &self.core
    }

    /// True once a client's Shutdown request (or [`shutdown`]) stopped
    /// the accept loop.
    ///
    /// [`shutdown`]: ServerHandle::shutdown
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Stops accepting, joins the accept loop, and shuts the core's
    /// mutator down (draining queued update batches first).
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.core.shutdown();
    }

    /// Blocks until a client asks the server to shut down, then
    /// completes the shutdown. Used by the `gograph_serve` binary.
    pub fn wait(mut self) {
        while !self.stop.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(20));
        }
        self.shutdown();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn handle_connection(
    stream: TcpStream,
    core: &Arc<ServeCore>,
    stop: &Arc<AtomicBool>,
    reply_seq: &AtomicU64,
) {
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut writer = stream;
    let faults = core.fault_plan().clone();
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(f)) => f,
            // EOF, a malformed/oversized frame, or a deadline expiring
            // all end the connection; the client reconnects.
            Ok(None) | Err(_) => return,
        };
        let (reply, is_shutdown) = match decode_request(frame) {
            Ok(request) => {
                let is_shutdown = matches!(request, Request::Shutdown);
                (respond(core, request), is_shutdown)
            }
            Err(e) => (
                Reply::Error {
                    code: ErrorCode::InvalidRequest,
                    message: e.to_string(),
                },
                false,
            ),
        };
        if !faults.is_none() {
            let k = reply_seq.fetch_add(1, Ordering::Relaxed);
            if faults.drop_reply(k) {
                // Sever without replying, as a crashed server would.
                return;
            }
            if let Some(d) = faults.delay_reply(k) {
                std::thread::sleep(d);
            }
        }
        if write_frame(&mut writer, &encode_reply(&reply)).is_err() {
            return;
        }
        if is_shutdown {
            stop.store(true, Ordering::Relaxed);
            return;
        }
        if stop.load(Ordering::Relaxed) {
            return;
        }
    }
}

/// Maps a core error to its wire code.
fn error_reply(e: ServeError) -> Reply {
    let code = match &e {
        ServeError::InvalidRequest(_) => ErrorCode::InvalidRequest,
        ServeError::Stale { .. } => ErrorCode::Stale,
        ServeError::Closed => ErrorCode::Closed,
        ServeError::NotPrimary => ErrorCode::NotPrimary,
        ServeError::Divergent { .. } => ErrorCode::Divergent,
        ServeError::Engine(_) | ServeError::Io(_) => ErrorCode::Generic,
    };
    Reply::Error {
        code,
        message: e.to_string(),
    }
}

fn respond(core: &Arc<ServeCore>, request: Request) -> Reply {
    match request {
        Request::Query {
            alg,
            mode,
            combine,
            max_epoch_lag,
            sources,
            targets,
        } => {
            let outcome = core.execute_query(QueryRequest {
                alg,
                mode,
                sources,
                combine,
                max_epoch_lag,
            });
            match outcome {
                Ok(o) => {
                    let n = o.epoch.graph.num_vertices();
                    if let Some(&bad) = targets.iter().find(|&&v| (v as usize) >= n) {
                        return error_reply(ServeError::InvalidRequest(format!(
                            "target vertex {bad} out of range for {n} vertices"
                        )));
                    }
                    let values = targets.iter().map(|&v| (v, o.states[v as usize])).collect();
                    Reply::Query(QueryReply {
                        epoch: o.epoch.epoch,
                        alg: o.alg,
                        warm: o.warm,
                        converged: o.converged,
                        admitted: o.admitted as u32,
                        rounds: o.rounds as u64,
                        push_rounds: o.push_rounds as u64,
                        state_bytes: o.state_memory_bytes as u64,
                        runtime_micros: o.runtime.as_micros() as u64,
                        effective_sources: o.effective_sources,
                        values,
                    })
                }
                Err(e) => error_reply(e),
            }
        }
        Request::Updates(updates) => match core.enqueue_updates(updates) {
            Ok(accepted) => Reply::UpdateAck {
                accepted: accepted as u32,
                epochs_published: core.stats_snapshot().epochs_published,
            },
            Err(e) => error_reply(e),
        },
        Request::Subscribe {
            follower,
            after_seq,
            max_records,
        } => match core.replica_subscribe(follower, after_seq, max_records) {
            Ok((primary_seq, resync, records)) => Reply::WalSegment {
                primary_seq,
                resync,
                records,
            },
            Err(e) => error_reply(e),
        },
        Request::ReplicaAck {
            follower,
            seq,
            fingerprints,
        } => match core.replica_ack(follower, seq, &fingerprints) {
            Ok(report) => Reply::Probe {
                seq: report.seq,
                epoch: report.epoch,
                verdict: if report.known {
                    ProbeVerdict::Match
                } else {
                    ProbeVerdict::Unknown
                },
                fingerprints: report.fingerprints,
            },
            Err(e) => error_reply(e),
        },
        Request::Probe { at_seq } => {
            let report = core.probe(at_seq);
            Reply::Probe {
                seq: report.seq,
                epoch: report.epoch,
                verdict: if report.known {
                    ProbeVerdict::Report
                } else {
                    ProbeVerdict::Unknown
                },
                fingerprints: report.fingerprints,
            }
        }
        Request::FetchCheckpoint => match core.fetch_checkpoint() {
            Ok(ck) => Reply::Checkpoint(encode_checkpoint(&ck).to_vec()),
            Err(e) => error_reply(e),
        },
        Request::Promote => {
            core.promote();
            Reply::Stats(core.stats_snapshot())
        }
        Request::Stats | Request::Shutdown => Reply::Stats(core.stats_snapshot()),
    }
}
