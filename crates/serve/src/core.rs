//! The in-process service core: epoch-pinned query execution on reader
//! threads, a single supervised mutator thread publishing epochs, and
//! shared counters for the stats reply.
//!
//! Transport-agnostic on purpose — [`crate::server`] wraps it in TCP,
//! tests drive it directly.
//!
//! # Durability and crash recovery
//!
//! With a [`DurabilityConfig`], every admitted update batch is appended
//! to a write-ahead log (see [`crate::wal`]) **before** the enqueue
//! call returns — the client's ack implies the batch is on disk. The
//! mutator periodically captures its full decision state in an atomic
//! checkpoint (see [`crate::checkpoint`]); [`ServeCore::recover`]
//! resumes from the last checkpoint and replays the WAL tail, landing
//! on **bit-identical** epochs to the uninterrupted run because the
//! streaming pipeline is deterministic and the checkpoint carries the
//! insertion order's exact float-key state.
//!
//! # Mutator supervision
//!
//! A panicking or failing batch application no longer halts epoch
//! publication: the mutator takes a
//! [`Savepoint`](gograph_engine::Savepoint) of its pipeline before
//! applying a batch, catches panics, and on any failure restores the
//! shared graph and order and every warm track to the pre-batch state.
//! The failed batch is skipped (deterministically — a recovery replaying
//! the same batches under the same [`FaultPlan`] skips the same ones),
//! `mutator_restarts` counts the rollback, and the `degraded` flag stays
//! raised until the next successful publish.
//!
//! # Replication
//!
//! A core runs as the [`Role::Primary`] (accepts updates, owns the WAL)
//! or as a [`Role::Follower`] (replays the primary's WAL records through
//! the *same* supervised apply path — a follower is a crash recovery
//! that never stops replaying). Because batch application and batch
//! *failure* are deterministic, a healthy follower's epochs are
//! bit-identical to the primary's; both sides record a per-track
//! state fingerprint after every settled batch, and the primary
//! compares the follower's fingerprints on every ack — a mismatch is a
//! detected divergence (typed error + counter), repaired by re-syncing
//! the follower from the primary's checkpoint. WAL compaction on the
//! primary is clamped to the slowest live follower's ack, with a
//! max-lag escape hatch that evicts a dead follower to checkpoint
//! re-sync instead of letting it pin the log forever.

use crate::checkpoint::{read_checkpoint, write_checkpoint, Checkpoint, PipelineCheckpoint};
use crate::epoch::{EpochCell, EpochState, WarmEntry};
use crate::fault::{splitmix64, FaultPlan};
use crate::spec::{AlgSpec, ModeSpec};
pub use crate::stats::{ServeStats, StatsSnapshot};
use crate::wal::{
    compact_wal, read_wal, read_wal_segment, truncate_wal, SyncPolicy, TailStatus, WalWriter,
};
use gograph_engine::{
    Bfs, ConnectedComponents, EngineError, PageRank, Pipeline, ResumableState, Sssp, Sswp,
    StreamingPipeline, StreamingPipelineBuilder, WarmStart,
};
use gograph_graph::{CsrGraph, EdgeUpdate, VertexId};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Sentinel in the compaction watermark meaning "nothing pending".
const NO_COMPACTION: u64 = u64::MAX;

/// An algorithm the mutator keeps converged across epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmSpec {
    /// The algorithm to maintain.
    pub alg: AlgSpec,
    /// Source vertex for sourced algorithms (ignored by global ones).
    pub source: VertexId,
}

impl WarmSpec {
    /// A warm spec for `alg` from `source`.
    pub fn new(alg: AlgSpec, source: VertexId) -> WarmSpec {
        WarmSpec { alg, source }
    }
}

/// Where and how the service persists update batches and checkpoints.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the log (`updates.wal`) and the checkpoint
    /// (`epoch.ckpt`). Created on boot if missing.
    pub dir: PathBuf,
    /// Checkpoint (and schedule a WAL compaction) every this many
    /// assigned sequence numbers. 0 disables periodic checkpoints —
    /// one is still written at boot and on clean shutdown.
    pub checkpoint_every_batches: u64,
    /// How eagerly WAL appends reach stable storage.
    pub sync: SyncPolicy,
}

impl DurabilityConfig {
    /// Durability under `dir` with the defaults: checkpoint every 16
    /// batches, fsync every append.
    pub fn new(dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            dir: dir.into(),
            checkpoint_every_batches: 16,
            sync: SyncPolicy::EveryBatch,
        }
    }

    /// Path of the write-ahead log.
    pub fn wal_path(&self) -> PathBuf {
        self.dir.join("updates.wal")
    }

    /// Path of the epoch checkpoint.
    pub fn checkpoint_path(&self) -> PathBuf {
        self.dir.join("epoch.ckpt")
    }
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Algorithms the mutator maintains warm across epochs, one track
    /// each over the mutator's one graph and order. When empty, a single
    /// global CC track is used so the order still gets maintained.
    pub warm: Vec<WarmSpec>,
    /// When set, updates are write-ahead logged and epochs checkpointed
    /// so the service can [`recover`](ServeCore::recover) after a
    /// crash. `None` keeps the pre-durability in-memory behavior.
    pub durability: Option<DurabilityConfig>,
    /// Injected faults (tests and chaos drills; [`FaultPlan::none`]
    /// in production).
    pub faults: FaultPlan,
    /// Primary-side escape hatch for WAL compaction: a follower whose
    /// ack trails a proposed compaction watermark by more than this
    /// many batches is marked for checkpoint re-sync instead of
    /// pinning the log (a dead follower must not hold the WAL open
    /// forever).
    pub max_follower_lag: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            warm: vec![
                WarmSpec::new(AlgSpec::Cc, 0),
                WarmSpec::new(AlgSpec::Sssp, 0),
            ],
            durability: None,
            faults: FaultPlan::none(),
            max_follower_lag: 1024,
        }
    }
}

/// Errors surfaced to clients.
#[derive(Debug)]
pub enum ServeError {
    /// The request was malformed (bad algorithm, missing sources,
    /// out-of-range vertex, ...).
    InvalidRequest(String),
    /// The engine failed to execute the query.
    Engine(EngineError),
    /// The service is shutting down.
    Closed,
    /// The current snapshot lags the newest admitted batch by more than
    /// the query's `max_epoch_lag` bound.
    Stale {
        /// Batches admitted but not yet reflected in an epoch.
        lag: u64,
        /// The bound the query asked for.
        max: u64,
    },
    /// The durability layer failed (WAL append, checkpoint I/O, ...).
    Io(std::io::Error),
    /// A write (or a replication request only the primary can serve)
    /// reached a follower. Retryable against the primary.
    NotPrimary,
    /// A follower's probe fingerprints disagree with the primary's at
    /// the same settled sequence number: its replayed state has
    /// diverged and it must re-sync from a checkpoint.
    Divergent {
        /// The sequence watermark the fingerprints were compared at.
        seq: u64,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::InvalidRequest(m) => write!(f, "invalid request: {m}"),
            ServeError::Engine(e) => write!(f, "engine error: {e}"),
            ServeError::Closed => write!(f, "service is shutting down"),
            ServeError::Stale { lag, max } => {
                write!(f, "snapshot lags by {lag} batches (bound {max})")
            }
            ServeError::Io(e) => write!(f, "durability I/O error: {e}"),
            ServeError::NotPrimary => write!(f, "this node is not the primary"),
            ServeError::Divergent { seq } => {
                write!(f, "replica state diverged at seq {seq}; re-sync required")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> ServeError {
        ServeError::Engine(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

/// One query as the core sees it (the wire layer decodes into this).
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Which algorithm to run.
    pub alg: AlgSpec,
    /// Execution mode.
    pub mode: ModeSpec,
    /// Source vertices, exactly the client's own; the run uses them as
    /// given.
    pub sources: Vec<VertexId>,
    /// Inert: every query runs alone on its own sources whatever this
    /// says. Kept only because the benchmark harness
    /// (`benchmark/src/probes.rs`) sets it; the next benchmark change
    /// removes it.
    pub combine: bool,
    /// Bounded staleness: reject (typed, retryable) instead of
    /// answering when more than this many admitted batches are not yet
    /// reflected in the pinned epoch. `None` accepts any staleness.
    pub max_epoch_lag: Option<u64>,
}

/// A finished query: the pinned epoch it ran against plus the full
/// result of the client's own query.
#[derive(Debug)]
pub struct QueryOutcome {
    /// The epoch snapshot the query executed against (still pinned as
    /// long as this outcome is alive).
    pub epoch: Arc<EpochState>,
    /// Algorithm that ran.
    pub alg: AlgSpec,
    /// Mode it ran under.
    pub mode: ModeSpec,
    /// The source set the run used: the client's own sources (empty
    /// for a global algorithm). Replies carry it so any client can
    /// reproduce the exact run.
    pub effective_sources: Vec<VertexId>,
    /// Inert: always 1, since every query runs alone. Kept only because
    /// the benchmark harness (`benchmark/src/probes.rs`) reads it; the
    /// next benchmark change removes it.
    pub admitted: usize,
    /// Whether the reply was answered from or started from the epoch's
    /// warm states.
    pub warm: bool,
    /// Rounds the engine executed; 0 exactly when the reply was answered
    /// from the epoch without running (`states` is then the entry's own
    /// allocation).
    pub rounds: usize,
    /// Rounds executed in the push direction (direction-optimizing
    /// engines; 0 otherwise).
    pub push_rounds: usize,
    /// Engine state memory for the run.
    pub state_memory_bytes: usize,
    /// Whether the run converged within the round cap.
    pub converged: bool,
    /// Engine-side runtime of the iteration loop.
    pub runtime: Duration,
    /// Final per-vertex states (in original vertex ids).
    pub states: Arc<Vec<f64>>,
}

/// Which side of a replicated pair this node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Accepts updates, owns the WAL, streams it to followers.
    Primary,
    /// Replays the primary's WAL through the supervised apply path;
    /// serves reads, refuses writes (until promoted).
    Follower,
}

const ROLE_PRIMARY: u8 = 0;
const ROLE_FOLLOWER: u8 = 1;

/// Probe-history entries kept per node (one per settled batch).
const PROBE_HISTORY: usize = 1024;

/// One registered follower, as the primary tracks it.
#[derive(Debug, Default)]
struct FollowerEntry {
    acked_seq: u64,
    needs_resync: bool,
}

/// One quiesced fingerprint record: the per-track state hashes after
/// the batch with sequence number `seq` settled.
#[derive(Debug, Clone)]
struct ProbeEntry {
    seq: u64,
    epoch: u64,
    fingerprints: Vec<u64>,
}

/// Shared replication bookkeeping: the role, the follower registry,
/// the bounded probe-fingerprint history, and the compaction floor.
#[derive(Debug)]
struct ReplicationState {
    role: AtomicU8,
    followers: Mutex<HashMap<u64, FollowerEntry>>,
    probes: Mutex<VecDeque<ProbeEntry>>,
    /// Seq through which the WAL has been compacted: records at or
    /// below it may no longer be on disk.
    compacted_through: AtomicU64,
    /// Generation counter bumped by the mutator after each completed
    /// re-sync ([`ServeCore::resync_from`] blocks on it).
    resync_done: AtomicU64,
}

impl ReplicationState {
    fn new(role: Role) -> ReplicationState {
        ReplicationState {
            role: AtomicU8::new(match role {
                Role::Primary => ROLE_PRIMARY,
                Role::Follower => ROLE_FOLLOWER,
            }),
            followers: Mutex::new(HashMap::new()),
            probes: Mutex::new(VecDeque::new()),
            compacted_through: AtomicU64::new(0),
            resync_done: AtomicU64::new(0),
        }
    }

    fn role(&self) -> Role {
        if self.role.load(Ordering::Acquire) == ROLE_FOLLOWER {
            Role::Follower
        } else {
            Role::Primary
        }
    }

    fn record_probe(&self, seq: u64, epoch: u64, fingerprints: Vec<u64>) {
        let mut probes = crate::lock_unpoisoned(&self.probes);
        if probes.len() == PROBE_HISTORY {
            probes.pop_front();
        }
        probes.push_back(ProbeEntry {
            seq,
            epoch,
            fingerprints,
        });
    }

    fn probe_at(&self, at_seq: Option<u64>) -> Option<ProbeEntry> {
        let probes = crate::lock_unpoisoned(&self.probes);
        match at_seq {
            None => probes.back().cloned(),
            Some(s) => probes.iter().rev().find(|p| p.seq == s).cloned(),
        }
    }

    /// Clamps a proposed compaction watermark to the acks of live
    /// followers. A follower trailing `proposed` by more than
    /// `max_lag` is marked for checkpoint re-sync instead of pinning
    /// the log (the escape hatch for dead followers).
    fn clamp_watermark(&self, proposed: u64, max_lag: u64) -> u64 {
        let mut w = proposed;
        let mut followers = crate::lock_unpoisoned(&self.followers);
        for entry in followers.values_mut() {
            if entry.needs_resync {
                continue; // re-syncs from a checkpoint; needs no WAL records
            }
            if proposed.saturating_sub(entry.acked_seq) > max_lag {
                entry.needs_resync = true;
            } else {
                w = w.min(entry.acked_seq);
            }
        }
        w
    }
}

/// The payload of one shipped WAL segment: `(seq, updates)` pairs in
/// ascending seq order, exactly as the primary's mutator settled them.
pub type SegmentRecords = Vec<(u64, Vec<EdgeUpdate>)>;

/// A fingerprint probe answer: the per-track state hashes this node
/// recorded when `seq` settled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeReport {
    /// The sequence watermark the fingerprints were captured at.
    pub seq: u64,
    /// The epoch counter at that watermark.
    pub epoch: u64,
    /// Whether this node still holds a record at the requested
    /// watermark (the history is bounded; old entries age out).
    pub known: bool,
    /// One hash per warm track, in `ServeConfig::warm` order.
    pub fingerprints: Vec<u64>,
}

/// One 64-bit fingerprint per warm track of the externally visible
/// state: graph shape, the processing order's keys and the track's exact
/// converged-state bits. Two nodes that replayed the same batches from
/// the same start hash identically (the bit-identical-replay
/// guarantee); any divergence flips the hash with overwhelming
/// probability. The order and states enter as the multiset digests the
/// pipeline patches for what each batch moved
/// ([`StreamingPipeline::order_digest`],
/// [`Track::state_digest`](gograph_engine::Track::state_digest)), so
/// this costs `O(tracks)`, not a walk; debug builds check every digest
/// against the walk.
fn fingerprints(sp: &StreamingPipeline) -> Vec<u64> {
    let g = sp.graph();
    let shape = [
        g.num_vertices() as u64,
        g.num_edges() as u64,
        sp.order_digest(),
    ];
    sp.tracks()
        .iter()
        .map(|t| {
            shape
                .iter()
                .chain([&t.state_digest()])
                .fold(0x9e37_79b9_7f4a_7c15, |h, &x| splitmix64(h ^ x))
        })
        .collect()
}

enum MutatorMsg {
    Batch { seq: u64, updates: Vec<EdgeUpdate> },
    Resync(Box<Checkpoint>),
    Stop,
}

/// The enqueue side of the update path: sequence assignment, the WAL
/// writer (owner of the log's fd), and the mutator channel — all under
/// one lock so "append, then send, then ack" is a single atomic step
/// from any client's point of view.
struct UpdateLane {
    tx: Sender<MutatorMsg>,
    next_seq: u64,
    wal: Option<WalWriter>,
}

/// Everything the mutator thread owns.
struct MutatorCtx {
    /// One track per entry of `warm`, in order.
    pipeline: StreamingPipeline,
    warm: Vec<WarmSpec>,
    faults: FaultPlan,
    durability: Option<DurabilityConfig>,
    compact_after: Arc<AtomicU64>,
    repl: Arc<ReplicationState>,
    max_follower_lag: u64,
    epoch: u64,
    last_seq: u64,
}

/// The service core. `Arc<ServeCore>` is shared by every connection
/// handler; all methods take `&self`.
pub struct ServeCore {
    epoch: Arc<EpochCell>,
    stats: Arc<ServeStats>,
    update_lane: Mutex<Option<UpdateLane>>,
    mutator: Mutex<Option<JoinHandle<()>>>,
    compact_after: Arc<AtomicU64>,
    durability: Option<DurabilityConfig>,
    faults: FaultPlan,
    repl: Arc<ReplicationState>,
    max_follower_lag: u64,
}

impl ServeCore {
    /// Boots the service over `graph`: builds the mutator's
    /// [`StreamingPipeline`] — one bootstrap reorder, one warm track and
    /// cold bootstrap run per configured algorithm — publishes the
    /// bootstrap epoch, and starts the mutator thread.
    ///
    /// With durability configured, a fresh start refuses to run over
    /// existing durable state (that is what [`recover`](Self::recover)
    /// is for); it writes the bootstrap checkpoint and opens the WAL
    /// before accepting any update.
    pub fn start(graph: &CsrGraph, config: ServeConfig) -> Result<Arc<ServeCore>, ServeError> {
        let warm_specs = if config.warm.is_empty() {
            vec![WarmSpec::new(AlgSpec::Cc, 0)]
        } else {
            config.warm.clone()
        };
        for w in &warm_specs {
            if w.alg.needs_sources() && (w.source as usize) >= graph.num_vertices() {
                return Err(ServeError::InvalidRequest(format!(
                    "warm source {} out of range for {} vertices",
                    w.source,
                    graph.num_vertices()
                )));
            }
        }

        let pipeline = warm_pipeline(graph, &warm_specs).build()?;

        let stats = Arc::new(ServeStats::default());
        let mut wal = None;
        if let Some(d) = &config.durability {
            std::fs::create_dir_all(&d.dir)?;
            if d.checkpoint_path().exists() || d.wal_path().exists() {
                return Err(ServeError::InvalidRequest(format!(
                    "durable state already present in {}; recover instead of starting fresh",
                    d.dir.display()
                )));
            }
            // Bootstrap checkpoint: recovery always has a base state,
            // even if the process dies before the first periodic one.
            let ck = make_checkpoint(&warm_specs, &pipeline, 0, 0, &stats);
            let bytes = write_checkpoint(&d.checkpoint_path(), &ck)?;
            stats.checkpoints_written.fetch_add(1, Ordering::Relaxed);
            stats
                .checkpoint_bytes_written
                .fetch_add(bytes, Ordering::Relaxed);
            wal = Some(WalWriter::open(&d.wal_path(), d.sync)?);
        }

        let bootstrap = epoch_from_pipeline(0, &warm_specs, &pipeline);
        Self::launch(
            Arc::new(EpochCell::new(bootstrap)),
            warm_specs,
            pipeline,
            stats,
            config,
            wal,
            0,
            0,
            Role::Primary,
        )
    }

    /// Rebuilds the service from its durable state: resumes the warm
    /// pipeline from the last checkpoint, truncates any torn WAL tail,
    /// replays the records the checkpoint does not cover, and restores
    /// the counters — the recovered epoch is bit-identical to the
    /// epoch the crashed process would have served. A WAL whose records
    /// do not continue the checkpoint's seq one by one is refused
    /// ([`ServeError::InvalidRequest`]): replaying past the gap would
    /// recover a shorter history than was acked.
    pub fn recover(config: ServeConfig) -> Result<Arc<ServeCore>, ServeError> {
        let d = config.durability.clone().ok_or_else(|| {
            ServeError::InvalidRequest("recover requires a durability config".to_string())
        })?;
        let ck = read_checkpoint(&d.checkpoint_path())?.ok_or_else(|| {
            ServeError::InvalidRequest(format!(
                "no checkpoint in {}; nothing to recover",
                d.dir.display()
            ))
        })?;
        if ck.pipelines.is_empty() {
            return Err(ServeError::InvalidRequest(
                "checkpoint carries no pipelines".to_string(),
            ));
        }

        let stats = Arc::new(ServeStats::default());
        adopt_counters(&stats, &ck);
        let (warm, mut pipeline) = resume_warm_pipeline(ck.pipelines)?;

        // Only the longest intact WAL prefix is replayable; anything
        // past it is a torn (never acked) append and is discarded.
        let wal_path = d.wal_path();
        let contents = read_wal(&wal_path)?;
        if contents.tail == TailStatus::CorruptTail {
            truncate_wal(&wal_path, contents.valid_bytes)?;
        }

        let mut epoch = ck.epoch;
        let mut last_seq = ck.seq;
        let mut replayed = 0u64;
        for rec in contents.records.iter().filter(|r| r.seq > ck.seq) {
            if rec.seq != last_seq + 1 {
                return Err(ServeError::InvalidRequest(format!(
                    "WAL gap in {}: expected seq {} after checkpoint seq {}, found {}",
                    d.dir.display(),
                    last_seq + 1,
                    ck.seq,
                    rec.seq
                )));
            }
            last_seq = rec.seq;
            replayed += 1;
            if let Some(rounds) =
                apply_supervised(&mut pipeline, rec.seq, &rec.updates, &stats, &config.faults)
            {
                epoch += 1;
                count_applied(&stats, rec.updates.len(), rounds);
            }
        }
        stats.batches_enqueued.store(last_seq, Ordering::Relaxed);
        stats.wal_replayed.store(replayed, Ordering::Relaxed);

        let cell = Arc::new(EpochCell::with_published(
            epoch_from_pipeline(epoch, &warm, &pipeline),
            epoch,
        ));
        let wal = Some(WalWriter::open(&wal_path, d.sync)?);
        Self::launch(
            cell,
            warm,
            pipeline,
            stats,
            config,
            wal,
            epoch,
            last_seq,
            Role::Primary,
        )
    }

    /// [`recover`](Self::recover) when durable state exists, otherwise
    /// [`start`](Self::start) fresh over `graph`. The bool is true when
    /// the service was recovered.
    pub fn recover_or_start(
        graph: &CsrGraph,
        config: ServeConfig,
    ) -> Result<(Arc<ServeCore>, bool), ServeError> {
        let has_checkpoint = config
            .durability
            .as_ref()
            .is_some_and(|d| d.checkpoint_path().exists());
        if has_checkpoint {
            Ok((Self::recover(config)?, true))
        } else {
            Ok((Self::start(graph, config)?, false))
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn launch(
        cell: Arc<EpochCell>,
        warm: Vec<WarmSpec>,
        pipeline: StreamingPipeline,
        stats: Arc<ServeStats>,
        config: ServeConfig,
        wal: Option<WalWriter>,
        epoch: u64,
        last_seq: u64,
        role: Role,
    ) -> Result<Arc<ServeCore>, ServeError> {
        let compact_after = Arc::new(AtomicU64::new(NO_COMPACTION));
        let repl = Arc::new(ReplicationState::new(role));
        // Seed the probe history: an ack or probe at the boot
        // watermark has an answer before any batch settles.
        repl.record_probe(last_seq, epoch, fingerprints(&pipeline));
        stats.repl_last_seq.store(last_seq, Ordering::Release);
        let ctx = MutatorCtx {
            pipeline,
            warm,
            faults: config.faults.clone(),
            durability: config.durability.clone(),
            compact_after: Arc::clone(&compact_after),
            repl: Arc::clone(&repl),
            max_follower_lag: config.max_follower_lag,
            epoch,
            last_seq,
        };
        // The mutator owns only the shared inner pieces (epoch cell +
        // counters), never an `Arc<ServeCore>` — a core handle here
        // would keep the thread and the core alive in a cycle.
        let (tx, rx) = mpsc::channel();
        let mcell = Arc::clone(&cell);
        let mstats = Arc::clone(&stats);
        let handle = std::thread::Builder::new()
            .name("gograph-mutator".into())
            .spawn(move || mutator_loop(rx, ctx, &mcell, &mstats))?;

        Ok(Arc::new(ServeCore {
            epoch: cell,
            stats,
            update_lane: Mutex::new(Some(UpdateLane {
                tx,
                next_seq: last_seq,
                wal,
            })),
            mutator: Mutex::new(Some(handle)),
            compact_after,
            durability: config.durability,
            faults: config.faults,
            repl,
            max_follower_lag: config.max_follower_lag,
        }))
    }

    /// Pins and returns the current epoch snapshot.
    pub fn pin_epoch(&self) -> Arc<EpochState> {
        self.epoch.pin()
    }

    /// The shared counters (the server front end bumps shed/transport
    /// counters directly).
    pub(crate) fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The configured fault plan (the server front end consults it for
    /// reply drops/delays).
    pub(crate) fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Answers `req` against a pinned epoch, on the client's own
    /// sources. A single-source or global query whose
    /// [`AlgSpec::warm_is_exact`] algorithm the epoch holds a converged
    /// entry for is answered *from* that entry (0 rounds); anything else
    /// runs the kernel at once against a freshly pinned epoch.
    pub fn execute_query(&self, req: QueryRequest) -> Result<QueryOutcome, ServeError> {
        if let Some(max) = req.max_epoch_lag {
            // On a follower the freshest reference is the primary's
            // settled seq from the last WAL segment — bounded staleness
            // holds against the primary, not just the local queue.
            let enqueued = self
                .stats
                .batches_enqueued
                .load(Ordering::Relaxed)
                .max(self.stats.repl_primary_seq.load(Ordering::Relaxed));
            let settled = self.stats.batches_applied.load(Ordering::Relaxed)
                + self.stats.mutator_errors.load(Ordering::Relaxed);
            let lag = enqueued.saturating_sub(settled);
            if lag > max {
                return Err(ServeError::Stale { lag, max });
            }
        }
        if req.alg.needs_sources() && req.sources.is_empty() {
            return Err(ServeError::InvalidRequest(format!(
                "{} requires at least one source vertex",
                req.alg.name()
            )));
        }
        let sources = if req.alg.needs_sources() {
            req.sources
        } else {
            Vec::new()
        };

        // A state that is already a fixpoint needs zero rounds. The
        // mutator converged this entry on this very epoch before
        // publishing it, and for the max-norm algorithms a re-run from
        // it changes nothing, so the entry *is* the reply: no kernel.
        if sources.len() <= 1 && req.alg.warm_is_exact() {
            let epoch = self.epoch.pin();
            let source = sources.first().copied().unwrap_or(0);
            let fixpoint = epoch
                .warm_for(req.alg, source)
                .filter(|entry| entry.converged)
                .map(|entry| Arc::clone(&entry.states));
            if let Some(states) = fixpoint {
                self.stats.warm_hits.fetch_add(1, Ordering::Relaxed);
                self.stats.queries.fetch_add(1, Ordering::Relaxed);
                return Ok(QueryOutcome {
                    epoch,
                    alg: req.alg,
                    mode: req.mode,
                    effective_sources: sources,
                    admitted: 1,
                    warm: true,
                    rounds: 0,
                    push_rounds: 0,
                    state_memory_bytes: 0,
                    converged: true,
                    runtime: Duration::ZERO,
                    states,
                });
            }
        }

        let outcome = self.run(req.alg, req.mode, sources)?;
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
        Ok(outcome)
    }

    /// One execution against a freshly pinned epoch.
    fn run(
        &self,
        alg: AlgSpec,
        mode: ModeSpec,
        sources: Vec<VertexId>,
    ) -> Result<QueryOutcome, ServeError> {
        let epoch = self.epoch.pin();
        let n = epoch.graph.num_vertices();
        if let Some(&bad) = sources.iter().find(|&&s| (s as usize) >= n) {
            return Err(ServeError::InvalidRequest(format!(
                "source vertex {bad} out of range for {n} vertices"
            )));
        }

        // Warm-start only exact-match single-source (or global) queries
        // from the epoch's converged states.
        let warm_entry: Option<&WarmEntry> = if sources.len() <= 1 {
            epoch.warm_for(alg, sources.first().copied().unwrap_or(0))
        } else {
            None
        };

        let algorithm = alg.instantiate(&sources);
        let mut builder = Pipeline::on(&epoch.graph)
            .order_ref(&epoch.order)
            .mode(mode.mode())
            .algorithm_ref(algorithm.as_ref());
        let warm = warm_entry.is_some();
        if let Some(entry) = warm_entry {
            builder = builder.warm_start(WarmStart::from_states((*entry.states).clone()));
        }
        let result = builder.execute()?;

        let stats = result.stats;
        if warm {
            self.stats.warm_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.cold_runs.fetch_add(1, Ordering::Relaxed);
        }
        self.stats
            .query_rounds
            .fetch_add(stats.rounds as u64, Ordering::Relaxed);
        self.stats
            .query_push_rounds
            .fetch_add(stats.push_rounds as u64, Ordering::Relaxed);
        self.stats
            .last_state_bytes
            .store(stats.state_memory_bytes as u64, Ordering::Relaxed);

        Ok(QueryOutcome {
            epoch,
            alg,
            mode,
            effective_sources: sources,
            admitted: 1,
            warm,
            rounds: stats.rounds,
            push_rounds: stats.push_rounds,
            state_memory_bytes: stats.state_memory_bytes,
            converged: stats.converged,
            runtime: stats.runtime,
            states: Arc::new(stats.final_states),
        })
    }

    /// Queues an update batch for the mutator. With durability, the
    /// batch is appended (and synced, per policy) to the WAL before
    /// this returns — an acked batch survives a crash. Returns the
    /// number of updates accepted.
    pub fn enqueue_updates(&self, updates: Vec<EdgeUpdate>) -> Result<usize, ServeError> {
        if self.role() != Role::Primary {
            return Err(ServeError::NotPrimary);
        }
        if updates.is_empty() {
            return Err(ServeError::InvalidRequest("empty update batch".to_string()));
        }
        let n = updates.len();
        let mut guard = crate::lock_unpoisoned(&self.update_lane);
        let lane = guard.as_mut().ok_or(ServeError::Closed)?;
        let seq = lane.next_seq + 1;
        if let Some(d) = &self.durability {
            // A compaction watermark set by the mutator (post-
            // checkpoint) is honored here, under the lane lock, because
            // this thread owns the log's fd: compaction renames a fresh
            // inode over the path, so the writer must be reopened. The
            // proposal is clamped to the slowest live follower's ack so
            // compaction never discards a record a follower still
            // needs (laggards past `max_follower_lag` are evicted to
            // checkpoint re-sync instead).
            let watermark = self.compact_after.swap(NO_COMPACTION, Ordering::AcqRel);
            if watermark != NO_COMPACTION {
                let watermark = self.repl.clamp_watermark(watermark, self.max_follower_lag);
                lane.wal = None; // close the fd the rename strands
                match compact_wal(&d.wal_path(), watermark) {
                    Ok(_) => {
                        self.repl
                            .compacted_through
                            .store(watermark, Ordering::Release);
                    }
                    Err(e) => eprintln!("gograph-serve: WAL compaction failed: {e}"),
                }
            }
            if lane.wal.is_none() {
                lane.wal = Some(WalWriter::open(&d.wal_path(), d.sync)?);
            }
            if let Some(wal) = lane.wal.as_mut() {
                let bytes = wal.append(seq, &updates)?;
                self.stats.wal_appends.fetch_add(1, Ordering::Relaxed);
                self.stats.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
            }
        }
        lane.tx
            .send(MutatorMsg::Batch { seq, updates })
            .map_err(|_| ServeError::Closed)?;
        lane.next_seq = seq;
        self.stats.batches_enqueued.fetch_add(1, Ordering::Relaxed);
        Ok(n)
    }

    /// A point-in-time copy of every counter.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let ep = self.epoch.pin();
        StatsSnapshot {
            epoch: ep.epoch,
            epochs_published: self.epoch.epochs_published(),
            num_vertices: ep.graph.num_vertices() as u64,
            num_edges: ep.graph.num_edges() as u64,
            ..self.stats.load()
        }
    }

    /// Stops the mutator after it drains every queued batch (writing a
    /// final checkpoint and compacting the WAL when durable), and joins
    /// it. Idempotent; queries keep working against the last epoch.
    pub fn shutdown(&self) {
        let lane = crate::lock_unpoisoned(&self.update_lane).take();
        if let Some(lane) = lane {
            let _ = lane.tx.send(MutatorMsg::Stop);
            // Dropping the lane closes the WAL fd before the mutator's
            // final compaction renames a fresh log over the path.
        }
        let handle = crate::lock_unpoisoned(&self.mutator).take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }

    /// Blocks until the mutator has settled every batch enqueued before
    /// this call — applied or skipped, epoch published, probe recorded
    /// (used by tests and the CI smoke to make "≥ 1 epoch published"
    /// deterministic, and by the replica puller before it reads its
    /// fingerprints).
    pub fn quiesce(&self) {
        while self.settled_seq() < self.stats.batches_enqueued.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The last sequence number the mutator finished with, probe
    /// included. `batches_applied + mutator_errors` reaches the same
    /// number earlier — before the probe lands — so anything that goes
    /// on to read or compare fingerprints waits on this instead.
    fn settled_seq(&self) -> u64 {
        self.stats.repl_last_seq.load(Ordering::Acquire)
    }

    /// This node's current replication role.
    pub fn role(&self) -> Role {
        self.repl.role()
    }

    /// Promotes this node to primary (failover): its puller observes
    /// the flip and stops, and writes are accepted from then on.
    /// Idempotent. A promoted follower has no durability of its own —
    /// post-failover writes are in-memory until it is given a WAL.
    pub fn promote(&self) {
        self.repl.role.store(ROLE_PRIMARY, Ordering::Release);
    }

    /// Registers (or refreshes) a follower and returns the settled WAL
    /// records after its ack watermark: `(primary_seq, resync,
    /// records)`. `primary_seq` is this primary's settled sequence
    /// number (the follower's staleness reference). When `resync` is
    /// true the follower was marked divergent or fell behind the
    /// compaction floor: it must re-bootstrap from
    /// [`fetch_checkpoint`](Self::fetch_checkpoint) before
    /// re-subscribing.
    pub fn replica_subscribe(
        &self,
        follower: u64,
        after_seq: u64,
        max_records: u32,
    ) -> Result<(u64, bool, SegmentRecords), ServeError> {
        if self.role() != Role::Primary {
            return Err(ServeError::NotPrimary);
        }
        let d = self.durability.as_ref().ok_or_else(|| {
            ServeError::InvalidRequest(
                "replication requires a durable primary (no WAL to ship)".to_string(),
            )
        })?;
        let settled = self.settled_seq();
        let marked = {
            let mut followers = crate::lock_unpoisoned(&self.repl.followers);
            let entry = followers.entry(follower).or_default();
            if entry.needs_resync {
                entry.needs_resync = false; // it re-bootstraps now
                entry.acked_seq = after_seq;
                true
            } else {
                entry.acked_seq = entry.acked_seq.max(after_seq);
                false
            }
        };
        let compacted = self.repl.compacted_through.load(Ordering::Acquire);
        if marked || after_seq < compacted {
            self.stats.repl_resyncs.fetch_add(1, Ordering::Relaxed);
            return Ok((settled, true, Vec::new()));
        }
        // Read under the lane lock: a concurrent compaction swaps the
        // log's inode, and the read must see one or the other whole.
        let records: SegmentRecords = {
            let _guard = crate::lock_unpoisoned(&self.update_lane);
            read_wal_segment(&d.wal_path(), after_seq, settled, max_records.min(4096))?
                .into_iter()
                .map(|r| (r.seq, r.updates))
                .collect()
        };
        // Belt and braces: if the log no longer covers the record right
        // after the follower's watermark (e.g. a compaction that ran
        // before this follower registered), force a re-sync rather
        // than silently skipping records.
        let gap = match records.first() {
            Some((first, _)) => *first != after_seq + 1,
            None => settled > after_seq,
        };
        if gap {
            self.stats.repl_resyncs.fetch_add(1, Ordering::Relaxed);
            return Ok((settled, true, Vec::new()));
        }
        self.stats
            .repl_segments_shipped
            .fetch_add(1, Ordering::Relaxed);
        self.stats
            .repl_records_shipped
            .fetch_add(records.len() as u64, Ordering::Relaxed);
        self.update_follower_lag(settled);
        Ok((settled, false, records))
    }

    /// Records a follower's cumulative ack and compares its probe
    /// fingerprints against this primary's own at the same watermark.
    /// A mismatch marks the follower divergent (its next subscribe is
    /// answered with `resync`) and returns [`ServeError::Divergent`].
    pub fn replica_ack(
        &self,
        follower: u64,
        seq: u64,
        fingerprints: &[u64],
    ) -> Result<ProbeReport, ServeError> {
        if self.role() != Role::Primary {
            return Err(ServeError::NotPrimary);
        }
        // One fingerprint per warm pipeline, and a pair shares its warm
        // set: any other count is a malformed ack — not a state to
        // judge, and not one that may move the follower's watermark.
        let own = self.repl.probe_at(Some(seq));
        if let Some(own) = own
            .as_ref()
            .filter(|o| o.fingerprints.len() != fingerprints.len())
        {
            return Err(ServeError::InvalidRequest(format!(
                "ack at seq {seq} carries {} fingerprints, this node keeps {}",
                fingerprints.len(),
                own.fingerprints.len()
            )));
        }
        self.stats.repl_acks.fetch_add(1, Ordering::Relaxed);
        {
            let mut followers = crate::lock_unpoisoned(&self.repl.followers);
            let entry = followers.entry(follower).or_default();
            entry.acked_seq = entry.acked_seq.max(seq);
        }
        self.update_follower_lag(self.settled_seq());
        match own {
            Some(own) if own.fingerprints == fingerprints => Ok(ProbeReport {
                seq,
                epoch: own.epoch,
                known: true,
                fingerprints: own.fingerprints,
            }),
            Some(_) => {
                self.stats.repl_divergences.fetch_add(1, Ordering::Relaxed);
                let mut followers = crate::lock_unpoisoned(&self.repl.followers);
                if let Some(entry) = followers.get_mut(&follower) {
                    entry.needs_resync = true;
                }
                Err(ServeError::Divergent { seq })
            }
            // The watermark aged out of the bounded history: nothing
            // to judge against, accept the ack.
            None => Ok(ProbeReport {
                seq,
                epoch: 0,
                known: false,
                fingerprints: Vec::new(),
            }),
        }
    }

    /// This node's own probe fingerprints at `at_seq`, or at the
    /// newest settled watermark when `None`. Works on both roles (the
    /// CI smoke compares a primary's and a follower's reports).
    pub fn probe(&self, at_seq: Option<u64>) -> ProbeReport {
        match self.repl.probe_at(at_seq) {
            Some(p) => ProbeReport {
                seq: p.seq,
                epoch: p.epoch,
                known: true,
                fingerprints: p.fingerprints,
            },
            None => ProbeReport {
                seq: at_seq.unwrap_or(0),
                epoch: 0,
                known: false,
                fingerprints: Vec::new(),
            },
        }
    }

    /// The latest on-disk checkpoint — what a bootstrapping or
    /// re-syncing follower resumes from.
    pub fn fetch_checkpoint(&self) -> Result<Checkpoint, ServeError> {
        if self.role() != Role::Primary {
            return Err(ServeError::NotPrimary);
        }
        let d = self.durability.as_ref().ok_or_else(|| {
            ServeError::InvalidRequest("no durability configured; nothing to ship".to_string())
        })?;
        read_checkpoint(&d.checkpoint_path())?
            .ok_or_else(|| ServeError::InvalidRequest("no checkpoint on disk yet".to_string()))
    }

    /// Boots a read-serving follower from a primary's checkpoint: the
    /// same resume path as [`recover`](Self::recover), but with no
    /// local durability (the primary's WAL is the record of truth) and
    /// writes refused — batches arrive only through
    /// [`replicate_batch`](Self::replicate_batch).
    pub fn follow_from_checkpoint(
        ck: Checkpoint,
        config: ServeConfig,
    ) -> Result<Arc<ServeCore>, ServeError> {
        if config.durability.is_some() {
            return Err(ServeError::InvalidRequest(
                "a follower keeps no durable state of its own; drop the durability config"
                    .to_string(),
            ));
        }
        if ck.pipelines.is_empty() {
            return Err(ServeError::InvalidRequest(
                "checkpoint carries no pipelines".to_string(),
            ));
        }
        let stats = Arc::new(ServeStats::default());
        adopt_counters(&stats, &ck);
        let (warm, pipeline) = resume_warm_pipeline(ck.pipelines)?;
        stats.batches_enqueued.store(ck.seq, Ordering::Relaxed);
        stats.repl_primary_seq.store(ck.seq, Ordering::Relaxed);
        let cell = Arc::new(EpochCell::with_published(
            epoch_from_pipeline(ck.epoch, &warm, &pipeline),
            ck.epoch,
        ));
        Self::launch(
            cell,
            warm,
            pipeline,
            stats,
            config,
            None,
            ck.epoch,
            ck.seq,
            Role::Follower,
        )
    }

    /// Hands one replicated batch to the mutator — the follower-side
    /// twin of [`enqueue_updates`](Self::enqueue_updates): no WAL
    /// append (the primary's log is the record of truth), and the
    /// primary's sequence number is kept verbatim so both sides'
    /// fingerprints line up at the same watermarks.
    pub fn replicate_batch(&self, seq: u64, updates: Vec<EdgeUpdate>) -> Result<(), ServeError> {
        if self.role() != Role::Follower {
            return Err(ServeError::InvalidRequest(
                "replicate_batch is follower-only; the primary applies its own WAL".to_string(),
            ));
        }
        let mut guard = crate::lock_unpoisoned(&self.update_lane);
        let lane = guard.as_mut().ok_or(ServeError::Closed)?;
        if seq != lane.next_seq + 1 {
            return Err(ServeError::InvalidRequest(format!(
                "replicated batch {seq} is not contiguous with {}",
                lane.next_seq
            )));
        }
        lane.tx
            .send(MutatorMsg::Batch { seq, updates })
            .map_err(|_| ServeError::Closed)?;
        lane.next_seq = seq;
        // On a follower "enqueued" is the last primary seq received —
        // the counter identity enqueued == last assigned seq holds on
        // both roles.
        self.stats.batches_enqueued.store(seq, Ordering::Relaxed);
        Ok(())
    }

    /// Records the primary's settled sequence number from the latest
    /// WAL segment — the follower's bounded-staleness reference.
    pub fn note_primary_seq(&self, seq: u64) {
        let cur = self.stats.repl_primary_seq.load(Ordering::Relaxed);
        if seq > cur {
            self.stats.repl_primary_seq.store(seq, Ordering::Relaxed);
        }
    }

    /// Resets this follower onto a primary checkpoint (divergence
    /// repair, or catch-up after falling behind the compaction floor).
    /// Blocks until the mutator has swapped the restored state in and
    /// published it.
    pub fn resync_from(&self, ck: Checkpoint) -> Result<(), ServeError> {
        if ck.pipelines.is_empty() {
            return Err(ServeError::InvalidRequest(
                "checkpoint carries no pipelines".to_string(),
            ));
        }
        let seq = ck.seq;
        let gen = self.repl.resync_done.load(Ordering::Acquire);
        {
            let mut guard = crate::lock_unpoisoned(&self.update_lane);
            let lane = guard.as_mut().ok_or(ServeError::Closed)?;
            lane.tx
                .send(MutatorMsg::Resync(Box::new(ck)))
                .map_err(|_| ServeError::Closed)?;
            lane.next_seq = seq;
            self.stats.batches_enqueued.store(seq, Ordering::Relaxed);
        }
        self.stats.repl_resyncs.fetch_add(1, Ordering::Relaxed);
        while self.repl.resync_done.load(Ordering::Acquire) <= gen {
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }

    /// Refreshes the worst-live-follower-lag gauge.
    fn update_follower_lag(&self, settled: u64) {
        let followers = crate::lock_unpoisoned(&self.repl.followers);
        let worst = followers
            .values()
            .filter(|e| !e.needs_resync)
            .map(|e| settled.saturating_sub(e.acked_seq))
            .max()
            .unwrap_or(0);
        self.stats.repl_follower_lag.store(worst, Ordering::Relaxed);
    }
}

/// Applies one batch to the pipeline under a supervisor: on a panic or
/// engine error anywhere — before the batch, in the shared order
/// maintenance, or between two tracks — the pipeline is restored to its
/// pre-batch savepoint and the batch is skipped. Returns the total
/// re-convergence rounds on success, `None` on a (rolled-back) failure.
fn apply_supervised(
    pipeline: &mut StreamingPipeline,
    seq: u64,
    updates: &[EdgeUpdate],
    stats: &ServeStats,
    faults: &FaultPlan,
) -> Option<u64> {
    if let Some(stall) = faults.mutator_stall(seq) {
        std::thread::sleep(stall);
    }
    // Save the pre-batch state first: a panic can leave some tracks one
    // batch ahead of others, and publishing (or building on) that torn
    // mix is exactly what the supervisor must prevent. `Arc`s and one
    // copy of the order keys, not a copy of every track.
    let save = pipeline.savepoint();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if faults.mutator_panic(seq) {
            panic!("injected fault: mutator panic before batch {seq}");
        }
        pipeline.apply_batch_with(updates, |track| {
            if track > 0 && faults.mutator_panic_mid(seq) {
                panic!("injected fault: mutator panic mid-batch {seq}");
            }
        })
    }));
    match outcome {
        Ok(Ok(r)) => Some(r.stats.rounds as u64),
        failure => {
            match &failure {
                Ok(Err(e)) => {
                    eprintln!("gograph-serve: mutator batch {seq} failed ({e}); rolling back")
                }
                _ => eprintln!("gograph-serve: mutator panicked on batch {seq}; rolling back"),
            }
            pipeline.restore(save);
            stats.mutator_errors.fetch_add(1, Ordering::Relaxed);
            stats.mutator_restarts.fetch_add(1, Ordering::Relaxed);
            stats.degraded.store(1, Ordering::Relaxed);
            None
        }
    }
}

/// Counts one applied batch of `updates` updates that re-converged in
/// `rounds` rounds — the mutator loop and WAL replay alike.
fn count_applied(stats: &ServeStats, updates: usize, rounds: u64) {
    stats.batches_applied.fetch_add(1, Ordering::Relaxed);
    stats
        .updates_applied
        .fetch_add(updates as u64, Ordering::Relaxed);
    stats.mutator_rounds.fetch_add(rounds, Ordering::Relaxed);
    stats.degraded.store(0, Ordering::Relaxed);
}

/// Stores the counters a checkpoint pins — recovery, follower bootstrap
/// and re-sync alike. Every assigned seq was enqueued, every published
/// epoch was an applied batch, and the difference is the skipped
/// (failed) batches.
fn adopt_counters(stats: &ServeStats, ck: &Checkpoint) {
    stats.batches_applied.store(ck.epoch, Ordering::Relaxed);
    stats
        .mutator_errors
        .store(ck.seq.saturating_sub(ck.epoch), Ordering::Relaxed);
    stats
        .updates_applied
        .store(ck.updates_applied, Ordering::Relaxed);
    stats
        .mutator_rounds
        .store(ck.mutator_rounds, Ordering::Relaxed);
}

/// One [`PipelineCheckpoint`] per warm track, all sharing the graph.
fn export_tracks(warm: &[WarmSpec], pipeline: &StreamingPipeline) -> Vec<PipelineCheckpoint> {
    (warm.iter().enumerate())
        .map(|(i, spec)| PipelineCheckpoint {
            warm: *spec,
            state: pipeline.export_track(i),
        })
        .collect()
}

fn make_checkpoint(
    warm: &[WarmSpec],
    pipeline: &StreamingPipeline,
    seq: u64,
    epoch: u64,
    stats: &ServeStats,
) -> Checkpoint {
    Checkpoint {
        seq,
        epoch,
        updates_applied: stats.updates_applied.load(Ordering::Relaxed),
        mutator_rounds: stats.mutator_rounds.load(Ordering::Relaxed),
        pipelines: export_tracks(warm, pipeline),
    }
}

/// Writes the checkpoint at `seq`. On success optionally publishes `seq`
/// as the compaction watermark *proposal* (clamping to follower acks
/// happens at the compaction site). A failed write is not fatal — the
/// WAL still covers everything since the last good checkpoint, recovery
/// just replays more.
fn checkpoint_step(
    ctx: &MutatorCtx,
    seq: u64,
    stats: &ServeStats,
    propose_compaction: bool,
) -> bool {
    let Some(d) = &ctx.durability else {
        return false;
    };
    let ck = make_checkpoint(&ctx.warm, &ctx.pipeline, seq, ctx.epoch, stats);
    match write_checkpoint(&d.checkpoint_path(), &ck) {
        Ok(bytes) => {
            stats.checkpoints_written.fetch_add(1, Ordering::Relaxed);
            stats
                .checkpoint_bytes_written
                .fetch_add(bytes, Ordering::Relaxed);
            if propose_compaction {
                ctx.compact_after.store(seq, Ordering::Release);
            }
            true
        }
        Err(e) => {
            eprintln!("gograph-serve: checkpoint write failed: {e}");
            false
        }
    }
}

/// Chaos drill (armed only by follower test plans): flips one
/// converged state of the first track to an impossible value and
/// resumes the pipeline over it, so subsequent epochs and fingerprints
/// silently diverge from the primary's — exactly the fault the probe
/// comparison must catch.
fn corrupt_pipeline_state(ctx: &mut MutatorCtx, seq: u64) {
    let mut tracks = export_tracks(&ctx.warm, &ctx.pipeline);
    let states = &mut tracks[0].state.states;
    if states.is_empty() {
        return;
    }
    let idx = seq as usize % states.len();
    states[idx] = -4096.5;
    match resume_warm_pipeline(tracks) {
        Ok((_, fresh)) => {
            ctx.pipeline = fresh;
            eprintln!("gograph-serve: injected state corruption after batch {seq}");
        }
        Err(e) => eprintln!("gograph-serve: corruption injection failed to resume: {e}"),
    }
}

/// Swaps the mutator's entire decision state for a primary checkpoint
/// (divergence repair). Publishes the restored epoch and resets the
/// probe history — stale fingerprints of diverged state must not
/// answer probes at watermarks the follower is about to replay again.
fn resync_mutator(ctx: &mut MutatorCtx, mut ck: Checkpoint, cell: &EpochCell, stats: &ServeStats) {
    match resume_warm_pipeline(std::mem::take(&mut ck.pipelines)) {
        Ok((warm, pipeline)) => (ctx.warm, ctx.pipeline) = (warm, pipeline),
        Err(e) => {
            eprintln!("gograph-serve: re-sync resume failed: {e}; keeping current state");
            return;
        }
    }
    ctx.epoch = ck.epoch;
    ctx.last_seq = ck.seq;
    adopt_counters(stats, &ck);
    stats.degraded.store(0, Ordering::Relaxed);
    cell.publish(epoch_from_pipeline(ctx.epoch, &ctx.warm, &ctx.pipeline));
    crate::lock_unpoisoned(&ctx.repl.probes).clear();
    ctx.repl
        .record_probe(ck.seq, ck.epoch, fingerprints(&ctx.pipeline));
    stats.repl_last_seq.store(ck.seq, Ordering::Release);
}

fn mutator_loop(
    rx: Receiver<MutatorMsg>,
    mut ctx: MutatorCtx,
    cell: &EpochCell,
    stats: &ServeStats,
) {
    loop {
        match rx.recv() {
            Ok(MutatorMsg::Batch { seq, updates }) => {
                ctx.last_seq = seq;
                if let Some(rounds) =
                    apply_supervised(&mut ctx.pipeline, seq, &updates, stats, &ctx.faults)
                {
                    ctx.epoch += 1;
                    if ctx.faults.corrupt_state(seq) {
                        corrupt_pipeline_state(&mut ctx, seq);
                    }
                    cell.publish(epoch_from_pipeline(ctx.epoch, &ctx.warm, &ctx.pipeline));
                    count_applied(stats, updates.len(), rounds);
                    let every = ctx
                        .durability
                        .as_ref()
                        .map_or(0, |d| d.checkpoint_every_batches);
                    if every > 0 && seq % every == 0 {
                        checkpoint_step(&ctx, seq, stats, true);
                    }
                }
                // Fingerprint every settled batch, applied or skipped:
                // failure is deterministic, so a healthy replicated
                // pair records identical hashes at every watermark.
                if let Some(d) = ctx.faults.probe_delay(seq) {
                    std::thread::sleep(d);
                }
                ctx.repl
                    .record_probe(seq, ctx.epoch, fingerprints(&ctx.pipeline));
                stats.repl_last_seq.store(seq, Ordering::Release);
            }
            Ok(MutatorMsg::Resync(ck)) => {
                resync_mutator(&mut ctx, *ck, cell, stats);
                ctx.repl.resync_done.fetch_add(1, Ordering::AcqRel);
            }
            Ok(MutatorMsg::Stop) | Err(_) => break,
        }
    }
    // Clean shutdown: capture everything in a final checkpoint and
    // compact the WAL directly — the update lane is already closed, so
    // no append can race the rename. The watermark is still clamped to
    // live-follower acks.
    if let Some(d) = &ctx.durability {
        if checkpoint_step(&ctx, ctx.last_seq, stats, false) {
            let w = ctx.repl.clamp_watermark(ctx.last_seq, ctx.max_follower_lag);
            match compact_wal(&d.wal_path(), w) {
                Ok(_) => ctx.repl.compacted_through.store(w, Ordering::Release),
                Err(e) => eprintln!("gograph-serve: final WAL compaction failed: {e}"),
            }
        }
    }
}

impl Drop for ServeCore {
    fn drop(&mut self) {
        // Last owner going away: stop the mutator if still running
        // (dropping the lane closes the channel and the WAL fd).
        let lane = crate::lock_unpoisoned(&self.update_lane).take();
        drop(lane);
        let handle = crate::lock_unpoisoned(&self.mutator).take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for ServeCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeCore")
            .field("stats", &self.stats_snapshot())
            .finish_non_exhaustive()
    }
}

/// The mutator's pipeline over `graph`, one track per warm spec.
fn warm_pipeline(graph: &CsrGraph, warm: &[WarmSpec]) -> StreamingPipelineBuilder {
    let mut b = StreamingPipeline::over(graph);
    for (i, spec) in warm.iter().enumerate() {
        if i > 0 {
            b = b.track();
        }
        b = match spec.alg {
            AlgSpec::Sssp => b.algorithm(Sssp::new(spec.source)),
            AlgSpec::Bfs => b.algorithm(Bfs::new(spec.source)),
            AlgSpec::Cc => b.algorithm(ConnectedComponents),
            AlgSpec::PageRank => b.algorithm(PageRank::default()),
            AlgSpec::Sswp => b.algorithm(Sswp::new(spec.source)),
        };
    }
    b
}

/// Rebuilds the warm pipeline from a checkpoint's per-track states —
/// recovery, follower bootstrap, re-sync and the corruption drill.
fn resume_warm_pipeline(
    tracks: Vec<PipelineCheckpoint>,
) -> Result<(Vec<WarmSpec>, StreamingPipeline), EngineError> {
    let (warm, states): (Vec<WarmSpec>, Vec<ResumableState>) =
        tracks.into_iter().map(|p| (p.warm, p.state)).unzip();
    let graph = states
        .first()
        .map_or_else(|| CsrGraph::empty(0), |s| s.graph.snapshot());
    let pipeline = warm_pipeline(&graph, &warm).resume_tracks(states)?;
    Ok((warm, pipeline))
}

/// The epoch a pipeline's current state publishes: graph, order and
/// every track's states are `Arc`-shared with
/// the pipeline, which replaces them on the next batch instead of
/// writing into them.
fn epoch_from_pipeline(epoch: u64, warm: &[WarmSpec], sp: &StreamingPipeline) -> EpochState {
    EpochState {
        epoch,
        graph: sp.graph().snapshot(),
        order: Arc::clone(sp.shared_order()),
        warm: warm
            .iter()
            .zip(sp.tracks())
            .map(|(spec, track)| WarmEntry {
                alg: spec.alg,
                source: spec.source,
                states: Arc::clone(track.states()),
                converged: track.last_run().converged,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gograph_engine::IterativeAlgorithm;
    use gograph_graph::generators::{planted_partition, PlantedPartitionConfig};
    use std::path::Path;

    fn test_graph() -> CsrGraph {
        planted_partition(PlantedPartitionConfig {
            num_vertices: 80,
            num_edges: 400,
            communities: 4,
            p_intra: 0.8,
            gamma: 2.4,
            seed: 11,
        })
    }

    fn core() -> Arc<ServeCore> {
        core_with(ServeConfig {
            warm: vec![
                WarmSpec::new(AlgSpec::Sssp, 0),
                WarmSpec::new(AlgSpec::Cc, 0),
            ],
            ..ServeConfig::default()
        })
    }

    fn core_with(config: ServeConfig) -> Arc<ServeCore> {
        ServeCore::start(&test_graph(), config).unwrap()
    }

    fn query(alg: AlgSpec, sources: Vec<VertexId>) -> QueryRequest {
        QueryRequest {
            alg,
            mode: ModeSpec::Async,
            sources,
            combine: false,
            max_epoch_lag: None,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gograph-core-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Deterministic churn batches over the test graph.
    fn batches(count: usize) -> Vec<Vec<EdgeUpdate>> {
        (0..count as u32)
            .map(|k| {
                vec![
                    EdgeUpdate::insert(k % 80, (k * 7 + 13) % 80),
                    EdgeUpdate::insert((k * 3 + 1) % 80, (k * 11 + 29) % 80),
                    EdgeUpdate::remove(k % 80, (k + 1) % 80),
                ]
            })
            .collect()
    }

    fn assert_epochs_bit_identical(a: &EpochState, b: &EpochState) {
        assert_eq!(a.epoch, b.epoch, "epoch number");
        assert_eq!(a.graph, b.graph, "graph");
        assert_eq!(a.order, b.order, "processing order");
        assert_eq!(a.warm.len(), b.warm.len(), "warm entries");
        for (wa, wb) in a.warm.iter().zip(&b.warm) {
            assert_eq!(wa.alg, wb.alg);
            assert_eq!(wa.source, wb.source);
            assert_eq!(wa.converged, wb.converged);
            assert_eq!(
                bits(&wa.states),
                bits(&wb.states),
                "warm states for {:?}",
                wa.alg
            );
        }
    }

    #[test]
    fn warm_query_matches_cold_run_exactly() {
        let core = core();
        let warm = core.execute_query(query(AlgSpec::Sssp, vec![0])).unwrap();
        assert!(warm.warm, "configured warm algorithm must hit its entry");
        assert_eq!(warm.rounds, 0, "a published fixpoint needs no rounds");

        let cold = core.execute_query(query(AlgSpec::Sssp, vec![3])).unwrap();
        assert!(!cold.warm, "unconfigured source runs cold");

        // Max-norm warm results are bit-identical to the stored fixpoint.
        let ep = core.pin_epoch();
        let entry = ep.warm_for(AlgSpec::Sssp, 0).unwrap();
        assert_eq!(&*warm.states, &*entry.states);
    }

    /// A fresh cold run of `alg` from `sources` on `ep`, outside the core.
    fn cold_states(
        ep: &EpochState,
        alg: AlgSpec,
        mode: ModeSpec,
        sources: &[VertexId],
    ) -> Vec<f64> {
        Pipeline::on(&ep.graph)
            .order_ref(&ep.order)
            .mode(mode.mode())
            .algorithm_ref(alg.instantiate(sources).as_ref())
            .execute()
            .unwrap()
            .stats
            .final_states
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn hot_queries_are_answered_from_the_epoch_under_every_mode() {
        let core = core();
        for batch in batches(3) {
            core.enqueue_updates(batch).unwrap();
        }
        core.quiesce();
        let ep = core.pin_epoch();
        assert_eq!(ep.epoch, 3);

        for mode in [
            ModeSpec::Async,
            ModeSpec::Sync,
            ModeSpec::Worklist,
            ModeSpec::Parallel(2),
        ] {
            for (alg, sources) in [(AlgSpec::Sssp, vec![0]), (AlgSpec::Cc, vec![])] {
                let before = core.stats_snapshot();
                let hot = core
                    .execute_query(QueryRequest {
                        mode,
                        ..query(alg, sources.clone())
                    })
                    .unwrap();
                let after = core.stats_snapshot();

                let entry = ep.warm_for(alg, 0).unwrap();
                assert!(entry.converged);
                assert!(
                    Arc::ptr_eq(&hot.states, &entry.states),
                    "{alg:?}/{mode:?}: the reply shares the entry's allocation"
                );
                assert_eq!(
                    bits(&hot.states),
                    bits(&cold_states(&ep, alg, mode, &sources)),
                    "{alg:?}/{mode:?}: and equals a fresh cold run bit for bit"
                );
                assert!(hot.warm && hot.converged);
                assert_eq!((hot.rounds, hot.push_rounds), (0, 0));
                assert_eq!(hot.runtime, Duration::ZERO);
                assert_eq!(hot.state_memory_bytes, 0);
                assert_eq!(hot.admitted, 1);
                assert_eq!(hot.effective_sources, sources);
                assert_eq!(hot.mode, mode);
                assert_eq!(hot.epoch.epoch, 3);

                assert_eq!(after.warm_hits, before.warm_hits + 1);
                assert_eq!(after.queries, before.queries + 1);
                assert_eq!(after.query_rounds, before.query_rounds);
                assert_eq!(after.cold_runs, before.cold_runs);
                assert_eq!(after.last_state_bytes, before.last_state_bytes);
            }
        }
        core.shutdown();
    }

    #[test]
    fn concurrent_cold_queries_each_run_alone_on_their_own_source() {
        let core = core_with(ServeConfig {
            warm: vec![WarmSpec::new(AlgSpec::Sssp, 0)],
            ..ServeConfig::default()
        });
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let readers: Vec<_> = (1..=8)
            .map(|source: VertexId| {
                let (core, barrier) = (Arc::clone(&core), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    let req = QueryRequest {
                        combine: true,
                        ..query(AlgSpec::Sssp, vec![source])
                    };
                    (source, core.execute_query(req).unwrap())
                })
            })
            .collect();
        for reader in readers {
            let (source, o) = reader.join().unwrap();
            assert_eq!(o.effective_sources, vec![source], "its own sources only");
            assert_eq!(o.admitted, 1);
            assert!(!o.warm && o.rounds >= 1, "source {source} runs cold");
            assert_eq!(
                bits(&o.states),
                bits(&cold_states(&o.epoch, AlgSpec::Sssp, o.mode, &[source])),
                "source {source}: a fresh single-source run on the pinned epoch"
            );
        }
        let s = core.stats_snapshot();
        assert_eq!(s.coalesced, 0);
        assert_eq!((s.queries, s.cold_runs), (8, 8));
        core.shutdown();
    }

    #[test]
    fn everything_but_a_hot_exact_query_still_runs_the_kernel() {
        let core = core_with(ServeConfig {
            warm: vec![
                WarmSpec::new(AlgSpec::Sssp, 0),
                WarmSpec::new(AlgSpec::PageRank, 0),
            ],
            ..ServeConfig::default()
        });
        core.enqueue_updates(batches(1).remove(0)).unwrap();
        core.quiesce();
        let ep = core.pin_epoch();

        // SSSP from a source the epoch holds no entry for.
        let before = core.stats_snapshot();
        let cold = core.execute_query(query(AlgSpec::Sssp, vec![3])).unwrap();
        assert!(!cold.warm && cold.rounds >= 1);
        assert_eq!(core.stats_snapshot().cold_runs, before.cold_runs + 1);

        // A two-source request containing the warm source is a union
        // query: its fixpoint is not the entry's.
        let two = core
            .execute_query(query(AlgSpec::Sssp, vec![0, 3]))
            .unwrap();
        assert!(!two.warm && two.rounds >= 1);
        assert_eq!(two.effective_sources, vec![0, 3]);
        assert_eq!(
            bits(&two.states),
            bits(&cold_states(&ep, AlgSpec::Sssp, ModeSpec::Async, &[0, 3]))
        );

        // PageRank warm-*starts*: its re-run from the entry is not a
        // no-op, so the reply is that run's result, not the entry.
        let before = core.stats_snapshot();
        let pr = core
            .execute_query(query(AlgSpec::PageRank, vec![]))
            .unwrap();
        let after = core.stats_snapshot();
        let entry = ep.warm_for(AlgSpec::PageRank, 0).unwrap();
        assert!(pr.warm && pr.rounds >= 1);
        assert!(!Arc::ptr_eq(&pr.states, &entry.states));
        let replica = Pipeline::on(&ep.graph)
            .order_ref(&ep.order)
            .algorithm_ref(AlgSpec::PageRank.instantiate(&[]).as_ref())
            .warm_start(WarmStart::from_states((*entry.states).clone()))
            .execute()
            .unwrap()
            .stats;
        assert_eq!(bits(&pr.states), bits(&replica.final_states));
        assert_eq!(pr.rounds, replica.rounds);
        assert_eq!(after.warm_hits, before.warm_hits + 1);
        assert_eq!(
            after.query_rounds,
            before.query_rounds + replica.rounds as u64
        );
        core.shutdown();
    }

    #[test]
    fn unconverged_entry_is_not_an_answer() {
        let core = core_with(ServeConfig {
            warm: vec![WarmSpec::new(AlgSpec::Sssp, 0)],
            ..ServeConfig::default()
        });
        // Publish an epoch whose SSSP entry is what a round-capped run
        // leaves behind: states short of the fixpoint, flagged as such.
        let mut ep = (*core.pin_epoch()).clone();
        let fixpoint = Arc::clone(&ep.warm[0].states);
        let sssp = Sssp::new(0);
        let unfinished: Vec<f64> = (0..ep.graph.num_vertices() as VertexId)
            .map(|v| sssp.init(&ep.graph, v))
            .collect();
        assert_ne!(bits(&unfinished), bits(&fixpoint));
        ep.epoch += 1;
        ep.warm[0] = WarmEntry {
            states: Arc::new(unfinished.clone()),
            converged: false,
            ..ep.warm[0].clone()
        };
        core.epoch.publish(ep);

        let out = core.execute_query(query(AlgSpec::Sssp, vec![0])).unwrap();
        assert!(out.warm, "it still warm-starts from the entry");
        assert!(out.rounds >= 1, "but through the kernel");
        assert!(out.converged, "and reports what that run found");
        assert_eq!(bits(&out.states), bits(&fixpoint));
        assert_ne!(bits(&out.states), bits(&unfinished));
        let s = core.stats_snapshot();
        assert_eq!(s.query_rounds, out.rounds as u64);
        core.shutdown();
    }

    #[test]
    fn updates_publish_epochs_and_queries_stay_pinned() {
        let core = core();
        let before = core.pin_epoch();
        assert_eq!(before.epoch, 0);

        core.enqueue_updates(vec![EdgeUpdate::insert(0, 50), EdgeUpdate::insert(50, 70)])
            .unwrap();
        core.quiesce();
        let snap = core.stats_snapshot();
        assert_eq!(snap.epochs_published, 1);
        assert_eq!(snap.batches_applied, 1);
        assert_eq!(snap.updates_applied, 2);
        assert_eq!(snap.degraded, 0);

        let after = core.pin_epoch();
        assert_eq!(after.epoch, 1);
        // The pre-update pin still sees the old graph.
        assert_eq!(before.graph.num_edges() + 2, after.graph.num_edges());
        core.shutdown();
    }

    #[test]
    fn global_queries_need_no_sources_and_sources_are_validated() {
        let core = core();
        let cc = core.execute_query(query(AlgSpec::Cc, vec![])).unwrap();
        assert!(cc.warm);
        assert!(cc.converged);

        let err = core.execute_query(query(AlgSpec::Sssp, vec![]));
        assert!(matches!(err, Err(ServeError::InvalidRequest(_))));

        let err = core.execute_query(query(AlgSpec::Bfs, vec![10_000]));
        assert!(matches!(err, Err(ServeError::InvalidRequest(_))));
    }

    #[test]
    fn enqueue_after_shutdown_is_refused() {
        let core = core();
        core.shutdown();
        let err = core.enqueue_updates(vec![EdgeUpdate::insert(0, 1)]);
        assert!(matches!(err, Err(ServeError::Closed)));
        // Queries still work against the last epoch.
        assert!(core
            .execute_query(QueryRequest {
                alg: AlgSpec::Cc,
                mode: ModeSpec::Sync,
                sources: vec![],
                combine: false,
                max_epoch_lag: None,
            })
            .is_ok());
    }

    #[test]
    fn stale_queries_are_rejected_then_served_after_catchup() {
        // Stall the mutator on every batch so the lag window is wide
        // open when the bounded-staleness query arrives.
        let core = core_with(ServeConfig {
            warm: vec![WarmSpec::new(AlgSpec::Sssp, 0)],
            faults: FaultPlan::seeded(5).with_mutator_stalls(1.0, Duration::from_millis(400)),
            ..ServeConfig::default()
        });
        core.enqueue_updates(vec![EdgeUpdate::insert(0, 42)])
            .unwrap();

        let mut req = query(AlgSpec::Sssp, vec![0]);
        req.max_epoch_lag = Some(0);
        match core.execute_query(req.clone()) {
            Err(ServeError::Stale { lag, max }) => {
                assert_eq!(lag, 1);
                assert_eq!(max, 0);
            }
            other => panic!("expected Stale, got {other:?}"),
        }
        // Unbounded queries are still answered (against the old epoch).
        // This is the hot query: the bound above was judged before the
        // epoch's entry could answer it.
        let unbounded = core.execute_query(query(AlgSpec::Sssp, vec![0])).unwrap();
        assert_eq!(unbounded.epoch.epoch, 0);
        assert_eq!(unbounded.rounds, 0);

        core.quiesce();
        let served = core.execute_query(req).unwrap();
        assert_eq!(served.epoch.epoch, 1, "after catch-up the bound holds");
        core.shutdown();
    }

    #[test]
    fn mutator_panics_are_rolled_back_and_publication_continues() {
        // Pick a seed whose plan panics on some batches and passes
        // others, so both paths are exercised deterministically.
        let total = 6u64;
        let (seed, plan) = (0..64)
            .find_map(|seed| {
                let plan = FaultPlan::seeded(seed).with_mutator_panics(0.4);
                let fails = (1..=total).filter(|&s| plan.mutator_panic(s)).count();
                (fails >= 1 && fails < total as usize && !plan.mutator_panic(total))
                    .then_some((seed, plan))
            })
            .expect("some seed under 64 mixes panics and successes");
        let failing: Vec<u64> = (1..=total).filter(|&s| plan.mutator_panic(s)).collect();

        let config = ServeConfig {
            warm: vec![
                WarmSpec::new(AlgSpec::Sssp, 0),
                WarmSpec::new(AlgSpec::Cc, 0),
            ],
            ..ServeConfig::default()
        };
        let faulty = core_with(ServeConfig {
            faults: FaultPlan::seeded(seed).with_mutator_panics(0.4),
            ..config.clone()
        });
        let clean = core_with(config);

        // The faulty core gets every batch; the clean core only the
        // ones the plan lets through. Rollback must make them agree.
        for (i, batch) in batches(total as usize).into_iter().enumerate() {
            let seq = i as u64 + 1;
            faulty.enqueue_updates(batch.clone()).unwrap();
            if !failing.contains(&seq) {
                clean.enqueue_updates(batch).unwrap();
            }
        }
        faulty.quiesce();
        clean.quiesce();

        let s = faulty.stats_snapshot();
        assert_eq!(s.mutator_errors, failing.len() as u64);
        assert_eq!(s.mutator_restarts, failing.len() as u64);
        assert_eq!(s.batches_applied, total - failing.len() as u64);
        assert_eq!(s.epochs_published, s.batches_applied);
        assert_eq!(s.degraded, 0, "last batch succeeded; flag must clear");

        let fa = faulty.pin_epoch();
        let cl = clean.pin_epoch();
        // Epoch numbers differ only by the skipped batches' numbering.
        assert_eq!(fa.epoch, cl.epoch);
        assert_epochs_bit_identical(&fa, &cl);

        // Queries keep flowing on the faulty core.
        assert!(
            faulty
                .execute_query(query(AlgSpec::Sssp, vec![0]))
                .unwrap()
                .converged
        );
        faulty.shutdown();
        clean.shutdown();
    }

    #[test]
    fn durable_shutdown_recovers_bit_identically_with_empty_replay() {
        let dir = tmp_dir("clean-shutdown");
        let config = ServeConfig {
            warm: vec![WarmSpec::new(AlgSpec::Sssp, 0)],
            durability: Some(DurabilityConfig::new(&dir)),
            ..ServeConfig::default()
        };
        let core = ServeCore::start(&test_graph(), config.clone()).unwrap();
        for batch in batches(5) {
            core.enqueue_updates(batch).unwrap();
        }
        core.quiesce();
        let live = core.pin_epoch();
        let live_stats = core.stats_snapshot();
        core.shutdown();
        drop(core);

        // A clean shutdown checkpointed everything: recovery resumes
        // from the checkpoint and replays nothing.
        let recovered = ServeCore::recover(config).unwrap();
        let s = recovered.stats_snapshot();
        assert_eq!(s.wal_replayed, 0, "final checkpoint covers the WAL");
        assert_eq!(s.batches_enqueued, live_stats.batches_enqueued);
        assert_eq!(s.batches_applied, live_stats.batches_applied);
        assert_eq!(s.updates_applied, live_stats.updates_applied);
        assert_eq!(s.epochs_published, live_stats.epochs_published);
        assert_epochs_bit_identical(&recovered.pin_epoch(), &live);

        // The recovered service accepts further updates and queries.
        recovered
            .enqueue_updates(vec![EdgeUpdate::insert(1, 60)])
            .unwrap();
        recovered.quiesce();
        assert_eq!(recovered.pin_epoch().epoch, live.epoch + 1);
        recovered.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_recovery_replays_wal_tail_bit_identically() {
        let dir = tmp_dir("crash");
        let crash_copy = tmp_dir("crash-copy");
        let config = |d: &Path| ServeConfig {
            warm: vec![
                WarmSpec::new(AlgSpec::Sssp, 0),
                WarmSpec::new(AlgSpec::Cc, 0),
            ],
            durability: Some(DurabilityConfig {
                checkpoint_every_batches: 3,
                ..DurabilityConfig::new(d)
            }),
            ..ServeConfig::default()
        };
        let core = ServeCore::start(&test_graph(), config(&dir)).unwrap();
        for batch in batches(7) {
            core.enqueue_updates(batch).unwrap();
        }
        core.quiesce();
        let live = core.pin_epoch();
        let live_stats = core.stats_snapshot();

        // Simulate kill -9 at this instant: snapshot the durable dir
        // while the process is still running (every acked batch is on
        // disk — SyncPolicy::EveryBatch), then never shut down cleanly.
        for f in ["updates.wal", "epoch.ckpt"] {
            std::fs::copy(dir.join(f), crash_copy.join(f)).unwrap();
        }

        let recovered = ServeCore::recover(config(&crash_copy)).unwrap();
        let s = recovered.stats_snapshot();
        assert!(s.wal_replayed >= 1, "batches past the checkpoint replay");
        assert_eq!(s.batches_enqueued, live_stats.batches_enqueued);
        assert_eq!(s.batches_applied, live_stats.batches_applied);
        assert_eq!(s.updates_applied, live_stats.updates_applied);
        assert_eq!(s.mutator_rounds, live_stats.mutator_rounds);
        assert_eq!(s.epochs_published, live_stats.epochs_published);
        assert_epochs_bit_identical(&recovered.pin_epoch(), &live);

        // And the recovered core answers queries identically.
        let qa = core.execute_query(query(AlgSpec::Sssp, vec![7])).unwrap();
        let qb = recovered
            .execute_query(query(AlgSpec::Sssp, vec![7]))
            .unwrap();
        assert_eq!(bits(&qa.states), bits(&qb.states));

        core.shutdown();
        recovered.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&crash_copy);
    }

    #[test]
    fn fresh_start_refuses_existing_durable_state_and_recover_or_start_picks() {
        let dir = tmp_dir("refuse");
        let config = ServeConfig {
            warm: vec![WarmSpec::new(AlgSpec::Cc, 0)],
            durability: Some(DurabilityConfig::new(&dir)),
            ..ServeConfig::default()
        };
        let g = test_graph();
        let (core, recovered) = ServeCore::recover_or_start(&g, config.clone()).unwrap();
        assert!(!recovered, "empty dir boots fresh");
        core.enqueue_updates(vec![EdgeUpdate::insert(0, 9)])
            .unwrap();
        core.quiesce();
        core.shutdown();
        drop(core);

        let err = ServeCore::start(&g, config.clone());
        assert!(
            matches!(err, Err(ServeError::InvalidRequest(_))),
            "fresh start over durable state must refuse"
        );
        let (core, recovered) = ServeCore::recover_or_start(&g, config).unwrap();
        assert!(recovered, "existing checkpoint recovers");
        assert_eq!(core.pin_epoch().epoch, 1);
        core.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
