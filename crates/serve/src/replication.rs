//! WAL-shipping replication: the follower side of a primary/follower
//! pair.
//!
//! The primary is an ordinary durable [`ServeCore`]: every admitted
//! batch is fsynced to its WAL before the mutator applies it. A
//! follower bootstraps from the primary's latest checkpoint
//! ([`bootstrap_follower`]) and then pulls the settled WAL tail in
//! segments ([`ReplicaPuller::step`]), feeding each record through
//! [`ServeCore::replicate_batch`] — the same supervised
//! `StreamingPipeline` apply path live traffic and crash recovery use.
//! Batch failures are deterministic functions of (state, batch), so
//! the follower skips exactly the batches the primary skipped and a
//! healthy follower's epochs are **bit-identical** to the primary's.
//!
//! That identity is what makes divergence *detectable*: after applying
//! a segment the puller acks its watermark together with the
//! fingerprints of its own quiesced state at that seq, and the primary
//! compares them against its recorded probe history. A mismatch is a
//! typed [`ErrorCode::Divergent`] fault — the follower discards its
//! state and re-syncs from the primary's checkpoint, then
//! replays the newer WAL tail. The same re-sync path serves as the
//! escape hatch when a follower lags past the primary's compaction
//! horizon.
//!
//! Replication faults (link drops mid-segment, follower crashes
//! mid-replay, delayed acks) are driven by the follower core's
//! [`FaultPlan`] so the test harness can exercise every recovery edge
//! deterministically.
//!
//! [`ErrorCode::Divergent`]: crate::wire::ErrorCode::Divergent
//! [`FaultPlan`]: crate::fault::FaultPlan

use crate::checkpoint::decode_checkpoint;
use crate::client::{ClientError, RetryPolicy, ServeClient};
use crate::core::{Role, ServeConfig, ServeCore};
use crate::wire::ErrorCode;
use bytes::Bytes;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning for a [`ReplicaPuller`].
#[derive(Debug, Clone)]
pub struct ReplicationConfig {
    /// This follower's identity in the primary's registry. Two pullers
    /// sharing an id would stomp each other's ack watermark; give each
    /// follower its own.
    pub follower_id: u64,
    /// Upper bound on WAL records per subscribe round-trip (the
    /// primary additionally clamps to its own cap).
    pub max_records_per_segment: u32,
    /// How long [`start_follower`]'s loop sleeps after an idle step or
    /// a transport error before polling again.
    pub poll_interval: Duration,
}

impl Default for ReplicationConfig {
    fn default() -> ReplicationConfig {
        ReplicationConfig {
            follower_id: 1,
            max_records_per_segment: 256,
            poll_interval: Duration::from_millis(20),
        }
    }
}

/// What one [`ReplicaPuller::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The primary had nothing settled past our watermark.
    Idle,
    /// Applied this many WAL records and acked the new watermark.
    Applied(usize),
    /// Discarded local state and re-synced from the primary's
    /// checkpoint (divergence, compaction overrun, or bootstrap race).
    Resynced,
    /// Fault injection dropped the link mid-segment: a prefix was
    /// applied and the ack for it was lost.
    LinkDropped,
    /// Fault injection crashed the follower mid-replay; it came back
    /// via checkpoint re-sync.
    Crashed,
    /// This node is no longer a follower (it was promoted); the pull
    /// loop should stop.
    Stopped,
}

/// Pulls the primary's settled WAL records into a follower core, one
/// segment per [`step`](ReplicaPuller::step). Single-threaded by
/// design: replication progress is a deterministic sequence of steps,
/// which is what lets the fault harness replay exact schedules.
pub struct ReplicaPuller {
    core: Arc<ServeCore>,
    client: ServeClient,
    peer: SocketAddr,
    config: ReplicationConfig,
    segment_no: u64,
    acked_seq: u64,
}

impl ReplicaPuller {
    /// Wraps an already-bootstrapped follower `core` whose state
    /// matches the primary at `acked_seq`.
    pub fn new(
        core: Arc<ServeCore>,
        client: ServeClient,
        config: ReplicationConfig,
        acked_seq: u64,
    ) -> ReplicaPuller {
        let peer = client.peer_addr();
        ReplicaPuller {
            core,
            client,
            peer,
            config,
            segment_no: 0,
            acked_seq,
        }
    }

    /// The follower core this puller feeds.
    pub fn core(&self) -> &Arc<ServeCore> {
        &self.core
    }

    /// The primary's address.
    pub fn peer(&self) -> SocketAddr {
        self.peer
    }

    /// The highest primary seq this follower has applied and acked.
    pub fn acked_seq(&self) -> u64 {
        self.acked_seq
    }

    /// One replication round-trip: subscribe after our watermark,
    /// replay the returned records through the supervised apply path,
    /// ack with our fingerprints at the new watermark, and handle
    /// whatever the primary (or the fault plan) throws at us.
    pub fn step(&mut self) -> Result<StepOutcome, ClientError> {
        if self.core.role() != Role::Follower {
            return Ok(StepOutcome::Stopped);
        }
        let (primary_seq, resync, records) = self.client.subscribe(
            self.config.follower_id,
            self.acked_seq,
            self.config.max_records_per_segment,
        )?;
        self.core.note_primary_seq(primary_seq);
        if resync {
            self.resync()?;
            return Ok(StepOutcome::Resynced);
        }
        if records.is_empty() {
            return Ok(StepOutcome::Idle);
        }

        let k = self.segment_no;
        self.segment_no += 1;
        let faults = self.core.fault_plan().clone();

        if faults.follower_crash(k) {
            // Crash mid-replay: some prefix of the segment made it into
            // the in-memory pipelines, then the process died. A real
            // restart has no durable state (followers keep none), so it
            // comes back the only way it can — checkpoint re-sync.
            for (seq, updates) in records.iter().take(records.len() / 2) {
                self.apply(*seq, updates.clone())?;
            }
            self.core.quiesce();
            self.resync()?;
            return Ok(StepOutcome::Crashed);
        }

        if faults.link_drop(k) {
            // Link drops mid-segment: a prefix was applied but the ack
            // never reached the primary. The watermark advances locally
            // so the next subscribe re-fetches only the lost suffix;
            // the primary just sees a stale ack until then.
            let prefix = records.len().div_ceil(2);
            let mut last = self.acked_seq;
            for (seq, updates) in records.iter().take(prefix) {
                self.apply(*seq, updates.clone())?;
                last = *seq;
            }
            self.core.quiesce();
            self.acked_seq = last;
            return Ok(StepOutcome::LinkDropped);
        }

        let n = records.len();
        let mut last = self.acked_seq;
        for (seq, updates) in records {
            self.apply(seq, updates)?;
            last = seq;
        }
        // Fingerprints are only meaningful once the mutator has settled
        // every shipped batch.
        self.core.quiesce();
        self.acked_seq = last;

        if let Some(d) = faults.ack_delay(k) {
            std::thread::sleep(d);
        }
        // `quiesce` returned, so the probe at our watermark is recorded.
        // One that is not `known` is never a fingerprint vector to send:
        // skip the ack (the primary sees a stale one, as after a dropped
        // link) and let the caller retry.
        let report = self.core.probe(Some(self.acked_seq));
        if !report.known {
            return Err(ClientError::Protocol(format!(
                "no probe at settled seq {}",
                self.acked_seq
            )));
        }
        match self.client.replica_ack(
            self.config.follower_id,
            self.acked_seq,
            &report.fingerprints,
        ) {
            Ok(_) => Ok(StepOutcome::Applied(n)),
            Err(ClientError::Server {
                code: ErrorCode::Divergent,
                ..
            }) => {
                // The primary compared our fingerprints against its
                // probe history and they differ: our state is wrong.
                // Throw it away and rebuild from the primary's truth.
                self.resync()?;
                Ok(StepOutcome::Resynced)
            }
            Err(e) => Err(e),
        }
    }

    fn apply(&self, seq: u64, updates: Vec<gograph_graph::EdgeUpdate>) -> Result<(), ClientError> {
        self.core
            .replicate_batch(seq, updates)
            .map_err(|e| ClientError::Protocol(format!("replicate_batch(seq {seq}): {e}")))
    }

    /// Fetches the primary's checkpoint and resets the follower
    /// core (and our watermark) to it.
    fn resync(&mut self) -> Result<(), ClientError> {
        let bytes = self.client.fetch_checkpoint()?;
        let ck = decode_checkpoint(Bytes::from(bytes))
            .map_err(|e| ClientError::Protocol(format!("bad checkpoint from primary: {e}")))?;
        let seq = ck.seq;
        self.core
            .resync_from(ck)
            .map_err(|e| ClientError::Protocol(format!("resync to seq {seq}: {e}")))?;
        self.acked_seq = seq;
        Ok(())
    }
}

/// Connects to a primary, ships its latest checkpoint over the wire,
/// builds a follower [`ServeCore`] from it, and returns the core plus
/// a [`ReplicaPuller`] positioned at the checkpoint's seq.
///
/// `config` shapes the follower's serving behaviour (warm tracks,
/// fault plan); its `durability` must be `None` —
/// a follower's durable truth lives on the primary.
pub fn bootstrap_follower(
    peer: impl ToSocketAddrs,
    config: ServeConfig,
    replication: ReplicationConfig,
) -> Result<(Arc<ServeCore>, ReplicaPuller), ClientError> {
    let mut client = ServeClient::connect_with_retry(peer, RetryPolicy::default())?;
    let bytes = client.fetch_checkpoint()?;
    let ck = decode_checkpoint(Bytes::from(bytes))
        .map_err(|e| ClientError::Protocol(format!("bad checkpoint from primary: {e}")))?;
    let seq = ck.seq;
    let core = ServeCore::follow_from_checkpoint(ck, config)
        .map_err(|e| ClientError::Protocol(format!("follower bootstrap: {e}")))?;
    let puller = ReplicaPuller::new(Arc::clone(&core), client, replication, seq);
    Ok((core, puller))
}

/// A background replication loop started by [`start_follower`].
/// Dropping the handle stops the loop and joins the thread.
pub struct FollowerHandle {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<ReplicaPuller>>,
}

impl FollowerHandle {
    /// Signals the loop to stop and returns the puller once it has
    /// (so a failover test can keep stepping it by hand).
    pub fn stop(mut self) -> Option<ReplicaPuller> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.take().and_then(|t| t.join().ok())
    }
}

impl Drop for FollowerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Runs `puller` on a background thread until it reports
/// [`StepOutcome::Stopped`] (promotion) or the handle is stopped.
/// Transport errors don't kill the loop — the puller's client
/// reconnects under its retry policy, so the loop just backs off for a
/// poll interval and tries again (the primary may be restarting).
pub fn start_follower(mut puller: ReplicaPuller) -> FollowerHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let loop_stop = Arc::clone(&stop);
    let interval = puller.config.poll_interval;
    let thread = std::thread::Builder::new()
        .name("gograph-replica".into())
        .spawn(move || {
            while !loop_stop.load(Ordering::Relaxed) {
                match puller.step() {
                    Ok(StepOutcome::Stopped) => break,
                    Ok(StepOutcome::Idle) | Err(_) => std::thread::sleep(interval),
                    Ok(_) => {}
                }
            }
            puller
        })
        .expect("spawn replica thread");
    FollowerHandle {
        stop,
        thread: Some(thread),
    }
}
