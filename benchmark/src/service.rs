//! The serve phase: a durable primary with the shipped defaults, served
//! over loopback TCP inside this process, loaded by at most two threads
//! — closed-loop readers with `gograph_loadgen`'s query mix and an
//! open-loop updater — then drained, checked, shut down and recovered.

use crate::guard;
use crate::inputs::{self, stream, Inputs, Query, QueryKind};
use crate::stats::Samples;
use crate::trace::{self, timed};
use gograph_engine::{Mode, Pipeline};
use gograph_graph::VertexId;
use gograph_serve::{
    serve, AlgSpec, DurabilityConfig, EpochState, ModeSpec, ProbeReport, ServeClient, ServeConfig,
    ServeCore, ServerHandle, StatsSnapshot, WarmSpec,
};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every this-many-th reply is re-derived independently.
pub const VERIFY_EVERY: u64 = 50;
/// Replies kept for verification per run (each pins its epoch's arrays
/// until verified, so the count bounds the memory that costs).
const VERIFY_KEEP: usize = 32;
/// How often the updater polls for its batch becoming visible.
const VISIBLE_POLL: Duration = Duration::from_micros(250);
/// How long one batch may take to become visible before the run is
/// declared stuck.
const VISIBLE_DEADLINE: Duration = Duration::from_secs(20);

/// A booted service and how to reach it.
pub struct Service {
    pub core: Arc<ServeCore>,
    pub server: ServerHandle,
    pub addr: SocketAddr,
    pub config: ServeConfig,
    /// Replies answered so far, over all readers and segments; every
    /// [`VERIFY_EVERY`]-th is kept for verification, up to
    /// [`VERIFY_KEEP`] (`kept`).
    answered: AtomicU64,
    kept: AtomicUsize,
}

/// The shipped configuration: warm CC + SSSP, 2 ms admission window,
/// WAL fsynced every batch, checkpoint every 16 batches — durable under
/// a fresh scratch directory.
fn shipped_config(inputs: &Inputs) -> std::io::Result<ServeConfig> {
    Ok(ServeConfig {
        warm: vec![
            WarmSpec::new(AlgSpec::Cc, 0),
            WarmSpec::new(AlgSpec::Sssp, inputs.hot),
        ],
        durability: Some(DurabilityConfig::new(guard::scratch_dir("durable")?)),
        ..ServeConfig::default()
    })
}

/// Boots the service over `inputs.raw`, binds loopback port 0 and makes
/// one round trip. Returns the service and how long all of that took
/// (the service half of `setup_s`).
pub fn boot(inputs: &Inputs) -> Result<(Service, Duration), String> {
    let config = shipped_config(inputs).map_err(|e| format!("scratch dir: {e}"))?;
    let t = Instant::now();
    let (core, _) = timed("serve_core.start", 0, || {
        ServeCore::start(&inputs.raw, config.clone())
    });
    let core = core.map_err(|e| format!("ServeCore::start: {e}"))?;
    let server =
        serve("127.0.0.1:0", Arc::clone(&core)).map_err(|e| format!("bind 127.0.0.1:0: {e}"))?;
    let addr = server.local_addr();
    let mut client = ServeClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    client
        .stats()
        .map_err(|e| format!("first stats round trip: {e}"))?;
    Ok((
        Service {
            core,
            server,
            addr,
            config,
            answered: AtomicU64::new(0),
            kept: AtomicUsize::new(0),
        },
        t.elapsed(),
    ))
}

/// A reply kept for verification, with the epoch it was answered from.
struct Candidate {
    epoch: Arc<EpochState>,
    alg: AlgSpec,
    effective_sources: Vec<VertexId>,
    target: VertexId,
    value: f64,
}

/// What the closed-loop readers measured (latencies in milliseconds).
#[derive(Default)]
pub struct ReadOut {
    pub all_ms: Samples,
    pub hot_ms: Samples,
    pub cold_ms: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub rounds: u64,
    pub warm_replies: u64,
    /// Query latencies split by whether the recorder was on (traced run).
    pub traced_ms: Samples,
    pub untraced_ms: Samples,
    candidates: Vec<Candidate>,
    /// Replies picked for verification whose epoch had already been
    /// replaced when the reader pinned it.
    pub unverifiable: u64,
}

impl ReadOut {
    fn merge(&mut self, other: ReadOut) {
        self.all_ms.extend(&other.all_ms);
        self.hot_ms.extend(&other.hot_ms);
        self.cold_ms.extend(&other.cold_ms);
        self.traced_ms.extend(&other.traced_ms);
        self.untraced_ms.extend(&other.untraced_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.rounds += other.rounds;
        self.warm_replies += other.warm_replies;
        self.unverifiable += other.unverifiable;
        self.candidates.extend(other.candidates);
    }
}

/// What the open-loop updater measured (milliseconds, from each batch's
/// due time).
#[derive(Default)]
pub struct UpdateOut {
    pub ack_ms: Samples,
    pub visible_ms: Samples,
    /// How late each send left, against its schedule.
    pub late_ms: Samples,
    /// Ack → visible: what the mutator spent on the batch.
    pub apply_ms: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub queue_depth_max: u64,
    /// First send → last batch visible.
    pub elapsed: Duration,
}

impl UpdateOut {
    fn merge(&mut self, other: UpdateOut) {
        self.ack_ms.extend(&other.ack_ms);
        self.visible_ms.extend(&other.visible_ms);
        self.late_ms.extend(&other.late_ms);
        self.apply_ms.extend(&other.apply_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.queue_depth_max = self.queue_depth_max.max(other.queue_depth_max);
        self.elapsed += other.elapsed;
    }
}

fn settled(s: &StatsSnapshot) -> u64 {
    s.batches_applied + s.mutator_errors
}

fn reader(
    service: &Service,
    inputs: &Inputs,
    id: u64,
    stop: &AtomicBool,
) -> Result<ReadOut, String> {
    let mut client =
        ServeClient::connect(service.addr).map_err(|e| format!("reader {id} connect: {e}"))?;
    let mut rng = inputs.rng(stream::READER + id);
    let mut out = ReadOut::default();
    while !stop.load(Ordering::Relaxed) {
        let Query {
            kind,
            alg,
            sources,
            target,
        } = inputs::next_query(&mut rng, inputs);
        let recording = trace::enabled();
        let op = (id << 32) | out.attempted;
        out.attempted += 1;
        let (reply, wall) = timed("transport.query", op, || {
            client.query(alg, ModeSpec::Async, true, &sources, &[target])
        });
        let reply = match reply {
            Ok(r) if r.converged && r.values.len() == 1 => r,
            // A refused, errored, unconverged or short reply misses any
            // latency limit: it is counted, not timed.
            _ => {
                out.failed += 1;
                continue;
            }
        };
        let ms = wall.as_secs_f64() * 1e3;
        out.all_ms.push(ms);
        match kind {
            QueryKind::Hot => out.hot_ms.push(ms),
            QueryKind::ColdSssp => out.cold_ms.push(ms),
            QueryKind::Bfs | QueryKind::Cc => {}
        }
        if recording {
            out.traced_ms.push(ms);
        } else {
            out.untraced_ms.push(ms);
        }
        out.rounds += reply.rounds;
        out.warm_replies += u64::from(reply.warm);
        // Relaxed: both counters only pace the sampling.
        let nth = service.answered.fetch_add(1, Ordering::Relaxed) + 1;
        if nth.is_multiple_of(VERIFY_EVERY) && service.kept.load(Ordering::Relaxed) < VERIFY_KEEP {
            let epoch = service.core.pin_epoch();
            if epoch.epoch == reply.epoch {
                service.kept.fetch_add(1, Ordering::Relaxed);
                out.candidates.push(Candidate {
                    epoch,
                    alg,
                    effective_sources: reply.effective_sources,
                    target,
                    value: reply.values[0].1,
                });
            } else {
                out.unverifiable += 1;
            }
        }
    }
    Ok(out)
}

/// Sends batches on a fixed schedule until `stop` is set or `limit`
/// batches went out. Every send is timed from its *due* time, so a
/// stall delays — and is charged to — the sends queued behind it.
fn updater(
    service: &Service,
    inputs: &Inputs,
    rate: f64,
    segment: u64,
    stop: &AtomicBool,
    limit: usize,
) -> Result<UpdateOut, String> {
    let mut client =
        ServeClient::connect(service.addr).map_err(|e| format!("updater connect: {e}"))?;
    let mut rng = inputs.rng(stream::UPDATER + segment);
    let period = Duration::from_secs_f64(1.0 / rate);
    let base = settled(&service.core.stats_snapshot());
    let mut out = UpdateOut::default();
    let start = Instant::now();
    let mut sent = 0u64;
    while !stop.load(Ordering::Relaxed) && (sent as usize) < limit {
        let due = start + period * sent as u32;
        let now = Instant::now();
        if now < due {
            // Short naps, so a stop request is seen promptly.
            std::thread::sleep((due - now).min(Duration::from_millis(10)));
            continue;
        }
        let batch = inputs::next_batch(&mut rng, inputs);
        out.late_ms.push_ms(Instant::now() - due);
        out.attempted += 1;
        sent += 1;
        let (ack, _) = timed("transport.send_updates", sent, || {
            client.send_updates(&batch)
        });
        let acked = Instant::now();
        if ack.is_err() {
            out.failed += 1;
            continue;
        }
        out.ack_ms.push_ms(acked - due);
        // Visible = an epoch containing the batch is published, read
        // off the in-process counters (no wire, no server thread).
        let _poll = trace::scope("loadgen.visible_poll", sent);
        loop {
            let s = service.core.stats_snapshot();
            out.queue_depth_max = out
                .queue_depth_max
                .max(s.batches_enqueued.saturating_sub(settled(&s)));
            if settled(&s) >= base + sent {
                break;
            }
            if acked.elapsed() > VISIBLE_DEADLINE {
                return Err(format!(
                    "update batch {sent} acked but not visible after {VISIBLE_DEADLINE:?}"
                ));
            }
            std::thread::sleep(VISIBLE_POLL);
        }
        let visible = Instant::now();
        out.visible_ms.push_ms(visible - due);
        out.apply_ms.push_ms(visible - acked);
    }
    out.elapsed = start.elapsed();
    Ok(out)
}

/// The measured traffic of the serve segments so far.
#[derive(Default)]
pub struct Traffic {
    pub reads: ReadOut,
    pub updates: UpdateOut,
    /// Summed length of the readers' segments.
    pub read_elapsed: Duration,
    segments: u64,
}

/// Runs the workload's traffic for one segment of `duration`:
/// `w.readers` closed-loop clients, with the updater beside them or —
/// when the workload keeps its windows read-only — alone afterwards for
/// `tail_batches` batches, so every workload reports the write path
/// too. In the traced run the recorder is flipped every 250 ms (at
/// least four times a segment), which splits the queries into a
/// recorded and an unrecorded half on the same traffic.
pub fn run_segment(
    service: &Service,
    inputs: &Inputs,
    w: &inputs::Workload,
    duration: Duration,
    tail_batches: usize,
    tracing: bool,
    traffic: &mut Traffic,
) -> Result<(), String> {
    // Every segment continues the query and update streams under fresh
    // stream ids instead of replaying the first segment's.
    let segment = traffic.segments;
    traffic.segments += 1;
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let (reads, beside) = std::thread::scope(|s| {
        let stop = &stop;
        let readers: Vec<_> = (0..w.readers as u64)
            .map(|id| s.spawn(move || reader(service, inputs, segment * 16 + id, stop)))
            .collect();
        let writer = w.updates_beside_reads.then(|| {
            s.spawn(move || updater(service, inputs, w.update_rate, segment, stop, usize::MAX))
        });
        let flip_every = Duration::from_millis(250).min(duration / 4);
        let mut flips = 0u32;
        while start.elapsed() < duration {
            std::thread::sleep(Duration::from_millis(10).min(flip_every));
            if tracing && start.elapsed() >= flip_every * (flips + 1) {
                flips += 1;
                trace::set_enabled(flips.is_multiple_of(2));
            }
        }
        stop.store(true, Ordering::Relaxed);
        let mut reads = ReadOut::default();
        for r in readers {
            reads.merge(
                r.join()
                    .map_err(|_| "a reader thread panicked".to_string())??,
            );
        }
        // The readers' clock stops when the last of them has its reply;
        // the updater may still be polling for its last batch.
        traffic.read_elapsed += start.elapsed();
        let beside = match writer {
            Some(h) => Some(
                h.join()
                    .map_err(|_| "the updater thread panicked".to_string())??,
            ),
            None => None,
        };
        Ok::<_, String>((reads, beside))
    })?;
    trace::set_enabled(tracing);
    traffic.reads.merge(reads);
    traffic.updates.merge(match beside {
        Some(u) => u,
        None => updater(
            service,
            inputs,
            w.update_rate,
            segment,
            &AtomicBool::new(false),
            tail_batches,
        )?,
    });
    Ok(())
}

/// Re-derives every kept reply with an independent `Pipeline` run —
/// default order, worklist engine — on the graph of the epoch the reply
/// was answered from, over the *effective* sources (a `MultiSource`
/// run when admission widened them). SSSP, BFS and CC fixpoints are
/// exact, so the served value must be bit-equal. Returns how many
/// replies were verified.
pub fn verify_replies(reads: &mut ReadOut) -> Result<usize, String> {
    let _scope = trace::scope("serve.verify_replies", 0);
    let candidates = std::mem::take(&mut reads.candidates);
    for c in &candidates {
        let alg = c.alg.instantiate(&c.effective_sources);
        let result = Pipeline::on(&c.epoch.graph)
            .mode(Mode::Worklist)
            .algorithm_ref(alg.as_ref())
            .require_convergence(true)
            .execute()
            .map_err(|e| format!("check: independent {} run failed: {e}", c.alg.name()))?;
        let expect = result.stats.final_states[c.target as usize];
        if expect.to_bits() != c.value.to_bits() {
            return Err(format!(
                "check: served {} from {:?} at epoch {} answered {} for vertex {}, an independent run gives {}",
                c.alg.name(),
                c.effective_sources,
                c.epoch.epoch,
                c.value,
                c.target,
                expect
            ));
        }
    }
    Ok(candidates.len())
}

/// Waits (with a deadline) until every enqueued batch has settled.
pub fn drain(core: &ServeCore, limit: Duration) -> Result<StatsSnapshot, String> {
    let t = Instant::now();
    loop {
        let s = core.stats_snapshot();
        if settled(&s) >= s.batches_enqueued {
            return Ok(s);
        }
        if t.elapsed() > limit {
            return Err(format!(
                "mutator still behind after {limit:?}: {} of {} batches settled",
                settled(&s),
                s.batches_enqueued
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// What [`finish`] measured on the way down.
pub struct FinishOut {
    pub recover_ms: f64,
    pub checkpoints_written: u64,
}

/// Ends the serve phase: every acked batch applied, no mutator error,
/// then shut down, recover from the durable directory and require the
/// recovered fingerprints to equal the live ones.
pub fn finish(service: Service) -> Result<FinishOut, String> {
    guard::stage("serve: drain", Duration::from_secs(30));
    let last = drain(&service.core, Duration::from_secs(25))?;
    if last.mutator_errors != 0 {
        return Err(format!(
            "check: {} update batches failed in the mutator",
            last.mutator_errors
        ));
    }
    let live: ProbeReport = service.core.probe(None);
    if !live.known || live.seq != last.batches_enqueued {
        return Err(format!(
            "check: live probe is at seq {} (known: {}), {} batches were acked",
            live.seq, live.known, last.batches_enqueued
        ));
    }

    guard::stage("serve: shutdown", Duration::from_secs(30));
    let Service {
        core,
        mut server,
        config,
        ..
    } = service;
    timed("serve_core.shutdown", 0, || server.shutdown());
    drop(server);
    drop(core);

    guard::stage("serve: recover", Duration::from_secs(60));
    let (recovered, wall) = timed("serve_core.recover", 0, || ServeCore::recover(config));
    let recovered = recovered.map_err(|e| format!("check: ServeCore::recover: {e}"))?;
    let again = recovered.probe(None);
    recovered.shutdown();
    if again.seq != live.seq || again.epoch != live.epoch || again.fingerprints != live.fingerprints
    {
        return Err(format!(
            "check: recovered state (seq {}, epoch {}) does not fingerprint like the live one (seq {}, epoch {})",
            again.seq, again.epoch, live.seq, live.epoch
        ));
    }
    Ok(FinishOut {
        recover_ms: wall.as_secs_f64() * 1e3,
        checkpoints_written: last.checkpoints_written,
    })
}
