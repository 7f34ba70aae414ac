//! The evolving-graph subsystem: a [`StreamingPipeline`] owns a graph,
//! its processing order and one or more *tracks* — an algorithm with
//! its converged states — and consumes batches of [`EdgeUpdate`]s,
//! reusing everything a cold [`crate::Pipeline`] run would recompute
//! from scratch.
//!
//! Per batch it
//!
//! 1. patches the CSR through [`CsrGraph::apply_updates`] (untouched
//!    row blocks shared, touched rows merged);
//! 2. repositions the endpoints of the changed edges against the patched
//!    rows: the [`IncrementalGoGraph`] that owns the CSR maintains the
//!    positive-edge-maximizing processing order by local repositioning
//!    instead of a full GoGraph re-run;
//! 3. when the maintained order's positive-edge fraction `M(O)/|E|` has
//!    drifted more than a configurable threshold below its baseline,
//!    runs a full — optionally parallel — GoGraph reorder and adopts it
//!    only if it has strictly more positive edges than the maintained
//!    order; otherwise it keeps the maintained order untouched. Either
//!    way the baseline becomes the fraction of the order kept, which is
//!    never below what a fresh GoGraph run reaches (Theorem 2: at least
//!    half the edges of a loop-free graph), so the order never sits more
//!    than the threshold below one half;
//! 4. warm-starts every track's engine from its previous converged
//!    states, resetting only the *affected frontier* — vertices whose
//!    state loses its last certificate to a deleted edge — and seeding
//!    re-evaluation there and at the heads of the inserted edges. Every
//!    engine but the synchronous one starts its first round from exactly
//!    that set, so a batch's re-converge costs what the batch perturbed,
//!    not a sweep.
//!
//! Steps 1–3 depend on no algorithm, so they run once per batch however
//! many tracks read their result: a service that keeps CC and SSSP
//! converged over one graph maintains one order and splices one CSR, and
//! both tracks re-converge over that graph and order. A one-algorithm
//! pipeline is the one-track case of the same code.
//!
//! # When is warm-starting sound?
//!
//! For **max-norm** algorithms (SSSP, BFS, CC, SSWP — a vertex's value is
//! witnessed by a single best path) the previous states stay valid
//! bounds after an insert-only batch, and deletions only invalidate
//! vertices whose value loses its *support*: no surviving in-edge from a
//! vertex that precedes it — strictly closer to the root, or equally
//! close and fewer equal-state hops from a vertex that is — still offers
//! exactly its value. Those hop counts are the track's per-vertex
//! **dependence levels**: derived from the graph and the states (so
//! never exported or checkpointed — a resumed pipeline rebuilds the same
//! ones), rebuilt in one pass after a cold run and repaired around the
//! vertices a warm run moved. They are what lets the equal labels of a
//! CC component certify each other, so that a deletion resets its
//! dependence subtree rather than the component. Resetting the
//! unsupported set to `init` restores validity, so the engines converge
//! to the exact new fixpoint from the warm states. A batch still runs
//! cold when the trimming walk outgrows one sweep's worth of edge visits
//! (the cut really did strand a region: the only edge out of a
//! component's root, say) — [`Track::cold_batches`] counts them. For
//! **sum-norm** algorithms (PageRank,
//! Katz, PHP, Adsorption — a value aggregates *all* paths and degree
//! normalizations) any edge change can move any vertex's fixpoint in
//! either direction, which the monotone-from-init formulation cannot
//! follow downward; those algorithms are conservatively restarted from
//! `init` each batch (the order maintenance and CSR patching are still
//! reused). The same split applies to the delta family: min/max-style
//! (`⊕` idempotent) delta algorithms warm-start with frontier-seeded
//! deltas, sum-style ones restart.

use crate::algorithm::{ConvergenceNorm, IterativeAlgorithm};
use crate::convergence::RunStats;
use crate::delta::DeltaAlgorithm;
use crate::error::EngineError;
use crate::pipeline::StageTimings;
use crate::runner::{Mode, RunConfig};
use crate::strategy::{check_family, execute, AlgorithmRef, WarmStart};
use crate::support::Support;
use gograph_core::{digest_of, digest_term, GoGraph, IncrementalGoGraph};
use gograph_graph::{
    check_batch, grown_vertices, CsrGraph, EdgeUpdate, Frontier, OrderPatch, Permutation, VertexId,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Builder for a [`StreamingPipeline`]; see [`StreamingPipeline::over`].
pub struct StreamingPipelineBuilder {
    graph: CsrGraph,
    /// Never empty: the mode, algorithm and run-configuration calls
    /// configure the last one.
    tracks: Vec<TrackSpec>,
    policy: OrderPolicy,
}

/// What one track runs, as the builder collected it.
struct TrackSpec {
    mode: Mode,
    gather: Option<Box<dyn IterativeAlgorithm>>,
    delta: Option<Box<dyn DeltaAlgorithm>>,
    cfg: RunConfig,
}

impl Default for TrackSpec {
    fn default() -> TrackSpec {
        TrackSpec {
            mode: Mode::Async,
            gather: None,
            delta: None,
            cfg: RunConfig::default(),
        }
    }
}

impl TrackSpec {
    /// The algorithm of the family the mode consumes.
    fn algorithm(&self) -> AlgorithmRef<'_> {
        match self.mode {
            Mode::Delta(_) => {
                AlgorithmRef::Delta(self.delta.as_deref().expect("validated by build()"))
            }
            _ => AlgorithmRef::Gather(self.gather.as_deref().expect("validated by build()")),
        }
    }
}

/// How the shared order is kept fresh: the builder's drift knobs.
#[derive(Debug, Clone, Copy)]
struct OrderPolicy {
    drift_threshold: f64,
    reorder_threads: usize,
}

impl StreamingPipelineBuilder {
    fn current(&mut self) -> &mut TrackSpec {
        self.tracks
            .last_mut()
            .expect("a builder always holds a track")
    }

    /// Selects the execution mode (default: [`Mode::Async`]).
    pub fn mode(mut self, mode: Mode) -> Self {
        self.current().mode = mode;
        self
    }

    /// Supplies the gather algorithm (for every mode but `Delta`).
    ///
    /// Custom algorithms: see [`Track::warm_start_is_sound`] for the
    /// contract a max-norm algorithm must meet to be streamed warm (its
    /// gather must not read the neighbor-out-degree argument).
    pub fn algorithm(mut self, alg: impl IterativeAlgorithm + 'static) -> Self {
        self.current().gather = Some(Box::new(alg));
        self
    }

    /// Supplies the delta algorithm (for [`Mode::Delta`]).
    pub fn delta_algorithm(mut self, alg: impl DeltaAlgorithm + 'static) -> Self {
        self.current().delta = Some(Box::new(alg));
        self
    }

    /// Replaces the run configuration shared by every batch execution.
    pub fn config(mut self, cfg: RunConfig) -> Self {
        self.current().cfg = cfg;
        self
    }

    /// Safety cap on rounds per batch execution (default 10 000).
    pub fn max_rounds(mut self, n: usize) -> Self {
        self.current().cfg.max_rounds = n;
        self
    }

    /// Starts another track over the same graph and order: the mode,
    /// algorithm and run-configuration calls after this one configure
    /// it, the ones before configured the previous track. Every batch
    /// maintains the order and patches the graph once, then re-converges
    /// each track in the order they were added.
    pub fn track(mut self) -> Self {
        self.tracks.push(TrackSpec::default());
        self
    }

    /// Sets how far the maintained order's positive-edge fraction
    /// `M(O)/|E|` may drop below its baseline before a batch runs a full
    /// GoGraph reorder (default 0.05). The reorder replaces the order
    /// only if it has strictly more positive edges; either way the
    /// baseline moves to the order kept. `0.0` checks on any regression;
    /// `1.0` effectively never does.
    pub fn drift_threshold(mut self, threshold: f64) -> Self {
        self.policy.drift_threshold = threshold;
        self
    }

    /// Fans full GoGraph reorders (the bootstrap run and every
    /// drift-triggered fallback) out across `n` workers of the shared
    /// rayon pool via [`gograph_core::ParallelGoGraph`]. The parallel
    /// construction is bit-identical to sequential, so this is purely a
    /// latency knob (default 1).
    pub fn reorder_parallelism(mut self, n: usize) -> Self {
        self.policy.reorder_threads = n.max(1);
        self
    }

    /// Bootstraps the pipeline: one full GoGraph reorder of the seed
    /// graph and one cold engine run per track to its fixpoint. Fails
    /// like [`crate::Pipeline::execute`] on a missing or wrong-family
    /// algorithm, and on a non-finite or negative drift threshold.
    pub fn build(self) -> Result<StreamingPipeline, EngineError> {
        self.validate()?;
        let StreamingPipelineBuilder {
            graph,
            tracks,
            policy,
        } = self;

        // Bootstrap reorder: one full (optionally parallel) GoGraph run,
        // loaded into the incremental maintainer; its fraction is the
        // first drift baseline.
        let order = GoGraph::default()
            .parallelism(policy.reorder_threads)
            .run(&graph);
        let mut inc = IncrementalGoGraph::from_graph_with_order(&graph, &order);
        inc.commit_order();
        let shared = Shared {
            policy,
            baseline_fraction: inc.positive_fraction(),
            counters: Counters {
                full_reorders: 1, // the bootstrap run
                ..Counters::default()
            },
            inc,
            moves: None,
        };

        // Bootstrap execution: a cold run per track to its fixpoint.
        let tracks = tracks
            .into_iter()
            .map(|spec| {
                let mut track = Track::new(spec);
                let stats = track.run(&shared, None)?;
                track.absorb(shared.inc.graph(), stats, None);
                Ok(track)
            })
            .collect::<Result<Vec<Track>, EngineError>>()?;
        Ok(StreamingPipeline { shared, tracks })
    }

    /// Reconstructs a pipeline from an
    /// [exported](StreamingPipeline::export_state) image instead of
    /// bootstrapping: no reorder, no cold run — the graph, maintained
    /// order, drift baseline and every track's converged states and
    /// counters are adopted as-is, and the incremental order maintainer
    /// is rebuilt from the saved insertion-order keys
    /// ([`ResumableState::order_vals`]), restoring its exact decision
    /// state. The image carries one [`TrackState`] per configured track,
    /// in track order.
    ///
    /// Given the same builder configuration (modes, algorithms, run
    /// configs, thresholds) as the exporting pipeline, the resumed
    /// pipeline is **bit-identical going forward**: applying the same
    /// batch sequence to both produces coinciding graphs, orders, states
    /// and track counters. This is the foundation of crash recovery — a
    /// checkpoint is the exported image, and WAL replay is `apply_batch`
    /// on the resumed pipeline. The graph passed to
    /// [`StreamingPipeline::over`] is ignored; the image's graph is
    /// authoritative. Each track's [`Track::last_run`] reads 0 rounds
    /// with the saved `converged` flag.
    pub fn resume(self, state: ResumableState) -> Result<StreamingPipeline, EngineError> {
        self.validate()?;
        if let Some((name, message)) = resume_problem(&state, self.tracks.len()) {
            return Err(EngineError::InvalidParameter { name, message });
        }
        let StreamingPipelineBuilder { tracks, policy, .. } = self;
        let (shared, images) = Shared::resume(policy, state);
        let tracks = tracks
            .into_iter()
            .zip(images)
            .map(|(spec, image)| {
                let mut track = Track::new(spec);
                track.adopt(shared.inc.graph(), image);
                track
            })
            .collect();
        Ok(StreamingPipeline { shared, tracks })
    }

    /// The checks `build` and `resume` share: the drift
    /// threshold's range and every track's algorithm family against its
    /// mode.
    fn validate(&self) -> Result<(), EngineError> {
        let drift_threshold = self.policy.drift_threshold;
        if !(drift_threshold >= 0.0 && drift_threshold.is_finite()) {
            return Err(EngineError::InvalidParameter {
                name: "drift_threshold",
                message: format!("must be finite and >= 0, got {drift_threshold}"),
            });
        }
        (self.tracks.iter())
            .try_for_each(|t| check_family(t.mode, t.gather.is_some(), t.delta.is_some()))
    }
}

/// What is wrong with resuming `tracks` tracks from `state`, if
/// anything: one track state per track, each a state per vertex; order
/// keys for every vertex, within their bounds; and a baseline that is a
/// fraction.
fn resume_problem(state: &ResumableState, tracks: usize) -> Option<(&'static str, String)> {
    let n = state.graph.num_vertices();
    let short = state.tracks.iter().position(|t| t.states.len() != n);
    if state.tracks.len() != tracks {
        let message = format!("{} track states for {tracks} tracks", state.tracks.len());
        Some(("states", message))
    } else if let Some(i) = short {
        let len = state.tracks[i].states.len();
        Some((
            "states",
            format!("track {i}: state length {len} != vertex count {n}"),
        ))
    } else if state.order_vals.len() != n {
        let count = state.order_vals.len();
        Some((
            "order_vals",
            format!("order val count {count} != vertex count {n}"),
        ))
    } else if (state.order_vals.iter())
        .any(|&v| !(state.order_min_val <= v && v <= state.order_max_val))
    {
        let message = "order vals must be non-NaN and covered by the saved bounds";
        Some(("order_vals", message.to_string()))
    } else if !(0.0..=1.0).contains(&state.baseline_fraction) {
        let fraction = state.baseline_fraction;
        Some((
            "baseline_fraction",
            format!("must be a fraction in [0, 1], got {fraction}"),
        ))
    } else {
        None
    }
}

/// A value-complete image of a [`StreamingPipeline`]: the graph and
/// maintained order its tracks share, once, and each track's converged
/// states and counters — everything `apply_batch` reads that is not
/// builder configuration. Taken by [`StreamingPipeline::export_state`];
/// [`StreamingPipelineBuilder::resume`] and [`StreamingPipeline::restore`]
/// rebuild from it. The serve crate's checkpoint format is its
/// serialization.
#[derive(Debug, Clone)]
pub struct ResumableState {
    /// The evolved graph.
    pub graph: CsrGraph,
    /// Per-vertex float keys of the maintained insertion order — the
    /// *full* behavioral state, from which the [`Permutation`] is
    /// derived. The induced permutation alone is not enough for
    /// bit-identical resume: future repositioning decisions depend on
    /// the exact keys (midpoints, collision nudges).
    pub order_vals: Vec<f64>,
    /// Sticky head/tail bounds of the insertion order (`remove` never
    /// shrinks them, so they can be wider than the vals imply).
    pub order_min_val: f64,
    /// See [`ResumableState::order_min_val`].
    pub order_max_val: f64,
    /// The positive fraction drift is measured against: the bootstrap
    /// order's, or the kept order's at the last breach.
    pub baseline_fraction: f64,
    /// Batches applied so far.
    pub batches_applied: usize,
    /// Full reorders adopted (bootstrap included).
    pub full_reorders: usize,
    /// One per track, in the order the builder added them.
    pub tracks: Vec<TrackState>,
}

/// One track's part of a [`ResumableState`].
#[derive(Debug, Clone)]
pub struct TrackState {
    /// The track's converged per-vertex states, shared with the track
    /// that exported them (it replaces rather than writes them).
    pub states: Arc<Vec<f64>>,
    /// The track's engine rounds across the bootstrap and every batch.
    pub total_rounds: usize,
    /// Batches that re-converged from `init` ([`Track::cold_batches`]).
    pub cold_batches: usize,
    /// Whether the track's last run reached its fixpoint. A resumed
    /// track reports it as its [`Track::last_run`], so a round-capped
    /// run that stopped short stays unconverged: the next batch goes on
    /// sweeping every vertex, as it would have without the resume.
    pub converged: bool,
}

/// What one engine run of one track did: the bootstrap, a batch's
/// re-converge, or — after a resume or a restore — the adopted states
/// (0 rounds, converged as the exporting track's last run was).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunSummary {
    /// Rounds executed.
    pub rounds: usize,
    /// Rounds executed in the push direction.
    pub push_rounds: usize,
    /// Vertex evaluations, for engines that count them.
    pub evaluations: Option<usize>,
    /// Whether the run reached its fixpoint within the round cap.
    pub converged: bool,
    /// The engine's iteration time.
    pub runtime: Duration,
}

impl RunSummary {
    fn of(stats: &RunStats) -> RunSummary {
        RunSummary {
            rounds: stats.rounds,
            push_rounds: stats.push_rounds,
            evaluations: stats.evaluations,
            converged: stats.converged,
            runtime: stats.runtime,
        }
    }

    /// Several runs as one: counts and times summed, evaluations only
    /// when every run counted them, converged when every run did.
    fn total(runs: impl Iterator<Item = RunSummary> + Clone) -> RunSummary {
        RunSummary {
            rounds: runs.clone().map(|r| r.rounds).sum(),
            push_rounds: runs.clone().map(|r| r.push_rounds).sum(),
            evaluations: runs.clone().map(|r| r.evaluations).sum(),
            converged: runs.clone().all(|r| r.converged),
            runtime: runs.map(|r| r.runtime).sum(),
        }
    }
}

/// What one batch did.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Every track's run taken together (each alone is its
    /// [`Track::last_run`]): rounds and evaluations summed, converged
    /// when every track converged. For a one-track pipeline, that
    /// track's run.
    pub stats: RunSummary,
    /// `reorder` is the order maintenance and CSR patch, `execute`
    /// every track's re-converge.
    pub timings: StageTimings,
}

/// A pipeline over an **evolving** graph: the CSR, the incrementally
/// maintained processing order and each track's converged states all
/// persist across [`StreamingPipeline::apply_batch`] calls, so each
/// batch costs order upkeep once plus, per track, rounds proportional
/// to how far the updates actually perturbed its fixpoint — not a cold
/// recompute.
///
/// ```
/// use gograph_engine::{ConnectedComponents, Mode, Sssp, StreamingPipeline};
/// use gograph_graph::generators::regular::chain;
/// use gograph_graph::EdgeUpdate;
///
/// let g = chain(50);
/// let mut sp = StreamingPipeline::over(&g)
///     .mode(Mode::Async)
///     .algorithm(Sssp::new(0))
///     .track()
///     .algorithm(ConnectedComponents)
///     .build()
///     .unwrap();
/// assert_eq!(sp.states()[49], 49.0);
///
/// // A shortcut edge arrives: the order and the CSR are updated once,
/// // and each warm-started track only has to propagate the change.
/// let r = sp.apply_batch(&[EdgeUpdate::insert(0, 48)]).unwrap();
/// assert!(r.stats.converged);
/// assert_eq!(sp.states()[49], 2.0);
/// assert_eq!(sp.tracks()[1].states()[49], 0.0);
/// ```
pub struct StreamingPipeline {
    shared: Shared,
    tracks: Vec<Track>,
}

/// The algorithm-independent part of a pipeline: the order maintainer,
/// which owns the graph, and the drift baseline.
struct Shared {
    policy: OrderPolicy,
    inc: IncrementalGoGraph,
    /// The moves the last batch made to the order (see
    /// [`StreamingPipeline::order_moves`]).
    moves: Option<OrderPatch>,
    /// The positive fraction drift is measured against.
    baseline_fraction: f64,
    counters: Counters,
}

#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    batches_applied: usize,
    full_reorders: usize,
}

/// One algorithm kept converged over a [`StreamingPipeline`]'s graph and
/// order: its mode, states, dependence levels and run counters.
pub struct Track {
    spec: TrackSpec,
    /// Replaced by each run's result that moved a state, never written
    /// in place (a batch that grows the vertex set extends a private
    /// copy), so a published `Arc` stays the states it was published
    /// with, and epochs a batch left the states of share one.
    states: Arc<Vec<f64>>,
    /// [`digest_term`] summed over `(vertex, state bits)`.
    digest: u64,
    /// Per-vertex dependence level of `states` (see
    /// `Support::affected_by_deletions`): derived from the graph and the
    /// states, so never exported. Empty for algorithms that restart on
    /// every batch.
    levels: Vec<u32>,
    last: RunSummary,
    total_rounds: usize,
    cold_batches: usize,
}

/// [`digest_term`] summed over `(vertex, state bits)`.
fn state_digest(states: &[f64]) -> u64 {
    digest_of(states.iter().enumerate().map(|(v, s)| (v, s.to_bits())))
}

impl StreamingPipeline {
    /// Starts building a streaming pipeline seeded from `graph` (which
    /// is copied: the pipeline owns and evolves its graph), with one
    /// track; [`StreamingPipelineBuilder::track`] adds more.
    pub fn over(graph: &CsrGraph) -> StreamingPipelineBuilder {
        StreamingPipelineBuilder {
            graph: graph.clone(),
            tracks: vec![TrackSpec::default()],
            policy: OrderPolicy {
                drift_threshold: 0.05,
                reorder_threads: 1,
            },
        }
    }

    /// Applies one batch of edge updates and re-converges every track.
    ///
    /// Self-loop updates are skipped (they are neither positive nor
    /// negative under any order, matching [`IncrementalGoGraph`]); a
    /// batch may grow the vertex set by inserting edges whose endpoints
    /// are beyond the current count, up to the bound [`check_batch`]
    /// holds it to. A batch outside that bound is refused with
    /// [`EngineError::InvalidBatch`] before anything changes. An empty
    /// batch is a one-round confirmation that evaluates nothing. On any
    /// other engine error the pipeline is left part-way through the batch:
    /// [`restore`](Self::restore) an [`export_state`](Self::export_state)
    /// taken before it.
    pub fn apply_batch(&mut self, updates: &[EdgeUpdate]) -> Result<BatchResult, EngineError> {
        self.apply_batch_with(updates, |_| {})
    }

    /// [`apply_batch`](Self::apply_batch), calling `before_track(i)`
    /// once the batch is folded into the shared graph and order and
    /// before track `i` re-converges — where a fault injected between
    /// two tracks (the service's mid-batch panic) lands.
    pub fn apply_batch_with(
        &mut self,
        updates: &[EdgeUpdate],
        mut before_track: impl FnMut(usize),
    ) -> Result<BatchResult, EngineError> {
        let vertices = self.shared.inc.graph().num_vertices();
        check_batch(updates, vertices).map_err(EngineError::InvalidBatch)?;
        let grown = grown_vertices(vertices, updates);
        let t = Instant::now();
        let updates: Vec<EdgeUpdate> = updates
            .iter()
            .copied()
            .filter(|u| u.src() != u.dst())
            .collect();
        let lost_support = self.shared.maintain(&updates);
        // The count a service admitting batches ahead of this one holds
        // the next batch to.
        debug_assert_eq!(self.shared.inc.graph().num_vertices(), grown);
        let reorder = t.elapsed();

        let t = Instant::now();
        for (i, track) in self.tracks.iter_mut().enumerate() {
            before_track(i);
            track.reconverge(&self.shared, &updates, &lost_support)?;
        }
        self.shared.counters.batches_applied += 1;
        Ok(BatchResult {
            stats: RunSummary::total(self.tracks.iter().map(|t| t.last)),
            timings: StageTimings {
                reorder,
                relabel: Duration::ZERO,
                execute: t.elapsed(),
            },
        })
    }

    /// The pipeline's whole state as one [`ResumableState`]: what
    /// [`StreamingPipelineBuilder::resume`] rebuilds a pipeline from that
    /// behaves bit-identically from this point on, and what
    /// [`restore`](Self::restore) rolls back to. Cheap enough to take
    /// before every batch: the graph and every track's states are
    /// `Arc`-shared with the pipeline, which replaces rather than writes
    /// them, so it costs one copy of the order keys and nothing
    /// proportional to the tracks.
    pub fn export_state(&self) -> ResumableState {
        let shared = &self.shared;
        let (order_vals, order_min_val, order_max_val) = shared.inc.order_state();
        ResumableState {
            graph: shared.inc.graph().snapshot(),
            order_vals,
            order_min_val,
            order_max_val,
            baseline_fraction: shared.baseline_fraction,
            batches_applied: shared.counters.batches_applied,
            full_reorders: shared.counters.full_reorders,
            tracks: (self.tracks.iter())
                .map(|t| TrackState {
                    states: Arc::clone(&t.states),
                    total_rounds: t.total_rounds,
                    cold_batches: t.cold_batches,
                    converged: t.last.converged,
                })
                .collect(),
        }
    }

    /// Puts the pipeline back at `state`, an
    /// [`export_state`](Self::export_state) taken earlier — whatever
    /// happened since, a batch that panicked between two tracks
    /// included. Going forward it behaves bit-identically to a pipeline
    /// that never applied those batches: it rebuilds exactly as
    /// [`StreamingPipelineBuilder::resume`] does. The order maintainer
    /// takes the saved keys over the saved graph, which it shares, and
    /// counts `M` in one sweep of the edges, copying none; the dependence
    /// levels are rebuilt from the saved states at `O(|E|)` per track —
    /// a cost paid only on rollback. As
    /// after a resume, each [`Track::last_run`] then reads 0 rounds with
    /// the saved `converged` flag.
    ///
    /// # Panics
    /// Panics if `state` fails the checks `resume` makes: an image of a
    /// pipeline with another number of tracks, or a malformed one.
    pub fn restore(&mut self, state: ResumableState) {
        if let Some((name, message)) = resume_problem(&state, self.tracks.len()) {
            panic!("cannot restore this image: {name}: {message}");
        }
        let (shared, images) = Shared::resume(self.shared.policy, state);
        self.shared = shared;
        for (track, image) in self.tracks.iter_mut().zip(images) {
            track.adopt(self.shared.inc.graph(), image);
        }
    }

    /// The current graph (after all applied batches).
    pub fn graph(&self) -> &CsrGraph {
        self.shared.inc.graph()
    }

    /// The maintained processing order.
    pub fn order(&self) -> &Permutation {
        self.shared.order()
    }

    /// The maintained processing order as the pipeline holds it: an
    /// epoch publisher keeps this `Arc` instead of copying the order
    /// (the next batch that moves a vertex replaces the pipeline's).
    pub fn shared_order(&self) -> &Arc<Permutation> {
        self.shared.order()
    }

    /// The moves the last applied batch made to the order: the patch
    /// ([`Permutation::patched`]) that takes the order before it to
    /// [`order`](Self::order), empty when the batch moved nothing. `None`
    /// after a build, resume, restore or adopted full reorder, whose
    /// order is a sort of every key.
    pub fn order_moves(&self) -> Option<&OrderPatch> {
        self.shared.moves.as_ref()
    }

    /// Multiset digest of the maintained order's keys
    /// ([`IncrementalGoGraph::order_digest`]): two pipelines whose
    /// orders will evolve identically digest equally. `O(1)`.
    pub fn order_digest(&self) -> u64 {
        self.shared.inc.order_digest()
    }

    /// The tracks, in the order the builder added them.
    pub fn tracks(&self) -> &[Track] {
        &self.tracks
    }

    /// The first track's converged per-vertex states — a one-track
    /// pipeline's states; [`tracks`](Self::tracks) has every track's.
    pub fn states(&self) -> &[f64] {
        self.tracks[0].states()
    }

    /// Batches applied so far (the bootstrap run is not a batch).
    pub fn batches_applied(&self) -> usize {
        self.shared.counters.batches_applied
    }

    /// Full GoGraph reorders adopted, including the bootstrap run: a
    /// drift breach whose reorder did not beat the maintained order is
    /// not counted.
    pub fn full_reorders(&self) -> usize {
        self.shared.counters.full_reorders
    }

    /// Always 0: the partition-scoped repair tier this counted is gone.
    /// Kept only for the benchmark harness's
    /// `engine.stream_repair_attempts` row; the next change to the
    /// benchmark removes that row and this method.
    pub fn partition_repair_attempts(&self) -> usize {
        0
    }

    /// Current positive-edge fraction `M(O)/|E|` of the maintained order.
    pub fn positive_fraction(&self) -> f64 {
        self.shared.inc.positive_fraction()
    }

    /// The level the drift threshold is measured against: the
    /// bootstrap order's positive-edge fraction, or the kept order's at
    /// the last breach.
    pub fn baseline_fraction(&self) -> f64 {
        self.shared.baseline_fraction
    }
}

impl Shared {
    /// The order handed to every engine run and to epoch publishers: the
    /// maintainer's committed order, replaced, never written in place,
    /// so a published copy stays put.
    fn order(&self) -> &Arc<Permutation> {
        self.inc.committed_order()
    }

    /// The shared part of a resumed pipeline — the order maintainer
    /// rebuilt over the saved graph from its saved keys, the rest adopted
    /// as saved — and the tracks' part, handed back for [`Track::adopt`].
    fn resume(policy: OrderPolicy, state: ResumableState) -> (Shared, Vec<TrackState>) {
        let mut inc = IncrementalGoGraph::from_graph_with_saved_order(
            &state.graph,
            &state.order_vals,
            state.order_min_val,
            state.order_max_val,
        );
        inc.commit_order();
        let shared = Shared {
            policy,
            inc,
            moves: None,
            baseline_fraction: state.baseline_fraction,
            counters: Counters {
                batches_applied: state.batches_applied,
                full_reorders: state.full_reorders,
            },
        };
        (shared, state.tracks)
    }

    /// Folds a (self-loop-free) batch into the CSR and the order and
    /// hands the order on. Returns the heads of edges the batch took
    /// away or re-weighted (a duplicate insert keeps the smaller weight,
    /// which narrows a widest path): the only vertices whose state can
    /// *directly* lose its justification, in any track. An empty batch
    /// changes nothing, so the CSR patch, drift check and order hand-off
    /// are all skipped.
    fn maintain(&mut self, updates: &[EdgeUpdate]) -> Vec<VertexId> {
        if updates.is_empty() {
            self.moves = Some(OrderPatch::none(self.order().len()));
            return Vec::new();
        }
        let before = self.inc.graph().snapshot();
        self.inc.apply_updates(updates);
        let patched = self.inc.graph();
        let lost_support = updates
            .iter()
            .filter_map(|u| {
                let (src, dst) = (u.src(), u.dst());
                if src as usize >= before.num_vertices() {
                    return None; // no edge to lose
                }
                let had = before.edge_weight(src, dst);
                (had.is_some() && had != patched.edge_weight(src, dst)).then_some(dst)
            })
            .collect();
        if self.baseline_fraction - self.inc.positive_fraction() > self.policy.drift_threshold {
            self.repair_order();
        }
        self.moves = self.inc.commit_order();
        lost_support
    }

    /// On a drift breach, runs a full GoGraph reorder and adopts it only
    /// if it has strictly more positive edges than the maintained order
    /// (both fractions share `|E|`, so comparing them compares `M`).
    /// Otherwise the maintained order stays, keys and all. Either way
    /// the baseline becomes the fraction of the order kept, so the next
    /// batch measures drift from here.
    fn repair_order(&mut self) {
        let order = GoGraph::default()
            .parallelism(self.policy.reorder_threads)
            .run(self.inc.graph());
        let fresh = IncrementalGoGraph::from_graph_with_order(self.inc.graph(), &order);
        if fresh.positive_fraction() > self.inc.positive_fraction() {
            self.inc = fresh;
            self.counters.full_reorders += 1;
        }
        self.baseline_fraction = self.inc.positive_fraction();
    }
}

impl Track {
    fn new(spec: TrackSpec) -> Track {
        Track {
            spec,
            states: Arc::default(),
            digest: 0,
            levels: Vec::new(),
            last: RunSummary::default(),
            total_rounds: 0,
            cold_batches: 0,
        }
    }

    /// The track's converged per-vertex states, indexed by vertex id —
    /// `Arc` and all, so an epoch publisher can keep them without a copy
    /// (the next run replaces the track's rather than writing them).
    pub fn states(&self) -> &Arc<Vec<f64>> {
        &self.states
    }

    /// Multiset digest of `(vertex, state bits)` over the states: equal
    /// for two tracks exactly when their states are bit-equal, with
    /// overwhelming probability. `O(1)`: each run patches it for the
    /// vertices it moved.
    pub fn state_digest(&self) -> u64 {
        debug_assert_eq!(
            self.digest,
            state_digest(&self.states),
            "patched state digest must equal the walk"
        );
        self.digest
    }

    /// The most recent run (bootstrap, batch, or — after a resume or a
    /// restore — the adopted states: 0 rounds, the exported `converged`
    /// flag).
    pub fn last_run(&self) -> RunSummary {
        self.last
    }

    /// Engine rounds across the bootstrap and every batch — the
    /// quantity the warm-vs-cold benchmark compares.
    pub fn total_rounds(&self) -> usize {
        self.total_rounds
    }

    /// Batches that re-converged from `init` instead of from the
    /// previous fixpoint, since the pipeline was built (a resume or a
    /// restore carries the count on):
    /// deletion trimming gave up (see [`StreamingPipeline::apply_batch`])
    /// or the algorithm restarts on every batch
    /// ([`Track::warm_start_is_sound`] is false).
    pub fn cold_batches(&self) -> usize {
        self.cold_batches
    }

    /// Whether batches may reuse the converged states (see the module
    /// docs): max-norm gather algorithms and min/max-style delta
    /// algorithms warm-start; sum-norm ones restart each batch.
    ///
    /// For **user-supplied** max-norm algorithms this classification
    /// additionally assumes the per-edge contribution depends only on
    /// the neighbor's state and the edge weight — *not* on the
    /// neighbor's out-degree (every built-in max-norm algorithm
    /// qualifies; degree normalization is what makes the sum-norm
    /// family unsound here in the first place). A custom max-norm
    /// gather that reads its `neighbor_out_degree` argument couples a
    /// vertex's fixpoint to edges outside its in-neighborhood, which
    /// the insert-frontier seeding does not track — such algorithms
    /// must not be streamed warm.
    pub fn warm_start_is_sound(&self) -> bool {
        match self.algorithm() {
            // Enforced through the trait hook, not inferred from the
            // identity value: a non-idempotent ⊕ defaults to `false`
            // and restarts safely.
            AlgorithmRef::Delta(alg) => alg.combine_is_idempotent(),
            AlgorithmRef::Gather(alg) => alg.norm() == ConvergenceNorm::Max,
        }
    }

    /// The algorithm of the family the mode consumes.
    fn algorithm(&self) -> AlgorithmRef<'_> {
        self.spec.algorithm()
    }

    /// The algorithm's initial state for `v` on `g`.
    fn init_state_of(&self, g: &CsrGraph, v: VertexId) -> f64 {
        match self.algorithm() {
            AlgorithmRef::Delta(alg) => alg.init_state(g, v),
            AlgorithmRef::Gather(alg) => alg.init(g, v),
        }
    }

    /// The algorithm's view of support on `g`.
    fn support<'a>(&'a self, g: &'a CsrGraph) -> Support<'a> {
        Support::new(g, self.algorithm())
    }

    /// One engine run over the shared graph and order, cold when
    /// `start` is `None`.
    fn run(&self, shared: &Shared, start: Option<WarmStart>) -> Result<RunStats, EngineError> {
        execute(
            shared.inc.graph(),
            self.algorithm(),
            self.spec.mode,
            shared.order(),
            &self.spec.cfg,
            start,
        )
    }

    /// Re-converges after the shared part took a batch: extends the
    /// states over new vertices (they start at `init`, which is level
    /// 0), then either carries the converged states (max-norm /
    /// min-style) with the affected frontier reset, or restarts
    /// (sum-norm, or trimming gave up). The frontier reaches every
    /// engine but the synchronous one: the first round pulls exactly
    /// this set.
    fn reconverge(
        &mut self,
        shared: &Shared,
        updates: &[EdgeUpdate],
        lost_support: &[VertexId],
    ) -> Result<(), EngineError> {
        let g = shared.inc.graph();
        let n = g.num_vertices();
        if self.states.len() < n {
            let old = self.states.len() as VertexId;
            let joined: Vec<f64> = (old..n as VertexId)
                .map(|v| self.init_state_of(g, v))
                .collect();
            for (v, s) in (old..).zip(&joined) {
                self.digest = self
                    .digest
                    .wrapping_add(digest_term(v as usize, s.to_bits()));
            }
            Arc::make_mut(&mut self.states).extend(joined);
        }
        let affected = if self.warm_start_is_sound() {
            self.levels.resize(n, 0);
            self.affected_by_deletions(g, lost_support)
        } else {
            None
        };
        let warm = affected.map(|affected| {
            let mut states = self.states.to_vec();
            let mut frontier = Frontier::new(n);
            for &v in &affected {
                states[v as usize] = self.init_state_of(g, v);
                frontier.insert(v);
            }
            for u in updates.iter().filter(|u| u.is_insert()) {
                frontier.insert(u.dst());
            }
            let warm = WarmStart::from_states(states);
            // The frontier claims every other vertex sits at its
            // fixpoint. A round-capped previous run cannot say so: its
            // states are sound bounds still on their way, and the
            // engine goes on re-evaluating all of them.
            if self.last.converged {
                warm.with_frontier_set(frontier)
            } else {
                warm
            }
        });

        let repair = warm.is_some().then_some(updates);
        let stats = self.run(shared, warm)?;
        self.absorb(g, stats, repair);
        self.cold_batches += usize::from(repair.is_none());
        Ok(())
    }

    /// The set of vertices whose converged state is invalidated by the
    /// batch's deletions — KickStarter-style support trimming instead of
    /// a blunt downstream-reachability sweep. `seeds` are the heads of
    /// the removed (or re-weighted) edges; `g` is the graph after them.
    ///
    /// A vertex keeps its state when it is *supported*: either the
    /// state equals the algorithm's intrinsic value for the vertex (the
    /// source term / `init`), or some surviving in-edge from an
    /// unaffected neighbor that *precedes* it offers exactly the same
    /// value. "Precedes" is lexicographic on `(state, level)`: the
    /// neighbor's state is strictly closer to the root, or it is equal
    /// and the neighbor's dependence level (`self.levels`) is lower —
    /// see the `support` module for why that order is well-founded and
    /// what it buys: cyclic self-support cannot keep a stale value
    /// alive, yet the equal values that fill a CC component or an SSWP
    /// bottleneck region can certify each other, so a deletion resets
    /// its dependence subtree, not the region. Where candidates strictly
    /// progress along every edge (SSSP/BFS with positive weights) every
    /// level is 0 and the rule is the strict one alone.
    ///
    /// Trimming is only worth having while it is cheaper than the cold
    /// run it avoids: once the walk has visited more edges than the
    /// graph holds — one engine sweep's worth, e.g. when the only edge
    /// out of a component's root goes and the whole component hangs off
    /// it — it gives up and returns `None`, and the batch runs cold.
    /// Both roads end at the same fixpoint.
    fn affected_by_deletions(&self, g: &CsrGraph, seeds: &[VertexId]) -> Option<Vec<VertexId>> {
        self.support(g)
            .affected_by_deletions(&self.states, &self.levels, seeds)
    }

    /// Takes a finished run's states as the track's own and brings the
    /// dependence levels and the digest to them: after a warm run over
    /// `batch` both are repaired around the vertices that moved (the
    /// levels also around the batch's edge heads); after a cold run —
    /// no batch — both are rebuilt. Algorithms that never trim keep no
    /// levels.
    fn absorb(&mut self, g: &CsrGraph, stats: RunStats, batch: Option<&[EdgeUpdate]>) {
        self.last = RunSummary::of(&stats);
        self.total_rounds += stats.rounds;
        let new = stats.final_states;
        match batch {
            Some(updates) => {
                let changed: Vec<VertexId> = (0..new.len())
                    .filter(|&v| self.states[v].to_bits() != new[v].to_bits())
                    .map(|v| v as VertexId)
                    .collect();
                for &v in &changed {
                    let (old, now) = (self.states[v as usize], new[v as usize]);
                    self.digest = self
                        .digest
                        .wrapping_sub(digest_term(v as usize, old.to_bits()))
                        .wrapping_add(digest_term(v as usize, now.to_bits()));
                }
                // A remove may name a vertex the graph never had.
                let heads = updates
                    .iter()
                    .map(EdgeUpdate::dst)
                    .filter(|&v| (v as usize) < new.len());
                let support = Support::new(g, self.spec.algorithm());
                support.repair_levels(&new, &mut self.levels, &changed, heads);
                debug_assert_eq!(
                    self.levels,
                    support.build_levels(&new),
                    "repaired levels must equal a from-scratch build"
                );
                if changed.is_empty() {
                    // The same bits: keep the allocation every epoch
                    // published since shares.
                    return;
                }
            }
            None => {
                self.digest = state_digest(&new);
                if self.warm_start_is_sound() {
                    self.levels = self.support(g).build_levels(&new);
                }
            }
        }
        self.states = Arc::new(new);
    }

    /// Takes over a resumed or restored image on `g`, rebuilding the
    /// digest and the levels it does not carry. The adopted states were
    /// reached in no rounds, converged exactly when the exporting
    /// track's last run was.
    fn adopt(&mut self, g: &CsrGraph, image: TrackState) {
        self.digest = state_digest(&image.states);
        self.states = image.states;
        self.last = RunSummary {
            converged: image.converged,
            ..RunSummary::default()
        };
        self.total_rounds = image.total_rounds;
        self.cold_batches = image.cold_batches;
        self.levels = if self.warm_start_is_sound() {
            self.support(g).build_levels(&self.states)
        } else {
            Vec::new()
        };
    }
}

/// Error from [`split_batches`]: the requested batch count cannot be
/// satisfied with non-empty batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitBatchesError {
    /// How many items were available to split.
    pub items: usize,
    /// How many batches were requested.
    pub target: usize,
}

impl std::fmt::Display for SplitBatchesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot split {} update(s) into {} non-empty batch(es)",
            self.items, self.target
        )
    }
}

impl std::error::Error for SplitBatchesError {}

/// Splits `items` into exactly-at-most `target` non-empty,
/// order-preserving chunks — the helper for turning an update stream
/// into an [`StreamingPipeline::apply_batch`] schedule. Sizes by
/// `div_ceil`, so every batch is non-empty and the count never exceeds
/// `target`.
///
/// Returns [`SplitBatchesError`] when `target` is zero or larger than
/// `items.len()` — callers at tiny scales (e.g. a load generator on a
/// toy graph) must handle the shortage explicitly instead of receiving
/// a silently smaller schedule.
pub fn split_batches<T: Clone>(
    items: &[T],
    target: usize,
) -> Result<Vec<Vec<T>>, SplitBatchesError> {
    if target == 0 || target > items.len() {
        return Err(SplitBatchesError {
            items: items.len(),
            target,
        });
    }
    let size = items.len().div_ceil(target);
    Ok(items.chunks(size).map(<[T]>::to_vec).collect())
}

impl std::fmt::Debug for Track {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Track")
            .field("algorithm", &self.algorithm().name())
            .field("mode", &self.spec.mode)
            .field("total_rounds", &self.total_rounds)
            .field("cold_batches", &self.cold_batches)
            .finish_non_exhaustive()
    }
}

impl std::fmt::Debug for StreamingPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (policy, counters) = (self.shared.policy, self.shared.counters);
        f.debug_struct("StreamingPipeline")
            .field("vertices", &self.shared.inc.graph().num_vertices())
            .field("edges", &self.shared.inc.graph().num_edges())
            .field("tracks", &self.tracks)
            .field("batches_applied", &counters.batches_applied)
            .field("full_reorders", &counters.full_reorders)
            .field("reorder_threads", &policy.reorder_threads)
            .field("positive_fraction", &self.positive_fraction())
            .field("baseline_fraction", &self.baseline_fraction())
            .field("drift_threshold", &policy.drift_threshold)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Bfs, ConnectedComponents, PageRank, Sssp, Sswp};
    use crate::delta::{DeltaPageRank, DeltaSchedule, DeltaSssp};
    use crate::pipeline::Pipeline;
    use gograph_graph::generators::regular::{chain, cycle};
    use gograph_graph::generators::{planted_partition, shuffle_labels, PlantedPartitionConfig};
    use proptest::prelude::*;

    fn seed_graph() -> CsrGraph {
        shuffle_labels(
            &planted_partition(PlantedPartitionConfig {
                num_vertices: 120,
                num_edges: 700,
                communities: 4,
                p_intra: 0.8,
                gamma: 2.4,
                seed: 77,
            }),
            5,
        )
    }

    #[test]
    fn bootstrap_matches_cold_pipeline() {
        let g = seed_graph();
        let sp = StreamingPipeline::over(&g)
            .algorithm(Sssp::new(0))
            .build()
            .unwrap();
        let cold = Pipeline::on(&g)
            .order(sp.order().clone())
            .algorithm(Sssp::new(0))
            .execute()
            .unwrap();
        assert_eq!(sp.states(), &cold.stats.final_states[..]);
        assert_eq!(sp.full_reorders(), 1);
        assert_eq!(sp.batches_applied(), 0);
        assert!(sp.tracks()[0].total_rounds() > 0);
    }

    #[test]
    fn insert_only_batch_warm_start_is_exact() {
        let g = chain(60);
        let mut sp = StreamingPipeline::over(&g)
            .algorithm(Sssp::new(0))
            .build()
            .unwrap();
        let r = sp.apply_batch(&[EdgeUpdate::insert(0, 30)]).unwrap();
        assert!(r.stats.converged);
        // Distances past the shortcut drop to hop-count via it.
        assert_eq!(sp.states()[30], 1.0);
        assert_eq!(sp.states()[59], 30.0);
        // Early chain is untouched.
        assert_eq!(sp.states()[10], 10.0);
    }

    #[test]
    fn deletion_resets_downstream_and_reconverges() {
        let g = chain(40);
        let mut sp = StreamingPipeline::over(&g)
            .algorithm(Bfs::new(0))
            .build()
            .unwrap();
        // Cutting the chain at 19 -> 20 strands the tail at infinity.
        let r = sp.apply_batch(&[EdgeUpdate::remove(19, 20)]).unwrap();
        assert!(r.stats.converged);
        assert_eq!(sp.states()[19], 19.0);
        assert!(sp.states()[20].is_infinite());
        assert!(sp.states()[39].is_infinite());
        // Reconnecting through a shortcut heals the tail.
        let r = sp.apply_batch(&[EdgeUpdate::insert(5, 20)]).unwrap();
        assert!(r.stats.converged);
        assert_eq!(sp.states()[20], 6.0);
        assert_eq!(sp.states()[39], 25.0);
    }

    #[test]
    fn trimming_gives_up_once_it_costs_more_than_a_sweep() {
        // SSSP on a chain: a cut near the tail strands five vertices,
        // and trimming names exactly those.
        let sssp = StreamingPipeline::over(&chain(40))
            .algorithm(Sssp::new(0))
            .build()
            .unwrap();
        let cut = sssp.graph().apply_updates(&[EdgeUpdate::remove(34, 35)]);
        assert_eq!(
            sssp.tracks[0].affected_by_deletions(&cut, &[35]),
            Some((35..40).collect::<Vec<VertexId>>())
        );

        // CC on a directed cycle: vertex 0 is the component's root and
        // 0 -> 1 its only out-edge, so the whole cycle hangs off the cut
        // and one removal would walk all of it — two visits a vertex,
        // twice a sweep. Trimming stops at one sweep's worth.
        let g = cycle(200);
        let cc = StreamingPipeline::over(&g)
            .algorithm(ConnectedComponents)
            .build()
            .unwrap();
        let cut = [EdgeUpdate::remove(0, 1)];
        let after = cc.graph().apply_updates(&cut);
        assert_eq!(cc.tracks[0].affected_by_deletions(&after, &[1]), None);

        // The batch then runs cold, to the fixpoint a cold pipeline finds.
        let mut cc = StreamingPipeline::over(&g)
            .algorithm(ConnectedComponents)
            .build()
            .unwrap();
        let r = cc.apply_batch(&cut).unwrap();
        assert!(r.stats.converged);
        assert_eq!(cc.tracks()[0].cold_batches(), 1);
        assert!(format!("{cc:?}").contains("cold_batches: 1"));
        let cold = Pipeline::on(cc.graph())
            .order(cc.order().clone())
            .algorithm(ConnectedComponents)
            .execute()
            .unwrap();
        assert_eq!(cc.states(), &cold.stats.final_states[..]);
        assert_eq!(
            r.stats.rounds, cold.stats.rounds,
            "a cold run, round for round"
        );
        assert_eq!(cc.states()[0], 0.0);
        assert!(cc.states()[1..].iter().all(|&s| s == 1.0));
    }

    /// States and cold-batch count after `batch`, checked against a
    /// cold pipeline on the resulting graph.
    fn apply_and_check_cc(cc: &mut StreamingPipeline, batch: &[EdgeUpdate]) -> BatchResult {
        let r = cc.apply_batch(batch).unwrap();
        assert!(r.stats.converged);
        let cold = Pipeline::on(cc.graph())
            .order(cc.order().clone())
            .algorithm(ConnectedComponents)
            .execute()
            .unwrap();
        assert_eq!(cc.states(), &cold.stats.final_states[..]);
        r
    }

    #[test]
    fn cc_stays_warm_when_a_cycle_loses_a_non_tree_edge() {
        // Directed cycle: labels are all 0 and vertex v sits v tie hops
        // from the root. The closing edge 199 -> 0 supports nobody: its
        // head is the root, intrinsically 0.
        let mut cc = StreamingPipeline::over(&cycle(200))
            .algorithm(ConnectedComponents)
            .build()
            .unwrap();
        assert_eq!(cc.tracks[0].levels, (0..200).collect::<Vec<u32>>());
        let cut = [EdgeUpdate::remove(199, 0)];
        let patched = cc.graph().apply_updates(&cut);
        assert_eq!(
            cc.tracks[0].affected_by_deletions(&patched, &[0]),
            Some(vec![])
        );

        let r = apply_and_check_cc(&mut cc, &cut);
        assert_eq!(r.stats.rounds, 1);
        assert_eq!(cc.tracks()[0].cold_batches(), 0);
        assert!(cc.states().iter().all(|&s| s == 0.0));
    }

    #[test]
    fn cc_stays_warm_when_a_tree_edge_has_an_equal_label_alternative() {
        // One component under label 0: a diamond 0 -> {1, 2} -> 3, a
        // tail 3 -> 4 -> 7 -> 8, a detour 2 -> 5 -> 6 -> 9 -> 7 one hop
        // longer, and a 50-vertex chain off the root that no cut below
        // comes near.
        let mut edges = vec![
            (0u32, 1u32),
            (0, 2),
            (1, 3),
            (2, 3),
            (3, 4),
            (4, 7),
            (7, 8),
            (2, 5),
            (5, 6),
            (6, 9),
            (9, 7),
            (0, 10),
        ];
        edges.extend((10..59).map(|v| (v, v + 1)));
        let g = CsrGraph::from_edges(60, edges);
        let mut cc = StreamingPipeline::over(&g)
            .algorithm(ConnectedComponents)
            .build()
            .unwrap();
        assert_eq!(cc.tracks[0].levels[..10], [0, 1, 1, 2, 3, 2, 3, 4, 5, 4]);
        let trimmed = |cc: &StreamingPipeline, cut: EdgeUpdate| {
            let patched = cc.graph().apply_updates(&[cut]);
            cc.tracks[0].affected_by_deletions(&patched, &[cut.dst()])
        };

        // 1 -> 3 goes: 2 offers the same label from a lower level, so
        // nothing is reset.
        let cut = EdgeUpdate::remove(1, 3);
        assert_eq!(trimmed(&cc, cut), Some(vec![]));
        let r = apply_and_check_cc(&mut cc, &[cut]);
        assert_eq!(r.stats.rounds, 1);

        // 3 -> 4 goes: 4 has no other in-edge, and 7 and 8 counted their
        // hops through it (9 offers 7 the label from 7's own level, which
        // certifies nothing). The dependence subtree is reset — three
        // vertices of sixty — and the detour brings the label back.
        let cut = EdgeUpdate::remove(3, 4);
        assert_eq!(trimmed(&cc, cut), Some(vec![4, 7, 8]));
        let r = apply_and_check_cc(&mut cc, &[cut]);
        assert!(r.stats.rounds <= 3, "took {} rounds", r.stats.rounds);
        assert_eq!(cc.states()[4], 4.0);
        assert_eq!(cc.states()[7], 0.0);
        assert_eq!(cc.tracks[0].levels[..10], [0, 1, 1, 2, 0, 2, 3, 5, 6, 4]);
        assert_eq!(cc.tracks()[0].cold_batches(), 0);
    }

    #[test]
    fn a_round_capped_pipeline_keeps_converging_across_batches() {
        // One round per run: the bootstrap stops short of the fixpoint,
        // so no later batch may treat the states as settled outside its
        // own frontier — empty batches go on sweeping until the norm
        // says done, and only then report convergence.
        let g = seed_graph();
        let mut sp = StreamingPipeline::over(&g)
            .algorithm(Sssp::new(0))
            .max_rounds(1)
            .build()
            .unwrap();
        assert!(!sp.tracks()[0].last_run().converged);
        let cold = Pipeline::on(&g)
            .order(sp.order().clone())
            .algorithm(Sssp::new(0))
            .execute()
            .unwrap();
        assert_ne!(sp.states(), &cold.stats.final_states[..]);
        let mut batches = 0;
        while !sp.apply_batch(&[]).unwrap().stats.converged {
            batches += 1;
            assert!(batches < 50, "never converged");
        }
        assert!(batches > 0);
        assert_eq!(sp.states(), &cold.stats.final_states[..]);
    }

    #[test]
    fn sum_norm_algorithms_restart_but_stay_correct() {
        let g = seed_graph();
        let mut sp = StreamingPipeline::over(&g)
            .algorithm(PageRank::default())
            .build()
            .unwrap();
        assert!(!sp.tracks()[0].warm_start_is_sound());
        let updates = [
            EdgeUpdate::insert(3, 99),
            EdgeUpdate::insert(99, 3),
            EdgeUpdate::remove(0, 1),
        ];
        let r = sp.apply_batch(&updates).unwrap();
        assert!(r.stats.converged);
        assert_eq!(
            sp.tracks()[0].cold_batches(),
            1,
            "a restart is a cold batch"
        );
        let cold = Pipeline::on(sp.graph())
            .order(sp.order().clone())
            .algorithm(PageRank::default())
            .execute()
            .unwrap();
        assert_eq!(sp.states(), &cold.stats.final_states[..]);
    }

    #[test]
    fn worklist_mode_seeds_only_the_frontier() {
        let g = chain(200);
        let mut sp = StreamingPipeline::over(&g)
            .mode(Mode::Worklist)
            .algorithm(Sssp::new(0))
            .build()
            .unwrap();
        let bootstrap_evals = sp.tracks()[0].last_run().evaluations.unwrap();
        let r = sp.apply_batch(&[EdgeUpdate::insert(0, 190)]).unwrap();
        let batch_evals = r.stats.evaluations.unwrap();
        assert!(r.stats.converged);
        assert_eq!(sp.states()[190], 1.0);
        assert_eq!(sp.states()[199], 10.0);
        assert!(
            batch_evals < bootstrap_evals / 2,
            "warm worklist should touch a fraction of the graph: \
             {batch_evals} vs bootstrap {bootstrap_evals}"
        );
    }

    #[test]
    fn delta_mode_warm_starts_min_style() {
        let g = chain(80);
        let mut sp = StreamingPipeline::over(&g)
            .mode(Mode::Delta(DeltaSchedule::RoundRobin))
            .delta_algorithm(DeltaSssp { source: 0 })
            .build()
            .unwrap();
        assert!(sp.tracks()[0].warm_start_is_sound());
        let r = sp.apply_batch(&[EdgeUpdate::insert(0, 40)]).unwrap();
        assert!(r.stats.converged);
        assert_eq!(sp.states()[40], 1.0);
        assert_eq!(sp.states()[79], 40.0);
        assert!(
            r.stats.rounds <= 3,
            "warm delta propagation should be local, took {} rounds",
            r.stats.rounds
        );
    }

    #[test]
    fn delta_sum_style_restarts() {
        let g = seed_graph();
        let mut sp = StreamingPipeline::over(&g)
            .mode(Mode::Delta(DeltaSchedule::RoundRobin))
            .delta_algorithm(DeltaPageRank::default())
            .build()
            .unwrap();
        assert!(!sp.tracks()[0].warm_start_is_sound());
        let r = sp.apply_batch(&[EdgeUpdate::insert(1, 117)]).unwrap();
        assert!(r.stats.converged);
    }

    #[test]
    fn batches_can_grow_the_vertex_set() {
        let g = chain(10);
        let mut sp = StreamingPipeline::over(&g)
            .algorithm(ConnectedComponents)
            .build()
            .unwrap();
        let r = sp
            .apply_batch(&[EdgeUpdate::insert(9, 12), EdgeUpdate::insert(12, 11)])
            .unwrap();
        assert!(r.stats.converged);
        assert_eq!(sp.graph().num_vertices(), 13);
        assert_eq!(sp.order().len(), 13);
        assert_eq!(sp.states().len(), 13);
        // All of 0..=12 except the isolated 10 collapse to label 0.
        assert_eq!(sp.states()[11], 0.0);
        assert_eq!(sp.states()[12], 0.0);
        assert_eq!(sp.states()[10], 10.0);
    }

    #[test]
    fn drift_threshold_zero_forces_reorders_and_validation_rejects_bad_values() {
        let g = seed_graph();
        for bad in [-0.5, f64::NAN, f64::INFINITY] {
            let err = StreamingPipeline::over(&g)
                .algorithm(Sssp::new(0))
                .drift_threshold(bad)
                .build()
                .unwrap_err();
            assert!(matches!(
                err,
                EngineError::InvalidParameter {
                    name: "drift_threshold",
                    ..
                }
            ));
        }
        let mut eager = StreamingPipeline::over(&g)
            .algorithm(Sssp::new(0))
            .drift_threshold(0.0)
            .build()
            .unwrap();
        let mut lazy = StreamingPipeline::over(&g)
            .algorithm(Sssp::new(0))
            .drift_threshold(1.0)
            .build()
            .unwrap();
        // Adversarial arrivals: edges pointing against the current order.
        for i in 0..8 {
            let order = eager.order().clone();
            let late = order.vertex_at(order.len() - 1 - i);
            let early = order.vertex_at(i);
            let batch = [EdgeUpdate::insert(late, early)];
            eager.apply_batch(&batch).unwrap();
            lazy.apply_batch(&batch).unwrap();
        }
        assert_eq!(lazy.full_reorders(), 1, "threshold 1.0 never re-reorders");
        assert!(
            eager.full_reorders() >= lazy.full_reorders(),
            "threshold 0.0 re-reorders at least as often"
        );
    }

    #[test]
    fn a_declined_breach_keeps_the_maintained_order() {
        // Random churn at a steady edge count lets local repositioning
        // climb past what a fresh GoGraph run reaches on the evolved
        // graph; threshold 1.0 keeps every breach away meanwhile.
        let g = seed_graph();
        let mut maintained = StreamingPipeline::over(&g)
            .algorithm(Sssp::new(0))
            .drift_threshold(1.0)
            .build()
            .unwrap();
        let fresh_fraction = |sp: &StreamingPipeline| {
            let order = GoGraph::default().run(sp.graph());
            gograph_core::metric(sp.graph(), &order) as f64 / sp.graph().num_edges() as f64
        };
        let mut x = 0x9e37_79b9_u32;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x
        };
        let remove = |sp: &StreamingPipeline, pick: u32| {
            let e = sp
                .graph()
                .edges()
                .nth(pick as usize % sp.graph().num_edges());
            let e = e.expect("a live edge");
            EdgeUpdate::remove(e.src, e.dst)
        };
        let mut batches = 0;
        while maintained.positive_fraction() <= fresh_fraction(&maintained) + 0.01 {
            let mut batch: Vec<EdgeUpdate> = (0..4)
                .map(|_| EdgeUpdate::insert(next() % 120, next() % 120))
                .collect();
            batch.extend((0..5).map(|_| remove(&maintained, next())));
            maintained.apply_batch(&batch).unwrap();
            batches += 1;
            assert!(batches < 200, "maintenance never beat a fresh reorder");
        }

        // A baseline far above the maintained fraction: the next batch
        // breaches, and its reorder scores below the maintained order.
        let mut state = maintained.export_state();
        state.baseline_fraction = 1.0;
        let mut breached = StreamingPipeline::over(&g)
            .algorithm(Sssp::new(0))
            .resume(state)
            .unwrap();
        let fulls = breached.full_reorders();
        let batch = [remove(&maintained, next())];
        maintained.apply_batch(&batch).unwrap();
        breached.apply_batch(&batch).unwrap();
        assert_eq!(breached.order(), maintained.order(), "order kept");
        assert_eq!(breached.order_digest(), maintained.order_digest());
        assert_eq!(breached.full_reorders(), fulls, "declined, not counted");
        assert_eq!(
            breached.baseline_fraction().to_bits(),
            breached.positive_fraction().to_bits(),
            "re-baselined to the kept order"
        );
        assert_eq!(breached.states(), maintained.states());
    }

    #[test]
    fn reorder_parallelism_changes_nothing_but_latency() {
        let g = seed_graph();
        let mut seq = StreamingPipeline::over(&g)
            .algorithm(Bfs::new(0))
            .build()
            .unwrap();
        let mut par = StreamingPipeline::over(&g)
            .algorithm(Bfs::new(0))
            .reorder_parallelism(4)
            .build()
            .unwrap();
        assert_eq!(seq.order(), par.order(), "parallel bootstrap reorder");
        let batch = [EdgeUpdate::insert(0, 100), EdgeUpdate::remove(0, 1)];
        seq.apply_batch(&batch).unwrap();
        par.apply_batch(&batch).unwrap();
        assert_eq!(seq.order(), par.order());
        assert_eq!(seq.states(), par.states());
    }

    #[test]
    fn missing_or_mismatched_algorithms_are_reported() {
        let g = chain(5);
        let err = StreamingPipeline::over(&g).build().unwrap_err();
        assert!(matches!(err, EngineError::MissingAlgorithm { .. }));
        let err = StreamingPipeline::over(&g)
            .mode(Mode::Delta(DeltaSchedule::RoundRobin))
            .algorithm(Sssp::new(0))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::IncompatibleAlgorithm {
                provided: "gather",
                ..
            }
        ));
        let err = StreamingPipeline::over(&g)
            .delta_algorithm(DeltaSssp { source: 0 })
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::IncompatibleAlgorithm {
                provided: "delta",
                ..
            }
        ));
    }

    #[test]
    fn empty_batch_is_a_cheap_confirmation() {
        let g = seed_graph();
        let mut sp = StreamingPipeline::over(&g)
            .algorithm(Sssp::new(0))
            .build()
            .unwrap();
        let before = sp.states().to_vec();
        let r = sp.apply_batch(&[]).unwrap();
        assert!(r.stats.converged);
        assert_eq!(r.stats.rounds, 1, "already at the fixpoint");
        assert_eq!(sp.states(), &before[..]);
    }

    #[test]
    fn split_batches_rejects_unsatisfiable_targets() {
        // More batches than items is an explicit error, not a silently
        // smaller (or empty-batch) schedule.
        assert_eq!(
            split_batches(&[1, 2], 4),
            Err(SplitBatchesError {
                items: 2,
                target: 4
            })
        );
        assert_eq!(
            split_batches::<u32>(&[], 4),
            Err(SplitBatchesError {
                items: 0,
                target: 4
            })
        );
        assert_eq!(
            split_batches(&[1, 2, 3], 0),
            Err(SplitBatchesError {
                items: 3,
                target: 0
            })
        );
        let err = split_batches(&[1, 2], 4).unwrap_err();
        assert!(err.to_string().contains("cannot split 2"));
    }

    #[test]
    fn split_batches_even_split_preserves_order() {
        // Even split preserves order and covers everything.
        let batches = split_batches(&[1, 2, 3, 4, 5], 2).unwrap();
        assert_eq!(batches, vec![vec![1, 2, 3], vec![4, 5]]);
        // Exactly one batch per item is the tightest legal schedule.
        assert_eq!(split_batches(&[1, 2], 2).unwrap(), vec![vec![1], vec![2]]);
        assert_eq!(split_batches(&[7], 1).unwrap(), vec![vec![7]]);
    }

    #[test]
    fn resume_is_bit_identical_going_forward() {
        let g = seed_graph();
        // A second, round-capped track: its runs stop short of the
        // fixpoint, and a resume must not claim otherwise. A third,
        // PageRank, restarts cold on every batch, and a resume must carry
        // that count on.
        let builder = || {
            StreamingPipeline::over(&g)
                .algorithm(Sssp::new(0))
                .drift_threshold(0.01)
                .track()
                .algorithm(Sssp::new(7))
                .max_rounds(1)
                .track()
                .algorithm(PageRank::default())
        };
        let mut original = builder().build().unwrap();
        let mut control = builder().build().unwrap();
        // Drive both through a prefix, export mid-stream, resume a third.
        let batches: Vec<Vec<EdgeUpdate>> = (0..6)
            .map(|i| {
                vec![
                    EdgeUpdate::insert(i * 7 % 120, (i * 13 + 5) % 120),
                    EdgeUpdate::remove(i, i + 1),
                    EdgeUpdate::insert(119 - i, i * 3),
                ]
            })
            .collect();
        for b in &batches[..3] {
            original.apply_batch(b).unwrap();
            control.apply_batch(b).unwrap();
        }
        assert!(!original.tracks()[1].last_run().converged);
        let exported = original.export_state();
        assert_eq!(
            exported
                .tracks
                .iter()
                .map(|t| t.converged)
                .collect::<Vec<_>>(),
            [true, false, true]
        );
        let mut resumed = builder().resume(exported).unwrap();
        let counters = |p: &StreamingPipeline| {
            (p.tracks().iter())
                .map(|t| (t.total_rounds(), t.cold_batches()))
                .collect::<Vec<_>>()
        };
        assert_eq!(resumed.graph(), original.graph());
        assert_eq!(resumed.order(), original.order());
        assert_eq!(resumed.states(), original.states());
        assert_eq!(resumed.batches_applied(), 3);
        assert_eq!(counters(&resumed), counters(&original));
        assert_eq!(resumed.tracks()[2].cold_batches(), 3, "PageRank restarts");
        assert!(resumed.tracks()[0].last_run().converged);
        assert!(!resumed.tracks()[1].last_run().converged);
        // The tail must evolve identically on all three pipelines.
        for b in &batches[3..] {
            original.apply_batch(b).unwrap();
            control.apply_batch(b).unwrap();
            resumed.apply_batch(b).unwrap();
        }
        assert_eq!(resumed.graph(), original.graph());
        assert_eq!(resumed.order(), original.order());
        for (r, o) in resumed.tracks().iter().zip(original.tracks()) {
            assert_eq!(r.states(), o.states());
            assert_eq!(r.last_run().converged, o.last_run().converged);
        }
        assert_eq!(counters(&resumed), counters(&original));
        assert_eq!(resumed.full_reorders(), original.full_reorders());
        assert_eq!(control.states(), original.states(), "control sanity");
    }

    #[test]
    fn export_state_shares_the_graph_and_states() {
        // The per-batch rollback image: one copy of the order keys,
        // nothing else copied.
        let g = seed_graph();
        let sp = StreamingPipeline::over(&g)
            .algorithm(Sssp::new(0))
            .track()
            .algorithm(ConnectedComponents)
            .build()
            .unwrap();
        let image = sp.export_state();
        assert!(image.graph.shares_storage_with(sp.graph()));
        assert_eq!(image.tracks.len(), 2);
        for (saved, track) in image.tracks.iter().zip(sp.tracks()) {
            assert!(Arc::ptr_eq(&saved.states, track.states()));
        }

        // Across a batch the image goes on sharing every row block the
        // batch did not touch: a 32-update batch on a graph of ~600
        // blocks per direction leaves ≥ 90 % of the new graph's bytes
        // in the blocks the pre-batch image already holds.
        let g = planted_partition(PlantedPartitionConfig {
            num_vertices: 40_000,
            num_edges: 240_000,
            communities: 400,
            p_intra: 0.8,
            gamma: 2.4,
            seed: 5,
        });
        let mut sp = StreamingPipeline::over(&g)
            .algorithm(ConnectedComponents)
            .build()
            .unwrap();
        let image = sp.export_state();
        let n = g.num_vertices() as u64;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            ((x >> 33) % n) as VertexId
        };
        let batch: Vec<EdgeUpdate> = (0..32)
            .map(|k| {
                let src = next();
                match g.out_neighbors(src).first() {
                    Some(&dst) if k % 4 == 0 => EdgeUpdate::remove(src, dst),
                    _ => EdgeUpdate::insert_weighted(src, next(), 2.0),
                }
            })
            .collect();
        sp.apply_batch(&batch).unwrap();
        let after = sp.graph();
        assert_ne!(after, &image.graph);
        let shared = after.shared_bytes_with(&image.graph);
        assert!(
            shared * 10 >= after.memory_bytes() * 9,
            "shares {shared} of {} bytes",
            after.memory_bytes()
        );
    }

    /// The handed-off order and the `M(O)` counter against their
    /// from-scratch definitions.
    fn assert_order_and_counter_match_oracles(sp: &StreamingPipeline) {
        let (vals, _, _) = sp.shared.inc.order_state();
        assert_eq!(sp.order(), &Permutation::from_float_keys(&vals));
        let m = gograph_core::metric(sp.graph(), sp.order());
        let expected = m as f64 / sp.graph().num_edges() as f64;
        assert_eq!(sp.positive_fraction().to_bits(), expected.to_bits());
    }

    #[test]
    fn order_and_counter_match_oracles_across_drift_repairs() {
        // Insert-only churn against the order breaches a tight threshold
        // in the end, and the maintained order beats the reorder there: a
        // re-baseline in place. A pipeline resumed on the reverse of its
        // order breaches at once, and the reorder wins: a fresh
        // maintainer, every key new. Both must hand the engine exactly
        // the sorted keys, with the counter exact.
        let g = seed_graph();
        let builder = || {
            StreamingPipeline::over(&g)
                .algorithm(Bfs::new(0))
                .drift_threshold(0.02)
        };
        let (mut adopted, mut rebaselines) = (0, 0);
        let mut churn = |sp: &mut StreamingPipeline, i: usize| {
            let order = sp.order().clone();
            let batch: Vec<EdgeUpdate> = (0..4)
                .map(|k| {
                    let late = order.vertex_at(order.len() - 1 - (i * 4 + k) % 50);
                    let early = order.vertex_at((i * 7 + k * 3) % 50);
                    EdgeUpdate::insert(late, early)
                })
                .collect();
            let (baseline, fulls) = (sp.baseline_fraction(), sp.full_reorders());
            sp.apply_batch(&batch).unwrap();
            assert_order_and_counter_match_oracles(sp);
            if sp.full_reorders() > fulls {
                adopted += 1;
            } else if sp.baseline_fraction() != baseline {
                rebaselines += 1;
            }
        };
        let mut sp = builder().build().unwrap();
        assert_order_and_counter_match_oracles(&sp);
        for i in 0..40 {
            churn(&mut sp, i);
        }
        let mut state = sp.export_state();
        for v in &mut state.order_vals {
            *v = -*v;
        }
        (state.order_min_val, state.order_max_val) = (-state.order_max_val, -state.order_min_val);
        let mut reversed = builder().resume(state).unwrap();
        assert_order_and_counter_match_oracles(&reversed);
        for i in 40..44 {
            churn(&mut reversed, i);
        }
        assert!(adopted > 0, "adopting branch ran");
        assert!(rebaselines > 0, "re-baseline branch ran");
    }

    #[test]
    fn resume_at_bootstrap_equals_build() {
        let g = seed_graph();
        let built = StreamingPipeline::over(&g)
            .algorithm(ConnectedComponents)
            .build()
            .unwrap();
        let mut resumed = StreamingPipeline::over(&g)
            .algorithm(ConnectedComponents)
            .resume(built.export_state())
            .unwrap();
        assert_eq!(resumed.order(), built.order());
        assert_eq!(resumed.states(), built.states());
        let r = resumed.apply_batch(&[EdgeUpdate::insert(0, 110)]).unwrap();
        assert!(r.stats.converged);
    }

    #[test]
    fn resume_validates_shapes_and_algorithms() {
        let g = chain(10);
        let sp = StreamingPipeline::over(&g)
            .algorithm(Sssp::new(0))
            .build()
            .unwrap();
        let good = sp.export_state();

        let err = StreamingPipeline::over(&g)
            .resume(good.clone())
            .unwrap_err();
        assert!(matches!(err, EngineError::MissingAlgorithm { .. }));

        let mut short_states = good.clone();
        Arc::make_mut(&mut short_states.tracks[0].states).pop();
        let err = StreamingPipeline::over(&g)
            .algorithm(Sssp::new(0))
            .resume(short_states)
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::InvalidParameter { name: "states", .. }
        ));

        let mut bad_fraction = good.clone();
        bad_fraction.baseline_fraction = f64::NAN;
        let err = StreamingPipeline::over(&g)
            .algorithm(Sssp::new(0))
            .resume(bad_fraction)
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::InvalidParameter {
                name: "baseline_fraction",
                ..
            }
        ));

        let mut bad_vals = good.clone();
        bad_vals.order_vals[0] = f64::NAN;
        let err = StreamingPipeline::over(&g)
            .algorithm(Sssp::new(0))
            .resume(bad_vals)
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::InvalidParameter {
                name: "order_vals",
                ..
            }
        ));

        // One track state per configured track.
        let err = StreamingPipeline::over(&g)
            .algorithm(Sssp::new(0))
            .track()
            .algorithm(Bfs::new(0))
            .resume(good)
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::InvalidParameter { name: "states", .. }
        ));
    }

    #[test]
    fn restore_undoes_a_batch_that_stopped_between_tracks() {
        let g = seed_graph();
        let build = || {
            StreamingPipeline::over(&g)
                .algorithm(Sssp::new(0))
                .track()
                .algorithm(ConnectedComponents)
                .drift_threshold(0.01)
                .build()
                .unwrap()
        };
        let mut sp = build();
        let mut control = build();
        let batches: Vec<Vec<EdgeUpdate>> = (0..6u32)
            .map(|i| {
                vec![
                    EdgeUpdate::insert(i * 7 % 120, (i * 13 + 5) % 120),
                    EdgeUpdate::remove(i, i + 1),
                    EdgeUpdate::insert(119 - i, i * 3 + 120), // grows the graph
                ]
            })
            .collect();
        for (i, b) in batches.iter().enumerate() {
            let save = sp.export_state();
            // The batch reaches the shared graph and the first track,
            // then dies: the second track is still on the old graph.
            let torn = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sp.apply_batch_with(b, |t| assert!(t == 0, "fault before track {t}"))
            }));
            assert!(torn.is_err());
            sp.restore(save);
            assert_eq!(sp.batches_applied(), i);
            sp.apply_batch(b).unwrap();
            control.apply_batch(b).unwrap();
            assert_eq!(sp.graph(), control.graph());
            assert_eq!(sp.order(), control.order());
            assert_eq!(sp.order_digest(), control.order_digest());
            assert_eq!(sp.full_reorders(), control.full_reorders());
            for (a, c) in sp.tracks().iter().zip(control.tracks()) {
                assert_eq!(bits_of(a.states()), bits_of(c.states()));
                assert_eq!(a.state_digest(), c.state_digest());
                assert_eq!(a.levels, c.levels);
                assert_eq!(
                    (a.total_rounds(), a.cold_batches()),
                    (c.total_rounds(), c.cold_batches())
                );
            }
        }
    }

    #[test]
    fn removes_beyond_the_vertex_count_are_no_ops() {
        let mut sp = StreamingPipeline::over(&chain(6))
            .algorithm(Sssp::new(0))
            .build()
            .unwrap();
        let before = sp.states().to_vec();
        let r = sp
            .apply_batch(&[EdgeUpdate::remove(2, 40), EdgeUpdate::remove(40, 2)])
            .unwrap();
        assert!(r.stats.converged);
        assert_eq!(sp.graph().num_vertices(), 6);
        assert_eq!(sp.states(), &before[..]);
        assert_eq!(sp.tracks()[0].cold_batches(), 0);
    }

    #[test]
    fn batches_outside_the_bound_are_refused_before_anything_changes() {
        let mut sp = StreamingPipeline::over(&chain(6))
            .algorithm(Sssp::new(0))
            .build()
            .unwrap();
        let before = sp.export_state();
        for bad in [
            vec![EdgeUpdate::insert(0, 6 + 10_000)],
            vec![EdgeUpdate::remove(1, 2), EdgeUpdate::insert(6 + 4, 3)],
            vec![EdgeUpdate::insert_weighted(0, 1, f64::NAN)],
            vec![EdgeUpdate::insert_weighted(0, 1, -1.0)],
        ] {
            let err = sp.apply_batch(&bad).unwrap_err();
            assert!(
                matches!(err, EngineError::InvalidBatch(_)),
                "{bad:?}: {err}"
            );
        }
        let after = sp.export_state();
        assert_eq!(after.graph, before.graph);
        assert_eq!(after.tracks[0].states, before.tracks[0].states);
        assert_eq!(after.batches_applied, before.batches_applied);
        // A batch of `len` updates may name ids up to `vertices + 2·len - 1`.
        sp.apply_batch(&[EdgeUpdate::insert(5, 7)]).unwrap();
        assert_eq!(sp.graph().num_vertices(), 8);
    }

    #[test]
    fn self_loops_are_skipped() {
        let g = chain(6);
        let mut sp = StreamingPipeline::over(&g)
            .algorithm(Sssp::new(0))
            .build()
            .unwrap();
        let r = sp
            .apply_batch(&[EdgeUpdate::insert(3, 3), EdgeUpdate::remove(2, 2)])
            .unwrap();
        assert!(r.stats.converged);
        assert_eq!(sp.graph().num_edges(), 5);
        assert!(!sp.graph().has_edge(3, 3));
    }
    /// The algorithms the oracle property streams, each under the modes
    /// that run it.
    #[derive(Debug, Clone, Copy)]
    enum Subject {
        Cc,
        Sswp,
        Sssp,
        Bfs,
        DeltaSssp,
    }

    impl Subject {
        const ALL: [Subject; 5] = [
            Subject::Cc,
            Subject::Sswp,
            Subject::Sssp,
            Subject::Bfs,
            Subject::DeltaSssp,
        ];

        fn modes(self) -> Vec<Mode> {
            match self {
                Subject::DeltaSssp => vec![Mode::Delta(DeltaSchedule::RoundRobin)],
                _ => vec![Mode::Async, Mode::Worklist, Mode::Parallel(2)],
            }
        }

        fn gather(self) -> Option<Box<dyn IterativeAlgorithm>> {
            Some(match self {
                Subject::Cc => Box::new(ConnectedComponents),
                Subject::Sswp => Box::new(Sswp::new(0)),
                Subject::Sssp => Box::new(Sssp::new(0)),
                Subject::Bfs => Box::new(Bfs::new(0)),
                Subject::DeltaSssp => return None,
            })
        }

        fn over(self, g: &CsrGraph, mode: Mode) -> StreamingPipelineBuilder {
            self.add_to(StreamingPipeline::over(g), mode)
        }

        /// `b` with this subject as its last track.
        fn add_to(self, b: StreamingPipelineBuilder, mode: Mode) -> StreamingPipelineBuilder {
            let mut b = b.mode(mode);
            b.current().gather = self.gather();
            if b.current().gather.is_none() {
                b = b.delta_algorithm(DeltaSssp { source: 0 });
            }
            b
        }

        /// One pipeline with a track per subject, all under `mode`.
        fn tracks_over(subjects: &[Subject], g: &CsrGraph, mode: Mode) -> StreamingPipelineBuilder {
            let (first, rest) = subjects.split_first().expect("a subject");
            rest.iter()
                .fold(first.over(g, mode), |b, s| s.add_to(b.track(), mode))
        }

        /// The fixpoint a cold run finds on `g`.
        fn cold(self, g: &CsrGraph, order: &Permutation) -> Vec<f64> {
            let p = Pipeline::on(g).order_ref(order);
            let r = match self.gather() {
                Some(alg) => p.algorithm_ref(alg.as_ref()).execute(),
                None => p
                    .mode(Mode::Delta(DeltaSchedule::RoundRobin))
                    .delta_algorithm(DeltaSssp { source: 0 })
                    .execute(),
            };
            r.unwrap().stats.final_states
        }

        /// The certificate invariant, spelled out without `Support`:
        /// every vertex is intrinsic or has an in-edge, from a vertex
        /// that precedes it on `(state, level)`, offering exactly its
        /// state.
        fn assert_certified(self, g: &CsrGraph, track: &Track, label: &str) {
            let (s, l) = (track.states(), &track.levels);
            let gather = self.gather();
            let delta = DeltaSssp { source: 0 };
            for v in g.vertices() {
                let sv = s[v as usize];
                let intrinsic = match &gather {
                    Some(alg) => alg.init(g, v),
                    None => delta.combine(delta.init_state(g, v), delta.init_delta(g, v)),
                };
                let certified = sv == intrinsic
                    || g.in_edges(v).any(|(x, w)| {
                        let sx = s[x as usize];
                        let offer = match &gather {
                            Some(alg) => alg.gather(alg.gather_identity(), sx, w, g.out_degree(x)),
                            None => delta.propagate(g, x, v, w, sx),
                        };
                        let precedes = match self {
                            _ if sx == sv => l[x as usize] < l[v as usize],
                            Subject::Sswp => sx > sv,
                            _ => sx < sv,
                        };
                        offer == sv && precedes
                    });
                assert!(
                    certified,
                    "{label}: vertex {v} (state {sv}, level {}) has no certificate",
                    l[v as usize]
                );
            }
        }
    }

    /// One abstract update, resolved against the graph it lands on:
    /// `(kind, a, b, weight)`.
    type Op = (u8, usize, usize, u8);

    /// Turns `ops` into a batch for `g`: inserts between random
    /// endpoints (up to two ids past the vertex count, so batches grow
    /// the graph; duplicates re-weight), removals of existing edges, and
    /// a remove + re-insert of one existing pair under a new weight.
    fn resolve(g: &CsrGraph, ops: &[Op]) -> Vec<EdgeUpdate> {
        let mut batch = Vec::new();
        for &(kind, a, b, w) in ops {
            let span = g.num_vertices() + 2;
            let existing = (g.num_edges() > 0).then(|| g.edges().nth(a % g.num_edges()).unwrap());
            match (kind, existing) {
                (2, Some(e)) => batch.push(EdgeUpdate::remove(e.src, e.dst)),
                (3, Some(e)) => {
                    batch.push(EdgeUpdate::remove(e.src, e.dst));
                    batch.push(EdgeUpdate::insert_weighted(e.src, e.dst, w as f64));
                }
                (4, Some(e)) => batch.push(EdgeUpdate::insert_weighted(e.src, e.dst, w as f64)),
                _ => batch.push(EdgeUpdate::insert_weighted(
                    (a % span) as VertexId,
                    (b % span) as VertexId,
                    w as f64,
                )),
            }
        }
        batch
    }

    /// A small graph with small integer weights — zero included, so
    /// SSSP ties and SSWP dead ends occur — and a stream of abstract
    /// batches.
    fn arb_stream() -> impl Strategy<Value = (CsrGraph, Vec<Vec<Op>>)> {
        (3usize..20).prop_flat_map(|n| {
            let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 0u8..4), 0..n * 3);
            let ops = proptest::collection::vec((0u8..5, 0usize..1000, 0usize..1000, 0u8..4), 0..8);
            (edges, proptest::collection::vec(ops, 1..7)).prop_map(move |(edges, batches)| {
                let edges = edges
                    .into_iter()
                    .filter(|(u, v, _)| u != v)
                    .map(|(u, v, w)| (u, v, w as f64));
                (CsrGraph::from_edges(n, edges), batches)
            })
        })
    }

    /// Whether two runs of `mode` over the same input take the same
    /// number of rounds. Racing `Parallel(b ≥ 2)` blocks reach bit-equal
    /// states every time, but whether a block sees a neighbour block's
    /// write within a round is up to the scheduler, so their round
    /// counts vary run to run (visible once small rounds cross the pool,
    /// e.g. under `GOGRAPH_PAR_CUTOFF=0`). The oracle compares rounds
    /// only where they repeat, and states, levels, graph and order
    /// everywhere.
    fn rounds_repeat(mode: Mode) -> bool {
        !matches!(mode, Mode::Parallel(b) if b > 1)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn streamed_states_and_levels_match_their_oracles((g, batches) in arb_stream()) {
            for subject in Subject::ALL {
                for mode in subject.modes() {
                    let label = format!("{subject:?}/{}", mode.name());
                    let mut sp = subject.over(&g, mode).build().unwrap();
                    // A second pipeline takes over from a checkpoint
                    // halfway through and must end where this one does.
                    let mut resumed = None;
                    for (i, ops) in batches.iter().enumerate() {
                        if i == batches.len() / 2 {
                            let state = sp.export_state();
                            resumed = Some(subject.over(&g, mode).resume(state).unwrap());
                        }
                        let batch = resolve(sp.graph(), ops);
                        let r = sp.apply_batch(&batch).unwrap();
                        prop_assert!(r.stats.converged, "{}: batch {}", label, i);
                        let cold = subject.cold(sp.graph(), sp.order());
                        prop_assert_eq!(bits_of(sp.states()), bits_of(&cold), "{}: batch {}", label, i);
                        subject.assert_certified(sp.graph(), &sp.tracks()[0], &label);
                        if let Some(resumed) = resumed.as_mut() {
                            let rr = resumed.apply_batch(&batch).unwrap();
                            if rounds_repeat(mode) {
                                prop_assert_eq!(rr.stats.rounds, r.stats.rounds, "{}", label);
                            }
                        }
                    }
                    let resumed = resumed.expect("at least one batch");
                    prop_assert_eq!(bits_of(resumed.states()), bits_of(sp.states()), "{}", label);
                    prop_assert_eq!(resumed.graph(), sp.graph(), "{}", label);
                    prop_assert_eq!(resumed.order(), sp.order(), "{}", label);
                    prop_assert_eq!(&resumed.tracks[0].levels, &sp.tracks[0].levels, "{}", label);
                }
            }

            // Several tracks over one graph and order, and the same set
            // resumed halfway: each track is the one-track pipeline of
            // its algorithm, batch for batch.
            let subjects = [Subject::Cc, Subject::Sssp, Subject::Bfs];
            for mode in [Mode::Async, Mode::Worklist, Mode::Parallel(2)] {
                let label = format!("tracks/{}", mode.name());
                let mut multi = Subject::tracks_over(&subjects, &g, mode).build().unwrap();
                let mut singles: Vec<StreamingPipeline> = subjects
                    .iter()
                    .map(|s| s.over(&g, mode).build().unwrap())
                    .collect();
                let mut resumed = None;
                for (i, ops) in batches.iter().enumerate() {
                    if i == batches.len() / 2 {
                        let state = multi.export_state();
                        resumed = Some(Subject::tracks_over(&subjects, &g, mode).resume(state).unwrap());
                    }
                    let batch = resolve(multi.graph(), ops);
                    multi.apply_batch(&batch).unwrap();
                    for (t, single) in singles.iter_mut().enumerate() {
                        let one = single.apply_batch(&batch).unwrap();
                        let track = &multi.tracks()[t];
                        let label = format!("{label}/{:?}: batch {i}", subjects[t]);
                        prop_assert_eq!(multi.graph(), single.graph(), "{}", label);
                        prop_assert_eq!(multi.order(), single.order(), "{}", label);
                        prop_assert_eq!(multi.order_digest(), single.order_digest(), "{}", label);
                        prop_assert_eq!(bits_of(track.states()), bits_of(single.states()), "{}", label);
                        prop_assert_eq!(track.state_digest(), single.tracks()[0].state_digest(), "{}", label);
                        prop_assert_eq!(&track.levels, &single.tracks[0].levels, "{}", label);
                        prop_assert_eq!(track.cold_batches(), single.tracks()[0].cold_batches(), "{}", label);
                        if rounds_repeat(mode) {
                            prop_assert_eq!(track.last_run().rounds, one.stats.rounds, "{}", label);
                        }
                    }
                    if let Some(resumed) = resumed.as_mut() {
                        resumed.apply_batch(&batch).unwrap();
                        if rounds_repeat(mode) {
                            let rounds = |p: &StreamingPipeline| {
                                p.tracks().iter().map(|t| t.last_run().rounds).collect::<Vec<_>>()
                            };
                            prop_assert_eq!(rounds(resumed), rounds(&multi), "{}", label);
                        }
                    }
                }
                let resumed = resumed.expect("at least one batch");
                prop_assert_eq!(resumed.graph(), multi.graph(), "{}", label);
                prop_assert_eq!(resumed.order(), multi.order(), "{}", label);
                for (a, b) in resumed.tracks().iter().zip(multi.tracks()) {
                    prop_assert_eq!(bits_of(a.states()), bits_of(b.states()), "{}", label);
                    prop_assert_eq!(&a.levels, &b.levels, "{}", label);
                }
            }
        }
    }

    fn bits_of(states: &[f64]) -> Vec<u64> {
        states.iter().map(|s| s.to_bits()).collect()
    }
}
