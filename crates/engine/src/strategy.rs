//! The engine's one entry point: [`execute`] runs an algorithm under a
//! [`Mode`] from a start state.
//!
//! Every engine consumes the same inputs — a graph, an algorithm, a
//! processing order, a [`RunConfig`] and a start state — and produces
//! [`RunStats`]. `execute` validates those inputs once and returns
//! [`EngineError`] instead of panicking, builds the cold start state
//! when the caller brought none, matches the algorithm against the
//! built-ins once (see [`crate::dispatch`]) and hands over to the one
//! kernel the mode names. [`crate::Pipeline`] and
//! [`crate::StreamingPipeline`] are the two callers.

use crate::algorithm::IterativeAlgorithm;
use crate::asynch::{sequential_kernel, Schedule};
use crate::convergence::RunStats;
use crate::delta::{
    delta_priority_kernel, delta_round_robin_kernel, DeltaAlgorithm, DeltaSchedule,
};
use crate::direction::DirectionPolicy;
use crate::dispatch::{dispatch_delta, dispatch_gather};
use crate::error::EngineError;
use crate::parallel::parallel_kernel;
use crate::runner::{Mode, RunConfig};
use gograph_graph::{CsrGraph, Frontier, Permutation, VertexId};

/// A borrowed algorithm of either family. The gather family
/// ([`IterativeAlgorithm`]) recomputes a vertex from all in-neighbors;
/// the delta family ([`DeltaAlgorithm`]) accumulates unconsumed change.
#[derive(Clone, Copy)]
pub enum AlgorithmRef<'a> {
    /// A gather-apply algorithm (sync / async / parallel / worklist).
    Gather(&'a dyn IterativeAlgorithm),
    /// A delta-accumulative algorithm (Maiter / PrIter engines).
    Delta(&'a dyn DeltaAlgorithm),
}

impl AlgorithmRef<'_> {
    /// `"gather"` or `"delta"` — used in error reporting.
    pub fn kind(&self) -> &'static str {
        match self {
            AlgorithmRef::Gather(_) => "gather",
            AlgorithmRef::Delta(_) => "delta",
        }
    }

    /// The wrapped algorithm's display name.
    pub fn name(&self) -> &'static str {
        match self {
            AlgorithmRef::Gather(a) => a.name(),
            AlgorithmRef::Delta(a) => a.name(),
        }
    }
}

/// Caller-supplied starting point for [`execute`] — the carrier of
/// previously converged state when a graph evolves (see
/// [`crate::StreamingPipeline`]). A cold run is the same thing started
/// from the algorithm's `init` states with no frontier, which `execute`
/// fills in when handed no start at all.
///
/// Soundness is the *caller's* responsibility: for a monotonically
/// decreasing gather algorithm the states must be element-wise upper
/// bounds of the new fixpoint (e.g. the old converged states after an
/// insert-only batch, with every vertex that could depend on a deleted
/// edge reset to `init`), and for an increasing one lower bounds. The
/// engines iterate from whatever they are given.
#[derive(Debug, Clone)]
pub struct WarmStart {
    /// Initial per-vertex states (length = vertex count).
    pub states: Vec<f64>,
    /// Vertices whose inputs changed and that must be re-evaluated
    /// first, as a hybrid [`Frontier`] set: the caller's claim that
    /// every *other* vertex's state is already consistent with its
    /// in-neighbors. Every engine starts from it — the gather modes pull
    /// exactly this set in their first round and let activation spread
    /// from there, and the delta engines seed their pending deltas here.
    /// `None` means every vertex.
    pub frontier: Option<Frontier>,
    /// Pending per-vertex deltas for the delta-family engines (length =
    /// vertex count). `None` derives frontier deltas by gathering each
    /// frontier vertex's candidates from its in-edges — sound for
    /// idempotent `⊕` (min/max-style) algorithms, where a settled
    /// neighbor state acts as a consumable delta; sum-style (`⊕ = +`)
    /// algorithms must supply explicit deltas instead.
    pub deltas: Option<Vec<f64>>,
}

impl WarmStart {
    /// A warm start from converged states, re-evaluating everything.
    pub fn from_states(states: Vec<f64>) -> Self {
        WarmStart {
            states,
            frontier: None,
            deltas: None,
        }
    }

    /// Restricts initial re-evaluation to the listed vertices
    /// (duplicates are deduplicated into a [`Frontier`]).
    pub fn with_frontier(mut self, frontier: Vec<VertexId>) -> Self {
        let universe = frontier.iter().map(|&v| v as usize + 1).max().unwrap_or(0);
        self.frontier = Some(Frontier::from_members(universe, frontier));
        self
    }

    /// Restricts initial re-evaluation to an already-built [`Frontier`]
    /// (the zero-copy path the streaming subsystem uses).
    pub fn with_frontier_set(mut self, frontier: Frontier) -> Self {
        self.frontier = Some(frontier);
        self
    }

    /// Supplies explicit pending deltas for the delta-family engines.
    pub fn with_deltas(mut self, deltas: Vec<f64>) -> Self {
        self.deltas = Some(deltas);
        self
    }
}

/// Checks that the algorithm family `mode` consumes was supplied: the
/// delta modes run delta algorithms, every other mode gathers. The one
/// family check behind [`execute`], [`crate::Pipeline::execute`] and
/// [`crate::StreamingPipelineBuilder::build`].
pub(crate) fn check_family(
    mode: Mode,
    has_gather: bool,
    has_delta: bool,
) -> Result<(), EngineError> {
    let (expected, other, supplied, other_supplied) = match mode {
        Mode::Delta(_) => ("delta", "gather", has_delta, has_gather),
        _ => ("gather", "delta", has_gather, has_delta),
    };
    if supplied {
        Ok(())
    } else if other_supplied {
        Err(EngineError::IncompatibleAlgorithm {
            mode: mode.name(),
            provided: other,
        })
    } else {
        Err(EngineError::MissingAlgorithm {
            mode: mode.name(),
            expected,
        })
    }
}

/// Start-state validation: state/delta lengths and frontier range.
fn check_start(g: &CsrGraph, start: &WarmStart) -> Result<(), EngineError> {
    let n = g.num_vertices();
    if start.states.len() != n {
        return Err(EngineError::InvalidParameter {
            name: "warm_start.states",
            message: format!(
                "length {} does not match vertex count {n}",
                start.states.len()
            ),
        });
    }
    if let Some(deltas) = &start.deltas {
        if deltas.len() != n {
            return Err(EngineError::InvalidParameter {
                name: "warm_start.deltas",
                message: format!("length {} does not match vertex count {n}", deltas.len()),
            });
        }
    }
    if let Some(frontier) = &start.frontier {
        let mut out_of_range = None;
        frontier.for_each(|v| {
            if v as usize >= n && out_of_range.is_none() {
                out_of_range = Some(v);
            }
        });
        if let Some(v) = out_of_range {
            return Err(EngineError::InvalidParameter {
                name: "warm_start.frontier",
                message: format!("vertex {v} out of range for {n} vertices"),
            });
        }
    }
    Ok(())
}

/// Pending deltas for a delta-family start that brought none: each
/// frontier vertex gathers the candidates its in-neighbors' *settled*
/// states offer (a settled state consumed as a delta). Sound only when
/// `⊕` is idempotent (min/max-style): for an accumulative `⊕` the
/// candidates would double-count mass already folded into the states,
/// so those algorithms must pass explicit deltas.
fn derive_frontier_deltas(
    g: &CsrGraph,
    alg: &dyn DeltaAlgorithm,
    states: &[f64],
    frontier: Option<&Frontier>,
) -> Result<Vec<f64>, EngineError> {
    if !alg.combine_is_idempotent() {
        return Err(EngineError::InvalidParameter {
            name: "warm_start.deltas",
            message: format!(
                "{} does not declare an idempotent ⊕ \
                 (DeltaAlgorithm::combine_is_idempotent): frontier delta \
                 derivation would double-count accumulated mass — supply \
                 explicit pending deltas",
                alg.name()
            ),
        });
    }
    let n = g.num_vertices();
    let mut derived = vec![alg.identity(); n];
    let mut derive = |v: VertexId| {
        // Re-offer the vertex's base contribution (the algorithm's
        // source term — e.g. the SSSP source's distance 0): a frontier
        // vertex whose state was reset must be able to recover it
        // without waiting on any neighbor.
        let mut acc = alg.combine(alg.identity(), alg.init_delta(g, v));
        for (u, w) in g.in_edges(v) {
            let settled = states[u as usize];
            if settled.is_finite() {
                acc = alg.combine(acc, alg.propagate(g, u, v, w, settled));
            }
        }
        derived[v as usize] = acc;
    };
    match frontier {
        Some(f) => f.for_each_ascending(&mut derive),
        None => (0..n as VertexId).for_each(&mut derive),
    }
    Ok(derived)
}

/// Runs `alg` on `g` under `mode`, visiting vertices in `order`, from
/// `start` — or, when `start` is `None`, cold from the algorithm's
/// initial state. Everything a kernel would otherwise panic on comes
/// back as an [`EngineError`]: an order or start state that does not
/// cover the graph, an algorithm of the wrong family for the mode,
/// pending deltas handed to a gather mode,
/// [`DirectionPolicy::PushOnly`] with an algorithm that cannot scatter,
/// a batch fraction outside `(0, 1]`.
///
/// [`Mode::Sync`], [`Mode::Async`], [`Mode::Worklist`] and
/// `Mode::Parallel(1)` are one loop under three schedules; `Parallel(n)` clamps `n` to `1..=|V|` as
/// it always has, so `Parallel(0)` is one block, never an error.
///
/// ```
/// use gograph_engine::{execute, AlgorithmRef, Mode, RunConfig, Sssp};
/// use gograph_graph::generators::regular::chain;
/// use gograph_graph::Permutation;
///
/// let g = chain(50);
/// // Every chain edge is positive under the identity order: one
/// // propagation round + one confirmation round. Unlike the synchronous
/// // mode, the visit order changes the number of rounds (not the
/// // fixpoint).
/// let stats = execute(
///     &g,
///     AlgorithmRef::Gather(&Sssp::new(0)),
///     Mode::Async,
///     &Permutation::identity(50),
///     &RunConfig::default(),
///     None,
/// )
/// .unwrap();
/// assert_eq!(stats.rounds, 2);
/// assert_eq!(stats.final_states[49], 49.0);
/// ```
pub fn execute(
    g: &CsrGraph,
    alg: AlgorithmRef<'_>,
    mode: Mode,
    order: &Permutation,
    cfg: &RunConfig,
    start: Option<WarmStart>,
) -> Result<RunStats, EngineError> {
    let n = g.num_vertices();
    if order.len() != n {
        return Err(EngineError::OrderLengthMismatch {
            order_len: order.len(),
            num_vertices: n,
        });
    }
    check_family(
        mode,
        matches!(alg, AlgorithmRef::Gather(_)),
        matches!(alg, AlgorithmRef::Delta(_)),
    )?;
    // A cold run is a start with nothing in it: the dispatch arms below
    // fill in `init` states (and, for the delta family, every
    // `init_delta` pending) with the algorithm's concrete type in hand.
    let (states, frontier, deltas) = match start {
        Some(start) => {
            check_start(g, &start)?;
            (Some(start.states), start.frontier, start.deltas)
        }
        None => (None, None, None),
    };
    let vertices = 0..n as VertexId;
    match (alg, mode) {
        (AlgorithmRef::Delta(alg), Mode::Delta(schedule)) => {
            if let DeltaSchedule::Priority { batch_fraction } = schedule {
                if !(batch_fraction > 0.0 && batch_fraction <= 1.0) {
                    return Err(EngineError::InvalidParameter {
                        name: "batch_fraction",
                        message: format!("must be in (0, 1], got {batch_fraction}"),
                    });
                }
            }
            let deltas = match (&states, deltas) {
                (Some(states), None) => {
                    Some(derive_frontier_deltas(g, alg, states, frontier.as_ref())?)
                }
                (_, deltas) => deltas,
            };
            Ok(dispatch_delta!(alg, alg => {
                let states = states
                    .unwrap_or_else(|| vertices.clone().map(|v| alg.init_state(g, v)).collect());
                let deltas =
                    deltas.unwrap_or_else(|| vertices.map(|v| alg.init_delta(g, v)).collect());
                match schedule {
                    DeltaSchedule::RoundRobin => {
                        delta_round_robin_kernel(g, alg, order, cfg, states, deltas)
                    }
                    // The priority engine schedules by |delta|, not by
                    // position: the order is validated and then unused.
                    DeltaSchedule::Priority { batch_fraction } => {
                        delta_priority_kernel(g, alg, batch_fraction, cfg, states, deltas)
                    }
                }
            }))
        }
        (AlgorithmRef::Gather(alg), mode) => {
            // Gather modes have no notion of pending deltas; passing
            // them is a caller mix-up worth surfacing.
            if deltas.is_some() {
                return Err(EngineError::InvalidParameter {
                    name: "warm_start.deltas",
                    message: format!(
                        "mode {:?} runs gather algorithms; pending deltas only apply to \
                         delta modes",
                        mode.name()
                    ),
                });
            }
            // PushOnly demands an algorithm whose `apply` distributes
            // over its gather fold; anything else cannot run
            // scatter-only and is rejected instead of silently pulling.
            if cfg.direction == DirectionPolicy::PushOnly && !alg.supports_push() {
                return Err(EngineError::InvalidParameter {
                    name: "direction",
                    message: format!(
                        "DirectionPolicy::PushOnly requires an algorithm with supports_push(); \
                         {} gathers accumulatively and can only run pull",
                        alg.name()
                    ),
                });
            }
            let seed = frontier.as_ref();
            Ok(dispatch_gather!(alg, alg => {
                let states = states.unwrap_or_else(|| vertices.map(|v| alg.init(g, v)).collect());
                let sequential =
                    |schedule, states| sequential_kernel(g, alg, order, cfg, schedule, seed, states);
                match mode {
                    Mode::Sync => sequential(Schedule::Jacobi, states),
                    Mode::Async => sequential(Schedule::Sweep, states),
                    Mode::Worklist => sequential(Schedule::Frontier, states),
                    Mode::Parallel(blocks) => match blocks.clamp(1, n.max(1)) {
                        // One block *is* the sequential sweep.
                        1 => sequential(Schedule::Sweep, states),
                        blocks => parallel_kernel(g, alg, order, blocks, cfg, states, seed),
                    },
                    Mode::Delta(_) => unreachable!("family checked"),
                }
            }))
        }
        (AlgorithmRef::Delta(_), _) => unreachable!("family checked"),
    }
}

/// Test shorthand: a cold gather run that must be valid.
#[cfg(test)]
pub(crate) fn run_cold(
    g: &CsrGraph,
    alg: &dyn IterativeAlgorithm,
    mode: Mode,
    order: &Permutation,
    cfg: &RunConfig,
) -> RunStats {
    execute(g, AlgorithmRef::Gather(alg), mode, order, cfg, None).expect("valid cold run")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Sssp;
    use crate::delta::DeltaSssp;
    use gograph_graph::generators::regular::chain;

    #[test]
    fn every_mode_resolves_to_its_strategy() {
        // Every mode runs through `execute`, and reports itself by its
        // display name when handed the wrong algorithm family.
        let g = chain(8);
        let id = Permutation::identity(8);
        let cfg = RunConfig::default();
        let gather = Sssp::new(0);
        let delta = DeltaSssp { source: 0 };
        for (mode, name) in [
            (Mode::Sync, "sync"),
            (Mode::Async, "async"),
            (Mode::Parallel(4), "parallel"),
            (Mode::Worklist, "worklist"),
            (Mode::Delta(DeltaSchedule::RoundRobin), "delta-rr"),
            (
                Mode::Delta(DeltaSchedule::Priority {
                    batch_fraction: 0.1,
                }),
                "delta-priority",
            ),
        ] {
            assert_eq!(mode.name(), name);
            let (right, wrong) = match mode {
                Mode::Delta(_) => (AlgorithmRef::Delta(&delta), AlgorithmRef::Gather(&gather)),
                _ => (AlgorithmRef::Gather(&gather), AlgorithmRef::Delta(&delta)),
            };
            let stats = execute(&g, right, mode, &id, &cfg, None).unwrap();
            assert!(stats.converged, "{name}");
            assert_eq!(stats.final_states[7], 7.0, "{name}");
            assert_eq!(
                execute(&g, wrong, mode, &id, &cfg, None).unwrap_err(),
                EngineError::IncompatibleAlgorithm {
                    mode: name,
                    provided: wrong.kind(),
                }
            );
        }
    }

    #[test]
    fn order_mismatch_is_an_error_not_a_panic() {
        // One rule for every mode — the priority schedule never reads
        // the order and is held to it all the same.
        let g = chain(10);
        let bad = Permutation::identity(7);
        let gather = Sssp::new(0);
        let delta = DeltaSssp { source: 0 };
        for mode in [
            Mode::Sync,
            Mode::Async,
            Mode::Parallel(2),
            Mode::Worklist,
            Mode::Delta(DeltaSchedule::RoundRobin),
            Mode::Delta(DeltaSchedule::Priority {
                batch_fraction: 0.5,
            }),
        ] {
            let alg = match mode {
                Mode::Delta(_) => AlgorithmRef::Delta(&delta),
                _ => AlgorithmRef::Gather(&gather),
            };
            assert_eq!(
                execute(&g, alg, mode, &bad, &RunConfig::default(), None).unwrap_err(),
                EngineError::OrderLengthMismatch {
                    order_len: 7,
                    num_vertices: 10
                },
                "{}",
                mode.name()
            );
        }
    }

    #[test]
    fn wrong_algorithm_family_is_rejected() {
        let g = chain(5);
        let id = Permutation::identity(5);
        let gather = Sssp::new(0);
        let delta = DeltaSssp { source: 0 };
        let cfg = RunConfig::default();
        let err = execute(
            &g,
            AlgorithmRef::Gather(&gather),
            Mode::Delta(DeltaSchedule::RoundRobin),
            &id,
            &cfg,
            None,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            EngineError::IncompatibleAlgorithm {
                provided: "gather",
                ..
            }
        ));
        let err = execute(
            &g,
            AlgorithmRef::Delta(&delta),
            Mode::Async,
            &id,
            &cfg,
            None,
        )
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
    fn zero_blocks_clamps_like_the_legacy_engine() {
        // Parallel(0) has always meant "one block"; the entry point must
        // preserve that, not reject it.
        let g = chain(6);
        let id = Permutation::identity(6);
        let stats = run_cold(
            &g,
            &Sssp::new(0),
            Mode::Parallel(0),
            &id,
            &RunConfig::default(),
        );
        assert!(stats.converged);
        assert_eq!(stats.final_states[5], 5.0);
    }

    #[test]
    fn bad_batch_fraction_rejected() {
        let g = chain(5);
        let id = Permutation::identity(5);
        let delta = DeltaSssp { source: 0 };
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            let err = execute(
                &g,
                AlgorithmRef::Delta(&delta),
                Mode::Delta(DeltaSchedule::Priority {
                    batch_fraction: bad,
                }),
                &id,
                &RunConfig::default(),
                None,
            )
            .unwrap_err();
            assert!(matches!(
                err,
                EngineError::InvalidParameter {
                    name: "batch_fraction",
                    ..
                }
            ));
        }
    }

    #[test]
    fn warm_start_from_fixpoint_confirms_immediately() {
        let g = chain(30);
        let id = Permutation::identity(30);
        let cfg = RunConfig::default();
        let alg = Sssp::new(0);
        let cold = run_cold(&g, &alg, Mode::Async, &id, &cfg);
        for mode in [Mode::Sync, Mode::Async, Mode::Parallel(3), Mode::Worklist] {
            let warm = execute(
                &g,
                AlgorithmRef::Gather(&alg),
                mode,
                &id,
                &cfg,
                Some(WarmStart::from_states(cold.final_states.clone())),
            )
            .unwrap();
            assert!(warm.converged, "{}", mode.name());
            assert_eq!(warm.rounds, 1, "{}", mode.name());
            assert_eq!(warm.final_states, cold.final_states, "{}", mode.name());
        }
        // Delta: settled states with nothing pending confirm in one round.
        let dalg = DeltaSssp { source: 0 };
        let warm = execute(
            &g,
            AlgorithmRef::Delta(&dalg),
            Mode::Delta(DeltaSchedule::RoundRobin),
            &id,
            &cfg,
            Some(WarmStart::from_states(cold.final_states.clone()).with_frontier(vec![])),
        )
        .unwrap();
        assert!(warm.converged);
        assert_eq!(warm.rounds, 1);
        assert_eq!(warm.final_states, cold.final_states);
    }

    #[test]
    fn sweep_schedule_starts_from_the_warm_frontier() {
        use crate::algorithm::{ConvergenceNorm, Monotonicity};
        use std::sync::atomic::{AtomicUsize, Ordering};

        /// SSSP that counts its `apply` calls. It keeps the default
        /// `monomorphized()`, so the engine runs this wrapper, not a
        /// copy of the built-in.
        struct CountingSssp(Sssp, AtomicUsize);
        impl IterativeAlgorithm for CountingSssp {
            fn name(&self) -> &'static str {
                "counting-sssp"
            }
            fn init(&self, g: &CsrGraph, v: VertexId) -> f64 {
                self.0.init(g, v)
            }
            fn gather_identity(&self) -> f64 {
                self.0.gather_identity()
            }
            fn gather(&self, acc: f64, s: f64, w: f64, d: usize) -> f64 {
                self.0.gather(acc, s, w, d)
            }
            fn apply(&self, g: &CsrGraph, v: VertexId, current: f64, acc: f64) -> f64 {
                self.1.fetch_add(1, Ordering::Relaxed);
                self.0.apply(g, v, current, acc)
            }
            fn monotonicity(&self) -> Monotonicity {
                self.0.monotonicity()
            }
            fn norm(&self) -> ConvergenceNorm {
                self.0.norm()
            }
            fn epsilon(&self) -> f64 {
                self.0.epsilon()
            }
            fn supports_push(&self) -> bool {
                self.0.supports_push()
            }
        }

        // A shortcut lands ten vertices from the end of a 1000-chain:
        // the warm frontier is its head, and ten states can move.
        let n = 1000;
        let g0 = chain(n);
        let id = Permutation::identity(n);
        let cfg = RunConfig::default();
        let old = run_cold(&g0, &Sssp::new(0), Mode::Async, &id, &cfg).final_states;
        let g1 = g0.apply_updates(&[gograph_graph::EdgeUpdate::insert(0, 990)]);
        let cold = run_cold(&g1, &Sssp::new(0), Mode::Async, &id, &cfg);
        for mode in [Mode::Async, Mode::Parallel(1), Mode::Sync] {
            let applies = |start: WarmStart| {
                let alg = CountingSssp(Sssp::new(0), AtomicUsize::new(0));
                let stats = execute(
                    &g1,
                    AlgorithmRef::Gather(&alg),
                    mode,
                    &id,
                    &cfg,
                    Some(start),
                )
                .unwrap();
                assert!(stats.converged);
                assert_eq!(stats.final_states, cold.final_states);
                (alg.1.into_inner(), stats.rounds)
            };
            let (seeded, seeded_rounds) =
                applies(WarmStart::from_states(old.clone()).with_frontier(vec![990]));
            let (unseeded, unseeded_rounds) = applies(WarmStart::from_states(old.clone()));
            assert!(unseeded >= n, "no frontier: round 1 is a full scan");
            assert!(seeded <= 40, "{seeded} applies to move ten states");
            assert_eq!(seeded_rounds, unseeded_rounds, "same rounds either way");
        }
    }

    #[test]
    fn warm_start_validation_errors() {
        let g = chain(10);
        let id = Permutation::identity(10);
        let cfg = RunConfig::default();
        let alg = Sssp::new(0);
        let rejected_parameter =
            |alg: AlgorithmRef<'_>, mode: Mode, start: WarmStart| match execute(
                &g,
                alg,
                mode,
                &id,
                &cfg,
                Some(start),
            )
            .unwrap_err()
            {
                EngineError::InvalidParameter { name, .. } => name,
                other => panic!("expected an invalid parameter, got {other:?}"),
            };
        // Wrong state length.
        assert_eq!(
            rejected_parameter(
                AlgorithmRef::Gather(&alg),
                Mode::Async,
                WarmStart::from_states(vec![0.0; 4]),
            ),
            "warm_start.states"
        );
        // Out-of-range frontier vertex.
        assert_eq!(
            rejected_parameter(
                AlgorithmRef::Gather(&alg),
                Mode::Worklist,
                WarmStart::from_states(vec![0.0; 10]).with_frontier(vec![99]),
            ),
            "warm_start.frontier"
        );
        // Deltas handed to a gather mode.
        assert_eq!(
            rejected_parameter(
                AlgorithmRef::Gather(&alg),
                Mode::Sync,
                WarmStart::from_states(vec![0.0; 10]).with_deltas(vec![0.0; 10]),
            ),
            "warm_start.deltas"
        );
        // Sum-style delta algorithm without explicit deltas.
        let dpr = crate::delta::DeltaPageRank::default();
        assert_eq!(
            rejected_parameter(
                AlgorithmRef::Delta(&dpr),
                Mode::Delta(DeltaSchedule::RoundRobin),
                WarmStart::from_states(vec![0.0; 10]).with_frontier(vec![0]),
            ),
            "warm_start.deltas"
        );
    }

    #[test]
    fn warm_delta_derivation_relaxes_a_shortcut() {
        // Converged SSSP chain states, then a shortcut 0 -> 5 appears:
        // seeding only vertex 5 must re-derive and propagate the
        // improvement to the tail.
        let g0 = chain(10);
        let id = Permutation::identity(10);
        let cfg = RunConfig::default();
        let dalg = AlgorithmRef::Delta(&DeltaSssp { source: 0 });
        let rr = Mode::Delta(DeltaSchedule::RoundRobin);
        let cold = execute(&g0, dalg, rr, &id, &cfg, None).unwrap();
        let mut edges: Vec<(u32, u32, f64)> =
            g0.edges().map(|e| (e.src, e.dst, e.weight)).collect();
        edges.push((0, 5, 1.0));
        let g1 = CsrGraph::from_edges(10, edges);
        for schedule in [
            DeltaSchedule::RoundRobin,
            DeltaSchedule::Priority {
                batch_fraction: 0.3,
            },
        ] {
            let warm = execute(
                &g1,
                dalg,
                Mode::Delta(schedule),
                &id,
                &cfg,
                Some(WarmStart::from_states(cold.final_states.clone()).with_frontier(vec![5])),
            )
            .unwrap();
            assert!(warm.converged);
            assert_eq!(warm.final_states[5], 1.0);
            assert_eq!(warm.final_states[9], 5.0);
        }
    }

    #[test]
    fn strategies_reach_the_same_sssp_fixpoint() {
        let g = chain(12);
        let id = Permutation::identity(12);
        let cfg = RunConfig::default();
        let gather = Sssp::new(0);
        let reference = run_cold(&g, &gather, Mode::Sync, &id, &cfg);
        for mode in [Mode::Async, Mode::Parallel(3), Mode::Worklist] {
            let got = run_cold(&g, &gather, mode, &id, &cfg);
            assert_eq!(got.final_states, reference.final_states, "{}", mode.name());
        }
        let got = execute(
            &g,
            AlgorithmRef::Delta(&DeltaSssp { source: 0 }),
            Mode::Delta(DeltaSchedule::RoundRobin),
            &id,
            &cfg,
            None,
        )
        .unwrap();
        assert_eq!(got.final_states, reference.final_states);
    }
}
