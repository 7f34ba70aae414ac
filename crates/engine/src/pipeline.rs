//! The unified **Pipeline** execution API — the paper's whole method as
//! one composable entry point: compute an order `R(G) -> O_V`
//! (*reorder*), optionally physically *relabel* the graph so that order
//! becomes a sequential scan, then *iterate* a monotonic algorithm under
//! any [`Mode`] through [`crate::execute`].
//!
//! ```
//! use gograph_engine::{Mode, PageRank, Pipeline};
//! use gograph_graph::generators::regular::chain;
//! use gograph_reorder::DegSort;
//!
//! let g = chain(100);
//! let result = Pipeline::on(&g)
//!     .reorder(DegSort::default())
//!     .relabel(true)
//!     .mode(Mode::Async)
//!     .algorithm(PageRank::default())
//!     .max_rounds(10_000)
//!     .trace(true)
//!     .execute()
//!     .unwrap();
//! assert!(result.stats.converged);
//! assert_eq!(result.order.len(), 100);
//! assert!(result.relabeled.is_some());
//! ```
//!
//! Each stage is optional with sensible defaults: no reorder step means
//! the identity order, `relabel` defaults to off, the mode defaults to
//! [`Mode::Async`] (the paper's deployment), and configuration defaults
//! to [`RunConfig::default`]. Invalid combinations come back as
//! [`EngineError`] values instead of panics.

use crate::algorithm::IterativeAlgorithm;
use crate::convergence::RunStats;
use crate::delta::DeltaAlgorithm;
use crate::error::EngineError;
use crate::runner::{Mode, RunConfig};
use crate::strategy::{check_family, execute, AlgorithmRef, WarmStart};
use gograph_graph::{CsrGraph, Permutation, VertexId};
use gograph_reorder::Reorderer;
use std::time::{Duration, Instant};

/// How the processing order is obtained.
enum OrderSpec<'a> {
    /// No reordering: identity order (the paper's "Default").
    Identity,
    /// A caller-supplied order, owned.
    Explicit(Permutation),
    /// A caller-supplied order, borrowed.
    Borrowed(&'a Permutation),
    /// Computed by a reordering method at execute time.
    Reorder(Box<dyn Reorderer + 'a>),
}

/// Deferred algorithm construction: receives the resolved order (see
/// [`Pipeline::algorithm_with`]).
type AlgorithmFactory<'a> = Box<dyn FnOnce(&Permutation) -> Box<dyn IterativeAlgorithm> + 'a>;

/// A gather algorithm in any ownership shape.
enum GatherSpec<'a> {
    Owned(Box<dyn IterativeAlgorithm>),
    Borrowed(&'a dyn IterativeAlgorithm),
    /// Built once the order is known — for source-based algorithms whose
    /// source id must be mapped through the order.
    Factory(AlgorithmFactory<'a>),
}

/// Deferred delta-algorithm construction: receives the resolved order
/// (see [`Pipeline::delta_algorithm_with`]).
type DeltaFactory<'a> = Box<dyn FnOnce(&Permutation) -> Box<dyn DeltaAlgorithm> + 'a>;

/// A delta algorithm in any ownership shape.
enum DeltaSpec<'a> {
    Owned(Box<dyn DeltaAlgorithm>),
    Borrowed(&'a dyn DeltaAlgorithm),
    /// Built once the order is known — for source-based delta algorithms
    /// whose source id must be mapped through the order.
    Factory(DeltaFactory<'a>),
}

/// Wall-clock cost of each pipeline stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Computing the order (zero when an explicit order was supplied).
    pub reorder: Duration,
    /// Physically relabeling the graph (zero when relabeling is off).
    pub relabel: Duration,
    /// The iterative engine run itself.
    pub execute: Duration,
}

impl StageTimings {
    /// Total pipeline wall-clock time.
    pub fn total(&self) -> Duration {
        self.reorder + self.relabel + self.execute
    }
}

/// Everything a pipeline run produced.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// The processing order that was used (identity when none was set).
    pub order: Permutation,
    /// The physically relabeled graph, when `relabel(true)` was set.
    /// Under relabeling, vertex `v`'s state lives at index
    /// `order.position(v)` of `stats.final_states` — or use
    /// [`PipelineResult::state_of`].
    pub relabeled: Option<CsrGraph>,
    /// Statistics of the engine run.
    pub stats: RunStats,
    /// Per-stage wall-clock timings.
    pub timings: StageTimings,
}

impl PipelineResult {
    /// Final state of vertex `v` in *original* ids, transparently mapping
    /// through the order when the run was relabeled.
    pub fn state_of(&self, v: VertexId) -> f64 {
        if self.relabeled.is_some() {
            self.stats.final_states[self.order.position(v) as usize]
        } else {
            self.stats.final_states[v as usize]
        }
    }

    /// All final states in *original* vertex-id order (allocates when the
    /// run was relabeled).
    pub fn states_in_original_ids(&self) -> Vec<f64> {
        if self.relabeled.is_some() {
            (0..self.order.len() as VertexId)
                .map(|v| self.state_of(v))
                .collect()
        } else {
            self.stats.final_states.clone()
        }
    }
}

/// Fluent builder for a reorder → relabel → iterate run. See the
/// [module docs](crate::pipeline) for an example.
pub struct Pipeline<'a> {
    graph: &'a CsrGraph,
    order: OrderSpec<'a>,
    relabel: bool,
    mode: Mode,
    gather: Option<GatherSpec<'a>>,
    delta: Option<DeltaSpec<'a>>,
    cfg: RunConfig,
    require_convergence: bool,
    warm: Option<WarmStart>,
}

impl<'a> Pipeline<'a> {
    /// Starts a pipeline over `graph`.
    pub fn on(graph: &'a CsrGraph) -> Self {
        Pipeline {
            graph,
            order: OrderSpec::Identity,
            relabel: false,
            mode: Mode::Async,
            gather: None,
            delta: None,
            cfg: RunConfig::default(),
            require_convergence: false,
            warm: None,
        }
    }

    /// Computes the processing order with `reorderer` at execute time.
    /// Any [`Reorderer`] slots in — the paper's GoGraph, its incremental
    /// variant, or any of the six baselines. Replaces any previously set
    /// order source.
    pub fn reorder(mut self, reorderer: impl Reorderer + 'a) -> Self {
        self.order = OrderSpec::Reorder(Box::new(reorderer));
        self
    }

    /// Uses an explicit processing order. Replaces any previously set
    /// order source.
    pub fn order(mut self, order: Permutation) -> Self {
        self.order = OrderSpec::Explicit(order);
        self
    }

    /// Uses a borrowed explicit processing order (avoids a clone until
    /// execute time). Replaces any previously set order source.
    pub fn order_ref(mut self, order: &'a Permutation) -> Self {
        self.order = OrderSpec::Borrowed(order);
        self
    }

    /// Physically relabels the graph by the order before running, so the
    /// engine scans vertices `0..n` sequentially — the paper's deployment
    /// configuration (reorder offline, iterate on the improved layout).
    pub fn relabel(mut self, yes: bool) -> Self {
        self.relabel = yes;
        self
    }

    /// Selects the execution mode (default: [`Mode::Async`]).
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Supplies the gather algorithm (PageRank, SSSP, ...) by value.
    pub fn algorithm(mut self, alg: impl IterativeAlgorithm + 'static) -> Self {
        self.gather = Some(GatherSpec::Owned(Box::new(alg)));
        self
    }

    /// Supplies the gather algorithm by reference.
    pub fn algorithm_ref(mut self, alg: &'a dyn IterativeAlgorithm) -> Self {
        self.gather = Some(GatherSpec::Borrowed(alg));
        self
    }

    /// Supplies the gather algorithm through a factory that receives the
    /// resolved processing order — the hook for source-based algorithms
    /// whose source vertex must be mapped through the order when
    /// relabeling:
    ///
    /// ```
    /// use gograph_engine::{Mode, Pipeline, Sssp};
    /// use gograph_graph::generators::regular::chain;
    /// use gograph_reorder::DegSort;
    ///
    /// let g = chain(10);
    /// let source = 0u32;
    /// let r = Pipeline::on(&g)
    ///     .reorder(DegSort::default())
    ///     .relabel(true)
    ///     .algorithm_with(move |order| Box::new(Sssp::new(order.position(source))))
    ///     .execute()
    ///     .unwrap();
    /// assert_eq!(r.state_of(source), 0.0);
    /// ```
    pub fn algorithm_with(
        mut self,
        factory: impl FnOnce(&Permutation) -> Box<dyn IterativeAlgorithm> + 'a,
    ) -> Self {
        self.gather = Some(GatherSpec::Factory(Box::new(factory)));
        self
    }

    /// Supplies the delta algorithm (for [`Mode::Delta`]) by value.
    pub fn delta_algorithm(mut self, alg: impl DeltaAlgorithm + 'static) -> Self {
        self.delta = Some(DeltaSpec::Owned(Box::new(alg)));
        self
    }

    /// Supplies the delta algorithm by reference.
    pub fn delta_algorithm_ref(mut self, alg: &'a dyn DeltaAlgorithm) -> Self {
        self.delta = Some(DeltaSpec::Borrowed(alg));
        self
    }

    /// Supplies the delta algorithm through a factory that receives the
    /// resolved processing order — the delta counterpart of
    /// [`Pipeline::algorithm_with`], needed so a source-based delta
    /// algorithm (e.g. delta SSSP) targets the right vertex when
    /// relabeling:
    ///
    /// ```
    /// use gograph_engine::{DeltaSchedule, DeltaSssp, Mode, Pipeline};
    /// use gograph_graph::generators::regular::chain;
    /// use gograph_reorder::DegSort;
    ///
    /// let g = chain(10);
    /// let source = 0u32;
    /// let r = Pipeline::on(&g)
    ///     .reorder(DegSort::default())
    ///     .relabel(true)
    ///     .mode(Mode::Delta(DeltaSchedule::RoundRobin))
    ///     .delta_algorithm_with(move |order| {
    ///         Box::new(DeltaSssp { source: order.position(source) })
    ///     })
    ///     .execute()
    ///     .unwrap();
    /// assert_eq!(r.state_of(source), 0.0);
    /// ```
    pub fn delta_algorithm_with(
        mut self,
        factory: impl FnOnce(&Permutation) -> Box<dyn DeltaAlgorithm> + 'a,
    ) -> Self {
        self.delta = Some(DeltaSpec::Factory(Box::new(factory)));
        self
    }

    /// Safety cap on rounds (default 10 000).
    pub fn max_rounds(mut self, n: usize) -> Self {
        self.cfg.max_rounds = n;
        self
    }

    /// Records a per-round [`crate::convergence::TracePoint`].
    pub fn trace(mut self, yes: bool) -> Self {
        self.cfg.record_trace = yes;
        self
    }

    /// Traversal-direction policy (default
    /// [`crate::DirectionPolicy::Auto`]). Composes with every mode —
    /// including [`Mode::Parallel`], whose block-parallel engine runs
    /// direction-optimized rounds at every block count.
    pub fn direction(mut self, policy: crate::DirectionPolicy) -> Self {
        self.cfg.direction = policy;
        self
    }

    /// Replaces the whole run configuration.
    pub fn config(mut self, cfg: RunConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Makes `execute` return [`EngineError::DidNotConverge`] when the
    /// round cap is hit before convergence (default: off — the stats
    /// report `converged: false`).
    pub fn require_convergence(mut self, yes: bool) -> Self {
        self.require_convergence = yes;
        self
    }

    /// Starts the engine from a [`WarmStart`] (previous converged states,
    /// optionally with an update frontier and pending deltas) instead of
    /// the algorithm's initial state — the evolving-graph entry used by
    /// [`crate::StreamingPipeline`]. Warm states are indexed by *graph*
    /// vertex id, so this is incompatible with `relabel(true)` (which
    /// renumbers vertices) and `execute` rejects the combination.
    pub fn warm_start(mut self, warm: WarmStart) -> Self {
        self.warm = Some(warm);
        self
    }

    /// Runs the pipeline: reorder → (relabel) → iterate.
    pub fn execute(self) -> Result<PipelineResult, EngineError> {
        let Pipeline {
            graph,
            order,
            relabel,
            mode,
            gather,
            delta,
            cfg,
            require_convergence,
            warm,
        } = self;
        let n = graph.num_vertices();
        if warm.is_some() && relabel {
            return Err(EngineError::InvalidParameter {
                name: "warm_start",
                message: "warm states are indexed by vertex id and cannot be combined \
                          with relabel(true); relabel once up front and warm-start over \
                          the relabeled graph instead"
                    .into(),
            });
        }

        // --- Stage 1: obtain and validate the processing order. ---
        let t = Instant::now();
        let order = match order {
            OrderSpec::Identity => Permutation::identity(n),
            OrderSpec::Explicit(p) => p,
            OrderSpec::Borrowed(p) => p.clone(),
            OrderSpec::Reorder(r) => r.reorder(graph),
        };
        let reorder_time = t.elapsed();
        // Length is the only invariant to check here: Permutation's
        // constructors already guarantee bijectivity, so a Reorderer can
        // only hand back a valid (if possibly wrong-sized) permutation.
        if order.len() != n {
            return Err(EngineError::OrderLengthMismatch {
                order_len: order.len(),
                num_vertices: n,
            });
        }

        // --- Resolve the algorithm for the selected mode. Only the
        // family the mode consumes gets resolved, so a factory of the
        // other family is never run just to be discarded. ---
        check_family(mode, gather.is_some(), delta.is_some())?;
        let mut owned_gather: Option<Box<dyn IterativeAlgorithm>> = None;
        let mut owned_delta: Option<Box<dyn DeltaAlgorithm>> = None;
        let alg = match mode {
            Mode::Delta(_) => AlgorithmRef::Delta(match delta.expect("family checked") {
                DeltaSpec::Borrowed(a) => a,
                DeltaSpec::Owned(a) => &**owned_delta.insert(a),
                DeltaSpec::Factory(f) => &**owned_delta.insert(f(&order)),
            }),
            _ => AlgorithmRef::Gather(match gather.expect("family checked") {
                GatherSpec::Borrowed(a) => a,
                GatherSpec::Owned(a) => &**owned_gather.insert(a),
                GatherSpec::Factory(f) => &**owned_gather.insert(f(&order)),
            }),
        };

        // --- Stage 2: physical relabeling (optional). ---
        let t = Instant::now();
        let relabeled = relabel.then(|| graph.relabeled(&order));
        let relabel_time = t.elapsed();
        let identity;
        let (run_graph, run_order): (&CsrGraph, &Permutation) = match &relabeled {
            Some(rg) => {
                // After relabeling, the order *is* the sequential scan.
                identity = Permutation::identity(n);
                (rg, &identity)
            }
            None => (graph, &order),
        };

        // --- Stage 3: iterate. ---
        let t = Instant::now();
        let stats = execute(run_graph, alg, mode, run_order, &cfg, warm)?;
        let execute_time = t.elapsed();
        if require_convergence && !stats.converged {
            return Err(EngineError::DidNotConverge {
                rounds: stats.rounds,
            });
        }

        Ok(PipelineResult {
            order,
            relabeled,
            stats,
            timings: StageTimings {
                reorder: reorder_time,
                relabel: relabel_time,
                execute: execute_time,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{PageRank, Sssp};
    use crate::delta::{DeltaSchedule, DeltaSssp};
    use gograph_graph::generators::regular::chain;
    use gograph_reorder::{DefaultOrder, RandomOrder, Reorderer};

    #[test]
    fn default_pipeline_is_async_identity() {
        let g = chain(20);
        let r = Pipeline::on(&g).algorithm(Sssp::new(0)).execute().unwrap();
        assert!(r.stats.converged);
        assert!(r.order.is_identity());
        assert!(r.relabeled.is_none());
        assert_eq!(
            r.stats.rounds, 2,
            "chain under identity is 1 pass + 1 check"
        );
        assert_eq!(r.state_of(19), 19.0);
    }

    #[test]
    fn relabel_matches_in_place_fixpoint() {
        let g = chain(30);
        let order = RandomOrder { seed: 5 }.reorder(&g);
        let in_place = Pipeline::on(&g)
            .order(order.clone())
            .algorithm(Sssp::new(0))
            .execute()
            .unwrap();
        let relabeled = Pipeline::on(&g)
            .order(order)
            .relabel(true)
            .algorithm_with(|o| Box::new(Sssp::new(o.position(0))))
            .execute()
            .unwrap();
        assert_eq!(
            in_place.stats.final_states,
            relabeled.states_in_original_ids()
        );
    }

    #[test]
    fn direction_builder_composes_with_parallel_mode() {
        let g = chain(60);
        let run = |policy: crate::DirectionPolicy| {
            Pipeline::on(&g)
                .mode(Mode::Parallel(3))
                .direction(policy)
                .algorithm(Sssp::new(0))
                .execute()
                .unwrap()
        };
        let auto = run(crate::DirectionPolicy::Auto);
        let pull = run(crate::DirectionPolicy::PullOnly);
        let push = run(crate::DirectionPolicy::PushOnly);
        assert_eq!(auto.stats.final_states, pull.stats.final_states);
        assert_eq!(auto.stats.final_states, push.stats.final_states);
        assert_eq!(pull.stats.push_rounds, 0, "PullOnly never scatters");
        assert!(push.stats.push_rounds > 0, "PushOnly must scatter");
    }

    #[test]
    fn missing_algorithm_is_reported() {
        let g = chain(5);
        let err = Pipeline::on(&g).execute().unwrap_err();
        assert!(matches!(
            err,
            EngineError::MissingAlgorithm {
                expected: "gather",
                ..
            }
        ));
        let err = Pipeline::on(&g)
            .mode(Mode::Delta(DeltaSchedule::RoundRobin))
            .execute()
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::MissingAlgorithm {
                expected: "delta",
                ..
            }
        ));
    }

    #[test]
    fn mode_algorithm_mismatch_is_reported() {
        let g = chain(5);
        let err = Pipeline::on(&g)
            .mode(Mode::Delta(DeltaSchedule::RoundRobin))
            .algorithm(Sssp::new(0))
            .execute()
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::IncompatibleAlgorithm {
                provided: "gather",
                ..
            }
        ));
        let err = Pipeline::on(&g)
            .delta_algorithm(DeltaSssp { source: 0 })
            .execute()
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
    fn wrong_length_order_is_an_error() {
        let g = chain(10);
        let err = Pipeline::on(&g)
            .order(Permutation::identity(4))
            .algorithm(Sssp::new(0))
            .execute()
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::OrderLengthMismatch {
                order_len: 4,
                num_vertices: 10
            }
        );
    }

    #[test]
    fn require_convergence_surfaces_round_cap() {
        let g = chain(50);
        // Reversed order needs ~n rounds; cap far below that.
        let err = Pipeline::on(&g)
            .order(Permutation::identity(50).reversed())
            .algorithm(Sssp::new(0))
            .max_rounds(3)
            .require_convergence(true)
            .execute()
            .unwrap_err();
        assert_eq!(err, EngineError::DidNotConverge { rounds: 3 });
        // Without the flag the same run reports converged: false.
        let r = Pipeline::on(&g)
            .order(Permutation::identity(50).reversed())
            .algorithm(Sssp::new(0))
            .max_rounds(3)
            .execute()
            .unwrap();
        assert!(!r.stats.converged);
    }

    #[test]
    fn stage_timings_are_recorded() {
        let g = chain(200);
        let r = Pipeline::on(&g)
            .reorder(DefaultOrder)
            .relabel(true)
            .algorithm(PageRank::default())
            .execute()
            .unwrap();
        assert!(r.timings.execute > Duration::ZERO);
        assert!(r.timings.total() >= r.timings.execute);
    }

    #[test]
    fn delta_factory_maps_source_through_relabeling() {
        let g = chain(20);
        // Reverse order + relabel: original vertex 0 becomes id 19. A
        // naive DeltaSssp { source: 0 } would start from the wrong end;
        // the factory maps it correctly.
        let r = Pipeline::on(&g)
            .order(Permutation::identity(20).reversed())
            .relabel(true)
            .mode(Mode::Delta(DeltaSchedule::RoundRobin))
            .delta_algorithm_with(|o| {
                Box::new(DeltaSssp {
                    source: o.position(0),
                })
            })
            .execute()
            .unwrap();
        assert!(r.stats.converged);
        assert_eq!(r.state_of(0), 0.0);
        assert_eq!(r.state_of(19), 19.0);
    }

    #[test]
    fn warm_start_flows_through_pipeline_and_rejects_relabel() {
        let g = chain(25);
        let cold = Pipeline::on(&g).algorithm(Sssp::new(0)).execute().unwrap();
        let warm = Pipeline::on(&g)
            .algorithm(Sssp::new(0))
            .warm_start(WarmStart::from_states(cold.stats.final_states.clone()))
            .execute()
            .unwrap();
        assert!(warm.stats.converged);
        assert_eq!(warm.stats.rounds, 1, "fixpoint confirms in one round");
        assert_eq!(warm.stats.final_states, cold.stats.final_states);
        let err = Pipeline::on(&g)
            .algorithm(Sssp::new(0))
            .relabel(true)
            .warm_start(WarmStart::from_states(cold.stats.final_states.clone()))
            .execute()
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::InvalidParameter {
                name: "warm_start",
                ..
            }
        ));
    }

    #[test]
    fn worklist_mode_exposes_evaluations() {
        let g = chain(40);
        let r = Pipeline::on(&g)
            .mode(Mode::Worklist)
            .algorithm(Sssp::new(0))
            .execute()
            .unwrap();
        assert!(r.stats.converged);
        assert!(r.stats.evaluations.is_some());
        let full = Pipeline::on(&g).algorithm(Sssp::new(0)).execute().unwrap();
        assert_eq!(r.stats.final_states, full.stats.final_states);
    }
}
