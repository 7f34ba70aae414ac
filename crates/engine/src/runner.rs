//! The run vocabulary: [`Mode`] selects the engine [`crate::execute`]
//! hands a run to, [`RunConfig`] carries what every engine honours.

use crate::convergence::RunStats;
use crate::delta::DeltaSchedule;
use crate::direction::DirectionPolicy;
use gograph_graph::CsrGraph;

/// Engine execution mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Synchronous (Jacobi, Eq. 1) — double-buffered.
    Sync,
    /// Asynchronous (Gauss–Seidel, Eq. 2) — in-place, order-sensitive.
    Async,
    /// Block-parallel asynchronous with the given block count.
    Parallel(usize),
    /// Active-frontier worklist (Galois/GraphLab-style scheduling).
    Worklist,
    /// Delta-accumulative iteration under the given schedule
    /// (Maiter round-robin or PrIter prioritized).
    Delta(DeltaSchedule),
}

impl Mode {
    /// The mode's display name, as error messages and tables print it.
    pub fn name(&self) -> &'static str {
        match self {
            Mode::Sync => "sync",
            Mode::Async => "async",
            Mode::Parallel(_) => "parallel",
            Mode::Worklist => "worklist",
            Mode::Delta(DeltaSchedule::RoundRobin) => "delta-rr",
            Mode::Delta(DeltaSchedule::Priority { .. }) => "delta-priority",
        }
    }
}

/// Run configuration shared by every engine.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Safety cap on rounds.
    pub max_rounds: usize,
    /// Record a per-round [`crate::convergence::TracePoint`].
    pub record_trace: bool,
    /// Traversal-direction policy (default [`DirectionPolicy::Auto`]:
    /// Beamer-style per-round choice). Honoured by every engine: the
    /// sequential sync/async/worklist kernels, the block-parallel engine
    /// at every block count, and the delta engines (where push = the
    /// sparse pending sweep or prioritized batch, pull = the dense
    /// full-scan fallback).
    pub direction: DirectionPolicy,
    /// Last-level-cache budget the synchronous engine's blocked dense
    /// pull sweep sizes its order-position blocks to (default
    /// [`crate::direction::DEFAULT_LLC_BYTES`] = 8 MiB). Runs whose
    /// state array already fits the budget skip blocking entirely.
    pub llc_bytes: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            max_rounds: 10_000,
            record_trace: false,
            direction: DirectionPolicy::Auto,
            llc_bytes: crate::direction::DEFAULT_LLC_BYTES,
        }
    }
}

/// Total memory footprint of a run: CSR arrays + engine state
/// (Fig. 11's comparison).
pub fn total_memory_bytes(g: &CsrGraph, stats: &RunStats) -> usize {
    g.memory_bytes() + stats.state_memory_bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Sssp;
    use crate::pipeline::Pipeline;
    use gograph_graph::generators::regular::chain;

    #[test]
    fn memory_accounting_includes_graph() {
        let g = chain(10);
        let stats = Pipeline::on(&g)
            .algorithm(Sssp::new(0))
            .execute()
            .unwrap()
            .stats;
        assert!(total_memory_bytes(&g, &stats) > stats.state_memory_bytes);
    }
}
