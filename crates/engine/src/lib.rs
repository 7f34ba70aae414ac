//! # gograph-engine
//!
//! Iterative graph computation engine for the GoGraph reproduction:
//! synchronous (Jacobi, paper Eq. 1), asynchronous (Gauss–Seidel, Eq. 2),
//! block-parallel asynchronous and delta-accumulative execution of
//! monotonic vertex programs, with convergence traces and memory
//! accounting.
//!
//! The asynchronous engine consumes in-neighbor states that were already
//! updated in the *current* round whenever the neighbor precedes the
//! vertex in the processing order — the behaviour whose benefit GoGraph's
//! reordering maximizes.
//!
//! Runs go through [`Pipeline`] (reorder → relabel → iterate) or, over
//! an evolving graph, [`StreamingPipeline`]; both end in [`execute`],
//! the one function that validates a run, builds its start state and
//! picks the kernel for its [`Mode`].
//!
//! Algorithms (paper §V-A workloads + §III monotone examples):
//! PageRank, SSSP, BFS, PHP, CC, SSWP, Katz, Adsorption.

#![warn(missing_docs)]

pub mod algorithm;
pub mod algorithms;
mod asynch;
pub mod convergence;
pub mod delta;
pub mod direction;
pub mod dispatch;
pub mod error;
mod parallel;
pub mod pipeline;
pub mod runner;
pub mod strategy;
pub mod streaming;
mod support;

pub use algorithm::{ConvergenceNorm, IterativeAlgorithm, Monotonicity};
pub use algorithms::{Adsorption, Bfs, ConnectedComponents, Katz, PageRank, Php, Sssp, Sswp};
pub use convergence::{RunStats, TracePoint};
pub use delta::{DeltaAlgorithm, DeltaPageRank, DeltaSchedule, DeltaSssp};
pub use direction::DirectionPolicy;
pub use dispatch::{AlgorithmKind, DeltaAlgorithmKind, DynOnly, GatherContext, ScatterContext};
pub use error::EngineError;
pub use pipeline::{Pipeline, PipelineResult, StageTimings};
pub use runner::{total_memory_bytes, Mode, RunConfig};
pub use strategy::{execute, AlgorithmRef, WarmStart};
pub use streaming::{
    split_batches, BatchResult, ResumableState, RunSummary, Savepoint, SplitBatchesError,
    StreamingPipeline, StreamingPipelineBuilder, Track,
};
