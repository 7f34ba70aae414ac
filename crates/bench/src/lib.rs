//! # gograph-bench
//!
//! Reproduces every table and figure of the paper's evaluation (§V) on
//! the synthetic dataset analogues of [`datasets`]: one function per
//! figure in [`experiments`], one section per figure in the `paper`
//! binary (`src/bin/paper.rs`). Timing of the system itself is the
//! stand-alone harness under `benchmark/`, not this crate.

#![warn(missing_docs)]

pub mod datasets;
pub mod experiments;
pub mod harness;
pub mod orderings;
