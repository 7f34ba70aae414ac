//! # gograph-graph
//!
//! Directed weighted graph substrate for the GoGraph reproduction
//! (*Fast Iterative Graph Computing with Updated Neighbor States*,
//! ICDE 2024).
//!
//! Provides:
//! - [`csr::CsrGraph`] — CSR storage with both out- and in-adjacency,
//!   cut into `Arc`'d row blocks that an update batch copies only where
//!   it lands; a block holds raw ids or, after
//!   [`csr::CsrGraph::compress`], delta-varint rows,
//! - [`compressed`] — that delta-varint row encoding,
//! - [`builder::GraphBuilder`] — edge-stream construction with dedup,
//! - [`frontier::Frontier`] — hybrid sparse/dense active-vertex sets,
//! - [`permutation::Permutation`] — processing orders / ordinal numbers,
//! - [`generators`] — deterministic synthetic graphs (BA, RMAT, ER,
//!   planted-partition, regular families),
//! - [`io`] — edge-list text and compact binary serialization,
//! - [`codec`] — the bounds-checked reader and writer every binary format
//!   of the workspace decodes and encodes through,
//! - [`traversal`] — BFS/DFS/topological-sort/components,
//! - [`stats`] — degree statistics and hub thresholds.

#![warn(missing_docs)]

pub mod builder;
pub mod codec;
pub mod compressed;
pub mod csr;
pub mod frontier;
pub mod generators;
pub mod io;
pub mod permutation;
pub mod scc;
pub mod stats;
pub mod traversal;
pub mod types;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use frontier::Frontier;
pub use permutation::{OrderPatch, Permutation};
pub use types::{
    check_batch, check_client_batch, grown_vertices, Direction, Edge, EdgeId, EdgeUpdate, VertexId,
    Weight,
};

// Compile-time thread-safety audit: epoch-snapshot serving hands these
// types (or borrowed views of them) to reader threads, so losing `Send
// + Sync` — e.g. by introducing a `Cell` or `Rc` field — must fail the
// build, not surface as a data race.
const _: () = {
    const fn require_send_sync<T: Send + Sync>() {}
    require_send_sync::<CsrGraph>();
    require_send_sync::<Permutation>();
    require_send_sync::<Frontier>();
};
